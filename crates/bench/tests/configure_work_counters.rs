//! Deterministic work-counter gate for configuration solves.
//!
//! Configuration CNFs number their variables in GraphGen discovery order,
//! and the solver decides in index order with phase `true`, so every
//! satisfiable configure must finish without a single conflict or restart
//! (see `docs/solver-modes.md`). A change to the decision heuristic, the
//! variable numbering or the encoding that brings back search shows up
//! here as a counter, independent of machine speed.

use engage_bench::{graphgen_partial, graphgen_universe};
use engage_config::{ConfigEngine, ConfigSession, SolverMode};
use engage_model::{PartialInstallSpec, Universe};
use engage_testgen::{scenario, Family};

/// Testgen seeds per family.
const SEEDS: u64 = 60;

/// Configures each partial in turn through one session and asserts the
/// solver never conflicted or restarted.
fn assert_conflict_free(name: &str, u: &Universe, partials: &[&PartialInstallSpec]) {
    for mode in [SolverMode::Serial, SolverMode::Incremental] {
        let engine = ConfigEngine::new(u).with_solver_mode(mode);
        let mut session = ConfigSession::new();
        for (leg, partial) in partials.iter().enumerate() {
            let out = engine
                .reconfigure(&mut session, partial)
                .unwrap_or_else(|e| panic!("{name}/{mode}/leg{leg}: {e}"));
            let stats = out.solver_stats;
            assert_eq!(stats.conflicts, 0, "{name}/{mode}/leg{leg}: {stats:?}");
            assert_eq!(stats.restarts, 0, "{name}/{mode}/leg{leg}: {stats:?}");
        }
    }
}

#[test]
fn graphgen_estate_configures_without_conflicts() {
    // 300 machines: 10,204 GraphGen nodes.
    let u = graphgen_universe(8, 4, 2);
    let partial = graphgen_partial(300);
    assert_conflict_free("graphgen-300", &u, &[&partial]);
}

#[test]
fn testgen_scenarios_configure_without_conflicts() {
    for family in Family::ALL {
        for seed in 0..SEEDS {
            let sc = scenario(family, seed);
            assert!(sc.expected.satisfiable, "{}", sc.name());
            assert_conflict_free(&sc.name(), &sc.universe, &[&sc.partial, &sc.reconfigure]);
        }
    }
}
