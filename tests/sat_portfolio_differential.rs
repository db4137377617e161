//! Differential tests for the incremental solving layer: an
//! [`IncrementalSession`] must return the same SAT/UNSAT verdict as a
//! fresh serial CDCL solver on a seeded random-CNF sweep and under
//! changing assumptions, and every SAT model must verify against its
//! formula.
//!
//! The sweep size defaults to a quick 16 instances; CI sets
//! `ENGAGE_SAT_SWEEP_SEEDS` (e.g. 64) for the full differential run.

use engage_sat::{verify_model, Cnf, IncrementalSession, Lit, SatResult, Solver, Var};
use engage_util::rand::{Rng, SeedableRng, StdRng};

/// Random k-CNF over the repo's seeded RNG — the same generator shape as
/// `tests/sat_differential.rs`, so both sweeps draw from one reproducible
/// family of instances.
fn seeded_cnf(rng: &mut StdRng, vars: u32, clauses: usize, clause_len: usize) -> Cnf {
    let mut cnf = Cnf::new();
    let vs: Vec<Var> = (0..vars).map(|_| cnf.fresh_var()).collect();
    for _ in 0..clauses {
        let c: Vec<Lit> = (0..clause_len)
            .map(|_| {
                let v = vs[rng.gen_range(0..vars as usize)];
                Lit::new(v, rng.gen_range(0..2u32) == 0)
            })
            .collect();
        cnf.add_clause(c);
    }
    cnf
}

/// Number of instances in the sweep: `ENGAGE_SAT_SWEEP_SEEDS` if set,
/// else a quick default for local `cargo test`.
fn sweep_seeds() -> u64 {
    engage_util::env::sweep_size("ENGAGE_SAT_SWEEP_SEEDS", 16)
}

#[test]
fn incremental_agrees_with_serial_on_seeded_sweep() {
    let seeds = sweep_seeds();
    let mut disagreements = Vec::new();
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ (seed.wrapping_mul(0x9E3779B97F4A7C15)));
        let vars = rng.gen_range(8..=16u32);
        // Densities straddle the ~4.27 3-SAT threshold so the sweep mixes
        // SAT and UNSAT instances.
        let clauses = (vars as usize * rng.gen_range(30..=55u32) as usize) / 10;
        let cnf = seeded_cnf(&mut rng, vars, clauses, 3);

        let serial = Solver::from_cnf(&cnf).solve();
        if let SatResult::Sat(m) = &serial {
            if let Err(e) = verify_model(&cnf, m) {
                panic!("serial model invalid (seed {seed}): {e}");
            }
        }

        let mut session = IncrementalSession::new();
        let inc = session.solve(&cnf, &[]);
        if inc.result.is_sat() != serial.is_sat() {
            disagreements.push(format!(
                "seed {seed}: incremental said {}, serial said {}",
                inc.result.is_sat(),
                serial.is_sat()
            ));
        } else if let SatResult::Sat(m) = &inc.result {
            if let Err(e) = verify_model(&cnf, m) {
                panic!("incremental model invalid (seed {seed}): {e}");
            }
        }
    }
    assert!(
        disagreements.is_empty(),
        "{} disagreement(s) across {seeds} instances:\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}

#[test]
fn incremental_session_agrees_under_changing_assumptions() {
    // Flip assumption sets over one session; a fresh solver per call is
    // the oracle. Learned clauses carried across calls must never change
    // a verdict.
    let mut rng = StdRng::seed_from_u64(0xA55);
    let cnf = seeded_cnf(&mut rng, 14, 50, 3);
    let vs: Vec<Var> = (0..14).map(Var).collect();
    let mut session = IncrementalSession::new();
    for round in 0..12 {
        let a = vs[rng.gen_range(0..vs.len())];
        let b = vs[rng.gen_range(0..vs.len())];
        let assumptions = vec![
            Lit::new(a, rng.gen_bool(0.5)),
            Lit::new(b, rng.gen_bool(0.5)),
        ];
        let inc = session.solve(&cnf, &assumptions);
        let oracle = Solver::from_cnf(&cnf).solve_with_assumptions(&assumptions);
        assert_eq!(
            inc.result.is_sat(),
            oracle.is_sat(),
            "round {round}, assumptions {assumptions:?}"
        );
        if let SatResult::Sat(m) = &inc.result {
            if let Err(e) = verify_model(&cnf, m) {
                panic!("round {round}: {e}");
            }
            for lit in &assumptions {
                assert_eq!(
                    m.value(lit.var()),
                    lit.is_positive(),
                    "round {round}: assumption {lit:?} not honored"
                );
            }
        }
        if round > 0 {
            assert!(inc.reused, "round {round} should reuse the session solver");
        }
    }
}
