//! Experiment: incremental SAT for reconfiguration (beyond the paper;
//! see `docs/solver-modes.md`).
//!
//! Re-solving a mutated partial spec through a live
//! [`engage_config::ConfigSession`] (cached hypergraph + constraints,
//! spec instances as assumptions, learnt clauses kept) is at least 2×
//! faster than a fresh configure.
//!
//! Run with:
//! `cargo run -p engage-bench --release --bin exp_incremental [--metrics [FILE]] [--trace FILE]`

use std::time::Instant;

use engage_bench::Reporter;
use engage_config::{ConfigEngine, ConfigSession, SolverMode};
use engage_model::{PartialInstallSpec, PartialInstance};

/// Median of a sample in microseconds.
fn median_us(samples: &mut [u128]) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let reporter = Reporter::from_args("incremental");
    let obs = reporter.obs();

    println!("== Incremental reconfiguration: fresh configure vs reconfigure ==");
    println!("(one-instance spec mutation — the server's hostname — per round;");
    println!(" full pipeline including the static re-check)");
    println!(
        "{:<18} {:>12} {:>14} {:>9}",
        "universe", "fresh", "reconfigure", "speedup"
    );
    let mut headline_speedup = 0.0f64;
    for (depth, width) in [(32usize, 2usize), (64, 2), (4, 16), (8, 8)] {
        let u = engage_bench::synthetic_universe(depth, width);
        let partial = |host: &str| -> PartialInstallSpec {
            [
                PartialInstance::new("server", "BenchOS 1.0").config("hostname", host),
                PartialInstance::new("app", "App 1.0").inside("server"),
            ]
            .into_iter()
            .collect()
        };
        let fresh_engine = ConfigEngine::new(&u);
        let engine = ConfigEngine::new(&u)
            .with_solver_mode(SolverMode::Incremental)
            .with_obs(obs.clone());
        let mut session = ConfigSession::new();
        // Warm both paths, then measure mutation rounds.
        fresh_engine.configure(&partial("warm")).unwrap();
        engine.reconfigure(&mut session, &partial("warm")).unwrap();
        let mut fresh = Vec::new();
        let mut reconf = Vec::new();
        for round in 0..7 {
            let p = partial(&format!("host-{round}.example.com"));
            let t = Instant::now();
            let a = fresh_engine.configure(&p).unwrap();
            fresh.push(t.elapsed().as_micros());
            let t = Instant::now();
            let b = engine.reconfigure(&mut session, &p).unwrap();
            reconf.push(t.elapsed().as_micros());
            assert!(b.reused_structure, "shape-preserving edit reuses the graph");
            assert!(b.reused_solver, "identical CNF reuses the live solver");
            assert_eq!(a.spec.len(), b.spec.len(), "outcomes agree");
        }
        let fresh_median = median_us(&mut fresh);
        let reconf_median = median_us(&mut reconf);
        let speedup = fresh_median as f64 / reconf_median as f64;
        println!(
            "depth {depth:>2} width {width:>2} {:>9} µs {:>11} µs {speedup:>8.2}x",
            fresh_median, reconf_median
        );
        if (depth, width) == (64, 2) {
            headline_speedup = speedup;
            obs.gauge("bench.incremental.fresh_median_us")
                .set(fresh_median as i64);
            obs.gauge("bench.incremental.reconfigure_median_us")
                .set(reconf_median as i64);
            obs.gauge("bench.incremental.speedup_x100")
                .set((speedup * 100.0) as i64);
        }
    }
    assert!(
        headline_speedup >= 2.0,
        "incremental reconfigure must be >= 2x faster than fresh configure \
         (measured {headline_speedup:.2}x)"
    );
    println!(
        "\nheadline (depth 64, width 2): reconfigure is {headline_speedup:.2}x faster \
         than a fresh configure"
    );
    reporter.finish();
}
