//! Experiment: wavefront DAG scheduling at 10k+ instances.
//!
//! The ROADMAP north star asks for deployments "at the scale of
//! thousands of hosts". This experiment builds a synthetic estate —
//! thousands of machines, one service per machine, sparse cross-host
//! dependency hubs — and deploys it with the wavefront scheduler at
//! worker counts {1, 2, 4, 8}.
//!
//! Driver actions in the timed runs sleep ~300 µs of real wall-clock,
//! modeling the I/O-bound remote driver invocations of a real master
//! (package downloads, ssh round-trips). Workers blocked in driver I/O
//! overlap even on a single CPU, so wall-clock speedup tracks worker
//! count while the scheduler's own overhead stays on one core.
//!
//! The run asserts:
//! * ≥ 3x speedup at 8 workers vs 1 worker (full mode only);
//! * the wavefront result is differentially equal to the sequential
//!   reference executor of `engage-testgen` (final driver states, action
//!   sequences, running services, installed packages) at every scale.
//!
//! Run with: `cargo run --release -p engage-bench --bin exp_megadeploy
//! [--smoke] [--metrics [FILE]] [--trace FILE]`

use std::time::{Duration, Instant};

use engage_bench::Reporter;
use engage_deploy::{
    generic_action, ActionCtx, DeploymentEngine, DriverBinding, DriverRegistry, RetryPolicy,
};
use engage_model::{InstallSpec, ResourceInstance, Universe, Value};
use engage_sim::{DownloadSource, Sim};
use engage_testgen::{observe, Reference};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Cross-host dependency hubs: every HUB_SPAN-th service is a hub its
/// neighbors link to, giving the DAG realistic (but shallow) cross-host
/// guard edges.
const HUB_SPAN: usize = 10;
/// Simulated remote-driver latency per action in the timed runs.
const ACTION_LATENCY: Duration = Duration::from_micros(300);

fn universe() -> Universe {
    engage_dsl::parse_universe(
        r#"
        abstract resource "Server" {
          config port hostname: string = "localhost";
          output port host: { hostname: string } = { hostname: config.hostname };
        }
        resource "Ubuntu 10.10" extends "Server" {}
        resource "Mega 1.0" {
          inside "Server";
          output port p: int = 1;
          driver service;
        }"#,
    )
    .unwrap()
}

/// `machines` hosts, one `Mega 1.0` service per host (2 instances and 4
/// driver transitions per machine), with every non-hub service linking
/// to its span's hub service.
fn estate(machines: usize) -> InstallSpec {
    let mut spec = InstallSpec::new();
    for m in 0..machines {
        let mut host = ResourceInstance::new(format!("m{m}"), "Ubuntu 10.10");
        host.set_config("hostname", Value::from(format!("host{m}")));
        host.set_output(
            "host",
            Value::structure([("hostname", Value::from(format!("host{m}")))]),
        );
        spec.push(host).unwrap();
        let mut svc = ResourceInstance::new(format!("s{m}"), "Mega 1.0");
        svc.set_inside_link(format!("m{m}"));
        svc.set_output("p", Value::from(1i64));
        let hub = m - m % HUB_SPAN;
        if hub != m {
            svc.add_peer_link(format!("s{hub}"));
        }
        spec.push(svc).unwrap();
    }
    spec
}

/// A registry whose actions sleep [`ACTION_LATENCY`] before running the
/// generic implementation — the I/O-bound remote driver of a real master.
fn latency_registry() -> DriverRegistry {
    let bind = || {
        DriverBinding::new()
            .action("install", |ctx: &ActionCtx<'_>| {
                std::thread::sleep(ACTION_LATENCY);
                generic_action("install", ctx)
            })
            .action("start", |ctx: &ActionCtx<'_>| {
                std::thread::sleep(ACTION_LATENCY);
                generic_action("start", ctx)
            })
    };
    DriverRegistry::new()
        .bind("Ubuntu 10.10", bind())
        .bind("Mega 1.0", bind())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reporter = Reporter::from_args("megadeploy");
    let obs = reporter.obs();
    let machines = if smoke { 200 } else { 5_000 };
    let universe = universe();
    let spec = estate(machines);
    println!(
        "== Megadeploy: {} instances on {} machines ({} mode) ==",
        spec.len(),
        machines,
        if smoke { "smoke" } else { "full" }
    );

    // Differential oracle: the sequential reference executor, instant
    // generic drivers.
    let started = Instant::now();
    let mut reference = Reference::provision(
        &universe,
        &spec,
        Sim::new(DownloadSource::local_cache()),
        RetryPolicy::none(),
    );
    reference.deploy().expect("the reference deploys");
    let oracle = reference.observe();
    println!(
        "reference oracle: {} transitions in {:.2?} wall",
        oracle.sequences.values().map(Vec::len).sum::<usize>(),
        started.elapsed()
    );

    // Equality sweep: wavefront at every worker count, instant drivers.
    for workers in WORKER_COUNTS {
        let engine = DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &universe)
            .with_workers(workers);
        let outcome = engine.deploy_parallel(&spec).expect("wavefront deploys");
        let got = observe(&spec, engine.sim(), &outcome.deployment);
        assert!(
            oracle == got,
            "wavefront with {workers} workers diverged from the reference oracle"
        );
    }
    println!("wavefront == reference oracle at workers {WORKER_COUNTS:?}");

    // Timed ladder with I/O-bound drivers (skipped in smoke mode: the
    // sleeps dominate CI time without changing the equality properties).
    if !smoke {
        println!();
        println!(
            "== Timed ladder ({:?} simulated driver latency per action) ==",
            ACTION_LATENCY
        );
        let mut walls: Vec<(usize, Duration)> = Vec::new();
        for workers in WORKER_COUNTS {
            let engine = DeploymentEngine::new(Sim::new(DownloadSource::local_cache()), &universe)
                .with_registry(latency_registry())
                .with_obs(obs.clone())
                .with_workers(workers);
            let outcome = engine.deploy_parallel(&spec).expect("wavefront deploys");
            assert!(outcome.deployment.is_deployed());
            println!(
                "  {workers} worker(s): {:.2?} wall for {} transitions",
                outcome.wall,
                outcome.deployment.timeline().len()
            );
            obs.gauge(&format!("megadeploy.wall_ms.workers_{workers}"))
                .set(outcome.wall.as_millis() as i64);
            walls.push((workers, outcome.wall));
        }
        let t1 = walls[0].1.as_secs_f64();
        let t8 = walls.last().unwrap().1.as_secs_f64();
        let speedup = t1 / t8;
        println!("speedup at 8 workers vs 1: {speedup:.2}x");
        obs.gauge("megadeploy.speedup_x100")
            .set((speedup * 100.0) as i64);
        assert!(
            speedup >= 3.0,
            "expected >= 3x speedup at 8 workers, got {speedup:.2}x"
        );
    }
    reporter.finish();
}
