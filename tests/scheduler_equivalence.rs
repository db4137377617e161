//! Seeded property sweep: the transition DAG executor must be
//! observationally equivalent to the sequential reference executor of
//! `engage-testgen` — identical final driver states, identical
//! per-instance action sequences, identical running services and
//! installed packages — across `engage-testgen` scenarios (rotating
//! through every topology family), worker counts {1, 2, 4, 8}, and fault
//! plans. Every deploy is followed by a stop and an uninstall, compared
//! the same way, and the hosts must end clean; an auto-rollback cell
//! under permanent faults must leave them clean too.
//!
//! Seed depth is controlled by `ENGAGE_SCHED_SWEEP_SEEDS` (default 4).

use engage_config::ConfigEngine;
use engage_deploy::{package_name, service_name, DeploymentEngine, RetryPolicy};
use engage_model::InstallSpec;
use engage_sim::{DownloadSource, FaultKind, FaultOp, FaultPlan, Sim};
use engage_testgen::{observe, scenario, Family, Observation, Reference, Scenario};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn sweep_seeds() -> u64 {
    engage_util::env::sweep_size("ENGAGE_SCHED_SWEEP_SEEDS", 4)
}

/// A seeded deployment case: each seed draws from the next topology
/// family, and the serial solver plans the full spec to deploy.
fn case(seed: u64) -> (Scenario, InstallSpec) {
    let family = Family::ALL[(seed as usize) % Family::ALL.len()];
    let s = scenario(family, seed);
    let spec = ConfigEngine::new(&s.universe)
        .configure(&s.partial)
        .unwrap_or_else(|e| panic!("{}: plan failed: {e}", s.name()))
        .spec;
    (s, spec)
}

/// The (package, service) fault targets: the first and last hosted
/// instances of the spec. Count-based transient charges are consumed in
/// operation-arrival order — which instance eats a charge may differ
/// between executors, but with all-transient faults and retries the
/// committed timelines must still agree.
fn fault_targets(spec: &InstallSpec) -> (String, String) {
    let hosted: Vec<_> = spec.iter().filter(|i| i.inside_link().is_some()).collect();
    let first = hosted.first().expect("every scenario hosts instances");
    let last = hosted.last().expect("every scenario hosts instances");
    (package_name(first.key()), service_name(last.key()))
}

/// The lifecycle observations one executor must reproduce: after the
/// deploy, after `stop`, and after `uninstall`.
type Lifecycle = [Observation; 3];

/// The oracle: the reference executor's deploy → stop → uninstall.
fn reference(s: &Scenario, spec: &InstallSpec, sim: Sim, retry: &RetryPolicy) -> Lifecycle {
    let mut r = Reference::provision(&s.universe, spec, sim, retry.clone());
    r.deploy().unwrap();
    let up = r.observe();
    r.stop().unwrap();
    let stopped = r.observe();
    r.uninstall().unwrap();
    [up, stopped, r.observe()]
}

/// The DAG executor on `workers` workers: parallel deploy, then
/// `stop_all` and `uninstall_all` on the same worker count.
fn dag(
    s: &Scenario,
    spec: &InstallSpec,
    sim: Sim,
    retry: &RetryPolicy,
    workers: usize,
) -> Lifecycle {
    let engine = DeploymentEngine::new(sim.clone(), &s.universe)
        .with_retry_policy(retry.clone())
        .with_workers(workers);
    let mut dep = engine.deploy_parallel(spec).unwrap().deployment;
    let up = observe(spec, &sim, &dep);
    engine.stop_all(&mut dep).unwrap();
    let stopped = observe(spec, &sim, &dep);
    engine.uninstall_all(&mut dep).unwrap();
    [up, stopped, observe(spec, &sim, &dep)]
}

/// The sweep core: the reference oracle vs. the DAG executor at every
/// worker count, on one seeded topology and fault setup.
fn assert_equivalent(seed: u64, configure: &dyn Fn(&Sim, &InstallSpec), retry: &RetryPolicy) {
    let (s, spec) = case(seed);
    let fresh = || {
        let sim = Sim::new(DownloadSource::local_cache());
        configure(&sim, &spec);
        sim
    };
    let oracle = reference(&s, &spec, fresh(), retry);
    assert!(
        oracle[2].hosts_clean(),
        "{}: reference left residue",
        s.name()
    );
    for workers in WORKER_COUNTS {
        let seen = dag(&s, &spec, fresh(), retry, workers);
        for (phase, (expected, got)) in ["deploy", "stop", "uninstall"]
            .iter()
            .zip(oracle.iter().zip(&seen))
        {
            assert_eq!(
                expected,
                got,
                "{}: {phase} with {workers} workers diverges",
                s.name()
            );
        }
        assert!(seen[2].hosts_clean(), "{}: residue", s.name());
    }
}

#[test]
fn wavefront_matches_oracles_on_generated_scenarios() {
    for seed in 0..sweep_seeds() {
        assert_equivalent(seed, &|_, _| {}, &RetryPolicy::none());
    }
}

#[test]
fn wavefront_matches_oracles_with_transient_fault_charges() {
    for seed in 0..sweep_seeds() {
        // Deterministic count-based transient faults on two instances
        // drawn from the generated spec: an install charge and a start
        // charge.
        let configure = |sim: &Sim, spec: &InstallSpec| {
            let (package, service) = fault_targets(spec);
            sim.inject_fault(FaultOp::Install, &package, 2, FaultKind::Transient);
            sim.inject_fault(FaultOp::Start, &service, 1, FaultKind::Transient);
        };
        let retry = RetryPolicy::new(4).with_seed(seed);
        assert_equivalent(seed, &configure, &retry);
    }
}

#[test]
fn wavefront_matches_oracles_under_chaos_plans() {
    for seed in 0..sweep_seeds() {
        // Probabilistic all-transient chaos with a deep retry budget:
        // every executor converges (transient faults always retry
        // through) and the converged observations must agree.
        let configure = move |sim: &Sim, _: &InstallSpec| {
            sim.set_fault_plan(
                FaultPlan::new(seed)
                    .with_install_faults(0.2, 1.0)
                    .with_start_faults(0.2, 1.0),
            );
        };
        let retry = RetryPolicy::new(10).with_seed(seed);
        assert_equivalent(seed, &configure, &retry);
    }
}

/// Whether no package or service of `spec`'s hosted instances is left
/// on any host of `sim`.
fn hosts_clean(spec: &InstallSpec, sim: &Sim) -> bool {
    let hosted: Vec<_> = spec.iter().filter(|i| i.inside_link().is_some()).collect();
    sim.hosts().into_iter().all(|h| {
        hosted.iter().all(|i| {
            !sim.has_package(h, &package_name(i.key()))
                && !sim.service_running(h, &service_name(i.key()))
        })
    })
}

#[test]
fn auto_rollback_matches_reference_under_permanent_faults() {
    for seed in 0..sweep_seeds() {
        let (s, spec) = case(seed);
        // The last hosted instance's service never starts: every deploy
        // fails part-way, wherever the executor had got to.
        let (_, service) = fault_targets(&spec);
        let fresh = || {
            let sim = Sim::new(DownloadSource::local_cache());
            sim.inject_fault(FaultOp::Start, &service, u32::MAX, FaultKind::Permanent);
            sim
        };
        let sim = fresh();
        let mut r = Reference::provision(&s.universe, &spec, sim.clone(), RetryPolicy::none());
        assert!(r.deploy().is_err(), "{}: the fault must fire", s.name());
        let rolled_back = r.rollback();
        let clean = hosts_clean(&spec, &sim);
        assert!(rolled_back && clean, "{}: reference residue", s.name());
        for workers in WORKER_COUNTS {
            let sim = fresh();
            let engine = DeploymentEngine::new(sim.clone(), &s.universe)
                .with_auto_rollback(true)
                .with_workers(workers);
            let failure = engine.deploy_parallel_with_recovery(&spec).unwrap_err();
            assert_eq!(
                (failure.rolled_back, hosts_clean(&spec, &sim)),
                (Some(rolled_back), clean),
                "{}: rollback with {workers} workers diverges after: {}",
                s.name(),
                failure.error
            );
        }
    }
}
