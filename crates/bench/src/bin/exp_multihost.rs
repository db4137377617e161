//! Experiment: multi-host deployment (§5.2 Installation, Monitoring, and
//! Shutdown).
//!
//! "The implementation of a multi-host install can be simplified if one
//! can partially order the machines ... we can break the overall install
//! specification into per-node specifications and run a slave instance of
//! Engage on each target host ... Slave deployments can run in parallel
//! when the slaves have no inter-dependencies."
//!
//! Deploys the two-machine OpenMRS production stack (§2: "in a production
//! setting, the database will run on a separate machine") with the
//! parallel transition DAG executor, reports the per-node specs, the §5.2
//! machine order and the makespans, and checks the result against the
//! sequential reference executor of `engage-testgen`.
//!
//! Run with: `cargo run -p engage-bench --bin exp_multihost [--metrics [FILE]] [--trace FILE]`

use engage::Engage;
use engage_bench::Reporter;
use engage_sim::{DownloadSource, Sim};
use engage_testgen::{observe, Reference};

fn main() {
    let reporter = Reporter::from_args("multihost");
    let partial = engage_library::openmrs_production_partial();
    let e = Engage::new(engage_library::base_universe())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry())
        .with_obs(reporter.obs());

    println!("== Parallel deployment (one worker per machine) ==");
    let (outcome, parallel) = e.deploy_parallel(&partial).expect("deploys");
    let dep = &parallel.deployment;
    println!(
        "{} resource instances across {} machines; {} workers; all drivers active: {}",
        outcome.spec.len(),
        dep.machines().len(),
        parallel.slaves,
        dep.is_deployed()
    );
    for (host, ids) in dep.per_node_specs() {
        let names: Vec<String> = ids.iter().map(ToString::to_string).collect();
        println!("  per-node spec {host}: {}", names.join(", "));
    }
    let order = dep
        .host_order()
        .expect("the machines are partially ordered");
    let names: Vec<String> = order
        .iter()
        .map(|h| e.sim().host_info(*h).expect("provisioned").hostname)
        .collect();
    println!("§5.2 machine order: {}", names.join(" -> "));
    println!(
        "simulated install: sequential {:.1} min, list-scheduling estimate {:.1} min",
        dep.sequential_duration().as_secs_f64() / 60.0,
        dep.parallel_makespan().as_secs_f64() / 60.0
    );
    println!("cross-host ordering enforced by driver guards:");
    let starts: Vec<&engage_deploy::TimelineEntry> = dep
        .timeline()
        .iter()
        .filter(|t| t.action == "start")
        .collect();
    for t in &starts {
        println!("  t={:>6.0?} start {}", t.start, t.instance);
    }
    let pos = |id: &str| starts.iter().position(|t| t.instance.as_str() == id);
    println!(
        "MySQL (db host) started before OpenMRS (app host): {}",
        pos("mysql") < pos("openmrs")
    );
    println!();

    println!("== Sequential reference executor (dependency-order walk) ==");
    let sim = Sim::with_packages(
        engage_library::package_universe(),
        DownloadSource::local_cache(),
    );
    let mut reference = Reference::provision(
        e.universe(),
        &outcome.spec,
        sim,
        engage_deploy::RetryPolicy::none(),
    )
    .with_registry(engage_library::driver_registry());
    reference.deploy().expect("the reference deploys");
    let agrees = reference.observe() == observe(&outcome.spec, e.sim(), dep);
    println!("DAG executor equals the reference (states, action sequences, services, packages): {agrees}");
    assert!(
        agrees,
        "the DAG executor diverged from the reference executor"
    );

    println!();
    println!(
        "paper: slaves run in parallel, coordinated by the master via dependencies;\n\
         ours: one transition DAG over every host, {} workers, cross-host guards\n\
         released as O(1) counter decrements.",
        parallel.slaves
    );
    reporter.finish();
}
