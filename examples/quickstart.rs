//! Quickstart: the paper's §2 walkthrough — install and manage OpenMRS.
//!
//! Reproduces, in order: the Figure 1 resource types, the Figure 2 partial
//! installation specification, the Figure 5 hypergraph, the §4 Boolean
//! constraints, the generated full installation specification, the
//! Figure 3 driver transitions during deployment, monitoring, and ordered
//! shutdown.
//!
//! Run with: `cargo run --example quickstart`

use engage::Engage;
use engage_config::{graph_gen, render_constraints};
use engage_model::PortKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let universe = engage_library::base_universe();
    let engage = Engage::new(universe.clone())
        .with_packages(engage_library::package_universe())
        .with_registry(engage_library::driver_registry());

    println!("== Static checks (well-formedness + Figure 4 subtyping) ==");
    engage
        .check()
        .map_err(|errs| format!("universe check failed: {errs:?}"))?;
    println!("{} resource types check out\n", universe.len());

    println!("== Figure 1: resource types for the OpenMRS installation ==");
    for key in [
        "Server",
        "Java",
        "Tomcat 6.0.18",
        "MySQL 5.1",
        "OpenMRS 1.8",
    ] {
        let ty = universe.get(&key.into()).expect("library type");
        println!("{}", engage_dsl::print_resource_type(ty));
    }

    println!("== Figure 2: partial installation specification (JSON) ==");
    let partial = engage_library::openmrs_partial();
    print!("{}", engage_dsl::render_partial_spec(&partial));
    println!();

    println!("== Figure 5: resource-instance hypergraph ==");
    let graph = graph_gen(&universe, &partial)?;
    print!("{}", graph.render());
    println!();

    println!("== §4 Boolean constraints ==");
    print!("{}", render_constraints(&graph));
    println!();

    println!("== Full installation specification (computed by the engine) ==");
    let (outcome, mut deployment) = engage.deploy(&partial)?;
    let rendered = engage_dsl::render_install_spec(&outcome.spec);
    println!(
        "partial spec: {} instances / {} lines; full spec: {} instances / {} lines",
        partial.len(),
        engage_dsl::render_partial_spec(&partial).lines().count(),
        outcome.spec.len(),
        rendered.lines().count()
    );
    for inst in outcome.spec.iter() {
        println!("  {} : {}", inst.id(), inst.key());
    }
    println!();

    println!("== Propagated configuration (input/output ports) ==");
    let openmrs = outcome.spec.get(&"openmrs".into()).expect("deployed");
    for (name, v) in openmrs.inputs() {
        println!("  openmrs input {name} = {v}");
    }
    for (name, v) in openmrs.outputs() {
        println!("  openmrs output {name} = {v}");
    }
    let ty = universe.effective(&"OpenMRS 1.8".into())?;
    println!(
        "  (OpenMRS declares {} input ports, each mapped exactly once)",
        ty.ports_of(PortKind::Input).count()
    );
    println!();

    println!("== Figure 3: driver transitions executed during deployment ==");
    for entry in deployment.timeline() {
        println!(
            "  t={:>5.0?}  {:<12} {}",
            entry.start,
            entry.instance.to_string(),
            entry.action
        );
    }
    println!();

    println!("== Status ==");
    for (id, state) in engage.status(&deployment) {
        println!("  {id:<12} {state}");
    }
    println!();

    println!("== Monitoring: crash MySQL, let monit restart it ==");
    let db_host = deployment.host_of(&"mysql-5.1".into()).expect("db host");
    engage.sim().crash_service(db_host, "mysql")?;
    let restarted = engage.monitor_tick(&mut deployment)?;
    for r in &restarted {
        println!(
            "  monit restarted `{}` on {} at t={:.0?}",
            r.service, r.host, r.at
        );
    }
    println!();

    println!("== Ordered shutdown (reverse dependency order) ==");
    let before = deployment.timeline().len();
    engage.stop(&mut deployment)?;
    for entry in &deployment.timeline()[before..] {
        println!("  {} {}", entry.action, entry.instance);
    }
    println!("\nDone: the stack was configured, deployed, monitored, and stopped.");
    Ok(())
}
