//! The three-level estate shared by `lifecycle` and `deploy-io`: a
//! testgen `ThreeLevel` scenario of [`MACHINES`] machines with
//! [`RELEASES`] app releases per platform, and the oracles its
//! construction gives.

use engage::Engage;
use engage_deploy::{service_name, Deployment};
use engage_model::{
    BasicState, DriverState, InstallSpec, PartialInstallSpec, PartialInstance, Universe,
};
use engage_sim::Sim;
use engage_testgen::{scenario_with, Family, Knobs};
use engage_util::rand::{Rng, SeedableRng, StdRng};

/// Machines in the estate.
pub const MACHINES: usize = 500;
/// App releases per platform.
pub const RELEASES: usize = 8;

/// The generated input: what the program is given.
pub struct Estate {
    /// The universe as `.ers` source.
    pub dsl: String,
    /// The partial spec, its instances in a seed-permuted order.
    pub partial: PartialInstallSpec,
    /// Size of the full spec, from the construction.
    pub spec_len: usize,
    /// Instances whose driver runs a service: every platform, every app
    /// release and the hub.
    pub services: usize,
}

/// Builds the estate for `seed` (the seed only orders the partial spec;
/// the topology is fixed by the knobs).
pub fn generate(seed: u64, machines: usize, releases: usize) -> Estate {
    let knobs = Knobs {
        machines,
        services: releases,
        depth: 0,
        width: 0,
        unsat: false,
    };
    let scenario = scenario_with(Family::ThreeLevel, seed, knobs);
    Estate {
        dsl: engage_dsl::print_universe(&scenario.universe),
        partial: permuted(&scenario.partial, seed),
        spec_len: scenario
            .expected
            .spec_len
            .expect("three-level scenarios pin their spec size"),
        services: machines * (1 + releases) + 1,
    }
}

/// `partial` with its instances shuffled by `seed`.
pub fn permuted(partial: &PartialInstallSpec, seed: u64) -> PartialInstallSpec {
    let mut instances: Vec<PartialInstance> = partial.iter().cloned().collect();
    StdRng::seed_from_u64(seed).shuffle(&mut instances);
    instances.into_iter().collect()
}

/// The program's side of set-up: parse the universe and plan the full
/// spec, checked against the construction's size.
pub fn plan(estate: &Estate) -> Result<(Universe, InstallSpec), String> {
    let universe = engage_dsl::parse_universe(&estate.dsl).map_err(|d| d.message().to_owned())?;
    let engage = Engage::new(universe);
    let spec = engage
        .plan(&estate.partial)
        .map_err(|e| format!("plan: {e}"))?
        .spec;
    if spec.len() != estate.spec_len {
        return Err(format!(
            "plan has {} instances, the construction {}",
            spec.len(),
            estate.spec_len
        ));
    }
    Ok((engage.universe().clone(), spec))
}

fn runs_service(key_name: &str) -> bool {
    ["Plat", "Hub", "App"]
        .iter()
        .any(|p| key_name.starts_with(p))
}

/// Oracle for a deployed estate: every instance active, every service
/// instance's service running, sizes as constructed.
pub fn check_up(estate: &Estate, sim: &Sim, dep: &Deployment) -> Result<(), String> {
    let spec = dep.spec();
    if spec.len() != estate.spec_len {
        return Err(format!("{} instances deployed", spec.len()));
    }
    let active = DriverState::Basic(BasicState::Active);
    let mut running = 0;
    for inst in spec.iter() {
        if dep.state(inst.id()) != Some(&active) {
            return Err(format!("{} is {:?}", inst.id(), dep.state(inst.id())));
        }
        if runs_service(inst.key().name()) {
            let up = dep
                .host_of(inst.id())
                .is_some_and(|h| sim.service_running(h, &service_name(inst.key())));
            if !up {
                return Err(format!("{}'s service is down", inst.id()));
            }
            running += 1;
        }
    }
    if running != estate.services {
        return Err(format!(
            "{running} services running, the construction has {}",
            estate.services
        ));
    }
    Ok(())
}

/// Oracle after teardown: every instance uninstalled, no service running.
pub fn check_down(sim: &Sim, dep: &Deployment) -> Result<(), String> {
    let uninstalled = DriverState::Basic(BasicState::Uninstalled);
    for inst in dep.spec().iter() {
        if dep.state(inst.id()) != Some(&uninstalled) {
            return Err(format!("{} is {:?}", inst.id(), dep.state(inst.id())));
        }
        let up = dep
            .host_of(inst.id())
            .is_some_and(|h| sim.service_running(h, &service_name(inst.key())));
        if up {
            return Err(format!("{}'s service still runs", inst.id()));
        }
    }
    Ok(())
}
