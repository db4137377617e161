//! An independent sequential reference executor: the oracle the
//! deployment engine's transition DAG executor is tested against.
//!
//! It walks the instance dependency order — forwards to bring a stack
//! up, backwards to tear it down (§5.2) — and drives one driver at a time
//! along its shortest action path, evaluating every guard against the
//! live driver states at the moment the transition fires. It shares no
//! scheduling, path-finding or guard code with `engage-deploy`; only the
//! driver actions and the simulator are common.

use std::collections::{BTreeMap, HashSet, VecDeque};

use engage_deploy::ActionCtx;
use engage_deploy::{os_for_key, DriverRegistry, RetryPolicy};
use engage_model::{
    topological_order, BasicState, DriverSpec, DriverState, InstallSpec, InstanceId, StatePred,
    Universe, Value,
};
use engage_sim::{HostId, Os, Sim};

use crate::differential::{observation, Observation};

/// A deployment driven by the reference executor.
#[derive(Debug)]
pub struct Reference<'a> {
    universe: &'a Universe,
    spec: InstallSpec,
    sim: Sim,
    registry: DriverRegistry,
    retry: RetryPolicy,
    order: Vec<InstanceId>,
    states: BTreeMap<InstanceId, DriverState>,
    /// The host every instance runs on.
    hosts: BTreeMap<InstanceId, HostId>,
    actions: Vec<(InstanceId, String)>,
}

impl<'a> Reference<'a> {
    /// Provisions every machine of `spec` into `sim` — in spec order,
    /// with the engine's hostnames and OSes — with every driver
    /// `uninstalled` and generic driver actions.
    ///
    /// # Panics
    ///
    /// If the spec's dependency graph has a cycle.
    pub fn provision(
        universe: &'a Universe,
        spec: &InstallSpec,
        sim: Sim,
        retry: RetryPolicy,
    ) -> Self {
        let mut machines = BTreeMap::new();
        for inst in spec.iter().filter(|i| i.inside_link().is_none()) {
            let hostname = inst.config().get("hostname").and_then(Value::as_str);
            let os = os_for_key(inst.key()).unwrap_or(Os::Ubuntu1010);
            let host = sim.provision_local(hostname.unwrap_or(inst.id().as_str()), os);
            machines.insert(inst.id().clone(), host);
        }
        let hosts = spec
            .iter()
            .filter_map(|i| Some((i.id().clone(), machines[&spec.machine_of(i.id())?])))
            .collect();
        Reference {
            universe,
            spec: spec.clone(),
            sim,
            registry: DriverRegistry::new(),
            retry,
            order: topological_order(spec).expect("acyclic spec"),
            states: spec
                .iter()
                .map(|i| (i.id().clone(), DriverState::Basic(BasicState::Uninstalled)))
                .collect(),
            hosts,
            actions: Vec::new(),
        }
    }

    /// Runs the actions of `registry` instead of the generic ones
    /// (builder-style).
    pub fn with_registry(mut self, registry: DriverRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Drives every instance to `active`, in dependency order.
    ///
    /// # Errors
    ///
    /// The first pathing, guard or action failure.
    pub fn deploy(&mut self) -> Result<(), String> {
        for id in self.order.clone() {
            self.drive(&id, BasicState::Active)?;
        }
        Ok(())
    }

    /// Drives every instance to `inactive`, in reverse dependency order.
    ///
    /// # Errors
    ///
    /// The first pathing, guard or action failure.
    pub fn stop(&mut self) -> Result<(), String> {
        for id in self.order.clone().iter().rev() {
            self.drive(id, BasicState::Inactive)?;
        }
        Ok(())
    }

    /// Stops the stack, then drives every instance to `uninstalled`, in
    /// reverse dependency order.
    ///
    /// # Errors
    ///
    /// The first pathing, guard or action failure.
    pub fn uninstall(&mut self) -> Result<(), String> {
        self.stop()?;
        for id in self.order.clone().iter().rev() {
            self.drive(id, BasicState::Uninstalled)?;
        }
        Ok(())
    }

    /// Rolls a partial deployment back: stops what runs, then uninstalls
    /// everything, both in reverse dependency order, carrying on past
    /// failures. Returns whether every driver ended `uninstalled`.
    pub fn rollback(&mut self) -> bool {
        let order = self.order.clone();
        for id in order.iter().rev() {
            if self.states[id] == DriverState::Basic(BasicState::Active) {
                let _ = self.drive(id, BasicState::Inactive);
            }
        }
        for id in order.iter().rev() {
            let _ = self.drive(id, BasicState::Uninstalled);
        }
        self.states
            .values()
            .all(|s| *s == DriverState::Basic(BasicState::Uninstalled))
    }

    /// What the differential harness compares against the engine.
    pub fn observe(&self) -> Observation {
        observation(
            &self.spec,
            &self.sim,
            |id| self.states.get(id).cloned(),
            |id| self.hosts.get(id).copied(),
            self.actions.iter().map(|(id, a)| (id, a.as_str())),
        )
    }

    /// Drives one driver to `target`, checking each transition's guard
    /// against the current states right before it fires.
    fn drive(&mut self, id: &InstanceId, target: BasicState) -> Result<(), String> {
        let inst = self
            .spec
            .get(id)
            .expect("ordered ids come from the spec")
            .clone();
        let driver = self
            .universe
            .effective_driver(inst.key())
            .map_err(|e| e.to_string())?;
        let from = self.states[id].clone();
        let path = shortest_path(&driver, &from, &DriverState::Basic(target))
            .ok_or_else(|| format!("`{id}`: no path from {from} to {target}"))?;
        let host = *self
            .hosts
            .get(id)
            .ok_or_else(|| format!("`{id}` has no machine"))?;
        for (action, to) in path {
            let now = &self.states[id];
            let teardown = matches!((now.as_basic(), to.as_basic()), (Some(f), Some(t)) if t < f);
            let guard = driver.transition(now, &action).expect("path step").guard();
            let holds = |other: &InstanceId, required: &BasicState| {
                let state = &self.states[other];
                *state == DriverState::Basic(*required)
                    || (teardown
                        && *required == BasicState::Inactive
                        && *state == DriverState::Basic(BasicState::Uninstalled))
            };
            let ok = guard.preds().iter().all(|p| match p {
                StatePred::Upstream(s) => inst
                    .links()
                    .all(|l| self.states.contains_key(l) && holds(l, s)),
                StatePred::Downstream(s) => self.spec.dependents_of(id).all(|d| holds(d.id(), s)),
            });
            if !ok {
                return Err(format!("`{id}`: guard {guard} of `{action}` does not hold"));
            }
            let ctx = ActionCtx {
                sim: &self.sim,
                host,
                instance: &inst,
            };
            let mut attempt = 1;
            loop {
                match self.registry.run(&action, &ctx) {
                    Ok(()) => break,
                    Err(e) if e.is_transient() && attempt < self.retry.max_attempts() => {
                        self.sim
                            .advance(self.retry.backoff(id.as_str(), &action, attempt));
                        attempt += 1;
                    }
                    Err(e) => return Err(e.to_string()),
                }
            }
            self.actions.push((id.clone(), action));
            self.states.insert(id.clone(), to);
        }
        Ok(())
    }
}

/// Breadth-first search for the `(action, next state)` steps of the
/// shortest path from `from` to `to` through a driver's transitions.
fn shortest_path(
    driver: &DriverSpec,
    from: &DriverState,
    to: &DriverState,
) -> Option<Vec<(String, DriverState)>> {
    let mut queue = VecDeque::from([(from.clone(), Vec::new())]);
    let mut seen: HashSet<DriverState> = HashSet::from([from.clone()]);
    while let Some((state, path)) = queue.pop_front() {
        if &state == to {
            return Some(path);
        }
        for t in driver.transitions_from(&state) {
            if seen.insert(t.to().clone()) {
                let mut next = path.clone();
                next.push((t.action().to_owned(), t.to().clone()));
                queue.push_back((t.to().clone(), next));
            }
        }
    }
    None
}
