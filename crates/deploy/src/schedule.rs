//! The transition DAG executor: every lifecycle operation — deploy,
//! resume, stop, uninstall, rollback, upgrade, reconcile repair, a
//! single `drive_to` — compiles to one critical-path-aware DAG over the
//! driver transitions it needs, executed by one work-stealing pool.
//!
//! An operation is a **target map**: each instance it moves gets a
//! target basic state, and instances it leaves alone get no nodes. The
//! map is compiled into an explicit **transition DAG**:
//!
//! * **nodes** are per-instance driver actions — the steps of each
//!   driver's shortest path from its current state to its target;
//! * **edges** are the driver-order edges within one instance plus the
//!   guard predicates, resolved statically: a guard `↑s` (or `↓s`)
//!   becomes an edge from the linked instance's first transition into a
//!   state that satisfies `s`.
//!
//! There is no hand-written order. Deploying runs forwards through the
//! `↑active` guards; shutting down "goes in the reverse dependency order"
//! (§5.2) because every stop waits, through its `↓inactive` guard, for
//! the dependents to stop first.
//!
//! The DAG is executed as topological wavefronts on a work-stealing pool
//! built from the vendored MPMC channel: every node carries a
//! reverse-dependency counter, and finishing a transition releases its
//! successors with O(1) atomic decrements — no guard is ever re-scanned.
//! Workers keep the released successor with the longest critical path as
//! their own continuation (depth-first along the critical path) and
//! publish the rest for idle workers to steal. The caller is worker 0,
//! so a one-worker run spawns no thread.
//!
//! Guards that can never hold — a required state no dependency reaches,
//! or guard edges forming a cycle — are rejected in O(nodes + edges)
//! before anything runs.
//!
//! The static guard resolution is *monotone*: a dependency that reaches
//! an acceptable state is assumed to stay acceptable for the waiter.
//! Deploy paths only move up (`uninstalled` → `inactive` → `active`) and
//! teardown paths only move down, so each reading is exact for its
//! direction. For a teardown transition, a dependency *at or beyond* the
//! required state satisfies the guard: `uninstalled` ⊒ `inactive`, so a
//! dependent that was never installed is stopped enough for a `↓inactive`
//! guard.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use engage_model::{
    BasicState, DriverState, Guard, InstallSpec, InstanceId, ResourceInstance, StatePred, Universe,
};
use engage_sim::HostId;
use engage_util::sync::{channel, Mutex};

use crate::action::ActionCtx;
use crate::engine::{find_path, DeploymentEngine, TimelineEntry};
use crate::error::DeployError;

/// Where an operation drives each instance: `Some(target)` to move it,
/// `None` to leave it where it is (it gets no DAG nodes, and guards over
/// it read its current state).
pub(crate) type Targets<'t> = &'t dyn Fn(&InstanceId) -> Option<BasicState>;

/// The sentinel a worker interprets as "shut down".
const STOP: u32 = u32::MAX;

/// One transition in the DAG: a driver action of one instance.
#[derive(Debug)]
pub(crate) struct DagNode {
    /// Index of the instance in spec iteration order.
    inst: u32,
    /// The action name.
    action: String,
    /// Driver state before the action.
    from: DriverState,
    /// Driver state after the action.
    to: DriverState,
}

/// The explicit transition DAG of a deployment.
#[derive(Debug)]
pub(crate) struct TransitionDag {
    nodes: Vec<DagNode>,
    /// Forward edges: `succs[n]` are the nodes released by finishing `n`.
    succs: Vec<Vec<u32>>,
    /// Reverse-dependency counts (the initial pending counters).
    indegree: Vec<u32>,
    /// Critical-path length (in transitions) from each node to a sink.
    priority: Vec<u32>,
    /// Number of topological wavefronts (the DAG's depth).
    wavefronts: u32,
    /// Per-instance node lists, in driver-path order.
    inst_nodes: Vec<Vec<u32>>,
}

impl TransitionDag {
    /// Total number of transitions scheduled.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The DAG's depth in wavefronts.
    pub(crate) fn wavefronts(&self) -> u32 {
        self.wavefronts
    }
}

fn add_edge(succs: &mut [Vec<u32>], indegree: &mut [u32], from: u32, to: u32) {
    succs[from as usize].push(to);
    indegree[to as usize] += 1;
}

/// Whether a transition moves a driver down (`active` → `inactive` →
/// `uninstalled`): the direction in which the teardown reading applies.
fn is_teardown(from: &DriverState, to: &DriverState) -> bool {
    matches!((from.as_basic(), to.as_basic()), (Some(f), Some(t)) if t < f)
}

/// The monotone guard reading: `state` satisfies a guard asking for
/// `required` when it is that state — or, under a teardown transition,
/// beyond it (`uninstalled` ⊒ `inactive`).
fn satisfies(state: &DriverState, required: BasicState, teardown: bool) -> bool {
    *state == DriverState::Basic(required)
        || (teardown
            && required == BasicState::Inactive
            && *state == DriverState::Basic(BasicState::Uninstalled))
}

/// Compiles an operation into its transition DAG: per-instance driver
/// paths from `states` to each instance's entry in `targets`, with guard
/// predicates resolved into edges under the monotone reading (see the
/// module docs).
///
/// # Errors
///
/// [`DeployError::NoPath`] when a driver cannot reach its target, and
/// [`DeployError::GuardFailed`] when a guard can be proven statically
/// unsatisfiable — no dependency state on the way satisfies it, or the
/// guard edges form a cycle (a wedged operation).
pub(crate) fn build_dag(
    universe: &Universe,
    spec: &InstallSpec,
    states: &BTreeMap<InstanceId, DriverState>,
    targets: Targets<'_>,
) -> Result<TransitionDag, DeployError> {
    let insts: Vec<&ResourceInstance> = spec.iter().collect();
    let index: HashMap<&InstanceId, u32> = insts
        .iter()
        .enumerate()
        .map(|(i, inst)| (inst.id(), i as u32))
        .collect();
    // Reverse-dependency lists in one pass; `InstallSpec::dependents_of`
    // per instance would make the build quadratic at 10k hosts.
    let mut reverse: Vec<Vec<u32>> = vec![Vec::new(); insts.len()];
    for (j, inst) in insts.iter().enumerate() {
        for link in inst.links() {
            if let Some(&i) = index.get(link) {
                reverse[i as usize].push(j as u32);
            }
        }
    }

    let mut nodes: Vec<DagNode> = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut inst_nodes: Vec<Vec<u32>> = vec![Vec::new(); insts.len()];
    let mut starts: Vec<DriverState> = Vec::with_capacity(insts.len());
    for (i, inst) in insts.iter().enumerate() {
        let current = states
            .get(inst.id())
            .cloned()
            .unwrap_or(DriverState::Basic(BasicState::Uninstalled));
        starts.push(current.clone());
        let Some(target) = targets(inst.id()) else {
            continue;
        };
        let target_state = DriverState::Basic(target);
        if current == target_state {
            continue;
        }
        let driver = universe.effective_driver(inst.key())?;
        let path =
            find_path(&driver, &current, &target_state).ok_or_else(|| DeployError::NoPath {
                instance: inst.id().clone(),
                from: current.to_string(),
                to: target_state.to_string(),
            })?;
        let mut from = current;
        for (action, to) in path {
            let guard = driver
                .transition(&from, &action)
                .expect("path transitions exist")
                .guard()
                .clone();
            let id = nodes.len() as u32;
            nodes.push(DagNode {
                inst: i as u32,
                action,
                from: from.clone(),
                to: to.clone(),
            });
            guards.push(guard);
            inst_nodes[i].push(id);
            from = to;
        }
    }

    let n = nodes.len();
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut indegree: Vec<u32> = vec![0; n];
    // Driver order within one instance.
    for path in &inst_nodes {
        for pair in path.windows(2) {
            add_edge(&mut succs, &mut indegree, pair[0], pair[1]);
        }
    }
    // Guard edges.
    for (id, guard) in guards.iter().enumerate() {
        let node = &nodes[id];
        let inst = insts[node.inst as usize];
        let teardown = is_teardown(&node.from, &node.to);
        let unsatisfiable = || DeployError::GuardFailed {
            instance: inst.id().clone(),
            action: node.action.clone(),
            guard: guard.to_string(),
        };
        for pred in guard.preds() {
            let (required, deps): (BasicState, Vec<u32>) = match pred {
                StatePred::Upstream(s) => {
                    // A link outside the spec can never satisfy the
                    // guard.
                    let mut linked = Vec::new();
                    for link in inst.links() {
                        match index.get(link) {
                            Some(&i) => linked.push(i),
                            None => return Err(unsatisfiable()),
                        }
                    }
                    (*s, linked)
                }
                StatePred::Downstream(s) => (*s, reverse[node.inst as usize].clone()),
            };
            for dep in deps {
                let dep = dep as usize;
                if satisfies(&starts[dep], required, teardown) {
                    continue;
                }
                let first = inst_nodes[dep]
                    .iter()
                    .copied()
                    .find(|&src| satisfies(&nodes[src as usize].to, required, teardown));
                match first {
                    Some(src) => add_edge(&mut succs, &mut indegree, src, id as u32),
                    // The dependency neither starts in nor ever reaches
                    // an acceptable state: statically wedged.
                    None => return Err(unsatisfiable()),
                }
            }
        }
    }

    // Kahn's algorithm: cycle rejection + wavefront levels.
    let mut level = vec![1u32; n];
    let mut indeg = indegree.clone();
    let mut queue: VecDeque<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
    let mut topo: Vec<u32> = Vec::with_capacity(n);
    while let Some(i) = queue.pop_front() {
        topo.push(i);
        for &s in &succs[i as usize] {
            let next = level[i as usize] + 1;
            if next > level[s as usize] {
                level[s as usize] = next;
            }
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                queue.push_back(s);
            }
        }
    }
    if topo.len() != n {
        // A guard-edge cycle: the transitions wait on each other.
        let wedged = (0..n).find(|&i| indeg[i] > 0).expect("cycle has nodes");
        return Err(DeployError::GuardFailed {
            instance: insts[nodes[wedged].inst as usize].id().clone(),
            action: nodes[wedged].action.clone(),
            guard: guards[wedged].to_string(),
        });
    }
    let wavefronts = level.iter().copied().max().unwrap_or(0);
    // Critical-path priority: longest path from each node to a sink,
    // computed over the reverse topological order.
    let mut priority = vec![1u32; n];
    for &i in topo.iter().rev() {
        for &s in &succs[i as usize] {
            let via = priority[s as usize] + 1;
            if via > priority[i as usize] {
                priority[i as usize] = via;
            }
        }
    }

    Ok(TransitionDag {
        nodes,
        succs,
        indegree,
        priority,
        wavefronts,
        inst_nodes,
    })
}

/// What the pool produced: the merged timeline and the first error
/// (engine kills preferred over the errors they cause elsewhere).
pub(crate) struct WavefrontRun {
    pub(crate) timeline: Vec<TimelineEntry>,
    pub(crate) error: Option<DeployError>,
}

/// Executes a compiled transition DAG on `workers` work-stealing
/// workers — the only code that runs a lifecycle operation's driver
/// actions (journal replay re-executes recorded history). The caller's thread
/// is worker 0; `workers - 1` more are spawned. On return, `states`
/// holds every driver's state after the furthest executed prefix of its
/// path (under failure, that is the partial deployment).
///
/// Each worker owns a deque: it pushes released successors to the back
/// and pops from the back (depth-first along the critical path), while
/// idle workers steal from the front of a victim's deque (breadth-first —
/// the oldest, widest work). Ready nodes are also published through the
/// vendored MPMC channel when a worker is known to be parked on it, so
/// wake-ups cost one channel send instead of a condvar broadcast rescan.
pub(crate) fn execute_wavefront(
    engine: &DeploymentEngine<'_>,
    spec: &InstallSpec,
    machines: &BTreeMap<InstanceId, HostId>,
    states: &mut BTreeMap<InstanceId, DriverState>,
    dag: &TransitionDag,
    workers: usize,
) -> WavefrontRun {
    let obs = engine.obs();
    let _span = obs.span_with(
        "deploy.wavefront",
        &[
            ("nodes", &dag.len().to_string()),
            ("workers", &workers.to_string()),
            ("wavefronts", &dag.wavefronts().to_string()),
        ],
    );
    obs.counter("deploy.sched.wavefronts")
        .add(u64::from(dag.wavefronts()));
    if dag.nodes.is_empty() {
        return WavefrontRun {
            timeline: Vec::new(),
            error: None,
        };
    }

    let insts: Vec<&ResourceInstance> = spec.iter().collect();
    let hosts: Vec<Option<HostId>> = insts
        .iter()
        .map(|inst| {
            spec.machine_of(inst.id())
                .and_then(|m| machines.get(&m).copied())
        })
        .collect();

    let pending: Vec<AtomicU32> = dag.indegree.iter().map(|&d| AtomicU32::new(d)).collect();
    let executed: Vec<AtomicBool> = (0..dag.len()).map(|_| AtomicBool::new(false)).collect();
    let deques: Vec<Mutex<VecDeque<u32>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let remaining = AtomicUsize::new(dag.len());
    let idle = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let errors: Mutex<Vec<DeployError>> = Mutex::new(Vec::new());
    let steals = AtomicU64::new(0);
    let ready_count = AtomicUsize::new(0);
    let ready_peak = AtomicUsize::new(0);

    let (tx, rx) = channel::unbounded::<u32>();
    // Seed the injector with the DAG roots, longest critical path first.
    let mut roots: Vec<u32> = (0..dag.len() as u32)
        .filter(|&i| dag.indegree[i as usize] == 0)
        .collect();
    roots.sort_unstable_by_key(|&i| std::cmp::Reverse(dag.priority[i as usize]));
    let depth = roots.len();
    ready_count.store(depth, Ordering::Relaxed);
    ready_peak.store(depth, Ordering::Relaxed);
    for &r in &roots {
        let _ = tx.send(r);
    }

    let run_node = |id: u32| -> Result<TimelineEntry, DeployError> {
        let node = &dag.nodes[id as usize];
        if let Some(kill) = engine.kill_switch() {
            kill.check()?;
        }
        let inst = insts[node.inst as usize];
        let host = hosts[node.inst as usize].ok_or_else(|| DeployError::NoMachine {
            instance: inst.id().clone(),
        })?;
        let start = engine.sim().now();
        let ctx = ActionCtx {
            sim: engine.sim(),
            host,
            instance: inst,
        };
        engine.run_action(&ctx, inst.id(), &node.action)?;
        let end = engine.sim().now();
        engine.record_transition(inst.id(), &node.action, &node.from, &node.to);
        engine.commit_transition(inst.id(), &node.action, &node.from, &node.to, start, end);
        Ok(TimelineEntry {
            instance: inst.id().clone(),
            action: node.action.clone(),
            start,
            end,
        })
    };

    // One worker's loop; returns its executed transitions, tagged with
    // their node ids.
    let worker = |me: usize,
                  rx: channel::Receiver<u32>,
                  tx: channel::Sender<u32>|
     -> Vec<(u32, TimelineEntry)> {
        let mut local = Vec::new();
        // The released successor chosen as this worker's next
        // transition (depth-first on the critical path).
        let mut next: Option<u32> = None;
        loop {
            if failed.load(Ordering::Acquire) {
                break;
            }
            let node_id = match next.take() {
                Some(n) => n,
                None => {
                    // Own deque first (LIFO), then steal the oldest work
                    // from a victim (FIFO).
                    let mut found = deques[me].lock().pop_back();
                    if found.is_none() {
                        for k in 1..workers {
                            let victim = (me + k) % workers;
                            found = deques[victim].lock().pop_front();
                            if found.is_some() {
                                steals.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    match found {
                        Some(n) => n,
                        None => {
                            idle.fetch_add(1, Ordering::AcqRel);
                            let got = rx.recv();
                            idle.fetch_sub(1, Ordering::AcqRel);
                            match got {
                                Ok(STOP) | Err(_) => break,
                                Ok(n) => n,
                            }
                        }
                    }
                }
            };
            ready_count.fetch_sub(1, Ordering::AcqRel);
            match run_node(node_id) {
                Ok(entry) => {
                    local.push((node_id, entry));
                    executed[node_id as usize].store(true, Ordering::Release);
                    // O(1) guard resolution: decrement every successor's
                    // pending counter; the last decrement releases the
                    // transition.
                    let mut ready: Vec<u32> = dag.succs[node_id as usize]
                        .iter()
                        .copied()
                        .filter(|&s| pending[s as usize].fetch_sub(1, Ordering::AcqRel) == 1)
                        .collect();
                    if !ready.is_empty() {
                        ready
                            .sort_unstable_by_key(|&s| std::cmp::Reverse(dag.priority[s as usize]));
                        let depth =
                            ready_count.fetch_add(ready.len(), Ordering::AcqRel) + ready.len();
                        ready_peak.fetch_max(depth, Ordering::AcqRel);
                        let mut released = ready.into_iter();
                        next = released.next();
                        for s in released {
                            if idle.load(Ordering::Acquire) > 0 {
                                let _ = tx.send(s);
                            } else {
                                deques[me].lock().push_back(s);
                            }
                        }
                    }
                    if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        for _ in 0..workers {
                            let _ = tx.send(STOP);
                        }
                    }
                }
                Err(e) => {
                    errors.lock().push(e);
                    failed.store(true, Ordering::Release);
                    for _ in 0..workers {
                        let _ = tx.send(STOP);
                    }
                    break;
                }
            }
        }
        local
    };

    let mut tagged: Vec<(u32, TimelineEntry)> = std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (1..workers)
            .map(|me| {
                let (rx, tx) = (rx.clone(), tx.clone());
                scope.spawn(move || worker(me, rx, tx))
            })
            .collect();
        let mut merged = worker(0, rx, tx);
        for h in handles {
            merged.extend(h.join().expect("worker panicked"));
        }
        merged
    });
    // Time order; a driver's own steps (ascending node ids) break ties.
    tagged.sort_by(|(a, x), (b, y)| (x.start, &x.instance, a).cmp(&(y.start, &y.instance, b)));

    obs.counter("deploy.sched.steals")
        .add(steals.load(Ordering::Relaxed));
    obs.gauge("deploy.sched.ready_peak")
        .set_max(ready_peak.load(Ordering::Relaxed) as i64);

    for (i, inst) in insts.iter().enumerate() {
        let last = dag.inst_nodes[i]
            .iter()
            .take_while(|&&nid| executed[nid as usize].load(Ordering::Acquire))
            .last();
        if let Some(&nid) = last {
            states.insert(inst.id().clone(), dag.nodes[nid as usize].to.clone());
        }
    }

    let mut errs = errors.into_inner();
    let error = match errs
        .iter()
        .position(|e| matches!(e, DeployError::EngineKilled { .. }))
    {
        Some(i) => Some(errs.swap_remove(i)),
        None => (!errs.is_empty()).then(|| errs.swap_remove(0)),
    };
    WavefrontRun {
        timeline: tagged.into_iter().map(|(_, entry)| entry).collect(),
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engage_model::{DriverSpec, ResourceType, Transition, Value};

    fn universe() -> Universe {
        engage_dsl::parse_universe(
            r#"
        abstract resource "Server" {
          config port hostname: string = "localhost";
          output port host: { hostname: string } = { hostname: config.hostname };
        }
        resource "Ubuntu 10.10" extends "Server" {}
        resource "MySQL 5.1" {
          inside "Server";
          config port port: int = 3306;
          output port mysql: { port: int } = { port: config.port };
          driver service;
        }
        resource "App 1.0" {
          inside "Server";
          peer "MySQL 5.1" { input mysql <- mysql; }
          input port mysql: { port: int };
          output port url: string = "http://app";
          driver service;
        }"#,
        )
        .unwrap()
    }

    fn spec() -> InstallSpec {
        let mut spec = InstallSpec::new();
        let mut server = ResourceInstance::new("server", "Ubuntu 10.10");
        server.set_config("hostname", Value::from("h"));
        server.set_output("host", Value::structure([("hostname", Value::from("h"))]));
        spec.push(server).unwrap();
        let mut db = ResourceInstance::new("db", "MySQL 5.1");
        db.set_inside_link("server");
        db.set_config("port", Value::from(3306i64));
        db.set_output("mysql", Value::structure([("port", Value::from(3306i64))]));
        spec.push(db).unwrap();
        let mut app = ResourceInstance::new("app", "App 1.0");
        app.set_inside_link("server");
        app.add_peer_link("db");
        app.set_input("mysql", Value::structure([("port", Value::from(3306i64))]));
        app.set_output("url", Value::from("http://app"));
        spec.push(app).unwrap();
        spec
    }

    fn initial(spec: &InstallSpec) -> BTreeMap<InstanceId, DriverState> {
        spec.iter()
            .map(|i| (i.id().clone(), DriverState::Basic(BasicState::Uninstalled)))
            .collect()
    }

    #[test]
    fn dag_encodes_guards_as_edges() {
        let u = universe();
        let spec = spec();
        let dag = build_dag(&u, &spec, &initial(&spec), &|_| Some(BasicState::Active)).unwrap();
        // server: install+start, db: install+start, app: install+start.
        assert_eq!(dag.len(), 6);
        // Critical path: server.install → server.start → db.start →
        // app.start (installs all run in the first wavefront).
        assert_eq!(dag.wavefronts(), 4);
        // The app's start has pending deps: its own install plus guard
        // edges from every linked instance's entry into `active`.
        let app_start = dag
            .nodes
            .iter()
            .position(|n| n.inst == 2 && n.action == "start")
            .unwrap();
        assert!(dag.indegree[app_start] >= 2, "{:?}", dag.indegree);
        // Roots: only server.install (db/app installs wait on nothing?
        // standard install guards are trivial, so their only edge is the
        // driver-order edge — they are roots too).
        let roots = dag.indegree.iter().filter(|&&d| d == 0).count();
        assert_eq!(roots, 3, "one install root per instance");
    }

    #[test]
    fn dag_rejects_guard_cycles_statically() {
        // db.start waits on downstream active; app.start waits on
        // upstream active: a 2-cycle.
        let mut wedged = DriverSpec::new();
        wedged.add_transition(Transition::new(
            BasicState::Uninstalled,
            "install",
            Guard::always(),
            BasicState::Inactive,
        ));
        wedged.add_transition(Transition::new(
            BasicState::Inactive,
            "start",
            Guard::downstream(BasicState::Active),
            BasicState::Active,
        ));
        let mut u = universe();
        u.insert(
            ResourceType::builder("WedgedSQL 5.1")
                .extends("MySQL 5.1")
                .driver(wedged)
                .build(),
        )
        .unwrap();
        let mut spec = spec();
        let mut wedged_db = ResourceInstance::new("db2", "WedgedSQL 5.1");
        wedged_db.set_inside_link("server");
        wedged_db.set_config("port", Value::from(3307i64));
        spec.push(wedged_db).unwrap();
        let mut app2 = ResourceInstance::new("app2", "App 1.0");
        app2.set_inside_link("server");
        app2.add_peer_link("db2");
        spec.push(app2).unwrap();
        let err = build_dag(&u, &spec, &initial(&spec), &|_| Some(BasicState::Active)).unwrap_err();
        assert!(matches!(err, DeployError::GuardFailed { .. }), "{err}");
    }

    #[test]
    fn dag_rejects_never_entered_states_statically() {
        // A driver whose start guard requires its dependents *inactive*,
        // scheduled while the dependent is already active: the dependent
        // neither starts in nor re-enters `inactive` on a deploy path, so
        // the guard is statically unsatisfiable.
        let mut odd = DriverSpec::new();
        odd.add_transition(Transition::new(
            BasicState::Uninstalled,
            "install",
            Guard::always(),
            BasicState::Inactive,
        ));
        odd.add_transition(Transition::new(
            BasicState::Inactive,
            "start",
            Guard::pred(StatePred::Downstream(BasicState::Inactive)),
            BasicState::Active,
        ));
        let mut u = universe();
        u.insert(
            ResourceType::builder("OddSQL 5.1")
                .extends("MySQL 5.1")
                .driver(odd)
                .build(),
        )
        .unwrap();
        let mut spec = InstallSpec::new();
        let mut server = ResourceInstance::new("server", "Ubuntu 10.10");
        server.set_config("hostname", Value::from("h"));
        spec.push(server).unwrap();
        let mut db = ResourceInstance::new("db", "OddSQL 5.1");
        db.set_inside_link("server");
        spec.push(db).unwrap();
        let mut app = ResourceInstance::new("app", "App 1.0");
        app.set_inside_link("server");
        app.add_peer_link("db");
        spec.push(app).unwrap();
        let mut states = initial(&spec);
        states.insert("app".into(), DriverState::Basic(BasicState::Active));
        let err = build_dag(&u, &spec, &states, &|_| Some(BasicState::Active)).unwrap_err();
        assert!(matches!(err, DeployError::GuardFailed { .. }), "{err}");
    }

    fn with_states(
        spec: &InstallSpec,
        states: &[(&str, BasicState)],
    ) -> BTreeMap<InstanceId, DriverState> {
        let mut map = initial(spec);
        for (id, s) in states {
            map.insert((*id).into(), DriverState::Basic(*s));
        }
        map
    }

    /// The node of `inst` (spec index) running `action`.
    fn node(dag: &TransitionDag, inst: u32, action: &str) -> usize {
        dag.nodes
            .iter()
            .position(|n| n.inst == inst && n.action == action)
            .unwrap_or_else(|| panic!("no {action} node for instance {inst}"))
    }

    #[test]
    fn mixed_target_map_builds_nodes_only_for_moving_instances() {
        use BasicState::*;
        let u = universe();
        let spec = spec();
        let states = with_states(
            &spec,
            &[("server", Active), ("db", Inactive), ("app", Active)],
        );
        // db goes up, app comes down, the server is absent from the map.
        let targets = |id: &InstanceId| match id.as_str() {
            "db" => Some(Active),
            "app" => Some(Uninstalled),
            _ => None,
        };
        let dag = build_dag(&u, &spec, &states, &targets).unwrap();
        assert!(dag.inst_nodes[0].is_empty(), "absent instance has nodes");
        let actions: Vec<(u32, &str)> = dag
            .nodes
            .iter()
            .map(|n| (n.inst, n.action.as_str()))
            .collect();
        assert_eq!(actions, [(1, "start"), (2, "stop"), (2, "uninstall")]);
        // An instance already at its target contributes nothing either.
        let idle = build_dag(&u, &spec, &states, &|id| {
            (id.as_str() == "app").then_some(Active)
        })
        .unwrap();
        assert_eq!(idle.len(), 0);
    }

    #[test]
    fn teardown_runs_in_reverse_dependency_order() {
        use BasicState::*;
        let u = universe();
        let spec = spec();
        let states = with_states(
            &spec,
            &[("server", Active), ("db", Active), ("app", Active)],
        );
        let dag = build_dag(&u, &spec, &states, &|_| Some(Uninstalled)).unwrap();
        // db's `↓inactive` stop guard waits on app's stop, and the
        // server's on both: the reverse order comes from the guards.
        let (app_stop, db_stop, server_stop) = (
            node(&dag, 2, "stop"),
            node(&dag, 1, "stop"),
            node(&dag, 0, "stop"),
        );
        assert!(dag.succs[app_stop].contains(&(db_stop as u32)));
        assert!(dag.succs[app_stop].contains(&(server_stop as u32)));
        assert!(dag.succs[db_stop].contains(&(server_stop as u32)));
    }

    #[test]
    fn stop_guard_over_uninstalled_dependent_holds_under_teardown_order() {
        use BasicState::*;
        let u = universe();
        let spec = spec();
        // A rolled-back partial deploy: the app never got installed.
        let states = with_states(&spec, &[("server", Active), ("db", Active)]);
        let dag = build_dag(&u, &spec, &states, &|_| Some(Uninstalled)).unwrap();
        // `uninstalled` ⊒ `inactive`: db's stop waits on nothing but
        // its own driver order.
        assert_eq!(dag.indegree[node(&dag, 1, "stop")], 0);
        assert!(dag.inst_nodes[2].is_empty());
    }

    #[test]
    fn wedged_teardown_is_rejected_statically() {
        use BasicState::*;
        let u = universe();
        let spec = spec();
        let states = with_states(
            &spec,
            &[("server", Active), ("db", Active), ("app", Active)],
        );
        // Stopping db while its dependent app stays active: the
        // `↓inactive` guard can never hold — the verdict a runtime
        // guard check reaches on the first transition.
        let err = build_dag(&u, &spec, &states, &|id| {
            (id.as_str() == "db").then_some(Inactive)
        })
        .unwrap_err();
        match err {
            DeployError::GuardFailed {
                instance, action, ..
            } => {
                assert_eq!((instance.as_str(), action.as_str()), ("db", "stop"));
            }
            other => panic!("expected GuardFailed, got {other}"),
        }
    }

    #[test]
    fn critical_path_priorities_decrease_along_paths() {
        let u = universe();
        let spec = spec();
        let dag = build_dag(&u, &spec, &initial(&spec), &|_| Some(BasicState::Active)).unwrap();
        for (i, succs) in dag.succs.iter().enumerate() {
            for &s in succs {
                assert!(
                    dag.priority[i] > dag.priority[s as usize],
                    "priority must strictly decrease along edges"
                );
            }
        }
    }
}
