//! `lifecycle`: one operator cycling the three-level estate through
//! deploy, seeded crash storms with self-healing repair, stop and
//! uninstall, closed loop, with instant generic drivers — the engine's
//! own CPU is all there is. `deploy`, `deploy::reconcile` and `sim` do
//! most of the work.

use std::collections::BTreeMap;
use std::time::Instant;

use engage::Engage;
use engage_model::{InstallSpec, Universe};
use engage_sim::FaultPlan;
use engage_util::obs::{MetricsSnapshot, Obs};

use crate::estate::{self, Estate};
use crate::harness::{closed_loop, config_samples, counter_delta, gauge, ms_since, obs_for};
use crate::harness::{repeat_setup, Args, Run};
use crate::trace::{SpanAgg, Spans};

/// Crash storms per cycle, and the share of running services each kills.
pub const STORMS: usize = 2;
pub const STORM_RATE: f64 = 0.2;
/// Reconcile rounds a storm may take before the repair counts as failed.
const MAX_ROUNDS: u64 = 10;

/// Wall times of one cycle's phases in milliseconds, and the simulated
/// time to repair each storm.
struct Cycle {
    deploy_ms: f64,
    repair_ms: Vec<f64>,
    repair_sim_s: Vec<f64>,
    stop_ms: f64,
    uninstall_ms: f64,
}

/// One full cycle on a fresh simulated data center. `snapshots`, when
/// tracing, receives the metrics before and after each phase.
fn cycle(
    estate: &Estate,
    universe: &Universe,
    spec: &InstallSpec,
    seed: u64,
    obs: &Obs,
    snapshots: &mut Vec<MetricsSnapshot>,
) -> Result<Cycle, String> {
    let engage = Engage::new(universe.clone()).with_obs(obs.clone());
    snapshots.push(obs.metrics());
    let t = Instant::now();
    let dep = {
        let _s = obs.span("bench.deploy");
        engage
            .deploy_spec(spec)
            .map_err(|e| format!("deploy: {e}"))?
    };
    let deploy_ms = ms_since(t);
    snapshots.push(obs.metrics());
    estate::check_up(estate, engage.sim(), &dep).map_err(|e| format!("after deploy: {e}"))?;

    engage.sim().set_fault_plan(FaultPlan::new(seed));
    let mut reconciler = engage.reconciler(&estate.partial, dep);
    let mut repair_ms = Vec::with_capacity(STORMS);
    let mut repair_sim_s = Vec::with_capacity(STORMS);
    for storm in 0..STORMS {
        let mttr_before = reconciler.stats().mttr_total;
        let t = Instant::now();
        let converged = {
            let _s = obs.span("bench.repair");
            if engage.sim().crash_storm(STORM_RATE).is_empty() {
                return Err(format!("storm {storm} crashed nothing"));
            }
            reconciler
                .run_until_converged(MAX_ROUNDS)
                .map_err(|e| format!("repair: {e}"))?
        };
        repair_ms.push(ms_since(t));
        snapshots.push(obs.metrics());
        if !converged {
            return Err(format!("storm {storm} did not converge"));
        }
        estate::check_up(estate, engage.sim(), reconciler.deployment())
            .map_err(|e| format!("after storm {storm}: {e}"))?;
        repair_sim_s.push((reconciler.stats().mttr_total - mttr_before).as_secs_f64());
    }

    let mut dep = reconciler.into_deployment();
    let t = Instant::now();
    {
        let _s = obs.span("bench.stop");
        engage.stop(&mut dep).map_err(|e| format!("stop: {e}"))?;
    }
    let stop_ms = ms_since(t);
    let t = Instant::now();
    {
        let _s = obs.span("bench.uninstall");
        engage
            .uninstall(&mut dep)
            .map_err(|e| format!("uninstall: {e}"))?;
    }
    let uninstall_ms = ms_since(t);
    estate::check_down(engage.sim(), &dep).map_err(|e| format!("after teardown: {e}"))?;
    Ok(Cycle {
        deploy_ms,
        repair_ms,
        repair_sim_s,
        stop_ms,
        uninstall_ms,
    })
}

pub fn run(args: &Args) -> Result<Run, String> {
    run_sized(args, estate::MACHINES, estate::RELEASES)
}

pub fn run_sized(args: &Args, machines: usize, releases: usize) -> Result<Run, String> {
    let mut run = Run::default();
    let ((estate, universe, spec), setup_s) = repeat_setup(|| {
        let estate = estate::generate(args.seed, machines, releases);
        let (universe, spec) = estate::plan(&estate)?;
        Ok((estate, universe, spec))
    })?;
    run.values.insert("setup_s", setup_s);
    run.notes
        .insert("instances".into(), estate.spec_len.to_string());

    let (agg, traced_obs) = SpanAgg::obs();
    closed_loop(args, &mut run, |traced, run| {
        let obs = obs_for(traced, &traced_obs);
        let mut snaps = Vec::new();
        let t = Instant::now();
        let result = cycle(&estate, &universe, &spec, args.seed, &obs, &mut snaps);
        let op_ms = ms_since(t);
        let c = match result {
            Ok(c) => c,
            Err(e) => {
                run.verdict(Err(e));
                return None;
            }
        };
        run.verdict(Ok(()));
        if traced {
            let counters = layer_samples(run, &agg.take(), &snaps);
            run.counters_repeat(counters);
        } else {
            run.sample("deploy_s", c.deploy_ms / 1e3);
            for (wall, sim) in c.repair_ms.iter().zip(&c.repair_sim_s) {
                run.sample("repair_s", wall / 1e3);
                run.sample("repair_sim_s", *sim);
            }
            run.sample("teardown_s", (c.stop_ms + c.uninstall_ms) / 1e3);
        }
        Some(op_ms)
    });
    Ok(run)
}

/// Per-layer samples of one traced cycle. `snaps` holds the metrics
/// before deploy, after deploy, and after each storm. Reconcile and
/// configure figures are per storm. Returns the cycle's deterministic
/// work counters.
fn layer_samples(run: &mut Run, spans: &Spans, snaps: &[MetricsSnapshot]) -> BTreeMap<String, u64> {
    let (start, deployed, last) = (&snaps[0], &snaps[1], &snaps[snaps.len() - 1]);
    let storms = STORMS as f64;
    let transitions = counter_delta(start, deployed, "deploy.transitions");
    let execute_ms = spans.total_ms("bench.deploy", false);
    run.sample("deploy.execute_ms", execute_ms);
    run.sample("deploy.transitions", transitions as f64);
    run.sample(
        "deploy.us_per_transition",
        execute_ms * 1e3 / transitions.max(1) as f64,
    );
    run.sample("deploy.stop_ms", spans.total_ms("bench.stop", false));
    run.sample(
        "deploy.uninstall_ms",
        spans.total_ms("bench.uninstall", false),
    );
    run.sample(
        "deploy.sched.wavefronts",
        counter_delta(start, last, "deploy.sched.wavefronts") as f64,
    );
    run.sample(
        "deploy.sched.ready_peak",
        gauge(last, "deploy.sched.ready_peak") as f64,
    );

    if let Some(ticks) = spans.get("reconcile.tick", false) {
        let ms: Vec<f64> = ticks
            .durations
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        run.sample(
            "deploy.reconcile.tick_ms",
            crate::stats::median(&ms).unwrap_or(0.0),
        );
    }
    let tick_ms = spans.total_ms("reconcile.tick", false);
    let replan_ms = spans.total_ms("config.configure", true);
    let repair_exec_ms = spans.total_ms("deploy.wavefront", true);
    run.sample("deploy.reconcile.replan_ms", replan_ms / storms);
    run.sample("deploy.reconcile.execute_ms", repair_exec_ms / storms);
    run.sample(
        "deploy.reconcile.self_ms",
        (tick_ms - replan_ms - repair_exec_ms) / storms,
    );
    let actions = counter_delta(deployed, last, "reconcile.actions");
    run.sample("deploy.reconcile.actions", actions as f64 / storms);
    let deltas: Vec<u64> = snaps[2..]
        .iter()
        .map(|s| gauge(s, "reconcile.delta_size"))
        .collect();
    for &d in &deltas {
        run.sample("deploy.reconcile.delta_size", d as f64);
    }
    run.sample(
        "deploy.reconcile.drift_events",
        counter_delta(deployed, last, "reconcile.drift_events") as f64 / storms,
    );

    // The reconciler's re-plans are the only configure calls here.
    config_samples(run, spans, true, storms);
    run.sample("sat.cnf_vars", gauge(last, "config.cnf_vars") as f64);
    run.sample("sat.cnf_clauses", gauge(last, "config.cnf_clauses") as f64);
    for c in [
        "sat.conflicts",
        "sat.decisions",
        "sat.restarts",
        "sat.propagations",
    ] {
        run.sample(c, counter_delta(start, last, c) as f64 / storms);
    }
    run.sample(
        "config.graphgen.nodes",
        gauge(last, "config.graphgen.nodes") as f64,
    );

    let mut counters: BTreeMap<String, u64> = [
        ("deploy.transitions", transitions),
        ("deploy.reconcile.actions", actions),
        ("sat.conflicts", counter_delta(start, last, "sat.conflicts")),
        ("sat.decisions", counter_delta(start, last, "sat.decisions")),
        ("sat.cnf_vars", gauge(last, "config.cnf_vars")),
        ("sat.cnf_clauses", gauge(last, "config.cnf_clauses")),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    for (i, d) in deltas.into_iter().enumerate() {
        counters.insert(format!("deploy.reconcile.delta_size.storm{i}"), d);
    }
    counters
}

#[cfg(test)]
mod tests {
    #[test]
    fn two_traced_runs_repeat_the_work_counters() {
        crate::harness::assert_counters_repeat(|args| super::run_sized(args, 6, 2));
    }
}
