//! `deploy-io`: the three-level estate deployed through the wavefront
//! executor at its default worker count, every driver install and start
//! waiting [`ACTION_LATENCY`] like a remote call. The overlap of those
//! waits is the whole effect; the engine's CPU is a small share — the
//! opposite of `lifecycle`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use engage::Engage;
use engage_deploy::{generic_action, ActionCtx, DriverBinding, DriverRegistry};
use engage_model::Universe;

use crate::estate;
use crate::harness::{closed_loop, counter_delta, gauge, ms_since, obs_for, repeat_setup};
use crate::harness::{Args, Run};
use crate::trace::SpanAgg;

/// Simulated remote-driver latency of every install and start action.
pub const ACTION_LATENCY: Duration = Duration::from_micros(300);

/// Every concrete type's install and start sleep [`ACTION_LATENCY`],
/// then run the generic implementation.
fn latency_registry(universe: &Universe) -> DriverRegistry {
    let mut registry = DriverRegistry::new();
    for ty in universe.iter().filter(|t| !t.is_abstract()) {
        let mut binding = DriverBinding::new();
        for action in ["install", "start"] {
            binding = binding.action(action, move |ctx: &ActionCtx<'_>| {
                std::thread::sleep(ACTION_LATENCY);
                generic_action(action, ctx)
            });
        }
        registry.insert(ty.key().clone(), binding);
    }
    registry
}

pub fn run(args: &Args) -> Result<Run, String> {
    run_sized(args, estate::MACHINES, estate::RELEASES)
}

pub fn run_sized(args: &Args, machines: usize, releases: usize) -> Result<Run, String> {
    let mut run = Run::default();
    let ((estate, universe, spec, registry), setup_s) = repeat_setup(|| {
        let estate = estate::generate(args.seed, machines, releases);
        let (universe, spec) = estate::plan(&estate)?;
        let registry = latency_registry(&universe);
        Ok((estate, universe, spec, registry))
    })?;
    run.values.insert("setup_s", setup_s);
    run.notes
        .insert("instances".into(), estate.spec_len.to_string());

    let (agg, traced_obs) = SpanAgg::obs();
    closed_loop(args, &mut run, |traced, run| {
        let obs = obs_for(traced, &traced_obs);
        let engage = Engage::new(universe.clone())
            .with_registry(registry.clone())
            .with_obs(obs.clone());
        let before = obs.metrics();
        let t = Instant::now();
        let result = {
            let _s = obs.span("bench.deploy");
            engage.deploy_parallel_spec_with_recovery(&spec)
        };
        let op_ms = ms_since(t);
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                run.verdict(Err(format!("deploy: {e}")));
                return None;
            }
        };
        let dep = &outcome.deployment;
        run.verdict(estate::check_up(&estate, engage.sim(), dep));
        let waits = dep
            .timeline()
            .iter()
            .filter(|t| t.action == "install" || t.action == "start")
            .count();
        if !traced {
            run.sample("deploy_s", op_ms / 1e3);
            run.sample("makespan_sim_s", dep.parallel_makespan().as_secs_f64());
            run.sample(
                "deploy.overlap_ratio",
                waits as f64 * ACTION_LATENCY.as_secs_f64() * 1e3 / op_ms,
            );
            return Some(op_ms);
        }
        let after = obs.metrics();
        let transitions = counter_delta(&before, &after, "deploy.transitions");
        let execute_ms = agg.take().total_ms("bench.deploy", false);
        run.sample("deploy.execute_ms", execute_ms);
        run.sample(
            "deploy.us_per_transition",
            execute_ms * 1e3 / transitions.max(1) as f64,
        );
        run.sample(
            "deploy.sched.ready_peak",
            gauge(&after, "deploy.sched.ready_peak") as f64,
        );
        let counters = BTreeMap::from([
            ("deploy.transitions".to_owned(), transitions),
            (
                "deploy.sched.wavefronts".to_owned(),
                counter_delta(&before, &after, "deploy.sched.wavefronts"),
            ),
            ("deploy.waits".to_owned(), waits as u64),
        ]);
        for (name, value) in &counters {
            run.sample(name, *value as f64);
        }
        run.counters_repeat(counters);
        Some(op_ms)
    });
    Ok(run)
}

#[cfg(test)]
mod tests {
    #[test]
    fn two_traced_runs_repeat_the_work_counters() {
        crate::harness::assert_counters_repeat(|args| super::run_sized(args, 6, 2));
    }
}
