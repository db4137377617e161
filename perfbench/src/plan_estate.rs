//! `plan-estate`: one CLI user running `engage plan` on a 100k-node
//! estate, closed loop. `dsl`, `model`, `config` and `sat` do all the
//! work; `deploy` and `serve` do none.

use std::collections::BTreeMap;
use std::time::Instant;

use engage_bench::{graphgen_partial, graphgen_universe};
use engage_config::ConfigEngine;
use engage_model::InstallSpec;

use crate::estate::permuted;
use crate::harness::{closed_loop, config_samples, counter_delta, gauge, ms_since, obs_for};
use crate::harness::{repeat_setup, Args, Run};
use crate::trace::SpanAgg;

/// Machines in the estate: `graphgen_universe(8, 4, 2)` expands each to
/// 34 GraphGen nodes, so 3,000 machines give 102,004 nodes and a
/// 30,001-instance full spec.
pub const MACHINES: usize = 3_000;
const SERVICES: usize = 8;
const WIDTH: usize = 4;
const CHAIN: usize = 2;

/// The generated input: universe source and partial spec JSON.
pub struct Inputs {
    machines: usize,
    dsl: String,
    spec_json: String,
    /// Time to print the universe and the spec, in milliseconds.
    emit_ms: f64,
}

/// Builds the inputs; the seed permutes the partial spec's instances.
pub fn generate(seed: u64, machines: usize) -> Inputs {
    let universe = graphgen_universe(SERVICES, WIDTH, CHAIN);
    let partial = permuted(&graphgen_partial(machines), seed);
    let t = Instant::now();
    let dsl = engage_dsl::print_universe(&universe);
    let spec_json = engage_dsl::partial_spec_to_json(&partial).compact();
    Inputs {
        machines,
        dsl,
        spec_json,
        emit_ms: ms_since(t),
    }
}

/// Oracle from the construction: `10·machines + 1` instances — per
/// machine a server, an app and one `Svc<s>` impl for each of the 8
/// families — and exactly one shared `BenchLib`.
pub fn check(inputs: &Inputs, spec: &InstallSpec, rendered: &str) -> Result<(), String> {
    let m = inputs.machines;
    if spec.len() != (2 + SERVICES) * m + 1 {
        return Err(format!("{} instances for {m} machines", spec.len()));
    }
    let mut impls: BTreeMap<(String, usize), usize> = BTreeMap::new();
    let (mut libs, mut servers, mut apps) = (0, 0, 0);
    for inst in spec.iter() {
        let name = inst.key().name();
        if name == "BenchLib" {
            libs += 1;
        } else if name == "BenchOS" {
            servers += 1;
        } else if name == "BenchApp" {
            apps += 1;
        } else if let Some(family) = name
            .strip_prefix("Svc")
            .and_then(|r| r.split_once("-impl"))
            .and_then(|(s, _)| s.parse::<usize>().ok())
        {
            let host = inst
                .inside_link()
                .map(|l| l.to_string())
                .unwrap_or_default();
            *impls.entry((host, family)).or_default() += 1;
        } else {
            return Err(format!("unexpected instance {}", inst.key()));
        }
    }
    if (libs, servers, apps) != (1, m, m) {
        return Err(format!("{libs} BenchLib, {servers} servers, {apps} apps"));
    }
    if impls.len() != m * SERVICES || impls.values().any(|&n| n != 1) {
        return Err("not exactly one Svc impl per family per machine".into());
    }
    if !rendered.starts_with('[') {
        return Err("rendered spec is not a JSON array".into());
    }
    Ok(())
}

/// One `engage plan`: parse universe and spec, index, configure, render.
/// Returns the op's wall time with the spec and its rendering.
fn plan_once(
    inputs: &Inputs,
    obs: &engage_util::obs::Obs,
) -> Result<(f64, InstallSpec, String, engage_model::Universe), String> {
    let t = Instant::now();
    let (universe, partial) = {
        let _s = obs.span("bench.dsl.parse");
        let u = engage_dsl::parse_universe(&inputs.dsl).map_err(|d| d.message().to_owned())?;
        let p = engage_dsl::parse_partial_spec(&inputs.spec_json)
            .map_err(|d| d.message().to_owned())?;
        (u, p)
    };
    let engine = {
        let _s = obs.span("bench.model.index");
        ConfigEngine::new(&universe).with_obs(obs.clone())
    };
    let outcome = engine
        .configure(&partial)
        .map_err(|e| format!("configure: {e}"))?;
    let rendered = {
        let _s = obs.span("bench.dsl.render");
        engage_dsl::install_spec_to_json(&outcome.spec).compact()
    };
    let op_ms = ms_since(t);
    drop(engine);
    Ok((op_ms, outcome.spec, rendered, universe))
}

pub fn run(args: &Args) -> Result<Run, String> {
    run_sized(args, MACHINES)
}

pub fn run_sized(args: &Args, machines: usize) -> Result<Run, String> {
    let mut run = Run::default();
    let (inputs, setup_s) = repeat_setup(|| Ok(generate(args.seed, machines)))?;
    run.values.insert("setup_s", setup_s);
    run.sample("dsl.emit_ms", inputs.emit_ms);
    run.notes.insert("machines".into(), machines.to_string());

    let (agg, traced_obs) = SpanAgg::obs();
    closed_loop(args, &mut run, |traced, run| {
        let obs = obs_for(traced, &traced_obs);
        let before = obs.metrics();
        let (op_ms, spec, rendered, universe) = match plan_once(&inputs, &obs) {
            Ok(r) => r,
            Err(e) => {
                run.verdict(Err(e));
                return None;
            }
        };
        run.verdict(check(&inputs, &spec, &rendered));
        if !traced {
            run.sample("plan_s", op_ms / 1e3);
            return Some(op_ms);
        }
        let t = Instant::now();
        let checked = engage_model::check_install_spec(&universe, &spec);
        run.sample("model.check_ms", ms_since(t));
        if let Err(e) = checked {
            run.errors.push(format!("static check: {:?}", e.first()));
        }
        let after = obs.metrics();
        let spans = agg.take();
        run.sample("dsl.parse_ms", spans.total_ms("bench.dsl.parse", false));
        run.sample("dsl.render_ms", spans.total_ms("bench.dsl.render", false));
        run.sample("model.index_ms", spans.total_ms("bench.model.index", false));
        config_samples(run, &spans, false, 1.0);
        let mut counters = BTreeMap::new();
        for (metric, gauge_name) in [
            ("config.graphgen.nodes", "config.graphgen.nodes"),
            ("config.graphgen.edges", "config.graphgen.edges"),
            ("sat.cnf_vars", "config.cnf_vars"),
            ("sat.cnf_clauses", "config.cnf_clauses"),
        ] {
            counters.insert(metric.to_owned(), gauge(&after, gauge_name));
        }
        for c in [
            "sat.conflicts",
            "sat.decisions",
            "sat.restarts",
            "sat.propagations",
        ] {
            counters.insert(c.to_owned(), counter_delta(&before, &after, c));
        }
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
    use super::*;

    #[test]
    fn two_traced_runs_repeat_the_work_counters() {
        crate::harness::assert_counters_repeat(|args| run_sized(args, 12));
    }

    #[test]
    fn the_oracle_rejects_a_spec_missing_an_instance() {
        let inputs = generate(1, 3);
        let u = engage_dsl::parse_universe(&inputs.dsl).unwrap();
        let partial = engage_dsl::parse_partial_spec(&inputs.spec_json).unwrap();
        let spec = ConfigEngine::new(&u).configure(&partial).unwrap().spec;
        assert_eq!(check(&inputs, &spec, "[]"), Ok(()));
        let mut short = InstallSpec::new();
        for inst in spec.iter().skip(1) {
            short.push(inst.clone()).unwrap();
        }
        assert!(check(&inputs, &short, "[]").is_err());
    }
}
