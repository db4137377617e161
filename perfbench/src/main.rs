//! The Engage benchmark: end-to-end and per-layer metrics of the
//! deployment lifecycle on four workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <plan-estate|lifecycle|deploy-io|serve-tenants> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The benchmark generates every input
//! from the seed, checks every output against an oracle built from the
//! input's construction, and prints one JSON object as its last line:
//! with `--trace 0` the end-to-end metrics, measured with observability
//! off; with `--trace 1` the per-layer metrics of a traced run. The line
//! before it records provenance, sample quartiles and the deterministic
//! work counters. See `perfbench/README.md` for what each metric means.

mod deploy_io;
mod estate;
mod harness;
mod lifecycle;
mod openloop;
mod plan_estate;
mod probe;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

use engage_dsl::Json;

use harness::{Args, Run};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["plan-estate", "lifecycle", "deploy-io", "serve-tenants"];

/// End-to-end metrics (`--trace 0`), reported by every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
];

/// Per-layer metrics (`--trace 1`). A workload reports 0 for a layer it
/// does not exercise, and -1 for a tail percentile with fewer than ten
/// samples beyond it.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-level figures from the untraced half of the traced run.
    ("plan_s", "s"),
    ("deploy_s", "s"),
    ("repair_s", "s"),
    ("repair_sim_s", "sim_s"),
    ("teardown_s", "s"),
    ("makespan_sim_s", "sim_s"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_max_rps", "1/s"),
    ("failed_frac", "frac"),
    ("obs.overhead_frac", "frac"),
    // dsl and model.
    ("dsl.parse_ms", "ms"),
    ("dsl.emit_ms", "ms"),
    ("dsl.render_ms", "ms"),
    ("model.index_ms", "ms"),
    ("model.check_ms", "ms"),
    // config and sat.
    ("config.graphgen_ms", "ms"),
    ("config.graphgen.nodes", "count"),
    ("config.graphgen.edges", "count"),
    ("config.constraint_gen_ms", "ms"),
    ("config.propagate_ms", "ms"),
    ("config.self_ms", "ms"),
    ("sat.cnf_vars", "count"),
    ("sat.cnf_clauses", "count"),
    ("sat.solve_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.restarts", "count"),
    ("sat.propagations", "count"),
    // deploy.
    ("deploy.execute_ms", "ms"),
    ("deploy.transitions", "count"),
    ("deploy.us_per_transition", "us"),
    ("deploy.stop_ms", "ms"),
    ("deploy.uninstall_ms", "ms"),
    ("deploy.sched.wavefronts", "count"),
    ("deploy.sched.ready_peak", "count"),
    ("deploy.overlap_ratio", "ratio"),
    // deploy::reconcile, per storm.
    ("deploy.reconcile.tick_ms", "ms"),
    ("deploy.reconcile.self_ms", "ms"),
    ("deploy.reconcile.replan_ms", "ms"),
    ("deploy.reconcile.execute_ms", "ms"),
    ("deploy.reconcile.actions", "count"),
    ("deploy.reconcile.delta_size", "count"),
    ("deploy.reconcile.drift_events", "count"),
    // serve.
    ("serve.latency_ms.plan_warm.p50", "ms"),
    ("serve.latency_ms.plan_warm.p99", "ms"),
    ("serve.latency_ms.plan_reshape.p50", "ms"),
    ("serve.latency_ms.plan_reshape.p99", "ms"),
    ("serve.latency_ms.plan_cold.p50", "ms"),
    ("serve.latency_ms.plan_cold.p99", "ms"),
    ("serve.latency_ms.deploy.p50", "ms"),
    ("serve.latency_ms.deploy.p99", "ms"),
    ("serve.session_hit_ratio", "frac"),
    ("serve.session_evictions", "count"),
    ("serve.busy", "count"),
    ("serve.queue_depth.max", "count"),
    ("serve.gen_late_ms", "ms"),
];

fn usage() -> String {
    format!(
        "usage: engage-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn number(v: f64) -> Json {
    if v.is_finite() {
        Json::Float(v)
    } else {
        Json::Null
    }
}

/// The line before the result: provenance and the samples behind it.
fn provenance(args: &Args, run: &Run) -> String {
    let samples = run
        .samples
        .iter()
        .filter_map(|(name, v)| {
            let s = stats::summarize(v)?;
            Some((
                name.clone(),
                Json::Object(vec![
                    ("n".into(), Json::Int(s.n as i64)),
                    ("q1".into(), number(s.q1)),
                    ("median".into(), number(s.median)),
                    ("q3".into(), number(s.q3)),
                ]),
            ))
        })
        .collect();
    let counters = run
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), Json::Int(*v as i64)))
        .collect();
    let notes = run
        .notes
        .iter()
        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
        .collect();
    Json::Object(vec![
        (
            "provenance".into(),
            Json::Object(vec![
                ("git_rev".into(), Json::Str(probe::git_rev())),
                ("nproc".into(), Json::Int(probe::nproc() as i64)),
                ("workload".into(), Json::Str(args.workload.clone())),
                ("seed".into(), Json::Int(args.seed as i64)),
                ("seconds".into(), number(args.seconds)),
                ("trace".into(), Json::Bool(args.trace)),
            ]),
        ),
        ("notes".into(), Json::Object(notes)),
        ("samples".into(), Json::Object(samples)),
        ("work_counters".into(), Json::Object(counters)),
        (
            "errors".into(),
            Json::Array(run.errors.iter().map(|e| Json::Str(e.clone())).collect()),
        ),
    ])
    .compact()
}

/// The result line: every declared metric of this mode, with its unit.
fn result(args: &Args, run: &Run) -> Result<String, String> {
    let catalogue: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = match run.values.get(name) {
            Some(v) => *v,
            // Every end-to-end metric is measured on every workload.
            None if !args.trace => return Err(format!("{name} was not measured")),
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("{name} is not a number: {value}"));
        }
        metrics.push((
            name.to_owned(),
            Json::Object(vec![
                ("value".into(), Json::Float(value)),
                ("unit".into(), Json::Str(unit.to_owned())),
            ]),
        ));
    }
    if let Some(extra) = run
        .values
        .keys()
        .find(|k| !PER_LAYER.iter().chain(&END_TO_END).any(|(n, _)| n == *k))
    {
        return Err(format!("{extra} is not a declared metric"));
    }
    Ok(Json::Object(vec![
        (
            "correct".into(),
            Json::Bool(run.failed == 0 && run.errors.is_empty()),
        ),
        ("attempted".into(), Json::Int(run.attempted as i64)),
        ("failed".into(), Json::Int(run.failed as i64)),
        ("metrics".into(), Json::Object(metrics)),
    ])
    .compact())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "plan-estate" => plan_estate::run(&args),
        "lifecycle" => lifecycle::run(&args),
        "deploy-io" => deploy_io::run(&args),
        "serve-tenants" => serve::run(&args),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    let mut run = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(rss) = probe::peak_rss_mb() {
        run.values.insert("peak_rss_mb", rss);
    }
    run.values.insert(
        "failed_frac",
        run.failed as f64 / run.attempted.max(1) as f64,
    );
    run.report_medians();
    for e in &run.errors {
        eprintln!("{}: {e}", args.workload);
    }
    let line = match result(&args, &run) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    println!("{}", provenance(&args, &run));
    println!("{line}");
    ExitCode::SUCCESS
}
