//! What every workload shares: the run's arguments, its result record,
//! the closed-loop driver and the timing helpers.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use engage_util::obs::{MetricsSnapshot, Obs};

use crate::stats::median;
use crate::trace::Spans;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The end of the measured window, counted from now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// The result of one run, before it is printed.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted and failed (failed, refused, or wrong by the
    /// oracle).
    pub attempted: u64,
    pub failed: u64,
    /// Findings that make the whole run incorrect, beyond single ops.
    pub errors: Vec<String>,
    /// Metric values set directly by name; every other declared metric
    /// is the median of its samples (see [`Run::report_medians`]).
    pub values: BTreeMap<&'static str, f64>,
    /// Samples by name, for the metrics and the provenance line.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Deterministic work counters of one operation (traced runs).
    pub counters: BTreeMap<String, u64>,
    /// Settings worth recording with the result (offered rates, sizes).
    pub notes: BTreeMap<String, String>,
}

impl Run {
    /// Records one sample under `name`.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_owned()).or_default().push(value);
    }

    /// Sets every declared metric that was not set directly to the
    /// median of its samples, if it has any.
    pub fn report_medians(&mut self) {
        for &(name, _) in crate::PER_LAYER.iter().chain(&crate::END_TO_END) {
            if self.values.contains_key(name) {
                continue;
            }
            if let Some(m) = self.samples.get(name).and_then(|v| median(v)) {
                self.values.insert(name, m);
            }
        }
    }

    /// Counts one operation and its verdict; a wrong answer is kept as an
    /// error line for the log.
    pub fn verdict(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Records one operation's deterministic counters; a second
    /// operation on the same inputs must repeat them exactly.
    pub fn counters_repeat(&mut self, counters: BTreeMap<String, u64>) {
        if self.counters.is_empty() {
            self.counters = counters;
        } else if self.counters != counters {
            self.errors.push(format!(
                "work counters did not repeat: {:?} then {:?}",
                self.counters, counters
            ));
        }
    }
}

/// Set-ups per run. Set-up is short next to the measured window, and the
/// median of several keeps a host's momentary stalls out of `setup_s`.
pub const SETUP_REPS: usize = 9;

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with
/// the median wall time in seconds. Earlier results are dropped first,
/// so each repetition starts from the same state.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    let median = median(&secs).expect("at least one set-up");
    Ok((last.expect("at least one set-up"), median))
}

/// Drives a closed-loop workload: one op at a time until the window
/// ends. A traced run alternates untraced and traced ops, at least two of
/// each. `op(traced, run)` runs one op, records its verdict and samples,
/// and returns its wall time in milliseconds (`None` if it failed).
/// Sets `op_p50_ms`, `cpu_ms_per_op` and `obs.overhead_frac`.
pub fn closed_loop(args: &Args, run: &mut Run, mut op: impl FnMut(bool, &mut Run) -> Option<f64>) {
    let deadline = args.deadline();
    let cpu0 = crate::probe::cpu_ms();
    let mut ops: u32 = 0;
    while ops == 0 || Instant::now() < deadline || (args.trace && ops < 4) {
        let traced = args.trace && ops % 2 == 1;
        if let Some(ms) = op(traced, run) {
            run.sample(if traced { "traced_op_ms" } else { "op_ms" }, ms);
        }
        ops += 1;
    }
    if let (Some(a), Some(b)) = (cpu0, crate::probe::cpu_ms()) {
        run.values.insert("cpu_ms_per_op", (b - a) / f64::from(ops));
    }
    let m = |name: &str| run.samples.get(name).and_then(|v| median(v));
    if let Some(plain) = m("op_ms") {
        run.values.insert("op_p50_ms", plain);
        if let Some(traced) = m("traced_op_ms") {
            run.values.insert("obs.overhead_frac", traced / plain - 1.0);
        }
    }
}

/// Samples the configure breakdown from the program's own spans, under
/// reconcile ticks or outside them, divided over `per` operations.
pub fn config_samples(run: &mut Run, spans: &Spans, under_tick: bool, per: f64) {
    for (metric, span) in [
        ("config.graphgen_ms", "config.graphgen"),
        ("config.constraint_gen_ms", "config.constraint_gen"),
        ("sat.solve_ms", "config.solve"),
        ("config.propagate_ms", "config.propagate"),
    ] {
        run.sample(metric, spans.total_ms(span, under_tick) / per);
    }
    run.sample(
        "config.self_ms",
        spans.self_ms("config.configure", under_tick) / per,
    );
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The change of a counter between two snapshots.
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}

/// A gauge's value in `snapshot`, as a count.
pub fn gauge(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    u64::try_from(snapshot.gauge(name)).unwrap_or(0)
}

/// The `obs` handle for one operation: enabled when traced.
pub fn obs_for(traced: bool, obs: &Obs) -> Obs {
    if traced {
        obs.clone()
    } else {
        Obs::disabled()
    }
}

/// Arguments for a minimal traced run (two untraced and two traced ops).
#[cfg(test)]
pub fn traced_args(seed: u64) -> Args {
    Args {
        workload: String::new(),
        seed,
        seconds: 0.001,
        trace: true,
    }
}

/// Runs a small traced run twice on one seed and checks that it is
/// correct and that the two runs' work counters agree.
#[cfg(test)]
pub fn assert_counters_repeat(run: impl Fn(&Args) -> Result<Run, String>) {
    let a = run(&traced_args(7)).expect("first run");
    let b = run(&traced_args(7)).expect("second run");
    for r in [&a, &b] {
        assert_eq!((r.failed, &r.errors), (0, &Vec::<String>::new()));
        assert!(r.attempted >= 4);
    }
    assert!(!a.counters.is_empty());
    assert_eq!(a.counters, b.counters);
}
