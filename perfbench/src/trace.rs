//! One-pass span aggregation for the traced run.
//!
//! [`SpanAgg`] is an `engage_util::obs` sink that folds every finished
//! span into per-name totals as its end record arrives: a start record
//! is kept only while its span is open, and a span's duration is added
//! to its parent's child time by parent id. Self time is a span's
//! duration minus its children's. Nothing rescans the record history,
//! so the cost per span is constant however many spans a run makes.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use engage_util::obs::{Obs, Record, Sink, SpanId};

/// The span under which the reconciler's re-plan and repair spans are
/// attributed to the repair (see [`Key::under_tick`]).
const TICK: &str = "reconcile.tick";

/// Aggregation key: a span name, split by whether the span ran inside a
/// reconcile tick. `config.configure` under a tick is the reconciler's
/// re-plan; outside one it is a user's plan.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    pub name: String,
    pub under_tick: bool,
}

/// Totals for one [`Key`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
    /// Every duration, in end order (for percentiles).
    pub durations: Vec<Duration>,
}

struct Open {
    name: String,
    parent: Option<SpanId>,
    under_tick: bool,
    children: Duration,
}

#[derive(Default)]
struct State {
    open: HashMap<SpanId, Open>,
    totals: BTreeMap<Key, Totals>,
}

/// The benchmark's span sink. Attach with [`SpanAgg::obs`]; read and
/// reset with [`SpanAgg::take`].
#[derive(Default)]
pub struct SpanAgg {
    state: Mutex<State>,
}

impl SpanAgg {
    /// A fresh sink plus an enabled `Obs` reporting into it.
    pub fn obs() -> (Arc<SpanAgg>, Obs) {
        let agg = Arc::new(SpanAgg::default());
        let obs = Obs::new().with_sink(agg.clone());
        (agg, obs)
    }

    /// Returns the totals of every span finished since the last call and
    /// starts afresh. Spans still open stay tracked.
    pub fn take(&self) -> Spans {
        let mut state = self.state.lock().expect("span sink lock poisoned");
        Spans(std::mem::take(&mut state.totals))
    }
}

impl Sink for SpanAgg {
    fn record(&self, record: &Record) {
        match record {
            Record::SpanStart {
                id, parent, name, ..
            } => {
                let mut state = self.state.lock().expect("span sink lock poisoned");
                let under_tick = parent
                    .and_then(|p| state.open.get(&p))
                    .is_some_and(|p| p.under_tick || p.name == TICK);
                state.open.insert(
                    *id,
                    Open {
                        name: name.clone(),
                        parent: *parent,
                        under_tick,
                        children: Duration::ZERO,
                    },
                );
            }
            Record::SpanEnd { id, elapsed, .. } => {
                let mut state = self.state.lock().expect("span sink lock poisoned");
                let Some(open) = state.open.remove(id) else {
                    return;
                };
                if let Some(parent) = open.parent.and_then(|p| state.open.get_mut(&p)) {
                    parent.children += *elapsed;
                }
                let totals = state
                    .totals
                    .entry(Key {
                        name: open.name,
                        under_tick: open.under_tick,
                    })
                    .or_default();
                totals.count += 1;
                totals.total += *elapsed;
                // Children on other threads may overlap; self time is
                // never negative.
                totals.self_time += elapsed.saturating_sub(open.children);
                totals.durations.push(*elapsed);
            }
            Record::Event { .. } => {}
        }
    }
}

/// Span totals over one stretch of a run.
#[derive(Debug, Clone, Default)]
pub struct Spans(BTreeMap<Key, Totals>);

impl Spans {
    /// Totals for `name`, inside or outside reconcile ticks.
    pub fn get(&self, name: &str, under_tick: bool) -> Option<&Totals> {
        self.0.get(&Key {
            name: name.to_owned(),
            under_tick,
        })
    }

    /// Total time in `name` spans, in milliseconds (0 when none ran).
    pub fn total_ms(&self, name: &str, under_tick: bool) -> f64 {
        self.get(name, under_tick)
            .map_or(0.0, |t| t.total.as_secs_f64() * 1e3)
    }

    /// Self time in `name` spans, in milliseconds (0 when none ran).
    pub fn self_ms(&self, name: &str, under_tick: bool) -> f64 {
        self.get(name, under_tick)
            .map_or(0.0, |t| t.self_time.as_secs_f64() * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_matched_by_parent_id() {
        let (agg, obs) = SpanAgg::obs();
        {
            let _outer = obs.span("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = obs.span("inner");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let spans = agg.take();
        let outer = spans.get("outer", false).unwrap();
        let inner = spans.get("inner", false).unwrap();
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(outer.self_time, outer.total - inner.total);
        assert_eq!(inner.self_time, inner.total);
        assert!(agg.take().get("outer", false).is_none(), "take resets");
    }

    #[test]
    fn spans_inside_a_tick_are_keyed_apart() {
        let (agg, obs) = SpanAgg::obs();
        {
            let _plan = obs.span("config.configure");
        }
        {
            let _tick = obs.span(TICK);
            let _wrap = obs.span("deploy.deploy");
            let _replan = obs.span("config.configure");
        }
        let spans = agg.take();
        let count = |name, under_tick| spans.get(name, under_tick).map(|t| t.count);
        assert_eq!(count("config.configure", false), Some(1));
        assert_eq!(count("config.configure", true), Some(1));
        assert_eq!(count(TICK, false), Some(1));
    }
}
