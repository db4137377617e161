//! The open-loop load generator and the capacity ladder.
//!
//! Request `i` of a pass is due `i / rate` seconds after the pass starts
//! and is sent then, whether or not earlier requests were answered — the
//! traffic of independent users. Latency runs from the due time, not the
//! send time, so a stall (in the server, or in the generator itself)
//! counts against every request that was due during it. How late the
//! generator sent is reported too, and a pass whose generator fell
//! behind does not count as a measurement of the server.

use std::time::{Duration, Instant};

use crate::stats::percentile;

/// A pass is void when a tenth of its requests left this much later than
/// due: the generator, not the server, set the pace.
pub const GEN_LATE_LIMIT_MS: f64 = 2.0;

/// The latency limit a capacity rung must meet: p99 and the final
/// backlog's drain time both within it.
pub const LATENCY_LIMIT_MS: f64 = 20.0;

/// What the server answered to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// Answered, and the answer passed the oracle.
    Ok,
    /// Refused with the typed `busy` backpressure error.
    Busy,
    /// Answered with an error, or with an answer the oracle rejects.
    Wrong,
}

/// One request of a pass; times are offsets from the pass start.
#[derive(Debug, Clone, Copy)]
pub struct Shot {
    pub class: usize,
    pub due: Duration,
    pub sent: Duration,
    pub done: Option<(Duration, Reply)>,
}

/// The outcome of one open-loop pass.
#[derive(Debug, Clone)]
pub struct Pass {
    pub shots: Vec<Shot>,
}

/// Runs one pass: `classes[i]` is request `i`'s traffic class, `send(i)`
/// transmits it, and `recv()` blocks for the next answer — the request
/// index it answers and its verdict — or returns `None` when the
/// connection ends or times out. Requests never answered stay `done:
/// None` and count as failed.
pub fn drive<S, R>(rate: f64, classes: &[usize], mut send: S, mut recv: R) -> Pass
where
    S: FnMut(usize) + Send,
    R: FnMut() -> Option<(usize, Reply)> + Send,
{
    assert!(rate > 0.0, "offered rate must be positive");
    let n = classes.len();
    let start = Instant::now();
    let due = |i: usize| Duration::from_secs_f64(i as f64 / rate);
    let (sent, done) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut done: Vec<Option<(Duration, Reply)>> = vec![None; n];
            let mut answered = 0;
            while answered < n {
                let Some((i, reply)) = recv() else { break };
                if let Some(slot) = done.get_mut(i).filter(|s| s.is_none()) {
                    *slot = Some((start.elapsed(), reply));
                    answered += 1;
                }
            }
            done
        });
        let mut sent = Vec::with_capacity(n);
        for i in 0..n {
            let wait = due(i).saturating_sub(start.elapsed());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            sent.push(start.elapsed());
            send(i);
        }
        (sent, receiver.join().expect("receiver thread panicked"))
    });
    Pass {
        shots: (0..n)
            .map(|i| Shot {
                class: classes[i],
                due: due(i),
                sent: sent[i],
                done: done[i],
            })
            .collect(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Pass {
    /// Due-time latencies of the answered, correct requests of `class`
    /// (every class for `None`), in milliseconds.
    pub fn latencies_ms(&self, class: Option<usize>) -> Vec<f64> {
        self.shots
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .filter_map(|s| match s.done {
                Some((at, Reply::Ok)) => Some(ms(at.saturating_sub(s.due))),
                _ => None,
            })
            .collect()
    }

    /// How late the generator sent each request, in milliseconds.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.shots
            .iter()
            .map(|s| ms(s.sent.saturating_sub(s.due)))
            .collect()
    }

    /// Requests refused as `busy`.
    pub fn busy(&self) -> usize {
        self.count(|r| r == Some(Reply::Busy))
    }

    /// Requests answered wrongly or never answered.
    pub fn failed(&self) -> usize {
        self.count(|r| matches!(r, None | Some(Reply::Wrong)))
    }

    fn count(&self, pred: impl Fn(Option<Reply>) -> bool) -> usize {
        self.shots
            .iter()
            .filter(|s| pred(s.done.map(|(_, r)| r)))
            .count()
    }

    /// Time from the last request's due time until every answer was in:
    /// how long the backlog took to drain. `None` if an answer is missing.
    pub fn drain_ms(&self) -> Option<f64> {
        let last_due = self.shots.last()?.due;
        let mut last_done = Duration::ZERO;
        for s in &self.shots {
            last_done = last_done.max(s.done?.0);
        }
        Some(ms(last_done.saturating_sub(last_due)))
    }

    /// Whether the generator fell behind its schedule (see
    /// [`GEN_LATE_LIMIT_MS`]); such a pass measures the generator.
    pub fn generator_behind(&self) -> bool {
        let late = self.lateness_ms();
        let p90 =
            percentile(&late, 0.9).unwrap_or_else(|| late.iter().copied().fold(0.0, f64::max));
        p90 > GEN_LATE_LIMIT_MS
    }

    /// Whether this pass sustains its rate: no `busy` or failed request,
    /// a valid generator, and both p99 latency and backlog drain within
    /// `limit_ms`. A p99 resting on too few samples does not qualify.
    pub fn sustains(&self, limit_ms: f64) -> bool {
        self.busy() == 0
            && self.failed() == 0
            && !self.generator_behind()
            && percentile(&self.latencies_ms(None), 0.99).is_some_and(|p| p <= limit_ms)
            && self.drain_ms().is_some_and(|d| d <= limit_ms)
    }
}

/// A fixed geometric ladder of offered rates: `lowest · factor^k` for
/// `k = 0..rungs`.
pub fn ladder(lowest: f64, factor: f64, rungs: usize) -> Vec<f64> {
    (0..rungs).map(|k| lowest * factor.powi(k as i32)).collect()
}

/// Climbs `rungs` (ascending) and returns the highest rung below the
/// first one `probe` rejects, with every pass probed. `None` when even
/// the lowest rung fails.
pub fn climb(rungs: &[f64], mut probe: impl FnMut(f64) -> bool) -> Option<f64> {
    let mut best = None;
    for &rate in rungs {
        if !probe(rate) {
            break;
        }
        best = Some(rate);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// One pass against a synthetic single-worker FIFO server with a
    /// fixed service time; the generator stalls 30 ms before sending
    /// request `stall`.
    fn synthetic_pass(rate: f64, n: usize, service: Duration, stall: Option<usize>) -> Pass {
        let (to_server, inbox) = mpsc::channel::<usize>();
        let (outbox, from_server) = mpsc::channel::<usize>();
        let server = std::thread::spawn(move || {
            for i in inbox {
                std::thread::sleep(service);
                if outbox.send(i).is_err() {
                    break;
                }
            }
        });
        let classes = vec![0; n];
        let pass = drive(
            rate,
            &classes,
            |i| {
                if stall == Some(i) {
                    // The generator itself stalls before sending.
                    std::thread::sleep(Duration::from_millis(30));
                }
                to_server.send(i).expect("server alive");
            },
            move || {
                from_server
                    .recv_timeout(Duration::from_secs(10))
                    .ok()
                    .map(|i| (i, Reply::Ok))
            },
        );
        drop(to_server);
        server.join().expect("server thread");
        pass
    }

    #[test]
    fn latency_is_measured_from_the_due_time() {
        // 200 req/s, instant server, a 30 ms generator stall at request 10:
        // requests 10..16 were due during the stall, so their latency
        // includes the wait even though the server answered at once.
        let pass = synthetic_pass(200.0, 40, Duration::ZERO, Some(10));
        let lat = pass.latencies_ms(None);
        assert_eq!(lat.len(), 40);
        assert!(lat[10] >= 30.0, "stalled request: {} ms", lat[10]);
        assert!(lat[12] >= 20.0, "request due mid-stall: {} ms", lat[12]);
        assert!(lat[30] < 10.0, "after catching up: {} ms", lat[30]);
        // The stall shows as lateness of the requests sent after it.
        assert!(pass.lateness_ms()[11] >= 20.0);
    }

    #[test]
    fn a_generator_that_falls_behind_voids_the_pass() {
        // Each send takes 3 ms; at 1000 req/s the generator cannot keep up.
        let (tx, rx) = mpsc::channel::<usize>();
        let classes = vec![0; 100];
        let pass = drive(
            1000.0,
            &classes,
            |i| {
                std::thread::sleep(Duration::from_millis(3));
                tx.send(i).expect("receiver alive");
            },
            move || {
                rx.recv_timeout(Duration::from_secs(10))
                    .ok()
                    .map(|i| (i, Reply::Ok))
            },
        );
        assert!(pass.generator_behind());
        assert!(pass.lateness_ms().last().copied().unwrap_or(0.0) > 100.0);
        assert!(!pass.sustains(LATENCY_LIMIT_MS));
        // A generator that keeps its schedule is valid.
        let ok = synthetic_pass(200.0, 40, Duration::ZERO, None);
        assert!(!ok.generator_behind());
    }

    #[test]
    fn busy_and_missing_answers_are_failures_not_latencies() {
        let mut pass = synthetic_pass(1000.0, 20, Duration::ZERO, None);
        pass.shots[3].done = pass.shots[3].done.map(|(t, _)| (t, Reply::Busy));
        pass.shots[4].done = None;
        assert_eq!(pass.busy(), 1);
        assert_eq!(pass.failed(), 1);
        assert_eq!(pass.latencies_ms(None).len(), 18);
        assert_eq!(pass.drain_ms(), None);
    }

    #[test]
    fn the_ladder_picks_the_highest_sustained_rung_of_a_synthetic_server() {
        // One worker at 0.5 ms per request: capacity is under 2000 req/s.
        // 1000 req/s is sustained; 4000 req/s builds a backlog of ~0.14 s
        // and fails; the rung above it is never probed.
        let rungs = [500.0, 1000.0, 4000.0, 8000.0];
        let mut probed = Vec::new();
        let best = climb(&rungs, |rate| {
            probed.push(rate);
            synthetic_pass(rate, 1100, Duration::from_micros(500), None).sustains(LATENCY_LIMIT_MS)
        });
        assert_eq!(best, Some(1000.0));
        assert_eq!(probed, vec![500.0, 1000.0, 4000.0]);
    }

    #[test]
    fn ladder_rungs_are_geometric() {
        let l = ladder(1000.0, 2.0, 4);
        assert_eq!(l, vec![1000.0, 2000.0, 4000.0, 8000.0]);
        assert_eq!(climb(&l, |r| r < 3000.0), Some(2000.0));
        assert_eq!(climb(&l, |_| false), None);
    }
}
