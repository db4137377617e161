//! `serve-tenants`: the in-process `engage serve` daemon with its
//! default configuration, driven open loop over one Unix-socket
//! connection by one sender and one reader thread. Many small requests,
//! so the daemon's per-request cost (protocol JSON, queue, session pool,
//! session clone, eager render, static check) dominates and the
//! 100k-scale stages barely run.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use engage::serve::{serve_connection, ServeConfig, Server};
use engage_dsl::Json;
use engage_testgen::{scenario, Family};
use engage_util::obs::Obs;
use engage_util::rand::{Rng, SeedableRng, StdRng};

use crate::harness::{counter_delta, gauge, Args, Run, SETUP_REPS};
use crate::openloop::{self, Pass, Reply};
use crate::stats::{median, percentile};

/// Hot tenants: tenant `i` is the testgen scenario of family `i mod 5`
/// seeded with `i`. The run's seed drives the traffic (each request's
/// class and tenant), not the tenants, so every seed serves the same
/// estate and the spread across seeds is the traffic's.
pub const HOT_TENANTS: usize = 24;
/// The fixed offered rate for the latency metrics, in requests per
/// second: about a sixth of the ladder's capacity (4.6k req/s on a
/// 2-core host). The daemon's default queue holds 64 requests, so a stall
/// of the shared host longer than a queue's worth of arrivals makes it
/// refuse requests as `busy`, and refusals count as failures. At 1,600
/// req/s (40 ms of arrivals) two copies of this benchmark on one 2-core
/// host saw refusals; at 800 req/s (80 ms) three copies saw none.
pub const FIXED_RATE: f64 = 800.0;
/// The capacity ladder: `LADDER_LOW · LADDER_FACTOR^k`.
const LADDER_LOW: f64 = 1500.0;
const LADDER_FACTOR: f64 = 1.25;
const LADDER_RUNGS: usize = 9;
/// Requests per ladder rung: enough for a p99 with ten samples beyond.
const RUNG_REQUESTS: usize = 1100;
/// Daemons the fixed-rate window is split over.
const PASSES: usize = 8;
/// How long the reader waits for an answer before the pass gives up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The traffic classes' latency metrics (p50, p99), indexed by class.
const CLASS_METRICS: [(&str, &str); 4] = [
    (
        "serve.latency_ms.plan_warm.p50",
        "serve.latency_ms.plan_warm.p99",
    ),
    (
        "serve.latency_ms.plan_reshape.p50",
        "serve.latency_ms.plan_reshape.p99",
    ),
    (
        "serve.latency_ms.plan_cold.p50",
        "serve.latency_ms.plan_cold.p99",
    ),
    ("serve.latency_ms.deploy.p50", "serve.latency_ms.deploy.p99"),
];
const WARM: usize = 0;
const RESHAPE: usize = 1;
const COLD: usize = 2;
const DEPLOY: usize = 3;

/// Picks a class: 80% warm plan, 10% reshaped plan, 5% cold-tenant plan,
/// 5% deploy.
fn pick_class(rng: &mut StdRng) -> usize {
    match rng.gen_range(0u32..100) {
        0..=79 => WARM,
        80..=89 => RESHAPE,
        90..=94 => COLD,
        _ => DEPLOY,
    }
}

/// One hot tenant's pre-rendered request parts and its oracle.
struct Tenant {
    universe: String,
    warm_spec: String,
    reshape_spec: String,
    warm_len: usize,
    reshape_len: usize,
}

fn tenants() -> Vec<Tenant> {
    (0..HOT_TENANTS)
        .map(|i| {
            let family = Family::ALL[i % Family::ALL.len()];
            let sc = scenario(family, i as u64);
            let json = |p| engage_dsl::partial_spec_to_json(p).compact();
            Tenant {
                universe: Json::Str(engage_dsl::print_universe(&sc.universe)).compact(),
                warm_spec: json(&sc.partial),
                reshape_spec: json(&sc.reconfigure),
                warm_len: sc.expected.spec_len.expect("satisfiable scenario"),
                reshape_len: sc.expected.reconfigure_len.expect("satisfiable scenario"),
            }
        })
        .collect()
}

/// One request of the traffic: its class, tenant and oracle.
#[derive(Clone, Copy)]
struct Shot {
    class: usize,
    tenant: usize,
}

/// The seeded request sequence of one pass.
fn traffic(rng: &mut StdRng, n: usize) -> Vec<Shot> {
    (0..n)
        .map(|_| Shot {
            class: pick_class(rng),
            tenant: rng.gen_range(0..HOT_TENANTS),
        })
        .collect()
}

/// The request line for `shot`, with wire id `id`.
fn request_line(tenants: &[Tenant], shot: Shot, id: usize) -> String {
    let t = &tenants[shot.tenant];
    let (op, spec) = match shot.class {
        RESHAPE => ("plan", &t.reshape_spec),
        DEPLOY => ("deploy", &t.warm_spec),
        _ => ("plan", &t.warm_spec),
    };
    let tenant = if shot.class == COLD {
        // A tenant never seen before: a pool miss (parse + index).
        format!("cold{id}")
    } else {
        format!("t{}", shot.tenant)
    };
    format!(
        "{{\"id\":{id},\"tenant\":\"{tenant}\",\"op\":\"{op}\",\"universe\":{},\"spec\":{spec}}}\n",
        t.universe
    )
}

/// Reads the fields the oracle needs from a response line without a full
/// JSON parse (the line carries the whole spec). Returns the id and the
/// verdict given the spec size the construction predicts.
fn verdict(line: &str, expect: impl Fn(usize) -> Option<(usize, bool)>) -> Option<(usize, Reply)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    let id: usize = rest[..end].parse().ok()?;
    let rest = &rest[end..];
    if !rest.starts_with(",\"ok\":true") {
        let busy = rest.contains("\"kind\":\"busy\"");
        return Some((id, if busy { Reply::Busy } else { Reply::Wrong }));
    }
    let Some((spec_len, deploy)) = expect(id) else {
        return Some((id, Reply::Wrong));
    };
    let got = line
        .rfind("\"spec_len\":")
        .map(|at| &line[at + "\"spec_len\":".len()..])
        .and_then(|s| {
            s[..s.find(|c: char| !c.is_ascii_digit())?]
                .parse::<usize>()
                .ok()
        });
    let deployed = !deploy || line.contains("\"deployed\":true");
    let ok = got == Some(spec_len) && deployed;
    Some((id, if ok { Reply::Ok } else { Reply::Wrong }))
}

static SOCKETS: AtomicUsize = AtomicUsize::new(0);

/// The daemon in this process, serving one client connection over a
/// Unix socket in the working directory.
struct Daemon {
    server: Arc<Server>,
    acceptor: JoinHandle<()>,
    path: PathBuf,
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    next_id: usize,
}

impl Daemon {
    fn start(obs: Obs) -> Result<Daemon, String> {
        let path = PathBuf::from(format!(
            ".perfbench-{}-{}.sock",
            std::process::id(),
            SOCKETS.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&path);
        let io = |e: std::io::Error| format!("socket {}: {e}", path.display());
        let listener = UnixListener::bind(&path).map_err(io)?;
        let server = Arc::new(Server::new(ServeConfig::default(), obs));
        let accepting = Arc::clone(&server);
        let acceptor = std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                if let Ok(read_half) = stream.try_clone() {
                    serve_connection(&accepting, BufReader::new(read_half), stream);
                }
            }
        });
        let writer = UnixStream::connect(&path).map_err(io)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(io)?;
        let reader = BufReader::new(writer.try_clone().map_err(io)?);
        Ok(Daemon {
            server,
            acceptor,
            path,
            writer,
            reader,
            next_id: 0,
        })
    }

    /// Sends `shots` open loop at `rate` and collects the answers.
    fn pass(&mut self, tenants: &[Tenant], shots: &[Shot], rate: f64) -> Pass {
        let base = self.next_id;
        self.next_id += shots.len();
        let classes: Vec<usize> = shots.iter().map(|s| s.class).collect();
        let expect = |id: usize| {
            let shot = shots.get(id.checked_sub(base)?)?;
            let t = &tenants[shot.tenant];
            Some(match shot.class {
                RESHAPE => (t.reshape_len, false),
                DEPLOY => (t.warm_len, true),
                _ => (t.warm_len, false),
            })
        };
        let writer = &mut self.writer;
        let reader = &mut self.reader;
        openloop::drive(
            rate,
            &classes,
            |i| {
                let line = request_line(tenants, shots[i], base + i);
                // A failed write leaves the request unanswered: it counts
                // as failed when the reader times out.
                let _ = writer.write_all(line.as_bytes());
            },
            || {
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => return None,
                        Ok(_) => {
                            // Answers to an earlier pass are skipped.
                            let answer = verdict(line.trim_end(), expect)
                                .and_then(|(id, reply)| Some((id.checked_sub(base)?, reply)));
                            if answer.is_some() {
                                return answer;
                            }
                        }
                    }
                }
            },
        )
    }

    /// Starts a daemon and plans once for every hot tenant, one at a
    /// time, so each has a warm session before timing starts.
    fn start_warm(tenants: &[Tenant], obs: Obs) -> Result<Daemon, String> {
        let mut daemon = Daemon::start(obs)?;
        for tenant in 0..tenants.len() {
            let shot = [Shot {
                class: WARM,
                tenant,
            }];
            let pass = daemon.pass(tenants, &shot, 1e6);
            if pass.failed() + pass.busy() > 0 {
                return Err(format!("pool fill failed for tenant t{tenant}"));
            }
        }
        Ok(daemon)
    }

    /// Closes the connection, waits for the daemon to answer what is in
    /// flight and for every thread it started to end.
    fn stop(self) -> Result<(), String> {
        let Daemon {
            server,
            acceptor,
            path,
            writer,
            mut reader,
            ..
        } = self;
        let _ = writer.shutdown(std::net::Shutdown::Write);
        let mut sink = Vec::new();
        while reader.read_until(b'\n', &mut sink).is_ok_and(|n| n > 0) {
            sink.clear();
        }
        acceptor.join().map_err(|_| "connection thread panicked")?;
        // The last handle: dropping it joins the worker pool.
        drop(Arc::into_inner(server).ok_or("daemon still referenced after its connection ended")?);
        let _ = std::fs::remove_file(&path);
        Ok(())
    }
}

/// Percentile `p` of `values`, or -1 when fewer than ten samples lie
/// beyond it.
fn tail(values: &[f64], p: f64) -> f64 {
    percentile(values, p).unwrap_or(-1.0)
}

fn ms_cpu() -> f64 {
    crate::probe::cpu_ms().unwrap_or(0.0)
}

/// Counts the pass into the run: every request is one attempt; busy,
/// wrong and missing answers are failures. Returns whether the pass is a
/// measurement of the daemon: a pass whose generator fell behind is not,
/// and its latencies are left out (`rejected_passes` counts them).
fn account(run: &mut Run, pass: &Pass, what: &str) -> bool {
    run.attempted += pass.shots.len() as u64;
    let bad = pass.failed() + pass.busy();
    run.failed += bad as u64;
    if bad > 0 {
        run.errors.push(format!(
            "{what}: {} busy, {} failed of {}",
            pass.busy(),
            pass.failed(),
            pass.shots.len()
        ));
    }
    if let Some(p90) = percentile(&pass.lateness_ms(), 0.9) {
        run.sample("pass_late_p90_ms", p90);
    }
    let valid = !pass.generator_behind();
    if !valid {
        let rejected = run.notes.entry("rejected_passes".into()).or_default();
        *rejected = (rejected.parse::<u32>().unwrap_or(0) + 1).to_string();
    }
    valid
}

pub fn run(args: &Args) -> Result<Run, String> {
    let mut run = Run::default();
    let mut rng = StdRng::seed_from_u64(args.seed);
    run.notes
        .insert("fixed_rate_rps".into(), FIXED_RATE.to_string());
    run.notes
        .insert("hot_tenants".into(), HOT_TENANTS.to_string());
    if args.trace {
        traced(args, &mut run, &mut rng)?;
        return Ok(run);
    }
    // Set-up, SETUP_REPS times over: generate the tenants, start the
    // daemon, warm every hot tenant's session.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let tenants = tenants();
        let daemon = Daemon::start_warm(&tenants, Obs::disabled())?;
        setups.push(t.elapsed().as_secs_f64());
        daemon.stop()?;
    }
    run.values
        .insert("setup_s", median(&setups).expect("set-up ran"));

    // The window is split over PASSES daemons, each started afresh: where
    // the scheduler happens to place a daemon's threads moves its whole
    // latency distribution, so one daemon per run would make that
    // placement the run's result.
    let tenants = tenants();
    let mut cpu = 0.0;
    let mut requests = 0;
    for _ in 0..PASSES {
        let mut daemon = Daemon::start_warm(&tenants, Obs::disabled())?;
        let shots = traffic(
            &mut rng,
            (FIXED_RATE * args.seconds / PASSES as f64) as usize,
        );
        let cpu0 = ms_cpu();
        let pass = daemon.pass(&tenants, &shots, FIXED_RATE);
        cpu += ms_cpu() - cpu0;
        requests += pass.shots.len();
        daemon.stop()?;
        let valid = account(&mut run, &pass, "fixed rate");
        if let Some(m) = median(&pass.latencies_ms(None)) {
            run.sample(
                if valid {
                    "pass_p50_ms"
                } else {
                    "rejected_pass_p50_ms"
                },
                m,
            );
        }
    }
    let p50 = |name: &str| run.samples.get(name).and_then(|v| median(v));
    let op_p50 = match p50("pass_p50_ms") {
        Some(m) => m,
        None => {
            run.errors
                .push("the generator fell behind in every pass".into());
            p50("rejected_pass_p50_ms").unwrap_or(f64::NAN)
        }
    };
    run.values.insert("op_p50_ms", op_p50);
    run.values
        .insert("cpu_ms_per_op", cpu / requests.max(1) as f64);
    Ok(run)
}

/// The traced run: latency per class and the capacity ladder against an
/// untraced daemon, then the same fixed-rate traffic against a daemon
/// with observability on, for its counters and the tracing overhead.
fn traced(args: &Args, run: &mut Run, rng: &mut StdRng) -> Result<(), String> {
    let tenants = tenants();
    let mut plain = Daemon::start_warm(&tenants, Obs::disabled())?;
    let shots = traffic(rng, (FIXED_RATE * args.seconds * 0.45) as usize);
    let pass = plain.pass(&tenants, &shots, FIXED_RATE);
    account(run, &pass, "fixed rate");
    let all = pass.latencies_ms(None);
    let plain_p50 = median(&all).unwrap_or(0.0);
    run.values.insert("serve_p50_ms", plain_p50);
    run.values.insert("serve_p99_ms", tail(&all, 0.99));
    for (class, (p50, p99)) in CLASS_METRICS.into_iter().enumerate() {
        let lat = pass.latencies_ms(Some(class));
        run.values.insert(p50, median(&lat).unwrap_or(-1.0));
        run.values.insert(p99, tail(&lat, 0.99));
    }
    run.values
        .insert("serve.gen_late_ms", tail(&pass.lateness_ms(), 0.99));

    // Capacity: climb the ladder until a rung is not sustained.
    let mut busy = 0;
    let rungs = openloop::ladder(LADDER_LOW, LADDER_FACTOR, LADDER_RUNGS);
    let max_rps = openloop::climb(&rungs, |rate| {
        let n = RUNG_REQUESTS.max((rate * 0.25) as usize);
        let shots = traffic(rng, n);
        let pass = plain.pass(&tenants, &shots, rate);
        busy += pass.busy();
        run.sample("ladder_rung_rps", rate);
        pass.sustains(openloop::LATENCY_LIMIT_MS)
    });
    plain.stop()?;
    run.values.insert("serve_max_rps", max_rps.unwrap_or(0.0));
    run.values.insert("serve.busy", busy as f64);

    // The daemon reports its `serve.*` counters into `obs`; it does not
    // hand `obs` to the configuration engine, so there are no config or
    // sat spans to break a request down by.
    let obs = Obs::new();
    let mut traced = Daemon::start_warm(&tenants, obs.clone())?;
    let before = obs.metrics();
    let shots = traffic(rng, (FIXED_RATE * args.seconds * 0.3) as usize);
    let pass = traced.pass(&tenants, &shots, FIXED_RATE);
    let after = obs.metrics();
    traced.stop()?;
    account(run, &pass, "traced fixed rate");
    if let Some(p50) = median(&pass.latencies_ms(None)) {
        run.values
            .insert("obs.overhead_frac", p50 / plain_p50 - 1.0);
    }
    let hits = counter_delta(&before, &after, "serve.session_hits") as f64;
    let misses = counter_delta(&before, &after, "serve.session_misses") as f64;
    run.values
        .insert("serve.session_hit_ratio", hits / (hits + misses).max(1.0));
    run.values.insert(
        "serve.session_evictions",
        counter_delta(&before, &after, "serve.session_evictions") as f64,
    );
    run.values.insert(
        "serve.queue_depth.max",
        gauge(&after, "serve.queue_depth.max") as f64,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_oracle() {
        let expect = |id: usize| (id == 7).then_some((3, false));
        let ok = r#"{"id":7,"ok":true,"op":"plan","spec":[],"spec_len":3,"session_hit":true}"#;
        assert_eq!(verdict(ok, expect), Some((7, Reply::Ok)));
        let short = r#"{"id":7,"ok":true,"op":"plan","spec":[],"spec_len":2}"#;
        assert_eq!(verdict(short, expect), Some((7, Reply::Wrong)));
        let busy = r#"{"id":7,"ok":false,"error":{"kind":"busy","message":"queue full"}}"#;
        assert_eq!(verdict(busy, expect), Some((7, Reply::Busy)));
        let deploy = |_| Some((3, true));
        let undeployed = r#"{"id":1,"ok":true,"op":"deploy","spec_len":3,"deployed":false}"#;
        assert_eq!(verdict(undeployed, deploy), Some((1, Reply::Wrong)));
    }

    #[test]
    fn the_mix_is_seeded_and_close_to_its_shares() {
        let a = traffic(&mut StdRng::seed_from_u64(3), 20_000);
        let b = traffic(&mut StdRng::seed_from_u64(3), 20_000);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.class == y.class && x.tenant == y.tenant));
        let mut counts = [0usize; 4];
        for s in &a {
            counts[s.class] += 1;
        }
        let share = |c: usize| counts[c] as f64 / a.len() as f64;
        assert!((share(WARM) - 0.80).abs() < 0.02, "{counts:?}");
        assert!((share(COLD) - 0.05).abs() < 0.01, "{counts:?}");
    }

    #[test]
    fn a_small_pass_against_the_daemon_is_all_correct() {
        let tenants = tenants();
        let mut daemon = Daemon::start_warm(&tenants, Obs::disabled()).unwrap();
        let shots = traffic(&mut StdRng::seed_from_u64(1), 60);
        let pass = daemon.pass(&tenants, &shots, 300.0);
        daemon.stop().unwrap();
        assert_eq!(pass.failed() + pass.busy(), 0);
        assert_eq!(pass.latencies_ms(None).len(), 60);
    }
}
