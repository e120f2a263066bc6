//! The two serving workloads, each a closed loop of two clients that wait
//! for every answer: `http_hot` over keep-alive loopback connections,
//! `inproc_cold` from plain threads calling `Gateway::handle`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cryptext_core::lookup::look_up_naive;
use cryptext_core::{Normalizer, Perturber};
use cryptext_gateway::RouteOutput;

use crate::client::Client;
use crate::inputs::{ColdPools, Feed, HotPools, Mix, Op, OpStream, Route, Traffic, CLIENTS};
use crate::inputs::{DB_FEED_SEED, DB_POSTS, QUERY_POSTS};
use crate::registry::Delta;
use crate::system::{self, lookup_params, normalize_params, perturb_params, Server, System};
use crate::util::{median, peak_rss_mb, percentile, Metrics};
use crate::RunOutput;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Untimed lead-in before the measured window: connections open, pool
/// workers start, the hot set's caches fill.
const WARMUP: Duration = Duration::from_millis(500);
/// The measured window is split into this many equal slices; each metric
/// is the median slice's.
const SLICES: usize = 20;
/// `http_hot`: client 0 bumps the data generation every this many of its
/// own requests, standing in for an ingest landing.
pub const BUMP_EVERY: u64 = 10_000;
/// `inproc_cold`: every this-many-th response is kept for the oracle check.
const SAMPLE_EVERY: u64 = 50;
/// Requests per client replayed to measure traffic properties.
const TRAFFIC_PREFIX: usize = 50_000;

/// The query feed's seed for a workload seed (never the database's).
pub fn query_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x005e_ed0f_9e7e
}

/// What one client observed: latencies by slice of the measured window
/// and by route.
#[derive(Default)]
struct ClientLog {
    latency_us: Vec<[Vec<f64>; 3]>,
    issued: u64,
    failed: u64,
    /// The first few failures, described for the run's notes.
    failures: Vec<String>,
}

impl ClientLog {
    fn new() -> ClientLog {
        ClientLog {
            latency_us: (0..SLICES).map(|_| Default::default()).collect(),
            ..ClientLog::default()
        }
    }

    fn fail(&mut self, op: &Op, describe: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(format!(
                "{} {:?} (request {}): {}",
                op.route.name(),
                op.input,
                self.issued,
                describe()
            ));
        }
    }
}

/// The shared clock of a closed-loop run.
#[derive(Clone, Copy)]
struct Window {
    warm_end: Instant,
    end: Instant,
    slice: Duration,
}

impl Window {
    fn new(seconds: f64) -> Window {
        let warm_end = Instant::now() + WARMUP;
        let len = Duration::from_secs_f64(seconds);
        Window {
            warm_end,
            end: warm_end + len,
            slice: len / SLICES as u32,
        }
    }

    /// Record one request that started at `start` and finished inside the
    /// measured window.
    fn record(&self, log: &mut ClientLog, route: Route, start: Instant, done: Instant) {
        if start < self.warm_end {
            return;
        }
        let slice = ((done - self.warm_end).as_secs_f64() / self.slice.as_secs_f64()) as usize;
        if slice < SLICES {
            log.latency_us[slice][route.index()].push((done - start).as_secs_f64() * 1e6);
        }
    }
}

/// `http_hot`: a Zipf hot set over two keep-alive connections.
pub fn http_hot(seed: u64, seconds: f64) -> RunOutput {
    let db_feed = Feed::simulate(DB_POSTS, DB_FEED_SEED);
    let pools = HotPools::from_feed(&Feed::simulate(QUERY_POSTS, query_seed(seed)), seed);

    // Set-up 1 doubles as the reference: the service computes every pool
    // entry's response body directly, with no gateway or wire between.
    let mut setup_s = Vec::new();
    let mut expected: [Vec<Vec<u8>>; 3] = Default::default();
    let mut measured = None;
    for i in 0..SETUPS {
        let (sys, server, secs) = system::timed_setup(&db_feed, true);
        setup_s.push(secs);
        if i == 0 {
            for route in Route::ALL {
                expected[route.index()] = pools
                    .pool(route)
                    .iter()
                    .map(|input| {
                        let op = Op {
                            route,
                            input: input.clone(),
                            pool_index: 0,
                        };
                        sys.direct(&op)
                            .expect("every hot-set input is served")
                            .to_json()
                            .into_bytes()
                    })
                    .collect();
            }
        }
        if i + 1 == SETUPS {
            measured = Some((sys, server.expect("wire set-up binds")));
        }
    }
    let (sys, server) = measured.expect("at least one set-up");
    let server = Server::start(server).expect("start serving");
    let mix = Arc::new(Mix::Hot(pools));

    let before = sys.service.metrics().snapshot();
    let window = Window::new(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (mix, expected, sys) = (Arc::clone(&mix), &expected, &sys);
                let addr = server.addr;
                s.spawn(move || {
                    let mut client = Client::connect(addr, &sys.token).expect("connect");
                    let mut stream = OpStream::new(mix, seed, c);
                    let mut log = ClientLog::new();
                    loop {
                        let op = stream.next_op();
                        let start = Instant::now();
                        if start >= window.end {
                            break;
                        }
                        let reply = client.call(&op);
                        let done = Instant::now();
                        log.issued += 1;
                        let want = &expected[op.route.index()][op.pool_index];
                        match reply {
                            Ok(r) if r.status == 200 && &r.body == want => {
                                window.record(&mut log, op.route, start, done)
                            }
                            other => log.fail(&op, || match other {
                                Ok(r) => {
                                    let at = r
                                        .body
                                        .iter()
                                        .zip(want.iter())
                                        .position(|(a, b)| a != b)
                                        .unwrap_or(r.body.len().min(want.len()));
                                    let around = |b: &[u8]| {
                                        let lo = at.saturating_sub(80);
                                        String::from_utf8_lossy(&b[lo..(at + 80).min(b.len())])
                                            .into_owned()
                                    };
                                    format!(
                                        "status {} cache {:?}, {} body bytes vs {} expected, \
                                         first difference at byte {at}: got {:?}, expected {:?}",
                                        r.status,
                                        r.cache,
                                        r.body.len(),
                                        want.len(),
                                        around(&r.body),
                                        around(want),
                                    )
                                }
                                Err(e) => format!("transport error {e}"),
                            }),
                        }
                        if c == 0 && log.issued.is_multiple_of(BUMP_EVERY) {
                            sys.gateway.bump_generation();
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let rss = peak_rss_mb();
    let delta = Delta {
        before,
        after: sys.service.metrics().snapshot(),
    };
    let report = server.stop();

    let traffic = traffic_of(&mix, seed, &logs, sys.service.system().database());
    let mut out = finish(&logs, &setup_s, rss, seconds);
    out.notes.push(format!(
        "server: {} requests served, {} connections at drain, quiesced {}",
        report.requests_served, report.connections_at_drain, report.drain.quiesced
    ));
    out.notes.push(traffic_note(&traffic, &delta));
    out
}

/// `inproc_cold`: every Look Up token and Normalization text distinct,
/// more of them than the caches hold, from two plain threads.
pub fn inproc_cold(seed: u64, seconds: f64) -> RunOutput {
    let db_feed = Feed::simulate(DB_POSTS, DB_FEED_SEED);
    let mix = Arc::new(Mix::Cold(ColdPools::from_feed(&Feed::simulate(
        QUERY_POSTS,
        query_seed(seed),
    ))));

    let mut setup_s = Vec::new();
    let mut measured = None;
    for i in 0..SETUPS {
        let (sys, _, secs) = system::timed_setup(&db_feed, false);
        setup_s.push(secs);
        if i + 1 == SETUPS {
            measured = Some(sys);
        }
    }
    let sys = measured.expect("at least one set-up");

    let before = sys.service.metrics().snapshot();
    let window = Window::new(seconds);
    let runs: Vec<(ClientLog, Vec<(Op, RouteOutput)>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (mix, sys) = (Arc::clone(&mix), &sys);
                s.spawn(move || {
                    let mut stream = OpStream::new(mix, seed, c);
                    let mut log = ClientLog::new();
                    let mut samples = Vec::new();
                    loop {
                        let op = stream.next_op();
                        let req = system::request(&op);
                        let start = Instant::now();
                        if start >= window.end {
                            break;
                        }
                        let resp = sys.gateway.handle(&sys.token, req);
                        let done = Instant::now();
                        log.issued += 1;
                        match resp {
                            Ok(resp) => {
                                window.record(&mut log, op.route, start, done);
                                if log.issued.is_multiple_of(SAMPLE_EVERY) {
                                    samples.push((op, resp.output));
                                }
                            }
                            Err(e) => log.fail(&op, || e.to_string()),
                        }
                    }
                    (log, samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let rss = peak_rss_mb();
    let delta = Delta {
        before,
        after: sys.service.metrics().snapshot(),
    };

    // Outside the timed window: the kept sample against the references.
    let mut wrong = Vec::new();
    let mut checked = 0u64;
    for (op, output) in runs.iter().flat_map(|(_, samples)| samples) {
        checked += 1;
        if oracle(&sys, op).ok().as_ref() != Some(output) {
            wrong.push(format!(
                "failed: {} {:?} differs from the reference",
                op.route.name(),
                op.input
            ));
        }
    }
    let logs: Vec<ClientLog> = runs.into_iter().map(|(log, _)| log).collect();
    let traffic = traffic_of(&mix, seed, &logs, sys.service.system().database());
    let mut out = finish(&logs, &setup_s, rss, seconds);
    out.failed += wrong.len() as u64;
    let wrong_count = wrong.len();
    out.notes.extend(wrong.into_iter().take(5));
    out.notes.push(format!(
        "oracle check: {checked} sampled responses against look_up_naive / normalize_naive / \
         the uncached perturber, {wrong_count} differ"
    ));
    out.notes.push(traffic_note(&traffic, &delta));
    out
}

/// The reference answer for one request: the kept naive engines for Look
/// Up and Normalization, the uncached engine for Perturbation.
fn oracle(sys: &System, op: &Op) -> cryptext_common::Result<RouteOutput> {
    let cx = sys.service.system();
    Ok(match op.route {
        Route::Lookup => {
            RouteOutput::Lookup(look_up_naive(cx.database(), &op.input, lookup_params())?)
        }
        Route::Normalize => {
            RouteOutput::Normalize(Normalizer::new(cx.language_model()).normalize_naive(
                cx.database(),
                &op.input,
                normalize_params(),
            )?)
        }
        Route::Perturb => RouteOutput::Perturb(
            Perturber::new(cx.database()).perturb(&op.input, perturb_params())?,
        ),
    })
}

/// Traffic properties of the requests the clients issued (each client's
/// stream regenerated up to [`TRAFFIC_PREFIX`] requests).
fn traffic_of(
    mix: &Arc<Mix>,
    seed: u64,
    logs: &[ClientLog],
    db: &cryptext_core::TokenDatabase,
) -> Traffic {
    let ops: Vec<Op> = logs
        .iter()
        .enumerate()
        .flat_map(|(c, log)| {
            OpStream::prefix(mix, seed, c, (log.issued as usize).min(TRAFFIC_PREFIX))
        })
        .collect();
    Traffic::measure(&ops, db)
}

fn traffic_note(t: &Traffic, d: &Delta) -> String {
    format!(
        "traffic: lookup repeat share {:.4}, normalize repeat share {:.4}, out-of-dictionary \
         share {:.4}; tier-1 hit ratio lookup {:.4}, normalize results {:.4}, candidate memo {:.4}",
        t.lookup_repeat_share,
        t.normalize_repeat_share,
        t.ood_share,
        d.hit_ratio("lookup"),
        d.hit_ratio("normalize_results"),
        d.hit_ratio("normalize"),
    )
}

/// The end-to-end metrics of a serving run. Each latency metric is the
/// median over the window's slices of that slice's percentile, so a burst
/// of interference in one slice does not move the result.
fn finish(logs: &[ClientLog], setup_s: &[f64], rss: f64, seconds: f64) -> RunOutput {
    let slice_samples = |s: usize, routes: &[Route]| -> Vec<f64> {
        logs.iter()
            .flat_map(|l| {
                routes
                    .iter()
                    .flat_map(move |r| l.latency_us[s][r.index()].iter())
            })
            .copied()
            .collect()
    };
    let per_slice = |routes: &[Route], q: f64| -> f64 {
        let values: Vec<f64> = (0..SLICES)
            .map(|s| percentile(&slice_samples(s, routes), q))
            .collect();
        median(&values)
    };
    let slice_s = seconds / SLICES as f64;
    let rates: Vec<f64> = (0..SLICES)
        .map(|s| slice_samples(s, &Route::ALL).len() as f64 / slice_s)
        .collect();
    let attempted: u64 = logs.iter().map(|l| l.issued).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();

    let mut m = Metrics::default();
    m.put("setup_s", median(setup_s), "s");
    m.put(
        "ok_frac",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "fraction",
    );
    m.put("peak_rss_mb", rss, "MB");
    m.put("op1_p50_us", per_slice(&[Route::Lookup], 0.50), "us");
    m.put("op2_p50_us", per_slice(&[Route::Normalize], 0.50), "us");
    m.put("op3_p50_us", per_slice(&[Route::Perturb], 0.50), "us");
    let counts: Vec<String> = Route::ALL
        .iter()
        .map(|&r| {
            let n: usize = (0..SLICES).map(|s| slice_samples(s, &[r]).len()).sum();
            format!("{} {n}", r.name())
        })
        .collect();
    let rate = median(&rates);
    let rates: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    let failures = logs
        .iter()
        .flat_map(|l| &l.failures)
        .map(|f| format!("failed: {f}"));
    RunOutput {
        metrics: m,
        attempted,
        failed,
        notes: failures
            .chain([
                format!("timed requests: {}", counts.join(", ")),
                format!("completions per second by slice: {}", rates.join(" ")),
                format!(
                "not gated (median slice): {:.0} requests/s; lookup p99 {:.1} us, normalize p99 \
                 {:.1} us, all routes p99 {:.1} us",
                rate,
                per_slice(&[Route::Lookup], 0.99),
                per_slice(&[Route::Normalize], 0.99),
                per_slice(&Route::ALL, 0.99),
            ),
            ])
            .collect(),
    }
}
