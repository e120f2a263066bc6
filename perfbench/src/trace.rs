//! The traced run: a single client replays a fixed prefix of the
//! workload's requests at each layer entry point in turn — the socket,
//! `Gateway::handle` on a pool worker (inline execution), `Gateway::handle`
//! on a plain thread, the service, and the uncached engine — each on a
//! freshly built twin of the same system, so cache states match request
//! for request. Every call is a span (request id, layer, start, end,
//! parent), kept in memory and written out at the end. A layer's self
//! time is its span minus the next inner span of the same request.
//!
//! The same run streams a feed through a traced durable-ingest cycle and
//! reads the layers the spans cannot reach from the registries' deltas.

use std::io::Write;
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use cryptext_common::hash::fx_hash_str;
use cryptext_common::{par, MetricsRegistry};
use cryptext_core::lookup::{look_up_with, LookupScratch};
use cryptext_core::normalize::NormalizeScratch;
use cryptext_core::service::Served;
use cryptext_core::{Normalizer, Perturber};
use cryptext_gateway::RouteOutput;

use crate::client::Client;
use crate::ingest::{self, Durable};
use crate::inputs::{ColdPools, Feed, HotPools, Mix, Op, OpStream, Route, Traffic};
use crate::inputs::{DB_FEED_SEED, DB_POSTS, QUERY_POSTS};
use crate::registry::Delta;
use crate::serving::{query_seed, BUMP_EVERY};
use crate::system::{self, lookup_params, normalize_params, perturb_params, Server, System};
use crate::util::{median, percentile, ratio, Metrics};
use crate::RunOutput;

/// Requests replayed at every entry point: enough Look Ups and
/// Normalizations in the cold mix to overflow the 10k-entry caches, and
/// two generation bumps in the hot mix.
const TRACE_REQUESTS: usize = 24_000;

/// The entry points, outermost first; each span's parent is the previous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Http,
    GatewayInline,
    GatewayPlain,
    Service,
    Engine,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Http => "http",
            Layer::GatewayInline => "gateway_inline",
            Layer::GatewayPlain => "gateway_plain",
            Layer::Service => "service",
            Layer::Engine => "engine",
        }
    }

    /// The span this one runs inside, in the nesting the self times use:
    /// the wire wraps inline `handle`, which wraps the service call, which
    /// wraps the engine; `handle` from a plain thread wraps inline
    /// `handle` plus the pool hand-off.
    fn parent(self) -> &'static str {
        match self {
            Layer::Http | Layer::GatewayPlain => "-",
            Layer::GatewayInline => "http",
            Layer::Service => "gateway_inline",
            Layer::Engine => "service",
        }
    }
}

/// One replay of the prefix at one entry point.
struct Replay {
    layer: Layer,
    /// Span start and end per request, ns since the replay began.
    spans: Vec<(u64, u64)>,
    /// Cache disposition label per request (`hit`, `cold`, `bypass`);
    /// empty for the engine, which has no cache.
    disposition: Vec<&'static str>,
    /// Hash of the response body per request; 0 for a failed call.
    body: Vec<u64>,
}

impl Replay {
    fn new(layer: Layer, n: usize) -> Replay {
        Replay {
            layer,
            spans: Vec::with_capacity(n),
            disposition: Vec::with_capacity(n),
            body: Vec::with_capacity(n),
        }
    }

    fn us(&self, i: usize) -> f64 {
        let (s, e) = self.spans[i];
        (e - s) as f64 / 1e3
    }
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

fn body_hash(out: &cryptext_common::Result<RouteOutput>) -> u64 {
    out.as_ref().map_or(0, |o| fx_hash_str(&o.to_json()))
}

fn label(served: Served) -> &'static str {
    match served {
        Served::Tier1Hit => "hit",
        Served::Cold => "cold",
    }
}

fn bump_due(i: usize, bump_every: Option<u64>) -> bool {
    bump_every.is_some_and(|b| i > 0 && (i as u64).is_multiple_of(b))
}

/// Replay over loopback HTTP; returns the replay, its wall time and the
/// requests not answered 200. Untraced, it records no spans.
fn replay_http(sys: &System, ops: &[Op], bump: Option<u64>, traced: bool) -> (Replay, f64, u64) {
    let server = Server::start(Server::bind(sys).expect("bind")).expect("start serving");
    let mut client = Client::connect(server.addr, &sys.token).expect("connect");
    let mut r = Replay::new(Layer::Http, ops.len());
    let mut failed = 0;
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if bump_due(i, bump) {
            sys.gateway.bump_generation();
        }
        if traced {
            let start = since(t0);
            let reply = client.call(op);
            let end = since(t0);
            r.spans.push((start, end));
            match reply {
                Ok(rep) if rep.status == 200 => {
                    r.disposition.push(match rep.cache.as_str() {
                        "hit" => "hit",
                        "cold" => "cold",
                        _ => "bypass",
                    });
                    r.body
                        .push(fx_hash_str(&String::from_utf8_lossy(&rep.body)));
                }
                _ => {
                    r.disposition.push("error");
                    r.body.push(0);
                    failed += 1;
                }
            }
        } else if !client.call(op).is_ok_and(|rep| rep.status == 200) {
            failed += 1;
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    drop(client);
    server.stop();
    (r, wall, failed)
}

/// Replay through `Gateway::handle` on the calling thread.
fn replay_gateway(sys: &System, ops: &[Op], bump: Option<u64>, layer: Layer) -> Replay {
    let mut r = Replay::new(layer, ops.len());
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if bump_due(i, bump) {
            sys.gateway.bump_generation();
        }
        let req = system::request(op);
        let start = since(t0);
        let resp = sys.gateway.handle(&sys.token, req);
        let end = since(t0);
        r.spans.push((start, end));
        r.disposition
            .push(resp.as_ref().map_or("error", |resp| resp.cache.label()));
        r.body.push(body_hash(&resp.map(|resp| resp.output)));
    }
    r
}

/// Replay through `Gateway::handle` on a pool worker, where the gateway
/// executes inline (the path every HTTP connection handler takes).
fn replay_gateway_inline(sys: &System, ops: &Arc<Vec<Op>>, bump: Option<u64>) -> Replay {
    let (tx, rx) = mpsc::channel();
    let job = {
        let sys = System {
            service: Arc::clone(&sys.service),
            gateway: Arc::clone(&sys.gateway),
            token: sys.token.clone(),
        };
        let ops = Arc::clone(ops);
        move || {
            let r = replay_gateway(&sys, &ops, bump, Layer::GatewayInline);
            let _ = tx.send(r);
        }
    };
    if par::spawn(job).is_err() {
        panic!("the worker pool refused the inline replay");
    }
    rx.recv().expect("the inline replay finishes")
}

/// Replay against the service's prechecked (post-authorization) calls.
fn replay_service(sys: &System, ops: &[Op], bump: Option<u64>) -> Replay {
    let svc = &sys.service;
    let mut r = Replay::new(Layer::Service, ops.len());
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        if bump_due(i, bump) {
            svc.bump_generation();
        }
        let start = since(t0);
        let out = match op.route {
            Route::Lookup => svc
                .look_up_prechecked_traced(&op.input, lookup_params(), &mut || None)
                .map(|(h, s)| (RouteOutput::Lookup(h), label(s))),
            Route::Normalize => svc
                .normalize_prechecked_traced(&op.input, normalize_params())
                .map(|(n, s)| (RouteOutput::Normalize(n), label(s))),
            Route::Perturb => svc
                .perturb_prechecked(&op.input, perturb_params())
                .map(|p| (RouteOutput::Perturb(p), "bypass")),
        };
        let end = since(t0);
        r.spans.push((start, end));
        r.disposition.push(out.as_ref().map_or("error", |(_, d)| d));
        r.body.push(body_hash(&out.map(|(o, _)| o)));
    }
    r
}

/// Replay against the engines with no cache at all.
fn replay_engine(sys: &System, ops: &[Op]) -> Replay {
    let cx = sys.service.system();
    let (db, normalizer) = (cx.database(), Normalizer::new(cx.language_model()));
    let mut lookup_scratch = LookupScratch::new();
    let mut norm_scratch = NormalizeScratch::new();
    let mut r = Replay::new(Layer::Engine, ops.len());
    let t0 = Instant::now();
    for op in ops {
        let start = since(t0);
        let out = match op.route {
            Route::Lookup => look_up_with(db, &op.input, lookup_params(), &mut lookup_scratch)
                .map(RouteOutput::Lookup),
            Route::Normalize => normalizer
                .normalize_with(db, &op.input, normalize_params(), &mut norm_scratch)
                .map(RouteOutput::Normalize),
            Route::Perturb => Perturber::new(db)
                .perturb(&op.input, perturb_params())
                .map(RouteOutput::Perturb),
        };
        let end = since(t0);
        r.spans.push((start, end));
        r.body.push(body_hash(&out));
    }
    r
}

/// Everything the serving half of the traced run measured.
struct ServingTrace {
    replays: Vec<Replay>,
    delta: Delta,
    untraced_wall_s: f64,
    /// Requests the untraced replay saw fail; the traced replay's failures
    /// show in its dispositions.
    untraced_failed: u64,
    traced_wall_s: f64,
    traffic: Traffic,
}

fn trace_serving(build: &dyn Fn() -> System, ops: Vec<Op>, bump: Option<u64>) -> ServingTrace {
    let ops = Arc::new(ops);
    let (_, untraced_wall_s, untraced_failed) = replay_http(&build(), &ops, bump, false);

    let sys = build();
    let before = sys.service.metrics().snapshot();
    let (http, traced_wall_s, _) = replay_http(&sys, &ops, bump, true);
    let delta = Delta {
        before,
        after: sys.service.metrics().snapshot(),
    };
    let traffic = Traffic::measure(ops.iter(), sys.service.system().database());
    drop(sys);

    let inline = replay_gateway_inline(&build(), &ops, bump);
    let plain = replay_gateway(&build(), &ops, bump, Layer::GatewayPlain);
    let service = replay_service(&build(), &ops, bump);
    let engine = replay_engine(&build(), &ops);
    ServingTrace {
        replays: vec![http, inline, plain, service, engine],
        delta,
        untraced_wall_s,
        untraced_failed,
        traced_wall_s,
        traffic,
    }
}

/// Write every span, one per line, under the working directory.
fn write_spans(
    path: &Path,
    workload: &str,
    seed: u64,
    ops: &[Op],
    replays: &[Replay],
) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "# workload {workload}, seed {seed}; times are ns since each replay began"
    )?;
    writeln!(out, "request\troute\tlayer\tparent\tstart_ns\tend_ns")?;
    let mut n = 0;
    for r in replays {
        for (i, &(s, e)) in r.spans.iter().enumerate() {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{s}\t{e}",
                ops[i].route.name(),
                r.layer.name(),
                r.layer.parent()
            )?;
            n += 1;
        }
    }
    out.flush()?;
    Ok(n)
}

/// The workload's serving system, its request prefix and the request
/// count between generation bumps.
struct Plan {
    build: Box<dyn Fn() -> System>,
    ops: Vec<Op>,
    bump: Option<u64>,
}

pub fn run(workload: &str, seed: u64) -> RunOutput {
    let work = ingest::work_dir("trace");
    let query_feed = || Feed::simulate(QUERY_POSTS, query_seed(seed));

    // ingest_durable streams its own feed first, then serves what the
    // reopened store recovered; the serving workloads stream the feed
    // their database was built from.
    let (ingest_texts, plan) = if workload == "ingest_durable" {
        let feed = Feed::simulate(ingest::INGEST_POSTS, query_seed(seed));
        let mix = Arc::new(Mix::Hot(HotPools::from_feed(&feed, seed)));
        let dir = work.join("store");
        let build = move || {
            let store = Durable::open(&dir, ingest::options()).expect("reopen the ingested store");
            System::assemble(store.into_inner())
        };
        let ops = OpStream::prefix(&mix, seed, 0, TRACE_REQUESTS);
        (
            feed.texts,
            Plan {
                build: Box::new(build),
                ops,
                bump: Some(BUMP_EVERY),
            },
        )
    } else {
        let db_feed = Arc::new(Feed::simulate(DB_POSTS, DB_FEED_SEED));
        let (mix, bump) = if workload == "http_hot" {
            (
                Mix::Hot(HotPools::from_feed(&query_feed(), seed)),
                Some(BUMP_EVERY),
            )
        } else {
            (Mix::Cold(ColdPools::from_feed(&query_feed())), None)
        };
        let ops = OpStream::prefix(&Arc::new(mix), seed, 0, TRACE_REQUESTS);
        let feed = Arc::clone(&db_feed);
        let build = move || System::assemble(system::build_db(&feed));
        (
            db_feed.texts.clone(),
            Plan {
                build: Box::new(build),
                ops,
                bump,
            },
        )
    };

    let registry = MetricsRegistry::new();
    let cycle = ingest::cycle(&ingest_texts, &work.join("store"), Some(&registry))
        .expect("traced ingest cycle");
    let durable = Delta {
        before: Default::default(),
        after: registry.snapshot(),
    };

    let serving = trace_serving(&*plan.build, plan.ops.clone(), plan.bump);
    let _ = std::fs::remove_dir_all(&work);
    // One file per workload, replaced by each traced run.
    let span_file = Path::new(".perfbench_work")
        .join("traces")
        .join(format!("{workload}.tsv"));
    let spans = write_spans(&span_file, workload, seed, &plan.ops, &serving.replays).unwrap_or(0);

    let (metrics, failed, mut notes) = layer_metrics(&plan.ops, &serving, &cycle, &durable, spans);
    notes.push(format!("spans written to {}", span_file.display()));
    RunOutput {
        metrics,
        // Each request runs twice over HTTP: traced and untraced.
        attempted: 2 * plan.ops.len() as u64 + cycle.attempted,
        failed: failed + cycle.failed,
        notes,
    }
}

/// Compute every per-layer metric; also counts requests whose twins
/// disagree on the cache disposition or the response bytes.
fn layer_metrics(
    ops: &[Op],
    st: &ServingTrace,
    cycle: &ingest::CycleLog,
    durable: &Delta,
    spans: usize,
) -> (Metrics, u64, Vec<String>) {
    let [http, inline, plain, service, engine] = &st.replays[..] else {
        unreachable!("five entry points")
    };
    let n = ops.len();
    let (mut disagree, mut wrong, mut bad) = (0u64, 0u64, 0u64);
    for i in 0..n {
        let d = http.disposition[i];
        let split = d == "error"
            || [inline, plain, service]
                .iter()
                .any(|r| r.disposition[i] != d);
        let b = http.body[i];
        let differs = b == 0
            || [inline, plain, service, engine]
                .iter()
                .any(|r| r.body[i] != b);
        disagree += u64::from(split);
        wrong += u64::from(differs);
        bad += u64::from(split || differs);
    }

    // Per-request self times; the engine is the service's child only
    // when the service did not answer from its result cache.
    let child = |i: usize| -> f64 {
        if service.disposition[i] == "hit" {
            0.0
        } else {
            engine.us(i)
        }
    };
    let per = |f: &dyn Fn(usize) -> f64, route: Option<Route>| -> Vec<f64> {
        (0..n)
            .filter(|&i| route.is_none_or(|r| ops[i].route == r))
            .map(f)
            .collect()
    };
    let http_self = |i: usize| http.us(i) - inline.us(i);
    let dispatch = |i: usize| plain.us(i) - inline.us(i);
    let gw_self = |i: usize| inline.us(i) - service.us(i);
    let svc_self = |i: usize| service.us(i) - child(i);
    let svc_call = |i: usize| service.us(i);
    let e2e = |i: usize| http.us(i);

    let mut m = Metrics::default();
    let p = |m: &mut Metrics, name: &str, v: &[f64]| {
        m.put(format!("{name}.p50"), median(v), "us");
        m.put(format!("{name}.p99"), percentile(v, 0.99), "us");
    };
    p(&mut m, "http.self_us", &per(&http_self, None));
    let d = &st.delta;
    let req = d.histogram("cryptext_http_request_us");
    m.put("http.request_us.p50", req.p50(), "us");
    m.put("http.request_us.p99", req.p99(), "us");
    for class in ["2", "4", "5"] {
        let count: f64 = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
            .iter()
            .flat_map(|a| (0..10).map(move |b| format!("{class}{a}{b}")))
            .map(|status| d.counter_labeled("cryptext_http_responses_total", "status", &status))
            .sum();
        m.put(format!("http.responses.{class}xx"), count, "count");
    }

    p(&mut m, "gateway.dispatch_us", &per(&dispatch, None));
    p(&mut m, "gateway.self_us", &per(&gw_self, None));
    m.put(
        "gateway.queue_waits",
        d.histogram("cryptext_gateway_queue_wait_us").count as f64,
        "count",
    );
    let admitted = d.counter("cryptext_gateway_admitted_total");
    let followers = d.counter("cryptext_gateway_coalesced_followers_total");
    m.put("gateway.admitted", admitted, "count");
    m.put(
        "gateway.shed",
        d.counter("cryptext_gateway_shed_queue_full_total")
            + d.counter("cryptext_gateway_shed_draining_total"),
        "count",
    );
    m.put(
        "gateway.executions",
        d.counter("cryptext_gateway_executions_total"),
        "count",
    );
    m.put("gateway.coalesced_followers", followers, "count");
    m.put(
        "gateway.coalesce_ratio",
        ratio(followers, admitted),
        "fraction",
    );

    p(&mut m, "service.call_us", &per(&svc_call, None));
    let hits: Vec<f64> = (0..n)
        .filter(|&i| service.disposition[i] == "hit")
        .map(svc_call)
        .collect();
    m.put("cache.hit_us.p50", median(&hits), "us");
    for tier in ["lookup", "normalize_results", "normalize"] {
        m.put(
            format!("cache.{tier}.hit_ratio"),
            d.hit_ratio(tier),
            "fraction",
        );
    }
    m.put(
        "cache.negative_hits",
        d.counter("cryptext_cache_negative_hits_total"),
        "count",
    );
    m.put(
        "cache.evictions",
        d.counter("cryptext_cache_evictions_total"),
        "count",
    );
    m.put(
        "cache.invalidated_entries",
        d.counter("cryptext_cache_invalidated_entries_total"),
        "count",
    );

    let cold_engine = |route: Route| -> Vec<f64> {
        (0..n)
            .filter(|&i| ops[i].route == route && service.disposition[i] == "cold")
            .map(|i| engine.us(i))
            .collect()
    };
    p(&mut m, "lookup.engine_us", &cold_engine(Route::Lookup));
    let walk = d.histogram("cryptext_lookup_walk_us");
    m.put(
        "lookup.encode_us.p50",
        d.histogram("cryptext_lookup_encode_us").p50(),
        "us",
    );
    m.put("lookup.walk_us.p50", walk.p50(), "us");
    m.put(
        "lookup.candidates_per_query",
        ratio(
            d.counter("cryptext_lookup_filter_candidates_total"),
            walk.count as f64,
        ),
        "count",
    );
    p(
        &mut m,
        "normalize.engine_us",
        &cold_engine(Route::Normalize),
    );
    let collect = d.histogram("cryptext_normalize_collect_us");
    let rescore = d.histogram("cryptext_normalize_rescore_us");
    m.put("normalize.collect_us.p50", collect.p50(), "us");
    m.put("normalize.rescore_us.p50", rescore.p50(), "us");
    m.put(
        "normalize.scored_per_text",
        ratio(
            d.counter("cryptext_normalize_scored_total"),
            (collect.count + rescore.count) as f64,
        ),
        "count",
    );
    let walks = d.counter("cryptext_store_shard_walks_total");
    let skips = d.counter("cryptext_store_shard_skips_total");
    m.put("store.shard_walks", walks, "count");
    m.put("store.shard_skips", skips, "count");
    m.put("store.skip_ratio", ratio(skips, walks + skips), "fraction");

    m.put("durable.ingest_batch_us.p50", median(&cycle.batch_us), "us");
    m.put(
        "durable.ingest_batch_us.p99",
        percentile(&cycle.batch_us, 0.99),
        "us",
    );
    m.put(
        "durable.append_us.p50",
        durable.histogram("cryptext_durable_append_us").p50(),
        "us",
    );
    // A run holds one drain flush and a handful of compactions: too few
    // observations for a bucket quantile, so these report the exact mean.
    let mean = |name: &str| {
        let h = durable.histogram(name);
        ratio(h.sum as f64, h.count as f64)
    };
    m.put(
        "durable.fsync_us.mean",
        mean("cryptext_durable_fsync_us"),
        "us",
    );
    m.put(
        "durable.compact_us.mean",
        mean("cryptext_durable_compact_us"),
        "us",
    );
    m.put("durable.recover_ms", median(&cycle.recover_us) / 1e3, "ms");
    m.put("docstore.persist_ms", cycle.persist_us / 1e3, "ms");
    m.put(
        "durable.disk_bytes_per_input_byte",
        cycle.disk_bytes_per_input_byte,
        "ratio",
    );
    m.put(
        "durable.recover_replayed_batches",
        cycle.tail_batches as f64,
        "count",
    );

    // Residual: how much of the median end-to-end time the layers' median
    // self times leave unexplained, per route.
    for route in Route::ALL {
        let r = Some(route);
        let explained = median(&per(&http_self, r))
            + median(&per(&gw_self, r))
            + median(&per(&svc_self, r))
            + median(&per(&child, r));
        m.put(
            format!("residual_us.{}", route.name()),
            median(&per(&e2e, r)) - explained,
            "us",
        );
    }
    p(&mut m, "service.self_us", &per(&svc_self, None));

    let per_request = |wall: f64| wall * 1e6 / n as f64;
    m.put(
        "trace.overhead_us",
        per_request(st.traced_wall_s) - per_request(st.untraced_wall_s),
        "us",
    );
    m.put("trace.spans", spans as f64, "count");
    m.put(
        "traffic.lookup_repeat_share",
        st.traffic.lookup_repeat_share,
        "fraction",
    );
    m.put(
        "traffic.normalize_repeat_share",
        st.traffic.normalize_repeat_share,
        "fraction",
    );
    m.put("traffic.ood_share", st.traffic.ood_share, "fraction");

    let notes = vec![
        format!(
            "traced replay: {n} requests at each of {} entry points; {disagree} with twins \
             disagreeing on the cache disposition, {wrong} with differing response bytes",
            st.replays.len()
        ),
        format!(
            "tracing overhead: {:.3} us per request traced vs untraced over loopback HTTP",
            per_request(st.traced_wall_s) - per_request(st.untraced_wall_s)
        ),
    ];
    (m, bad + st.untraced_failed, notes)
}
