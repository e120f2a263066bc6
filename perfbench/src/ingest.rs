//! `ingest_durable`: a seeded feed streams in small batches into a fresh
//! `DurableTokenStore`, compacting every fixed number of batches and
//! ending on an uncompacted tail; the store is then reopened, which
//! recovers it from the last snapshot plus the logged tail.
//!
//! The flush policy is the shipped default, `sync_every_batch: false`:
//! a batch survives process death but not power loss. It is never varied.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cryptext_common::MetricsRegistry;
use cryptext_core::durable::{DurableOptions, DurableTokenStore};
use cryptext_core::{TokenDatabase, TokenStore};
use cryptext_docstore::Database;

use crate::inputs::Feed;
use crate::serving::query_seed;
use crate::util::{dir_bytes, median, peak_rss_mb, percentile, Metrics};
use crate::RunOutput;

/// Posts in the ingest feed.
pub const INGEST_POSTS: usize = 16_000;
/// Posts per `try_ingest_texts` call.
const BATCH: usize = 8;
/// Batches between compactions; the feed's last
/// `(INGEST_POSTS / BATCH) % COMPACT_EVERY` batches stay uncompacted.
const COMPACT_EVERY: usize = 256;
/// Reopens per cycle; `op3_p50_us` is their median.
const REOPENS: usize = 3;
/// Dedicated set-ups per run, besides each cycle's own; `setup_s` is the
/// median of all of them.
const SETUPS: usize = 15;

pub type Durable = DurableTokenStore<TokenDatabase>;

/// The shipped flush policy.
pub fn options() -> DurableOptions {
    DurableOptions::default()
}

/// Where the run keeps its stores: a fresh directory under the working
/// directory, removed when the run ends.
pub fn work_dir(tag: &str) -> PathBuf {
    Path::new(".perfbench_work").join(format!("{tag}-{}", std::process::id()))
}

/// One timed set-up: open a fresh store in `dir` and seed the lexicon.
fn timed_open(dir: &Path) -> cryptext_common::Result<(Durable, f64)> {
    let start = Instant::now();
    let mut store = Durable::open(dir, options())?;
    store.try_seed_lexicon()?;
    Ok((store, start.elapsed().as_secs_f64()))
}

/// Everything one ingest cycle observed.
#[derive(Default)]
pub struct CycleLog {
    pub setup_s: f64,
    pub batch_us: Vec<f64>,
    pub compact_us: Vec<f64>,
    pub recover_us: Vec<f64>,
    pub posts_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Batches logged after the last compaction (replayed on reopen).
    pub tail_batches: usize,
    /// Bytes on disk when ingest ended, per byte of ingested text.
    pub disk_bytes_per_input_byte: f64,
    /// Traced cycles only: a full persist of the final store into an
    /// in-memory docstore.
    pub persist_us: f64,
}

/// Stream `texts` through a fresh store in `dir`, then reopen it
/// [`REOPENS`] times, checking each recovery against the live stats.
/// With `registry`, the store's instruments register there and the cycle
/// adds the traced-only steps.
pub fn cycle(
    texts: &[String],
    dir: &Path,
    registry: Option<&MetricsRegistry>,
) -> cryptext_common::Result<CycleLog> {
    let _ = std::fs::remove_dir_all(dir);
    let (mut store, setup_s) = timed_open(dir)?;
    if let Some(r) = registry {
        store.register_metrics(r);
    }
    let mut log = CycleLog {
        setup_s,
        ..CycleLog::default()
    };
    let batches: Vec<&[String]> = texts.chunks(BATCH).collect();
    let wall = Instant::now();
    for (i, batch) in batches.iter().enumerate() {
        let start = Instant::now();
        let res = store.try_ingest_texts(batch);
        log.batch_us.push(start.elapsed().as_secs_f64() * 1e6);
        log.attempted += 1;
        log.failed += u64::from(res.is_err());
        if (i + 1) % COMPACT_EVERY == 0 && i + 1 < batches.len() {
            let start = Instant::now();
            let res = store.compact();
            log.compact_us.push(start.elapsed().as_secs_f64() * 1e6);
            log.attempted += 1;
            log.failed += u64::from(res.is_err());
        }
    }
    log.posts_per_s = texts.len() as f64 / wall.elapsed().as_secs_f64();
    log.tail_batches = batches.len() % COMPACT_EVERY;
    let input_bytes: usize = texts.iter().map(String::len).sum();
    log.disk_bytes_per_input_byte = dir_bytes(dir) as f64 / input_bytes as f64;
    let stats = store.inner().stats();
    if registry.is_some() {
        // The drain flush, timed by the store's own fsync histogram.
        store.sync()?;
        let mem = Database::in_memory();
        let start = Instant::now();
        store.inner().persist_to(&mem, "tokens")?;
        log.persist_us = start.elapsed().as_secs_f64() * 1e6;
    }
    drop(store);

    for _ in 0..REOPENS {
        let start = Instant::now();
        let reopened = Durable::open(dir, options());
        log.recover_us.push(start.elapsed().as_secs_f64() * 1e6);
        log.attempted += 1;
        if reopened.map(|r| r.inner().stats()).ok() != Some(stats) {
            log.failed += 1;
        }
    }
    Ok(log)
}

pub fn ingest_durable(seed: u64, seconds: f64) -> RunOutput {
    let feed = Feed::simulate(INGEST_POSTS, query_seed(seed));
    let work = work_dir("ingest");
    let mut setup_s = Vec::new();
    for i in 0..SETUPS {
        let dir = work.join(format!("setup-{i}"));
        let (store, secs) = timed_open(&dir).expect("open a fresh durable store");
        setup_s.push(secs);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let start = Instant::now();
    let mut logs = Vec::new();
    while logs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let dir = work.join(format!("cycle-{}", logs.len()));
        let log = cycle(&feed.texts, &dir, None).expect("ingest cycle");
        let _ = std::fs::remove_dir_all(&dir);
        logs.push(log);
    }
    let rss = peak_rss_mb();
    let _ = std::fs::remove_dir_all(&work);

    // Latency percentiles are taken per cycle and the median cycle's is
    // reported, so interference during one cycle does not move the result.
    let per_cycle =
        |f: &dyn Fn(&CycleLog) -> f64| -> f64 { median(&logs.iter().map(f).collect::<Vec<f64>>()) };
    let all_ops = |l: &CycleLog| -> Vec<f64> {
        [&l.batch_us, &l.compact_us, &l.recover_us]
            .into_iter()
            .flatten()
            .copied()
            .collect()
    };
    let compactions: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.compact_us.iter().copied())
        .collect();
    let recoveries: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.recover_us.iter().copied())
        .collect();
    let batches: usize = logs.iter().map(|l| l.batch_us.len()).sum();
    setup_s.extend(logs.iter().map(|l| l.setup_s));
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put(
        "ok_frac",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "fraction",
    );
    m.put("peak_rss_mb", rss, "MB");
    m.put(
        "op1_p50_us",
        per_cycle(&|l| percentile(&l.batch_us, 0.50)),
        "us",
    );
    m.put("op2_p50_us", median(&compactions), "us");
    m.put("op3_p50_us", median(&recoveries), "us");
    RunOutput {
        metrics: m,
        attempted,
        failed,
        notes: vec![
            format!(
                "not gated (median cycle): {:.0} posts/s, compactions included; batch p99 \
                 {:.1} us, all operations p99 {:.1} us",
                per_cycle(&|l| l.posts_per_s),
                per_cycle(&|l| percentile(&l.batch_us, 0.99)),
                per_cycle(&|l| percentile(&all_ops(l), 0.99)),
            ),
            format!(
                "ingest: {} cycles of {} posts in batches of {BATCH}, compaction every \
             {COMPACT_EVERY} batches ({} per cycle, {} tail batches), {REOPENS} reopens per cycle; \
             {} batches, {} compactions, {} recoveries timed; flush policy sync_every_batch={}",
                logs.len(),
                feed.texts.len(),
                compactions.len() / logs.len(),
                logs[0].tail_batches,
                batches,
                compactions.len(),
                recoveries.len(),
                options().sync_every_batch,
            ),
        ],
    }
}
