//! The CrypText benchmark: one command that runs a named workload against
//! the real stack, checks its outputs, and prints its metrics.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload http_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced;
//! `--trace 1` is the separate single-client traced run that splits time
//! by layer. The last line of standard output is the result object; the
//! lines before it (prefixed `#`) stamp the host and configuration and
//! report what the run observed. See `README.md` for the workloads, the
//! metrics and the predictions.

mod client;
mod ingest;
mod inputs;
mod registry;
mod serving;
mod system;
mod trace;
mod util;

use util::Metrics;

/// Environment variables that silently change what is measured.
const REFUSED_ENV: [&str; 3] = [
    "CRYPTEXT_FAILPOINTS",
    "CRYPTEXT_SHARDS",
    "CRYPTEXT_CACHE_TIER2",
];

pub const WORKLOADS: [&str; 3] = ["http_hot", "inproc_cold", "ingest_durable"];

/// What a run hands back to `main`.
pub struct RunOutput {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable observations, printed before the result line.
    pub notes: Vec<String>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The host and configuration every result is stamped with.
fn stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("CRYPTEXT_THREADS").unwrap_or_else(|_| "unset".into());
    let (clients, shards) = if args.workload == "ingest_durable" {
        (1, ingest::options().shards)
    } else {
        (inputs::CLIENTS, 1)
    };
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"profile\": \"{}\", \"git_commit\": \"{}\", \
         \"source_fingerprint\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"clients\": {}, \"shards\": {shards}, \
         \"flush_policy\": \"sync_every_batch={}\", \"cryptext_threads\": \"{threads}\", \
         \"db_feed\": \"{} posts, seed {}\"}}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_GIT_COMMIT"),
        env!("PERFBENCH_SOURCE_FINGERPRINT"),
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        if args.trace { 1 } else { clients },
        ingest::options().sync_every_batch,
        inputs::DB_POSTS,
        inputs::DB_FEED_SEED,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it changes what is measured");
        std::process::exit(2);
    }

    println!("# stamp: {}", stamp(&args));
    let out = if args.trace {
        trace::run(&args.workload, args.seed)
    } else {
        match args.workload.as_str() {
            "http_hot" => serving::http_hot(args.seed, args.seconds),
            "inproc_cold" => serving::inproc_cold(args.seed, args.seconds),
            _ => ingest::ingest_durable(args.seed, args.seconds),
        }
    };
    for note in &out.notes {
        println!("# {note}");
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        out.metrics.result_json(correct, out.attempted, out.failed)
    );
    if !correct {
        eprintln!(
            "perfbench: {} of {} operations failed or were wrong",
            out.failed, out.attempted
        );
        std::process::exit(1);
    }
}
