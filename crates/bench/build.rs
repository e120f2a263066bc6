//! Records the compiler version and build profile, which the
//! `exp_bench_json` binary stamps into every `BENCH_*.json` it writes.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|line| line.trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=CRYPTEXT_BENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=CRYPTEXT_BENCH_PROFILE={} (opt-level {})",
        std::env::var("PROFILE").unwrap_or_default(),
        std::env::var("OPT_LEVEL").unwrap_or_default()
    );
    println!("cargo:rerun-if-changed=build.rs");
}
