//! Stamps the build into the benchmark binary: compiler version, build
//! profile, git commit (when the source tree is a git checkout) and a
//! content fingerprint of the workspace sources, so every result names
//! exactly which code produced it.

use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets it"));
    let root = manifest
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf();

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version =
        command_line(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    // Only the repository's own `.git` counts: outside a git checkout a
    // parent directory's repository would name the wrong commit.
    let head = root.join(".git").join("HEAD");
    let git_commit = head
        .exists()
        .then(|| {
            command_line(
                Command::new("git")
                    .arg("-C")
                    .arg(&root)
                    .args(["rev-parse", "HEAD"]),
            )
        })
        .flatten()
        .unwrap_or_else(|| "none".into());
    let profile = format!(
        "{} (opt-level {})",
        std::env::var("PROFILE").unwrap_or_default(),
        std::env::var("OPT_LEVEL").unwrap_or_default()
    );

    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.write(
                f.strip_prefix(&root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.write(&bytes);
        }
    }

    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc_version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_COMMIT={git_commit}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!(
        "cargo:rustc-env=PERFBENCH_SOURCE_FINGERPRINT={:016x}",
        h.finish()
    );
    for dir in ["crates", "src", "Cargo.toml"] {
        println!("cargo:rerun-if-changed={}", root.join(dir).display());
    }
    if head.exists() {
        println!("cargo:rerun-if-changed={}", head.display());
    }
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let line = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!line.is_empty()).then_some(line)
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
