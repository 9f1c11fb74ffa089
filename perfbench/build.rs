//! Build-time provenance: the compiler version and a digest of the
//! library sources the benchmark links, so every result names the exact
//! code it measured even when the checkout is not a git repository.

use std::path::{Path, PathBuf};
use std::process::Command;

const SOURCES: [&str; 4] = ["../crates", "../vendor", "../Cargo.toml", "../Cargo.lock"];

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
            .unwrap_or_default();
        entries.sort();
        for e in entries {
            collect(&e, out);
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    // FNV-1a over (relative path, contents) of every library source file.
    let mut files = Vec::new();
    for s in SOURCES {
        println!("cargo:rerun-if-changed={s}");
        collect(Path::new(s), &mut files);
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={h:016x}");
}
