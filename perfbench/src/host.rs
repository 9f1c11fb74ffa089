//! Host provenance and process resource usage.

use std::process::Command;
use std::time::Duration;

/// `struct rusage` from `<sys/resource.h>` (Linux, 64-bit).
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_s: i64,
    utime_us: i64,
    stime_s: i64,
    stime_us: i64,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> RUsage {
    let mut u = RUsage::default();
    // SAFETY: `u` is a properly sized, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage failed");
    u
}

/// User plus system CPU time of the whole process (all threads).
pub fn process_cpu() -> Duration {
    let u = rusage();
    let us = (u.utime_s + u.stime_s) * 1_000_000 + u.utime_us + u.stime_us;
    Duration::from_micros(us as u64)
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss_kb as f64 / 1024.0
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The checkout's git revision, when it is a git repository (only its
/// own `.git` is consulted, never a parent directory's).
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none (not a git checkout)".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// One JSON object naming the host, toolchain, code and thread count a
/// result was measured with.
pub fn provenance(threads: usize) -> String {
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}, \"git\": {}, \
         \"source_digest\": {}, \"threads\": {}}}",
        nproc(),
        json_str(&cpu_model()),
        json_str(&kernel()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_revision()),
        json_str(env!("PERFBENCH_SOURCE_DIGEST")),
        threads
    )
}
