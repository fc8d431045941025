//! The environment fingerprint printed with every result, and the process's
//! peak resident set.

use std::fs;

use crate::report::quote;
use crate::Opts;

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// CPU time stolen by the hypervisor and total CPU time so far, in
/// scheduler ticks (`/proc/stat`); zeros where not reported.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(cpu) = stat.lines().find_map(|l| l.strip_prefix("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = cpu
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Share of CPU time stolen by the hypervisor between two [`cpu_ticks`]
/// readings, percent: interference from outside the machine.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// CPU model, from `/proc/cpuinfo`.
fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the last cache level CPU 0 reports.
fn llc_size() -> String {
    (0..8)
        .rev()
        .find_map(|i| {
            fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size")).ok()
        })
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn git_revision() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The fingerprint line: enough to reproduce a number. Call after the run,
/// so that reading the pool size does not start the pool early.
pub fn fingerprint_json(opts: &Opts) -> String {
    let fields = [
        ("workload", quote(opts.workload.name())),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("cpu_model", quote(&cpu_model())),
        ("nproc", crate::nproc().to_string()),
        ("llc_size", quote(&llc_size())),
        ("rustc", quote(env!("E2EBENCH_RUSTC_VERSION"))),
        ("git_revision", quote(&git_revision())),
        (
            "simd_enabled",
            mergepath::merge::simd::simd_enabled().to_string(),
        ),
        (
            "pool_threads",
            mergepath::executor::global().threads().to_string(),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), v))
        .collect();
    format!("{{\"fingerprint\": {{{}}}}}", body.join(", "))
}
