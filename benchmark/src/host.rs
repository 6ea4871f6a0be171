//! Host fingerprint, memory high-water mark, CPU time and the share
//! of time the hypervisor took from this machine's CPUs.

use std::fs;
use std::process::Command;

use crate::report::json_str;

/// Peak resident set size of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// CPU time of this process's live threads whose name starts with
/// `prefix`, ns, as the scheduler accounts it (on a virtual machine,
/// time the hypervisor took from the CPU is not in it).
pub fn threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|name| name.trim_end().starts_with(prefix))
        })
        .filter_map(|t| {
            let stat = fs::read_to_string(t.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// CPU time of the whole process so far, threads that have ended
/// included, ns (clock-tick resolution).
pub fn process_cpu_ns() -> u64 {
    const NS_PER_TICK: u64 = 10_000_000; // USER_HZ is 100 on Linux
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks * NS_PER_TICK
}

/// `(steal, total)` clock ticks of all CPUs since boot, from
/// `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// `nproc`, kernel, CPU model, rustc and commit as a JSON object.
pub fn fingerprint_json() -> String {
    let nproc = crate::config::nproc();
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_default();
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    format!(
        "{{\"nproc\":{nproc},\"kernel\":{},\"cpu\":{},\"rustc\":{},\"commit\":{}}}",
        json_str(kernel.trim()),
        json_str(&cpu),
        json_str(&rustc),
        json_str(&commit()),
    )
}

/// The checkout's commit, read from `.git` without running git; a
/// checkout exported without history reports `unknown`.
fn commit() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}
