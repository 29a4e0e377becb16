//! Process-level readings from `/proc` (Linux only; readings that cannot be
//! taken come back as zero so the benchmark still runs elsewhere).

use std::fs;

/// `/proc/<pid>/stat` reports CPU time in `USER_HZ` ticks, which Linux fixes
/// at 100 for every supported architecture.
const USER_HZ: f64 = 100.0;

fn status_field_kib(pid: u32, field: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse::<f64>().ok()
}

/// Peak resident set (`VmHWM`) of one process, in MiB.
pub fn peak_rss_mib(pid: u32) -> f64 {
    status_field_kib(pid, "VmHWM:").map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set of this process plus the given (live) child processes.
pub fn peak_rss_mib_with(children: &[u32]) -> f64 {
    peak_rss_mib(std::process::id()) + children.iter().map(|&pid| peak_rss_mib(pid)).sum::<f64>()
}

/// User + system CPU seconds consumed so far by every thread of `pid`,
/// exited threads included.
fn cpu_seconds(pid: u32) -> f64 {
    let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else { return 0.0 };
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let ticks = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(14) + ticks(15)) / USER_HZ
}

/// CPU seconds summed over the given processes.
pub fn cpu_seconds_of(pids: &[u32]) -> f64 {
    pids.iter().map(|&pid| cpu_seconds(pid)).sum()
}

/// `(steal, total)` scheduler ticks of the whole machine since boot, from the
/// first line of `/proc/stat`. Steal is CPU time the hypervisor gave to
/// someone else while a virtual CPU of this machine wanted to run.
pub fn machine_ticks() -> (f64, f64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else { return (0.0, 0.0) };
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8) // user nice system idle iowait irq softirq steal
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().sum())
}

/// Voluntary context switches summed over the live threads of this process.
pub fn voluntary_ctx_switches() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0.0 };
    tasks
        .filter_map(|t| fs::read_to_string(t.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            let line = status.lines().find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .sum()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
