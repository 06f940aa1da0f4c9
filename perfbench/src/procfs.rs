//! Process accounting from `/proc`: CPU time and resident memory of the
//! benchmark itself or of a child process, and the host's steal time.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (USER_HZ,
/// fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// User + system CPU seconds consumed so far by every thread of the
/// process (`None` = this process).
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    stat_cpu_seconds(&proc_path(pid, "stat"))
}

/// User + system CPU seconds consumed so far by this process's live
/// threads named `name`.
pub fn threads_cpu_seconds(name: &str) -> Result<f64, String> {
    let tasks = fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    let mut total = 0.0;
    for task in tasks {
        let dir = task.map_err(|e| format!("/proc/self/task: {e}"))?.path();
        // A thread that exits meanwhile has no files left: skip it.
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else { continue };
        if comm.trim_end() == name {
            total += stat_cpu_seconds(&dir.join("stat").to_string_lossy())?;
        }
    }
    Ok(total)
}

/// utime + stime of a `/proc/.../stat` file, in seconds.
fn stat_cpu_seconds(path: &str) -> Result<f64, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = text.rsplit_once(')').map(|(_, r)| r).ok_or_else(|| format!("{path}: malformed"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: field {i} missing"))
    };
    Ok((tick(14)? + tick(15)?) / USER_HZ)
}

/// A `/proc/<pid>/status` memory line (`VmRSS`, `VmHWM`) in MiB.
pub fn status_mib(pid: Option<u32>, key: &str) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no {key} line"))
}

/// Jiffies of all CPUs from the `cpu` line of `/proc/stat`: (total,
/// steal). Steal is time a vCPU was ready to run but the host ran
/// something else.
pub fn host_jiffies() -> Result<(f64, f64), String> {
    let text = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let fields: Vec<f64> = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("/proc/stat: no cpu line")?
        .split_whitespace()
        .map(|f| f.parse::<f64>().map_err(|e| format!("/proc/stat: {e}")))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    let counted = &fields[..fields.len().min(8)];
    Ok((counted.iter().sum(), fields.get(7).copied().unwrap_or(0.0)))
}
