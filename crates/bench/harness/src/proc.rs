//! What the process and the machine say about a run: peak memory, CPU
//! time against wall time, and the stamp every result file carries.

use std::process::Command;

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process has used (`/proc/self/stat`,
/// fields 14 and 15, in clock ticks of 1/100 s on Linux).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `rest` starts at field 3, so fields 14 and 15 sit at 11 and 12.
    (tick(11) + tick(12)) / 100.0
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine stamp: `(key, value)` pairs, values already JSON-safe.
pub fn machine_stamp() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |p| p.get())
                .to_string(),
        ),
        ("cpu_model", cpu),
        ("rustc", command_line("rustc", &["-V"])),
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
    ]
}
