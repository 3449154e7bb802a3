//! What the benchmark reads about its own process and machine: CPU time, peak
//! resident set, and the environment stamp printed with every result.

use std::process::Command;

use serde::Value;

/// Clock ticks per second of `/proc` CPU times, read from the auxiliary vector
/// (`AT_CLKTCK`); 100 when it cannot be read.
fn clock_ticks_per_second() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let Ok(bytes) = std::fs::read("/proc/self/auxv") else {
        return 100.0;
    };
    bytes
        .chunks_exact(16)
        .find_map(|pair| {
            let key = u64::from_ne_bytes(pair[..8].try_into().ok()?);
            let value = u64::from_ne_bytes(pair[8..].try_into().ok()?);
            (key == AT_CLKTCK && value > 0).then_some(value as f64)
        })
        .unwrap_or(100.0)
}

/// User plus system CPU time of the whole process (every thread, live or
/// exited), in milliseconds.
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Some(rest) = stat.rfind(')').map(|at| &stat[at + 2..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |index: usize| {
        fields
            .get(index)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (ticks(11) + ticks(12)) / clock_ticks_per_second() * 1_000.0
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(field)?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .unwrap_or(f64::NAN)
}

/// Worker threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|name| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| {
            String::from_utf8(output.stdout)
                .ok()
                .and_then(|text| text.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine and toolchain half of the environment stamp; the workload half
/// (seed, op counts, input sizes) is added by the caller.
pub fn machine_stamp() -> Vec<(String, Value)> {
    vec![
        ("nproc".to_string(), Value::Uint(nproc() as u64)),
        ("cpu_model".to_string(), Value::Str(cpu_model())),
        (
            "git_rev".to_string(),
            // Only the checkout's own `.git`: git must not search parent
            // directories, which lie outside the checkout.
            Value::Str(command_line(
                "git",
                &["--git-dir=.git", "rev-parse", "HEAD"],
            )),
        ),
        (
            "rustc".to_string(),
            Value::Str(command_line("rustc", &["--version"])),
        ),
    ]
}
