//! The environment a run is measured in: commit, host and the program's
//! environment knobs.

use std::fmt::Write as _;

use crate::report::quote;

/// Environment variables that change what the program does by default.
fn is_knob(name: &str) -> bool {
    name.starts_with("DLN_") || name.starts_with("RAYON_")
}

/// Refuse fault injection, then record and clear every `DLN_*` /
/// `RAYON_*` variable so no library default reads them. Must run before
/// any thread starts. Returns the variables seen.
pub fn pin_environment() -> Result<Vec<(String, String)>, String> {
    let mut seen: Vec<(String, String)> = std::env::vars().filter(|(k, _)| is_knob(k)).collect();
    seen.sort();
    if seen.iter().any(|(k, _)| k == "DLN_FAILPOINTS") {
        return Err(
            "DLN_FAILPOINTS is set: the benchmark measures the program without fault injection"
                .to_string(),
        );
    }
    for (k, _) in &seen {
        std::env::remove_var(k);
    }
    Ok(seen)
}

/// The commit of the checkout, read from `.git` in the working directory
/// (none when the checkout is not a git repository).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(format!(".git/{r}")) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|s| s.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The stamp as a JSON object.
pub fn json(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    env: &[(String, String)],
) -> String {
    let mut vars = String::from("{");
    for (i, (k, v)) in env.iter().enumerate() {
        if i > 0 {
            vars.push_str(", ");
        }
        let _ = write!(vars, "{}: {}", quote(k), quote(v));
    }
    vars.push('}');
    format!(
        "{{\"git_commit\": {}, \"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"workload\": {}, \
         \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"flush_policy\": {}, \
         \"host_steal_pct\": {}, \"env_seen_and_cleared\": {vars}}}",
        quote(&git_commit()),
        nproc(),
        quote(&cpu_model()),
        quote(env!("PERFBENCH_RUSTC")),
        quote(workload),
        quote("change events are acknowledged after fsync on the benchmark's own filesystem, so durable-write latency is that filesystem's"),
        crate::report::num(100.0 * crate::steal::share()),
    )
}
