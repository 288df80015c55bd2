//! Host CPU steal. On a shared virtual machine the hypervisor sometimes
//! runs other guests on this guest's CPUs; the time shows as `steal` in
//! `/proc/stat`. The run's share of stolen CPU time is stamped on its
//! output so that a reader can reject a run taken on a noisy host; no
//! measurement is set aside for it.

use std::sync::OnceLock;
use std::time::Instant;

/// Kernel clock ticks per second (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// Cumulative steal ticks of all CPUs, if the host reports them.
fn read_steal() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    // "cpu user nice system idle iowait irq softirq steal ..."
    line.split_whitespace().nth(8)?.parse().ok()
}

fn first() -> &'static (Instant, Option<u64>) {
    static FIRST: OnceLock<(Instant, Option<u64>)> = OnceLock::new();
    FIRST.get_or_init(|| (Instant::now(), read_steal()))
}

/// Start counting; `share` reports from here.
pub fn start() {
    first();
}

/// Share of the CPU time stolen since `start` (0 when unknown).
pub fn share() -> f64 {
    let (at, ticks) = *first();
    let secs = at.elapsed().as_secs_f64();
    match (ticks, read_steal()) {
        (Some(a), Some(b)) if secs > 0.0 => {
            b.saturating_sub(a) as f64 / (secs * TICKS_PER_S * crate::stamp::nproc() as f64)
        }
        _ => 0.0,
    }
}
