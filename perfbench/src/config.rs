//! Every program configuration the benchmark uses, written out field by
//! field so that no environment variable changes what is measured.

use std::path::Path;
use std::time::Duration;

use dln_net::wire::MAX_FRAME_LEN;
use dln_net::NetConfig;
use dln_org::{MaintConfig, NavConfig, SearchConfig, ShardPolicy};
use dln_serve::{ServeConfig, SwapPolicy};

/// Representative-set size of the search (§3.4: the paper's approximate
/// evaluation).
pub const REP_FRACTION: f64 = 0.1;

/// Seed of every search the benchmark configures.
pub const SEARCH_SEED: u64 = 0x0DD5_EA4C;

/// Local search with a fixed proposal budget per shard (the plateau stop
/// is disabled), so the work done depends on the lake and not on when the
/// walk happens to stall.
pub fn search(seed: u64, proposals: usize, shards: ShardPolicy) -> SearchConfig {
    SearchConfig {
        nav: NavConfig { gamma: 20.0 },
        plateau_iters: proposals,
        min_improvement: 1e-6,
        max_iters: proposals,
        rep_fraction: REP_FRACTION,
        acceptance_power: 400.0,
        batch_size: 1,
        seed,
        deadline: None,
        checkpoint: None,
        shards,
        table_weights: None,
    }
}

pub fn serve(threads: usize, max_sessions: usize) -> ServeConfig {
    ServeConfig {
        max_sessions,
        session_ttl_ms: 600_000,
        deadline_ms: None,
        max_concurrency: threads,
        queue_depth: 2 * threads,
        retry_base_ms: 10,
        swap_policy: SwapPolicy::Migrate,
        slow_penalty_ms: 1000,
    }
}

pub fn net(threads: usize) -> NetConfig {
    NetConfig {
        addr: "127.0.0.1:0".to_string(),
        max_conns: 256,
        workers: threads,
        idle_ttl_ms: 0,
        max_frame_len: MAX_FRAME_LEN,
        shed_retry_after_ms: 50,
    }
}

pub fn maint(dir: &Path, search: SearchConfig, every: u64) -> MaintConfig {
    let mut cfg = MaintConfig::new(dir);
    cfg.search = search;
    cfg.slice = None;
    cfg.ckpt_every = 8;
    cfg.rebalance_drift = 0.05;
    cfg.every = every;
    cfg.cdc_path = Some(dir.join("cdc"));
    cfg
}

/// A deadline `secs` from now.
pub fn after(secs: f64) -> std::time::Instant {
    std::time::Instant::now() + Duration::from_secs_f64(secs.max(0.0))
}
