//! The machinery churn maintenance ([`crate::maintain`]) and feedback
//! re-optimization ([`crate::reopt`]) share: the deadline-sliced,
//! checkpointed shard search, the graft of a re-searched shard back into
//! the full organization, and the injected-crash error. Each loop keeps
//! its own plan, state file and phase machine.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use dln_fault::{DlnError, DlnResult};

use crate::bitset::BitSet;
use crate::checkpoint::{Checkpoint, CheckpointConfig};
use crate::ctx::OrgContext;
use crate::graph::{Organization, StateId};
use crate::init;
use crate::search::{self, SearchConfig, SearchStats, ShardPolicy, StopReason};

/// The typed error for an injected crash at `site` — the in-process
/// stand-in for `kill -9` at a phase boundary.
pub(crate) fn injected(site: &str) -> DlnError {
    DlnError::io(
        site.to_string(),
        std::io::Error::other(format!("injected crash at {site}")),
    )
}

/// Remove the search checkpoint at `path` and its previous generation.
pub(crate) fn discard_checkpoint(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(dln_persist::prev_path(path));
}

/// Search `sctx` from its clustering initialization to completion across
/// deadline slices of `slice`, resuming from the durable checkpoint at
/// `ckpt_path` (written every `ckpt_every` rounds) between slices and
/// across restarts. Bit-identical to one uninterrupted run.
///
/// `base` carries the seed, weights and budgets; the shard policy,
/// deadline and checkpoint are set here. A checkpoint that cannot resume
/// (torn, or left by an earlier cycle) restarts the search from scratch.
/// Between slices the `kill_site` failpoint may abort; `search.kill`
/// firing inside a slice aborts too, leaving the last periodic checkpoint.
pub(crate) fn run_sliced_search(
    sctx: &OrgContext,
    base: &SearchConfig,
    ckpt_path: PathBuf,
    ckpt_every: usize,
    slice: Option<Duration>,
    kill_site: &str,
) -> DlnResult<(Organization, SearchStats)> {
    let ckpt = CheckpointConfig {
        path: ckpt_path,
        every_rounds: ckpt_every.max(1),
    };
    loop {
        let mut sorg = init::clustering_org(sctx);
        let ck = dln_persist::load_if_present(&ckpt.path, "checkpoint", Checkpoint::load)
            .ok()
            .flatten();
        // The search deadline is a *total* wall-clock budget including
        // checkpointed progress, so each slice extends it by `slice`
        // beyond what the checkpoint already accumulated.
        let prior = ck
            .as_ref()
            .map_or(Duration::ZERO, |c| Duration::from_nanos(c.elapsed_nanos));
        let scfg = SearchConfig {
            shards: ShardPolicy::Fixed(1),
            deadline: slice.map(|s| prior + s),
            checkpoint: Some(ckpt.clone()),
            ..base.clone()
        };
        let stats = match &ck {
            Some(ck) => match search::resume(sctx, &mut sorg, &scfg, ck) {
                Ok(stats) => stats,
                Err(e) => {
                    eprintln!(
                        "warning: shard-search checkpoint {} unusable ({e}); restarting shard search",
                        ckpt.path.display()
                    );
                    discard_checkpoint(&ckpt.path);
                    sorg = init::clustering_org(sctx);
                    search::optimize(sctx, &mut sorg, &scfg)
                }
            },
            None => search::optimize(sctx, &mut sorg, &scfg),
        };
        match stats.stop {
            // Slice exhausted; the final checkpoint is on disk.
            StopReason::Deadline => {
                if dln_fault::should_fail(kill_site) {
                    return Err(injected(kill_site));
                }
            }
            StopReason::Killed => return Err(injected("search.kill")),
            _ => return Ok((sorg, stats)),
        }
    }
}

/// Edge-strip and tombstone every interior (non-tag) state under `root`,
/// in slot order, recording each in `changed`. Tag states keep their
/// slots, so paths through untouched shards stay valid verbatim.
pub(crate) fn strip_interiors(out: &mut Organization, root: StateId, changed: &mut Vec<u32>) {
    let mut interiors: Vec<StateId> = out
        .descendants_of(&[root])
        .into_iter()
        .filter(|&s| out.state(s).tag.is_none())
        .collect();
    interiors.sort_unstable_by_key(|s| s.0);
    for s in interiors {
        for c in out.state(s).children.clone() {
            out.remove_edge(s, c);
        }
        for p in out.state(s).parents.clone() {
            out.remove_edge(p, s);
        }
        out.set_alive(s, false);
        changed.push(s.0);
    }
}

/// Map a re-searched shard organization `sorg` (over `sctx`) into `out`
/// (over `ctx`): tag states onto their existing slots, interiors appended
/// as fresh slots in topological order and recorded in `changed`. Linking
/// the junction parents and validating are the caller's job.
/// Deterministic: the same inputs produce the same slots and edges.
/// Returns the new shard root.
pub(crate) fn graft_subtree(
    out: &mut Organization,
    ctx: &OrgContext,
    sctx: &OrgContext,
    sorg: &Organization,
    changed: &mut Vec<u32>,
) -> DlnResult<StateId> {
    let full_tag = |lt: u32| {
        ctx.local_tag(sctx.tag(lt).global).ok_or_else(|| {
            DlnError::corrupt(
                "graft",
                format!("shard tag {lt} missing from the full context"),
            )
        })
    };
    let order = sorg.topo_order();
    let mut map: HashMap<u32, StateId> = HashMap::with_capacity(order.len());
    for &sid in order {
        let st = sorg.state(sid);
        let mapped = match st.tag {
            Some(lt) => out.tag_state(full_tag(lt)?),
            None => {
                let full_tags = st
                    .tags
                    .iter()
                    .map(full_tag)
                    .collect::<DlnResult<Vec<_>>>()?;
                let bits = BitSet::from_iter_with_capacity(ctx.n_tags(), full_tags);
                let ns = out.add_state(ctx, bits, None);
                changed.push(ns.0);
                ns
            }
        };
        map.insert(sid.0, mapped);
    }
    let slot = |s: StateId| -> DlnResult<StateId> {
        map.get(&s.0)
            .copied()
            .ok_or_else(|| DlnError::corrupt("graft", "unmapped shard state"))
    };
    for &sid in order {
        let parent = slot(sid)?;
        for &c in &sorg.state(sid).children {
            out.add_edge(parent, slot(c)?);
        }
    }
    slot(sorg.root())
}
