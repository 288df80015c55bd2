//! The local-search construction algorithm (§3.3).
//!
//! Starting from an initial organization (usually the agglomerative
//! clustering of [`crate::init::clustering_org`]), the algorithm performs
//! downward sweeps from the root. Within each level, states are visited in
//! ascending reachability (Eq 10) — the least discoverable states get
//! attention first — and for each a modification (`ADD_PARENT` or
//! `DELETE_PARENT`) is proposed. A proposal that increases organization
//! effectiveness is accepted; otherwise it is accepted with probability
//! `P(T|O') / P(T|O)` (Eq 9, a Metropolis acceptance rule following the
//! Bayesian structure-search tradition the paper cites). The search
//! terminates "once the effectiveness of an organization reaches a
//! plateau" — no significant improvement over the last
//! [`SearchConfig::plateau_iters`] proposals (the paper uses 50).
//!
//! ## Speculative proposal batching
//!
//! With [`SearchConfig::batch_size`] `B > 1` the walk drafts up to `B`
//! candidate targets per round — drawing each candidate's operation-order
//! bit up front, which preserves the serial RNG stream — evaluates the
//! drafts speculatively, and resolves them in the fixed visit order with
//! the ordinary Metropolis test. The first accepted candidate wins the
//! round; later drafts are cancelled (their evaluation cost is still
//! charged to the stats) and the sweep resumes right after the winner.
//! Speculations are evaluated on forked organization + evaluator replicas
//! when more than one worker is available, and interleaved with the
//! resolution on the master otherwise; both schedules produce bit-identical
//! results, and `B = 1` reproduces the serial walk ([`optimize_reference`])
//! bit-for-bit. See DESIGN.md §5b for the resolution protocol and the
//! determinism argument.
//!
//! ## Crash safety: deadline, checkpoint, resume
//!
//! Long runs (the paper's Socrata scale is multi-hour) survive
//! interruption: [`SearchConfig::deadline`] bounds wall-clock and stops
//! the walk gracefully at a round boundary with
//! [`StopReason::Deadline`]; [`SearchConfig::checkpoint`] periodically
//! persists a [`Checkpoint`] (committed-op log, RNG state, sweep cursor,
//! counters, trajectory) from which [`resume`] continues **bit-identically**
//! — the op log replays against the initial organization through the same
//! incremental evaluator, and rejected proposals roll back bit-exactly, so
//! the replayed state equals the live state at the checkpointed round, bit
//! for bit. Checkpoints only land at round boundaries, where the serial
//! RNG stream is well-defined even under speculative batching. Three
//! `dln-fault` failpoints exercise the machinery: `search.kill` (simulated
//! crash at a round boundary), `checkpoint.torn` (partial checkpoint
//! write, rejected by checksum on load), and `search.spec_panic` (a
//! panicking speculative draft evaluation — caught, the poisoned replica
//! discarded, and the round degraded to the lazy master-only schedule,
//! which produces the same result as the fault-free run). See DESIGN.md
//! §5c.

use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use dln_fault::{DlnError, DlnResult};

use crate::approx::Representatives;
use crate::checkpoint::{self, Checkpoint, CheckpointConfig, CursorSnapshot};
use crate::ctx::OrgContext;
use crate::eval::{DeltaStats, Evaluator, NavConfig};
use crate::graph::{Organization, StateId};
use crate::ops::{self, OpKind};

/// Local-search hyper-parameters.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Navigation-model parameters (the γ of Eq 1).
    pub nav: NavConfig,
    /// Stop after this many consecutive proposals without significant
    /// improvement of the best effectiveness (paper: 50).
    pub plateau_iters: usize,
    /// Minimum absolute effectiveness gain counted as "significant".
    pub min_improvement: f64,
    /// Hard cap on proposals, as a safety net.
    pub max_iters: usize,
    /// Representative-set size as a fraction of the attributes (§3.4).
    /// `1.0` = exact evaluation; the paper's approximate runs use `0.1`.
    pub rep_fraction: f64,
    /// Acceptance sharpening β: a degrading proposal is accepted with
    /// probability `(P(T|O') / P(T|O))^β`. β = 1 is the paper's literal
    /// Eq 9; because near-optimal organizations differ by tiny *relative*
    /// amounts (ratios ≈ 0.999), β = 1 accepts almost every degradation
    /// and the walk becomes undirected. The default β keeps the Metropolis
    /// character (occasional uphill escapes) while giving the walk a real
    /// drift toward better organizations.
    pub acceptance_power: f64,
    /// Speculative proposal-batch width `B`: how many candidate operations
    /// are drafted and evaluated per resolution round. `1` reproduces the
    /// serial walk bit-for-bit; larger widths trade redundant speculative
    /// evaluations for parallelism across worker replicas. Results depend
    /// on `B` but never on the worker count. Defaults to the `DLN_BATCH`
    /// environment variable, else 1.
    pub batch_size: usize,
    /// RNG seed for proposal choice and Metropolis acceptance.
    pub seed: u64,
    /// Wall-clock budget. Checked at round boundaries; when exceeded the
    /// run writes a final checkpoint (if checkpointing is configured),
    /// restores the best organization seen and returns with
    /// [`StopReason::Deadline`]. Defaults to the `DLN_DEADLINE_MS`
    /// environment variable, else unlimited. Does not affect the walk
    /// itself — a deadline run resumed to completion is bit-identical to
    /// an uninterrupted one.
    pub deadline: Option<Duration>,
    /// Periodic checkpointing: where to write and how often (in resolution
    /// rounds). Defaults to the `DLN_CKPT_PATH` / `DLN_CKPT_EVERY`
    /// environment variables, else off. Write failures degrade to a
    /// warning — a failed checkpoint never aborts the search.
    pub checkpoint: Option<CheckpointConfig>,
    /// Shard policy for sharded construction ([`crate::shard`]): how many
    /// embedding clusters the dimension's tags are partitioned into, each
    /// shard optimized independently (in parallel) and the shard roots
    /// stitched under a top-level router state.
    /// [`ShardPolicy::Fixed`]`(1)` is the ordinary single-organization
    /// path, reproduced bit-for-bit; [`ShardPolicy::Auto`] picks the count
    /// from the knee of the tag-similarity k-medoids cost curve
    /// (`dln_cluster::auto_partition_k`). Defaults to the `DLN_SHARDS`
    /// environment variable (`auto` or an integer ≥ 1), else `Fixed(1)`.
    /// Excluded from the checkpoint fingerprint: the knob routes
    /// construction *around* [`optimize`], which each shard still enters
    /// with `Fixed(1)`.
    pub shards: ShardPolicy,
    /// Optional per-table demand weights for the objective (one per local
    /// table; see [`Evaluator::set_table_weights`]): the feedback loop's
    /// way of steering the search toward tables users actually look for.
    /// `None` (the default) is the paper's uniform Eq 6 objective,
    /// bit-identical to a config without this knob. `Some` changes the
    /// walk, so it participates in the checkpoint fingerprint.
    pub table_weights: Option<Vec<f64>>,
}

/// How sharded construction ([`crate::shard`]) chooses its shard count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Exactly this many shards (clamped to the dimension's tag count;
    /// `1` means unsharded).
    Fixed(usize),
    /// Data-driven: sweep the k-medoids cost spectrum over the dimension's
    /// tags and split at its knee — more shards for lakes whose tag space
    /// genuinely decomposes, none for tight single-topic dimensions.
    Auto,
}

impl Default for ShardPolicy {
    /// `Fixed(1)` — the unsharded path, bit-identical to the classic
    /// single-organization build.
    fn default() -> Self {
        ShardPolicy::Fixed(1)
    }
}

impl ShardPolicy {
    /// The fixed count, if this policy is [`ShardPolicy::Fixed`].
    pub fn fixed(self) -> Option<usize> {
        match self {
            ShardPolicy::Fixed(k) => Some(k),
            ShardPolicy::Auto => None,
        }
    }
}

impl std::fmt::Display for ShardPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardPolicy::Fixed(k) => write!(f, "{k}"),
            ShardPolicy::Auto => write!(f, "auto"),
        }
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            nav: NavConfig::default(),
            plateau_iters: 50,
            min_improvement: 1e-6,
            max_iters: 5_000,
            rep_fraction: 1.0,
            acceptance_power: 400.0,
            batch_size: batch_size_from_env(),
            seed: 0x0DD5_EA4C,
            deadline: deadline_from_env(),
            checkpoint: checkpoint_from_env(),
            shards: shards_from_env(),
            table_weights: None,
        }
    }
}

/// The `DLN_SHARDS` environment override for [`SearchConfig::shards`]:
/// `auto` (case-insensitive) selects [`ShardPolicy::Auto`], an integer ≥ 1
/// selects [`ShardPolicy::Fixed`]; anything else falls back to `Fixed(1)`.
fn shards_from_env() -> ShardPolicy {
    let Ok(raw) = std::env::var("DLN_SHARDS") else {
        return ShardPolicy::Fixed(1);
    };
    let raw = raw.trim();
    if raw.eq_ignore_ascii_case("auto") {
        return ShardPolicy::Auto;
    }
    raw.parse::<usize>()
        .ok()
        .filter(|&s| s >= 1)
        .map(ShardPolicy::Fixed)
        .unwrap_or(ShardPolicy::Fixed(1))
}

/// The `DLN_BATCH` environment override for [`SearchConfig::batch_size`]
/// (ignored unless it parses to ≥ 1).
fn batch_size_from_env() -> usize {
    std::env::var("DLN_BATCH")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&b| b >= 1)
        .unwrap_or(1)
}

/// The `DLN_DEADLINE_MS` environment override for
/// [`SearchConfig::deadline`] (ignored unless it parses).
fn deadline_from_env() -> Option<Duration> {
    std::env::var("DLN_DEADLINE_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_millis)
}

/// The `DLN_CKPT_PATH` / `DLN_CKPT_EVERY` environment overrides for
/// [`SearchConfig::checkpoint`] (off unless a non-empty path is set;
/// interval defaults to every 64 rounds).
fn checkpoint_from_env() -> Option<CheckpointConfig> {
    let path = std::env::var("DLN_CKPT_PATH").ok()?;
    let path = path.trim();
    if path.is_empty() {
        return None;
    }
    let every_rounds = std::env::var("DLN_CKPT_EVERY")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(64);
    Some(CheckpointConfig {
        path: std::path::PathBuf::from(path),
        every_rounds,
    })
}

/// Fingerprint of the walk-relevant parts of a [`SearchConfig`] (the
/// deadline and checkpoint knobs are excluded — they never change the
/// trajectory; neither does the worker count, which is not part of the
/// config at all). Stored in checkpoints so a resume under a different
/// configuration is refused instead of silently diverging.
fn config_fingerprint(cfg: &SearchConfig) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(0x100_0000_01b3)
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = mix(h, cfg.seed);
    h = mix(h, cfg.batch_size.max(1) as u64);
    h = mix(h, cfg.plateau_iters as u64);
    h = mix(h, cfg.max_iters as u64);
    h = mix(h, cfg.min_improvement.to_bits());
    h = mix(h, cfg.acceptance_power.to_bits());
    h = mix(h, cfg.rep_fraction.to_bits());
    h = mix(h, cfg.nav.gamma.to_bits() as u64);
    // Only mixed when present, so `None` fingerprints are byte-identical
    // to configs (and checkpoints) predating this knob.
    if let Some(w) = &cfg.table_weights {
        h = mix(h, w.len() as u64 + 1);
        for v in w {
            h = mix(h, v.to_bits());
        }
    }
    h
}

/// Per-proposal record (feeds the Figure 3 pruning analysis).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IterStats {
    /// Which operation was proposed (`None` when no operation was
    /// applicable at the chosen state).
    pub op: Option<OpKind>,
    /// Whether the proposal was accepted.
    pub accepted: bool,
    /// Effectiveness after the proposal was resolved.
    pub effectiveness: f64,
    /// States whose reach probabilities were re-evaluated. For the winner
    /// of a speculative batch this includes the cancelled speculations of
    /// its round (the work was really performed — or would have been under
    /// eager evaluation — so the pruning analysis must count it).
    pub states_visited: usize,
    /// Alive states at proposal time (batch draft time under batching).
    pub states_alive: usize,
    /// Representative discovery probabilities re-evaluated (batch total on
    /// winner entries, like `states_visited`).
    pub queries_evaluated: usize,
    /// Attributes covered by those representatives (batch total on winner
    /// entries).
    pub attrs_covered: usize,
}

/// Why an optimization run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// No significant improvement over the last
    /// [`SearchConfig::plateau_iters`] proposals (the paper's criterion).
    Plateau,
    /// The [`SearchConfig::max_iters`] safety cap was reached.
    MaxIters,
    /// A full sweep produced no applicable proposal anywhere (e.g. a flat
    /// organization).
    NoProposals,
    /// The wall-clock [`SearchConfig::deadline`] expired; a final
    /// checkpoint was written if checkpointing is configured, and the run
    /// can be continued bit-identically with [`resume`].
    Deadline,
    /// The `search.kill` failpoint fired (simulated crash at a round
    /// boundary; only in fault-injection runs). Unlike every other stop,
    /// the best-seen organization is *not* restored — a crash would not
    /// have restored it either.
    Killed,
}

/// Summary of one optimization run.
#[derive(Clone, Debug)]
pub struct SearchStats {
    /// Effectiveness of the initial organization.
    pub initial_effectiveness: f64,
    /// Effectiveness of the final organization.
    pub final_effectiveness: f64,
    /// Total proposals made.
    pub iterations: usize,
    /// Accepted proposals.
    pub accepted: usize,
    /// Speculative evaluations that were cancelled because an earlier
    /// candidate of their batch won the round (0 when `batch_size` is 1).
    pub speculative_evals: usize,
    /// Wall-clock duration of the search. On a resumed run this includes
    /// the wall-clock accumulated before the checkpoint.
    pub duration: std::time::Duration,
    /// Number of evaluation queries (representatives).
    pub n_queries: usize,
    /// Why the run ended.
    pub stop: StopReason,
    /// Resolution rounds completed (equals `iterations` when
    /// `batch_size` is 1 and every round resolves one proposal).
    pub rounds: usize,
    /// Per-proposal records.
    pub iter_stats: Vec<IterStats>,
}

impl SearchStats {
    /// Mean fraction of states re-evaluated per proposal (Figure 3b).
    ///
    /// Under speculative batching the winner entry of each round carries
    /// the summed cost of its cancelled speculations, so this mean counts
    /// every evaluation the search performed, not just committed ones.
    pub fn mean_state_fraction(&self) -> f64 {
        mean(
            self.iter_stats
                .iter()
                .filter(|s| s.op.is_some())
                .map(|s| s.states_visited as f64 / s.states_alive.max(1) as f64),
        )
    }

    /// Mean fraction of attributes whose discovery probability was
    /// re-evaluated per proposal, counting each representative as covering
    /// its partition (Figure 3a, exact mode). Like
    /// [`mean_state_fraction`](Self::mean_state_fraction), speculative
    /// batch work is included via the winner entries' batch sums.
    pub fn mean_attr_fraction(&self, n_attrs: usize) -> f64 {
        mean(
            self.iter_stats
                .iter()
                .filter(|s| s.op.is_some())
                .map(|s| s.attrs_covered as f64 / n_attrs.max(1) as f64),
        )
    }

    /// Mean fraction of *evaluations performed* relative to the attribute
    /// count (Figure 3a, approximate mode — the paper's ≈6%).
    pub fn mean_eval_fraction(&self, n_attrs: usize) -> f64 {
        mean(
            self.iter_stats
                .iter()
                .filter(|s| s.op.is_some())
                .map(|s| s.queries_evaluated as f64 / n_attrs.max(1) as f64),
        )
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in iter {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// One drafted speculation: a target plus the operation-order bit drawn
/// for it, and where the level walk resumes if this candidate wins.
#[derive(Clone, Copy)]
struct Draft {
    target: StateId,
    first_add: bool,
    resume_at: usize,
}

/// A speculation's evaluation, as recorded by a worker replica.
#[derive(Clone)]
struct SpecResult {
    /// The operation the proposal resolved to (`None`: nothing applicable).
    kind: Option<OpKind>,
    /// Effectiveness the operation would produce.
    new_eff: f64,
    /// Evaluation cost counters.
    stats: DeltaStats,
}

/// A worker's private copy of the search state, kept in lock-step with the
/// master by replaying every committed operation.
struct Replica {
    org: Organization,
    ev: Evaluator,
}

/// The Metropolis test (Eq 9, sharpened by `acceptance_power`). Draws from
/// the RNG only for a degrading proposal with positive current
/// effectiveness — the exact condition of the serial walk, so the RNG
/// stream is preserved under batching.
fn accept_decision(rng: &mut StdRng, cfg: &SearchConfig, new_eff: f64, eff: f64) -> bool {
    if new_eff >= eff || eff <= 0.0 {
        true
    } else {
        let ratio = (new_eff / eff).powf(cfg.acceptance_power);
        rng.random::<f64>() < ratio
    }
}

/// Best-so-far tracking shared by every resolution outcome: the Metropolis
/// walk may wander through worse organizations, so the best organization
/// seen is kept and restored at the end ("finding an organization that
/// maximizes ...", Definition 3).
fn track_best(
    org: &Organization,
    eff: f64,
    cfg: &SearchConfig,
    best: &mut f64,
    best_org: &mut Organization,
    plateau: &mut usize,
) {
    if eff > *best + cfg.min_improvement {
        *best = eff;
        *best_org = org.clone();
        *plateau = 0;
    } else {
        if eff > *best {
            *best = eff;
            *best_org = org.clone();
        }
        *plateau += 1;
    }
}

/// Evaluate one speculation on a replica: propose, apply, measure, and
/// roll everything back so the replica stays at the round's base state.
fn speculate(rep: &mut Replica, ctx: &OrgContext, d: Draft, reach: &[f64]) -> SpecResult {
    let Some(outcome) = ops::propose(&mut rep.org, ctx, d.target, reach, d.first_add) else {
        return SpecResult {
            kind: None,
            new_eff: 0.0,
            stats: DeltaStats::default(),
        };
    };
    let kind = outcome.kind;
    let (undo_ev, stats) = rep.ev.apply_delta(ctx, &rep.org, &outcome.dirty_parents);
    let new_eff = rep.ev.effectiveness();
    rep.ev.rollback(undo_ev);
    ops::undo(&mut rep.org, ctx, outcome);
    SpecResult {
        kind: Some(kind),
        new_eff,
        stats,
    }
}

/// Replay a committed operation on every replica (in parallel — replicas
/// are independent). `reach` must be the reachability snapshot the master
/// committed under, so the replay resolves to the identical operation.
fn sync_replicas(
    replicas: &mut [Replica],
    ctx: &OrgContext,
    kind: OpKind,
    target: StateId,
    reach: &[f64],
) {
    if replicas.is_empty() {
        return;
    }
    std::thread::scope(|scope| {
        for rep in replicas.iter_mut() {
            scope.spawn(move || {
                rayon::run_inline(|| {
                    let Some(outcome) = ops::try_op(&mut rep.org, ctx, target, reach, kind) else {
                        unreachable!("committed op replays on a synced replica")
                    };
                    let _ = rep.ev.apply_delta(ctx, &rep.org, &outcome.dirty_parents);
                })
            });
        }
    });
}

/// The live sweep cursor: where the level walk currently is. The owned
/// twin of [`CursorSnapshot`] (which is its wire form in checkpoints).
struct Cursor {
    /// Level snapshot taken at sweep start (`u32::MAX` = unreachable).
    levels: Vec<u32>,
    /// Sweep-start reachability; orders every level visit list of this
    /// sweep.
    reach_sweep: Vec<f64>,
    /// Deepest level of this sweep.
    max_level: u32,
    /// Level currently being walked (0: sweep not yet entered a level).
    level: u32,
    /// Visit list of the current level.
    at_level: Vec<StateId>,
    /// Next position in `at_level`.
    idx: usize,
    /// Whether any proposal applied so far in this sweep.
    proposed_this_sweep: bool,
}

impl Cursor {
    /// Begin a new downward sweep: snapshot levels (copied out of the
    /// organization's cache — proposals mutate the DAG mid-sweep) and the
    /// sweep-start reachability. The cursor starts above level 1; the
    /// positioning loop descends into it.
    fn start_sweep(org: &Organization, ev: &Evaluator) -> Cursor {
        let levels = org.levels().to_vec();
        let mut reach_sweep = Vec::new();
        ev.reachability_into(&mut reach_sweep);
        let max_level = levels
            .iter()
            .filter(|&&l| l != u32::MAX)
            .max()
            .copied()
            .unwrap_or(0);
        Cursor {
            levels,
            reach_sweep,
            max_level,
            level: 0,
            at_level: Vec::new(),
            idx: 0,
            proposed_this_sweep: false,
        }
    }

    /// Build the visit list of `level`: alive states at that level of the
    /// sweep snapshot, in ascending sweep-start reachability.
    fn descend(&mut self, org: &Organization) {
        self.level += 1;
        let level = self.level;
        self.at_level = org
            .alive_ids()
            .filter(|s| self.levels.get(s.index()).copied() == Some(level))
            .collect();
        self.at_level.sort_by(|a, b| {
            self.reach_sweep[a.index()]
                .partial_cmp(&self.reach_sweep[b.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        self.idx = 0;
    }

    fn to_snapshot(&self) -> CursorSnapshot {
        CursorSnapshot {
            levels: self.levels.clone(),
            reach_sweep: self.reach_sweep.clone(),
            max_level: self.max_level,
            level: self.level,
            at_level: self.at_level.iter().map(|s| s.0).collect(),
            idx: self.idx as u64,
            proposed_this_sweep: self.proposed_this_sweep,
        }
    }

    fn from_snapshot(s: &CursorSnapshot) -> Cursor {
        Cursor {
            levels: s.levels.clone(),
            reach_sweep: s.reach_sweep.clone(),
            max_level: s.max_level,
            level: s.level,
            at_level: s.at_level.iter().map(|&i| StateId(i)).collect(),
            idx: s.idx as usize,
            proposed_this_sweep: s.proposed_this_sweep,
        }
    }
}

/// The checkpointable search state: everything that evolves round to round
/// except the organization and the evaluator, which are deterministic
/// replays of `op_log` (rejected proposals roll back bit-exactly, so the
/// replay lands on the identical bits).
struct RunState {
    rng: StdRng,
    eff: f64,
    best: f64,
    best_org: Organization,
    /// How many leading ops of `op_log` were committed when `best_org` was
    /// captured (the best organization always coincides with a post-commit
    /// state, so the count pins it exactly).
    best_at_ops: u64,
    plateau: usize,
    iterations: usize,
    accepted: usize,
    speculative_evals: usize,
    rounds: u64,
    iter_stats: Vec<IterStats>,
    /// Committed operations in order: `(target slot, encoded kind)`.
    op_log: Vec<(u32, u8)>,
    cursor: Cursor,
}

impl RunState {
    /// Best-so-far tracking shared by every resolution outcome: the
    /// Metropolis walk may wander through worse organizations, so the best
    /// organization seen is kept and restored at the end ("finding an
    /// organization that maximizes ...", Definition 3).
    fn track_best(&mut self, org: &Organization, cfg: &SearchConfig) {
        if self.eff > self.best + cfg.min_improvement {
            self.best = self.eff;
            self.best_org = org.clone();
            self.best_at_ops = self.op_log.len() as u64;
            self.plateau = 0;
        } else {
            if self.eff > self.best {
                self.best = self.eff;
                self.best_org = org.clone();
                self.best_at_ops = self.op_log.len() as u64;
            }
            self.plateau += 1;
        }
    }

    /// Snapshot the run into a serializable [`Checkpoint`].
    fn to_checkpoint(
        &self,
        config_fingerprint: u64,
        init_fingerprint: u64,
        initial: f64,
        elapsed: Duration,
    ) -> Checkpoint {
        Checkpoint {
            config_fingerprint,
            init_fingerprint,
            rng_state: self.rng.state(),
            iterations: self.iterations as u64,
            accepted: self.accepted as u64,
            speculative_evals: self.speculative_evals as u64,
            plateau: self.plateau as u64,
            rounds: self.rounds,
            eff_bits: self.eff.to_bits(),
            best_bits: self.best.to_bits(),
            initial_bits: initial.to_bits(),
            elapsed_nanos: elapsed.as_nanos() as u64,
            best_at_ops: self.best_at_ops,
            op_log: self.op_log.clone(),
            iter_stats: self.iter_stats.clone(),
            cursor: self.cursor.to_snapshot(),
        }
    }

    /// Write a checkpoint, degrading a write failure to a warning — an
    /// unwritable checkpoint path must not abort an otherwise healthy run.
    fn write_checkpoint(
        &self,
        ckpt: &CheckpointConfig,
        config_fingerprint: u64,
        init_fingerprint: u64,
        initial: f64,
        elapsed: Duration,
    ) {
        let c = self.to_checkpoint(config_fingerprint, init_fingerprint, initial, elapsed);
        if let Err(e) = c.save(&ckpt.path) {
            eprintln!(
                "warning: checkpoint write to {} failed: {e}",
                ckpt.path.display()
            );
        }
    }
}

/// Optimize `org` in place. Returns the run statistics.
///
/// With [`SearchConfig::batch_size`] = 1 this is the serial walk of
/// [`optimize_reference`], bit for bit; larger batch widths follow the
/// speculative resolution protocol described in the module docs. Honors
/// [`SearchConfig::deadline`] and [`SearchConfig::checkpoint`].
pub fn optimize(ctx: &OrgContext, org: &mut Organization, cfg: &SearchConfig) -> SearchStats {
    match run_search(ctx, org, cfg, None) {
        Ok(stats) => stats,
        // A fresh run has no checkpoint to validate or replay, and
        // checkpoint *write* failures degrade to warnings — run_search
        // only errors on the resume path.
        Err(e) => unreachable!("fresh search cannot fail: {e}"),
    }
}

/// Continue an interrupted run from `ckpt`, bit-identically: the finished
/// run (final organization, every `SearchStats` field except `duration`)
/// equals what the uninterrupted run would have produced, at any worker
/// count.
///
/// `org` must be the *initial* organization the original run started from
/// (same bits); the committed-op log replays against it. Refuses with
/// [`DlnError::InvalidConfig`] on a config or initial-organization
/// mismatch and with [`DlnError::Corrupt`] when the replayed state fails
/// the checkpoint's integrity bits.
pub fn resume(
    ctx: &OrgContext,
    org: &mut Organization,
    cfg: &SearchConfig,
    ckpt: &Checkpoint,
) -> DlnResult<SearchStats> {
    run_search(ctx, org, cfg, Some(ckpt))
}

/// The search engine behind [`optimize`] and [`resume`].
fn run_search(
    ctx: &OrgContext,
    org: &mut Organization,
    cfg: &SearchConfig,
    resume_from: Option<&Checkpoint>,
) -> DlnResult<SearchStats> {
    let start = Instant::now();
    let reps = if cfg.rep_fraction >= 1.0 {
        Representatives::exact(ctx)
    } else {
        Representatives::kmedoids(ctx, cfg.rep_fraction, cfg.seed ^ 0x4e9d)
    };
    let mut ev = Evaluator::new(ctx, org, cfg.nav, &reps);
    if let Some(w) = &cfg.table_weights {
        ev.set_table_weights(w);
    }
    let batch_size = cfg.batch_size.max(1);
    let initial = ev.effectiveness();
    let config_fp = config_fingerprint(cfg);
    let init_fp = org.fingerprint();

    let mut prior_elapsed = Duration::ZERO;
    let mut st = match resume_from {
        None => RunState {
            rng: StdRng::seed_from_u64(cfg.seed),
            eff: initial,
            best: initial,
            best_org: org.clone(),
            best_at_ops: 0,
            plateau: 0,
            iterations: 0,
            accepted: 0,
            speculative_evals: 0,
            rounds: 0,
            iter_stats: Vec::new(),
            op_log: Vec::new(),
            cursor: Cursor::start_sweep(org, &ev),
        },
        Some(ck) => {
            if ck.config_fingerprint != config_fp {
                return Err(DlnError::InvalidConfig(
                    "checkpoint was produced under a different search configuration".into(),
                ));
            }
            if ck.init_fingerprint != init_fp {
                return Err(DlnError::InvalidConfig(
                    "checkpoint was produced from a different initial organization".into(),
                ));
            }
            if initial.to_bits() != ck.initial_bits {
                return Err(DlnError::corrupt(
                    "checkpoint replay",
                    "initial effectiveness does not match the checkpoint",
                ));
            }
            // Replay the committed-op log. Each op re-resolves under the
            // reachability the master committed it under; applying it
            // through the same incremental evaluator reproduces the live
            // state bit for bit (rejected proposals rolled back
            // bit-exactly, so they left no trace).
            let mut best_org = org.clone();
            let mut reach: Vec<f64> = Vec::new();
            for (i, &(slot, kind_byte)) in ck.op_log.iter().enumerate() {
                let kind = checkpoint::decode_kind(kind_byte).ok_or_else(|| {
                    DlnError::corrupt("checkpoint replay", format!("bad op kind {kind_byte}"))
                })?;
                ev.reachability_into(&mut reach);
                let outcome =
                    ops::try_op(org, ctx, StateId(slot), &reach, kind).ok_or_else(|| {
                        DlnError::corrupt(
                            "checkpoint replay",
                            format!("op {i} ({kind:?} at slot {slot}) no longer applies"),
                        )
                    })?;
                let _ = ev.apply_delta(ctx, org, &outcome.dirty_parents);
                if (i + 1) as u64 == ck.best_at_ops {
                    best_org = org.clone();
                }
            }
            let eff = ev.effectiveness();
            if eff.to_bits() != ck.eff_bits {
                return Err(DlnError::corrupt(
                    "checkpoint replay",
                    "replayed effectiveness diverges from the checkpoint",
                ));
            }
            prior_elapsed = Duration::from_nanos(ck.elapsed_nanos);
            RunState {
                rng: StdRng::from_state(ck.rng_state),
                eff,
                best: f64::from_bits(ck.best_bits),
                best_org,
                best_at_ops: ck.best_at_ops,
                plateau: ck.plateau as usize,
                iterations: ck.iterations as usize,
                accepted: ck.accepted as usize,
                speculative_evals: ck.speculative_evals as usize,
                rounds: ck.rounds,
                iter_stats: ck.iter_stats.clone(),
                op_log: ck.op_log.clone(),
                cursor: Cursor::from_snapshot(&ck.cursor),
            }
        }
    };

    // Scratch buffers and worker replicas (rebuilt lazily; never part of
    // the checkpoint — replicas are bit-copies of the master).
    let mut reach_now: Vec<f64> = Vec::new();
    let mut replicas: Vec<Replica> = Vec::new();
    let mut drafts: Vec<Draft> = Vec::new();
    let mut results: Vec<SpecResult> = Vec::new();
    let stop;

    'outer: loop {
        // Position the cursor on the next visit-list entry, crossing level
        // and sweep boundaries as needed.
        loop {
            if st.cursor.idx < st.cursor.at_level.len() {
                break;
            }
            if st.cursor.level >= st.cursor.max_level {
                if !st.cursor.proposed_this_sweep && st.cursor.level > 0 {
                    // Nothing applicable anywhere — e.g. a flat org.
                    stop = StopReason::NoProposals;
                    break 'outer;
                }
                if st.cursor.max_level == 0 {
                    stop = StopReason::NoProposals;
                    break 'outer;
                }
                st.cursor = Cursor::start_sweep(org, &ev);
                continue;
            }
            st.cursor.descend(org);
        }
        if st.iterations >= cfg.max_iters {
            stop = StopReason::MaxIters;
            break 'outer;
        }
        if !org.state(st.cursor.at_level[st.cursor.idx]).alive {
            st.cursor.idx += 1; // eliminated earlier in this sweep
            continue;
        }
        // Draft phase: collect up to B alive targets (never more proposals
        // than max_iters still allows), drawing each candidate's
        // operation-order bit in visit order so the RNG stream matches the
        // serial walk.
        let budget = batch_size.min(cfg.max_iters - st.iterations);
        drafts.clear();
        let mut j = st.cursor.idx;
        while j < st.cursor.at_level.len() && drafts.len() < budget {
            let s = st.cursor.at_level[j];
            j += 1;
            if !org.state(s).alive {
                continue;
            }
            drafts.push(Draft {
                target: s,
                first_add: st.rng.random(),
                resume_at: j,
            });
        }
        let states_alive = org.n_alive();
        // Current reachability guides every operation of the round.
        ev.reachability_into(&mut reach_now);
        // Eager speculation: with several drafts and several workers,
        // evaluate every candidate concurrently on replicas. Otherwise
        // evaluation happens lazily below, interleaved with the resolution
        // — same results, no wasted work past the winner.
        let mut eager = drafts.len() > 1 && rayon::current_num_threads() > 1;
        if eager {
            if replicas.is_empty() {
                let w = rayon::current_num_threads().min(batch_size);
                replicas = (0..w)
                    .map(|_| Replica {
                        org: org.clone(),
                        ev: ev.fork(),
                    })
                    .collect();
            }
            results.clear();
            results.resize(
                drafts.len(),
                SpecResult {
                    kind: None,
                    new_eff: 0.0,
                    stats: DeltaStats::default(),
                },
            );
            let span = drafts
                .len()
                .div_ceil(replicas.len().min(drafts.len()))
                .max(1);
            let reach: &[f64] = &reach_now;
            let draft_slice: &[Draft] = &drafts;
            // Fault containment: a panic in a draft evaluation (the
            // `search.spec_panic` failpoint, or a real bug) is caught on
            // its own worker — letting it cross `thread::scope` would
            // abort the whole search.
            let mut poisoned = vec![false; replicas.len()];
            std::thread::scope(|scope| {
                for ((rep, poison), (chunk_res, chunk_drafts)) in replicas
                    .iter_mut()
                    .zip(poisoned.iter_mut())
                    .zip(results.chunks_mut(span).zip(draft_slice.chunks(span)))
                {
                    scope.spawn(move || {
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            rayon::run_inline(|| {
                                for (res, &d) in chunk_res.iter_mut().zip(chunk_drafts) {
                                    dln_fault::maybe_panic("search.spec_panic");
                                    *res = speculate(rep, ctx, d, reach);
                                }
                            })
                        }));
                        *poison = outcome.is_err();
                    });
                }
            });
            if poisoned.iter().any(|&p| p) {
                // A worker died mid-speculation: its replica may hold a
                // half-applied delta, so it is discarded (a survivor or
                // the master will reseed the pool next eager round), its
                // half-written results are thrown away, and the round
                // degrades to the lazy master-only schedule — which
                // produces bit-identical resolutions, so a faulted run
                // still matches the fault-free one.
                let mut keep = poisoned.iter().map(|&p| !p);
                replicas.retain(|_| keep.next().unwrap_or(true));
                results.clear();
                eager = false;
            }
        }
        // Fixed-order resolution: candidates face the Metropolis test in
        // visit order; the first acceptance wins the round and cancels the
        // rest.
        let mut next_idx = j;
        let mut plateau_stop = false;
        for i in 0..drafts.len() {
            let d = drafts[i];
            st.iterations += 1;
            if eager {
                let r = results[i].clone();
                let Some(kind) = r.kind else {
                    st.plateau += 1;
                    st.iter_stats.push(IterStats {
                        op: None,
                        accepted: false,
                        effectiveness: st.eff,
                        states_visited: 0,
                        states_alive,
                        queries_evaluated: 0,
                        attrs_covered: 0,
                    });
                    if st.plateau >= cfg.plateau_iters {
                        plateau_stop = true;
                        break;
                    }
                    continue;
                };
                st.cursor.proposed_this_sweep = true;
                let accept = accept_decision(&mut st.rng, cfg, r.new_eff, st.eff);
                if !accept {
                    // The speculation lived and died on a replica; the
                    // master never applied it.
                    st.track_best(org, cfg);
                    st.iter_stats.push(IterStats {
                        op: Some(kind),
                        accepted: false,
                        effectiveness: st.eff,
                        states_visited: r.stats.states_visited,
                        states_alive,
                        queries_evaluated: r.stats.queries_evaluated,
                        attrs_covered: r.stats.attrs_covered,
                    });
                    if st.plateau >= cfg.plateau_iters {
                        plateau_stop = true;
                        break;
                    }
                    continue;
                }
                // Winner: replay on the master (bit-identical to the
                // replica's speculative application).
                let Some(outcome) = ops::try_op(org, ctx, d.target, &reach_now, kind) else {
                    unreachable!("drafted op replays on the master")
                };
                let (_undo_ev, delta) = ev.apply_delta(ctx, org, &outcome.dirty_parents);
                let master_eff = ev.effectiveness();
                debug_assert_eq!(
                    master_eff.to_bits(),
                    r.new_eff.to_bits(),
                    "replica diverged from the master"
                );
                st.accepted += 1;
                st.eff = master_eff;
                st.op_log.push((d.target.0, checkpoint::encode_kind(kind)));
                let mut folded = delta;
                for r2 in &results[i + 1..] {
                    if r2.kind.is_some() {
                        folded.states_visited += r2.stats.states_visited;
                        folded.queries_evaluated += r2.stats.queries_evaluated;
                        folded.attrs_covered += r2.stats.attrs_covered;
                        st.speculative_evals += 1;
                    }
                }
                sync_replicas(&mut replicas, ctx, kind, d.target, &reach_now);
                st.track_best(org, cfg);
                st.iter_stats.push(IterStats {
                    op: Some(kind),
                    accepted: true,
                    effectiveness: st.eff,
                    states_visited: folded.states_visited,
                    states_alive,
                    queries_evaluated: folded.queries_evaluated,
                    attrs_covered: folded.attrs_covered,
                });
                next_idx = d.resume_at;
                if st.plateau >= cfg.plateau_iters {
                    plateau_stop = true;
                }
                break;
            } else {
                // Lazy resolution on the master.
                let outcome = ops::propose(org, ctx, d.target, &reach_now, d.first_add);
                let Some(outcome) = outcome else {
                    st.plateau += 1;
                    st.iter_stats.push(IterStats {
                        op: None,
                        accepted: false,
                        effectiveness: st.eff,
                        states_visited: 0,
                        states_alive,
                        queries_evaluated: 0,
                        attrs_covered: 0,
                    });
                    if st.plateau >= cfg.plateau_iters {
                        plateau_stop = true;
                        break;
                    }
                    continue;
                };
                st.cursor.proposed_this_sweep = true;
                let kind = outcome.kind;
                let (undo_ev, delta) = ev.apply_delta(ctx, org, &outcome.dirty_parents);
                let new_eff = ev.effectiveness();
                let accept = accept_decision(&mut st.rng, cfg, new_eff, st.eff);
                if !accept {
                    ev.rollback(undo_ev);
                    ops::undo(org, ctx, outcome);
                    st.track_best(org, cfg);
                    st.iter_stats.push(IterStats {
                        op: Some(kind),
                        accepted: false,
                        effectiveness: st.eff,
                        states_visited: delta.states_visited,
                        states_alive,
                        queries_evaluated: delta.queries_evaluated,
                        attrs_covered: delta.attrs_covered,
                    });
                    if st.plateau >= cfg.plateau_iters {
                        plateau_stop = true;
                        break;
                    }
                    continue;
                }
                st.accepted += 1;
                st.eff = new_eff;
                st.op_log.push((d.target.0, checkpoint::encode_kind(kind)));
                let mut folded = delta;
                if i + 1 < drafts.len() {
                    // Charge the cancelled speculations of this round as
                    // eager evaluation would have: lift the winner's
                    // structural change (the evaluator delta stays applied
                    // — the census below reads only the graph), measure
                    // each trailing draft against the round's base
                    // organization, then replay the winner.
                    ops::undo(org, ctx, outcome);
                    for d2 in &drafts[i + 1..] {
                        if let Some(o2) =
                            ops::propose(org, ctx, d2.target, &reach_now, d2.first_add)
                        {
                            let s2 = ev.delta_stats_only(org, &o2.dirty_parents);
                            folded.states_visited += s2.states_visited;
                            folded.queries_evaluated += s2.queries_evaluated;
                            folded.attrs_covered += s2.attrs_covered;
                            st.speculative_evals += 1;
                            ops::undo(org, ctx, o2);
                        }
                    }
                    let Some(replay) = ops::try_op(org, ctx, d.target, &reach_now, kind) else {
                        unreachable!("winner replays after the speculation census")
                    };
                    debug_assert_eq!(replay.kind, kind);
                }
                sync_replicas(&mut replicas, ctx, kind, d.target, &reach_now);
                st.track_best(org, cfg);
                st.iter_stats.push(IterStats {
                    op: Some(kind),
                    accepted: true,
                    effectiveness: st.eff,
                    states_visited: folded.states_visited,
                    states_alive,
                    queries_evaluated: folded.queries_evaluated,
                    attrs_covered: folded.attrs_covered,
                });
                next_idx = d.resume_at;
                if st.plateau >= cfg.plateau_iters {
                    plateau_stop = true;
                }
                break;
            }
        }
        st.cursor.idx = next_idx;
        if plateau_stop {
            stop = StopReason::Plateau;
            break 'outer;
        }
        // Round-boundary services, in crash-consistent order: count the
        // round; simulate a crash (kill fires *before* the periodic write,
        // so the rounds since the last checkpoint are genuinely lost);
        // periodic checkpoint; graceful deadline (always checkpoints).
        st.rounds += 1;
        if dln_fault::should_fail("search.kill") {
            stop = StopReason::Killed;
            break 'outer;
        }
        if let Some(ckpt) = &cfg.checkpoint {
            if ckpt.every_rounds > 0 && st.rounds % ckpt.every_rounds as u64 == 0 {
                st.write_checkpoint(
                    ckpt,
                    config_fp,
                    init_fp,
                    initial,
                    prior_elapsed + start.elapsed(),
                );
            }
        }
        if let Some(limit) = cfg.deadline {
            if prior_elapsed + start.elapsed() >= limit {
                stop = StopReason::Deadline;
                break 'outer;
            }
        }
    }
    if stop == StopReason::Deadline {
        if let Some(ckpt) = &cfg.checkpoint {
            st.write_checkpoint(
                ckpt,
                config_fp,
                init_fp,
                initial,
                prior_elapsed + start.elapsed(),
            );
        }
    }
    let mut eff = st.eff;
    // A simulated crash keeps the walk's current organization — a real
    // crash would not have restored the best either; the restore happens
    // at the end of the *resumed* run instead.
    if stop != StopReason::Killed && st.best > eff {
        *org = st.best_org;
        eff = st.best;
    }
    Ok(SearchStats {
        initial_effectiveness: initial,
        final_effectiveness: eff,
        iterations: st.iterations,
        accepted: st.accepted,
        speculative_evals: st.speculative_evals,
        duration: prior_elapsed + start.elapsed(),
        n_queries: ev.n_queries(),
        stop,
        rounds: st.rounds as usize,
        iter_stats: st.iter_stats,
    })
}

/// The pre-batching serial proposal walk, kept verbatim as the bit-identity
/// oracle for the speculative engine ([`optimize`] with `batch_size = 1`
/// must reproduce it exactly at any worker count) and as the honest A/B
/// baseline for `dln-bench`.
pub fn optimize_reference(
    ctx: &OrgContext,
    org: &mut Organization,
    cfg: &SearchConfig,
) -> SearchStats {
    let start = std::time::Instant::now();
    let reps = if cfg.rep_fraction >= 1.0 {
        Representatives::exact(ctx)
    } else {
        Representatives::kmedoids(ctx, cfg.rep_fraction, cfg.seed ^ 0x4e9d)
    };
    let mut ev = Evaluator::new(ctx, org, cfg.nav, &reps);
    if let Some(w) = &cfg.table_weights {
        ev.set_table_weights(w);
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let initial = ev.effectiveness();
    let mut eff = initial;
    let mut best = initial;
    // The Metropolis walk (Eq 9) may wander through worse organizations; we
    // keep the best organization seen and return it ("finding an
    // organization that maximizes ...", Definition 3).
    let mut best_org: Organization = org.clone();
    let mut plateau = 0usize;
    let mut iterations = 0usize;
    let mut accepted = 0usize;
    let mut rounds = 0usize;
    let mut iter_stats: Vec<IterStats> = Vec::new();
    let mut reach_sweep: Vec<f64> = Vec::new();
    let mut reach_now: Vec<f64> = Vec::new();
    let mut levels: Vec<u32> = Vec::new();
    let stop;

    'outer: loop {
        levels.clear();
        levels.extend_from_slice(org.levels());
        ev.reachability_into(&mut reach_sweep);
        let max_level = levels
            .iter()
            .filter(|&&l| l != u32::MAX)
            .max()
            .copied()
            .unwrap_or(0);
        let mut proposed_this_sweep = false;
        for level in 1..=max_level {
            let mut at_level: Vec<StateId> = org
                .alive_ids()
                .filter(|s| levels.get(s.index()).copied() == Some(level))
                .collect();
            at_level.sort_by(|a, b| {
                reach_sweep[a.index()]
                    .partial_cmp(&reach_sweep[b.index()])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            for s in at_level {
                if iterations >= cfg.max_iters {
                    stop = StopReason::MaxIters;
                    break 'outer;
                }
                if !org.state(s).alive {
                    continue; // eliminated earlier in this sweep
                }
                iterations += 1;
                let states_alive = org.n_alive();
                // Current reachability guides the operation's choices.
                ev.reachability_into(&mut reach_now);
                let first_add: bool = rng.random();
                let outcome = ops::propose(org, ctx, s, &reach_now, first_add);
                let Some(outcome) = outcome else {
                    plateau += 1;
                    iter_stats.push(IterStats {
                        op: None,
                        accepted: false,
                        effectiveness: eff,
                        states_visited: 0,
                        states_alive,
                        queries_evaluated: 0,
                        attrs_covered: 0,
                    });
                    if plateau >= cfg.plateau_iters {
                        stop = StopReason::Plateau;
                        break 'outer;
                    }
                    rounds += 1;
                    continue;
                };
                proposed_this_sweep = true;
                let kind = outcome.kind;
                let (undo_ev, delta) = ev.apply_delta(ctx, org, &outcome.dirty_parents);
                let new_eff = ev.effectiveness();
                // Metropolis acceptance (Eq 9).
                let accept = accept_decision(&mut rng, cfg, new_eff, eff);
                if accept {
                    accepted += 1;
                    eff = new_eff;
                } else {
                    ev.rollback(undo_ev);
                    ops::undo(org, ctx, outcome);
                }
                track_best(org, eff, cfg, &mut best, &mut best_org, &mut plateau);
                iter_stats.push(IterStats {
                    op: Some(kind),
                    accepted: accept,
                    effectiveness: eff,
                    states_visited: delta.states_visited,
                    states_alive,
                    queries_evaluated: delta.queries_evaluated,
                    attrs_covered: delta.attrs_covered,
                });
                if plateau >= cfg.plateau_iters {
                    stop = StopReason::Plateau;
                    break 'outer;
                }
                rounds += 1;
            }
        }
        if !proposed_this_sweep {
            stop = StopReason::NoProposals;
            break; // nothing applicable anywhere — e.g. a flat organization
        }
    }
    if best > eff {
        *org = best_org;
        eff = best;
    }
    SearchStats {
        initial_effectiveness: initial,
        final_effectiveness: eff,
        iterations,
        accepted,
        speculative_evals: 0,
        duration: start.elapsed(),
        n_queries: ev.n_queries(),
        stop,
        rounds,
        iter_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{clustering_org, flat_org};
    use dln_synth::TagCloudConfig;

    fn ctx() -> OrgContext {
        let bench = TagCloudConfig::small().generate();
        OrgContext::full(&bench.lake)
    }

    /// Structural + topical fingerprint of the alive part of an
    /// organization, for cheap bit-identity assertions.
    fn org_fingerprint(org: &Organization) -> u64 {
        org.fingerprint()
    }

    #[test]
    fn optimization_improves_clustering_org() {
        let ctx = ctx();
        let mut org = clustering_org(&ctx);
        let cfg = SearchConfig {
            max_iters: 300,
            ..Default::default()
        };
        let stats = optimize(&ctx, &mut org, &cfg);
        org.validate(&ctx).expect("valid after optimization");
        // The informed dendrogram can already be locally optimal (see
        // EXPERIMENTS.md); the search must never END below it.
        assert!(
            stats.final_effectiveness >= stats.initial_effectiveness,
            "search must not lose effectiveness: {} -> {}",
            stats.initial_effectiveness,
            stats.final_effectiveness
        );
        assert!(stats.iterations > 0);
        assert_eq!(stats.iterations, stats.iter_stats.len());
    }

    #[test]
    fn optimization_recovers_from_random_initialization() {
        // Where the local search demonstrably earns its keep: repairing an
        // uninformed initial organization.
        let ctx = ctx();
        let mut org = crate::init::random_org(&ctx, 77);
        let cfg = SearchConfig {
            max_iters: 800,
            plateau_iters: 150,
            ..Default::default()
        };
        let stats = optimize(&ctx, &mut org, &cfg);
        org.validate(&ctx).expect("valid after optimization");
        assert!(
            stats.final_effectiveness > stats.initial_effectiveness,
            "search must repair a random hierarchy: {} -> {}",
            stats.initial_effectiveness,
            stats.final_effectiveness
        );
    }

    #[test]
    fn final_effectiveness_matches_fresh_evaluation() {
        let ctx = ctx();
        let mut org = clustering_org(&ctx);
        let cfg = SearchConfig {
            max_iters: 150,
            ..Default::default()
        };
        let stats = optimize(&ctx, &mut org, &cfg);
        let reps = Representatives::exact(&ctx);
        let fresh = Evaluator::new(&ctx, &org, cfg.nav, &reps);
        assert!(
            (stats.final_effectiveness - fresh.effectiveness()).abs() < 1e-9,
            "incremental bookkeeping drifted: {} vs {}",
            stats.final_effectiveness,
            fresh.effectiveness()
        );
    }

    #[test]
    fn flat_org_terminates_without_proposals() {
        // In a flat org neither op applies anywhere; the search must exit.
        let ctx = ctx();
        let mut org = flat_org(&ctx);
        let cfg = SearchConfig {
            plateau_iters: 10_000, // force the no-proposal exit path
            max_iters: 10_000,
            ..Default::default()
        };
        let stats = optimize(&ctx, &mut org, &cfg);
        assert_eq!(stats.accepted, 0);
        assert!(stats.iter_stats.iter().all(|s| s.op.is_none()));
    }

    #[test]
    fn plateau_terminates_search() {
        let ctx = ctx();
        let mut org = clustering_org(&ctx);
        let cfg = SearchConfig {
            plateau_iters: 5,
            min_improvement: 10.0, // nothing is ever significant
            max_iters: 10_000,
            ..Default::default()
        };
        let stats = optimize(&ctx, &mut org, &cfg);
        assert!(
            stats.iterations <= 6,
            "plateau of 5 must stop quickly, ran {}",
            stats.iterations
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let ctx = ctx();
        let run = |seed: u64| {
            let mut org = clustering_org(&ctx);
            let cfg = SearchConfig {
                max_iters: 100,
                seed,
                ..Default::default()
            };
            optimize(&ctx, &mut org, &cfg).final_effectiveness
        };
        assert_eq!(run(3).to_bits(), run(3).to_bits());
    }

    #[test]
    fn approximate_search_runs_and_improves() {
        let ctx = ctx();
        let mut org = clustering_org(&ctx);
        let cfg = SearchConfig {
            rep_fraction: 0.1,
            max_iters: 200,
            ..Default::default()
        };
        let stats = optimize(&ctx, &mut org, &cfg);
        org.validate(&ctx).expect("valid");
        assert!(stats.n_queries < ctx.n_attrs() / 5);
        // Approximation evaluates far fewer discovery probabilities.
        let eval_frac = stats.mean_eval_fraction(ctx.n_attrs());
        assert!(
            eval_frac < 0.2,
            "approx mode should evaluate few queries per iter ({eval_frac})"
        );
    }

    #[test]
    fn pruning_fractions_are_below_one() {
        let ctx = ctx();
        let mut org = clustering_org(&ctx);
        let cfg = SearchConfig {
            max_iters: 150,
            ..Default::default()
        };
        let stats = optimize(&ctx, &mut org, &cfg);
        let sf = stats.mean_state_fraction();
        assert!(sf > 0.0 && sf < 1.0, "state fraction {sf}");
        let af = stats.mean_attr_fraction(ctx.n_attrs());
        assert!(af > 0.0 && af <= 1.0, "attr fraction {af}");
    }

    #[test]
    fn batch_of_one_matches_reference_bitwise() {
        // Property (a) of the batching PR: B = 1 is the serial walk, bit
        // for bit, at any worker count — identical trajectory (per-proposal
        // records), identical final organization.
        let ctx = ctx();
        for threads in [1usize, 4] {
            rayon::set_num_threads(threads);
            let cfg = SearchConfig {
                max_iters: 200,
                plateau_iters: 80,
                batch_size: 1,
                ..Default::default()
            };
            let mut org_a = crate::init::random_org(&ctx, 77);
            let a = optimize(&ctx, &mut org_a, &cfg);
            let mut org_b = crate::init::random_org(&ctx, 77);
            let b = optimize_reference(&ctx, &mut org_b, &cfg);
            rayon::set_num_threads(0);
            assert_eq!(
                a.final_effectiveness.to_bits(),
                b.final_effectiveness.to_bits(),
                "final effectiveness diverged at {threads} threads"
            );
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.accepted, b.accepted);
            assert_eq!(a.speculative_evals, 0);
            assert_eq!(a.iter_stats, b.iter_stats);
            assert_eq!(
                org_fingerprint(&org_a),
                org_fingerprint(&org_b),
                "final organization diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn batched_search_is_thread_count_invariant() {
        // One worker takes the lazy resolution path, several workers the
        // eager replica path — the trajectories must be bit-identical.
        let ctx = ctx();
        let run = |threads: usize| {
            rayon::set_num_threads(threads);
            let cfg = SearchConfig {
                max_iters: 250,
                plateau_iters: 100,
                batch_size: 4,
                ..Default::default()
            };
            let mut org = crate::init::random_org(&ctx, 42);
            let stats = optimize(&ctx, &mut org, &cfg);
            rayon::set_num_threads(0);
            (stats, org_fingerprint(&org))
        };
        let (base, base_fp) = run(1);
        for threads in [2usize, 8] {
            let (s, fp) = run(threads);
            assert_eq!(fp, base_fp, "final org diverged at {threads} threads");
            assert_eq!(
                s.final_effectiveness.to_bits(),
                base.final_effectiveness.to_bits()
            );
            assert_eq!(s.iterations, base.iterations);
            assert_eq!(s.accepted, base.accepted);
            assert_eq!(s.speculative_evals, base.speculative_evals);
            assert_eq!(
                s.iter_stats, base.iter_stats,
                "per-proposal records diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn batched_final_effectiveness_matches_fresh_evaluation() {
        let ctx = ctx();
        rayon::set_num_threads(4);
        let mut org = clustering_org(&ctx);
        let cfg = SearchConfig {
            max_iters: 150,
            batch_size: 4,
            ..Default::default()
        };
        let stats = optimize(&ctx, &mut org, &cfg);
        rayon::set_num_threads(0);
        org.validate(&ctx)
            .expect("valid after batched optimization");
        let reps = Representatives::exact(&ctx);
        let fresh = Evaluator::new(&ctx, &org, cfg.nav, &reps);
        assert!(
            (stats.final_effectiveness - fresh.effectiveness()).abs() < 1e-9,
            "incremental bookkeeping drifted under batching: {} vs {}",
            stats.final_effectiveness,
            fresh.effectiveness()
        );
    }

    #[test]
    fn batched_search_counts_cancelled_speculations() {
        // Satellite check: the pruning stats must include the speculative
        // work a batch performs, not just the winners'.
        let ctx = ctx();
        let cfg = SearchConfig {
            max_iters: 300,
            plateau_iters: 120,
            batch_size: 8,
            ..Default::default()
        };
        let mut org = crate::init::random_org(&ctx, 7);
        let stats = optimize(&ctx, &mut org, &cfg);
        assert!(
            stats.speculative_evals > 0,
            "a random-init walk at B = 8 must cancel some speculations"
        );
        let winner_visited: usize = stats
            .iter_stats
            .iter()
            .filter(|s| s.accepted)
            .map(|s| s.states_visited)
            .sum();
        assert!(winner_visited > 0);
    }

    /// A walk-parameter config with crash-safety knobs pinned off, so test
    /// behavior cannot depend on `DLN_DEADLINE_MS` / `DLN_CKPT_PATH` in
    /// the environment.
    fn plain_cfg() -> SearchConfig {
        SearchConfig {
            deadline: None,
            checkpoint: None,
            ..Default::default()
        }
    }

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dln_search_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn stop_reasons_are_reported() {
        let ctx = ctx();
        // Plateau: nothing is ever significant, short plateau.
        let mut org = clustering_org(&ctx);
        let cfg = SearchConfig {
            plateau_iters: 5,
            min_improvement: 10.0,
            ..plain_cfg()
        };
        assert_eq!(optimize(&ctx, &mut org, &cfg).stop, StopReason::Plateau);
        // MaxIters: tiny cap, huge plateau.
        let mut org = crate::init::random_org(&ctx, 3);
        let cfg = SearchConfig {
            max_iters: 10,
            plateau_iters: 10_000,
            ..plain_cfg()
        };
        let stats = optimize(&ctx, &mut org, &cfg);
        assert_eq!(stats.stop, StopReason::MaxIters);
        assert_eq!(stats.iterations, 10);
        // NoProposals: flat organizations admit neither operation.
        let mut org = flat_org(&ctx);
        let cfg = SearchConfig {
            plateau_iters: 10_000,
            max_iters: 10_000,
            ..plain_cfg()
        };
        let stats = optimize(&ctx, &mut org, &cfg);
        assert_eq!(stats.stop, StopReason::NoProposals);
        // The reference walk reports the same taxonomy.
        let mut org = flat_org(&ctx);
        assert_eq!(
            optimize_reference(&ctx, &mut org, &cfg).stop,
            StopReason::NoProposals
        );
    }

    #[test]
    fn deadline_stops_gracefully_and_resume_is_bit_identical() {
        let ctx = ctx();
        let dir = tmp_dir("deadline");
        let path = dir.join("search.ckpt");
        let walk = SearchConfig {
            max_iters: 200,
            plateau_iters: 80,
            batch_size: 2,
            ..plain_cfg()
        };
        // Uninterrupted baseline.
        let mut org_full = crate::init::random_org(&ctx, 77);
        let full = optimize(&ctx, &mut org_full, &walk);
        // Interrupted run: a zero deadline expires at the first round
        // boundary; the run must still write its final checkpoint (even
        // with periodic writes disabled) and restore the best-so-far.
        let cfg = SearchConfig {
            deadline: Some(Duration::ZERO),
            checkpoint: Some(CheckpointConfig {
                path: path.clone(),
                every_rounds: 0,
            }),
            ..walk.clone()
        };
        let mut org_cut = crate::init::random_org(&ctx, 77);
        let cut = optimize(&ctx, &mut org_cut, &cfg);
        assert_eq!(cut.stop, StopReason::Deadline);
        assert_eq!(cut.rounds, 1, "a zero deadline expires after one round");
        assert!(cut.iterations < full.iterations);
        // Resume from the checkpoint file against the *initial* org.
        let ckpt = Checkpoint::load(&path).expect("deadline run wrote a final checkpoint");
        assert_eq!(ckpt.rounds(), 1);
        let mut org_res = crate::init::random_org(&ctx, 77);
        let res = resume(&ctx, &mut org_res, &walk, &ckpt).expect("resume");
        // Everything but the wall clock matches the uninterrupted run.
        assert_eq!(res.stop, full.stop);
        assert_eq!(res.rounds, full.rounds);
        assert_eq!(res.iterations, full.iterations);
        assert_eq!(res.accepted, full.accepted);
        assert_eq!(res.speculative_evals, full.speculative_evals);
        assert_eq!(
            res.final_effectiveness.to_bits(),
            full.final_effectiveness.to_bits()
        );
        assert_eq!(res.iter_stats, full.iter_stats);
        assert_eq!(org_fingerprint(&org_res), org_fingerprint(&org_full));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn periodic_checkpoints_resume_bit_identically_at_any_cut() {
        // Keep every periodic checkpoint generation (the file plus its
        // `.prev` rotation gives the last two), resume from both, and
        // check convergence to the uninterrupted run.
        let ctx = ctx();
        let dir = tmp_dir("periodic");
        let path = dir.join("search.ckpt");
        let walk = SearchConfig {
            max_iters: 120,
            plateau_iters: 60,
            batch_size: 4,
            ..plain_cfg()
        };
        let mut org_full = crate::init::random_org(&ctx, 42);
        let full = optimize(&ctx, &mut org_full, &walk);
        let cfg = SearchConfig {
            checkpoint: Some(CheckpointConfig {
                path: path.clone(),
                every_rounds: 7,
            }),
            ..walk.clone()
        };
        let mut org_ck = crate::init::random_org(&ctx, 42);
        let ck_run = optimize(&ctx, &mut org_ck, &cfg);
        assert_eq!(ck_run.iter_stats, full.iter_stats);
        for p in [path.clone(), dln_persist::prev_path(&path)] {
            let ckpt = Checkpoint::load(&p).expect("periodic checkpoint");
            assert!(ckpt.rounds() > 0);
            assert!(ckpt.n_committed_ops() <= full.accepted);
            let mut org_res = crate::init::random_org(&ctx, 42);
            let res = resume(&ctx, &mut org_res, &walk, &ckpt).expect("resume");
            assert_eq!(res.iterations, full.iterations);
            assert_eq!(res.accepted, full.accepted);
            assert_eq!(res.iter_stats, full.iter_stats);
            assert_eq!(
                res.final_effectiveness.to_bits(),
                full.final_effectiveness.to_bits()
            );
            assert_eq!(org_fingerprint(&org_res), org_fingerprint(&org_full));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_refuses_wrong_config_and_wrong_initial_org() {
        let ctx = ctx();
        let dir = tmp_dir("refuse");
        let path = dir.join("search.ckpt");
        let cfg = SearchConfig {
            max_iters: 60,
            deadline: Some(Duration::ZERO),
            checkpoint: Some(CheckpointConfig {
                path: path.clone(),
                every_rounds: 0,
            }),
            ..plain_cfg()
        };
        let mut org = crate::init::random_org(&ctx, 9);
        let stats = optimize(&ctx, &mut org, &cfg);
        assert_eq!(stats.stop, StopReason::Deadline);
        let ckpt = Checkpoint::load(&path).expect("checkpoint");
        // Different seed → different config fingerprint.
        let bad_cfg = SearchConfig {
            seed: 1,
            ..plain_cfg()
        };
        let mut org2 = crate::init::random_org(&ctx, 9);
        assert!(matches!(
            resume(&ctx, &mut org2, &bad_cfg, &ckpt),
            Err(dln_fault::DlnError::InvalidConfig(_))
        ));
        // Different initial organization → different init fingerprint.
        let good_cfg = SearchConfig {
            max_iters: 60,
            ..plain_cfg()
        };
        let mut org3 = crate::init::random_org(&ctx, 10);
        assert!(matches!(
            resume(&ctx, &mut org3, &good_cfg, &ckpt),
            Err(dln_fault::DlnError::InvalidConfig(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
