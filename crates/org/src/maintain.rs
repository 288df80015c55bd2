//! Crash-safe incremental organization maintenance under ingest churn.
//!
//! Where [`crate::reopt`] re-optimizes a *fixed* lake in response to user
//! feedback, a [`Maintainer`] keeps a served organization aligned with a
//! *moving* lake: tables arrive, disappear and get retagged while
//! navigation sessions are live. The cycle mirrors the re-optimizer's
//! epoch-committed state machine:
//!
//! 1. **Ingest** — CDC events ([`ChangeEvent`]) are durably appended to a
//!    checksummed [`ChangeLog`] (`dln-lake`); the ack is the returned
//!    sequence number, written and fsynced before the caller may consider
//!    the event accepted (*ack-after-durable*). A torn append
//!    (`churn.log_torn`) acknowledges nothing and the tail is discarded
//!    on recovery.
//! 2. **Plan** — the maintainer replays the log onto the seed lake (a
//!    pure fold) and derives the next shard assignment: surviving labels
//!    stay put, labels whose tag left the lake are dropped, new labels
//!    are admitted into the nearest shard by topic-centroid cosine, and a
//!    label whose centroid affinity drifted past
//!    [`MaintConfig::rebalance_drift`] is moved across shards. The plan —
//!    log horizon `to_seq`, full next assignment, affected shard set,
//!    cross-shard moves, derived seed, pre-cycle fingerprint — is a pure
//!    function of (change log, organization) and is durably committed
//!    *before* any mutation, so a killed maintainer replans identically.
//! 3. **Apply** — the served organization is cloned and rebased onto the
//!    new tag universe (`Organization::rebase_universe`: slot-
//!    preserving, removed tag states tombstoned, new ones appended); only
//!    the *affected* shards are re-searched (deadline-bounded,
//!    checkpointed slices, one durable checkpoint per shard) and grafted;
//!    a rebalance donor that keeps ≥ 2 labels is handled by pure edge
//!    surgery (`Organization::shed_tag_from_subtree`) — no search, so a
//!    label migrates across shards without rebuilding both. Routing-tier
//!    tag sets and attribute memberships are recomputed last, then the
//!    whole organization is validated.
//! 4. **Publish** — the staged organization carries the changed-slot set
//!    (tombstones ∪ appended slots; junctions excluded), so the serving
//!    layer republishes it shard-scoped and sessions on untouched shards
//!    ride in place. Only after the publish does
//!    [`Maintainer::mark_published`] commit the cycle, advance
//!    `applied_seq` and compact the change log.
//!
//! Every phase boundary is a crash point covered by a failpoint:
//! `churn.log_torn`, `churn.crash_mid_plan`, `churn.crash_mid_apply`,
//! `churn.search_kill`, `churn.crash_mid_publish` (catalog in
//! `dln-fault`). The invariant, enforced by `tests/churn_chaos.rs`: for
//! any failpoint schedule, a killed maintainer restarted from its durable
//! directory converges to the bit-identical organization of an
//! uninterrupted run, and no change event is ever lost or applied twice.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::Duration;

use dln_fault::{DlnError, DlnResult};
use dln_lake::{replay, ChangeEvent, ChangeLog, DataLake, TagId};
use dln_persist as persist;

use crate::ctx::OrgContext;
use crate::cycle::{self, injected};
use crate::graph::{Organization, StateId};
use crate::reopt::derive_cycle_seed;
use crate::search::{SearchConfig, SearchStats};
use crate::shard::ShardedBuild;

/// Magic prefix of the durable maintainer state file.
const STATE_MAGIC: &[u8; 8] = b"DLNMAINT";
/// Maintainer state format version.
const STATE_VERSION: u8 = 1;

/// Root marker of a shard whose last label left the lake. The slot id is
/// never a valid state (organizations are far smaller than `u32::MAX`).
pub const EMPTY_SHARD: StateId = StateId(u32::MAX);

// ---------------------------------------------------------------------------
// Durable state
// ---------------------------------------------------------------------------

/// A planned cross-shard label move.
#[derive(Clone, Debug, PartialEq)]
struct PlannedMove {
    label: String,
    from: u32,
    to: u32,
}

/// The in-flight maintenance plan — a pure function of (change log ≤
/// `to_seq`, shard assignment), durably committed before any mutation.
#[derive(Clone, Debug, PartialEq)]
struct PlanState {
    /// Log horizon: the cycle applies exactly the events in
    /// `(applied_seq, to_seq]`.
    to_seq: u64,
    /// Base search seed for this cycle (per-shard seeds derived from it).
    seed: u64,
    /// Fingerprint the served organization must still carry.
    pre_fp: u64,
    /// The full next shard→labels assignment.
    shard_labels: Vec<Vec<String>>,
    /// Sorted indices of shards that need a re-search + graft.
    affected: Vec<u32>,
    /// Cross-shard rebalance moves (donors not in `affected` are handled
    /// by pure edge surgery).
    moves: Vec<PlannedMove>,
}

/// Durable maintainer state (`maint.state` under [`MaintConfig::dir`]).
#[derive(Clone, Debug)]
struct MaintState {
    /// Completed-cycle counter.
    cycle: u64,
    /// Last change-log sequence number folded into the served lake.
    applied_seq: u64,
    /// Shard→labels assignment of the served organization.
    shard_labels: Vec<Vec<String>>,
    /// Shard roots in the served organization ([`EMPTY_SHARD`] sentinel
    /// for shards whose labels all left).
    shard_roots: Vec<StateId>,
    /// The in-flight plan, if any.
    plan: Option<PlanState>,
}

fn write_labels(w: &mut persist::Writer, labels: &[Vec<String>]) {
    w.u64(labels.len() as u64);
    for shard in labels {
        w.u64(shard.len() as u64);
        for l in shard {
            w.str(l);
        }
    }
}

fn read_labels(r: &mut persist::Reader, context: &str) -> DlnResult<Vec<Vec<String>>> {
    let n_shards = r.u64()? as usize;
    if n_shards > r.total_len() {
        return Err(DlnError::corrupt(context, "implausible shard count"));
    }
    let mut out = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        let n = r.u64()? as usize;
        if n > r.total_len() {
            return Err(DlnError::corrupt(context, "implausible label count"));
        }
        let mut shard = Vec::with_capacity(n);
        for _ in 0..n {
            shard.push(r.str()?);
        }
        out.push(shard);
    }
    Ok(out)
}

impl MaintState {
    fn encode(&self) -> Vec<u8> {
        let mut w = persist::Writer::with_capacity(256);
        w.bytes(STATE_MAGIC);
        w.u8(STATE_VERSION);
        w.u64(self.cycle);
        w.u64(self.applied_seq);
        write_labels(&mut w, &self.shard_labels);
        w.u64(self.shard_roots.len() as u64);
        for r in &self.shard_roots {
            w.u32(r.0);
        }
        match &self.plan {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                w.u64(p.to_seq);
                w.u64(p.seed);
                w.u64(p.pre_fp);
                write_labels(&mut w, &p.shard_labels);
                w.u64(p.affected.len() as u64);
                for &s in &p.affected {
                    w.u32(s);
                }
                w.u64(p.moves.len() as u64);
                for m in &p.moves {
                    w.str(&m.label);
                    w.u32(m.from);
                    w.u32(m.to);
                }
            }
        }
        w.seal()
    }

    fn decode(bytes: &[u8], context: &str) -> DlnResult<MaintState> {
        let payload = persist::verify_sealed(bytes, context)?;
        let mut r = persist::Reader::new(payload, 0, context);
        if r.take(8)? != STATE_MAGIC {
            return Err(DlnError::corrupt(context, "not a maintainer state file"));
        }
        let version = r.u8()?;
        if version != STATE_VERSION {
            return Err(DlnError::corrupt(
                context,
                format!("unsupported maintainer state version {version}"),
            ));
        }
        let cycle = r.u64()?;
        let applied_seq = r.u64()?;
        let shard_labels = read_labels(&mut r, context)?;
        let n_roots = r.u64()? as usize;
        if n_roots > payload.len() {
            return Err(DlnError::corrupt(context, "implausible shard count"));
        }
        let mut shard_roots = Vec::with_capacity(n_roots);
        for _ in 0..n_roots {
            shard_roots.push(StateId(r.u32()?));
        }
        if shard_roots.len() != shard_labels.len() {
            return Err(DlnError::corrupt(context, "shard label/root mismatch"));
        }
        let plan = match r.u8()? {
            0 => None,
            1 => {
                let to_seq = r.u64()?;
                let seed = r.u64()?;
                let pre_fp = r.u64()?;
                let plan_labels = read_labels(&mut r, context)?;
                if plan_labels.len() != shard_roots.len() {
                    return Err(DlnError::corrupt(context, "plan shard count mismatch"));
                }
                let n_aff = r.u64()? as usize;
                if n_aff > payload.len() {
                    return Err(DlnError::corrupt(context, "implausible affected count"));
                }
                let mut affected = Vec::with_capacity(n_aff);
                for _ in 0..n_aff {
                    let s = r.u32()?;
                    if s as usize >= shard_roots.len() {
                        return Err(DlnError::corrupt(context, "affected shard out of range"));
                    }
                    affected.push(s);
                }
                let n_moves = r.u64()? as usize;
                if n_moves > payload.len() {
                    return Err(DlnError::corrupt(context, "implausible move count"));
                }
                let mut moves = Vec::with_capacity(n_moves);
                for _ in 0..n_moves {
                    let label = r.str()?;
                    let from = r.u32()?;
                    let to = r.u32()?;
                    if from as usize >= shard_roots.len() || to as usize >= shard_roots.len() {
                        return Err(DlnError::corrupt(context, "move shard out of range"));
                    }
                    moves.push(PlannedMove { label, from, to });
                }
                Some(PlanState {
                    to_seq,
                    seed,
                    pre_fp,
                    shard_labels: plan_labels,
                    affected,
                    moves,
                })
            }
            b => {
                return Err(DlnError::corrupt(
                    context,
                    format!("bad plan discriminant {b}"),
                ))
            }
        };
        if r.pos() != payload.len() {
            return Err(DlnError::corrupt(context, "trailing bytes"));
        }
        Ok(MaintState {
            cycle,
            applied_seq,
            shard_labels,
            shard_roots,
            plan,
        })
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration of a [`Maintainer`].
#[derive(Clone, Debug)]
pub struct MaintConfig {
    /// Directory for all durable maintenance artifacts (state file,
    /// per-shard search checkpoints, and — unless `DLN_CDC_PATH`
    /// overrides it — the CDC change log). Created if missing.
    pub dir: PathBuf,
    /// Base search configuration for the per-shard incremental searches.
    /// `seed` is re-derived per (cycle, shard) and `shards` /
    /// `checkpoint` / `deadline` are overridden per slice.
    pub search: SearchConfig,
    /// Wall-clock budget per search slice; between slices the maintainer
    /// checks `churn.search_kill` and resumes from the shard's
    /// checkpoint. `None` runs each shard search to completion in one
    /// slice. Defaults to the `DLN_CHURN_DEADLINE_MS` environment
    /// variable.
    pub slice: Option<Duration>,
    /// Rounds between periodic search checkpoints.
    pub ckpt_every: usize,
    /// Minimum centroid-cosine improvement before a label is moved to
    /// another shard. Defaults to the `DLN_REBALANCE_DRIFT` environment
    /// variable, else `0.05`.
    pub rebalance_drift: f64,
    /// Suggested cadence for driver loops: run one cycle every `every`
    /// ingested events. Advisory — the maintainer itself is cadence-free.
    /// Defaults to the `DLN_CHURN_EVERY` environment variable, else 16.
    pub every: u64,
    /// Base path of the CDC change log (snapshot at `<path>`, WAL at
    /// `<path>.wal`). Defaults to `<dir>/cdc`, overridden by the
    /// `DLN_CDC_PATH` environment variable.
    pub cdc_path: Option<PathBuf>,
}

impl MaintConfig {
    /// A configuration rooted at `dir`, with the `DLN_CHURN_EVERY`,
    /// `DLN_CHURN_DEADLINE_MS`, `DLN_REBALANCE_DRIFT` and `DLN_CDC_PATH`
    /// environment overrides applied.
    pub fn new(dir: impl Into<PathBuf>) -> MaintConfig {
        let slice = std::env::var("DLN_CHURN_DEADLINE_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map(Duration::from_millis);
        let every = std::env::var("DLN_CHURN_EVERY")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(16);
        let rebalance_drift = std::env::var("DLN_REBALANCE_DRIFT")
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|d| d.is_finite())
            .unwrap_or(0.05);
        let cdc_path = std::env::var("DLN_CDC_PATH").ok().map(PathBuf::from);
        MaintConfig {
            dir: dir.into(),
            search: SearchConfig::default(),
            slice,
            ckpt_every: 8,
            rebalance_drift,
            every,
            cdc_path,
        }
    }

    /// Resolved base path of the CDC change log.
    fn cdc_base(&self) -> PathBuf {
        self.cdc_path
            .clone()
            .unwrap_or_else(|| self.dir.join("cdc"))
    }

    fn state_path(&self) -> PathBuf {
        self.dir.join("maint.state")
    }

    fn ckpt_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("maint.s{shard}.ckpt"))
    }
}

// ---------------------------------------------------------------------------
// Maintainer
// ---------------------------------------------------------------------------

/// What one [`Maintainer::advance`] produced.
pub enum MaintAdvance {
    /// Nothing to do: no pending events and no rebalance drift.
    Skipped,
    /// A maintained organization is staged; the caller must publish it
    /// and then call [`Maintainer::mark_published`].
    Staged(Box<MaintStage>),
}

/// A staged maintenance republish: the rebased + re-searched organization
/// over the *post-churn* lake, plus everything the serving layer needs.
pub struct MaintStage {
    /// The organization context over the post-churn lake.
    pub ctx: OrgContext,
    /// The maintained organization (valid against `ctx`).
    pub org: Organization,
    /// Sorted changed slots (removed tag states ∪ appended tag states ∪
    /// shed/strip tombstones ∪ grafted interiors) — the shard-republish
    /// scope. Junctions are excluded so sessions on untouched shards ride
    /// in place.
    pub changed: Vec<u32>,
    /// New shard roots ([`EMPTY_SHARD`] for shards whose labels all
    /// left); pass back to [`Maintainer::mark_published`].
    pub shard_roots: Vec<StateId>,
    /// Fingerprint of `org` (what the published snapshot must carry).
    pub expected_fingerprint: u64,
    /// Events applied by this cycle (`to_seq - applied_seq`).
    pub applied_events: u64,
    /// How many shards were re-searched (vs handled by edge surgery).
    pub searched_shards: usize,
    /// Statistics of the per-shard searches, in affected-shard order.
    pub search_stats: Vec<SearchStats>,
}

/// The crash-safe incremental maintainer. All durable state lives under
/// [`MaintConfig::dir`], so "restart after a crash" is just constructing
/// a new `Maintainer` over the same directory. The maintainer exclusively
/// owns the CDC change log; producers ingest through
/// [`Maintainer::ingest`] and treat the returned sequence number as the
/// durable ack.
pub struct Maintainer<'a> {
    seed_lake: &'a DataLake,
    cfg: MaintConfig,
    log: ChangeLog,
    state: MaintState,
    /// `replay(seed_lake, events ≤ applied_seq)` — the lake the served
    /// organization is built over.
    lake: DataLake,
}

impl<'a> Maintainer<'a> {
    /// Open (or create) a maintainer over `cfg.dir`. `shard_labels` /
    /// `shard_roots` describe the served organization's router layout; a
    /// durable state file from a previous incarnation overrides both (it
    /// tracks committed cycles).
    pub fn open(
        seed_lake: &'a DataLake,
        shard_labels: Vec<Vec<String>>,
        shard_roots: Vec<StateId>,
        cfg: MaintConfig,
    ) -> DlnResult<Maintainer<'a>> {
        if shard_labels.len() != shard_roots.len() {
            return Err(DlnError::InvalidConfig(format!(
                "shard map mismatch: {} label groups vs {} roots",
                shard_labels.len(),
                shard_roots.len()
            )));
        }
        if shard_roots.is_empty() {
            return Err(DlnError::InvalidConfig(
                "maintenance requires at least one shard".to_string(),
            ));
        }
        std::fs::create_dir_all(&cfg.dir)
            .map_err(|e| DlnError::io(cfg.dir.display().to_string(), e))?;
        let log = ChangeLog::open(&cfg.cdc_base())?;
        let state_path = cfg.state_path();
        let loaded = persist::load_if_present(&state_path, "maintainer state", |p| {
            let bytes = std::fs::read(p).map_err(|e| DlnError::io(p.display().to_string(), e))?;
            MaintState::decode(&bytes, &p.display().to_string())
        })?;
        let state = match loaded {
            Some(state) if state.shard_roots.len() != shard_roots.len() => {
                return Err(DlnError::InvalidConfig(format!(
                    "durable maintainer state has {} shards, caller supplied {}",
                    state.shard_roots.len(),
                    shard_roots.len()
                )));
            }
            Some(state) => state,
            None => MaintState {
                cycle: 0,
                applied_seq: 0,
                shard_labels,
                shard_roots,
                plan: None,
            },
        };
        if state.applied_seq > log.last_seq() {
            return Err(DlnError::corrupt(
                state_path.display().to_string(),
                format!(
                    "maintainer state is ahead of the change log ({} > {})",
                    state.applied_seq,
                    log.last_seq()
                ),
            ));
        }
        let (lake, _) = replay(seed_lake, log.state().through(state.applied_seq));
        Ok(Maintainer {
            seed_lake,
            cfg,
            log,
            state,
            lake,
        })
    }

    /// Convenience constructor from a [`ShardedBuild`] over `seed_lake`.
    pub fn for_build(
        seed_lake: &'a DataLake,
        build: &ShardedBuild,
        cfg: MaintConfig,
    ) -> DlnResult<Maintainer<'a>> {
        let labels = build
            .shard_tags
            .iter()
            .map(|tags| {
                tags.iter()
                    .map(|&t| seed_lake.tag(t).label.clone())
                    .collect()
            })
            .collect();
        Maintainer::open(seed_lake, labels, build.shard_roots.clone(), cfg)
    }

    /// Durably append a change event. The returned sequence number is the
    /// ack: on error (torn append) nothing was acknowledged and the event
    /// must be re-ingested.
    pub fn ingest(&mut self, event: &ChangeEvent) -> DlnResult<u64> {
        self.log.append(event)
    }

    /// Events ingested but not yet folded into a committed cycle.
    pub fn pending(&self) -> u64 {
        self.log.last_seq().saturating_sub(self.state.applied_seq)
    }

    /// The lake the served organization is built over:
    /// `replay(seed, events ≤ applied_seq)`.
    pub fn lake(&self) -> &DataLake {
        &self.lake
    }

    /// Completed-cycle counter.
    pub fn cycle(&self) -> u64 {
        self.state.cycle
    }

    /// Last change-log sequence number folded into the served lake.
    pub fn applied_seq(&self) -> u64 {
        self.state.applied_seq
    }

    /// Current shard→labels assignment.
    pub fn shard_labels(&self) -> &[Vec<String>] {
        &self.state.shard_labels
    }

    /// Current shard roots ([`EMPTY_SHARD`] sentinel for emptied shards).
    pub fn shard_roots(&self) -> &[StateId] {
        &self.state.shard_roots
    }

    /// Malformed-but-checksummed events quarantined by the change log.
    pub fn quarantined(&self) -> u64 {
        self.log.quarantined()
    }

    /// The configuration this maintainer runs under.
    pub fn config(&self) -> &MaintConfig {
        &self.cfg
    }

    /// Whether a plan is in flight (a crashed cycle to finish).
    pub fn in_flight(&self) -> bool {
        self.state.plan.is_some()
    }

    fn save_state(&self) -> DlnResult<()> {
        persist::atomic_write(&self.cfg.state_path(), &self.state.encode())
    }

    /// Run the next step of the cycle state machine against the currently
    /// served organization (`ctx`/`org` over [`Maintainer::lake`]). Plans
    /// a cycle if idle (durably, before any mutation), then rebases,
    /// re-searches the affected shards and stages the republish. Errors
    /// are crashes: the durable state is consistent and a new
    /// `Maintainer` over the same directory continues bit-identically.
    pub fn advance(&mut self, ctx: &OrgContext, org: &Organization) -> DlnResult<MaintAdvance> {
        if self.state.plan.is_none() {
            let Some(plan) = self.plan_cycle(org)? else {
                return Ok(MaintAdvance::Skipped);
            };
            self.state.plan = Some(plan);
            self.save_state()?;
            if dln_fault::should_fail("churn.crash_mid_plan") {
                return Err(injected("churn.crash_mid_plan"));
            }
        }
        let Some(plan) = self.state.plan.clone() else {
            return Err(DlnError::corrupt("maintain", "plan vanished mid-advance"));
        };
        if org.fingerprint() != plan.pre_fp {
            return Err(DlnError::corrupt(
                self.cfg.state_path().display().to_string(),
                "served organization diverged from the planned cycle; refusing to apply",
            ));
        }
        // Deterministic recomputation of the post-churn lake and context.
        let (lake_next, _) = replay(self.seed_lake, self.log.state().through(plan.to_seq));
        if lake_next.n_tags() == 0 {
            return Err(DlnError::InvalidConfig(
                "churn removed every tag; refusing to maintain an empty organization".to_string(),
            ));
        }
        let ctx_next = OrgContext::full(&lake_next);
        let mut label_to_new: HashMap<&str, u32> = HashMap::with_capacity(ctx_next.n_tags());
        for (i, t) in ctx_next.tags().iter().enumerate() {
            label_to_new.insert(t.label.as_str(), i as u32);
        }
        let tag_map: Vec<Option<u32>> = ctx
            .tags()
            .iter()
            .map(|t| label_to_new.get(t.label.as_str()).copied())
            .collect();

        let mut out = org.clone();
        if self
            .state
            .shard_roots
            .iter()
            .any(|&r| r != EMPTY_SHARD && r == out.root())
        {
            return Err(DlnError::InvalidConfig(
                "cannot maintain a layout whose shard root is the global root".to_string(),
            ));
        }
        // Junction parents per shard, captured before any surgery (the
        // rebase may unlink a singleton shard root whose tag left).
        let junctions: Vec<Vec<StateId>> = self
            .state
            .shard_roots
            .iter()
            .map(|&r| {
                if r == EMPTY_SHARD {
                    Vec::new()
                } else {
                    out.state(r).parents.clone()
                }
            })
            .collect();
        let report = out.rebase_universe(&ctx_next, &tag_map);
        let mut changed: Vec<u32> = Vec::new();
        changed.extend(&report.removed_tag_slots);
        changed.extend(&report.added_tag_slots);

        // Cheap-donor rebalance: pure edge surgery on donors that keep
        // enough labels to stay structurally sound.
        for m in &plan.moves {
            if plan.affected.contains(&m.from) {
                continue; // donor is re-searched anyway
            }
            let Some(&t_new) = label_to_new.get(m.label.as_str()) else {
                return Err(DlnError::corrupt(
                    "maintain",
                    format!("moved label {:?} missing from the new lake", m.label),
                ));
            };
            let donor_root = self.state.shard_roots[m.from as usize];
            if donor_root == EMPTY_SHARD {
                return Err(DlnError::corrupt(
                    "maintain",
                    format!("move {:?} out of an empty shard {}", m.label, m.from),
                ));
            }
            changed.extend(out.shed_tag_from_subtree(donor_root, t_new));
        }
        if dln_fault::should_fail("churn.crash_mid_apply") {
            return Err(injected("churn.crash_mid_apply"));
        }

        // Re-search and graft the affected shards.
        let mut new_roots = self.state.shard_roots.clone();
        let mut search_stats = Vec::new();
        let mut searched_shards = 0usize;
        for &si in &plan.affected {
            let si_us = si as usize;
            let old_root = self.state.shard_roots[si_us];
            // Strip the old shard subtree. A singleton shard's root is
            // its tag state: nothing to tombstone, but surviving junction
            // edges must go (a removed tag was already unlinked by the
            // rebase; `remove_edge` is a no-op then).
            if old_root != EMPTY_SHARD {
                if out.state(old_root).tag.is_some() {
                    for &j in &junctions[si_us] {
                        out.remove_edge(j, old_root);
                    }
                } else {
                    cycle::strip_interiors(&mut out, old_root, &mut changed);
                }
            }
            let labels = &plan.shard_labels[si_us];
            if labels.is_empty() {
                new_roots[si_us] = EMPTY_SHARD;
                continue;
            }
            if junctions[si_us].is_empty() {
                return Err(DlnError::corrupt(
                    "maintain.graft",
                    format!("shard {si} has labels but no junction parents"),
                ));
            }
            let new_root = if labels.len() == 1 {
                // Singleton shard: the tag state itself is the root,
                // matching the fresh-build layout — no search needed.
                let Some(&t) = label_to_new.get(labels[0].as_str()) else {
                    return Err(DlnError::corrupt(
                        "maintain.graft",
                        format!("label {:?} missing from the new lake", labels[0]),
                    ));
                };
                out.tag_state(t)
            } else {
                let tags_global: Vec<TagId> = labels
                    .iter()
                    .map(|l| {
                        lake_next.tag_by_label(l).ok_or_else(|| {
                            DlnError::corrupt(
                                "maintain.graft",
                                format!("label {l:?} missing from the new lake"),
                            )
                        })
                    })
                    .collect::<DlnResult<_>>()?;
                let sctx = OrgContext::for_tag_group(&lake_next, &tags_global);
                let base = SearchConfig {
                    seed: derive_cycle_seed(plan.seed, self.state.cycle, si as u64),
                    table_weights: None,
                    ..self.cfg.search.clone()
                };
                let (sorg, stats) = cycle::run_sliced_search(
                    &sctx,
                    &base,
                    self.cfg.ckpt_path(si_us),
                    self.cfg.ckpt_every,
                    self.cfg.slice,
                    "churn.search_kill",
                )?;
                searched_shards += 1;
                search_stats.push(stats);
                cycle::graft_subtree(&mut out, &ctx_next, &sctx, &sorg, &mut changed)?
            };
            for &j in &junctions[si_us] {
                out.add_edge(j, new_root);
            }
            new_roots[si_us] = new_root;
        }

        // Routing tier + memberships last, then validate the whole thing.
        let live_roots: Vec<StateId> = new_roots
            .iter()
            .copied()
            .filter(|&r| r != EMPTY_SHARD)
            .collect();
        if live_roots.is_empty() {
            return Err(DlnError::InvalidConfig(
                "churn emptied every shard; refusing to publish an unrouted organization"
                    .to_string(),
            ));
        }
        out.refresh_routing_tags(&live_roots);
        out.refresh_memberships(&ctx_next);
        out.validate(&ctx_next)
            .map_err(|m| DlnError::corrupt("maintain", m))?;
        if dln_fault::should_fail("churn.crash_mid_publish") {
            return Err(injected("churn.crash_mid_publish"));
        }
        changed.sort_unstable();
        changed.dedup();
        let expected_fingerprint = out.fingerprint();
        Ok(MaintAdvance::Staged(Box::new(MaintStage {
            ctx: ctx_next,
            org: out,
            changed,
            shard_roots: new_roots,
            expected_fingerprint,
            applied_events: plan.to_seq.saturating_sub(self.state.applied_seq),
            searched_shards,
            search_stats,
        })))
    }

    /// Commit a published cycle: adopt the plan's shard assignment and
    /// the staged roots, advance `applied_seq`, bump the cycle counter
    /// (all durably, in one atomic state write), then compact the change
    /// log and discard the per-shard search checkpoints.
    pub fn mark_published(&mut self, shard_roots: &[StateId]) -> DlnResult<()> {
        let Some(plan) = self.state.plan.take() else {
            return Err(DlnError::InvalidConfig(
                "mark_published without an in-flight cycle".to_string(),
            ));
        };
        if shard_roots.len() != self.state.shard_roots.len() {
            return Err(DlnError::InvalidConfig(format!(
                "published {} shard roots, expected {}",
                shard_roots.len(),
                self.state.shard_roots.len()
            )));
        }
        self.state.shard_roots = shard_roots.to_vec();
        self.state.applied_seq = plan.to_seq;
        self.state.shard_labels = plan.shard_labels;
        self.state.cycle += 1;
        self.save_state()?;
        self.log.compact()?;
        for si in 0..self.state.shard_roots.len() {
            cycle::discard_checkpoint(&self.cfg.ckpt_path(si));
        }
        let (lake, _) = replay(
            self.seed_lake,
            self.log.state().through(self.state.applied_seq),
        );
        self.lake = lake;
        Ok(())
    }

    /// Plan the next cycle: replay the log to its durable horizon, keep
    /// surviving labels in place, admit new labels into the nearest shard
    /// by topic-centroid cosine, move drifted labels, and mark every
    /// shard whose label set or label populations changed as affected.
    /// Pure function of (change log, shard assignment) — a replanned
    /// crash reproduces the identical plan.
    fn plan_cycle(&self, org: &Organization) -> DlnResult<Option<PlanState>> {
        let to_seq = self.log.last_seq();
        let has_events = to_seq > self.state.applied_seq;
        let (lake_next, _) = replay(self.seed_lake, self.log.state().through(to_seq));
        let n_shards = self.state.shard_labels.len();

        // Labels whose population (set of attributes, identified by
        // table/attr name) changed, plus labels on one side only.
        let changed_labels = diff_labels(&self.lake, &lake_next);

        // Surviving assignment (original order preserved per shard).
        let mut labels_next: Vec<Vec<String>> = Vec::with_capacity(n_shards);
        let mut removed_any = vec![false; n_shards];
        for (i, labels) in self.state.shard_labels.iter().enumerate() {
            let survivors: Vec<String> = labels
                .iter()
                .filter(|l| lake_next.tag_by_label(l).is_some())
                .cloned()
                .collect();
            removed_any[i] = survivors.len() != labels.len();
            labels_next.push(survivors);
        }

        // Shard centroids over the *surviving* pre-move assignment, in
        // the new lake's topic space.
        let dim = lake_next.dim();
        let centroids: Vec<Option<Vec<f64>>> = labels_next
            .iter()
            .map(|labels| {
                if labels.is_empty() {
                    return None;
                }
                let mut c = vec![0.0f64; dim];
                for l in labels {
                    if let Some(t) = lake_next.tag_by_label(l) {
                        for (ci, &v) in c.iter_mut().zip(&lake_next.tag(t).unit_topic) {
                            *ci += v as f64;
                        }
                    }
                }
                Some(c)
            })
            .collect();
        let affinity = |label: &str, shard: usize| -> Option<f64> {
            let c = centroids[shard].as_ref()?;
            let t = lake_next.tag_by_label(label)?;
            let u = &lake_next.tag(t).unit_topic;
            let mut dot = 0.0f64;
            let mut norm = 0.0f64;
            for (&ci, &ui) in c.iter().zip(u) {
                dot += ci * ui as f64;
                norm += ci * ci;
            }
            if norm == 0.0 {
                return Some(0.0);
            }
            Some(dot / norm.sqrt())
        };

        // New labels (in lake order, for determinism) go to the nearest
        // non-empty shard.
        let assigned: HashSet<&str> = labels_next.iter().flatten().map(|l| l.as_str()).collect();
        let mut gained = vec![false; n_shards];
        let mut admissions: Vec<(String, usize)> = Vec::new();
        for tag in lake_next.tags() {
            if assigned.contains(tag.label.as_str()) {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for s in 0..n_shards {
                let Some(a) = affinity(&tag.label, s) else {
                    continue;
                };
                if best.is_none_or(|(_, b)| a > b) {
                    best = Some((s, a));
                }
            }
            let Some((s, _)) = best else {
                return Err(DlnError::InvalidConfig(format!(
                    "no shard can admit new label {:?} (all shards empty)",
                    tag.label
                )));
            };
            admissions.push((tag.label.clone(), s));
            gained[s] = true;
        }

        // Rebalance: a surviving label whose *population changed this
        // cycle* and whose affinity to another shard now exceeds its home
        // affinity by more than the drift threshold moves there. Only
        // changed labels are candidates — the fresh layout is the
        // clusterer's call, and relitigating it on every quiet cycle
        // would thrash shards without new evidence. Affinities use the
        // pre-move centroids, so the decision is order-independent.
        let mut moves: Vec<PlannedMove> = Vec::new();
        if n_shards > 1 {
            for (s, labels) in labels_next.clone().iter().enumerate() {
                for l in labels {
                    if !changed_labels.contains(l) {
                        continue;
                    }
                    let Some(home) = affinity(l, s) else { continue };
                    let mut best: Option<(usize, f64)> = None;
                    for o in 0..n_shards {
                        if o == s {
                            continue;
                        }
                        let Some(a) = affinity(l, o) else { continue };
                        if best.is_none_or(|(_, b)| a > b) {
                            best = Some((o, a));
                        }
                    }
                    if let Some((o, a)) = best {
                        if a - home > self.cfg.rebalance_drift {
                            moves.push(PlannedMove {
                                label: l.clone(),
                                from: s as u32,
                                to: o as u32,
                            });
                            gained[o] = true;
                        }
                    }
                }
            }
        }
        if !has_events && moves.is_empty() {
            return Ok(None);
        }

        // Apply admissions and moves to the assignment.
        for m in &moves {
            labels_next[m.from as usize].retain(|l| l != &m.label);
        }
        for m in &moves {
            labels_next[m.to as usize].push(m.label.clone());
        }
        for (label, s) in admissions {
            labels_next[s].push(label);
        }

        // Affected shards: lost a label to the lake, gained any label, or
        // kept a label whose population changed. A move donor that would
        // be left too thin for pure edge surgery is affected too.
        let mut affected = vec![false; n_shards];
        for s in 0..n_shards {
            if removed_any[s] || gained[s] {
                affected[s] = true;
                continue;
            }
            if labels_next[s].iter().any(|l| changed_labels.contains(l)) {
                affected[s] = true;
            }
        }
        for m in &moves {
            if labels_next[m.from as usize].len() < 2 {
                affected[m.from as usize] = true;
            }
        }
        let affected: Vec<u32> = (0..n_shards as u32)
            .filter(|&s| affected[s as usize])
            .collect();

        Ok(Some(PlanState {
            to_seq,
            seed: derive_cycle_seed(self.cfg.search.seed, self.state.cycle, 0x0063_6875_726e)
                ^ self.state.cycle,
            pre_fp: org.fingerprint(),
            shard_labels: labels_next,
            affected,
            moves,
        }))
    }
}

/// Labels whose attribute population differs between the two lakes
/// (including labels present in only one). Populations are compared by
/// (table name, attribute name) pairs — id-independent, so replayed lakes
/// compare meaningfully against their predecessors.
fn diff_labels(cur: &DataLake, next: &DataLake) -> HashSet<String> {
    let pop = |lake: &DataLake, label: &str| -> Option<Vec<(String, String)>> {
        let t = lake.tag_by_label(label)?;
        let mut pairs: Vec<(String, String)> = lake
            .tag(t)
            .attrs
            .iter()
            .map(|&a| {
                let attr = lake.attr(a);
                (lake.table(attr.table).name.clone(), attr.name.clone())
            })
            .collect();
        pairs.sort();
        Some(pairs)
    };
    let mut labels: HashSet<String> = HashSet::new();
    for t in cur.tags() {
        labels.insert(t.label.clone());
    }
    for t in next.tags() {
        labels.insert(t.label.clone());
    }
    labels
        .into_iter()
        .filter(|l| pop(cur, l) != pop(next, l))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::ShardPolicy;
    use crate::shard::build_sharded;
    use dln_lake::{AttrChange, LakeBuilder};
    use dln_synth::TagCloudConfig;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dln-maint-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_setup() -> (DataLake, SearchConfig) {
        let bench = TagCloudConfig::small().generate();
        let cfg = SearchConfig {
            max_iters: 40,
            plateau_iters: 15,
            shards: ShardPolicy::Fixed(2),
            ..SearchConfig::default()
        };
        (bench.lake, cfg)
    }

    fn maint_cfg(dir: PathBuf, search: SearchConfig) -> MaintConfig {
        MaintConfig {
            dir,
            search,
            slice: None,
            ckpt_every: 4,
            rebalance_drift: 0.05,
            every: 16,
            cdc_path: None,
        }
    }

    /// A topic vector concentrated on axis `axis` with a small nudge.
    fn topic(dim: usize, axis: usize, nudge: f32) -> dln_embed::TopicAccumulator {
        let mut v = vec![0.05f32; dim];
        v[axis] = 1.0 + nudge;
        let mut acc = dln_embed::TopicAccumulator::new(dim);
        acc.add(&v);
        acc
    }

    fn added(name: &str, tags: &[&str], axis: usize, nudge: f32) -> ChangeEvent {
        ChangeEvent::TableAdded {
            name: name.to_string(),
            tags: tags.iter().map(|s| s.to_string()).collect(),
            attrs: vec![AttrChange {
                name: "col0".to_string(),
                topic: topic(4, axis, nudge),
                n_values: 8,
                tags: Vec::new(),
            }],
        }
    }

    #[test]
    fn state_roundtrip_with_and_without_plan() {
        let no_plan = MaintState {
            cycle: 3,
            applied_seq: 17,
            shard_labels: vec![vec!["a".into(), "b".into()], vec![]],
            shard_roots: vec![StateId(4), EMPTY_SHARD],
            plan: None,
        };
        let bytes = no_plan.encode();
        let got = MaintState::decode(&bytes, "test").unwrap();
        assert_eq!(got.cycle, 3);
        assert_eq!(got.applied_seq, 17);
        assert_eq!(got.shard_labels, no_plan.shard_labels);
        assert_eq!(got.shard_roots, no_plan.shard_roots);
        assert!(got.plan.is_none());

        let with_plan = MaintState {
            plan: Some(PlanState {
                to_seq: 29,
                seed: 0xDEAD_BEEF,
                pre_fp: 42,
                shard_labels: vec![vec!["a".into()], vec!["b".into(), "c".into()]],
                affected: vec![1],
                moves: vec![PlannedMove {
                    label: "c".into(),
                    from: 0,
                    to: 1,
                }],
            }),
            ..no_plan
        };
        let bytes = with_plan.encode();
        let got = MaintState::decode(&bytes, "test").unwrap();
        assert_eq!(got.plan, with_plan.plan);
    }

    #[test]
    fn every_flipped_byte_is_rejected_or_roundtrips() {
        let state = MaintState {
            cycle: 1,
            applied_seq: 5,
            shard_labels: vec![vec!["x".into()], vec!["y".into(), "z".into()]],
            shard_roots: vec![StateId(7), StateId(9)],
            plan: Some(PlanState {
                to_seq: 9,
                seed: 1,
                pre_fp: 2,
                shard_labels: vec![vec!["x".into()], vec!["y".into(), "z".into()]],
                affected: vec![0, 1],
                moves: vec![],
            }),
        };
        let bytes = state.encode();
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xFF;
            // Never panics: either a typed error or (for bytes the format
            // doesn't pin down) a clean decode.
            let _ = MaintState::decode(&corrupted, "flip");
        }
        // And the checksum catches at least the payload bytes.
        let mut corrupted = bytes.clone();
        corrupted[10] ^= 0xFF;
        assert!(MaintState::decode(&corrupted, "flip").is_err());
    }

    #[test]
    fn skipped_when_no_events_and_no_drift() {
        let (lake, scfg) = small_setup();
        let build = build_sharded(&lake, &scfg);
        let dir = tmp("skip");
        let mut maint = Maintainer::for_build(&lake, &build, maint_cfg(dir, scfg.clone())).unwrap();
        let ctx = OrgContext::full(&lake);
        assert!(matches!(
            maint.advance(&ctx, &build.built.organization).unwrap(),
            MaintAdvance::Skipped
        ));
        assert_eq!(maint.pending(), 0);
    }

    #[test]
    fn add_and_remove_cycle_maintains_a_valid_org() {
        let (lake, scfg) = small_setup();
        let build = build_sharded(&lake, &scfg);
        let ctx = OrgContext::full(&lake);
        let dir = tmp("cycle");
        let mut maint = Maintainer::for_build(&lake, &build, maint_cfg(dir, scfg.clone())).unwrap();

        // A new table under a brand-new label plus an existing one.
        let existing = lake.tags()[0].label.clone();
        let dim = lake.dim();
        let ev = ChangeEvent::TableAdded {
            name: "churn_t0".to_string(),
            tags: vec!["churn_new_tag".to_string(), existing.clone()],
            attrs: vec![AttrChange {
                name: "c0".to_string(),
                topic: topic(dim, 0, 0.2),
                n_values: 6,
                tags: Vec::new(),
            }],
        };
        assert_eq!(maint.ingest(&ev).unwrap(), 1);
        assert_eq!(maint.pending(), 1);

        let MaintAdvance::Staged(stage) = maint.advance(&ctx, &build.built.organization).unwrap()
        else {
            panic!("expected staged cycle");
        };
        assert_eq!(stage.applied_events, 1);
        stage.org.validate(&stage.ctx).unwrap();
        assert!(stage.ctx.n_tags() == ctx.n_tags() + 1);
        let roots = stage.shard_roots.clone();
        maint.mark_published(&roots).unwrap();
        assert_eq!(maint.applied_seq(), 1);
        assert_eq!(maint.pending(), 0);
        assert!(maint.lake().tag_by_label("churn_new_tag").is_some());

        // Remove the table again: the brand-new label leaves the lake.
        let org1 = stage.org;
        let ctx1 = stage.ctx;
        maint
            .ingest(&ChangeEvent::TableRemoved {
                name: "churn_t0".to_string(),
            })
            .unwrap();
        let MaintAdvance::Staged(stage2) = maint.advance(&ctx1, &org1).unwrap() else {
            panic!("expected staged cycle");
        };
        stage2.org.validate(&stage2.ctx).unwrap();
        assert_eq!(stage2.ctx.n_tags(), ctx.n_tags());
        let roots2 = stage2.shard_roots.clone();
        maint.mark_published(&roots2).unwrap();
        assert!(maint.lake().tag_by_label("churn_new_tag").is_none());
    }

    #[test]
    fn restart_from_plan_converges_bit_identically() {
        let (lake, scfg) = small_setup();
        let build = build_sharded(&lake, &scfg);
        let ctx = OrgContext::full(&lake);
        let dir = tmp("restart");
        let ev = added("churn_r0", &["churn_r_tag"], 0, 0.3);

        // Uninterrupted run in a sibling directory.
        let dir_ref = tmp("restart-ref");
        let mut a = Maintainer::for_build(&lake, &build, maint_cfg(dir_ref, scfg.clone())).unwrap();
        a.ingest(&ev).unwrap();
        let MaintAdvance::Staged(want) = a.advance(&ctx, &build.built.organization).unwrap() else {
            panic!("expected staged cycle");
        };

        // Crash right after the plan commit, then restart and finish.
        let mut b =
            Maintainer::for_build(&lake, &build, maint_cfg(dir.clone(), scfg.clone())).unwrap();
        b.ingest(&ev).unwrap();
        {
            let _fp = dln_fault::scoped("churn.crash_mid_plan:1.0:0");
            assert!(b.advance(&ctx, &build.built.organization).is_err());
        }
        drop(b);
        let mut b2 = Maintainer::for_build(&lake, &build, maint_cfg(dir, scfg)).unwrap();
        assert!(b2.in_flight());
        let MaintAdvance::Staged(got) = b2.advance(&ctx, &build.built.organization).unwrap() else {
            panic!("expected staged cycle");
        };
        assert_eq!(got.expected_fingerprint, want.expected_fingerprint);
        assert_eq!(got.changed, want.changed);
        assert_eq!(got.shard_roots, want.shard_roots);
    }

    #[test]
    fn drifted_label_moves_with_cheap_donor_shed() {
        // Hand-built lake: shard-split topics on axes 0 and 1. Labels
        // a0/a1/drift sit on axis 0; b0/b1 on axis 1. Churn replaces
        // drift's only table with an axis-1 table, so its topic crosses
        // the centroid gap and the planner must move it — donor keeps
        // two labels, so the move is pure edge surgery on the donor.
        let dim = 4;
        let mut lb = LakeBuilder::new(dim);
        let mut add_table = |name: &str, label: &str, axis: usize, nudge: f32| {
            let tid = lb.begin_table(name);
            lb.add_tag(tid, label);
            lb.try_add_attribute_raw(tid, "c0", topic(dim, axis, nudge), 8, Vec::new())
                .unwrap();
        };
        add_table("ta0", "a0", 0, 0.00);
        add_table("ta1", "a1", 0, 0.05);
        add_table("tdrift", "drift", 0, 0.10);
        add_table("tb0", "b0", 1, 0.00);
        add_table("tb1", "b1", 1, 0.05);
        let lake = lb.build();
        let scfg = SearchConfig {
            max_iters: 40,
            plateau_iters: 15,
            shards: ShardPolicy::Fixed(2),
            ..SearchConfig::default()
        };
        let build = build_sharded(&lake, &scfg);
        // The clustering split must put drift with the a-labels.
        let drift_shard = build
            .shard_tags
            .iter()
            .position(|tags| tags.iter().any(|&t| lake.tag(t).label == "drift"))
            .unwrap();
        let a0_shard = build
            .shard_tags
            .iter()
            .position(|tags| tags.iter().any(|&t| lake.tag(t).label == "a0"))
            .unwrap();
        assert_eq!(
            drift_shard, a0_shard,
            "seed layout puts drift with a-labels"
        );

        let ctx = OrgContext::full(&lake);
        let dir = tmp("drift");
        let mut maint = Maintainer::for_build(&lake, &build, maint_cfg(dir, scfg.clone())).unwrap();
        maint
            .ingest(&ChangeEvent::TableRemoved {
                name: "tdrift".to_string(),
            })
            .unwrap();
        maint
            .ingest(&added("tdrift2", &["drift"], 1, 0.10))
            .unwrap();

        let MaintAdvance::Staged(stage) = maint.advance(&ctx, &build.built.organization).unwrap()
        else {
            panic!("expected staged cycle");
        };
        stage.org.validate(&stage.ctx).unwrap();
        // Donor was not re-searched: only the receiver shard was.
        assert_eq!(stage.searched_shards, 1);
        let roots = stage.shard_roots.clone();
        maint.mark_published(&roots).unwrap();
        let donor = drift_shard;
        let receiver = 1 - donor;
        assert!(
            !maint.shard_labels()[donor].iter().any(|l| l == "drift"),
            "drift left the donor shard: {:?}",
            maint.shard_labels()
        );
        assert!(
            maint.shard_labels()[receiver].iter().any(|l| l == "drift"),
            "drift joined the receiver shard: {:?}",
            maint.shard_labels()
        );
    }
}
