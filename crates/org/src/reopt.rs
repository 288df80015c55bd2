//! Crash-safe feedback-driven re-optimization: the background loop that
//! closes §2.4 of the paper.
//!
//! A [`Reoptimizer`] runs *epoch-committed cycles* against a served
//! organization:
//!
//! 1. **Drain** — the service's merged [`NavigationLog`] is appended to
//!    the durable [`EvidenceLog`]: a [`dln_persist::Wal`] whose state is
//!    the cumulative log, so it shares the workspace's one WAL contract
//!    with the CDC change log (torn tails truncated on recovery, a
//!    checksum-valid frame that does not decode quarantined while every
//!    later frame still applies). Its snapshot is `DLNEVSNP` version 2,
//!    which carries the quarantine count. The drain is
//!    *ack-after-durable*: the service only subtracts what the evidence
//!    log reports written, so a torn append loses nothing and a repeated
//!    drain double-counts nothing.
//! 2. **Plan** — cumulative evidence is propagated through the current
//!    organization ([`NavigationLog::blended_transitions`] over a uniform
//!    prior) to find the shard users hit hardest; per-table demand weights
//!    spread each visited state's walk mass over its member tags. The
//!    plan (shard, derived
//!    seed, weights, pre-cycle fingerprint) is durably committed before
//!    any search work, so a crashed cycle replans to the identical plan.
//! 3. **Search** — a deadline-bounded, checkpointed local search
//!    (the sliced shard search maintenance uses too) over *only the
//!    affected shard's* tag group,
//!    with [`SearchConfig::table_weights`] steering Eq 6 toward the
//!    tables users actually look for. Kill-and-restart resumes from the
//!    periodic checkpoint and converges bit-identically.
//! 4. **Publish** — the re-optimized shard subtree is grafted back under
//!    the router ([`Advance::Staged`]); the serving layer swaps it in as a
//!    *shard-level republish* so sessions pinned to untouched shards are
//!    never migrated. Only after the publish does [`Reoptimizer::
//!    mark_published`] commit the cycle and compact the evidence log.
//!
//! Every phase boundary is a crash point covered by a failpoint
//! (`reopt.log_torn`, `reopt.crash_mid_cycle`, `reopt.crash_mid_publish`,
//! `reopt.search_kill` — see the catalog in `dln-fault`). The invariant,
//! enforced by `tests/reopt_chaos.rs`: for any failpoint schedule, a
//! killed optimizer restarted from its durable state converges to the
//! bit-identical organization of an uninterrupted run, never tears a
//! served snapshot, and never loses or double-counts evidence.
//!
//! [`SearchConfig::table_weights`]: crate::search::SearchConfig

use std::cmp::Ordering;
use std::path::{Path, PathBuf};
use std::time::Duration;

use dln_fault::{DlnError, DlnResult};
use dln_lake::{DataLake, TagId};
use dln_persist::{self as persist, Wal, WalState};

use crate::ctx::OrgContext;
use crate::cycle::{self, injected};
use crate::feedback::NavigationLog;
use crate::graph::{Organization, StateId};
use crate::search::{SearchConfig, SearchStats};
use crate::shard::ShardedBuild;

/// Magic prefix of the durable optimizer state file.
const STATE_MAGIC: &[u8; 8] = b"DLNREOPT";
/// Optimizer state format version.
const STATE_VERSION: u8 = 1;

// ---------------------------------------------------------------------------
// Evidence log
// ---------------------------------------------------------------------------

/// The cumulative navigation log is the state of the evidence WAL: each
/// frame is one drained delta, merged in on open and on append. The
/// snapshot body is the length-prefixed encoded log.
impl WalState for NavigationLog {
    type Record = NavigationLog;
    const WHAT: &'static str = "evidence";
    const SNAP_MAGIC: &'static [u8; 8] = b"DLNEVSNP";
    const SNAP_VERSION: u8 = 2;
    const TORN_SITE: &'static str = "reopt.log_torn";

    fn encode_record(delta: &NavigationLog) -> Vec<u8> {
        delta.encode()
    }

    fn decode_record(bytes: &[u8], context: &str) -> DlnResult<NavigationLog> {
        NavigationLog::decode(bytes, context)
    }

    fn apply(&mut self, _seq: u64, delta: &NavigationLog) {
        self.merge(delta);
    }

    fn encode_body(&self, w: &mut persist::Writer) {
        let bytes = self.encode();
        w.u64(bytes.len() as u64);
        w.bytes(&bytes);
    }

    fn decode_body(r: &mut persist::Reader<'_>, _last_seq: u64) -> DlnResult<NavigationLog> {
        let n = r.len_prefix()?;
        NavigationLog::decode(r.take(n)?, r.context())
    }
}

/// Durable navigation evidence: the cumulative [`NavigationLog`] as a
/// sealed snapshot plus a WAL of drained deltas. Each committed cycle
/// compacts it. The `reopt.log_torn` failpoint tears an append, which
/// the caller must then *not* acknowledge.
pub type EvidenceLog = Wal<NavigationLog>;

// ---------------------------------------------------------------------------
// Durable cycle state
// ---------------------------------------------------------------------------

/// Where a [`Reoptimizer`] is in its cycle state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CyclePhase {
    /// No cycle in flight; the next [`Reoptimizer::advance`] plans one.
    Idle,
    /// A plan is durably committed; [`Reoptimizer::advance`] (re)runs the
    /// checkpointed shard search and stages the graft.
    Searching,
}

/// The durably committed plan of an in-flight cycle.
#[derive(Clone, Debug)]
struct PlanState {
    /// Index of the shard being re-optimized.
    shard: usize,
    /// Derived search seed (base seed ⊕ cycle ⊕ shard, splitmix-mixed).
    seed: u64,
    /// Fingerprint of the full organization the plan was made against;
    /// verified on every advance so a diverged service fails loud.
    pre_fp: u64,
    /// Demand weights, one per shard-context table, mean-normalized.
    weights: Vec<f64>,
    /// The shard's tag group (global ids), pinned so a restart searches
    /// the identical context even if the caller's shard map changed.
    tags: Vec<TagId>,
}

/// The durable optimizer state (`<dir>/reopt.state`).
#[derive(Clone, Debug)]
struct ReoptState {
    /// Completed-cycle counter.
    cycle: u64,
    /// Current shard roots in the served organization (updated on every
    /// committed publish).
    shard_roots: Vec<StateId>,
    /// The in-flight plan, if any ([`CyclePhase::Searching`]).
    plan: Option<PlanState>,
}

impl ReoptState {
    fn encode(&self) -> Vec<u8> {
        let mut w = persist::Writer::with_capacity(128);
        w.bytes(STATE_MAGIC);
        w.u8(STATE_VERSION);
        w.u64(self.cycle);
        w.u64(self.shard_roots.len() as u64);
        for r in &self.shard_roots {
            w.u32(r.0);
        }
        match &self.plan {
            None => w.u8(0),
            Some(p) => {
                w.u8(1);
                w.u32(p.shard as u32);
                w.u64(p.seed);
                w.u64(p.pre_fp);
                w.u64(p.weights.len() as u64);
                for v in &p.weights {
                    w.u64(v.to_bits());
                }
                w.u64(p.tags.len() as u64);
                for t in &p.tags {
                    w.u32(t.0);
                }
            }
        }
        w.seal()
    }

    fn load(path: &Path) -> DlnResult<ReoptState> {
        let bytes = std::fs::read(path).map_err(|e| DlnError::io(path.display().to_string(), e))?;
        let context = path.display().to_string();
        let payload = persist::verify_sealed(&bytes, &context)?;
        let mut r = persist::Reader::new(payload, 0, &context);
        if r.take(8)? != STATE_MAGIC {
            return Err(DlnError::corrupt(&context, "not an optimizer state file"));
        }
        let version = r.u8()?;
        if version != STATE_VERSION {
            return Err(DlnError::corrupt(
                &context,
                format!("unsupported optimizer state version {version}"),
            ));
        }
        let cycle = r.u64()?;
        let n_roots = r.u64()? as usize;
        if n_roots > payload.len() {
            return Err(DlnError::corrupt(&context, "implausible shard count"));
        }
        let mut shard_roots = Vec::with_capacity(n_roots);
        for _ in 0..n_roots {
            shard_roots.push(StateId(r.u32()?));
        }
        let plan = match r.u8()? {
            0 => None,
            1 => {
                let shard = r.u32()? as usize;
                let seed = r.u64()?;
                let pre_fp = r.u64()?;
                let n_weights = r.u64()? as usize;
                if n_weights > payload.len() {
                    return Err(DlnError::corrupt(&context, "implausible weight count"));
                }
                let mut weights = Vec::with_capacity(n_weights);
                for _ in 0..n_weights {
                    weights.push(f64::from_bits(r.u64()?));
                }
                let n_tags = r.u64()? as usize;
                if n_tags > payload.len() {
                    return Err(DlnError::corrupt(&context, "implausible tag count"));
                }
                let mut tags = Vec::with_capacity(n_tags);
                for _ in 0..n_tags {
                    tags.push(TagId(r.u32()?));
                }
                if shard >= n_roots {
                    return Err(DlnError::corrupt(&context, "plan shard out of range"));
                }
                Some(PlanState {
                    shard,
                    seed,
                    pre_fp,
                    weights,
                    tags,
                })
            }
            b => {
                return Err(DlnError::corrupt(
                    &context,
                    format!("bad plan discriminant {b}"),
                ))
            }
        };
        if r.pos() != payload.len() {
            return Err(DlnError::corrupt(&context, "trailing bytes"));
        }
        Ok(ReoptState {
            cycle,
            shard_roots,
            plan,
        })
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration of a [`Reoptimizer`].
#[derive(Clone, Debug)]
pub struct ReoptConfig {
    /// Directory for all durable optimizer artifacts (state file, search
    /// checkpoint, and — unless `DLN_EVIDENCE_PATH` overrides it — the
    /// evidence log). Created if missing.
    pub dir: PathBuf,
    /// Base search configuration for the per-shard incremental searches.
    /// `seed` is re-derived per cycle and `shards` / `checkpoint` /
    /// `deadline` / `table_weights` are overridden per slice.
    pub search: SearchConfig,
    /// Wall-clock budget per search slice; between slices the optimizer
    /// checks `reopt.search_kill` and then resumes from its checkpoint.
    /// `None` runs each shard search to completion in one slice.
    /// Defaults to the `DLN_REOPT_DEADLINE_MS` environment variable.
    pub slice: Option<Duration>,
    /// Rounds between periodic search checkpoints.
    pub ckpt_every: usize,
    /// Dirichlet pseudo-count blending the uniform prior into observed
    /// transitions (shard selection) and smoothing table demand weights.
    pub prior_strength: f64,
    /// Suggested cadence for driver loops: run one cycle every `every`
    /// closed sessions. Advisory — the optimizer itself is cadence-free.
    /// Defaults to the `DLN_REOPT_EVERY` environment variable, else 32.
    pub every: u64,
    /// Base path of the evidence log (snapshot at `<path>`, WAL at
    /// `<path>.wal`). Defaults to `<dir>/evidence`, overridden by the
    /// `DLN_EVIDENCE_PATH` environment variable.
    pub evidence_path: Option<PathBuf>,
}

impl ReoptConfig {
    /// A configuration rooted at `dir`, with the `DLN_REOPT_EVERY`,
    /// `DLN_REOPT_DEADLINE_MS` and `DLN_EVIDENCE_PATH` environment
    /// overrides applied.
    pub fn new(dir: impl Into<PathBuf>) -> ReoptConfig {
        let slice = std::env::var("DLN_REOPT_DEADLINE_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map(Duration::from_millis);
        let every = std::env::var("DLN_REOPT_EVERY")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(32);
        let evidence_path = std::env::var("DLN_EVIDENCE_PATH").ok().map(PathBuf::from);
        ReoptConfig {
            dir: dir.into(),
            search: SearchConfig::default(),
            slice,
            ckpt_every: 8,
            prior_strength: 4.0,
            every,
            evidence_path,
        }
    }

    /// Resolved base path of the evidence log.
    fn evidence_base(&self) -> PathBuf {
        self.evidence_path
            .clone()
            .unwrap_or_else(|| self.dir.join("evidence"))
    }

    fn state_path(&self) -> PathBuf {
        self.dir.join("reopt.state")
    }

    fn ckpt_path(&self) -> PathBuf {
        self.dir.join("reopt.ckpt")
    }
}

// ---------------------------------------------------------------------------
// Reoptimizer
// ---------------------------------------------------------------------------

/// What one [`Reoptimizer::advance`] produced.
pub enum Advance {
    /// Nothing to do: no evidence yet, or no re-optimizable shard.
    Skipped,
    /// A re-optimized shard is staged; the caller must publish `org` and
    /// then call [`Reoptimizer::mark_published`].
    Staged(Box<CycleStage>),
}

/// A staged shard republish: the grafted full organization plus the
/// publish scope the serving layer needs.
pub struct CycleStage {
    /// The full organization with the re-optimized shard grafted in.
    pub org: Organization,
    /// Sorted changed slots (tombstoned old interiors ∪ grafted states) —
    /// the shard-republish scope for session migration.
    pub changed: Vec<u32>,
    /// Which shard was re-optimized.
    pub shard: usize,
    /// The new shard root inside `org`.
    pub new_root: StateId,
    /// Fingerprint of `org` (what the published snapshot must carry).
    pub expected_fingerprint: u64,
    /// Statistics of the (possibly multi-slice) shard search.
    pub stats: SearchStats,
}

/// The crash-safe feedback-driven optimizer. See the module docs for the
/// cycle state machine; all durable state lives under
/// [`ReoptConfig::dir`], so "restart after a crash" is just constructing
/// a new `Reoptimizer` over the same directory.
pub struct Reoptimizer<'a> {
    lake: &'a DataLake,
    cfg: ReoptConfig,
    shard_tags: Vec<Vec<TagId>>,
    evidence: EvidenceLog,
    state: ReoptState,
}

impl<'a> Reoptimizer<'a> {
    /// Open (or create) an optimizer over `dir`. `shard_tags` /
    /// `shard_roots` describe the served organization's router layout; a
    /// durable state file from a previous incarnation overrides
    /// `shard_roots` (it tracks committed republishes).
    pub fn new(
        lake: &'a DataLake,
        shard_tags: Vec<Vec<TagId>>,
        shard_roots: Vec<StateId>,
        cfg: ReoptConfig,
    ) -> DlnResult<Reoptimizer<'a>> {
        if shard_tags.len() != shard_roots.len() {
            return Err(DlnError::InvalidConfig(format!(
                "shard map mismatch: {} tag groups vs {} roots",
                shard_tags.len(),
                shard_roots.len()
            )));
        }
        // NaN-rejecting: a NaN prior must fail validation, not pass it.
        if !matches!(
            cfg.prior_strength.partial_cmp(&0.0),
            Some(Ordering::Greater)
        ) {
            return Err(DlnError::InvalidConfig(
                "reopt prior_strength must be positive".to_string(),
            ));
        }
        std::fs::create_dir_all(&cfg.dir)
            .map_err(|e| DlnError::io(cfg.dir.display().to_string(), e))?;
        let evidence = EvidenceLog::open(&cfg.evidence_base())?;
        let loaded =
            persist::load_if_present(&cfg.state_path(), "optimizer state", ReoptState::load)?;
        let state = match loaded {
            Some(state) if state.shard_roots.len() != shard_tags.len() => {
                return Err(DlnError::InvalidConfig(format!(
                    "durable optimizer state has {} shards, caller supplied {}",
                    state.shard_roots.len(),
                    shard_tags.len()
                )));
            }
            Some(state) => state,
            None => ReoptState {
                cycle: 0,
                shard_roots,
                plan: None,
            },
        };
        Ok(Reoptimizer {
            lake,
            cfg,
            shard_tags,
            evidence,
            state,
        })
    }

    /// Convenience constructor from a [`ShardedBuild`].
    pub fn for_build(
        lake: &'a DataLake,
        build: &ShardedBuild,
        cfg: ReoptConfig,
    ) -> DlnResult<Reoptimizer<'a>> {
        Reoptimizer::new(
            lake,
            build.shard_tags.clone(),
            build.shard_roots.clone(),
            cfg,
        )
    }

    /// Current phase of the cycle state machine.
    pub fn phase(&self) -> CyclePhase {
        if self.state.plan.is_some() {
            CyclePhase::Searching
        } else {
            CyclePhase::Idle
        }
    }

    /// Completed-cycle counter.
    pub fn cycle(&self) -> u64 {
        self.state.cycle
    }

    /// The configuration this optimizer runs under.
    pub fn config(&self) -> &ReoptConfig {
        &self.cfg
    }

    /// Current shard roots (as of the last committed publish).
    pub fn shard_roots(&self) -> &[StateId] {
        &self.state.shard_roots
    }

    /// All durably drained evidence.
    pub fn evidence(&self) -> &NavigationLog {
        self.evidence.state()
    }

    /// Durably append a drained service-log delta to the evidence log.
    /// Returns its sequence number; on error (torn append) nothing was
    /// acknowledged and the caller must *not* subtract the delta from the
    /// live log.
    pub fn drain(&mut self, delta: &NavigationLog) -> DlnResult<u64> {
        self.evidence.append(delta)
    }

    fn save_state(&self) -> DlnResult<()> {
        persist::atomic_write(&self.cfg.state_path(), &self.state.encode())
    }

    /// Run the next step of the cycle state machine against the currently
    /// served organization. Plans a cycle if idle (durably, before any
    /// search work), then runs the checkpointed shard search to
    /// completion and stages the grafted republish. Errors are crashes:
    /// the durable state is consistent and a new `Reoptimizer` over the
    /// same directory continues bit-identically.
    pub fn advance(&mut self, ctx: &OrgContext, org: &Organization) -> DlnResult<Advance> {
        if self.state.plan.is_none() {
            let Some(plan) = self.plan_cycle(ctx, org)? else {
                return Ok(Advance::Skipped);
            };
            self.state.plan = Some(plan);
            self.save_state()?;
            if dln_fault::should_fail("reopt.crash_mid_cycle") {
                return Err(injected("reopt.crash_mid_cycle"));
            }
        }
        let Some(plan) = self.state.plan.clone() else {
            return Err(DlnError::corrupt("reopt", "plan vanished mid-advance"));
        };
        if org.fingerprint() != plan.pre_fp {
            return Err(DlnError::corrupt(
                self.cfg.state_path().display().to_string(),
                "served organization diverged from the planned cycle; refusing to graft",
            ));
        }
        let sctx = OrgContext::for_tag_group(self.lake, &plan.tags);
        let base = SearchConfig {
            seed: plan.seed,
            table_weights: Some(plan.weights.clone()),
            ..self.cfg.search.clone()
        };
        let (sorg, stats) = cycle::run_sliced_search(
            &sctx,
            &base,
            self.cfg.ckpt_path(),
            self.cfg.ckpt_every,
            self.cfg.slice,
            "reopt.search_kill",
        )?;
        let old_root = self.state.shard_roots[plan.shard];
        let (new_org, changed, new_root) = graft_shard(ctx, org, old_root, &sctx, &sorg)?;
        if dln_fault::should_fail("reopt.crash_mid_publish") {
            return Err(injected("reopt.crash_mid_publish"));
        }
        let expected_fingerprint = new_org.fingerprint();
        Ok(Advance::Staged(Box::new(CycleStage {
            org: new_org,
            changed,
            shard: plan.shard,
            new_root,
            expected_fingerprint,
            stats,
        })))
    }

    /// Commit a published cycle: update the shard root, clear the plan,
    /// bump the cycle counter (all durably, in one atomic state write),
    /// then compact the evidence log and discard the search checkpoint.
    pub fn mark_published(&mut self, shard: usize, new_root: StateId) -> DlnResult<()> {
        if self.state.plan.is_none() {
            return Err(DlnError::InvalidConfig(
                "mark_published without an in-flight cycle".to_string(),
            ));
        }
        if shard >= self.state.shard_roots.len() {
            return Err(DlnError::InvalidConfig(format!(
                "published shard {shard} out of range"
            )));
        }
        self.state.shard_roots[shard] = new_root;
        self.state.plan = None;
        self.state.cycle += 1;
        self.save_state()?;
        self.evidence.compact()?;
        cycle::discard_checkpoint(&self.cfg.ckpt_path());
        Ok(())
    }

    /// Plan the next cycle from cumulative evidence: propagate session
    /// mass through the organization along blended transitions, pick the
    /// re-optimizable shard with the highest demand, and derive its
    /// demand-weighted objective. Pure function of (evidence, org) — a
    /// replanned crash reproduces the identical plan.
    fn plan_cycle(&self, ctx: &OrgContext, org: &Organization) -> DlnResult<Option<PlanState>> {
        let log = self.evidence.state();
        if log.n_sessions() == 0 {
            return Ok(None);
        }
        // Session mass per state, root-first along blended transitions.
        let mut mass = vec![0.0f64; org.n_slots()];
        mass[org.root().index()] = 1.0;
        for &s in org.topo_order() {
            let st = org.state(s);
            if st.children.is_empty() || mass[s.index()] == 0.0 {
                continue;
            }
            let prior = vec![1.0 / st.children.len() as f64; st.children.len()];
            let blended = log.blended_transitions(org, s, &prior, self.cfg.prior_strength);
            let m = mass[s.index()];
            for (&c, p) in st.children.iter().zip(&blended) {
                mass[c.index()] += m * p;
            }
        }
        // Highest-demand re-optimizable shard (≥ 2 tags, not the global
        // root itself); ties break to the lowest index.
        let mut best: Option<(usize, f64)> = None;
        for (i, tags) in self.shard_tags.iter().enumerate() {
            let root = self.state.shard_roots[i];
            if tags.len() < 2 || root == org.root() {
                continue;
            }
            let demand = mass[root.index()];
            if best.is_none_or(|(_, d)| demand > d) {
                best = Some((i, demand));
            }
        }
        let Some((shard, _)) = best else {
            return Ok(None);
        };
        let tags = self.shard_tags[shard].clone();
        // Fractional tag demand: each visited state's walk mass spreads
        // evenly over its member tags, so a session expresses preference
        // with every step — not only on the (rare) walks that reach a
        // tag-state sink. The root spreads over all tags (a uniform,
        // harmless shift); deep states concentrate demand.
        let mut tag_demand = vec![0.0f64; ctx.n_tags()];
        for s in org.alive_ids() {
            let v = log.visits(s) as f64;
            if v == 0.0 {
                continue;
            }
            let member: Vec<u32> = org.state(s).tags.iter().collect();
            if member.is_empty() {
                continue;
            }
            let share = v / member.len() as f64;
            for t in member {
                tag_demand[t as usize] += share;
            }
        }
        // Demand weights over the shard context's tables: pseudo-count
        // plus the demand of the tags its attributes carry.
        let sctx = OrgContext::for_tag_group(self.lake, &tags);
        let mut weights = Vec::with_capacity(sctx.n_tables());
        for table in sctx.tables() {
            let mut demand = self.cfg.prior_strength;
            for &a in &table.attrs {
                for &lt in &sctx.attr(a).tags {
                    if let Some(f) = ctx.local_tag(sctx.tag(lt).global) {
                        demand += tag_demand[f as usize];
                    }
                }
            }
            weights.push(demand);
        }
        let total: f64 = weights.iter().sum();
        let n = weights.len() as f64;
        for w in &mut weights {
            *w *= n / total;
        }
        Ok(Some(PlanState {
            shard,
            seed: derive_cycle_seed(self.cfg.search.seed, self.state.cycle, shard as u64),
            pre_fp: org.fingerprint(),
            weights,
            tags,
        }))
    }
}

/// Derive the per-cycle search seed from the base seed (splitmix-style
/// mixing, matching the repo's substream discipline).
pub fn derive_cycle_seed(base: u64, cycle: u64, shard: u64) -> u64 {
    let mut z = base
        .wrapping_add(cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(shard.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Graft a re-optimized shard organization (over `sctx`) back into the
/// full organization, replacing the subtree under `old_root`: strip and
/// tombstone the old shard interiors, graft the new shard in (tag states
/// keep their slots, interiors are appended), re-link the junction
/// parents of `old_root` to the new root, and validate.
///
/// Deterministic: the same inputs produce the same slots, edges and
/// fingerprint — which is what makes a crash between graft and publish
/// recoverable by simply redoing both. Returns the new organization, the
/// sorted changed-slot set, and the new shard root.
fn graft_shard(
    ctx: &OrgContext,
    base: &Organization,
    old_root: StateId,
    sctx: &OrgContext,
    sorg: &Organization,
) -> DlnResult<(Organization, Vec<u32>, StateId)> {
    let mut out = base.clone();
    if old_root == out.root() {
        return Err(DlnError::InvalidConfig(
            "cannot shard-republish the global root".to_string(),
        ));
    }
    let junctions = out.state(old_root).parents.clone();
    if junctions.is_empty() {
        return Err(DlnError::corrupt(
            "reopt.graft",
            "shard root has no junction parents",
        ));
    }
    let mut changed: Vec<u32> = Vec::new();
    cycle::strip_interiors(&mut out, old_root, &mut changed);
    let new_root = cycle::graft_subtree(&mut out, ctx, sctx, sorg, &mut changed)?;
    for &j in &junctions {
        out.add_edge(j, new_root);
    }
    changed.sort_unstable();
    changed.dedup();
    out.validate(ctx)
        .map_err(|m| DlnError::corrupt("reopt.graft", m))?;
    Ok((out, changed, new_root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use crate::search::{self, ShardPolicy};
    use crate::shard::build_sharded;
    use dln_synth::TagCloudConfig;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dln_reopt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn sample_delta(seed: u64) -> NavigationLog {
        let mut log = NavigationLog::new();
        log.record_walk(&[StateId(0), StateId((seed % 5) as u32 + 1)]);
        log
    }

    #[test]
    fn evidence_log_roundtrip_and_compaction() {
        let dir = tmp("evlog");
        let base = dir.join("evidence");
        let _clean = dln_fault::scoped("").expect("clean scope");
        let mut ev = EvidenceLog::open(&base).expect("open");
        assert_eq!(ev.last_seq(), 0);
        ev.append(&sample_delta(1)).expect("append 1");
        ev.append(&sample_delta(2)).expect("append 2");
        assert_eq!(ev.last_seq(), 2);
        assert_eq!(ev.state().n_sessions(), 2);
        // Reopen: WAL replays.
        let ev2 = EvidenceLog::open(&base).expect("reopen");
        assert_eq!(ev2.last_seq(), 2);
        assert_eq!(ev2.state().encode(), ev.state().encode());
        // Compact, append more, reopen: snapshot + newer frames merge
        // into one cumulative log.
        ev.compact().expect("compact");
        ev.append(&sample_delta(3)).expect("append 3");
        let ev3 = EvidenceLog::open(&base).expect("reopen after compact");
        assert_eq!(ev3.last_seq(), 3);
        assert_eq!(ev3.state().n_sessions(), 3);
        assert_eq!(ev3.state().encode(), ev.state().encode());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn undecodable_evidence_frame_is_quarantined_without_losing_later_frames() {
        // Acked frame 1, a checksum-valid frame 2 whose payload is junk,
        // acked frame 3: reopening must keep frame 3 and the file intact.
        let dir = tmp("evquarantine");
        let base = dir.join("evidence");
        let _clean = dln_fault::scoped("").expect("clean scope");
        let mut wal = persist::encode_frame(1, &sample_delta(1).encode());
        wal.extend_from_slice(&persist::encode_frame(2, b"not a navigation log"));
        wal.extend_from_slice(&persist::encode_frame(3, &sample_delta(3).encode()));
        let wal_path = persist::wal_path(&base);
        std::fs::write(&wal_path, &wal).expect("write wal");
        let ev = EvidenceLog::open(&base).expect("open quarantines, not fails");
        assert_eq!(ev.last_seq(), 3);
        let mut expect = sample_delta(1);
        expect.merge(&sample_delta(3));
        assert_eq!(ev.state().encode(), expect.encode());
        assert_eq!(ev.quarantined(), 1);
        assert_eq!(
            std::fs::read(&wal_path).expect("read wal"),
            wal,
            "the WAL is not truncated"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn state_roundtrip_with_and_without_plan() {
        let dir = tmp("state");
        let path = dir.join("reopt.state");
        let idle = ReoptState {
            cycle: 3,
            shard_roots: vec![StateId(10), StateId(20)],
            plan: None,
        };
        persist::atomic_write(&path, &idle.encode()).expect("write");
        let back = ReoptState::load(&path).expect("load");
        assert_eq!(back.cycle, 3);
        assert_eq!(back.shard_roots, idle.shard_roots);
        assert!(back.plan.is_none());
        let planned = ReoptState {
            plan: Some(PlanState {
                shard: 1,
                seed: 0xDEAD_BEEF,
                pre_fp: 42,
                weights: vec![0.5, 1.5, 1.0],
                tags: vec![TagId(4), TagId(7)],
            }),
            ..idle
        };
        persist::atomic_write(&path, &planned.encode()).expect("write");
        let back = ReoptState::load(&path).expect("load planned");
        let plan = back.plan.expect("plan present");
        assert_eq!(plan.shard, 1);
        assert_eq!(plan.seed, 0xDEAD_BEEF);
        assert_eq!(plan.weights, vec![0.5, 1.5, 1.0]);
        assert_eq!(plan.tags, vec![TagId(4), TagId(7)]);
        // Corruption sweep: every flipped byte is rejected.
        let bytes = planned.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(ReoptState::load_bytes_for_test(&bad).is_err(), "flip {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    impl ReoptState {
        fn load_bytes_for_test(bytes: &[u8]) -> DlnResult<ReoptState> {
            let dir = std::env::temp_dir();
            let path = dir.join(format!("dln_reopt_flip_{}", std::process::id()));
            std::fs::write(&path, bytes).expect("write");
            let r = ReoptState::load(&path);
            std::fs::remove_file(&path).ok();
            r
        }
    }

    #[test]
    fn graft_preserves_untouched_shards_and_is_deterministic() {
        let _clean = dln_fault::scoped("").expect("clean scope");
        let bench = TagCloudConfig::small().generate();
        let cfg = SearchConfig {
            max_iters: 60,
            plateau_iters: 20,
            shards: ShardPolicy::Fixed(2),
            ..SearchConfig::default()
        };
        let sharded = build_sharded(&bench.lake, &cfg);
        let ctx = &sharded.built.ctx;
        let org = &sharded.built.organization;
        let shard = 0usize;
        let tags = sharded.shard_tags[shard].clone();
        let sctx = OrgContext::for_tag_group(&bench.lake, &tags);
        let mut sorg = init::clustering_org(&sctx);
        let scfg = SearchConfig {
            max_iters: 40,
            plateau_iters: 15,
            seed: 7,
            ..SearchConfig::default()
        };
        search::optimize(&sctx, &mut sorg, &scfg);
        let old_root = sharded.shard_roots[shard];
        let (g1, changed1, root1) = graft_shard(ctx, org, old_root, &sctx, &sorg).expect("graft");
        let (g2, changed2, root2) = graft_shard(ctx, org, old_root, &sctx, &sorg).expect("regraft");
        assert_eq!(g1.fingerprint(), g2.fingerprint(), "graft is deterministic");
        assert_eq!(changed1, changed2);
        assert_eq!(root1, root2);
        // Tag states keep their slots; the other shard's subtree is
        // untouched (no changed slot reachable from its root).
        for t in 0..ctx.n_tags() as u32 {
            assert_eq!(g1.tag_state(t), org.tag_state(t));
        }
        let other_root = sharded.shard_roots[1];
        for s in g1.descendants_of(&[other_root]) {
            assert!(
                changed1.binary_search(&s.0).is_err(),
                "untouched shard slot {} must not be in the changed set",
                s.0
            );
        }
        // The old shard interiors are tombstoned; the new root is alive
        // and reaches exactly the shard's tag states.
        assert!(!g1.state(old_root).alive);
        assert!(g1.state(root1).alive);
        let reached: std::collections::HashSet<u32> = g1
            .descendants_of(&[root1])
            .into_iter()
            .filter_map(|s| g1.state(s).tag)
            .collect();
        let expect: std::collections::HashSet<u32> = tags
            .iter()
            .map(|t| ctx.local_tag(*t).expect("tag in full ctx"))
            .collect();
        assert_eq!(reached, expect);
    }

    #[test]
    fn derive_cycle_seed_varies_by_cycle_and_shard() {
        let s0 = derive_cycle_seed(1, 0, 0);
        assert_ne!(s0, derive_cycle_seed(1, 1, 0));
        assert_ne!(s0, derive_cycle_seed(1, 0, 1));
        assert_eq!(s0, derive_cycle_seed(1, 0, 0), "pure function");
    }
}
