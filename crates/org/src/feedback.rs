//! Behaviour logs and incremental transition-model updates.
//!
//! §2.4 of the paper: "Since our model uses a standard Markov model, we can
//! apply existing incremental model estimation techniques to maintain and
//! update the transition probabilities as behavior logs and workload
//! patterns become available through the use of an organization by users."
//!
//! This module implements that loop:
//!
//! * [`NavigationLog`] accumulates user walks (from the real navigator or
//!   the simulated study agents) as per-state visit counts and per-edge
//!   choice counts;
//! * [`NavigationLog::blended_transitions`] produces a posterior transition
//!   distribution for a state — a Dirichlet-smoothed blend of the content
//!   model (Eq 1, the prior) and the observed click-through counts — which
//!   the navigator can expose as "popular next steps";
//! * [`NavigationLog::empirical_reachability`] gives per-state visit
//!   frequencies, usable in place of (or mixed with) Eq 10's model
//!   reachability to steer the local search toward states real users
//!   fail to reach.

use std::collections::HashMap;
use std::path::Path;

use dln_fault::{DlnError, DlnResult};
use dln_persist as persist;

use crate::graph::{Organization, StateId};

/// Magic prefix of a serialized [`NavigationLog`].
const LOG_MAGIC: &[u8; 8] = b"DLNAVLOG";
/// Current on-disk format version of a serialized [`NavigationLog`].
const LOG_VERSION: u8 = 1;

/// Accumulated navigation behaviour over an organization.
#[derive(Clone, Debug, Default)]
pub struct NavigationLog {
    /// Visits per state slot.
    visits: HashMap<u32, u64>,
    /// Chosen transitions: `(parent, child) → count`.
    choices: HashMap<(u32, u32), u64>,
    /// Number of recorded walks.
    sessions: u64,
}

impl NavigationLog {
    /// An empty log.
    pub fn new() -> NavigationLog {
        NavigationLog::default()
    }

    /// Record one walk (the `path()` of a navigator session, or any
    /// root-to-wherever state sequence). Consecutive pairs are counted as
    /// chosen transitions; every state on the path is counted as visited.
    pub fn record_walk(&mut self, path: &[StateId]) {
        if path.is_empty() {
            return;
        }
        self.sessions += 1;
        for s in path {
            *self.visits.entry(s.0).or_insert(0) += 1;
        }
        for w in path.windows(2) {
            *self.choices.entry((w[0].0, w[1].0)).or_insert(0) += 1;
        }
    }

    /// Merge another log into this one (e.g. per-user logs into a global
    /// one — the incremental-estimation setting).
    pub fn merge(&mut self, other: &NavigationLog) {
        for (k, v) in &other.visits {
            *self.visits.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.choices {
            *self.choices.entry(*k).or_insert(0) += v;
        }
        self.sessions += other.sessions;
    }

    /// Subtract a previously [`merge`](Self::merge)d (or cloned) log from
    /// this one — the acknowledgement half of an ack-after-durable drain:
    /// the optimizer clones the live log, persists the clone, and only then
    /// subtracts exactly what it persisted, so walks merged in between the
    /// two steps survive untouched. Counts saturate at zero and exhausted
    /// entries are removed, so draining everything leaves an empty log.
    pub fn subtract(&mut self, drained: &NavigationLog) {
        for (k, v) in &drained.visits {
            if let Some(e) = self.visits.get_mut(k) {
                *e = e.saturating_sub(*v);
                if *e == 0 {
                    self.visits.remove(k);
                }
            }
        }
        for (k, v) in &drained.choices {
            if let Some(e) = self.choices.get_mut(k) {
                *e = e.saturating_sub(*v);
                if *e == 0 {
                    self.choices.remove(k);
                }
            }
        }
        self.sessions = self.sessions.saturating_sub(drained.sessions);
    }

    /// Number of recorded walks.
    pub fn n_sessions(&self) -> u64 {
        self.sessions
    }

    /// Visits of a state.
    pub fn visits(&self, s: StateId) -> u64 {
        self.visits.get(&s.0).copied().unwrap_or(0)
    }

    /// Times the transition `parent → child` was chosen.
    pub fn choices(&self, parent: StateId, child: StateId) -> u64 {
        self.choices.get(&(parent.0, child.0)).copied().unwrap_or(0)
    }

    /// Per-slot empirical reachability: the fraction of sessions that
    /// visited each state. Zero-length output for an empty log.
    pub fn empirical_reachability(&self, org: &Organization) -> Vec<f64> {
        let mut out = vec![0.0f64; org.n_slots()];
        if self.sessions == 0 {
            return out;
        }
        for (slot, count) in &self.visits {
            if let Some(o) = out.get_mut(*slot as usize) {
                *o = *count as f64 / self.sessions as f64;
            }
        }
        out
    }

    /// Posterior transition distribution from `parent`, blending a model
    /// prior (Eq 1 probabilities, parallel to `parent`'s children) with the
    /// observed choice counts under a Dirichlet prior of strength
    /// `prior_strength` (pseudo-counts):
    ///
    /// ```text
    /// P̂(c | s) = (count(s → c) + strength · P_model(c | s))
    ///            / (Σ_c count(s → c) + strength)
    /// ```
    ///
    /// With no observations this returns the prior; with many observations
    /// it converges to the empirical click-through distribution — the
    /// standard incremental Markov-model update the paper points at.
    pub fn blended_transitions(
        &self,
        org: &Organization,
        parent: StateId,
        model_prior: &[f64],
        prior_strength: f64,
    ) -> Vec<f64> {
        let children = &org.state(parent).children;
        assert_eq!(
            children.len(),
            model_prior.len(),
            "one prior probability per child"
        );
        assert!(prior_strength > 0.0, "prior strength must be positive");
        let counts: Vec<f64> = children
            .iter()
            .map(|&c| self.choices(parent, c) as f64)
            .collect();
        let total: f64 = counts.iter().sum::<f64>() + prior_strength;
        counts
            .iter()
            .zip(model_prior)
            .map(|(n, p)| (n + prior_strength * p) / total)
            .collect()
    }

    /// Reachability for local-search targeting: a convex mix of the model
    /// reachability (Eq 10) and the empirical visit frequencies —
    /// `(1 − w) · model + w · empirical`. With `w = 0` this is the pure
    /// paper algorithm; as logs accumulate, raising `w` steers the
    /// optimizer toward the states *actual users* fail to reach.
    pub fn mixed_reachability(
        &self,
        org: &Organization,
        model: &[f64],
        empirical_weight: f64,
    ) -> Vec<f64> {
        assert!((0.0..=1.0).contains(&empirical_weight));
        let emp = self.empirical_reachability(org);
        model
            .iter()
            .zip(emp.iter().chain(std::iter::repeat(&0.0)))
            .map(|(m, e)| (1.0 - empirical_weight) * m + empirical_weight * e)
            .collect()
    }

    /// Serialize to a versioned, FNV-1a-sealed byte record. Map entries are
    /// written in sorted key order, so identical logs produce identical
    /// bytes regardless of `HashMap` iteration order — a requirement for
    /// the evidence log's exactly-once accounting and for fingerprint
    /// comparisons across restarts.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = persist::Writer::with_capacity(
            8 + 1 + 8 + 8 + self.visits.len() * 12 + 8 + self.choices.len() * 16 + 8,
        );
        w.bytes(LOG_MAGIC);
        w.u8(LOG_VERSION);
        w.u64(self.sessions);
        let mut visits: Vec<(u32, u64)> = self.visits.iter().map(|(k, v)| (*k, *v)).collect();
        visits.sort_unstable();
        w.u64(visits.len() as u64);
        for (slot, count) in visits {
            w.u32(slot);
            w.u64(count);
        }
        let mut choices: Vec<((u32, u32), u64)> =
            self.choices.iter().map(|(k, v)| (*k, *v)).collect();
        choices.sort_unstable();
        w.u64(choices.len() as u64);
        for ((parent, child), count) in choices {
            w.u32(parent);
            w.u32(child);
            w.u64(count);
        }
        w.seal()
    }

    /// Decode a record produced by [`encode`](Self::encode), verifying the
    /// trailing checksum, magic, and version. `context` names the source
    /// (e.g. a path) in error messages.
    pub fn decode(bytes: &[u8], context: &str) -> DlnResult<NavigationLog> {
        let payload = persist::verify_sealed(bytes, context)?;
        let mut r = persist::Reader::new(payload, 0, context);
        let magic = r.take(8)?;
        if magic != LOG_MAGIC {
            return Err(DlnError::corrupt(context, "not a navigation log"));
        }
        let version = r.u8()?;
        if version != LOG_VERSION {
            return Err(DlnError::corrupt(
                context,
                format!("unsupported navigation-log version {version}"),
            ));
        }
        let sessions = r.u64()?;
        let n_visits = r.u64()? as usize;
        if n_visits > payload.len() {
            return Err(DlnError::corrupt(
                context,
                format!("implausible visit count {n_visits}"),
            ));
        }
        let mut visits = HashMap::with_capacity(n_visits);
        for _ in 0..n_visits {
            let slot = r.u32()?;
            let count = r.u64()?;
            visits.insert(slot, count);
        }
        let n_choices = r.u64()? as usize;
        if n_choices > payload.len() {
            return Err(DlnError::corrupt(
                context,
                format!("implausible choice count {n_choices}"),
            ));
        }
        let mut choices = HashMap::with_capacity(n_choices);
        for _ in 0..n_choices {
            let parent = r.u32()?;
            let child = r.u32()?;
            let count = r.u64()?;
            choices.insert((parent, child), count);
        }
        if r.pos() != payload.len() {
            return Err(DlnError::corrupt(
                context,
                format!("{} trailing bytes", payload.len() - r.pos()),
            ));
        }
        Ok(NavigationLog {
            visits,
            choices,
            sessions,
        })
    }

    /// Atomically persist the log at `path` (tmp + fsync + rename, rotating
    /// the previous generation to `<path>.prev`).
    pub fn save(&self, path: &Path) -> DlnResult<()> {
        persist::atomic_write(path, &self.encode())
    }

    /// Load a log saved by [`save`](Self::save), without fallback.
    pub fn load(path: &Path) -> DlnResult<NavigationLog> {
        let bytes = std::fs::read(path).map_err(|e| DlnError::io(path.display().to_string(), e))?;
        NavigationLog::decode(&bytes, &path.display().to_string())
    }

    /// Load a log saved by [`save`](Self::save), falling back to the
    /// rotated `<path>.prev` generation when the newest file is torn.
    pub fn load_with_fallback(path: &Path) -> DlnResult<NavigationLog> {
        persist::load_with_fallback(path, "navigation log", NavigationLog::load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::OrgContext;
    use crate::init::clustering_org;
    use dln_synth::TagCloudConfig;

    fn setup() -> (OrgContext, Organization) {
        let bench = TagCloudConfig::small().generate();
        let ctx = OrgContext::full(&bench.lake);
        let org = clustering_org(&ctx);
        (ctx, org)
    }

    #[test]
    fn record_and_count() {
        let (_ctx, org) = setup();
        let mut log = NavigationLog::new();
        let root = org.root();
        let c0 = org.state(root).children[0];
        let c1 = org.state(root).children[1];
        log.record_walk(&[root, c0]);
        log.record_walk(&[root, c0]);
        log.record_walk(&[root, c1]);
        assert_eq!(log.n_sessions(), 3);
        assert_eq!(log.visits(root), 3);
        assert_eq!(log.choices(root, c0), 2);
        assert_eq!(log.choices(root, c1), 1);
        assert_eq!(log.choices(c0, root), 0, "direction matters");
    }

    #[test]
    fn empty_walk_is_ignored() {
        let mut log = NavigationLog::new();
        log.record_walk(&[]);
        assert_eq!(log.n_sessions(), 0);
    }

    #[test]
    fn empirical_reachability_is_session_fraction() {
        let (_ctx, org) = setup();
        let mut log = NavigationLog::new();
        let root = org.root();
        let c0 = org.state(root).children[0];
        log.record_walk(&[root, c0]);
        log.record_walk(&[root]);
        let r = log.empirical_reachability(&org);
        assert!((r[root.index()] - 1.0).abs() < 1e-12);
        assert!((r[c0.index()] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn blended_transitions_interpolate_prior_and_counts() {
        let (_ctx, org) = setup();
        let mut log = NavigationLog::new();
        let root = org.root();
        let children = org.state(root).children.clone();
        assert_eq!(children.len(), 2);
        let prior = vec![0.5, 0.5];
        // No data → the prior.
        let p0 = log.blended_transitions(&org, root, &prior, 10.0);
        assert!((p0[0] - 0.5).abs() < 1e-12);
        // Heavy clicks on child 0 → converges toward the clicks.
        for _ in 0..90 {
            log.record_walk(&[root, children[0]]);
        }
        for _ in 0..10 {
            log.record_walk(&[root, children[1]]);
        }
        let p = log.blended_transitions(&org, root, &prior, 10.0);
        assert!((p[0] + p[1] - 1.0).abs() < 1e-12, "distribution sums to 1");
        assert!(p[0] > 0.8, "click-through dominates: {}", p[0]);
        assert!(p[0] < 0.9, "prior still smooths: {}", p[0]);
    }

    #[test]
    fn mixed_reachability_bounds() {
        let (_ctx, org) = setup();
        let mut log = NavigationLog::new();
        log.record_walk(&[org.root()]);
        let model = vec![0.2; org.n_slots()];
        let pure_model = log.mixed_reachability(&org, &model, 0.0);
        assert!(pure_model.iter().all(|&v| (v - 0.2).abs() < 1e-12));
        let pure_emp = log.mixed_reachability(&org, &model, 1.0);
        assert!((pure_emp[org.root().index()] - 1.0).abs() < 1e-12);
        assert!(pure_emp
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != org.root().index())
            .all(|(_, &v)| v == 0.0));
    }

    #[test]
    fn merge_accumulates() {
        let (_ctx, org) = setup();
        let root = org.root();
        let c0 = org.state(root).children[0];
        let mut a = NavigationLog::new();
        a.record_walk(&[root, c0]);
        let mut b = NavigationLog::new();
        b.record_walk(&[root, c0]);
        b.record_walk(&[root]);
        a.merge(&b);
        assert_eq!(a.n_sessions(), 3);
        assert_eq!(a.choices(root, c0), 2);
        assert_eq!(a.visits(root), 3);
    }

    #[test]
    fn concurrent_interleaved_merges_are_order_invariant() {
        // The serving layer merges per-session logs into one service log in
        // whatever order sessions happen to close/evict across threads.
        // Reorganization quality then depends on this: whatever the
        // interleaving, the merged counts — and everything derived from
        // them, like empirical reachability — must equal the fixed-order
        // serial merge.
        use std::sync::Mutex;

        let (_ctx, org) = setup();
        let root = org.root();
        let children = org.state(root).children.clone();

        // 16 distinct per-session logs (different walks and multiplicities).
        let session_logs: Vec<NavigationLog> = (0..16u64)
            .map(|i| {
                let mut l = NavigationLog::new();
                let c = children[(i as usize) % children.len()];
                for _ in 0..=(i % 5) {
                    l.record_walk(&[root, c]);
                }
                if i % 3 == 0 {
                    l.record_walk(&[root]);
                }
                l
            })
            .collect();

        // Reference: serial merge in index order.
        let mut reference = NavigationLog::new();
        for l in &session_logs {
            reference.merge(l);
        }
        let ref_reach = reference.empirical_reachability(&org);

        // Concurrent: four threads race to merge four logs each, so the
        // arrival order at the shared log is scheduler-chosen.
        for round in 0..8 {
            let shared = Mutex::new(NavigationLog::new());
            std::thread::scope(|scope| {
                for chunk in session_logs.chunks(4) {
                    let shared = &shared;
                    scope.spawn(move || {
                        for l in chunk {
                            // Tiny stagger to vary interleavings per round.
                            if round % 2 == 1 {
                                std::thread::yield_now();
                            }
                            shared.lock().unwrap().merge(l);
                        }
                    });
                }
            });
            let merged = shared.into_inner().unwrap();
            assert_eq!(merged.n_sessions(), reference.n_sessions());
            assert_eq!(merged.visits(root), reference.visits(root));
            for &c in &children {
                assert_eq!(merged.visits(c), reference.visits(c));
                assert_eq!(merged.choices(root, c), reference.choices(root, c));
            }
            let reach = merged.empirical_reachability(&org);
            assert_eq!(
                reach, ref_reach,
                "round {round}: reachability must not depend on merge order"
            );
        }
    }

    #[test]
    fn navigator_paths_feed_the_log() {
        // Integration with the navigator: greedy sessions produce walks the
        // log can consume, and popular tags become visibly reachable.
        let (ctx, org) = setup();
        let mut log = NavigationLog::new();
        let nav_cfg = crate::eval::NavConfig::default();
        for t in 0..6u32 {
            let query = ctx.tag(t).unit_topic.clone();
            let mut nav = crate::navigate::Navigator::new(&ctx, &org, nav_cfg);
            for _ in 0..32 {
                let probs = nav.transition_probs(&query);
                let Some((best, _)) = probs
                    .iter()
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .copied()
                else {
                    break;
                };
                nav.descend(best).unwrap();
            }
            log.record_walk(nav.path());
        }
        assert_eq!(log.n_sessions(), 6);
        let r = log.empirical_reachability(&org);
        assert!((r[org.root().index()] - 1.0).abs() < 1e-12);
        assert!(r.iter().filter(|&&v| v > 0.0).count() > 6);
    }

    fn sample_log() -> NavigationLog {
        let mut log = NavigationLog::new();
        log.record_walk(&[StateId(9), StateId(2), StateId(5)]);
        log.record_walk(&[StateId(9), StateId(2)]);
        log.record_walk(&[StateId(9), StateId(7), StateId(1), StateId(0)]);
        log
    }

    fn logs_equal(a: &NavigationLog, b: &NavigationLog) -> bool {
        a.sessions == b.sessions && a.visits == b.visits && a.choices == b.choices
    }

    #[test]
    fn encode_decode_roundtrip_and_determinism() {
        let log = sample_log();
        let bytes = log.encode();
        let back = NavigationLog::decode(&bytes, "test").expect("decode");
        assert!(logs_equal(&log, &back));
        // Deterministic bytes: re-encoding (and encoding a rebuilt clone
        // whose HashMaps have a different insertion history) is identical.
        assert_eq!(bytes, back.encode());
        let mut rebuilt = NavigationLog::new();
        rebuilt.merge(&back);
        assert_eq!(bytes, rebuilt.encode());
        // Empty log round-trips too.
        let empty = NavigationLog::new();
        let back = NavigationLog::decode(&empty.encode(), "test").expect("decode empty");
        assert!(logs_equal(&empty, &back));
    }

    #[test]
    fn every_flipped_byte_is_rejected() {
        let bytes = sample_log().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            let err = NavigationLog::decode(&bad, "test").unwrap_err();
            assert!(
                matches!(err, dln_fault::DlnError::Corrupt { .. }),
                "flip at byte {i}: {err}"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample_log().encode();
        for n in 0..bytes.len() {
            let err = NavigationLog::decode(&bytes[..n], "test").unwrap_err();
            assert!(
                matches!(err, dln_fault::DlnError::Corrupt { .. }),
                "truncation to {n} bytes: {err}"
            );
        }
    }

    #[test]
    fn save_load_and_prev_fallback() {
        let dir = std::env::temp_dir().join(format!("dln_navlog_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nav.log");
        let log = sample_log();
        log.save(&path).expect("save");
        let back = NavigationLog::load_with_fallback(&path).expect("load");
        assert!(logs_equal(&log, &back));
        // Second generation rotates the first to .prev; tearing the newest
        // file falls back to the previous generation.
        let mut newer = log.clone();
        newer.record_walk(&[StateId(9), StateId(3)]);
        newer.save(&path).expect("save gen 2");
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() * 2 / 3]).unwrap();
        let back = NavigationLog::load_with_fallback(&path).expect("fallback");
        assert!(logs_equal(&log, &back), "fell back to generation 1");
        // Both generations torn → Corrupt.
        std::fs::write(persist::prev_path(&path), b"junk").unwrap();
        let err = NavigationLog::load_with_fallback(&path).unwrap_err();
        assert!(matches!(err, dln_fault::DlnError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn subtract_is_exact_drain_ack() {
        let root = StateId(9);
        let c0 = StateId(2);
        let mut live = sample_log();
        // The optimizer clones the live log and persists it...
        let drained = live.clone();
        // ...while a new walk lands in between.
        live.record_walk(&[root, c0]);
        // The ack removes exactly what was drained; the interim walk stays.
        live.subtract(&drained);
        assert_eq!(live.n_sessions(), 1);
        assert_eq!(live.visits(root), 1);
        assert_eq!(live.choices(root, c0), 1);
        assert_eq!(live.visits(StateId(7)), 0, "drained entries are removed");
        // Draining everything leaves a log indistinguishable from empty.
        let rest = live.clone();
        live.subtract(&rest);
        assert!(logs_equal(&live, &NavigationLog::new()));
        assert!(live.visits.is_empty() && live.choices.is_empty());
    }
}
