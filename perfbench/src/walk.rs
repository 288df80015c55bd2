//! The navigator model shared by the serving phases: each session has its
//! own query topic and walks query-ranked descend / backtrack /
//! list-tables steps, choosing from the children of its last view. A
//! navigator that starts over at the root takes up a new topic from the
//! run's pool, so a run's cost averages over many topics and not over the
//! few that the Zipf-hottest sessions began with.

use std::sync::Arc;

use dln_org::StateId;
use dln_serve::{StepAction, StepRequest, StepResponse};

use crate::stats::Rng;

/// Deepest state a walker descends to before it backs up.
const MAX_DEPTH: usize = 8;

/// One navigating session's view of where it is.
#[derive(Clone, Debug)]
pub struct Walker {
    topics: Arc<[Vec<f32>]>,
    topic: usize,
    children: Vec<StateId>,
    depth: usize,
    epoch: u64,
    fresh: bool,
}

impl Walker {
    /// A walker on topic `first` of `topics`.
    pub fn new(topics: Arc<[Vec<f32>]>, first: usize) -> Walker {
        Walker {
            topics,
            topic: first,
            children: Vec::new(),
            depth: 0,
            epoch: 0,
            fresh: true,
        }
    }

    /// The next request: the first step renders the root; then descend
    /// into a highly ranked child (65%), back up (20%) or list the tables
    /// under the current state (15%). At a leaf or the depth cap it starts
    /// over from the root on a new topic (60%) or backs up.
    /// When `published` shows an epoch newer than the last view's, the
    /// view is refreshed first, as a client does after a publish: its
    /// children may no longer exist.
    pub fn request(&mut self, rng: &mut Rng, published: Option<u64>) -> StepRequest {
        let r = rng.unit();
        let top = rng.unit() < 0.6;
        let pick = rng.below(self.children.len().min(3));
        let stale = published.is_some_and(|e| e != self.epoch);
        let (action, list_tables) = if self.fresh || stale {
            (StepAction::Stay, true)
        } else if self.children.is_empty() || self.depth >= MAX_DEPTH {
            // At the bottom a navigator mostly starts over, so walks keep
            // crossing the whole organization.
            if top {
                self.topic = rng.below(self.topics.len());
                (StepAction::Reset, false)
            } else {
                (StepAction::Backtrack, false)
            }
        } else if r < 0.65 {
            let child = self.children[if top { 0 } else { pick }];
            (StepAction::Descend(child), false)
        } else if r < 0.85 && self.depth > 0 {
            (StepAction::Backtrack, false)
        } else {
            (StepAction::Stay, true)
        };
        StepRequest {
            action,
            query: Some(self.topics[self.topic].clone()),
            deadline_ms: None,
            list_tables,
        }
    }

    /// A request that only re-renders the current view.
    pub fn refresh(&self) -> StepRequest {
        StepRequest {
            action: StepAction::Stay,
            query: Some(self.topics[self.topic].clone()),
            deadline_ms: None,
            list_tables: false,
        }
    }

    /// Take in the response to the last request.
    pub fn observe(&mut self, resp: &StepResponse) {
        self.fresh = false;
        self.epoch = resp.epoch;
        self.depth = resp.depth;
        self.children.clear();
        self.children.extend(resp.children.iter().map(|c| c.state));
    }
}

/// Whether two responses show the same view, bit for bit (session ids
/// aside): state, depth, labels, ranking probabilities and tables.
pub fn same_view(a: &StepResponse, b: &StepResponse) -> bool {
    a.epoch == b.epoch
        && a.state == b.state
        && a.depth == b.depth
        && a.label == b.label
        && a.at_tag_state == b.at_tag_state
        && a.degraded == b.degraded
        && a.swap == b.swap
        && a.tables == b.tables
        && a.children.len() == b.children.len()
        && a.children.iter().zip(&b.children).all(|(x, y)| {
            x.state == y.state
                && x.label == y.label
                && x.prob.map(f64::to_bits) == y.prob.map(f64::to_bits)
        })
}
