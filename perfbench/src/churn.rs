//! The `churn` phase: writes beside reads. A TagCloud lake is built into a
//! 4-shard owned service. One thread feeds a seeded stream of change
//! events aimed at one hot shard through `Maintainer::ingest` (durable,
//! ack after fsync) and runs a maintenance cycle every `EVENTS_PER_CYCLE`
//! events; a second thread walks sessions through `NavService::step` in a
//! closed loop, with a short think time, meanwhile.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dln_embed::TopicAccumulator;
use dln_lake::{AttrChange, ChangeEvent, DataLake};
use dln_org::{build_sharded, Evaluator, Maintainer, Representatives, SearchConfig};
use dln_serve::{NavService, ServeConfig, ServeError, SessionId};
use dln_synth::TagCloudConfig;

use crate::config;
use crate::report::{Accounting, Report};
use crate::stats::{Hist, Rng, Samples, Summaries, Zipf};
use crate::trace;
use crate::walk::Walker;

/// Change events between two maintenance cycles.
pub const EVENTS_PER_CYCLE: u64 = 8;
/// Distinct event streams: round `r` replays stream `r % STREAMS`, and
/// `churn_effectiveness` is the mean over the streams.
pub const STREAMS: usize = 4;
/// The navigator's think time between steps.
const THINK: std::time::Duration = std::time::Duration::from_micros(50);
/// Maintenance cycles in one round.
pub const CYCLES_PER_ROUND: u64 = 12;
/// Sessions the navigator thread walks.
const SESSIONS: usize = 256;

/// What the churn phase measured.
#[derive(Default)]
pub struct ChurnPhase {
    pub ingest_us: Samples,
    pub cycle_s: Samples,
    pub step_us: Hist,
    /// p50 and p90 of the navigator's steps, one summary per round.
    pub step_rounds: Summaries,
    pub searched_shards: u64,
    pub n_shards: usize,
    pub changed_slots: u64,
    pub applied_events: u64,
    pub effectiveness: f64,
    pub serve_requests: u64,
    pub serve_overloaded: u64,
    pub serve_degraded: u64,
    pub serve_migrated: u64,
    pub serve_migrated_in_place: u64,
    /// Steps whose view went stale under a concurrent publish and were
    /// refreshed once.
    pub stale_retries: u64,
    pub ingest: Accounting,
    pub cycles: Accounting,
    pub steps: Accounting,
}

/// A topic accumulator near `label`'s direction, nudged deterministically,
/// so added tables land inside the hot shard's region.
fn topic_near(lake: &DataLake, label: &str, nudge: f32) -> TopicAccumulator {
    let mut acc = TopicAccumulator::new(lake.dim());
    if let Some(tid) = lake.tag_by_label(label) {
        let v: Vec<f32> = lake
            .tag(tid)
            .unit_topic
            .iter()
            .enumerate()
            .map(|(i, x)| x + nudge * ((i % 3) as f32 - 1.0))
            .collect();
        acc.add(&v);
    }
    acc
}

/// The seeded event stream: adds (half), removes and retags of the tables
/// it added earlier, all labelled from the hot shard.
struct Events {
    rng: Rng,
    hot: Vec<String>,
    live: Vec<String>,
    n: u64,
}

impl Events {
    fn next(&mut self, lake: &DataLake) -> ChangeEvent {
        self.n += 1;
        let roll = self.rng.below(4);
        let pick = |rng: &mut Rng, hot: &[String]| hot[rng.below(hot.len())].clone();
        if roll >= 2 || self.live.is_empty() {
            let name = format!("churn_{}", self.n);
            let first = pick(&mut self.rng, &self.hot);
            let mut tags = vec![first.clone()];
            if self.rng.below(3) == 0 {
                tags.push(pick(&mut self.rng, &self.hot));
            }
            self.live.push(name.clone());
            ChangeEvent::TableAdded {
                name,
                tags,
                attrs: vec![AttrChange {
                    name: "c0".to_string(),
                    topic: topic_near(lake, &first, 0.01 * (1 + self.n % 7) as f32),
                    n_values: 6,
                    tags: Vec::new(),
                }],
            }
        } else if roll == 0 {
            let i = self.rng.below(self.live.len());
            ChangeEvent::TableRemoved {
                name: self.live.swap_remove(i),
            }
        } else {
            let i = self.rng.below(self.live.len());
            let mut tags = vec![pick(&mut self.rng, &self.hot)];
            if self.rng.below(2) == 0 {
                tags.push(pick(&mut self.rng, &self.hot));
            }
            ChangeEvent::TableRetagged {
                name: self.live[i].clone(),
                tags,
            }
        }
    }
}

/// The churn phase's lake and running totals. The phase is a sequence of
/// identical rounds, each a fresh set-up followed by `CYCLES_PER_ROUND`
/// maintenance cycles with the navigator running.
pub struct ChurnRig {
    lake: DataLake,
    search: SearchConfig,
    dir: PathBuf,
    serve: ServeConfig,
    lake_seed: u64,
    seed: u64,
    invalid_paths: usize,
    publishes: u64,
    effectiveness: Vec<f64>,
}

impl ChurnRig {
    /// Generate the TagCloud lake from `lake_seed` (input, not timed),
    /// which also seeds the event streams; `seed` drives the navigator.
    /// The streams do not vary with `seed` because the work of a cycle
    /// depends strongly on which shards its events touch: across seeds
    /// the searched share of shards ranged 0.36-0.42 and the cycle time
    /// with it. Durable files go under `dir`.
    pub fn new(
        dir: &Path,
        serve: ServeConfig,
        lake_seed: u64,
        seed: u64,
        attrs: usize,
        proposals: usize,
    ) -> ChurnRig {
        let lake = TagCloudConfig {
            n_tags: (attrs / 12).max(16),
            n_attrs_target: attrs,
            store_values: false,
            seed: lake_seed,
            ..TagCloudConfig::small()
        }
        .generate()
        .lake;
        ChurnRig {
            lake,
            search: config::search(
                config::SEARCH_SEED,
                proposals,
                dln_org::ShardPolicy::Fixed(4),
            ),
            dir: dir.to_path_buf(),
            serve,
            lake_seed,
            seed,
            invalid_paths: 0,
            publishes: 0,
            effectiveness: Vec::new(),
        }
    }

    /// One round. Callers run more than `STREAMS` rounds.
    pub fn round(&mut self, out: &mut ChurnPhase) {
        let round = self.effectiveness.len();
        let mdir = self.dir.join(format!("maint{round}"));
        let _ = std::fs::remove_dir_all(&mdir);
        let stream =
            self.lake_seed ^ ((round % STREAMS) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let eff = run_round(
            &self.lake,
            &self.search,
            &mdir,
            self.serve,
            stream,
            self.seed ^ round as u64,
            out,
            &mut self.invalid_paths,
            &mut self.publishes,
        );
        self.effectiveness.push(eff);
        let _ = std::fs::remove_dir_all(&mdir);
    }

    /// Rounds run so far.
    pub fn rounds(&self) -> usize {
        self.effectiveness.len()
    }

    /// Record the phase's correctness checks.
    pub fn finish(self, out: &mut ChurnPhase, report: &mut Report) {
        let effs = &self.effectiveness;
        out.effectiveness = if effs.len() >= STREAMS {
            effs[..STREAMS].iter().sum::<f64>() / STREAMS as f64
        } else {
            f64::NAN
        };
        report.check(
            "churn.live_paths_valid_after_publish",
            self.invalid_paths == 0 && self.publishes > 0,
            format!(
                "{} invalid live paths over {} publishes",
                self.invalid_paths, self.publishes
            ),
        );
        report.check(
            "churn.effectiveness_repeats",
            effs.len() > STREAMS
                && effs
                    .iter()
                    .enumerate()
                    .all(|(i, e)| e.to_bits() == effs[i % STREAMS].to_bits()),
            format!("{} rounds: {effs:?}", effs.len()),
        );
    }
}

/// One round: set up, churn with a concurrent navigator, and return the
/// effectiveness after the final cycle.
#[allow(clippy::too_many_arguments)]
fn run_round(
    lake: &DataLake,
    search: &SearchConfig,
    mdir: &Path,
    serve: ServeConfig,
    stream_seed: u64,
    walk_seed: u64,
    out: &mut ChurnPhase,
    invalid_paths: &mut usize,
    publishes: &mut u64,
) -> f64 {
    let build = {
        let _s = trace::span("org.build_sharded", 0);
        build_sharded(lake, search)
    };
    let mut maint = {
        let _s = trace::span("maint.open", 0);
        Maintainer::for_build(
            lake,
            &build,
            config::maint(mdir, search.clone(), EVENTS_PER_CYCLE),
        )
        .expect("opening the maintainer")
    };
    let n_shards = build.n_shards();
    let hot: Vec<String> = build.shard_tags[0]
        .iter()
        .map(|&t| lake.tag(t).label.clone())
        .collect();
    let svc = {
        let _s = trace::span("serve.from_built", 0);
        NavService::from_built(build.built, serve)
    };
    out.n_shards = n_shards;

    let mut rng = Rng::new(walk_seed ^ 0xC4A2);
    let topics = crate::navigate::topics(&svc, SESSIONS, &mut rng);
    let mut walkers: Vec<(SessionId, Walker)> = (0..SESSIONS)
        .map(|i| {
            (
                svc.open_session().expect("opening a session"),
                Walker::new(Arc::clone(&topics), i),
            )
        })
        .collect();
    let zipf = Zipf::new(SESSIONS);
    let mut events = Events {
        rng: Rng::new(stream_seed ^ 0xE7E7),
        hot,
        live: Vec::new(),
        n: 0,
    };

    let stop = AtomicBool::new(false);
    let (steps, step_acc, stale_retries) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut acc = Accounting::default();
            let mut lat = Hist::default();
            let mut req_id = 2 * crate::metrics::SERVING_REQ_BASE;
            let mut stale_retries = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let i = zipf.sample(&mut rng);
                let (sid, w) = &mut walkers[i];
                let epoch = svc.epoch();
                let req = w.request(&mut rng, Some(epoch));
                req_id += 1;
                let t = Instant::now();
                let mut r = {
                    let _s = trace::span("serve.step", req_id);
                    svc.step(*sid, &req)
                };
                // A publish landed between reading the epoch and the step,
                // so the chosen child may be gone: like any client with a
                // stale view, refresh it. The step's time includes both.
                if matches!(r, Err(ServeError::Nav(_))) && svc.epoch() != epoch {
                    stale_retries += 1;
                    let _s = trace::span("serve.step", req_id);
                    r = svc.step(*sid, &w.refresh());
                }
                let us = t.elapsed().as_secs_f64() * 1e6;
                acc.note(&r);
                let us = if let Err(e) = &r {
                    eprintln!("churn step failed: {e}");
                    f64::INFINITY
                } else {
                    us
                };
                lat.push(us);
                if let Ok(resp) = r {
                    w.observe(&resp);
                }
                std::thread::sleep(THINK);
            }
            trace::flush_thread();
            (lat, acc, stale_retries)
        });

        for _ in 0..CYCLES_PER_ROUND {
            for _ in 0..EVENTS_PER_CYCLE {
                let ev = events.next(maint.lake());
                let t = Instant::now();
                let r = {
                    let _s = trace::span("cdc.ingest", events.n);
                    maint.ingest(&ev)
                };
                out.ingest_us.push(t.elapsed().as_secs_f64() * 1e6);
                match r {
                    Ok(_) => out.ingest.ok(),
                    Err(e) => {
                        out.ingest.attempted += 1;
                        out.ingest.failed += 1;
                        eprintln!("ingest failed: {e}");
                    }
                }
            }
            let t = Instant::now();
            let r = {
                let _s = trace::span("maint.cycle", events.n);
                svc.run_maintenance_cycle(&mut maint)
            };
            out.cycle_s.push(t.elapsed().as_secs_f64());
            match r {
                Ok(rep) => {
                    out.cycles.ok();
                    out.searched_shards += rep.searched_shards as u64;
                    out.changed_slots += rep.n_changed as u64;
                    out.applied_events += rep.applied_events;
                    if rep.epoch.is_some() {
                        *publishes += 1;
                        *invalid_paths += svc.validate_live_paths().1;
                    }
                }
                Err(e) => {
                    out.cycles.attempted += 1;
                    out.cycles.failed += 1;
                    eprintln!("maintenance cycle failed: {e}");
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("navigator thread panicked")
    });
    out.step_us.merge(&steps);
    out.step_rounds.add(&steps, &[0.5, 0.9]);
    out.steps.merge(&step_acc);
    out.stale_retries += stale_retries;

    let snap = svc.snapshot();
    let (ctx, org) = snap
        .owned_parts()
        .expect("maintenance keeps an owned snapshot");
    let st = svc.stats();
    out.serve_requests += st.requests.load(Ordering::Relaxed);
    out.serve_overloaded += st.overloaded.load(Ordering::Relaxed);
    out.serve_degraded += st.degraded.load(Ordering::Relaxed);
    out.serve_migrated += st.migrated.load(Ordering::Relaxed);
    out.serve_migrated_in_place += st.migrated_in_place.load(Ordering::Relaxed);
    Evaluator::new(&ctx, &org, snap.nav(), &Representatives::exact(&ctx)).effectiveness()
}
