//! The `build` phase: model load, then repeated cold builds of the on-disk
//! lake — `ingest_dir` → `build_sharded` → `from_built` → `save_current`
//! → `open_path` → first step — each timed as a whole and per layer call.

use std::path::Path;
use std::time::Instant;

use dln_embed::VecFileModel;
use dln_lake::csv::{ingest_dir, CsvOptions};
use dln_org::{build_sharded, Evaluator, Representatives, SearchConfig};
use dln_serve::{NavService, OrgSnapshot, ServeConfig, StepAction, StepRequest};

use crate::lake::LakeFiles;
use crate::report::{Accounting, Report};
use crate::stats::Samples;
use crate::trace;

/// What the build phase measured.
#[derive(Default)]
pub struct BuildPhase {
    pub model_load_s: Samples,
    pub build_s: Samples,
    /// Build times of traced and untraced builds (trace runs only).
    pub traced_build_s: Samples,
    pub untraced_build_s: Samples,
    /// Build times of every build whose spans were recorded.
    pub spanned_build_s: Samples,
    pub ingest_s: Samples,
    pub build_sharded_s: Samples,
    pub search_max_s: Samples,
    pub search_sum_s: Samples,
    pub save_s: Samples,
    pub open_s: Samples,
    pub first_step_us: Samples,
    pub proposals: usize,
    pub accepted: usize,
    pub n_shards: usize,
    pub eval_state_fraction: f64,
    pub effectiveness: f64,
    pub quarantined: usize,
    pub file_bytes: u64,
    pub acc: Accounting,
}

/// Load the `.vec` model (the phase's set-up).
pub fn load_model(files: &LakeFiles, out: &mut BuildPhase) -> VecFileModel {
    let t = Instant::now();
    let model = {
        let _s = trace::span("embed.load", 0);
        VecFileModel::from_path(&files.vec_path).expect("loading the .vec model")
    };
    out.model_load_s.push(t.elapsed().as_secs_f64());
    model
}

fn first_step(svc: &NavService, query: &[f32]) -> dln_serve::ServeResult<dln_serve::StepResponse> {
    let sid = svc.open_session()?;
    svc.step(
        sid,
        &StepRequest {
            action: StepAction::Stay,
            query: Some(query.to_vec()),
            deadline_ms: None,
            list_tables: true,
        },
    )
}

/// Run one cold build, saving the store at `store`. The first build of
/// the run also runs the correctness checks. `traced` says where the
/// build times are filed for the tracing-overhead comparison (`None`:
/// in neither half).
#[allow(clippy::too_many_arguments)]
pub fn run(
    files: &LakeFiles,
    model: &VecFileModel,
    store: &Path,
    search: &SearchConfig,
    serve: ServeConfig,
    traced: Option<bool>,
    out: &mut BuildPhase,
    report: &mut Report,
) {
    let build_no = out.build_s.len() + 1;
    let req = build_no as u64;
    let first = build_no == 1;

    let t0 = Instant::now();
    let ingest = {
        let _s = trace::span("lake.ingest", req);
        ingest_dir(&files.dir, model, &CsvOptions::default()).expect("ingesting the CSV lake")
    };
    let t_ingest = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let build = {
        let _s = trace::span("org.build_sharded", req);
        build_sharded(&ingest.lake, search)
    };
    let t_build = t.elapsed().as_secs_f64();

    // Not part of the build: the program's own effectiveness figure,
    // re-scored below from what is actually served.
    let pause = Instant::now();
    let reported = if first {
        build.effectiveness()
    } else {
        f64::NAN
    };
    let pause_s = pause.elapsed().as_secs_f64();

    let stats: Vec<_> = build.shard_stats.iter().flatten().collect();
    let n_shards = build.n_shards();
    let owned = {
        let _s = trace::span("serve.from_built", req);
        NavService::from_built(build.built, serve)
    };
    let t = Instant::now();
    {
        let _s = trace::span("store.save", req);
        owned.save_current(store).expect("saving the store");
    }
    let t_save = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mapped = {
        let _s = trace::span("store.open", req);
        NavService::open_path(store, serve).expect("opening the store")
    };
    let t_open = t.elapsed().as_secs_f64();
    let query = mapped.snapshot().view().attr_unit(0).to_vec();
    let t = Instant::now();
    let step = {
        let _s = trace::span("serve.first_step", req);
        first_step(&mapped, &query)
    };
    let t_first = t.elapsed().as_secs_f64();
    let total = t0.elapsed().as_secs_f64() - pause_s;
    out.acc.note(&step);

    out.build_s.push(total);
    if trace::enabled() {
        out.spanned_build_s.push(total);
    }
    match traced {
        Some(true) => out.traced_build_s.push(total),
        Some(false) => out.untraced_build_s.push(total),
        None => {}
    }
    out.ingest_s.push(t_ingest);
    out.build_sharded_s.push(t_build);
    out.search_max_s.push(
        stats
            .iter()
            .map(|s| s.duration.as_secs_f64())
            .fold(0.0, f64::max),
    );
    out.search_sum_s
        .push(stats.iter().map(|s| s.duration.as_secs_f64()).sum());
    out.save_s.push(t_save);
    out.open_s.push(t_open);
    out.first_step_us.push(t_first * 1e6);

    if first {
        out.proposals = stats.iter().map(|s| s.iterations).sum();
        out.accepted = stats.iter().map(|s| s.accepted).sum();
        out.n_shards = n_shards;
        out.eval_state_fraction = weighted_state_fraction(&stats);
        out.quarantined = ingest.report.total_quarantined();
        out.file_bytes = std::fs::metadata(store).map(|m| m.len()).unwrap_or(0);
        let owned_snap = owned.snapshot();
        let (ctx, org) = owned_snap.owned_parts().expect("from_built serves owned");
        let reps = Representatives::exact(&ctx);
        let rescored = Evaluator::new(&ctx, &org, owned_snap.nav(), &reps).effectiveness();
        out.effectiveness = rescored;
        report.check(
            "build.effectiveness_rescored",
            rescored.to_bits() == reported.to_bits(),
            format!("program {reported} vs Evaluator on the served organization {rescored}"),
        );
        let (states, mismatch) = compare_rankings(&owned_snap, &mapped.snapshot());
        report.check(
            "build.mapped_owned_rankings_bit_identical",
            mismatch.is_none() && mapped.snapshot().is_mapped(),
            match mismatch {
                None => format!(
                    "{states} states compared, mapped: {}",
                    mapped.snapshot().is_mapped()
                ),
                Some(m) => m,
            },
        );
    }
}

/// Mean fraction of states re-evaluated per proposal, over all shards.
fn weighted_state_fraction(stats: &[&dln_org::SearchStats]) -> f64 {
    let n: usize = stats.iter().map(|s| s.iterations).sum();
    if n == 0 {
        return 0.0;
    }
    stats
        .iter()
        .map(|s| s.mean_state_fraction() * s.iterations as f64)
        .sum::<f64>()
        / n as f64
}

/// Compare an owned and a mapped snapshot on a sample of states: labels,
/// children and Eq 1 rankings (`f64::to_bits`) under a few queries.
/// Returns the number of states compared and the first mismatch.
fn compare_rankings(a: &OrgSnapshot, b: &OrgSnapshot) -> (usize, Option<String>) {
    let order = a.view().topo_order();
    if order != b.view().topo_order() {
        return (0, Some("topological order differs".to_string()));
    }
    let n_attrs = a.view().n_attrs().max(1);
    let queries: Vec<Vec<f32>> = (0..4)
        .map(|i| a.view().attr_unit(((i * 7919) % n_attrs) as u32).to_vec())
        .collect();
    let stride = (order.len() / 256).max(1);
    let mut compared = 0;
    for &sid in order.iter().step_by(stride) {
        compared += 1;
        if a.label(sid) != b.label(sid) || a.children(sid) != b.children(sid) {
            return (
                compared,
                Some(format!("label or children differ at {sid:?}")),
            );
        }
        for q in &queries {
            let pa = a.transition_probs(sid, q);
            let pb = b.transition_probs(sid, q);
            let same = pa.len() == pb.len()
                && pa
                    .iter()
                    .zip(&pb)
                    .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits());
            if !same {
                return (compared, Some(format!("ranking bits differ at {sid:?}")));
            }
        }
    }
    (compared, None)
}
