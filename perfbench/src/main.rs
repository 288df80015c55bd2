//! End-to-end benchmark of the datalake-nav workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <build|navigate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run walks the user's whole path — cold build of an on-disk CSV
//! lake, mmap-served reads over the library and the wire, maintenance
//! under change events — in rounds until its time is up; the workload
//! decides which phase gets most of a round, the others run at a small
//! share.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics (from spans recorded around
//! each layer call) with `--trace 1`. The line before it holds the stamp,
//! the failure accounting, the correctness checks and every metric with
//! its sample count. See `perfbench/README.md`.

mod alloc;
mod churn;
mod cold_build;
mod config;
mod lake;
mod metrics;
mod navigate;
mod report;
mod stamp;
mod stats;
mod steal;
mod trace;
mod walk;

use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Build,
    Navigate,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <build|navigate> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n\
         --smoke runs every phase at a tiny size (for the self-test)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage())
        };
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(match value() {
                    "build" => Workload::Build,
                    "navigate" => Workload::Navigate,
                    _ => usage(),
                })
            }
            "--seed" => seed = value().parse().ok(),
            "--seconds" => seconds = value().parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => {
                smoke = true;
                i += 1;
                continue;
            }
            _ => usage(),
        }
        i += 2;
    }
    match (workload, seed, seconds) {
        (Some(workload), Some(seed), Some(seconds)) => Args {
            workload,
            seed,
            seconds,
            trace,
            smoke,
        },
        _ => usage(),
    }
}

/// Input sizes of every phase.
struct Sizes {
    lake: lake::LakeSpec,
    build_proposals: usize,
    sessions: usize,
    churn_attrs: usize,
    churn_proposals: usize,
}

const FULL: Sizes = Sizes {
    lake: lake::LakeSpec {
        tables: 1200,
        cols: 6,
        rows: 60,
        dim: 32,
    },
    build_proposals: 240,
    sessions: 4096,
    churn_attrs: 600,
    churn_proposals: 100,
};

const SMOKE: Sizes = Sizes {
    lake: lake::LakeSpec {
        tables: 90,
        cols: 4,
        rows: 12,
        dim: 16,
    },
    build_proposals: 10,
    sessions: 64,
    churn_attrs: 200,
    churn_proposals: 10,
};

/// Seed of both lakes. The lakes, and so the organizations built over
/// them, are the same in every run: a run's figures then do not depend on
/// which organization a seed's lake happens to produce. `--seed` drives
/// the request streams: session topics, walks and change events.
const LAKE_SEED: u64 = 0x1A4E_5EED;

/// How one scheduling round divides its time among the phases. A round
/// runs its builds and churn rounds one by one, each followed by a slice
/// of serving, and a run repeats rounds until its time is up. The host's
/// speed changes in episodes of seconds, so every phase is sampled at
/// many points spread over the run; the workload sets the shares.
struct Mix {
    builds: usize,
    churn_rounds: usize,
    /// Seconds of each serving slice spent in the library, the open loop
    /// and the closed loop.
    lib_s: f64,
    open_s: f64,
    closed_s: f64,
}

fn mix(focus: Workload, scale: f64) -> Mix {
    let (builds, serve_s, churn_rounds) = match focus {
        Workload::Build => (2, 1.5, 2),
        Workload::Navigate => (1, 3.0, 2),
    };
    let slice_s = serve_s * scale / (builds + churn_rounds) as f64;
    Mix {
        builds,
        churn_rounds,
        lib_s: 0.2 * slice_s,
        open_s: 0.6 * slice_s,
        closed_s: 0.2 * slice_s,
    }
}

/// Rounds a run makes at least (the traced run compares traced and
/// untraced rounds).
const MIN_ROUNDS: usize = 2;

fn main() {
    let env = match stamp::pin_environment() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let args = parse_args();
    steal::start();
    let threads = stamp::nproc();
    rayon::set_num_threads(threads);
    trace::set_enabled(args.trace);
    let sizes = if args.smoke { &SMOKE } else { &FULL };
    let scale = if args.smoke { 0.1 } else { 1.0 };
    let focus = args.workload;
    let mix = mix(focus, scale);

    let out_dir = PathBuf::from(".bench_out");
    let run_dir = out_dir.join(format!(
        "run-{:?}-{}-{}",
        focus,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).expect("creating the run directory");

    // Inputs: the on-disk lake and the churn lake.
    let mut report = report::Report::default();
    let files = lake::write_lake(&run_dir, sizes.lake, LAKE_SEED).expect("writing the lake");
    let serve = config::serve(threads, 2 * sizes.sessions + 1024);
    let mut churn_rig = churn::ChurnRig::new(
        &run_dir,
        serve,
        LAKE_SEED,
        args.seed,
        sizes.churn_attrs,
        sizes.churn_proposals,
    );
    let t_run = Instant::now();

    // Set-up: model loads, the first build (which writes the store the
    // serving phase opens), serving set-up.
    let mut build = cold_build::BuildPhase::default();
    let mut nav = navigate::NavPhase::default();
    let mut churn = churn::ChurnPhase::default();
    let model = cold_build::load_model(&files, &mut build);
    let search = config::search(
        config::SEARCH_SEED,
        sizes.build_proposals,
        dln_org::ShardPolicy::Auto,
    );
    let store = run_dir.join("org.dln");
    let serve_store = run_dir.join("serve.dln");
    cold_build::run(
        &files,
        &model,
        &store,
        &search,
        serve,
        None,
        &mut build,
        &mut report,
    );
    std::fs::copy(&store, &serve_store).expect("copying the store for serving");
    let serving_set_up = |nav: &mut navigate::NavPhase| {
        navigate::NavRig::set_up(&serve_store, serve, threads, sizes.sessions, args.seed, nav)
    };
    let mut rig = serving_set_up(&mut nav);
    rig.check_wire_matches_library(args.seed, &mut report);

    // Rounds, until the run's time is up.
    let mut rounds = 0usize;
    let mut last_round_s = 0.0;
    while rounds < MIN_ROUNDS || t_run.elapsed().as_secs_f64() + last_round_s <= args.seconds {
        let t = Instant::now();
        let traced = args.trace && rounds % 2 == 1;
        if args.trace {
            trace::set_enabled(traced);
        }
        // The workload's set-up once more, timed and discarded, so that
        // setup_s is sampled across the run and not only at its start.
        match focus {
            Workload::Build => drop(cold_build::load_model(&files, &mut build)),
            Workload::Navigate => serving_set_up(&mut nav).shut_down(),
        }
        for unit in 0..mix.builds + mix.churn_rounds {
            if unit < mix.builds {
                cold_build::run(
                    &files,
                    &model,
                    &store,
                    &search,
                    serve,
                    Some(traced),
                    &mut build,
                    &mut report,
                );
            } else {
                churn_rig.round(&mut churn);
            }
            // Library steps last, after the wire steps have warmed the
            // service: right after a build or a churn round, which leave
            // another phase's caches and heap behind, their per-slice
            // medians swung by tens of percent.
            rig.open_loop(mix.open_s, traced, &mut nav);
            rig.closed_loop(mix.closed_s, &mut nav);
            rig.library(mix.lib_s, &mut nav);
        }
        rounds += 1;
        last_round_s = t.elapsed().as_secs_f64();
    }
    // Every event stream at least once, and one replayed, so the repeat
    // check always compares a pair of rounds.
    while churn_rig.rounds() <= churn::STREAMS {
        churn_rig.round(&mut churn);
    }
    trace::set_enabled(args.trace);
    if args.trace {
        rig.probe_dispatch_and_codec(&mut nav, &mut report);
    }
    rig.finish(&mut nav);
    churn_rig.finish(&mut churn, &mut report);
    drop(model);

    report.phase("build", build.acc.clone());
    report.phase("navigate.library", nav.lib.clone());
    report.phase("navigate.wire_open_loop", nav.wire_open.clone());
    report.phase("navigate.wire_closed_loop", nav.wire_closed.clone());
    report.phase("churn.ingest", churn.ingest.clone());
    report.phase("churn.cycles", churn.cycles.clone());
    report.phase("churn.steps", churn.steps.clone());

    let spans = trace::take_all();
    eprintln!("{rounds} rounds in {:.1} s", t_run.elapsed().as_secs_f64());
    metrics::end_to_end(focus, &build, &nav, &churn, &mut report);
    metrics::per_layer(
        focus,
        &files,
        &build,
        &nav,
        &churn,
        &spans,
        args.trace,
        &mut report,
    );
    if args.trace {
        let path = out_dir.join(format!("trace-{focus:?}-{}.jsonl", args.seed).to_lowercase());
        if let Err(e) = std::fs::write(&path, trace::to_json_lines(&spans)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    let stamp = stamp::json(
        &format!("{focus:?}").to_lowercase(),
        args.seed,
        args.seconds,
        args.trace,
        &env,
    );
    let (detail, last) = metrics::output(&report, &stamp, args.trace);
    println!("{detail}");
    println!("{last}");
    if !report.correct() {
        std::process::exit(1);
    }
}
