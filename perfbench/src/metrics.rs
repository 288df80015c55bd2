//! Turns what the phases measured into the named metrics of
//! `BENCHMARK.json`, and formats the run's output.

use std::fmt::Write as _;

use crate::churn::ChurnPhase;
use crate::cold_build::BuildPhase;
use crate::lake::LakeFiles;
use crate::navigate::NavPhase;
use crate::report::{metrics_json, quote, Report};
use crate::stats::median_difference;
use crate::trace::{self, Span};
use crate::{stamp, steal, Workload};

/// The layer calls that make up one cold build, in order.
const BUILD_SPANS: [&str; 6] = [
    "lake.ingest",
    "org.build_sharded",
    "serve.from_built",
    "store.save",
    "store.open",
    "serve.first_step",
];

/// Spans whose allocations are reported per call.
const ALLOC_SPANS: [&str; 13] = [
    "embed.load",
    "lake.ingest",
    "org.build_sharded",
    "serve.from_built",
    "store.save",
    "store.open",
    "serve.first_step",
    "serve.step",
    "serve.dispatch",
    "net.client_step",
    "net.codec",
    "cdc.ingest",
    "maint.cycle",
];

/// Layers whose self time is reported (the span name's first component).
const LAYERS: [&str; 8] = [
    "embed", "lake", "org", "store", "serve", "net", "cdc", "maint",
];

/// Request ids at or above this belong to serving phases, not builds.
pub const SERVING_REQ_BASE: u64 = 1 << 40;

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end(focus: Workload, b: &BuildPhase, n: &NavPhase, c: &ChurnPhase, r: &mut Report) {
    let setup = match focus {
        Workload::Build => &b.model_load_s,
        Workload::Navigate => &n.setup_s,
    };
    r.e2e("setup_s", setup.median(), "s", setup.len());
    r.e2e("peak_rss_mb", stamp::peak_rss_mb(), "MiB", 1);
    r.e2e("build_s", b.build_s.median(), "s", b.build_s.len());
    r.e2e("build_effectiveness", b.effectiveness, "probability", 1);
    let steps = n.wire_step_us.len();
    r.e2e("wire_step_p50_us", n.wire_slices.median(0), "us", steps);
    r.e2e("wire_step_p90_us", n.wire_slices.median(1), "us", steps);
    r.e2e(
        "wire_capacity_steps_per_s",
        n.capacity.median(),
        "1/s",
        n.closed_steps,
    );
    r.e2e(
        "lib_step_p50_us",
        n.lib_slices.median(0),
        "us",
        n.lib_step_us.len(),
    );
    r.e2e(
        "cdc_ingest_events_per_s",
        1e6 / c.ingest_us.median(),
        "1/s",
        c.ingest_us.len(),
    );
    r.e2e("maint_cycle_s", c.cycle_s.median(), "s", c.cycle_s.len());
    r.e2e(
        "churn_step_p50_us",
        c.step_rounds.median(0),
        "us",
        c.step_us.len(),
    );
    r.e2e(
        "churn_step_p90_us",
        c.step_rounds.median(1),
        "us",
        c.step_us.len(),
    );
    r.e2e("churn_effectiveness", c.effectiveness, "probability", 1);
}

/// How much larger the traced median is than the untraced one, percent.
fn pct_over(traced: f64, untraced: f64) -> f64 {
    (traced / untraced - 1.0) * 100.0
}

/// The per-layer metrics (those from spans are empty without tracing).
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    focus: Workload,
    files: &LakeFiles,
    b: &BuildPhase,
    n: &NavPhase,
    c: &ChurnPhase,
    spans: &[Span],
    traced: bool,
    r: &mut Report,
) {
    // embed, lake
    r.layer(
        "embed.load_s",
        b.model_load_s.median(),
        "s",
        b.model_load_s.len(),
    );
    r.layer("lake.ingest_s", b.ingest_s.median(), "s", b.ingest_s.len());
    r.layer(
        "lake.ingest_mb_per_s",
        files.csv_bytes as f64 / 1e6 / b.ingest_s.median(),
        "MB/s",
        b.ingest_s.len(),
    );
    r.layer("lake.quarantined", b.quarantined as f64, "count", 1);
    let ingest = &c.ingest_us;
    r.layer(
        "cdc.ingest_us.p50",
        ingest.quantile(0.5),
        "us",
        ingest.len(),
    );
    r.layer(
        "cdc.ingest_us.p99",
        ingest.quantile(0.99),
        "us",
        ingest.len(),
    );

    // cluster + org::shard/search
    let builds = b.build_s.len();
    r.layer(
        "org.build_sharded_s",
        b.build_sharded_s.median(),
        "s",
        builds,
    );
    r.layer("org.search_s_max", b.search_max_s.median(), "s", builds);
    r.layer("org.search_s_sum", b.search_sum_s.median(), "s", builds);
    r.layer(
        "org.partition_stitch_s",
        median_difference(&b.build_sharded_s, &b.search_max_s),
        "s",
        builds,
    );
    r.layer("org.n_shards", b.n_shards as f64, "count", 1);
    r.layer("org.proposals", b.proposals as f64, "count", 1);
    r.layer(
        "org.accept_ratio",
        b.accepted as f64 / b.proposals.max(1) as f64,
        "ratio",
        b.proposals,
    );
    r.layer(
        "org.proposals_per_s",
        b.proposals as f64 / b.search_sum_s.median(),
        "1/s",
        builds,
    );
    r.layer(
        "org.eval_state_fraction",
        b.eval_state_fraction,
        "ratio",
        b.proposals,
    );

    // org::store
    r.layer("store.save_s", b.save_s.median(), "s", builds);
    r.layer("store.file_bytes", b.file_bytes as f64, "bytes", 1);
    r.layer("store.open_s", b.open_s.median(), "s", builds);

    // serve
    r.layer(
        "serve.first_step_us",
        b.first_step_us.median(),
        "us",
        builds,
    );
    let lib = &n.lib_step_us;
    r.layer("serve.step_us.p50", lib.quantile(0.5), "us", lib.len());
    r.layer("serve.step_us.p99", lib.quantile(0.99), "us", lib.len());
    let shown = n.lib.succeeded.max(1) as f64;
    r.layer(
        "serve.children_per_step",
        n.lib_children as f64 / shown,
        "count",
        lib.len(),
    );
    r.layer(
        "serve.tables_per_step",
        n.lib_tables as f64 / shown,
        "count",
        lib.len(),
    );
    let d = &n.dispatch_us;
    r.layer("serve.dispatch_us.p50", d.quantile(0.5), "us", d.len());
    r.layer("serve.dispatch_us.p99", d.quantile(0.99), "us", d.len());
    r.layer("serve.requests", c.serve_requests as f64, "count", 1);
    r.layer("serve.overloaded", c.serve_overloaded as f64, "count", 1);
    r.layer("serve.degraded", c.serve_degraded as f64, "count", 1);
    r.layer("serve.migrated", c.serve_migrated as f64, "count", 1);
    r.layer(
        "serve.migrated_in_place",
        c.serve_migrated_in_place as f64,
        "count",
        1,
    );
    r.layer(
        "serve.stale_view_retries",
        c.stale_retries as f64,
        "count",
        1,
    );
    let migrations = c.serve_migrated + c.serve_migrated_in_place;
    r.layer(
        "serve.in_place_ratio",
        c.serve_migrated_in_place as f64 / migrations.max(1) as f64,
        "ratio",
        migrations as usize,
    );

    // net
    let w = &n.wire_step_us;
    r.layer(
        "net.codec_us.p50",
        n.codec_us.median(),
        "us",
        n.codec_us.len(),
    );
    for (name, q) in [
        ("net.transport_us.p50", 0.5),
        ("net.transport_us.p99", 0.99),
    ] {
        r.layer(
            name,
            w.quantile(q) - d.quantile(q) - n.codec_us.quantile(q),
            "us",
            w.len(),
        );
    }
    r.layer("wire.step_us.p99", w.quantile(0.99), "us", w.len());
    r.layer(
        "net.frame_bytes.req",
        n.frame_req.median(),
        "bytes",
        n.frame_req.len(),
    );
    r.layer(
        "net.frame_bytes.resp",
        n.frame_resp.median(),
        "bytes",
        n.frame_resp.len(),
    );
    r.layer("net.requests", n.net_requests as f64, "count", 1);
    r.layer("net.dedup_hits", n.net_dedup_hits as f64, "count", 1);
    r.layer("net.closed", n.net_closed as f64, "count", 1);
    r.layer("net.shed_accepts", n.net_shed_accepts as f64, "count", 1);

    // org::maintain
    let cycles = c.cycle_s.len();
    let cycle = &c.cycle_s;
    r.layer("maint.cycle_s.p50", cycle.quantile(0.5), "s", cycles);
    r.layer("maint.cycle_s.p99", cycle.quantile(0.99), "s", cycles);
    r.layer(
        "maint.searched_shards",
        c.searched_shards as f64,
        "count",
        cycles,
    );
    r.layer(
        "maint.search_share",
        c.searched_shards as f64 / (cycles * c.n_shards).max(1) as f64,
        "ratio",
        cycles,
    );
    r.layer(
        "maint.changed_slots",
        c.changed_slots as f64,
        "count",
        cycles,
    );
    r.layer(
        "maint.applied_events",
        c.applied_events as f64,
        "count",
        cycles,
    );

    // Process-wide: generator lateness, allocations and self time per span.
    r.layer(
        "gen.late_us.p99",
        n.gen_late_us.quantile(0.99),
        "us",
        n.gen_late_us.len(),
    );
    let totals = trace::totals(spans);
    for name in ALLOC_SPANS {
        let t = totals.get(name).cloned().unwrap_or_default();
        let calls = t.count.max(1) as f64;
        r.layer(
            &format!("alloc.count.{name}"),
            t.allocs as f64 / calls,
            "count/call",
            t.count as usize,
        );
        r.layer(
            &format!("alloc.bytes.{name}"),
            t.bytes as f64 / calls,
            "bytes/call",
            t.count as usize,
        );
    }
    for layer in LAYERS {
        let (secs, count) = totals
            .iter()
            .filter(|(k, _)| k.split('.').next() == Some(layer))
            .fold((0.0, 0u64), |(s, c), (_, t)| (s + t.self_secs, c + t.count));
        r.layer(&format!("self_s.{layer}"), secs, "s", count as usize);
    }

    // The host: CPU time stolen by other guests over the run.
    r.layer("host.steal_pct", 100.0 * steal::share(), "%", 1);

    // The tracer itself: span count, coverage of build_s by the build's
    // top-level spans, and overhead on the focus workload's main metric.
    r.layer("trace.spans", spans.len() as f64, "count", 1);
    let build_span_s: f64 = spans
        .iter()
        .filter(|s| {
            s.parent == 0 && s.req > 0 && s.req < SERVING_REQ_BASE && BUILD_SPANS.contains(&s.name)
        })
        .map(Span::secs)
        .sum();
    let traced_build_s = b.spanned_build_s.sum();
    let coverage = build_span_s / traced_build_s;
    r.layer(
        "trace.build_span_coverage",
        coverage,
        "ratio",
        b.build_s.len(),
    );
    if traced {
        r.check(
            "trace.build_spans_sum_to_build_s",
            (coverage - 1.0).abs() <= 0.05,
            format!("top-level build spans cover {coverage:.4} of build_s"),
        );
    }
    let overhead = match focus {
        Workload::Build => pct_over(b.traced_build_s.median(), b.untraced_build_s.median()),
        Workload::Navigate => pct_over(n.wire_traced_us.median(), n.wire_untraced_us.median()),
    };
    r.layer("trace.overhead_pct", overhead, "%", 2);
}

/// The detail line (stamp, accounting, checks, every metric with its
/// sample count) and the result line.
pub fn output(r: &Report, stamp: &str, traced: bool) -> (String, String) {
    let mut phases = String::from("{");
    for (i, (name, a)) in r.phases.iter().enumerate() {
        if i > 0 {
            phases.push_str(", ");
        }
        let _ = write!(
            phases,
            "{}: {{\"attempted\": {}, \"succeeded\": {}, \"failed\": {}, \"refused\": {}}}",
            quote(name),
            a.attempted,
            a.succeeded,
            a.failed,
            a.refused
        );
    }
    phases.push('}');
    let mut checks = String::from("[");
    for (i, (name, ok, detail)) in r.checks.iter().enumerate() {
        if i > 0 {
            checks.push_str(", ");
        }
        let _ = write!(
            checks,
            "{{\"name\": {}, \"passed\": {ok}, \"detail\": {}}}",
            quote(name),
            quote(detail)
        );
    }
    checks.push(']');
    let detail = format!(
        "{{\"stamp\": {stamp}, \"phases\": {phases}, \"checks\": {checks}, \"end_to_end\": {}, \"per_layer\": {}}}",
        metrics_json(&r.end_to_end, true),
        metrics_json(&r.per_layer, true)
    );
    let t = r.totals();
    let shown = if traced { &r.per_layer } else { &r.end_to_end };
    let last = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        t.attempted,
        t.failed + t.refused,
        metrics_json(shown, false)
    );
    (detail, last)
}
