//! The closed loops: one client re-serves a fixed trace, batch after
//! batch, through `serve_stream` and on to the CTR score.

use std::time::Instant;

use dlrm_model::Dlrm;
use placement::{plan, Catalog, PlannerConfig};
use updlrm_core::{
    BatchServer, PartitionStrategy, PipelineMode, ServeReport, TieredEngine, UpdlrmConfig,
};
use upmem_sim::RankTopology;
use workloads::{DatasetSpec, Workload};

use crate::common::{
    build_engine, check_split_build, ctr, mismatches, model, overhead, prefix, profiles,
    reference_scores, report_snapshot, report_spans, stamped_max_qps, timed, trace_config, HostLog,
    Modeled, Outcome, SetupTimes, DIM, PROBE_BATCHES, SETUPS,
};
use crate::{span, Opts};

/// Batches served to warm a fresh engine (both staging slots).
const WARMUP_BATCHES: usize = 4;
/// Both closed loops serve 8 tables.
const TABLES: usize = 8;

/// `ca-closed`: GoodReads/500, 8 tables, 64 DPUs, cache-aware
/// partitioning, double-buffered depth 2, batch 64.
pub fn ca_closed(opts: &Opts) -> Outcome {
    let spec = DatasetSpec::goodreads().scaled_down(500);
    let trace = Workload::generate(&spec, trace_config(TABLES, 128, opts.seed));
    let model = model(spec.num_items, TABLES, opts.seed);
    let refs = reference_scores(&model, &trace);
    let mut config = UpdlrmConfig::with_dpus(64, PartitionStrategy::CacheAware)
        .with_host_threads(1)
        .with_pipeline_mode(PipelineMode::DoubleBuf)
        .with_queue_depth(2);
    config.telemetry = opts.trace;

    let mut out = Outcome::default();
    let warmup = &trace.batches[..WARMUP_BATCHES];
    let (mut engine, t) = build_engine(config.clone(), model.tables(), &trace, warmup);
    let mut setups = vec![t];
    span::set_enabled(false); // the traced run records set-up, then every other timed pass
    let split_ok = check_split_build(&mut engine, model.tables(), &trace, &trace.batches[..16]);
    run_closed(
        &mut engine,
        &model,
        &trace,
        &refs,
        opts,
        &mut out,
        Some("cooccur.hit_ratio"),
        || setups.push(build_engine(config.clone(), model.tables(), &trace, warmup).1),
    );
    out.correct &= split_ok;
    SetupTimes::report(&setups, out.slowdown, &mut out.e2e, &mut out.layer);
    out
}

/// `tiered-closed`: Amazon Clothes/50, 8 tables, `placement::plan`
/// over 4 ranks x 16 DPUs with a 4,096-row host tier and the top 64
/// rows replicated, served by `TieredEngine`, batch 64.
pub fn tiered_closed(opts: &Opts) -> Outcome {
    let spec = DatasetSpec::amazon_clothes().scaled_down(50);
    let trace = Workload::generate(&spec, trace_config(TABLES, 256, opts.seed));
    let model = model(spec.num_items, TABLES, opts.seed);
    let refs = reference_scores(&model, &trace);
    // The plan, not the config, fixes the fleet and the placement.
    let mut config = UpdlrmConfig::default().with_host_threads(1);
    config.telemetry = opts.trace;
    let planner = PlannerConfig {
        topology: RankTopology {
            nr_ranks: 4,
            dpus_per_rank: 16,
        },
        emt_capacity_bytes: 2 << 20,
        host_cache_bytes: 4096 * DIM * 4,
        replicate_top: 64,
        avg_reduction_hint: trace.measured_avg_reduction(),
        seed: opts.seed,
        ..PlannerConfig::default()
    };
    let catalog = Catalog::homogeneous(TABLES, spec.num_items, DIM);

    let mut out = Outcome::default();
    let setup = || {
        let mut t = SetupTimes::default();
        let profiles = timed("workloads.profile", &mut t.profile_s, || {
            profiles(model.tables(), &trace)
        });
        let p = timed("placement.plan", &mut t.plan_s, || {
            plan(&catalog, &profiles, &planner).expect("plan fits the fleet")
        });
        let mut e = timed("core.engine_build", &mut t.build_s, || {
            TieredEngine::new(config.clone(), &p, model.tables()).expect("tiered engine builds")
        });
        timed("core.warmup", &mut t.warmup_s, || {
            e.serve_stream(&trace.batches[..WARMUP_BATCHES], |_, _, _| {})
                .expect("warm-up serve")
        });
        (e, t, p)
    };
    let (mut engine, t, first_plan) = setup();
    let mut setups = vec![t];
    span::set_enabled(false); // the traced run records set-up, then every other timed pass
                              // The planner is deterministic in its inputs: every set-up must
                              // produce the same plan.
    let mut plans_same = true;
    run_closed(
        &mut engine,
        &model,
        &trace,
        &refs,
        opts,
        &mut out,
        Some("placement.host_hit_ratio"),
        || {
            let (_, t, p) = setup();
            plans_same &= p == first_plan;
            setups.push(t);
        },
    );
    out.correct &= plans_same;
    SetupTimes::report(&setups, out.slowdown, &mut out.e2e, &mut out.layer);
    out
}

/// The closed loop shared by both workloads. Pass 0 is the modeled
/// pass (and host warm-up); later passes are timed until the run's
/// seconds are spent, in [`SETUPS`] chunks with one more engine set-up
/// (`setup_again`) between chunks, so the timed passes sample more of
/// the host's speed phases. Every pass must reproduce pass 0's modeled
/// report, and every CTR score must be bit-equal to `Dlrm::forward`.
#[allow(clippy::too_many_arguments)]
fn run_closed<E: BatchServer>(
    engine: &mut E,
    model: &Dlrm,
    trace: &Workload,
    refs: &[Vec<f32>],
    opts: &Opts,
    out: &mut Outcome,
    hit_metric: Option<&'static str>,
    mut setup_again: impl FnMut(),
) {
    let batches = &trace.batches;
    let mut mism = 0u64;
    let mut pass = |engine: &mut E, log: &mut HostLog, modeled: Option<&mut Modeled>, id: u64| {
        let mut modeled = modeled;
        let open = span::begin("core.serve_stream", id);
        let report = engine
            .serve_stream(batches, |i, pooled, bd| {
                let open = span::begin("bench.sink", i as u64);
                let scores = ctr(model, &batches[i], pooled, i as u64);
                mism += mismatches(&scores, &refs[i]);
                log.complete(scores.len());
                if let Some(m) = modeled.as_deref_mut() {
                    m.add(bd, scores.len());
                }
                span::end(open);
            })
            .expect("serve");
        span::end(open);
        report
    };

    engine.metrics_mut().reset();
    let mut modeled = Modeled::default();
    let first: ServeReport = pass(engine, &mut HostLog::default(), Some(&mut modeled), 0);
    let snap = engine.metrics_mut().snapshot();
    let mut log = HostLog::default();

    // Timed passes. A traced run records spans on every other pass,
    // so the untraced passes between them give the tracing overhead.
    let chunk = std::time::Duration::from_secs_f64(opts.seconds / SETUPS as f64);
    let mut traced = Vec::new();
    let mut same = true;
    let mut k = 1u64;
    for c in 0..SETUPS {
        if c > 0 {
            setup_again();
        }
        let deadline = Instant::now() + chunk;
        while Instant::now() < deadline || k < 2 * c as u64 + 2 {
            let on = opts.trace && k.is_multiple_of(2);
            span::set_enabled(on);
            log.start_segment();
            let r = pass(engine, &mut log, None, k);
            log.end_segment();
            span::set_enabled(false);
            traced.push(on);
            same &= r == first;
            k += 1;
        }
    }
    let passes = k - 1;

    out.attempted = (passes + 1) * first.samples as u64;
    out.failed = mism;
    out.correct = mism == 0 && same;
    let e = &mut out.e2e;
    e.insert(
        "modeled_ns_per_inference",
        first.wall_ns / first.samples as f64,
    );
    e.insert("modeled_p50_us", first.p50_latency_ns / 1e3);
    e.insert("modeled_p99_us", first.p99_latency_ns / 1e3);
    // A batch is due when the previous one completes, so its latency
    // is the gap: in a closed loop this restates the host throughput.
    let gap_ms = log.report(e);
    e.insert("wall_p50_ms", gap_ms);
    out.slowdown = log.slowdown();

    e.insert(
        "modeled_max_qps",
        stamped_max_qps(engine, prefix(trace, PROBE_BATCHES), opts.seed),
    );
    e.insert("peak_rss_mb", crate::stats::peak_rss_mb());

    let l = &mut out.layer;
    modeled.report(l, hit_metric);
    let sequential = modeled.stage_ns_per_inference() * first.samples as f64;
    l.insert("core.overlap_saved_frac", 1.0 - first.wall_ns / sequential);
    report_snapshot(&snap, first.samples as u64, l);
    if opts.trace {
        let traced_batches = traced.iter().filter(|&&t| t).count() as u64 * batches.len() as u64;
        report_spans(traced_batches, log.slowdown(), l);
        overhead(log.rates(), &traced, l);
    }
}
