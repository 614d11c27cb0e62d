//! The open loops: Poisson arrivals batched by the scheduler, either
//! on modeled time (`drift-open`) or on the wall clock through the
//! `runtime` crate (`wall-open`). Each served batch is re-assembled
//! with `assemble_into` and scored by `Dlrm::forward_with_pooled`.

use std::time::{Duration, Instant};

use dlrm_model::{Dlrm, Matrix, QueryBatch};
use runtime::{Runtime, RuntimeConfig};
use scheduler::{assemble_into, SchedReport, Scheduler};
use updlrm_core::{
    BatchServer, EmbeddingBreakdown, MetricsRegistry, PartitionStrategy, ReplanPolicy, ServeReport,
    UpdlrmConfig, UpdlrmEngine,
};
use workloads::{ArrivalProcess, DatasetSpec, DriftSchedule, HotSetRotation, Workload};

use crate::common::{
    build_engine, check_split_build, ctr, max_qps, model, overhead, prefix, profiles,
    reference_scores, report_snapshot, report_spans, stamped_max_qps, trace_config, HostLog,
    Modeled, Outcome, SetupTimes, Values, PROBE_BATCHES, SCHED, SETUPS,
};
use crate::stats::median;
use crate::{span, Opts};

/// Both open loops serve 4 tables.
const TABLES: usize = 4;

fn spec() -> DatasetSpec {
    DatasetSpec::goodreads().scaled_down(2000)
}

/// Scores one scheduler batch and counts bitwise mismatches against the
/// per-request reference scores.
struct Scorer<'a> {
    model: &'a Dlrm,
    trace: &'a Workload,
    refs: Vec<Vec<f32>>,
    batch: QueryBatch,
    mismatches: u64,
}

impl<'a> Scorer<'a> {
    fn new(model: &'a Dlrm, trace: &'a Workload) -> Self {
        Scorer {
            model,
            trace,
            refs: reference_scores(model, trace),
            batch: QueryBatch {
                sparse: vec![Default::default(); TABLES],
                ..QueryBatch::default()
            },
            mismatches: 0,
        }
    }

    fn score(&mut self, seq: usize, ids: &[u32], pooled: &[Matrix]) {
        assemble_into(self.trace, ids, &mut self.batch);
        let scores = ctr(self.model, &self.batch, pooled, seq as u64);
        let bs = self.trace.config.batch_size;
        for (&id, s) in ids.iter().zip(&scores) {
            let want = self.refs[id as usize / bs][id as usize % bs];
            self.mismatches += u64::from(s.to_bits() != want.to_bits());
        }
    }
}

/// Open-loop fields of the per-layer table from one scheduler report.
fn report_sched(r: &SchedReport, layer: &mut Values) {
    layer.insert("sched.mean_batch_size", r.mean_batch_size);
    layer.insert("sched.queue_high_water", r.queue_high_water as f64);
    layer.insert(
        "sched.deadline_trigger_frac",
        r.trigger_deadline as f64 / r.batches as f64,
    );
}

/// Wraps the engine the scheduler drives, so the calls it makes into
/// `updlrm-core` get spans of their own (`sched.run` self time is then
/// the scheduler's event loop alone).
struct Traced<'a>(&'a mut UpdlrmEngine);

impl BatchServer for Traced<'_> {
    fn staged_batch_capacity(&self) -> usize {
        self.0.staged_batch_capacity()
    }

    fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        BatchServer::metrics_mut(self.0)
    }

    fn serve_stream<F>(
        &mut self,
        batches: &[QueryBatch],
        sink: F,
    ) -> updlrm_core::Result<ServeReport>
    where
        F: FnMut(usize, &[Matrix], &EmbeddingBreakdown),
    {
        span::scope("core.serve_stream", 0, || {
            self.0.serve_stream(batches, sink)
        })
    }

    fn on_tick(&mut self, now_ns: u64) -> updlrm_core::Result<()> {
        span::scope("core.on_tick", now_ns, || self.0.on_tick(now_ns))
    }
}

/// Offered rate of drift-open (requests per modeled second).
const DRIFT_QPS: f64 = 50_000.0;
/// Independent drifting traces per run. The modeled tail depends on
/// where migrations land in each trace's rotations, so one trace's
/// p99 moves 10-20% from seed to seed; the median over four traces
/// moves well under half that.
const DRIFT_TRACES: u64 = 4;
/// Requests per drifting trace: 64 batches of 64, 8 rotations.
const DRIFT_BATCHES: usize = 64;

/// 4 hot sets of 256 rows, 60% of lookups in the active set, rotating
/// every 512 requests at `qps`.
fn rotation(qps: f64) -> DriftSchedule {
    DriftSchedule {
        rotation: Some(HotSetRotation {
            num_sets: 4,
            set_size: 256,
            period_ns: (512.0 / qps * 1e9) as u64,
            hot_fraction: 0.6,
        }),
        spikes: Vec::new(),
        diurnal: None,
    }
}

/// `drift-open`: GoodReads/2000, 4 tables, 64 DPUs, uniform deploy with
/// periodic replanning every 4 batches; Poisson arrivals at 50k qps
/// with the hot set rotating. Four independent traces (seeds derived
/// from `--seed`) give the modeled metrics; each timed replay serves
/// all four. Replanning mutates the placement, so every replay serves
/// freshly built engines; the builds sit outside the timed segment.
/// Telemetry stays on in every run: its drift counters are what the
/// migration check reads.
pub fn drift_open(opts: &Opts) -> Outcome {
    let traces: Vec<Workload> = (0..DRIFT_TRACES)
        .map(|k| {
            let seed = opts.seed.wrapping_mul(DRIFT_TRACES).wrapping_add(k);
            Workload::generate_drifting(
                &spec(),
                trace_config(TABLES, DRIFT_BATCHES, seed),
                rotation(DRIFT_QPS),
                ArrivalProcess::poisson(DRIFT_QPS, seed),
            )
        })
        .collect();
    let model = model(spec().num_items, TABLES, opts.seed);
    let tables = model.tables();
    let mut config = UpdlrmConfig::with_dpus(64, PartitionStrategy::Uniform)
        .with_host_threads(1)
        .with_telemetry()
        .with_replan(ReplanPolicy::Periodic { every_batches: 4 });
    config.batch_size = SCHED.max_batch_size;

    let warmup = &traces[0].batches[..2];
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS {
        drop(engine.take());
        let (e, t) = build_engine(config.clone(), tables, &traces[0], warmup);
        engine = Some(e);
        setups.push(t);
    }
    let mut engine = engine.expect("at least one set-up");
    span::set_enabled(false); // the traced run records set-up, then every other timed pass
    let split_ok = check_split_build(&mut engine, tables, &traces[0], &traces[0].batches[..8]);
    drop(engine);
    // What a fresh engine for each trace is built from.
    let fitted: Vec<_> = traces
        .iter()
        .map(|t| {
            let mut c = config.clone();
            c.avg_reduction_hint = t.measured_avg_reduction().max(1.0);
            let p = profiles(tables, t);
            let l = crate::common::mine(&c, t, &p);
            (c, p, l)
        })
        .collect();
    let fresh = |k: usize| {
        let (c, p, l) = &fitted[k];
        UpdlrmEngine::new(c.clone(), tables, p, l).expect("engine builds")
    };

    // Modeled pass: every trace once (the first also warms the host).
    let mut sched = Scheduler::new(SCHED).expect("valid scheduler config");
    let mut modeled = Modeled::default();
    let mut scorers: Vec<Scorer> = traces.iter().map(|t| Scorer::new(&model, t)).collect();
    let mut firsts = Vec::new();
    for (k, (trace, scorer)) in traces.iter().zip(&mut scorers).enumerate() {
        let mut eng = fresh(k);
        let r = sched
            .run(&mut eng, trace, |seq, ids, pooled, bd| {
                scorer.score(seq, ids, pooled);
                modeled.add(bd, ids.len());
            })
            .expect("scheduler run");
        firsts.push((r, eng.metrics_snapshot()));
    }
    let (first, snap) = firsts[0].clone();

    // Probes replay a trace with its arrival times scaled to the
    // probed rate: a scaled Poisson process is Poisson at the scaled
    // rate, and the hot set still rotates every 512 requests.
    let probe = |k: usize, sched: &mut Scheduler| {
        let mut probe = traces[k].clone();
        let base = probe.arrivals.times_ns.clone();
        max_qps(|rate| {
            let scale = DRIFT_QPS / rate;
            let mut last = 0u64;
            for (t, &b) in probe.arrivals.times_ns.iter_mut().zip(&base) {
                last = ((b as f64 * scale).round() as u64).max(last + 1);
                *t = last;
            }
            probe.drift = Some(rotation(rate));
            let r = sched
                .run(&mut fresh(k), &probe, |_, _, _, _| {})
                .expect("probe serves");
            (r, last)
        })
    };

    // Timed replays: each serves all four traces (16,384 requests) on
    // fresh engines, built before the replay's clock starts. The run's
    // seconds are split into one chunk per trace with that trace's
    // max-rate probes after it, so the replays sample more of the
    // host's speed phases.
    let chunk = Duration::from_secs_f64(opts.seconds / traces.len() as f64);
    let mut log = HostLog::default();
    let mut rates = Vec::new();
    let mut traced = Vec::new();
    let mut same = true;
    let mut replays = 0u64;
    for c in 0..traces.len() {
        let deadline = Instant::now() + chunk;
        while Instant::now() < deadline || replays <= c as u64 {
            let on = opts.trace && !replays.is_multiple_of(2);
            let mut engines: Vec<UpdlrmEngine> = (0..traces.len()).map(fresh).collect();
            span::set_enabled(on);
            log.start_segment();
            let open = span::begin("sched.run", replays);
            let runs = traces.iter().zip(&mut engines).zip(&mut scorers);
            for (k, ((trace, eng), scorer)) in runs.enumerate() {
                let r = sched
                    .run(&mut Traced(eng), trace, |seq, ids, pooled, _| {
                        let open = span::begin("bench.sink", seq as u64);
                        scorer.score(seq, ids, pooled);
                        log.complete(ids.len());
                        span::end(open);
                    })
                    .expect("scheduler run");
                same &= r == firsts[k].0;
            }
            span::end(open);
            log.end_segment();
            span::set_enabled(false);
            traced.push(on);
            same &= engines
                .iter()
                .zip(&firsts)
                .all(|(e, (_, s))| e.metrics_snapshot().drift == s.drift);
            replays += 1;
        }
        rates.push(probe(c, &mut sched));
    }
    let mism: u64 = scorers.iter().map(|s| s.mismatches).sum();

    let reports = || firsts.iter().map(|(r, _)| r);
    let mut out = Outcome {
        attempted: (replays + 1) * reports().map(|r| r.requests).sum::<u64>(),
        failed: mism
            + reports()
                .map(|r| r.requests - r.completed + r.shed + r.rejected)
                .sum::<u64>(),
        ..Outcome::default()
    };
    out.correct = out.failed == 0
        && split_ok
        && same
        && firsts.iter().all(|(_, s)| s.drift.migrations_completed > 0);
    let e = &mut out.e2e;
    let med = |f: fn(&SchedReport) -> f64| median(&reports().map(f).collect::<Vec<_>>());
    e.insert("modeled_ns_per_inference", modeled.stage_ns_per_inference());
    e.insert("modeled_p50_us", med(|r| r.p50_latency_ns) / 1e3);
    e.insert("modeled_p99_us", med(|r| r.p99_latency_ns) / 1e3);
    // As on the closed loops, a batch's latency from its due time is
    // the gap since the previous completion.
    let gap_ms = log.report(e);
    e.insert("wall_p50_ms", gap_ms);
    out.slowdown = log.slowdown();
    e.insert("modeled_max_qps", median(&rates));
    e.insert("peak_rss_mb", crate::stats::peak_rss_mb());
    SetupTimes::report(&setups, out.slowdown, &mut out.e2e, &mut out.layer);

    // Scheduler, replan and simulator counters describe the first
    // trace; the stage sums cover all four.
    let l = &mut out.layer;
    modeled.report(l, None);
    l.insert("core.overlap_saved_frac", 0.0);
    report_snapshot(&snap, first.completed, l);
    report_sched(&first, l);
    l.insert("replan.replans", snap.drift.replans_triggered as f64);
    l.insert("replan.rows_moved", snap.drift.rows_moved as f64);
    l.insert("replan.migration_us", snap.drift.migration_ns / 1e3);
    if opts.trace {
        let n = traced.iter().filter(|&&t| t).count() as u64;
        let totals = span::totals();
        let slow = log.slowdown();
        let per_replay = |name: &str, self_time: bool| {
            totals.get(name).map_or(0.0, |&(s, whole)| {
                (if self_time { s } else { whole }) as f64 / 1e6 / n.max(1) as f64 / slow
            })
        };
        l.insert("sched.self_ms", per_replay("sched.run", true));
        l.insert("core.on_tick_ms", per_replay("core.on_tick", false));
        report_spans(n * reports().map(|r| r.batches).sum::<u64>(), slow, l);
        overhead(log.rates(), &traced, l);
    }
    out
}

/// Offered rate of wall-open. At 8k qps (about 40% of one shard's
/// drain rate on a 2-vCPU host) the host gaps and latency swung up to
/// 2x between runs of one seed; at 4k qps they hold within a few
/// percent.
const WALL_QPS: f64 = 4_000.0;
/// Requests per wall-open replay: 64 batches of 64 (about 1 s).
const WALL_BATCHES: usize = 64;

/// `wall-open`: the wall-clock `Runtime`, 1 shard, GoodReads/2000,
/// 4 tables, 64 DPUs, cache-aware; Poisson arrivals at 4k qps. It
/// first checks the runtime's deterministic mode against
/// `Scheduler::run` byte for byte. Host throughput and gaps come from
/// unpaced deterministic replays, whose cost is the program's; in real
/// time they would follow the offered load. `wall_p50_ms` comes from
/// replays paced to the wall clock.
pub fn wall_open(opts: &Opts) -> Outcome {
    let mut trace = Workload::generate(&spec(), trace_config(TABLES, WALL_BATCHES, opts.seed));
    trace.stamp_arrivals(ArrivalProcess::poisson(WALL_QPS, opts.seed));
    let model = model(spec().num_items, TABLES, opts.seed);
    let mut scorer = Scorer::new(&model, &trace);
    let mut config =
        UpdlrmConfig::with_dpus(64, PartitionStrategy::CacheAware).with_host_threads(1);
    config.batch_size = SCHED.max_batch_size;
    config.telemetry = opts.trace;

    let warmup = &trace.batches[..2];
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS {
        drop(engine.take());
        let (e, t) = build_engine(config.clone(), model.tables(), &trace, warmup);
        engine = Some(e);
        setups.push(t);
    }
    let mut engine = engine.expect("at least one set-up");
    span::set_enabled(false); // the traced run records set-up, then every other timed pass
    let split_ok = check_split_build(&mut engine, model.tables(), &trace, &trace.batches[..4]);

    // Modeled pass: the scheduler on modeled time over the whole trace.
    let mut sched = Scheduler::new(SCHED).expect("valid scheduler config");
    let mut modeled = Modeled::default();
    engine.reset_metrics();
    let first = sched
        .run(&mut engine, &trace, |seq, ids, pooled, bd| {
            scorer.score(seq, ids, pooled);
            modeled.add(bd, ids.len());
        })
        .expect("modeled pass");
    let snap = engine.metrics_snapshot();
    let det_ok = deterministic_matches(&mut engine, &trace, &mut sched);

    // Each timed round replays the trace twice through the runtime:
    // unpaced in deterministic mode (batches form as on modeled time,
    // identically every round) for the host cost metrics, then paced
    // to the wall clock for the latency from each request's due time.
    let (det, wall) = (runtime(true), runtime(false));
    let mut log = HostLog::default();
    let (mut p50, mut p99, mut service, mut ratio) = (vec![], vec![], vec![], vec![]);
    let mut traced = Vec::new();
    let mut dropped = 0u64;
    let mut same = true;
    let mut attempted = first.requests;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut k = 0u64;
    while Instant::now() < deadline || k < 3 {
        let on = opts.trace && !k.is_multiple_of(2);
        span::set_enabled(on);
        log.start_segment();
        let open = span::begin("runtime.run", k);
        let r = det
            .run(
                std::slice::from_mut(&mut engine),
                &trace,
                |seq, ids, pooled, _| {
                    let open = span::begin("bench.sink", seq as u64);
                    scorer.score(seq, ids, pooled);
                    log.complete(ids.len());
                    span::end(open);
                },
            )
            .expect("deterministic run");
        span::end(open);
        log.end_segment();
        span::set_enabled(false);
        traced.push(on);
        same &= r.sched == first;

        let r = wall
            .run(
                std::slice::from_mut(&mut engine),
                &trace,
                |seq, ids, pooled, _| scorer.score(seq, ids, pooled),
            )
            .expect("wall run");
        attempted += first.requests + r.sched.requests;
        dropped += r.sched.shed + r.sched.rejected + (r.sched.requests - r.sched.completed);
        p50.push(r.sched.p50_latency_ns / 1e6);
        p99.push(r.sched.p99_latency_ns / 1e6);
        service.push(r.wall.measured_service_ns / 1e6 / r.sched.batches as f64);
        ratio.push(r.wall.measured_service_ns / r.wall.modeled_service_ns);
        k += 1;
    }

    let mut out = Outcome {
        attempted,
        failed: scorer.mismatches + dropped + first.shed + first.rejected,
        ..Outcome::default()
    };
    out.correct =
        out.failed == 0 && split_ok && det_ok && same && first.completed == first.requests;
    let e = &mut out.e2e;
    e.insert("modeled_ns_per_inference", modeled.stage_ns_per_inference());
    e.insert("modeled_p50_us", first.p50_latency_ns / 1e3);
    e.insert("modeled_p99_us", first.p99_latency_ns / 1e3);
    log.report(e);
    // Paced to the wall clock, this latency is mostly waiting for
    // arrivals and the batching window, so it is not normalized.
    e.insert("wall_p50_ms", median(&p50));
    out.slowdown = log.slowdown();
    e.insert(
        "modeled_max_qps",
        stamped_max_qps(&mut engine, prefix(&trace, PROBE_BATCHES), opts.seed),
    );
    e.insert("peak_rss_mb", crate::stats::peak_rss_mb());
    SetupTimes::report(&setups, out.slowdown, &mut out.e2e, &mut out.layer);

    let l = &mut out.layer;
    modeled.report(l, Some("cooccur.hit_ratio"));
    l.insert("core.overlap_saved_frac", 0.0);
    report_snapshot(&snap, first.completed, l);
    report_sched(&first, l);
    // The runtime's service time is host work: normalized like the
    // segments, by the run's median host slowdown.
    let slow = out.slowdown;
    l.insert("runtime.service_ms_per_batch", median(&service) / slow);
    l.insert("runtime.measured_over_modeled", median(&ratio) / slow);
    l.insert("runtime.wall_p99_ms", median(&p99));
    if opts.trace {
        let n = traced.iter().filter(|&&t| t).count() as u64;
        // The engine runs on the shard thread, outside these spans;
        // the runtime's own service timing stands in for it.
        report_spans(n * first.batches, slow, l);
        l.insert("core.serve_ms_per_batch", median(&service) / slow);
        overhead(log.rates(), &traced, l);
    }
    out
}

/// The runtime's deterministic mode must reproduce `Scheduler::run`
/// byte for byte on a prefix of the trace: same report, same batches,
/// same pooled embeddings.
fn deterministic_matches(
    engine: &mut UpdlrmEngine,
    trace: &Workload,
    sched: &mut Scheduler,
) -> bool {
    let mut wl = prefix(trace, PROBE_BATCHES);
    wl.arrivals = workloads::ArrivalTrace {
        process: trace.arrivals.process,
        times_ns: trace.arrivals.times_ns[..wl.num_queries()].to_vec(),
    };
    let mut a = Vec::new();
    let ra = sched
        .run(engine, &wl, |seq, ids, pooled, _| {
            a.push((seq, ids.to_vec(), pooled.to_vec()))
        })
        .expect("scheduler run");
    let mut b = Vec::new();
    let rb = runtime(true)
        .run(std::slice::from_mut(engine), &wl, |seq, ids, pooled, _| {
            b.push((seq, ids.to_vec(), pooled.to_vec()))
        })
        .expect("deterministic run");
    ra == rb.sched && a == b
}

/// One-shard runtime with the open-loop batching, replaying arrivals
/// in real time or, when `deterministic`, on modeled time as fast as
/// the host allows.
fn runtime(deterministic: bool) -> Runtime {
    Runtime::new(RuntimeConfig {
        sched: SCHED,
        shards: 1,
        time_scale: 1.0,
        deterministic,
        ring_capacity: 64,
    })
    .expect("valid runtime config")
}
