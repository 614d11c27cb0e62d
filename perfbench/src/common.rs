//! Pieces every workload shares: the model, the set-up split, the
//! CTR-score check, host segment timing, the modeled max-rate search
//! and the per-layer sums over modeled breakdowns.

use std::collections::BTreeMap;
use std::time::Instant;

use cooccur_cache::{CacheListSet, CooccurGraph};
use dlrm_model::{Dlrm, DlrmConfig, EmbeddingTable, Matrix, QueryBatch};
use scheduler::{OverloadPolicy, SchedConfig, SchedReport};
use updlrm_core::{EmbeddingBreakdown, PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
use workloads::{FreqProfile, Workload};

use crate::stats::{median, percentile, trimmed_mean};
use crate::{probe, span};

/// Latency limit on the modeled p99 that `modeled_max_qps` must meet.
pub const P99_LIMIT_NS: f64 = 2_000_000.0;
/// Open-loop batching shared by drift-open, wall-open and every
/// max-rate probe: max batch 32, max wait 200 µs, Block on overflow.
pub const SCHED: SchedConfig = SchedConfig {
    max_batch_size: 32,
    max_wait_ns: 200_000,
    queue_cap: 512,
    policy: OverloadPolicy::Block,
};
/// Embedding dimension of every table (the paper's 32).
pub const DIM: usize = 32;
/// Engine set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Trace batches of 64 requests offered to each max-rate probe of a
/// stationary workload (2,048 requests).
pub const PROBE_BATCHES: usize = 32;

/// Metric values a workload produced, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one workload run reports back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// CTR scores produced.
    pub attempted: u64,
    /// Errors + shed + rejected + CTR mismatches.
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    /// End-to-end metric values.
    pub e2e: Values,
    /// Per-layer metric values (printed by the traced run).
    pub layer: Values,
    /// Median host slowdown the probe measured over the timed segments.
    pub slowdown: f64,
}

/// A DLRM with integer-valued tables, so pooled sums are exact in f32
/// and a CTR score from the engine's pooled embeddings must be
/// bit-equal to `Dlrm::forward`.
pub fn model(rows: usize, tables: usize, seed: u64) -> Dlrm {
    Dlrm::new_integer_tables(DlrmConfig {
        num_dense: 13,
        embedding_dim: DIM,
        table_rows: vec![rows; tables],
        bottom_hidden: vec![64],
        top_hidden: vec![64, 16],
        seed,
    })
    .expect("valid model config")
}

/// Trace shape shared by every workload: batches of 64 requests with
/// 13 dense features.
pub fn trace_config(tables: usize, batches: usize, seed: u64) -> workloads::TraceConfig {
    workloads::TraceConfig {
        num_tables: tables,
        batch_size: 64,
        num_batches: batches,
        num_dense: 13,
        seed,
    }
}

/// Reference CTR scores of every trace batch, from the host-only
/// `Dlrm::forward` (computed before anything is timed).
pub fn reference_scores(model: &Dlrm, trace: &Workload) -> Vec<Vec<f32>> {
    trace
        .batches
        .iter()
        .map(|b| model.forward(b).expect("reference forward"))
        .collect()
}

/// Bitwise mismatches between `got` and `want`.
pub fn mismatches(got: &[f32], want: &[f32]) -> u64 {
    assert_eq!(got.len(), want.len(), "score count");
    got.iter()
        .zip(want)
        .filter(|(g, w)| g.to_bits() != w.to_bits())
        .count() as u64
}

/// CTR scores for one served batch: the dense side of the model on
/// the engine's pooled embeddings.
pub fn ctr(model: &Dlrm, batch: &QueryBatch, pooled: &[Matrix], id: u64) -> Vec<f32> {
    span::scope("model.forward", id, || {
        model
            .forward_with_pooled(batch, pooled)
            .expect("dense forward")
    })
}

/// Host seconds of each set-up step of one engine build.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub profile_s: f64,
    pub mine_s: f64,
    pub plan_s: f64,
    pub build_s: f64,
    pub warmup_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.profile_s + self.mine_s + self.plan_s + self.build_s + self.warmup_s
    }

    /// `setup_s` plus the per-layer split, each the median over `runs`
    /// divided by the run's median host slowdown `slow` (set-up calls
    /// the program's crates, so no probe slices run inside it).
    pub fn report(runs: &[SetupTimes], slow: f64, e2e: &mut Values, layer: &mut Values) {
        let med =
            |f: fn(&SetupTimes) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>()) / slow;
        e2e.insert("setup_s", med(SetupTimes::total));
        layer.insert("workloads.profile_s", med(|s| s.profile_s));
        layer.insert("cooccur.mine_s", med(|s| s.mine_s));
        layer.insert("placement.plan_s", med(|s| s.plan_s));
        layer.insert("core.engine_build_s", med(|s| s.build_s));
        layer.insert("core.warmup_s", med(|s| s.warmup_s));
    }
}

/// Times `f` into `slot` (seconds) inside a span named `name`.
pub fn timed<T>(name: &'static str, slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = span::scope(name, 0, f);
    *slot = t.elapsed().as_secs_f64();
    out
}

/// Frequency profile of every table of `trace`.
pub fn profiles(tables: &[EmbeddingTable], trace: &Workload) -> Vec<FreqProfile> {
    tables
        .iter()
        .enumerate()
        .map(|(t, table)| FreqProfile::from_inputs(table.rows(), trace.table_inputs(t)))
        .collect()
}

/// Co-occurrence mining exactly as `UpdlrmEngine::from_workload` does
/// it: graph over the configured hot set and sample budget, Alg. 1
/// list mining, then the benefit pass over the whole trace.
pub fn mine(
    config: &UpdlrmConfig,
    trace: &Workload,
    profiles: &[FreqProfile],
) -> Vec<CacheListSet> {
    if config.strategy != PartitionStrategy::CacheAware {
        return vec![CacheListSet::default(); profiles.len()];
    }
    profiles
        .iter()
        .enumerate()
        .map(|(t, profile)| {
            let mut graph = CooccurGraph::new(profile, config.miner.hot_set_size);
            let mut budget = config.miner.max_samples;
            'record: for input in trace.table_inputs(t) {
                for sample in input.iter() {
                    if budget == 0 {
                        break 'record;
                    }
                    graph.record_sample(sample);
                    budget -= 1;
                }
            }
            let mut set = CacheListSet::mine(&graph, &config.miner);
            set.measure_benefit(trace.table_inputs(t));
            set
        })
        .collect()
}

/// Builds an engine from the public pieces (profile → mine → new),
/// timing each, then warms it by serving `warmup` batches.
pub fn build_engine(
    mut config: UpdlrmConfig,
    tables: &[EmbeddingTable],
    trace: &Workload,
    warmup: &[QueryBatch],
) -> (UpdlrmEngine, SetupTimes) {
    let mut times = SetupTimes::default();
    config.avg_reduction_hint = trace.measured_avg_reduction().max(1.0);
    let profiles = timed("workloads.profile", &mut times.profile_s, || {
        profiles(tables, trace)
    });
    let lists = timed("cooccur.mine", &mut times.mine_s, || {
        mine(&config, trace, &profiles)
    });
    let mut engine = timed("core.engine_build", &mut times.build_s, || {
        UpdlrmEngine::new(config, tables, &profiles, &lists).expect("engine builds")
    });
    timed("core.warmup", &mut times.warmup_s, || {
        engine
            .serve_stream(warmup, |_, _, _| {})
            .expect("warm-up serve")
    });
    (engine, times)
}

/// Checks that `split`, an engine built from the public pieces by
/// [`build_engine`], reproduces `UpdlrmEngine::from_workload`: same
/// pooled embeddings, breakdowns and serve report on `batches`.
pub fn check_split_build(
    split: &mut UpdlrmEngine,
    tables: &[EmbeddingTable],
    trace: &Workload,
    batches: &[QueryBatch],
) -> bool {
    let a = split.serve(batches).expect("split serve");
    let config = split.config().clone();
    let mut whole =
        UpdlrmEngine::from_workload(config, tables, trace).expect("from_workload builds");
    a == whole.serve(batches).expect("from_workload serve")
}

/// Host completion log, in segments: one per pass over the trace or
/// per replay. Gaps are taken only between completions inside one
/// segment, so work between segments (a fresh engine, a check) never
/// counts as serving time.
///
/// Between completions the log runs slices of the host probe (see
/// `probe.rs`), about one twentieth of the serving time, spread over
/// the segment. Probe time is not serving time: it is taken out of the
/// segment's seconds and out of the gaps. The segment's rate and gaps
/// are normalized by the slowdown its slices measured, so every
/// segment reads at the reference host speed.
#[derive(Debug, Default)]
pub struct HostLog {
    /// Normalized scores per host second of each finished segment.
    rates: Vec<f64>,
    /// Host slowdown the probe slices of each finished segment measured.
    slowdowns: Vec<f64>,
    /// Normalized host seconds between consecutive CTR-score
    /// completions, per finished segment, in completion order.
    gaps: Vec<Vec<f64>>,
    open: Vec<f64>,
    start: Option<Instant>,
    last: Option<Instant>,
    samples: u64,
    /// Probe seconds and slices run in the open segment.
    probe_secs: f64,
    slices: usize,
}

impl HostLog {
    pub fn start_segment(&mut self) {
        probe::prepare();
        self.start = Some(Instant::now());
        self.last = None;
        self.samples = 0;
        self.probe_secs = 0.0;
        self.slices = 0;
    }

    /// Records the completion of `samples` CTR scores now, then runs
    /// probe slices until they make up a twentieth of the time served
    /// so far in this segment.
    pub fn complete(&mut self, samples: usize) {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.open.push((now - last).as_secs_f64());
        }
        self.samples += samples as u64;
        if let Some(start) = self.start {
            let served = (now - start).as_secs_f64() - self.probe_secs;
            while self.probe_secs < served / 20.0 {
                self.probe_secs += probe::slice();
                self.slices += 1;
            }
        }
        self.last = Some(Instant::now());
    }

    pub fn end_segment(&mut self) {
        let secs = self
            .start
            .take()
            .expect("segment started")
            .elapsed()
            .as_secs_f64()
            - self.probe_secs;
        let slow = probe::slowdown_of(self.probe_secs, self.slices);
        self.rates.push(self.samples as f64 / secs * slow);
        self.slowdowns.push(slow);
        let mut gaps = std::mem::take(&mut self.open);
        gaps.iter_mut().for_each(|g| *g /= slow);
        self.gaps.push(gaps);
    }

    /// Normalized scores per host second of every segment.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Median host slowdown over the segments.
    pub fn slowdown(&self) -> f64 {
        median(&self.slowdowns)
    }

    /// Fills `host_inferences_per_s` (median normalized segment rate)
    /// and `host_p99_ms`, and returns the typical gap in ms. Every
    /// segment must complete the same batches in the same order: each
    /// completion position's normalized gap is first reduced to its
    /// trimmed mean over segments; `host_p99_ms` is the p99 over
    /// positions and the returned value their median.
    pub fn report(&self, e2e: &mut Values) -> f64 {
        e2e.insert("host_inferences_per_s", median(&self.rates));
        let n = self.gaps[0].len();
        assert!(
            self.gaps.iter().all(|g| g.len() == n),
            "replayed segments complete the same batches"
        );
        let per_position: Vec<f64> = (0..n)
            .map(|i| trimmed_mean(&self.gaps.iter().map(|g| g[i]).collect::<Vec<_>>()))
            .collect();
        e2e.insert("host_p99_ms", percentile(&per_position, 0.99) * 1e3);
        median(&per_position) * 1e3
    }
}

/// Highest Poisson rate whose modeled p99 stays within
/// [`P99_LIMIT_NS`] with no backlog at trace end (the last request
/// drains within the limit of the last arrival) and nothing dropped.
/// `probe(rate)` serves a trace offered at `rate` and returns its
/// report and last arrival. The search saturates first to find the
/// service capacity, then bisects the rate 7 times in log space
/// between a quarter of capacity and capacity.
pub fn max_qps(mut probe: impl FnMut(f64) -> (SchedReport, u64)) -> f64 {
    let mut ok = |rate: f64| {
        let (r, last_arrival) = probe(rate);
        let fits = r.shed == 0
            && r.rejected == 0
            && r.p99_latency_ns <= P99_LIMIT_NS
            && r.makespan_ns - last_arrival as f64 <= P99_LIMIT_NS;
        (fits, r.achieved_qps)
    };
    let (_, capacity) = ok(1e9);
    let (mut lo, mut hi) = (capacity / 4.0, capacity);
    if ok(hi).0 {
        return hi;
    }
    let mut lo_fits = false;
    for _ in 0..7 {
        let mid = (lo * hi).sqrt();
        if ok(mid).0 {
            lo = mid;
            lo_fits = true;
        } else {
            hi = mid;
        }
    }
    assert!(
        lo_fits || ok(lo).0,
        "a quarter of capacity misses the p99 limit"
    );
    lo
}

/// Modeled per-layer sums over a pass's breakdowns, per inference.
#[derive(Debug, Default)]
pub struct Modeled {
    sum: EmbeddingBreakdown,
    imbalance: f64,
    batches: u64,
    samples: u64,
}

impl Modeled {
    pub fn add(&mut self, bd: &EmbeddingBreakdown, samples: usize) {
        self.sum.accumulate(bd);
        self.imbalance += bd.lookup_imbalance;
        self.batches += 1;
        self.samples += samples as u64;
    }

    /// Sum of per-batch embedding-layer time (stages 1-3) per inference.
    pub fn stage_ns_per_inference(&self) -> f64 {
        self.sum.total_ns() / self.samples as f64
    }

    /// Fills the modeled per-layer metrics. `hit_metric` names the
    /// ratio the breakdown's `cache_hits` feeds (co-occurrence cache
    /// or tiered host cache), if any.
    pub fn report(&self, layer: &mut Values, hit_metric: Option<&'static str>) {
        let n = self.samples as f64;
        let s = &self.sum;
        layer.insert("core.route_ns", s.route_ns / n);
        layer.insert("core.stage1_ns", s.stage1_ns / n);
        layer.insert("core.stage2_ns", s.stage2_ns / n);
        layer.insert("core.stage3_ns", s.stage3_ns / n);
        layer.insert("core.combine_ns", s.combine_ns / n);
        layer.insert("core.energy_pj_per_inference", s.energy_pj / n);
        layer.insert(
            "sim.dma_transfers_per_inference",
            s.dma_transfers as f64 / n,
        );
        layer.insert("sim.instrs_per_inference", s.instrs as f64 / n);
        layer.insert(
            "partition.lookup_imbalance",
            self.imbalance / self.batches as f64,
        );
        if let Some(name) = hit_metric {
            let looked = (s.cache_hits + s.emt_lookups) as f64;
            layer.insert(name, s.cache_hits as f64 / looked.max(1.0));
        }
    }
}

/// Simulator-side per-layer metrics from a telemetry snapshot taken
/// over `samples` inferences.
pub fn report_snapshot(snap: &updlrm_core::Snapshot, samples: u64, layer: &mut Values) {
    let active: Vec<_> = snap.per_dpu.iter().filter(|d| d.launches > 0).collect();
    let bytes: u64 = active.iter().map(|d| d.mram_bytes).sum();
    layer.insert("sim.dma_bytes_per_inference", bytes as f64 / samples as f64);
    if !active.is_empty() {
        layer.insert(
            "sim.tasklet_occupancy",
            active.iter().map(|d| d.tasklet_occupancy).sum::<f64>() / active.len() as f64,
        );
    }
}

/// Host per-layer metrics from the spans of the traced segments:
/// `core.serve_ms_per_batch` is the self time of `core.serve_stream`
/// (the sink excluded), `model.forward_ms_per_batch` the dense model.
/// Both are divided by the run's median host slowdown `slow`.
pub fn report_spans(batches: u64, slow: f64, layer: &mut Values) {
    let totals = span::totals();
    let per_batch = |name: &str| {
        totals.get(name).map_or(0.0, |&(self_ns, _)| {
            self_ns as f64 / 1e6 / batches.max(1) as f64 / slow
        })
    };
    layer.insert("core.serve_ms_per_batch", per_batch("core.serve_stream"));
    layer.insert("model.forward_ms_per_batch", per_batch("model.forward"));
}

/// The first `batches` batches of `trace`, as a workload of its own.
pub fn prefix(trace: &Workload, batches: usize) -> Workload {
    Workload {
        spec: trace.spec.clone(),
        config: workloads::TraceConfig {
            num_batches: batches,
            ..trace.config
        },
        batches: trace.batches[..batches].to_vec(),
        arrivals: workloads::ArrivalTrace::closed_loop(),
        drift: None,
    }
}

/// `modeled_max_qps` of an engine whose serving does not change its
/// state: Poisson arrivals stamped on `wl`, served by the open-loop
/// scheduler on modeled time.
pub fn stamped_max_qps<E: updlrm_core::BatchServer>(
    engine: &mut E,
    mut wl: Workload,
    seed: u64,
) -> f64 {
    let mut sched = scheduler::Scheduler::new(SCHED).expect("valid scheduler config");
    max_qps(|rate| {
        wl.stamp_arrivals(workloads::ArrivalProcess::poisson(rate, seed));
        let r = sched
            .run(engine, &wl, |_, _, _, _| {})
            .expect("probe serves");
        (r, wl.arrivals.last_arrival_ns())
    })
}

/// `trace.overhead_frac`: median untraced segment rate over median
/// traced segment rate, minus one.
pub fn overhead(rates: &[f64], traced: &[bool], layer: &mut Values) {
    let pick = |want: bool| -> Vec<f64> {
        rates
            .iter()
            .zip(traced)
            .filter(|(_, &t)| t == want)
            .map(|(r, _)| *r)
            .collect()
    };
    layer.insert(
        "trace.overhead_frac",
        median(&pick(false)) / median(&pick(true)) - 1.0,
    );
}
