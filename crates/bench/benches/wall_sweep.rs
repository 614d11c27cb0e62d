//! Wall-clock serving throughput across shard counts: the measured
//! counterpart of `sched_sweep`'s modeled curve.
//!
//! The bench saturates the concurrent runtime (all arrivals offered
//! up front, queue sized to hold the whole trace) so the measured QPS
//! *is* the engine-worker service capacity at each shard count, then
//! records it next to what the modeled oracle predicts for the same
//! trace. Before anything is timed, the deterministic-mode lock is
//! asserted: `Runtime` with `deterministic: true` must reproduce the
//! modeled `Scheduler::run` report byte for byte — a wall_sweep run
//! doubles as an end-to-end differential check.
//!
//! Wall numbers are machine- and neighbour-dependent, so the `--check`
//! gate is deliberately loose: a row regresses only when measured QPS
//! falls below 65% of the committed baseline. Modeled fields stay
//! exact. Output lands in `BENCH_wall.json` at the repo root, under the
//! flags and baseline carry-forward of [`bench::trajectory`]; `--smoke`
//! runs fewer shard counts on a shorter trace.

use bench::trajectory::{self, Better, Gate, Trajectory};
use dlrm_model::EmbeddingTable;
use runtime::{Runtime, RuntimeConfig, RuntimeReport};
use scheduler::{report_is_finite, OverloadPolicy, SchedConfig, Scheduler};
use serde::Value;
use updlrm_core::{PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
use workloads::{ArrivalProcess, DatasetSpec, TraceConfig, Workload};

const NUM_TABLES: usize = 2;
const NR_DPUS: usize = 32;
const DIM: usize = 32;
const MAX_BATCH: usize = 64;
const MAX_WAIT_NS: u64 = 200_000;
const ARRIVAL_SEED: u64 = 7;
/// Offered far above capacity: every arrival is queued immediately,
/// so measured QPS is pure drain rate.
const SATURATING_QPS: f64 = 10_000_000.0;

struct Sweep {
    shard_counts: &'static [usize],
    num_batches: usize,
}

const FULL: Sweep = Sweep {
    shard_counts: &[1, 2, 4],
    num_batches: 4,
};
const SMOKE: Sweep = Sweep {
    shard_counts: &[1, 2],
    num_batches: 2,
};

#[derive(serde::Serialize)]
struct Row {
    /// Engine workers (the baseline key).
    shards: u64,
    requests: u64,
    completed: u64,
    batches: u64,
    /// Completed requests per second of real wall time — the measured
    /// number this bench tracks across PRs.
    measured_qps: f64,
    wall_ms: f64,
    measured_p50_us: f64,
    measured_p95_us: f64,
    /// What the modeled oracle achieves on the same saturating trace.
    modeled_qps: f64,
    modeled_p95_us: f64,
    /// QPS of the carried baseline row, 0.0 when none matched.
    baseline_qps: f64,
    /// measured / baseline; 0.0 when no baseline row matched.
    speedup_vs_baseline: f64,
}

fn build(num_batches: usize) -> (Vec<EmbeddingTable>, Workload) {
    let spec = DatasetSpec::goodreads().scaled_down(2000);
    let mut workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: NUM_TABLES,
            num_batches,
            ..TraceConfig::default()
        },
    );
    workload.stamp_arrivals(ArrivalProcess::poisson(SATURATING_QPS, ARRIVAL_SEED));
    let tables = (0..NUM_TABLES)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    (tables, workload)
}

fn engines(tables: &[EmbeddingTable], workload: &Workload, shards: usize) -> Vec<UpdlrmEngine> {
    (0..shards)
        .map(|_| {
            let mut config = UpdlrmConfig::with_dpus(NR_DPUS, PartitionStrategy::CacheAware)
                .with_host_threads(1);
            config.batch_size = MAX_BATCH;
            let mut eng =
                UpdlrmEngine::from_workload(config, tables, workload).expect("engine builds");
            // Warm each engine's serve scratch before the measured run:
            // a cold first serve costs ~20x a steady one and would make
            // throughput a warmup count, not a drain rate.
            eng.serve_stream(&workload.batches[..1], |_, _, _| {})
                .expect("warmup serves");
            eng
        })
        .collect()
}

fn sched_config(queue_cap: usize) -> SchedConfig {
    SchedConfig {
        max_batch_size: MAX_BATCH,
        max_wait_ns: MAX_WAIT_NS,
        queue_cap,
        policy: OverloadPolicy::ShedOldest,
    }
}

fn run_wall(
    tables: &[EmbeddingTable],
    workload: &Workload,
    queue_cap: usize,
    shards: usize,
    deterministic: bool,
) -> RuntimeReport {
    let mut eng = engines(tables, workload, shards);
    let rt = Runtime::new(RuntimeConfig {
        sched: sched_config(queue_cap),
        shards,
        time_scale: 1.0,
        deterministic,
        ring_capacity: 64,
    })
    .expect("valid runtime config");
    rt.run(&mut eng, workload, |_, _, _, _| {})
        .expect("wall run completes")
}

fn main() {
    let mut traj = Trajectory::from_env(
        "BENCH_wall.json",
        Gate {
            metric: "measured_qps",
            unit: "qps",
            better: Better::Higher,
            bound: 0.65,
        },
    );
    let smoke = traj.smoke();
    let sweep = if smoke { SMOKE } else { FULL };

    let (tables, workload) = build(sweep.num_batches);
    let total_queries: usize = workload.batches.iter().map(|b| b.batch_size()).sum();
    // Queue holds the entire trace: nothing sheds, so every run
    // completes exactly `total_queries` requests and measured QPS is
    // directly comparable across shard counts.
    let queue_cap = total_queries.max(MAX_BATCH);

    // The modeled oracle for this trace — and the deterministic lock:
    // a 2-shard deterministic run must reproduce its report exactly.
    let mut oracle_eng = engines(&tables, &workload, 1);
    let mut oracle_sched = Scheduler::new(sched_config(queue_cap)).expect("valid config");
    let modeled = oracle_sched
        .run(&mut oracle_eng[0], &workload, |_, _, _, _| {})
        .expect("oracle runs");
    let det = run_wall(&tables, &workload, queue_cap, 2, true);
    assert_eq!(
        det.sched, modeled,
        "deterministic runtime must reproduce the modeled scheduler byte for byte"
    );
    println!(
        "wall sweep: {NUM_TABLES} tables x {NR_DPUS} DPUs, goodreads/2000, \
         {total_queries} queries, oracle lock OK{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows = Vec::new();
    for &shards in sweep.shard_counts {
        let r = run_wall(&tables, &workload, queue_cap, shards, false);
        assert_eq!(
            r.sched.completed, r.sched.requests,
            "{shards} shards: queue holds the trace, nothing may shed"
        );
        assert!(report_is_finite(&r.sched), "{shards} shards: {:?}", r.sched);
        let measured = r.wall.measured_qps;
        let cmp = traj.compare(&format!("shards {shards}"), measured, |r| {
            trajectory::num(r, "shards") == Some(shards as f64)
        });
        println!(
            "  shards {shards}  measured {measured:>9.0} qps over {:>7.1} ms  \
             p95 {:>9.1} us  (modeled {:>9.0} qps){cmp}",
            r.wall.wall_elapsed_ns / 1e6,
            r.sched.p95_latency_ns / 1e3,
            modeled.achieved_qps,
        );
        rows.push(Row {
            shards: shards as u64,
            requests: r.sched.requests,
            completed: r.sched.completed,
            batches: r.sched.batches,
            measured_qps: measured,
            wall_ms: r.wall.wall_elapsed_ns / 1e6,
            measured_p50_us: r.sched.p50_latency_ns / 1e3,
            measured_p95_us: r.sched.p95_latency_ns / 1e3,
            modeled_qps: modeled.achieved_qps,
            modeled_p95_us: modeled.p95_latency_ns / 1e3,
            baseline_qps: cmp.base,
            speedup_vs_baseline: cmp.speedup,
        });
    }

    traj.finish(
        vec![
            ("bench".into(), Value::Str("wall_sweep".into())),
            ("dataset".into(), Value::Str("goodreads/2000".into())),
            ("nr_dpus".into(), Value::UInt(NR_DPUS as u64)),
            ("num_tables".into(), Value::UInt(NUM_TABLES as u64)),
            ("dim".into(), Value::UInt(DIM as u64)),
            ("max_batch".into(), Value::UInt(MAX_BATCH as u64)),
            ("max_wait_ns".into(), Value::UInt(MAX_WAIT_NS)),
            ("queue_cap".into(), Value::UInt(queue_cap as u64)),
            ("policy".into(), Value::Str("shed-oldest".into())),
            ("offered_qps".into(), Value::Float(SATURATING_QPS)),
            ("modeled_qps".into(), Value::Float(modeled.achieved_qps)),
        ],
        &rows,
    );
}
