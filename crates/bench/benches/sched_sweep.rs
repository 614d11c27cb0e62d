//! Open-loop QPS sweep through the serving scheduler: the p99-vs-load
//! curve and its saturation knee.
//!
//! The sweep first probes engine capacity (a deliberately saturating
//! run whose achieved QPS *is* the service capacity, since the batcher
//! then always forms full batches), then offers Poisson load at fixed
//! multiples of that capacity. On modeled time the expected knee shape
//! is asserted, not eyeballed:
//!
//! 1. below capacity, achieved tracks offered and nothing is shed;
//! 2. above capacity, achieved plateaus at the probe's capacity while
//!    p99 latency grows and the shed counter goes nonzero;
//! 3. two runs of any load point produce identical `SchedReport`s
//!    (the scheduler is wall-clock-free).
//!
//! The *measured* number tracked across PRs is the simulator's own
//! wall clock per offered request around `Scheduler::run` — the cost
//! of the event loop + admission queue + batch assembly + engine. It
//! lands in `BENCH_sched.json` at the repo root, under the flags,
//! baseline carry-forward and >20% ns/request gate of
//! [`bench::trajectory`]; `--smoke` runs two load points with a short
//! window.

use std::hint::black_box;

use bench::timing;
use bench::trajectory::{self, Gate, Trajectory};
use dlrm_model::EmbeddingTable;
use scheduler::{OverloadPolicy, SchedConfig, SchedReport, Scheduler};
use serde::Value;
use updlrm_core::{PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
use workloads::{ArrivalProcess, DatasetSpec, TraceConfig, Workload};

const NUM_TABLES: usize = 4;
const NR_DPUS: usize = 64;
const DIM: usize = 32;
const MAX_BATCH: usize = 32;
const MAX_WAIT_NS: u64 = 200_000;
const QUEUE_CAP: usize = 64;
const ARRIVAL_SEED: u64 = 7;

struct Sweep {
    /// Offered load as percent of probed capacity.
    load_pct: &'static [u64],
    num_batches: usize,
    window_ms: u64,
}

const FULL: Sweep = Sweep {
    load_pct: &[25, 50, 100, 200, 400],
    num_batches: 8,
    window_ms: 300,
};
// Smoke trims load points and the timing window but keeps the trace
// length: ns/request amortizes per-run fixed costs over the request
// count, so rows are only comparable to the committed full sweep's at
// the same trace length.
const SMOKE: Sweep = Sweep {
    load_pct: &[50, 400],
    num_batches: FULL.num_batches,
    window_ms: 30,
};

#[derive(serde::Serialize)]
struct Row {
    /// Offered load, percent of probed capacity (the baseline key).
    load_pct: u64,
    offered_qps: f64,
    achieved_qps: f64,
    completed: u64,
    shed: u64,
    batches: u64,
    mean_batch_size: f64,
    p50_latency_us: f64,
    p99_latency_us: f64,
    /// Simulator wall clock per *offered* request (the software cost
    /// this bench tracks across PRs).
    measured_ns_per_request: f64,
    /// ns/request of the carried baseline row, 0.0 when none matched.
    baseline_ns_per_request: f64,
    /// baseline / measured; 0.0 when no baseline row matched.
    speedup_vs_baseline: f64,
}

fn build(num_batches: usize) -> (Vec<EmbeddingTable>, Workload) {
    let spec = DatasetSpec::goodreads().scaled_down(2000);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: NUM_TABLES,
            num_batches,
            ..TraceConfig::default()
        },
    );
    let tables = (0..NUM_TABLES)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    (tables, workload)
}

fn engine(tables: &[EmbeddingTable], workload: &Workload) -> UpdlrmEngine {
    let mut config = UpdlrmConfig::with_dpus(NR_DPUS, PartitionStrategy::CacheAware)
        // Serial fleet execution keeps the run allocation-free and the
        // measured number about the event loop, not thread spawning.
        .with_host_threads(1);
    config.batch_size = MAX_BATCH;
    UpdlrmEngine::from_workload(config, tables, workload).expect("engine builds")
}

fn sched() -> Scheduler {
    Scheduler::new(SchedConfig {
        max_batch_size: MAX_BATCH,
        max_wait_ns: MAX_WAIT_NS,
        queue_cap: QUEUE_CAP,
        policy: OverloadPolicy::ShedOldest,
    })
    .expect("valid config")
}

fn run_once(eng: &mut UpdlrmEngine, workload: &Workload, s: &mut Scheduler) -> SchedReport {
    s.run(eng, workload, |_, _, _, _| {}).expect("runs")
}

fn main() {
    let mut traj = Trajectory::from_env(
        "BENCH_sched.json",
        Gate::lower("measured_ns_per_request", "ns/request"),
    );
    let smoke = traj.smoke();
    let sweep = if smoke { SMOKE } else { FULL };

    let (tables, base_workload) = build(sweep.num_batches);

    // Capacity probe: offer load far above anything serveable; with a
    // shed-oldest queue the engine then runs back-to-back full batches,
    // so achieved QPS is its service capacity.
    let mut probe_wl = base_workload.clone();
    probe_wl.stamp_arrivals(ArrivalProcess::poisson(1e9, ARRIVAL_SEED));
    let mut eng = engine(&tables, &base_workload);
    let capacity_qps = run_once(&mut eng, &probe_wl, &mut sched()).achieved_qps;
    println!(
        "sched sweep: {NUM_TABLES} tables x {NR_DPUS} DPUs, goodreads/2000, \
         max-batch {MAX_BATCH}, probed capacity {capacity_qps:.0} qps{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows = Vec::new();
    let mut reports: Vec<(u64, SchedReport)> = Vec::new();
    for &pct in sweep.load_pct {
        let offered = capacity_qps * pct as f64 / 100.0;
        let mut wl = base_workload.clone();
        wl.stamp_arrivals(ArrivalProcess::poisson(offered, ARRIVAL_SEED));
        let mut s = sched();

        // Determinism identity before anything is timed: the scheduler
        // runs on modeled time only, so two runs agree exactly.
        let report = run_once(&mut eng, &wl, &mut s);
        assert_eq!(
            report,
            run_once(&mut eng, &wl, &mut s),
            "load {pct}%: reports differ across runs"
        );

        let m = timing::run_with_window(&format!("sched/load{pct}"), sweep.window_ms, || {
            black_box(run_once(black_box(&mut eng), black_box(&wl), &mut s));
        });
        let measured = m.mean_ns / report.requests as f64;
        let cmp = traj.compare(&format!("load {pct}%"), measured, |r| {
            trajectory::num(r, "load_pct") == Some(pct as f64)
        });
        println!(
            "  load {pct:>3}%  offered {offered:>9.0} qps  achieved {:>9.0} qps  \
             p99 {:>8.1} us  shed {:>4}  fill {:>4.1}  {measured:>7.1} ns/request{cmp}",
            report.achieved_qps,
            report.p99_latency_ns / 1e3,
            report.shed,
            report.mean_batch_size,
        );
        rows.push(Row {
            load_pct: pct,
            offered_qps: offered,
            achieved_qps: report.achieved_qps,
            completed: report.completed,
            shed: report.shed,
            batches: report.batches,
            mean_batch_size: report.mean_batch_size,
            p50_latency_us: report.p50_latency_ns / 1e3,
            p99_latency_us: report.p99_latency_ns / 1e3,
            measured_ns_per_request: measured,
            baseline_ns_per_request: cmp.base,
            speedup_vs_baseline: cmp.speedup,
        });
        reports.push((pct, report));
    }

    // The knee itself, asserted on modeled time.
    let at = |pct: u64| &reports.iter().find(|(p, _)| *p == pct).unwrap().1;
    let lowest = at(sweep.load_pct[0]);
    let highest = at(*sweep.load_pct.last().unwrap());
    assert_eq!(lowest.shed, 0, "below capacity nothing is shed");
    assert!(
        highest.shed > 0,
        "above capacity the shed-oldest policy must drop load"
    );
    assert!(
        highest.p99_latency_ns > lowest.p99_latency_ns,
        "p99 must grow with load ({} vs {})",
        highest.p99_latency_ns,
        lowest.p99_latency_ns
    );
    assert!(
        highest.achieved_qps <= capacity_qps * 1.05,
        "achieved QPS must plateau at capacity ({} vs {capacity_qps})",
        highest.achieved_qps
    );
    if !smoke {
        // Overload points plateau at the same achieved throughput.
        let (a2, a4) = (at(200).achieved_qps, at(400).achieved_qps);
        assert!(
            (a4 - a2).abs() <= 0.10 * a2,
            "overloaded points must plateau together ({a2} vs {a4})"
        );
    }
    println!("knee OK: plateau at {capacity_qps:.0} qps, p99 grows, shedding engages");

    traj.finish(
        vec![
            ("bench".into(), Value::Str("sched_sweep".into())),
            ("dataset".into(), Value::Str("goodreads/2000".into())),
            ("nr_dpus".into(), Value::UInt(NR_DPUS as u64)),
            ("num_tables".into(), Value::UInt(NUM_TABLES as u64)),
            ("dim".into(), Value::UInt(DIM as u64)),
            ("max_batch".into(), Value::UInt(MAX_BATCH as u64)),
            ("max_wait_ns".into(), Value::UInt(MAX_WAIT_NS)),
            ("queue_cap".into(), Value::UInt(QUEUE_CAP as u64)),
            ("policy".into(), Value::Str("shed-oldest".into())),
            ("capacity_qps".into(), Value::Float(capacity_qps)),
        ],
        &rows,
    );
}
