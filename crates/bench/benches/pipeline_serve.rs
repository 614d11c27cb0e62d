//! Sequential vs executed double-buffered serving.
//!
//! Serves the same batch stream twice through `UpdlrmEngine::serve` —
//! once back-to-back, once double-buffered — sweeping the number of
//! batches, and records the modeled walls, throughput, and tail
//! latency. Two invariants are asserted along the way: the executed
//! double-buffered wall equals the analytic `pipelined_wall_ns` of the
//! collected breakdowns bit-for-bit, and pipelining never loses to the
//! sequential schedule for two or more batches. Results land in
//! repo-root `BENCH_pipeline.json`.

use dlrm_model::EmbeddingTable;
use updlrm_core::{
    pipelined_wall_ns, sequential_wall_ns, PartitionStrategy, PipelineMode, UpdlrmConfig,
    UpdlrmEngine,
};
use workloads::{DatasetSpec, TraceConfig, Workload};

const NUM_TABLES: usize = 4;
const NR_DPUS: usize = 64;
const DIM: usize = 32;
const BATCH_SWEEP: [usize; 4] = [1, 2, 4, 8];

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

#[derive(serde::Serialize)]
struct SweepRow {
    batches: usize,
    sequential_wall_ns: f64,
    pipelined_wall_ns: f64,
    speedup: f64,
    pipelined_matches_model: bool,
    throughput_qps: f64,
    p50_latency_ns: f64,
    p95_latency_ns: f64,
    p99_latency_ns: f64,
}

#[derive(serde::Serialize)]
struct Output {
    nr_dpus: usize,
    num_tables: usize,
    dataset: String,
    rows: Vec<SweepRow>,
}

fn main() {
    println!("serve sweep: {NUM_TABLES} tables x {NR_DPUS} DPUs, goodreads/2000");
    let mut rows = Vec::new();
    for &n in &BATCH_SWEEP {
        let (tables, workload) = build(n);
        let config = UpdlrmConfig::with_dpus(NR_DPUS, PartitionStrategy::CacheAware);

        let mut seq_engine = UpdlrmEngine::from_workload(
            config.clone().with_pipeline_mode(PipelineMode::Sequential),
            &tables,
            &workload,
        )
        .expect("engine builds");
        let seq = seq_engine.serve(&workload.batches).expect("serves");

        let mut dbl_engine = UpdlrmEngine::from_workload(
            config.with_pipeline_mode(PipelineMode::DoubleBuf),
            &tables,
            &workload,
        )
        .expect("engine builds");
        let dbl = dbl_engine.serve(&workload.batches).expect("serves");

        assert_eq!(seq.pooled, dbl.pooled, "schedules must agree functionally");
        let matches_model =
            dbl.report.wall_ns.to_bits() == pipelined_wall_ns(&dbl.breakdowns).to_bits();
        assert!(matches_model, "executed wall departed from the model");
        assert_eq!(
            seq.report.wall_ns.to_bits(),
            sequential_wall_ns(&seq.breakdowns).to_bits()
        );
        if n >= 2 {
            assert!(
                dbl.report.wall_ns <= seq.report.wall_ns,
                "pipelined {} > sequential {} at {n} batches",
                dbl.report.wall_ns,
                seq.report.wall_ns
            );
        }

        let speedup = seq.report.wall_ns / dbl.report.wall_ns;
        println!(
            "  batches={n:<2} sequential {:>10.1} us  pipelined {:>10.1} us  speedup {speedup:.3}x",
            seq.report.wall_ns / 1e3,
            dbl.report.wall_ns / 1e3,
        );
        rows.push(SweepRow {
            batches: n,
            sequential_wall_ns: seq.report.wall_ns,
            pipelined_wall_ns: dbl.report.wall_ns,
            speedup,
            pipelined_matches_model: matches_model,
            throughput_qps: dbl.report.throughput_qps,
            p50_latency_ns: dbl.report.p50_latency_ns,
            p95_latency_ns: dbl.report.p95_latency_ns,
            p99_latency_ns: dbl.report.p99_latency_ns,
        });
    }

    let out = Output {
        nr_dpus: NR_DPUS,
        num_tables: NUM_TABLES,
        dataset: "goodreads/2000".to_string(),
        rows,
    };
    bench::trajectory::write_json(&bench::trajectory::repo_path("BENCH_pipeline.json"), &out);
}
