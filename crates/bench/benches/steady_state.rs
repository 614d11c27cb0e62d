//! Steady-state serving throughput: simulator ns/sample across batch
//! size × pipeline mode.
//!
//! Unlike `pipeline_serve` (which reports the *modeled* walls), this
//! bench measures the *simulator's own* wall clock around repeated
//! `UpdlrmEngine::serve` calls on one engine — the number that the
//! zero-allocation scratch-arena and SIMD kernel work moves. Four
//! identities are asserted on every f32 configuration before anything
//! is timed:
//!
//! 1. every pooled row equals the ground-truth
//!    `EmbeddingTable::partial_sum` bit-for-bit (integer tables);
//! 2. serve output is bit-identical to back-to-back `run_batch` calls
//!    on a fresh engine;
//! 3. the executed wall equals the analytic model
//!    (`pipelined_wall_ns` / `sequential_wall_ns`) bit-for-bit;
//! 4. serve output under the detected SIMD tier is bit-identical to a
//!    forced-scalar serve (the `bit_identical` column records this).
//!
//! The embedding tables are generated once, written to the packed
//! on-disk format (`workloads::pack`), and mmap-loaded back per sweep
//! point — the measured load wall of the first point is reported as a
//! `coldstart` row (its `measured_ns_per_sample` is the *total* load
//! ns; it never participates in regression gating). One `int8` EMT
//! configuration rides along and must model a strictly smaller stage-2
//! than its f32 twin.
//!
//! Results land in `BENCH_steady_state.json` at the repo root, under
//! the flags, baseline carry-forward and >20% ns/sample gate of
//! [`bench::trajectory`]; `--smoke` is a tiny sweep (batch 16, 3
//! batches, short window). Every row records the SIMD tier (`simd`) and
//! EMT dtype (`embed_dtype`) it measured; baseline rows only gate rows
//! of the same tier and dtype ([`trajectory::same_kernel`]).

use std::hint::black_box;
use std::time::Instant;

use bench::timing;
use bench::trajectory::{self, Gate, Trajectory};
use dlrm_model::{simd, EmbedDtype, EmbeddingTable};
use serde::Value;
use updlrm_core::{
    pipelined_wall_ns, sequential_wall_ns, PartitionStrategy, PipelineMode, UpdlrmConfig,
    UpdlrmEngine,
};
use workloads::pack::{save_packed, PackedTables};
use workloads::{DatasetSpec, TraceConfig, Workload};

const NUM_TABLES: usize = 4;
const NR_DPUS: usize = 64;
const DIM: usize = 32;

struct Sweep {
    batch_sizes: &'static [usize],
    num_batches: usize,
    window_ms: u64,
}

const FULL: Sweep = Sweep {
    batch_sizes: &[16, 64, 256],
    num_batches: 8,
    window_ms: 300,
};
const SMOKE: Sweep = Sweep {
    batch_sizes: &[16],
    num_batches: 3,
    window_ms: 30,
};

#[derive(serde::Serialize)]
struct Row {
    batch_size: usize,
    mode: String,
    batches: usize,
    samples_per_serve: usize,
    /// Simulator wall clock per sample (the software cost this bench
    /// tracks across PRs). For the `coldstart` row this is the total
    /// packed-table mmap-load wall instead.
    measured_ns_per_sample: f64,
    /// Modeled hardware time per sample (`ServeReport::wall_ns`).
    modeled_ns_per_sample: f64,
    /// Modeled host share: (route + combine) / total_with_host.
    host_overhead_share: f64,
    /// Serve output under the detected SIMD tier was bit-identical to
    /// a forced-scalar serve of the same workload.
    bit_identical: bool,
    /// Runtime-dispatched SIMD tier this row measured (`scalar`,
    /// `sse2`, `avx2`, `avx512`, `neon`).
    simd: String,
    /// EMT storage dtype this row measured (`f32` or `int8`).
    embed_dtype: String,
    /// Modeled stage-1 (CPU→MRAM scatter) time per sample (ns).
    stage1_ns_per_sample: f64,
    /// Modeled stage-2 (DPU kernel) time per sample (ns).
    stage2_ns_per_sample: f64,
    /// Modeled stage-3 (MRAM→CPU gather) time per sample (ns).
    stage3_ns_per_sample: f64,
    /// Measured simulator-wall cost of enabling telemetry, percent
    /// (telemetry-on ns/sample over telemetry-off, minus one). Reported
    /// for visibility — the ≤2% budget is asserted statistically by the
    /// snapshot job, not gated here, because a single window is noisy.
    telemetry_overhead_pct: f64,
    /// ns/sample of the carried baseline row, 0.0 when none matched.
    baseline_ns_per_sample: f64,
    /// baseline / measured; 0.0 when no baseline row matched.
    speedup_vs_baseline: f64,
}

fn dataset_spec() -> DatasetSpec {
    DatasetSpec::goodreads().scaled_down(2000)
}

fn build_tables() -> Vec<EmbeddingTable> {
    let spec = dataset_spec();
    (0..NUM_TABLES)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect()
}

fn build_workload(batch_size: usize, num_batches: usize) -> Workload {
    Workload::generate(
        &dataset_spec(),
        TraceConfig {
            num_tables: NUM_TABLES,
            batch_size,
            num_batches,
            ..TraceConfig::default()
        },
    )
}

fn engine(
    mode: PipelineMode,
    tables: &[EmbeddingTable],
    workload: &Workload,
    telemetry: bool,
    dtype: EmbedDtype,
) -> UpdlrmEngine {
    let batch_size = workload.config.batch_size;
    let mut config = UpdlrmConfig::with_dpus(NR_DPUS, PartitionStrategy::CacheAware)
        .with_pipeline_mode(mode)
        .with_queue_depth(2)
        .with_embed_dtype(dtype);
    // MRAM staging slots are sized for `config.batch_size` samples.
    config.batch_size = batch_size;
    config.telemetry = telemetry;
    UpdlrmEngine::from_workload(config, tables, workload).expect("engine builds")
}

/// Asserts identities 1–3 documented in the module docs (f32 only —
/// int8 EMT rows are quantized, so ground truth is approximate there).
fn assert_bit_identity(
    mode: PipelineMode,
    tables: &[EmbeddingTable],
    workload: &Workload,
    outcome: &updlrm_core::ServeOutcome,
) {
    // 1. ground truth: pooled rows are exact partial sums.
    for (i, batch) in workload.batches.iter().enumerate() {
        for (t, table) in tables.iter().enumerate() {
            let pooled = &outcome.pooled[i][t];
            for s in 0..batch.batch_size() {
                let expect = table.partial_sum(batch.sparse[t].sample(s)).expect("sum");
                let got = pooled.row(s);
                assert_eq!(got.len(), expect.len());
                for (g, e) in got.iter().zip(expect.iter()) {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "pooled departs from ground truth (batch {i}, table {t}, sample {s})"
                    );
                }
            }
        }
    }
    // 2. differential vs back-to-back run_batch on a fresh engine.
    let mut fresh = engine(mode, tables, workload, false, EmbedDtype::F32);
    for (i, batch) in workload.batches.iter().enumerate() {
        let (pooled, bd) = fresh.run_batch(batch).expect("run_batch");
        assert_eq!(pooled, outcome.pooled[i], "pooled departs from run_batch");
        let sbd = &outcome.breakdowns[i];
        assert_eq!(bd.stage2_ns.to_bits(), sbd.stage2_ns.to_bits());
        assert_eq!(bd.route_ns.to_bits(), sbd.route_ns.to_bits());
        assert_eq!(bd.combine_ns.to_bits(), sbd.combine_ns.to_bits());
    }
    // 3. executed wall equals the analytic model.
    let model = match mode {
        PipelineMode::DoubleBuf => pipelined_wall_ns(&outcome.breakdowns),
        PipelineMode::Sequential => sequential_wall_ns(&outcome.breakdowns),
    };
    assert_eq!(
        outcome.report.wall_ns.to_bits(),
        model.to_bits(),
        "executed wall departed from the model"
    );
}

/// Identity 4: a forced-scalar serve of the same engine configuration
/// produces bit-identical pooled rows and modeled wall. Returns `true`
/// (it asserts on divergence) so the row records a checked value.
fn assert_scalar_identity(
    mode: PipelineMode,
    tables: &[EmbeddingTable],
    workload: &Workload,
    dtype: EmbedDtype,
    outcome: &updlrm_core::ServeOutcome,
) -> bool {
    simd::force_tier(Some(simd::SimdTier::Scalar));
    let mut eng = engine(mode, tables, workload, false, dtype);
    let scalar = eng.serve(&workload.batches).expect("serves");
    simd::force_tier(None);
    assert_eq!(
        scalar.report.wall_ns.to_bits(),
        outcome.report.wall_ns.to_bits(),
        "modeled wall depends on SIMD tier"
    );
    for (i, (sp, op)) in scalar.pooled.iter().zip(outcome.pooled.iter()).enumerate() {
        for (t, (sm, om)) in sp.iter().zip(op.iter()).enumerate() {
            assert_eq!(sm.rows(), om.rows());
            for s in 0..sm.rows() {
                for (a, b) in sm.row(s).iter().zip(om.row(s).iter()) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "SIMD tier {} departs from scalar (batch {i}, table {t}, sample {s})",
                        simd::tier_name()
                    );
                }
            }
        }
    }
    true
}

fn main() {
    let mut traj = Trajectory::from_env(
        "BENCH_steady_state.json",
        Gate::lower("measured_ns_per_sample", "ns/sample"),
    );
    let smoke = traj.smoke();
    let sweep = if smoke { SMOKE } else { FULL };
    let simd_tier = simd::tier_name().to_string();

    println!(
        "steady-state sweep: {NUM_TABLES} tables x {NR_DPUS} DPUs, goodreads/2000, \
         {} batches/serve, simd {simd_tier}{}",
        sweep.num_batches,
        if smoke { " (smoke)" } else { "" }
    );

    // Tables are generated once, packed, and mmap-loaded per sweep
    // point; the first load's wall is the reported cold start.
    let pack_path = std::env::temp_dir().join(format!(
        "updlrm_steady_state_tables_{}.uptb",
        std::process::id()
    ));
    save_packed(&build_tables(), &pack_path).expect("pack tables");
    let load_tables = || -> (Vec<EmbeddingTable>, f64) {
        let t0 = Instant::now();
        let packed = PackedTables::open(&pack_path).expect("open packed tables");
        let tables = packed
            .views()
            .iter()
            .map(|v| EmbeddingTable::from_view(v).expect("decode table"))
            .collect();
        (tables, t0.elapsed().as_nanos() as f64)
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut coldstart_ns = None;
    let measure = |rows: &mut Vec<Row>,
                   traj: &mut Trajectory,
                   tables: &[EmbeddingTable],
                   batch_size: usize,
                   mode: PipelineMode,
                   dtype: EmbedDtype| {
        let workload = build_workload(batch_size, sweep.num_batches);
        let samples = batch_size * sweep.num_batches;
        let dtype_name = match dtype {
            EmbedDtype::F32 => "f32",
            EmbedDtype::Int8 => "int8",
        };
        let mut eng = engine(mode, tables, &workload, false, dtype);
        let outcome = eng.serve(&workload.batches).expect("serves");
        if dtype == EmbedDtype::F32 {
            assert_bit_identity(mode, tables, &workload, &outcome);
        }
        let bit_identical = assert_scalar_identity(mode, tables, &workload, dtype, &outcome);

        let label_name = format!("serve/b{batch_size}/{mode}/{dtype_name}");
        let m = timing::run_with_window(&label_name, sweep.window_ms, || {
            black_box(eng.serve(black_box(&workload.batches)).expect("serves"));
        });
        // Telemetry-enabled twin in the same window: its modeled
        // outputs are identical, so the ns/sample delta is the pure
        // recording cost.
        let mut eng_tel = engine(mode, tables, &workload, true, dtype);
        eng_tel.serve(&workload.batches).expect("serves");
        let m_tel = timing::run_with_window(&format!("{label_name}/tel"), sweep.window_ms, || {
            black_box(eng_tel.serve(black_box(&workload.batches)).expect("serves"));
        });
        let telemetry_overhead_pct = (m_tel.mean_ns / m.mean_ns - 1.0) * 100.0;
        let measured = m.mean_ns / samples as f64;
        let modeled = outcome.report.wall_ns / samples as f64;
        let (host, total_with_host) = outcome.breakdowns.iter().fold((0.0, 0.0), |(h, t), b| {
            (h + b.route_ns + b.combine_ns, t + b.total_with_host_ns())
        });
        let (s1, s2, s3) = outcome
            .breakdowns
            .iter()
            .fold((0.0, 0.0, 0.0), |(a, b, c), bd| {
                (a + bd.stage1_ns, b + bd.stage2_ns, c + bd.stage3_ns)
            });
        // Coldstart rows never match a serve row's mode.
        let cmp = traj.compare(
            &format!("b={batch_size} {mode} {dtype_name}"),
            measured,
            |r| {
                trajectory::num(r, "batch_size") == Some(batch_size as f64)
                    && trajectory::text(r, "mode") == Some(mode.as_str())
                    && trajectory::same_kernel(r, &simd_tier, dtype_name)
            },
        );
        println!(
            "  b={batch_size:<4} {mode:<10} {dtype_name:<5} {measured:>9.1} ns/sample \
             (model {modeled:>9.1}, host share {:.2}, telemetry {telemetry_overhead_pct:+.1}%){cmp}",
            host / total_with_host,
        );
        rows.push(Row {
            batch_size,
            mode: mode.as_str().to_string(),
            batches: sweep.num_batches,
            samples_per_serve: samples,
            measured_ns_per_sample: measured,
            modeled_ns_per_sample: modeled,
            host_overhead_share: host / total_with_host,
            bit_identical,
            simd: simd_tier.clone(),
            embed_dtype: dtype_name.to_string(),
            stage1_ns_per_sample: s1 / samples as f64,
            stage2_ns_per_sample: s2 / samples as f64,
            stage3_ns_per_sample: s3 / samples as f64,
            telemetry_overhead_pct,
            baseline_ns_per_sample: cmp.base,
            speedup_vs_baseline: cmp.speedup,
        });
    };

    for &batch_size in sweep.batch_sizes {
        let (tables, load_ns) = load_tables();
        coldstart_ns.get_or_insert(load_ns);
        for mode in [PipelineMode::Sequential, PipelineMode::DoubleBuf] {
            measure(
                &mut rows,
                &mut traj,
                &tables,
                batch_size,
                mode,
                EmbedDtype::F32,
            );
        }
    }

    // Int8 EMT rider: one sequential config; the quantized kernel must
    // model a strictly smaller stage 2 than its f32 twin (smaller MRAM
    // rows and the cheaper u8 accumulate path).
    let int8_batch = sweep.batch_sizes[1.min(sweep.batch_sizes.len() - 1)];
    {
        let (tables, _) = load_tables();
        measure(
            &mut rows,
            &mut traj,
            &tables,
            int8_batch,
            PipelineMode::Sequential,
            EmbedDtype::Int8,
        );
        let s2 = |dtype: &str| {
            rows.iter()
                .find(|r| {
                    r.batch_size == int8_batch && r.mode == "sequential" && r.embed_dtype == dtype
                })
                .map(|r| r.stage2_ns_per_sample)
                .expect("both dtypes swept")
        };
        assert!(
            s2("int8") < s2("f32"),
            "int8 stage 2 ({}) must model strictly below f32 ({})",
            s2("int8"),
            s2("f32")
        );
    }
    let _ = std::fs::remove_file(&pack_path);

    // The cold-start row: total wall of the first packed-table
    // mmap-load of this run. Reported for trajectory visibility only —
    // its mode never matches a serve row, so it is never gated.
    let cold = coldstart_ns.expect("at least one sweep point ran");
    println!("  coldstart (packed-table mmap load): {:.1} us", cold / 1e3);
    rows.push(Row {
        batch_size: 0,
        mode: "coldstart".to_string(),
        batches: 0,
        samples_per_serve: 0,
        measured_ns_per_sample: cold,
        modeled_ns_per_sample: 0.0,
        host_overhead_share: 0.0,
        bit_identical: true,
        simd: simd_tier.clone(),
        embed_dtype: "f32".to_string(),
        stage1_ns_per_sample: 0.0,
        stage2_ns_per_sample: 0.0,
        stage3_ns_per_sample: 0.0,
        telemetry_overhead_pct: 0.0,
        baseline_ns_per_sample: 0.0,
        speedup_vs_baseline: 0.0,
    });

    traj.finish(
        vec![
            ("bench".into(), Value::Str("steady_state".into())),
            ("dataset".into(), Value::Str("goodreads/2000".into())),
            ("nr_dpus".into(), Value::UInt(NR_DPUS as u64)),
            ("num_tables".into(), Value::UInt(NUM_TABLES as u64)),
            ("dim".into(), Value::UInt(DIM as u64)),
        ],
        &rows,
    );
}
