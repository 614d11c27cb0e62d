//! Proves the tentpole property: the steady-state serving path is
//! allocation-free. A counting `#[global_allocator]` (wrapping the
//! system allocator — no new dependencies) observes every heap
//! operation in this test binary; after warm-up serves, one more
//! `serve_stream` over the same batch stream must perform exactly zero
//! allocations and reallocations.
//!
//! This file intentionally holds a single test: the allocation counter
//! is process-global, so concurrent tests would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dlrm_model::EmbeddingTable;
use placement::{plan, Catalog, PlannerConfig};
use updlrm_core::{PartitionStrategy, PipelineMode, UpdlrmConfig, UpdlrmEngine};
use upmem_sim::RankTopology;
use workloads::{DatasetSpec, FreqProfile, TraceConfig, Workload};

/// Counts every alloc/realloc (frees are not counted: a steady-state
/// path that frees without allocating is impossible anyway, and
/// allocations are the property of interest).
struct CountingAlloc;

static ALLOC_OPS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Which constructor builds the engine under test.
#[derive(Debug, Clone, Copy)]
enum Build {
    Strategy(PartitionStrategy),
    /// `from_plan` over a two-rank plan with host, replicated and cold
    /// tiers.
    Plan,
}

fn setup(build: Build, telemetry: bool) -> (UpdlrmEngine, Workload) {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let num_tables = 2;
    let dim = 32;
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables,
            num_batches: 4,
            ..TraceConfig::default()
        },
    );
    let tables: Vec<EmbeddingTable> = (0..num_tables)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, dim, 3, t as u64).unwrap())
        .collect();
    let strategy = match build {
        Build::Strategy(strategy) => strategy,
        Build::Plan => PartitionStrategy::CacheAware, // ignored by from_plan
    };
    let mut config = UpdlrmConfig::with_dpus(16, strategy)
        .with_pipeline_mode(PipelineMode::DoubleBuf)
        .with_queue_depth(2)
        // Serial fleet execution: the parallel path spawns threads
        // (which allocate); steady-state serving is the 1-thread path.
        .with_host_threads(1);
    config.telemetry = telemetry;
    config.batch_size = workload.config.batch_size;
    let engine = match build {
        Build::Strategy(_) => UpdlrmEngine::from_workload(config, &tables, &workload).unwrap(),
        Build::Plan => {
            let profiles: Vec<FreqProfile> = (0..num_tables)
                .map(|t| FreqProfile::from_inputs(spec.num_items, workload.table_inputs(t)))
                .collect();
            let planner = PlannerConfig {
                topology: RankTopology {
                    nr_ranks: 2,
                    dpus_per_rank: 8,
                },
                emt_capacity_bytes: (spec.num_items / 4 + 64) * dim * 4,
                host_cache_bytes: num_tables * 48 * dim * 4,
                replicate_top: 16,
                ..PlannerConfig::default()
            };
            let catalog = Catalog::homogeneous(num_tables, spec.num_items, dim);
            let p = plan(&catalog, &profiles, &planner).unwrap();
            UpdlrmEngine::from_plan(config, &p, &tables).unwrap()
        }
    };
    (engine, workload)
}

#[test]
fn steady_state_serve_stream_is_allocation_free() {
    // Cache-aware is the worst case: routing exercises the partial-sum
    // cache lookup scratch on top of everything else. Telemetry must
    // hold the same invariant: its counter arenas (per-DPU cells, span
    // accumulators, cache traffic) are preallocated at construction, so
    // recording adds zero heap operations to the hot path.
    // A plan-built engine runs the same path across ranks, with
    // host-tier hits staged per slot.
    for (build, telemetry) in [
        (Build::Strategy(PartitionStrategy::Uniform), false),
        (Build::Strategy(PartitionStrategy::CacheAware), false),
        (Build::Plan, false),
        (Build::Strategy(PartitionStrategy::Uniform), true),
        (Build::Strategy(PartitionStrategy::CacheAware), true),
        (Build::Plan, true),
    ] {
        let (mut engine, workload) = setup(build, telemetry);

        // Warm-up: two serves populate every arena (both MRAM staging
        // slots' kernels, stream buffers at their high-water marks, the
        // recycled matrix pool, gather staging, serve bookkeeping).
        for _ in 0..2 {
            engine
                .serve_stream(&workload.batches, |_, _, _| {})
                .unwrap();
        }

        let before = ALLOC_OPS.load(Ordering::SeqCst);
        let report = engine
            .serve_stream(&workload.batches, |_, _, _| {})
            .unwrap();
        let after = ALLOC_OPS.load(Ordering::SeqCst);

        assert_eq!(report.batches, workload.batches.len());
        assert!(report.wall_ns > 0.0);
        assert_eq!(
            after - before,
            0,
            "steady-state serve_stream allocated under {build:?} (telemetry {telemetry}) \
             ({} heap ops for {} batches)",
            after - before,
            report.batches
        );
        if telemetry {
            // The metrics actually recorded through the zero-alloc pass.
            let snap = engine.metrics_snapshot();
            assert_eq!(snap.batches as usize, 3 * workload.batches.len());
            assert!(snap.launches > 0);
            assert!(snap.load_imbalance.min >= 1.0 - 1e-9);
        }
    }
}
