//! Scheduler × tiered engine (satellite 2): batches formed by
//! [`BatchPolicy`](scheduler::BatchPolicy) and served through a
//! multi-rank plan-built engine ([`TieredEngine::new`]) still satisfy
//! the scheduler's accounting identities — and the pooled embeddings bit-match
//! a direct `serve_stream` of the same formed sequence on a fresh
//! plan-built engine.
//! The scheduler is a front-end for *any* [`BatchServer`]; swapping the
//! numerics back-end must change neither the bookkeeping nor the bits.

use dlrm_model::{EmbeddingTable, Matrix, QueryBatch, SparseInput};
use placement::{plan, Catalog, PlacementPlan, PlannerConfig};
use proptest::prelude::*;
use proptest::TestRunner;
use scheduler::{
    assemble_into, report_is_finite, OverloadPolicy, SchedConfig, SchedReport, Scheduler,
};
use updlrm_core::{TieredEngine, UpdlrmConfig, UpdlrmEngine};
use upmem_sim::RankTopology;
use workloads::{ArrivalProcess, DatasetSpec, FreqProfile, TraceConfig, Workload};

const DIM: usize = 32;
const TABLES: usize = 2;
const ENGINE_BATCH: usize = 64;

fn setup() -> (DatasetSpec, Workload, Vec<EmbeddingTable>, PlacementPlan) {
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: TABLES,
            num_batches: 3,
            ..TraceConfig::default()
        },
    );
    let tables: Vec<EmbeddingTable> = (0..TABLES)
        .map(|t| EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap())
        .collect();
    let profiles: Vec<FreqProfile> = (0..TABLES)
        .map(|t| FreqProfile::from_inputs(spec.num_items, workload.table_inputs(t)))
        .collect();
    let catalog = Catalog::homogeneous(TABLES, spec.num_items, DIM);
    let config = PlannerConfig {
        topology: RankTopology {
            nr_ranks: 3,
            dpus_per_rank: 8,
        },
        emt_capacity_bytes: (spec.num_items / 4 + 64) * DIM * 4,
        host_cache_bytes: TABLES * 48 * DIM * 4,
        replicate_top: 24,
        ..PlannerConfig::default()
    };
    let p = plan(&catalog, &profiles, &config).unwrap();
    (spec, workload, tables, p)
}

fn tiered(tables: &[EmbeddingTable], p: &PlacementPlan) -> UpdlrmEngine {
    let config = UpdlrmConfig {
        batch_size: ENGINE_BATCH,
        ..UpdlrmConfig::default()
    };
    TieredEngine::new(config, p, tables).unwrap()
}

fn run_once(
    eng: &mut UpdlrmEngine,
    wl: &Workload,
    cfg: SchedConfig,
) -> (SchedReport, Vec<Vec<u32>>, Vec<Vec<Matrix>>) {
    let mut s = Scheduler::new(cfg).expect("generated config is valid");
    let mut formed = Vec::new();
    let mut pooled_seen = Vec::new();
    let report = s
        .run(eng, wl, |seq, ids, pooled, _| {
            assert_eq!(seq, formed.len(), "sink fires in launch order");
            formed.push(ids.to_vec());
            pooled_seen.push(pooled.to_vec());
        })
        .expect("modeled run must uphold the integer-ns launch invariant");
    (report, formed, pooled_seen)
}

#[test]
fn tiered_scheduler_accounting_and_bits_hold_for_random_loads() {
    let (_, base, tables, p) = setup();
    let mut eng = tiered(&tables, &p);

    let strategy = (
        500u64..50_000_000,         // offered qps: idle to far past saturation
        0u8..3,                     // overload policy
        1usize..97,                 // queue capacity
        1usize..(ENGINE_BATCH + 1), // max batch size
        1u64..2_001,                // batching deadline, us
        any::<bool>(),              // bursty vs poisson arrivals
        0u64..1_000,                // arrival seed
    );
    TestRunner::new(ProptestConfig::with_cases(12)).run(
        &strategy,
        |(qps, pol, queue_cap, max_batch, wait_us, bursty, seed)| {
            let policy = match pol {
                0 => OverloadPolicy::Block,
                1 => OverloadPolicy::ShedOldest,
                _ => OverloadPolicy::RejectNew,
            };
            let process = if bursty {
                ArrivalProcess::bursty(qps as f64, seed)
            } else {
                ArrivalProcess::poisson(qps as f64, seed)
            };
            let mut wl = base.clone();
            wl.stamp_arrivals(process);
            let cfg = SchedConfig {
                max_batch_size: max_batch,
                max_wait_ns: wait_us * 1_000,
                queue_cap,
                policy,
            };

            let (report, formed, pooled_seen) = run_once(&mut eng, &wl, cfg);

            // PR 5 accounting identities, unchanged under the tiered
            // back-end.
            prop_assert_eq!(
                report.completed + report.shed + report.rejected,
                report.requests,
                "conservation ({:?})",
                report
            );
            prop_assert_eq!(report.admitted, report.completed + report.shed);
            prop_assert_eq!(
                report.completed,
                formed.iter().map(|ids| ids.len() as u64).sum::<u64>()
            );
            prop_assert_eq!(formed.len() as u64, report.batches);
            prop_assert_eq!(
                report.trigger_size + report.trigger_deadline + report.trigger_drain,
                report.batches
            );
            prop_assert!(report.queue_high_water as usize <= queue_cap);
            let mut all_ids: Vec<u32> = Vec::new();
            for ids in &formed {
                prop_assert!(!ids.is_empty() && ids.len() <= max_batch);
                all_ids.extend_from_slice(ids);
            }
            prop_assert!(
                all_ids.windows(2).all(|w| w[0] < w[1]),
                "launch order must follow admission order"
            );
            prop_assert!(report_is_finite(&report), "{:?}", report);
            if report.completed > 0 {
                prop_assert!(report.p50_latency_ns <= report.p95_latency_ns);
                prop_assert!(report.p95_latency_ns <= report.p99_latency_ns);
                prop_assert!(report.p99_latency_ns <= report.max_latency_ns);
            }

            // Bit-identity: replay the formed sequence through a fresh
            // tiered engine's serve_stream.
            let batches: Vec<QueryBatch> = formed
                .iter()
                .map(|ids| {
                    let mut b = QueryBatch {
                        sparse: vec![SparseInput::default(); wl.config.num_tables],
                        ..QueryBatch::default()
                    };
                    assemble_into(&wl, ids, &mut b);
                    b.validate().unwrap();
                    b
                })
                .collect();
            let mut reference = tiered(&tables, &p);
            let mut pooled_ref: Vec<Vec<Matrix>> = Vec::new();
            reference
                .serve_stream(&batches, |_, pooled, _| pooled_ref.push(pooled.to_vec()))
                .unwrap();
            prop_assert_eq!(pooled_seen.len(), pooled_ref.len());
            for (bi, (a, b)) in pooled_seen.iter().zip(&pooled_ref).enumerate() {
                prop_assert_eq!(a.len(), b.len());
                for (t, (ma, mb)) in a.iter().zip(b).enumerate() {
                    prop_assert_eq!(ma.rows(), mb.rows());
                    for (x, y) in ma.as_slice().iter().zip(mb.as_slice()) {
                        prop_assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "batch {} table {} diverges under the scheduler",
                            bi,
                            t
                        );
                    }
                }
            }

            // Determinism across a second scheduled run.
            let (again, formed2, _) = run_once(&mut eng, &wl, cfg);
            prop_assert_eq!(report, again);
            prop_assert_eq!(formed, formed2);
            Ok(())
        },
    );
}
