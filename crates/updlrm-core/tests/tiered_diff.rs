//! Tiered-vs-untiered differential suite: under *any* valid placement
//! plan, the pooled embeddings of an engine lowered from the plan
//! ([`TieredEngine::new`], i.e. [`UpdlrmEngine::from_plan`]) on its
//! multi-rank fleet are bit-identical to a strategy-built single-rank
//! [`UpdlrmEngine`] on the same trace.
//!
//! Tables are integer-valued with small magnitude, so every partial sum
//! is exact in f32 and addition grouping cannot perturb bits — any
//! difference is a routing or placement bug, not float noise.

use std::sync::OnceLock;

use dlrm_model::{EmbeddingTable, Matrix};
use placement::{plan, Catalog, PlacementPlan, PlannerConfig};
use proptest::prelude::*;
use proptest::TestRunner;
use updlrm_core::{
    pipelined_wall_ns, CoreError, EmbeddingBreakdown, PartitionStrategy, PipelineMode,
    ReplanPolicy, TieredEngine, UpdlrmConfig, UpdlrmEngine,
};
use upmem_sim::RankTopology;
use workloads::{DatasetSpec, FreqProfile, TraceConfig, Workload};

const DIM: usize = 32;
const TABLES: usize = 2;

struct Fixture {
    spec: DatasetSpec,
    workload: Workload,
    tables: Vec<EmbeddingTable>,
    profiles: Vec<FreqProfile>,
    catalog: Catalog,
    /// Untiered reference pooled embeddings, one `Vec<Matrix>` per batch.
    reference: Vec<Vec<Matrix>>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
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
            .map(|t| {
                EmbeddingTable::random_integer_valued(spec.num_items, DIM, 3, t as u64).unwrap()
            })
            .collect();
        let profiles: Vec<FreqProfile> = (0..TABLES)
            .map(|t| FreqProfile::from_inputs(spec.num_items, workload.table_inputs(t)))
            .collect();
        let catalog = Catalog::homogeneous(TABLES, spec.num_items, DIM);

        let mut reference_engine = UpdlrmEngine::from_workload(
            UpdlrmConfig::with_dpus(16, PartitionStrategy::NonUniform),
            &tables,
            &workload,
        )
        .unwrap();
        let reference = workload
            .batches
            .iter()
            .map(|b| reference_engine.run_batch(b).unwrap().0)
            .collect();
        Fixture {
            spec,
            workload,
            tables,
            profiles,
            catalog,
            reference,
        }
    })
}

fn assert_bit_identical(a: &Matrix, b: &Matrix, ctx: &str) {
    assert_eq!(a.rows(), b.rows(), "{ctx}: row mismatch");
    assert_eq!(a.cols(), b.cols(), "{ctx}: col mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: element {i} differs ({x} vs {y})"
        );
    }
}

/// Plans the fixture catalog with the given knobs; `emt_rows` is the
/// per-partition EMT budget in rows.
fn plan_with(
    topology: RankTopology,
    emt_rows: usize,
    host_cache_bytes: usize,
    replicate_top: usize,
) -> PlacementPlan {
    let fix = fixture();
    let config = PlannerConfig {
        topology,
        emt_capacity_bytes: emt_rows * DIM * 4,
        host_cache_bytes,
        replicate_top,
        ..PlannerConfig::default()
    };
    plan(&fix.catalog, &fix.profiles, &config).unwrap()
}

/// Runs the tiered engine over the fixture trace batch by batch and
/// checks every pooled matrix against the untiered reference.
fn assert_plan_matches_reference(p: &PlacementPlan, ctx: &str) {
    let fix = fixture();
    let mut tiered = TieredEngine::new(
        UpdlrmConfig {
            telemetry: true,
            ..UpdlrmConfig::default()
        },
        p,
        &fix.tables,
    )
    .unwrap();
    for (bi, batch) in fix.workload.batches.iter().enumerate() {
        let (pooled, bd) = tiered.run_batch(batch).unwrap();
        assert!(bd.total_ns() > 0.0, "{ctx}: batch {bi} has no modeled time");
        assert_eq!(pooled.len(), TABLES);
        for (t, m) in pooled.iter().enumerate() {
            assert_bit_identical(
                m,
                &fix.reference[bi][t],
                &format!("{ctx} batch {bi} table {t}"),
            );
        }
    }
}

/// Hand-picked plans spanning the tier space: single rank, multi-rank,
/// no host tier, no replica tier, both off (pure cold MRAM), tiny
/// partitions forcing wide sharding.
#[test]
fn tiered_pooled_embeddings_match_untiered_reference() {
    let fix = fixture();
    let rows = fix.spec.num_items;
    for (name, topology, emt_rows, host_bytes, rep) in [
        (
            "single-rank single-part",
            RankTopology {
                nr_ranks: 1,
                dpus_per_rank: 4,
            },
            rows + 64,
            0,
            0,
        ),
        (
            "pure cold multi-rank",
            RankTopology {
                nr_ranks: 3,
                dpus_per_rank: 5,
            },
            rows / 4 + 64,
            0,
            0,
        ),
        (
            "replicated only",
            RankTopology {
                nr_ranks: 2,
                dpus_per_rank: 8,
            },
            rows / 3 + 64,
            0,
            48,
        ),
        (
            "host only",
            RankTopology {
                nr_ranks: 2,
                dpus_per_rank: 8,
            },
            rows / 3 + 64,
            TABLES * 96 * DIM * 4,
            0,
        ),
        (
            "all tiers, wide fleet",
            RankTopology {
                nr_ranks: 4,
                dpus_per_rank: 16,
            },
            rows / 8 + 64,
            TABLES * 64 * DIM * 4,
            32,
        ),
    ] {
        let p = plan_with(topology, emt_rows, host_bytes, rep);
        assert_plan_matches_reference(&p, name);
    }
}

/// `serve_stream` is the same numerics path as `run_batch`: pooled
/// outputs bit-match batch by batch, and the report covers the stream.
#[test]
fn tiered_serve_stream_matches_run_batch() {
    let fix = fixture();
    let p = plan_with(
        RankTopology {
            nr_ranks: 3,
            dpus_per_rank: 8,
        },
        fix.spec.num_items / 4 + 64,
        TABLES * 32 * DIM * 4,
        16,
    );
    let mut tiered = TieredEngine::new(UpdlrmConfig::default(), &p, &fix.tables).unwrap();
    let mut served: Vec<Vec<Matrix>> = Vec::new();
    let report = tiered
        .serve_stream(&fix.workload.batches, |i, pooled, bd| {
            assert_eq!(i, served.len(), "sink fires in order");
            assert!(bd.total_ns() > 0.0);
            served.push(pooled.to_vec());
        })
        .unwrap();
    assert_eq!(report.batches, fix.workload.batches.len());
    assert_eq!(report.samples, fix.workload.num_queries());
    assert!(report.wall_ns > 0.0);
    assert!(report.p99_latency_ns >= report.p50_latency_ns);
    assert_eq!(served.len(), fix.reference.len());
    for (bi, (a, b)) in served.iter().zip(&fix.reference).enumerate() {
        for (t, (ma, mb)) in a.iter().zip(b).enumerate() {
            assert_bit_identical(ma, mb, &format!("serve batch {bi} table {t}"));
        }
    }
}

/// Two engines built from the same plan produce bit-identical pooled
/// outputs *and* breakdowns — the tiered path is deterministic.
#[test]
fn tiered_runs_are_deterministic() {
    let fix = fixture();
    let p = plan_with(
        RankTopology {
            nr_ranks: 4,
            dpus_per_rank: 8,
        },
        fix.spec.num_items / 6 + 64,
        TABLES * 48 * DIM * 4,
        24,
    );
    let mut a = TieredEngine::new(UpdlrmConfig::default(), &p, &fix.tables).unwrap();
    let mut b = TieredEngine::new(UpdlrmConfig::default(), &p, &fix.tables).unwrap();
    for (bi, batch) in fix.workload.batches.iter().enumerate() {
        let (pa, bda) = a.run_batch(batch).unwrap();
        let (pb, bdb) = b.run_batch(batch).unwrap();
        assert_eq!(bda.total_ns().to_bits(), bdb.total_ns().to_bits());
        assert_eq!(bda.cache_hits, bdb.cache_hits);
        assert_eq!(bda.emt_lookups, bdb.emt_lookups);
        for (t, (ma, mb)) in pa.iter().zip(&pb).enumerate() {
            assert_bit_identical(ma, mb, &format!("determinism batch {bi} table {t}"));
        }
    }
}

/// Host-tier hits surface as `cache_hits` and PIM references as
/// `emt_lookups`; together they cover every lookup in the trace.
#[test]
fn tier_accounting_covers_every_lookup() {
    let fix = fixture();
    // Generous host tier so both counters are exercised.
    let p = plan_with(
        RankTopology {
            nr_ranks: 2,
            dpus_per_rank: 8,
        },
        fix.spec.num_items / 2 + 64,
        TABLES * 128 * DIM * 4,
        16,
    );
    let mut tiered = TieredEngine::new(UpdlrmConfig::default(), &p, &fix.tables).unwrap();
    let mut host = 0u64;
    let mut pim = 0u64;
    for batch in &fix.workload.batches {
        let (_, bd) = tiered.run_batch(batch).unwrap();
        host += bd.cache_hits;
        pim += bd.emt_lookups;
    }
    assert!(
        host > 0,
        "hot rows should be host hits under a generous cache"
    );
    assert!(pim > 0, "cold rows should still reach the fleet");
    assert_eq!(host + pim, fix.workload.total_lookups() as u64);
}

/// A plan whose shapes disagree with the engine's tables is rejected
/// up front, as is a plan for a different table count.
#[test]
fn mismatched_plan_is_rejected() {
    let fix = fixture();
    let topo = RankTopology {
        nr_ranks: 1,
        dpus_per_rank: 4,
    };
    let p = plan_with(topo, fix.spec.num_items + 64, 0, 0);
    let err = TieredEngine::new(UpdlrmConfig::default(), &p, &fix.tables[..1])
        .expect_err("table-count mismatch must fail");
    assert!(err.to_string().contains("tables"), "{err}");

    let other = Catalog::homogeneous(TABLES, fix.spec.num_items + 1, DIM);
    let profiles: Vec<FreqProfile> = (0..TABLES)
        .map(|t| FreqProfile::from_inputs(fix.spec.num_items + 1, fix.workload.table_inputs(t)))
        .collect();
    let config = PlannerConfig {
        topology: topo,
        emt_capacity_bytes: (fix.spec.num_items + 128) * DIM * 4,
        ..PlannerConfig::default()
    };
    let wrong_rows = plan(&other, &profiles, &config).unwrap();
    let err = TieredEngine::new(UpdlrmConfig::default(), &wrong_rows, &fix.tables)
        .expect_err("row-count mismatch must fail");
    assert!(err.to_string().contains("plan places"), "{err}");
}

/// Property: for *random* feasible planner knobs (topology, partition
/// budget, host cache, replica depth) the tiered engine bit-matches the
/// untiered reference on the whole trace. CI runs this at
/// `PROPTEST_CASES=1024`.
#[test]
fn prop_any_valid_plan_is_bit_identical() {
    let fix = fixture();
    let rows = fix.spec.num_items;
    let strategy = (
        // Topology: 1-4 ranks, 4-24 DPUs each.
        (1usize..=4, 4usize..=24),
        // Per-partition EMT budget in rows: from tiny (wide sharding)
        // to everything-in-one-partition.
        64usize..=rows + 64,
        // Host cache rows per table, 0 disables the tier.
        0usize..=256,
        // Replica block depth, 0 disables the tier.
        0usize..=64,
    );
    let mut runner = TestRunner::new(ProptestConfig::with_cases(24));
    runner.run(
        &strategy,
        |((nr_ranks, dpus_per_rank), emt_rows, host_rows, rep)| {
            let topology = RankTopology {
                nr_ranks,
                dpus_per_rank,
            };
            let config = PlannerConfig {
                topology,
                emt_capacity_bytes: emt_rows * DIM * 4,
                host_cache_bytes: TABLES * host_rows * DIM * 4,
                replicate_top: rep,
                ..PlannerConfig::default()
            };
            let Ok(p) = plan(&fix.catalog, &fix.profiles, &config) else {
                // Infeasible knobs (partition too small for the
                // replica block, fleet too small) are the planner's
                // problem, covered by placement's own proptests.
                return Ok(());
            };
            let mut tiered = TieredEngine::new(UpdlrmConfig::default(), &p, &fix.tables).unwrap();
            for (bi, batch) in fix.workload.batches.iter().enumerate() {
                let (pooled, _) = tiered.run_batch(batch).unwrap();
                for (t, m) in pooled.iter().enumerate() {
                    let r = &fix.reference[bi][t];
                    prop_assert_eq!(m.rows(), r.rows());
                    prop_assert_eq!(m.cols(), r.cols());
                    for (x, y) in m.as_slice().iter().zip(r.as_slice()) {
                        prop_assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "batch {} table {} under {:?}",
                            bi,
                            t,
                            &config
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

/// Double-buffering runs on plan-built engines too: pooled embeddings
/// bit-match the sequential schedule (host-tier rows are staged per
/// slot, so batch `i + 1`'s routing cannot leak into batch `i`'s
/// combine), the executed wall equals `pipelined_wall_ns` of the
/// breakdowns, and it never exceeds the sequential wall.
#[test]
fn plan_engine_doublebuf_matches_sequential() {
    let fix = fixture();
    let p = plan_with(
        RankTopology {
            nr_ranks: 3,
            dpus_per_rank: 8,
        },
        fix.spec.num_items / 4 + 64,
        TABLES * 64 * DIM * 4,
        16,
    );
    let serve = |mode: PipelineMode| {
        let config = UpdlrmConfig::default()
            .with_pipeline_mode(mode)
            .with_queue_depth(2);
        let mut eng = UpdlrmEngine::from_plan(config, &p, &fix.tables).unwrap();
        let mut pooled: Vec<Vec<Matrix>> = Vec::new();
        let mut bds: Vec<EmbeddingBreakdown> = Vec::new();
        let report = eng
            .serve_stream(&fix.workload.batches, |i, m, bd| {
                assert_eq!(i, pooled.len(), "sink fires in order");
                pooled.push(m.to_vec());
                bds.push(*bd);
            })
            .unwrap();
        (report, pooled, bds)
    };
    let (seq, seq_pooled, _) = serve(PipelineMode::Sequential);
    let (dbl, dbl_pooled, dbl_bds) = serve(PipelineMode::DoubleBuf);
    assert_eq!(dbl.mode, PipelineMode::DoubleBuf);
    assert!(
        dbl_bds.iter().any(|bd| bd.cache_hits > 0),
        "the plan must exercise the host tier"
    );
    assert_eq!(dbl_pooled.len(), seq_pooled.len());
    for (bi, (a, b)) in dbl_pooled.iter().zip(&seq_pooled).enumerate() {
        for (t, (ma, mb)) in a.iter().zip(b).enumerate() {
            assert_bit_identical(ma, mb, &format!("doublebuf batch {bi} table {t}"));
        }
    }
    assert_eq!(dbl.wall_ns.to_bits(), pipelined_wall_ns(&dbl_bds).to_bits());
    assert!(
        dbl.wall_ns <= seq.wall_ns,
        "doublebuf {} > sequential {}",
        dbl.wall_ns,
        seq.wall_ns
    );
}

/// A replanner would refit rows by `config.strategy` and overwrite the
/// plan's host and replica tiers, so a plan-built engine refuses it.
#[test]
fn plan_engine_rejects_replanning() {
    let fix = fixture();
    let p = plan_with(
        RankTopology {
            nr_ranks: 2,
            dpus_per_rank: 8,
        },
        fix.spec.num_items / 3 + 64,
        TABLES * 32 * DIM * 4,
        16,
    );
    let config = UpdlrmConfig::default().with_replan(ReplanPolicy::Periodic { every_batches: 2 });
    let err =
        UpdlrmEngine::from_plan(config, &p, &fix.tables).expect_err("replanning a plan must fail");
    assert!(matches!(err, CoreError::InvalidConfig(_)), "{err}");
    assert!(err.to_string().contains("replan"), "{err}");
}
