//! The UpDLRM embedding engine: Fig. 4's three-stage pipeline.
//!
//! Pre-processing (untimed, as in the paper) places each embedding
//! table's rows and loads the tiles — and, under cache-aware
//! partitioning, the cached partial-sum rows — into DPU MRAM. Each
//! inference batch then runs:
//!
//! 1. **stage 1** — the host routes every lookup to its row partition,
//!    builds per-tasklet reference streams and scatters them CPU→MRAM;
//! 2. **stage 2** — every DPU runs the [`EmbeddingKernel`], fetching
//!    rows (EMT or cache region) and reducing per-sample partial sums;
//! 3. **stage 3** — the host gathers the partial-sum rows MRAM→CPU and
//!    combines them into pooled `batch x dim` embeddings.
//!
//! The per-stage wall times form the Fig. 10 latency breakdown; the
//! pooled embeddings are bit-compatible with the
//! [`dlrm_model`] reference (exactly so for integer-valued tables).
//!
//! ## One engine, two ways to place rows
//!
//! Every engine runs on a [`Fleet`] and keeps one layout per table:
//! which `(rank, DPU)` holds each `(partition, column slice)`, and
//! where each row lives. A row lives in one of four places:
//!
//! 1. **cold partition** — exactly one partition's MRAM, past the
//!    replica block; the reference goes to that partition;
//! 2. **replicated block** — every partition's replica block at the
//!    same slot; traffic is spread round-robin by `(row + sample) %
//!    partitions`;
//! 3. **co-occurrence cache** (cache-aware partitioning only) — cached
//!    partial-sum combinations in each partition's cache region;
//! 4. **host tier** — a host-DRAM store; the host probes it during
//!    stage-1 routing (`host_probe_ns` per hit) and folds the row into
//!    the pooled output during the combine (`host_combine_ns_per_add`
//!    per add), with no PIM traffic at all. Host-tier hits are reported
//!    in [`EmbeddingBreakdown::cache_hits`], like cache hits.
//!
//! [`UpdlrmEngine::new`] / [`UpdlrmEngine::from_workload`] partition
//! with a [`PartitionStrategy`] (tiers 1–3) onto a one-rank fleet with
//! zero rank tolls, which costs exactly what a single [`upmem_sim::PimSystem`]
//! does. [`UpdlrmEngine::from_plan`] lowers a
//! [`placement::PlacementPlan`] (tiers 1, 2 and 4) onto the plan's
//! multi-rank fleet, one full-width partition per DPU. Per batch each
//! phase runs rank by rank and is combined with the fleet's rules
//! ([`Fleet::combine_transfers`] / [`Fleet::combine_launches`]): rank
//! buses move bytes in parallel, the host driver pays `rank_base_ns`
//! per rank touched by a transfer phase and `rank_launch_ns` per
//! `(table, rank)` launch (DESIGN.md §4.9).
//!
//! **Functional contract** (enforced by `tests/tiered_diff.rs`): under
//! *any* valid plan the pooled embeddings equal a strategy-built
//! engine's on the same trace — bit-identical for integer-valued
//! tables, where every partial sum is exact. Timing differs by design;
//! numerics must not.

use crate::config::UpdlrmConfig;
use crate::error::{CoreError, Result};
use crate::kernel::{build_stream_into, DpuTask, EmbeddingKernel, StreamBuilder, CACHE_REF_BIT};
use crate::partition::{self, PartitionStrategy, RowAssignment};
use crate::replan::{self, ReplanPolicy};
use crate::serve::PipelineMode;
use crate::telemetry::{MetricsRegistry, Snapshot};
use crate::tiling::{Tiling, TilingProblem};
use cooccur_cache::{CacheHit, CacheListSet, CooccurGraph, LookupScratch, PartialSumCache};
use dlrm_model::{quant, simd, Dlrm, EmbedDtype, EmbeddingTable, Matrix, QueryBatch};
use placement::{PlacementPlan, TablePlacement};
use upmem_sim::{Cycles, DpuId, Fleet, LaunchReport, RankCostModel, RankTopology, TransferReport};
use workloads::{FreqProfile, Workload};

// The plan's row sentinels are the engine's, so a plan's row maps lower
// into a `RowAssignment` unchanged.
const _: () = assert!(
    placement::HOST_ROW_PART == partition::HOST_ROW_PART
        && placement::REPLICATED_ROW_PART == partition::REPLICATED_ROW_PART
);

/// Per-batch latency breakdown of the embedding layer (Fig. 10).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EmbeddingBreakdown {
    /// Stage 1: CPU→DPU reference-stream transfer (ns).
    pub stage1_ns: f64,
    /// Stage 2: DPU lookup + in-DPU reduction (ns).
    pub stage2_ns: f64,
    /// Stage 3: DPU→CPU partial-sum transfer (ns).
    pub stage3_ns: f64,
    /// Host-side routing/stream building (ns), outside the 3 stages.
    pub route_ns: f64,
    /// Host-side final partial-sum combination (ns), outside the 3 stages.
    pub combine_ns: f64,
    /// Modeled DPU + link energy (picojoules).
    pub energy_pj: f64,
    /// MRAM DMA transfers issued by the kernels.
    pub dma_transfers: u64,
    /// Pipeline instructions issued by the kernels.
    pub instrs: u64,
    /// Lookups served by cached partial-sum combinations.
    pub cache_hits: u64,
    /// Lookups served from the EMT region.
    pub emt_lookups: u64,
    /// Slowest-DPU over mean-DPU lookup cycles (1.0 = perfectly balanced).
    pub lookup_imbalance: f64,
}

impl EmbeddingBreakdown {
    /// The paper's embedding-layer time: stage 1 + stage 2 + stage 3.
    pub fn total_ns(&self) -> f64 {
        self.stage1_ns + self.stage2_ns + self.stage3_ns
    }

    /// Embedding time including host-side routing and combination.
    pub fn total_with_host_ns(&self) -> f64 {
        self.total_ns() + self.route_ns + self.combine_ns
    }

    /// Accumulates another batch's breakdown (imbalance is averaged by
    /// the caller; here the max is kept).
    pub fn accumulate(&mut self, other: &EmbeddingBreakdown) {
        self.stage1_ns += other.stage1_ns;
        self.stage2_ns += other.stage2_ns;
        self.stage3_ns += other.stage3_ns;
        self.route_ns += other.route_ns;
        self.combine_ns += other.combine_ns;
        self.energy_pj += other.energy_pj;
        self.dma_transfers += other.dma_transfers;
        self.instrs += other.instrs;
        self.cache_hits += other.cache_hits;
        self.emt_lookups += other.emt_lookups;
        self.lookup_imbalance = self.lookup_imbalance.max(other.lookup_imbalance);
    }
}

/// The plan-engine constructor under its earlier name:
/// [`TieredEngine::new`] forwards to [`UpdlrmEngine::from_plan`].
#[derive(Debug)]
pub enum TieredEngine {}

impl TieredEngine {
    /// Same as [`UpdlrmEngine::from_plan`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`UpdlrmEngine::from_plan`].
    // Returns the one engine type; `TieredEngine` is only a name.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        config: UpdlrmConfig,
        plan: &PlacementPlan,
        tables: &[EmbeddingTable],
    ) -> Result<UpdlrmEngine> {
        UpdlrmEngine::from_plan(config, plan, tables)
    }
}

/// Summary of one table's placement, for analyses and figures.
#[derive(Debug, Clone, PartialEq)]
pub struct TableReport {
    /// The tiling in effect.
    pub tiling: Tiling,
    /// Predicted access load per row partition.
    pub part_load: Vec<f64>,
    /// Max-over-mean of `part_load`.
    pub imbalance: f64,
    /// Number of cache lists placed (0 outside CA).
    pub cached_lists: usize,
    /// Cached combination rows per partition.
    pub cache_rows_per_part: Vec<u32>,
}

struct CacheState {
    store: PartialSumCache,
    entry_part: Vec<u32>,
    entry_slot: Vec<u32>,
    cache_rows_per_part: Vec<u32>,
    placed_lists: usize,
    /// The truncated mined list set, kept so a replan can re-place and
    /// re-materialize the cache from fresh window frequencies.
    lists: CacheListSet,
}

/// Number of MRAM staging slots per DPU: slot 0 serves `run_batch` and
/// sequential serving, slot 1 is the double-buffer partner that lets
/// batch `i + 1`'s reference streams land while batch `i` still owns
/// the other slot (see [`crate::serve`]).
pub(crate) const STAGING_SLOTS: usize = 2;

/// One table's execution layout: everything route / scatter / launch /
/// gather_combine need, whichever constructor built it.
struct TableState {
    tiling: Tiling,
    /// Where each row lives: a partition slot, the replica block
    /// ([`partition::REPLICATED_ROW_PART`]), the cache
    /// ([`partition::CACHED_ROW_SLOT`]) or the host tier
    /// ([`partition::HOST_ROW_PART`]).
    assignment: RowAssignment,
    cache: Option<CacheState>,
    /// Rows replicated into every partition, in replica-slot order.
    replicas: Vec<u32>,
    /// `(rank, rank-local DPU)` of each `(partition, column slice)`,
    /// indexed `p * col_slices + c`.
    locs: Vec<(usize, DpuId)>,
    /// Host-tier rows in host-slot order, `dim` f32s each.
    host_store: Vec<f32>,
    /// Double-buffered EMT region bases, indexed by the engine's
    /// `active_emt`. Equal when replanning is off (one region).
    emt_bases: [u32; 2],
    /// Double-buffered cache region bases; equal when replanning is off.
    cache_bases: [u32; 2],
    /// Rows each EMT region holds (replica block + largest partition) —
    /// the per-partition capacity a replan plans against.
    emt_region_rows: usize,
    /// Combination rows each cache region holds per partition.
    cache_region_rows: usize,
    /// Per staging slot: (reference-stream base, partial-sum base).
    slots: [(u32, u32); STAGING_SLOTS],
    dim: usize,
}

impl TableState {
    fn dpu(&self, part: usize, slice: usize) -> (usize, DpuId) {
        self.locs[part * self.tiling.col_slices + slice]
    }

    fn input_base(&self, slot: usize) -> u32 {
        self.slots[slot].0
    }

    fn output_base(&self, slot: usize) -> u32 {
        self.slots[slot].1
    }
}

/// Host-tier costs of a plan-built engine (zero for strategy-built
/// engines, which have no host tier).
#[derive(Clone, Copy, Default)]
struct HostTierCost {
    /// Host ns to probe the host-tier index, per hit.
    probe_ns: f64,
    /// Host ns per scalar add when folding a host-tier row.
    combine_ns_per_add: f64,
}

/// One rank's fixed share of the per-batch transfers, in global
/// `(table, partition, column slice)` order.
struct RankIo {
    rank: usize,
    /// Reference streams this rank receives: stream index and its
    /// broadcast group (rank-local ids of the partition's slices).
    streams: Vec<(usize, Vec<DpuId>)>,
    /// `(dpu, table, col slice)` per stage-3 gather request.
    gathers: Vec<(DpuId, usize, usize)>,
}

/// The per-DPU MRAM region plan shared by every (partition, slice) of
/// one table. Produced by [`compute_regions`]; the property tests in
/// [`crate::replan`] pin down that all regions are pairwise disjoint —
/// in particular that a migration scatter into the inactive EMT/cache
/// regions can never touch what the active regions are serving.
pub(crate) struct MramRegions {
    pub(crate) emt_bases: [u32; 2],
    pub(crate) cache_bases: [u32; 2],
    pub(crate) slots: [(u32, u32); STAGING_SLOTS],
    pub(crate) emt_region_rows: usize,
    pub(crate) cache_region_rows: usize,
}

/// Plans one DPU's MRAM regions: `[EMT A | (EMT B) | cache A |
/// (cache B) | slot0 input | slot0 output | slot1 input | slot1
/// output]`. With `replan` set the EMT and cache regions are
/// double-buffered: region B is the staging target a migration
/// scatters the re-partitioned tiles into while region A serves.
///
/// The EMT regions are sized with headroom — up to twice the live
/// footprint, bounded by half the configured EMT capacity so the pair
/// never exceeds the single-region budget — because a rebalanced plan
/// rarely has the same largest partition as the old one. The cache
/// regions are sized at the placement capacity bound so any replanned
/// cache layout fits.
pub(crate) struct RegionSpec {
    /// Double-buffer the EMT and cache regions for live migration.
    pub(crate) replan: bool,
    /// Largest live EMT footprint (replica block + largest partition), rows.
    pub(crate) emt_rows_max: usize,
    /// Configured per-DPU EMT capacity bound, rows.
    pub(crate) emt_cap_rows: usize,
    /// Stored bytes per EMT row slice (dtype-dependent).
    pub(crate) emt_row_bytes: usize,
    /// Largest live cache footprint across partitions, rows.
    pub(crate) cache_rows_max: usize,
    /// Placement capacity bound for the cache region, rows.
    pub(crate) cache_cap_rows: usize,
    /// Bytes per f32 cache row slice.
    pub(crate) row_bytes: usize,
    /// Per-slot input staging reservation, bytes.
    pub(crate) input_reserve_bytes: usize,
    /// Per-slot output staging reservation, bytes.
    pub(crate) output_bytes: usize,
}

pub(crate) fn compute_regions(
    spec: &RegionSpec,
) -> std::result::Result<MramRegions, upmem_sim::SimError> {
    let emt_region_rows = if spec.replan {
        spec.emt_rows_max
            .max((spec.emt_cap_rows / 2).min(spec.emt_rows_max * 2))
    } else {
        spec.emt_rows_max
    };
    let cache_region_rows = if spec.replan {
        spec.cache_rows_max.max(spec.cache_cap_rows)
    } else {
        spec.cache_rows_max
    };
    let mut layout = upmem_sim::MramLayout::new();
    let emt_a = layout.reserve(emt_region_rows * spec.emt_row_bytes)?;
    let emt_b = if spec.replan {
        layout.reserve(emt_region_rows * spec.emt_row_bytes)?
    } else {
        emt_a
    };
    let cache_a = layout.reserve(cache_region_rows * spec.row_bytes)?;
    let cache_b = if spec.replan && cache_region_rows > 0 {
        layout.reserve(cache_region_rows * spec.row_bytes)?
    } else {
        cache_a
    };
    let mut slots = [(0u32, 0u32); STAGING_SLOTS];
    for slot in &mut slots {
        let input = layout.reserve(spec.input_reserve_bytes)?;
        let output = layout.reserve(spec.output_bytes)?;
        *slot = (input, output);
    }
    Ok(MramRegions {
        emt_bases: [emt_a, emt_b],
        cache_bases: [cache_a, cache_b],
        slots,
        emt_region_rows,
        cache_region_rows,
    })
}

/// Serializes one `(partition, column slice)` EMT tile — the shared
/// replica block followed by the partition's local rows, at the
/// configured dtype — appending to `buf`. Shared by the initial
/// (untimed) load and the migration scatter so both produce
/// byte-identical tiles for the same placement.
fn build_emt_tile(
    table: &EmbeddingTable,
    dtype: EmbedDtype,
    n_c: usize,
    c: usize,
    replicas: &[u32],
    local_rows: &[u32],
    buf: &mut Vec<u8>,
) -> Result<()> {
    let emt_row_bytes = dtype.stored_row_bytes(n_c);
    let mut qrec = vec![0u8; emt_row_bytes];
    for &r in replicas.iter().chain(local_rows.iter()) {
        let row = table.row(r as u64)?;
        let slice = &row[c * n_c..(c + 1) * n_c];
        match dtype {
            EmbedDtype::F32 => {
                for &v in slice {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            EmbedDtype::Int8 => {
                quant::quantize_row_into(slice, &mut qrec)?;
                buf.extend_from_slice(&qrec);
            }
        }
    }
    Ok(())
}

/// Serializes one partition's cache-region column slice (always f32),
/// appending to `buf`. `entries` is the partition's store-entry list
/// in cache-slot order.
fn build_cache_tile(
    store: &PartialSumCache,
    entries: &[usize],
    n_c: usize,
    c: usize,
    buf: &mut Vec<u8>,
) {
    for &e in entries {
        let vec = &store.entries()[e].vector;
        for &v in &vec[c * n_c..(c + 1) * n_c] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Inverts cache entry maps into per-partition slot order: element
/// `[p][s]` is the store entry at slot `s` of partition `p`'s cache
/// region.
fn entries_in_parts(
    entry_part: &[u32],
    entry_slot: &[u32],
    cache_rows_per_part: &[u32],
) -> Vec<Vec<usize>> {
    let mut v: Vec<Vec<usize>> = cache_rows_per_part
        .iter()
        .map(|&n| vec![0; n as usize])
        .collect();
    for (e, (&p, &s)) in entry_part.iter().zip(entry_slot.iter()).enumerate() {
        v[p as usize][s as usize] = e;
    }
    v
}

/// Assigns cache slots for a cache-aware placement: combos of one list
/// are consecutive in the owning partition's cache region, in the same
/// (list-major, mask-minor) order the store enumerates.
fn cache_entry_maps(ca: &partition::CacheAwareAssignment) -> (Vec<u32>, Vec<u32>) {
    let parts = ca.cache_rows_per_part.len();
    let mut next_slot = vec![0u32; parts];
    let mut entry_part = Vec::new();
    let mut entry_slot = Vec::new();
    for (l, list) in ca.placed_lists.lists.iter().enumerate() {
        let p = ca.list_part[l];
        let combos = list.num_combinations() as u32;
        for i in 0..combos {
            entry_part.push(p);
            entry_slot.push(next_slot[p as usize] + i);
        }
        next_slot[p as usize] += combos;
    }
    (entry_part, entry_slot)
}

/// New cache layout staged by a pending migration (cache-aware tables
/// only): the re-materialized store plus its entry maps, installed at
/// the flip.
struct CacheFlip {
    store: PartialSumCache,
    entry_part: Vec<u32>,
    entry_slot: Vec<u32>,
    cache_rows_per_part: Vec<u32>,
    placed_lists: usize,
}

/// One table's staged placement: the new row assignment and replica
/// block whose tiles already sit in the inactive MRAM regions.
struct TableFlip {
    assignment: RowAssignment,
    replicas: Vec<u32>,
    cache: Option<CacheFlip>,
}

/// An in-flight migration: the staged per-table placements and the
/// modeled instant the scatter completes, at which point
/// [`UpdlrmEngine::on_tick`] performs the atomic flip.
struct PendingMigration {
    done_at_ns: u64,
    tables: Vec<TableFlip>,
}

/// Replanner state, present only when
/// [`UpdlrmConfig::replan`](crate::config::UpdlrmConfig) is enabled.
struct DriftState {
    /// Sliding-window access profile per table, accumulated by
    /// `route_batch` and reset at every replan decision.
    window: Vec<FreqProfile>,
    /// Batches folded into the current window.
    batches_in_window: u64,
    /// The migration currently in flight, if any (at most one).
    pending: Option<PendingMigration>,
    /// Telemetry snapshot taken mid-first-migration (between the
    /// scatter and the flip) — the drift-snapshot golden the CI
    /// byte-compares.
    first_snapshot: Option<Snapshot>,
}

/// Host-side counters from stage-1 routing of one batch. The routed
/// reference streams themselves live in the engine's [`BatchScratch`]
/// (they can be scattered into either staging slot), so this is a small
/// `Copy` value and routing a batch moves no buffers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoutedBatch {
    pub(crate) batch_size: usize,
    pub(crate) route_ns: f64,
    pub(crate) cache_hits: u64,
    pub(crate) emt_lookups: u64,
}

impl RoutedBatch {
    /// Starts an `EmbeddingBreakdown` carrying the host-routing counters.
    pub(crate) fn breakdown_seed(&self) -> EmbeddingBreakdown {
        EmbeddingBreakdown {
            route_ns: self.route_ns,
            cache_hits: self.cache_hits,
            emt_lookups: self.emt_lookups,
            ..EmbeddingBreakdown::default()
        }
    }
}

/// Aggregated stage-2 launch result over all table groups.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Stage2Report {
    pub(crate) wall_ns: f64,
    pub(crate) energy_pj: f64,
    pub(crate) dma_transfers: u64,
    pub(crate) instrs: u64,
    pub(crate) lookup_imbalance: f64,
}

impl Stage2Report {
    pub(crate) fn fold_into(&self, breakdown: &mut EmbeddingBreakdown) {
        breakdown.stage2_ns = self.wall_ns;
        breakdown.energy_pj += self.energy_pj;
        breakdown.dma_transfers += self.dma_transfers;
        breakdown.instrs += self.instrs;
        breakdown.lookup_imbalance = self.lookup_imbalance;
    }
}

/// One routed reference stream: the `(table, part)` it belongs to plus
/// its serialized bytes. The `(table, part)` labels are fixed at engine
/// construction (every row partition emits exactly one stream per
/// batch, in table-major order); only `bytes` changes per batch.
#[derive(Debug)]
struct StreamSlot {
    table: usize,
    part: usize,
    bytes: Vec<u8>,
}

/// Reusable per-engine working memory for the per-batch pipeline. Every
/// stage clears and refills its arena instead of allocating, so after
/// the first (warm-up) batch the steady-state serving path performs no
/// heap allocation — see `DESIGN.md` §4.5 for the ownership model.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Per-(partition, sample) routed references for the table being
    /// routed, indexed `p * batch_size + s`. Grows to the largest
    /// `row_parts x batch_size` seen and is never shrunk, so the inner
    /// `Vec`s keep their capacity across tables and batches.
    refs: Vec<Vec<u32>>,
    /// One serialized stream per (table, row partition), fixed order.
    streams: Vec<StreamSlot>,
    /// Dedup-format stream serializer state.
    builder: StreamBuilder,
    /// Cache lookup working set (cache-aware partitioning only).
    lookup: LookupScratch,
    hit: CacheHit,
    /// Host-tier hits per staging slot, per table: `(sample, host slot)`
    /// in route order. Per slot because a double-buffered batch's host
    /// rows are combined after the next batch has been routed.
    host_refs: [Vec<Vec<(u32, u32)>>; STAGING_SLOTS],
    /// Per rank in use: stage-3 gather request list (lengths depend on
    /// the batch size).
    requests: Vec<Vec<(DpuId, u32, usize)>>,
    /// Per rank in use: staging buffer for its gathered partial sums.
    gather_bufs: Vec<Vec<u8>>,
    /// Per-rank transfer reports of the current phase.
    transfers: Vec<TransferReport>,
    /// One recycled launch report per `(table, rank)` launch group.
    launches: Vec<LaunchReport>,
    /// Per-DPU cycle counts across all launch groups of one batch.
    all_cycles: Vec<u64>,
    /// Returned pooled-output sets available for reuse (see
    /// [`UpdlrmEngine::recycle_pooled`]).
    matrix_pool: Vec<Vec<Matrix>>,
}

/// The UpDLRM system: a PIM fleet loaded with placed embedding tables,
/// executing the three-stage embedding pipeline per batch.
///
/// Built from a partitioning strategy ([`UpdlrmEngine::new`],
/// [`UpdlrmEngine::from_workload`]) or from a placement plan
/// ([`UpdlrmEngine::from_plan`]); both run the same serving path.
///
/// ## Example
///
/// ```rust
/// use updlrm_core::{PartitionStrategy, UpdlrmConfig, UpdlrmEngine};
/// use dlrm_model::EmbeddingTable;
/// use workloads::{DatasetSpec, TraceConfig, Workload};
///
/// # fn main() -> Result<(), updlrm_core::CoreError> {
/// let spec = DatasetSpec::goodreads().scaled_down(5000); // 472 items
/// let workload = Workload::generate(
///     &spec,
///     TraceConfig { num_tables: 2, num_batches: 2, ..TraceConfig::default() },
/// );
/// let tables: Vec<EmbeddingTable> = (0..2)
///     .map(|t| EmbeddingTable::random(spec.num_items, 32, 0.1, t))
///     .collect::<Result<_, _>>()?;
///
/// let config = UpdlrmConfig::with_dpus(16, PartitionStrategy::CacheAware);
/// let mut engine = UpdlrmEngine::from_workload(config, &tables, &workload)?;
/// let (pooled, breakdown) = engine.run_batch(&workload.batches[0])?;
/// assert_eq!(pooled.len(), 2);
/// assert!(breakdown.total_ns() > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct UpdlrmEngine {
    fleet: Fleet,
    config: UpdlrmConfig,
    tables: Vec<TableState>,
    host_cost: HostTierCost,
    /// One prebuilt kernel per (table, staging slot), keyed by rank-local
    /// DPU id (a table's tasks are identical on every DPU): tasks are
    /// registered once at construction; only each task's `n_samples` is
    /// updated per launch, so stage 2 builds nothing per batch.
    kernels: Vec<[EmbeddingKernel; STAGING_SLOTS]>,
    /// Launch groups per table: `(rank, rank-local ids)` by ascending
    /// rank, ids row-part major, col-slice minor.
    launch_groups: Vec<Vec<(usize, Vec<DpuId>)>>,
    /// Per rank in use, ascending: its scatter and gather lists.
    rank_io: Vec<RankIo>,
    scratch: BatchScratch,
    pub(crate) serve_scratch: crate::serve::ServeScratch,
    /// Telemetry recorder; a disabled registry (the default) makes every
    /// record call a single branch. Arenas are preallocated here so the
    /// hooks stay allocation-free in steady state.
    pub(crate) metrics: MetricsRegistry,
    /// Host-resident table copies, kept only when replanning is enabled
    /// (the migration scatter rebuilds tiles from them).
    host_tables: Vec<EmbeddingTable>,
    /// Which EMT/cache region pair is serving (`emt_bases[active_emt]`).
    active_emt: usize,
    /// Replanner state; `None` unless `config.replan` is enabled.
    drift: Option<DriftState>,
}

impl std::fmt::Debug for UpdlrmEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdlrmEngine")
            .field("topology", &self.fleet.topology())
            .field("strategy", &self.config.strategy)
            .field("tables", &self.tables.len())
            .finish()
    }
}

/// Maps an MRAM overflow while planning regions to a capacity error.
fn capacity_error(e: upmem_sim::SimError) -> CoreError {
    match e {
        upmem_sim::SimError::MramOutOfBounds {
            addr,
            len,
            capacity,
        } => CoreError::CapacityExceeded {
            partition: 0,
            required: addr as usize + len,
            available: capacity,
        },
        other => CoreError::Sim(other),
    }
}

/// Where routing sends one EMT-path reference.
enum RefTarget {
    /// `(partition, EMT slot)`.
    Part(usize, u32),
    /// Host-store slot.
    Host(u32),
}

impl UpdlrmEngine {
    /// Builds an engine from explicit per-table frequency profiles and
    /// cache lists.
    ///
    /// `cache_lists` may be empty when the strategy is not
    /// [`PartitionStrategy::CacheAware`]; under CA it must carry one
    /// (possibly empty) list set per table.
    ///
    /// # Errors
    ///
    /// Configuration errors (DPU counts, table/profile mismatches),
    /// infeasible tilings, capacity violations and simulator errors.
    pub fn new(
        config: UpdlrmConfig,
        tables: &[EmbeddingTable],
        profiles: &[FreqProfile],
        cache_lists: &[CacheListSet],
    ) -> Result<Self> {
        if tables.is_empty() {
            return Err(CoreError::InvalidConfig(
                "at least one embedding table".into(),
            ));
        }
        if profiles.len() != tables.len() {
            return Err(CoreError::InvalidConfig(format!(
                "{} profiles for {} tables",
                profiles.len(),
                tables.len()
            )));
        }
        if !config.nr_dpus.is_multiple_of(tables.len()) {
            return Err(CoreError::InvalidConfig(format!(
                "{} dpus not divisible into {} table groups",
                config.nr_dpus,
                tables.len()
            )));
        }
        if config.strategy == PartitionStrategy::CacheAware && cache_lists.len() != tables.len() {
            return Err(CoreError::InvalidConfig(format!(
                "cache-aware partitioning needs one cache list set per table ({} for {})",
                cache_lists.len(),
                tables.len()
            )));
        }
        let dpus_per_table = config.nr_dpus / tables.len();
        let states = tables
            .iter()
            .enumerate()
            .map(|(t, table)| {
                Self::build_table(
                    &config,
                    table,
                    &profiles[t],
                    cache_lists.get(t),
                    t * dpus_per_table,
                    dpus_per_table,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let topology = RankTopology {
            nr_ranks: 1,
            dpus_per_rank: config.nr_dpus,
        };
        let free_ranks = RankCostModel {
            rank_base_ns: 0.0,
            rank_launch_ns: 0.0,
        };
        Self::assemble(
            config,
            topology,
            free_ranks,
            HostTierCost::default(),
            tables,
            states,
        )
    }

    /// Lowers a [`PlacementPlan`] into an engine on the plan's fleet:
    /// one full-width partition per DPU (`col_slices = 1`), the plan's
    /// host, replicated and cold tiers, its ranks and rank costs. The
    /// plan must describe exactly `tables` (count, rows, dims). From
    /// `config` everything but `nr_dpus` and `strategy` applies; the
    /// plan governs placement and topology.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when `config.replan` is enabled (a
    /// replan would refit rows by `config.strategy` and overwrite the
    /// plan's host and replica tiers), when the plan fails its own
    /// invariants or does not match `tables`, when a row exceeds one
    /// DMA transfer (2048 B) or is not 8-byte aligned;
    /// [`CoreError::CapacityExceeded`] when the MRAM regions overflow;
    /// simulator errors propagate.
    pub fn from_plan(
        config: UpdlrmConfig,
        plan: &PlacementPlan,
        tables: &[EmbeddingTable],
    ) -> Result<Self> {
        if config.replan.enabled() {
            return Err(CoreError::InvalidConfig(format!(
                "replan policy {} cannot run on a placement plan: replanning refits rows by \
                 the partitioning strategy and would overwrite the plan's host and replica tiers",
                config.replan.as_string()
            )));
        }
        plan.check_invariants()
            .map_err(|e| CoreError::InvalidConfig(format!("placement plan: {e}")))?;
        if tables.len() != plan.tables.len() {
            return Err(CoreError::InvalidConfig(format!(
                "plan places {} tables, engine got {}",
                plan.tables.len(),
                tables.len()
            )));
        }
        let topology = plan.config.topology;
        let states = tables
            .iter()
            .zip(&plan.tables)
            .enumerate()
            .map(|(t, (table, tp))| Self::plan_table(&config, t, table, tp, topology))
            .collect::<Result<Vec<_>>>()?;
        let host_cost = HostTierCost {
            probe_ns: plan.config.host_probe_ns,
            combine_ns_per_add: plan.config.host_combine_ns_per_add,
        };
        Self::assemble(
            config,
            topology,
            plan.config.rank_cost.clone(),
            host_cost,
            tables,
            states,
        )
    }

    /// Builds the fleet, loads every table's tiles, and fixes the
    /// batch-independent launch/scatter/gather structure for the
    /// engine's lifetime so no per-batch call rebuilds it.
    fn assemble(
        config: UpdlrmConfig,
        topology: RankTopology,
        rank_cost: RankCostModel,
        host_cost: HostTierCost,
        tables: &[EmbeddingTable],
        states: Vec<TableState>,
    ) -> Result<Self> {
        let mut fleet = Fleet::new(
            topology,
            config.tasklets,
            config.cost.clone(),
            config.host_threads,
            rank_cost,
        )?;
        // Staging slots the configured schedule writes (see
        // `serve_stream`): the double-buffered one alternates both.
        let slots_used = match config.pipeline_mode {
            PipelineMode::DoubleBuf if config.queue_depth >= 2 => STAGING_SLOTS,
            _ => 1,
        };
        for (table, state) in tables.iter().zip(&states) {
            Self::load_table(&mut fleet, table, state, config.embed_dtype)?;
            // Pre-commit each DPU's bank through the last staging slot
            // in use: the regions only the kernel writes (reference
            // streams, partial-sum outputs) would otherwise regrow the
            // bank — with whole-bank memcpys — across the first few
            // launches.
            let mram_end = state.slots[slots_used - 1].1 as usize
                + config.batch_size * state.tiling.row_bytes() * 2;
            for &(rank, dpu) in &state.locs {
                fleet
                    .rank_mut(rank)?
                    .dpu_mut(dpu)?
                    .mram_mut()
                    .commit(mram_end);
            }
        }

        let mut kernels = Vec::with_capacity(states.len());
        let mut launch_groups = Vec::with_capacity(states.len());
        let mut streams = Vec::new();
        let mut rank_io: Vec<RankIo> = Vec::new();
        for (t, state) in states.iter().enumerate() {
            let kset: [EmbeddingKernel; STAGING_SLOTS] = std::array::from_fn(|slot| {
                let mut kernel = EmbeddingKernel::with_dtype(
                    state.tiling.row_bytes(),
                    config.dedup,
                    config.embed_dtype,
                );
                for &(_, dpu) in &state.locs {
                    kernel.set_task(
                        dpu,
                        DpuTask {
                            emt_base: state.emt_bases[0],
                            cache_base: state.cache_bases[0],
                            input_base: state.input_base(slot),
                            output_base: state.output_base(slot),
                            n_samples: 0,
                        },
                    );
                }
                kernel
            });
            let mut groups: Vec<(usize, Vec<DpuId>)> = Vec::new();
            for p in 0..state.tiling.row_parts {
                let (rank, _) = state.dpu(p, 0);
                let pos = match rank_io.iter().position(|io| io.rank == rank) {
                    Some(pos) => pos,
                    None => {
                        rank_io.push(RankIo {
                            rank,
                            streams: Vec::new(),
                            gathers: Vec::new(),
                        });
                        rank_io.len() - 1
                    }
                };
                let mut group = Vec::with_capacity(state.tiling.col_slices);
                for c in 0..state.tiling.col_slices {
                    let (r, dpu) = state.dpu(p, c);
                    debug_assert_eq!(r, rank, "a partition's slices share one rank");
                    group.push(dpu);
                    match groups.iter_mut().find(|(gr, _)| *gr == rank) {
                        Some((_, ids)) => ids.push(dpu),
                        None => groups.push((rank, vec![dpu])),
                    }
                    rank_io[pos].gathers.push((dpu, t, c));
                }
                rank_io[pos].streams.push((streams.len(), group));
                streams.push(StreamSlot {
                    table: t,
                    part: p,
                    bytes: Vec::new(),
                });
            }
            groups.sort_by_key(|(rank, _)| *rank);
            kernels.push(kset);
            launch_groups.push(groups);
        }
        rank_io.sort_by_key(|io| io.rank);

        let metrics = MetricsRegistry::new(config.telemetry, topology.nr_dpus());
        let (host_tables, drift) = if config.replan.enabled() {
            (
                tables.to_vec(),
                Some(DriftState {
                    window: tables.iter().map(|t| FreqProfile::new(t.rows())).collect(),
                    batches_in_window: 0,
                    pending: None,
                    first_snapshot: None,
                }),
            )
        } else {
            (Vec::new(), None)
        };
        let n_tables = states.len();
        let n_ranks = rank_io.len();
        let n_groups = launch_groups.iter().map(Vec::len).sum();
        let mut launches = Vec::new();
        launches.resize_with(n_groups, LaunchReport::default);
        Ok(UpdlrmEngine {
            fleet,
            config,
            tables: states,
            host_cost,
            kernels,
            launch_groups,
            rank_io,
            scratch: BatchScratch {
                streams,
                host_refs: std::array::from_fn(|_| vec![Vec::new(); n_tables]),
                requests: vec![Vec::new(); n_ranks],
                gather_bufs: vec![Vec::new(); n_ranks],
                launches,
                ..BatchScratch::default()
            },
            serve_scratch: crate::serve::ServeScratch::default(),
            metrics,
            host_tables,
            active_emt: 0,
            drift,
        })
    }

    /// Builds an engine directly from a generated workload: profiles
    /// every table's trace and, under CA, mines cache lists with the
    /// configured miner.
    ///
    /// # Errors
    ///
    /// Same conditions as [`UpdlrmEngine::new`].
    pub fn from_workload(
        mut config: UpdlrmConfig,
        tables: &[EmbeddingTable],
        workload: &Workload,
    ) -> Result<Self> {
        if workload.config.num_tables != tables.len() {
            return Err(CoreError::InvalidConfig(format!(
                "workload has {} tables, engine got {}",
                workload.config.num_tables,
                tables.len()
            )));
        }
        config.avg_reduction_hint = workload.measured_avg_reduction().max(1.0);
        let mut profiles = Vec::with_capacity(tables.len());
        let mut lists = Vec::with_capacity(tables.len());
        for (t, table) in tables.iter().enumerate() {
            let profile = FreqProfile::from_inputs(table.rows(), workload.table_inputs(t));
            if config.strategy == PartitionStrategy::CacheAware {
                let mut graph = CooccurGraph::new(&profile, config.miner.hot_set_size);
                let mut budget = config.miner.max_samples;
                'record: for input in workload.table_inputs(t) {
                    for sample in input.iter() {
                        if budget == 0 {
                            break 'record;
                        }
                        graph.record_sample(sample);
                        budget -= 1;
                    }
                }
                let mut set = CacheListSet::mine(&graph, &config.miner);
                set.measure_benefit(workload.table_inputs(t));
                lists.push(set);
            } else {
                lists.push(CacheListSet::default());
            }
            profiles.push(profile);
        }
        Self::new(config, tables, &profiles, &lists)
    }

    fn build_table(
        config: &UpdlrmConfig,
        table: &EmbeddingTable,
        profile: &FreqProfile,
        cache_lists: Option<&CacheListSet>,
        dpu_base: usize,
        dpus: usize,
    ) -> Result<TableState> {
        let problem = TilingProblem {
            rows: table.rows(),
            cols: table.dim(),
            dpus,
            batch_size: config.batch_size,
            avg_reduction: config.avg_reduction_hint,
            emt_capacity_bytes: config.emt_capacity_bytes,
        };
        let tiling = match config.n_c {
            Some(n_c) => problem.tiling_for_nc(n_c, &config.cost)?,
            None => problem.search(&config.cost)?,
        };
        let row_bytes = tiling.row_bytes();
        // EMT rows are stored at the configured dtype's stride; cache,
        // input and output regions stay f32. Under int8 the narrower
        // stride both fits more rows per DPU and shrinks the per-lookup
        // row DMA.
        let emt_row_bytes = config.embed_dtype.stored_row_bytes(tiling.n_c);
        let parts = tiling.row_parts;
        let emt_cap_rows = config.emt_capacity_bytes / emt_row_bytes;

        // Capacity bound of the cache placement (set under CA): the
        // cache region size a replanned placement can always fit.
        let mut cache_cap_rows = 0usize;
        let (assignment, cache) = match config.strategy {
            PartitionStrategy::Uniform => (
                partition::uniform(table.rows(), parts, emt_cap_rows, profile)?,
                None,
            ),
            PartitionStrategy::NonUniform => (
                partition::non_uniform(table.rows(), parts, emt_cap_rows, profile)?,
                None,
            ),
            PartitionStrategy::Replicated => (
                partition::replicated_non_uniform(
                    table.rows(),
                    parts,
                    emt_cap_rows,
                    profile,
                    config.replicate_top,
                )?,
                None,
            ),
            PartitionStrategy::CacheAware => {
                let mut lists = cache_lists.cloned().unwrap_or_default();
                // The paper's cache-capacity knob: keep the best lists
                // fitting in `fraction` of the full requirement.
                let required = lists.total_storage_bytes(table.dim());
                let budget = (required as f64 * config.cache_fraction) as usize;
                lists.truncate_to_bytes(budget, table.dim());
                let total_combos: usize = lists.lists.iter().map(|l| l.num_combinations()).sum();
                let largest = lists
                    .lists
                    .iter()
                    .map(|l| l.num_combinations())
                    .max()
                    .unwrap_or(0);
                cache_cap_rows = total_combos.div_ceil(parts.max(1)) + largest;
                let ca = partition::cache_aware(
                    table.rows(),
                    parts,
                    emt_cap_rows,
                    cache_cap_rows,
                    profile,
                    &lists,
                )?;
                let store = PartialSumCache::materialize(&ca.placed_lists, table)?;
                let (entry_part, entry_slot) = cache_entry_maps(&ca);
                let placed = ca.placed_lists.lists.len();
                (
                    ca.rows,
                    Some(CacheState {
                        store,
                        entry_part,
                        entry_slot,
                        cache_rows_per_part: ca.cache_rows_per_part,
                        placed_lists: placed,
                        lists,
                    }),
                )
            }
        };

        // Replica block (Replicated strategy): rows in slot order.
        let replicas = replan::replica_block(&assignment);

        // MRAM regions: [EMT | cache | slot0 input | slot0 output |
        // slot1 input | slot1 output]. Two staging slots double-buffer
        // the per-batch regions so consecutive batches never share
        // reference streams or partial sums (see crate::serve); with
        // replanning enabled the EMT and cache regions are themselves
        // double-buffered so migrations can stage the next placement.
        let emt_rows_max =
            replicas.len() + assignment.rows_per_part.iter().copied().max().unwrap_or(0) as usize;
        let cache_rows_max = cache
            .as_ref()
            .map(|c| c.cache_rows_per_part.iter().copied().max().unwrap_or(0) as usize)
            .unwrap_or(0);
        let regions = compute_regions(&RegionSpec {
            replan: config.replan.enabled(),
            emt_rows_max,
            emt_cap_rows,
            emt_row_bytes,
            cache_rows_max,
            cache_cap_rows,
            row_bytes,
            input_reserve_bytes: config.input_reserve_bytes,
            output_bytes: config.batch_size * row_bytes * 2,
        })
        .map_err(capacity_error)?;
        Ok(TableState {
            tiling,
            assignment,
            cache,
            replicas,
            locs: (0..tiling.group_dpus())
                .map(|i| (0, DpuId((dpu_base + i) as u32)))
                .collect(),
            host_store: Vec::new(),
            emt_bases: regions.emt_bases,
            cache_bases: regions.cache_bases,
            emt_region_rows: regions.emt_region_rows,
            cache_region_rows: regions.cache_region_rows,
            slots: regions.slots,
            dim: table.dim(),
        })
    }

    /// Lowers table `t`'s plan placement: the plan's row maps become the
    /// [`RowAssignment`] (host-tier rows keep the
    /// [`partition::HOST_ROW_PART`] sentinel and their host slot), each
    /// partition one full-width DPU, host rows copied into the store.
    fn plan_table(
        config: &UpdlrmConfig,
        t: usize,
        table: &EmbeddingTable,
        tp: &TablePlacement,
        topology: RankTopology,
    ) -> Result<TableState> {
        if table.rows() != tp.rows || table.dim() != tp.dim {
            return Err(CoreError::InvalidConfig(format!(
                "table {t}: plan places {} x {}, engine got {} x {}",
                tp.rows,
                tp.dim,
                table.rows(),
                table.dim()
            )));
        }
        let row_bytes = tp.dim * 4;
        if !row_bytes.is_multiple_of(8) {
            return Err(CoreError::InvalidConfig(format!(
                "table {t}: dim {} rows are not 8-byte aligned (need an even dim)",
                tp.dim
            )));
        }
        if row_bytes > upmem_sim::arch::DMA_MAX_TRANSFER {
            return Err(CoreError::InvalidConfig(format!(
                "table {t}: {row_bytes}-byte rows exceed one {}-byte DMA (plan partitions \
                 store full rows)",
                upmem_sim::arch::DMA_MAX_TRANSFER
            )));
        }
        let assignment = RowAssignment {
            part_of_row: tp.part_of_row.clone(),
            slot_of_row: tp.slot_of_row.clone(),
            rows_per_part: tp.rows_per_part.clone(),
            part_load: tp.part_load.clone(),
        };
        let replicas = replan::replica_block(&assignment);
        let emt_rows_max =
            replicas.len() + tp.rows_per_part.iter().copied().max().unwrap_or(0) as usize;
        let regions = compute_regions(&RegionSpec {
            replan: false,
            emt_rows_max,
            emt_cap_rows: emt_rows_max,
            emt_row_bytes: config.embed_dtype.stored_row_bytes(tp.dim),
            cache_rows_max: 0,
            cache_cap_rows: 0,
            row_bytes,
            input_reserve_bytes: config.input_reserve_bytes,
            output_bytes: config.batch_size * row_bytes * 2,
        })
        .map_err(capacity_error)?;
        let mut host_store = Vec::with_capacity(tp.host_rows.len() * tp.dim);
        for &r in &tp.host_rows {
            host_store.extend_from_slice(table.row(r)?);
        }
        Ok(TableState {
            tiling: Tiling {
                n_c: tp.dim,
                col_slices: 1,
                row_parts: tp.parts,
                n_r: tp.rows.div_ceil(tp.parts.max(1)),
                est_cost_ns: 0.0,
            },
            assignment,
            cache: None,
            replicas,
            locs: tp
                .dpus
                .iter()
                .map(|&global| {
                    let (rank, local) = topology.locate(global);
                    (rank, DpuId(local as u32))
                })
                .collect(),
            host_store,
            emt_bases: regions.emt_bases,
            cache_bases: regions.cache_bases,
            emt_region_rows: regions.emt_region_rows,
            cache_region_rows: regions.cache_region_rows,
            slots: regions.slots,
            dim: tp.dim,
        })
    }

    /// Loads the EMT tiles and cache regions into MRAM (untimed
    /// pre-processing, as in the paper).
    fn load_table(
        fleet: &mut Fleet,
        table: &EmbeddingTable,
        state: &TableState,
        dtype: EmbedDtype,
    ) -> Result<()> {
        let tiling = &state.tiling;
        let n_c = tiling.n_c;
        let row_bytes = tiling.row_bytes();
        let parts = tiling.row_parts;
        let rc = state.replicas.len();
        // slot -> row per partition.
        let rows_in_part = replan::rows_in_parts(&state.assignment, rc);
        // Entries per partition in slot order.
        let entries_in_part: Vec<Vec<usize>> = match &state.cache {
            Some(c) => entries_in_parts(&c.entry_part, &c.entry_slot, &c.cache_rows_per_part),
            None => vec![Vec::new(); parts],
        };

        for p in 0..parts {
            for c in 0..tiling.col_slices {
                let (rank, dpu) = state.dpu(p, c);
                let sys = fleet.rank_mut(rank)?;
                // EMT tile: the shared replica block (slots 0..rc), then
                // this partition's rows, columns [c*n_c, ...), stored at
                // the configured dtype (each int8 row quantized
                // per-slice with its own scale/min header).
                let emt_row_bytes = dtype.stored_row_bytes(n_c);
                let mut buf = Vec::with_capacity((rc + rows_in_part[p].len()) * emt_row_bytes);
                build_emt_tile(
                    table,
                    dtype,
                    n_c,
                    c,
                    &state.replicas,
                    &rows_in_part[p],
                    &mut buf,
                )?;
                if !buf.is_empty() {
                    sys.load_mram(dpu, state.emt_bases[0], &buf)?;
                }
                // Cache region: this partition's combination rows.
                if let Some(cs) = &state.cache {
                    let mut cbuf = Vec::with_capacity(entries_in_part[p].len() * row_bytes);
                    build_cache_tile(&cs.store, &entries_in_part[p], n_c, c, &mut cbuf);
                    if !cbuf.is_empty() {
                        sys.load_mram(dpu, state.cache_bases[0], &cbuf)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The engine configuration.
    pub fn config(&self) -> &UpdlrmConfig {
        &self.config
    }

    /// The live telemetry recorder (disabled unless the engine was built
    /// with [`UpdlrmConfig::telemetry`](crate::config::UpdlrmConfig) set).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the telemetry recorder, for front-ends (the
    /// open-loop scheduler) that record their own counters alongside
    /// the engine's.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Takes a deterministic, serializable [`Snapshot`] of everything
    /// recorded so far. Allocates; call it outside the serving loop.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// Resets all telemetry counters to zero (arenas stay allocated).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// Number of embedding tables loaded.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Placement summary for table `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn table_report(&self, t: usize) -> TableReport {
        let s = &self.tables[t];
        TableReport {
            tiling: s.tiling,
            part_load: s.assignment.part_load.clone(),
            imbalance: s.assignment.imbalance(),
            cached_lists: s.cache.as_ref().map(|c| c.placed_lists).unwrap_or(0),
            cache_rows_per_part: s
                .cache
                .as_ref()
                .map(|c| c.cache_rows_per_part.clone())
                .unwrap_or_default(),
        }
    }

    /// Runs the embedding layer for one batch: returns the pooled
    /// `batch x dim` embeddings per table and the stage breakdown.
    ///
    /// Uses staging slot 0; [`UpdlrmEngine::serve`](crate::serve)
    /// alternates both slots to double-buffer consecutive batches.
    ///
    /// # Errors
    ///
    /// Malformed batches, out-of-range indices, reference streams
    /// exceeding the input reserve, and simulator faults.
    pub fn run_batch(&mut self, batch: &QueryBatch) -> Result<(Vec<Matrix>, EmbeddingBreakdown)> {
        let routed = self.route_batch(batch, 0)?;
        let mut breakdown = routed.breakdown_seed();
        let scatter = self.scatter_streams(0)?;
        breakdown.stage1_ns = scatter.wall_ns;
        breakdown.energy_pj += scatter.energy_pj;
        let stage2 = self.launch_stage2(routed.batch_size, 0)?;
        stage2.fold_into(&mut breakdown);
        let (pooled, combine_ns, gather) = self.gather_combine(routed.batch_size, 0)?;
        breakdown.stage3_ns = gather.wall_ns;
        breakdown.energy_pj += gather.energy_pj;
        breakdown.combine_ns = combine_ns;
        self.metrics.record_batch(routed.batch_size, &breakdown);
        Ok((pooled, breakdown))
    }

    /// Stage-1 host preprocessing: validates the batch, builds the
    /// per-partition reference streams (padded when `pad_transfers`)
    /// into the engine's [`BatchScratch`], and records host-tier hits
    /// for staging slot `slot`, without touching the PIM array. Only
    /// the returned counters are batch-specific.
    pub(crate) fn route_batch(&mut self, batch: &QueryBatch, slot: usize) -> Result<RoutedBatch> {
        batch.validate()?;
        if batch.sparse.len() != self.tables.len() {
            return Err(CoreError::InvalidConfig(format!(
                "batch has {} sparse groups, engine has {} tables",
                batch.sparse.len(),
                self.tables.len()
            )));
        }
        let b = batch.batch_size();
        let tasklets = self.config.tasklets;
        for state in &self.tables {
            // The kernel's shared WRAM accumulator block must leave room
            // for per-tasklet locals.
            let row_bytes = state.tiling.row_bytes();
            let acc = b * row_bytes;
            if acc + tasklets * 64 > upmem_sim::arch::WRAM_CAPACITY {
                return Err(CoreError::InvalidConfig(format!(
                    "batch {b} x {row_bytes} B rows needs {acc} B of WRAM accumulators (64 KB available)"
                )));
            }
            // Each MRAM staging slot's partial-sum region was sized for
            // `config.batch_size` samples (x2 slack) at construction; a
            // larger batch would silently overflow into the next region.
            let out_cap = self.config.batch_size * 2;
            if b > out_cap {
                return Err(CoreError::InvalidConfig(format!(
                    "batch of {b} samples exceeds the {out_cap} staged output rows per DPU \
                     (engine was built with config.batch_size = {}; raise it)",
                    self.config.batch_size
                )));
            }
        }

        let mut routed = RoutedBatch {
            batch_size: b,
            route_ns: 0.0,
            cache_hits: 0,
            emt_lookups: 0,
        };
        let mut route_refs = 0usize;
        let mut host_hits = 0u64;
        let UpdlrmEngine {
            tables,
            config,
            host_cost,
            scratch,
            metrics,
            drift,
            ..
        } = self;
        let BatchScratch {
            refs,
            streams,
            builder,
            lookup,
            hit,
            host_refs,
            ..
        } = scratch;
        let mut k = 0usize; // stream slot index, table-major then part
        for (t, state) in tables.iter().enumerate() {
            let sparse = &batch.sparse[t];
            let parts = state.tiling.row_parts;
            // The refs arena only ever grows: indexed `p * b + s` for
            // this table, each inner Vec keeps its capacity.
            let need = parts * b;
            if refs.len() < need {
                refs.resize_with(need, Vec::new);
            }
            let refs = &mut refs[..need];
            for v in refs.iter_mut() {
                v.clear();
            }
            let host = &mut host_refs[slot][t];
            host.clear();
            for s in 0..b {
                let sample = sparse.sample(s);
                route_refs += sample.len();
                // Sliding-window profile for the replanner: raw row
                // references, before the cache split, so a replan sees
                // the same frequencies a fresh trace profile would.
                if let Some(d) = drift.as_mut() {
                    let w = &mut d.window[t];
                    for &idx in sample {
                        w.record(idx);
                    }
                }
                // Cached combinations first; the residual rows (or the
                // whole sample without a cache) take the EMT path.
                let emt_path: &[u64] = match &state.cache {
                    Some(cs) => {
                        cs.store.lookup_into(sample, lookup, hit);
                        metrics.record_cache_lookup(sample.len(), hit);
                        routed.cache_hits += hit.entries.len() as u64;
                        for &e in &hit.entries {
                            let p = cs.entry_part[e] as usize;
                            refs[p * b + s].push(CACHE_REF_BIT | cs.entry_slot[e]);
                        }
                        &hit.residual
                    }
                    None => sample,
                };
                for &idx in emt_path {
                    match Self::route_row(state, idx, s)? {
                        RefTarget::Part(p, row_slot) => {
                            routed.emt_lookups += 1;
                            refs[p * b + s].push(row_slot);
                        }
                        RefTarget::Host(host_slot) => {
                            host_hits += 1;
                            host.push((s as u32, host_slot));
                        }
                    }
                }
            }
            for p in 0..parts {
                let stream = &mut streams[k];
                debug_assert_eq!((stream.table, stream.part), (t, p));
                build_stream_into(
                    &refs[p * b..(p + 1) * b],
                    tasklets,
                    config.dedup,
                    builder,
                    &mut stream.bytes,
                );
                if stream.bytes.len() > config.input_reserve_bytes {
                    return Err(CoreError::CapacityExceeded {
                        partition: p,
                        required: stream.bytes.len(),
                        available: config.input_reserve_bytes,
                    });
                }
                k += 1;
            }
        }
        routed.cache_hits += host_hits;
        routed.route_ns =
            route_refs as f64 * config.route_ns_per_ref + host_hits as f64 * host_cost.probe_ns;
        if let Some(d) = drift.as_mut() {
            d.batches_in_window += 1;
        }
        if config.pad_transfers {
            let max_len = streams.iter().map(|s| s.bytes.len()).max().unwrap_or(0);
            for s in streams.iter_mut() {
                s.bytes.resize(max_len, 0);
            }
        }
        Ok(routed)
    }

    /// Stage 1: scatters the routed reference streams (left in
    /// [`BatchScratch`] by [`UpdlrmEngine::route_batch`]) into staging
    /// slot `slot`, rank by rank (each row partition's stream is
    /// broadcast to all of its column slices in a single bus pass), and
    /// combines the per-rank reports. Allocation-free: the broadcast
    /// groups were precomputed at construction.
    pub(crate) fn scatter_streams(&mut self, slot: usize) -> Result<TransferReport> {
        let UpdlrmEngine {
            fleet,
            tables,
            rank_io,
            scratch,
            metrics,
            ..
        } = self;
        scratch.transfers.clear();
        for io in rank_io.iter() {
            let streams = &scratch.streams;
            let report = fleet
                .rank_mut(io.rank)?
                .scatter_broadcast_with(io.streams.iter().map(|(k, ids)| {
                    let s = &streams[*k];
                    (
                        ids.as_slice(),
                        tables[s.table].input_base(slot),
                        s.bytes.as_slice(),
                    )
                }))?;
            scratch.transfers.push(report);
        }
        let report = fleet.combine_transfers(scratch.transfers.iter());
        metrics.record_transfer(true, &report);
        Ok(report)
    }

    /// Stage 2: launches the embedding kernels reading slot `slot`'s
    /// reference streams and writing its partial-sum region, one launch
    /// per `(table, rank)` group. All groups run concurrently; the wall
    /// is the slowest group plus the fleet's per-launch dispatch.
    ///
    /// The kernels are the prebuilt per-(table, slot) instances: only
    /// `n_samples` changes per batch, and the launch reports plus cycle
    /// list are recycled through [`BatchScratch`].
    pub(crate) fn launch_stage2(&mut self, n_samples: usize, slot: usize) -> Result<Stage2Report> {
        let UpdlrmEngine {
            fleet,
            kernels,
            launch_groups,
            scratch,
            metrics,
            ..
        } = self;
        let dpus_per_rank = fleet.topology().dpus_per_rank;
        let mut out = Stage2Report::default();
        scratch.all_cycles.clear();
        let mut g = 0usize;
        for (kset, groups) in kernels.iter_mut().zip(launch_groups.iter()) {
            let kernel = &mut kset[slot];
            for task in kernel.tasks.values_mut() {
                task.n_samples = n_samples as u32;
            }
            for (rank, ids) in groups {
                let report = &mut scratch.launches[g];
                fleet.rank_mut(*rank)?.launch_into(ids, &*kernel, report)?;
                out.energy_pj += report.energy_pj;
                out.dma_transfers += report.total_dma_transfers();
                out.instrs += report.total_instrs();
                for (id, stats) in &report.per_dpu {
                    metrics.record_dpu(rank * dpus_per_rank + id.0 as usize, stats);
                }
                scratch
                    .all_cycles
                    .extend(report.per_dpu.iter().map(|(_, s)| s.cycles.0));
                g += 1;
            }
        }
        out.wall_ns = fleet.combine_launches(scratch.launches[..g].iter()).0;
        let all_cycles = &scratch.all_cycles;
        if !all_cycles.is_empty() {
            let max = *all_cycles.iter().max().expect("nonempty") as f64;
            let mean = all_cycles.iter().sum::<u64>() as f64 / all_cycles.len() as f64;
            out.lookup_imbalance = if mean > 0.0 { max / mean } else { 1.0 };
            metrics.record_launch(out.lookup_imbalance);
        }
        Ok(out)
    }

    /// Stage 3 + host combine: gathers slot `slot`'s partial-sum rows
    /// rank by rank and assembles the pooled `batch x dim` matrices —
    /// host-tier rows first, then the PIM partials in rank order.
    /// Returns the pooled embeddings, the modeled host combine time,
    /// and the combined bus transfer report.
    pub(crate) fn gather_combine(
        &mut self,
        n_samples: usize,
        slot: usize,
    ) -> Result<(Vec<Matrix>, f64, TransferReport)> {
        let b = n_samples;
        let UpdlrmEngine {
            fleet,
            tables,
            host_cost,
            rank_io,
            scratch,
            config,
            metrics,
            ..
        } = self;
        scratch.transfers.clear();
        for (ri, io) in rank_io.iter().enumerate() {
            let requests = &mut scratch.requests[ri];
            requests.clear();
            for &(dpu, t, _) in &io.gathers {
                let state = &tables[t];
                requests.push((dpu, state.output_base(slot), b * state.tiling.row_bytes()));
            }
            let report = fleet
                .rank(io.rank)?
                .gather_into(requests, &mut scratch.gather_bufs[ri])?;
            scratch.transfers.push(report);
        }
        let gather_report = fleet.combine_transfers(scratch.transfers.iter());
        metrics.record_transfer(false, &gather_report);

        // Pooled outputs come from the recycle pool when a returned set
        // has one matrix per table; each matrix is reshaped in place to
        // this batch's size (capacity only grows, so after a set has
        // seen the largest batch the reuse is allocation-free even when
        // batch sizes vary, as the scheduler's partial batches do).
        let mut pooled: Vec<Matrix> = match scratch.matrix_pool.pop() {
            Some(mut set) if set.len() == tables.len() => {
                for (m, s) in set.iter_mut().zip(tables.iter()) {
                    m.reset_zeroed(b, s.dim);
                }
                set
            }
            _ => tables.iter().map(|s| Matrix::zeros(b, s.dim)).collect(),
        };

        // Host tier: add hot rows straight from the host store.
        let mut host_adds = 0u64;
        for (t, state) in tables.iter().enumerate() {
            let dim = state.dim;
            for &(s, host_slot) in &scratch.host_refs[slot][t] {
                let h = host_slot as usize;
                simd::add_assign(
                    pooled[t].row_mut(s as usize),
                    &state.host_store[h * dim..(h + 1) * dim],
                );
                host_adds += dim as u64;
            }
        }

        // PIM partials, rank-major then (table, partition, slice) order.
        let mut pim_adds = 0u64;
        for (ri, io) in rank_io.iter().enumerate() {
            let buf = &scratch.gather_bufs[ri];
            let mut off = 0usize;
            for &(_, t, c) in &io.gathers {
                let state = &tables[t];
                let n_c = state.tiling.n_c;
                let row_bytes = state.tiling.row_bytes();
                for s in 0..b {
                    let row = &buf[off + s * row_bytes..off + (s + 1) * row_bytes];
                    let out = pooled[t].row_mut(s);
                    simd::add_assign_le(&mut out[c * n_c..(c + 1) * n_c], row);
                    pim_adds += n_c as u64;
                }
                off += b * row_bytes;
            }
        }
        let combine_ns = pim_adds as f64 * config.combine_ns_per_add
            + host_adds as f64 * host_cost.combine_ns_per_add;
        Ok((pooled, combine_ns, gather_report))
    }

    /// Returns a pooled-output set for reuse by a later
    /// [`UpdlrmEngine::gather_combine`]. The serving path recycles every
    /// set after handing it to the sink, which is what makes steady-state
    /// serving allocation-free; `run_batch` callers keep theirs.
    pub(crate) fn recycle_pooled(&mut self, set: Vec<Matrix>) {
        if self.scratch.matrix_pool.len() <= STAGING_SLOTS {
            self.scratch.matrix_pool.push(set);
        }
    }

    fn route_row(state: &TableState, idx: u64, sample: usize) -> Result<RefTarget> {
        let r = idx as usize;
        if r >= state.assignment.part_of_row.len() {
            return Err(CoreError::Model(dlrm_model::ModelError::IndexOutOfRange {
                index: idx,
                rows: state.assignment.part_of_row.len(),
            }));
        }
        let p = state.assignment.part_of_row[r];
        let slot = state.assignment.slot_of_row[r];
        if slot == partition::CACHED_ROW_SLOT {
            return Err(CoreError::InvalidConfig(format!(
                "row {idx} is cache-resident but was routed to the EMT path"
            )));
        }
        Ok(match p {
            // Replicated rows live in every partition at the same slot;
            // spread their traffic round-robin by (row, sample).
            partition::REPLICATED_ROW_PART => {
                RefTarget::Part((r + sample) % state.tiling.row_parts, slot)
            }
            partition::HOST_ROW_PART => RefTarget::Host(slot),
            p => RefTarget::Part(p as usize, slot),
        })
    }

    /// Advances the replanner to modeled instant `now_ns`: completes a
    /// migration whose staged scatter has drained (the atomic flip), or
    /// checks the replan policy against the sliding window and begins a
    /// new migration. A no-op unless
    /// [`UpdlrmConfig::replan`](crate::config::UpdlrmConfig) is
    /// enabled. Front-ends call this between batches — the scheduler's
    /// event loop ticks it at every launch instant.
    ///
    /// # Errors
    ///
    /// Simulator faults while scattering the staged tiles. Planning
    /// failures (a placement that no longer fits the staged regions)
    /// are *not* errors: the replan is declined, counted in
    /// [`DriftSnapshot::replans_skipped`](crate::telemetry::DriftSnapshot),
    /// and the window resets.
    pub fn on_tick(&mut self, now_ns: u64) -> Result<()> {
        let Some(drift) = self.drift.as_ref() else {
            return Ok(());
        };
        if let Some(pending) = &drift.pending {
            if now_ns >= pending.done_at_ns {
                self.complete_migration(now_ns);
            }
            return Ok(());
        }
        let due = match self.config.replan {
            ReplanPolicy::Off => false,
            ReplanPolicy::Periodic { every_batches } => drift.batches_in_window >= every_batches,
            ReplanPolicy::Imbalance {
                threshold,
                min_batches,
            } => {
                drift.batches_in_window >= min_batches
                    && self
                        .tables
                        .iter()
                        .zip(drift.window.iter())
                        .map(|(s, w)| replan::window_imbalance(&s.assignment, w))
                        .fold(1.0f64, f64::max)
                        > threshold
            }
        };
        if due {
            self.begin_migration(now_ns)?;
        }
        Ok(())
    }

    /// True while a migration's staged scatter has not yet flipped.
    pub fn migration_in_flight(&self) -> bool {
        self.drift.as_ref().is_some_and(|d| d.pending.is_some())
    }

    /// The telemetry snapshot captured mid-first-migration (after the
    /// staging scatter was charged, before the flip) — the fixed-seed
    /// golden CI byte-compares. `None` until the first migration
    /// begins, or when telemetry is off.
    pub fn drift_snapshot(&self) -> Option<&Snapshot> {
        self.drift.as_ref().and_then(|d| d.first_snapshot.as_ref())
    }

    /// Plans a fresh placement for every table from the sliding window,
    /// scatters the re-partitioned tiles into the inactive MRAM
    /// regions, and charges the modeled migration cost. The flip is
    /// deferred to the modeled instant the scatter completes
    /// ([`UpdlrmEngine::on_tick`]); until then serving continues on the
    /// old placement, whose regions the scatter never touches.
    fn begin_migration(&mut self, now_ns: u64) -> Result<()> {
        // Plan phase (no mutation): any failure — a plan that cannot
        // fit the staged regions, an infeasible cache placement — or a
        // plan identical to the current placement declines the replan.
        let drift = self.drift.as_ref().expect("replanning enabled");
        let mut flips: Vec<TableFlip> = Vec::with_capacity(self.tables.len());
        let mut changed = false;
        let mut feasible = true;
        'plan: for (t, state) in self.tables.iter().enumerate() {
            let profile = &drift.window[t];
            let rows = state.assignment.part_of_row.len();
            let parts = state.tiling.row_parts;
            let flip = match self.config.strategy {
                PartitionStrategy::CacheAware => {
                    let cs = state.cache.as_ref().expect("CA table has cache state");
                    let planned = partition::cache_aware(
                        rows,
                        parts,
                        state.emt_region_rows,
                        state.cache_region_rows,
                        profile,
                        &cs.lists,
                    )
                    .and_then(|ca| {
                        let store =
                            PartialSumCache::materialize(&ca.placed_lists, &self.host_tables[t])?;
                        Ok((ca, store))
                    });
                    let (ca, store) = match planned {
                        Ok(x) => x,
                        Err(_) => {
                            feasible = false;
                            break 'plan;
                        }
                    };
                    let (entry_part, entry_slot) = cache_entry_maps(&ca);
                    let placed = ca.placed_lists.lists.len();
                    TableFlip {
                        assignment: ca.rows,
                        replicas: Vec::new(),
                        cache: Some(CacheFlip {
                            store,
                            entry_part,
                            entry_slot,
                            cache_rows_per_part: ca.cache_rows_per_part,
                            placed_lists: placed,
                        }),
                    }
                }
                strategy => {
                    match replan::plan_rows(
                        strategy,
                        rows,
                        parts,
                        state.emt_region_rows,
                        self.config.replicate_top,
                        profile,
                    ) {
                        Ok((assignment, replicas)) => TableFlip {
                            assignment,
                            replicas,
                            cache: None,
                        },
                        Err(_) => {
                            feasible = false;
                            break 'plan;
                        }
                    }
                }
            };
            changed |= flip.assignment != state.assignment;
            flips.push(flip);
        }

        // The window is consumed by the decision either way.
        {
            let drift = self.drift.as_mut().expect("replanning enabled");
            for w in &mut drift.window {
                *w = FreqProfile::new(w.num_items());
            }
            drift.batches_in_window = 0;
        }
        if !feasible || !changed {
            self.metrics.record_replan_skip();
            return Ok(());
        }

        // Scatter phase: write the staged tiles into the inactive
        // regions (functionally safe — nothing serves from them) and
        // accumulate the modeled cost: one host->MRAM bulk pass over
        // every staged byte, plus the slowest DPU's DMA-engine time
        // absorbing its rows (the `charge_dma_repeat` bulk mirror).
        let inactive = self.active_emt ^ 1;
        let mut total_bytes = 0usize;
        let mut rows_moved = 0u64;
        let mut max_dpu = Cycles(0);
        {
            let UpdlrmEngine {
                fleet,
                tables,
                host_tables,
                config,
                ..
            } = self;
            let cost = &config.cost;
            let dtype = config.embed_dtype;
            for (t, flip) in flips.iter().enumerate() {
                let state = &tables[t];
                let table = &host_tables[t];
                let tiling = &state.tiling;
                let n_c = tiling.n_c;
                let emt_row_bytes = dtype.stored_row_bytes(n_c);
                let row_bytes = tiling.row_bytes();
                let rc = flip.replicas.len();
                let local = replan::rows_in_parts(&flip.assignment, rc);
                let entries = flip.cache.as_ref().map(|cf| {
                    entries_in_parts(&cf.entry_part, &cf.entry_slot, &cf.cache_rows_per_part)
                });
                for p in 0..tiling.row_parts {
                    for c in 0..tiling.col_slices {
                        let (rank, dpu) = state.dpu(p, c);
                        let sys = fleet.rank_mut(rank)?;
                        let n = rc + local[p].len();
                        let mut buf = Vec::with_capacity(n * emt_row_bytes);
                        build_emt_tile(table, dtype, n_c, c, &flip.replicas, &local[p], &mut buf)?;
                        if !buf.is_empty() {
                            sys.load_mram(dpu, state.emt_bases[inactive], &buf)?;
                        }
                        rows_moved += n as u64;
                        total_bytes += buf.len();
                        let cyc = cost.bulk_rows_dma_cycles(emt_row_bytes, n as u64);
                        max_dpu = Cycles(max_dpu.0.max(cyc.0));
                        if let (Some(cf), Some(ep)) = (flip.cache.as_ref(), entries.as_ref()) {
                            let mut cbuf = Vec::with_capacity(ep[p].len() * row_bytes);
                            build_cache_tile(&cf.store, &ep[p], n_c, c, &mut cbuf);
                            if !cbuf.is_empty() {
                                sys.load_mram(dpu, state.cache_bases[inactive], &cbuf)?;
                            }
                            rows_moved += ep[p].len() as u64;
                            total_bytes += cbuf.len();
                            let cyc = cost.bulk_rows_dma_cycles(row_bytes, ep[p].len() as u64);
                            max_dpu = Cycles(max_dpu.0.max(cyc.0));
                        }
                    }
                }
            }
        }
        let cost = &self.config.cost;
        let migration_ns = cost.host_to_mram_ns(total_bytes)
            + cost.host_transfer_base_ns
            + cost.cycles_to_ns(max_dpu);
        let done_at_ns = now_ns.saturating_add(migration_ns.max(0.0).ceil() as u64);
        self.metrics
            .record_replan_begin(rows_moved, total_bytes as u64, migration_ns);
        // The mid-migration golden: counters show the replan charged
        // but not yet flipped.
        let snapshot = {
            let drift = self.drift.as_ref().expect("replanning enabled");
            (self.config.telemetry && drift.first_snapshot.is_none())
                .then(|| self.metrics.snapshot())
        };
        let drift = self.drift.as_mut().expect("replanning enabled");
        drift.pending = Some(PendingMigration {
            done_at_ns,
            tables: flips,
        });
        if let Some(s) = snapshot {
            drift.first_snapshot = Some(s);
        }
        Ok(())
    }

    /// The atomic flip: installs the staged placement — assignments,
    /// replica blocks, cache maps — and repoints every kernel task's
    /// EMT/cache bases at the freshly scattered regions. Between two
    /// batches this is instantaneous in modeled time; the migration's
    /// cost was charged when the scatter was staged.
    fn complete_migration(&mut self, now_ns: u64) {
        let drift = self.drift.as_mut().expect("replanning enabled");
        let pending = drift.pending.take().expect("migration in flight");
        for (state, flip) in self.tables.iter_mut().zip(pending.tables) {
            state.assignment = flip.assignment;
            state.replicas = flip.replicas;
            if let Some(cf) = flip.cache {
                let cs = state.cache.as_mut().expect("CA table has cache state");
                cs.store = cf.store;
                cs.entry_part = cf.entry_part;
                cs.entry_slot = cf.entry_slot;
                cs.cache_rows_per_part = cf.cache_rows_per_part;
                cs.placed_lists = cf.placed_lists;
            }
        }
        self.active_emt ^= 1;
        let active = self.active_emt;
        for (state, kset) in self.tables.iter().zip(self.kernels.iter_mut()) {
            for kernel in kset.iter_mut() {
                for task in kernel.tasks.values_mut() {
                    task.emt_base = state.emt_bases[active];
                    task.cache_base = state.cache_bases[active];
                }
            }
        }
        self.metrics.record_migration_flip(now_ns);
    }

    /// Full DLRM inference for one batch: embedding layer on the PIM
    /// array, dense layers on the (functional) CPU model. Returns CTR
    /// probabilities and the embedding breakdown.
    ///
    /// # Errors
    ///
    /// Propagates [`UpdlrmEngine::run_batch`] and model errors.
    pub fn run_inference(
        &mut self,
        model: &Dlrm,
        batch: &QueryBatch,
    ) -> Result<(Vec<f32>, EmbeddingBreakdown)> {
        let (pooled, breakdown) = self.run_batch(batch)?;
        let out = model.forward_with_pooled(batch, &pooled)?;
        Ok((out, breakdown))
    }
}
