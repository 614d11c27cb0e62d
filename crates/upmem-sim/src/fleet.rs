//! Multi-rank fleet: thousands of DPUs behind per-rank host buses.
//!
//! A single [`PimSystem`] models one UPMEM *rank* — a set of DPUs
//! sharing one host transfer bus, which is why its scatter/gather wall
//! is a single aggregate-bandwidth term. Scaling embedding tables to
//! "millions of users" needs more MRAM than one rank holds, so the
//! [`Fleet`] composes many ranks:
//!
//! * each rank keeps its own [`PimSystem`] (MRAM is lazily grown, so a
//!   fleet of thousands of simulated DPUs does not eagerly commit
//!   terabytes of host memory);
//! * ranks have *independent* data buses — per-rank transfer phases
//!   overlap, so a fleet phase's byte-moving wall is the **max** over
//!   the ranks it touches, not the sum;
//! * the host driver still sets each rank's transfer up serially, which
//!   [`RankCostModel::rank_base_ns`] charges once per rank touched —
//!   the fan-out surcharge that grows as a table spreads across more
//!   ranks (the term the placement planner's tiering trades against);
//! * kernel launches are asynchronous across ranks (max wall) with a
//!   serial per-rank dispatch charge of
//!   [`RankCostModel::rank_launch_ns`].
//!
//! The combine rules live in [`Fleet::combine_transfers`] and
//! [`Fleet::combine_launches`] so callers that drive ranks directly
//! (the embedding engine) and tests agree on one implementation. A
//! one-rank fleet with a zero [`RankCostModel`] costs exactly what its
//! single [`PimSystem`] does.
//! DESIGN.md §4.9 documents the model and its known divergences.

use crate::cost::CostModel;
use crate::error::{Result, SimError};
use crate::host::{PimConfig, PimSystem};
use crate::stats::{LaunchReport, TransferReport};

/// Shape of a multi-rank fleet: `nr_ranks` ranks of `dpus_per_rank`
/// DPUs each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RankTopology {
    /// Number of ranks (independent host buses).
    pub nr_ranks: usize,
    /// DPUs on each rank.
    pub dpus_per_rank: usize,
}

impl RankTopology {
    /// Total DPUs across the fleet.
    pub fn nr_dpus(&self) -> usize {
        self.nr_ranks * self.dpus_per_rank
    }

    /// Splits a fleet-global DPU index into `(rank, rank-local dpu)`.
    pub fn locate(&self, global_dpu: usize) -> (usize, usize) {
        (
            global_dpu / self.dpus_per_rank,
            global_dpu % self.dpus_per_rank,
        )
    }
}

/// Rank-level additions to the [`CostModel`]: what crossing rank
/// boundaries costs on top of each rank's own transfer accounting.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RankCostModel {
    /// Fixed nanoseconds of serial host-driver setup charged once per
    /// rank touched by a transfer phase (scatter or gather).
    pub rank_base_ns: f64,
    /// Fixed nanoseconds of serial dispatch charged once per rank
    /// touched by a launch phase.
    pub rank_launch_ns: f64,
}

impl Default for RankCostModel {
    fn default() -> Self {
        // A per-rank `dpu_push_xfer`/`dpu_launch` driver round trip is
        // the same order as one rank's `host_transfer_base_ns` setup;
        // launches piggyback on an ioctl and are cheaper.
        RankCostModel {
            rank_base_ns: 1_500.0,
            rank_launch_ns: 500.0,
        }
    }
}

/// A multi-rank PIM fleet: `nr_ranks` independent [`PimSystem`]s plus
/// the rank-level cost extension.
#[derive(Debug)]
pub struct Fleet {
    ranks: Vec<PimSystem>,
    topology: RankTopology,
    rank_cost: RankCostModel,
}

impl Fleet {
    /// Builds a fleet of `topology.nr_ranks` identical ranks, each a
    /// [`PimSystem`] of `topology.dpus_per_rank` DPUs configured with
    /// `tasklets`, `cost` and `host_threads` (per rank).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for zero ranks or zero DPUs per
    /// rank; rank construction errors propagate.
    pub fn new(
        topology: RankTopology,
        tasklets: usize,
        cost: CostModel,
        host_threads: usize,
        rank_cost: RankCostModel,
    ) -> Result<Fleet> {
        if topology.nr_ranks == 0 || topology.dpus_per_rank == 0 {
            return Err(SimError::InvalidConfig(format!(
                "fleet topology must be nonzero, got {} ranks x {} DPUs",
                topology.nr_ranks, topology.dpus_per_rank
            )));
        }
        let mut ranks = Vec::with_capacity(topology.nr_ranks);
        for _ in 0..topology.nr_ranks {
            ranks.push(PimSystem::new(
                PimConfig::new(topology.dpus_per_rank, tasklets)
                    .with_cost(cost.clone())
                    .with_host_threads(host_threads),
            )?);
        }
        Ok(Fleet {
            ranks,
            topology,
            rank_cost,
        })
    }

    /// The fleet's shape.
    pub fn topology(&self) -> RankTopology {
        self.topology
    }

    /// The rank-level cost extension.
    pub fn rank_cost(&self) -> &RankCostModel {
        &self.rank_cost
    }

    /// Total DPUs across all ranks.
    pub fn nr_dpus(&self) -> usize {
        self.topology.nr_dpus()
    }

    /// Borrow rank `r`.
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownDpu`]-style range error for an out-of-range
    /// rank index.
    pub fn rank(&self, r: usize) -> Result<&PimSystem> {
        self.ranks.get(r).ok_or_else(|| {
            SimError::InvalidConfig(format!(
                "rank {r} out of range ({} ranks)",
                self.ranks.len()
            ))
        })
    }

    /// Mutably borrow rank `r`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Fleet::rank`].
    pub fn rank_mut(&mut self, r: usize) -> Result<&mut PimSystem> {
        let n = self.ranks.len();
        self.ranks
            .get_mut(r)
            .ok_or_else(|| SimError::InvalidConfig(format!("rank {r} out of range ({n} ranks)")))
    }

    /// Combines per-rank transfer reports of one fleet-wide phase.
    ///
    /// Ranks move bytes in parallel on independent buses (max of the
    /// per-rank walls, each already including its own
    /// `host_transfer_base_ns`); the host driver's serial per-rank setup
    /// adds `rank_base_ns` per rank touched. Byte counts, buffer counts
    /// and energy are sums; `parallel` holds only if every rank's own
    /// transfer was parallel. Empty input is a free no-op phase.
    pub fn combine_transfers<'a>(
        &self,
        reports: impl IntoIterator<Item = &'a TransferReport>,
    ) -> TransferReport {
        let mut out = TransferReport::default();
        let mut ranks_touched = 0usize;
        let mut max_wall = 0.0f64;
        out.parallel = true;
        for r in reports {
            ranks_touched += 1;
            max_wall = max_wall.max(r.wall_ns);
            out.bytes += r.bytes;
            out.buffers += r.buffers;
            out.parallel &= r.parallel;
            out.energy_pj += r.energy_pj;
        }
        if ranks_touched == 0 {
            out.parallel = false;
            return out;
        }
        out.wall_ns = self.rank_cost.rank_base_ns * ranks_touched as f64 + max_wall;
        out
    }

    /// Combines per-rank launch walls of one fleet-wide launch phase:
    /// ranks run concurrently (max wall) after a serial
    /// `rank_launch_ns` dispatch per rank touched. Returns the combined
    /// `(wall_ns, energy_pj)`; per-DPU statistics stay with the
    /// per-rank [`LaunchReport`]s.
    pub fn combine_launches<'a>(
        &self,
        reports: impl IntoIterator<Item = &'a LaunchReport>,
    ) -> (f64, f64) {
        let mut ranks_touched = 0usize;
        let mut max_wall = 0.0f64;
        let mut energy = 0.0f64;
        for r in reports {
            ranks_touched += 1;
            max_wall = max_wall.max(r.wall_ns);
            energy += r.energy_pj;
        }
        if ranks_touched == 0 {
            return (0.0, 0.0);
        }
        (
            self.rank_cost.rank_launch_ns * ranks_touched as f64 + max_wall,
            energy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::DpuId;

    fn small_fleet(ranks: usize, dpus: usize) -> Fleet {
        Fleet::new(
            RankTopology {
                nr_ranks: ranks,
                dpus_per_rank: dpus,
            },
            8,
            CostModel::default(),
            1,
            RankCostModel::default(),
        )
        .unwrap()
    }

    #[test]
    fn topology_locates_global_dpus() {
        let t = RankTopology {
            nr_ranks: 4,
            dpus_per_rank: 64,
        };
        assert_eq!(t.nr_dpus(), 256);
        assert_eq!(t.locate(0), (0, 0));
        assert_eq!(t.locate(63), (0, 63));
        assert_eq!(t.locate(64), (1, 0));
        assert_eq!(t.locate(255), (3, 63));
    }

    #[test]
    fn zero_topology_rejected() {
        for (r, d) in [(0, 8), (8, 0)] {
            assert!(Fleet::new(
                RankTopology {
                    nr_ranks: r,
                    dpus_per_rank: d
                },
                8,
                CostModel::default(),
                1,
                RankCostModel::default(),
            )
            .is_err());
        }
    }

    #[test]
    fn thousands_of_dpus_are_memory_feasible() {
        // 32 ranks x 64 DPUs = 2048 DPUs. Lazy MRAM means construction
        // commits kilobytes, not 128 GB; touching one DPU per rank
        // proves the fleet is functional end to end.
        let mut fleet = small_fleet(32, 64);
        assert_eq!(fleet.nr_dpus(), 2048);
        for r in 0..32 {
            let sys = fleet.rank_mut(r).unwrap();
            sys.load_mram(DpuId(0), 0, &(r as u64).to_le_bytes())
                .unwrap();
        }
        let (bufs, _) = fleet.rank(31).unwrap().gather(&[(DpuId(0), 0, 8)]).unwrap();
        assert_eq!(u64::from_le_bytes(bufs[0][..8].try_into().unwrap()), 31);
        assert!(fleet.rank(32).is_err());
    }

    #[test]
    fn transfer_combine_is_max_plus_per_rank_setup() {
        let fleet = small_fleet(2, 4);
        let a = TransferReport {
            wall_ns: 10_000.0,
            bytes: 4096,
            buffers: 4,
            parallel: true,
            energy_pj: 100.0,
        };
        let b = TransferReport {
            wall_ns: 30_000.0,
            bytes: 8192,
            buffers: 2,
            parallel: false,
            energy_pj: 50.0,
        };
        let c = fleet.combine_transfers([&a, &b]);
        let base = fleet.rank_cost().rank_base_ns;
        assert_eq!(c.wall_ns, 2.0 * base + 30_000.0);
        assert_eq!(c.bytes, 12_288);
        assert_eq!(c.buffers, 6);
        assert!(!c.parallel, "any ragged rank marks the phase ragged");
        assert_eq!(c.energy_pj, 150.0);

        // One rank: its wall plus one setup charge.
        let one = fleet.combine_transfers([&a]);
        assert_eq!(one.wall_ns, base + 10_000.0);
        assert!(one.parallel);

        // No ranks touched: free phase.
        let none = fleet.combine_transfers([]);
        assert_eq!(none.wall_ns, 0.0);
        assert_eq!(none.bytes, 0);
    }

    #[test]
    fn launch_combine_is_max_plus_dispatch() {
        let fleet = small_fleet(3, 2);
        let a = LaunchReport {
            wall_ns: 5_000.0,
            energy_pj: 10.0,
            ..Default::default()
        };
        let b = LaunchReport {
            wall_ns: 7_000.0,
            energy_pj: 20.0,
            ..Default::default()
        };
        let (wall, energy) = fleet.combine_launches([&a, &b]);
        assert_eq!(wall, 2.0 * fleet.rank_cost().rank_launch_ns + 7_000.0);
        assert_eq!(energy, 30.0);
        assert_eq!(fleet.combine_launches([]), (0.0, 0.0));
    }

    #[test]
    fn rank_fanout_surcharge_grows_with_ranks_touched() {
        // The planner's core trade-off: the same bytes spread across
        // more ranks cost more setup even though the byte-moving wall
        // (a max) stays flat. This is what tiering buys back.
        let fleet = small_fleet(8, 4);
        let per_rank = TransferReport {
            wall_ns: 4_000.0,
            bytes: 1024,
            buffers: 1,
            parallel: true,
            energy_pj: 1.0,
        };
        let touch2 = fleet.combine_transfers(std::iter::repeat_n(&per_rank, 2));
        let touch8 = fleet.combine_transfers(std::iter::repeat_n(&per_rank, 8));
        assert!(touch8.wall_ns > touch2.wall_ns);
        assert_eq!(
            touch8.wall_ns - touch2.wall_ns,
            6.0 * fleet.rank_cost().rank_base_ns
        );
    }

    #[test]
    fn rank_cost_model_serde_round_trip() {
        let m = RankCostModel {
            rank_base_ns: 123.5,
            rank_launch_ns: 7.25,
        };
        let json = serde::json::to_string(&m);
        let back: RankCostModel = serde::json::from_str(&json).unwrap();
        assert_eq!(back, m);
        let t = RankTopology {
            nr_ranks: 16,
            dpus_per_rank: 128,
        };
        let back: RankTopology = serde::json::from_str(&serde::json::to_string(&t)).unwrap();
        assert_eq!(back, t);
    }
}
