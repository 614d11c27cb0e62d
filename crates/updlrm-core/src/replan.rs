//! Online re-partitioning under non-stationary traffic (DESIGN.md §4.11).
//!
//! The engine's placement is chosen once, from the profile of the
//! training trace. Under drifting traffic (UPWL v3 hot-set rotation,
//! flash crowds) that placement goes stale: the rows that are hot *now*
//! pile onto whichever partitions the old profile assigned them to, and
//! the stage-2 wall — the slowest DPU — blows up. This module holds the
//! *decision* side of live reconfiguration:
//!
//! * [`ReplanPolicy`] — when to refresh the placement (`off`,
//!   `periodic:N` batches, `imbalance:T[:N]` threshold);
//! * a sliding-window access profile per table, accumulated by
//!   `route_batch` and consumed by
//!   [`UpdlrmEngine::on_tick`](crate::engine::UpdlrmEngine::on_tick);
//! * the pure planning helpers ([`plan_rows`], [`window_imbalance`],
//!   [`rows_in_parts`], [`replica_block`]) that the engine's migration
//!   machinery calls and the property tests below pin down.
//!
//! The *mechanism* — double-buffered MRAM regions, modeled migration
//! cost, the atomic flip — lives in [`crate::engine`].

use crate::error::Result;
use crate::partition::{self, PartitionStrategy, RowAssignment};
use workloads::FreqProfile;

/// When (and whether) the engine refreshes its placement from the
/// sliding-window access profile.
///
/// Parsed from / displayed as the CLI spellings `off`, `periodic:N`
/// and `imbalance:T[:N]` (threshold `T`, minimum window `N` batches,
/// default 8).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ReplanPolicy {
    /// Never replan (the static-placement baseline).
    #[default]
    Off,
    /// Replan every `every_batches` served batches.
    Periodic {
        /// Window length in batches between replans.
        every_batches: u64,
    },
    /// Replan when the window-predicted load imbalance of the current
    /// placement exceeds `threshold` (max-over-mean, 1.0 = perfect),
    /// checked only once `min_batches` batches have accumulated so a
    /// near-empty window cannot trigger on noise.
    Imbalance {
        /// Max-over-mean partition load that triggers a replan.
        threshold: f64,
        /// Minimum window size (batches) before the check applies.
        min_batches: u64,
    },
}

impl ReplanPolicy {
    /// True when this policy can ever trigger a migration (the engine
    /// only reserves the double-buffered MRAM regions in that case).
    pub fn enabled(&self) -> bool {
        !matches!(self, ReplanPolicy::Off)
    }

    /// CLI spelling, the inverse of [`FromStr`](std::str::FromStr).
    pub fn as_string(&self) -> String {
        match self {
            ReplanPolicy::Off => "off".into(),
            ReplanPolicy::Periodic { every_batches } => format!("periodic:{every_batches}"),
            ReplanPolicy::Imbalance {
                threshold,
                min_batches,
            } => format!("imbalance:{threshold}:{min_batches}"),
        }
    }
}

impl std::fmt::Display for ReplanPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.as_string())
    }
}

impl std::str::FromStr for ReplanPolicy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        if s == "off" {
            return Ok(ReplanPolicy::Off);
        }
        if let Some(n) = s.strip_prefix("periodic:") {
            let every_batches: u64 = n
                .parse()
                .map_err(|_| format!("bad periodic window '{n}' (expected a batch count)"))?;
            if every_batches == 0 {
                return Err("periodic window must be >= 1 batch".into());
            }
            return Ok(ReplanPolicy::Periodic { every_batches });
        }
        if let Some(rest) = s.strip_prefix("imbalance:") {
            let (t, n) = match rest.split_once(':') {
                Some((t, n)) => (t, Some(n)),
                None => (rest, None),
            };
            let threshold: f64 = t
                .parse()
                .map_err(|_| format!("bad imbalance threshold '{t}'"))?;
            if !threshold.is_finite() || threshold < 1.0 {
                return Err(format!(
                    "imbalance threshold must be a finite value >= 1.0, got {t}"
                ));
            }
            let min_batches = match n {
                Some(n) => n
                    .parse()
                    .map_err(|_| format!("bad imbalance window '{n}' (expected a batch count)"))?,
                None => 8,
            };
            if min_batches == 0 {
                return Err("imbalance window must be >= 1 batch".into());
            }
            return Ok(ReplanPolicy::Imbalance {
                threshold,
                min_batches,
            });
        }
        Err(format!(
            "unknown replan policy '{s}' (expected 'off', 'periodic:N' or 'imbalance:T[:N]')"
        ))
    }
}

/// Plans a fresh row assignment for one (non-cache-aware) table from a
/// window profile, returning the assignment and the replica block in
/// slot order.
///
/// The `Uniform` strategy is *upgraded* to non-uniform packing: a
/// replan exists precisely because load must follow the profile, and a
/// uniform re-cut would reproduce the contiguous hot block that caused
/// the imbalance. `CacheAware` tables are planned by the engine (the
/// cache-list placement needs the host-resident partial-sum store);
/// this helper rejects them.
///
/// # Errors
///
/// Partitioner errors: zero rows/parts, or a plan that cannot fit
/// `capacity_rows` per partition — the engine treats any error as
/// "decline this replan", deterministically.
pub(crate) fn plan_rows(
    strategy: PartitionStrategy,
    rows: usize,
    parts: usize,
    capacity_rows: usize,
    replicate_top: usize,
    profile: &FreqProfile,
) -> Result<(RowAssignment, Vec<u32>)> {
    let assignment = match strategy {
        PartitionStrategy::Uniform | PartitionStrategy::NonUniform => {
            partition::non_uniform(rows, parts, capacity_rows, profile)?
        }
        PartitionStrategy::Replicated => {
            partition::replicated_non_uniform(rows, parts, capacity_rows, profile, replicate_top)?
        }
        PartitionStrategy::CacheAware => {
            return Err(crate::error::CoreError::InvalidConfig(
                "cache-aware tables are replanned by the engine, not plan_rows".into(),
            ))
        }
    };
    let replicas = replica_block(&assignment);
    Ok((assignment, replicas))
}

/// The replicated rows of `assignment` in replica-slot order (the
/// shared block layout every partition stores at its region start).
pub(crate) fn replica_block(assignment: &RowAssignment) -> Vec<u32> {
    let mut replicas: Vec<(u32, u32)> = assignment
        .part_of_row
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p == partition::REPLICATED_ROW_PART)
        .map(|(r, _)| (assignment.slot_of_row[r], r as u32))
        .collect();
    replicas.sort_unstable();
    replicas.into_iter().map(|(_, r)| r).collect()
}

/// Inverts an assignment into per-partition local-slot order: element
/// `[p][s]` is the row stored at slot `rc + s` of partition `p`'s EMT
/// tile (`rc` = replica-block length). Cached, replicated and host-tier
/// rows are excluded — they live in the cache region, the shared block
/// or host DRAM.
pub(crate) fn rows_in_parts(assignment: &RowAssignment, rc: usize) -> Vec<Vec<u32>> {
    let mut rows_in_part: Vec<Vec<u32>> = assignment
        .rows_per_part
        .iter()
        .map(|&n| vec![0u32; n as usize])
        .collect();
    for (r, (&p, &s)) in assignment
        .part_of_row
        .iter()
        .zip(assignment.slot_of_row.iter())
        .enumerate()
    {
        if p < partition::HOST_ROW_PART && s != partition::CACHED_ROW_SLOT {
            rows_in_part[p as usize][s as usize - rc] = r as u32;
        }
    }
    rows_in_part
}

/// Max-over-mean partition load the *current* assignment would see
/// under the window profile — the quantity
/// [`ReplanPolicy::Imbalance`] thresholds. Replicated rows spread
/// their window mass evenly (matching the engine's round-robin
/// routing); cache-resident rows load the cache, not the EMT, and are
/// excluded.
pub(crate) fn window_imbalance(assignment: &RowAssignment, window: &FreqProfile) -> f64 {
    let parts = assignment.num_parts();
    if parts == 0 {
        return 1.0;
    }
    let mut load = vec![0.0f64; parts];
    let mut spread = 0.0f64;
    for (r, (&p, &s)) in assignment
        .part_of_row
        .iter()
        .zip(assignment.slot_of_row.iter())
        .enumerate()
    {
        let c = window.count(r as u64) as f64;
        if c == 0.0 || s == partition::CACHED_ROW_SLOT {
            continue;
        }
        if p == partition::REPLICATED_ROW_PART {
            spread += c;
            continue;
        }
        load[p as usize] += c;
    }
    let share = spread / parts as f64;
    let mut max = 0.0f64;
    let mut sum = 0.0f64;
    for l in &load {
        let v = l + share;
        max = max.max(v);
        sum += v;
    }
    let mean = sum / parts as f64;
    if mean <= 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{compute_regions, RegionSpec};
    use proptest::prelude::*;

    #[test]
    fn policy_strings_round_trip() {
        for p in [
            ReplanPolicy::Off,
            ReplanPolicy::Periodic { every_batches: 12 },
            ReplanPolicy::Imbalance {
                threshold: 1.5,
                min_batches: 4,
            },
        ] {
            let parsed: ReplanPolicy = p.as_string().parse().expect("round trip");
            assert_eq!(parsed, p);
            assert_eq!(format!("{p}"), p.as_string());
        }
        // The short imbalance form defaults the window to 8 batches.
        assert_eq!(
            "imbalance:2.0".parse::<ReplanPolicy>().unwrap(),
            ReplanPolicy::Imbalance {
                threshold: 2.0,
                min_batches: 8
            }
        );
        for bad in [
            "on",
            "periodic:0",
            "periodic:x",
            "imbalance:0.5",
            "imbalance:nan",
            "imbalance:2.0:0",
        ] {
            assert!(bad.parse::<ReplanPolicy>().is_err(), "{bad} must not parse");
        }
        assert!(!ReplanPolicy::Off.enabled());
        assert!(ReplanPolicy::Periodic { every_batches: 1 }.enabled());
    }

    fn profile_from_counts(counts: &[u32]) -> FreqProfile {
        let mut p = FreqProfile::new(counts.len());
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                p.record(i as u64);
            }
        }
        p
    }

    #[test]
    fn window_imbalance_detects_a_hot_partition() {
        // 4 rows uniform over 2 parts: rows 0-1 on part 0, 2-3 on part 1.
        let profile = profile_from_counts(&[0, 0, 0, 0]);
        let a = partition::uniform(4, 2, 4, &profile).unwrap();
        let balanced = profile_from_counts(&[5, 5, 5, 5]);
        assert!((window_imbalance(&a, &balanced) - 1.0).abs() < 1e-12);
        let skewed = profile_from_counts(&[50, 50, 1, 1]);
        assert!(window_imbalance(&a, &skewed) > 1.9);
        // Empty window is neutral, not a trigger.
        assert_eq!(
            window_imbalance(&a, &profile_from_counts(&[0, 0, 0, 0])),
            1.0
        );
    }

    /// Checks the migration row-placement invariant on one assignment:
    /// every row is placed exactly once — in the shared replica block,
    /// in exactly one partition's local slots (dense, non-overlapping),
    /// or in the cache — and `rows_in_parts` inverts it consistently.
    fn assert_rows_placed_exactly_once(a: &RowAssignment, replicas: &[u32]) {
        let rows = a.part_of_row.len();
        let rc = replicas.len();
        let parts = a.num_parts();
        let mut placed = vec![0u32; rows];
        for (slot, &r) in replicas.iter().enumerate() {
            assert_eq!(a.part_of_row[r as usize], partition::REPLICATED_ROW_PART);
            assert_eq!(a.slot_of_row[r as usize], slot as u32);
            placed[r as usize] += 1;
        }
        let local = rows_in_parts(a, rc);
        assert_eq!(local.len(), parts);
        for (p, rows_p) in local.iter().enumerate() {
            assert_eq!(rows_p.len(), a.rows_per_part[p] as usize);
            for (s, &r) in rows_p.iter().enumerate() {
                assert_eq!(a.part_of_row[r as usize] as usize, p);
                assert_eq!(a.slot_of_row[r as usize] as usize, rc + s);
                placed[r as usize] += 1;
            }
        }
        for (r, &n) in placed.iter().enumerate() {
            let cached = a.slot_of_row[r] == partition::CACHED_ROW_SLOT;
            assert_eq!(
                n,
                u32::from(!cached),
                "row {r} placed {n} times (cached: {cached})"
            );
        }
    }

    proptest! {
        /// Every replan plan places every row exactly once, for all
        /// three replannable strategies, arbitrary shapes and windows.
        #[test]
        fn planned_assignments_place_every_row_exactly_once(
            rows in 1usize..200,
            parts in 1usize..9,
            replicate_top in 0usize..32,
            seed in 0u64..1000,
        ) {
            let mut counts = vec![0u32; rows];
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            for c in counts.iter_mut() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *c = (x >> 33) as u32 % 17;
            }
            let profile = profile_from_counts(&counts);
            let capacity = rows + replicate_top; // always feasible
            for strategy in [
                PartitionStrategy::Uniform,
                PartitionStrategy::NonUniform,
                PartitionStrategy::Replicated,
            ] {
                let (a, replicas) =
                    plan_rows(strategy, rows, parts, capacity, replicate_top, &profile).unwrap();
                if strategy == PartitionStrategy::Replicated {
                    prop_assert_eq!(replicas.len(), replicate_top.min(rows));
                } else {
                    prop_assert!(replicas.is_empty());
                }
                assert_rows_placed_exactly_once(&a, &replicas);
            }
        }

        /// The double-buffered MRAM regions never overlap: the staging
        /// EMT/cache regions (slot B) are disjoint from the serving
        /// regions (slot A) and from every per-batch staging slot, so a
        /// migration scatter can never corrupt what slot A is serving.
        #[test]
        fn migration_regions_are_pairwise_disjoint(
            emt_rows_max in 1usize..5000,
            emt_row_bytes in (0usize..5).prop_map(|i| [8usize, 16, 64, 132, 256][i]),
            cache_rows_max in 0usize..300,
            extra_cache_cap in 0usize..300,
            row_bytes in (0usize..3).prop_map(|i| [8usize, 64, 256][i]),
            input_reserve in (0usize..2).prop_map(|i| [1024usize, 65536][i]),
            output_bytes in (0usize..2).prop_map(|i| [1024usize, 32768][i]),
        ) {
            let cache_cap_rows = cache_rows_max + extra_cache_cap;
            let emt_cap_rows = emt_rows_max * 4;
            let r = compute_regions(&RegionSpec {
                replan: true,
                emt_rows_max,
                emt_cap_rows,
                emt_row_bytes,
                cache_rows_max,
                cache_cap_rows,
                row_bytes,
                input_reserve_bytes: input_reserve,
                output_bytes,
            }).unwrap();
            // The plan capacity never shrinks below the live footprint.
            prop_assert!(r.emt_region_rows >= emt_rows_max);
            prop_assert!(r.cache_region_rows >= cache_rows_max);
            // Both EMT regions are real, distinct regions.
            prop_assert!(r.emt_bases[1] > r.emt_bases[0]);
            let emt_bytes = r.emt_region_rows * emt_row_bytes;
            let cache_bytes = r.cache_region_rows * row_bytes;
            let mut regions = vec![
                (r.emt_bases[0] as usize, emt_bytes, "emt A"),
                (r.emt_bases[1] as usize, emt_bytes, "emt B"),
            ];
            if cache_bytes > 0 {
                prop_assert!(r.cache_bases[1] > r.cache_bases[0]);
                regions.push((r.cache_bases[0] as usize, cache_bytes, "cache A"));
                regions.push((r.cache_bases[1] as usize, cache_bytes, "cache B"));
            }
            for (i, &(input, output)) in r.slots.iter().enumerate() {
                regions.push((input as usize, input_reserve, if i == 0 { "in 0" } else { "in 1" }));
                regions.push((output as usize, output_bytes, if i == 0 { "out 0" } else { "out 1" }));
            }
            for (base, _, name) in &regions {
                prop_assert_eq!(base % 8, 0, "{} base {} unaligned", name, base);
            }
            for i in 0..regions.len() {
                for j in i + 1..regions.len() {
                    let (a, al, an) = regions[i];
                    let (b, bl, bn) = regions[j];
                    let disjoint = a + al <= b || b + bl <= a;
                    prop_assert!(disjoint, "{} [{},{}) overlaps {} [{},{})",
                        an, a, a + al, bn, b, b + bl);
                }
            }
        }

        /// `window_imbalance` is always finite and >= 1 up to float
        /// rounding, on plans produced by the planner itself.
        #[test]
        fn window_imbalance_is_finite_and_at_least_one(
            rows in 1usize..120,
            parts in 1usize..7,
            seed in 0u64..500,
        ) {
            let mut counts = vec![0u32; rows];
            let mut x = seed.wrapping_add(7);
            for c in counts.iter_mut() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *c = (x >> 40) as u32 % 9;
            }
            let profile = profile_from_counts(&counts);
            let (a, _) = plan_rows(
                PartitionStrategy::NonUniform, rows, parts, rows, 0, &profile,
            ).unwrap();
            let imb = window_imbalance(&a, &profile);
            prop_assert!(imb.is_finite());
            prop_assert!(imb >= 1.0 - 1e-9, "imbalance {imb} below 1");
        }
    }
}
