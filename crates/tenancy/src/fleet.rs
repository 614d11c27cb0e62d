//! The multi-tenant fleet: N per-tenant engines, one shared modeled
//! DPU fleet, deterministic arbitration between them.
//!
//! ## Two-phase design
//!
//! Serving runs in two strictly separated phases per
//! [`TenantFleet::run`]:
//!
//! 1. **Formation + execution** (per tenant, in isolation): each
//!    tenant's arrival trace is replayed through its own
//!    [`BatchPolicy`] admission queue exactly as the single-tenant
//!    `scheduler::Scheduler` would — same admission order, same
//!    overload policy, same size/deadline/drain triggers, paced by a
//!    *virtual dedicated-fleet clock* (the instant the tenant's own
//!    engine would free up if it had the whole fleet to itself). Every
//!    formed batch runs through the tenant's engine here, producing
//!    pooled embeddings and a modeled service time.
//! 2. **Arbitration** (across tenants): the formed batches — each a
//!    `(ready_ns, service_ns)` pair — are dispatched onto the shared
//!    single-server fleet timeline under weighted deficit round robin
//!    or FCFS. Completion times (and hence per-request latencies and
//!    SLO verdicts) come from this shared timeline.
//!
//! Because phase 1 never sees the other tenants, a tenant's batch
//! content and pooled embeddings are a pure function of its own spec —
//! *bit-identical* to the same tenant served alone on its own fleet
//! slice, and bit-identical to `scheduler::Scheduler` driving the same
//! engine (the differential tests enforce both). Arbitration can only
//! move completion times, which is exactly the degree of freedom the
//! noisy-neighbor isolation gates measure.
//!
//! ## WDRR accounting
//!
//! Tenant `i` holds a deficit counter. Each round-robin visit while it
//! has a ready batch credits `quantum_ns x weight_i`; the fleet then
//! serves its ready batches while the deficit covers their service
//! time, debiting as it goes. A tenant with no ready batch at the end
//! of its visit forfeits its deficit (no banking credit while idle —
//! a bursty tenant cannot save up fleet time during its quiet phase).
//! With every queue backlogged, long-run fleet shares converge to
//! `weight_i / sum(weights)`; a victim's extra wait behind an
//! adversary is bounded by the in-flight batch plus one adversary
//! quantum, independent of the adversary's backlog depth.
//!
//! All arbitration arithmetic is integer-ns; a fixed seed produces
//! byte-identical [`FleetReport`]s and telemetry snapshots.

use crate::spec::{Arbitration, FleetConfig, TenantSpec};
use dlrm_model::{EmbeddingTable, Matrix, QueryBatch};
use placement::interleaved_offsets;
use scheduler::{assemble_into, service_ns_to_u64, AdmitOutcome, BatchPolicy, SchedReport};
use updlrm_core::engine::EmbeddingBreakdown;
use updlrm_core::telemetry::Snapshot;
use updlrm_core::{
    percentile, BatchServer, CoreError, MetricsRegistry, Result, SchedTrigger, TenantSnapshot,
    UpdlrmConfig, UpdlrmEngine,
};
use workloads::{TraceConfig, Workload, NS_PER_SEC};

/// One formed batch awaiting fleet dispatch: its phase-1 launch
/// instant, integer-ns service time and member range into the lane's
/// flat member-id buffer.
#[derive(Debug, Clone, Copy)]
struct FormedBatch {
    ready_ns: u64,
    service_ns: u64,
    members: (u32, u32),
}

/// Per-tenant serving state: spec, workload, engine, admission queue
/// and all steady-state scratch (preallocated per run; the event loops
/// do not allocate).
#[derive(Debug)]
struct Lane {
    spec: TenantSpec,
    workload: Workload,
    engine: UpdlrmEngine,
    policy: BatchPolicy,
    dpu_offset: usize,
    formed_ids: Vec<u32>,
    batch: QueryBatch,
    batches: Vec<FormedBatch>,
    members: Vec<u32>,
    latencies: Vec<u64>,
    lat_stats: Vec<f64>,
    report: SchedReport,
    last_completion_ns: u64,
    busy_ns: u64,
}

fn blank_report(requests: u64, offered_qps: f64) -> SchedReport {
    SchedReport {
        requests,
        admitted: 0,
        completed: 0,
        shed: 0,
        rejected: 0,
        blocked: 0,
        batches: 0,
        trigger_size: 0,
        trigger_deadline: 0,
        trigger_drain: 0,
        queue_high_water: 0,
        mean_batch_size: 0.0,
        offered_qps,
        achieved_qps: 0.0,
        makespan_ns: 0.0,
        mean_latency_ns: 0.0,
        p50_latency_ns: 0.0,
        p95_latency_ns: 0.0,
        p99_latency_ns: 0.0,
        max_latency_ns: 0.0,
    }
}

impl Lane {
    /// Phase 1: replay this tenant's arrival trace through its
    /// admission queue and engine, recording each formed batch's
    /// launch instant and service time. Mirrors
    /// `scheduler::Scheduler::run` exactly (the differential test
    /// holds them equal), with the engine-busy floor supplied by the
    /// tenant's own virtual clock.
    fn form_and_serve<F>(&mut self, tenant: usize, sink: &mut F) -> Result<()>
    where
        F: FnMut(usize, usize, &[u32], &[Matrix], &EmbeddingBreakdown),
    {
        let n = self.workload.arrivals.times_ns.len();
        if n == 0 {
            return Err(CoreError::InvalidConfig(format!(
                "tenant '{}' has no arrival trace (closed-loop)",
                self.spec.name
            )));
        }
        let cfg = *self.policy.config();
        if cfg.max_batch_size > self.engine.staged_batch_capacity() {
            return Err(CoreError::InvalidConfig(format!(
                "tenant '{}': max_batch {} exceeds the engine's staged capacity {}",
                self.spec.name,
                cfg.max_batch_size,
                self.engine.staged_batch_capacity()
            )));
        }
        if self.batch.sparse.len() != self.workload.config.num_tables {
            self.batch.sparse = vec![Default::default(); self.workload.config.num_tables];
        }
        self.policy.clear();
        self.batches.clear();
        self.batches.reserve(n);
        self.members.clear();
        self.members.reserve(n);
        self.latencies.clear();
        self.latencies.reserve(n);
        self.lat_stats.clear();
        self.lat_stats.reserve(n);
        self.report = blank_report(n as u64, self.workload.arrivals.measured_offered_qps());
        self.last_completion_ns = 0;
        self.busy_ns = 0;

        let mut next = 0usize;
        let mut now = 0u64;
        let mut virt_free = 0u64; // the tenant's dedicated-fleet clock
        let mut seq = 0usize;
        let mut door_blocked = false;
        let mut blocked_counted = 0usize;

        loop {
            if self.policy.is_empty() {
                if next >= n {
                    break;
                }
                now = now.max(self.arrival(next));
                door_blocked = false;
                self.admit(&mut next, &mut door_blocked);
                continue;
            }
            let plan = self
                .policy
                .launch_at(now, virt_free, next >= n)
                .expect("queue is nonempty");
            if !door_blocked && next < n && self.arrival(next) <= plan.at_ns {
                now = now.max(self.arrival(next));
                self.admit(&mut next, &mut door_blocked);
                if door_blocked && next >= blocked_counted {
                    self.report.blocked += 1;
                    blocked_counted = next + 1;
                    self.engine.metrics_mut().record_sched_block();
                }
                continue;
            }
            now = plan.at_ns;
            self.engine.on_tick(now)?;
            let newest = self
                .policy
                .take_batch(&mut self.formed_ids)
                .expect("queue is nonempty");
            let k = self.formed_ids.len();
            if newest > now {
                return Err(CoreError::Invariant(format!(
                    "tenant '{}': batch {seq} launches at {now} ns but contains an \
                     arrival admitted at {newest} ns",
                    self.spec.name
                )));
            }
            let Lane {
                batch,
                formed_ids,
                workload,
                engine,
                ..
            } = &mut *self;
            assemble_into(workload, formed_ids, batch);
            let mut service = 0.0f64;
            engine.serve_stream(std::slice::from_ref(&*batch), |_, pooled, bd| {
                service = bd.total_ns();
                sink(tenant, seq, formed_ids, pooled, bd);
            })?;
            let service_ns = service_ns_to_u64(service);
            virt_free = now.saturating_add(service_ns);
            let start = self.members.len() as u32;
            self.members.extend_from_slice(&self.formed_ids);
            self.batches.push(FormedBatch {
                ready_ns: now,
                service_ns,
                members: (start, self.members.len() as u32),
            });
            self.report.batches += 1;
            match plan.trigger {
                SchedTrigger::Size => self.report.trigger_size += 1,
                SchedTrigger::Deadline => self.report.trigger_deadline += 1,
                SchedTrigger::Drain => self.report.trigger_drain += 1,
            }
            self.engine
                .metrics_mut()
                .record_sched_batch(k, plan.trigger);
            self.report.completed += k as u64;
            seq += 1;
            door_blocked = false;
        }
        Ok(())
    }

    fn arrival(&self, i: usize) -> u64 {
        self.workload.arrivals.times_ns[i]
    }

    /// Admission step, identical to the scheduler's.
    fn admit(&mut self, next: &mut usize, door_blocked: &mut bool) {
        let at = self.arrival(*next);
        let metrics = self.engine.metrics_mut();
        match self.policy.admit(*next as u32, at) {
            AdmitOutcome::Admitted { depth } => {
                self.report.admitted += 1;
                self.report.queue_high_water = self.report.queue_high_water.max(depth as u64);
                metrics.record_sched_admit(depth);
                *next += 1;
            }
            AdmitOutcome::AdmittedAfterShed { depth, .. } => {
                self.report.shed += 1;
                metrics.record_sched_shed();
                self.report.admitted += 1;
                self.report.queue_high_water = self.report.queue_high_water.max(depth as u64);
                metrics.record_sched_admit(depth);
                *next += 1;
            }
            AdmitOutcome::Rejected => {
                self.report.rejected += 1;
                metrics.record_sched_reject();
                *next += 1;
            }
            AdmitOutcome::Blocked => {
                *door_blocked = true;
            }
        }
    }

    /// Phase 3: derived statistics from the shared-timeline latencies.
    fn finalize(&mut self) {
        self.latencies.sort_unstable();
        self.lat_stats
            .extend(self.latencies.iter().map(|&l| l as f64));
        let r = &mut self.report;
        r.makespan_ns = self.last_completion_ns as f64;
        r.achieved_qps = if self.last_completion_ns > 0 {
            r.completed as f64 * NS_PER_SEC / self.last_completion_ns as f64
        } else {
            0.0
        };
        r.mean_batch_size = if r.batches > 0 {
            r.completed as f64 / r.batches as f64
        } else {
            0.0
        };
        if let Some(&max) = self.latencies.last() {
            r.max_latency_ns = max as f64;
            r.mean_latency_ns = self.latencies.iter().map(|&l| l as u128).sum::<u128>() as f64
                / self.latencies.len() as f64;
        }
        r.p50_latency_ns = percentile(&self.lat_stats, 0.50);
        r.p95_latency_ns = percentile(&self.lat_stats, 0.95);
        r.p99_latency_ns = percentile(&self.lat_stats, 0.99);
    }

    fn slo_ns(&self) -> u64 {
        (self.spec.slo_p99_us * 1_000.0).round() as u64
    }
}

/// Per-tenant block of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Arbitration weight.
    pub weight: f64,
    /// p99 SLO in ns (`0` = no SLO).
    pub slo_p99_ns: f64,
    /// Completed requests whose shared-timeline latency exceeded the
    /// SLO (always 0 without an SLO).
    pub slo_violations: u64,
    /// `weight / sum(weights)`.
    pub fleet_share_configured: f64,
    /// This tenant's fraction of total fleet busy time.
    pub fleet_share_achieved: f64,
    /// DPU origin rotation applied to this tenant's partitions.
    pub dpu_offset: usize,
    /// Admission/batching counters and shared-timeline latency stats
    /// (same schema as the single-tenant scheduler report).
    pub sched: SchedReport,
}

/// Aggregate result of one [`TenantFleet::run`]. Fixed seeds and specs
/// produce byte-identical serializations.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FleetReport {
    /// DPUs in the shared fleet.
    pub fleet_dpus: usize,
    /// Arbitration discipline (`"drr"` or `"fcfs"`).
    pub arbitration: String,
    /// Base DRR quantum, ns.
    pub quantum_ns: u64,
    /// Modeled instant the last batch drained, ns.
    pub makespan_ns: f64,
    /// Total fleet busy time across tenants, ns.
    pub total_busy_ns: f64,
    /// `total_busy / makespan` — shared-fleet duty cycle.
    pub fleet_utilization: f64,
    /// Max/mean of per-DPU aggregate kernel cycles across all tenants
    /// with their interleave rotations applied (`0` without telemetry).
    pub fleet_imbalance: f64,
    /// Per-tenant blocks, in spec order.
    pub tenants: Vec<TenantReport>,
}

/// True when every derived f64 statistic in `report` is finite (the
/// `--json` serialization contract).
pub fn fleet_report_is_finite(report: &FleetReport) -> bool {
    [
        report.makespan_ns,
        report.total_busy_ns,
        report.fleet_utilization,
        report.fleet_imbalance,
    ]
    .iter()
    .all(|v| v.is_finite())
        && report.tenants.iter().all(|t| {
            scheduler::report_is_finite(&t.sched)
                && t.fleet_share_configured.is_finite()
                && t.fleet_share_achieved.is_finite()
                && t.slo_p99_ns.is_finite()
        })
}

/// N tenants sharing one modeled DPU fleet. See the module docs for
/// the two-phase serving design.
#[derive(Debug)]
pub struct TenantFleet {
    cfg: FleetConfig,
    lanes: Vec<Lane>,
    metrics: MetricsRegistry,
}

impl TenantFleet {
    /// Builds a fleet of [`UpdlrmEngine`]s, one per spec: each
    /// tenant's catalog is generated from its dataset/seed (integer-
    /// valued rows, so pooled sums are order-exact), its tables
    /// partitioned across all `fleet_dpus` under its own strategy and
    /// dtype.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] on an invalid spec or fleet
    /// config; engine construction errors propagate.
    pub fn from_specs(specs: &[TenantSpec], cfg: FleetConfig) -> Result<Self> {
        let mut parts = Vec::with_capacity(specs.len());
        for spec in specs {
            let dspec = spec.dataset_spec().map_err(CoreError::InvalidConfig)?;
            let mut workload = Workload::generate(
                &dspec,
                TraceConfig {
                    num_tables: spec.num_tables,
                    num_batches: spec.num_batches,
                    seed: spec.seed,
                    ..TraceConfig::default()
                },
            );
            workload.stamp_arrivals(spec.arrival_process());
            let tables: Vec<EmbeddingTable> = (0..spec.num_tables)
                .map(|t| {
                    EmbeddingTable::random_integer_valued(
                        dspec.num_items,
                        spec.dim,
                        3,
                        spec.seed.wrapping_add(t as u64),
                    )
                    .map_err(|e| CoreError::InvalidConfig(format!("tenant '{}': {e}", spec.name)))
                })
                .collect::<Result<_>>()?;
            let config = UpdlrmConfig {
                batch_size: spec.max_batch,
                telemetry: cfg.telemetry,
                embed_dtype: spec.dtype,
                ..UpdlrmConfig::with_dpus(cfg.fleet_dpus, spec.strategy)
            };
            let engine = UpdlrmEngine::from_workload(config, &tables, &workload)?;
            parts.push((spec.clone(), workload, engine));
        }
        Self::with_engines(cfg, parts)
    }

    /// Builds a fleet from pre-constructed engines (one per tenant) —
    /// the escape hatch for plan-built ([`UpdlrmEngine::from_plan`]) or
    /// otherwise custom engines. Each workload must carry an open-loop
    /// arrival trace.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] on empty tenant lists, invalid
    /// specs or an invalid fleet config.
    pub fn with_engines(
        cfg: FleetConfig,
        parts: Vec<(TenantSpec, Workload, UpdlrmEngine)>,
    ) -> Result<Self> {
        cfg.validate().map_err(CoreError::InvalidConfig)?;
        if parts.is_empty() {
            return Err(CoreError::InvalidConfig(
                "a tenant fleet needs at least one tenant".into(),
            ));
        }
        for (spec, _, _) in &parts {
            spec.validate().map_err(CoreError::InvalidConfig)?;
        }
        let offsets = if cfg.interleave {
            interleaved_offsets(parts.len(), cfg.fleet_dpus)
        } else {
            vec![0; parts.len()]
        };
        let metrics = MetricsRegistry::new(cfg.telemetry, cfg.fleet_dpus);
        let lanes = parts
            .into_iter()
            .zip(offsets)
            .map(|((spec, workload, engine), dpu_offset)| {
                let policy = BatchPolicy::new(spec.sched_config())?;
                let requests = workload.arrivals.times_ns.len() as u64;
                let offered = workload.arrivals.measured_offered_qps();
                Ok(Lane {
                    formed_ids: Vec::with_capacity(spec.sched_config().max_batch_size),
                    spec,
                    workload,
                    engine,
                    policy,
                    dpu_offset,
                    batch: QueryBatch::default(),
                    batches: Vec::new(),
                    members: Vec::new(),
                    latencies: Vec::new(),
                    lat_stats: Vec::new(),
                    report: blank_report(requests, offered),
                    last_completion_ns: 0,
                    busy_ns: 0,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(TenantFleet {
            cfg,
            lanes,
            metrics,
        })
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Tenant names, in spec order.
    pub fn tenant_names(&self) -> Vec<&str> {
        self.lanes.iter().map(|l| l.spec.name.as_str()).collect()
    }

    /// The fleet-level telemetry snapshot of the last [`run`](Self::run)
    /// (schema v5: per-tenant breakouts live in `tenants`).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// Borrow a tenant's engine (for per-tenant telemetry).
    pub fn engine_mut(&mut self, tenant: usize) -> &mut UpdlrmEngine {
        &mut self.lanes[tenant].engine
    }

    /// Serves every tenant's trace over the shared fleet.
    /// `sink(tenant, batch_seq, query_ids, pooled, breakdown)` fires
    /// once per formed batch, per tenant, in each tenant's launch
    /// order (tenants are served phase-1 in spec order).
    ///
    /// # Errors
    ///
    /// Spec/engine validation and engine serving errors propagate.
    pub fn run<F>(&mut self, mut sink: F) -> Result<FleetReport>
    where
        F: FnMut(usize, usize, &[u32], &[Matrix], &EmbeddingBreakdown),
    {
        self.metrics.reset();
        for (tenant, lane) in self.lanes.iter_mut().enumerate() {
            lane.form_and_serve(tenant, &mut sink)?;
        }
        self.arbitrate();
        for lane in &mut self.lanes {
            lane.finalize();
        }
        Ok(self.build_report())
    }

    /// Phase 2: dispatch every formed batch onto the shared
    /// single-server fleet timeline. Integer-ns throughout.
    fn arbitrate(&mut self) {
        let nt = self.lanes.len();
        let total: usize = self.lanes.iter().map(|l| l.batches.len()).sum();
        let quantum: Vec<u64> = self
            .lanes
            .iter()
            .map(|l| ((self.cfg.quantum_ns as f64 * l.spec.weight).round() as u64).max(1))
            .collect();
        let mut head = vec![0usize; nt];
        let mut deficit = vec![0u64; nt];
        let mut now = 0u64;
        let mut rr = 0usize;
        let mut done = 0usize;
        while done < total {
            match self.cfg.arbitration {
                Arbitration::Fcfs => {
                    // Earliest-ready batch next; ties go to the lowest
                    // tenant index (strict < keeps the first winner).
                    let mut best: Option<(u64, usize)> = None;
                    for (i, lane) in self.lanes.iter().enumerate() {
                        if let Some(b) = lane.batches.get(head[i]) {
                            if best.is_none_or(|(r, _)| b.ready_ns < r) {
                                best = Some((b.ready_ns, i));
                            }
                        }
                    }
                    let (_, i) = best.expect("done < total implies a pending batch");
                    now = Self::dispatch(&mut self.lanes[i], &mut head[i], now);
                    done += 1;
                }
                Arbitration::Drr => {
                    let mut any_ready = false;
                    let mut min_ready = u64::MAX;
                    for (i, lane) in self.lanes.iter().enumerate() {
                        if let Some(b) = lane.batches.get(head[i]) {
                            min_ready = min_ready.min(b.ready_ns);
                            any_ready |= b.ready_ns <= now;
                        }
                    }
                    if !any_ready {
                        // Idle fleet: jump to the next ready instant.
                        now = now.max(min_ready);
                        continue;
                    }
                    for k in 0..nt {
                        let i = (rr + k) % nt;
                        let lane = &mut self.lanes[i];
                        match lane.batches.get(head[i]) {
                            Some(b) if b.ready_ns <= now => {}
                            _ => continue,
                        }
                        deficit[i] = deficit[i].saturating_add(quantum[i]);
                        while let Some(b) = lane.batches.get(head[i]) {
                            if b.ready_ns > now || deficit[i] < b.service_ns {
                                break;
                            }
                            deficit[i] -= b.service_ns;
                            now = Self::dispatch(lane, &mut head[i], now);
                            done += 1;
                        }
                        // No banking while idle: forfeit leftover credit
                        // unless a ready batch is still waiting on it.
                        let still_ready =
                            lane.batches.get(head[i]).is_some_and(|b| b.ready_ns <= now);
                        if !still_ready {
                            deficit[i] = 0;
                        }
                        rr = (i + 1) % nt;
                        break;
                    }
                }
            }
        }
        for lane in &mut self.lanes {
            debug_assert_eq!(lane.latencies.len(), lane.report.completed as usize);
        }
    }

    /// Serves one batch on the shared timeline; returns the new fleet
    /// clock. Latency = shared completion − original arrival.
    fn dispatch(lane: &mut Lane, head: &mut usize, now: u64) -> u64 {
        let b = lane.batches[*head];
        let start = now.max(b.ready_ns);
        let completion = start.saturating_add(b.service_ns);
        let times = &lane.workload.arrivals.times_ns;
        for &id in &lane.members[b.members.0 as usize..b.members.1 as usize] {
            lane.latencies.push(completion - times[id as usize]);
        }
        lane.busy_ns += b.service_ns;
        lane.last_completion_ns = completion;
        *head += 1;
        completion
    }

    /// Folds the lanes into a [`FleetReport`] and records the
    /// per-tenant telemetry breakout (schema v5).
    fn build_report(&mut self) -> FleetReport {
        let total_w: f64 = self.lanes.iter().map(|l| l.spec.weight).sum();
        let total_busy: u64 = self.lanes.iter().map(|l| l.busy_ns).sum();
        let makespan = self
            .lanes
            .iter()
            .map(|l| l.last_completion_ns)
            .max()
            .unwrap_or(0);
        let mut agg = vec![0u64; self.cfg.fleet_dpus];
        let mut tenants = Vec::with_capacity(self.lanes.len());
        for lane in &mut self.lanes {
            let slo_ns = lane.slo_ns();
            let violations = if slo_ns > 0 {
                lane.latencies.iter().filter(|&&l| l > slo_ns).count() as u64
            } else {
                0
            };
            let share_conf = lane.spec.weight / total_w;
            let share_ach = if total_busy > 0 {
                lane.busy_ns as f64 / total_busy as f64
            } else {
                0.0
            };
            for d in lane.engine.metrics_mut().snapshot().per_dpu {
                agg[(d.dpu as usize + lane.dpu_offset) % self.cfg.fleet_dpus] += d.cycles;
            }
            // Fold the lane engine's stage/traffic/scheduler counters
            // into the fleet registry, rotated to fleet DPU ids, so
            // `--metrics` writes one fleet-wide snapshot next to the
            // per-tenant breakout below.
            self.metrics
                .absorb(lane.engine.metrics_mut(), lane.dpu_offset);
            let r = &lane.report;
            self.metrics.record_tenant(TenantSnapshot {
                name: lane.spec.name.clone(),
                weight: lane.spec.weight,
                admitted: r.admitted,
                shed: r.shed,
                rejected: r.rejected,
                blocked: r.blocked,
                completed: r.completed,
                batches: r.batches,
                slo_p99_ns: slo_ns as f64,
                slo_violations: violations,
                mean_latency_ns: r.mean_latency_ns,
                p50_latency_ns: r.p50_latency_ns,
                p95_latency_ns: r.p95_latency_ns,
                p99_latency_ns: r.p99_latency_ns,
                fleet_share_configured: share_conf,
                fleet_share_achieved: share_ach,
            });
            tenants.push(TenantReport {
                name: lane.spec.name.clone(),
                weight: lane.spec.weight,
                slo_p99_ns: slo_ns as f64,
                slo_violations: violations,
                fleet_share_configured: share_conf,
                fleet_share_achieved: share_ach,
                dpu_offset: lane.dpu_offset,
                sched: lane.report,
            });
        }
        let mean = agg.iter().map(|&c| c as f64).sum::<f64>() / agg.len() as f64;
        let imbalance = if mean > 0.0 {
            agg.iter().map(|&c| c as f64).fold(0.0, f64::max) / mean
        } else {
            0.0
        };
        FleetReport {
            fleet_dpus: self.cfg.fleet_dpus,
            arbitration: self.cfg.arbitration.as_str().to_string(),
            quantum_ns: self.cfg.quantum_ns,
            makespan_ns: makespan as f64,
            total_busy_ns: total_busy as f64,
            fleet_utilization: if makespan > 0 {
                total_busy as f64 / makespan as f64
            } else {
                0.0
            },
            fleet_imbalance: imbalance,
            tenants,
        }
    }
}

/// One fleet size evaluated by [`capacity_sweep`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CapacityPoint {
    /// Fleet size evaluated.
    pub fleet_dpus: usize,
    /// The engines could be built at all at this size (tiny fleets can
    /// have no feasible tile shape for a tenant's tables; such points
    /// report `false` here with empty `tenants` instead of aborting
    /// the sweep).
    pub feasible: bool,
    /// All tenants met their SLOs (and dropped nothing) at this size.
    pub all_slos_met: bool,
    /// Per-tenant verdicts (empty when infeasible).
    pub tenants: Vec<TenantCapacity>,
}

/// Per-tenant verdict at one swept fleet size.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantCapacity {
    /// Tenant name.
    pub name: String,
    /// Shared-timeline p99 at this fleet size, ns.
    pub p99_latency_ns: f64,
    /// The tenant's SLO, ns (`0` = none).
    pub slo_p99_ns: f64,
    /// Requests completed / offered.
    pub completed: u64,
    /// Offered requests.
    pub requests: u64,
    /// Requests shed or rejected under overload.
    pub dropped: u64,
    /// SLO met: p99 within bound and nothing dropped. Vacuously true
    /// without an SLO — a no-SLO tenant is allowed to shed under its
    /// own overload policy without failing the point.
    pub met: bool,
}

/// Answers "how many DPUs do these tenants need at these SLOs?" by
/// running the full two-phase fleet at each candidate size — engines
/// are rebuilt per size, so the existing tiling/partitioning cost
/// model prices every point. Candidates are evaluated in the order
/// given; the report for each carries per-tenant p99s and verdicts.
///
/// # Errors
///
/// Serving errors propagate; a *construction* failure at one size
/// (e.g. no feasible tiling on a tiny fleet) only marks that point
/// infeasible.
pub fn capacity_sweep(
    specs: &[TenantSpec],
    base: &FleetConfig,
    candidates: &[usize],
) -> Result<Vec<CapacityPoint>> {
    let mut points = Vec::with_capacity(candidates.len());
    for &fleet_dpus in candidates {
        let cfg = FleetConfig {
            fleet_dpus,
            ..base.clone()
        };
        let mut fleet = match TenantFleet::from_specs(specs, cfg) {
            Ok(fleet) => fleet,
            Err(CoreError::InvalidConfig(msg)) => return Err(CoreError::InvalidConfig(msg)),
            Err(_) => {
                points.push(CapacityPoint {
                    fleet_dpus,
                    feasible: false,
                    all_slos_met: false,
                    tenants: Vec::new(),
                });
                continue;
            }
        };
        let report = fleet.run(|_, _, _, _, _| {})?;
        let tenants: Vec<TenantCapacity> = report
            .tenants
            .iter()
            .map(|t| {
                let dropped = t.sched.shed + t.sched.rejected;
                let met =
                    t.slo_p99_ns == 0.0 || (dropped == 0 && t.sched.p99_latency_ns <= t.slo_p99_ns);
                TenantCapacity {
                    name: t.name.clone(),
                    p99_latency_ns: t.sched.p99_latency_ns,
                    slo_p99_ns: t.slo_p99_ns,
                    completed: t.sched.completed,
                    requests: t.sched.requests,
                    dropped,
                    met,
                }
            })
            .collect();
        points.push(CapacityPoint {
            fleet_dpus,
            feasible: true,
            all_slos_met: tenants.iter().all(|t| t.met),
            tenants,
        });
    }
    Ok(points)
}
