//! `updlrm` — command-line driver for the reproduction.
//!
//! ```text
//! updlrm run   [--dataset read] [--backend updlrm|cpu|hybrid|fae|hetero]
//!              [--strategy u|nu|ca|nur] [--dpus 256] [--nc auto|2|4|8]
//!              [--scale 200] [--batches 10] [--seed 7] [--host-threads N]
//!              [--embed-dtype f32|int8] [--tables FILE]
//!              [--pipeline sequential|doublebuf] [--queue-depth N]
//!              [--plan FILE] [--iters 1] [--warmup 0] [--json FILE]
//!              [--metrics FILE]
//! updlrm pack  --out FILE [--dataset read] [--scale 200] [--seed 7]
//! updlrm plan  --out FILE [--dataset read] [--scale 200] [--tables 8]
//!              [--batches 10] [--seed 7] [--ranks 4] [--dpus-per-rank 64]
//!              [--emt-kb N] [--host-kb N] [--replicate-top 64]
//! updlrm plan  --load FILE
//! updlrm serve --qps N [--arrival poisson|bursty] [--max-batch 64]
//!              [--max-wait-us 200] [--policy block|shed-oldest|reject-new]
//!              [--queue-cap N] [--runtime modeled|wall] [--shards N]
//!              [--time-scale X] [--deterministic] [--dataset read]
//!              [--strategy u|nu|ca|nur] [--dpus 256] [--scale 200]
//!              [--batches 10] [--seed 7] [--host-threads N]
//!              [--workload-v3 FILE] [--replan off|periodic:N|imbalance:T[:N]]
//!              [--drift-snapshot FILE] [--json FILE] [--metrics FILE]
//! updlrm serve --tenants FILE.toml [--no-isolation] [--quantum-us N]
//!              [--dpus N] [--json FILE] [--metrics FILE]
//! updlrm capacity --tenants FILE.toml [--min-dpus 8] [--max-dpus 256]
//!              [--json FILE]
//! updlrm stats --metrics FILE
//! updlrm trace [--dataset movie] [--scale 200] [--batches 10]
//!              [--arrival poisson|bursty --qps N]
//!              [--rotate SETS:ROWS:PERIOD_US:HOT]
//!              [--spike START_US:DUR_US:SET:EXTRA:BOOST]
//!              [--diurnal PERIOD_US:AMPLITUDE] --out trace.upwl
//! updlrm info  [--dataset read]
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use updlrm::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage:\n  updlrm run   [--dataset TAG] [--backend updlrm|cpu|hybrid|fae|hetero] \
         [--strategy u|nu|ca|nur] [--dpus N] [--nc auto|2|4|8] [--scale N] [--batches N] [--seed N] \
         [--host-threads N] [--embed-dtype f32|int8] [--tables FILE] \
         [--pipeline sequential|doublebuf] [--queue-depth N] \
         [--plan FILE] [--iters N] [--warmup N] [--json FILE] [--metrics FILE]\n  \
         updlrm pack  --out FILE [--dataset TAG] [--scale N] [--seed N]\n  \
         updlrm plan  --out FILE [--dataset TAG] [--scale N] [--tables N] [--batches N] [--seed N] \
         [--ranks N] [--dpus-per-rank N] [--emt-kb N] [--host-kb N] [--replicate-top N]\n  \
         updlrm plan  --load FILE\n  \
         updlrm serve --qps N [--arrival poisson|bursty] [--max-batch N] [--max-wait-us N] \
         [--policy block|shed-oldest|reject-new] [--queue-cap N] \
         [--runtime modeled|wall] [--shards N] [--time-scale X] [--deterministic] \
         [--dataset TAG] [--strategy u|nu|ca|nur] [--dpus N] [--scale N] [--batches N] [--seed N] \
         [--host-threads N] [--workload-v3 FILE] [--replan off|periodic:N|imbalance:T[:N]] \
         [--drift-snapshot FILE] [--json FILE] [--metrics FILE]\n  \
         updlrm serve --tenants FILE.toml [--no-isolation] [--quantum-us N] [--dpus N] \
         [--json FILE] [--metrics FILE]\n  \
         updlrm capacity --tenants FILE.toml [--min-dpus N] [--max-dpus N] [--json FILE]\n  \
         updlrm stats --metrics FILE\n  \
         updlrm trace [--dataset TAG] [--scale N] [--batches N] [--seed N] \
         [--arrival poisson|bursty --qps N] [--rotate SETS:ROWS:PERIOD_US:HOT] \
         [--spike START_US:DUR_US:SET:EXTRA:BOOST] [--diurnal PERIOD_US:AMPLITUDE] --out FILE\n  \
         updlrm info  [--dataset TAG]\n\nTAG: clo home meta1 meta2 read read2 movie twitch"
    );
    std::process::exit(2)
}

struct Args {
    flags: HashMap<String, String>,
}

/// Flags that take no value (presence alone turns them on).
const BARE_FLAGS: &[&str] = &["deterministic", "no-isolation"];

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut flags = HashMap::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if BARE_FLAGS.contains(&name) {
                    flags.insert(name.to_string(), "true".to_string());
                } else {
                    match it.next() {
                        Some(v) => {
                            flags.insert(name.to_string(), v.clone());
                        }
                        None => usage(),
                    }
                }
            } else {
                usage();
            }
        }
        Args { flags }
    }

    fn flag_set(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn str(&self, name: &str, default: &str) -> String {
        self.flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    fn num(&self, name: &str, default: usize) -> usize {
        match self.flags.get(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("--{name} expects a number, got '{v}'");
                std::process::exit(2)
            }),
        }
    }

    /// A required flag that must parse as a finite, strictly positive
    /// float (rates, i.e. `--qps`).
    fn positive_float(&self, name: &str) -> f64 {
        let Some(v) = self.flags.get(name) else {
            eprintln!("--{name} is required");
            usage()
        };
        match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x > 0.0 => x,
            _ => {
                eprintln!("--{name} expects a positive number, got '{v}'");
                std::process::exit(2)
            }
        }
    }
}

/// Builds the arrival process for `serve` / `trace --arrival` from
/// `--arrival` (default poisson) and the already-parsed `--qps`.
fn arrival_or_exit(args: &Args, qps: f64) -> ArrivalProcess {
    let seed = args.num("seed", 7) as u64;
    match args.str("arrival", "poisson").as_str() {
        "poisson" => ArrivalProcess::poisson(qps, seed),
        "bursty" => ArrivalProcess::bursty(qps, seed),
        other => {
            eprintln!("unknown arrival process '{other}' (want poisson or bursty)");
            usage()
        }
    }
}

fn spec_or_exit(args: &Args) -> DatasetSpec {
    let tag = args.str("dataset", "read");
    match DatasetSpec::by_short_tag(&tag) {
        Some(s) => s,
        None => {
            eprintln!("unknown dataset '{tag}'");
            usage()
        }
    }
}

fn build_setting(
    args: &Args,
) -> Result<(DatasetSpec, Workload, Arc<Dlrm>), Box<dyn std::error::Error>> {
    let spec = spec_or_exit(args).scaled_down(args.num("scale", 200));
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_batches: args.num("batches", 10),
            seed: args.num("seed", 7) as u64,
            ..TraceConfig::default()
        },
    );
    let model = Arc::new(Dlrm::new(DlrmConfig {
        num_dense: 13,
        embedding_dim: 32,
        table_rows: vec![spec.num_items; 8],
        bottom_hidden: vec![64],
        top_hidden: vec![64, 16],
        seed: args.num("seed", 7) as u64,
    })?);
    Ok((spec, workload, model))
}

/// Measured (host wall-clock, not modeled) timing section of the
/// `--json` report — filled in when `--iters`/`--warmup` request a
/// steady-state measurement.
#[derive(serde::Serialize)]
struct MeasuredJson {
    /// Timed passes over the batch stream.
    iters: usize,
    /// Untimed warm-up passes before measurement (the arenas and
    /// staging-slot kernels reach their high-water marks here).
    warmup: usize,
    /// Mean host wall-clock per pass (ns).
    host_wall_ns_mean: f64,
    /// Mean host wall-clock per served sample (ns).
    host_ns_per_sample: f64,
}

/// Per-stage breakdown section of the `--json` report — the JSON mirror
/// of the text output's "PIM stages" line, so the JSON report is a
/// superset of what the terminal prints (present for every PIM-backed
/// run, with or without `--iters`).
#[derive(serde::Serialize)]
struct StagesJson {
    /// Mean stage-1 (CPU→MRAM scatter) time per batch, microseconds.
    stage1_us: f64,
    /// Mean stage-2 (DPU kernel) time per batch, microseconds.
    stage2_us: f64,
    /// Mean stage-3 (MRAM→CPU gather) time per batch, microseconds.
    stage3_us: f64,
    /// Mean host routing time per batch, microseconds.
    route_us: f64,
    /// Mean host combine time per batch, microseconds.
    combine_us: f64,
    /// Stage 1's share of the embedding wall, percent.
    stage1_pct: f64,
    /// Stage 2's share of the embedding wall, percent.
    stage2_pct: f64,
    /// Stage 3's share of the embedding wall, percent.
    stage3_pct: f64,
    /// Slowest-over-mean DPU lookup cycles (1.0 = balanced).
    lookup_imbalance: f64,
    /// Wall that inter-batch pipelining saves (or would save), percent.
    pipelining_savings_pct: f64,
}

impl StagesJson {
    /// Builds the section from an accumulated breakdown over `n`
    /// batches and the stream's pipelining estimate.
    fn from_totals(pim: &EmbeddingBreakdown, n: f64, pr: &PipelineReport) -> StagesJson {
        // An empty batch stream must serialize finite zeros, never
        // 0/0 = NaN (the vendored serde would emit a "NaN" string that
        // no typed parse accepts).
        let n = n.max(1.0);
        let t = pim.total_ns();
        StagesJson {
            stage1_us: pim.stage1_ns / n / 1e3,
            stage2_us: pim.stage2_ns / n / 1e3,
            stage3_us: pim.stage3_ns / n / 1e3,
            route_us: pim.route_ns / n / 1e3,
            combine_us: pim.combine_ns / n / 1e3,
            stage1_pct: if t > 0.0 {
                100.0 * pim.stage1_ns / t
            } else {
                0.0
            },
            stage2_pct: if t > 0.0 {
                100.0 * pim.stage2_ns / t
            } else {
                0.0
            },
            stage3_pct: if t > 0.0 {
                100.0 * pim.stage3_ns / t
            } else {
                0.0
            },
            lookup_imbalance: pim.lookup_imbalance,
            pipelining_savings_pct: (1.0 - 1.0 / pr.speedup()) * 100.0,
        }
    }
}

/// Serve-schedule section of the `--json` report.
#[derive(serde::Serialize)]
struct ServeJson {
    mode: String,
    queue_depth: usize,
    wall_ns: f64,
    throughput_qps: f64,
    p50_latency_ns: f64,
    p95_latency_ns: f64,
    p99_latency_ns: f64,
    speedup_vs_sequential: f64,
}

/// Machine-readable mirror of a `run` invocation (`--json FILE`).
#[derive(serde::Serialize)]
struct RunJson {
    backend: String,
    dataset: String,
    strategy: String,
    dpus: usize,
    batches: usize,
    host_threads: usize,
    pipeline: String,
    queue_depth: usize,
    mean_embedding_us: f64,
    mean_dense_us: f64,
    mean_total_us: f64,
    stages: Option<StagesJson>,
    serve: Option<ServeJson>,
    measured: Option<MeasuredJson>,
}

fn write_json(args: &Args, report: &RunJson) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = args.flags.get("json") {
        std::fs::write(path, serde::json::to_string_pretty(report))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn write_metrics(path: &str, snapshot: &Snapshot) -> Result<(), Box<dyn std::error::Error>> {
    let mut text = serde::json::to_string_pretty(snapshot);
    text.push('\n');
    std::fs::write(path, text)?;
    println!("wrote {path}");
    Ok(())
}

fn strategy_or_exit(args: &Args) -> PartitionStrategy {
    match args.str("strategy", "ca").as_str() {
        "u" => PartitionStrategy::Uniform,
        "nu" => PartitionStrategy::NonUniform,
        "ca" => PartitionStrategy::CacheAware,
        "nur" => PartitionStrategy::Replicated,
        other => {
            eprintln!("unknown strategy '{other}'");
            usage()
        }
    }
}

/// Reads and validates a placement plan, refusing foreign schema
/// versions with exit 2 before any field-level decoding (the same
/// contract `stats` applies to metrics snapshots).
fn load_plan_or_exit(path: &str) -> PlacementPlan {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read placement plan {path}: {e}");
            std::process::exit(2)
        }
    };
    match PlacementPlan::from_json(&text) {
        Ok(p) => p,
        Err(PlanError::SchemaVersion { found, expected }) => {
            eprintln!(
                "placement plan {path} has schema v{found}, but this binary reads v{expected}; \
                 regenerate it with `updlrm plan --out {path}`",
            );
            std::process::exit(2)
        }
        Err(e) => {
            eprintln!("invalid placement plan {path}: {e}");
            std::process::exit(2)
        }
    }
}

fn print_plan_summary(path: &str, plan: &PlacementPlan) {
    let host: usize = plan.tables.iter().map(|t| t.host_rows.len()).sum();
    let rep: usize = plan.tables.iter().map(|t| t.replicated_rows.len()).sum();
    let total = plan.total_rows();
    let parts: usize = plan.tables.iter().map(|t| t.parts).sum();
    println!(
        "placement plan {path} (schema v{}, planner seed {})",
        plan.schema_version, plan.config.seed,
    );
    println!(
        "  fleet: {} ranks x {} DPUs, {} DPUs used across {} cold partitions",
        plan.config.topology.nr_ranks, plan.config.topology.dpus_per_rank, plan.dpus_used, parts,
    );
    println!(
        "  tiers: {} host / {} replicated / {} cold of {} rows over {} tables",
        host,
        rep,
        total - host - rep,
        total,
        plan.tables.len(),
    );
    println!(
        "  estimate: tiered {:.1} us vs pure-MRAM {:.1} us per batch ({:.2}x), \
         {} of {} ranks touched",
        plan.est.tiered_batch_ns / 1e3,
        plan.est.mram_batch_ns / 1e3,
        plan.est.mram_batch_ns / plan.est.tiered_batch_ns.max(f64::MIN_POSITIVE),
        plan.est.ranks_touched,
        plan.config.topology.nr_ranks,
    );
    println!(
        "  rank balance: bound {:.1}, capacity binding {}",
        plan.balance_bound, plan.rank_capacity_binding,
    );
}

/// Parses `--embed-dtype` (default f32) into the EMT storage dtype.
fn embed_dtype_or_exit(args: &Args) -> EmbedDtype {
    let v = args.str("embed-dtype", "f32");
    match EmbedDtype::parse(&v) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2)
        }
    }
}

/// Opens a packed table file, refusing foreign formats/versions and
/// corrupt payloads with exit 2 before any row is consumed (the same
/// contract `plan --load` and `stats` apply to their inputs).
fn load_packed_or_exit(path: &str) -> PackedTables {
    match PackedTables::open(path) {
        Ok(p) => p,
        Err(PackError::UnsupportedVersion(found)) => {
            eprintln!(
                "packed tables {path} use format v{found}, but this binary reads v1; \
                 regenerate them with `updlrm pack --out {path}`",
            );
            std::process::exit(2)
        }
        Err(e) => {
            eprintln!("invalid packed tables {path}: {e}");
            std::process::exit(2)
        }
    }
}

/// `updlrm pack`: write the deterministic embedding tables for a
/// dataset/scale/seed to the page-aligned on-disk format, so later
/// `run --tables FILE` invocations mmap them instead of regenerating.
/// Rows are always stored as f32 — int8 quantization happens at engine
/// load, so one packed file serves both `--embed-dtype` modes.
fn cmd_pack(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let Some(out) = args.flags.get("out") else {
        eprintln!("pack needs --out FILE");
        usage()
    };
    let (spec, _, model) = build_setting(args)?;
    save_packed(model.tables(), out)?;
    let bytes: usize = model.tables().iter().map(|t| t.rows() * t.dim() * 4).sum();
    println!(
        "packed {} tables ({} rows x {} dims, {:.1} MB) for {} to {out}",
        model.tables().len(),
        spec.num_items,
        model.tables()[0].dim(),
        bytes as f64 / 1e6,
        spec.name,
    );
    Ok(())
}

fn cmd_plan(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = args.flags.get("load") {
        let plan = load_plan_or_exit(path);
        print_plan_summary(path, &plan);
        return Ok(());
    }
    let Some(out) = args.flags.get("out") else {
        eprintln!("plan needs --out FILE (write a new plan) or --load FILE (inspect one)");
        usage()
    };
    let scale = args.num("scale", 200);
    let spec = spec_or_exit(args).scaled_down(scale);
    let num_tables = args.num("tables", 8);
    let num_batches = args.num("batches", 10);
    let seed = args.num("seed", 7) as u64;
    let dim = 32;
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables,
            num_batches,
            seed,
            ..TraceConfig::default()
        },
    );
    let profiles: Vec<FreqProfile> = (0..num_tables)
        .map(|t| FreqProfile::from_inputs(spec.num_items, workload.table_inputs(t)))
        .collect();
    let catalog = Catalog::homogeneous(num_tables, spec.num_items, dim);
    let defaults = PlannerConfig::default();
    let config = PlannerConfig {
        topology: RankTopology {
            nr_ranks: args.num("ranks", defaults.topology.nr_ranks),
            dpus_per_rank: args.num("dpus-per-rank", defaults.topology.dpus_per_rank),
        },
        emt_capacity_bytes: args.num("emt-kb", defaults.emt_capacity_bytes / 1024) * 1024,
        host_cache_bytes: args.num("host-kb", defaults.host_cache_bytes / 1024) * 1024,
        replicate_top: args.num("replicate-top", defaults.replicate_top),
        seed,
        ..defaults
    };
    let mut plan = plan_placement(&catalog, &profiles, &config)?;
    plan.provenance = PlanProvenance {
        scale: scale as u64,
        tables: num_tables,
        batches: num_batches,
        seed,
        dim,
    };
    std::fs::write(out, plan.to_json())?;
    println!("wrote {out}");
    print_plan_summary(out, &plan);
    Ok(())
}

/// The `run --plan FILE` path: rebuild the plan's workload from its
/// provenance (plus the `--dataset` flag) and serve the trace through
/// an engine lowered from the plan.
fn cmd_run_plan(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let backend_name = args.str("backend", "updlrm");
    if backend_name != "updlrm" {
        eprintln!("--plan requires --backend updlrm (got '{backend_name}')");
        std::process::exit(2)
    }
    if args.flag_set("embed-dtype") || args.flag_set("tables") {
        // `run --plan` rebuilds f32 tables from the plan's provenance;
        // refusing here beats silently ignoring the flags.
        eprintln!("--embed-dtype / --tables do not apply to `run --plan`");
        std::process::exit(2)
    }
    let path = args.flags.get("plan").expect("cmd_run checked --plan");
    let plan = load_plan_or_exit(path);
    let prov = plan.provenance.clone();
    let spec = spec_or_exit(args).scaled_down(prov.scale as usize);
    let workload = Workload::generate(
        &spec,
        TraceConfig {
            num_tables: prov.tables,
            num_batches: prov.batches,
            seed: prov.seed,
            ..TraceConfig::default()
        },
    );
    let model = Dlrm::new(DlrmConfig {
        num_dense: 13,
        embedding_dim: prov.dim,
        table_rows: vec![spec.num_items; prov.tables],
        bottom_hidden: vec![64],
        top_hidden: vec![64, 16],
        seed: prov.seed,
    })?;
    let mut config = UpdlrmConfig {
        batch_size: workload.config.batch_size,
        ..UpdlrmConfig::default()
    };
    config.host_threads = args.num("host-threads", config.host_threads);
    let metrics_path = args.flags.get("metrics").cloned();
    config.telemetry = metrics_path.is_some();
    let iters = args.num("iters", 1);
    let warmup = args.num("warmup", 0);
    if iters == 0 {
        eprintln!("--iters must be >= 1 (0 measures nothing)");
        std::process::exit(2)
    }
    let print_measured = args.flags.contains_key("iters") || args.flags.contains_key("warmup");
    let mut engine = UpdlrmEngine::from_plan(config.clone(), &plan, model.tables())?;

    let host: usize = plan.tables.iter().map(|t| t.host_rows.len()).sum();
    let rep: usize = plan.tables.iter().map(|t| t.replicated_rows.len()).sum();
    println!(
        "UpDLRM (tiered plan) on {} ({} items/table, {} batches of {})",
        spec.name,
        spec.num_items,
        workload.batches.len(),
        workload.config.batch_size,
    );
    println!(
        "  plan {path}: {} ranks x {} DPUs ({} used), {} host / {} replicated / {} cold rows",
        plan.config.topology.nr_ranks,
        plan.config.topology.dpus_per_rank,
        plan.dpus_used,
        host,
        rep,
        plan.total_rows() - host - rep,
    );

    for _ in 0..warmup {
        engine.serve_stream(&workload.batches, |_, _, _| {})?;
    }
    let mut breakdowns: Vec<EmbeddingBreakdown> = Vec::new();
    let t0 = std::time::Instant::now();
    for pass in 0..iters {
        engine.serve_stream(&workload.batches, |_, _, bd| {
            if pass == 0 {
                breakdowns.push(*bd);
            }
        })?;
    }
    let host_wall_ns_mean = t0.elapsed().as_nanos() as f64 / iters as f64;
    let samples: usize = workload.batches.iter().map(|b| b.batch_size()).sum();

    let mut pim_total = EmbeddingBreakdown::default();
    for bd in &breakdowns {
        pim_total.accumulate(bd);
    }
    let n = (breakdowns.len() as f64).max(1.0);
    println!("per-batch mean:");
    println!("  embedding: {:10.1} us", pim_total.total_ns() / n / 1e3);
    let lookups = pim_total.cache_hits + pim_total.emt_lookups;
    if lookups > 0 {
        println!(
            "  tier routing: {} host hits, {} PIM lookups ({:.1}% served from host DRAM)",
            pim_total.cache_hits,
            pim_total.emt_lookups,
            100.0 * pim_total.cache_hits as f64 / lookups as f64,
        );
    }
    let t = pim_total.total_ns().max(f64::MIN_POSITIVE);
    println!(
        "  PIM stages: s1 {:.0}% / s2 {:.0}% / s3 {:.0}%  (imbalance {:.2})",
        100.0 * pim_total.stage1_ns / t,
        100.0 * pim_total.stage2_ns / t,
        100.0 * pim_total.stage3_ns / t,
        pim_total.lookup_imbalance,
    );
    if print_measured {
        println!(
            "  host wall (measured): {:.1} us/pass  {:.1} ns/sample  \
             ({iters} timed passes, {warmup} warm-up)",
            host_wall_ns_mean / 1e3,
            host_wall_ns_mean / samples.max(1) as f64,
        );
    }

    let pr = PipelineReport::from_batches(&breakdowns);
    let report_json = RunJson {
        backend: "updlrm".to_string(),
        dataset: spec.short.to_string(),
        strategy: "plan".to_string(),
        dpus: plan.dpus_used,
        batches: workload.batches.len(),
        host_threads: config.host_threads,
        pipeline: "sequential".to_string(),
        queue_depth: 1,
        mean_embedding_us: pim_total.total_ns() / n / 1e3,
        mean_dense_us: 0.0,
        mean_total_us: pim_total.total_ns() / n / 1e3,
        stages: Some(StagesJson::from_totals(&pim_total, n, &pr)),
        serve: None,
        measured: Some(MeasuredJson {
            iters,
            warmup,
            host_wall_ns_mean,
            host_ns_per_sample: host_wall_ns_mean / samples.max(1) as f64,
        }),
    };
    write_json(args, &report_json)?;
    if let Some(path) = &metrics_path {
        write_metrics(path, &engine.metrics_snapshot())?;
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    if args.flag_set("plan") {
        return cmd_run_plan(args);
    }
    let (spec, workload, mut model) = build_setting(args)?;
    if let Some(path) = args.flags.get("tables") {
        let packed = load_packed_or_exit(path);
        let dlrm = Arc::get_mut(&mut model).expect("model not yet shared");
        let want: Vec<(usize, usize)> = dlrm.tables().iter().map(|t| (t.rows(), t.dim())).collect();
        let got: Vec<(usize, usize)> = (0..packed.len())
            .map(|t| (packed.view(t).rows(), packed.view(t).dim()))
            .collect();
        if want != got {
            eprintln!(
                "packed tables {path} do not match this run's model shape \
                 (packed {got:?}, model wants {want:?}); \
                 regenerate them with `updlrm pack` at the same --dataset/--scale/--seed",
            );
            std::process::exit(2)
        }
        for (slot, view) in dlrm.tables_mut().iter_mut().zip(packed.views()) {
            *slot = EmbeddingTable::from_view(&view)?;
        }
    }
    let profiles: Vec<FreqProfile> = (0..8)
        .map(|t| FreqProfile::from_inputs(spec.num_items, workload.table_inputs(t)))
        .collect();
    let strategy = strategy_or_exit(args);
    let mut config = UpdlrmConfig::with_dpus(args.num("dpus", 256), strategy);
    config.embed_dtype = embed_dtype_or_exit(args);
    match args.str("nc", "auto").as_str() {
        "auto" => {}
        v => config.n_c = Some(v.parse()?),
    }
    config.host_threads = args.num("host-threads", config.host_threads);
    let pipeline: PipelineMode = match args.str("pipeline", "sequential").parse() {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("{e}");
            usage()
        }
    };
    let queue_depth = args.num("queue-depth", config.queue_depth);
    if queue_depth == 0 {
        eprintln!("--queue-depth must be >= 1 (0 admits no batch in flight)");
        std::process::exit(2)
    }
    config.pipeline_mode = pipeline;
    config.queue_depth = queue_depth;
    let metrics_path = args.flags.get("metrics").cloned();
    if metrics_path.is_some() {
        // Fleet telemetry lives in the PIM engine; the CPU/GPU
        // baselines have no DPUs to report on.
        let backend_name = args.str("backend", "updlrm");
        if backend_name != "updlrm" {
            eprintln!("--metrics requires --backend updlrm (got '{backend_name}')");
            std::process::exit(2)
        }
        config.telemetry = true;
    }
    let iters = args.num("iters", 1);
    let warmup = args.num("warmup", 0);
    // Measured wall-clock is nondeterministic; keep default stdout
    // byte-stable (the host-threads determinism diff depends on it) and
    // only print the measured line when measurement was asked for. The
    // --json report always carries it.
    let print_measured = args.flags.contains_key("iters") || args.flags.contains_key("warmup");
    if iters == 0 {
        eprintln!("--iters must be >= 1 (0 measures nothing)");
        std::process::exit(2)
    }
    let mut report_json = RunJson {
        backend: args.str("backend", "updlrm"),
        dataset: spec.short.to_string(),
        strategy: args.str("strategy", "ca"),
        dpus: config.nr_dpus,
        batches: workload.batches.len(),
        host_threads: config.host_threads,
        pipeline: pipeline.to_string(),
        queue_depth,
        mean_embedding_us: 0.0,
        mean_dense_us: 0.0,
        mean_total_us: 0.0,
        stages: None,
        serve: None,
        measured: None,
    };
    let mem = CpuMemoryModel::default();

    if pipeline == PipelineMode::DoubleBuf {
        // The double-buffered schedule lives in the PIM embedding
        // engine; it has no meaning for the CPU/GPU baselines.
        if report_json.backend != "updlrm" {
            eprintln!(
                "--pipeline doublebuf requires --backend updlrm (got '{}')",
                report_json.backend
            );
            std::process::exit(2)
        }
        let mut backend = UpdlrmBackend::from_workload(config, model.clone(), &workload, mem)?;
        // Warm-up passes fill the scratch arenas and both staging
        // slots' kernels; the timed passes then run the zero-allocation
        // `serve_stream` path, so `host_ns_per_sample` reflects the
        // steady state rather than first-batch growth.
        for _ in 0..warmup {
            backend
                .engine_mut()
                .serve_stream(&workload.batches, |_, _, _| {})?;
        }
        let t0 = std::time::Instant::now();
        for _ in 0..iters {
            backend
                .engine_mut()
                .serve_stream(&workload.batches, |_, _, _| {})?;
        }
        let host_wall_ns_mean = t0.elapsed().as_nanos() as f64 / iters as f64;
        let outcome = backend.engine_mut().serve(&workload.batches)?;
        let samples = outcome.report.samples.max(1) as f64;
        report_json.measured = Some(MeasuredJson {
            iters,
            warmup,
            host_wall_ns_mean,
            host_ns_per_sample: host_wall_ns_mean / samples,
        });
        let n = outcome.report.batches.max(1) as f64;
        let mean_embedding_ns = outcome.breakdowns.iter().map(|b| b.total_ns()).sum::<f64>() / n;
        let pr = PipelineReport::from_batches(&outcome.breakdowns);
        println!(
            "{} serving {} batches double-buffered (queue depth {})",
            backend.name(),
            outcome.report.batches,
            outcome.report.queue_depth,
        );
        println!(
            "  wall {:.1} us  throughput {:.0} samples/s",
            outcome.report.wall_ns / 1e3,
            outcome.report.throughput_qps,
        );
        println!(
            "  latency p50 {:.1} us  p95 {:.1} us  p99 {:.1} us",
            outcome.report.p50_latency_ns / 1e3,
            outcome.report.p95_latency_ns / 1e3,
            outcome.report.p99_latency_ns / 1e3,
        );
        println!("  speedup over back-to-back: {:.2}x", pr.speedup());
        if print_measured {
            println!(
                "  host wall (measured): {:.1} us/pass  {:.1} ns/sample  \
                 ({iters} timed passes, {warmup} warm-up)",
                host_wall_ns_mean / 1e3,
                host_wall_ns_mean / samples,
            );
        }
        report_json.mean_embedding_us = mean_embedding_ns / 1e3;
        report_json.mean_total_us = mean_embedding_ns / 1e3;
        let mut pim_total = EmbeddingBreakdown::default();
        for bd in &outcome.breakdowns {
            pim_total.accumulate(bd);
        }
        report_json.stages = Some(StagesJson::from_totals(&pim_total, n, &pr));
        report_json.serve = Some(ServeJson {
            mode: outcome.report.mode.to_string(),
            queue_depth: outcome.report.queue_depth,
            wall_ns: outcome.report.wall_ns,
            throughput_qps: outcome.report.throughput_qps,
            p50_latency_ns: outcome.report.p50_latency_ns,
            p95_latency_ns: outcome.report.p95_latency_ns,
            p99_latency_ns: outcome.report.p99_latency_ns,
            speedup_vs_sequential: pr.speedup(),
        });
        write_json(args, &report_json)?;
        if let Some(path) = &metrics_path {
            write_metrics(path, &backend.engine().metrics_snapshot())?;
        }
        return Ok(());
    }
    let mut backend: Box<dyn InferenceBackend> = match args.str("backend", "updlrm").as_str() {
        "updlrm" => Box::new(UpdlrmBackend::from_workload(
            config,
            model.clone(),
            &workload,
            mem,
        )?),
        "cpu" => Box::new(DlrmCpu::new(model.clone(), &profiles, mem)?),
        "hybrid" => Box::new(DlrmHybrid::new(
            model.clone(),
            &profiles,
            mem,
            GpuModel::default(),
        )?),
        "fae" => Box::new(Fae::new(
            model.clone(),
            &profiles,
            mem,
            GpuModel::default(),
            0.85,
        )?),
        "hetero" => Box::new(DpuGpuHetero::from_workload(
            config,
            model.clone(),
            &workload,
            GpuModel::default(),
        )?),
        other => {
            eprintln!("unknown backend '{other}'");
            usage()
        }
    };

    println!(
        "{} on {} ({} items/table, avg reduction {:.1}, {} batches of {})",
        backend.name(),
        spec.name,
        spec.num_items,
        workload.measured_avg_reduction(),
        workload.batches.len(),
        workload.config.batch_size,
    );
    for _ in 0..warmup {
        for batch in &workload.batches {
            backend.run_batch(batch)?;
        }
    }
    let mut total = LatencyReport::default();
    let mut breakdowns = Vec::new();
    let t0 = std::time::Instant::now();
    for pass in 0..iters {
        for batch in &workload.batches {
            let (_, report) = backend.run_batch(batch)?;
            // Modeled breakdowns repeat identically per pass; keep one
            // pass's worth so the pipelining estimate stays per-stream.
            if pass == 0 {
                if let Some(pim) = report.pim {
                    breakdowns.push(pim);
                }
            }
            total.accumulate(&report);
        }
    }
    let host_wall_ns_mean = t0.elapsed().as_nanos() as f64 / iters as f64;
    let samples: usize = workload.batches.iter().map(|b| b.batch_size()).sum();
    report_json.measured = Some(MeasuredJson {
        iters,
        warmup,
        host_wall_ns_mean,
        host_ns_per_sample: host_wall_ns_mean / samples.max(1) as f64,
    });
    // `--batches 0` is a legal (if degenerate) run: divide by at least
    // one so every derived mean serializes as a finite zero.
    let n = ((workload.batches.len() * iters) as f64).max(1.0);
    println!("per-batch mean:");
    println!("  embedding: {:10.1} us", total.embedding_ns / n / 1e3);
    println!("  dense:     {:10.1} us", total.dense_ns / n / 1e3);
    println!("  transfer:  {:10.1} us", total.transfer_ns / n / 1e3);
    println!("  total:     {:10.1} us", total.total_ns() / n / 1e3);
    if print_measured {
        println!(
            "  host wall (measured): {:.1} us/pass  {:.1} ns/sample  \
             ({iters} timed passes, {warmup} warm-up)",
            host_wall_ns_mean / 1e3,
            host_wall_ns_mean / samples.max(1) as f64,
        );
    }
    report_json.mean_embedding_us = total.embedding_ns / n / 1e3;
    report_json.mean_dense_us = total.dense_ns / n / 1e3;
    report_json.mean_total_us = total.total_ns() / n / 1e3;
    if let Some(pim) = &total.pim {
        let t = pim.total_ns();
        println!(
            "  PIM stages: s1 {:.0}% / s2 {:.0}% / s3 {:.0}%  (imbalance {:.2})",
            100.0 * pim.stage1_ns / t,
            100.0 * pim.stage2_ns / t,
            100.0 * pim.stage3_ns / t,
            pim.lookup_imbalance,
        );
        let pr = PipelineReport::from_batches(&breakdowns);
        println!(
            "  inter-batch pipelining would save {:.1}%",
            (1.0 - 1.0 / pr.speedup()) * 100.0
        );
        report_json.stages = Some(StagesJson::from_totals(pim, n, &pr));
    }
    write_json(args, &report_json)?;
    if let Some(path) = &metrics_path {
        let snapshot = backend
            .metrics_snapshot()
            .expect("--metrics was validated to require the updlrm backend");
        write_metrics(path, &snapshot)?;
    }
    Ok(())
}

/// Machine-readable mirror of a `serve` invocation (`--json FILE`).
/// With the default `--runtime modeled` everything inside is
/// modeled-time derived, so the file is byte-identical across runs with
/// the same flags; a `--runtime wall` run adds the `runtime` section,
/// whose measured wall-clock numbers vary run to run.
#[derive(serde::Serialize)]
struct SchedJson {
    dataset: String,
    strategy: String,
    dpus: usize,
    arrival: String,
    offered_qps: f64,
    max_batch: usize,
    max_wait_us: usize,
    queue_cap: usize,
    policy: String,
    report: SchedReport,
    /// `batch_hist[k]` = batches launched with exactly `k` queries.
    batch_hist: Vec<u64>,
    /// Present only for `--runtime wall`: measured statistics from the
    /// concurrent runtime next to the modeled oracle it is locked to.
    runtime: Option<RuntimeJson>,
}

/// The wall-clock section of [`SchedJson`].
#[derive(serde::Serialize)]
struct RuntimeJson {
    shards: usize,
    time_scale: f64,
    deterministic: bool,
    wall: WallStats,
    /// What the modeled-time oracle (`Scheduler::run`) predicts for the
    /// same trace and policy.
    modeled_report: SchedReport,
    batches_per_shard: Vec<u64>,
}

/// Loads and parses a `--tenants FILE.toml`, applying the CLI
/// overrides (`--dpus`, `--quantum-us`, `--no-isolation`), or exits 2.
fn tenants_file_or_exit(args: &Args, path: &str) -> TenantsFile {
    for bad in [
        "qps",
        "arrival",
        "workload-v3",
        "replan",
        "runtime",
        "shards",
        "time-scale",
        "deterministic",
        "drift-snapshot",
        "dataset",
        "strategy",
        "scale",
        "batches",
        "seed",
        "max-batch",
        "max-wait-us",
        "policy",
        "queue-cap",
        "embed-dtype",
    ] {
        if args.flag_set(bad) {
            eprintln!(
                "--{bad} does not apply with --tenants (per-tenant settings live in the file)"
            );
            std::process::exit(2)
        }
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("--tenants {path}: {e}");
            std::process::exit(2)
        }
    };
    let mut file = match parse_tenants_toml(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("--tenants {path}: {e}");
            std::process::exit(2)
        }
    };
    if args.flag_set("dpus") {
        file.fleet.fleet_dpus = args.num("dpus", file.fleet.fleet_dpus);
    }
    if args.flag_set("quantum-us") {
        file.fleet.quantum_ns = args.num("quantum-us", 0) as u64 * 1_000;
    }
    if args.flag_set("no-isolation") {
        file.fleet.arbitration = Arbitration::Fcfs;
    }
    if let Err(e) = file.fleet.validate() {
        eprintln!("--tenants {path}: {e}");
        std::process::exit(2)
    }
    file
}

/// `updlrm serve --tenants FILE.toml`: the mixed multi-tenant workload
/// end to end on one shared modeled fleet.
fn cmd_serve_tenants(args: &Args, path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let mut file = tenants_file_or_exit(args, path);
    let metrics_path = args.flags.get("metrics").cloned();
    if metrics_path.is_some() {
        file.fleet.telemetry = true;
    }
    let mut fleet = TenantFleet::from_specs(&file.tenants, file.fleet.clone())?;
    let report = fleet.run(|_, _, _, _, _| {})?;

    println!(
        "multi-tenant serve: {} tenants on a {}-DPU fleet [{}], makespan {:.1} ms, \
         fleet utilization {:.2}",
        report.tenants.len(),
        report.fleet_dpus,
        report.arbitration,
        report.makespan_ns / 1e6,
        report.fleet_utilization,
    );
    for t in &report.tenants {
        let slo = if t.slo_p99_ns > 0.0 {
            format!(
                "slo {:.0} us ({} violations)",
                t.slo_p99_ns / 1e3,
                t.slo_violations
            )
        } else {
            "no slo".to_string()
        };
        println!(
            "  {} (w {:.1}, dpu offset {}): p50 {:.1} us  p99 {:.1} us  {}  \
             share {:.2} (configured {:.2})",
            t.name,
            t.weight,
            t.dpu_offset,
            t.sched.p50_latency_ns / 1e3,
            t.sched.p99_latency_ns / 1e3,
            slo,
            t.fleet_share_achieved,
            t.fleet_share_configured,
        );
        println!(
            "    {} batches, {} completed / {} offered ({} shed, {} rejected, {} blocked)",
            t.sched.batches,
            t.sched.completed,
            t.sched.requests,
            t.sched.shed,
            t.sched.rejected,
            t.sched.blocked,
        );
    }
    if let Some(path) = args.flags.get("json") {
        std::fs::write(path, serde::json::to_string_pretty(&report))?;
        println!("wrote {path}");
    }
    if let Some(path) = &metrics_path {
        write_metrics(path, &fleet.metrics_snapshot())?;
    }
    Ok(())
}

/// `updlrm capacity --tenants FILE.toml`: answers "how many DPUs do
/// these tenants need at these SLOs?" with a doubling sweep of fleet
/// sizes through the full cost model.
fn cmd_capacity(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = args.flags.get("tenants").cloned() else {
        eprintln!("updlrm capacity needs --tenants FILE.toml");
        std::process::exit(2)
    };
    let file = tenants_file_or_exit(args, &path);
    let min_dpus = args.num("min-dpus", 8);
    let max_dpus = args.num("max-dpus", 256);
    if min_dpus == 0 || min_dpus > max_dpus {
        eprintln!("need 1 <= --min-dpus <= --max-dpus (got {min_dpus}..{max_dpus})");
        std::process::exit(2)
    }
    let mut candidates = Vec::new();
    let mut c = min_dpus;
    while c < max_dpus {
        candidates.push(c);
        c = c.saturating_mul(2);
    }
    candidates.push(max_dpus);

    let points = capacity_sweep(&file.tenants, &file.fleet, &candidates)?;
    println!(
        "capacity sweep for {} tenants [{}], fleets {}..{} DPUs:",
        file.tenants.len(),
        file.fleet.arbitration,
        min_dpus,
        max_dpus,
    );
    for p in &points {
        if !p.feasible {
            println!(
                "  {:>5} DPUs: infeasible (no tile shape fits)",
                p.fleet_dpus
            );
            continue;
        }
        let verdict = if p.all_slos_met { "PASS" } else { "fail" };
        let detail: Vec<String> = p
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "{} p99 {:.0} us{}",
                    t.name,
                    t.p99_latency_ns / 1e3,
                    if t.met { "" } else { " *" }
                )
            })
            .collect();
        println!(
            "  {:>5} DPUs: {}  ({})",
            p.fleet_dpus,
            verdict,
            detail.join(", ")
        );
    }
    if let Some(json_path) = args.flags.get("json") {
        std::fs::write(json_path, serde::json::to_string_pretty(&points))?;
        println!("wrote {json_path}");
    }
    match points.iter().find(|p| p.all_slos_met) {
        Some(p) => {
            println!(
                "smallest swept fleet meeting every SLO: {} DPUs",
                p.fleet_dpus
            );
        }
        None => {
            println!("no swept fleet size up to {max_dpus} DPUs meets every SLO");
            std::process::exit(1)
        }
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = args.flags.get("tenants").cloned() {
        return cmd_serve_tenants(args, &path);
    }
    if args.flag_set("no-isolation") || args.flag_set("quantum-us") {
        eprintln!("--no-isolation / --quantum-us only apply to --tenants serving");
        std::process::exit(2)
    }
    let workload_path = args.flags.get("workload-v3").cloned();
    if workload_path.is_some() && (args.flag_set("qps") || args.flag_set("arrival")) {
        eprintln!(
            "--workload-v3 replays the file's stamped arrivals; --qps/--arrival do not apply"
        );
        std::process::exit(2)
    }
    let max_batch = args.num("max-batch", 64);
    if max_batch == 0 {
        eprintln!("--max-batch must be >= 1 (a batcher that forms empty batches serves nothing)");
        std::process::exit(2)
    }
    let max_wait_us = args.num("max-wait-us", 200);
    if max_wait_us == 0 {
        eprintln!("--max-wait-us must be >= 1 (a zero deadline degenerates to batch-of-one)");
        std::process::exit(2)
    }
    let queue_cap = args.num("queue-cap", 4 * max_batch);
    if queue_cap == 0 {
        eprintln!("--queue-cap must be >= 1 (a zero-length queue admits nothing)");
        std::process::exit(2)
    }
    let policy: OverloadPolicy = match args.str("policy", "shed-oldest").parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            usage()
        }
    };

    let replan: ReplanPolicy = match args.str("replan", "off").parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("--replan: {e}");
            std::process::exit(2)
        }
    };
    let drift_snapshot_path = args.flags.get("drift-snapshot").cloned();
    if drift_snapshot_path.is_some() && !replan.enabled() {
        eprintln!("--drift-snapshot needs --replan (a static placement never migrates)");
        std::process::exit(2)
    }

    let runtime_mode = args.str("runtime", "modeled");
    let shards = args.num("shards", 1);
    let deterministic = args.flag_set("deterministic");
    let time_scale = if args.flag_set("time-scale") {
        args.positive_float("time-scale")
    } else {
        1.0
    };
    match runtime_mode.as_str() {
        "modeled" => {
            if args.flag_set("shards") || args.flag_set("time-scale") || deterministic {
                eprintln!("--shards / --time-scale / --deterministic only apply to --runtime wall");
                std::process::exit(2)
            }
        }
        "wall" => {
            if shards == 0 {
                eprintln!(
                    "--shards must be >= 1 (a runtime with no engine workers serves nothing)"
                );
                std::process::exit(2)
            }
            if replan.enabled() {
                eprintln!(
                    "--replan: replanning requires the modeled runtime (--runtime modeled); \
                     the wall runtime's shards serve from static placements"
                );
                std::process::exit(2)
            }
        }
        other => {
            eprintln!("unknown runtime '{other}' (want modeled or wall)");
            usage()
        }
    }

    let (spec, workload, model) = if let Some(path) = &workload_path {
        // A stamped UPWL file (v1/v2/v3) replayed as-is: the loader
        // already validated the drift schedule against the embedded
        // spec's row count, and a file without arrivals cannot be
        // served open-loop.
        let mut file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("--workload-v3 {path}: {e}");
                std::process::exit(2)
            }
        };
        let workload = match Workload::load(&mut file) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("--workload-v3 {path}: {e}");
                std::process::exit(2)
            }
        };
        if workload.arrivals.process.is_closed_loop() {
            eprintln!(
                "--workload-v3 {path}: the trace has no arrival stamps; regenerate it with \
                 `updlrm trace --qps N` (serving needs open-loop arrivals)"
            );
            std::process::exit(2)
        }
        let spec = workload.spec.clone();
        let model = Arc::new(Dlrm::new(DlrmConfig {
            num_dense: 13,
            embedding_dim: 32,
            table_rows: vec![spec.num_items; workload.config.num_tables],
            bottom_hidden: vec![64],
            top_hidden: vec![64, 16],
            seed: args.num("seed", 7) as u64,
        })?);
        (spec, workload, model)
    } else {
        let qps = args.positive_float("qps");
        let process = arrival_or_exit(args, qps);
        let (spec, mut workload, model) = build_setting(args)?;
        workload.stamp_arrivals(process);
        (spec, workload, model)
    };
    let process = workload.arrivals.process;
    let qps = process.offered_qps().unwrap_or(0.0);

    let mut config = UpdlrmConfig::with_dpus(args.num("dpus", 256), strategy_or_exit(args));
    // The batcher never forms more than `max_batch` queries, so size the
    // engine's staging slots to exactly that.
    config.batch_size = max_batch;
    config.host_threads = args.num("host-threads", config.host_threads);
    config.replan = replan;
    let metrics_path = args.flags.get("metrics").cloned();
    // Replanning implies telemetry: the drift counters (and the
    // mid-migration snapshot `--drift-snapshot` writes) live in the
    // metrics registry.
    config.telemetry = metrics_path.is_some() || replan.enabled();
    let sched_config = SchedConfig {
        max_batch_size: max_batch,
        max_wait_ns: max_wait_us as u64 * 1_000,
        queue_cap,
        policy,
    };

    if runtime_mode == "wall" {
        return serve_wall(ServeWall {
            args,
            spec: &spec,
            workload: &workload,
            model: &model,
            config,
            sched_config,
            shards,
            time_scale,
            deterministic,
            qps,
            metrics_path,
        });
    }

    let mut engine = UpdlrmEngine::from_workload(config, model.tables(), &workload)?;
    let mut sched = Scheduler::new(sched_config)?;
    let report = sched.run(&mut engine, &workload, |_, _, _, _| {})?;

    println!(
        "open-loop serve on {} ({} arrivals, {} over {:.1} ms of modeled time)",
        spec.name,
        report.requests,
        process.tag(),
        report.makespan_ns / 1e6,
    );
    println!(
        "  load: offered {:.0} qps  achieved {:.0} qps",
        report.offered_qps, report.achieved_qps,
    );
    println!(
        "  latency: mean {:.1} us  p50 {:.1} us  p95 {:.1} us  p99 {:.1} us  max {:.1} us",
        report.mean_latency_ns / 1e3,
        report.p50_latency_ns / 1e3,
        report.p95_latency_ns / 1e3,
        report.p99_latency_ns / 1e3,
        report.max_latency_ns / 1e3,
    );
    println!(
        "  batching: {} batches, mean fill {:.1}/{}  (size {} / deadline {} / drain {})",
        report.batches,
        report.mean_batch_size,
        max_batch,
        report.trigger_size,
        report.trigger_deadline,
        report.trigger_drain,
    );
    println!(
        "  admission [{}]: {} admitted, {} shed, {} rejected, {} blocked, queue high-water {}/{}",
        policy,
        report.admitted,
        report.shed,
        report.rejected,
        report.blocked,
        report.queue_high_water,
        queue_cap,
    );
    if replan.enabled() {
        let d = engine.metrics_snapshot().drift;
        println!(
            "  replan [{}]: {} replans ({} skipped), {} migrations, {} rows / {:.1} KB moved, \
             {:.1} us migrating",
            replan,
            d.replans_triggered,
            d.replans_skipped,
            d.migrations_completed,
            d.rows_moved,
            d.migrated_bytes as f64 / 1e3,
            d.migration_ns / 1e3,
        );
    }

    if let Some(path) = args.flags.get("json") {
        let json = SchedJson {
            dataset: spec.short.to_string(),
            strategy: args.str("strategy", "ca"),
            dpus: args.num("dpus", 256),
            arrival: process.tag().to_string(),
            offered_qps: qps,
            max_batch,
            max_wait_us,
            queue_cap,
            policy: policy.to_string(),
            report,
            batch_hist: sched.batch_histogram().to_vec(),
            runtime: None,
        };
        std::fs::write(path, serde::json::to_string_pretty(&json))?;
        println!("wrote {path}");
    }
    if let Some(path) = &metrics_path {
        write_metrics(path, &engine.metrics_snapshot())?;
    }
    if let Some(path) = &drift_snapshot_path {
        match engine.drift_snapshot() {
            Some(snap) => {
                std::fs::write(path, serde::json::to_string_pretty(snap))?;
                println!("wrote {path}");
            }
            None => {
                eprintln!(
                    "no migration was triggered, so there is no mid-migration snapshot to \
                     write; serve longer or lower the --replan period/threshold"
                );
                std::process::exit(1)
            }
        }
    }
    Ok(())
}

/// Everything `serve_wall` needs from `cmd_serve`, bundled so the
/// hand-off stays readable.
struct ServeWall<'a> {
    args: &'a Args,
    spec: &'a DatasetSpec,
    workload: &'a Workload,
    model: &'a Dlrm,
    config: UpdlrmConfig,
    sched_config: SchedConfig,
    shards: usize,
    time_scale: f64,
    deterministic: bool,
    qps: f64,
    metrics_path: Option<String>,
}

/// The `--runtime wall` path: run the modeled oracle first, then the
/// concurrent wall-clock runtime on `--shards` engine workers, and
/// print the two side by side. In `--deterministic` mode the runtime
/// must reproduce the oracle's `SchedReport` byte for byte.
fn serve_wall(p: ServeWall<'_>) -> Result<(), Box<dyn std::error::Error>> {
    let ServeWall {
        args,
        spec,
        workload,
        model,
        config,
        sched_config,
        shards,
        time_scale,
        deterministic,
        qps,
        metrics_path,
    } = p;

    // The modeled oracle: same trace, same policy, telemetry off so the
    // measured engines own the metrics registry.
    let mut oracle_config = config.clone();
    oracle_config.telemetry = false;
    let mut oracle_engine = UpdlrmEngine::from_workload(oracle_config, model.tables(), workload)?;
    let mut sched = Scheduler::new(sched_config)?;
    let modeled = sched.run(&mut oracle_engine, workload, |_, _, _, _| {})?;

    // One identical engine per shard; only shard 0 carries telemetry
    // (the snapshot is a single registry, not a fleet merge).
    let mut engines: Vec<UpdlrmEngine> = (0..shards)
        .map(|i| {
            let mut c = config.clone();
            c.telemetry = metrics_path.is_some() && i == 0;
            UpdlrmEngine::from_workload(c, model.tables(), workload)
        })
        .collect::<Result<_, _>>()?;
    let rt = Runtime::new(RuntimeConfig {
        sched: sched_config,
        shards,
        time_scale,
        deterministic,
        ring_capacity: 64,
    })?;
    let report = rt.run(&mut engines, workload, |_, _, _, _| {})?;

    println!(
        "wall-clock serve on {} ({} arrivals, {} shard{}, time-scale {:.0}x, {})",
        spec.name,
        report.sched.requests,
        shards,
        if shards == 1 { "" } else { "s" },
        time_scale,
        if deterministic {
            "deterministic"
        } else {
            "free-running"
        },
    );
    println!(
        "  measured: {:.0} qps over {:.1} ms of wall time ({} completed, {} shed, {} rejected)",
        report.wall.measured_qps,
        report.wall.wall_elapsed_ns / 1e6,
        report.sched.completed,
        report.sched.shed,
        report.sched.rejected,
    );
    let latency_clock = if deterministic { "modeled" } else { "measured" };
    println!(
        "  latency ({latency_clock}): mean {:.1} us  p50 {:.1} us  p95 {:.1} us  p99 {:.1} us",
        report.sched.mean_latency_ns / 1e3,
        report.sched.p50_latency_ns / 1e3,
        report.sched.p95_latency_ns / 1e3,
        report.sched.p99_latency_ns / 1e3,
    );
    println!(
        "  modeled oracle: {:.0} qps achieved, p50 {:.1} us  p95 {:.1} us  p99 {:.1} us",
        modeled.achieved_qps,
        modeled.p50_latency_ns / 1e3,
        modeled.p95_latency_ns / 1e3,
        modeled.p99_latency_ns / 1e3,
    );
    println!(
        "  batching: {} batches over {} shard{} {:?}, mean fill {:.1}",
        report.sched.batches,
        shards,
        if shards == 1 { "" } else { "s" },
        report.batches_per_shard,
        report.sched.mean_batch_size,
    );
    println!(
        "  service walls: modeled {:.2} ms vs measured {:.2} ms per run",
        report.wall.modeled_service_ns / 1e6,
        report.wall.measured_service_ns / 1e6,
    );
    if deterministic {
        if report.sched == modeled {
            println!(
                "  oracle lock: OK — wall runtime reproduced the modeled scheduler byte for byte"
            );
        } else {
            eprintln!("warning: deterministic wall run diverged from the modeled oracle");
        }
    }

    if let Some(path) = args.flags.get("json") {
        let json = SchedJson {
            dataset: spec.short.to_string(),
            strategy: args.str("strategy", "ca"),
            dpus: args.num("dpus", 256),
            arrival: workload.arrivals.process.tag().to_string(),
            offered_qps: qps,
            max_batch: sched_config.max_batch_size,
            max_wait_us: (sched_config.max_wait_ns / 1_000) as usize,
            queue_cap: sched_config.queue_cap,
            policy: sched_config.policy.to_string(),
            report: report.sched,
            batch_hist: report.batch_histogram.clone(),
            runtime: Some(RuntimeJson {
                shards,
                time_scale,
                deterministic,
                wall: report.wall,
                modeled_report: modeled,
                batches_per_shard: report.batches_per_shard.clone(),
            }),
        };
        std::fs::write(path, serde::json::to_string_pretty(&json))?;
        println!("wrote {path}");
    }
    if let Some(path) = &metrics_path {
        engines[0].metrics_mut().record_runtime(RuntimeSnapshot {
            shards: shards as u64,
            deterministic,
            time_scale,
            wall_elapsed_ns: report.wall.wall_elapsed_ns,
            measured_qps: report.wall.measured_qps,
            modeled_service_ns: report.wall.modeled_service_ns,
            measured_service_ns: report.wall.measured_service_ns,
            measured_p50_latency_ns: report.sched.p50_latency_ns,
            measured_p95_latency_ns: report.sched.p95_latency_ns,
            measured_p99_latency_ns: report.sched.p99_latency_ns,
        });
        write_metrics(path, &engines[0].metrics_snapshot())?;
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = args.flags.get("metrics") else {
        eprintln!("stats needs --metrics FILE (a snapshot written by `updlrm run --metrics`)");
        usage()
    };
    let text = std::fs::read_to_string(path)?;
    let snap: Snapshot = serde::json::from_str(&text)?;
    if snap.schema_version != SNAPSHOT_SCHEMA_VERSION {
        eprintln!(
            "metrics snapshot {path} has schema v{}, but this binary reads v{}; \
             regenerate it with `updlrm run --metrics {path}`",
            snap.schema_version, SNAPSHOT_SCHEMA_VERSION,
        );
        std::process::exit(2)
    }
    println!(
        "metrics snapshot {path} (schema v{}, telemetry {})",
        snap.schema_version,
        if snap.enabled { "on" } else { "off" },
    );
    println!(
        "  recorded: {} serves, {} batches, {} samples",
        snap.serves, snap.batches, snap.samples,
    );
    println!(
        "  stage means/batch: route {:8.1} us | s1 {:8.1} us | s2 {:8.1} us | s3 {:8.1} us | combine {:8.1} us",
        snap.route_ns.mean() / 1e3,
        snap.stage1_ns.mean() / 1e3,
        snap.stage2_ns.mean() / 1e3,
        snap.stage3_ns.mean() / 1e3,
        snap.combine_ns.mean() / 1e3,
    );
    let t = snap.mean_stage_total_ns();
    if t > 0.0 {
        println!(
            "  stage shares: s1 {:.0}% / s2 {:.0}% / s3 {:.0}%",
            100.0 * snap.stage1_ns.mean() / t,
            100.0 * snap.stage2_ns.mean() / t,
            100.0 * snap.stage3_ns.mean() / t,
        );
    }
    if snap.serves > 0 && snap.sequential_wall_ns > 0.0 {
        println!(
            "  pipeline: executed wall {:.1} us vs {:.1} us back-to-back ({:.1}% saved by overlap)",
            snap.serve_wall_ns / 1e3,
            snap.sequential_wall_ns / 1e3,
            100.0 * snap.overlap_saved_ns / snap.sequential_wall_ns,
        );
    }
    println!(
        "  load imbalance: mean {:.3}  max {:.3}  over {} launches",
        snap.load_imbalance.mean(),
        snap.load_imbalance.max,
        snap.launches,
    );
    if snap.cache.refs > 0 {
        println!(
            "  cache: {} lookups, {:.1}% of {} refs covered, {} partial-sum rows fetched, {} row fetches saved",
            snap.cache.lookups,
            100.0 * snap.cache.hit_rate,
            snap.cache.refs,
            snap.cache.hit_entries,
            snap.cache.fetches_saved,
        );
    }
    println!(
        "  traffic: {:.2} MB scattered CPU→MRAM (stage 1), {:.2} MB gathered MRAM→CPU (stage 3)",
        snap.stage1_bytes as f64 / 1e6,
        snap.stage3_bytes as f64 / 1e6,
    );
    if snap.sched.batches > 0 {
        println!(
            "  scheduler: {} admitted, {} shed, {} rejected, {} blocked, queue high-water {}",
            snap.sched.admitted,
            snap.sched.shed_oldest,
            snap.sched.rejected_new,
            snap.sched.blocked,
            snap.sched.queue_depth_high_water,
        );
        println!(
            "  batching: {} batches, mean fill {:.1} (size {} / deadline {} / drain {})",
            snap.sched.batches,
            snap.sched.batch_fill.mean(),
            snap.sched.trigger_size,
            snap.sched.trigger_deadline,
            snap.sched.trigger_drain,
        );
    }
    if snap.runtime.shards > 0 {
        println!(
            "  wall runtime: {} shard{} (time-scale {:.0}x, {}), {:.0} qps measured over {:.1} ms",
            snap.runtime.shards,
            if snap.runtime.shards == 1 { "" } else { "s" },
            snap.runtime.time_scale,
            if snap.runtime.deterministic {
                "deterministic"
            } else {
                "free-running"
            },
            snap.runtime.measured_qps,
            snap.runtime.wall_elapsed_ns / 1e6,
        );
        println!(
            "  wall latency: p50 {:.1} us  p95 {:.1} us  p99 {:.1} us; \
             service walls modeled {:.2} ms vs measured {:.2} ms",
            snap.runtime.measured_p50_latency_ns / 1e3,
            snap.runtime.measured_p95_latency_ns / 1e3,
            snap.runtime.measured_p99_latency_ns / 1e3,
            snap.runtime.modeled_service_ns / 1e6,
            snap.runtime.measured_service_ns / 1e6,
        );
    }
    for t in &snap.tenants {
        println!(
            "  tenant {} (w {:.1}): {} admitted ({} shed, {} rejected), {} completed in {} batches",
            t.name, t.weight, t.admitted, t.shed, t.rejected, t.completed, t.batches,
        );
        let slo = if t.slo_p99_ns > 0.0 {
            format!(
                "slo {:.0} us ({} violations)",
                t.slo_p99_ns / 1e3,
                t.slo_violations
            )
        } else {
            "no slo".into()
        };
        println!(
            "    p50 {:.1} us  p95 {:.1} us  p99 {:.1} us  {slo}  \
             fleet share {:.2} (configured {:.2})",
            t.p50_latency_ns / 1e3,
            t.p95_latency_ns / 1e3,
            t.p99_latency_ns / 1e3,
            t.fleet_share_achieved,
            t.fleet_share_configured,
        );
    }
    if !snap.per_dpu.is_empty() {
        let cycles: Vec<u64> = snap.per_dpu.iter().map(|d| d.cycles).collect();
        let total: u64 = cycles.iter().sum();
        let occ = snap
            .per_dpu
            .iter()
            .map(|d| d.tasklet_occupancy)
            .sum::<f64>()
            / snap.per_dpu.len() as f64;
        println!(
            "  fleet: {} DPUs, {:.2} Mcycles total, mean tasklet occupancy {:.2}, \
             busiest/idlest DPU {} / {} cycles",
            snap.per_dpu.len(),
            total as f64 / 1e6,
            occ,
            cycles.iter().max().unwrap_or(&0),
            cycles.iter().min().unwrap_or(&0),
        );
    }
    Ok(())
}

/// Splits a colon-separated flag value into exactly `n` parsed fields,
/// exiting 2 with a usage hint otherwise.
fn split_fields<T: std::str::FromStr>(flag: &str, value: &str, n: usize, hint: &str) -> Vec<T> {
    let parts: Vec<&str> = value.split(':').collect();
    if parts.len() != n {
        eprintln!("--{flag} expects {hint}, got '{value}'");
        std::process::exit(2)
    }
    parts
        .iter()
        .map(|p| {
            p.parse().unwrap_or_else(|_| {
                eprintln!("--{flag}: cannot parse '{p}' in '{value}' (want {hint})");
                std::process::exit(2)
            })
        })
        .collect()
}

/// Builds the UPWL v3 drift schedule from `--rotate` / `--spike` /
/// `--diurnal`, or `None` when no drift flag is present. Validates the
/// schedule against the dataset's row count (exit 2 on a hot set that
/// does not fit — the same check the loader applies).
fn parse_drift(args: &Args, spec: &DatasetSpec) -> Option<DriftSchedule> {
    let mut drift = DriftSchedule::default();
    if let Some(v) = args.flags.get("rotate") {
        let f = split_fields::<f64>("rotate", v, 4, "SETS:ROWS:PERIOD_US:HOT_FRACTION");
        drift.rotation = Some(HotSetRotation {
            num_sets: f[0] as usize,
            set_size: f[1] as usize,
            period_ns: (f[2] * 1_000.0) as u64,
            hot_fraction: f[3],
        });
    }
    if let Some(v) = args.flags.get("spike") {
        let f = split_fields::<f64>("spike", v, 5, "START_US:DUR_US:SET:EXTRA_HOT:RATE_BOOST");
        drift.spikes.push(FlashCrowd {
            start_ns: (f[0] * 1_000.0) as u64,
            duration_ns: (f[1] * 1_000.0) as u64,
            target_set: f[2] as usize,
            extra_hot: f[3],
            rate_boost: f[4],
        });
    }
    if let Some(v) = args.flags.get("diurnal") {
        let f = split_fields::<f64>("diurnal", v, 2, "PERIOD_US:AMPLITUDE");
        drift.diurnal = Some(DiurnalCurve {
            period_ns: (f[0] * 1_000.0) as u64,
            amplitude: f[1],
        });
    }
    if drift.is_trivial() {
        return None;
    }
    if let Err(e) = drift.validate(spec.num_items) {
        eprintln!("invalid drift schedule: {e}");
        std::process::exit(2)
    }
    Some(drift)
}

fn cmd_trace(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec_or_exit(args).scaled_down(args.num("scale", 200));
    let trace_config = TraceConfig {
        num_batches: args.num("batches", 10),
        seed: args.num("seed", 7) as u64,
        ..TraceConfig::default()
    };
    let workload = if let Some(drift) = parse_drift(args, &spec) {
        // Drift is a function of arrival time, so a v3 trace always
        // carries an open-loop arrival process (`--qps` is required).
        let qps = args.positive_float("qps");
        Workload::generate_drifting(&spec, trace_config, drift, arrival_or_exit(args, qps))
    } else {
        let mut workload = Workload::generate(&spec, trace_config);
        if args.flags.contains_key("arrival") || args.flags.contains_key("qps") {
            // `--arrival` defaults to poisson, but a rate is always needed.
            let qps = args.positive_float("qps");
            workload.stamp_arrivals(arrival_or_exit(args, qps));
        }
        workload
    };
    let out = args.flags.get("out").cloned().unwrap_or_else(|| usage());
    let mut file = std::fs::File::create(&out)?;
    workload.save(&mut file)?;
    let arrivals = if workload.arrivals.process.is_closed_loop() {
        "closed-loop".to_string()
    } else {
        format!(
            "{} arrivals at {:.0} qps offered",
            workload.arrivals.process.tag(),
            workload.arrivals.process.offered_qps().unwrap_or(0.0),
        )
    };
    let version = if workload.drift.is_some() {
        "UPWL v3, drifting"
    } else {
        "UPWL"
    };
    println!(
        "wrote {} ({} batches, {} lookups, {} items/table, {arrivals}, {version}) to {out}",
        spec.name,
        workload.batches.len(),
        workload.total_lookups(),
        spec.num_items,
    );
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec_or_exit(args);
    println!("{} ({})", spec.name, spec.short);
    println!("  category:       {}", spec.hotness);
    println!("  avg reduction:  {}", spec.avg_reduction);
    println!("  items:          {}", spec.num_items);
    println!("  zipf theta:     {}", spec.zipf_theta);
    println!(
        "  table size:     {:.1} MB at 32 dims",
        spec.table_bytes(32) as f64 / 1e6
    );
    println!(
        "  co-occurrence:  clusters of {}, rate {}, fraction {}",
        spec.cooccur.cluster_size, spec.cooccur.cluster_rate, spec.cooccur.clustered_fraction
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        usage();
    };
    let args = Args::parse(rest);
    let result = match cmd.as_str() {
        "run" => cmd_run(&args),
        "pack" => cmd_pack(&args),
        "plan" => cmd_plan(&args),
        "serve" => cmd_serve(&args),
        "capacity" => cmd_capacity(&args),
        "stats" => cmd_stats(&args),
        "trace" => cmd_trace(&args),
        "info" => cmd_info(&args),
        _ => usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
