//! perfbench — serves each request of a named workload through to its
//! CTR score and reports end-to-end metrics on two clocks:
//!
//! * *modeled* numbers come from the deterministic PIM cost model and
//!   repeat exactly for one seed;
//! * *host* numbers are measured wall time of the Rust code.
//!
//! ```text
//! perfbench --workload <ca-closed|tiered-closed|drift-open|wall-open>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries every end-to-end
//! metric; with `--trace 1` it carries the per-layer metrics, timed by
//! spans recorded around the benchmark's calls into each crate (see
//! README.md). The run exits 1 when an output check fails.

mod closed;
mod common;
mod open;
mod probe;
mod span;
mod stats;

use std::fmt::Write as _;

use common::{Outcome, Values};

/// Command-line options.
#[derive(Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// End-to-end metrics, in print order, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("modeled_ns_per_inference", "ns"),
    ("modeled_p50_us", "us"),
    ("modeled_p99_us", "us"),
    ("modeled_max_qps", "1/s"),
    ("host_inferences_per_s", "1/s"),
    ("host_p99_ms", "ms"),
    ("wall_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, in print order, with their units. A metric a
/// workload's layers do not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.profile_s", "s"),
    ("cooccur.mine_s", "s"),
    ("placement.plan_s", "s"),
    ("core.engine_build_s", "s"),
    ("core.warmup_s", "s"),
    ("core.serve_ms_per_batch", "ms"),
    ("model.forward_ms_per_batch", "ms"),
    ("sched.self_ms", "ms"),
    ("core.on_tick_ms", "ms"),
    ("core.route_ns", "ns"),
    ("core.stage1_ns", "ns"),
    ("core.stage2_ns", "ns"),
    ("core.stage3_ns", "ns"),
    ("core.combine_ns", "ns"),
    ("core.overlap_saved_frac", "ratio"),
    ("core.energy_pj_per_inference", "pJ"),
    ("cooccur.hit_ratio", "ratio"),
    ("placement.host_hit_ratio", "ratio"),
    ("sim.dma_transfers_per_inference", "count"),
    ("sim.dma_bytes_per_inference", "B"),
    ("sim.instrs_per_inference", "count"),
    ("sim.tasklet_occupancy", "ratio"),
    ("partition.lookup_imbalance", "ratio"),
    ("sched.mean_batch_size", "count"),
    ("sched.queue_high_water", "count"),
    ("sched.deadline_trigger_frac", "ratio"),
    ("replan.replans", "count"),
    ("replan.rows_moved", "count"),
    ("replan.migration_us", "us"),
    ("runtime.service_ms_per_batch", "ms"),
    ("runtime.measured_over_modeled", "ratio"),
    ("runtime.wall_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <ca-closed|tiered-closed|drift-open|wall-open> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse() -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                opts.seconds = value.parse().unwrap_or_else(|_| usage());
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    usage()
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    opts
}

/// Formats `table`'s metrics from `values` as the result's `metrics`
/// object, printing one human-readable line per metric on the way.
fn metrics_json(table: &[(&str, &str)], values: &Values, required: bool) -> String {
    let mut json = String::from("{");
    for (i, &(name, unit)) in table.iter().enumerate() {
        let value = match values.get(name) {
            Some(&v) => v,
            None if required => panic!("workload did not report {name}"),
            None => 0.0,
        };
        assert!(value.is_finite(), "{name} is not finite: {value}");
        println!("  {name:<34} {value:>16.6} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push('}');
    json
}

fn main() {
    let opts = parse();
    let run: fn(&Opts) -> Outcome = match opts.workload.as_str() {
        "ca-closed" => closed::ca_closed,
        "tiered-closed" => closed::tiered_closed,
        "drift-open" => open::drift_open,
        "wall-open" => open::wall_open,
        _ => usage(),
    };
    span::set_enabled(opts.trace);
    let out = run(&opts);

    println!(
        "perfbench {} seed {} ({:.0} s, trace {})",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!(
        "  {:<34} {:>16.6} ratio ({} of {} failed)",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    println!(
        "  {:<34} {:>16.6} ratio (host metrics are divided by it)",
        "host slowdown (probe)", out.slowdown
    );
    let metrics = if opts.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| "perfbench/target".into(), std::path::PathBuf::from);
        let path = dir
            .join("perfbench-spans")
            .join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
        match span::write_jsonl(&path) {
            Ok(n) => println!("  {n} spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        metrics_json(PER_LAYER, &out.layer, false)
    } else {
        metrics_json(END_TO_END, &out.e2e, true)
    };
    if !out.correct {
        eprintln!("output check failed on {}", opts.workload);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct, out.attempted, out.failed, metrics
    );
    if !out.correct {
        std::process::exit(1);
    }
}
