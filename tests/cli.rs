//! Integration tests for the `updlrm` command-line binary.

use std::process::Command;

fn updlrm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_updlrm"))
}

#[test]
fn info_prints_dataset_facts() {
    let out = updlrm()
        .args(["info", "--dataset", "read2"])
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("GoodReads2"));
    assert!(text.contains("374.08"));
    assert!(text.contains("2360650"));
}

#[test]
fn run_reports_latency_breakdown() {
    let out = updlrm()
        .args([
            "run",
            "--dataset",
            "movie",
            "--strategy",
            "nu",
            "--dpus",
            "32",
            "--scale",
            "1000",
            "--batches",
            "2",
        ])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("UpDLRM on Movie"));
    assert!(text.contains("embedding:"));
    assert!(text.contains("PIM stages"));
}

#[test]
fn run_supports_every_backend() {
    for backend in ["cpu", "hybrid", "fae"] {
        let out = updlrm()
            .args([
                "run",
                "--dataset",
                "clo",
                "--backend",
                backend,
                "--scale",
                "2000",
                "--batches",
                "1",
            ])
            .output()
            .expect("run");
        assert!(
            out.status.success(),
            "{backend}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn trace_round_trips_through_a_file() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cli-trace.upwl");
    let out = updlrm()
        .args([
            "trace",
            "--dataset",
            "twitch",
            "--scale",
            "2000",
            "--batches",
            "2",
            "--out",
        ])
        .arg(&path)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut f = std::fs::File::open(&path).expect("trace file written");
    let loaded = updlrm::workloads::Workload::load(&mut f).expect("valid UPWL file");
    assert_eq!(loaded.batches.len(), 2);
    assert_eq!(loaded.spec.name, "Twitch");
    std::fs::remove_file(&path).ok();
}

/// Small, fast `run` argument prefix shared by the flag tests.
const QUICK_RUN: [&str; 9] = [
    "run",
    "--dataset",
    "read",
    "--dpus",
    "32",
    "--scale",
    "1000",
    "--batches",
    "2",
];

#[test]
fn run_accepts_host_threads_values() {
    for threads in ["1", "2", "8"] {
        let out = updlrm()
            .args(QUICK_RUN)
            .args(["--host-threads", threads])
            .output()
            .expect("run");
        assert!(
            out.status.success(),
            "--host-threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn run_rejects_garbage_host_threads() {
    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--host-threads", "lots"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("host-threads"), "stderr: {err}");
}

#[test]
fn run_pipeline_doublebuf_reports_serving_stats() {
    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--pipeline", "doublebuf"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("double-buffered"), "stdout: {text}");
    assert!(text.contains("throughput"), "stdout: {text}");
    assert!(text.contains("p95"), "stdout: {text}");
}

#[test]
fn run_pipeline_sequential_is_the_default_and_accepted() {
    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--pipeline", "sequential"])
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("per-batch mean"), "stdout: {text}");
}

#[test]
fn run_rejects_bad_pipeline_and_queue_depth() {
    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--pipeline", "turbo"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("pipeline mode"));

    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--queue-depth", "0"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("queue-depth"));

    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--queue-depth", "many"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn run_doublebuf_requires_updlrm_backend() {
    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--backend", "cpu", "--pipeline", "doublebuf"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --backend updlrm"));
}

#[test]
fn json_report_reflects_flags() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("run-report.json");
    let out = updlrm()
        .args(QUICK_RUN)
        .args([
            "--host-threads",
            "2",
            "--pipeline",
            "doublebuf",
            "--queue-depth",
            "3",
            "--json",
        ])
        .arg(&path)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("json written");
    assert!(json.contains("\"pipeline\": \"doublebuf\""), "{json}");
    assert!(json.contains("\"queue_depth\": 3"), "{json}");
    assert!(json.contains("\"host_threads\": 2"), "{json}");
    assert!(json.contains("\"throughput_qps\""), "{json}");
    // The effective in-flight depth is capped at the two MRAM slots.
    assert!(
        json.contains("\"serve\": {\n    \"mode\": \"doublebuf\",\n    \"queue_depth\": 2"),
        "{json}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_snapshot_is_deterministic_across_runs() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("metrics-a.json");
    let b = dir.join("metrics-b.json");
    for path in [&a, &b] {
        let out = updlrm()
            .args(QUICK_RUN)
            .args(["--seed", "7", "--host-threads", "1", "--metrics"])
            .arg(path)
            .output()
            .expect("run");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let first = std::fs::read(&a).expect("snapshot a");
    let second = std::fs::read(&b).expect("snapshot b");
    assert!(
        first == second,
        "same-seed metrics snapshots must be byte-identical"
    );
    // The snapshot carries only modeled values and counts.
    let text = String::from_utf8(first).expect("utf8 json");
    assert!(text.contains("\"schema_version\": 5"), "{text}");
    assert!(text.contains("\"per_dpu\""), "{text}");
    assert!(text.contains("\"load_imbalance\""), "{text}");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn stats_pretty_prints_a_snapshot() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics-stats.json");
    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--pipeline", "doublebuf", "--metrics"])
        .arg(&path)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = updlrm()
        .arg("stats")
        .arg("--metrics")
        .arg(&path)
        .output()
        .expect("stats");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("schema v5"), "stdout: {text}");
    assert!(text.contains("stage shares"), "stdout: {text}");
    assert!(text.contains("load imbalance"), "stdout: {text}");
    assert!(text.contains("fleet: 32 DPUs"), "stdout: {text}");
    // The doublebuf run recorded serve-level overlap statistics.
    assert!(text.contains("saved by overlap"), "stdout: {text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn metrics_requires_the_updlrm_backend() {
    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--backend", "cpu", "--metrics", "/tmp/never-written.json"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --backend updlrm"));
}

#[test]
fn stats_without_metrics_flag_exits_with_usage() {
    let out = updlrm().arg("stats").output().expect("stats");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--metrics"));
}

#[test]
fn json_report_is_a_superset_of_the_text_breakdown() {
    // Regression: with --iters the text output printed the "PIM stages"
    // line but the --json report dropped the per-stage breakdown.
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, extra) in [
        ("stages-iters.json", &["--iters", "2", "--json"][..]),
        ("stages-plain.json", &["--json"][..]),
        (
            "stages-dbl.json",
            &["--pipeline", "doublebuf", "--json"][..],
        ),
    ] {
        let path = dir.join(name);
        let out = updlrm()
            .args(QUICK_RUN)
            .args(extra)
            .arg(&path)
            .output()
            .expect("run");
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read_to_string(&path).expect("json written");
        for field in [
            "\"stages\": {",
            "\"stage1_us\"",
            "\"stage2_pct\"",
            "\"lookup_imbalance\"",
            "\"pipelining_savings_pct\"",
        ] {
            assert!(json.contains(field), "{name} missing {field}: {json}");
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Small, fast `serve` argument prefix shared by the open-loop tests.
const QUICK_SERVE: [&str; 11] = [
    "serve",
    "--dataset",
    "read",
    "--dpus",
    "32",
    "--scale",
    "1000",
    "--batches",
    "3",
    "--qps",
    "300000",
];

#[test]
fn serve_reports_load_latency_and_admission() {
    let out = updlrm()
        .args(QUICK_SERVE)
        .args(["--arrival", "bursty", "--policy", "shed-oldest"])
        .output()
        .expect("serve");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("open-loop serve"), "stdout: {text}");
    assert!(text.contains("offered"), "stdout: {text}");
    assert!(text.contains("achieved"), "stdout: {text}");
    assert!(text.contains("p99"), "stdout: {text}");
    assert!(text.contains("admission [shed-oldest]"), "stdout: {text}");
}

#[test]
fn serve_rejects_bad_flags_with_usage() {
    // Missing --qps entirely.
    let out = updlrm().args(["serve"]).output().expect("serve");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--qps"));

    for (bad, needle) in [
        (&["--qps", "0"][..], "--qps"),
        (&["--qps", "-3"][..], "--qps"),
        (&["--qps", "fast"][..], "--qps"),
        (&["--qps", "1000", "--arrival", "uniform"][..], "arrival"),
        (&["--qps", "1000", "--max-batch", "0"][..], "max-batch"),
        (&["--qps", "1000", "--max-wait-us", "0"][..], "max-wait-us"),
        (&["--qps", "1000", "--queue-cap", "0"][..], "queue-cap"),
        (&["--qps", "1000", "--policy", "drop-all"][..], "policy"),
    ] {
        let out = updlrm().arg("serve").args(bad).output().expect("serve");
        assert_eq!(out.status.code(), Some(2), "args: {bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "args {bad:?}: stderr {err}");
    }
}

#[test]
fn serve_runtime_flags_are_validated() {
    // Wall-only flags must be rejected under the default modeled
    // runtime, and the wall runtime rejects nonsense shapes.
    for (bad, needle) in [
        (&["--qps", "1000", "--runtime", "hourglass"][..], "runtime"),
        (&["--qps", "1000", "--shards", "2"][..], "--runtime wall"),
        (&["--qps", "1000", "--deterministic"][..], "--runtime wall"),
        (
            &["--qps", "1000", "--time-scale", "2"][..],
            "--runtime wall",
        ),
        (
            &["--qps", "1000", "--runtime", "wall", "--shards", "0"][..],
            "--shards",
        ),
        (
            &["--qps", "1000", "--runtime", "wall", "--time-scale", "0"][..],
            "time-scale",
        ),
    ] {
        let out = updlrm().arg("serve").args(bad).output().expect("serve");
        assert_eq!(out.status.code(), Some(2), "args: {bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "args {bad:?}: stderr {err}");
    }
}

#[test]
fn serve_runtime_wall_deterministic_locks_to_the_oracle() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("serve-wall.json");
    let out = updlrm()
        .args(QUICK_SERVE)
        .args([
            "--seed",
            "7",
            "--host-threads",
            "1",
            "--runtime",
            "wall",
            "--shards",
            "2",
            "--deterministic",
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("serve");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("wall-clock serve"), "stdout: {text}");
    assert!(text.contains("2 shards"), "stdout: {text}");
    assert!(
        text.contains("oracle lock: OK"),
        "deterministic wall run must reproduce the modeled scheduler: {text}"
    );
    assert!(text.contains("service walls"), "stdout: {text}");
    let body = std::fs::read_to_string(&json).expect("wall json");
    for field in [
        "\"runtime\"",
        "\"shards\": 2",
        "\"deterministic\": true",
        "\"measured_qps\"",
        "\"modeled_report\"",
        "\"batches_per_shard\"",
    ] {
        assert!(body.contains(field), "missing {field}: {body}");
    }
    assert!(
        !body.contains("NaN") && !body.contains("inf"),
        "wall json must stay finite: {body}"
    );
    std::fs::remove_file(&json).ok();
}

#[test]
fn run_with_zero_batches_emits_finite_json() {
    // Regression (ISSUE 6): an empty run used to divide by zero batch
    // counts and leak NaN into `--json`, which the vendored serde
    // renders as an unparseable bare token.
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("run-zero.json");
    let out = updlrm()
        .args([
            "run",
            "--dataset",
            "read",
            "--dpus",
            "32",
            "--scale",
            "1000",
            "--batches",
            "0",
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&json).expect("zero-batch json");
    assert!(
        !body.contains("NaN") && !body.contains("inf"),
        "zero-batch json must stay finite: {body}"
    );
    assert!(body.contains("\"mean_total_us\": 0.0"), "{body}");
    std::fs::remove_file(&json).ok();
}

#[test]
fn serve_fully_shed_json_stays_finite() {
    // Offered load ~1000x capacity with a tiny queue: nearly every
    // arrival is shed, and whatever statistics remain must still be
    // finite numbers in the emitted JSON (satellite of ISSUE 6).
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("serve-shed.json");
    let out = updlrm()
        .args([
            "serve",
            "--dataset",
            "read",
            "--dpus",
            "32",
            "--scale",
            "1000",
            "--batches",
            "2",
            "--qps",
            "50000000",
            "--queue-cap",
            "8",
            "--max-batch",
            "8",
            "--policy",
            "shed-oldest",
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("serve");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&json).expect("shed json");
    assert!(
        !body.contains("NaN") && !body.contains("inf"),
        "shed json must stay finite: {body}"
    );
    assert!(body.contains("\"shed\""), "{body}");
    std::fs::remove_file(&json).ok();
}

#[test]
fn serve_json_and_metrics_are_deterministic_across_runs() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let paths = [
        (dir.join("serve-a.json"), dir.join("serve-a-metrics.json")),
        (dir.join("serve-b.json"), dir.join("serve-b-metrics.json")),
    ];
    for (json, metrics) in &paths {
        let out = updlrm()
            .args(QUICK_SERVE)
            .args(["--seed", "7", "--host-threads", "1", "--json"])
            .arg(json)
            .arg("--metrics")
            .arg(metrics)
            .output()
            .expect("serve");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let a = std::fs::read(&paths[0].0).expect("json a");
    let b = std::fs::read(&paths[1].0).expect("json b");
    assert!(a == b, "same-seed serve --json must be byte-identical");
    let text = String::from_utf8(a).expect("utf8 json");
    for field in [
        "\"offered_qps\"",
        "\"achieved_qps\"",
        "\"p99_latency_ns\"",
        "\"batch_hist\"",
        "\"policy\": \"shed-oldest\"",
    ] {
        assert!(text.contains(field), "missing {field}: {text}");
    }
    let a = std::fs::read(&paths[0].1).expect("metrics a");
    let b = std::fs::read(&paths[1].1).expect("metrics b");
    assert!(a == b, "same-seed serve --metrics must be byte-identical");
    // The scheduler counters made it into the engine snapshot.
    let text = String::from_utf8(a).expect("utf8 json");
    assert!(text.contains("\"sched\""), "{text}");
    assert!(text.contains("\"trigger_size\""), "{text}");
    for (json, metrics) in &paths {
        std::fs::remove_file(json).ok();
        std::fs::remove_file(metrics).ok();
    }
}

#[test]
fn stats_rejects_snapshots_from_other_schema_versions() {
    // Regression: `stats` used to print whatever parsed, silently
    // misreading snapshots written by older/newer binaries.
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics-doctored.json");
    let out = updlrm()
        .args(QUICK_RUN)
        .args(["--metrics"])
        .arg(&path)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("snapshot");
    assert!(text.contains("\"schema_version\": 5"), "{text}");
    let doctored = text.replace("\"schema_version\": 5", "\"schema_version\": 1");
    std::fs::write(&path, doctored).expect("doctor snapshot");
    let out = updlrm()
        .arg("stats")
        .arg("--metrics")
        .arg(&path)
        .output()
        .expect("stats");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("schema v1"), "stderr: {err}");
    assert!(err.contains("reads v5"), "stderr: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn trace_with_arrivals_emits_a_v2_file_that_round_trips() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cli-trace-arrivals.upwl");
    let out = updlrm()
        .args([
            "trace",
            "--dataset",
            "movie",
            "--scale",
            "2000",
            "--batches",
            "2",
            "--arrival",
            "bursty",
            "--qps",
            "250000",
            "--out",
        ])
        .arg(&path)
        .output()
        .expect("trace");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("bursty arrivals at 250000 qps"));
    let mut f = std::fs::File::open(&path).expect("trace file written");
    let loaded = updlrm::workloads::Workload::load(&mut f).expect("valid UPWL v2 file");
    assert_eq!(loaded.arrivals.len(), loaded.num_queries());
    assert_eq!(loaded.arrivals.process.tag(), "bursty");

    // --arrival without --qps is an error, not a silent default rate.
    let out = updlrm()
        .args(["trace", "--arrival", "poisson", "--out", "/tmp/never.upwl"])
        .output()
        .expect("trace");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--qps"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_arguments_exit_nonzero() {
    let out = updlrm()
        .args(["run", "--dataset", "nope"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let out = updlrm().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    let out = updlrm().output().expect("run");
    assert!(!out.status.success());
}

/// Flags that regenerate `tests/golden/placement_plan.json` exactly.
const GOLDEN_PLAN_FLAGS: [&str; 21] = [
    "plan",
    "--dataset",
    "read",
    "--scale",
    "5000",
    "--tables",
    "2",
    "--batches",
    "2",
    "--seed",
    "7",
    "--ranks",
    "2",
    "--dpus-per-rank",
    "4",
    "--emt-kb",
    "24",
    "--host-kb",
    "12",
    "--replicate-top",
    "24",
];

#[test]
fn plan_generation_is_deterministic_and_inspectable() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("plan-a.json");
    let b = dir.join("plan-b.json");
    for path in [&a, &b] {
        let out = updlrm()
            .args(GOLDEN_PLAN_FLAGS)
            .arg("--out")
            .arg(path)
            .output()
            .expect("plan");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("fleet: 2 ranks x 4 DPUs"), "stdout: {text}");
        assert!(text.contains("tiers:"), "stdout: {text}");
        assert!(text.contains("estimate: tiered"), "stdout: {text}");
    }
    let first = std::fs::read(&a).expect("plan a");
    let second = std::fs::read(&b).expect("plan b");
    assert!(
        first == second,
        "same-flag placement plans must be byte-identical"
    );
    // Inspect mode reads the plan back and re-prints the same summary.
    let out = updlrm()
        .args(["plan", "--load"])
        .arg(&a)
        .output()
        .expect("plan --load");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("schema v1, planner seed 7"), "stdout: {text}");
    assert!(text.contains("rank balance"), "stdout: {text}");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn golden_placement_plan_matches_checked_in_file() {
    // The golden plan locks the planner's full serialized output: any
    // intentional change must regenerate the file (same flags as
    // GOLDEN_PLAN_FLAGS) and show up in review as a diff.
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("plan-golden.json");
    let out = updlrm()
        .args(GOLDEN_PLAN_FLAGS)
        .arg("--out")
        .arg(&path)
        .output()
        .expect("plan");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = std::fs::read(&path).expect("regenerated plan");
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/placement_plan.json"
    ))
    .expect("checked-in golden plan");
    assert!(
        fresh == golden,
        "regenerated plan diverges from tests/golden/placement_plan.json; \
         if intentional, regenerate it with `updlrm {}` --out tests/golden/placement_plan.json",
        GOLDEN_PLAN_FLAGS[1..].join(" ")
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn golden_plan_engine_snapshot_matches_checked_in_file() {
    // Serving the committed plan locks the plan-built engine's whole
    // modeled path (tier routing, per-rank scatter/launch/gather, fleet
    // combine) through its telemetry snapshot.
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("tiered-golden.json");
    let golden_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let out = updlrm()
        .args(["run", "--plan"])
        .arg(format!("{golden_dir}/placement_plan.json"))
        .arg("--metrics")
        .arg(&path)
        .output()
        .expect("run --plan");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let fresh = std::fs::read(&path).expect("plan-engine snapshot");
    let golden =
        std::fs::read(format!("{golden_dir}/tiered_snapshot.json")).expect("checked-in golden");
    assert!(
        fresh == golden,
        "plan-engine snapshot diverges from tests/golden/tiered_snapshot.json; if intentional, \
         regenerate it with `updlrm run --plan tests/golden/placement_plan.json \
         --metrics tests/golden/tiered_snapshot.json`"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn plan_and_run_reject_foreign_schema_versions() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("plan-doctored.json");
    let out = updlrm()
        .args(GOLDEN_PLAN_FLAGS)
        .arg("--out")
        .arg(&path)
        .output()
        .expect("plan");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).expect("plan");
    assert!(text.contains("\"schema_version\": 1"), "{text}");
    let doctored = text.replace("\"schema_version\": 1", "\"schema_version\": 99");
    std::fs::write(&path, doctored).expect("doctor plan");
    for args in [
        vec!["plan", "--load"],
        vec!["run", "--dataset", "read", "--plan"],
    ] {
        let out = updlrm().args(&args).arg(&path).output().expect("doctored");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("schema v99"), "stderr: {err}");
        assert!(err.contains("reads v1"), "stderr: {err}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_with_plan_serves_the_tiered_engine() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let plan_path = dir.join("plan-run.json");
    let json_path = dir.join("plan-run-report.json");
    let metrics_path = dir.join("plan-run-metrics.json");
    let out = updlrm()
        .args(GOLDEN_PLAN_FLAGS)
        .arg("--out")
        .arg(&plan_path)
        .output()
        .expect("plan");
    assert!(out.status.success());
    let out = updlrm()
        .args(["run", "--dataset", "read", "--plan"])
        .arg(&plan_path)
        .arg("--json")
        .arg(&json_path)
        .arg("--metrics")
        .arg(&metrics_path)
        .output()
        .expect("run --plan");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("UpDLRM (tiered plan)"), "stdout: {text}");
    assert!(text.contains("tier routing:"), "stdout: {text}");
    assert!(text.contains("host hits"), "stdout: {text}");
    let json = std::fs::read_to_string(&json_path).expect("report json");
    assert!(json.contains("\"strategy\": \"plan\""), "{json}");
    assert!(json.contains("\"dpus\": 6"), "{json}");
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics");
    assert!(metrics.contains("\"per_dpu\""), "{metrics}");
    // A tiered backend other than updlrm is a contradiction: exit 2.
    let out = updlrm()
        .args(["run", "--dataset", "read", "--backend", "cpu", "--plan"])
        .arg(&plan_path)
        .output()
        .expect("run --plan --backend cpu");
    assert_eq!(out.status.code(), Some(2));
    for p in [&plan_path, &json_path, &metrics_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn trace_then_serve_replans_a_v3_workload() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("drift.upwl");
    let snap_path = dir.join("drift_snap.json");

    let out = updlrm()
        .args([
            "trace",
            "--dataset",
            "read",
            "--scale",
            "5000",
            "--batches",
            "4",
            "--qps",
            "10000",
            "--rotate",
            "4:64:2000:0.8",
        ])
        .arg("--out")
        .arg(&trace_path)
        .output()
        .expect("trace");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("UPWL v3, drifting"),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let out = updlrm()
        .args([
            "serve",
            "--max-batch",
            "32",
            "--dpus",
            "128",
            "--strategy",
            "u",
            "--replan",
            "periodic:8",
        ])
        .arg("--workload-v3")
        .arg(&trace_path)
        .arg("--drift-snapshot")
        .arg(&snap_path)
        .output()
        .expect("serve");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("replan [periodic:8]"), "stdout: {text}");
    let snap = std::fs::read_to_string(&snap_path).expect("drift snapshot");
    assert!(snap.contains("\"replans_triggered\": 1"), "{snap}");
    assert!(snap.contains("\"migrations_completed\": 0"), "{snap}");
    for p in [&trace_path, &snap_path] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn serve_rejects_doctored_v3_with_out_of_range_hot_sets() {
    use updlrm::prelude::*;

    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("doctored.upwl");

    // A structurally valid v3 file whose drift schedule points its hot
    // sets far beyond the table: save() writes it (no exit path there),
    // the loader must reject it, and the CLI must surface exit 2.
    let spec = DatasetSpec::goodreads().scaled_down(5000);
    let mut workload = Workload::generate(
        &spec,
        TraceConfig {
            num_batches: 1,
            ..TraceConfig::default()
        },
    );
    workload.stamp_arrivals(ArrivalProcess::poisson(10_000.0, 7));
    workload.drift = Some(DriftSchedule {
        rotation: Some(HotSetRotation {
            num_sets: 64,
            set_size: 1 << 20,
            period_ns: 1_000_000,
            hot_fraction: 0.5,
        }),
        spikes: Vec::new(),
        diurnal: None,
    });
    let mut file = std::fs::File::create(&path).expect("create");
    workload.save(&mut file).expect("save");
    drop(file);

    let out = updlrm()
        .args(["serve", "--dpus", "128"])
        .arg("--workload-v3")
        .arg(&path)
        .output()
        .expect("serve");
    assert_eq!(out.status.code(), Some(2), "doctored v3 must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("rows"), "stderr: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_replan_flag_is_validated() {
    // Unknown policy spelling: exit 2.
    let out = updlrm()
        .args(["serve", "--qps", "1000", "--replan", "sometimes"])
        .output()
        .expect("serve");
    assert_eq!(out.status.code(), Some(2));
    // Replanning needs the modeled scheduler's between-batch tick.
    let out = updlrm()
        .args([
            "serve",
            "--qps",
            "1000",
            "--replan",
            "periodic:4",
            "--runtime",
            "wall",
        ])
        .output()
        .expect("serve");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("replanning requires the modeled runtime"),
        "stderr should explain the wall-runtime limitation: {err}"
    );
    // A drift snapshot without a replanner can never exist.
    let out = updlrm()
        .args([
            "serve",
            "--qps",
            "1000",
            "--drift-snapshot",
            "/tmp/nope.json",
        ])
        .output()
        .expect("serve");
    assert_eq!(out.status.code(), Some(2));
}

fn tenants_toml() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/tenants.toml")
}

#[test]
fn serve_tenants_runs_the_example_fleet() {
    let out = updlrm()
        .args(["serve", "--tenants"])
        .arg(tenants_toml())
        .output()
        .expect("serve");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("search"), "stdout: {text}");
    assert!(text.contains("ads"), "stdout: {text}");
    assert!(text.contains("drr"), "stdout: {text}");
    assert!(text.contains("p99"), "stdout: {text}");
}

#[test]
fn serve_tenants_json_is_deterministic() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let a = dir.join("tenants-a.json");
    let b = dir.join("tenants-b.json");
    for path in [&a, &b] {
        let out = updlrm()
            .args(["serve", "--tenants"])
            .arg(tenants_toml())
            .arg("--json")
            .arg(path)
            .output()
            .expect("serve");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let ja = std::fs::read_to_string(&a).expect("read a");
    let jb = std::fs::read_to_string(&b).expect("read b");
    assert_eq!(ja, jb, "same tenants file must serialize byte-identically");
    let report: updlrm::prelude::FleetReport =
        serde::json::from_str(&ja).expect("parse fleet report");
    assert_eq!(report.tenants.len(), 2);
    assert_eq!(report.tenants[0].name, "search");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn serve_tenants_rejects_incompatible_flags() {
    // Single-tenant workload flags cannot combine with a tenants file.
    for extra in [
        ["--qps", "1000"],
        ["--replan", "periodic:4"],
        ["--runtime", "wall"],
        ["--dataset", "movie"],
    ] {
        let out = updlrm()
            .args(["serve", "--tenants"])
            .arg(tenants_toml())
            .args(extra)
            .output()
            .expect("serve");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{extra:?} should be rejected: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // --no-isolation only makes sense with --tenants.
    let out = updlrm()
        .args(["serve", "--qps", "1000", "--no-isolation"])
        .output()
        .expect("serve");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn serve_tenants_rejects_bad_toml() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bad-tenants.toml");
    std::fs::write(&path, "[fleet]\ndpus = 16\nwibble = 3\n").expect("write");
    let out = updlrm()
        .args(["serve", "--tenants"])
        .arg(&path)
        .output()
        .expect("serve");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("wibble"), "stderr should name the key: {err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn capacity_sweeps_fleet_sizes() {
    let dir = std::env::temp_dir().join("updlrm-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("capacity.json");
    let out = updlrm()
        .args(["capacity", "--tenants"])
        .arg(tenants_toml())
        .args(["--min-dpus", "8", "--max-dpus", "16", "--json"])
        .arg(&json)
        .output()
        .expect("capacity");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("16 DPUs"), "stdout: {text}");
    assert!(
        text.contains("smallest swept fleet meeting every SLO: 16 DPUs"),
        "stdout: {text}"
    );
    let text = std::fs::read_to_string(&json).expect("read json");
    let points: Vec<updlrm::prelude::CapacityPoint> =
        serde::json::from_str(&text).expect("parse capacity points");
    assert_eq!(points.len(), 2);
    assert!(!points[0].all_slos_met, "8 DPUs should miss the SLO");
    assert!(points[1].all_slos_met, "16 DPUs should meet the SLO");
    std::fs::remove_file(&json).ok();

    // Without a tenants file the command cannot run.
    let out = updlrm().arg("capacity").output().expect("capacity");
    assert_eq!(out.status.code(), Some(2));
}
