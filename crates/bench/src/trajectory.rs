//! The perf-trajectory harness shared by the gated benches.
//!
//! `drift_sweep`, `placement_sweep`, `sched_sweep`, `steady_state`,
//! `tenants` and `wall_sweep` each time one measured number per row and
//! track it across commits in a repo-root `BENCH_*.json`. Everything
//! around that number lives here, so the protocol is the same for all
//! of them:
//!
//! * **Flags.** `--smoke` (short sweep), `--check FILE` (gate against
//!   FILE's rows and write nothing) and `--out FILE` (output path,
//!   default the bench's repo-root file). Cargo's own `--bench` is
//!   ignored. Any other argument exits 2 with a usage line: a typo
//!   such as `--chek` must never fall through to write mode and
//!   overwrite the committed baseline.
//! * **Paths.** Cargo runs benches from the package directory, so
//!   relative paths resolve against the repo root ([`repo_path`]); CI
//!   passes plain `BENCH_sched.json` and means the committed file.
//! * **Baseline.** Read from `--check FILE`, else from the existing
//!   output file. In check mode a missing or malformed file, or one
//!   with no row carrying the gated metric, exits 1 instead of passing.
//! * **Gate.** Each measured row is compared with the first baseline
//!   row the bench's match accepts; it regresses when it is worse than
//!   that row by more than the bench's [`Gate`] bound. A zero or absent
//!   baseline never gates.
//! * **Output.** The bench's header fields, then `smoke` and `rows`,
//!   then the baseline's rows carried forward as `baseline_rows` under
//!   `baseline_label: "previous run"`. A failed write exits 1.

use std::fmt;
use std::path::{Path, PathBuf};

use serde::{Serialize, Value};

/// Label of the carried-forward rows in every trajectory file.
const BASELINE_LABEL: &str = "previous run";

const USAGE: &str = "usage: <bench> [--smoke] [--check FILE] [--out FILE]";

/// Resolves `path` against the repo root; an absolute path passes
/// through unchanged.
pub fn repo_path(path: impl AsRef<Path>) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
}

/// Writes `doc` as pretty JSON to `path`, exiting 1 on failure.
pub fn write_json<T: Serialize + ?Sized>(path: &Path, doc: &T) {
    match std::fs::write(path, serde::json::to_string_pretty(doc)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// The numeric value of `row[key]`, whichever JSON number type it
/// parsed as.
pub fn num(row: &Value, key: &str) -> Option<f64> {
    match row.get(key)? {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// The string value of `row[key]`.
pub fn text<'a>(row: &'a Value, key: &str) -> Option<&'a str> {
    match row.get(key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Whether a `steady_state` baseline row measured the same SIMD tier
/// and EMT dtype. Rows written before the `simd` field existed match
/// any tier, so the carried history stays meaningful; rows written
/// before `embed_dtype` existed measured f32, so they match only f32.
pub fn same_kernel(row: &Value, simd: &str, dtype: &str) -> bool {
    text(row, "simd").is_none_or(|s| s == simd)
        && text(row, "embed_dtype").unwrap_or("f32") == dtype
}

/// Parsed bench flags, paths resolved against the repo root.
#[derive(Debug)]
struct Args {
    /// `--smoke`: the bench's short sweep.
    smoke: bool,
    /// `--check FILE`: the baseline to gate against; nothing is written.
    check: Option<PathBuf>,
    /// `--out FILE`: where write mode puts the trajectory file.
    out: PathBuf,
}

impl Args {
    /// Parses `args` (without the program name). `default_out` is the
    /// output file when `--out` is absent.
    ///
    /// # Errors
    ///
    /// Any argument other than the three flags and cargo's `--bench`,
    /// or a `--check`/`--out` without a value.
    fn parse(args: impl IntoIterator<Item = String>, default_out: &str) -> Result<Args, String> {
        let mut args = args.into_iter();
        let mut parsed = Args {
            smoke: false,
            check: None,
            out: repo_path(default_out),
        };
        while let Some(a) = args.next() {
            let mut value = || {
                args.next()
                    .map(repo_path)
                    .ok_or_else(|| format!("{a} needs a file"))
            };
            match a.as_str() {
                "--smoke" => parsed.smoke = true,
                "--check" => parsed.check = Some(value()?),
                "--out" => parsed.out = value()?,
                "--bench" => {}
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(parsed)
    }
}

/// Which way a measured metric improves.
#[derive(Debug, Clone, Copy)]
pub enum Better {
    /// Time-like metrics (ns/sample, ns/request, ns/row).
    Lower,
    /// Rate-like metrics (QPS).
    Higher,
}

/// The regression gate over one bench's measured metric.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Row field holding the measured value, in new and baseline rows.
    pub metric: &'static str,
    /// Unit printed in verdict lines.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Allowed factor on the baseline: a lower-is-better row regresses
    /// above `base * bound`, a higher-is-better row below it.
    pub bound: f64,
}

impl Gate {
    /// Lower-is-better metric gated at +20%, the default for time-like
    /// metrics.
    pub const fn lower(metric: &'static str, unit: &'static str) -> Gate {
        Gate {
            metric,
            unit,
            better: Better::Lower,
            bound: 1.20,
        }
    }

    /// Whether `measured` regresses against `base`; a zero baseline
    /// never gates.
    fn regressed(&self, measured: f64, base: f64) -> bool {
        base > 0.0
            && match self.better {
                Better::Lower => measured > base * self.bound,
                Better::Higher => measured < base * self.bound,
            }
    }

    /// Improvement factor over `base` (> 1 is better); 0.0 without a
    /// baseline.
    fn speedup(&self, measured: f64, base: f64) -> f64 {
        match (base > 0.0, self.better) {
            (false, _) => 0.0,
            (true, Better::Lower) => base / measured,
            (true, Better::Higher) => measured / base,
        }
    }
}

/// One row's comparison against its baseline row. Displays as the
/// `  1.23x vs baseline` suffix of a bench's row line (empty without a
/// baseline).
#[derive(Debug, Clone, Copy)]
pub struct Compared {
    /// The matching baseline row's metric, 0.0 when none matched.
    pub base: f64,
    /// Improvement factor over `base` (> 1 is better), 0.0 without one.
    pub speedup: f64,
}

impl fmt::Display for Compared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.base > 0.0 {
            write!(f, "  {:.2}x vs baseline", self.speedup)
        } else {
            Ok(())
        }
    }
}

/// One bench run: its flags, its gate, the baseline it compares
/// against and the regressions found so far.
#[derive(Debug)]
pub struct Trajectory {
    args: Args,
    gate: Gate,
    /// The baseline file's `rows`, kept only when some row carries the
    /// gated metric.
    baseline: Vec<Value>,
    regressions: Vec<String>,
}

impl Trajectory {
    /// Builds the run from the process arguments. Exits 2 with a usage
    /// line on bad flags, and 1 when check mode has no usable baseline.
    pub fn from_env(default_out: &str, gate: Gate) -> Trajectory {
        let args = Args::parse(std::env::args().skip(1), default_out).unwrap_or_else(|e| {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        });
        Trajectory::new(args, gate).unwrap_or_else(|e| {
            eprintln!("check: {e}");
            std::process::exit(1);
        })
    }

    /// Loads the baseline: `--check FILE`, else the existing output
    /// file. Outside check mode an unusable file just means no baseline.
    ///
    /// # Errors
    ///
    /// In check mode, a baseline that is missing, malformed or has no
    /// row carrying the gated metric.
    fn new(args: Args, gate: Gate) -> Result<Trajectory, String> {
        let src = args.check.as_ref().unwrap_or(&args.out);
        let baseline = match std::fs::read_to_string(src).map(|s| serde::json::parse(&s)) {
            Ok(Ok(doc)) => match doc.get("rows") {
                Some(Value::Array(rows)) if rows.iter().any(|r| num(r, gate.metric).is_some()) => {
                    rows.clone()
                }
                _ => Vec::new(),
            },
            _ => Vec::new(),
        };
        if args.check.is_some() && baseline.is_empty() {
            return Err(format!(
                "baseline {} is missing, malformed, or has no rows",
                src.display()
            ));
        }
        Ok(Trajectory {
            args,
            gate,
            baseline,
            regressions: Vec::new(),
        })
    }

    /// Whether `--smoke` was passed.
    pub fn smoke(&self) -> bool {
        self.args.smoke
    }

    /// Compares `measured` with the first baseline row that `matches`
    /// accepts and records a regression under `label` if the gate
    /// trips.
    pub fn compare(
        &mut self,
        label: &str,
        measured: f64,
        matches: impl Fn(&Value) -> bool,
    ) -> Compared {
        let gate = self.gate;
        let base = (self.baseline.iter())
            .filter(|r| matches(r))
            .find_map(|r| num(r, gate.metric))
            .unwrap_or(0.0);
        if gate.regressed(measured, base) {
            let (sign, pct) = match gate.better {
                Better::Lower => ('+', measured / base - 1.0),
                Better::Higher => ('-', 1.0 - measured / base),
            };
            self.regressions.push(format!(
                "{label}: {measured:.1} {} vs baseline {base:.1} ({sign}{:.0}%)",
                gate.unit,
                pct * 100.0
            ));
        }
        Compared {
            base,
            speedup: gate.speedup(measured, base),
        }
    }

    /// The trajectory document: `header`, `smoke`, `rows`, then the
    /// carried baseline (when there is one).
    fn document<R: Serialize>(&self, mut header: Vec<(String, Value)>, rows: &[R]) -> Value {
        header.push(("smoke".into(), Value::Bool(self.args.smoke)));
        header.push((
            "rows".into(),
            Value::Array(rows.iter().map(Serialize::to_value).collect()),
        ));
        if !self.baseline.is_empty() {
            header.push(("baseline_label".into(), Value::Str(BASELINE_LABEL.into())));
            header.push(("baseline_rows".into(), Value::Array(self.baseline.clone())));
        }
        Value::Object(header)
    }

    /// Ends the run. Check mode prints the verdict and exits 1 on any
    /// regression; write mode writes the trajectory document to the
    /// output path.
    pub fn finish<R: Serialize>(self, header: Vec<(String, Value)>, rows: &[R]) {
        let Some(path) = &self.args.check else {
            write_json(&self.args.out, &self.document(header, rows));
            return;
        };
        let pct = (self.gate.bound - 1.0).abs() * 100.0;
        let limit = format!(">{pct:.0}% {}", self.gate.unit);
        if self.regressions.is_empty() {
            println!("check vs {}: OK (no {limit} regression)", path.display());
            return;
        }
        eprintln!("check vs {}: REGRESSION", path.display());
        for r in &self.regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()), "BENCH_x.json")
    }

    /// A per-test scratch file, so parallel tests never share one.
    fn scratch(name: &str, contents: Option<&str>) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "updlrm_trajectory_{}_{name}.json",
            std::process::id()
        ));
        match contents {
            Some(c) => std::fs::write(&path, c).expect("write scratch file"),
            None => {
                let _ = std::fs::remove_file(&path);
            }
        }
        path
    }

    fn check_run(path: &Path, gate: Gate) -> Result<Trajectory, String> {
        let args = Args {
            smoke: true,
            check: Some(path.to_path_buf()),
            out: scratch("unused_out", None),
        };
        Trajectory::new(args, gate)
    }

    const NS: Gate = Gate::lower("measured_ns", "ns");
    const QPS: Gate = Gate {
        metric: "measured_qps",
        unit: "qps",
        better: Better::Higher,
        bound: 0.65,
    };

    #[test]
    fn parses_the_three_flags_and_ignores_cargo_bench() {
        let a = args(&[
            "--smoke",
            "--check",
            "B.json",
            "--out",
            "/abs/o.json",
            "--bench",
        ])
        .unwrap();
        assert!(a.smoke);
        assert_eq!(a.check, Some(repo_path("B.json")));
        assert_eq!(a.out, PathBuf::from("/abs/o.json"));
        let d = args(&[]).unwrap();
        assert!(!d.smoke && d.check.is_none());
        assert_eq!(d.out, repo_path("BENCH_x.json"));
    }

    #[test]
    fn unknown_or_incomplete_flags_are_errors() {
        assert!(args(&["--chek", "BENCH_sched.json"]).is_err());
        assert!(args(&["--baseline-label", "x"]).is_err());
        assert!(args(&["--smoke", "stray"]).is_err());
        assert!(args(&["--check"]).is_err());
        assert!(args(&["--out"]).is_err());
    }

    #[test]
    fn relative_paths_resolve_against_the_repo_root() {
        let p = repo_path("BENCH_sched.json");
        assert!(p.is_absolute());
        assert!(p.ends_with("../../BENCH_sched.json"));
        assert!(p.parent().unwrap().join("Cargo.toml").exists());
        assert!(p.parent().unwrap().join("crates/bench").is_dir());
        assert_eq!(repo_path("/abs/B.json"), PathBuf::from("/abs/B.json"));
    }

    #[test]
    fn check_mode_rejects_unusable_baselines() {
        let missing = scratch("missing", None);
        let malformed = scratch("malformed", Some("{\"rows\": [1,"));
        let empty = scratch("empty", Some("{\"rows\": []}"));
        let no_metric = scratch("no_metric", Some("{\"rows\": [{\"other\": 1}]}"));
        for path in [&missing, &malformed, &empty, &no_metric] {
            let err = check_run(path, NS).unwrap_err();
            assert!(err.contains("missing, malformed, or has no rows"), "{err}");
        }
        let good = scratch("good", Some("{\"rows\": [{\"measured_ns\": 5}]}"));
        assert!(check_run(&good, NS).is_ok());
        // Outside check mode an unusable file only means no baseline.
        let write = Args {
            smoke: false,
            check: None,
            out: malformed.clone(),
        };
        assert!(Trajectory::new(write, NS).unwrap().baseline.is_empty());
        for p in [malformed, empty, no_metric, good] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn lower_is_better_gate_trips_just_above_its_bound() {
        assert!(!NS.regressed(100.0 * 1.20, 100.0));
        assert!(NS.regressed(100.0 * 1.20 + 1e-9, 100.0));
        assert!(!NS.regressed(50.0, 100.0));
        assert_eq!(NS.speedup(50.0, 100.0), 2.0);
    }

    #[test]
    fn higher_is_better_gate_trips_just_below_its_bound() {
        assert!(!QPS.regressed(1000.0 * 0.65, 1000.0));
        assert!(QPS.regressed(1000.0 * 0.65 - 1e-9, 1000.0));
        assert!(!QPS.regressed(5000.0, 1000.0));
        assert_eq!(QPS.speedup(2000.0, 1000.0), 2.0);
    }

    #[test]
    fn zero_or_absent_baselines_never_gate() {
        for gate in [NS, QPS] {
            assert!(!gate.regressed(1e12, 0.0));
            assert!(!gate.regressed(0.0, 0.0));
            assert_eq!(gate.speedup(1.0, 0.0), 0.0);
        }
        let path = scratch(
            "zero_base",
            Some("{\"rows\": [{\"k\": 1, \"measured_ns\": 0.0}]}"),
        );
        let mut t = check_run(&path, NS).unwrap();
        let c = t.compare("zero", 1e9, |r| num(r, "k") == Some(1.0));
        assert_eq!((c.base, c.speedup), (0.0, 0.0));
        let c = t.compare("absent", 1e9, |r| num(r, "k") == Some(2.0));
        assert_eq!(c.base, 0.0);
        assert_eq!(c.to_string(), "");
        assert!(t.regressions.is_empty());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn compare_gates_against_the_first_matching_row() {
        let path = scratch(
            "match",
            Some(
                "{\"rows\": [{\"arm\": \"a\", \"measured_ns\": 100}, \
                 {\"arm\": \"b\", \"measured_ns\": 10.0}]}",
            ),
        );
        let mut t = check_run(&path, NS).unwrap();
        let c = t.compare("b", 12.0, |r| text(r, "arm") == Some("b"));
        assert_eq!(c.base, 10.0);
        assert!(t.regressions.is_empty());
        let c = t.compare("a", 130.0, |r| text(r, "arm") == Some("a"));
        assert_eq!(c.to_string(), "  0.77x vs baseline");
        assert_eq!(t.regressions.len(), 1);
        assert!(
            t.regressions[0].contains("a: 130.0 ns vs baseline 100.0 (+30%)"),
            "{:?}",
            t.regressions
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rows_carry_forward_as_the_previous_run() {
        let path = scratch(
            "carry",
            Some("{\"bench\": \"x\", \"rows\": [{\"measured_ns\": 7}]}"),
        );
        let write = Args {
            smoke: true,
            check: None,
            out: path.clone(),
        };
        let t = Trajectory::new(write, NS).unwrap();
        let doc = t.document(vec![("bench".into(), Value::Str("x".into()))], &[1u32, 2]);
        let Value::Object(fields) = &doc else {
            panic!("document is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["bench", "smoke", "rows", "baseline_label", "baseline_rows"]
        );
        assert_eq!(doc.get("smoke"), Some(&Value::Bool(true)));
        assert_eq!(
            doc.get("baseline_label"),
            Some(&Value::Str("previous run".into()))
        );
        let carried = doc.get("baseline_rows").unwrap();
        assert_eq!(
            carried,
            &serde::json::parse("[{\"measured_ns\": 7}]").unwrap()
        );
        // Without a baseline nothing is carried.
        let fresh = Args {
            smoke: false,
            check: None,
            out: scratch("carry_fresh", None),
        };
        let doc = Trajectory::new(fresh, NS)
            .unwrap()
            .document(Vec::new(), &[1u32]);
        assert!(doc.get("baseline_rows").is_none() && doc.get("baseline_label").is_none());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn simd_is_a_wildcard_and_dtype_defaults_to_f32() {
        let row = |fields: &str| serde::json::parse(&format!("{{{fields}}}")).unwrap();
        let old = row("\"mode\": \"sequential\"");
        assert!(same_kernel(&old, "avx2", "f32"));
        assert!(same_kernel(&old, "scalar", "f32"));
        assert!(!same_kernel(&old, "avx2", "int8"));
        let tagged = row("\"simd\": \"avx2\", \"embed_dtype\": \"int8\"");
        assert!(same_kernel(&tagged, "avx2", "int8"));
        assert!(!same_kernel(&tagged, "avx512", "int8"));
        assert!(!same_kernel(&tagged, "avx2", "f32"));
    }
}
