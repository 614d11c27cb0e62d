//! # bench — the experiment harness
//!
//! Regenerates every table and figure of the UpDLRM paper's evaluation
//! (see DESIGN.md §3 for the experiment index). Each `bin/` target
//! prints one figure as an aligned table and mirrors it to
//! `target/experiments/*.csv`; [`experiments`] exposes the same data as
//! typed rows so the shape tests can assert the paper's qualitative
//! claims.
//!
//! Scale is controlled by the `UPDLRM_EVAL` environment variable:
//! `quick` (CI), unset/`standard`, or `full` (the paper's 12,800
//! inferences).

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod setup;
pub mod timing;
pub mod trajectory;

pub use report::{fmt_ns, BarChart, Table};
pub use setup::{EvalConfig, EvalSetup};
