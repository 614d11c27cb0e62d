//! # workloads — synthetic recommendation workloads
//!
//! The UpDLRM paper evaluates on six real-world datasets (Table 1) plus
//! MovieLens/Twitch/GoodReads access traces. Those datasets cannot ship
//! with this repository, so this crate synthesizes workloads that match
//! the properties UpDLRM's algorithms actually consume:
//!
//! * item counts and average multi-hot reduction exactly as in Table 1,
//! * Zipf popularity skew per hotness class (reproducing Fig. 5's
//!   row-block imbalance),
//! * planted co-occurrence clusters so partial-sum cache mining
//!   (GRACE-style) finds real structure,
//! * deterministic generation from a seed.
//!
//! ## Example
//!
//! ```rust
//! use workloads::{DatasetSpec, FreqProfile, TraceConfig, Workload};
//!
//! let spec = DatasetSpec::goodreads().scaled_down(1000);
//! let workload = Workload::generate(&spec, TraceConfig { num_batches: 2, ..TraceConfig::default() });
//! let profile = FreqProfile::from_inputs(spec.num_items, workload.table_inputs(0));
//! assert!(profile.block_skew(8) > 1.0); // GoodReads-like traces are skewed
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod drift;
pub mod io;
pub mod pack;
pub mod profile;
pub mod spec;
pub mod trace;
pub mod zipf;

pub use arrival::{ArrivalProcess, ArrivalTrace, NS_PER_SEC};
pub use drift::{ActiveHotSet, DiurnalCurve, DriftSchedule, FlashCrowd, HotSetRotation};
pub use pack::{save_packed, write_packed, PackError, PackedTables};
pub use profile::FreqProfile;
pub use spec::{CooccurConfig, DatasetSpec, Hotness};
pub use trace::{TraceConfig, Workload};
pub use zipf::ZipfSampler;
