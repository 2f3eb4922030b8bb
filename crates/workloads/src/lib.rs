//! # prompt-workloads
//!
//! Workload generators for the Prompt (SIGMOD 2020) evaluation: the five
//! datasets of Table 1 rebuilt as seeded synthetic streams, arrival-rate
//! profiles (constant, sinusoidal, ramp, step), and the key/value
//! distribution machinery underneath (including an O(1) rejection-inversion
//! Zipf sampler).
//!
//! Every generator implements `prompt_core::source::TupleSource`, so it can
//! be plugged straight into `prompt_engine::driver::StreamingEngine`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datasets;
pub mod drift;
pub mod generator;
pub mod interner;
pub mod jitter;
pub mod keydist;
pub mod rate;

/// Convenient import surface.
pub mod prelude {
    pub use crate::datasets::{
        debs_taxi, gcm, synd, table1_profiles, tpch_lineitem, tweets, DatasetProfile, DebsField,
        DebsSource, TpchQuery, TpchSource,
    };
    pub use crate::drift::{AlphaDrift, HotSetChurn, TimedKeyDistribution};
    pub use crate::generator::{KeyModel, StreamGenerator, ValueModel};
    pub use crate::interner::{word, InternedSource, KeyInterner};
    pub use crate::jitter::JitterSource;
    pub use crate::keydist::{zipf_or_uniform, KeyDistribution, UniformKeys, ZipfKeys};
    pub use crate::rate::RateProfile;
}
