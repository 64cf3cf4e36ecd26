//! Shared harness for regenerating every table and figure of the paper.
//!
//! The `figures` binary (`cargo run -p cachegen-bench --release --bin
//! figures -- <experiment>|all`) drives the functions in this crate; the
//! bench targets under `benches/` reuse the same builders and time every
//! row through one primitive, [`harness::sample`], writing the
//! `BENCH_*.json` snapshots through one writer, [`harness::Snapshot`].
//!
//! Two measurement scales (README.md, "Paper mapping", §7 evaluation):
//! * **functional** — quality numbers (accuracy / F1 / perplexity) and
//!   compression ratios are *measured* by running the simulator codec;
//! * **analytic** — GB sizes and second-scale TTFTs apply those measured
//!   ratios to the real models' dimensions ([`cachegen_llm::ModelSpec`]).

pub mod experiments;
pub mod harness;

pub use harness::{Bench, QualityReport};
