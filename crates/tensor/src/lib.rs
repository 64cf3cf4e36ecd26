//! Minimal dense-tensor substrate for the CacheGen reproduction.
//!
//! The CacheGen paper operates on KV caches: large multi-dimensional `f32`
//! tensors produced by a transformer's attention layers. This crate provides
//! the small set of numeric building blocks the rest of the workspace needs:
//!
//! * [`Tensor`] — a dense row-major `f32` tensor with shape checking,
//! * [`linalg`] — matrix multiplication, softmax, normalisation primitives
//!   used by the functional transformer simulator,
//! * [`stats`] — entropy / variance / quantile / CDF estimators used to
//!   reproduce the paper's distributional insights (§5.1, Figures 3 and 5),
//! * [`rng`] — deterministic seeded random sampling (normal / uniform)
//!   without pulling in `rand_distr`.
//!
//! Everything here is deterministic and allocation-explicit: no global state,
//! no threading. Parallelism lives in higher crates (`cachegen-codec`).

mod dense;
pub mod linalg;
pub mod rng;
pub mod stats;

pub use dense::Tensor;
