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
//!   without pulling in `rand_distr`,
//! * [`pool`] — the workspace's one executor, a bounded queue drained by
//!   scoped workers; the only module here that spawns threads.
//!
//! Everything else is deterministic, single-threaded and
//! allocation-explicit: no global state. The executor only ever runs
//! independent jobs, so what a batch computes does not depend on how many
//! workers ran it.

mod dense;
pub mod linalg;
pub mod pool;
pub mod rng;
pub mod stats;

pub use dense::Tensor;

/// Tier-1 builds this crate optimised (the dev profile in the root
/// `Cargo.toml`): optimising must not switch a check off.
#[cfg(test)]
#[test]
#[should_panic(expected = "attempt to add with overflow")]
fn optimised_dev_build_keeps_its_checks() {
    assert!(
        std::hint::black_box(cfg!(debug_assertions)),
        "debug assertions are off"
    );
    let _ = std::hint::black_box(u8::MAX) + 1;
}
