//! Functional transformer simulator + analytic LLM cost model.
//!
//! The CacheGen paper evaluates on Mistral-7B, Llama-34B and Llama-70B
//! running on NVIDIA A40 GPUs. Neither the models nor the GPUs are available
//! to this reproduction, so this crate substitutes them at two scales
//! (README.md, "Paper mapping", §7 evaluation):
//!
//! 1. **Functional scale** — [`SimTransformer`]: a real decoder-only
//!    transformer (multi-head attention with RoPE, RMSNorm, SwiGLU MLP)
//!    with deterministic random weights, small enough to run on CPU. It
//!    *actually computes* KV caches via self-attention, so the paper's
//!    distributional insights (token-wise locality, layer sensitivity,
//!    channel structure — §5.1) emerge from genuine computation. Quality
//!    metrics compare generation with a lossy KV cache against the
//!    full-precision reference.
//! 2. **Analytic scale** — [`ModelSpec`] + [`GpuSpec`]: closed-form FLOP /
//!    byte / latency models parameterised with the *real* models' dimensions,
//!    used to report GB-scale sizes and second-scale delays with compression
//!    ratios *measured* at the functional scale.
//!
//! The KV cache type ([`KvCache`]) is shared by both scales and by every
//! downstream crate (quantizers, codec, streamer, baselines).

pub mod cost;
pub mod eval;
pub mod kv;
pub mod model;
pub mod transformer;

pub use cost::{GpuSpec, ModelSpec};
pub use kv::KvCache;
pub use model::SimModelConfig;
pub use transformer::SimTransformer;
