//! # CacheGen: KV-cache compression and streaming for fast LLM serving
//!
//! A from-scratch Rust reproduction of the SIGCOMM 2024 paper
//! *CacheGen: KV Cache Compression and Streaming for Fast Large Language
//! Model Serving* (Liu et al.), including every substrate the paper depends
//! on: a functional transformer simulator, the delta + layer-wise
//! quantization + arithmetic-coding codec, a discrete-event network
//! simulator, the SLO-aware streaming adapter, the storage service, and all
//! evaluation baselines.
//!
//! ## Quick start
//!
//! ```
//! use cachegen::{CacheGenEngine, EngineConfig};
//! use cachegen_llm::SimModelConfig;
//!
//! // Build an engine around a (simulated) model; profiles are learned
//! // offline from sample contexts of that model.
//! let engine = CacheGenEngine::build(
//!     SimModelConfig::tiny(42),
//!     EngineConfig::default(),
//!     &[(0..64).map(|i| (i * 7) % 64).collect::<Vec<_>>()],
//! );
//!
//! // calculate_kv + encode: what the paper does offline per context.
//! let context: Vec<usize> = (0..60).map(|i| (i * 5) % 64).collect();
//! let cache = engine.calculate_kv(&context);
//! let encoded = engine.encode_at_level(&cache, 1);
//! assert!(encoded.total_bytes() < cache.size_bytes(16.0));
//!
//! // Decode (same level the adapter chose) and generate, skipping prefill.
//! // A damaged chunk is a typed error the caller handles, never noise.
//! let degraded = engine.try_decode_at_level(&encoded, 1)?;
//! let out = engine.generate_with_kv(&degraded, &[1, 2], 4);
//! assert_eq!(out.len(), 4);
//! # Ok::<(), cachegen_codec::CodecError>(())
//! ```
//!
//! ## Crate map
//!
//! * [`engine`] — [`CacheGenEngine`]: the §6 interfaces (`calculate_kv`,
//!   `store_kv`, `get_kv`, `generate_with_kv`) plus multi-level encoding.
//! * [`pipeline`] — functional end-to-end context loading, split as the
//!   paper splits it. *Ingest* once: [`CacheGenEngine::store_kv`]
//!   (prefill → encode every level → store bytes). *Load* many:
//!   [`load_stored`] streams the stored plan adaptively over a simulated
//!   link and reassembles the (lossy) KV cache from the stored bytes of
//!   whatever arrived, through the FEC→repair→refetch recovery ladder
//!   (erasure parity recovers losses byte-identically; what remains is
//!   repaired per [`RepairPolicy`], never stalled on). Stored bytes are
//!   outside input: anything wrong with them is a typed [`LoadError`].
//!   [`load_context`] is ingest + load in one call, for when a context
//!   is loaded once.
//! * [`ttft`] — the analytic TTFT model at real-model scale (Figures 8,
//!   11, 12, 19 are produced with it, using compression ratios measured on
//!   the functional codec).
//! * [`qoe`] — the quality-of-experience (mean-opinion-score) model used
//!   for the Figure 16 user-study reproduction.

pub mod engine;
pub mod pipeline;
pub mod qoe;
pub mod ttft;

pub use cachegen_codec::repair::RepairPolicy;
pub use cachegen_streamer::FecOverhead;
pub use engine::{CacheGenEngine, EngineConfig};
pub use pipeline::{load_context, load_stored, LoadError, LoadOutcome, LoadParams};
pub use ttft::{LoadMethod, TtftBreakdown, TtftModel};
