//! Simulator model configurations.
//!
//! The functional transformer is deliberately small (CPU-friendly) but keeps
//! the architectural shape of the paper's models: multiple layers, multiple
//! heads, grouped-query attention (fewer KV heads than query heads), RoPE,
//! and a SwiGLU MLP. Presets mirror the *relative* capacities of the paper's
//! model zoo — e.g. `llama13b_sim` has more layers and channels than
//! `llama7b_sim` — at roughly 1/64 scale per axis.

/// Configuration of a [`crate::SimTransformer`].
#[derive(Clone, Debug, PartialEq)]
pub struct SimModelConfig {
    /// Human-readable name, used in experiment output.
    pub name: String,
    /// Number of transformer layers.
    pub n_layers: usize,
    /// Model (residual stream) width.
    pub d_model: usize,
    /// Number of query heads. Must divide `d_model`.
    pub n_heads: usize,
    /// Number of KV heads (grouped-query attention). Must divide `n_heads`.
    pub n_kv_heads: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// RoPE base frequency.
    pub rope_theta: f32,
    /// Seed for deterministic weight generation.
    pub weight_seed: u64,
}

impl SimModelConfig {
    /// Per-head channel width.
    pub fn head_dim(&self) -> usize {
        debug_assert_eq!(self.d_model % self.n_heads, 0);
        self.d_model / self.n_heads
    }

    /// KV channels per token per layer (`n_kv_heads × head_dim`).
    pub fn kv_channels(&self) -> usize {
        self.n_kv_heads * self.head_dim()
    }

    /// Tiny model for unit tests: fast even in debug builds.
    pub fn tiny(seed: u64) -> Self {
        SimModelConfig {
            name: "tiny-sim".into(),
            n_layers: 2,
            d_model: 16,
            n_heads: 2,
            n_kv_heads: 2,
            d_ff: 32,
            vocab: 64,
            rope_theta: 10_000.0,
            weight_seed: seed,
        }
    }

    /// ~1/64-scale stand-in for Llama-3B (the "smaller model" baseline of
    /// Appendix B / Figure 18).
    pub fn llama3b_sim(seed: u64) -> Self {
        SimModelConfig {
            name: "llama-3b-sim".into(),
            n_layers: 4,
            d_model: 48,
            n_heads: 4,
            n_kv_heads: 4,
            d_ff: 128,
            vocab: 512,
            rope_theta: 10_000.0,
            weight_seed: seed,
        }
    }

    /// Stand-in for Llama-7B (used for the §5.1 insight figures).
    pub fn llama7b_sim(seed: u64) -> Self {
        SimModelConfig {
            name: "llama-7b-sim".into(),
            n_layers: 6,
            d_model: 64,
            n_heads: 4,
            n_kv_heads: 4,
            d_ff: 172,
            vocab: 512,
            rope_theta: 10_000.0,
            weight_seed: seed,
        }
    }

    /// Stand-in for Llama-13B (second model of the §5.1 insight figures).
    pub fn llama13b_sim(seed: u64) -> Self {
        SimModelConfig {
            name: "llama-13b-sim".into(),
            n_layers: 8,
            d_model: 80,
            n_heads: 5,
            n_kv_heads: 5,
            d_ff: 216,
            vocab: 512,
            rope_theta: 10_000.0,
            weight_seed: seed,
        }
    }

    /// Stand-in for Mistral-7B (grouped-query attention: 4× fewer KV heads,
    /// like the real model's 32 query / 8 KV heads).
    pub fn mistral7b_sim(seed: u64) -> Self {
        SimModelConfig {
            name: "mistral-7b-sim".into(),
            n_layers: 6,
            d_model: 64,
            n_heads: 8,
            n_kv_heads: 2,
            d_ff: 172,
            vocab: 512,
            rope_theta: 10_000.0,
            weight_seed: seed,
        }
    }

    /// Stand-in for Llama-34B.
    pub fn llama34b_sim(seed: u64) -> Self {
        SimModelConfig {
            name: "llama-34b-sim".into(),
            n_layers: 10,
            d_model: 96,
            n_heads: 8,
            n_kv_heads: 8,
            d_ff: 256,
            vocab: 512,
            rope_theta: 10_000.0,
            weight_seed: seed,
        }
    }

    /// Stand-in for Llama-70B (grouped-query attention like the real one).
    pub fn llama70b_sim(seed: u64) -> Self {
        SimModelConfig {
            name: "llama-70b-sim".into(),
            n_layers: 12,
            d_model: 128,
            n_heads: 8,
            n_kv_heads: 2,
            d_ff: 344,
            vocab: 512,
            rope_theta: 10_000.0,
            weight_seed: seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_dims_divide() {
        for cfg in [
            SimModelConfig::tiny(0),
            SimModelConfig::llama3b_sim(0),
            SimModelConfig::llama7b_sim(0),
            SimModelConfig::llama13b_sim(0),
            SimModelConfig::mistral7b_sim(0),
            SimModelConfig::llama34b_sim(0),
            SimModelConfig::llama70b_sim(0),
        ] {
            assert_eq!(cfg.d_model % cfg.n_heads, 0, "{}", cfg.name);
            assert_eq!(cfg.n_heads % cfg.n_kv_heads, 0, "{}", cfg.name);
            assert!(cfg.head_dim() >= 2, "{}", cfg.name);
        }
    }

    impl SimModelConfig {
        /// Approximate parameter count of the simulator model (embeddings
        /// excluded, mirroring how model sizes are usually quoted).
        fn approx_params(&self) -> usize {
            let d = self.d_model;
            let kv = self.kv_channels();
            let per_layer = d * d      // Wq
                + 2 * d * kv           // Wk, Wv
                + d * d                // Wo
                + 3 * d * self.d_ff; // W1, W2, W3
            self.n_layers * per_layer
        }
    }

    #[test]
    fn capacity_ordering_matches_paper_zoo() {
        let p3 = SimModelConfig::llama3b_sim(0).approx_params();
        let p7 = SimModelConfig::llama7b_sim(0).approx_params();
        let p13 = SimModelConfig::llama13b_sim(0).approx_params();
        let p34 = SimModelConfig::llama34b_sim(0).approx_params();
        let p70 = SimModelConfig::llama70b_sim(0).approx_params();
        assert!(p3 < p7 && p7 < p13 && p13 < p34 && p34 < p70);
    }

    #[test]
    fn gqa_reduces_kv_channels() {
        let mistral = SimModelConfig::mistral7b_sim(0);
        let llama = SimModelConfig::llama7b_sim(0);
        // Same d_model, but Mistral-sim has 2 of 8 heads as KV heads.
        assert!(mistral.kv_channels() < llama.kv_channels());
    }
}
