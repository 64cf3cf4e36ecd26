//! A real (small) decoder-only transformer, the functional substrate.
//!
//! This is an honest implementation of the architecture the paper's models
//! share: token embedding → N × (RMSNorm → multi-head attention with RoPE
//! and grouped-query KV → residual → RMSNorm → SwiGLU MLP → residual) →
//! final RMSNorm → tied-embedding logits. Weights are generated
//! deterministically from a seed with `N(0, 1/√fan_in)` entries, so a given
//! [`SimModelConfig`] always denotes the same model.
//!
//! Two entry points mirror the paper's §6 interfaces:
//!
//! * [`SimTransformer::prefill`] ≙ `calculate_kv(context) -> KVCache`
//! * [`SimTransformer::generate_with_kv`] ≙ `generate_with_kv(KVCache) -> text`
//!
//! [`SimTransformer::prefill_with_scores`] additionally records how much
//! attention each context token receives — the signal the H2O baseline drops
//! tokens by (§7.2, "idealized version of H2O").

use crate::kv::KvCache;
use crate::model::SimModelConfig;
use cachegen_tensor::linalg::{
    add_inplace, matvec_t, rms_norm, rope_freqs, rope_rotate, rope_sin_cos, silu, softmax_inplace,
    weighted_row_sum,
};
use cachegen_tensor::pool::{bounded_workers, run_pooled};
use cachegen_tensor::rng::{fill_normal, seeded};
use cachegen_tensor::Tensor;
use rand::Rng;

const RMS_EPS: f32 = 1e-6;

/// Tokens per pooled job. Workers pull blocks off the batch one at a
/// time, so a core that is stolen for a while leaves the other one the
/// rest of the queue rather than a fixed half of it.
const BLOCK_TOKENS: usize = 16;

/// Fewest new tokens a forward call spreads over more than one worker;
/// below it both phases of every layer run inline on the caller's thread.
/// A pooled phase opens a thread scope (two per layer) and wakes the
/// second core, which a short batch's phase does not earn back. Measured
/// on a 2-vCPU VM with `llama7b_sim` prefills, as the median over 41
/// interleaved pairs of two-worker ÷ one-worker time: while the host's
/// second core was free, 32 tokens 1.02 / 0.83, 48 tokens 0.83 / 0.86,
/// 64 tokens 0.74 / 0.74 / 0.67, 96 tokens 0.67 / 0.68, 480 tokens 0.55 /
/// 0.59; while a neighbour kept it busy, 64 tokens 1.09 and 112 tokens
/// 1.05. The free-core crossover is ~32–48 tokens.
const POOLED_PREFILL_MIN_TOKENS: usize = 64;

/// Per-layer weights. Every matrix is held input-major (`[fan_in,
/// fan_out]`), the one layout [`matvec_t`] reads.
struct LayerWeights {
    wq: Tensor, // [d_model, d_model]
    wk: Tensor, // [d_model, kv_channels]
    wv: Tensor, // [d_model, kv_channels]
    wo: Tensor, // [d_model, d_model]
    w1: Tensor, // [d_model, d_ff]   (gate)
    w3: Tensor, // [d_model, d_ff]   (up)
    w2: Tensor, // [d_ff, d_model]   (down)
    attn_norm: Vec<f32>,
    mlp_norm: Vec<f32>,
}

/// The functional transformer simulator.
pub struct SimTransformer {
    cfg: SimModelConfig,
    embed: Tensor, // [d_model, vocab]: input-major, for the tied logits
    layers: Vec<LayerWeights>,
    final_norm: Vec<f32>,
    rope_freqs: Vec<f32>,
}

/// Mutable per-generation KV state with room for `capacity` tokens. K is
/// held channel-major, so scoring a query against every cached position is
/// one [`matvec_t`]; V stays token-major, the order its rows are summed in.
struct KvState {
    kt: Vec<Vec<f32>>, // per layer, channels × capacity
    v: Vec<Vec<f32>>,  // per layer, tokens × channels flattened
    tokens: usize,
    channels: usize,
    capacity: usize,
}

impl KvState {
    fn empty(layers: usize, channels: usize, capacity: usize) -> Self {
        KvState {
            kt: vec![vec![0.0; channels * capacity]; layers],
            v: vec![Vec::with_capacity(capacity * channels); layers],
            tokens: 0,
            channels,
            capacity,
        }
    }

    /// The state holding `cache`, with room for `extra` more tokens.
    fn from_cache(cache: &KvCache, extra: usize) -> Self {
        let mut st = KvState::empty(cache.layers(), cache.channels(), cache.tokens() + extra);
        for l in 0..cache.layers() {
            let (k, v) = (cache.k().slab(l), cache.v().slab(l));
            for (t, (k, v)) in k
                .chunks_exact(st.channels)
                .zip(v.chunks_exact(st.channels))
                .enumerate()
            {
                st.put(l, t, k, v);
            }
        }
        st.tokens = cache.tokens();
        st
    }

    /// Stores token `t`'s K/V rows of `layer`; V rows arrive in order.
    fn put(&mut self, layer: usize, t: usize, k: &[f32], v: &[f32]) {
        debug_assert_eq!(self.v[layer].len(), t * self.channels);
        for (c, &x) in k.iter().enumerate() {
            self.kt[layer][c * self.capacity + t] = x;
        }
        self.v[layer].extend_from_slice(v);
    }

    fn into_cache(self) -> KvCache {
        let layers = self.kt.len();
        let mut k = Tensor::zeros(&[layers, self.tokens, self.channels]);
        let mut v = Tensor::zeros(&[layers, self.tokens, self.channels]);
        for l in 0..layers {
            for (t, row) in k.slab_mut(l).chunks_exact_mut(self.channels).enumerate() {
                for (c, x) in row.iter_mut().enumerate() {
                    *x = self.kt[l][c * self.capacity + t];
                }
            }
            v.slab_mut(l).copy_from_slice(&self.v[l]);
        }
        KvCache::from_tensors(k, v)
    }
}

/// One token block of a [`SimTransformer::forward`] call: its rows of the
/// batch-wide buffers, and scratch only its own job touches. The calling
/// thread allocates all of it once per call and every layer reuses it, so
/// a pooled worker never touches the allocator.
struct Block<'a> {
    /// Batch index of the block's first token.
    start: usize,
    x: &'a mut [f32], // residual rows, tokens × d_model
    q: &'a mut [f32], // rotated query rows, tokens × d_model
    k: &'a mut [f32], // rotated key rows, tokens × kv_channels
    v: &'a mut [f32], // value rows, tokens × kv_channels
    h: Vec<f32>,
    scores: Vec<f32>,
    attn_out: Vec<f32>,
    proj: Vec<f32>,
    gate: Vec<f32>,
    up: Vec<f32>,
    /// Attention-mass accumulator; only a call of one block has one.
    mass: Option<&'a mut [f64]>,
}

/// Runs one phase of one layer: `job` once per block, on `workers`
/// workers pulling blocks in the order given (inline for one worker or
/// one block).
fn run_phase<'b, 'a: 'b>(
    blocks: impl Iterator<Item = &'b mut Block<'a>>,
    workers: usize,
    job: impl Fn(&mut Block<'a>) + Sync,
) {
    let run = |_, block: &mut Block<'a>| {
        job(block);
        Ok::<(), std::convert::Infallible>(())
    };
    let Ok(()) = run_pooled(blocks.collect(), workers, run, |_| {});
}

/// An input-major `[cols, rows]` matrix: the transpose of a `[rows, cols]`
/// matrix of `N(0, 1/√cols)` entries drawn in row-major order (the order
/// that fixes which model a seed denotes).
fn random_matrix(rng: &mut rand::rngs::StdRng, rows: usize, cols: usize) -> Tensor {
    let mut t = Tensor::zeros(&[rows, cols]);
    let std = 1.0 / (cols as f32).sqrt();
    fill_normal(rng, t.data_mut(), 0.0, std);
    t.transposed()
}

impl SimTransformer {
    /// Builds the model, generating all weights from `cfg.weight_seed`.
    pub fn new(cfg: SimModelConfig) -> Self {
        let mut rng = seeded(cfg.weight_seed);
        let d = cfg.d_model;
        let kv = cfg.kv_channels();
        let embed = random_matrix(&mut rng, cfg.vocab, d);
        let layers = (0..cfg.n_layers)
            .map(|l| {
                // Trained models' K/V values occupy different ranges per
                // layer (paper footnote 3) and per channel (the outlier-
                // channel phenomenon behind vectorwise quantization).
                // Random init alone does not reproduce that, so the K/V
                // projections get deterministic per-layer and per-channel
                // gain diversity — this is what makes layer/channel
                // grouping informative (Insight 3) on this substrate.
                let layer_gain = 0.5 * 2.0f32.powf(2.0 * (l as f32 / cfg.n_layers.max(1) as f32));
                let channel_gains: Vec<f32> = (0..kv)
                    .map(|_| {
                        let u: f32 = rng.gen();
                        0.5 * 4.0f32.powf(u) // log-uniform in [0.5, 2.0]
                    })
                    .collect();
                let mut wk = random_matrix(&mut rng, kv, d);
                let mut wv = random_matrix(&mut rng, kv, d);
                for t in [&mut wk, &mut wv] {
                    for per_input in t.data_mut().chunks_exact_mut(kv) {
                        for (x, g) in per_input.iter_mut().zip(&channel_gains) {
                            *x *= layer_gain * g;
                        }
                    }
                }
                LayerWeights {
                    wq: random_matrix(&mut rng, d, d),
                    wk,
                    wv,
                    wo: random_matrix(&mut rng, d, d),
                    w1: random_matrix(&mut rng, cfg.d_ff, d),
                    w3: random_matrix(&mut rng, cfg.d_ff, d),
                    w2: random_matrix(&mut rng, d, cfg.d_ff),
                    attn_norm: vec![1.0; d],
                    mlp_norm: vec![1.0; d],
                }
            })
            .collect();
        let final_norm = vec![1.0; d];
        let rope_freqs = rope_freqs(cfg.head_dim(), cfg.rope_theta);
        SimTransformer {
            cfg,
            embed,
            layers,
            final_norm,
            rope_freqs,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &SimModelConfig {
        &self.cfg
    }

    /// Runs `tokens` through the model at RoPE positions `rope_start..`,
    /// appending their K/V rows to `state`, and returns the residual stream
    /// after the last layer, `[tokens.len(), d_model]` flattened (pre final
    /// norm). `rope_start` may exceed the cache length: a token-pruned cache
    /// holds fewer rows than its rotary positions imply, and attention runs
    /// over the rows actually present.
    ///
    /// Each layer runs in two phases, because a token's layer-`l` step
    /// needs only its own layer-`l − 1` output and the layer-`l` K/V rows
    /// of the tokens up to it:
    ///
    /// 1. **project** — RMSNorm → Q/K/V → RoPE for every new token, into
    ///    token-major rows, which the calling thread then scatters into
    ///    the channel-major K cache and appends to V;
    /// 2. **attend** — attention over the rows up to each token → `wo` →
    ///    residual → RMSNorm → SwiGLU MLP → residual.
    ///
    /// Within a phase every token is independent, so each phase is a list
    /// of [`BLOCK_TOKENS`]-token jobs run side by side on the workspace
    /// executor, the latest blocks (the most attention rows) pulled first.
    /// No bit depends on that: every output element is computed by the same
    /// calls, on the same inputs, in the same order as a token-at-a-time
    /// pass, and no sum spans two tokens. Below
    /// [`POOLED_PREFILL_MIN_TOKENS`] new tokens both phases run inline.
    ///
    /// `attn_mass`, when given, accumulates the attention each cached token
    /// receives, in layer → token → head order: `f64` sums are order-
    /// sensitive too, so it is only taken with one block of tokens (a
    /// caller that pins it feeds one token per call).
    fn forward(
        &self,
        tokens: &[usize],
        rope_start: usize,
        state: &mut KvState,
        attn_mass: Option<&mut [f64]>,
    ) -> Vec<f32> {
        let workers = if tokens.len() < POOLED_PREFILL_MIN_TOKENS {
            1
        } else {
            bounded_workers(tokens.len().div_ceil(BLOCK_TOKENS))
        };
        self.forward_on(tokens, rope_start, state, attn_mass, workers)
    }

    /// [`Self::forward`] on `workers` workers.
    fn forward_on(
        &self,
        tokens: &[usize],
        rope_start: usize,
        state: &mut KvState,
        attn_mass: Option<&mut [f64]>,
        workers: usize,
    ) -> Vec<f32> {
        let cfg = &self.cfg;
        let (d, d_ff, vocab) = (cfg.d_model, cfg.d_ff, cfg.vocab);
        let kc = state.channels;
        let base = state.tokens;
        let total = base + tokens.len();
        assert!(
            total <= state.capacity,
            "KV state has no room for the batch"
        );

        let mut residual = vec![0.0f32; tokens.len() * d];
        for (row, &token) in residual.chunks_exact_mut(d).zip(tokens) {
            assert!(token < vocab, "token id {token} out of vocab");
            for (o, per_input) in row.iter_mut().zip(self.embed.data().chunks_exact(vocab)) {
                *o = per_input[token];
            }
        }
        let half = self.rope_freqs.len();
        let mut sin_cos = vec![(0.0f32, 0.0f32); tokens.len() * half];
        for (t, sc) in sin_cos.chunks_exact_mut(half).enumerate() {
            rope_sin_cos(&self.rope_freqs, rope_start + t, sc);
        }

        let mut q = vec![0.0f32; tokens.len() * d];
        let mut k = vec![0.0f32; tokens.len() * kc];
        let mut v = vec![0.0f32; tokens.len() * kc];
        let (block_d, block_kc) = (BLOCK_TOKENS * d, BLOCK_TOKENS * kc);
        let mut blocks: Vec<Block<'_>> = residual
            .chunks_mut(block_d)
            .zip(q.chunks_mut(block_d))
            .zip(k.chunks_mut(block_kc).zip(v.chunks_mut(block_kc)))
            .enumerate()
            .map(|(i, ((x, q), (k, v)))| Block {
                start: i * BLOCK_TOKENS,
                x,
                q,
                k,
                v,
                h: vec![0.0; d],
                scores: vec![0.0; total],
                attn_out: vec![0.0; d],
                proj: vec![0.0; d],
                gate: vec![0.0; d_ff],
                up: vec![0.0; d_ff],
                mass: None,
            })
            .collect();
        if let Some(mass) = attn_mass {
            assert!(
                blocks.len() <= 1,
                "attention mass is summed token by token: feed one block per call"
            );
            if let Some(block) = blocks.first_mut() {
                block.mass = Some(mass);
            }
        }

        for l in 0..self.layers.len() {
            run_phase(blocks.iter_mut(), workers, |b| self.project(l, &sin_cos, b));
            for b in &blocks {
                let rows = b.k.chunks_exact(kc).zip(b.v.chunks_exact(kc));
                for (t, (k, v)) in (base + b.start..).zip(rows) {
                    state.put(l, t, k, v);
                }
            }
            let state = &*state;
            run_phase(blocks.iter_mut().rev(), workers, |b| {
                self.attend(l, state, base, b)
            });
        }
        drop(blocks);
        state.tokens = total;
        residual
    }

    /// Phase one of layer `l` for one block: each token's rotated Q, K
    /// and V rows from its residual row.
    fn project(&self, l: usize, sin_cos: &[(f32, f32)], b: &mut Block<'_>) {
        let lw = &self.layers[l];
        let (d, head_dim) = (self.cfg.d_model, self.cfg.head_dim());
        let kc = self.cfg.kv_channels();
        let half = self.rope_freqs.len();
        let qkv = b.q.chunks_exact_mut(d).zip(b.k.chunks_exact_mut(kc));
        let rows = b.x.chunks_exact(d).zip(qkv.zip(b.v.chunks_exact_mut(kc)));
        for (t, (x, ((q, k), v))) in (b.start..).zip(rows) {
            rms_norm(x, &lw.attn_norm, RMS_EPS, &mut b.h);
            matvec_t(lw.wq.data(), d, &b.h, q);
            matvec_t(lw.wk.data(), kc, &b.h, k);
            matvec_t(lw.wv.data(), kc, &b.h, v);
            let sc = &sin_cos[t * half..(t + 1) * half];
            rope_rotate(q, head_dim, sc);
            rope_rotate(k, head_dim, sc);
        }
    }

    /// Phase two of layer `l` for one block: each token's attention over
    /// the `state` rows up to it (the `base` cached ones included), then
    /// the MLP, into its residual row.
    fn attend(&self, l: usize, state: &KvState, base: usize, b: &mut Block<'_>) {
        let cfg = &self.cfg;
        let lw = &self.layers[l];
        let (d, d_ff, head_dim) = (cfg.d_model, cfg.d_ff, cfg.head_dim());
        let group = cfg.n_heads / cfg.n_kv_heads;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let (kc, cap) = (state.channels, state.capacity);
        let rows = b.x.chunks_exact_mut(d).zip(b.q.chunks_exact(d));
        for (t, (x, q)) in (base + b.start..).zip(rows) {
            // Attend over the rows actually present.
            let s = &mut b.scores[..t + 1];
            for (hh, out) in b.attn_out.chunks_exact_mut(head_dim).enumerate() {
                let kv_head = (hh / group) * head_dim;
                let q_head = &q[hh * head_dim..(hh + 1) * head_dim];
                matvec_t(&state.kt[l][kv_head * cap..], cap, q_head, s);
                for p in s.iter_mut() {
                    *p *= scale;
                }
                softmax_inplace(s);
                if let Some(mass) = b.mass.as_deref_mut() {
                    for (m, &p) in mass.iter_mut().zip(s.iter()) {
                        *m += p as f64;
                    }
                }
                weighted_row_sum(&state.v[l][kv_head..], kc, s, out);
            }
            matvec_t(lw.wo.data(), d, &b.attn_out, &mut b.proj);
            add_inplace(x, &b.proj);

            // --- MLP block (SwiGLU) ---
            rms_norm(x, &lw.mlp_norm, RMS_EPS, &mut b.h);
            matvec_t(lw.w1.data(), d_ff, &b.h, &mut b.gate);
            matvec_t(lw.w3.data(), d_ff, &b.h, &mut b.up);
            for (g, &u) in b.gate.iter_mut().zip(&b.up) {
                *g = silu(*g) * u;
            }
            matvec_t(lw.w2.data(), d, &b.gate, &mut b.proj);
            add_inplace(x, &b.proj);
        }
    }

    /// Logits over the vocabulary (tied embedding) for one token's row of
    /// [`Self::forward`]'s residual stream.
    fn logits(&self, x: &[f32]) -> Vec<f32> {
        let mut hidden = vec![0.0f32; x.len()];
        rms_norm(x, &self.final_norm, RMS_EPS, &mut hidden);
        let mut logits = vec![0.0f32; self.cfg.vocab];
        matvec_t(self.embed.data(), self.cfg.vocab, &hidden, &mut logits);
        logits
    }

    /// Prefill: computes the KV cache of a context (`calculate_kv` in §6).
    pub fn prefill(&self, tokens: &[usize]) -> KvCache {
        let mut state = KvState::empty(self.cfg.n_layers, self.cfg.kv_channels(), tokens.len());
        self.forward(tokens, 0, &mut state, None);
        state.into_cache()
    }

    /// Prefill that also returns the cumulative attention mass each context
    /// token received (summed over layers, heads and later query positions).
    /// This is the importance signal used by the idealized H2O baseline.
    pub fn prefill_with_scores(&self, tokens: &[usize]) -> (KvCache, Vec<f64>) {
        let mut state = KvState::empty(self.cfg.n_layers, self.cfg.kv_channels(), tokens.len());
        let mut mass = vec![0.0f64; tokens.len()];
        // One token per call: each token's mass is summed query-major.
        for (pos, tok) in tokens.iter().enumerate() {
            self.forward(std::slice::from_ref(tok), pos, &mut state, Some(&mut mass));
        }
        (state.into_cache(), mass)
    }

    /// Greedy generation of `steps` tokens, starting from an existing
    /// (possibly lossy) KV cache of the context plus the prompt tokens
    /// (`generate_with_kv` in §6).
    ///
    /// Returns the generated token ids.
    pub fn generate_with_kv(&self, cache: &KvCache, prompt: &[usize], steps: usize) -> Vec<usize> {
        self.generate_with_kv_at(cache, cache.tokens(), prompt, steps)
    }

    /// Like [`SimTransformer::generate_with_kv`] but with an explicit RoPE
    /// start position for the prompt. Token-dropping baselines (H2O,
    /// Scissorhands) shrink the cache's token axis while the kept keys
    /// retain their original rotary positions, so new tokens must continue
    /// from the *original* context length, not the pruned one.
    pub fn generate_with_kv_at(
        &self,
        cache: &KvCache,
        start_pos: usize,
        prompt: &[usize],
        steps: usize,
    ) -> Vec<usize> {
        assert!(
            start_pos >= cache.tokens(),
            "start position cannot precede the cached tokens"
        );
        assert!(
            !prompt.is_empty(),
            "generate_with_kv requires at least one prompt token"
        );
        let d = self.cfg.d_model;
        let mut state = KvState::from_cache(cache, prompt.len() + steps);
        let mut x = self.forward(prompt, start_pos, &mut state, None);
        let mut out = Vec::with_capacity(steps);
        for rope_pos in (start_pos + prompt.len()..).take(steps) {
            let next = argmax(&self.logits(&x[x.len() - d..]));
            out.push(next);
            x = self.forward(&[next], rope_pos, &mut state, None);
        }
        out
    }

    /// Total negative log-likelihood (natural log) of `continuation` given a
    /// cache and a prompt; used for the perplexity metric on the
    /// WikiText-like workload.
    pub fn continuation_nll(
        &self,
        cache: &KvCache,
        prompt: &[usize],
        continuation: &[usize],
    ) -> f64 {
        assert!(!prompt.is_empty(), "need at least one prompt token");
        // Token `i` of the continuation is predicted from the position
        // before it, so the last one is scored but never fed.
        let fed = continuation.len().saturating_sub(1);
        let sequence = [prompt, &continuation[..fed]].concat();
        let mut state = KvState::from_cache(cache, sequence.len());
        let x = self.forward(&sequence, cache.tokens(), &mut state, None);
        let predictors = x.chunks_exact(self.cfg.d_model).skip(prompt.len() - 1);
        let mut nll = 0.0f64;
        for (x, &tok) in predictors.zip(continuation) {
            nll += -log_softmax_at(&self.logits(x), tok);
        }
        nll
    }
}

/// Index of the largest logit (ties resolve to the first).
fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// `log softmax(xs)[idx]` computed stably, as f64.
fn log_softmax_at(xs: &[f32], idx: usize) -> f64 {
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
    let lse: f64 = xs
        .iter()
        .map(|&x| ((x as f64) - max).exp())
        .sum::<f64>()
        .ln()
        + max;
    (xs[idx] as f64) - lse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimTransformer {
        SimTransformer::new(SimModelConfig::tiny(42))
    }

    #[test]
    fn prefill_shapes() {
        let m = tiny();
        let cache = m.prefill(&[1, 2, 3, 4, 5]);
        assert_eq!(cache.layers(), 2);
        assert_eq!(cache.tokens(), 5);
        assert_eq!(cache.channels(), m.config().kv_channels());
    }

    #[test]
    fn prefill_is_deterministic() {
        let a = tiny().prefill(&[3, 1, 4, 1, 5]);
        let b = tiny().prefill(&[3, 1, 4, 1, 5]);
        assert_eq!(a, b);
    }

    #[test]
    fn prefill_is_causal_prefix_consistent() {
        // KV rows of a prefix must be identical whether or not more tokens
        // follow (causality) — this is what makes chunked encoding valid.
        let m = tiny();
        let full = m.prefill(&[7, 8, 9, 10, 11, 12]);
        let prefix = m.prefill(&[7, 8, 9]);
        let sliced = full.slice_tokens(0, 3);
        assert_eq!(prefix, sliced);
    }

    #[test]
    fn generation_with_exact_cache_matches_full_prefill() {
        let m = tiny();
        let ctx = [5usize, 9, 13, 17];
        let prompt = [21usize, 25];
        let cache = m.prefill(&ctx);
        let out_cached = m.generate_with_kv(&cache, &prompt, 4);

        // Reference: prefill context+prompt in one go by using an empty-start
        // cache via generate over the whole sequence.
        let empty = KvCache::zeros(m.config().n_layers, 0, m.config().kv_channels());
        let mut all = ctx.to_vec();
        all.extend_from_slice(&prompt);
        let out_full = m.generate_with_kv(&empty, &all, 4);
        assert_eq!(out_cached, out_full);
    }

    #[test]
    fn degraded_cache_changes_outputs_eventually() {
        let m = tiny();
        let ctx: Vec<usize> = (0..32).map(|i| (i * 7) % 64).collect();
        let cache = m.prefill(&ctx);
        // Heavy corruption: zero out the cache entirely.
        let zeroed = KvCache::zeros(cache.layers(), cache.tokens(), cache.channels());
        let a = m.generate_with_kv(&cache, &[1, 2], 8);
        let b = m.generate_with_kv(&zeroed, &[1, 2], 8);
        assert_ne!(a, b, "zeroing the whole KV cache should change outputs");
    }

    #[test]
    fn nll_is_nonnegative_and_finite() {
        let m = tiny();
        let cache = m.prefill(&[1, 2, 3]);
        let nll = m.continuation_nll(&cache, &[4], &[5, 6, 7]);
        assert!(nll.is_finite());
        assert!(nll > 0.0);
    }

    #[test]
    fn exact_cache_has_lower_nll_than_corrupted() {
        let m = tiny();
        let ctx: Vec<usize> = (0..24).map(|i| (i * 5) % 64).collect();
        let cache = m.prefill(&ctx);
        // The reference continuation is what the model itself generates.
        let cont = m.generate_with_kv(&cache, &[10], 6);
        let nll_exact = m.continuation_nll(&cache, &[10], &cont);
        let zeroed = KvCache::zeros(cache.layers(), cache.tokens(), cache.channels());
        let nll_bad = m.continuation_nll(&zeroed, &[10], &cont);
        assert!(
            nll_exact < nll_bad,
            "exact {nll_exact} should beat corrupted {nll_bad}"
        );
    }

    #[test]
    fn attention_mass_sums_to_queries() {
        let m = tiny();
        let n = 10;
        let tokens: Vec<usize> = (0..n).collect();
        let (_, mass) = m.prefill_with_scores(&tokens);
        // Each of the n query positions distributes 1.0 of attention per
        // head per layer.
        let expected = (n * m.config().n_heads * m.config().n_layers) as f64;
        let total: f64 = mass.iter().sum();
        assert!(
            (total - expected).abs() < 1e-3,
            "total {total} vs expected {expected}"
        );
    }

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    fn worker_count_does_not_change_a_bit() {
        // The tiny model with grouped-query attention, so query heads of
        // one block share KV heads. Each run returns the cache, the
        // residual and the last token's logits as bits.
        let m = SimTransformer::new(SimModelConfig {
            n_heads: 4,
            n_kv_heads: 2,
            ..SimModelConfig::tiny(7)
        });
        let cfg = m.config().clone();
        let seq = |len: usize, add: usize| -> Vec<usize> {
            (0..len).map(|i| (i * 31 + add) % cfg.vocab).collect()
        };
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let cached = m.prefill(&seq(37, 5));
        for n in [
            1,
            POOLED_PREFILL_MIN_TOKENS - 1,
            POOLED_PREFILL_MIN_TOKENS,
            481,
        ] {
            let tokens = seq(n, 11);
            // From empty, and on 37 cached rows with the new tokens' rotary
            // positions past them, as a pruned cache resumes.
            for (cache, rope_start) in [(None, 0), (Some(&cached), 50)] {
                let run = |workers: Option<usize>| {
                    let mut state = match cache {
                        Some(c) => KvState::from_cache(c, n),
                        None => KvState::empty(cfg.n_layers, cfg.kv_channels(), n),
                    };
                    let x = match workers {
                        Some(w) => m.forward_on(&tokens, rope_start, &mut state, None, w),
                        None => m.forward(&tokens, rope_start, &mut state, None),
                    };
                    let logits = m.logits(&x[x.len() - cfg.d_model..]);
                    let cache = state.into_cache();
                    let kv = [bits(cache.k().data()), bits(cache.v().data())];
                    (kv, bits(&x), bits(&logits))
                };
                let serial = run(Some(1));
                for workers in [Some(2), Some(4), None] {
                    let base = cache.map_or(0, KvCache::tokens);
                    assert!(
                        run(workers) == serial,
                        "{n} tokens on {base} cached, workers {workers:?}"
                    );
                }
            }
        }
    }
}
