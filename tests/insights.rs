//! The paper's §5.1 empirical insights, verified on our substrate.
//!
//! CacheGen's design rests on three measured properties of KV caches.
//! Because our transformer actually computes KV caches via self-attention
//! over structured (topical, locally-repetitive) text, the same properties
//! should — and do — emerge here. These tests are the assertable versions
//! of Figures 3, 4 and 5.

use cachegen_codec::delta::consecutive_deltas;
use cachegen_llm::{eval, KvCache, SimModelConfig, SimTransformer};
use cachegen_tensor::stats;
use cachegen_workloads::{workload_rng, Dataset};

fn workload_cache(model: &SimTransformer, seed: u64, len: usize) -> (KvCache, Vec<usize>) {
    let mut rng = workload_rng(seed);
    let sample = Dataset::LongChat.generate(&mut rng, model.config().vocab, len);
    (model.prefill(&sample.tokens), sample.tokens)
}

/// Insight 1 (Figure 3): deltas between consecutive tokens concentrate
/// around zero much more than the raw values — the paper reports 2.4–2.9×
/// lower variance; we require at least 1.5× on both models it profiles.
#[test]
fn insight1_token_locality_deltas_have_lower_variance() {
    for cfg in [
        SimModelConfig::llama7b_sim(42),
        SimModelConfig::llama13b_sim(42),
    ] {
        let name = cfg.name.clone();
        let model = SimTransformer::new(cfg);
        let (cache, _) = workload_cache(&model, 1, 200);
        for (tname, tensor) in [("K", cache.k()), ("V", cache.v())] {
            let orig_var = stats::variance(tensor.data());
            let deltas = consecutive_deltas(tensor);
            let delta_var = stats::variance(&deltas);
            let ratio = orig_var / delta_var;
            assert!(
                ratio > 1.5,
                "{name} {tname}: original/delta variance ratio {ratio:.2} too low \
                 (orig {orig_var:.4}, delta {delta_var:.4})"
            );
        }
    }
}

/// Insight 2 (Figure 4): quantization loss applied to the *early* layers
/// hurts output quality more than the same loss applied to the deep layers.
/// This emerges mechanically: early-layer errors propagate through every
/// later layer's attention.
#[test]
fn insight2_early_layers_are_more_loss_sensitive() {
    let model = SimTransformer::new(SimModelConfig::llama13b_sim(42));
    let (cache, _) = workload_cache(&model, 2, 160);
    let n_layers = cache.layers();
    let prompts: Vec<Vec<usize>> = (0..24)
        .map(|p| vec![(p * 19) % 512, (p * 7 + 3) % 512])
        .collect();

    // Apply a heavy rounding loss to one contiguous third of the layers.
    let lossy_on = |lo: usize, hi: usize| -> KvCache {
        let mut k = cache.k().clone();
        let mut v = cache.v().clone();
        for t in [&mut k, &mut v] {
            for l in lo..hi {
                for x in t.slab_mut(l) {
                    *x = (*x / 0.4).round() * 0.4;
                }
            }
        }
        KvCache::from_tensors(k, v)
    };
    let third = n_layers / 3;
    let early = eval::first_token_accuracy(&model, &cache, &lossy_on(0, third), &prompts);
    let late = eval::first_token_accuracy(
        &model,
        &cache,
        &lossy_on(n_layers - third, n_layers),
        &prompts,
    );
    assert!(
        late >= early,
        "late-layer loss (acc {late:.2}) should hurt no more than early-layer loss (acc {early:.2})"
    );
    // And the effect should be material, not a tie at 1.0: early-layer loss
    // must actually degrade something at this severity.
    assert!(
        early < 1.0,
        "early-layer loss should be visible, got {early}"
    );
}

/// Insight 3 (Figure 5): grouping values by (channel, layer) yields much
/// more information gain (lower conditional entropy) than grouping by
/// token position.
#[test]
fn insight3_channel_layer_grouping_beats_token_grouping() {
    let model = SimTransformer::new(SimModelConfig::llama7b_sim(42));
    let (cache, _) = workload_cache(&model, 3, 200);
    let t = cache.k();
    let (layers, tokens, channels) = (cache.layers(), cache.tokens(), cache.channels());
    let values: Vec<f32> = t.data().to_vec();
    let mut by_token = Vec::with_capacity(values.len());
    let mut by_channel = Vec::with_capacity(values.len());
    let mut by_layer = Vec::with_capacity(values.len());
    let mut by_channel_layer = Vec::with_capacity(values.len());
    for l in 0..layers {
        for tok in 0..tokens {
            for c in 0..channels {
                by_layer.push(l);
                by_token.push(tok);
                by_channel.push(c);
                by_channel_layer.push(l * channels + c);
            }
        }
    }
    let bin = 0.25;
    let none = stats::quantized_entropy(&values, bin);
    let token_gain = none - stats::grouped_entropy(&values, &by_token, bin);
    let channel_gain = none - stats::grouped_entropy(&values, &by_channel, bin);
    let layer_gain = none - stats::grouped_entropy(&values, &by_layer, bin);
    let cl_gain = none - stats::grouped_entropy(&values, &by_channel_layer, bin);
    // Figure 5's ordering: token grouping helps least; channel and layer
    // grouping help more, and the combined (channel, layer) grouping that
    // CacheGen's symbol models use helps most. (Real LLMs show a larger
    // channel-only gap than our random-weight simulator, which lacks the
    // outlier-channel phenomenon.)
    assert!(
        channel_gain > 0.5 * token_gain,
        "channel gain {channel_gain:.3} vs token gain {token_gain:.3}"
    );
    assert!(
        layer_gain > token_gain,
        "layer gain {layer_gain:.3} vs token gain {token_gain:.3}"
    );
    assert!(
        cl_gain > 2.0 * token_gain,
        "channel-layer gain {cl_gain:.3} vs token gain {token_gain:.3}"
    );
}

/// §7.5's ablation premise: per-(channel, layer) symbol distributions
/// shrink CacheGen bitstreams versus one global distribution (the paper
/// reports up to 53%).
#[test]
fn channel_layer_symbol_models_compress_better_than_global() {
    use cachegen_codec::{CodecConfig, CodecProfile, KvCodec, ModelGranularity};
    let model = SimTransformer::new(SimModelConfig::llama7b_sim(42));
    let (cache, _) = workload_cache(&model, 4, 200);
    let size_with = |g: ModelGranularity| -> u64 {
        let cfg = CodecConfig {
            granularity: g,
            ..CodecConfig::default()
        };
        let profile = CodecProfile::build(&cfg, &[&cache]);
        KvCodec::new(cfg, profile).encode(&cache).total_bytes()
    };
    let global = size_with(ModelGranularity::Global);
    let per_cl = size_with(ModelGranularity::PerChannelLayer);
    assert!(
        per_cl < global,
        "per-channel-layer {per_cl} should beat global {global}"
    );
}
