//! Ablation benches for the design choices of the §5.2 codec:
//! symbol-model granularity, anchor-group size, and layer-group count.
//! Each prints the resulting *compressed size* once and the encode time
//! of one 200-token cache, so compare wall time and bytes.

use cachegen_bench::harness::{report, sample};
use cachegen_codec::{CodecConfig, CodecProfile, KvCodec, ModelGranularity};
use cachegen_llm::{KvCache, SimModelConfig, SimTransformer};
use cachegen_quant::LayerGroupBins;

/// Timed calls per row.
const SAMPLES: usize = 31;

/// Builds the codec for `cfg` profiled on `cache`, prints its compressed
/// size and times one encode.
fn bench_encode(group: &str, name: &str, cfg: CodecConfig, cache: &KvCache) {
    let profile = CodecProfile::build(&cfg, &[cache]);
    let codec = KvCodec::new(cfg, profile);
    let bytes = codec.encode(cache).total_bytes();
    println!("{group} {name}: {bytes} bytes");
    let secs = sample(SAMPLES, || codec.encode(cache));
    report(&format!("ablation_{group}/{name}"), "ms", secs.scaled(1e3));
}

fn main() {
    let model = SimTransformer::new(SimModelConfig::llama7b_sim(42));
    let ctx: Vec<usize> = (0..200).map(|i| (i * 7) % 512).collect();
    let cache = model.prefill(&ctx);

    for (name, granularity) in [
        ("global", ModelGranularity::Global),
        ("per_layer", ModelGranularity::PerLayer),
        ("per_channel", ModelGranularity::PerChannel),
        ("per_channel_layer", ModelGranularity::PerChannelLayer),
    ] {
        let cfg = CodecConfig {
            granularity,
            ..CodecConfig::default()
        };
        bench_encode("granularity", name, cfg, &cache);
    }
    for group_size in [1usize, 5, 10, 20, 50] {
        let cfg = CodecConfig {
            group_size,
            ..CodecConfig::default()
        };
        bench_encode("group_size", &group_size.to_string(), cfg, &cache);
    }
    for (name, bins) in [
        ("uniform", LayerGroupBins::uniform(1.0)),
        ("three_groups", LayerGroupBins::paper_default()),
        (
            "six_groups",
            LayerGroupBins::new(vec![0.4, 0.6, 0.8, 1.0, 1.25, 1.5]),
        ),
    ] {
        let cfg = CodecConfig {
            bins,
            ..CodecConfig::default()
        };
        bench_encode("layer_groups", name, cfg, &cache);
    }
}
