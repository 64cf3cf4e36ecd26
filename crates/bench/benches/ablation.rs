//! Ablation benches for the design choices of the §5.2 codec:
//! symbol-model granularity, anchor-group size, and layer-group count.
//! Each reports the resulting *compressed size* as the benchmark's
//! throughput denominator is fixed, so compare wall time and (printed once)
//! bytes.

use cachegen_codec::{CodecConfig, CodecProfile, KvCodec, ModelGranularity};
use cachegen_llm::{KvCache, SimModelConfig, SimTransformer};
use cachegen_quant::LayerGroupBins;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn fixture() -> KvCache {
    let model = SimTransformer::new(SimModelConfig::llama7b_sim(42));
    let ctx: Vec<usize> = (0..200).map(|i| (i * 7) % 512).collect();
    model.prefill(&ctx)
}

fn bench_granularity(c: &mut Criterion) {
    let cache = fixture();
    let mut g = c.benchmark_group("ablation_granularity");
    g.sample_size(10);
    for (name, gran) in [
        ("global", ModelGranularity::Global),
        ("per_layer", ModelGranularity::PerLayer),
        ("per_channel", ModelGranularity::PerChannel),
        ("per_channel_layer", ModelGranularity::PerChannelLayer),
    ] {
        let cfg = CodecConfig {
            granularity: gran,
            ..CodecConfig::default()
        };
        let profile = CodecProfile::build(&cfg, &[&cache]);
        let codec = KvCodec::new(cfg, profile);
        let bytes = codec.encode(&cache).total_bytes();
        println!("granularity {name}: {bytes} bytes");
        g.bench_with_input(BenchmarkId::from_parameter(name), &codec, |b, codec| {
            b.iter(|| codec.encode(&cache))
        });
    }
    g.finish();
}

fn bench_group_size(c: &mut Criterion) {
    let cache = fixture();
    let mut g = c.benchmark_group("ablation_group_size");
    g.sample_size(10);
    for &group in &[1usize, 5, 10, 20, 50] {
        let cfg = CodecConfig {
            group_size: group,
            ..CodecConfig::default()
        };
        let profile = CodecProfile::build(&cfg, &[&cache]);
        let codec = KvCodec::new(cfg, profile);
        let bytes = codec.encode(&cache).total_bytes();
        println!("group size {group}: {bytes} bytes");
        g.bench_with_input(BenchmarkId::from_parameter(group), &codec, |b, codec| {
            b.iter(|| codec.encode(&cache))
        });
    }
    g.finish();
}

fn bench_layer_groups(c: &mut Criterion) {
    let cache = fixture();
    let mut g = c.benchmark_group("ablation_layer_groups");
    g.sample_size(10);
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
        let profile = CodecProfile::build(&cfg, &[&cache]);
        let codec = KvCodec::new(cfg, profile);
        let bytes = codec.encode(&cache).total_bytes();
        println!("layer groups {name}: {bytes} bytes");
        g.bench_with_input(BenchmarkId::from_parameter(name), &codec, |b, codec| {
            b.iter(|| codec.encode(&cache))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_granularity,
    bench_group_size,
    bench_layer_groups
);
criterion_main!(benches);
