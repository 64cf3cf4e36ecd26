//! Engine/workload builders and quality measurement shared by all
//! experiments, plus the sampling primitive ([`sample`], [`Summary`]) and
//! snapshot writer ([`Snapshot`]) every bench target measures through.

use cachegen::{CacheGenEngine, EngineConfig};
use cachegen_llm::{eval, KvCache, SimModelConfig, SimTransformer};
use cachegen_net::{BandwidthTrace, Link, PacketFaults};
use cachegen_serving::{ServingCluster, ServingConfig};
use cachegen_streamer::AdaptPolicy;
use cachegen_telemetry::{workspace_root, JsonValue};
use cachegen_workloads::{
    workload_rng, ContextSample, Dataset, Metric, MultiTenantWorkload, SharedPrefixGen,
};
use std::hint::black_box;
use std::time::Instant;

/// Standard functional-scale experiment sizes. Kept modest so the full
/// `figures all` run completes in minutes on a laptop CPU; raise for
/// smoother curves.
pub const SIM_CONTEXT_TOKENS: usize = 200;
/// Contexts evaluated per (model, dataset) cell.
pub const SIM_CONTEXTS_PER_CELL: usize = 3;
/// Probe prompts per context for first-token accuracy.
const PROBE_PROMPTS: usize = 16;
/// Greedy horizon for F1 scoring.
const F1_HORIZON: usize = 6;
/// Continuation length for perplexity scoring.
const PPL_HORIZON: usize = 12;

/// Tokens of the context the `codec` and `fec` benches measure (16
/// stream chunks of 30).
pub const CONTEXT_TOKENS: usize = 480;

/// The engine the `codec` and `fec` bench rows run on — the layered
/// benchmark's fixture: default five-level ladder, profile from two
/// 200-token LongChat contexts — plus one context's tokens and its KV
/// cache split into stream chunks.
pub fn context_fixture() -> (CacheGenEngine, Vec<usize>, Vec<KvCache>) {
    let model = SimModelConfig::llama7b_sim(42);
    let vocab = model.vocab;
    let mut rng = workload_rng(1);
    let profile: Vec<Vec<usize>> = (0..2)
        .map(|_| Dataset::LongChat.generate(&mut rng, vocab, 200).tokens)
        .collect();
    let engine = CacheGenEngine::build(model, EngineConfig::default(), &profile);
    let context = Dataset::LongChat.generate(&mut rng, vocab, CONTEXT_TOKENS);
    let chunks = engine.chunk_caches(&engine.calculate_kv(&context.tokens));
    (engine, context.tokens, chunks)
}

/// The `serving` example's scenario, which the `serving` bench replays on
/// OS threads: four tenants fire 160 Zipf-skewed queries at ~15 req/s
/// against eight shared 120-token documents stored on a two-shard cluster
/// behind 5 Mbps store links.
pub struct ServingDemo {
    /// The seeded request trace and the documents it queries.
    pub workload: MultiTenantWorkload,
}

impl ServingDemo {
    /// Tenants issuing requests.
    pub const TENANTS: usize = 4;
    /// Shards in the cluster.
    pub const SHARDS: usize = 2;
    /// Requests in the trace.
    pub const REQUESTS: usize = 160;
    /// Mean arrival rate of the trace.
    pub const RATE_HZ: f64 = 15.0;
    const SEED: u64 = 24;

    /// Generates the trace.
    pub fn generate() -> ServingDemo {
        let workload = SharedPrefixGen::new(64, 8, 120).generate(
            &mut workload_rng(Self::SEED),
            Self::TENANTS,
            Self::REQUESTS,
            Self::RATE_HZ,
        );
        ServingDemo { workload }
    }

    /// The cluster configuration under streaming policy `policy`.
    pub fn config(policy: AdaptPolicy) -> ServingConfig {
        ServingConfig {
            num_shards: Self::SHARDS,
            num_tenants: Self::TENANTS,
            slo: Some(0.15),
            policy,
            prior_throughput_bps: Some(5e6),
            recompute_sec_per_token: 2e-3,
            ..ServingConfig::default()
        }
    }

    /// A cold cluster with the corpus stored; `loss` puts seeded
    /// per-packet drops on every store link.
    pub fn cluster(&self, cfg: ServingConfig, loss: Option<f64>) -> ServingCluster {
        let links = (0..Self::SHARDS)
            .map(|s| {
                let link = Link::new(BandwidthTrace::constant(5e6), 0.0);
                match loss {
                    Some(p) => {
                        link.with_packet_faults(PacketFaults::loss(p), Self::SEED + s as u64)
                    }
                    None => link,
                }
            })
            .collect();
        serving_cluster(cfg, links, &self.workload)
    }
}

/// A cluster of tiny sim-model shards, one per link, with every document
/// of `workload` stored.
pub fn serving_cluster(
    cfg: ServingConfig,
    links: Vec<Link>,
    workload: &MultiTenantWorkload,
) -> ServingCluster {
    let profile: Vec<Vec<usize>> = vec![(0..60).map(|i| (i * 7) % 64).collect()];
    let mut cluster = ServingCluster::build(
        SimModelConfig::tiny(42),
        EngineConfig::default(),
        cfg,
        &profile,
        links,
    );
    for (id, tokens) in &workload.documents {
        cluster.store_context(*id, tokens);
    }
    cluster
}

/// Median, spread and size of one sample — the statistics of the layered
/// benchmark's `stats::Summary`: linearly interpolated quartiles and the
/// median absolute deviation from the median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of values.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

/// Quartiles and median of an unsorted sample (which must hold no NaN).
fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| {
        let rank = p * (sorted.len() - 1) as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    })
}

impl Summary {
    /// Summarises an unsorted sample.
    pub fn of(values: &[f64]) -> Summary {
        let [q1, median, q3] = quartiles(values);
        let deviations: Vec<f64> = values.iter().map(|v| (v - median).abs()).collect();
        Summary {
            n: values.len(),
            median,
            q1,
            q3,
            mad: quartiles(&deviations)[1],
        }
    }

    /// The same sample in another linear unit (`factor` > 0): seconds to
    /// milliseconds is `scaled(1e3)`.
    pub fn scaled(&self, factor: f64) -> Summary {
        Summary {
            n: self.n,
            median: self.median * factor,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
            mad: self.mad * factor,
        }
    }

    /// A seconds-per-call sample as `units` of work per second. The
    /// quantiles map exactly (in reverse order); the MAD keeps its share
    /// of the median, which is exact to first order in the spread.
    pub fn rate(&self, units: f64) -> Summary {
        let median = units / self.median;
        Summary {
            n: self.n,
            median,
            q1: units / self.q3,
            q3: units / self.q1,
            mad: median * self.mad / self.median,
        }
    }
}

/// The workspace's one timing primitive: seconds per call of `call`, over
/// `n` timed calls after one untimed call that warms caches, lazy tables
/// and the allocator. Results pass through `black_box`. `call` should run
/// for tens of microseconds at least, so the clock's own cost stays
/// negligible.
///
/// A further `n / 3` samples time four back-to-back calls: a call the
/// optimiser deleted takes as long four times over as once, so a median
/// ratio under 2 fails the bench instead of reporting a fantastic rate.
pub fn sample<T>(n: usize, mut call: impl FnMut() -> T) -> Summary {
    assert!(n >= 3, "a median needs at least three samples");
    let mut timed = |calls: usize| {
        let start = Instant::now();
        for _ in 0..calls {
            black_box(call());
        }
        start.elapsed().as_secs_f64()
    };
    timed(1);
    let single: Vec<f64> = (0..n).map(|_| timed(1)).collect();
    let fourfold: Vec<f64> = (0..n.div_ceil(3)).map(|_| timed(4)).collect();
    let secs = Summary::of(&single);
    let scaling = Summary::of(&fourfold).median / secs.median;
    assert!(
        scaling >= 2.0,
        "four calls took {scaling:.2}x one: the timed work does not scale"
    );
    secs
}

/// Prints one measured row: median ± MAD in `unit` over `n` samples.
pub fn report(key: &str, unit: &str, s: Summary) {
    println!(
        "bench {key:<40} {:>12.3} ± {:<10.3} {unit} (n = {})",
        s.median, s.mad, s.n
    );
}

fn number(key: &str, value: f64) -> (String, JsonValue) {
    (key.to_string(), JsonValue::Number(value))
}

/// The one `BENCH_*.json` perf document:
/// `{bench, host_cores, samples, rows: {key: {median, mad, n, unit}},
/// info: {key: number}}`. `rows` are measurements, each from at least
/// `samples` timed samples; `info` describes the input they ran on.
pub struct Snapshot {
    bench: &'static str,
    samples: usize,
    rows: Vec<(String, JsonValue)>,
    info: Vec<(String, JsonValue)>,
}

impl Snapshot {
    /// An empty document for bench `bench`, whose every row will carry
    /// at least `samples` samples.
    pub fn new(bench: &'static str, samples: usize) -> Snapshot {
        Snapshot {
            bench,
            samples,
            rows: Vec::new(),
            info: Vec::new(),
        }
    }

    /// Prints and records one measured row.
    pub fn row(&mut self, key: &str, unit: &str, s: Summary) {
        assert!(s.n >= self.samples, "row {key} has only {} samples", s.n);
        report(key, unit, s);
        let unit = ("unit".to_string(), JsonValue::String(unit.to_string()));
        let fields = vec![
            number("median", s.median),
            number("mad", s.mad),
            number("n", s.n as f64),
            unit,
        ];
        self.rows.push((key.to_string(), JsonValue::Object(fields)));
    }

    /// Records one fact about the measured input.
    pub fn info(&mut self, key: &str, value: f64) {
        self.info.push(number(key, value));
    }

    /// Writes the document to `file` at the workspace root.
    pub fn write(self, file: &str) {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let doc = JsonValue::Object(vec![
            (
                "bench".to_string(),
                JsonValue::String(self.bench.to_string()),
            ),
            number("host_cores", cores as f64),
            number("samples", self.samples as f64),
            ("rows".to_string(), JsonValue::Object(self.rows)),
            ("info".to_string(), JsonValue::Object(self.info)),
        ]);
        let path = workspace_root().join(file);
        std::fs::write(&path, doc.to_compact() + "\n")
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

/// A ready-to-measure bench fixture: an engine, evaluation samples and
/// each sample's full-precision [`Reference`], computed once.
pub struct Bench {
    /// The engine under test.
    pub engine: CacheGenEngine,
    /// Evaluation contexts.
    pub samples: Vec<ContextSample>,
    /// One reference per sample, in sample order.
    pub references: Vec<Reference>,
}

impl Bench {
    /// Seed of every fixture, so the figures that print one (model,
    /// dataset) cell print one number. Contexts are drawn in sequence, so
    /// a fixture of fewer samples holds a prefix of the same cell.
    const SEED: u64 = 9;

    /// Builds the (model, dataset) cell: profiles the codec on two held-out
    /// contexts of the dataset, generates `n` evaluation contexts, then
    /// prefills each and records its reference answers.
    pub fn new(model: SimModelConfig, dataset: Dataset, n: usize) -> Self {
        let vocab = model.vocab;
        let mut rng = workload_rng(Self::SEED);
        let profile: Vec<Vec<usize>> = (0..2)
            .map(|_| dataset.generate(&mut rng, vocab, SIM_CONTEXT_TOKENS).tokens)
            .collect();
        let engine = CacheGenEngine::build(model, EngineConfig::default(), &profile);
        let samples = dataset.generate_set(&mut rng, vocab, SIM_CONTEXT_TOKENS, n);
        let references = samples
            .iter()
            .map(|s| Reference::new(engine.model(), dataset.metric(), s))
            .collect();
        Bench {
            engine,
            samples,
            references,
        }
    }

    /// The one quality measurement: mean quality and mean bits/element,
    /// over the samples, of the caches `degrade` makes. It gets each
    /// sample and its reference and returns the degraded cache and its
    /// size on the wire in bytes. Bits are per element of the
    /// full-precision cache, so methods that drop tokens stay comparable.
    pub fn score(
        &self,
        mut degrade: impl FnMut(&ContextSample, &Reference) -> (KvCache, u64),
    ) -> QualityReport {
        let model = self.engine.model();
        let mut quality = 0.0;
        let mut bits = 0.0;
        for (s, r) in self.samples.iter().zip(&self.references) {
            let (cache, bytes) = degrade(s, r);
            quality += r.quality(model, s, &cache);
            bits += bytes as f64 * 8.0 / r.cache.num_elements() as f64;
        }
        let n = self.samples.len() as f64;
        QualityReport {
            quality: quality / n,
            bits_per_element: bits / n,
        }
    }
}

/// The degradation of CacheGen at encoding `level`: the decoded cache and
/// the encoded bytes.
pub fn cachegen_level(
    engine: &CacheGenEngine,
    level: usize,
) -> impl Fn(&ContextSample, &Reference) -> (KvCache, u64) + '_ {
    move |_, r| {
        let enc = engine.encode_at_level(&r.cache, level);
        let dec = engine
            .try_decode_at_level(&enc, level)
            .expect("own encoding decodes");
        (dec, enc.total_bytes())
    }
}

/// The degradation of the uniform-quantization baseline at `bits`.
pub fn quantized(bits: u8) -> impl Fn(&ContextSample, &Reference) -> (KvCache, u64) {
    move |_, r| {
        let q = cachegen_baselines::quantization_baseline(&r.cache, bits);
        (q.cache, q.wire_bytes)
    }
}

/// Probe prompt `p` of first-token accuracy, deterministic per index.
fn probe(p: usize, vocab: usize) -> [usize; 2] {
    [(p * 13 + 1) % vocab, (p * 37 + 5) % vocab]
}

/// One sample's full-precision side: its prefilled KV cache and what the
/// model answers with that cache under the dataset's metric.
pub struct Reference {
    /// The context's full-precision KV cache.
    pub cache: KvCache,
    metric: Metric,
    /// The first greedy token after each probe prompt (accuracy), or the
    /// greedy continuation of the sample's prompt: [`F1_HORIZON`] tokens
    /// (F1) or [`PPL_HORIZON`] (perplexity).
    answers: Vec<usize>,
}

impl Reference {
    /// Prefills `sample` and generates the answers `metric` scores against.
    fn new(model: &SimTransformer, metric: Metric, sample: &ContextSample) -> Reference {
        let cache = model.prefill(&sample.tokens);
        let vocab = model.config().vocab;
        let answers = match metric {
            Metric::Accuracy => (0..PROBE_PROMPTS)
                .map(|p| model.generate_with_kv(&cache, &probe(p, vocab), 1)[0])
                .collect(),
            Metric::F1 => model.generate_with_kv(&cache, &sample.prompt, F1_HORIZON),
            Metric::Perplexity => model.generate_with_kv(&cache, &sample.prompt, PPL_HORIZON),
        };
        Reference {
            cache,
            metric,
            answers,
        }
    }

    /// Quality under `model` of `degraded` against this reference: the
    /// probe hit rate, the answer's token F1, or the continuation's
    /// perplexity (≥ 1, lower better). Generation starts at the sample's
    /// length, so a cache that dropped tokens keeps its keys' positions;
    /// perplexity needs every token.
    pub fn quality(
        &self,
        model: &SimTransformer,
        sample: &ContextSample,
        degraded: &KvCache,
    ) -> f64 {
        let start = sample.tokens.len();
        let answers = &self.answers;
        match self.metric {
            Metric::Accuracy => {
                let vocab = model.config().vocab;
                let hit = |(p, &first): &(usize, &usize)| {
                    model.generate_with_kv_at(degraded, start, &probe(*p, vocab), 1)[0] == first
                };
                answers.iter().enumerate().filter(hit).count() as f64 / answers.len() as f64
            }
            Metric::F1 => {
                let out = model.generate_with_kv_at(degraded, start, &sample.prompt, F1_HORIZON);
                eval::token_f1(&out, answers)
            }
            Metric::Perplexity => {
                assert_eq!(degraded.tokens(), start, "perplexity needs every token");
                eval::perplexity(model, degraded, &sample.prompt, answers)
            }
        }
    }
}

/// One (quality, size) measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QualityReport {
    /// Dataset-metric quality (accuracy/F1 in \[0, 1\]; perplexity ≥ 1,
    /// lower better).
    pub quality: f64,
    /// Compressed size in bits per KV element.
    pub bits_per_element: f64,
}

/// Prints a section header for the figure output.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_odd_and_even_samples() {
        // Odd n: the numbers `benchmark/src/stats.rs` pins for its twin.
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3, s.mad), (5, 3.0, 2.0, 4.0, 1.0));
        // Even n interpolates: deviations from 2.5 are {0.5, 0.5, 1.5, 1.5}.
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            (s.n, s.median, s.q1, s.q3, s.mad),
            (4, 2.5, 1.75, 3.25, 1.0)
        );
        let one = Summary::of(&[7.0]);
        assert_eq!((one.median, one.q1, one.q3, one.mad), (7.0, 7.0, 7.0, 0.0));
    }

    #[test]
    fn summary_changes_unit() {
        let secs = Summary::of(&[0.5, 0.25, 1.0]);
        assert_eq!((secs.median, secs.mad), (0.5, 0.25));
        assert_eq!(secs.scaled(1e3), Summary::of(&[500.0, 250.0, 1000.0]));
        let rate = secs.rate(2.0);
        assert_eq!((rate.n, rate.median, rate.mad), (3, 4.0, 2.0));
        assert_eq!((rate.q1, rate.q3), (2.0 / 0.75, 2.0 / 0.375));
    }

    #[test]
    fn sample_counts_calls_and_sees_work_scale() {
        let data: Vec<u64> = (0..200_000).collect();
        let mut calls = 0;
        let secs = sample(9, || {
            calls += 1;
            data.iter().fold(0u64, |a, &x| a ^ x.rotate_left(7))
        });
        assert_eq!(calls, 1 + 9 + 3 * 4);
        assert_eq!(secs.n, 9);
        assert!(secs.median > 0.0 && secs.q1 <= secs.median && secs.median <= secs.q3);
    }

    /// README "Benchmarks" lists exactly the committed snapshots' rows:
    /// one line per row, in snapshot order, the median to three
    /// significant digits (none below the unit) and the MAD to one
    /// decimal more.
    #[test]
    fn readme_bench_rows_match_snapshots() {
        let readme = include_str!("../../../README.md");
        let rows: Vec<&str> = readme
            .lines()
            .filter(|l| l.starts_with("| `BENCH_"))
            .collect();
        let mut table = Vec::new();
        for (file, text) in [
            (
                "BENCH_codec.json",
                include_str!("../../../BENCH_codec.json"),
            ),
            ("BENCH_net.json", include_str!("../../../BENCH_net.json")),
            (
                "BENCH_serving_threads.json",
                include_str!("../../../BENCH_serving_threads.json"),
            ),
        ] {
            let doc = cachegen_telemetry::json::parse(text).expect("snapshot parses");
            let Some(JsonValue::Object(snapshot_rows)) = doc.get("rows") else {
                panic!("{file} has no rows");
            };
            for (key, row) in snapshot_rows {
                let number = |name| row.get(name).and_then(JsonValue::as_f64).expect(name);
                let median = number("median");
                let decimals = match median {
                    m if m >= 100.0 => 0,
                    m if m >= 10.0 => 1,
                    _ => 2,
                };
                table.push(format!(
                    "| `{file}` | `{key}` | {} | {median:.decimals$} | {:.*} | {} |",
                    row.get("unit").and_then(JsonValue::as_str).expect("unit"),
                    decimals + 1,
                    number("mad"),
                    number("n"),
                ));
            }
        }
        assert_eq!(rows, table, "paste:\n{}", table.join("\n"));
    }

    /// `Bench::score` against the direct computation: accuracy on LongChat
    /// and F1 on TriviaQA, on a codec or quantized cache and on an H2O cache
    /// generated from the sample's original length.
    #[test]
    fn bench_fixture_builds_and_reports() {
        use cachegen_baselines::{h2o, quantization_baseline};
        let b = Bench::new(SimModelConfig::tiny(5), Dataset::LongChat, 1);
        let (s, r, model) = (&b.samples[0], &b.references[0], b.engine.model());
        assert_eq!(r.cache, b.engine.calculate_kv(&s.tokens));
        let prompts: Vec<Vec<usize>> = (0..PROBE_PROMPTS)
            .map(|p| probe(p, model.config().vocab).to_vec())
            .collect();
        let cg = b.score(cachegen_level(&b.engine, 1));
        let enc = b.engine.encode_at_level(&r.cache, 1);
        let dec = b.engine.try_decode_at_level(&enc, 1).unwrap();
        let direct = eval::first_token_accuracy(model, &r.cache, &dec, &prompts);
        assert_eq!(cg.quality, direct);
        let bits = enc.total_bytes() as f64 * 8.0 / r.cache.num_elements() as f64;
        assert_eq!(cg.bits_per_element, bits);
        assert!(bits < 16.0 && b.score(quantized(8)).bits_per_element > 8.0);
        let pruned = h2o::prune(model, &s.tokens, 0.3).cache;
        let hits = prompts.iter().filter(|p| {
            model.generate_with_kv(&r.cache, p, 1)
                == model.generate_with_kv_at(&pruned, s.tokens.len(), p, 1)
        });
        let direct = hits.count() as f64 / prompts.len() as f64;
        assert_eq!(b.score(|_, _| (pruned.clone(), 0)).quality, direct);
        assert!(direct < 1.0, "pruning must cost accuracy");

        let b = Bench::new(SimModelConfig::tiny(5), Dataset::TriviaQa, 1);
        let (s, r, model) = (&b.samples[0], &b.references[0], b.engine.model());
        let answer = model.generate_with_kv(&r.cache, &s.prompt, F1_HORIZON);
        let f1 = |cache: &KvCache| {
            let out = model.generate_with_kv_at(cache, s.tokens.len(), &s.prompt, F1_HORIZON);
            eval::token_f1(&out, &answer)
        };
        let q3 = quantization_baseline(&r.cache, 3).cache;
        assert_eq!(b.score(quantized(3)).quality, f1(&q3));
        let pruned = h2o::prune(model, &s.tokens, 0.3).cache;
        assert_eq!(b.score(|_, _| (pruned.clone(), 0)).quality, f1(&pruned));
        assert!(f1(&pruned) < 1.0, "pruning must cost F1");
    }

    /// Perplexity on WikiText: the reference scores itself at ≥ 1, and a
    /// quantized cache scores what `eval::perplexity` computes.
    #[test]
    fn perplexity_metric_path() {
        let b = Bench::new(SimModelConfig::tiny(6), Dataset::WikiText, 1);
        let (s, r, model) = (&b.samples[0], &b.references[0], b.engine.model());
        let cont = model.generate_with_kv(&r.cache, &s.prompt, PPL_HORIZON);
        let ppl = |cache: &KvCache| eval::perplexity(model, cache, &s.prompt, &cont);
        let own = b.score(|_, r| (r.cache.clone(), 0)).quality;
        assert_eq!(own, ppl(&r.cache));
        assert!(own >= 1.0, "self-perplexity must be ≥ 1, got {own}");
        let q3 = cachegen_baselines::quantization_baseline(&r.cache, 3).cache;
        assert_eq!(b.score(quantized(3)).quality, ppl(&q3));
        assert_ne!(ppl(&q3), own);
    }

    #[test]
    fn paper_mb_scaling() {
        let r = QualityReport {
            quality: 1.0,
            bits_per_element: 8.0,
        };
        let mb =
            cachegen_llm::ModelSpec::mistral_7b().kv_bytes(9_400, r.bits_per_element) as f64 / 1e6;
        assert!((mb - 616.0).abs() < 10.0);
    }
}
