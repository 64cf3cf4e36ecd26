//! RAG-style document QA: store a document's KV once, reuse it per query.
//!
//! The paper's motivating deployment (§2.2): a knowledge base of documents
//! lives on a storage service; when a query arrives, the relevant
//! document's *KV cache* — not its text — is fetched to the inference
//! server. This example stores a TriviaQA-like document with `store_kv`
//! (once), serves three queries with `load_stored` + `generate_with_kv`
//! (each loads the stored bytes over a link; nothing is re-encoded), and
//! prints the analytic TTFT comparison at real-model scale.
//!
//! Run with: `cargo run --release --example rag_document_qa`

use cachegen::{load_stored, CacheGenEngine, EngineConfig, LoadMethod, LoadParams, TtftModel};
use cachegen_llm::{GpuSpec, ModelSpec, SimModelConfig};
use cachegen_net::trace::{BandwidthTrace, GBPS};
use cachegen_net::Link;
use cachegen_telemetry::NOOP;
use cachegen_workloads::{workload_rng, Dataset};

fn main() {
    let mut rng = workload_rng(11);
    let vocab = 512;
    let profile: Vec<Vec<usize>> = (0..2)
        .map(|_| Dataset::TriviaQa.generate(&mut rng, vocab, 240).tokens)
        .collect();
    let engine = CacheGenEngine::build(
        SimModelConfig::mistral7b_sim(42),
        EngineConfig::default(),
        &profile,
    );

    // Ingest one document into the store (offline, once).
    let doc = Dataset::TriviaQa.generate(&mut rng, vocab, 240);
    let doc_id = 1001;
    let plan = engine.store_kv(doc_id, &doc.tokens);
    println!(
        "stored document {doc_id}: {} chunks × {} levels, {:.1} KB total (all versions)",
        plan.num_chunks(),
        plan.num_levels(),
        engine.store().context_bytes(doc_id).unwrap() as f64 / 1e3
    );

    // Serve three queries: each loads the stored bitstreams over the link
    // (fetch → parse → decode → concat in one call) and skips prefill.
    let params = LoadParams::default();
    for (qi, q) in [[3usize, 17], [41, 9], [77, 5]].iter().enumerate() {
        let mut link = Link::new(BandwidthTrace::constant(3.0 * GBPS), 0.0);
        let loaded = load_stored(&engine, doc_id, &plan, &mut link, &params, &NOOP)
            .expect("stored document loads");
        let answer = engine.generate_with_kv(&loaded.cache, q, 6);
        let (tokens, ms) = (loaded.cache.tokens(), loaded.stream.finish * 1e3);
        println!(
            "  query {qi}: {tokens} tokens loaded in {ms:.2} ms, prompt {q:?} -> answer {answer:?}"
        );
    }

    // Analytic TTFT at real-model scale for this deployment (Figure 8e
    // shape: Mistral-7B-class QA at 3 Gbps).
    let ttft = TtftModel::new(ModelSpec::mistral_7b(), GpuSpec::default());
    let tokens = doc.paper_tokens;
    println!("\npaper-scale TTFT for a {tokens}-token document at 3 Gbps:");
    for (name, method) in [
        ("text context", LoadMethod::TextContext),
        ("8-bit quantization", LoadMethod::Quantized { bits: 8.0 }),
        (
            "CacheGen",
            LoadMethod::CacheGen {
                bits_per_element: 3.6, // level-1 operating point, measured (fig9)
            },
        ),
    ] {
        let b = ttft.ttft(method, tokens, 3.0 * GBPS);
        println!(
            "  {:<20} transfer {:>6.2}s  decode {:>5.2}s  compute {:>5.2}s  total {:>6.2}s",
            name,
            b.transfer,
            b.decode,
            b.compute,
            b.total()
        );
    }
}
