//! Multi-turn chat: the conversation history's KV cache grows and is
//! reused every turn.
//!
//! §2.2's chat scenario: "during a chat session, early chat content keeps
//! getting reused as part of the context for every later input". Each turn
//! appends the exchange to the history; instead of re-prefilling the whole
//! history, the engine loads the stored KV (`load_stored`) and only
//! prefills the new turn; the grown history is then re-stored (`store_kv`
//! replaces the session's entry) for the next turn to load. The example
//! prints, per turn, how many tokens were served from cache vs recomputed,
//! and the cumulative prefill savings.
//!
//! Run with: `cargo run --release --example chat_session`

use cachegen::{load_stored, CacheGenEngine, EngineConfig, LoadOutcome, LoadParams};
use cachegen_llm::SimModelConfig;
use cachegen_net::trace::{BandwidthTrace, GBPS};
use cachegen_net::Link;
use cachegen_streamer::ChunkPlan;
use cachegen_telemetry::NOOP;
use cachegen_workloads::{workload_rng, MarkovTextGen};
use rand::Rng;

/// Store id of the chat session's history.
const SESSION: u64 = 1;

fn main() {
    let mut rng = workload_rng(23);
    let vocab = 512;
    let gen = MarkovTextGen::new(vocab, 8, 0.45);
    let profile = vec![gen.generate(&mut rng, 240)];
    let engine = CacheGenEngine::build(
        SimModelConfig::llama7b_sim(42),
        EngineConfig::default(),
        &profile,
    );

    // Loads the session's stored history over a fresh 1 Gbps link.
    let load = |plan: &ChunkPlan| -> LoadOutcome {
        let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.0);
        load_stored(
            &engine,
            SESSION,
            plan,
            &mut link,
            &LoadParams::default(),
            &NOOP,
        )
        .expect("stored history loads")
    };

    let mut history: Vec<usize> = Vec::new();
    let mut stored: Option<ChunkPlan> = None;
    let mut tokens_prefetched = 0usize;
    let mut tokens_recomputed = 0usize;

    println!(
        "{:>4} {:>9} {:>11} {:>12} {:>10}",
        "turn", "history", "from cache", "recomputed", "saved"
    );
    for turn in 0..6 {
        // The user says something on a turn-specific topic.
        let user_turn = gen.probe_prompt(&mut rng, turn % 8, 20);

        // Reuse the stored KV of the history (loaded from the store's
        // bytes, nothing re-encoded); only the new turn is prefilled, as
        // the prompt on top of it.
        let cached = match &stored {
            Some(plan) => load(plan).cache,
            None => engine.calculate_kv(&[]),
        };
        let (from_cache, new_tokens) = (cached.tokens(), user_turn.len());
        history.extend_from_slice(&user_turn);
        let mut prompt = user_turn;
        prompt.push(rng.gen::<usize>() % vocab);
        let reply = engine.generate_with_kv(&cached, &prompt, 6);
        history.extend_from_slice(&reply);
        // The history grew: re-store it under the same id. (In a real
        // serving stack only the delta is prefilled and encoded; prefill
        // is causal, so the result is the same.)
        stored = Some(engine.store_kv(SESSION, &history));

        tokens_prefetched += from_cache;
        tokens_recomputed += new_tokens + reply.len();
        println!(
            "{:>4} {:>9} {:>11} {:>12} {:>9.0}%",
            turn,
            history.len(),
            from_cache,
            new_tokens + reply.len(),
            100.0 * tokens_prefetched as f64
                / (tokens_prefetched + tokens_recomputed).max(1) as f64
        );
    }

    // What reuse is worth at paper scale: a 9.4K-token history on
    // Mistral-7B costs ~3.5 s of prefill per query without reuse.
    let model = cachegen_llm::ModelSpec::mistral_7b();
    let gpu = cachegen_llm::GpuSpec::default();
    println!(
        "\npaper-scale: re-prefilling a 9.4K-token history costs {:.1} s per query;",
        gpu.prefill_seconds(&model, 9_400)
    );
    // The last stored history is loaded once more — same bytes, no encode.
    let last = load(stored.as_ref().expect("six turns were stored"));
    let ratio = last.cache.size_bytes(16.0) as f64 / last.stream.bytes_sent as f64;
    println!(
        "CacheGen ships the same history at {:.1}x below fp16, so reuse stays network-cheap.",
        ratio
    );
}
