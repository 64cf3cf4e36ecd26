//! Pinned model outputs: for every preset the experiments use, FNV-1a
//! digests of the exact bits `SimTransformer` produces on one fixed
//! 96-token sequence, and on long runs: a 480-token prefill, a 128-token
//! prompt fed on top of it, the same prompt on a token-pruned cache whose
//! rotary positions run past its length, and a continuation scored after
//! that prompt. The numeric core's contract is bit-identity
//! (each output element's products are added in `Iterator::sum`'s order),
//! and everything downstream — container digests, golden serving traces,
//! the benchmark's seed-only metrics — is a function of these bits, so a
//! kernel change that moves one fails here first, by model and by entry
//! point.
//!
//! The 96-token constants were captured from the token-at-a-time
//! `dot`-per-row implementation, before the multi-accumulator kernels
//! replaced it; the long-run constants from the token-at-a-time layer
//! loop, before token blocks were run side by side.

use cachegen_llm::{SimModelConfig, SimTransformer};

const TOKENS: usize = 96;
const PROMPT: [usize; 2] = [3, 5];
const STEPS: usize = 8;

/// The long runs' context: the length of every context the layered
/// benchmark prefills.
const LONG_TOKENS: usize = 480;
/// Tokens of the long prompt.
const LONG_PROMPT: usize = 128;
/// Tokens of the continuation scored after the long prompt.
const LONG_CONTINUATION: usize = 32;

/// `len` token ids of a fixed sequence over the vocabulary.
fn sequence(len: usize, mul: usize, add: usize, vocab: usize) -> Vec<usize> {
    (0..len).map(|i| (i * mul + add) % vocab).collect()
}

fn kv_bits(cache: &cachegen_llm::KvCache) -> u64 {
    let bits = |xs: &[f32]| {
        xs.iter()
            .map(|x| u64::from(x.to_bits()))
            .collect::<Vec<_>>()
    };
    let mut kv = bits(cache.k().data());
    kv.extend(bits(cache.v().data()));
    fnv1a(kv)
}

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `[kv, attention mass, generated tokens, nll]` digests of one model.
fn digests(cfg: SimModelConfig) -> [u64; 4] {
    let vocab = cfg.vocab;
    let model = SimTransformer::new(cfg);
    let tokens = sequence(TOKENS, 37, 11, vocab);
    let cache = model.prefill(&tokens);
    let (scored, mass) = model.prefill_with_scores(&tokens);
    assert_eq!(scored, cache, "both prefill entry points return one cache");
    let generated = model.generate_with_kv(&cache, &PROMPT, STEPS);
    let nll = model.continuation_nll(&cache, &PROMPT, &generated);
    [
        kv_bits(&cache),
        fnv1a(mass.iter().map(|m| m.to_bits())),
        fnv1a(generated.iter().map(|&t| t as u64)),
        nll.to_bits(),
    ]
}

/// `[480-token kv, generated after the long prompt, generated on the
/// pruned cache, long-continuation nll]` digests of one model.
fn long_digests(cfg: SimModelConfig) -> [u64; 4] {
    let vocab = cfg.vocab;
    let model = SimTransformer::new(cfg);
    let cache = model.prefill(&sequence(LONG_TOKENS, 37, 11, vocab));
    let prompt = sequence(LONG_PROMPT, 13, 5, vocab);
    let generated = model.generate_with_kv(&cache, &prompt, STEPS);
    // Every third row dropped, as a token-pruning baseline leaves it: the
    // prompt continues from the original length, past the rows present.
    let kept: Vec<usize> = (0..LONG_TOKENS).filter(|t| t % 3 != 0).collect();
    let pruned = cache.select_tokens(&kept);
    let resumed = model.generate_with_kv_at(&pruned, LONG_TOKENS, &prompt, STEPS);
    let continuation = sequence(LONG_CONTINUATION, 29, 3, vocab);
    let nll = model.continuation_nll(&cache, &prompt, &continuation);
    [
        kv_bits(&cache),
        fnv1a(generated.iter().map(|&t| t as u64)),
        fnv1a(resumed.iter().map(|&t| t as u64)),
        nll.to_bits(),
    ]
}

/// Checks every preset's digests against `pinned`, printing the table to
/// paste if any moved.
fn check(
    what: &str,
    digests: fn(SimModelConfig) -> [u64; 4],
    pinned: [(SimModelConfig, [u64; 4]); 6],
) {
    let mut table = String::new();
    let mut moved = Vec::new();
    for (cfg, want) in pinned {
        let name = cfg.name.clone();
        let got = digests(cfg);
        table += &format!(
            "{name}: [{:#018x}, {:#018x}, {:#018x}, {:#018x}]\n",
            got[0], got[1], got[2], got[3]
        );
        if got != want {
            moved.push(name);
        }
    }
    assert!(
        moved.is_empty(),
        "{what} digests moved for {moved:?}; now:\n{table}"
    );
}

#[test]
fn model_outputs_are_bit_identical_to_the_pinned_reference() {
    #[rustfmt::skip]
    let pinned: [(SimModelConfig, [u64; 4]); 6] = [
        (SimModelConfig::tiny(42), [0xe187e5ccc94f16c1, 0xaaadc50a3706a4a4, 0x2928ad1212570119, 0x40307644c18ba722]),
        (SimModelConfig::llama7b_sim(42), [0x871e9b388a0ba38b, 0xcc4bf7e2384b34b6, 0xa31c956bcc74e0ab, 0x403d156854fa164b]),
        (SimModelConfig::llama13b_sim(42), [0x40417960629cc283, 0x4a9d86a4179859a5, 0x534a37f7114de74e, 0x403cd113a4e4708f]),
        (SimModelConfig::mistral7b_sim(42), [0x006a55afa0336498, 0xa307e42a1ef8e33c, 0x9718ed6c4e0072d0, 0x403a4c547a049115]),
        (SimModelConfig::llama34b_sim(42), [0x7e28d725b1b211ac, 0xa6d021e52c7e5a9e, 0xeb36005dc2cea2fb, 0x403deb3559e9c1ff]),
        (SimModelConfig::llama70b_sim(42), [0x828ea83c95f553ad, 0x594143f12859e35c, 0xcabad8fc37961e75, 0x403eb1f3198193e5]),
    ];
    check("[kv, mass, generated, nll]", digests, pinned);
}

#[test]
fn long_runs_are_bit_identical_to_the_pinned_reference() {
    #[rustfmt::skip]
    let pinned: [(SimModelConfig, [u64; 4]); 6] = [
        (SimModelConfig::tiny(42), [0xc0f1ae494c1b94a3, 0x4f83910535a3a525, 0x4f83910535a3a525, 0x40630a8ff39f585f]),
        (SimModelConfig::llama7b_sim(42), [0x56ed23bd85a1efbc, 0x5249ef9c08254ea5, 0xb1b6533e48837138, 0x406a3cc7ce9826fa]),
        (SimModelConfig::llama13b_sim(42), [0x00556a35e193d8b1, 0x0b50c8bcb33423ae, 0xca492e977149dc79, 0x406abd2d10c76903]),
        (SimModelConfig::mistral7b_sim(42), [0x6c41788613aa6660, 0xbfe29c7db5eb9865, 0xfff140bbfd97147b, 0x406a821cdf2f3b61]),
        (SimModelConfig::llama34b_sim(42), [0x9dc836f74fb14697, 0x90c833fa55a6d34a, 0x931a564620ccb974, 0x406985ef99ca984e]),
        (SimModelConfig::llama70b_sim(42), [0x86181524cfead4e0, 0x765ff97d42ba72d1, 0x274cc5ee255e82c2, 0x406abe895a3e8b15]),
    ];
    check(
        "[kv 480, generated, generated pruned, nll]",
        long_digests,
        pinned,
    );
}
