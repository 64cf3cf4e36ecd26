//! Pinned model outputs: for every preset the experiments use, FNV-1a
//! digests of the exact bits `SimTransformer` produces on one fixed
//! 96-token sequence. The numeric core's contract is bit-identity (each
//! output element's products are added in `Iterator::sum`'s order), and
//! everything downstream — container digests, golden serving traces, the
//! benchmark's seed-only metrics — is a function of these bits, so a kernel
//! change that moves one fails here first, by model and by entry point.
//!
//! The constants were captured from the token-at-a-time `dot`-per-row
//! implementation, before the multi-accumulator kernels replaced it.

use cachegen_llm::{SimModelConfig, SimTransformer};

const TOKENS: usize = 96;
const PROMPT: [usize; 2] = [3, 5];
const STEPS: usize = 8;

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
    let tokens: Vec<usize> = (0..TOKENS).map(|i| (i * 37 + 11) % vocab).collect();
    let cache = model.prefill(&tokens);
    let (scored, mass) = model.prefill_with_scores(&tokens);
    assert_eq!(scored, cache, "both prefill entry points return one cache");
    let generated = model.generate_with_kv(&cache, &PROMPT, STEPS);
    let nll = model.continuation_nll(&cache, &PROMPT, &generated);
    let bits = |xs: &[f32]| {
        xs.iter()
            .map(|x| u64::from(x.to_bits()))
            .collect::<Vec<_>>()
    };
    let mut kv = bits(cache.k().data());
    kv.extend(bits(cache.v().data()));
    [
        fnv1a(kv),
        fnv1a(mass.iter().map(|m| m.to_bits())),
        fnv1a(generated.iter().map(|&t| t as u64)),
        nll.to_bits(),
    ]
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
        "[kv, mass, generated, nll] digests moved for {moved:?}; now:\n{table}"
    );
}
