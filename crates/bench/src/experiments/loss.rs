//! Loss sweep: TTFT and QoE vs chunk-packet loss rate, per recovery arm.
//!
//! Extends the paper with the loss-resilient transport: every per-(layer,
//! token-group) entropy chunk travels as its own packet over a link that
//! drops and reorders packets (seeded, deterministic). Three recovery
//! families compete:
//!
//! * **retransmit** — the stall-and-retry baseline (infinite retransmit
//!   budget): every loss is resent, each retry round pays a NACK round
//!   trip, and TTFT balloons with the loss rate;
//! * **repair** — decode what arrived and fill the holes per
//!   [`RepairPolicy`]: TTFT stays at the lossless pace, damage becomes a
//!   bounded quality penalty (and, under `Refetch`, is restored after
//!   TTFT);
//! * **FEC** — parity packets ride the schedule so most losses are
//!   recovered *before* the repair ladder ever triggers: retransmit-free
//!   TTFT like repair, but the recovered chunks are byte-identical — the
//!   quality penalty and the re-fetch load largely disappear, at a
//!   bounded bandwidth overhead. The XOR arms (`paper_default`) absorb
//!   one loss per parity group; the GF(256) Reed–Solomon arms
//!   (`Rs { k, r }`) absorb any `r` losses per group, which is what keeps
//!   the frontier standing at 20–30% loss where XOR groups routinely take
//!   double hits; the `Adaptive` arm picks `(k, r)` per chunk from the
//!   measured loss rate.
//!
//! The sweep covers i.i.d. loss up to 30% plus a burst-loss table
//! (consecutive drops, the regime the collision-minimal interleaver is
//! built for: a burst no longer than `stride · r` is at most `r` losses
//! in every group it touches).
//!
//! `loss_sweep_fast` runs a reduced corpus and *asserts* the frontier
//! invariants so CI pins them: at 10% loss, loss-induced TTFT inflation
//! is FEC ≤ repair ≪ retransmit (raw TTFTs are not comparable across
//! arms — FEC pays its parity bytes on the wire, which is priced
//! separately as bandwidth overhead), and FEC strictly shrinks both the
//! repaired surface at TTFT and the re-fetch load. At 20% loss — i.i.d.
//! and burst — the RS(12, 2) ladder holds TTFT within 1.2× of its own
//! lossless pace at ≤ 20% parity overhead with a bit-exact final cache
//! and zero retransmits, and strictly shrinks the residual repair
//! surface left by the XOR-only ladder at the same loss rate.

use crate::harness::section;
use cachegen::qoe::QoeModel;
use cachegen::{
    load_stored, CacheGenEngine, EngineConfig, FecOverhead, LoadOutcome, LoadParams, RepairPolicy,
};
use cachegen_llm::{KvCache, SimModelConfig};
use cachegen_net::{BandwidthTrace, Link, PacketFaults};
use cachegen_streamer::{AdaptPolicy, ChunkPlan};
use cachegen_telemetry::NOOP;

/// Context-loading bandwidth: sized so the whole stream takes a few
/// hundred ms — long-haul fetch territory, where retry round trips hurt.
const BW_BPS: f64 = 1.0e6;
/// One-way propagation delay (the NACK round trip costs twice this).
const PROPAGATION: f64 = 0.1;
/// Seed for the fault draws (the sweep is bit-reproducible).
const SEED: u64 = 77;

/// Id the scenario's context is stored under.
const ID: u64 = 1;

/// Shared scenario: an engine with one LongChat-style context stored in
/// it (ingested once; every cell of a sweep loads the stored bytes).
pub(crate) struct Scenario {
    engine: CacheGenEngine,
    /// The context's full-precision cache, for scoring loaded ones.
    reference: KvCache,
    /// What `store_kv` returned for the context.
    plan: ChunkPlan,
}

/// A scenario around a context of `tokens` tokens (token-wise locality is
/// what makes neighbor interpolation informative, Insight 1).
pub(crate) fn scenario_sized(tokens: usize) -> Scenario {
    use cachegen_workloads::{workload_rng, Dataset};
    let mut rng = workload_rng(900);
    let profile = Dataset::LongChat.generate(&mut rng, 512, tokens).tokens;
    let engine = CacheGenEngine::build(
        SimModelConfig::llama7b_sim(42),
        EngineConfig::default(),
        &[profile],
    );
    let ctx = Dataset::LongChat.generate(&mut rng, 512, tokens).tokens;
    let reference = engine.calculate_kv(&ctx);
    let plan = engine.store_prefilled(ID, &ctx, &reference);
    Scenario {
        engine,
        reference,
        plan,
    }
}

/// The full-size scenario used by the sweep and the acceptance tests.
pub(crate) fn scenario() -> Scenario {
    scenario_sized(150)
}

/// Runs one (faults, policy, budget, fec) cell against an arbitrary
/// fault model (i.i.d. loss or bursts).
pub(crate) fn run_cell_faults(
    s: &Scenario,
    faults: PacketFaults,
    repair: RepairPolicy,
    retransmit_budget: usize,
    fec: FecOverhead,
) -> LoadOutcome {
    run_cell_faults_seeded(s, faults, repair, retransmit_budget, fec, SEED)
}

/// [`run_cell_faults`] with an explicit fault seed. Arms with different
/// parity shapes put different packet counts on the wire, which shifts
/// the per-packet fault draws — so *per-seed* cross-arm loss patterns are
/// not comparable. Residual-hole comparisons between arms aggregate over
/// a population of seeds instead.
pub(crate) fn run_cell_faults_seeded(
    s: &Scenario,
    faults: PacketFaults,
    repair: RepairPolicy,
    retransmit_budget: usize,
    fec: FecOverhead,
    seed: u64,
) -> LoadOutcome {
    let mut link =
        Link::new(BandwidthTrace::constant(BW_BPS), PROPAGATION).with_packet_faults(faults, seed);
    let params = LoadParams {
        policy: AdaptPolicy::FixedLevel(2),
        prior_throughput_bps: Some(BW_BPS),
        repair,
        retransmit_budget,
        fec_overhead: fec,
        ..LoadParams::default()
    };
    load_stored(&s.engine, ID, &s.plan, &mut link, &params, &NOOP).expect("stored context loads")
}

/// Runs one (loss, policy, budget, fec) cell under i.i.d. loss. Exposed
/// to the acceptance tests.
pub(crate) fn run_cell_fec(
    s: &Scenario,
    loss: f64,
    repair: RepairPolicy,
    retransmit_budget: usize,
    fec: FecOverhead,
) -> LoadOutcome {
    let faults = PacketFaults {
        loss,
        reorder: 0.05,
        ..PacketFaults::none()
    };
    run_cell_faults(s, faults, repair, retransmit_budget, fec)
}

/// Runs one burst-loss cell: drop bursts of `burst_len` consecutive
/// packets start with probability `burst_start` per packet (expected
/// loss ≈ `burst_start · burst_len`).
pub(crate) fn run_cell_burst(
    s: &Scenario,
    burst_start: f64,
    burst_len: usize,
    repair: RepairPolicy,
    retransmit_budget: usize,
    fec: FecOverhead,
) -> LoadOutcome {
    let faults = PacketFaults {
        burst_start,
        burst_len,
        reorder: 0.05,
        ..PacketFaults::none()
    };
    run_cell_faults(s, faults, repair, retransmit_budget, fec)
}

/// One arm of the sweep.
struct Arm {
    name: &'static str,
    repair: RepairPolicy,
    budget: usize,
    fec: FecOverhead,
    /// Repair effectiveness for the MOS model (bit-exact recovery = 1).
    effectiveness: f64,
}

/// The `loss_sweep` experiment: the figures-binary entry point.
pub fn loss_sweep() {
    section("Loss sweep: TTFT/QoE vs chunk loss — FEC vs repair vs retransmit (llama-7b sim)");
    let s = scenario();
    let qoe = QoeModel::default();
    // Base quality of the fetched encoding level (level 2 of the default
    // ladder) for the MOS model.
    let base_quality = 0.95;
    // The repair/FEC arms take delivery in a single pass (budget 0): a
    // retry round would cost a NACK round trip, which is exactly the
    // stall the policies exist to avoid.
    let arms = [
        Arm {
            name: "stall-and-retry",
            repair: RepairPolicy::ZeroFill,
            budget: usize::MAX,
            fec: FecOverhead::Off,
            effectiveness: 0.0,
        },
        Arm {
            name: "zero-fill",
            repair: RepairPolicy::ZeroFill,
            budget: 0,
            fec: FecOverhead::Off,
            effectiveness: 0.0,
        },
        Arm {
            name: "anchor-interp",
            repair: RepairPolicy::AnchorInterpolate,
            budget: 0,
            fec: FecOverhead::Off,
            effectiveness: 0.65,
        },
        Arm {
            name: "refetch",
            repair: RepairPolicy::Refetch,
            budget: 0,
            fec: FecOverhead::Off,
            effectiveness: 1.0,
        },
        Arm {
            name: "fec+interp",
            repair: RepairPolicy::AnchorInterpolate,
            budget: 0,
            fec: FecOverhead::paper_default(),
            effectiveness: 0.65,
        },
        Arm {
            name: "fec+refetch",
            repair: RepairPolicy::Refetch,
            budget: 0,
            fec: FecOverhead::paper_default(),
            effectiveness: 1.0,
        },
        Arm {
            name: "rs2+interp",
            repair: RepairPolicy::AnchorInterpolate,
            budget: 0,
            fec: FecOverhead::Rs { k: 12, r: 2 },
            effectiveness: 0.65,
        },
        Arm {
            name: "rs2+refetch",
            repair: RepairPolicy::Refetch,
            budget: 0,
            fec: FecOverhead::Rs { k: 12, r: 2 },
            effectiveness: 1.0,
        },
        Arm {
            name: "adapt+refetch",
            repair: RepairPolicy::Refetch,
            budget: 0,
            fec: FecOverhead::adaptive_default(),
            effectiveness: 1.0,
        },
    ];
    let losses = [0.0, 0.02, 0.05, 0.10, 0.20, 0.25, 0.30];

    let lossless_ttft = run_cell_fec(&s, 0.0, RepairPolicy::ZeroFill, 0, FecOverhead::Off)
        .stream
        .finish;
    println!("lossless TTFT (no FEC): {lossless_ttft:.3} s\n");
    println!(
        "{:<16} {:>6} {:>9} {:>9} {:>9} {:>7} {:>9} {:>7}",
        "arm", "loss", "ttft (s)", "vs clean", "repaired", "fec-rec", "overhead", "MOS"
    );
    for arm in &arms {
        // "vs clean" compares each arm against *its own* 0%-loss TTFT, so
        // the FEC arms' parity wire time does not masquerade as a
        // loss-induced stall (it is accounted in the overhead column).
        // At 0% loss the repair policy and budget are irrelevant, so one
        // lossless baseline per FEC config covers the arm.
        let arm_lossless = run_cell_fec(&s, 0.0, RepairPolicy::ZeroFill, 0, arm.fec.clone())
            .stream
            .finish;
        for &loss in &losses {
            let out = run_cell_fec(&s, loss, arm.repair, arm.budget, arm.fec.clone());
            let ttft = out.stream.finish;
            let overhead = out.parity_bytes as f64 / out.stream.bytes_sent.max(1) as f64;
            let mos = qoe.mos_with_repairs(
                ttft,
                base_quality,
                out.repaired_fraction.min(1.0),
                arm.effectiveness,
            );
            println!(
                "{:<16} {:>5.0}% {:>9.3} {:>8.2}x {:>8.1}% {:>7} {:>8.1}% {:>7.2}   (mse {:.4})",
                arm.name,
                100.0 * loss,
                ttft,
                ttft / arm_lossless,
                100.0 * out.repaired_fraction,
                out.fec_recovered.len(),
                100.0 * overhead,
                mos,
                s.reference.mse(&out.cache),
            );
        }
        println!();
    }
    // Burst-loss table: drop bursts of 4 consecutive packets, expected
    // loss swept via the burst start probability. The striped interleaver
    // spreads a burst across distinct parity groups (≤ r losses per group
    // for bursts up to stride · r), so the RS arms hold where XOR breaks.
    println!("burst loss (4-packet bursts):");
    println!(
        "{:<16} {:>6} {:>9} {:>9} {:>7} {:>9}",
        "arm", "~loss", "ttft (s)", "repaired", "fec-rec", "overhead"
    );
    let burst_arms = [
        ("refetch", FecOverhead::Off),
        ("fec+refetch", FecOverhead::paper_default()),
        ("rs2+refetch", FecOverhead::Rs { k: 12, r: 2 }),
        ("adapt+refetch", FecOverhead::adaptive_default()),
    ];
    for (name, fec) in &burst_arms {
        for start in [0.0125, 0.025, 0.05] {
            let out = run_cell_burst(&s, start, 4, RepairPolicy::Refetch, 0, fec.clone());
            let overhead = out.parity_bytes as f64 / out.stream.bytes_sent.max(1) as f64;
            println!(
                "{:<16} {:>5.0}% {:>9.3} {:>8.1}% {:>7} {:>8.1}%",
                name,
                100.0 * start * 4.0,
                out.stream.finish,
                100.0 * out.repaired_fraction,
                out.fec_recovered.len(),
                100.0 * overhead,
            );
        }
        println!();
    }
    println!("(stall-and-retry recovers every packet but pays a NACK round trip per retry");
    println!(" round; the repair policies hold TTFT at the lossless pace and take the loss");
    println!(" as a bounded quality penalty; FEC recovers most losses byte-identically");
    println!(" before the repair ladder triggers — one loss per group for the XOR arms,");
    println!(" any r per group for the GF(256) RS arms, (k, r) tracking the measured loss");
    println!(" rate for the adaptive arm — at bounded bandwidth overhead. 'repaired' is");
    println!(" the byte-weighted fraction of the *final* cache that is policy-");
    println!(" reconstructed — refetch arms end at 0% because the second pass restores");
    println!(" bit-exact data after TTFT.)");
}

/// The frontier cells `loss_sweep_fast` asserts on (also reusable from
/// tests): FEC ladder, repair-only ladder, and stall-and-retry at one
/// loss rate, plus each arm's own lossless TTFT.
pub(crate) struct Frontier {
    pub fec: LoadOutcome,
    pub fec_lossless_ttft: f64,
    pub repair: LoadOutcome,
    pub repair_lossless_ttft: f64,
    pub retransmit: LoadOutcome,
    pub retransmit_lossless_ttft: f64,
}

pub(crate) fn frontier_at(s: &Scenario, loss: f64) -> Frontier {
    let fec_cfg = FecOverhead::paper_default();
    let cell =
        |l: f64, repair, budget, fec: &FecOverhead| run_cell_fec(s, l, repair, budget, fec.clone());
    // At 0% loss the policy/budget are irrelevant: one lossless baseline
    // per distinct FEC config.
    let lossless_off = cell(0.0, RepairPolicy::ZeroFill, 0, &FecOverhead::Off)
        .stream
        .finish;
    Frontier {
        fec: cell(loss, RepairPolicy::Refetch, 0, &fec_cfg),
        fec_lossless_ttft: cell(0.0, RepairPolicy::Refetch, 0, &fec_cfg).stream.finish,
        repair: cell(loss, RepairPolicy::Refetch, 0, &FecOverhead::Off),
        repair_lossless_ttft: lossless_off,
        retransmit: cell(loss, RepairPolicy::ZeroFill, usize::MAX, &FecOverhead::Off),
        retransmit_lossless_ttft: lossless_off,
    }
}

/// The 20%-loss multi-erasure frontier cells: the RS(12, 2) refetch
/// ladder vs the XOR-only (`paper_default`) refetch ladder, under i.i.d.
/// loss and 4-packet drop bursts of the same expected rate. The
/// single-seed cells carry the TTFT/overhead/bit-exactness checks; the
/// residual-hole comparison between the two parity shapes is aggregated
/// over [`RS_FRONTIER_SEEDS`] seeds per arm (per-seed cross-arm loss
/// patterns are not comparable — see [`run_cell_faults_seeded`]).
pub(crate) struct RsFrontier {
    pub rs: LoadOutcome,
    pub rs_lossless_ttft: f64,
    pub rs_burst: LoadOutcome,
    /// Σ residual holes at TTFT over the seed population, i.i.d. 20%.
    pub rs_holes: usize,
    pub xor_holes: usize,
    /// Σ residual holes over the seed population, 4-packet bursts.
    pub rs_burst_holes: usize,
    pub xor_burst_holes: usize,
    /// Σ parity-recovered packets over the seed population (both fault
    /// models), per arm.
    pub rs_recovered: usize,
    pub xor_recovered: usize,
}

/// Seeds aggregated by the RS-vs-XOR residual comparison.
pub(crate) const RS_FRONTIER_SEEDS: u64 = 8;

pub(crate) fn rs_frontier_at_20(s: &Scenario) -> RsFrontier {
    let rs_cfg = FecOverhead::Rs { k: 12, r: 2 };
    let xor_cfg = FecOverhead::paper_default();
    let iid = PacketFaults {
        loss: 0.20,
        reorder: 0.05,
        ..PacketFaults::none()
    };
    let burst = PacketFaults {
        burst_start: 0.05,
        burst_len: 4,
        reorder: 0.05,
        ..PacketFaults::none()
    };
    let (mut rs_holes, mut xor_holes) = (0, 0);
    let (mut rs_burst_holes, mut xor_burst_holes) = (0, 0);
    let (mut rs_recovered, mut xor_recovered) = (0, 0);
    for seed in SEED..SEED + RS_FRONTIER_SEEDS {
        for (cfg, holes, bholes, recovered) in [
            (
                &rs_cfg,
                &mut rs_holes,
                &mut rs_burst_holes,
                &mut rs_recovered,
            ),
            (
                &xor_cfg,
                &mut xor_holes,
                &mut xor_burst_holes,
                &mut xor_recovered,
            ),
        ] {
            let cell = |faults: PacketFaults| {
                run_cell_faults_seeded(s, faults, RepairPolicy::Refetch, 0, cfg.clone(), seed)
            };
            let i = cell(iid);
            let b = cell(burst);
            assert!(
                i.repaired_fraction == 0.0 && b.repaired_fraction == 0.0,
                "refetch ladder must end bit-exact (seed {seed})"
            );
            *holes += i.repairs.len();
            *bholes += b.repairs.len();
            *recovered += i.fec_recovered.len() + b.fec_recovered.len();
        }
    }
    RsFrontier {
        rs: run_cell_fec(s, 0.20, RepairPolicy::Refetch, 0, rs_cfg.clone()),
        rs_lossless_ttft: run_cell_fec(s, 0.0, RepairPolicy::Refetch, 0, rs_cfg.clone())
            .stream
            .finish,
        rs_burst: run_cell_burst(s, 0.05, 4, RepairPolicy::Refetch, 0, rs_cfg),
        rs_holes,
        xor_holes,
        rs_burst_holes,
        xor_burst_holes,
        rs_recovered,
        xor_recovered,
    }
}

/// Fast-mode sweep for the CI loop: a small corpus, two pinned loss
/// frontiers (10% XOR, 20% RS), and hard assertions so the headlines
/// cannot silently regress.
pub fn loss_sweep_fast() {
    section("Loss sweep (fast): FEC frontier invariants at 10%/20% packet loss (small corpus)");
    let s = scenario_sized(90);
    let f = frontier_at(&s, 0.10);

    // Loss-induced TTFT inflation per arm (each vs its own lossless
    // pace: parity wire time is bandwidth overhead, not a stall).
    let infl_fec = f.fec.stream.finish / f.fec_lossless_ttft;
    let infl_repair = f.repair.stream.finish / f.repair_lossless_ttft;
    let infl_retx = f.retransmit.stream.finish / f.retransmit_lossless_ttft;
    let overhead = f.fec.parity_bytes as f64 / f.fec.stream.bytes_sent.max(1) as f64;
    println!("TTFT inflation at 10% loss:  fec {infl_fec:.3}x  repair {infl_repair:.3}x  retransmit {infl_retx:.3}x");
    println!(
        "fec arm: {} packets recovered by parity, {} left to repair, {:.1}% bandwidth overhead, repaired_fraction {:.4}",
        f.fec.fec_recovered.len(),
        f.fec.repairs.len(),
        100.0 * overhead,
        f.fec.repaired_fraction,
    );
    println!(
        "repair arm: {} holes repaired at TTFT, {} lost bytes re-fetched after TTFT",
        f.repair.repairs.len(),
        f.repair.stream.lost_bytes(),
    );

    // The frontier invariant: FEC TTFT <= repair TTFT (inflation-wise,
    // both at the lossless pace; epsilon covers reorder jitter) <<
    // retransmit TTFT.
    assert!(
        infl_fec <= infl_repair + 0.02,
        "FEC TTFT inflation {infl_fec} must not exceed repair {infl_repair}"
    );
    assert!(
        infl_repair + 0.02 < infl_retx && infl_retx > 1.5,
        "retransmit must stall: {infl_retx}x vs repair {infl_repair}x"
    );
    // FEC strictly shrinks the repaired surface and the re-fetch load.
    assert!(
        !f.fec.fec_recovered.is_empty(),
        "10% loss must exercise parity recovery"
    );
    assert!(
        f.fec.repairs.len() < f.repair.repairs.len(),
        "FEC must leave fewer holes to repair: {} vs {}",
        f.fec.repairs.len(),
        f.repair.repairs.len()
    );
    assert!(
        f.fec.stream.lost_bytes() < f.repair.stream.lost_bytes(),
        "FEC must shrink the re-fetch load"
    );
    // Full ladder: the final cache is bit-exact and the parity budget
    // stays within the 15% envelope.
    assert!(
        f.fec.repaired_fraction == 0.0,
        "refetch rung must restore the FEC arm's residual"
    );
    assert!(
        overhead <= 0.15,
        "parity overhead {overhead} exceeds the 15% envelope"
    );
    assert_eq!(
        f.fec.stream.retransmits(),
        0,
        "the FEC arm never consumes the retransmit budget"
    );
    println!("frontier invariant holds: fec <= repair << retransmit");

    // ------------------------------------------------------------------
    // The 20%-loss multi-erasure frontier: RS(12, 2) holds where XOR-only
    // parity breaks down (double-hit groups), under both i.i.d. loss and
    // 4-packet drop bursts of the same expected rate.
    let rf = rs_frontier_at_20(&s);
    let rs_infl = rf.rs.stream.finish / rf.rs_lossless_ttft;
    let rs_overhead = rf.rs.parity_bytes as f64 / rf.rs.stream.bytes_sent.max(1) as f64;
    println!(
        "20% i.i.d. loss: rs ttft {:.3}s ({rs_infl:.3}x lossless), {:.1}% overhead; \
         over {} seeds (i.i.d.+burst): rs {} residual holes / {} recovered, \
         xor-only {} holes / {} recovered",
        rf.rs.stream.finish,
        100.0 * rs_overhead,
        RS_FRONTIER_SEEDS,
        rf.rs_holes + rf.rs_burst_holes,
        rf.rs_recovered,
        rf.xor_holes + rf.xor_burst_holes,
        rf.xor_recovered,
    );
    // TTFT holds within 1.2x of the arm's own lossless pace at ≤ 20%
    // parity overhead, with zero retransmits and a bit-exact final cache
    // (the refetch rung restores whatever parity could not; the seed loop
    // inside `rs_frontier_at_20` asserts bit-exactness per seed).
    assert!(
        rs_infl <= 1.2,
        "RS TTFT inflation {rs_infl} must stay within 1.2x of lossless"
    );
    assert!(
        rs_overhead <= 0.20,
        "RS parity overhead {rs_overhead} exceeds the 20% envelope"
    );
    assert_eq!(rf.rs.stream.retransmits(), 0, "RS arm never retransmits");
    assert!(
        rf.rs.repaired_fraction == 0.0 && rf.rs_burst.repaired_fraction == 0.0,
        "RS ladder must end bit-exact under i.i.d. and burst loss"
    );
    assert!(
        rf.rs_recovered > 0,
        "20% loss must exercise multi-erasure recovery"
    );
    // Multi-erasure parity strictly shrinks the residual repair surface
    // the XOR-only ladder leaves at the same loss rate — the double-hit
    // groups XOR cannot solve are exactly where RS(·, 2) still recovers.
    // Aggregated over the seed population per fault model (per-seed
    // cross-arm comparisons are invalid: different parity shapes shift
    // the fault draws).
    assert!(
        rf.rs_holes < rf.xor_holes,
        "RS must leave fewer residual holes than XOR at 20% i.i.d. loss: {} vs {}",
        rf.rs_holes,
        rf.xor_holes
    );
    assert!(
        rf.xor_holes > 0,
        "XOR-only parity must exceed the frontier at 20% loss (residual holes)"
    );
    assert!(
        rf.rs_burst_holes < rf.xor_burst_holes,
        "RS must leave fewer residual holes than XOR under burst loss: {} vs {}",
        rf.rs_burst_holes,
        rf.xor_burst_holes
    );
    println!("multi-erasure frontier holds: rs(12,2) <= 1.2x lossless at <= 20% overhead");
}
