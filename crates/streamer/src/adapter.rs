//! Algorithm 1 (the streaming adapter) and the virtual-time simulation.
//!
//! Per chunk, the adapter estimates throughput from the previous chunk's
//! measured goodput (§5.3), computes the expected completion time of every
//! streaming configuration for *all remaining chunks*, and picks the
//! least-lossy configuration whose expected finish still meets the SLO —
//! text (recompute, lossless) ranks best, then encoding levels finest to
//! coarsest. If nothing fits, it sends the configuration that finishes
//! soonest (minimising SLO violation).
//!
//! The simulation models the §6 pipeline: transmission of chunk *i+1*
//! overlaps decoding of chunk *i* (decode runs on the GPU decode kernel),
//! and text chunks occupy the GPU for a prefill-recompute instead. With
//! `concurrent_requests = B`, per-chunk delays scale by B (§5.3's batched
//! streaming: every chunk index is shared by all B requests).

use crate::delivery::{deliver_schedule, ScheduleDelivery};
use crate::levels::{LevelLadder, StreamConfig};
use crate::plan::ChunkPlan;
use crate::schedule::{ChunkSchedule, FecOverhead, PacketId};
use cachegen_net::{Link, LossEstimator, ThroughputEstimator};
use cachegen_telemetry::{Recorder, Stage};

/// How the streamer picks per-chunk configurations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdaptPolicy {
    /// Full Algorithm 1 (the paper's CacheGen).
    Adaptive,
    /// Always stream at one fixed encoding level ("CacheGen w/o adaptation"
    /// in Figures 7/13).
    FixedLevel(usize),
    /// Always send text and recompute (the "text context" baseline).
    AlwaysText,
}

/// Inputs to the streaming simulation.
pub struct StreamParams<'a> {
    /// SLO on total context-loading time, seconds (None = no deadline:
    /// adaptive policy then streams at the finest level).
    pub slo: Option<f64>,
    /// Configuration policy.
    pub policy: AdaptPolicy,
    /// Prior throughput knowledge for the first chunk, bits/second (§5.3).
    pub prior_throughput_bps: Option<f64>,
    /// Number of concurrent requests sharing the stream (B in §5.3).
    pub concurrent_requests: usize,
    /// Packet retransmissions allowed per chunk on a per-packet-fault
    /// link (ignored elsewhere). `usize::MAX` reproduces the
    /// stall-and-retry baseline: every loss is resent until the chunk is
    /// complete, and TTFT absorbs the retry round trips. A finite budget
    /// caps the stall and leaves the remainder to the codec's repair
    /// policies (the packets still missing are reported per chunk).
    pub retransmit_budget: usize,
    /// Forward-error-correction parity density per encoding level
    /// (per-packet-fault links only). Parity packets ride the schedule's
    /// wire order; any parity group that loses no more data packets than
    /// it has surviving parity packets is recovered at the receiver
    /// *before* the retransmit budget or the repair policies are
    /// consulted (`r = 1` XOR for the fixed policies, Reed–Solomon
    /// `r ≥ 2` for [`FecOverhead::Rs`]/[`FecOverhead::Adaptive`]).
    /// [`FecOverhead::Adaptive`] re-picks `(k, r)` from its fixed ladder
    /// before every chunk, by an EWMA (each chunk weighted 0.5) of the
    /// previous chunks' observed channel loss.
    /// [`FecOverhead::Off`] reproduces the pre-FEC transport bit for bit.
    pub fec_overhead: FecOverhead,
    /// Level ladder (for quality ordering / default medium level).
    pub ladder: &'a LevelLadder,
    /// GPU decode time for a compressed chunk of a given wire size.
    pub decode_seconds: &'a dyn Fn(u64) -> f64,
    /// GPU prefill-recompute time for a text chunk of a given token count.
    pub recompute_seconds: &'a dyn Fn(usize) -> f64,
    /// Telemetry sink for per-chunk wire/decode spans and
    /// `cachegen.streamer.*` counters, attributed to the recorder's
    /// ambient span context. `None` records nothing (same cost as the
    /// disabled recorder).
    pub recorder: Option<&'a Recorder>,
}

/// Outcome for one streamed chunk.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkOutcome {
    /// Chunk index.
    pub index: usize,
    /// Configuration chosen.
    pub config: StreamConfig,
    /// Bytes sent on the wire for this chunk (per request).
    pub bytes: u64,
    /// Virtual time the transfer started.
    pub transfer_start: f64,
    /// Virtual time the last byte arrived.
    pub transfer_finish: f64,
    /// Virtual time this chunk's KV was ready in GPU memory (after decode
    /// or recompute).
    pub ready: f64,
    /// Packets still missing after FEC recovery and the retransmit budget,
    /// with their per-request payload bytes — the holes a
    /// `cachegen-codec` repair policy fills. Empty on clean links and
    /// for text chunks.
    pub lost: Vec<(PacketId, u64)>,
    /// Packets the transport dropped but parity (XOR or Reed–Solomon)
    /// recovered byte-identically at the receiver — they consumed neither
    /// the retransmit budget nor a repair. Empty with [`FecOverhead::Off`].
    pub fec_recovered: Vec<(PacketId, u64)>,
    /// Per-request parity payload bytes this chunk put on the wire (the
    /// FEC bandwidth overhead; zero with [`FecOverhead::Off`]).
    pub parity_bytes: u64,
    /// Packet retransmissions this chunk consumed.
    pub retransmits: u32,
}

impl ChunkOutcome {
    /// Per-request payload bytes that never arrived.
    pub fn lost_bytes(&self) -> u64 {
        self.lost.iter().map(|&(_, b)| b).sum()
    }
}

/// Outcome of streaming a whole context.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamOutcome {
    /// Per-chunk records, in send order.
    pub chunks: Vec<ChunkOutcome>,
    /// Virtual time when the full KV cache was ready (absolute; subtract
    /// the stream's start time for the context-loading delay — TTFT adds
    /// the prompt's own prefill on top).
    pub finish: f64,
    /// Total bytes sent per request.
    pub bytes_sent: u64,
    /// Whether the SLO (if any) was met.
    pub slo_met: bool,
}

impl StreamOutcome {
    /// Per-request payload bytes lost across all chunks (holes left for
    /// the repair policy after the retransmit budget ran out).
    pub fn lost_bytes(&self) -> u64 {
        self.chunks.iter().map(ChunkOutcome::lost_bytes).sum()
    }

    /// Number of packets lost across all chunks.
    pub fn lost_packets(&self) -> usize {
        self.chunks.iter().map(|c| c.lost.len()).sum()
    }

    /// Packet retransmissions spent across all chunks.
    pub fn retransmits(&self) -> u32 {
        self.chunks.iter().map(|c| c.retransmits).sum()
    }

    /// Packets recovered by erasure parity across all chunks.
    pub fn fec_recovered_packets(&self) -> usize {
        self.chunks.iter().map(|c| c.fec_recovered.len()).sum()
    }

    /// Per-request parity payload bytes sent across all chunks (the FEC
    /// bandwidth overhead on top of [`StreamOutcome::bytes_sent`]).
    pub fn parity_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.parity_bytes).sum()
    }
}

/// Expected seconds to finish the remaining chunks (from `from`) at a
/// candidate configuration, assuming `throughput_bps` holds (§5.3's
/// expected-delay computation, scaled by the batch factor).
fn expected_remaining_seconds(
    plan: &ChunkPlan,
    from: usize,
    cfg: StreamConfig,
    throughput_bps: f64,
    params: &StreamParams<'_>,
) -> f64 {
    let batch = params.concurrent_requests as f64;
    match cfg {
        StreamConfig::Level(l) => {
            let bytes = plan.remaining_bytes_at_level(from, l);
            // Decode pipelines with transfer; only the final chunk's decode
            // is exposed (§6), so budget for that tail.
            let last = plan.num_chunks() - 1;
            let tail = (params.decode_seconds)(plan.chunk(last).level_bytes[l]) * batch;
            bytes as f64 * 8.0 / throughput_bps * batch + tail
        }
        StreamConfig::Text => {
            let text_bytes: u64 = plan.chunks()[from..].iter().map(|c| c.text_bytes).sum();
            let net = text_bytes as f64 * 8.0 / throughput_bps * batch;
            let gpu = (params.recompute_seconds)(plan.remaining_tokens(from)) * batch;
            net + gpu
        }
    }
}

fn choose_config(
    plan: &ChunkPlan,
    from: usize,
    elapsed: f64,
    estimator: &ThroughputEstimator,
    params: &StreamParams<'_>,
) -> StreamConfig {
    match params.policy {
        AdaptPolicy::FixedLevel(l) => return StreamConfig::Level(l.min(plan.num_levels() - 1)),
        AdaptPolicy::AlwaysText => return StreamConfig::Text,
        AdaptPolicy::Adaptive => {}
    }
    let throughput = estimator.bits_per_sec().or(params.prior_throughput_bps);
    let Some(throughput) = throughput else {
        // No information at all: start at the default medium level (§5.3).
        return StreamConfig::Level(params.ladder.default_medium().min(plan.num_levels() - 1));
    };
    let Some(slo) = params.slo else {
        // No deadline: stream losslessly-adjacent (finest) level.
        return StreamConfig::Level(0);
    };
    let remaining_time = slo - elapsed;
    let text_expected =
        expected_remaining_seconds(plan, from, StreamConfig::Text, throughput, params);
    // Finest KV level whose expected finish meets the deadline.
    let mut best_level: Option<(usize, f64)> = None;
    let mut fastest: (f64, StreamConfig) = (text_expected, StreamConfig::Text);
    for l in 0..plan.num_levels() {
        let expected =
            expected_remaining_seconds(plan, from, StreamConfig::Level(l), throughput, params);
        if expected <= remaining_time && best_level.is_none() {
            best_level = Some((l, expected));
        }
        if expected < fastest.0 {
            fastest = (expected, StreamConfig::Level(l));
        }
    }
    match best_level {
        Some((l, level_expected)) => {
            // Text (recompute) is lossless, but it burns GPU cycles the
            // serving system needs elsewhere; prefer it only when it is
            // strictly faster than the best feasible KV level (this is what
            // makes short contexts revert to text, Figure 12 right, while
            // long KV streams keep the GPU free, Figure 7).
            if text_expected <= remaining_time && text_expected < level_expected {
                StreamConfig::Text
            } else {
                StreamConfig::Level(l)
            }
        }
        None if text_expected <= remaining_time => StreamConfig::Text,
        // Nothing meets the deadline: minimise the violation.
        None => fastest.1,
    }
}

/// Streams a planned context over a link starting at virtual time zero.
pub fn simulate_stream(
    plan: &ChunkPlan,
    link: &mut Link,
    params: &StreamParams<'_>,
) -> StreamOutcome {
    simulate_stream_from(plan, link, params, 0.0)
}

/// Streams a planned context over a link starting at virtual time `start`
/// — the serving layer dispatches many streams on one shared clock, so the
/// link's bandwidth trace is consulted at the *absolute* time each chunk
/// goes out. All reported times are absolute; the SLO stays relative to
/// `start` (it bounds this request's context-loading delay, §5.3).
pub fn simulate_stream_from(
    plan: &ChunkPlan,
    link: &mut Link,
    params: &StreamParams<'_>,
    start: f64,
) -> StreamOutcome {
    assert!(params.concurrent_requests >= 1, "need at least one request");
    assert!(
        plan.num_levels() <= params.ladder.len(),
        "plan has more levels than the ladder"
    );
    assert!(start >= 0.0, "start time must be non-negative");
    let batch = params.concurrent_requests as u64;
    let mut estimator = ThroughputEstimator::new();
    // Channel-loss EWMA feeding the adaptive FEC policy: each chunk's
    // pre-recovery delivery outcome updates it, so (k, r) follows the
    // channel one chunk behind — the same feedback lag the paper's
    // bandwidth estimator accepts (§5.3).
    let mut loss_estimator = LossEstimator::new();
    let mut t = start;
    let mut decoder_free = start; // GPU decode kernel availability
    let mut gpu_free = start; // GPU prefill availability (text chunks)
    let mut chunks = Vec::with_capacity(plan.num_chunks());
    let mut bytes_sent = 0u64;

    for i in 0..plan.num_chunks() {
        let cfg = choose_config(plan, i, t - start, &estimator, params);
        let chunk = plan.chunk(i);
        let bytes = chunk.bytes_for(cfg);
        // All B requests share the link, so the wire carries B copies of
        // this chunk index before the next (§5.3 batching).
        let transfer_start = t;
        let d = match cfg {
            StreamConfig::Level(l) if link.is_packet_mode() => {
                let fallback = ChunkSchedule::single(bytes);
                let sched = chunk.schedule_for(l).unwrap_or(&fallback);
                let fec = params.fec_overhead.groups_for_with_loss(
                    l,
                    &sched.packet_sizes(),
                    loss_estimator.loss_permille(),
                );
                let d = deliver_schedule(
                    sched,
                    link,
                    t,
                    batch,
                    params.retransmit_budget,
                    fec.as_ref(),
                );
                estimator.observe(d.delivered_bytes, (d.wire_free - t).max(1e-12));
                loss_estimator.observe(d.channel_data_losses, d.channel_data_packets);
                d
            }
            _ => {
                let result = link.send(bytes * batch, t);
                estimator.observe(result.bytes, result.seconds());
                ScheduleDelivery {
                    finish: result.finish,
                    wire_free: result.finish,
                    ..ScheduleDelivery::default()
                }
            }
        };
        let ready = match cfg {
            StreamConfig::Level(_) => {
                // Decode pipelines with the next transfer but serialises on
                // the decode kernel (§6).
                let decode_start = d.finish.max(decoder_free);
                let done = decode_start + (params.decode_seconds)(bytes) * batch as f64;
                decoder_free = done;
                if let Some(rec) = params.recorder {
                    rec.record_span_args(
                        Stage::ChunkDecode,
                        decode_start,
                        done,
                        vec![("chunk", i as f64), ("bytes", bytes as f64)],
                    );
                }
                done
            }
            StreamConfig::Text => {
                let recompute_start = d.finish.max(gpu_free);
                let done =
                    recompute_start + (params.recompute_seconds)(chunk.tokens) * batch as f64;
                gpu_free = done;
                if let Some(rec) = params.recorder {
                    rec.record_span_args(
                        Stage::TextRecompute,
                        recompute_start,
                        done,
                        vec![("chunk", i as f64), ("tokens", chunk.tokens as f64)],
                    );
                }
                done
            }
        };
        let c = ChunkOutcome {
            index: i,
            config: cfg,
            bytes,
            transfer_start,
            transfer_finish: d.finish,
            ready,
            lost: d.lost,
            fec_recovered: d.fec_recovered,
            parity_bytes: d.parity_bytes,
            retransmits: d.retransmits,
        };
        if let Some(rec) = params.recorder {
            rec.record_span_args(
                Stage::WireDelivery,
                transfer_start,
                d.finish,
                vec![
                    ("chunk", i as f64),
                    ("bytes", (bytes * batch) as f64),
                    ("retransmits", c.retransmits as f64),
                    ("lost_packets", c.lost.len() as f64),
                ],
            );
            let recovered = c.fec_recovered.len();
            if recovered > 0 {
                let args = vec![("chunk", i as f64), ("packets", recovered as f64)];
                rec.instant(Stage::FecRecovery, d.finish, args);
            }
            rec.add("cachegen.streamer.chunks", 1);
            rec.add("cachegen.streamer.bytes_sent", bytes);
            rec.add("cachegen.streamer.parity_bytes", c.parity_bytes);
            rec.add("cachegen.streamer.retransmits", c.retransmits as u64);
            rec.add("cachegen.streamer.fec_recovered_packets", recovered as u64);
            rec.add("cachegen.streamer.lost_bytes", c.lost_bytes());
        }
        chunks.push(c);
        bytes_sent += bytes;
        t = d.wire_free;
    }
    let finish = chunks.iter().map(|c| c.ready).fold(start, f64::max);
    let slo_met = params.slo.map(|s| finish - start <= s).unwrap_or(true);
    StreamOutcome {
        chunks,
        finish,
        bytes_sent,
        slo_met,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ChunkSizes;
    use cachegen_net::trace::{BandwidthTrace, GBPS};

    /// 4 chunks × 250 MB at level 0, shrinking ~2× per level; 6 KB text.
    fn gb_plan() -> ChunkPlan {
        let chunk = |scale: u64| {
            ChunkSizes::new(
                1500,
                vec![250_000_000 / scale, 125_000_000 / scale, 62_500_000 / scale],
                6_000,
            )
        };
        ChunkPlan::new(vec![chunk(1), chunk(1), chunk(1), chunk(1)])
    }

    fn fast_decode(_bytes: u64) -> f64 {
        0.01
    }

    fn slow_recompute(tokens: usize) -> f64 {
        tokens as f64 * 1e-3 // 1.5 s per 1500-token chunk
    }

    fn params<'a>(
        slo: Option<f64>,
        policy: AdaptPolicy,
        ladder: &'a LevelLadder,
        decode: &'a dyn Fn(u64) -> f64,
        recompute: &'a dyn Fn(usize) -> f64,
    ) -> StreamParams<'a> {
        StreamParams {
            slo,
            policy,
            prior_throughput_bps: Some(2.0 * GBPS),
            concurrent_requests: 1,
            retransmit_budget: 0,
            fec_overhead: FecOverhead::Off,
            ladder,
            decode_seconds: decode,
            recompute_seconds: recompute,
            recorder: None,
        }
    }

    #[test]
    fn fixed_level_on_constant_bandwidth() {
        let plan = gb_plan();
        let ladder = LevelLadder::new(vec![1.0, 2.0, 4.0]);
        let mut link = Link::new(BandwidthTrace::constant(2.0 * GBPS), 0.0);
        let p = params(
            None,
            AdaptPolicy::FixedLevel(0),
            &ladder,
            &fast_decode,
            &slow_recompute,
        );
        let out = simulate_stream(&plan, &mut link, &p);
        // 1 GB at 2 Gbps = 4 s transfer + ≤4 decodes of 10 ms.
        assert!((out.finish - 4.01).abs() < 0.05, "finish {}", out.finish);
        assert_eq!(out.bytes_sent, 1_000_000_000);
        assert!(out
            .chunks
            .iter()
            .all(|c| c.config == StreamConfig::Level(0)));
    }

    #[test]
    fn figure7_adaptation_meets_slo_where_fixed_violates() {
        // The paper's Figure 7: 1 GB stream, SLO 4 s, bandwidth dips to
        // 0.2 Gbps during [2, 4) s. Fixed level misses; adaptive downshifts.
        let plan = gb_plan();
        let ladder = LevelLadder::new(vec![1.0, 2.0, 4.0]);
        let slo = Some(4.5);

        let mut link = Link::new(BandwidthTrace::figure7(), 0.0);
        let fixed = params(
            slo,
            AdaptPolicy::FixedLevel(0),
            &ladder,
            &fast_decode,
            &slow_recompute,
        );
        let out_fixed = simulate_stream(&plan, &mut link, &fixed);
        assert!(
            !out_fixed.slo_met,
            "fixed level should violate: {}",
            out_fixed.finish
        );

        let mut link = Link::new(BandwidthTrace::figure7(), 0.0);
        let adaptive = params(
            slo,
            AdaptPolicy::Adaptive,
            &ladder,
            &fast_decode,
            &slow_recompute,
        );
        let out_adapt = simulate_stream(&plan, &mut link, &adaptive);
        assert!(
            out_adapt.finish < out_fixed.finish,
            "adaptive {} should beat fixed {}",
            out_adapt.finish,
            out_fixed.finish
        );
        // Adaptation must have downshifted at least one chunk.
        assert!(out_adapt
            .chunks
            .iter()
            .any(|c| c.config != StreamConfig::Level(0)));
    }

    #[test]
    fn starved_link_falls_back_to_text() {
        // At 1 Mbps even the coarsest KV level takes hours; recompute takes
        // 6 s. Algorithm 1 must choose text.
        let plan = gb_plan();
        let ladder = LevelLadder::new(vec![1.0, 2.0, 4.0]);
        let mut link = Link::new(BandwidthTrace::constant(1e6), 0.0);
        let mut p = params(
            Some(30.0),
            AdaptPolicy::Adaptive,
            &ladder,
            &fast_decode,
            &slow_recompute,
        );
        p.prior_throughput_bps = Some(1e6);
        let out = simulate_stream(&plan, &mut link, &p);
        assert!(
            out.chunks.iter().all(|c| c.config == StreamConfig::Text),
            "configs: {:?}",
            out.chunks.iter().map(|c| c.config).collect::<Vec<_>>()
        );
        assert!(
            out.slo_met,
            "text fallback should meet 30 s SLO: {}",
            out.finish
        );
    }

    #[test]
    fn text_preferred_when_gpu_beats_network() {
        // Short context + fast GPU: recomputing is faster than any KV level,
        // and it is lossless, so Algorithm 1 picks it (Figure 12 right:
        // short contexts revert to text).
        let plan = ChunkPlan::new(vec![ChunkSizes::new(
            100,
            vec![50_000_000, 25_000_000],
            400,
        )]);
        let ladder = LevelLadder::new(vec![1.0, 2.0]);
        let fast_recompute = |tokens: usize| tokens as f64 * 1e-4; // 10 ms
        let mut link = Link::new(BandwidthTrace::constant(0.1 * GBPS), 0.0);
        let mut p = params(
            Some(1.0),
            AdaptPolicy::Adaptive,
            &ladder,
            &fast_decode,
            &fast_recompute,
        );
        p.prior_throughput_bps = Some(0.1 * GBPS);
        let out = simulate_stream(&plan, &mut link, &p);
        assert_eq!(out.chunks[0].config, StreamConfig::Text);
        assert!(out.slo_met);
    }

    #[test]
    fn batching_scales_delay() {
        let plan = gb_plan();
        let ladder = LevelLadder::new(vec![1.0, 2.0, 4.0]);
        let run = |b: usize| {
            let mut link = Link::new(BandwidthTrace::constant(8.0 * GBPS), 0.0);
            let mut p = params(
                None,
                AdaptPolicy::FixedLevel(0),
                &ladder,
                &fast_decode,
                &slow_recompute,
            );
            p.concurrent_requests = b;
            simulate_stream(&plan, &mut link, &p).finish
        };
        let t1 = run(1);
        let t4 = run(4);
        assert!(
            (t4 / t1 - 4.0).abs() < 0.1,
            "4 concurrent requests should ≈4× delay: {t1} vs {t4}"
        );
    }

    #[test]
    fn decode_pipelines_with_transfer() {
        // Decode per chunk = 0.5 s, transfer per chunk = 1 s. Pipelined
        // finish ≈ 4 transfers + 1 decode tail, not 4 × 1.5.
        let plan = gb_plan();
        let ladder = LevelLadder::new(vec![1.0, 2.0, 4.0]);
        let decode_half_sec = |_b: u64| 0.5;
        let mut link = Link::new(BandwidthTrace::constant(2.0 * GBPS), 0.0);
        let p = params(
            None,
            AdaptPolicy::FixedLevel(0),
            &ladder,
            &decode_half_sec,
            &slow_recompute,
        );
        let out = simulate_stream(&plan, &mut link, &p);
        assert!(
            (out.finish - 4.5).abs() < 0.05,
            "pipelined finish should be ≈4.5 s, got {}",
            out.finish
        );
    }

    #[test]
    fn no_estimate_uses_default_medium() {
        let plan = gb_plan();
        let ladder = LevelLadder::new(vec![1.0, 2.0, 4.0]);
        let mut link = Link::new(BandwidthTrace::constant(2.0 * GBPS), 0.0);
        let mut p = params(
            Some(4.0),
            AdaptPolicy::Adaptive,
            &ladder,
            &fast_decode,
            &slow_recompute,
        );
        p.prior_throughput_bps = None;
        let out = simulate_stream(&plan, &mut link, &p);
        assert_eq!(
            out.chunks[0].config,
            StreamConfig::Level(ladder.default_medium())
        );
    }

    #[test]
    fn offset_start_shifts_timeline_and_consults_trace_at_absolute_time() {
        let plan = gb_plan();
        let ladder = LevelLadder::new(vec![1.0, 2.0, 4.0]);
        let p = params(
            None,
            AdaptPolicy::FixedLevel(0),
            &ladder,
            &fast_decode,
            &slow_recompute,
        );
        // On a constant link, starting at t=10 is a pure time shift.
        let mut link = Link::new(BandwidthTrace::constant(2.0 * GBPS), 0.0);
        let base = simulate_stream(&plan, &mut link, &p);
        let mut link = Link::new(BandwidthTrace::constant(2.0 * GBPS), 0.0);
        let shifted = simulate_stream_from(&plan, &mut link, &p, 10.0);
        assert!((shifted.finish - base.finish - 10.0).abs() < 1e-9);
        assert_eq!(shifted.chunks[0].transfer_start, 10.0);
        assert_eq!(shifted.bytes_sent, base.bytes_sent);

        // On the figure-7 trace, a stream dispatched at t=2 lands in the
        // 0.2 Gbps valley and takes longer than one dispatched at t=0.
        let mut link = Link::new(BandwidthTrace::figure7(), 0.0);
        let early = simulate_stream(&plan, &mut link, &p);
        let mut link = Link::new(BandwidthTrace::figure7(), 0.0);
        let late = simulate_stream_from(&plan, &mut link, &p, 2.0);
        assert!(
            late.finish - 2.0 > early.finish,
            "valley start {} should stream slower than t=0 start {}",
            late.finish - 2.0,
            early.finish
        );
    }

    /// A plan whose chunks carry per-(layer, group) packet schedules:
    /// 2 chunks × 1 level, 2 layers × 2 groups × K/V = 8 packets each.
    fn packet_plan() -> ChunkPlan {
        let chunk = || {
            let entries: Vec<(PacketId, u64)> = (0..2)
                .flat_map(|group| {
                    (0..2).flat_map(move |layer| {
                        [true, false].map(|is_k| (PacketId { group, layer, is_k }, 125_000u64))
                    })
                })
                .collect();
            ChunkSizes::new(100, vec![1_000_000], 400)
                .with_schedules(vec![ChunkSchedule::priority_ordered(entries)])
        };
        ChunkPlan::new(vec![chunk(), chunk()])
    }

    #[test]
    fn lossy_packet_stream_reports_losses_instead_of_stalling() {
        use cachegen_net::PacketFaults;
        let plan = packet_plan();
        let ladder = LevelLadder::new(vec![1.0]);
        let clean_finish = {
            let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.01);
            let p = params(
                None,
                AdaptPolicy::FixedLevel(0),
                &ladder,
                &fast_decode,
                &slow_recompute,
            );
            simulate_stream(&plan, &mut link, &p).finish
        };
        let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.01)
            .with_packet_faults(PacketFaults::loss(0.3), 42);
        let p = params(
            None,
            AdaptPolicy::FixedLevel(0),
            &ladder,
            &fast_decode,
            &slow_recompute,
        );
        let out = simulate_stream(&plan, &mut link, &p);
        assert!(out.lost_packets() > 0, "30% loss must leave holes");
        assert_eq!(out.lost_bytes(), out.lost_packets() as u64 * 125_000);
        assert!(out.retransmits() == 0, "budget 0 never retransmits");
        // Zero-budget delivery costs no retry round trips: finish stays
        // within a propagation delay of the clean run.
        assert!(
            out.finish <= clean_finish + 0.05,
            "lossy {} vs clean {clean_finish}",
            out.finish
        );
    }

    #[test]
    fn retransmit_budget_recovers_packets_and_costs_round_trips() {
        use cachegen_net::PacketFaults;
        let plan = packet_plan();
        let ladder = LevelLadder::new(vec![1.0]);
        let run = |budget: usize| {
            let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.02)
                .with_packet_faults(PacketFaults::loss(0.3), 7);
            let mut p = params(
                None,
                AdaptPolicy::FixedLevel(0),
                &ladder,
                &fast_decode,
                &slow_recompute,
            );
            p.retransmit_budget = budget;
            simulate_stream(&plan, &mut link, &p)
        };
        let none = run(0);
        let stall = run(usize::MAX);
        assert_eq!(stall.lost_packets(), 0, "infinite budget recovers all");
        assert!(stall.retransmits() > 0);
        assert!(
            stall.finish > none.finish,
            "stall-and-retry {} must pay for its round trips vs {}",
            stall.finish,
            none.finish
        );
        // Same seed, same budget → identical timeline.
        let again = run(usize::MAX);
        assert_eq!(stall.chunks, again.chunks);
    }

    #[test]
    fn lost_packets_preserve_priority_order() {
        use cachegen_net::PacketFaults;
        let plan = packet_plan();
        let ladder = LevelLadder::new(vec![1.0]);
        let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.0)
            .with_packet_faults(PacketFaults::loss(0.5), 3);
        let p = params(
            None,
            AdaptPolicy::FixedLevel(0),
            &ladder,
            &fast_decode,
            &slow_recompute,
        );
        let out = simulate_stream(&plan, &mut link, &p);
        for c in &out.chunks {
            let keys: Vec<_> = c
                .lost
                .iter()
                .map(|(id, _)| (id.group, id.layer, !id.is_k))
                .collect();
            assert!(
                keys.windows(2).all(|w| w[0] <= w[1]),
                "lost packets must stay in priority order: {keys:?}"
            );
        }
    }

    #[test]
    fn fec_recovers_single_losses_without_retransmission() {
        use cachegen_net::PacketFaults;
        let plan = packet_plan();
        let ladder = LevelLadder::new(vec![1.0]);
        let run = |fec: FecOverhead| {
            let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.01)
                .with_packet_faults(PacketFaults::loss(0.08), 42);
            let mut p = params(
                None,
                AdaptPolicy::FixedLevel(0),
                &ladder,
                &fast_decode,
                &slow_recompute,
            );
            p.fec_overhead = fec;
            simulate_stream(&plan, &mut link, &p)
        };
        let off = run(FecOverhead::Off);
        let on = run(FecOverhead::Rs { k: 2, r: 1 });
        assert!(off.lost_packets() > 0, "8% loss over 16 packets (seeded)");
        assert_eq!(off.parity_bytes(), 0);
        assert_eq!(off.fec_recovered_packets(), 0);
        assert!(on.parity_bytes() > 0, "parity rides the wire");
        assert!(
            on.fec_recovered_packets() > 0,
            "k=2 parity must recover seeded single losses"
        );
        assert!(
            on.lost_packets() < on.fec_recovered_packets() + off.lost_packets(),
            "recovery must not invent losses"
        );
        assert_eq!(on.retransmits(), 0, "FEC recovery never spends budget");
        // A recovered packet never also shows up as lost.
        for c in &on.chunks {
            for &(id, _) in &c.fec_recovered {
                assert!(!c.lost.iter().any(|&(l, _)| l == id));
            }
        }
    }

    #[test]
    fn fec_recovery_saves_the_retransmit_budget_and_its_round_trips() {
        use cachegen_net::PacketFaults;
        let plan = packet_plan();
        let ladder = LevelLadder::new(vec![1.0]);
        let run = |fec: FecOverhead| {
            let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.05)
                .with_packet_faults(PacketFaults::loss(0.15), 11);
            let mut p = params(
                None,
                AdaptPolicy::FixedLevel(0),
                &ladder,
                &fast_decode,
                &slow_recompute,
            );
            p.retransmit_budget = usize::MAX;
            p.fec_overhead = fec;
            simulate_stream(&plan, &mut link, &p)
        };
        let off = run(FecOverhead::Off);
        let on = run(FecOverhead::Rs { k: 2, r: 1 });
        assert_eq!(off.lost_packets(), 0, "infinite budget recovers all");
        assert_eq!(on.lost_packets(), 0);
        assert!(
            on.retransmits() < off.retransmits(),
            "FEC must absorb most retransmissions: {} vs {}",
            on.retransmits(),
            off.retransmits()
        );
    }

    #[test]
    fn rs_parity_recovers_double_loss_groups_where_xor_cannot() {
        use cachegen_net::PacketFaults;
        let plan = packet_plan();
        let ladder = LevelLadder::new(vec![1.0]);
        let run = |fec: FecOverhead, seed: u64| {
            let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.01)
                .with_packet_faults(PacketFaults::loss(0.25), seed);
            let mut p = params(
                None,
                AdaptPolicy::FixedLevel(0),
                &ladder,
                &fast_decode,
                &slow_recompute,
            );
            p.fec_overhead = fec;
            simulate_stream(&plan, &mut link, &p)
        };
        // The extra parity packets shift the seeded fault draws, so
        // individual seeds aren't comparable packet-for-packet; across a
        // seed population RS r=2 must leave strictly fewer residual
        // holes than XOR at the same k (it additionally recovers the
        // double-loss groups XOR hands to the repair ladder).
        let mut xor_lost = 0usize;
        let mut rs_lost = 0usize;
        for seed in 0..64 {
            let xor = run(FecOverhead::Rs { k: 4, r: 1 }, seed);
            let rs = run(FecOverhead::Rs { k: 4, r: 2 }, seed);
            assert_eq!(rs.retransmits(), 0);
            xor_lost += xor.lost_packets();
            rs_lost += rs.lost_packets();
        }
        assert!(xor_lost > 0, "25% loss must defeat single parity somewhere");
        assert!(
            rs_lost * 4 <= xor_lost * 3,
            "RS r=2 should cut residual holes by ≥25%: {rs_lost} vs {xor_lost}"
        );
    }

    #[test]
    fn adaptive_fec_relaxes_parity_on_clean_channels() {
        use cachegen_net::PacketFaults;
        let plan = packet_plan();
        let ladder = LevelLadder::new(vec![1.0]);
        let run = |loss: f64| {
            let mut link = Link::new(BandwidthTrace::constant(GBPS), 0.01)
                .with_packet_faults(PacketFaults::loss(loss), 5);
            let mut p = params(
                None,
                AdaptPolicy::FixedLevel(0),
                &ladder,
                &fast_decode,
                &slow_recompute,
            );
            p.fec_overhead = FecOverhead::adaptive_default();
            simulate_stream(&plan, &mut link, &p)
        };
        let clean = run(0.0);
        let lossy = run(0.25);
        // First chunk always pays the protective rung; on a clean channel
        // the second chunk drops to the light rung, so total parity bytes
        // are strictly lower than under sustained loss.
        assert!(clean.parity_bytes() > 0);
        assert!(
            clean.parity_bytes() < lossy.parity_bytes(),
            "clean {} vs lossy {}",
            clean.parity_bytes(),
            lossy.parity_bytes()
        );
        // Determinism: same seed, same ladder → identical outcome.
        assert_eq!(run(0.25).chunks, lossy.chunks);
    }

    #[test]
    fn plans_without_schedules_fall_back_to_whole_chunk_packets() {
        use cachegen_net::PacketFaults;
        // gb_plan has no packet geometry: each chunk is one packet, so a
        // loss drops the whole chunk's bytes.
        let plan = gb_plan();
        let ladder = LevelLadder::new(vec![1.0, 2.0, 4.0]);
        let mut link = Link::new(BandwidthTrace::constant(8.0 * GBPS), 0.0)
            .with_packet_faults(PacketFaults::loss(0.4), 21);
        let p = params(
            None,
            AdaptPolicy::FixedLevel(0),
            &ladder,
            &fast_decode,
            &slow_recompute,
        );
        let out = simulate_stream(&plan, &mut link, &p);
        for c in &out.chunks {
            assert!(c.lost.len() <= 1);
            if let Some(&(id, bytes)) = c.lost.first() {
                assert_eq!(bytes, c.bytes, "whole-chunk packet");
                assert_eq!((id.group, id.layer, id.is_k), (0, 0, true));
            }
        }
    }

    #[test]
    fn config_histogram_counts() {
        let plan = gb_plan();
        let ladder = LevelLadder::new(vec![1.0, 2.0, 4.0]);
        let mut link = Link::new(BandwidthTrace::constant(2.0 * GBPS), 0.0);
        let p = params(
            None,
            AdaptPolicy::FixedLevel(1),
            &ladder,
            &fast_decode,
            &slow_recompute,
        );
        let out = simulate_stream(&plan, &mut link, &p);
        let level1 = out
            .chunks
            .iter()
            .filter(|c| c.config == StreamConfig::Level(1))
            .count();
        assert_eq!(level1, 4);
    }
}
