//! The operations the workloads time.
//!
//! Each is composed from the crates' public calls so that every call can
//! be timed from outside ([`Tracer::span`]); the library's one-call
//! equivalents (`load_context`, `encode_context`) re-do work per call or
//! hide the layers, so they are the *reference* the composed operation
//! is checked against (see `workloads.rs`), and ledger rows of their own.

use crate::fixture::{self, EngineFixture, MID_LEVEL};
use crate::trace::Tracer;
use cachegen::{CacheGenEngine, FecOverhead, RepairPolicy};
use cachegen_codec::{ChunkArrivalMap, EncodedKv};
use cachegen_kvstore::FetchedChunk;
use cachegen_llm::KvCache;
use cachegen_net::{FecGroups, Link, LossEstimator, PacketFaults, RsCode};
use cachegen_streamer::{
    deliver_schedule, simulate_stream, ChunkPlan, ChunkSchedule, ChunkSizes, PacketId,
    StreamConfig, StreamOutcome,
};
use std::collections::BTreeMap;

/// Packets by address with their payload bytes, as the streamer reports
/// them.
pub type Packets = Vec<(PacketId, u64)>;
/// One parity group's code and its parity payloads.
type GroupParity = (RsCode, Vec<Vec<u8>>);

/// Store ids `store_ingest` writes under (the fixture owns `0..8`).
pub const INGEST_ID_BASE: u64 = 1000;

/// Work counted at the layer boundaries of one operation (summed over a
/// run by [`Counts::add`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Packets the link carried (data + parity).
    pub packets_sent: u64,
    /// Packets the link dropped (data + parity).
    pub packets_dropped: u64,
    /// Data packets parity rebuilt.
    pub fec_recovered: u64,
    /// Data packets still missing after parity.
    pub unrecovered: u64,
    /// KV payload bytes put on the link.
    pub data_bytes: u64,
    /// Parity bytes put on the link.
    pub parity_bytes: u64,
    /// KV payload bytes that never reached the decoder.
    pub lost_bytes: u64,
    /// Packets resent.
    pub retransmits: u64,
    /// Entropy chunks decoded.
    pub chunks_decoded: u64,
    /// Tensor elements decoded.
    pub elements_decoded: u64,
    /// Tensor elements encoded (every level counted).
    pub elements_encoded: u64,
    /// Stream chunks per configuration: levels 0–4, then text.
    pub configs: [u64; 6],
    /// Stream chunks per adaptive FEC rung: (14,1), (10,1), (12,2).
    pub rungs: [u64; 3],
    /// Rebuilt payloads that differ from what was sent.
    pub byte_mismatches: u64,
}

impl Counts {
    /// Adds another operation's counts.
    pub fn add(&mut self, o: &Counts) {
        self.packets_sent += o.packets_sent;
        self.packets_dropped += o.packets_dropped;
        self.fec_recovered += o.fec_recovered;
        self.unrecovered += o.unrecovered;
        self.data_bytes += o.data_bytes;
        self.parity_bytes += o.parity_bytes;
        self.lost_bytes += o.lost_bytes;
        self.retransmits += o.retransmits;
        self.chunks_decoded += o.chunks_decoded;
        self.elements_decoded += o.elements_decoded;
        self.elements_encoded += o.elements_encoded;
        for (a, b) in self.configs.iter_mut().zip(o.configs) {
            *a += b;
        }
        for (a, b) in self.rungs.iter_mut().zip(o.rungs) {
            *a += b;
        }
        self.byte_mismatches += o.byte_mismatches;
    }

    fn link(&mut self, link: &Link) {
        let s = link.stats();
        self.packets_sent += s.packets_sent;
        self.packets_dropped += s.packets_dropped;
    }
}

/// The link condition of a load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadKind {
    /// No faults; chunks travel as plain transfers, FEC off.
    Clean,
    /// 10% i.i.d. packet loss, fixed RS(12, 2) parity.
    Lossy,
}

impl LoadKind {
    /// The FEC policy the loader streams with.
    pub fn fec(self) -> FecOverhead {
        match self {
            LoadKind::Clean => FecOverhead::Off,
            LoadKind::Lossy => FecOverhead::Rs { k: 12, r: 2 },
        }
    }

    /// The link of one operation.
    pub fn link(self, fault_seed: u64) -> Link {
        match self {
            LoadKind::Clean => fixture::link(None),
            LoadKind::Lossy => fixture::link(Some((PacketFaults::loss(0.10), fault_seed))),
        }
    }
}

/// What one load produced.
pub struct LoadOut {
    /// The reassembled KV cache.
    pub cache: KvCache,
    /// The streaming timeline.
    pub stream: StreamOutcome,
    /// Work counted.
    pub counts: Counts,
}

impl LoadOut {
    /// Virtual context-loading delay, seconds.
    pub fn finish(&self) -> f64 {
        self.stream.finish
    }

    /// Bytes put on the link (data, parity, retransmissions).
    pub fn wire_bytes(&self) -> u64 {
        self.stream.bytes_sent + self.stream.parity_bytes()
    }
}

/// The codec's arrival map of one stream chunk's lost and FEC-recovered
/// packets.
pub fn arrival_map(
    enc: &EncodedKv,
    lost: &[(PacketId, u64)],
    recovered: &[(PacketId, u64)],
) -> ChunkArrivalMap {
    let mut map = ChunkArrivalMap::full(enc.layers, enc.num_groups());
    for &(id, _) in lost {
        map.mark_lost(id.is_k, id.layer, id.group);
    }
    for &(id, _) in recovered {
        map.mark_recovered(id.is_k, id.layer, id.group);
    }
    map
}

/// The entropy-chunk payload a packet carries.
fn payload(enc: &EncodedKv, id: PacketId) -> &[u8] {
    let side = if id.is_k {
        &enc.k_chunks
    } else {
        &enc.v_chunks
    };
    &side[id.layer][id.group]
}

/// Sender side of one parity group: its code and the parity payloads
/// over the members' real chunk bytes.
fn group_parity(
    tr: &mut Tracer,
    enc: &EncodedKv,
    entries: &[(PacketId, u64)],
    groups: &FecGroups,
    g: usize,
) -> Result<GroupParity, String> {
    let members: Vec<&[u8]> = groups
        .members(g)
        .iter()
        .map(|&i| payload(enc, entries[i].0))
        .collect();
    tr.span("net.rs_parity", || {
        let code = RsCode::new(members.len(), groups.repairs_of(g)).map_err(|e| e.to_string())?;
        let parity = code.parity(&members);
        Ok((code, parity))
    })
}

/// Receiver side: rebuilds every packet the transport reported as
/// FEC-recovered with `RsCode::recover` over the real payloads and
/// compares it byte for byte with what was sent. The delivery reports
/// only that a group kept at least as many parity packets as it lost
/// members, not which; any `s` parity rows solve `s` losses (MDS), so
/// the receiver is handed the first `s`. `sender` holds parity already
/// computed per group; without it the needed groups are encoded here.
fn rebuild(
    tr: &mut Tracer,
    enc: &EncodedKv,
    entries: &[(PacketId, u64)],
    groups: &FecGroups,
    recovered: &[(PacketId, u64)],
    sender: Option<&[GroupParity]>,
    counts: &mut Counts,
) -> Result<(), String> {
    let mut lost_in: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &(id, _) in recovered {
        let index = entries
            .iter()
            .position(|e| e.0 == id)
            .ok_or("recovered packet is not in the schedule")?;
        let g = groups
            .group_of(index)
            .ok_or("recovered packet has no parity group")?;
        lost_in.entry(g).or_default().push(index);
    }
    for (g, lost) in lost_in {
        let encoded_here;
        let (code, parity) = match sender {
            Some(s) => &s[g],
            None => {
                encoded_here = group_parity(tr, enc, entries, groups, g)?;
                &encoded_here
            }
        };
        let members = groups.members(g);
        let data: Vec<Option<&[u8]>> = members
            .iter()
            .map(|i| (!lost.contains(i)).then(|| payload(enc, entries[*i].0)))
            .collect();
        let alive: Vec<Option<&[u8]>> = parity
            .iter()
            .enumerate()
            .map(|(j, p)| (j < lost.len()).then_some(p.as_slice()))
            .collect();
        let rebuilt = tr
            .span("net.rs_recover", || code.recover(&data, &alive))
            .map_err(|e| e.to_string())?;
        if rebuilt.len() != lost.len() {
            counts.byte_mismatches += 1;
        }
        for (position, bytes) in rebuilt {
            let sent = payload(enc, entries[members[position]].0);
            let same = bytes.len() >= sent.len()
                && bytes[..sent.len()] == *sent
                && bytes[sent.len()..].iter().all(|&b| b == 0);
            counts.byte_mismatches += u64::from(!same);
        }
    }
    Ok(())
}

/// Read path: stream the stored plan, fetch each chunk from the store at
/// the level the adapter chose, parse, decode (hole-aware when the link
/// lost packets, after rebuilding what parity recovered), reassemble.
/// `store_id` names the stored context, `ctx` its corpus entry.
pub fn load(
    fx: &EngineFixture,
    ctx: usize,
    store_id: u64,
    kind: LoadKind,
    fault_seed: u64,
    tr: &mut Tracer,
) -> Result<LoadOut, String> {
    let engine = &fx.engine;
    let plan = &fx.plans[ctx];
    let reference = &fx.kvs[ctx];
    let fec = kind.fec();
    let mut link = kind.link(fault_seed);
    let params = fixture::stream_params(engine, fec.clone());
    let stream = tr.span("streamer.simulate_stream", || {
        simulate_stream(plan, &mut link, &params)
    });
    let mut counts = Counts::default();
    counts.link(&link);
    let mut chunks = Vec::with_capacity(stream.chunks.len());
    let mut start = 0usize;
    for outcome in &stream.chunks {
        let tokens = plan.chunk(outcome.index).tokens;
        let chunk = match outcome.config {
            StreamConfig::Level(l) => {
                counts.configs[l] += 1;
                counts.data_bytes += outcome.bytes;
                counts.parity_bytes += outcome.parity_bytes;
                counts.lost_bytes += outcome.lost_bytes();
                counts.fec_recovered += outcome.fec_recovered.len() as u64;
                counts.unrecovered += outcome.lost.len() as u64;
                counts.retransmits += u64::from(outcome.retransmits);
                let fetched = tr.span("kvstore.get_kv", || {
                    engine.get_kv(store_id, outcome.index, l)
                });
                let Some(FetchedChunk::Encoded(bytes)) = fetched else {
                    return Err(format!("chunk {} level {l} is not stored", outcome.index));
                };
                let enc = tr.span("codec.from_bytes", || EncodedKv::from_bytes(&bytes))?;
                counts.elements_decoded += 2 * (enc.layers * enc.tokens * enc.channels) as u64;
                if outcome.lost.is_empty() && outcome.fec_recovered.is_empty() {
                    counts.chunks_decoded += enc.num_chunks() as u64;
                    tr.span("codec.try_decode", || engine.codec(l).try_decode(&enc))
                        .map_err(|e| e.to_string())?
                } else {
                    if !outcome.fec_recovered.is_empty() {
                        let sched = plan
                            .chunk(outcome.index)
                            .schedule_for(l)
                            .ok_or("plan carries no packet schedule")?;
                        let groups = fec
                            .groups_for(l, &sched.packet_sizes())
                            .ok_or("packets were recovered with FEC off")?;
                        let recovered = &outcome.fec_recovered;
                        rebuild(
                            tr,
                            &enc,
                            sched.entries(),
                            &groups,
                            recovered,
                            None,
                            &mut counts,
                        )?;
                    }
                    let map = arrival_map(&enc, &outcome.lost, &outcome.fec_recovered);
                    counts.chunks_decoded += (enc.num_chunks() - outcome.lost.len()) as u64;
                    tr.span("codec.decode_with_repairs", || {
                        engine.decode_with_repairs_at_level(
                            &enc,
                            l,
                            &map,
                            RepairPolicy::AnchorInterpolate,
                        )
                    })
                    .map_err(|e| e.to_string())?
                    .cache
                }
            }
            StreamConfig::Text => {
                counts.configs[5] += 1;
                tr.span("llm.slice_tokens", || {
                    reference.slice_tokens(start, start + tokens)
                })
            }
        };
        start += tokens;
        chunks.push(chunk);
    }
    let cache = tr.span("llm.concat_tokens", || KvCache::concat_tokens(&chunks));
    Ok(LoadOut {
        cache,
        stream,
        counts,
    })
}

/// What one ingest produced.
pub struct IngestOut {
    /// `encoded[chunk][level]`.
    pub encoded: Vec<Vec<EncodedKv>>,
    /// The offline plan.
    pub plan: ChunkPlan,
    /// Work counted.
    pub counts: Counts,
}

/// Write path: what `CacheGenEngine::store_kv` does after prefill —
/// chunk the cache, encode every chunk at every level, build the plan
/// (the steps of `encode_context`), serialise and store.
pub fn ingest(
    fx: &EngineFixture,
    ctx: usize,
    store_id: u64,
    tr: &mut Tracer,
) -> Result<IngestOut, String> {
    let engine = &fx.engine;
    let kv = &fx.kvs[ctx];
    let mut counts = Counts::default();
    let chunks = tr.span("core.chunk_caches", || engine.chunk_caches(kv));
    let mut encoded = Vec::with_capacity(chunks.len());
    let mut sizes = Vec::with_capacity(chunks.len());
    for chunk in &chunks {
        let versions: Vec<EncodedKv> = (0..engine.num_levels())
            .map(|l| tr.span("codec.encode", || engine.encode_at_level(chunk, l)))
            .collect();
        counts.elements_encoded += (versions.len() * chunk.num_elements()) as u64;
        let mut level_bytes: Vec<u64> = versions.iter().map(EncodedKv::total_bytes).collect();
        let mut schedules: Vec<ChunkSchedule> = versions
            .iter()
            .map(|e| {
                tr.span("core.packet_schedule", || {
                    CacheGenEngine::packet_schedule(e)
                })
            })
            .collect();
        // `encode_context`'s monotone-size clamp.
        for i in 1..level_bytes.len() {
            if level_bytes[i] > level_bytes[i - 1] {
                level_bytes[i] = level_bytes[i - 1];
                schedules[i].shrink_to(level_bytes[i]);
            }
        }
        let text_bytes = chunk.tokens() as u64 * engine.config().text_bytes_per_token;
        sizes.push(
            ChunkSizes::new(chunk.tokens(), level_bytes, text_bytes).with_schedules(schedules),
        );
        encoded.push(versions);
    }
    let plan = ChunkPlan::new(sizes);
    fixture::store_encoded(engine, store_id, &fx.contexts[ctx], &encoded, tr);
    Ok(IngestOut {
        encoded,
        plan,
        counts,
    })
}

/// What one transport run produced.
pub struct TransportOut {
    /// Virtual time the last chunk's data was in hand, seconds.
    pub finish: f64,
    /// Per stream chunk: packets still missing, packets parity rebuilt.
    pub holes: Vec<(Packets, Packets)>,
    /// Work counted.
    pub counts: Counts,
}

impl TransportOut {
    /// Bytes put on the link.
    pub fn wire_bytes(&self) -> u64 {
        self.counts.data_bytes + self.counts.parity_bytes
    }
}

/// The bursty channel of `transport_burst`: 8% i.i.d. loss plus 4-packet
/// drop bursts starting at 2% of packets.
pub fn burst_faults() -> PacketFaults {
    PacketFaults {
        loss: 0.08,
        burst_start: 0.02,
        burst_len: 4,
        ..PacketFaults::none()
    }
}

/// Transport only, no entropy decode: per stream chunk of the level-2
/// encoding, build the packet schedule, pick the parity shape from the
/// running loss estimate, encode parity over each group's real payloads
/// (sender), deliver over the bursty link, rebuild what parity recovered
/// (receiver).
pub fn transport(
    fx: &EngineFixture,
    ctx: usize,
    fault_seed: u64,
    tr: &mut Tracer,
) -> Result<TransportOut, String> {
    let policy = FecOverhead::adaptive_default();
    let mut link = fixture::link(Some((burst_faults(), fault_seed)));
    let mut loss = LossEstimator::new();
    let mut counts = Counts::default();
    let mut holes = Vec::with_capacity(fx.encoded[ctx].len());
    let mut t = 0.0f64;
    let mut finish = 0.0f64;
    for versions in &fx.encoded[ctx] {
        let enc = &versions[MID_LEVEL];
        let sched = tr.span("core.packet_schedule", || {
            CacheGenEngine::packet_schedule(enc)
        });
        let estimate = loss.loss_permille();
        let rung = match policy.params_for(MID_LEVEL, estimate) {
            Some((14, 1)) => 0,
            Some((10, 1)) => 1,
            Some((12, 2)) => 2,
            other => return Err(format!("unexpected FEC rung {other:?}")),
        };
        counts.rungs[rung] += 1;
        let groups = tr
            .span("streamer.fec_groups", || {
                policy.groups_for_with_loss(MID_LEVEL, &sched.packet_sizes(), estimate)
            })
            .ok_or("adaptive FEC produced no groups")?;
        let sender = (0..groups.num_groups())
            .map(|g| group_parity(tr, enc, sched.entries(), &groups, g))
            .collect::<Result<Vec<_>, _>>()?;
        let d = tr.span("streamer.deliver_schedule", || {
            deliver_schedule(&sched, &mut link, t, 1, 0, Some(&groups))
        });
        loss.observe(d.channel_data_losses, d.channel_data_packets);
        t = d.wire_free;
        finish = finish.max(d.finish);
        rebuild(
            tr,
            enc,
            sched.entries(),
            &groups,
            &d.fec_recovered,
            Some(&sender),
            &mut counts,
        )?;
        counts.configs[MID_LEVEL] += 1;
        counts.data_bytes += sched.total_bytes();
        counts.parity_bytes += d.parity_bytes;
        counts.lost_bytes += d.lost.iter().map(|&(_, b)| b).sum::<u64>();
        counts.fec_recovered += d.fec_recovered.len() as u64;
        counts.unrecovered += d.lost.len() as u64;
        counts.retransmits += u64::from(d.retransmits);
        holes.push((d.lost, d.fec_recovered));
    }
    counts.link(&link);
    Ok(TransportOut {
        finish,
        holes,
        counts,
    })
}
