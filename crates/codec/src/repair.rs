//! Hole-aware decoding: repair policies over a chunk arrival map.
//!
//! A lossy transport delivers a *subset* of a stream's per-(layer,
//! token-group) entropy chunks. Because every chunk is independently
//! decodable, the decoder does not have to stall on the holes:
//! [`KvCodec::decode_with_repairs`] decodes what arrived, fills what did
//! not according to a [`RepairPolicy`], and reports exactly what it did
//! per chunk ([`ChunkRepair`]) — a damaged stream degrades output quality
//! instead of stalling TTFT, and never silently decodes noise
//! (multiple-description fronthaul coding, PAPERS.md).
//!
//! Policies:
//!
//! * [`RepairPolicy::ZeroFill`] — a missing group's rows stay zero (the
//!   attention contribution of those tokens is muted, not garbage).
//! * [`RepairPolicy::AnchorInterpolate`] — a missing group's rows are
//!   linearly interpolated, per channel, between the *dequantized anchor
//!   rows* of its nearest decoded neighbor groups in the same (side,
//!   layer). The reconstruction is a convex combination, so its error at
//!   any element is bounded by the worse of the two neighbor anchors'
//!   distances to the true value — the bound the property tests assert.
//! * [`RepairPolicy::Refetch`] — the group is zero-filled *for now* and
//!   flagged [`RepairKind::PendingRefetch`]; the caller re-requests those
//!   chunks (the serving layer queues the re-fetch under the same
//!   backpressure watermarks as first fetches) and patches the cache when
//!   they land.
//!
//! An *arrived* chunk that fails to decode (truncated mid-packet,
//! corrupted payload) is demoted to a hole with [`RepairCause::Corrupt`]
//! and repaired like a loss — exact per-chunk byte accounting is what
//! makes that detection reliable.

use crate::container::{CodecError, EncodedKv};
use crate::decode::decode_jobs;
use crate::delta::GroupLayout;
use crate::encoder::KvCodec;
use cachegen_llm::KvCache;

/// How the decoder fills entropy chunks that did not arrive intact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RepairPolicy {
    /// Leave the missing token rows at zero.
    ZeroFill,
    /// Interpolate between the nearest decoded neighbor groups' anchor
    /// rows (falls back to one-sided copy at the stream edges, and to
    /// zero when a layer lost every group).
    AnchorInterpolate,
    /// Zero-fill now and flag the chunk for re-fetch.
    Refetch,
}

/// Which per-(side, layer, group) entropy chunks of one [`EncodedKv`]
/// arrived intact. Built by the transport (lost, late, or truncated
/// packets are marked lost; packets reconstructed by erasure parity, any
/// `r` losses per group, are marked recovered), consumed by
/// [`KvCodec::decode_with_repairs`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkArrivalMap {
    layers: usize,
    groups: usize,
    /// `lost[side][layer * groups + group]`, side 0 = K, 1 = V.
    lost: [Vec<bool>; 2],
    /// Chunks whose packet was dropped but whose bytes FEC reconstructed
    /// byte-identically — they decode like arrivals and are reported with
    /// [`RepairCause::RecoveredByFec`] provenance, not repaired.
    recovered: [Vec<bool>; 2],
}

impl ChunkArrivalMap {
    /// Every chunk arrived.
    pub fn full(layers: usize, groups: usize) -> Self {
        assert!(layers >= 1 && groups >= 1, "need at least one chunk");
        ChunkArrivalMap {
            layers,
            groups,
            lost: [vec![false; layers * groups], vec![false; layers * groups]],
            recovered: [vec![false; layers * groups], vec![false; layers * groups]],
        }
    }

    fn idx(&self, layer: usize, group: usize) -> usize {
        assert!(
            layer < self.layers && group < self.groups,
            "chunk ({layer}, {group}) out of {}×{}",
            self.layers,
            self.groups
        );
        layer * self.groups + group
    }

    /// Marks one chunk as not delivered (dropped, truncated, or late).
    /// Clears any recovered mark: lost wins (the caller decided FEC could
    /// not reconstruct it after all).
    pub fn mark_lost(&mut self, is_k: bool, layer: usize, group: usize) {
        let i = self.idx(layer, group);
        self.lost[usize::from(!is_k)][i] = true;
        self.recovered[usize::from(!is_k)][i] = false;
    }

    /// Marks one chunk as FEC-recovered: its packet was dropped but
    /// erasure parity reconstructed the bytes exactly, so
    /// it decodes like an arrival and only provenance is recorded. A
    /// chunk already marked lost stays lost.
    pub fn mark_recovered(&mut self, is_k: bool, layer: usize, group: usize) {
        let i = self.idx(layer, group);
        if !self.lost[usize::from(!is_k)][i] {
            self.recovered[usize::from(!is_k)][i] = true;
        }
    }

    /// Whether a chunk is marked lost.
    pub fn is_lost(&self, is_k: bool, layer: usize, group: usize) -> bool {
        self.lost[usize::from(!is_k)][self.idx(layer, group)]
    }

    /// Whether a chunk is marked FEC-recovered.
    fn is_recovered(&self, is_k: bool, layer: usize, group: usize) -> bool {
        self.recovered[usize::from(!is_k)][self.idx(layer, group)]
    }

    /// Layer count of the map.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Group count of the map.
    pub fn groups(&self) -> usize {
        self.groups
    }
}

/// Why a chunk needed repair — or, for [`RepairCause::RecoveredByFec`],
/// why it carries provenance despite decoding byte-identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairCause {
    /// The transport never delivered it (marked lost in the arrival map).
    Lost,
    /// It arrived but failed to decode; the defect is attached.
    Corrupt(CodecError),
    /// Its packet was dropped but erasure parity (any `r` losses per
    /// group) reconstructed the bytes exactly before decoding — no repair
    /// happened, no quality penalty applies; the record exists so the
    /// recovery is auditable.
    RecoveredByFec,
}

/// What the decoder put in a repaired chunk's place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairKind {
    /// Rows left at zero.
    ZeroFilled,
    /// Rows interpolated between the anchor rows of the named neighbor
    /// groups (one-sided copy when only one neighbor decoded).
    Interpolated {
        /// Nearest decoded group to the left, if any.
        left: Option<usize>,
        /// Nearest decoded group to the right, if any.
        right: Option<usize>,
    },
    /// Rows zero-filled and the chunk flagged for re-fetch.
    PendingRefetch,
    /// Rows decoded byte-identically from FEC-reconstructed bytes — the
    /// kind paired with [`RepairCause::RecoveredByFec`].
    Intact,
}

/// Per-chunk repair provenance: one record per entropy chunk that did
/// *not* decode from delivered bytes. Chunks absent from the report
/// decoded intact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkRepair {
    /// K-side (true) or V-side chunk.
    pub is_k: bool,
    /// Transformer layer.
    pub layer: usize,
    /// Token-group index.
    pub group: usize,
    /// Why it needed repair.
    pub cause: RepairCause,
    /// What the decoder did about it.
    pub kind: RepairKind,
}

/// A hole-aware decode result: the (partially reconstructed) cache plus
/// full repair provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct RepairedKv {
    /// The reassembled cache; repaired regions hold policy-reconstructed
    /// values, never undecoded noise.
    pub cache: KvCache,
    /// One record per repaired chunk (empty = clean decode).
    pub repairs: Vec<ChunkRepair>,
    /// One record per chunk decoded from FEC-reconstructed bytes
    /// ([`RepairCause::RecoveredByFec`] / [`RepairKind::Intact`]): these
    /// decoded byte-identically and carry no quality penalty — they are
    /// provenance, not repairs.
    pub fec_recovered: Vec<ChunkRepair>,
    /// Total entropy chunks in the stream (`2 × layers × groups`).
    pub total_chunks: usize,
}

impl RepairedKv {
    /// Fraction of entropy chunks that needed repair, in `[0, 1]` — the
    /// quantity the QoE model charges as a quality penalty.
    pub fn repaired_fraction(&self) -> f64 {
        self.repairs.len() as f64 / self.total_chunks.max(1) as f64
    }

    /// Chunks flagged for re-fetch, as `(is_k, layer, group)`.
    pub fn pending_refetch(&self) -> Vec<(bool, usize, usize)> {
        self.repairs
            .iter()
            .filter(|r| r.kind == RepairKind::PendingRefetch)
            .map(|r| (r.is_k, r.layer, r.group))
            .collect()
    }
}

impl KvCodec {
    /// Decodes a stream of which only the chunks marked arrived in
    /// `arrivals` are trusted, applying `policy` to the rest. Chunks
    /// marked FEC-recovered decode like arrivals (erasure parity
    /// reconstructed their bytes exactly) and are reported as
    /// [`RepairCause::RecoveredByFec`] provenance. See the module docs
    /// for the per-policy semantics. Errors only on container geometry
    /// defects (a malformed *map or container*, not a damaged chunk —
    /// damage is repaired and reported, never fatal).
    pub fn decode_with_repairs(
        &self,
        enc: &EncodedKv,
        arrivals: &ChunkArrivalMap,
        policy: RepairPolicy,
    ) -> Result<RepairedKv, CodecError> {
        let (layers, tokens, channels) = (enc.layers, enc.tokens, enc.channels);
        let layout = enc.layout();
        self.check_geometry(enc)?;
        let groups = layout.num_groups();
        if arrivals.layers() != layers || arrivals.groups() != groups {
            return Err(CodecError::Geometry(format!(
                "arrival map is {}×{} (layers×groups) but the stream is {layers}×{groups}",
                arrivals.layers(),
                arrivals.groups()
            )));
        }
        let codings = self.layer_codings(enc);
        let mut cache = KvCache::zeros(layers, tokens, channels);
        let mut repairs: Vec<ChunkRepair> = Vec::new();
        let mut fec_recovered: Vec<ChunkRepair> = Vec::new();
        // `damaged[side][layer][group]`: lost chunks plus arrived-but-
        // corrupt ones — the set the repair pass fills and the neighbor
        // search must avoid.
        let mut damaged = [
            vec![vec![false; groups]; layers],
            vec![vec![false; groups]; layers],
        ];

        // Walk the plain decoder's work list: one job per chunk, holding
        // its slice of the output.
        for mut job in decode_jobs(enc, &codings, &mut cache, 0) {
            let (is_k, layer, group) = (job.coding.is_k, job.coding.layer, job.group);
            let record = |cause, kind| ChunkRepair {
                is_k,
                layer,
                group,
                cause,
                kind,
            };
            let cause = if arrivals.is_lost(is_k, layer, group) {
                RepairCause::Lost
            } else {
                match self.decode_chunk(&mut job, enc.delta_encoding) {
                    Ok(()) => {
                        // An FEC-recovered chunk decoded byte-identically:
                        // record the recovery, charge no repair.
                        if arrivals.is_recovered(is_k, layer, group) {
                            fec_recovered
                                .push(record(RepairCause::RecoveredByFec, RepairKind::Intact));
                        }
                        continue;
                    }
                    Err(e) => {
                        // The failed decode may have partially written
                        // the slice; scrub it so corruption never leaks.
                        job.out.fill(0.0);
                        RepairCause::Corrupt(e)
                    }
                }
            };
            damaged[usize::from(!is_k)][layer][group] = true;
            repairs.push(record(cause, RepairKind::ZeroFilled)); // refined below
        }

        // Repair pass: refine the provisional ZeroFilled records.
        for r in &mut repairs {
            match policy {
                RepairPolicy::ZeroFill => {}
                RepairPolicy::Refetch => r.kind = RepairKind::PendingRefetch,
                RepairPolicy::AnchorInterpolate => {
                    let side = usize::from(!r.is_k);
                    let row = &damaged[side][r.layer];
                    let left = (0..r.group).rev().find(|&g| !row[g]);
                    let right = (r.group + 1..groups).find(|&g| !row[g]);
                    let (k, v) = cache.data_mut();
                    let side = if r.is_k { k } else { v };
                    let slab = &mut side[r.layer * tokens * channels..][..tokens * channels];
                    interpolate_group(slab, layout, channels, r.group, left, right);
                    r.kind = if left.is_some() || right.is_some() {
                        RepairKind::Interpolated { left, right }
                    } else {
                        RepairKind::ZeroFilled
                    };
                }
            }
        }

        Ok(RepairedKv {
            cache,
            repairs,
            fec_recovered,
            total_chunks: 2 * layers * groups,
        })
    }
}

/// Fills the token rows of one damaged group by interpolating, per
/// channel, between the dequantized rows of the named neighbor groups
/// (already decoded into `out`) — the left neighbor contributes its
/// *last* token row and the right neighbor its *anchor* (first) row,
/// i.e. the nearest decoded rows on each side, which token-wise locality
/// (Insight 1) makes the most informative. With one neighbor that row is
/// held flat; with none the rows stay zero. Every produced value is a
/// convex combination of the two boundary rows, which is what bounds the
/// reconstruction error by the neighbor-row distance.
fn interpolate_group(
    slab: &mut [f32],
    layout: GroupLayout,
    channels: usize,
    group: usize,
    left: Option<usize>,
    right: Option<usize>,
) {
    let row = |t: usize| t * channels..(t + 1) * channels;
    let last = |g: usize| layout.group_range(g).1 - 1;
    let anchor = |g: usize| layout.group_range(g).0;
    let (l_pos, r_pos) = match (left, right) {
        (Some(l), Some(r)) => (last(l), anchor(r)),
        (Some(l), None) => (last(l), last(l)),
        (None, Some(r)) => (anchor(r), anchor(r)),
        (None, None) => return,
    };
    let (l_row, r_row) = (slab[row(l_pos)].to_vec(), slab[row(r_pos)].to_vec());
    let span = (r_pos as f32 - l_pos as f32).max(1.0);
    let (start, end) = layout.group_range(group);
    for t in start..end {
        let alpha = if r_pos == l_pos {
            0.0
        } else {
            ((t as f32 - l_pos as f32) / span).clamp(0.0, 1.0)
        };
        for (c, slot) in slab[row(t)].iter_mut().enumerate() {
            *slot = (1.0 - alpha) * l_row[c] + alpha * r_row[c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::CodecConfig;
    use crate::profile::CodecProfile;
    use cachegen_llm::{SimModelConfig, SimTransformer};

    fn setup() -> (KvCache, KvCodec) {
        let m = SimTransformer::new(SimModelConfig::tiny(21));
        let ctx: Vec<usize> = (0..50).map(|i| (i * 17) % 64).collect();
        let cache = m.prefill(&ctx);
        let cfg = CodecConfig::default();
        let profile = CodecProfile::build(&cfg, &[&cache]);
        (cache, KvCodec::new(cfg, profile))
    }

    #[test]
    fn full_arrival_matches_plain_decode() {
        let (cache, codec) = setup();
        let enc = codec.encode(&cache);
        let arrivals = ChunkArrivalMap::full(enc.layers, enc.num_groups());
        for policy in [
            RepairPolicy::ZeroFill,
            RepairPolicy::AnchorInterpolate,
            RepairPolicy::Refetch,
        ] {
            let out = codec.decode_with_repairs(&enc, &arrivals, policy).unwrap();
            assert!(out.repairs.is_empty());
            assert_eq!(out.repaired_fraction(), 0.0);
            assert_eq!(
                out.cache,
                codec.try_decode(&enc).unwrap(),
                "policy {policy:?}"
            );
        }
    }

    #[test]
    fn zero_fill_blanks_only_the_lost_region() {
        let (cache, codec) = setup();
        let enc = codec.encode(&cache);
        let clean = codec.try_decode(&enc).unwrap();
        let mut arrivals = ChunkArrivalMap::full(enc.layers, enc.num_groups());
        arrivals.mark_lost(true, 0, 1);
        let out = codec
            .decode_with_repairs(&enc, &arrivals, RepairPolicy::ZeroFill)
            .unwrap();
        assert_eq!(out.repairs.len(), 1);
        assert_eq!(out.repairs[0].kind, RepairKind::ZeroFilled);
        assert_eq!(out.repairs[0].cause, RepairCause::Lost);
        let (start, end) = enc.layout().group_range(1);
        for t in 0..cache.tokens() {
            for c in 0..cache.channels() {
                let got = out.cache.k().get(&[0, t, c]);
                if (start..end).contains(&t) {
                    assert_eq!(got, 0.0, "lost region must be zero");
                } else {
                    assert_eq!(got.to_bits(), clean.k().get(&[0, t, c]).to_bits());
                }
            }
        }
        assert_eq!(out.cache.v(), clean.v(), "V side untouched");
    }

    #[test]
    fn interpolation_is_convex_between_neighbor_anchors() {
        let (cache, codec) = setup();
        let enc = codec.encode(&cache);
        let clean = codec.try_decode(&enc).unwrap();
        let mut arrivals = ChunkArrivalMap::full(enc.layers, enc.num_groups());
        arrivals.mark_lost(true, 1, 2);
        let out = codec
            .decode_with_repairs(&enc, &arrivals, RepairPolicy::AnchorInterpolate)
            .unwrap();
        assert_eq!(
            out.repairs[0].kind,
            RepairKind::Interpolated {
                left: Some(1),
                right: Some(3)
            }
        );
        let layout = enc.layout();
        let (start, end) = layout.group_range(2);
        let al = layout.group_range(1).1 - 1; // left neighbor's last row
        let ar = layout.group_range(3).0; // right neighbor's anchor row
        for t in start..end {
            for c in 0..cache.channels() {
                let got = out.cache.k().get(&[1, t, c]);
                let l = clean.k().get(&[1, al, c]);
                let r = clean.k().get(&[1, ar, c]);
                let (lo, hi) = (l.min(r), l.max(r));
                assert!(
                    (lo - 1e-5..=hi + 1e-5).contains(&got),
                    "tok {t} ch {c}: {got} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn edge_group_interpolates_one_sided() {
        let (_, codec) = setup();
        let cache = {
            let m = SimTransformer::new(SimModelConfig::tiny(21));
            m.prefill(&(0..50).map(|i| (i * 17) % 64).collect::<Vec<_>>())
        };
        let enc = codec.encode(&cache);
        let clean = codec.try_decode(&enc).unwrap();
        let mut arrivals = ChunkArrivalMap::full(enc.layers, enc.num_groups());
        arrivals.mark_lost(false, 0, 0);
        let out = codec
            .decode_with_repairs(&enc, &arrivals, RepairPolicy::AnchorInterpolate)
            .unwrap();
        assert_eq!(
            out.repairs[0].kind,
            RepairKind::Interpolated {
                left: None,
                right: Some(1)
            }
        );
        // One-sided repair holds the right neighbor's anchor row flat.
        let ar = enc.layout().group_range(1).0;
        let (start, end) = enc.layout().group_range(0);
        for t in start..end {
            for c in 0..cache.channels() {
                assert_eq!(
                    out.cache.v().get(&[0, t, c]).to_bits(),
                    clean.v().get(&[0, ar, c]).to_bits()
                );
            }
        }
    }

    #[test]
    fn layer_losing_every_group_zero_fills() {
        let (cache, codec) = setup();
        let enc = codec.encode(&cache);
        let mut arrivals = ChunkArrivalMap::full(enc.layers, enc.num_groups());
        for g in 0..enc.num_groups() {
            arrivals.mark_lost(true, 0, g);
        }
        let out = codec
            .decode_with_repairs(&enc, &arrivals, RepairPolicy::AnchorInterpolate)
            .unwrap();
        assert!(out.repairs.iter().all(|r| r.kind == RepairKind::ZeroFilled));
        assert!(out.cache.k().slab(0).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn refetch_flags_and_zero_fills() {
        let (cache, codec) = setup();
        let enc = codec.encode(&cache);
        let mut arrivals = ChunkArrivalMap::full(enc.layers, enc.num_groups());
        arrivals.mark_lost(true, 1, 0);
        arrivals.mark_lost(false, 0, 3);
        let out = codec
            .decode_with_repairs(&enc, &arrivals, RepairPolicy::Refetch)
            .unwrap();
        assert_eq!(out.pending_refetch(), vec![(true, 1, 0), (false, 0, 3)]);
        let (start, end) = enc.layout().group_range(0);
        for t in start..end {
            for c in 0..cache.channels() {
                assert_eq!(out.cache.k().get(&[1, t, c]), 0.0);
            }
        }
    }

    #[test]
    fn corrupt_arrived_chunk_is_demoted_to_repair() {
        let (cache, codec) = setup();
        let mut enc = codec.encode(&cache);
        let chunk = &mut enc.k_chunks[1][2];
        chunk.truncate(chunk.len() / 2);
        let arrivals = ChunkArrivalMap::full(enc.layers, enc.num_groups());
        let out = codec
            .decode_with_repairs(&enc, &arrivals, RepairPolicy::AnchorInterpolate)
            .unwrap();
        assert_eq!(out.repairs.len(), 1);
        let r = &out.repairs[0];
        assert!((r.is_k, r.layer, r.group) == (true, 1, 2));
        assert!(matches!(r.cause, RepairCause::Corrupt(_)));
        assert!(matches!(r.kind, RepairKind::Interpolated { .. }));
        // No undecoded noise: values in the repaired region are finite and
        // bounded by the neighbors, not range-coder garbage.
        assert!(out.cache.k().data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn mismatched_arrival_map_is_a_geometry_error() {
        let (cache, codec) = setup();
        let enc = codec.encode(&cache);
        let arrivals = ChunkArrivalMap::full(enc.layers + 1, enc.num_groups());
        assert!(matches!(
            codec.decode_with_repairs(&enc, &arrivals, RepairPolicy::ZeroFill),
            Err(CodecError::Geometry(_))
        ));
    }

    #[test]
    fn fec_recovered_chunks_decode_intact_with_provenance() {
        let (cache, codec) = setup();
        let enc = codec.encode(&cache);
        let clean = codec.try_decode(&enc).unwrap();
        let mut arrivals = ChunkArrivalMap::full(enc.layers, enc.num_groups());
        arrivals.mark_recovered(true, 0, 1);
        arrivals.mark_recovered(false, 1, 2);
        for policy in [
            RepairPolicy::ZeroFill,
            RepairPolicy::AnchorInterpolate,
            RepairPolicy::Refetch,
        ] {
            let out = codec.decode_with_repairs(&enc, &arrivals, policy).unwrap();
            assert!(
                out.repairs.is_empty(),
                "recovery is not a repair ({policy:?})"
            );
            assert_eq!(out.repaired_fraction(), 0.0);
            assert_eq!(out.cache, clean, "recovered bytes decode identically");
            assert_eq!(out.fec_recovered.len(), 2);
            assert!(out
                .fec_recovered
                .iter()
                .all(|r| r.cause == RepairCause::RecoveredByFec && r.kind == RepairKind::Intact));
        }
    }

    #[test]
    fn lost_mark_wins_over_recovered() {
        let (cache, codec) = setup();
        let enc = codec.encode(&cache);
        let mut arrivals = ChunkArrivalMap::full(enc.layers, enc.num_groups());
        arrivals.mark_recovered(true, 0, 1);
        arrivals.mark_lost(true, 0, 1);
        assert!(arrivals.is_lost(true, 0, 1));
        assert!(!arrivals.is_recovered(true, 0, 1));
        // And marking recovered after lost does not resurrect the chunk.
        arrivals.mark_recovered(true, 0, 1);
        assert!(arrivals.is_lost(true, 0, 1));
        let out = codec
            .decode_with_repairs(&enc, &arrivals, RepairPolicy::ZeroFill)
            .unwrap();
        assert_eq!(out.repairs.len(), 1);
        assert!(out.fec_recovered.is_empty());
    }

    #[test]
    fn repaired_fraction_counts_chunks() {
        let (cache, codec) = setup();
        let enc = codec.encode(&cache);
        let mut arrivals = ChunkArrivalMap::full(enc.layers, enc.num_groups());
        arrivals.mark_lost(true, 0, 0);
        arrivals.mark_lost(false, 1, 1);
        let out = codec
            .decode_with_repairs(&enc, &arrivals, RepairPolicy::ZeroFill)
            .unwrap();
        let expect = 2.0 / (2 * enc.layers * enc.num_groups()) as f64;
        assert!((out.repaired_fraction() - expect).abs() < 1e-12);
    }
}
