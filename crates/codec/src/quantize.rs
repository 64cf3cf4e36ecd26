//! The quantise stage: one layer slab to alphabet indices, token group by
//! token group — and its inverse, one row of indices back to values.
//!
//! This is the one place values become symbols. [`crate::KvCodec::encode`]
//! entropy-codes each group's indices, [`crate::CodecProfile::build`]
//! counts them, and both go through [`quantize_layer`], so the order and
//! the rounding a profile was counted under are the ones the encoder
//! codes under. It is also the one place symbols become values again:
//! [`dequantize_row`] reconstructs the anchor row the encoder takes
//! deltas against and every row the decoder writes, so the two sides
//! agree on the anchor bit for bit by construction.

use crate::delta::GroupLayout;
use crate::{index_to_symbol, symbol_to_index};
use cachegen_quant::{round_half_away_i8, BinQuantizer};

/// The absolute quantisation step of every channel of one layer: `bin`
/// scale units of each channel's scale.
pub fn channel_steps(bin: f32, scales: &[f32]) -> Vec<f32> {
    let quantizer = BinQuantizer::new(bin);
    scales.iter().map(|&s| quantizer.step(s)).collect()
}

/// Quantises one token row against a base row: per channel, the alphabet
/// index of `(row − base) / step`, rounded half away from zero and clamped
/// to the alphabet. The division stays a division (a reciprocal multiply
/// rounds differently), and nothing in the loop body is a branch, a call
/// or an integer cast, so it runs four channels per instruction on the
/// baseline SSE2 target. Never inlined: [`quantize_layer`] is generic and
/// instantiated in its caller's crate, and this loop should be compiled
/// once, here, whoever calls (inlined into a bench it came out scalar).
#[inline(never)]
fn quantize_row(row: &[f32], base: &[f32], steps: &[f32], out: &mut [u8]) {
    for (((index, &value), &base), &step) in out.iter_mut().zip(row).zip(base).zip(steps) {
        let symbol = round_half_away_i8((value - base) / step);
        *index = symbol_to_index(i32::from(symbol)) as u8;
    }
}

/// Reconstructs one token row from its alphabet indices: per channel,
/// `symbol as f32 × step`, and for a delta row `anchor[c] +` that, in
/// that order — the order every stored container's values are defined
/// by, so it must not change (no fused multiply-add, no reassociation).
/// The decoder's second stage (the first writes the row's indices out of
/// the rANS stream), and how [`quantize_layer`] reconstructs an anchor.
/// The loop has no branch and no call, so it runs four channels per
/// instruction on the baseline SSE2 target; never inlined for the reason
/// `quantize_row` is not.
///
/// # Panics
///
/// If `indices`, `steps` or `anchor` differ in length from `out`.
#[inline(never)]
pub fn dequantize_row(indices: &[u8], steps: &[f32], anchor: Option<&[f32]>, out: &mut [f32]) {
    let n = out.len();
    assert!(
        indices.len() == n && steps.len() == n && anchor.is_none_or(|a| a.len() == n),
        "row lengths differ"
    );
    let values = out.iter_mut().zip(indices).zip(steps);
    match anchor {
        None => {
            for ((value, &index), &step) in values {
                *value = index_to_symbol(index) as f32 * step;
            }
        }
        Some(anchor) => {
            for (((value, &index), &step), &base) in values.zip(anchor) {
                *value = base + index_to_symbol(index) as f32 * step;
            }
        }
    }
}

/// Quantises one layer slab (`layout.tokens × channels`, row-major) group
/// by group, handing each group's alphabet indices — row-major, one per
/// channel per token, at most `group_size × channels` — to `sink` in group
/// order.
///
/// With `delta_encoding`, a group's first row is its anchor, quantised
/// with `anchor_steps`; every later row is quantised with `delta_steps`
/// as a delta against the **reconstructed** anchor, so anchor quantisation
/// error does not leak into member tokens. Without it (the "Quant + AC"
/// ablation arm) every row is a delta against zero.
pub fn quantize_layer(
    slab: &[f32],
    channels: usize,
    layout: GroupLayout,
    delta_encoding: bool,
    anchor_steps: &[f32],
    delta_steps: &[f32],
    mut sink: impl FnMut(&[u8]),
) {
    assert_eq!(slab.len(), layout.tokens * channels, "slab shape");
    assert_eq!(anchor_steps.len(), channels, "anchor steps per channel");
    assert_eq!(delta_steps.len(), channels, "delta steps per channel");
    let zero = vec![0.0f32; channels];
    let mut anchor = vec![0.0f32; channels];
    let mut indices = vec![0u8; layout.group_size.min(layout.tokens) * channels];
    for g in 0..layout.num_groups() {
        let (start, end) = layout.group_range(g);
        let values = &slab[start * channels..end * channels];
        let indices = &mut indices[..values.len()];
        // A group is never empty, so with delta encoding it has an anchor.
        let anchor_len = if delta_encoding { channels } else { 0 };
        let (anchor_values, member_values) = values.split_at(anchor_len);
        let (anchor_out, member_out) = indices.split_at_mut(anchor_len);
        let base = if delta_encoding {
            quantize_row(anchor_values, &zero, anchor_steps, anchor_out);
            dequantize_row(anchor_out, anchor_steps, None, &mut anchor);
            &anchor
        } else {
            &zero
        };
        let rows = member_values.chunks_exact(channels);
        for (row, out) in rows.zip(member_out.chunks_exact_mut(channels)) {
            quantize_row(row, base, delta_steps, out);
        }
        sink(indices);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the quantise walk computed before it was vectorised: libm
    /// rounding, a saturating cast, the alphabet clamp.
    fn reference_index(v: f32) -> u8 {
        symbol_to_index((v.round() as i64).clamp(i32::MIN as i64, i32::MAX as i64) as i32) as u8
    }

    #[test]
    fn row_indices_match_the_scalar_reference_at_the_boundaries() {
        // Every tie n + 0.5 up to 300 with its neighbours on both sides
        // (past the alphabet clamp at −128 / +127), zero, the subnormals,
        // the ulp changes where the rounding trick's addend vanishes,
        // ±∞ and NaN — as one row, so both the vector body and the scalar
        // tail of the loop see them, at steps that divide exactly.
        let mut values = vec![
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            4_194_304.5,
            8_388_607.5,
            8_388_608.0,
            16_777_216.0,
            -16_777_216.0,
            3.0e9,
            -3.0e9,
            1.0e19,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        for n in 0..300 {
            let tie = n as f32 + 0.5;
            for v in [
                tie,
                f32::from_bits(tie.to_bits() - 1),
                f32::from_bits(tie.to_bits() + 1),
            ] {
                values.extend([v, -v]);
            }
        }
        for step in [1.0f32, 0.25, 4.0] {
            for len in [values.len(), values.len() - 1, 3, 1] {
                let row: Vec<f32> = values[..len].iter().map(|v| v * step).collect();
                let mut out = vec![0u8; len];
                quantize_row(&row, &vec![0.0; len], &vec![step; len], &mut out);
                for (i, (&v, &got)) in row.iter().zip(&out).enumerate() {
                    assert_eq!(
                        got,
                        reference_index(v / step),
                        "{v:e} / {step} (element {i})"
                    );
                }
            }
        }
        let at = |v: f32| reference_index(v);
        assert_eq!(
            (at(f32::NAN), at(f32::INFINITY), at(f32::NEG_INFINITY)),
            (128, 255, 0)
        );
    }

    #[test]
    fn deltas_code_against_the_reconstructed_anchor_and_the_ablation_arm_against_zero() {
        // Two groups of three channels, the second one short, every step
        // 1. The anchor row 10.4, −3.6, 0 reconstructs to 10, −4, 0, and
        // the members show which of the two they were coded against:
        // 9.6 is −0.4 → 0 from the reconstruction (−0.8 → −1 from the raw
        // anchor), −3.0 is +1 from −4 (+0.6 → +1 either way), −0.6 is −1.
        let slab = [
            10.4f32, -3.6, 0.0, // anchor of group 0
            11.0, -3.0, 0.4, //
            9.6, -4.4, -0.6, //
            10.4, -3.6, 0.0, // anchor of group 1 (short group)
            12.4, -5.6, 2.0,
        ];
        let layout = GroupLayout::new(3, 5);
        let steps = [1.0f32; 3];
        let symbols = |delta_encoding: bool| -> Vec<Vec<i32>> {
            let mut groups = Vec::new();
            quantize_layer(
                &slab,
                3,
                layout,
                delta_encoding,
                &steps,
                &steps,
                |indices| {
                    groups.push(indices.iter().map(|&i| index_to_symbol(i)).collect());
                },
            );
            groups
        };
        assert_eq!(
            symbols(true),
            vec![
                vec![10, -4, 0, 1, 1, 0, 0, 0, -1],
                vec![10, -4, 0, 2, -2, 2]
            ]
        );
        assert_eq!(
            symbols(false),
            vec![
                vec![10, -4, 0, 11, -3, 0, 10, -4, -1],
                vec![10, -4, 0, 12, -6, 2]
            ]
        );
    }
}
