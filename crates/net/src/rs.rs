//! Systematic Cauchy Reed–Solomon erasure coding over GF(2⁸).
//!
//! One [`RsCode`] instance describes the parity equations of a single FEC
//! group: `m` data packets protected by `r` parity packets, `m + r ≤ 256`.
//! Parity symbol `j` is the GF(256) linear combination
//! `p_j[b] = Σ_i c[j][i] · d_i[b]` applied independently to every byte
//! position `b` (shorter members are implicitly zero-padded to the
//! longest). Because the code is *systematic*,
//! data packets travel unmodified and `r = 0..` parity is pure overhead —
//! losing no packet costs zero decode work.
//!
//! # Why Cauchy, and why the normalization
//!
//! The coefficient matrix is a **column-normalized Cauchy matrix**:
//! evaluation points `y_i = i` for data and `x_j = m + j` for parity (all
//! distinct in GF(256)), raw entry `1 / (x_j ⊕ y_i)`, and every column
//! scaled so that row 0 becomes all-ones:
//!
//! ```text
//! c[j][i] = (x_0 ⊕ y_i) / (x_j ⊕ y_i)
//! ```
//!
//! Two properties follow:
//!
//! * **MDS** — every square submatrix of a Cauchy matrix is invertible,
//!   and mixing in identity rows (surviving data) reduces any `m × m`
//!   minor of the systematic generator `[I; C]` to a smaller Cauchy
//!   minor. Column scaling by non-zero constants multiplies determinants
//!   by non-zero constants, so normalization preserves this. Hence *any*
//!   `m` surviving symbols out of `m + r` reconstruct the group: `r`
//!   parity packets tolerate any `r` losses, data or parity alike.
//! * **`r = 1` ≡ XOR** — row 0 being all-ones makes the first parity
//!   packet the byte-wise XOR of the members, so single parity needs no
//!   code of its own. Neither [`RsCode::parity`] nor [`RsCode::recover`]
//!   branches on it: every payload byte goes through
//!   [`gf256::mul_acc`], whose coefficient-1 case *is* the XOR loop, so
//!   encoding row 0 and recovering from it are both multiply-free.
//!   `tests/fec_properties.rs` pins row 0 and single-loss recovery
//!   byte-for-byte against an independent XOR reference.
//!
//! Recovery solves the `s × s` system (`s` = lost data packets) given by
//! any `s` surviving parity rows via Gauss–Jordan elimination — order-free
//! and byte-identical. The system is tiny (`s ≤ r`); the cost of both
//! directions is the `O(m · r)` passes over payload bytes, all of which
//! are [`gf256::mul_acc`] calls. All arithmetic is table-driven
//! [`crate::gf256`]; there is no floating point, no randomness, and no
//! iteration-order dependence anywhere in the path.

use crate::gf256;

/// Typed failure modes of the erasure layer: shape violations a caller
/// can hit at runtime (loss patterns, truncated payloads) are reported,
/// not panicked or silently zero-padded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FecError {
    /// Group shape outside GF(256) limits: `m = 0`, `r = 0`, or
    /// `m + r > 256` (the field has only 256 evaluation points).
    InvalidShape {
        /// Requested data symbol count `m`.
        data: usize,
        /// Requested parity symbol count `r`.
        parity: usize,
    },
    /// More data packets lost than surviving parity packets — the group
    /// is not recoverable here and must fall to repair/refetch.
    NotEnoughParity {
        /// Lost data packets in the group.
        lost: usize,
        /// Surviving parity packets available to solve with.
        parity: usize,
    },
    /// A surviving payload is longer than the parity payload, which is
    /// impossible for payloads that actually went through [`RsCode::parity`]
    /// (parity covers the longest member) — indicates corrupt accounting.
    SurvivorExceedsParity {
        /// Length of the offending survivor payload.
        len: usize,
        /// Parity payload width it exceeds.
        parity_len: usize,
    },
    /// Surviving parity payloads disagree on width (all parity packets of
    /// one group are emitted at the same width).
    ParityWidthMismatch {
        /// Width of the first surviving parity payload.
        expected: usize,
        /// Conflicting width encountered.
        got: usize,
    },
    /// The recovery system was singular. Unreachable for a Cauchy code
    /// (MDS); kept as a typed error so the solver carries no `unwrap`.
    SingularMatrix,
}

impl std::fmt::Display for FecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FecError::InvalidShape { data, parity } => write!(
                f,
                "invalid RS group shape: {data} data + {parity} parity \
                 (need >= 1 each, sum <= 256)"
            ),
            FecError::NotEnoughParity { lost, parity } => write!(
                f,
                "{lost} data packets lost but only {parity} parity packets \
                 survive"
            ),
            FecError::SurvivorExceedsParity { len, parity_len } => write!(
                f,
                "survivor payload ({len} B) exceeds parity payload \
                 ({parity_len} B)"
            ),
            FecError::ParityWidthMismatch { expected, got } => write!(
                f,
                "parity payloads disagree on width: expected {expected} B, \
                 got {got} B"
            ),
            FecError::SingularMatrix => {
                write!(f, "singular recovery matrix (MDS violation)")
            }
        }
    }
}

impl std::error::Error for FecError {}

/// The parity equations of one FEC group: `m` data symbols, `r` parity
/// symbols, column-normalized Cauchy coefficients (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsCode {
    m: usize,
    r: usize,
    /// `rows[j * m + i]` = coefficient of data symbol `i` in parity
    /// symbol `j`. Row 0 is all-ones (the XOR row).
    rows: Vec<u8>,
}

impl RsCode {
    /// Builds the code for `m` data packets and `r` parity packets.
    pub fn new(m: usize, r: usize) -> Result<Self, FecError> {
        if m == 0 || r == 0 || m + r > 256 {
            return Err(FecError::InvalidShape { data: m, parity: r });
        }
        let x0 = m as u8;
        let rows = (0..r)
            .flat_map(|j| {
                let xj = (m + j) as u8;
                (0..m).map(move |i| {
                    let yi = i as u8;
                    gf256::div(x0 ^ yi, xj ^ yi)
                })
            })
            .collect();
        Ok(RsCode { m, r, rows })
    }

    /// Coefficients of parity symbol `j`, one per data symbol.
    fn row(&self, j: usize) -> &[u8] {
        &self.rows[j * self.m..][..self.m]
    }

    /// Encodes the `r` parity payloads for one group. Each parity payload
    /// is as long as the *longest* member (shorter members count as
    /// zero-padded). Parity row 0 is the byte-wise XOR of the members.
    ///
    /// # Panics
    /// If `payloads.len() != m` — group membership is sender-side static,
    /// so a mismatch is a programming error, not a runtime condition.
    pub fn parity(&self, payloads: &[&[u8]]) -> Vec<Vec<u8>> {
        assert_eq!(payloads.len(), self.m, "payload count != group size");
        let width = payloads.iter().map(|p| p.len()).max().unwrap_or(0);
        self.rows
            .chunks_exact(self.m)
            .map(|row| {
                let mut out = vec![0u8; width];
                for (p, &c) in payloads.iter().zip(row) {
                    gf256::mul_acc(&mut out, p, c);
                }
                out
            })
            .collect()
    }

    /// Recovers every lost data payload of the group, byte-identically
    /// and order-free.
    ///
    /// `data[i]` is `Some(payload)` for surviving members and `None` for
    /// lost ones; `parity[j]` likewise for the `r` parity payloads. Any
    /// `s ≤ |surviving parity|` data losses are solvable (MDS). Returns
    /// `(data_index, payload)` pairs with payloads at full parity width —
    /// the caller truncates to each packet's known length.
    ///
    /// # Panics
    /// If `data.len() != m` or `parity.len() != r` (static shape).
    pub fn recover(
        &self,
        data: &[Option<&[u8]>],
        parity: &[Option<&[u8]>],
    ) -> Result<Vec<(usize, Vec<u8>)>, FecError> {
        assert_eq!(data.len(), self.m, "data shard count != group size");
        assert_eq!(parity.len(), self.r, "parity shard count != r");
        let lost: Vec<usize> = (0..self.m).filter(|&i| data[i].is_none()).collect();
        if lost.is_empty() {
            return Ok(Vec::new());
        }
        let alive: Vec<(usize, &[u8])> = parity
            .iter()
            .enumerate()
            .filter_map(|(j, p)| p.map(|p| (j, p)))
            .collect();
        let s = lost.len();
        if alive.len() < s {
            return Err(FecError::NotEnoughParity {
                lost: s,
                parity: alive.len(),
            });
        }
        // All parity payloads of a group share one width; survivors fit it.
        let width = alive[0].1.len();
        if let Some((_, p)) = alive.iter().find(|(_, p)| p.len() != width) {
            return Err(FecError::ParityWidthMismatch {
                expected: width,
                got: p.len(),
            });
        }
        if let Some(shard) = data.iter().flatten().find(|shard| shard.len() > width) {
            return Err(FecError::SurvivorExceedsParity {
                len: shard.len(),
                parity_len: width,
            });
        }
        // Any `s` surviving rows solve `s` losses (MDS); take the first.
        let used = &alive[..s];
        // Syndromes: what each chosen parity row says the lost symbols
        // must sum to, after subtracting (= XOR-ing) the known members.
        let synd: Vec<Vec<u8>> = used
            .iter()
            .map(|&(j, p)| {
                let mut acc = p.to_vec();
                for (shard, &c) in data.iter().zip(self.row(j)) {
                    if let Some(shard) = shard {
                        gf256::mul_acc(&mut acc, shard, c);
                    }
                }
                acc
            })
            .collect();
        // Solve A · x = synd where A[t][u] = c[row_t][lost_u]; A is a
        // (scaled) Cauchy submatrix, hence invertible. Row t of the
        // augmented matrix is A's row t followed by the identity's.
        let mut aug = vec![0u8; 2 * s * s];
        for (t, (row, &(j, _))) in aug.chunks_exact_mut(2 * s).zip(used).enumerate() {
            for (slot, &i) in row.iter_mut().zip(&lost) {
                *slot = self.row(j)[i];
            }
            row[s + t] = 1;
        }
        invert(&mut aug, s)?;
        // One loss under a coefficient-1 row (any single loss while
        // parity 0 survives): the syndrome already is the payload.
        if s == 1 && aug[1] == 1 {
            return Ok(lost.into_iter().zip(synd).collect());
        }
        Ok(lost
            .iter()
            .zip(aug.chunks_exact(2 * s))
            .map(|(&i, row)| {
                let mut payload = vec![0u8; width];
                for (syn, &c) in synd.iter().zip(&row[s..]) {
                    gf256::mul_acc(&mut payload, syn, c);
                }
                (i, payload)
            })
            .collect())
    }
}

/// Gauss–Jordan inversion over GF(256), in place on the row-major
/// `n × 2n` augmented matrix `[A | I]`: on success the left half is the
/// identity and the right half is `A⁻¹`. Returns
/// [`FecError::SingularMatrix`] instead of panicking so the recovery
/// path carries no `unwrap`.
fn invert(aug: &mut [u8], n: usize) -> Result<(), FecError> {
    let w = 2 * n;
    for col in 0..n {
        let pivot = (col..n)
            .find(|&row| aug[row * w + col] != 0)
            .ok_or(FecError::SingularMatrix)?;
        for x in 0..w {
            aug.swap(col * w + x, pivot * w + x);
        }
        let (above, rest) = aug.split_at_mut(col * w);
        let (pivot_row, below) = rest.split_at_mut(w);
        let p = gf256::inv(pivot_row[col]);
        for x in pivot_row.iter_mut() {
            *x = gf256::mul(*x, p);
        }
        for row in above.chunks_exact_mut(w).chain(below.chunks_exact_mut(w)) {
            let f = row[col];
            gf256::mul_acc(row, pivot_row, f);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads() -> Vec<Vec<u8>> {
        vec![
            (0..50u8).collect(),
            (0..20u8).map(|x| x.wrapping_mul(3)).collect(),
            (0..35u8).map(|x| 255 - x).collect(),
            (0..50u8).map(|x| x ^ 0xA5).collect(),
        ]
    }

    #[test]
    fn first_parity_row_is_exactly_xor() {
        let data = payloads();
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        for r in 1..=4 {
            let code = RsCode::new(refs.len(), r).unwrap();
            let parity = code.parity(&refs);
            let mut xor = vec![0u8; parity[0].len()];
            for p in &refs {
                xor.iter_mut().zip(p.iter()).for_each(|(x, &b)| *x ^= b);
            }
            assert_eq!(parity[0], xor, "r = {r}");
        }
    }

    #[test]
    fn any_r_losses_recover_byte_identically() {
        let data = payloads();
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let m = refs.len();
        let r = 3;
        let code = RsCode::new(m, r).unwrap();
        let parity = code.parity(&refs);
        // Every way of losing up to r symbols out of m + r, as a bitmask.
        for mask in 0u32..(1 << (m + r)) {
            let lost_total = mask.count_ones() as usize;
            if lost_total == 0 || lost_total > r {
                continue;
            }
            let shards: Vec<Option<&[u8]>> = (0..m)
                .map(|i| (mask & (1 << i) == 0).then_some(refs[i]))
                .collect();
            let pshards: Vec<Option<&[u8]>> = (0..r)
                .map(|j| (mask & (1 << (m + j)) == 0).then_some(parity[j].as_slice()))
                .collect();
            let recovered = code.recover(&shards, &pshards).unwrap();
            for (i, payload) in recovered {
                assert_eq!(
                    &payload[..refs[i].len()],
                    refs[i],
                    "mask {mask:#b}, symbol {i}"
                );
                assert!(payload[refs[i].len()..].iter().all(|&b| b == 0));
            }
        }
    }

    #[test]
    fn losses_beyond_surviving_parity_are_a_typed_error() {
        let data = payloads();
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let code = RsCode::new(refs.len(), 2).unwrap();
        let parity = code.parity(&refs);
        // Two data losses but only one surviving parity packet.
        let shards = vec![None, None, Some(refs[2]), Some(refs[3])];
        let pshards = vec![Some(parity[0].as_slice()), None];
        assert_eq!(
            code.recover(&shards, &pshards),
            Err(FecError::NotEnoughParity { lost: 2, parity: 1 })
        );
    }

    #[test]
    fn survivor_longer_than_parity_is_a_typed_error() {
        let code = RsCode::new(2, 1).unwrap();
        let parity = code.parity(&[&[1u8, 2], &[3u8]]);
        let long = [9u8; 10];
        let shards: Vec<Option<&[u8]>> = vec![None, Some(&long)];
        let pshards = vec![Some(parity[0].as_slice())];
        assert_eq!(
            code.recover(&shards, &pshards),
            Err(FecError::SurvivorExceedsParity {
                len: 10,
                parity_len: 2
            })
        );
    }

    #[test]
    fn degenerate_shapes_are_rejected() {
        assert!(RsCode::new(0, 1).is_err());
        assert!(RsCode::new(1, 0).is_err());
        assert!(RsCode::new(200, 57).is_err());
        assert!(RsCode::new(200, 56).is_ok());
    }

    #[test]
    fn nothing_lost_recovers_nothing() {
        let data = payloads();
        let refs: Vec<&[u8]> = data.iter().map(|p| p.as_slice()).collect();
        let code = RsCode::new(refs.len(), 2).unwrap();
        let parity = code.parity(&refs);
        let shards: Vec<Option<&[u8]>> = refs.iter().map(|&p| Some(p)).collect();
        let pshards: Vec<Option<&[u8]>> = parity.iter().map(|p| Some(p.as_slice())).collect();
        assert_eq!(code.recover(&shards, &pshards), Ok(Vec::new()));
    }
}
