//! GF(2⁸) arithmetic for the Reed–Solomon erasure layer.
//!
//! The field is GF(2)\[x\] / (x⁸ + x⁴ + x³ + x² + 1) — reduction polynomial
//! `0x11D`, the conventional Reed–Solomon choice — with generator α = 2
//! (`0x02` is primitive modulo `0x11D`, so its powers enumerate all 255
//! non-zero elements). Addition is XOR. Everything is table-driven and
//! deterministic; nothing here is constant-time (scalar [`mul`] and
//! [`inv`] branch on zero, [`mul_acc`] on its coefficient) and nothing
//! needs to be — the bytes are payload, not secrets.
//!
//! Two layers of tables, both built at compile time:
//!
//! * `EXP`/`LOG` (768 B) serve the **scalar** operations [`mul`],
//!   [`div`] and [`inv`], which the erasure coder uses only on
//!   coefficients: building the Cauchy rows and inverting the ≤ r × r
//!   recovery matrix.
//! * `MUL` (64 KB, `MUL[c][b] = c · b`) serves the one **bulk**
//!   primitive, [`mul_acc`]: `dst[i] ^= c · src[i]` over a slice. Every
//!   payload byte the erasure coder touches goes through it. A call
//!   reads one 256-byte row — four cache lines — so the working set per
//!   call is small however large the table is.
//!
//! Why a full product table and not two 16-entry nibble tables: nibble
//! tables only win through a byte shuffle (`pshufb`) or GFNI, both of
//! which need `unsafe` intrinsics, and the workspace forbids `unsafe`.
//! The safe alternatives were measured on the 2-vCPU reference host for
//! RS(12, 2) parity over real entropy-chunk payloads (by the prototype
//! behind this kernel), so nobody has to retry them: the log/exp byte
//! loop this replaced ran at ~1.2 GB/s; an auto-vectorised xtime
//! (shift-and-reduce) chain ties the row table at ~2.4 GB/s and is more
//! code; a bit-plane mask kernel loses to the old loop at 0.67 GB/s.
//! The plain XOR that `c == 1` reduces to runs at 18–19 GB/s, which is
//! why [`mul_acc`] special-cases it: row 0 of the code is all ones.
//!
//! The field axioms (associativity, commutativity, distributivity,
//! inverse round trips) are pinned exhaustively where cheap and by
//! proptest where not (`tests/fec_properties.rs`); `MUL` and [`mul_acc`]
//! are pinned exhaustively against the schoolbook multiply below.

/// Reduction polynomial x⁸ + x⁴ + x³ + x² + 1 (with the implicit x⁸ bit).
const POLY: u16 = 0x11D;

/// `EXP[i] = α^i` for `i ∈ 0..510` — doubled so `mul` can index
/// `EXP[log a + log b]` (max 508) without a `% 255` reduction.
const EXP: [u8; 512] = exp_table();

/// `LOG[a] = log_α a` for `a ∈ 1..=255` (`LOG[0]` is unused filler: zero
/// has no logarithm; [`mul`]/[`inv`] branch on zero before indexing).
const LOG: [u8; 256] = log_table();

const fn exp_table() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Indices 510/511 are unreachable (log a + log b <= 508); leave 0.
    exp
}

const fn log_table() -> [u8; 256] {
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    log
}

/// `MUL[c][b] = c · b`: one 256-byte row per coefficient, so the bulk
/// kernel pays one dependent load per byte instead of two loads, an add
/// and a zero test. A `static`, not a `const`, so the 64 KB exist once.
static MUL: [[u8; 256]; 256] = mul_table();

const fn mul_table() -> [[u8; 256]; 256] {
    let mut table = [[0u8; 256]; 256];
    let mut a = 1;
    while a < 256 {
        let mut b = 1;
        while b < 256 {
            table[a][b] = EXP[LOG[a] as usize + LOG[b] as usize];
            b += 1;
        }
        a += 1;
    }
    table
}

/// Field multiplication: `a · b` in GF(2⁸).
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse: `a⁻¹` such that `mul(a, inv(a)) == 1`.
///
/// # Panics
/// Zero has no inverse; callers must guard (the erasure coder only ever
/// inverts Cauchy denominators `x ⊕ y` with `x ≠ y`, which are non-zero
/// by construction).
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no multiplicative inverse in GF(256)");
    EXP[255 - LOG[a as usize] as usize]
}

/// Field division: `a / b`.
///
/// # Panics
/// On division by zero (see [`inv`]).
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b))
}

/// Multiply-accumulate over a slice: `dst[i] ^= c · src[i]` for every
/// `i` below the shorter of the two lengths; bytes of `dst` past that
/// common prefix are left untouched (a shorter `src` is an implicitly
/// zero-padded one).
///
/// `c == 0` contributes nothing and `c == 1` is a plain XOR, which the
/// compiler vectorises; any other coefficient looks each source byte up
/// in its row of the product table, sixteen at a time so that `dst` is
/// read, XOR-ed and written as one 128-bit word per step (measured 10%
/// faster than eight per `u64`, which in turn beats one byte per step).
pub fn mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    match c {
        0 => {}
        1 => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d ^= s;
            }
        }
        _ => {
            let row = &MUL[c as usize];
            let (dst_words, dst_tail) = dst.as_chunks_mut::<16>();
            let (src_words, src_tail) = src.as_chunks::<16>();
            for (d, s) in dst_words.iter_mut().zip(src_words) {
                let product = s.map(|b| row[b as usize]);
                *d = (u128::from_ne_bytes(*d) ^ u128::from_ne_bytes(product)).to_ne_bytes();
            }
            for (d, &s) in dst_tail.iter_mut().zip(src_tail) {
                *d ^= row[s as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Schoolbook carry-less multiply-and-reduce, as the oracle.
    fn slow_mul(a: u8, b: u8) -> u8 {
        let mut acc: u16 = 0;
        let mut a16 = a as u16;
        let mut b16 = b as u16;
        while b16 != 0 {
            if b16 & 1 != 0 {
                acc ^= a16;
            }
            b16 >>= 1;
            a16 <<= 1;
            if a16 & 0x100 != 0 {
                a16 ^= POLY;
            }
        }
        acc as u8
    }

    #[test]
    fn both_tables_match_schoolbook_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "{a} * {b}");
                assert_eq!(MUL[a as usize][b as usize], slow_mul(a, b), "{a} * {b}");
            }
        }
    }

    /// Every coefficient × every length 0..=33 (empty, tail only, whole
    /// words only, words + tail) × `dst` shorter than, equal to and
    /// longer than `src`, from a non-zero `dst`: the common prefix gets
    /// `c · src` XOR-ed in, everything past it is untouched.
    #[test]
    fn mul_acc_matches_the_scalar_loop_on_every_shape() {
        // `src` holds a zero byte (index 0); `dst` starts odd, so non-zero.
        let src: Vec<u8> = (0..40u32).map(|i| (i * 151) as u8).collect();
        let init: Vec<u8> = (0..40u32).map(|i| (i * 59) as u8 | 1).collect();
        for c in 0..=255u8 {
            for len in 0..=33usize {
                for (dst_len, src_len) in [(len, len + 5), (len, len), (len + 5, len)] {
                    let mut got = init[..dst_len].to_vec();
                    mul_acc(&mut got, &src[..src_len], c);
                    let mut want = init[..dst_len].to_vec();
                    for (d, &s) in want.iter_mut().zip(&src[..src_len]) {
                        *d ^= mul(c, s);
                    }
                    assert_eq!(got, want, "c = {c}, dst {dst_len} B, src {src_len} B");
                }
            }
        }
    }

    #[test]
    fn every_nonzero_element_inverts_exhaustively() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a = {a}");
            assert_eq!(div(a, a), 1);
        }
    }

    #[test]
    fn identities_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn generator_is_primitive() {
        // α = 2 must enumerate all 255 non-zero elements before cycling.
        let mut seen = [false; 256];
        let mut x = 1u8;
        for _ in 0..255 {
            assert!(!seen[x as usize], "period of alpha divides < 255");
            seen[x as usize] = true;
            x = mul(x, 2);
        }
        assert_eq!(x, 1, "alpha^255 = 1");
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn zero_inverse_rejected() {
        let _ = inv(0);
    }
}
