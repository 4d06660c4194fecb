//! Scalar functions whose bits do not depend on the host's libm.
//!
//! [`tanhf`] is a port of glibc 2.36's fdlibm `tanhf` and the `expm1f` it
//! calls, bitwise equal to that libm on every one of the 2³² inputs
//! (`tests::exhaustive_matches_libm`, `#[ignore]`d: ≈ 40 s in a release
//! build on two cores). fdlibm's branches are all computed and the
//! result is picked by select, so a loop over a slice vectorises where a
//! `tanhf` call per element cannot. [`gelu`] is the one GELU every forward
//! and backward in the workspace evaluates.
//!
//! The constants are fdlibm's hex words and no expression uses `mul_add`:
//! Rust never contracts `a * b + c`, so the bits are the same at every
//! `target-cpu`.

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// `2^k · y` by adding `k` to `y`'s exponent field (fdlibm's
/// `SET_FLOAT_WORD(y, i + (k << 23))`). Wrapping, because lanes whose
/// result is not selected may hold any `k`.
#[inline(always)]
fn scale(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}

/// fdlibm `expm1f` on the arguments [`tanhf`] passes it: `−2|x|` for
/// `2⁻⁵⁵ ≤ |x| < 1` and `2|x|` for `1 ≤ |x| < 22`. Those never reach the
/// overflow and saturation filters, and a positive one is at least 2, so
/// the reduction yields `k ≥ 3` there and the `k = 1` reconstruction is
/// never selected; neither is ported. Any other argument returns garbage
/// without panicking.
#[inline(always)]
fn expm1f(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.to_bits() >> 31 != 0;

    // Argument reduction x = k·ln2 + (hi − lo), one formula for every k: for
    // k ∈ {0, ±1} the products t·ln2_hi and t·ln2_lo are exact, so hi and lo
    // are fdlibm's own `x ∓ ln2_hi`, `±ln2_lo` (and x, 0 when k = 0).
    // |x| ≤ 0.5·ln2 → 0; |x| < 1.5·ln2 → ±1; otherwise x/ln2 ± 0.5 truncated.
    let t = if hx <= 0x3eb1_7218 {
        0.0
    } else if hx < 0x3f85_1592 {
        if neg {
            -1.0
        } else {
            1.0
        }
    } else {
        (INV_LN2 * x + if neg { -0.5 } else { 0.5 }).trunc()
    };
    // t is integral with |t| < 2²² on these arguments, so adding 1.5·2²³ is
    // exact and leaves k in the low bits. A saturating `t as i32` would do
    // the same, but AVX2 cannot vectorise it.
    let k = ((t + 12_582_912.0).to_bits() as i32).wrapping_sub(0x4b40_0000);
    let hi = x - t * LN2_HI;
    let lo = t * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;

    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let y0 = x - (x * e - hxs);
    let e = x * (e - c) - c - hxs;
    let y_m1 = 0.5 * (x - e) - 0.5;

    // 2 ≤ k < 23: (1 − 2^−k) − (e − x); 23 ≤ k ≤ 56: (x − (e + 2^−k)) + 1;
    // otherwise 1 − (e − x) and subtract 1 after scaling.
    let far = k <= -2 || k > 56;
    let p = f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32); // 2^−k
    let y_near = (if far { 1.0 } else { 1.0 - p }) - (e - x);
    let y_wide = (x - (e + p)) + 1.0;
    let y = scale(if k >= 23 && !far { y_wide } else { y_near }, k);
    let y_k = if far { y - 1.0 } else { y };

    if hx < 0x3300_0000 {
        x // |x| < 2⁻²⁵ (k = 0, so x is the argument)
    } else if k == 0 {
        y0
    } else if k == -1 {
        y_m1
    } else {
        y_k
    }
}

/// Hyperbolic tangent, bitwise equal to glibc 2.36's `tanhf` (hence to
/// `f32::tanh` on a glibc host) on every input, NaN payloads included, and
/// branch-free so that slice loops over it vectorise. Always inlined: a
/// call per element is what keeps a loop scalar.
#[inline(always)]
pub fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let sign = jx & 0x8000_0000;
    let ax = f32::from_bits(ix);

    // |x| ≥ 1: 1 − 2/(expm1(2|x|) + 2); otherwise −t/(t + 2), t = expm1(−2|x|).
    let big = ix >= 0x3f80_0000;
    let t = expm1f(if big { 2.0 * ax } else { -2.0 * ax });
    let q = (if big { 2.0 } else { -t }) / (t + 2.0);
    let z = if big { 1.0 - q } else { q };

    if ix > 0x7f80_0000 {
        f32::from_bits(jx | 0x0040_0000) // NaN: 1/x + 1 returns x quieted
    } else if ix >= 0x41b0_0000 {
        f32::from_bits(0x3f80_0000 | sign) // |x| ≥ 22 and ±∞: ±1
    } else if ix < 0x2400_0000 {
        x // |x| < 2⁻⁵⁵ and ±0: x·(1 + x) rounds to x
    } else {
        f32::from_bits(z.to_bits() ^ sign)
    }
}

/// √(2/π), the scale inside GELU's tanh approximation.
pub(crate) const GELU_C: f32 = 0.797_884_6;

/// The argument GELU passes to `tanh`: `√(2/π)·(v + 0.044715·v³)`.
#[inline]
pub(crate) fn gelu_inner(v: f32) -> f32 {
    GELU_C * (v + 0.044715 * v * v * v)
}

/// GELU, tanh approximation (BERT/SPT-Code):
/// `0.5·v·(1 + tanh(√(2/π)·(v + 0.044715·v³)))`. The tape op and every
/// tape-free forward call this one function, so they agree by
/// construction.
#[inline(always)]
pub fn gelu(v: f32) -> f32 {
    0.5 * v * (1.0 + tanhf(gelu_inner(v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(input, output)` bits of `f32::tanh` recorded on glibc 2.36 at each
    /// fdlibm branch edge ±1 ulp, both signs, so this table holds on any
    /// host libm. The `expm1f` edges are stated in `|x|`, the tanh input:
    /// its argument is `2|x|` or `−2|x|`.
    #[rustfmt::skip]
    const GOLDEN: &[(u32, u32)] = &[
        // |x| = 2⁻⁵⁵: below it tanh(x) = x
        (0x23ffffff, 0x23ffffff), (0x24000000, 0x24000000), (0x24000001, 0x24000001),
        (0xa3ffffff, 0xa3ffffff), (0xa4000000, 0xa4000000), (0xa4000001, 0xa4000001),
        // |x| = 2⁻²⁶: expm1f returns its argument below it
        (0x327fffff, 0x327fffff), (0x32800000, 0x32800000), (0x32800001, 0x32800001),
        (0xb27fffff, 0xb27fffff), (0xb2800000, 0xb2800000), (0xb2800001, 0xb2800001),
        // |x| = 0.25·ln2: expm1f k = 0 → k = −1
        (0x3e317217, 0x3e2fb0cc), (0x3e317218, 0x3e2fb0cd), (0x3e317219, 0x3e2fb0cd),
        (0xbe317217, 0xbe2fb0cc), (0xbe317218, 0xbe2fb0cd), (0xbe317219, 0xbe2fb0cd),
        // |x| = 0.75·ln2: expm1f k = −1 → general k ≤ −2
        (0x3f051591, 0x3ef486f8), (0x3f051592, 0x3ef486f8), (0x3f051593, 0x3ef486fb),
        (0xbf051591, 0xbef486f8), (0xbf051592, 0xbef486f8), (0xbf051593, 0xbef486fb),
        // |x| = 1: expm1f(−2|x|) → expm1f(2|x|), k ≥ 3
        (0x3f7fffff, 0x3f42f7d5), (0x3f800000, 0x3f42f7d6), (0x3f800001, 0x3f42f7d6),
        (0xbf7fffff, 0xbf42f7d5), (0xbf800000, 0xbf42f7d6), (0xbf800001, 0xbf42f7d6),
        // |x| = 7.797906: expm1f k = 22 → k = 23
        (0x40f98871, 0x3f7ffffa), (0x40f98872, 0x3f7ffffa), (0x40f98873, 0x3f7ffffa),
        (0xc0f98871, 0xbf7ffffa), (0xc0f98872, 0xbf7ffffa), (0xc0f98873, 0xbf7ffffa),
        // |x| = 13.5·ln2: expm1f's |x| ≥ 27·ln2 filter
        (0x4115b843, 0x3f800000), (0x4115b844, 0x3f800000), (0x4115b845, 0x3f800000),
        (0xc115b843, 0xbf800000), (0xc115b844, 0xbf800000), (0xc115b845, 0xbf800000),
        // |x| = 19.581408: expm1f k = 56 → k = 57
        (0x419ca6b8, 0x3f800000), (0x419ca6b9, 0x3f800000), (0x419ca6ba, 0x3f800000),
        (0xc19ca6b8, 0xbf800000), (0xc19ca6b9, 0xbf800000), (0xc19ca6ba, 0xbf800000),
        // |x| = 22: above it tanh(x) = ±1
        (0x41afffff, 0x3f800000), (0x41b00000, 0x3f800000), (0x41b00001, 0x3f800000),
        (0xc1afffff, 0xbf800000), (0xc1b00000, 0xbf800000), (0xc1b00001, 0xbf800000),
        // ±0, subnormals, smallest normal, largest finite, ±∞, signalling and quiet NaNs
        (0x00000000, 0x00000000), (0x00000001, 0x00000001), (0x00000002, 0x00000002),
        (0x007ffffe, 0x007ffffe), (0x007fffff, 0x007fffff), (0x00800000, 0x00800000),
        (0x7f7fffff, 0x3f800000), (0x7f800000, 0x3f800000), (0x7f800001, 0x7fc00001),
        (0x7fa00000, 0x7fe00000), (0x7fc00000, 0x7fc00000), (0x7fffffff, 0x7fffffff),
        (0x80000000, 0x80000000), (0x80000001, 0x80000001), (0x80000002, 0x80000002),
        (0x807ffffe, 0x807ffffe), (0x807fffff, 0x807fffff), (0x80800000, 0x80800000),
        (0xff7fffff, 0xbf800000), (0xff800000, 0xbf800000), (0xff800001, 0xffc00001),
        (0xffa00000, 0xffe00000), (0xffc00000, 0xffc00000), (0xffffffff, 0xffffffff),
    ];

    #[test]
    fn golden_branch_edges() {
        for &(x, want) in GOLDEN {
            let got = tanhf(f32::from_bits(x)).to_bits();
            assert_eq!(
                got, want,
                "tanhf({x:#010x}) = {got:#010x}, want {want:#010x}"
            );
        }
    }

    /// One 256×1024 feed-forward block — an encoder layer at the serving
    /// shape — through [`gelu`] as the forward loops it, against the same
    /// expression on the host's `f32::tanh`, bit for bit.
    #[test]
    fn serving_block_gelu_matches_the_libm_expression() {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        let libm_gelu = |v: f32| 0.5 * v * (1.0 + (C * (v + 0.044715 * v * v * v)).tanh());
        // Pre-activations spread uniformly over [-4, 4) by a multiplicative hash.
        let block: Vec<f32> = (0..256 * 1024u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 8) as f32 / (1 << 24) as f32 * 8.0 - 4.0)
            .collect();
        let mut out = vec![0.0f32; block.len()];
        for (o, &v) in out.iter_mut().zip(&block) {
            *o = gelu(v);
        }
        for (&v, &got) in block.iter().zip(&out) {
            assert_eq!(
                got.to_bits(),
                libm_gelu(v).to_bits(),
                "gelu({v}) differs from the libm expression"
            );
        }
    }

    #[test]
    #[ignore = "all 2^32 inputs: run with --release -- --ignored"]
    fn exhaustive_matches_libm() {
        // One contiguous share of the input bits per core, evaluated a block
        // at a time so the port runs as the vectorised loop it serves in.
        const BLOCK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let share = (1u64 << 32).div_ceil(threads).next_multiple_of(BLOCK);
        let bad: Vec<(u32, u32, u32)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|i| {
                    s.spawn(move || {
                        let mut bad = Vec::new();
                        let mut got = vec![0.0f32; BLOCK as usize];
                        let end = ((i + 1) * share).min(1 << 32);
                        for start in (i * share..end).step_by(BLOCK as usize) {
                            let xs = (start..start + BLOCK).map(|b| f32::from_bits(b as u32));
                            for (g, x) in got.iter_mut().zip(xs.clone()) {
                                *g = tanhf(x);
                            }
                            for (&g, x) in got.iter().zip(xs) {
                                if g.to_bits() != x.tanh().to_bits() && bad.len() < 8 {
                                    bad.push((x.to_bits(), x.tanh().to_bits(), g.to_bits()));
                                }
                            }
                        }
                        bad
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("exhaustive worker panicked"))
                .collect()
        });
        assert!(bad.is_empty(), "(x, f32::tanh, tanhf) bits: {bad:#010x?}");
    }
}
