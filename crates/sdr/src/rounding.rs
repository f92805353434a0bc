//! `f64::round`, `floor` and `ceil` without a libm call, bit for bit.
//!
//! On baseline x86-64 (SSE2 only, no SSE4.1 `roundsd`) the standard
//! rounding methods compile to out-of-line library calls. The digitiser
//! rounds twice per sample and the synthesiser takes a `ceil` and a
//! `floor` per pulse, so the TX hot loops call these inline forms
//! instead. Each equals its `f64` method for every input, the sign of a
//! zero result included (pinned in tests):
//!
//! - for `|x| < 2^52`, adding and subtracting `2^52` rounds `|x|` to the
//!   nearest integer, ties to even, exactly; a compare then fixes the
//!   tie or the direction, and `copysign` restores the sign, because
//!   every one of the three results carries the sign of `x`;
//! - `|x| ≥ 2^52` is already an integer (or infinite), and NaN fails
//!   the range compare, so both come back unchanged.

/// `2^52`: from here on every `f64` is an integer.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// `|x|` rounded to the nearest integer, ties to even, for
/// `|x| < 2^52`.
#[inline(always)]
fn nearest_even_abs(x: f64) -> f64 {
    (x.abs() + TWO_52) - TWO_52
}

/// The integer result `r` for `|x| < 2^52`, else `x` itself.
#[inline(always)]
fn finish(x: f64, r: f64) -> f64 {
    if x.abs() < TWO_52 {
        r.copysign(x)
    } else {
        x
    }
}

/// 1.0 when `c` holds, else 0.0, without a branch.
#[inline(always)]
fn one_if(c: bool) -> f64 {
    f64::from(u8::from(c))
}

/// [`f64::round`]: the nearest integer, half-way cases away from zero.
#[inline]
pub(crate) fn round(x: f64) -> f64 {
    let a = x.abs();
    let r = nearest_even_abs(x);
    // `a − r` is exact; it is +0.5 only at a tie the add rounded down.
    finish(x, r + one_if(a - r >= 0.5))
}

/// [`f64::floor`]: the largest integer not above `x`.
#[inline]
pub fn floor(x: f64) -> f64 {
    let r = nearest_even_abs(x).copysign(x);
    finish(x, r - one_if(r > x))
}

/// [`f64::ceil`]: the smallest integer not below `x`.
#[inline]
pub fn ceil(x: f64) -> f64 {
    let r = nearest_even_abs(x).copysign(x);
    finish(x, r + one_if(r < x))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each helper against its `f64` method: the same bits, or NaN for
    /// NaN.
    fn assert_all_match(x: f64) {
        type Pair = (&'static str, fn(f64) -> f64, fn(f64) -> f64);
        let pairs: [Pair; 3] =
            [("round", round, f64::round), ("floor", floor, f64::floor), ("ceil", ceil, f64::ceil)];
        for (name, ours, std) in pairs {
            let (got, want) = (ours(x), std(x));
            if want.is_nan() {
                assert!(got.is_nan(), "{name}({x:e}) = {got:e}, want NaN");
            } else {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{name}({x:e} = {:#018x}) = {got:e}, want {want:e}",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn ties_and_signed_zeros_match_std() {
        for k in 0..=127 {
            let tie = k as f64 + 0.5;
            assert_all_match(tie);
            assert_all_match(-tie);
        }
        assert_all_match(0.0);
        assert_all_match(-0.0);
    }

    #[test]
    fn edge_values_match_std() {
        let two_52 = 2f64.powi(52);
        let below_half = 0.499_999_999_999_999_94;
        assert_eq!(below_half, 0.5 - f64::EPSILON / 4.0, "largest double below 0.5");
        for x in [
            below_half,
            0.5 + f64::EPSILON / 2.0,
            1.0 - f64::EPSILON / 2.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            two_52 - 0.5,
            two_52 - 1.5,
            two_52,
            two_52 + 1.0,
            2f64.powi(53),
            2f64.powi(53) + 2.0,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ] {
            assert_all_match(x);
            assert_all_match(-x);
        }
        assert_all_match(f64::NAN);
        assert_all_match(-f64::NAN);
    }

    #[test]
    fn seeded_sweep_matches_std() {
        // xorshift64*: raw bit patterns over every exponent, plus
        // values at the quantiser's and the synthesiser's scales.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..200_000 {
            let bits = next();
            let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
            assert_all_match(f64::from_bits(bits));
            assert_all_match((2.0 * unit - 1.0) * 127.0);
            assert_all_match((2.0 * unit - 1.0) * 1e7);
            assert_all_match((unit - 0.5) * 2f64.powi((bits % 60) as i32));
        }
    }
}
