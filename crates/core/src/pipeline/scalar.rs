//! Compact-operand arithmetic for the warp-wide execute drivers.
//!
//! The warp-wide drivers compute a warp's result from [`OperandVec`]s without
//! expanding them: uniform∘uniform is one ALU evaluation, and the
//! operations that are *linear* in an affine operand (see
//! [`super::classify`]) are reconstructed from two lane samples — the
//! result of a linear operation over affine lanes is itself affine, so
//! lanes 0 and 1 determine base and stride exactly (modulo 2³², matching
//! the register-file compressor's comparators).

use simt_regfile::OperandVec;

/// Lane `i`'s value of a compact operand, in the 32-bit data domain
/// (the [`OperandVec`] lane contract).
///
/// # Panics
///
/// Panics on a `Vector` operand. An invariant, not an input check: a
/// [`super::classify::ScalarRule::Linear`] issue only reaches the warp-wide
/// driver when both operand classes are compact, and `op_matrix.rs` drives
/// every linear op over every operand shape on both drivers.
pub(crate) fn lane_val(v: &OperandVec, i: u32) -> u32 {
    match *v {
        OperandVec::Uniform(x) => x as u32,
        OperandVec::Affine { base, stride } => {
            (base as u32).wrapping_add((stride as u32).wrapping_mul(i))
        }
        OperandVec::Vector(_) => unreachable!("vector operand on the scalarised path"),
    }
}

/// The value of an operand the classifier proved uniform.
///
/// # Panics
///
/// Panics on non-uniform operands. An invariant, not an input check: a
/// [`super::classify::ScalarRule::Uniform`] issue only reaches the warp-wide
/// driver when every register the rule names is uniform (`op_matrix.rs`
/// exercises each such op with uniform, affine and scrambled operands).
pub(crate) fn expect_uniform(v: &OperandVec) -> u64 {
    match *v {
        OperandVec::Uniform(x) => x,
        _ => unreachable!("non-uniform operand on a uniform-only fast path"),
    }
}

/// Evaluate a lane-wise binary operation over compact operands, for
/// `(op, a, b)` combinations where the result is provably uniform or
/// affine (the classifier's [`super::classify::alu_scalarises`] /
/// [`super::classify::muldiv_scalarises`] contract): one evaluation for
/// uniform∘uniform, two lane samples otherwise.
pub(crate) fn linear2(f: impl Fn(u32, u32) -> u32, a: &OperandVec, b: &OperandVec) -> OperandVec {
    if let (&OperandVec::Uniform(x), &OperandVec::Uniform(y)) = (a, b) {
        return OperandVec::Uniform(f(x as u32, y as u32) as u64);
    }
    let r0 = f(lane_val(a, 0), lane_val(b, 0));
    let r1 = f(lane_val(a, 1), lane_val(b, 1));
    let stride = r1.wrapping_sub(r0);
    // Linearity check: lane 2 must continue the sampled progression.
    debug_assert_eq!(
        f(lane_val(a, 2), lane_val(b, 2)),
        r0.wrapping_add(stride.wrapping_mul(2)),
        "non-linear operation classified as scalarisable"
    );
    OperandVec::Affine { base: r0 as u64, stride: stride as i64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_fold() {
        let r = linear2(|x, y| x.wrapping_add(y), &OperandVec::Uniform(7), &OperandVec::Uniform(5));
        assert!(matches!(r, OperandVec::Uniform(12)));
    }

    #[test]
    fn affine_sampling_matches_lanewise() {
        let a = OperandVec::Affine { base: 100, stride: 4 };
        let b = OperandVec::Uniform(0xffff_fff0); // -16 mod 2^32
        let r = linear2(|x, y| x.wrapping_add(y), &a, &b);
        let mut out = [0u64; 8];
        r.expand_into(&mut out);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v as u32, (100 + 4 * i as u32).wrapping_add(0xffff_fff0));
        }
    }

    #[test]
    fn shift_by_uniform_stays_affine() {
        let a = OperandVec::Affine { base: 3, stride: -2 };
        let r = linear2(|x, y| x << (y & 31), &a, &OperandVec::Uniform(4));
        let mut out = [0u64; 4];
        r.expand_into(&mut out);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v as u32, (3u32.wrapping_add((-2i32 as u32).wrapping_mul(i as u32))) << 4);
        }
    }
}
