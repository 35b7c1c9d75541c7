//! Per-lane functional execution helpers (integer ALU, multiplier/divider,
//! Zfinx float, atomics).

use simt_isa::{AluOp, AmoOp, BranchCond, FcmpOp, FpOp, MulOp};

/// Integer ALU.
pub(crate) fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

/// M-extension multiply/divide with RISC-V semantics (division by zero and
/// overflow produce defined results, no traps).
pub(crate) fn muldiv(op: MulOp, a: u32, b: u32) -> u32 {
    let (sa, sb) = (a as i32, b as i32);
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => ((sa as i64 * sb as i64) >> 32) as u32,
        MulOp::Mulhsu => ((sa as i64).wrapping_mul(b as i64) >> 32) as u32,
        MulOp::Mulhu => ((a as u64 * b as u64) >> 32) as u32,
        MulOp::Div => {
            if b == 0 {
                u32::MAX
            } else if sa == i32::MIN && sb == -1 {
                a
            } else {
                sa.wrapping_div(sb) as u32
            }
        }
        MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        MulOp::Rem => {
            if b == 0 {
                a
            } else if sa == i32::MIN && sb == -1 {
                0
            } else {
                sa.wrapping_rem(sb) as u32
            }
        }
        MulOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

/// Branch condition evaluation.
pub(crate) fn branch_taken(cond: BranchCond, a: u32, b: u32) -> bool {
    match cond {
        BranchCond::Eq => a == b,
        BranchCond::Ne => a != b,
        BranchCond::Lt => (a as i32) < (b as i32),
        BranchCond::Ge => (a as i32) >= (b as i32),
        BranchCond::Ltu => a < b,
        BranchCond::Geu => a >= b,
    }
}

/// Zfinx floating-point arithmetic on raw bit patterns.
pub(crate) fn fp(op: FpOp, a: u32, b: u32) -> u32 {
    let (x, y) = (f32::from_bits(a), f32::from_bits(b));
    let r = match op {
        FpOp::Add => x + y,
        FpOp::Sub => x - y,
        FpOp::Mul => x * y,
        FpOp::Div => x / y,
        FpOp::Min => x.min(y),
        FpOp::Max => x.max(y),
    };
    r.to_bits()
}

/// Floating-point square root.
pub(crate) fn fsqrt(a: u32) -> u32 {
    f32::from_bits(a).sqrt().to_bits()
}

/// Floating-point comparison (0/1 result, false on NaN as per RISC-V).
pub(crate) fn fcmp(op: FcmpOp, a: u32, b: u32) -> u32 {
    let (x, y) = (f32::from_bits(a), f32::from_bits(b));
    let r = match op {
        FcmpOp::Eq => x == y,
        FcmpOp::Lt => x < y,
        FcmpOp::Le => x <= y,
    };
    r as u32
}

/// Convert float to (un)signed 32-bit integer, saturating as per RISC-V.
pub(crate) fn fcvt_ws(a: u32, signed: bool) -> u32 {
    let x = f32::from_bits(a);
    if signed {
        if x.is_nan() {
            i32::MAX as u32
        } else {
            (x as i64).clamp(i32::MIN as i64, i32::MAX as i64) as i32 as u32
        }
    } else if x.is_nan() {
        u32::MAX
    } else {
        (x as i64).clamp(0, u32::MAX as i64) as u32
    }
}

/// Convert (un)signed 32-bit integer to float.
pub(crate) fn fcvt_sw(a: u32, signed: bool) -> u32 {
    if signed {
        (a as i32 as f32).to_bits()
    } else {
        (a as f32).to_bits()
    }
}

/// Atomic read-modify-write combine function: returns the new memory value.
pub(crate) fn amo(op: AmoOp, old: u32, operand: u32) -> u32 {
    match op {
        AmoOp::Swap => operand,
        AmoOp::Add => old.wrapping_add(operand),
        AmoOp::Xor => old ^ operand,
        AmoOp::Or => old | operand,
        AmoOp::And => old & operand,
        AmoOp::Min => (old as i32).min(operand as i32) as u32,
        AmoOp::Max => (old as i32).max(operand as i32) as u32,
        AmoOp::Minu => old.min(operand),
        AmoOp::Maxu => old.max(operand),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_basics() {
        assert_eq!(alu(AluOp::Add, u32::MAX, 1), 0);
        assert_eq!(alu(AluOp::Sub, 3, 5), (-2i32) as u32);
        assert_eq!(alu(AluOp::Sra, (-8i32) as u32, 2), (-2i32) as u32);
        assert_eq!(alu(AluOp::Srl, (-8i32) as u32, 2), 0x3FFF_FFFE);
        assert_eq!(alu(AluOp::Slt, (-1i32) as u32, 0), 1);
        assert_eq!(alu(AluOp::Sltu, (-1i32) as u32, 0), 0);
    }

    #[test]
    fn riscv_division_edge_cases() {
        assert_eq!(muldiv(MulOp::Div, 7, 0), u32::MAX);
        assert_eq!(muldiv(MulOp::Rem, 7, 0), 7);
        assert_eq!(muldiv(MulOp::Div, i32::MIN as u32, -1i32 as u32), i32::MIN as u32);
        assert_eq!(muldiv(MulOp::Rem, i32::MIN as u32, -1i32 as u32), 0);
        assert_eq!(muldiv(MulOp::Mulhu, u32::MAX, u32::MAX), 0xFFFF_FFFE);
        assert_eq!(muldiv(MulOp::Mulh, -2i32 as u32, 3), u32::MAX);
    }

    #[test]
    fn float_ops() {
        let two = 2.0f32.to_bits();
        let three = 3.0f32.to_bits();
        assert_eq!(f32::from_bits(fp(FpOp::Add, two, three)), 5.0);
        assert_eq!(f32::from_bits(fsqrt(9.0f32.to_bits())), 3.0);
        assert_eq!(fcmp(FcmpOp::Lt, two, three), 1);
        assert_eq!(fcmp(FcmpOp::Eq, f32::NAN.to_bits(), f32::NAN.to_bits()), 0);
        assert_eq!(fcvt_ws((-2.7f32).to_bits(), true), (-2i32) as u32);
        assert_eq!(fcvt_ws((-2.7f32).to_bits(), false), 0);
        assert_eq!(f32::from_bits(fcvt_sw(5, true)), 5.0);
    }

    #[test]
    fn atomics() {
        assert_eq!(amo(AmoOp::Add, 10, 5), 15);
        assert_eq!(amo(AmoOp::Min, (-3i32) as u32, 2), (-3i32) as u32);
        assert_eq!(amo(AmoOp::Minu, (-3i32) as u32, 2), 2);
        assert_eq!(amo(AmoOp::Swap, 1, 99), 99);
    }
}
