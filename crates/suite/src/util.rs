//! Shared helpers: scales, errors, geometry, verification.

use core::fmt;
use nocl::{Gpu, LaunchError};
use sim_prng::Prng;

/// Problem size selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs for unit tests (seconds on a small SM).
    Test,
    /// The sizes used by the reproduction harness on the full 2048-thread
    /// SM (the paper runs "small datasets" in simulation too).
    Paper,
}

/// Benchmark failure.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchError {
    /// A launch failed (compile/config/trap/timeout).
    Launch(LaunchError),
    /// The device result did not match the host reference.
    Mismatch(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Launch(e) => write!(f, "launch failed: {e}"),
            BenchError::Mismatch(s) => write!(f, "result mismatch: {s}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<LaunchError> for BenchError {
    fn from(e: LaunchError) -> Self {
        BenchError::Launch(e)
    }
}

/// A deterministic RNG per benchmark. Each benchmark seeds its own stream
/// from a constant, so inputs are bit-identical no matter which worker of
/// the parallel runner executes the cell, or in what order.
pub(crate) fn rng(seed: u64) -> Prng {
    Prng::seed_from_u64(seed)
}

/// Random `i32` values in a small range (overflow-free accumulation).
pub(crate) fn rand_i32s(seed: u64, n: usize) -> Vec<i32> {
    let mut r = rng(seed);
    (0..n).map(|_| r.range_i32(-100, 100)).collect()
}

/// Random `u32` keys.
pub(crate) fn rand_u32s(seed: u64, n: usize) -> Vec<u32> {
    let mut r = rng(seed);
    (0..n).map(|_| r.range_u32(0, 1_000_000)).collect()
}

/// Random bytes.
pub(crate) fn rand_u8s(seed: u64, n: usize) -> Vec<u8> {
    let mut r = rng(seed);
    (0..n).map(|_| r.next_u8()).collect()
}

/// Random well-conditioned floats.
pub(crate) fn rand_f32s(seed: u64, n: usize) -> Vec<f32> {
    let mut r = rng(seed);
    (0..n).map(|_| r.range_f32(-4.0, 4.0)).collect()
}

/// The largest power-of-two block size the SM supports, capped at `pref`.
pub(crate) fn block_dim(gpu: &Gpu, pref: u32) -> u32 {
    debug_assert!(pref.is_power_of_two());
    pref.min(gpu.device().config().threads())
}

/// Compare integer slices exactly.
pub(crate) fn check_eq<T: PartialEq + fmt::Debug>(
    name: &str,
    got: &[T],
    want: &[T],
) -> Result<(), BenchError> {
    if got.len() != want.len() {
        return Err(BenchError::Mismatch(format!(
            "{name}: length {} vs {}",
            got.len(),
            want.len()
        )));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Err(BenchError::Mismatch(format!("{name}[{i}]: got {g:?}, want {w:?}")));
        }
    }
    Ok(())
}

/// Compare float slices with a relative/absolute tolerance (device-side
/// accumulation order differs from the host's).
pub(crate) fn check_close(
    name: &str,
    got: &[f32],
    want: &[f32],
    tol: f32,
) -> Result<(), BenchError> {
    if got.len() != want.len() {
        return Err(BenchError::Mismatch(format!(
            "{name}: length {} vs {}",
            got.len(),
            want.len()
        )));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let scale = w.abs().max(1.0);
        if (g - w).abs() > tol * scale {
            return Err(BenchError::Mismatch(format!("{name}[{i}]: got {g}, want {w}")));
        }
    }
    Ok(())
}
