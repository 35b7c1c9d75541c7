//! Parallel execution engine for the suite and experiment layers.
//!
//! Experiments are embarrassingly parallel — each (benchmark, config,
//! mode, scale) cell simulates its own [`Gpu`] — but the seed harness ran
//! them strictly serially. This module fans cells out over a
//! [`std::thread::scope`] work-stealing pool (an atomic next-index counter;
//! no external dependencies) and reduces results **in cell-index order**,
//! so suite results, geomeans, and `repro` table output are bit-identical
//! to the serial path regardless of thread count. `jobs = 1` runs the
//! exact same code path on a single worker.
//!
//! Determinism rests on two properties, both enforced elsewhere in the
//! workspace and asserted by `crates/bench/tests/parallel.rs`:
//!
//! * every benchmark seeds its input PRNG from a per-benchmark constant
//!   (`nocl_suite::util::rng`), so a cell's result does not depend on which
//!   worker runs it or when;
//! * every cell gets a *fresh* `Gpu`, so no allocator or cache state leaks
//!   between cells in either the serial or the parallel schedule.
//!
//! A cell that fails — a `BenchError` or a panic — is reported for that
//! cell alone; sibling workers run their cells to completion (panics are
//! contained with `catch_unwind`, which is sound here because each job owns
//! its whole `Gpu` and shares nothing mutable).

use crate::SuiteResults;
use cheri_simt::{KernelStats, SmConfig};
use nocl::Gpu;
use nocl_kir::Mode;
use nocl_suite::{suite_jobs, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

// Send audit: everything a worker captures or returns must cross the
// `thread::scope` boundary.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SmConfig>();
    assert_send::<Mode>();
    assert_send::<Scale>();
    assert_send::<KernelStats>();
    assert_send::<Gpu>();
    assert_send::<CellError>();
};

/// One failed cell, tagged with the benchmark it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// Table-1 name of the failing benchmark.
    pub bench: &'static str,
    /// The benchmark's own error, or the payload of a caught panic.
    pub message: String,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.bench, self.message)
    }
}

impl std::error::Error for CellError {}

/// Default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `f(0..n)` on `jobs` workers with work stealing and return the
/// results **in index order**; a job that panics yields `Err(payload)` for
/// its own index without disturbing any other job.
///
/// This is the one scheduling primitive of the engine: the suite runner
/// and the ad-hoc experiment sweeps all go through it, so `jobs = 1` is
/// the serial path rather than a separate implementation.
pub fn run_indexed<R, F>(jobs: usize, n: usize, f: F) -> Vec<Result<R, String>>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    let next = AtomicUsize::new(0);
    let mut pairs: Vec<(usize, Result<R, String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = catch_unwind(AssertUnwindSafe(|| f(i)))
                            .map_err(|p| panic_message(p.as_ref()));
                        done.push((i, r));
                    }
                    done
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("worker died outside a job")).collect()
    });
    // Deterministic reduction: results in cell-index order, independent of
    // worker count and completion order.
    pairs.sort_unstable_by_key(|(i, _)| *i);
    debug_assert!(pairs.iter().enumerate().all(|(k, (i, _))| k == *i));
    pairs.into_iter().map(|(_, r)| r).collect()
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

/// Run the whole NoCL suite under one SM configuration on devices of `sms`
/// streaming multiprocessors (`sms = 1` is the classic single-SM model),
/// one fresh [`Gpu`] per benchmark cell, fanned out over `jobs` workers.
/// Results come back in Table-1 order; on failure, the error of the
/// *first* failing cell in Table-1 order is returned (sibling cells still
/// run to completion), so the outcome is deterministic too.
///
/// # Errors
///
/// Fails if any benchmark fails its launch or self-check, or panics.
pub fn run_suite_parallel_on(
    jobs: usize,
    cfg: SmConfig,
    mode: Mode,
    scale: Scale,
    sms: u32,
) -> Result<SuiteResults, CellError> {
    let cells = suite_jobs();
    let results = run_indexed(jobs, cells.len(), |i| {
        let mut gpu = Gpu::with_sms(cfg, mode, sms);
        cells[i].bench.run(&mut gpu, scale).map_err(|e| e.to_string())
    });
    let mut out = SuiteResults::with_capacity(cells.len());
    for (job, r) in cells.iter().zip(results) {
        match r {
            Ok(Ok(stats)) => out.push((job.bench.name(), stats)),
            Ok(Err(message)) | Err(message) => {
                return Err(CellError { bench: job.bench.name(), message });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_results_are_ordered() {
        for jobs in [1, 2, 7, 64] {
            let got = run_indexed(jobs, 100, |i| i * i);
            let want: Vec<_> = (0..100).map(|i| Ok(i * i)).collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_oversubscribed_pools() {
        assert!(run_indexed(8, 0, |i| i).is_empty());
        assert_eq!(run_indexed(64, 1, |i| i), vec![Ok(0)]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
