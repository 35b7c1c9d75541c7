//! The parallel runner's contract: bit-identical results at every worker
//! count, and per-cell failure isolation.

use nocl_suite::Scale;
use repro::{run_indexed, run_suite_parallel_on, Config, Geometry};

/// `--jobs 1`, `--jobs 4` and `--jobs 8` produce identical `SuiteResults`
/// — every `KernelStats` field, including histograms and stall
/// breakdowns, compared structurally.
#[test]
fn suite_results_identical_across_worker_counts() {
    for config in [Config::Base { eighths: 3 }, Config::CheriOpt] {
        let (cfg, mode) = config.instantiate(Geometry::Small);
        let serial = run_suite_parallel_on(1, cfg, mode, Scale::Test, 1).expect("serial suite");
        assert_eq!(serial.len(), 14);
        for jobs in [4usize, 8] {
            let parallel = run_suite_parallel_on(jobs, cfg, mode, Scale::Test, 1)
                .unwrap_or_else(|e| panic!("{config:?} with {jobs} jobs: {e}"));
            assert_eq!(serial, parallel, "{config:?}: jobs=1 vs jobs={jobs}");
        }
    }
}

/// A failing job reports its own error; sibling jobs still complete with
/// correct results (the pool is not poisoned by a panic).
#[test]
fn failing_job_does_not_poison_siblings() {
    let results = run_indexed(4, 32, |i| {
        if i == 13 {
            panic!("job {i} exploded");
        }
        i * 10
    });
    assert_eq!(results.len(), 32);
    for (i, r) in results.iter().enumerate() {
        if i == 13 {
            let msg = r.as_ref().expect_err("job 13 must fail");
            assert!(msg.contains("job 13 exploded"), "got: {msg}");
        } else {
            assert_eq!(*r, Ok(i * 10), "sibling {i} was poisoned");
        }
    }
}

/// Several concurrent failures are each attributed to the right job.
#[test]
fn every_failure_is_attributed_to_its_own_job() {
    let results = run_indexed(8, 64, |i| {
        if i % 5 == 0 {
            panic!("multiple of five: {i}");
        }
        i
    });
    for (i, r) in results.iter().enumerate() {
        if i % 5 == 0 {
            let msg = r.as_ref().expect_err("must fail");
            assert!(msg.contains(&format!("multiple of five: {i}")), "job {i}: {msg}");
        } else {
            assert_eq!(*r, Ok(i));
        }
    }
}
