//! Trace-stream regression gate: the exact event stream of four
//! representative benchmarks, per SM, pinned as a digest.
//!
//! The golden fingerprints pin *statistics*; the reconciliation invariants
//! pin event/counter *sums*. Neither notices an event that moved, changed
//! order or changed a field the counters do not sum (an `rf_transition`, a
//! `dram` completion cycle). The table `tests/golden/trace_digests.txt`
//! does: it holds the FNV-1a digest of the JSON-lines bytes that
//! `write_runs` (the writer behind `repro trace`) writes for every per-SM
//! stream of VecAdd (streaming), Histogram (scratchpad + atomics),
//! BlkStencil (metadata divergence) and BitonicSm (barriers, heavy VRF
//! traffic) under baseline and purecap at the quick geometry, on one-, two-
//! and three-SM devices.
//!
//! The one- and two-SM rows were recorded at commit `71df492` (the last
//! with emit sites inside `simt-mem`/`simt-regfile` and with `Device`'s
//! swap-install path), so they are the independent oracle for moving the
//! emit sites into `cheri-simt` and for the borrowed-`MemSystem` run loop.
//! The three-SM rows were recorded at commit `72d0b37`, the last to
//! re-arbitrate between SMs after every step: with an odd SM count the
//! runner-up changes identity, so they pin `Device::run`'s lookahead.

#[path = "../../../tests/golden/mod.rs"]
mod golden;

use golden::fnv1a;
use repro::{
    resolve_benches, trace_config, trace_suite_on, write_runs, Geometry, TraceFormat, TracedRun,
};

const BENCHES: &[&str] = &["VecAdd", "Histogram", "BlkStencil", "BitonicSm"];
const MODES: &[&str] = &["baseline", "purecap"];
const SMS: &[u32] = &[1, 2, 3];

/// Every per-SM stream, in table order, as
/// `<cell label> (sms=N) | events=… fnv=…` (the digest is FNV-1a of the
/// stream's JSON-lines bytes as written).
#[test]
fn trace_streams_match_recorded_digests() {
    let mut got = Vec::new();
    for bench in BENCHES {
        let benches = resolve_benches(bench).unwrap();
        for mode in MODES {
            for &sms in SMS {
                let runs: Vec<TracedRun> =
                    trace_suite_on(&benches, trace_config(mode).unwrap(), Geometry::Small, 1, sms)
                        .unwrap_or_else(|e| panic!("{bench} [{mode}] sms={sms}: {e}"));
                assert_eq!(runs.len(), sms as usize, "one stream per SM");
                for run in runs {
                    let mut jsonl = Vec::new();
                    write_runs(&mut jsonl, std::slice::from_ref(&run), TraceFormat::Jsonl).unwrap();
                    let (events, digest) = (run.events.len(), fnv1a(&jsonl));
                    got.push(format!(
                        "{} (sms={sms}) | events={events} fnv={digest:#018x}",
                        run.label
                    ));
                }
            }
        }
    }
    golden::check("trace_digests", include_str!("../../../tests/golden/trace_digests.txt"), &got);
}
