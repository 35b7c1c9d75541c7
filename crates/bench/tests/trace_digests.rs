//! Trace-stream regression gate: the exact event stream of four
//! representative benchmarks, per SM, pinned as a digest.
//!
//! The golden fingerprints pin *statistics*; the reconciliation invariants
//! pin event/counter *sums*. Neither notices an event that moved, changed
//! order or changed a field the counters do not sum (an `rf_transition`, a
//! `dram` completion cycle). This table does: it holds the FNV-1a digest of
//! the JSON-lines export of every per-SM stream for VecAdd (streaming),
//! Histogram (scratchpad + atomics), BlkStencil (metadata divergence) and
//! BitonicSm (barriers, heavy VRF traffic) under baseline and purecap at
//! the quick geometry, on one-, two- and three-SM devices.
//!
//! The one- and two-SM rows were recorded at commit `71df492` (the last
//! with emit sites inside `simt-mem`/`simt-regfile` and with `Device`'s
//! swap-install path), so they are the independent oracle for moving the
//! emit sites into `cheri-simt` and for the borrowed-`MemSystem` run loop.
//! The three-SM rows were recorded at commit `72d0b37`, the last to
//! re-arbitrate between SMs after every step: with an odd SM count the
//! runner-up changes identity, so they pin `Device::run`'s lookahead.

use repro::{
    export_runs, resolve_benches, trace_config, trace_suite_on, Geometry, TraceFormat, TracedRun,
};

const BENCHES: &[&str] = &["VecAdd", "Histogram", "BlkStencil", "BitonicSm"];
const MODES: &[&str] = &["baseline", "purecap"];
const SMS: &[u32] = &[1, 2, 3];

/// 64-bit FNV-1a (dependency-free; collision resistance is not needed, a
/// changed stream only has to change the digest).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Every per-SM stream of the table, in table order, as
/// `(label, sms, events, digest)`.
fn digests() -> Vec<(String, u32, usize, u64)> {
    let mut out = Vec::new();
    for bench in BENCHES {
        let benches = resolve_benches(bench).unwrap();
        for mode in MODES {
            for &sms in SMS {
                let runs: Vec<TracedRun> =
                    trace_suite_on(&benches, trace_config(mode).unwrap(), Geometry::Small, 1, sms)
                        .unwrap_or_else(|e| panic!("{bench} [{mode}] sms={sms}: {e}"));
                assert_eq!(runs.len(), sms as usize, "one stream per SM");
                for run in runs {
                    let jsonl = export_runs(std::slice::from_ref(&run), TraceFormat::Jsonl);
                    out.push((run.label, sms, run.events.len(), fnv1a(jsonl.as_bytes())));
                }
            }
        }
    }
    out
}

/// One-off harvest helper: prints the table in source form.
/// Run with `cargo test -p repro --test trace_digests -- --ignored --nocapture`.
#[test]
#[ignore = "harvest helper, not a regression test"]
fn print_digests() {
    for (label, sms, events, digest) in digests() {
        println!("    (\"{label}\", {sms}, {events}, {digest:#018x}),");
    }
}

#[test]
fn trace_streams_match_recorded_digests() {
    let got = digests();
    assert_eq!(got.len(), GOLDEN.len(), "digest table covered");
    for ((label, sms, events, digest), want) in got.iter().zip(GOLDEN) {
        assert_eq!(
            (label.as_str(), *sms, *events, *digest),
            *want,
            "{label} sms={sms}: trace stream diverged from the recorded one"
        );
    }
}

/// `(cell label, device SMs, events, FNV-1a of the JSON-lines export)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u32, usize, u64)] = &[
    ("VecAdd [baseline]", 1, 8848, 0x20dc09e9e216ba96),
    ("VecAdd [baseline] · sm0", 2, 4712, 0xeea47bd1f6eefb7c),
    ("VecAdd [baseline] · sm1", 2, 4379, 0x6297653930ede1b2),
    ("VecAdd [baseline] · sm0", 3, 3334, 0x4b5b38141024ce3b),
    ("VecAdd [baseline] · sm1", 3, 3011, 0xb9af6d7836595aa9),
    ("VecAdd [baseline] · sm2", 3, 3011, 0x09005b17edf3419c),
    ("VecAdd [purecap]", 1, 9550, 0xeb5f8eab5b77849c),
    ("VecAdd [purecap] · sm0", 2, 5185, 0xd028fdf27cc03f1c),
    ("VecAdd [purecap] · sm1", 2, 4806, 0xf6c6a14eb01183cd),
    ("VecAdd [purecap] · sm0", 3, 3676, 0x3c5a1757b7302c0f),
    ("VecAdd [purecap] · sm1", 3, 3321, 0xff63ed258b23b2c7),
    ("VecAdd [purecap] · sm2", 3, 3318, 0x2fe0f40e9103ffb3),
    ("Histogram [baseline]", 1, 9909, 0x87bd9e53f0292696),
    ("Histogram [baseline] · sm0", 2, 9936, 0x77e4494ee2bc793c),
    ("Histogram [baseline] · sm1", 2, 302, 0x29409a0ff31030a2),
    ("Histogram [baseline] · sm0", 3, 9931, 0xfe3853fcdfc82241),
    ("Histogram [baseline] · sm1", 3, 297, 0x0faf39188e0cdbf4),
    ("Histogram [baseline] · sm2", 3, 297, 0xbfe9eec7ff991092),
    ("Histogram [purecap]", 1, 9529, 0x221a95bccb1dbdfb),
    ("Histogram [purecap] · sm0", 2, 9570, 0xf6fce1a28c7a75b6),
    ("Histogram [purecap] · sm1", 2, 379, 0x032e271967f2d27d),
    ("Histogram [purecap] · sm0", 3, 9565, 0x48c0853983c17d6f),
    ("Histogram [purecap] · sm1", 3, 373, 0x2c71e00314806f01),
    ("Histogram [purecap] · sm2", 3, 373, 0x7326cd1d842445c2),
    ("BlkStencil [baseline]", 1, 2112, 0xca4a9aa8cbe869d6),
    ("BlkStencil [baseline] · sm0", 2, 1203, 0xd705af017be4b396),
    ("BlkStencil [baseline] · sm1", 2, 1204, 0xbc4c164185065cb8),
    ("BlkStencil [baseline] · sm0", 3, 1199, 0xcc0dd04ba446d57c),
    ("BlkStencil [baseline] · sm1", 3, 731, 0x383fba1cc952716f),
    ("BlkStencil [baseline] · sm2", 3, 729, 0x1e631177a5167dd3),
    ("BlkStencil [purecap]", 1, 2216, 0xe05386be349dceaf),
    ("BlkStencil [purecap] · sm0", 2, 1298, 0x1302233a3cd2e3e0),
    ("BlkStencil [purecap] · sm1", 2, 1300, 0x0dd6b7751b4b836a),
    ("BlkStencil [purecap] · sm0", 3, 1299, 0x79d03bfeb2a71526),
    ("BlkStencil [purecap] · sm1", 3, 822, 0xb253713f37a9d97b),
    ("BlkStencil [purecap] · sm2", 3, 823, 0x37545ea2896a60ef),
    ("BitonicSm [baseline]", 1, 66576, 0x60b7b350df539576),
    ("BitonicSm [baseline] · sm0", 2, 33488, 0xb70172ccded6a0f3),
    ("BitonicSm [baseline] · sm1", 2, 33433, 0x43ee08aeb9e16580),
    ("BitonicSm [baseline] · sm0", 3, 33457, 0xc2f0eccdb8a348ef),
    ("BitonicSm [baseline] · sm1", 3, 16854, 0x602ef0c1f445d613),
    ("BitonicSm [baseline] · sm2", 3, 16918, 0xa200a66083b6785b),
    ("BitonicSm [purecap]", 1, 67319, 0xdc49c2905597e91d),
    ("BitonicSm [purecap] · sm0", 2, 33940, 0x0bf3a7d301bc78b7),
    ("BitonicSm [purecap] · sm1", 2, 33897, 0xc5c3d6f109a322f7),
    ("BitonicSm [purecap] · sm0", 3, 33920, 0x98deea2734abc965),
    ("BitonicSm [purecap] · sm1", 3, 17181, 0x2653e809e2decfa8),
    ("BitonicSm [purecap] · sm2", 3, 17228, 0x3f03b9ebbbfc24c3),
];
