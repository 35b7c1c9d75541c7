//! Disassembly regression gate: what `repro disasm` prints for every
//! benchmark in every mode, pinned as a digest.
//!
//! `tests/golden/disasm.txt` holds one record per benchmark × mode,
//! `<Bench> [<mode>] | instrs=N fnv=0x…`, where `N` is the compiled
//! kernel's instruction count and the digest is FNV-1a of the whole
//! `repro::disasm` text (header, kernel source and listing). It pins both
//! the words the compiler emits and `Instr`'s `Display` of each, so a
//! change to either the code generator or the ISA tables that moves one
//! mnemonic, operand or instruction shows up here. The table was recorded
//! before the ISA's encode, decode, mnemonic and disassembly were derived
//! from one instruction table, so it is the independent oracle for that
//! rewrite.

#[path = "../../../tests/golden/mod.rs"]
mod golden;

use golden::fnv1a;
use nocl_suite::catalog;

const MODES: &[&str] = &["baseline", "naive", "purecap", "rust", "rustfull", "gpushield"];

#[test]
fn disassembly_matches_recorded_digests() {
    let mut got = Vec::new();
    for bench in catalog() {
        for mode in MODES {
            let text = repro::disasm(bench.name(), mode)
                .unwrap_or_else(|e| panic!("{} [{mode}]: {e}", bench.name()));
            let instrs = text
                .split_once(": ")
                .and_then(|(_, rest)| rest.split_once(' '))
                .map(|(n, _)| n)
                .unwrap_or_else(|| panic!("{} [{mode}]: no instruction count", bench.name()));
            let digest = fnv1a(text.as_bytes());
            got.push(format!("{} [{mode}] | instrs={instrs} fnv={digest:#018x}", bench.name()));
        }
    }
    golden::check("disasm", include_str!("../../../tests/golden/disasm.txt"), &got);
}
