//! `repro`'s command-line contract: `--help`/`-h` print the synopsis to
//! stdout and succeed; every command-line error prints it to stderr and
//! exits 2.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

#[test]
fn help_prints_usage_to_stdout() {
    for flag in ["--help", "-h"] {
        let out = repro(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: repro "), "{flag}: {stdout}");
        assert!(stdout.contains("repro faults "), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn unknown_arguments_print_usage_to_stderr() {
    for (args, msg) in [
        (&["--bogus"][..], "unknown option: --bogus"),
        (&["--quick", "bogus"][..], "unknown experiment: bogus"),
        (&["-x"][..], "unknown experiment: -x"),
        (&["trace"][..], "trace takes one benchmark"),
        (&["disasm", "vecadd"][..], "disasm takes a benchmark and a mode"),
        (&["disasm", "vecadd", "bogus"][..], "unknown mode bogus"),
        (&["validate-trace"][..], "validate-trace takes one file"),
        (&["faults", "vecadd", "scan"][..], "faults takes at most one benchmark"),
        (&["--jobs", "0"][..], "--jobs needs a positive integer"),
        (&["--sms=x"][..], "--sms needs a positive integer"),
        (&["faults", "--seed", "-1"][..], "--seed needs an unsigned integer"),
        (&["--jobs"][..], "--jobs needs a value"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(msg), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
