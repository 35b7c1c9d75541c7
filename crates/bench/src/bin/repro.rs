//! `repro` — regenerate the paper's tables and figures.
//!
//! The synopsis is [`USAGE`], which `repro --help` (or `-h`) prints to
//! stdout. Every command-line error — an unknown option, experiment, mode
//! or benchmark, a bad flag value, a subcommand given the wrong number of
//! arguments — prints a message and the synopsis to stderr and exits 2.
//!
//! Without `--quick`, experiments run at the paper's geometry (64 warps ×
//! 32 lanes) and dataset scale; expect minutes per configuration in a
//! release build.
//!
//! `--jobs N` sets the worker count for the parallel suite runner; the
//! default is the machine's available parallelism. Output is bit-identical
//! for every worker count — `--jobs 1` runs the same engine serially.
//!
//! `--sms N` simulates a device of N streaming multiprocessors sharing one
//! DRAM channel and tag controller (default 1, which is bit-identical to
//! the classic single-SM model). Every experiment honours it except
//! `multism`, which sweeps devices of 1, 2 and 4 SMs itself. In `trace`
//! mode each SM becomes its own Perfetto process.
//!
//! `trace` runs benchmarks with the structured event sink attached and
//! exports the stream (`--trace-out FILE`, or stdout). Unlike the
//! experiments it defaults to the *quick* geometry — a paper-scale trace is
//! hundreds of millions of events — with `--paper` as the opt-in. The
//! default `--format chrome` opens directly in [Perfetto]; `--mode`
//! defaults to `purecap`. See `docs/TRACING.md` for the schema.
//!
//! `faults` runs the CHERI fault-injection coverage experiment: every
//! requested benchmark under every injection scheme × trap policy cell
//! (quick geometry), plus a directed probe per trap cause, ending in a
//! coverage table that must show all ten capability exceptions and every
//! memory-fault variant firing. `--quick` swaps the full suite for a
//! four-benchmark subset (the CI smoke step); `--seed S` re-seeds the
//! injection campaign. Exits non-zero if any cause never fired.
//!
//! The simulator's own host time is measured by `simbench` (the
//! `benchmark/` package), not by `repro`.
//!
//! [Perfetto]: https://ui.perfetto.dev

use repro::{
    ablate, default_jobs, disasm, export_runs, faults_experiment, faults_summary, fig10, fig11,
    fig12, fig13, fig14, fig15, fig6, fig7, multism, quick_fault_benches, resolve_benches,
    scalarise, table1, table2, table3, tagsweep, trace_config, trace_suite_on, trace_summary,
    vrfsweep, Geometry, Harness, TraceFormat,
};

/// The command-line synopsis.
const USAGE: &str = "\
usage: repro [--quick] [--jobs N] [--sms N] [table1|table2|table3|fig6..fig15|ablate|multism|vrfsweep|tagsweep|scalarise|all]
       repro disasm <benchmark> <mode>
       repro trace <benchmark|all> [--mode M] [--format chrome|jsonl] [--trace-out FILE] [--paper] [--jobs N] [--sms N]
       repro validate-trace <file>
       repro faults [benchmark|all] [--quick] [--jobs N] [--seed S]
(multism sweeps 1, 2 and 4 SMs whatever --sms says)
";

/// Report a command-line error, then the synopsis, on stderr and exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprint!("{USAGE}");
    std::process::exit(2);
}

/// Report a failure that is not the command line's fault on stderr and
/// exit with `code`.
fn fail(code: i32, msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(code);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut paper = false;
    let mut jobs = default_jobs();
    let mut sms = 1u32;
    let mut mode_name = String::from("purecap");
    let mut format_name = String::from("chrome");
    let mut trace_out: Option<String> = None;
    let mut seed = 0xCAFE_F00Du64;
    let mut what: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        // `--flag value` and `--flag=value` are both accepted.
        let mut take = |flag: &str| -> Option<String> {
            if a == flag {
                let v = it.next().cloned();
                if v.is_none() {
                    usage_error(&format!("{flag} needs a value"));
                }
                v
            } else {
                a.strip_prefix(&format!("{flag}=")).map(str::to_string)
            }
        };
        if let Some(v) = take("--jobs") {
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => jobs = n,
                _ => usage_error("--jobs needs a positive integer"),
            }
        } else if let Some(v) = take("--sms") {
            match v.parse::<u32>() {
                Ok(n) if n >= 1 => sms = n,
                _ => usage_error("--sms needs a positive integer"),
            }
        } else if let Some(v) = take("--mode") {
            mode_name = v;
        } else if let Some(v) = take("--format") {
            format_name = v;
        } else if let Some(v) = take("--trace-out") {
            trace_out = Some(v);
        } else if let Some(v) = take("--seed") {
            seed = v.parse().unwrap_or_else(|_| usage_error("--seed needs an unsigned integer"));
        } else {
            match a.as_str() {
                "--quick" => quick = true,
                "--paper" => paper = true,
                "--help" | "-h" => {
                    print!("{USAGE}");
                    return;
                }
                other if other.starts_with("--") => {
                    usage_error(&format!("unknown option: {other}"))
                }
                other => what.push(other),
            }
        }
    }
    let what = if what.is_empty() { vec!["all"] } else { what };

    match what[0] {
        // Disassembly: repro disasm <bench> <mode>.
        "disasm" => {
            let [_, bench, mode] = what[..] else {
                usage_error("disasm takes a benchmark and a mode")
            };
            println!("{}", disasm(bench, mode).unwrap_or_else(|e| usage_error(&e)));
        }

        // Structured tracing. Defaults to the quick geometry (a paper-scale
        // trace is enormous); `--paper` opts in.
        "trace" => {
            let [_, bench] = what[..] else { usage_error("trace takes one benchmark (or 'all')") };
            let format: TraceFormat =
                format_name.parse().unwrap_or_else(|e: String| usage_error(&e));
            let config = trace_config(&mode_name).unwrap_or_else(|e| usage_error(&e));
            let benches = resolve_benches(bench).unwrap_or_else(|e| usage_error(&e));
            let geometry = if paper { Geometry::Full } else { Geometry::Small };
            eprintln!(
                "[repro] tracing {} cell(s) [{mode_name}] on {jobs} worker(s), {sms} SM(s) ...",
                benches.len()
            );
            let runs = trace_suite_on(&benches, config, geometry, jobs, sms)
                .unwrap_or_else(|e| fail(2, &e));
            eprint!("{}", trace_summary(&runs));
            let out = export_runs(&runs, format);
            match &trace_out {
                Some(path) => {
                    std::fs::write(path, &out)
                        .unwrap_or_else(|e| fail(2, &format!("writing {path}: {e}")));
                    eprintln!("[repro] wrote {} bytes to {path}", out.len());
                }
                None => print!("{out}"),
            }
        }

        // Schema validation: repro validate-trace <file> — the CI smoke check.
        "validate-trace" => {
            let [_, file] = what[..] else { usage_error("validate-trace takes one file") };
            let input = std::fs::read_to_string(file)
                .unwrap_or_else(|e| fail(2, &format!("reading {file}: {e}")));
            match cheri_simt::trace::validate::validate_auto(&input) {
                Ok((format, s)) => println!(
                    "{file}: valid {format} trace — {} events, {} metadata, {} counter samples, {} process(es)",
                    s.events, s.metadata, s.counters, s.processes
                ),
                Err(e) => fail(1, &format!("{file}: INVALID — {e}")),
            }
        }

        // Fault-injection coverage. Always runs at the quick geometry — the
        // matrix is about trap coverage, not timing.
        "faults" => {
            let benches = match what[..] {
                [_] if quick => quick_fault_benches(),
                [_] => resolve_benches("all").expect("'all' always resolves"),
                [_, name] => resolve_benches(name).unwrap_or_else(|e| usage_error(&e)),
                _ => usage_error("faults takes at most one benchmark (or 'all')"),
            };
            eprintln!(
                "[repro] injecting faults into {} benchmark(s) x 4 scheme(s) x 2 policies on {jobs} worker(s) ...",
                benches.len()
            );
            let report = faults_experiment(&benches, jobs, seed);
            print!("{}", faults_summary(&report));
            if !report.covered() {
                fail(
                    1,
                    &format!(
                        "[repro] FAIL: trap causes never fired: {}",
                        report.missing().join(", ")
                    ),
                );
            }
        }

        _ => {
            // Every name resolves before anything runs: a typo late in the
            // list must not cost a paper-scale simulation, nor leave output.
            let runs: Vec<Experiment> = what
                .iter()
                .map(|w| {
                    experiment(w)
                        .unwrap_or_else(|| usage_error(&format!("unknown experiment: {w}")))
                })
                .collect();
            let mut h = if quick { Harness::quick() } else { Harness::paper() }
                .verbose()
                .with_jobs(jobs)
                .with_sms(sms);
            for run in runs {
                println!("{}", run(&mut h));
            }
        }
    }
}

/// One experiment: its output for a harness.
type Experiment = fn(&mut Harness) -> String;

/// Every experiment by name; `all` runs the first [`ALL`], in order.
const EXPERIMENTS: [(&str, Experiment); 16] = [
    ("table1", |_| table1()),
    ("table2", table2),
    ("table3", |_| table3()),
    ("fig6", fig6),
    ("fig7", |_| fig7()),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("ablate", ablate),
    ("multism", multism),
    ("vrfsweep", vrfsweep),
    ("tagsweep", tagsweep),
    ("scalarise", scalarise),
];

/// How many of [`EXPERIMENTS`] `all` runs.
const ALL: usize = 13;

/// The experiment called `name`, if there is one.
fn experiment(name: &str) -> Option<Experiment> {
    if name == "all" {
        return Some(|h| EXPERIMENTS[..ALL].iter().map(|(_, run)| run(h) + "\n").collect());
    }
    EXPERIMENTS.iter().find(|(n, _)| *n == name).map(|&(_, run)| run)
}
