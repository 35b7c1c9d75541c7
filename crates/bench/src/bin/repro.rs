//! `repro` — regenerate the paper's tables and figures.
//!
//! The synopsis is [`USAGE`], which `repro --help` (or `-h`) prints to
//! stdout; an unknown option or experiment prints it to stderr and exits 2.
//!
//! Without `--quick`, experiments run at the paper's geometry (64 warps ×
//! 32 lanes) and dataset scale; expect minutes per configuration in a
//! release build.
//!
//! `--jobs N` (or the `BENCH_JOBS` environment variable) sets the worker
//! count for the parallel suite runner; the default is the machine's
//! available parallelism. Output is bit-identical for every worker count —
//! `--jobs 1` runs the same engine serially.
//!
//! `--sms N` simulates a device of N streaming multiprocessors sharing one
//! DRAM channel and tag controller (default 1, which is bit-identical to
//! the classic single-SM model). In `trace` mode each SM becomes its own
//! Perfetto process.
//!
//! `trace` runs benchmarks with the structured event sink attached and
//! exports the stream (`--trace-out FILE`, or stdout). Unlike the
//! experiments it defaults to the *quick* geometry — a paper-scale trace is
//! hundreds of millions of events — with `--paper` as the opt-in. The
//! default `--format chrome` opens directly in [Perfetto]; `--mode`
//! defaults to `purecap`. See `docs/TRACING.md` for the schema.
//!
//! `perf` times the **simulator itself**: wall-clock seconds per
//! (benchmark × configuration) cell across the five tracked
//! configurations, written as `BENCH_sim.json` (`--perf-out FILE`,
//! default `BENCH_sim.json`). Like `trace` it defaults to the quick
//! geometry with `--paper` as the opt-in. `validate-perf` checks a
//! `BENCH_sim.json` against the schema (the CI smoke step).
//!
//! `faults` runs the CHERI fault-injection coverage experiment: every
//! requested benchmark under every injection scheme × trap policy cell
//! (quick geometry), plus a directed probe per trap cause, ending in a
//! coverage table that must show all ten capability exceptions and every
//! memory-fault variant firing. `--quick` swaps the full suite for a
//! four-benchmark subset (the CI smoke step); `--seed S` re-seeds the
//! injection campaign. Exits non-zero if any cause never fired.
//!
//! [Perfetto]: https://ui.perfetto.dev

use repro::{
    ablate, default_jobs, disasm, export_runs, faults_experiment, faults_summary, fig10, fig11,
    fig12, fig13, fig14, fig15, fig6, fig7, multism, perf_json, perf_suite, perf_summary,
    quick_fault_benches, resolve_benches, scalarise, table1, table2, table3, tagsweep,
    trace_config, trace_suite_on, trace_summary, validate_perf_json, vrfsweep, Geometry, Harness,
    TraceFormat,
};

/// The command-line synopsis.
const USAGE: &str = "\
usage: repro [--quick] [--jobs N] [--sms N] [table1|table2|table3|fig6..fig15|ablate|multism|vrfsweep|tagsweep|scalarise|all]
       repro disasm <benchmark> <mode>
       repro trace <benchmark|all> [--mode M] [--format chrome|jsonl] [--trace-out FILE] [--paper] [--sms N]
       repro validate-trace <file>
       repro perf [benchmark|all] [--paper] [--jobs N] [--sms N] [--perf-out FILE]
       repro validate-perf <file>
       repro faults [benchmark|all] [--quick] [--jobs N] [--seed S]
";

/// Report a command-line error, then the synopsis, on stderr and exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprint!("{USAGE}");
    std::process::exit(2);
}

#[allow(clippy::too_many_lines)] // flag parsing + subcommand dispatch
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut paper = false;
    let mut jobs = default_jobs();
    let mut sms = 1u32;
    let mut mode_name = String::from("purecap");
    let mut format_name = String::from("chrome");
    let mut trace_out: Option<String> = None;
    let mut perf_out = String::from("BENCH_sim.json");
    let mut seed = 0xCAFE_F00Du64;
    let mut what: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        // `--flag value` and `--flag=value` are both accepted.
        let mut take = |flag: &str| -> Option<String> {
            if a == flag {
                let v = it.next().cloned();
                if v.is_none() {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                }
                v
            } else {
                a.strip_prefix(&format!("{flag}=")).map(str::to_string)
            }
        };
        if let Some(v) = take("--jobs") {
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive integer");
                    std::process::exit(2);
                }
            }
        } else if let Some(v) = take("--sms") {
            match v.parse::<u32>() {
                Ok(n) if n >= 1 => sms = n,
                _ => {
                    eprintln!("--sms needs a positive integer");
                    std::process::exit(2);
                }
            }
        } else if let Some(v) = take("--mode") {
            mode_name = v;
        } else if let Some(v) = take("--format") {
            format_name = v;
        } else if let Some(v) = take("--trace-out") {
            trace_out = Some(v);
        } else if let Some(v) = take("--perf-out") {
            perf_out = v;
        } else if let Some(v) = take("--seed") {
            match v.parse::<u64>() {
                Ok(n) => seed = n,
                Err(_) => {
                    eprintln!("--seed needs an unsigned integer");
                    std::process::exit(2);
                }
            }
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

    // Disassembly is a standalone subcommand: repro disasm <bench> <mode>.
    if what.first() == Some(&"disasm") {
        match what.as_slice() {
            [_, bench, mode] => match disasm(bench, mode) {
                Ok(listing) => println!("{listing}"),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            },
            _ => {
                eprintln!(
                    "usage: repro disasm <benchmark> <baseline|purecap|rust|rustfull|gpushield>"
                );
                std::process::exit(2);
            }
        }
        return;
    }

    // Structured tracing: repro trace <benchmark|all> [--mode M] [--format F]
    // [--trace-out FILE] [--paper]. Defaults to the quick geometry (a
    // paper-scale trace is enormous); `--paper` opts in.
    if what.first() == Some(&"trace") {
        let bench = match what.as_slice() {
            [_, bench] => *bench,
            _ => {
                eprintln!("usage: repro trace <benchmark|all> [--mode M] [--format chrome|jsonl] [--trace-out FILE] [--paper]");
                std::process::exit(2);
            }
        };
        let run = || -> Result<(), String> {
            let format: TraceFormat = format_name.parse()?;
            let config = trace_config(&mode_name)?;
            let benches = resolve_benches(bench)?;
            let geometry = if paper { Geometry::Full } else { Geometry::Small };
            eprintln!(
                "[repro] tracing {} cell(s) [{mode_name}] on {jobs} worker(s), {sms} SM(s) ...",
                benches.len()
            );
            let runs = trace_suite_on(&benches, config, geometry, jobs, sms)?;
            eprint!("{}", trace_summary(&runs));
            let out = export_runs(&runs, format);
            match &trace_out {
                Some(path) => {
                    std::fs::write(path, &out).map_err(|e| format!("writing {path}: {e}"))?;
                    eprintln!("[repro] wrote {} bytes to {path}", out.len());
                }
                None => print!("{out}"),
            }
            Ok(())
        };
        if let Err(e) = run() {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }

    // Schema validation: repro validate-trace <file> — the CI smoke check.
    if what.first() == Some(&"validate-trace") {
        match what.as_slice() {
            [_, file] => {
                let input = std::fs::read_to_string(file).unwrap_or_else(|e| {
                    eprintln!("reading {file}: {e}");
                    std::process::exit(2);
                });
                match cheri_simt::trace::validate::validate_auto(&input) {
                    Ok((format, s)) => println!(
                        "{file}: valid {format} trace — {} events, {} metadata, {} counter samples, {} process(es)",
                        s.events, s.metadata, s.counters, s.processes
                    ),
                    Err(e) => {
                        eprintln!("{file}: INVALID — {e}");
                        std::process::exit(1);
                    }
                }
            }
            _ => {
                eprintln!("usage: repro validate-trace <file>");
                std::process::exit(2);
            }
        }
        return;
    }

    // Simulator wall-clock tracking: repro perf [benchmark|all] [--paper]
    // [--perf-out FILE]. Emits BENCH_sim.json.
    if what.first() == Some(&"perf") {
        let bench = match what.as_slice() {
            [_] => "all",
            [_, bench] => *bench,
            _ => {
                eprintln!(
                    "usage: repro perf [benchmark|all] [--paper] [--jobs N] [--sms N] [--perf-out FILE]"
                );
                std::process::exit(2);
            }
        };
        let run = || -> Result<(), String> {
            let benches = resolve_benches(bench)?;
            let geometry = if paper { Geometry::Full } else { Geometry::Small };
            eprintln!(
                "[repro] timing {} benchmark(s) x {} config(s) on {jobs} worker(s), {sms} SM(s) ...",
                benches.len(),
                repro::PERF_CONFIGS.len()
            );
            let report = perf_suite(&benches, geometry, jobs, sms)?;
            eprint!("{}", perf_summary(&report));
            let out = perf_json(&report);
            std::fs::write(&perf_out, &out).map_err(|e| format!("writing {perf_out}: {e}"))?;
            eprintln!("[repro] wrote {} bytes to {perf_out}", out.len());
            Ok(())
        };
        if let Err(e) = run() {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }

    // Schema validation: repro validate-perf <file> — the CI smoke check.
    if what.first() == Some(&"validate-perf") {
        match what.as_slice() {
            [_, file] => {
                let input = std::fs::read_to_string(file).unwrap_or_else(|e| {
                    eprintln!("reading {file}: {e}");
                    std::process::exit(2);
                });
                match validate_perf_json(&input) {
                    Ok((cells, total)) => {
                        println!(
                            "{file}: valid BENCH_sim.json — {cells} cell(s), {total:.3} s total"
                        );
                    }
                    Err(e) => {
                        eprintln!("{file}: INVALID — {e}");
                        std::process::exit(1);
                    }
                }
            }
            _ => {
                eprintln!("usage: repro validate-perf <file>");
                std::process::exit(2);
            }
        }
        return;
    }

    // Fault-injection coverage: repro faults [benchmark|all] [--quick]
    // [--jobs N] [--seed S]. Always runs at the quick geometry — the matrix
    // is about trap coverage, not timing.
    if what.first() == Some(&"faults") {
        let bench = match what.as_slice() {
            [_] => None,
            [_, bench] => Some(*bench),
            _ => {
                eprintln!("usage: repro faults [benchmark|all] [--quick] [--jobs N] [--seed S]");
                std::process::exit(2);
            }
        };
        let benches = match bench {
            Some(name) => resolve_benches(name).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            }),
            None if quick => quick_fault_benches(),
            None => resolve_benches("all").expect("'all' always resolves"),
        };
        eprintln!(
            "[repro] injecting faults into {} benchmark(s) x 4 scheme(s) x 2 policies on {jobs} worker(s) ...",
            benches.len()
        );
        let report = faults_experiment(&benches, jobs, seed);
        print!("{}", faults_summary(&report));
        if !report.covered() {
            eprintln!("[repro] FAIL: trap causes never fired: {}", report.missing().join(", "));
            std::process::exit(1);
        }
        return;
    }

    let mut h = if quick { Harness::quick() } else { Harness::paper() }
        .verbose()
        .with_jobs(jobs)
        .with_sms(sms);

    for w in what {
        let out = match w {
            "table1" => table1(),
            "table2" => table2(&mut h),
            "table3" => table3(),
            "fig6" => fig6(&mut h),
            "fig7" => fig7(),
            "fig10" => fig10(&mut h),
            "fig11" => fig11(&mut h),
            "fig12" => fig12(&mut h),
            "fig13" => fig13(&mut h),
            "fig14" => fig14(&mut h),
            "fig15" => fig15(&mut h),
            "ablate" => ablate(&mut h),
            "multism" => multism(&mut h),
            "vrfsweep" => vrfsweep(&mut h),
            "tagsweep" => tagsweep(&mut h),
            "scalarise" => scalarise(&mut h),
            "all" => {
                let mut s = String::new();
                for f in [
                    table1(),
                    table2(&mut h),
                    table3(),
                    fig6(&mut h),
                    fig7(),
                    fig10(&mut h),
                    fig11(&mut h),
                    fig12(&mut h),
                    fig13(&mut h),
                    fig14(&mut h),
                    fig15(&mut h),
                    ablate(&mut h),
                    multism(&mut h),
                ] {
                    s.push_str(&f);
                    s.push('\n');
                }
                s
            }
            other => usage_error(&format!("unknown experiment: {other}")),
        };
        println!("{out}");
    }
}
