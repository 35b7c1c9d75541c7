//! The seven workloads. Each is a fixed list of *cells* — one simulated
//! job under one configuration — that a *rep* runs once each, in order,
//! `baseline` and `purecap` interleaved so both see the same machine
//! weather. Why each exists is recorded in `BENCHMARK.json` and the README.

use crate::kernels::{self, Job};
use crate::spans::Spans;
use cheri_simt::{CheriMode, CheriOpts, KernelStats, SmConfig};
use nocl::Gpu;
use nocl_kir::Mode;
use nocl_suite::{catalog, NoclBench, Scale};
use simt_trace::export::{to_chrome, to_jsonl, TraceCell};
use simt_trace::validate::{validate_chrome, validate_jsonl};
use simt_trace::VecSink;
use std::rc::Rc;
use std::time::Instant;

pub const NAMES: [&str; 7] = [
    "suite_paper",
    "alu_converged",
    "lanes_divergent",
    "mem_bound",
    "multi_sm",
    "launch_storm",
    "trace_export",
];

// Sizes, tuned so that one rep takes 0.5–1.6 s on a 2-core sandbox.
/// `alu_converged` loop trips: ≈ 5.9 M issues per configuration.
pub const ALU_ITERS: u32 = 4_000;
/// `lanes_divergent` elements: ≈ 1.25 M issues per configuration.
pub const DIVERGENT_LEN: u32 = 1 << 18;
/// `mem_bound` words per buffer: 1.5 MiB each, six times what the tag
/// cache covers (128 lines × 2 KiB).
pub const MEM_LEN: u32 = 3 << 17;
pub const MULTI_SMS: u32 = 4;
/// `launch_storm`: warm launches, and cold `Gpu` + compile + launch
/// sequences, per configuration per rep.
pub const STORM_LAUNCHES: u32 = 1_000;
pub const STORM_COLD: u32 = 20;

/// The two configurations every cell runs under: `repro`'s
/// `Config::Base{eighths:3}` and `Config::CheriOpt` at `Geometry::Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    Baseline,
    Purecap,
}

impl Config {
    pub const BOTH: [Config; 2] = [Config::Baseline, Config::Purecap];

    pub fn name(self) -> &'static str {
        match self {
            Config::Baseline => "baseline",
            Config::Purecap => "purecap",
        }
    }

    pub fn instantiate(self) -> (SmConfig, Mode) {
        match self {
            Config::Baseline => (SmConfig::full(CheriMode::Off), Mode::Baseline),
            Config::Purecap => {
                (SmConfig::full(CheriMode::On(CheriOpts::optimised())), Mode::PureCap)
            }
        }
    }
}

type RunFn = Box<dyn FnMut(&mut Spans) -> Result<KernelStats, String>>;

/// One simulated job under one configuration. Running it launches, reads
/// the output back and checks it; `Err` is a failed operation.
pub struct Cell {
    pub label: String,
    pub config: Config,
    run: RunFn,
}

/// What one cell did in one rep.
pub struct CellRun {
    pub secs: f64,
    pub result: Result<KernelStats, String>,
}

pub struct Workload {
    /// Cells in `(baseline, purecap)` pairs.
    pub cells: Vec<Cell>,
}

impl Workload {
    /// One pass over the cells.
    pub fn rep(&mut self, sp: &mut Spans) -> Vec<CellRun> {
        sp.span("rep", |sp| {
            let runs = self
                .cells
                .iter_mut()
                .map(|cell| {
                    sp.set_cell(Some(&cell.label));
                    let t = Instant::now();
                    let result = sp.span("cell", |sp| (cell.run)(sp));
                    CellRun { secs: t.elapsed().as_secs_f64(), result }
                })
                .collect();
            sp.set_cell(None);
            runs
        })
    }
}

/// Build a workload: generate its inputs from `seed`, compute the host
/// references, construct the long-lived `Gpu`s and copy the inputs in.
/// `name` is one of [`NAMES`]; the command line was checked against them.
pub fn build(name: &str, seed: u64, sp: &mut Spans) -> Workload {
    let one = kernels::paper_launch(1);
    let cells = match name {
        "suite_paper" => catalog().iter().flat_map(|&b| both(|c| suite_cell(b, c))).collect(),
        "alu_converged" => owned("alu", kernels::alu_converged(seed, ALU_ITERS, one), 1, sp),
        "lanes_divergent" => {
            owned("divergent", kernels::lanes_divergent(seed, DIVERGENT_LEN, one), 1, sp)
        }
        "mem_bound" => owned("mem", kernels::mem_bound(seed, MEM_LEN, one), 1, sp),
        "multi_sm" => multi_sm_cells(seed, MULTI_SMS, sp),
        "launch_storm" => {
            let job = Rc::new(kernels::tiny(seed, one));
            both(|c| storm_cell(c, job.clone(), sp))
        }
        "trace_export" => both(|c| trace_cell(matmul(), c)),
        _ => panic!("{name} is not one of {NAMES:?}"),
    };
    Workload { cells }
}

/// `multi_sm`'s cells on a device of `sms` SMs: a third of `alu_converged`
/// and of `mem_bound` (the launch spreads `alu`'s trips over `sms` times
/// the threads). The traced run builds them again at `sms = 1` for the
/// `core.sms4_over_sms1` comparison.
pub fn multi_sm_cells(seed: u64, sms: u32, sp: &mut Spans) -> Vec<Cell> {
    let launch = kernels::paper_launch(MULTI_SMS);
    let alu = kernels::alu_converged(seed, ALU_ITERS / 3 / MULTI_SMS, launch);
    let mem = kernels::mem_bound(seed, MEM_LEN / 3, launch);
    let mut cells = owned("alu", alu, sms, sp);
    cells.extend(owned("mem", mem, sms, sp));
    cells
}

fn both(mut f: impl FnMut(Config) -> Cell) -> Vec<Cell> {
    Config::BOTH.into_iter().map(&mut f).collect()
}

pub fn matmul() -> &'static dyn NoclBench {
    *catalog().iter().find(|b| b.name() == "MatMul").expect("the suite has MatMul")
}

fn new_gpu(config: Config, sms: u32, sp: &mut Spans) -> Gpu {
    let (cfg, mode) = config.instantiate();
    sp.span("nocl.gpu_new", |_| Gpu::with_sms(cfg, mode, sms))
}

fn load(job: &Job, gpu: &mut Gpu, sp: &mut Spans) -> kernels::Loaded {
    sp.span_work("nocl.alloc_from", |_| {
        let loaded = job.load(gpu);
        let bytes = loaded.input_bytes as u64;
        (loaded, bytes)
    })
}

fn read(gpu: &Gpu, out: &nocl::Buffer<u32>, sp: &mut Spans) -> Vec<u32> {
    sp.span_work("nocl.read", |_| {
        let got = gpu.read(out);
        let bytes = got.len() as u64 * 4;
        (got, bytes)
    })
}

/// Compare device output with the host reference.
fn check(
    got: &[u32],
    want: impl ExactSizeIterator<Item = u32>,
    sp: &mut Spans,
) -> Result<(), String> {
    sp.span("bench.check", |_| {
        if got.len() != want.len() {
            return Err(format!("output has {} words, reference {}", got.len(), want.len()));
        }
        match got.iter().zip(want).enumerate().find(|(_, (g, w))| *g != w) {
            Some((i, (g, w))) => Err(format!("out[{i}] = {g:#x}, reference says {w:#x}")),
            None => Ok(()),
        }
    })
}

/// A suite benchmark at `Scale::Paper` on a fresh `Gpu`; the suite's own
/// self-check is the reference.
fn suite_cell(bench: &'static dyn NoclBench, config: Config) -> Cell {
    Cell {
        label: format!("{}/{}", bench.name(), config.name()),
        config,
        run: Box::new(move |sp| {
            let mut gpu = new_gpu(config, 1, sp);
            sp.span("suite.run", |_| bench.run(&mut gpu, Scale::Paper)).map_err(|e| e.to_string())
        }),
    }
}

/// An owned kernel on a long-lived `Gpu` under both configurations.
fn owned(tag: &str, job: Job, sms: u32, sp: &mut Spans) -> Vec<Cell> {
    let job = Rc::new(job);
    both(|config| {
        let job = job.clone();
        let mut gpu = new_gpu(config, sms, sp);
        let loaded = load(&job, &mut gpu, sp);
        let mut launched = false;
        Cell {
            label: format!("{tag}/{}", config.name()),
            config,
            run: Box::new(move |sp| {
                // Once a launch has set the device up, a traced rep drives
                // `Device` directly, which is what separates the run loop
                // from `reset` (and from launch overhead); the kernel is
                // idempotent, so the statistics are the launch's own.
                let stats = if sp.on() && launched {
                    let dev = gpu.device_mut();
                    sp.span("core.reset", |_| dev.reset());
                    sp.span("core.run", |_| dev.run(job.launch.max_cycles))
                        .map_err(|e| e.to_string())?
                } else {
                    launched = true;
                    sp.span("nocl.launch", |_| gpu.launch(&job.kernel, job.launch, &loaded.args))
                        .map_err(|e| e.to_string())?
                };
                let got = read(&gpu, &loaded.out, sp);
                check(&got, job.want.iter().copied(), sp)?;
                Ok(stats)
            }),
        }
    })
}

/// `launch_storm`: nothing but what a launch pays once. Warm launches
/// reuse one `Gpu` and its compile cache; each cold sequence pays for a new
/// `Gpu`, the host copy, the compile and the first launch.
fn storm_cell(config: Config, job: Rc<Job>, sp: &mut Spans) -> Cell {
    let mut gpu = new_gpu(config, 1, sp);
    let mut warm = load(&job, &mut gpu, sp);
    Cell {
        label: format!("storm/{}", config.name()),
        config,
        run: Box::new(move |sp| {
            let mut total = KernelStats::default();
            for k in 0..STORM_LAUNCHES {
                total.accumulate(&storm_launch(&job, &mut gpu, &mut warm, k, sp)?);
            }
            for k in 0..STORM_COLD {
                let mut fresh = new_gpu(config, 1, sp);
                let mut loaded = load(&job, &mut fresh, sp);
                total.accumulate(&storm_launch(&job, &mut fresh, &mut loaded, k, sp)?);
            }
            Ok(total)
        }),
    }
}

/// Launch the `tiny` kernel with scalar argument `k` and check its output.
fn storm_launch(
    job: &Job,
    gpu: &mut Gpu,
    loaded: &mut kernels::Loaded,
    k: u32,
    sp: &mut Spans,
) -> Result<KernelStats, String> {
    loaded.args[0] = k.into();
    let stats = sp
        .span("nocl.launch", |_| gpu.launch(&job.kernel, job.launch, &loaded.args))
        .map_err(|e| e.to_string())?;
    let got = read(gpu, &loaded.out, sp);
    check(&got, job.inputs[0].iter().map(|&x| kernels::tiny_value(x, k)), sp)?;
    Ok(stats)
}

/// Events in the slice of each trace that goes through the `simt-trace`
/// validators. They parse at ≈ 80 MB/s, so validating all of MatMul's
/// ≈ 220 MB of exports would take longer than everything else in the rep;
/// the full exports are still produced, timed and line-counted.
const VALIDATED_EVENTS: usize = 1 << 15;

/// The suite's MatMul with a `VecSink` installed, then both exporters into
/// in-memory strings (the JSONL one line-counted against the events), then
/// the validators over a re-export of the first [`VALIDATED_EVENTS`] events.
fn trace_cell(bench: &'static dyn NoclBench, config: Config) -> Cell {
    let label = format!("{}/{}", bench.name(), config.name());
    Cell {
        label: label.clone(),
        config,
        run: Box::new(move |sp| {
            let mut gpu = new_gpu(config, 1, sp);
            gpu.sm_mut().set_sink(Box::new(VecSink::new()));
            let (stats, sink) = sp.span_work("trace.sink_run", |_| {
                let stats = bench.run(&mut gpu, Scale::Paper);
                let sink = gpu.sm_mut().take_sink().expect("the sink outlives the run");
                let events =
                    sink.as_any().downcast_ref::<VecSink>().map_or(0, |s| s.events().len());
                ((stats, sink), events as u64)
            });
            let stats = stats.map_err(|e| e.to_string())?;
            let events = sink.as_any().downcast_ref::<VecSink>().expect("a VecSink").events();
            // One export at a time: each is ≈ 100 MB.
            for (name, export) in [
                ("trace.to_jsonl", to_jsonl as fn(&[TraceCell]) -> String),
                ("trace.to_chrome", to_chrome),
            ] {
                let text = sp.span_work(name, |_| {
                    let text = export(&[TraceCell { label: &label, events }]);
                    let bytes = text.len() as u64;
                    (text, bytes)
                });
                if name == "trace.to_jsonl" {
                    let lines = sp.span("bench.check", |_| text.lines().count());
                    if lines != events.len() {
                        return Err(format!("{lines} JSONL lines for {} events", events.len()));
                    }
                }
            }
            let head = &events[..events.len().min(VALIDATED_EVENTS)];
            sp.span_work("trace.validate", |_| {
                let cells = [TraceCell { label: &label, events: head }];
                let (jsonl, chrome) = (to_jsonl(&cells), to_chrome(&cells));
                let r = validate_jsonl(&jsonl).and_then(|summary| {
                    validate_chrome(&chrome)?;
                    if summary.events == head.len() as u64 {
                        Ok(())
                    } else {
                        Err(format!("{} events validated of {}", summary.events, head.len()))
                    }
                });
                (r, (jsonl.len() + chrome.len()) as u64)
            })?;
            Ok(stats)
        }),
    }
}
