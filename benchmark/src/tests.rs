//! Tests of what each workload is *for*: a kernel edit that turns one
//! workload into another, or a metric that drifts away from
//! `BENCHMARK.json`, fails here rather than silently moving a baseline.

use crate::kernels::{self, Job};
use crate::measure::{Outcome, Reported};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::MODES;
use crate::report::result_line;
use crate::workloads::{self, Config};
use cheri_simt::{CheriMode, CheriOpts, KernelStats, SmConfig};
use nocl::{Gpu, Launch};
use nocl_kir::Mode;
use simt_trace::json::{self, Value};

fn run(job: &Job, cfg: SmConfig, mode: Mode) -> (KernelStats, Vec<u32>) {
    let mut gpu = Gpu::new(cfg, mode);
    let loaded = job.load(&mut gpu);
    let stats = gpu.launch(&job.kernel, job.launch, &loaded.args).expect("owned kernels launch");
    (stats, gpu.read(&loaded.out))
}

fn at_paper_geometry(job: &Job, config: Config) -> KernelStats {
    let (cfg, mode) = config.instantiate();
    let (stats, got) = run(job, cfg, mode);
    assert_eq!(got, job.want, "{} under {}", job.kernel.name, config.name());
    stats
}

/// Small versions of the four owned kernels for an SM of `threads` threads.
fn small_jobs(seed: u64, launch: Launch) -> [Job; 4] {
    [
        kernels::alu_converged(seed, 40, launch),
        kernels::lanes_divergent(seed, 700, launch),
        kernels::mem_bound(seed, 1_500, launch),
        kernels::tiny(seed, launch),
    ]
}

#[test]
fn owned_kernels_match_their_references_in_all_five_modes() {
    // Four 32-thread blocks on a 64-thread SM: the block loop runs twice.
    for job in small_jobs(7, Launch::new(4, 32)) {
        for mode in MODES {
            let cheri = if mode.needs_cheri() {
                CheriMode::On(CheriOpts::optimised())
            } else {
                CheriMode::Off
            };
            let (_, got) = run(&job, SmConfig::small(cheri), mode);
            assert_eq!(got, job.want, "{} under {mode:?}", job.kernel.name);
        }
    }
}

#[test]
fn seed_fixes_inputs_and_simulated_time() {
    let launch = Launch::new(4, 32);
    for (a, (b, c)) in
        small_jobs(1, launch).iter().zip(small_jobs(1, launch).iter().zip(&small_jobs(2, launch)))
    {
        assert_eq!((&a.scalars, &a.inputs, &a.want), (&b.scalars, &b.inputs, &b.want));
        assert_ne!((&a.scalars, &a.inputs), (&c.scalars, &c.inputs), "{}", a.kernel.name);
        let cfg = SmConfig::small(CheriMode::Off);
        let (sa, sb) = (run(a, cfg, Mode::Baseline).0, run(b, cfg, Mode::Baseline).0);
        assert_eq!(sa, sb, "{}: same seed, same statistics", a.kernel.name);
    }
}

#[test]
fn traced_driver_reproduces_the_launch() {
    // What the traced reps rely on: after `Gpu::launch` has set the device
    // up, `Device::reset` + `Device::run` repeat the launch exactly.
    let job = kernels::mem_bound(3, 4_096, kernels::paper_launch(1));
    for config in Config::BOTH {
        let (cfg, mode) = config.instantiate();
        let mut gpu = Gpu::new(cfg, mode);
        let loaded = job.load(&mut gpu);
        let launched = gpu.launch(&job.kernel, job.launch, &loaded.args).expect("launch");
        gpu.device_mut().reset();
        let direct = gpu.device_mut().run(job.launch.max_cycles).expect("run");
        assert_eq!(launched, direct);
        assert_eq!(gpu.read(&loaded.out), job.want);
    }
}

#[test]
fn each_workload_keeps_the_property_it_was_chosen_for() {
    let one = kernels::paper_launch(1);
    let share = |s: &KernelStats| s.scalarised_issues as f64 / s.instrs as f64;
    for config in Config::BOTH {
        let alu = at_paper_geometry(&kernels::alu_converged(5, 60, one), config);
        assert!(share(&alu) >= 0.85, "alu_converged scalarised {}", share(&alu));
        assert_eq!(alu.data_rf.spills + alu.meta_rf.spills, 0);

        let div = at_paper_geometry(&kernels::lanes_divergent(5, 1 << 14, one), config);
        assert!(share(&div) <= 0.35, "lanes_divergent scalarised {}", share(&div));
        assert!(div.data_rf.spills > 0, "lanes_divergent must overflow the VRF");
        assert!(div.thread_instrs < div.instrs * 32, "lanes_divergent must diverge");

        let mem = at_paper_geometry(&kernels::mem_bound(5, 1 << 15, one), config);
        assert!(
            mem.cycles >= 2 * mem.instrs,
            "mem_bound: {} cycles, {} instrs",
            mem.cycles,
            mem.instrs
        );
        assert!(mem.barriers > 0 && mem.scratch.accesses > 0);
        let txns = |s: &KernelStats| s.dram.read_transactions + s.dram.write_transactions;
        assert!(txns(&alu) * 100 < txns(&mem), "alu_converged must stay off DRAM");

        let tiny = at_paper_geometry(&kernels::tiny(5, one), config);
        assert!(tiny.instrs < 2_000, "launch_storm's kernel retired {} issues", tiny.instrs);
    }
}

#[test]
fn multi_sm_cells_use_every_sm() {
    let many = kernels::paper_launch(workloads::MULTI_SMS);
    let job = kernels::mem_bound(5, 1 << 13, many);
    let (cfg, mode) = Config::Purecap.instantiate();
    let mut gpu = Gpu::with_sms(cfg, mode, workloads::MULTI_SMS);
    let loaded = job.load(&mut gpu);
    let stats = gpu.launch(&job.kernel, job.launch, &loaded.args).expect("launch");
    assert_eq!(gpu.read(&loaded.out), job.want);
    assert!(stats.dram.cross_sm_switches > 0);
    for k in 0..workloads::MULTI_SMS as usize {
        assert!(gpu.device().sm_stats(k).expect("ran").instrs > 0, "SM {k} got no blocks");
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("no string {key} in {v:?}"))
}

#[test]
fn benchmark_json_lists_exactly_the_tables() {
    let doc = benchmark_json();
    let list = |key: &str| doc.get(key).and_then(Value::as_arr).expect(key).to_vec();
    let workloads: Vec<String> =
        list("workloads").iter().map(|w| field(w, "name").to_string()).collect();
    assert_eq!(workloads, workloads::NAMES);
    assert!(list("workloads").iter().all(|w| field(w, "why").len() <= 200));

    let listed: Vec<(String, String, String, Option<f64>)> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|key| list(key))
        .map(|m| {
            let bound = m.get("bound").and_then(Value::as_num);
            (field(&m, "name").into(), field(&m, "unit").into(), field(&m, "better").into(), bound)
        })
        .collect();
    let tables: Vec<(String, String, String, Option<f64>)> = END_TO_END
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.name().into(), Some(m.bound)))
        .chain(
            PER_LAYER.iter().map(|m| (m.name.into(), m.unit.into(), m.better.name().into(), None)),
        )
        .collect();
    assert_eq!(listed, tables);
}

#[test]
fn result_line_parses_and_carries_every_metric() {
    for (key, names) in [
        ("end_to_end", END_TO_END.iter().map(|m| (m.name, m.unit, m.better)).collect::<Vec<_>>()),
        ("per_layer", PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)).collect()),
    ] {
        let metrics = names
            .iter()
            .enumerate()
            .map(|(i, &(name, unit, better))| Reported {
                name,
                unit,
                better,
                value: 0.1 + i as f64,
                samples: None,
            })
            .collect();
        let o = Outcome {
            metrics,
            attempted: 12,
            failed: 0,
            errors: vec![],
            timed_reps: 5,
            spans: None,
        };
        let v = json::parse(&result_line(&o)).expect("the result line is JSON");
        let top: Vec<&String> = v.as_obj().expect("an object").keys().collect();
        assert_eq!(top, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let doc = benchmark_json();
        for m in doc.get(key).and_then(Value::as_arr).expect(key) {
            let got =
                v.get("metrics").and_then(|ms| ms.get(field(m, "name"))).expect("metric present");
            assert_eq!(field(got, "unit"), field(m, "unit"));
            assert!(got.get("value").and_then(Value::as_num).is_some());
        }
        assert_eq!(v.get("metrics").and_then(Value::as_obj).map(|ms| ms.len()), Some(names.len()));
    }
}
