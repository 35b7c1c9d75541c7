//! The reproduction harness: regenerates every table and figure of the
//! paper's evaluation section (see DESIGN.md §4 for the index).
//!
//! The [`Harness`] lazily runs the benchmark suite on each machine an
//! experiment needs and caches the results, keyed by the machine itself —
//! SM configuration, compiler mode and SM count — so `repro all` simulates
//! each machine exactly once, whichever experiment or [`Config`] label asks
//! for it first. Every suite an experiment runs goes through that one
//! cache, at the harness's geometry and worker count.

mod experiments;
mod faults;
mod runner;
mod trace;

pub use experiments::*;
pub use faults::{
    faults_experiment, faults_summary, quick_fault_benches, CellOutcome, FaultsReport, MatrixCell,
    ProbeResult,
};
pub use runner::{default_jobs, run_indexed, run_suite_parallel_on, CellError};
pub use trace::{
    export_runs, resolve_benches, trace_config, trace_suite_on, trace_summary, TraceFormat,
    TracedRun,
};

use cheri_simt::{CheriMode, CheriOpts, KernelStats, SmConfig};
use nocl_kir::Mode;
use nocl_suite::Scale;

/// SM geometry for a harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geometry {
    /// The paper's 64 warps × 32 lanes (2,048 threads).
    Full,
    /// 8 warps × 8 lanes, for quick runs and tests.
    Small,
}

impl Geometry {
    /// The dataset scale that goes with this geometry.
    pub(crate) fn scale(self) -> Scale {
        match self {
            Geometry::Full => Scale::Paper,
            Geometry::Small => Scale::Test,
        }
    }
}

/// One experimental configuration (SM + compiler mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Baseline with a compressed register file; VRF size `num/8`. At
    /// `eighths: 8` every register fits the VRF: the uncompressed reference
    /// point of Table 2.
    Base {
        /// VRF capacity in eighths of the architectural register count.
        eighths: u32,
    },
    /// The naive CHERI configuration.
    CheriNaive,
    /// The optimised CHERI configuration.
    CheriOpt,
    /// CHERI (Optimised) with the null-value optimisation disabled
    /// (the "without NVO" bars of Figure 10).
    CheriOptNoNvo,
    /// Rust port, bounds checks only.
    RustChecked,
    /// Rust port, like-for-like total.
    RustFull,
    /// GPUShield comparator: region-based bounds table (Section 5.2).
    GpuShield,
}

impl Config {
    /// Build the SM configuration and compiler mode for this experiment.
    pub fn instantiate(self, geom: Geometry) -> (SmConfig, Mode) {
        let base = |cheri| match geom {
            Geometry::Full => SmConfig::full(cheri),
            Geometry::Small => SmConfig::small(cheri),
        };
        match self {
            Config::Base { eighths } => {
                (base(CheriMode::Off).vrf_slots_frac(eighths, 8), Mode::Baseline)
            }
            Config::CheriNaive => (base(CheriMode::On(CheriOpts::naive())), Mode::PureCap),
            Config::CheriOpt => (base(CheriMode::On(CheriOpts::optimised())), Mode::PureCap),
            Config::CheriOptNoNvo => {
                let opts = CheriOpts { nvo: false, ..CheriOpts::optimised() };
                (base(CheriMode::On(opts)), Mode::PureCap)
            }
            Config::RustChecked => (base(CheriMode::Off), Mode::RustChecked),
            Config::RustFull => (base(CheriMode::Off), Mode::RustFull),
            Config::GpuShield => (base(CheriMode::Off), Mode::GpuShield),
        }
    }
}

/// Suite results under one configuration, keyed by benchmark name.
pub type SuiteResults = Vec<(&'static str, KernelStats)>;

/// One simulated machine: SM configuration, compiler mode and SM count.
type Machine = (SmConfig, Mode, u32);

/// The experiment driver.
#[derive(Debug)]
pub struct Harness {
    geometry: Geometry,
    /// Suite results per simulated machine, in the order first asked for.
    cache: Vec<(Machine, SuiteResults)>,
    /// Print a progress line to stderr per simulated machine.
    verbose: bool,
    /// Worker threads for the parallel suite runner.
    jobs: usize,
    /// Streaming multiprocessors per simulated device.
    sms: u32,
}

impl Harness {
    fn at(geometry: Geometry) -> Self {
        Harness { geometry, cache: Vec::new(), verbose: false, jobs: default_jobs(), sms: 1 }
    }

    /// A harness at the paper's geometry and dataset scale.
    pub fn paper() -> Self {
        Harness::at(Geometry::Full)
    }

    /// A quick harness for tests and smoke runs.
    pub fn quick() -> Self {
        Harness::at(Geometry::Small)
    }

    /// Print progress lines to stderr while simulating.
    pub fn verbose(mut self) -> Self {
        self.verbose = true;
        self
    }

    /// Set the worker-thread count (`1` = serial; results are identical
    /// for every value).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Simulate devices of `sms` streaming multiprocessors instead of the
    /// default single SM (`sms = 1` is bit-identical to the classic model).
    pub fn with_sms(mut self, sms: u32) -> Self {
        assert!(sms >= 1, "a device needs at least one SM");
        self.sms = sms;
        self
    }

    /// Run (or fetch cached) suite results under `config`, at the harness's
    /// dataset scale, worker count and SM count.
    ///
    /// # Panics
    ///
    /// Panics if a benchmark fails its self-check — the harness is only
    /// meaningful over verified runs.
    pub fn results(&mut self, config: Config) -> &SuiteResults {
        let (cfg, mode) = config.instantiate(self.geometry);
        self.suite(cfg, mode, self.sms)
    }

    /// Run (or fetch cached) suite results on one machine — `cfg`/`mode` on
    /// devices of `sms` SMs — at the harness's dataset scale, fanning the
    /// suite's cells over its worker pool: one fresh `Gpu` per benchmark,
    /// so results do not depend on the worker count.
    ///
    /// # Panics
    ///
    /// Panics if a benchmark fails its self-check.
    pub(crate) fn suite(&mut self, cfg: SmConfig, mode: Mode, sms: u32) -> &SuiteResults {
        let machine = (cfg, mode, sms);
        let i = match self.cache.iter().position(|(m, _)| *m == machine) {
            Some(i) => i,
            None => {
                if self.verbose {
                    eprintln!(
                        "[repro] simulating {mode:?}, {:?}, {} VRF slots, {} tag lines{}, {sms} SM(s) on {} worker(s) ...",
                        cfg.cheri,
                        cfg.vrf_slots,
                        cfg.tag_cache.lines,
                        if cfg.stack_cache { ", stack cache" } else { "" },
                        self.jobs
                    );
                }
                let results =
                    run_suite_parallel_on(self.jobs, cfg, mode, self.geometry.scale(), sms)
                        .unwrap_or_else(|e| panic!("suite failed under {mode:?}: {e}"));
                self.cache.push((machine, results));
                self.cache.len() - 1
            }
        };
        &self.cache[i].1
    }

    /// Total architectural vector registers at this geometry.
    pub(crate) fn total_regs(&self) -> u32 {
        let (cfg, _) = Config::Base { eighths: 3 }.instantiate(self.geometry);
        cfg.warps * 32
    }
}

/// Geometric mean of ratios.
pub fn geomean(ratios: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for r in ratios {
        log_sum += r.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }

    #[test]
    fn configs_instantiate() {
        for c in [
            Config::Base { eighths: 3 },
            Config::CheriNaive,
            Config::CheriOpt,
            Config::CheriOptNoNvo,
            Config::RustChecked,
            Config::RustFull,
            Config::GpuShield,
        ] {
            let (cfg, mode) = c.instantiate(Geometry::Small);
            assert_eq!(cfg.cheri.enabled(), mode.needs_cheri(), "{c:?}");
        }
    }

    #[test]
    fn harness_caches() {
        let mut h = Harness::quick();
        let n1 = h.results(Config::Base { eighths: 3 }).len();
        assert_eq!(n1, 14);
        // Second call hits the cache (same pointer contents, no panic).
        let n2 = h.results(Config::Base { eighths: 3 }).len();
        assert_eq!(n2, 14);
        // The same machine reached another way is the same entry.
        let (cfg, mode) = Config::Base { eighths: 3 }.instantiate(h.geometry);
        assert_eq!(h.suite(cfg, mode, 1).len(), 14);
        assert_eq!(h.cache.len(), 1);
    }

    /// `results` runs on the harness's SM count, and the machine lookup on
    /// the count it is given; both share the one cache.
    #[test]
    fn run_honours_the_sm_count() {
        let mut h = Harness::quick().with_sms(2);
        let (cfg, mode) = Config::CheriOpt.instantiate(h.geometry);
        let two = h.suite(cfg, mode, 2).clone();
        assert_eq!(&two, h.results(Config::CheriOpt));
        let one = h.suite(cfg, mode, 1).clone();
        assert_eq!(h.cache.len(), 2);
        let vecadd = |r: &SuiteResults| r.iter().find(|(n, _)| *n == "VecAdd").unwrap().1.cycles;
        assert_ne!(vecadd(&two), vecadd(&one), "sms=2 must not simulate one SM");
    }
}
