//! The reproduction harness: regenerates every table and figure of the
//! paper's evaluation section (see DESIGN.md §4 for the index).
//!
//! The [`Harness`] lazily runs the benchmark suite under each SM/compiler
//! configuration an experiment needs and caches the results, so `repro all`
//! simulates each configuration exactly once. Every suite an experiment
//! runs, cached or not, goes through the harness, so each one runs at the
//! harness's geometry, worker count and SM count.

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
use std::collections::BTreeMap;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Config {
    /// Baseline with an uncompressed (full-size-VRF) register file — the
    /// reference point of Table 2.
    BaseUncompressed,
    /// Baseline with a compressed register file; VRF size `num/8`.
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
            Config::BaseUncompressed => (base(CheriMode::Off).vrf_slots_frac(8, 8), Mode::Baseline),
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

/// The experiment driver.
#[derive(Debug)]
pub struct Harness {
    geometry: Geometry,
    cache: BTreeMap<Config, SuiteResults>,
    /// Print a progress line to stderr per simulated configuration.
    verbose: bool,
    /// Worker threads for the parallel suite runner.
    jobs: usize,
    /// Streaming multiprocessors per simulated device.
    sms: u32,
}

impl Harness {
    fn at(geometry: Geometry) -> Self {
        Harness { geometry, cache: BTreeMap::new(), verbose: false, jobs: default_jobs(), sms: 1 }
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
    /// Clears any cached results.
    pub fn with_sms(mut self, sms: u32) -> Self {
        assert!(sms >= 1, "a device needs at least one SM");
        self.sms = sms;
        self.cache.clear();
        self
    }

    /// The geometry in use.
    pub(crate) fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Run (or fetch cached) suite results under `config`, at the harness's
    /// dataset scale, worker count and SM count.
    ///
    /// # Panics
    ///
    /// Panics if a benchmark fails its self-check — the harness is only
    /// meaningful over verified runs.
    pub fn results(&mut self, config: Config) -> &SuiteResults {
        if !self.cache.contains_key(&config) {
            if self.verbose {
                eprintln!("[repro] simulating {config:?} on {} worker(s) ...", self.jobs);
            }
            let (cfg, mode) = config.instantiate(self.geometry);
            let results = self.run(cfg, mode);
            self.cache.insert(config, results);
        }
        &self.cache[&config]
    }

    /// Run the suite under `cfg`/`mode` without caching, at the harness's
    /// dataset scale and SM count, fanning the suite's cells over its
    /// worker pool — one fresh `Gpu` per benchmark, so results do not
    /// depend on the worker count. Every experiment runs its suites here.
    ///
    /// # Panics
    ///
    /// Panics if a benchmark fails its self-check.
    pub(crate) fn run(&self, cfg: SmConfig, mode: Mode) -> SuiteResults {
        run_suite_parallel_on(self.jobs, cfg, mode, self.geometry.scale(), self.sms)
            .unwrap_or_else(|e| panic!("suite failed under {mode:?}: {e}"))
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
            Config::BaseUncompressed,
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
    }

    /// The uncached path that `ablate`, `multism` and `tagsweep` use runs on
    /// the harness's SM count, exactly like the cached one.
    #[test]
    fn run_honours_the_sm_count() {
        let mut h = Harness::quick().with_sms(2);
        let (cfg, mode) = Config::CheriOpt.instantiate(h.geometry());
        let ran = h.run(cfg, mode);
        assert_eq!(&ran, h.results(Config::CheriOpt));
        let one_sm = Harness::quick().run(cfg, mode);
        let vecadd = |r: &SuiteResults| r.iter().find(|(n, _)| *n == "VecAdd").unwrap().1.cycles;
        assert_ne!(vecadd(&ran), vecadd(&one_sm), "sms=2 must not simulate one SM");
    }
}
