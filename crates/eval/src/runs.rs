//! Build-and-execute orchestration for the evaluation.
//!
//! Every application is measured exactly like the paper measures it:
//! two individual binaries are produced — one vanilla, one armed with
//! the isolation system — each is run to its workload's stop condition
//! on a freshly scripted machine, and cycle counts come from the
//! simulated DWT (the machine clock).
//!
//! Runs are pure functions of `(app, configuration)`, so
//! [`evaluate_app`] fans the baseline/OPEC/ACES runs of one app across
//! scoped threads, joining in a fixed order so output is deterministic
//! regardless of scheduling. [`evaluate_app_sequential`] runs the same
//! units on the calling thread and is the reference the memoized
//! pipeline is checked against. Shareable artifacts are held in
//! [`Arc`] so the memoized pipeline (`crate::cache`) can hand the same
//! run to every renderer.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::thread;

use opec_aces::{build_aces_image, AcesRuntime, AcesStrategy, Compartments, DataRegions};
use opec_apps::App;
use opec_armv7m::{Board, Machine};
use opec_core::{compile, CompileOutput, MonitorStats, OpecMonitor};
use opec_vm::{link_baseline, Obs, RunOutcome, Trace, Vm};

/// Fuel for evaluation runs.
pub const FUEL: u64 = opec_vm::exec::DEFAULT_FUEL;

/// The three ACES strategies, in the paper's Table 2 order.
pub const ACES_STRATEGIES: [AcesStrategy; 3] =
    [AcesStrategy::Filename, AcesStrategy::FilenameNoOpt, AcesStrategy::Peripheral];

/// Joins a scoped thread, re-raising any panic from inside it.
fn join<T>(handle: thread::ScopedJoinHandle<'_, T>) -> T {
    handle.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
}

/// Artifacts of the OPEC build + run of one application.
pub struct OpecRun {
    /// Cycles to the workload stop point.
    pub cycles: u64,
    /// Flash footprint of the OPEC image.
    pub flash_used: u32,
    /// SRAM footprint of the OPEC image.
    pub sram_used: u32,
    /// Everything the compiler produced (partition, policy, analyses).
    pub compile: CompileOutput,
    /// The function-level execution trace (for the ET metric).
    pub trace: Trace,
    /// Monitor counters.
    pub monitor: MonitorStats,
}

/// Artifacts of one ACES build + run.
pub struct AcesRun {
    /// Strategy used.
    pub strategy: AcesStrategy,
    /// Cycles to the stop point.
    pub cycles: u64,
    /// Flash footprint.
    pub flash_used: u32,
    /// SRAM footprint.
    pub sram_used: u32,
    /// The compartmentalisation.
    pub comps: Compartments,
    /// The (merged) data-region assignment.
    pub regions: DataRegions,
    /// Bytes of application code lifted to the privileged level.
    pub privileged_code_bytes: u32,
    /// Total application code bytes.
    pub total_code_bytes: u32,
}

/// Everything measured for one application. Cloning is cheap: the run
/// artifacts are behind [`Arc`] and shared, which is what lets the
/// memoized pipeline serve every renderer from one set of runs.
#[derive(Clone)]
pub struct AppEval {
    /// Application name.
    pub name: &'static str,
    /// Board (decides the Flash/SRAM denominators).
    pub board: Board,
    /// Baseline cycles.
    pub base_cycles: u64,
    /// Baseline Flash footprint.
    pub base_flash: u32,
    /// Baseline SRAM footprint.
    pub base_sram: u32,
    /// The OPEC build + run.
    pub opec: Arc<OpecRun>,
    /// ACES builds + runs (empty unless requested).
    pub aces: Vec<Arc<AcesRun>>,
}

fn fresh_machine(app: &App) -> Machine {
    let mut m = Machine::new(app.board);
    (app.setup)(&mut m);
    m
}

/// Runs the vanilla baseline. Returns `(cycles, flash, sram)`.
pub(crate) fn run_baseline(app: &App) -> (u64, u32, u32) {
    let (module, _) = (app.build)();
    let image = link_baseline(module, app.board).expect("baseline link");
    let flash = image.flash_used;
    let sram = image.sram_used;
    let mut vm = Vm::builder(fresh_machine(app), image).build().expect("baseline vm");
    let out = vm.run(FUEL).unwrap_or_else(|e| panic!("{} baseline: {e}", app.name));
    assert!(matches!(out, RunOutcome::Halted { .. }));
    (app.check)(&mut vm.machine).unwrap_or_else(|e| panic!("{} baseline check: {e}", app.name));
    (out.cycles(), flash, sram)
}

/// Runs the OPEC build with tracing.
pub(crate) fn run_opec(app: &App) -> OpecRun {
    let (module, specs) = (app.build)();
    let out =
        compile(module, app.board, &specs).unwrap_or_else(|e| panic!("{} compile: {e}", app.name));
    let flash = out.image.flash_used;
    let sram = out.image.sram_used;
    let policy = out.policy.clone();
    let trace = Rc::new(RefCell::new(Trace::new()));
    let mut vm = Vm::builder(fresh_machine(app), out.image.clone())
        .supervisor(OpecMonitor::new(policy))
        .obs(Obs::single(trace.clone()))
        .build()
        .expect("opec vm");
    let run = vm.run(FUEL).unwrap_or_else(|e| panic!("{} under OPEC: {e}", app.name));
    assert!(matches!(run, RunOutcome::Halted { .. }));
    (app.check)(&mut vm.machine).unwrap_or_else(|e| panic!("{} OPEC check: {e}", app.name));
    let trace = trace.borrow().clone();
    OpecRun {
        cycles: run.cycles(),
        flash_used: flash,
        sram_used: sram,
        compile: out,
        trace,
        monitor: vm.supervisor.stats,
    }
}

/// Runs one ACES build.
pub(crate) fn run_aces(app: &App, strategy: AcesStrategy) -> AcesRun {
    let (module, _) = (app.build)();
    let total_code_bytes = module.total_code_size();
    let out = build_aces_image(module, app.board, strategy)
        .unwrap_or_else(|e| panic!("{} ACES build: {e}", app.name));
    let flash = out.image.flash_used;
    let sram = out.image.sram_used;
    let privileged_code_bytes = out.comps.privileged_code_bytes(&out.image.module);
    let main_comp = out.comps.of(out.image.entry);
    let rt = AcesRuntime::new(
        &out.image.module,
        out.comps.clone(),
        out.regions.clone(),
        app.board,
        out.stack,
        main_comp,
    );
    let mut vm =
        Vm::builder(fresh_machine(app), out.image).supervisor(rt).build().expect("aces vm");
    let run =
        vm.run(FUEL).unwrap_or_else(|e| panic!("{} under {}: {e}", app.name, strategy.label()));
    assert!(matches!(run, RunOutcome::Halted { .. }));
    (app.check)(&mut vm.machine)
        .unwrap_or_else(|e| panic!("{} {} check: {e}", app.name, strategy.label()));
    AcesRun {
        strategy,
        cycles: run.cycles(),
        flash_used: flash,
        sram_used: sram,
        comps: out.comps,
        regions: out.regions,
        privileged_code_bytes,
        total_code_bytes,
    }
}

/// Evaluates one application; `with_aces` additionally builds and runs
/// the three ACES strategies (used for the five comparison apps).
///
/// The baseline, OPEC, and ACES runs are independent of each other
/// (each rebuilds its own module and machine), so they execute on
/// scoped threads; joins happen in a fixed order, so the result is
/// identical to the sequential variant.
pub fn evaluate_app(app: &App, with_aces: bool) -> AppEval {
    thread::scope(|s| {
        let base = s.spawn(|| run_baseline(app));
        let opec = s.spawn(|| run_opec(app));
        let aces_handles: Vec<_> = if with_aces {
            ACES_STRATEGIES.iter().map(|&st| s.spawn(move || run_aces(app, st))).collect()
        } else {
            Vec::new()
        };
        let (base_cycles, base_flash, base_sram) = join(base);
        let opec = Arc::new(join(opec));
        let aces = aces_handles.into_iter().map(|h| Arc::new(join(h))).collect();
        AppEval { name: app.name, board: app.board, base_cycles, base_flash, base_sram, opec, aces }
    })
}

/// Evaluates one application on the calling thread only, uncached: the
/// reference that `cache::tests` holds the memoized pipeline to.
pub fn evaluate_app_sequential(app: &App, with_aces: bool) -> AppEval {
    let (base_cycles, base_flash, base_sram) = run_baseline(app);
    let opec = Arc::new(run_opec(app));
    let aces = if with_aces {
        ACES_STRATEGIES.into_iter().map(|st| Arc::new(run_aces(app, st))).collect()
    } else {
        Vec::new()
    };
    AppEval { name: app.name, board: app.board, base_cycles, base_flash, base_sram, opec, aces }
}

impl AppEval {
    /// Runtime overhead of OPEC vs the baseline, in percent.
    pub fn runtime_overhead_pct(&self) -> f64 {
        (self.opec.cycles as f64 / self.base_cycles as f64 - 1.0) * 100.0
    }

    /// Flash overhead (increase over baseline / device flash), percent.
    pub fn flash_overhead_pct(&self) -> f64 {
        (self.opec.flash_used.saturating_sub(self.base_flash)) as f64 / self.board.flash.size as f64
            * 100.0
    }

    /// SRAM overhead (increase over baseline / device SRAM), percent.
    pub fn sram_overhead_pct(&self) -> f64 {
        (self.opec.sram_used.saturating_sub(self.base_sram)) as f64 / self.board.sram.size as f64
            * 100.0
    }
}

impl AcesRun {
    /// Runtime overhead ratio vs a baseline cycle count.
    pub fn runtime_ratio(&self, base_cycles: u64) -> f64 {
        self.cycles as f64 / base_cycles as f64
    }

    /// Flash overhead percent vs the baseline footprint on `board`.
    pub fn flash_overhead_pct(&self, base_flash: u32, board: Board) -> f64 {
        (self.flash_used.saturating_sub(base_flash)) as f64 / board.flash.size as f64 * 100.0
    }

    /// SRAM overhead percent.
    pub fn sram_overhead_pct(&self, base_sram: u32, board: Board) -> f64 {
        (self.sram_used.saturating_sub(base_sram)) as f64 / board.sram.size as f64 * 100.0
    }

    /// Privileged application code, percent of total application code.
    pub fn pac_pct(&self) -> f64 {
        self.privileged_code_bytes as f64 / self.total_code_bytes as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinlock_evaluates_under_all_systems() {
        let app = opec_apps::programs::pinlock::app();
        let eval = evaluate_app(&app, true);
        assert!(eval.base_cycles > 0);
        assert!(eval.opec.cycles > eval.base_cycles, "OPEC adds switch work");
        assert_eq!(eval.aces.len(), 3);
        for a in &eval.aces {
            assert!(a.cycles >= eval.base_cycles);
        }
        // Footprints: OPEC image is bigger than the baseline.
        assert!(eval.opec.flash_used > eval.base_flash);
        assert!(eval.opec.sram_used > eval.base_sram);
        // Overheads are positive and sane.
        assert!(eval.runtime_overhead_pct() > 0.0);
        assert!(eval.flash_overhead_pct() > 0.0);
        assert!(eval.sram_overhead_pct() > 0.0);
        assert!(eval.runtime_overhead_pct() < 400.0);
    }

    #[test]
    fn coremark_evaluates_without_aces() {
        let app = opec_apps::programs::coremark::app();
        let eval = evaluate_app(&app, false);
        assert!(eval.aces.is_empty());
        assert!(!eval.opec.trace.is_empty());
        assert!(eval.opec.monitor.switches >= 60);
    }
}
