//! The `apps` workload: the paper's evaluation as a closed loop.
//!
//! One pass compiles every paper app build — the 7 apps with OPEC and
//! the 5 comparison apps with ACES (Filename strategy) — and runs each
//! build to its stop point with its `check`: OPEC on `armv7m` and on
//! `rv32-pmp`, ACES on `armv7m`. That is 12 builds and 19 runs. The
//! seed only shuffles the run order within a pass.
//!
//! The traced pass compiles OPEC builds phase by phase (and checks the
//! result equals `opec_core::compile`'s), times every supervisor hook
//! through [`Timed`], counts device-tick calls with a [`CallCounter`]
//! device, and attaches an obs `Metrics` sink for the virtualization
//! ratio.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use opec_aces::{build_aces_image, AcesCompileOutput, AcesRuntime, AcesStrategy};
use opec_analysis::{CallGraph, PointsTo, ResourceAnalysis};
use opec_apps::programs::aces_comparison_apps;
use opec_apps::{all_apps, App};
use opec_armv7m::{FaultInfo, Machine, MemRegion, MmioDevice, Mode};
use opec_core::layout::build_layout;
use opec_core::{build_image, compile, OpecMonitor, Partition, SystemPolicy};
use opec_fleet::FleetBackend;
use opec_obs::{Metrics as ObsMetrics, Obs};
use opec_vm::{
    CpuContext, FaultFixup, LoadedImage, OpId, RunOutcome, Supervisor, SwitchRequest, TrapError,
    Vm, VmStats,
};

use crate::host::HostSpeed;
use crate::pin::Pinned;
use crate::stats::{self, Metrics, Outcome, Rng};
use crate::trace::Tracer;

/// Guest fuel per app run (the evaluation's default budget).
const FUEL: u64 = opec_vm::exec::DEFAULT_FUEL;
/// Passes every run makes at least, so the tail percentile is fixed.
/// Six passes (114 runs) put it at p90, inside the three PinLock
/// builds, the longest; at p75 it would fall on the gap between the
/// Animation and CoreMark builds and jump with small timing changes.
const MIN_PASSES: usize = 6;
/// Set-up repetitions before the first pass and after every pass; the
/// median of all of them is `setup_s`. Spread over the run, they see the
/// host as the passes do.
const SETUP_REPS_FIRST: usize = 3;
const SETUP_REPS_PER_PASS: usize = 2;
/// Times each pass compiles every build; `compile_ms` is the median
/// over all of a run's compiles of the whole set.
const COMPILE_REPS: usize = 3;
/// Calls per device micro-timing sample.
const MICRO_CALLS: u32 = 100_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum System {
    Opec,
    Aces,
}

/// One compile: an app and the system it is built for.
#[derive(Clone, Copy)]
struct Unit {
    app: usize,
    system: System,
}

/// One run: a compiled unit on one backend.
#[derive(Clone, Copy)]
struct RunSpec {
    unit: usize,
    backend: FleetBackend,
}

/// The apps and the builds of one pass.
pub struct Apps {
    apps: Vec<App>,
    units: Vec<Unit>,
    runs: Vec<RunSpec>,
}

impl Apps {
    pub fn new() -> Apps {
        let apps = all_apps();
        let mut units: Vec<Unit> =
            (0..apps.len()).map(|app| Unit { app, system: System::Opec }).collect();
        for a in aces_comparison_apps() {
            let app = apps.iter().position(|x| x.name == a.name).expect("ACES app is a paper app");
            units.push(Unit { app, system: System::Aces });
        }
        let mut runs = Vec::new();
        for (unit, u) in units.iter().enumerate() {
            let backends: &[FleetBackend] = match u.system {
                System::Opec => &FleetBackend::ALL,
                System::Aces => &[FleetBackend::Armv7m],
            };
            runs.extend(backends.iter().map(|&backend| RunSpec { unit, backend }));
        }
        Apps { apps, units, runs }
    }

    /// Runs per pass.
    pub fn runs_per_pass(&self) -> usize {
        self.runs.len()
    }

    fn label(&self, r: &RunSpec) -> String {
        let u = self.units[r.unit];
        let sys = match u.system {
            System::Opec => "opec",
            System::Aces => "aces",
        };
        format!("{}.{}.{sys}", self.apps[u.app].name.to_lowercase(), r.backend.name())
    }
}

/// A compiled build.
enum Compiled {
    Opec { image: Arc<LoadedImage>, policy: SystemPolicy },
    Aces(Box<AcesCompileOutput>),
}

/// Compiles one build from its IR (built by the caller, untimed: the
/// IR is the app's source, not the compiler's work).
fn compile_module(
    app: &App,
    system: System,
    module: opec_ir::Module,
    specs: &[opec_core::OperationSpec],
) -> Compiled {
    match system {
        System::Opec => {
            let out = compile(module, app.board, specs)
                .unwrap_or_else(|e| panic!("{} OPEC compile: {e}", app.name));
            Compiled::Opec { image: Arc::new(out.image), policy: out.policy }
        }
        System::Aces => Compiled::Aces(Box::new(
            build_aces_image(module, app.board, AcesStrategy::Filename)
                .unwrap_or_else(|e| panic!("{} ACES build: {e}", app.name)),
        )),
    }
}

/// Supervisor counters the benchmark reads, whichever runtime it is.
pub trait SupStats {
    fn switches(&self) -> u64;
    /// Protection-unit writes the runtime counts itself (OPEC only).
    fn prot_writes(&self) -> Option<u64>;
    fn virt_faults(&self) -> u64;
    fn emulations(&self) -> u64;
}

impl SupStats for OpecMonitor {
    fn switches(&self) -> u64 {
        self.stats.switches
    }
    fn prot_writes(&self) -> Option<u64> {
        Some(self.stats.prot_writes)
    }
    fn virt_faults(&self) -> u64 {
        self.stats.virt_faults
    }
    fn emulations(&self) -> u64 {
        self.stats.emulations
    }
}

impl SupStats for AcesRuntime {
    fn switches(&self) -> u64 {
        self.stats.switches
    }
    fn prot_writes(&self) -> Option<u64> {
        None
    }
    fn virt_faults(&self) -> u64 {
        0
    }
    fn emulations(&self) -> u64 {
        0
    }
}

/// A supervisor wrapper that times every hook of the runtime it wraps
/// as a span and delegates everything, `wants_switch` and
/// `attach_obs` included.
pub struct Timed<S> {
    pub inner: S,
    tracer: Rc<RefCell<Tracer>>,
}

impl<S> Timed<S> {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut S) -> T) -> T {
        let open = self.tracer.borrow_mut().begin(name, crate::trace::NONE);
        let r = f(&mut self.inner);
        self.tracer.borrow_mut().end(open);
        r
    }
}

impl<S: SupStats> SupStats for Timed<S> {
    fn switches(&self) -> u64 {
        self.inner.switches()
    }
    fn prot_writes(&self) -> Option<u64> {
        self.inner.prot_writes()
    }
    fn virt_faults(&self) -> u64 {
        self.inner.virt_faults()
    }
    fn emulations(&self) -> u64 {
        self.inner.emulations()
    }
}

impl<S: Supervisor> Supervisor for Timed<S> {
    fn attach_obs(&mut self, obs: &Obs) {
        self.inner.attach_obs(obs);
    }
    fn wants_switch(&mut self, op: u8) -> bool {
        self.inner.wants_switch(op)
    }
    fn on_reset(&mut self, machine: &mut Machine) -> Result<(), TrapError> {
        self.span("monitor.reset", |s| s.on_reset(machine))
    }
    fn on_operation_enter(
        &mut self,
        machine: &mut Machine,
        req: &mut SwitchRequest<'_>,
    ) -> Result<(), TrapError> {
        self.span("monitor.enter", |s| s.on_operation_enter(machine, req))
    }
    fn on_operation_exit(
        &mut self,
        machine: &mut Machine,
        req: &mut SwitchRequest<'_>,
    ) -> Result<(), TrapError> {
        self.span("monitor.exit", |s| s.on_operation_exit(machine, req))
    }
    fn on_svc(&mut self, machine: &mut Machine, imm: u8) -> Result<(), TrapError> {
        self.span("monitor.svc", |s| s.on_svc(machine, imm))
    }
    fn on_mem_fault(
        &mut self,
        machine: &mut Machine,
        fault: FaultInfo,
        cpu: &mut CpuContext,
    ) -> FaultFixup {
        self.span("monitor.fault", |s| s.on_mem_fault(machine, fault, cpu))
    }
    fn on_bus_fault(
        &mut self,
        machine: &mut Machine,
        fault: FaultInfo,
        cpu: &mut CpuContext,
    ) -> FaultFixup {
        self.span("monitor.fault", |s| s.on_bus_fault(machine, fault, cpu))
    }
    fn on_quarantine(
        &mut self,
        machine: &mut Machine,
        op: OpId,
        resume_mode: &mut Mode,
    ) -> Result<(), TrapError> {
        self.span("monitor.quarantine", |s| s.on_quarantine(machine, op, resume_mode))
    }
}

/// A device no guest code maps: it counts how often the machine ticks
/// its devices and polls their interrupt lines.
#[derive(Clone)]
struct CallCounter {
    ticks: Rc<Cell<u64>>,
    polls: Rc<Cell<u64>>,
}

impl MmioDevice for CallCounter {
    fn name(&self) -> &str {
        "perfbench-call-counter"
    }
    fn region(&self) -> MemRegion {
        MemRegion::new(0x5fff_ff00, 0x100)
    }
    fn read(&mut self, _offset: u32, _len: u32) -> u32 {
        0
    }
    fn write(&mut self, _offset: u32, _len: u32, _value: u32) {}
    fn tick(&mut self, _cycles: u64) {
        self.ticks.set(self.ticks.get() + 1);
    }
    fn irq_pending(&self) -> bool {
        self.polls.set(self.polls.get() + 1);
        false
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn clone_box(&self) -> Option<Box<dyn MmioDevice>> {
        Some(Box::new(self.clone()))
    }
}

/// Everything measured about one run.
pub struct RunRec {
    pub label: String,
    app: usize,
    pub ok: Result<(), String>,
    pub stats: VmStats,
    pub cycles: u64,
    pub switches: u64,
    pub prot_writes: Option<u64>,
    pub virt_faults: u64,
    pub emulations: u64,
    /// Wall time inside `Vm::run`.
    pub run_ns: u64,
    /// Host CPU time inside `Vm::run`.
    pub run_cpu_ns: u64,
    /// Host CPU time of the whole run: machine set-up, VM build, run,
    /// check.
    pub op_cpu_ns: u64,
    /// The host speed sampled right after the run (1 when not sampled).
    pub speed: f64,
    /// Traced runs only.
    traced: Option<TracedRun>,
}

struct TracedRun {
    monitor_ns: u64,
    virt_hits: u64,
    virt_misses: u64,
    ticks: u64,
    polls: u64,
}

/// Builds a VM over `machine`, runs it to its stop point, checks it.
fn execute<S: Supervisor + SupStats>(
    app: &App,
    mut machine: Machine,
    image: Arc<LoadedImage>,
    sup: S,
    tracer: Option<&Rc<RefCell<Tracer>>>,
    started_cpu: u64,
) -> RunRec {
    let counter = CallCounter { ticks: Rc::new(Cell::new(0)), polls: Rc::new(Cell::new(0)) };
    let sink = Rc::new(RefCell::new(ObsMetrics::new()));
    let obs = match tracer {
        Some(_) => {
            machine.add_device(Box::new(counter.clone())).expect("counter window is free");
            Obs::single(sink.clone())
        }
        None => Obs::disabled(),
    };
    let mut vm = Vm::builder(machine, image).supervisor(sup).obs(obs).build().expect("image loads");
    let open = tracer.map(|t| t.borrow_mut().begin("vm.run", crate::trace::NONE));
    let t = Instant::now();
    let cpu = stats::thread_cpu_ns();
    let result = vm.run(FUEL);
    let run_cpu_ns = stats::thread_cpu_ns() - cpu;
    let run_ns = t.elapsed().as_nanos() as u64;
    if let (Some(t), Some(o)) = (tracer, open) {
        t.borrow_mut().end(o);
    }
    let ok = match &result {
        Ok(RunOutcome::Halted { .. }) => (app.check)(&mut vm.machine),
        Ok(other) => Err(format!("did not halt: {other:?}")),
        Err(e) => Err(format!("run failed: {e}")),
    };
    let traced = tracer.map(|_| {
        let m = sink.borrow();
        let (hits, misses) =
            m.ops().fold((0, 0), |(h, x), (_, op)| (h + op.virt_hits, x + op.virt_misses));
        TracedRun {
            monitor_ns: 0,
            virt_hits: hits,
            virt_misses: misses,
            ticks: counter.ticks.get(),
            polls: counter.polls.get(),
        }
    });
    RunRec {
        label: String::new(),
        app: 0,
        ok,
        stats: vm.stats,
        cycles: vm.machine.clock.now(),
        switches: vm.supervisor.switches(),
        prot_writes: vm.supervisor.prot_writes(),
        virt_faults: vm.supervisor.virt_faults(),
        emulations: vm.supervisor.emulations(),
        run_ns,
        run_cpu_ns,
        op_cpu_ns: stats::thread_cpu_ns() - started_cpu,
        speed: 1.0,
        traced,
    }
}

fn run_one(
    apps: &Apps,
    spec: RunSpec,
    compiled: &mut [Option<Compiled>],
    tracer: Option<&Rc<RefCell<Tracer>>>,
) -> RunRec {
    let started = stats::thread_cpu_ns();
    let u = apps.units[spec.unit];
    let app = &apps.apps[u.app];
    let backend = spec.backend.dyn_backend();
    let mut machine = backend.make_machine(app.board);
    (app.setup)(&mut machine);
    let mut rec = match &compiled[spec.unit] {
        Some(Compiled::Opec { image, policy }) => {
            let mon = OpecMonitor::with_backend(policy.clone(), backend);
            match tracer {
                Some(t) => execute(
                    app,
                    machine,
                    image.clone(),
                    Timed { inner: mon, tracer: t.clone() },
                    tracer,
                    started,
                ),
                None => execute(app, machine, image.clone(), mon, None, started),
            }
        }
        Some(Compiled::Aces(_)) => {
            let Some(Compiled::Aces(out)) = compiled[spec.unit].take() else { unreachable!() };
            let out = *out;
            let main_comp = out.comps.of(out.image.entry);
            let rt = AcesRuntime::new(
                &out.image.module,
                out.comps,
                out.regions,
                app.board,
                out.stack,
                main_comp,
            );
            let image = Arc::new(out.image);
            match tracer {
                Some(t) => execute(
                    app,
                    machine,
                    image,
                    Timed { inner: rt, tracer: t.clone() },
                    tracer,
                    started,
                ),
                None => execute(app, machine, image, rt, None, started),
            }
        }
        None => panic!("unit compiled once per pass"),
    };
    rec.label = apps.label(&spec);
    rec.app = u.app;
    rec
}

/// The pinned statistics of one run.
pub fn pinned_stats(rec: &RunRec) -> Vec<(&'static str, String)> {
    let mut v = vec![
        ("insts", rec.stats.insts.to_string()),
        ("cycles", rec.cycles.to_string()),
        ("switches", rec.switches.to_string()),
    ];
    if let Some(p) = rec.prot_writes {
        v.push(("prot_writes", p.to_string()));
    }
    v
}

/// One untraced pass.
pub struct Pass {
    /// CPU time (ms, at nominal speed) of each compile of the 12 builds.
    pub compile_ms: Vec<f64>,
    pub runs: Vec<RunRec>,
}

/// Guest instructions per CPU second inside `Vm::run` over `runs`.
pub fn insts_per_cpu_s(runs: &[RunRec]) -> f64 {
    let insts: u64 = runs.iter().map(|r| r.stats.insts).sum();
    let ns: u64 = runs.iter().map(|r| r.run_cpu_ns).sum();
    insts as f64 / (ns as f64 / 1e9)
}

/// [`insts_per_cpu_s`] with each run's CPU time at nominal speed.
fn nominal_insts_per_cpu_s(runs: &[RunRec]) -> f64 {
    let insts: u64 = runs.iter().map(|r| r.stats.insts).sum();
    let ns: f64 = runs.iter().map(|r| r.run_cpu_ns as f64 * r.speed).sum();
    insts as f64 / (ns / 1e9)
}

/// One untraced pass whose runs are checked into `out`.
pub fn checked_pass(
    apps: &Apps,
    rng: &mut Rng,
    host: &mut HostSpeed,
    pinned: &Pinned,
    out: &mut Outcome,
) -> Pass {
    let pass = untraced_pass(apps, rng, host);
    for r in &pass.runs {
        check_run(r, pinned, out);
    }
    pass
}

/// One untraced pass. The host's speed is sampled after every compile
/// of the build set and after every run, and each measurement is scaled
/// to nominal speed by the sample taken right after it.
pub fn untraced_pass(apps: &Apps, rng: &mut Rng, host: &mut HostSpeed) -> Pass {
    let mut compiled: Vec<Option<Compiled>> = apps.units.iter().map(|_| None).collect();
    let mut compile_ms = Vec::new();
    for _ in 0..COMPILE_REPS {
        // The IR is the apps' source, not the compiler's work: build it
        // first, then time the 12 compiles as one interval.
        let sources: Vec<_> = apps.units.iter().map(|u| (apps.apps[u.app].build)()).collect();
        let cpu = stats::thread_cpu_ns();
        for (i, (module, specs)) in sources.into_iter().enumerate() {
            let u = apps.units[i];
            compiled[i] = Some(compile_module(&apps.apps[u.app], u.system, module, &specs));
        }
        compile_ms.push((stats::thread_cpu_ns() - cpu) as f64 / 1e6 * host.sample());
    }
    let mut runs = apps.runs.clone();
    rng.shuffle(&mut runs);
    let runs = runs
        .into_iter()
        .map(|r| {
            let mut rec = run_one(apps, r, &mut compiled, None);
            rec.speed = host.sample();
            rec
        })
        .collect();
    Pass { compile_ms, runs }
}

/// One set-up repetition: the IR modules of every build and the
/// scripted machines of every run, as a pass needs them.
fn setup_once(apps: &Apps) {
    for u in &apps.units {
        let app = &apps.apps[u.app];
        std::hint::black_box((app.build)());
    }
    for r in &apps.runs {
        let app = &apps.apps[apps.units[r.unit].app];
        let mut m = r.backend.dyn_backend().make_machine(app.board);
        (app.setup)(&mut m);
        std::hint::black_box(&m);
    }
}

/// CPU seconds of each of `reps` set-up repetitions, at nominal speed.
fn setup_cpu_s(apps: &Apps, host: &mut HostSpeed, reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let cpu = stats::thread_cpu_ns();
            setup_once(apps);
            (stats::thread_cpu_ns() - cpu) as f64 / 1e9 * host.sample()
        })
        .collect()
}

/// Checks one run: its app check and its pinned statistics.
pub fn check_run(rec: &RunRec, pinned: &Pinned, out: &mut Outcome) {
    out.attempted += 1;
    if let Err(e) = &rec.ok {
        out.failed += 1;
        out.wrong(format!("{}: {e}", rec.label));
    }
    pinned.check(out, &format!("apps {}", rec.label), &pinned_stats(rec));
}

/// The untraced `apps` workload. Times are CPU times at nominal host
/// speed (see [`HostSpeed`]).
pub fn workload(seed: u64, seconds: f64, pinned: &Pinned) -> Outcome {
    let mut out = Outcome::new();
    let apps = Apps::new();
    let mut host = HostSpeed::new();
    let mut setup = setup_cpu_s(&apps, &mut host, SETUP_REPS_FIRST);
    let mut rng = Rng::new(seed);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        passes.push(checked_pass(&apps, &mut rng, &mut host, pinned, &mut out));
        setup.extend(setup_cpu_s(&apps, &mut host, SETUP_REPS_PER_PASS));
    }
    let rates: Vec<f64> = passes.iter().map(|p| nominal_insts_per_cpu_s(&p.runs)).collect();
    let raw: Vec<f64> = passes.iter().map(|p| insts_per_cpu_s(&p.runs)).collect();
    let compile_ms: Vec<f64> = passes.iter().flat_map(|p| p.compile_ms.iter().copied()).collect();
    let ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.runs.iter().map(|r| r.op_cpu_ns as f64 / 1e6 * r.speed))
        .collect();
    let tail = stats::tail_percentile(MIN_PASSES * apps.runs_per_pass());
    out.metrics.set("setup_s", stats::median(&setup), "s");
    out.metrics.set("guest_insts_per_s", stats::median(&rates), "1/s");
    out.metrics.set("compile_ms", stats::median(&compile_ms), "ms");
    out.metrics.set("op_p50_ms", stats::median(&ops), "ms");
    out.metrics.set("op_tail_ms", stats::quantile(&ops, tail / 100.0), "ms");
    out.metrics.set("peak_rss_mb", stats::peak_rss_mb(), "MB");
    out.extra.set("host_speed", host.factor(), "ratio");
    out.extra.set("raw_guest_insts_per_s", stats::median(&raw), "1/s");
    out.extra.set("op_tail_percentile", tail, "pct");
    out.extra.set("op_samples", ops.len() as f64, "count");
    out.extra.set("passes", passes.len() as f64, "count");
    out
}

/// Per-layer results of one traced pass.
pub struct TracedPass {
    /// Compile phase totals over the pass, in ns, by phase name.
    pub phase_ns: BTreeMap<&'static str, u64>,
    pub worklist_pops: u64,
    pub propagated_bits: u64,
    pub runs: Vec<RunRec>,
}

/// Compiles an OPEC build phase by phase, in `compile`'s order, with a
/// span per phase, and checks the result equals `compile`'s.
fn phased_compile(
    app: &App,
    tracer: &Rc<RefCell<Tracer>>,
    tp: &mut TracedPass,
    out: &mut Outcome,
) -> Compiled {
    let (module, specs) = (app.build)();
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        let open = tracer.borrow_mut().begin(name, crate::trace::NONE);
        f();
        *tp.phase_ns.entry(name).or_insert(0) += tracer.borrow_mut().end(open);
    };
    let mut valid = Ok(());
    timed("compile.validate", &mut || valid = opec_ir::validate(&module));
    valid.unwrap_or_else(|e| panic!("{}: invalid IR: {e}", app.name));
    let mut pt = None;
    timed("compile.points_to", &mut || pt = Some(PointsTo::analyze(&module)));
    let pt = pt.expect("points-to ran");
    let mut cg = None;
    timed("compile.callgraph", &mut || cg = Some(CallGraph::build(&module, &pt)));
    let mut ra = None;
    timed("compile.resources", &mut || ra = Some(ResourceAnalysis::analyze(&module, &pt)));
    let (cg, ra) = (cg.expect("call graph built"), ra.expect("resources analysed"));
    let mut partition = None;
    timed("compile.partition", &mut || {
        partition = Some(Partition::build(&module, &cg, &ra, &specs))
    });
    let partition = partition
        .expect("partition ran")
        .unwrap_or_else(|e| panic!("{}: partition: {e}", app.name));
    let mut policy = None;
    timed("compile.layout", &mut || policy = Some(build_layout(&module, &partition, app.board)));
    let policy =
        policy.expect("layout ran").unwrap_or_else(|e| panic!("{}: layout: {e}", app.name));
    let mut module = Some(module);
    let mut image = None;
    timed("compile.image", &mut || {
        let m = module.take().expect("module consumed once");
        image = Some(build_image(m, &partition, &policy, app.board));
    });
    let image = image.expect("image ran").unwrap_or_else(|e| panic!("{}: image: {e}", app.name));
    tp.worklist_pops += pt.stats.worklist_pops as u64;
    tp.propagated_bits += pt.stats.propagated_bits as u64;

    let (module, specs) = (app.build)();
    let whole = compile(module, app.board, &specs)
        .unwrap_or_else(|e| panic!("{} OPEC compile: {e}", app.name));
    let same = whole.partition.ops.len() == partition.ops.len()
        && whole.image.flash_used == image.flash_used
        && whole.image.sram_used == image.sram_used
        && format!("{:?}", whole.policy) == format!("{policy:?}");
    if !same {
        out.wrong(format!("{}: phase-by-phase compile differs from compile()", app.name));
    }
    Compiled::Opec { image: Arc::new(image), policy }
}

/// One traced pass: phase-timed compiles, then every run under the
/// hook-timing wrapper.
pub fn traced_pass(
    apps: &Apps,
    rng: &mut Rng,
    tracer: &Rc<RefCell<Tracer>>,
    pinned: &Pinned,
    out: &mut Outcome,
) -> TracedPass {
    let mut tp = TracedPass {
        phase_ns: BTreeMap::new(),
        worklist_pops: 0,
        propagated_bits: 0,
        runs: Vec::new(),
    };
    let pass_span = tracer.borrow_mut().begin("apps.pass", crate::trace::NONE);
    let mut compiled: Vec<Option<Compiled>> = Vec::with_capacity(apps.units.len());
    for u in &apps.units {
        let app = &apps.apps[u.app];
        compiled.push(Some(match u.system {
            System::Opec => phased_compile(app, tracer, &mut tp, out),
            System::Aces => {
                let (module, specs) = (app.build)();
                let open = tracer.borrow_mut().begin("compile.aces", crate::trace::NONE);
                let c = compile_module(app, System::Aces, module, &specs);
                let ns = tracer.borrow_mut().end(open);
                *tp.phase_ns.entry("compile.aces").or_insert(0) += ns;
                c
            }
        }));
    }
    let mut runs = apps.runs.clone();
    rng.shuffle(&mut runs);
    for spec in runs {
        let before = tracer.borrow().spans().len();
        let mut rec = run_one(apps, spec, &mut compiled, Some(tracer));
        let t = tracer.borrow();
        let monitor_ns: u64 = t.spans()[before..]
            .iter()
            .filter(|s| s.name.starts_with("monitor."))
            .map(|s| s.dur_ns())
            .sum();
        drop(t);
        if let Some(tr) = rec.traced.as_mut() {
            tr.monitor_ns = monitor_ns;
        }
        check_run(&rec, pinned, out);
        tp.runs.push(rec);
    }
    tracer.borrow_mut().end(pass_span);
    tp
}

/// Time per call (ns) of `Machine::tick_devices` and
/// `Machine::pending_irqs` on a throwaway copy of each app's
/// post-setup machine: too small to span, so timed from outside in a
/// loop. Median of five samples each.
fn device_micro_ns(apps: &Apps) -> Vec<(f64, f64)> {
    apps.apps
        .iter()
        .map(|app| {
            let fresh = || {
                let mut m = FleetBackend::Armv7m.dyn_backend().make_machine(app.board);
                (app.setup)(&mut m);
                m
            };
            let mut tick = Vec::new();
            let mut poll = Vec::new();
            for _ in 0..5 {
                let mut m = fresh();
                let cpu = stats::thread_cpu_ns();
                for _ in 0..MICRO_CALLS {
                    std::hint::black_box(&mut m).tick_devices(opec_armv7m::costs::ALU);
                }
                tick.push((stats::thread_cpu_ns() - cpu) as f64 / f64::from(MICRO_CALLS));
                let m = fresh();
                let cpu = stats::thread_cpu_ns();
                for _ in 0..MICRO_CALLS {
                    std::hint::black_box(std::hint::black_box(&m).pending_irqs().len());
                }
                poll.push((stats::thread_cpu_ns() - cpu) as f64 / f64::from(MICRO_CALLS));
            }
            (stats::median(&tick), stats::median(&poll))
        })
        .collect()
}

/// Per-layer metrics of the traced passes: `compile`, `vm`, `monitor`
/// and `devices`.
pub fn layer_metrics(apps: &Apps, passes: &[TracedPass], tracer: &Tracer, m: &mut Metrics) {
    let per_pass = |name: &str| -> f64 {
        let v: Vec<f64> = passes
            .iter()
            .map(|p| p.phase_ns.get(name).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        stats::median(&v)
    };
    let phases = [
        ("validate", "compile.validate"),
        ("points_to", "compile.points_to"),
        ("callgraph", "compile.callgraph"),
        ("resources", "compile.resources"),
        ("partition", "compile.partition"),
        ("layout", "compile.layout"),
        ("image", "compile.image"),
        ("aces", "compile.aces"),
    ];
    let mut opec_total = 0.0;
    for (short, span) in phases {
        let ms = per_pass(span);
        if short != "aces" {
            opec_total += ms;
        }
        m.set(format!("compile.{short}_ms"), ms, "ms");
    }
    m.set("compile.resources_share", per_pass("compile.resources") / opec_total, "ratio");
    let first = &passes[0];
    m.set("compile.points_to.worklist_pops", first.worklist_pops as f64, "count");
    m.set("compile.points_to.propagated_bits", first.propagated_bits as f64, "count");

    // vm and monitor, per build: the median over passes.
    let mut by_label: BTreeMap<&str, Vec<&RunRec>> = BTreeMap::new();
    for p in passes {
        for r in &p.runs {
            by_label.entry(&r.label).or_default().push(r);
        }
    }
    for (label, recs) in &by_label {
        let rate: Vec<f64> =
            recs.iter().map(|r| r.stats.insts as f64 / (r.run_ns as f64 / 1e9)).collect();
        let share: Vec<f64> = recs
            .iter()
            .map(|r| r.traced.as_ref().map_or(0, |t| t.monitor_ns) as f64 / r.run_ns as f64)
            .collect();
        m.set(format!("vm.insts_per_s.{label}"), stats::median(&rate), "1/s");
        m.set(format!("monitor.self_share.{label}"), stats::median(&share), "ratio");
    }
    let sum = |f: &dyn Fn(&RunRec) -> u64| first.runs.iter().map(f).sum::<u64>() as f64;
    m.set("vm.insts", sum(&|r| r.stats.insts), "count");
    m.set("vm.calls", sum(&|r| r.stats.calls), "count");
    m.set("vm.irqs", sum(&|r| r.stats.irqs), "count");
    m.set("vm.faults_retried", sum(&|r| r.stats.faults_retried), "count");
    m.set("vm.faults_emulated", sum(&|r| r.stats.faults_emulated), "count");
    fn tr(r: &RunRec) -> &TracedRun {
        r.traced.as_ref().expect("traced pass runs are traced")
    }
    m.set("monitor.switches", sum(&|r| r.switches), "count");
    m.set("monitor.prot_writes", sum(&|r| r.prot_writes.unwrap_or(0)), "count");
    m.set("monitor.virt_faults", sum(&|r| r.virt_faults), "count");
    m.set("monitor.emulations", sum(&|r| r.emulations), "count");
    let hits = sum(&|r| tr(r).virt_hits);
    let misses = sum(&|r| tr(r).virt_misses);
    m.set("monitor.virt_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    for (metric, span) in
        [("enter", "monitor.enter"), ("exit", "monitor.exit"), ("fault", "monitor.fault")]
    {
        let d = tracer.durations(span);
        m.set(
            format!("monitor.{metric}_ns_p50"),
            if d.is_empty() { 0.0 } else { stats::median(&d) },
            "ns",
        );
    }

    // devices: the micro-timed cost per call (mean over the apps'
    // machines) next to the counted calls, and the share of `Vm::run`
    // CPU time they imply — an estimate, since the timed calls ran on a
    // throwaway machine, not inside the run.
    let micro = device_micro_ns(apps);
    let (mut ticks, mut polls, mut tick_ns, mut run_ns) = (0.0, 0.0, 0.0, 0.0);
    for r in &first.runs {
        let t = tr(r);
        ticks += t.ticks as f64;
        polls += t.polls as f64;
        tick_ns += micro[r.app].0 * t.ticks as f64;
        run_ns += r.run_cpu_ns as f64;
    }
    let (tick, poll): (Vec<f64>, Vec<f64>) = micro.into_iter().unzip();
    m.set("devices.tick_calls", ticks, "count");
    m.set("devices.pending_irqs_calls", polls, "count");
    m.set("devices.tick_ns", stats::mean(&tick), "ns");
    m.set("devices.pending_irqs_ns", stats::mean(&poll), "ns");
    m.set("devices.tick_share_est", tick_ns / run_ns, "ratio");
}
