//! The `fleet-churn` workload: batch `run_fleet` calls with a small
//! quantum, so restore + unpark + park are a large share of each
//! quantum; and the traced replica of the quantum protocol that
//! attributes that share.

use std::time::Instant;

use opec_core::OpecMonitor;
use opec_fleet::mix::plan_devices;
use opec_fleet::{run_fleet, DeviceKind, FleetBackend, FleetConfig, FleetOutcome, Mix, Template};
use opec_obs::Metrics as ObsMetrics;
use opec_vm::{VmDelta, VmError};

use crate::host::HostSpeed;
use crate::pin::Pinned;
use crate::stats::{self, Metrics, Outcome};
use crate::trace::Tracer;

/// Logical devices: 512 parked deltas outgrow one VM's working set.
const DEVICES: usize = 512;
/// Guest fuel per quantum: small, so snapshot work is a large share.
const QUANTUM: u64 = 500;
/// Scheduler rounds per `run_fleet` call (the pinned totals hold for
/// exactly this many).
const ROUNDS: u64 = 8;
/// Calls every run makes at least, so the tail percentile is fixed.
const MIN_CALLS: usize = 40;
/// Set-up repetitions before the first call; one more follows every
/// call, and the median of all of them is `setup_s`.
const SETUP_REPS_FIRST: usize = 3;
/// Template-set compiles whose median is `fleet.template_build_ms`.
const COMPILE_REPS: usize = 5;

pub fn config(devices: usize, quantum: u64, rounds: Option<u64>) -> FleetConfig {
    FleetConfig {
        devices,
        workers: Some(1),
        quantum_fuel: quantum,
        rounds,
        duration: None,
        mix: Mix::default(),
        backends: FleetBackend::ALL.to_vec(),
        ring: None,
    }
}

pub fn churn_config() -> FleetConfig {
    config(DEVICES, QUANTUM, Some(ROUNDS))
}

/// The distinct `(kind, backend)` pairs of `cfg`'s devices, in plan
/// order: the templates `run_fleet` compiles.
fn template_pairs(cfg: &FleetConfig) -> Vec<(DeviceKind, FleetBackend)> {
    let mut pairs = Vec::new();
    for pair in plan_devices(cfg.devices, &cfg.mix, &cfg.backends) {
        if !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    pairs
}

/// Builds every template `cfg` needs and boots one resident each —
/// the work `run_fleet` does before its first quantum.
fn build_templates(cfg: &FleetConfig) -> Vec<Template> {
    let templates: Vec<Template> = template_pairs(cfg)
        .into_iter()
        .map(|(kind, backend)| Template::build(kind, backend).expect("fleet template compiles"))
        .collect();
    for t in &templates {
        t.resident(None).expect("fleet template boots");
    }
    templates
}

/// Host CPU time (ms, at nominal speed) of each of `reps` compiles of
/// `cfg`'s whole template set.
fn template_compile_ms(cfg: &FleetConfig, host: &mut HostSpeed, reps: usize) -> Vec<f64> {
    let pairs = template_pairs(cfg);
    (0..reps)
        .map(|_| {
            let cpu = stats::thread_cpu_ns();
            for &(kind, backend) in &pairs {
                std::hint::black_box(
                    Template::build(kind, backend).expect("fleet template compiles"),
                );
            }
            (stats::thread_cpu_ns() - cpu) as f64 / 1e6 * host.sample()
        })
        .collect()
}

/// CPU seconds (at nominal speed) of each of `reps` repetitions of
/// building the templates and booting their residents.
fn setup_cpu_s(cfg: &FleetConfig, host: &mut HostSpeed, reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let cpu = stats::thread_cpu_ns();
            build_templates(cfg);
            (stats::thread_cpu_ns() - cpu) as f64 / 1e9 * host.sample()
        })
        .collect()
}

fn totals(out: &FleetOutcome) -> Vec<(&'static str, String)> {
    vec![
        ("steps", out.steps().to_string()),
        ("quanta", out.quanta().to_string()),
        ("resets", out.resets().to_string()),
        ("faults", out.faults().to_string()),
    ]
}

fn pin_subject() -> String {
    format!("fleet-churn devices={DEVICES} quantum={QUANTUM} rounds={ROUNDS}")
}

/// One checked `run_fleet` call of the churn configuration. Returns the
/// outcome and the call's host CPU time in seconds (the process's: the
/// call runs its schedule on a worker thread of its own).
pub fn churn_call(pinned: &Pinned, out: &mut Outcome) -> (FleetOutcome, f64) {
    let cpu = stats::process_cpu_ns();
    let fleet = run_fleet(&churn_config(), None).expect("churn fleet runs");
    let cpu = (stats::process_cpu_ns() - cpu) as f64 / 1e9;
    out.attempted += fleet.quanta();
    let bad = fleet.panics.len() as u64 + fleet.sheds;
    if bad > 0 {
        out.failed += bad;
        out.wrong(format!(
            "fleet: {} device panics, {} shed events",
            fleet.panics.len(),
            fleet.sheds
        ));
    }
    pinned.check(out, &pin_subject(), &totals(&fleet));
    (fleet, cpu)
}

pub fn pin_line(fleet: &FleetOutcome) -> String {
    crate::pin::line(&pin_subject(), &totals(fleet))
}

/// The untraced `fleet-churn` workload. Times are CPU times at nominal
/// host speed (see [`HostSpeed`]).
pub fn workload(seconds: f64, pinned: &Pinned) -> Outcome {
    let mut out = Outcome::new();
    let cfg = churn_config();
    let mut host = HostSpeed::new();
    let mut setup = setup_cpu_s(&cfg, &mut host, SETUP_REPS_FIRST);
    let start = Instant::now();
    // One compile of the template set and one set-up after every call
    // spread those samples over the run, as the host's speed drifts.
    let mut compile_ms = Vec::new();
    let mut steps = 0;
    let mut raw_cpu_s = 0.0;
    // CPU time of each call at nominal speed, in ms.
    let mut calls = Vec::new();
    while calls.len() < MIN_CALLS || start.elapsed().as_secs_f64() < seconds {
        let (fleet, cpu) = churn_call(pinned, &mut out);
        steps += fleet.steps();
        raw_cpu_s += cpu;
        calls.push(cpu * 1e3 * host.sample());
        compile_ms.extend(template_compile_ms(&cfg, &mut host, 1));
        setup.extend(setup_cpu_s(&cfg, &mut host, 1));
    }
    let tail = stats::tail_percentile(MIN_CALLS);
    let cpu_s: f64 = calls.iter().sum::<f64>() / 1e3;
    out.metrics.set("setup_s", stats::median(&setup), "s");
    out.metrics.set("compile_ms", stats::median(&compile_ms), "ms");
    out.metrics.set("guest_insts_per_s", steps as f64 / cpu_s, "1/s");
    out.metrics.set("op_p50_ms", stats::median(&calls), "ms");
    out.metrics.set("op_tail_ms", stats::quantile(&calls, tail / 100.0), "ms");
    out.metrics.set("peak_rss_mb", stats::peak_rss_mb(), "MB");
    out.extra.set("host_speed", host.factor(), "ratio");
    out.extra.set("raw_guest_insts_per_s", steps as f64 / raw_cpu_s, "1/s");
    out.extra.set("op_tail_percentile", tail, "pct");
    out.extra.set("op_samples", calls.len() as f64, "count");
    out
}

/// Totals and timings of one replica schedule.
pub struct Replica {
    pub steps: u64,
    pub quanta: u64,
    pub resets: u64,
    pub faults: u64,
    pub parked_bytes: u64,
    pub parks: u64,
    /// Wall time of the schedule, resident builds included (what
    /// `FleetOutcome::wall` covers), in ns.
    pub wall_ns: u64,
}

/// One device's replica state, as `run_fleet`'s device task keeps it.
struct Device {
    template: usize,
    delta: Option<VmDelta<OpecMonitor>>,
    metrics: ObsMetrics,
}

/// Replays `run_fleet`'s single-worker quantum protocol over the
/// templates' residents — restore golden, unpark, swap the device's
/// metrics in, resume one quantum, swap back, park — with a span
/// around each step.
pub fn replica(cfg: &FleetConfig, tracer: &mut Tracer) -> Replica {
    let plan = plan_devices(cfg.devices, &cfg.mix, &cfg.backends);
    let templates = build_templates(cfg);
    let start = Instant::now();
    let mut residents: Vec<_> =
        templates.iter().map(|t| t.resident(None).expect("template boots")).collect();
    let mut devices: Vec<Device> = plan
        .iter()
        .map(|&(kind, backend)| Device {
            template: templates
                .iter()
                .position(|t| t.kind == kind && t.backend == backend)
                .expect("template built for every planned pair"),
            delta: None,
            metrics: ObsMetrics::new(),
        })
        .collect();
    let mut r = Replica {
        steps: 0,
        quanta: 0,
        resets: 0,
        faults: 0,
        parked_bytes: 0,
        parks: 0,
        wall_ns: 0,
    };
    let rounds = cfg.rounds.expect("the replica runs a fixed round count");
    for _ in 0..rounds {
        for (id, dev) in devices.iter_mut().enumerate() {
            let q = tracer.begin("fleet.quantum", id as u32);
            let res = &mut residents[dev.template];
            let s = tracer.begin("snapshot.restore", id as u32);
            res.vm.restore(&res.golden);
            tracer.end(s);
            if let Some(d) = &dev.delta {
                let s = tracer.begin("snapshot.unpark", id as u32);
                res.vm.unpark(d).expect("parked delta matches its golden snapshot");
                tracer.end(s);
            }
            std::mem::swap(&mut dev.metrics, &mut *res.slot.borrow_mut());
            let before = res.vm.stats.insts;
            let s = tracer.begin("snapshot.resume", id as u32);
            let result = res.vm.resume(cfg.quantum_fuel);
            tracer.end(s);
            r.steps += res.vm.stats.insts - before;
            r.quanta += 1;
            std::mem::swap(&mut dev.metrics, &mut *res.slot.borrow_mut());
            match result {
                Err(VmError::OutOfFuel) => {
                    let s = tracer.begin("snapshot.park", id as u32);
                    let d = res.vm.park().expect("park after an in-budget quantum");
                    tracer.end(s);
                    r.parked_bytes += d.page_bytes() as u64;
                    r.parks += 1;
                    dev.delta = Some(d);
                }
                Ok(_) => {
                    dev.delta = None;
                    r.resets += 1;
                }
                Err(_) => {
                    dev.delta = None;
                    r.faults += 1;
                    r.resets += 1;
                }
            }
            tracer.end(q);
        }
    }
    r.wall_ns = start.elapsed().as_nanos() as u64;
    r
}

/// Per-layer `snapshot` and `fleet` metrics from one replica schedule
/// checked against one `run_fleet` call of the same configuration.
/// When the totals disagree the `snapshot` numbers are not reported
/// and the run is not correct.
pub fn layer_metrics(
    cfg: &FleetConfig,
    fleet: &FleetOutcome,
    rep: &Replica,
    tracer: &Tracer,
    m: &mut Metrics,
    out: &mut Outcome,
) {
    let same = (rep.steps, rep.quanta, rep.resets, rep.faults)
        == (fleet.steps(), fleet.quanta(), fleet.resets(), fleet.faults());
    if same {
        let mean_us = |name: &str| {
            let d = tracer.durations(name);
            stats::mean(&d) / 1e3
        };
        let snap_ns: u64 = ["snapshot.restore", "snapshot.unpark", "snapshot.park"]
            .iter()
            .map(|n| tracer.total_ns(n))
            .sum();
        m.set("snapshot.restore_us", mean_us("snapshot.restore"), "us");
        m.set("snapshot.unpark_us", mean_us("snapshot.unpark"), "us");
        m.set("snapshot.park_us", mean_us("snapshot.park"), "us");
        m.set("snapshot.resume_us", mean_us("snapshot.resume"), "us");
        m.set("snapshot.parked_bytes", rep.parked_bytes as f64 / rep.parks.max(1) as f64, "bytes");
        m.set("snapshot.share", snap_ns as f64 / tracer.total_ns("fleet.quantum") as f64, "ratio");
    } else {
        out.wrong(format!(
            "quantum replica totals (steps {}, quanta {}, resets {}, faults {}) differ from \
             run_fleet's ({}, {}, {}, {}) for {} devices x {:?} rounds",
            rep.steps,
            rep.quanta,
            rep.resets,
            rep.faults,
            fleet.steps(),
            fleet.quanta(),
            fleet.resets(),
            fleet.faults(),
            cfg.devices,
            cfg.rounds
        ));
    }
    let compile_ms = template_compile_ms(cfg, &mut HostSpeed::new(), COMPILE_REPS);
    m.set("fleet.template_build_ms", stats::median(&compile_ms), "ms");
    m.set("fleet.quanta", fleet.quanta() as f64, "count");
    m.set("fleet.resets", fleet.resets() as f64, "count");
    m.set("fleet.faults", fleet.faults() as f64, "count");
    m.set("fleet.completion_ratio", fleet.resets() as f64 / fleet.quanta().max(1) as f64, "ratio");
}

/// Guest instructions per wall second of a replica schedule.
pub fn replica_rate(rep: &Replica) -> f64 {
    rep.steps as f64 / (rep.wall_ns as f64 / 1e9)
}
