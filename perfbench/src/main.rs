//! `opec-perfbench`: the repository's benchmark.
//!
//! ```text
//! opec-perfbench --workload apps|fleet-churn|serve-mixed --seed N --seconds S --trace 0|1 [--spans FILE]
//! opec-perfbench pin        # prints a fresh pinned-statistics table
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics
//! with tracing off. With `--trace 1` it measures the workload's trace
//! overhead (half the time untraced, half traced) and then every
//! layer's metrics, so each traced run reports the same set of
//! per-layer metrics. The last line of standard output is the result
//! object; a `# extra` line before it carries side facts (which
//! percentile the tail is, the workload's own metric names). The exit
//! code is 1 when any output was wrong.

mod apps;
mod fleet;
mod host;
mod pin;
mod serve;
mod stats;
mod trace;

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use pin::Pinned;
use stats::{Metrics, Outcome, Rng};
use trace::Tracer;

/// Seconds of untraced, then traced, load the serve unit runs when the
/// workload is not `serve-mixed`.
const SERVE_UNIT_SECONDS: f64 = 1.5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Apps,
    FleetChurn,
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "apps" => Ok(Workload::Apps),
            "fleet-churn" => Ok(Workload::FleetChurn),
            "serve-mixed" => Ok(Workload::ServeMixed),
            other => Err(format!(
                "unknown workload {other:?} (expected apps, fleet-churn or serve-mixed)"
            )),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--spans" => spans = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

/// Every layer's metrics, plus the workload's own trace overhead.
fn traced(args: &Args, pinned: &Pinned) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut m = Metrics::default();
    let tracer = Rc::new(RefCell::new(Tracer::new(true, Instant::now())));
    let half = args.seconds / 2.0;
    let all_apps = apps::Apps::new();
    let mut rng = Rng::new(args.seed);
    // The traced run compares adjacent untraced and traced stretches, so
    // it reports raw rates; this only feeds the untraced passes.
    let mut host = host::HostSpeed::new();

    let apps_unit = |passes: &mut Vec<apps::TracedPass>, out: &mut Outcome, rng: &mut Rng| {
        passes.push(apps::traced_pass(&all_apps, rng, &tracer, pinned, out));
    };
    let fleet_unit = |m: &mut Metrics, out: &mut Outcome| -> f64 {
        let cfg = fleet::churn_config();
        let rep = fleet::replica(&cfg, &mut tracer.borrow_mut());
        let (outcome, _) = fleet::churn_call(pinned, out);
        fleet::layer_metrics(&cfg, &outcome, &rep, &tracer.borrow(), m, out);
        fleet::replica_rate(&rep)
    };

    let mut passes = Vec::new();
    let overhead = match args.workload {
        Workload::Apps => {
            let start = Instant::now();
            let mut plain = Vec::new();
            while plain.is_empty() || start.elapsed().as_secs_f64() < half {
                let p = apps::checked_pass(&all_apps, &mut rng, &mut host, pinned, &mut out);
                plain.push(apps::insts_per_cpu_s(&p.runs));
            }
            let start = Instant::now();
            while passes.is_empty() || start.elapsed().as_secs_f64() < half {
                apps_unit(&mut passes, &mut out, &mut rng);
            }
            let traced: Vec<f64> = passes.iter().map(|p| apps::insts_per_cpu_s(&p.runs)).collect();
            fleet_unit(&mut m, &mut out);
            let mut t = tracer.borrow_mut();
            serve::traced_unit(args.seed, SERVE_UNIT_SECONDS, pinned, &mut t, &mut m, &mut out)?;
            stats::median(&plain) / stats::median(&traced)
        }
        Workload::FleetChurn => {
            let start = Instant::now();
            let mut plain = Vec::new();
            // The same replica schedule with its recorder off, so the
            // ratio compares one implementation with and without spans.
            let cfg = fleet::churn_config();
            while plain.is_empty() || start.elapsed().as_secs_f64() < half {
                let off = &mut Tracer::new(false, Instant::now());
                plain.push(fleet::replica_rate(&fleet::replica(&cfg, off)));
            }
            let start = Instant::now();
            let mut traced = Vec::new();
            while traced.is_empty() || start.elapsed().as_secs_f64() < half {
                traced.push(fleet_unit(&mut m, &mut out));
            }
            apps_unit(&mut passes, &mut out, &mut rng);
            let mut t = tracer.borrow_mut();
            serve::traced_unit(args.seed, SERVE_UNIT_SECONDS, pinned, &mut t, &mut m, &mut out)?;
            stats::median(&plain) / stats::median(&traced)
        }
        Workload::ServeMixed => {
            // The daemon records no spans; only the load generator's
            // spans differ between the halves, so this covers it alone.
            let overhead = {
                let mut t = tracer.borrow_mut();
                serve::traced_unit(args.seed, half, pinned, &mut t, &mut m, &mut out)?
            };
            apps_unit(&mut passes, &mut out, &mut rng);
            fleet_unit(&mut m, &mut out);
            overhead
        }
    };
    apps::layer_metrics(&all_apps, &passes, &tracer.borrow(), &mut m);
    m.set("trace.overhead", overhead, "ratio");
    if let Some(path) = &args.spans {
        tracer.borrow().write(path).map_err(|e| format!("writing spans to {path}: {e}"))?;
        print_self_times(&tracer.borrow());
    }
    out.metrics = m;
    Ok(out)
}

/// Prints the self time of every span name, largest first.
fn print_self_times(t: &Tracer) {
    let mut selfs: Vec<_> = t.self_ns().into_iter().collect();
    selfs.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    for (name, ns) in selfs {
        println!("# self {name} {:.3} ms", ns as f64 / 1e6);
    }
}

/// Prints a fresh pinned table (for `pinned.txt`).
fn pin() {
    let apps = apps::Apps::new();
    let mut rng = Rng::new(0);
    let plain = apps::untraced_pass(&apps, &mut rng, &mut host::HostSpeed::new());
    let tracer = Rc::new(RefCell::new(Tracer::new(true, Instant::now())));
    let empty = Pinned::load();
    let mut scratch = Outcome::new();
    let traced = apps::traced_pass(&apps, &mut rng, &tracer, &empty, &mut scratch);
    println!("# Pinned simulated statistics; regenerate with `opec-perfbench pin`.");
    let mut lines = Vec::new();
    for r in &plain.runs {
        let t = traced.runs.iter().find(|t| t.label == r.label).expect("same builds");
        let s = apps::pinned_stats(r);
        assert_eq!(s, apps::pinned_stats(t), "{}: traced run differs from untraced", r.label);
        if let Err(e) = &r.ok {
            panic!("{}: {e}", r.label);
        }
        lines.push(pin::line(&format!("apps {}", r.label), &s));
    }
    lines.sort();
    for l in lines {
        println!("{l}");
    }
    let mut out = Outcome::new();
    let (fleet, _) = fleet::churn_call(&empty, &mut out);
    println!("{}", fleet::pin_line(&fleet));
    for l in serve::pin_lines() {
        println!("{l}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("pin") {
        pin();
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("opec-perfbench: {e}");
        std::process::exit(2);
    });
    let pinned = Pinned::load();
    let result = if args.trace {
        traced(&args, &pinned)
    } else {
        match args.workload {
            Workload::Apps => Ok(apps::workload(args.seed, args.seconds, &pinned)),
            Workload::FleetChurn => Ok(fleet::workload(args.seconds, &pinned)),
            Workload::ServeMixed => serve::workload(args.seed, args.seconds, &pinned),
        }
    };
    let out = result.unwrap_or_else(|e| {
        eprintln!("opec-perfbench: {e}");
        std::process::exit(1);
    });
    for p in out.problems.iter().take(20) {
        eprintln!("opec-perfbench: wrong: {p}");
    }
    println!("{}", out.extra_line());
    println!("{}", out.result_line());
    if !out.correct {
        std::process::exit(1);
    }
}
