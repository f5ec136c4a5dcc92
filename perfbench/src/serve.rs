//! The `serve-mixed` workload: an open loop against the daemon wired
//! as `opec-eval serve` wires it — a 64-device fleet on one worker at
//! the default quantum, publishing into the HTTP surface.
//!
//! Two generator threads, one connection each: `POST /firmware
//! {"seed": N}` at 30/s and `GET /metrics` at 10/s. Request `i` of a
//! stream is due at `start + i / rate`; latency is measured from the
//! due time, so a stall that delays later requests shows in their
//! latency, and how late the generator itself ran is reported. A third
//! thread compiles the POSTed firmwares in process, a slice at a time,
//! for `compile_ms`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use opec_campaign::json::{parse, Value};
use opec_core::compile;
use opec_fleet::{run_fleet, FleetOutcome, FleetShared, ServeState, DEFAULT_QUANTUM_FUEL};
use opec_oracle::{generate, run_opec_on, FirmwareSpec, RunBudget};

use crate::fleet;
use crate::host::HostSpeed;
use crate::pin::Pinned;
use crate::stats::{self, Metrics, Outcome, Rng};
use crate::trace::Tracer;

/// Fleet size, as `opec-eval serve` defaults it.
const DEVICES: usize = 64;
/// `POST /firmware` rate, per second. The daemon serves one connection
/// at a time and sleeps 25 ms whenever its accept queue is empty, so a
/// single client connection gets fewer than 40 requests/s through: at
/// 40/s the POST backlog grows for as long as the run lasts. 30/s stays
/// below that, and its 33.3 ms period sweeps the arrival phase across
/// the 25 ms poll cycle every few requests.
const POST_RATE: f64 = 30.0;
/// `GET /metrics` rate, per second.
const SCRAPE_RATE: f64 = 10.0;
/// Latency limit of a verdict.
const SLO_MS: f64 = 50.0;
/// Firmware seeds a POST draws from; every one has a pinned verdict.
const SEED_POOL: u64 = 256;
/// Connect, read and write budget of one request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// Daemon start-ups whose median is `setup_s`: the load's own and the
/// rest after the load.
const SETUP_REPS: usize = 13;
/// Slices the POST schedule's firmwares are compiled in during the
/// load; their sum is `compile_ms`, and the median of the host samples
/// after them scales the fleet's rate.
const COMPILE_SLICES: usize = 40;
/// Seeds the in-process oracle probe times in the traced run.
const ORACLE_PROBES: usize = 16;
/// In-process scrape calls the traced run times.
const SCRAPE_PROBES: usize = 20;
/// Guest fuel of one submitted firmware, as the daemon budgets it.
const FIRMWARE_FUEL: u64 = 5_000_000;
/// Name of the thread that runs the fleet (and, inherited, its workers).
const FLEET_THREAD: &str = "perfbench-fleet";

/// The daemon: fleet thread, HTTP thread, and the state they share.
pub struct Daemon {
    pub addr: SocketAddr,
    pub state: Arc<ServeState>,
    fleet: JoinHandle<Result<FleetOutcome, String>>,
    server: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Starts the daemon and waits until the fleet's first shard
    /// publication (checked in process: an HTTP poll would round the
    /// wait up to the server's 25 ms accept-poll cycle).
    pub fn start() -> Result<Daemon, String> {
        let cfg = fleet::config(DEVICES, DEFAULT_QUANTUM_FUEL, None);
        let listener =
            TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind loopback: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let shared = Arc::new(FleetShared::new(1));
        let state = Arc::new(ServeState::new(shared.clone()));
        let spawn = |name: &str| std::thread::Builder::new().name(name.to_string());
        let server = {
            let state = state.clone();
            spawn("perfbench-http")
                .spawn(move || opec_fleet::serve(listener, state))
                .map_err(|e| format!("spawning the HTTP thread: {e}"))?
        };
        // The fleet's worker threads inherit this name, which is how
        // `fleet_cpu_ns` finds them.
        let fleet = spawn(FLEET_THREAD)
            .spawn(move || run_fleet(&cfg, Some(shared)))
            .map_err(|e| format!("spawning the fleet thread: {e}"))?;
        let daemon = Daemon { addr, state, fleet, server };
        let deadline = Instant::now() + Duration::from_secs(60);
        while daemon.state.shared.merged().2.len() < DEVICES {
            if Instant::now() > deadline || daemon.fleet.is_finished() {
                let _ = daemon.stop();
                return Err("daemon did not publish its fleet within 60 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    /// Confirms the HTTP surface serves the published fleet.
    fn check_http(&self) -> Result<(), String> {
        match request(self.addr, "GET", "/metrics", "")? {
            (200, body) if prom_value(&body, "opec_fleet_devices") == Some(DEVICES as u64) => {
                Ok(())
            }
            (code, _) => Err(format!("GET /metrics after start: status {code}, fleet not shown")),
        }
    }

    /// Host CPU time (ns) the fleet's threads have run so far.
    pub fn fleet_cpu_ns(&self) -> u64 {
        stats::named_threads_cpu_ns(FLEET_THREAD)
    }

    /// Stops the fleet and the HTTP loop and waits for both.
    pub fn stop(self) -> Result<FleetOutcome, String> {
        self.state.shared.stop.store(true, Ordering::Relaxed);
        let server = self.server.join().map_err(|_| "HTTP thread panicked".to_string())?;
        let fleet = self.fleet.join().map_err(|_| "fleet thread panicked".to_string())?;
        server.map_err(|e| format!("HTTP server: {e}"))?;
        fleet
    }
}

/// One HTTP/1.1 request on a fresh connection (the daemon closes every
/// connection after one response). Returns status and body.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u32, String), String> {
    let mut s =
        TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(REQUEST_TIMEOUT)).map_err(|e| e.to_string())?;
    s.set_write_timeout(Some(REQUEST_TIMEOUT)).map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut resp = Vec::new();
    s.read_to_end(&mut resp).map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&resp);
    let (head, body) = text.split_once("\r\n\r\n").ok_or("response has no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or("response has no status code")?;
    Ok((status, body.to_string()))
}

/// The value of an unlabelled Prometheus sample.
fn prom_value(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
}

/// The verdict fields a POST's response must repeat exactly.
fn verdict_stats(v: &Value) -> Vec<(&'static str, String)> {
    let u = |k: &str| v.get(k).and_then(Value::as_u64).map_or("?".to_string(), |n| n.to_string());
    let b = |k: &str| v.get(k).and_then(Value::as_bool).map_or("?".to_string(), |x| x.to_string());
    vec![
        ("clean", b("clean")),
        ("checks", u("checks")),
        ("probes", u("probes")),
        ("switches", u("switches")),
        ("divergences", u("divergences")),
    ]
}

fn pin_subject(seed: u64) -> String {
    format!("serve-mixed seed={seed}")
}

/// The pinned verdict lines, computed in process through the same
/// `ServeState::submit_firmware` path the daemon serves.
pub fn pin_lines() -> Vec<String> {
    let state = ServeState::new(Arc::new(FleetShared::new(1)));
    (0..SEED_POOL)
        .map(|seed| {
            let json = state.submit_firmware(&format!("{{\"seed\": {seed}}}")).expect("verdict");
            let v = parse(&json).expect("verdict JSON");
            crate::pin::line(&pin_subject(seed), &verdict_stats(&v))
        })
        .collect()
}

/// One request as the generator saw it.
#[derive(Clone, Copy)]
struct Sample {
    /// Latency from the due time, ms.
    latency_ms: f64,
    /// How late the generator sent it, ms.
    late_ms: f64,
    ok: bool,
    /// Completion time and the fleet step counter a scrape read.
    scrape: Option<(Instant, u64)>,
}

/// What the two generator threads measured.
struct Load {
    posts: Vec<Sample>,
    scrapes: Vec<Sample>,
    in_flight_max: u64,
    problems: Vec<String>,
}

/// Drives both streams for `seconds`. `seeds` is the POST schedule.
fn drive(
    addr: SocketAddr,
    seeds: &[u64],
    seconds: f64,
    pinned: &Pinned,
    tracer: &mut Tracer,
) -> Load {
    let in_flight = AtomicU64::new(0);
    let in_flight_max = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let epoch_on = tracer.is_on();
    let stream = |rate: f64, post: bool, req_base: u32, mut tr: Tracer| {
        let mut samples = Vec::new();
        let mut problems = Vec::new();
        let mut i = 0usize;
        // Scrapes start half a POST period late so the two streams are
        // never due at the same instant.
        let offset = if post { 0.0 } else { 0.5 / POST_RATE };
        loop {
            let due = start + Duration::from_secs_f64(offset + i as f64 / rate);
            if due >= start + Duration::from_secs_f64(seconds) {
                break;
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let n = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
            in_flight_max.fetch_max(n, Ordering::Relaxed);
            let req_id = req_base + i as u32;
            let root = tr.begin("loadgen.request", req_id);
            let (name, method, path, body) = if post {
                (
                    "http.verdict",
                    "POST",
                    "/firmware",
                    format!("{{\"seed\": {}}}", seeds[i % seeds.len()]),
                )
            } else {
                ("http.scrape", "GET", "/metrics", String::new())
            };
            let h = tr.begin(name, req_id);
            let resp = request(addr, method, path, &body);
            tr.end(h);
            let done = Instant::now();
            tr.end(root);
            in_flight.fetch_sub(1, Ordering::Relaxed);
            let mut sample = Sample {
                latency_ms: (done - due).as_secs_f64() * 1e3,
                late_ms: (sent - due).as_secs_f64() * 1e3,
                ok: false,
                scrape: None,
            };
            match resp {
                Ok((200, text)) if post => match parse(&text) {
                    Ok(v) => {
                        let seed = seeds[i % seeds.len()];
                        let mut check = Outcome::new();
                        pinned.check(&mut check, &pin_subject(seed), &verdict_stats(&v));
                        sample.ok = check.correct;
                        problems.extend(check.problems);
                    }
                    Err(e) => problems.push(format!("verdict is not JSON: {e}")),
                },
                Ok((200, text)) => match prom_value(&text, "opec_fleet_steps_total") {
                    Some(steps) => {
                        sample.ok = true;
                        sample.scrape = Some((done, steps));
                    }
                    None => problems.push("scrape has no opec_fleet_steps_total".to_string()),
                },
                Ok((code, text)) => {
                    problems.push(format!("{method} {path}: status {code}: {}", text.trim()))
                }
                Err(e) => problems.push(format!("{method} {path}: {e}")),
            }
            samples.push(sample);
            i += 1;
        }
        (samples, problems, tr)
    };
    let epoch = tracer.epoch();
    let ((posts, mut problems, post_tr), (scrapes, more, scrape_tr)) = std::thread::scope(|s| {
        let p = s.spawn(|| stream(POST_RATE, true, 0, Tracer::new(epoch_on, epoch)));
        let g = s.spawn(|| stream(SCRAPE_RATE, false, 1 << 30, Tracer::new(epoch_on, epoch)));
        (p.join().expect("POST generator"), g.join().expect("scrape generator"))
    });
    tracer.absorb(post_tr);
    tracer.absorb(scrape_tr);
    problems.extend(more);
    Load { posts, scrapes, in_flight_max: in_flight_max.into_inner(), problems }
}

/// Guest instructions per second of the background fleet: the change
/// in `opec_fleet_steps_total` between the first and last scrapes.
fn fleet_rate(scrapes: &[Sample]) -> Option<f64> {
    let mut read = scrapes.iter().filter_map(|s| s.scrape);
    let (t0, s0) = read.next()?;
    let (t1, s1) = read.next_back()?;
    let dt = (t1 - t0).as_secs_f64();
    (dt > 0.0 && s1 > s0).then(|| (s1 - s0) as f64 / dt)
}

/// The POST schedule: firmware seeds drawn from the workload seed.
fn schedule(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.below(SEED_POOL)).collect()
}

/// Starts a daemon and returns it with the process CPU seconds its
/// start-up took (template compiles, resident boots and the first 64
/// quanta, on the fleet's threads).
fn timed_start() -> Result<(Daemon, f64), String> {
    let cpu = stats::process_cpu_ns();
    let d = Daemon::start()?;
    let secs = (stats::process_cpu_ns() - cpu) as f64 / 1e9;
    d.check_http()?;
    Ok((d, secs))
}

/// Compiles every firmware in `specs` once, through the pipeline the
/// daemon runs for each POST (`build_module`, then
/// `opec_core::compile`): first untimed, to warm this thread's
/// allocator, then — after `ready` — in [`COMPILE_SLICES`] timed slices
/// spread evenly over the next `seconds`, each followed by a host-speed
/// sample. Returns each slice's CPU time in ms, the samples, and the
/// compile failures.
fn compile_during_load(
    specs: &[FirmwareSpec],
    seconds: f64,
    ready: &Barrier,
) -> (Vec<f64>, Vec<f64>, Vec<String>) {
    let mut problems = Vec::new();
    let mut compile_all = |slice: &[FirmwareSpec]| {
        for spec in slice {
            match compile(spec.build_module(), spec.board(), &spec.op_specs()) {
                Ok(c) => drop(std::hint::black_box(c)),
                Err(e) => problems.push(format!("firmware seed {} compile: {e:?}", spec.seed)),
            }
        }
    };
    compile_all(specs);
    let mut host = HostSpeed::new();
    ready.wait();
    let start = Instant::now();
    let (mut times, mut speeds) = (Vec::new(), Vec::new());
    for (i, slice) in specs.chunks(specs.len().div_ceil(COMPILE_SLICES)).enumerate() {
        let due = start + Duration::from_secs_f64(seconds * i as f64 / COMPILE_SLICES as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let cpu = stats::thread_cpu_ns();
        compile_all(slice);
        times.push((stats::thread_cpu_ns() - cpu) as f64 / 1e6);
        speeds.push(host.sample());
    }
    (times, speeds, problems)
}

/// Folds one load into the outcome's counters; returns the SLO misses.
fn account(load: &Load, out: &mut Outcome) -> usize {
    let all = load.posts.iter().chain(&load.scrapes);
    out.attempted += all.clone().count() as u64;
    let failed = all.filter(|s| !s.ok).count() as u64;
    out.failed += failed;
    for p in &load.problems {
        out.wrong(p.clone());
    }
    load.posts.iter().filter(|s| !s.ok || s.latency_ms > SLO_MS).count()
}

fn ok_latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().filter(|s| s.ok).map(|s| s.latency_ms).collect()
}

/// The untraced `serve-mixed` workload.
pub fn workload(seed: u64, seconds: f64, pinned: &Pinned) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut host = HostSpeed::new();
    let seeds = schedule(seed, (POST_RATE * seconds).ceil() as usize + 1);
    let specs: Vec<FirmwareSpec> = seeds.iter().map(|&s| generate(s)).collect();
    let (daemon, first_start) = timed_start()?;
    // Each start-up is scaled by the host sample taken right after it.
    let mut starts = vec![first_start * host.sample()];
    // The compiles and their host samples run on a thread of their own
    // during the load, a few milliseconds at a time, so they see the
    // same host as the daemon's fleet does.
    let ready = Barrier::new(2);
    let (load, (slices_ms, speeds, problems)) = std::thread::scope(|s| {
        let compiles = s.spawn(|| compile_during_load(&specs, seconds, &ready));
        ready.wait();
        let load =
            drive(daemon.addr, &seeds, seconds, pinned, &mut Tracer::new(false, Instant::now()));
        (load, compiles.join().expect("compile thread"))
    });
    for p in problems {
        out.wrong(p);
    }
    let fleet_cpu_ns = daemon.fleet_cpu_ns();
    let fleet = daemon.stop()?;
    // Read before the extra start-ups below, whose freed fleets stay in
    // the allocator's per-thread arenas.
    out.metrics.set("peak_rss_mb", stats::peak_rss_mb(), "MB");
    for _ in 1..SETUP_REPS {
        let (d, secs) = timed_start()?;
        starts.push(secs * host.sample());
        d.stop()?;
    }
    check_fleet(&fleet, &mut out);
    let misses = account(&load, &mut out);
    let verdicts = ok_latencies(&load.posts);
    let scrapes = ok_latencies(&load.scrapes);
    if verdicts.is_empty() || scrapes.len() < 2 {
        return Err("no successful requests to measure".to_string());
    }
    let post_tail = stats::tail_percentile((POST_RATE * seconds) as usize);
    let scrape_tail = stats::tail_percentile((SCRAPE_RATE * seconds) as usize);
    // CPU-bound metrics at nominal host speed (see `HostSpeed`); the
    // request latencies, set by the daemon's accept-poll sleep, stay raw.
    let speed = stats::median(&speeds);
    let raw_rate = fleet.steps() as f64 / (fleet_cpu_ns as f64 / 1e9);
    out.metrics.set("setup_s", stats::median(&starts), "s");
    // Each slice at the nominal speed of the sample taken right after it.
    let scaled: f64 = slices_ms.iter().zip(&speeds).map(|(ms, f)| ms * f).sum();
    out.metrics.set("compile_ms", scaled, "ms");
    out.extra.set("raw_compile_ms", slices_ms.iter().sum::<f64>(), "ms");
    // The background fleet's rate over its whole life, per host CPU
    // second of its threads.
    out.metrics.set("guest_insts_per_s", raw_rate / speed, "1/s");
    out.extra.set("host_speed", speed, "ratio");
    out.extra.set("raw_guest_insts_per_s", raw_rate, "1/s");
    out.extra.set(
        "fleet_insts_per_wall_s",
        fleet_rate(&load.scrapes).ok_or("scrapes saw no fleet progress")?,
        "1/s",
    );
    out.metrics.set("op_p50_ms", stats::median(&verdicts), "ms");
    out.metrics.set("op_tail_ms", stats::quantile(&verdicts, post_tail / 100.0), "ms");
    out.extra.set("op_tail_percentile", post_tail, "pct");
    out.extra.set("op_samples", load.posts.len() as f64, "count");
    out.extra.set("verdict_p50_ms", stats::median(&verdicts), "ms");
    out.extra.set("verdict_tail_ms", stats::quantile(&verdicts, post_tail / 100.0), "ms");
    out.extra.set("scrape_p50_ms", stats::median(&scrapes), "ms");
    out.extra.set("scrape_tail_ms", stats::quantile(&scrapes, scrape_tail / 100.0), "ms");
    out.extra.set("scrape_tail_percentile", scrape_tail, "pct");
    out.extra.set("scrape_samples", load.scrapes.len() as f64, "count");
    out.extra.set("slo_miss_rate", misses as f64 / load.posts.len() as f64, "ratio");
    Ok(out)
}

fn check_fleet(fleet: &FleetOutcome, out: &mut Outcome) {
    if !fleet.panics.is_empty() || fleet.sheds > 0 {
        out.failed += fleet.panics.len() as u64 + fleet.sheds;
        out.wrong(format!(
            "background fleet: {} device panics, {} shed events",
            fleet.panics.len(),
            fleet.sheds
        ));
    }
}

/// The traced serve unit: on one daemon, `seconds` of untraced load,
/// then `seconds` of traced load, then the in-process `scrape` and
/// `oracle` probes against the live state. Returns the trace overhead:
/// the untraced fleet rate over the traced one.
pub fn traced_unit(
    seed: u64,
    seconds: f64,
    pinned: &Pinned,
    tracer: &mut Tracer,
    m: &mut Metrics,
    out: &mut Outcome,
) -> Result<f64, String> {
    let (daemon, _) = timed_start()?;
    let seeds = schedule(seed, (POST_RATE * seconds).ceil() as usize + 1);
    let plain =
        drive(daemon.addr, &seeds, seconds, pinned, &mut Tracer::new(false, Instant::now()));
    account(&plain, out);
    let traced = drive(daemon.addr, &seeds, seconds, pinned, tracer);
    account(&traced, out);
    let before = fleet_rate(&plain.scrapes).ok_or("untraced scrapes saw no progress")?;
    let after = fleet_rate(&traced.scrapes).ok_or("traced scrapes saw no progress")?;
    layer_http(&traced, tracer, &daemon, &seeds, pinned, m, out)?;
    let fleet = daemon.stop()?;
    check_fleet(&fleet, out);
    Ok(before / after)
}

/// `scrape`, `oracle`, `http` and `loadgen` metrics of one traced load.
fn layer_http(
    load: &Load,
    tracer: &mut Tracer,
    daemon: &Daemon,
    seeds: &[u64],
    pinned: &Pinned,
    m: &mut Metrics,
    out: &mut Outcome,
) -> Result<(), String> {
    let state = &daemon.state;
    let mut bytes = 0;
    for _ in 0..SCRAPE_PROBES {
        let s = tracer.begin("scrape.metrics_text", crate::trace::NONE);
        bytes = state.metrics_text().len();
        tracer.end(s);
        let s = tracer.begin("scrape.merged", crate::trace::NONE);
        std::hint::black_box(state.shared.merged());
        tracer.end(s);
    }
    let (mut checks, mut probes) = (0, 0);
    for (i, &seed) in seeds.iter().take(ORACLE_PROBES).enumerate() {
        let req = (1 << 31) + i as u32;
        let s = tracer.begin("oracle.generate", req);
        let spec = generate(seed);
        tracer.end(s);
        let budget = RunBudget { fuel: FIRMWARE_FUEL, deadline: None };
        let s = tracer.begin("oracle.run", req);
        let verdict =
            run_opec_on(&spec, None, &budget, opec_fleet::FleetBackend::Armv7m.dyn_backend())?;
        tracer.end(s);
        if !verdict.clean() || verdict.run_error.is_some() {
            out.wrong(format!("in-process oracle run of seed {seed} is not clean"));
        }
        checks += verdict.checks;
        probes += verdict.probes;
        let s = tracer.begin("oracle.submit", req);
        let json = state.submit_firmware(&format!("{{\"seed\": {seed}}}"))?;
        tracer.end(s);
        match parse(&json) {
            Ok(v) => pinned.check(out, &pin_subject(seed), &verdict_stats(&v)),
            Err(e) => out.wrong(format!("in-process verdict is not JSON: {e}")),
        }
    }
    let p50_us = |name: &str| stats::median(&tracer.durations(name)) / 1e3;
    m.set("scrape.metrics_text_us", p50_us("scrape.metrics_text"), "us");
    m.set("scrape.merged_us", p50_us("scrape.merged"), "us");
    m.set("scrape.bytes", bytes as f64, "bytes");
    m.set("oracle.generate_us", p50_us("oracle.generate"), "us");
    m.set("oracle.run_us", p50_us("oracle.run"), "us");
    m.set("oracle.submit_us", p50_us("oracle.submit"), "us");
    m.set("oracle.checks", checks as f64, "count");
    m.set("oracle.probes", probes as f64, "count");
    let verdicts = ok_latencies(&load.posts);
    let scrapes = ok_latencies(&load.scrapes);
    if verdicts.is_empty() || scrapes.is_empty() {
        return Err("traced load had no successful requests".to_string());
    }
    m.set(
        "http.verdict_overhead_ms",
        stats::median(&verdicts) - p50_us("oracle.submit") / 1e3,
        "ms",
    );
    m.set(
        "http.scrape_overhead_ms",
        stats::median(&scrapes) - p50_us("scrape.metrics_text") / 1e3,
        "ms",
    );
    let late: Vec<f64> = load.posts.iter().chain(&load.scrapes).map(|s| s.late_ms).collect();
    m.set("loadgen.late_ms_p50", stats::median(&late), "ms");
    m.set("loadgen.late_ms_max", late.iter().copied().fold(0.0, f64::max), "ms");
    m.set("loadgen.in_flight_max", load.in_flight_max as f64, "count");
    Ok(())
}
