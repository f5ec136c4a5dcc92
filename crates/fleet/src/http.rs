//! The daemon's scrape surface: a dependency-free HTTP/1.1 server on
//! `std::net::TcpListener`.
//!
//! The workspace adds no crates, so this is a deliberately small
//! hand-rolled server: one blocking accept loop, one connection at a
//! time, each request read against one whole-request deadline with a
//! bounded size, three routes —
//!
//! * `GET /metrics` — Prometheus text exposition: the merged shard
//!   aggregates through [`opec_obs::prom::render`], plus fleet-level
//!   gauge/counter families appended with the same writer.
//! * `GET /devices` — JSON fleet status (capped device list, explicit
//!   truncation flag).
//! * `POST /firmware` — submit a generated-firmware plan (canonical
//!   corpus JSON, `{"spec": …}`, or `{"seed": N}`); the differential
//!   oracle runs it and the verdict is returned and retained for
//!   `GET /firmware/<id>` (the most recent 4096 verdicts).
//!
//! Scrapes read the sharded aggregates workers publish on a quantum
//! cadence ([`FleetShared::merged`]); they never block guest
//! execution.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use opec_campaign::json::{escape, parse, Value};
use opec_obs::{prom, PromWriter};
use opec_oracle::corpus::spec_from;
use opec_oracle::{generate, run_opec_on, RunBudget};

use crate::mix::FleetBackend;
use crate::sched::FleetShared;

/// Guest fuel for one submitted firmware's oracle run.
const FIRMWARE_FUEL: u64 = 5_000_000;
/// Host wall-clock budget for one submitted firmware's oracle run.
const FIRMWARE_TIMEOUT: Duration = Duration::from_secs(30);
/// Device rows `GET /devices` returns before truncating.
const DEVICE_LIST_CAP: usize = 256;
/// Largest request (headers + body) the server reads.
const MAX_REQUEST: usize = 1 << 20;
/// Time from accept within which a whole request (headers and body)
/// must arrive; a slower client gets a 408.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);
/// Firmware verdicts retained for `GET /firmware/<id>`; older ones are
/// evicted and their ids answer 404.
const VERDICT_CAP: usize = 4096;
/// How often the stop watcher checks the stop flag and retries its
/// wake-up connection, and how long the accept loop backs off after a
/// failed accept. Delays only shutdown, never a request.
const STOP_POLL: Duration = Duration::from_millis(25);

/// The most recent [`VERDICT_CAP`] verdicts, with dense ids: the
/// verdict with id `first_id + i` sits at index `i`.
#[derive(Default)]
struct VerdictStore {
    first_id: u64,
    verdicts: VecDeque<String>,
}

impl VerdictStore {
    /// Assigns the next id, renders the verdict with it, and retains
    /// it, evicting the oldest verdict once [`VERDICT_CAP`] are held.
    fn push(&mut self, render: impl FnOnce(u64) -> String) -> String {
        let id = self.first_id + self.verdicts.len() as u64;
        let json = render(id);
        if self.verdicts.len() == VERDICT_CAP {
            self.verdicts.pop_front();
            self.first_id += 1;
        }
        self.verdicts.push_back(json.clone());
        json
    }

    /// The verdict with `id`, unless it was evicted or never assigned.
    fn get(&self, id: u64) -> Option<&str> {
        let index = usize::try_from(id.checked_sub(self.first_id)?).ok()?;
        self.verdicts.get(index).map(String::as_str)
    }
}

/// Shared state behind the HTTP surface.
pub struct ServeState {
    /// The live fleet's scrape surface.
    pub shared: Arc<FleetShared>,
    verdicts: Mutex<VerdictStore>,
    started: Instant,
}

impl ServeState {
    /// Fresh state over a fleet's shard slots.
    pub fn new(shared: Arc<FleetShared>) -> ServeState {
        ServeState { shared, verdicts: Mutex::default(), started: Instant::now() }
    }

    /// Renders the full `/metrics` payload.
    pub fn metrics_text(&self) -> String {
        let (metrics, sheds, devices) = self.shared.merged();
        let mut text = prom::render(&metrics, sheds);
        let mut w = PromWriter::new();
        w.family("opec_fleet_devices", "gauge", "Logical devices scheduled.");
        w.sample("opec_fleet_devices", &[], devices.len() as u64);
        w.family("opec_fleet_steps_total", "counter", "Guest instructions executed fleet-wide.");
        w.sample("opec_fleet_steps_total", &[], devices.iter().map(|d| d.steps).sum());
        w.family("opec_fleet_quanta_total", "counter", "Device quanta scheduled.");
        w.sample("opec_fleet_quanta_total", &[], devices.iter().map(|d| d.quanta).sum());
        w.family(
            "opec_fleet_resets_total",
            "counter",
            "Device respawns from the golden snapshot (completions + contained faults).",
        );
        w.sample("opec_fleet_resets_total", &[], devices.iter().map(|d| d.resets).sum());
        w.family("opec_fleet_faults_total", "counter", "Guest faults contained to their device.");
        w.sample("opec_fleet_faults_total", &[], devices.iter().map(|d| d.faults).sum());
        w.family("opec_fleet_parked_bytes", "gauge", "Dirty memory held by parked device deltas.");
        w.sample(
            "opec_fleet_parked_bytes",
            &[],
            devices.iter().map(|d| d.parked_bytes as u64).sum(),
        );
        w.family("opec_fleet_uptime_seconds", "gauge", "Daemon uptime.");
        w.sample("opec_fleet_uptime_seconds", &[], self.started.elapsed().as_secs());
        text.push_str(&w.finish());
        text
    }

    /// Renders the `GET /devices` JSON.
    pub fn devices_json(&self) -> String {
        let (_, sheds, devices) = self.shared.merged();
        let truncated = devices.len() > DEVICE_LIST_CAP;
        let list = devices
            .iter()
            .take(DEVICE_LIST_CAP)
            .map(|d| {
                format!(
                    "{{\"id\": {}, \"kind\": \"{}\", \"backend\": \"{}\", \"steps\": {}, \
                     \"quanta\": {}, \"resets\": {}, \"faults\": {}, \"parked_bytes\": {}}}",
                    d.id, d.kind, d.backend, d.steps, d.quanta, d.resets, d.faults, d.parked_bytes
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"devices\": {}, \"steps\": {}, \"quanta\": {}, \"resets\": {}, \"faults\": {}, \
             \"sheds\": {sheds}, \"done\": {}, \"truncated\": {truncated}, \"list\": [{list}]}}",
            devices.len(),
            devices.iter().map(|d| d.steps).sum::<u64>(),
            devices.iter().map(|d| d.quanta).sum::<u64>(),
            devices.iter().map(|d| d.resets).sum::<u64>(),
            devices.iter().map(|d| d.faults).sum::<u64>(),
            self.shared.done.load(Ordering::Acquire),
        )
    }

    /// Runs a submitted firmware plan under the differential oracle
    /// and retains + returns the verdict JSON.
    pub fn submit_firmware(&self, body: &str) -> Result<String, String> {
        let v = parse(body).map_err(|e| format!("bad JSON body: {e}"))?;
        let spec_value = v.get("spec").unwrap_or(&v);
        let spec = if spec_value.get("funcs").is_some() {
            spec_from(spec_value)?
        } else if let Some(seed) = v.get("seed").and_then(Value::as_u64) {
            generate(seed)
        } else {
            return Err("body must be a plan (canonical corpus JSON), {\"spec\": …}, \
                        or {\"seed\": N}"
                .to_string());
        };
        let backends = FleetBackend::list_from_flag(v.get("backend").and_then(Value::as_str))?;
        let backend = backends[0];
        let budget =
            RunBudget { fuel: FIRMWARE_FUEL, deadline: Some(Instant::now() + FIRMWARE_TIMEOUT) };
        let verdict = run_opec_on(&spec, None, &budget, backend)?;
        let fields = format!(
            "\"backend\": \"{}\", \"seed\": {}, \"clean\": {}, \
             \"divergences\": {}, \"checks\": {}, \"probes\": {}, \"switches\": {}, \
             \"run_error\": {}, \"halted_by_budget\": {}}}",
            backend.name(),
            spec.seed,
            verdict.total_divergences == 0 && verdict.run_error.is_none(),
            verdict.total_divergences,
            verdict.checks,
            verdict.probes,
            verdict.switches,
            match &verdict.run_error {
                Some(e) => format!("\"{}\"", escape(e)),
                None => "null".to_string(),
            },
            verdict.halt.is_some(),
        );
        let mut verdicts = self.verdicts.lock().expect("verdict store poisoned");
        Ok(verdicts.push(|id| format!("{{\"id\": {id}, {fields}")))
    }

    /// Looks up a retained verdict.
    pub fn firmware_json(&self, id: u64) -> Option<String> {
        self.verdicts.lock().expect("verdict store poisoned").get(id).map(str::to_string)
    }
}

struct Response {
    status: &'static str,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Response {
        Response { status: "200 OK", content_type, body }
    }

    fn error(status: &'static str, msg: &str) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: format!("{{\"error\": \"{}\"}}\n", escape(msg)),
        }
    }
}

/// Routes one parsed request. Split from the socket plumbing so tests
/// can drive it without a listener.
fn route(state: &ServeState, method: &str, path: &str, body: &str) -> Response {
    match (method, path) {
        ("GET", "/metrics") => {
            Response::ok("text/plain; version=0.0.4; charset=utf-8", state.metrics_text())
        }
        ("GET", "/devices") => Response::ok("application/json", state.devices_json()),
        ("POST", "/firmware") => match state.submit_firmware(body) {
            Ok(json) => Response::ok("application/json", json),
            Err(e) => Response::error("400 Bad Request", &e),
        },
        ("GET", p) if p.starts_with("/firmware/") => {
            match p["/firmware/".len()..].parse::<u64>().ok().and_then(|id| state.firmware_json(id))
            {
                Some(json) => Response::ok("application/json", json),
                None => Response::error("404 Not Found", "no such firmware verdict"),
            }
        }
        ("GET", _) => Response::error("404 Not Found", "routes: /metrics, /devices, /firmware"),
        _ => Response::error("405 Method Not Allowed", "unsupported method"),
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// One read that waits no later than `deadline`: `Ok(None)` once it
/// has passed.
fn read_by(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
) -> std::io::Result<Option<usize>> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Ok(None);
    }
    stream.set_read_timeout(Some(left))?;
    match stream.read(buf) {
        Ok(n) => Ok(Some(n)),
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Reads one request, routes it, writes the response. Connection:
/// close — one request per connection keeps the loop trivially robust.
/// The whole request must arrive within [`REQUEST_DEADLINE`] of the
/// call, so a client trickling bytes cannot hold the only handler.
fn handle(stream: &mut TcpStream, state: &ServeState) -> std::io::Result<()> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let timed_out = || Response::error("408 Request Timeout", "request not received in time");
    stream.set_nodelay(true)?;
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    let header_end = loop {
        // A terminator can straddle the previous read: rescan its last
        // 3 bytes, not the whole buffer.
        let scanned = buf.len().saturating_sub(3);
        let n = match read_by(stream, &mut tmp, deadline)? {
            None => return write_response(stream, &timed_out()),
            Some(0) => return Ok(()),
            Some(n) => n,
        };
        buf.extend_from_slice(&tmp[..n]);
        if let Some(pos) = find_subslice(&buf[scanned..], b"\r\n\r\n") {
            break scanned + pos + 4;
        }
        if buf.len() > MAX_REQUEST {
            return write_response(
                stream,
                &Response::error("431 Request Header Fields Too Large", "headers"),
            );
        }
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let content_length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_REQUEST {
        return write_response(stream, &Response::error("413 Payload Too Large", "body"));
    }
    while buf.len() < header_end + content_length {
        match read_by(stream, &mut tmp, deadline)? {
            None => return write_response(stream, &timed_out()),
            Some(0) => break,
            Some(n) => buf.extend_from_slice(&tmp[..n]),
        }
    }
    let body = String::from_utf8_lossy(&buf[header_end..]).to_string();
    let resp = route(state, &method, &path, &body);
    write_response(stream, &resp)
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

/// Where the stop watcher connects to wake the accept loop: the
/// listener's own address, with an unspecified IP replaced by loopback.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let ip = match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, local.port())
}

/// Raises its flag when dropped, also while unwinding: a panicking
/// handler must release the stop watcher, or the scope never joins and
/// the panic never reaches `serve`'s caller.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Serves until the fleet's stop flag is raised. Accept blocks, so a
/// connection is handled as soon as it arrives. A scoped stop watcher
/// checks the flag every 25 ms; once it is raised, the watcher
/// connects to the listener to wake the blocked accept, retrying until
/// the loop has returned. Per-connection errors are contained to their
/// connection.
pub fn serve(listener: TcpListener, state: Arc<ServeState>) -> std::io::Result<()> {
    listener.set_nonblocking(false)?;
    let wake = wake_addr(listener.local_addr()?);
    let returned = AtomicBool::new(false);
    let stop = &state.shared.stop;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) && !returned.load(Ordering::Acquire) {
                std::thread::sleep(STOP_POLL);
            }
            while !returned.load(Ordering::Acquire) {
                // Dropped at once: if the loop handles it as a request
                // it reads end-of-file and moves on.
                let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
                std::thread::sleep(STOP_POLL);
            }
        });
        let _returned = RaiseOnDrop(&returned);
        for conn in listener.incoming() {
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            match conn {
                // A request that can block (the oracle run in POST
                // /firmware) still finishes in bounded time via its
                // own budget; connection errors never kill the loop.
                Ok(mut stream) => {
                    let _ = handle(&mut stream, &state);
                }
                // Back off so a persistent failure (such as running
                // out of file descriptors) does not spin.
                Err(_) => std::thread::sleep(STOP_POLL),
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServeState {
        ServeState::new(Arc::new(FleetShared::new(2)))
    }

    #[test]
    fn metrics_route_renders_prometheus_text() {
        let s = state();
        let r = route(&s, "GET", "/metrics", "");
        assert_eq!(r.status, "200 OK");
        assert!(r.body.contains("# TYPE opec_events_seen_total counter"));
        assert!(r.body.contains("opec_fleet_devices 0"));
        assert!(r.body.contains("opec_ring_shed_events_total 0"));
    }

    #[test]
    fn devices_route_is_wellformed_json() {
        let s = state();
        let r = route(&s, "GET", "/devices", "");
        let v = parse(&r.body).unwrap();
        assert_eq!(v.get("devices").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("truncated").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn firmware_submit_by_seed_returns_a_clean_verdict() {
        let s = state();
        let r = route(&s, "POST", "/firmware", "{\"seed\": 3}");
        assert_eq!(r.status, "200 OK", "{}", r.body);
        let v = parse(&r.body).unwrap();
        assert_eq!(v.get("clean").and_then(Value::as_bool), Some(true), "{}", r.body);
        assert_eq!(v.get("divergences").and_then(Value::as_u64), Some(0));
        // The verdict is retained for polling.
        let id = v.get("id").and_then(Value::as_u64).unwrap();
        let polled = route(&s, "GET", &format!("/firmware/{id}"), "");
        assert_eq!(polled.body, r.body);
    }

    #[test]
    fn verdict_store_keeps_the_most_recent_verdicts_with_dense_ids() {
        let mut store = VerdictStore::default();
        for i in 0..=VERDICT_CAP as u64 {
            let json = store.push(|id| format!("{{\"id\": {id}}}"));
            assert_eq!(json, format!("{{\"id\": {i}}}"));
        }
        let newest = VERDICT_CAP as u64;
        assert_eq!(store.get(0), None, "the oldest verdict is evicted");
        assert_eq!(store.get(1), Some("{\"id\": 1}"));
        assert_eq!(store.get(newest), Some(format!("{{\"id\": {newest}}}").as_str()));
        assert_eq!(store.get(newest + 1), None);
        assert_eq!(store.get(u64::MAX), None);
        assert_eq!(store.verdicts.len(), VERDICT_CAP);
    }

    #[test]
    fn wake_addr_replaces_only_an_unspecified_ip() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:9100"), "127.0.0.1:9100");
        assert_eq!(wake("[::]:9100"), "[::1]:9100");
        assert_eq!(wake("192.0.2.7:80"), "192.0.2.7:80");
        assert_eq!(wake("127.0.0.1:9100"), "127.0.0.1:9100");
    }

    #[test]
    fn bad_submissions_and_unknown_routes_fail_cleanly() {
        let s = state();
        assert_eq!(route(&s, "POST", "/firmware", "not json").status, "400 Bad Request");
        assert_eq!(route(&s, "POST", "/firmware", "{}").status, "400 Bad Request");
        assert_eq!(route(&s, "GET", "/firmware/99", "").status, "404 Not Found");
        assert_eq!(route(&s, "GET", "/nope", "").status, "404 Not Found");
        assert_eq!(route(&s, "DELETE", "/metrics", "").status, "405 Method Not Allowed");
    }
}
