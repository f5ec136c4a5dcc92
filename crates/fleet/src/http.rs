//! The daemon's scrape surface: a dependency-free HTTP/1.1 server on
//! `std::net::TcpListener`.
//!
//! The evaluation container is network-less and the workspace adds no
//! crates, so this is a deliberately small hand-rolled server: one
//! accept loop, one connection at a time, bounded reads, three
//! routes —
//!
//! * `GET /metrics` — Prometheus text exposition: the merged shard
//!   aggregates through [`opec_obs::prom::render`], plus fleet-level
//!   gauge/counter families appended with the same writer.
//! * `GET /devices` — JSON fleet status (capped device list, explicit
//!   truncation flag).
//! * `POST /firmware` — submit a generated-firmware plan (canonical
//!   corpus JSON, `{"spec": …}`, or `{"seed": N}`); the differential
//!   oracle runs it and the verdict is returned and retained for
//!   `GET /firmware/<id>`.
//!
//! Scrapes read the sharded aggregates workers publish on a quantum
//! cadence ([`FleetShared::merged`]); they never block guest
//! execution.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// One retained firmware verdict.
struct FirmwareRecord {
    id: u64,
    json: String,
}

/// Shared state behind the HTTP surface.
pub struct ServeState {
    /// The live fleet's scrape surface.
    pub shared: Arc<FleetShared>,
    firmware: Mutex<Vec<FirmwareRecord>>,
    next_id: AtomicU64,
    started: Instant,
}

impl ServeState {
    /// Fresh state over a fleet's shard slots.
    pub fn new(shared: Arc<FleetShared>) -> ServeState {
        ServeState {
            shared,
            firmware: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(0),
            started: Instant::now(),
        }
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
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let json = format!(
            "{{\"id\": {id}, \"backend\": \"{}\", \"seed\": {}, \"clean\": {}, \
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
        self.firmware
            .lock()
            .expect("firmware log poisoned")
            .push(FirmwareRecord { id, json: json.clone() });
        Ok(json)
    }

    /// Looks up a retained verdict.
    pub fn firmware_json(&self, id: u64) -> Option<String> {
        let log = self.firmware.lock().expect("firmware log poisoned");
        log.iter().find(|r| r.id == id).map(|r| r.json.clone())
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

/// Reads one request, routes it, writes the response. Connection:
/// close — one request per connection keeps the loop trivially robust.
fn handle(stream: &mut TcpStream, state: &ServeState) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true)?;
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    let header_end = loop {
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Ok(());
        }
        buf.extend_from_slice(&tmp[..n]);
        if let Some(pos) = find_subslice(&buf, b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > MAX_REQUEST {
            return write_response(stream, &Response::error("431 Request Too Large", "headers"));
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
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&tmp[..n]);
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

/// Serves until the fleet's stop flag is raised. The listener is
/// non-blocking so the stop flag is honored within ~25 ms even with no
/// traffic; per-connection errors are contained to their connection.
pub fn serve(listener: TcpListener, state: Arc<ServeState>) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if state.shared.stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                // A request that can block (the oracle run in POST
                // /firmware) still finishes in bounded time via its
                // own budget; connection errors never kill the loop.
                if stream.set_nonblocking(false).is_ok() {
                    let _ = handle(&mut stream, &state);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
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
    fn bad_submissions_and_unknown_routes_fail_cleanly() {
        let s = state();
        assert_eq!(route(&s, "POST", "/firmware", "not json").status, "400 Bad Request");
        assert_eq!(route(&s, "POST", "/firmware", "{}").status, "400 Bad Request");
        assert_eq!(route(&s, "GET", "/firmware/99", "").status, "404 Not Found");
        assert_eq!(route(&s, "GET", "/nope", "").status, "404 Not Found");
        assert_eq!(route(&s, "DELETE", "/metrics", "").status, "405 Method Not Allowed");
    }
}
