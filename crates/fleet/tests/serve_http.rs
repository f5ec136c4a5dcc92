//! End-to-end HTTP test: a real fleet running on worker threads while
//! a real `TcpListener` serves scrapes — the exact deployment shape of
//! `opec-eval serve`, on an ephemeral port.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use opec_campaign::json;
use opec_fleet::{run_fleet, serve, FleetConfig, FleetShared, ServeState};
use opec_oracle::corpus::spec_json;
use opec_oracle::gen::Stmt;
use opec_oracle::generate;

/// One request over a fresh connection (the server is
/// `Connection: close`), returning `(status_line, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (String, String) {
    request_within(addr, method, path, body, Duration::from_secs(60))
}

/// [`request`], failing if any read waits longer than `timeout`.
fn request_within(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(timeout)).unwrap();
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("header terminator");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, payload.to_string())
}

/// `serve` on an ephemeral loopback port with no fleet behind it.
struct Server {
    addr: SocketAddr,
    shared: Arc<FleetShared>,
    returned: Receiver<std::io::Result<()>>,
    thread: JoinHandle<()>,
}

impl Server {
    fn start() -> Server {
        let shared = Arc::new(FleetShared::new(1));
        let state = Arc::new(ServeState::new(shared.clone()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("local addr");
        let (tx, returned) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(serve(listener, state));
        });
        Server { addr, shared, returned, thread }
    }

    /// Raises the stop flag; `serve` must return cleanly within
    /// `limit` (a wedged accept fails here instead of hanging).
    fn stop_within(self, limit: Duration) {
        self.shared.stop.store(true, Ordering::Relaxed);
        match self.returned.recv_timeout(limit) {
            Ok(result) => result.expect("server exits cleanly"),
            Err(e) => panic!("serve did not return within {limit:?} of stop: {e}"),
        }
        self.thread.join().expect("server thread");
    }
}

#[test]
fn serve_answers_scrapes_while_a_fleet_runs() {
    let workers = 2;
    let shared = Arc::new(FleetShared::new(workers));
    let state = Arc::new(ServeState::new(shared.clone()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");

    let server = {
        let state = state.clone();
        std::thread::spawn(move || serve(listener, state))
    };
    let fleet = {
        let shared = shared.clone();
        let cfg = FleetConfig {
            devices: 8,
            workers: Some(workers),
            rounds: None,
            duration: Some(Duration::from_secs(120)), // backstop; stop flag ends it sooner
            ..FleetConfig::default()
        };
        std::thread::spawn(move || run_fleet(&cfg, Some(shared)))
    };

    // Scrape until the fleet has published work (publication happens
    // every PUBLISH_QUANTA quanta, so poll briefly).
    let mut metrics = String::new();
    for _ in 0..600 {
        let (status, body) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, "HTTP/1.1 200 OK");
        if body.contains("opec_fleet_devices 8") && body.contains("opec_fleet_steps_total") {
            metrics = body;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        metrics.contains("opec_fleet_devices 8"),
        "fleet never published its device census to /metrics"
    );
    assert!(metrics.contains("# TYPE opec_switches_total counter"));
    assert!(metrics.contains("opec_ring_shed_events_total"));

    // /devices: well-formed JSON with one entry per device.
    let (status, body) = request(addr, "GET", "/devices", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let v = json::parse(&body).expect("devices JSON parses");
    assert_eq!(v.get("devices").and_then(|d| d.as_u64()), Some(8));
    let listed = v.get("list").and_then(|l| l.as_arr()).expect("device list");
    assert_eq!(listed.len(), 8);

    // POST /firmware: a generated plan by seed, run under the
    // differential oracle while the fleet keeps executing.
    let (status, body) = request(addr, "POST", "/firmware", "{\"seed\": 3}");
    assert_eq!(status, "HTTP/1.1 200 OK", "firmware submit failed: {body}");
    let verdict = json::parse(&body).expect("verdict JSON parses");
    assert_eq!(verdict.get("clean").and_then(|c| c.as_bool()), Some(true), "{body}");
    assert_eq!(verdict.get("divergences").and_then(|d| d.as_u64()), Some(0));
    let id = verdict.get("id").and_then(|i| i.as_u64()).expect("verdict id");

    // The verdict is retained and readable back.
    let (status, replay) = request(addr, "GET", &format!("/firmware/{id}"), "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(replay, body);

    // Unknown routes stay contained.
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    // Cooperative shutdown: raise the stop flag; the fleet drains and
    // the server loop exits.
    shared.stop.store(true, Ordering::Relaxed);
    let outcome = fleet.join().expect("fleet thread").expect("fleet outcome");
    assert_eq!(outcome.devices.len(), 8);
    assert!(outcome.panics.is_empty(), "device panics: {:?}", outcome.panics);
    server.join().expect("server thread").expect("server exits cleanly");
}

/// Hostile `POST /firmware` bodies cost only their own request: each
/// gets a 400, and the server thread survives to answer `/metrics`.
#[test]
fn hostile_firmware_bodies_get_400_and_serving_continues() {
    let server = Server::start();
    let addr = server.addr;

    // A plan whose `main` holds one out-of-range index: a call to
    // function 999, a load of global 77, an access to peripheral 9.
    let plan_with = |stmt: Stmt| {
        let mut spec = generate(3);
        spec.funcs[0].body.push(stmt);
        spec_json(&spec)
    };
    let bodies = [
        // Half a MiB of `[`: under the 1 MiB request cap, and deep
        // enough to overflow an unbounded recursive parser's stack.
        "[".repeat(512 * 1024),
        plan_with(Stmt::Call { f: 999 }),
        plan_with(Stmt::LoadG { g: 77, off: 0 }),
        plan_with(Stmt::Mmio { p: 9, reg: 0, write: false }),
    ];
    for body in &bodies {
        let (status, reply) = request(addr, "POST", "/firmware", body);
        assert_eq!(status, "HTTP/1.1 400 Bad Request", "{reply}");
        let (status, metrics) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(metrics.contains("opec_fleet_devices"));
    }

    server.stop_within(Duration::from_secs(1));
}

/// Accept blocks instead of polling: a request on an idle server is
/// read as soon as it arrives, not at the next poll tick.
#[test]
fn idle_requests_are_not_delayed() {
    let server = Server::start();
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let (status, _) = request(server.addr, "GET", "/metrics", "");
            assert_eq!(status, "HTTP/1.1 200 OK");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    assert!(median < 5.0, "median idle /metrics latency {median:.2} ms; all: {ms:.2?}");
    server.stop_within(Duration::from_secs(1));
}

/// The stop flag ends `serve` promptly with nothing in flight: the
/// blocked accept is woken, both when it never served anything and
/// right after a request.
#[test]
fn stop_ends_serve_promptly() {
    Server::start().stop_within(Duration::from_secs(1));

    let server = Server::start();
    let (status, _) = request(server.addr, "GET", "/metrics", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    server.stop_within(Duration::from_secs(1));
}

/// A slow-loris client that trickles one header byte every 200 ms and
/// never ends its headers gets a 408 at the whole-request deadline
/// (5 s), and a scrape queued behind it is answered right after.
#[test]
fn a_trickling_client_gets_408_and_does_not_hold_scrapes() {
    let server = Server::start();
    let mut trickler = TcpStream::connect(server.addr).expect("connect");
    trickler.write_all(b"G").expect("first byte");
    let answered = Arc::new(AtomicBool::new(false));
    let reader = {
        let mut input = trickler.try_clone().expect("clone trickler");
        let answered = answered.clone();
        std::thread::spawn(move || {
            input.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            let mut raw = Vec::new();
            // A reset after the response is fine; the bytes read stay.
            let _ = input.read_to_end(&mut raw);
            answered.store(true, Ordering::Relaxed);
            String::from_utf8_lossy(&raw).to_string()
        })
    };
    let writer = {
        let answered = answered.clone();
        std::thread::spawn(move || {
            // Gives up after ~15 s, so a server that lets the trickler
            // hold its handler fails this test instead of hanging it.
            let rest = b"ET /metrics HTTP/1.1\r\nX-Slow: ".iter().chain(std::iter::repeat(&b'a'));
            for &byte in rest.take(75) {
                std::thread::sleep(Duration::from_millis(200));
                if answered.load(Ordering::Relaxed) || trickler.write_all(&[byte]).is_err() {
                    break;
                }
            }
        })
    };

    let sent = Instant::now();
    let (status, body) = request_within(server.addr, "GET", "/metrics", "", Duration::from_secs(8));
    let waited = sent.elapsed();
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("opec_fleet_devices"));
    assert!(waited < Duration::from_secs(8), "scrape waited {waited:?} behind the trickler");

    let reply = reader.join().expect("trickler reader");
    assert!(reply.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "trickler got: {reply:?}");
    writer.join().expect("trickler writer");
    server.stop_within(Duration::from_secs(1));
}

/// Just over 1 MiB of header bytes with no terminator gets a 431, and
/// the server keeps answering.
#[test]
fn oversized_headers_get_431_and_serving_continues() {
    let server = Server::start();
    let mut s = TcpStream::connect(server.addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut head = b"GET /metrics HTTP/1.1\r\nX-Big: ".to_vec();
    head.resize((1 << 20) + 1, b'a');
    s.write_all(&head).expect("send oversized headers");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    assert_eq!(raw.lines().next(), Some("HTTP/1.1 431 Request Header Fields Too Large"));

    let (status, _) = request(server.addr, "GET", "/metrics", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    server.stop_within(Duration::from_secs(1));
}
