//! End-to-end HTTP test: a real fleet running on worker threads while
//! a real `TcpListener` serves scrapes — the exact deployment shape of
//! `opec-eval serve`, on an ephemeral port.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use opec_campaign::json;
use opec_fleet::{run_fleet, serve, FleetConfig, FleetShared, ServeState};
use opec_oracle::corpus::spec_json;
use opec_oracle::gen::Stmt;
use opec_oracle::generate;

/// One request over a fresh connection (the server is
/// `Connection: close`), returning `(status_line, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
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
    let shared = Arc::new(FleetShared::new(1));
    let state = Arc::new(ServeState::new(shared.clone()));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || serve(listener, state));

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

    shared.stop.store(true, Ordering::Relaxed);
    server.join().expect("server thread").expect("server exits cleanly");
}
