//! The wire tier's accept path: a new connection is served as soon as
//! it arrives, stopping wakes a blocked `accept()` (also on an
//! unspecified bind address), and a dropped server or proxy frees its
//! port. Kept in its own test binary so the latency test does not share
//! the machine with the soaks of `wire_end_to_end`.

use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use runtime::{WireClient, WireClientConfig, WireOutcome, WireServer, WireServerConfig};
use wire::{ChaosProfile, ChaosProxy};

fn small_server_cfg() -> WireServerConfig {
    WireServerConfig {
        shards: 3,
        sites_per_shard: 4,
        ..WireServerConfig::default()
    }
}

fn client_for(addr: SocketAddr) -> WireClient {
    WireClient::new(WireClientConfig {
        addrs: vec![addr],
        connect_timeout_ms: 500,
        request_timeout_ms: 2_000,
        ..WireClientConfig::default()
    })
}

/// Sequential fresh clients each get their first answer well under a
/// millisecond (median of 20): nothing waits for an accept poll tick.
#[test]
fn a_fresh_connection_is_answered_without_waiting_for_an_accept_tick() {
    const CYCLES: usize = 20;
    let server = WireServer::start(small_server_cfg(), None).expect("server starts");
    // Warm the key's shard so every cycle measures the same path.
    let warm = client_for(server.addr())
        .request(1, 7)
        .expect("warm-up answered");
    assert!(
        matches!(warm.outcome, WireOutcome::Reading { .. }),
        "{}",
        warm.outcome
    );

    let mut first_answer = Vec::with_capacity(CYCLES);
    for cycle in 0..CYCLES as u64 {
        let t0 = Instant::now();
        let mut client = client_for(server.addr());
        let out = client.request(100 + cycle, 7).expect("answered");
        first_answer.push(t0.elapsed());
        assert!(
            matches!(out.outcome, WireOutcome::Reading { .. }),
            "{}",
            out.outcome
        );
    }
    first_answer.sort();
    let median = first_answer[CYCLES / 2];
    assert!(
        median < Duration::from_millis(1),
        "median first answer {median:?} (all: {first_answer:?})"
    );

    let report = server.drain().expect("drain");
    // The drain's wake-up connection is not a client connection.
    assert_eq!(report.stats.connections, 1 + CYCLES as u64);
}

/// Drain wakes the accept thread of a server bound to `0.0.0.0` through
/// loopback, and returns promptly.
#[test]
fn drain_of_an_idle_server_on_an_unspecified_address_returns() {
    let server = WireServer::start(small_server_cfg(), Some("0.0.0.0:0".parse().unwrap()))
        .expect("server starts");
    assert!(server.addr().ip().is_unspecified());
    let t0 = Instant::now();
    let report = server.drain().expect("drain");
    assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
    assert_eq!(report.stats.connections, 0);
}

#[test]
fn chaos_proxy_shutdown_returns_promptly() {
    let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
    let proxy = ChaosProxy::start(upstream.local_addr().unwrap(), ChaosProfile::calm(), 9)
        .expect("proxy starts");
    let t0 = Instant::now();
    proxy.shutdown();
    assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
}

/// Dropping a server without a drain still stops its accept thread
/// before the drop returns, so its address can be bound again at once.
#[test]
fn dropped_server_releases_its_port() {
    let server = WireServer::start(small_server_cfg(), None).expect("server starts");
    let addr = server.addr();
    let mut client = client_for(addr);
    let out = client.request(1, 3).expect("answered");
    assert!(
        matches!(out.outcome, WireOutcome::Reading { .. }),
        "{}",
        out.outcome
    );
    drop(server);
    TcpListener::bind(addr).expect("a dropped server must release its port");
    drop(client);
}
