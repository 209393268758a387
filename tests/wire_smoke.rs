//! Smoke test of the wire fleet tier from the umbrella package: a
//! loopback server over 3 shard groups of 2 replicas answers reads from
//! two clients and one read relayed by a calm chaos proxy, every
//! reading is honest about its age, and the drain accounts for every
//! frame and every client connection.

use std::net::SocketAddr;

use runtime::{WireClient, WireClientConfig, WireOutcome, WireServer, WireServerConfig};
use wire::{ChaosProfile, ChaosProxy};

const READS_PER_CLIENT: u64 = 4;

fn client_for(addr: SocketAddr) -> WireClient {
    WireClient::new(WireClientConfig {
        addrs: vec![addr],
        connect_timeout_ms: 500,
        request_timeout_ms: 2_000,
        ..WireClientConfig::default()
    })
}

/// One read; panics unless it is a reading whose freshness is honest
/// (a fresh reading has age 0).
fn honest_read(client: &mut WireClient, req_id: u64) {
    let out = client.request(req_id, req_id).expect("answered");
    match out.outcome {
        WireOutcome::Reading {
            value_c,
            fresh,
            age_ms,
        } => {
            assert!((0.0..200.0).contains(&value_c), "implausible {value_c} °C");
            assert!(!fresh || age_ms == 0, "fresh reading aged {age_ms} ms");
        }
        other => panic!("req {req_id}: expected a reading, got {other}"),
    }
}

#[test]
fn loopback_fleet_serves_direct_and_proxied_reads_and_drains_clean() {
    let cfg = WireServerConfig {
        shards: 3,
        replication: 2,
        ack_quorum: 1,
        sites_per_shard: 4,
        ..WireServerConfig::default()
    };
    let server = WireServer::start(cfg, None).expect("server starts");

    let mut clients = [client_for(server.addr()), client_for(server.addr())];
    let mut req_id = 0;
    for _ in 0..READS_PER_CLIENT {
        for client in &mut clients {
            req_id += 1;
            honest_read(client, req_id);
        }
    }

    let proxy = ChaosProxy::start(server.addr(), ChaosProfile::calm(), 1).expect("proxy starts");
    honest_read(&mut client_for(proxy.addr()), req_id + 1);
    proxy.shutdown();

    let stats = server.drain().expect("drain").stats;
    assert_eq!(stats.frames_in, stats.responses, "{stats:?}");
    assert_eq!(stats.frames_in, 2 * READS_PER_CLIENT + 1, "{stats:?}");
    assert_eq!(stats.duplicate_effects, 0, "{stats:?}");
    // Two direct clients plus the proxy's upstream connection; the
    // drain's wake-up connection is not counted.
    assert_eq!(stats.connections, 3, "{stats:?}");
}
