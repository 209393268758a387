//! A seeded TCP chaos proxy: hostile-network weather for soak tests.
//!
//! The proxy listens on an ephemeral local port and forwards each
//! accepted connection to a fixed upstream address, mangling traffic
//! in both directions according to a [`ChaosProfile`] and a seed.
//! Every fault draw comes from a per-connection, per-direction
//! `StdRng` seeded as `seed ^ connection-index ^ direction`, so a
//! given (seed, connection-arrival-order) run injects the same faults
//! — the deterministic-simulation discipline applied to a real
//! network path.
//!
//! Fault taxonomy (independent per forwarded chunk):
//!
//! | fault     | wire effect                         | what it exercises        |
//! |-----------|-------------------------------------|--------------------------|
//! | delay     | chunk held `delay_min..=delay_max` ms | read deadlines, timeouts |
//! | drop      | chunk discarded                     | framing desync, retries  |
//! | duplicate | chunk written twice                 | at-most-once dedup       |
//! | dribble   | chunk written byte-by-byte with a per-byte pause | slowloris, idle timeouts, incremental decode |
//! | garbage   | one byte of the chunk flipped       | CRC check, typed errors  |
//! | close     | connection torn down mid-stream     | reconnect + failover     |
//! | half-open | direction goes deaf, socket stays alive | *write* deadlines — a peer that stops reading blocks the writer forever |
//!
//! Dropping or garbling bytes desyncs the byte stream *for the rest
//! of that connection* — exactly what a hostile or broken middlebox
//! does — so surviving it requires the server to fail the connection
//! with a typed error and the client to reconnect and retry, which is
//! precisely what the soak asserts.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::accept::Acceptor;

/// Per-chunk fault probabilities and magnitudes. All probabilities
/// are independent; `0.0` disables a fault.
#[derive(Debug, Clone)]
pub struct ChaosProfile {
    /// Probability a chunk is held before forwarding.
    pub delay_prob: f64,
    /// Minimum hold, milliseconds.
    pub delay_min_ms: u64,
    /// Maximum hold, milliseconds.
    pub delay_max_ms: u64,
    /// Probability a chunk is dropped entirely (desyncs framing).
    pub drop_prob: f64,
    /// Probability a chunk is written twice.
    pub dup_prob: f64,
    /// Probability a chunk is dribbled byte-by-byte (slowloris).
    pub dribble_prob: f64,
    /// Pause between dribbled bytes, milliseconds.
    pub dribble_delay_ms: u64,
    /// Probability one byte of the chunk is flipped.
    pub garbage_prob: f64,
    /// Probability the connection is closed mid-stream instead of
    /// forwarding the chunk.
    pub close_prob: f64,
    /// Probability the direction goes *half-open*: the proxy swallows
    /// this chunk and never reads or forwards again, but keeps both
    /// sockets alive. The writing peer's data backs up until its
    /// kernel buffers fill and its writes block forever — the stall a
    /// write deadline (not a read deadline) must catch.
    pub half_open_prob: f64,
}

impl ChaosProfile {
    /// No faults: the proxy is a transparent relay.
    pub fn calm() -> Self {
        ChaosProfile {
            delay_prob: 0.0,
            delay_min_ms: 0,
            delay_max_ms: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            dribble_prob: 0.0,
            dribble_delay_ms: 0,
            garbage_prob: 0.0,
            close_prob: 0.0,
            half_open_prob: 0.0,
        }
    }

    /// The default hostile mix used by the wire soak: frequent small
    /// delays, occasional duplication and slowloris dribble, rare
    /// framing-destroying drops/garbage/closes. Rare is enough — a
    /// single dropped chunk poisons its connection's framing until
    /// reconnect.
    pub fn hostile() -> Self {
        ChaosProfile {
            delay_prob: 0.08,
            delay_min_ms: 1,
            delay_max_ms: 20,
            drop_prob: 0.003,
            dup_prob: 0.02,
            dribble_prob: 0.01,
            dribble_delay_ms: 1,
            garbage_prob: 0.003,
            close_prob: 0.002,
            half_open_prob: 0.002,
        }
    }
}

/// Counters of faults actually injected, shared across connections.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Chunks forwarded unmangled.
    pub forwarded: AtomicU64,
    /// Chunks held by a delay fault.
    pub delayed: AtomicU64,
    /// Chunks dropped.
    pub dropped: AtomicU64,
    /// Chunks duplicated.
    pub duplicated: AtomicU64,
    /// Chunks dribbled byte-by-byte.
    pub dribbled: AtomicU64,
    /// Chunks with a flipped byte.
    pub garbled: AtomicU64,
    /// Connections closed mid-stream by the close fault.
    pub closed_midstream: AtomicU64,
    /// Directions gone half-open (socket alive, nothing moving).
    pub half_open: AtomicU64,
}

impl ChaosStats {
    /// Total fault injections across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
            + self.dropped.load(Ordering::Relaxed)
            + self.duplicated.load(Ordering::Relaxed)
            + self.dribbled.load(Ordering::Relaxed)
            + self.garbled.load(Ordering::Relaxed)
            + self.closed_midstream.load(Ordering::Relaxed)
            + self.half_open.load(Ordering::Relaxed)
    }

    /// One-line render for reports.
    pub fn render(&self) -> String {
        format!(
            "conns {} fwd {} delay {} drop {} dup {} dribble {} garble {} close {} half-open {}",
            self.connections.load(Ordering::Relaxed),
            self.forwarded.load(Ordering::Relaxed),
            self.delayed.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
            self.duplicated.load(Ordering::Relaxed),
            self.dribbled.load(Ordering::Relaxed),
            self.garbled.load(Ordering::Relaxed),
            self.closed_midstream.load(Ordering::Relaxed),
            self.half_open.load(Ordering::Relaxed),
        )
    }
}

/// A running chaos proxy. [`ChaosProxy::shutdown`] and dropping the
/// handle do the same: stop accepting and release the port, and tell
/// the forwarding threads to exit.
pub struct ChaosProxy {
    addr: SocketAddr,
    stats: Arc<ChaosStats>,
    /// Tells the forwarding threads to exit.
    stop: Arc<AtomicBool>,
    acceptor: Option<Acceptor<u64>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral `127.0.0.1` port, forwarding to
    /// `upstream` with `profile` faults drawn from `seed`. The shared
    /// [`Acceptor`] loop keeps accepting through transient accept
    /// errors (see [`crate::accept`]), so one `ConnectionAborted` does
    /// not end a soak's proxy.
    pub fn start(
        upstream: SocketAddr,
        profile: ChaosProfile,
        seed: u64,
    ) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ChaosStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            Acceptor::spawn(listener, "chaos-accept", 0u64, move |conn_idx, client| {
                *conn_idx += 1;
                stats.connections.fetch_add(1, Ordering::Relaxed);
                spawn_connection(
                    client,
                    upstream,
                    profile.clone(),
                    seed ^ conn_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    Arc::clone(&stats),
                    Arc::clone(&stop),
                );
            })?
        };
        Ok(ChaosProxy {
            addr,
            stats,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The proxy's listen address — point clients here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live fault counters.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Stops accepting and joins the listener thread. Forwarding
    /// threads for live connections exit when either endpoint closes or
    /// at their next read tick.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        drop(self.acceptor.take());
    }
}

fn spawn_connection(
    client: TcpStream,
    upstream: SocketAddr,
    profile: ChaosProfile,
    seed: u64,
    stats: Arc<ChaosStats>,
    stop: Arc<AtomicBool>,
) {
    thread::spawn(move || {
        let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_millis(2_000)) else {
            let _ = client.shutdown(Shutdown::Both);
            return;
        };
        let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
            return;
        };
        let up = {
            let profile = profile.clone();
            let stats = Arc::clone(&stats);
            let stop = Arc::clone(&stop);
            thread::spawn(move || forward(client, server, profile, seed ^ 0xC2, stats, stop))
        };
        forward(s2, c2, profile, seed ^ 0x52, stats, stop);
        let _ = up.join();
    });
}

/// Forwards `src` → `dst` chunk-by-chunk, injecting faults. Returns
/// when either side closes, errors, the stop flag rises, or a close
/// fault fires.
fn forward(
    mut src: TcpStream,
    mut dst: TcpStream,
    profile: ChaosProfile,
    seed: u64,
    stats: Arc<ChaosStats>,
    stop: Arc<AtomicBool>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf = [0u8; 2048];
    let _ = src.set_read_timeout(Some(Duration::from_millis(100)));
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        let chunk = &mut buf[..n];

        if draw(&mut rng, profile.half_open_prob) {
            stats.half_open.fetch_add(1, Ordering::Relaxed);
            // Go deaf, not dead: hold both sockets open but never
            // read or forward again. Dropping the streams would close
            // the fds, so park here until shutdown.
            while !stop.load(Ordering::Relaxed) {
                thread::sleep(Duration::from_millis(20));
            }
            return;
        }
        if draw(&mut rng, profile.close_prob) {
            stats.closed_midstream.fetch_add(1, Ordering::Relaxed);
            break;
        }
        if draw(&mut rng, profile.drop_prob) {
            stats.dropped.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if draw(&mut rng, profile.delay_prob) {
            stats.delayed.fetch_add(1, Ordering::Relaxed);
            let span = profile.delay_max_ms.saturating_sub(profile.delay_min_ms);
            let hold = profile.delay_min_ms
                + if span > 0 {
                    rng.random_range(0..span + 1)
                } else {
                    0
                };
            thread::sleep(Duration::from_millis(hold));
        }
        if draw(&mut rng, profile.garbage_prob) {
            stats.garbled.fetch_add(1, Ordering::Relaxed);
            let i = rng.random_range(0..n as u64) as usize;
            chunk[i] ^= 1 << rng.random_range(0..8);
        }
        if draw(&mut rng, profile.dribble_prob) {
            stats.dribbled.fetch_add(1, Ordering::Relaxed);
            for &b in chunk.iter() {
                if dst.write_all(&[b]).is_err() {
                    return;
                }
                thread::sleep(Duration::from_millis(profile.dribble_delay_ms));
            }
            continue;
        }
        let copies = if draw(&mut rng, profile.dup_prob) {
            stats.duplicated.fetch_add(1, Ordering::Relaxed);
            2
        } else {
            stats.forwarded.fetch_add(1, Ordering::Relaxed);
            1
        };
        for _ in 0..copies {
            if dst.write_all(chunk).is_err() {
                return;
            }
        }
    }
    let _ = dst.shutdown(Shutdown::Both);
    let _ = src.shutdown(Shutdown::Both);
}

fn draw(rng: &mut StdRng, prob: f64) -> bool {
    prob > 0.0 && rng.random::<f64>() < prob
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// A calm proxy is a transparent relay: bytes in, same bytes out.
    #[test]
    fn calm_proxy_relays_bytes_unchanged() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let up_addr = upstream.local_addr().unwrap();
        // Echo server.
        let echo = thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 64];
            let n = s.read(&mut buf).unwrap();
            s.write_all(&buf[..n]).unwrap();
        });
        let proxy = ChaosProxy::start(up_addr, ChaosProfile::calm(), 1).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"thermal").unwrap();
        let mut back = [0u8; 7];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"thermal");
        echo.join().unwrap();
        proxy.shutdown();
    }

    /// Dropping the handle without `shutdown` still joins the accept
    /// thread and closes the listener, so the port can be bound again.
    #[test]
    fn dropped_proxy_releases_its_port() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let proxy =
            ChaosProxy::start(upstream.local_addr().unwrap(), ChaosProfile::calm(), 3).unwrap();
        let addr = proxy.addr();
        drop(proxy);
        TcpListener::bind(addr).expect("a dropped proxy must release its port");
    }

    /// With `half_open_prob = 1`, the first chunk goes deaf: nothing
    /// arrives at the peer, yet neither socket closes — the reader
    /// times out instead of seeing EOF.
    #[test]
    fn half_open_swallows_traffic_without_closing() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let up_addr = upstream.local_addr().unwrap();
        let sink = thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            s.set_read_timeout(Some(Duration::from_millis(400)))
                .unwrap();
            let mut buf = [0u8; 64];
            // The proxy went half-open before forwarding anything:
            // this read must time out, not return data or EOF.
            match s.read(&mut buf) {
                Ok(0) => panic!("half-open must not close the socket"),
                Ok(n) => panic!("half-open must not forward ({n} bytes arrived)"),
                Err(e) => assert!(
                    matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                    "{e:?}"
                ),
            }
        });
        let profile = ChaosProfile {
            half_open_prob: 1.0,
            ..ChaosProfile::calm()
        };
        let proxy = ChaosProxy::start(up_addr, profile, 5).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"swallowed").unwrap();
        sink.join().unwrap();
        assert!(proxy.stats().half_open.load(Ordering::Relaxed) >= 1);
        proxy.shutdown();
    }
}
