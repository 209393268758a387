//! The one accept loop of the wire tier, shared by the fleet server
//! and the chaos proxy.
//!
//! The loop blocks in `accept()`: an idle listener costs no wake-ups,
//! and a new connection is handed over as soon as the kernel has it.
//! Stopping cannot interrupt a blocked `accept()`, so [`Acceptor::stop`]
//! raises the stop flag and then opens one throwaway connection to the
//! listener itself. The loop re-checks the flag after every accept,
//! drops that wake-up connection without handing it over, and exits;
//! the caller joins it. A listener bound to an unspecified address
//! (`0.0.0.0` / `::`) is woken through loopback of the same family.
//!
//! Error policy, one for every caller: `ConnectionAborted` (the peer
//! gave up while queued) and `Interrupted` are retried at once; any
//! other error (`EMFILE`, `ENFILE`, `ENOBUFS`, ...) backs off 2 ms and
//! retries until stopped. No error ends the loop, so a transient
//! failure cannot silently stop a server or a proxy from accepting for
//! the rest of its life.

use std::io::ErrorKind;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Pause after an accept error other than `ConnectionAborted` or
/// `Interrupted` — the only sleep on the accept path.
const ERROR_BACKOFF: Duration = Duration::from_millis(2);

/// Connect budget of one wake-up attempt.
const WAKE_TIMEOUT: Duration = Duration::from_millis(500);

/// A thread accepting on one listener until stopped. Each accepted
/// connection is handed to a callback together with the loop's state
/// `S`, which [`Acceptor::stop`] returns. Dropping the handle stops the
/// loop the same way and discards the state.
pub struct Acceptor<S> {
    wake_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<S>>,
}

impl<S: Send + 'static> Acceptor<S> {
    /// Spawns a thread named `name` that accepts on `listener` and calls
    /// `on_accept(&mut state, stream)` for every connection until
    /// stopped.
    ///
    /// # Errors
    ///
    /// The listener's `local_addr` failure, or a failure to spawn the
    /// thread.
    pub fn spawn<F>(
        listener: TcpListener,
        name: &str,
        state: S,
        on_accept: F,
    ) -> std::io::Result<Self>
    where
        F: FnMut(&mut S, TcpStream) + Send + 'static,
    {
        let wake_addr = wake_addr(listener.local_addr()?);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name(name.to_string())
            .spawn(move || accept_loop(&listener, &flag, state, on_accept))?;
        Ok(Acceptor {
            wake_addr,
            stop,
            thread: Some(thread),
        })
    }
}

impl<S> Acceptor<S> {
    /// Stops accepting, wakes and joins the thread, and returns the
    /// loop's state (`None` if the callback panicked). The listener is
    /// closed when this returns.
    pub fn stop(mut self) -> Option<S> {
        self.halt()
    }

    fn halt(&mut self) -> Option<S> {
        let thread = self.thread.take()?;
        self.stop.store(true, Ordering::SeqCst);
        // Keep trying until the loop has seen the flag: a wake-up
        // connect can itself fail transiently (EMFILE in this process).
        while !thread.is_finished() {
            if TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT).is_ok() {
                break;
            }
            thread::sleep(ERROR_BACKOFF);
        }
        thread.join().ok()
    }
}

impl<S> Drop for Acceptor<S> {
    fn drop(&mut self) {
        drop(self.halt());
    }
}

fn accept_loop<S, F>(listener: &TcpListener, stop: &AtomicBool, mut state: S, mut on_accept: F) -> S
where
    F: FnMut(&mut S, TcpStream),
{
    loop {
        let accepted = listener.accept();
        // Checked after the accept returns: the connection that woke a
        // stopping loop (or any that raced it) is dropped unserved.
        if stop.load(Ordering::SeqCst) {
            return state;
        }
        match accepted {
            Ok((stream, _peer)) => on_accept(&mut state, stream),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionAborted | ErrorKind::Interrupted
                ) => {}
            Err(_) => thread::sleep(ERROR_BACKOFF),
        }
    }
}

/// The address a wake-up connection dials: the listener's own, with an
/// unspecified IP replaced by loopback of the same family.
fn wake_addr(local: SocketAddr) -> SocketAddr {
    let mut addr = local;
    if addr.ip().is_unspecified() {
        addr.set_ip(match local {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Instant;

    #[test]
    fn unspecified_addresses_wake_through_loopback_of_the_same_family() {
        let v4: SocketAddr = "0.0.0.0:4100".parse().unwrap();
        let v6: SocketAddr = "[::]:4101".parse().unwrap();
        let bound: SocketAddr = "127.0.0.2:4102".parse().unwrap();
        assert_eq!(wake_addr(v4), "127.0.0.1:4100".parse().unwrap());
        assert_eq!(wake_addr(v6), "[::1]:4101".parse().unwrap());
        assert_eq!(wake_addr(bound), bound);
    }

    /// Every real connection reaches the callback; the wake-up one does
    /// not; stop returns the state and frees the port.
    #[test]
    fn stop_wakes_the_blocked_accept_and_drops_the_wake_up_connection() {
        let listener = TcpListener::bind("0.0.0.0:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let (tx, rx) = mpsc::channel();
        let acceptor = Acceptor::spawn(listener, "accept-test", 0u32, move |n, _stream| {
            *n += 1;
            tx.send(()).unwrap();
        })
        .unwrap();
        let target: SocketAddr = ([127, 0, 0, 1], port).into();
        for _ in 0..3 {
            drop(TcpStream::connect(target).unwrap());
            rx.recv_timeout(Duration::from_secs(5))
                .expect("handed over");
        }
        let t0 = Instant::now();
        assert_eq!(acceptor.stop(), Some(3));
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
        TcpListener::bind(target).expect("port free after stop");
    }
}
