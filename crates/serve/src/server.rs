//! The daemon's front door: accept loop, per-connection handling, and
//! graceful shutdown.
//!
//! The server binds a TCP or Unix socket, accepts connections, and runs
//! each on its own thread (connections are short — one request each —
//! so a thread per connection is the simplest correct model and the
//! request rate of an inference daemon is nowhere near where that
//! matters). Shutdown is cooperative: a [`ShutdownHandle`] flips a flag
//! and pokes the listener with a self-connection so `accept` returns;
//! the accept loop then waits for in-flight connections to finish
//! before returning. The caller drains the job pool and batcher after
//! that, so "graceful" means: no accepted request is abandoned.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http::{self, ParseError, Request, Response};

/// Where to listen.
#[derive(Debug, Clone)]
pub enum Bind {
    /// e.g. `127.0.0.1:0` for an ephemeral port.
    Tcp(String),
    /// Unix-domain socket path; removed on shutdown.
    Unix(PathBuf),
}

/// What the server actually bound (the resolved ephemeral port matters
/// for tests and for `--addr-file`).
#[derive(Debug, Clone)]
pub enum Bound {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Tcp(a) => write!(f, "{a}"),
            Bound::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// Application request handler: pure function from request to response.
/// All serving state (models, jobs, batcher) is captured by the closure.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Cooperative shutdown trigger, clonable across threads and usable
/// from a signal-ish context (the admin endpoint).
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    bound: Arc<Mutex<Option<Bound>>>,
}

impl ShutdownHandle {
    pub fn new() -> Self {
        Self {
            flag: Arc::new(AtomicBool::new(false)),
            bound: Arc::new(Mutex::new(None)),
        }
    }

    pub fn is_requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Request shutdown and unblock the accept loop.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // accept() has no timeout; a throwaway self-connection wakes it.
        let target = self.bound.lock().unwrap().clone();
        match target {
            Some(Bound::Tcp(addr)) => {
                let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            }
            Some(Bound::Unix(path)) => {
                let _ = UnixStream::connect(&path);
            }
            None => {}
        }
    }
}

impl Default for ShutdownHandle {
    fn default() -> Self {
        Self::new()
    }
}

/// Tracks in-flight connection count so shutdown can wait for zero.
struct InFlight {
    count: Mutex<usize>,
    idle: Condvar,
}

impl InFlight {
    fn enter(self: &Arc<Self>) -> InFlightGuard {
        *self.count.lock().unwrap() += 1;
        InFlightGuard(Arc::clone(self))
    }

    fn wait_zero(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        let mut n = self.count.lock().unwrap();
        while *n > 0 {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (guard, _) = self.idle.wait_timeout(n, deadline - now).unwrap();
            n = guard;
        }
    }
}

struct InFlightGuard(Arc<InFlight>);

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        let mut n = self.0.count.lock().unwrap();
        *n -= 1;
        if *n == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// The listening server. `serve` blocks until shutdown is requested.
pub struct Server {
    listener: Listener,
    bound: Bound,
    shutdown: ShutdownHandle,
    in_flight: Arc<InFlight>,
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// A connection stream abstracted over TCP/Unix.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn set_timeouts(&self, d: Duration) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.set_read_timeout(Some(d));
                let _ = s.set_write_timeout(Some(d));
            }
            Conn::Unix(s) => {
                let _ = s.set_read_timeout(Some(d));
                let _ = s.set_write_timeout(Some(d));
            }
        }
    }
}

impl std::io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl std::io::Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// How long a single connection may take to send its request / receive
/// its response before we give up on it.
const CONN_TIMEOUT: Duration = Duration::from_secs(30);
/// How long shutdown waits for in-flight connections.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

impl Server {
    /// Bind the socket. Fails fast (port in use, bad address, stale
    /// unix socket path with a live listener) — the caller maps this to
    /// an I/O exit code.
    pub fn bind(bind: &Bind, shutdown: ShutdownHandle) -> std::io::Result<Self> {
        let (listener, bound) = match bind {
            Bind::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let resolved = l.local_addr()?;
                (Listener::Tcp(l), Bound::Tcp(resolved))
            }
            Bind::Unix(path) => {
                // A leftover socket file from a crashed daemon would make
                // bind fail; only remove it if nothing is listening.
                if path.exists() && UnixStream::connect(path).is_err() {
                    let _ = std::fs::remove_file(path);
                }
                let l = UnixListener::bind(path)?;
                (Listener::Unix(l), Bound::Unix(path.clone()))
            }
        };
        *shutdown.bound.lock().unwrap() = Some(bound.clone());
        Ok(Self {
            listener,
            bound,
            shutdown,
            in_flight: Arc::new(InFlight {
                count: Mutex::new(0),
                idle: Condvar::new(),
            }),
        })
    }

    pub fn bound(&self) -> &Bound {
        &self.bound
    }

    /// Accept loop: blocks until shutdown, then waits for in-flight
    /// connections and cleans up the socket.
    pub fn serve(&self, handler: Handler) {
        loop {
            let conn = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            if self.shutdown.is_requested() {
                break;
            }
            let conn = match conn {
                Ok(c) => c,
                // Transient accept errors (EMFILE, aborted handshake)
                // must not kill the daemon.
                Err(_) => continue,
            };
            let guard = self.in_flight.enter();
            let handler = Arc::clone(&handler);
            let _ = std::thread::Builder::new()
                .name("dp-conn".into())
                .spawn(move || {
                    let _guard = guard;
                    handle_conn(conn, &handler);
                });
        }
        self.in_flight.wait_zero(DRAIN_TIMEOUT);
        if let Bound::Unix(path) = &self.bound {
            let _ = std::fs::remove_file(path);
        }
    }
}

fn handle_conn(mut conn: Conn, handler: &Handler) {
    conn.set_timeouts(CONN_TIMEOUT);
    let start = Instant::now();
    dp_obs::counter(dp_obs::serve::HTTP_REQUESTS).add(1);

    let response = {
        let mut reader = BufReader::new(&mut conn);
        match http::read_request(&mut reader) {
            Ok(req) => handler(&req),
            // A probe that connects and closes (the shutdown self-poke,
            // health checkers) is not an error worth answering.
            Err(ParseError::ConnectionClosed) => return,
            Err(ParseError::TooLarge) => Response::error(413, "request body too large"),
            Err(ParseError::Malformed(m)) => Response::error(400, &m),
        }
    };
    if response.status >= 400 {
        dp_obs::counter(dp_obs::serve::HTTP_ERRORS).add(1);
    }
    let _ = response.write_to(&mut conn);
    dp_obs::hist::global(dp_obs::serve::HTTP_LATENCY_US).record(start.elapsed().as_micros() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn start(handler: Handler) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
        let shutdown = ShutdownHandle::new();
        let server = Server::bind(&Bind::Tcp("127.0.0.1:0".into()), shutdown.clone()).unwrap();
        let Bound::Tcp(addr) = server.bound().clone() else {
            panic!("expected tcp bind")
        };
        let join = std::thread::spawn(move || server.serve(handler));
        (addr, shutdown, join)
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_requests_and_shuts_down_gracefully() {
        let handler: Handler =
            Arc::new(|req: &Request| Response::json(200, format!("{{\"path\":\"{}\"}}", req.path)));
        let (addr, shutdown, join) = start(handler);

        let reply = roundtrip(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.ends_with("{\"path\":\"/healthz\"}"), "{reply}");

        let reply = roundtrip(addr, "GET bogus\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");

        shutdown.request();
        join.join().unwrap();
        // Socket is closed: a fresh connection cannot complete a request.
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200))
                .map(|mut s| {
                    let _ = s.write_all(b"GET / HTTP/1.1\r\n\r\n");
                    let mut buf = String::new();
                    s.read_to_string(&mut buf).unwrap_or(0) == 0
                })
                .unwrap_or(true)
        );
    }

    #[test]
    fn unix_socket_roundtrip_and_cleanup() {
        let dir = std::env::temp_dir().join(format!("dp-serve-ut-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("daemon.sock");

        let shutdown = ShutdownHandle::new();
        let handler: Handler = Arc::new(|_req: &Request| Response::json(200, "{\"ok\":true}"));
        let server = Server::bind(&Bind::Unix(path.clone()), shutdown.clone()).unwrap();
        let join = {
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || server.serve(handler))
        };

        let mut s = UnixStream::connect(&path).unwrap();
        s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.ends_with("{\"ok\":true}"), "{out}");

        shutdown.request();
        join.join().unwrap();
        assert!(!path.exists(), "socket file must be removed on shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_socket_file_is_reclaimed() {
        let dir = std::env::temp_dir().join(format!("dp-serve-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.sock");
        // Simulate a crashed daemon's leftover socket file.
        drop(UnixListener::bind(&path).unwrap());
        assert!(path.exists());

        let shutdown = ShutdownHandle::new();
        let server = Server::bind(&Bind::Unix(path.clone()), shutdown.clone()).unwrap();
        let handler: Handler = Arc::new(|_req: &Request| Response::json(200, "{}"));
        let join = std::thread::spawn(move || server.serve(handler));
        shutdown.request();
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
