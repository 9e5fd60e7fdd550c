use super::verbs::dispatch;
use super::{ServerState, MAX_DRAIN_BYTES, MAX_REQUEST_BYTES};
use crate::metrics::{ServeMetrics, Verb};
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One response on the wire: `OK` with payload lines, or a one-line
/// `ERR`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// True for `OK`, false for `ERR`.
    pub ok: bool,
    /// Payload lines (`OK`) or the single error message (`ERR`).
    pub lines: Vec<String>,
}

impl Response {
    /// An `OK` response carrying `text` split into lines.
    pub fn from_text(text: &str) -> Response {
        Response {
            ok: true,
            lines: text.lines().map(str::to_string).collect(),
        }
    }

    /// An `ERR` response (newlines flattened so it stays one line).
    pub fn err(message: impl Into<String>) -> Response {
        let msg: String = message
            .into()
            .chars()
            .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
            .collect();
        Response {
            ok: false,
            lines: vec![msg],
        }
    }

    /// The payload as the exact text a one-shot CLI command prints: the
    /// lines joined with trailing newlines (empty payload → empty
    /// string).
    pub fn payload(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// The error message, if this is an `ERR` response.
    pub fn err_message(&self) -> Option<&str> {
        if self.ok {
            None
        } else {
            self.lines.first().map(String::as_str)
        }
    }

    /// The session id of a `LOAD` response (`session <id>: …`).
    pub fn session_id(&self) -> Option<u64> {
        let first = self.lines.first()?;
        let id = first.strip_prefix("session ")?.split(':').next()?;
        id.parse().ok()
    }

    pub(super) fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut out = String::new();
        if self.ok {
            out.push_str(&format!("OK {}\n", self.lines.len()));
            for l in &self.lines {
                out.push_str(l);
                out.push('\n');
            }
        } else {
            out.push_str("ERR ");
            out.push_str(self.lines.first().map(String::as_str).unwrap_or(""));
            out.push('\n');
        }
        w.write_all(out.as_bytes())
    }
}

/// The bounded accept queue between the accept loop and the connection
/// workers: plain `Mutex` + `Condvar`, mirroring
/// `atl_model::parallel::Pool`'s hand-rolled discipline (no channels,
/// poison tolerated).
///
/// Every push, pop and close records the new depth in the queue-depth
/// gauge while still holding the lock, so the gauge is always the
/// length of the queue as of its latest change: at most `capacity`,
/// never negative, and zero at rest.
pub(super) struct AcceptQueue {
    pub(super) capacity: usize,
    inner: Mutex<QueueInner>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueInner {
    items: VecDeque<TcpStream>,
    closed: bool,
}

impl AcceptQueue {
    pub(super) fn new(capacity: usize) -> AcceptQueue {
        AcceptQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(QueueInner::default()),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues an accepted connection, or hands it back when the queue
    /// is full (backpressure) or already closed (shutdown).
    pub(super) fn push(&self, stream: TcpStream, metrics: &ServeMetrics) -> Result<(), TcpStream> {
        let mut inner = self.lock();
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(stream);
        }
        inner.items.push_back(stream);
        metrics.record_queue_depth(inner.items.len());
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next queued connection; `None` once the queue is
    /// closed and drained, which is each worker's exit signal.
    pub(super) fn pop(&self, metrics: &ServeMetrics) -> Option<TcpStream> {
        let mut inner = self.lock();
        loop {
            if let Some(stream) = inner.items.pop_front() {
                metrics.record_queue_depth(inner.items.len());
                return Some(stream);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue, wakes every worker, and returns whatever was
    /// still waiting so the caller can refuse it with a framed error.
    pub(super) fn close(&self, metrics: &ServeMetrics) -> Vec<TcpStream> {
        let mut inner = self.lock();
        inner.closed = true;
        let leftover: Vec<TcpStream> = inner.items.drain(..).collect();
        metrics.record_queue_depth(0);
        drop(inner);
        self.ready.notify_all();
        leftover
    }
}

/// Answers an accepted-but-unserved connection with a framed error
/// instead of silently dropping the socket.
fn refuse_shutting_down(state: &ServerState, mut stream: TcpStream) {
    state.metrics.shutdown_refused();
    let _ = Response::err("shutting down").write_to(&mut stream);
}

pub(super) fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    // The shutdown flag is only checked after `accept` returns — every
    // wake source (a real client, `cmd_shutdown`'s throwaway connect)
    // delivers a connection or an error, and checking only then
    // guarantees a connection racing the flag is refused with a framed
    // error rather than left in a backlog the dropped listener resets.
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    // Accepted between the shutdown check and the
                    // enqueue: refuse with a framed error, never a
                    // silently dropped socket.
                    refuse_shutting_down(state, stream);
                    break;
                }
                if let Err(mut stream) = state.queue.push(stream, &state.metrics) {
                    // Backpressure: the queue is full, answer fast
                    // rather than piling up unbounded work.
                    state.metrics.rejected();
                    let _ = Response::err("busy").write_to(&mut stream);
                }
            }
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    // Close the queue: workers exit once it drains, and connections
    // still queued get the same framed refusal as the race above.
    for stream in state.queue.close(&state.metrics) {
        refuse_shutting_down(state, stream);
    }
    // Drain: in-flight requests (including the SHUTDOWN response
    // itself) finish dispatching and writing before the loop — and with
    // it `Server::join` — returns, bounded by the drain deadline so a
    // wedged handler cannot hold shutdown hostage.
    let deadline = Instant::now() + state.drain_deadline;
    while state.active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One connection worker: drains the accept queue until it closes. The
/// busy/idle bracket makes `busy_workers_peak` the observable proof
/// that concurrency never exceeds the configured pool width.
pub(super) fn worker_loop(state: &Arc<ServerState>) {
    while let Some(stream) = state.queue.pop(&state.metrics) {
        state.metrics.worker_busy();
        handle_connection(state, stream);
        state.metrics.worker_idle();
    }
}

enum ReadOutcome {
    Line(String),
    /// The line exceeded [`MAX_REQUEST_BYTES`]. `resynced` is true when
    /// the terminating newline was found (possibly after draining), so
    /// the connection sits on a line boundary and may keep serving
    /// pipelined follow-ups; false means the drain gave up (EOF or
    /// [`MAX_DRAIN_BYTES`]) and the connection must close.
    TooLong {
        resynced: bool,
    },
    Eof,
}

/// Reads one request line, capped at [`MAX_REQUEST_BYTES`]. Invalid
/// UTF-8 is replaced rather than rejected (the parser then reports an
/// unknown command), and a trailing `\r` is stripped. An oversized line
/// is drained through its terminating newline so a pipelined follow-up
/// request is not parsed mid-payload.
fn read_request(r: &mut impl BufRead) -> io::Result<ReadOutcome> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                ReadOutcome::Eof
            } else {
                ReadOutcome::Line(decode(buf))
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&chunk[..pos]);
            r.consume(pos + 1);
            return Ok(if buf.len() > MAX_REQUEST_BYTES {
                ReadOutcome::TooLong { resynced: true }
            } else {
                ReadOutcome::Line(decode(buf))
            });
        }
        buf.extend_from_slice(chunk);
        let n = chunk.len();
        r.consume(n);
        if buf.len() > MAX_REQUEST_BYTES {
            let resynced = drain_oversized_line(r)?;
            return Ok(ReadOutcome::TooLong { resynced });
        }
    }
}

/// Discards the remainder of an oversized line through its terminating
/// newline. Returns whether the newline was found within
/// [`MAX_DRAIN_BYTES`] (true = the stream is back on a line boundary).
fn drain_oversized_line(r: &mut impl BufRead) -> io::Result<bool> {
    let mut drained = 0usize;
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(false);
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            r.consume(pos + 1);
            return Ok(true);
        }
        drained += chunk.len();
        let n = chunk.len();
        r.consume(n);
        if drained > MAX_DRAIN_BYTES {
            return Ok(false);
        }
    }
}

fn decode(mut buf: Vec<u8>) -> String {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8_lossy(&buf).into_owned()
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    // The timeout is set on the shared socket, so it governs the read
    // half cloned below: a client idle between requests for longer than
    // this trips `WouldBlock`/`TimedOut` and the connection is reaped.
    let _ = stream.set_read_timeout(state.idle_timeout);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_request(&mut reader) {
            Err(e) => {
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) {
                    state.store().stats.reaped += 1;
                    let _ =
                        Response::err("connection idle past timeout; reaped").write_to(&mut writer);
                }
                break;
            }
            Ok(ReadOutcome::Eof) => break,
            Ok(ReadOutcome::TooLong { resynced }) => {
                let resp = Response::err(format!("request line exceeds {MAX_REQUEST_BYTES} bytes"));
                let wrote = resp.write_to(&mut writer);
                // Resynced on a line boundary: pipelined follow-ups on
                // this connection still parse. Otherwise close.
                if wrote.is_err() || !resynced {
                    break;
                }
            }
            Ok(ReadOutcome::Line(line)) => {
                // A panic inside a handler must stay a per-connection
                // error: report it and keep every session intact. The
                // active count brackets dispatch *and* the response
                // write, so a draining shutdown never truncates a reply.
                let verb = Verb::of_command(line.split_whitespace().next().unwrap_or(""));
                let started = Instant::now();
                state.active.fetch_add(1, Ordering::SeqCst);
                let resp = catch_unwind(AssertUnwindSafe(|| dispatch(state, verb, &line)))
                    .unwrap_or_else(|_| Response::err("internal: request handler panicked"));
                // Observe before the write: once a client has read its
                // response, its request is guaranteed to be counted, so
                // a METRICS scrape sequenced after the reply never
                // under-reports. (The histogram spans dispatch to
                // response assembly, not the socket write.)
                state.metrics.observe(verb, started.elapsed());
                let wrote = resp.write_to(&mut writer);
                state.active.fetch_sub(1, Ordering::SeqCst);
                if wrote.is_err() || state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

/// A minimal blocking client for the wire protocol — the `testutil`
/// side of the conformance harness, and what `atl client` wraps.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the connect.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Connects with a bounded connect timeout — the fabric coordinator
    /// uses this so a dead worker address fails fast instead of hanging
    /// in the OS connect queue.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the connect, including `TimedOut`.
    pub fn connect_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Bounds how long any single read on this connection may block
    /// (`None` restores blocking reads). With a timeout set, a hung
    /// daemon surfaces as a `WouldBlock`/`TimedOut` request error the
    /// coordinator can treat as a shard failure.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from the socket option.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request line and reads the response.
    ///
    /// # Errors
    ///
    /// [`io::Error`] on transport failure or an unparseable response
    /// header (`InvalidData`).
    pub fn request(&mut self, line: &str) -> io::Result<Response> {
        let mut msg = line.to_string();
        msg.push('\n');
        self.reader.get_mut().write_all(msg.as_bytes())?;
        let mut header = String::new();
        if self.reader.read_line(&mut header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        let header = header.trim_end_matches(['\n', '\r']);
        if let Some(msg) = header.strip_prefix("ERR ") {
            return Ok(Response::err(msg));
        }
        let Some(count) = header
            .strip_prefix("OK ")
            .and_then(|n| n.parse::<usize>().ok())
        else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response header {header:?}"),
            ));
        };
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let mut l = String::new();
            if self.reader.read_line(&mut l)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed mid-payload",
                ));
            }
            while l.ends_with('\n') || l.ends_with('\r') {
                l.pop();
            }
            lines.push(l);
        }
        Ok(Response { ok: true, lines })
    }

    /// `LOAD`s a spec and returns the session id.
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` if the daemon said `ERR` or
    /// the payload carried no session id.
    pub fn load(&mut self, path: &str) -> io::Result<u64> {
        let resp = self.request(&format!("LOAD {path}"))?;
        resp.session_id().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                resp.err_message().unwrap_or("no session id").to_string(),
            )
        })
    }

    /// `RELOAD`s a session from an edited spec and returns the full
    /// response (load line plus the reuse summary line).
    ///
    /// # Errors
    ///
    /// Transport errors, or `InvalidData` if the daemon said `ERR`.
    pub fn reload(&mut self, id: u64, path: &str) -> io::Result<Response> {
        let resp = self.request(&format!("RELOAD {id} {path}"))?;
        if let Some(msg) = resp.err_message() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg.to_string()));
        }
        Ok(resp)
    }

    /// Sends `SHUTDOWN`.
    ///
    /// # Errors
    ///
    /// As for [`Client::request`].
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.request("SHUTDOWN")
    }
}
