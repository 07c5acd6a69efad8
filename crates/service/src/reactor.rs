//! The readiness reactor: one thread multiplexing every connection over
//! non-blocking sockets and `poll(2)`.
//!
//! The old core parked one **worker thread** per connection in a blocking
//! `read` — 512 idle keep-alive clients meant 512 stacks doing nothing,
//! or (with a small worker pool) idle connections starving active ones
//! out of workers entirely. Here connections cost a registry entry and
//! nothing else while idle: the reactor owns every socket, reads
//! whatever bytes readiness delivers into an incremental
//! [`RequestParser`], and hands only **complete requests** to the worker
//! pool through the bounded [`RequestQueue`].
//!
//! A buffered response reaches the client in one thread hop. The
//! [`Dispatch`] carries the connection's socket, and the worker writes
//! the response to it with non-blocking writes
//! ([`ReactorHandle::respond`]); the reactor's write buffer is always
//! empty while a request is dispatched, so bytes on one connection stay
//! ordered. The worker then posts whatever the socket would not take
//! (usually nothing) as a [`ToReactor::Respond`] completion, and the
//! reactor — the only owner of every connection's poller interest —
//! flushes that remainder, re-arms reading and parses any pipelined
//! successor. Streamed batches leave through the per-connection write
//! buffer as [`ToReactor`] chunks. A worker never blocks on a socket, so
//! a slow peer can never stall one.
//!
//! Timers live here too. An idle connection between requests has **no
//! deadline** (parking is free, so parking is unlimited); the configured
//! `read_timeout` starts ticking when the first byte of a request
//! arrives and is cleared when the request completes — which is exactly
//! the slow-loris defence: a client dribbling header bytes holds a
//! parser buffer, never a worker, and is closed at the deadline.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use polling::{Event, Poller};

use crate::http::{
    chunk_bytes, chunked_head, response_bytes, HttpError, Request, RequestParser, Response,
    CHUNKED_TAIL,
};
use crate::metrics::Metrics;
use crate::server::error_response;

/// How long a connection being turned away (`503`, `400`, `413`) gets to
/// take its response before the socket is dropped: covers the flush plus
/// a short read-drain, so stacks with unread request bytes don't RST the
/// in-flight status away.
const CLOSING_GRACE: Duration = Duration::from_millis(250);

/// How long shutdown waits for buffered responses to drain to slow
/// clients before force-closing.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(1);

/// Messages into the reactor thread; [`ReactorHandle::send`] rings the
/// poller doorbell after each one so a blocked `wait` picks it up.
pub(crate) enum ToReactor {
    /// A freshly-accepted connection to adopt.
    Register(TcpStream),
    /// A buffered response is out of the worker's hands: the rest the
    /// socket would not take (usually empty: see
    /// [`ReactorHandle::respond`]).
    Respond {
        /// Connection ticket the request came in on.
        conn: u64,
        /// Serialised response bytes the socket has not taken yet.
        rest: Vec<u8>,
        /// The response was serialised with `Connection: close` (client
        /// asked, or the worker saw a drain in progress).
        close: bool,
    },
    /// Open a chunked streaming response (`200`, JSON).
    StreamHead {
        /// Connection ticket.
        conn: u64,
        /// Close after the stream completes.
        close: bool,
    },
    /// One body fragment of the streaming response. Chunk framing is
    /// applied here, so the de-chunked payload stays byte-identical to
    /// the buffered encoding.
    StreamChunk {
        /// Connection ticket.
        conn: u64,
        /// Raw body bytes for this fragment.
        bytes: Vec<u8>,
    },
    /// The streaming response is complete; emit the terminating chunk.
    StreamEnd {
        /// Connection ticket.
        conn: u64,
    },
    /// Graceful drain: close parked connections now, let in-flight
    /// responses finish (with `Connection: close`).
    Drain,
    /// Final stop: flush what remains (bounded) and exit the thread.
    Shutdown,
}

/// The sending side of the reactor: an mpsc sender plus the poller
/// doorbell that interrupts a blocked `wait`.
#[derive(Clone)]
pub(crate) struct ReactorHandle {
    tx: Sender<ToReactor>,
    poller: Arc<Poller>,
}

impl ReactorHandle {
    /// Sends a message and wakes the reactor. Sends after the reactor
    /// exited are silently dropped (shutdown races are benign).
    pub(crate) fn send(&self, msg: ToReactor) {
        let _ = self.tx.send(msg);
        self.poller.notify();
    }

    /// Answers a dispatched request with a buffered response, written
    /// straight to its socket with non-blocking writes, then hands the
    /// connection back to the reactor with the unwritten rest as
    /// [`ToReactor::Respond`]: empty in the common case, a remainder on
    /// `WouldBlock`, and on a broken socket whatever the reactor's own
    /// flush then finds broken too.
    pub(crate) fn respond(&self, dispatch: &Dispatch, response: &Response, close: bool) {
        let bytes = response_bytes(response, close);
        let mut written = 0;
        while written < bytes.len() {
            match (&*dispatch.stream).write(&bytes[written..]) {
                Ok(0) => break,
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        self.send(ToReactor::Respond {
            conn: dispatch.conn,
            rest: bytes[written..].to_vec(),
            close,
        });
    }
}

/// A complete request on its way to a worker, with what the worker needs
/// to answer it in place ([`ReactorHandle::respond`]).
pub(crate) struct Dispatch {
    /// Connection ticket.
    pub(crate) conn: u64,
    /// The connection's socket (non-blocking).
    pub(crate) stream: Arc<TcpStream>,
    /// The parsed request.
    pub(crate) request: Request,
}

/// The bounded hand-off of **parsed requests** between the reactor and
/// the workers. Full means the server is saturated: the reactor answers
/// `503 Retry-After` itself instead of queueing unboundedly.
pub(crate) struct RequestQueue {
    pending: Mutex<VecDeque<Dispatch>>,
    depth: usize,
    ready: Condvar,
    shutdown: AtomicBool,
    metrics: Arc<Metrics>,
}

impl RequestQueue {
    pub(crate) fn new(depth: usize, metrics: Arc<Metrics>) -> RequestQueue {
        RequestQueue {
            pending: Mutex::new(VecDeque::new()),
            depth: depth.max(1),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            metrics,
        }
    }

    /// Queues a parsed request; `false` when the queue is full.
    fn push(&self, dispatch: Dispatch) -> bool {
        let mut pending = self.pending.lock().expect("queue poisoned");
        if pending.len() >= self.depth {
            return false;
        }
        pending.push_back(dispatch);
        self.metrics
            .reactor_queue_depth
            .store(pending.len() as u64, Ordering::Relaxed);
        drop(pending);
        self.ready.notify_one();
        true
    }

    /// Blocks for the next request (FIFO — no request starves); `None`
    /// once shut down and drained.
    pub(crate) fn pop(&self) -> Option<Dispatch> {
        let mut pending = self.pending.lock().expect("queue poisoned");
        loop {
            if let Some(item) = pending.pop_front() {
                self.metrics
                    .reactor_queue_depth
                    .store(pending.len() as u64, Ordering::Relaxed);
                return Some(item);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            pending = self.ready.wait(pending).expect("queue poisoned");
        }
    }

    pub(crate) fn close(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _guard = self.pending.lock().expect("queue poisoned");
        self.ready.notify_all();
    }
}

/// Where a connection is in its request/response lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Parsing the next request (possibly still flushing the previous
    /// response — parse only proceeds once the write buffer is empty, so
    /// responses on one connection can never interleave).
    Reading,
    /// A request is with the workers, which own the socket's write side
    /// until they report back; the write buffer stays empty. Bytes that
    /// arrive meanwhile stay in the socket (pipelining) until read
    /// interest is re-armed.
    Dispatched,
    /// A chunked streaming response is in flight; `done` once the
    /// terminating chunk is buffered.
    Streaming {
        /// Whether [`ToReactor::StreamEnd`] has been buffered.
        done: bool,
    },
    /// Being turned away: flush the refusal, half-close, read-drain
    /// briefly, drop.
    Closing,
}

/// Reactor-side connection state.
struct Conn {
    /// Shared with a worker while a request is dispatched.
    stream: Arc<TcpStream>,
    parser: RequestParser,
    /// Pending outbound bytes; `out_pos` is how far the socket got.
    out: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    /// Close once the write buffer drains.
    close_after_flush: bool,
}

impl Conn {
    fn has_pending_out(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

enum FlushOutcome {
    /// Buffer fully drained.
    Flushed,
    /// Socket saturated; wait for writability.
    Blocked,
    /// Socket failed — close the connection.
    Broken,
}

/// Non-blocking flush of a connection's write buffer.
fn flush(conn: &mut Conn) -> FlushOutcome {
    while conn.has_pending_out() {
        match (&*conn.stream).write(&conn.out[conn.out_pos..]) {
            Ok(0) => return FlushOutcome::Broken,
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushOutcome::Blocked,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return FlushOutcome::Broken,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    FlushOutcome::Flushed
}

/// Everything the reactor thread owns.
pub(crate) struct Reactor {
    poller: Arc<Poller>,
    rx: Receiver<ToReactor>,
    queue: Arc<RequestQueue>,
    metrics: Arc<Metrics>,
    read_timeout: Duration,
    max_body: usize,
    conns: HashMap<u64, Conn>,
    /// Read deadlines, keyed by connection id: an entry exists only
    /// while a request is partially received (or while `Closing`).
    /// Parked-idle connections have no entry, so the per-wakeup timer
    /// scans cost O(active), not O(registered) — the bookkeeping that
    /// keeps thousands of parked connections off the hot path.
    timers: HashMap<u64, Instant>,
    next_id: u64,
    draining: bool,
    shutdown_at: Option<Instant>,
}

impl Reactor {
    /// Builds the reactor and its sending handle.
    pub(crate) fn new(
        queue: Arc<RequestQueue>,
        metrics: Arc<Metrics>,
        read_timeout: Duration,
        max_body: usize,
    ) -> io::Result<(Reactor, ReactorHandle)> {
        let poller = Arc::new(Poller::new()?);
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = ReactorHandle {
            tx,
            poller: poller.clone(),
        };
        Ok((
            Reactor {
                poller,
                rx,
                queue,
                metrics,
                read_timeout,
                max_body,
                conns: HashMap::new(),
                timers: HashMap::new(),
                next_id: 1,
                draining: false,
                shutdown_at: None,
            },
            handle,
        ))
    }

    /// The event loop; returns once [`ToReactor::Shutdown`] has been
    /// processed and every connection is flushed or out of grace.
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            while let Ok(msg) = self.rx.try_recv() {
                self.on_message(msg);
            }
            if let Some(at) = self.shutdown_at {
                // Post-shutdown the only work left is flushing buffered
                // responses; everything else closes immediately.
                let now = Instant::now();
                let done: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| {
                        // A `Closing` connection keeps its own (shorter)
                        // grace for the read-drain.
                        (!c.has_pending_out() && c.phase != Phase::Closing) || now >= at
                    })
                    .map(|(&id, _)| id)
                    .collect();
                for id in done {
                    self.close(id);
                }
                if self.conns.is_empty() {
                    return;
                }
            }
            let timeout = self.nearest_deadline();
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                // A failing poll would spin; drop every connection and
                // exit rather than burn the core.
                return;
            }
            Metrics::bump(&self.metrics.reactor_wakeups);
            for &event in &events {
                self.on_event(event);
            }
            self.expire_deadlines();
        }
    }

    /// The poll timeout: soonest of the per-connection deadlines and the
    /// shutdown grace. `None` (block until the doorbell rings) when
    /// nothing is timed — the parked-idle steady state.
    fn nearest_deadline(&self) -> Option<Duration> {
        let soonest = self
            .timers
            .values()
            .copied()
            .chain(self.shutdown_at)
            .min()?;
        Some(soonest.saturating_duration_since(Instant::now()))
    }

    fn on_message(&mut self, msg: ToReactor) {
        match msg {
            ToReactor::Register(stream) => self.register(stream),
            ToReactor::Respond { conn, rest, close } => {
                // The worker serialised a keep-alive head before a drain
                // began: end the connection like a refusal, so a client
                // that already sent its next request reads a clean EOF
                // after this response rather than a reset.
                let late_drain = self.draining && !close;
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                c.out.extend_from_slice(&rest);
                c.close_after_flush = close;
                c.phase = Phase::Reading;
                if late_drain {
                    self.begin_closing(conn);
                }
                self.note_high_water(conn);
                self.pump(conn);
            }
            ToReactor::StreamHead { conn, close } => {
                let close = close || self.draining;
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                c.out
                    .extend_from_slice(&chunked_head(200, "application/json", close));
                c.close_after_flush = close;
                c.phase = Phase::Streaming { done: false };
                self.note_high_water(conn);
                self.pump(conn);
            }
            ToReactor::StreamChunk { conn, bytes } => {
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                c.out.extend_from_slice(&chunk_bytes(&bytes));
                self.note_high_water(conn);
                self.pump(conn);
            }
            ToReactor::StreamEnd { conn } => {
                let draining = self.draining;
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                c.out.extend_from_slice(CHUNKED_TAIL);
                c.phase = Phase::Streaming { done: true };
                c.close_after_flush = c.close_after_flush || draining;
                self.note_high_water(conn);
                self.pump(conn);
            }
            ToReactor::Drain => {
                self.draining = true;
                // Parked and mid-parse connections close now; dispatched
                // and streaming ones finish their response first (their
                // Respond/StreamEnd arrives with the drain flag set).
                let parked: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, c)| c.phase == Phase::Reading && !c.has_pending_out())
                    .map(|(&id, _)| id)
                    .collect();
                for id in parked {
                    self.close(id);
                }
                for c in self.conns.values_mut() {
                    c.close_after_flush = true;
                }
            }
            ToReactor::Shutdown => {
                self.draining = true;
                self.shutdown_at = Some(Instant::now() + SHUTDOWN_GRACE);
            }
        }
    }

    /// Adopts a fresh connection: non-blocking, no Nagle, parked with no
    /// deadline until its first request byte arrives.
    fn register(&mut self, stream: TcpStream) {
        if self.draining || stream.set_nonblocking(true).is_err() {
            return; // dropping the stream closes it
        }
        let _ = stream.set_nodelay(true);
        let id = self.next_id;
        self.next_id += 1;
        if self
            .poller
            .add(&stream, Event::readable(id as usize))
            .is_err()
        {
            return;
        }
        self.conns.insert(
            id,
            Conn {
                stream: Arc::new(stream),
                parser: RequestParser::new(),
                out: Vec::new(),
                out_pos: 0,
                phase: Phase::Reading,
                close_after_flush: false,
            },
        );
        self.metrics
            .reactor_connections
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }

    fn on_event(&mut self, ev: Event) {
        let id = ev.key as u64;
        let Some(phase) = self.conns.get(&id).map(|c| c.phase) else {
            return;
        };
        if ev.readable {
            let alive = match phase {
                Phase::Reading | Phase::Closing => self.read_some(id),
                // No read interest is registered in these phases, so a
                // "readable" wake means the socket errored or hung up
                // (poll reports those unconditionally). Probe it: data
                // means a benign race, EOF/error means the client is
                // gone and the in-flight response would bounce anyway.
                Phase::Dispatched | Phase::Streaming { .. } => self.probe(id),
            };
            if !alive {
                return;
            }
        }
        if ev.writable {
            self.pump(id);
        }
    }

    /// Reads whatever is available. In `Reading` the bytes feed the
    /// parser; in `Closing` they are discarded (the post-refusal drain).
    /// Returns `false` if the connection was closed.
    fn read_some(&mut self, id: u64) -> bool {
        enum Step {
            Close,
            Retry,
            Parse,
            Block,
        }
        let mut buf = [0u8; 16 * 1024];
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return false;
                };
                match (&*conn.stream).read(&mut buf) {
                    // EOF: mid-request it matches the blocking core's
                    // silent close; between requests it's the clean
                    // keep-alive hangup. Either way nothing to flush.
                    Ok(0) => Step::Close,
                    Ok(n) => {
                        if conn.phase == Phase::Closing {
                            Step::Retry // discard: post-refusal drain
                        } else {
                            conn.parser.feed(&buf[..n]);
                            // First byte of a request: the read timeout
                            // starts here, not at idle.
                            let deadline = Instant::now() + self.read_timeout;
                            self.timers.entry(id).or_insert(deadline);
                            Step::Parse
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => Step::Block,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => Step::Retry,
                    Err(_) => Step::Close,
                }
            };
            match step {
                Step::Close => {
                    self.close(id);
                    return false;
                }
                Step::Retry => continue,
                Step::Block => {
                    self.refresh_interest(id);
                    return true;
                }
                Step::Parse => {
                    if !self.try_dispatch(id) {
                        return false;
                    }
                    match self.conns.get(&id).map(|c| c.phase) {
                        // Keep draining the socket while we still parse
                        // (or discard, post-refusal).
                        Some(Phase::Reading | Phase::Closing) => continue,
                        // Dispatched/streaming: stop reading for now.
                        Some(_) => return true,
                        None => return false,
                    }
                }
            }
        }
    }

    /// One probe read for a connection that should not be readable (see
    /// [`Reactor::on_event`]). Returns `false` if it closed.
    fn probe(&mut self, id: u64) -> bool {
        let mut buf = [0u8; 4096];
        let Some(conn) = self.conns.get_mut(&id) else {
            return false;
        };
        match (&*conn.stream).read(&mut buf) {
            Ok(0) => {
                self.close(id);
                false
            }
            Ok(n) => {
                conn.parser.feed(&buf[..n]);
                true
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                true
            }
            Err(_) => {
                self.close(id);
                false
            }
        }
    }

    /// Parses as much as the buffer allows and hands at most one request
    /// to the workers (responses on one connection stay ordered by
    /// construction: nothing more is parsed until the response flushes).
    /// Returns `false` if the connection was closed.
    fn try_dispatch(&mut self, id: u64) -> bool {
        enum Next {
            Settle,
            Dispatch(Dispatch),
            Fail(HttpError),
        }
        let next = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return false;
            };
            if conn.phase != Phase::Reading || conn.has_pending_out() {
                return true;
            }
            match conn.parser.try_next(self.max_body) {
                Ok(None) => {
                    if conn.parser.buffered() == 0 {
                        self.timers.remove(&id); // back to parked-idle
                    }
                    Next::Settle
                }
                Ok(Some(request)) => {
                    self.timers.remove(&id);
                    conn.phase = Phase::Dispatched;
                    Next::Dispatch(Dispatch {
                        conn: id,
                        stream: conn.stream.clone(),
                        request,
                    })
                }
                Err(error) => Next::Fail(error),
            }
        };
        match next {
            Next::Settle => {
                self.refresh_interest(id);
                true
            }
            Next::Dispatch(dispatch) => {
                if !self.queue.push(dispatch) {
                    // Saturated: shed this request, not the whole accept
                    // queue — the client is told how to come back.
                    Metrics::bump(&self.metrics.rejected);
                    self.refuse(
                        id,
                        &error_response(503, "server is at capacity").with_retry_after(1),
                    );
                } else {
                    self.refresh_interest(id);
                }
                self.conns.contains_key(&id)
            }
            Next::Fail(error) => {
                Metrics::bump(&self.metrics.http_errors);
                let response = match error {
                    HttpError::BodyTooLarge { declared, limit } => {
                        error_response(413, &format!("body of {declared} bytes exceeds {limit}"))
                    }
                    HttpError::Malformed(what) => error_response(400, what),
                    HttpError::Io(_) => {
                        self.close(id);
                        return false;
                    }
                };
                self.refuse(id, &response);
                self.conns.contains_key(&id)
            }
        }
    }

    /// Loads a refusal response and switches to `Closing`: flush, then
    /// half-close, then a short read-drain so the refusal survives
    /// RST-on-close client stacks.
    fn refuse(&mut self, id: u64, response: &Response) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        conn.out.extend_from_slice(&response_bytes(response, true));
        self.begin_closing(id);
        self.note_high_water(id);
        self.pump(id);
    }

    /// Switches a connection to `Closing` with the refusal grace as its
    /// deadline; whatever its write buffer holds still goes out first.
    fn begin_closing(&mut self, id: u64) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.phase = Phase::Closing;
            conn.close_after_flush = true;
            self.timers.insert(id, Instant::now() + CLOSING_GRACE);
        }
    }

    /// Drives the write buffer as far as the socket allows and applies
    /// the flush-completion transition.
    fn pump(&mut self, id: u64) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            flush(conn)
        };
        match outcome {
            FlushOutcome::Broken => self.close(id),
            FlushOutcome::Blocked => self.refresh_interest(id),
            FlushOutcome::Flushed => self.after_flush(id),
        }
    }

    /// State transition once a connection's write buffer drains.
    fn after_flush(&mut self, id: u64) {
        let Some((phase, close_after)) =
            self.conns.get(&id).map(|c| (c.phase, c.close_after_flush))
        else {
            return;
        };
        match phase {
            Phase::Closing => {
                // Refusal is out; half-close and let the read-drain run
                // until the grace deadline closes the socket.
                if let Some(conn) = self.conns.get_mut(&id) {
                    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                }
                self.refresh_interest(id);
            }
            Phase::Dispatched | Phase::Streaming { done: false } => {
                self.refresh_interest(id);
            }
            Phase::Reading | Phase::Streaming { done: true } => {
                if close_after {
                    self.close(id);
                    return;
                }
                let buffered = {
                    let conn = self.conns.get_mut(&id).expect("present above");
                    conn.phase = Phase::Reading;
                    conn.parser.buffered()
                };
                if buffered > 0 {
                    // Pipelined successor already buffered: it gets a
                    // fresh request deadline and parses immediately.
                    self.timers.insert(id, Instant::now() + self.read_timeout);
                    if !self.try_dispatch(id) {
                        return;
                    }
                }
                self.refresh_interest(id);
            }
        }
    }

    /// Re-registers the poller interest to match the connection's phase:
    /// read while `Reading`/`Closing`, write while bytes are pending,
    /// nothing while the workers own the request (errors and hangups
    /// still wake the poller unconditionally).
    fn refresh_interest(&mut self, id: u64) {
        let Some(conn) = self.conns.get(&id) else {
            return;
        };
        let event = Event {
            key: id as usize,
            readable: matches!(conn.phase, Phase::Reading | Phase::Closing),
            writable: conn.has_pending_out(),
        };
        if self.poller.modify(&*conn.stream, event).is_err() {
            self.close(id);
        }
    }

    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .timers
            .iter()
            .filter(|(_, &deadline)| now >= deadline)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            if self
                .conns
                .get(&id)
                .is_some_and(|c| c.phase != Phase::Closing)
            {
                // A request started arriving and never completed within
                // read_timeout: the slow-loris (or stalled-client) path.
                Metrics::bump(&self.metrics.reactor_timeouts);
            }
            self.close(id);
        }
    }

    fn close(&mut self, id: u64) {
        self.timers.remove(&id);
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.poller.delete(&*conn.stream);
        }
        self.metrics
            .reactor_connections
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }

    /// Records the deepest write buffer seen (bytes awaiting the socket)
    /// — the signal that a reader is slower than the engine.
    fn note_high_water(&self, id: u64) {
        if let Some(conn) = self.conns.get(&id) {
            let depth = (conn.out.len() - conn.out_pos) as u64;
            self.metrics
                .reactor_write_high_water
                .fetch_max(depth, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// One pass of [`Reactor::run`]'s loop body, waiting at most 100 ms.
    fn turn(reactor: &mut Reactor) {
        while let Ok(msg) = reactor.rx.try_recv() {
            reactor.on_message(msg);
        }
        let mut events = Vec::new();
        reactor
            .poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        for event in events {
            reactor.on_event(event);
        }
        reactor.expire_deadlines();
    }

    #[test]
    fn a_drain_racing_a_keep_alive_response_ends_in_a_clean_eof() {
        let metrics = Arc::new(Metrics::default());
        let queue = Arc::new(RequestQueue::new(4, metrics.clone()));
        let (mut reactor, handle) =
            Reactor::new(queue.clone(), metrics, Duration::from_secs(5), 1 << 20).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        reactor.register(listener.accept().unwrap().0);
        let request = b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n";
        client.write_all(request).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while reactor.conns.values().any(|c| c.phase != Phase::Dispatched) {
            assert!(Instant::now() < deadline, "request never dispatched");
            turn(&mut reactor);
        }
        let dispatch = queue.pop().unwrap();

        // The worker serialised a keep-alive response just before the
        // drain began, writes it, and the client — reading keep-alive —
        // sends its next request before the reactor sees the completion.
        reactor.on_message(ToReactor::Drain);
        let response = Response::json(200, "{}".into());
        handle.respond(&dispatch, &response, false);
        drop(dispatch);
        client.write_all(request).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        turn(&mut reactor);

        // The response arrives whole, then a FIN: the unread successor
        // must not turn the close into a reset.
        let mut received = Vec::new();
        client
            .read_to_end(&mut received)
            .expect("clean EOF after the response, not a reset");
        assert_eq!(received, response_bytes(&response, false));
    }
}
