//! The threaded TCP serving front end.
//!
//! [`NetServer`] owns a [`eml_serve::Executor`] and exposes it over the
//! length-prefixed wire protocol of [`crate::frame`]: one accept loop,
//! one thread per connection, every inbound request gated by the
//! [`crate::Admission`] registry before it can touch the executor.
//!
//! ## Request vocabulary
//!
//! | Tag | Request | Payload |
//! |-----|---------|---------|
//! | [`TAG_HELLO`] | bind a client identity | UTF-8 id, 1–64 bytes |
//! | [`TAG_PING`] | liveness probe | empty |
//! | [`TAG_SUBMIT`] | one inference request | `u16 LE` app-name length, app name, little-endian `f32` sample |
//!
//! Responses reuse the frame format with the tag byte carrying a
//! [`WireStatus`] code; an `Ok` submit response's payload is
//! `[u64 seq][u32 pred][u32 n][n × f32 logits]`, all little-endian,
//! and every error status carries a human-readable UTF-8 message.
//!
//! ## Connection lifecycle and supervision
//!
//! Each connection thread runs its handler inside
//! `catch_unwind` — a panicking handler (a bug, not a protocol event)
//! is counted in [`NetStatsSnapshot::conn_panics`] and closes only
//! that connection, mirroring the serve executor's watchdog stance
//! that one tenant's failure must never be fatal to the process.
//! Finished handles are reaped on every accept, so the handle list
//! stays bounded.
//!
//! A connection pipelines through a bounded **reply window**: a FIFO
//! of at most `REPLY_WINDOW` (32) submitted tickets. The handler loops
//! over three steps:
//!
//! 1. Decode and gate every complete frame already read, submitting
//!    each valid request. A full window stops decoding until its oldest
//!    ticket settles, so a connection never holds more than the window
//!    in the executor.
//! 2. With no complete frame left, take whatever the client has
//!    already sent without blocking, then block on the *oldest* ticket.
//! 3. Encode that reply and every later one that has already settled,
//!    in submission order, into one reused buffer and send them with
//!    one write.
//!
//! Replies leave strictly in submission order: reply *k* answers frame
//! *k*, across apps, with head-of-line waiting instead of a reorder
//! buffer. A reply that comes from no ticket (a refusal, ping, hello or
//! `ShuttingDown`) first waits for the window ahead of it to be
//! answered, so it keeps its place too. The socket is non-blocking only
//! while the window is non-empty; the mode switches at the
//! empty/non-empty edges, so an unpipelined client pays those syscalls
//! once per request and a pipelined one once per burst.
//!
//! Reads are ticked ([`NetConfig::read_tick`]) so a connection thread
//! is never parked forever: a started frame that does not complete
//! within [`NetConfig::frame_deadline`] is a scored slowloris
//! violation ([`WireStatus::Stalled`]), and a silent connection with
//! an empty window is closed after [`NetConfig::idle_timeout`].
//!
//! Writes are bounded the same way. A failed reply write closes the
//! connection. One that does not complete within
//! [`NetConfig::write_timeout`] — a client that keeps sending but stops
//! reading — is also scored as a [`Violation::Stall`], the class behind
//! [`WireStatus::Stalled`]; that status itself is not sent, since the
//! peer is not reading and the stream may be mid-frame. The window's
//! tickets are still waited for and counted, so the front end's ledger
//! closes.
//!
//! Per-connection memory is bounded. The read buffer rests at
//! `INBOX_MIN` bytes, grows only to hold one frame of at most
//! [`NetConfig::max_payload`], and shrinks back once that frame is
//! consumed. The reply buffer holds at most one window of completions
//! plus `OUT_HIGH_WATER` bytes of other replies, past which they are
//! sent at once. The sample buffer holds one decoded sample.
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] stops the accept loop, joins every
//! connection thread (each answers its whole window, then sends one
//! `ShuttingDown` reply — tickets resolve because the executor is still
//! alive), then drains the executor ([`eml_serve::Executor::drain`]);
//! requests arriving during the drain get the typed `AppStopped`
//! semantics of the serving layer, mapped to
//! [`WireStatus::AppStopped`] on the wire. A connection that closes for
//! any other reason also answers its window first. Nothing completes
//! silently and no ticket is lost.

use std::collections::VecDeque;
use std::fmt::Display;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eml_core::sync::{rank, RankedGuard, RankedMutex};
use eml_serve::{Completion, Executor, ServeError, Ticket};

use crate::admission::{Admission, AdmissionConfig, Gate, Violation};
use crate::frame::{self, FrameError};
use crate::status::WireStatus;

/// Request tag: bind a client identity for admission scoring.
pub const TAG_HELLO: u8 = 1;
/// Request tag: liveness probe.
pub const TAG_PING: u8 = 2;
/// Request tag: one inference request.
pub const TAG_SUBMIT: u8 = 3;

/// Submitted requests one connection may hold in the executor at once
/// (its reply window): four of the executor's default micro-batches
/// (`batch_cap` 8) and half its default queue (64), so one pipelining
/// connection keeps batches full without taking the whole queue.
const REPLY_WINDOW: usize = 32;

/// The read buffer's resting size: a window of small frames fits in a
/// few reads.
const INBOX_MIN: usize = 8 << 10;

/// Replies that come from no ticket are sent once this many bytes are
/// queued, without waiting for the next flush point.
const OUT_HIGH_WATER: usize = 64 << 10;

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Hard cap on a frame's payload, enforced before allocation.
    pub max_payload: usize,
    /// Granularity of the ticked socket reads (the poll interval at
    /// which stop/stall/idle conditions are noticed).
    pub read_tick: Duration,
    /// A frame whose first byte has arrived must complete within this
    /// wall-clock budget, or the client is scored for a slowloris
    /// stall and disconnected.
    pub frame_deadline: Duration,
    /// Connections with no traffic at a frame boundary for this long
    /// are closed (quietly — idling is not a violation).
    pub idle_timeout: Duration,
    /// Upper bound on the server-side wait for one request's
    /// completion ticket; expiry maps to [`WireStatus::WaitTimeout`].
    pub reply_wait: Duration,
    /// Bound on one reply write: a client that stops reading its
    /// replies is scored for a stall and disconnected once a write has
    /// waited this long, so it cannot pin a connection thread.
    pub write_timeout: Duration,
    /// Maximum concurrently served connections; excess accepts are
    /// turned away with [`WireStatus::RateLimited`].
    pub max_connections: usize,
    /// Per-client admission tuning.
    pub admission: AdmissionConfig,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_payload: frame::DEFAULT_MAX_PAYLOAD,
            read_tick: Duration::from_millis(20),
            frame_deadline: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            reply_wait: Duration::from_secs(10),
            write_timeout: Duration::from_secs(5),
            max_connections: 256,
            admission: AdmissionConfig::default(),
        }
    }
}

/// Front-end counters (all monotonic except `active`).
#[derive(Default)]
struct NetStats {
    accepted: AtomicU64,
    active: AtomicU64,
    frames: AtomicU64,
    exec_submitted: AtomicU64,
    exec_rejected: AtomicU64,
    exec_refused: AtomicU64,
    completions: AtomicU64,
    ticket_errors: AtomicU64,
    rate_limited: AtomicU64,
    banned_replies: AtomicU64,
    over_capacity: AtomicU64,
    conn_panics: AtomicU64,
    shutdown_replies: AtomicU64,
}

/// A consistent-enough snapshot of the front end's counters (each
/// field is individually atomic; the snapshot is taken field by
/// field).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections currently being served.
    pub active: u64,
    /// Complete frames decoded (all tags, before any gating).
    pub frames: u64,
    /// `Executor::submit` calls that were admitted (returned a ticket).
    pub exec_submitted: u64,
    /// Submits the executor rejected with back-pressure
    /// (`QueueFull`/`NotAdmitted`) — these increment the executor's
    /// `rejected` counter, so they belong on the left side of the
    /// accounting invariant.
    pub exec_rejected: u64,
    /// Submits refused before queueing for other typed reasons
    /// (`UnknownApp`, `ShapeMismatch`, `AppStopped`, …) — the executor
    /// never saw these as queue entries.
    pub exec_refused: u64,
    /// Tickets that resolved to a completion.
    pub completions: u64,
    /// Tickets that resolved to a typed serving error (shed, inference
    /// failure, wait timeout, stop).
    pub ticket_errors: u64,
    /// Requests turned away by the token bucket.
    pub rate_limited: u64,
    /// Replies sent to banned clients.
    pub banned_replies: u64,
    /// Connections or registrations turned away because a capacity
    /// bound (connection cap, admission registry) was reached.
    pub over_capacity: u64,
    /// Connection-handler panics contained and counted (never fatal).
    pub conn_panics: u64,
    /// Frames answered with [`WireStatus::ShuttingDown`].
    pub shutdown_replies: u64,
}

impl NetStats {
    fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            exec_submitted: self.exec_submitted.load(Ordering::Relaxed),
            exec_rejected: self.exec_rejected.load(Ordering::Relaxed),
            exec_refused: self.exec_refused.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            ticket_errors: self.ticket_errors.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            banned_replies: self.banned_replies.load(Ordering::Relaxed),
            over_capacity: self.over_capacity.load(Ordering::Relaxed),
            conn_panics: self.conn_panics.load(Ordering::Relaxed),
            shutdown_replies: self.shutdown_replies.load(Ordering::Relaxed),
        }
    }
}

/// Everything the accept loop and every connection thread share.
struct Shared {
    cfg: NetConfig,
    executor: Arc<Executor>,
    admission: Admission,
    stats: NetStats,
    stop: AtomicBool,
}

/// The networked serving front end. See the module docs.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    conns: Arc<RankedMutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NetServer({})", self.local_addr)
    }
}

impl NetServer {
    /// Binds the listener and starts the accept loop over `executor`.
    /// Applications must be registered on the executor before it is
    /// handed over; the server takes ownership (shared — see
    /// [`NetServer::executor`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or the accept thread failing to
    /// spawn.
    pub fn bind(cfg: NetConfig, executor: Executor) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let admission = Admission::new(cfg.admission.clone());
        let shared = Arc::new(Shared {
            cfg,
            executor: Arc::new(executor),
            admission,
            stats: NetStats::default(),
            stop: AtomicBool::new(false),
        });
        let conns: Arc<RankedMutex<Vec<JoinHandle<()>>>> = Arc::new(RankedMutex::new(
            rank::NET_CONNS,
            "net-conn-handles",
            Vec::new(),
        ));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("eml-net-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &conns))?
        };
        Ok(Self {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            conns,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The executor behind the front end (for stats, allocation
    /// actuation and the control loop).
    #[must_use]
    pub fn executor(&self) -> &Arc<Executor> {
        &self.shared.executor
    }

    /// The admission registry (scores, bans, counters).
    #[must_use]
    pub fn admission(&self) -> &Admission {
        &self.shared.admission
    }

    /// A snapshot of the front-end counters.
    #[must_use]
    pub fn stats(&self) -> NetStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Graceful shutdown: stop accepting, join every connection thread
    /// (each finishes its in-flight request), then drain the executor
    /// so every queued request completes or fails typed. Idempotent;
    /// also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway self-connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conns.lock());
        for h in handles {
            let _ = h.join();
        }
        // PR 6 semantics: in-flight work completes or fails typed
        // before the executor goes away — never silently.
        self.shared.executor.drain();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn lock_conns(conns: &RankedMutex<Vec<JoinHandle<()>>>) -> RankedGuard<'_, Vec<JoinHandle<()>>> {
    conns.lock()
}

/// Joins finished connection threads (bounding the handle list). Every
/// handler runs inside `catch_unwind`, so joins here never carry a
/// panic payload; panic counting happens at the catch site.
fn reap_finished(conns: &RankedMutex<Vec<JoinHandle<()>>>) {
    let mut held = lock_conns(conns);
    let mut live = Vec::with_capacity(held.len());
    for h in held.drain(..) {
        if h.is_finished() {
            let _ = h.join();
        } else {
            live.push(h);
        }
    }
    *held = live;
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    conns: &Arc<RankedMutex<Vec<JoinHandle<()>>>>,
) {
    let mut conn_id: u64 = 0;
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            // The shutdown wake-up (or a client racing it): refuse typed.
            let _ = send_status(&stream, WireStatus::ShuttingDown, b"server shutting down");
            return;
        }
        reap_finished(conns);
        let active = shared.stats.active.load(Ordering::Relaxed);
        if active as usize >= shared.cfg.max_connections {
            shared.stats.over_capacity.fetch_add(1, Ordering::Relaxed);
            let _ = send_status(
                &stream,
                WireStatus::RateLimited,
                b"connection limit reached",
            );
            continue;
        }
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        shared.stats.active.fetch_add(1, Ordering::Relaxed);
        conn_id += 1;
        let shared2 = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("eml-net-conn-{conn_id}"))
            .spawn(move || {
                // The watchdog stance from the serve executor, applied
                // to connections: a panicking handler is contained,
                // counted and reaped — one hostile or unlucky
                // connection is never fatal to the front end.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_connection(&shared2, &stream, peer);
                }));
                if outcome.is_err() {
                    shared2.stats.conn_panics.fetch_add(1, Ordering::Relaxed);
                }
                shared2.stats.active.fetch_sub(1, Ordering::Relaxed);
                let _ = stream.shutdown(std::net::Shutdown::Both);
            });
        match handle {
            Ok(handle) => lock_conns(conns).push(handle),
            Err(_) => {
                // The OS refused the thread (exhaustion under an accept
                // flood): shed this connection — the stream was moved
                // into the unspawned closure and closes with it — and
                // keep the accept loop alive for when threads free up.
                shared.stats.active.fetch_sub(1, Ordering::Relaxed);
                shared.stats.over_capacity.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn send_status(mut stream: &TcpStream, status: WireStatus, payload: &[u8]) -> io::Result<()> {
    stream.write_all(&frame::encode(status.code(), payload))
}

/// Why a connection handler stopped: the connection ends, through
/// [`Conn::close`].
struct Closed;

/// The handler's control flow: `Err(Closed)` ends the connection.
type Flow = Result<(), Closed>;

/// A socket error that means "no progress within the timeout".
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Splits a submit payload into its app name, borrowed, and its sample,
/// decoded into `sample` (whose allocation is reused).
fn parse_submit<'p>(payload: &'p [u8], sample: &mut Vec<f32>) -> Result<&'p str, String> {
    if payload.len() < 2 {
        return Err("submit payload shorter than its app-name length prefix".into());
    }
    let name_len = u16::from_le_bytes([payload[0], payload[1]]) as usize;
    let sample_at = 2 + name_len;
    if payload.len() < sample_at {
        return Err(format!(
            "submit declares a {name_len}-byte app name but carries {}",
            payload.len() - 2
        ));
    }
    let app = std::str::from_utf8(&payload[2..sample_at])
        .map_err(|_| "app name is not UTF-8".to_string())?;
    if app.is_empty() {
        return Err("empty app name".into());
    }
    let sample_bytes = &payload[sample_at..];
    if !sample_bytes.len().is_multiple_of(4) {
        return Err(format!(
            "sample byte count {} is not a multiple of 4",
            sample_bytes.len()
        ));
    }
    sample.clear();
    sample.extend(
        sample_bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
    );
    Ok(app)
}

/// Appends one reply frame whose payload is `msg`'s text.
fn put_reply(out: &mut Vec<u8>, status: WireStatus, msg: impl Display) {
    frame::encode_into(out, status.code(), |out| {
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{msg}");
    });
}

/// Appends an `Ok` submit reply: `[u64 seq][u32 pred][u32 n][n × f32]`.
fn put_completion(out: &mut Vec<u8>, done: &Completion) {
    frame::encode_into(out, WireStatus::Ok.code(), |out| {
        out.extend_from_slice(&done.seq.to_le_bytes());
        out.extend_from_slice(&(done.pred as u32).to_le_bytes());
        out.extend_from_slice(&(done.logits.len() as u32).to_le_bytes());
        for l in &done.logits {
            out.extend_from_slice(&l.to_le_bytes());
        }
    });
}

/// A connection's read buffer: `buf[at..end]` holds bytes read but not
/// yet decoded. A frame is consumed by advancing `at`; the undecoded
/// tail moves to the front once per read, not once per frame.
struct Inbox {
    buf: Vec<u8>,
    at: usize,
    end: usize,
}

impl Inbox {
    fn new() -> Self {
        Self {
            buf: vec![0; INBOX_MIN],
            at: 0,
            end: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.at == self.end
    }

    fn is_full(&self) -> bool {
        self.end == self.buf.len()
    }

    /// Consumes the next complete frame: its tag and where its payload
    /// sits in `buf`.
    fn next_frame(
        &mut self,
        max_payload: usize,
    ) -> Result<(u8, std::ops::Range<usize>), FrameError> {
        let (tag, payload, used) = frame::split(&self.buf[self.at..self.end], max_payload)?;
        let start = self.at + frame::HEADER_LEN;
        let payload = start..start + payload.len();
        self.at += used;
        Ok((tag, payload))
    }

    /// Reads once from `src` straight into the buffer's free tail.
    ///
    /// Called only when no complete frame is buffered, so a full buffer
    /// holds one unfinished frame that `next_frame` has already checked
    /// against `max_payload`: the buffer grows, at most to that frame's
    /// size, and shrinks back to `INBOX_MIN` once drained.
    fn fill(&mut self, mut src: impl Read, max_payload: usize) -> io::Result<usize> {
        self.buf.copy_within(self.at..self.end, 0);
        self.end -= self.at;
        self.at = 0;
        if self.end == 0 && self.buf.len() > INBOX_MIN {
            self.buf.truncate(INBOX_MIN);
            self.buf.shrink_to_fit();
        } else if self.is_full() {
            let cap = frame::HEADER_LEN + max_payload;
            let grown = (2 * self.end).min(cap).max(self.end + 1);
            self.buf.resize(grown, 0);
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

/// One connection's state: its identity, its reply window and the
/// buffers it reuses from frame to frame (the read buffer lives apart,
/// in an [`Inbox`], so a payload can be borrowed from it while a frame
/// is handled).
struct Conn<'a> {
    shared: &'a Shared,
    stream: &'a TcpStream,
    peer: SocketAddr,
    /// The admission identity: the peer address until a Hello re-keys
    /// it. Distinct per connection — scoring still works within the
    /// connection; cross-connection standing requires a Hello (see the
    /// crate-level threat model).
    key: String,
    /// Submitted tickets, oldest first; at most `REPLY_WINDOW`.
    window: VecDeque<Ticket>,
    /// Encoded replies not yet sent, in submission order. Everything in
    /// it answers a frame older than every ticket in `window`.
    out: Vec<u8>,
    /// The sample of the submit being handled.
    sample: Vec<f32>,
    /// Whether the socket is in non-blocking mode.
    nonblocking: bool,
}

impl Conn<'_> {
    /// The per-connection loop (see the module docs). Returns when the
    /// connection should close.
    fn serve(&mut self, inbox: &mut Inbox) -> Flow {
        let shared = self.shared;
        let cfg = &shared.cfg;
        let mut frame_started: Option<Instant> = None;
        let mut idle_since = Instant::now();
        // A moment ago the socket held nothing more (the last read came
        // up short or found nothing): polling it again before waiting on
        // a ticket would only cost a syscall.
        let mut drained = false;
        loop {
            if shared.stop.load(Ordering::SeqCst) {
                shared
                    .stats
                    .shutdown_replies
                    .fetch_add(1, Ordering::Relaxed);
                self.reply(WireStatus::ShuttingDown, "server shutting down");
                return Err(Closed);
            }
            // Step 1: decode, gate and submit every complete frame.
            let mut decoded = false;
            while self.window.len() < REPLY_WINDOW {
                match inbox.next_frame(cfg.max_payload) {
                    Ok((tag, payload)) => {
                        decoded = true;
                        self.handle_frame(tag, &inbox.buf[payload])?;
                        if self.out.len() >= OUT_HIGH_WATER {
                            self.send()?;
                        }
                    }
                    Err(FrameError::Truncated { .. }) => break,
                    Err(FrameError::Oversize { declared, max }) => {
                        // Detected from the header alone: the declared
                        // payload was never read, let alone allocated.
                        // The stream cannot re-synchronise past an
                        // unread payload, so this always closes.
                        return self.punish(
                            Violation::Oversize,
                            WireStatus::Oversize,
                            format_args!("frame declares {declared} bytes, cap is {max}"),
                            true,
                        );
                    }
                }
            }
            if decoded {
                let now = Instant::now();
                idle_since = now;
                // Pipelined bytes already queued count as a started
                // frame from now.
                frame_started = (!inbox.is_empty()).then_some(now);
            }
            // Step 3, when the window is full or nothing more has come.
            if self.window.len() == REPLY_WINDOW || (drained && !self.window.is_empty()) {
                drained = false;
                self.flush_settled()?;
                continue;
            }
            // Step 2: take what the client has sent — without blocking
            // while tickets are out, else in ticks after sending what is
            // queued.
            if self.window.is_empty() {
                self.send()?;
            }
            self.set_nonblocking(!self.window.is_empty())
                .map_err(|_| Closed)?;
            match inbox.fill(self.stream, cfg.max_payload) {
                Ok(0) => return Err(Closed), // EOF: answer the window, close
                Ok(_) => {
                    drained = !inbox.is_full();
                    frame_started.get_or_insert_with(Instant::now);
                }
                Err(e) if is_timeout(&e) => {
                    if frame_started.is_some_and(|t0| t0.elapsed() > cfg.frame_deadline) {
                        // Slowloris: a half-sent frame may not pin this
                        // thread past the read deadline.
                        return self.punish(
                            Violation::Stall,
                            WireStatus::Stalled,
                            "frame not completed within the read deadline",
                            true,
                        );
                    }
                    let quiet = self.window.is_empty() && frame_started.is_none();
                    if quiet && idle_since.elapsed() > cfg.idle_timeout {
                        return Err(Closed); // quiet idle close, not a violation
                    }
                    drained = true;
                }
                Err(_) => return Err(Closed), // connection error
            }
        }
    }

    /// Handles one decoded frame: a ticket joins the window, any other
    /// answer is queued behind it.
    fn handle_frame(&mut self, tag: u8, payload: &[u8]) -> Flow {
        let shared = self.shared;
        shared.stats.frames.fetch_add(1, Ordering::Relaxed);
        match tag {
            TAG_HELLO => {
                let Some(id) = std::str::from_utf8(payload)
                    .ok()
                    .filter(|id| !id.is_empty() && id.len() <= 64)
                else {
                    return self.punish(
                        Violation::Malformed,
                        WireStatus::Malformed,
                        "hello id must be 1..=64 bytes of UTF-8",
                        false,
                    );
                };
                // Identity is IP-scoped: a client cannot claim another
                // network's standing (or inherit its bans) by name alone.
                let new_key = format!("{}#{id}", self.peer.ip());
                match shared.admission.connection_gate(&new_key, Instant::now()) {
                    Gate::Banned { until } => self.refuse_banned(until),
                    Gate::OverCapacity => self.refuse_over_capacity(),
                    Gate::Admitted | Gate::RateLimited => {
                        self.key = new_key;
                        self.reply(WireStatus::Ok, "");
                        Ok(())
                    }
                }
            }
            TAG_PING if payload.is_empty() => {
                self.reply(WireStatus::Ok, "");
                Ok(())
            }
            TAG_PING => self.punish(
                Violation::Malformed,
                WireStatus::Malformed,
                "ping carries no payload",
                false,
            ),
            TAG_SUBMIT => self.submit(payload),
            _ => self.punish(
                Violation::UnknownTag,
                WireStatus::UnknownTag,
                format_args!("unknown request tag {tag}"),
                false,
            ),
        }
    }

    fn submit(&mut self, payload: &[u8]) -> Flow {
        let shared = self.shared;
        match shared.admission.request_gate(&self.key, Instant::now()) {
            Gate::Banned { until } => return self.refuse_banned(until),
            Gate::OverCapacity => return self.refuse_over_capacity(),
            Gate::RateLimited => {
                shared.stats.rate_limited.fetch_add(1, Ordering::Relaxed);
                return self.punish(
                    Violation::Flood,
                    WireStatus::RateLimited,
                    "token bucket empty: over the sustained request rate",
                    false,
                );
            }
            Gate::Admitted => {}
        }
        let app = match parse_submit(payload, &mut self.sample) {
            Ok(app) => app,
            Err(why) => {
                return self.punish(Violation::Malformed, WireStatus::Malformed, why, false);
            }
        };
        match shared.executor.submit(app, &self.sample) {
            Ok(ticket) => {
                shared.stats.exec_submitted.fetch_add(1, Ordering::Relaxed);
                self.window.push_back(ticket);
            }
            Err(e) => {
                // Back-pressure and refusal stay typed end to end;
                // QueueFull/NotAdmitted entered the executor's own
                // `rejected` count, the rest never reached a queue.
                let counter = match e {
                    ServeError::QueueFull { .. } | ServeError::NotAdmitted { .. } => {
                        &shared.stats.exec_rejected
                    }
                    _ => &shared.stats.exec_refused,
                };
                counter.fetch_add(1, Ordering::Relaxed);
                self.reply(WireStatus::from_serve_error(&e), &e);
            }
        }
        Ok(())
    }

    /// Answers a banned client and ends the connection.
    fn refuse_banned(&mut self, until: Instant) -> Flow {
        self.shared
            .stats
            .banned_replies
            .fetch_add(1, Ordering::Relaxed);
        let left = until.saturating_duration_since(Instant::now());
        self.reply(
            WireStatus::Banned,
            format_args!("banned for another {:.3}s", left.as_secs_f64()),
        );
        Err(Closed)
    }

    /// Answers a client the full admission registry has no room for and
    /// ends the connection.
    fn refuse_over_capacity(&mut self) -> Flow {
        self.shared
            .stats
            .over_capacity
            .fetch_add(1, Ordering::Relaxed);
        self.reply(WireStatus::RateLimited, "admission registry at capacity");
        Err(Closed)
    }

    /// Scores a violation, answers it typed, and escalates to a ban reply
    /// when the score crosses the threshold. `force_close` is for
    /// violations after which the byte stream cannot be trusted to
    /// re-synchronise (oversize, stall).
    fn punish(
        &mut self,
        v: Violation,
        status: WireStatus,
        msg: impl Display,
        force_close: bool,
    ) -> Flow {
        self.reply(status, msg);
        let admission = &self.shared.admission;
        if let Some(window) = admission.record_violation(&self.key, v, Instant::now()) {
            self.shared
                .stats
                .banned_replies
                .fetch_add(1, Ordering::Relaxed);
            self.reply(
                WireStatus::Banned,
                format_args!(
                    "banned for {:.3}s: misbehaviour score crossed the threshold",
                    window.as_secs_f64()
                ),
            );
            return Err(Closed);
        }
        if force_close {
            Err(Closed)
        } else {
            Ok(())
        }
    }

    /// Queues a reply that comes from no ticket, behind the answers to
    /// every ticket ahead of it.
    fn reply(&mut self, status: WireStatus, msg: impl Display) {
        self.settle_window();
        put_reply(&mut self.out, status, msg);
    }

    /// Queues a settled ticket's answer.
    fn put_outcome(&mut self, outcome: eml_serve::Result<Completion>) {
        let stats = &self.shared.stats;
        match outcome {
            Ok(done) => {
                stats.completions.fetch_add(1, Ordering::Relaxed);
                put_completion(&mut self.out, &done);
            }
            Err(e) => {
                stats.ticket_errors.fetch_add(1, Ordering::Relaxed);
                put_reply(&mut self.out, WireStatus::from_serve_error(&e), &e);
            }
        }
    }

    /// Waits for every ticket in the window, oldest first, and queues
    /// its answer.
    fn settle_window(&mut self) {
        while let Some(ticket) = self.window.pop_front() {
            let outcome = ticket.wait_timeout(self.shared.cfg.reply_wait);
            self.put_outcome(outcome);
        }
    }

    /// Step 3: waits for the oldest ticket, queues its answer and the
    /// answer of every later ticket that has already settled, and sends
    /// them in one write.
    fn flush_settled(&mut self) -> Flow {
        if let Some(oldest) = self.window.pop_front() {
            let outcome = oldest.wait_timeout(self.shared.cfg.reply_wait);
            self.put_outcome(outcome);
        }
        while let Some(outcome) = self.window.front().and_then(Ticket::try_wait) {
            self.window.pop_front();
            self.put_outcome(outcome);
        }
        self.send()
    }

    /// Sends every queued reply. A failed write ends the connection; one
    /// that timed out is also scored as a stall (the client stopped
    /// reading). Either way the window is still waited for and counted.
    fn send(&mut self) -> Flow {
        if self.out.is_empty() {
            return Ok(());
        }
        let sent = self.write_out();
        self.out.clear();
        let Err(e) = sent else { return Ok(()) };
        if is_timeout(&e) {
            let admission = &self.shared.admission;
            let _ = admission.record_violation(&self.key, Violation::Stall, Instant::now());
        }
        self.settle_window();
        self.out.clear();
        Err(Closed)
    }

    /// `write_all` of `out`. A non-blocking socket whose send buffer is
    /// full finishes the write blocking, and a blocking write gives up
    /// once [`NetConfig::write_timeout`] has passed since it started
    /// (a partial write must not restart the socket's own timeout).
    fn write_out(&mut self) -> io::Result<()> {
        let mut stream = self.stream;
        let mut at = 0;
        let mut deadline = None;
        while at < self.out.len() {
            if !self.nonblocking && deadline.is_none() {
                deadline = Some(Instant::now() + self.shared.cfg.write_timeout);
            }
            match stream.write(&self.out[at..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => at += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && self.nonblocking => {
                    self.set_nonblocking(false)?;
                }
                Err(e) => return Err(e),
            }
            if at < self.out.len() && deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(io::ErrorKind::TimedOut.into());
            }
        }
        Ok(())
    }

    /// Switches the socket's mode, with a syscall only on a change.
    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        if self.nonblocking != on {
            self.stream.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    /// The one way a connection ends: answer the whole window, then
    /// send what is queued.
    fn close(&mut self) {
        self.settle_window();
        let _ = self.send();
    }
}

/// Runs one connection (see the module docs for the lifecycle).
fn handle_connection(shared: &Shared, stream: &TcpStream, peer: SocketAddr) {
    let _ = stream.set_read_timeout(Some(shared.cfg.read_tick.max(Duration::from_millis(1))));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut conn = Conn {
        shared,
        stream,
        peer,
        key: peer.to_string(),
        window: VecDeque::with_capacity(REPLY_WINDOW),
        out: Vec::new(),
        sample: Vec::new(),
        nonblocking: false,
    };
    let _ = conn.serve(&mut Inbox::new());
    conn.close();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_is_shareable_across_connection_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Executor>();
        assert_send_sync::<Shared>();
    }

    #[test]
    fn submit_payload_parsing_is_typed_never_panicking() {
        let mut sample = Vec::new();
        let mut parse = |p: &[u8]| parse_submit(p, &mut sample).map(str::to_string);
        assert!(parse(&[]).is_err());
        assert!(parse(&[5]).is_err());
        // Declared name length overruns the payload.
        assert!(parse(&[200, 0, b'a']).is_err());
        // Non-UTF-8 name.
        assert!(parse(&[2, 0, 0xFF, 0xFE]).is_err());
        // Empty name.
        assert!(parse(&[0, 0, 0, 0, 0, 0]).is_err());
        // Sample bytes not a multiple of 4.
        assert!(parse(&[1, 0, b'a', 1, 2, 3]).is_err());
        // A valid payload round-trips, into the reused sample buffer.
        let mut p = vec![3, 0];
        p.extend_from_slice(b"cam");
        p.extend_from_slice(&1.5f32.to_le_bytes());
        p.extend_from_slice(&(-2.0f32).to_le_bytes());
        assert_eq!(parse(&p).unwrap(), "cam");
        assert_eq!(sample, vec![1.5, -2.0]);
        p.truncate(5 + 4);
        assert_eq!(parse_submit(&p, &mut sample).unwrap(), "cam");
        assert_eq!(sample, vec![1.5]);
    }

    #[test]
    fn inbox_consumes_by_offset_and_stays_bounded() {
        const MAX: usize = 64 << 10;
        let mut wire = frame::encode(TAG_PING, &[]);
        wire.extend(frame::encode(TAG_SUBMIT, &[7; 3 * INBOX_MIN]));
        wire.extend(frame::encode(TAG_HELLO, b"id"));
        let mut src = &wire[..];
        let mut inbox = Inbox::new();
        let mut seen = Vec::new();
        loop {
            match inbox.next_frame(MAX) {
                Ok((tag, payload)) => seen.push((tag, inbox.buf[payload].to_vec())),
                Err(FrameError::Truncated { .. }) => {
                    if inbox.fill(&mut src, MAX).unwrap() == 0 {
                        break;
                    }
                    // One frame bigger than the resting size: the
                    // buffer grows to hold it, never past the cap.
                    assert!(inbox.buf.len() <= frame::HEADER_LEN + MAX);
                }
                Err(e) => panic!("{e}"),
            }
        }
        let tags: Vec<u8> = seen.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, [TAG_PING, TAG_SUBMIT, TAG_HELLO]);
        assert_eq!(seen[1].1, vec![7; 3 * INBOX_MIN]);
        assert_eq!(seen[2].1, b"id");
        assert!(inbox.is_empty());
        // Drained, the next read shrinks it back to its resting size.
        assert_eq!(inbox.fill(&b""[..], MAX).unwrap(), 0);
        assert_eq!(inbox.buf.len(), INBOX_MIN);
    }
}
