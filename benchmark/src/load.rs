//! The closed-loop load generator and its recorder: one client thread
//! that keeps a fixed number of requests outstanding, checks every
//! reply, scripts the control turns and churn cycles by completion
//! count, and cuts the run into windows whose medians are reported.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use eml_net::{client::encode_submit_payload, frame, server::TAG_SUBMIT, WireStatus};
use eml_serve::{Completion, ServeError, Ticket};

use crate::hist::Histogram;
use crate::stats::{median, window_median, WindowValue};
use crate::sut::{ChurnTimes, Fixture, System, TurnTimes, STALL};
use crate::sys::{process_cpu_ns, SpeedMeter, SPIN_EVERY_NS};
use crate::trace::{self_time, Span, Trace, ROOT};

/// Request trees stored per span-recording window; the rest feed the
/// per-layer histograms and are dropped.
const STORED_TREES_PER_WINDOW: usize = 64;
/// Upper bound on spans kept in memory for the trace file.
const TRACE_CAP: usize = 60_000;

/// One closed measurement window.
#[derive(Debug, Clone, Copy)]
pub struct WindowRow {
    /// Whether request spans were recorded in it.
    pub traced: bool,
    /// Its speed factor: mean spin time of the meter's samples inside
    /// it, over the reference.
    pub factor: f64,
    /// Wall seconds.
    pub secs: f64,
    /// Verified completions.
    pub completions: u64,
    /// Process CPU nanoseconds.
    pub cpu_ns: u64,
    /// Client-observed latency percentiles, ns.
    pub p50_ns: f64,
    /// 90th percentile, ns.
    pub p90_ns: f64,
    /// 99th percentile, ns.
    pub p99_ns: f64,
    /// Median control-turn wall time in the window, ns.
    pub turn_ns: Option<f64>,
}

/// A span-derived duration: a histogram for the open window, and the
/// closed windows' medians.
#[derive(Default)]
struct Series {
    hist: Histogram,
    windows: Vec<WindowValue>,
}

/// Everything the run measures, window by window.
pub struct Recorder {
    origin: Instant,
    /// `Some` in a traced run.
    trace: Option<Trace>,
    spans_on: bool,
    measuring: bool,
    window_ns: u64,
    window_end: u64,
    load_until: u64,
    started: u64,
    cpu0: u64,
    meter: SpeedMeter,
    /// Speed factor of the last closed stretch (restates rare events).
    factor: f64,
    completions: u64,
    latency: Histogram,
    turns: Vec<f64>,
    stored: usize,
    scratch: Vec<(u64, u64)>,
    /// Closed windows, in order.
    pub rows: Vec<WindowRow>,
    series: BTreeMap<&'static str, Series>,
    events: BTreeMap<&'static str, Vec<WindowValue>>,
    /// Control turns inside measured windows.
    pub turn_count: u64,
    next_control_id: i64,
}

impl Recorder {
    /// A recorder whose clock starts at `origin`; `traced` runs record
    /// spans in every other window.
    pub fn new(origin: Instant, traced: bool, window_secs: f64) -> Self {
        Self {
            origin,
            trace: traced.then(|| Trace::new(TRACE_CAP)),
            spans_on: false,
            measuring: false,
            window_ns: (window_secs * 1e9) as u64,
            window_end: u64::MAX,
            load_until: u64::MAX,
            started: 0,
            cpu0: 0,
            meter: SpeedMeter::new(),
            factor: 1.0,
            completions: 0,
            latency: Histogram::new(),
            turns: Vec::new(),
            stored: 0,
            scratch: Vec::new(),
            rows: Vec::new(),
            series: BTreeMap::new(),
            events: BTreeMap::new(),
            turn_count: 0,
            next_control_id: -1,
        }
    }

    /// Nanoseconds since the run started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The run's clock origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Whether requests submitted now should carry spans.
    pub fn spans_on(&self) -> bool {
        self.spans_on
    }

    /// Whether the open window is due to close at `now`.
    pub fn window_due(&self, now: u64) -> bool {
        now >= self.window_end
    }

    /// Closes the open window (if one is being measured) and opens the
    /// next. The `/proc` reads happen between the two, so no window
    /// pays for them. The window's speed factor is the mean of the
    /// meter's samples inside it (one every 2 ms).
    pub fn edge(&mut self, now: u64, measure_next: bool) {
        let cpu1 = process_cpu_ns();
        let factor = self.meter.take_factor();
        if self.measuring && self.completions > 0 {
            self.rows.push(WindowRow {
                traced: self.spans_on,
                factor,
                secs: (now - self.started) as f64 / 1e9,
                completions: self.completions,
                cpu_ns: cpu1.saturating_sub(self.cpu0),
                p50_ns: self.latency.percentile(0.50).unwrap_or(0.0),
                p90_ns: self.latency.percentile(0.90).unwrap_or(0.0),
                p99_ns: self.latency.percentile(0.99).unwrap_or(0.0),
                turn_ns: median(&self.turns),
            });
            // Requests that were submitted with spans and completed
            // after their window closed land in a plain window: a
            // handful of stragglers is not a median, drop them.
            for s in self.series.values_mut().filter(|_| self.spans_on) {
                if let Some(p50) = s.hist.percentile(0.5) {
                    s.windows.push(WindowValue {
                        raw: p50,
                        speed_factor: factor,
                    });
                }
            }
        }
        for s in self.series.values_mut() {
            s.hist.clear();
        }
        self.latency.clear();
        self.turns.clear();
        self.completions = 0;
        self.stored = 0;
        self.factor = factor;
        self.measuring = measure_next;
        // Span windows alternate with plain ones, so the traced run
        // carries its own untraced baseline.
        self.spans_on = self.trace.is_some() && measure_next && self.rows.len() % 2 == 1;
        self.cpu0 = process_cpu_ns();
        self.started = self.now();
        // The last window absorbs what would be left over, so the
        // phase ends on time and no window is a sliver.
        let left = self.load_until.saturating_sub(self.started);
        self.window_end = if left < self.window_ns + self.window_ns / 2 {
            self.load_until
        } else {
            self.started + self.window_ns
        };
    }

    /// Sets when the open (warm-up) stretch and the whole load phase
    /// end.
    pub fn set_schedule(&mut self, warm_until: u64, load_until: u64) {
        self.window_end = warm_until;
        self.load_until = load_until;
    }

    /// One verified completion: its client-observed latency, and the
    /// clock reading that ended it (the speed meter's tick).
    pub fn completion(&mut self, latency_ns: u64, now: u64) {
        self.completions += 1;
        self.latency.record(latency_ns);
        self.meter.tick(now, SPIN_EVERY_NS);
    }

    /// The speed factor since the last call (or edge): for stretches
    /// outside the windows — set-up repetitions, probes.
    pub fn meter(&mut self) -> &mut SpeedMeter {
        &mut self.meter
    }

    /// A span-derived duration of the open window.
    pub fn sample(&mut self, name: &'static str, ns: u64) {
        self.series.entry(name).or_default().hist.record(ns);
    }

    /// One request's spans (`tree[0]` is the root): stores a bounded
    /// sample of whole trees for the trace file.
    pub fn request_tree(&mut self, tree: &[Span]) {
        if self.stored < STORED_TREES_PER_WINDOW {
            if let Some(trace) = &mut self.trace {
                trace.push_tree(tree);
                self.stored += 1;
            }
        }
    }

    /// A rare, named event (a churn step, a `stats()` read): every one
    /// is stored in the trace, and its duration is restated by the
    /// speed factor of the last closed window (or the one a probe set).
    pub fn event(&mut self, name: &'static str, span: (u64, u64)) {
        self.mark(name, span);
        self.events.entry(name).or_default().push(WindowValue {
            raw: (span.1 - span.0) as f64,
            speed_factor: self.factor,
        });
    }

    /// Stores a lone span in the trace without counting it as an event
    /// (the extent of a probe).
    pub fn mark(&mut self, name: &'static str, span: (u64, u64)) {
        let request = self.next_control_id();
        if let Some(trace) = &mut self.trace {
            trace.push_tree(&[Span {
                name,
                start: span.0,
                end: span.1,
                parent: ROOT,
                request,
            }]);
        }
    }

    /// Control turns, churn steps and probes count down from -1.
    fn next_control_id(&mut self) -> i64 {
        self.next_control_id -= 1;
        self.next_control_id + 1
    }

    /// One control turn: its wall time goes to the open window, its
    /// parts become spans.
    pub fn turn(&mut self, whole: (u64, u64), parts: &TurnTimes) {
        if self.measuring {
            self.turns.push((whole.1 - whole.0) as f64);
            self.turn_count += 1;
        }
        if self.trace.is_some() {
            let request = self.next_control_id();
            let span = |name, (start, end): (u64, u64), parent| Span {
                name,
                start,
                end,
                parent,
                request,
            };
            let tree = [
                span("control.turn", whole, ROOT),
                span("serve.health_observe", parts.observe, 0),
                span("serve.control_epoch", parts.epoch, 0),
            ];
            if let Some(trace) = &mut self.trace {
                trace.push_tree(&tree);
            }
            for s in &tree[1..] {
                self.events.entry(s.name).or_default().push(WindowValue {
                    raw: s.dur() as f64,
                    speed_factor: self.factor,
                });
            }
        }
    }

    /// One churn cycle's steps, as events under `control.replan` etc.
    pub fn churn(&mut self, t: &ChurnTimes) {
        self.event("control.replan", t.replan);
        self.event("serve.knob_settle", t.knob_settle);
        self.event("serve.deregister", t.deregister);
        self.event("serve.register", t.register);
    }

    /// Median over windows of a span-derived series, restated, in ns.
    pub fn series_ns(&self, name: &str) -> Option<f64> {
        window_median(&self.series.get(name)?.windows, true)
    }

    /// Median over occurrences of a rare event, restated, in ns.
    pub fn event_ns(&self, name: &str) -> Option<f64> {
        window_median(self.events.get(name)?, true)
    }

    /// Sets the factor rare events are restated by (the probe phase
    /// has no windows to take it from).
    pub fn set_event_factor(&mut self, factor: f64) {
        self.factor = factor;
    }

    /// Hands the trace over for writing.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }
}

/// Top-1 agreement over whole passes of each tenant's pool, so the
/// share does not depend on where in a pass the clock stopped.
struct Agreement {
    pool_len: u32,
    pass_pos: Vec<u32>,
    pass_agree: Vec<u32>,
    agree: u64,
    seen: u64,
    partial_agree: u64,
    partial_seen: u64,
}

impl Agreement {
    fn new(tenants: usize, pool_len: usize) -> Self {
        Self {
            pool_len: pool_len as u32,
            pass_pos: vec![0; tenants],
            pass_agree: vec![0; tenants],
            agree: 0,
            seen: 0,
            partial_agree: 0,
            partial_seen: 0,
        }
    }

    fn record(&mut self, tenant: usize, agrees: bool) {
        self.partial_agree += u64::from(agrees);
        self.partial_seen += 1;
        self.pass_agree[tenant] += u32::from(agrees);
        self.pass_pos[tenant] += 1;
        if self.pass_pos[tenant] == self.pool_len {
            self.agree += u64::from(self.pass_agree[tenant]);
            self.seen += u64::from(self.pool_len);
            self.pass_pos[tenant] = 0;
            self.pass_agree[tenant] = 0;
        }
    }

    fn percent(&self) -> f64 {
        let (a, n) = if self.seen > 0 {
            (self.agree, self.seen)
        } else {
            (self.partial_agree, self.partial_seen)
        };
        if n == 0 {
            0.0
        } else {
            100.0 * a as f64 / n as f64
        }
    }
}

/// When the load phase's stretches end, in ns since the run started.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// End of the unmeasured warm-up.
    pub warm_until: u64,
    /// End of the measured windows.
    pub load_until: u64,
}

/// What the load phase hands back besides the recorder's windows.
#[derive(Debug, Clone, Copy)]
pub struct LoadOutcome {
    /// Share of replies agreeing with the f32 argmax, percent.
    pub top1_agree_pct: f64,
    /// Churn cycles run.
    pub churn_cycles: u64,
}

struct InFlight {
    ticket: Option<Ticket>,
    tenant: u32,
    sample: u32,
    id: u64,
    start: u64,
    /// End of the submit call / frame write; 0 when spans were off.
    sent: u64,
}

/// The closed loop. See the module docs.
pub struct Driver<'a> {
    sys: &'a mut System,
    fx: &'a Fixture,
    rec: &'a mut Recorder,
    agreement: Agreement,
    next_sample: Vec<u32>,
    order_pos: usize,
    next_id: u64,
    done: u64,
    next_turn: u64,
    next_churn: u64,
    churn_cycles: u64,
    stats_cursor: usize,
}

impl<'a> Driver<'a> {
    /// A driver over a freshly set-up system.
    pub fn new(sys: &'a mut System, fx: &'a Fixture, rec: &'a mut Recorder) -> Self {
        Self {
            agreement: Agreement::new(fx.shape.tenants, fx.shape.pool_len),
            next_sample: vec![0; fx.shape.tenants],
            order_pos: 0,
            next_id: 0,
            done: 0,
            next_turn: fx.shape.turn_every,
            next_churn: fx.shape.churn_every.unwrap_or(u64::MAX),
            churn_cycles: 0,
            stats_cursor: 0,
            sys,
            fx,
            rec,
        }
    }

    /// Runs warm-up and the measured windows, then quiesces.
    ///
    /// # Errors
    ///
    /// A reply that never came, a socket failure, or the script going
    /// off the rails — anything that makes the numbers meaningless.
    /// Wrong, refused or failed replies are *counted*, not errors.
    pub fn run(mut self, schedule: Schedule) -> Result<LoadOutcome, String> {
        let now = self.rec.now();
        self.rec.edge(now, false);
        self.rec
            .set_schedule(schedule.warm_until, schedule.load_until);
        if self.fx.shape.connections == 0 {
            self.run_in_process(schedule)?;
        } else {
            self.run_on_the_wire(schedule)?;
        }
        Ok(LoadOutcome {
            top1_agree_pct: self.agreement.percent(),
            churn_cycles: self.churn_cycles,
        })
    }

    fn next_request(&mut self) -> InFlight {
        let order = &self.fx.order;
        let tenant = order[self.order_pos % order.len()];
        self.order_pos += 1;
        let at = self.next_sample[tenant as usize];
        self.next_sample[tenant as usize] = (at + 1) % self.fx.shape.pool_len as u32;
        let sample = self.fx.sample_order[at as usize];
        let id = self.next_id;
        self.next_id += 1;
        InFlight {
            ticket: None,
            tenant,
            sample,
            id,
            start: 0,
            sent: 0,
        }
    }

    /// Counts one reply that is in hand and checked.
    fn tally(&mut self, f: &InFlight, verified: bool, t_done: u64) {
        if verified {
            let reference = &self.fx.tenants[f.tenant as usize].reference;
            let level = self.sys.levels[f.tenant as usize];
            self.agreement.record(
                f.tenant as usize,
                reference.agrees(level, f.sample as usize),
            );
            self.rec.completion(t_done - f.start, t_done);
        } else {
            self.sys.failed += 1;
        }
        self.done += 1;
    }

    /// What completion counts and the clock trigger after a reply:
    /// control turns, churn cycles (on a quiesced system), window
    /// edges. Returns whether the load phase is over.
    fn after_reply(
        &mut self,
        t_done: u64,
        schedule: Schedule,
        quiesce: &mut dyn FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<bool, String> {
        if self.done >= self.next_turn {
            self.next_turn += self.fx.shape.turn_every;
            self.control_turn()?;
        }
        if self.done >= self.next_churn {
            self.next_churn += self.fx.shape.churn_every.unwrap_or(u64::MAX);
            quiesce(self)?;
            let times = self.sys.churn_cycle(self.fx, self.rec.origin())?;
            self.rec.churn(&times);
            self.churn_cycles += 1;
        }
        if self.rec.window_due(t_done) {
            let over = t_done >= schedule.load_until;
            if over {
                quiesce(self)?;
            }
            let now = self.rec.now();
            self.rec.edge(now, !over);
            return Ok(over);
        }
        Ok(false)
    }

    fn control_turn(&mut self) -> Result<(), String> {
        let t0 = self.rec.now();
        let parts = self.sys.control_turn(self.rec.origin())?;
        let t1 = self.rec.now();
        self.rec.turn((t0, t1), &parts);
        if self.rec.spans_on() {
            // Beside the turn, not inside it: what one `stats()` read
            // costs with load in flight.
            let name = &self.fx.tenants[self.stats_cursor % self.fx.tenants.len()].name;
            self.stats_cursor += 1;
            let s0 = self.rec.now();
            let snap = self.sys.exec().stats(name);
            let s1 = self.rec.now();
            snap.map_err(|e| format!("stats {name}: {e}"))?;
            self.rec.event("serve.stats", (s0, s1));
        }
        Ok(())
    }

    fn run_in_process(&mut self, schedule: Schedule) -> Result<(), String> {
        let k = self.fx.shape.outstanding;
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(k);
        loop {
            while inflight.len() < k {
                let mut f = self.next_request();
                let t = &self.fx.tenants[f.tenant as usize];
                let spans = self.rec.spans_on();
                self.sys.attempted += 1;
                f.start = self.rec.now();
                let submitted = self
                    .sys
                    .exec()
                    .submit(&t.name, t.pool.sample(f.sample as usize));
                if spans {
                    f.sent = self.rec.now();
                }
                match submitted {
                    Ok(ticket) => {
                        f.ticket = Some(ticket);
                        inflight.push_back(f);
                    }
                    Err(_) => {
                        // Refused: counted, nothing to wait for. Do not
                        // spin on a system that refuses everything.
                        self.sys.failed += 1;
                        self.done += 1;
                        break;
                    }
                }
            }
            let Some(f) = inflight.pop_front() else {
                return Err("every submission was refused".into());
            };
            let (verified, t_done) = self.await_ticket(&f)?;
            self.tally(&f, verified, t_done);
            let mut quiesce = |d: &mut Self| -> Result<(), String> {
                while let Some(g) = inflight.pop_front() {
                    let (ok, t) = d.await_ticket(&g)?;
                    d.tally(&g, ok, t);
                }
                Ok(())
            };
            if self.after_reply(t_done, schedule, &mut quiesce)? {
                return Ok(());
            }
        }
    }

    /// Waits for one ticket, checks the reply, and — when the request
    /// carried spans — records its stages ([`request_stages`]).
    fn await_ticket(&mut self, f: &InFlight) -> Result<(bool, u64), String> {
        let ticket = f
            .ticket
            .as_ref()
            .ok_or("in-flight request without a ticket")?;
        let done = match ticket.wait_timeout(STALL) {
            Ok(done) => done,
            Err(ServeError::WaitTimeout { app }) => {
                return Err(format!("{app}: no reply within {STALL:?}"));
            }
            Err(_) => return Ok((false, self.rec.now())),
        };
        let t_done = self.rec.now();
        let level = self.sys.levels[f.tenant as usize];
        let verified = self
            .fx
            .verify(f.tenant as usize, level, f.sample as usize, &done.logits)
            && done.pred == crate::models::argmax(&done.logits);
        if f.sent != 0 {
            let (tree, stages) = request_stages(
                f.id as i64,
                (f.start, f.sent, t_done),
                &done,
                &mut self.rec.scratch,
            );
            for (name, ns) in STAGE_NAMES.into_iter().zip(stages) {
                self.rec.sample(name, ns);
            }
            self.rec.request_tree(&tree);
        }
        Ok((verified, t_done))
    }

    fn run_on_the_wire(&mut self, schedule: Schedule) -> Result<(), String> {
        let shape = self.fx.shape;
        let mut pipes: Vec<VecDeque<InFlight>> = (0..shape.connections)
            .map(|_| VecDeque::with_capacity(shape.outstanding))
            .collect();
        for (c, pipe) in pipes.iter_mut().enumerate() {
            for _ in 0..shape.outstanding {
                pipe.push_back(self.write_frame(c)?);
            }
        }
        loop {
            for c in 0..shape.connections {
                let Some(f) = pipes[c].pop_front() else {
                    return Err("a connection's pipeline ran dry".into());
                };
                let (verified, t_done) = self.read_reply(c, &f)?;
                self.tally(&f, verified, t_done);
                let next = self.write_frame(c)?;
                pipes[c].push_back(next);
                let mut quiesce = |d: &mut Self| -> Result<(), String> {
                    for (c, pipe) in pipes.iter_mut().enumerate() {
                        while let Some(g) = pipe.pop_front() {
                            let (ok, t) = d.read_reply(c, &g)?;
                            d.tally(&g, ok, t);
                        }
                    }
                    Ok(())
                };
                if self.after_reply(t_done, schedule, &mut quiesce)? {
                    return Ok(());
                }
            }
        }
    }

    /// Encodes and writes one submit frame on connection `c`.
    fn write_frame(&mut self, c: usize) -> Result<InFlight, String> {
        let mut f = self.next_request();
        let t = &self.fx.tenants[f.tenant as usize];
        let payload = encode_submit_payload(&t.name, t.pool.sample(f.sample as usize))
            .map_err(|e| e.to_string())?;
        let bytes = frame::encode(TAG_SUBMIT, &payload);
        let spans = self.rec.spans_on();
        self.sys.attempted += 1;
        self.sys.wire_submits += 1;
        f.start = self.rec.now();
        self.sys.clients()[c]
            .send_raw(&bytes)
            .map_err(|e| format!("write frame: {e}"))?;
        if spans {
            f.sent = self.rec.now();
        }
        Ok(f)
    }

    /// Reads the next reply on connection `c` (replies come back in
    /// the order the frames went out), decodes and checks it.
    fn read_reply(&mut self, c: usize, f: &InFlight) -> Result<(bool, u64), String> {
        let r0 = if f.sent != 0 { self.rec.now() } else { 0 };
        let (status, payload) = self.sys.clients()[c]
            .read_status()
            .map_err(|e| format!("read reply: {e}"))?;
        let t_done = self.rec.now();
        let level = self.sys.levels[f.tenant as usize];
        let verified = status == WireStatus::Ok
            && decode_completion(&payload).is_some_and(|(pred, logits)| {
                self.fx
                    .verify(f.tenant as usize, level, f.sample as usize, &logits)
                    && pred as usize == crate::models::argmax(&logits)
            });
        if f.sent != 0 {
            let span = |name, start, end, parent| Span {
                name,
                start,
                end,
                parent,
                request: f.id as i64,
            };
            let tree = [
                span("request", f.start, t_done, ROOT),
                span("net.write", f.start, f.sent, 0),
                span("net.read", r0.max(f.sent), t_done, 0),
            ];
            self.rec.sample("net.write", f.sent - f.start);
            self.rec.request_tree(&tree);
        }
        Ok((verified, t_done))
    }
}

/// The per-request stages an in-process request is split into, in the
/// order [`request_stages`] returns them.
pub const STAGE_NAMES: [&str; 5] = [
    "serve.submit",
    "serve.queue_wait",
    "serve.service",
    "serve.handoff",
    "serve.service_per_sample",
];

/// One in-process request as spans — `request → serve.submit /
/// serve.wait → serve.queue, serve.service` — and its stage durations
/// in [`STAGE_NAMES`] order. `(start, sent, done_at)` are the submit
/// call's start and end and the moment the reply was in hand.
///
/// Queue wait and service are the executor's own numbers
/// (`Completion.latency - service`, `Completion.service`); hand-off is
/// the self time of `serve.wait`. The executor's clock starts inside
/// `submit`, a moment before `sent`: laid out from `sent`, its two
/// stages can overrun the wait by that moment, so the spans are
/// clipped to nest.
pub fn request_stages(
    request: i64,
    (start, sent, done_at): (u64, u64, u64),
    done: &Completion,
    scratch: &mut Vec<(u64, u64)>,
) -> ([Span; 5], [u64; 5]) {
    let latency = (done.latency.as_secs() * 1e9) as u64;
    let service = (done.service.as_secs() * 1e9) as u64;
    let queue = latency.saturating_sub(service);
    let span = |name, start, end, parent| Span {
        name,
        start,
        end,
        parent,
        request,
    };
    let served_from = (sent + queue).min(done_at);
    let tree = [
        span("request", start, done_at, ROOT),
        span("serve.submit", start, sent, 0),
        span("serve.wait", sent, done_at, 0),
        span("serve.queue", sent, served_from, 2),
        span(
            "serve.service",
            served_from,
            (served_from + service).min(done_at),
            2,
        ),
    ];
    let stages = [
        sent - start,
        queue,
        service,
        self_time(&tree, 2, scratch),
        service / done.batch_size.max(1) as u64,
    ];
    (tree, stages)
}

/// Closed windows as values to restate: `value` picks a row's number,
/// `None` leaves the row out.
pub fn windows_of(
    rows: &[WindowRow],
    value: impl Fn(&WindowRow) -> Option<f64>,
) -> Vec<WindowValue> {
    rows.iter()
        .filter_map(|r| {
            value(r).map(|raw| WindowValue {
                raw,
                speed_factor: r.factor,
            })
        })
        .collect()
}

/// Decodes an `Ok` submit reply: `[u64 seq][u32 pred][u32 n][f32 x n]`,
/// little-endian (the server's `encode_completion`).
pub fn decode_completion(body: &[u8]) -> Option<(u32, Vec<f32>)> {
    let pred = u32::from_le_bytes(body.get(8..12)?.try_into().ok()?);
    let n = u32::from_le_bytes(body.get(12..16)?.try_into().ok()?) as usize;
    let rest = body.get(16..)?;
    if rest.len() != 4 * n {
        return None;
    }
    let logits = rest
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Some((pred, logits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_counts_whole_passes_only() {
        let mut a = Agreement::new(2, 4);
        // Tenant 0: one full pass with 3 of 4 agreeing, then a partial
        // pass that must not count. Tenant 1: a partial pass only.
        for agrees in [true, true, false, true, false, false] {
            a.record(0, agrees);
        }
        a.record(1, false);
        assert_eq!((a.agree, a.seen), (3, 4));
        assert!((a.percent() - 75.0).abs() < 1e-12);
        // With no whole pass yet, the partial share stands in.
        let mut b = Agreement::new(1, 4);
        b.record(0, true);
        b.record(0, false);
        assert!((b.percent() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn completion_bodies_decode_or_fail_typed() {
        let mut body = Vec::new();
        body.extend_from_slice(&42u64.to_le_bytes());
        body.extend_from_slice(&2u32.to_le_bytes());
        body.extend_from_slice(&3u32.to_le_bytes());
        for l in [0.1f32, 0.2, 0.7] {
            body.extend_from_slice(&l.to_le_bytes());
        }
        assert_eq!(decode_completion(&body), Some((2, vec![0.1, 0.2, 0.7])));
        assert_eq!(decode_completion(&body[..18]), None);
        assert_eq!(decode_completion(&body[..10]), None);
    }
}
