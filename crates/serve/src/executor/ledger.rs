//! The per-app ledger: every request an app has admitted and every
//! counter that accounts for one, under **one lock**.
//!
//! A request is in exactly one place — `pending`, `inflight`, or counted
//! in one of `completed` / `errors` / `shed` — and every move between
//! them happens in this file, inside the ledger's critical section.
//! That is what keeps
//! `submitted + storm_injected == completed + errors + rejected + shed`
//! exact, and what makes [`AppLedger::snapshot`] one instant of the app:
//! it copies the counters, `queue_depth`, `in_flight` and the latency
//! window in a single critical section, so no reader can see a batch
//! both in flight and already completed. The fields that move requests
//! or count them are private to this file; the scheduling flags the
//! other executor modules steer by are `pub(super)`.
//!
//! Requests leave the ledger by two settlements: [`Ledger::complete`]
//! (a forward pass answered them) and [`AppLedger::fail`] (anything
//! else: a failed or confiscated batch, a shed deadline, a stranded
//! queue) — the only writers of the right-hand side of the equation.
//!
//! **Completion slots.** Each settlement also *answers* the requests it
//! removes, in the same critical section: it writes the outcome into
//! the request's completion slot, where the request's `Ticket` reads
//! it. The slots are a slab owned by the ledger, grown to the app's
//! high water of live tickets and recycled through a free list; each
//! carries a generation, and a ticket reads its slot only while the
//! generations match. A slot is freed by the later of its settle and
//! its ticket's drop (or the ticket taking the outcome). A ticket
//! blocks on the `settled` condvar, and the unlock after a settle
//! notifies it only when an answered slot's ticket is waiting. The
//! queued samples are recycled the same way, so after warm-up the only
//! allocation a request makes here is its `Completion`'s logits row.
//!
//! Every unlock publishes: the guard [`AppLedger::lock`] returns stores
//! the app's scheduling word (`sched::sched_word` of the ledger it
//! guarded) into the app's atomic before it releases the lock, and so
//! does [`AppLedger::wait`] before it sleeps. The word is a function
//! of the ledger alone, so whatever a critical section changed — the
//! queue, `busy`, `paused`, `stopping`, the knobs, `band_cap` — the
//! drivers' lock-free roster scan reads it at the next unlock, and no
//! writer can forget to tell them. Only [`AppLedger::snapshot`] and the
//! ticket side ([`AppLedger::take_outcome`], [`AppLedger::forget`]),
//! which change nothing the word reads, take the bare lock.
//!
//! Lock rank: `EXEC_QUEUE`, above the pool scheduler (a driver holds it
//! while it re-verifies its pick under the picked app's ledger) and
//! below the model (`EXEC_MODEL`), so the ledger is never taken while a
//! model lock is held.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Condvar;
use std::time::{Duration, Instant};

use eml_core::knobs::KnobCommand;
use eml_core::sync::{rank, RankedGuard, RankedMutex};
use eml_nn::tensor::Tensor;
use eml_nn::Precision;
use eml_platform::units::TimeSpan;

use super::sched::{sched_word, KeyBasis, NOT_CLAIMABLE};
use super::Completion;
use crate::error::{Result, ServeError};
use crate::fault::{FaultKind, FaultState, Injected};
use crate::stats::{percentiles, with_scratch, AppStatsSnapshot, Select, Window};

/// One admitted request, from `submit` to its settlement.
pub(super) struct PendingRequest {
    pub(super) seq: u64,
    /// The sample while queued; handed back to the ledger's spare list
    /// (and left empty) once `dispatch` has copied it into the batch.
    input: Vec<f32>,
    pub(super) submitted: Instant,
    /// Where the outcome is answered; `None` for a storm-injected
    /// request, which has no ticket.
    slot: Option<SlotId>,
}

/// A request's completion slot: its index in the app's slab and the
/// slot's generation when the request took it. A ticket reads the slot
/// only while the generations match, so a recycled slot never answers
/// a stale ticket.
#[derive(Debug, Clone, Copy)]
pub(super) struct SlotId {
    pub(super) index: usize,
    pub(super) generation: u64,
}

/// What one completion slot holds.
enum SlotState {
    /// On the free list.
    Free,
    /// The request is queued or in flight, and its ticket is live.
    Pending,
    /// Answered; the ticket has not taken the outcome yet.
    Ready(Result<Completion>),
    /// The ticket was dropped before the answer; the settle frees it.
    Abandoned,
}

struct Slot {
    generation: u64,
    state: SlotState,
    /// The ticket is blocked on `settled` waiting for this slot. A
    /// ticket is not `Sync`, so a slot has at most one waiter.
    waited: bool,
}

/// What a ticket found in its slot.
pub(super) enum SlotRead {
    /// The outcome, now taken: the slot is free again.
    Ready(Result<Completion>),
    /// Not answered yet.
    Pending,
    /// Nothing to read: the outcome was taken before, or the request
    /// left a stopped ledger without an answer.
    Gone,
}

/// How long a ticket read waits for a pending slot.
pub(super) enum Wait {
    No,
    For(Duration),
    Forever,
}

/// An app's completion slots. The slab grows to the high water of
/// live tickets and recycles through a free list, so a warm request
/// takes a slot without allocating. A slot is freed by the later of
/// its settle and its ticket's drop (or the ticket taking the outcome).
#[derive(Default)]
struct Slots {
    slab: Vec<Slot>,
    free: Vec<usize>,
    /// An answer landed in a slot whose ticket is waiting: the unlock
    /// notifies `settled`.
    wake: bool,
}

impl Slots {
    /// A pending slot for a newly admitted request.
    fn open(&mut self) -> SlotId {
        let index = self.free.pop().unwrap_or_else(|| {
            push_exact(
                &mut self.slab,
                Slot {
                    generation: 0,
                    state: SlotState::Free,
                    waited: false,
                },
            );
            self.slab.len() - 1
        });
        let slot = &mut self.slab[index];
        slot.state = SlotState::Pending;
        SlotId {
            index,
            generation: slot.generation,
        }
    }

    /// The state of `id`'s slot, `None` once the slot was recycled.
    fn get(&mut self, id: SlotId) -> Option<&mut SlotState> {
        let slot = &mut self.slab[id.index];
        (slot.generation == id.generation).then_some(&mut slot.state)
    }

    fn is_pending(&mut self, id: SlotId) -> bool {
        matches!(self.get(id), Some(SlotState::Pending))
    }

    /// Marks whether `id`'s ticket is blocked waiting for it.
    fn watch(&mut self, id: SlotId, waited: bool) {
        self.slab[id.index].waited = waited;
    }

    /// Returns `index` to the free list under a new generation, so no
    /// ticket of the old one reads it again.
    fn release(&mut self, index: usize) {
        let slot = &mut self.slab[index];
        slot.generation += 1;
        slot.state = SlotState::Free;
        slot.waited = false;
        push_exact(&mut self.free, index);
    }

    /// The settle's write: answers `id`'s request exactly once. An
    /// abandoned slot has no reader left and is freed instead.
    fn answer(&mut self, id: SlotId, outcome: Result<Completion>) {
        match self.get(id) {
            Some(SlotState::Abandoned) => self.release(id.index),
            Some(state) => {
                debug_assert!(
                    matches!(state, SlotState::Pending),
                    "completion slot {id:?} answered twice"
                );
                *state = SlotState::Ready(outcome);
                self.wake |= self.slab[id.index].waited;
            }
            // Unreachable: a request's slot is freed only by its settle.
            None => {}
        }
    }

    /// The ticket's read: takes a ready outcome (freeing the slot).
    fn take(&mut self, id: SlotId) -> SlotRead {
        let Some(state) = self.get(id) else {
            return SlotRead::Gone;
        };
        match std::mem::replace(state, SlotState::Free) {
            SlotState::Ready(outcome) => {
                self.release(id.index);
                SlotRead::Ready(outcome)
            }
            SlotState::Pending => {
                *state = SlotState::Pending;
                SlotRead::Pending
            }
            other => {
                *state = other;
                SlotRead::Gone
            }
        }
    }

    /// The ticket's drop: frees an answered slot, or leaves a pending
    /// one for its settle to free.
    fn forget(&mut self, id: SlotId) {
        match self.get(id) {
            Some(state @ SlotState::Pending) => *state = SlotState::Abandoned,
            Some(SlotState::Ready(_)) => self.release(id.index),
            _ => {}
        }
    }
}

/// Pushes `x`, growing `v` by exactly what it needs: the per-app
/// vectors keep the app's high water, not a doubling of it, which
/// matters at a hundred mostly idle tenants.
fn push_exact<T>(v: &mut Vec<T>, x: T) {
    v.reserve_exact(1);
    v.push(x);
}

/// Which requests a failing settlement answers ([`AppLedger::fail`]).
pub(super) enum Riders {
    /// The in-flight batch.
    InFlight,
    /// The `n` oldest queued requests.
    Oldest(usize),
    /// The in-flight batch, then the whole queue.
    All,
}

/// How one knob command ended ([`Ledger::record_knobs`]).
pub(super) enum KnobOutcome {
    /// Actuated; the model now runs at this level and precision.
    Applied(usize, Precision),
    /// The model refused it (e.g. width out of range).
    Rejected(String),
    /// Dropped by an injected actuation fault.
    Faulted,
}

/// An app's queue, in-flight batch, counters and latency window. Shared
/// between submitters, the pool drivers, the watchdog and the control
/// plane; never held across an inference.
pub(super) struct Ledger {
    pending: VecDeque<PendingRequest>,
    /// The batch currently being served. It stays *here* (not on the
    /// driver's stack) so the supervisor can fail it with a typed
    /// error when the driver dies or wedges; the driver settles it
    /// after the forward and discards its results if the supervisor
    /// got there first (the slot is empty then).
    inflight: Vec<PendingRequest>,
    /// Where every ticket's outcome is answered.
    slots: Slots,
    /// Sample buffers of dispatched or failed requests, reused by the
    /// next admissions (the app's high water of queued samples).
    spare_inputs: Vec<Vec<f32>>,
    /// Injected-fault state: `None` unless the app has a fault-plan
    /// slice or has been `inject_fault`ed.
    faults: Option<Box<FaultState>>,
    next_seq: u64,
    last_seq: Option<u64>,
    /// The cumulative counters and the model's operating point, kept in
    /// the shape they are read in: a snapshot is a clone of this with
    /// the depths, the window and the `pub(super)` fields below filled
    /// in. Those derived fields are meaningless in the stored copy.
    stats: AppStatsSnapshot,
    window: Window,
    /// Supervised restarts charged to this app (the watchdog's count).
    pub(super) restarts: u64,
    /// Wedged batches confiscated from this app (the watchdog's count).
    pub(super) stalls: u64,
    /// Application-layer knob commands awaiting execution on a pool
    /// driver (which holds the model lock to actuate).
    pub(super) knobs: Vec<KnobCommand>,
    pub(super) band_cap: usize,
    pub(super) admitted: bool,
    pub(super) paused: bool,
    /// Claimed by a pool driver: exactly one driver serves an app at a
    /// time, which is what preserves per-app FIFO completion order on
    /// a shared pool. Cleared on release — or by the watchdog when the
    /// claiming driver dies.
    pub(super) busy: bool,
    /// EWMA of per-sample service time (seconds), for deadline-aware
    /// batch sizing. Lives in shared state (not on a driver's stack)
    /// because on a shared pool *different* drivers serve consecutive
    /// batches of the same app; injected spike delays are excluded so
    /// coalescing stays deterministic across a fault.
    pub(super) ewma: Option<f64>,
    /// Active `drain_app` calls; submissions are refused while the
    /// queue is being drained so the drain terminates.
    pub(super) draining: u32,
    /// Set (together with `stopping`) by `deregister_dnn`, so raced
    /// submissions surface the distinct [`ServeError::AppDeregistered`]
    /// rather than shutdown's [`ServeError::AppStopped`].
    pub(super) departing: bool,
    pub(super) stopping: bool,
}

impl Ledger {
    /// Requests queued.
    pub(super) fn depth(&self) -> usize {
        self.pending.len()
    }

    /// Requests taken from the queue but not yet settled.
    pub(super) fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Nothing queued and nothing in flight.
    pub(super) fn is_drained(&self) -> bool {
        self.pending.is_empty() && self.inflight.is_empty()
    }

    /// The oldest queued request (FIFO: the queue's front).
    pub(super) fn oldest(&self) -> Option<&PendingRequest> {
        self.pending.front()
    }

    /// Admission: refuses typed (counting a rejection where the request
    /// was this app's to take), or queues the sample and returns its
    /// sequence number and the completion slot its ticket reads.
    pub(super) fn admit(
        &mut self,
        app: &str,
        sample: &[f32],
        capacity: usize,
    ) -> Result<(u64, SlotId)> {
        // `departing` before `stopping`: a submitter that resolved the
        // app just before the tombstone swap still gets the distinct
        // deregistration refusal, not shutdown's.
        if self.departing {
            return Err(ServeError::AppDeregistered { app: app.into() });
        }
        if self.stopping || self.draining > 0 {
            return Err(ServeError::AppStopped { app: app.into() });
        }
        if !self.admitted {
            self.stats.rejected += 1;
            return Err(ServeError::NotAdmitted { app: app.into() });
        }
        if self.pending.len() >= capacity {
            self.stats.rejected += 1;
            return Err(ServeError::QueueFull {
                app: app.into(),
                capacity,
            });
        }
        let slot = self.slots.open();
        Ok((self.enqueue(sample, Some(slot)), slot))
    }

    /// Queues a copy of `sample` in a recycled buffer.
    fn enqueue(&mut self, sample: &[f32], slot: Option<SlotId>) -> u64 {
        let mut input = self.spare_inputs.pop().unwrap_or_default();
        input.clear();
        input.extend_from_slice(sample);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(PendingRequest {
            seq,
            input,
            submitted: Instant::now(),
            slot,
        });
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.pending.len());
        seq
    }

    /// Enqueues `n` synthetic copies of the queue's front sample (the
    /// triggering batch's first request) behind it, stopping at
    /// capacity. Synthetic requests have no ticket; their completions
    /// land in the counters like any other request.
    fn inject_storm(&mut self, n: usize, capacity: usize) {
        let Some(template) = self.pending.front().map(|r| r.input.clone()) else {
            return;
        };
        for _ in 0..n.min(capacity.saturating_sub(self.pending.len())) {
            self.enqueue(&template, None);
            self.stats.storm_injected += 1;
        }
    }

    /// Arms a one-shot fault, consumed by the next dispatched batch.
    pub(super) fn arm_fault(&mut self, kind: FaultKind) {
        self.faults.get_or_insert_with(Box::default).arm(kind);
    }

    /// The fault seam of a dispatch of the `k` oldest requests and
    /// `knobs` knob commands (see [`crate::fault`]). An app without
    /// fault state — no plan slice, never `inject_fault`ed — runs none
    /// of it.
    pub(super) fn on_dispatch(&mut self, k: usize, knobs: usize, capacity: usize) -> Injected {
        let Some(mut faults) = self.faults.take() else {
            return Injected::default();
        };
        let max_seq = k.checked_sub(1).map(|last| self.pending[last].seq);
        let injected = faults.on_dispatch(max_seq, knobs, |n| self.inject_storm(n, capacity));
        self.faults = Some(faults);
        injected
    }

    /// Moves the `k` oldest requests into the supervised in-flight
    /// slot and writes their inputs into `data` as one contiguous
    /// buffer for the batched forward. Their sample buffers go back to
    /// the spare list.
    pub(super) fn dispatch(&mut self, k: usize, data: &mut Vec<f32>) {
        data.clear();
        self.inflight.reserve_exact(k);
        self.spare_inputs.reserve_exact(k);
        for mut req in self.pending.drain(..k) {
            data.extend_from_slice(&req.input);
            self.spare_inputs.push(std::mem::take(&mut req.input));
            self.inflight.push(req);
        }
    }

    /// Settles the served in-flight batch: one `completed` and one
    /// window sample per rider, and one row of `logits` written into
    /// each rider's completion slot. `service` is the measured forward;
    /// `deadline` the app's, for the per-request verdict.
    pub(super) fn complete(
        &mut self,
        logits: &Tensor,
        service: Duration,
        deadline: Option<TimeSpan>,
    ) {
        let mut batch = std::mem::take(&mut self.inflight);
        let k = batch.len();
        let classes = logits.shape()[1];
        let service = TimeSpan::from_secs(service.as_secs_f64());
        self.stats.batches += 1;
        self.stats.batched_samples += k as u64;
        let rows = logits.data();
        for (i, req) in batch.drain(..).enumerate() {
            let latency_s = req.submitted.elapsed().as_secs_f64();
            let met = deadline.map(|dl| latency_s <= dl.as_secs());
            self.record(req.seq, latency_s, met);
            let Some(slot) = req.slot else {
                continue;
            };
            let row = &rows[i * classes..(i + 1) * classes];
            // Total order: a NaN logit (a client-submitted NaN sample
            // propagates on the f32 path) must yield *a* prediction,
            // not a panic — the NaN is visible to the caller in the
            // logits row.
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(c, _)| c);
            let completion = Completion {
                seq: req.seq,
                logits: row.to_vec(),
                pred,
                latency: TimeSpan::from_secs(latency_s),
                service,
                batch_size: k,
                deadline_met: met,
            };
            self.slots.answer(slot, Ok(completion));
        }
        self.inflight = batch;
    }

    /// Answers `riders` with `error(seq)` each, counted under `shed`
    /// for [`ServeError::DeadlineExpired`] and under `errors` otherwise.
    fn fail_riders(&mut self, riders: Riders, error: impl Fn(u64) -> ServeError) {
        let (flying, queued) = match riders {
            Riders::InFlight => (self.inflight.len(), 0),
            Riders::Oldest(n) => (0, n),
            Riders::All => (self.inflight.len(), self.pending.len()),
        };
        let mut batch = std::mem::take(&mut self.inflight);
        for req in batch.drain(..flying).chain(self.pending.drain(..queued)) {
            let error = error(req.seq);
            match error {
                ServeError::DeadlineExpired { .. } => self.stats.shed += 1,
                _ => self.stats.errors += 1,
            }
            if req.input.capacity() > 0 {
                push_exact(&mut self.spare_inputs, req.input);
            }
            if let Some(slot) = req.slot {
                self.slots.answer(slot, Err(error));
            }
        }
        self.inflight = batch;
    }

    /// Reads `id`'s slot for its ticket. A slot still pending in a
    /// ledger that has stopped and drained lost its request unanswered
    /// (every request that leaves the ledger is answered as it leaves),
    /// so it reads [`SlotRead::Gone`] and is freed.
    fn take(&mut self, id: SlotId) -> SlotRead {
        match self.slots.take(id) {
            SlotRead::Pending if self.closed() => {
                self.slots.release(id.index);
                SlotRead::Gone
            }
            read => read,
        }
    }

    /// Whether a ticket waiting on `id` must keep waiting.
    fn awaits(&mut self, id: SlotId) -> bool {
        self.slots.is_pending(id) && !self.closed()
    }

    /// Stopped and drained: no request is left to answer a slot.
    fn closed(&self) -> bool {
        self.stopping && self.is_drained()
    }

    /// Test hook: loses the oldest queued request without answering
    /// its slot, as a panic between dequeue and settle would.
    #[cfg(test)]
    pub(super) fn drop_unsettled(&mut self) -> bool {
        self.pending.pop_front().is_some()
    }

    /// Test hook: the slab's length and its free slots.
    #[cfg(test)]
    pub(super) fn slab(&self) -> (usize, usize) {
        (self.slots.slab.len(), self.slots.free.len())
    }

    /// Records one completed request.
    fn record(&mut self, seq: u64, latency_s: f64, met: Option<bool>) {
        self.window.push(latency_s, met);
        self.stats.completed += 1;
        if met == Some(false) {
            self.stats.missed += 1;
        }
        if self.last_seq.is_some_and(|last| seq <= last) {
            self.stats.out_of_order += 1;
        }
        self.last_seq = Some(seq);
    }

    /// Records how a driver's knob actuations ended, in command order.
    pub(super) fn record_knobs(&mut self, outcomes: Vec<KnobOutcome>) {
        let stats = &mut self.stats;
        for outcome in outcomes {
            let failure = match outcome {
                KnobOutcome::Applied(level, precision) => {
                    if (level, precision) != (stats.level, stats.precision) {
                        // A new operating point: the latency window now
                        // describes stale behaviour.
                        self.window.reset();
                    }
                    (stats.level, stats.precision) = (level, precision);
                    continue;
                }
                KnobOutcome::Rejected(why) => {
                    stats.knob_rejected += 1;
                    why
                }
                KnobOutcome::Faulted => {
                    stats.knob_faulted += 1;
                    "injected knob-actuation fault".into()
                }
            };
            stats.knob_errors += 1;
            stats.last_knob_error = Some(failure);
        }
    }
}

/// A [`Ledger`] behind its lock, with the condvar that announces it
/// drained and the scheduling word its unlocks publish.
pub(super) struct AppLedger {
    state: RankedMutex<Ledger>,
    /// Signalled when the queue empties and nothing is in flight.
    idle: Condvar,
    /// Signalled after an unlock whose critical section answered a
    /// slot while a ticket was waiting, and when the app closes.
    settled: Condvar,
    /// The key inputs that are not ledger state: the app's deadline
    /// and the pool epoch.
    basis: KeyBasis,
    /// `sched_word` of the ledger as of its last unlock. Written only
    /// under the lock; read without it by the drivers' roster scan.
    /// `Relaxed` throughout: the word publishes no other data (a driver
    /// re-verifies its pick under the ledger lock before acting on
    /// it), and a sleeping driver is woken through the pool lock, which
    /// orders the store before its next read (see `sched`).
    word: AtomicU64,
}

/// A locked [`Ledger`]. Dropping it publishes the app's scheduling word
/// and unlocks;
/// [`LedgerGuard::unlock`] does the same and reports whether the app
/// became more urgent.
pub(super) struct LedgerGuard<'a> {
    owner: &'a AppLedger,
    /// `None` only transiently, inside `unlock` and the waits.
    st: Option<RankedGuard<'a, Ledger>>,
}

impl LedgerGuard<'_> {
    /// Publishes the word and unlocks. Returns whether the word fell —
    /// the app became more urgent (an idle app gained work, a released
    /// app still has some) — which is when the hot path rings the pool.
    pub(super) fn unlock(mut self) -> bool {
        let fell = self.publish();
        self.release();
        fell
    }

    /// Unlocks, then wakes the ticket waiters if an answer landed for
    /// one.
    fn release(&mut self) {
        let wake = self
            .st
            .as_mut()
            .is_some_and(|st| std::mem::take(&mut st.slots.wake));
        drop(self.st.take());
        if wake {
            self.owner.settled.notify_all();
        }
    }

    /// Publishes the word, reporting whether it fell.
    fn publish(&mut self) -> bool {
        match &self.st {
            Some(st) => self.owner.publish(st),
            None => false,
        }
    }
}

impl Deref for LedgerGuard<'_> {
    type Target = Ledger;

    fn deref(&self) -> &Ledger {
        match &self.st {
            Some(st) => st,
            // Unreachable: `st` is `None` only while `unlock` or a wait
            // holds the guard by value, when no deref can occur.
            None => unreachable!("ledger guard observed unlocked"),
        }
    }
}

impl DerefMut for LedgerGuard<'_> {
    fn deref_mut(&mut self) -> &mut Ledger {
        match &mut self.st {
            Some(st) => st,
            None => unreachable!("ledger guard observed unlocked"),
        }
    }
}

impl Drop for LedgerGuard<'_> {
    fn drop(&mut self) {
        self.publish();
        self.release();
    }
}

impl AppLedger {
    /// A fresh ledger for a model at `level` / `precision`, admitted
    /// and empty, with `faults` as its fault-plan slice and `basis` as
    /// its scheduling key's fixed inputs.
    pub(super) fn new(
        stats_window: usize,
        level: usize,
        precision: Precision,
        faults: Option<Box<FaultState>>,
        basis: KeyBasis,
    ) -> Self {
        let ledger = Ledger {
            pending: VecDeque::new(),
            inflight: Vec::new(),
            slots: Slots::default(),
            spare_inputs: Vec::new(),
            faults,
            next_seq: 0,
            last_seq: None,
            stats: AppStatsSnapshot {
                level,
                precision,
                ..AppStatsSnapshot::default()
            },
            window: Window::new(stats_window),
            restarts: 0,
            stalls: 0,
            knobs: Vec::new(),
            band_cap: 0,
            admitted: true,
            paused: false,
            busy: false,
            ewma: None,
            draining: 0,
            departing: false,
            stopping: false,
        };
        Self {
            state: RankedMutex::new(rank::EXEC_QUEUE, "exec-ledger", ledger),
            idle: Condvar::new(),
            settled: Condvar::new(),
            basis,
            word: AtomicU64::new(NOT_CLAIMABLE),
        }
    }

    /// Locks the ledger. Poisoning is recovered inside `RankedMutex`:
    /// the ledger is only mutated by short, panic-free critical
    /// sections; a poisoned lock means a pool driver died mid-batch,
    /// which the watchdog turns into typed errors and a supervised
    /// restart.
    pub(super) fn lock(&self) -> LedgerGuard<'_> {
        LedgerGuard {
            owner: self,
            st: Some(self.state.lock()),
        }
    }

    /// The app's deadline (from its registration requirements).
    pub(super) fn deadline(&self) -> Option<TimeSpan> {
        self.basis.deadline
    }

    /// The app's scheduling word as of the ledger's last unlock.
    pub(super) fn published(&self) -> u64 {
        self.word.load(Ordering::Relaxed)
    }

    /// The scheduling word of `st`, this app's locked ledger.
    pub(super) fn word_of(&self, st: &Ledger) -> u64 {
        sched_word(st, &self.basis)
    }

    /// Stores `st`'s word (the caller holds the lock), reporting whether
    /// it fell. An unchanged word is not rewritten, so the scanners'
    /// cache line is left alone.
    fn publish(&self, st: &Ledger) -> bool {
        let word = self.word_of(st);
        let old = self.word.load(Ordering::Relaxed);
        if word != old {
            self.word.store(word, Ordering::Relaxed);
        }
        word < old
    }

    /// Blocks until the next drained signal, publishing the word before
    /// the wait releases the lock.
    pub(super) fn wait<'a>(&self, mut st: LedgerGuard<'a>) -> LedgerGuard<'a> {
        self.before_wait(&mut st);
        if let Some(inner) = st.st.take() {
            st.st = Some(self.state.wait(&self.idle, inner));
        }
        st
    }

    /// [`AppLedger::wait`], giving up after `timeout`.
    pub(super) fn wait_for<'a>(
        &self,
        mut st: LedgerGuard<'a>,
        timeout: Duration,
    ) -> LedgerGuard<'a> {
        self.before_wait(&mut st);
        if let Some(inner) = st.st.take() {
            st.st = Some(self.state.wait_timeout(&self.idle, inner, timeout).0);
        }
        st
    }

    /// What an unlock owes before a drain wait releases the lock: the
    /// word, and the ticket waiters' wakeup.
    fn before_wait(&self, st: &mut LedgerGuard<'_>) {
        st.publish();
        if std::mem::take(&mut st.slots.wake) {
            self.settled.notify_all();
        }
    }

    /// Wakes the drain watchers if the app has fully drained.
    pub(super) fn notify_if_drained(&self, st: &Ledger) {
        if st.is_drained() {
            self.idle.notify_all();
        }
    }

    /// The one failing settlement: answers each of `riders` with its
    /// typed error, counts it — under `shed` when the answer is
    /// [`ServeError::DeadlineExpired`], under `errors` otherwise — and
    /// signals the drain watchers if that emptied the app. `error`
    /// gets each rider's sequence number.
    pub(super) fn fail(&self, st: &mut Ledger, riders: Riders, error: impl Fn(u64) -> ServeError) {
        st.fail_riders(riders, error);
        self.notify_if_drained(st);
    }

    /// Sheds the expired prefix of the queue (nothing for an app without
    /// a deadline): FIFO order means the oldest request is at the front,
    /// so once the front is within deadline the whole remainder is too.
    /// Each shed request completes immediately with a typed error — no
    /// forward pass is spent on it.
    pub(super) fn shed_expired(&self, st: &mut Ledger, app: &str) {
        let Some(deadline) = self.basis.deadline else {
            return;
        };
        let expired = st
            .pending
            .iter()
            .take_while(|r| r.submitted.elapsed().as_secs_f64() > deadline.as_secs())
            .count();
        self.fail(st, Riders::Oldest(expired), |seq| {
            ServeError::DeadlineExpired {
                app: app.into(),
                seq,
            }
        });
    }

    /// A ticket's read of `id`: waits as `wait` says while the slot is
    /// pending, then takes what it holds. Takes the bare lock (a ticket
    /// changes nothing the scheduling word reads) and no other lock.
    pub(super) fn take_outcome(&self, id: SlotId, wait: Wait) -> SlotRead {
        let mut st = self.state.lock();
        if !matches!(wait, Wait::No) && st.awaits(id) {
            st.slots.watch(id, true);
            st = match wait {
                Wait::For(timeout) => {
                    self.state
                        .wait_timeout_while(&self.settled, st, timeout, |st| st.awaits(id))
                        .0
                }
                _ => {
                    while st.awaits(id) {
                        st = self.state.wait(&self.settled, st);
                    }
                    st
                }
            };
            st.slots.watch(id, false);
        }
        st.take(id)
    }

    /// A ticket's drop: frees its slot, or leaves a pending one for the
    /// settle to free.
    pub(super) fn forget(&self, id: SlotId) {
        self.state.lock().slots.forget(id);
    }

    /// Wakes every ticket waiter to re-read its slot: the lifecycle
    /// paths call it once the app has closed, so a slot whose request
    /// was lost unanswered reads [`SlotRead::Gone`] instead of waiting
    /// forever.
    pub(super) fn wake_tickets(&self) {
        self.settled.notify_all();
    }

    /// One instant of the app (shared by [`super::Executor::stats`],
    /// the bulk `dnn_snapshots` and the final snapshot
    /// `deregister_dnn` returns): every counter and the depths are
    /// copied in one critical section, with the latency window as
    /// `total_cmp` keys into the thread's scratch when `select` asks
    /// for a percentile; the percentiles are selected after it.
    pub(super) fn snapshot(&self, select: Select) -> AppStatsSnapshot {
        if select == Select::Nothing {
            return self.read(None);
        }
        with_scratch(|keys| {
            let mut snap = self.read(Some(keys));
            (snap.p50, snap.p99) = percentiles(keys, select);
            snap
        })
    }

    /// The locked half of [`AppLedger::snapshot`]: the window's keys go
    /// to `keys` when given.
    fn read(&self, keys: Option<&mut Vec<i64>>) -> AppStatsSnapshot {
        // The bare lock: this section changes nothing, so there is no
        // word to publish.
        let st = self.state.lock();
        let mut snap = AppStatsSnapshot {
            queue_depth: st.pending.len(),
            in_flight: st.inflight.len(),
            restarts: st.restarts,
            stalls: st.stalls,
            band_cap: st.band_cap,
            admitted: st.admitted,
            ..st.stats.clone()
        };
        st.window.read_into(&mut snap, keys);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_completions_are_counted() {
        let basis = KeyBasis {
            deadline: None,
            epoch: Instant::now(),
        };
        let ledger = AppLedger::new(8, 0, Precision::F32, None, basis);
        {
            let mut st = ledger.lock();
            st.record(3, 1e-3, Some(true));
            st.record(2, 9e-3, Some(false));
        }
        let s = ledger.snapshot(Select::Both);
        assert_eq!((s.completed, s.missed, s.out_of_order), (2, 1, 1));
        assert_eq!((s.window_len, s.window_outcomes), (2, 2));
        assert!(s.admitted && s.p99 == Some(TimeSpan::from_secs(9e-3)));
    }
}
