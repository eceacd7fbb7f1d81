//! The pool driver: claim → dispatch → forward → settle → release.
//!
//! Per claim, one ledger critical section ([`build_dispatch`]) sheds
//! what already expired in the queue, drains the app's knob commands
//! and moves a deadline-aware micro-batch into the in-flight slot.
//! Unlocked, the driver actuates the knobs
//! ([`eml_core::knobs::apply_app_command`]: width switches re-plan the
//! int8 chain automatically, precision switches re-select the backend)
//! and runs the batch through the real [`eml_dnn::DynamicDnn`] kernels
//! under the app's [`eml_nn::workers::with_band_cap`] budget, inside a
//! panic containment. Then it settles the batch in the ledger — a
//! completion per rider, or one typed error for all — and releases the
//! claim.
//!
//! Injected faults enter at three calls and nowhere else
//! (see [`crate::fault`]): `on_dispatch` under the lock,
//! `crash_if_armed` outside the containment, `before_forward` inside it.

use std::sync::Arc;
use std::time::Instant;

use eml_core::knobs::{apply_app_command, KnobCommand};
use eml_dnn::DynamicDnn;
use eml_nn::tensor::Tensor;

use super::ledger::{KnobOutcome, Riders};
use super::sched::{next_app, PoolShared};
use super::supervise::Driver;
use super::App;
use crate::error::ServeError;
use crate::fault::Injected;

/// One unit of serving work handed from the locked dispatch section to
/// the (unlocked) execution section of a driver's claim. The batch
/// itself stays in the ledger's in-flight slot; its flattened input
/// travels in the driver's [`BatchBuf`].
struct Dispatch {
    /// Batch size; 0 for a knob-only claim.
    k: usize,
    band_cap: usize,
    knobs: Vec<KnobCommand>,
    injected: Injected,
}

/// A driver's batch input, reused from claim to claim: the flattened
/// samples and the tensor shape, taken back from the input tensor
/// after each forward. Their capacity is the driver's high water.
#[derive(Default)]
struct BatchBuf {
    data: Vec<f32>,
    shape: Vec<usize>,
}

/// The locked half of serving one claim: shed expired requests, fire
/// due faults, and move a batch into the in-flight slot. Returns `None`
/// when the claim has nothing to do (everything shed, or the app
/// stopped between claim and dispatch) — the caller just releases the
/// claim. The batch's inputs are written into `data`.
fn build_dispatch(app: &App, data: &mut Vec<f32>) -> Option<Dispatch> {
    let mut guard = app.ledger.lock();
    let st = &mut *guard;
    let pausing = st.paused && !st.stopping;
    if !pausing {
        app.ledger.shed_expired(st, &app.name);
    }
    let knobs = std::mem::take(&mut st.knobs);
    if st.stopping && st.depth() == 0 {
        return None;
    }
    // Deadline-aware coalescing: take up to `batch_cap` requests, but
    // no more than the oldest request's remaining budget is estimated
    // to cover — batching amortises per-pass overhead only while it
    // does not itself cause the miss. A paused app dispatches knobs
    // only.
    let mut k = if pausing {
        0
    } else {
        st.depth().min(app.batch_cap)
    };
    if let (Some(d), Some(s), Some(oldest)) = (app.ledger.deadline(), st.ewma, st.oldest()) {
        let age = oldest.submitted.elapsed().as_secs_f64();
        while k > 1 && age + s * k as f64 > d.as_secs() {
            k -= 1;
        }
    }
    if k == 0 && knobs.is_empty() {
        return None;
    }
    let injected = st.on_dispatch(k, knobs.len(), app.queue_capacity);
    st.dispatch(k, data);
    Some(Dispatch {
        k,
        band_cap: st.band_cap,
        knobs,
        injected,
    })
}

/// Actuates knob commands on the model via the core knob executor,
/// returning how each ended for the ledger to record once the model
/// lock is released. `faulted` is the number of leading commands an
/// injected actuation fault drops.
fn apply_knobs(
    name: &str,
    dnn: &mut DynamicDnn,
    knobs: &[KnobCommand],
    faulted: u32,
) -> Vec<KnobOutcome> {
    let outcome = |(i, cmd)| {
        if i < faulted as usize {
            return KnobOutcome::Faulted;
        }
        match apply_app_command(cmd, name, dnn) {
            Ok(_) => KnobOutcome::Applied(dnn.level().index(), dnn.precision()),
            Err(e) => KnobOutcome::Rejected(e.to_string()),
        }
    };
    knobs.iter().enumerate().map(outcome).collect()
}

/// Releases a driver's claim on an app: clears `busy`, signals drain
/// watchers if the app has fully drained, and rings the pool if the app
/// still has work — other drivers may have gone to sleep seeing it
/// claimed.
fn release(app: &App, pool: &PoolShared) {
    let mut st = app.ledger.lock();
    st.busy = false;
    app.ledger.notify_if_drained(&st);
    if st.unlock() {
        pool.ring();
    }
}

/// The pool driver loop: claim the most urgent runnable app, publish
/// the claim (so the watchdog knows whose batch to fail if this
/// driver dies), serve one dispatch, release, repeat.
pub(super) fn driver_loop(drv: &Arc<Driver>) {
    let mut buf = BatchBuf::default();
    loop {
        drv.beat();
        let Some(app) = next_app(drv) else {
            return;
        };
        *drv.current.lock() = Some(Arc::clone(&app));
        serve_app(drv, &app, &mut buf);
        release(&app, &drv.pool);
        drv.current.lock().take();
    }
}

/// Serves one claimed app: one knob drain and/or one micro-batch
/// forward. The claim (`busy`) is held throughout, so per-app batches
/// never interleave across drivers.
fn serve_app(drv: &Driver, app: &App, buf: &mut BatchBuf) {
    let Some(d) = build_dispatch(app, &mut buf.data) else {
        return;
    };
    if !d.knobs.is_empty() {
        // Actuate under the model lock, record after dropping it: the
        // ledger ranks below the model and is never taken under it.
        let outcomes = apply_knobs(
            &app.name,
            &mut app.model.lock(),
            &d.knobs,
            d.injected.knob_faults,
        );
        app.ledger.lock().record_knobs(outcomes);
    }
    if d.k == 0 {
        return;
    }
    d.injected.crash_if_armed(&app.name);

    buf.shape.clear();
    buf.shape.push(d.k);
    buf.shape.extend_from_slice(&app.sample_shape);
    let input = Tensor::from_shape_vec(
        std::mem::take(&mut buf.shape),
        std::mem::take(&mut buf.data),
    );
    drv.beat();
    let t0 = Instant::now();
    // A panicking model (poisoned weights, a debug assertion in a
    // kernel) must not wedge the tenant: contain the unwind, turn
    // it into a typed error for every rider, and keep serving.
    // The model's internal scratch is resize-then-overwrite, so a
    // mid-forward unwind leaves no state a later forward reads.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        d.injected.before_forward();
        let input = input.as_ref().map_err(Clone::clone)?;
        eml_nn::workers::with_band_cap(d.band_cap, || {
            app.model.lock().network_mut().forward(input, false)
        })
    }))
    .unwrap_or_else(|panic| {
        let reason = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".into());
        Err(eml_nn::NnError::InvalidConfig {
            reason: format!("forward pass panicked: {reason}"),
        })
    });
    drv.beat();
    let service = t0.elapsed();
    if let Ok(input) = input {
        (buf.shape, buf.data) = input.into_parts();
    }

    // Settle the batch from the supervised slot, answering every
    // rider's completion slot inside the same critical section. To a
    // concurrent observer (`drain_app` watching for idle, `stats()`
    // reading a snapshot, a ticket reading its slot) every request is
    // either still in flight or already counted and answered — there
    // is no instant where the queue looks empty while the batch's
    // outcomes are still unrecorded. An empty slot means the watchdog
    // declared this pass wedged and already answered the riders —
    // discard the (stale) results and keep serving. The unlock wakes
    // the app's waiting tickets.
    let mut st = app.ledger.lock();
    let k = st.in_flight();
    if k == 0 {
        return;
    }
    match result {
        Ok(logits) => {
            // The operating point's cost, not the fault's: exclude
            // injected spike time from the coalescing estimate.
            let modelled = service.saturating_sub(d.injected.delay);
            let per_sample = modelled.as_secs_f64() / k as f64;
            st.ewma = Some(match st.ewma {
                None => per_sample,
                Some(prev) => 0.7 * prev + 0.3 * per_sample,
            });
            st.complete(&logits, service, app.ledger.deadline());
        }
        Err(e) => {
            // Loud failure: every rider gets the typed error, and the
            // error counter keeps the extended accounting invariant
            // balanced.
            let error = |_| ServeError::Inference {
                app: app.name.to_string(),
                reason: e.to_string(),
            };
            app.ledger.fail(&mut st, Riders::InFlight, error);
        }
    }
    drop(st);
    // A completed pass (even a typed failure) proves the driver
    // healthy: reset the restart-backoff streak.
    drv.supervision.lock().streak = 0;
}
