//! Per-application serving statistics: the executor's monitor surface.
//!
//! [`AppStatsSnapshot`] is what the control loop
//! ([`crate::ServeController`]), the health monitor and tests read.
//! Every field of it — the cumulative counters, `queue_depth`,
//! `in_flight` and the latency window — lives in the app's ledger under
//! one lock, and a snapshot copies them out in **one critical section**,
//! so what a reader sees is one instant of the app: a request is never
//! both `in_flight` and already `completed`. Latency percentiles are
//! computed over a bounded sliding window so long-running servers
//! report *current* behaviour, while the cumulative counters
//! (completed / errors / missed / rejected / shed) never reset — they
//! are the invariant surface the stress and property suites pin ("no
//! request is ever silently dropped" is
//! `submitted + storm_injected == completed + errors + rejected + shed`
//! in these counters, where `submitted` counts submission *attempts*
//! and `storm_injected` the synthetic requests a fault-injection queue
//! storm enqueued directly).
//!
//! Cost model. Recording is O(1) and keeps nothing but the window
//! itself — no sorted shadow, no per-app percentile buffer. A snapshot
//! pays only for the percentiles its reader consumes (`Select`): a
//! counters-only read (the health pass, the degradation ladder) copies
//! no window and selects nothing. A read that wants a percentile copies
//! the window under the ledger lock into the *reading thread's*
//! scratch (`with_scratch`, kept between reads), each latency as its
//! `f64::total_cmp` key, an `i64`; then, with the lock released, it
//! runs one integer selection (`select_nth_unstable`) per requested
//! percentile, the p99 over the right partition the median selection
//! leaves behind, and maps each winner back to its `f64` — O(window)
//! expected, no sort, no float comparator, and no allocation once the
//! scratch has grown to the window. The key map is an order
//! isomorphism, so the result is still the *exact* order statistic at
//! index `round((n-1)·q)` under `f64::total_cmp`, bit for bit what
//! sorting the window would give, negatives, signed zeros and NaNs
//! included.

use std::cell::Cell;
use std::collections::VecDeque;

use eml_nn::Precision;
use eml_platform::units::TimeSpan;

/// The sliding window of one app's most recent completions: latencies
/// and deadline outcomes. It lives inside the app's ledger (under the
/// ledger's lock) beside the cumulative counters.
#[derive(Debug)]
pub(crate) struct Window {
    capacity: usize,
    /// Most recent request latencies (seconds), newest at the back.
    latencies: VecDeque<f64>,
    /// Deadline outcomes of the same window (only requests with a
    /// deadline verdict enter), for the degradation ladder's windowed
    /// miss-rate signal.
    recent_met: VecDeque<bool>,
    /// Misses currently inside `recent_met`.
    recent_missed: usize,
}

impl Window {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            latencies: VecDeque::new(),
            recent_met: VecDeque::new(),
            recent_missed: 0,
        }
    }

    /// Empties the window. Called when a knob switch changes the
    /// operating point, so percentiles and the windowed miss rate
    /// always describe the *current* configuration instead of blending
    /// the old point's behaviour into the new one's.
    pub(crate) fn reset(&mut self) {
        self.latencies.clear();
        self.recent_met.clear();
        self.recent_missed = 0;
    }

    /// Slides one completed request into the window.
    pub(crate) fn push(&mut self, latency_s: f64, met: Option<bool>) {
        if self.latencies.len() == self.capacity {
            self.latencies.pop_front();
        }
        self.latencies.push_back(latency_s);
        if let Some(m) = met {
            if self.recent_met.len() == self.capacity && self.recent_met.pop_front() == Some(false)
            {
                self.recent_missed -= 1;
            }
            self.recent_met.push_back(m);
            if !m {
                self.recent_missed += 1;
            }
        }
    }

    /// The window's share of a snapshot, the half that needs the ledger
    /// lock: fills `snap`'s three `window_*` fields and, given a
    /// scratch (contents irrelevant on entry), copies the latencies
    /// into it as [`total_key`]s, for [`percentiles`] to select over
    /// once the lock is released.
    pub(crate) fn read_into(&self, snap: &mut AppStatsSnapshot, keys: Option<&mut Vec<i64>>) {
        snap.window_len = self.latencies.len();
        snap.window_outcomes = self.recent_met.len();
        snap.window_miss_rate = match self.recent_met.len() {
            0 => 0.0,
            n => self.recent_missed as f64 / n as f64,
        };
        let Some(keys) = keys else { return };
        let (front, back) = self.latencies.as_slices();
        keys.clear();
        keys.reserve(front.len() + back.len()); // one allocation at most, whatever the wrap
        let key = |&x: &f64| total_key(x.to_bits() as i64);
        keys.extend(front.iter().map(key));
        keys.extend(back.iter().map(key));
    }
}

/// The `f64::total_cmp` key of a float's bits, and back: a negative
/// float's magnitude bits are flipped, so the keys order as plain
/// integers exactly as the floats order under `total_cmp`. The map is
/// its own inverse.
fn total_key(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Which of the window's percentiles a snapshot selects: each reader
/// pays for what it consumes and no more. Unselected percentiles read
/// `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Select {
    /// Counters only: no window copy, no selection.
    Nothing,
    /// The median.
    Median,
    /// The median and the p99.
    Both,
}

impl Select {
    /// A copy of `snap`, a fully selected snapshot (a tombstone's final
    /// statistics), with the percentiles this selection leaves out
    /// cleared.
    pub(crate) fn cut(self, snap: &AppStatsSnapshot) -> AppStatsSnapshot {
        let (p50, p99) = match self {
            Select::Nothing => (None, None),
            Select::Median => (snap.p50, None),
            Select::Both => (snap.p50, snap.p99),
        };
        AppStatsSnapshot {
            p50,
            p99,
            ..snap.clone()
        }
    }
}

thread_local! {
    /// The calling thread's percentile scratch ([`with_scratch`]).
    static SCRATCH: Cell<Vec<i64>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` with the calling thread's percentile scratch, kept between
/// reads. A control turn reads every tenant's window; a fresh
/// window-sized buffer per read was a cold heap allocation in every
/// turn.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Vec<i64>) -> R) -> R {
    let mut scratch = SCRATCH.take();
    let r = f(&mut scratch);
    SCRATCH.set(scratch);
    r
}

/// The (p50, p99) `select` asks for, of the window whose keys
/// [`Window::read_into`] left in `keys` (unspecified order on exit),
/// by selection. See the module docs.
pub(crate) fn percentiles(
    keys: &mut [i64],
    select: Select,
) -> (Option<TimeSpan>, Option<TimeSpan>) {
    let n = keys.len();
    if n == 0 || select == Select::Nothing {
        return (None, None);
    }
    let secs = |key: i64| TimeSpan::from_secs(f64::from_bits(total_key(key) as u64));
    // Median first: it halves what the p99 selection has to look at.
    let i50 = percentile_index(n, 0.50);
    let (_, &mut median, above) = keys.select_nth_unstable(i50);
    let p99 = (select == Select::Both).then(|| match percentile_index(n, 0.99) - i50 {
        0 => secs(median), // n ≤ 2: one order statistic serves both
        up => secs(*above.select_nth_unstable(up - 1).1),
    });
    (Some(secs(median)), p99)
}

/// Index of the `q`-quantile order statistic in a window of `n ≥ 1`.
fn percentile_index(n: usize, q: f64) -> usize {
    ((n as f64 - 1.0) * q).round() as usize
}

/// One instant of one application's serving state (every field read
/// in the same critical section — see the module docs). The default is
/// an app that has seen nothing yet.
#[derive(Debug, Clone, Default)]
pub struct AppStatsSnapshot {
    /// Requests completed successfully (a logits-bearing completion
    /// was delivered to the ticket). Requests whose batch failed count
    /// under [`AppStatsSnapshot::errors`], requests shed past their
    /// deadline under [`AppStatsSnapshot::shed`], so
    /// `submitted + storm_injected == completed + errors + rejected + shed`
    /// (with `submitted` counting submission attempts).
    pub completed: u64,
    /// Requests rejected at submission (queue full / not admitted).
    pub rejected: u64,
    /// Requests whose batch failed in inference (including batches
    /// failed by the supervisor when a serving thread died or wedged);
    /// their tickets received a typed
    /// [`crate::ServeError::Inference`] error.
    pub errors: u64,
    /// Requests shed at dequeue because their deadline had already
    /// expired in the queue; their tickets received a typed
    /// [`crate::ServeError::DeadlineExpired`] error and no forward pass
    /// was spent on them.
    pub shed: u64,
    /// Synthetic requests enqueued by an injected queue storm (never
    /// submitted by a caller; they complete into these statistics like
    /// any other request).
    pub storm_injected: u64,
    /// Completed requests that missed the app's deadline.
    pub missed: u64,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// High-water mark of the queue depth.
    pub max_queue_depth: usize,
    /// Requests taken from the queue but not yet completed.
    pub in_flight: usize,
    /// Batched forward passes executed.
    pub batches: u64,
    /// Samples carried by those batches (`/ batches` = mean batch).
    pub batched_samples: u64,
    /// Median request latency over the sliding window.
    pub p50: Option<TimeSpan>,
    /// 99th-percentile request latency over the sliding window.
    pub p99: Option<TimeSpan>,
    /// Requests currently in the latency window.
    pub window_len: usize,
    /// Deadline outcomes currently in the sliding window (only
    /// requests with a deadline verdict enter it).
    pub window_outcomes: usize,
    /// Miss fraction over the sliding outcome window (0.0 when empty)
    /// — the degradation ladder's pressure signal, as opposed to the
    /// cumulative [`AppStatsSnapshot::miss_fraction`].
    pub window_miss_rate: f64,
    /// Knob commands that failed to apply on the serving thread
    /// (`knob_rejected + knob_faulted`).
    pub knob_errors: u64,
    /// Knob commands the model itself refused (e.g. width out of range).
    pub knob_rejected: u64,
    /// Knob commands dropped by an injected actuation fault.
    pub knob_faulted: u64,
    /// The most recent knob failure, for diagnostics.
    pub last_knob_error: Option<String>,
    /// Supervised restarts of the app's serving thread (the watchdog
    /// found the thread dead, failed its in-flight batch with a typed
    /// error, and respawned it after a bounded exponential backoff).
    pub restarts: u64,
    /// Wedged batches confiscated by the watchdog (the thread's
    /// heartbeat went stale past the stall timeout with work in
    /// flight; the batch was failed with a typed error).
    pub stalls: u64,
    /// Completions observed out of submission order (always 0: the
    /// per-app queue is FIFO and the shared pool's busy-claim
    /// serialises each app onto one driver at a time; the counter is
    /// the invariant surface the stress suite pins).
    pub out_of_order: u64,
    /// The model's current width level index.
    pub level: usize,
    /// The model's current precision mode.
    pub precision: Precision,
    /// Band cap (allocated cores) the forwards run under (0 = uncapped).
    pub band_cap: usize,
    /// Whether the current allocation admits the app.
    pub admitted: bool,
}

/// A view of the shared worker pool itself, as opposed to
/// any one tenant: driver counts, roster occupancy against the bounded
/// registry, and the pool-wide queue pressure the health monitor folds
/// into its score. Read via [`crate::Executor::pool_stats`].
#[derive(Debug, Clone)]
pub struct PoolSnapshot {
    /// Driver threads the pool was built with
    /// ([`crate::ExecutorConfig::pool_workers`], floored at 1). Fixed
    /// for the executor's lifetime — independent of the tenant count.
    pub drivers: usize,
    /// Driver threads currently alive (a crashed driver leaves this
    /// until the watchdog respawns it).
    pub live_drivers: usize,
    /// Live (non-departed) registered applications, DNN and rigid —
    /// the occupancy the bounded registry caps at
    /// [`PoolSnapshot::max_apps`].
    pub apps: usize,
    /// DNN apps on the serving roster (the subset of
    /// [`PoolSnapshot::apps`] with queues the drivers actually pull
    /// from — the denominator of the pool-pressure fraction).
    pub serving: usize,
    /// The bounded registry capacity
    /// ([`crate::ExecutorConfig::max_apps`]); registrations past it are
    /// refused with [`crate::ServeError::OverCapacity`].
    pub max_apps: usize,
    /// Requests queued across every live DNN app.
    pub queue_depth: usize,
    /// Requests claimed by drivers but not yet completed, pool-wide.
    pub in_flight: usize,
    /// Per-app queue capacity (the pool-wide bound is
    /// `queue_capacity × apps`).
    pub queue_capacity: usize,
}

impl AppStatsSnapshot {
    /// Mean samples per executed batch (0.0 before the first batch).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_samples as f64 / self.batches as f64
        }
    }

    /// Deadline miss fraction over all completions (0.0 before any).
    pub fn miss_fraction(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.missed as f64 / self.completed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Window {
        /// What a snapshot reads of the window, copy-then-select as the
        /// ledger does it.
        fn snapshot_with(&self, keys: &mut Vec<i64>, select: Select) -> AppStatsSnapshot {
            let mut snap = AppStatsSnapshot::default();
            let copy = select != Select::Nothing;
            self.read_into(&mut snap, copy.then_some(&mut *keys));
            (snap.p50, snap.p99) = percentiles(keys, select);
            snap
        }

        fn snapshot(&self) -> AppStatsSnapshot {
            self.snapshot_with(&mut Vec::new(), Select::Both)
        }

        /// The copy-and-sort percentile the selection replaced: the
        /// oracle the property test compares against.
        fn percentile_by_sort(&self, q: f64) -> Option<TimeSpan> {
            let mut sorted: Vec<f64> = self.latencies.iter().copied().collect();
            sorted.sort_by(|a, b| a.total_cmp(b));
            (!sorted.is_empty())
                .then(|| TimeSpan::from_secs(sorted[percentile_index(sorted.len(), q)]))
        }
    }

    #[test]
    fn window_slides_and_percentiles_sort() {
        let mut s = Window::new(4);
        for ms in [5.0, 1.0, 9.0, 3.0, 7.0] {
            // A 6 ms deadline: 9 and 7 miss, the rest meet it.
            s.push(ms * 1e-3, Some(ms <= 6.0));
        }
        // Window holds the last 4: [1, 9, 3, 7] → p50 ≈ 3ms or 7ms edge.
        let snap = s.snapshot();
        assert_eq!(snap.window_len, 4);
        let p50 = snap.p50.unwrap().as_millis();
        assert!((3.0..=7.0).contains(&p50), "p50 {p50}");
        assert_eq!(snap.p99.unwrap().as_millis().round() as i64, 9);
        assert_eq!(snap.window_outcomes, 4);
        assert!((snap.window_miss_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn windowed_miss_rate_tracks_only_deadline_outcomes() {
        let mut s = Window::new(4);
        s.push(1e-3, None); // no deadline verdict: latency only
        s.push(1e-3, Some(true));
        s.push(9e-3, Some(false));
        let snap = s.snapshot();
        assert_eq!(snap.window_len, 3);
        assert_eq!(snap.window_outcomes, 2);
        assert!((snap.window_miss_rate - 0.5).abs() < 1e-12);
        // The outcome window slides with the same bound as latencies.
        for _ in 0..4 {
            s.push(1e-3, Some(true));
        }
        let snap = s.snapshot();
        assert_eq!(snap.window_outcomes, 4);
        assert_eq!(snap.window_miss_rate, 0.0);
        s.reset();
        let snap = s.snapshot();
        assert_eq!((snap.window_outcomes, snap.window_len), (0, 0));
        assert_eq!(snap.window_miss_rate, 0.0);
    }

    /// A hostile latency alphabet: signed zeros, subnormals, the
    /// largest finite value, heavy duplicates, arbitrary magnitudes of
    /// either sign, signed infinities and NaNs of either sign with
    /// arbitrary payloads.
    fn hostile_latency(x: u64) -> f64 {
        let sign = if x & 0x80 == 0 { 1.0 } else { -1.0 };
        match x % 10 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits((x >> 8) % (1 << 20) + 1), // subnormal
            3 => f64::MAX,
            4 => ((x >> 8) % 5) as f64 * 1e-3, // duplicates
            5 => -f64::from_bits((x >> 2) % f64::MAX.to_bits()),
            6 => sign * f64::INFINITY,
            // Exponent all ones, a non-zero payload, either sign.
            7 => f64::from_bits(
                (x & (1 << 63)) | 0x7ff0_0000_0000_0000 | ((x >> 8) % ((1 << 52) - 1) + 1),
            ),
            _ => f64::from_bits((x >> 2) % f64::MAX.to_bits()), // any finite ≥ 0
        }
    }

    #[test]
    fn total_keys_order_as_total_cmp_and_map_back() {
        let xs = [
            f64::from_bits(0xfff8_0000_0000_0001), // -NaN
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.5,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::from_bits(0x7ff0_0000_0000_0001), // +NaN
        ];
        let keys: Vec<i64> = xs.iter().map(|x| total_key(x.to_bits() as i64)).collect();
        for (i, (a, ka)) in xs.iter().zip(&keys).enumerate() {
            assert_eq!(total_key(*ka) as u64, a.to_bits(), "{a} maps back");
            for (b, kb) in xs[i..].iter().zip(&keys[i..]) {
                assert_eq!(ka.cmp(kb), a.total_cmp(b), "{a} vs {b}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        /// Selection on integer keys returns the same order statistics
        /// as sorting the floats, bit for bit, whatever the window
        /// holds and however it slid, and only what was asked for.
        #[test]
        fn selected_percentiles_equal_the_sorted_reference(
            capacity in 1usize..=300,
            draws in proptest::collection::vec(0u64..u64::MAX, 1..513),
        ) {
            let mut s = Window::new(capacity);
            for &x in &draws {
                s.push(hostile_latency(x), None);
            }
            let bits = |t: Option<TimeSpan>| t.map(|t| t.as_secs().to_bits());
            let want = (bits(s.percentile_by_sort(0.50)), bits(s.percentile_by_sort(0.99)));
            // One scratch across calls, dirty on entry, as the bulk reader uses it.
            let mut keys = vec![i64::MIN; 7];
            let both = s.snapshot_with(&mut keys, Select::Both);
            prop_assert_eq!((bits(both.p50), bits(both.p99)), want);
            prop_assert_eq!(both.window_len, draws.len().min(capacity));
            let median = s.snapshot_with(&mut keys, Select::Median);
            prop_assert_eq!((bits(median.p50), median.p99), (want.0, None));
            let counters = s.snapshot_with(&mut keys, Select::Nothing);
            prop_assert_eq!((counters.p50, counters.p99), (None, None));
            prop_assert_eq!(counters.window_len, both.window_len);
        }
    }

    #[test]
    fn tiny_windows_share_one_order_statistic() {
        // n ≤ 2 is where round((n-1)·q) gives i50 == i99.
        let mut s = Window::new(4);
        assert!(s.snapshot().p50.is_none() && s.snapshot().p99.is_none());
        s.push(3e-3, None);
        let one = s.snapshot();
        assert_eq!((one.p50, one.p99), (s.percentile_by_sort(0.5), one.p50));
        s.push(1e-3, None);
        let two = s.snapshot();
        assert_eq!(two.p50, Some(TimeSpan::from_secs(3e-3)), "round(0.5) = 1");
        assert_eq!(two.p99, two.p50);
        assert_eq!(two.p50, s.percentile_by_sort(0.5));
    }
}
