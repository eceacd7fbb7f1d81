//! The shared pool's scheduler: which app a free driver claims next.
//!
//! Every driver pulls from one ready order ([`sched_key`]): among the
//! claimable apps, pending knob work goes first (cheap, and the control
//! plane's actuation latency rides on it), then weighted
//! earliest-deadline-first; ties break on registration order, so the
//! order is total and deterministic. A claim marks the app *busy*:
//! exactly one driver works an app at a time, which preserves per-app
//! FIFO completion order and keeps per-app results bit-identical
//! whether the app runs solo or among a hundred co-tenants.
//!
//! **A claim reads words, not locks.** An app's place in that order is
//! one `u64`, [`sched_word`] of its ledger, which the ledger guard
//! publishes into the app's atomic at every unlock (see `ledger`):
//! [`NOT_CLAIMABLE`] (`u64::MAX`), `0` for knob work, `1 + ns` for an
//! EDF virtual deadline `ns` nanoseconds after the pool epoch. The word
//! is a function of the ledger alone — never of the clock — so the last
//! unlock's word *is* the app's key until the ledger is locked again.
//! A driver claims by taking the minimum of the roster's published
//! words under the pool lock, with no ledger lock (the first minimum in
//! roster order, which is registration order, so ties go to the
//! earliest-registered app). It then re-verifies that one app under its
//! ledger lock, since the word it read may be stale, and takes the
//! minimum again if the app is no longer claimable. Whoever changed the
//! app published its new word before unlocking, so whenever the ledger
//! is locked its published word is current, and the rescan does not
//! pick the app again. A claim takes two locks whatever the roster size
//! (ranks: `EXEC_POOL` below `EXEC_QUEUE`).
//!
//! **The ring rule, and why no wakeup is lost.** A driver holds the
//! pool lock from its read of the words until its condvar wait releases
//! it atomically, and it sleeps only when every word of its last scan
//! read `NOT_CLAIMABLE` (a claimable word is claimed, or found stale
//! under the lock and scanned again). So an app that becomes claimable
//! afterwards has its word *fall*, and on the hot path — `submit` (an
//! idle app's queue goes non-empty) and the driver's release (a busy
//! app with work left is freed) — exactly such an unlock rings: it
//! publishes under the ledger lock, then [`PoolShared::ring`] takes the
//! pool lock before notifying. Either the ring's lock comes first and
//! the mutex orders the publish before the driver's next read, or the
//! driver is already waiting and the notify wakes it. An unlock whose
//! word does not fall has nothing to wake a driver for. The lifecycle
//! and control paths (allocation, knob routing, resume, fault
//! injection, deregistration, the watchdog, shutdown) change several
//! apps or the pool itself and keep their unconditional ring.

use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use eml_core::sync::{rank, RankedMutex};
use eml_platform::units::TimeSpan;

use super::ledger::{AppLedger, Ledger};
use super::supervise::Driver;
use super::App;

/// Virtual-deadline budget (seconds) for apps registered without a
/// latency requirement: tight enough that best-effort tenants are not
/// starved behind every deadline-bearing tenant, loose enough that
/// real deadlines still dominate the EDF order.
const DEFAULT_EDF_BUDGET_SECS: f64 = 0.1;

/// The pool scheduler's shared state: the roster of registered DNN
/// apps in registration order, whose published words a claim scans, and
/// the pool-wide stop flag.
pub(super) struct PoolState {
    pub(super) roster: Vec<Arc<App>>,
    pub(super) stopping: bool,
}

/// What every pool driver shares: the scheduler state, the wakeup
/// condvar, the live-driver census and the EDF epoch.
pub(super) struct PoolShared {
    /// Ranked *below* every per-app lock (`EXEC_POOL` < `EXEC_QUEUE`)
    /// so a driver may hold the scheduler while it re-verifies its pick
    /// under that app's ledger.
    pub(super) sched: RankedMutex<PoolState>,
    /// Signalled when an app becomes more urgent on the hot path, and
    /// on every lifecycle and control change (see the module docs).
    pub(super) work: Condvar,
    /// Drivers currently alive (spawned minus reaped-dead). Lifecycle
    /// paths consult it so a fully-dead pool cannot hang a drain.
    pub(super) live_drivers: AtomicUsize,
    /// The EDF time origin: virtual deadlines are offsets from here,
    /// so they are totally ordered plain `Duration`s.
    pub(super) epoch: Instant,
}

impl PoolShared {
    /// An empty, running pool whose EDF clock starts now.
    pub(super) fn new() -> Self {
        let state = PoolState {
            roster: Vec::new(),
            stopping: false,
        };
        Self {
            sched: RankedMutex::new(rank::EXEC_POOL, "exec-pool", state),
            work: Condvar::new(),
            live_drivers: AtomicUsize::new(0),
            epoch: Instant::now(),
        }
    }

    /// Wakes every driver for a rescan, without losing a wakeup: a
    /// scanning driver holds the scheduler lock continuously from its
    /// scan until its condvar wait (which releases atomically), so
    /// taking the lock here guarantees the notify lands after the
    /// driver either saw the new state or started waiting.
    pub(super) fn ring(&self) {
        drop(self.sched.lock());
        self.work.notify_all();
    }
}

/// The published word of an app no driver may claim.
pub(super) const NOT_CLAIMABLE: u64 = u64::MAX;

/// The inputs of an app's scheduling word that are not ledger state,
/// fixed at registration.
pub(super) struct KeyBasis {
    /// The app's deadline, from its registration requirements: its
    /// EDF budget here, and the one copy the executor sheds, coalesces
    /// and judges completions against (`AppLedger::deadline`).
    pub(super) deadline: Option<TimeSpan>,
    /// The pool's EDF epoch.
    pub(super) epoch: Instant,
}

/// The claimability and urgency of one app as one word, smaller is
/// sooner (encoding in the module docs). [`NOT_CLAIMABLE`] when the app
/// is already claimed (`busy`), paused, stopped-and-empty, or simply
/// idle; `0` when it has queued knob commands (actuate before any batch
/// work).
///
/// Otherwise the word is the virtual deadline `arrival + budget /
/// weight` of the app's oldest request: its latency budget scaled down
/// by its RTM band allocation. A fatter band means less slack added to
/// the arrival time — the pool serves better-allocated tenants sooner,
/// which is exactly the weighted share the starvation regression pins.
pub(super) fn sched_word(st: &Ledger, basis: &KeyBasis) -> u64 {
    if st.busy || (st.stopping && st.depth() == 0) {
        return NOT_CLAIMABLE;
    }
    if !st.knobs.is_empty() {
        return 0;
    }
    if st.paused && !st.stopping {
        return NOT_CLAIMABLE;
    }
    let Some(oldest) = st.oldest() else {
        return NOT_CLAIMABLE;
    };
    let budget = basis
        .deadline
        .map_or(DEFAULT_EDF_BUDGET_SECS, |d| d.as_secs().max(0.0));
    let weight = st.band_cap.max(1) as f64;
    let virtual_deadline = oldest.submitted.saturating_duration_since(basis.epoch)
        + Duration::from_secs_f64(budget / weight);
    let ns = u64::try_from(virtual_deadline.as_nanos()).unwrap_or(NOT_CLAIMABLE);
    ns.min(NOT_CLAIMABLE - 2) + 1
}

/// The roster position of the most urgent claimable app, from the apps'
/// published words: the *first* minimum, so equal words go to the
/// earliest-registered app.
fn most_urgent(words: impl Iterator<Item = u64>) -> Option<usize> {
    let mut best = None;
    let mut min = NOT_CLAIMABLE;
    for (at, word) in words.enumerate() {
        if word < min {
            (min, best) = (word, Some(at));
        }
    }
    best
}

/// Marks the app behind `ledger` busy if it is still claimable under
/// its lock.
fn try_claim(ledger: &AppLedger) -> bool {
    let mut st = ledger.lock();
    if ledger.word_of(&st) == NOT_CLAIMABLE {
        return false;
    }
    st.busy = true;
    true
}

/// Claims the most urgent runnable app for this driver, or blocks
/// until one appears. Returns `None` only when the pool is stopping
/// and nothing is left to drain — the driver's exit condition.
///
/// The pool lock is held from the read of the words until the condvar
/// wait releases it atomically — with [`PoolShared::ring`] taking the
/// same lock before notifying, a wakeup can never fall between a
/// driver's decision to sleep and its sleep.
pub(super) fn next_app(drv: &Driver) -> Option<Arc<App>> {
    let pool = &drv.pool;
    let mut ps = pool.sched.lock();
    loop {
        drv.beat();
        let words = ps.roster.iter().map(|app| app.ledger.published());
        if let Some(app) = most_urgent(words).map(|at| &ps.roster[at]) {
            // Re-verify under the app lock before claiming: another
            // actor (a racing driver, watchdog confiscation, a drain)
            // may have changed the app since it published the word.
            if try_claim(&app.ledger) {
                return Some(Arc::clone(app));
            }
            continue;
        }
        if ps.stopping {
            return None;
        }
        ps = pool.sched.wait(&pool.work, ps);
    }
}

#[cfg(test)]
mod tests {
    use super::super::ledger::Riders;
    use super::*;
    use crate::error::ServeError;
    use eml_core::knobs::KnobCommand;
    use eml_dnn::{Precision, WidthLevel};

    /// The scheduling key the drivers computed under each ledger lock
    /// before keys were published, kept as the oracle the words must
    /// agree with.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum SchedKey {
        Knob(u64),
        Edf(Duration, u64),
    }

    fn sched_key(
        st: &Ledger,
        reg_index: u64,
        deadline: Option<TimeSpan>,
        pool_epoch: Instant,
    ) -> Option<SchedKey> {
        if st.busy {
            return None;
        }
        if st.stopping && st.depth() == 0 {
            return None;
        }
        if !st.knobs.is_empty() {
            return Some(SchedKey::Knob(reg_index));
        }
        if st.paused && !st.stopping {
            return None;
        }
        let oldest = st.oldest()?;
        let budget = deadline.map_or(DEFAULT_EDF_BUDGET_SECS, |d| d.as_secs().max(0.0));
        let weight = st.band_cap.max(1) as f64;
        let virtual_deadline = oldest.submitted.saturating_duration_since(pool_epoch)
            + Duration::from_secs_f64(budget / weight);
        Some(SchedKey::Edf(virtual_deadline, reg_index))
    }

    /// One registered app: its ledger and the deadline it registered
    /// with. Its roster position is its registration index.
    struct Tenant {
        ledger: AppLedger,
        deadline: Option<TimeSpan>,
    }

    struct Pool {
        epoch: Instant,
        roster: Vec<Tenant>,
    }

    impl Pool {
        fn new(apps: usize, seed: u64) -> Self {
            let epoch = Instant::now();
            let roster = (0..apps as u64)
                .map(|i| {
                    // Half the apps carry a deadline (some equal, so
                    // EDF ties occur), the rest the best-effort budget.
                    let deadline = (seed + i)
                        .is_multiple_of(2)
                        .then(|| TimeSpan::from_millis(1.0 + ((seed + i) % 3) as f64));
                    let basis = KeyBasis { deadline, epoch };
                    let ledger = AppLedger::new(8, 0, Precision::F32, None, basis);
                    Tenant { ledger, deadline }
                })
                .collect();
            Self { epoch, roster }
        }

        /// The oracle word of app `at`, computed under its lock.
        fn oracle_word(&self, at: usize) -> u64 {
            let t = &self.roster[at];
            encode(sched_key(
                &t.ledger.lock(),
                at as u64,
                t.deadline,
                self.epoch,
            ))
        }

        /// The claim the locked roster scan makes.
        fn oracle_pick(&self) -> Option<usize> {
            (0..self.roster.len())
                .filter_map(|at| {
                    let t = &self.roster[at];
                    let st = t.ledger.lock();
                    sched_key(&st, at as u64, t.deadline, self.epoch).map(|key| (key, at))
                })
                .min()
                .map(|(_, at)| at)
        }

        /// The words a driver's scan reads, in roster order.
        fn words(&self) -> impl Iterator<Item = u64> + '_ {
            self.roster.iter().map(|t| t.ledger.published())
        }

        /// Every published word is its ledger's oracle key, and the
        /// minimum over the words claims what the locked scan claims.
        fn check(&self, step: &str) {
            for at in 0..self.roster.len() {
                let published = self.roster[at].ledger.published();
                assert_eq!(published, self.oracle_word(at), "app {at} after {step}");
            }
            assert_eq!(
                most_urgent(self.words()),
                self.oracle_pick(),
                "pick after {step}"
            );
        }
    }

    /// The word an oracle key publishes as (see the module docs).
    fn encode(key: Option<SchedKey>) -> u64 {
        match key {
            None => NOT_CLAIMABLE,
            Some(SchedKey::Knob(_)) => 0,
            Some(SchedKey::Edf(vd, _)) => 1 + u64::try_from(vd.as_nanos()).expect("fits"),
        }
    }

    /// A seeded xorshift stream: the walk is reproducible per seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    fn inference_error(_seq: u64) -> ServeError {
        ServeError::Inference {
            app: "t".into(),
            reason: "confiscated".into(),
        }
    }

    /// One seeded, single-threaded walk over the moves that change a
    /// key input: admit, claim + dispatch, settle, release, knob push,
    /// pause, resume, `band_cap` (published through a drain watcher's
    /// timed wait), stopping and watchdog confiscation. After every
    /// step each published word equals the locked oracle key, and the
    /// hot path's two unlocks report the word falling exactly when it
    /// did.
    fn walk(seed: u64, apps: usize, steps: usize) {
        let pool = Pool::new(apps, seed);
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        pool.check("registration");
        for _ in 0..steps {
            let at = rng.below(apps as u64) as usize;
            let ledger = &pool.roster[at].ledger;
            let before = pool.oracle_word(at);
            let step = match rng.below(20) {
                0..=6 => {
                    let mut st = ledger.lock();
                    let _ = st.admit("t", &[0.5], 4);
                    let fell = st.unlock();
                    assert_eq!(fell, pool.oracle_word(at) < before, "admit's ring edge");
                    "admit"
                }
                7..=9 => {
                    let pick = most_urgent(pool.words());
                    assert_eq!(pick, pool.oracle_pick(), "claim");
                    if let Some(at) = pick {
                        let ledger = &pool.roster[at].ledger;
                        assert!(try_claim(ledger), "a fresh word claims");
                        let mut st = ledger.lock();
                        st.knobs.clear();
                        let k = st.depth().min(2);
                        st.dispatch(k, &mut Vec::new());
                    }
                    "claim + dispatch"
                }
                10 | 11 => {
                    let mut st = ledger.lock();
                    ledger.fail(&mut st, Riders::InFlight, inference_error);
                    "settle"
                }
                12 | 13 => {
                    let mut st = ledger.lock();
                    st.busy = false;
                    let fell = st.unlock();
                    assert_eq!(fell, pool.oracle_word(at) < before, "release's ring edge");
                    "release"
                }
                14 => {
                    let level = WidthLevel(rng.below(4) as usize);
                    let app = "t".into();
                    ledger
                        .lock()
                        .knobs
                        .push(KnobCommand::SetWidth { app, level });
                    "knob push"
                }
                15 => {
                    ledger.lock().paused = true;
                    "pause"
                }
                16 => {
                    ledger.lock().paused = false;
                    "resume"
                }
                17 => {
                    let mut st = ledger.lock();
                    st.band_cap = rng.below(5) as usize;
                    let st = ledger.wait_for(st, Duration::ZERO);
                    let key = sched_key(&st, at as u64, pool.roster[at].deadline, pool.epoch);
                    assert_eq!(ledger.published(), encode(key), "published before the wait");
                    "band_cap"
                }
                18 => {
                    // Rare: a stopping app refuses admissions for good.
                    if rng.below(4) == 0 {
                        ledger.lock().stopping = true;
                    }
                    "stopping"
                }
                _ => {
                    let mut st = ledger.lock();
                    ledger.fail(&mut st, Riders::InFlight, inference_error);
                    // A dead driver's claim is freed; a wedged one's
                    // stays with the still-running forward.
                    if rng.below(2) == 0 {
                        st.busy = false;
                    }
                    "watchdog confiscation"
                }
            };
            pool.check(step);
        }
    }

    #[test]
    fn published_words_track_the_locked_oracle_scan() {
        for seed in 0..48 {
            walk(seed, 1 + seed as usize % 8, 400);
        }
    }

    #[test]
    fn claim_path_allocates_nothing() {
        let pool = Pool::new(8, 3);
        for t in &pool.roster {
            let _ = t.ledger.lock().admit("t", &[0.5], 4);
        }
        let ((), allocs) = eml_testalloc::count(|| {
            for _ in 0..8 {
                let at = most_urgent(pool.words()).expect("work is queued");
                let ledger = &pool.roster[at].ledger;
                assert!(try_claim(ledger));
                ledger.lock().busy = false;
            }
        });
        assert_eq!(allocs.count, 0, "a claim allocates nothing");
    }
}
