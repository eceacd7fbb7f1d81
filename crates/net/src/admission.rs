//! Per-client admission control: token-bucket rate limiting plus a
//! cumulative misbehaviour score with exponential-backoff bans.
//!
//! The shape is the peer-scoring/blacklist pattern from p2p node
//! runtimes: every protocol violation adds a weighted increment to the
//! client's score; crossing [`AdmissionConfig::ban_threshold`] bans the
//! client for a window that doubles per successive ban (capped at
//! [`AdmissionConfig::ban_max`]); the score **decays** over time, so a
//! once-noisy client that behaves rehabilitates instead of ratcheting
//! toward an inevitable ban.
//!
//! The registry is *bounded* ([`AdmissionConfig::max_clients`]): at
//! capacity the least-recently-seen non-banned record is evicted to
//! admit a new client, and if every record is banned the newcomer is
//! turned away — an identity-churn flood cannot balloon server memory
//! or flush standing bans.
//!
//! All methods take `now` explicitly, so the policy is a pure state
//! machine the unit tests drive with synthetic clocks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use eml_core::sync::{rank, RankedGuard, RankedMutex};

/// A scored protocol violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// Frame header declared a payload above the cap.
    Oversize,
    /// Request tag outside the protocol vocabulary.
    UnknownTag,
    /// Payload failed to parse as its tag demands.
    Malformed,
    /// Request arrived with the token bucket empty.
    Flood,
    /// A started frame stalled past the read deadline (slowloris).
    Stall,
}

/// Admission-control tuning.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Token-bucket burst capacity (requests).
    pub bucket_capacity: f64,
    /// Token-bucket sustained refill rate (requests per second).
    pub refill_per_sec: f64,
    /// Misbehaviour score at which a ban is imposed.
    pub ban_threshold: f64,
    /// Score decay per second of good behaviour.
    pub score_decay_per_sec: f64,
    /// First ban window; doubles per successive ban of the same client.
    pub ban_base: Duration,
    /// Upper bound of the exponential ban backoff.
    pub ban_max: Duration,
    /// Hard cap on tracked client records (bounded registry).
    pub max_clients: usize,
    /// Score weight of [`Violation::Oversize`].
    pub weight_oversize: f64,
    /// Score weight of [`Violation::UnknownTag`].
    pub weight_unknown_tag: f64,
    /// Score weight of [`Violation::Malformed`].
    pub weight_malformed: f64,
    /// Score weight of [`Violation::Flood`].
    pub weight_flood: f64,
    /// Score weight of [`Violation::Stall`].
    pub weight_stall: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            bucket_capacity: 32.0,
            refill_per_sec: 16.0,
            ban_threshold: 8.0,
            score_decay_per_sec: 0.5,
            ban_base: Duration::from_millis(250),
            ban_max: Duration::from_secs(60),
            max_clients: 1024,
            weight_oversize: 3.0,
            weight_unknown_tag: 2.0,
            weight_malformed: 2.0,
            weight_flood: 1.0,
            weight_stall: 3.0,
        }
    }
}

impl AdmissionConfig {
    fn weight(&self, v: Violation) -> f64 {
        match v {
            Violation::Oversize => self.weight_oversize,
            Violation::UnknownTag => self.weight_unknown_tag,
            Violation::Malformed => self.weight_malformed,
            Violation::Flood => self.weight_flood,
            Violation::Stall => self.weight_stall,
        }
    }
}

/// The outcome of an admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Request admitted (a token was taken).
    Admitted,
    /// Token bucket empty: the client is over its sustained rate.
    RateLimited,
    /// The client is banned until the given instant.
    Banned {
        /// When the ban lifts.
        until: Instant,
    },
    /// The registry is full of banned clients; no record could be made
    /// for this newcomer.
    OverCapacity,
}

struct ClientRecord {
    tokens: f64,
    score: f64,
    last_refill: Instant,
    last_decay: Instant,
    last_seen: Instant,
    banned_until: Option<Instant>,
    /// Successive bans: the exponent of the ban-backoff window.
    ban_streak: u32,
}

impl ClientRecord {
    fn new(cfg: &AdmissionConfig, now: Instant) -> Self {
        Self {
            tokens: cfg.bucket_capacity,
            score: 0.0,
            last_refill: now,
            last_decay: now,
            last_seen: now,
            banned_until: None,
            ban_streak: 0,
        }
    }

    /// Lazily applies refill, decay and ban expiry up to `now`.
    fn advance(&mut self, cfg: &AdmissionConfig, now: Instant) {
        let dt = now
            .saturating_duration_since(self.last_refill)
            .as_secs_f64();
        self.tokens = (self.tokens + dt * cfg.refill_per_sec).min(cfg.bucket_capacity);
        self.last_refill = now;
        let dt = now.saturating_duration_since(self.last_decay).as_secs_f64();
        self.score = (self.score - dt * cfg.score_decay_per_sec).max(0.0);
        self.last_decay = now;
        self.last_seen = now;
        if self.banned_until.is_some_and(|until| now >= until) {
            // Rehabilitation: the ban lifts, but the streak is kept so
            // a repeat offender's next window is longer.
            self.banned_until = None;
        }
    }
}

/// The per-client admission registry. Shared by every connection
/// thread; all state behind one mutex (critical sections are a few
/// float operations — contention is not a concern at the request rates
/// a threaded server sustains).
pub struct Admission {
    cfg: AdmissionConfig,
    clients: RankedMutex<HashMap<String, ClientRecord>>,
    bans: AtomicU64,
    violations: AtomicU64,
    evictions: AtomicU64,
}

impl Admission {
    /// Creates a registry with the given tuning.
    #[must_use]
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            clients: RankedMutex::new(rank::NET_ADMISSION, "net-admission-clients", HashMap::new()),
            bans: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The tuning in force.
    #[must_use]
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Total bans imposed since construction.
    #[must_use]
    pub fn bans(&self) -> u64 {
        self.bans.load(Ordering::Relaxed)
    }

    /// Total violations recorded since construction.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Records evicted from the bounded registry since construction.
    #[cfg(test)]
    fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Currently tracked client records.
    #[must_use]
    pub fn tracked_clients(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> RankedGuard<'_, HashMap<String, ClientRecord>> {
        self.clients.lock()
    }

    /// Ensures a record exists for `key` (evicting the least-recently
    /// seen non-banned record if the registry is full) and returns it.
    /// `None` when no room could be made (every record is banned).
    fn ensure_record<'a>(
        clients: &'a mut HashMap<String, ClientRecord>,
        cfg: &AdmissionConfig,
        evictions: &AtomicU64,
        key: &str,
        now: Instant,
    ) -> Option<&'a mut ClientRecord> {
        if !clients.contains_key(key) {
            if clients.len() >= cfg.max_clients.max(1) {
                let victim = clients
                    .iter()
                    .filter(|(_, r)| r.banned_until.is_none_or(|until| now >= until))
                    .min_by_key(|(_, r)| r.last_seen)
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(k) => {
                        clients.remove(&k);
                        evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    // Registry full of standing bans: an
                    // identity-churning client cannot flush them by
                    // flooding new keys.
                    None => return None,
                }
            }
            clients.insert(key.to_string(), ClientRecord::new(cfg, now));
        }
        clients.get_mut(key)
    }

    /// Ban check only — the connection-accept and re-key (Hello) path.
    /// Takes no token.
    pub fn connection_gate(&self, key: &str, now: Instant) -> Gate {
        let mut clients = self.lock();
        let Some(rec) = Self::ensure_record(&mut clients, &self.cfg, &self.evictions, key, now)
        else {
            return Gate::OverCapacity;
        };
        rec.advance(&self.cfg, now);
        match rec.banned_until {
            Some(until) => Gate::Banned { until },
            None => Gate::Admitted,
        }
    }

    /// Full per-request gate: ban check, then one token from the
    /// bucket. [`Gate::RateLimited`] takes nothing and records nothing
    /// — the caller decides whether the over-rate request is also a
    /// scored [`Violation::Flood`].
    pub fn request_gate(&self, key: &str, now: Instant) -> Gate {
        let mut clients = self.lock();
        let Some(rec) = Self::ensure_record(&mut clients, &self.cfg, &self.evictions, key, now)
        else {
            return Gate::OverCapacity;
        };
        rec.advance(&self.cfg, now);
        if let Some(until) = rec.banned_until {
            return Gate::Banned { until };
        }
        if rec.tokens >= 1.0 {
            rec.tokens -= 1.0;
            Gate::Admitted
        } else {
            Gate::RateLimited
        }
    }

    /// Records a scored violation. Returns the ban window imposed if
    /// this violation pushed the client's score over the threshold
    /// (exponential in the client's ban streak), `None` otherwise.
    pub fn record_violation(&self, key: &str, v: Violation, now: Instant) -> Option<Duration> {
        self.violations.fetch_add(1, Ordering::Relaxed);
        let mut clients = self.lock();
        let rec = Self::ensure_record(&mut clients, &self.cfg, &self.evictions, key, now)?;
        rec.advance(&self.cfg, now);
        rec.score += self.cfg.weight(v);
        if rec.score < self.cfg.ban_threshold || rec.banned_until.is_some() {
            return None;
        }
        let window = self
            .cfg
            .ban_base
            .saturating_mul(2u32.saturating_pow(rec.ban_streak.min(16)))
            .min(self.cfg.ban_max.max(self.cfg.ban_base));
        rec.banned_until = Some(now + window);
        rec.ban_streak = rec.ban_streak.saturating_add(1);
        // A ban settles the debt: rehabilitation starts from zero.
        rec.score = 0.0;
        self.bans.fetch_add(1, Ordering::Relaxed);
        Some(window)
    }

    /// Whether `key` is banned at `now` (no state created for unknown
    /// keys).
    #[cfg(test)]
    fn is_banned(&self, key: &str, now: Instant) -> bool {
        self.lock()
            .get(key)
            .and_then(|r| r.banned_until)
            .is_some_and(|until| now < until)
    }
}

impl std::fmt::Debug for Admission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Admission({} tracked, {} bans, {} violations)",
            self.tracked_clients(),
            self.bans(),
            self.violations()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdmissionConfig {
        AdmissionConfig {
            bucket_capacity: 2.0,
            refill_per_sec: 1.0,
            ban_threshold: 4.0,
            score_decay_per_sec: 1.0,
            ban_base: Duration::from_secs(1),
            ban_max: Duration::from_secs(4),
            max_clients: 2,
            weight_oversize: 3.0,
            weight_unknown_tag: 2.0,
            weight_malformed: 2.0,
            weight_flood: 1.0,
            weight_stall: 3.0,
        }
    }

    #[test]
    fn token_bucket_limits_burst_and_refills() {
        let adm = Admission::new(cfg());
        let t0 = Instant::now();
        assert_eq!(adm.request_gate("c", t0), Gate::Admitted);
        assert_eq!(adm.request_gate("c", t0), Gate::Admitted);
        assert_eq!(adm.request_gate("c", t0), Gate::RateLimited);
        // One second refills one token.
        let t1 = t0 + Duration::from_secs(1);
        assert_eq!(adm.request_gate("c", t1), Gate::Admitted);
        assert_eq!(adm.request_gate("c", t1), Gate::RateLimited);
        // Refill caps at the burst capacity.
        let t2 = t1 + Duration::from_secs(60);
        assert_eq!(adm.request_gate("c", t2), Gate::Admitted);
        assert_eq!(adm.request_gate("c", t2), Gate::Admitted);
        assert_eq!(adm.request_gate("c", t2), Gate::RateLimited);
    }

    #[test]
    fn score_crossing_threshold_bans_with_exponential_backoff() {
        let adm = Admission::new(cfg());
        let t0 = Instant::now();
        // 3 (oversize) < 4: no ban yet.
        assert_eq!(adm.record_violation("c", Violation::Oversize, t0), None);
        // +2 (malformed) = 5 ≥ 4: first ban, base window.
        assert_eq!(
            adm.record_violation("c", Violation::Malformed, t0),
            Some(Duration::from_secs(1))
        );
        assert!(adm.is_banned("c", t0));
        assert!(matches!(
            adm.request_gate("c", t0),
            Gate::Banned { until } if until == t0 + Duration::from_secs(1)
        ));
        assert_eq!(adm.bans(), 1);
        // The ban lifts after its window: rehabilitated, score reset.
        let t1 = t0 + Duration::from_millis(1100);
        assert!(!adm.is_banned("c", t1));
        assert_eq!(adm.connection_gate("c", t1), Gate::Admitted);
        // Re-offending bans again with a doubled window…
        assert_eq!(adm.record_violation("c", Violation::Stall, t1), None);
        assert_eq!(
            adm.record_violation("c", Violation::UnknownTag, t1),
            Some(Duration::from_secs(2))
        );
        // …and the backoff caps at ban_max.
        let t2 = t1 + Duration::from_secs(3);
        assert_eq!(adm.record_violation("c", Violation::Stall, t2), None);
        assert_eq!(
            adm.record_violation("c", Violation::Oversize, t2),
            Some(Duration::from_secs(4))
        );
        let t3 = t2 + Duration::from_secs(5);
        assert_eq!(adm.record_violation("c", Violation::Stall, t3), None);
        assert_eq!(
            adm.record_violation("c", Violation::Oversize, t3),
            Some(Duration::from_secs(4)),
            "window capped at ban_max"
        );
    }

    #[test]
    fn score_decays_so_a_noisy_client_rehabilitates() {
        let adm = Admission::new(cfg());
        let t0 = Instant::now();
        assert_eq!(adm.record_violation("c", Violation::Oversize, t0), None); // 3
                                                                              // After 2 s the score has decayed to 1; +2 stays under 4.
        let t1 = t0 + Duration::from_secs(2);
        assert_eq!(adm.record_violation("c", Violation::Malformed, t1), None);
        assert!(!adm.is_banned("c", t1));
        assert_eq!(adm.violations(), 2);
    }

    #[test]
    fn bounded_registry_evicts_idle_but_never_banned_records() {
        let adm = Admission::new(cfg());
        let t0 = Instant::now();
        // Ban "a"; then fill the 2-slot registry with "b".
        adm.record_violation("a", Violation::Oversize, t0);
        adm.record_violation("a", Violation::Malformed, t0); // banned
        assert_eq!(adm.connection_gate("b", t0), Gate::Admitted);
        assert_eq!(adm.tracked_clients(), 2);
        // A newcomer evicts idle "b", not banned "a".
        let t1 = t0 + Duration::from_millis(10);
        assert_eq!(adm.connection_gate("c", t1), Gate::Admitted);
        assert_eq!(adm.tracked_clients(), 2);
        assert!(adm.is_banned("a", t1), "the ban survived the eviction");
        assert_eq!(adm.evictions(), 1);
        // Ban "c" too: registry now all-banned; a newcomer is refused,
        // not granted a fresh record.
        adm.record_violation("c", Violation::Stall, t1);
        adm.record_violation("c", Violation::Malformed, t1); // banned
        assert_eq!(adm.connection_gate("d", t1), Gate::OverCapacity);
    }
}
