//! What the benchmark reads from the operating system — process CPU
//! time, peak resident set, the CPU mask — all through `/proc`, and
//! the fixed spin that measures effective core speed. No `libc`: the
//! repo's lint allows `unsafe` only in `crates/simd`.

use std::fs;
use std::hint::black_box;
use std::os::unix::fs::FileExt;
use std::time::Instant;

/// CPU time this process has used, all threads, user + system, in
/// nanoseconds: the sum of on-CPU time over `/proc/self/task/*/schedstat`
/// (nanosecond resolution), falling back to `utime + stime` of
/// `/proc/self/stat` (10 ms ticks) where schedstats are compiled out.
/// Threads that have exited drop out of the sum, so take differences
/// only across spans in which no thread ends.
pub fn process_cpu_ns() -> u64 {
    let mut total = 0u64;
    let mut seen = false;
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let on_cpu = fs::read_to_string(task.path().join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
            if let Some(ns) = on_cpu {
                total += ns;
                seen = true;
            }
        }
    }
    if seen && total > 0 {
        return total;
    }
    // Fields 14 and 15 after the parenthesised command name, in
    // clock ticks of 1/100 s.
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1.to_string();
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
            Some(ticks * 10_000_000)
        })
        .unwrap_or(0)
}

fn status_field(key: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Peak resident set size (`VmHWM`) in MB; 0.0 where `/proc` lacks it.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on (`Cpus_allowed_list`), as text.
pub fn cpu_mask() -> String {
    status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".into())
}

/// Floats the spin streams over: 8 KiB, resident in any L1.
const SPIN_FLOATS: usize = 2048;
/// Passes over them per spin.
const SPIN_PASSES: usize = 64;
/// Nanoseconds one spin takes on the reference core when nothing
/// disturbs it. A constant, so two runs on differently-loaded moments
/// of the same box restate to the same scale; wall time is reported
/// time times the factor.
const SPIN_REFERENCE_NS: f64 = 10_400.0;
/// How often the load phase samples the meter: about one percent of
/// the client thread's time (a sample is two spins).
pub const SPIN_EVERY_NS: u64 = 2_000_000;

/// Measures how fast the core the caller runs on is *right now*, by
/// timing a fixed piece of work that is not part of the program under
/// test: 64 independent multiply-add streams over an L1-resident
/// array. It is bound by the core's floating-point issue ports, so it
/// slows down with the two things that change this box's speed from
/// one second to the next — the core's clock (±25 % boost states were
/// observed) and a busy sibling hyper-thread of another tenant (20–30 %)
/// — in roughly the proportion the served kernels do. A chain of
/// dependent integer multiply-adds, the first design, tracked the
/// clock but is latency-bound and did not see the sibling at all.
///
/// The meter must read the core, not the program under test, so a
/// sample keeps out the two ways that program reaches into it:
///
/// * **Cold start.** Taken between two requests, a spin finds caches
///   and predictors as the workload left them and reads 2–5 % long, by
///   an amount that differs from workload to workload. Every sample is
///   therefore two spins: one untimed, then the timed one. Measured on
///   all four workloads, a third spin right behind the timed one
///   agrees with it to within 1 %.
/// * **Preemption.** The spin is timed on the wall clock, and a sample
///   during which a driver or connection thread was given the CPU
///   measures that thread's time slice. The third field of
///   `/proc/thread-self/schedstat` counts the time slices this thread
///   has been given; a sample across which it moved is dropped.
///
/// The meter belongs to the thread that made it: that is the thread
/// whose time slices it watches.
pub struct SpeedMeter {
    data: Vec<f32>,
    schedstat: Option<fs::File>,
    last_sample: u64,
    samples: Vec<u32>,
    /// Samples kept and samples dropped as preempted, since creation.
    pub kept: u64,
    /// See `kept`.
    pub dropped: u64,
}

impl Default for SpeedMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedMeter {
    /// A meter for the calling thread, with no sample yet.
    pub fn new() -> Self {
        Self {
            data: (0..SPIN_FLOATS).map(|i| 1.0 + i as f32 * 1e-6).collect(),
            schedstat: fs::File::open("/proc/thread-self/schedstat").ok(),
            last_sample: 0,
            samples: Vec::with_capacity(1024),
            kept: 0,
            dropped: 0,
        }
    }

    /// One timed spin, in nanoseconds.
    pub fn spin(&self) -> u64 {
        let mut acc = [0.0f32; 64];
        let t0 = Instant::now();
        for _ in 0..SPIN_PASSES {
            for chunk in black_box(&self.data[..]).chunks_exact(64) {
                for (a, c) in acc.iter_mut().zip(chunk) {
                    *a = *a * 0.999 + *c;
                }
            }
        }
        black_box(acc);
        t0.elapsed().as_nanos() as u64
    }

    /// Time slices this thread has been given so far; `None` where
    /// schedstats are compiled out (then no sample can be dropped).
    fn time_slices(&self) -> Option<u64> {
        let mut buf = [0u8; 96];
        let n = self.schedstat.as_ref()?.read_at(&mut buf, 0).ok()?;
        std::str::from_utf8(&buf[..n])
            .ok()?
            .split_whitespace()
            .nth(2)?
            .parse()
            .ok()
    }

    /// Takes one sample unconditionally: an untimed spin, a timed one,
    /// and the check that the thread kept the CPU across both.
    pub fn sample(&mut self) {
        let before = self.time_slices();
        self.spin(); // untimed: leaves the core as a spin leaves it
        let ns = self.spin();
        if before != self.time_slices() {
            self.dropped += 1;
            return;
        }
        self.kept += 1;
        self.samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    /// Takes a sample if the last one is at least `every` ns old.
    /// `now` is any monotonic nanosecond clock the caller already read.
    pub fn tick(&mut self, now: u64, every: u64) {
        if now.wrapping_sub(self.last_sample) >= every {
            self.last_sample = now;
            self.sample();
        }
    }

    /// The speed factor over the samples kept since the last call —
    /// mean spin time over the reference; 1.0 = an undisturbed
    /// reference core, above = slower — and starts a fresh stretch.
    /// The mean, not the median: the spin is 10 us long and the
    /// disturbance comes in bursts of that order, so anything that
    /// takes longer than a spin — a forward, a window — averages over
    /// it. Samples until one is kept if there is none.
    pub fn take_factor(&mut self) -> f64 {
        while self.samples.is_empty() {
            self.sample();
        }
        let mean =
            self.samples.iter().map(|&ns| f64::from(ns)).sum::<f64>() / self.samples.len() as f64;
        self.samples.clear();
        (mean / SPIN_REFERENCE_NS).max(1e-3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let a = process_cpu_ns();
        let _ = SpeedMeter::new().take_factor();
        let b = process_cpu_ns();
        assert!(b >= a, "CPU time went backwards: {a} -> {b}");
        assert!(peak_rss_mb() > 0.5);
        assert!(!cpu_mask().is_empty());
    }

    #[test]
    fn the_spin_is_not_compiled_away_and_the_meter_averages() {
        // `black_box` is a hint; confirm the loops were not deleted:
        // 131 072 multiply-adds cannot take under a microsecond.
        let mut meter = SpeedMeter::new();
        assert!(meter.spin() > 1_000, "spin compiled away");
        meter.tick(0, SPIN_EVERY_NS); // too soon after "sample 0": no sample
        meter.tick(SPIN_EVERY_NS, SPIN_EVERY_NS);
        meter.tick(SPIN_EVERY_NS + 1, SPIN_EVERY_NS);
        assert_eq!(meter.kept + meter.dropped, 1);
        assert!(meter.take_factor() > 0.0);
        assert!(meter.samples.is_empty());
        meter.samples = vec![10_400, 20_800, 10_400, 20_800];
        assert!((meter.take_factor() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn the_meter_sees_its_own_thread_being_scheduled() {
        // A sleep hands the CPU back, so the thread's time-slice count
        // must move across it: that is what drops a preempted sample.
        let meter = SpeedMeter::new();
        let Some(before) = meter.time_slices() else {
            return; // schedstats compiled out: nothing to watch
        };
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(meter.time_slices().unwrap() > before);
    }
}
