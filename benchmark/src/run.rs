//! One benchmark run, start to result line: timed set-up repetitions,
//! warm-up, measured windows, (traced runs) probes, ledger check,
//! run record.

use std::time::Instant;

use crate::catalog;
use crate::json::Json;
use crate::load::{windows_of, Driver, Recorder, Schedule, WindowRow};
use crate::probes;
use crate::stats::{median, spread, window_median, WindowValue};
use crate::sut::{shape_of, Fixture, Ledger, System};
use crate::sys;

/// Set-up repetitions a full-length run makes.
const SETUP_REPS: usize = 15;
/// Speed-meter samples on each side of one repetition (~1.3 ms).
const SETUP_SPINS: usize = 64;
/// Speed-meter samples taken on the idle system right before and
/// right after the load phase (~40 ms each): what the core reads with
/// nothing of the program under test running, for the run record to
/// hold the in-load factor against.
const IDLE_SPINS: usize = 2048;

/// The four flags of the contract.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// `--workload`
    pub workload: String,
    /// `--seed`
    pub seed: u64,
    /// `--seconds`
    pub seconds: f64,
    /// `--trace`
    pub trace: bool,
}

/// A finished run.
pub struct RunOutput {
    /// Every reply verified, every ledger closed.
    pub correct: bool,
    /// Submission attempts over all systems the run stood up.
    pub attempted: u64,
    /// Attempts refused, failed or answered wrongly.
    pub failed: u64,
    /// `(name, value)` in catalog order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The run record: what two result sets must share to be compared.
    pub record: Json,
    /// The trace file's content, in a traced run.
    pub trace: Option<Json>,
}

impl RunOutput {
    /// The result line of the contract.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value)| {
                    (
                        name,
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::str(catalog::unit_of(name))),
                        ]),
                    )
                })),
            ),
        ])
        .to_line()
    }
}

/// How the run's seconds are spent.
struct Timeline {
    setup_budget: f64,
    warm: f64,
    window: f64,
    load_until: f64,
    probes_until: f64,
}

impl Timeline {
    fn of(seconds: f64, trace: bool) -> Self {
        let teardown = (0.02 * seconds).min(0.3);
        let probes_until = seconds - teardown;
        let load_until = if trace {
            probes_until - 0.2 * seconds
        } else {
            probes_until
        };
        Self {
            setup_budget: 0.25 * seconds,
            warm: (0.2 * seconds).min(2.0),
            window: (seconds / 10.0).min(1.0),
            load_until,
            probes_until,
        }
    }
}

/// The meter's factor over [`IDLE_SPINS`] back-to-back samples.
fn idle_factor(meter: &mut sys::SpeedMeter) -> f64 {
    meter.take_factor(); // drop what was sampled before
    (0..IDLE_SPINS).for_each(|_| meter.sample());
    meter.take_factor()
}

fn add_ledger(ledger: &Ledger, attempted: &mut u64, failed: &mut u64, closes: &mut bool) {
    *attempted += ledger.attempted;
    *failed += ledger.failed;
    *closes &= ledger.closes;
}

/// Runs one workload once.
///
/// # Errors
///
/// Anything that makes the numbers meaningless: an unknown workload, a
/// forced SIMD tier, a refusal during set-up, a reply that never came,
/// the script going off the rails. Wrong or failed replies are counted
/// in the result instead.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    if let Ok(tier) = std::env::var("EML_SIMD_FORCE") {
        return Err(format!(
            "EML_SIMD_FORCE={tier} is set: the numbers would describe a kernel tier \
             nobody ships; unset it"
        ));
    }
    let shape = shape_of(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}`; the workloads are {}",
            args.workload,
            catalog::WORKLOADS.map(|w| w.name).join(", ")
        )
    })?;
    if !(args.seconds.is_finite() && args.seconds >= 0.5) {
        return Err("--seconds must be at least 0.5".into());
    }
    let origin = Instant::now();
    let elapsed = || origin.elapsed().as_secs_f64();
    let timeline = Timeline::of(args.seconds, args.trace);
    let fx = Fixture::generate(shape, args.seed);

    // Timed set-up repetitions on fresh objects; the last system stays
    // up and takes the load.
    let (mut attempted, mut failed, mut closes) = (0u64, 0u64, true);
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut meter = sys::SpeedMeter::new();
    let mut sys = loop {
        // Set-up is one call sequence on this thread: sample the
        // core's speed on both sides of it.
        (0..SETUP_SPINS).for_each(|_| meter.sample());
        let (sys, secs) = System::set_up(&fx)?;
        (0..SETUP_SPINS).for_each(|_| meter.sample());
        setup_secs.push(WindowValue {
            raw: secs,
            speed_factor: meter.take_factor(),
        });
        if setup_secs.len() == SETUP_REPS || elapsed() > timeline.setup_budget {
            break sys;
        }
        add_ledger(&sys.close(&fx), &mut attempted, &mut failed, &mut closes);
    };

    let mut rec = Recorder::new(origin, args.trace, timeline.window);
    let now = elapsed();
    let warm_until = now + timeline.warm;
    // At least two windows, however long set-up took.
    let load_until = timeline.load_until.max(warm_until + 2.0 * timeline.window);
    let schedule = Schedule {
        warm_until: (warm_until * 1e9) as u64,
        load_until: (load_until * 1e9) as u64,
    };
    let idle_before = idle_factor(rec.meter());
    let (kept0, dropped0) = (rec.meter().kept, rec.meter().dropped);
    let outcome = Driver::new(&mut sys, &fx, &mut rec).run(schedule)?;
    let load_samples = (rec.meter().kept - kept0, rec.meter().dropped - dropped0);
    let idle_after = idle_factor(rec.meter());
    let load_totals = sys.totals(&fx);

    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    if args.trace {
        let probes_until = timeline
            .probes_until
            .max(elapsed() + 0.2 * args.seconds.min(2.0));
        let probed = probes::run(&mut sys, &fx, &mut rec, probes_until)?;
        let ledger = sys.close(&fx);
        add_ledger(&ledger, &mut attempted, &mut failed, &mut closes);
        metrics.extend(probes::per_layer_metrics(
            &rec,
            &probed,
            &load_totals,
            &ledger,
        ));
    } else {
        let ledger = sys.close(&fx);
        add_ledger(&ledger, &mut attempted, &mut failed, &mut closes);
        let rows = &rec.rows;
        let value = |name: &str, v: Option<f64>| {
            v.filter(|v| v.is_finite())
                .ok_or_else(|| format!("no value for {name}: too few windows"))
        };
        for m in &catalog::END_TO_END {
            let v = match m.name {
                "throughput_rps" => window_median(
                    &windows_of(rows, |r| Some(r.completions as f64 / r.secs)),
                    false,
                ),
                "p50_us" => window_median(&windows_of(rows, |r| Some(r.p50_ns / 1e3)), true),
                "cpu_us_per_req" => window_median(
                    &windows_of(rows, |r| Some(r.cpu_ns as f64 / r.completions as f64 / 1e3)),
                    true,
                ),
                "control_turn_us" => {
                    window_median(&windows_of(rows, |r| r.turn_ns.map(|t| t / 1e3)), true)
                }
                "peak_rss_mb" => Some(sys::peak_rss_mb()),
                "top1_agree_pct" => Some(outcome.top1_agree_pct),
                "setup_s" => window_median(&setup_secs, true),
                other => return Err(format!("end-to-end metric `{other}` has no source")),
            };
            metrics.push((m.name, value(m.name, v)?));
        }
    }

    let factors: Vec<f64> = rec.rows.iter().map(|r| r.factor).collect();
    let p50s: Vec<f64> = rec.rows.iter().map(|r| r.p50_ns).collect();
    // Wall-clock medians, before restating, so wall time is always
    // recoverable and the restating can be judged.
    let wall = |value: &dyn Fn(&WindowRow) -> f64| {
        Json::Num(median(&rec.rows.iter().map(value).collect::<Vec<_>>()).unwrap_or(0.0))
    };
    let record = Json::obj([
        ("workload", Json::str(shape.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        (
            "simd_tier",
            Json::str(format!("{:?}", eml_simd::active_tier())),
        ),
        (
            "rayon_num_threads",
            Json::str(std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into())),
        ),
        ("cpu_mask", Json::str(sys::cpu_mask())),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("setup_reps", Json::Num(setup_secs.len() as f64)),
        ("windows", Json::Num(rec.rows.len() as f64)),
        ("window_seconds", Json::Num(timeline.window)),
        (
            "speed_factor_median",
            Json::Num(median(&factors).unwrap_or(0.0)),
        ),
        // The same spin on the idle system on either side of the load
        // phase: the in-load factor must not read what the program
        // under test does, so the two should tell the same story.
        ("speed_factor_idle_before", Json::Num(idle_before)),
        ("speed_factor_idle_after", Json::Num(idle_after)),
        ("spin_samples_kept", Json::Num(load_samples.0 as f64)),
        ("spin_samples_dropped", Json::Num(load_samples.1 as f64)),
        ("window_p50_spread", Json::Num(spread(&p50s).unwrap_or(0.0))),
        (
            "wall_throughput_rps",
            wall(&|r| r.completions as f64 / r.secs),
        ),
        ("wall_p50_us", wall(&|r| r.p50_ns / 1e3)),
        (
            "wall_cpu_us_per_req",
            wall(&|r| r.cpu_ns as f64 / r.completions as f64 / 1e3),
        ),
        (
            "mean_batch",
            Json::Num(load_totals.batched_samples as f64 / load_totals.batches.max(1) as f64),
        ),
        ("churn_cycles", Json::Num(outcome.churn_cycles as f64)),
        ("control_turns", Json::Num(rec.turn_count as f64)),
        ("ledger_closes", Json::Bool(closes)),
        (
            "output_digest",
            Json::str(format!("{:016x}", fx.output_digest())),
        ),
        ("wall_seconds", Json::Num(elapsed())),
    ]);
    // The trace file also keeps every window as measured, unrestated:
    // what a surprising median is made of.
    let windows = rec
        .rows
        .iter()
        .map(|r| {
            Json::obj([
                ("traced", Json::Bool(r.traced)),
                ("seconds", Json::Num(r.secs)),
                ("completions", Json::Num(r.completions as f64)),
                ("cpu_ns", Json::Num(r.cpu_ns as f64)),
                ("p50_ns", Json::Num(r.p50_ns)),
                ("p99_ns", Json::Num(r.p99_ns)),
                ("speed_factor", Json::Num(r.factor)),
            ])
        })
        .collect();
    let trace = rec
        .take_trace()
        .map(|t| t.to_json(shape.name, args.seed, Json::Arr(windows)));
    Ok(RunOutput {
        correct: failed == 0 && closes,
        attempted,
        failed,
        metrics,
        record,
        trace,
    })
}
