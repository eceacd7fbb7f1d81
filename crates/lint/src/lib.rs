#![forbid(unsafe_code)]
//! `eml-lint`: the workspace invariant checker.
//!
//! A handful of invariants in this repo are load-bearing but invisible
//! to `rustc` and `clippy` because they are *policies of this codebase*,
//! not properties of the language: where `unsafe` may live, which
//! modules may read the wall clock, where panics are banned, the
//! append-only wire-code space, and that public surface is reachable.
//! Until now they lived in doc comments and review vigilance. This
//! crate turns each one into a build-failing check:
//!
//! | rule id              | invariant                                        |
//! |----------------------|--------------------------------------------------|
//! | `unsafe-confinement` | `unsafe` only in `crates/{simd,testalloc}` + `vendor/rayon` |
//! | `wall-clock`         | ambient time/RNG only in real-time modules       |
//! | `panic-hygiene`      | no `.unwrap()`/`.expect`/`panic!` in serving code|
//! | `wire-codes`         | status codes match the committed manifest        |
//! | `deprecated-free`    | no deprecation shims in product code             |
//! | `unreachable-pub`    | every `pub` item is named in some other file     |
//!
//! Run it as `cargo run -p eml-lint -- --check`. Rules analyse a token
//! stream from the in-tree lexer ([`lexer`]) — no `syn`, because the
//! build environment is offline and the policy is no new dependencies.
//! Sanctioned violations live in the allowlist built by
//! [`workspace_allowlist`]; each entry carries a justification, and entries
//! that no longer match anything fail the run (see [`engine`]).
//!
//! Lock order is not among them: it is enforced dynamically, for every
//! pair of locks, by `eml_core::sync::RankedMutex`, which panics on
//! out-of-order acquisition in debug builds.

pub mod engine;
pub mod lexer;
pub mod rules;

use std::io;
use std::path::Path;

use engine::{AllowEntry, Diagnostic, Engine, Rule};
use rules::{
    parse_manifest, DeprecatedFree, PanicHygiene, UnreachablePub, UnsafeConfinement, WallClock,
    WireCodes,
};

/// Relative path of the wire-code manifest within the workspace.
const MANIFEST_PATH: &str = "crates/lint/wire_codes.toml";

/// The production rule set, with the manifest loaded from `root`.
///
/// # Errors
///
/// Fails if the wire-code manifest cannot be read — a missing manifest
/// must fail the run, otherwise deleting it would disable the rule.
fn workspace_rules(root: &Path) -> io::Result<Vec<Box<dyn Rule>>> {
    let manifest_text = std::fs::read_to_string(root.join(MANIFEST_PATH))?;
    Ok(vec![
        Box::new(UnsafeConfinement),
        Box::new(WallClock),
        Box::new(PanicHygiene),
        Box::new(WireCodes {
            error_file: "crates/serve/src/error.rs",
            status_file: "crates/net/src/status.rs",
            manifest: parse_manifest(&manifest_text),
            manifest_path: MANIFEST_PATH.to_string(),
        }),
        Box::new(DeprecatedFree),
        Box::new(UnreachablePub),
    ])
}

/// The sanctioned violations, each with its one-line justification.
/// Keep this list short: every entry is a hole in an invariant.
pub fn workspace_allowlist() -> Vec<AllowEntry> {
    let mut allow = vec![
        // panic-hygiene: deliberate fault injection — the chaos tests
        // exist to kill serving threads on purpose.
        AllowEntry {
            rule: "panic-hygiene",
            path_suffix: "crates/serve/src/fault.rs",
            contains: "panic!(\"injected fault: serving thread crash",
            why: "deliberate chaos-injection crash; supervision is the feature under test",
        },
        AllowEntry {
            rule: "panic-hygiene",
            path_suffix: "crates/serve/src/fault.rs",
            contains: "panic!(\"injected fault: forward panic",
            why: "deliberate chaos-injection panic inside forward()",
        },
        // panic-hygiene: constructor spawn — there is no executor to
        // return an error from if the watchdog thread cannot start.
        AllowEntry {
            rule: "panic-hygiene",
            path_suffix: "crates/serve/src/executor/mod.rs",
            contains: "expect(\"spawn watchdog thread\")",
            why: "Executor::new has no degraded mode without its watchdog",
        },
        // panic-hygiene: constructor spawn of the fixed driver pool —
        // same rationale as the watchdog: an executor without its
        // drivers is not a degraded mode, it is no executor at all.
        AllowEntry {
            rule: "panic-hygiene",
            path_suffix: "crates/serve/src/executor/mod.rs",
            contains: "expect(\"spawn pool driver thread\")",
            why: "Executor::new has no degraded mode without its driver pool",
        },
        // panic-hygiene: statically unreachable length conversion,
        // documented under `# Panics` — payloads are capped at 1 MiB
        // long before a u32 length prefix could overflow.
        AllowEntry {
            rule: "panic-hygiene",
            path_suffix: "crates/net/src/frame.rs",
            contains: "expect(\"payload fits in a u32 length prefix\")",
            why: "unreachable: payloads are capped at 1 MiB; documented # Panics",
        },
        // wall-clock: the executor is the real-time half of the system —
        // deadlines, heartbeats and measured latency are its job. One
        // entry per site that reads the clock (the supervisor, whose
        // every decision is a deadline, gets its file); the public
        // lifecycle surface in `executor/mod.rs` has none.
        AllowEntry {
            rule: "wall-clock",
            path_suffix: "crates/serve/src/executor/ledger.rs",
            contains: "submitted: Instant::now()",
            why: "stamps each request's arrival, the origin of its measured latency",
        },
        AllowEntry {
            rule: "wall-clock",
            path_suffix: "crates/serve/src/executor/sched.rs",
            contains: "epoch: Instant::now()",
            why: "the pool's EDF time origin, read once at construction",
        },
        AllowEntry {
            rule: "wall-clock",
            path_suffix: "crates/serve/src/executor/driver.rs",
            contains: "let t0 = Instant::now();",
            why: "times the forward pass it runs (measured service latency)",
        },
        AllowEntry {
            rule: "wall-clock",
            path_suffix: "crates/serve/src/executor/supervise.rs",
            contains: "",
            why: "restart backoff deadlines are real time",
        },
        AllowEntry {
            rule: "wall-clock",
            path_suffix: "crates/serve/src/fault.rs",
            contains: "let t0 = Instant::now();",
            why: "an injected latency spike burns real CPU time by design",
        },
        // wall-clock: socket deadlines and admission punishment windows
        // are wall-clock by nature.
        AllowEntry {
            rule: "wall-clock",
            path_suffix: "crates/net/src/server.rs",
            contains: "",
            why: "socket read/stall/idle deadlines are real time",
        },
        // panic-hygiene: the testbed is shared test scaffolding (every
        // integration suite builds executors through it); panicking on
        // setup failure is the correct behaviour in that role.
        AllowEntry {
            rule: "panic-hygiene",
            path_suffix: "crates/serve/src/testbed.rs",
            contains: "",
            why: "test scaffolding; setup failures should abort the test loudly",
        },
    ];
    // unreachable-pub: what still reaches each item. Beside
    // `from_base`, each entry is owed a caller by the ROADMAP item it
    // names; until that item lands only the named unit test calls it,
    // and if the item is dropped the entry goes with its test.
    let unreachable_pub: [(&'static str, &'static str, &'static str); 4] = [
        ("crates/platform/src/units.rs", "pub const fn from_base(", "every quantity's macro-generated base constructor; its doctests are `#[doc]` strings the lexer cannot read"),
        ("crates/nn/src/metrics.rs", "pub fn mean_confidence(", "owed a caller by ROADMAP item 16 (per-request confidence for anytime inference); until then only `confidence_in_unit_interval` calls it"),
        ("crates/platform/src/thermal.rs", "pub fn cluster_temp(", "owed a caller by ROADMAP item 10 (temperature on served requests); until then only `cluster_temp_adds_local_self_heating` calls it"),
        ("crates/platform/src/thermal.rs", "pub fn over_limit(", "owed a caller by ROADMAP item 10 (thermal re-plans on served requests); until then only the thermal unit tests call it"),
    ];
    allow.extend(
        unreachable_pub.map(|(path_suffix, contains, why)| AllowEntry {
            rule: "unreachable-pub",
            path_suffix,
            contains,
            why,
        }),
    );
    allow
}

/// Collects sources under `root`, runs the production rules and
/// allowlist, and returns the surviving diagnostics (empty = clean).
///
/// # Errors
///
/// Propagates filesystem errors from source collection or a missing
/// wire-code manifest.
pub fn run_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let files = engine::collect_sources(root)?;
    let engine = Engine::new(workspace_rules(root)?, workspace_allowlist());
    Ok(engine.run(&files))
}
