//! Fixture-driven rule tests: each known-bad snippet in
//! `tests/fixtures/` must produce exactly the expected diagnostic —
//! and nothing else. Fixtures are lexed under impersonated workspace
//! paths so the rules' path scoping applies; they are never compiled.

use eml_lint::engine::{Diagnostic, Engine, Rule, SourceFile};
use eml_lint::rules::{
    parse_manifest, DeprecatedFree, PanicHygiene, UnreachablePub, UnsafeConfinement, WallClock,
    WireCodes,
};

fn run_rule(rule: Box<dyn Rule>, files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut engine = Engine::new(vec![rule], Vec::new());
    engine.check_stale = false;
    engine.run(files)
}

#[test]
fn unsafe_confinement_flags_unsafe_in_a_product_crate() {
    let files = vec![SourceFile::from_source(
        "crates/nn/src/bad.rs",
        include_str!("fixtures/unsafe_confinement.rs"),
    )];
    let diags = run_rule(Box::new(UnsafeConfinement), &files);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "unsafe-confinement");
    assert_eq!(diags[0].line, 6);
    assert!(diags[0].message.contains("crates/simd"));
}

#[test]
fn unsafe_confinement_allows_the_simd_crate_but_requires_forbid_elsewhere() {
    let files = vec![
        SourceFile::from_source(
            "crates/simd/src/kernel.rs",
            include_str!("fixtures/unsafe_confinement.rs"),
        ),
        // A crate root without the forbid attribute.
        SourceFile::from_source("crates/nn/src/lib.rs", "pub fn f() {}\n"),
    ];
    let diags = run_rule(Box::new(UnsafeConfinement), &files);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].path, "crates/nn/src/lib.rs");
    assert!(diags[0].message.contains("#![forbid(unsafe_code)]"));
}

#[test]
fn wall_clock_flags_ambient_time_but_not_tests() {
    let files = vec![SourceFile::from_source(
        "crates/sim/src/bad.rs",
        include_str!("fixtures/wall_clock.rs"),
    )];
    let diags = run_rule(Box::new(WallClock), &files);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "wall-clock");
    assert_eq!(diags[0].line, 4);
    assert!(diags[0].message.contains("Instant::now"));
}

#[test]
fn panic_hygiene_flags_unwrap_but_not_poison_recovery_or_tests() {
    let files = vec![SourceFile::from_source(
        "crates/serve/src/bad.rs",
        include_str!("fixtures/panic_hygiene.rs"),
    )];
    let diags = run_rule(Box::new(PanicHygiene), &files);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "panic-hygiene");
    assert_eq!(diags[0].line, 6);
    assert!(diags[0].message.contains(".unwrap()"));
}

#[test]
fn panic_hygiene_ignores_crates_outside_the_serving_layer() {
    let files = vec![SourceFile::from_source(
        "crates/nn/src/fine.rs",
        include_str!("fixtures/panic_hygiene.rs"),
    )];
    assert!(run_rule(Box::new(PanicHygiene), &files).is_empty());
}

#[test]
fn wire_codes_flags_renumbering_additions_and_removals() {
    let manifest = parse_manifest(
        "[serve_error]\nQueueFull = 1\nUnknownApp = 3\n\
         [wire_status]\nOk = 0\nQueueFull = 1\nRemoved = 9\n",
    );
    let rule = WireCodes {
        error_file: "crates/serve/src/error.rs",
        status_file: "crates/net/src/status.rs",
        manifest,
        manifest_path: "wire_codes.toml".to_string(),
    };
    let files = vec![
        SourceFile::from_source(
            "crates/serve/src/error.rs",
            include_str!("fixtures/wire_codes.rs"),
        ),
        SourceFile::from_source(
            "crates/net/src/status.rs",
            include_str!("fixtures/wire_status.rs"),
        ),
    ];
    let diags = run_rule(Box::new(rule), &files);
    let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(diags.len(), 3, "{diags:?}");
    // QueueFull renumbered 1 -> 2.
    assert!(
        msgs.iter()
            .any(|m| m.contains("`QueueFull`") && m.contains("manifest says 1, code says 2")),
        "{msgs:?}"
    );
    // BrandNew added without a manifest entry.
    assert!(
        msgs.iter()
            .any(|m| m.contains("`BrandNew`") && m.contains("append it to the manifest")),
        "{msgs:?}"
    );
    // Removed deleted from the enum but still in the manifest.
    assert!(
        msgs.iter()
            .any(|m| m.contains("`Removed`") && m.contains("never delete")),
        "{msgs:?}"
    );
    // UnknownApp matches (3 == 3): no fourth diagnostic, proven by the
    // length assertion above.
}

#[test]
fn deprecated_free_flags_the_attribute() {
    let files = vec![SourceFile::from_source(
        "crates/serve/src/bad.rs",
        include_str!("fixtures/deprecated.rs"),
    )];
    let diags = run_rule(Box::new(DeprecatedFree), &files);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "deprecated-free");
    assert_eq!(diags[0].line, 3);
}

#[test]
fn unreachable_pub_flags_items_no_other_file_names() {
    let files = vec![
        SourceFile::from_source(
            "crates/x/src/lib.rs",
            include_str!("fixtures/unreachable_pub.rs"),
        ),
        SourceFile::from_source(
            "crates/y/src/user.rs",
            include_str!("fixtures/unreachable_pub_user.rs"),
        ),
    ];
    let diags = run_rule(Box::new(UnreachablePub), &files);
    let flagged: Vec<(u32, &str)> = diags
        .iter()
        .map(|d| (d.line, d.message.split('`').nth(1).unwrap_or("")))
        .collect();
    // A re-export, a test-only use, a same-named definition elsewhere
    // and a `text` block reach nothing; a type only its own unreached
    // method returns stays unreached; a type a reached function
    // returns, or a doctest names, is reached.
    assert_eq!(
        flagged,
        vec![
            (5, "pub enum Unreached"),
            (17, "pub struct SelfNamed"),
            (20, "pub fn same"),
            (37, "pub struct TextOnly"),
        ],
        "{diags:?}"
    );
    assert!(diags.iter().all(|d| d.path == "crates/x/src/lib.rs"));
}

#[test]
fn allowlist_suppresses_exactly_the_sanctioned_line() {
    use eml_lint::engine::AllowEntry;
    let files = vec![SourceFile::from_source(
        "crates/serve/src/bad.rs",
        include_str!("fixtures/panic_hygiene.rs"),
    )];
    let allow = vec![AllowEntry {
        rule: "panic-hygiene",
        path_suffix: "crates/serve/src/bad.rs",
        contains: "v.unwrap()",
        why: "fixture sanction",
    }];
    let mut engine = Engine::new(vec![Box::new(PanicHygiene)], allow);
    engine.check_stale = false;
    assert!(engine.run(&files).is_empty());
}
