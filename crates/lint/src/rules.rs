//! The repo-specific rules. Each one enforces an invariant documented
//! in `docs/INVARIANTS.md`; the rule id printed in a diagnostic is the
//! anchor to look up there.

use std::collections::{BTreeMap, BTreeSet};

use crate::engine::{ident_at, int_at, punct_at, Diagnostic, Rule, SourceFile};
use crate::lexer::{Token, TokenKind};

/// `unsafe-confinement`: the `unsafe` keyword may appear only in
/// `crates/simd` (the SIMD micro-kernels, which are the point of the
/// confinement), `crates/testalloc` (the dev-only counting allocator)
/// and `vendor/rayon` (the vendored stand-in). Every other crate must
/// carry `#![forbid(unsafe_code)]` so the compiler, not this tool, is
/// the enforcement of record — this rule is the backstop that notices
/// a *removed* attribute.
pub struct UnsafeConfinement;

const UNSAFE_OK_PREFIXES: [&str; 3] = [
    // The SIMD micro-kernels, which are the point of the confinement.
    "crates/simd/",
    // The dev-only counting allocator's one `unsafe impl GlobalAlloc`;
    // only test binaries link it.
    "crates/testalloc/",
    // The vendored stand-in.
    "vendor/rayon/",
];

impl Rule for UnsafeConfinement {
    fn id(&self) -> &'static str {
        "unsafe-confinement"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if UNSAFE_OK_PREFIXES.iter().any(|p| file.path.starts_with(p)) {
            return;
        }
        for t in &file.tokens {
            if t.is_ident("unsafe") {
                out.push(Diagnostic {
                    rule: self.id(),
                    path: file.path.clone(),
                    line: t.line,
                    message: "`unsafe` outside crates/simd, crates/testalloc and \
                              vendor/rayon; put the unsafe code behind a safe API in \
                              crates/simd"
                        .into(),
                });
            }
        }
    }

    fn check_tree(&self, files: &[SourceFile], out: &mut Vec<Diagnostic>) {
        for file in files {
            let is_crate_root = file.path == "src/lib.rs"
                || (file.path.starts_with("crates/") && file.path.ends_with("/src/lib.rs"));
            if !is_crate_root || UNSAFE_OK_PREFIXES.iter().any(|p| file.path.starts_with(p)) {
                continue;
            }
            let has_forbid = file
                .lines
                .iter()
                .any(|l| l.contains("#![forbid(unsafe_code)]"));
            if !has_forbid {
                out.push(Diagnostic {
                    rule: self.id(),
                    path: file.path.clone(),
                    line: 1,
                    message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
                });
            }
        }
    }
}

/// `wall-clock`: `Instant::now`, `SystemTime::now` and `thread_rng` are
/// forbidden outside an allowlisted set of real-time modules. The
/// chaos-soak and FaultPlan machinery replays schedules
/// bit-reproducibly from seeds; an ambient clock or RNG read anywhere
/// else silently breaks that reproducibility.
pub struct WallClock;

impl Rule for WallClock {
    fn id(&self) -> &'static str {
        "wall-clock"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !(file.path.starts_with("crates/") && file.path.contains("/src/")) {
            return;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.is_test_line(toks[i].line) {
                continue;
            }
            let hit = if (ident_at(toks, i, "Instant") || ident_at(toks, i, "SystemTime"))
                && punct_at(toks, i + 1, ':')
                && punct_at(toks, i + 2, ':')
                && ident_at(toks, i + 3, "now")
            {
                Some(format!("{}::now", toks[i].text))
            } else if ident_at(toks, i, "thread_rng") {
                Some("thread_rng".to_string())
            } else {
                None
            };
            if let Some(what) = hit {
                out.push(Diagnostic {
                    rule: self.id(),
                    path: file.path.clone(),
                    line: toks[i].line,
                    message: format!(
                        "`{what}` outside the allowlisted real-time modules; take the \
                         time or RNG as a parameter so FaultPlan replays stay \
                         bit-reproducible"
                    ),
                });
            }
        }
    }
}

/// `panic-hygiene`: `.unwrap()`, `.expect(…)` and `panic!` are
/// forbidden in non-test code of the serving layer (`eml-serve`,
/// `eml-net`): a panic there kills a supervised thread and burns a
/// restart budget, so fallible paths must return typed errors. Poison
/// recovery is `unwrap_or_else(PoisonError::into_inner)` — a different
/// method name, deliberately not matched. Sanctioned sites (deliberate
/// fault injection, statically unreachable conversions) carry allowlist
/// entries with one-line justifications.
pub struct PanicHygiene;

const PANIC_SCOPE_PREFIXES: [&str; 2] = ["crates/serve/src/", "crates/net/src/"];

impl Rule for PanicHygiene {
    fn id(&self) -> &'static str {
        "panic-hygiene"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !PANIC_SCOPE_PREFIXES
            .iter()
            .any(|p| file.path.starts_with(p))
        {
            return;
        }
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if file.is_test_line(toks[i].line) {
                continue;
            }
            let hit = if ident_at(toks, i, "panic") && punct_at(toks, i + 1, '!') {
                Some("panic!")
            } else if punct_at(toks, i, '.')
                && ident_at(toks, i + 1, "unwrap")
                && punct_at(toks, i + 2, '(')
            {
                Some(".unwrap()")
            } else if punct_at(toks, i, '.')
                && ident_at(toks, i + 1, "expect")
                && punct_at(toks, i + 2, '(')
            {
                Some(".expect(…)")
            } else {
                None
            };
            if let Some(what) = hit {
                out.push(Diagnostic {
                    rule: self.id(),
                    path: file.path.clone(),
                    line: toks[i].line,
                    message: format!(
                        "`{what}` in serving-layer non-test code; a panic here kills a \
                         supervised thread — return a typed error instead"
                    ),
                });
            }
        }
    }
}

/// `wire-codes`: the wire protocol's status codes are append-only. This
/// rule parses the actual `wire_code()` match arms in the serve error
/// type and the `WireStatus` discriminants in the net mirror, and diffs
/// both against the committed manifest (`crates/lint/wire_codes.toml`).
/// Renumbering or deleting a shipped code fails the build; adding one
/// requires touching the manifest in the same change, which makes the
/// append visible in review.
pub struct WireCodes {
    /// Path suffix of the file holding `fn wire_code` (serve errors).
    pub error_file: &'static str,
    /// Path suffix of the file holding `enum WireStatus`.
    pub status_file: &'static str,
    /// Parsed manifest: section → name → code.
    pub manifest: BTreeMap<String, BTreeMap<String, i64>>,
    /// Where the manifest lives, for diagnostics.
    pub manifest_path: String,
}

impl Rule for WireCodes {
    fn id(&self) -> &'static str {
        "wire-codes"
    }

    fn check_file(&self, _: &SourceFile, _: &mut Vec<Diagnostic>) {}

    fn check_tree(&self, files: &[SourceFile], out: &mut Vec<Diagnostic>) {
        let empty = BTreeMap::new();
        if let Some(f) = files.iter().find(|f| f.path.ends_with(self.error_file)) {
            let parsed = parse_wire_code_arms(f);
            self.diff(
                f,
                "serve_error",
                self.manifest.get("serve_error").unwrap_or(&empty),
                &parsed,
                out,
            );
        }
        if let Some(f) = files.iter().find(|f| f.path.ends_with(self.status_file)) {
            let parsed = parse_enum_discriminants(f, "WireStatus");
            self.diff(
                f,
                "wire_status",
                self.manifest.get("wire_status").unwrap_or(&empty),
                &parsed,
                out,
            );
        }
    }
}

impl WireCodes {
    fn diff(
        &self,
        file: &SourceFile,
        section: &str,
        manifest: &BTreeMap<String, i64>,
        code: &BTreeMap<String, (i64, u32)>,
        out: &mut Vec<Diagnostic>,
    ) {
        for (name, &(value, line)) in code {
            match manifest.get(name) {
                None => out.push(Diagnostic {
                    rule: self.id(),
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "wire code {value} for `{name}` is not in {} [{section}]; if this \
                         is a new code, append it to the manifest in the same change",
                        self.manifest_path
                    ),
                }),
                Some(&expected) if expected != value => out.push(Diagnostic {
                    rule: self.id(),
                    path: file.path.clone(),
                    line,
                    message: format!(
                        "wire code for `{name}` changed: manifest says {expected}, code \
                         says {value}; shipped codes are stable — never renumber"
                    ),
                }),
                Some(_) => {}
            }
        }
        for name in manifest.keys() {
            if !code.contains_key(name) {
                out.push(Diagnostic {
                    rule: self.id(),
                    path: file.path.clone(),
                    line: 1,
                    message: format!(
                        "manifest entry `{name}` in [{section}] has no wire code in the \
                         source; shipped codes are stable — never delete or rename"
                    ),
                });
            }
        }
    }
}

/// Parses `Self::Variant { .. } => N` arms inside `fn wire_code`.
/// Returns name → (value, line).
fn parse_wire_code_arms(file: &SourceFile) -> BTreeMap<String, (i64, u32)> {
    let toks = &file.tokens;
    let mut out = BTreeMap::new();
    let Some(start) =
        (0..toks.len()).find(|&i| ident_at(toks, i, "fn") && ident_at(toks, i + 1, "wire_code"))
    else {
        return out;
    };
    // Body of the fn: from its first `{` to the matching `}`.
    let Some(open) = (start..toks.len()).find(|&i| punct_at(toks, i, '{')) else {
        return out;
    };
    let mut depth = 0i32;
    let mut pending: Option<(String, u32)> = None;
    for i in open..toks.len() {
        if punct_at(toks, i, '{') {
            depth += 1;
        } else if punct_at(toks, i, '}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if ident_at(toks, i, "Self")
            && punct_at(toks, i + 1, ':')
            && punct_at(toks, i + 2, ':')
        {
            if let Some(name) = toks.get(i + 3).filter(|t| t.kind == TokenKind::Ident) {
                pending = Some((name.text.clone(), name.line));
            }
        } else if punct_at(toks, i, '=') && punct_at(toks, i + 1, '>') {
            if let (Some((name, line)), Some(value)) = (pending.take(), int_at(toks, i + 2)) {
                out.insert(name, (value, line));
            }
        }
    }
    out
}

/// Parses `Variant = N,` discriminants inside `enum <name>`.
fn parse_enum_discriminants(file: &SourceFile, enum_name: &str) -> BTreeMap<String, (i64, u32)> {
    let toks = &file.tokens;
    let mut out = BTreeMap::new();
    let Some(start) =
        (0..toks.len()).find(|&i| ident_at(toks, i, "enum") && ident_at(toks, i + 1, enum_name))
    else {
        return out;
    };
    let Some(open) = (start..toks.len()).find(|&i| punct_at(toks, i, '{')) else {
        return out;
    };
    let mut depth = 0i32;
    for i in open..toks.len() {
        if punct_at(toks, i, '{') {
            depth += 1;
        } else if punct_at(toks, i, '}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1
            && toks[i].kind == TokenKind::Ident
            && punct_at(toks, i + 1, '=')
            && !punct_at(toks, i + 2, '=')
        {
            if let Some(value) = int_at(toks, i + 2) {
                out.insert(toks[i].text.clone(), (value, toks[i].line));
            }
        }
    }
    out
}

/// Parses the manifest's TOML subset: `[section]` headers, `Name = 42`
/// pairs, `#` comments. That subset is all the manifest needs, and it
/// keeps the tool dependency-free.
pub fn parse_manifest(text: &str) -> BTreeMap<String, BTreeMap<String, i64>> {
    let mut out: BTreeMap<String, BTreeMap<String, i64>> = BTreeMap::new();
    let mut section = String::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_string();
            out.entry(section.clone()).or_default();
        } else if let Some((key, value)) = line.split_once('=') {
            if let Ok(v) = value.trim().parse::<i64>() {
                out.entry(section.clone())
                    .or_default()
                    .insert(key.trim().to_string(), v);
            }
        }
    }
    out
}

/// `unreachable-pub`: a `pub` item of a product crate (`src/`,
/// `crates/*/src/`) must be named, outside `#[cfg(test)]` regions, in
/// some *other* file — another module or crate, `tests/`, `examples/`,
/// the figure benches, the instrument (`benchmark/src`), a doctest — or
/// appear in the signature of a reached `pub` item or in a `pub` field
/// of its own file (a type a reached function returns is reached
/// through it). Anything else is dead or needlessly public, and the
/// compiler says nothing about either once it is `pub`.
///
/// The check is lexical (no name resolution): a name counts wherever
/// it appears as an identifier, except inside a `pub use` re-export
/// (which reaches nothing by itself), at an item's own definition
/// site, or in `vendor/`. So a common method name (`new`, `len`)
/// passes trivially; the rule is a floor, not a proof of reachability.
pub struct UnreachablePub;

/// Keywords whose next identifier is the name being defined.
const DEFINING: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

impl Rule for UnreachablePub {
    fn id(&self) -> &'static str {
        "unreachable-pub"
    }

    fn check_file(&self, _: &SourceFile, _: &mut Vec<Diagnostic>) {}

    fn check_tree(&self, files: &[SourceFile], out: &mut Vec<Diagnostic>) {
        // Name → the first file that uses it, and whether another does.
        // A doctest compiles as a crate of its own, so its names reach
        // from outside every file (index `usize::MAX`).
        let mut uses: BTreeMap<&str, (usize, bool)> = BTreeMap::new();
        for (idx, file) in files.iter().enumerate() {
            if file.path.starts_with("vendor/") {
                continue;
            }
            let docs = &file.doc_tokens;
            let doctests = (0..docs.len())
                .filter(|&i| is_use_site(docs, i))
                .map(|i| (docs[i].text.as_str(), usize::MAX));
            for (name, from) in used_names(file).map(|n| (n, idx)).chain(doctests) {
                uses.entry(name)
                    .and_modify(|(first, many)| *many |= *first != from)
                    .or_insert((from, false));
            }
        }
        for (idx, file) in files.iter().enumerate() {
            let product = file.path.starts_with("src/")
                || (file.path.starts_with("crates/") && file.path.contains("/src/"));
            if !product {
                continue;
            }
            let toks = &file.tokens;
            let mut exposed: BTreeSet<&str> = BTreeSet::new();
            // (at, kind, name index) of each `pub` item; fields only
            // expose the types they name.
            let mut items = Vec::new();
            for i in 0..toks.len() {
                if !toks[i].is_ident("pub") || file.is_test_line(toks[i].line) {
                    continue;
                }
                match pub_item(toks, i) {
                    Some((kind, name_at)) => items.push((i, kind, name_at)),
                    None => exposed.extend(signature_names(toks, i)),
                }
            }
            // An item is reached from another file, or through the
            // signature of a reached item of its own file: iterate to
            // the fixpoint so a type only its own unreached methods
            // name stays unreached.
            let mut reached: Vec<bool> = items
                .iter()
                .map(|&(_, _, name_at)| {
                    uses.get(toks[name_at].text.as_str())
                        .is_some_and(|&(first, many)| many || first != idx)
                })
                .collect();
            let mut grew = true;
            while grew {
                for (&(i, _, _), _) in items.iter().zip(&reached).filter(|(_, &r)| r) {
                    exposed.extend(signature_names(toks, i));
                }
                grew = false;
                for (&(_, _, name_at), r) in items.iter().zip(reached.iter_mut()) {
                    if !*r && exposed.contains(toks[name_at].text.as_str()) {
                        *r = true;
                        grew = true;
                    }
                }
            }
            for (&(i, kind, name_at), _) in items.iter().zip(&reached).filter(|(_, &r)| !r) {
                let name = &toks[name_at].text;
                let lines = item_end(toks, name_at) - toks[i].line + 1;
                out.push(Diagnostic {
                    rule: self.id(),
                    path: file.path.clone(),
                    line: toks[i].line,
                    message: format!(
                        "`pub {kind} {name}` ({lines} lines) is named in no other file \
                         outside #[cfg(test)] and in no public signature of its own; \
                         delete it, make it private, or allowlist it with a justification"
                    ),
                });
            }
        }
    }
}

/// Whether `toks[i]` is an identifier that names something rather than
/// introducing a definition (`fn name`, `struct Name`, …).
fn is_use_site(toks: &[Token], i: usize) -> bool {
    toks[i].kind == TokenKind::Ident && !(i > 0 && DEFINING.iter().any(|k| toks[i - 1].is_ident(k)))
}

/// The identifiers `file` uses, outside its test regions and its
/// `pub use` re-exports.
fn used_names(file: &SourceFile) -> impl Iterator<Item = &str> {
    let toks = &file.tokens;
    let mut in_reexport = false;
    (0..toks.len()).filter_map(move |i| {
        let t = &toks[i];
        if in_reexport {
            in_reexport = !t.is_punct(';');
            return None;
        }
        if file.is_test_line(t.line) || !is_use_site(toks, i) {
            return None;
        }
        if t.text == "use" && i > 0 && (toks[i - 1].is_ident("pub") || toks[i - 1].is_punct(')')) {
            in_reexport = true;
            return None;
        }
        Some(t.text.as_str())
    })
}

/// The names in the signature of the `pub` item or field at `toks[i]`:
/// everything up to its body, its terminating `;`, or (for a field) the
/// `,` or `}` that ends it. An enum's body is all signature: every
/// variant is as public as the enum. A `pub use` has no signature.
fn signature_names(toks: &[Token], i: usize) -> Vec<&str> {
    let mut names = Vec::new();
    if ident_at(toks, i + 1, "use") {
        return names;
    }
    let mut depth = 0i32;
    // Braces are entered (not a stop) only inside an enum's body.
    let mut enum_braces = if ident_at(toks, i + 1, "enum") { 0 } else { -1 };
    for j in i + 1..toks.len() {
        let t = &toks[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ">" if punct_at(toks, j.wrapping_sub(1), '-') => {}
                ")" | "]" | ">" => depth -= 1,
                "{" if enum_braces >= 0 => enum_braces += 1,
                "}" if enum_braces > 0 => {
                    enum_braces -= 1;
                    if enum_braces == 0 {
                        break;
                    }
                }
                "{" | ";" | "," | "}" if depth <= 0 && enum_braces <= 0 => break,
                _ => {}
            }
        } else if is_use_site(toks, j) {
            names.push(t.text.as_str());
        }
    }
    names
}

/// If `toks[i]` (a `pub`) opens an item, its kind and the index of its
/// name. `pub(crate)`-style visibilities, `pub use` and struct fields
/// are not items here.
fn pub_item(toks: &[Token], i: usize) -> Option<(&'static str, usize)> {
    // Step over the qualifiers of `const fn`, `unsafe fn`, `async fn`.
    let mut j = i + 1;
    while ["const", "unsafe", "async"]
        .iter()
        .any(|q| ident_at(toks, j, q))
        && ["fn", "unsafe", "async"]
            .iter()
            .any(|k| ident_at(toks, j + 1, k))
    {
        j += 1;
    }
    let kind = DEFINING.iter().find(|k| ident_at(toks, j, k))?;
    let name_at = j + 1 + usize::from(ident_at(toks, j + 1, "mut"));
    toks.get(name_at)
        .filter(|n| n.kind == TokenKind::Ident)
        .map(|_| (*kind, name_at))
}

/// The last line of the item whose name is at `toks[from]`: its first
/// `;` outside brackets, or the `}` matching its first `{`.
fn item_end(toks: &[Token], from: usize) -> u32 {
    let mut depth = 0i32;
    let mut braces = 0u32;
    for t in &toks[from..] {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth == 0 && braces == 0 => return t.line,
            "{" => braces += 1,
            "}" if braces > 0 => {
                braces -= 1;
                if braces == 0 {
                    return t.line;
                }
            }
            _ => {}
        }
    }
    toks.last().map_or(0, |t| t.line)
}

/// `deprecated-free`: the workspace carries no `#[deprecated]` items
/// and no `#[allow(deprecated)]` escapes. Deprecation shims are retired
/// by deleting them (this repo's PR cadence makes that cheap), not by
/// accumulating attribute noise.
pub struct DeprecatedFree;

impl Rule for DeprecatedFree {
    fn id(&self) -> &'static str {
        "deprecated-free"
    }

    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !(file.path.starts_with("crates/") || file.path.starts_with("src/")) {
            return;
        }
        for t in &file.tokens {
            if t.is_ident("deprecated") {
                out.push(Diagnostic {
                    rule: self.id(),
                    path: file.path.clone(),
                    line: t.line,
                    message: "`deprecated` attribute or allow in product code; delete \
                              retired APIs instead of shimming them"
                        .into(),
                });
            }
        }
    }
}
