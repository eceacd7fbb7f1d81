//! The rule engine: source collection, `#[cfg(test)]` region
//! detection, allowlist filtering and stale-entry accounting.
//!
//! A rule sees a [`SourceFile`] (path + raw lines + token stream) and
//! emits [`Diagnostic`]s. The engine owns the allowlists: rules report
//! every violation they find, and the engine suppresses the ones the
//! repo has explicitly sanctioned. Allowlist entries are keyed by path
//! suffix plus a line-text substring — not a line *number* — so they
//! survive unrelated edits above the sanctioned site; an entry that no
//! longer matches anything is itself an error (in whole-workspace
//! runs), so the list cannot silently rot.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use crate::lexer::{self, Token, TokenKind};

/// One lexed source file, as rules see it.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the lint root, with forward slashes.
    pub path: String,
    /// Raw source lines (for allowlist `contains` matching).
    pub lines: Vec<String>,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    pub test_ranges: Vec<(u32, u32)>,
    /// The tokens of the doctests in its `///` and `//!` comments
    /// (fenced blocks rustdoc compiles), which `tokens` cannot see.
    pub doc_tokens: Vec<Token>,
}

impl SourceFile {
    /// Builds a source file from raw text (the path is caller-supplied,
    /// which is what lets fixtures impersonate any workspace location).
    pub fn from_source(path: &str, src: &str) -> Self {
        let tokens = lexer::lex(src);
        let test_ranges = find_test_ranges(&tokens);
        Self {
            path: path.to_string(),
            lines: src.lines().map(str::to_string).collect(),
            tokens,
            test_ranges,
            doc_tokens: doctest_tokens(src),
        }
    }

    /// Whether a 1-based line falls inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// The raw text of a 1-based line (empty if out of range).
    fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map_or("", String::as_str)
    }
}

/// One finding. Formatting is `rule: path:line: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The id of the rule that produced this (stable, kebab-case).
    pub rule: &'static str,
    /// Path relative to the lint root.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation, including what to do about it.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.rule, self.path, self.line, self.message
        )
    }
}

/// A sanctioned violation. Matches a diagnostic when `path_suffix`
/// suffix-matches its path and `contains` (if non-empty) is a substring
/// of the flagged source line. An empty `contains` sanctions the whole
/// file for that rule — used for module-level grants such as the
/// wall-clock rule's real-time modules.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule this entry applies to.
    pub rule: &'static str,
    /// Path suffix, e.g. `crates/serve/src/executor.rs`.
    pub path_suffix: &'static str,
    /// Substring the flagged line must contain; empty = any line.
    pub contains: &'static str,
    /// One-line justification, printed with `--explain-allow`.
    pub why: &'static str,
}

/// A rule: an id plus per-file and whole-tree checks.
pub trait Rule {
    /// Stable kebab-case id, used in output and allowlist keys.
    fn id(&self) -> &'static str;
    /// Per-file check; push findings onto `out`.
    fn check_file(&self, file: &SourceFile, out: &mut Vec<Diagnostic>);
    /// Whole-tree check (crate-level attributes, manifest diffs).
    fn check_tree(&self, files: &[SourceFile], out: &mut Vec<Diagnostic>) {
        let _ = (files, out);
    }
}

/// The engine: rules + allowlist + policy knobs.
pub struct Engine {
    rules: Vec<Box<dyn Rule>>,
    allow: Vec<AllowEntry>,
    /// Report allowlist entries that matched nothing. On for
    /// whole-workspace runs, off for fixture tests (which check one
    /// file at a time and would see every other entry as stale).
    pub check_stale: bool,
}

impl Engine {
    /// Builds an engine over the given rules and allowlist.
    pub fn new(rules: Vec<Box<dyn Rule>>, allow: Vec<AllowEntry>) -> Self {
        Self {
            rules,
            allow,
            check_stale: true,
        }
    }

    /// Runs every rule over every file, filters through the allowlist,
    /// and (when `check_stale`) reports entries that matched nothing.
    pub fn run(&self, files: &[SourceFile]) -> Vec<Diagnostic> {
        let mut raw = Vec::new();
        for rule in &self.rules {
            for file in files {
                rule.check_file(file, &mut raw);
            }
            rule.check_tree(files, &mut raw);
        }

        let by_path: BTreeMap<&str, &SourceFile> =
            files.iter().map(|f| (f.path.as_str(), f)).collect();
        let mut used = vec![false; self.allow.len()];
        let mut out = Vec::new();
        for d in raw {
            let line_text = by_path
                .get(d.path.as_str())
                .map_or("", |f| f.line_text(d.line));
            let sanctioned = self.allow.iter().enumerate().find(|(_, a)| {
                a.rule == d.rule
                    && d.path.ends_with(a.path_suffix)
                    && (a.contains.is_empty() || line_text.contains(a.contains))
            });
            match sanctioned {
                Some((idx, _)) => used[idx] = true,
                None => out.push(d),
            }
        }

        if self.check_stale {
            for (a, _) in self.allow.iter().zip(&used).filter(|&(_, &u)| !u) {
                out.push(Diagnostic {
                    rule: "stale-allowlist",
                    path: a.path_suffix.to_string(),
                    line: 0,
                    message: format!(
                        "allowlist entry for rule `{}` (contains: {:?}) matched nothing — \
                         the sanctioned site is gone; delete the entry",
                        a.rule, a.contains
                    ),
                });
            }
        }

        out.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
        });
        out
    }
}

/// Recursively collects and lexes every `.rs` file under `root`,
/// skipping build output (`target`, and hidden directories such as the
/// benchmark's `.bench_build` and `.git`) and the lint fixtures (which
/// are violations on purpose).
///
/// # Errors
///
/// Propagates filesystem errors (unreadable directories or files).
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || name == "fixtures" {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = fs::read_to_string(&path)?;
            out.push(SourceFile::from_source(&rel, &src));
        }
    }
    Ok(())
}

/// Lexes the code of every doctest in `src`: the lines of a fenced
/// block in `///` or `//!` comments whose info string rustdoc compiles
/// (empty, `rust`, `no_run`, `should_panic`), each token carrying its
/// real line.
fn doctest_tokens(src: &str) -> Vec<Token> {
    let mut out = Vec::new();
    // Inside a fenced block: whether rustdoc compiles it.
    let mut fence: Option<bool> = None;
    for (n, line) in src.lines().enumerate() {
        let trimmed = line.trim_start();
        let Some(doc) = trimmed
            .strip_prefix("///")
            .or_else(|| trimmed.strip_prefix("//!"))
        else {
            continue;
        };
        let doc = doc.trim_start();
        if let Some(info) = doc.strip_prefix("```") {
            fence = match fence {
                Some(_) => None,
                None => Some(
                    info.split(',')
                        .all(|a| matches!(a.trim(), "" | "rust" | "no_run" | "should_panic")),
                ),
            };
        } else if fence == Some(true) {
            let code = doc.strip_prefix('#').unwrap_or(doc);
            out.extend(lexer::lex(code).into_iter().map(|mut t| {
                t.line = n as u32 + 1;
                t
            }));
        }
    }
    out
}

/// Finds the line ranges of items gated by `#[cfg(test)]`: after the
/// attribute, the gated item runs to the matching `}` of its first
/// brace (a `mod tests { … }`, a gated `fn`) or to the first `;` if no
/// brace opens first (a gated `use`).
fn find_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            let start = tokens[i].line;
            let mut j = i + 7; // past `#` `[` `cfg` `(` `test` `)` `]`
            let mut end = start;
            while j < tokens.len() {
                if tokens[j].is_punct(';') {
                    end = tokens[j].line;
                    break;
                }
                if tokens[j].is_punct('{') {
                    let mut depth = 1u32;
                    j += 1;
                    while j < tokens.len() && depth > 0 {
                        if tokens[j].is_punct('{') {
                            depth += 1;
                        } else if tokens[j].is_punct('}') {
                            depth -= 1;
                        }
                        end = tokens[j].line;
                        j += 1;
                    }
                    break;
                }
                end = tokens[j].line;
                j += 1;
            }
            ranges.push((start, end));
            i = j;
        }
        i += 1;
    }
    ranges
}

fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    let Some(window) = tokens.get(i..i + 7) else {
        return false;
    };
    window[0].is_punct('#')
        && window[1].is_punct('[')
        && window[2].is_ident("cfg")
        && window[3].is_punct('(')
        && window[4].is_ident("test")
        && window[5].is_punct(')')
        && window[6].is_punct(']')
}

// Re-export so rules can name token kinds without a second import path.
pub use lexer::TokenKind as Kind;

/// Convenience: true if `tokens[i]` exists and is an ident equal to `s`.
pub fn ident_at(tokens: &[Token], i: usize, s: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.is_ident(s))
}

/// Convenience: true if `tokens[i]` exists and is the punct `c`.
pub fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    tokens.get(i).is_some_and(|t| t.is_punct(c))
}

/// Convenience: the numeric value at `tokens[i]`, if it is an integer
/// literal (underscores stripped; decimal or `0x` hex).
pub fn int_at(tokens: &[Token], i: usize) -> Option<i64> {
    let t = tokens.get(i)?;
    if t.kind != TokenKind::Number {
        return None;
    }
    let text: String = t.text.chars().filter(|&c| c != '_').collect();
    if let Some(hex) = text.strip_prefix("0x") {
        let digits: String = hex.chars().take_while(char::is_ascii_hexdigit).collect();
        i64::from_str_radix(&digits, 16).ok()
    } else {
        // Stop at a type suffix (`42u8`).
        let digits: String = text.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_module_lines_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = SourceFile::from_source("x.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_test_use_statement_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let f = SourceFile::from_source("x.rs", src);
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn doctest_code_is_lexed_but_other_blocks_are_not() {
        let src = "/// ```\n/// # use a::Hidden;\n/// let v = Shown::new();\n/// ```\n\
                   //! ```text\n//! Diagram\n//! ```\nfn f() {}\n";
        let f = SourceFile::from_source("x.rs", src);
        let names: Vec<(&str, u32)> = f
            .doc_tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| (t.text.as_str(), t.line))
            .collect();
        assert_eq!(
            names,
            vec![
                ("use", 2),
                ("a", 2),
                ("Hidden", 2),
                ("let", 3),
                ("v", 3),
                ("Shown", 3),
                ("new", 3)
            ]
        );
        assert!(!f.tokens.iter().any(|t| t.is_ident("Shown")));
    }

    #[test]
    fn stale_allowlist_entries_are_reported_only_when_asked() {
        struct Silent;
        impl Rule for Silent {
            fn id(&self) -> &'static str {
                "silent"
            }
            fn check_file(&self, _: &SourceFile, _: &mut Vec<Diagnostic>) {}
        }
        let allow = vec![AllowEntry {
            rule: "silent",
            path_suffix: "nowhere.rs",
            contains: "gone",
            why: "test",
        }];
        let files = vec![SourceFile::from_source("a.rs", "fn f() {}")];

        let mut engine = Engine::new(vec![Box::new(Silent)], allow);
        let diags = engine.run(&files);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "stale-allowlist");

        engine.check_stale = false;
        assert!(engine.run(&files).is_empty());
    }

    #[test]
    fn int_at_parses_decimal_hex_and_suffixed() {
        let toks = crate::lexer::lex("11 0x1F 42u8 1_000");
        assert_eq!(int_at(&toks, 0), Some(11));
        assert_eq!(int_at(&toks, 1), Some(0x1F));
        assert_eq!(int_at(&toks, 2), Some(42));
        assert_eq!(int_at(&toks, 3), Some(1000));
    }
}
