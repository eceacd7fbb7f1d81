#![forbid(unsafe_code)]
//! Shared helpers for the table/figure regenerators in `benches/`.
//!
//! Each `harness = false` bench target reproduces one table or figure of
//! the paper and prints a paper-vs-measured comparison. These helpers keep
//! the output format consistent across targets.

/// Relative error of `measured` against `reference`, in percent.
pub fn rel_err_percent(measured: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        return if measured == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (measured - reference).abs() / reference.abs() * 100.0
}

/// Prints a banner naming the experiment.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Prints a `PASS`/`FAIL` verdict line and returns whether it passed.
pub fn verdict(label: &str, ok: bool) -> bool {
    println!("[{}] {label}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// Simple fixed-width row printer.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Aggregates verdicts and panics at the end if any failed, so `cargo
/// bench` fails loudly when a reproduction regresses.
#[derive(Debug, Default)]
pub struct Verdicts {
    total: usize,
    failed: usize,
}

impl Verdicts {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one verdict (also prints it).
    pub fn check(&mut self, label: &str, ok: bool) {
        verdict(label, ok);
        self.total += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Prints the summary and panics if anything failed.
    ///
    /// # Panics
    ///
    /// Panics when at least one verdict failed — this makes
    /// `cargo bench` exit non-zero on a reproduction regression.
    pub fn finish(self, experiment: &str) {
        println!(
            "\n{}: {}/{} checks passed",
            experiment,
            self.total - self.failed,
            self.total
        );
        assert_eq!(
            self.failed, 0,
            "{experiment}: {} checks failed",
            self.failed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_basics() {
        assert_eq!(rel_err_percent(110.0, 100.0), 10.0);
        assert_eq!(rel_err_percent(90.0, 100.0), 10.0);
        assert_eq!(rel_err_percent(0.0, 0.0), 0.0);
        assert_eq!(rel_err_percent(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn row_is_right_aligned() {
        let s = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(s, "  a   bb");
    }

    #[test]
    fn verdicts_pass_when_all_ok() {
        let mut v = Verdicts::new();
        v.check("x", true);
        v.finish("test");
    }

    #[test]
    #[should_panic(expected = "1 checks failed")]
    fn verdicts_panic_on_failure() {
        let mut v = Verdicts::new();
        v.check("x", false);
        v.finish("test");
    }
}
