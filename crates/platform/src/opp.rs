//! Operating performance points (OPPs): the discrete (frequency, voltage)
//! pairs a DVFS domain can run at.
//!
//! Every cluster owns an [`OppTable`], sorted ascending by frequency. The
//! runtime manager treats the OPP index as a *device knob* (paper, Fig 5);
//! the power model uses the voltage column to interpolate between measured
//! anchors in `V²·f` space.

use std::fmt;

use crate::error::{PlatformError, Result};
use crate::units::{Freq, Voltage};

/// A single operating performance point: a frequency and the supply voltage
/// the domain requires to sustain it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opp {
    freq: Freq,
    voltage: Voltage,
}

impl Opp {
    /// Creates an OPP from a frequency and voltage.
    pub fn new(freq: Freq, voltage: Voltage) -> Self {
        Self { freq, voltage }
    }

    /// The OPP's clock frequency.
    pub fn freq(self) -> Freq {
        self.freq
    }

    /// The OPP's supply voltage.
    pub fn voltage(self) -> Voltage {
        self.voltage
    }

    /// The `V²·f` product (GHz-normalised), the abscissa used for power
    /// interpolation between measured anchors.
    #[cfg(test)]
    pub(crate) fn v2f(self) -> f64 {
        self.voltage.squared_times(self.freq)
    }
}

impl fmt::Display for Opp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} MHz @ {:.4} V",
            self.freq.as_mhz(),
            self.voltage.as_volts()
        )
    }
}

/// An ordered table of OPPs for one DVFS domain.
///
/// Invariants (enforced at construction):
/// - non-empty,
/// - strictly increasing in frequency,
/// - non-decreasing in voltage (higher frequency never needs *less* voltage).
///
/// # Examples
///
/// ```
/// use eml_platform::opp::OppTable;
/// use eml_platform::units::{Freq, Voltage};
///
/// let table = OppTable::from_mhz_mv(&[(200.0, 900.0), (400.0, 950.0)]).unwrap();
/// assert_eq!(table.len(), 2);
/// assert_eq!(table.max_freq(), Freq::from_mhz(400.0));
/// assert_eq!(table.get(0).unwrap().voltage(), Voltage::from_millivolts(900.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OppTable {
    opps: Vec<Opp>,
}

impl OppTable {
    /// Builds a table from `(frequency, voltage)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidModel`] if the table is empty, if
    /// frequencies are not strictly increasing, or if voltage decreases with
    /// frequency.
    pub fn new(opps: Vec<Opp>) -> Result<Self> {
        if opps.is_empty() {
            return Err(PlatformError::InvalidModel {
                reason: "OPP table must contain at least one point".into(),
            });
        }
        for pair in opps.windows(2) {
            if pair[1].freq() <= pair[0].freq() {
                return Err(PlatformError::InvalidModel {
                    reason: format!(
                        "OPP frequencies must be strictly increasing ({} then {})",
                        pair[0], pair[1]
                    ),
                });
            }
            if pair[1].voltage() < pair[0].voltage() {
                return Err(PlatformError::InvalidModel {
                    reason: format!(
                        "OPP voltage must be non-decreasing with frequency ({} then {})",
                        pair[0], pair[1]
                    ),
                });
            }
        }
        Ok(Self { opps })
    }

    /// Convenience constructor from `(MHz, mV)` pairs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OppTable::new`].
    pub fn from_mhz_mv(points: &[(f64, f64)]) -> Result<Self> {
        Self::new(
            points
                .iter()
                .map(|&(mhz, mv)| Opp::new(Freq::from_mhz(mhz), Voltage::from_millivolts(mv)))
                .collect(),
        )
    }

    /// Number of OPPs in the table.
    pub fn len(&self) -> usize {
        self.opps.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.opps.is_empty()
    }

    /// Returns the OPP at `index`, if in range.
    pub fn get(&self, index: usize) -> Option<Opp> {
        self.opps.get(index).copied()
    }

    /// The lowest-frequency OPP.
    fn min_opp(&self) -> Opp {
        self.opps[0]
    }

    /// The highest-frequency OPP.
    pub(crate) fn max_opp(&self) -> Opp {
        *self.opps.last().expect("table is non-empty by invariant")
    }

    /// The lowest supported frequency.
    fn min_freq(&self) -> Freq {
        self.min_opp().freq()
    }

    /// The highest supported frequency.
    pub fn max_freq(&self) -> Freq {
        self.max_opp().freq()
    }

    /// Iterates over the OPPs in ascending frequency order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Opp> + '_ {
        self.opps.iter().copied()
    }

    /// Finds the index of the OPP with exactly this frequency (to within
    /// 0.5 MHz, absorbing floating-point noise in MHz-level tables).
    pub fn index_of(&self, freq: Freq) -> Option<usize> {
        self.opps
            .iter()
            .position(|o| (o.freq().as_mhz() - freq.as_mhz()).abs() < 0.5)
    }

    /// Returns the voltage the domain needs at `freq`.
    ///
    /// Exact-match OPPs return their table voltage; other frequencies within
    /// range are linearly interpolated, and out-of-range frequencies clamp to
    /// the end points. Interpolation supports power prediction at anchor
    /// frequencies that are not table entries.
    pub fn voltage_at(&self, freq: Freq) -> Voltage {
        let f = freq.as_mhz();
        if f <= self.min_freq().as_mhz() {
            return self.min_opp().voltage();
        }
        if f >= self.max_freq().as_mhz() {
            return self.max_opp().voltage();
        }
        // Find the bracketing pair and interpolate linearly in frequency.
        for pair in self.opps.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            if f >= lo.freq().as_mhz() && f <= hi.freq().as_mhz() {
                let span = hi.freq().as_mhz() - lo.freq().as_mhz();
                let t = if span > 0.0 {
                    (f - lo.freq().as_mhz()) / span
                } else {
                    0.0
                };
                let v = lo.voltage().as_volts()
                    + t * (hi.voltage().as_volts() - lo.voltage().as_volts());
                return Voltage::from_volts(v);
            }
        }
        unreachable!("frequency within [min, max] must be bracketed")
    }

    /// Returns the index of the slowest OPP whose frequency is at least
    /// `freq`, or `None` if even the fastest OPP is slower.
    ///
    /// This is the "minimum frequency that can meet a deadline" lookup used
    /// by DVFS governors.
    pub fn ceil_index(&self, freq: Freq) -> Option<usize> {
        self.opps.iter().position(|o| o.freq() >= freq)
    }

    /// Returns the index of the fastest OPP whose frequency is at most
    /// `freq`, or `None` if even the slowest OPP is faster.
    pub fn floor_index(&self, freq: Freq) -> Option<usize> {
        self.opps.iter().rposition(|o| o.freq() <= freq)
    }
}

impl<'a> IntoIterator for &'a OppTable {
    type Item = Opp;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Opp>>;

    fn into_iter(self) -> Self::IntoIter {
        self.opps.iter().copied()
    }
}

/// Builds the evenly spaced `(MHz, mV)` grid used by the XU3-style presets:
/// `count` points from `start_mhz` in steps of `step_mhz`, with voltages
/// linearly interpolated through the supplied `(MHz, mV)` key points.
///
/// # Panics
///
/// Panics if `count == 0` or `keys` is empty (programmer error in a preset).
pub fn grid_with_voltage_keys(
    start_mhz: f64,
    step_mhz: f64,
    count: usize,
    keys: &[(f64, f64)],
) -> Vec<(f64, f64)> {
    assert!(count > 0 && !keys.is_empty());
    (0..count)
        .map(|i| {
            let f = start_mhz + step_mhz * i as f64;
            let v = interp_keys(f, keys);
            (f, v)
        })
        .collect()
}

fn interp_keys(f: f64, keys: &[(f64, f64)]) -> f64 {
    if f <= keys[0].0 {
        return keys[0].1;
    }
    if f >= keys[keys.len() - 1].0 {
        return keys[keys.len() - 1].1;
    }
    for pair in keys.windows(2) {
        let (f0, v0) = pair[0];
        let (f1, v1) = pair[1];
        if f >= f0 && f <= f1 {
            let t = (f - f0) / (f1 - f0);
            return v0 + t * (v1 - v0);
        }
    }
    keys[keys.len() - 1].1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> OppTable {
        OppTable::from_mhz_mv(&[
            (200.0, 900.0),
            (600.0, 950.0),
            (1000.0, 1025.0),
            (1800.0, 1225.0),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_empty_table() {
        assert!(matches!(
            OppTable::new(vec![]),
            Err(PlatformError::InvalidModel { .. })
        ));
    }

    #[test]
    fn rejects_non_increasing_frequency() {
        let err = OppTable::from_mhz_mv(&[(400.0, 900.0), (400.0, 950.0)]);
        assert!(err.is_err());
        let err = OppTable::from_mhz_mv(&[(400.0, 900.0), (300.0, 950.0)]);
        assert!(err.is_err());
    }

    #[test]
    fn rejects_decreasing_voltage() {
        let err = OppTable::from_mhz_mv(&[(200.0, 950.0), (400.0, 900.0)]);
        assert!(err.is_err());
    }

    #[test]
    fn min_max_and_get() {
        let t = table();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.min_freq(), Freq::from_mhz(200.0));
        assert_eq!(t.max_freq(), Freq::from_mhz(1800.0));
        assert_eq!(t.get(1).unwrap().freq(), Freq::from_mhz(600.0));
        assert!(t.get(9).is_none());
    }

    #[test]
    fn index_of_tolerates_float_noise() {
        let t = table();
        assert_eq!(t.index_of(Freq::from_mhz(1000.0001)), Some(2));
        assert_eq!(t.index_of(Freq::from_mhz(1234.0)), None);
    }

    #[test]
    fn voltage_interpolation_at_and_between_points() {
        let t = table();
        assert_eq!(t.voltage_at(Freq::from_mhz(200.0)).as_volts(), 0.9);
        // Midpoint of 600 (0.95) and 1000 (1.025).
        let v = t.voltage_at(Freq::from_mhz(800.0)).as_volts();
        assert!((v - 0.9875).abs() < 1e-9);
        // Clamped outside range.
        assert_eq!(t.voltage_at(Freq::from_mhz(50.0)).as_volts(), 0.9);
        assert_eq!(t.voltage_at(Freq::from_mhz(2500.0)).as_volts(), 1.225);
    }

    #[test]
    fn ceil_and_floor_index() {
        let t = table();
        assert_eq!(t.ceil_index(Freq::from_mhz(700.0)), Some(2));
        assert_eq!(t.ceil_index(Freq::from_mhz(200.0)), Some(0));
        assert_eq!(t.ceil_index(Freq::from_mhz(2000.0)), None);
        assert_eq!(t.floor_index(Freq::from_mhz(700.0)), Some(1));
        assert_eq!(t.floor_index(Freq::from_mhz(1800.0)), Some(3));
        assert_eq!(t.floor_index(Freq::from_mhz(100.0)), None);
    }

    #[test]
    fn v2f_is_monotone_over_table() {
        let t = table();
        let v2fs: Vec<f64> = t.iter().map(Opp::v2f).collect();
        assert!(v2fs.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn grid_builder_produces_expected_points() {
        let grid = grid_with_voltage_keys(200.0, 100.0, 5, &[(200.0, 900.0), (600.0, 1000.0)]);
        assert_eq!(grid.len(), 5);
        assert_eq!(grid[0], (200.0, 900.0));
        assert_eq!(grid[4], (600.0, 1000.0));
        // Linear in between.
        assert!((grid[2].1 - 950.0).abs() < 1e-9);
    }

    #[test]
    fn into_iterator_for_reference() {
        let t = table();
        let count = (&t).into_iter().count();
        assert_eq!(count, 4);
    }
}
