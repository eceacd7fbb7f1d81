//! Typed physical quantities used throughout the platform model.
//!
//! All platform-facing APIs trade in these newtypes rather than bare `f64`s
//! so that a frequency can never be passed where a voltage is expected
//! (C-NEWTYPE). Each type wraps an `f64` in SI base units and provides
//! domain-appropriate constructors and accessors.
//!
//! Arithmetic is implemented only where it is physically meaningful:
//! `Power * TimeSpan = Energy`, `Energy / TimeSpan = Power`, and so on.
//!
//! # Examples
//!
//! ```
//! use eml_platform::units::{Freq, Power, TimeSpan};
//!
//! let f = Freq::from_mhz(900.0);
//! assert_eq!(f.as_ghz(), 0.9);
//!
//! let e = Power::from_milliwatts(192.6) * TimeSpan::from_millis(397.0);
//! assert!((e.as_millijoules() - 76.46).abs() < 0.1);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Implements the shared boilerplate for an `f64`-backed quantity newtype.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero value of this quantity.
            pub const ZERO: Self = Self(0.0);

            /// Returns the raw value in SI base units.
            #[inline]
            pub const fn as_base(self) -> f64 {
                self.0
            }

            /// Creates a value from SI base units.
            ///
            /// # Examples
            ///
            /// ```
            /// # use eml_platform::units::*;
            #[doc = concat!("let q = ", stringify!($name), "::from_base(1.5);")]
            /// assert_eq!(q.as_base(), 1.5);
            /// ```
            #[inline]
            pub const fn from_base(value: f64) -> Self {
                Self(value)
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the smaller of two quantities.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Clamps the value into `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }
    };
}

quantity!(
    /// Clock frequency, stored in hertz.
    Freq,
    "Hz"
);
quantity!(
    /// Electrical potential, stored in volts.
    Voltage,
    "V"
);
quantity!(
    /// Instantaneous power, stored in watts.
    Power,
    "W"
);
quantity!(
    /// Energy, stored in joules.
    Energy,
    "J"
);
quantity!(
    /// A span of simulated time, stored in seconds.
    ///
    /// A dedicated type (rather than [`std::time::Duration`]) keeps the
    /// platform math in plain `f64` seconds and permits the negative
    /// intermediate values that arise in interpolation.
    TimeSpan,
    "s"
);
quantity!(
    /// Temperature, stored in degrees Celsius.
    ///
    /// The platform model only ever deals in temperature *differences*
    /// relative to ambient plus an ambient offset, so Celsius is used
    /// directly rather than Kelvin.
    Celsius,
    "°C"
);

impl Freq {
    /// Creates a frequency from megahertz.
    #[inline]
    pub fn from_mhz(mhz: f64) -> Self {
        Self::from_base(mhz * 1.0e6)
    }

    /// Creates a frequency from gigahertz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Self::from_base(ghz * 1.0e9)
    }

    /// Returns the frequency in megahertz.
    #[inline]
    pub fn as_mhz(self) -> f64 {
        self.as_base() / 1.0e6
    }

    /// Returns the frequency in gigahertz.
    #[inline]
    pub fn as_ghz(self) -> f64 {
        self.as_base() / 1.0e9
    }
}

impl Voltage {
    /// Creates a voltage from volts.
    #[inline]
    pub fn from_volts(v: f64) -> Self {
        Self::from_base(v)
    }

    /// Creates a voltage from millivolts.
    #[inline]
    pub fn from_millivolts(mv: f64) -> Self {
        Self::from_base(mv / 1.0e3)
    }

    /// Returns the voltage in volts.
    #[inline]
    pub fn as_volts(self) -> f64 {
        self.as_base()
    }

    /// Returns `V²·f`, the quantity dynamic CMOS power is proportional to.
    ///
    /// Used as the interpolation abscissa by
    /// [`crate::power::AnchoredPowerModel`].
    #[inline]
    pub fn squared_times(self, f: Freq) -> f64 {
        self.as_base() * self.as_base() * f.as_ghz()
    }
}

impl Power {
    /// Creates a power from watts.
    #[inline]
    pub fn from_watts(w: f64) -> Self {
        Self::from_base(w)
    }

    /// Creates a power from milliwatts.
    #[inline]
    pub fn from_milliwatts(mw: f64) -> Self {
        Self::from_base(mw / 1.0e3)
    }

    /// Returns the power in watts.
    #[inline]
    pub fn as_watts(self) -> f64 {
        self.as_base()
    }

    /// Returns the power in milliwatts.
    #[inline]
    pub fn as_milliwatts(self) -> f64 {
        self.as_base() * 1.0e3
    }
}

impl Energy {
    /// Creates an energy from joules.
    #[inline]
    fn from_joules(j: f64) -> Self {
        Self::from_base(j)
    }

    /// Creates an energy from millijoules.
    #[inline]
    pub fn from_millijoules(mj: f64) -> Self {
        Self::from_base(mj / 1.0e3)
    }

    /// Returns the energy in joules.
    #[inline]
    pub fn as_joules(self) -> f64 {
        self.as_base()
    }

    /// Returns the energy in millijoules.
    #[inline]
    pub fn as_millijoules(self) -> f64 {
        self.as_base() * 1.0e3
    }
}

impl TimeSpan {
    /// Creates a time span from seconds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        Self::from_base(s)
    }

    /// Creates a time span from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::from_base(ms / 1.0e3)
    }

    /// Creates a time span from microseconds (the scale measured
    /// serving latencies of small embedded models live on).
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::from_base(us / 1.0e6)
    }

    /// Returns the time span in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.as_base()
    }

    /// Returns the time span in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.as_base() * 1.0e3
    }

    /// Returns the time span in microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.as_base() * 1.0e6
    }
}

impl Celsius {
    /// Creates a temperature from degrees Celsius.
    #[inline]
    pub fn from_celsius(c: f64) -> Self {
        Self::from_base(c)
    }

    /// Returns the temperature in degrees Celsius.
    #[inline]
    pub fn as_celsius(self) -> f64 {
        self.as_base()
    }
}

impl Mul<TimeSpan> for Power {
    type Output = Energy;
    /// `P · t = E`.
    #[inline]
    fn mul(self, rhs: TimeSpan) -> Energy {
        Energy::from_joules(self.as_watts() * rhs.as_secs())
    }
}

impl Mul<Power> for TimeSpan {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl Div<TimeSpan> for Energy {
    type Output = Power;
    /// `E / t = P`.
    #[inline]
    fn div(self, rhs: TimeSpan) -> Power {
        Power::from_watts(self.as_joules() / rhs.as_secs())
    }
}

impl Div<Power> for Energy {
    type Output = TimeSpan;
    /// `E / P = t`.
    #[inline]
    fn div(self, rhs: Power) -> TimeSpan {
        TimeSpan::from_secs(self.as_joules() / rhs.as_watts())
    }
}

/// Orders two `f64`-backed quantities, treating NaN as greatest.
///
/// The platform model never produces NaN in normal operation; this is a
/// convenience for sorting operating points by a metric.
pub fn total_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_conversions_round_trip() {
        let f = Freq::from_mhz(1400.0);
        assert_eq!(f.as_ghz(), 1.4);
        assert_eq!(Freq::from_ghz(1.4), f);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_watts(2.0) * TimeSpan::from_secs(3.0);
        assert_eq!(e.as_joules(), 6.0);
        // And commuted.
        let e2 = TimeSpan::from_secs(3.0) * Power::from_watts(2.0);
        assert_eq!(e2, e);
    }

    #[test]
    fn energy_divided_recovers_factors() {
        let e = Energy::from_joules(6.0);
        assert_eq!((e / TimeSpan::from_secs(3.0)).as_watts(), 2.0);
        assert_eq!((e / Power::from_watts(2.0)).as_secs(), 3.0);
    }

    #[test]
    fn milli_unit_constructors() {
        assert!((Power::from_milliwatts(326.0).as_watts() - 0.326).abs() < 1e-12);
        assert!((Energy::from_millijoules(92.1).as_joules() - 0.0921).abs() < 1e-12);
        assert!((TimeSpan::from_millis(280.0).as_secs() - 0.28).abs() < 1e-12);
        assert!((Voltage::from_millivolts(912.5).as_volts() - 0.9125).abs() < 1e-12);
    }

    #[test]
    fn ratio_of_like_quantities_is_dimensionless() {
        let r = Freq::from_mhz(1800.0) / Freq::from_mhz(200.0);
        assert!((r - 9.0).abs() < 1e-12);
    }

    #[test]
    fn quantity_ordering_and_clamp() {
        let lo = TimeSpan::from_millis(100.0);
        let hi = TimeSpan::from_millis(200.0);
        assert!(lo < hi);
        assert_eq!(TimeSpan::from_millis(500.0).clamp(lo, hi), hi);
        assert_eq!(TimeSpan::from_millis(50.0).clamp(lo, hi), lo);
        assert_eq!(lo.max(hi), hi);
        assert_eq!(lo.min(hi), lo);
    }

    #[test]
    fn v_squared_f_metric() {
        let v = Voltage::from_volts(1.0);
        assert!((v.squared_times(Freq::from_ghz(1.0)) - 1.0).abs() < 1e-12);
        let v = Voltage::from_volts(2.0);
        assert!((v.squared_times(Freq::from_ghz(0.5)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{}", Power::from_watts(1.5)), "1.5 W");
        assert_eq!(format!("{}", Celsius::from_celsius(85.0)), "85 °C");
    }

    #[test]
    fn sum_of_quantities() {
        let total: Power = [1.0, 2.0, 3.5].into_iter().map(Power::from_watts).sum();
        assert_eq!(total.as_watts(), 6.5);
    }

    #[test]
    fn arithmetic_ops() {
        let mut p = Power::from_watts(1.0);
        p += Power::from_watts(0.5);
        assert_eq!(p.as_watts(), 1.5);
        p -= Power::from_watts(1.0);
        assert!((p.as_watts() - 0.5).abs() < 1e-12);
        assert_eq!((-p).as_watts(), -0.5);
        assert_eq!((p * 4.0).as_watts(), 2.0);
        assert_eq!((4.0 * p).as_watts(), 2.0);
        assert_eq!((p / 2.0).as_watts(), 0.25);
        assert_eq!(p.abs(), p);
        assert_eq!((-p).abs(), p);
    }
}
