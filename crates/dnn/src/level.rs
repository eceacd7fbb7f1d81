//! Width levels: the discrete configurations of a dynamic DNN.
//!
//! The paper uses a four-increment design — the 25 %, 50 %, 75 % and 100 %
//! models. A [`WidthLevel`] is an index into a dynamic DNN's level list.

use std::fmt;

/// Index of a width configuration (0 = narrowest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WidthLevel(pub usize);

impl WidthLevel {
    /// The narrowest configuration.
    pub const MIN: WidthLevel = WidthLevel(0);

    /// Index accessor.
    pub fn index(self) -> usize {
        self.0
    }

    /// The number of active groups this level corresponds to (1-based).
    pub fn active_groups(self) -> usize {
        self.0 + 1
    }
}

impl fmt::Display for WidthLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "level{}", self.0)
    }
}

impl From<usize> for WidthLevel {
    fn from(i: usize) -> Self {
        Self(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_round_trips() {
        for i in 0..4 {
            assert_eq!(WidthLevel::from(i).index(), i);
        }
    }

    #[test]
    fn active_groups_is_one_based() {
        assert_eq!(WidthLevel(0).active_groups(), 1);
        assert_eq!(WidthLevel(3).active_groups(), 4);
    }

    #[test]
    fn display_names() {
        assert_eq!(WidthLevel(2).to_string(), "level2");
    }

    #[test]
    fn ordering_follows_width() {
        assert!(WidthLevel(0) < WidthLevel(3));
    }
}
