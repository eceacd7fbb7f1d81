// Fixture: public items, some reached from another file and some not.

pub struct Reached;

pub enum Unreached {
    Only,
}

// Reached only through the signature of a reached item of this file.
pub struct Returned;

pub fn make() -> Returned {
    Returned
}

// Named only by its own impl's signature: that does not reach it.
pub struct SelfNamed;

impl SelfNamed {
    pub fn same() -> SelfNamed {
        SelfNamed
    }
}

/// A doctest is a crate of its own: this one reaches the item.
///
/// ```
/// let _ = x::DocOnly;
/// ```
pub struct DocOnly;

/// A `text` block is not compiled and reaches nothing.
///
/// ```text
/// TextOnly
/// ```
pub struct TextOnly;

pub(crate) fn crate_visible_is_not_checked() {}

fn private_is_not_checked() {}

#[cfg(test)]
mod tests {
    pub fn test_helpers_are_not_checked() {}
}
