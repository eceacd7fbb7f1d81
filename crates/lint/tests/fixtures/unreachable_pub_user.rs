// Fixture: the other file. A re-export, a test-only use and a
// definition of the same name reach nothing.

pub use crate::lib::Unreached;

fn uses() {
    let _ = (Reached, make());
}

struct same;

#[cfg(test)]
mod tests {
    fn t() {
        let _ = SelfNamed::same();
    }
}
