//! The size of a message, in 8-byte words, for cost charging.

/// A message's wire size: `words` 8-byte words, carrying no data at all.
///
/// The ranks of the simulated machine share host memory, so the data a
/// message models already lives where its receiver reads it; what the
/// machine needs is only the size it charges
/// ([`Machine::exchange`](crate::Machine::exchange)). A sub-word payload
/// rounds up to one word, as an MPI implementation pads tiny elements into
/// word-aligned buffers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostOnly {
    pub words: usize,
}

impl CostOnly {
    #[inline]
    pub fn new(words: usize) -> Self {
        CostOnly { words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_only_reports_declared_words() {
        assert_eq!(CostOnly::new(0).words, 0);
        assert_eq!(CostOnly::new(17).words, 17);
    }
}
