//! Alias profiles for speculative memory optimization.

use std::collections::HashSet;

/// A record of which memory instructions *aliased* (touched the same
/// address) during profiled execution.
///
/// The paper (§3.4): "We record aliasing events during execution and pass
/// this information to the optimizer. If the intervening stores did not
/// alias during execution, the optimizer speculates that they never alias,
/// and removes the load."
///
/// Pairs are keyed by the x86 addresses of the two memory instructions and
/// are unordered.
#[derive(Debug, Clone, Default)]
pub struct AliasProfile {
    pairs: HashSet<(u32, u32)>,
}

impl AliasProfile {
    /// A profile with no recorded aliasing events — every speculation is
    /// permitted.
    pub fn empty() -> AliasProfile {
        AliasProfile::default()
    }

    /// Creates an empty profile (same as [`AliasProfile::empty`]).
    pub fn new() -> AliasProfile {
        AliasProfile::default()
    }

    fn key(a: u32, b: u32) -> (u32, u32) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Records that the memory instructions at `a` and `b` touched the same
    /// address in some dynamic instance.
    pub fn record(&mut self, a: u32, b: u32) {
        self.pairs.insert(Self::key(a, b));
    }

    /// True if an aliasing event between `a` and `b` was ever observed.
    pub fn aliased(&self, a: u32, b: u32) -> bool {
        self.pairs.contains(&Self::key(a, b))
    }

    /// Every recorded pair `(a, b)` with `a <= b` and both ends in
    /// `addrs`, in ascending order: the part of the relation a query
    /// restricted to `addrs` can observe. `addrs` must be sorted and
    /// deduplicated.
    pub fn pairs_among(&self, addrs: &[u32]) -> Vec<(u32, u32)> {
        debug_assert!(addrs.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        let candidates = addrs.len() * (addrs.len() + 1) / 2;
        let mut out: Vec<(u32, u32)> = if self.pairs.len() < candidates {
            // Fewer recorded pairs than candidate pairs: filter the profile.
            let within = |a: &u32| addrs.binary_search(a).is_ok();
            self.pairs
                .iter()
                .filter(|(a, b)| within(a) && within(b))
                .copied()
                .collect()
        } else {
            addrs
                .iter()
                .enumerate()
                .flat_map(|(i, &a)| addrs[i..].iter().map(move |&b| (a, b)))
                .filter(|&(a, b)| self.aliased(a, b))
                .collect()
        };
        out.sort_unstable();
        out
    }

    /// Number of recorded aliasing pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no aliasing events are recorded.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &AliasProfile) {
        self.pairs.extend(other.pairs.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unordered_pairs() {
        let mut p = AliasProfile::new();
        p.record(0x10, 0x20);
        assert!(p.aliased(0x10, 0x20));
        assert!(p.aliased(0x20, 0x10));
        assert!(!p.aliased(0x10, 0x30));
        assert_eq!(p.len(), 1);
        p.record(0x20, 0x10);
        assert_eq!(p.len(), 1, "duplicate pair collapses");
    }

    #[test]
    fn merge_unions() {
        let mut a = AliasProfile::new();
        a.record(1, 2);
        let mut b = AliasProfile::new();
        b.record(3, 4);
        a.merge(&b);
        assert!(a.aliased(1, 2) && a.aliased(3, 4));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn pairs_among_restricts_and_sorts() {
        let mut p = AliasProfile::new();
        p.record(0x30, 0x10);
        p.record(0x10, 0x10);
        p.record(0x20, 0x90);
        // Few candidates (filters candidate pairs) and many (filters the
        // profile) give the same answer.
        assert_eq!(
            p.pairs_among(&[0x10, 0x30]),
            vec![(0x10, 0x10), (0x10, 0x30)]
        );
        let wide: Vec<u32> = (0..0x40).collect();
        assert_eq!(p.pairs_among(&wide), vec![(0x10, 0x10), (0x10, 0x30)]);
        assert!(p.pairs_among(&[0x20]).is_empty());
        assert!(AliasProfile::empty().pairs_among(&wide).is_empty());
    }

    #[test]
    fn empty_profile_permits_everything() {
        let p = AliasProfile::empty();
        assert!(p.is_empty());
        assert!(!p.aliased(0, 0));
    }
}
