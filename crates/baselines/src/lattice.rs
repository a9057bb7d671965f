//! Attribute-set lattice utilities shared by the levelwise searches
//! (TANE, Pyro). Attribute sets are `u128` bitmasks, which bounds the
//! lattice methods at 128 attributes — beyond that they would not terminate
//! in reasonable time anyway (the paper's own finding for wide tables).

use fdx_data::AttrId;

/// An attribute set as a bitmask.
pub type AttrSet = u128;

/// Maximum attribute count supported by the lattice representation.
pub const MAX_ATTRS: usize = 128;

/// The singleton set `{a}`.
#[inline]
pub fn singleton(a: AttrId) -> AttrSet {
    debug_assert!(a < MAX_ATTRS);
    1u128 << a
}

/// `true` if `a ∈ set`.
#[inline]
pub fn contains(set: AttrSet, a: AttrId) -> bool {
    set & singleton(a) != 0
}

/// The members of `set`, ascending.
pub fn members(set: AttrSet) -> Vec<AttrId> {
    let mut out = Vec::with_capacity(set.count_ones() as usize);
    let mut s = set;
    while s != 0 {
        let a = s.trailing_zeros() as AttrId;
        out.push(a);
        s &= s - 1;
    }
    out
}

/// Apriori candidate generation: joins size-ℓ sets sharing all but their
/// highest attribute, keeping only candidates whose every ℓ-subset is in
/// `level`. `level` must be sorted.
///
/// The join compares every pair of sets, so it is quadratic in the level
/// size: about 14 s for Alarm's 66 045 four-attribute sets on a 2-vCPU
/// Xeon VM. It asks
/// `out_of_time` once per set of `level` and returns `None` as soon as
/// that answers `true`, so a search under a wall-clock budget stops
/// inside it.
pub fn next_level(
    level: &[AttrSet],
    mut out_of_time: impl FnMut() -> bool,
) -> Option<Vec<AttrSet>> {
    use std::collections::HashSet;
    let present: HashSet<AttrSet> = level.iter().copied().collect();
    let mut out = Vec::new();
    for (i, &x) in level.iter().enumerate() {
        if out_of_time() {
            return None;
        }
        let x_top = 127 - x.leading_zeros() as usize;
        let x_prefix = x & !(singleton(x_top));
        for &y in &level[i + 1..] {
            let y_top = 127 - y.leading_zeros() as usize;
            let y_prefix = y & !(singleton(y_top));
            if x_prefix != y_prefix {
                continue;
            }
            let candidate = x | y;
            // Every subset obtained by dropping one member must be present.
            let ok = members(candidate)
                .into_iter()
                .all(|a| present.contains(&(candidate & !singleton(a))));
            if ok {
                out.push(candidate);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_roundtrip() {
        let s = singleton(0) | singleton(3) | singleton(7);
        assert_eq!(members(s), vec![0, 3, 7]);
        assert!(contains(s, 3));
        assert!(!contains(s, 2));
    }

    #[test]
    fn next_level_joins_prefix_pairs() {
        // Level 1: {0},{1},{2} → level 2: all pairs.
        let l1 = vec![singleton(0), singleton(1), singleton(2)];
        let l2 = next_level(&l1, || false).unwrap();
        assert_eq!(l2.len(), 3);
        assert!(l2.contains(&(singleton(0) | singleton(1))));
        assert!(l2.contains(&(singleton(1) | singleton(2))));
    }

    #[test]
    fn next_level_requires_all_subsets() {
        // {0,1} and {0,2} present but {1,2} missing → no {0,1,2}.
        let l2 = vec![singleton(0) | singleton(1), singleton(0) | singleton(2)];
        assert!(next_level(&l2, || false).unwrap().is_empty());
        // Add {1,2}: now {0,1,2} generates.
        let l2_full = vec![
            singleton(0) | singleton(1),
            singleton(0) | singleton(2),
            singleton(1) | singleton(2),
        ];
        let l3 = next_level(&l2_full, || false).unwrap();
        assert_eq!(l3, vec![singleton(0) | singleton(1) | singleton(2)]);
    }

    #[test]
    fn next_level_stops_when_out_of_time() {
        let l1: Vec<AttrSet> = (0..10).map(singleton).collect();
        let mut asked = 0;
        let stopped = next_level(&l1, || {
            asked += 1;
            asked > 3
        });
        assert_eq!(stopped, None);
        assert_eq!(asked, 4, "asks once per set, and stops at the first `true`");
    }
}
