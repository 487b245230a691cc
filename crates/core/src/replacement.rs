//! Replacement policies for set-associative BTB partitions.
//!
//! All organizations in the paper use true LRU within a set; BTB-X uses a
//! *modified* LRU that restricts the victim search to the ways whose offset
//! field is wide enough for the incoming branch while leaving recency
//! bookkeeping untouched (Section V-B). [`LruSet`] provides the shared
//! recency machinery; the modification lives in the victim-selection
//! methods that accept an eligibility mask.

/// Most ways an [`LruSet`] tracks: eligibility masks are `u64`s.
const MAX_WAYS: usize = 64;

/// Age held by the unused slots past `ways`: never below a real age, so
/// [`LruSet::touch`] can age the whole array branch-free and leave them
/// alone.
const UNUSED: u8 = u8::MAX;

/// True-LRU recency state for one set of up to 64 ways.
///
/// Each way holds an age in `0..ways`; age `0` is most-recently used and
/// `ways - 1` least-recently used. The encoding matches the `rep_policy`
/// counter bits the paper charges to each entry (3 bits for 8 ways).
///
/// The ages live inline in a fixed 64-byte array (no heap allocation per
/// set), so a `Vec<LruSet>` is one contiguous block and a recency update
/// touches only the set's own bytes. Slots past `ways` hold `u8::MAX`
/// and are never observable: accessors, victims and snapshots see
/// exactly the first `ways` ages.
#[derive(Clone, PartialEq, Eq)]
pub struct LruSet {
    ways: u8,
    age: [u8; MAX_WAYS],
}

impl std::fmt::Debug for LruSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruSet").field("age", &self.ages()).finish()
    }
}

impl LruSet {
    /// A set with `ways` ways, initially aged oldest-first so empty ways
    /// are consumed in way order.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0` or `ways > 64`.
    pub fn new(ways: usize) -> Self {
        assert!(
            ways > 0 && ways <= MAX_WAYS,
            "unsupported associativity {ways}"
        );
        let mut age = [UNUSED; MAX_WAYS];
        for (way, a) in age[..ways].iter_mut().enumerate() {
            *a = way as u8;
        }
        LruSet {
            ways: ways as u8,
            age,
        }
    }

    /// Number of ways tracked.
    #[inline]
    pub fn ways(&self) -> usize {
        self.ways as usize
    }

    #[inline]
    fn ages(&self) -> &[u8] {
        &self.age[..self.ways()]
    }

    /// Recency age of `way` (0 = MRU).
    #[inline]
    pub fn age(&self, way: usize) -> u8 {
        self.ages()[way]
    }

    /// Mark `way` as most-recently used, ageing every way that was younger.
    ///
    /// This is the unmodified part of BTB-X's policy: hits and allocations
    /// update recency exactly as baseline LRU does.
    #[inline]
    pub fn touch(&mut self, way: usize) {
        let old = self.age(way);
        // Whole-array pass: UNUSED slots are never younger than `old`.
        for a in &mut self.age {
            *a += (*a < old) as u8;
        }
        self.age[way] = 0;
    }

    /// The least-recently-used way among all ways.
    #[inline]
    pub fn victim(&self) -> usize {
        self.victim_among(u64::MAX)
    }

    /// The least-recently-used way among the ways set in `eligible`
    /// (bit `i` = way `i`): BTB-X's modified LRU (Section V-B).
    ///
    /// # Panics
    ///
    /// Panics if `eligible` selects no way.
    pub fn victim_among(&self, eligible: u64) -> usize {
        let mut best: Option<(usize, u8)> = None;
        for (way, &age) in self.ages().iter().enumerate() {
            if eligible & (1 << way) == 0 {
                continue;
            }
            match best {
                Some((_, b)) if b >= age => {}
                _ => best = Some((way, age)),
            }
        }
        best.expect("eligibility mask must select at least one way")
            .0
    }
}

impl crate::snap::Snapshot for LruSet {
    fn save_state(&self, w: &mut crate::snap::SnapWriter) {
        w.u64(self.ways as u64);
        for &a in self.ages() {
            w.u8(a);
        }
    }

    fn restore_state(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        r.expect_u64(self.ways as u64, "lru way count")?;
        let ways = self.ways();
        let mut seen = 0u64;
        for a in &mut self.age[..ways] {
            let age = r.u8()?;
            if age as usize >= ways || seen & (1 << age) != 0 {
                return Err(crate::snap::SnapError::Corrupt(
                    "lru ages not a permutation",
                ));
            }
            seen |= 1 << age;
            *a = age;
        }
        Ok(())
    }
}

/// Build an eligibility mask for `ways` ways from a predicate.
pub fn eligibility_mask(ways: usize, mut eligible: impl FnMut(usize) -> bool) -> u64 {
    let mut mask = 0u64;
    for way in 0..ways {
        if eligible(way) {
            mask |= 1 << way;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{SnapWriter, Snapshot};
    use proptest::prelude::*;

    /// The heap-backed `LruSet` this module shipped before the ages moved
    /// inline: the reference model the inline layout must match bit for
    /// bit.
    #[derive(Debug, Clone)]
    struct VecLruSet {
        age: Vec<u8>,
    }

    impl VecLruSet {
        fn new(ways: usize) -> Self {
            VecLruSet {
                age: (0..ways as u8).collect(),
            }
        }

        fn touch(&mut self, way: usize) {
            let old = self.age[way];
            for a in &mut self.age {
                if *a < old {
                    *a += 1;
                }
            }
            self.age[way] = 0;
        }

        fn victim_among(&self, eligible: u64) -> usize {
            let mut best: Option<(usize, u8)> = None;
            for (way, &age) in self.age.iter().enumerate() {
                if eligible & (1 << way) == 0 {
                    continue;
                }
                match best {
                    Some((_, b)) if b >= age => {}
                    _ => best = Some((way, age)),
                }
            }
            best.expect("eligibility mask must select at least one way")
                .0
        }

        fn save_state(&self, w: &mut SnapWriter) {
            w.u64(self.age.len() as u64);
            for &a in &self.age {
                w.u8(a);
            }
        }
    }

    fn saved(f: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new();
        f(&mut w);
        w.into_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random touches and masked victim queries at every
        /// associativity give the same ages, victims and snapshot bytes
        /// as the heap-backed reference.
        #[test]
        fn inline_ages_match_the_vec_reference(
            ways in 1usize..=MAX_WAYS,
            ops in proptest::collection::vec((any::<bool>(), any::<u64>(), any::<u64>()), 1..400),
        ) {
            let mut inline = LruSet::new(ways);
            let mut reference = VecLruSet::new(ways);
            let all = if ways == MAX_WAYS { u64::MAX } else { (1u64 << ways) - 1 };
            for (is_touch, way, mask) in ops {
                if is_touch {
                    let way = (way % ways as u64) as usize;
                    inline.touch(way);
                    reference.touch(way);
                } else {
                    // Nonzero within the set's ways, plus stray high bits.
                    let mask = if mask & all == 0 { mask | 1 } else { mask };
                    prop_assert_eq!(inline.victim_among(mask), reference.victim_among(mask));
                    prop_assert_eq!(inline.victim(), reference.victim_among(u64::MAX));
                }
                for w in 0..ways {
                    prop_assert_eq!(inline.age(w), reference.age[w]);
                }
            }
            prop_assert_eq!(
                saved(|w| inline.save_state(w)),
                saved(|w| reference.save_state(w))
            );
        }
    }

    #[test]
    fn fresh_set_evicts_way_order() {
        let s = LruSet::new(8);
        // Way 7 starts oldest.
        assert_eq!(s.victim(), 7);
    }

    #[test]
    fn touch_moves_to_mru() {
        let mut s = LruSet::new(4);
        s.touch(2);
        assert_eq!(s.age(2), 0);
        assert_ne!(s.victim(), 2);
    }

    #[test]
    fn full_rotation_is_true_lru() {
        let mut s = LruSet::new(4);
        for w in [0usize, 1, 2, 3, 0, 1] {
            s.touch(w);
        }
        // Access order (old → new): 2, 3, 0, 1 ⇒ victim is 2.
        assert_eq!(s.victim(), 2);
        s.touch(2);
        assert_eq!(s.victim(), 3);
    }

    #[test]
    fn victim_among_respects_mask() {
        let mut s = LruSet::new(8);
        for w in 0..8 {
            s.touch(w); // way 0 is now oldest
        }
        assert_eq!(s.victim(), 0);
        // If only ways 5..8 are eligible, the LRU among them is 5.
        assert_eq!(s.victim_among(0b1110_0000), 5);
    }

    #[test]
    fn touch_never_evicts_mru() {
        let mut s = LruSet::new(8);
        for i in 0..1000usize {
            let w = (i * 7 + 3) % 8;
            s.touch(w);
            assert_ne!(s.victim(), w, "MRU way must never be the victim");
        }
    }

    #[test]
    fn ages_stay_a_permutation() {
        let mut s = LruSet::new(8);
        for i in 0..100usize {
            s.touch((i * 5) % 8);
            let mut seen = [false; 8];
            for w in 0..8 {
                let a = s.age(w) as usize;
                assert!(!seen[a], "duplicate age");
                seen[a] = true;
            }
        }
    }

    #[test]
    fn mask_builder() {
        let m = eligibility_mask(8, |w| w >= 6);
        assert_eq!(m, 0b1100_0000);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn empty_mask_panics() {
        LruSet::new(4).victim_among(0);
    }

    #[test]
    #[should_panic(expected = "unsupported associativity")]
    fn zero_ways_panics() {
        LruSet::new(0);
    }
}
