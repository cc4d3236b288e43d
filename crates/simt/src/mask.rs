//! Active-lane masks.
//!
//! A [`Mask`] records which lanes of a work-group are *active* (predicated
//! on) at a point in the control-flow graph. GPUs execute branches with
//! hardware predication: both sides of a branch run, with the lanes that did
//! not take the current side masked off. The software SIMT engine models the
//! same mechanism explicitly — every divergent construct manipulates a
//! `Mask`, and the cost counters charge a full wavefront issue slot whether
//! one lane or all lanes are active.
//!
//! Masks are packed 64-bit words, one bit per lane, and every operation is
//! word-parallel: boolean algebra is one instruction per word, counting is
//! popcount, iteration is a trailing-zeros bit scan, and a wavefront's share
//! of the mask is a masked word range. A mask of up to 256 lanes (the
//! paper's work-group, four words) lives inline, so the engine's per-branch
//! and per-instruction mask traffic never touches the heap; wider masks
//! spill to a boxed slice with the same semantics.
//!
//! **Invariant:** bits at positions `>= lanes` (the padding of the last
//! word, and inline words past it) are zero. Every constructor establishes
//! it, `and`/`or`/`and_not`/`filter` preserve it because their operands
//! hold it, and debug builds assert it wherever a mask is built — so
//! `count`, `is_full`, `leader` and equality can read whole words.

/// Bits per storage word.
const WORD_BITS: usize = 64;

/// Words stored inline: 256 lanes, the paper's work-group.
const INLINE_WORDS: usize = 4;

#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

/// An active-lane mask over the lanes of a work-group (or wavefront).
#[derive(Clone)]
pub struct Mask {
    words: Words,
    lanes: usize,
}

impl PartialEq for Mask {
    fn eq(&self, other: &Mask) -> bool {
        self.lanes == other.lanes && self.words() == other.words()
    }
}

impl Eq for Mask {}

impl std::fmt::Debug for Mask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mask[{}](", self.lanes)?;
        for lane in 0..self.lanes {
            write!(f, "{}", u8::from(self.get(lane)))?;
        }
        write!(f, ")")
    }
}

/// The bits of a range's first word at or above lane `lo`.
#[inline]
fn from_bit(lo: usize) -> u64 {
    !0u64 << (lo % WORD_BITS)
}

/// The bits of a range's last word below lane `hi` (`hi > 0`).
#[inline]
fn below_bit(hi: usize) -> u64 {
    !0u64 >> (WORD_BITS - 1 - (hi - 1) % WORD_BITS)
}

impl Mask {
    /// A mask with all `lanes` lanes active.
    pub fn all(lanes: usize) -> Self {
        let mut m = Self::none(lanes);
        if let Some((last, full)) = m.words_mut().split_last_mut() {
            full.fill(!0);
            *last = below_bit(lanes);
        }
        m.checked()
    }

    /// A mask with all `lanes` lanes inactive.
    pub fn none(lanes: usize) -> Self {
        let words = lanes.div_ceil(WORD_BITS);
        let words = if words <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; words].into_boxed_slice())
        };
        Mask { words, lanes }
    }

    /// Build a mask from a per-lane predicate.
    pub fn from_fn(lanes: usize, mut pred: impl FnMut(usize) -> bool) -> Self {
        let mut m = Self::none(lanes);
        for (wi, word) in m.words_mut().iter_mut().enumerate() {
            let base = wi * WORD_BITS;
            for bit in 0..WORD_BITS.min(lanes - base) {
                *word |= u64::from(pred(base + bit)) << bit;
            }
        }
        m.checked()
    }

    /// The active lanes of `self` for which `pred` holds: `self ∧ pred`
    /// with the predicate evaluated on active lanes only.
    pub fn filter(&self, mut pred: impl FnMut(usize) -> bool) -> Mask {
        let mut m = self.clone();
        for lane in self.iter() {
            if !pred(lane) {
                m.set(lane, false);
            }
        }
        m
    }

    /// The storage words that cover `lanes`.
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => &w[..self.lanes.div_ceil(WORD_BITS)],
            Words::Heap(w) => w,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => &mut w[..self.lanes.div_ceil(WORD_BITS)],
            Words::Heap(w) => w,
        }
    }

    /// Debug-build check of the module invariant: no bit at or above
    /// `lanes` is set.
    #[inline]
    fn checked(self) -> Self {
        debug_assert!(
            self.words().last().is_none_or(|&w| w & !below_bit(self.lanes) == 0),
            "mask padding bits set: {self:?}"
        );
        self
    }

    /// Number of lanes the mask covers (active or not).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Whether `lane` is active.
    #[inline]
    pub fn get(&self, lane: usize) -> bool {
        debug_assert!(lane < self.lanes);
        self.words()[lane / WORD_BITS] >> (lane % WORD_BITS) & 1 == 1
    }

    /// Set `lane` active (`true`) or inactive (`false`).
    #[inline]
    pub fn set(&mut self, lane: usize, active: bool) {
        assert!(lane < self.lanes, "lane {lane} outside a {}-lane mask", self.lanes);
        let word = &mut self.words_mut()[lane / WORD_BITS];
        let bit = 1u64 << (lane % WORD_BITS);
        if active {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Number of active lanes.
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no lane is active.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// True when every lane is active.
    pub fn is_full(&self) -> bool {
        self.count() == self.lanes
    }

    /// Lane id of the highest active lane, if any. Gravel elects this lane
    /// as the work-group *leader* (paper Fig. 5b: `reduce_max(LANE_ID)`).
    pub fn leader(&self) -> Option<usize> {
        for (wi, &w) in self.words().iter().enumerate().rev() {
            if w != 0 {
                return Some(wi * WORD_BITS + (WORD_BITS - 1 - w.leading_zeros() as usize));
            }
        }
        None
    }

    /// Iterator over active lane ids, ascending.
    pub fn iter(&self) -> Lanes<'_> {
        self.iter_range(0, self.lanes)
    }

    /// Iterator over the active lane ids in `[lo, hi)`, ascending.
    pub fn iter_range(&self, lo: usize, hi: usize) -> Lanes<'_> {
        assert!(hi <= self.lanes, "lane range {lo}..{hi} outside a {}-lane mask", self.lanes);
        if lo >= hi {
            return Lanes { words: &[], idx: 0, cur: 0, last_mask: 0 };
        }
        let (first, last) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
        let words = &self.words()[..=last];
        let last_mask = below_bit(hi);
        let mut cur = words[first] & from_bit(lo);
        if first == last {
            cur &= last_mask;
        }
        Lanes { words, idx: first, cur, last_mask }
    }

    /// Number of active lanes in `[lo, hi)`.
    pub fn count_range(&self, lo: usize, hi: usize) -> usize {
        assert!(hi <= self.lanes, "lane range {lo}..{hi} outside a {}-lane mask", self.lanes);
        if lo >= hi {
            return 0;
        }
        let (first, last) = (lo / WORD_BITS, (hi - 1) / WORD_BITS);
        let words = self.words();
        if first == last {
            return (words[first] & from_bit(lo) & below_bit(hi)).count_ones() as usize;
        }
        let inner: u32 = words[first + 1..last].iter().map(|w| w.count_ones()).sum();
        ((words[first] & from_bit(lo)).count_ones()
            + inner
            + (words[last] & below_bit(hi)).count_ones()) as usize
    }

    /// Lane `lane`'s rank among the active lanes: how many active lanes
    /// precede it. This is the value `prefix_sum(1)` hands an active lane
    /// (Fig. 5b), read off the mask with popcounts.
    pub fn rank(&self, lane: usize) -> usize {
        self.count_range(0, lane)
    }

    fn zip_with(&self, other: &Mask, op: impl Fn(u64, u64) -> u64) -> Mask {
        assert_eq!(self.lanes, other.lanes, "mask width mismatch");
        let mut out = self.clone();
        for (a, &b) in out.words_mut().iter_mut().zip(other.words()) {
            *a = op(*a, b);
        }
        out.checked()
    }

    /// Lane-wise AND.
    pub fn and(&self, other: &Mask) -> Mask {
        self.zip_with(other, |a, b| a & b)
    }

    /// Lane-wise OR.
    pub fn or(&self, other: &Mask) -> Mask {
        self.zip_with(other, |a, b| a | b)
    }

    /// Lanes active in `self` but not in `other` (the "else" side of a
    /// branch whose "then" side is `other`).
    pub fn and_not(&self, other: &Mask) -> Mask {
        self.zip_with(other, |a, b| a & !b)
    }

    /// The lane range of wavefront `wf`: `[wf * wf_width, (wf + 1) *
    /// wf_width)`, clipped to the mask (the last wavefront may be partial).
    #[inline]
    fn wavefront_range(&self, wf: usize, wf_width: usize) -> (usize, usize) {
        ((wf * wf_width).min(self.lanes), ((wf + 1) * wf_width).min(self.lanes))
    }

    /// Count of active lanes within one wavefront.
    pub fn wavefront_count(&self, wf: usize, wf_width: usize) -> usize {
        let (lo, hi) = self.wavefront_range(wf, wf_width);
        self.count_range(lo, hi)
    }

    /// True when any lane of wavefront `wf` is active.
    pub fn wavefront_any(&self, wf: usize, wf_width: usize) -> bool {
        self.wavefront_count(wf, wf_width) > 0
    }

    /// Number of wavefronts with at least one active lane — the wavefronts
    /// an instruction issues to when hardware skips fully-inactive ones.
    pub fn active_wavefronts(&self, wf_width: usize) -> usize {
        (0..self.lanes.div_ceil(wf_width)).filter(|&wf| self.wavefront_any(wf, wf_width)).count()
    }
}

/// Ascending iterator over a mask's active lanes ([`Mask::iter`],
/// [`Mask::iter_range`]): one trailing-zeros scan per active lane, one
/// load per word.
#[derive(Clone, Debug)]
pub struct Lanes<'a> {
    /// Storage up to and including the range's last word.
    words: &'a [u64],
    /// Index of the word `cur` was read from.
    idx: usize,
    /// Bits of word `idx` not yet yielded.
    cur: u64,
    /// In-range bits of the last word.
    last_mask: u64,
}

impl Iterator for Lanes<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            if self.idx + 1 >= self.words.len() {
                return None;
            }
            self.idx += 1;
            self.cur = self.words[self.idx];
            if self.idx + 1 == self.words.len() {
                self.cur &= self.last_mask;
            }
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.idx * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_none() {
        let a = Mask::all(100);
        assert_eq!(a.count(), 100);
        assert!(a.is_full());
        assert!(!a.is_empty());
        let n = Mask::none(100);
        assert_eq!(n.count(), 0);
        assert!(n.is_empty());
        assert!(!n.is_full());
    }

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut m = Mask::none(130);
        for lane in [0, 1, 63, 64, 65, 127, 128, 129] {
            m.set(lane, true);
            assert!(m.get(lane), "lane {lane}");
        }
        assert_eq!(m.count(), 8);
        m.set(64, false);
        assert!(!m.get(64));
        assert_eq!(m.count(), 7);
    }

    #[test]
    fn leader_is_highest_active_lane() {
        let mut m = Mask::none(256);
        assert_eq!(m.leader(), None);
        m.set(3, true);
        assert_eq!(m.leader(), Some(3));
        m.set(200, true);
        assert_eq!(m.leader(), Some(200));
        m.set(255, true);
        assert_eq!(m.leader(), Some(255));
    }

    #[test]
    fn boolean_ops() {
        let a = Mask::from_fn(10, |l| l % 2 == 0);
        let b = Mask::from_fn(10, |l| l < 5);
        assert_eq!(a.and(&b).count(), 3); // 0, 2, 4
        assert_eq!(a.or(&b).count(), 7); // 0..5 plus 6, 8
        assert_eq!(a.and_not(&b).count(), 2); // 6, 8
    }

    #[test]
    fn wavefront_counts() {
        let m = Mask::from_fn(128, |l| l < 70);
        assert_eq!(m.wavefront_count(0, 64), 64);
        assert_eq!(m.wavefront_count(1, 64), 6);
        assert!(m.wavefront_any(1, 64));
        assert_eq!(m.active_wavefronts(64), 2);
        assert_eq!(m.active_wavefronts(32), 3);
        assert_eq!(m.iter_range(64, 128).collect::<Vec<_>>(), (64..70).collect::<Vec<_>>());
    }

    #[test]
    fn iter_yields_active_ascending() {
        let m = Mask::from_fn(70, |l| l == 2 || l == 65);
        let lanes: Vec<_> = m.iter().collect();
        assert_eq!(lanes, vec![2, 65]);
        assert_eq!(m.rank(2), 0);
        assert_eq!(m.rank(65), 1);
        assert_eq!(m.rank(69), 2);
    }

    #[test]
    fn partial_last_wavefront() {
        // 100 lanes, wf width 64: second wavefront covers lanes 64..100.
        let m = Mask::all(100);
        assert_eq!(m.wavefront_count(1, 64), 36);
        assert_eq!(m.active_wavefronts(64), 2);
    }

    #[test]
    fn padding_stays_zero_under_complement_and_union() {
        // 130 lanes: 62 padding bits in the third word; 300: heap storage.
        for lanes in [1, 8, 63, 64, 65, 100, 130, 256, 257, 300] {
            let all = Mask::all(lanes);
            let odd = Mask::from_fn(lanes, |l| l % 2 == 1);
            let even = all.and_not(&odd);
            assert_eq!(even.count(), lanes.div_ceil(2), "{lanes} lanes");
            assert_eq!(even.or(&odd), all, "{lanes} lanes");
            assert_eq!(all.and_not(&Mask::none(lanes)), all, "{lanes} lanes");
            assert_eq!(all.leader(), Some(lanes - 1));
            assert_eq!(all.iter().count(), lanes);
            assert_eq!(all.filter(|l| l % 2 == 1), odd, "{lanes} lanes");
        }
    }

    #[test]
    fn ranges_that_cross_words_and_narrow_wavefronts() {
        // 8 lanes of 4-wide wavefronts, and a 100-wide wavefront over a
        // 130-lane mask (the range spans two word boundaries).
        let m = Mask::from_fn(8, |l| l != 5);
        assert_eq!(m.wavefront_count(0, 4), 4);
        assert_eq!(m.wavefront_count(1, 4), 3);
        assert_eq!(m.iter_range(4, 8).collect::<Vec<_>>(), vec![4, 6, 7]);
        let m = Mask::from_fn(130, |l| l % 3 == 0);
        assert_eq!(m.wavefront_count(0, 100), 34);
        assert_eq!(m.wavefront_count(1, 100), 10);
        assert_eq!(m.iter_range(60, 129).count(), (60..129).filter(|l| l % 3 == 0).count());
        assert_eq!(m.iter_range(7, 7).count(), 0);
    }
}
