//! Per-lane value vectors.
//!
//! In a SIMT machine every "scalar" variable in the kernel source is
//! physically a vector register holding one value per lane. [`LaneVec`]
//! models such a register for a whole work-group: index `i` holds lane
//! `i`'s value. Operations come in masked variants so that inactive lanes
//! keep their previous contents, exactly as hardware predication leaves
//! masked-off vector elements untouched.

use crate::mask::Mask;

/// A per-lane register: one `T` per lane of a work-group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneVec<T> {
    vals: Vec<T>,
}

impl<T: Copy + Default> LaneVec<T> {
    /// A register with every lane holding `T::default()`.
    pub fn zeroed(lanes: usize) -> Self {
        LaneVec { vals: vec![T::default(); lanes] }
    }
}

impl<T: Copy> LaneVec<T> {
    /// A register with every lane holding `val`.
    pub fn splat(lanes: usize, val: T) -> Self {
        LaneVec { vals: vec![val; lanes] }
    }

    /// A register computed per lane (e.g. `from_fn(n, |l| l)` is `LANE_ID`).
    pub fn from_fn(lanes: usize, f: impl FnMut(usize) -> T) -> Self {
        LaneVec { vals: (0..lanes).map(f).collect() }
    }

    /// Two registers computed per lane in one pass, for values that come
    /// out of one lookup (a route's destination and offset).
    pub fn pair_from_fn<U: Copy>(
        lanes: usize,
        f: impl FnMut(usize) -> (T, U),
    ) -> (LaneVec<T>, LaneVec<U>) {
        let (vals, others) = (0..lanes).map(f).unzip();
        (LaneVec { vals }, LaneVec { vals: others })
    }

    /// Wrap an existing per-lane vector.
    pub fn from_vec(vals: Vec<T>) -> Self {
        LaneVec { vals }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.vals.len()
    }

    /// Lane `lane`'s value.
    #[inline]
    pub fn get(&self, lane: usize) -> T {
        self.vals[lane]
    }

    /// Overwrite lane `lane`'s value (unmasked; prefer the masked ops in
    /// kernel code).
    #[inline]
    pub fn set(&mut self, lane: usize, val: T) {
        self.vals[lane] = val;
    }

    /// Raw per-lane slice.
    pub fn as_slice(&self) -> &[T] {
        &self.vals
    }

    /// Map each *active* lane through `f`; inactive lanes keep their value.
    pub fn map_masked(&self, mask: &Mask, mut f: impl FnMut(usize, T) -> T) -> LaneVec<T> {
        assert_eq!(self.lanes(), mask.lanes(), "register/mask width mismatch");
        LaneVec {
            vals: self
                .vals
                .iter()
                .enumerate()
                .map(|(lane, &v)| if mask.get(lane) { f(lane, v) } else { v })
                .collect(),
        }
    }

    /// Per-lane select: active lanes take `then_val`'s lane, inactive take
    /// `self`'s lane (the SIMT compilation of `x = cond ? a : x`).
    pub fn select(&self, mask: &Mask, then_vals: &LaneVec<T>) -> LaneVec<T> {
        assert_eq!(self.lanes(), then_vals.lanes(), "register width mismatch");
        LaneVec {
            vals: self
                .vals
                .iter()
                .enumerate()
                .map(|(lane, &v)| if mask.get(lane) { then_vals.get(lane) } else { v })
                .collect(),
        }
    }

    /// Write `val` into every active lane.
    pub fn store_masked(&mut self, mask: &Mask, val: T) {
        for lane in mask.iter() {
            self.vals[lane] = val;
        }
    }

    /// Iterate `(lane, value)` over active lanes.
    pub fn iter_masked<'a>(&'a self, mask: &'a Mask) -> impl Iterator<Item = (usize, T)> + 'a {
        mask.iter().map(move |lane| (lane, self.vals[lane]))
    }
}

impl<T: Copy> std::ops::Index<usize> for LaneVec<T> {
    type Output = T;
    fn index(&self, lane: usize) -> &T {
        &self.vals[lane]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_from_fn() {
        let s = LaneVec::splat(4, 7u32);
        assert_eq!(s.as_slice(), &[7, 7, 7, 7]);
        let ids = LaneVec::from_fn(4, |l| l as u32);
        assert_eq!(ids.as_slice(), &[0, 1, 2, 3]);
        let (twice, odd) = LaneVec::pair_from_fn(4, |l| (2 * l, l % 2 == 1));
        assert_eq!(twice.as_slice(), &[0, 2, 4, 6]);
        assert_eq!(odd.as_slice(), &[false, true, false, true]);
    }

    #[test]
    fn map_masked_leaves_inactive_untouched() {
        let v = LaneVec::from_fn(6, |l| l as i64);
        let m = Mask::from_fn(6, |l| l % 2 == 1);
        let doubled = v.map_masked(&m, |_, x| x * 2);
        assert_eq!(doubled.as_slice(), &[0, 2, 2, 6, 4, 10]);
    }

    #[test]
    fn select_takes_then_side_on_active_lanes() {
        let v = LaneVec::splat(4, 0u8);
        let t = LaneVec::splat(4, 9u8);
        let m = Mask::from_fn(4, |l| l >= 2);
        assert_eq!(v.select(&m, &t).as_slice(), &[0, 0, 9, 9]);
    }

    #[test]
    fn store_masked_and_iter_masked() {
        let mut v = LaneVec::zeroed(5);
        let m = Mask::from_fn(5, |l| l == 1 || l == 4);
        v.store_masked(&m, 42u32);
        assert_eq!(v.as_slice(), &[0, 42, 0, 0, 42]);
        let pairs: Vec<_> = v.iter_masked(&m).collect();
        assert_eq!(pairs, vec![(1, 42), (4, 42)]);
    }

    #[test]
    #[should_panic(expected = "register/mask width mismatch")]
    fn width_mismatch_panics() {
        let v = LaneVec::splat(4, 0u8);
        let m = Mask::all(5);
        let _ = v.map_masked(&m, |_, x| x);
    }
}
