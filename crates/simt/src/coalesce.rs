//! Memory-coalescer model.
//!
//! Each compute unit has a coalescer that inspects the addresses issued by
//! one wavefront-wide memory instruction and merges accesses falling in the
//! same cache line into a single transaction (paper §2.2, Figure 2b). The
//! engine does not simulate a cache hierarchy; it *counts* the transactions
//! a coalescer would issue so memory divergence is visible in the counters,
//! and Gravel's queue-slot layout (messages from adjacent lanes land in
//! adjacent columns, i.e. the same lines) can be compared quantitatively
//! against divergent layouts.

use crate::mask::{Lanes, Mask};

/// Cache-line size used by the coalescer, in bytes (64 B, matching the
/// AMD A10-7850K's L1D line).
pub const CACHE_LINE: usize = 64;

/// Count the cache-line transactions needed by one wavefront memory
/// instruction: the number of *distinct* lines covered by
/// `[addr, addr + access_bytes)` over the active lanes.
///
/// `addrs` holds each lane's byte address; lanes not set in `mask` do not
/// access memory.
pub fn transactions(addrs: &[u64], mask: &Mask, access_bytes: usize) -> usize {
    wg_transactions(addrs, mask, access_bytes, mask.lanes().max(1))
}

/// Transactions for a whole work-group access, evaluated per wavefront
/// (hardware coalescers operate on one wavefront's cache port at a time).
pub fn wg_transactions(addrs: &[u64], mask: &Mask, access_bytes: usize, wf_width: usize) -> usize {
    wg_transactions_by(mask, access_bytes, wf_width, |lane| addrs[lane])
}

/// [`wg_transactions`] with each lane's address computed on demand, so an
/// access whose addresses follow from the lane id needs no address
/// register. `addr_of` is called for active lanes only and must be pure:
/// a wavefront whose addresses turn out unordered is walked a second time.
pub fn wg_transactions_by(
    mask: &Mask,
    access_bytes: usize,
    wf_width: usize,
    addr_of: impl Fn(usize) -> u64,
) -> usize {
    assert!(access_bytes > 0, "zero-sized access");
    assert!(wf_width > 0, "zero-width wavefront");
    let span = access_bytes as u64 - 1;
    // The cache lines of a lane's first and last byte.
    let lines_of = |lane: usize| {
        let addr = addr_of(lane);
        (addr / CACHE_LINE as u64, (addr + span) / CACHE_LINE as u64)
    };
    let mut unordered = Vec::new();
    let mut total = 0;
    let mut lo = 0;
    while lo < mask.lanes() {
        let hi = (lo + wf_width).min(mask.lanes());
        let lanes = mask.iter_range(lo, hi);
        total += ordered_lines(lanes.clone(), lines_of)
            .unwrap_or_else(|| sorted_lines(lanes, lines_of, &mut unordered));
        lo = hi;
    }
    total
}

/// Distinct lines of one wavefront whose lanes' first lines never
/// decrease (unit-stride, strided, broadcast and compacted-column
/// accesses all qualify): every line from an earlier lane's first to the
/// furthest last seen is already counted, so each lane adds only the
/// lines past that — one pass, no storage. `None` at the first lane
/// whose first line steps backwards.
fn ordered_lines(lanes: Lanes<'_>, lines_of: impl Fn(usize) -> (u64, u64)) -> Option<usize> {
    let mut count = 0u64;
    // `uncounted`: the first line past everything counted so far.
    let (mut prev_first, mut uncounted) = (0u64, 0u64);
    for lane in lanes {
        let (first, last) = lines_of(lane);
        if first < prev_first {
            return None;
        }
        prev_first = first;
        count += (last + 1).saturating_sub(first.max(uncounted));
        uncounted = uncounted.max(last + 1);
    }
    Some(count as usize)
}

/// Distinct lines of one wavefront in any address order: collect, sort,
/// dedup. `buf` is reused across a call's wavefronts.
fn sorted_lines(
    lanes: Lanes<'_>,
    lines_of: impl Fn(usize) -> (u64, u64),
    buf: &mut Vec<u64>,
) -> usize {
    buf.clear();
    for lane in lanes {
        let (first, last) = lines_of(lane);
        buf.extend(first..=last);
    }
    buf.sort_unstable();
    buf.dedup();
    buf.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_word_accesses_coalesce() {
        // 16 lanes × 4-byte accesses at consecutive addresses = 1 line.
        let addrs: Vec<u64> = (0..16).map(|l| l * 4).collect();
        assert_eq!(transactions(&addrs, &Mask::all(16), 4), 1);
    }

    #[test]
    fn fully_divergent_accesses_do_not_coalesce() {
        // Each lane hits its own line.
        let addrs: Vec<u64> = (0..16).map(|l| l * 4096).collect();
        assert_eq!(transactions(&addrs, &Mask::all(16), 4), 16);
    }

    #[test]
    fn inactive_lanes_issue_nothing() {
        let addrs: Vec<u64> = (0..16).map(|l| l * 4096).collect();
        let m = Mask::from_fn(16, |l| l < 4);
        assert_eq!(transactions(&addrs, &m, 4), 4);
        assert_eq!(transactions(&addrs, &Mask::none(16), 4), 0);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        // One lane, 8-byte access starting 4 bytes before a line boundary.
        let addrs = vec![CACHE_LINE as u64 - 4];
        assert_eq!(transactions(&addrs, &Mask::all(1), 8), 2);
    }

    #[test]
    fn wg_transactions_split_per_wavefront() {
        // 128 lanes all reading the SAME address: a single line per
        // wavefront port, so 2 transactions for 2 wavefronts.
        let addrs = vec![0u64; 128];
        assert_eq!(wg_transactions(&addrs, &Mask::all(128), 4, 64), 2);
    }

    #[test]
    fn duplicate_lines_within_wavefront_dedup() {
        // Lanes pair up on lines.
        let addrs: Vec<u64> = (0..8).map(|l| (l / 2) * CACHE_LINE as u64).collect();
        assert_eq!(transactions(&addrs, &Mask::all(8), 4), 4);
    }

    #[test]
    fn unordered_wavefronts_fall_back_to_the_sort() {
        // Descending unit stride: same 1 line as ascending.
        let down: Vec<u64> = (0..16).rev().map(|l| l * 4).collect();
        assert_eq!(transactions(&down, &Mask::all(16), 4), 1);
        // Wavefront 0 ascending, wavefront 1 scattered with a repeat.
        let mut addrs: Vec<u64> = (0..4).map(|l| l * 64).collect();
        addrs.extend([640, 0, 640, 320]);
        assert_eq!(wg_transactions(&addrs, &Mask::all(8), 4, 4), 4 + 3);
    }

    #[test]
    fn ordered_overlapping_straddles_count_each_line_once() {
        // 16-byte accesses every 40 bytes: lanes straddle and share lines.
        let addrs: Vec<u64> = (0..8).map(|l| 56 + l * 40).collect();
        let mut lines: Vec<u64> = addrs.iter().flat_map(|a| [a / 64, (a + 15) / 64]).collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(transactions(&addrs, &Mask::all(8), 16), lines.len());
    }
}
