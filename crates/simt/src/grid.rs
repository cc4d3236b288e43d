//! Kernel launch geometry.
//!
//! A [`Grid`] describes one kernel dispatch: how many work-groups, how many
//! work-items per work-group, and the wavefront width of the machine. The
//! paper's evaluation platform (Table 3) runs 64-wide wavefronts with
//! work-groups of up to four wavefronts (256 work-items), which are the
//! defaults here.

/// Wavefront width of AMD GCN GPUs (paper §2.1).
pub const DEFAULT_WF_WIDTH: usize = 64;

/// Default work-group size: four wavefronts (paper §4.3 "WGs have four
/// WFs").
pub const DEFAULT_WG_SIZE: usize = 4 * DEFAULT_WF_WIDTH;

/// Geometry of one kernel dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    /// Number of work-groups in the dispatch.
    pub wg_count: usize,
    /// Work-items per work-group (must be a positive multiple of nothing —
    /// partial last wavefronts are allowed, matching OpenCL).
    pub wg_size: usize,
    /// Lanes per wavefront.
    pub wf_width: usize,
}

impl Grid {
    /// A grid of `wg_count` work-groups with the platform defaults
    /// (256-WI work-groups of 64-wide wavefronts).
    pub fn new(wg_count: usize) -> Self {
        Grid { wg_count, wg_size: DEFAULT_WG_SIZE, wf_width: DEFAULT_WF_WIDTH }
    }

    /// Grid sized so that `grid_width` work-items run in work-groups of
    /// `wg_size` (the paper's `GRID_WIDTH = len(B)` launches). The last
    /// work-group may be partial; kernels see that as inactive tail lanes.
    pub fn cover(grid_width: usize, wg_size: usize) -> Self {
        assert!(wg_size > 0, "work-group size must be positive");
        Grid {
            wg_count: grid_width.div_ceil(wg_size).max(1),
            wg_size,
            wf_width: DEFAULT_WF_WIDTH.min(wg_size),
        }
    }

    /// Total work-items in the dispatch.
    pub fn total_work_items(&self) -> usize {
        self.wg_count * self.wg_size
    }

    /// Wavefronts per work-group.
    pub fn wfs_per_wg(&self) -> usize {
        self.wg_size.div_ceil(self.wf_width)
    }

    /// First global work-item id of work-group `wg_id`.
    pub fn wg_base(&self, wg_id: usize) -> usize {
        wg_id * self.wg_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_platform() {
        let g = Grid::new(8);
        assert_eq!(g.wg_size, 256);
        assert_eq!(g.wf_width, 64);
        assert_eq!(g.wfs_per_wg(), 4);
        assert_eq!(g.total_work_items(), 2048);
    }

    #[test]
    fn cover_rounds_up() {
        let g = Grid::cover(1000, 256);
        assert_eq!(g.wg_count, 4);
        assert_eq!(g.total_work_items(), 1024);
        let g1 = Grid::cover(0, 256);
        assert_eq!(g1.wg_count, 1);
    }

    #[test]
    fn cover_with_narrow_wg_narrows_wavefront() {
        // A 32-wide work-group cannot have 64-wide wavefronts.
        let g = Grid::cover(64, 32);
        assert_eq!(g.wf_width, 32);
        assert_eq!(g.wfs_per_wg(), 1);
    }

    #[test]
    fn wg_base_strides_by_wg_size() {
        let g = Grid::new(4);
        assert_eq!(g.wg_base(0), 0);
        assert_eq!(g.wg_base(3), 768);
    }

    #[test]
    fn partial_last_wavefront_counted() {
        let g = Grid { wg_count: 1, wg_size: 100, wf_width: 64 };
        assert_eq!(g.wfs_per_wg(), 2);
    }
}
