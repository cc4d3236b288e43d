//! Shared setup for the model-driven figures (12-15, Table 5).

use std::path::PathBuf;

use gravel_apps::{GraphInputs, Scale};
use gravel_cluster::{Calibration, WorkloadTrace};

/// Cluster sizes evaluated in the paper.
pub const SIZES: [usize; 4] = [1, 2, 4, 8];

/// Scale selection from argv (`--quick` → test scale).
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--quick") {
        Scale::Test
    } else {
        Scale::Bench
    }
}

/// Cached workload traces for a set of cluster sizes.
///
/// Traces are deterministic in (workload, scale, nodes), so they are
/// memoized on disk under `results/trace_cache/` (or
/// `$GRAVEL_RESULTS_DIR/trace_cache/`) — the expensive ones (SSSP on the
/// 16 M-vertex mesh) take a minute to generate and seconds to reload,
/// and every figure binary shares the cache. Delete the directory to
/// force regeneration.
pub struct TraceSet {
    scale: Scale,
    cache: PathBuf,
    graphs: std::cell::OnceCell<GraphInputs>,
}

impl TraceSet {
    /// Prepare a trace set; graphs are generated lazily on the first
    /// cache miss.
    pub fn new(scale: Scale) -> Self {
        let results = std::env::var("GRAVEL_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        TraceSet::cached_in(scale, results.join("trace_cache"))
    }

    /// A trace set whose cache is the directory `cache`.
    pub fn cached_in(scale: Scale, cache: PathBuf) -> Self {
        TraceSet { scale, cache, graphs: std::cell::OnceCell::new() }
    }

    fn cache_path(&self, workload: &str, nodes: usize) -> PathBuf {
        self.cache.join(format!("{:?}-{workload}-{nodes}.json", self.scale))
    }

    /// The trace for `workload` at `nodes` nodes (disk-cached).
    pub fn trace(&self, workload: &str, nodes: usize) -> WorkloadTrace {
        let path = self.cache_path(workload, nodes);
        if let Ok(bytes) = std::fs::read(&path) {
            if let Ok(trace) = serde_json::from_slice::<WorkloadTrace>(&bytes) {
                return trace;
            }
        }
        let graphs = self.graphs.get_or_init(|| {
            eprintln!("[generating inputs at {:?} scale]", self.scale);
            GraphInputs::generate(self.scale, 1)
        });
        let trace = gravel_apps::inputs::workload_trace(workload, self.scale, graphs, nodes);
        if let Some(parent) = path.parent() {
            if std::fs::create_dir_all(parent).is_ok() {
                if let Ok(json) = serde_json::to_vec(&trace) {
                    let _ = std::fs::write(&path, json);
                }
            }
        }
        trace
    }

    /// The calibration used by every figure.
    pub fn calibration(&self) -> Calibration {
        Calibration::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_set_builds_all_workloads_at_test_scale() {
        let dir = std::env::temp_dir().join(format!("gravel-trace-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = TraceSet::cached_in(Scale::Test, dir.clone());
        let again = TraceSet::cached_in(Scale::Test, dir.clone());
        for w in gravel_apps::WORKLOADS {
            assert!(!first.cache_path(w, 2).exists(), "{w}: cache starts empty");
            let t = first.trace(w, 2);
            assert_eq!(t.nodes, 2, "{w}");
            assert!(first.cache_path(w, 2).exists(), "{w}: generated trace is cached");
            let reloaded = again.trace(w, 2);
            assert_eq!(
                serde_json::to_string(&reloaded).unwrap(),
                serde_json::to_string(&t).unwrap(),
                "{w}: reload differs from the generated trace"
            );
        }
        assert!(first.graphs.get().is_some(), "the first set generated its inputs");
        assert!(again.graphs.get().is_none(), "the second set only reloaded");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
