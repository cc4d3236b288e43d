//! `cluster_gups`: three `gravel-node` processes over Unix-domain sockets,
//! the only workload with real processes, sockets, `sender.rs` go-back-N
//! and buddy forwarding. A run is a sequence of cluster jobs, each its own
//! segment (`measure::Meter`).

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gravel_apps::gups::{self, GupsInput};
use gravel_node::report::{read_report, OutReport};

use crate::measure::{child_cpu_ns, peak_rss_mb, timed_setup, Meter, Segment};
use crate::workloads::{Outcome, Params};

const NODES: usize = 3;
const TABLE: usize = 4096;
/// Updates of one cluster job: about two seconds on the reference host,
/// start-up and the completion handshake included.
const JOB_UPDATES: usize = 2_400_000;
/// Hard wall-clock limit of one job, enforced here as well as by the
/// members' own `--deadline-secs`; a run ends at the first job that fails.
const JOB_LIMIT: Duration = Duration::from_secs(45);

/// A scratch directory beside the benchmark binary (inside the build
/// directory, never in the source tree), removed on drop. The path is
/// kept relative to the working directory when it can be, so socket
/// paths stay under the 108-byte limit.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn create(tag: &str) -> std::io::Result<RunDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let name = format!(
            "gbench-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let mut dir = base.join(name);
        if let Ok(cwd) = std::env::current_dir() {
            if let Ok(rel) = dir.strip_prefix(&cwd) {
                dir = rel.to_path_buf();
            }
        }
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The cluster's processes: killed and reaped on drop, so no exit path
/// leaks one.
struct Children(Vec<Child>);

impl Drop for Children {
    fn drop(&mut self) {
        for c in &mut self.0 {
            c.kill().ok();
        }
        for c in &mut self.0 {
            c.wait().ok();
        }
    }
}

/// `gravel-node` beside this executable, or one directory up (where it is
/// when this is a test binary under `deps/`).
pub fn node_binary() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    exe.ancestors()
        .skip(1)
        .take(2)
        .map(|d| d.join("gravel-node"))
        .find(|p| p.is_file())
}

/// The expected global histogram of one job's update streams.
fn expected(input: &GupsInput) -> Vec<u64> {
    let mut expect = vec![0u64; TABLE];
    for node in 0..NODES {
        for g in gups::node_updates(input, NODES, node) {
            expect[g] += 1;
        }
    }
    expect
}

/// What one finished job measured.
struct Job {
    /// First spawn to the last completed report; the CPU is the members'
    /// plus this process's.
    segment: Segment,
    peak_rss_mb: f64,
    reports: Vec<OutReport>,
}

/// Spawn the members in `dir`, wait for every report to read
/// `completed: true`, and reap them.
fn run_job(meter: &Meter, bin: &Path, dir: &Path, input: &GupsInput) -> Result<Job, String> {
    let timer = meter.begin();
    let mut children = Children(Vec::new());
    for node in 0..NODES {
        let child = Command::new(bin)
            .current_dir(dir)
            .args([
                "--node",
                &node.to_string(),
                "--nodes",
                &NODES.to_string(),
                "--dir",
                ".",
            ])
            .args([
                "--updates",
                &input.updates.to_string(),
                "--table",
                &TABLE.to_string(),
            ])
            .args([
                "--seed",
                &input.seed.to_string(),
                "--deadline-secs",
                &JOB_LIMIT.as_secs().to_string(),
            ])
            .args(["--out", &format!("node{node}.json")])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn gravel-node: {e}"))?;
        children.0.push(child);
    }
    let mut reports = loop {
        let done: Vec<OutReport> = (0..NODES)
            .filter_map(|n| read_report(&dir.join(format!("node{n}.json"))).ok())
            .filter(|r| r.completed)
            .collect();
        if done.len() == NODES {
            break done;
        }
        let exited = children
            .0
            .iter_mut()
            .any(|c| matches!(c.try_wait(), Ok(Some(_))));
        if exited || timer.elapsed() >= JOB_LIMIT {
            return Err(format!(
                "cluster did not complete: {}/{NODES} reports after {:.1} s{}",
                done.len(),
                timer.elapsed().as_secs_f64(),
                if exited {
                    ", a member exited early"
                } else {
                    ""
                }
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut segment = meter.end(&timer);
    // The members are still alive (they linger to serve peers), so their
    // /proc entries hold the CPU and peak memory of the whole job.
    let pids = || children.0.iter().map(|c| c.id());
    segment.cpu_ns += pids().map(child_cpu_ns).sum::<u64>();
    let peak_rss_mb = peak_rss_mb(std::process::id()) + pids().map(peak_rss_mb).sum::<f64>();
    drop(children);
    reports.sort_by_key(|r| r.node);
    Ok(Job {
        segment,
        peak_rss_mb,
        reports,
    })
}

/// Jobs of `JOB_UPDATES` updates (seed + job number) until the time is
/// up. The closed-loop operation is one whole job.
pub fn cluster_gups(p: &Params) -> Outcome {
    let updates = if p.smoke { 20_000 } else { JOB_UPDATES };
    let input = |job: u64| GupsInput {
        updates,
        table_len: TABLE,
        seed: p.seed.wrapping_add(job),
    };
    let mut out = Outcome::default();
    let Some(bin) = node_binary() else {
        (out.attempted, out.failed) = (1, 1);
        out.notes
            .push("gravel-node binary not found beside gbench".into());
        return out;
    };
    let (mut prepared, setup_s) = timed_setup(|| {
        let dir = RunDir::create("cluster")?;
        Ok::<_, std::io::Error>((dir, expected(&input(0))))
    });
    out.setup_s = setup_s;

    let part = gups::partition(&input(0), NODES);
    let mut counts = [0u64; 5];
    let mut meter = Meter::start();
    let start = Instant::now();
    let mut jobs = 0u64;
    while jobs == 0 || start.elapsed() < p.deadline() {
        if jobs > 0 {
            prepared = RunDir::create("cluster").map(|dir| (dir, expected(&input(jobs))));
        }
        out.attempted += updates as u64;
        let run = prepared
            .as_ref()
            .map_err(|e| format!("cannot create run directory: {e}"))
            .and_then(|(dir, expect)| Ok((run_job(&meter, &bin, &dir.0, &input(jobs))?, expect)));
        jobs += 1;
        let (job, expect) = match run {
            Ok(done) => done,
            Err(e) => {
                out.failed += updates as u64;
                out.notes.push(e);
                break;
            }
        };
        let wrong: u64 = expect
            .iter()
            .enumerate()
            .map(|(g, &want)| {
                let have = job.reports[part.owner(g)]
                    .heap
                    .get(part.local_offset(g) as usize);
                have.map_or(want, |h| h.abs_diff(want))
            })
            .sum();
        out.failed += wrong.min(updates as u64);
        out.peak_rss_mb = out.peak_rss_mb.max(job.peak_rss_mb);
        for r in &job.reports {
            let s = &r.stats;
            let of_job = [
                s.retransmits,
                s.acks_sent,
                s.fwd_sent,
                s.epochs_cut,
                s.link_drops,
            ];
            for (total, v) in counts.iter_mut().zip(of_job) {
                *total += v;
            }
        }
        meter.push(job.segment, updates as u64, vec![job.segment.wall_ns]);
    }
    out.take(meter);
    if p.traced {
        let per_update = |v: u64| v as f64 / out.msgs().max(1) as f64;
        out.counts = vec![
            ("node.retransmits", counts[0] as f64),
            ("node.acks_per_update", per_update(counts[1])),
            ("node.fwd_sent_per_update", per_update(counts[2])),
            ("node.epochs_cut", counts[3] as f64),
            ("node.link_drops", counts[4] as f64),
        ];
    }
    out
}
