//! Measuring helpers: percentiles, `/proc` CPU and memory readings, the
//! repeated set-up timer, and the bench-side span recorder.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hardware threads this process may use; reported with every result,
/// and the compute-unit count of the SIMT workloads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Nearest-rank percentile of an ascending-sorted sample; 0 for an empty
/// sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[(((n - 1) as f64) * p).round() as usize],
    }
}

/// The highest percentile, at most p99, that still has at least ten
/// samples beyond it, with its value. With fewer than 21 samples nothing
/// but the median qualifies.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    let n = sorted.len();
    if n >= 1000 {
        (0.99, percentile(sorted, 0.99))
    } else if n >= 21 {
        let idx = n - 11;
        (idx as f64 / (n - 1) as f64, sorted[idx])
    } else {
        (0.5, percentile(sorted, 0.5))
    }
}

/// Median of a float sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Kernel clock ticks per second in `/proc/<pid>/stat` (USER_HZ, 100 on
/// every Linux ABI).
const TICK_NS: u64 = 10_000_000;

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` line of `/proc/<pid>/status`, e.g. `VmHWM`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// User plus system CPU time another process `pid` has used, in
/// nanoseconds (10 ms resolution): the cluster members' share.
pub fn child_cpu_ns(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0, |t| t * TICK_NS)
}

/// The `steal` and the summed fields of the `cpu` line of `/proc/stat`, in
/// clock ticks: time the hypervisor ran something else while this guest
/// had work, and all time accounted.
pub fn parse_stat_steal(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_ascii_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn steal_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_stat_steal(&s))
        .unwrap_or((0, 0))
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid `struct timespec` for 64-bit Linux and the
    // call writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    } else {
        0
    }
}

/// User plus system CPU time of this process, every thread included, in
/// nanoseconds.
fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread in nanoseconds.
fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set of process `pid` in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Reset this process's peak-RSS mark to its current RSS, so each workload
/// of a multi-workload pass reports its own peak. Best effort: without it
/// a later workload inherits an earlier one's peak.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// What one pass of the host-speed probe costs on the quiet reference host
/// (2 vCPUs of a Xeon at 2.1 GHz) beside a running workload, in
/// nanoseconds of thread CPU time: 215 µs alone, 3–4 % more between a
/// workload's interrupts. Measured times are scaled to this speed.
pub const PROBE_REF_NS: f64 = 222_000.0;

/// One pass of the host-speed probe: a fixed amount of register-only
/// integer work (four independent chains, so it is bound by issue width
/// like the program's hot loops, not by one latency). Returns the CPU time
/// the calling thread spent on it.
fn probe_pass_ns() -> u64 {
    let t0 = thread_cpu_ns();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..200_000u64 {
        a = a.wrapping_mul(6364136223846793005).wrapping_add(i);
        b = (b ^ (b << 13)).wrapping_add(a >> 7);
        c = c.rotate_left(5) ^ i;
        d = d.wrapping_add(c & 0xff).wrapping_mul(3);
    }
    std::hint::black_box((a, b, c, d));
    thread_cpu_ns() - t0
}

/// Pause between two probe passes: the sampler is busy 4 % of the time.
const PROBE_PAUSE: Duration = Duration::from_millis(5);

/// How fast this host runs while a workload is measured. A background
/// thread runs one probe pass every `PROBE_PAUSE`, timed by its own CPU
/// clock, so waiting for a core does not count; a neighbour on the same
/// physical cores makes the passes cost more, and makes the program slower
/// by about the same share. The probe runs no program code, so a change to
/// the program cannot move it.
pub struct HostSampler {
    shared: Arc<SamplerShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

struct SamplerShared {
    stop: AtomicBool,
    /// Sum of pass times and number of passes so far.
    total: Mutex<(u64, u64)>,
}

impl HostSampler {
    /// Starts sampling; the first pass is taken before this returns.
    pub fn start() -> Self {
        let shared = Arc::new(SamplerShared {
            stop: AtomicBool::new(false),
            total: Mutex::new((probe_pass_ns(), 1)),
        });
        let bg = shared.clone();
        let thread = std::thread::spawn(move || {
            while !bg.stop.load(Ordering::Relaxed) {
                std::thread::sleep(PROBE_PAUSE);
                let ns = probe_pass_ns();
                let mut total = bg.total.lock().unwrap_or_else(|e| e.into_inner());
                *total = (total.0 + ns, total.1 + 1);
            }
        });
        HostSampler {
            shared,
            thread: Some(thread),
        }
    }

    fn total(&self) -> (u64, u64) {
        *self.shared.total.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mean pass time since `mark` (an earlier `total()`); over the whole
    /// sampling so far when no pass has ended since.
    fn mean_since(&self, mark: (u64, u64)) -> f64 {
        let now = self.total();
        if now.1 > mark.1 {
            (now.0 - mark.0) as f64 / (now.1 - mark.1) as f64
        } else {
            now.0 as f64 / now.1 as f64
        }
    }
}

impl Drop for HostSampler {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.join().ok();
        }
    }
}

/// Run `setup` at least five times, and until the repetitions add up to
/// one second (at most 31 times), keeping the last state. Returns it with the
/// median set-up time in seconds, scaled to the reference host's speed as
/// sampled meanwhile: a later change that moves work into set-up shows in
/// that number.
pub fn timed_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let sampler = HostSampler::start();
    let mark = sampler.total();
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    loop {
        let t0 = Instant::now();
        let state = setup();
        let dt = t0.elapsed();
        total += dt;
        times.push(dt.as_secs_f64());
        let enough = times.len() >= 5 && (total >= Duration::from_secs(1) || times.len() >= 31);
        if enough {
            let to_ref = PROBE_REF_NS / sampler.mean_since(mark);
            return (state, median(&times) * to_ref);
        }
        drop(state);
    }
}

/// Stopwatch of one segment: wall time, process CPU time and the host
/// sampler's count at its start.
pub struct SegmentTimer {
    t0: Instant,
    cpu0: u64,
    mark: (u64, u64),
    steal0: (u64, u64),
}

impl SegmentTimer {
    pub fn elapsed(&self) -> Duration {
        self.t0.elapsed()
    }
}

/// One segment of a run's timed region.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    pub wall_ns: u64,
    /// CPU the process (and its children) used during the segment.
    pub cpu_ns: u64,
    /// Mean host-speed probe pass during the segment.
    pub probe_ns: f64,
    /// Share of the segment's CPU time the hypervisor gave to others.
    pub steal_frac: f64,
    /// One-way messages applied during the segment.
    pub msgs: u64,
    /// Median latency of the closed-loop operations the segment completed.
    pub op_p50_ns: u64,
}

impl Segment {
    /// Factor that scales a time measured in this segment to the
    /// reference host's speed: below 1 when the host was slower.
    pub fn ref_scale(&self) -> f64 {
        PROBE_REF_NS / self.probe_ns
    }
}

/// Collects a run's segments while sampling the host's speed.
pub struct Meter {
    sampler: HostSampler,
    pub segments: Vec<Segment>,
    /// Every operation latency of the run, unscaled.
    pub op_ns: Vec<u64>,
}

impl Meter {
    pub fn start() -> Self {
        Meter {
            sampler: HostSampler::start(),
            segments: Vec::new(),
            op_ns: Vec::new(),
        }
    }

    /// Start timing a segment.
    pub fn begin(&self) -> SegmentTimer {
        SegmentTimer {
            t0: Instant::now(),
            cpu0: process_cpu_ns(),
            mark: self.sampler.total(),
            steal0: steal_ticks(),
        }
    }

    /// Stop timing the segment `timer` began. What it applied and
    /// completed is filled in by `push`, which may follow a drain.
    pub fn end(&self, timer: &SegmentTimer) -> Segment {
        let wall_ns = timer.t0.elapsed().as_nanos() as u64;
        let cpu_ns = process_cpu_ns() - timer.cpu0;
        let steal = steal_ticks();
        let ticks = steal.1.saturating_sub(timer.steal0.1);
        Segment {
            wall_ns,
            cpu_ns,
            probe_ns: self.sampler.mean_since(timer.mark),
            steal_frac: steal.0.saturating_sub(timer.steal0.0) as f64 / ticks.max(1) as f64,
            msgs: 0,
            op_p50_ns: 0,
        }
    }

    /// Record an ended segment that applied `msgs` messages and completed
    /// the operations in `ops`.
    pub fn push(&mut self, mut segment: Segment, msgs: u64, mut ops: Vec<u64>) {
        ops.sort_unstable();
        segment.msgs = msgs;
        segment.op_p50_ns = percentile(&ops, 0.5);
        self.segments.push(segment);
        self.op_ns.extend(ops);
    }
}

/// Identifier of a recorded span.
pub type SpanId = usize;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
}

/// Bench-side span recorder: name, start, end and parent of every call
/// the benchmark makes into a layer. Spans stay in memory and are
/// written as chrome-trace JSON when the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id` and return its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        now - s.start_ns
    }

    /// Record one call as a span and return its result with the time it
    /// took in nanoseconds.
    pub fn call<R>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(name, parent);
        let out = f();
        let ns = self.end(id);
        (out, ns)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span; `args` carries the span id and its parent.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"gbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                id,
                parent
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<u64> = (0..30_000).collect();
        assert_eq!(tail(&v), (0.99, percentile(&v, 0.99)));
        // Below 1000 samples p99 would leave fewer than ten beyond.
        for n in [21u64, 22, 200, 999] {
            let v: Vec<u64> = (0..n).collect();
            let (p, value) = tail(&v);
            assert!((0.5..0.99).contains(&p), "n={n} p={p}");
            assert_eq!(v.iter().filter(|&&x| x > value).count(), 10, "n={n}");
        }
        // Too few samples for any tail: fall back to the median.
        let v: Vec<u64> = (0..12).collect();
        assert_eq!(tail(&v).0, 0.5);
        assert_eq!(tail(&[]), (0.5, 0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn proc_stat_parser_survives_odd_command_names() {
        let line =
            "1234 (a b) c)) S 1 1234 1234 0 -1 4194304 100 0 0 0 37 5 0 0 20 0 3 0 100 1000 10 \
                    18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_stat_ticks(line), Some(42));
        assert_eq!(parse_stat_ticks("garbage"), None);
        assert!(child_cpu_ns(std::process::id()) < u64::MAX);
        let stat = "cpu  100 0 50 800 5 0 5 40 0 0\ncpu0 50 0 25 400 2 0 2 20 0 0\n";
        assert_eq!(parse_stat_steal(stat), Some((40, 1000)));
        assert_eq!(parse_stat_steal("cpu0 1 2 3"), None);
    }

    #[test]
    fn cpu_clocks_advance_and_the_probe_reads_near_its_reference() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let pass = probe_pass_ns() as f64;
        assert!(thread_cpu_ns() > t0 && process_cpu_ns() - p0 >= thread_cpu_ns() - t0);
        // Any host this runs on is within a factor of ten of the reference.
        assert!(
            (PROBE_REF_NS / 10.0..PROBE_REF_NS * 10.0).contains(&pass),
            "{pass}"
        );
        let mut meter = Meter::start();
        let timer = meter.begin();
        std::thread::sleep(4 * PROBE_PAUSE);
        let seg = meter.end(&timer);
        meter.push(seg, 10, vec![30, 10, 20]);
        let seg = meter.segments[0];
        assert!(seg.wall_ns >= 20_000_000 && seg.cpu_ns > 0);
        assert_eq!((seg.msgs, seg.op_p50_ns), (10, 20));
        assert!(seg.ref_scale() > 0.1 && seg.ref_scale() < 10.0);
        assert_eq!(meter.op_ns, vec![10, 20, 30]);
    }

    #[test]
    fn proc_status_parser_reads_kb_lines() {
        let status = "Name:\tgbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(status, "VmRSS"), None);
        assert_eq!(parse_status_kb(status, "Threads"), None);
        assert!(peak_rss_mb(std::process::id()) > 0.0);
    }

    #[test]
    fn spans_record_parents_and_export() {
        let mut s = Spans::new();
        let root = s.begin("root", None);
        let ((), ns) = s.call("child", Some(root), || {
            std::thread::sleep(Duration::from_millis(1))
        });
        assert!(ns >= 1_000_000);
        s.end(root);
        let json = s.chrome_json();
        assert!(json.contains("\"name\":\"child\"") && json.contains("\"parent\":0"));
        assert_eq!(s.len(), 2);
    }
}
