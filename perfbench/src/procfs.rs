//! Process-wide and per-thread readings from `/proc` (Linux): CPU time,
//! peak resident set, load average, and a sampler that attributes CPU to
//! the engine's named threads.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `/proc` CPU fields count fixed 100 Hz ticks (`USER_HZ`).
const CLK_TCK: f64 = 100.0;

/// One parsed `/proc/.../stat` line.
#[derive(Debug, Clone, PartialEq)]
pub struct Stat {
    /// Thread or process name (`comm`), which may contain spaces and
    /// parentheses.
    pub name: String,
    /// Scheduler state letter (`R` = runnable).
    pub state: char,
    /// `utime + stime` in clock ticks.
    pub ticks: u64,
}

/// Parses a `/proc/.../stat` line. The name is taken between the first
/// `(` and the *last* `)`, so names with spaces or parentheses parse.
pub fn parse_stat(line: &str) -> Option<Stat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let name = line.get(open + 1..close)?.to_string();
    let rest: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    let state = rest.first()?.chars().next()?;
    // Fields 14 and 15 of the line (1-based); `rest` starts at field 3.
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some(Stat {
        name,
        state,
        ticks: utime + stime,
    })
}

/// `struct timespec` on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds this process has used so far, threads that already
/// exited included, at nanosecond resolution
/// (`CLOCK_PROCESS_CPUTIME_ID`).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> Option<f64> {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C
    // layout of 64-bit Linux, and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds (`utime + stime`, 10 ms ticks) this process has used.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> Option<f64> {
    let line = std::fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_stat(&line)?.ticks as f64 / CLK_TCK)
}

/// A thread's CPU nanoseconds from its `schedstat` line (first field).
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in kB (`VmHWM`).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// The one-minute load average.
pub fn loadavg_1m() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/loadavg").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// CPU and runnable samples of every thread sharing one role.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadGroup {
    /// CPU seconds, as of each thread's last sample.
    pub cpu_s: f64,
    /// Samples in which a thread of the group was runnable.
    pub runnable: u64,
    /// Samples taken of the group's threads.
    pub samples: u64,
}

/// The role a thread name belongs to: `shard-3` → `shard`,
/// `net-ingest-7` → `net-ingest`; names without a numeric suffix are
/// their own role.
pub fn thread_role(name: &str) -> &str {
    match name.rsplit_once('-') {
        Some((role, n)) if !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) => role,
        _ => name,
    }
}

#[derive(Debug)]
struct TaskSample {
    name: String,
    /// CPU the thread had used when sampling started (0 for threads
    /// born later), subtracted so only the sampled span counts.
    base_ns: u64,
    cpu_ns: u64,
    runnable: u64,
    samples: u64,
}

fn sweep(acc: &mut HashMap<u32, TaskSample>, first: bool) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for entry in tasks.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(line) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        if let Some(st) = parse_stat(&line) {
            // `schedstat` counts nanoseconds; `stat` only 10 ms ticks.
            let cpu_ns = std::fs::read_to_string(entry.path().join("schedstat"))
                .ok()
                .and_then(|l| parse_schedstat(&l))
                .unwrap_or(st.ticks * (1e9 / CLK_TCK) as u64);
            let t = acc.entry(tid).or_insert(TaskSample {
                name: st.name,
                base_ns: if first { cpu_ns } else { 0 },
                cpu_ns: 0,
                runnable: 0,
                samples: 0,
            });
            t.cpu_ns = cpu_ns;
            t.samples += 1;
            if st.state == 'R' {
                t.runnable += 1;
            }
        }
    }
}

/// Samples `/proc/self/task/*/{stat,schedstat}` every `period` on its
/// own thread (named `bench-sampler`) until [`Sampler::stop`]; each
/// thread's CPU counts from the first sample on.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<HashMap<u32, TaskSample>>,
}

impl Sampler {
    /// Starts sampling.
    pub fn start(period: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("bench-sampler".into())
            .spawn(move || {
                let mut acc = HashMap::new();
                sweep(&mut acc, true);
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    sweep(&mut acc, false);
                }
                sweep(&mut acc, false);
                acc
            })
            .expect("spawn sampler thread");
        Sampler { stop, handle }
    }

    /// Stops sampling and folds the samples into per-role groups.
    pub fn stop(self) -> BTreeMap<String, ThreadGroup> {
        self.stop.store(true, Ordering::Relaxed);
        let acc = self.handle.join().expect("sampler thread panicked");
        let mut groups: BTreeMap<String, ThreadGroup> = BTreeMap::new();
        for t in acc.into_values() {
            let g = groups.entry(thread_role(&t.name).to_string()).or_default();
            g.cpu_s += t.cpu_ns.saturating_sub(t.base_ns) as f64 * 1e-9;
            g.runnable += t.runnable;
            g.samples += t.samples;
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_names_with_spaces_and_parens_parse() {
        let line = "42 (tokio runtime (x)) R 1 1 1 0 -1 0 0 0 0 0 7 3 0 0 20 0 1 0 100 0 0";
        let st = parse_stat(line).expect("parse");
        assert_eq!(st.name, "tokio runtime (x)");
        assert_eq!(st.state, 'R');
        assert_eq!(st.ticks, 10);
        let plain = "7 (shard-1) S 1 1 1 0 -1 0 0 0 0 0 120 30 0 0 20 0 1 0 100 0 0";
        let st = parse_stat(plain).expect("parse");
        assert_eq!(
            (st.name.as_str(), st.state, st.ticks),
            ("shard-1", 'S', 150)
        );
    }

    #[test]
    fn schedstat_first_field_is_cpu_ns() {
        assert_eq!(parse_schedstat("47946 91382 2\n"), Some(47946));
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn truncated_stat_lines_are_rejected() {
        assert_eq!(parse_stat("42 (x) R 1 2"), None);
        assert_eq!(parse_stat("no parens at all"), None);
    }

    #[test]
    fn roles_strip_numeric_suffixes_only() {
        assert_eq!(thread_role("shard-12"), "shard");
        assert_eq!(thread_role("net-ingest-3"), "net-ingest");
        assert_eq!(thread_role("net-accept"), "net-accept");
        assert_eq!(thread_role("source-pump"), "source-pump");
        assert_eq!(thread_role("x-"), "x-");
    }

    #[test]
    fn this_process_is_readable() {
        let c0 = process_cpu_s().expect("process CPU clock");
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_s().unwrap() > c0, "CPU clock advances ({x})");
        assert!(peak_rss_kb().expect("VmHWM") > 0);
        let groups = {
            let s = Sampler::start(Duration::from_millis(5));
            std::thread::sleep(Duration::from_millis(20));
            s.stop()
        };
        assert!(groups.contains_key("bench-sampler"), "{groups:?}");
    }
}
