//! The orchestrator: runs each measurement in a fresh child process (so
//! process-wide readings such as `VmHWM` and process CPU belong to one
//! run only), takes medians, checks, and prints the result object last.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::procfs;
use crate::record::{result_json, Records, END_TO_END, PER_LAYER};
use crate::stats::{median, ratio};
use crate::workload::{shards, Workload};

/// Arguments of one benchmark run.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget of the run, seconds.
    pub seconds: u64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// Scratch directory for WALs and span files.
    pub scratch: PathBuf,
}

/// Real runs per `--trace 0` run; end-to-end values are their medians.
pub const REPS: u64 = 4;

/// Wall time a real run spends outside its schedule (scenario build,
/// set-up, shutdown drain, process start), ms, per workload.
fn overhead_ms(w: Workload) -> u64 {
    match w {
        Workload::OverloadMix => 500,
        Workload::FanIn => 2_500,
        Workload::FederatedDurable => 1_500,
    }
}

/// Schedule length of each real run: `REPS` runs fill the budget.
pub fn run_ms(w: Workload, seconds: u64) -> u64 {
    (seconds * 1_000 / REPS)
        .saturating_sub(overhead_ms(w))
        .max(w.warmup_ms() + 2_000)
}

/// Every child is killed by this long after the benchmark started, so
/// the whole run ends well within 180 s.
const RUN_DEADLINE: Duration = Duration::from_secs(165);

fn child(exe: &Path, args: &[String], deadline: Instant) -> Result<Records, String> {
    let mut c = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", args.join(" ")))?;
    let mut out = c.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = std::io::Read::read_to_string(&mut out, &mut s);
        s
    });
    let status = loop {
        match c.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) | Err(_) => {
                let _ = c.kill();
                let _ = c.wait();
                break Err(format!("{} timed out and was killed", args.join(" ")));
            }
        }
    };
    let text = reader.join().expect("stdout reader");
    for line in text.lines() {
        println!("# {} | {line}", args[0]);
    }
    match status? {
        s if s.success() => Ok(Records::parse(&text)),
        s => Err(format!("{} exited {s}", args.join(" "))),
    }
}

fn host_line(exe: &Path) -> String {
    let cmd = |prog: &str, args: &[&str]| {
        Command::new(prog)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "# host {{\"nproc\": {nproc}, \"shards\": {}, \"commit\": {}, \"rustc\": {}, \
         \"loadavg_1m\": {}, \"exe\": {}}}",
        shards(),
        crate::record::json_str(&cmd("git", &["rev-parse", "HEAD"])),
        crate::record::json_str(&cmd("rustc", &["--version"])),
        procfs::loadavg_1m().map_or("null".into(), |l| l.to_string()),
        crate::record::json_str(&exe.display().to_string()),
    )
}

/// Runs the benchmark and prints its output; returns the exit code.
pub fn run(b: &Bench) -> i32 {
    let deadline = Instant::now() + RUN_DEADLINE;
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: current exe: {e}");
            return 2;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&b.scratch) {
        eprintln!("perfbench: scratch {}: {e}", b.scratch.display());
        return 2;
    }
    println!("{}", host_line(&exe));
    let w = b.workload;
    let run_ms = run_ms(w, b.seconds);
    let common = |mode: &str| -> Vec<String> {
        vec![
            mode.to_string(),
            "--workload".into(),
            w.name().into(),
            "--seed".into(),
            b.seed.to_string(),
            "--run-ms".into(),
            run_ms.to_string(),
            "--scratch".into(),
            b.scratch.display().to_string(),
        ]
    };

    let mut runs: Vec<Result<Records, String>> = Vec::new();
    let mut values: Vec<(&crate::record::MetricDef, f64)> = Vec::new();
    if !b.trace {
        for _ in 0..REPS {
            runs.push(child(&exe, &common("real"), deadline));
        }
        let ok: Vec<&Records> = runs.iter().filter_map(|r| r.as_ref().ok()).collect();
        for def in END_TO_END {
            let samples: Vec<f64> = ok
                .iter()
                .filter_map(|r| r.values.get(def.name).copied())
                .collect();
            values.push((def, median(&samples).unwrap_or(f64::NAN)));
        }
    } else {
        let plain = child(&exe, &common("real"), deadline);
        let mut sampled_args = common("real");
        sampled_args.push("--sampler".into());
        let sampled = child(&exe, &sampled_args, deadline);
        // The replay gets what is left of the budget, at least 2 s.
        let spent = 2 * (run_ms + overhead_ms(w));
        let budget = (b.seconds * 1_000).saturating_sub(spent).max(2_000);
        let mut replay_args = common("replay");
        replay_args.extend(["--budget-ms".into(), budget.to_string()]);
        let replay = child(&exe, &replay_args, deadline);
        let empty = Records::default();
        let get = |r: &Result<Records, String>| r.as_ref().unwrap_or(&empty).values.clone();
        let (pv, sv, rv) = (get(&plain), get(&sampled), get(&replay));
        for def in PER_LAYER {
            let v = if def.name == "sampler.overhead_share" {
                match (sv.get("cpu_ns_per_tuple"), pv.get("cpu_ns_per_tuple")) {
                    (Some(on), Some(off)) => ratio(on - off, *off),
                    _ => f64::NAN,
                }
            } else {
                [&pv, &sv, &rv]
                    .iter()
                    .find_map(|m| m.get(def.name).copied())
                    .unwrap_or(f64::NAN)
            };
            values.push((def, v));
        }
        runs.extend([plain, sampled, replay]);
    }

    let mut failed = 0u64;
    for (i, r) in runs.iter().enumerate() {
        match r {
            Ok(rec) => {
                for (name, (ok, detail)) in &rec.checks {
                    println!(
                        "# check run{i} {name}: {} ({detail})",
                        if *ok { "pass" } else { "FAIL" }
                    );
                }
                failed += u64::from(!rec.passed());
            }
            Err(e) => {
                println!("# check run{i}: FAIL ({e})");
                failed += 1;
            }
        }
    }
    let missing: Vec<&str> = values
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(d, _)| d.name)
        .collect();
    if !missing.is_empty() {
        println!("# check metrics: FAIL (no finite value for {missing:?})");
    }
    for (def, v) in &values {
        let better = match def.better {
            crate::record::Better::Lower => "lower",
            crate::record::Better::Higher => "higher",
        };
        println!(
            "# metric {} = {v} {} ({better} is better)",
            def.name, def.unit
        );
    }
    let correct = failed == 0 && missing.is_empty();
    println!(
        "{}",
        result_json(correct, runs.len() as u64, failed, &values)
    );
    0
}
