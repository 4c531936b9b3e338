//! One real run of a workload on the threaded engine, in a process of its
//! own: set-up, the open-loop run, shutdown, then the correctness and
//! regime checks. Everything is read from outside the crates: the
//! `EngineReport`/`NodeReport` counters, `BatchPool::stats`,
//! `batch_allocs`, `/proc`, and the WAL directory the run leaves.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use themis_core::prelude::*;
use themis_core::wal::{self, encode_record, SicDelta, WalRecord};
use themis_engine::prelude::*;
use themis_workloads::prelude::Scenario;

use crate::procfs::{self, Sampler, ThreadGroup};
use crate::record::Records;
use crate::stats::{median, ratio};
use crate::workload::{expected_shed_share, Workload};

/// Sampling period of the per-thread `/proc` sampler.
pub const SAMPLE_PERIOD: Duration = Duration::from_millis(25);

/// How long the durable workload keeps the engine up after the pump's
/// schedule ends, so the pump's last batches and its bye arrive.
const FED_DRAIN: Duration = Duration::from_millis(800);

/// Allowed gap between the measured and the configured shed share on
/// `overload-mix` (inter-fragment partials also arrive and may be shed).
const SHED_TOLERANCE: f64 = 0.1;

/// `fan-in` counts as saturated below this delivered share or above this
/// late-tick share.
const FAN_MIN_DELIVERED: f64 = 0.95;
const FAN_MAX_LATE_TICKS: f64 = 0.05;

/// Options of one real run.
pub struct RealRun {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Open-loop schedule length (warm-up included), ms.
    pub run_ms: u64,
    /// Run the per-thread `/proc` sampler.
    pub sampler: bool,
    /// Directory for the WAL (removed again after the checks).
    pub scratch: PathBuf,
}

/// What the engine thread hands back.
struct Outcome {
    report: EngineReport,
    setup_s: f64,
    /// Wall seconds from the end of set-up until `finish` returned.
    span_s: f64,
    /// Seconds from the `Engine::start` call until the schedule ended.
    schedule_end_s: f64,
    /// Process CPU seconds over the same span.
    cpu_s: f64,
    pool: PoolStats,
    allocs: u64,
    threads: Option<BTreeMap<String, ThreadGroup>>,
    pump_ok: Result<(), String>,
    /// `VmHWM` right after the measured run, kB.
    peak_rss_kb: u64,
    /// Every set-up time of this process: the measured run's, then the
    /// extra set-ups.
    setups_s: Vec<f64>,
    wal: WalTotals,
}

fn spawn_pump(engine: &Engine, w: Workload, seed: u64, run_ms: u64) -> Result<Child, String> {
    let p = Workload::federated_params(seed, run_ms);
    let addr = engine.ingest_addr().ok_or("ingest listener not bound")?;
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    Command::new(exe)
        .arg("pump")
        .arg(format!("--addr={addr}"))
        .arg(format!("--run-ms={run_ms}"))
        .arg(format!("--start-unix-us={}", engine.epoch_unix_us()))
        .arg(format!("--seed={}", p.seed))
        .arg(format!("--nodes={}", p.nodes))
        .arg(format!("--queries={}", p.queries))
        .arg(format!("--rate={}", p.rate_tps))
        .arg(format!("--batches={}", p.batches_per_sec))
        .arg(format!("--capacity={}", p.capacity_tps))
        .arg(format!("--stw-ms={}", p.stw_ms))
        .arg(format!("--warmup-ms={}", p.warmup_ms))
        .arg(format!("--duration-ms={}", p.duration_ms))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn source-pump for {}: {e}", w.name()))
}

/// Waits for `child`, killing it after `timeout`; either way it has
/// ended when this returns.
fn reap(mut child: Child, timeout: Duration) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("source-pump exited {status}")),
            Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(20)),
            Ok(None) | Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("source-pump hung and was killed".into());
            }
        }
    }
}

fn drive(opts: &RealRun, scenario: Scenario, wal_dir: &Path) -> Outcome {
    let w = opts.workload;
    let config = w.engine_config(wal_dir);
    let allocs0 = batch_allocs();
    let t0 = Instant::now();
    let mut engine = Engine::start(&scenario, config);
    let setup_s = t0.elapsed().as_secs_f64();
    let pool = engine.batch_pool().clone();
    let cpu0 = procfs::process_cpu_s().unwrap_or(0.0);
    let t1 = Instant::now();
    let sampler = opts.sampler.then(|| Sampler::start(SAMPLE_PERIOD));
    let watcher = w
        .federated()
        .then(|| WalWatcher::start(wal_dir.to_path_buf()));
    let pump = w
        .federated()
        .then(|| spawn_pump(&engine, w, opts.seed, opts.run_ms));
    engine.run_for(Duration::from_millis(opts.run_ms));
    let schedule_end_s = t0.elapsed().as_secs_f64();
    let pump_ok = match pump {
        None => Ok(()),
        Some(Err(e)) => Err(e),
        Some(Ok(child)) => {
            // The pump's schedule is over: stop sampling SIC so the idle
            // wire does not dilute it, and let the tail arrive.
            engine.pause_sampling();
            engine.run_for(FED_DRAIN);
            reap(child, Duration::from_secs(20))
        }
    };
    // Threads exit inside finish(): read their CPU while they are up.
    let threads = sampler.map(Sampler::stop);
    let report = engine.finish();
    let span_s = t1.elapsed().as_secs_f64();
    let cpu_s = (procfs::process_cpu_s().unwrap_or(cpu0) - cpu0).max(0.0);
    let peak_rss_kb = procfs::peak_rss_kb().unwrap_or(0);
    let sic_updates = report.nodes.iter().map(|n| n.sic_updates).sum();
    let wal = watcher.map_or_else(WalTotals::default, |w| w.stop(sic_updates));
    // More set-ups of the same scenario, so `setup_s` is a median.
    let mut setups_s = vec![setup_s];
    for i in 1..w.setup_samples() {
        let t = Instant::now();
        let e = Engine::start(
            &scenario,
            w.engine_config(&wal_dir.join(format!("setup-{i}"))),
        );
        setups_s.push(t.elapsed().as_secs_f64());
        e.finish();
    }
    Outcome {
        report,
        setup_s,
        schedule_end_s,
        span_s,
        cpu_s,
        pool: pool.stats(),
        allocs: batch_allocs().saturating_sub(allocs0),
        threads,
        pump_ok,
        peak_rss_kb,
        setups_s,
        wal,
    }
}

/// What the durable run wrote to its WAL directory.
#[derive(Default)]
struct WalTotals {
    checkpoints: u64,
    bytes: u64,
}

/// Watches the WAL directory from outside while the engine runs: each
/// checkpoint file lives until the next one replaces it (one cadence),
/// so polling well inside the cadence sees every checkpoint and its
/// size. Delta frames are not listed (the tail is truncated by each
/// checkpoint); they are counted as one frame per applied SIC update.
struct WalWatcher {
    stop: Arc<AtomicBool>,
    handle: thread::JoinHandle<BTreeMap<(String, u64), u64>>,
}

/// Polling period of the WAL watcher (the cadence is 500 ms).
const WAL_POLL: Duration = Duration::from_millis(50);

fn poll_wal(dir: &Path, seen: &mut BTreeMap<(String, u64), u64>) {
    let Ok(shards) = std::fs::read_dir(dir) else {
        return;
    };
    for shard in shards.flatten() {
        let shard_name = shard.file_name().to_string_lossy().into_owned();
        let Ok(files) = std::fs::read_dir(shard.path()) else {
            continue;
        };
        for f in files.flatten() {
            let name = f.file_name().to_string_lossy().into_owned();
            let seq = name
                .strip_prefix("checkpoint-")
                .and_then(|r| r.strip_suffix(".ckpt"))
                .and_then(|d| d.parse::<u64>().ok());
            if let (Some(seq), Ok(meta)) = (seq, f.metadata()) {
                seen.insert((shard_name.clone(), seq), meta.len());
            }
        }
    }
}

impl WalWatcher {
    fn start(dir: PathBuf) -> WalWatcher {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = thread::Builder::new()
            .name("bench-walwatch".into())
            .spawn(move || {
                let mut seen = BTreeMap::new();
                while !flag.load(Ordering::Relaxed) {
                    poll_wal(&dir, &mut seen);
                    thread::sleep(WAL_POLL);
                }
                poll_wal(&dir, &mut seen);
                seen
            })
            .expect("spawn WAL watcher");
        WalWatcher { stop, handle }
    }

    /// Stops watching. Checkpoints written = Σ over shards of (newest
    /// sequence + 1); a checkpoint the poll missed is charged the mean
    /// size of those it saw.
    fn stop(self, sic_updates: u64) -> WalTotals {
        self.stop.store(true, Ordering::Relaxed);
        let seen = self.handle.join().expect("WAL watcher panicked");
        let mut newest: BTreeMap<&str, u64> = BTreeMap::new();
        for (shard, seq) in seen.keys() {
            let n = newest.entry(shard.as_str()).or_default();
            *n = (*n).max(seq + 1);
        }
        let checkpoints: u64 = newest.values().sum();
        let seen_bytes: u64 = seen.values().sum();
        let mean = ratio(seen_bytes as f64, seen.len() as f64);
        let missed = checkpoints.saturating_sub(seen.len() as u64);
        let mut delta = Vec::new();
        encode_record(
            &WalRecord::SicDelta(SicDelta {
                node: 0,
                query: QueryId(0),
                sic: Sic::ZERO,
            }),
            &mut delta,
        );
        WalTotals {
            checkpoints,
            bytes: seen_bytes + (missed as f64 * mean) as u64 + sic_updates * delta.len() as u64,
        }
    }
}

/// Runs the workload once and returns its values and checks.
pub fn run(opts: &RealRun) -> Records {
    let w = opts.workload;
    let wal_dir = opts.scratch.join(format!("wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let scenario = w.scenario(opts.seed, opts.run_ms);
    let demand_tps = scenario.total_demand_tps();
    let n_queries = scenario.queries.len();
    let expected_shed = expected_shed_share(&scenario);

    let engine_thread = {
        let opts = RealRun {
            scratch: opts.scratch.clone(),
            ..*opts
        };
        let wal_dir = wal_dir.clone();
        thread::Builder::new()
            .name("engine-coord".into())
            .spawn(move || drive(&opts, scenario, &wal_dir))
            .expect("spawn engine thread")
    };
    let o = engine_thread.join().expect("engine thread panicked");
    let rep = &o.report;
    let mut r = Records::default();

    let sum = |f: fn(&NodeReport) -> u64| rep.nodes.iter().map(f).sum::<u64>();
    let arrived = sum(|n| n.arrived_tuples);
    let shed = sum(|n| n.shed_tuples);
    let ticks = sum(|n| n.ticks);
    let late = sum(|n| n.late_ticks);
    let sic_updates = sum(|n| n.sic_updates);
    // The schedule offers `demand` from each source's install onwards.
    // In-process sources are installed during set-up, so they are
    // credited from its midpoint; the remote pump's schedule starts at
    // the engine epoch and lasts exactly `run_ms`.
    let offered_s = if w.federated() {
        opts.run_ms as f64 / 1e3
    } else {
        o.schedule_end_s - o.setup_s / 2.0
    };
    let offered = demand_tps * offered_s;
    let delivered = ratio(arrived as f64, offered);
    let sics: Vec<f64> = rep.per_query_sic.iter().map(|&(_, s)| s).collect();
    let sic_mean = ratio(sics.iter().sum(), sics.len() as f64);

    // End to end.
    r.value("setup_s", median(&o.setups_s).unwrap_or(o.setup_s));
    r.value("setup.samples", o.setups_s.len() as f64);
    r.value("cpu_ns_per_tuple", ratio(o.cpu_s * 1e9, arrived as f64));
    r.value("throughput_tps", ratio(arrived as f64, o.span_s));
    r.value("delivered_ratio", delivered);
    r.value("jain", rep.fairness.jain);
    r.value("sic_mean", sic_mean);
    r.value("peak_rss_mb", o.peak_rss_kb as f64 / 1024.0);

    // Counters.
    let acquires = o.pool.reused + o.pool.fresh;
    let decisions = sum(|n| n.shed_decisions);
    r.value("engine.late_tick_share", ratio(late as f64, ticks as f64));
    r.value(
        "core.coordinator.msgs_per_s",
        ratio(rep.coordinator_messages as f64, o.span_s),
    );
    r.value(
        "engine.sic_updates_per_s",
        ratio(sic_updates as f64, o.span_s),
    );
    r.value(
        "core.pool.reuse_share",
        ratio(o.pool.reused as f64, acquires as f64),
    );
    r.value(
        "core.pool.acquires_per_tuple",
        ratio(acquires as f64, arrived as f64),
    );
    r.value(
        "core.batch.allocs_per_tuple",
        ratio(o.allocs as f64, arrived as f64),
    );
    r.value(
        "core.shedder.decide_ns",
        ratio(sum(|n| n.shed_time_ns) as f64, decisions as f64),
    );
    r.value(
        "core.shedder.invocations_per_s",
        ratio(sum(|n| n.shed_invocations) as f64, o.span_s),
    );
    r.value(
        "core.shedder.shed_share",
        ratio(shed as f64, arrived as f64),
    );
    r.value(
        "net.link_shed_share",
        ratio(
            rep.remote_shed_batches as f64,
            rep.remote_sent_batches as f64,
        ),
    );
    r.value(
        "net.batches_per_s",
        ratio(rep.remote_batches as f64, o.span_s),
    );
    r.value("core.wal.bytes_per_s", ratio(o.wal.bytes as f64, o.span_s));
    r.value("core.wal.checkpoints", o.wal.checkpoints as f64);

    // Per-thread CPU, when sampled.
    if let Some(groups) = &o.threads {
        let cpu_ns = |roles: &[&str]| -> f64 {
            roles
                .iter()
                .filter_map(|role| groups.get(*role))
                .fold(0.0, |acc, g| acc + g.cpu_s * 1e9)
        };
        let per_tuple = |roles: &[&str]| ratio(cpu_ns(roles), arrived as f64);
        r.value("engine.shard.cpu_ns_per_tuple", per_tuple(&["shard"]));
        let shard = groups.get("shard").cloned().unwrap_or_default();
        r.value(
            "engine.shard.runnable_share",
            ratio(shard.runnable as f64, shard.samples as f64),
        );
        r.value("engine.pump.cpu_ns_per_tuple", per_tuple(&["source-pump"]));
        r.value(
            "engine.coordinator.cpu_ns_per_tuple",
            per_tuple(&["engine-coord"]),
        );
        r.value(
            "net.ingest.cpu_ns_per_tuple",
            per_tuple(&["net-ingest", "net-accept"]),
        );
    }

    // Correctness and regime checks.
    r.check(
        "no_engine_errors",
        rep.errors.is_empty(),
        rep.errors
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; "),
    );
    let silent = n_queries - rep.result_counts.values().filter(|&&c| c > 0).count();
    r.check(
        "every_query_emitted",
        silent == 0 && rep.per_query_sic.len() == n_queries,
        format!("{silent} of {n_queries} queries emitted nothing"),
    );
    let unit = |v: f64| (0.0..=1.0).contains(&v);
    r.check(
        "sic_and_jain_in_unit_range",
        sics.iter().all(|&s| unit(s)) && unit(rep.fairness.jain),
        format!("jain {}, sic range {:?}", rep.fairness.jain, minmax(&sics)),
    );
    let leaky: Vec<usize> = rep
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.arrived_tuples < n.kept_tuples + n.shed_tuples)
        .map(|(i, _)| i)
        .collect();
    r.check(
        "arrived_covers_kept_plus_shed",
        leaky.is_empty(),
        format!("nodes with kept+shed > arrived: {leaky:?}"),
    );
    r.check(
        "values_finite",
        r.values.values().all(|v| v.is_finite()),
        "every measured value is finite",
    );
    let shed_share = ratio(shed as f64, arrived as f64);
    match w {
        Workload::OverloadMix => r.check(
            "regime_sheds_configured_share",
            (shed_share - expected_shed).abs() <= SHED_TOLERANCE,
            format!("shed {shed_share:.4} vs configured {expected_shed:.4}"),
        ),
        Workload::FanIn => {
            let late_share = ratio(late as f64, ticks as f64);
            r.check(
                "regime_underloaded",
                shed == 0 && delivered >= FAN_MIN_DELIVERED && late_share <= FAN_MAX_LATE_TICKS,
                format!("shed {shed} tuples, delivered {delivered:.4}, late ticks {late_share:.4}"),
            );
        }
        Workload::FederatedDurable => {
            r.check(
                "pump_process_clean",
                o.pump_ok.is_ok(),
                o.pump_ok.clone().err().unwrap_or_default(),
            );
            r.check(
                "wire_batches_all_received",
                rep.remote_batches > 0 && rep.remote_batches == rep.remote_sent_batches,
                format!(
                    "received {} vs sent {}",
                    rep.remote_batches, rep.remote_sent_batches
                ),
            );
            let restored: Result<usize, String> = (0..rep.shards)
                .map(|s| match wal::restore_shard(&wal_dir, s) {
                    Ok(Some(rs)) => Ok(rs.snapshots.len()),
                    Ok(None) => Err(format!("shard {s} left no log")),
                    Err(e) => Err(format!("shard {s}: {e}")),
                })
                .sum();
            r.check(
                "wal_restores",
                restored.as_ref().is_ok_and(|&n| n > 0),
                match &restored {
                    Ok(n) => format!("{n} node snapshots restored"),
                    Err(e) => e.clone(),
                },
            );
        }
    }
    let _ = std::fs::remove_dir_all(&wal_dir);
    r
}

fn minmax(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}
