//! The traced replay: the workload's seeded inputs driven on a logical
//! clock, single-threaded, through the public layer functions, with a
//! span around every call. It is also the single-threaded baseline of
//! the same job the threaded engine runs.
//!
//! Each shedding interval the loop emits every due source batch
//! (`SourceDriver::emit`), enqueues it on its node
//! (`NodeState::enqueue`), ticks every node (`NodeState::tick`), routes
//! inter-fragment batches and results the way a shard does, runs the
//! per-query coordinators (`QueryCoordinator::tick`) and applies their
//! SIC updates (`NodeState::apply_sic`). Beside the job, a sample of the
//! same batches (every query whose id is a multiple of
//! [`SIDE_SAMPLE`]) also goes through the window buffer
//! (`WindowBuffer::{push, close_up_to}`), the WAL batch encoder, the wire
//! codec (`encode_msg`, `Decoder::next`) and an idle `FragmentRuntime`
//! tick, and every checkpoint cadence the nodes checkpoint into a
//! `ShardLog` — on the in-process workloads these layers are bypassed by
//! the real run, so the replay prices what the workload's batches would
//! cost there.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use themis_core::prelude::*;
use themis_core::wal::{encode_batch_bytes, ShardLog, SicDelta};
use themis_engine::prelude::*;
use themis_net::codec::{encode_msg, Decoder, NetMsg, WireBatch};
use themis_operators::prelude::{WindowBuffer, WindowSpec};
use themis_query::prelude::*;

use crate::record::Records;
use crate::stats::{median, percentile, ratio, supported_percentile};
use crate::trace::{self, Tracer, ROOT};
use crate::workload::{installs, Workload, FED_CHECKPOINT};

/// Side measurements cover queries whose id is a multiple of this.
pub const SIDE_SAMPLE: u32 = 4;

/// At most this many spans are kept; the replay stops when full.
const SPAN_CAP: usize = 1_500_000;

/// At most this many queries are compiled for `query.compile_ns_per_query`.
const COMPILE_CAP: usize = 2_000;

/// Options of one replay.
pub struct Replay {
    /// The workload.
    pub workload: Workload,
    /// Input seed (the real run's).
    pub seed: u64,
    /// Schedule length the scenario is built for, ms.
    pub run_ms: u64,
    /// Wall-time budget of the replay loop, ms (it also stops when the
    /// span buffer is full; the sources emit for as long as it runs).
    pub budget_ms: u64,
    /// Where the span file and the replay WAL go.
    pub scratch: PathBuf,
}

/// Units of work the replay did: the bases of its per-unit metrics.
#[derive(Default)]
struct Work {
    emitted_tuples: u64,
    ticked_tuples: u64,
    shed_candidates: u64,
    coordinator_queries: u64,
    sic_updates: u64,
    wal_appends: u64,
    window_rows: u64,
    window_panes: u64,
    wal_bytes: u64,
    wire_bytes: u64,
    wire_tuples: u64,
}

/// Runs the replay, writes its spans, and returns the per-layer values.
pub fn run(opts: &Replay) -> Records {
    let w = opts.workload;
    let mut tr = Tracer::new(SPAN_CAP);
    let mut work = Work::default();
    let mut r = Records::default();

    let sp = tr.begin("workloads.scenario.build", ROOT);
    let scenario = w.scenario(opts.seed, opts.run_ms);
    tr.end(sp);

    let texts = w.query_texts();
    let mut ids = IdGen::new();
    let mut compile_fail = 0usize;
    for (i, text) in texts.iter().take(COMPILE_CAP).enumerate() {
        let sp = tr.begin("query.spec.compile", ROOT);
        let ok = QueryDef::parse(text)
            .and_then(QueryDef::validate)
            .map(|v| v.compile(QueryId(i as u32), &mut ids));
        tr.end(sp);
        compile_fail += usize::from(ok.is_err());
    }

    // Nodes, as the engine installs them.
    let pool = BatchPool::new();
    let interval = scenario.shedding_interval;
    let interval_d = Duration::from_micros(interval.as_micros());
    let base = Instant::now();
    let (node_tx, node_rx) = unbounded::<ShardMsg>();
    let (results_tx, results_rx) = unbounded::<ResultEvent>();
    let routing = ShardRouting {
        node_txs: vec![node_tx; scenario.n_nodes],
        results_tx,
    };
    let policy: themis_core::shedder::Policy = PolicyKind::BalanceSic.into();
    let mut states: BTreeMap<usize, NodeState> = BTreeMap::new();
    let mut coordinators = Vec::with_capacity(scenario.queries.len());
    let mut idle_runtimes: Vec<FragmentRuntime> = Vec::new();
    let mut windows: HashMap<QueryId, WindowBuffer> = HashMap::new();
    for q in &scenario.queries {
        let nodes: Vec<usize> = (0..q.n_fragments())
            .map(|fi| {
                scenario
                    .deployment
                    .node_of(q.id, fi)
                    .expect("validated deployment")
                    .index()
            })
            .collect();
        for (fi, &node) in nodes.iter().enumerate() {
            let downstream = if fi == q.result_fragment {
                None
            } else {
                q.downstream_of(fi).map(|d| (nodes[d], d))
            };
            let sp = tr.begin("engine.node.attach_fragment", ROOT);
            let state = states.entry(node).or_insert_with(|| {
                let config = NodeConfig {
                    id: NodeId(node as u32),
                    interval,
                    stw: scenario.stw,
                    shedder: policy.build(scenario.seed ^ (0xE0_0000 + node as u64)),
                    synthetic_cost: TimeDelta::ZERO,
                    initial_capacity: usize::MAX / 2,
                    fixed_capacity: Some(
                        ((scenario.node_capacity_tps[node] as u64 * interval.as_micros()
                            / 1_000_000) as usize)
                            .max(1),
                    ),
                    pool: Some(pool.clone()),
                };
                NodeState::new(config, node, base + interval_d)
            });
            state.attach_fragment(q, fi, downstream);
            tr.end(sp);
        }
        coordinators.push(QueryCoordinator::new(
            q.id,
            nodes.iter().map(|&n| NodeId(n as u32)).collect(),
            interval,
        ));
        if q.id.0 % SIDE_SAMPLE == 0 {
            idle_runtimes.push(FragmentRuntime::new(&q.fragments[q.result_fragment]));
            windows.insert(
                q.id,
                WindowBuffer::new(WindowSpec::tumbling(w.window()), 1, TimeDelta::ZERO),
            );
        }
    }
    let sp = tr.begin("workloads.driver.new", ROOT);
    let mut sources = installs(&scenario);
    for s in &mut sources {
        s.driver.set_pool(pool.clone());
    }
    tr.end(sp);
    let mut due: BinaryHeap<Reverse<(u64, usize)>> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| Reverse((s.driver.next_time().0, i)))
        .collect();

    let wal_dir = opts
        .scratch
        .join(format!("replay-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut log = ShardLog::create(&wal_dir, 0).expect("create replay WAL");
    let checkpoint_every = (FED_CHECKPOINT.as_micros() as u64 / interval.as_micros()).max(1);
    let mut decoder = Decoder::new();
    let mut codec_ok = true;
    let mut tracker = ResultSicTracker::new(scenario.stw);
    let mut result_counts: HashMap<QueryId, u64> = HashMap::new();
    let mut pending: HashMap<usize, (u64, u64)> = HashMap::new(); // node → (batches, tuples)

    let budget = Duration::from_millis(opts.budget_ms);
    let loop_start = Instant::now();
    let mut step = 0u64;
    while loop_start.elapsed() < budget && !tr.full() {
        step += 1;
        let logical_end = step * interval.as_micros();
        // Emit and enqueue every batch due before this tick.
        while let Some(&Reverse((at, i))) = due.peek() {
            if at >= logical_end {
                break;
            }
            due.pop();
            let s = &mut sources[i];
            let sp = tr.begin("workloads.source.emit", ROOT);
            let batch = s.driver.emit();
            tr.end(sp);
            due.push(Reverse((s.driver.next_time().0, i)));
            if batch.is_empty() {
                continue;
            }
            let n = batch.len() as u64;
            work.emitted_tuples += n;
            if let Some(wb) = windows.get_mut(&s.query) {
                let sp = tr.begin("bench.copy", ROOT);
                let data = batch.data().clone();
                let wire = NetMsg::Batch(WireBatch {
                    node: s.node as u32,
                    query: s.query,
                    fragment: s.fragment as u32,
                    source: s.driver.source,
                    created: batch.created(),
                    batch: data.clone(),
                });
                tr.end(sp);
                let sp = tr.begin("operators.window.push", ROOT);
                wb.push(0, data, Timestamp(at));
                tr.end(sp);
                work.window_rows += n;
                let mut bytes = Vec::new();
                let sp = tr.begin("core.wal.encode_batch", ROOT);
                encode_batch_bytes(&mut bytes, batch.data());
                tr.end(sp);
                work.wal_bytes += bytes.len() as u64;
                let mut frame = Vec::new();
                let sp = tr.begin("net.codec.encode", ROOT);
                encode_msg(&wire, &mut frame);
                tr.end(sp);
                let sp = tr.begin("net.codec.decode", ROOT);
                let decoded = decoder.next(&frame);
                tr.end(sp);
                codec_ok &= matches!(
                    decoded,
                    Ok(Some((NetMsg::Batch(ref d), used)))
                        if used == frame.len() && d.batch.len() == batch.len()
                );
                work.wire_bytes += frame.len() as u64;
                work.wire_tuples += n;
            }
            let p = pending.entry(s.node).or_default();
            p.0 += 1;
            p.1 += n;
            let rb = RoutedBatch {
                query: s.query,
                fragment: s.fragment,
                ingress: Ingress::Source(s.driver.source),
                batch,
            };
            let sp = tr.begin("engine.node.enqueue", ROOT);
            states
                .get_mut(&s.node)
                .expect("source node installed")
                .enqueue(rb, Timestamp(at));
            tr.end(sp);
        }

        // Tick every node at the interval boundary.
        let now = Timestamp(logical_end);
        let now_instant = base + Duration::from_micros(logical_end);
        let epoch = Instant::now()
            .checked_sub(Duration::from_micros(logical_end))
            .unwrap_or(base);
        for (&node, state) in states.iter_mut() {
            let (batches, tuples) = pending.remove(&node).unwrap_or_default();
            let before = state.report().clone();
            let name = if batches == 0 {
                "engine.node.tick_empty"
            } else {
                "engine.node.tick"
            };
            let sp = tr.begin(name, ROOT);
            state.tick(now_instant, epoch, &routing);
            tr.end(sp);
            work.ticked_tuples += tuples;
            let after = state.report();
            if after.shed_decisions > before.shed_decisions {
                let start = tr.spans()[sp as usize].start;
                let ns = after.shed_time_ns - before.shed_time_ns;
                tr.record("core.shedder.select_to_keep", sp, start, start + ns);
                work.shed_candidates += batches;
            }
        }
        // Route what the ticks emitted, as a shard would.
        while let Ok(msg) = node_rx.try_recv() {
            if let EngineMsg::Batch(rb) = msg.msg {
                let p = pending.entry(msg.node).or_default();
                p.0 += 1;
                p.1 += rb.batch.len() as u64;
                let sp = tr.begin("engine.node.enqueue", ROOT);
                if let Some(state) = states.get_mut(&msg.node) {
                    state.enqueue(rb, now);
                }
                tr.end(sp);
            }
        }
        let sp = tr.begin("core.stw.result_record", ROOT);
        while let Ok(ev) = results_rx.try_recv() {
            tracker.record(now, ev.query, ev.sic);
            *result_counts.entry(ev.query).or_insert(0) += 1;
        }
        tr.end(sp);

        // Coordinators, then their SIC updates on the nodes.
        let sp = tr.begin("core.coordinator.tick", ROOT);
        let mut updates = Vec::new();
        for c in coordinators.iter_mut() {
            let sic = tracker.query_sic(now, c.query());
            c.on_result_sic(sic);
            updates.extend(c.tick(now));
        }
        tr.end(sp);
        work.coordinator_queries += coordinators.len() as u64;
        // One span per node over the updates addressed to it.
        updates.sort_by_key(|u| u.node);
        for per_node in updates.chunk_by(|a, b| a.node == b.node) {
            let node = per_node[0].node.index();
            let sp = tr.begin("engine.node.apply_sic", ROOT);
            if let Some(state) = states.get_mut(&node) {
                for u in per_node {
                    state.apply_sic(u);
                }
            }
            tr.end(sp);
            work.sic_updates += per_node.len() as u64;
            let sp = tr.begin("core.wal.append", ROOT);
            for u in per_node.iter().filter(|u| u.query.0 % SIDE_SAMPLE == 0) {
                let _ = log.append(&SicDelta {
                    node,
                    query: u.query,
                    sic: u.sic,
                });
                work.wal_appends += 1;
            }
            tr.end(sp);
        }

        // Side layers on the sampled queries.
        for rt in idle_runtimes.iter_mut() {
            let sp = tr.begin("query.runtime.idle_tick", ROOT);
            let _ = rt.tick(now);
            tr.end(sp);
        }
        for wb in windows.values_mut() {
            let sp = tr.begin("operators.window.close", ROOT);
            let panes = wb.close_up_to(now);
            tr.end(sp);
            work.window_panes += panes.len() as u64;
        }
        if step % checkpoint_every == 0 {
            let sp = tr.begin("engine.node.checkpoint", ROOT);
            let snaps: Vec<_> = states.values_mut().map(NodeState::checkpoint).collect();
            tr.end(sp);
            let sp = tr.begin("core.wal.checkpoint", ROOT);
            let _ = log.checkpoint(&snaps);
            tr.end(sp);
        }
    }
    let wall_ns = tr.now();
    let loop_s = loop_start.elapsed().as_secs_f64();
    drop(log);
    let _ = std::fs::remove_dir_all(&wal_dir);

    let spans = tr.spans();
    let totals = trace::totals(spans);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let count = |name: &str| totals.get(name).map_or(0.0, |t| t.count as f64);
    let mean = |name: &str| ratio(total(name), count(name));

    r.value(
        "workloads.emit_ns_per_tuple",
        ratio(total("workloads.source.emit"), work.emitted_tuples as f64),
    );
    r.value(
        "engine.node.enqueue_ns_per_batch",
        mean("engine.node.enqueue"),
    );
    let tick_ns = total("engine.node.tick") + total("engine.node.tick_empty");
    let shed_ns = total("core.shedder.select_to_keep");
    r.value(
        "engine.node.tick_ns_per_tuple",
        ratio(tick_ns, work.ticked_tuples as f64),
    );
    r.value(
        "core.shedder.select_ns_per_candidate",
        ratio(shed_ns, work.shed_candidates as f64),
    );
    r.value(
        "engine.node.tick_exec_ns_per_tuple",
        ratio(tick_ns - shed_ns, work.ticked_tuples as f64),
    );
    r.value("engine.node.idle_tick_ns", mean("query.runtime.idle_tick"));
    r.value(
        "operators.window.push_ns_per_row",
        ratio(total("operators.window.push"), work.window_rows as f64),
    );
    r.value(
        "operators.window.close_ns_per_pane",
        ratio(total("operators.window.close"), work.window_panes as f64),
    );
    r.value(
        "engine.node.apply_sic_ns",
        ratio(total("engine.node.apply_sic"), work.sic_updates as f64),
    );
    r.value(
        "core.coordinator.tick_ns_per_query",
        ratio(
            total("core.coordinator.tick"),
            work.coordinator_queries as f64,
        ),
    );
    r.value(
        "core.wal.encode_ns_per_byte",
        ratio(total("core.wal.encode_batch"), work.wal_bytes as f64),
    );
    r.value("core.wal.checkpoint_ns", mean("core.wal.checkpoint"));
    r.value(
        "core.wal.append_ns",
        ratio(total("core.wal.append"), work.wal_appends as f64),
    );
    r.value("net.codec.encode_ns_per_batch", mean("net.codec.encode"));
    r.value("net.codec.decode_ns_per_batch", mean("net.codec.decode"));
    r.value(
        "net.codec.bytes_per_tuple",
        ratio(work.wire_bytes as f64, work.wire_tuples as f64),
    );
    r.value("query.compile_ns_per_query", mean("query.spec.compile"));
    r.value(
        "workloads.scenario_build_s",
        total("workloads.scenario.build") / 1e9,
    );
    r.value(
        "trace.unaccounted_share",
        trace::unaccounted_share(spans, wall_ns),
    );
    // Context for reading the above (not catalogued metrics).
    r.value("replay.intervals", step as f64);
    r.value("replay.loop_s", loop_s);
    r.value("replay.spans", spans.len() as f64);
    r.value(
        "replay.single_thread_tps",
        ratio(work.emitted_tuples as f64, loop_s),
    );

    r.check(
        "replay_compiles",
        compile_fail == 0,
        format!("{compile_fail} query texts failed to compile"),
    );
    r.check(
        "replay_codec_round_trips",
        codec_ok,
        "every sampled batch decodes to its own length",
    );
    r.check(
        "replay_made_progress",
        step > 0 && work.emitted_tuples > 0 && !result_counts.is_empty(),
        format!(
            "{step} intervals, {} tuples, {} queries with results",
            work.emitted_tuples,
            result_counts.len()
        ),
    );

    // One file per workload, replaced by each traced run, so repeated
    // runs do not fill the disk.
    let path = opts.scratch.join(format!("trace-{}.tsv", w.name()));
    let written = tr.write_tsv(&path, &format!("{} seed {}", w.name(), opts.seed));
    r.check(
        "trace_written",
        written.is_ok(),
        format!("{}: {:?}", path.display(), written.err()),
    );
    print_span_summary(&totals);
    r
}

/// Prints, per span name, the sample count, median and the highest
/// percentile with at least ten samples beyond it, and self time.
fn print_span_summary(totals: &BTreeMap<&'static str, trace::SpanTotals>) {
    for (name, t) in totals {
        let med = median(&t.durations).unwrap_or(0.0);
        let tail = supported_percentile(t.durations.len(), 10)
            .and_then(|p| percentile(&t.durations, p).map(|v| format!("p{p}={v:.0}ns")))
            .unwrap_or_else(|| "p=n/a".into());
        println!(
            "# span {name}: n={} median={med:.0}ns {tail} total={:.3}ms self={:.3}ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}
