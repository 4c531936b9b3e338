//! Shard threads: a bounded pool of OS threads, each owning a slice of
//! node states and multiplexing control messages, source-batch intake,
//! per-node shedding deadlines (a `BinaryHeap` of `(Instant, node)`
//! entries) and fragment execution.
//!
//! Where the seed engine spawned one OS thread per FSPS node — capping
//! experiments at a few dozen nodes — a shard interleaves thousands of
//! [`NodeState`]s on one thread. Every due deadline fires within a pass
//! of the event loop even while messages are still queued, so a
//! sustained input flood can never starve the overload detector (the
//! seed worker's drain loop `continue`d on every message and postponed
//! the tick indefinitely under exactly the overload it was meant to
//! detect).
//!
//! Source batches do not travel on the shard's channel. The pump and the
//! ingest listener post them to the shard's [`Mailbox`], stamped with
//! their hand-off instant, and the shard takes the whole mailbox once per
//! pass. A node reads its buffer only at its shedding tick, so nothing is
//! lost by not waking the shard per batch: it sleeps until its next tick
//! or checkpoint deadline, and only control messages, SIC batches and
//! inter-fragment emissions wake it early.
//!
//! Shards start **empty**: nodes install on first
//! [`EngineMsg::Attach`] and tear down when an [`EngineMsg::Detach`]
//! removes their last fragment — the runtime query-churn path. Teardown
//! freezes the node's counters and abandons its deadline-heap entry
//! (entries are generation-tagged, so a stale deadline popped after a
//! teardown or re-install is discarded instead of ticking — no heap
//! leak: a detached node never ticks again).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{self, AtomicU64};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};

use themis_core::prelude::*;
use themis_core::wal;
use themis_operators::op::Emission;
use themis_query::prelude::*;

use crate::messages::{AttachFragment, EngineMsg, NodeReport, ResultEvent, RoutedBatch, ShardMsg};
use crate::node_state::NodeState;

/// How long a shard with no pending deadline (no nodes installed) sleeps
/// per loop iteration while waiting for messages.
const IDLE_TIMEOUT: Duration = Duration::from_millis(50);

/// First-tick stagger slots: the `i`-th node installed on a shard fires
/// its first tick `(i % SLOTS) / SLOTS` of an interval into the schedule,
/// so thousands of co-located nodes do not all tick at the same instant.
const STAGGER_SLOTS: u64 = 32;

/// A source batch waiting in a [`Mailbox`]: destination node, the batch,
/// and the instant it was handed off, which stamps its SIC on arrival.
pub(crate) type Posted = (usize, RoutedBatch, Timestamp);

/// A shard's intake for source batches. The source pump and the ingest
/// listener [`Mailbox::post`] to it without waking the shard; the shard
/// swaps the whole vector out once per pass of its event loop. Once the
/// shard exits, the mailbox closes and later posts are dropped, as sends
/// on the channel of a finished shard are.
#[derive(Debug)]
pub struct Mailbox {
    /// `None` once the owning shard has exited.
    posted: Mutex<Option<Vec<Posted>>>,
    /// Returns from the owning shard's blocking receive.
    wakes: AtomicU64,
}

impl Default for Mailbox {
    fn default() -> Self {
        Mailbox {
            posted: Mutex::new(Some(Vec::new())),
            wakes: AtomicU64::new(0),
        }
    }
}

impl Mailbox {
    /// Posts a source batch for `node`, handed off at `arrived`.
    pub fn post(&self, node: usize, batch: RoutedBatch, arrived: Timestamp) {
        if let Some(posted) = self.lock().as_mut() {
            posted.push((node, batch, arrived));
        }
    }

    /// How many times the owning shard has returned from its blocking
    /// receive so far: once per deadline, checkpoint or channel message,
    /// never per posted batch.
    pub fn wakes(&self) -> u64 {
        self.wakes.load(atomic::Ordering::Relaxed)
    }

    /// Moves every posted batch onto the end of `into`. An empty `into`
    /// is swapped in whole, so the two vectors trade allocations instead
    /// of growing new ones.
    pub(crate) fn take_into(&self, into: &mut Vec<Posted>) {
        if let Some(posted) = self.lock().as_mut() {
            if into.is_empty() {
                std::mem::swap(posted, into);
            } else {
                into.append(posted);
            }
        }
    }

    fn close(&self) {
        *self.lock() = None;
    }

    fn lock(&self) -> MutexGuard<'_, Option<Vec<Posted>>> {
        // A vector of posted batches has no invariant a panic could break.
        self.posted.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Closes the mailbox when its shard's loop exits, by return or by panic.
struct CloseOnExit<'a>(&'a Mailbox);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// What a shard needs to route fragment outputs. Fragment-level routing
/// (which downstream node a fragment feeds) travels with the fragment
/// itself (installed by [`EngineMsg::Attach`]), so attaching a query at
/// runtime needs no shard-wide routing updates.
pub struct ShardRouting {
    /// Senders addressing every node (index = global node; each entry is a
    /// clone of the owning shard's channel).
    pub node_txs: Vec<Sender<ShardMsg>>,
    /// Sink for query results.
    pub results_tx: Sender<ResultEvent>,
}

impl ShardRouting {
    /// Forwards fragment emissions to `downstream` (or to the results
    /// sink when `None`).
    pub fn route(
        &self,
        query: QueryId,
        fragment: usize,
        downstream: Option<(usize, usize)>,
        emissions: Vec<Emission>,
    ) {
        for e in emissions {
            match downstream {
                Some((node, df)) => {
                    let at = e.at;
                    let rb = RoutedBatch {
                        query,
                        fragment: df,
                        ingress: Ingress::Upstream(fragment),
                        // Wrap the emission's columns directly — no
                        // per-tuple re-materialisation between fragments.
                        batch: Batch::from_data(query, at, e.into_batch()),
                    };
                    // A closed peer means shutdown is racing; dropping the
                    // batch is equivalent to shedding it.
                    let _ = self.node_txs[node].send(ShardMsg {
                        node,
                        msg: EngineMsg::Batch(rb),
                    });
                }
                None => {
                    let _ = self.results_tx.send(ResultEvent {
                        query,
                        at: e.at,
                        sic: e.sic(),
                    });
                }
            }
        }
    }
}

/// Durability configuration handed to a shard thread: where to log, how
/// often to checkpoint, and the AF-Stream-style divergence bound that
/// forces an early checkpoint.
#[derive(Debug, Clone)]
pub struct ShardDurability {
    /// Durability root; this shard writes under `dir/shard-<i>/`.
    pub dir: PathBuf,
    /// This shard's index under `dir`.
    pub shard: usize,
    /// Periodic checkpoint cadence.
    pub every: Duration,
    /// Checkpoint early when any node's uncheckpointed absolute SIC
    /// movement exceeds this bound (`<= 0` disables the early trigger).
    pub sic_bound: f64,
}

/// The shard of `n_shards` that owns global node `node` (round-robin).
pub fn shard_of(node: usize, n_shards: usize) -> usize {
    node % n_shards.max(1)
}

/// Round-robin node→shard assignment for `n_nodes` nodes.
pub fn shard_assignment(n_nodes: usize, n_shards: usize) -> Vec<usize> {
    (0..n_nodes).map(|n| shard_of(n, n_shards)).collect()
}

/// Entry in a shard's deadline heap (min-heap by `(at, node)`), tagged
/// with the node's install generation so entries of torn-down or
/// re-installed nodes are discarded on pop.
struct Deadline {
    at: Instant,
    node: usize,
    generation: u64,
}
impl PartialEq for Deadline {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.node == other.node && self.generation == other.generation
    }
}
impl Eq for Deadline {}
impl PartialOrd for Deadline {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deadline {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first. The
        // generation is a final tiebreak so Ord agrees with PartialEq
        // (a stale entry and its re-install successor can share an
        // instant).
        (other.at, other.node, other.generation).cmp(&(self.at, self.node, self.generation))
    }
}

/// Whether the event loop keeps running after a message.
#[derive(PartialEq, Eq)]
enum Flow {
    Continue,
    Stop,
}

/// The state one shard thread owns: its nodes, their deadlines, the
/// reports of torn-down nodes, and its durable log.
struct Shard {
    routing: ShardRouting,
    epoch: Instant,
    durability: Option<ShardDurability>,
    states: HashMap<usize, NodeState>,
    generations: HashMap<usize, u64>,
    heap: BinaryHeap<Deadline>,
    finished: HashMap<usize, NodeReport>,
    installed_seq: u64,
    log: Option<wal::ShardLog>,
    next_checkpoint: Option<Instant>,
    /// Set by EngineMsg::Crash: a dead process writes nothing, so both
    /// checkpointing and delta appends stop until Recover — otherwise the
    /// post-crash empty shard would immediately write an empty checkpoint
    /// and truncate the very tail recovery needs.
    crashed: bool,
}

/// Runs a shard's event loop until an [`EngineMsg::Shutdown`] arrives (or
/// every sender is gone); returns `(global node, counters)` per node that
/// was ever installed (one merged report per node across re-installs).
///
/// The shard starts with no nodes; [`EngineMsg::Attach`] installs them
/// (the engine pre-loads the initial scenario's attaches before spawning
/// the thread, so "static" deployments take this same path). Source
/// batches arrive through `mailbox`, everything else through `rx`.
pub fn run_shard(
    routing: ShardRouting,
    rx: Receiver<ShardMsg>,
    mailbox: &Mailbox,
    epoch: Instant,
    durability: Option<ShardDurability>,
) -> Vec<(usize, NodeReport)> {
    let _close = CloseOnExit(mailbox);
    let mut shard = Shard {
        next_checkpoint: durability.as_ref().map(|d| Instant::now() + d.every),
        routing,
        epoch,
        durability,
        states: HashMap::new(),
        generations: HashMap::new(),
        heap: BinaryHeap::new(),
        finished: HashMap::new(),
        installed_seq: 0,
        log: None,
        crashed: false,
    };
    // Source batches taken from the mailbox but not yet enqueued.
    let mut posted: Vec<Posted> = Vec::new();
    'run: loop {
        // Take the mailbox *before* draining the channel. The engine
        // queues a fragment's Attach before the pump or the listener can
        // post any of its batches, so once the drain below has emptied
        // the channel, every taken batch's node is installed. Were the
        // mailbox taken after the drain, an Attach queued in between
        // could miss its own first batches.
        mailbox.take_into(&mut posted);
        // Drain control messages, capped at the node count per pass like
        // tick firings, so a flood of channel traffic cannot starve the
        // deadlines below.
        let mut emptied = false;
        for _ in 0..shard.states.len().max(1) {
            match rx.try_recv() {
                Ok(msg) => {
                    if shard.handle(msg) == Flow::Stop {
                        break 'run;
                    }
                }
                Err(TryRecvError::Empty) => {
                    emptied = true;
                    break;
                }
                Err(TryRecvError::Disconnected) => break 'run,
            }
        }
        if emptied {
            shard.enqueue(&mut posted);
        }
        let now = shard.fire_due_ticks();
        shard.checkpoint_if_due(now);
        // Posted batches do not wake the shard: sleep until the next tick
        // or checkpoint unless a channel message comes first.
        let received = rx.recv_timeout(shard.sleep_budget(now));
        mailbox.wakes.fetch_add(1, atomic::Ordering::Relaxed);
        match received {
            Ok(msg) => {
                if shard.handle(msg) == Flow::Stop {
                    break;
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Everything queued ahead of the Shutdown has been handled, so the
    // batches posted before it still count as arrived.
    mailbox.take_into(&mut posted);
    shard.enqueue(&mut posted);
    shard.into_reports()
}

impl Shard {
    /// Enqueues taken source batches on their nodes, stamped with their
    /// hand-off instants. Batches for nodes the shard does not host (torn
    /// down, or crashed) are dropped.
    fn enqueue(&mut self, posted: &mut Vec<Posted>) {
        for (node, batch, arrived) in posted.drain(..) {
            if let Some(state) = self.states.get_mut(&node) {
                state.enqueue(batch, arrived);
            }
        }
    }

    /// Fires every due tick, in deadline order; returns the instant the
    /// pass ended. Firings are capped at the shard's node count per pass
    /// so degenerate intervals (shorter than the tick's own work) cannot
    /// livelock the loop and starve the channel — with due deadlines
    /// still pending, the sleep budget is zero and the receive acts as a
    /// poll. Rescheduling always lands strictly after `now` (NodeState
    /// clamps the interval to >= 1 us), so no node re-fires ahead of a
    /// due shard-mate.
    fn fire_due_ticks(&mut self) -> Instant {
        let mut now = Instant::now();
        let mut fired = 0;
        let cap = self.states.len().max(1);
        while let Some(d) = self.heap.peek() {
            if d.at > now || fired >= cap {
                break;
            }
            let d = self.heap.pop().expect("peeked");
            // Stale entry (node torn down or re-installed): discard — the
            // lazy-deletion arm of the churn path.
            let live = self.generations.get(&d.node) == Some(&d.generation);
            let Some(state) = (live).then(|| self.states.get_mut(&d.node)).flatten() else {
                continue;
            };
            state.tick(now, self.epoch, &self.routing);
            self.heap.push(Deadline {
                at: state.next_tick(),
                node: d.node,
                generation: d.generation,
            });
            fired += 1;
            now = Instant::now();
        }
        now
    }

    /// Whether a checkpoint can be due at all: durability is on, the
    /// shard is alive, and it hosts something to snapshot.
    fn checkpointing(&self) -> bool {
        self.durability.is_some() && !self.crashed && !self.states.is_empty()
    }

    /// Checkpoints on cadence, or early when any node's uncheckpointed
    /// SIC drift exceeds the divergence bound (AF-Stream: bound the
    /// deviation instead of logging everything).
    fn checkpoint_if_due(&mut self, now: Instant) {
        let Some(d) = self.durability.as_ref().filter(|_| self.checkpointing()) else {
            return;
        };
        let due = self.next_checkpoint.is_some_and(|t| now >= t);
        let diverged =
            d.sic_bound > 0.0 && self.states.values().any(|s| s.sic_drift() > d.sic_bound);
        if !(due || diverged) {
            return;
        }
        let snapshots: Vec<wal::NodeSnapshot> = self
            .states
            .values_mut()
            .map(NodeState::checkpoint)
            .collect();
        if self.log.is_none() {
            self.log = open_log(d);
        }
        if let Some(l) = &mut self.log {
            if let Err(e) = l.checkpoint(&snapshots) {
                eprintln!("shard {}: checkpoint failed: {e}", d.shard);
            }
        }
        self.next_checkpoint = Some(now + d.every);
    }

    /// How long the shard may block: until the earlier of the next tick
    /// and the next checkpoint.
    fn sleep_budget(&self, now: Instant) -> Duration {
        let tick = self.heap.peek().map(|d| d.at);
        let checkpoint = self.next_checkpoint.filter(|_| self.checkpointing());
        tick.into_iter()
            .chain(checkpoint)
            .min()
            .map_or(IDLE_TIMEOUT, |at| at.saturating_duration_since(now))
    }

    /// Handles one channel message.
    fn handle(&mut self, ShardMsg { node, msg }: ShardMsg) -> Flow {
        match msg {
            EngineMsg::Shutdown => return Flow::Stop,
            EngineMsg::Attach(attach) => {
                debug_assert_eq!(node, attach.node, "attach addressed to its node");
                let AttachFragment {
                    node,
                    config,
                    query,
                    fragment,
                    downstream,
                } = *attach;
                let state = self.states.entry(node).or_insert_with(|| {
                    let interval = Duration::from_micros(config.interval.as_micros().max(1));
                    let slot = self.installed_seq % STAGGER_SLOTS;
                    self.installed_seq += 1;
                    let first_tick = Instant::now()
                        + interval
                        + interval.mul_f64(slot as f64 / STAGGER_SLOTS as f64);
                    let state = NodeState::new(config, node, first_tick);
                    let generation = self.generations.get(&node).copied().unwrap_or(0) + 1;
                    self.generations.insert(node, generation);
                    self.heap.push(Deadline {
                        at: state.next_tick(),
                        node,
                        generation,
                    });
                    state
                });
                state.attach_fragment(&query, fragment, downstream);
            }
            EngineMsg::Crash => {
                // Simulated process death: every node's live state is
                // gone (counters survive for final accounting, as for a
                // torn-down node) and no durability write happens again
                // until Recover. Pending deadlines are invalidated by the
                // generation bump; in-flight traffic to the dead nodes is
                // silently discarded by the states guards.
                self.crashed = true;
                self.log = None;
                self.heap.clear();
                for (node, state) in self.states.drain() {
                    self.finished
                        .entry(node)
                        .or_default()
                        .absorb(&state.into_report());
                    *self.generations.entry(node).or_insert(0) += 1;
                }
            }
            EngineMsg::Recover { dir, shard } => {
                // Arrives after the engine re-attached the dead nodes'
                // fragments: overlay the checkpointed state, replay the
                // delta tail (absolute values; last write wins), and
                // resume durability writes.
                self.crashed = false;
                match wal::restore_shard(&dir, shard) {
                    Ok(Some(restore)) => {
                        for snap in &restore.snapshots {
                            if let Some(state) = self.states.get_mut(&snap.node) {
                                state.restore(snap);
                            }
                        }
                        for delta in &restore.deltas {
                            if let Some(state) = self.states.get_mut(&delta.node) {
                                state.set_sic(delta.query, delta.sic);
                            }
                        }
                    }
                    Ok(None) => {}
                    Err(e) => eprintln!("shard {shard}: restore failed: {e}"),
                }
                if let Some(d) = &self.durability {
                    self.next_checkpoint = Some(Instant::now() + d.every);
                }
            }
            EngineMsg::Detach { query } => {
                let empty = self
                    .states
                    .get_mut(&node)
                    .is_some_and(|s| s.detach_query(query) == 0);
                if empty {
                    // Teardown: freeze the counters, forget the state; the
                    // generation bump invalidates the pending deadline.
                    if let Some(state) = self.states.remove(&node) {
                        self.finished
                            .entry(node)
                            .or_default()
                            .absorb(&state.into_report());
                    }
                    *self.generations.entry(node).or_insert(0) += 1;
                }
            }
            EngineMsg::Sic(updates) => {
                for update in &updates {
                    let node = update.node.index();
                    let Some(state) = self.states.get_mut(&node) else {
                        continue;
                    };
                    state.apply_sic(update);
                    let Some(d) = self.durability.as_ref().filter(|_| !self.crashed) else {
                        continue;
                    };
                    if self.log.is_none() {
                        self.log = open_log(d);
                    }
                    if let Some(l) = &mut self.log {
                        if let Err(e) = l.append(&wal::SicDelta {
                            node,
                            query: update.query,
                            sic: update.sic,
                        }) {
                            eprintln!("shard {}: wal append failed: {e}", d.shard);
                        }
                    }
                }
            }
            // Inter-fragment emissions (and any batch sent on the channel)
            // arrive when received.
            EngineMsg::Batch(rb) => {
                if let Some(state) = self.states.get_mut(&node) {
                    let ts = Timestamp(self.epoch.elapsed().as_micros() as u64);
                    state.enqueue(rb, ts);
                }
            }
        }
        Flow::Continue
    }

    /// Merges live nodes' counters into the torn-down ones'.
    fn into_reports(mut self) -> Vec<(usize, NodeReport)> {
        for (node, state) in self.states {
            self.finished
                .entry(node)
                .or_default()
                .absorb(&state.into_report());
        }
        self.finished.into_iter().collect()
    }
}

/// Opens a shard's durable log, demoting failures to a warning — an
/// undurable engine keeps serving traffic.
fn open_log(d: &ShardDurability) -> Option<wal::ShardLog> {
    match wal::ShardLog::create(&d.dir, d.shard) {
        Ok(log) => Some(log),
        Err(e) => {
            eprintln!("shard {}: cannot open wal: {e}", d.shard);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_state::NodeConfig;
    use std::sync::Arc;

    #[test]
    fn every_node_lands_on_exactly_one_shard() {
        for (n_nodes, n_shards) in [(1usize, 1usize), (7, 3), (1024, 8), (5, 16)] {
            let assignment = shard_assignment(n_nodes, n_shards);
            assert_eq!(assignment.len(), n_nodes);
            // Each node has exactly one shard, and it is in range.
            assert!(assignment.iter().all(|&s| s < n_shards));
            // Round-robin balance: shard sizes differ by at most one.
            let mut counts = vec![0usize; n_shards];
            for &s in &assignment {
                counts[s] += 1;
            }
            let used: Vec<usize> = counts.iter().copied().filter(|&c| c > 0).collect();
            let max = *used.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            assert!(max - min <= 1, "{n_nodes}x{n_shards}: {counts:?}");
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        assert_eq!(shard_of(5, 0), 0);
    }

    fn node_config(
        interval_ms: u64,
        synthetic_cost: TimeDelta,
        initial_capacity: usize,
    ) -> NodeConfig {
        NodeConfig {
            id: NodeId(0),
            interval: TimeDelta::from_millis(interval_ms),
            stw: StwConfig::PAPER_DEFAULT,
            shedder: PolicyKind::BalanceSic.build(11),
            synthetic_cost,
            initial_capacity,
            fixed_capacity: None,
            pool: None,
        }
    }

    fn attach_msg(node: usize, config: NodeConfig, query: &Arc<QuerySpec>) -> ShardMsg {
        ShardMsg {
            node,
            msg: EngineMsg::Attach(Box::new(AttachFragment {
                node,
                config,
                query: query.clone(),
                fragment: 0,
                downstream: None,
            })),
        }
    }

    /// A source batch of `tuples` tuples for `query`'s first source,
    /// created at `at` µs.
    fn source_batch(query: &QuerySpec, at: u64, tuples: usize) -> RoutedBatch {
        let src = query.sources[0].id;
        let tuples: Vec<Tuple> = (0..tuples)
            .map(|j| Tuple::measurement(Timestamp(at), Sic(0.001), j as f64))
            .collect();
        RoutedBatch {
            query: query.id,
            fragment: 0,
            ingress: Ingress::Source(src),
            batch: Batch::from_source(query.id, src, Timestamp(at), tuples),
        }
    }

    fn shutdown_msg() -> ShardMsg {
        ShardMsg {
            node: 0,
            msg: EngineMsg::Shutdown,
        }
    }

    /// Starts a shard thread over `rx` and `mailbox`, routing to `node_txs`.
    fn spawn_shard(
        node_txs: Vec<Sender<ShardMsg>>,
        rx: Receiver<ShardMsg>,
        mailbox: &Arc<Mailbox>,
        durability: Option<ShardDurability>,
    ) -> std::thread::JoinHandle<HashMap<usize, NodeReport>> {
        let (results_tx, _) = crossbeam::channel::unbounded();
        let routing = ShardRouting {
            node_txs,
            results_tx,
        };
        let mailbox = mailbox.clone();
        let epoch = Instant::now();
        std::thread::spawn(move || {
            run_shard(routing, rx, &mailbox, epoch, durability)
                .into_iter()
                .collect()
        })
    }

    fn flood_harness(
        interval_ms: u64,
        synthetic_cost: TimeDelta,
        initial_capacity: usize,
        batches: usize,
        tuples_per_batch: usize,
        linger_ms: u64,
    ) -> NodeReport {
        let mut ids = IdGen::new();
        let query = Arc::new(Template::Avg.build(QueryId(0), &mut ids));
        let (tx, rx) = crossbeam::channel::unbounded::<ShardMsg>();
        let (results_tx, _results_rx) = crossbeam::channel::unbounded();
        let routing = ShardRouting {
            node_txs: vec![tx.clone()],
            results_tx,
        };
        // The node installs through the same Attach path the engine uses,
        // pre-loaded ahead of the flood.
        tx.send(attach_msg(
            0,
            node_config(interval_ms, synthetic_cost, initial_capacity),
            &query,
        ))
        .unwrap();
        // Pre-load the whole flood *and* the shutdown before the shard
        // starts: the channel is never empty until the shard has drained
        // every batch, which is exactly the situation that starved the
        // seed worker's tick (recv_timeout returned Ok on every poll).
        for i in 0..batches {
            tx.send(ShardMsg {
                node: 0,
                msg: EngineMsg::Batch(source_batch(&query, i as u64, tuples_per_batch)),
            })
            .unwrap();
        }
        // linger_ms == 0: the shutdown is queued behind the flood, so the
        // channel never empties while the shard runs. Otherwise the shard
        // is left running for `linger_ms` past the flood before stopping.
        if linger_ms == 0 {
            tx.send(ShardMsg {
                node: 0,
                msg: EngineMsg::Shutdown,
            })
            .unwrap();
        }
        let epoch = Instant::now();
        let handle =
            std::thread::spawn(move || run_shard(routing, rx, &Mailbox::default(), epoch, None));
        if linger_ms > 0 {
            std::thread::sleep(Duration::from_millis(linger_ms));
            tx.send(ShardMsg {
                node: 0,
                msg: EngineMsg::Shutdown,
            })
            .unwrap();
        }
        let mut reports = handle.join().expect("shard panicked");
        assert_eq!(reports.len(), 1);
        reports.pop().unwrap().1
    }

    /// Regression (tick starvation): the seed worker `continue`d on every
    /// received message, so a queue that never emptied postponed the
    /// detector/shedder tick indefinitely — it would drain this entire
    /// flood, hit `Shutdown`, and exit with zero ticks and zero sheds.
    /// The shard loop fires the tick whenever its deadline has passed,
    /// messages pending or not.
    #[test]
    fn flooded_shard_still_sheds() {
        // ~60k batches of 5 tuples take well over one 5 ms interval to
        // drain, so deadlines pass while the queue is still non-empty.
        let report = flood_harness(5, TimeDelta::ZERO, 100, 60_000, 5, 0);
        assert_eq!(report.arrived_tuples, 300_000);
        assert!(report.ticks >= 1, "starved: no tick fired mid-flood");
        assert!(
            report.shed_invocations >= 1,
            "first due tick saw {} buffered tuples over capacity 100 but never shed",
            report.arrived_tuples,
        );
        assert!(report.shed_tuples > 0);
    }

    /// Regression (tick drift/storm): a tick that overruns its period must
    /// not leave a backlog of past deadlines. The seed worker's
    /// `next_tick += interval` scheduled a burst of zero-timeout ticks
    /// after the overrun; fixed, the tick count stays bounded by wall
    /// time / interval and the skipped periods are counted as late.
    #[test]
    fn overrunning_tick_does_not_storm() {
        // 400 batches x 20 tuples; capacity 500 kept x 200 us spin
        // = a ~100 ms tick against a 20 ms interval: 5 periods overrun.
        let t0 = Instant::now();
        let report = flood_harness(20, TimeDelta::from_micros(200), 500, 400, 20, 300);
        let elapsed_ms = t0.elapsed().as_millis() as u64;
        assert!(report.late_ticks >= 1, "overrun not recorded: {report:?}");
        assert!(report.shed_invocations >= 1);
        let max_ticks = elapsed_ms / 20 + 2;
        assert!(
            report.ticks <= max_ticks,
            "tick storm: {} ticks in {elapsed_ms} ms at a 20 ms interval",
            report.ticks,
        );
    }

    /// A degenerate zero shedding interval must not livelock the shard
    /// loop: due-tick firings are capped per pass, so the channel still
    /// drains and `Shutdown` is honored.
    #[test]
    fn zero_interval_still_terminates() {
        let report = flood_harness(0, TimeDelta::ZERO, 100, 100, 1, 0);
        assert_eq!(report.arrived_tuples, 100);
        assert!(report.ticks >= 1);
    }

    /// A zero-interval node sharing a shard must not monopolize the
    /// deadline heap: its rescheduled deadline lands strictly in the
    /// future (the interval is clamped to 1 us), so shard-mates with
    /// ordinary intervals still reach their ticks.
    #[test]
    fn zero_interval_node_does_not_starve_shard_mates() {
        let mut ids = IdGen::new();
        let q0 = Arc::new(Template::Avg.build(QueryId(0), &mut ids));
        let q1 = Arc::new(Template::Avg.build(QueryId(1), &mut ids));
        let (tx, rx) = crossbeam::channel::unbounded::<ShardMsg>();
        let (results_tx, _results_rx) = crossbeam::channel::unbounded();
        let routing = ShardRouting {
            node_txs: vec![tx.clone(), tx.clone()],
            results_tx,
        };
        tx.send(attach_msg(0, node_config(0, TimeDelta::ZERO, 100), &q0))
            .unwrap();
        tx.send(attach_msg(1, node_config(5, TimeDelta::ZERO, 100), &q1))
            .unwrap();
        let epoch = Instant::now();
        let handle =
            std::thread::spawn(move || run_shard(routing, rx, &Mailbox::default(), epoch, None));
        std::thread::sleep(Duration::from_millis(60));
        tx.send(ShardMsg {
            node: 0,
            msg: EngineMsg::Shutdown,
        })
        .unwrap();
        let reports = handle.join().expect("shard panicked");
        let by_node: HashMap<usize, &NodeReport> = reports.iter().map(|(n, r)| (*n, r)).collect();
        assert!(by_node[&0].ticks >= 1);
        assert!(
            by_node[&1].ticks >= 2,
            "5 ms node starved by zero-interval shard-mate: {} ticks in 60 ms",
            by_node[&1].ticks
        );
    }

    /// Churn on one shard: a detached node's state is torn down, its
    /// report freezes, and its abandoned deadline never ticks it again;
    /// a later re-attach starts a fresh incarnation whose counters merge
    /// into the same per-node report.
    #[test]
    fn detach_tears_down_and_reattach_merges() {
        let mut ids = IdGen::new();
        let q0 = Arc::new(Template::Avg.build(QueryId(0), &mut ids));
        let q1 = Arc::new(Template::Avg.build(QueryId(1), &mut ids));
        let (tx, rx) = crossbeam::channel::unbounded::<ShardMsg>();
        let (results_tx, _results_rx) = crossbeam::channel::unbounded();
        let routing = ShardRouting {
            node_txs: vec![tx.clone(), tx.clone()],
            results_tx,
        };
        // Node 0 hosts the resident query; node 1 hosts the churn query.
        tx.send(attach_msg(0, node_config(5, TimeDelta::ZERO, 100), &q0))
            .unwrap();
        tx.send(attach_msg(1, node_config(5, TimeDelta::ZERO, 100), &q1))
            .unwrap();
        let epoch = Instant::now();
        let handle =
            std::thread::spawn(move || run_shard(routing, rx, &Mailbox::default(), epoch, None));
        std::thread::sleep(Duration::from_millis(40));
        // The churn query departs; node 1 empties and is torn down.
        tx.send(ShardMsg {
            node: 1,
            msg: EngineMsg::Detach { query: q1.id },
        })
        .unwrap();
        std::thread::sleep(Duration::from_millis(80));
        // Re-attach on the same node index: a fresh incarnation.
        tx.send(attach_msg(1, node_config(5, TimeDelta::ZERO, 100), &q1))
            .unwrap();
        std::thread::sleep(Duration::from_millis(40));
        tx.send(ShardMsg {
            node: 0,
            msg: EngineMsg::Shutdown,
        })
        .unwrap();
        let reports = handle.join().expect("shard panicked");
        let by_node: HashMap<usize, NodeReport> = reports.into_iter().collect();
        let resident = &by_node[&0];
        let churned = &by_node[&1];
        assert!(resident.ticks >= 20, "resident ticked throughout");
        // Node 1 was live for ~80 of ~160 ms; had its deadline leaked it
        // would have kept ticking through the 80 ms gap too. Allow slack
        // for scheduling, but the gap must be visible.
        assert!(
            churned.ticks <= resident.ticks * 3 / 4,
            "torn-down node kept ticking: {} vs resident {}",
            churned.ticks,
            resident.ticks
        );
        assert!(churned.ticks >= 2, "both incarnations ticked");
    }

    /// One batched SIC message reaches a live node, a torn-down node and a
    /// crashed shard's node: only the live node applies its updates, its
    /// `sic_updates` counts each update, and the durable shard appends
    /// exactly one WAL delta per applied update.
    #[test]
    fn batched_sic_applies_only_to_live_nodes() {
        let dir = std::env::temp_dir().join(format!("themis-shard-sic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ids = IdGen::new();
        let queries: Vec<Arc<QuerySpec>> = (0..3)
            .map(|q| Arc::new(Template::Avg.build(QueryId(q), &mut ids)))
            .collect();
        // Shard 0 hosts nodes 0 (live) and 2 (torn down); shard 1 hosts
        // node 1 and crashes.
        let (tx0, rx0) = crossbeam::channel::unbounded::<ShardMsg>();
        let (tx1, rx1) = crossbeam::channel::unbounded::<ShardMsg>();
        let update = |q: u32, node: u32, sic: f64| SicUpdate {
            query: QueryId(q),
            node: NodeId(node),
            sic: Sic(sic),
        };
        let batch = vec![
            update(0, 0, 0.25),
            update(1, 1, 0.5),
            update(2, 2, 0.75),
            update(0, 0, 0.5),
        ];
        let sic_msg = || ShardMsg {
            node: 0,
            msg: EngineMsg::Sic(batch.clone()),
        };
        let shutdown = || ShardMsg {
            node: 0,
            msg: EngineMsg::Shutdown,
        };
        for node in [0, 2] {
            let config = node_config(50, TimeDelta::ZERO, 100);
            tx0.send(attach_msg(node, config, &queries[node])).unwrap();
        }
        tx0.send(ShardMsg {
            node: 2,
            msg: EngineMsg::Detach {
                query: queries[2].id,
            },
        })
        .unwrap();
        tx0.send(sic_msg()).unwrap();
        tx0.send(shutdown()).unwrap();
        tx1.send(attach_msg(
            1,
            node_config(50, TimeDelta::ZERO, 100),
            &queries[1],
        ))
        .unwrap();
        tx1.send(ShardMsg {
            node: 1,
            msg: EngineMsg::Crash,
        })
        .unwrap();
        tx1.send(sic_msg()).unwrap();
        tx1.send(shutdown()).unwrap();

        let epoch = Instant::now();
        let handles: Vec<_> = [rx0, rx1]
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| {
                let (results_tx, _) = crossbeam::channel::unbounded();
                let routing = ShardRouting {
                    node_txs: vec![tx0.clone(), tx1.clone(), tx0.clone()],
                    results_tx,
                };
                let durability = ShardDurability {
                    dir: dir.clone(),
                    shard,
                    every: Duration::from_secs(3600),
                    sic_bound: 0.0,
                };
                std::thread::spawn(move || {
                    run_shard(routing, rx, &Mailbox::default(), epoch, Some(durability))
                })
            })
            .collect();
        let by_node: HashMap<usize, NodeReport> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard panicked"))
            .collect();
        assert_eq!(by_node[&0].sic_updates, 2, "live node applies both");
        assert_eq!(by_node[&1].sic_updates, 0, "crashed shard applies none");
        assert_eq!(by_node[&2].sic_updates, 0, "torn-down node applies none");

        let logged = themis_core::wal::restore_shard(&dir, 0)
            .expect("readable log")
            .expect("shard 0 logged");
        let expected = [0.25, 0.5].map(|sic| wal::SicDelta {
            node: 0,
            query: QueryId(0),
            sic: Sic(sic),
        });
        assert_eq!(logged.deltas, expected);
        let crashed = themis_core::wal::restore_shard(&dir, 1).expect("readable log");
        assert!(
            crashed.is_none_or(|r| r.deltas.is_empty()),
            "crashed shard wrote deltas"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Batches posted right after their node's Attach is queued — before
    /// the shard thread even starts — all arrive: the shard handles every
    /// queued control message before it enqueues what it took from the
    /// mailbox.
    #[test]
    fn batches_posted_behind_a_queued_attach_all_arrive() {
        let mut ids = IdGen::new();
        let query = Arc::new(Template::Avg.build(QueryId(0), &mut ids));
        let (tx, rx) = crossbeam::channel::unbounded::<ShardMsg>();
        let mailbox = Arc::new(Mailbox::default());
        tx.send(attach_msg(0, node_config(50, TimeDelta::ZERO, 100), &query))
            .unwrap();
        for i in 0..100 {
            mailbox.post(0, source_batch(&query, i, 3), Timestamp(i));
        }
        let handle = spawn_shard(vec![tx.clone()], rx, &mailbox, None);
        std::thread::sleep(Duration::from_millis(30));
        tx.send(shutdown_msg()).unwrap();
        let reports = handle.join().expect("shard panicked");
        assert_eq!(reports[&0].arrived_tuples, 300);
    }

    /// Batches posted just before the Shutdown still count as arrived,
    /// although no tick ever took them; posts after the shard exits are
    /// dropped.
    #[test]
    fn batches_posted_before_shutdown_are_counted() {
        let mut ids = IdGen::new();
        let query = Arc::new(Template::Avg.build(QueryId(0), &mut ids));
        let (tx, rx) = crossbeam::channel::unbounded::<ShardMsg>();
        let mailbox = Arc::new(Mailbox::default());
        tx.send(attach_msg(
            0,
            node_config(1_000, TimeDelta::ZERO, 100),
            &query,
        ))
        .unwrap();
        let handle = spawn_shard(vec![tx.clone()], rx, &mailbox, None);
        std::thread::sleep(Duration::from_millis(20));
        for i in 0..50 {
            mailbox.post(0, source_batch(&query, i, 2), Timestamp(i));
        }
        tx.send(shutdown_msg()).unwrap();
        let reports = handle.join().expect("shard panicked");
        assert_eq!(reports[&0].ticks, 0);
        assert_eq!(reports[&0].arrived_tuples, 100);
        // The exited shard's mailbox is closed: later posts are dropped
        // instead of piling up where no shard will take them.
        mailbox.post(0, source_batch(&query, 50, 2), Timestamp(50));
        let mut late = Vec::new();
        mailbox.take_into(&mut late);
        assert!(late.is_empty(), "a closed mailbox kept a post");
    }

    /// A sleeping shard loses nothing: tuples posted between ticks are all
    /// in the buffer when the next tick fires, so a node pinned to 3
    /// tuples per interval sheds at least 7 of 10.
    #[test]
    fn tuples_posted_while_asleep_reach_the_next_tick() {
        let mut ids = IdGen::new();
        let query = Arc::new(Template::Avg.build(QueryId(0), &mut ids));
        let (tx, rx) = crossbeam::channel::unbounded::<ShardMsg>();
        let mailbox = Arc::new(Mailbox::default());
        let config = NodeConfig {
            fixed_capacity: Some(3),
            ..node_config(100, TimeDelta::ZERO, 100)
        };
        tx.send(attach_msg(0, config, &query)).unwrap();
        let handle = spawn_shard(vec![tx.clone()], rx, &mailbox, None);
        std::thread::sleep(Duration::from_millis(20));
        for i in 0..10 {
            mailbox.post(0, source_batch(&query, i, 1), Timestamp(i));
        }
        // The first tick is due 100 ms after the attach.
        std::thread::sleep(Duration::from_millis(150));
        tx.send(shutdown_msg()).unwrap();
        let report = &handle.join().expect("shard panicked")[&0];
        assert!(report.ticks >= 1, "no tick fired");
        assert_eq!(report.arrived_tuples, 10);
        assert!(
            report.shed_tuples >= 7,
            "tick saw fewer than 10 tuples: shed {}",
            report.shed_tuples
        );
    }

    /// Batches posted to a torn-down node or to a crashed shard's node are
    /// dropped, whether posted before or after the teardown was handled,
    /// while a live shard-mate receives all of its own.
    #[test]
    fn batches_for_crashed_or_torn_down_nodes_are_dropped() {
        let mut ids = IdGen::new();
        let queries: Vec<Arc<QuerySpec>> = (0..3)
            .map(|q| Arc::new(Template::Avg.build(QueryId(q), &mut ids)))
            .collect();
        // Shard 0 hosts nodes 0 (live) and 2 (torn down); shard 1 hosts
        // node 1 and crashes.
        let (tx0, rx0) = crossbeam::channel::unbounded::<ShardMsg>();
        let (tx1, rx1) = crossbeam::channel::unbounded::<ShardMsg>();
        let mailboxes = [Arc::new(Mailbox::default()), Arc::new(Mailbox::default())];
        let node_txs = vec![tx0.clone(), tx1.clone(), tx0.clone()];
        for node in [0, 2] {
            let config = node_config(50, TimeDelta::ZERO, 100);
            tx0.send(attach_msg(node, config, &queries[node])).unwrap();
        }
        tx0.send(ShardMsg {
            node: 2,
            msg: EngineMsg::Detach {
                query: queries[2].id,
            },
        })
        .unwrap();
        tx1.send(attach_msg(
            1,
            node_config(50, TimeDelta::ZERO, 100),
            &queries[1],
        ))
        .unwrap();
        tx1.send(ShardMsg {
            node: 1,
            msg: EngineMsg::Crash,
        })
        .unwrap();
        let post_all = |at: u64| {
            for (node, query) in queries.iter().enumerate() {
                mailboxes[shard_of(node, 2)].post(node, source_batch(query, at, 4), Timestamp(at));
            }
        };
        post_all(0);
        let handles = [
            spawn_shard(node_txs.clone(), rx0, &mailboxes[0], None),
            spawn_shard(node_txs, rx1, &mailboxes[1], None),
        ];
        std::thread::sleep(Duration::from_millis(30));
        post_all(1);
        tx0.send(shutdown_msg()).unwrap();
        tx1.send(shutdown_msg()).unwrap();
        let by_node: HashMap<usize, NodeReport> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("shard panicked"))
            .collect();
        assert_eq!(by_node[&0].arrived_tuples, 8, "live node receives both");
        assert_eq!(by_node[&1].arrived_tuples, 0, "crashed node receives none");
        assert_eq!(
            by_node[&2].arrived_tuples, 0,
            "torn-down node receives none"
        );
    }

    /// A durable shard keeps its checkpoint cadence although its only
    /// node ticks far less often and no batch wakes it.
    #[test]
    fn durable_shard_checkpoints_between_sparse_ticks() {
        let dir = std::env::temp_dir().join(format!("themis-shard-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ids = IdGen::new();
        let query = Arc::new(Template::Avg.build(QueryId(0), &mut ids));
        let (tx, rx) = crossbeam::channel::unbounded::<ShardMsg>();
        let mailbox = Arc::new(Mailbox::default());
        tx.send(attach_msg(
            0,
            node_config(1_000, TimeDelta::ZERO, 100),
            &query,
        ))
        .unwrap();
        let durability = ShardDurability {
            dir: dir.clone(),
            shard: 0,
            every: Duration::from_millis(100),
            sic_bound: 0.0,
        };
        let handle = spawn_shard(vec![tx.clone()], rx, &mailbox, Some(durability));
        std::thread::sleep(Duration::from_millis(550));
        tx.send(shutdown_msg()).unwrap();
        let reports = handle.join().expect("shard panicked");
        assert_eq!(reports[&0].ticks, 0, "the node never ticked");
        // Checkpoint files are numbered from 0 and older ones pruned, so
        // the highest number left counts the checkpoints written.
        let last = std::fs::read_dir(wal::shard_dir(&dir, 0))
            .expect("shard log directory")
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                name.strip_prefix("checkpoint-")?
                    .strip_suffix(".ckpt")?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .expect("no checkpoint written");
        assert!(last >= 3, "only {} checkpoints in ~550 ms", last + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression guard for per-batch wake-ups: 1,000 batches posted over
    /// ~100 ms to a shard whose only node ticks every 200 ms wake it only
    /// a handful of times, and all of them arrive.
    #[test]
    fn mailbox_posts_do_not_wake_the_shard() {
        let mut ids = IdGen::new();
        let query = Arc::new(Template::Avg.build(QueryId(0), &mut ids));
        let (tx, rx) = crossbeam::channel::unbounded::<ShardMsg>();
        let mailbox = Arc::new(Mailbox::default());
        tx.send(attach_msg(
            0,
            node_config(200, TimeDelta::ZERO, 100),
            &query,
        ))
        .unwrap();
        let handle = spawn_shard(vec![tx.clone()], rx, &mailbox, None);
        std::thread::sleep(Duration::from_millis(20));
        let before = mailbox.wakes();
        for ms in 0..100 {
            for i in 0..10 {
                let at = ms * 10 + i;
                mailbox.post(0, source_batch(&query, at, 1), Timestamp(at));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let woken = mailbox.wakes() - before;
        tx.send(shutdown_msg()).unwrap();
        let reports = handle.join().expect("shard panicked");
        assert!(woken <= 5, "1,000 posts woke the shard {woken} times");
        assert_eq!(reports[&0].arrived_tuples, 1_000);
    }

    #[test]
    fn deadlines_fire_in_order() {
        let base = Instant::now();
        let mut heap: BinaryHeap<Deadline> = BinaryHeap::new();
        // Push out of order, with a tie at 30 ms.
        for (ms, node) in [(30u64, 2usize), (10, 0), (30, 1), (20, 3)] {
            heap.push(Deadline {
                at: base + Duration::from_millis(ms),
                node,
                generation: 1,
            });
        }
        let fired: Vec<(u64, usize)> = std::iter::from_fn(|| heap.pop())
            .map(|d| (d.at.duration_since(base).as_millis() as u64, d.node))
            .collect();
        assert_eq!(fired, vec![(10, 0), (20, 3), (30, 1), (30, 2)]);
    }
}
