//! The benchmark's three workloads: how each scenario is generated from
//! the seed, and the engine configuration it runs under.
//!
//! Every input is a pure function of `(workload, seed, run length)`: the
//! real run hands the scenario to `Engine::start` (whose pump, or the
//! remote `source-pump`, seeds each source driver by the installer's
//! formula), and the traced replay rebuilds the very same drivers with
//! [`installs`].

use std::path::Path;
use std::time::Duration;

use themis_bench::scenarios::add_complex_mix;
use themis_core::prelude::*;
use themis_engine::prelude::*;
use themis_query::prelude::*;
use themis_workloads::prelude::*;
use themis_workloads::remote::{build_federated_scenario, FederatedParams, FEDERATED_WINDOW_MS};

/// Shard pool size: at most two, and never more than the host's cores.
pub fn shards() -> usize {
    default_shards().clamp(1, 2)
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's regime: Table-1 template mix at 2x overload.
    OverloadMix,
    /// Tens of thousands of single-source AVG queries, underloaded.
    FanIn,
    /// Federated AVG queries fed over loopback TCP by one `source-pump`
    /// process, with checkpointing and a WAL.
    FederatedDurable,
}

/// Every workload, in `BENCHMARK.json` order.
pub const ALL: [Workload; 3] = [
    Workload::OverloadMix,
    Workload::FanIn,
    Workload::FederatedDurable,
];

// overload-mix: 8 nodes; 8 each of AVG/MAX/COUNT plus 12 two-fragment
// AVG-all/TOP-5/COV queries; 200 t/s per source in 40-tuple batches;
// every node's capacity pinned at half its declared demand.
const MIX_NODES: usize = 8;
const MIX_SIMPLE_EACH: usize = 8;
const MIX_COMPLEX: usize = 12;
const MIX_FRAGMENTS: usize = 2;
const MIX_RATE_TPS: u32 = 200;
const MIX_BATCHES_PER_S: u32 = 5;
/// Declared demand over capacity on every node of `overload-mix`.
pub const MIX_OVERLOAD: f64 = 2.0;

// fan-in: single-source AVG queries at 2 t/s in one batch per second,
// 64 per node, capacity far above demand (nothing is shed).
const FAN_QUERIES: usize = 20_000;
const FAN_PER_NODE: usize = 64;
const FAN_RATE_TPS: u32 = 2;
const FAN_BATCHES_PER_S: u32 = 1;

// federated-durable: the canonical federated scenario scaled to 48
// queries on 8 nodes at 1.5x overload, 10-tuple batches.
const FED_NODES: usize = 8;
const FED_QUERIES: usize = 48;
const FED_RATE_TPS: u32 = 300;
const FED_BATCHES_PER_S: u32 = 30;
const FED_CAPACITY_TPS: u32 = 1_200;
/// Checkpoint cadence of the durable workload.
pub const FED_CHECKPOINT: Duration = Duration::from_millis(500);
/// Early-checkpoint SIC divergence bound of the durable workload.
pub const FED_SIC_BOUND: f64 = 0.25;

/// SIC tracker window and warm-up of the in-process workloads.
const STW_MS: u64 = 2_000;
const WARMUP_MS: u64 = 2_000;
const FED_STW_MS: u64 = 1_500;
const FED_WARMUP_MS: u64 = 2_500;

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OverloadMix => "overload-mix",
            Workload::FanIn => "fan-in",
            Workload::FederatedDurable => "federated-durable",
        }
    }

    /// True when sources run in a separate process over TCP.
    pub fn federated(self) -> bool {
        self == Workload::FederatedDurable
    }

    /// Warm-up before SIC sampling starts, ms.
    pub fn warmup_ms(self) -> u64 {
        if self.federated() {
            FED_WARMUP_MS
        } else {
            WARMUP_MS
        }
    }

    /// Engine set-ups per real run (the measured one plus extras that
    /// start and at once finish an engine), so `setup_s` is a median.
    pub fn setup_samples(self) -> usize {
        match self {
            Workload::OverloadMix => 50,
            Workload::FanIn => 4,
            Workload::FederatedDurable => 30,
        }
    }

    /// Window length of the workload's queries.
    pub fn window(self) -> TimeDelta {
        if self.federated() {
            TimeDelta::from_millis(FEDERATED_WINDOW_MS)
        } else {
            TimeDelta::from_secs(1)
        }
    }

    /// Parameters of the federated scenario for a run of `run_ms`.
    pub fn federated_params(seed: u64, run_ms: u64) -> FederatedParams {
        FederatedParams {
            seed,
            nodes: FED_NODES,
            queries: FED_QUERIES,
            rate_tps: FED_RATE_TPS,
            batches_per_sec: FED_BATCHES_PER_S,
            capacity_tps: FED_CAPACITY_TPS,
            stw_ms: FED_STW_MS,
            warmup_ms: FED_WARMUP_MS,
            duration_ms: run_ms.saturating_sub(FED_WARMUP_MS).max(1_000),
        }
    }

    /// The scenario of one run lasting `run_ms` (warm-up included).
    pub fn scenario(self, seed: u64, run_ms: u64) -> Scenario {
        let duration = TimeDelta::from_millis(run_ms.saturating_sub(WARMUP_MS).max(1_000));
        match self {
            Workload::OverloadMix => {
                let mix = |capacities: Option<Vec<u32>>| {
                    let profile =
                        SourceProfile::steady(MIX_RATE_TPS, MIX_BATCHES_PER_S, Dataset::Uniform);
                    let mut b = ScenarioBuilder::new("overload-mix", seed)
                        .nodes(MIX_NODES)
                        .stw_window(TimeDelta::from_millis(STW_MS))
                        .warmup(TimeDelta::from_millis(WARMUP_MS))
                        .duration(duration)
                        .add_queries(Template::Avg, MIX_SIMPLE_EACH, profile)
                        .add_queries(Template::Max, MIX_SIMPLE_EACH, profile)
                        .add_queries(Template::Count, MIX_SIMPLE_EACH, profile);
                    b = add_complex_mix(b, MIX_COMPLEX, MIX_FRAGMENTS, profile);
                    if let Some(c) = capacities {
                        b = b.node_capacities(c);
                    }
                    b.build().expect("overload-mix placement")
                };
                // Placement does not depend on capacity: place once to
                // learn each node's demand, then pin capacity to half.
                let capacities = mix(None)
                    .demand_per_node_tps()
                    .iter()
                    .map(|d| ((d / MIX_OVERLOAD).round() as u32).max(1))
                    .collect();
                mix(Some(capacities))
            }
            Workload::FanIn => ScenarioBuilder::new("fan-in", seed)
                .nodes(FAN_QUERIES.div_ceil(FAN_PER_NODE))
                .capacity_tps(1_000_000)
                .stw_window(TimeDelta::from_millis(STW_MS))
                .warmup(TimeDelta::from_millis(WARMUP_MS))
                .duration(duration)
                .add_queries(
                    Template::Avg,
                    FAN_QUERIES,
                    SourceProfile::steady(FAN_RATE_TPS, FAN_BATCHES_PER_S, Dataset::Uniform),
                )
                .build()
                .expect("fan-in placement"),
            Workload::FederatedDurable => {
                build_federated_scenario(&Workload::federated_params(seed, run_ms))
            }
        }
    }

    /// The declarative text of every query the scenario holds, in
    /// scenario order (what `query.compile_ns_per_query` compiles).
    pub fn query_texts(self) -> Vec<String> {
        match self {
            Workload::OverloadMix => {
                let mut t = Vec::new();
                for template in [Template::Avg, Template::Max, Template::Count] {
                    t.extend(std::iter::repeat(template.text()).take(MIX_SIMPLE_EACH));
                }
                for i in 0..MIX_COMPLEX {
                    t.push(themis_bench::scenarios::complex_mix(MIX_FRAGMENTS, i).text());
                }
                t
            }
            Workload::FanIn => vec![Template::Avg.text(); FAN_QUERIES],
            Workload::FederatedDurable => {
                let def = QueryDef::aggregate(AggFunc::Avg, "value")
                    .from_stream(StreamDef::new("src", 1))
                    .named("AVG-fed")
                    .window(TimeDelta::from_millis(FEDERATED_WINDOW_MS));
                vec![def.text(); FED_QUERIES]
            }
        }
    }

    /// Engine configuration; `wal_dir` receives the durable workload's
    /// checkpoints and WAL.
    pub fn engine_config(self, wal_dir: &Path) -> EngineConfig {
        let base = EngineConfig {
            policy: PolicyKind::BalanceSic.into(),
            shards: Some(shards()),
            enforce_capacity: true,
            ..Default::default()
        };
        match self {
            Workload::OverloadMix | Workload::FanIn => base,
            Workload::FederatedDurable => EngineConfig {
                ingest_listen: Some("127.0.0.1:0".to_string()),
                remote_sources: true,
                durability_dir: Some(wal_dir.to_path_buf()),
                checkpoint_every: Some(FED_CHECKPOINT),
                sic_divergence_bound: FED_SIC_BOUND,
                ..base
            },
        }
    }
}

/// Share of declared demand the capacities force the shedder to drop:
/// `Σ max(0, demand − capacity) / Σ demand` over nodes.
pub fn expected_shed_share(scenario: &Scenario) -> f64 {
    let demand = scenario.demand_per_node_tps();
    let excess: f64 = demand
        .iter()
        .zip(&scenario.node_capacity_tps)
        .map(|(d, &c)| (d - c as f64).max(0.0))
        .sum();
    excess / demand.iter().sum::<f64>().max(1e-9)
}

/// One source driver as the engine's installer builds it.
pub struct Install {
    /// The query the source feeds.
    pub query: QueryId,
    /// Fragment bound to the source.
    pub fragment: usize,
    /// Node hosting that fragment.
    pub node: usize,
    /// The seeded driver.
    pub driver: SourceDriver,
}

/// Enumerates the scenario's sources in the engine installer's order,
/// seeded by its formula, so the replay emits the real run's batches.
pub fn installs(scenario: &Scenario) -> Vec<Install> {
    let mut out = Vec::new();
    for q in &scenario.queries {
        for fi in 0..q.n_fragments() {
            let node = scenario
                .deployment
                .node_of(q.id, fi)
                .expect("validated deployment")
                .index();
            for b in &q.fragments[fi].sources {
                let spec = q
                    .sources
                    .iter()
                    .find(|s| s.id == b.source)
                    .expect("bound source declared");
                let seed = scenario.seed ^ (b.source.0 as u64).wrapping_mul(0x9E37_79B9);
                out.push(Install {
                    query: q.id,
                    fragment: fi,
                    node,
                    driver: SourceDriver::new(q.id, spec, scenario.profiles[&b.source], seed),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_core::wal::encode_batch_bytes;

    /// The first `beats` batches of every source, as WAL bytes.
    fn generated_bytes(w: Workload, seed: u64, beats: usize) -> Vec<u8> {
        let scenario = w.scenario(seed, 4_000);
        let mut out = Vec::new();
        for mut ins in installs(&scenario).into_iter().take(400) {
            for _ in 0..beats {
                let at = ins.driver.next_time();
                out.extend_from_slice(&at.as_micros().to_le_bytes());
                encode_batch_bytes(&mut out, ins.driver.emit().data());
            }
        }
        out
    }

    #[test]
    fn same_seed_same_batches_other_seed_other_batches() {
        for w in ALL {
            let a = generated_bytes(w, 7, 3);
            assert!(!a.is_empty(), "{}", w.name());
            assert_eq!(a, generated_bytes(w, 7, 3), "{} not reproducible", w.name());
            assert_ne!(a, generated_bytes(w, 8, 3), "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn overload_mix_pins_twice_the_capacity() {
        let s = Workload::OverloadMix.scenario(3, 4_000);
        assert_eq!(s.queries.len(), 3 * MIX_SIMPLE_EACH + MIX_COMPLEX);
        let share = expected_shed_share(&s);
        assert!((share - 0.5).abs() < 0.01, "{share}");
        assert!((s.overload_factor() - MIX_OVERLOAD).abs() < 0.01);
    }

    #[test]
    fn fan_in_is_underloaded_with_small_batches() {
        let s = Workload::FanIn.scenario(3, 4_000);
        assert_eq!(s.queries.len(), FAN_QUERIES);
        assert_eq!(expected_shed_share(&s), 0.0);
        let p = s.profiles.values().next().unwrap();
        assert!(p.batch_size() <= 2);
    }

    #[test]
    fn query_texts_compile_to_the_scenario_shapes() {
        for w in ALL {
            let s = w.scenario(1, 4_000);
            let texts = w.query_texts();
            assert_eq!(texts.len(), s.queries.len(), "{}", w.name());
            let mut ids = IdGen::new();
            for (text, q) in texts.iter().zip(&s.queries) {
                let spec = QueryDef::parse(text)
                    .expect("parses")
                    .validate()
                    .expect("valid")
                    .compile(QueryId(0), &mut ids)
                    .into_spec();
                assert_eq!(spec.n_fragments(), q.n_fragments(), "{text}");
            }
        }
    }
}
