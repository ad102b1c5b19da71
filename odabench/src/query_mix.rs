//! `query_mix`: one closed-loop client, reads only.
//!
//! Set-up builds four simulated hours of Gold for a 256-node system
//! through `backfill`'s pipeline (one OCEAN part per 64-tick epoch) and
//! loads node-power means into the LAKE. The timed part cycles through a
//! seeded mix of planned reads over every Gold part (point lookups,
//! fleet rollups, full scans) and LAKE downsamples, checking each answer
//! against the same read done at set-up on a `read_dataset` full scan.
//! The operator scrapes beside it, as in every workload.

use crate::operator::{self, Op, Outcome};
use crate::reads::{self, Answer, Read};
use crate::stack::{self, build_query, GoldSink, OpsPlane, BRONZE, SYSTEM, WINDOW_MS};
use crate::stats::median;
use crate::trace::Trace;
use crate::Segment;
use oda::core::ingest::{publish_batch, BRONZE_SHARDS};
use oda::obs::{HealthEngine, Registry};
use oda::pipeline::frame_io::read_dataset;
use oda::storage::lake::Lake;
use oda::storage::ocean::OceanDataset;
use oda::stream::{Broker, RetentionPolicy};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const NODES: u32 = 256;
const TICKS: usize = 960;
const CHUNK_TICKS: usize = 64;
const PARTITIONS: u32 = 8;
const MIX: usize = 48;
const HOUR_MS: i64 = 3_600_000;
const ROLLUP_SENSORS: [&str; 5] = [
    "node_power_w",
    "node_inlet_temp_c",
    "node_outlet_temp_c",
    "gpu_power_w",
    "cpu_power_w",
];

pub struct Setup {
    registry: Registry,
    health: Arc<Mutex<HealthEngine>>,
    dataset: OceanDataset,
    lake: Arc<Lake>,
    mix: Vec<Read>,
    answers: Vec<Answer>,
    bytes_per_obs: f64,
    bytes_per_row: f64,
}

/// SplitMix64 step: the mix is a pure function of the seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The read mix: a fixed number of each kind, so every seed offers the
/// same work; the seed picks nodes, sensors, time ranges and the order.
fn mix(seed: u64, last_window: i64) -> Vec<Read> {
    let mut st = seed ^ 0x0da_bec4;
    let hours = (last_window / HOUR_MS).max(1) as u64;
    let mut reads: Vec<Read> = (0..MIX)
        .map(|i| {
            let node = (splitmix(&mut st) % u64::from(NODES)) as i64;
            match i % 24 {
                0..=9 => Read::Point { node },
                10..=15 => Read::Rollup {
                    sensor: ROLLUP_SENSORS[(splitmix(&mut st) % 5) as usize].to_string(),
                },
                16..=18 => Read::Scan,
                _ => {
                    let t0 = (splitmix(&mut st) % hours) as i64 * HOUR_MS;
                    Read::Lake {
                        node,
                        t0,
                        t1: t0 + HOUR_MS,
                        bucket_ms: 5 * WINDOW_MS,
                    }
                }
            }
        })
        .collect();
    for i in (1..reads.len()).rev() {
        reads.swap(i, (splitmix(&mut st) % (i as u64 + 1)) as usize);
    }
    reads
}

pub fn setup(seed: u64) -> Result<Setup, String> {
    let tel = stack::generate(NODES, TICKS, seed);
    let registry = Registry::new();
    let health = stack::health_engine();
    let broker = Broker::new();
    broker.attach_metrics(&registry);
    for (topic, parts) in [(BRONZE, PARTITIONS), ("bench.events", 1), ("bench.jobs", 1)] {
        broker
            .create_topic(topic, parts, RetentionPolicy::unbounded())
            .map_err(|e| e.to_string())?;
    }
    let (ocean, dataset) = stack::gold_dataset(&registry, false)?;
    let reader = OceanDataset::create(ocean, "gold", "silver_windows", stack::gold_schema(false))
        .map_err(|e| e.to_string())?;
    let lake = Arc::new(Lake::new());
    lake.attach_metrics(&registry);
    let max_records = PARTITIONS as usize * CHUNK_TICKS * BRONZE_SHARDS as usize;
    let mut query = build_query(
        broker.clone(),
        "history",
        &tel.catalog,
        2,
        max_records,
        false,
        &registry,
        None,
    )?;
    let mut sink = GoldSink::new(dataset, Some(lake.clone()), None);
    for chunk in tel.batches.chunks(CHUNK_TICKS) {
        for batch in chunk {
            publish_batch(&broker, SYSTEM, batch).map_err(|e| e.to_string())?;
        }
        query.run_once(&mut sink).map_err(|e| e.to_string())?;
        health
            .lock()
            .expect("health engine poisoned")
            .observe(&registry);
    }
    let gold = read_dataset(&reader).map_err(|e| e.to_string())?;
    let last_window = gold
        .i64s("window")
        .map_err(|e| e.to_string())?
        .iter()
        .copied()
        .max()
        .unwrap_or(0);
    let mix = mix(seed, last_window);
    let answers = mix
        .iter()
        .map(|r| reads::reference(r, &gold))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Setup {
        bytes_per_obs: reader.byte_size() as f64 / tel.observations as f64,
        bytes_per_row: reader.byte_size() as f64 / gold.rows().max(1) as f64,
        registry,
        health,
        dataset: reader,
        lake,
        mix,
        answers,
    })
}

pub fn segment(s: &Setup, seconds: f64, trace: Option<&Arc<Trace>>) -> Result<Segment, String> {
    let plane = OpsPlane::start(s.registry.clone(), s.health.clone())?;
    let plan = operator::schedule(&[(Op::Metrics, 25.0), (Op::Healthz, 25.0)], seconds);
    let start = Instant::now() + Duration::from_millis(20);
    let addr = plane.addr();
    let mut seg = Segment::default();
    let ops = std::thread::scope(|scope| {
        let ops = scope.spawn(|| operator::run(addr, &plan, start, trace, &mut |_, _| Outcome::Ok));
        let now = Instant::now();
        if start > now {
            std::thread::sleep(start - now);
        }
        let mut i = 0usize;
        let mut done_in_second = vec![0u32; seconds.floor() as usize];
        while start.elapsed().as_secs_f64() < seconds {
            let read = &s.mix[i % MIX];
            let root = trace.map_or(0, |tr| tr.id());
            let t0 = Instant::now();
            let result = reads::execute(
                read,
                &s.dataset,
                &s.lake,
                usize::MAX,
                trace.map(|t| (t, root)),
            );
            let t1 = Instant::now();
            if let Some(tr) = trace {
                tr.span(root, 0, root, "query", tr.ns_of(t0), tr.ns_of(t1));
            }
            seg.attempted += 1;
            match result {
                Ok(answer) if reads::same(&answer, &s.answers[i % MIX]) => {
                    seg.latency.push((t1 - t0).as_nanos() as u64);
                    let second = (t1 - start).as_secs() as usize;
                    if second < done_in_second.len() {
                        done_in_second[second] += 1;
                    }
                }
                Ok(_) => {
                    seg.failed += 1;
                    seg.wrong
                        .push(format!("{read:?} disagrees with the full-scan reference"));
                    break;
                }
                Err(e) => {
                    seg.failed += 1;
                    seg.errors.push(format!("{read:?}: {e}"));
                }
            }
            i += 1;
        }
        // Reads completed per whole second, median over the run's
        // seconds: a burst of host noise slows a second, not the figure.
        let per_second: Vec<f64> = done_in_second.iter().map(|&n| n as f64).collect();
        seg.throughput = if per_second.is_empty() {
            0.0
        } else {
            median(&per_second)
        };
        ops.join().expect("operator thread panicked")
    });
    plane.shutdown();
    seg.absorb_ops(ops);
    seg.bytes_per_obs = s.bytes_per_obs;
    seg.layers.set(
        "storage.ocean_parts",
        s.dataset.parts().len() as f64,
        "count",
    );
    seg.layers
        .set("storage.gold_bytes_per_row", s.bytes_per_row, "B/row");
    Ok(seg)
}
