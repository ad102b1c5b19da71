//! `backfill`: a closed loop that replays 1.6 simulated hours (384 ticks,
//! ≈5.1 M observations) of a 1,024-node system as fast as the write path
//! goes.
//!
//! Each pass builds a fresh stack: `publish_batch` into a `Broker`, a
//! 2-worker `StreamingQuery` (quality map, 60 s window transform) that
//! drains one 64-tick chunk per epoch, and a Gold sink appending each
//! epoch's frame to OCEAN, checkpointing every epoch. The pass's Gold is
//! then read back and checked against the reference fold.

use crate::operator::{self, Op};
use crate::stack::{
    self, backlog, build_query, check_dataset, Fold, GoldSink, OpsPlane, Telemetry, BRONZE, SYSTEM,
};
use crate::stats::{median, Samples};
use crate::trace::{TimedSink, Trace};
use crate::{Layers, Segment};
use oda::core::ingest::publish_batch;
use oda::obs::Registry;
use oda::pipeline::streaming::Sink;
use oda::stream::{Broker, RetentionPolicy};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: u32 = 1_024;
const TICKS: usize = 384;
const CHUNK_TICKS: usize = 64;
const PARTITIONS: u32 = 8;
const GROUP: &str = "gold";
/// Large enough that one `run_once` drains a whole chunk whatever the
/// key spread: every partition's budget covers every record of it.
const MAX_RECORDS: usize =
    PARTITIONS as usize * CHUNK_TICKS * oda::core::ingest::BRONZE_SHARDS as usize;

pub struct Setup {
    tel: Telemetry,
    fold: Fold,
}

pub fn setup(seed: u64) -> Setup {
    let tel = stack::generate(NODES, TICKS, seed);
    let fold = Fold::new(&tel);
    Setup { tel, fold }
}

struct Pass {
    observations: usize,
    wall: Duration,
    gold_bytes: usize,
    gold_rows: usize,
    parts: usize,
}

/// One replay through a fresh stack; returns after the Gold check.
fn pass(
    s: &Setup,
    plane: &OpsPlane,
    workers: usize,
    trace: Option<&Arc<Trace>>,
    latency: &mut Samples,
) -> Result<Pass, String> {
    let registry = &plane.registry;
    let broker = Broker::new();
    broker.attach_metrics(registry);
    for (topic, parts) in [(BRONZE, PARTITIONS), ("bench.events", 1), ("bench.jobs", 1)] {
        broker
            .create_topic(topic, parts, RetentionPolicy::unbounded())
            .map_err(|e| e.to_string())?;
    }
    let (ocean, dataset) = stack::gold_dataset(registry, false)?;
    let reader = oda::storage::ocean::OceanDataset::create(
        ocean,
        "gold",
        "silver_windows",
        stack::gold_schema(false),
    )
    .map_err(|e| e.to_string())?;
    let mut query = build_query(
        broker.clone(),
        GROUP,
        &s.tel.catalog,
        workers,
        MAX_RECORDS,
        false,
        registry,
        trace,
    )?;
    let mut gold = GoldSink::new(dataset, None, trace.cloned());
    let mut timed;
    let sink: &mut dyn Sink = match trace {
        Some(tr) => {
            timed = TimedSink::new(&mut gold, tr.clone());
            &mut timed
        }
        None => &mut gold,
    };
    let start = Instant::now();
    let mut published = Vec::with_capacity(CHUNK_TICKS);
    for (c, chunk) in s.tel.batches.chunks(CHUNK_TICKS).enumerate() {
        published.clear();
        let tick_trace = trace.map(|tr| (tr.id(), tr.now_ns()));
        for batch in chunk {
            let t0 = Instant::now();
            published.push(t0);
            let (obs, _, _) = publish_batch(&broker, SYSTEM, batch).map_err(|e| e.to_string())?;
            if let (Some(tr), Some((root, _))) = (trace, tick_trace) {
                let t1 = Instant::now();
                tr.span(tr.id(), root, root, "produce", tr.ns_of(t0), tr.ns_of(t1));
                tr.add("stream.produce_ns", (t1 - t0).as_nanos() as f64);
                tr.add("stream.produce_records", obs as f64);
            }
        }
        let epoch = trace.map(|tr| {
            tr.add("stream.backlog_records", backlog(&*broker, GROUP) as f64);
            tr.begin_epoch(tick_trace.map_or(0, |t| t.0))
        });
        let records = query.run_once(sink).map_err(|e| e.to_string())?;
        if let (Some(tr), Some(e)) = (trace, &epoch) {
            tr.end_epoch(e, records > 0, e.trace);
            tr.add("pipeline.records", records as f64);
        }
        let committed = Instant::now();
        if records == 0 || backlog(&*broker, GROUP) != 0 {
            return Err(format!("chunk {c} was not drained by one epoch"));
        }
        for t in &published {
            latency.push((committed - *t).as_nanos() as u64);
        }
        let (root, _) = tick_trace.unwrap_or((0, 0));
        plane.observe(trace, root, root);
        if let (Some(tr), Some((root, start_ns))) = (trace, tick_trace) {
            tr.span(root, 0, root, "chunk", start_ns, tr.now_ns());
            if c % 4 == 3 {
                tr.add(
                    "pipeline.state_bytes",
                    query.state().snapshot().len() as f64,
                );
            }
        }
    }
    let wall = start.elapsed();
    if let Some(tr) = trace {
        tr.add("stream.produce_bytes", broker.bytes() as f64);
    }
    // Read the pass's Gold back, part by part, and check every row.
    let watermark = *s.fold.watermark_after.last().expect("ticks generated");
    let gold_rows = check_dataset(&reader, &s.fold, watermark, trace)?;
    Ok(Pass {
        observations: s.tel.observations,
        wall,
        gold_bytes: reader.byte_size(),
        gold_rows,
        parts: reader.parts().len(),
    })
}

/// Replay passes for `seconds` with the operator scraping beside them.
pub fn segment(
    s: &Setup,
    seconds: f64,
    workers: usize,
    trace: Option<&Arc<Trace>>,
) -> Result<Segment, String> {
    let plane = OpsPlane::start(Registry::new(), stack::health_engine())?;
    let plan = operator::schedule(&[(Op::Metrics, 25.0), (Op::Healthz, 25.0)], seconds);
    let start = Instant::now() + Duration::from_millis(20);
    let addr = plane.addr();
    let mut seg = Segment::default();
    let result = std::thread::scope(|scope| {
        let ops = scope
            .spawn(|| operator::run(addr, &plan, start, trace, &mut |_, _| operator::Outcome::Ok));
        let mut passes = Vec::new();
        let mut failure = None;
        while start.elapsed().as_secs_f64() < seconds || passes.is_empty() {
            match pass(s, &plane, workers, trace, &mut seg.latency) {
                Ok(p) => passes.push(p),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        (
            ops.join().expect("operator thread panicked"),
            passes,
            failure,
        )
    });
    plane.shutdown();
    let (ops, passes, failure) = result;
    seg.absorb_ops(ops);
    seg.attempted += passes.len() as u64;
    if let Some(e) = failure {
        seg.attempted += 1;
        seg.failed += 1;
        seg.wrong.push(e);
    }
    // The median pass: a burst of host noise slows one pass, not the
    // figure.
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.observations as f64 / p.wall.as_secs_f64())
        .collect();
    seg.throughput = if rates.is_empty() {
        0.0
    } else {
        median(&rates)
    };
    if let Some(p) = passes.last() {
        seg.bytes_per_obs = p.gold_bytes as f64 / p.observations as f64;
        seg.layers
            .set("storage.ocean_parts", p.parts as f64, "count");
        seg.layers.set(
            "storage.gold_bytes_per_row",
            p.gold_bytes as f64 / p.gold_rows as f64,
            "B/row",
        );
    }
    Ok(seg)
}

/// Traced run extras: the 1-worker baseline of the partition stage.
pub fn single_worker_speedup(
    s: &Setup,
    seconds: f64,
    two: &Layers,
) -> Result<(Segment, f64), String> {
    let tr = Trace::new();
    let one = segment(s, seconds, 1, Some(&tr))?;
    let stage = |t: &Trace| {
        let a = t.acc("pipeline.partition_stage_ns");
        a.sum / a.n.max(1) as f64
    };
    let two_stage = two.get("pipeline.partition_stage_ns");
    Ok((
        one,
        if two_stage > 0.0 {
            stage(&tr) / two_stage
        } else {
            0.0
        },
    ))
}
