//! `live_ops`: an open loop in one process. Ticks of a 256-node system
//! come due at 40 per second; each is produced alone into a replicated
//! `Cluster` and drained at once, so one tick makes one epoch even when
//! it runs late. The sink is an `AlertingSink` around the Gold writer,
//! which also loads node-power means into the LAKE; the health engine
//! ticks once per epoch. Beside it, one operator thread scrapes
//! `/metrics` and `/healthz` and reads dashboards on its own schedule.

use crate::operator::{self, Op, Outcome};
use crate::reads::{self, Answer, Read};
use crate::stack::{
    self, backlog, build_query, check_dataset, Fold, GoldSink, OpsPlane, BRONZE, POWER, WINDOW_MS,
};
use crate::stats::Samples;
use crate::trace::{TimedSink, Trace};
use crate::Segment;
use bytes::Bytes;
use oda::analytics::online::{AlertingSink, OnlineAnalytics, OnlineConfig};
use oda::core::ingest::BRONZE_SHARDS;
use oda::obs::Registry;
use oda::pipeline::streaming::Sink;
use oda::pipeline::StreamingQuery;
use oda::storage::lake::Lake;
use oda::storage::ocean::OceanDataset;
use oda::stream::{Cluster, RetentionPolicy};
use oda::telemetry::record::Observation;
use oda::telemetry::SensorCatalog;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: u32 = 128;
const TICKS_PER_S: f64 = 40.0;
const PARTITIONS: u32 = 8;
const GROUP: &str = "live";
const MAX_RECORDS: usize = PARTITIONS as usize * BRONZE_SHARDS as usize;
const HOUR_MS: i64 = 3_600_000;

/// One tick, encoded in set-up with `publish_batch`'s node keying.
struct Tick {
    ts_ms: i64,
    records: Vec<(Bytes, Bytes)>,
    observations: usize,
}

pub struct Setup {
    ticks: Vec<Tick>,
    catalog: SensorCatalog,
    fold: Fold,
}

pub fn setup(seed: u64, seconds: f64) -> Setup {
    let n = (TICKS_PER_S * seconds).ceil() as usize + 8;
    let tel = stack::generate(NODES, n, seed);
    let fold = Fold::new(&tel);
    let ticks = tel
        .batches
        .iter()
        .map(|b| {
            let mut shards: Vec<Vec<Observation>> = vec![Vec::new(); BRONZE_SHARDS as usize];
            for &o in &b.observations {
                shards[(o.component.node % BRONZE_SHARDS) as usize].push(o);
            }
            let records = shards
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.is_empty())
                .map(|(i, s)| {
                    (
                        Bytes::from(format!("shard-{i}")),
                        Bytes::from(Observation::encode_batch(s)),
                    )
                })
                .collect();
            Tick {
                ts_ms: b.ts_ms,
                records,
                observations: b.observations.len(),
            }
        })
        .collect();
    Setup {
        ticks,
        catalog: tel.catalog,
        fold,
    }
}

/// A dashboard read's expected answer, from the fold.
fn expected(read: &Read, fold: &Fold) -> Answer {
    let power = fold.sensor_id(POWER).expect("catalog has node power");
    let mut out = Answer::new();
    let (t0, t1, bucket, nodes) = match read {
        Read::Lake {
            node,
            t0,
            t1,
            bucket_ms,
        } => (*t0, *t1, *bucket_ms, *node..*node + 1),
        Read::Recent { t0, t1, .. } => (*t0, *t1, WINDOW_MS, 0..i64::from(NODES)),
        _ => unreachable!("live dashboards read the LAKE and recent Gold"),
    };
    let mut acc: std::collections::BTreeMap<i64, (f64, u64)> = Default::default();
    let mut w = t0.max(0).div_euclid(WINDOW_MS) * WINDOW_MS;
    while w < t1 {
        if w >= t0 {
            for n in nodes.clone() {
                if let Some(c) = fold.get((w, n as u32, power)) {
                    let e = acc.entry(w.div_euclid(bucket) * bucket).or_insert((0.0, 0));
                    e.0 += c.mean();
                    e.1 += 1;
                }
            }
        }
        w += WINDOW_MS;
    }
    for (b, (sum, k)) in acc {
        out.insert((b, String::new()), vec![sum / k as f64]);
    }
    out
}

struct DataPlane {
    latency: Samples,
    gen_lateness: Samples,
    committed: usize,
    observations: usize,
    wall: Duration,
    backlog_start: f64,
    backlog_end: f64,
}

/// Produce and commit ticks on the wall schedule until `deadline`.
#[allow(clippy::too_many_arguments)]
fn drive(
    s: &Setup,
    cluster: &Arc<Cluster>,
    query: &mut StreamingQuery,
    sink: &mut dyn Sink,
    plane: &OpsPlane,
    start: Instant,
    deadline: Instant,
    trace: Option<&Arc<Trace>>,
) -> Result<DataPlane, String> {
    let period = Duration::from_secs_f64(1.0 / TICKS_PER_S);
    let warm = start + (deadline - start) / 20;
    let mut d = DataPlane {
        latency: Samples::default(),
        gen_lateness: Samples::default(),
        committed: 0,
        observations: 0,
        wall: Duration::ZERO,
        backlog_start: -1.0,
        backlog_end: 0.0,
    };
    let due_by = |t: Instant| ((t - start).as_secs_f64() * TICKS_PER_S).floor() as usize + 1;
    for (k, tick) in s.ticks.iter().enumerate() {
        let due = start + period * k as u32;
        if due >= deadline || Instant::now() >= deadline {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let begin = Instant::now();
        d.gen_lateness.push((begin - due).as_nanos() as u64);
        if d.backlog_start < 0.0 && begin >= warm {
            d.backlog_start = due_by(begin).saturating_sub(k) as f64;
        }
        let root = trace.map_or(0, |tr| tr.id());
        for (key, value) in &tick.records {
            cluster
                .produce(BRONZE, tick.ts_ms, Some(key.clone()), value.clone())
                .map_err(|e| format!("produce tick {k}: {e}"))?;
        }
        if let Some(tr) = trace {
            let t1 = Instant::now();
            tr.span(
                tr.id(),
                root,
                root,
                "produce",
                tr.ns_of(begin),
                tr.ns_of(t1),
            );
            tr.add("stream.produce_ns", (t1 - begin).as_nanos() as f64);
            tr.add("stream.produce_records", tick.observations as f64);
            let bytes: usize = tick.records.iter().map(|(k, v)| k.len() + v.len()).sum();
            tr.add("stream.produce_bytes", bytes as f64);
            tr.add("stream.backlog_records", backlog(&**cluster, GROUP) as f64);
        }
        let epoch = trace.map(|tr| tr.begin_epoch(root));
        let records = query
            .run_once(sink)
            .map_err(|e| format!("epoch for tick {k}: {e}"))?;
        if let (Some(tr), Some(e)) = (trace, &epoch) {
            tr.end_epoch(e, records > 0, root);
            tr.add("pipeline.records", records as f64);
        }
        if records == 0 {
            return Err(format!("tick {k} committed nothing"));
        }
        plane.observe(trace, root, root);
        let done = Instant::now();
        d.latency.push((done - due).as_nanos() as u64);
        d.committed += 1;
        d.observations += tick.observations;
        d.wall = done - start;
        if let Some(tr) = trace {
            tr.span(root, 0, root, "tick", tr.ns_of(due), tr.ns_of(done));
            if k % 40 == 39 {
                tr.add(
                    "pipeline.state_bytes",
                    query.state().snapshot().len() as f64,
                );
            }
        }
    }
    let end = Instant::now().min(deadline);
    d.backlog_end = due_by(end).min(s.ticks.len()).saturating_sub(d.committed) as f64;
    d.backlog_start = d.backlog_start.max(0.0);
    Ok(d)
}

pub fn segment(s: &Setup, seconds: f64, trace: Option<&Arc<Trace>>) -> Result<Segment, String> {
    let registry = Registry::new();
    let cluster = Cluster::new(3, 2);
    cluster.attach_metrics(&registry);
    cluster
        .create_topic(BRONZE, PARTITIONS, RetentionPolicy::unbounded())
        .map_err(|e| e.to_string())?;
    let (ocean, dataset) = stack::gold_dataset(&registry, true)?;
    let reader = OceanDataset::create(ocean, "gold", "silver_windows", stack::gold_schema(true))
        .map_err(|e| e.to_string())?;
    let lake = Arc::new(Lake::new());
    lake.attach_metrics(&registry);
    let mut query = build_query(
        cluster.clone(),
        GROUP,
        &s.catalog,
        2,
        MAX_RECORDS,
        true,
        &registry,
        trace,
    )?;
    let gold = GoldSink::new(dataset, Some(lake.clone()), trace.cloned());
    let visible = gold.visible.clone();
    let mut online = OnlineAnalytics::new(OnlineConfig::default());
    online.attach_metrics(&registry);
    let mut alerting = AlertingSink::new(gold, online);
    let plane = OpsPlane::start(registry, stack::health_engine())?;
    let plan = operator::schedule(
        &[
            (Op::Metrics, 25.0),
            (Op::Healthz, 25.0),
            (Op::Dashboard, 25.0),
        ],
        seconds,
    );
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + Duration::from_secs_f64(seconds);
    let addr = plane.addr();
    let fold = &s.fold;
    let mut dashboard = |seq: u64, root: u64| -> Outcome {
        let v = *visible.lock().expect("visibility poisoned");
        let read = if seq % 2 == 1 {
            let node = (seq / 2 * 37) as i64 % i64::from(NODES);
            Read::Lake {
                node,
                t0: v.closed_ms - HOUR_MS,
                t1: v.closed_ms,
                bucket_ms: 5 * WINDOW_MS,
            }
        } else {
            Read::Recent {
                t0: v.closed_ms - 5 * WINDOW_MS,
                t1: v.closed_ms,
                parts: 8,
            }
        };
        match reads::execute(&read, &reader, &lake, v.parts, trace.map(|t| (t, root))) {
            Ok(answer) if reads::same(&answer, &expected(&read, fold)) => Outcome::Ok,
            Ok(_) => Outcome::Wrong(format!("dashboard {read:?} disagrees with the reference")),
            Err(e) => Outcome::Failed(format!("dashboard {read:?}: {e}")),
        }
    };
    let mut timed;
    let sink: &mut dyn Sink = match trace {
        Some(tr) => {
            timed = TimedSink::new(&mut alerting, tr.clone());
            &mut timed
        }
        None => &mut alerting,
    };
    let result = std::thread::scope(|scope| {
        let (plan, dashboard) = (&plan, &mut dashboard);
        let ops = scope.spawn(move || operator::run(addr, plan, start, trace, dashboard));
        let data = drive(
            s, &cluster, &mut query, sink, &plane, start, deadline, trace,
        );
        (ops.join().expect("operator thread panicked"), data)
    });
    plane.shutdown();
    let (ops, data) = result;
    let mut seg = Segment::default();
    seg.absorb_ops(ops);
    let d = match data {
        Ok(d) => d,
        Err(e) => {
            seg.attempted += 1;
            seg.failed += 1;
            seg.wrong.push(e);
            return Ok(seg);
        }
    };
    seg.attempted += d.committed as u64;
    // Every committed window must equal the reference fold.
    if d.committed > 0 {
        match check_dataset(&reader, fold, fold.watermark_after[d.committed - 1], None) {
            Ok(rows) => seg.layers.set(
                "storage.gold_bytes_per_row",
                reader.byte_size() as f64 / rows.max(1) as f64,
                "B/row",
            ),
            Err(e) => seg.wrong.push(format!("live Gold: {e}")),
        }
    }
    seg.throughput = d.observations as f64 / d.wall.as_secs_f64().max(1e-9);
    seg.latency = d.latency;
    seg.gen_lateness = d.gen_lateness;
    seg.bytes_per_obs = reader.byte_size() as f64 / d.observations.max(1) as f64;
    seg.layers
        .set("storage.ocean_parts", reader.parts().len() as f64, "count");
    seg.layers
        .set("analytics.alerts", alerting.alerts().len() as f64, "count");
    seg.layers
        .set("gen.backlog_start_ticks", d.backlog_start, "ticks");
    seg.layers
        .set("gen.backlog_end_ticks", d.backlog_end, "ticks");
    Ok(seg)
}
