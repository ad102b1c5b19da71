//! What every workload shares: the simulated system, generated
//! telemetry, the reference fold, the Gold sink and the operator plane.

use crate::stats::close;
use crate::trace::{sink_ctx, timed_decoder, timed_map, timed_transform, TimedBus, Trace};
use oda::obs::{HealthEngine, Registry};
use oda::pipeline::checkpoint::CheckpointStore;
use oda::pipeline::medallion::{
    observation_decoder, quality_filter_map, streaming_silver_transform,
    streaming_silver_transform_gap_marked,
};
use oda::pipeline::streaming::{EpochMeta, Sink};
use oda::pipeline::{Frame, PipelineError, StreamingQuery};
use oda::serve::{serve, Endpoints, ServerConfig, ServerHandle};
use oda::storage::colfile::{ColumnType, TableSchema};
use oda::storage::lake::{Lake, Point};
use oda::storage::ocean::{Ocean, OceanDataset};
use oda::stream::{Consumer, MessageBus};
use oda::telemetry::jobs::WorkloadConfig;
use oda::telemetry::record::Quality;
use oda::telemetry::system::SystemModel;
use oda::telemetry::{SensorCatalog, TelemetryBatch, TelemetryGenerator};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Simulated seconds per tick and per Silver/Gold window.
pub const TICK_MS: i64 = 15_000;
pub const WINDOW_MS: i64 = 60_000;
/// System name: topic prefix for `publish_batch`.
pub const SYSTEM: &str = "bench";
pub const BRONZE: &str = "bench.bronze";
/// The LAKE series the Gold sink loads and dashboards read.
pub const POWER: &str = "node_power_w";

/// `tiny`'s per-node shape at `nodes / 16` cabinets of 16 nodes.
pub fn system(nodes: u32) -> SystemModel {
    let mut m = SystemModel::tiny();
    let per_node_mw = m.peak_mw / f64::from(m.node_count());
    m.cabinets = nodes / 16;
    m.nodes_per_cabinet = 16;
    m.peak_mw = per_node_mw * f64::from(nodes);
    m
}

/// Pre-generated telemetry: the only input the stack ever sees.
pub struct Telemetry {
    pub batches: Vec<TelemetryBatch>,
    pub catalog: SensorCatalog,
    pub observations: usize,
}

/// A busy facility: jobs arrive every 10 s on average and run minutes
/// rather than hours, so even a short replay sees many jobs start and
/// end. The fleet's load, and with it the data, then does not hinge on
/// which few long jobs a seed happens to draw.
fn workload() -> WorkloadConfig {
    WorkloadConfig {
        mean_interarrival_s: 10.0,
        duration_scale: 0.05,
        backfill: true,
        ..WorkloadConfig::default()
    }
}

pub fn generate(nodes: u32, ticks: usize, seed: u64) -> Telemetry {
    let mut g =
        TelemetryGenerator::with_workload(system(nodes), seed, workload()).with_tick_ms(TICK_MS);
    let batches = g.run(ticks);
    let observations = batches.iter().map(|b| b.observations.len()).sum();
    Telemetry {
        batches,
        catalog: g.catalog().clone(),
        observations,
    }
}

/// One reference cell, folded independently of the stack's state store.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub sum: f64,
    pub count: u64,
    pub min: f64,
    pub max: f64,
}

impl Cell {
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

type Key = (i64, u32, u16);

/// Per-(window, node, sensor) fold of the Good, non-NaN observations,
/// sorted by key, plus the event-time watermark after each tick.
pub struct Fold {
    cells: Vec<(Key, Cell)>,
    /// Max Good observation time after ticks `0..=i`.
    pub watermark_after: Vec<i64>,
    sensor_ids: HashMap<String, u16>,
}

impl Fold {
    pub fn new(t: &Telemetry) -> Fold {
        // Windows close in tick order: fold the open ones in a map and
        // move each into the sorted list once a later tick begins.
        let mut open: BTreeMap<i64, HashMap<(u32, u16), Cell>> = BTreeMap::new();
        let mut cells: Vec<(Key, Cell)> = Vec::new();
        let mut watermark_after = Vec::with_capacity(t.batches.len());
        let mut wm = i64::MIN;
        let flush = |open: &mut BTreeMap<i64, HashMap<(u32, u16), Cell>>,
                     cells: &mut Vec<(Key, Cell)>,
                     below: i64| {
            while let Some(entry) = open.first_entry() {
                if *entry.key() >= below {
                    break;
                }
                let (w, m) = entry.remove_entry();
                let mut done: Vec<(Key, Cell)> =
                    m.into_iter().map(|((n, s), c)| ((w, n, s), c)).collect();
                done.sort_unstable_by_key(|e| e.0);
                cells.extend(done);
            }
        };
        for b in &t.batches {
            flush(
                &mut open,
                &mut cells,
                b.ts_ms.div_euclid(WINDOW_MS) * WINDOW_MS,
            );
            for o in &b.observations {
                if o.quality != Quality::Good || o.value.is_nan() {
                    continue;
                }
                wm = wm.max(o.ts_ms);
                let w = o.ts_ms.div_euclid(WINDOW_MS) * WINDOW_MS;
                let c = open
                    .entry(w)
                    .or_default()
                    .entry((o.component.node, o.sensor))
                    .or_insert(Cell {
                        sum: 0.0,
                        count: 0,
                        min: f64::INFINITY,
                        max: f64::NEG_INFINITY,
                    });
                c.sum += o.value;
                c.count += 1;
                c.min = c.min.min(o.value);
                c.max = c.max.max(o.value);
            }
            watermark_after.push(wm);
        }
        flush(&mut open, &mut cells, i64::MAX);
        assert!(
            cells.windows(2).all(|p| p[0].0 < p[1].0),
            "observations arrived in a window that had already closed"
        );
        let sensor_ids = t
            .catalog
            .specs()
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i as u16))
            .collect();
        Fold {
            cells,
            watermark_after,
            sensor_ids,
        }
    }

    pub fn sensor_id(&self, name: &str) -> Option<u16> {
        self.sensor_ids.get(name).copied()
    }

    fn index(&self, key: Key) -> Option<usize> {
        self.cells.binary_search_by_key(&key, |e| e.0).ok()
    }

    pub fn get(&self, key: Key) -> Option<&Cell> {
        self.index(key).map(|i| &self.cells[i].1)
    }

    /// Cells whose window is closed once the watermark reaches `wm`.
    pub fn closed_cells(&self, wm: i64) -> usize {
        self.cells.partition_point(|e| e.0 .0 + WINDOW_MS <= wm)
    }
}

/// Compare Gold parts to the fold: each real row equals its cell (count
/// exactly, statistics to 1e-9), each gap row has no cell, no key
/// repeats, and every cell of a closed window is present.
pub struct GoldCheck<'a> {
    fold: &'a Fold,
    seen: Vec<bool>,
    real: usize,
    rows: usize,
}

impl<'a> GoldCheck<'a> {
    pub fn new(fold: &'a Fold) -> GoldCheck<'a> {
        GoldCheck {
            fold,
            seen: vec![false; fold.cells.len()],
            real: 0,
            rows: 0,
        }
    }

    pub fn part(&mut self, gold: &Frame) -> Result<(), String> {
        let err = |e: PipelineError| e.to_string();
        let window = gold.i64s("window").map_err(err)?;
        let node = gold.i64s("node").map_err(err)?;
        let (dict, codes) = gold.cat("sensor").map_err(err)?.to_dict();
        let mean = gold.f64s("mean").map_err(err)?;
        let min = gold.f64s("min").map_err(err)?;
        let max = gold.f64s("max").map_err(err)?;
        let count = gold.i64s("count").map_err(err)?;
        let gap = gold.i64s("gap").ok();
        let ids: Vec<Option<u16>> = dict.iter().map(|s| self.fold.sensor_id(s)).collect();
        self.rows += gold.rows();
        for i in 0..gold.rows() {
            let name = &dict[codes[i] as usize];
            let id = ids[codes[i] as usize].ok_or_else(|| format!("unknown sensor {name}"))?;
            let key = (window[i], node[i] as u32, id);
            let idx = self.fold.index(key);
            if gap.is_some_and(|g| g[i] == 1) {
                if idx.is_some() || count[i] != 0 {
                    return Err(format!("gap row {key:?} ({name}) has samples"));
                }
                continue;
            }
            let idx =
                idx.ok_or_else(|| format!("Gold row {key:?} ({name}) has no reference cell"))?;
            if std::mem::replace(&mut self.seen[idx], true) {
                return Err(format!("duplicate Gold row {key:?} ({name})"));
            }
            self.real += 1;
            let c = &self.fold.cells[idx].1;
            if c.count as i64 != count[i]
                || !close(c.mean(), mean[i], 1e-9)
                || !close(c.min, min[i], 1e-9)
                || !close(c.max, max[i], 1e-9)
            {
                return Err(format!(
                    "Gold row {key:?} ({name}) = ({}, {}, {}, {}), reference ({}, {}, {}, {})",
                    count[i],
                    mean[i],
                    min[i],
                    max[i],
                    c.count,
                    c.mean(),
                    c.min,
                    c.max
                ));
            }
        }
        Ok(())
    }

    /// Finish: every closed cell must have been seen. Returns Gold rows.
    pub fn finish(self, watermark: i64) -> Result<usize, String> {
        let expected = self.fold.closed_cells(watermark);
        if self.real != expected {
            return Err(format!(
                "{} Gold rows for {expected} closed reference cells",
                self.real
            ));
        }
        Ok(self.rows)
    }
}

/// Read every part of `dataset` and check it against `fold`; returns
/// the Gold row count. Part opens are timed when traced.
pub fn check_dataset(
    dataset: &OceanDataset,
    fold: &Fold,
    watermark: i64,
    trace: Option<&Arc<Trace>>,
) -> Result<usize, String> {
    let mut check = GoldCheck::new(fold);
    let names: Vec<String> = dataset
        .schema()
        .columns
        .iter()
        .map(|(n, _)| n.clone())
        .collect();
    for key in dataset.parts() {
        let t0 = Instant::now();
        let table = dataset.open_part(&key).map_err(|e| e.to_string())?;
        if let Some(tr) = trace {
            tr.add("storage.part_open_ns", t0.elapsed().as_nanos() as f64);
        }
        for g in 0..table.row_group_count() {
            let cols = table.read_row_group(g).map_err(|e| e.to_string())?;
            let frame =
                Frame::new(names.iter().cloned().zip(cols).collect()).map_err(|e| e.to_string())?;
            check.part(&frame)?;
        }
    }
    check.finish(watermark)
}

pub fn gold_schema(gap_marked: bool) -> TableSchema {
    let mut cols = vec![
        ("window", ColumnType::I64),
        ("node", ColumnType::I64),
        ("sensor", ColumnType::Dict),
        ("mean", ColumnType::F64),
        ("min", ColumnType::F64),
        ("max", ColumnType::F64),
        ("count", ColumnType::I64),
    ];
    if gap_marked {
        cols.push(("gap", ColumnType::I64));
    }
    TableSchema::new(&cols)
}

/// A fresh OCEAN with an empty Gold dataset.
pub fn gold_dataset(
    registry: &Registry,
    gap_marked: bool,
) -> Result<(Arc<Ocean>, OceanDataset), String> {
    let ocean = Ocean::new();
    ocean.attach_metrics(registry);
    let ds = OceanDataset::create(
        ocean.clone(),
        "gold",
        "silver_windows",
        gold_schema(gap_marked),
    )
    .map_err(|e| e.to_string())?;
    Ok((ocean, ds))
}

/// What the Gold sink has made visible to readers: every window below
/// `closed_ms` is in the first `parts` parts (and in the LAKE).
#[derive(Debug, Default, Clone, Copy)]
pub struct Visible {
    pub closed_ms: i64,
    pub parts: usize,
}

/// Appends each epoch's Gold frame to OCEAN and, optionally, loads the
/// node-power means into the LAKE.
pub struct GoldSink {
    pub dataset: OceanDataset,
    pub lake: Option<Arc<Lake>>,
    pub trace: Option<Arc<Trace>>,
    pub visible: Arc<Mutex<Visible>>,
    pub rows: usize,
}

impl GoldSink {
    pub fn new(
        dataset: OceanDataset,
        lake: Option<Arc<Lake>>,
        trace: Option<Arc<Trace>>,
    ) -> GoldSink {
        GoldSink {
            dataset,
            lake,
            trace,
            visible: Arc::new(Mutex::new(Visible::default())),
            rows: 0,
        }
    }

    fn load_lake(lake: &Lake, frame: &Frame) -> Result<(), PipelineError> {
        let window = frame.i64s("window")?;
        let node = frame.i64s("node")?;
        let (dict, codes) = frame.cat("sensor")?.to_dict();
        let mean = frame.f64s("mean")?;
        let gap = frame.i64s("gap").ok();
        let Some(power) = dict.iter().position(|s| s == POWER) else {
            return Ok(());
        };
        let mut per_node: BTreeMap<i64, Vec<Point>> = BTreeMap::new();
        for i in 0..frame.rows() {
            if codes[i] as usize == power && gap.is_none_or(|g| g[i] != 1) {
                per_node.entry(node[i]).or_default().push(Point {
                    ts_ms: window[i],
                    value: mean[i],
                });
            }
        }
        for (n, points) in per_node {
            lake.insert_batch(&lake_series(n), &points);
        }
        Ok(())
    }
}

pub fn lake_series(node: i64) -> String {
    format!("node{node}.{POWER}")
}

impl Sink for GoldSink {
    fn write(&mut self, _meta: &EpochMeta, frame: &Frame) -> Result<(), PipelineError> {
        if frame.rows() == 0 {
            return Ok(());
        }
        let span = self.trace.as_ref().map(|tr| (tr.id(), tr.now_ns()));
        let t0 = Instant::now();
        self.dataset.append(frame.columns())?;
        let t1 = Instant::now();
        if let Some(lake) = &self.lake {
            GoldSink::load_lake(lake, frame)?;
        }
        let t2 = Instant::now();
        self.rows += frame.rows();
        let last_window = *frame.i64s("window")?.iter().max().expect("non-empty frame");
        {
            let mut v = self.visible.lock().expect("visibility poisoned");
            v.closed_ms = v.closed_ms.max(last_window + WINDOW_MS);
            v.parts += 1;
        }
        if let (Some(tr), Some((id, start))) = (&self.trace, span) {
            let (sink, trace_id) = sink_ctx(tr);
            tr.span(
                tr.id(),
                id,
                trace_id,
                "ocean_append",
                tr.ns_of(t0),
                tr.ns_of(t1),
            );
            tr.add("storage.ocean_append_ns", (t1 - t0).as_nanos() as f64);
            if self.lake.is_some() {
                tr.span(
                    tr.id(),
                    id,
                    trace_id,
                    "lake_insert",
                    tr.ns_of(t1),
                    tr.ns_of(t2),
                );
                tr.add("storage.lake_insert_ns", (t2 - t1).as_nanos() as f64);
            }
            let end = tr.now_ns();
            tr.span(id, sink, trace_id, "gold_write", start, end);
            tr.add("storage.gold_write_ns", (end - start) as f64);
        }
        Ok(())
    }
}

/// Build the medallion query over `bus`: Bronze decode + quality map in
/// the partition stage, then the 60 s window transform. With a trace,
/// every extension point is wrapped in a timer.
#[allow(clippy::too_many_arguments)]
pub fn build_query<B: MessageBus + 'static>(
    bus: Arc<B>,
    group: &str,
    catalog: &SensorCatalog,
    workers: usize,
    max_records: usize,
    gap_marked: bool,
    registry: &Registry,
    trace: Option<&Arc<Trace>>,
) -> Result<StreamingQuery, String> {
    let transform = if gap_marked {
        streaming_silver_transform_gap_marked(WINDOW_MS, 0)
    } else {
        streaming_silver_transform(WINDOW_MS, 0)
    };
    let (consumer, decoder, map, transform) = match trace {
        Some(tr) => (
            Consumer::subscribe(TimedBus::new(bus, tr.clone()), group, BRONZE),
            timed_decoder(observation_decoder(catalog.clone()), tr.clone()),
            timed_map(quality_filter_map(), tr.clone()),
            timed_transform(transform, tr.clone()),
        ),
        None => (
            Consumer::subscribe(bus, group, BRONZE),
            observation_decoder(catalog.clone()),
            quality_filter_map(),
            transform,
        ),
    };
    StreamingQuery::builder()
        .source(consumer.map_err(|e| e.to_string())?)
        .decoder(decoder)
        .map_partitions(map)
        .transform(transform)
        .checkpoints(CheckpointStore::new())
        .max_records(max_records)
        .workers(workers)
        .metrics(registry)
        .build()
        .map_err(|e| e.to_string())
}

/// Records between the log end and the group's committed offsets.
pub fn backlog(bus: &dyn MessageBus, group: &str) -> u64 {
    let parts = bus.partition_count(BRONZE).unwrap_or(0);
    (0..parts)
        .map(|p| {
            let end = bus.latest_offset(BRONZE, p).unwrap_or(0);
            end.saturating_sub(bus.committed(group, BRONZE, p))
        })
        .sum()
}

/// The operator plane: registry, health engine and an `oda-serve`
/// server exposing `/metrics` and `/healthz`.
pub fn health_engine() -> Arc<Mutex<HealthEngine>> {
    Arc::new(Mutex::new(HealthEngine::with_defaults()))
}

pub struct OpsPlane {
    pub registry: Registry,
    pub health: Arc<Mutex<HealthEngine>>,
    server: ServerHandle,
}

impl OpsPlane {
    /// Serve `registry` and `health`. The pipeline families are
    /// registered up front so `/metrics` carries them from the first
    /// scrape.
    pub fn start(registry: Registry, health: Arc<Mutex<HealthEngine>>) -> Result<OpsPlane, String> {
        oda::pipeline::PipelineMetrics::new(&registry);
        let endpoints = Endpoints::new()
            .with_registry(&registry)
            .with_health(health.clone());
        let server = serve(endpoints, "127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind operator plane: {e}"))?;
        Ok(OpsPlane {
            registry,
            health,
            server,
        })
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.addr()
    }

    /// One health tick (the data plane calls this once per committed
    /// epoch).
    pub fn observe(&self, trace: Option<&Arc<Trace>>, parent: u64, trace_id: u64) {
        let t0 = Instant::now();
        self.health
            .lock()
            .expect("health engine poisoned")
            .observe(&self.registry);
        if let Some(tr) = trace {
            let t1 = Instant::now();
            tr.span(
                tr.id(),
                parent,
                trace_id,
                "health_observe",
                tr.ns_of(t0),
                tr.ns_of(t1),
            );
            tr.add("obs.health_observe_ns", (t1 - t0).as_nanos() as f64);
        }
    }

    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
