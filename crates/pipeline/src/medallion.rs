//! Bronze → Silver → Gold: the ODA refinement stages (§V-A).
//!
//! * **Bronze**: raw long-format observations, one row per sensor sample.
//! * **Silver**: window-aggregated (default 15 s), pivoted wide per
//!   (window, node), joined with job-allocation context.
//! * **Gold**: analysis-specific reductions (per-job energy profiles,
//!   report tables, ML features).
//!
//! Both execution modes the paper discusses are provided: *batch*
//! (a [`PipelinePlan`] re-run over Bronze) and *streaming* (a stateful
//! transform precomputing Silver incrementally — the §VI-B design
//! decision that "amortizes the cost of refining datasets").

use crate::error::PipelineError;
use crate::expr::Expr;
use crate::frame::Frame;
use crate::ops::{Agg, AggSpec};
use crate::plan::{PipelinePlan, Stage};
use crate::state::{CellState, KeyId, SensorId, StateStore};
use crate::streaming::{Decoder, PartitionMap, Transform};
use oda_faults::{FaultPoint, FaultSite};
use oda_storage::colfile::ColumnData;
use oda_storage::intern::StringInterner;
use oda_telemetry::jobs::Job;
use oda_telemetry::record::{Device, Observation, Quality};
use oda_telemetry::sensors::SensorCatalog;
use std::collections::HashMap;
use std::sync::Arc;

/// Default Silver aggregation window (the paper's "e.g., every 15
/// seconds").
pub const SILVER_WINDOW_MS: i64 = 15_000;

/// Render a device as a short stable string ("node", "gpu3", ...).
pub fn device_label(d: Device) -> String {
    match d {
        Device::Node => "node".to_string(),
        Device::Cpu(i) => format!("cpu{i}"),
        Device::Gpu(i) => format!("gpu{i}"),
        Device::Nic(i) => format!("nic{i}"),
        Device::Psu(i) => format!("psu{i}"),
        Device::CoolingLoop(i) => format!("loop{i}"),
        Device::Facility => "facility".to_string(),
    }
}

/// Build a Bronze frame from observations: columns `ts_ms` (I64),
/// `node` (I64), `device` (Dict), `sensor` (Dict), `value` (F64),
/// `quality` (I64 code: 0 good, 1 missing, 2 suspect).
///
/// The categorical columns are dictionary-encoded at the source: sensor
/// names are interned from the catalog up front and devices are labeled
/// once per distinct device, so the per-row cost is a 4-byte code push
/// — no `String` is allocated per observation.
pub fn bronze_frame(obs: &[Observation], catalog: &SensorCatalog) -> Frame {
    let mut ts = Vec::with_capacity(obs.len());
    let mut node = Vec::with_capacity(obs.len());
    let mut device = Vec::with_capacity(obs.len());
    let mut sensor = Vec::with_capacity(obs.len());
    let mut value = Vec::with_capacity(obs.len());
    let mut quality = Vec::with_capacity(obs.len());
    // Catalog ids are dense (get(id) indexes specs by position), so the
    // pre-seeded interner makes the common case a direct table lookup.
    // Unused pre-seeded entries are dropped at colfile write time.
    let mut sensors = StringInterner::new();
    let known: Vec<u32> = catalog
        .specs()
        .iter()
        .map(|s| sensors.intern(&s.name))
        .collect();
    let mut unknown: HashMap<u16, u32> = HashMap::new();
    let mut devices = StringInterner::new();
    // A node has a handful of devices: a linear scan beats hashing.
    let mut device_code: Vec<(Device, u32)> = Vec::new();
    for o in obs {
        ts.push(o.ts_ms);
        node.push(i64::from(o.component.node));
        let d = o.component.device;
        device.push(match device_code.iter().find(|(known, _)| *known == d) {
            Some(&(_, code)) => code,
            None => {
                let code = devices.intern(&device_label(d));
                device_code.push((d, code));
                code
            }
        });
        sensor.push(match known.get(usize::from(o.sensor)) {
            Some(&code) => code,
            None => *unknown
                .entry(o.sensor)
                .or_insert_with(|| sensors.intern(&format!("s{}", o.sensor))),
        });
        value.push(o.value);
        quality.push(match o.quality {
            Quality::Good => 0i64,
            Quality::Missing => 1,
            Quality::Suspect => 2,
        });
    }
    Frame::new(vec![
        ("ts_ms".into(), ColumnData::I64(ts.into())),
        ("node".into(), ColumnData::I64(node.into())),
        (
            "device".into(),
            ColumnData::dict(devices.into_dict(), device),
        ),
        (
            "sensor".into(),
            ColumnData::dict(sensors.into_dict(), sensor),
        ),
        ("value".into(), ColumnData::F64(value.into())),
        ("quality".into(), ColumnData::I64(quality.into())),
    ])
    .expect("equal-length columns by construction")
}

/// Decoder for broker records whose payloads are
/// [`Observation::encode_batch`] frames.
pub fn observation_decoder(catalog: SensorCatalog) -> Decoder {
    Box::new(move |records| {
        let mut all = Vec::new();
        for r in records {
            let batch = Observation::decode_batch(&r.value)
                .ok_or_else(|| PipelineError::Decode("bad observation batch".into()))?;
            all.extend(batch);
        }
        Ok(bronze_frame(&all, &catalog))
    })
}

/// [`observation_decoder`] with sensor-dropout injection: each decoded
/// observation consults `faults` at the [`FaultSite::SensorRead`] site
/// (ctx = index within its batch) and is silently dropped when a
/// [`oda_faults::FaultKind::SensorDropout`] fires — modeling telemetry
/// that never arrived. Pair with
/// [`streaming_silver_transform_gap_marked`] so downstream consumers
/// see explicit gap rows instead of silently-thinner aggregates.
pub fn observation_decoder_with_faults(
    catalog: SensorCatalog,
    faults: Arc<dyn FaultPoint>,
) -> Decoder {
    Box::new(move |records| {
        let mut all = Vec::new();
        for r in records {
            let batch = Observation::decode_batch(&r.value)
                .ok_or_else(|| PipelineError::Decode("bad observation batch".into()))?;
            for (i, o) in batch.into_iter().enumerate() {
                if faults.check(FaultSite::SensorRead, i as u64).is_none() {
                    all.push(o);
                }
            }
        }
        Ok(bronze_frame(&all, &catalog))
    })
}

/// The Fig. 4-b quality filter as a stateless per-partition stage:
/// drops rows whose `quality` is not Good (0) or whose `value` is NaN.
/// Row-local, so it runs inside the parallel partition workers (via
/// `StreamingQueryBuilder::map_partitions`) with output identical to
/// filtering the merged frame.
pub fn quality_filter_map() -> PartitionMap {
    Box::new(|frame: Frame| {
        let mask = Expr::col("quality")
            .eq_(Expr::LitI(0))
            .and(Expr::col("value").is_nan().not())
            .eval_mask(&frame)?;
        Ok(frame.filter_mask(&mask))
    })
}

/// Job allocation context: one row per (job, node), with columns
/// `node` (I64), `job` (I64), `archetype` (Dict), `program` (I64),
/// `user` (I64), `project` (Dict), and the allocation bounds
/// `job_start_ms` / `job_end_ms` (I64) used for the temporal join.
pub fn job_context_frame(jobs: &[Job]) -> Frame {
    let mut node = Vec::new();
    let mut job = Vec::new();
    let mut archetype = Vec::new();
    let mut program = Vec::new();
    let mut user = Vec::new();
    let mut project = Vec::new();
    let mut start = Vec::new();
    let mut end = Vec::new();
    let mut archetypes = StringInterner::new();
    let mut projects = StringInterner::new();
    for j in jobs {
        for &n in &j.nodes {
            node.push(i64::from(n));
            job.push(j.id as i64);
            archetype.push(archetypes.intern(j.archetype.label()));
            program.push(i64::from(j.program));
            user.push(i64::from(j.user));
            project.push(projects.intern(&j.project));
            start.push(j.start_ms);
            end.push(j.end_ms);
        }
    }
    Frame::new(vec![
        ("node".into(), ColumnData::I64(node.into())),
        ("job".into(), ColumnData::I64(job.into())),
        (
            "archetype".into(),
            ColumnData::dict(archetypes.into_dict(), archetype),
        ),
        ("program".into(), ColumnData::I64(program.into())),
        ("user".into(), ColumnData::I64(user.into())),
        (
            "project".into(),
            ColumnData::dict(projects.into_dict(), project),
        ),
        ("job_start_ms".into(), ColumnData::I64(start.into())),
        ("job_end_ms".into(), ColumnData::I64(end.into())),
    ])
    .expect("equal-length columns by construction")
}

/// The batch Bronze→Silver plan of Fig. 4-b: quality filter → window →
/// group-by mean → pivot sensors wide → join job context on node, then
/// restrict to windows inside the job's allocation interval (a node is
/// reused by many jobs over time; joining on node alone would attribute
/// every window to every job that ever held the node).
pub fn bronze_to_silver_plan(window_ms: i64, job_ctx: Frame) -> PipelinePlan {
    PipelinePlan::new()
        .then(Stage::Where(
            Expr::col("quality")
                .eq_(Expr::LitI(0))
                .and(Expr::col("value").is_nan().not()),
        ))
        .then(Stage::Window {
            ts_col: "ts_ms".into(),
            width_ms: window_ms,
        })
        .then(Stage::GroupBy {
            keys: vec!["window".into(), "node".into(), "sensor".into()],
            aggs: vec![AggSpec::new("value", Agg::Mean, "value")],
        })
        .then(Stage::Pivot {
            index: vec!["window".into(), "node".into()],
            pivot_col: "sensor".into(),
            value_col: "value".into(),
            agg: Agg::Mean,
        })
        .then(Stage::Join {
            right: job_ctx,
            on: vec!["node".into()],
        })
        .then(Stage::Where(
            Expr::col("window")
                .ge(Expr::col("job_start_ms"))
                .and(Expr::col("window").lt(Expr::col("job_end_ms"))),
        ))
}

/// Streaming Bronze→Silver transform: folds observations into
/// per-(window, node, sensor) accumulators and emits rows for windows
/// the watermark has closed. Output columns: `window` (I64), `node`
/// (I64), `sensor` (Dict), `mean`/`min`/`max` (F64), `count` (I64).
///
/// The event-time watermark survives recovery because it is kept in the
/// checkpointed state (`wm_ms` counter). State keys stay in the
/// `"{node}\u{1f}{sensor}"` format for checkpoint compatibility, but
/// each row reaches its cell through the store's `(node, sensor id)`
/// index: the per-row path neither allocates nor hashes a string.
pub fn streaming_silver_transform(window_ms: i64, lateness_ms: i64) -> Transform {
    Box::new(move |frame: Frame, state: &mut StateStore| {
        let (max_ts, _) = fold_rows(&frame, state, window_ms)?;
        let horizon = advance_watermark(state, max_ts, window_ms, lateness_ms);
        let closed = state.drain_closed(horizon);
        let mut out = SilverRows::new(state, closed.len(), false);
        for (window, id, cell) in &closed {
            out.push(*window, *id, cell, false)?;
        }
        out.finish()
    })
}

/// Fold the Good, non-NaN rows of a Bronze frame into their window
/// cells, each value pushed in row order. Returns the largest event
/// time seen (starting from the stored watermark) and the earliest
/// window folded (`i64::MAX` when none).
fn fold_rows(
    frame: &Frame,
    state: &mut StateStore,
    window_ms: i64,
) -> Result<(i64, i64), PipelineError> {
    let ts = frame.i64s("ts_ms")?;
    let node = frame.i64s("node")?;
    let (dict, codes) = frame.cat("sensor")?.to_dict();
    let value = frame.f64s("value")?;
    let quality = frame.i64s("quality")?;
    let sensor_of: Vec<SensorId> = dict.iter().map(|s| state.sensor_id(s)).collect();
    let mut max_ts = state.counter("wm_ms") as i64;
    let mut first_window = i64::MAX;
    for i in 0..frame.rows() {
        max_ts = max_ts.max(ts[i]);
        if quality[i] != 0 || value[i].is_nan() {
            continue;
        }
        let window = ts[i].div_euclid(window_ms) * window_ms;
        first_window = first_window.min(window);
        let id = state.node_key(node[i], sensor_of[codes[i] as usize]);
        state.cell_at(window, id).push(value[i]);
    }
    Ok((max_ts, first_window))
}

/// Persist watermark progress (monotonic, safe as u64: sim time is
/// non-negative) and return the drain horizon: a window [w, w+width) is
/// closed when watermark >= w + width.
fn advance_watermark(state: &mut StateStore, max_ts: i64, window_ms: i64, lateness_ms: i64) -> i64 {
    if max_ts > 0 {
        state.bump(
            "wm_ms",
            (max_ts as u64).saturating_sub(state.counter("wm_ms")),
        );
    }
    max_ts - lateness_ms - window_ms + 1
}

/// Output columns of the streaming Silver transforms. Node and sensor
/// come from the state's key table once per key id; the output sensor
/// dictionary is built in first-emitted order.
struct SilverRows<'a> {
    state: &'a StateStore,
    /// Output code per state sensor id (`u32::MAX` = not emitted yet).
    sensor_code: Vec<u32>,
    sensors: Vec<String>,
    window: Vec<i64>,
    node: Vec<i64>,
    sensor: Vec<u32>,
    mean: Vec<f64>,
    min: Vec<f64>,
    max: Vec<f64>,
    count: Vec<i64>,
    /// Present for the gap-marked transform.
    gap: Option<Vec<i64>>,
}

impl<'a> SilverRows<'a> {
    fn new(state: &'a StateStore, rows: usize, with_gap: bool) -> SilverRows<'a> {
        SilverRows {
            state,
            sensor_code: vec![u32::MAX; state.sensor_count()],
            sensors: Vec::new(),
            window: Vec::with_capacity(rows),
            node: Vec::with_capacity(rows),
            sensor: Vec::with_capacity(rows),
            mean: Vec::with_capacity(rows),
            min: Vec::with_capacity(rows),
            max: Vec::with_capacity(rows),
            count: Vec::with_capacity(rows),
            gap: with_gap.then(|| Vec::with_capacity(rows)),
        }
    }

    /// Append one row; a gap marker carries NaN statistics.
    fn push(
        &mut self,
        window: i64,
        id: KeyId,
        cell: &CellState,
        gap: bool,
    ) -> Result<(), PipelineError> {
        let (node, sensor) = self
            .state
            .key_parts(id)
            .ok_or_else(|| PipelineError::Decode("bad state key".into()))?;
        let code = &mut self.sensor_code[sensor as usize];
        if *code == u32::MAX {
            *code = self.sensors.len() as u32;
            self.sensors
                .push(self.state.sensor_name(sensor).to_string());
        }
        self.window.push(window);
        self.node.push(node);
        self.sensor.push(*code);
        if gap {
            self.mean.push(f64::NAN);
            self.min.push(f64::NAN);
            self.max.push(f64::NAN);
        } else {
            self.mean.push(cell.mean());
            self.min.push(cell.min);
            self.max.push(cell.max);
        }
        self.count.push(cell.count as i64);
        if let Some(col) = &mut self.gap {
            col.push(i64::from(gap));
        }
        Ok(())
    }

    fn finish(self) -> Result<Frame, PipelineError> {
        let mut columns = vec![
            ("window".into(), ColumnData::I64(self.window.into())),
            ("node".into(), ColumnData::I64(self.node.into())),
            ("sensor".into(), ColumnData::dict(self.sensors, self.sensor)),
            ("mean".into(), ColumnData::F64(self.mean.into())),
            ("min".into(), ColumnData::F64(self.min.into())),
            ("max".into(), ColumnData::F64(self.max.into())),
            ("count".into(), ColumnData::I64(self.count.into())),
        ];
        if let Some(gap) = self.gap {
            columns.push(("gap".into(), ColumnData::I64(gap.into())));
        }
        Frame::new(columns)
    }
}

/// Gap-aware variant of [`streaming_silver_transform`]: degrades
/// gracefully under sensor dropout instead of silently thinning output.
///
/// Keeps a roster of every (node, sensor) key ever observed (in the
/// checkpointed state, so it survives recovery). When a window closes,
/// every rostered key gets exactly one row: a normal aggregate row
/// (`gap` = 0) if samples arrived, or a *gap marker* row (`gap` = 1,
/// `count` = 0, NaN statistics) if the key went dark — downstream Gold
/// jobs can then distinguish "sensor read zero" from "sensor unheard".
/// Output columns: those of [`streaming_silver_transform`] plus `gap`
/// (I64).
pub fn streaming_silver_transform_gap_marked(window_ms: i64, lateness_ms: i64) -> Transform {
    const ROSTER_PREFIX: &str = "seen\u{1f}";
    Box::new(move |frame: Frame, state: &mut StateStore| {
        let known = state.key_count();
        let (max_ts, first_window) = fold_rows(&frame, state, window_ms)?;
        // Keys first interned by this fold join the roster. Every older
        // key in the table is rostered already: it was folded by an
        // earlier batch, restored from a (rostered) cell, or interned
        // from the roster itself below.
        for id in known..state.key_count() {
            let roster_key = format!("{ROSTER_PREFIX}{}", state.key(id as KeyId));
            if state.counter(&roster_key) == 0 {
                state.bump(&roster_key, 1);
            }
        }
        let horizon = advance_watermark(state, max_ts, window_ms, lateness_ms);
        // Gap cursor: next window start owed a full roster sweep, stored
        // +1 so 0 can mean "unset" (sim time is non-negative).
        if state.counter("gap_next") == 0 && (0..i64::MAX).contains(&first_window) {
            state.bump("gap_next", first_window as u64 + 1);
        }
        let mut cells: HashMap<(i64, KeyId), CellState> = state
            .drain_closed(horizon)
            .into_iter()
            .map(|(w, id, cell)| ((w, id), cell))
            .collect();
        let last_closed = if horizon > 0 {
            (horizon - 1).div_euclid(window_ms) * window_ms
        } else {
            i64::MIN
        };
        // One row per (closed window, rostered key): real or gap marker.
        let mut rows: Vec<(i64, KeyId, CellState, bool)> = Vec::new();
        if state.counter("gap_next") > 0 && last_closed >= 0 {
            let roster: Vec<KeyId> = state
                .counters_with_prefix(ROSTER_PREFIX)
                .into_iter()
                .map(|(k, _)| state.key_id(&k[ROSTER_PREFIX.len()..]))
                .collect();
            let mut w = (state.counter("gap_next") - 1) as i64;
            while w <= last_closed {
                for &id in &roster {
                    match cells.remove(&(w, id)) {
                        Some(cell) => rows.push((w, id, cell, false)),
                        None => rows.push((w, id, CellState::new(), true)),
                    }
                }
                w += window_ms;
            }
            let next = (last_closed + window_ms) as u64 + 1;
            let bump = next.saturating_sub(state.counter("gap_next"));
            state.bump("gap_next", bump);
        }
        // Cells drained outside the sweep (windows before the cursor)
        // still emit normally.
        rows.extend(
            cells
                .into_iter()
                .map(|((w, id), cell)| (w, id, cell, false)),
        );
        rows.sort_by(|a, b| (a.0, state.key(a.1)).cmp(&(b.0, state.key(b.1))));
        let mut out = SilverRows::new(state, rows.len(), true);
        for (window, id, cell, gap) in &rows {
            out.push(*window, *id, cell, *gap)?;
        }
        out.finish()
    })
}

/// Silver→Gold: per-job power/energy summary. Input must be a Silver
/// frame containing `node_power_w` and `job` columns; output has one
/// row per job with mean/peak power, windows observed, and energy (kWh,
/// assuming one row per `window_ms` per node).
pub fn silver_to_gold_job_energy(silver: &Frame, window_ms: i64) -> Result<Frame, PipelineError> {
    let g = crate::ops::group_by(
        silver,
        &["job"],
        &[
            AggSpec::new("node_power_w", Agg::Mean, "mean_node_w"),
            AggSpec::new("node_power_w", Agg::Max, "peak_node_w"),
            AggSpec::new("node_power_w", Agg::Sum, "node_window_w"),
            AggSpec::new("node_power_w", Agg::Count, "samples"),
        ],
    )?;
    // Energy: sum over (node, window) of P * window duration.
    let sums = g.f64s("node_window_w")?;
    let kwh: Vec<f64> = sums
        .iter()
        .map(|s| s * (window_ms as f64 / 1_000.0) / 3.6e6)
        .collect();
    let mut out = g.clone();
    out.push_column("energy_kwh", ColumnData::F64(kwh.into()))?;
    out.select(&["job", "mean_node_w", "peak_node_w", "samples", "energy_kwh"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointStore;
    use crate::streaming::{MemorySink, StreamingQuery};
    use bytes::Bytes;
    use oda_stream::{Broker, Consumer, RetentionPolicy};
    use oda_telemetry::record::Component;
    use oda_telemetry::system::SystemModel;
    use oda_telemetry::TelemetryGenerator;

    fn tiny_catalog() -> SensorCatalog {
        SensorCatalog::for_system(&SystemModel::tiny())
    }

    fn obs(ts: i64, node: u32, sensor: u16, value: f64) -> Observation {
        Observation {
            ts_ms: ts,
            sensor,
            component: Component::node(node),
            value,
            quality: Quality::Good,
        }
    }

    #[test]
    fn bronze_frame_shape() {
        let cat = tiny_catalog();
        let rows = vec![obs(0, 1, 0, 500.0), obs(1_000, 2, 1, 21.0)];
        let f = bronze_frame(&rows, &cat);
        assert_eq!(f.rows(), 2);
        let sensors = f.cat("sensor").unwrap();
        assert_eq!(sensors.get(0), "node_power_w");
        assert_eq!(f.i64s("node").unwrap(), &[1, 2]);
        // Categorical columns are dictionary-encoded at the source.
        assert!(f.dict("sensor").is_ok());
        assert!(f.dict("device").is_ok());
    }

    #[test]
    fn batch_silver_pipeline_end_to_end() {
        let cat = tiny_catalog();
        // 2 nodes x 2 sensors x 30 seconds of 1 Hz data.
        let mut rows = Vec::new();
        for t in 0..30i64 {
            for n in [0u32, 1] {
                rows.push(obs(t * 1_000, n, 0, 500.0 + n as f64 * 100.0)); // node_power_w
                rows.push(obs(t * 1_000, n, 1, 21.0)); // node_inlet_temp_c
            }
        }
        let bronze = bronze_frame(&rows, &cat);
        let jobs = vec![Job {
            id: 9,
            user: 3,
            project: "PRJ001".into(),
            program: 0,
            archetype: oda_telemetry::ApplicationArchetype::Hpl,
            nodes: vec![0, 1],
            submit_ms: 0,
            start_ms: 0,
            end_ms: 60_000,
            phase: 0.0,
        }];
        let plan = bronze_to_silver_plan(SILVER_WINDOW_MS, job_context_frame(&jobs));
        let silver = plan.execute(bronze).unwrap();
        // 2 windows x 2 nodes.
        assert_eq!(silver.rows(), 4);
        assert!(silver.index_of("node_power_w").is_ok());
        assert!(silver.index_of("node_inlet_temp_c").is_ok());
        assert_eq!(silver.i64s("job").unwrap(), &[9, 9, 9, 9]);
        // Gold: one row for job 9.
        let gold = silver_to_gold_job_energy(&silver, SILVER_WINDOW_MS).unwrap();
        assert_eq!(gold.rows(), 1);
        assert_eq!(gold.i64s("job").unwrap()[0], 9);
        let mean = gold.f64s("mean_node_w").unwrap()[0];
        assert!((mean - 550.0).abs() < 1.0, "mean node power {mean}");
        assert!(gold.f64s("energy_kwh").unwrap()[0] > 0.0);
    }

    #[test]
    fn batch_silver_join_is_time_aware() {
        // Two sequential jobs on the same node: each window must be
        // attributed to exactly the job whose allocation covers it.
        let cat = tiny_catalog();
        let mut rows = Vec::new();
        for t in 0..30i64 {
            rows.push(obs(t * 1_000, 0, 0, 500.0));
        }
        let mk_job = |id: u64, start: i64, end: i64| Job {
            id,
            user: 0,
            project: "PRJ000".into(),
            program: 0,
            archetype: oda_telemetry::ApplicationArchetype::Debug,
            nodes: vec![0],
            submit_ms: start,
            start_ms: start,
            end_ms: end,
            phase: 0.0,
        };
        let jobs = vec![mk_job(1, 0, 15_000), mk_job(2, 15_000, 30_000)];
        let plan = bronze_to_silver_plan(SILVER_WINDOW_MS, job_context_frame(&jobs));
        let silver = plan.execute(bronze_frame(&rows, &cat)).unwrap();
        // 2 windows x 1 node, one job each — NOT 4 rows.
        assert_eq!(silver.rows(), 2, "node reuse must not duplicate rows");
        let windows = silver.i64s("window").unwrap();
        let job_ids = silver.i64s("job").unwrap();
        for i in 0..2 {
            let expect = if windows[i] == 0 { 1 } else { 2 };
            assert_eq!(job_ids[i], expect, "window {} misattributed", windows[i]);
        }
    }

    #[test]
    fn streaming_silver_emits_closed_windows_only() {
        let mut transform = streaming_silver_transform(15_000, 0);
        let cat = tiny_catalog();
        let mut state = StateStore::new();
        // First batch: 0..20s — window [0,15s) closes (watermark 19s >= 15s).
        let batch1: Vec<Observation> = (0..20).map(|t| obs(t * 1_000, 0, 0, 100.0)).collect();
        let out1 = transform(bronze_frame(&batch1, &cat), &mut state).unwrap();
        assert_eq!(out1.rows(), 1);
        assert_eq!(out1.i64s("window").unwrap(), &[0]);
        assert_eq!(out1.i64s("count").unwrap(), &[15]);
        // Second batch: 20..35s — window [15,30) closes.
        let batch2: Vec<Observation> = (20..35).map(|t| obs(t * 1_000, 0, 0, 200.0)).collect();
        let out2 = transform(bronze_frame(&batch2, &cat), &mut state).unwrap();
        assert_eq!(out2.i64s("window").unwrap(), &[15_000]);
        // Mean mixes the 100s (t=15..20) and 200s (t=20..30).
        let mean = out2.f64s("mean").unwrap()[0];
        assert!((mean - (5.0 * 100.0 + 10.0 * 200.0) / 15.0).abs() < 1e-9);
    }

    #[test]
    fn streaming_silver_respects_lateness() {
        let mut transform = streaming_silver_transform(15_000, 10_000);
        let cat = tiny_catalog();
        let mut state = StateStore::new();
        // Events to 24s; watermark = 14s; window 0 NOT closed.
        let batch: Vec<Observation> = (0..25).map(|t| obs(t * 1_000, 0, 0, 1.0)).collect();
        let out = transform(bronze_frame(&batch, &cat), &mut state).unwrap();
        assert_eq!(out.rows(), 0, "lateness must hold window 0 open");
        // More events to 26s; watermark 16s; window 0 closes with the
        // late event (t=14.5s equivalent none here) included.
        let batch2: Vec<Observation> = vec![obs(26_000, 0, 0, 1.0)];
        let out2 = transform(bronze_frame(&batch2, &cat), &mut state).unwrap();
        assert_eq!(out2.i64s("window").unwrap(), &[0]);
        assert_eq!(out2.i64s("count").unwrap(), &[15]);
    }

    #[test]
    fn gap_marked_silver_emits_markers_for_silent_sensors() {
        let mut transform = streaming_silver_transform_gap_marked(15_000, 0);
        let cat = tiny_catalog();
        let mut state = StateStore::new();
        // Window 0: both sensors report. Sensor 1 then goes dark.
        let mut batch1: Vec<Observation> = (0..20).map(|t| obs(t * 1_000, 0, 0, 100.0)).collect();
        batch1.extend((0..15).map(|t| obs(t * 1_000, 0, 1, 20.0)));
        let out1 = transform(bronze_frame(&batch1, &cat), &mut state).unwrap();
        assert_eq!(out1.rows(), 2, "window 0, both sensors, no gaps");
        assert!(out1.i64s("gap").unwrap().iter().all(|&g| g == 0));
        // Window [15s, 30s) closes with only sensor 0 reporting.
        let batch2: Vec<Observation> = (20..35).map(|t| obs(t * 1_000, 0, 0, 100.0)).collect();
        let out2 = transform(bronze_frame(&batch2, &cat), &mut state).unwrap();
        assert_eq!(out2.rows(), 2, "one real row + one gap marker");
        let sensors = out2.cat("sensor").unwrap();
        let gaps = out2.i64s("gap").unwrap();
        let counts = out2.i64s("count").unwrap();
        let means = out2.f64s("mean").unwrap();
        for i in 0..2 {
            if sensors.get(i) == "node_inlet_temp_c" {
                assert_eq!(gaps[i], 1, "dark sensor must be gap-marked");
                assert_eq!(counts[i], 0);
                assert!(means[i].is_nan());
            } else {
                assert_eq!(gaps[i], 0);
                assert_eq!(counts[i], 15);
                assert_eq!(means[i], 100.0);
            }
        }
    }

    #[test]
    fn gap_roster_survives_checkpoint_roundtrip() {
        let mut transform = streaming_silver_transform_gap_marked(15_000, 0);
        let cat = tiny_catalog();
        let mut state = StateStore::new();
        let mut batch1: Vec<Observation> = (0..20).map(|t| obs(t * 1_000, 0, 0, 1.0)).collect();
        batch1.extend((0..15).map(|t| obs(t * 1_000, 0, 1, 2.0)));
        transform(bronze_frame(&batch1, &cat), &mut state).unwrap();
        // Crash: restore state from its snapshot, keep going.
        let mut restored = StateStore::restore(&state.snapshot()).unwrap();
        let batch2: Vec<Observation> = (20..35).map(|t| obs(t * 1_000, 0, 0, 1.0)).collect();
        let out = transform(bronze_frame(&batch2, &cat), &mut restored).unwrap();
        let gaps = out.i64s("gap").unwrap();
        assert_eq!(
            gaps.iter().filter(|&&g| g == 1).count(),
            1,
            "roster (and thus gap detection) must survive recovery"
        );
    }

    /// Nodes 0, 9, 10, 100 (so key order puts "10" and "100" before
    /// "9"), catalog sensors 0–2 plus unknown sensor 999 on node 0, 2.5 s
    /// ticks `from..to`, with NaNs, Missing rows, and node 10's sensor 2
    /// dark from tick 6 on.
    fn pinned_batch(from: i64, to: i64) -> Vec<Observation> {
        let mut out = Vec::new();
        for t in from..to {
            for node in [0u32, 9, 10, 100] {
                for sensor in [0u16, 1, 2, 999] {
                    if (node == 10 && sensor == 2 && t >= 6) || (sensor == 999 && node != 0) {
                        continue;
                    }
                    let k = t * 31 + i64::from(node) * 7 + i64::from(sensor);
                    out.push(Observation {
                        ts_ms: t * 2_500,
                        sensor,
                        component: Component::node(node),
                        value: if k % 17 == 0 {
                            f64::NAN
                        } else {
                            (k % 101) as f64 * 0.25 - 3.0
                        },
                        quality: if k % 13 == 0 {
                            Quality::Missing
                        } else {
                            Quality::Good
                        },
                    });
                }
            }
        }
        out
    }

    /// The pinned fixtures were written by the string-keyed state store:
    /// epoch 0 is the gap-marked state after `pinned_batch(0, 16)`;
    /// epoch 1 the state and emitted rows after `pinned_batch(16, 30)`
    /// plus one late sample. Folding from the restored epoch-0 state
    /// must reproduce both byte for byte.
    #[test]
    fn pinned_state_resumes_like_the_string_keyed_store() {
        let cat = tiny_catalog();
        let epoch0 = include_bytes!("testdata/silver_state_epoch0.json");
        let epoch1 = include_bytes!("testdata/silver_state_epoch1.json");
        let rows1 = include_str!("testdata/silver_rows_epoch1.txt");
        let mut transform = streaming_silver_transform_gap_marked(15_000, 5_000);
        let mut fresh = StateStore::new();
        transform(bronze_frame(&pinned_batch(0, 16), &cat), &mut fresh).unwrap();
        assert_eq!(fresh.snapshot(), epoch0);
        let mut state = StateStore::restore(epoch0).unwrap();
        let mut batch = pinned_batch(16, 30);
        batch.push(obs(33_000, 9, 1, 1.5));
        let out = transform(bronze_frame(&batch, &cat), &mut state).unwrap();
        assert_eq!(state.snapshot(), epoch1);
        let (w, n, sensor) = (
            out.i64s("window").unwrap(),
            out.i64s("node").unwrap(),
            out.cat("sensor").unwrap(),
        );
        let (mean, min, max) = (
            out.f64s("mean").unwrap(),
            out.f64s("min").unwrap(),
            out.f64s("max").unwrap(),
        );
        let (count, gap) = (out.i64s("count").unwrap(), out.i64s("gap").unwrap());
        let rendered: String = (0..out.rows())
            .map(|i| {
                format!(
                    "{} {} {} {:016x} {:016x} {:016x} {} {}\n",
                    w[i],
                    n[i],
                    sensor.get(i),
                    mean[i].to_bits(),
                    min[i].to_bits(),
                    max[i].to_bits(),
                    count[i],
                    gap[i]
                )
            })
            .collect();
        assert_eq!(rendered, rows1);
    }

    #[test]
    fn dropout_decoder_degrades_instead_of_erroring() {
        use oda_faults::{FaultPlan, FaultSpec};
        let cat = tiny_catalog();
        let obs_batch: Vec<Observation> = (0..200).map(|t| obs(t * 1_000, 0, 0, 1.0)).collect();
        let payload = Observation::encode_batch(&obs_batch);
        let record = oda_stream::Record {
            offset: 0,
            ts_ms: 0,
            key: None,
            value: Bytes::from(payload),
        };
        let plan = Arc::new(FaultPlan::new(
            5,
            FaultSpec {
                sensor_dropout: 0.3,
                ..FaultSpec::default()
            },
        ));
        let decode = observation_decoder_with_faults(cat.clone(), plan.clone());
        let frame = decode(std::slice::from_ref(&record)).unwrap();
        assert!(frame.rows() < 200, "some observations must drop");
        assert!(frame.rows() > 100, "most observations must survive");
        let dropped = plan.injected().len();
        assert_eq!(200 - frame.rows(), dropped);
        // Zero-rate plan drops nothing.
        let silent = Arc::new(FaultPlan::new(5, FaultSpec::default()));
        let decode2 = observation_decoder_with_faults(cat, silent);
        assert_eq!(decode2(&[record]).unwrap().rows(), 200);
    }

    #[test]
    fn quality_filter_map_drops_bad_rows() {
        let cat = tiny_catalog();
        let mut rows = vec![obs(0, 1, 0, 500.0), obs(1_000, 2, 1, f64::NAN)];
        rows.push(Observation {
            quality: Quality::Suspect,
            ..obs(2_000, 3, 0, 510.0)
        });
        let frame = bronze_frame(&rows, &cat);
        let filtered = quality_filter_map()(frame).unwrap();
        assert_eq!(filtered.rows(), 1, "NaN and Suspect rows must drop");
        assert_eq!(filtered.i64s("node").unwrap(), &[1]);
    }

    #[test]
    fn full_broker_to_silver_streaming_query() {
        // Telemetry generator -> broker -> streaming silver -> sink.
        let mut generator = TelemetryGenerator::new(SystemModel::tiny(), 42);
        let broker = Broker::new();
        broker
            .create_topic("bronze", 2, RetentionPolicy::unbounded())
            .unwrap();
        for _ in 0..60 {
            let batch = generator.next_batch();
            let payload = Observation::encode_batch(&batch.observations);
            broker
                .produce(
                    "bronze",
                    batch.ts_ms,
                    Some(Bytes::from("all")),
                    Bytes::from(payload),
                )
                .unwrap();
        }
        let consumer = Consumer::subscribe(broker, "silver", "bronze").unwrap();
        let mut q = StreamingQuery::builder()
            .source(consumer)
            .decoder(observation_decoder(generator.catalog().clone()))
            .transform(streaming_silver_transform(15_000, 0))
            .checkpoints(CheckpointStore::new())
            .max_records(5)
            .workers(2)
            .build()
            .unwrap();
        let mut sink = MemorySink::new();
        q.run_to_completion(&mut sink).unwrap();
        let silver = sink.concat().unwrap();
        assert!(silver.rows() > 0, "no silver rows emitted");
        // Every emitted window start is 15s-aligned and each cell has at
        // most 15 one-second samples.
        for (&w, &c) in silver
            .i64s("window")
            .unwrap()
            .iter()
            .zip(silver.i64s("count").unwrap())
        {
            assert_eq!(w % 15_000, 0);
            assert!(c <= 15, "window cell with {c} samples");
        }
        // node_power_w means are physically plausible for the tiny system.
        let sensors = silver.cat("sensor").unwrap();
        let means = silver.f64s("mean").unwrap();
        let mut checked = 0;
        for (i, &mean) in means.iter().enumerate() {
            if sensors.get(i) == "node_power_w" {
                assert!(mean > 300.0 && mean < 2_500.0, "power {mean}");
                checked += 1;
            }
        }
        assert!(checked > 0);
    }
}
