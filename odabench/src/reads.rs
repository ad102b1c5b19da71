//! Planned reads over Gold parts and the LAKE, and the in-memory
//! reference each answer is checked against.

use crate::stack::{lake_series, POWER, WINDOW_MS};
use crate::stats::close;
use crate::trace::Trace;
use oda::pipeline::ops::{Agg, AggSpec};
use oda::pipeline::{ExecContext, Expr, Frame, PipelineError, Query};
use oda::storage::lake::Lake;
use oda::storage::ocean::OceanDataset;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One read. Gold kinds run as a planned `Query` per part; `Lake` is a
/// `Lake::plan` downsample.
#[derive(Debug, Clone, PartialEq)]
pub enum Read {
    /// One node, three columns, every window.
    Point { node: i64 },
    /// One sensor across the fleet, grouped by window.
    Rollup { sensor: String },
    /// Every row, grouped by node, max of `max`.
    Scan,
    /// Fleet node power over `[t0, t1)`, from the last `parts` parts.
    Recent { t0: i64, t1: i64, parts: usize },
    /// One node's power over `[t0, t1)`, downsampled to `bucket_ms`.
    Lake {
        node: i64,
        t0: i64,
        t1: i64,
        bucket_ms: i64,
    },
}

impl Read {
    pub fn kind(&self) -> &'static str {
        match self {
            Read::Point { .. } => "point",
            Read::Rollup { .. } => "rollup",
            Read::Scan => "scan",
            Read::Recent { .. } => "recent",
            Read::Lake { .. } => "lake",
        }
    }

    fn plan(&self, part: Query) -> Query {
        match self {
            Read::Point { node } => part
                .filter(Expr::col("node").eq_(Expr::LitI(*node)))
                .select(&["window", "sensor", "mean"]),
            Read::Rollup { sensor } => part
                .filter(Expr::col("sensor").eq_(Expr::LitS(sensor.clone())))
                .group_by(
                    &["window"],
                    &[
                        AggSpec::new("mean", Agg::Mean, "avg"),
                        AggSpec::new("max", Agg::Max, "peak"),
                    ],
                ),
            Read::Scan => part.group_by(&["node"], &[AggSpec::new("max", Agg::Max, "peak")]),
            Read::Recent { t0, t1, .. } => part
                .filter(
                    Expr::col("sensor")
                        .eq_(Expr::LitS(POWER.into()))
                        .and(Expr::col("gap").eq_(Expr::LitI(0)))
                        .and(Expr::col("window").ge(Expr::LitI(*t0)))
                        .and(Expr::col("window").lt(Expr::LitI(*t1))),
                )
                .group_by(&["window"], &[AggSpec::new("mean", Agg::Mean, "avg")]),
            Read::Lake { .. } => unreachable!("LAKE reads are not planned over parts"),
        }
    }
}

/// A canonical answer: rows keyed and sorted, values compared to 1e-9.
pub type Answer = BTreeMap<(i64, String), Vec<f64>>;

pub fn same(a: &Answer, b: &Answer) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ka, va), (kb, vb))| {
            ka == kb && va.len() == vb.len() && va.iter().zip(vb).all(|(x, y)| close(*x, *y, 1e-9))
        })
}

/// Planner evidence summed over a read's parts.
#[derive(Debug, Default)]
struct ReadStats {
    exec_ns: u64,
    chunks_read: u64,
    chunks_pruned: u64,
    rows_scanned: u64,
    rows_out: u64,
}

fn answer_of(read: &Read, frames: &[Frame]) -> Result<Answer, PipelineError> {
    let mut out = Answer::new();
    for f in frames {
        match read {
            Read::Point { .. } => {
                let w = f.i64s("window")?;
                let s = f.cat("sensor")?;
                let m = f.f64s("mean")?;
                for i in 0..f.rows() {
                    out.insert((w[i], s.get(i).to_string()), vec![m[i]]);
                }
            }
            Read::Rollup { .. } => {
                let w = f.i64s("window")?;
                let (a, p) = (f.f64s("avg")?, f.f64s("peak")?);
                for i in 0..f.rows() {
                    out.insert((w[i], String::new()), vec![a[i], p[i]]);
                }
            }
            Read::Scan => {
                let n = f.i64s("node")?;
                let p = f.f64s("peak")?;
                for i in 0..f.rows() {
                    let e = out
                        .entry((n[i], String::new()))
                        .or_insert_with(|| vec![f64::NEG_INFINITY]);
                    e[0] = e[0].max(p[i]);
                }
            }
            Read::Recent { .. } => {
                let w = f.i64s("window")?;
                let a = f.f64s("avg")?;
                for i in 0..f.rows() {
                    out.insert((w[i], String::new()), vec![a[i]]);
                }
            }
            Read::Lake { .. } => unreachable!("LAKE answers come from points"),
        }
    }
    Ok(out)
}

/// Execute `read` against the stack, timing part opens, plan execution
/// and LAKE scans. Only the first `visible_parts` parts are read.
pub fn execute(
    read: &Read,
    dataset: &OceanDataset,
    lake: &Lake,
    visible_parts: usize,
    trace: Option<(&Arc<Trace>, u64)>,
) -> Result<Answer, String> {
    let mut st = ReadStats::default();
    if let Read::Lake {
        node,
        t0,
        t1,
        bucket_ms,
    } = read
    {
        let t = Instant::now();
        let points = lake
            .plan(*t0, *t1)
            .series(&lake_series(*node))
            .downsample(*bucket_ms)
            .points();
        let d = t.elapsed();
        st.exec_ns = d.as_nanos() as u64;
        if let Some((tr, parent)) = trace {
            tr.span(
                tr.id(),
                parent,
                parent,
                "lake_query",
                tr.ns_of(t),
                tr.ns_of(t + d),
            );
            tr.add("storage.lake_query_ns", st.exec_ns as f64);
        }
        let answer = points
            .into_iter()
            .map(|p| ((p.ts_ms, String::new()), vec![p.value]))
            .collect();
        return Ok(answer);
    }
    let mut keys = dataset.parts();
    keys.truncate(visible_parts);
    let skip = match read {
        Read::Recent { parts, .. } => keys.len().saturating_sub(*parts),
        _ => 0,
    };
    let ctx = ExecContext::named("bench");
    let mut frames = Vec::with_capacity(keys.len() - skip);
    for key in &keys[skip..] {
        let t0 = Instant::now();
        let table = dataset.open_part(key).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let (frame, stats) = read
            .plan(Query::scan_table(Arc::new(table)))
            .execute_with(&ctx)
            .map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        st.exec_ns += (t2 - t1).as_nanos() as u64;
        st.chunks_read += stats.chunks_read;
        st.chunks_pruned += stats.chunks_pruned;
        st.rows_scanned += stats.rows_scanned;
        st.rows_out += stats.rows_out;
        if let Some((tr, parent)) = trace {
            tr.span(
                tr.id(),
                parent,
                parent,
                "part_open",
                tr.ns_of(t0),
                tr.ns_of(t1),
            );
            tr.span(
                tr.id(),
                parent,
                parent,
                "query_exec",
                tr.ns_of(t1),
                tr.ns_of(t2),
            );
            tr.add("storage.part_open_ns", (t1 - t0).as_nanos() as f64);
        }
        frames.push(frame);
    }
    if let Some((tr, _)) = trace {
        let key = match read.kind() {
            "point" => "query.exec_ns.point",
            "rollup" => "query.exec_ns.rollup",
            "scan" => "query.exec_ns.scan",
            _ => "query.exec_ns.recent",
        };
        tr.add(key, st.exec_ns as f64);
        tr.add("query.chunks_read", st.chunks_read as f64);
        tr.add("query.chunks_pruned", st.chunks_pruned as f64);
        tr.add("query.rows_scanned", st.rows_scanned as f64);
        tr.add("query.rows_out", st.rows_out as f64);
    }
    answer_of(read, &frames).map_err(|e| e.to_string())
}

/// The same read answered from a full Gold frame (a `read_dataset`
/// scan) with plain loops: filter, then fold.
pub fn reference(read: &Read, gold: &Frame) -> Result<Answer, PipelineError> {
    let w = gold.i64s("window")?;
    let n = gold.i64s("node")?;
    let s = gold.cat("sensor")?;
    let mean = gold.f64s("mean")?;
    let max = gold.f64s("max")?;
    let gap = gold.i64s("gap").ok();
    let real = |i: usize| gap.is_none_or(|g| g[i] != 1);
    let mut out = Answer::new();
    match read {
        Read::Point { node } => {
            for i in (0..gold.rows()).filter(|&i| n[i] == *node) {
                out.insert((w[i], s.get(i).to_string()), vec![mean[i]]);
            }
        }
        Read::Rollup { sensor } => {
            let mut acc: BTreeMap<i64, (f64, u64, f64)> = BTreeMap::new();
            for i in (0..gold.rows()).filter(|&i| s.get(i) == sensor) {
                let e = acc.entry(w[i]).or_insert((0.0, 0, f64::NEG_INFINITY));
                if !mean[i].is_nan() {
                    e.0 += mean[i];
                    e.1 += 1;
                }
                if !max[i].is_nan() {
                    e.2 = e.2.max(max[i]);
                }
            }
            for (win, (sum, k, peak)) in acc {
                let avg = if k == 0 { f64::NAN } else { sum / k as f64 };
                out.insert((win, String::new()), vec![avg, peak]);
            }
        }
        Read::Scan => {
            for i in 0..gold.rows() {
                let e = out
                    .entry((n[i], String::new()))
                    .or_insert_with(|| vec![f64::NEG_INFINITY]);
                if !max[i].is_nan() {
                    e[0] = e[0].max(max[i]);
                }
            }
        }
        Read::Recent { t0, t1, .. } | Read::Lake { t0, t1, .. } => {
            let (node, bucket) = match read {
                Read::Lake {
                    node, bucket_ms, ..
                } => (Some(*node), *bucket_ms),
                _ => (None, WINDOW_MS),
            };
            let mut acc: BTreeMap<i64, (f64, u64)> = BTreeMap::new();
            for i in 0..gold.rows() {
                if s.get(i) == POWER
                    && real(i)
                    && w[i] >= *t0
                    && w[i] < *t1
                    && node.is_none_or(|x| x == n[i])
                {
                    let e = acc
                        .entry(w[i].div_euclid(bucket) * bucket)
                        .or_insert((0.0, 0));
                    e.0 += mean[i];
                    e.1 += 1;
                }
            }
            for (b, (sum, k)) in acc {
                out.insert((b, String::new()), vec![sum / k as f64]);
            }
        }
    }
    Ok(out)
}
