//! End-to-end benchmark of the ODA stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path odabench/Cargo.toml -- \
//!     --workload backfill|live_ops|query_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload generates its inputs from `--seed` during set-up,
//! drives the stack through its public API for `--seconds`, checks every
//! output against a reference, and prints one JSON object as the last
//! line of stdout. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` splits the time between an untraced and a traced run of
//! the same workload and reports the per-layer metrics, the tracing
//! overhead, and a per-layer self-time table. See `README.md` here.

mod backfill;
mod live_ops;
mod operator;
mod query_mix;
mod reads;
mod stack;
mod stats;
mod trace;

use operator::OpReport;
use stats::{median, Samples};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Trace;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Per-layer values by name, with units.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, (f64, &'static str)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }
}

/// What one timed run of a workload measured.
#[derive(Debug, Default)]
pub struct Segment {
    /// Primary operations per second (observations into Gold, or
    /// queries).
    pub throughput: f64,
    /// Primary operation latency.
    pub latency: Samples,
    pub ops: OpReport,
    pub gen_lateness: Samples,
    pub bytes_per_obs: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed ops: they count in `failed` but not against correctness.
    pub errors: Vec<String>,
    /// Wrong answers and broken runs: any of these fails the run.
    pub wrong: Vec<String>,
    pub layers: Layers,
}

impl Segment {
    /// Take over the operator's counts and messages.
    pub fn absorb_ops(&mut self, ops: OpReport) {
        self.attempted += ops.attempted;
        self.failed += ops.failed;
        self.errors.extend(ops.errors.iter().cloned());
        self.wrong.extend(ops.wrong.iter().cloned());
        self.ops = ops;
    }
}

enum Workload {
    Backfill(backfill::Setup),
    LiveOps(live_ops::Setup),
    QueryMix(query_mix::Setup),
}

impl Workload {
    fn setup(name: &str, seed: u64, seconds: f64) -> Result<Workload, String> {
        Ok(match name {
            "backfill" => Workload::Backfill(backfill::setup(seed)),
            "live_ops" => Workload::LiveOps(live_ops::setup(seed, seconds)),
            "query_mix" => Workload::QueryMix(query_mix::setup(seed)?),
            other => return Err(format!("unknown workload {other:?}")),
        })
    }

    fn segment(&self, seconds: f64, trace: Option<&Arc<Trace>>) -> Result<Segment, String> {
        match self {
            Workload::Backfill(s) => backfill::segment(s, seconds, 2, trace),
            Workload::LiveOps(s) => live_ops::segment(s, seconds, trace),
            Workload::QueryMix(s) => query_mix::segment(s, seconds, trace),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("{k} is required"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed takes an unsigned integer")?,
        seconds,
        trace,
    })
}

/// The result: printed as the last line of stdout.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            eprintln!("metric {name} is not finite");
            self.correct = false;
        }
        self.metrics.push((
            name.to_string(),
            if value.is_finite() { value } else { 0.0 },
            unit,
        ));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn pct(s: &Samples, p: f64) -> f64 {
    s.percentile_ms(p).unwrap_or(f64::NAN)
}

fn windowed(s: &Samples, p: f64) -> f64 {
    s.windowed_ms(p).unwrap_or(f64::NAN)
}

/// The end-to-end metrics of one untraced segment.
fn end_to_end(seg: &Segment) -> Vec<(&'static str, f64, &'static str, usize)> {
    vec![
        ("throughput_per_s", seg.throughput, "1/s", 1),
        (
            "latency_p50_ms",
            windowed(&seg.latency, 50.0),
            "ms",
            seg.latency.len(),
        ),
        (
            "latency_p95_ms",
            windowed(&seg.latency, 95.0),
            "ms",
            seg.latency.len(),
        ),
        (
            "scrape_p50_ms",
            windowed(&seg.ops.scrape, 50.0),
            "ms",
            seg.ops.scrape.len(),
        ),
        (
            "scrape_p95_ms",
            windowed(&seg.ops.scrape, 95.0),
            "ms",
            seg.ops.scrape.len(),
        ),
        ("ocean_bytes_per_obs", seg.bytes_per_obs, "B/obs", 1),
    ]
}

fn run(args: &Args) -> Result<Report, String> {
    // Set up several times and keep the last: the median is `setup_s`.
    let mut times = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(Workload::setup(&args.workload, args.seed, args.seconds)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let workload = workload.expect("at least one set-up");
    let setup_s = median(&times);
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let absorb = |report: &mut Report, seg: &Segment| {
        report.attempted += seg.attempted;
        report.failed += seg.failed;
        for e in &seg.errors {
            eprintln!("failed: {e}");
        }
        for e in &seg.wrong {
            eprintln!("wrong: {e}");
        }
        if !seg.wrong.is_empty() {
            report.correct = false;
        }
    };
    if !args.trace {
        let seg = workload.segment(args.seconds, None)?;
        absorb(&mut report, &seg);
        println!(
            "{} (seed {}, {} s, setup {:?} s)",
            args.workload, args.seed, args.seconds, times
        );
        report.metric("setup_s", setup_s, "s");
        for (name, v, unit, n) in end_to_end(&seg) {
            println!("  {name:<22} {v:>14.4} {unit:<6} n={n}");
            report.metric(name, v, unit);
        }
        let rss = stack::peak_rss_mib();
        println!("  {:<22} {rss:>14.4} MiB", "peak_rss_mib");
        report.metric("peak_rss_mib", rss, "MiB");
        return Ok(report);
    }
    // Traced run: an untraced segment, then the same workload traced.
    let backfill = matches!(workload, Workload::Backfill(_));
    let share = if backfill {
        args.seconds / 3.0
    } else {
        args.seconds / 2.0
    };
    let base = workload.segment(share, None)?;
    absorb(&mut report, &base);
    let tr = Trace::new();
    let mut traced = workload.segment(share, Some(&tr))?;
    absorb(&mut report, &traced);
    let mut layers = derive_layers(&tr, &traced);
    if let Workload::Backfill(s) = &workload {
        let (one, speedup) = backfill::single_worker_speedup(s, share, &layers)?;
        absorb(&mut report, &one);
        layers.set("pipeline.partition_stage_speedup", speedup, "ratio");
    } else {
        layers.set("pipeline.partition_stage_speedup", 0.0, "ratio");
    }
    for (name, b, unit, _) in end_to_end(&base) {
        let t = end_to_end(&traced)
            .into_iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1);
        if name != "ocean_bytes_per_obs" {
            layers.set(overhead_name(name), t - b, unit);
        }
    }
    // The p99 tails, from the untraced run: too noisy run to run on a
    // shared 2-core host to bound, so reported here rather than end to end.
    layers.set("tail.latency_p99_ms", pct(&base.latency, 99.0), "ms");
    layers.set("tail.scrape_p99_ms", pct(&base.ops.scrape, 99.0), "ms");
    std::mem::take(&mut traced.layers.0)
        .into_iter()
        .for_each(|(k, (v, u))| layers.set(k, v, u));
    print_self_times(&args.workload, &tr);
    println!(
        "{} per-layer metrics (traced, {share:.1} s):",
        args.workload
    );
    for (name, (v, unit)) in &layers.0 {
        println!("  {name:<36} {v:>16.4} {unit}");
        report.metric(name, *v, unit);
    }
    let path = std::path::Path::new("odabench/spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = tr.write_jsonl(&path) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
    Ok(report)
}

fn overhead_name(metric: &str) -> &'static str {
    match metric {
        "throughput_per_s" => "overhead.throughput_per_s",
        "latency_p50_ms" => "overhead.latency_p50_ms",
        "latency_p95_ms" => "overhead.latency_p95_ms",
        "scrape_p50_ms" => "overhead.scrape_p50_ms",
        _ => "overhead.scrape_p95_ms",
    }
}

/// The layer a span's self time belongs to.
fn layer_of(span: &str) -> &'static str {
    match span {
        "produce" | "fetch" => "stream",
        "epoch" | "partition_stage" | "decode" | "quality_map" | "transform" | "checkpoint"
        | "empty_poll" => "pipeline",
        // The outer sink's own time is the `AlertingSink` work around
        // the Gold writer (wrapper overhead where there is none).
        "sink" => "analytics",
        "gold_write" | "ocean_append" | "lake_insert" | "part_open" | "lake_query" => "storage",
        "query_exec" => "planner",
        "health_observe" => "obs",
        "connect" | "ttfb" | "body" => "serve",
        _ => "load generator",
    }
}

fn print_self_times(workload: &str, tr: &Trace) {
    let table = tr.self_times();
    let total: u64 = table.values().map(|v| v.2).sum::<u64>().max(1);
    let share = |ns: u64| 100.0 * ns as f64 / total as f64;
    println!("{workload} self time by span (traced run):");
    println!(
        "  {:<16} {:<15} {:>8} {:>12} {:>12} {:>7}",
        "span", "layer", "count", "wall ms", "self ms", "self %"
    );
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, (n, wall, own)) in &table {
        let layer = layer_of(name);
        *layers.entry(layer).or_default() += own;
        println!(
            "  {name:<16} {layer:<15} {n:>8} {:>12.2} {:>12.2} {:>6.1}%",
            *wall as f64 / 1e6,
            *own as f64 / 1e6,
            share(*own)
        );
    }
    println!("{workload} self time by layer:");
    for (layer, own) in layers {
        println!(
            "  {layer:<15} {:>12.2} ms {:>6.1}%",
            own as f64 / 1e6,
            share(own)
        );
    }
}

/// Per-layer metrics from the traced segment's counters.
fn derive_layers(tr: &Trace, seg: &Segment) -> Layers {
    let mut l = Layers::default();
    let a = |k: &str| tr.acc(k);
    let mean = |k: &str| {
        let x = tr.acc(k);
        if x.n == 0 {
            0.0
        } else {
            x.sum / x.n as f64
        }
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let epochs = a("pipeline.run_once_ns").n as f64;
    let per_epoch = |k: &str| ratio(tr.acc(k).sum, epochs);

    l.set(
        "stream.produce_ns_per_record",
        ratio(a("stream.produce_ns").sum, a("stream.produce_records").sum),
        "ns",
    );
    l.set(
        "stream.produce_bytes",
        a("stream.produce_bytes").sum,
        "bytes",
    );
    l.set("stream.fetch_ns", mean("stream.fetch_ns"), "ns");
    l.set("stream.fetch_calls", a("stream.fetch_ns").n as f64, "count");
    l.set(
        "stream.fetch_useful_ratio",
        ratio(
            a("stream.fetch_useful").sum,
            a("stream.fetch_useful").n as f64,
        ),
        "ratio",
    );
    l.set(
        "stream.max_backlog_records",
        a("stream.backlog_records").max,
        "records",
    );

    l.set("pipeline.epochs", epochs, "count");
    l.set(
        "pipeline.records_per_epoch",
        per_epoch("pipeline.records"),
        "records",
    );
    l.set("pipeline.run_once_ns", mean("pipeline.run_once_ns"), "ns");
    l.set(
        "pipeline.partition_stage_ns",
        mean("pipeline.partition_stage_ns"),
        "ns",
    );
    l.set("pipeline.decode_ns", per_epoch("pipeline.decode_ns"), "ns");
    l.set(
        "pipeline.quality_map_ns",
        per_epoch("pipeline.quality_map_ns"),
        "ns",
    );
    l.set(
        "pipeline.quality_map_keep_ratio",
        ratio(
            a("pipeline.quality_map_rows_out").sum,
            a("pipeline.quality_map_rows_in").sum,
        ),
        "ratio",
    );
    l.set(
        "pipeline.transform_ns",
        per_epoch("pipeline.transform_ns"),
        "ns",
    );
    l.set(
        "pipeline.transform_rows_in",
        per_epoch("pipeline.transform_rows_in"),
        "rows",
    );
    l.set(
        "pipeline.transform_rows_out",
        per_epoch("pipeline.transform_rows_out"),
        "rows",
    );
    l.set("pipeline.sink_ns", per_epoch("pipeline.sink_ns"), "ns");
    l.set(
        "pipeline.checkpoint_ns",
        mean("pipeline.checkpoint_ns"),
        "ns",
    );
    l.set(
        "pipeline.state_bytes",
        a("pipeline.state_bytes").max,
        "bytes",
    );
    let parts = a("pipeline.partition_stage_ns").sum
        + a("pipeline.transform_ns").sum
        + a("pipeline.sink_ns").sum
        + a("pipeline.checkpoint_ns").sum;
    l.set(
        "pipeline.stage_accounting_ratio",
        ratio(parts, a("pipeline.run_once_ns").sum),
        "ratio",
    );

    l.set(
        "storage.ocean_append_ns",
        mean("storage.ocean_append_ns"),
        "ns",
    );
    l.set("storage.ocean_parts", 0.0, "count");
    l.set("storage.gold_bytes_per_row", 0.0, "B/row");
    l.set("storage.part_open_ns", mean("storage.part_open_ns"), "ns");
    l.set(
        "storage.lake_insert_ns",
        mean("storage.lake_insert_ns"),
        "ns",
    );
    l.set("storage.lake_query_ns", mean("storage.lake_query_ns"), "ns");

    l.set("query.exec_ns.point", mean("query.exec_ns.point"), "ns");
    l.set("query.exec_ns.rollup", mean("query.exec_ns.rollup"), "ns");
    l.set("query.exec_ns.scan", mean("query.exec_ns.scan"), "ns");
    l.set("query.exec_ns.recent", mean("query.exec_ns.recent"), "ns");
    let (read, pruned) = (a("query.chunks_read").sum, a("query.chunks_pruned").sum);
    let queries = a("query.chunks_read").n as f64;
    l.set("query.chunks_read", ratio(read, queries), "chunks");
    l.set("query.chunks_pruned", ratio(pruned, queries), "chunks");
    l.set("query.prune_ratio", ratio(pruned, read + pruned), "ratio");
    l.set(
        "query.rows_scanned",
        ratio(a("query.rows_scanned").sum, queries),
        "rows",
    );
    l.set(
        "query.selectivity",
        ratio(a("query.rows_out").sum, a("query.rows_scanned").sum),
        "ratio",
    );

    // The sink's own time around the Gold writer: the online analytics
    // where an `AlertingSink` wraps it, wrapper overhead elsewhere.
    let analytics = (a("pipeline.sink_ns").sum - a("storage.gold_write_ns").sum).max(0.0);
    l.set("analytics.process_ns", ratio(analytics, epochs), "ns");
    l.set("analytics.alerts", 0.0, "count");
    l.set("obs.health_observe_ns", mean("obs.health_observe_ns"), "ns");

    l.set("serve.connect_ns", mean("serve.connect_ns"), "ns");
    l.set("serve.ttfb_ns.metrics", mean("serve.ttfb_ns.metrics"), "ns");
    l.set("serve.ttfb_ns.healthz", mean("serve.ttfb_ns.healthz"), "ns");
    l.set("serve.body_ns.metrics", mean("serve.body_ns.metrics"), "ns");
    l.set("serve.body_ns.healthz", mean("serve.body_ns.healthz"), "ns");
    let scrapes = a("serve.connect_ns").n as f64;
    l.set(
        "serve.response_bytes",
        ratio(seg.ops.response_bytes as f64, scrapes),
        "bytes",
    );
    l.set("serve.shed", seg.ops.shed as f64, "count");

    l.set(
        "ops.lateness_p99_ms",
        seg.ops.lateness.percentile_ms(99.0).unwrap_or(0.0),
        "ms",
    );
    l.set(
        "gen.lateness_p99_ms",
        seg.gen_lateness.percentile_ms(99.0).unwrap_or(0.0),
        "ms",
    );
    l.set("gen.backlog_start_ticks", 0.0, "ticks");
    l.set("gen.backlog_end_ticks", 0.0, "ticks");
    l.set(
        "live.dashboard_p50_ms",
        seg.ops.dashboard.percentile_ms(50.0).unwrap_or(0.0),
        "ms",
    );
    l.set(
        "live.dashboard_p99_ms",
        seg.ops.dashboard.percentile_ms(99.0).unwrap_or(0.0),
        "ms",
    );
    l
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("odabench: {e}");
            eprintln!("usage: odabench --workload backfill|live_ops|query_mix --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("odabench: {e}");
            ExitCode::FAILURE
        }
    }
}
