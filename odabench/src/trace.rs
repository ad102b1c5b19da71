//! The traced run's instruments, all outside the stack.
//!
//! Spans are recorded around calls into the stack's public surface and
//! inside the extension points it accepts from callers (`MessageBus`,
//! `Decoder`, `PartitionMap`, `Transform`, `Sink`). They stay in memory
//! and are written out once, when the run ends. Per-layer counters are
//! kept beside them, at the same boundaries.

use oda::pipeline::streaming::{Decoder, EpochMeta, PartitionMap, Sink, Transform};
use oda::pipeline::{Frame, PipelineError};
use oda::stream::{MessageBus, Record, StreamError, StreamMetrics};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. `parent == 0` marks a root; spans of one epoch,
/// tick or operator op share `trace`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Sum and count of one per-layer quantity.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    pub n: u64,
    pub sum: f64,
    pub max: f64,
}

/// Where the workload loop tells the wrappers which spans are open.
/// Worker threads of the partition stage read `stage` to parent their
/// fetch/decode/map spans.
#[derive(Default)]
struct EpochCtx {
    trace: AtomicU64,
    root: AtomicU64,
    stage: AtomicU64,
    sink: AtomicU64,
    transform_enter_ns: AtomicU64,
    sink_exit_ns: AtomicU64,
}

pub struct Trace {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    accs: Mutex<BTreeMap<&'static str, Acc>>,
    ctx: EpochCtx,
}

impl Trace {
    pub fn new() -> Arc<Trace> {
        Arc::new(Trace {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            accs: Mutex::new(BTreeMap::new()),
            ctx: EpochCtx::default(),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserve a span id before the span's children run.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn span(
        &self,
        id: u64,
        parent: u64,
        trace: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans
            .lock()
            .expect("span journal poisoned")
            .push(Span {
                id,
                parent,
                trace,
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
            });
    }

    /// Record a span under the open epoch's partition stage.
    fn child_of_stage(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.ctx.stage.load(Ordering::Relaxed);
        let trace = self.ctx.trace.load(Ordering::Relaxed);
        self.span(self.id(), parent, trace, name, start_ns, end_ns);
    }

    pub fn add(&self, key: &'static str, v: f64) {
        let mut accs = self.accs.lock().expect("counter table poisoned");
        let a = accs.entry(key).or_default();
        a.n += 1;
        a.sum += v;
        a.max = a.max.max(v);
    }

    pub fn acc(&self, key: &str) -> Acc {
        self.accs
            .lock()
            .expect("counter table poisoned")
            .get(key)
            .copied()
            .unwrap_or_default()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span journal poisoned").clone()
    }

    /// Open an epoch: the workload loop calls this right before `run_once`.
    pub fn begin_epoch(&self, trace: u64) -> EpochSpans {
        let e = EpochSpans {
            trace,
            root: self.id(),
            stage: self.id(),
            sink: self.id(),
            entry_ns: self.now_ns(),
        };
        self.ctx.trace.store(trace, Ordering::Relaxed);
        self.ctx.root.store(e.root, Ordering::Relaxed);
        self.ctx.stage.store(e.stage, Ordering::Relaxed);
        self.ctx.sink.store(e.sink, Ordering::Relaxed);
        self.ctx.transform_enter_ns.store(0, Ordering::Relaxed);
        self.ctx.sink_exit_ns.store(0, Ordering::Relaxed);
        e
    }

    /// Close an epoch after `run_once` returned. For a committed epoch
    /// the root splits exactly into partition stage → transform → sink
    /// → checkpoint: the stage ends where the transform is entered and
    /// the checkpoint starts where the sink returned.
    pub fn end_epoch(&self, e: &EpochSpans, committed: bool, parent: u64) {
        let exit = self.now_ns();
        let enter = self.ctx.transform_enter_ns.load(Ordering::Relaxed);
        let sink_exit = self.ctx.sink_exit_ns.load(Ordering::Relaxed);
        if committed && enter > 0 && sink_exit > 0 {
            self.span(e.root, parent, e.trace, "epoch", e.entry_ns, exit);
            self.span(
                e.stage,
                e.root,
                e.trace,
                "partition_stage",
                e.entry_ns,
                enter,
            );
            self.span(self.id(), e.root, e.trace, "checkpoint", sink_exit, exit);
            self.add("pipeline.run_once_ns", (exit - e.entry_ns) as f64);
            self.add("pipeline.partition_stage_ns", (enter - e.entry_ns) as f64);
            self.add("pipeline.checkpoint_ns", (exit - sink_exit) as f64);
        } else {
            // An empty poll: no transform ran, nothing was committed.
            self.span(e.root, parent, e.trace, "empty_poll", e.entry_ns, exit);
            self.span(
                e.stage,
                e.root,
                e.trace,
                "partition_stage",
                e.entry_ns,
                exit,
            );
            self.add("pipeline.empty_poll_ns", (exit - e.entry_ns) as f64);
        }
    }

    /// Per-name totals: (spans, wall ns, self ns). A span's self time is
    /// its duration minus the union of its children's intervals.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans();
        let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                kids.entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &spans {
            let dur = s.end_ns - s.start_ns;
            let covered = kids
                .get(&s.id)
                .map_or(0, |iv| union_within(iv, s.start_ns, s.end_ns));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(covered);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Ids reserved for one epoch.
pub struct EpochSpans {
    pub trace: u64,
    pub root: u64,
    stage: u64,
    sink: u64,
    entry_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// A `MessageBus` that times every fetch and counts the useful ones.
pub struct TimedBus {
    inner: Arc<dyn MessageBus>,
    trace: Arc<Trace>,
}

impl TimedBus {
    pub fn new(inner: Arc<dyn MessageBus>, trace: Arc<Trace>) -> Arc<TimedBus> {
        Arc::new(TimedBus { inner, trace })
    }
}

impl MessageBus for TimedBus {
    fn partition_count(&self, topic: &str) -> Result<u32, StreamError> {
        self.inner.partition_count(topic)
    }

    fn fetch(
        &self,
        topic: &str,
        partition: u32,
        from: u64,
        max: usize,
    ) -> Result<Vec<Record>, StreamError> {
        let t0 = self.trace.now_ns();
        let out = self.inner.fetch(topic, partition, from, max);
        let t1 = self.trace.now_ns();
        self.trace.child_of_stage("fetch", t0, t1);
        self.trace.add("stream.fetch_ns", (t1 - t0) as f64);
        let useful = matches!(&out, Ok(r) if !r.is_empty());
        self.trace
            .add("stream.fetch_useful", if useful { 1.0 } else { 0.0 });
        out
    }

    fn latest_offset(&self, topic: &str, partition: u32) -> Result<u64, StreamError> {
        self.inner.latest_offset(topic, partition)
    }

    fn committed(&self, group: &str, topic: &str, partition: u32) -> u64 {
        self.inner.committed(group, topic, partition)
    }

    fn commit(&self, group: &str, topic: &str, partition: u32, offset: u64) {
        self.inner.commit(group, topic, partition, offset)
    }

    fn metrics(&self) -> Option<Arc<StreamMetrics>> {
        self.inner.metrics()
    }

    fn tracer(&self) -> Option<oda::obs::Tracer> {
        self.inner.tracer()
    }
}

pub fn timed_decoder(inner: Decoder, trace: Arc<Trace>) -> Decoder {
    Box::new(move |records: &[Record]| {
        let t0 = trace.now_ns();
        let out = inner(records);
        let t1 = trace.now_ns();
        trace.child_of_stage("decode", t0, t1);
        trace.add("pipeline.decode_ns", (t1 - t0) as f64);
        out
    })
}

pub fn timed_map(inner: PartitionMap, trace: Arc<Trace>) -> PartitionMap {
    Box::new(move |frame: Frame| {
        let rows_in = frame.rows();
        let t0 = trace.now_ns();
        let out = inner(frame);
        let t1 = trace.now_ns();
        trace.child_of_stage("quality_map", t0, t1);
        trace.add("pipeline.quality_map_ns", (t1 - t0) as f64);
        if let Ok(f) = &out {
            trace.add("pipeline.quality_map_rows_in", rows_in as f64);
            trace.add("pipeline.quality_map_rows_out", f.rows() as f64);
        }
        out
    })
}

pub fn timed_transform(mut inner: Transform, trace: Arc<Trace>) -> Transform {
    Box::new(move |frame: Frame, state| {
        let rows_in = frame.rows();
        let t0 = trace.now_ns();
        trace.ctx.transform_enter_ns.store(t0, Ordering::Relaxed);
        let out = inner(frame, state);
        let t1 = trace.now_ns();
        let root = trace.ctx.root.load(Ordering::Relaxed);
        let tid = trace.ctx.trace.load(Ordering::Relaxed);
        trace.span(trace.id(), root, tid, "transform", t0, t1);
        trace.add("pipeline.transform_ns", (t1 - t0) as f64);
        trace.add("pipeline.transform_rows_in", rows_in as f64);
        if let Ok(f) = &out {
            trace.add("pipeline.transform_rows_out", f.rows() as f64);
        }
        out
    })
}

/// Outermost sink: times the whole write and marks where the
/// checkpoint begins.
pub struct TimedSink<'a> {
    inner: &'a mut dyn Sink,
    trace: Arc<Trace>,
}

impl<'a> TimedSink<'a> {
    pub fn new(inner: &'a mut dyn Sink, trace: Arc<Trace>) -> TimedSink<'a> {
        TimedSink { inner, trace }
    }
}

impl Sink for TimedSink<'_> {
    fn write(&mut self, meta: &EpochMeta, frame: &Frame) -> Result<(), PipelineError> {
        let t0 = self.trace.now_ns();
        let out = self.inner.write(meta, frame);
        let t1 = self.trace.now_ns();
        let ctx = &self.trace.ctx;
        self.trace.span(
            ctx.sink.load(Ordering::Relaxed),
            ctx.root.load(Ordering::Relaxed),
            ctx.trace.load(Ordering::Relaxed),
            "sink",
            t0,
            t1,
        );
        self.trace.add("pipeline.sink_ns", (t1 - t0) as f64);
        ctx.sink_exit_ns
            .store(self.trace.now_ns(), Ordering::Relaxed);
        out
    }
}

/// The open sink span and its trace id: parents for the Gold writer's
/// own spans.
pub fn sink_ctx(trace: &Trace) -> (u64, u64) {
    (
        trace.ctx.sink.load(Ordering::Relaxed),
        trace.ctx.trace.load(Ordering::Relaxed),
    )
}
