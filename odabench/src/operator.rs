//! The operator: one thread, one connection at a time, on a fixed
//! open-loop schedule. Every op is timed from when it was due, so a
//! stall that delays later ops counts against them.

use crate::stats::Samples;
use crate::trace::Trace;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Metrics,
    Healthz,
    Dashboard,
}

impl Op {
    fn path(self) -> &'static str {
        match self {
            Op::Metrics => "/metrics",
            Op::Healthz => "/healthz",
            Op::Dashboard => "dashboard",
        }
    }
}

/// Due offsets (from the run's start) of each op at `rates` per second,
/// merged in due order. Kinds are phase-shifted evenly so no two come
/// due together, and each op is delayed by a fixed-seed pseudo-random
/// 0–4 ms: a strictly periodic schedule can lock onto the server's 2 ms
/// accept poll and see the same wait on every request of a run.
pub fn schedule(rates: &[(Op, f64)], seconds: f64) -> Vec<(Duration, Op)> {
    const JITTER_S: f64 = 0.004;
    let mut rng = 0x0da5_c4ed_u64;
    let mut jitter = move || {
        // SplitMix64 step, scaled to [0, JITTER_S).
        rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 * JITTER_S
    };
    let mut due = Vec::new();
    for (k, &(op, rate)) in rates.iter().enumerate() {
        let phase = k as f64 / (rate * rates.len() as f64);
        let slots = ((seconds - phase - JITTER_S) * rate).ceil().max(0.0) as u64;
        for i in 0..slots {
            let t = phase + i as f64 / rate + jitter();
            due.push((Duration::from_secs_f64(t), op));
        }
    }
    due.sort_by_key(|&(t, _)| t);
    due
}

/// What the operator saw.
#[derive(Debug, Default)]
pub struct OpReport {
    pub scrape: Samples,
    pub dashboard: Samples,
    pub lateness: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// Failed ops (first few), e.g. refused connections or 503s.
    pub errors: Vec<String>,
    /// Answers that were wrong: ill-formed bodies, dashboard mismatches.
    pub wrong: Vec<String>,
    pub shed: u64,
    pub response_bytes: u64,
}

/// One HTTP exchange, timed at the connect / first byte / last byte
/// boundaries.
struct Exchange {
    status: u16,
    body: String,
    connect: Duration,
    ttfb: Duration,
    body_time: Duration,
    bytes: usize,
}

fn get(addr: SocketAddr, path: &str) -> std::io::Result<Exchange> {
    let t0 = Instant::now();
    let mut s = TcpStream::connect(addr)?;
    let t1 = Instant::now();
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n")?;
    let mut raw = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let n = s.read(&mut chunk)?;
    let t2 = Instant::now();
    if n == 0 {
        return Err(std::io::Error::other("connection closed before a response"));
    }
    raw.extend_from_slice(&chunk[..n]);
    s.read_to_end(&mut raw)?;
    let t3 = Instant::now();
    let text = String::from_utf8(raw).map_err(std::io::Error::other)?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("no header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad status line"))?;
    Ok(Exchange {
        status,
        bytes: text.len(),
        body: body.to_string(),
        connect: t1 - t0,
        ttfb: t2 - t1,
        body_time: t3 - t2,
    })
}

/// A 200 body must be well formed: `/metrics` carries the epoch
/// counter, `/healthz` is JSON with a verdict.
fn check_body(op: Op, body: &str) -> Result<(), String> {
    match op {
        Op::Metrics if body.contains("pipeline_epochs_total") => Ok(()),
        Op::Metrics => Err("/metrics lacks pipeline_epochs_total".into()),
        Op::Healthz => {
            let v: serde::Value =
                serde_json::from_str(body).map_err(|e| format!("/healthz is not JSON: {e}"))?;
            let serde::Value::Object(fields) = v else {
                return Err("/healthz is not a JSON object".into());
            };
            match fields.iter().find(|(k, _)| k == "overall").map(|(_, v)| v) {
                Some(serde::Value::Str(s))
                    if matches!(s.as_str(), "healthy" | "degraded" | "unhealthy") =>
                {
                    Ok(())
                }
                _ => Err("/healthz carries no verdict".into()),
            }
        }
        Op::Dashboard => Ok(()),
    }
}

/// How one op ended.
pub enum Outcome {
    Ok,
    /// The op did not complete (refused, timed out, non-200).
    Failed(String),
    /// The op completed with a wrong answer.
    Wrong(String),
}

/// Run `plan` against the server at `addr`, starting at `start`.
/// `dashboard` answers one dashboard read; its arguments are the read's
/// sequence number and the op's root span id (0 untraced).
pub fn run(
    addr: SocketAddr,
    plan: &[(Duration, Op)],
    start: Instant,
    trace: Option<&Arc<Trace>>,
    dashboard: &mut dyn FnMut(u64, u64) -> Outcome,
) -> OpReport {
    let mut r = OpReport::default();
    let mut reads = 0u64;
    for &(offset, op) in plan {
        let due = start + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let begin = Instant::now();
        r.lateness.push((begin - due).as_nanos() as u64);
        r.attempted += 1;
        let root = trace.map(|tr| tr.id());
        let outcome = match op {
            Op::Dashboard => {
                reads += 1;
                dashboard(reads, root.unwrap_or(0))
            }
            Op::Metrics | Op::Healthz => match get(addr, op.path()) {
                Ok(x) => {
                    r.response_bytes += x.bytes as u64;
                    if let (Some(tr), Some(root)) = (trace, root) {
                        let route = if op == Op::Metrics {
                            "metrics"
                        } else {
                            "healthz"
                        };
                        let c0 = tr.ns_of(begin);
                        let c1 = c0 + x.connect.as_nanos() as u64;
                        let c2 = c1 + x.ttfb.as_nanos() as u64;
                        let c3 = c2 + x.body_time.as_nanos() as u64;
                        tr.span(tr.id(), root, root, "connect", c0, c1);
                        tr.span(tr.id(), root, root, "ttfb", c1, c2);
                        tr.span(tr.id(), root, root, "body", c2, c3);
                        tr.add("serve.connect_ns", x.connect.as_nanos() as f64);
                        tr.add(
                            if route == "metrics" {
                                "serve.ttfb_ns.metrics"
                            } else {
                                "serve.ttfb_ns.healthz"
                            },
                            x.ttfb.as_nanos() as f64,
                        );
                        tr.add(
                            if route == "metrics" {
                                "serve.body_ns.metrics"
                            } else {
                                "serve.body_ns.healthz"
                            },
                            x.body_time.as_nanos() as f64,
                        );
                    }
                    match x.status {
                        200 => match check_body(op, &x.body) {
                            Ok(()) => Outcome::Ok,
                            Err(e) => Outcome::Wrong(e),
                        },
                        503 if x.body.contains("connection budget exhausted") => {
                            r.shed += 1;
                            Outcome::Failed(format!("{} shed with 503", op.path()))
                        }
                        s => Outcome::Failed(format!("{} answered {s}", op.path())),
                    }
                }
                Err(e) => Outcome::Failed(format!("{}: {e}", op.path())),
            },
        };
        let done = Instant::now();
        if let (Some(tr), Some(root)) = (trace, root) {
            let name = match op {
                Op::Metrics => "op.metrics",
                Op::Healthz => "op.healthz",
                Op::Dashboard => "op.dashboard",
            };
            tr.span(root, 0, root, name, tr.ns_of(due), tr.ns_of(done));
        }
        let latency = (done - due).as_nanos() as u64;
        match outcome {
            Outcome::Ok => match op {
                Op::Dashboard => r.dashboard.push(latency),
                _ => r.scrape.push(latency),
            },
            Outcome::Failed(e) => {
                r.failed += 1;
                if r.errors.len() < 8 {
                    r.errors.push(e);
                }
            }
            Outcome::Wrong(e) => {
                r.failed += 1;
                if r.wrong.len() < 8 {
                    r.wrong.push(e);
                }
            }
        }
    }
    r
}
