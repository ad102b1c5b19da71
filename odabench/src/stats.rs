//! Small statistics helpers: latency samples and percentiles.

use std::time::{Duration, Instant};

/// Length of the windows a run is split into for the end-to-end
/// percentiles.
const WINDOW: Duration = Duration::from_secs(6);

/// Latency samples in nanoseconds, with the time each was taken.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<(Instant, u64)>,
}

fn nearest_rank(mut values: Vec<u64>, p: f64) -> f64 {
    values.sort_unstable();
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1] as f64 / 1e6
}

impl Samples {
    /// Record one latency, completed now.
    pub fn push(&mut self, ns: u64) {
        self.values.push((Instant::now(), ns));
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank percentile over every sample, in milliseconds;
    /// `None` when empty.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(nearest_rank(self.values.iter().map(|v| v.1).collect(), p))
    }

    /// The percentile of each 6 s window of the run (by completion
    /// time), median over the windows that hold at least half as many
    /// samples as the fullest one. A burst of host noise then moves one
    /// window, not the figure; `None` when empty.
    pub fn windowed_ms(&self, p: f64) -> Option<f64> {
        let first = self.values.first()?.0;
        let mut windows: Vec<Vec<u64>> = Vec::new();
        for &(at, ns) in &self.values {
            let w =
                (at.saturating_duration_since(first).as_secs_f64() / WINDOW.as_secs_f64()) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(ns);
        }
        let fullest = windows.iter().map(Vec::len).max()?;
        let per_window: Vec<f64> = windows
            .into_iter()
            .filter(|w| 2 * w.len() >= fullest)
            .map(|w| nearest_rank(w, p))
            .collect();
        Some(median(&per_window))
    }
}

/// Median of a non-empty list of floats.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Relative closeness used by every reference check: NaN matches NaN,
/// otherwise the values agree to `rel` of the larger magnitude.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    let scale = a.abs().max(b.abs()).max(1e-300);
    (a - b).abs() <= rel * scale
}
