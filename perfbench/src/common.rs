//! Shared plumbing: the stopwatch, order statistics, the benchmark's own
//! span recorder and the metric list every workload fills.
//!
//! Wall time is read only through `criterion::time_once`, the one
//! stopwatch the workspace's `wallclock-ban` lint exempts.

use std::cell::RefCell;
use std::collections::BTreeMap;

/// Runs `f` once and returns its output with the elapsed wall seconds.
pub fn timed<O>(f: impl FnOnce() -> O) -> (O, f64) {
    let (out, wall) = criterion::time_once(f);
    (out, wall.as_secs_f64())
}

/// Median of `xs` (mean of the middle pair for even lengths; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs` (0 if empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV0: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64 finaliser: the benchmark's input generator derives every
/// choice from `mix(seed ^ salt)`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny deterministic stream for workload inputs.
pub struct Gen(u64);

impl Gen {
    /// A stream for `seed`, salted by `salt`.
    pub fn new(seed: u64, salt: u64) -> Gen {
        Gen(mix(seed ^ salt.rotate_left(17)))
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Fisher–Yates shuffle of `v`.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends `name` (a non-finite value is reported as 0).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_owned(), value, unit));
    }
}

/// What one workload invocation measured.
#[derive(Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Benchmark operations attempted (runs or requests).
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// End-to-end or per-layer metrics, by name.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// One closed span of the benchmark's own tracer.
struct Span {
    layer: &'static str,
    secs: f64,
    child_secs: f64,
}

/// The benchmark's span recorder. Spans wrap the benchmark's calls into
/// each layer; a layer's self time is its spans' time minus the time of
/// spans nested inside them. Disabled, `span` is a plain call.
pub struct Tracer {
    on: bool,
    spans: RefCell<Vec<Span>>,
    open_child: RefCell<Vec<f64>>,
}

impl Tracer {
    /// A recorder that records (`on`) or passes calls straight through.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: RefCell::new(Vec::new()),
            open_child: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span attributed to `layer`.
    pub fn span<O>(&self, layer: &'static str, f: impl FnOnce() -> O) -> O {
        if !self.on {
            return f();
        }
        self.open_child.borrow_mut().push(0.0);
        let (out, secs) = timed(f);
        let child_secs = self.open_child.borrow_mut().pop().unwrap_or(0.0);
        if let Some(parent) = self.open_child.borrow_mut().last_mut() {
            *parent += secs;
        }
        self.spans.borrow_mut().push(Span {
            layer,
            secs,
            child_secs,
        });
        out
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self seconds per layer, ascending by layer name.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.borrow().iter() {
            *out.entry(s.layer).or_insert(0.0) += (s.secs - s.child_secs).max(0.0);
        }
        out
    }
}
