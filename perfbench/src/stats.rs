//! Sample sets, percentiles and the metric records the benchmark prints.

use std::time::Duration;

/// Latency (or other) samples of one operation kind.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100); 0 for an empty set.
    pub fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    /// Whether percentile `p` has at least ten samples beyond it — the
    /// rule for the highest percentile worth printing.
    pub fn supports(&self, p: f64) -> bool {
        (self.0.len() as f64) * (1.0 - p / 100.0) >= 10.0
    }
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value was computed from (`None` for a single
    /// measurement or a count).
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            samples: None,
        }
    }

    pub fn sampled(name: impl Into<String>, unit: &'static str, value: f64, n: usize) -> Self {
        Self {
            samples: Some(n),
            ..Self::new(name, unit, value)
        }
    }

    /// Percentile `p` of `s`, with its sample count. A percentile without
    /// ten samples beyond it is still printed, flagged on stderr.
    pub fn pct(name: impl Into<String>, s: &Samples, p: f64) -> Self {
        let name = name.into();
        if !s.supports(p) {
            eprintln!(
                "warning: {name} from {} samples has fewer than ten beyond p{p}",
                s.len()
            );
        }
        Self::sampled(name, "ms", s.pct(p), s.len())
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a few set-up timings, in seconds.
pub fn median_s(times: &[Duration]) -> f64 {
    let mut s = Samples::default();
    for t in times {
        s.push(t.as_secs_f64());
    }
    s.median()
}

/// SplitMix64: the benchmark's own deterministic choices (which cell a
/// delta touches, which value it writes), derived from the run's seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5DEE_CE66_D1CE_F00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
