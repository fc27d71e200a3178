//! Metric collection, summary statistics, and the result line.

use std::fmt::Write as _;

/// One reported number: its name, value, unit, and how many samples it
/// summarizes (1 for a single measurement or a count).
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics of one run, in the order they were recorded.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Adds `<name>_p50_<unit>` and `<name>_p90_<unit>` over `samples`:
    /// the median, and the highest percentile that keeps ten samples
    /// beyond it at the hundred-odd samples one run yields.
    pub fn add_p50_p90(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        let n = samples.len();
        self.add(
            format!("{name}_p50_{unit}"),
            percentile(samples, 50.0),
            unit,
            n,
        );
        self.add(
            format!("{name}_p90_{unit}"),
            percentile(samples, 90.0),
            unit,
            n,
        );
    }

    /// Prints a human-readable table (name, value, unit, samples) and, as
    /// the last line of standard output, the JSON result object.
    pub fn print(&self, correct: bool, attempted: usize, failed: usize) {
        for m in &self.metrics {
            println!(
                "{:<32} {:>16.6} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN/Inf; a non-finite value is reported as -1.
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Nearest-rank percentile (`p` in 0..=100); 0 for no samples. The
/// benchmark owns it, so a change to the program's own statistics cannot
/// move the results.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// FNV-1a over a logit map's shape and exact f32 bit patterns: equal
/// hashes mean bit-identical outputs.
pub fn hash_logits(t: &vit_tensor::Tensor) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for &d in t.shape() {
        eat(d as u64);
    }
    for &x in t.data() {
        eat(u64::from(x.to_bits()));
    }
    h
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A small seeded generator (SplitMix64): the benchmark's inputs depend
/// only on `--seed`. The benchmark owns it, rather than using the
/// repository's `rand`, so a change to the program cannot change the
/// arrival schedules it is measured on.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}
