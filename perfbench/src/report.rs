//! What one run prints: every metric by name with its unit, the checks
//! that passed or failed, and the final one-line JSON result.

use puma::sim::{EnergyComponent, RunStats};
use std::collections::HashMap;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics, measured with tracing off.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics, from the traced pass only.
    pub layers: Vec<Metric>,
    /// Human-readable context printed before the result (ledger
    /// remainders, percentiles, per-model breakdowns).
    pub notes: Vec<String>,
    /// Requests whose outcome counts towards `error_rate`.
    pub attempted: u64,
    /// Shed, failed, timed-out, or output-check failures among them.
    pub failed: u64,
    /// Every failed check, by description.
    pub failures: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push(Metric { name: name.into(), value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a check: a failure is kept (and makes the run incorrect).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every check passed and every printed value is a finite
    /// number (a JSON result cannot carry NaN or infinity).
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.e2e.iter().chain(&self.layers).all(|m| m.value.is_finite())
    }

    /// Prints the human-readable lines, then the JSON result as the last
    /// line of standard output. With `trace` the result carries the
    /// per-layer metrics, otherwise the end-to-end ones.
    pub fn print(&self, trace: bool) {
        for line in &self.notes {
            println!("note {line}");
        }
        for m in &self.e2e {
            println!("e2e {} = {} {}", m.name, m.value, m.unit);
        }
        for m in &self.layers {
            println!("layer {} = {} {}", m.name, m.value, m.unit);
        }
        for f in &self.failures {
            println!("FAILED {f}");
        }
        let metrics = if trace { &self.layers } else { &self.e2e };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    value,
                    json_str(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted non-empty sample (the method the
/// runtime's `LatencySummary` uses).
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The highest percentile that leaves at least ten of `n` samples beyond
/// it under the nearest-rank method.
pub fn tail_percentile(n: usize) -> f64 {
    assert!(n > 10, "a tail percentile needs more than ten samples");
    100.0 * (n - 10) as f64 / n as f64
}

/// The process high-water resident set (`VmHWM`) less `excluded` bytes
/// that stayed resident from the start of the run (the host-speed probe's
/// tables), in MiB.
pub fn peak_rss_mib(excluded: usize) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("the process status has no VmHWM line")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("unparsable VmHWM line {line:?}: {e}"))?;
    Ok((kib * 1024.0 - excluded as f64) / (1024.0 * 1024.0))
}

/// Short metric-name form of an energy component.
pub fn component_key(c: EnergyComponent) -> &'static str {
    match c {
        EnergyComponent::Mvmu => "mvmu",
        EnergyComponent::Vfu => "vfu",
        EnergyComponent::Sfu => "sfu",
        EnergyComponent::RegisterFile => "register_file",
        EnergyComponent::FetchDecode => "fetch_decode",
        EnergyComponent::SharedMemory => "shared_memory",
        EnergyComponent::Network => "network",
        EnergyComponent::Interconnect => "interconnect",
        EnergyComponent::OffChip => "off_chip",
    }
}

/// An order-sensitive FNV-1a fingerprint of deterministic results: two
/// runs agree bit for bit exactly when their digests of the same fields
/// agree (up to hash collisions).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Every `RunStats` field that the engines promise to keep identical.
    pub fn stats(&mut self, s: &RunStats) {
        self.u64(s.cycles);
        for (category, n) in &s.dynamic_instructions {
            self.str(&format!("{category:?}"));
            self.u64(*n);
        }
        for c in EnergyComponent::ALL {
            self.f64(s.energy.component_nj(c));
            self.u64(s.energy.component_busy(c));
        }
        for v in [
            s.mvmu_activations,
            s.degraded_mvm_activations,
            s.faulted_mvm_activations,
            s.dead_tile_halts,
            s.packets_dropped,
            s.packets_duplicated,
            s.packets_delayed,
            s.shared_memory_words,
            s.network_words,
            s.internode_words,
            s.blocked_cycles,
        ] {
            self.u64(v);
        }
    }

    /// Output vectors, in name order.
    pub fn outputs(&mut self, outputs: &HashMap<String, Vec<f32>>) {
        let mut names: Vec<&String> = outputs.keys().collect();
        names.sort();
        for name in names {
            self.str(name);
            for v in &outputs[name] {
                self.u64(u64::from(v.to_bits()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=200).collect();
        let p = tail_percentile(200);
        assert_eq!(p, 95.0);
        assert_eq!(nearest_rank(&sorted, p), 190);
        assert_eq!(sorted.len() - nearest_rank(&sorted, p) as usize, 10);
        assert_eq!(nearest_rank(&sorted, 50.0), 100);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
    }
}
