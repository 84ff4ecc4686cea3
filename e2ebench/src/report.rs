//! Result output, summary statistics and `/proc` readers.
//!
//! The last line the benchmark prints is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`. [`Report`] builds it
//! and refuses a metric name that was already added, so two code paths can
//! never silently overwrite each other's figure.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    /// Add one metric. Panics on a duplicate name or a non-finite value:
    /// both are bugs in the benchmark, not in the program under test.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let prev = self.metrics.insert(name.to_string(), (value, unit));
        assert!(prev.is_none(), "metric {name} reported twice");
    }

    /// Metrics as (name, unit, value), in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &'static str, f64)> {
        self.metrics.iter().map(|(k, (v, u))| (k.as_str(), *u, *v))
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }

    /// Print one human-readable line per metric to standard error.
    pub fn print_table(&self, title: &str) {
        eprintln!("-- {title}");
        for (name, (value, unit)) in &self.metrics {
            eprintln!("   {name:<36} {value:>14.4} {unit}");
        }
    }

    /// The final result line.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// A JSON number with all its digits (Rust's shortest round-trip form).
pub fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// A JSON string literal.
pub fn text(s: &str) -> String {
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

/// The `q` quantile (0..=1) of `v` by the nearest-rank rule; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The median of `v`; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time the process's live threads have run so far, summed from each
/// thread's `/proc/self/task/<tid>/schedstat` in nanoseconds. The
/// `utime`/`stime` of `/proc/self/stat` come in 10 ms ticks, too coarse for
/// a one-second slice of a mostly idle process. Time of threads that have
/// exited is not included, so only differences over a span in which the
/// stack's threads all live are meaningful.
pub fn cpu_time() -> Duration {
    let mut ns = 0u64;
    for entry in std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        let run = std::fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
        ns += run.unwrap_or(0);
    }
    Duration::from_nanos(ns)
}

/// CPU milliseconds since `since` (a [`cpu_time`] reading).
pub fn cpu_ms_since(since: Duration) -> f64 {
    cpu_time().saturating_sub(since).as_secs_f64() * 1e3
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resident set size of the process now, in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// The highest resident set size [`RssPeak::sample`] has read. Reads are
/// at least [`RssPeak::EVERY`] apart, so sampling in a hot loop stays cheap.
pub struct RssPeak {
    max_mib: f64,
    last: Option<Instant>,
}

impl RssPeak {
    pub const EVERY: Duration = Duration::from_millis(5);

    pub fn new() -> RssPeak {
        let mut p = RssPeak {
            max_mib: 0.0,
            last: None,
        };
        p.sample();
        p
    }

    pub fn sample(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= Self::EVERY) {
            self.last = Some(Instant::now());
            self.max_mib = self.max_mib.max(rss_mib());
        }
    }

    /// The peak, including a final read now.
    pub fn finish(mut self) -> f64 {
        self.last = None;
        self.sample();
        self.max_mib
    }
}

/// Live threads of the process.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Bytes sent over the loopback interface so far, TCP/IP headers and ACKs
/// included, from `/proc/net/dev`; 0 where the kernel does not expose it.
/// The count covers the whole network namespace, so it is the benchmark's
/// own traffic only while nothing else in the namespace uses loopback.
pub fn loopback_bytes() -> u64 {
    std::fs::read_to_string("/proc/net/dev")
        .ok()
        .and_then(|dev| {
            dev.lines()
                .find_map(|l| l.trim_start().strip_prefix("lo:"))
                // Transmit bytes: the ninth number after the name.
                .and_then(|v| v.split_whitespace().nth(8)?.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_names_are_refused() {
        let mut r = Report::default();
        r.put("a", 1.0, "ms");
        r.put("a", 2.0, "ms");
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.put("x_ms", 1.25, "ms");
        let line = r.result_line(true, 3, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
