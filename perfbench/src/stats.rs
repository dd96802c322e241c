//! Small statistics and reporting helpers: percentiles with their sample
//! counts, failure tallies, and the metric list the benchmark prints.

use std::fmt::Write as _;

/// A percentile of a sample, with the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `samples`, or `None` for an
/// empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "percentile rank out of range: {q}");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        value: sorted[nearest_rank(sorted.len(), q) - 1],
        samples: sorted.len(),
    })
}

/// 1-based nearest rank of percentile `q` in a sample of `n`.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentile `q` of `samples`, reported only when at least `min_beyond`
/// samples lie beyond its rank, so that a tail percentile never rests on
/// a handful of values. With `q = 0.95` and `min_beyond = 10` this needs
/// 200 samples.
pub fn tail_percentile(samples: &[f64], q: f64, min_beyond: usize) -> Option<Percentile> {
    let p = percentile(samples, q)?;
    (p.samples - nearest_rank(p.samples, q) >= min_beyond).then_some(p)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Operations attempted and how many of them failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Failed operations as a share of attempted ones.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics with unique, valid names and finite values.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Adds a metric.
    ///
    /// # Errors
    ///
    /// Rejects an invalid or repeated name and a non-finite value.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) -> Result<(), String> {
        if !valid_metric_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        if self.items.iter().any(|m| m.name == name) {
            return Err(format!("metric {name} reported twice"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        self.items.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
        Ok(())
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.items.iter()
    }

    /// The result line: `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
    pub fn result_json(&self, correct: bool, tally: Tally) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.attempted.max(1),
            tally.failed
        );
        for (i, m) in self.items.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_value_and_sample_count() {
        let samples: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        let p50 = percentile(&samples, 0.5).unwrap();
        assert_eq!(
            p50,
            Percentile {
                value: 5.0,
                samples: 10
            }
        );
        assert_eq!(percentile(&samples, 1.0).unwrap().value, 10.0);
        assert_eq!(percentile(&[3.0], 0.95).unwrap().value, 3.0);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let ramp = |n: u32| (0..n).map(f64::from).collect::<Vec<_>>();
        assert!(tail_percentile(&ramp(199), 0.95, 10).is_none());
        let p = tail_percentile(&ramp(200), 0.95, 10).unwrap();
        // Rank 190 of 200: ten samples lie beyond it.
        assert_eq!(p.value, 189.0);
        assert_eq!(p.samples, 200);
        assert!(tail_percentile(&ramp(20), 0.5, 10).is_some());
        assert!(tail_percentile(&ramp(19), 0.5, 10).is_none());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failed_frac_counts_against_attempted_operations() {
        let t = Tally {
            attempted: 8,
            failed: 2,
        };
        // Failures are divided by everything attempted (8), not by the
        // successes (6).
        assert_eq!(t.failed_frac(), 0.25);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn metric_names_outside_the_alphabet_are_rejected() {
        for good in [
            "setup_s",
            "restore_ms.p50",
            "proto.ctrl.hello",
            "9-lives",
            "a",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "rate/s",
            "naïve",
            "a\"b",
            &long,
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        let mut m = Metrics::default();
        assert!(m.push("latency ms", 1.0, "ms").is_err());
        assert!(m.push("ok", f64::NAN, "ms").is_err());
        m.push("ok", 1.5, "ms").unwrap();
        assert!(m.push("ok", 2.0, "ms").is_err());
    }

    #[test]
    fn result_json_has_the_four_keys() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.25, "s").unwrap();
        m.push("work_per_s", 12.0, "1/s").unwrap();
        let line = m.result_json(
            true,
            Tally {
                attempted: 8,
                failed: 0,
            },
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 8, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"work_per_s\": {\"value\": 12.0, \"unit\": \"1/s\"}}}"
        );
    }
}
