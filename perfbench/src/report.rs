//! Result assembly: metrics, percentiles, the statistics digest and the
//! final JSON line.

use dta_core::JobOutput;
use dta_json::{fnv1a128, Json};
use std::collections::BTreeMap;

/// Metrics of one run, in the order they were measured, plus
/// human-readable lines printed before the result.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A metric the workload does not exercise: reported as 0 with the
    /// reason printed beside the result.
    pub fn absent(&mut self, name: &str, unit: &'static str, why: &str) {
        self.note(format!("absent {name}: {why}"));
        self.put(name, 0.0, unit);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|(n, _, _)| n == name)
    }

    /// Keeps only the metrics named in `names` (and checks none is
    /// missing), then prints the notes and the result as the last line.
    pub fn print(self, names: &[(&str, &str)], attempted: u64, failed: u64) -> Result<(), String> {
        let mut metrics = BTreeMap::new();
        for &(name, unit) in names {
            let (_, value, got_unit) = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if *got_unit != unit {
                return Err(format!(
                    "metric {name} measured in {got_unit}, declared in {unit}"
                ));
            }
            metrics.insert(
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            );
        }
        for line in &self.notes {
            println!("{line}");
        }
        let result = Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(metrics.into_iter().collect())),
        ]);
        println!("{}", result.to_string_compact());
        Ok(())
    }
}

/// Outcome counters of every job the run executes, untimed ones too.
#[derive(Default)]
pub struct Outcomes {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcomes {
    /// Counts one job; a failure is reported on stderr, never dropped.
    pub fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }
}

/// Nearest-rank percentile `p` (0–100] of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `job_ms_tail`: percentile `p` of each third of the timed phase
/// (samples in time order), then the median of the three. A host stall
/// that fills one third's tail moves the result no more than the next
/// third's value; pooled, a few such stalls set the whole run's tail.
pub fn tail_of_thirds(samples: &[f64], p: f64) -> f64 {
    let n = samples.len();
    let thirds: Vec<f64> = (0..3)
        .map(|i| percentile(&samples[i * n / 3..(i + 1) * n / 3], p))
        .collect();
    median(&thirds)
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Running digest of simulated results: `RunStats` and every global of
/// each job, in job order. Host-side counters (`EngineReport`) are left
/// out so a host-only change keeps the digest bit-identical.
#[derive(Default)]
pub struct Digest {
    per_job: Vec<u8>,
    jobs: u64,
}

impl Digest {
    /// Hash of one job's simulated results.
    pub fn job_hash(out: &JobOutput) -> u128 {
        let mut text = dta_json::ToJson::to_json(&out.stats).to_string_compact();
        text.push_str(&out.globals.to_json().to_string_compact());
        fnv1a128(text.as_bytes())
    }

    pub fn add(&mut self, out: &JobOutput) {
        self.push(Self::job_hash(out));
    }

    pub fn push(&mut self, job_hash: u128) {
        self.per_job.extend_from_slice(&job_hash.to_le_bytes());
        self.jobs += 1;
    }

    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    pub fn line(&self, workload: &str, seed: u64) -> String {
        format!(
            "digest {workload} seed={seed} jobs={} runstats+globals fnv1a128={:032x}",
            self.jobs,
            fnv1a128(&self.per_job)
        )
    }
}

/// Peak resident set size (VmHWM) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_of_thirds_takes_the_middle_third_tail() {
        // Thirds with p90s 8, 108 and 208: the middle one is reported,
        // however far the slowest third's tail reaches.
        let s: Vec<f64> = (0..30)
            .map(|i| f64::from(i % 10) + f64::from(i / 10) * 100.0)
            .collect();
        assert_eq!(tail_of_thirds(&s, 90.0), 108.0);
        assert_eq!(tail_of_thirds(&[], 90.0), 0.0);
    }
}
