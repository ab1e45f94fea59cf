//! Host-speed gauge: scales host times to a reference host speed.
//!
//! On a shared virtual machine, other tenants' load comes and goes in
//! phases of seconds to minutes that slow everything the benchmark does
//! by up to about 1.8×. The slowdown is contention for the caches and
//! the memory system, not clock speed: a register-only loop keeps its
//! speed through it. A run cannot average such phases out, so the gauge
//! measures them instead. Beside the timed work it times a fixed
//! calibration kernel that uses none of the repository's code: a burst
//! of small heap allocations and hash-map updates, the kind of work the
//! simulator and the service do most. Each host time is scaled by
//! `REFERENCE_MS / kernel time` near it. Of the kernels tried against
//! bitcnt, mmul and serve-zipf over phases that moved their medians by
//! up to 1.7×, this one tracked all three best: an L2-sized table walk
//! and a DRAM-sized one tracked mmul or serve but not bitcnt. The kernel
//! runs once untimed before each timed run, so what ran before it (and
//! how much of the cache it left cold) does not change its time.
//!
//! A change to the simulator moves the timed work but not the kernel, so
//! it still moves the scaled times one for one. Only host slowness that
//! slows both is divided out. Runs print the unscaled figures too.

use crate::report::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// About the kernel's time on an uncontended host: a 2-vCPU Xeon
/// virtual machine at 2.1 GHz in its fast phase. Scaled times read as
/// host times on that machine.
pub const REFERENCE_MS: f64 = 0.18;
/// Samples within this many seconds of a timed event set its factor.
pub const WINDOW_S: f64 = 1.0;
/// Samples the window holds at least (nearest in time), so a sparse
/// stretch still has a median.
const MIN_SAMPLES: usize = 5;

const ALLOCATIONS: usize = 3_000;

pub struct Gauge {
    origin: Instant,
    samples: Vec<(f64, f64)>,
}

impl Gauge {
    /// `origin` is the clock that `factor_at` times are measured from.
    pub fn new(origin: Instant) -> Gauge {
        Gauge {
            origin,
            samples: Vec::new(),
        }
    }

    /// Warms the kernel up, times it once and keeps the sample; returns
    /// its time in ms.
    pub fn sample(&mut self) -> f64 {
        black_box(churn());
        let start = Instant::now();
        black_box(churn());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let at = start.duration_since(self.origin).as_secs_f64();
        self.samples.push((at, ms));
        ms
    }

    /// Seconds since the last sample (infinite before the first).
    pub fn since_last(&self) -> f64 {
        self.samples.last().map_or(f64::INFINITY, |&(at, _)| {
            self.origin.elapsed().as_secs_f64() - at
        })
    }

    pub fn into_factors(self) -> Factors {
        let mut samples = self.samples;
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        Factors { samples }
    }
}

/// Sorted samples of a finished run.
pub struct Factors {
    samples: Vec<(f64, f64)>,
}

impl Factors {
    /// Scale for a host time measured around `at` seconds after the
    /// gauge's origin: `REFERENCE_MS` over the median kernel time of the
    /// samples within `WINDOW_S` (at least the `MIN_SAMPLES` nearest).
    pub fn at(&self, at: f64) -> f64 {
        let s = &self.samples;
        assert!(!s.is_empty(), "the gauge was never sampled");
        let lo = s.partition_point(|&(t, _)| t < at - WINDOW_S);
        let hi = s.partition_point(|&(t, _)| t <= at + WINDOW_S);
        let (mut lo, mut hi) = (lo, hi.max(lo));
        while hi - lo < MIN_SAMPLES.min(s.len()) {
            let left = lo.checked_sub(1).map(|i| at - s[i].0);
            let right = s.get(hi).map(|&(t, _)| t - at);
            match (left, right) {
                (Some(l), Some(r)) if l <= r => lo -= 1,
                (Some(_), None) => lo -= 1,
                _ => hi += 1,
            }
        }
        let ms: Vec<f64> = s[lo..hi].iter().map(|&(_, ms)| ms).collect();
        REFERENCE_MS / median(&ms)
    }

    /// Median kernel time over the whole run, in ms.
    pub fn median_ms(&self) -> f64 {
        let ms: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        median(&ms)
    }
}

/// Small vectors and a hash map, allocated and freed.
fn churn() -> u64 {
    let mut acc = 0u64;
    let mut live: Vec<Vec<u64>> = Vec::new();
    for i in 0..ALLOCATIONS {
        let mut v = vec![i as u64; 8 + (i * 7919) % 120];
        v[0] ^= acc;
        acc = acc.wrapping_add(v[v.len() - 1]);
        live.push(v);
        if live.len() > 64 {
            live.swap_remove((i * 31) % 64);
        }
    }
    let mut counts = HashMap::new();
    for i in 0..ALLOCATIONS as u64 {
        *counts.entry(i.wrapping_mul(0x9E37) % 997).or_insert(0u64) += i;
    }
    acc ^ counts.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factors(samples: &[(f64, f64)]) -> Factors {
        Factors {
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn factor_is_the_reference_over_the_local_median() {
        // Fast phase (0.5 ms) for 10 s, then a slow one (1.0 ms).
        let s: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let t = i as f64 * 0.1;
                (t, if t < 10.0 { 0.5 } else { 1.0 })
            })
            .collect();
        let f = factors(&s);
        assert_eq!(f.at(3.0), REFERENCE_MS / 0.5);
        assert_eq!(f.at(15.0), REFERENCE_MS / 1.0);
        // Beyond the samples the nearest ones still count.
        assert_eq!(f.at(100.0), REFERENCE_MS / 1.0);
        assert_eq!(f.median_ms(), 0.5);
    }

    #[test]
    fn sparse_samples_use_the_nearest() {
        let f = factors(&[(0.0, 1.0), (5.0, 2.0), (10.0, 2.0), (20.0, 2.0), (30.0, 2.0), (40.0, 4.0)]);
        assert_eq!(f.at(0.0), REFERENCE_MS / 2.0);
    }

    #[test]
    fn the_kernel_does_fixed_work() {
        let t = Instant::now();
        let mut g = Gauge::new(t);
        assert!(g.since_last().is_infinite());
        let ms = g.sample();
        assert!(ms > 0.0);
        assert_eq!(churn(), churn());
        assert!(g.into_factors().at(0.0) > 0.0);
    }
}
