//! Order statistics and process measurements.

use std::time::{Duration, Instant};

/// The tail percentile every latency metric reports. A run collects
/// well over 100 samples, so at least ten lie beyond it.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// Linear-interpolated percentile `p` (0–100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `part / whole`, 0 for an empty whole.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Median seconds of `reps` timed calls of `f`.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median per-call microseconds of `f`, timed in `batches` batches of
/// `per_batch` calls so that sub-microsecond calls are resolvable.
pub fn per_call_us(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    median_secs(batches, || {
        for _ in 0..per_batch {
            f();
        }
    }) / per_batch as f64
        * 1e6
}

/// A `/proc/<pid>/status` field in kB, as MB.
pub fn status_mb(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident memory of this process, in MB.
pub fn own_peak_rss_mb() -> f64 {
    status_mb("self", "VmHWM:").unwrap_or(f64::NAN)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Seconds one sweep of the calibration [`kernel`] takes at the
/// reference machine speed (a two-core x86-64 VM at its faster
/// settings).
pub const REFERENCE_SWEEP_S: f64 = 25e-6;

/// Machine-speed probe: `sweeps` passes of random read-modify-writes
/// over a 256 KiB buffer, the cache footprint of the thermal hot path's
/// LDLᵀ factors. It calls no program code, so a program change cannot
/// move it. Returns its seconds.
pub fn kernel(sweeps: usize) -> f64 {
    const LEN: usize = 1 << 15;
    let mut buf = vec![1.0_f64; LEN];
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let index: Vec<usize> = (0..25_000)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % LEN
        })
        .collect();
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..sweeps {
        for (i, &j) in index.iter().enumerate() {
            let v = buf[j] * 0.999 + 1e-3;
            buf[i % LEN] = v;
            acc += v;
        }
    }
    std::hint::black_box(acc);
    secs(t)
}

/// Reference seconds per wall second, given the seconds of kernel
/// samples of `sweeps` sweeps each, taken while the timed work ran.
///
/// The host this benchmark was sized on drifts in speed by tens of
/// percent within minutes, and CPU time drifts with it. A compute-bound
/// workload therefore reports reference seconds: wall seconds scaled by
/// how much faster or slower than the reference the kernel ran.
pub fn factor(samples: &[f64], sweeps: usize) -> f64 {
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    REFERENCE_SWEEP_S * sweeps as f64 / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert_eq!(percentile(&v, 90.0), 10.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert!((percentile(&[1.0, 2.0], 25.0) - 1.25).abs() < 1e-12);
    }
}
