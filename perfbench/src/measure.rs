//! Timing statistics, the simulated-output digest, and host facts.

use std::time::Instant;

/// First quartile, median and third quartile of `values`, computed
/// exactly as Python's `statistics.quantiles(values, n=4)` does (its
/// default "exclusive" method). One value is its own quartiles.
///
/// # Panics
/// If `values` is empty.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len == 1 {
        return [v[0]; 3];
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Time `samples` batches of `batch` calls of `setup` run back to back
/// (at least one of each) and return each batch's seconds per call
/// plus one result of the last batch. A batch keeps its results until
/// its clock stops, so their teardown is not timed. One sample spans
/// many calls, so a set-up of microseconds still reads well above the
/// timer's and the cache's jitter. Fixed counts, not a time budget,
/// keep the allocation sequence — and with it the peak RSS — the same
/// on every run of a seed.
pub fn time_setups<T, E>(
    samples: usize,
    batch: usize,
    mut setup: impl FnMut() -> Result<T, E>,
) -> Result<(Vec<f64>, T), E> {
    let batch = batch.max(1);
    let mut times = Vec::with_capacity(samples);
    let mut states = Vec::with_capacity(batch);
    loop {
        states.clear();
        let start = Instant::now();
        for _ in 0..batch {
            states.push(setup()?);
        }
        times.push(start.elapsed().as_secs_f64() / batch as f64);
        if times.len() >= samples {
            let state = states.pop().expect("a batch holds at least one set-up");
            return Ok((times, state));
        }
    }
}

/// FNV-1a over 64-bit words: a digest of simulated outputs that must
/// repeat bit for bit between passes, and between traced and untraced
/// runs, of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold in one word.
    pub fn u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold in a float by its exact bits.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn time_setups_times_every_batch_and_returns_the_last_set_up() {
        let mut calls = 0;
        let (times, last) = time_setups(3, 4, || {
            calls += 1;
            Ok::<_, ()>(calls)
        })
        .expect("infallible set-up");
        assert_eq!((times.len(), last, calls), (3, 12, 12));
        assert!(times.iter().all(|t| t.is_finite() && *t >= 0.0));
    }

    #[test]
    fn digest_tells_bits_apart() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64(0.0);
        b.f64(-0.0);
        assert_ne!(a, b);
    }
}
