//! Sample summaries: median and quartiles, the tail rule, CPU per GiB and
//! the failure tally behind `error_rate`.

/// Median of `xs` (`None` when empty).
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads this program reports match the ones a reader recomputes.
/// A single sample is its own quartiles; `None` when empty.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let m = ld + 1;
            let mut out = [0.0; 3];
            for (k, slot) in out.iter_mut().enumerate() {
                let i = k + 1;
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            Some(out)
        }
    }
}

/// Percentiles the tail rule may report, highest last.
const TAIL_LADDER: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail rule: the highest percentile of [`TAIL_LADDER`] with at
/// least [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)`
/// with the value taken by nearest rank. `None` when even p90 has too
/// few samples beyond it (fewer than 100 samples).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let p = *TAIL_LADDER.iter().rev().find(|&&p| beyond(xs.len(), p) >= TAIL_MIN_BEYOND)?;
    Some((p, percentile(xs, p)?))
}

/// Nearest-rank percentile `p` (0–100] of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    Some(v[rank(v.len(), p).clamp(1, v.len()) - 1])
}

/// How many of `n` samples lie beyond the nearest-rank percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// Nearest rank of percentile `p` among `n` samples, with a little slack
/// so that decimal percentiles such as 99.9 land on the exact rank.
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Process CPU seconds per GiB of input.
pub fn cpu_s_per_gib(cpu_s: f64, input_bytes: u64) -> f64 {
    cpu_s / (input_bytes as f64 / (1u64 << 30) as f64)
}

/// Input MiB per second.
pub fn mib_per_s(bytes: u64, seconds: f64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64 / seconds
}

/// Operations attempted and failed. An operation fails when it returns an
/// error or its output or verdict disagrees with the oracle; one that
/// does both still counts once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: 10 lie beyond p99, only 1 beyond p99.9.
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: 9 beyond p99, so p90 (99 beyond) is the tail.
        assert_eq!(tail(&xs), Some((90.0, 900.0)));
        let xs: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.9, 19_980.0)));
    }

    #[test]
    fn no_tail_with_too_few_samples() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        assert_eq!(tail(&[]), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
    }

    #[test]
    fn cpu_per_gib_arithmetic() {
        assert_eq!(cpu_s_per_gib(2.0, 1 << 30), 2.0);
        assert_eq!(cpu_s_per_gib(1.0, 1 << 29), 2.0);
        // 128 MiB passes: 8 of them are one GiB.
        assert_eq!(cpu_s_per_gib(0.5, 8 * (128 << 20)), 0.5);
        assert_eq!(mib_per_s(3 << 20, 1.5), 2.0);
    }

    #[test]
    fn error_rate_counts_each_operation_once() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(t, Tally { attempted: 4, failed: 1 });
        assert_eq!(t.error_rate(), 0.25);
        t.merge(Tally { attempted: 4, failed: 3 });
        assert_eq!(t.error_rate(), 0.5);
    }
}
