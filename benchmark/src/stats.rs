//! Order statistics over timing samples.

/// The percentiles a tail is reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Samples a percentile must leave beyond it before it is worth reporting.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100);
/// 0.0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `xs` (NaN-free input assumed: these are durations).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("durations are not NaN"));
    v
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(xs), p)
}

/// Median (nearest-rank p50) of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Fewest samples a block of [`blocked_percentile`] may hold.
pub const MIN_BLOCK: usize = 40;
/// Most blocks [`blocked_percentile`] splits a run into (odd, so the median
/// block is one of them).
pub const MAX_BLOCKS: usize = 9;

/// A percentile that a burst of host interference cannot move: the samples
/// are split, in the order taken, into up to [`MAX_BLOCKS`] blocks of at
/// least [`MIN_BLOCK`]; each block gives its own percentile and the median
/// block is reported. A noisy neighbour that slows one second of a
/// twelve-second run lifts the plain p95 of the whole run but only one block
/// here. Fewer than two blocks' worth of samples fall back to the plain
/// percentile.
pub fn blocked_percentile(xs: &[f64], p: f64) -> f64 {
    let blocks = (xs.len() / MIN_BLOCK).clamp(1, MAX_BLOCKS);
    let per_block: Vec<f64> = xs
        .chunks(xs.len().div_ceil(blocks).max(1))
        .map(|block| percentile(block, p))
        .collect();
    median(&per_block)
}

/// How many of `n` samples lie strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the median
/// has fewer (the tail of so few samples is its maximum, not a percentile).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_small_sets() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(median(&xs), 2.0);
        assert_eq!(percentile(&xs, 95.0), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), 95.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
    }

    #[test]
    fn blocked_percentile_ignores_a_burst_in_one_block() {
        // Nine blocks of 100 samples at 1..=100; one block is ten times slower.
        let mut xs: Vec<f64> = (0..900).map(|i| f64::from(i % 100 + 1)).collect();
        assert_eq!(blocked_percentile(&xs, 95.0), 95.0);
        assert_eq!(blocked_percentile(&xs, 50.0), 50.0);
        for x in &mut xs[300..400] {
            *x *= 10.0;
        }
        assert_eq!(blocked_percentile(&xs, 95.0), 95.0);
        assert!(percentile(&xs, 95.0) > 500.0);
        // Too few samples for two blocks: the plain percentile.
        let few = [3.0, 1.0, 2.0];
        assert_eq!(blocked_percentile(&few, 95.0), 3.0);
        assert_eq!(blocked_percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn samples_beyond_counts_the_strict_tail() {
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(400, 95.0), 20);
        assert_eq!(samples_beyond(3, 95.0), 0);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(400), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }
}
