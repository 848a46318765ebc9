//! Order statistics used by every workload: medians, nearest-rank
//! percentiles, and the tail rule ("the highest percentile with at least
//! ten samples beyond it").

/// The tail rule picks among the integer percentiles p50..=p90.  Above
/// that the warm workload's tail is set by stalls of the shared 2-core
/// host, each of which delays every request in flight, and they do not
/// repeat from run to run: over the same runs, p95 spread 30–48% over
/// seeds where p90 spread 26–29% (README.md).
const LADDER: std::ops::RangeInclusive<u32> = 50..=90;

/// Samples that must lie beyond the tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p_hundredths` among `n` samples.
fn rank(p_hundredths: u32, n: usize) -> usize {
    let rank = (p_hundredths as usize * n).div_ceil(10_000);
    rank.clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (`p_hundredths` = 9900 is
/// p99).  Panics on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p_hundredths: u32) -> f64 {
    sorted[rank(p_hundredths, sorted.len()) - 1]
}

/// Median of an ascending slice: the mean of the two middle samples when
/// the count is even.
fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of an unsorted list.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// Median, over the whole `block_s`-second blocks of `[0, window_s)`, of
/// the events per second in each block (`times_s` are event times in
/// seconds from the window start).  A block that the host slowed down for
/// part of the run moves this less than it moves the overall mean.
pub fn median_block_rate(times_s: &[f64], block_s: f64, window_s: f64) -> f64 {
    let blocks = (window_s / block_s).floor() as usize;
    if blocks == 0 {
        return times_s.len() as f64 / window_s;
    }
    let mut counts = vec![0.0; blocks];
    for &t in times_s {
        let b = (t / block_s).floor();
        if b >= 0.0 && (b as usize) < blocks {
            counts[b as usize] += 1.0;
        }
    }
    median(&counts) / block_s
}

/// The tail of a latency sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The chosen percentile, in percent (90.0 for p90).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

/// The highest [`LADDER`] percentile with at least [`TAIL_MIN_BEYOND`] samples
/// ranked beyond it.  With too few samples for even p50 the median is
/// reported, with however many samples lie beyond it.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    assert!(n > 0, "tail of an empty sample");
    let chosen = LADDER
        .rev()
        .map(|p| p * 100)
        .find(|&p| n - rank(p, n) >= TAIL_MIN_BEYOND)
        .unwrap_or(LADDER.start() * 100);
    Tail {
        percentile: f64::from(chosen) / 100.0,
        value: percentile_sorted(sorted, chosen),
        beyond: n - rank(chosen, n),
    }
}

/// Samples a tail block should hold at least.
const BLOCK_SAMPLES: usize = 200;
/// Most blocks a run's tail is taken over.
const MAX_BLOCKS: usize = 4;

/// The tail of a timed sample, robust to one bad stretch of the host: the
/// window is cut into equal-time blocks (as many as hold
/// [`BLOCK_SAMPLES`] samples on average, 1 to [`MAX_BLOCKS`]), [`tail`] is
/// taken in each, and the medians of the blocks' values and percentiles are
/// reported, with the fewest samples any block had beyond its percentile.
/// `times_s[i]` places `values[i]` in the window `[0, window_s)`; later
/// samples count in the last block.
pub fn block_tail(times_s: &[f64], values: &[f64], window_s: f64) -> Tail {
    let blocks = (values.len() / BLOCK_SAMPLES).clamp(1, MAX_BLOCKS);
    let mut per_block: Vec<Vec<f64>> = vec![Vec::new(); blocks];
    for (&t, &v) in times_s.iter().zip(values) {
        let b = (t / window_s * blocks as f64).floor().max(0.0) as usize;
        per_block[b.min(blocks - 1)].push(v);
    }
    let tails: Vec<Tail> = per_block
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|mut b| {
            b.sort_by(f64::total_cmp);
            tail(&b)
        })
        .collect();
    Tail {
        percentile: median(&tails.iter().map(|t| t.percentile).collect::<Vec<_>>()),
        value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        beyond: tails.iter().map(|t| t.beyond).min().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_chosen_percentile() {
        // 50 samples: p80 leaves exactly 10 beyond, p81 (rank 41) only 9.
        let t = tail(&ramp(50));
        assert_eq!((t.percentile, t.value, t.beyond), (80.0, 40.0, 10));
        // 99 samples: p90 is rank 90 (9 beyond), so p89 (rank 89, 10).
        let t = tail(&ramp(99));
        assert_eq!((t.percentile, t.value, t.beyond), (89.0, 89.0, 10));
        // 100 samples: p90 leaves exactly 10 beyond.
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000 samples stop at the top of the ladder, p90.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 900.0, 100));
    }

    #[test]
    fn tail_of_a_tiny_sample_falls_back_to_the_median() {
        let t = tail(&ramp(12));
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 6.0, 6));
    }

    #[test]
    fn tail_value_is_a_sample_not_an_interpolation() {
        let sample = [
            1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0,
            110.0, 120.0, 130.0, 140.0, 150.0,
        ];
        // 21 samples: p52 is rank 11 (10 beyond), p53 is rank 12 (9 beyond).
        let t = tail(&sample);
        assert_eq!((t.percentile, t.value, t.beyond), (52.0, 50.0, 10));
    }

    #[test]
    fn block_tail_is_the_median_of_the_block_tails() {
        // 1000 samples over 10 s: four 2.5 s blocks of 250, block k holding
        // k * 1000 + 1 ..= k * 1000 + 250.  Each block's tail is p90 (rank
        // 225, 25 beyond); the median of 225, 1225, 2225, 3225 is 1725.
        let (mut times, mut values) = (Vec::new(), Vec::new());
        for k in 0..4 {
            for i in 1..=250 {
                times.push(k as f64 * 2.5 + i as f64 * 0.001);
                values.push((k * 1000 + i) as f64);
            }
        }
        let t = block_tail(&times, &values, 10.0);
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 1725.0, 25));
        // Fewer than two blocks' worth of samples: one block, the plain tail.
        let t = block_tail(&times[..300], &values[..300], 10.0);
        assert_eq!(
            t,
            tail(&{
                let mut v = values[..300].to_vec();
                v.sort_by(f64::total_cmp);
                v
            })
        );
    }

    #[test]
    fn block_rate_is_the_median_block() {
        // Blocks of 1 s over 4 s: 10, 10, 2 and 12 events; the tail after
        // the window is ignored.
        let mut times: Vec<f64> = Vec::new();
        for (block, n) in [(0, 10), (1, 10), (2, 2), (3, 12), (4, 50)] {
            times.extend((0..n).map(|i| block as f64 + i as f64 / 100.0));
        }
        assert_eq!(median_block_rate(&times, 1.0, 4.5), 10.0);
        assert_eq!(median_block_rate(&times, 2.0, 4.0), 8.5);
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile_sorted(&ramp(10), 5000), 5.0);
        assert_eq!(percentile_sorted(&ramp(10), 9900), 10.0);
        assert_eq!(percentile_sorted(&ramp(10), 100), 1.0);
    }
}
