//! Order statistics for the benchmark's samples.

/// Samples a percentile needs beyond it before it is reported: with fewer,
/// the value is set by a handful of outliers and does not repeat.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by linear interpolation
/// between closest ranks. Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a sample set ascending (total order; the benchmark never records a
/// NaN, and `total_cmp` keeps the sort defined if it ever did).
pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

/// Median of `xs`. Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs.to_vec()), 0.5)
}

/// The `q`-quantile of `sorted`, or `None` when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn supported_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    // Samples at or below the percentile, rounded up; the epsilon keeps
    // 0.9 × 100 from landing on 90.00000000000001.
    let within = (q * sorted.len() as f64 - 1e-9).ceil().max(0.0) as usize;
    let beyond = sorted.len().saturating_sub(within);
    (beyond >= MIN_TAIL_SAMPLES).then(|| quantile_sorted(sorted, q))
}

/// Parts a measured phase is cut into. A phase's figure is the median of
/// its parts' figures, so a stall of the host (tens of milliseconds on a
/// shared VM, now and then a second) spoils one part, not the result.
pub const PARTS: usize = 5;

/// Samples a part needs for its p90 to have [`MIN_TAIL_SAMPLES`] beyond it.
const MIN_PART: usize = 10 * MIN_TAIL_SAMPLES;

/// The `q`-quantile of each of up to `max_parts` consecutive equal-count
/// parts of `xs` (in arrival order) — fewer when a part would fall under
/// [`MIN_PART`] samples, never less than one.
fn part_quantiles(xs: &[f64], q: f64, max_parts: usize) -> Vec<f64> {
    assert!(!xs.is_empty(), "quantile of no samples");
    let parts = (xs.len() / MIN_PART).clamp(1, max_parts);
    let size = xs.len() / parts;
    xs.chunks_exact(size)
        .take(parts)
        .map(|part| quantile_sorted(&sorted(part.to_vec()), q))
        .collect()
}

/// The median of the `q`-quantiles of the [`PARTS`] parts of `xs`.
pub fn windowed_quantile(xs: &[f64], q: f64) -> f64 {
    median(&part_quantiles(xs, q, PARTS))
}

/// Most parts [`quiet_quantile`] cuts a phase into.
pub const QUIET_PARTS: usize = 20;

/// The **smallest** of the `q`-quantiles of up to [`QUIET_PARTS`] parts of
/// `xs`: the figure of the quietest stretch of the phase.
///
/// For single-threaded calls with no server, queue or background thread
/// behind them, where nothing the program does recurs on a schedule. There,
/// whatever slows one stretch of a phase and not the next is the host (a
/// neighbour on the sibling hyperthread adds 5–40 % to the p90 of a 0.6 ms
/// call for a second or two at a time), it only ever adds time, and the
/// median over parts still moved 8–15 % between runs of the same code where
/// the quietest part moved 2–3 %. Not for served phases: there a stall that
/// recurs (a WAL snapshot, a cache rebuild) is the program's, and picking the
/// quietest part would hide it.
pub fn quiet_quantile(xs: &[f64], q: f64) -> f64 {
    part_quantiles(xs, q, QUIET_PARTS)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

/// Completions per second from ascending completion times, as the median
/// over [`PARTS`] consecutive parts. A batching server completes requests in
/// bursts of `quantum`; part boundaries sit on multiples of it so that no
/// part is credited with a burst it did not wait for.
pub fn windowed_rate(times: &[f64], quantum: usize) -> f64 {
    assert!(times.len() >= 2, "rate of fewer than two completions");
    let quantum = quantum.max(1);
    let size = (times.len() - 1) / PARTS / quantum * quantum;
    if size == 0 {
        let span = times[times.len() - 1] - times[0];
        return (times.len() - 1) as f64 / span.max(1e-9);
    }
    // Part j covers completions (j·size, (j+1)·size], timed from the
    // completion just before it; the remainder leads, absorbing warm-up.
    let lead = times.len() - 1 - PARTS * size;
    let rates: Vec<f64> = (0..PARTS)
        .map(|j| {
            let (a, b) = (lead + j * size, lead + (j + 1) * size);
            size as f64 / (times[b] - times[a]).max(1e-9)
        })
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(supported_quantile(&s, 0.90).is_none(), "9 beyond p90");
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(supported_quantile(&s, 0.90).is_some(), "10 beyond p90");
        assert!(supported_quantile(&s, 0.99).is_none(), "1 beyond p99");
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(supported_quantile(&s, 0.99).is_some());
        assert!(supported_quantile(&s, 0.5).is_some());
    }

    #[test]
    fn a_stall_in_one_part_does_not_move_the_windowed_figures() {
        // 1000 latencies of 5 ms; one stall adds 300 ms to 150 in a row.
        let mut xs = vec![5.0; 1000];
        for x in &mut xs[400..550] {
            *x += 300.0;
        }
        assert_eq!(windowed_quantile(&xs, 0.90), 5.0);
        assert!(quantile_sorted(&sorted(xs.clone()), 0.90) > 300.0);
        // Too few samples for five supported parts: fewer parts, not none.
        assert_eq!(windowed_quantile(&xs[..250], 0.5), 5.0);
        assert_eq!(windowed_quantile(&xs[..7], 0.5), 5.0);

        // The quietest part ignores interference in most of the phase...
        let mut noisy = vec![5.0; 4000];
        for (i, x) in noisy.iter_mut().enumerate() {
            if i < 3000 && i % 5 == 0 {
                *x += 3.0;
            }
        }
        assert_eq!(windowed_quantile(&noisy, 0.90), 8.0);
        assert_eq!(quiet_quantile(&noisy, 0.90), 5.0);
        // ...but not a cost every call pays, and needs no minimum length.
        assert_eq!(quiet_quantile(&vec![6.0; 4000], 0.90), 6.0);
        assert_eq!(quiet_quantile(&xs[..7], 0.5), 5.0);

        // Bursts of 32 completions every 100 ms, one burst 1 s late.
        let mut times = Vec::new();
        let mut t = 0.0;
        for burst in 0..60 {
            t += if burst == 30 { 1.1 } else { 0.1 };
            times.extend(std::iter::repeat_n(t, 32));
        }
        let rate = windowed_rate(&times, 32);
        assert!((rate - 320.0).abs() < 1e-6, "rate {rate}");
        let plain = (times.len() - 1) as f64 / (times[times.len() - 1] - times[0]);
        assert!(plain < 280.0);
        // Too few completions to cut: the plain rate.
        assert!((windowed_rate(&[0.0, 0.5, 1.0], 32) - 2.0).abs() < 1e-9);
    }
}
