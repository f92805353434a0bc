//! Statistics used by the receiver: histograms, quantiles, Rayleigh
//! fits and bimodal-threshold selection.
//!
//! Three of the paper's figures are statistical artefacts of the
//! receiver pipeline: Fig. 6 fits a (Rayleigh-like, positively skewed)
//! distribution to inter-bit distances and takes the median as the
//! symbol period; Fig. 7 finds the two modes of the per-bit power
//! histogram and places the decision threshold halfway between them.

use crate::dsp::{local_maxima, Peak};
use crate::error::StatsError;

/// A fixed-width histogram over `[min, max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<usize>,
    min: f64,
    max: f64,
    total: usize,
    skipped: usize,
}

impl Histogram {
    /// Builds a histogram of `data` with `bins` equal-width bins
    /// spanning the data's own min/max (a degenerate span is widened
    /// slightly so every sample lands in-range). Non-finite values are
    /// skipped and counted in [`Histogram::skipped`] rather than
    /// binned, so one corrupt per-bit power cannot skew the span or
    /// pile spurious mass into bin 0.
    ///
    /// # Errors
    ///
    /// [`StatsError::ZeroBins`] for zero bins, then
    /// [`StatsError::EmptyData`] or [`StatsError::NoFiniteData`] for
    /// data with no finite value.
    pub fn try_from_data(data: &[f64], bins: usize) -> Result<Self, StatsError> {
        if bins == 0 {
            return Err(StatsError::ZeroBins);
        }
        if data.is_empty() {
            return Err(StatsError::EmptyData);
        }
        let (min, max) = span_of(data).ok_or(StatsError::NoFiniteData)?;
        let mut h = Histogram { counts: vec![0; bins], min, max, total: 0, skipped: 0 };
        for &v in data {
            h.add(v);
        }
        Ok(h)
    }

    /// Whether [`Histogram::try_from_data`] over `data` with `bins`
    /// bins would choose this histogram's bin count and range, so that
    /// every value lands in the same bin here as there. A sliding
    /// window whose histogram still fits its data can be kept up to
    /// date with [`Histogram::add`] and [`Histogram::remove`] instead
    /// of being rebuilt.
    pub fn fits(&self, data: &[f64], bins: usize) -> bool {
        bins == self.counts.len() && span_of(data) == Some((self.min, self.max))
    }

    /// Adds a sample (finite values outside `[min, max]` clamp to the
    /// edge bins; NaN and infinite values are skipped and counted in
    /// [`Histogram::skipped`]). Returns the bin it landed in, `None`
    /// for a skipped value.
    pub fn add(&mut self, value: f64) -> Option<usize> {
        let Some(idx) = self.bin_of(value) else {
            self.skipped += 1;
            return None;
        };
        self.counts[idx] += 1;
        self.total += 1;
        Some(idx)
    }

    /// Undoes one [`Histogram::add`] of `value`, returning the bin it
    /// is taken from (`None` for a non-finite value, which un-counts
    /// one skipped sample).
    ///
    /// # Panics
    ///
    /// Panics if that bin (or the skipped count) is already zero, i.e.
    /// `value` was never added.
    pub fn remove(&mut self, value: f64) -> Option<usize> {
        let Some(idx) = self.bin_of(value) else {
            self.skipped = self.skipped.checked_sub(1).expect("removed a value never added");
            return None;
        };
        self.counts[idx] = self.counts[idx].checked_sub(1).expect("removed a value never added");
        self.total -= 1;
        Some(idx)
    }

    /// The bin [`Histogram::add`] puts `value` in, `None` if it is not
    /// finite.
    fn bin_of(&self, value: f64) -> Option<usize> {
        if !value.is_finite() {
            return None;
        }
        let bins = self.counts.len();
        let frac = (value - self.min) / (self.max - self.min);
        Some(((frac * bins as f64) as isize).clamp(0, bins as isize - 1) as usize)
    }

    /// Number of non-finite samples rejected by [`Histogram::add`].
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total samples added.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Centre value of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= bins()`.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        let width = (self.max - self.min) / self.counts.len() as f64;
        self.min + (i as f64 + 0.5) * width
    }

    /// The probability density estimate per bin (counts normalised so
    /// the histogram integrates to 1).
    pub fn density(&self) -> Vec<f64> {
        let width = (self.max - self.min) / self.counts.len() as f64;
        let norm = self.total.max(1) as f64 * width;
        self.counts.iter().map(|&c| c as f64 / norm).collect()
    }

    /// Finds the two most prominent, well-separated modes of the
    /// (smoothed) histogram and returns their bin centres in ascending
    /// order — the Fig. 7 "two peaks" of the per-bit power
    /// distribution. Returns `None` when the histogram is unimodal.
    ///
    /// The modes are the two tallest peaks [`find_peaks`] keeps among
    /// the local maxima of the smoothed counts, at least `bins/8` (and
    /// 2) bins apart. Its greedy suppression keeps the tallest
    /// candidate (the first, on ties) and next the tallest candidate
    /// outside that one's neighbourhood, so those two are found
    /// directly, without suppressing the rest.
    ///
    /// [`find_peaks`]: crate::dsp::find_peaks
    pub fn two_modes(&self) -> Option<(f64, f64)> {
        let bins = self.counts.len();
        // The counts' centred moving average over `(bins/16).max(3)`
        // bins, as `dsp::moving_average` computes it: its f64 prefix
        // sums are exact on integer counts, so each value is the
        // integer window sum over the window length, bit for bit.
        // Zero padding keeps modes on the histogram's edges interior
        // local maxima.
        let half = (bins / 16).max(3) / 2;
        let mut padded = Vec::with_capacity(bins + 2);
        padded.push(0.0);
        padded.extend((0..bins).map(|i| {
            let (lo, hi) = (i.saturating_sub(half), (i + half + 1).min(bins));
            self.counts[lo..hi].iter().sum::<usize>() as f64 / (hi - lo) as f64
        }));
        padded.push(0.0);
        let min_sep = (bins / 8).max(2);
        let peak_floor = padded.iter().copied().fold(0.0f64, f64::max) * 0.05;
        let tallest = |a: Peak, b: Peak| if b.value > a.value { b } else { a };
        let first = local_maxima(&padded, peak_floor).reduce(tallest)?;
        let second = local_maxima(&padded, peak_floor)
            .filter(|p| p.index.abs_diff(first.index) >= min_sep)
            .reduce(tallest)?;
        // Indices are into the padded counts: one past the bin.
        let (lo, hi) = (first.index.min(second.index), first.index.max(second.index));
        Some((self.bin_center(lo - 1), self.bin_center(hi - 1)))
    }
}

/// The `[min, max]` a histogram of `data` spans: its finite extremes,
/// with a degenerate span widened to `[min, min + 1]` so every sample
/// lands in range. `None` when no value is finite.
fn span_of(data: &[f64]) -> Option<(f64, f64)> {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in data {
        if v.is_finite() {
            min = min.min(v);
            max = max.max(v);
        }
    }
    if !min.is_finite() || !max.is_finite() {
        return None;
    }
    if max - min < 1e-300 {
        max = min + 1.0;
    }
    Some((min, max))
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `data` by linear
/// interpolation between order statistics. NaN entries are skipped;
/// the rest, ±∞ included, are ranked by [`f64::total_cmp`] (so −0
/// ranks below +0).
///
/// # Panics
///
/// Panics if `data` holds no value other than NaN or `q` is outside
/// `[0, 1]`; use [`try_quantile`] for the fallible variant.
pub fn quantile(data: &[f64], q: f64) -> f64 {
    match try_quantile(data, q) {
        Ok(v) => v,
        Err(StatsError::InvalidQuantile) => panic!("quantile must be in [0, 1]"),
        Err(_) => panic!("quantile of no data"),
    }
}

/// Fallible [`quantile`]: reports out-of-range `q`, empty data and
/// data holding only NaN ([`StatsError::NoFiniteData`]) as typed
/// errors instead of panicking.
pub fn try_quantile(data: &[f64], q: f64) -> Result<f64, StatsError> {
    try_quantile_in_place(&mut data.to_vec(), q)
}

/// [`try_quantile`] without a copy: reorders `data` (NaN entries move
/// to the end) while selecting its order statistics. Bit-identical to
/// the copying path.
pub fn try_quantile_in_place(data: &mut [f64], q: f64) -> Result<f64, StatsError> {
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidQuantile);
    }
    if data.is_empty() {
        return Err(StatsError::EmptyData);
    }
    let mut n = 0;
    for i in 0..data.len() {
        if !data[i].is_nan() {
            data.swap(n, i);
            n += 1;
        }
    }
    if n == 0 {
        return Err(StatsError::NoFiniteData);
    }
    // `total_cmp` is a total order on the NaN-free prefix, so the
    // selection puts the `lo`-th smallest value at `lo` and only
    // larger-or-equal ones after it; the next order statistic is the
    // least of those.
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (_, &mut at_lo, above) = data[..n].select_nth_unstable_by(lo, f64::total_cmp);
    Ok(if lo == hi {
        at_lo
    } else {
        let at_hi = above.iter().copied().min_by(f64::total_cmp).expect("hi < n");
        let frac = pos - lo as f64;
        at_lo * (1.0 - frac) + at_hi * frac
    })
}

/// Median: the 0.5-quantile. The paper picks the signalling time as
/// "the point whose cumulative probability distribution equals 0.5"
/// (§IV-B2).
///
/// # Panics
///
/// Panics if `data` holds no value other than NaN; use
/// [`try_quantile`] at 0.5 for the fallible variant.
pub fn median(data: &[f64]) -> f64 {
    quantile(data, 0.5)
}

/// Sample mean. Non-finite values are excluded from the average, and
/// data with no finite value at all is a typed error rather than a
/// silent `NaN`.
///
/// # Errors
///
/// [`StatsError::EmptyData`] or [`StatsError::NoFiniteData`].
pub fn try_mean(data: &[f64]) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyData);
    }
    let (sum, n) =
        data.iter().filter(|v| v.is_finite()).fold((0.0f64, 0usize), |(s, n), &v| (s + v, n + 1));
    if n == 0 {
        return Err(StatsError::NoFiniteData);
    }
    Ok(sum / n as f64)
}

/// Fisher–Pearson sample skewness; positive for right-skewed data such
/// as the paper's pulse-width distribution (Fig. 6). Zero for fewer
/// than three values or no finite one.
pub fn skewness(data: &[f64]) -> f64 {
    if data.len() < 3 {
        return 0.0;
    }
    let Ok(m) = try_mean(data) else { return 0.0 };
    let n = data.len() as f64;
    let m2 = data.iter().map(|&v| (v - m).powi(2)).sum::<f64>() / n;
    let m3 = data.iter().map(|&v| (v - m).powi(3)).sum::<f64>() / n;
    if m2 <= 0.0 {
        0.0
    } else {
        m3 / m2.powf(1.5)
    }
}

/// A fitted Rayleigh distribution (the paper's Fig. 6 model for the
/// pulse-width variation of the covert channel), with an optional
/// location shift since real bit periods have a hard minimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayleighFit {
    /// Location (minimum) parameter.
    pub location: f64,
    /// Scale parameter σ.
    pub sigma: f64,
}

impl RayleighFit {
    /// Maximum-likelihood fit of a shifted Rayleigh: location is the
    /// sample minimum (shrunk marginally so the smallest point has
    /// nonzero density), and `σ² = mean((x−loc)²)/2`. Non-finite values
    /// are excluded from the fit.
    ///
    /// # Errors
    ///
    /// [`StatsError::EmptyData`] or [`StatsError::NoFiniteData`].
    pub fn try_fit(data: &[f64]) -> Result<Self, StatsError> {
        if data.is_empty() {
            return Err(StatsError::EmptyData);
        }
        let finite: Vec<f64> = data.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return Err(StatsError::NoFiniteData);
        }
        let min = finite.iter().cloned().fold(f64::INFINITY, f64::min);
        let location = min - 1e-9 * min.abs().max(1.0);
        let ms: f64 =
            finite.iter().map(|&x| (x - location).powi(2)).sum::<f64>() / finite.len() as f64;
        Ok(RayleighFit { location, sigma: (ms / 2.0).sqrt() })
    }

    /// Median of the fitted distribution: `loc + σ·√(2 ln 2)`.
    pub fn median(&self) -> f64 {
        self.location + self.sigma * (2.0 * std::f64::consts::LN_2).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_land_in_right_bins() {
        let data = [0.0, 0.1, 0.9, 1.0, 0.5];
        let h = Histogram::try_from_data(&data, 2).unwrap();
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts()[0], 2); // 0.0, 0.1
        assert_eq!(h.counts()[1], 3); // 0.5, 0.9, 1.0 (0.5 is exactly the boundary → upper bin)
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.017).sin()).collect();
        let h = Histogram::try_from_data(&data, 32).unwrap();
        let width = 2.0 / 32.0; // sin spans [-1, 1] approx
        let integral: f64 = h.density().iter().map(|d| d * width).sum();
        assert!((integral - 1.0).abs() < 0.05, "integral {integral}");
    }

    #[test]
    fn histogram_degenerate_data() {
        let h = Histogram::try_from_data(&[2.0, 2.0, 2.0], 4).unwrap();
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts().iter().sum::<usize>(), 3);
    }

    #[test]
    fn two_modes_finds_bimodal_peaks() {
        // Cluster around 1.0 and around 5.0.
        let mut data = Vec::new();
        for i in 0..500 {
            data.push(1.0 + 0.2 * ((i * 7 % 13) as f64 / 13.0 - 0.5));
            data.push(5.0 + 0.3 * ((i * 11 % 17) as f64 / 17.0 - 0.5));
        }
        let h = Histogram::try_from_data(&data, 64).unwrap();
        let (lo, hi) = h.two_modes().expect("bimodal data must yield two modes");
        assert!((lo - 1.0).abs() < 0.4, "low mode {lo}");
        assert!((hi - 5.0).abs() < 0.4, "high mode {hi}");
    }

    #[test]
    fn two_modes_rejects_unimodal() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 100) as f64 * 0.001 + 3.0).collect();
        let h = Histogram::try_from_data(&data, 32).unwrap();
        // A flat/unimodal blob has no well-separated second peak.
        if let Some((lo, hi)) = h.two_modes() {
            // If the smoother finds two bumps in a flat blob they must be close together.
            assert!(hi - lo < 0.2, "spurious modes {lo} {hi}");
        }
    }

    #[test]
    fn quantiles_of_known_data() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(median(&data), 3.0);
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 1.0), 5.0);
        assert_eq!(quantile(&data, 0.25), 2.0);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn mean_variance_known() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(try_mean(&data), Ok(5.0));
    }

    #[test]
    fn skewness_signs() {
        let right = [1.0, 1.0, 1.0, 1.1, 1.2, 5.0];
        let left = [5.0, 5.0, 5.0, 4.9, 4.8, 1.0];
        assert!(skewness(&right) > 0.5);
        assert!(skewness(&left) < -0.5);
        assert!(skewness(&[1.0, 2.0, 3.0]).abs() < 1e-9);
    }

    #[test]
    fn rayleigh_fit_recovers_sigma() {
        // Deterministic Rayleigh samples via inverse CDF on a stratified grid.
        let sigma = 2.5;
        let data: Vec<f64> = (1..1000)
            .map(|i| {
                let u = i as f64 / 1000.0;
                sigma * (-2.0 * (1.0 - u).ln()).sqrt()
            })
            .collect();
        let fit = RayleighFit::try_fit(&data).unwrap();
        assert!((fit.sigma - sigma).abs() / sigma < 0.05, "sigma {}", fit.sigma);
        // The location estimate is the sample minimum, which for this
        // stratified grid is σ·√(−2 ln 0.999) ≈ 0.112.
        assert!(fit.location.abs() < 0.15, "location {}", fit.location);
        // Median of fit close to analytic median.
        let analytic = sigma * (2.0f64 * std::f64::consts::LN_2).sqrt();
        assert!((fit.median() - analytic).abs() / analytic < 0.05);
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn median_of_empty_panics() {
        median(&[]);
    }

    #[test]
    fn histogram_skips_nan_instead_of_binning_it() {
        // One NaN among clean data must not land in bin 0 and must not
        // widen the span.
        let data = [1.0, 2.0, 3.0, f64::NAN, 4.0, f64::INFINITY];
        let h = Histogram::try_from_data(&data, 4).unwrap();
        assert_eq!(h.total(), 4);
        assert_eq!(h.skipped(), 2);
        assert_eq!(h.counts().iter().sum::<usize>(), 4);
        // Span comes from the finite values only.
        assert_eq!(h.bin_center(0), 1.0 + 0.5 * 3.0 / 4.0);
    }

    #[test]
    fn sliding_add_and_remove_match_a_rebuild() {
        let data = [2.0, 1.0, 4.0, f64::NAN, 2.5, 3.0, 1.5];
        let mut h = Histogram::try_from_data(&data[..6], 4).unwrap();
        // Slide the six-wide window one step: both windows span [1, 4].
        assert!(h.fits(&data[1..], 4));
        assert_eq!(h.remove(data[0]), Some(1));
        assert_eq!(h.add(data[6]), Some(0));
        assert_eq!(h, Histogram::try_from_data(&data[1..], 4).unwrap());
        // A skipped value is un-counted from `skipped`.
        assert_eq!(h.remove(f64::NAN), None);
        assert_eq!(h.skipped(), 0);
        assert_eq!(h.add(f64::NAN), None);
        assert_eq!(h, Histogram::try_from_data(&data[1..], 4).unwrap());
        // Another span, bin count or no finite value does not fit.
        assert!(!h.fits(&[0.0, 4.0], 4));
        assert!(!h.fits(&data[1..], 5));
        assert!(!h.fits(&[f64::NAN], 4));
    }

    #[test]
    fn histogram_all_nan_is_a_typed_error() {
        assert_eq!(
            Histogram::try_from_data(&[f64::NAN, f64::NAN], 4),
            Err(crate::error::StatsError::NoFiniteData)
        );
        assert_eq!(Histogram::try_from_data(&[], 4), Err(crate::error::StatsError::EmptyData));
        assert_eq!(Histogram::try_from_data(&[1.0], 0), Err(crate::error::StatsError::ZeroBins));
    }

    #[test]
    fn try_variants_report_errors_instead_of_panicking() {
        use crate::error::StatsError;
        assert_eq!(try_quantile(&[], 0.5), Err(StatsError::EmptyData));
        assert_eq!(try_mean(&[]), Err(StatsError::EmptyData));
        assert_eq!(try_quantile(&[1.0], 1.5), Err(StatsError::InvalidQuantile));
        assert_eq!(RayleighFit::try_fit(&[]), Err(StatsError::EmptyData));
        assert_eq!(RayleighFit::try_fit(&[f64::NAN]), Err(StatsError::NoFiniteData));
        assert_eq!(try_quantile(&[3.0, 1.0, 2.0], 0.5), Ok(2.0));
    }

    #[test]
    fn rayleigh_fit_ignores_non_finite_samples() {
        let clean = [1.0, 1.2, 1.5, 2.0, 2.5];
        let dirty = [1.0, f64::NAN, 1.2, 1.5, f64::NEG_INFINITY, 2.0, 2.5];
        assert_eq!(RayleighFit::try_fit(&clean), RayleighFit::try_fit(&dirty));
    }
}
