//! Analysis window functions for short-time spectral processing.

/// Window function applied to each STFT frame before the FFT.
///
/// # Examples
///
/// ```
/// use emsc_sdr::window::Window;
/// let w = Window::Hann.coefficients(8);
/// assert_eq!(w.len(), 8);
/// assert!(w[0] < 1e-12);           // Hann tapers to zero at the edges
/// assert!((w[4] - 1.0).abs() < 0.1); // and peaks near the middle
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Window {
    /// No tapering; best amplitude accuracy for bin-centred tones.
    #[default]
    Rectangular,
    /// Raised cosine; good sidelobe suppression for spectrograms.
    Hann,
    /// Hamming window; slightly narrower mainlobe than Hann.
    Hamming,
    /// Blackman window; strongest sidelobe suppression of the set.
    Blackman,
}

impl Window {
    /// Generates the `n` window coefficients.
    ///
    /// Uses the periodic (DFT-even) definition, which is the correct
    /// choice for spectral analysis with overlapping frames.
    pub fn coefficients(self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        let nf = n as f64;
        (0..n)
            .map(|i| {
                let x = 2.0 * std::f64::consts::PI * i as f64 / nf;
                match self {
                    Window::Rectangular => 1.0,
                    Window::Hann => 0.5 - 0.5 * x.cos(),
                    Window::Hamming => 0.54 - 0.46 * x.cos(),
                    Window::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        assert!(Window::Rectangular.coefficients(16).iter().all(|&w| w == 1.0));
    }

    #[test]
    fn hann_edges_are_zero_and_symmetric() {
        let w = Window::Hann.coefficients(64);
        assert!(w[0].abs() < 1e-12);
        // periodic window: w[i] == w[n-i] for i >= 1
        for i in 1..64 {
            assert!((w[i] - w[64 - i]).abs() < 1e-12, "asymmetry at {i}");
        }
    }

    #[test]
    fn all_windows_bounded_by_unit() {
        for win in [Window::Rectangular, Window::Hann, Window::Hamming, Window::Blackman] {
            for &c in &win.coefficients(100) {
                assert!((-1e-12..=1.0 + 1e-12).contains(&c), "{win:?} produced {c}");
            }
        }
    }

    #[test]
    fn zero_length_is_empty() {
        assert!(Window::Hann.coefficients(0).is_empty());
    }
}
