//! Spectrum analysis utilities: peak/notch finding, free spectral range,
//! 3 dB bandwidth, insertion loss and extinction ratio.
//!
//! These operate on the dB transmission series produced by
//! [`FrequencyResponse::transmission_db`] and power the WDM / filter
//! examples and ablation benches.
//!
//! [`FrequencyResponse::transmission_db`]: crate::FrequencyResponse::transmission_db

/// A local extremum in a transmission spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralPeak {
    /// Index into the wavelength grid.
    pub index: usize,
    /// Wavelength at the extremum (µm).
    pub wavelength_um: f64,
    /// Transmission at the extremum (dB).
    pub value_db: f64,
}

/// Finds local maxima with at least `min_prominence_db` of prominence
/// over the higher of the two flanking valleys.
///
/// # Panics
///
/// Panics if `wavelengths` and `values_db` have different lengths.
///
/// # Examples
///
/// ```
/// use picbench_sim::analysis::find_peaks;
/// let wl = vec![1.0, 2.0, 3.0, 4.0, 5.0];
/// let db = vec![-30.0, -3.0, -30.0, -2.0, -30.0];
/// let peaks = find_peaks(&wl, &db, 10.0);
/// assert_eq!(peaks.len(), 2);
/// assert_eq!(peaks[0].wavelength_um, 2.0);
/// ```
pub fn find_peaks(
    wavelengths: &[f64],
    values_db: &[f64],
    min_prominence_db: f64,
) -> Vec<SpectralPeak> {
    assert_eq!(
        wavelengths.len(),
        values_db.len(),
        "wavelength and value series must align"
    );
    let n = values_db.len();
    let mut peaks = Vec::new();
    if n < 3 {
        return peaks;
    }
    for i in 1..n - 1 {
        if values_db[i] < values_db[i - 1] || values_db[i] < values_db[i + 1] {
            continue;
        }
        // Plateau handling: only take the first sample of a flat top.
        if values_db[i] == values_db[i - 1] {
            continue;
        }
        // Prominence: drop to the highest flanking valley.
        let mut left_min = values_db[i];
        for j in (0..i).rev() {
            left_min = left_min.min(values_db[j]);
            if values_db[j] > values_db[i] {
                break;
            }
        }
        let mut right_min = values_db[i];
        for j in i + 1..n {
            right_min = right_min.min(values_db[j]);
            if values_db[j] > values_db[i] {
                break;
            }
        }
        let prominence = values_db[i] - left_min.max(right_min);
        if prominence >= min_prominence_db {
            peaks.push(SpectralPeak {
                index: i,
                wavelength_um: wavelengths[i],
                value_db: values_db[i],
            });
        }
    }
    peaks
}

/// Finds local minima (notches) with the given prominence.
pub fn find_notches(
    wavelengths: &[f64],
    values_db: &[f64],
    min_prominence_db: f64,
) -> Vec<SpectralPeak> {
    let inverted: Vec<f64> = values_db.iter().map(|v| -v).collect();
    find_peaks(wavelengths, &inverted, min_prominence_db)
        .into_iter()
        .map(|p| SpectralPeak {
            value_db: -p.value_db,
            ..p
        })
        .collect()
}

/// Mean spacing between consecutive extrema — the free spectral range in
/// µm. Returns `None` with fewer than two extrema.
pub fn free_spectral_range_um(peaks: &[SpectralPeak]) -> Option<f64> {
    if peaks.len() < 2 {
        return None;
    }
    let total: f64 = peaks
        .windows(2)
        .map(|w| w[1].wavelength_um - w[0].wavelength_um)
        .sum();
    Some(total / (peaks.len() - 1) as f64)
}

/// The theoretical interferometric FSR `λ²/(n_g·ΔL)` in µm.
///
/// ```
/// use picbench_sim::analysis::theoretical_fsr_um;
/// let fsr = theoretical_fsr_um(1.55, 4.2, 30.0);
/// assert!((fsr - 0.01906).abs() < 1e-4);
/// ```
pub fn theoretical_fsr_um(wavelength_um: f64, group_index: f64, delta_length_um: f64) -> f64 {
    wavelength_um * wavelength_um / (group_index * delta_length_um)
}

/// Full width of the region around `peak` that stays within 3 dB of its
/// value, in µm (linear interpolation at the crossings). Returns `None`
/// when a 3 dB crossing is missing on either side.
pub fn bandwidth_3db(wavelengths: &[f64], values_db: &[f64], peak: &SpectralPeak) -> Option<f64> {
    let threshold = peak.value_db - 3.0;
    let crossing = |i0: usize, i1: usize| -> f64 {
        // Linear interpolation between samples i0 (above) and i1 (below).
        let (w0, v0) = (wavelengths[i0], values_db[i0]);
        let (w1, v1) = (wavelengths[i1], values_db[i1]);
        w0 + (threshold - v0) * (w1 - w0) / (v1 - v0)
    };
    let mut left = None;
    for i in (0..peak.index).rev() {
        if values_db[i] < threshold {
            left = Some(crossing(i + 1, i));
            break;
        }
    }
    let mut right = None;
    for (i, &value) in values_db.iter().enumerate().skip(peak.index + 1) {
        if value < threshold {
            right = Some(crossing(i - 1, i));
            break;
        }
    }
    match (left, right) {
        (Some(l), Some(r)) => Some(r - l),
        _ => None,
    }
}

/// Insertion loss: the best transmission in the band, negated (dB).
pub fn insertion_loss_db(values_db: &[f64]) -> f64 {
    -values_db.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
}

/// Extinction ratio: best minus worst transmission (dB).
pub fn extinction_ratio_db(values_db: &[f64]) -> f64 {
    let max = values_db.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = values_db.iter().cloned().fold(f64::INFINITY, f64::min);
    max - min
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_netlist, ModelRegistry, WavelengthGrid};
    use picbench_netlist::NetlistBuilder;

    fn mzi_spectrum(delta: f64) -> (Vec<f64>, Vec<f64>) {
        let netlist = NetlistBuilder::new()
            .instance_with("m", "mzi", &[("delta_length", delta), ("loss", 0.0)])
            .port("I1", "m,I1")
            .port("O1", "m,O1")
            .model("mzi", "mzi")
            .build();
        let registry = ModelRegistry::with_builtins();
        let response = simulate_netlist(
            &netlist,
            &registry,
            None,
            &WavelengthGrid::new(1.51, 1.59, 801),
        )
        .unwrap();
        (
            response.wavelengths().to_vec(),
            response.transmission_db("I1", "O1").unwrap(),
        )
    }

    #[test]
    fn mzi_fsr_matches_theory() {
        let delta = 30.0;
        let (wl, db) = mzi_spectrum(delta);
        let peaks = find_peaks(&wl, &db, 10.0);
        assert!(
            peaks.len() >= 3,
            "expected several fringes, got {}",
            peaks.len()
        );
        let measured = free_spectral_range_um(&peaks).unwrap();
        let expected = theoretical_fsr_um(1.55, 4.2, delta);
        let rel_err = (measured - expected).abs() / expected;
        assert!(
            rel_err < 0.05,
            "FSR {measured:.5} vs theory {expected:.5} ({:.1}% off)",
            rel_err * 100.0
        );
    }

    #[test]
    fn notches_interleave_peaks() {
        let (wl, db) = mzi_spectrum(30.0);
        let peaks = find_peaks(&wl, &db, 10.0);
        let notches = find_notches(&wl, &db, 10.0);
        assert!(!notches.is_empty());
        // Between two consecutive peaks there is exactly one notch.
        for pair in peaks.windows(2) {
            let inside = notches
                .iter()
                .filter(|n| {
                    n.wavelength_um > pair[0].wavelength_um
                        && n.wavelength_um < pair[1].wavelength_um
                })
                .count();
            assert_eq!(inside, 1);
        }
    }

    #[test]
    fn bandwidth_is_positive_and_below_fsr() {
        let (wl, db) = mzi_spectrum(30.0);
        let peaks = find_peaks(&wl, &db, 10.0);
        let fsr = free_spectral_range_um(&peaks).unwrap();
        // Interior peak with both crossings present.
        let peak = &peaks[peaks.len() / 2];
        let bw = bandwidth_3db(&wl, &db, peak).expect("crossings exist");
        assert!(bw > 0.0);
        assert!(bw < fsr, "3 dB bandwidth {bw} must be below the FSR {fsr}");
        // For a sinusoidal fringe the 3 dB width is half the period.
        assert!((bw - fsr / 2.0).abs() / (fsr / 2.0) < 0.1);
    }

    #[test]
    fn loss_and_extinction_of_lossless_mzi() {
        let (_, db) = mzi_spectrum(30.0);
        assert!(
            insertion_loss_db(&db) < 0.01,
            "lossless fringe peaks at 0 dB"
        );
        assert!(
            extinction_ratio_db(&db) > 30.0,
            "deep interferometric nulls"
        );
    }

    #[test]
    fn degenerate_series() {
        assert!(find_peaks(&[1.0, 2.0], &[0.0, 0.0], 1.0).is_empty());
        assert_eq!(free_spectral_range_um(&[]), None);
        let flat = vec![-1.0; 10];
        assert_eq!(extinction_ratio_db(&flat), 0.0);
        assert_eq!(insertion_loss_db(&flat), 1.0);
    }
}
