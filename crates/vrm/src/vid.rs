//! Voltage-identification (VID) interface between processor and VRM.
//!
//! The processor tells its regulator which rail voltage to produce via
//! a set of VID signals (§II, Intel VRD 11.1). VIDs are discrete: the
//! regulator quantises the request to its step size. Voltage *changes*
//! matter for the side channel because re-charging (or draining) the
//! output capacitance to a new setpoint is itself a burst of switching
//! activity.

/// A VID table: the discrete voltage grid a VRM can produce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VidTable {
    /// Smallest producible voltage, volts.
    pub min_v: f64,
    /// Largest producible voltage, volts.
    pub max_v: f64,
    /// Step between adjacent VID codes, volts (6.25 mV for VRD 11.x).
    pub step_v: f64,
}

impl VidTable {
    /// The Intel VRD 11.1 grid used by desktop/mobile VRMs.
    pub fn vrd11() -> Self {
        VidTable { min_v: 0.3, max_v: 1.6, step_v: 0.00625 }
    }

    /// Quantises a requested voltage to the nearest producible VID
    /// level, clamping to the table's range.
    ///
    /// # Examples
    ///
    /// ```
    /// use emsc_vrm::vid::VidTable;
    /// let t = VidTable::vrd11();
    /// let v = t.quantize(1.1234);
    /// assert!((v - 1.125).abs() < 1e-9);
    /// assert_eq!(t.quantize(9.0), 1.6);
    /// ```
    pub fn quantize(&self, requested_v: f64) -> f64 {
        let clamped = requested_v.clamp(self.min_v, self.max_v);
        let steps = ((clamped - self.min_v) / self.step_v).round();
        self.min_v + steps * self.step_v
    }
}

impl Default for VidTable {
    fn default() -> Self {
        VidTable::vrd11()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_snaps_to_grid() {
        let t = VidTable::vrd11();
        for req in [0.3, 0.7, 1.1, 1.6] {
            let v = t.quantize(req);
            let steps = (v - t.min_v) / t.step_v;
            assert!((steps - steps.round()).abs() < 1e-9, "{req} → {v} off-grid");
        }
    }

    #[test]
    fn quantize_clamps_out_of_range() {
        let t = VidTable::vrd11();
        assert_eq!(t.quantize(0.0), 0.3);
        assert_eq!(t.quantize(2.0), 1.6);
    }

    #[test]
    fn quantize_is_idempotent() {
        let t = VidTable::vrd11();
        for req in [0.31, 0.846, 1.0999, 1.55] {
            let once = t.quantize(req);
            assert_eq!(t.quantize(once), once);
        }
    }
}
