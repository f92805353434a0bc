//! Power traces: the time series of power-state residency and load
//! current that the simulator produces and the VRM consumes.

/// Why the processor was in the state a segment describes. Useful for
/// ground truth when evaluating detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivityKind {
    /// Executing the program under test (the covert transmitter, a
    /// keystroke handler, …).
    Work,
    /// Resident in an idle C-state.
    Idle,
    /// Waking up from an idle state (exit latency).
    Wake,
    /// Servicing an interrupt or other OS housekeeping.
    Interrupt,
    /// A background process unrelated to the program under test.
    Background,
}

/// A maximal interval of constant power state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start time, seconds from trace origin.
    pub start_s: f64,
    /// Length, seconds.
    pub duration_s: f64,
    /// C-state index resident during the segment (0 = executing).
    pub cstate: u8,
    /// P-state index if executing.
    pub pstate: u8,
    /// Core current drawn from the VRM, amperes.
    pub current_a: f64,
    /// Rail voltage the VRM is asked to supply (VID), volts.
    pub voltage_v: f64,
    /// Ground-truth label.
    pub kind: ActivityKind,
}

impl Segment {
    /// End time of the segment, seconds.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.duration_s
    }
}

/// A complete power trace: contiguous, non-overlapping [`Segment`]s
/// ordered by start time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerTrace {
    segments: Vec<Segment>,
}

impl PowerTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        PowerTrace::default()
    }

    /// Appends a segment of `duration_s` seconds at the end of the
    /// trace. Zero- or negative-length segments are ignored. Adjacent
    /// segments with identical state are merged.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        duration_s: f64,
        cstate: u8,
        pstate: u8,
        current_a: f64,
        voltage_v: f64,
        kind: ActivityKind,
    ) {
        if duration_s <= 0.0 {
            return;
        }
        let start_s = self.duration_s();
        if let Some(last) = self.segments.last_mut() {
            if last.cstate == cstate
                && last.pstate == pstate
                && last.kind == kind
                && (last.current_a - current_a).abs() < 1e-12
                && (last.voltage_v - voltage_v).abs() < 1e-12
            {
                last.duration_s += duration_s;
                return;
            }
        }
        self.segments.push(Segment {
            start_s,
            duration_s,
            cstate,
            pstate,
            current_a,
            voltage_v,
            kind,
        });
    }

    /// All segments in time order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total trace duration, seconds.
    pub fn duration_s(&self) -> f64 {
        self.segments.last().map_or(0.0, Segment::end_s)
    }

    /// The segment covering time `t_s`, if any.
    pub fn segment_at(&self, t_s: f64) -> Option<&Segment> {
        if t_s < 0.0 {
            return None;
        }
        let idx = self.segments.partition_point(|s| s.end_s() <= t_s);
        self.segments.get(idx).filter(|s| s.start_s <= t_s)
    }

    /// Mean current over the whole trace, amperes.
    pub fn mean_current_a(&self) -> f64 {
        let total = self.duration_s();
        if total <= 0.0 {
            return 0.0;
        }
        self.segments.iter().map(|s| s.current_a * s.duration_s).sum::<f64>() / total
    }

    /// Returns a copy of the trace with "blink" windows blanked to a
    /// constant current — the architecture-blinking countermeasure of
    /// §VI (Althoff et al., ISCA 2018): during a blink the core runs
    /// from locally stored charge, so the PMU (and its EM emission)
    /// sees a constant draw instead of the program's activity.
    ///
    /// Every `period_s`, the first `duty · period_s` seconds are
    /// blanked to `level_a` amperes at the trace's prevailing voltage.
    ///
    /// # Panics
    ///
    /// Panics if `period_s` is not positive or `duty` is outside
    /// `[0, 1]`.
    pub fn with_blinking(&self, period_s: f64, duty: f64, level_a: f64) -> PowerTrace {
        assert!(period_s > 0.0, "blink period must be positive");
        assert!((0.0..=1.0).contains(&duty), "duty must be in [0, 1]");
        let mut out = PowerTrace::new();
        let total = self.duration_s();
        let mut t = 0.0;
        while t < total {
            let blink_end = (t + duty * period_s).min(total);
            if blink_end > t {
                let voltage = self.segment_at(t).map_or(1.0, |s| s.voltage_v);
                out.push(blink_end - t, 0, 0, level_a, voltage, ActivityKind::Background);
            }
            let window_end = (t + period_s).min(total);
            // Copy the untouched remainder of the window segment-by-segment.
            let mut cursor = blink_end;
            while cursor < window_end {
                let Some(seg) = self.segment_at(cursor) else { break };
                let upto = seg.end_s().min(window_end);
                out.push(
                    upto - cursor,
                    seg.cstate,
                    seg.pstate,
                    seg.current_a,
                    seg.voltage_v,
                    seg.kind,
                );
                cursor = upto;
            }
            t = window_end;
        }
        out
    }

    /// Start times of every maximal run of `Work` activity: the
    /// ground-truth burst onsets of an event-driven trace.
    pub fn work_burst_times(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut in_burst = false;
        for s in &self.segments {
            let is_work = s.kind == ActivityKind::Work && s.cstate == 0;
            if is_work && !in_burst {
                out.push(s.start_s);
            }
            in_burst = is_work;
        }
        out
    }
}

impl FromIterator<Segment> for PowerTrace {
    fn from_iter<I: IntoIterator<Item = Segment>>(iter: I) -> Self {
        let mut trace = PowerTrace::new();
        for s in iter {
            trace.push(s.duration_s, s.cstate, s.pstate, s.current_a, s.voltage_v, s.kind);
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> PowerTrace {
        let mut t = PowerTrace::new();
        t.push(1.0, 0, 0, 8.0, 1.0, ActivityKind::Work);
        t.push(2.0, 6, 0, 0.1, 1.0, ActivityKind::Idle);
        t.push(1.0, 0, 0, 8.0, 1.0, ActivityKind::Work);
        t
    }

    #[test]
    fn segments_are_contiguous() {
        let t = sample_trace();
        assert_eq!(t.segments().len(), 3);
        for w in t.segments().windows(2) {
            assert!((w[0].end_s() - w[1].start_s).abs() < 1e-12);
        }
        assert_eq!(t.duration_s(), 4.0);
    }

    #[test]
    fn adjacent_identical_segments_merge() {
        let mut t = PowerTrace::new();
        t.push(1.0, 0, 0, 8.0, 1.0, ActivityKind::Work);
        t.push(0.5, 0, 0, 8.0, 1.0, ActivityKind::Work);
        assert_eq!(t.segments().len(), 1);
        assert_eq!(t.duration_s(), 1.5);
    }

    #[test]
    fn zero_length_pushes_are_ignored() {
        let mut t = PowerTrace::new();
        t.push(0.0, 0, 0, 8.0, 1.0, ActivityKind::Work);
        t.push(-1.0, 0, 0, 8.0, 1.0, ActivityKind::Work);
        assert!(t.segments().is_empty());
    }

    fn current_at(t: &PowerTrace, t_s: f64) -> Option<f64> {
        t.segment_at(t_s).map(|s| s.current_a)
    }

    #[test]
    fn current_lookup() {
        let t = sample_trace();
        assert_eq!(current_at(&t, 0.5), Some(8.0));
        assert_eq!(current_at(&t, 1.5), Some(0.1));
        assert_eq!(current_at(&t, 3.5), Some(8.0));
        assert_eq!(current_at(&t, -0.1), None);
        assert_eq!(current_at(&t, 99.0), None);
        // boundary belongs to the later segment
        assert_eq!(current_at(&t, 1.0), Some(0.1));
    }

    #[test]
    fn mean_current_weighted_by_duration() {
        let t = sample_trace();
        let expect = (8.0 * 2.0 + 0.1 * 2.0) / 4.0;
        assert!((t.mean_current_a() - expect).abs() < 1e-12);
    }

    #[test]
    fn work_burst_times_finds_rising_edges() {
        let mut t = PowerTrace::new();
        t.push(0.1, 6, 0, 0.1, 1.0, ActivityKind::Idle);
        t.push(0.05, 0, 0, 8.0, 1.0, ActivityKind::Work);
        t.push(0.2, 6, 0, 0.1, 1.0, ActivityKind::Idle);
        t.push(0.01, 0, 0, 6.0, 1.0, ActivityKind::Interrupt);
        t.push(0.2, 6, 0, 0.1, 1.0, ActivityKind::Idle);
        t.push(0.05, 0, 0, 8.0, 1.0, ActivityKind::Work);
        let bursts = t.work_burst_times();
        assert_eq!(bursts.len(), 2);
        assert!((bursts[0] - 0.1).abs() < 1e-12);
        assert!((bursts[1] - 0.56).abs() < 1e-12);
    }

    #[test]
    fn blinking_blanks_the_requested_windows() {
        let t = sample_trace(); // 4 s total
        let blinked = t.with_blinking(1.0, 0.5, 2.0);
        assert!((blinked.duration_s() - 4.0).abs() < 1e-9);
        // First half of every second is the blink level…
        assert_eq!(current_at(&blinked, 0.25), Some(2.0));
        assert_eq!(current_at(&blinked, 1.25), Some(2.0));
        assert_eq!(current_at(&blinked, 3.25), Some(2.0));
        // …the rest passes through.
        assert_eq!(current_at(&blinked, 0.75), Some(8.0));
        assert_eq!(current_at(&blinked, 1.75), Some(0.1));
    }

    #[test]
    fn full_duty_blinking_flattens_everything() {
        let t = sample_trace();
        let blinked = t.with_blinking(0.5, 1.0, 3.0);
        for s in blinked.segments() {
            assert_eq!(s.current_a, 3.0);
        }
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn invalid_duty_panics() {
        sample_trace().with_blinking(1.0, 1.5, 1.0);
    }

    #[test]
    fn from_iterator_rebases_times() {
        let src = sample_trace();
        let t: PowerTrace = src.segments().iter().copied().collect();
        assert_eq!(t, src);
    }
}
