//! Keylogging scenario runner: type text, record EM, detect, score.

use emsc_keylog::burst::BurstModel;
use emsc_keylog::detect::{
    detect_from_energies, detected_times, score_detections, DetectionReport, DetectionScore,
    DetectorConfig, WINDOW_SAMPLES,
};
use emsc_keylog::stream::StreamingDetector;
use emsc_keylog::typist::{Keystroke, Typist};
use emsc_keylog::words::{group_words, score_words, word_lengths, WordScore};
use emsc_pmu::sim::ExternalEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::chain::{Chain, ChainRun};

/// Detection-to-truth matching tolerance, seconds.
pub const MATCH_TOLERANCE_S: f64 = 0.06;
/// Idle margin before the first and after the last keystroke, seconds.
pub const IDLE_MARGIN_S: f64 = 0.5;
/// Word-boundary gap factor (× median inter-keystroke gap).
pub const WORD_GAP_FACTOR: f64 = 1.6;

/// A complete keylogging run and its scoring. `S` holds the chain
/// stages the run keeps: every intermediate stage for
/// [`KeylogScenario::run`], nothing for
/// [`KeylogScenario::run_chunked`] (they would be the gigabytes it
/// avoids).
#[derive(Debug, Clone)]
pub struct KeylogOutcome<S = ChainRun> {
    /// Ground-truth keystrokes.
    pub keystrokes: Vec<Keystroke>,
    /// The detector's full report.
    pub detection: DetectionReport,
    /// Character-level score (Table IV, TPR/FPR columns).
    pub chars: DetectionScore,
    /// Word-level score (Table IV, precision/recall columns).
    pub words: WordScore,
    /// The chain stages the run kept.
    pub chain_run: S,
}

impl<S> KeylogOutcome<S> {
    /// Scores `detection` of a typing session of `text`: detections
    /// against the keystrokes' press times, and the words the
    /// detections group into against `text`.
    fn scored(
        text: &str,
        keystrokes: Vec<Keystroke>,
        detection: DetectionReport,
        chain_run: S,
    ) -> Self {
        let truth: Vec<f64> = keystrokes.iter().map(|k| k.press_s).collect();
        let chars = score_detections(&detection.bursts, &truth, MATCH_TOLERANCE_S);
        let groups = group_words(&detected_times(&detection), WORD_GAP_FACTOR);
        let words = score_words(&word_lengths(&groups), text);
        KeylogOutcome { keystrokes, detection, chars, words, chain_run }
    }
}

/// Runs keylogging over a chain.
#[derive(Debug, Clone)]
pub struct KeylogScenario {
    /// The physical chain.
    pub chain: Chain,
    /// The victim's typing behaviour.
    pub typist: Typist,
    /// Keystroke → CPU burst mapping.
    pub bursts: BurstModel,
    /// The attacker's detector.
    pub detector: DetectorConfig,
}

impl KeylogScenario {
    /// The paper's setup: average typist typing into a browser,
    /// detector tuned to the chain's VRM band.
    pub fn standard(chain: Chain) -> Self {
        let detector = DetectorConfig::new(chain.switching_freq_hz());
        KeylogScenario { chain, typist: Typist::default(), bursts: BurstModel::browser(), detector }
    }

    /// Types `text` while the capture runs, then detects and scores.
    pub fn run(&self, text: &str, seed: u64) -> KeylogOutcome {
        let (keystrokes, end, events) = self.typing(text, seed);
        let chain_run = self.chain.run_events(end, &events, seed);

        // A chain capture is always analysable; should detection fail
        // anyway (a bad configuration included), the run scores an
        // empty report instead of panicking.
        let detection = StreamingDetector::detect(self.detector.clone(), &chain_run.capture)
            .unwrap_or_default();
        KeylogOutcome::scored(text, keystrokes, detection, chain_run)
    }

    /// Like [`KeylogScenario::run`], but processes the capture in
    /// chunks of roughly `chunk_s` seconds so minute-long typing
    /// sessions don't materialise gigabytes of I/Q at once. Per-chunk
    /// window energies are concatenated and thresholded globally, so
    /// the result matches a monolithic run up to chunk-boundary
    /// alignment. The outcome keeps no chain stages.
    ///
    /// Each chunk's seed is `seed ^ (chunk_idx << 17)` — a function of
    /// the chunk's *position*, not of execution order — so the chunks
    /// are independent and fan out across the worker pool while the
    /// concatenated energy series stays bit-identical to a serial run.
    pub fn run_chunked(&self, text: &str, seed: u64, chunk_s: f64) -> KeylogOutcome<()> {
        let (keystrokes, end, events) = self.typing(text, seed);

        let fs = self.chain.scene.synth.sample_rate;
        // Chunk length: a whole number of detector windows, so the
        // concatenated energies stay on one grid.
        let windows_per_chunk = ((chunk_s * fs / WINDOW_SAMPLES as f64).ceil() as usize).max(1);
        let chunk_samples = windows_per_chunk * WINDOW_SAMPLES;
        let chunk_dur = chunk_samples as f64 / fs;

        let n_chunks = (end / chunk_dur).ceil().max(1.0) as u64;
        let chunk_ids: Vec<u64> = (0..n_chunks).collect();
        let chunk_energies = emsc_runtime::par_map(&chunk_ids, |&chunk_idx| {
            let t0 = chunk_idx as f64 * chunk_dur;
            let t1 = (t0 + chunk_dur).min(end);
            // Events that *start* in this chunk, rebased to its origin.
            let chunk_events: Vec<ExternalEvent> = events
                .iter()
                .filter(|e| e.t_s >= t0 && e.t_s < t1)
                .map(|e| ExternalEvent { t_s: e.t_s - t0, ..*e })
                .collect();
            let mut run = self.chain.run_events(chunk_dur, &chunk_events, seed ^ (chunk_idx << 17));
            run.capture.samples.truncate(chunk_samples);
            // One StreamingDetector push per chunk; only its window
            // energies are kept (a chunk that cannot be analysed adds
            // none).
            StreamingDetector::detect(self.detector.clone(), &run.capture)
                .map(|report| report.window_energy)
                .unwrap_or_default()
        });
        let energies: Vec<f64> = chunk_energies.into_iter().flatten().collect();

        let window_s = WINDOW_SAMPLES as f64 / fs;
        let detection = detect_from_energies(energies, window_s);
        KeylogOutcome::scored(text, keystrokes, detection, ())
    }

    /// The typing session of `text` under `seed`, drawn from one rng:
    /// the keystrokes, the time the capture ends (an idle margin after
    /// the last release) and the CPU bursts the keystrokes cause.
    fn typing(&self, text: &str, seed: u64) -> (Vec<Keystroke>, f64, Vec<ExternalEvent>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keystrokes = self.typist.type_text(text, IDLE_MARGIN_S, &mut rng);
        let end = keystrokes.last().map_or(IDLE_MARGIN_S, |k| k.release_s) + IDLE_MARGIN_S;
        let events = self.bursts.events_for(&keystrokes, end, &mut rng);
        (keystrokes, end, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Setup;
    use crate::laptop::Laptop;

    #[test]
    fn near_field_keylogging_detects_most_keystrokes() {
        let laptop = Laptop::dell_precision(); // the paper's §V laptop
        let chain = Chain::new(&laptop, Setup::NearField);
        let scenario = KeylogScenario::standard(chain);
        let outcome = scenario.run("can you hear me", 7);
        assert_eq!(outcome.keystrokes.len(), 15);
        assert!(
            outcome.chars.tpr() > 0.9,
            "TPR {} (tp {} fp {} missed {})",
            outcome.chars.tpr(),
            outcome.chars.true_positives,
            outcome.chars.false_positives,
            outcome.chars.missed
        );
        assert!(outcome.chars.fpr() < 0.25, "FPR {}", outcome.chars.fpr());
    }

    #[test]
    fn chunked_run_matches_monolithic_scores() {
        let laptop = Laptop::dell_precision();
        let chain = Chain::new(&laptop, Setup::NearField);
        let scenario = KeylogScenario::standard(chain);
        let text = "chunk test words";
        let whole = scenario.run(text, 19);
        let chunked = scenario.run_chunked(text, 19, 1.0);
        // Same ground truth, near-identical detection quality.
        assert_eq!(whole.keystrokes.len(), chunked.keystrokes.len());
        assert!(
            (whole.chars.tpr() - chunked.chars.tpr()).abs() < 0.15,
            "whole {} vs chunked {}",
            whole.chars.tpr(),
            chunked.chars.tpr()
        );
    }

    #[test]
    fn word_grouping_recovers_word_count() {
        let laptop = Laptop::dell_precision();
        let chain = Chain::new(&laptop, Setup::NearField);
        let scenario = KeylogScenario::standard(chain);
        let outcome = scenario.run("hello there friend", 21);
        // 3 words; predicted count within ±1.
        assert!(
            (outcome.words.predicted as i64 - 3).unsigned_abs() <= 1,
            "predicted {} words",
            outcome.words.predicted
        );
        assert!(outcome.words.recall() > 0.6, "recall {}", outcome.words.recall());
    }
}
