//! Table IV: keylogging accuracy at three distances.

use emsc_runtime::par_map;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::chain::{Chain, Setup};
use crate::keylog_run::KeylogScenario;
use crate::laptop::Laptop;

/// One Table IV row.
#[derive(Debug, Clone)]
pub struct KeylogRow {
    /// Setup label.
    pub label: String,
    /// Character detection true-positive rate.
    pub tpr: f64,
    /// Character detection false-positive rate.
    pub fpr: f64,
    /// Word-length precision.
    pub precision: f64,
    /// Word recall.
    pub recall: f64,
    /// Number of keystrokes in the ground truth.
    pub keystrokes: usize,
}

/// Scale of the typing experiment. The paper types 1000 random words
/// (~20 minutes of capture); full scale here is 60 words — enough for
/// stable rates while keeping the simulated RF tractable (the
/// substitution is documented in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeylogScale {
    /// Number of random words typed.
    pub words: usize,
}

impl KeylogScale {
    /// Fast scale for unit tests.
    pub fn quick() -> Self {
        KeylogScale { words: 6 }
    }

    /// Harness scale.
    pub fn paper() -> Self {
        KeylogScale { words: 60 }
    }
}

/// Generates pseudo-random typing-test text: `words` words of 2–8
/// lowercase letters (the livechatinc typing-test distribution the
/// paper sampled is similar).
pub fn random_text(words: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    for w in 0..words {
        if w > 0 {
            out.push(' ');
        }
        let len = rng.gen_range(2..=8);
        for _ in 0..len {
            out.push((b'a' + rng.gen_range(0..26)) as char);
        }
    }
    out
}

/// Runs one Table IV row. Longer sessions (> ~15 words) use the
/// chunked runner so the capture never materialises whole.
pub fn table4_row(setup: Setup, label: &str, scale: KeylogScale, seed: u64) -> KeylogRow {
    let laptop = Laptop::dell_precision(); // the §V-C laptop
    let chain = Chain::new(&laptop, setup);
    let scenario = KeylogScenario::standard(chain);
    let text = random_text(scale.words, seed);
    let (chars, words, keystrokes) = if scale.words > 15 {
        let outcome = scenario.run_chunked(&text, seed, 2.0);
        (outcome.chars, outcome.words, outcome.keystrokes.len())
    } else {
        let outcome = scenario.run(&text, seed);
        (outcome.chars, outcome.words, outcome.keystrokes.len())
    };
    KeylogRow {
        label: label.to_string(),
        tpr: chars.tpr(),
        fpr: chars.fpr(),
        precision: words.precision(),
        recall: words.recall(),
        keystrokes,
    }
}

/// Table IV: the three distances of §V-C, measured concurrently (each
/// row's chunked capture further parallelises when run alone).
pub fn table4(scale: KeylogScale, seed: u64) -> Vec<KeylogRow> {
    let settings: [(Setup, &str); 3] = [
        (Setup::NearField, "10 cm"),
        (Setup::LineOfSight(2.0), "2 m"),
        (Setup::ThroughWall, "1.5 m (with wall)"),
    ];
    par_map(&settings, |&(setup, label)| table4_row(setup, label, scale, seed))
}

/// Renders Table IV.
pub fn render_table4(rows: &[KeylogRow]) -> String {
    super::render_table(
        "Table IV — keylogging accuracy",
        &["Distance", "Char TPR", "Char FPR", "Word precision", "Word recall", "keystrokes"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    format!("{:.0}%", r.tpr * 100.0),
                    format!("{:.1}%", r.fpr * 100.0),
                    format!("{:.0}%", r.precision * 100.0),
                    format!("{:.0}%", r.recall * 100.0),
                    r.keystrokes.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_text_has_requested_words() {
        let t = random_text(12, 5);
        assert_eq!(t.split_whitespace().count(), 12);
        assert!(t.chars().all(|c| c.is_ascii_lowercase() || c == ' '));
        assert_eq!(random_text(12, 5), t, "deterministic");
        assert_ne!(random_text(12, 6), t);
    }

    #[test]
    fn near_field_row_matches_paper_shape() {
        let row = table4_row(Setup::NearField, "10 cm", KeylogScale::quick(), 3);
        assert!(row.tpr > 0.9, "TPR {}", row.tpr);
        assert!(row.fpr < 0.2, "FPR {}", row.fpr);
        assert!(row.recall > 0.6, "recall {}", row.recall);
    }

    #[test]
    fn render_includes_all_rows() {
        let rows = vec![
            KeylogRow {
                label: "10 cm".into(),
                tpr: 1.0,
                fpr: 0.03,
                precision: 0.71,
                recall: 1.0,
                keystrokes: 100,
            },
            KeylogRow {
                label: "2 m".into(),
                tpr: 0.99,
                fpr: 0.018,
                precision: 0.70,
                recall: 1.0,
                keystrokes: 100,
            },
        ];
        let s = render_table4(&rows);
        assert!(s.contains("10 cm") && s.contains("2 m"));
        assert!(s.contains("100%"));
    }
}
