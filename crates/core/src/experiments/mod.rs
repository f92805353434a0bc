//! One function per table and figure of the paper's evaluation.
//!
//! Every experiment returns typed rows (so tests can assert the
//! *shape* of the result) plus a `render()` that prints the same
//! table/series the paper reports. The `reproduce` example binary
//! drives these functions; `EXPERIMENTS.md` records paper-vs-measured
//! for each. [`streaming`] builds the synthetic live-receive captures
//! that E5's sensors replay.
//!
//! | Paper artefact | Function |
//! |---|---|
//! | Fig. 2 (spectrogram of active/idle alternation) | [`spectral::fig2`] |
//! | §III BIOS sweep | [`spectral::fig2_bios`] |
//! | Fig. 4 (energy signal + bits) | [`covert_figs::fig4`] |
//! | Fig. 5 (edge detection) | [`covert_figs::fig5`] |
//! | Fig. 6 (pulse-width distribution) | [`covert_figs::fig6`] |
//! | Fig. 7 (power histogram + threshold) | [`covert_figs::fig7`] |
//! | Fig. 8 (insertion/deletion) | [`covert_figs::fig8`] |
//! | Table I (laptops) | [`tables::table1`] |
//! | Table II (near-field BER/TR/IP/DP) | [`tables::table2`] |
//! | §IV-C2 background-activity stress | [`tables::table2_background`] |
//! | Fig. 9 (rate vs. prior work) | [`tables::fig9`] |
//! | Table III (distance sweep) | [`tables::table3`] |
//! | Fig. 10 / §IV-C3 (through-wall NLoS) | [`tables::fig10_nlos`] |
//! | Fig. 11 (keylog spectrogram) | [`spectral::fig11`] |
//! | Table IV (keylogging accuracy) | [`keylog_table::table4`] |
//! | E1/E2 (extensions: fingerprinting, timing) | [`extensions`] |
//! | E5 (supervised capture-daemon soak) | `emsc_service::soak` (service crate) |
//! | E6 (channel impairments: rigid vs. marker framing) | [`robust::robust_sweep`] |
//! | Ablations (receiver, harmonics, window, label feature, parity, sleep period, countermeasures) | [`ablations::ablations`] |

pub mod ablations;
pub mod covert_figs;
pub mod extensions;
pub mod keylog_table;
pub mod robust;
pub mod spectral;
pub mod streaming;
pub mod tables;

/// Renders a fixed-width text table: a header row plus data rows.
/// Widths count characters, as the `{:<width$}` padding does, so cells
/// such as "±20 %" stay aligned. Every experiment table goes through
/// it, E5's in `emsc-service` included.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let rule: String = widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("+");
    out.push_str(&rule);
    out.push('\n');
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(" {:<width$} ", c, width = widths.get(i).copied().unwrap_or(c.len()))
            })
            .collect::<Vec<_>>()
            .join("|")
    };
    out.push_str(&fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    out.push('\n');
    out.push_str(&rule);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Formats a probability in the paper's scientific style (`2×10⁻³`
/// rendered as `2.0e-3`), with `0` for exact zero.
pub(crate) fn fmt_prob(p: f64) -> String {
    if p == 0.0 {
        "0".to_string()
    } else {
        format!("{p:.1e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns_columns() {
        let s = render_table(
            "T",
            &["a", "long-header"],
            &[
                vec!["xxxx".into(), "1".into()],
                vec!["y".into(), "22".into()],
                vec!["±5 µs".into(), "3".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "T");
        assert!(lines[2].contains('a') && lines[2].contains("long-header"));
        // All data lines equal length, in characters.
        assert_eq!(lines[4].chars().count(), lines[5].chars().count());
        assert_eq!(lines[4].chars().count(), lines[6].chars().count());
    }

    #[test]
    fn fmt_prob_styles() {
        assert_eq!(fmt_prob(0.0), "0");
        assert_eq!(fmt_prob(2e-3), "2.0e-3");
        assert_eq!(fmt_prob(4.5e-3), "4.5e-3");
    }
}
