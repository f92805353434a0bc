//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p emsc-examples --example reproduce            # everything
//! cargo run --release -p emsc-examples --example reproduce -- table2  # one artefact
//! ```
//!
//! The artefact names are the first column of [`ARTEFACTS`], in print
//! order. An unknown name runs nothing: it prints the valid names to
//! stderr and exits with status 2.
//!
//! Independent artefacts fan out across the `emsc-runtime` worker
//! pool (the big grids — Table II, Table III, the background stress —
//! additionally flatten their own cells when run alone). Output order
//! and content are identical to a serial run; set `EMSC_THREADS=1` to
//! force one.
//!
//! The output of a full run is recorded in `EXPERIMENTS.md` next to
//! the paper's numbers.

use emsc_core::experiments::ablations::{ablations, render_ablation_rows};
use emsc_core::experiments::covert_figs;
use emsc_core::experiments::keylog_table::{render_table4, table4, KeylogScale};
use emsc_core::experiments::robust::{render_robust_rows, robust_sweep};
use emsc_core::experiments::spectral::{fig11, fig2, fig2_bios, render_bios, Scale};
use emsc_core::experiments::tables::{
    fig10_nlos, fig9, render_channel_rows, render_fig9, table1, table2, table2_background, table3,
    ChannelRow, TableScale,
};
use emsc_runtime::par_map;

/// What the artefact renderers share.
struct Inputs {
    seed: u64,
    /// Table II rows, computed up front whenever `table2` or `fig9`
    /// (which plots their best rate) is wanted.
    table2: Option<Vec<ChannelRow>>,
}

/// Renders one artefact.
type Render = fn(&Inputs) -> String;

/// Every artefact, by name, in print order. The command line, the
/// filter and the unknown-name check all read this one table.
const ARTEFACTS: &[(&str, Render)] = &[
    ("fig2", |i| fig2(Scale::Paper, i.seed).render()),
    ("bios", |i| render_bios(&fig2_bios(Scale::Paper, i.seed))),
    ("fig4", |i| covert_figs::fig4(i.seed).render()),
    ("fig5", |i| {
        let f = covert_figs::fig5(i.seed);
        format!(
            "Fig. 5 — edge detection: {:.0} % of bit starts found in the first pass",
            f.raw_edge_coverage * 100.0
        )
    }),
    ("fig6", |i| covert_figs::fig6(i.seed).render()),
    ("fig7", |i| covert_figs::fig7(i.seed).render()),
    ("fig8", |i| covert_figs::fig8(i.seed).render()),
    ("table1", |_| table1()),
    ("table2", |i| {
        let rows = i.table2.as_deref().expect("table2 rows are computed when table2 is wanted");
        render_channel_rows("Table II — near-field covert channel (10 cm probe)", rows)
    }),
    ("background", |i| {
        render_channel_rows(
            "§IV-C2 — background-activity stress (Dell Inspiron)",
            &table2_background(TableScale::paper(), i.seed),
        )
    }),
    ("fig9", |i| {
        let rows = i.table2.as_deref().expect("table2 rows are computed when fig9 is wanted");
        let (baselines, measured) = fig9(rows.iter().map(|r| r.tr_bps).fold(0.0, f64::max));
        render_fig9(&baselines, measured)
    }),
    ("table3", |i| {
        render_channel_rows(
            "Table III — distance sweep (Dell Inspiron, loop antenna)",
            &table3(TableScale::paper(), i.seed),
        )
    }),
    ("fig10", |i| {
        render_channel_rows(
            "Fig. 10 / §IV-C3 — NLoS through the wall (interferers on)",
            &[fig10_nlos(TableScale::paper(), i.seed)],
        )
    }),
    ("fig11", |i| fig11(i.seed).render()),
    ("table4", |i| render_table4(&table4(KeylogScale::paper(), i.seed))),
    ("robust", |i| render_robust_rows(&robust_sweep(TableScale::paper(), i.seed))),
    ("service", |i| emsc_service::render_soak_rows(&emsc_service::soak(i.seed))),
    ("extensions", |i| {
        use emsc_core::experiments::extensions::{fingerprint_accuracy, timing_analysis};
        format!(
            "{}\n\n{}",
            fingerprint_accuracy(4, i.seed).render(),
            timing_analysis("the quick brown fox jumps over the lazy dog", i.seed).render()
        )
    }),
    ("ablations", |i| render_ablation_rows(&ablations(i.seed))),
];

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = filter.iter().find(|f| !ARTEFACTS.iter().any(|(name, _)| name == f)) {
        let names: Vec<&str> = ARTEFACTS.iter().map(|(name, _)| *name).collect();
        eprintln!("reproduce: unknown artefact `{unknown}`");
        eprintln!("valid artefacts: {}", names.join(", "));
        std::process::exit(2);
    }
    let want = |name: &str| filter.is_empty() || filter.iter().any(|f| f == name);
    let seed = 2020; // HPCA 2020

    // Table II runs first on the full pool (6 laptops × 5 runs of
    // cells) because Fig. 9 needs its best measured rate.
    let table2_rows = (want("table2") || want("fig9")).then(|| table2(TableScale::paper(), seed));
    let inputs = Inputs { seed, table2: table2_rows };

    // Every artefact is independent; they fan out across the pool and
    // print in table order regardless of which finishes first.
    let chosen: Vec<_> = ARTEFACTS.iter().filter(|(name, _)| want(name)).collect();
    let outputs = par_map(&chosen, |(_, render)| render(&inputs));
    for output in outputs {
        println!("{output}\n");
    }
}
