//! Website-fingerprinting scenario runner (the §III attack-model
//! extension): simulate page loads, observe them through the EM
//! chain, classify which site was visited.

use emsc_fingerprint::classify::{leave_one_out_accuracy, LabeledVisit};
use emsc_fingerprint::features::FeatureVector;
use emsc_fingerprint::workload::SiteProfile;
use emsc_keylog::burst::BurstModel;
use emsc_keylog::detect::DetectorConfig;
use emsc_keylog::stream::StreamingDetector;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::chain::Chain;

/// Idle margin around each visit, seconds.
const VISIT_MARGIN_S: f64 = 0.4;

/// One observed visit.
#[derive(Debug, Clone)]
pub struct ObservedVisit {
    /// True site label.
    pub label: String,
    /// Features the attacker extracted (None if nothing was detected).
    pub features: Option<FeatureVector>,
    /// Number of bursts detected.
    pub bursts: usize,
}

/// Fingerprinting experiment output.
#[derive(Debug, Clone)]
pub struct FingerprintOutcome {
    /// All observed visits.
    pub visits: Vec<ObservedVisit>,
    /// Leave-one-out classification accuracy over the visits that
    /// produced features.
    pub accuracy: f64,
    /// Chance level (1 / number of sites).
    pub chance: f64,
}

/// Runs the fingerprinting attack over a chain.
#[derive(Debug, Clone)]
pub struct FingerprintScenario {
    /// The physical chain.
    pub chain: Chain,
    /// Site library under attack.
    pub sites: Vec<SiteProfile>,
    /// Browser background-activity model.
    pub bursts: BurstModel,
    /// Detector configuration.
    pub detector: DetectorConfig,
    /// Per-visit timing jitter (0.1 = ±10 %).
    pub visit_jitter: f64,
}

impl FingerprintScenario {
    /// Standard setup: the bundled site library, browser burst model,
    /// detector tuned to the chain's VRM band.
    pub fn standard(chain: Chain, sites: Vec<SiteProfile>) -> Self {
        let detector = DetectorConfig::new(chain.switching_freq_hz());
        FingerprintScenario {
            chain,
            sites,
            bursts: BurstModel::browser(),
            detector,
            visit_jitter: 0.10,
        }
    }

    /// Observes one visit to `site` through the chain and extracts its
    /// features.
    pub fn observe_visit(&self, site: &SiteProfile, seed: u64) -> ObservedVisit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = site.visit_events(VISIT_MARGIN_S, self.visit_jitter, &mut rng);
        let end = site.load_time_s() + 2.0 * VISIT_MARGIN_S;
        // Browser housekeeping runs during the load as well.
        events.extend(self.bursts.events_for(&[], end, &mut rng));
        events.sort_by(|a, b| a.t_s.partial_cmp(&b.t_s).unwrap_or(std::cmp::Ordering::Equal));

        let run = self.chain.run_events(end, &events, seed);
        let report =
            StreamingDetector::detect(self.detector.clone(), &run.capture).unwrap_or_default();
        ObservedVisit {
            label: site.name.clone(),
            features: FeatureVector::from_bursts(&report.bursts),
            bursts: report.bursts.len(),
        }
    }

    /// Observes `visits_per_site` visits to every site and evaluates
    /// leave-one-out classification accuracy. The (site × visit) grid
    /// fans out across the worker pool; each visit's seed depends only
    /// on its grid position, so the outcome is thread-count
    /// independent.
    pub fn run(&self, visits_per_site: usize, seed: u64) -> FingerprintOutcome {
        let grid: Vec<(usize, u64)> = (0..self.sites.len())
            .flat_map(|si| (0..visits_per_site as u64).map(move |v| (si, v)))
            .collect();
        let visits = emsc_runtime::par_map(&grid, |&(si, v)| {
            let s = seed ^ ((si as u64) << 32) ^ (v << 8);
            self.observe_visit(&self.sites[si], s)
        });
        let labelled: Vec<LabeledVisit> = visits
            .iter()
            .filter_map(|v| {
                v.features.map(|features| LabeledVisit { label: v.label.clone(), features })
            })
            .collect();
        // k must stay below the per-class count, otherwise leave-one-
        // out systematically votes for the other class on small sets.
        let k = (visits_per_site.saturating_sub(1)).clamp(1, 3);
        let accuracy = leave_one_out_accuracy(&labelled, k);
        FingerprintOutcome { visits, accuracy, chance: 1.0 / self.sites.len().max(1) as f64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Setup;
    use crate::laptop::Laptop;
    use emsc_fingerprint::workload::site_library;

    #[test]
    fn visits_produce_features() {
        let laptop = Laptop::dell_precision();
        let chain = Chain::new(&laptop, Setup::NearField);
        let scenario = FingerprintScenario::standard(chain, site_library());
        let visit = scenario.observe_visit(&scenario.sites[0], 5);
        assert_eq!(visit.label, "news-portal");
        let f = visit.features.expect("bursts must be detected");
        // Total active time in the ballpark of the profile.
        let profile_active = scenario.sites[0].total_active_s();
        assert!(
            (f.values[0] - profile_active).abs() / profile_active < 0.4,
            "active {} vs profile {}",
            f.values[0],
            profile_active
        );
    }

    #[test]
    fn sites_are_distinguishable_well_above_chance() {
        let laptop = Laptop::dell_precision();
        let chain = Chain::new(&laptop, Setup::LineOfSight(2.0));
        // Subset of sites and visits keeps the test fast; the full
        // library runs in the `fingerprinting` example.
        let sites: Vec<_> = site_library().into_iter().take(3).collect();
        let scenario = FingerprintScenario::standard(chain, sites);
        let outcome = scenario.run(2, 77);
        assert!(
            outcome.accuracy > 1.8 * outcome.chance,
            "accuracy {} vs chance {}",
            outcome.accuracy,
            outcome.chance
        );
    }
}
