//! The §4 deployment study, reproduced in simulation.
//!
//! Sixteen participants carry PMWare + PlaceADs (+ the life-logging UI) for
//! two weeks. The study measures:
//!
//! * **DEP-A** — places discovered in total (paper: 123), fraction the
//!   participants tagged (paper: 85/123 ≈ 70 %), and the evaluable subset
//!   (tagged places with departure information; paper: 62);
//! * **DEP-B** — discovery quality over the evaluable places with GSM +
//!   opportunistic WiFi: correct / merged / divided (paper: 79.03 % /
//!   14.52 % / 6.45 %);
//! * **DEP-C** — PlaceADs like:dislike ratio (paper: 17:3 = 85 % likes).

use pmware_algorithms::matching::{classify_places, GroundTruthVisit, MatchOutcome};
use pmware_algorithms::signature::{DiscoveredPlace, DiscoveredPlaceId, PlaceSignature};
use pmware_apps::{AdInventory, LifeLogApp, PlaceAdsApp, UserTasteModel};
use pmware_cloud::{
    AdmissionConfig, CellDatabase, CloudInstance, LatencyProfile, SharedCloud, StorageConfig,
};
use pmware_core::pms::{PmsConfig, PmwareMobileService};
use pmware_core::registry::PmPlaceId;
use pmware_device::{Device, EnergyModel};
use pmware_mobility::{Itinerary, Population};
use pmware_obs::Obs;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{RadioConfig, RadioEnvironment};
use pmware_world::{SimTime, World};

/// Study parameters.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Number of participants (paper: 16).
    pub participants: usize,
    /// Study length in days (paper: 14).
    pub days: u64,
    /// Master seed.
    pub seed: u64,
    /// World profile (paper: urban India).
    pub region: RegionProfile,
    /// Worker threads running participants (`1` = sequential, `0` = one
    /// per core). Results are identical at any thread count.
    pub threads: usize,
    /// Observability sink. [`Obs::disabled`] (the default) records
    /// nothing and costs nothing; a live handle collects a study-wide
    /// metrics snapshot and per-participant traces without perturbing any
    /// simulation outcome.
    pub obs: Obs,
    /// Cloud storage-engine configuration ([`StorageConfig`]): a resident
    /// cap bounds how many user stores stay in RAM (cold ones park in
    /// compacted snapshots), and a store directory makes the instance
    /// durable (per-shard WAL + snapshots on disk). `None` (the default)
    /// keeps the plain all-resident in-memory cloud; study outcomes are
    /// bit-identical either way — the engine only changes *where* state
    /// lives.
    pub storage: Option<StorageConfig>,
    /// Cloud admission-control budgets ([`AdmissionConfig`]): requests
    /// over a user's token bucket are answered 429 and retried by the
    /// client. `None` (the default) leaves the controller off.
    pub admission: Option<AdmissionConfig>,
    /// The cloud's sim-time latency model ([`LatencyProfile`]). With no
    /// shedding threshold, discovery/tagging/energy outcomes are
    /// unchanged — latency only adds sub-second annotations, histograms,
    /// and spans on top. `None` (the default) leaves the model off.
    pub latency: Option<LatencyProfile>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            participants: 16,
            days: 14,
            seed: 2014,
            region: RegionProfile::urban_india(),
            threads: 1,
            obs: Obs::disabled(),
            storage: None,
            admission: None,
            latency: None,
        }
    }
}

/// Per-participant outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticipantResult {
    /// Places PMWare discovered for this participant.
    pub discovered: usize,
    /// Places the participant tagged.
    pub tagged: usize,
    /// Tagged places with departure info (evaluable).
    pub evaluable: usize,
    /// Evaluable places classified correct.
    pub correct: usize,
    /// Evaluable places classified merged.
    pub merged: usize,
    /// Evaluable places classified divided.
    pub divided: usize,
    /// Ad likes.
    pub likes: u32,
    /// Ad dislikes.
    pub dislikes: u32,
    /// Battery energy drained over the study (joules).
    pub energy_joules: f64,
}

/// Aggregate study outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyResults {
    /// Per-participant breakdown.
    pub participants: Vec<ParticipantResult>,
    /// Authenticated requests the cloud served over the study — a cheap
    /// end-to-end invariant: instrumentation must never add or remove
    /// wire traffic, so this number is identical with obs on or off.
    pub cloud_requests: u64,
}

impl StudyResults {
    /// Total places discovered across participants (paper: 123).
    pub fn total_discovered(&self) -> usize {
        self.participants.iter().map(|p| p.discovered).sum()
    }

    /// Total tagged places (paper: 85).
    pub fn total_tagged(&self) -> usize {
        self.participants.iter().map(|p| p.tagged).sum()
    }

    /// Tagged fraction (paper: ≈ 0.70).
    pub fn tagged_fraction(&self) -> f64 {
        let d = self.total_discovered();
        if d == 0 {
            0.0
        } else {
            self.total_tagged() as f64 / d as f64
        }
    }

    /// Evaluable places (paper: 62).
    pub fn total_evaluable(&self) -> usize {
        self.participants.iter().map(|p| p.evaluable).sum()
    }

    fn outcome_total(&self, f: impl Fn(&ParticipantResult) -> usize) -> usize {
        self.participants.iter().map(f).sum()
    }

    /// Correct fraction over evaluable (paper: 0.7903).
    pub fn correct_fraction(&self) -> f64 {
        self.fraction(self.outcome_total(|p| p.correct))
    }

    /// Merged fraction over evaluable (paper: 0.1452).
    pub fn merged_fraction(&self) -> f64 {
        self.fraction(self.outcome_total(|p| p.merged))
    }

    /// Divided fraction over evaluable (paper: 0.0645).
    pub fn divided_fraction(&self) -> f64 {
        self.fraction(self.outcome_total(|p| p.divided))
    }

    fn fraction(&self, n: usize) -> f64 {
        let e: usize = self.outcome_total(|p| p.correct + p.merged + p.divided);
        if e == 0 {
            0.0
        } else {
            n as f64 / e as f64
        }
    }

    /// Total ad likes.
    pub fn likes(&self) -> u32 {
        self.participants.iter().map(|p| p.likes).sum()
    }

    /// Total ad dislikes.
    pub fn dislikes(&self) -> u32 {
        self.participants.iter().map(|p| p.dislikes).sum()
    }

    /// Like fraction (paper: 17/20 = 0.85).
    pub fn like_fraction(&self) -> f64 {
        let total = self.likes() + self.dislikes();
        if total == 0 {
            0.0
        } else {
            self.likes() as f64 / total as f64
        }
    }
}

/// Runs the study.
pub fn run_study(config: &StudyConfig) -> StudyResults {
    let world = WorldBuilder::new(config.region.clone())
        .seed(config.seed)
        .build();
    let mut instance =
        CloudInstance::new(CellDatabase::from_world(&world), config.seed + 1).with_obs(&config.obs);
    if let Some(storage) = &config.storage {
        instance = instance.with_storage(storage.clone());
    }
    if let Some(admission) = &config.admission {
        instance = instance.with_admission(admission.clone());
    }
    if let Some(latency) = &config.latency {
        instance = instance.with_latency(latency.clone());
    }
    let cloud = SharedCloud::new(instance);
    let population = Population::generate(&world, config.participants, config.seed + 2);

    // Everything a participant needs is derived from per-participant seeds
    // before the fan-out, so worker scheduling cannot change any result;
    // `parallel_map` reassembles in agent order.
    let jobs: Vec<(u32, f64, Itinerary, UserTasteModel)> = population
        .agents()
        .iter()
        .map(|agent| {
            (
                agent.id().0,
                agent.tag_probability(),
                population.itinerary(&world, agent.id(), config.days),
                UserTasteModel::from_agent(agent, config.seed + 100 + agent.id().0 as u64),
            )
        })
        .collect();
    let participants = crate::parallel::parallel_map(
        jobs,
        crate::parallel::resolve_threads(config.threads),
        |(index, tag_probability, itinerary, taste)| {
            run_participant(
                &world,
                cloud.clone(),
                index,
                tag_probability,
                &itinerary,
                taste,
                config,
            )
        },
    );

    StudyResults {
        participants,
        cloud_requests: cloud.total_requests(),
    }
}

fn run_participant(
    world: &World,
    cloud: SharedCloud,
    index: u32,
    tag_probability: f64,
    itinerary: &Itinerary,
    mut taste: UserTasteModel,
    config: &StudyConfig,
) -> ParticipantResult {
    let env = RadioEnvironment::new(world, RadioConfig::default());
    let device = Device::new(
        env,
        itinerary,
        EnergyModel::htc_explorer(),
        config.seed + 200 + index as u64,
    );
    let mut pms = PmwareMobileService::new(
        device,
        cloud,
        PmsConfig::for_participant(index),
        SimTime::EPOCH,
    )
    .expect("registration succeeds");
    // Zero-padded actor names keep the trace export (sorted by actor)
    // in participant order.
    pms.set_obs(&config.obs.for_actor(&format!("p{index:04}")));

    // Both §3 applications are installed on every participant's phone.
    let ads_rx = pms.register_app(
        "placeads",
        PlaceAdsApp::requirement(),
        PlaceAdsApp::filter(),
    );
    let log_rx = pms.register_app("lifelog", LifeLogApp::requirement(), LifeLogApp::filter());
    let mut placeads = PlaceAdsApp::new(AdInventory::from_world(world));
    let mut lifelog = LifeLogApp::new(tag_probability, config.seed + 300 + index as u64);

    // Run day by day so the apps interact as the study unfolds: the user
    // tags places in the evening, swipes the day's ad cards, etc.
    for day in 1..=config.days {
        pms.run(SimTime::from_day_time(day, 0, 0, 0))
            .expect("run never fails after registration");

        for intent in log_rx.try_iter() {
            lifelog.on_intent(&intent);
        }
        for (place, label) in lifelog.take_pending_labels() {
            pms.label_place(PmPlaceId(place), label);
        }
        for intent in ads_rx.try_iter().collect::<Vec<_>>() {
            if let Some(card) = placeads.on_intent(&intent) {
                let true_position = itinerary.position_at(card.served_at);
                let _ = taste.swipe(&card, true_position);
            }
        }
    }

    let end = SimTime::from_day_time(config.days, 0, 0, 0);
    let report = pms.finish(end);

    // Re-assemble DiscoveredPlaces (stable ids + the final GCA visit
    // history, which covers the whole study) for the correct/merged/
    // divided classification — this is the data the paper's analysis
    // worked from.
    let discovered: Vec<DiscoveredPlace> = report
        .places
        .iter()
        .map(|p| {
            let mut d = DiscoveredPlace::new(
                DiscoveredPlaceId(p.id.0),
                PlaceSignature::Cells(p.cells.clone()),
                p.gca_visits.clone(),
            );
            d.label = p.label.clone();
            d
        })
        .collect();

    let truth: Vec<GroundTruthVisit> = itinerary
        .visits()
        .iter()
        .map(|v| GroundTruthVisit {
            place: v.place,
            arrival: v.arrival,
            departure: v.departure,
        })
        .collect();
    let matching = classify_places(&discovered, &truth, 0.2);

    // The §4 percentages are computed over the tagged places that carry
    // departure information.
    let evaluable: std::collections::BTreeSet<u32> =
        lifelog.evaluable_places().into_iter().collect();
    let (mut correct, mut merged, mut divided) = (0, 0, 0);
    for m in &matching.matches {
        if !evaluable.contains(&m.discovered.0) {
            continue;
        }
        match m.outcome {
            MatchOutcome::Correct => correct += 1,
            MatchOutcome::Merged => merged += 1,
            MatchOutcome::Divided => divided += 1,
            MatchOutcome::NoMatch => {}
        }
    }

    // Tagged places are counted over the *live* place set (the registry
    // retires signatures superseded by the periodic compaction; the
    // lifelog app may still hold history for them).
    let tagged_live = report.places.iter().filter(|p| p.label.is_some()).count();
    ParticipantResult {
        discovered: report.places.len(),
        tagged: tagged_live,
        evaluable: correct + merged + divided,
        correct,
        merged,
        divided,
        likes: taste.likes(),
        dislikes: taste.dislikes(),
        energy_joules: report.energy_joules,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down study (4 participants × 4 days) exercising the whole
    /// pipeline; the full 16 × 14 run lives in the `deployment_study`
    /// binary.
    #[test]
    fn small_study_produces_sane_statistics() {
        let config = StudyConfig {
            participants: 4,
            days: 4,
            seed: 99,
            region: RegionProfile::urban_india(),
            threads: 1,
            obs: Obs::disabled(),
            ..Default::default()
        };
        let results = run_study(&config);
        assert_eq!(results.participants.len(), 4);
        assert!(
            results.total_discovered() >= 8,
            "got {}",
            results.total_discovered()
        );
        assert!(results.total_tagged() > 0);
        let tf = results.tagged_fraction();
        assert!(tf > 0.3 && tf <= 1.0, "tag fraction {tf}");
        assert!(results.total_evaluable() > 0);
        let cf = results.correct_fraction();
        assert!(cf >= 0.5, "correct fraction {cf}");
        assert!(results.likes() + results.dislikes() > 0);
        for p in &results.participants {
            assert!(p.energy_joules > 0.0);
            assert_eq!(p.evaluable, p.correct + p.merged + p.divided);
        }
    }
}

#[cfg(test)]
mod aggregation_tests {
    use super::*;

    fn participant(
        discovered: usize,
        tagged: usize,
        correct: usize,
        merged: usize,
        divided: usize,
        likes: u32,
        dislikes: u32,
    ) -> ParticipantResult {
        ParticipantResult {
            discovered,
            tagged,
            evaluable: correct + merged + divided,
            correct,
            merged,
            divided,
            likes,
            dislikes,
            energy_joules: 1_000.0,
        }
    }

    #[test]
    fn totals_and_fractions() {
        let results = StudyResults {
            participants: vec![
                participant(10, 7, 4, 1, 0, 17, 3),
                participant(6, 3, 2, 0, 1, 0, 0),
            ],
            cloud_requests: 0,
        };
        assert_eq!(results.total_discovered(), 16);
        assert_eq!(results.total_tagged(), 10);
        assert!((results.tagged_fraction() - 10.0 / 16.0).abs() < 1e-12);
        assert_eq!(results.total_evaluable(), 8);
        assert!((results.correct_fraction() - 6.0 / 8.0).abs() < 1e-12);
        assert!((results.merged_fraction() - 1.0 / 8.0).abs() < 1e-12);
        assert!((results.divided_fraction() - 1.0 / 8.0).abs() < 1e-12);
        assert_eq!(results.likes(), 17);
        assert_eq!(results.dislikes(), 3);
        assert!((results.like_fraction() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn empty_study_has_zero_fractions() {
        let results = StudyResults {
            participants: vec![],
            cloud_requests: 0,
        };
        assert_eq!(results.total_discovered(), 0);
        assert_eq!(results.tagged_fraction(), 0.0);
        assert_eq!(results.correct_fraction(), 0.0);
        assert_eq!(results.like_fraction(), 0.0);
    }

    #[test]
    fn fractions_sum_to_one_when_evaluable() {
        let results = StudyResults {
            participants: vec![participant(5, 5, 3, 1, 1, 2, 2)],
            cloud_requests: 0,
        };
        let sum =
            results.correct_fraction() + results.merged_fraction() + results.divided_fraction();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
