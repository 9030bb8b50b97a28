//! The §4 deployment study, reproduced in simulation.
//!
//! Sixteen participants carry PMWare + PlaceADs (+ the life-logging UI) for
//! two weeks. The study measures:
//!
//! * **DEP-A** — places discovered in total (paper: 123), fraction the
//!   participants tagged (paper: 85/123 ≈ 70 %), and the evaluable subset
//!   (tagged places with departure information; paper: 62);
//! * **DEP-B** — discovery quality over the evaluable places with GSM-only
//!   discovery: correct / merged / divided (paper, GSM + opportunistic
//!   WiFi: 79.03 % / 14.52 % / 6.45 %). The study's apps ask for area
//!   (PlaceADs) and building (life log) granularity, and the sensing
//!   scheduler scans WiFi only for room-level demand or high-accuracy
//!   routes, so no participant's phone ever scans WiFi;
//! * **DEP-C** — PlaceADs like:dislike ratio (paper: 17:3 = 85 % likes).

use crossbeam::channel::Receiver;
use pmware_algorithms::matching::MatchOutcome;
use pmware_apps::{AdInventory, LifeLogApp, PlaceAdsApp, UserTasteModel};
use pmware_cloud::{CellDatabase, CloudEndpoint, CloudInstance, SharedCloud, StorageConfig};
use pmware_core::registry::PmPlaceId;
use pmware_core::{score_against_diary, Intent, PmsConfig, PmwareMobileService};
use pmware_mobility::{AgentProfile, Itinerary, Population};
use pmware_obs::Obs;
use pmware_world::builder::{RegionProfile, WorldBuilder};
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
    let cloud = SharedCloud::new(instance);
    let population = Population::generate(&world, config.participants, config.seed + 2);

    // Everything a participant needs is derived from per-participant seeds,
    // so worker scheduling cannot change any result; `parallel_map`
    // reassembles in agent order.
    let jobs: Vec<(&AgentProfile, Itinerary)> = population
        .agents()
        .iter()
        .map(|agent| (agent, population.itinerary(&world, agent.id(), config.days)))
        .collect();
    let participants = crate::parallel::parallel_map(
        jobs,
        crate::parallel::resolve_threads(config.threads),
        |(agent, itinerary)| {
            let mut participant =
                StudyParticipant::new(&world, cloud.clone(), agent, &itinerary, config);
            // Day by day, so the apps interact as the study unfolds.
            for day in 1..=config.days {
                participant.day(day);
            }
            participant.finish(SimTime::from_day_time(config.days, 0, 0, 0))
        },
    );

    StudyResults {
        participants,
        cloud_requests: cloud.total_requests(),
    }
}

/// One §4 participant: PMS on the study phone
/// ([`PmwareMobileService::on_itinerary`]) with PlaceADs and the life
/// logger installed, the user's ad taste, and the itinerary whose diary
/// scores the phone. [`run_study`] calls [`day`](Self::day) for each day
/// and then [`finish`](Self::finish); a participant's outcome depends on
/// its own inputs only, so drivers may interleave participants' days.
pub struct StudyParticipant<'w> {
    pms: PmwareMobileService<'w, &'w Itinerary>,
    ads_rx: Receiver<Intent>,
    log_rx: Receiver<Intent>,
    placeads: PlaceAdsApp,
    lifelog: LifeLogApp,
    taste: UserTasteModel,
    itinerary: &'w Itinerary,
}

impl<'w> StudyParticipant<'w> {
    /// Registers `agent`'s phone with `cloud` and installs both §3
    /// applications. The device, taste and life-log seeds derive from
    /// `config.seed` and the agent's index `n`, and `config.obs` is bound
    /// to the PMS under the actor `p{n:04}`. Panics when registration
    /// fails.
    pub fn new(
        world: &'w World,
        cloud: impl Into<CloudEndpoint>,
        agent: &AgentProfile,
        itinerary: &'w Itinerary,
        config: &StudyConfig,
    ) -> StudyParticipant<'w> {
        let index = agent.id().0;
        let mut pms = PmwareMobileService::on_itinerary(
            world,
            itinerary,
            cloud,
            PmsConfig::for_participant(index),
            config.seed + 200 + index as u64,
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
        StudyParticipant {
            pms,
            ads_rx,
            log_rx,
            placeads: PlaceAdsApp::new(AdInventory::from_world(world)),
            lifelog: LifeLogApp::new(agent.tag_probability(), config.seed + 300 + index as u64),
            taste: UserTasteModel::from_agent(agent, config.seed + 100 + index as u64),
            itinerary,
        }
    }

    /// Runs the phone to the start of `day` (1-based), then does that
    /// evening's app work: the user tags places in the life log and
    /// swipes the day's ad cards.
    pub fn day(&mut self, day: u64) {
        self.pms
            .run(SimTime::from_day_time(day, 0, 0, 0))
            .expect("run never fails after registration");

        for intent in self.log_rx.try_iter() {
            self.lifelog.on_intent(&intent);
        }
        for (place, label) in self.lifelog.take_pending_labels() {
            self.pms.label_place(PmPlaceId(place), label);
        }
        for intent in self.ads_rx.try_iter().collect::<Vec<_>>() {
            if let Some(card) = self.placeads.on_intent(&intent) {
                let true_position = self.itinerary.position_at(card.served_at);
                let _ = self.taste.swipe(&card, true_position);
            }
        }
    }

    /// Ends the study at `end` and scores the participant: the places
    /// PMS discovered against the diary ([`score_against_diary`]), counted
    /// over the tagged places that carry departure information, as §4
    /// computes its percentages.
    pub fn finish(self, end: SimTime) -> ParticipantResult {
        let report = self.pms.finish(end);
        let matching = score_against_diary(&report.places, self.itinerary);

        let evaluable: std::collections::BTreeSet<u32> =
            self.lifelog.evaluable_places().into_iter().collect();
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

        // Tagged places are counted over the *live* place set (the
        // registry retires signatures superseded by the periodic
        // compaction; the lifelog app may still hold history for them).
        let tagged_live = report.places.iter().filter(|p| p.label.is_some()).count();
        ParticipantResult {
            discovered: report.places.len(),
            tagged: tagged_live,
            evaluable: correct + merged + divided,
            correct,
            merged,
            divided,
            likes: self.taste.likes(),
            dislikes: self.taste.dislikes(),
            energy_joules: report.energy_joules,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down study (4 participants × 4 days) exercising the whole
    /// pipeline; the full 16 × 14 run is `paper dep`.
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

    /// DEP-B is reported as GSM-only discovery because the study never
    /// scans WiFi: PlaceADs asks for area and the life log for building
    /// granularity, and the scheduler scans WiFi only for room-level
    /// demand or high-accuracy routes. A change that gives the study WiFi
    /// evidence must fail here and retitle DEP-B with it.
    #[test]
    fn study_never_scans_wifi() {
        let obs = Obs::new();
        let config = StudyConfig {
            participants: 2,
            days: 2,
            seed: 7,
            obs: obs.clone(),
            ..Default::default()
        };
        run_study(&config);
        let snapshot = obs.metrics().expect("a live handle").snapshot();
        let samples = |interface: &str| {
            snapshot.counter_sum_with_prefix(&format!(
                "device_samples_total{{interface=\"{interface}\","
            ))
        };
        assert!(samples("gsm") > 0, "the study's phones sampled no GSM");
        assert_eq!(samples("wifi"), 0, "the study scanned WiFi");
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
