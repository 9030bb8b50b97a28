//! Radio propagation: turning a true position into sensor observations.
//!
//! This is the substrate that replaces a real phone's radios. It reproduces
//! the phenomena the paper's algorithms are designed around:
//!
//! * **Oscillation effect** (§2.2.2): while the user is stationary, the
//!   serving cell switches among nearby towers because of load and
//!   small-time-scale signal fading, including 2G↔3G inter-network handoffs.
//!   Modelled with log-normal shadow fading, a handoff hysteresis margin,
//!   and random load-rebalancing events that suppress the hysteresis.
//! * **WiFi scan variability**: per-AP detection is probabilistic in
//!   distance, so consecutive scans at the same spot differ — exactly what
//!   SensLoc's Tanimoto similarity threshold absorbs.
//! * **GPS degradation indoors**: fixes indoors are unavailable most of the
//!   time and much noisier when they do appear.

use pmware_geo::{GeoPoint, Meters};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::ids::{Bssid, TowerId};
use crate::observation::{GpsFix, GsmObservation, WifiReading, WifiScan};
use crate::time::SimTime;
use crate::world::World;

/// Gaussian sample via Box–Muller (the `rand` crate alone has no normal
/// distribution; pulling in `rand_distr` for one function is not worth it).
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    mean + sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Tunable parameters of the propagation model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RadioConfig {
    /// Log-normal shadow-fading standard deviation (dB) applied per sample.
    pub shadow_sigma_db: f64,
    /// Handoff hysteresis: the serving cell is kept unless a neighbour beats
    /// it by this margin (dB). Smaller values mean more oscillation.
    pub hysteresis_db: f64,
    /// Per-sample probability that the network rebalances load, suppressing
    /// hysteresis for this sample (a source of oscillation while stationary).
    pub load_handoff_prob: f64,
    /// Per-sample probability of an inter-network (2G↔3G) handoff attempt.
    pub layer_switch_prob: f64,
    /// Width of the serving-cell eligibility window (dB): any tower whose
    /// noisy signal is within this margin of the strongest can be handed
    /// the phone during a load event. Wider window → larger oscillation set.
    pub oscillation_window_db: f64,
    /// WiFi per-reading RSSI noise (dB).
    pub wifi_rssi_sigma_db: f64,
    /// GPS 1-sigma horizontal error outdoors.
    pub gps_outdoor_sigma: Meters,
    /// GPS 1-sigma horizontal error indoors (when a fix is available at all).
    pub gps_indoor_sigma: Meters,
    /// Probability that a GPS fix is obtained indoors.
    pub gps_indoor_availability: f64,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            shadow_sigma_db: 5.0,
            hysteresis_db: 6.0,
            load_handoff_prob: 0.10,
            layer_switch_prob: 0.03,
            oscillation_window_db: 13.0,
            wifi_rssi_sigma_db: 4.0,
            gps_outdoor_sigma: Meters::new(6.0),
            gps_indoor_sigma: Meters::new(30.0),
            gps_indoor_availability: 0.25,
        }
    }
}

/// Caller-owned state for [`RadioEnvironment::observe_gsm_with`]: a
/// per-position cache plus the candidate buffer. One GSM sample per
/// simulated minute per participant makes `observe_gsm` the hottest call
/// in a cohort run, and a dwelling phone asks from the same position
/// minute after minute. Which towers are in range, and their mean
/// (pre-fading) signal, depend only on the world and the position, so
/// they are computed once per position; each sample then draws only the
/// fading. No per-sample heap allocation once the buffers have warmed up.
#[derive(Debug, Default, Clone)]
pub struct GsmScratch {
    /// The world's [`World::id`] and the position's bit pattern that
    /// `towers` was computed for; `None` before the first sample.
    key: Option<(u64, u64, u64)>,
    /// In-range towers with their mean RSSI, in grid order.
    towers: Vec<(TowerId, f64)>,
    candidates: Vec<(TowerId, f64)>,
}

/// Reusable structure-of-arrays buffer for
/// [`RadioEnvironment::scan_wifi_with`]. Detected APs accumulate into
/// parallel BSSID/RSSI columns and a permutation array is sorted instead
/// of the readings themselves; reused across sim minutes, a scan performs
/// no heap allocation once the columns have warmed up to the local AP
/// density.
#[derive(Debug, Default, Clone)]
pub struct WifiScratch {
    bssids: Vec<Bssid>,
    rssi_dbm: Vec<f64>,
    order: Vec<u32>,
}

/// The propagation model bound to a world.
///
/// Holds no per-device state: callers thread the previous serving tower
/// through [`observe_gsm`](Self::observe_gsm) and own the scratch buffers
/// (the GSM one with its per-position cache), so that several simulated
/// devices can share one environment.
#[derive(Debug, Clone)]
pub struct RadioEnvironment<'w> {
    world: &'w World,
    config: RadioConfig,
}

impl<'w> RadioEnvironment<'w> {
    /// Binds the model to a world with the given configuration.
    pub fn new(world: &'w World, config: RadioConfig) -> Self {
        RadioEnvironment { world, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RadioConfig {
        &self.config
    }

    /// The world this environment reads from.
    pub fn world(&self) -> &'w World {
        self.world
    }

    /// Samples the GSM modem at `position`.
    ///
    /// `prev_serving` is the tower the phone was camped on at the previous
    /// sample; handoff hysteresis applies to it. Returns the new observation
    /// and serving tower, or `None` outside network coverage.
    ///
    /// Convenience wrapper over [`observe_gsm_with`] that allocates a fresh
    /// scratch buffer per call; callers sampling in a loop (one per
    /// simulated minute) should hold a [`GsmScratch`] and use the `_with`
    /// variant instead.
    ///
    /// [`observe_gsm_with`]: Self::observe_gsm_with
    pub fn observe_gsm<R: Rng + ?Sized>(
        &self,
        position: GeoPoint,
        time: SimTime,
        prev_serving: Option<TowerId>,
        rng: &mut R,
    ) -> Option<(GsmObservation, TowerId)> {
        let mut scratch = GsmScratch::default();
        self.observe_gsm_with(&mut scratch, position, time, prev_serving, rng)
    }

    /// [`observe_gsm`](Self::observe_gsm) with a caller-owned scratch:
    /// the in-range towers are looked up only when `position` (or the
    /// world) differs from the previous call's, and the per-sample hot path
    /// performs no heap allocation once the buffers have warmed up to the
    /// local tower density. The draws, their order and hence every
    /// observation are the same as with a fresh scratch.
    pub fn observe_gsm_with<R: Rng + ?Sized>(
        &self,
        scratch: &mut GsmScratch,
        position: GeoPoint,
        time: SimTime,
        prev_serving: Option<TowerId>,
        rng: &mut R,
    ) -> Option<(GsmObservation, TowerId)> {
        let world = self.world;
        let GsmScratch {
            key,
            towers,
            candidates,
        } = scratch;
        let here = (
            world.id(),
            position.latitude().to_bits(),
            position.longitude().to_bits(),
        );
        if *key != Some(here) {
            towers.clear();
            world.for_each_tower_near(position, world.max_tower_range(), |tower, distance| {
                if distance <= tower.range() {
                    towers.push((tower.id(), tower.mean_rssi_at(distance)));
                }
            });
            *key = Some(here);
        }

        // Fade every candidate and track the strongest signal in one pass.
        candidates.clear();
        let mut best_rssi = f64::NEG_INFINITY;
        for &(id, mean_rssi) in towers.iter() {
            let rssi = mean_rssi + gaussian(rng, 0.0, self.config.shadow_sigma_db);
            best_rssi = best_rssi.max(rssi);
            candidates.push((id, rssi));
        }
        if candidates.is_empty() {
            return None;
        }

        // Towers whose signal is within the oscillation window of the best
        // are all plausible serving cells; the network moves phones among
        // them under load ("oscillating effect", §2.2.2). Filtering in
        // place is safe because every later read wants eligible towers:
        // the serving cell is always chosen from this set.
        candidates.retain(|&(_, r)| r >= best_rssi - self.config.oscillation_window_db);
        let eligible = &candidates[..];

        let load_event = rng.gen_bool(self.config.load_handoff_prob);
        let layer_hop = rng.gen_bool(self.config.layer_switch_prob);
        let prev_layer = prev_serving.map(|id| self.world.tower(id).layer());
        let prev_eligible = prev_serving
            .map(|id| eligible.iter().any(|(e, _)| *e == id))
            .unwrap_or(false);

        let serving = if prev_eligible && !load_event && !layer_hop {
            // Hysteresis: stay camped unless someone beats the previous cell
            // by the hysteresis margin.
            let prev = prev_serving.expect("prev_eligible implies prev");
            let prev_rssi = eligible
                .iter()
                .find(|(id, _)| *id == prev)
                .expect("prev is eligible")
                .1;
            if best_rssi > prev_rssi + self.config.hysteresis_db {
                eligible
                    .iter()
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite rssi"))
                    .expect("eligible non-empty")
                    .0
            } else {
                prev
            }
        } else {
            // Handoff event: pick among eligible towers, weighted by signal;
            // an inter-network hop prefers the other layer when available.
            // The pool is a predicate over `eligible`, never materialized:
            // it restricts to the other network layer only when a layer hop
            // has somewhere to go.
            let hop_from = if layer_hop { prev_layer } else { None };
            let restrict = hop_from.is_some_and(|pl| {
                eligible
                    .iter()
                    .any(|&(id, _)| self.world.tower(id).layer() != pl)
            });
            let in_pool = |id: TowerId| match hop_from {
                Some(pl) if restrict => self.world.tower(id).layer() != pl,
                _ => true,
            };
            // Softmax-style weights over dB relative to the pool's best.
            // The weight of each member is recomputed per pass — cheaper
            // than a weights vector, and bit-identical since the inputs
            // are the same.
            let mut pool_best = f64::NEG_INFINITY;
            let mut last_in_pool = None;
            for &(id, r) in eligible {
                if in_pool(id) {
                    pool_best = pool_best.max(r);
                    last_in_pool = Some(id);
                }
            }
            let mut total = 0.0;
            for &(id, r) in eligible {
                if in_pool(id) {
                    total += ((r - pool_best) / 4.0).exp();
                }
            }
            let mut pick = rng.gen_range(0.0..total);
            let mut chosen = last_in_pool.expect("pool non-empty");
            for &(id, r) in eligible {
                if !in_pool(id) {
                    continue;
                }
                let w = ((r - pool_best) / 4.0).exp();
                if pick < w {
                    chosen = id;
                    break;
                }
                pick -= w;
            }
            chosen
        };
        let tower = self.world.tower(serving);
        let rssi = eligible
            .iter()
            .find(|(id, _)| *id == serving)
            .expect("serving is eligible")
            .1;
        Some((
            GsmObservation {
                time,
                cell: tower.cell(),
                layer: tower.layer(),
                rssi_dbm: rssi,
            },
            serving,
        ))
    }

    /// Performs a WiFi scan at `position`.
    ///
    /// Each in-range access point is detected independently with a
    /// distance-dependent probability; detected APs get noisy RSSI readings,
    /// strongest first.
    pub fn scan_wifi<R: Rng + ?Sized>(
        &self,
        position: GeoPoint,
        time: SimTime,
        rng: &mut R,
    ) -> WifiScan {
        let mut scratch = WifiScratch::default();
        let mut out = WifiScan {
            time,
            readings: Vec::new(),
        };
        self.scan_wifi_with(&mut scratch, &mut out, position, time, rng);
        out
    }

    /// [`scan_wifi`](Self::scan_wifi) into caller-owned buffers: the
    /// detection pass fills the scratch's SoA columns (identical RNG draw
    /// order to the allocating variant), a stable sort on the permutation
    /// array orders readings strongest-first (the same comparator, hence
    /// the same permutation, as sorting the readings directly), and `out`
    /// is rewritten in place.
    pub fn scan_wifi_with<R: Rng + ?Sized>(
        &self,
        scratch: &mut WifiScratch,
        out: &mut WifiScan,
        position: GeoPoint,
        time: SimTime,
        rng: &mut R,
    ) {
        let WifiScratch {
            bssids,
            rssi_dbm,
            order,
        } = scratch;
        bssids.clear();
        rssi_dbm.clear();
        self.world.for_each_ap_near(
            position,
            self.world.max_ap_detection_limit(),
            |ap, distance| {
                let p = ap.detection_probability(distance);
                if p > 0.0 && rng.gen_bool(p) {
                    let rssi = ap.mean_rssi_at(distance)
                        + gaussian(rng, 0.0, self.config.wifi_rssi_sigma_db);
                    bssids.push(ap.bssid());
                    rssi_dbm.push(rssi);
                }
            },
        );
        order.clear();
        order.extend(0..bssids.len() as u32);
        order.sort_by(|&a, &b| {
            rssi_dbm[b as usize]
                .partial_cmp(&rssi_dbm[a as usize])
                .expect("rssi is finite")
        });
        out.time = time;
        out.readings.clear();
        out.readings.extend(order.iter().map(|&i| WifiReading {
            bssid: bssids[i as usize],
            rssi_dbm: rssi_dbm[i as usize],
        }));
    }

    /// Attempts a GPS fix at `position`.
    ///
    /// Indoors (inside an indoor place) fixes mostly fail; when they succeed
    /// the error is much larger. Returns `None` when no fix is obtained.
    pub fn fix_gps<R: Rng + ?Sized>(
        &self,
        position: GeoPoint,
        time: SimTime,
        rng: &mut R,
    ) -> Option<GpsFix> {
        let indoor = self
            .world
            .place_at(position)
            .map(|p| p.is_indoor())
            .unwrap_or(false);
        let sigma = if indoor {
            if !rng.gen_bool(self.config.gps_indoor_availability) {
                return None;
            }
            self.config.gps_indoor_sigma
        } else {
            self.config.gps_outdoor_sigma
        };
        let bearing = rng.gen_range(0.0..360.0);
        let err = gaussian(rng, 0.0, sigma.value()).abs();
        let reported = position.destination(bearing, Meters::new(err));
        Some(GpsFix {
            time,
            position: reported,
            accuracy: sigma,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{RegionProfile, WorldBuilder};
    use crate::wifi::AccessPoint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> World {
        WorldBuilder::new(RegionProfile::urban_india())
            .seed(42)
            .build()
    }

    #[test]
    fn gaussian_statistics() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd={}", var.sqrt());
    }

    #[test]
    fn gsm_observation_in_coverage() {
        let w = world();
        let env = RadioEnvironment::new(&w, RadioConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let pos = w.places()[0].position();
        let (obs, serving) = env
            .observe_gsm(pos, SimTime::EPOCH, None, &mut rng)
            .unwrap();
        assert!(obs.rssi_dbm < 0.0);
        assert_eq!(w.tower(serving).cell(), obs.cell);
    }

    #[test]
    fn stationary_phone_oscillates_but_not_wildly() {
        let w = world();
        let env = RadioEnvironment::new(&w, RadioConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        // places()[0] in this world sits almost on top of a tower (25 dB to
        // the runner-up), so no neighbour ever enters the oscillation
        // window there; places()[1] has typical several-towers-in-window
        // geometry, which is what this test is about.
        let pos = w.places()[1].position();
        let mut serving = None;
        let mut switches = 0;
        let mut distinct = std::collections::HashSet::new();
        let n = 600; // ten simulated hours of 1-minute samples
        for i in 0..n {
            let t = SimTime::from_seconds(i * 60);
            let (obs, s) = env.observe_gsm(pos, t, serving, &mut rng).unwrap();
            distinct.insert(obs.cell);
            if serving.is_some() && serving != Some(s) {
                switches += 1;
            }
            serving = Some(s);
        }
        // The oscillation effect must exist but the phone must not switch on
        // every sample: between 2% and 40% of samples.
        assert!(switches > n / 50, "too stable: {switches} switches");
        assert!(switches < n * 2 / 5, "too unstable: {switches} switches");
        assert!(
            distinct.len() >= 2,
            "oscillation must involve several cells"
        );
        assert!(
            distinct.len() <= 12,
            "oscillation set too large: {}",
            distinct.len()
        );
    }

    #[test]
    fn wifi_scan_near_place_sees_aps_repeatably() {
        let w = world();
        let env = RadioEnvironment::new(&w, RadioConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        // Find a place with WiFi coverage.
        let pos = w
            .places()
            .iter()
            .map(|p| p.position())
            .find(|pos| {
                let mut any = false;
                w.for_each_ap_near(*pos, Meters::new(100.0), |_, _| any = true);
                any
            })
            .expect("india profile has wifi at many places");
        let scans: Vec<WifiScan> = (0..10)
            .map(|i| env.scan_wifi(pos, SimTime::from_seconds(i * 60), &mut rng))
            .collect();
        assert!(scans.iter().all(|s| !s.is_empty()));
        // Scans vary but share most APs.
        let first: std::collections::HashSet<_> = scans[0].bssids().collect();
        let last: std::collections::HashSet<_> = scans[9].bssids().collect();
        let inter = first.intersection(&last).count();
        assert!(inter > 0, "consecutive scans at one spot should overlap");
    }

    #[test]
    fn wifi_readings_sorted_strongest_first() {
        let w = world();
        let env = RadioEnvironment::new(&w, RadioConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        for place in w.places().iter().take(10) {
            let scan = env.scan_wifi(place.position(), SimTime::EPOCH, &mut rng);
            for pair in scan.readings.windows(2) {
                assert!(pair[0].rssi_dbm >= pair[1].rssi_dbm);
            }
        }
    }

    #[test]
    fn gps_outdoor_accuracy_beats_indoor() {
        let w = world();
        let env = RadioEnvironment::new(&w, RadioConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        // Outdoors: middle of nowhere between places.
        let outdoor = w.bounds().center();
        let outdoor_fix = env.fix_gps(outdoor, SimTime::EPOCH, &mut rng);
        // An outdoor fix always succeeds (unless the bbox centre lands
        // inside an indoor place, which the builder avoids).
        if w.place_at(outdoor).is_none() {
            let fix = outdoor_fix.expect("outdoor fix always succeeds");
            let err = fix.position.equirectangular_distance(outdoor).value();
            assert!(err < 40.0, "outdoor error too large: {err}");
        }
        // Indoors: fixes frequently fail.
        let indoor_place = w.places().iter().find(|p| p.is_indoor()).unwrap();
        let mut failures = 0;
        for _ in 0..100 {
            if env
                .fix_gps(indoor_place.position(), SimTime::EPOCH, &mut rng)
                .is_none()
            {
                failures += 1;
            }
        }
        assert!(
            failures > 40,
            "indoor fixes should mostly fail, got {failures}/100 failures"
        );
    }

    #[test]
    fn derived_search_radii_miss_nothing() {
        let w = world();
        let env = RadioEnvironment::new(&w, RadioConfig::default());
        let mut rng = StdRng::seed_from_u64(8);
        let mut gsm = GsmScratch::default();
        for place in w.places() {
            let pos = place.position();
            let _ = env.observe_gsm_with(&mut gsm, pos, SimTime::EPOCH, None, &mut rng);

            let mut cached: Vec<TowerId> = gsm.towers.iter().map(|&(id, _)| id).collect();
            cached.sort();
            let every: Vec<TowerId> = w
                .towers()
                .iter()
                .filter(|t| t.covers(pos))
                .map(|t| t.id())
                .collect();
            assert_eq!(cached, every, "towers in range of {}", place.name());

            let detectable = |a: &AccessPoint, d: Meters| a.detection_probability(d) > 0.0;
            let mut searched: Vec<Bssid> = Vec::new();
            w.for_each_ap_near(pos, w.max_ap_detection_limit(), |a, d| {
                if detectable(a, d) {
                    searched.push(a.bssid());
                }
            });
            searched.sort();
            let mut every: Vec<Bssid> = w
                .access_points()
                .iter()
                .filter(|a| detectable(a, a.position().equirectangular_distance(pos)))
                .map(|a| a.bssid())
                .collect();
            every.sort();
            assert_eq!(searched, every, "APs detectable from {}", place.name());
        }
    }

    #[test]
    fn determinism_same_seed_same_observation() {
        let w = world();
        let env = RadioEnvironment::new(&w, RadioConfig::default());
        let pos = w.places()[1].position();
        let obs1 = {
            let mut rng = StdRng::seed_from_u64(9);
            env.observe_gsm(pos, SimTime::EPOCH, None, &mut rng)
                .unwrap()
        };
        let obs2 = {
            let mut rng = StdRng::seed_from_u64(9);
            env.observe_gsm(pos, SimTime::EPOCH, None, &mut rng)
                .unwrap()
        };
        assert_eq!(obs1.0, obs2.0);
        assert_eq!(obs1.1, obs2.1);
    }
}
