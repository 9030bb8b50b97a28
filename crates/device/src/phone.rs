//! The simulated phone: sensors bound to a position source and a battery.

use pmware_geo::{GeoPoint, Meters};
use pmware_mobility::Itinerary;
use pmware_obs::{Counter, Obs};
use pmware_world::ids::TowerId;
use pmware_world::radio::{GsmScratch, RadioEnvironment, WifiScratch};
use pmware_world::{GpsFix, GsmObservation, MotionState, SimTime, WifiScan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::battery::Battery;
use crate::energy::{EnergyModel, Interface};

/// Source of the device's true position and motion over time.
///
/// Implemented by [`pmware_mobility::Itinerary`] (a moving study
/// participant) and by [`GeoPoint`] (a fixed position, convenient in
/// tests and calibration runs).
pub trait PositionProvider {
    /// True position at `t`.
    fn position_at(&self, t: SimTime) -> GeoPoint;
    /// True motion state at `t`.
    fn motion_at(&self, t: SimTime) -> MotionState;
}

impl PositionProvider for Itinerary {
    fn position_at(&self, t: SimTime) -> GeoPoint {
        Itinerary::position_at(self, t)
    }
    fn motion_at(&self, t: SimTime) -> MotionState {
        Itinerary::motion_at(self, t)
    }
}

impl PositionProvider for GeoPoint {
    fn position_at(&self, _t: SimTime) -> GeoPoint {
        *self
    }
    fn motion_at(&self, _t: SimTime) -> MotionState {
        MotionState::Stationary
    }
}

impl<P: PositionProvider + ?Sized> PositionProvider for &P {
    fn position_at(&self, t: SimTime) -> GeoPoint {
        (**self).position_at(t)
    }
    fn motion_at(&self, t: SimTime) -> MotionState {
        (**self).motion_at(t)
    }
}

/// Probability that one accelerometer window misclassifies the motion state.
const ACCEL_ERROR_PROB: f64 = 0.04;

/// Bluetooth discovery radius.
const BLUETOOTH_RANGE: Meters = Meters::new(25.0);

/// Probability that an in-range Bluetooth peer answers an inquiry scan.
const BLUETOOTH_DETECT_PROB: f64 = 0.85;

/// Converts joules to whole microjoules for the metrics registry.
/// Integer microjoules keep snapshot totals independent of float
/// accumulation order.
fn microjoules(joules: f64) -> u64 {
    (joules * 1e6).round() as u64
}

/// Pre-resolved per-interface metric handles. All no-ops until
/// [`Device::set_obs`] attaches a live registry, so the default device is
/// exactly as cheap as an uninstrumented one.
#[derive(Debug, Default)]
struct DeviceMetrics {
    /// Indexed in [`Interface::ALL`] order.
    samples: [Counter; Interface::ALL.len()],
    energy_uj: [Counter; Interface::ALL.len()],
    baseline_uj: Counter,
}

/// Position of `interface` in [`Interface::ALL`], used to index the
/// pre-resolved handle arrays.
fn interface_slot(interface: Interface) -> usize {
    match interface {
        Interface::Gps => 0,
        Interface::WifiScan => 1,
        Interface::Bluetooth => 2,
        Interface::Gsm => 3,
        Interface::Accelerometer => 4,
    }
}

impl DeviceMetrics {
    fn resolve(obs: &Obs) -> DeviceMetrics {
        let actor = obs.actor();
        let mut metrics = DeviceMetrics::default();
        for (slot, interface) in Interface::ALL.iter().enumerate() {
            let labels = [("user", actor), ("interface", interface.label())];
            metrics.samples[slot] = obs.counter("device_samples_total", &labels);
            metrics.energy_uj[slot] = obs.counter("device_energy_microjoules_total", &labels);
        }
        metrics.baseline_uj = obs.counter(
            "device_energy_microjoules_total",
            &[("user", actor), ("interface", "baseline")],
        );
        metrics
    }

    #[inline]
    fn sample(&self, interface: Interface, joules: f64) {
        let slot = interface_slot(interface);
        self.samples[slot].inc();
        self.energy_uj[slot].add(microjoules(joules));
    }
}

/// A simulated phone: each sensor read consults the radio environment at
/// the provider's true position and bills the battery.
///
/// # Examples
///
/// ```
/// use pmware_device::{Device, EnergyModel};
/// use pmware_world::builder::{RegionProfile, WorldBuilder};
/// use pmware_world::radio::{RadioConfig, RadioEnvironment};
/// use pmware_world::SimTime;
///
/// let world = WorldBuilder::new(RegionProfile::test_tiny()).seed(1).build();
/// let env = RadioEnvironment::new(&world, RadioConfig::default());
/// let spot = world.places()[0].position();
/// let mut phone = Device::new(env, spot, EnergyModel::htc_explorer(), 7);
/// let obs = phone.sample_gsm(SimTime::EPOCH).expect("in coverage");
/// assert!(obs.rssi_dbm < 0.0);
/// assert!(phone.battery().drained_joules() > 0.0);
/// ```
#[derive(Debug)]
pub struct Device<'w, P> {
    env: RadioEnvironment<'w>,
    provider: P,
    battery: Battery,
    model: EnergyModel,
    rng: StdRng,
    serving: Option<TowerId>,
    billed_until: SimTime,
    gsm_scratch: GsmScratch,
    wifi_scratch: WifiScratch,
    wifi_scan: WifiScan,
    metrics: DeviceMetrics,
}

impl<'w, P: PositionProvider> Device<'w, P> {
    /// Creates a device with a full battery.
    pub fn new(env: RadioEnvironment<'w>, provider: P, model: EnergyModel, seed: u64) -> Self {
        let battery = Battery::new(model.battery());
        Device {
            env,
            provider,
            battery,
            model,
            rng: StdRng::seed_from_u64(seed),
            serving: None,
            billed_until: SimTime::EPOCH,
            gsm_scratch: GsmScratch::default(),
            wifi_scratch: WifiScratch::default(),
            wifi_scan: WifiScan {
                time: SimTime::EPOCH,
                readings: Vec::new(),
            },
            metrics: DeviceMetrics::default(),
        }
    }

    /// Attaches an observability handle: per-interface sample counts and
    /// microjoules drained flow into its registry from now on. Bind before
    /// the device is first billed; nothing recorded earlier is carried
    /// over. A device that outlives a service reboot is bound again to the
    /// same registry, which resolves the same cells. The default device
    /// records nothing (every handle is a no-op), so instrumentation costs
    /// nothing until a study opts in.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.metrics = DeviceMetrics::resolve(obs);
    }

    /// The battery state.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// The device's true position (ground truth, not a sensor reading).
    pub fn true_position(&self, t: SimTime) -> GeoPoint {
        self.provider.position_at(t)
    }

    /// Bills idle baseline drain up to `now`. Call once per outer loop tick;
    /// repeated calls for the same instant are free.
    pub fn bill_baseline(&mut self, now: SimTime) {
        if now > self.billed_until {
            let dt = now.since(self.billed_until).as_seconds() as f64;
            let joules = self.model.baseline_w() * dt;
            self.battery.drain_baseline(joules);
            self.metrics.baseline_uj.add(microjoules(joules));
            self.billed_until = now;
        }
    }

    /// Bills one sample of `interface` to the battery and mirrors the
    /// cost into the metrics registry (a no-op until [`Device::set_obs`]).
    fn drain_sample(&mut self, interface: Interface) {
        let joules = self.model.sample_cost_j(interface);
        self.battery.drain(interface, joules);
        self.metrics.sample(interface, joules);
    }

    /// Reads the serving cell. Costs one GSM sample of energy. Returns
    /// `None` outside coverage (energy is still spent on the attempt).
    pub fn sample_gsm(&mut self, t: SimTime) -> Option<GsmObservation> {
        self.drain_sample(Interface::Gsm);
        let pos = self.provider.position_at(t);
        let (obs, serving) = self.env.observe_gsm_with(
            &mut self.gsm_scratch,
            pos,
            t,
            self.serving,
            &mut self.rng,
        )?;
        self.serving = Some(serving);
        Some(obs)
    }

    /// Performs a WiFi scan. Costs one scan of energy.
    ///
    /// The returned scan borrows a buffer owned by the device and is
    /// overwritten by the next call; clone it to keep readings across
    /// scans.
    pub fn scan_wifi(&mut self, t: SimTime) -> &WifiScan {
        self.drain_sample(Interface::WifiScan);
        let pos = self.provider.position_at(t);
        self.env.scan_wifi_with(
            &mut self.wifi_scratch,
            &mut self.wifi_scan,
            pos,
            t,
            &mut self.rng,
        );
        &self.wifi_scan
    }

    /// Attempts a GPS fix. Costs one fix of energy even when no fix is
    /// obtained (the receiver still searched for satellites).
    pub fn fix_gps(&mut self, t: SimTime) -> Option<GpsFix> {
        self.drain_sample(Interface::Gps);
        let pos = self.provider.position_at(t);
        self.env.fix_gps(pos, t, &mut self.rng)
    }

    /// Reads one accelerometer window: the true motion state with a small
    /// misclassification probability. Costs one window of energy.
    pub fn read_accelerometer(&mut self, t: SimTime) -> MotionState {
        self.drain_sample(Interface::Accelerometer);
        let truth = self.provider.motion_at(t);
        if self.rng.gen_bool(ACCEL_ERROR_PROB) {
            match truth {
                MotionState::Moving => MotionState::Stationary,
                MotionState::Stationary => MotionState::Moving,
            }
        } else {
            truth
        }
    }

    /// Performs a Bluetooth inquiry scan against candidate peers (each a
    /// `(tag, position)` pair) and returns the tags of discovered peers.
    /// Costs one inquiry of energy.
    pub fn scan_bluetooth<I: Clone>(&mut self, t: SimTime, peers: &[(I, GeoPoint)]) -> Vec<I> {
        self.drain_sample(Interface::Bluetooth);
        let pos = self.provider.position_at(t);
        peers
            .iter()
            .filter(|(_, p)| pos.equirectangular_distance(*p) <= BLUETOOTH_RANGE)
            .filter(|_| self.rng.gen_bool(BLUETOOTH_DETECT_PROB))
            .map(|(tag, _)| tag.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmware_mobility::Population;
    use pmware_world::builder::{RegionProfile, WorldBuilder};
    use pmware_world::radio::RadioConfig;
    use pmware_world::World;

    fn world() -> World {
        WorldBuilder::new(RegionProfile::test_tiny())
            .seed(2)
            .build()
    }

    #[test]
    fn every_sample_costs_energy() {
        let w = world();
        let env = RadioEnvironment::new(&w, RadioConfig::default());
        let spot = w.places()[0].position();
        let mut phone = Device::new(env, spot, EnergyModel::htc_explorer(), 1);
        let t = SimTime::EPOCH;
        let _ = phone.sample_gsm(t);
        let gsm = phone.battery().drained_by(Interface::Gsm);
        assert_eq!(gsm, 1.0);
        let _ = phone.scan_wifi(t);
        assert_eq!(phone.battery().drained_by(Interface::WifiScan), 6.0);
        let _ = phone.fix_gps(t);
        assert_eq!(phone.battery().drained_by(Interface::Gps), 25.0);
        let _ = phone.read_accelerometer(t);
        assert!(phone.battery().drained_by(Interface::Accelerometer) > 0.0);
        let _ = phone.scan_bluetooth::<u32>(t, &[]);
        assert!(phone.battery().drained_by(Interface::Bluetooth) > 0.0);
    }

    #[test]
    fn baseline_billing_is_idempotent_per_instant() {
        let w = world();
        let env = RadioEnvironment::new(&w, RadioConfig::default());
        let spot = w.places()[0].position();
        let mut phone = Device::new(env, spot, EnergyModel::htc_explorer(), 1);
        phone.bill_baseline(SimTime::from_seconds(100));
        let after_first = phone.battery().baseline_joules();
        assert!((after_first - 0.025 * 100.0).abs() < 1e-9);
        phone.bill_baseline(SimTime::from_seconds(100));
        assert_eq!(phone.battery().baseline_joules(), after_first);
        phone.bill_baseline(SimTime::from_seconds(200));
        assert!((phone.battery().baseline_joules() - 0.025 * 200.0).abs() < 1e-9);
    }

    #[test]
    fn moving_device_changes_serving_cell_over_a_day() {
        let w = world();
        let pop = Population::generate(&w, 1, 3);
        let it = pop.itinerary(&w, pop.agents()[0].id(), 1);
        let env = RadioEnvironment::new(&w, RadioConfig::default());
        let mut phone = Device::new(env, &it, EnergyModel::htc_explorer(), 4);
        let mut cells = std::collections::HashSet::new();
        for minute in 0..(24 * 60) {
            let t = SimTime::from_seconds(minute * 60);
            if let Some(obs) = phone.sample_gsm(t) {
                cells.insert(obs.cell);
            }
        }
        assert!(
            cells.len() >= 3,
            "a day of movement should span cells, got {}",
            cells.len()
        );
    }

    #[test]
    fn accelerometer_mostly_truthful() {
        let w = world();
        let env = RadioEnvironment::new(&w, RadioConfig::default());
        let spot = w.places()[0].position();
        let mut phone = Device::new(env, spot, EnergyModel::htc_explorer(), 5);
        let n = 1_000;
        let errors = (0..n)
            .filter(|i| {
                phone
                    .read_accelerometer(SimTime::from_seconds(*i))
                    .is_moving() // truth is stationary
            })
            .count();
        let rate = errors as f64 / n as f64;
        assert!(rate > 0.005 && rate < 0.10, "error rate {rate}");
    }

    #[test]
    fn bluetooth_discovers_near_peers_only() {
        let w = world();
        let env = RadioEnvironment::new(&w, RadioConfig::default());
        let spot = w.places()[0].position();
        let near = spot.destination(0.0, Meters::new(5.0));
        let far = spot.destination(0.0, Meters::new(200.0));
        let mut phone = Device::new(env, spot, EnergyModel::htc_explorer(), 6);
        let mut near_hits = 0;
        let mut far_hits = 0;
        for i in 0..200 {
            let found = phone.scan_bluetooth(SimTime::from_seconds(i), &[(1u8, near), (2u8, far)]);
            if found.contains(&1) {
                near_hits += 1;
            }
            if found.contains(&2) {
                far_hits += 1;
            }
        }
        assert!(near_hits > 120, "near peer found {near_hits}/200");
        assert_eq!(far_hits, 0, "far peer must never appear");
    }

    #[test]
    fn obs_mirrors_battery_in_microjoules() {
        let w = world();
        let env = RadioEnvironment::new(&w, RadioConfig::default());
        let spot = w.places()[0].position();
        let mut phone = Device::new(env, spot, EnergyModel::htc_explorer(), 1);
        let obs = Obs::new().for_actor("p0000");
        phone.set_obs(&obs);
        let t = SimTime::EPOCH;
        let _ = phone.sample_gsm(t);
        let _ = phone.sample_gsm(SimTime::from_seconds(60));
        let _ = phone.fix_gps(t);
        phone.bill_baseline(SimTime::from_seconds(100));
        let snap = obs.metrics().unwrap().snapshot();
        assert_eq!(
            snap.counter_value("device_samples_total{interface=\"gsm\",user=\"p0000\"}"),
            2
        );
        let gsm_uj =
            snap.counter_value("device_energy_microjoules_total{interface=\"gsm\",user=\"p0000\"}");
        assert_eq!(
            gsm_uj,
            microjoules(phone.battery().drained_by(Interface::Gsm))
        );
        let base_uj = snap.counter_value(
            "device_energy_microjoules_total{interface=\"baseline\",user=\"p0000\"}",
        );
        assert_eq!(base_uj, microjoules(phone.battery().baseline_joules()));
    }

    #[test]
    fn fixed_point_provider_is_stationary() {
        let spot = GeoPoint::new(10.0, 20.0).unwrap();
        assert_eq!(spot.position_at(SimTime::EPOCH), spot);
        assert_eq!(spot.motion_at(SimTime::EPOCH), MotionState::Stationary);
    }
}
