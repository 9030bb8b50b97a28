//! Battery drain accounting.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::energy::{BatterySpec, Interface};

/// A battery with per-interface drain attribution.
///
/// The redundancy experiments (§1 item 3) need to know not just *how much*
/// energy was spent but *on what*; every [`drain`](Battery::drain) is tagged
/// with the interface responsible.
///
/// # Examples
///
/// ```
/// use pmware_device::battery::Battery;
/// use pmware_device::energy::{BatterySpec, Interface};
///
/// let mut battery = Battery::new(BatterySpec::HTC_EXPLORER);
/// battery.drain(Interface::Gps, 25.0);
/// assert!(battery.remaining_fraction() < 1.0);
/// assert_eq!(battery.drained_by(Interface::Gps), 25.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    spec: BatterySpec,
    drained_j: f64,
    baseline_j: f64,
    by_interface: BTreeMap<Interface, f64>,
}

impl Battery {
    /// A full battery of the given specification.
    pub fn new(spec: BatterySpec) -> Self {
        Battery {
            spec,
            drained_j: 0.0,
            baseline_j: 0.0,
            by_interface: BTreeMap::new(),
        }
    }

    /// The specification.
    pub fn spec(&self) -> BatterySpec {
        self.spec
    }

    /// Drains `joules`, attributed to `interface`.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or not finite.
    pub fn drain(&mut self, interface: Interface, joules: f64) {
        assert!(
            joules.is_finite() && joules >= 0.0,
            "drain must be a non-negative energy, got {joules}"
        );
        self.drained_j += joules;
        *self.by_interface.entry(interface).or_insert(0.0) += joules;
    }

    /// Drains baseline (idle) energy not attributable to any interface.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or not finite.
    pub fn drain_baseline(&mut self, joules: f64) {
        assert!(
            joules.is_finite() && joules >= 0.0,
            "drain must be a non-negative energy, got {joules}"
        );
        self.drained_j += joules;
        self.baseline_j += joules;
    }

    /// Total energy drained so far in joules.
    pub fn drained_joules(&self) -> f64 {
        self.drained_j
    }

    /// Energy drained by one interface.
    pub fn drained_by(&self, interface: Interface) -> f64 {
        self.by_interface.get(&interface).copied().unwrap_or(0.0)
    }

    /// Baseline energy drained.
    pub fn baseline_joules(&self) -> f64 {
        self.baseline_j
    }

    /// Per-interface breakdown, sorted by interface.
    pub fn breakdown(&self) -> impl Iterator<Item = (Interface, f64)> + '_ {
        self.by_interface.iter().map(|(i, j)| (*i, *j))
    }

    /// Fraction of capacity remaining, in `[0, 1]` (0 when over-drained).
    pub fn remaining_fraction(&self) -> f64 {
        (1.0 - self.drained_j / self.spec.energy_joules()).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_sums_to_total() {
        let mut b = Battery::new(BatterySpec::HTC_EXPLORER);
        b.drain(Interface::Gps, 100.0);
        b.drain(Interface::Gsm, 2.0);
        b.drain(Interface::Gps, 50.0);
        b.drain_baseline(10.0);
        assert_eq!(b.drained_joules(), 162.0);
        assert_eq!(b.drained_by(Interface::Gps), 150.0);
        assert_eq!(b.drained_by(Interface::Gsm), 2.0);
        assert_eq!(b.drained_by(Interface::WifiScan), 0.0);
        assert_eq!(b.baseline_joules(), 10.0);
        let sum: f64 = b.breakdown().map(|(_, j)| j).sum::<f64>() + b.baseline_joules();
        assert_eq!(sum, b.drained_joules());
    }

    #[test]
    fn depletion() {
        let mut b = Battery::new(BatterySpec {
            capacity_mah: 1.0,
            voltage_v: 1.0,
        });
        b.drain(Interface::Gps, 3.6);
        assert_eq!(b.remaining_fraction(), 0.0);
    }

    #[test]
    fn remaining_fraction_decreases() {
        let mut b = Battery::new(BatterySpec::HTC_EXPLORER);
        let f0 = b.remaining_fraction();
        b.drain(Interface::WifiScan, 1_000.0);
        let f1 = b.remaining_fraction();
        assert!(f1 < f0);
        assert!(f1 > 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative energy")]
    fn negative_drain_rejected() {
        let mut b = Battery::new(BatterySpec::HTC_EXPLORER);
        b.drain(Interface::Gps, -1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative energy")]
    fn nan_drain_rejected() {
        let mut b = Battery::new(BatterySpec::HTC_EXPLORER);
        b.drain_baseline(f64::NAN);
    }
}
