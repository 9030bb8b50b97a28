//! Property-based tests for the device substrate.

use pmware_device::energy::{BatterySpec, EnergyModel, Interface};
use pmware_device::{Battery, MovementDetector};
use pmware_world::{MotionState, SimDuration};
use proptest::prelude::*;

proptest! {
    #[test]
    fn battery_accounting_is_exact(
        drains in prop::collection::vec((0u8..5, 0.0..100.0f64), 0..50),
        baseline in 0.0..1_000.0f64,
    ) {
        let mut battery = Battery::new(BatterySpec::HTC_EXPLORER);
        let interfaces = [
            Interface::Gps,
            Interface::WifiScan,
            Interface::Gsm,
            Interface::Accelerometer,
            Interface::Bluetooth,
        ];
        let mut expected = 0.0;
        for (which, joules) in &drains {
            battery.drain(interfaces[*which as usize % 5], *joules);
            expected += joules;
        }
        battery.drain_baseline(baseline);
        expected += baseline;
        prop_assert!((battery.drained_joules() - expected).abs() < 1e-6);
        let by_parts: f64 = battery.breakdown().map(|(_, j)| j).sum::<f64>()
            + battery.baseline_joules();
        prop_assert!((by_parts - expected).abs() < 1e-6);
        let frac = battery.remaining_fraction();
        prop_assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn energy_duration_is_monotone_in_period(
        period_a in 1u64..10_000,
        period_b in 1u64..10_000,
    ) {
        prop_assume!(period_a < period_b);
        let model = EnergyModel::htc_explorer();
        for interface in Interface::ALL {
            let fast = model.battery_duration_hours(
                interface,
                SimDuration::from_seconds(period_a),
            );
            let slow = model.battery_duration_hours(
                interface,
                SimDuration::from_seconds(period_b),
            );
            prop_assert!(slow >= fast, "{interface:?}: {slow} < {fast}");
        }
    }

    #[test]
    fn combined_plan_never_outlasts_cheapest_member(
        periods in prop::collection::vec(30u64..3_600, 1..5),
    ) {
        let model = EnergyModel::htc_explorer();
        let plan: Vec<(Interface, SimDuration)> = periods
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                (Interface::ALL[i % Interface::ALL.len()], SimDuration::from_seconds(p))
            })
            .collect();
        let combined = model.combined_duration_hours(&plan);
        for (interface, period) in &plan {
            let alone = model.battery_duration_hours(*interface, *period);
            prop_assert!(combined <= alone + 1e-9);
        }
    }

    #[test]
    fn movement_detector_converges_to_majority(
        window in 1usize..10,
        noise in prop::collection::vec(any::<bool>(), 0..30),
    ) {
        let mut d = MovementDetector::new(window);
        for flip in noise {
            d.update(if flip { MotionState::Moving } else { MotionState::Stationary });
        }
        // A long run of a single state always wins in the end.
        for _ in 0..window * 2 {
            d.update(MotionState::Moving);
        }
        prop_assert_eq!(d.state(), MotionState::Moving);
        for _ in 0..window * 2 {
            d.update(MotionState::Stationary);
        }
        prop_assert_eq!(d.state(), MotionState::Stationary);
    }
}
