//! Property-based tests for the middleware components: scheduler budgets,
//! privacy coarsening, intent filtering, profile-builder invariants, and
//! registry reconciliation.

use pmware_algorithms::signature::{
    DiscoveredPlace, DiscoveredPlaceId, DiscoveredVisit, PlaceSignature,
};
use pmware_core::apps::Demand;
use pmware_core::preferences::{coarsen_position, UserPreferences};
use pmware_core::profile_builder::ProfileBuilder;
use pmware_core::registry::PlaceRegistry;
use pmware_core::requirements::Granularity;
use pmware_core::sensing::{SensingConfig, SensingScheduler};
use pmware_geo::GeoPoint;
use pmware_world::{CellGlobalId, CellId, Lac, MotionState, Plmn, SimTime};
use proptest::prelude::*;

fn cell(id: u32) -> CellGlobalId {
    CellGlobalId {
        plmn: Plmn { mcc: 404, mnc: 45 },
        lac: Lac(1),
        cell: CellId(id),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scheduler_sample_counts_respect_periods(
        motion_bits in prop::collection::vec(any::<bool>(), 240),
        granularity_pick in 0u8..3,
    ) {
        let granularity = Granularity::ALL[granularity_pick as usize];
        let demand = Demand { granularity: Some(granularity), route: None, social: false };
        let config = SensingConfig::default();
        let mut s = SensingScheduler::new(config.clone());
        let (mut gsm, mut wifi, mut gps) = (0u64, 0u64, 0u64);
        for (minute, moving) in motion_bits.iter().enumerate() {
            let motion = if *moving { MotionState::Moving } else { MotionState::Stationary };
            let d = s.decide(SimTime::from_seconds(minute as u64 * 60), demand, motion);
            gsm += d.gsm as u64;
            wifi += d.wifi as u64;
            gps += d.gps as u64;
        }
        let minutes = motion_bits.len() as u64;
        // GSM every minute, exactly.
        prop_assert_eq!(gsm, minutes);
        // WiFi can never exceed one scan per wifi_moving_period, plus one
        // per motion transition.
        let transitions = motion_bits.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        let wifi_cap = minutes * 60 / config.wifi_moving_period.as_seconds() + transitions + 1;
        prop_assert!(wifi <= wifi_cap, "wifi {wifi} > cap {wifi_cap}");
        if granularity != Granularity::Room {
            prop_assert_eq!(wifi, 0);
        }
        if granularity != Granularity::Building {
            prop_assert_eq!(gps, 0);
        } else {
            let gps_cap = minutes * 60 / config.gps_moving_period.as_seconds() + transitions + 1;
            prop_assert!(gps <= gps_cap);
        }
    }

    #[test]
    fn coarsening_error_is_bounded_and_idempotent(
        lat in -60.0..60.0f64,
        lng in -170.0..170.0f64,
        granularity_pick in 0u8..3,
    ) {
        let granularity = Granularity::ALL[granularity_pick as usize];
        let p = GeoPoint::new(lat, lng).unwrap();
        let snapped = coarsen_position(p, granularity);
        let d = p.equirectangular_distance(snapped).value();
        // Displacement bounded by the cell diagonal.
        let bound = granularity.coarseness_m() * std::f64::consts::SQRT_2 / 2.0 + 1.0;
        prop_assert!(d <= bound, "displaced {d} > {bound}");
        // Snapping is idempotent.
        let again = coarsen_position(snapped, granularity);
        prop_assert!(snapped.equirectangular_distance(again).value() < 1e-6);
    }

    #[test]
    fn effective_granularity_never_finer_than_cap_or_request(
        cap_pick in prop::option::of(0u8..3),
        request_pick in 0u8..3,
        disabled in any::<bool>(),
    ) {
        let request = Granularity::ALL[request_pick as usize];
        let mut prefs = UserPreferences::new();
        if let Some(c) = cap_pick {
            prefs.set_cap("app", Granularity::ALL[c as usize]);
        }
        prefs.set_sharing_disabled(disabled);
        match prefs.effective_granularity("app", request) {
            None => prop_assert!(disabled),
            Some(effective) => {
                prop_assert!(!disabled);
                prop_assert!(effective <= request);
                if let Some(c) = cap_pick {
                    prop_assert!(effective <= Granularity::ALL[c as usize]);
                }
            }
        }
    }

    #[test]
    fn profile_builder_day_entries_stay_within_their_day(
        stays in prop::collection::vec((0u64..(5 * 1_440), 10u64..2_000), 1..20),
    ) {
        let mut b = ProfileBuilder::new();
        let mut clock = 0u64;
        for (i, (gap, len)) in stays.iter().enumerate() {
            clock += gap;
            let arrive = SimTime::from_seconds(clock * 60);
            clock += len;
            let depart = SimTime::from_seconds(clock * 60);
            b.on_arrival(DiscoveredPlaceId(i as u32 % 4), arrive);
            b.on_departure(depart);
        }
        let profiles = b.finish(SimTime::from_seconds(clock * 60));
        for p in &profiles {
            for entry in &p.places {
                prop_assert_eq!(entry.arrival.day(), p.day);
                prop_assert!(entry.departure.day() == p.day
                    || (entry.departure.day() == p.day + 1
                        && entry.departure.seconds_of_day() == 0));
                prop_assert!(entry.arrival <= entry.departure);
            }
        }
        // Total profiled stay equals total input stay.
        let profiled: u64 = profiles
            .iter()
            .flat_map(|p| p.places.iter())
            .map(|e| e.departure.since(e.arrival).as_seconds())
            .sum();
        let input: u64 = stays.iter().map(|(_, len)| len * 60).sum();
        prop_assert_eq!(profiled, input);
    }

    #[test]
    fn registry_reconcile_is_stable_under_identity(
        signatures in prop::collection::vec(
            prop::collection::btree_set(0u32..40, 1..5), 1..10),
    ) {
        let places: Vec<DiscoveredPlace> = signatures
            .iter()
            .enumerate()
            .map(|(i, cells)| {
                DiscoveredPlace::new(
                    DiscoveredPlaceId(i as u32),
                    PlaceSignature::Cells(cells.iter().map(|&c| cell(c)).collect()),
                    vec![DiscoveredVisit {
                        arrival: SimTime::from_seconds(0),
                        departure: SimTime::from_seconds(900),
                    }],
                )
            })
            .collect();
        let mut registry = PlaceRegistry::new();
        let first = registry.reconcile(&places, SimTime::EPOCH, 0.3);
        let after_first = registry.len();
        prop_assert_eq!(first.len(), after_first);
        // Reconciling the identical output again creates nothing new.
        let second = registry.reconcile(&places, SimTime::EPOCH, 0.3);
        prop_assert!(second.is_empty());
        prop_assert_eq!(registry.len(), after_first);
    }
}
