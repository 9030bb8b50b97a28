//! The phone's local GCA fallback. The inference engine only records GSM
//! samples; when the cloud is unreachable, the nightly fallback catches
//! the engine up and reads its places. Those places must equal the ones
//! of an engine that absorbed every sample as it arrived, and of batch
//! GCA over the whole log.

use pmware_algorithms::gca::{self, IncrementalGca};
use pmware_core::inference::{InferenceConfig, InferenceEngine};
use pmware_device::{Device, EnergyModel};
use pmware_mobility::Population;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{RadioConfig, RadioEnvironment};
use pmware_world::SimTime;

const MINUTES_PER_DAY: u64 = 24 * 60;

#[test]
fn fallback_from_day_three_equals_eager_absorb() {
    let days = 6;
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(600)
        .build();
    let population = Population::generate(&world, 1, 601);
    let itinerary = population.itinerary(&world, population.agents()[0].id(), days);
    let env = RadioEnvironment::new(&world, RadioConfig::default());
    let mut device = Device::new(env, &itinerary, EnergyModel::htc_explorer(), 602);

    let config = InferenceConfig::default();
    let mut phone = InferenceEngine::new(config.clone());
    let mut eager = IncrementalGca::new(config.gca.clone());
    let mut fallbacks = 0;
    for minute in 0..days * MINUTES_PER_DAY {
        let day = minute / MINUTES_PER_DAY;
        if minute % MINUTES_PER_DAY == 0 && day >= 3 {
            // Nightly maintenance with the cloud unreachable from day 3
            // on (days 1 and 2 offloaded, which leaves the phone's engine
            // untouched): the phone falls back to local discovery.
            let local = phone.local_discover();
            assert!(!local.is_empty(), "day {day}: nothing discovered");
            assert_eq!(local, eager.discovered_places(), "day {day}");
            assert_eq!(
                local,
                gca::discover_places(phone.gsm_log(), &config.gca).places,
                "day {day}"
            );
            fallbacks += 1;
            if day == 4 {
                // A reboot mid-outage: restore records the log again
                // without absorbing it.
                phone = InferenceEngine::restore(config.clone(), phone.snapshot(), &[]);
            }
        }
        if let Some(obs) = device.sample_gsm(SimTime::from_seconds(minute * 60)) {
            let _ = phone.on_gsm(obs);
            eager.absorb(std::slice::from_ref(&obs));
        }
    }
    assert_eq!(fallbacks, days - 3);
    assert_eq!(phone.local_discover(), eager.discovered_places());
}
