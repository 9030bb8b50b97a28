//! Social discovery (§2.2.2): detecting the colleagues a user encounters,
//! via Bluetooth proximity, with targeted sensing and cloud sync.
//!
//! Two simulated colleagues share a workplace; one runs PMWare with a
//! meetup app that wants social contacts. PMWare duty-cycles Bluetooth
//! inquiries while stationary, records encounters into the mobility
//! profile, and the app queries the cloud for place-specific contacts.
//!
//! ```sh
//! cargo run --release --example social_contacts
//! ```

use pmware::cloud::{Payload, SocialQueryBody};
use pmware::core::pms::PeerProvider;
use pmware::prelude::*;

/// The other participants' phones, as the Bluetooth layer sees them.
struct Colleagues {
    others: Vec<(String, Itinerary)>,
}

impl PeerProvider for Colleagues {
    fn peers_at(&self, t: SimTime) -> Vec<(String, GeoPoint)> {
        self.others
            .iter()
            .map(|(name, it)| (name.clone(), it.position_at(t)))
            .collect()
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(41)
        .build();
    // Enough agents that some share a workplace.
    let population = Population::generate(&world, 8, 42);
    let days = 5;

    // Pick two colleagues.
    let (me, colleague) = {
        let mut pair = None;
        'outer: for (i, a) in population.agents().iter().enumerate() {
            for b in &population.agents()[i + 1..] {
                if a.workplace() == b.workplace() {
                    pair = Some((a.id(), b.id()));
                    break 'outer;
                }
            }
        }
        pair.expect("eight agents over twelve offices usually collide; reseed if not")
    };
    println!("participant {me} and colleague {colleague} share an office");

    let my_itinerary = population.itinerary(&world, me, days);
    let their_itinerary = population.itinerary(&world, colleague, days);

    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 44));
    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &my_itinerary,
        cloud,
        PmsConfig::for_participant(4),
        43,
    )?;

    // A meetup app that wants social contacts (targeted sensing: PMWare
    // only scans Bluetooth while the user is stationary at a place).
    let rx = pms.register_app(
        "meetups",
        AppRequirement::places(Granularity::Building).with_social(),
        IntentFilter::for_actions([actions::SOCIAL_CONTACT]),
    );
    pms.set_peer_provider(Box::new(Colleagues {
        others: vec![("colleague-phone".to_owned(), their_itinerary)],
    }));

    let end = SimTime::from_day_time(days, 0, 0, 0);
    pms.run(end)?;

    let encounters = pms.counters().encounters;
    println!("encounters recorded by PMS: {encounters}");
    let mut app_events = 0;
    for intent in rx.try_iter() {
        app_events += 1;
        println!(
            "  contact {} at place {:?} ({})",
            intent.extras["contact"], intent.extras["place"], intent.time
        );
    }
    println!("intents delivered to the meetup app: {app_events}");

    // §2.3.3: place-specific contact retrieval from the cloud.
    let resp = pms.cloud_client_mut().call(
        "/api/v1/social/query",
        SocialQueryBody { place: None },
        end,
    )?;
    let stored = match resp.body {
        Payload::Contacts { contacts } => contacts.len(),
        _ => 0,
    };
    println!("contacts stored on the cloud instance: {stored}");

    let bt_energy = pms.battery().drained_by(Interface::Bluetooth);
    println!("bluetooth energy spent: {bt_energy:.1} J (targeted: stationary-only scans)");
    Ok(())
}
