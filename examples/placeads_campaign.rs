//! PlaceADs end-to-end (§3–§4): contextual ad cards on place arrivals,
//! swiped by a simulated user, with the like:dislike tally the deployment
//! study reports.
//!
//! ```sh
//! cargo run --release --example placeads_campaign
//! ```

use pmware::apps::adsim::Swipe;
use pmware::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(21)
        .build();
    let population = Population::generate(&world, 1, 22);
    let agent = &population.agents()[0];
    let days = 14;
    let itinerary = population.itinerary(&world, agent.id(), days);
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 24));
    let mut pms = PmwareMobileService::on_itinerary(
        &world,
        &itinerary,
        cloud,
        PmsConfig::for_participant(2),
        23,
    )?;

    // PlaceADs delegates all place sensing to PMWare and only asks for
    // area-level granularity (Figure 2) — the user additionally caps it
    // there in her privacy preferences, which changes nothing since the
    // request is already coarse.
    let rx = pms.register_app(
        "placeads",
        PlaceAdsApp::requirement(),
        PlaceAdsApp::filter(),
    );
    pms.preferences_mut().set_cap("placeads", Granularity::Area);

    let mut app = PlaceAdsApp::new(AdInventory::from_world(&world));
    let mut user = UserTasteModel::from_agent(agent, 25);

    // Day-by-day: PMS runs, cards are served on each arrival intent, the
    // user swipes them with knowledge of where she actually was.
    for day in 1..=days {
        pms.run(SimTime::from_day_time(day, 0, 0, 0))?;
        for intent in rx.try_iter().collect::<Vec<_>>() {
            if let Some(card) = app.on_intent(&intent) {
                let truth = itinerary.position_at(card.served_at);
                let swipe = user.swipe(&card, truth);
                let distance = truth.equirectangular_distance(card.ad.position);
                println!(
                    "[{}] {} ({}, {:.0} m away) -> {}",
                    card.served_at,
                    card.ad.offer,
                    card.ad.category.label(),
                    distance.value(),
                    match swipe {
                        Swipe::Like => "LIKE",
                        Swipe::Dislike => "dislike",
                    }
                );
            }
        }
    }

    println!(
        "\ncampaign totals over {days} days: {} likes : {} dislikes ({:.0}% liked; paper: 17:3 = 85%)",
        user.likes(),
        user.dislikes(),
        user.like_fraction().unwrap_or(0.0) * 100.0
    );
    println!("cards served: {}", app.served().len());
    Ok(())
}
