//! FIG5: Figure 5(b) — "Map-based visualization of all the places visited
//! by the participants during user study".
//!
//! Runs a reduced deployment cohort and renders an SVG map of the
//! simulated city: ground-truth places (by category), cell towers, and
//! the positions PMWare estimated for every discovered place, one colour
//! per participant. Written to `fig5_places_map.svg` in the working
//! directory.

use std::fmt::Write as _;

use pmware_bench::args::Args;
use pmware_bench::parallel::{parallel_map, resolve_threads};
use pmware_cloud::{CellDatabase, CloudInstance, SharedCloud};
use pmware_core::intents::IntentFilter;
use pmware_core::pms::{PmsConfig, PmwareMobileService};
use pmware_core::requirements::{AppRequirement, Granularity};
use pmware_device::{Device, EnergyModel};
use pmware_geo::GeoPoint;
use pmware_mobility::Population;
use pmware_world::builder::{RegionProfile, WorldBuilder};
use pmware_world::radio::{RadioConfig, RadioEnvironment};
use pmware_world::{PlaceCategory, SimTime, World};

const SIZE: f64 = 900.0;

struct Svg {
    body: String,
    world_sw: GeoPoint,
    lat_span: f64,
    lng_span: f64,
}

impl Svg {
    fn new(world: &World) -> Svg {
        let sw = world.bounds().south_west();
        let ne = world.bounds().north_east();
        Svg {
            body: String::new(),
            world_sw: sw,
            lat_span: ne.latitude() - sw.latitude(),
            lng_span: ne.longitude() - sw.longitude(),
        }
    }

    fn xy(&self, p: GeoPoint) -> (f64, f64) {
        let x = (p.longitude() - self.world_sw.longitude()) / self.lng_span * SIZE;
        let y = SIZE - (p.latitude() - self.world_sw.latitude()) / self.lat_span * SIZE;
        (x, y)
    }

    fn circle(&mut self, p: GeoPoint, r: f64, fill: &str, opacity: f64, title: &str) {
        let (x, y) = self.xy(p);
        writeln!(
            self.body,
            r#"<circle cx="{x:.1}" cy="{y:.1}" r="{r}" fill="{fill}" opacity="{opacity}"><title>{title}</title></circle>"#
        )
        .expect("write to string");
    }

    fn cross(&mut self, p: GeoPoint, size: f64, stroke: &str, title: &str) {
        let (x, y) = self.xy(p);
        writeln!(
            self.body,
            r#"<g stroke="{stroke}" stroke-width="1.5"><line x1="{x0:.1}" y1="{y:.1}" x2="{x1:.1}" y2="{y:.1}"/><line x1="{x:.1}" y1="{y0:.1}" x2="{x:.1}" y2="{y1:.1}"/><title>{title}</title></g>"#,
            x0 = x - size,
            x1 = x + size,
            y0 = y - size,
            y1 = y + size,
        )
        .expect("write to string");
    }

    fn finish(self, legend: &str) -> String {
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{s}\" height=\"{h}\" viewBox=\"0 0 {s} {h}\">\n\
             <rect width=\"{s}\" height=\"{h}\" fill=\"#fcfcf8\"/>\n{body}\n{legend}</svg>\n",
            s = SIZE,
            h = SIZE + 70.0,
            body = self.body,
        )
    }
}

fn category_color(c: PlaceCategory) -> &'static str {
    match c {
        PlaceCategory::Home => "#9ecae1",
        PlaceCategory::Workplace => "#fdae6b",
        PlaceCategory::Shopping | PlaceCategory::Restaurant => "#a1d99b",
        _ => "#d9d9d9",
    }
}

const PARTICIPANT_COLORS: [&str; 6] = [
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::for_binary(&["participants", "days", "threads"]);
    let participants: usize = args.value("participants", 6);
    let days: u64 = args.value("days", 14);
    let threads = resolve_threads(args.value("threads", 1));
    let world = WorldBuilder::new(RegionProfile::urban_india())
        .seed(2014)
        .build();
    let cloud = SharedCloud::new(CloudInstance::new(CellDatabase::from_world(&world), 2015));
    let population = Population::generate(&world, participants, 2016);

    let mut svg = Svg::new(&world);

    // Layer 1: cell towers as faint crosses.
    for tower in world.towers() {
        svg.cross(
            tower.position(),
            3.0,
            "#cccccc",
            &format!("{}", tower.cell()),
        );
    }
    // Layer 2: ground-truth places, category-coloured.
    for place in world.places() {
        svg.circle(
            place.position(),
            4.0,
            category_color(place.category()),
            0.9,
            place.name(),
        );
    }

    // Layer 3: each participant's discovered-place estimates. Participants
    // run on the worker pool; drawing happens afterwards in participant
    // order, so the SVG is identical at any thread count.
    let jobs: Vec<(usize, pmware_mobility::AgentProfile)> =
        population.agents().iter().cloned().enumerate().collect();
    let estimates = parallel_map(jobs, threads, |(i, agent)| {
        let itinerary = population.itinerary(&world, agent.id(), days);
        let env = RadioEnvironment::new(&world, RadioConfig::default());
        let device = Device::new(
            env,
            &itinerary,
            EnergyModel::htc_explorer(),
            2100 + i as u64,
        );
        let mut pms = PmwareMobileService::new(
            device,
            cloud.clone(),
            PmsConfig::for_participant(i as u32),
            SimTime::EPOCH,
        )
        .expect("registration succeeds");
        let _rx = pms.register_app(
            "mapper",
            AppRequirement::places(Granularity::Building),
            IntentFilter::all(),
        );
        pms.run(SimTime::from_day_time(days, 0, 0, 0))
            .expect("run succeeds");
        pms.places()
            .iter()
            .filter_map(|place| {
                place
                    .position
                    .map(|position| (position, format!("{}", place.id), place.visit_count))
            })
            .collect::<Vec<_>>()
    });
    let mut total = 0usize;
    for (i, places) in estimates.iter().enumerate() {
        let color = PARTICIPANT_COLORS[i % PARTICIPANT_COLORS.len()];
        for (position, id, visit_count) in places {
            total += 1;
            svg.circle(
                *position,
                6.0,
                color,
                0.55,
                &format!("participant {i}: {id} ({visit_count} visits)"),
            );
        }
    }

    let legend = format!(
        r#"<g font-family="sans-serif" font-size="13" transform="translate(10,{y})">
<text y="0" font-weight="bold">Figure 5b analogue: places discovered by {participants} participants over {days} days ({total} estimates)</text>
<text y="20">faint crosses: cell towers · small dots: ground-truth places (blue=home, orange=work, green=commerce)</text>
<text y="40">large translucent dots: PMWare place estimates, one colour per participant</text>
</g>"#,
        y = SIZE + 15.0,
    );
    let path = "fig5_places_map.svg";
    std::fs::write(path, svg.finish(&legend))?;
    println!(
        "FIG5: wrote {path} — {total} discovered-place estimates from {participants} participants over {days} days"
    );
    Ok(())
}
