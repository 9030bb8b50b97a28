//! Equivalence of [`IncrementalGca`] with batch [`gca::discover_places`]:
//! absorbing a stream in arbitrary chunks must yield a **bit-identical**
//! `GcaOutput` (places, signatures, visit timestamps, movement graph) to
//! a single batch pass over the concatenation. Recording a stream and
//! catching up later must give the same. Both engines share
//! `MovementGraph::components`, so its order is pinned separately,
//! against a cell-keyed reference kept in this file.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pmware_algorithms::gca::{self, GcaConfig, IncrementalGca, MovementGraph};
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimTime};
use proptest::prelude::*;

fn cell(id: u32) -> CellGlobalId {
    CellGlobalId {
        plmn: Plmn { mcc: 404, mnc: 45 },
        lac: Lac(1),
        cell: CellId(id),
    }
}

fn obs(minute: u64, id: u32) -> GsmObservation {
    GsmObservation {
        time: SimTime::from_seconds(minute * 60),
        cell: cell(id),
        layer: NetworkLayer::G2,
        rssi_dbm: -70.0,
    }
}

/// Absorbs `stream` in the chunk sizes given by `splits` (cumulative cut
/// points) and asserts both the running view and the final output equal
/// batch discovery over the prefix/whole stream.
fn assert_equivalent_at_splits(stream: &[GsmObservation], cuts: &[usize], config: &GcaConfig) {
    let mut engine = IncrementalGca::new(config.clone());
    let mut fed = 0;
    for &cut in cuts {
        let cut = cut.min(stream.len());
        if cut < fed {
            continue;
        }
        engine.absorb(&stream[fed..cut]);
        fed = cut;
        let batch = gca::discover_places(&stream[..fed], config);
        assert_eq!(
            engine.places(),
            batch,
            "incremental view diverged from batch after {fed} observations"
        );
    }
    engine.absorb(&stream[fed..]);
    assert_eq!(engine.observation_count(), stream.len());
    assert_eq!(engine.finish(), gca::discover_places(stream, config));
}

/// Random walk over a small cell alphabet: plenty of bounces, cluster
/// merges, and qualifying runs.
fn cell_stream() -> impl Strategy<Value = Vec<GsmObservation>> {
    prop::collection::vec(0u32..10, 10..300).prop_map(|ids| {
        ids.into_iter()
            .enumerate()
            .map(|(m, id)| obs(m as u64, id))
            .collect()
    })
}

/// A stream with occasional large time gaps so max-gap run breaks and the
/// dwell clamp are exercised, not just contiguous sampling.
fn gappy_stream() -> impl Strategy<Value = Vec<GsmObservation>> {
    prop::collection::vec((0u32..8, 0u32..100), 10..200).prop_map(|steps| {
        let mut minute = 0u64;
        steps
            .into_iter()
            .map(|(id, jump)| {
                minute += if jump < 12 { 45 } else { 1 };
                obs(minute, id)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_equals_batch_at_one_random_split(
        stream in cell_stream(),
        frac in 0.0..1.0f64,
    ) {
        let cut = (stream.len() as f64 * frac) as usize;
        assert_equivalent_at_splits(&stream, &[cut], &GcaConfig::default());
    }

    #[test]
    fn incremental_equals_batch_at_many_splits(
        stream in cell_stream(),
        mut cuts in prop::collection::vec(0usize..300, 1..8),
    ) {
        cuts.sort_unstable();
        assert_equivalent_at_splits(&stream, &cuts, &GcaConfig::default());
    }

    #[test]
    fn incremental_equals_batch_with_gaps(
        stream in gappy_stream(),
        frac in 0.0..1.0f64,
    ) {
        let cut = (stream.len() as f64 * frac) as usize;
        assert_equivalent_at_splits(&stream, &[cut], &GcaConfig::default());
    }

    #[test]
    fn observation_at_a_time_equals_batch(stream in cell_stream()) {
        // The most hostile chunking: every absorb is a single observation,
        // so every tail-window and partition-crossing path fires.
        let mut engine = IncrementalGca::new(GcaConfig::default());
        for o in &stream {
            engine.absorb(std::slice::from_ref(o));
        }
        prop_assert_eq!(engine.finish(), gca::discover_places(&stream, &GcaConfig::default()));
    }
}

#[test]
fn oscillation_run_straddling_the_split_is_one_visit() {
    // 40 minutes of A↔B oscillation split down the middle: the open run
    // must survive the split and come out as one qualifying visit.
    let stream: Vec<GsmObservation> = (0..40)
        .map(|m| obs(m, if m % 3 == 1 { 2 } else { 1 }))
        .collect();
    let config = GcaConfig::default();
    assert_equivalent_at_splits(&stream, &[20], &config);

    let mut engine = IncrementalGca::new(config.clone());
    engine.absorb(&stream[..20]);
    engine.absorb(&stream[20..]);
    let out = engine.finish();
    assert_eq!(out.places.len(), 1);
    assert_eq!(out.places[0].visits.len(), 1);
    assert_eq!(out.places[0].visits[0].arrival, SimTime::from_seconds(0));
}

#[test]
fn late_bounce_merges_clusters_retroactively() {
    // Phase 1: dwell in {1,2} (bouncing) then in {3,4} (bouncing) — two
    // separate places. Phase 2: a bounce pattern 2→3→2 crosses the
    // threshold and merges both clusters into one component, which must
    // retroactively relabel the earlier runs exactly as a batch pass does.
    let mut stream = Vec::new();
    for m in 0..30u64 {
        stream.push(obs(m, if m % 3 == 1 { 2 } else { 1 }));
    }
    for m in 30..60u64 {
        stream.push(obs(m, if m % 3 == 1 { 4 } else { 3 }));
    }
    for m in 60..90u64 {
        stream.push(obs(m, if m % 2 == 1 { 3 } else { 2 }));
    }
    let config = GcaConfig::default();
    // Split inside phase 2 so the merge happens across an absorb boundary.
    assert_equivalent_at_splits(&stream, &[45, 65, 70], &config);
}

#[test]
fn max_gap_break_straddling_the_split() {
    // A qualifying run, a 45-minute silence exactly at the split, then a
    // second qualifying run at the same place: must equal batch (two
    // visits, not one glued across the gap).
    let mut stream: Vec<GsmObservation> = (0..20)
        .map(|m| obs(m, if m % 3 == 1 { 2 } else { 1 }))
        .collect();
    let resume = 20 + 45;
    stream.extend((0..20).map(|m| obs(resume + m, if m % 3 == 1 { 2 } else { 1 })));
    let config = GcaConfig::default();
    assert_equivalent_at_splits(&stream, &[20], &config);

    let mut engine = IncrementalGca::new(config.clone());
    engine.absorb(&stream);
    let out = engine.finish();
    assert_eq!(out.places.len(), 1);
    assert_eq!(out.places[0].visits.len(), 2);
}

#[test]
fn empty_absorbs_are_harmless() {
    let stream: Vec<GsmObservation> = (0..40)
        .map(|m| obs(m, if m % 3 == 1 { 2 } else { 1 }))
        .collect();
    let config = GcaConfig::default();
    let mut engine = IncrementalGca::new(config.clone());
    engine.absorb(&[]);
    assert!(engine.is_empty());
    assert_eq!(engine.places(), gca::discover_places(&[], &config));
    engine.absorb(&stream);
    engine.absorb(&[]);
    assert_eq!(engine.finish(), gca::discover_places(&stream, &config));
}

#[test]
fn graph_matches_batch_movement_graph() {
    let stream: Vec<GsmObservation> = (0..120)
        .map(|m| obs(m, [1, 2, 1, 3, 4, 3][(m % 6) as usize]))
        .collect();
    let config = GcaConfig::default();
    let mut engine = IncrementalGca::new(config.clone());
    for chunk in stream.chunks(7) {
        engine.absorb(chunk);
    }
    let batch = gca::MovementGraph::build(&stream, &config);
    assert_eq!(engine.graph(), &batch);
    assert_eq!(
        engine.graph().edge_weight(cell(1), cell(2)),
        batch.edge_weight(cell(1), cell(2))
    );
}

#[test]
fn zero_min_bounce_weight_still_matches_batch() {
    // Threshold 0 means a single bounce qualifies an edge; the crossing
    // detector must treat the first occurrence as the crossing.
    let config = GcaConfig {
        min_bounce_weight: 0,
        ..GcaConfig::default()
    };
    let stream: Vec<GsmObservation> = (0..50)
        .map(|m| obs(m, [1, 2, 1, 1, 3][(m % 5) as usize]))
        .collect();
    assert_equivalent_at_splits(&stream, &[1, 2, 3, 10, 30], &config);
}

#[test]
fn dwell_clamp_over_long_gaps_matches_batch() {
    // Dwell attribution clamps inter-sample gaps at max_sample_gap; make
    // sure the incremental accounting applies the same clamp.
    let config = GcaConfig::default();
    let mut stream = Vec::new();
    let mut minute = 0;
    for rep in 0..12u64 {
        for m in 0..10u64 {
            stream.push(obs(minute + m, if m % 3 == 1 { 2 } else { 1 }));
        }
        minute += 10 + 30 * (rep % 2);
    }
    assert_equivalent_at_splits(&stream, &[17, 55, 90], &config);
}

#[test]
#[should_panic(expected = "suffix must not start before")]
#[cfg(debug_assertions)]
fn out_of_order_absorb_panics_in_debug() {
    let mut engine = IncrementalGca::new(GcaConfig::default());
    engine.absorb(&[obs(10, 1)]);
    engine.absorb(&[obs(5, 1)]);
}

/// The cell-keyed union-find `MovementGraph::components` once was, kept as
/// an independent reference: union every qualifying edge in ascending
/// cell-pair order, hanging the smaller cell's root under the larger
/// cell's, then group the cells by root, groups in root-cell order. The
/// component order decides place IDs, so the graph must reproduce it.
fn reference_components(graph: &MovementGraph, min_weight: u32) -> Vec<BTreeSet<CellGlobalId>> {
    fn find(parent: &mut HashMap<CellGlobalId, CellGlobalId>, x: CellGlobalId) -> CellGlobalId {
        let mut root = x;
        while parent[&root] != root {
            root = parent[&root];
        }
        let mut cur = x;
        while parent[&cur] != root {
            let next = parent[&cur];
            parent.insert(cur, root);
            cur = next;
        }
        root
    }

    let mut cells: Vec<CellGlobalId> = graph.cells().collect();
    cells.sort_unstable();
    let mut parent: HashMap<CellGlobalId, CellGlobalId> = cells.iter().map(|c| (*c, *c)).collect();
    for (i, &a) in cells.iter().enumerate() {
        for &b in &cells[i + 1..] {
            let w = graph.edge_weight(a, b);
            if w > 0 && w >= min_weight {
                let ra = find(&mut parent, a);
                let rb = find(&mut parent, b);
                if ra != rb {
                    parent.insert(ra, rb);
                }
            }
        }
    }
    let mut groups: BTreeMap<CellGlobalId, BTreeSet<CellGlobalId>> = BTreeMap::new();
    for &cell in &cells {
        let root = find(&mut parent, cell);
        groups.entry(root).or_default().insert(cell);
    }
    groups.into_values().collect()
}

/// A random walk over a random alphabet of cells that differ in every
/// field of the identity, so the cells' first-seen order (their symbol
/// order) is unrelated to their cell order.
fn random_graph_stream() -> impl Strategy<Value = Vec<GsmObservation>> {
    let cell = (0u16..3, 0u16..3, 0u32..60).prop_map(|(mnc, lac, id)| CellGlobalId {
        plmn: Plmn { mcc: 404, mnc },
        lac: Lac(lac),
        cell: CellId(id),
    });
    (
        prop::collection::vec(cell, 2..16),
        prop::collection::vec(0usize..16, 10..400),
    )
        .prop_map(|(alphabet, walk)| {
            walk.into_iter()
                .enumerate()
                .map(|(m, i)| GsmObservation {
                    time: SimTime::from_seconds(m as u64 * 60),
                    cell: alphabet[i % alphabet.len()],
                    layer: NetworkLayer::G2,
                    rssi_dbm: -70.0,
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn components_match_the_cell_keyed_reference(
        stream in random_graph_stream(),
        min_weight in 0u32..5,
    ) {
        let graph = MovementGraph::build(&stream, &GcaConfig::default());
        prop_assert_eq!(
            graph.components(min_weight),
            reference_components(&graph, min_weight)
        );
    }

    #[test]
    fn recording_then_catching_up_equals_eager_absorb(
        stream in random_graph_stream(),
        cuts in prop::collection::vec((0usize..400, 0u8..2), 0..8),
    ) {
        // Record the stream in the chunks the cuts give, catching up only
        // where the coin says so; the final catch-up must land on the same
        // engine state as absorbing every sample as it came.
        let config = GcaConfig::default();
        let mut cuts = cuts;
        cuts.sort_unstable();
        let mut lazy = IncrementalGca::new(config.clone());
        let mut fed = 0;
        for (cut, coin) in cuts {
            let cut = cut.min(stream.len());
            lazy.record(&stream[fed..cut]);
            fed = cut;
            if coin == 1 {
                lazy.catch_up();
                prop_assert_eq!(lazy.places(), gca::discover_places(&stream[..fed], &config));
            }
        }
        lazy.record(&stream[fed..]);
        prop_assert_eq!(lazy.observation_count(), stream.len());
        lazy.catch_up();

        let mut eager = IncrementalGca::new(config.clone());
        for o in &stream {
            eager.absorb(std::slice::from_ref(o));
        }
        let batch = gca::discover_places(&stream, &config);
        prop_assert_eq!(lazy.discovered_places(), eager.discovered_places());
        prop_assert_eq!(lazy.finish(), batch.clone());
        prop_assert_eq!(eager.finish(), batch);
    }
}

#[test]
fn recorded_observations_wait_for_the_catch_up() {
    let stream: Vec<GsmObservation> = (0..40)
        .map(|m| obs(m, if m % 3 == 1 { 2 } else { 1 }))
        .collect();
    let config = GcaConfig::default();
    let mut engine = IncrementalGca::new(config.clone());
    engine.record(&stream);
    // The log holds everything; the graph and the places only what was
    // absorbed, which is nothing yet.
    assert_eq!(engine.observations(), &stream[..]);
    assert_eq!(engine.last_time(), stream.last().map(|o| o.time));
    assert_eq!(engine.places(), gca::discover_places(&[], &config));
    engine.catch_up();
    assert_eq!(engine.places(), gca::discover_places(&stream, &config));
    assert_eq!(engine.discovered_places().len(), 1);
}

#[test]
fn merge_reaching_back_to_a_run_opened_at_the_first_sighting() {
    // A run in {1,2}; three foreign travel cells; then cell 3 is first
    // seen and, as the fourth foreign sample, closes the {1,2} run and
    // opens its own. After the split, 1↔3 bounces merge cell 3 into
    // {1,2}: rescanned, cell 3 now extends the first run, so the scan
    // must restart before cell 3's first sighting, not at it.
    let mut stream: Vec<GsmObservation> = (0..12)
        .map(|m| obs(m, if m % 2 == 0 { 1 } else { 2 }))
        .collect();
    stream.extend([obs(12, 10), obs(13, 11), obs(14, 12)]);
    stream.extend((15..19).map(|m| obs(m, 3)));
    stream.extend((19..30).map(|m| obs(m, if m % 2 == 1 { 1 } else { 3 })));
    assert_equivalent_at_splits(&stream, &[19], &GcaConfig::default());
}
