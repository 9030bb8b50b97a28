//! Equivalence of [`IncrementalGca`] with batch [`gca::discover_places`]:
//! absorbing a stream in arbitrary chunks must yield a **bit-identical**
//! `GcaOutput` (places, signatures, visit timestamps, movement graph) to
//! a single batch pass over the concatenation. Recording a stream and
//! catching up later must give the same. Both engines share
//! `MovementGraph::components`, so its order is pinned separately,
//! against a cell-keyed reference kept in this file. An engine restored
//! from its export continues exactly like the one never interrupted, and
//! the restore refuses, without panicking, every export it cannot trust.
//! A dictionary-coded batch absorbed without decoding lands on the same
//! engine as its observations absorbed one by one.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pmware_algorithms::gca::{
    self, CodedObservation, GcaConfig, GcaState, IncrementalGca, LogColumns, MovementGraph,
    ObservationLog,
};
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimDuration, SimTime};
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
    assert_eq!(engine.log().to_vec(), stream);
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

/// The columns of a log view, owned.
fn columns(log: ObservationLog<'_>) -> LogColumns {
    LogColumns {
        times: log.times().to_vec(),
        symbols: log.symbols().to_vec(),
        layers: log.layers().to_vec(),
        rssi_dbm: log.rssi_dbm().to_vec(),
    }
}

/// Restores `engine` from its export, config and log, as a snapshot
/// hydration does.
fn restored(engine: &IncrementalGca) -> IncrementalGca {
    let export = engine.export();
    IncrementalGca::restore(
        engine.config().clone(),
        engine.log().cells(),
        columns(engine.log()),
        export.absorbed,
        export.state,
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At every split point of a stream, an engine that absorbed the head
    /// and recorded part of the rest, exported and restored, equals the
    /// one it came from, and after catching up and absorbing the rest
    /// equals the engine that absorbed the whole stream uninterrupted:
    /// places, graph, symbols and exported state. The small alphabets
    /// and low thresholds make late bounces merge clusters, which
    /// relabels runs retroactively on either side of the split.
    #[test]
    fn a_restored_engine_continues_like_the_uninterrupted_one(
        stream in random_graph_stream(),
        min_bounce_weight in 1u32..4,
        recorded in 0.0..0.5f64,
    ) {
        let config = GcaConfig { min_bounce_weight, ..GcaConfig::default() };
        let mut whole = IncrementalGca::new(config.clone());
        whole.absorb(&stream);
        for split in 0..=stream.len() {
            let tail = split + ((stream.len() - split) as f64 * recorded) as usize;
            let mut head = IncrementalGca::new(config.clone());
            head.absorb(&stream[..split]);
            head.record(&stream[split..tail]);
            let mut back = restored(&head);
            prop_assert_eq!(back.export(), head.export());
            prop_assert_eq!(back.log().to_vec(), head.log().to_vec());
            prop_assert_eq!(back.log().cells(), head.log().cells());
            back.catch_up();
            back.absorb(&stream[tail..]);
            prop_assert_eq!(back.places(), whole.places());
            prop_assert_eq!(back.export(), whole.export());
        }
    }
}

/// The pieces of an export and its log, owned, for damaging one at a
/// time.
#[derive(Clone)]
struct Parts {
    cells: Vec<CellGlobalId>,
    log: LogColumns,
    absorbed: usize,
    state: GcaState,
}

/// Each defect the restore checks for is an `Err` naming it, never a
/// panic and never an engine.
#[test]
fn restore_refuses_every_inconsistent_export() {
    // Cells 1↔2 bouncing, travel through 10–13, cells 3↔4 bouncing: two
    // edges, a closed two-cell run, closed travel runs and an open run.
    let mut stream: Vec<GsmObservation> = (0..30)
        .map(|m| obs(m, if m % 3 == 1 { 2 } else { 1 }))
        .collect();
    stream.extend((30..34).map(|m| obs(m, 10 + (m - 30) as u32)));
    stream.extend((34..64).map(|m| obs(m, if m % 3 == 1 { 4 } else { 3 })));
    let config = GcaConfig::default();
    let mut engine = IncrementalGca::new(config.clone());
    engine.absorb(&stream);
    let export = engine.export();
    let intact = Parts {
        cells: engine.log().cells().to_vec(),
        log: columns(engine.log()),
        absorbed: export.absorbed,
        state: export.state.clone(),
    };
    let count = intact.cells.len() as u32;
    let sym_of = |id: u32| intact.cells.iter().position(|&c| c == cell(id)).unwrap() as u32;
    let (one, two) = (sym_of(1), sym_of(2));
    assert!(intact.state.edges.len() >= 2 && intact.state.runs.len() >= 2);
    assert!(intact.state.open.is_some());
    let restore = |parts: Parts| {
        IncrementalGca::restore(
            config.clone(),
            &parts.cells,
            parts.log,
            parts.absorbed,
            parts.state,
        )
    };
    let back = restore(intact.clone()).unwrap();
    assert_eq!(back.places(), engine.places());

    let refuse = |defect: &str, damage: &dyn Fn(&mut Parts)| {
        let mut parts = intact.clone();
        damage(&mut parts);
        let err = restore(parts).map(|_| ()).unwrap_err();
        assert!(err.contains(defect), "{defect}: {err}");
    };
    refuse("repeats an earlier one", &|p| p.cells[1] = p.cells[0]);
    refuse("dwell entries", &|p| {
        p.state.dwell.truncate(count as usize - 1)
    });
    refuse("ragged log", &|p| {
        p.log.layers.pop();
    });
    refuse("absorbed of", &|p| p.absorbed = p.log.len() + 1);
    refuse("outside", &|p| p.log.symbols[5] = count);
    refuse("met before symbol", &|p| {
        // The dictionary reversed, every symbol still naming its cell.
        p.cells.reverse();
        p.log.symbols.iter_mut().for_each(|s| *s = count - 1 - *s);
        p.state.dwell.reverse();
    });
    refuse("never recorded", &|p| {
        p.cells.push(cell(99));
        p.state.dwell.push(SimDuration::ZERO);
    });
    refuse("is not a < b", &|p| {
        let (a, b, weight) = p.state.edges[0];
        p.state.edges[0] = (b, a, weight);
    });
    refuse("is not a < b", &|p| p.state.edges[0].1 = count);
    refuse("out of order or repeated", &|p| p.state.edges.reverse());
    refuse("out of order or repeated", &|p| {
        p.state.edges.insert(0, p.state.edges[0]);
    });
    refuse("zero weight", &|p| p.state.edges[0].2 = 0);
    refuse("outside", &|p| p.state.runs[0].component = count);
    refuse("outside", &|p| {
        p.state.open.as_mut().unwrap().component = u32::MAX
    });
    refuse("not a representative", &|p| {
        let run = p.state.runs.iter_mut().find(|r| r.component == one);
        run.unwrap().component = two;
    });
    refuse("foreign samples", &|p| p.state.foreign = 4);
}

/// Dictionary-codes `chunk` the way a hostile but valid client might:
/// the dictionary lists the chunk's cells in reverse first-seen order,
/// then each of them again, then a cell no entry names; every other
/// sighting of a cell uses its second symbol.
fn coded(chunk: &[GsmObservation]) -> (Vec<CellGlobalId>, Vec<CodedObservation>) {
    let mut distinct: Vec<CellGlobalId> = Vec::new();
    for o in chunk {
        if !distinct.contains(&o.cell) {
            distinct.push(o.cell);
        }
    }
    distinct.reverse();
    let k = distinct.len() as u32;
    let mut dictionary = distinct.clone();
    dictionary.extend_from_slice(&distinct);
    dictionary.push(cell(9_999));
    let entries = chunk
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let first = distinct.iter().position(|&c| c == o.cell).unwrap() as u32;
            CodedObservation {
                time: o.time,
                symbol: if i % 2 == 1 { first + k } else { first },
                layer: o.layer,
                rssi_dbm: o.rssi_dbm,
            }
        })
        .collect();
    (dictionary, entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The stream cut into chunks, each fed by one of four routes: record
    /// only, record then catch up, a plain absorb, or a coded absorb.
    /// Wherever the engine has caught up its places equal batch discovery
    /// over the prefix; at the end its places, export and log (columns
    /// and dictionary) equal those of an engine fed every chunk decoded,
    /// by plain absorb, and its output equals batch discovery.
    #[test]
    fn coded_absorbs_match_batch_and_the_decoded_path(
        stream in random_graph_stream(),
        cuts in prop::collection::vec((0usize..400, 0u8..4), 0..8),
    ) {
        let config = GcaConfig::default();
        let mut cuts = cuts;
        cuts.sort_unstable();
        cuts.push((stream.len(), 3));
        let mut engine = IncrementalGca::new(config.clone());
        let mut decoded = IncrementalGca::new(config.clone());
        let mut fed = 0;
        for (cut, route) in cuts {
            let cut = cut.min(stream.len()).max(fed);
            let chunk = &stream[fed..cut];
            match route {
                0 => engine.record(chunk),
                1 => {
                    engine.record(chunk);
                    engine.catch_up();
                }
                2 => engine.absorb(chunk),
                _ => {
                    let (dictionary, entries) = coded(chunk);
                    engine.absorb_coded(&dictionary, entries);
                }
            }
            decoded.absorb(chunk);
            fed = cut;
            if route != 0 {
                prop_assert_eq!(engine.places(), gca::discover_places(&stream[..fed], &config));
            }
        }
        prop_assert_eq!(engine.places(), decoded.places());
        prop_assert_eq!(engine.export(), decoded.export());
        prop_assert_eq!(engine.log().cells(), decoded.log().cells());
        prop_assert_eq!(columns(engine.log()), columns(decoded.log()));
        prop_assert_eq!(engine.log().to_vec(), stream.clone());
        prop_assert_eq!(engine.finish(), gca::discover_places(&stream, &config));
    }
}
