//! GCA: GSM-based place discovery over a cell-ID movement graph.
//!
//! §2.2.2 of the paper: *"GCA is a GSM-based place discovery algorithm that
//! performs clustering on Cell ID data to create place signatures. \[…\]
//! Cell ID may change even when a user stays at same place due to network
//! load, small time signal fading, and inter-network (2G to 3G or vice
//! versa) handoff. Such a change in Cell ID while the user is stationary is
//! called 'oscillating effect'. GCA models the oscillating effect among
//! Cell IDs using an undirected weighted graph (movement graph) and then
//! performs clustering with the help of heuristics such as edge weights,
//! node degree, etc."*
//!
//! The implementation here follows that outline:
//!
//! 1. **Movement graph.** Nodes are cell identities. For every *bounce*
//!    pattern `a → b → a` in the observation stream the edge `(a, b)` gains
//!    weight. A user passing through on a road produces monotone sequences
//!    (`a → b → c`) and almost never bounces, so bounce weight separates
//!    oscillation from travel far more cleanly than raw transition counts.
//! 2. **Clustering.** Edges with weight ≥ `min_bounce_weight` are kept;
//!    connected components of the remaining graph are cluster candidates.
//! 3. **Qualification.** A cluster is a *place* only if the user once
//!    stayed inside it contiguously for at least `min_stay` (prior work
//!    uses 10 minutes — \[19\] in the paper).
//! 4. **Visit extraction.** The stream is re-scanned; maximal runs inside
//!    one qualified cluster (allowing small gaps) become visits with
//!    arrival/departure timestamps.
//!
//! GCA is the algorithm PMWare offloads to the cloud instance (§2.3.1).
//! Two entry points share one implementation of the clustering rules:
//!
//! * [`discover_places`] — the one-shot batch computation over a complete
//!   stream;
//! * [`IncrementalGca`] — a persistent per-user engine whose
//!   [`absorb`](IncrementalGca::absorb) folds in a new suffix of
//!   observations in O(suffix) amortised time, and whose
//!   [`places`](IncrementalGca::places) view is **bit-identical** to
//!   running the batch algorithm over the concatenation of everything
//!   absorbed so far. This is what makes the paper's *nightly incremental
//!   discovery* cheap: neither the phone's local fallback nor the cloud
//!   re-clusters history that has already been processed.
//!
//! After discovery, cheap online tracking ([`CellPlaceTracker`])
//! recognises revisits on the phone.

use std::collections::BTreeSet;

use pmware_world::intern::{FxHashMap, Interner, Symbol};
use pmware_world::{CellGlobalId, GsmObservation, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::signature::{DiscoveredPlace, DiscoveredPlaceId, DiscoveredVisit, PlaceSignature};

/// Tunable parameters of GCA.
#[derive(Debug, Clone, PartialEq)]
pub struct GcaConfig {
    /// Minimum bounce weight for an edge to count as oscillation.
    pub min_bounce_weight: u32,
    /// Minimum contiguous stay for a cluster to qualify as a place.
    pub min_stay: SimDuration,
    /// Maximum time between consecutive observations for them to be
    /// considered adjacent (larger gaps break bounce patterns and runs).
    pub max_sample_gap: SimDuration,
    /// Maximum number of missing/foreign samples tolerated inside a visit
    /// run before the visit is closed.
    pub run_gap_tolerance: u32,
    /// Cap on signature size (the paper shows five-cell signatures).
    pub max_signature_cells: usize,
}

impl Default for GcaConfig {
    fn default() -> Self {
        GcaConfig {
            min_bounce_weight: 2,
            min_stay: SimDuration::from_minutes(10),
            max_sample_gap: SimDuration::from_minutes(5),
            run_gap_tolerance: 3,
            max_signature_cells: 5,
        }
    }
}

/// The movement graph: an inspectable intermediate result (C-INTERMEDIATE).
///
/// Internally the graph is keyed by dense interned symbols, not by raw
/// [`CellGlobalId`]s: the per-observation hot path (dwell accounting,
/// bounce counting) costs at most one Fx-hashed intern lookup plus `Vec`
/// indexing. Symbols never escape: every public accessor speaks
/// `CellGlobalId`. The graph also keeps its symbols sorted by cell, so the
/// clustering walks edges in ascending cell-pair order and lists
/// components by root cell without building a cell-keyed map.
#[derive(Debug, Clone, Default)]
pub struct MovementGraph {
    /// Cell ↔ symbol table, first-seen order (= stream appearance order).
    cells: Interner<CellGlobalId>,
    /// Every symbol, in ascending cell order.
    by_cell: Vec<Symbol>,
    /// Bounce weight per unordered symbol pair (canonical: smaller first).
    edges: FxHashMap<(Symbol, Symbol), u32>,
    /// Total observed dwell per cell, indexed by symbol.
    dwell: Vec<SimDuration>,
}

impl MovementGraph {
    /// Builds the graph from a time-ordered observation stream.
    pub fn build(observations: &[GsmObservation], config: &GcaConfig) -> MovementGraph {
        let mut graph = MovementGraph::default();
        // Dwell accounting: each observation holds its cell until the next
        // sample (capped by the max gap).
        for w in observations.windows(2) {
            let dt = w[1].time.since(w[0].time);
            let dt = dt.min(config.max_sample_gap);
            let (sym, _) = graph.touch(w[0].cell);
            graph.note_dwell(sym, dt);
        }
        if let Some(last) = observations.last() {
            graph.touch(last.cell);
        }
        // Bounce patterns a → b → a over adjacent samples.
        for w in observations.windows(3) {
            let adjacent = w[1].time.since(w[0].time) <= config.max_sample_gap
                && w[2].time.since(w[1].time) <= config.max_sample_gap;
            if adjacent && w[0].cell == w[2].cell && w[0].cell != w[1].cell {
                let (a, _) = graph.touch(w[0].cell);
                let (b, _) = graph.touch(w[1].cell);
                graph.note_bounce(a, b);
            }
        }
        graph
    }

    /// Bounce weight of an edge (0 if absent).
    pub fn edge_weight(&self, a: CellGlobalId, b: CellGlobalId) -> u32 {
        match (self.cells.get(&a), self.cells.get(&b)) {
            (Some(sa), Some(sb)) => self.edges.get(&sym_key(sa, sb)).copied().unwrap_or(0),
            _ => 0,
        }
    }

    /// Number of edges with non-zero weight.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Total dwell recorded for a cell.
    pub fn dwell(&self, cell: CellGlobalId) -> SimDuration {
        self.cells
            .get(&cell)
            .map(|s| self.dwell[s as usize])
            .unwrap_or(SimDuration::ZERO)
    }

    /// All cells seen, in ascending cell order.
    pub fn cells(&self) -> impl Iterator<Item = CellGlobalId> + '_ {
        self.by_cell.iter().map(|&sym| *self.cells.resolve(sym))
    }

    /// Interns `cell`, creating its dwell slot and its place in cell order
    /// on first sight. Returns the symbol and whether the cell is new.
    fn touch(&mut self, cell: CellGlobalId) -> (Symbol, bool) {
        let sym = self.cells.intern(&cell);
        let fresh = sym as usize == self.dwell.len();
        if fresh {
            self.dwell.push(SimDuration::ZERO);
            let cells = &self.cells;
            let at = self.by_cell.partition_point(|&s| *cells.resolve(s) < cell);
            self.by_cell.insert(at, sym);
        }
        (sym, fresh)
    }

    /// Accounts dwell for an already-interned cell.
    fn note_dwell(&mut self, sym: Symbol, dt: SimDuration) {
        self.dwell[sym as usize] += dt;
    }

    /// Adds one bounce to the edge `(a, b)` and returns its new weight.
    fn note_bounce(&mut self, a: Symbol, b: Symbol) -> u32 {
        let w = self.edges.entry(sym_key(a, b)).or_insert(0);
        *w += 1;
        *w
    }

    /// Dwell per cell, in cell order — the canonical (symbol-free) view
    /// used for equality.
    fn dwell_by_cell(&self) -> Vec<(CellGlobalId, SimDuration)> {
        self.by_cell
            .iter()
            .map(|&sym| (*self.cells.resolve(sym), self.dwell[sym as usize]))
            .collect()
    }

    /// Edges keyed by cell-ordered pairs, sorted — the canonical view used
    /// for equality.
    fn edges_by_cell(&self) -> Vec<((CellGlobalId, CellGlobalId), u32)> {
        let mut edges: Vec<_> = self
            .edges
            .iter()
            .map(|(&(sa, sb), &w)| {
                let (a, b) = (*self.cells.resolve(sa), *self.cells.resolve(sb));
                ((a.min(b), a.max(b)), w)
            })
            .collect();
        edges.sort_unstable_by_key(|&(key, _)| key);
        edges
    }

    /// Connected components over edges with weight ≥ `min_weight`, in the
    /// order place IDs are assigned. Cells without any qualifying edge form
    /// singleton components.
    pub fn components(&self, min_weight: u32) -> Vec<BTreeSet<CellGlobalId>> {
        let partition = Partition::new(&self.by_cell, &self.roots(min_weight));
        (0..partition.len())
            .map(|c| {
                partition
                    .members(c)
                    .iter()
                    .map(|&sym| *self.cells.resolve(sym))
                    .collect()
            })
            .collect()
    }

    /// The union-find root of each symbol's component over edges with
    /// weight ≥ `min_weight`, indexed by symbol.
    ///
    /// Edges are unioned in ascending cell-pair order, each union hanging
    /// the smaller cell's root under the larger cell's root. The roots
    /// therefore depend on the cells and edges alone, not on the order the
    /// cells were first seen in, and so do the component order (by root
    /// cell) and the place IDs assigned in it.
    fn roots(&self, min_weight: u32) -> Vec<Symbol> {
        // Union in rank space (rank = position in cell order), where
        // comparing two ranks compares their cells.
        let n = self.by_cell.len();
        let mut rank = vec![0u32; n];
        for (r, &sym) in self.by_cell.iter().enumerate() {
            rank[sym as usize] = r as u32;
        }
        let mut pairs: Vec<u64> = self
            .edges
            .iter()
            .filter(|&(_, &w)| w >= min_weight)
            .map(|(&(a, b), _)| {
                let (a, b) = (rank[a as usize], rank[b as usize]);
                u64::from(a.min(b)) << 32 | u64::from(a.max(b))
            })
            .collect();
        pairs.sort_unstable();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        for pair in pairs {
            let ra = find(&mut parent, (pair >> 32) as u32);
            let rb = find(&mut parent, pair as u32);
            if ra != rb {
                parent[ra as usize] = rb;
            }
        }
        rank.iter()
            .map(|&r| self.by_cell[find(&mut parent, r) as usize])
            .collect()
    }
}

/// Union-find lookup with path halving (which never changes a root).
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

impl PartialEq for MovementGraph {
    /// Semantic equality: same dwell per cell and same weight per cell
    /// pair, regardless of symbol numbering (two graphs that saw the same
    /// cells in different orders still compare equal).
    fn eq(&self, other: &Self) -> bool {
        self.dwell.len() == other.dwell.len()
            && self.edges.len() == other.edges.len()
            && self.edges_by_cell() == other.edges_by_cell()
            && self.dwell_by_cell() == other.dwell_by_cell()
    }
}

fn sym_key(a: Symbol, b: Symbol) -> (Symbol, Symbol) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A component partition on dense symbols: components in the order place
/// IDs are assigned (by root cell), each with its members in ascending
/// cell order.
struct Partition {
    /// Component index of each symbol.
    component_of: Vec<u32>,
    /// Component `c`'s members are `members[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    members: Vec<Symbol>,
}

impl Partition {
    /// Groups symbols by root. `by_cell` lists every symbol in ascending
    /// cell order; `root_of` maps each symbol to its component's root.
    fn new(by_cell: &[Symbol], root_of: &[Symbol]) -> Partition {
        let mut component_of = vec![0u32; by_cell.len()];
        let mut count = 0;
        for &sym in by_cell {
            if root_of[sym as usize] == sym {
                component_of[sym as usize] = count;
                count += 1;
            }
        }
        let mut start = vec![0u32; count as usize + 1];
        for &sym in by_cell {
            let c = component_of[root_of[sym as usize] as usize];
            component_of[sym as usize] = c;
            start[c as usize + 1] += 1;
        }
        for c in 0..count as usize {
            start[c + 1] += start[c];
        }
        let mut next = start.clone();
        let mut members = vec![0; by_cell.len()];
        for &sym in by_cell {
            let slot = &mut next[component_of[sym as usize] as usize];
            members[*slot as usize] = sym;
            *slot += 1;
        }
        Partition {
            component_of,
            start,
            members,
        }
    }

    /// Number of components.
    fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Component `c`'s members, in ascending cell order.
    fn members(&self, c: usize) -> &[Symbol] {
        &self.members[self.start[c] as usize..self.start[c + 1] as usize]
    }
}

/// Result of a GCA run: discovered places plus the movement graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GcaOutput {
    /// Qualified places with signatures and visit histories.
    pub places: Vec<DiscoveredPlace>,
    /// The movement graph, for inspection and offline analytics.
    pub graph: MovementGraph,
}

/// Runs GCA over a time-ordered GSM observation stream.
///
/// # Panics
///
/// Panics in debug builds if `observations` is not time-ordered.
pub fn discover_places(observations: &[GsmObservation], config: &GcaConfig) -> GcaOutput {
    debug_assert!(
        observations.windows(2).all(|w| w[0].time <= w[1].time),
        "observations must be time-ordered"
    );
    let graph = MovementGraph::build(observations, config);
    let partition = Partition::new(&graph.by_cell, &graph.roots(config.min_bounce_weight));

    // Extract contiguous runs, labelled by component index.
    let rules = RunRules::new(config);
    let mut runs = Vec::new();
    let mut scan = RunScan::default();
    for obs in observations {
        let component = graph
            .cells
            .get(&obs.cell)
            .map(|sym| partition.component_of[sym as usize]);
        scan.step(component, obs.time, rules, &mut runs);
    }
    runs.extend(scan.current);

    let visits = runs.iter().map(|run| (run.component, run.visit()));
    let places = qualify_places(&graph, &partition, visits, config);
    GcaOutput { places, graph }
}

/// Turns component-labelled visit candidates into qualified
/// [`DiscoveredPlace`]s — the single implementation of the qualification
/// and signature rules, shared by the batch and incremental engines so
/// their outputs cannot drift apart. `runs` yields `(component index,
/// visit)` in chronological order.
fn qualify_places(
    graph: &MovementGraph,
    partition: &Partition,
    runs: impl Iterator<Item = (u32, DiscoveredVisit)>,
    config: &GcaConfig,
) -> Vec<DiscoveredPlace> {
    // A component qualifies with at least one stay of min_stay, and its
    // visits are exactly those stays: brief passes through the cluster's
    // cells are travel. Sorting stably by component keeps each
    // component's stays chronological.
    let mut stays: Vec<(u32, DiscoveredVisit)> = runs
        .filter(|(_, visit)| visit.duration() >= config.min_stay)
        .collect();
    stays.sort_by_key(|&(component, _)| component);
    let mut places = Vec::new();
    for group in stays.chunk_by(|a, b| a.0 == b.0) {
        // Signature: the strongest cells of the component by dwell.
        let mut cells = partition.members(group[0].0 as usize).to_vec();
        cells.sort_by_key(|&sym| std::cmp::Reverse(graph.dwell[sym as usize].as_seconds()));
        cells.truncate(config.max_signature_cells);
        let signature =
            PlaceSignature::Cells(cells.iter().map(|&sym| *graph.cells.resolve(sym)).collect());
        let id = DiscoveredPlaceId(places.len() as u32);
        let visits = group.iter().map(|&(_, visit)| visit).collect();
        places.push(DiscoveredPlace::new(id, signature, visits));
    }
    places
}

/// A maximal in-cluster run, labelled by a component identity: the
/// component index in the batch scan, the representative cell's symbol in
/// the incremental engine.
#[derive(Debug, Clone, Copy)]
struct Run {
    component: u32,
    start: SimTime,
    end: SimTime,
}

impl Run {
    fn starting(component: u32, time: SimTime) -> Run {
        Run {
            component,
            start: time,
            end: time,
        }
    }

    fn visit(&self) -> DiscoveredVisit {
        DiscoveredVisit {
            arrival: self.start,
            departure: self.end,
        }
    }
}

/// The run-break rules, derived once from a [`GcaConfig`] rather than on
/// every step.
#[derive(Debug, Clone, Copy)]
struct RunRules {
    /// A time gap longer than this inside a run breaks it (device off or
    /// no coverage for a while).
    break_gap: SimDuration,
    /// Foreign samples tolerated inside a run before it closes.
    tolerance: u32,
}

impl RunRules {
    fn new(config: &GcaConfig) -> RunRules {
        RunRules {
            break_gap: config
                .max_sample_gap
                .mul_f64((config.run_gap_tolerance + 1) as f64),
            tolerance: config.run_gap_tolerance,
        }
    }
}

/// Resumable state of the run-extraction scan.
#[derive(Debug, Clone, Copy, Default)]
struct RunScan {
    current: Option<Run>,
    foreign: u32,
}

impl RunScan {
    /// Feeds one observation (its component label and timestamp) through
    /// the state machine; completed runs are pushed onto `closed`. This is
    /// the only implementation of the run rules — both the batch scan and
    /// the incremental engine step through it, which is what guarantees
    /// their visit extraction is identical.
    fn step(&mut self, comp: Option<u32>, time: SimTime, rules: RunRules, closed: &mut Vec<Run>) {
        match (&mut self.current, comp) {
            (Some(run), Some(c)) if c == run.component => {
                if time.since(run.end) > rules.break_gap {
                    closed.push(*run);
                    *run = Run::starting(c, time);
                } else {
                    run.end = time;
                }
                self.foreign = 0;
            }
            (Some(run), other) => {
                self.foreign += 1;
                if self.foreign > rules.tolerance {
                    closed.push(*run);
                    self.current = other.map(|c| Run::starting(c, time));
                    self.foreign = 0;
                } else {
                    // Tolerated glitch: extend the run's end so that a
                    // momentary foreign cell does not shorten the stay.
                    run.end = time;
                }
            }
            (None, Some(c)) => {
                self.current = Some(Run::starting(c, time));
                self.foreign = 0;
            }
            (None, None) => {}
        }
    }
}

/// Persistent incremental GCA engine (§2.3.1's *nightly incremental
/// discovery*, done properly): absorb a suffix of new observations in
/// O(suffix) amortised time, and read back a place set **bit-identical**
/// to batch [`discover_places`] over the concatenated stream.
///
/// # Design
///
/// Everything runs on dense cell symbols. The movement graph (dwell +
/// bounce weights) folds a new observation in O(1) using a
/// two-observation tail window; a sample that repeats one of the last two
/// cells (a dwell or an oscillation, the common case) reuses that cell's
/// symbol without hashing at all, and every other lookup is one Fx hash.
///
/// Visit runs are trickier: the batch algorithm re-scans the stream with
/// the *final* cluster partition, and bounce weights only ever grow, so a
/// late oscillation can merge two clusters and retroactively change how
/// *old* observations group into runs. The engine therefore labels its
/// resumable run scan with each component's *representative* (the symbol
/// of its smallest cell — stable under re-indexing) and keeps the log.
/// When an edge first crosses `min_bounce_weight`, the next scan advance
/// runs one union-find over the symbol graph; if any already-scanned cell
/// moved to a different representative, the run scan replays from the
/// retained log. Crossings stop once the user's regular places are
/// established, so steady-state absorbs touch only the suffix.
///
/// The engine keeps the union-find roots of that pass, so a place read
/// ([`discovered_places`](Self::discovered_places)) groups cells into
/// components in one linear walk instead of clustering again.
///
/// Recording and absorbing are separate steps.
/// [`record`](Self::record) only appends to the log, and
/// [`catch_up`](Self::catch_up) folds whatever is pending. Split
/// invariance makes the place view the same however the stream was cut
/// into records and catch-ups, so a caller that reads places rarely (the
/// phone's local fallback) records every sample and catches up only when
/// it reads.
///
/// # Examples
///
/// ```
/// use pmware_algorithms::gca::{self, GcaConfig, IncrementalGca};
/// # use pmware_world::tower::NetworkLayer;
/// # use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimTime};
/// # let cell = |id: u32| CellGlobalId {
/// #     plmn: Plmn { mcc: 404, mnc: 45 }, lac: Lac(1), cell: CellId(id),
/// # };
/// # let stream: Vec<GsmObservation> = (0..40)
/// #     .map(|m| GsmObservation {
/// #         time: SimTime::from_seconds(m * 60),
/// #         cell: if m % 3 == 1 { cell(2) } else { cell(1) },
/// #         layer: NetworkLayer::G2,
/// #         rssi_dbm: -70.0,
/// #     })
/// #     .collect();
/// let config = GcaConfig::default();
/// let mut engine = IncrementalGca::new(config.clone());
/// let (head, tail) = stream.split_at(stream.len() / 2);
/// engine.absorb(head);
/// engine.absorb(tail);
/// assert_eq!(engine.places(), gca::discover_places(&stream, &config));
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalGca {
    config: GcaConfig,
    /// The run-break rules, derived from `config` once.
    rules: RunRules,
    /// Every observation recorded so far, absorbed or not. It is the
    /// phone's offload buffer, the snapshot payload and the source of the
    /// partition-change replay.
    log: Vec<GsmObservation>,
    /// The interned cell symbol of each absorbed log entry; its length is
    /// the absorbed prefix of `log`.
    log_syms: Vec<Symbol>,
    graph: MovementGraph,
    /// Closed runs in chronological order, labelled by the symbol of the
    /// representative (smallest) cell of their component.
    runs: Vec<Run>,
    /// The open run / foreign-sample state of the resumable scan.
    scan: RunScan,
    /// How many log entries the run scan has consumed.
    scanned_upto: usize,
    /// Cell symbol → union-find root of its component, and cell symbol →
    /// representative symbol, under the partition the scan used. While the
    /// partition is clean both cover every interned cell; cells first seen
    /// while dirty stay uncovered until the re-derive.
    root_of: Vec<Symbol>,
    rep_of: Vec<Symbol>,
    /// Set when an edge crossed the bounce threshold since the last scan:
    /// the partition must be re-derived before scanning further.
    partition_dirty: bool,
}

impl IncrementalGca {
    /// Creates an empty engine.
    pub fn new(config: GcaConfig) -> Self {
        IncrementalGca {
            rules: RunRules::new(&config),
            config,
            log: Vec::new(),
            log_syms: Vec::new(),
            graph: MovementGraph::default(),
            runs: Vec::new(),
            scan: RunScan::default(),
            scanned_upto: 0,
            root_of: Vec::new(),
            rep_of: Vec::new(),
            partition_dirty: false,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GcaConfig {
        &self.config
    }

    /// Number of observations recorded so far, absorbed or not.
    pub fn observation_count(&self) -> usize {
        self.log.len()
    }

    /// The full recorded observation log, in order. A fresh engine fed
    /// this log in one `absorb` reproduces this engine's client-visible
    /// state exactly (the split-invariance property), which is what lets
    /// durable snapshots store `(config, log)` instead of the engine's
    /// internal indexes.
    pub fn observations(&self) -> &[GsmObservation] {
        &self.log
    }

    /// Returns `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Timestamp of the most recently recorded observation, if any.
    pub fn last_time(&self) -> Option<SimTime> {
        self.log.last().map(|o| o.time)
    }

    /// The incrementally maintained movement graph of the absorbed
    /// observations.
    pub fn graph(&self) -> &MovementGraph {
        &self.graph
    }

    /// Appends a time-ordered suffix of new observations to the log
    /// without folding it in: the graph and the place view catch up at
    /// the next [`catch_up`](Self::catch_up) or [`absorb`](Self::absorb).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `suffix` is not time-ordered or starts
    /// before the last recorded observation.
    pub fn record(&mut self, suffix: &[GsmObservation]) {
        debug_assert!(
            suffix.windows(2).all(|w| w[0].time <= w[1].time),
            "suffix must be time-ordered"
        );
        debug_assert!(
            match (self.log.last(), suffix.first()) {
                (Some(last), Some(first)) => last.time <= first.time,
                _ => true,
            },
            "suffix must not start before already-recorded observations"
        );
        self.log.extend_from_slice(suffix);
    }

    /// Folds a time-ordered suffix of new observations into the engine:
    /// [`record`](Self::record), then [`catch_up`](Self::catch_up).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `suffix` is not time-ordered or starts
    /// before the last recorded observation.
    pub fn absorb(&mut self, suffix: &[GsmObservation]) {
        self.record(suffix);
        self.catch_up();
    }

    /// Folds every recorded but not yet absorbed observation into the
    /// graph and the run scan.
    pub fn catch_up(&mut self) {
        let from = self.log_syms.len();
        if from == self.log.len() {
            return;
        }
        // The effective weight at which an edge starts to qualify: even a
        // zero threshold needs the edge to exist (weight 1).
        let qualifying = self.config.min_bounce_weight.max(1);
        let max_gap = self.config.max_sample_gap;
        self.log_syms.reserve(self.log.len() - from);
        for n in from..self.log.len() {
            let obs = self.log[n];
            // Most samples repeat one of the last two cells (a dwell or an
            // oscillation): reuse its symbol instead of hashing the cell.
            let (sym, fresh) = if n >= 1 && obs.cell == self.log[n - 1].cell {
                (self.log_syms[n - 1], false)
            } else if n >= 2 && obs.cell == self.log[n - 2].cell {
                (self.log_syms[n - 2], false)
            } else {
                self.graph.touch(obs.cell)
            };
            if n >= 1 {
                let prev = self.log[n - 1];
                let prev_sym = self.log_syms[n - 1];
                let dt = obs.time.since(prev.time).min(max_gap);
                self.graph.note_dwell(prev_sym, dt);
                if n >= 2 {
                    let first = self.log[n - 2];
                    let first_sym = self.log_syms[n - 2];
                    let adjacent = prev.time.since(first.time) <= max_gap
                        && obs.time.since(prev.time) <= max_gap;
                    if adjacent
                        && first_sym == sym
                        && first_sym != prev_sym
                        && self.graph.note_bounce(first_sym, prev_sym) == qualifying
                    {
                        self.partition_dirty = true;
                    }
                }
            }
            if fresh && !self.partition_dirty {
                // A brand-new cell has no qualifying edges yet, so it is a
                // singleton component: its own root and representative.
                // Fresh symbols are dense, so this stays index-aligned.
                debug_assert_eq!(self.rep_of.len(), sym as usize);
                self.root_of.push(sym);
                self.rep_of.push(sym);
            }
            self.log_syms.push(sym);
        }
        self.advance_scan();
    }

    /// Re-derives the partition if needed, replays the run scan when the
    /// partition changed retroactively, then consumes the unscanned tail.
    fn advance_scan(&mut self) {
        if self.partition_dirty {
            // One union-find pass; each component's representative is its
            // smallest cell, the first of its members met walking the
            // cells in order.
            let root_of = self.graph.roots(self.config.min_bounce_weight);
            let mut rep_of_root = vec![Symbol::MAX; root_of.len()];
            for &sym in &self.graph.by_cell {
                let rep = &mut rep_of_root[root_of[sym as usize] as usize];
                if *rep == Symbol::MAX {
                    *rep = sym;
                }
            }
            let rep_of: Vec<Symbol> = root_of
                .iter()
                .map(|&root| rep_of_root[root as usize])
                .collect();
            // Did any already-labelled cell move to a different component?
            // (Components only ever merge, so this is exactly the case in
            // which past observations would group differently. Cells first
            // seen while dirty sit past the old `rep_of`'s end and don't
            // vote.)
            let moved = self.rep_of.iter().zip(&rep_of).any(|(old, new)| old != new);
            if moved {
                self.runs.clear();
                self.scan = RunScan::default();
                self.scanned_upto = 0;
            }
            self.root_of = root_of;
            self.rep_of = rep_of;
            self.partition_dirty = false;
        }
        for i in self.scanned_upto..self.log_syms.len() {
            let comp = self.rep_of[self.log_syms[i] as usize];
            self.scan
                .step(Some(comp), self.log[i].time, self.rules, &mut self.runs);
        }
        self.scanned_upto = self.log_syms.len();
    }

    /// The places of the absorbed observations — bit-identical to
    /// [`discover_places`] over them. Cost is proportional to the cell
    /// and run counts, not to history length. Observations recorded but
    /// not yet caught up are not included.
    pub fn discovered_places(&self) -> Vec<DiscoveredPlace> {
        let partition = Partition::new(&self.graph.by_cell, &self.root_of);
        let runs = self
            .runs
            .iter()
            .chain(&self.scan.current)
            .map(|run| (partition.component_of[run.component as usize], run.visit()));
        qualify_places(&self.graph, &partition, runs, &self.config)
    }

    /// The current view with the movement graph: the same places as
    /// [`discovered_places`](Self::discovered_places), plus a clone of the
    /// graph.
    pub fn places(&self) -> GcaOutput {
        GcaOutput {
            places: self.discovered_places(),
            graph: self.graph.clone(),
        }
    }

    /// Consumes the engine and returns the final output (same view as
    /// [`places`](Self::places), without cloning the graph).
    pub fn finish(self) -> GcaOutput {
        GcaOutput {
            places: self.discovered_places(),
            graph: self.graph,
        }
    }
}

/// Online recogniser: once GCA signatures exist (computed on the cloud),
/// the phone tracks arrivals/departures by mapping each serving cell to its
/// place (§2.3.1: "after discovery of place signatures, mobile service can
/// track user's visit in those places").
#[derive(Debug, Clone)]
pub struct CellPlaceTracker {
    cell_to_place: FxHashMap<CellGlobalId, DiscoveredPlaceId>,
    confirm_in: u32,
    confirm_out: u32,
    state: TrackerState,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum TrackerState {
    Away {
        /// Consecutive samples inside some candidate place.
        candidate: Option<(DiscoveredPlaceId, u32, SimTime)>,
    },
    At {
        place: DiscoveredPlaceId,
        arrival: SimTime,
        /// Consecutive samples outside the place.
        strikes: u32,
        last_inside: SimTime,
    },
}

/// The serializable runtime state of a [`CellPlaceTracker`], for device
/// checkpoint/restore. The cell→place index is *not* part of the snapshot
/// (struct map keys don't serialize); it is rebuilt from the same place
/// list the tracker was constructed over.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackerSnapshot(TrackerState);

/// An event emitted by the online tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlaceEvent {
    /// The user arrived at a known place.
    Arrival {
        /// Which place.
        place: DiscoveredPlaceId,
        /// When the arrival was confirmed (first in-place sample).
        time: SimTime,
    },
    /// The user left a known place.
    Departure {
        /// Which place.
        place: DiscoveredPlaceId,
        /// When the departure was confirmed (last in-place sample).
        time: SimTime,
    },
}

impl CellPlaceTracker {
    /// Creates a tracker over known places. `confirm_in` / `confirm_out`
    /// are the number of consecutive samples required to confirm an arrival
    /// or a departure (debouncing the oscillation effect).
    ///
    /// # Panics
    ///
    /// Panics if either confirmation count is zero.
    pub fn new(places: &[DiscoveredPlace], confirm_in: u32, confirm_out: u32) -> Self {
        assert!(
            confirm_in > 0 && confirm_out > 0,
            "confirmation counts must be positive"
        );
        let mut cell_to_place = FxHashMap::default();
        for place in places {
            if let PlaceSignature::Cells(cells) = &place.signature {
                for cell in cells {
                    // First-writer-wins: overlapping signatures (merged
                    // places) resolve to the earlier place.
                    cell_to_place.entry(*cell).or_insert(place.id);
                }
            }
        }
        CellPlaceTracker {
            cell_to_place,
            confirm_in,
            confirm_out,
            state: TrackerState::Away { candidate: None },
        }
    }

    /// The place currently occupied, if any.
    pub fn current_place(&self) -> Option<DiscoveredPlaceId> {
        match &self.state {
            TrackerState::At { place, .. } => Some(*place),
            TrackerState::Away { .. } => None,
        }
    }

    /// Captures the in-flight debouncing state for a checkpoint.
    pub fn snapshot(&self) -> TrackerSnapshot {
        TrackerSnapshot(self.state.clone())
    }

    /// Rebuilds a tracker from the place list it was constructed over and
    /// a previously captured [`TrackerSnapshot`], resuming mid-stay and
    /// mid-debounce exactly where the snapshot left off.
    ///
    /// # Panics
    ///
    /// Panics if either confirmation count is zero.
    pub fn from_snapshot(
        places: &[DiscoveredPlace],
        confirm_in: u32,
        confirm_out: u32,
        snapshot: TrackerSnapshot,
    ) -> Self {
        let mut tracker = CellPlaceTracker::new(places, confirm_in, confirm_out);
        tracker.state = snapshot.0;
        tracker
    }

    /// Feeds one observation; returns the events it triggered (0–2: a
    /// departure may be followed immediately by a new arrival candidate).
    pub fn update(&mut self, obs: &GsmObservation) -> Vec<PlaceEvent> {
        let here = self.cell_to_place.get(&obs.cell).copied();
        let mut events = Vec::new();
        match &mut self.state {
            TrackerState::Away { candidate } => match here {
                Some(place) => {
                    let (count, since) = match candidate {
                        Some((p, n, since)) if *p == place => (*n + 1, *since),
                        _ => (1, obs.time),
                    };
                    if count >= self.confirm_in {
                        events.push(PlaceEvent::Arrival { place, time: since });
                        self.state = TrackerState::At {
                            place,
                            arrival: since,
                            strikes: 0,
                            last_inside: obs.time,
                        };
                    } else {
                        *candidate = Some((place, count, since));
                    }
                }
                None => *candidate = None,
            },
            TrackerState::At {
                place,
                strikes,
                last_inside,
                ..
            } => {
                if here == Some(*place) {
                    *strikes = 0;
                    *last_inside = obs.time;
                } else {
                    *strikes += 1;
                    if *strikes >= self.confirm_out {
                        events.push(PlaceEvent::Departure {
                            place: *place,
                            time: *last_inside,
                        });
                        self.state = TrackerState::Away {
                            candidate: here.map(|p| (p, 1, obs.time)),
                        };
                    }
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmware_world::tower::NetworkLayer;
    use pmware_world::{CellId, Lac, Plmn};

    fn cell(id: u32) -> CellGlobalId {
        CellGlobalId {
            plmn: Plmn { mcc: 404, mnc: 45 },
            lac: Lac(1),
            cell: CellId(id),
        }
    }

    fn obs(minute: u64, c: CellGlobalId) -> GsmObservation {
        GsmObservation {
            time: SimTime::from_seconds(minute * 60),
            cell: c,
            layer: NetworkLayer::G2,
            rssi_dbm: -70.0,
        }
    }

    /// A synthetic day: stay oscillating between cells 1/2 (minutes 0–59),
    /// travel through 10,11,12 (one minute each), stay oscillating between
    /// cells 3/4 (minutes 63–122).
    fn synthetic_stream() -> Vec<GsmObservation> {
        let mut v = Vec::new();
        for m in 0..60 {
            let c = if m % 7 == 3 { cell(2) } else { cell(1) };
            v.push(obs(m, c));
        }
        v.push(obs(60, cell(10)));
        v.push(obs(61, cell(11)));
        v.push(obs(62, cell(12)));
        for m in 63..123 {
            let c = if m % 5 == 2 { cell(4) } else { cell(3) };
            v.push(obs(m, c));
        }
        v
    }

    #[test]
    fn movement_graph_counts_bounces_not_transitions() {
        let stream = synthetic_stream();
        let graph = MovementGraph::build(&stream, &GcaConfig::default());
        // Oscillating pairs have high bounce weight.
        assert!(graph.edge_weight(cell(1), cell(2)) >= 5);
        assert!(graph.edge_weight(cell(3), cell(4)) >= 5);
        // Travel cells never bounce.
        assert_eq!(graph.edge_weight(cell(10), cell(11)), 0);
        assert_eq!(graph.edge_weight(cell(11), cell(12)), 0);
        assert_eq!(graph.edge_weight(cell(2), cell(10)), 0);
    }

    #[test]
    fn discovers_two_places_from_synthetic_stream() {
        let stream = synthetic_stream();
        let out = discover_places(&stream, &GcaConfig::default());
        assert_eq!(out.places.len(), 2, "places: {:?}", out.places);
        for place in &out.places {
            match &place.signature {
                PlaceSignature::Cells(cells) => {
                    assert!(cells.len() >= 2, "oscillation pair expected");
                }
                other => panic!("GCA must emit cell signatures, got {other:?}"),
            }
            assert_eq!(place.visits.len(), 1);
            assert!(place.visits[0].duration() >= SimDuration::from_minutes(50));
        }
        // The two signatures are disjoint.
        let (a, b) = (&out.places[0].signature, &out.places[1].signature);
        if let (PlaceSignature::Cells(a), PlaceSignature::Cells(b)) = (a, b) {
            assert!(a.is_disjoint(b));
        }
    }

    #[test]
    fn travel_cells_do_not_become_places() {
        let stream = synthetic_stream();
        let out = discover_places(&stream, &GcaConfig::default());
        for place in &out.places {
            if let PlaceSignature::Cells(cells) = &place.signature {
                for c in [cell(10), cell(11), cell(12)] {
                    assert!(!cells.contains(&c), "travel cell in signature");
                }
            }
        }
    }

    #[test]
    fn short_stay_below_min_stay_is_dropped() {
        // Oscillate for only 5 minutes.
        let mut v = Vec::new();
        for m in 0..5 {
            let c = if m % 2 == 0 { cell(1) } else { cell(2) };
            v.push(obs(m, c));
        }
        let out = discover_places(&v, &GcaConfig::default());
        assert!(out.places.is_empty());
    }

    #[test]
    fn repeated_visits_are_separate() {
        // Stay at place A (0–30), away with distant cells (35–95, an hour
        // at unclustered singletons), return to A (100–130).
        let mut v = Vec::new();
        for m in 0..30 {
            v.push(obs(m, if m % 3 == 1 { cell(2) } else { cell(1) }));
        }
        for m in 35..95 {
            // Travel: monotone new cells, never bouncing.
            v.push(obs(m, cell(100 + m as u32)));
        }
        for m in 100..130 {
            v.push(obs(m, if m % 3 == 1 { cell(2) } else { cell(1) }));
        }
        let out = discover_places(&v, &GcaConfig::default());
        assert_eq!(out.places.len(), 1);
        assert_eq!(out.places[0].visits.len(), 2, "{:?}", out.places[0].visits);
        let v0 = out.places[0].visits[0];
        let v1 = out.places[0].visits[1];
        assert!(v0.departure < v1.arrival);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let out = discover_places(&[], &GcaConfig::default());
        assert!(out.places.is_empty());
        assert_eq!(out.graph.edge_count(), 0);
    }

    #[test]
    fn tracker_emits_arrival_and_departure() {
        let stream = synthetic_stream();
        let out = discover_places(&stream, &GcaConfig::default());
        let mut tracker = CellPlaceTracker::new(&out.places, 2, 3);
        let mut events = Vec::new();
        for o in &stream {
            events.extend(tracker.update(o));
        }
        // Expect at least: arrival at place 1, departure, arrival at place
        // 2 (final departure never confirmed because the stream ends).
        let arrivals = events
            .iter()
            .filter(|e| matches!(e, PlaceEvent::Arrival { .. }))
            .count();
        let departures = events
            .iter()
            .filter(|e| matches!(e, PlaceEvent::Departure { .. }))
            .count();
        assert_eq!(arrivals, 2, "events: {events:?}");
        assert_eq!(departures, 1, "events: {events:?}");
        assert!(tracker.current_place().is_some());
    }

    #[test]
    fn tracker_debounces_oscillation() {
        let stream = synthetic_stream();
        let out = discover_places(&stream, &GcaConfig::default());
        let mut tracker = CellPlaceTracker::new(&out.places, 2, 3);
        // During the first stay the oscillation between cells 1 and 2 must
        // not produce spurious departures.
        let mut events = Vec::new();
        for o in stream.iter().take(60) {
            events.extend(tracker.update(o));
        }
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, PlaceEvent::Departure { .. }))
                .count(),
            0
        );
    }

    #[test]
    #[should_panic(expected = "confirmation counts")]
    fn tracker_rejects_zero_confirmation() {
        let _ = CellPlaceTracker::new(&[], 0, 1);
    }
}
