//! Batched delta-compressed offload encoding for the GCA discover
//! endpoint.
//!
//! A nightly offload ships a contiguous slice of the device's GSM log.
//! Serialized naively, every observation repeats a full [`CellGlobalId`]
//! (four fields) and an absolute timestamp, even though consecutive
//! samples usually sit seconds apart in the same handful of cells. The
//! batched encoding exploits both regularities:
//!
//! * **Cell dictionary** — each distinct cell appears once, in first-seen
//!   order (the [`Interner`] discipline); per-observation cell references
//!   are dense `u32` symbols into that dictionary.
//! * **Delta timestamps** — the first observation's time is absolute
//!   (`t0`); every later one stores the signed difference from its
//!   predecessor, which JSON renders in a couple of digits instead of ten.
//!
//! Decoding is exact: [`ObservationBatch::decode`] reconstructs the very
//! `Vec<GsmObservation>` that was encoded, field for field. The cloud
//! never needs it: it checks a batch with [`ObservationBatch::validate`]
//! and absorbs [`ObservationBatch::entries`] straight from the columns
//! ([`absorb_coded`]), which reaches a state byte-identical to one fed
//! the plain array. The phone encodes straight
//! from its engine's column log ([`ObservationBatch::encode_log`]),
//! remapping symbols instead of hashing cells. The `start` idempotency
//! key and the server-side watermark seams are untouched — batching only
//! changes how the suffix is spelled on the wire, never what it means.
//!
//! The same columns also have a binary spelling,
//! [`ObservationBatch::to_bytes`]/[`ObservationBatch::from_bytes`], in the
//! shared `codec` module's conventions: the storage engine parks a user's
//! whole GCA observation log in it, so evicting or hydrating a user moves
//! a flat byte block instead of megabytes of nested JSON, and the durable
//! WAL frames every logged discover body in it:
//!
//! ```text
//! u64 cell count C,  C × (u16 mcc, u16 mnc, u16 lac, u32 cid)
//! u64 t0
//! u64 observation count N,  N × i64 dt,  N × u32 symbol,
//!                           N × u8 layer (0 = 2G, 1 = 3G),  N × u64 rssi bits
//! ```
//!
//! The RSSI column stores `f64::to_bits`, so `-0.0` and NaN payloads
//! survive bit for bit. Decoding checks every count against the bytes
//! that remain before it allocates, and rejects trailing bytes.
//!
//! [`absorb_coded`]: pmware_algorithms::gca::IncrementalGca::absorb_coded

use pmware_algorithms::gca::{CodedObservation, LogColumns, ObservationLog};
use pmware_world::intern::Interner;
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, GsmObservation, SimTime};
use serde::Serialize;

use crate::codec::{cell_of, put_cell, ByteReader, CELL_BYTES};

/// Bytes of one observation across the four binary columns.
const OBSERVATION_BYTES: usize = 8 + 4 + 1 + 8;

/// A delta-compressed, dictionary-coded slice of a GSM observation
/// stream. Produced by [`ObservationBatch::encode`]; the columns are
/// parallel (all have one entry per observation).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ObservationBatch {
    /// Distinct cells in first-seen order; `cell[i]` indexes this table.
    pub cells: Vec<CellGlobalId>,
    /// Absolute time of the first observation, in seconds. Zero when the
    /// batch is empty.
    pub t0: u64,
    /// Signed per-observation delta from the previous timestamp (the
    /// first entry is always zero). Signed so a non-monotonic log still
    /// round-trips exactly.
    pub dt: Vec<i64>,
    /// Per-observation dictionary symbol.
    pub cell: Vec<u32>,
    /// Per-observation radio-access layer.
    pub layer: Vec<NetworkLayer>,
    /// Per-observation signal strength.
    pub rssi_dbm: Vec<f64>,
}

impl ObservationBatch {
    /// Encodes a contiguous observation slice.
    pub fn encode(observations: &[GsmObservation]) -> ObservationBatch {
        let mut cells = Interner::new();
        let mut dt = Vec::with_capacity(observations.len());
        let mut cell = Vec::with_capacity(observations.len());
        let mut layer = Vec::with_capacity(observations.len());
        let mut rssi_dbm = Vec::with_capacity(observations.len());
        let t0 = observations.first().map_or(0, |obs| obs.time.as_seconds());
        let mut prev = t0;
        for obs in observations {
            let t = obs.time.as_seconds();
            dt.push(t.wrapping_sub(prev) as i64);
            prev = t;
            cell.push(cells.intern(&obs.cell));
            layer.push(obs.layer);
            rssi_dbm.push(obs.rssi_dbm);
        }
        ObservationBatch {
            cells: cells.values().to_vec(),
            t0,
            dt,
            cell,
            layer,
            rssi_dbm,
        }
    }

    /// Encodes a log view (a whole engine log or a suffix of it) to the
    /// batch [`ObservationBatch::encode`] gives for its observations,
    /// without hashing a cell: each engine symbol is remapped once to its
    /// batch symbol, in the view's first-seen order.
    pub fn encode_log(log: ObservationLog<'_>) -> ObservationBatch {
        let (cells, batch_symbol) = batch_dictionary(&log);
        let (t0, dt) = deltas(log.times());
        ObservationBatch {
            cells,
            t0,
            dt: dt.collect(),
            cell: log
                .symbols()
                .iter()
                .map(|&sym| batch_symbol[sym as usize])
                .collect(),
            layer: log.layers().to_vec(),
            rssi_dbm: log.rssi_dbm().to_vec(),
        }
    }

    /// Checks what [`ObservationBatch::decode`] checks, without decoding.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed column when the parallel
    /// arrays disagree in length or a symbol escapes the dictionary (the
    /// first such symbol) — a batch from a confused (or hostile) client
    /// must not panic the server.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_ragged() {
            return Err(format!(
                "ragged batch: dt={} cell={} layer={} rssi={}",
                self.dt.len(),
                self.cell.len(),
                self.layer.len(),
                self.rssi_dbm.len()
            ));
        }
        let dictionary = self.cells.len();
        if let Some(symbol) = self.cell.iter().find(|&&s| s as usize >= dictionary) {
            return Err(format!("symbol {symbol} outside dictionary"));
        }
        Ok(())
    }

    /// The batch's entries in order, each symbol still into
    /// [`cells`](Self::cells), times accumulated from `t0` with wrapping
    /// arithmetic. On a ragged batch it stops at the shortest column;
    /// [`validate`](Self::validate) first.
    pub fn entries(&self) -> impl ExactSizeIterator<Item = CodedObservation> + '_ {
        let mut t = self.t0;
        self.dt
            .iter()
            .zip(&self.cell)
            .zip(&self.layer)
            .zip(&self.rssi_dbm)
            .map(move |(((&dt, &symbol), &layer), &rssi_dbm)| {
                t = t.wrapping_add(dt as u64);
                CodedObservation {
                    time: SimTime::from_seconds(t),
                    symbol,
                    layer,
                    rssi_dbm,
                }
            })
    }

    /// Reconstructs the encoded observations exactly.
    ///
    /// # Errors
    ///
    /// Returns what [`ObservationBatch::validate`] returns for a ragged
    /// batch or a symbol outside the dictionary.
    pub fn decode(&self) -> Result<Vec<GsmObservation>, String> {
        self.validate()?;
        Ok(self
            .entries()
            .map(|entry| GsmObservation {
                time: entry.time,
                cell: self.cells[entry.symbol as usize],
                layer: entry.layer,
                rssi_dbm: entry.rssi_dbm,
            })
            .collect())
    }

    /// The batch as a dictionary and log columns, for
    /// [`IncrementalGca::restore`], times accumulated as in
    /// [`ObservationBatch::entries`]. Nothing is checked: the restore
    /// checks the symbols, and a batch from
    /// [`ObservationBatch::from_bytes`] is never ragged.
    ///
    /// [`IncrementalGca::restore`]: pmware_algorithms::gca::IncrementalGca::restore
    pub(crate) fn into_columns(self) -> (Vec<CellGlobalId>, LogColumns) {
        let times = self.entries().map(|entry| entry.time).collect();
        let columns = LogColumns {
            times,
            symbols: self.cell,
            layers: self.layer,
            rssi_dbm: self.rssi_dbm,
        };
        (self.cells, columns)
    }

    /// The binary spelling (layout in the module docs). Exact: decoding
    /// it with [`ObservationBatch::from_bytes`] gives back this batch bit
    /// for bit, RSSI values included.
    ///
    /// # Panics
    ///
    /// Panics on a ragged batch (columns of different lengths); batches
    /// built by [`ObservationBatch::encode`] never are.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(!self.is_ragged(), "to_bytes on a ragged batch");
        write_block(
            &self.cells,
            self.t0,
            self.len(),
            self.dt.iter().copied(),
            self.cell.iter().copied(),
            self.layer.iter().copied(),
            self.rssi_dbm.iter().copied(),
        )
    }

    /// The binary spelling of a log view: the bytes of
    /// `ObservationBatch::encode_log(log).to_bytes()`, written straight
    /// from the view's columns.
    pub(crate) fn log_bytes(log: ObservationLog<'_>) -> Vec<u8> {
        let (cells, batch_symbol) = batch_dictionary(&log);
        let (t0, dt) = deltas(log.times());
        write_block(
            &cells,
            t0,
            log.len(),
            dt,
            log.symbols().iter().map(|&sym| batch_symbol[sym as usize]),
            log.layers().iter().copied(),
            log.rssi_dbm().iter().copied(),
        )
    }

    /// Parses the binary spelling of a plain observation array (its
    /// `ObservationBatch::encode(..).to_bytes()`, which is how the
    /// durable WAL logs a plain-array discover body) back to the array.
    ///
    /// # Errors
    ///
    /// Returns what [`ObservationBatch::from_bytes`] or
    /// [`ObservationBatch::decode`] returns.
    pub(crate) fn plain_from_bytes(bytes: &[u8]) -> Result<Vec<GsmObservation>, String> {
        ObservationBatch::from_bytes(bytes)?.decode()
    }

    /// Parses the binary spelling.
    ///
    /// # Errors
    ///
    /// Returns a description of the defect for a truncated block, a
    /// count larger than the remaining bytes can hold, an unknown layer
    /// byte, or trailing bytes. Never panics, and never allocates more
    /// than the input can fill. Symbols are checked later, by
    /// [`ObservationBatch::decode`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ObservationBatch, String> {
        let mut input = ByteReader::new(bytes);
        let cell_count = input.count(CELL_BYTES, "cell")?;
        let (cells, _) = input
            .slice(cell_count * CELL_BYTES)?
            .as_chunks::<CELL_BYTES>();
        let cells = cells.iter().map(|&bytes| cell_of(bytes)).collect();
        let t0 = input.u64()?;
        let n = input.count(OBSERVATION_BYTES, "observation")?;
        let (dt, _) = input.slice(n * 8)?.as_chunks::<8>();
        let (cell, _) = input.slice(n * 4)?.as_chunks::<4>();
        let layer = input
            .slice(n)?
            .iter()
            .map(|&byte| match byte {
                0 => Ok(NetworkLayer::G2),
                1 => Ok(NetworkLayer::G3),
                other => Err(format!("unknown layer byte {other}")),
            })
            .collect::<Result<_, _>>()?;
        let (rssi_dbm, _) = input.slice(n * 8)?.as_chunks::<8>();
        input.finish()?;
        Ok(ObservationBatch {
            cells,
            t0,
            dt: dt.iter().map(|&b| i64::from_le_bytes(b)).collect(),
            cell: cell.iter().map(|&b| u32::from_le_bytes(b)).collect(),
            layer,
            rssi_dbm: rssi_dbm
                .iter()
                .map(|&b| f64::from_bits(u64::from_le_bytes(b)))
                .collect(),
        })
    }

    /// Whether the parallel columns disagree in length (a batch only a
    /// confused or hostile client sends; [`ObservationBatch::encode`]
    /// never builds one).
    pub(crate) fn is_ragged(&self) -> bool {
        let n = self.len();
        self.cell.len() != n || self.layer.len() != n || self.rssi_dbm.len() != n
    }

    /// Number of observations in the batch.
    pub fn len(&self) -> usize {
        self.dt.len()
    }

    /// Whether the batch carries no observations.
    pub fn is_empty(&self) -> bool {
        self.dt.is_empty()
    }
}

/// A log view's batch dictionary: its distinct cells in first-seen
/// order, and the batch symbol of each engine symbol the view names
/// (`u32::MAX` for the others).
fn batch_dictionary(log: &ObservationLog<'_>) -> (Vec<CellGlobalId>, Vec<u32>) {
    let mut batch_symbol = vec![u32::MAX; log.cells().len()];
    let mut cells = Vec::new();
    for &sym in log.symbols() {
        let slot = &mut batch_symbol[sym as usize];
        if *slot == u32::MAX {
            *slot = cells.len() as u32;
            cells.push(log.cells()[sym as usize]);
        }
    }
    (cells, batch_symbol)
}

/// The first time in seconds (zero for no times) and each time's signed
/// delta from its predecessor (the first is zero), as the batch columns
/// spell them.
fn deltas(times: &[SimTime]) -> (u64, impl Iterator<Item = i64> + '_) {
    let t0 = times.first().map_or(0, |t| t.as_seconds());
    let mut prev = t0;
    let dt = times.iter().map(move |t| {
        let t = t.as_seconds();
        let dt = t.wrapping_sub(prev) as i64;
        prev = t;
        dt
    });
    (t0, dt)
}

/// Writes the binary spelling (layout in the module docs) of `n`
/// observations given column by column.
fn write_block(
    cells: &[CellGlobalId],
    t0: u64,
    n: usize,
    dt: impl Iterator<Item = i64>,
    symbols: impl Iterator<Item = u32>,
    layer: impl Iterator<Item = NetworkLayer>,
    rssi_dbm: impl Iterator<Item = f64>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + cells.len() * CELL_BYTES + n * OBSERVATION_BYTES);
    out.extend_from_slice(&(cells.len() as u64).to_le_bytes());
    cells.iter().for_each(|cell| put_cell(&mut out, cell));
    out.extend_from_slice(&t0.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    dt.for_each(|dt| out.extend_from_slice(&dt.to_le_bytes()));
    symbols.for_each(|symbol| out.extend_from_slice(&symbol.to_le_bytes()));
    out.extend(layer.map(|layer| match layer {
        NetworkLayer::G2 => 0u8,
        NetworkLayer::G3 => 1u8,
    }));
    rssi_dbm.for_each(|rssi| out.extend_from_slice(&rssi.to_bits().to_le_bytes()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmware_algorithms::gca::{GcaConfig, IncrementalGca};
    use pmware_world::{CellId, Lac, Plmn};
    use proptest::prelude::*;

    fn obs(t: u64, cid: u32, rssi: f64) -> GsmObservation {
        GsmObservation {
            time: SimTime::from_seconds(t),
            cell: CellGlobalId {
                plmn: Plmn { mcc: 262, mnc: 1 },
                lac: Lac(7),
                cell: CellId(cid),
            },
            layer: if cid.is_multiple_of(2) {
                NetworkLayer::G2
            } else {
                NetworkLayer::G3
            },
            rssi_dbm: rssi,
        }
    }

    #[test]
    fn round_trips_exactly() {
        let log = vec![
            obs(60, 10, -71.5),
            obs(120, 10, -70.0),
            obs(180, 11, -88.25),
            obs(240, 10, -69.0),
            obs(360, 12, -90.125),
        ];
        let batch = ObservationBatch::encode(&log);
        assert_eq!(batch.cells.len(), 3, "dictionary holds distinct cells");
        assert_eq!(batch.dt[0], 0);
        assert_eq!(batch.decode().unwrap(), log);
    }

    #[test]
    fn empty_batch_round_trips() {
        let batch = ObservationBatch::encode(&[]);
        assert!(batch.is_empty());
        assert_eq!(batch.decode().unwrap(), Vec::new());
    }

    #[test]
    fn non_monotonic_times_round_trip() {
        let log = vec![obs(600, 1, -60.0), obs(60, 2, -61.0), obs(600, 1, -62.0)];
        let batch = ObservationBatch::encode(&log);
        assert_eq!(batch.decode().unwrap(), log);
    }

    /// The point of the encoding: a realistic day of samples (one per
    /// minute, a handful of cells) must serialize to well under half the
    /// plain-array JSON. Run with `--nocapture` to see the byte counts.
    #[test]
    fn batched_encoding_halves_the_wire_size() {
        let log: Vec<GsmObservation> = (0..1_440)
            .map(|i| obs(28_800 + i * 60, 10 + (i % 5) as u32, -70.0 - (i % 7) as f64))
            .collect();
        let plain = serde_json::to_string(&log).unwrap().len();
        let batched = serde_json::to_string(&ObservationBatch::encode(&log))
            .unwrap()
            .len();
        println!("wire bytes for 1440 observations: plain={plain} batched={batched}");
        assert!(
            batched * 2 < plain,
            "batched encoding must be under half the plain size ({batched} vs {plain})"
        );
    }

    #[test]
    fn single_sample_batch_round_trips() {
        let log = vec![obs(86_400, 3, -55.5)];
        let batch = ObservationBatch::encode(&log);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.t0, 86_400);
        assert_eq!(batch.dt, vec![0]);
        assert_eq!(batch.cells.len(), 1);
        assert_eq!(batch.decode().unwrap(), log);
    }

    /// Timestamp deltas at the wrapping boundaries of the u64↔i64 cast:
    /// a log straddling `i64::MAX` seconds produces deltas that only
    /// round-trip because both directions use wrapping arithmetic. No
    /// panic, exact reconstruction.
    #[test]
    fn wrapping_boundary_deltas_round_trip() {
        let log = vec![
            obs(u64::MAX - 1, 1, -60.0),
            obs(u64::MAX, 1, -61.0),
            obs(0, 2, -62.0), // wraps forward past u64::MAX
            obs(5, 2, -63.0),
            obs(u64::MAX, 1, -64.0), // wraps backward
        ];
        let batch = ObservationBatch::encode(&log);
        assert_eq!(batch.decode().unwrap(), log);

        // A delta of exactly i64::MIN survives the cast round trip too.
        let far = vec![obs(1 << 63, 3, -50.0), obs(0, 3, -51.0)];
        let batch = ObservationBatch::encode(&far);
        assert_eq!(batch.dt[1], i64::MIN);
        assert_eq!(batch.decode().unwrap(), far);
    }

    /// A hostile batch with extreme column values must return `Err` (or
    /// reconstruct harmlessly), never panic — the server feeds decode
    /// straight from the wire.
    #[test]
    fn hostile_extreme_batches_never_panic() {
        // Dictionary symbol u32::MAX on an otherwise valid batch.
        let mut batch = ObservationBatch::encode(&[obs(60, 1, -60.0)]);
        batch.cell[0] = u32::MAX;
        let err = batch.decode().unwrap_err();
        assert!(err.contains("outside dictionary"), "{err}");

        // Empty dictionary with a non-empty observation column.
        let mut batch = ObservationBatch::encode(&[obs(60, 1, -60.0)]);
        batch.cells.clear();
        assert!(batch.decode().is_err());

        // Extreme t0 and delta columns decode without panicking.
        let mut batch = ObservationBatch::encode(&[obs(0, 1, -60.0), obs(1, 1, -60.0)]);
        batch.t0 = u64::MAX;
        batch.dt = vec![i64::MIN, i64::MAX];
        let decoded = batch.decode().unwrap();
        assert_eq!(decoded.len(), 2);
    }

    /// Bit-level view of an observation log (`f64` equality would call
    /// NaN unequal to itself and `-0.0` equal to `0.0`).
    fn bits(log: &[GsmObservation]) -> Vec<(u64, CellGlobalId, NetworkLayer, u64)> {
        log.iter()
            .map(|o| (o.time.as_seconds(), o.cell, o.layer, o.rssi_dbm.to_bits()))
            .collect()
    }

    /// One arbitrary observation: any instant (so logs are non-monotonic),
    /// a small cell space (so the dictionary repeats), and RSSI values that
    /// include `-0.0`, NaNs with payloads and infinities.
    fn arbitrary_observation(
        (time, cid, g3, rssi_kind, rssi_bits): (u64, u32, bool, u8, u64),
    ) -> GsmObservation {
        let rssi_dbm = match rssi_kind {
            0 => -0.0,
            1 => f64::from_bits(0x7ff8_0000_dead_beef),
            2 => f64::from_bits(0xfff0_0000_0000_0001),
            3 => f64::NEG_INFINITY,
            4 => f64::from_bits(rssi_bits),
            _ => -50.0 - (rssi_bits % 600) as f64 / 8.0,
        };
        GsmObservation {
            time: SimTime::from_seconds(time),
            cell: CellGlobalId {
                plmn: Plmn {
                    mcc: 404 + (cid % 3) as u16,
                    mnc: (cid % 5) as u16,
                },
                lac: Lac((cid * 7) as u16),
                cell: CellId(cid.wrapping_mul(2_654_435_761)),
            },
            layer: if g3 {
                NetworkLayer::G3
            } else {
                NetworkLayer::G2
            },
            rssi_dbm,
        }
    }

    fn arbitrary_log() -> impl Strategy<Value = Vec<GsmObservation>> {
        prop::collection::vec(
            (any::<u64>(), 0u32..12, any::<bool>(), 0u8..8, any::<u64>()),
            0..48,
        )
        .prop_map(|raw| raw.into_iter().map(arbitrary_observation).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The binary spelling round-trips any stream bit for bit, and
        /// re-encoding the decoded batch reproduces the same bytes.
        #[test]
        fn binary_round_trip_is_bit_exact(log in arbitrary_log()) {
            let bytes = ObservationBatch::encode(&log).to_bytes();
            let back = ObservationBatch::from_bytes(&bytes).unwrap();
            prop_assert_eq!(back.to_bytes(), bytes);
            prop_assert_eq!(bits(&back.decode().unwrap()), bits(&log));
        }

        /// Every proper prefix of a valid encoding, and the encoding with
        /// bytes appended, is an error — never a panic or a short batch.
        #[test]
        fn truncated_or_padded_encodings_are_errors(log in arbitrary_log(), pad in 1usize..9) {
            let bytes = ObservationBatch::encode(&log).to_bytes();
            for len in 0..bytes.len() {
                prop_assert!(ObservationBatch::from_bytes(&bytes[..len]).is_err(), "prefix {len}");
            }
            let mut padded = bytes.clone();
            padded.resize(bytes.len() + pad, 0);
            prop_assert!(ObservationBatch::from_bytes(&padded).is_err());
        }

        /// Encoding an engine's column log, whole or from any offset,
        /// gives the bytes encoding its observations gives, both through
        /// a batch and written straight from the columns.
        #[test]
        fn encoding_a_log_view_equals_encoding_its_observations(
            log in arbitrary_log(),
            cut in 0.0..1.0f64,
        ) {
            let mut log = log;
            log.sort_by_key(|obs| obs.time);
            let mut engine = IncrementalGca::new(GcaConfig::default());
            engine.record(&log);
            let from = (log.len() as f64 * cut) as usize;
            let view = engine.log().suffix(from);
            let expected = ObservationBatch::encode(&log[from..]).to_bytes();
            prop_assert_eq!(ObservationBatch::encode_log(view).to_bytes(), expected.clone());
            prop_assert_eq!(ObservationBatch::log_bytes(view), expected);
        }

        /// Random bytes are rejected without panicking.
        #[test]
        fn random_bytes_are_errors(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            prop_assert!(ObservationBatch::from_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn empty_log_binary_round_trips() {
        let bytes = ObservationBatch::encode(&[]).to_bytes();
        assert_eq!(bytes.len(), 24, "two zero counts and t0");
        let back = ObservationBatch::from_bytes(&bytes).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.decode().unwrap(), Vec::new());
    }

    /// A count the remaining bytes cannot hold is refused before any
    /// allocation is sized from it.
    #[test]
    fn oversized_counts_are_refused_before_allocating() {
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let err = ObservationBatch::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("cell count"), "{err}");

        let mut bytes = ObservationBatch::encode(&[obs(60, 1, -60.0)]).to_bytes();
        let n_at = 8 + CELL_BYTES + 8;
        bytes[n_at..n_at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        let err = ObservationBatch::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("observation count"), "{err}");

        let mut bytes = ObservationBatch::encode(&[obs(60, 1, -60.0)]).to_bytes();
        bytes[n_at + 8 + 8 + 4] = 7;
        let err = ObservationBatch::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("layer"), "{err}");
    }

    #[test]
    fn ragged_batch_is_an_error_not_a_panic() {
        let mut batch = ObservationBatch::encode(&[obs(60, 1, -60.0)]);
        batch.rssi_dbm.clear();
        assert!(batch.decode().is_err());
        let mut batch = ObservationBatch::encode(&[obs(60, 1, -60.0)]);
        batch.cell[0] = 99;
        assert!(batch.decode().is_err());
    }
}
