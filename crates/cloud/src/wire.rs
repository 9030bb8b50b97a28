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
//! `Vec<GsmObservation>` that was encoded, field for field, so a cloud
//! absorbing a batched offload reaches a state byte-identical to one fed
//! the plain array. The `start` idempotency key and the server-side
//! watermark seams are untouched — batching only changes how the suffix
//! is spelled on the wire, never what it means.
//!
//! The same columns also have a binary spelling,
//! [`ObservationBatch::to_bytes`]/[`ObservationBatch::from_bytes`]: the
//! storage engine parks a user's whole GCA observation log in it, so
//! evicting or hydrating a user moves a flat byte block instead of
//! megabytes of nested JSON, and the durable WAL frames each sequenced
//! batched offload in it. All integers are little-endian:
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

use pmware_world::intern::Interner;
use pmware_world::tower::NetworkLayer;
use pmware_world::{CellGlobalId, CellId, GsmObservation, Lac, Plmn, SimTime};
use serde::{Deserialize, Serialize};

/// Bytes of one dictionary entry in the binary spelling.
const CELL_BYTES: usize = 10;
/// Bytes of one observation across the four binary columns.
const OBSERVATION_BYTES: usize = 8 + 4 + 1 + 8;

/// A delta-compressed, dictionary-coded slice of a GSM observation
/// stream. Produced by [`ObservationBatch::encode`]; the columns are
/// parallel (all have one entry per observation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Reconstructs the encoded observations exactly.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed column when the parallel
    /// arrays disagree in length or a symbol escapes the dictionary — a
    /// batch from a confused (or hostile) client must not panic the
    /// server.
    pub fn decode(&self) -> Result<Vec<GsmObservation>, String> {
        let n = self.dt.len();
        if self.is_ragged() {
            return Err(format!(
                "ragged batch: dt={} cell={} layer={} rssi={}",
                n,
                self.cell.len(),
                self.layer.len(),
                self.rssi_dbm.len()
            ));
        }
        let mut observations = Vec::with_capacity(n);
        let mut t = self.t0;
        for i in 0..n {
            t = t.wrapping_add(self.dt[i] as u64);
            let cell = *self
                .cells
                .get(self.cell[i] as usize)
                .ok_or_else(|| format!("symbol {} outside dictionary", self.cell[i]))?;
            observations.push(GsmObservation {
                time: SimTime::from_seconds(t),
                cell,
                layer: self.layer[i],
                rssi_dbm: self.rssi_dbm[i],
            });
        }
        Ok(observations)
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
        let n = self.len();
        assert!(!self.is_ragged(), "to_bytes on a ragged batch");
        let mut out =
            Vec::with_capacity(24 + self.cells.len() * CELL_BYTES + n * OBSERVATION_BYTES);
        out.extend_from_slice(&(self.cells.len() as u64).to_le_bytes());
        for cell in &self.cells {
            out.extend_from_slice(&cell.plmn.mcc.to_le_bytes());
            out.extend_from_slice(&cell.plmn.mnc.to_le_bytes());
            out.extend_from_slice(&cell.lac.0.to_le_bytes());
            out.extend_from_slice(&cell.cell.0.to_le_bytes());
        }
        out.extend_from_slice(&self.t0.to_le_bytes());
        out.extend_from_slice(&(n as u64).to_le_bytes());
        for dt in &self.dt {
            out.extend_from_slice(&dt.to_le_bytes());
        }
        for symbol in &self.cell {
            out.extend_from_slice(&symbol.to_le_bytes());
        }
        out.extend(self.layer.iter().map(|layer| match layer {
            NetworkLayer::G2 => 0u8,
            NetworkLayer::G3 => 1u8,
        }));
        for rssi in &self.rssi_dbm {
            out.extend_from_slice(&rssi.to_bits().to_le_bytes());
        }
        out
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
        let mut cells = Vec::with_capacity(cell_count);
        for _ in 0..cell_count {
            cells.push(CellGlobalId {
                plmn: Plmn {
                    mcc: u16::from_le_bytes(input.take()?),
                    mnc: u16::from_le_bytes(input.take()?),
                },
                lac: Lac(u16::from_le_bytes(input.take()?)),
                cell: CellId(u32::from_le_bytes(input.take()?)),
            });
        }
        let t0 = u64::from_le_bytes(input.take()?);
        let n = input.count(OBSERVATION_BYTES, "observation")?;
        let mut batch = ObservationBatch {
            cells,
            t0,
            dt: Vec::with_capacity(n),
            cell: Vec::with_capacity(n),
            layer: Vec::with_capacity(n),
            rssi_dbm: Vec::with_capacity(n),
        };
        for _ in 0..n {
            batch.dt.push(i64::from_le_bytes(input.take()?));
        }
        for _ in 0..n {
            batch.cell.push(u32::from_le_bytes(input.take()?));
        }
        for _ in 0..n {
            batch.layer.push(match input.take::<1>()? {
                [0] => NetworkLayer::G2,
                [1] => NetworkLayer::G3,
                [other] => return Err(format!("unknown layer byte {other}")),
            });
        }
        for _ in 0..n {
            batch
                .rssi_dbm
                .push(f64::from_bits(u64::from_le_bytes(input.take()?)));
        }
        input.finish()?;
        Ok(batch)
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

/// A little-endian cursor over a binary block that never reads past the
/// end — shared by the batch codec and the WAL frame codec.
pub(crate) struct ByteReader<'a> {
    bytes: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes }
    }

    /// The next `N` bytes.
    pub(crate) fn take<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let Some((head, rest)) = self.bytes.split_first_chunk::<N>() else {
            return Err(format!(
                "truncated: {N} bytes wanted, {} left",
                self.bytes.len()
            ));
        };
        self.bytes = rest;
        Ok(*head)
    }

    /// The next `len` bytes, borrowed.
    pub(crate) fn slice(&mut self, len: usize) -> Result<&'a [u8], String> {
        if len > self.bytes.len() {
            return Err(format!(
                "truncated: {len} bytes wanted, {} left",
                self.bytes.len()
            ));
        }
        let (head, rest) = self.bytes.split_at(len);
        self.bytes = rest;
        Ok(head)
    }

    /// Everything not yet read.
    pub(crate) fn rest(self) -> &'a [u8] {
        self.bytes
    }

    /// Succeeds only when every byte has been read.
    pub(crate) fn finish(self) -> Result<(), String> {
        match self.bytes.len() {
            0 => Ok(()),
            left => Err(format!("{left} trailing bytes")),
        }
    }

    /// A `u64` item count, accepted only if the remaining bytes can hold
    /// that many items of `item_bytes` each.
    fn count(&mut self, item_bytes: usize, what: &str) -> Result<usize, String> {
        let count = u64::from_le_bytes(self.take()?);
        let fits = usize::try_from(count)
            .ok()
            .filter(|&count| count <= self.bytes.len() / item_bytes);
        fits.ok_or_else(|| {
            format!(
                "{what} count {count} exceeds the {} bytes left",
                self.bytes.len()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn serde_round_trips() {
        let log = vec![obs(60, 10, -71.5), obs(75, 11, -80.0)];
        let batch = ObservationBatch::encode(&log);
        let json = serde_json::to_string(&batch).unwrap();
        let back: ObservationBatch = serde_json::from_str(&json).unwrap();
        assert_eq!(back, batch);
        assert_eq!(back.decode().unwrap(), log);
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
