//! The primitives every binary spelling in the cloud shares: the
//! observation batch's column block ([`crate::wire`]), the durable WAL's
//! frames and the parked snapshot files (both in `crate::storage`).
//!
//! All integers are little-endian, a string is a `u32` byte length plus
//! UTF-8, and a cell is `mcc:u16 mnc:u16 lac:u16 cid:u32`. Reading goes
//! through [`ByteReader`], which never reads past the end and accepts an
//! item count only when the bytes left can hold that many items, so a
//! decoder never allocates more than its input could fill. Frames and
//! files carry [`checksum`].

use pmware_world::{CellGlobalId, CellId, Lac, Plmn};

/// Bytes of one cell: `mcc:u16 mnc:u16 lac:u16 cid:u32`.
pub(crate) const CELL_BYTES: usize = 10;

/// Appends a cell's bytes.
pub(crate) fn put_cell(out: &mut Vec<u8>, cell: &CellGlobalId) {
    out.extend_from_slice(&cell.plmn.mcc.to_le_bytes());
    out.extend_from_slice(&cell.plmn.mnc.to_le_bytes());
    out.extend_from_slice(&cell.lac.0.to_le_bytes());
    out.extend_from_slice(&cell.cell.0.to_le_bytes());
}

/// The cell `bytes` spell.
pub(crate) fn cell_of(bytes: [u8; CELL_BYTES]) -> CellGlobalId {
    let [m0, m1, n0, n1, l0, l1, c0, c1, c2, c3] = bytes;
    CellGlobalId {
        plmn: Plmn {
            mcc: u16::from_le_bytes([m0, m1]),
            mnc: u16::from_le_bytes([n0, n1]),
        },
        lac: Lac(u16::from_le_bytes([l0, l1])),
        cell: CellId(u32::from_le_bytes([c0, c1, c2, c3])),
    }
}

/// Appends a `u32`-length-prefixed string. Callers bound the whole
/// encoding by a `u32` (a WAL frame's length) or never approach it.
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Reads a `u32`-length-prefixed UTF-8 string.
pub(crate) fn take_str<'a>(input: &mut ByteReader<'a>) -> Result<&'a str, String> {
    let len = input.u32()? as usize;
    std::str::from_utf8(input.slice(len)?).map_err(|e| format!("string: {e}"))
}

/// A little-endian cursor over a binary block that never reads past the
/// end. The snapshot store codec adds its decoders as methods, which the
/// WAL's op bodies share.
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

    /// The next byte.
    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        self.take().map(u8::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        self.take().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        self.take().map(u64::from_le_bytes)
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

    /// Everything not yet read, which leaves the cursor at the end.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.bytes)
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
    pub(crate) fn count(&mut self, item_bytes: usize, what: &str) -> Result<usize, String> {
        let count = self.u64()?;
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

/// Multiplier of the checksum (odd, so multiplying by it is a bijection
/// on `u64`).
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Initial states of the checksum's lanes 1–3 (lane 0 starts at the
/// seed).
const LANES: [u64; 3] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
];

/// One step of one checksum lane: a bijection of the lane for a fixed
/// word and of the word for a fixed lane.
fn mix(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(MIX).rotate_left(31)
}

/// The checksum of `bytes`, continuing from `seed`: four independent
/// lanes each take one little-endian `u64` of every 32-byte block (the
/// last block zero-padded), then fold, with the length, into one value.
/// Each step is a bijection of its lane, so a change within one 8-byte
/// word, a flipped bit included, always changes the result, and so does a
/// changed seed. It reads eight bytes a step where FNV-1a reads one,
/// which keeps a check of every frame and every hydration cheap.
pub(crate) fn checksum(seed: u64, bytes: &[u8]) -> u64 {
    let mut lanes = [seed, LANES[0], LANES[1], LANES[2]];
    let mut step = |block: &[u8; 32]| {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = mix(*lane, u64::from_le_bytes(*word));
        }
    };
    let (blocks, tail) = bytes.as_chunks::<32>();
    blocks.iter().for_each(&mut step);
    let mut last = [0; 32];
    last[..tail.len()].copy_from_slice(tail);
    step(&last);
    let folded = lanes
        .iter()
        .fold(bytes.len() as u64, |h, &lane| mix(h, lane));
    folded ^ (folded >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flip of any one bit changes the checksum, in whole blocks and in
    /// the zero-padded tail alike, and so does a changed seed or length.
    #[test]
    fn checksum_catches_every_single_bit_flip() {
        let bytes: Vec<u8> = (0..77u8).map(|b| b.wrapping_mul(37)).collect();
        let intact = checksum(0, &bytes);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(0, &flipped), intact, "bit {bit}");
        }
        assert_ne!(checksum(1, &bytes), intact);
        assert_ne!(checksum(0, &[bytes.as_slice(), &[0]].concat()), intact);
        assert_ne!(checksum(0, &[]), checksum(0, &[0]));
    }

    #[test]
    fn cells_and_strings_round_trip() {
        let cell = CellGlobalId {
            plmn: Plmn {
                mcc: 404,
                mnc: u16::MAX,
            },
            lac: Lac(7),
            cell: CellId(u32::MAX - 1),
        };
        let mut out = Vec::new();
        put_cell(&mut out, &cell);
        put_str(&mut out, "Zürich");
        let mut input = ByteReader::new(&out);
        assert_eq!(cell_of(input.take().unwrap()), cell);
        assert_eq!(take_str(&mut input).unwrap(), "Zürich");
        input.finish().unwrap();
    }

    #[test]
    fn counts_the_bytes_left_cannot_hold_are_refused() {
        let mut bytes = 3u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 2 * CELL_BYTES]);
        let err = ByteReader::new(&bytes)
            .count(CELL_BYTES, "cell")
            .unwrap_err();
        assert!(err.contains("cell count 3"), "{err}");
        bytes[0] = 2;
        assert_eq!(ByteReader::new(&bytes).count(CELL_BYTES, "cell"), Ok(2));
    }
}
