//! Hand-rolled binary byte codecs for the wire types that cross process
//! boundaries in the distributed runtime (`prompt-engine::net`).
//!
//! The repo policy is **no serde**: like the trace layer's hand-rolled JSON,
//! the data plane gets an explicit little-endian binary format. Everything
//! here is deterministic — the same value always encodes to the same bytes —
//! so encodings can be compared byte for byte and checksummed.
//!
//! Layout conventions:
//!
//! * all integers little-endian; `f64` as its IEEE-754 bit pattern (`u64`),
//!   so values round-trip bit-exactly (including `-0.0` and NaN payloads);
//! * collection lengths as `u32` counts followed by the elements;
//! * no self-describing tags inside payloads — framing and versioning live
//!   one layer up, in the engine's wire module.

use crate::batch::{Columns, DataBlock, KeyFragment};
use crate::columnar::{ColumnarBatch, ColumnarBlock};
use crate::types::Key;

/// Decoding error: the bytes do not describe a valid value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes remain than the value needs.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// A length prefix promises more elements than the remaining bytes
    /// could possibly hold (guards against allocating on garbage input).
    BadLength {
        /// Declared element count.
        len: usize,
        /// Bytes remaining after the prefix.
        remaining: usize,
    },
    /// A field held a value outside its domain (bad enum tag, invalid
    /// UTF-8, …).
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            CodecError::BadLength { len, remaining } => {
                write!(
                    f,
                    "length prefix {len} impossible with {remaining} bytes left"
                )
            }
            CodecError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Byte sink the encoders write into. Implemented by [`ByteWriter`] (buffer
/// building) and [`Crc32Sink`] (streaming checksum), so one encoder
/// definition serves both serialization and integrity checks.
pub trait BytesSink {
    /// Append raw bytes.
    fn put_bytes(&mut self, bytes: &[u8]);

    /// Append a `u8`.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_bytes(&[v]);
    }

    /// Append a little-endian `u16`.
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    #[inline]
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a collection length as a `u32` count.
    ///
    /// Panics if `len` exceeds `u32::MAX` — four billion elements in one
    /// frame is beyond any workload this engine batches.
    #[inline]
    fn put_len(&mut self, len: usize) {
        self.put_u32(u32::try_from(len).expect("collection too large for wire"));
    }

    /// Append a `u64` as an LEB128 varint: 7 value bits per byte, high bit
    /// as continuation. Small values (the common case for ids, counts and
    /// sorted-key deltas) take 1–2 bytes instead of 8; the encoding is
    /// canonical — exactly one byte sequence per value — so varint payloads
    /// stay comparable byte for byte.
    fn put_varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.put_u8(b);
                return;
            }
            self.put_u8(b | 0x80);
        }
    }

    /// Append a collection length as a varint count.
    ///
    /// Panics if `len` exceeds `u32::MAX`, like [`BytesSink::put_len`].
    fn put_varint_len(&mut self, len: usize) {
        u32::try_from(len).expect("collection too large for wire");
        self.put_varint(len as u64);
    }

    /// Append a UTF-8 string (length prefix + bytes).
    fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.put_bytes(s.as_bytes());
    }
}

/// Growable byte buffer implementing [`BytesSink`].
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Forget the bytes written so far and keep the allocation, for a
    /// buffer that is filled again and again.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Make room for `additional` more bytes in one allocation.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Overwrite the four bytes at `at` with a little-endian `u32`: a length
    /// prefix written as a placeholder before what it counts.
    ///
    /// Panics if fewer than four bytes were written at `at`.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// View of the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

impl BytesSink for ByteWriter {
    #[inline]
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Cursor over a byte slice with checked little-endian reads.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a collection length and validate it against the bytes left:
    /// `len * min_element_size` must still fit, so garbage length prefixes
    /// fail fast instead of triggering huge allocations.
    pub fn get_len(&mut self, min_element_size: usize) -> Result<usize, CodecError> {
        let len = self.get_u32()? as usize;
        if len.saturating_mul(min_element_size.max(1)) > self.remaining() {
            return Err(CodecError::BadLength {
                len,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Read an LEB128 varint (the counterpart of [`BytesSink::put_varint`]).
    ///
    /// Rejects truncated input, encodings longer than 10 bytes, 10th bytes
    /// that would overflow 64 bits, and non-canonical (overlong) encodings —
    /// every `u64` has exactly one accepted byte sequence.
    pub fn get_varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.get_u8()?;
            // The 10th byte may only hold the top bit of a u64; anything
            // larger (including a continuation bit, i.e. an 11th byte)
            // cannot encode a u64.
            if shift == 63 && b > 1 {
                return Err(CodecError::Malformed("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift != 0 {
                    return Err(CodecError::Malformed("non-canonical varint"));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a varint collection length with the same guard as
    /// [`ByteReader::get_len`]: `len * min_element_size` must still fit in
    /// the remaining bytes.
    pub fn get_varint_len(&mut self, min_element_size: usize) -> Result<usize, CodecError> {
        let raw = self.get_varint()?;
        let len = usize::try_from(raw).map_err(|_| CodecError::Malformed("length prefix"))?;
        if len.saturating_mul(min_element_size.max(1)) > self.remaining() {
            return Err(CodecError::BadLength {
                len,
                remaining: self.remaining(),
            });
        }
        Ok(len)
    }

    /// Read a UTF-8 string (length prefix + bytes).
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Malformed("utf-8 string"))
    }

    /// Fail unless every byte was consumed — frames must not carry slack.
    pub fn expect_empty(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes after value"))
        }
    }
}

/// Zigzag-map a signed delta onto the unsigned varint domain: small
/// magnitudes of either sign get small codes (0 → 0, -1 → 1, 1 → 2, …).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Invert [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a key as a zigzag varint delta against the previous key of a
/// sorted run. Ascending key ids yield small positive deltas (1–2 bytes
/// instead of 8); the wrapping difference keeps the mapping total, so even
/// unsorted inputs round-trip exactly.
pub fn put_key_delta<S: BytesSink>(s: &mut S, prev: u64, key: u64) {
    s.put_varint(zigzag(key.wrapping_sub(prev) as i64));
}

/// Read a key encoded by [`put_key_delta`] against the same previous key.
pub fn get_key_delta(r: &mut ByteReader<'_>, prev: u64) -> Result<u64, CodecError> {
    Ok(prev.wrapping_add(unzigzag(r.get_varint()?) as u64))
}

/// What one tuple took on the wire before blocks dropped the timestamp:
/// ts + key + value, 8 bytes each. Only the retired layouts' accounting
/// reads it.
pub const TUPLE_WIRE_SIZE: usize = 24;

/// Encoded size of one [`KeyFragment`] — a block's run or a fragment: key +
/// count.
pub const FRAGMENT_WIRE_SIZE: usize = 16;

/// Encoded size of one value: its IEEE-754 bits.
pub const VALUE_WIRE_SIZE: usize = 8;

/// Entries [`put_blocked`] hands a sink per call.
const BLOCK_ENTRIES: usize = 256;

/// Encode `items` at `W` bytes each through a stack block, 256 entries to a
/// sink call, not a call per field: a Map frame carries hundreds of
/// thousands of values and a snapshot over a million entries, and the sink
/// call was most of what encoding one cost.
pub fn put_blocked<S: BytesSink, T, const W: usize>(
    s: &mut S,
    items: impl IntoIterator<Item = T>,
    encode: impl Fn(T) -> [u8; W],
) {
    let mut block = [[0u8; W]; BLOCK_ENTRIES];
    let mut n = 0;
    for item in items {
        block[n] = encode(item);
        n += 1;
        if n == BLOCK_ENTRIES {
            s.put_bytes(block.as_flattened());
            n = 0;
        }
    }
    if n > 0 {
        s.put_bytes(block[..n].as_flattened());
    }
}

/// The little-endian `u64` at `at` of a slice whose length was checked.
fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
}

/// Encode a run table (length-prefixed), 16 bytes a run.
fn put_runs<S: BytesSink>(s: &mut S, runs: impl ExactSizeIterator<Item = KeyFragment>) {
    s.put_len(runs.len());
    put_blocked(s, runs, |f| {
        let mut out = [0u8; FRAGMENT_WIRE_SIZE];
        out[..8].copy_from_slice(&f.key.0.to_le_bytes());
        out[8..].copy_from_slice(&(f.count as u64).to_le_bytes());
        out
    });
}

/// Encode a column of `n` values (length-prefixed), 8 bytes a value.
fn put_values<S: BytesSink>(s: &mut S, n: usize, values: impl IntoIterator<Item = f64>) {
    s.put_len(n);
    put_blocked(s, values, |v| v.to_bits().to_le_bytes());
}

/// Encode one data block as a job reading `columns` reads it: its runs, then
/// its value column — every value under [`Columns::RunsAndValues`], none
/// under [`Columns::Runs`], whatever the block carries. Panics when the job
/// reads values the block does not carry.
pub fn put_block<S: BytesSink>(s: &mut S, block: &DataBlock, columns: Columns) {
    put_runs(s, block.runs.iter().copied());
    match columns {
        Columns::RunsAndValues => {
            assert_eq!(
                block.columns(),
                Columns::RunsAndValues,
                "a job that reads values is sent a block of runs alone"
            );
            put_values(s, block.values.len(), block.values.iter().copied());
        }
        Columns::Runs => put_values(s, 0, []),
    }
}

/// Encode a columnar block — byte-identical to [`put_block`] over the row
/// twin ([`ColumnarPlan::to_row_plan`](crate::columnar::ColumnarPlan::to_row_plan)
/// block): its ranges are the runs, in assignment order, and their values
/// concatenate in the same order.
pub fn put_block_columnar<S: BytesSink>(
    s: &mut S,
    arena: &ColumnarBatch,
    block: &ColumnarBlock,
    columns: Columns,
) {
    put_runs(s, block.runs());
    match columns {
        Columns::RunsAndValues => {
            let ranges = block.ranges.iter();
            let values = ranges.flat_map(|&(_, r)| &arena.values[r.offset..r.end()]);
            put_values(s, block.size(), values.copied());
        }
        Columns::Runs => put_values(s, 0, []),
    }
}

/// Decode one data block sent to a job reading `columns`, refusing one that
/// is not a block: a length prefix past the bytes left is `BadLength`; an
/// empty run, run keys that do not strictly ascend, run counts that do not
/// sum exactly to the value count under a job that reads values, or a value
/// column under one that reads none, are `Malformed`. So a decoded block is
/// one run per key, keys ascending, as every block is, carrying `columns`.
pub fn get_block(r: &mut ByteReader<'_>, columns: Columns) -> Result<DataBlock, CodecError> {
    let n_runs = r.get_len(FRAGMENT_WIRE_SIZE)?;
    let bytes = r.take(n_runs * FRAGMENT_WIRE_SIZE)?;
    let mut runs: Vec<KeyFragment> = Vec::with_capacity(n_runs);
    let mut covered = 0usize;
    for b in bytes.chunks_exact(FRAGMENT_WIRE_SIZE) {
        let count = usize::try_from(u64_at(b, 8)).map_err(|_| RUNS_PAST_VALUES)?;
        if count == 0 {
            return Err(CodecError::Malformed("empty run"));
        }
        let key = Key(u64_at(b, 0));
        if runs.last().is_some_and(|last| last.key.0 >= key.0) {
            return Err(CodecError::Malformed("run keys do not ascend"));
        }
        covered = covered.checked_add(count).ok_or(RUNS_PAST_VALUES)?;
        runs.push(KeyFragment { key, count });
    }
    let n = r.get_len(VALUE_WIRE_SIZE)?;
    match columns {
        Columns::RunsAndValues if covered != n => return Err(RUNS_PAST_VALUES),
        Columns::Runs if n > 0 => {
            return Err(CodecError::Malformed(
                "a value column under a job that reads none",
            ))
        }
        _ => {}
    }
    let bytes = r.take(n * VALUE_WIRE_SIZE)?;
    let values = (bytes.chunks_exact(VALUE_WIRE_SIZE)).map(|b| f64::from_bits(u64_at(b, 0)));
    Ok(DataBlock::new(runs, values.collect()))
}

/// Why a block's runs were refused when they do not cover its values.
const RUNS_PAST_VALUES: CodecError = CodecError::Malformed("runs do not sum to the value count");

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) lookup tables,
/// built at compile time. `[0]` is the byte-at-a-time table; `[k]` is the
/// same byte followed by `k` zero bytes, so eight input bytes fold into the
/// state in one step (slicing-by-8) — a snapshot frame is tens of megabytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Streaming CRC-32 (IEEE) implementing [`BytesSink`] — the integrity check
/// for durable state files, where a short 32-bit check detecting torn or
/// bit-rotted frames matters more than collision resistance. Matches the
/// standard zlib/`cksum -o 3` CRC: init `!0`, reflected, final xor `!0`.
#[derive(Clone, Copy, Debug)]
pub struct Crc32Sink {
    state: u32,
}

impl Crc32Sink {
    /// Fresh CRC at the standard all-ones preset.
    pub fn new() -> Crc32Sink {
        Crc32Sink { state: !0 }
    }

    /// The CRC of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32Sink {
    fn default() -> Crc32Sink {
        Crc32Sink::new()
    }
}

impl BytesSink for Crc32Sink {
    fn put_bytes(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][(lo >> 8 & 0xFF) as usize]
                ^ t[5][(lo >> 16 & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][(hi >> 8 & 0xFF) as usize]
                ^ t[1][(hi >> 16 & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }
}

/// CRC-32 (IEEE) of a byte slice in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut sink = Crc32Sink::new();
    sink.put_bytes(bytes);
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{MicroBatch, PartitionPlan};
    use crate::partitioner::{HashPartitioner, Partitioner};
    use crate::types::{Interval, Time, Tuple};

    fn sample_plan() -> PartitionPlan {
        let tuples: Vec<Tuple> = (0..200)
            .map(|i| Tuple {
                ts: Time(i * 10),
                key: Key(i % 7),
                value: (i as f64) * 0.25 - 3.0,
            })
            .collect();
        let batch = MicroBatch::new(tuples, Interval::new(Time(0), Time(2_000)));
        HashPartitioner::new(3).partition(&batch, 4)
    }

    #[test]
    fn a_block_is_its_runs_and_its_values_bit_exact() {
        let values = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, -123.456];
        let run = |k, count| KeyFragment { key: Key(k), count };
        let block = DataBlock::new(
            vec![run(0, 3), run(7, 1), run(u64::MAX, 2)],
            values.to_vec(),
        );
        let mut w = ByteWriter::new();
        put_block(&mut w, &block, Columns::RunsAndValues);
        assert_eq!(
            w.len(),
            4 + 3 * FRAGMENT_WIRE_SIZE + 4 + 6 * VALUE_WIRE_SIZE
        );
        let mut r = ByteReader::new(w.as_bytes());
        let back = get_block(&mut r, Columns::RunsAndValues).unwrap();
        r.expect_empty().unwrap();
        assert_eq!(back.runs, block.runs);
        let bits = |b: &DataBlock| b.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&block));
    }

    /// A job that reads no value is sent the block's runs alone, whether or
    /// not the block carries values, and decodes a block of the same size
    /// and runs with an empty value column.
    #[test]
    fn a_block_of_runs_alone_is_its_runs_and_an_empty_value_column() {
        let mut block = sample_plan().blocks.swap_remove(0);
        let mut carried = ByteWriter::new();
        put_block(&mut carried, &block, Columns::Runs);
        assert_eq!(carried.len(), 4 + block.runs.len() * FRAGMENT_WIRE_SIZE + 4);
        block.values.clear();
        let mut alone = ByteWriter::new();
        put_block(&mut alone, &block, Columns::Runs);
        assert_eq!(carried.as_bytes(), alone.as_bytes());
        let mut r = ByteReader::new(alone.as_bytes());
        let back = get_block(&mut r, Columns::Runs).unwrap();
        r.expect_empty().unwrap();
        assert_eq!(back, block);
        assert_eq!(back.columns(), Columns::Runs);
        assert!(back.size() > 0);
    }

    #[test]
    #[should_panic(expected = "a job that reads values is sent a block of runs alone")]
    fn a_block_of_runs_alone_is_not_sent_to_a_job_that_reads_values() {
        let mut block = sample_plan().blocks.swap_remove(0);
        block.values.clear();
        put_block(&mut ByteWriter::new(), &block, Columns::RunsAndValues);
    }

    /// A block's bytes from a run table and a value count, as a hostile
    /// peer might write them.
    fn block_bytes(runs: &[(u64, u64)], values: usize) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_len(runs.len());
        for &(key, count) in runs {
            w.put_u64(key);
            w.put_u64(count);
        }
        w.put_len(values);
        for i in 0..values {
            w.put_f64(i as f64);
        }
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<DataBlock, CodecError> {
        get_block(&mut ByteReader::new(bytes), Columns::RunsAndValues)
    }

    fn decode_runs(bytes: &[u8]) -> Result<DataBlock, CodecError> {
        get_block(&mut ByteReader::new(bytes), Columns::Runs)
    }

    #[test]
    fn a_block_with_an_empty_run_is_refused() {
        assert!(decode(&block_bytes(&[(1, 2), (2, 1)], 3)).is_ok());
        assert_eq!(
            decode(&block_bytes(&[(1, 2), (2, 0), (3, 1)], 3)),
            Err(CodecError::Malformed("empty run"))
        );
    }

    #[test]
    fn runs_that_do_not_ascend_are_refused() {
        let refused = Err(CodecError::Malformed("run keys do not ascend"));
        // A repeated key, adjacent or not, and a descending pair.
        for runs in [
            &[(1, 2), (1, 1)][..],
            &[(1, 1), (4, 1), (1, 1)],
            &[(u64::MAX, 2), (0, 1)],
        ] {
            assert_eq!(decode(&block_bytes(runs, 3)), refused, "{runs:?}");
            assert_eq!(decode_runs(&block_bytes(runs, 0)), refused, "{runs:?}");
        }
    }

    /// Under a job that reads values, a block of runs alone is one whose
    /// runs do not sum to its value count.
    #[test]
    fn runs_that_do_not_sum_to_the_value_count_are_refused() {
        for (runs, values) in [
            (&[(1, 2), (2, 1)][..], 4),
            (&[(1, 2), (2, 3)][..], 4),
            (&[], 1),
            (&[(1, 1)], 0),
            (&[(1, 2), (2, 1)], 0),
            // Counts that overflow the sum, and one past `usize`.
            (&[(1, u64::MAX), (2, 2)], 1),
        ] {
            assert_eq!(
                decode(&block_bytes(runs, values)),
                Err(RUNS_PAST_VALUES),
                "{runs:?} over {values} values"
            );
        }
        let overflow = block_bytes(&[(1, u64::MAX), (2, 2)], 0);
        assert_eq!(decode_runs(&overflow), Err(RUNS_PAST_VALUES));
    }

    /// A job that reads no value is sent no value column; an empty block
    /// suits either job.
    #[test]
    fn a_value_column_under_a_job_that_reads_none_is_refused() {
        let runs = &[(1, 2), (2, 1)];
        assert!(decode_runs(&block_bytes(runs, 0)).is_ok());
        let unread = Err(CodecError::Malformed(
            "a value column under a job that reads none",
        ));
        for values in [1, 3] {
            assert_eq!(decode_runs(&block_bytes(runs, values)), unread);
        }
        let empty = Ok(DataBlock::default());
        assert_eq!(decode(&block_bytes(&[], 0)), empty);
        assert_eq!(decode_runs(&block_bytes(&[], 0)), empty);
    }

    #[test]
    fn counts_past_the_frames_bytes_are_refused_before_allocating() {
        // A run table that promises 4 billion runs.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        assert!(matches!(
            decode(w.as_bytes()),
            Err(CodecError::BadLength { .. })
        ));
        // A value column that promises more values than follow.
        let mut bytes = block_bytes(&[(1, 3)], 3);
        let at = 4 + FRAGMENT_WIRE_SIZE;
        bytes[at..at + 4].copy_from_slice(&4u32.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(CodecError::BadLength { .. })));
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let plan = sample_plan();
        for columns in [Columns::RunsAndValues, Columns::Runs] {
            let mut w = ByteWriter::new();
            put_block(&mut w, &plan.blocks[0], columns);
            let bytes = w.into_bytes();
            for cut in 0..bytes.len() {
                let mut r = ByteReader::new(&bytes[..cut]);
                assert!(
                    get_block(&mut r, columns).is_err(),
                    "cut at {cut}/{} decoded anyway",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn strings_round_trip_and_bad_utf8_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_str("håndteret ✓");
        let mut r = ByteReader::new(w.as_bytes());
        assert_eq!(r.get_str().unwrap(), "håndteret ✓");

        let mut w = ByteWriter::new();
        w.put_len(2);
        w.put_bytes(&[0xff, 0xfe]);
        let mut r = ByteReader::new(w.as_bytes());
        assert_eq!(r.get_str(), Err(CodecError::Malformed("utf-8 string")));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Streaming in pieces equals one-shot.
        let mut sink = Crc32Sink::new();
        sink.put_bytes(b"1234");
        sink.put_bytes(b"56789");
        assert_eq!(sink.finish(), 0xCBF4_3926);
        // Eight bytes at a time equals one at a time, at every split of the
        // input into a head, whole words and a tail.
        let bytes: Vec<u8> = (0u32..61).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..9 {
            for end in start..bytes.len() {
                let mut bytewise = Crc32Sink::new();
                for b in &bytes[start..end] {
                    bytewise.put_bytes(std::slice::from_ref(b));
                }
                assert_eq!(crc32(&bytes[start..end]), bytewise.finish());
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let bytes: Vec<u8> = (0u16..400).map(|i| (i % 251) as u8).collect();
        let base = crc32(&bytes);
        for pos in [0, 17, 399] {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {pos} bit {bit}");
            }
        }
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut boundary = vec![0u64, 1, 127, 128, 300, u64::MAX];
        for shift in 1..10 {
            boundary.push((1u64 << (7 * shift)) - 1);
            boundary.push(1u64 << (7 * shift));
        }
        for v in boundary {
            let mut w = ByteWriter::new();
            w.put_varint(v);
            assert!(w.len() <= 10, "{v} took {} bytes", w.len());
            let mut r = ByteReader::new(w.as_bytes());
            assert_eq!(r.get_varint().unwrap(), v);
            r.expect_empty().unwrap();
        }
    }

    #[test]
    fn varint_rejects_truncated_overlong_and_noncanonical() {
        // Truncated: continuation bit set, nothing follows.
        let mut r = ByteReader::new(&[0x80]);
        assert!(matches!(r.get_varint(), Err(CodecError::Truncated { .. })));
        // Overlong: a 10th continuation byte cannot encode a u64.
        let mut r = ByteReader::new(&[0x80; 11]);
        assert_eq!(
            r.get_varint(),
            Err(CodecError::Malformed("varint overflows u64"))
        );
        // 10th byte may only contribute the top bit of a u64.
        let frame = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut r = ByteReader::new(&frame);
        assert_eq!(
            r.get_varint(),
            Err(CodecError::Malformed("varint overflows u64"))
        );
        // Non-canonical: `1` padded with a zero terminator byte.
        let mut r = ByteReader::new(&[0x81, 0x00]);
        assert_eq!(
            r.get_varint(),
            Err(CodecError::Malformed("non-canonical varint"))
        );
    }

    #[test]
    fn key_deltas_round_trip_sorted_and_wrapping() {
        let keys = [0u64, 1, 2, 500, 10_000, u64::MAX, 3];
        let mut w = ByteWriter::new();
        let mut prev = 0u64;
        for &k in &keys {
            put_key_delta(&mut w, prev, k);
            prev = k;
        }
        // A sorted prefix of small gaps stays compact.
        let mut r = ByteReader::new(w.as_bytes());
        let mut prev = 0u64;
        for &k in &keys {
            let got = get_key_delta(&mut r, prev).unwrap();
            assert_eq!(got, k);
            prev = k;
        }
        r.expect_empty().unwrap();
        // zigzag is a bijection at the extremes.
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_len_guard_rejects_absurd_counts() {
        let mut w = ByteWriter::new();
        w.put_varint(u64::from(u32::MAX)); // promises 4 billion elements
        let mut r = ByteReader::new(w.as_bytes());
        assert!(matches!(
            r.get_varint_len(8),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn columnar_block_encoding_is_byte_identical_to_row() {
        use crate::columnar::ColumnarPlan;
        let plan = sample_plan();
        let cols = ColumnarPlan::from_row_plan(&plan);
        for (row_block, col_block) in plan.blocks.iter().zip(&cols.blocks) {
            for columns in [Columns::RunsAndValues, Columns::Runs] {
                let mut row_w = ByteWriter::new();
                put_block(&mut row_w, row_block, columns);
                let mut col_w = ByteWriter::new();
                put_block_columnar(&mut col_w, &cols.arena, col_block, columns);
                assert_eq!(row_w.as_bytes(), col_w.as_bytes());
                // And the columnar bytes decode back to the row block's runs
                // and the values the job reads.
                let mut r = ByteReader::new(col_w.as_bytes());
                let back = get_block(&mut r, columns).unwrap();
                let mut want = row_block.clone();
                if columns == Columns::Runs {
                    want.values.clear();
                }
                assert_eq!(back, want);
                r.expect_empty().unwrap();
            }
        }
    }
}
