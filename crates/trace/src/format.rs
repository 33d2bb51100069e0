//! The `.mtr` binary address-trace format (MTR1) and its streaming
//! reader/writer.
//!
//! The paper's §7 toolchain starts from *measured* program traces; this
//! module is the container they travel in.  Design goals: compact
//! (delta + zigzag-varint address records — sequential scans cost ~1
//! byte/record), streamable (fixed-size CRC-checked blocks, so a reader
//! never holds more than one block), and self-describing (a versioned
//! header carrying record count, recording granularity, and the total
//! instruction count needed to recover ρ).
//!
//! ## Layout
//!
//! ```text
//! header  (36 bytes)                 block (repeated until EOF)
//! ┌────────────────────────────┐     ┌──────────────────────────────┐
//! │ 0..4   magic  "MTR1"       │     │ 0..4   payload length (LE32) │
//! │ 4..6   version (LE16) = 1  │     │ 4..8   record count  (LE32)  │
//! │ 6..8   flags  (LE16) = 0   │     │ 8..12  payload CRC32 (LE32)  │
//! │ 8..16  granularity (LE64)  │     │ 12..   payload               │
//! │ 16..24 record count (LE64) │     └──────────────────────────────┘
//! │ 24..32 total instr. (LE64) │
//! │ 32..36 header CRC32 (LE32) │     payload = zigzag-LEB128 varints
//! └────────────────────────────┘     of wrapping deltas from the
//!                                    previous address (stream-wide).
//! ```
//!
//! The writer emits a provisional header with record count
//! `u64::MAX`, then seeks back and patches the real counts in
//! [`TraceWriter::finish`]; a reader that sees the sentinel knows the
//! producer died mid-write ([`TraceError::Unfinished`]).  Every
//! corruption mode maps to a typed error: bad magic, unknown version,
//! CRC mismatch (header or block), truncation mid-block, and a
//! header/stream record-count disagreement for truncation at a block
//! boundary.

use crate::fit::FitError;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// File magic: `MTR1`.
pub const MAGIC: [u8; 4] = *b"MTR1";
/// Current (only) format version.
pub const FORMAT_VERSION: u16 = 1;
/// Default uncompressed payload size per block (the streaming unit).
pub const DEFAULT_BLOCK_PAYLOAD: usize = 64 * 1024;
/// Recommended file extension.
pub const EXTENSION: &str = "mtr";

const HEADER_LEN: usize = 36;
const BLOCK_HEADER_LEN: usize = 12;
const UNFINISHED_COUNT: u64 = u64::MAX;
/// Upper bound on a block payload a reader will allocate; a corrupt
/// length field fails loudly instead of attempting a huge allocation.
const MAX_BLOCK_PAYLOAD: usize = 16 * 1024 * 1024;

/// Why a trace could not be written, read, or analyzed.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The header's version is newer than this reader understands.
    UnsupportedVersion(u16),
    /// A checksum did not match (`what` = `"header"` or `"block"`).
    CrcMismatch {
        /// Which structure failed its checksum.
        what: &'static str,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum recomputed over the bytes read.
        computed: u32,
    },
    /// The file ends in the middle of a structure.
    Truncated(&'static str),
    /// The writer never called [`TraceWriter::finish`] (record count is
    /// still the in-progress sentinel).
    Unfinished,
    /// The header's record count disagrees with the records actually
    /// present — truncation or concatenation at a block boundary.
    CountMismatch {
        /// Record count promised by the header.
        header: u64,
        /// Records actually decoded from the stream.
        read: u64,
    },
    /// Locality fitting over the trace failed.
    Fit(FitError),
    /// A required request field was never supplied.
    Missing(&'static str),
    /// A request field was present but malformed (field name, why).
    Invalid(&'static str, String),
    /// An object key no request field matches (typo guard).
    UnknownField(String),
    /// The input was not valid JSON.
    Syntax(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O: {e}"),
            TraceError::BadMagic(m) => write!(
                f,
                "not an MTR trace (magic {:02x?}, expected {:02x?})",
                m, MAGIC
            ),
            TraceError::UnsupportedVersion(v) => write!(
                f,
                "trace format version {v} is newer than supported ({FORMAT_VERSION})"
            ),
            TraceError::CrcMismatch {
                what,
                stored,
                computed,
            } => write!(
                f,
                "{what} checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            TraceError::Truncated(what) => write!(f, "trace truncated mid-{what}"),
            TraceError::Unfinished => {
                write!(f, "trace was never finalized (writer did not finish)")
            }
            TraceError::CountMismatch { header, read } => write!(
                f,
                "header promises {header} records but the stream holds {read}"
            ),
            TraceError::Fit(e) => write!(f, "fit: {e}"),
            TraceError::Missing(field) => write!(f, "`{field}` is required"),
            TraceError::Invalid(field, why) => write!(f, "`{field}`: {why}"),
            TraceError::UnknownField(key) => write!(f, "unknown request field `{key}`"),
            TraceError::Syntax(why) => write!(f, "malformed request: {why}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Fit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<FitError> for TraceError {
    fn from(e: FitError) -> Self {
        TraceError::Fit(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected) slicing-by-8 tables, built at compile
/// time.  `CRC_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight table lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Parsed `.mtr` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version.
    pub version: u16,
    /// Byte granularity the producer recorded at (1 = raw byte
    /// addresses; analysis may coarsen further).
    pub granularity: u64,
    /// Number of address records in the file.
    pub record_count: u64,
    /// Total instructions (memory + compute) the traced run executed;
    /// `ρ = record_count / total_instructions`.
    pub total_instructions: u64,
}

fn encode_header(granularity: u64, record_count: u64, total_instructions: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC);
    h[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    // 6..8: flags, reserved as zero.
    h[8..16].copy_from_slice(&granularity.to_le_bytes());
    h[16..24].copy_from_slice(&record_count.to_le_bytes());
    h[24..32].copy_from_slice(&total_instructions.to_le_bytes());
    let crc = crc32(&h[0..32]);
    h[32..36].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Streaming `.mtr` writer over any `Write + Seek` sink.
///
/// Feed addresses with [`record`](TraceWriter::record); the file is not
/// valid until [`finish`](TraceWriter::finish) patches the header with
/// the final record and instruction counts.
pub struct TraceWriter<W: Write + Seek> {
    sink: W,
    payload: Vec<u8>,
    block_records: u32,
    block_limit: usize,
    prev: u64,
    records: u64,
    granularity: u64,
}

impl TraceWriter<BufWriter<File>> {
    /// Create (truncating) a trace file at `path`.
    pub fn create(path: &Path, granularity: u64) -> Result<Self, TraceError> {
        TraceWriter::new(BufWriter::new(File::create(path)?), granularity)
    }
}

impl<W: Write + Seek> TraceWriter<W> {
    /// Start a trace on `sink`, writing a provisional header.
    pub fn new(mut sink: W, granularity: u64) -> Result<Self, TraceError> {
        sink.write_all(&encode_header(granularity, UNFINISHED_COUNT, 0))?;
        Ok(TraceWriter {
            sink,
            payload: Vec::with_capacity(DEFAULT_BLOCK_PAYLOAD + 10),
            block_records: 0,
            block_limit: DEFAULT_BLOCK_PAYLOAD,
            prev: 0,
            records: 0,
            granularity,
        })
    }

    /// Override the per-block payload size (test hook; smaller blocks
    /// exercise more block boundaries).
    pub fn with_block_payload(mut self, bytes: usize) -> Self {
        self.block_limit = bytes.max(10);
        self
    }

    /// Append one address record.
    pub fn record(&mut self, addr: u64) -> Result<(), TraceError> {
        let delta = addr.wrapping_sub(self.prev) as i64;
        self.prev = addr;
        push_varint(&mut self.payload, zigzag(delta));
        self.block_records += 1;
        self.records += 1;
        if self.payload.len() >= self.block_limit {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    fn flush_block(&mut self) -> Result<(), TraceError> {
        if self.payload.is_empty() {
            return Ok(());
        }
        let mut head = [0u8; BLOCK_HEADER_LEN];
        head[0..4].copy_from_slice(&(self.payload.len() as u32).to_le_bytes());
        head[4..8].copy_from_slice(&self.block_records.to_le_bytes());
        head[8..12].copy_from_slice(&crc32(&self.payload).to_le_bytes());
        self.sink.write_all(&head)?;
        self.sink.write_all(&self.payload)?;
        self.payload.clear();
        self.block_records = 0;
        Ok(())
    }

    /// Flush the final block, patch the header with the real record and
    /// instruction counts, and return the record count.  The sink is
    /// flushed but not dropped until the writer is.
    pub fn finish(mut self, total_instructions: u64) -> Result<u64, TraceError> {
        self.flush_block()?;
        self.sink.seek(SeekFrom::Start(0))?;
        self.sink.write_all(&encode_header(
            self.granularity,
            self.records,
            total_instructions,
        ))?;
        self.sink.flush()?;
        Ok(self.records)
    }
}

/// Streaming `.mtr` reader: validates the header eagerly, then decodes
/// one CRC-checked block at a time (bounded memory regardless of trace
/// size).  Iterate records via [`next_record`](TraceReader::next_record)
/// or the [`Iterator`] impl.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    header: TraceHeader,
    /// Raw bytes of the current block, reused from block to block.
    payload: Vec<u8>,
    block: Vec<u64>,
    pos: usize,
    prev: u64,
    read_records: u64,
    done: bool,
}

impl TraceReader<BufReader<File>> {
    /// Open a trace file at `path`.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        TraceReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Wrap `src`, reading and validating the header.
    pub fn new(mut src: R) -> Result<Self, TraceError> {
        let mut h = [0u8; HEADER_LEN];
        src.read_exact(&mut h)
            .map_err(|e| truncated_as(e, "header"))?;
        if h[0..4] != MAGIC {
            return Err(TraceError::BadMagic([h[0], h[1], h[2], h[3]]));
        }
        let stored = u32::from_le_bytes(h[32..36].try_into().unwrap());
        let computed = crc32(&h[0..32]);
        if stored != computed {
            return Err(TraceError::CrcMismatch {
                what: "header",
                stored,
                computed,
            });
        }
        let version = u16::from_le_bytes(h[4..6].try_into().unwrap());
        if version > FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let record_count = u64::from_le_bytes(h[16..24].try_into().unwrap());
        if record_count == UNFINISHED_COUNT {
            return Err(TraceError::Unfinished);
        }
        Ok(TraceReader {
            src,
            header: TraceHeader {
                version,
                granularity: u64::from_le_bytes(h[8..16].try_into().unwrap()),
                record_count,
                total_instructions: u64::from_le_bytes(h[24..32].try_into().unwrap()),
            },
            payload: Vec::new(),
            block: Vec::new(),
            pos: 0,
            prev: 0,
            read_records: 0,
            done: false,
        })
    }

    /// The validated header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Next address, `Ok(None)` at a clean end of trace.
    pub fn next_record(&mut self) -> Result<Option<u64>, TraceError> {
        Ok(self.next_records(1)?.first().copied())
    }

    /// The next at most `max` addresses (`max ≥ 1`), as one slice of the
    /// current decoded block; empty at a clean end of trace.  A slice
    /// never spans two blocks.
    pub(crate) fn next_records(&mut self, max: usize) -> Result<&[u64], TraceError> {
        if self.pos == self.block.len() && (self.done || !self.read_block()?) {
            // End of stream: the header must agree.
            if self.read_records != self.header.record_count {
                return Err(TraceError::CountMismatch {
                    header: self.header.record_count,
                    read: self.read_records,
                });
            }
            return Ok(&[]);
        }
        let start = self.pos;
        self.pos += (self.block.len() - start).min(max);
        self.read_records += (self.pos - start) as u64;
        Ok(&self.block[start..self.pos])
    }

    /// Read and decode the next block; `Ok(false)` at clean EOF.
    fn read_block(&mut self) -> Result<bool, TraceError> {
        let mut head = [0u8; BLOCK_HEADER_LEN];
        // A clean EOF may only occur *between* blocks.
        match self.src.read(&mut head[..1])? {
            0 => {
                self.done = true;
                return Ok(false);
            }
            _ => self
                .src
                .read_exact(&mut head[1..])
                .map_err(|e| truncated_as(e, "block header"))?,
        }
        let len = u32::from_le_bytes(head[0..4].try_into().unwrap()) as usize;
        let count = u32::from_le_bytes(head[4..8].try_into().unwrap()) as usize;
        let stored = u32::from_le_bytes(head[8..12].try_into().unwrap());
        if len == 0 || len > MAX_BLOCK_PAYLOAD {
            return Err(TraceError::Invalid(
                "block",
                format!("implausible payload length {len}"),
            ));
        }
        let payload = &mut self.payload;
        // Grow to exactly the declared length: `resize` alone may double.
        if len > payload.capacity() {
            payload.reserve_exact(len - payload.len());
        }
        payload.resize(len, 0);
        self.src
            .read_exact(payload)
            .map_err(|e| truncated_as(e, "block payload"))?;
        let computed = crc32(payload);
        if stored != computed {
            return Err(TraceError::CrcMismatch {
                what: "block",
                stored,
                computed,
            });
        }
        self.block.clear();
        // Every record takes at least one byte, which bounds a corrupt
        // count's allocation by the payload length, and decoding stops at
        // the count.
        self.block.reserve_exact(count.min(len));
        let mut pos = 0usize;
        let mut prev = self.prev;
        while pos < payload.len() {
            if self.block.len() == count {
                return Err(TraceError::Invalid(
                    "block",
                    format!("block promises {count} records, its payload holds more"),
                ));
            }
            let mut v = 0u64;
            let mut shift = 0u32;
            loop {
                let byte = *payload.get(pos).ok_or(TraceError::Truncated("varint"))?;
                pos += 1;
                if shift >= 64 {
                    return Err(TraceError::Invalid(
                        "block",
                        "varint longer than 64 bits".to_string(),
                    ));
                }
                v |= u64::from(byte & 0x7F) << shift;
                if byte & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            prev = prev.wrapping_add(unzigzag(v) as u64);
            self.block.push(prev);
        }
        if self.block.len() != count {
            return Err(TraceError::Invalid(
                "block",
                format!(
                    "block promises {count} records, decoded {}",
                    self.block.len()
                ),
            ));
        }
        self.prev = prev;
        self.pos = 0;
        Ok(true)
    }
}

fn truncated_as(e: io::Error, what: &'static str) -> TraceError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        TraceError::Truncated(what)
    } else {
        TraceError::Io(e)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<u64, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_record() {
            Ok(Some(addr)) => Some(Ok(addr)),
            Ok(None) => None,
            Err(e) => {
                // Poison further iteration rather than looping on the
                // same error.
                self.done = true;
                self.pos = 0;
                self.block.clear();
                self.read_records = self.header.record_count;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(addrs: &[u64], block_payload: usize) -> Vec<u64> {
        let bytes = encode(addrs, block_payload, 123);
        let r = TraceReader::new(Cursor::new(&bytes)).unwrap();
        r.map(|x| x.unwrap()).collect()
    }

    fn encode(addrs: &[u64], block_payload: usize, ti: u64) -> Vec<u8> {
        let mut cur = Cursor::new(Vec::new());
        {
            let mut w = TraceWriter::new(&mut cur, 1)
                .unwrap()
                .with_block_payload(block_payload);
            for &a in addrs {
                w.record(a).unwrap();
            }
            w.finish(ti).unwrap();
        }
        cur.into_inner()
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC that slicing-by-8 must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_slicing_matches_bytewise() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for start in 0..16 {
            for len in (0..64).chain([255, 1000, 4000]) {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "at {start}+{len}");
            }
        }
        let mut seed = 7u64;
        for _ in 0..200 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let start = (seed >> 40) as usize % 64;
            let len = (seed >> 20) as usize % (buf.len() - start);
            let bytes = &buf[start..start + len];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "at {start}+{len}");
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 1 << 40] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = encode(&[], DEFAULT_BLOCK_PAYLOAD, 0);
        assert_eq!(bytes.len(), HEADER_LEN);
        let mut r = TraceReader::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(r.header().record_count, 0);
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn addresses_roundtrip_across_block_sizes() {
        let addrs: Vec<u64> = (0..5000u64)
            .map(|i| (i * 2654435761) % 1_000_000 + (i % 7) * u32::MAX as u64)
            .collect();
        for bp in [16, 100, 4096, DEFAULT_BLOCK_PAYLOAD] {
            assert_eq!(roundtrip(&addrs, bp), addrs, "block payload {bp}");
        }
    }

    #[test]
    fn extreme_addresses_roundtrip() {
        let addrs = [0u64, u64::MAX, 0, 1, u64::MAX - 1, 1 << 63, 42];
        assert_eq!(roundtrip(&addrs, 16), addrs);
    }

    #[test]
    fn header_carries_counts() {
        let bytes = encode(&[1, 2, 3], 64, 999);
        let r = TraceReader::new(Cursor::new(&bytes)).unwrap();
        assert_eq!(r.header().record_count, 3);
        assert_eq!(r.header().total_instructions, 999);
        assert_eq!(r.header().granularity, 1);
        assert_eq!(r.header().version, FORMAT_VERSION);
    }

    #[test]
    fn sequential_scan_is_compact() {
        let addrs: Vec<u64> = (0..10_000u64).map(|i| i * 8).collect();
        let bytes = encode(&addrs, DEFAULT_BLOCK_PAYLOAD, 0);
        // Constant delta of 8 → 1 byte per record plus framing.
        assert!(
            bytes.len() < HEADER_LEN + addrs.len() + 2 * BLOCK_HEADER_LEN,
            "{} bytes for {} records",
            bytes.len(),
            addrs.len()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&[1, 2, 3], 64, 0);
        bytes[0] = b'X';
        assert!(matches!(
            TraceReader::new(Cursor::new(&bytes)).unwrap_err(),
            TraceError::BadMagic(_)
        ));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = encode(&[1], 64, 0);
        bytes[4] = 9; // version 9
        let crc = crc32(&bytes[0..32]).to_le_bytes();
        bytes[32..36].copy_from_slice(&crc);
        assert!(matches!(
            TraceReader::new(Cursor::new(&bytes)).unwrap_err(),
            TraceError::UnsupportedVersion(9)
        ));
    }

    #[test]
    fn header_corruption_is_crc_mismatch() {
        let mut bytes = encode(&[1, 2, 3], 64, 7);
        bytes[20] ^= 0xFF; // record count byte
        assert!(matches!(
            TraceReader::new(Cursor::new(&bytes)).unwrap_err(),
            TraceError::CrcMismatch { what: "header", .. }
        ));
    }

    #[test]
    fn payload_corruption_is_crc_mismatch() {
        let bytes = encode(&(0..100u64).collect::<Vec<_>>(), 64, 0);
        let mut corrupt = bytes.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        let mut r = TraceReader::new(Cursor::new(&corrupt)).unwrap();
        let err = loop {
            match r.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("corruption not detected"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, TraceError::CrcMismatch { what: "block", .. }));
    }

    #[test]
    fn truncation_mid_block_detected() {
        let bytes = encode(&(0..1000u64).collect::<Vec<_>>(), 256, 0);
        let cut = &bytes[..bytes.len() - 5];
        let mut r = TraceReader::new(Cursor::new(cut)).unwrap();
        let err = r.find_map(|x| x.err()).expect("must error");
        assert!(matches!(err, TraceError::Truncated(_)), "{err:?}");
    }

    #[test]
    fn truncation_at_block_boundary_detected() {
        // Drop a whole trailing block: CRCs all pass, but the header's
        // record count exposes the loss.
        let addrs: Vec<u64> = (0..1000).map(|i| i * 31).collect();
        let bytes = encode(&addrs, 128, 0);
        // Find the start of the last block by walking the chain.
        let mut off = HEADER_LEN;
        let mut last = off;
        while off < bytes.len() {
            last = off;
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += BLOCK_HEADER_LEN + len;
        }
        let mut r = TraceReader::new(Cursor::new(&bytes[..last])).unwrap();
        let err = r.find_map(|x| x.err()).expect("must error");
        assert!(matches!(err, TraceError::CountMismatch { .. }), "{err:?}");
    }

    #[test]
    fn unfinished_writer_detected() {
        let mut cur = Cursor::new(Vec::new());
        {
            let mut w = TraceWriter::new(&mut cur, 1).unwrap();
            w.record(42).unwrap();
            // No finish(): provisional header stays in place, and the
            // last block was never flushed.
        }
        let bytes = cur.into_inner();
        assert!(matches!(
            TraceReader::new(Cursor::new(&bytes)).unwrap_err(),
            TraceError::Unfinished
        ));
    }

    #[test]
    fn errors_display() {
        for e in [
            TraceError::BadMagic(*b"ELF\0"),
            TraceError::UnsupportedVersion(2),
            TraceError::CrcMismatch {
                what: "block",
                stored: 1,
                computed: 2,
            },
            TraceError::Truncated("header"),
            TraceError::Unfinished,
            TraceError::CountMismatch { header: 5, read: 3 },
            TraceError::Missing("trace"),
            TraceError::UnknownField("alpa".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}

/// Mutation fuzzing of [`TraceReader`]: valid small traces, bent by byte
/// flips, truncation, block splices and edited header or block fields,
/// must read to `Ok` or a typed error, never a panic, and the reader may
/// allocate no more than the input declares.
#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Addresses from `(kind, value)` draws: short strides, repeats and
    /// wild jumps, so varints of every length occur.
    fn addresses(draws: &[(u8, u64)]) -> Vec<u64> {
        let mut prev = 0u64;
        draws
            .iter()
            .map(|&(kind, v)| {
                prev = match kind % 4 {
                    0 => prev.wrapping_add(v % 256),
                    1 => prev,
                    2 => prev.wrapping_sub(v % 100_000),
                    _ => v,
                };
                prev
            })
            .collect()
    }

    fn encode(addrs: &[u64], block_payload: usize) -> Vec<u8> {
        let mut cur = Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut cur, 1)
            .unwrap()
            .with_block_payload(block_payload);
        for &a in addrs {
            w.record(a).unwrap();
        }
        w.finish(addrs.len() as u64 * 3).unwrap();
        cur.into_inner()
    }

    /// `(start, end)` of each block of the well-formed prefix of the
    /// block chain.
    fn blocks(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut at = HEADER_LEN;
        while at + BLOCK_HEADER_LEN <= bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            let end = at + BLOCK_HEADER_LEN + len;
            if end > bytes.len() {
                break;
            }
            out.push((at, end));
            at = end;
        }
        out
    }

    /// A block boundary chosen by `pick` (the header's end or a block's).
    fn boundary(bytes: &[u8], pick: u64) -> usize {
        let ends: Vec<usize> = std::iter::once(HEADER_LEN.min(bytes.len()))
            .chain(blocks(bytes).into_iter().map(|(_, end)| end))
            .collect();
        ends[pick as usize % ends.len()]
    }

    /// A plausible-to-hostile replacement for a length or count field.
    fn bent(old: u64, pick: u64) -> u64 {
        match pick % 6 {
            0 => old.wrapping_add(1 + pick % 3),
            1 => old.saturating_sub(1 + pick % 3),
            2 => 0,
            3 => MAX_BLOCK_PAYLOAD as u64 + 1,
            4 => u64::MAX,
            _ => pick >> 8,
        }
    }

    fn recrc_header(bytes: &mut [u8]) {
        if bytes.len() >= HEADER_LEN {
            let crc = crc32(&bytes[..32]).to_le_bytes();
            bytes[32..36].copy_from_slice(&crc);
        }
    }

    /// Apply one mutation, chosen and placed by `(kind, a, b)`; `donor`
    /// is another valid trace for cross-trace splices.
    fn mutate(bytes: &mut Vec<u8>, (kind, a, b): (u8, u64, u64), donor: &[u8]) {
        let chain = blocks(bytes);
        let block = (!chain.is_empty()).then(|| chain[a as usize % chain.len()]);
        match kind % 10 {
            0 if !bytes.is_empty() => {
                let i = a as usize % bytes.len();
                bytes[i] ^= (b as u8) | 1;
            }
            1 => bytes.truncate(a as usize % (bytes.len() + 1)),
            2 => {
                // Duplicate a block at a boundary.
                if let Some((s, e)) = block {
                    let copy = bytes[s..e].to_vec();
                    let at = boundary(bytes, b);
                    bytes.splice(at..at, copy);
                }
            }
            3 => {
                if let Some((s, e)) = block {
                    bytes.drain(s..e);
                }
            }
            4 => {
                // Swap two blocks.
                let other = (!chain.is_empty()).then(|| chain[b as usize % chain.len()]);
                if let (Some((s1, e1)), Some((s2, e2))) = (block, other) {
                    let (first, second) = if s1 <= s2 {
                        ((s1, e1), (s2, e2))
                    } else {
                        ((s2, e2), (s1, e1))
                    };
                    if first != second {
                        let mut out = bytes[..first.0].to_vec();
                        out.extend_from_slice(&bytes[second.0..second.1]);
                        out.extend_from_slice(&bytes[first.1..second.0]);
                        out.extend_from_slice(&bytes[first.0..first.1]);
                        out.extend_from_slice(&bytes[second.1..]);
                        *bytes = out;
                    }
                }
            }
            5 => {
                // Splice in a block of another trace.
                let theirs = blocks(donor);
                if !theirs.is_empty() {
                    let (s, e) = theirs[a as usize % theirs.len()];
                    let at = boundary(bytes, b);
                    bytes.splice(at..at, donor[s..e].iter().copied());
                }
            }
            6 if bytes.len() >= HEADER_LEN => {
                let old = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
                bytes[16..24].copy_from_slice(&bent(old, b).to_le_bytes());
                recrc_header(bytes);
            }
            7 | 8 => {
                // A block's record count (7) or payload length (8).
                if let Some((s, _)) = block {
                    let at = if kind % 10 == 7 { s + 4 } else { s };
                    let old = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                    let new = bent(u64::from(old), b) as u32;
                    bytes[at..at + 4].copy_from_slice(&new.to_le_bytes());
                }
            }
            9 => {
                // Edit a payload byte and re-seal the block's checksum,
                // so the varint decoder sees the damage.
                if let Some((s, e)) = block.filter(|&(s, e)| e > s + BLOCK_HEADER_LEN) {
                    let payload = s + BLOCK_HEADER_LEN;
                    let i = payload + a as usize % (e - payload);
                    bytes[i] = b as u8;
                    let crc = crc32(&bytes[payload..e]).to_le_bytes();
                    bytes[s + 8..s + 12].copy_from_slice(&crc);
                }
            }
            _ => bytes.extend((0..b % 24).map(|i| (a >> (i % 8 * 8)) as u8)),
        }
    }

    /// Read `bytes` to the end or the first error, checking after every
    /// step that the reader holds no more than the input declared: one
    /// block payload buffer no larger than the largest declared length
    /// (at most [`MAX_BLOCK_PAYLOAD`]), and decoded records no more than
    /// that length (every record takes at least a byte).
    fn check(bytes: &[u8]) -> Result<(), String> {
        let typed = |e: TraceError| match e {
            // A `Cursor` never fails: running out mid-structure is
            // truncation, and everything else has a variant of its own.
            TraceError::Io(e) => Err(format!("untyped I/O error: {e}")),
            _ => Ok(()),
        };
        let mut r = match TraceReader::new(Cursor::new(bytes)) {
            Ok(r) => r,
            Err(e) => return typed(e),
        };
        let mut declared = 0usize;
        loop {
            let step = r.next_record();
            declared = declared.max(r.payload.len());
            let payload = r.payload.capacity();
            if payload > declared || payload > MAX_BLOCK_PAYLOAD {
                return Err(format!(
                    "payload buffer of {payload} bytes for declared lengths up to {declared}"
                ));
            }
            if r.block.capacity() > declared {
                return Err(format!(
                    "room for {} records for declared lengths up to {declared}",
                    r.block.capacity()
                ));
            }
            match step {
                Ok(Some(_)) => {}
                Ok(None) => return Ok(()),
                Err(e) => return typed(e),
            }
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// [`check`] with panics caught, failing with the input in hex.
    fn check_reported(bytes: &[u8]) -> Result<(), TestCaseError> {
        let outcome = catch_unwind(AssertUnwindSafe(|| check(bytes)))
            .unwrap_or_else(|_| Err("the reader panicked".to_string()));
        outcome.map_err(|why| TestCaseError::fail(format!("{why}; input {}", hex(bytes))))
    }

    /// Every input that once broke an invariant here is kept in
    /// `tests/golden/reader_fuzz/`.
    #[test]
    fn regression_inputs_read_cleanly() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/reader_fuzz");
        let mut cases = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if let Err(e) = check_reported(&std::fs::read(&path).unwrap()) {
                panic!("{}: {e}", path.display());
            }
            cases += 1;
        }
        assert!(cases > 0, "no regression inputs in {}", dir.display());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn mutated_traces_fail_typed_and_allocate_what_they_declare(
            draws in proptest::collection::vec((0u8..255, any::<u64>()), 0..300),
            donor in proptest::collection::vec((0u8..255, any::<u64>()), 1..100),
            block_payload in 10usize..160,
            ops in proptest::collection::vec((0u8..255, any::<u64>(), any::<u64>()), 1..4),
        ) {
            let donor = encode(&addresses(&donor), 10 + block_payload / 2);
            let mut bytes = encode(&addresses(&draws), block_payload);
            for op in ops {
                mutate(&mut bytes, op, &donor);
            }
            check_reported(&bytes)?;
        }
    }
}
