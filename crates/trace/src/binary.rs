//! Compact binary trace format — the stand-in for Pablo's SDDF binary
//! encoding and the one trace file format. Event traces at paper scale
//! run to hundreds of thousands of records; each is a fixed 42-byte
//! record, and the format round-trips exactly.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   : b"SIOT"            (4 bytes)
//! version : u16                (currently 2)
//! count   : u64
//! records : count × 42 bytes
//!   pid      : u32
//!   file     : u32
//!   kind     : u8   (OpKind discriminant, table-row order)
//!   mode     : u8   (IoMode discriminant, paper order)
//!   start    : u64  (ns)
//!   duration : u64  (ns)
//!   bytes    : u64
//!   offset   : u64
//! ```
//!
//! A record's `start + duration` must fit in a `u64`: its completion
//! instant is then representable, and no analysis of the trace wraps.

use crate::event::IoEvent;
use crate::recorder::TraceRecorder;
use sioscope_pfs::{IoMode, OpKind};
use sioscope_sim::{FileId, Pid, Time};
use std::fmt;

const MAGIC: &[u8; 4] = b"SIOT";
const VERSION: u16 = 2;
const HEADER_BYTES: usize = 4 + 2 + 8;
const RECORD_BYTES: usize = 4 + 4 + 1 + 1 + 8 + 8 + 8 + 8;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryError {
    /// Input does not start with the `SIOT` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Input ends before the declared record count.
    Truncated {
        /// Records the header declared.
        declared: u64,
        /// Bytes actually available for records.
        available: usize,
    },
    /// A record carried an invalid operation kind.
    BadKind(u8),
    /// A record carried an invalid access mode.
    BadMode(u8),
    /// A record's `start + duration` overflows `u64`.
    EndOverflow {
        /// Position of the record in the trace, from 0.
        record: u64,
    },
}

impl fmt::Display for BinaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryError::BadMagic => write!(f, "not a SIOT trace (bad magic)"),
            BinaryError::BadVersion(v) => write!(f, "unsupported SIOT version {v}"),
            BinaryError::Truncated {
                declared,
                available,
            } => write!(
                f,
                "truncated trace: {declared} records declared, {available} bytes available"
            ),
            BinaryError::BadKind(k) => write!(f, "invalid operation kind {k}"),
            BinaryError::BadMode(m) => write!(f, "invalid access mode {m}"),
            BinaryError::EndOverflow { record } => {
                write!(f, "record {record}: start + duration overflows u64")
            }
        }
    }
}

impl std::error::Error for BinaryError {}

fn kind_to_u8(kind: OpKind) -> u8 {
    match kind {
        OpKind::Open => 0,
        OpKind::Gopen => 1,
        OpKind::Read => 2,
        OpKind::Seek => 3,
        OpKind::Write => 4,
        OpKind::Iomode => 5,
        OpKind::Flush => 6,
        OpKind::Close => 7,
    }
}

fn mode_to_u8(mode: IoMode) -> u8 {
    match mode {
        IoMode::MUnix => 0,
        IoMode::MRecord => 1,
        IoMode::MAsync => 2,
        IoMode::MGlobal => 3,
        IoMode::MSync => 4,
        IoMode::MLog => 5,
    }
}

fn mode_from_u8(v: u8) -> Result<IoMode, BinaryError> {
    Ok(match v {
        0 => IoMode::MUnix,
        1 => IoMode::MRecord,
        2 => IoMode::MAsync,
        3 => IoMode::MGlobal,
        4 => IoMode::MSync,
        5 => IoMode::MLog,
        other => return Err(BinaryError::BadMode(other)),
    })
}

fn kind_from_u8(v: u8) -> Result<OpKind, BinaryError> {
    Ok(match v {
        0 => OpKind::Open,
        1 => OpKind::Gopen,
        2 => OpKind::Read,
        3 => OpKind::Seek,
        4 => OpKind::Write,
        5 => OpKind::Iomode,
        6 => OpKind::Flush,
        7 => OpKind::Close,
        other => return Err(BinaryError::BadKind(other)),
    })
}

/// The header announcing `count` records.
fn header(count: u64) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    h[..4].copy_from_slice(MAGIC);
    h[4..6].copy_from_slice(&VERSION.to_le_bytes());
    h[6..].copy_from_slice(&count.to_le_bytes());
    h
}

/// One event in the record layout.
fn record_bytes(e: &IoEvent) -> [u8; RECORD_BYTES] {
    let mut r = [0u8; RECORD_BYTES];
    r[..4].copy_from_slice(&e.pid.0.to_le_bytes());
    r[4..8].copy_from_slice(&e.file.0.to_le_bytes());
    r[8] = kind_to_u8(e.kind);
    r[9] = mode_to_u8(e.mode);
    r[10..18].copy_from_slice(&e.start.as_nanos().to_le_bytes());
    r[18..26].copy_from_slice(&e.duration.as_nanos().to_le_bytes());
    r[26..34].copy_from_slice(&e.bytes.to_le_bytes());
    r[34..].copy_from_slice(&e.offset.to_le_bytes());
    r
}

/// Encode a trace to the binary format.
pub fn encode(trace: &TraceRecorder) -> Vec<u8> {
    let events = trace.events();
    let mut buf = Vec::with_capacity(HEADER_BYTES + events.len() * RECORD_BYTES);
    buf.extend_from_slice(&header(events.len() as u64));
    for e in events {
        buf.extend_from_slice(&record_bytes(e));
    }
    buf
}

/// Continue an FNV-64 hash `h` over `bytes`.
fn fnv64_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-64 (FNV-1a) hash of `bytes`, the hash run fingerprints use.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_fold(0xcbf2_9ce4_8422_2325, bytes)
}

/// [`fnv64`]`(&`[`encode`]`(trace))`, folded record by record without
/// building the encoded buffer.
pub fn digest(trace: &TraceRecorder) -> u64 {
    let events = trace.events();
    let mut h = fnv64(&header(events.len() as u64));
    for e in events {
        h = fnv64_fold(h, &record_bytes(e));
    }
    h
}

/// The `N` bytes at `at..at + N` of `data`, for `from_le_bytes`.
fn le<const N: usize>(data: &[u8], at: usize) -> [u8; N] {
    data[at..at + N].try_into().expect("N-byte slice")
}

/// Decode a binary trace.
pub fn decode(data: &[u8]) -> Result<TraceRecorder, BinaryError> {
    if data.len() < HEADER_BYTES || &data[..4] != MAGIC {
        return Err(BinaryError::BadMagic);
    }
    let version = u16::from_le_bytes(le(data, 4));
    if version != VERSION {
        return Err(BinaryError::BadVersion(version));
    }
    let count = u64::from_le_bytes(le(data, 6));
    let records = &data[HEADER_BYTES..];
    let need = (count as usize).saturating_mul(RECORD_BYTES);
    if records.len() < need {
        return Err(BinaryError::Truncated {
            declared: count,
            available: records.len(),
        });
    }
    let mut trace = TraceRecorder::new();
    for (i, r) in records
        .chunks_exact(RECORD_BYTES)
        .take(count as usize)
        .enumerate()
    {
        let u64_at = |at| u64::from_le_bytes(le(r, at));
        let (start, duration) = (u64_at(10), u64_at(18));
        let kind = kind_from_u8(r[8])?;
        let mode = mode_from_u8(r[9])?;
        if start.checked_add(duration).is_none() {
            return Err(BinaryError::EndOverflow { record: i as u64 });
        }
        trace.record(IoEvent {
            pid: Pid(u32::from_le_bytes(le(r, 0))),
            file: FileId(u32::from_le_bytes(le(r, 4))),
            kind,
            mode,
            start: Time::from_nanos(start),
            duration: Time::from_nanos(duration),
            bytes: u64_at(26),
            offset: u64_at(34),
        });
    }
    Ok(trace)
}

/// Write a trace to a file in binary form.
pub fn write_file(trace: &TraceRecorder, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, encode(trace))
}

/// Incremental binary trace writer: events stream to an underlying
/// writer as they are recorded, so multi-hundred-thousand-event runs
/// never hold the whole trace in memory twice. The record count is
/// back-patched into the header on [`StreamWriter::finish`].
pub struct StreamWriter<W: std::io::Write + std::io::Seek> {
    inner: W,
    count: u64,
}

impl<W: std::io::Write + std::io::Seek> StreamWriter<W> {
    /// Start a stream, writing the header with a zero count.
    pub fn new(mut inner: W) -> std::io::Result<Self> {
        inner.write_all(&header(0))?;
        Ok(StreamWriter { inner, count: 0 })
    }

    /// Append one event.
    pub fn record(&mut self, e: &IoEvent) -> std::io::Result<()> {
        self.inner.write_all(&record_bytes(e))?;
        self.count += 1;
        Ok(())
    }

    /// Number of events written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Back-patch the header count and flush; returns the writer.
    /// A stream that is dropped without `finish` keeps the zero count
    /// written by [`StreamWriter::new`], so readers see an empty (not
    /// corrupt) trace.
    pub fn finish(mut self) -> std::io::Result<W> {
        use std::io::SeekFrom;
        self.inner.seek(SeekFrom::Start(6))?;
        self.inner.write_all(&self.count.to_le_bytes())?;
        self.inner.seek(SeekFrom::End(0))?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Read a binary trace file.
pub fn read_file(path: &std::path::Path) -> std::io::Result<TraceRecorder> {
    let data = std::fs::read(path)?;
    decode(&data).map_err(std::io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceRecorder {
        let mut t = TraceRecorder::new();
        for i in 0..50u32 {
            t.record(IoEvent {
                pid: Pid(i % 7),
                file: FileId(i % 3),
                kind: kind_from_u8((i % 8) as u8).expect("valid kind"),
                start: Time::from_micros(u64::from(i) * 13),
                duration: Time::from_nanos(u64::from(i) * 7 + 1),
                bytes: u64::from(i) * 1000,
                offset: u64::from(i) * 4096,
                mode: mode_from_u8((i % 6) as u8).expect("valid mode"),
            });
        }
        t
    }

    #[test]
    fn round_trip_exact() {
        let t = sample();
        let encoded = encode(&t);
        let back = decode(&encoded).expect("decodes");
        assert_eq!(back.events(), t.events());
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = TraceRecorder::new();
        let back = decode(&encode(&t)).expect("decodes");
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"NOPE").unwrap_err(), BinaryError::BadMagic);
        assert_eq!(decode(b"").unwrap_err(), BinaryError::BadMagic);
    }

    #[test]
    fn bad_version_rejected() {
        let mut data = encode(&sample());
        data[4] = 99;
        assert_eq!(decode(&data).unwrap_err(), BinaryError::BadVersion(99));
    }

    #[test]
    fn truncation_rejected() {
        let data = encode(&sample());
        let cut = &data[..data.len() - 5];
        assert!(matches!(
            decode(cut).unwrap_err(),
            BinaryError::Truncated { .. }
        ));
    }

    #[test]
    fn bad_kind_rejected() {
        let t = sample();
        let mut data = encode(&t);
        // Corrupt the first record's kind byte (after 14-byte header,
        // pid+file = 8 bytes in).
        data[14 + 8] = 42;
        assert_eq!(decode(&data).unwrap_err(), BinaryError::BadKind(42));
    }

    #[test]
    fn bad_mode_rejected() {
        let t = sample();
        let mut data = encode(&t);
        // The mode byte follows the kind byte.
        data[14 + 9] = 99;
        assert_eq!(decode(&data).unwrap_err(), BinaryError::BadMode(99));
    }

    #[test]
    fn end_overflow_rejected() {
        let at = |start: u64| IoEvent {
            pid: Pid(0),
            file: FileId(0),
            kind: OpKind::Read,
            start: Time::from_nanos(start),
            duration: Time::from_nanos(1000),
            bytes: 0,
            offset: 0,
            mode: IoMode::MUnix,
        };
        let mut t = TraceRecorder::new();
        t.record(at(0));
        // Ends 900 ns past 2^64.
        t.record(at(u64::MAX - 99));
        let data = encode(&t);
        assert_eq!(
            decode(&data).unwrap_err(),
            BinaryError::EndOverflow { record: 1 }
        );
        assert_eq!(
            decode(&data).unwrap_err().to_string(),
            "record 1: start + duration overflows u64"
        );
        // An end of exactly u64::MAX is representable.
        let mut ok = TraceRecorder::new();
        ok.record(at(u64::MAX - 1000));
        assert_eq!(decode(&encode(&ok)).expect("decodes").events(), ok.events());
    }

    #[test]
    fn stream_writer_matches_batch_encoding() {
        let t = sample();
        let mut cursor = std::io::Cursor::new(Vec::new());
        {
            let mut w = StreamWriter::new(&mut cursor).expect("header");
            for e in t.events() {
                w.record(e).expect("record");
            }
            assert_eq!(w.count(), t.len() as u64);
            w.finish().expect("finish");
        }
        let streamed = cursor.into_inner();
        assert_eq!(streamed, encode(&t));
        let back = decode(&streamed).expect("decodes");
        assert_eq!(back.events(), t.events());
    }

    #[test]
    fn fnv64_matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_is_the_fnv64_of_the_encoding() {
        for t in [TraceRecorder::new(), sample()] {
            assert_eq!(digest(&t), fnv64(&encode(&t)), "{} events", t.len());
        }
    }

    #[test]
    fn stream_writer_empty_stream_is_valid() {
        let mut cursor = std::io::Cursor::new(Vec::new());
        StreamWriter::new(&mut cursor)
            .expect("header")
            .finish()
            .expect("finish");
        let back = decode(&cursor.into_inner()).expect("decodes");
        assert!(back.is_empty());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("sioscope_binary_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("trace.siot");
        let t = sample();
        write_file(&t, &path).expect("write");
        let back = read_file(&path).expect("read");
        assert_eq!(back.events(), t.events());
        std::fs::remove_file(&path).ok();
    }
}
