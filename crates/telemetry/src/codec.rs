//! The `ropuf-metrics/v1`, `ropuf-trace/v1` and `ropuf-timeseries/v1`
//! binary codecs.
//!
//! A [`Snapshot`] travels the wire inside a `Response::MetricsBin`
//! frame; a [`TraceSnapshot`] inside `Response::TraceBin`; a
//! [`TimeSeriesSnapshot`] inside `Response::TimeSeriesBin`. All three
//! blobs follow the workspace codec discipline established by
//! `ropuf-wire/v1` and the `ropuf-verifier/v2` store: all integers
//! little-endian, explicit lengths checked against both a semantic cap
//! and the bytes actually remaining *before* any allocation, decoding
//! that never panics and never over-reads (every anomaly is a typed
//! [`MetricsDecodeError`]), and a trailing CRC-32 over everything that
//! precedes it, so any single corrupted byte is detected.
//!
//! ```text
//! metrics:    "RPUFMET1" | version u16 | metric count u32
//!             per metric: kind u8 (0 counter | 1 gauge | 2 histogram)
//!                         name (u16 len + bytes)
//!                         label count u8, per label: key (u16+bytes),
//!                                                    value (u16+bytes)
//!                         counter/gauge: value u64
//!                         histogram: count u64 | sum u128 | min u64
//!                                    | max u64 | bucket count u32
//!                                    | per bucket: index u32, count u64
//!             | CRC-32 (u32)
//!
//! trace:      "RPUFTRC1" | version u16 | recorded u64 | dropped u64
//!             | record count u32
//!             per record: seq u64 | msg_type u8 | device_hash u64
//!                         | ready_ns u64 | decode_ns u64
//!                         | handle_ns u64 | flush_ns u64
//!                         | flush_wait_ns u64 | total_ns u64
//!                         | worker u32
//!             | CRC-32 (u32)
//!
//! timeseries: "RPUFTSR1" | version u16 | sampled u64 | interval_ns u64
//!             | point count u32
//!             per point: seq u64 | at_ns u64 | interval_ns u64
//!                        | requests u64 | accepted u64 | evicted u64
//!                        | open u64 | busy_ns u64 | wall_ns u64
//!                        | phase_total_ns 5 x u64
//!                        | phase_count 5 x u64
//!                        | latency bands 16 x u64
//!             | CRC-32 (u32)
//! ```
//!
//! This crate is dependency-free below `ropuf_numeric`, so it carries
//! its own little-endian cursor rather than borrowing `ropuf_proto`'s
//! (the verifier must export metrics without linking the wire
//! protocol); the CRC-32 is `ropuf_numeric`'s.

use std::fmt;

use ropuf_numeric::crc32;
use ropuf_numeric::histogram::BUCKETS;
use ropuf_numeric::SparseHistogramError;

use crate::registry::{
    HistogramSnapshot, MetricSample, MetricValue, Snapshot, MAX_LABELS, MAX_LABEL_KEY,
    MAX_LABEL_VALUE, MAX_METRICS, MAX_NAME,
};
use crate::timeseries::{
    SeriesPoint, TimeSeriesSnapshot, LATENCY_BANDS, MAX_SERIES_POINTS, SERIES_PHASES,
};
use crate::trace::{TraceRecord, TraceSnapshot, MAX_TRACE_RECORDS};

/// Magic prefix of a `ropuf-metrics/v1` blob.
pub const METRICS_MAGIC: &[u8; 8] = b"RPUFMET1";
/// Magic prefix of a `ropuf-trace/v1` blob.
pub const TRACE_MAGIC: &[u8; 8] = b"RPUFTRC1";
/// Magic prefix of a `ropuf-timeseries/v1` blob.
pub const TIMESERIES_MAGIC: &[u8; 8] = b"RPUFTSR1";
/// Version both codecs currently speak.
pub const CODEC_VERSION: u16 = 1;

/// Why a metrics or trace blob failed to decode. Decoding never panics
/// and never over-reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsDecodeError {
    /// The input ended before a field was complete.
    TooShort {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// The blob doesn't start with the expected magic.
    BadMagic,
    /// An unknown codec version.
    BadVersion(u16),
    /// The trailing CRC-32 doesn't match the content.
    BadCrc {
        /// CRC declared in the trailer.
        declared: u32,
        /// CRC computed over the content.
        computed: u32,
    },
    /// Bytes left over after a complete decode.
    TrailingBytes(usize),
    /// A declared length or count exceeds its cap or the remaining
    /// input.
    LengthOutOfBounds {
        /// Which field declared it.
        field: &'static str,
        /// The declared length or count.
        declared: u64,
        /// The largest acceptable value here.
        limit: u64,
    },
    /// An unknown metric-kind byte.
    UnknownKind(u8),
    /// A name or label is not valid UTF-8.
    BadUtf8(&'static str),
    /// A histogram's exported parts fail reconstruction validation.
    BadHistogram(SparseHistogramError),
}

impl fmt::Display for MetricsDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsDecodeError::TooShort { needed, remaining } => {
                write!(
                    f,
                    "input ended early: needed {needed} bytes, {remaining} left"
                )
            }
            MetricsDecodeError::BadMagic => write!(f, "bad magic"),
            MetricsDecodeError::BadVersion(v) => write!(f, "unknown codec version {v}"),
            MetricsDecodeError::BadCrc { declared, computed } => {
                write!(
                    f,
                    "crc mismatch: declared {declared:#010x}, computed {computed:#010x}"
                )
            }
            MetricsDecodeError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after a complete blob")
            }
            MetricsDecodeError::LengthOutOfBounds {
                field,
                declared,
                limit,
            } => write!(f, "{field}: declared {declared} exceeds limit {limit}"),
            MetricsDecodeError::UnknownKind(k) => write!(f, "unknown metric kind {k:#04x}"),
            MetricsDecodeError::BadUtf8(field) => write!(f, "{field}: not valid UTF-8"),
            MetricsDecodeError::BadHistogram(e) => write!(f, "invalid histogram parts: {e}"),
        }
    }
}

impl std::error::Error for MetricsDecodeError {}

impl From<SparseHistogramError> for MetricsDecodeError {
    fn from(e: SparseHistogramError) -> Self {
        MetricsDecodeError::BadHistogram(e)
    }
}

/// Bounds-checked little-endian read cursor (decode-only, never
/// panics).
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn finish(&self) -> Result<(), MetricsDecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(MetricsDecodeError::TrailingBytes(n)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], MetricsDecodeError> {
        if self.remaining() < n {
            return Err(MetricsDecodeError::TooShort {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, MetricsDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, MetricsDecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, MetricsDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, MetricsDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn u128(&mut self) -> Result<u128, MetricsDecodeError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("len 16"),
        ))
    }

    /// A `u16`-length-prefixed UTF-8 string, capped at
    /// `min(cap, remaining)` before any read.
    fn str(&mut self, field: &'static str, cap: usize) -> Result<String, MetricsDecodeError> {
        let declared = self.u16()? as usize;
        let limit = cap.min(self.remaining());
        if declared > limit {
            return Err(MetricsDecodeError::LengthOutOfBounds {
                field,
                declared: declared as u64,
                limit: limit as u64,
            });
        }
        std::str::from_utf8(self.take(declared)?)
            .map(str::to_owned)
            .map_err(|_| MetricsDecodeError::BadUtf8(field))
    }

    /// A `u32` element count, capped at `min(cap, remaining / min_size)`
    /// — an element occupies at least `min_size` bytes, so a larger
    /// count is always forged.
    fn count(
        &mut self,
        field: &'static str,
        cap: usize,
        min_size: usize,
    ) -> Result<usize, MetricsDecodeError> {
        let declared = self.u32()? as usize;
        let limit = cap.min(self.remaining() / min_size.max(1));
        if declared > limit {
            return Err(MetricsDecodeError::LengthOutOfBounds {
                field,
                declared: declared as u64,
                limit: limit as u64,
            });
        }
        Ok(declared)
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("caps bound name/label lengths");
    put_u16(out, len);
    out.extend_from_slice(s.as_bytes());
}

/// Splits off and verifies the CRC trailer, returning the content.
fn checked_content(bytes: &[u8]) -> Result<&[u8], MetricsDecodeError> {
    // Smallest possible blob: magic + version + CRC.
    if bytes.len() < 14 {
        return Err(MetricsDecodeError::TooShort {
            needed: 14,
            remaining: bytes.len(),
        });
    }
    let (content, trailer) = bytes.split_at(bytes.len() - 4);
    let declared = u32::from_le_bytes(trailer.try_into().expect("len 4"));
    let computed = crc32(content);
    if declared != computed {
        return Err(MetricsDecodeError::BadCrc { declared, computed });
    }
    Ok(content)
}

const KIND_COUNTER: u8 = 0;
const KIND_GAUGE: u8 = 1;
const KIND_HISTOGRAM: u8 = 2;

impl Snapshot {
    /// Encodes the snapshot as a `ropuf-metrics/v1` blob. Canonical:
    /// the same snapshot always produces the same bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(METRICS_MAGIC);
        put_u16(&mut out, CODEC_VERSION);
        let count = u32::try_from(self.metrics.len().min(MAX_METRICS)).expect("capped");
        put_u32(&mut out, count);
        for m in self.metrics.iter().take(MAX_METRICS) {
            match &m.value {
                MetricValue::Counter(_) => out.push(KIND_COUNTER),
                MetricValue::Gauge(_) => out.push(KIND_GAUGE),
                MetricValue::Histogram(_) => out.push(KIND_HISTOGRAM),
            }
            put_str(&mut out, &m.name);
            out.push(u8::try_from(m.labels.len()).expect("caps bound label count"));
            for (k, v) in &m.labels {
                put_str(&mut out, k);
                put_str(&mut out, v);
            }
            match &m.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => put_u64(&mut out, *v),
                MetricValue::Histogram(h) => {
                    put_u64(&mut out, h.count);
                    out.extend_from_slice(&h.sum.to_le_bytes());
                    put_u64(&mut out, h.min);
                    put_u64(&mut out, h.max);
                    put_u32(
                        &mut out,
                        u32::try_from(h.buckets.len()).expect("<= BUCKETS"),
                    );
                    for &(index, c) in &h.buckets {
                        put_u32(&mut out, index);
                        put_u64(&mut out, c);
                    }
                }
            }
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Decodes a `ropuf-metrics/v1` blob. Bounds-checked end to end;
    /// every histogram's parts are re-validated, so a decoded snapshot
    /// can always compute its quantiles safely.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, MetricsDecodeError> {
        let content = checked_content(bytes)?;
        let mut r = Cursor::new(content);
        if r.take(8)? != METRICS_MAGIC {
            return Err(MetricsDecodeError::BadMagic);
        }
        let version = r.u16()?;
        if version != CODEC_VERSION {
            return Err(MetricsDecodeError::BadVersion(version));
        }
        // A metric occupies at least kind + name len + label count +
        // an 8-byte value.
        let count = r.count("metrics", MAX_METRICS, 12)?;
        let mut metrics = Vec::new();
        for _ in 0..count {
            let kind = r.u8()?;
            let name = r.str("name", MAX_NAME)?;
            let label_count = r.u8()? as usize;
            if label_count > MAX_LABELS {
                return Err(MetricsDecodeError::LengthOutOfBounds {
                    field: "labels",
                    declared: label_count as u64,
                    limit: MAX_LABELS as u64,
                });
            }
            let mut labels = Vec::with_capacity(label_count);
            for _ in 0..label_count {
                let k = r.str("label key", MAX_LABEL_KEY)?;
                let v = r.str("label value", MAX_LABEL_VALUE)?;
                labels.push((k, v));
            }
            let value = match kind {
                KIND_COUNTER => MetricValue::Counter(r.u64()?),
                KIND_GAUGE => MetricValue::Gauge(r.u64()?),
                KIND_HISTOGRAM => {
                    let sample_count = r.u64()?;
                    let sum = r.u128()?;
                    let min = r.u64()?;
                    let max = r.u64()?;
                    let bucket_count = r.count("buckets", BUCKETS, 12)?;
                    let mut buckets = Vec::with_capacity(bucket_count);
                    for _ in 0..bucket_count {
                        let index = r.u32()?;
                        let c = r.u64()?;
                        buckets.push((index, c));
                    }
                    let snapshot = HistogramSnapshot {
                        count: sample_count,
                        sum,
                        min,
                        max,
                        buckets,
                    };
                    snapshot.validate()?; // no dense rebuild
                    MetricValue::Histogram(snapshot)
                }
                other => return Err(MetricsDecodeError::UnknownKind(other)),
            };
            metrics.push(MetricSample {
                name,
                labels,
                value,
            });
        }
        r.finish()?;
        Ok(Snapshot { metrics })
    }
}

impl TraceSnapshot {
    /// Encodes the trace dump as a `ropuf-trace/v1` blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(TRACE_MAGIC);
        put_u16(&mut out, CODEC_VERSION);
        put_u64(&mut out, self.recorded);
        put_u64(&mut out, self.dropped);
        let count = self.records.len().min(MAX_TRACE_RECORDS);
        put_u32(&mut out, u32::try_from(count).expect("capped"));
        for r in self.records.iter().take(MAX_TRACE_RECORDS) {
            put_u64(&mut out, r.seq);
            out.push(r.msg_type);
            put_u64(&mut out, r.device_hash);
            put_u64(&mut out, r.ready_ns);
            put_u64(&mut out, r.decode_ns);
            put_u64(&mut out, r.handle_ns);
            put_u64(&mut out, r.flush_ns);
            put_u64(&mut out, r.flush_wait_ns);
            put_u64(&mut out, r.total_ns);
            put_u32(&mut out, r.worker);
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Decodes a `ropuf-trace/v1` blob.
    pub fn decode(bytes: &[u8]) -> Result<TraceSnapshot, MetricsDecodeError> {
        let content = checked_content(bytes)?;
        let mut r = Cursor::new(content);
        if r.take(8)? != TRACE_MAGIC {
            return Err(MetricsDecodeError::BadMagic);
        }
        let version = r.u16()?;
        if version != CODEC_VERSION {
            return Err(MetricsDecodeError::BadVersion(version));
        }
        let recorded = r.u64()?;
        let dropped = r.u64()?;
        // One record is 69 bytes on the wire.
        let count = r.count("trace records", MAX_TRACE_RECORDS, 69)?;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            records.push(TraceRecord {
                seq: r.u64()?,
                msg_type: r.u8()?,
                device_hash: r.u64()?,
                ready_ns: r.u64()?,
                decode_ns: r.u64()?,
                handle_ns: r.u64()?,
                flush_ns: r.u64()?,
                flush_wait_ns: r.u64()?,
                total_ns: r.u64()?,
                worker: r.u32()?,
            });
        }
        r.finish()?;
        Ok(TraceSnapshot {
            recorded,
            dropped,
            records,
        })
    }
}

/// Bytes one series point occupies on the wire: nine scalar `u64`s,
/// two per-phase vectors, one heatmap row.
const SERIES_POINT_SIZE: usize = 9 * 8 + SERIES_PHASES.len() * 8 * 2 + LATENCY_BANDS * 8;

impl TimeSeriesSnapshot {
    /// Encodes the series dump as a `ropuf-timeseries/v1` blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(TIMESERIES_MAGIC);
        put_u16(&mut out, CODEC_VERSION);
        put_u64(&mut out, self.sampled);
        put_u64(&mut out, self.interval_ns);
        let count = self.points.len().min(MAX_SERIES_POINTS);
        put_u32(&mut out, u32::try_from(count).expect("capped"));
        for p in self.points.iter().take(MAX_SERIES_POINTS) {
            put_u64(&mut out, p.seq);
            put_u64(&mut out, p.at_ns);
            put_u64(&mut out, p.interval_ns);
            put_u64(&mut out, p.requests);
            put_u64(&mut out, p.accepted);
            put_u64(&mut out, p.evicted);
            put_u64(&mut out, p.open);
            put_u64(&mut out, p.busy_ns);
            put_u64(&mut out, p.wall_ns);
            for v in p.phase_total_ns {
                put_u64(&mut out, v);
            }
            for v in p.phase_count {
                put_u64(&mut out, v);
            }
            for v in p.latency {
                put_u64(&mut out, v);
            }
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Decodes a `ropuf-timeseries/v1` blob.
    pub fn decode(bytes: &[u8]) -> Result<TimeSeriesSnapshot, MetricsDecodeError> {
        let content = checked_content(bytes)?;
        let mut r = Cursor::new(content);
        if r.take(8)? != TIMESERIES_MAGIC {
            return Err(MetricsDecodeError::BadMagic);
        }
        let version = r.u16()?;
        if version != CODEC_VERSION {
            return Err(MetricsDecodeError::BadVersion(version));
        }
        let sampled = r.u64()?;
        let interval_ns = r.u64()?;
        let count = r.count("series points", MAX_SERIES_POINTS, SERIES_POINT_SIZE)?;
        let mut points = Vec::with_capacity(count);
        for _ in 0..count {
            let mut p = SeriesPoint {
                seq: r.u64()?,
                at_ns: r.u64()?,
                interval_ns: r.u64()?,
                requests: r.u64()?,
                accepted: r.u64()?,
                evicted: r.u64()?,
                open: r.u64()?,
                busy_ns: r.u64()?,
                wall_ns: r.u64()?,
                ..SeriesPoint::default()
            };
            for v in p.phase_total_ns.iter_mut() {
                *v = r.u64()?;
            }
            for v in p.phase_count.iter_mut() {
                *v = r.u64()?;
            }
            for v in p.latency.iter_mut() {
                *v = r.u64()?;
            }
            points.push(p);
        }
        r.finish()?;
        Ok(TimeSeriesSnapshot {
            sampled,
            interval_ns,
            points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use crate::TraceRing;

    fn sample_snapshot() -> Snapshot {
        let registry = Registry::new();
        registry
            .counter(
                "server.requests",
                &[("backend", "evented"), ("msg", "auth")],
            )
            .add(12_345);
        registry.gauge("server.connections.open", &[]).add(42);
        let h = registry.histogram("server.request.phase_ns", &[("phase", "handle")]);
        for v in [150, 900, 1_500, 40_000, 1_000_000] {
            h.record(v);
        }
        registry.snapshot()
    }

    #[test]
    fn metrics_roundtrip_bit_for_bit() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).expect("own encoding decodes");
        assert_eq!(decoded, snap);
        // Canonical: re-encode is byte-identical.
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = Snapshot::default();
        assert_eq!(Snapshot::decode(&snap.encode()), Ok(snap));
    }

    #[test]
    fn trace_roundtrip_bit_for_bit() {
        let ring = TraceRing::new(8);
        for v in 0..20u64 {
            ring.push(TraceRecord {
                seq: 0,
                msg_type: 4,
                device_hash: v * 17,
                ready_ns: v * 7,
                decode_ns: v,
                handle_ns: v * 2,
                flush_ns: v * 3,
                flush_wait_ns: v * 11,
                total_ns: v * 24,
                worker: 2,
            });
        }
        let snap = TraceSnapshot::from_ring(&ring);
        let bytes = snap.encode();
        let decoded = TraceSnapshot::decode(&bytes).expect("own encoding decodes");
        assert_eq!(decoded, snap);
        assert_eq!(decoded.recorded, 20);
        assert_eq!(decoded.records.len(), 8);
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn corruption_is_caught_by_the_crc() {
        let bytes = sample_snapshot().encode();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                Snapshot::decode(&bad).is_err(),
                "single-byte corruption at {pos} went undetected"
            );
        }
    }

    #[test]
    fn prefixes_and_soup_are_typed_errors() {
        let bytes = sample_snapshot().encode();
        for cut in 0..bytes.len() {
            assert!(Snapshot::decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        assert_eq!(
            Snapshot::decode(b"not a metrics blob at all..."),
            Err(MetricsDecodeError::BadCrc {
                declared: u32::from_le_bytes(*b"l..."),
                computed: crc32(b"not a metrics blob at al"),
            })
        );
        // Trace magic on the metrics decoder (valid CRC, wrong magic).
        let trace = TraceSnapshot::default().encode();
        assert_eq!(Snapshot::decode(&trace), Err(MetricsDecodeError::BadMagic));
        assert_eq!(
            TraceSnapshot::decode(&sample_snapshot().encode()),
            Err(MetricsDecodeError::BadMagic)
        );
    }

    #[test]
    fn timeseries_roundtrip_bit_for_bit() {
        use crate::timeseries::SeriesRing;
        use std::time::Duration;
        let ring = SeriesRing::new(4, Duration::from_millis(500));
        for i in 0..7u64 {
            let mut p = SeriesPoint {
                at_ns: i * 500_000_000,
                interval_ns: 500_000_000 + i,
                requests: i * 100,
                accepted: i,
                evicted: i / 2,
                open: 40 + i,
                busy_ns: i * 90_000,
                wall_ns: i * 100_000,
                ..SeriesPoint::default()
            };
            for (slot, v) in p.phase_total_ns.iter_mut().enumerate() {
                *v = i * 1_000 + slot as u64;
            }
            for (slot, v) in p.phase_count.iter_mut().enumerate() {
                *v = i + slot as u64;
            }
            p.latency[(i % 16) as usize] = i * 3;
            ring.push(p);
        }
        let snap = TimeSeriesSnapshot::from_ring(&ring);
        let bytes = snap.encode();
        let decoded = TimeSeriesSnapshot::decode(&bytes).expect("own encoding decodes");
        assert_eq!(decoded, snap);
        assert_eq!(decoded.sampled, 7);
        assert_eq!(decoded.points.len(), 4);
        assert_eq!(decoded.interval_ns, 500_000_000);
        assert_eq!(decoded.encode(), bytes);
        // Wrong decoder on a valid blob is a typed magic error.
        assert_eq!(Snapshot::decode(&bytes), Err(MetricsDecodeError::BadMagic));
        assert_eq!(
            TimeSeriesSnapshot::decode(&sample_snapshot().encode()),
            Err(MetricsDecodeError::BadMagic)
        );
    }

    #[test]
    fn forged_series_count_cannot_over_allocate() {
        let mut content = Vec::new();
        content.extend_from_slice(TIMESERIES_MAGIC);
        put_u16(&mut content, CODEC_VERSION);
        put_u64(&mut content, 1);
        put_u64(&mut content, 1_000_000_000);
        put_u32(&mut content, u32::MAX);
        let crc = crc32(&content);
        put_u32(&mut content, crc);
        assert!(matches!(
            TimeSeriesSnapshot::decode(&content),
            Err(MetricsDecodeError::LengthOutOfBounds {
                field: "series points",
                ..
            })
        ));
    }

    #[test]
    fn forged_counts_cannot_over_allocate() {
        // A valid header declaring 4096 metrics backed by nothing: the
        // count cap must trip before any allocation.
        let mut content = Vec::new();
        content.extend_from_slice(METRICS_MAGIC);
        put_u16(&mut content, CODEC_VERSION);
        put_u32(&mut content, u32::MAX);
        let crc = crc32(&content);
        put_u32(&mut content, crc);
        assert!(matches!(
            Snapshot::decode(&content),
            Err(MetricsDecodeError::LengthOutOfBounds {
                field: "metrics",
                ..
            })
        ));
    }
}
