//! Fleet telemetry for the `ropuf` serving stack.
//!
//! Zero-dependency (below [`ropuf_numeric`]) observability primitives,
//! built for the workspace's threat model and performance envelope:
//!
//! * [`metrics`] — striped, cache-padded [`Counter`]s and [`Gauge`]s
//!   (`Relaxed` increments, exact aggregated reads) and mergeable
//!   [`TimerHistogram`]s, replacing the old per-server `SeqCst` stats.
//! * [`registry`] — an instantiable [`Registry`] of named, labeled
//!   metrics; [`Registry::snapshot`] freezes everything into a sorted,
//!   mergeable [`Snapshot`].
//! * [`trace`] — a fixed-capacity, never-blocking [`TraceRing`] that
//!   keeps a [`TraceRecord`] (message type, hashed device id, per-phase
//!   timings, worker id) for every request slower than a configurable
//!   threshold.
//! * [`timeseries`] — a [`Sampler`] thread that diffs successive
//!   registry snapshots into per-interval [`SeriesPoint`] deltas
//!   (rates, saturation, a latency heatmap row) retained in a
//!   fixed-capacity [`SeriesRing`] — minutes of history in bounded
//!   memory, returned by one `TimeSeriesDump` wire exchange.
//! * [`codec`] — the CRC-guarded `ropuf-metrics/v1`, `ropuf-trace/v1`
//!   and `ropuf-timeseries/v1` binary blobs that
//!   `MetricsSnapshot`/`TraceDump`/`TimeSeriesDump` wire exchanges
//!   carry; decoding is bounds-checked and never panics.
//!
//! The serving layers each own a registry (mostly `server.*` and
//! `verifier.*`); the server merges them at scrape time, so one
//! `MetricsSnapshot` request observes the whole stack. The namespaces
//! are not disjoint — the verifier also registers
//! `server.degraded_transitions` and `faults.injected` — and an
//! identity both layers carry combines: counters and gauges add,
//! histograms merge exactly. The merge is sparse end to end (striped
//! histograms export their occupied buckets, snapshots merge-join), and
//! the merged snapshot is encoded once.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod metrics;
pub mod registry;
pub mod timeseries;
pub mod trace;

pub use codec::{MetricsDecodeError, CODEC_VERSION, METRICS_MAGIC, TIMESERIES_MAGIC, TRACE_MAGIC};
pub use metrics::{Counter, Gauge, TimerHistogram, STRIPES};
pub use registry::{
    HistogramSnapshot, MetricSample, MetricValue, Registry, Snapshot, MAX_LABELS, MAX_LABEL_KEY,
    MAX_LABEL_VALUE, MAX_METRICS, MAX_NAME,
};
pub use timeseries::{
    band_floor_us, latency_band, Sampler, SeriesPoint, SeriesRing, TimeSeriesSnapshot,
    LATENCY_BANDS, MAX_SERIES_POINTS, SERIES_PHASES,
};
pub use trace::{TraceRecord, TraceRing, TraceSnapshot, MAX_TRACE_RECORDS};
