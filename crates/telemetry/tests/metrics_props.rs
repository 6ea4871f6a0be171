//! Property tests for `ropuf-metrics/v1`, `ropuf-trace/v1`,
//! `ropuf-timeseries/v1` and the striped metric primitives.
//!
//! Mirrors the `ropuf-wire/v1` `wire_props` families:
//!
//! 1. **Roundtrip** — `decode(encode(s)) == s` for arbitrary snapshots
//!    (counters, gauges, labeled histograms), trace dumps and time
//!    series, and the re-encode is byte-identical (the codec is
//!    canonical).
//! 2. **Hostility** — byte soup, point mutations and every strict
//!    prefix of a valid blob produce typed errors, never panics, never
//!    over-reads.
//! 3. **Exactness** — striped counters/gauges are exact under
//!    multi-thread hammering; a striped histogram's merge equals a
//!    single-stream histogram bucket for bucket; the trace ring keeps
//!    exactly the newest `capacity` records across wraparound; a chain
//!    of sampler delta points telescopes to the final registry totals
//!    exactly; a striped histogram's sparse snapshot equals the
//!    export of its dense merge, and sparse-to-sparse merges equal
//!    dense merges.
//! 4. **Golden bytes** — a fixed verifier + server registry pair
//!    merges into pinned `ropuf-metrics/v1` bytes.

use proptest::collection::vec;
use proptest::prelude::*;

use ropuf_numeric::Histogram;
use ropuf_telemetry::{
    Counter, Gauge, HistogramSnapshot, MetricSample, MetricValue, Registry, SeriesPoint,
    SeriesRing, Snapshot, TimeSeriesSnapshot, TimerHistogram, TraceRecord, TraceRing,
    TraceSnapshot, LATENCY_BANDS, SERIES_PHASES,
};

/// Deterministically expands compact seeds into a snapshot (the
/// vendored proptest has no composite strategies). Histogram parts are
/// exported from a real recorded histogram, so they always satisfy the
/// reconstruction invariants the decoder re-validates.
fn snapshot_from(seeds: &[u64]) -> Snapshot {
    let mut metrics = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let name = format!("m{i}.{}", seed % 7);
        let labels = match seed % 3 {
            0 => vec![],
            1 => vec![("k".to_string(), format!("v{}", seed % 11))],
            _ => vec![
                ("a".to_string(), String::new()),
                ("b".to_string(), format!("{seed:x}")),
            ],
        };
        let value = match seed % 4 {
            0 => MetricValue::Counter(seed.rotate_left(13)),
            1 => MetricValue::Gauge(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            _ => {
                let mut h = Histogram::new();
                let mut x = seed | 1;
                for _ in 0..(seed % 40) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    h.record(x >> (x % 50));
                }
                MetricValue::Histogram(HistogramSnapshot::from_histogram(&h))
            }
        };
        metrics.push(MetricSample {
            name,
            labels,
            value,
        });
    }
    Snapshot { metrics }
}

fn trace_from(seeds: &[u64], capacity: usize) -> TraceSnapshot {
    let ring = TraceRing::new(capacity);
    for &seed in seeds {
        ring.push(TraceRecord {
            seq: 0,
            msg_type: (seed % 256) as u8,
            device_hash: seed.rotate_left(7),
            ready_ns: seed % 2_000,
            decode_ns: seed % 1_000,
            handle_ns: seed % 50_000,
            flush_ns: seed % 300,
            flush_wait_ns: seed % 9_000,
            total_ns: seed % 62_300,
            worker: (seed % 8) as u32,
        });
    }
    TraceSnapshot::from_ring(&ring)
}

/// Deterministically expands compact seeds into a time-series snapshot
/// with every field populated (the decoder must reproduce each one).
fn series_from(seeds: &[u64], capacity: usize) -> TimeSeriesSnapshot {
    let ring = SeriesRing::new(capacity, std::time::Duration::from_millis(250));
    for (i, &seed) in seeds.iter().enumerate() {
        let mut point = SeriesPoint {
            at_ns: (i as u64 + 1) * 250_000_000,
            interval_ns: 250_000_000 + seed % 1_000_000,
            requests: seed % 10_000,
            accepted: seed % 512,
            evicted: seed % 7,
            open: seed % 4_096,
            busy_ns: seed.rotate_left(9),
            wall_ns: seed.rotate_left(9).wrapping_add(seed % 1_000),
            ..SeriesPoint::default()
        };
        for (slot, _) in SERIES_PHASES.iter().enumerate() {
            point.phase_total_ns[slot] = seed.rotate_left(slot as u32) % 1_000_000;
            point.phase_count[slot] = seed % (1_000 + slot as u64);
        }
        for band in 0..LATENCY_BANDS {
            point.latency[band] = seed.rotate_right(band as u32) % 500;
        }
        ring.push(point);
    }
    TimeSeriesSnapshot::from_ring(&ring)
}

proptest! {
    #[test]
    fn metrics_snapshot_roundtrips(seeds in vec(any::<u64>(), 0..24)) {
        let snap = snapshot_from(&seeds);
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes);
        prop_assert_eq!(decoded.as_ref(), Ok(&snap));
        // Canonical: the re-encode is byte-identical.
        prop_assert_eq!(decoded.expect("just checked").encode(), bytes);
    }

    #[test]
    fn trace_snapshot_roundtrips(
        seeds in vec(any::<u64>(), 0..80),
        capacity in 1usize..32,
    ) {
        let snap = trace_from(&seeds, capacity);
        prop_assert_eq!(snap.records.len(), seeds.len().min(capacity));
        prop_assert_eq!(snap.recorded, seeds.len() as u64);
        let bytes = snap.encode();
        prop_assert_eq!(TraceSnapshot::decode(&bytes), Ok(snap));
    }

    #[test]
    fn timeseries_snapshot_roundtrips(
        seeds in vec(any::<u64>(), 0..40),
        capacity in 1usize..16,
    ) {
        let snap = series_from(&seeds, capacity);
        prop_assert_eq!(snap.points.len(), seeds.len().min(capacity));
        prop_assert_eq!(snap.sampled, seeds.len() as u64);
        let bytes = snap.encode();
        let decoded = TimeSeriesSnapshot::decode(&bytes);
        prop_assert_eq!(decoded.as_ref(), Ok(&snap));
        // Canonical: the re-encode is byte-identical.
        prop_assert_eq!(decoded.expect("just checked").encode(), bytes);
    }

    #[test]
    fn timeseries_strict_prefixes_always_fail(seeds in vec(any::<u64>(), 1..6)) {
        let bytes = series_from(&seeds, 8).encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                TimeSeriesSnapshot::decode(&bytes[..cut]).is_err(),
                "strict prefix of len {} decoded",
                cut
            );
        }
    }

    #[test]
    fn timeseries_point_mutations_never_panic(
        seeds in vec(any::<u64>(), 0..6),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = series_from(&seeds, 8).encode();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        // The CRC trailer makes any single-byte mutation a typed error.
        prop_assert!(TimeSeriesSnapshot::decode(&bytes).is_err());
    }

    #[test]
    fn byte_soup_never_panics(bytes in vec(any::<u8>(), 0..400)) {
        // Any outcome but a panic is acceptable; random soup virtually
        // never carries a valid CRC trailer.
        let _ = Snapshot::decode(&bytes);
        let _ = TraceSnapshot::decode(&bytes);
        let _ = TimeSeriesSnapshot::decode(&bytes);
    }

    #[test]
    fn series_deltas_telescope_to_registry_totals(
        rounds in vec(1u64..400, 1..10),
    ) {
        // The sampler's exactness contract: cut points after arbitrary
        // bursts of activity and the per-field sums over all points
        // equal the registry's final totals — nothing double-counted,
        // nothing lost, regardless of where the cuts land.
        let registry = Registry::new();
        let requests = registry.counter("server.requests", &[("backend", "prop")]);
        let open = registry.gauge("server.connections.open", &[("backend", "prop")]);
        let handle = registry.histogram(
            "server.request.phase_ns",
            &[("backend", "prop"), ("msg", "auth"), ("phase", "handle")],
        );
        let total = registry.histogram("server.request.total_ns", &[("backend", "prop")]);
        let mut prev = Snapshot { metrics: Vec::new() };
        let mut points = Vec::new();
        for (i, &n) in rounds.iter().enumerate() {
            for j in 0..n {
                requests.add(1);
                open.add(1);
                handle.record(j.wrapping_mul(737) % 5_000_000);
                total.record(j.wrapping_mul(12_289) % 40_000_000);
            }
            let next = registry.snapshot();
            points.push(SeriesPoint::between(
                &prev,
                &next,
                (i as u64 + 1) * 1_000_000,
                1_000_000,
            ));
            prev = next;
        }
        let expected: u64 = rounds.iter().sum();
        prop_assert_eq!(points.iter().map(|p| p.requests).sum::<u64>(), expected);
        let handle_slot = SERIES_PHASES
            .iter()
            .position(|p| *p == "handle")
            .expect("handle is a phase");
        prop_assert_eq!(
            points.iter().map(|p| p.phase_count[handle_slot]).sum::<u64>(),
            expected
        );
        let merged_handle = handle.merged();
        prop_assert_eq!(
            points.iter().map(|p| p.phase_total_ns[handle_slot]).sum::<u64>(),
            u64::try_from(merged_handle.sum()).unwrap_or(u64::MAX)
        );
        // Every heatmap cell across all rows sums to the total
        // histogram's sample count.
        prop_assert_eq!(
            points.iter().flat_map(|p| p.latency.iter()).sum::<u64>(),
            expected
        );
        // Gauges are point-in-time, not deltas: the last cut sees the
        // final value.
        prop_assert_eq!(points.last().expect("nonempty").open, open.get());
    }

    #[test]
    fn strict_prefixes_always_fail(seeds in vec(any::<u64>(), 1..12)) {
        let bytes = snapshot_from(&seeds).encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                Snapshot::decode(&bytes[..cut]).is_err(),
                "strict prefix of len {} decoded",
                cut
            );
        }
    }

    #[test]
    fn point_mutations_never_panic(
        seeds in vec(any::<u64>(), 0..12),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = snapshot_from(&seeds).encode();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        // The CRC trailer makes any single-byte mutation a typed error.
        prop_assert!(Snapshot::decode(&bytes).is_err());
    }

    #[test]
    fn striped_counter_is_exact(
        per_thread in vec(1u64..5_000, 1..8),
        bump in 1u64..9,
    ) {
        let counter = Counter::new();
        let gauge = Gauge::new();
        std::thread::scope(|scope| {
            for &n in &per_thread {
                let counter = counter.clone();
                let gauge = gauge.clone();
                scope.spawn(move || {
                    for _ in 0..n {
                        counter.add(bump);
                        gauge.add(bump);
                        gauge.sub(bump - 1);
                    }
                });
            }
        });
        let total: u64 = per_thread.iter().sum();
        prop_assert_eq!(counter.get(), total * bump);
        prop_assert_eq!(gauge.get(), total);
    }

    #[test]
    fn striped_histogram_merge_equals_single_stream(
        samples in vec(any::<u64>(), 0..400),
        threads in 1usize..6,
    ) {
        let striped = TimerHistogram::new();
        std::thread::scope(|scope| {
            for chunk in samples.chunks(samples.len().max(1).div_ceil(threads)) {
                let striped = striped.clone();
                scope.spawn(move || {
                    for &v in chunk {
                        striped.record(v);
                    }
                });
            }
        });
        let mut reference = Histogram::new();
        for &v in &samples {
            reference.record(v);
        }
        // Bucket-exact equality: sparse exports match, hence every
        // quantile matches too.
        let merged = striped.merged();
        prop_assert_eq!(merged.count(), reference.count());
        prop_assert_eq!(merged.sum(), reference.sum());
        prop_assert_eq!(merged.sparse_counts(), reference.sparse_counts());
        if reference.count() > 0 {
            prop_assert_eq!(merged.min(), reference.min());
            prop_assert_eq!(merged.max(), reference.max());
            for q in [50.0, 90.0, 99.0, 99.9] {
                prop_assert_eq!(merged.percentile(q), reference.percentile(q));
            }
        }
    }

    #[test]
    fn trace_ring_keeps_the_newest_across_wraparound(
        pushes in 0u64..300,
        capacity in 1usize..24,
    ) {
        let seeds: Vec<u64> = (0..pushes).collect();
        let snap = trace_from(&seeds, capacity);
        prop_assert_eq!(snap.recorded, pushes);
        // Single-threaded pushes never drop.
        prop_assert_eq!(snap.dropped, 0);
        let kept = pushes.min(capacity as u64);
        prop_assert_eq!(snap.records.len() as u64, kept);
        let expected: Vec<u64> = (pushes - kept..pushes).collect();
        let seqs: Vec<u64> = snap.records.iter().map(|r| r.seq).collect();
        // Exactly the newest records survive, oldest first.
        prop_assert_eq!(seqs, expected);
    }
}

/// A fixed verifier-side and server-side registry pair for the golden
/// scrape test. Both carry `server.degraded_transitions` (the verifier
/// registers it too) and one shared histogram identity, so the golden
/// bytes pin how overlapping identities combine.
fn golden_pair() -> (Registry, Registry) {
    let verifier = Registry::new();
    verifier.counter("verifier.auth.accept", &[]).add(1_234);
    verifier
        .counter("verifier.auth.flagged", &[("reason", "rate-budget")])
        .add(3);
    verifier
        .gauge("verifier.registry.entries", &[("shard", "0")])
        .add(17);
    verifier
        .gauge("verifier.registry.entries", &[("shard", "1")])
        .add(9);
    let compaction = verifier.histogram("verifier.compaction.duration_ns", &[]);
    for v in [1_500_000, 2_250_000] {
        compaction.record(v);
    }
    verifier.counter("server.degraded_transitions", &[]).add(1);
    let shared = verifier.histogram("shared.latency_ns", &[("layer", "both")]);
    for v in [0, 31, 32, 5_000, 5_001] {
        shared.record(v);
    }

    let server = Registry::new();
    server.counter("server.requests", &[]).add(42);
    server.gauge("server.connections.open", &[]).add(3);
    let auth = server.histogram(
        "server.request.phase_ns",
        &[("msg", "auth"), ("phase", "handle")],
    );
    for v in [900, 1_100, 40_000] {
        auth.record(v);
    }
    server.histogram(
        "server.request.phase_ns",
        &[("msg", "metrics"), ("phase", "handle")],
    );
    server.counter("server.degraded_transitions", &[]).add(2);
    let shared = server.histogram("shared.latency_ns", &[("layer", "both")]);
    for v in [32, 5_000, 1 << 40, u64::MAX] {
        shared.record(v);
    }
    (verifier, server)
}

/// `golden_pair`'s merged scrape as `ropuf-metrics/v1` bytes (hex),
/// taken from the decode-merge-encode scrape path this encoding must
/// keep reproducing byte for byte.
const GOLDEN_SCRAPE_HEX: &str = concat!(
    "525055464d45543101000b0000000117007365727665722e636f6e6e65637469",
    "6f6e732e6f70656e000300000000000000001b007365727665722e6465677261",
    "6465645f7472616e736974696f6e730003000000000000000217007365727665",
    "722e726571756573742e70686173655f6e730203006d73670400617574680500",
    "7068617365060068616e646c65030000000000000010a4000000000000000000",
    "00000000008403000000000000409c00000000000003000000b8000000010000",
    "0000000000c20000000100000000000000670100000100000000000000021700",
    "7365727665722e726571756573742e70686173655f6e730203006d736707006d",
    "65747269637305007068617365060068616e646c650000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "00000f007365727665722e7265717565737473002a0000000000000002110073",
    "68617265642e6c6174656e63795f6e730105006c617965720400626f74680900",
    "000000000000f73a00000001000001000000000000000000000000000000ffff",
    "ffffffffffff060000000000000001000000000000001f000000010000000000",
    "0000200000000200000000000000070100000300000000000000800400000100",
    "0000000000007f070000010000000000000000140076657269666965722e6175",
    "74682e61636365707400d20400000000000000150076657269666965722e6175",
    "74682e666c6167676564010600726561736f6e0b00726174652d627564676574",
    "0300000000000000021f0076657269666965722e636f6d70616374696f6e2e64",
    "75726174696f6e5f6e7300020000000000000070383900000000000000000000",
    "00000060e31600000000001055220000000000020000000d0200000100000000",
    "00000022020000010000000000000001190076657269666965722e7265676973",
    "7472792e656e7472696573010500736861726401003011000000000000000119",
    "0076657269666965722e72656769737472792e656e7472696573010500736861",
    "72640100310900000000000000c42b19be",
);

fn from_hex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

#[test]
fn merged_scrape_bytes_are_golden() {
    let golden = from_hex(GOLDEN_SCRAPE_HEX);
    assert_eq!(golden.len(), 785);
    let (verifier, server) = golden_pair();
    // One encode pass: merge the two snapshots, encode once.
    let mut merged = verifier.snapshot();
    merged.merge(server.snapshot());
    assert_eq!(merged.encode(), golden);
    // Decoding the verifier's blob first yields the same bytes.
    let mut decoded = Snapshot::decode(&verifier.snapshot().encode()).expect("own blob decodes");
    decoded.merge(server.snapshot());
    assert_eq!(decoded.encode(), golden);
    // The shared identities combined rather than repeated.
    assert_eq!(merged.counter_total("server.degraded_transitions"), 3);
    assert_eq!(merged.histogram_samples("shared.latency_ns"), 9);
}

/// Records `samples` into a fresh striped histogram from `threads`
/// threads, so the samples spread across stripes.
fn striped_from(samples: &[u64], threads: usize) -> TimerHistogram {
    let striped = TimerHistogram::new();
    std::thread::scope(|scope| {
        for chunk in samples.chunks(samples.len().max(1).div_ceil(threads)) {
            let striped = striped.clone();
            scope.spawn(move || {
                for &v in chunk {
                    striped.record(v);
                }
            });
        }
    });
    striped
}

#[test]
fn sparse_snapshot_edge_cases_equal_the_dense_merge() {
    let cases: [&[u64]; 6] = [
        &[],
        &[0],
        &[u64::MAX],
        &[0, u64::MAX],
        // One bucket: 1000..=1023 share bucket 1000's slot.
        &[1_000, 1_001, 1_010, 1_023, 1_000],
        &[0, 0, 1, 31, 32, 1 << 20, u64::MAX, u64::MAX - 1],
    ];
    for samples in cases {
        for threads in [1, 3, 8] {
            let striped = striped_from(samples, threads);
            assert_eq!(
                striped.snapshot(),
                HistogramSnapshot::from_histogram(&striped.merged()),
                "{samples:?} over {threads} threads"
            );
        }
    }
    assert_eq!(
        TimerHistogram::new().snapshot(),
        HistogramSnapshot::default()
    );
}

proptest! {
    #[test]
    fn sparse_snapshot_equals_dense_merge(
        raw in vec(any::<u64>(), 0..400),
        threads in 1usize..8,
    ) {
        // Shift by a per-sample amount so samples spread over the
        // whole u64 range, not just its top buckets.
        let samples: Vec<u64> = raw.iter().map(|&x| x >> (x % 64)).collect();
        let striped = striped_from(&samples, threads);
        let sparse = striped.snapshot();
        prop_assert_eq!(&sparse, &HistogramSnapshot::from_histogram(&striped.merged()));
        prop_assert_eq!(sparse.validate(), Ok(()));
    }

    #[test]
    fn sparse_merge_equals_dense_merge(
        left in vec(any::<u64>(), 0..200),
        right in vec(any::<u64>(), 0..200),
    ) {
        let dense = |values: &[u64]| {
            let mut h = Histogram::new();
            for &x in values {
                h.record(x >> (x % 64));
            }
            h
        };
        let (a, b) = (dense(&left), dense(&right));
        let mut sparse = HistogramSnapshot::from_histogram(&a);
        sparse.merge(HistogramSnapshot::from_histogram(&b));
        let mut both = a;
        both.merge(&b);
        prop_assert_eq!(sparse, HistogramSnapshot::from_histogram(&both));
    }

    #[test]
    fn validate_agrees_with_rebuild_on_forged_parts(
        raw in vec(any::<u64>(), 1..60),
        field in 0u8..6,
        delta in any::<u64>(),
    ) {
        let mut h = Histogram::new();
        for &x in &raw {
            h.record(x >> (x % 64));
        }
        let mut parts = HistogramSnapshot::from_histogram(&h);
        match field {
            0 => parts.count = parts.count.wrapping_add(delta),
            1 => parts.sum = parts.sum.wrapping_add(u128::from(delta)),
            2 => parts.min = parts.min.wrapping_add(delta),
            3 => parts.max = parts.max.wrapping_add(delta),
            4 => {
                let i = (delta % parts.buckets.len() as u64) as usize;
                parts.buckets[i].0 = parts.buckets[i].0.wrapping_add(delta as u32);
            }
            _ => {
                let i = (delta % parts.buckets.len() as u64) as usize;
                parts.buckets[i].1 = parts.buckets[i].1.wrapping_add(delta);
            }
        }
        // The allocation-free check draws exactly the typed error the
        // dense rebuild does (or accepts exactly what it accepts).
        prop_assert_eq!(parts.validate(), parts.to_histogram().map(|_| ()));
    }
}
