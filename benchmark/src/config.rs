//! Fixed benchmark constants. The offered rates were set once from the
//! knee of the server this benchmark was written against and are never
//! re-derived, so a faster server faces the same load.

use ropuf_campaign::AttackKind;
use ropuf_constructions::cooperative::CooperativeConfig;
use ropuf_constructions::group::GroupBasedConfig;
use ropuf_constructions::pairing::distilled::{DistilledConfig, PairSource};
use ropuf_constructions::pairing::lisa::LisaConfig;
use ropuf_sim::ArrayDims;

/// `low` offered auth rate, requests/s (about 25% of the knee).
pub const LOW_RATE: f64 = 16_000.0;
/// `high` offered auth rate, requests/s (about 75% of the knee).
pub const HIGH_RATE: f64 = 48_000.0;
/// Auth latency limit of the sustained-rate ladder, µs: a step passes
/// while its median auth latency stays within it (a growing backlog
/// drives the median past it within a step).
pub const LATENCY_LIMIT_US: u64 = 1_000;
/// Offered rates of the ladder, ascending, requests/s: from `high` to
/// well past the knee.
pub const LADDER: [f64; 12] = [
    50_000.0, 56_000.0, 63_000.0, 70_000.0, 78_000.0, 87_000.0, 97_000.0, 108_000.0, 120_000.0,
    133_000.0, 148_000.0, 165_000.0,
];
/// Blocks the fixed-rate load of a serving run is cut into. Each
/// latency figure is the median over blocks of the block's percentile,
/// so a burst of host contention that hits one block does not set it.
pub const BLOCKS: usize = 5;
/// Length of the ladder a traced `auth-steady` run climbs, as a share
/// of `--seconds`.
pub const LADDER_SHARE: f64 = 0.5;

/// Benign ids of `auth-steady` (a registry larger than CPU cache).
pub const STEADY_FLEET_IDS: u64 = 100_000;
/// Benign ids of `auth-admin`.
pub const ADMIN_FLEET_IDS: u64 = 1_024;
/// LISA devices whose attack trajectories are recorded; the pool holds
/// four times as many provisioned devices.
pub const POOL_LISA: usize = 16;
/// Scrapes per second of each kind, `MetricsSnapshot` and
/// `TimeSeriesDump`: the ops console's 4 Hz.
pub const SCRAPE_RATE: f64 = 4.0;
/// Wire enrollments per second (`auth-admin`).
pub const ENROLL_RATE: f64 = 400.0;
/// Warm-up schedule length inside set-up, seconds.
pub const WARMUP_SECONDS: f64 = 0.3;
/// Most auth requests replayed in-process by a traced run.
pub const REPLAY_AUTHS: u64 = 200_000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Cores of the host, read once.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Most connections / generator threads: one per core.
pub fn connections() -> usize {
    nproc()
}

/// The four attack kinds of `attack-campaign`, with their array shape
/// and fleet size per round.
pub fn campaign_kinds() -> [(AttackKind, ArrayDims, usize); 4] {
    [
        (
            AttackKind::Lisa(LisaConfig::default()),
            ArrayDims::new(16, 8),
            64,
        ),
        (
            AttackKind::Cooperative(CooperativeConfig::default()),
            ArrayDims::new(16, 8),
            64,
        ),
        (
            AttackKind::GroupBased(GroupBasedConfig::default()),
            ArrayDims::new(10, 4),
            64,
        ),
        (
            AttackKind::DistillerPairing(DistilledConfig {
                source: PairSource::OneOutOfK { k: 5 },
                ..DistilledConfig::default()
            }),
            ArrayDims::new(10, 4),
            512,
        ),
    ]
}

/// Distinct fleets per kind that `attack-campaign` cycles through,
/// so its device-time percentiles do not rest on one fleet's draw.
pub const CAMPAIGN_FLEETS: usize = 4;

/// The kind whose device times make `side_p50_us` on `attack-campaign`:
/// the paper's LISA attack, one population of like devices.
pub const SIDE_KIND: &str = "lisa";
/// Devices per kind in the set-up warm-up campaign.
pub const WARMUP_DEVICES: usize = 24;

/// Scheme labels of the per-layer table, in table order.
pub const KINDS: [&str; 4] = ["lisa", "cooperative", "group-based", "distiller-pairing"];

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("lat_p50_us", "us"),
    ("side_p50_us", "us"),
    ("work_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("queries_per_key", "count"),
    ("queries_to_flag", "count"),
];

/// Server request phases as the server's telemetry labels them, and the
/// metric stem each becomes.
pub const PHASES: [(&str, &str); 5] = [
    ("ready-wait", "ready_wait"),
    ("decode", "decode"),
    ("handle", "handle"),
    ("flush", "flush"),
    ("flush-wait", "flush_wait"),
];

/// Per-layer metrics: `(name, unit)`, every one printed by every traced
/// run (0 where the workload does not exercise the layer).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("client.lat_p99_us".into(), "us"),
        ("client.side_p99_us".into(), "us"),
        ("gen.lag_p99_us".into(), "us"),
        ("gen.backlog_max".into(), "count"),
        ("client.encode_ns".into(), "ns"),
        ("client.write_us".into(), "us"),
        ("client.decode_ns".into(), "ns"),
    ];
    for (stat, msg) in [
        ("p50", "auth"),
        ("p99", "auth"),
        ("p50", "scrape"),
        ("p50", "enroll"),
        ("p99", "enroll"),
    ] {
        for (_, stem) in PHASES {
            m.push((format!("server.{stem}_us.{stat}.{msg}"), "us"));
        }
    }
    m.extend([
        ("server.loop_busy_pct".into(), "%"),
        ("server.sustained_ops_s".into(), "1/s"),
        ("server.loop_busy_pct.knee".into(), "%"),
        ("server.ready_batch_p50".into(), "count"),
        ("server.shed".into(), "count"),
        ("residual_us.p50".into(), "us"),
        ("verifier.auth_ns".into(), "ns"),
        ("hash.hmac_ns".into(), "ns"),
        ("verifier.accept".into(), "count"),
        ("verifier.reject".into(), "count"),
        ("verifier.flagged".into(), "count"),
        ("telemetry.snapshot_us".into(), "us"),
        ("verifier.enroll_durable_us".into(), "us"),
        ("verifier.wal_bytes".into(), "bytes"),
    ]);
    for what in [
        "oracle.query_us",
        "attack.self_us",
        "constructions.reconstruct_us",
        "ecc.decode_us",
    ] {
        for kind in KINDS {
            m.push((format!("{what}.{kind}"), "us"));
        }
    }
    m.push(("sim.measure_us.16x8".into(), "us"));
    m.push(("sim.measure_us.10x4".into(), "us"));
    for stat in ["p50", "max"] {
        for kind in KINDS {
            m.push((format!("campaign.device_ms.{stat}.{kind}"), "ms"));
        }
    }
    m.push(("campaign.worker_idle_pct".into(), "%"));
    m.push(("campaign.oracle_queries_per_s".into(), "1/s"));
    for (name, unit) in &END_TO_END[2..5] {
        m.push((format!("overhead.{name}"), unit));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly these
    /// metrics, with these units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json next to benchmark/")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        let entry = |name: &str, unit: &str| format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        for (name, unit) in END_TO_END {
            assert!(text.contains(&entry(name, unit)), "end_to_end {name}");
        }
        let layers = per_layer();
        for (name, unit) in &layers {
            assert!(text.contains(&entry(name, unit)), "per_layer {name}");
        }
        let listed = text.matches("\"name\":").count();
        assert_eq!(listed, 3 + END_TO_END.len() + layers.len());
    }
}
