//! The traced run's per-layer table: client spans, server phases read
//! from the server's own telemetry, and in-process replays of each
//! layer on the workload's own inputs, timed from this crate.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_attacks::{Oracle, TrafficMonitor};
use ropuf_campaign::{AttackKind, FleetSpec};
use ropuf_constructions::cooperative::{CooperativeConfig, CooperativeScheme};
use ropuf_constructions::group::{GroupBasedConfig, GroupBasedScheme};
use ropuf_constructions::pairing::distilled::{DistilledConfig, DistilledPairingScheme};
use ropuf_constructions::pairing::lisa::{LisaConfig, LisaScheme};
use ropuf_constructions::{Device, DeviceResponse, HelperDataScheme, ParityHelper};
use ropuf_numeric::{bucket_floor, BitVec, Histogram};
use ropuf_proto::{AuthItem, WireAuthResponse};
use ropuf_sim::{ArrayDims, Environment};
use ropuf_telemetry::{MetricValue, Snapshot};
use ropuf_verifier::{client_tag, AuthQuery, AuthVerdict, DetectorConfig, StoreOptions, Verifier};

use crate::auth::{AuthSource, Kind, Served};
use crate::openloop::{nanos, RunStats, Source, AUTH};
use crate::report::Report;
use crate::stats::{supported, Samples};
use crate::{config, scratch_dir};

/// Most recorded helpers replayed per attacked device.
const REPLAY_HELPERS: usize = 64;
/// Repetitions of the cheap single-call replays.
const REPEATS: usize = 200;

fn p50_of(values: impl IntoIterator<Item = u64>) -> f64 {
    Samples::new(values.into_iter().collect())
        .median()
        .unwrap_or(0) as f64
}

/// Client spans, generator health and server phases of a traced pass's
/// fixed-rate phases. `before` and `after` are the server's telemetry
/// around those phases, so the server figures cover the same requests
/// as the client spans.
pub fn serving(report: &mut Report, stats: &RunStats, before: &Snapshot, after: &Snapshot) {
    let phases = &stats.phases;
    let lag = Samples::new(
        phases
            .iter()
            .flat_map(|p| p.lag_ns.iter().copied())
            .collect(),
    );
    report.layer(
        "gen.lag_p99_us",
        lag.percentile(0.99).unwrap_or(0) as f64 / 1e3,
    );
    report.layer(
        "gen.backlog_max",
        phases.iter().map(|p| p.backlog_max).max().unwrap_or(0) as f64,
    );
    let encode = p50_of(phases.iter().flat_map(|p| p.encode_ns.iter().copied()));
    let decode = p50_of(phases.iter().flat_map(|p| p.decode_ns.iter().copied()));
    let service = p50_of(
        phases
            .iter()
            .flat_map(|p| p.service_ns[AUTH].iter().copied()),
    );
    report.layer("client.encode_ns", encode);
    report.layer(
        "client.write_us",
        p50_of(phases.iter().flat_map(|p| p.write_ns.iter().copied())) / 1e3,
    );
    report.layer("client.decode_ns", decode);

    let mut server_auth_p50 = 0.0;
    for (label, stem) in config::PHASES {
        for (msg, wire) in [
            ("auth", &["auth"][..]),
            ("scrape", &["metrics", "timeseries"][..]),
            ("enroll", &["enroll"][..]),
        ] {
            let h = phase_histogram(before, after, wire, label);
            for (stat, q) in [("p50", 0.5), ("p99", 0.99)] {
                let name = format!("server.{stem}_us.{stat}.{msg}");
                let value = if supported(h.count(), q) {
                    h.percentile(q) as f64 / 1e3
                } else {
                    0.0
                };
                if stat == "p50" && msg == "auth" {
                    server_auth_p50 += value;
                }
                report.layer(&name, value);
            }
        }
    }
    let counter = |name| after.counter_total(name) - before.counter_total(name);
    let (busy, wall) = (
        counter("server.worker.busy_ns"),
        counter("server.worker.wall_ns"),
    );
    report.layer(
        "server.loop_busy_pct",
        if wall > 0 {
            100.0 * busy as f64 / wall as f64
        } else {
            0.0
        },
    );
    let batch = delta(before, after, "server.loop.ready_batch", |_| true);
    report.layer(
        "server.ready_batch_p50",
        if supported(batch.count(), 0.5) {
            batch.percentile(0.5) as f64
        } else {
            0.0
        },
    );
    report.layer("server.shed", counter("server.shed") as f64);
    // Kernel and loopback share: what the client saw minus what both
    // ends account for.
    report.layer(
        "residual_us.p50",
        (service - encode - decode) / 1e3 - server_auth_p50,
    );
}

/// The samples of the histograms `name` (those whose labels `keep`
/// accepts) recorded between two snapshots, at bucket resolution.
fn delta(
    before: &Snapshot,
    after: &Snapshot,
    name: &str,
    keep: impl Fn(&[(String, String)]) -> bool,
) -> Histogram {
    let mut counts: BTreeMap<u32, u64> = merged(after, name, &keep)
        .sparse_counts()
        .into_iter()
        .collect();
    for (bucket, n) in merged(before, name, &keep).sparse_counts() {
        if let Some(c) = counts.get_mut(&bucket) {
            *c = c.saturating_sub(n);
        }
    }
    let mut h = Histogram::new();
    for (bucket, n) in counts {
        h.record_n(bucket_floor(bucket as usize), n);
    }
    h
}

fn merged(snap: &Snapshot, name: &str, keep: &impl Fn(&[(String, String)]) -> bool) -> Histogram {
    let mut h = Histogram::new();
    for m in snap
        .metrics
        .iter()
        .filter(|m| m.name == name && keep(&m.labels))
    {
        if let MetricValue::Histogram(hs) = &m.value {
            if let Ok(part) = hs.to_histogram() {
                h.merge(&part);
            }
        }
    }
    h
}

fn phase_histogram(before: &Snapshot, after: &Snapshot, msgs: &[&str], phase: &str) -> Histogram {
    delta(before, after, "server.request.phase_ns", |labels| {
        let get = |k: &str| {
            labels
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v.as_str())
        };
        get("phase") == Some(phase) && get("msg").is_some_and(|m| msgs.contains(&m))
    })
}

/// In-process replays for a serving workload: the verifier over the
/// exact auth stream, HMAC, telemetry snapshots, durable enrolls, and
/// the device side of the plan the fixture was built from.
pub fn replays(
    report: &mut Report,
    kind: Kind,
    served: &Served,
    source: &AuthSource,
) -> std::io::Result<()> {
    let fixture = source.fixture();
    // The auth stream again, from a fresh source with the same seed.
    let fresh = Verifier::new(crate::auth::SHARDS, DetectorConfig::default());
    let mut batch: Vec<_> = (0..kind.fleet_ids())
        .map(|id| ropuf_verifier::BatchEnrollment {
            device_id: id,
            ..source.pool_entry(id).clone()
        })
        .collect();
    batch.extend(
        (0..=u64::from(source.finished_attackers()))
            .map(|a| crate::auth::attacker_enrollment(fixture, a)),
    );
    fresh.enroll_batch(batch);
    let mut replay = AuthSource::new(fixture.clone(), kind.fleet_ids(), 1, fixture.seed);
    let mut payload = Vec::new();
    let mut auth_ns = Vec::new();
    let mut hmac_ns = Vec::new();
    let (mut accept, mut reject, mut flagged) = (0u64, 0u64, 0u64);
    for _ in 0..source.auth_ops().min(config::REPLAY_AUTHS) {
        replay.next(AUTH, &mut payload);
        let request = ropuf_proto::Request::decode(&payload).map_err(std::io::Error::other)?;
        let ropuf_proto::Request::Authenticate(item) = request else {
            continue;
        };
        let t0 = Instant::now();
        let verdict = fresh.authenticate_query(query(&item));
        auth_ns.push(nanos(t0.elapsed()));
        match verdict {
            AuthVerdict::Accept => accept += 1,
            AuthVerdict::Reject => reject += 1,
            AuthVerdict::Flagged(_) => flagged += 1,
        }
        let key = &source.pool_entry(item.device_id).key_digest;
        let t0 = Instant::now();
        std::hint::black_box(client_tag(key, &item.nonce));
        hmac_ns.push(nanos(t0.elapsed()));
    }
    report.layer("verifier.auth_ns", p50_of(auth_ns));
    report.layer("hash.hmac_ns", p50_of(hmac_ns));
    report.layer("verifier.accept", accept as f64);
    report.layer("verifier.reject", reject as f64);
    report.layer("verifier.flagged", flagged as f64);

    let mut snap_ns = Vec::new();
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        std::hint::black_box(served.verifier.telemetry_snapshot().encode());
        snap_ns.push(nanos(t0.elapsed()));
    }
    report.layer("telemetry.snapshot_us", p50_of(snap_ns) / 1e3);

    if kind == Kind::Admin {
        durable_enrolls(report, source)?;
    }
    device_side_of_plan(report, fixture.seed);
    Ok(())
}

fn query(item: &AuthItem) -> AuthQuery<'_> {
    AuthQuery {
        device_id: item.device_id,
        now: item.now,
        nonce: &item.nonce,
        response: match item.response {
            WireAuthResponse::Tag(t) => DeviceResponse::Tag(t),
            WireAuthResponse::Failure => DeviceResponse::Failure,
        },
        presented_helper: item.presented_helper.as_deref(),
    }
}

/// Replays the wire enroll stream into a durable verifier.
fn durable_enrolls(report: &mut Report, source: &AuthSource) -> std::io::Result<()> {
    let dir = scratch_dir("enroll-replay")?;
    let (verifier, _) = Verifier::open_durable(
        &dir,
        crate::auth::SHARDS,
        DetectorConfig::default(),
        StoreOptions::default(),
    )
    .map_err(|e| std::io::Error::other(format!("open_durable: {e:?}")))?;
    let mut ns = Vec::new();
    for i in 0..source.enrolls().max(1) {
        let e = source.pool_entry(i);
        let record = ropuf_verifier::EnrollmentRecord {
            scheme_tag: e.scheme_tag,
            helper: e.helper.clone(),
            key_digest: e.key_digest,
        };
        let t0 = Instant::now();
        let _ = verifier
            .registry()
            .enroll(crate::auth::ENROLL_BASE + i, record);
        ns.push(nanos(t0.elapsed()));
    }
    drop(verifier);
    let wal_bytes: u64 = std::fs::read_dir(&dir)?
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let _ = std::fs::remove_dir_all(&dir);
    report.layer("verifier.enroll_durable_us", p50_of(ns) / 1e3);
    report.layer("verifier.wal_bytes", wal_bytes as f64);
    Ok(())
}

/// A monitor that timestamps every oracle query and keeps a sample of
/// the helpers presented.
#[derive(Debug)]
struct TimingMonitor {
    log: Rc<RefCell<QueryLog>>,
}

#[derive(Debug, Default)]
struct QueryLog {
    helpers: Vec<Vec<u8>>,
}

impl TrafficMonitor for TimingMonitor {
    fn observe(&mut self, helper: &[u8], _response: &DeviceResponse) -> bool {
        self.log.borrow_mut().helpers.push(helper.to_vec());
        false
    }
}

/// One device driven outside the campaign engine, with the engine's
/// seeds.
#[derive(Debug, Default, Clone)]
pub struct Driven {
    /// Queries as the campaign engine reports them (0 when the attack
    /// errors).
    pub queries: u64,
    /// Oracle queries actually issued.
    pub oracle_queries: u64,
    /// Provisioning plus attack wall time, ns (what the engine's
    /// `wall_ms` covers).
    pub device_ns: u64,
    /// Attack wall time, ns.
    pub attack_ns: u64,
    /// Mean `reconstruct_key` time over replayed helpers, ns.
    pub reconstruct_ns: f64,
    /// Mean `Device::respond` time over replayed helpers, ns.
    pub respond_ns: f64,
    /// Key recovered exactly (or every relation resolved).
    pub success: bool,
}

/// Provisions device `id` of `fleet`, runs `kind`'s attack through a
/// timing monitor, and replays a sample of its helpers.
pub fn drive(kind: &AttackKind, fleet: &FleetSpec, id: usize) -> Option<Driven> {
    let start = Instant::now();
    let scheme = kind.scheme();
    let mut device = fleet.provision_device(id, scheme.as_ref()).ok()?;
    let truth = device.enrolled_key().clone();
    let log = Rc::new(RefCell::new(QueryLog::default()));
    let mut rng = StdRng::seed_from_u64(fleet.seeds(id).attack);
    let (outcome, attack_ns) = {
        let mut oracle = Oracle::new(&mut device);
        oracle.attach_monitor(Box::new(TimingMonitor {
            log: Rc::clone(&log),
        }));
        let t0 = Instant::now();
        let outcome = kind.execute(&mut oracle, &mut rng, false);
        (outcome, nanos(t0.elapsed()))
    };
    let device_ns = nanos(start.elapsed());
    let log = log.borrow();
    // An even sample across the whole trajectory.
    let step = log.helpers.len().div_ceil(REPLAY_HELPERS).max(1);
    let sample: Vec<Vec<u8>> = log.helpers.iter().step_by(step).cloned().collect();
    let reconstruct_ns = replay_reconstruct(&mut device, &sample);
    let respond_ns = replay_respond(&mut device, &sample);
    let (queries, success) = match &outcome {
        Ok(o) => (
            o.queries,
            match (&o.recovered_key, o.relations) {
                (Some(k), _) => k == &truth,
                (None, Some((resolved, total))) => resolved == total && total > 0,
                _ => false,
            },
        ),
        Err(_) => (0, false),
    };
    Some(Driven {
        queries,
        oracle_queries: log.helpers.len() as u64,
        device_ns,
        attack_ns,
        reconstruct_ns,
        respond_ns,
        success,
    })
}

fn replay_reconstruct(device: &mut Device, helpers: &[Vec<u8>]) -> f64 {
    if helpers.is_empty() {
        return 0.0;
    }
    let mut total = 0u64;
    for h in helpers {
        device.set_helper(h);
        let t0 = Instant::now();
        let _ = std::hint::black_box(device.reconstruct_key(Environment::nominal()));
        total += nanos(t0.elapsed());
    }
    total as f64 / helpers.len() as f64
}

fn replay_respond(device: &mut Device, helpers: &[Vec<u8>]) -> f64 {
    if helpers.is_empty() {
        return 0.0;
    }
    let mut total = 0u64;
    for h in helpers {
        device.set_helper(h);
        let t0 = Instant::now();
        std::hint::black_box(device.respond(b"replay", Environment::nominal()));
        total += nanos(t0.elapsed());
    }
    total as f64 / helpers.len() as f64
}

/// Per-kind oracle and attack self time from driven devices.
pub fn record_driven(report: &mut Report, kind: &str, driven: &[Driven]) {
    let queries: u64 = driven.iter().map(|d| d.oracle_queries).sum();
    if queries == 0 {
        return;
    }
    let attack_ns: u64 = driven.iter().map(|d| d.attack_ns).sum();
    let per_query = attack_ns as f64 / queries as f64;
    let mean = |f: fn(&Driven) -> f64| driven.iter().map(f).sum::<f64>() / driven.len() as f64;
    let reconstruct = mean(|d| d.reconstruct_ns);
    let respond = mean(|d| d.respond_ns);
    report.layer(&format!("oracle.query_us.{kind}"), per_query / 1e3);
    // Self time: the query interval minus what the device spends
    // answering it.
    report.layer(
        &format!("attack.self_us.{kind}"),
        (per_query - respond) / 1e3,
    );
    report.layer(
        &format!("constructions.reconstruct_us.{kind}"),
        reconstruct / 1e3,
    );
}

/// The pool's schemes as the traffic plan provisions them.
fn plan_schemes() -> [(&'static str, ArrayDims, Box<dyn HelperDataScheme>, usize); 4] {
    [
        (
            "lisa",
            ArrayDims::new(16, 8),
            Box::new(LisaScheme::new(LisaConfig::default())),
            LisaConfig::default().ecc_t,
        ),
        (
            "cooperative",
            ArrayDims::new(16, 8),
            Box::new(CooperativeScheme::new(CooperativeConfig::default())),
            CooperativeConfig::default().ecc_t,
        ),
        (
            "group-based",
            ArrayDims::new(10, 4),
            Box::new(GroupBasedScheme::new(GroupBasedConfig::default())),
            GroupBasedConfig::default().ecc_t,
        ),
        (
            "distiller-pairing",
            ArrayDims::new(10, 4),
            Box::new(DistilledPairingScheme::new(DistilledConfig::default())),
            DistilledConfig::default().ecc_t,
        ),
    ]
}

/// Device side of a serving workload's plan: the recorded LISA attacks
/// driven again, and every pool scheme's reconstruct, measure and ECC
/// decode.
fn device_side_of_plan(report: &mut Report, seed: u64) {
    let spec = crate::auth::spec(seed);
    let attacked = spec.attacked();
    let lisa_fleet = FleetSpec {
        dims: ArrayDims::new(16, 8),
        devices: spec.devices,
        master_seed: seed,
    };
    let kind = AttackKind::Lisa(spec.lisa);
    let driven: Vec<Driven> = (0..attacked)
        .filter_map(|id| drive(&kind, &lisa_fleet, id))
        .collect();
    record_driven(report, "lisa", &driven);
    let mut devices = Vec::new();
    for (i, (name, dims, scheme, t)) in plan_schemes().into_iter().enumerate() {
        // The plan's slot arithmetic: LISA first, then round-robin.
        let id = if i == 0 { 0 } else { attacked + i - 1 };
        let fleet = FleetSpec {
            dims,
            devices: spec.devices,
            master_seed: seed,
        };
        if let Ok(device) = fleet.provision_device(id, scheme.as_ref()) {
            devices.push((name, dims, device, t));
        }
    }
    device_layers(report, devices);
}

/// Reconstruct (for kinds without a driven attack), measure and ECC
/// decode on one provisioned device per scheme.
pub fn device_layers(report: &mut Report, devices: Vec<(&'static str, ArrayDims, Device, usize)>) {
    let env = Environment::nominal();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for (name, dims, mut device, t) in devices {
        let key = format!("constructions.reconstruct_us.{name}");
        if report.layer_value(&key).is_none() {
            let helper = device.helper().to_vec();
            let ns = replay_reconstruct(&mut device, &vec![helper; 16]);
            report.layer(&key, ns / 1e3);
        }
        let label = format!("sim.measure_us.{}", dims_label(dims));
        let mut buf = Vec::new();
        let mut ns = Vec::new();
        for _ in 0..REPEATS {
            let t0 = Instant::now();
            device.array().measure_all_into(env, &mut rng, &mut buf);
            ns.push(nanos(t0.elapsed()));
        }
        report.layer(&label, p50_of(ns) / 1e3);
        let bits = device.enrolled_key().len().max(8);
        if let Ok(helper) = ParityHelper::new(bits, t.max(1)) {
            let reference = device.enrolled_key().clone();
            let reference = if reference.len() == bits {
                reference
            } else {
                BitVec::zeros(bits)
            };
            let parity = helper.parity(&reference);
            let mut noisy = reference.clone();
            for i in 0..(t / 2).max(1) {
                noisy.flip((i * 7) % bits);
            }
            let mut ns = Vec::new();
            for _ in 0..REPEATS {
                let t0 = Instant::now();
                let _ = std::hint::black_box(helper.correct(&noisy, &parity));
                ns.push(nanos(t0.elapsed()));
            }
            report.layer(&format!("ecc.decode_us.{name}"), p50_of(ns) / 1e3);
        }
    }
}

/// `16x8`-style label of an array shape.
pub fn dims_label(dims: ArrayDims) -> String {
    format!("{}x{}", dims.cols(), dims.rows())
}
