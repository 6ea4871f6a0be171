//! The two serving workloads, `auth-steady` and `auth-admin`: an
//! in-process `EventedServer` on TCP loopback, driven open-loop.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ropuf_constructions::pairing::lisa::LisaConfig;
use ropuf_proto::{AuthItem, AuthItemRef, RequestRef, WireAuthResponse};
use ropuf_server::{EventedConfig, EventedServer, TrafficPlan, TrafficSpec, VerifierHandler};
use ropuf_verifier::{client_tag, BatchEnrollment, DetectorConfig, StoreOptions, Verifier};

use crate::openloop::{
    self, Expect, Phase, RunStats, Source, Stream, AUTH, ENROLL, METRICS, TIMESERIES,
};
use crate::report::{E2e, Report};
use crate::stats::{block_percentile, Samples};
use crate::{affinity, config, host, layers, Args};

/// Attacker ids live above every benign id.
pub const ATTACKER_BASE: u64 = 1 << 40;
/// Ids enrolled over the wire during `auth-admin`.
pub const ENROLL_BASE: u64 = 2 << 40;
/// One auth request in this many replays an attack trajectory.
const ATTACK_EVERY: u64 = 8;
/// Registry shards of the verifier under test.
pub const SHARDS: usize = 16;
/// Name prefix of the server's event-loop threads.
const LOOP_THREAD: &str = "evented-loop";

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Large fleet, auth only, fixed rates plus a ladder.
    Steady,
    /// Small fleet at `low`, with scrapes and durable wire enrolls.
    Admin,
}

impl Kind {
    /// Benign ids enrolled for this workload.
    pub fn fleet_ids(self) -> u64 {
        match self {
            Kind::Steady => config::STEADY_FLEET_IDS,
            Kind::Admin => config::ADMIN_FLEET_IDS,
        }
    }
}

/// Provisioned devices and recorded attack trajectories, built from the
/// seed through the campaign-backed [`TrafficPlan`].
pub struct Fixture {
    /// Enrollments of the provisioned pool (all four schemes).
    pub pool: Vec<BatchEnrollment>,
    /// Recorded LISA trajectories and the enrollment they attack.
    pub trajectories: Vec<(BatchEnrollment, Vec<AuthItem>)>,
    /// Plan seed (the device-side replays reuse it).
    pub seed: u64,
}

impl Fixture {
    /// Builds the pool and records the trajectories.
    pub fn build(seed: u64) -> Self {
        let spec = spec(seed);
        let plan = TrafficPlan::build(&spec);
        let pool = plan.enrollments();
        let trajectories = plan
            .attackers()
            .map(|d| (d.enrollment.clone(), d.requests.clone()))
            .collect();
        Self {
            pool,
            trajectories,
            seed,
        }
    }

    /// The pool enrollment behind benign id `id`.
    pub fn pool_entry(&self, id: u64) -> &BatchEnrollment {
        &self.pool[(id % self.pool.len() as u64) as usize]
    }

    /// Mean queries per recovered key over the recorded trajectories.
    pub fn queries_per_key(&self) -> f64 {
        let total: usize = self.trajectories.iter().map(|(_, t)| t.len()).sum();
        total as f64 / self.trajectories.len().max(1) as f64
    }
}

/// The plan spec: `4 * POOL_LISA` devices, the first quarter attacked.
pub fn spec(seed: u64) -> TrafficSpec {
    TrafficSpec {
        devices: 4 * config::POOL_LISA,
        master_seed: seed,
        rounds: 1,
        lisa: LisaConfig::default(),
        detector: DetectorConfig::default(),
    }
}

/// Generates the workload's requests.
pub struct AuthSource {
    fixture: Arc<Fixture>,
    conns: usize,
    fleet_ids: u64,
    rng: StdRng,
    counts: Vec<u32>,
    gap: u64,
    seed: u64,
    auth_ops: u64,
    nonce_counter: u64,
    nonce: [u8; 16],
    /// Attacker currently replaying, and its next 0-based index.
    attacker: u32,
    index: usize,
    enrolls: u64,
    scrapes: u64,
}

impl AuthSource {
    /// A source over `fleet_ids` benign ids, spread over `conns`
    /// connections.
    pub fn new(fixture: Arc<Fixture>, fleet_ids: u64, conns: usize, seed: u64) -> Self {
        let detector = DetectorConfig::default();
        Self {
            fixture,
            conns,
            fleet_ids,
            rng: StdRng::seed_from_u64(seed ^ 0xa076_1d64_78bd_642f),
            counts: vec![0; fleet_ids as usize],
            // The plan's benign spacing: well inside the rate budget.
            gap: 2 * detector.rate_window / u64::from(detector.rate_budget).max(1),
            seed,
            auth_ops: 0,
            nonce_counter: 0,
            nonce: [0; 16],
            attacker: 0,
            index: 0,
            enrolls: 0,
            scrapes: 0,
        }
    }

    /// Attackers whose whole trajectory has been sent.
    pub fn finished_attackers(&self) -> u32 {
        self.attacker
    }

    /// The first attacker whose trajectory has not started yet.
    pub fn next_fresh_attacker(&self) -> u32 {
        self.attacker + u32::from(self.index > 0)
    }

    /// Number of wire enrollments produced so far.
    pub fn enrolls(&self) -> u64 {
        self.enrolls
    }

    /// Number of auth requests produced so far.
    pub fn auth_ops(&self) -> u64 {
        self.auth_ops
    }

    /// The fixture this source draws from.
    pub fn fixture(&self) -> &Arc<Fixture> {
        &self.fixture
    }

    /// Enrollment for benign id `id`.
    pub fn pool_entry(&self, id: u64) -> &BatchEnrollment {
        self.fixture.pool_entry(id)
    }

    fn benign(&mut self, payload: &mut Vec<u8>) -> (usize, Expect) {
        let id = self.rng.random_range(0..self.fleet_ids);
        let count = &mut self.counts[id as usize];
        let now = u64::from(*count) * self.gap;
        *count += 1;
        self.nonce_counter += 1;
        self.nonce[..8].copy_from_slice(&self.seed.to_le_bytes());
        self.nonce[8..].copy_from_slice(&self.nonce_counter.to_le_bytes());
        let fixture = Arc::clone(&self.fixture);
        let entry = fixture.pool_entry(id);
        let tag = client_tag(&entry.key_digest, &self.nonce);
        RequestRef::Authenticate(AuthItemRef {
            device_id: id,
            now,
            nonce: &self.nonce,
            response: WireAuthResponse::Tag(tag),
            presented_helper: Some(&entry.helper),
        })
        .encode_into(payload);
        ((id % self.conns as u64) as usize, Expect::Accept)
    }

    fn attack(&mut self, payload: &mut Vec<u8>) -> (usize, Expect) {
        let fixture = Arc::clone(&self.fixture);
        let trajectories = &fixture.trajectories;
        let (_, items) = &trajectories[self.attacker as usize % trajectories.len()];
        let id = ATTACKER_BASE + u64::from(self.attacker);
        let mut item = items[self.index].as_ref();
        item.device_id = id;
        RequestRef::Authenticate(item).encode_into(payload);
        let expect = Expect::Attack {
            attacker: self.attacker,
            index: self.index as u32 + 1,
        };
        self.index += 1;
        if self.index == items.len() {
            self.attacker += 1;
            self.index = 0;
        }
        ((id % self.conns as u64) as usize, expect)
    }
}

impl Source for AuthSource {
    fn next(&mut self, class: usize, payload: &mut Vec<u8>) -> (usize, Expect) {
        match class {
            AUTH => {
                self.auth_ops += 1;
                if self.auth_ops.is_multiple_of(ATTACK_EVERY) {
                    self.attack(payload)
                } else {
                    self.benign(payload)
                }
            }
            METRICS | TIMESERIES => {
                self.scrapes += 1;
                let conn = (self.scrapes % self.conns as u64) as usize;
                if class == METRICS {
                    RequestRef::MetricsSnapshot.encode_into(payload);
                    (conn, Expect::Metrics)
                } else {
                    RequestRef::TimeSeriesDump.encode_into(payload);
                    (conn, Expect::TimeSeries)
                }
            }
            _ => {
                let id = ENROLL_BASE + self.enrolls;
                let entry = self.pool_entry(self.enrolls).clone();
                self.enrolls += 1;
                RequestRef::Enroll {
                    device_id: id,
                    scheme_tag: entry.scheme_tag,
                    helper: &entry.helper,
                    key_digest: entry.key_digest,
                }
                .encode_into(payload);
                ((id % self.conns as u64) as usize, Expect::Enrolled(id))
            }
        }
    }
}

/// Enrollment of an attacker ordinal: its trajectory's device under a
/// fresh id.
pub fn attacker_enrollment(fixture: &Fixture, attacker: u64) -> BatchEnrollment {
    let (base, _) = &fixture.trajectories[attacker as usize % fixture.trajectories.len()];
    BatchEnrollment {
        device_id: ATTACKER_BASE + attacker,
        ..base.clone()
    }
}

/// A running server with its verifier and connections.
pub struct Served {
    pub verifier: Arc<Verifier>,
    pub server: EventedServer,
    pub dialed: openloop::Dialed,
    /// Frames this benchmark sent to `server`.
    pub frames: u64,
    pub store_dir: Option<PathBuf>,
}

/// Upper bound on attackers a schedule can start.
fn attackers_needed(fixture: &Fixture, auth_ops: u64) -> u64 {
    let shortest = fixture
        .trajectories
        .iter()
        .map(|(_, t)| t.len() as u64)
        .min()
        .unwrap_or(1)
        .max(1);
    auth_ops / ATTACK_EVERY / shortest + 2
}

/// Builds the verifier, enrolls the fleet, spawns the server and dials.
fn serve(
    kind: Kind,
    fixture: &Fixture,
    planned_auth: u64,
    store_dir: Option<&Path>,
) -> std::io::Result<Served> {
    let detector = DetectorConfig::default();
    let verifier = match store_dir {
        Some(dir) => {
            let (v, _) = Verifier::open_durable(dir, SHARDS, detector, StoreOptions::default())
                .map_err(|e| std::io::Error::other(format!("open_durable: {e:?}")))?;
            v
        }
        None => Verifier::new(SHARDS, detector),
    };
    let mut batch: Vec<BatchEnrollment> = (0..kind.fleet_ids())
        .map(|id| BatchEnrollment {
            device_id: id,
            ..fixture.pool_entry(id).clone()
        })
        .collect();
    batch.extend(
        (0..attackers_needed(fixture, planned_auth)).map(|a| attacker_enrollment(fixture, a)),
    );
    if verifier.enroll_batch(batch).iter().any(Result::is_err) {
        return Err(std::io::Error::other("fleet enrollment failed"));
    }
    let verifier = Arc::new(verifier);
    let handler = Arc::new(VerifierHandler::new(Arc::clone(&verifier)));
    let (server_cpus, generator_cpus) = affinity::split();
    affinity::pin_current_thread(&server_cpus);
    let server = EventedServer::spawn("127.0.0.1:0", handler, EventedConfig::default());
    // The generator runs on this thread.
    affinity::pin_current_thread(&generator_cpus);
    let server = server?;
    let dialed = openloop::dial(server.local_addr(), config::connections())?;
    let frames = dialed.frames;
    Ok(Served {
        verifier,
        server,
        dialed,
        frames,
        store_dir: store_dir.map(Path::to_path_buf),
    })
}

/// The measured schedule of a serving workload: the fixed-rate phases
/// as [`config::BLOCKS`] blocks over `seconds` (`auth-steady` alternates
/// a `low` and a `high` block), and the ladder that traced runs climb
/// after them.
fn schedule(kind: Kind, seconds: f64) -> (Vec<Phase>, Vec<Phase>) {
    let auth = |rate| Stream { class: AUTH, rate };
    let blocks = config::BLOCKS as f64;
    match kind {
        Kind::Steady => {
            let block = |rate, share| Phase {
                streams: vec![auth(rate)],
                seconds: seconds * share / blocks,
            };
            let fixed = (0..config::BLOCKS)
                .flat_map(|_| [block(config::LOW_RATE, 0.5), block(config::HIGH_RATE, 0.5)])
                .collect();
            let step = seconds * config::LADDER_SHARE / config::LADDER.len() as f64;
            let ladder = config::LADDER
                .iter()
                .map(|&rate| Phase {
                    streams: vec![auth(rate)],
                    seconds: step,
                })
                .collect();
            (fixed, ladder)
        }
        Kind::Admin => {
            let block = Phase {
                streams: vec![
                    auth(config::LOW_RATE),
                    Stream {
                        class: METRICS,
                        rate: config::SCRAPE_RATE,
                    },
                    Stream {
                        class: TIMESERIES,
                        rate: config::SCRAPE_RATE,
                    },
                    Stream {
                        class: ENROLL,
                        rate: config::ENROLL_RATE,
                    },
                ],
                seconds: seconds / blocks,
            };
            (vec![block; config::BLOCKS], Vec::new())
        }
    }
}

fn warmup() -> Phase {
    Phase {
        streams: vec![Stream {
            class: AUTH,
            rate: config::LOW_RATE,
        }],
        seconds: config::WARMUP_SECONDS,
    }
}

/// How a ladder step went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// The server held the rate.
    Pass,
    /// Failed requests, or an auth median over the limit: a backlog
    /// that grows across the step.
    Fail,
    /// The generator fell behind its schedule on its own (its writes
    /// never blocked for long, so the server kept reading): the step
    /// says nothing about the server and the knee ignores it.
    Invalid,
}

/// One ladder step.
#[derive(Debug, Clone, Copy)]
struct Step {
    rate: f64,
    p50_ns: Option<u64>,
    p99_ns: Option<u64>,
    lag_p50_ns: Option<u64>,
    /// Answers per second of the step, schedule start to last answer.
    served: f64,
    /// Share of the step the server loops spent serving, percent.
    busy_pct: f64,
    verdict: Verdict,
}

fn judge_step(rate: f64, stats: &openloop::PhaseStats, busy_pct: f64) -> Step {
    let limit = config::LATENCY_LIMIT_US * 1000;
    let lat = Samples::new(stats.lat_ns[AUTH].clone());
    let p50 = lat.median();
    let lag_p50 = Samples::new(stats.lag_ns.clone()).median();
    let generator_late = lag_p50.is_none_or(|l| l > limit) && stats.write_max_ns < limit;
    let verdict = if stats.failed > 0 {
        Verdict::Fail
    } else if generator_late {
        Verdict::Invalid
    } else if p50.is_some_and(|p| p <= limit) {
        Verdict::Pass
    } else {
        Verdict::Fail
    };
    Step {
        rate,
        p50_ns: p50,
        p99_ns: lat.percentile(0.99),
        lag_p50_ns: lag_p50,
        served: stats.ok as f64 / stats.wall.as_secs_f64().max(1e-9),
        busy_pct,
        verdict,
    }
}

/// The knee: the cut through the valid steps of the ascending ladder
/// that misclassifies the fewest of them (failures below it plus passes
/// above it; ties go to the higher cut), so one noisy step does not
/// move it. Returns the highest valid step below the cut, refined by
/// interpolating log-median towards the valid step above when that one
/// has a median, and that step (`None` when no step passed).
fn sustained(steps: &[Step]) -> (f64, Option<Step>) {
    let valid: Vec<Step> = steps
        .iter()
        .filter(|s| s.verdict != Verdict::Invalid)
        .copied()
        .collect();
    let pass = |s: &Step| s.verdict == Verdict::Pass;
    let cost = |cut: usize| {
        valid[..cut].iter().filter(|s| !pass(s)).count()
            + valid[cut..].iter().filter(|s| pass(s)).count()
    };
    let Some(cut) = (0..=valid.len()).rev().min_by_key(|&c| cost(c)) else {
        return (0.0, None);
    };
    if cut == 0 {
        return (0.0, None);
    }
    let lo = valid[cut - 1];
    let Some(hi) = valid.get(cut) else {
        return (lo.rate, Some(lo));
    };
    let rate = match (lo.p50_ns, hi.p50_ns) {
        (Some(a), Some(b)) if b > a && a > 0 => {
            let limit = (config::LATENCY_LIMIT_US * 1000) as f64;
            let t = ((limit.ln() - (a as f64).ln()) / ((b as f64).ln() - (a as f64).ln()))
                .clamp(0.0, 1.0);
            lo.rate + t * (hi.rate - lo.rate)
        }
        _ => lo.rate,
    };
    (rate, Some(lo))
}

/// Busy and wall time of the server loops so far, ns.
fn loop_time(served: &Served) -> (u64, u64) {
    let snap = served.server.telemetry().snapshot();
    (
        snap.counter_total("server.worker.busy_ns"),
        snap.counter_total("server.worker.wall_ns"),
    )
}

/// Loop busy share between two [`loop_time`] readings, percent.
fn busy_between(before: (u64, u64), after: (u64, u64)) -> f64 {
    let busy = after.0.saturating_sub(before.0) as f64;
    let wall = after.1.saturating_sub(before.1) as f64;
    if wall > 0.0 {
        100.0 * busy / wall
    } else {
        0.0
    }
}

/// Runs a serving workload and fills `report`.
pub fn run(kind: Kind, args: &Args, report: &mut Report) -> std::io::Result<()> {
    let seconds = args.seconds as f64;
    let (fixed, ladder) = schedule(kind, seconds);
    let passes = if args.trace { 2 } else { 1 };
    let planned = |phases: &[Phase]| phases.iter().map(|p| p.planned(AUTH)).sum::<u64>();
    let planned_auth = warmup().planned(AUTH)
        + passes * planned(&fixed)
        + if args.trace { planned(&ladder) } else { 0 };

    // Set-up, repeated; the last one serves.
    let mut setups = Vec::new();
    let mut kept: Option<(Served, AuthSource)> = None;
    for rep in 0..config::SETUP_REPEATS {
        if let Some((served, _)) = kept.take() {
            shutdown(served);
        }
        let t0 = Instant::now();
        let fixture = Arc::new(Fixture::build(args.seed));
        let dir = match kind {
            Kind::Admin => Some(crate::scratch_dir(&format!("store-{rep}"))?),
            Kind::Steady => None,
        };
        let mut served = serve(kind, &fixture, planned_auth, dir.as_deref())?;
        let conns = served.dialed.streams.len();
        let mut source = AuthSource::new(fixture, kind.fleet_ids(), conns, args.seed);
        let warm = openloop::run(&served.dialed.streams, &[warmup()], &mut source, false)?;
        served.frames += warm.phases.iter().map(|p| p.sent).sum::<u64>();
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some((served, source));
    }
    let (mut served, mut source) = kept.take().expect("at least one set-up");
    report.setup(&setups);
    report.topology(&served.dialed);

    let mut lags = Vec::new();
    for pass in 0..passes {
        let traced = pass == 1;
        let first_attacker = source.next_fresh_attacker();
        // The traced pass reads the server's telemetry over exactly the
        // requests of its fixed phases.
        let before = served.server.telemetry().snapshot();
        let cpu_before = host::threads_cpu_ns(LOOP_THREAD);
        let stats = openloop::run(&served.dialed.streams, &fixed, &mut source, traced)?;
        let loop_cpu_ns = host::threads_cpu_ns(LOOP_THREAD).saturating_sub(cpu_before);
        served.frames += stats.phases.iter().map(|p| p.sent).sum::<u64>();
        let during = traced.then(|| {
            wait_for_requests(&served, served.frames);
            (before, served.server.telemetry().snapshot())
        });
        let mut steps = Vec::new();
        let mut ladder_stats = Vec::new();
        let mut fails_in_row = 0;
        // Only the traced pass climbs the ladder: the knee is a per-layer
        // figure.
        for phase in ladder.iter().filter(|_| traced) {
            if fails_in_row >= 3 {
                break;
            }
            let t0 = loop_time(&served);
            let mut s = openloop::run(
                &served.dialed.streams,
                std::slice::from_ref(phase),
                &mut source,
                traced,
            )?;
            served.frames += s.phases[0].sent;
            wait_for_requests(&served, served.frames);
            let step = judge_step(
                phase.offered(),
                &s.phases[0],
                busy_between(t0, loop_time(&served)),
            );
            // Memory use must not depend on how far the ladder climbed.
            s.phases
                .iter_mut()
                .for_each(openloop::PhaseStats::drop_samples);
            match step.verdict {
                Verdict::Pass => fails_in_row = 0,
                Verdict::Fail => fails_in_row += 1,
                Verdict::Invalid => {}
            }
            steps.push(step);
            ladder_stats.push(s);
        }
        let (mut e2e, lag) = summarize(
            kind,
            &stats,
            &ladder_stats,
            first_attacker..source.finished_attackers(),
            source.fixture(),
            report,
        );
        let ops: u64 = stats.phases.iter().map(|p| p.sent).sum();
        e2e.cpu_us_per_op = loop_cpu_ns as f64 / 1e3 / ops.max(1) as f64;
        lags.push(lag);
        if !steps.is_empty() {
            report.note(
                "ladder",
                steps
                    .iter()
                    .map(|s| {
                        format!(
                            "{:.0}/s served {:.0}/s p50 {} p99 {} us lag_p50 {} us busy {:.0}% {:?}",
                            s.rate,
                            s.served,
                            s.p50_ns.map_or(-1.0, |p| p as f64 / 1000.0),
                            s.p99_ns.map_or(-1.0, |p| p as f64 / 1000.0),
                            s.lag_p50_ns.map_or(-1.0, |p| p as f64 / 1000.0),
                            s.busy_pct,
                            s.verdict,
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("; "),
            );
            let (knee, at) = sustained(&steps);
            report.layer("server.sustained_ops_s", knee);
            report.layer("server.loop_busy_pct.knee", at.map_or(0.0, |s| s.busy_pct));
        }
        if let Some((before, after)) = during {
            report.traced_e2e(e2e);
            layers::serving(report, &stats, &before, &after);
        } else {
            report.e2e(e2e);
        }
    }
    report.note("gen_lag_p99_us", format!("{:?}", lags));
    let requests = wait_for_requests(&served, served.frames);
    report.gate(
        "server.requests equals client ops",
        requests == served.frames,
        format!("server {requests}, client {}", served.frames),
    );
    if args.trace {
        layers::replays(report, kind, &served, &source)?;
    }
    shutdown(served);
    Ok(())
}

fn wait_for_requests(served: &Served, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let got = served
            .server
            .telemetry()
            .snapshot()
            .counter_total("server.requests");
        if got >= want || Instant::now() > deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn shutdown(served: Served) {
    drop(served.dialed);
    served.server.shutdown();
    if let Some(dir) = served.store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn us(ns: Option<u64>) -> Option<f64> {
    ns.map(|v| v as f64 / 1000.0)
}

/// End-to-end figures of one pass, plus the generator lag p99 (µs) of
/// its fixed-rate phases; records the pass's gates.
fn summarize(
    kind: Kind,
    stats: &RunStats,
    ladder: &[RunStats],
    attackers: std::ops::Range<u32>,
    source_fixture: &Fixture,
    report: &mut Report,
) -> (E2e, Option<f64>) {
    let phases = &stats.phases;
    let all: Vec<&openloop::PhaseStats> = phases
        .iter()
        .chain(ladder.iter().flat_map(|s| &s.phases))
        .collect();
    let attempted: u64 = all.iter().map(|p| p.sent).sum();
    let failed: u64 = all.iter().map(|p| p.failed).sum();
    fn auth(p: &openloop::PhaseStats) -> &[u64] {
        &p.lat_ns[AUTH]
    }
    let whole = |blocks: &[&openloop::PhaseStats], classes: &[usize]| {
        Samples::new(
            blocks
                .iter()
                .flat_map(|p| classes.iter().flat_map(|&c| p.lat_ns[c].iter().copied()))
                .collect(),
        )
    };
    let blocks: Vec<&openloop::PhaseStats> = phases.iter().collect();
    let ok: u64 = phases.iter().map(|p| p.ok).sum();
    let secs: f64 = phases.iter().map(|p| p.wall.as_secs_f64()).sum();
    let work = ok as f64 / secs.max(1e-9);
    let (lat_p50, side_p50, lat_p99, side_p99) = match kind {
        Kind::Steady => {
            // The blocks alternate `low`, `high`.
            let low: Vec<_> = blocks.iter().copied().step_by(2).collect();
            let high: Vec<_> = blocks.iter().copied().skip(1).step_by(2).collect();
            (
                block_percentile(high.iter().map(|p| auth(p)), 0.5),
                block_percentile(low.iter().map(|p| auth(p)), 0.5),
                whole(&high, &[AUTH]).percentile(0.99),
                whole(&low, &[AUTH]).percentile(0.99),
            )
        }
        Kind::Admin => (
            block_percentile(blocks.iter().map(|p| auth(p)), 0.5),
            whole(&blocks, &[METRICS]).median(),
            whole(&blocks, &[AUTH]).percentile(0.99),
            whole(&blocks, &[METRICS, TIMESERIES, ENROLL]).percentile(0.99),
        ),
    };
    let lag = Samples::new(
        phases
            .iter()
            .flat_map(|p| p.lag_ns.iter().copied())
            .collect(),
    );

    let mut first_flag = stats.first_flag.clone();
    for s in ladder {
        for (a, i) in &s.first_flag {
            first_flag.entry(*a).or_insert(*i);
        }
    }
    // Only trajectories replayed whole inside this pass count.
    let finished = attackers.len();
    let unflagged = attackers
        .clone()
        .filter(|a| !first_flag.contains_key(a))
        .count();
    let flags: Vec<f64> = attackers
        .filter_map(|a| first_flag.get(&a))
        .map(|&v| f64::from(v))
        .collect();
    let queries_to_flag = flags.iter().sum::<f64>() / flags.len().max(1) as f64;
    let benign_failed: u64 = all.iter().map(|p| p.failed_benign).sum();
    report.gate(
        "every attacker id flagged before its trajectory ended",
        unflagged == 0 && finished > 0,
        format!("{finished} trajectories finished, {unflagged} unflagged"),
    );
    report.gate(
        "every benign auth accepted",
        benign_failed == 0,
        format!("{benign_failed} benign auths not accepted"),
    );
    let e2e = E2e {
        lat_p50_us: us(lat_p50),
        side_p50_us: us(side_p50),
        lat_p99_us: us(lat_p99),
        side_p99_us: us(side_p99),
        work_per_s: work,
        // Set by the caller, which measured the server's CPU time.
        cpu_us_per_op: 0.0,
        queries_per_key: source_fixture.queries_per_key(),
        queries_to_flag,
        attempted,
        failed,
    };
    (e2e, us(lag.percentile(0.99)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(rate: f64, p50_us: u64, verdict: Verdict) -> Step {
        Step {
            rate,
            p50_ns: Some(p50_us * 1000),
            p99_ns: Some(p50_us * 4000),
            lag_p50_ns: Some(10_000),
            served: rate,
            busy_pct: rate / 1000.0,
            verdict,
        }
    }

    use Verdict::{Fail, Invalid, Pass};

    #[test]
    fn sustained_rate_ignores_one_noisy_step() {
        // A spurious failure below the knee does not move it...
        let steps = [
            step(20_000.0, 100, Pass),
            step(30_000.0, 1_500, Fail),
            step(40_000.0, 300, Pass),
            step(50_000.0, 500, Pass),
            step(60_000.0, 2_000, Fail),
            step(70_000.0, 5_000, Fail),
            step(80_000.0, 9_000, Fail),
        ];
        // ...and log-interpolation puts 1 ms halfway from 0.5 to 2 ms.
        let (rate, knee) = sustained(&steps);
        assert!((rate - 55_000.0).abs() < 1.0);
        assert_eq!(knee.map(|s| s.busy_pct), Some(50.0));
        // Nor does a lucky pass above it.
        let steps = [
            step(20_000.0, 100, Pass),
            step(30_000.0, 200, Pass),
            step(40_000.0, 400, Pass),
            step(50_000.0, 1_600, Fail),
            step(60_000.0, 3_000, Fail),
            step(70_000.0, 800, Pass),
            step(80_000.0, 9_000, Fail),
        ];
        let r = sustained(&steps).0;
        assert!((40_000.0..50_000.0).contains(&r), "{r}");
        assert_eq!(sustained(&[step(20_000.0, 2_000, Fail)]).0, 0.0);
        assert_eq!(sustained(&[step(20_000.0, 200, Pass)]).0, 20_000.0);
    }

    #[test]
    fn steps_where_the_generator_fell_behind_do_not_count() {
        // Invalid steps neither pass nor fail: the knee comes from the
        // valid steps around them.
        let steps = [
            step(20_000.0, 100, Pass),
            step(30_000.0, 3_000, Invalid),
            step(40_000.0, 3_000, Invalid),
            step(50_000.0, 500, Pass),
            step(60_000.0, 2_000, Fail),
        ];
        assert!((sustained(&steps).0 - 55_000.0).abs() < 1.0);
        assert_eq!(sustained(&[step(20_000.0, 3_000, Invalid)]).0, 0.0);
    }

    fn phase(lat_us: &[u64], lag_us: u64, write_max_us: u64) -> openloop::PhaseStats {
        let n = lat_us.len() as u64;
        let mut p = openloop::PhaseStats::default();
        p.lat_ns[AUTH] = lat_us.iter().map(|l| l * 1000).collect();
        p.lag_ns = vec![lag_us * 1000; lat_us.len()];
        p.write_max_ns = write_max_us * 1000;
        p.sent = n;
        p.ok = n;
        p
    }

    #[test]
    fn judge_step_tells_generator_lag_from_server_backpressure() {
        let fast = vec![100; 2000];
        assert_eq!(judge_step(1.0, &phase(&fast, 20, 50), 40.0).verdict, Pass);
        let slow = vec![5_000; 2000];
        // Late sends whose writes never blocked: the generator's fault.
        assert_eq!(
            judge_step(1.0, &phase(&slow, 4_000, 50), 40.0).verdict,
            Invalid
        );
        // Late sends behind blocked writes: the server stopped reading.
        assert_eq!(
            judge_step(1.0, &phase(&slow, 4_000, 3_000), 99.0).verdict,
            Fail
        );
        // On schedule but slow answers.
        assert_eq!(judge_step(1.0, &phase(&slow, 20, 50), 99.0).verdict, Fail);
        // A failed request fails the step whatever else happened.
        let mut failed = phase(&fast, 4_000, 50);
        failed.failed = 1;
        assert_eq!(judge_step(1.0, &failed, 40.0).verdict, Fail);
    }
}
