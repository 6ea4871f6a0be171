//! The `attack-campaign` workload: `Campaign::run` for each of the four
//! attack kinds, round after round until the time is up. The rounds
//! cycle through [`config::CAMPAIGN_FLEETS`] fixed fleets per kind, and
//! every round must reproduce the first round of its fleet bit for bit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ropuf_attacks::lisa::AttackError;
use ropuf_campaign::{AttackKind, Campaign, CampaignReport, FleetSpec};
use ropuf_numeric::splitmix64;
use ropuf_verifier::DetectorConfig;

use crate::layers::{self, Driven};
use crate::report::{E2e, Report};
use crate::stats::Samples;
use crate::{config, host, Args};

/// The campaigns of fleet number `fleet`, one per attack kind.
fn campaigns(seed: u64, fleet: usize, devices: Option<usize>) -> Vec<Campaign> {
    let fleet_seed = splitmix64(seed ^ ((fleet as u64) << 32));
    config::campaign_kinds()
        .into_iter()
        .enumerate()
        .map(|(i, (attack, dims, n))| Campaign {
            attack,
            fleet: FleetSpec {
                dims,
                devices: devices.unwrap_or(n),
                master_seed: splitmix64(fleet_seed ^ (i as u64 + 1)),
            },
            threads: config::connections(),
            early_exit: false,
            detector: Some(DetectorConfig::default()),
        })
        .collect()
}

/// Outcome of one round: every kind's report.
type Round = Vec<CampaignReport>;

/// A device that does not meet the attack's preconditions: the
/// cooperative attack finds no cooperating pairs on it, or the device
/// fails even with its genuine helper data, so there is no reference
/// behavior to attack. No key to recover, and no wrong answer either.
fn not_attackable(run: &ropuf_campaign::DeviceRun) -> bool {
    let unmet = [
        AttackError::InsufficientTargets { got: 0 }.to_string(),
        AttackError::NoReference.to_string(),
    ];
    let Some(error) = run
        .error
        .as_deref()
        .and_then(|e| e.strip_prefix("attack: "))
    else {
        return false;
    };
    unmet
        .iter()
        .any(|u| error.starts_with(u.split(" (").next().unwrap_or_default()))
}

/// A device whose provisioning or attack errored, or whose recovered
/// key is wrong. A cooperative device with unresolved relations is a
/// completed attack that learned less, not a failure.
fn failed(run: &ropuf_campaign::DeviceRun) -> bool {
    (run.error.is_some() && !not_attackable(run)) || run.hamming_distance.is_some_and(|d| d > 0)
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) -> std::io::Result<()> {
    let mut setups = Vec::new();
    let mut plans = Vec::new();
    for _ in 0..config::SETUP_REPEATS {
        let t0 = Instant::now();
        plans = (0..config::CAMPAIGN_FLEETS)
            .map(|f| campaigns(args.seed, f, None))
            .collect();
        // Warm-up: a small prefix of the first fleet.
        for c in campaigns(args.seed, 0, Some(config::WARMUP_DEVICES)) {
            std::hint::black_box(c.run());
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    report.setup(&setups);
    report.note("threads", config::connections().to_string());

    let cpu_before = host::process_cpu_ns();
    let rounds = measure(&plans, args.seconds as f64);
    let cpu_ns = host::process_cpu_ns().saturating_sub(cpu_before);
    let references: Vec<String> = rounds[..plans.len()]
        .iter()
        .map(|round| round.iter().map(|r| r.to_json(false)).collect())
        .collect();
    let stable = rounds.iter().enumerate().all(|(i, round)| {
        round.iter().map(|r| r.to_json(false)).collect::<String>() == references[i % plans.len()]
    });
    report.gate(
        "CampaignReport::to_json(false) identical across rounds of a fleet",
        stable && rounds.len() > plans.len(),
        format!("{} rounds over {} fleets", rounds.len(), plans.len()),
    );
    report.note(
        "report_digest",
        format!("{:016x}", digest(&references.concat())),
    );
    report.note("rounds", rounds.len().to_string());
    let first_cycle = &rounds[..plans.len()];
    let failures: Vec<String> = first_cycle
        .iter()
        .flatten()
        .flat_map(|r| {
            r.runs
                .iter()
                .filter(|d| failed(d))
                .map(move |d| (r.attack.clone(), d))
        })
        .map(|(kind, d)| {
            format!(
                "{kind}#{}: {}",
                d.device_id,
                d.error
                    .clone()
                    .unwrap_or_else(|| format!("{:?} key bits wrong", d.hamming_distance))
            )
        })
        .collect();
    report.note("failed_devices_per_cycle", failures.join("; "));
    let skipped = first_cycle
        .iter()
        .flatten()
        .flat_map(|r| &r.runs)
        .filter(|d| not_attackable(d))
        .count();
    report.note("not_attackable_devices_per_cycle", skipped.to_string());
    let mut e2e = summarize(&rounds, plans.len());
    let devices = rounds.iter().flatten().map(|r| r.runs.len()).sum::<usize>();
    e2e.cpu_us_per_op = cpu_ns as f64 / 1e3 / devices.max(1) as f64;
    report.gate(
        "at least one key recovered",
        e2e.work_per_s > 0.0,
        format!("{:.1} keys/s", e2e.work_per_s),
    );

    if args.trace {
        campaign_layers(report, &rounds);
        let traced = drive_rounds(report, &plans, first_cycle, args.seconds as f64);
        report.traced_e2e(traced);
    }
    report.e2e(e2e);
    Ok(())
}

/// Runs the fleets in turn until `seconds` are up, and at least until
/// every fleet ran and one ran twice.
fn measure(plans: &[Vec<Campaign>], seconds: f64) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() <= plans.len() || start.elapsed().as_secs_f64() < seconds {
        let plan = &plans[rounds.len() % plans.len()];
        rounds.push(plan.iter().map(Campaign::run).collect());
    }
    rounds
}

fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// End-to-end figures: timings over every round, the deterministic
/// query counts over the first round of each fleet.
fn summarize(rounds: &[Round], fleets: usize) -> E2e {
    let runs = || rounds.iter().flatten().flat_map(|r| &r.runs);
    let cycle = || rounds[..fleets].iter().flatten().flat_map(|r| &r.runs);
    let wall_s: f64 = rounds.iter().flatten().map(|r| r.total_wall_ms / 1e3).sum();
    let keys = runs().filter(|r| r.success).count() as u64;
    let cycle_keys = cycle().filter(|r| r.success).count() as u64;
    let key_queries: u64 = cycle().filter(|r| r.success).map(|r| r.queries).sum();
    let flags: Vec<u64> = cycle().filter_map(|r| r.flagged_at_query).collect();
    let device_us = |keep: &dyn Fn(&CampaignReport) -> bool| -> Samples {
        Samples::new(
            rounds
                .iter()
                .flatten()
                .filter(|r| keep(r))
                .flat_map(|r| &r.runs)
                .map(|r| (r.wall_ms * 1e3) as u64)
                .collect(),
        )
    };
    let all = device_us(&|_| true);
    let side = device_us(&|r| r.attack == config::SIDE_KIND);
    E2e {
        lat_p50_us: all.median().map(|v| v as f64),
        side_p50_us: side.median().map(|v| v as f64),
        lat_p99_us: all.percentile(0.99).map(|v| v as f64),
        side_p99_us: side.percentile(0.99).map(|v| v as f64),
        work_per_s: keys as f64 / wall_s.max(1e-9),
        // Set by the caller, which measured the process's CPU time.
        cpu_us_per_op: 0.0,
        queries_per_key: key_queries as f64 / cycle_keys.max(1) as f64,
        queries_to_flag: flags.iter().sum::<u64>() as f64 / flags.len().max(1) as f64,
        attempted: runs().filter(|r| !not_attackable(r)).count() as u64,
        failed: runs().filter(|r| failed(r)).count() as u64,
    }
}

/// Per-kind device times, worker idleness and query throughput of the
/// untraced rounds.
fn campaign_layers(report: &mut Report, rounds: &[Round]) {
    let mut busy_ms = 0.0;
    let mut capacity_ms = 0.0;
    let mut queries = 0u64;
    let mut wall_ms = 0.0;
    for r in rounds.iter().flatten() {
        busy_ms += r.runs.iter().map(|d| d.wall_ms).sum::<f64>();
        capacity_ms += r.total_wall_ms * r.threads as f64;
        queries += r.total_queries();
        wall_ms += r.total_wall_ms;
    }
    for kind in config::KINDS {
        let times = Samples::new(
            rounds
                .iter()
                .flatten()
                .filter(|r| r.attack == kind)
                .flat_map(|r| &r.runs)
                .map(|d| (d.wall_ms * 1e3) as u64)
                .collect(),
        );
        report.layer(
            &format!("campaign.device_ms.p50.{kind}"),
            times.median().unwrap_or(0) as f64 / 1e3,
        );
        report.layer(
            &format!("campaign.device_ms.max.{kind}"),
            times.max() as f64 / 1e3,
        );
    }
    report.layer(
        "campaign.worker_idle_pct",
        if capacity_ms > 0.0 {
            100.0 * (1.0 - busy_ms / capacity_ms)
        } else {
            0.0
        },
    );
    report.layer(
        "campaign.oracle_queries_per_s",
        queries as f64 / (wall_ms / 1e3).max(1e-9),
    );
}

/// The traced pass: drives the fleets' devices outside the engine, in
/// the same turn as the untraced rounds, with a timing monitor for
/// `seconds`, checks the runner's query counts against the engine's,
/// and fills the device-side layers.
fn drive_rounds(
    report: &mut Report,
    plans: &[Vec<Campaign>],
    references: &[Round],
    seconds: f64,
) -> E2e {
    let start = Instant::now();
    let mut device_us = Vec::new();
    let mut side_us = Vec::new();
    let mut keys = 0u64;
    let mut key_queries = 0u64;
    let mut mismatched = 0usize;
    let mut by_kind: Vec<Vec<Driven>> = vec![Vec::new(); plans[0].len()];
    let mut rounds = 0;
    while rounds < plans.len() || start.elapsed().as_secs_f64() < seconds {
        let (plan, reference) = (
            &plans[rounds % plans.len()],
            &references[rounds % plans.len()],
        );
        rounds += 1;
        for ((campaign, want), acc) in plan.iter().zip(reference).zip(&mut by_kind) {
            let driven = drive_parallel(&campaign.attack, &campaign.fleet, campaign.threads);
            for (d, run) in driven.iter().zip(&want.runs) {
                match d {
                    Some(d) => {
                        mismatched += usize::from(d.queries != run.queries);
                        device_us.push(d.device_ns / 1000);
                        if campaign.attack.name() == config::SIDE_KIND {
                            side_us.push(d.device_ns / 1000);
                        }
                        if d.success {
                            keys += 1;
                            key_queries += d.queries;
                        }
                    }
                    None => mismatched += usize::from(run.error.is_none()),
                }
            }
            acc.extend(driven.into_iter().flatten());
        }
    }
    let wall = start.elapsed().as_secs_f64();
    report.gate(
        "device-side runner query counts equal the campaign's",
        mismatched == 0,
        format!("{mismatched} devices differ over {rounds} rounds"),
    );
    let mut measured = Vec::new();
    for (campaign, driven) in plans[0].iter().zip(&by_kind) {
        layers::record_driven(report, campaign.attack.name(), driven);
        if let Ok(device) = campaign
            .fleet
            .provision_device(0, campaign.attack.scheme().as_ref())
        {
            measured.push((
                campaign.attack.name(),
                campaign.fleet.dims,
                device,
                ecc_t(&campaign.attack),
            ));
        }
    }
    layers::device_layers(report, measured);
    let device_us = Samples::new(device_us);
    let side_us = Samples::new(side_us);
    E2e {
        lat_p50_us: device_us.median().map(|v| v as f64),
        side_p50_us: side_us.median().map(|v| v as f64),
        lat_p99_us: device_us.percentile(0.99).map(|v| v as f64),
        side_p99_us: side_us.percentile(0.99).map(|v| v as f64),
        work_per_s: keys as f64 / wall.max(1e-9),
        queries_per_key: key_queries as f64 / keys.max(1) as f64,
        ..E2e::default()
    }
}

fn ecc_t(kind: &AttackKind) -> usize {
    match kind {
        AttackKind::Lisa(c) => c.ecc_t,
        AttackKind::Cooperative(c) => c.ecc_t,
        AttackKind::GroupBased(c) => c.ecc_t,
        AttackKind::DistillerPairing(c) => c.ecc_t,
    }
}

/// Drives every device of `fleet` on `threads` workers, results in
/// device order.
fn drive_parallel(kind: &AttackKind, fleet: &FleetSpec, threads: usize) -> Vec<Option<Driven>> {
    let cursor = AtomicUsize::new(0);
    let out = Mutex::new(vec![None; fleet.devices]);
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let id = cursor.fetch_add(1, Ordering::Relaxed);
                if id >= fleet.devices {
                    break;
                }
                let d = layers::drive(kind, fleet, id);
                out.lock().expect("runner results lock poisoned")[id] = d;
            });
        }
    });
    out.into_inner().expect("runner results lock poisoned")
}
