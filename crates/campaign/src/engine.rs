//! The parallel campaign executor.
//!
//! A [`Campaign`] runs one attack against every device of a fleet on a
//! small work-stealing pool of `std::thread` workers: a shared atomic
//! cursor hands out device ids, each worker provisions "its" device from
//! the device's own seeds, captures it behind an
//! [`Oracle`] and runs the attack, so the only
//! nondeterminism (scheduling) cannot leak into results.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ropuf_attacks::Oracle;
use ropuf_telemetry::{Registry as TelemetryRegistry, TimerHistogram};
use ropuf_verifier::{DetectorConfig, FlagReason};

use crate::attack::AttackKind;
use crate::fleet::FleetSpec;
use crate::monitor::DetectorMonitor;
use crate::report::CampaignReport;

/// Structured result of one device's attack run.
///
/// Kept small (at most 88 bytes, no heap use unless the run errored),
/// since a long benchmark holds one per device it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRun {
    /// Index of the device within the fleet.
    pub device_id: u32,
    /// The attacker-side RNG seed used (derived, recorded for replay).
    pub attack_seed: u64,
    /// Whether the attack met its success criterion: exact key recovery
    /// for key-recovery attacks, all relations resolved for the
    /// cooperative attack.
    pub success: bool,
    /// Oracle queries the attack spent on this device.
    pub queries: u64,
    /// Length of the device's enrolled key in bits (0 when enrollment
    /// itself failed).
    pub key_bits: u16,
    /// Hamming distance between recovered and enrolled key
    /// (key-recovery attacks only).
    pub hamming_distance: Option<u16>,
    /// `(resolved, total)` relations (cooperative attack only).
    pub relations: Option<(u16, u16)>,
    /// Largest simultaneous hypothesis set tested (distiller-pairing
    /// attack only).
    pub max_hypotheses: Option<u16>,
    /// 1-based oracle query index at which the defender-side detector
    /// first flagged this device (`None`: never flagged, or the
    /// campaign ran without a detector). *Queries-before-flag* /
    /// *time-to-detection* in the closed-loop scenarios.
    pub flagged_at_query: Option<u64>,
    /// Which detector signal fired first.
    pub flag_reason: Option<FlagReason>,
    /// Enrollment or attack error, if the run never produced an outcome.
    pub error: Option<String>,
    /// Wall-clock time of this device's provision + attack, in
    /// milliseconds. Excluded from deterministic serialization.
    pub wall_ms: f64,
}

/// A full campaign: attack × fleet × execution policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Campaign {
    /// Which attack to run (and so which scheme devices carry).
    pub attack: AttackKind,
    /// The device fleet to sweep over.
    pub fleet: FleetSpec,
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Enable decided-vote early exit where the attack supports it.
    pub early_exit: bool,
    /// Attach a defender-side detector to every device's oracle
    /// ([`DetectorMonitor`]), so runs report queries-before-flag.
    /// Monitoring is passive: attack trajectories and the determinism
    /// contract are unchanged.
    pub detector: Option<DetectorConfig>,
}

impl Campaign {
    /// Number of worker threads `run` will actually use.
    pub fn effective_threads(&self) -> usize {
        let hw = thread::available_parallelism().map_or(1, |n| n.get());
        let requested = if self.threads == 0 { hw } else { self.threads };
        requested.max(1).min(self.fleet.devices.max(1))
    }

    /// Runs the campaign to completion and aggregates a report.
    ///
    /// Results are ordered by device id and — apart from the wall-clock
    /// fields — independent of the thread count (see the crate-level
    /// determinism contract).
    pub fn run(&self) -> CampaignReport {
        self.run_inner(None)
    }

    /// [`Campaign::run`], additionally feeding fleet-level telemetry
    /// into `telemetry`: a `campaign.flag_latency_queries{attack=…}`
    /// histogram holding the queries-before-flag distribution across
    /// every monitored device (empty when [`Campaign::detector`] is
    /// `None` or nothing flags). Telemetry is passive — the report is
    /// identical to [`Campaign::run`]'s.
    pub fn run_with_telemetry(&self, telemetry: &TelemetryRegistry) -> CampaignReport {
        let flag_latency = telemetry.histogram(
            "campaign.flag_latency_queries",
            &[("attack", self.attack.name())],
        );
        self.run_inner(Some(&flag_latency))
    }

    fn run_inner(&self, flag_latency: Option<&TimerHistogram>) -> CampaignReport {
        let started = Instant::now();
        let n = self.fleet.devices;
        let workers = self.effective_threads();
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<DeviceRun>();

        thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let cursor = &cursor;
                scope.spawn(move || loop {
                    let id = cursor.fetch_add(1, Ordering::Relaxed);
                    if id >= n {
                        break;
                    }
                    if tx.send(self.run_device_inner(id, flag_latency)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
        });

        let mut runs: Vec<DeviceRun> = rx.into_iter().collect();
        runs.sort_by_key(|r| r.device_id);

        CampaignReport {
            attack: self.attack.name().to_string(),
            dims: self.fleet.dims,
            devices: n,
            master_seed: self.fleet.master_seed,
            early_exit: self.early_exit,
            detector: self.detector,
            threads: workers,
            total_wall_ms: started.elapsed().as_secs_f64() * 1e3,
            runs,
        }
    }

    /// Provision-and-attack for a single device (what each worker runs).
    pub fn run_device(&self, device_id: usize) -> DeviceRun {
        self.run_device_inner(device_id, None)
    }

    fn run_device_inner(
        &self,
        device_id: usize,
        flag_latency: Option<&TimerHistogram>,
    ) -> DeviceRun {
        let t0 = Instant::now();
        let seeds = self.fleet.seeds(device_id);
        let scheme = self.attack.scheme();

        let mut run = DeviceRun {
            device_id: narrow(device_id),
            attack_seed: seeds.attack,
            success: false,
            queries: 0,
            key_bits: 0,
            hamming_distance: None,
            relations: None,
            max_hypotheses: None,
            flagged_at_query: None,
            flag_reason: None,
            error: None,
            wall_ms: 0.0,
        };

        match self.fleet.provision_device(device_id, scheme.as_ref()) {
            Err(e) => run.error = Some(format!("enroll: {e}")),
            Ok(mut device) => {
                let truth = device.enrolled_key().clone();
                run.key_bits = narrow(truth.len());
                let mut rng = StdRng::seed_from_u64(seeds.attack);
                let mut oracle = Oracle::new(&mut device);
                if let Some(config) = self.detector {
                    let expected = oracle.expected_response(&truth);
                    let mut monitor = DetectorMonitor::new(
                        config,
                        self.attack.wire_tag(),
                        oracle.original_helper(),
                        expected,
                    );
                    if let Some(hist) = flag_latency {
                        monitor = monitor.with_flag_latency(hist.clone());
                    }
                    oracle.attach_monitor(Box::new(monitor));
                }
                match self.attack.execute(&mut oracle, &mut rng, self.early_exit) {
                    Err(e) => run.error = Some(format!("attack: {e}")),
                    Ok(outcome) => {
                        run.queries = outcome.queries;
                        run.relations = outcome.relations.map(|(r, t)| (narrow(r), narrow(t)));
                        run.max_hypotheses = outcome.max_hypotheses.map(narrow);
                        if let Some(key) = &outcome.recovered_key {
                            let distance = if key.len() == truth.len() {
                                key.xor(&truth).count_ones()
                            } else {
                                truth.len()
                            };
                            run.hamming_distance = Some(narrow(distance));
                            run.success = distance == 0;
                        } else if let Some((resolved, total)) = outcome.relations {
                            run.success = resolved == total && total > 0;
                        }
                    }
                }
                run.flagged_at_query = oracle.first_flagged();
                run.flag_reason = oracle
                    .monitor()
                    .and_then(|m| m.flag_reason())
                    .and_then(FlagReason::from_label);
            }
        }
        run.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        run
    }
}

/// A device index, key length, bit count or hypothesis count as stored
/// in a [`DeviceRun`]. Fleets stay far below 2^32 devices; key lengths
/// and relation counts are a few hundred bits on the paper's arrays, and
/// every hypothesis costs oracle queries, so all fit in `u16`.
fn narrow<T: TryFrom<usize>>(count: usize) -> T {
    T::try_from(count)
        .ok()
        .expect("device ids fit in u32 and per-device counts in u16")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropuf_constructions::pairing::lisa::LisaConfig;
    use ropuf_sim::ArrayDims;

    fn small_campaign(threads: usize) -> Campaign {
        Campaign {
            attack: AttackKind::Lisa(LisaConfig::default()),
            fleet: FleetSpec {
                dims: ArrayDims::new(16, 8),
                devices: 6,
                master_seed: 11,
            },
            threads,
            early_exit: false,
            detector: None,
        }
    }

    #[test]
    fn lisa_campaign_succeeds_on_small_fleet() {
        let report = small_campaign(2).run();
        assert_eq!(report.runs.len(), 6);
        for run in &report.runs {
            assert!(
                run.error.is_none(),
                "device {}: {:?}",
                run.device_id,
                run.error
            );
            assert!(run.success, "device {} failed", run.device_id);
            assert_eq!(run.hamming_distance, Some(0));
            assert!(run.queries > 0);
        }
        assert_eq!(report.succeeded(), 6);
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let serial = small_campaign(1).run();
        let parallel = small_campaign(4).run();
        for (a, b) in serial.runs.iter().zip(&parallel.runs) {
            assert_eq!(a.device_id, b.device_id);
            assert_eq!(a.success, b.success);
            assert_eq!(a.queries, b.queries);
            assert_eq!(a.hamming_distance, b.hamming_distance);
            assert_eq!(a.attack_seed, b.attack_seed);
        }
    }

    #[test]
    fn detector_reports_flags_without_perturbing_the_attack() {
        let plain = small_campaign(2).run();
        let mut monitored = small_campaign(2);
        monitored.detector = Some(ropuf_verifier::DetectorConfig::default());
        let monitored = monitored.run();

        for (a, b) in plain.runs.iter().zip(&monitored.runs) {
            // Passive monitoring: identical attack trajectory...
            assert_eq!(a.success, b.success);
            assert_eq!(a.queries, b.queries);
            assert_eq!(a.hamming_distance, b.hamming_distance);
            assert_eq!(a.flagged_at_query, None, "no detector, no flags");
            // ...but the monitored run knows when the defender caught it,
            // long before the attack finished.
            let flagged_at = b.flagged_at_query.expect("attack must be flagged");
            assert!(
                flagged_at < b.queries,
                "device {}: flagged at {} of {} queries",
                b.device_id,
                flagged_at,
                b.queries
            );
            assert!(b.flag_reason.is_some());
        }
    }

    #[test]
    fn telemetry_collects_flag_latency_without_changing_the_report() {
        let mut monitored = small_campaign(2);
        monitored.detector = Some(ropuf_verifier::DetectorConfig::default());
        let registry = ropuf_telemetry::Registry::new();
        let with = monitored.run_with_telemetry(&registry);
        let without = monitored.run();
        for (a, b) in with.runs.iter().zip(&without.runs) {
            // Telemetry is passive: same trajectory, same flags.
            assert_eq!(a.queries, b.queries);
            assert_eq!(a.flagged_at_query, b.flagged_at_query);
        }
        // One flag-latency sample per flagged device, and the recorded
        // values are the per-device queries-before-flag indices.
        let snapshot = registry.snapshot();
        let flagged = with
            .runs
            .iter()
            .filter(|r| r.flagged_at_query.is_some())
            .count() as u64;
        assert!(flagged > 0, "default LISA campaign must flag");
        assert_eq!(
            snapshot.histogram_samples("campaign.flag_latency_queries"),
            flagged
        );
    }

    #[test]
    fn device_run_stays_small() {
        assert!(
            std::mem::size_of::<DeviceRun>() <= 88,
            "{} bytes",
            std::mem::size_of::<DeviceRun>()
        );
    }

    #[test]
    fn effective_threads_is_bounded_by_fleet() {
        let mut c = small_campaign(64);
        assert!(c.effective_threads() <= 6);
        c.threads = 1;
        assert_eq!(c.effective_threads(), 1);
    }
}
