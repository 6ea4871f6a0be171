//! The attacker's interface to a device.
//!
//! An [`Oracle`] wraps a [`Device`] and restricts the attacker to the
//! paper's capabilities: read the original helper data once, write
//! arbitrary helper bytes, query the application at a chosen operating
//! point, and observe the response. It also counts queries, the attack's
//! cost metric.

use ropuf_constructions::{Device, DeviceResponse};
use ropuf_sim::Environment;

/// One failure-rate probe in a batch: a helper blob plus the response
/// that counts as *success* for it.
///
/// Probes are the unit of the batched oracle API
/// ([`Oracle::probe_failures`]): the helper bytes are written to device
/// NVM **once** per probe and then queried repeatedly, instead of being
/// re-encoded and rewritten on every trial as the scalar
/// [`Oracle::query`] path does.
#[derive(Debug, Clone, Copy)]
pub struct Probe<'a> {
    /// Manipulated helper bytes to install for this probe.
    pub helper: &'a [u8],
    /// The response that counts as success (anything else is a failure).
    pub expected: &'a DeviceResponse,
}

/// Defender-side observer of oracle traffic.
///
/// The paper's §VII countermeasure discussion assumes the defender sees
/// exactly what the attacker sends: the helper bytes presented for a
/// query and the key-dependent response that came back. A monitor
/// attached to an [`Oracle`] receives every query through
/// [`TrafficMonitor::observe`] and answers whether *this* query tripped
/// an online attack detector; the oracle records the first flagged
/// query index ([`Oracle::first_flagged`]) so closed-loop campaigns can
/// report time-to-detection next to attack success.
///
/// Monitoring is strictly passive: responses are never altered, so
/// attack trajectories (and campaign determinism) are unchanged.
pub trait TrafficMonitor: std::fmt::Debug {
    /// Observes one query (the helper installed for it and the response
    /// it produced); returns `true` when the detector flags it.
    fn observe(&mut self, helper: &[u8], response: &DeviceResponse) -> bool;

    /// Short label of the reason for the monitor's (first) flag, once
    /// flagged.
    fn flag_reason(&self) -> Option<&'static str> {
        None
    }
}

/// Attacker-side device handle.
///
/// The fixed nonce means the application output is deterministic given
/// the reconstructed key, so "behavior changed" reduces to "tag changed".
#[derive(Debug)]
pub struct Oracle<'a> {
    device: &'a mut Device,
    original_helper: Vec<u8>,
    nonce: Vec<u8>,
    queries: u64,
    monitor: Option<Box<dyn TrafficMonitor + 'a>>,
    first_flagged: Option<u64>,
}

impl<'a> Oracle<'a> {
    /// Captures the device, reading (and keeping a copy of) its helper
    /// NVM.
    pub fn new(device: &'a mut Device) -> Self {
        let original_helper = device.helper().to_vec();
        Self {
            device,
            original_helper,
            nonce: b"attack-nonce".to_vec(),
            queries: 0,
            monitor: None,
            first_flagged: None,
        }
    }

    /// Attaches a defender-side [`TrafficMonitor`] that observes every
    /// subsequent query. Replaces any previously attached monitor (and
    /// resets the recorded first flag).
    pub fn attach_monitor(&mut self, monitor: Box<dyn TrafficMonitor + 'a>) {
        self.monitor = Some(monitor);
        self.first_flagged = None;
    }

    /// The attached monitor, for post-run inspection.
    pub fn monitor(&self) -> Option<&(dyn TrafficMonitor + 'a)> {
        self.monitor.as_deref()
    }

    /// 1-based index of the first query the attached monitor flagged
    /// (`None`: never flagged, or no monitor attached).
    pub fn first_flagged(&self) -> Option<u64> {
        self.first_flagged
    }

    /// The helper bytes as found on the device.
    pub fn original_helper(&self) -> &[u8] {
        &self.original_helper
    }

    /// Total queries issued through this oracle.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Writes helper bytes and performs one application query. The NVM
    /// write reuses the device's helper buffer, so a query loop does
    /// not allocate per query.
    pub fn query(&mut self, helper: &[u8], env: Environment) -> DeviceResponse {
        self.device.set_helper(helper);
        self.respond_monitored(helper, env)
    }

    /// One counted device query with the helper already installed,
    /// passed through the attached monitor (if any).
    fn respond_monitored(&mut self, helper: &[u8], env: Environment) -> DeviceResponse {
        self.queries += 1;
        let response = self.device.respond(&self.nonce, env);
        if let Some(monitor) = self.monitor.as_mut() {
            if monitor.observe(helper, &response) && self.first_flagged.is_none() {
                self.first_flagged = Some(self.queries);
            }
        }
        response
    }

    /// Queries with the *original* helper data (e.g. to capture the
    /// nominal reference tag).
    pub fn query_original(&mut self, env: Environment) -> DeviceResponse {
        // Borrow dance instead of a clone: the original helper is only
        // parked while the query runs.
        let helper = std::mem::take(&mut self.original_helper);
        let response = self.query(&helper, env);
        self.original_helper = helper;
        response
    }

    /// Restores the original helper data on the device (covering tracks).
    pub fn restore(&mut self) {
        self.device.set_helper(&self.original_helper);
    }

    /// The response the device *would* give if it reconstructed exactly
    /// `key` — computable attacker-side because the application function
    /// (HMAC over the public nonce) is known. Used by attacks that
    /// reprogram the key and predict the resulting behavior (paper
    /// Sections VI-C/D and the LISA candidate resolution).
    pub fn expected_response(&self, key: &ropuf_numeric::BitVec) -> DeviceResponse {
        DeviceResponse::Tag(ropuf_hash::hmac_sha256(&key.to_bytes(), &self.nonce))
    }

    /// Counts failures among `trials` queries of the same helper, where
    /// "failure" means the response differs from `expected`.
    ///
    /// Equivalent to a one-probe [`Oracle::probe_failures`] call: the
    /// helper is written once and queried `trials` times.
    pub fn failure_count(
        &mut self,
        helper: &[u8],
        env: Environment,
        expected: &DeviceResponse,
        trials: usize,
    ) -> u64 {
        self.run_probe(helper, env, expected, trials, None)
    }

    /// Batched failure-rate estimation: for every probe, writes its
    /// helper to device NVM once and issues `trials` queries, returning
    /// the per-probe failure counts.
    ///
    /// This is the hot path of every statistical attack (paper Section
    /// VI, Fig. 5). Compared to looping over [`Oracle::query`], the
    /// helper rewrite — an allocation plus NVM store — is amortized
    /// across the probe's trials; the responses themselves are
    /// unchanged, since key reconstruction re-samples PUF noise on each
    /// query regardless.
    pub fn probe_failures(
        &mut self,
        probes: &[Probe<'_>],
        env: Environment,
        trials: usize,
    ) -> Vec<u64> {
        probes
            .iter()
            .map(|p| self.run_probe(p.helper, env, p.expected, trials, None))
            .collect()
    }

    /// Like [`Oracle::probe_failures`], but abandons a probe as soon as
    /// its failure count *exceeds* `cap`.
    ///
    /// Majority-vote decisions at threshold `cap` are unaffected (the
    /// comparison `failures > cap` is already decided), while hopeless
    /// hypotheses stop burning queries. Returned counts are therefore
    /// exact up to `cap + 1` and saturate there.
    pub fn probe_failures_capped(
        &mut self,
        probes: &[Probe<'_>],
        env: Environment,
        trials: usize,
        cap: u64,
    ) -> Vec<u64> {
        probes
            .iter()
            .map(|p| self.run_probe(p.helper, env, p.expected, trials, Some(cap)))
            .collect()
    }

    fn run_probe(
        &mut self,
        helper: &[u8],
        env: Environment,
        expected: &DeviceResponse,
        trials: usize,
        cap: Option<u64>,
    ) -> u64 {
        self.device.set_helper(helper);
        let mut failures = 0u64;
        for _ in 0..trials {
            if &self.respond_monitored(helper, env) != expected {
                failures += 1;
                if cap.is_some_and(|c| failures > c) {
                    break;
                }
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ropuf_constructions::pairing::lisa::{LisaConfig, LisaScheme};
    use ropuf_sim::{ArrayDims, RoArrayBuilder};

    fn device(seed: u64) -> Device {
        let mut rng = StdRng::seed_from_u64(seed);
        let array = RoArrayBuilder::new(ArrayDims::new(16, 8)).build(&mut rng);
        Device::provision(
            array,
            Box::new(LisaScheme::new(LisaConfig::default())),
            seed,
        )
        .unwrap()
    }

    #[test]
    fn query_counting_and_reference() {
        let mut d = device(1);
        let mut o = Oracle::new(&mut d);
        let r1 = o.query_original(Environment::nominal());
        let r2 = o.query_original(Environment::nominal());
        assert_eq!(r1, r2);
        assert_eq!(o.queries(), 2);
    }

    #[test]
    fn failure_count_zero_for_genuine_helper() {
        let mut d = device(2);
        let mut o = Oracle::new(&mut d);
        let expected = o.query_original(Environment::nominal());
        let helper = o.original_helper().to_vec();
        let f = o.failure_count(&helper, Environment::nominal(), &expected, 10);
        assert_eq!(f, 0);
    }

    #[test]
    fn failure_count_full_for_garbage() {
        let mut d = device(3);
        let mut o = Oracle::new(&mut d);
        let expected = o.query_original(Environment::nominal());
        let f = o.failure_count(&[1, 2, 3], Environment::nominal(), &expected, 5);
        assert_eq!(f, 5);
    }

    #[test]
    fn batched_probes_match_scalar_counts() {
        let mut d = device(5);
        let mut o = Oracle::new(&mut d);
        let expected = o.query_original(Environment::nominal());
        let good = o.original_helper().to_vec();
        let garbage = vec![9u8; 16];
        let probes = [
            Probe {
                helper: &good,
                expected: &expected,
            },
            Probe {
                helper: &garbage,
                expected: &expected,
            },
        ];
        let failures = o.probe_failures(&probes, Environment::nominal(), 6);
        assert_eq!(failures, vec![0, 6]);
        assert_eq!(o.queries(), 1 + 12, "1 reference + 2 probes x 6 trials");
    }

    #[test]
    fn capped_probes_saturate_and_save_queries() {
        let mut d = device(6);
        let mut o = Oracle::new(&mut d);
        let expected = o.query_original(Environment::nominal());
        let garbage = vec![7u8; 16];
        let before = o.queries();
        let probes = [Probe {
            helper: &garbage,
            expected: &expected,
        }];
        let failures = o.probe_failures_capped(&probes, Environment::nominal(), 10, 2);
        assert_eq!(failures, vec![3], "count saturates at cap + 1");
        assert_eq!(
            o.queries() - before,
            3,
            "probe abandoned after cap + 1 failures"
        );
    }

    /// Toy monitor: flags every query whose helper differs from the
    /// blob it was born with.
    #[derive(Debug)]
    struct DiffMonitor {
        enrolled: Vec<u8>,
        flags: u64,
    }

    impl TrafficMonitor for DiffMonitor {
        fn observe(&mut self, helper: &[u8], _response: &DeviceResponse) -> bool {
            if helper != self.enrolled {
                self.flags += 1;
                true
            } else {
                false
            }
        }

        fn flag_reason(&self) -> Option<&'static str> {
            (self.flags > 0).then_some("helper differs")
        }
    }

    #[test]
    fn monitor_sees_every_query_and_first_flag_is_recorded() {
        let mut d = device(7);
        let mut o = Oracle::new(&mut d);
        let enrolled = o.original_helper().to_vec();
        o.attach_monitor(Box::new(DiffMonitor {
            enrolled: enrolled.clone(),
            flags: 0,
        }));

        let expected = o.query_original(Environment::nominal());
        assert_eq!(o.first_flagged(), None, "genuine helper never flags");

        let garbage = vec![0xEEu8; 12];
        let probes = [Probe {
            helper: &garbage,
            expected: &expected,
        }];
        o.probe_failures(&probes, Environment::nominal(), 3);
        assert_eq!(
            o.first_flagged(),
            Some(2),
            "first manipulated query (after 1 reference query) is flagged"
        );
        assert_eq!(o.monitor().unwrap().flag_reason(), Some("helper differs"));

        // The flag index latches at the first offence.
        o.query(&garbage, Environment::nominal());
        assert_eq!(o.first_flagged(), Some(2));
    }

    #[test]
    fn restore_recovers_original_behavior() {
        let mut d = device(4);
        let expected;
        {
            let mut o = Oracle::new(&mut d);
            expected = o.query_original(Environment::nominal());
            o.query(&[0xFF; 8], Environment::nominal());
            o.restore();
        }
        assert_eq!(d.respond(b"attack-nonce", Environment::nominal()), expected);
    }
}
