//! The defender-side hook of the closed loop: adapts a
//! [`DeviceDetector`] to the oracle's [`TrafficMonitor`] interface.
//!
//! When a campaign runs with [`Campaign::detector`](crate::Campaign)
//! set, every oracle query an attack issues is also shown to a
//! per-device detector, exactly as a verifier gateway would see it: the
//! helper bytes presented for the query, and whether the response
//! verified against the device's enrolled behavior. The attack is
//! unaffected (monitoring is passive), but the resulting
//! [`DeviceRun`](crate::DeviceRun) additionally reports *when* the
//! defender would have caught it — the paper's §VII "query monitoring"
//! countermeasure made measurable.

use ropuf_attacks::TrafficMonitor;
use ropuf_constructions::DeviceResponse;
use ropuf_telemetry::TimerHistogram;
use ropuf_verifier::{DetectorConfig, DeviceDetector};

/// Per-device detector adapter driving its own logical clock: attack
/// queries arrive back-to-back, so each observed query advances time by
/// one tick — the adversarial extreme of the rate-budget model.
#[derive(Debug)]
pub struct DetectorMonitor {
    detector: DeviceDetector,
    expected: DeviceResponse,
    now: u64,
    /// Fleet-level flag-latency histogram (queries-before-flag): fed
    /// once, at the moment the detector first flags, so a campaign's
    /// telemetry registry accumulates the distribution across every
    /// monitored device.
    flag_latency: Option<TimerHistogram>,
}

impl DetectorMonitor {
    /// Builds the monitor a campaign attaches before an attack runs:
    /// `enrolled_helper` is the integrity reference, `expected` the
    /// response of a healthy authentication (the device's behavior
    /// under its enrolled key).
    pub fn new(
        config: DetectorConfig,
        scheme_tag: u8,
        enrolled_helper: &[u8],
        expected: DeviceResponse,
    ) -> Self {
        Self {
            detector: DeviceDetector::new(config, scheme_tag, enrolled_helper),
            expected,
            now: 0,
            flag_latency: None,
        }
    }

    /// Attaches a fleet-level flag-latency histogram: the query index
    /// at which this device's detector first flags is recorded into it
    /// (a [`TimerHistogram`] handle shares its stripes across clones,
    /// so every device of a campaign feeds one distribution).
    #[must_use]
    pub fn with_flag_latency(mut self, histogram: TimerHistogram) -> Self {
        self.flag_latency = Some(histogram);
        self
    }

    /// The wrapped detector (flag inspection).
    pub fn detector(&self) -> &DeviceDetector {
        &self.detector
    }
}

impl TrafficMonitor for DetectorMonitor {
    fn observe(&mut self, helper: &[u8], response: &DeviceResponse) -> bool {
        let already_flagged = self.detector.flagged().is_some();
        self.now += 1;
        let auth_ok = response == &self.expected;
        let flagged = self
            .detector
            .observe(self.now, Some(helper), auth_ok)
            .is_flagged();
        if flagged && !already_flagged {
            if let Some(hist) = &self.flag_latency {
                hist.record(self.now);
            }
        }
        flagged
    }

    fn flag_reason(&self) -> Option<&'static str> {
        self.detector.flagged().map(|(_, reason)| reason.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropuf_constructions::pairing::lisa::LISA_TAG;

    #[test]
    fn flags_on_first_manipulated_helper_and_reports_reason() {
        let enrolled = vec![LISA_TAG, 1, 9, 9];
        let expected = DeviceResponse::Tag([5; 32]);
        let mut m = DetectorMonitor::new(DetectorConfig::default(), LISA_TAG, &enrolled, expected);
        assert!(!m.observe(&enrolled, &expected));
        assert_eq!(m.flag_reason(), None);
        let manipulated = vec![LISA_TAG, 1, 9, 8];
        assert!(m.observe(&manipulated, &expected));
        assert!(m.flag_reason().is_some());
        assert_eq!(m.detector().flagged().map(|(t, _)| t), Some(2));
    }

    #[test]
    fn wrong_responses_alone_eventually_flag() {
        let enrolled = vec![LISA_TAG, 1];
        let expected = DeviceResponse::Tag([5; 32]);
        let config = DetectorConfig {
            integrity_check: false,
            rate_window: 2,
            rate_budget: 1_000,
            failure_streak: 3,
        };
        let mut m = DetectorMonitor::new(config, LISA_TAG, &enrolled, expected);
        let wrong = DeviceResponse::Failure;
        assert!(!m.observe(&enrolled, &wrong));
        assert!(!m.observe(&enrolled, &wrong));
        assert!(m.observe(&enrolled, &wrong), "third consecutive failure");
        assert_eq!(m.flag_reason(), Some("failure-streak"));
    }
}
