//! Campaign result aggregation and JSON / CSV emission.
//!
//! The serializers are hand-rolled (the offline crate set has no
//! `serde`) and emit keys in a fixed order, so a report serialized with
//! `include_timing = false` is **byte-identical** across runs, thread
//! counts and machines for the same campaign parameters. The schema is
//! documented in `ARCHITECTURE.md` ("Campaign result schema").

use ropuf_sim::ArrayDims;
use ropuf_verifier::DetectorConfig;

use crate::engine::DeviceRun;

/// Version tag embedded in every JSON report.
pub const SCHEMA: &str = "ropuf-campaign/v1";

/// Aggregated outcome of a [`Campaign`](crate::Campaign) run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Attack name (`AttackKind::name`).
    pub attack: String,
    /// Array geometry of the fleet.
    pub dims: ArrayDims,
    /// Fleet size.
    pub devices: usize,
    /// Master seed the fleet derived from.
    pub master_seed: u64,
    /// Whether decided-vote early exit was on.
    pub early_exit: bool,
    /// Defender-side detector thresholds, when the campaign ran the
    /// closed loop (`None`: plain attacker-only campaign).
    pub detector: Option<DetectorConfig>,
    /// Worker threads actually used (timing context, not part of the
    /// deterministic payload).
    pub threads: usize,
    /// End-to-end campaign wall time in milliseconds.
    pub total_wall_ms: f64,
    /// Per-device results, ordered by device id.
    pub runs: Vec<DeviceRun>,
}

impl CampaignReport {
    /// Devices whose run met the attack's success criterion.
    pub fn succeeded(&self) -> usize {
        self.runs.iter().filter(|r| r.success).count()
    }

    /// Fraction of successful runs (0 for an empty fleet).
    pub fn success_rate(&self) -> f64 {
        if self.runs.is_empty() {
            0.0
        } else {
            self.succeeded() as f64 / self.runs.len() as f64
        }
    }

    /// Total oracle queries across the fleet.
    pub fn total_queries(&self) -> u64 {
        self.runs.iter().map(|r| r.queries).sum()
    }

    /// Mean queries per device (0 for an empty fleet).
    pub fn mean_queries(&self) -> f64 {
        if self.runs.is_empty() {
            0.0
        } else {
            self.total_queries() as f64 / self.runs.len() as f64
        }
    }

    /// Sum of per-device wall times — the work a serial executor would
    /// have done. `total_wall_ms` divides into this for the realized
    /// parallel speedup.
    pub fn serial_wall_ms(&self) -> f64 {
        self.runs.iter().map(|r| r.wall_ms).sum()
    }

    /// Devices the defender-side detector flagged (0 without a
    /// detector).
    pub fn flagged(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.flagged_at_query.is_some())
            .count()
    }

    /// Devices flagged strictly before their attack run completed —
    /// the closed-loop "caught before key recovery" count.
    pub fn flagged_before_completion(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.flagged_at_query.is_some_and(|q| q < r.queries))
            .count()
    }

    /// Mean queries-before-flag over the flagged runs (`None` when no
    /// run was flagged).
    pub fn mean_queries_to_flag(&self) -> Option<f64> {
        let flagged: Vec<u64> = self
            .runs
            .iter()
            .filter_map(|r| r.flagged_at_query)
            .collect();
        if flagged.is_empty() {
            None
        } else {
            Some(flagged.iter().sum::<u64>() as f64 / flagged.len() as f64)
        }
    }

    /// JSON emission. With `include_timing = false` the output is a pure
    /// function of the campaign parameters (byte-identical across runs
    /// and thread counts); with `true`, `wall_ms` / `threads` /
    /// `total_wall_ms` fields are added.
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut out = String::with_capacity(256 + 160 * self.runs.len());
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_str(SCHEMA)));
        out.push_str(&format!("  \"attack\": {},\n", json_str(&self.attack)));
        out.push_str(&format!(
            "  \"dims\": {{\"cols\": {}, \"rows\": {}}},\n",
            self.dims.cols(),
            self.dims.rows()
        ));
        out.push_str(&format!("  \"devices\": {},\n", self.devices));
        out.push_str(&format!("  \"master_seed\": {},\n", self.master_seed));
        out.push_str(&format!("  \"early_exit\": {},\n", self.early_exit));
        match &self.detector {
            Some(d) => out.push_str(&format!(
                "  \"detector\": {{\"integrity_check\": {}, \"rate_window\": {}, \"rate_budget\": {}, \"failure_streak\": {}}},\n",
                d.integrity_check, d.rate_window, d.rate_budget, d.failure_streak,
            )),
            None => out.push_str("  \"detector\": null,\n"),
        }
        out.push_str(&format!(
            "  \"summary\": {{\"succeeded\": {}, \"success_rate\": {}, \"total_queries\": {}, \"mean_queries\": {}, \"flagged\": {}}},\n",
            self.succeeded(),
            json_f64(self.success_rate()),
            self.total_queries(),
            json_f64(self.mean_queries()),
            self.flagged(),
        ));
        if include_timing {
            out.push_str(&format!(
                "  \"timing\": {{\"threads\": {}, \"total_wall_ms\": {}, \"serial_wall_ms\": {}}},\n",
                self.threads,
                json_f64(self.total_wall_ms),
                json_f64(self.serial_wall_ms()),
            ));
        }
        out.push_str("  \"runs\": [\n");
        for (i, run) in self.runs.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"device_id\": {}", run.device_id));
            out.push_str(&format!(", \"attack_seed\": {}", run.attack_seed));
            out.push_str(&format!(", \"success\": {}", run.success));
            out.push_str(&format!(", \"queries\": {}", run.queries));
            out.push_str(&format!(", \"key_bits\": {}", run.key_bits));
            out.push_str(&format!(
                ", \"hamming_distance\": {}",
                opt_num(run.hamming_distance)
            ));
            match run.relations {
                Some((resolved, total)) => out.push_str(&format!(
                    ", \"relations\": {{\"resolved\": {resolved}, \"total\": {total}}}"
                )),
                None => out.push_str(", \"relations\": null"),
            }
            out.push_str(&format!(
                ", \"max_hypotheses\": {}",
                opt_num(run.max_hypotheses)
            ));
            out.push_str(&format!(
                ", \"flagged_at_query\": {}",
                run.flagged_at_query
                    .map_or("null".to_string(), |q| q.to_string())
            ));
            match run.flag_reason {
                Some(r) => out.push_str(&format!(", \"flag_reason\": {}", json_str(r.label()))),
                None => out.push_str(", \"flag_reason\": null"),
            }
            match &run.error {
                Some(e) => out.push_str(&format!(", \"error\": {}", json_str(e))),
                None => out.push_str(", \"error\": null"),
            }
            if include_timing {
                out.push_str(&format!(", \"wall_ms\": {}", json_f64(run.wall_ms)));
            }
            out.push('}');
            if i + 1 < self.runs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// CSV emission: one row per device, header included. The same
    /// timing rule as [`CampaignReport::to_json`] applies.
    pub fn to_csv(&self, include_timing: bool) -> String {
        let mut out = String::with_capacity(64 + 64 * self.runs.len());
        out.push_str("device_id,attack_seed,success,queries,key_bits,hamming_distance,relations_resolved,relations_total,max_hypotheses,flagged_at_query,flag_reason,error");
        if include_timing {
            out.push_str(",wall_ms");
        }
        out.push('\n');
        for run in &self.runs {
            let (resolved, total) = match run.relations {
                Some((r, t)) => (r.to_string(), t.to_string()),
                None => (String::new(), String::new()),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{}",
                run.device_id,
                run.attack_seed,
                run.success,
                run.queries,
                run.key_bits,
                run.hamming_distance
                    .map_or(String::new(), |d| d.to_string()),
                resolved,
                total,
                run.max_hypotheses.map_or(String::new(), |h| h.to_string()),
                run.flagged_at_query
                    .map_or(String::new(), |q| q.to_string()),
                csv_str(run.flag_reason.map_or("", |r| r.label())),
                csv_str(run.error.as_deref().unwrap_or("")),
            ));
            if include_timing {
                out.push_str(&format!(",{}", json_f64(run.wall_ms)));
            }
            out.push('\n');
        }
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Deterministic float formatting: shortest round-trip form, with a
/// trailing `.0` guaranteed so the value parses as a JSON number with a
/// stable shape.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn opt_num(x: Option<u16>) -> String {
    x.map_or("null".to_string(), |v| v.to_string())
}

/// CSV field quoting per RFC 4180 (quote when the field contains a
/// comma, quote or newline).
fn csv_str(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropuf_verifier::FlagReason;

    fn sample_report() -> CampaignReport {
        CampaignReport {
            attack: "lisa".to_string(),
            dims: ArrayDims::new(16, 8),
            devices: 2,
            master_seed: 5,
            early_exit: false,
            detector: Some(DetectorConfig::default()),
            threads: 3,
            total_wall_ms: 12.5,
            runs: vec![
                DeviceRun {
                    device_id: 0,
                    attack_seed: 99,
                    success: true,
                    queries: 40,
                    key_bits: 64,
                    hamming_distance: Some(0),
                    relations: None,
                    max_hypotheses: None,
                    flagged_at_query: Some(2),
                    flag_reason: Some(FlagReason::HelperMismatch),
                    error: None,
                    wall_ms: 7.0,
                },
                DeviceRun {
                    device_id: 1,
                    attack_seed: 100,
                    success: false,
                    queries: 0,
                    key_bits: 0,
                    hamming_distance: None,
                    relations: None,
                    max_hypotheses: Some(4),
                    flagged_at_query: None,
                    flag_reason: None,
                    error: Some("enroll: \"quoted\"".to_string()),
                    wall_ms: 5.5,
                },
            ],
        }
    }

    #[test]
    fn summary_statistics() {
        let r = sample_report();
        assert_eq!(r.succeeded(), 1);
        assert_eq!(r.success_rate(), 0.5);
        assert_eq!(r.total_queries(), 40);
        assert_eq!(r.mean_queries(), 20.0);
        assert_eq!(r.serial_wall_ms(), 12.5);
        assert_eq!(r.flagged(), 1);
        assert_eq!(r.flagged_before_completion(), 1);
        assert_eq!(r.mean_queries_to_flag(), Some(2.0));
    }

    #[test]
    fn json_without_timing_has_no_wall_fields() {
        let j = sample_report().to_json(false);
        assert!(!j.contains("wall_ms"), "{j}");
        assert!(!j.contains("timing"), "{j}");
        assert!(j.contains("\"schema\": \"ropuf-campaign/v1\""));
        assert!(j.contains("\"success_rate\": 0.5"));
        assert!(j.contains("\"flagged\": 1"), "{j}");
        assert!(
            j.contains("\"detector\": {\"integrity_check\": true"),
            "{j}"
        );
        assert!(j.contains("\"flagged_at_query\": 2"), "{j}");
        assert!(j.contains("\"flag_reason\": \"helper-mismatch\""), "{j}");
        assert!(j.contains("\\\"quoted\\\""), "escaped error: {j}");

        let mut plain = sample_report();
        plain.detector = None;
        assert!(plain.to_json(false).contains("\"detector\": null"));
    }

    #[test]
    fn json_with_timing_has_wall_fields() {
        let j = sample_report().to_json(true);
        assert!(j.contains("\"timing\""));
        assert!(j.contains("\"wall_ms\": 7.0"));
    }

    #[test]
    fn csv_shape() {
        let c = sample_report().to_csv(false);
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("device_id,"));
        assert!(lines[0].contains("flagged_at_query,flag_reason"));
        assert!(lines[1].starts_with("0,99,true,40,64,0,,,,2,helper-mismatch,"));
        assert!(lines[2].contains("\"enroll: \"\"quoted\"\"\""));
    }

    #[test]
    fn float_formatting_is_stable() {
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(20.0), "20.0");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
