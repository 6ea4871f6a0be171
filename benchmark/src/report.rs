//! Collects one run's figures and prints them: a human table on stderr,
//! then on stdout an `info` line (host, topology, notes) and, last, the
//! result object the contract asks for.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::config;
use crate::host;
use crate::openloop::Dialed;
use crate::stats::median_f64;

/// End-to-end figures of one pass (percentiles are `None` when the
/// sample does not support them).
#[derive(Debug, Clone, Default)]
pub struct E2e {
    pub lat_p50_us: Option<f64>,
    pub side_p50_us: Option<f64>,
    pub work_per_s: f64,
    pub cpu_us_per_op: f64,
    pub queries_per_key: f64,
    pub queries_to_flag: f64,
    /// Whole-run p99 of the `lat_p50_us` population: reported, not
    /// bounded (see `README.md`).
    pub lat_p99_us: Option<f64>,
    /// Whole-run p99 of the `side_p50_us` population.
    pub side_p99_us: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl E2e {
    /// The bounded end-to-end figures, in `config::END_TO_END` order
    /// after `setup_s` and `peak_rss_mb`.
    fn values(&self) -> [(&'static str, Option<f64>); 6] {
        [
            ("lat_p50_us", self.lat_p50_us),
            ("side_p50_us", self.side_p50_us),
            ("work_per_s", Some(self.work_per_s)),
            ("cpu_us_per_op", Some(self.cpu_us_per_op)),
            ("queries_per_key", Some(self.queries_per_key)),
            ("queries_to_flag", Some(self.queries_to_flag)),
        ]
    }

    /// The tails, as per-layer names.
    fn tails(&self) -> [(&'static str, Option<f64>); 2] {
        [
            ("client.lat_p99_us", self.lat_p99_us),
            ("client.side_p99_us", self.side_p99_us),
        ]
    }
}

/// One run's report.
#[derive(Debug, Default)]
pub struct Report {
    workload: String,
    seed: u64,
    trace: bool,
    setups: Vec<f64>,
    e2e: Option<E2e>,
    traced_e2e: Option<E2e>,
    layers: BTreeMap<String, f64>,
    gates: Vec<(String, bool, String)>,
    notes: Vec<(String, String)>,
}

impl Report {
    /// An empty report for one invocation.
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        Self {
            workload: workload.into(),
            seed,
            trace,
            ..Self::default()
        }
    }

    /// Records the set-up durations, seconds.
    pub fn setup(&mut self, durations: &[f64]) {
        self.setups = durations.to_vec();
    }

    /// Records the untraced end-to-end figures.
    pub fn e2e(&mut self, e2e: E2e) {
        self.e2e = Some(e2e);
    }

    /// Records the traced pass's end-to-end figures (for the overhead).
    pub fn traced_e2e(&mut self, e2e: E2e) {
        self.traced_e2e = Some(e2e);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.into(), value);
    }

    /// A per-layer metric set earlier, if any.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers.get(name).copied()
    }

    /// Records a correctness gate.
    pub fn gate(&mut self, name: &str, ok: bool, detail: String) {
        self.gates.push((name.into(), ok, detail));
    }

    /// Adds a free-form note to the info line.
    pub fn note(&mut self, key: &str, value: String) {
        self.notes.push((key.into(), value));
    }

    /// Records where each connection landed.
    pub fn topology(&mut self, dialed: &Dialed) {
        self.note("server_loops", dialed.loops.to_string());
        self.note("connections", dialed.streams.len().to_string());
        self.note("conn_loop_map", format!("{:?}", dialed.loop_ids));
        self.note("dial_attempts", dialed.attempts.to_string());
    }

    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.1)
    }

    /// Prints everything; returns whether the run is correct.
    pub fn print(mut self) -> bool {
        let e2e = self.e2e.clone().unwrap_or_default();
        // Percentiles the contract reports must rest on enough samples.
        for (name, value) in e2e.values() {
            if value.is_none() {
                self.gate(
                    &format!("{name} has at least 10 samples beyond it"),
                    false,
                    "too few samples".into(),
                );
            }
        }
        if self.trace {
            if let (Some(plain), Some(traced)) = (&self.e2e, &self.traced_e2e) {
                for ((name, a), (_, b)) in plain.values().iter().zip(traced.values()).take(3) {
                    let delta = b.unwrap_or(0.0) - a.unwrap_or(0.0);
                    self.layers.insert(format!("overhead.{name}"), delta);
                }
                for (name, value) in traced.tails() {
                    self.layers.insert(name.into(), value.unwrap_or(0.0));
                }
            }
        } else {
            let tails: Vec<String> = e2e
                .tails()
                .iter()
                .map(|(name, v)| {
                    format!("{name} {}", v.map_or(-1.0, |v| (v * 10.0).round() / 10.0))
                })
                .collect();
            self.note("tails_us", tails.join("; "));
        }
        let correct = self.correct();

        let mut metrics = Vec::new();
        if self.trace {
            for (name, unit) in config::per_layer() {
                let value = self.layers.get(&name).copied().unwrap_or(0.0);
                metrics.push((name, unit, value));
            }
        } else {
            let by_name: BTreeMap<_, _> = e2e.values().into_iter().collect();
            for (name, unit) in config::END_TO_END {
                let value = match name {
                    "setup_s" => median_f64(&self.setups),
                    "peak_rss_mb" => host::peak_rss_mb(),
                    other => by_name.get(other).copied().flatten().unwrap_or(0.0),
                };
                metrics.push((name.to_string(), unit, value));
            }
        }

        // Human table.
        eprintln!(
            "workload {} seed {} trace {}",
            self.workload,
            self.seed,
            u8::from(self.trace)
        );
        for (name, unit, value) in &metrics {
            eprintln!("  {name:<40} {value:>14.4} {unit}");
        }
        for (name, ok, detail) in &self.gates {
            eprintln!(
                "  gate {:<60} {} ({detail})",
                name,
                if *ok { "ok" } else { "FAILED" }
            );
        }

        let mut info = String::new();
        let _ = write!(
            info,
            "{{\"info\":{{\"workload\":{},\"seed\":{},\"trace\":{},\"host\":{},\"notes\":{{",
            json_str(&self.workload),
            self.seed,
            u8::from(self.trace),
            host::fingerprint_json()
        );
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let _ = write!(
                info,
                "{}{}:{}",
                if i > 0 { "," } else { "" },
                json_str(k),
                json_str(v)
            );
        }
        info.push_str("},\"gates\":[");
        for (i, (name, ok, detail)) in self.gates.iter().enumerate() {
            let _ = write!(
                info,
                "{}{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                if i > 0 { "," } else { "" },
                json_str(name),
                ok,
                json_str(detail)
            );
        }
        info.push_str("]}}");
        println!("{info}");

        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            correct,
            e2e.attempted.max(1),
            e2e.failed
        );
        for (i, (name, unit, value)) in metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}:{{\"value\":{},\"unit\":{}}}",
                if i > 0 { "," } else { "" },
                json_str(name),
                json_num(*value),
                json_str(unit)
            );
        }
        out.push_str("}}");
        println!("{out}");
        correct
    }
}

/// A JSON number with all its digits (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
