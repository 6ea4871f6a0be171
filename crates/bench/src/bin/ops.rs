//! `ropuf-ops`: a live operations console for a running ropuf server.
//!
//! ```text
//! ropuf-ops --attach HOST:PORT [--interval-ms N] [--duration-s S]
//!           [--once] [--top K] [--json PATH] [--client-p999-us U]
//!           [--assert-waits] [--min-attribution-pct P]
//! ```
//!
//! Attaches over the ordinary `ropuf-wire/v1` protocol — no side
//! channel, no server cooperation beyond the scrape requests every
//! client already has — and on each interval pulls the three
//! observability surfaces: `MetricsSnapshot` (totals), `TraceDump`
//! (slow-request ring), and `TimeSeriesDump` (the in-server history
//! ring). Successive scrapes are diffed into rates and rendered as a
//! text dashboard:
//!
//! * per-phase throughput/mean-latency table (`ready-wait`, `decode`,
//!   `handle`, `flush`, `flush-wait`) from the interval's histogram
//!   deltas;
//! * per-loop/per-worker utilization (busy-ns over wall-ns) and
//!   out-buffer high-water marks;
//! * a latency heatmap from the server's own time-series ring (bands
//!   are powers of two in microseconds, newest column on the right);
//! * the top-K slowest traced requests with full five-phase
//!   attribution.
//!
//! The tail-attribution summary answers the question the dashboard
//! exists for: *of the slowest requests' latency, how much was spent
//! waiting* (ready-wait + flush-wait) *rather than working* (decode +
//! handle + flush)? `--client-p999-us` anchors the tail cut at a
//! client-observed p999 from a prior `loadgen` run; without it the
//! slowest decile of the trace ring is used.
//!
//! `--json PATH` writes a `ropuf-bench-ops/v1` artifact.
//! `--assert-waits` (CI) asserts the wait-phase histograms are being
//! fed; `--min-attribution-pct P` asserts the tail is at least `P`
//! percent wait-attributed.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ropuf_bench::parse_flags;
use ropuf_server::{Client, TcpTransport};
use ropuf_telemetry::{
    band_floor_us, MetricValue, Snapshot, TimeSeriesSnapshot, TraceRecord, TraceSnapshot,
    LATENCY_BANDS, SERIES_PHASES,
};

/// Intensity ramp for heatmap cells (index 0 = empty).
const DENSITY: &[u8] = b" .:-=+*#%@";

/// One attached scrape of all three observability surfaces.
#[derive(Clone)]
struct Scrape {
    at: Instant,
    metrics: Snapshot,
    trace: TraceSnapshot,
    series: TimeSeriesSnapshot,
}

fn scrape(client: &mut Client<TcpTransport>) -> Result<Scrape, String> {
    let at = Instant::now();
    let metrics = client.metrics().map_err(|e| e.to_string())?;
    let trace = client.trace_dump().map_err(|e| e.to_string())?;
    let series = client.timeseries().map_err(|e| e.to_string())?;
    Ok(Scrape {
        at,
        metrics,
        trace,
        series,
    })
}

/// Sum of every gauge named `name`, across label sets.
fn gauge_total(s: &Snapshot, name: &str) -> u64 {
    s.metrics
        .iter()
        .filter(|m| m.name == name)
        .filter_map(|m| match m.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        })
        .sum()
}

/// Per-label-set values of every counter named `name`, rendered as
/// `"value1/value2"` keys (most resilience counters carry one label).
fn counter_breakdown(s: &Snapshot, name: &str) -> Vec<(String, u64)> {
    s.metrics
        .iter()
        .filter(|m| m.name == name)
        .filter_map(|m| match m.value {
            MetricValue::Counter(v) => Some((
                m.labels
                    .iter()
                    .map(|(_, v)| v.clone())
                    .collect::<Vec<_>>()
                    .join("/"),
                v,
            )),
            _ => None,
        })
        .collect()
}

/// The resilience line: overload sheds (per shed class, with the
/// interval rate), read-only degraded-mode transitions, and injected
/// faults (chaos runs) — the counters a chaos-hardened server answers
/// "is it degrading gracefully?" with.
fn render_resilience(prev: &Snapshot, cur: &Snapshot, dt: f64) -> String {
    let shed = cur.counter_total("server.shed");
    let degraded = cur.counter_total("server.degraded_transitions");
    let faults = cur.counter_total("faults.injected");
    if shed == 0 && degraded == 0 && faults == 0 {
        return "resilience: no sheds, no degraded transitions, no injected faults\n".to_string();
    }
    let breakdown = |name: &str| {
        let parts = counter_breakdown(cur, name)
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(k, v)| format!("{k} {v}"))
            .collect::<Vec<_>>()
            .join(", ");
        if parts.is_empty() {
            String::new()
        } else {
            format!(" [{parts}]")
        }
    };
    let shed_rate = shed.saturating_sub(prev.counter_total("server.shed")) as f64 / dt;
    format!(
        "resilience: shed {shed}{} ({shed_rate:.0}/s) | degraded transitions {degraded} | faults injected {faults}{}\n",
        breakdown("server.shed"),
        breakdown("faults.injected"),
    )
}

/// Aggregate (count, sum-ns) per lifecycle phase, across message types,
/// indexed by [`SERIES_PHASES`].
fn phase_totals(s: &Snapshot) -> [(u64, u128); SERIES_PHASES.len()] {
    let mut out = [(0u64, 0u128); SERIES_PHASES.len()];
    for m in &s.metrics {
        if m.name != "server.request.phase_ns" {
            continue;
        }
        let Some(phase) = m
            .labels
            .iter()
            .find(|(k, _)| k == "phase")
            .map(|(_, v)| v.as_str())
        else {
            continue;
        };
        let Some(slot) = SERIES_PHASES.iter().position(|p| *p == phase) else {
            continue;
        };
        if let MetricValue::Histogram(h) = &m.value {
            out[slot].0 += h.count;
            out[slot].1 += h.sum;
        }
    }
    out
}

/// One loop/worker lane's saturation counters.
struct Lane {
    worker: String,
    busy_ns: u64,
    wall_ns: u64,
    out_highwater: u64,
}

fn lanes(s: &Snapshot) -> Vec<Lane> {
    let mut out: Vec<Lane> = Vec::new();
    let label = |m: &ropuf_telemetry::MetricSample, key: &str| {
        m.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    for m in &s.metrics {
        let value = match m.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => v,
            MetricValue::Histogram(_) => continue,
        };
        let slot = match m.name.as_str() {
            "server.worker.busy_ns" => 0,
            "server.worker.wall_ns" => 1,
            "server.worker.out_highwater_bytes" => 2,
            _ => continue,
        };
        let worker = label(m, "worker");
        let lane = match out.iter_mut().find(|l| l.worker == worker) {
            Some(lane) => lane,
            None => {
                out.push(Lane {
                    worker,
                    busy_ns: 0,
                    wall_ns: 0,
                    out_highwater: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        match slot {
            0 => lane.busy_ns += value,
            1 => lane.wall_ns += value,
            _ => lane.out_highwater = lane.out_highwater.max(value),
        }
    }
    out.sort_by(|a, b| {
        (a.worker.len(), a.worker.as_str()).cmp(&(b.worker.len(), b.worker.as_str()))
    });
    out
}

fn pct(part: u128, whole: u128) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

fn density_char(count: u64, max: u64) -> char {
    if count == 0 || max == 0 {
        return DENSITY[0] as char;
    }
    // ceil(count * steps / max): the densest cell always renders the
    // top of the ramp, a single sample the bottom.
    let steps = (DENSITY.len() - 1) as u64;
    let level = (count.saturating_mul(steps)).div_ceil(max).clamp(1, steps);
    DENSITY[level as usize] as char
}

/// Latency heatmap from the server's time-series ring: one column per
/// point (newest right), one row per power-of-two microsecond band
/// (slowest on top), intensity scaled to the densest visible cell.
fn render_heatmap(series: &TimeSeriesSnapshot, width: usize) -> String {
    let points = &series.points[series.points.len().saturating_sub(width)..];
    if points.is_empty() {
        return "latency heatmap: no time-series points sampled yet\n".to_string();
    }
    let top_band = points
        .iter()
        .flat_map(|p| {
            p.latency
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(b, _)| b)
        })
        .max()
        .unwrap_or(0);
    let max_cell = points
        .iter()
        .flat_map(|p| p.latency.iter().copied())
        .max()
        .unwrap_or(0);
    let mut out = format!(
        "latency heatmap ({} point(s) x {} band(s), cell max {} request(s), newest right):\n",
        points.len(),
        top_band + 1,
        max_cell,
    );
    for band in (0..=top_band.min(LATENCY_BANDS - 1)).rev() {
        let row: String = points
            .iter()
            .map(|p| density_char(p.latency[band], max_cell))
            .collect();
        out.push_str(&format!(">={:>6} us |{row}|\n", band_floor_us(band)));
    }
    out
}

/// Where the tail cut came from, how many traces fell above it, and
/// how their latency splits across the five phases.
struct Attribution {
    source: &'static str,
    cutoff_us: u64,
    tail: usize,
    phase_pct: [f64; SERIES_PHASES.len()],
    /// ready-wait + flush-wait: latency attributed to *waiting*.
    wait_pct: f64,
}

/// Attributes the tail of the trace ring to lifecycle phases. The tail
/// is every record at or above the client-observed p999 when given
/// (falling back to the single slowest record if none clears it),
/// otherwise the slowest decile of the ring.
fn attribute_tail(records: &[TraceRecord], client_p999_us: Option<u64>) -> Option<Attribution> {
    if records.is_empty() {
        return None;
    }
    let mut sorted: Vec<&TraceRecord> = records.iter().collect();
    sorted.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    let (source, tail) = match client_p999_us {
        Some(p999) => {
            let cut = p999.saturating_mul(1_000);
            let n = sorted.iter().take_while(|r| r.total_ns >= cut).count();
            ("client-p999", n.max(1))
        }
        None => ("top-decile", (sorted.len() / 10).max(1)),
    };
    let sorted = &sorted[..tail];
    let sums = [
        sorted.iter().map(|r| u128::from(r.ready_ns)).sum::<u128>(),
        sorted.iter().map(|r| u128::from(r.decode_ns)).sum(),
        sorted.iter().map(|r| u128::from(r.handle_ns)).sum(),
        sorted.iter().map(|r| u128::from(r.flush_ns)).sum(),
        sorted.iter().map(|r| u128::from(r.flush_wait_ns)).sum(),
    ];
    let total: u128 = sorted.iter().map(|r| u128::from(r.total_ns)).sum();
    let phase_pct = sums.map(|s| pct(s, total));
    Some(Attribution {
        source,
        cutoff_us: sorted.last().expect("tail >= 1").total_ns / 1_000,
        tail,
        phase_pct,
        wait_pct: phase_pct[0] + phase_pct[4],
    })
}

fn render_traces(records: &[TraceRecord], top: usize) -> String {
    let mut sorted: Vec<&TraceRecord> = records.iter().collect();
    sorted.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    sorted.truncate(top);
    let mut out = format!(
        "top {} slow trace(s):\n{:>6} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6}\n",
        sorted.len(),
        "seq",
        "msg",
        "total_us",
        "ready",
        "decode",
        "handle",
        "flush",
        "fl-wait",
        "worker"
    );
    for r in sorted {
        out.push_str(&format!(
            "{:>6} {:>#6x} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>6}\n",
            r.seq,
            r.msg_type,
            r.total_ns as f64 / 1e3,
            r.ready_ns as f64 / 1e3,
            r.decode_ns as f64 / 1e3,
            r.handle_ns as f64 / 1e3,
            r.flush_ns as f64 / 1e3,
            r.flush_wait_ns as f64 / 1e3,
            r.worker,
        ));
    }
    out
}

/// One full dashboard frame from a pair of successive scrapes.
fn render(
    attach: &str,
    tick: u64,
    prev: &Scrape,
    cur: &Scrape,
    top: usize,
    client_p999_us: Option<u64>,
) -> String {
    let dt = cur.at.duration_since(prev.at).as_secs_f64().max(1e-9);
    let rate = |name: &str| {
        let d = cur
            .metrics
            .counter_total(name)
            .saturating_sub(prev.metrics.counter_total(name));
        d as f64 / dt
    };
    let mut out = format!(
        "── ropuf-ops @ {attach} — frame {tick}, {:.2} s window ──\n",
        dt
    );
    out.push_str(&format!(
        "requests {} ({:.0}/s) | accepted {} ({:.0}/s) | open {} | evicted {} | traces {} | points {}\n",
        cur.metrics.counter_total("server.requests"),
        rate("server.requests"),
        cur.metrics.counter_total("server.connections.accepted"),
        rate("server.connections.accepted"),
        gauge_total(&cur.metrics, "server.connections.open"),
        cur.metrics.counter_total("server.evicted"),
        cur.trace.recorded,
        cur.series.sampled,
    ));
    out.push_str(&render_resilience(&prev.metrics, &cur.metrics, dt));

    let prev_phases = phase_totals(&prev.metrics);
    let cur_phases = phase_totals(&cur.metrics);
    out.push_str(&format!(
        "{:>12} {:>12} {:>12} {:>12}\n",
        "phase", "rate/s", "mean_us", "share%"
    ));
    let window_ns: u128 = cur_phases
        .iter()
        .zip(&prev_phases)
        .map(|(c, p)| c.1 - p.1)
        .sum();
    for (slot, phase) in SERIES_PHASES.iter().enumerate() {
        let dcount = cur_phases[slot].0 - prev_phases[slot].0;
        let dsum = cur_phases[slot].1 - prev_phases[slot].1;
        out.push_str(&format!(
            "{:>12} {:>12.0} {:>12.1} {:>12.1}\n",
            phase,
            dcount as f64 / dt,
            if dcount == 0 {
                0.0
            } else {
                dsum as f64 / dcount as f64 / 1e3
            },
            pct(dsum, window_ns),
        ));
    }

    let prev_lanes = lanes(&prev.metrics);
    out.push_str("workers:");
    for lane in lanes(&cur.metrics) {
        let (pbusy, pwall) = prev_lanes
            .iter()
            .find(|p| p.worker == lane.worker)
            .map_or((0, 0), |p| (p.busy_ns, p.wall_ns));
        out.push_str(&format!(
            " [{} {:.1}% busy, hw {} B]",
            lane.worker,
            pct(
                u128::from(lane.busy_ns.saturating_sub(pbusy)),
                u128::from(lane.wall_ns.saturating_sub(pwall)),
            ),
            lane.out_highwater,
        ));
    }
    out.push('\n');
    out.push_str(&render_heatmap(&cur.series, 48));
    out.push_str(&render_traces(&cur.trace.records, top));
    match attribute_tail(&cur.trace.records, client_p999_us) {
        Some(a) => out.push_str(&format!(
            "tail attribution ({} trace(s), {} cut >= {} us): \
             wait {:.1}% (ready-wait {:.1}% + flush-wait {:.1}%) | \
             decode {:.1}% | handle {:.1}% | flush {:.1}%\n",
            a.tail,
            a.source,
            a.cutoff_us,
            a.wait_pct,
            a.phase_pct[0],
            a.phase_pct[4],
            a.phase_pct[1],
            a.phase_pct[2],
            a.phase_pct[3],
        )),
        None => out.push_str("tail attribution: trace ring empty\n"),
    }
    out
}

fn artifact_json(
    attach: &str,
    interval: Duration,
    scrapes: u64,
    prev: &Scrape,
    cur: &Scrape,
    top: usize,
    client_p999_us: Option<u64>,
) -> String {
    let dt = cur.at.duration_since(prev.at).as_secs_f64().max(1e-9);
    let prev_phases = phase_totals(&prev.metrics);
    let cur_phases = phase_totals(&cur.metrics);
    let phases = SERIES_PHASES
        .iter()
        .enumerate()
        .map(|(slot, phase)| {
            let (count, sum) = cur_phases[slot];
            let dcount = count - prev_phases[slot].0;
            format!(
                "\"{}\": {{\"count\": {count}, \"total_ns\": {sum}, \"rate_per_s\": {:.1}, \"mean_us\": {:.1}}}",
                phase.replace('-', "_"),
                dcount as f64 / dt,
                if count == 0 {
                    0.0
                } else {
                    sum as f64 / count as f64 / 1e3
                },
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let prev_lanes = lanes(&prev.metrics);
    let workers = lanes(&cur.metrics)
        .iter()
        .map(|lane| {
            let (pbusy, pwall) = prev_lanes
                .iter()
                .find(|p| p.worker == lane.worker)
                .map_or((0, 0), |p| (p.busy_ns, p.wall_ns));
            format!(
                "{{\"worker\": \"{}\", \"busy_pct\": {:.1}, \"out_highwater_bytes\": {}}}",
                lane.worker,
                pct(
                    u128::from(lane.busy_ns.saturating_sub(pbusy)),
                    u128::from(lane.wall_ns.saturating_sub(pwall)),
                ),
                lane.out_highwater,
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let breakdown_json = |name: &str| {
        counter_breakdown(&cur.metrics, name)
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let resilience = format!(
        "{{\"shed\": {}, \"shed_by_class\": {{{}}}, \"degraded_transitions\": {}, \"faults_injected\": {{{}}}}}",
        cur.metrics.counter_total("server.shed"),
        breakdown_json("server.shed"),
        cur.metrics.counter_total("server.degraded_transitions"),
        breakdown_json("faults.injected"),
    );
    let mut band_totals = [0u64; LATENCY_BANDS];
    for p in &cur.series.points {
        for (slot, c) in p.latency.iter().enumerate() {
            band_totals[slot] += c;
        }
    }
    let bands = band_totals
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let mut sorted: Vec<&TraceRecord> = cur.trace.records.iter().collect();
    sorted.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
    sorted.truncate(top);
    let traces = sorted
        .iter()
        .map(|r| {
            format!(
                "    {{\"seq\": {}, \"msg_type\": {}, \"worker\": {}, \"total_ns\": {}, \
                 \"ready_ns\": {}, \"decode_ns\": {}, \"handle_ns\": {}, \"flush_ns\": {}, \
                 \"flush_wait_ns\": {}}}",
                r.seq,
                r.msg_type,
                r.worker,
                r.total_ns,
                r.ready_ns,
                r.decode_ns,
                r.handle_ns,
                r.flush_ns,
                r.flush_wait_ns,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let tail = match attribute_tail(&cur.trace.records, client_p999_us) {
        Some(a) => format!(
            "{{\"source\": \"{}\", \"cutoff_us\": {}, \"tail_traces\": {}, \
             \"wait_attribution_pct\": {:.1}, \"phase_pct\": {{\"ready_wait\": {:.1}, \
             \"decode\": {:.1}, \"handle\": {:.1}, \"flush\": {:.1}, \"flush_wait\": {:.1}}}}}",
            a.source,
            a.cutoff_us,
            a.tail,
            a.wait_pct,
            a.phase_pct[0],
            a.phase_pct[1],
            a.phase_pct[2],
            a.phase_pct[3],
            a.phase_pct[4],
        ),
        None => "null".to_string(),
    };
    format!(
        "{{\n  \"schema\": \"ropuf-bench-ops/v1\",\n  \"attach\": \"{attach}\",\n  \"scrapes\": {scrapes},\n  \"interval_ms\": {},\n  \"client_p999_us\": {},\n  \"requests_total\": {},\n  \"open_connections\": {},\n  \"phases\": {{{phases}}},\n  \"workers\": [{workers}],\n  \"resilience\": {resilience},\n  \"timeseries\": {{\"sampled\": {}, \"returned\": {}, \"interval_ns\": {}, \"band_totals\": [{bands}]}},\n  \"trace\": {{\"recorded\": {}, \"dropped\": {}, \"returned\": {}}},\n  \"tail\": {tail},\n  \"top_traces\": [\n{traces}\n  ]\n}}\n",
        interval.as_millis(),
        client_p999_us.map_or("null".to_string(), |v| v.to_string()),
        cur.metrics.counter_total("server.requests"),
        gauge_total(&cur.metrics, "server.connections.open"),
        cur.series.sampled,
        cur.series.points.len(),
        cur.series.interval_ns,
        cur.trace.recorded,
        cur.trace.dropped,
        cur.trace.records.len(),
    )
}

fn connect_with_retry(addr: SocketAddr) -> Client<TcpTransport> {
    // A loadgen peer builds its traffic plan and enrolls the fleet
    // before binding the server, which can take tens of seconds at
    // bench scale — keep knocking.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match TcpTransport::connect(addr) {
            Ok(transport) => {
                let mut client = Client::new(transport);
                client.hello("ropuf-ops").expect("ops handshake");
                return client;
            }
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "could not attach to {addr} within 120 s: {e}"
                );
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

fn main() {
    let flags = parse_flags();
    flags.expect_known(&[
        "attach",
        "interval-ms",
        "duration-s",
        "once",
        "top",
        "json",
        "client-p999-us",
        "assert-waits",
        "min-attribution-pct",
    ]);
    let attach = flags
        .get("attach")
        .expect("--attach HOST:PORT is required (the server's fixed --port)")
        .to_string();
    let addr: SocketAddr = attach.parse().expect("--attach expects HOST:PORT");
    let interval = Duration::from_millis(flags.get_u64("interval-ms").unwrap_or(1_000).max(10));
    let duration = Duration::from_secs(flags.get_u64("duration-s").unwrap_or(10));
    let once = flags.has("once");
    let top = flags.get_usize("top").unwrap_or(8);
    let client_p999_us = flags.get_u64("client-p999-us");
    let assert_waits = flags.has("assert-waits");
    let min_attribution = flags.get_u64("min-attribution-pct");

    let mut client = connect_with_retry(addr);
    let mut prev = scrape(&mut client).expect("first scrape");
    let deadline = Instant::now() + duration;
    let mut tick = 0u64;
    let mut last_pair: Option<(Scrape, Scrape)> = None;
    loop {
        // Take the first follow-up scrape quickly so a pair exists for
        // the gates and artifact even when the attached run finishes
        // within one interval (short CI workloads in release finish in
        // well under a second); later ticks use the full cadence.
        std::thread::sleep(if last_pair.is_none() {
            interval.min(Duration::from_millis(50))
        } else {
            interval
        });
        match scrape(&mut client) {
            Ok(cur) => {
                tick += 1;
                print!(
                    "{}",
                    render(&attach, tick, &prev, &cur, top, client_p999_us)
                );
                last_pair = Some((prev, cur.clone()));
                prev = cur;
            }
            Err(e) => {
                eprintln!("ropuf-ops: server went away ({e}); rendering final state");
                break;
            }
        }
        if once || (!duration.is_zero() && Instant::now() >= deadline) {
            break;
        }
    }
    let (first, last) = last_pair.expect("never completed a scrape pair — server died too early");

    if assert_waits {
        let phases = phase_totals(&last.metrics);
        for (slot, phase) in SERIES_PHASES.iter().enumerate() {
            assert!(
                phases[slot].0 > 0,
                "phase histogram {phase} is empty — queue-wait attribution is not being fed"
            );
        }
        assert!(
            last.metrics.counter_total("server.requests")
                > first.metrics.counter_total("server.requests"),
            "no requests served across the scrape window"
        );
        assert!(
            last.series.sampled > 0,
            "time-series sampler never cut a point"
        );
        assert!(last.trace.recorded > 0, "slow-request trace ring is empty");
        println!("assert-waits: all wait phases fed, sampler live, traces present — ok");
    }
    if let Some(min_pct) = min_attribution {
        let a = attribute_tail(&last.trace.records, client_p999_us)
            .expect("attribution gate needs a non-empty trace ring");
        assert!(
            a.wait_pct >= min_pct as f64,
            "tail wait-attribution {:.1}% below the required {min_pct}% \
             ({} trace(s) at {} cut)",
            a.wait_pct,
            a.tail,
            a.source,
        );
        println!(
            "attribution gate: {:.1}% of the {} tail is wait time (>= {min_pct}%) — ok",
            a.wait_pct, a.source
        );
    }
    if let Some(path) = flags.get_required_value("json") {
        let artifact = artifact_json(&attach, interval, tick, &first, &last, top, client_p999_us);
        ropuf_bench::write_artifact(path, &artifact);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropuf_telemetry::SeriesPoint;

    fn record(total: u64, ready: u64, flush_wait: u64) -> TraceRecord {
        let work = total - ready - flush_wait;
        TraceRecord {
            seq: 0,
            msg_type: 0x03,
            device_hash: 1,
            ready_ns: ready,
            decode_ns: 0,
            handle_ns: work,
            flush_ns: 0,
            flush_wait_ns: flush_wait,
            total_ns: total,
            worker: 0,
        }
    }

    #[test]
    fn attribution_splits_waits_from_work() {
        // Ten records; the slowest (the top decile) is 90% wait.
        let mut records = vec![record(1_000, 0, 0); 9];
        records.push(record(100_000, 80_000, 10_000));
        let a = attribute_tail(&records, None).expect("non-empty");
        assert_eq!(a.source, "top-decile");
        assert_eq!(a.tail, 1);
        assert_eq!(a.cutoff_us, 100);
        assert!((a.wait_pct - 90.0).abs() < 1e-9);
        assert!((a.phase_pct[0] - 80.0).abs() < 1e-9);
        assert!((a.phase_pct[4] - 10.0).abs() < 1e-9);
        assert!((a.phase_pct[2] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn attribution_cuts_at_the_client_p999() {
        let records = vec![
            record(2_000_000, 1_900_000, 0),
            record(3_000_000, 2_900_000, 50_000),
            record(10_000, 0, 0),
        ];
        // 1 ms client p999: both millisecond-scale records are tail.
        let a = attribute_tail(&records, Some(1_000)).expect("non-empty");
        assert_eq!(a.source, "client-p999");
        assert_eq!(a.tail, 2);
        assert!(a.wait_pct > 90.0);
        // A p999 nothing clears still attributes the single slowest.
        let a = attribute_tail(&records, Some(60_000_000)).expect("non-empty");
        assert_eq!(a.tail, 1);
        assert_eq!(a.cutoff_us, 3_000);
        assert!(attribute_tail(&[], Some(1)).is_none());
    }

    #[test]
    fn resilience_line_breaks_sheds_and_faults_down_by_label() {
        let registry = ropuf_telemetry::Registry::new();
        let quiet = registry.snapshot();
        let text = render_resilience(&quiet, &quiet, 1.0);
        assert!(text.contains("no sheds"), "quiet server: {text}");

        registry
            .counter("server.shed", &[("class", "scrape")])
            .add(9);
        registry
            .counter("server.shed", &[("class", "verdict")])
            .add(3);
        registry
            .counter("faults.injected", &[("kind", "wal_append")])
            .inc();
        registry.counter("server.degraded_transitions", &[]).inc();
        let loud = registry.snapshot();
        let text = render_resilience(&quiet, &loud, 2.0);
        assert!(text.contains("shed 12"), "{text}");
        assert!(text.contains("scrape 9"), "{text}");
        assert!(text.contains("verdict 3"), "{text}");
        assert!(text.contains("(6/s)"), "12 sheds over 2 s: {text}");
        assert!(text.contains("degraded transitions 1"), "{text}");
        assert!(text.contains("faults injected 1 [wal_append 1]"), "{text}");
    }

    #[test]
    fn density_ramp_is_monotone_and_bounded() {
        assert_eq!(density_char(0, 100), ' ');
        assert_eq!(density_char(5, 0), ' ');
        assert_eq!(density_char(100, 100), '@');
        let mut last = 0usize;
        for c in (1..=100).map(|n| density_char(n, 100)) {
            let level = DENSITY.iter().position(|&d| d as char == c).expect("ramp");
            assert!(level >= last.min(1), "never back to empty");
            assert!(level >= 1);
            last = level;
        }
    }

    #[test]
    fn heatmap_renders_bands_up_to_the_slowest() {
        let mut point = SeriesPoint::default();
        point.latency[0] = 3;
        point.latency[9] = 1;
        let series = TimeSeriesSnapshot {
            sampled: 1,
            interval_ns: 250_000_000,
            points: vec![point],
        };
        let text = render_heatmap(&series, 48);
        assert!(text.contains(">=   512 us"), "band 9 row present:\n{text}");
        assert!(text.contains(">=     0 us"), "band 0 row present:\n{text}");
        assert!(!text.contains(">= 32768 us"), "empty top bands skipped");
        let empty = render_heatmap(&TimeSeriesSnapshot::default(), 48);
        assert!(empty.contains("no time-series points"));
    }
}
