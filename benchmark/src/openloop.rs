//! Open-loop, pipelined load generation over TCP.
//!
//! Requests go out on a fixed schedule whatever the server does: each
//! stream of a [`Phase`] sends at a constant rate, and a request's
//! latency runs from its *intended* send time to the arrival of its
//! answer (the wrk2 / HdrHistogram correction for coordinated
//! omission). A server stall is therefore charged to every request
//! scheduled behind it. The generator's own lateness (`lag`) is
//! recorded per request so a slow generator cannot pass for a fast
//! server.
//!
//! One thread does the work (see [`run`]): it polls its non-blocking
//! connections without sleeping, sends each request when it comes due
//! (pipelined: every due frame of a connection goes out in one
//! `write`), and matches answers to requests in per-connection FIFO
//! order. The server's loops and this thread are the only busy threads,
//! so on a two-core host each has a core.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ropuf_proto::{append_frame, ErrorCode, Request, Response, PROTOCOL_VERSION};

/// Request classes the generator keeps apart.
pub const AUTH: usize = 0;
/// `MetricsSnapshot` scrapes.
pub const METRICS: usize = 1;
/// `TimeSeriesDump` scrapes.
pub const TIMESERIES: usize = 2;
/// Wire enrollments.
pub const ENROLL: usize = 3;
/// Number of classes.
pub const CLASSES: usize = 4;

/// How long a phase waits for outstanding answers before counting
/// them missing.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);

/// Most requests in flight on one connection. A server this far behind
/// is treated like one that stopped reading: nothing more is sent until
/// it catches up. This keeps the generator's memory independent of how
/// far an overloaded server falls behind.
const MAX_IN_FLIGHT: usize = 4096;

/// What a correct answer to one request looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A benign authentication: `Verdict(Accept)`.
    Accept,
    /// Query `index` (1-based) of attacker `attacker`'s replayed
    /// trajectory: any verdict, or `DeviceFlagged`.
    Attack {
        /// Attacker ordinal.
        attacker: u32,
        /// 1-based position in the trajectory.
        index: u32,
    },
    /// `EnrollOk` echoing this id.
    Enrolled(u64),
    /// A `MetricsBin` blob.
    Metrics,
    /// A `TimeSeriesBin` blob.
    TimeSeries,
    /// Any answer but an error.
    #[cfg_attr(not(test), allow(dead_code))]
    AnyOk,
}

/// Produces the requests the schedule asks for.
pub trait Source {
    /// Encodes the next request of `class` into `payload` (a frame
    /// payload, without the length prefix) and returns the connection
    /// index it must travel on and its expected answer.
    fn next(&mut self, class: usize, payload: &mut Vec<u8>) -> (usize, Expect);
}

/// One constant-rate stream inside a phase.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    /// Request class.
    pub class: usize,
    /// Offered requests per second.
    pub rate: f64,
}

/// A stretch of the schedule: streams merged by due time.
#[derive(Debug, Clone)]
pub struct Phase {
    /// The streams.
    pub streams: Vec<Stream>,
    /// Length of the schedule, seconds.
    pub seconds: f64,
}

impl Phase {
    /// Total offered rate.
    pub fn offered(&self) -> f64 {
        self.streams.iter().map(|s| s.rate).sum()
    }

    /// Requests of `class` this phase schedules.
    pub fn planned(&self, class: usize) -> u64 {
        self.streams
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.seconds_count(self.seconds))
            .sum()
    }
}

impl Stream {
    fn offset(&self, k: u64) -> f64 {
        // Streams start half an interval in, so merged streams do not
        // all fire at t = 0.
        (k as f64 + 0.5) / self.rate
    }

    fn seconds_count(&self, seconds: f64) -> u64 {
        let mut k = 0;
        while self.offset(k) < seconds {
            k += 1;
        }
        k
    }
}

/// Everything measured in one phase.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Latency from intended send to answer, ns, per class.
    pub lat_ns: [Vec<u64>; CLASSES],
    /// Generator lateness (actual minus intended send), ns.
    pub lag_ns: Vec<u64>,
    /// Largest number of requests in flight at any write.
    pub backlog_max: u64,
    /// Longest stretch during which the generator held requests back
    /// because a socket took no more bytes or too many requests were in
    /// flight, ns: long ones mean the server fell behind.
    pub write_max_ns: u64,
    /// Requests sent.
    pub sent: u64,
    /// Correct answers.
    pub ok: u64,
    /// Wrong answers, missing answers and transport errors.
    pub failed: u64,
    /// Benign authentications among `failed`.
    pub failed_benign: u64,
    /// Schedule start to last answer.
    pub wall: Duration,
    /// Traced: building + encoding one request, ns.
    pub encode_ns: Vec<u64>,
    /// Traced: one `write` call, ns.
    pub write_ns: Vec<u64>,
    /// Traced: decoding one answer, ns.
    pub decode_ns: Vec<u64>,
    /// Traced: encode start to answer, ns, per class.
    pub service_ns: [Vec<u64>; CLASSES],
}

impl PhaseStats {
    /// Frees the per-request samples, keeping the counts.
    pub fn drop_samples(&mut self) {
        let counts = (
            self.sent,
            self.ok,
            self.failed,
            self.failed_benign,
            self.backlog_max,
            self.write_max_ns,
            self.wall,
        );
        *self = Self::default();
        (
            self.sent,
            self.ok,
            self.failed,
            self.failed_benign,
            self.backlog_max,
            self.write_max_ns,
            self.wall,
        ) = counts;
    }
}

/// A whole generator run.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Per phase, in schedule order.
    pub phases: Vec<PhaseStats>,
    /// Attacker ordinal -> 1-based index of its first `DeviceFlagged`.
    pub first_flag: HashMap<u32, u32>,
}

/// Connections dialed to a server, with the loop each one landed on.
#[derive(Debug)]
pub struct Dialed {
    /// The kept connections.
    pub streams: Vec<TcpStream>,
    /// `LoopInfo` loop id of each kept connection.
    pub loop_ids: Vec<u32>,
    /// Loops the server runs.
    pub loops: u32,
    /// Connections opened in total (kept or dropped).
    pub attempts: u32,
    /// Frames sent while dialing (two per attempt).
    pub frames: u64,
}

/// Dials `want` connections, re-dialing until they cover
/// `min(want, loops)` distinct event loops (the kernel's
/// `SO_REUSEPORT` hash otherwise often lands every connection on one
/// loop). Each connection is greeted with `Hello` and probed with
/// `LoopInfo`.
///
/// # Errors
///
/// Connection or handshake failures.
pub fn dial(addr: SocketAddr, want: usize) -> io::Result<Dialed> {
    let mut dialed = Dialed {
        streams: Vec::new(),
        loop_ids: Vec::new(),
        loops: 1,
        attempts: 0,
        frames: 0,
    };
    while dialed.streams.len() < want {
        dialed.attempts += 1;
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let hello = Request::Hello {
            protocol: PROTOCOL_VERSION,
            client: "ropuf-benchmark".into(),
        };
        let (loop_id, loops) = match exchange(&mut stream, &[hello, Request::LoopInfo])?[..] {
            [Response::HelloOk { .. }, Response::LoopInfoOk { loop_id, loops }] => (loop_id, loops),
            _ => return Err(io::Error::other("unexpected handshake answer")),
        };
        dialed.frames += 2;
        dialed.loops = loops.max(1);
        let distinct_needed = want.min(dialed.loops as usize);
        let covered = |ids: &[u32]| {
            let mut v = ids.to_vec();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        let new_loop = !dialed.loop_ids.contains(&loop_id);
        let slots_left = want - dialed.streams.len();
        let loops_missing = distinct_needed - covered(&dialed.loop_ids);
        if new_loop || slots_left > loops_missing || dialed.attempts >= 64 {
            dialed.streams.push(stream);
            dialed.loop_ids.push(loop_id);
        }
    }
    Ok(dialed)
}

/// Sends `requests` pipelined and reads one answer each (blocking).
fn exchange(stream: &mut TcpStream, requests: &[Request]) -> io::Result<Vec<Response>> {
    let mut out = Vec::new();
    let mut payload = Vec::new();
    for request in requests {
        request.encode_into(&mut payload);
        append_frame(&mut out, &payload).map_err(io::Error::other)?;
    }
    stream.write_all(&out)?;
    let mut answers = Vec::with_capacity(requests.len());
    for _ in requests {
        let mut len = [0u8; 4];
        stream.read_exact(&mut len)?;
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut body)?;
        answers.push(Response::decode(&body).map_err(io::Error::other)?);
    }
    Ok(answers)
}

/// A request waiting for its answer.
struct Meta {
    due: Instant,
    sent: Instant,
    class: usize,
    expect: Expect,
}

/// One connection's buffers and the requests in flight on it, oldest
/// first (answers come back in request order).
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    waiting: VecDeque<Meta>,
}

/// Runs `phases` back to back over `streams`, draining between phases.
///
/// One thread does all the work and never sleeps: it sends every
/// request that has come due, writes what the sockets take, and reads
/// what has arrived, round and round, so its own lateness (`lag`) stays
/// at the cost of one round. When a socket stops taking bytes (the
/// server stopped reading) or [`MAX_IN_FLIGHT`] requests await answers
/// on a connection, no new request goes out until that clears, so a
/// server that falls far behind shows as lag, like a blocked `write`.
///
/// `traced` adds the client spans (encode, write, decode, service
/// time); everything else is measured either way.
///
/// # Errors
///
/// Socket setup failures. Failures while running are counted, not
/// returned.
pub fn run(
    streams: &[TcpStream],
    phases: &[Phase],
    source: &mut dyn Source,
    traced: bool,
) -> io::Result<RunStats> {
    let mut conns = Vec::with_capacity(streams.len());
    for s in streams {
        let stream = s.try_clone()?;
        stream.set_nonblocking(true)?;
        conns.push(Conn {
            stream,
            out: Vec::new(),
            written: 0,
            inbuf: Vec::new(),
            waiting: VecDeque::new(),
        });
    }
    let mut run = RunStats::default();
    let mut chunk = vec![0u8; 256 * 1024];
    let mut payload = Vec::new();
    for phase in phases {
        let mut stats = PhaseStats::default();
        for c in 0..CLASSES {
            stats.lat_ns[c].reserve(phase.planned(c) as usize);
        }
        let start = Instant::now() + Duration::from_millis(2);
        let mut counts = vec![0u64; phase.streams.len()];
        let mut in_flight = 0u64;
        let mut blocked_since: Option<Instant> = None;
        let mut drain_deadline = None;
        loop {
            let now = Instant::now();
            // Send what has come due, unless a socket is full.
            while blocked_since.is_none() {
                let Some((si, offset)) = phase
                    .streams
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i, s.offset(counts[i])))
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .filter(|&(_, offset)| offset < phase.seconds)
                else {
                    break;
                };
                let due = start + Duration::from_secs_f64(offset);
                if due > now {
                    break;
                }
                let t0 = Instant::now();
                stats.lag_ns.push(nanos(t0.saturating_duration_since(due)));
                let class = phase.streams[si].class;
                let (ci, expect) = source.next(class, &mut payload);
                let conn = &mut conns[ci];
                append_frame(&mut conn.out, &payload).expect("request frame within MAX_FRAME");
                if traced {
                    stats.encode_ns.push(nanos(t0.elapsed()));
                }
                conn.waiting.push_back(Meta {
                    due,
                    sent: t0,
                    class,
                    expect,
                });
                counts[si] += 1;
                stats.sent += 1;
                in_flight += 1;
                stats.backlog_max = stats.backlog_max.max(in_flight);
            }
            // Write what the sockets take.
            let mut full = false;
            for conn in &mut conns {
                if conn.written == conn.out.len() {
                    continue;
                }
                let t0 = Instant::now();
                match conn.stream.write(&conn.out[conn.written..]) {
                    Ok(n) => conn.written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    // A failed write shows up as missing answers.
                    Err(_) => conn.written = conn.out.len(),
                }
                if traced {
                    stats.write_ns.push(nanos(t0.elapsed()));
                }
                if conn.written == conn.out.len() {
                    conn.out.clear();
                    conn.written = 0;
                } else {
                    full = true;
                }
            }
            full |= conns.iter().any(|c| c.waiting.len() >= MAX_IN_FLIGHT);
            let now = Instant::now();
            blocked_since = match (full, blocked_since) {
                (true, None) => Some(now),
                (true, held) => held,
                (false, held) => {
                    if let Some(since) = held {
                        stats.write_max_ns = stats.write_max_ns.max(nanos(now - since));
                    }
                    None
                }
            };
            // Read what has arrived.
            for conn in &mut conns {
                let got = match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        // Closed: whatever is in flight never gets an answer.
                        conn.waiting.drain(..).for_each(|m| stats.miss(&m));
                        continue;
                    }
                    Ok(got) => got,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                    Err(_) => {
                        conn.waiting.drain(..).for_each(|m| stats.miss(&m));
                        continue;
                    }
                };
                let now = Instant::now();
                conn.inbuf.extend_from_slice(&chunk[..got]);
                let mut at = 0;
                while conn.inbuf.len() - at >= 4 {
                    let len =
                        u32::from_le_bytes(conn.inbuf[at..at + 4].try_into().expect("4 bytes"))
                            as usize;
                    if conn.inbuf.len() - at - 4 < len {
                        break;
                    }
                    let body = &conn.inbuf[at + 4..at + 4 + len];
                    at += 4 + len;
                    let t0 = traced.then(Instant::now);
                    let answer = Response::decode(body);
                    let Some(meta) = conn.waiting.pop_front() else {
                        // An answer nobody asked for: the stream is broken.
                        continue;
                    };
                    if let Some(t0) = t0 {
                        stats.decode_ns.push(nanos(t0.elapsed()));
                        stats.service_ns[meta.class]
                            .push(nanos(now.saturating_duration_since(meta.sent)));
                    }
                    stats.wall = stats.wall.max(now.saturating_duration_since(start));
                    stats.lat_ns[meta.class].push(nanos(now.saturating_duration_since(meta.due)));
                    match answer {
                        Ok(answer) if judge(meta.expect, &answer, &mut run.first_flag) => {
                            stats.ok += 1;
                        }
                        _ => stats.miss(&meta),
                    }
                }
                conn.inbuf.drain(..at);
            }
            in_flight = conns.iter().map(|c| c.waiting.len() as u64).sum();
            let scheduled_all = phase
                .streams
                .iter()
                .zip(&counts)
                .all(|(s, &k)| s.offset(k) >= phase.seconds);
            if scheduled_all {
                let deadline =
                    *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
                if in_flight == 0 || Instant::now() > deadline {
                    break;
                }
            }
            std::hint::spin_loop();
        }
        if let Some(since) = blocked_since {
            stats.write_max_ns = stats.write_max_ns.max(nanos(since.elapsed()));
        }
        // Whatever is still queued never got an answer.
        for conn in &mut conns {
            conn.waiting.drain(..).for_each(|m| stats.miss(&m));
            conn.out.clear();
            conn.written = 0;
        }
        run.phases.push(stats);
    }
    for conn in &conns {
        conn.stream.set_nonblocking(false)?;
    }
    Ok(run)
}

impl PhaseStats {
    /// Counts a request that got a wrong answer or none.
    fn miss(&mut self, meta: &Meta) {
        self.failed += 1;
        self.failed_benign += u64::from(meta.expect == Expect::Accept);
    }
}

/// Whether `answer` is a correct reply for `expect`; records the first
/// flag of each attacker.
pub fn judge(expect: Expect, answer: &Response, first_flag: &mut HashMap<u32, u32>) -> bool {
    match (expect, answer) {
        (Expect::Accept, Response::Verdict(v)) => v.is_accept(),
        (Expect::Attack { attacker, index }, Response::Verdict(v)) => {
            if v.is_flagged() {
                first_flag.entry(attacker).or_insert(index);
            }
            true
        }
        (
            Expect::Attack { attacker, index },
            Response::Error {
                code: ErrorCode::DeviceFlagged,
                ..
            },
        ) => {
            first_flag.entry(attacker).or_insert(index);
            true
        }
        (Expect::Enrolled(id), Response::EnrollOk { device_id }) => *device_id == id,
        (Expect::Metrics, Response::MetricsBin { .. }) => true,
        (Expect::TimeSeries, Response::TimeSeriesBin { .. }) => true,
        (Expect::AnyOk, answer) => !matches!(answer, Response::Error { .. }),
        _ => false,
    }
}

/// Saturating nanoseconds of a duration.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Samples;
    use ropuf_proto::RequestRef;
    use ropuf_server::{EventedConfig, EventedServer, RequestHandler};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    /// Answers `Hello` and `Enroll`, stalling once for `stall` on the
    /// `at`-th request it serves.
    struct StallOnce {
        at: usize,
        stall: Duration,
        served: AtomicUsize,
    }

    impl RequestHandler for StallOnce {
        fn handle(&self, request: Request) -> Response {
            if self.served.fetch_add(1, Ordering::SeqCst) == self.at {
                thread::sleep(self.stall);
            }
            match request {
                Request::Enroll { device_id, .. } => Response::EnrollOk { device_id },
                _ => Response::HelloOk {
                    protocol: PROTOCOL_VERSION,
                    server: "stub".into(),
                },
            }
        }
    }

    /// Sends `Hello`s, or `Enroll`s carrying `helper_bytes` of helper.
    struct Fixed {
        helper: Vec<u8>,
    }

    impl Source for Fixed {
        fn next(&mut self, _class: usize, payload: &mut Vec<u8>) -> (usize, Expect) {
            if self.helper.is_empty() {
                RequestRef::Hello {
                    protocol: PROTOCOL_VERSION,
                    client: "test",
                }
                .encode_into(payload);
            } else {
                RequestRef::Enroll {
                    device_id: 7,
                    scheme_tag: 1,
                    helper: &self.helper,
                    key_digest: [0; 32],
                }
                .encode_into(payload);
            }
            (0, Expect::AnyOk)
        }
    }

    fn serve_and_run(
        handler: StallOnce,
        helper_bytes: usize,
        rate: f64,
        seconds: f64,
    ) -> PhaseStats {
        let server =
            EventedServer::spawn("127.0.0.1:0", Arc::new(handler), EventedConfig::default())
                .expect("spawn stub server");
        let dialed = dial(server.local_addr(), 1).expect("dial");
        let phase = Phase {
            streams: vec![Stream { class: AUTH, rate }],
            seconds,
        };
        let mut source = Fixed {
            helper: vec![0xA5; helper_bytes],
        };
        let mut stats = run(&dialed.streams, &[phase], &mut source, true).expect("run");
        drop(dialed);
        server.shutdown();
        stats.phases.remove(0)
    }

    /// A server stall is charged to every request scheduled behind it,
    /// measured from its intended send time.
    #[test]
    fn stall_is_charged_to_requests_queued_behind_it() {
        // The dial's Hello is request 0; the stall hits the 600th
        // scheduled Hello, 0.3 s into a 2000/s schedule.
        let stall = Duration::from_millis(100);
        let stats = serve_and_run(
            StallOnce {
                at: 601,
                stall,
                served: AtomicUsize::new(0),
            },
            0,
            2000.0,
            1.0,
        );
        assert_eq!(stats.sent, 2000);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.ok, 2000);
        // Requests due during the stall waited for its end: about
        // 2000/s * 80 ms of them waited 20 ms or more.
        let late = stats.lat_ns[AUTH]
            .iter()
            .filter(|&&l| l >= 20_000_000)
            .count();
        assert!(
            (140..=220).contains(&late),
            "{late} requests charged >= 20 ms"
        );
        let lat = Samples::new(stats.lat_ns[AUTH].clone());
        assert!(lat.percentile(0.99).expect("2000 samples support p99") >= 40_000_000);
        // The generator itself kept its schedule: tiny frames never
        // filled the socket buffers.
        let lag = Samples::new(stats.lag_ns.clone());
        assert!(lag.percentile(0.99).expect("2000 samples support p99") < 20_000_000);
        // Service time (actual send to answer) hides most of the queueing
        // the intended-time clock charges.
        let served_late = stats.service_ns[AUTH]
            .iter()
            .filter(|&&l| l >= 20_000_000)
            .count();
        assert!(served_late <= late);
    }

    /// When a stall backs up into the client's socket buffers, the
    /// generator falls behind its schedule and `lag` shows it; a
    /// percentile with fewer than ten samples beyond it stays
    /// unreported.
    #[test]
    fn stall_that_blocks_the_sender_shows_in_generator_lag() {
        // 64 KiB frames at 1000/s: a 600 ms stall outgrows the kernel's
        // loopback buffers, so writes block.
        let stats = serve_and_run(
            StallOnce {
                at: 201,
                stall: Duration::from_millis(600),
                served: AtomicUsize::new(0),
            },
            64 * 1024,
            1000.0,
            1.2,
        );
        assert_eq!(stats.sent, 1200);
        assert_eq!(stats.failed, 0);
        let lag = Samples::new(stats.lag_ns.clone());
        let p99 = lag.percentile(0.99).expect("1200 samples support p99");
        assert!(p99 >= 50_000_000, "gen lag p99 {p99} ns");
        // 1200 samples leave one beyond p999: not reported.
        assert_eq!(lag.percentile(0.999), None);
    }
}
