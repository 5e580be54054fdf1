//! `daemon_mix` and `store_churn`: the mapping service under an open-loop
//! arrival schedule, driven over TCP by a client that sends every request
//! at its due time whether or not earlier replies have come back, and
//! times each request from that due time.
//!
//! Hot and cold requests travel on separate connections: a connection
//! answers in request order, so sharing one would make hot replies wait
//! behind cold solves on the client side, a head-of-line block the daemon
//! does not cause. The load uses two threads and two connections.

use crate::layers::Layers;
use crate::problems::{self, Pin, Problem};
use crate::replay::{self, Rung, StageCounts};
use crate::report::Report;
use crate::trace::{Span, Tracer, UNATTRIBUTED};
use crate::util::{self, median, Rng, Summary};
use satmapit_cgra::Cgra;
use satmapit_engine::persist::{self, StoreKind};
use satmapit_engine::{Engine, EngineConfig, Job};
use satmapit_net::{Interest, Poller, Token};
use satmapit_service::json::{self, Json};
use satmapit_service::wire::MapRequest;
use satmapit_service::{Client, Server, ServerConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Parts of the nominal phase; `peak_rss_mb` is the median of their peaks.
const NOMINAL_PARTS: usize = 4;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = NOMINAL_PARTS + 1;
/// Within this much of a due time the sender stops sleeping and yields
/// until the due time (sleep overshoot is mostly the 50 us timer slack).
const SPIN: Duration = Duration::from_micros(60);
/// How long after its last due time a phase waits for stragglers.
const DRAIN: Duration = Duration::from_secs(10);

/// What a correct reply to one request looks like.
#[derive(Debug, Clone, Copy)]
struct Expect {
    pin: Pin,
    cached: bool,
    persistent: bool,
}

/// One request line, ready to send.
#[derive(Debug)]
struct Req {
    line: Vec<u8>,
    expect: Expect,
    /// Index into the workload's problem list (for the stage replay).
    problem: usize,
}

#[derive(Debug, Clone)]
struct Arrival {
    due: Duration,
    req: Arc<Req>,
}

#[derive(Debug, Clone, Default)]
struct Sample {
    sent: Option<Duration>,
    recv: Option<Duration>,
    reply: Option<String>,
}

fn request_line(label: &str, dfg: &satmapit_dfg::Dfg, cgra: &Cgra) -> Vec<u8> {
    let req = MapRequest {
        id: None,
        name: label.to_string(),
        dfg: dfg.clone(),
        cgra: cgra.clone(),
        timeout_ms: None,
    };
    let mut line = req.to_json().to_string().into_bytes();
    line.push(b'\n');
    line
}

/// `write_all` that tolerates a nonblocking socket.
fn send(mut stream: &TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reply lines read from one connection, each with its arrival time.
#[derive(Debug)]
struct Lines {
    buf: Vec<u8>,
    got: Vec<(Duration, String)>,
    open: bool,
}

impl Lines {
    fn new() -> Lines {
        Lines {
            buf: Vec::new(),
            got: Vec::new(),
            open: true,
        }
    }

    /// Reads what `stream` has (until it would block) and splits off
    /// complete lines.
    fn pull(&mut self, mut stream: &TcpStream, t0: Instant) {
        let mut chunk = [0u8; 1 << 16];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    self.open = false;
                    return;
                }
                Ok(n) => {
                    let at = t0.elapsed();
                    crate::sys::quick_ack(stream);
                    self.buf.extend_from_slice(&chunk[..n]);
                    while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = self.buf.drain(..=pos).collect();
                        self.got
                            .push((at, String::from_utf8_lossy(&line[..pos]).into_owned()));
                    }
                    if n < chunk.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.open = false;
                    return;
                }
            }
        }
    }
}

/// Drives one phase on two connections with two threads. This thread
/// sends every request at its due time (relative to `t0`); the other
/// sleeps in epoll until either connection is readable, so each reply is
/// timestamped when it arrives, and acknowledges every read at once (see
/// [`crate::sys`]). Returns the samples of each lane, in request order.
fn drive(addr: SocketAddr, lanes: [&[Arrival]; 2], t0: Instant) -> [Vec<Sample>; 2] {
    let mut samples = lanes.map(|l| vec![Sample::default(); l.len()]);
    let (Ok(hot), Ok(cold)) = (TcpStream::connect(addr), TcpStream::connect(addr)) else {
        return samples;
    };
    let conns = [hot, cold];
    for c in &conns {
        let _ = c.set_nodelay(true);
        c.set_nonblocking(true).expect("nonblocking socket");
    }
    let give_up = lanes
        .iter()
        .filter_map(|l| l.last())
        .map(|a| a.due)
        .max()
        .unwrap_or(Duration::ZERO)
        + DRAIN;
    let mut order: Vec<(Duration, usize, usize)> = (0..2)
        .flat_map(|c| lanes[c].iter().enumerate().map(move |(i, a)| (a.due, c, i)))
        .collect();
    order.sort_unstable();
    let expected = lanes.map(<[Arrival]>::len);
    let lines = std::thread::scope(|s| {
        let reader = s.spawn(|| receive(&conns, expected, t0, give_up));
        for &(due, c, i) in &order {
            let now = t0.elapsed();
            if due > now + SPIN {
                std::thread::sleep(due - now - SPIN);
            }
            while t0.elapsed() < due {
                std::thread::yield_now();
            }
            // Stamped before the write: the reply can arrive before this
            // thread runs again.
            let at = t0.elapsed();
            if send(&conns[c], &lanes[c][i].req.line).is_err() {
                break;
            }
            samples[c][i].sent = Some(at);
        }
        reader.join().expect("reader thread panicked")
    });
    for (c, lines) in lines.into_iter().enumerate() {
        for (i, (at, line)) in lines.got.into_iter().take(expected[c]).enumerate() {
            samples[c][i].recv = Some(at);
            samples[c][i].reply = Some(line);
        }
    }
    samples
}

/// Reads reply lines from both connections until `expected` replies each
/// have arrived, a connection closes, or `give_up` passes.
fn receive(
    conns: &[TcpStream; 2],
    expected: [usize; 2],
    t0: Instant,
    give_up: Duration,
) -> [Lines; 2] {
    let mut lines = [Lines::new(), Lines::new()];
    let mut poller = Poller::new().expect("epoll instance");
    for (c, conn) in conns.iter().enumerate() {
        poller
            .add(conn, Token(c as u64), Interest::READ)
            .expect("epoll registration");
    }
    let mut events = Vec::new();
    while (0..2).any(|c| lines[c].open && lines[c].got.len() < expected[c])
        && t0.elapsed() < give_up
    {
        events.clear();
        if poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .is_err()
        {
            break;
        }
        for ev in &events {
            let c = ev.token.0 as usize;
            lines[c].pull(&conns[c], t0);
        }
    }
    lines
}

/// One request's fate, parsed after the phase so the connection threads
/// only send and receive.
#[derive(Debug, Clone)]
struct Done {
    cold: bool,
    problem: usize,
    due_us: f64,
    /// Due time to reply; `None` when the request failed.
    latency_us: Option<f64>,
    lag_us: f64,
    rtt_us: f64,
    /// The pinned answer the reply is checked against.
    pin: Pin,
    /// Achieved II the reply reports, right or wrong; `None` when no reply
    /// reported one.
    ii: Option<u32>,
    queue_us: f64,
    elapsed_us: f64,
    /// Definitive rungs the reply reports (cold replies).
    rungs: Vec<u32>,
}

/// The parsed outcome of one open-loop phase.
#[derive(Debug)]
struct Phase {
    /// The instant due times count from.
    t0: Instant,
    done: Vec<Done>,
    failed: u64,
    wrong: Vec<String>,
}

impl Phase {
    fn latencies(&self, cold: bool) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.cold == cold)
            .filter_map(|d| d.latency_us)
            .collect()
    }

    fn ok(&self) -> impl Iterator<Item = &Done> {
        self.done.iter().filter(|d| d.latency_us.is_some())
    }
}

fn parse(arrival: &Arrival, sample: &Sample, cold: bool, phase: &mut Phase) {
    let us = |d: Duration| util::us(d);
    let due_us = us(arrival.due);
    let mut done = Done {
        cold,
        problem: arrival.req.problem,
        due_us,
        latency_us: None,
        lag_us: sample.sent.map_or(0.0, |s| us(s) - due_us),
        rtt_us: 0.0,
        pin: arrival.req.expect.pin,
        ii: None,
        queue_us: 0.0,
        elapsed_us: 0.0,
        rungs: Vec::new(),
    };
    let (Some(sent), Some(recv), Some(reply)) = (sample.sent, sample.recv, &sample.reply) else {
        phase.failed += 1;
        phase.done.push(done);
        return;
    };
    let Ok(v) = json::parse(reply) else {
        phase.wrong.push(format!("unparsable reply: {reply:.120}"));
        phase.done.push(done);
        return;
    };
    let int = |v: &Json, k: &str| v.get(k).and_then(Json::as_i64).unwrap_or(-1);
    let flag = |k: &str| v.get(k).and_then(Json::as_bool).unwrap_or(false);
    if !flag("ok") {
        // Rejected, shed or errored: a failure, not a wrong answer.
        phase.failed += 1;
        phase.done.push(done);
        return;
    }
    let expect = arrival.req.expect;
    let result = v.get("result").cloned().unwrap_or(Json::Null);
    let (ii, mii) = (int(&result, "ii"), int(&result, "mii"));
    done.ii = u32::try_from(ii).ok();
    if ii != i64::from(expect.pin.ii) || mii != i64::from(expect.pin.mii) {
        phase.wrong.push(format!(
            "request for problem {} answered (MII, II) = ({mii}, {ii}), pinned ({}, {})",
            arrival.req.problem, expect.pin.mii, expect.pin.ii
        ));
        phase.done.push(done);
        return;
    }
    if flag("cached") != expect.cached || flag("persistent") != expect.persistent {
        phase.failed += 1;
        phase.done.push(done);
        return;
    }
    if let Some(attempts) = result.get("attempts").and_then(Json::as_arr) {
        done.rungs = attempts
            .iter()
            .filter(|a| {
                a.get("outcome")
                    .and_then(Json::as_str)
                    .is_some_and(|o| !o.contains("Cancelled"))
            })
            .filter_map(|a| a.get("ii").and_then(Json::as_i64))
            .map(|ii| ii as u32)
            .collect();
    }
    done.latency_us = Some(us(recv) - due_us);
    done.rtt_us = us(recv) - us(sent);
    done.queue_us = int(&v, "queue_us") as f64;
    done.elapsed_us = int(&v, "elapsed_us") as f64;
    phase.done.push(done);
}

/// Runs one open-loop phase: `hot` and `cold` arrivals on their own
/// connections, starting together.
fn run_phase(addr: SocketAddr, hot: &[Arrival], cold: &[Arrival]) -> Phase {
    let t0 = Instant::now() + Duration::from_millis(5);
    let [hot_samples, cold_samples] = drive(addr, [hot, cold], t0);
    let mut phase = Phase {
        t0,
        done: Vec::new(),
        failed: 0,
        wrong: Vec::new(),
    };
    for (a, s) in hot.iter().zip(&hot_samples) {
        parse(a, s, false, &mut phase);
    }
    for (a, s) in cold.iter().zip(&cold_samples) {
        parse(a, s, true, &mut phase);
    }
    phase.done.sort_by(|a, b| a.due_us.total_cmp(&b.due_us));
    phase
}

/// Records one span tree per request: the request root (charged to
/// `net`: event loop, framing and JSON codec) with the generator's lag,
/// the admission-queue wait and the engine's serve time as children.
fn trace_phase(tracer: &Tracer, phase: &Phase, base_req: u64) {
    for (i, d) in phase.ok().enumerate() {
        let at = |us: f64| phase.t0 + Duration::from_nanos((us.max(0.0) * 1e3) as u64);
        let sent = d.due_us + d.lag_us;
        let recv = d.due_us + d.latency_us.unwrap_or(0.0);
        // The daemon reports its queue wait and serve time; the client saw
        // the round trip. Lay them out in order inside the round trip,
        // with the network and codec time split around them.
        let net = (d.rtt_us - d.queue_us - d.elapsed_us).max(0.0);
        let queue_start = (sent + net / 2.0).min(recv);
        let queue_end = (queue_start + d.queue_us).min(recv);
        let serve_end = (queue_end + d.elapsed_us).min(recv);
        let span = |name, layer, a: f64, b: f64| Span {
            name,
            layer,
            start: at(a),
            end: at(b.max(a)),
            parent: None,
            req: base_req + i as u64,
        };
        tracer.record_tree(&[
            (span("request", "net", d.due_us, recv), None),
            (span("gen.lag", "gen", d.due_us, sent), Some(0)),
            (
                span("service.queue", "service", queue_start, queue_end),
                Some(0),
            ),
            (
                span("engine.serve", "engine", queue_end, serve_end),
                Some(0),
            ),
        ]);
    }
}

/// An in-process daemon and the thread running it.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(cache_dir: Option<&Path>) -> Daemon {
        let config = ServerConfig {
            cache_dir: cache_dir.map(Path::to_path_buf),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("the daemon binds");
        let addr = server.local_addr();
        Daemon {
            addr,
            thread: std::thread::spawn(move || server.run()),
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr.to_string()).expect("the daemon accepts")
    }

    fn stats(&self) -> Json {
        self.client().stats().expect("stats answers")
    }

    fn stop(self) {
        let _ = self.client().shutdown();
        self.thread
            .join()
            .expect("daemon thread panicked")
            .expect("daemon shut down cleanly");
    }
}

/// Starts a daemon and brings it to its first useful answer: every hot
/// problem in `warm` answered from the cache. Returns it with the time
/// that took.
fn start_ready(store_dir: Option<&Path>, warm: &[Arc<Req>]) -> (Daemon, f64) {
    let t = Instant::now();
    let daemon = Daemon::start(store_dir);
    let mut client = daemon.client();
    for req in warm {
        let line = std::str::from_utf8(&req.line[..req.line.len() - 1]).expect("utf-8");
        let request = json::parse(line).expect("request line is JSON");
        for _ in 0..3 {
            let reply = client.roundtrip(&request).expect("warm-up reply");
            if reply.get("cached").and_then(Json::as_bool) == Some(true) {
                break;
            }
        }
    }
    (daemon, t.elapsed().as_secs_f64())
}

fn stat(v: &Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_i64().unwrap_or(0) as f64
}

/// A schedule of `secs` seconds at `rate` requests per second, two in
/// every `cold_every` cold. Cold requests come in pairs, like two new
/// kernels submitted together, evenly spaced from a seeded offset: a pair
/// occupies both workers at once, and the hot requests that arrive
/// meanwhile wait, which is the head-of-line waiting the hot tail
/// measures. Hot requests arrive at seeded uniformly random times (a
/// Poisson stream of fixed size), so their waits sample every point of a
/// pair's solve window rather than a fixed grid of it, and the tail moves
/// smoothly with the solve time. Hot requests cycle through `hot` in a
/// seeded order; each cold arrival takes the next unused cold request.
fn schedule(
    rng: &mut Rng,
    rate: f64,
    secs: f64,
    cold_every: usize,
    hot: &[Arc<Req>],
    cold: &mut dyn FnMut(&mut Rng) -> Arc<Req>,
) -> (Vec<Arrival>, Vec<Arrival>) {
    let n = (rate * secs).round() as usize;
    let pairs = n / cold_every;
    let period = cold_every as f64 / rate;
    let offset = rng.unit() * period;
    let mut c = Vec::with_capacity(2 * pairs);
    for p in 0..pairs {
        for second in [0.0, 1.0] {
            let due = Duration::from_secs_f64(offset + p as f64 * period + second / rate);
            c.push(Arrival {
                due,
                req: cold(rng),
            });
        }
    }
    let mut order: Vec<usize> = (0..hot.len()).collect();
    rng.shuffle(&mut order);
    let mut dues: Vec<f64> = (0..n - 2 * pairs).map(|_| rng.unit() * secs).collect();
    dues.sort_by(f64::total_cmp);
    let h = dues
        .into_iter()
        .enumerate()
        .map(|(i, due)| Arrival {
            due: Duration::from_secs_f64(due),
            req: hot[order[i % order.len()]].clone(),
        })
        .collect();
    (h, c)
}

/// The per-workload knobs of the shared service benchmark.
struct Mix {
    name: &'static str,
    /// Offered rate of the nominal phase, requests per second.
    nominal_rate: f64,
    /// A pair of cold requests in every this many arrivals.
    cold_every: usize,
    /// The latency limit a request must meet to count towards
    /// `sustained_rps`.
    limit_us: f64,
}

const DAEMON_MIX: Mix = Mix {
    name: "daemon_mix",
    // High enough that the hot tail has tens of samples beyond it. The
    // hot requests that arrive while a cold pair holds both workers queue
    // for them, and the admission queue (64 deep) overflows once about 64
    // arrive within one pair's solve: near 700 requests/s on the
    // reference box, and lower when the host runs slow. This rate keeps
    // a margin of two to that.
    nominal_rate: 300.0,
    // 0.8% cold: a pair every 833 ms, which keeps each core about a
    // tenth busy solving, and 24 pairs per nominal phase at 30 seconds, so
    // every pair of the four templates occurs equally often. Hot requests
    // that arrive during a pair wait for a worker (the head-of-line
    // waiting the hot tail measures); about a seventh of them do, so the
    // hot median stays a memory hit even when the host runs slow. Near
    // the edge of the waiting share the median jumps: with a pair every
    // 250 ms up to half waited and it moved from 0.3 ms to 0.9 ms between
    // runs, and with a pair every 333 ms slow phases of the host pushed
    // the share past a third and the median from 0.27 ms to 0.68 ms.
    cold_every: 250,
    // Above one cold solve with some queueing.
    limit_us: 250_000.0,
};

const STORE_CHURN: Mix = Mix {
    name: "store_churn",
    // Requests queue behind each compaction stall, and the admission
    // queue (64 deep) overflows once a stall lasts 64 arrivals; at
    // 400 requests/s slow phases of the host made stalls that long. This
    // rate keeps a margin of over two to the rate the daemon sustains.
    nominal_rate: 300.0,
    // 50% cold: 3000 cold solves, so about 23 compactions (one every 256
    // store appends, results and bounds), per nominal phase at 30
    // seconds. Each compaction stalls the requests behind it; at this
    // share the stalled ones are a few percent of each class, so both
    // tails fall well inside the stalls rather than on their edge.
    cold_every: 4,
    // Compaction stalls alone cost tens of milliseconds.
    limit_us: 150_000.0,
};

/// Suite problems that map in milliseconds: the warmed hot set of
/// `daemon_mix` and the templates of the `store_churn` store.
const HOT_SET: &[(&str, u16)] = &[
    ("sha", 3),
    ("sha", 4),
    ("gsm", 4),
    ("bitcount", 3),
    ("nw", 4),
    ("srand", 2),
    ("srand", 3),
    ("srand", 4),
    ("sha2", 2),
    ("sha2", 4),
    ("basicmath", 2),
    ("basicmath", 3),
    ("basicmath", 4),
    ("stringsearch", 2),
    ("stringsearch", 3),
];

/// Cold templates of `daemon_mix`: suite kernels at 2x2/3x3 whose solves
/// take 75-100 ms each on one thread, cycled in equal shares so every seed
/// offers the same solve work. Solves this long make the head-of-line
/// waits long against the host's scheduling hiccups of a few
/// milliseconds; with 10-20 ms solves those hiccups set the hot tail, and
/// it moved by 40% from run to run.
const COLD_SET: &[(&str, u16)] = &[("bitcount", 2), ("nw", 2), ("gsm", 3), ("sha2", 3)];

fn suite_problems(set: &[(&str, u16)], rng: &mut Rng) -> Vec<Problem> {
    set.iter()
        .map(|&(name, size)| {
            let kernel = satmapit_kernels::by_name(name).expect("suite kernel");
            let k = problems::perturbed_kernel(&kernel, rng, 8);
            Problem {
                label: format!("{name}@{size}x{size}"),
                dfg: k.dfg,
                cgra: Cgra::square(size),
                pin: problems::pinned(name, size),
            }
        })
        .collect()
}

/// Rungs in a row that must saturate before the ladder stops.
const SATURATED_RUNGS: usize = 3;
/// Each rung offers this much more than the one before.
const RUNG_STEP: f64 = 1.25;
/// The most rungs a ladder may run (a time cap: each lasts a fixed share
/// of the run). From the nominal rate this reaches 87 times it, far
/// beyond the daemon's capacity on any box one sender thread can load.
const MAX_RUNGS: usize = 20;

/// Runs a rate ladder upwards from the nominal rate, 25% more each rung,
/// until three rungs in a row are saturated, and returns the offered rate
/// at which the daemon stops keeping up. A rung keeps up when at least
/// 95% of its requests (either class) are answered correctly within the
/// limit; past that the daemon's admission queue overflows and rejects
/// the excess. The rate returned is where the in-time share crosses 95%,
/// interpolated linearly between the last rung that kept up (or the
/// nominal rate) and the first of the three saturated rungs, so it moves
/// continuously with the daemon's speed rather than in rung steps. A
/// rung that one stall of the host saturates is forgotten when the next
/// keeps up. Returns `None` when the ladder hit its rung cap first. Also
/// returns a line per rung.
fn ladder(
    mix: &Mix,
    addr: SocketAddr,
    rng: &mut Rng,
    rung_secs: f64,
    hot: &[Arc<Req>],
    cold: &mut dyn FnMut(&mut Rng) -> Arc<Req>,
    wrong: &mut Vec<String>,
) -> (Option<f64>, Vec<String>) {
    const KEEPS_UP: f64 = 0.95;
    let mut notes = Vec::new();
    // (offered rate, in-time share) of the last rung that kept up.
    let mut kept = (mix.nominal_rate, 1.0);
    let mut crossing = None;
    let mut saturated = 0;
    let mut rate = mix.nominal_rate;
    for _ in 0..MAX_RUNGS {
        rate *= RUNG_STEP;
        let (h, c) = schedule(rng, rate, rung_secs, mix.cold_every, hot, cold);
        let phase = run_phase(addr, &h, &c);
        wrong.extend(phase.wrong.iter().cloned());
        let in_time = phase
            .ok()
            .filter(|d| d.latency_us.is_some_and(|l| l <= mix.limit_us))
            .count();
        let share = in_time as f64 / phase.done.len().max(1) as f64;
        notes.push(format!(
            "ladder {rate:.0}/s: {:.1}% in time, failed {}",
            100.0 * share,
            phase.failed
        ));
        if share >= KEEPS_UP {
            kept = (rate, share);
            saturated = 0;
            continue;
        }
        if saturated == 0 {
            let (r1, s1) = kept;
            crossing = Some(r1 + (rate - r1) * (s1 - KEEPS_UP) / (s1 - share));
        }
        saturated += 1;
        if saturated == SATURATED_RUNGS {
            return (crossing, notes);
        }
    }
    (None, notes)
}

pub fn run_mix(seed: u64, seconds: u64, tracer: &Tracer) -> Report {
    run_service(&DAEMON_MIX, seed, seconds, tracer)
}

pub fn run_store(seed: u64, seconds: u64, tracer: &Tracer) -> Report {
    run_service(&STORE_CHURN, seed, seconds, tracer)
}

/// Number of real result records the `store_churn` store is written with.
const STORE_RECORDS: usize = 8192;
/// Distinct stored problems the persistent-hit replays draw from.
const STORE_HOT_DISTINCT: usize = 1024;

/// Writes the `store_churn` store: `STORE_RECORDS` records, each the real
/// result of a hot-set template, keyed by a copy of the template with a
/// distinct immediate (a different problem to the cache, an identical
/// one to the solver). Returns the hot requests drawn from it.
fn write_store(dir: &Path, templates: &[Problem], rng: &mut Rng) -> Vec<Arc<Req>> {
    let engine = Engine::new(EngineConfig::default());
    let jobs = templates
        .iter()
        .map(|p| Job::new(p.label.clone(), p.dfg.clone(), p.cgra.clone()))
        .collect();
    let outcomes = engine.map_batch(jobs);
    let config = EngineConfig::default();
    let base = 1_000_000 + rng.below(1_000_000) as i64;
    let mut payloads = Vec::with_capacity(STORE_RECORDS);
    let mut hot = Vec::new();
    let mut picks: Vec<usize> = (0..STORE_RECORDS).collect();
    rng.shuffle(&mut picks);
    picks.truncate(STORE_HOT_DISTINCT);
    picks.sort_unstable();
    for i in 0..STORE_RECORDS {
        let t = i % templates.len();
        let template = &templates[t];
        let which = rng.below(problems::num_consts(&template.dfg).max(1));
        let dfg = problems::with_immediate(&template.dfg, which, base + i as i64);
        let key = satmapit_engine::fingerprint::fingerprint(&dfg, &template.cgra, &config);
        payloads.push(persist::encode_result_record(key, &outcomes[t].outcome));
        if picks.binary_search(&i).is_ok() {
            hot.push(Arc::new(Req {
                line: request_line(&template.label, &dfg, &template.cgra),
                expect: Expect {
                    pin: template.pin,
                    cached: true,
                    persistent: true,
                },
                problem: t,
            }));
        }
    }
    std::fs::create_dir_all(dir).expect("store directory");
    persist::rewrite(
        &dir.join(persist::RESULTS_FILE),
        StoreKind::Results,
        &payloads,
        true,
    )
    .expect("store written");
    hot
}

fn run_service(mix: &Mix, seed: u64, seconds: u64, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(seed);
    let store = mix.name == "store_churn";
    let store_dir: Option<PathBuf> = store
        .then(|| Path::new(crate::OUT_DIR).join(format!("store-{}-{seed}", std::process::id())));

    // Inputs (not timed): the hot requests and a source of unique cold
    // requests, all made from the seed.
    let hot_problems = suite_problems(HOT_SET, &mut rng);
    let cold_problems = suite_problems(COLD_SET, &mut rng);
    let hot: Vec<Arc<Req>> = match &store_dir {
        Some(dir) => write_store(dir, &hot_problems, &mut rng),
        None => hot_problems
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Arc::new(Req {
                    line: request_line(&p.label, &p.dfg, &p.cgra),
                    expect: Expect {
                        pin: p.pin,
                        cached: true,
                        persistent: false,
                    },
                    problem: i,
                })
            })
            .collect(),
    };
    let mut layers = Layers::default();
    let cold_base = 2_000_000 + rng.below(1_000_000) as i64;
    // Cold templates in a seeded order of all their pairs, so every pair
    // of templates shares the workers equally often on every seed.
    let mut pairs: Vec<[usize; 2]> = (0..cold_problems.len())
        .flat_map(|a| (a + 1..cold_problems.len()).map(move |b| [a, b]))
        .collect();
    rng.shuffle(&mut pairs);
    let cold_order: Vec<usize> = pairs.into_iter().flatten().collect();
    let mut cold_count = 0i64;
    let mut next_cold = |rng: &mut Rng| -> Arc<Req> {
        cold_count += 1;
        let imm = cold_base + cold_count;
        if store {
            let cgra = Cgra::square(2);
            Arc::new(Req {
                line: request_line("chain", &problems::trivial_chain(imm), &cgra),
                expect: Expect {
                    pin: Pin { mii: 1, ii: 1 },
                    cached: false,
                    persistent: false,
                },
                problem: usize::MAX,
            })
        } else {
            let t = cold_order[(cold_count - 1) as usize % cold_order.len()];
            let p = &cold_problems[t];
            let which = rng.below(problems::num_consts(&p.dfg).max(1));
            let dfg = problems::with_immediate(&p.dfg, which, imm);
            Arc::new(Req {
                line: request_line(&p.label, &dfg, &p.cgra),
                expect: Expect {
                    pin: p.pin,
                    cached: false,
                    persistent: false,
                },
                problem: t,
            })
        }
    };

    if let (Some(dir), true) = (&store_dir, tracer.enabled()) {
        // The store as written, loaded the way the daemon loads it.
        let root = tracer.open("load", UNATTRIBUTED, None, 1);
        let loaded = tracer.time("persist.load", "persist", root, 1, || {
            persist::load_results(dir)
        });
        tracer.close(root);
        let records = loaded.map_or(0, |(map, _)| map.len());
        layers.set("persist.records_loaded", records as f64);
        let bytes = std::fs::metadata(dir.join(persist::RESULTS_FILE)).map_or(0, |m| m.len());
        layers.set("persist.store_bytes", bytes as f64);
        layers.set(
            "persist.bytes_per_record",
            bytes as f64 / records.max(1) as f64,
        );
    }

    // Set-up, timed. A store may be open in only one daemon at a time, so
    // store_churn's extra set-ups run before the measured daemon starts;
    // daemon_mix runs one before each nominal part, so its set-up time is
    // sampled across the run like everything else.
    let warm: &[Arc<Req>] = if store { &hot[..1] } else { &hot };
    let mut setups = Vec::new();
    if store {
        for _ in 1..SETUP_REPS {
            let (d, t) = start_ready(store_dir.as_deref(), warm);
            setups.push(t);
            d.stop();
        }
    }
    let (daemon, t) = start_ready(store_dir.as_deref(), warm);
    setups.push(t);
    let stats0 = daemon.stats();

    let secs = seconds as f64;
    let nominal_secs = if tracer.enabled() {
        0.3 * secs
    } else {
        2.0 / 3.0 * secs
    };
    // The nominal phase runs as a few back-to-back parts so the peak
    // resident set can be taken per part.
    let mut nominal: Option<Phase> = None;
    let mut rss = Vec::new();
    for _ in 0..NOMINAL_PARTS {
        if !store {
            let (d, t) = start_ready(None, warm);
            setups.push(t);
            d.stop();
        }
        let part_secs = nominal_secs / NOMINAL_PARTS as f64;
        let (h, c) = schedule(
            &mut rng,
            mix.nominal_rate,
            part_secs,
            mix.cold_every,
            &hot,
            &mut next_cold,
        );
        util::reset_peak_rss();
        let part = run_phase(daemon.addr, &h, &c);
        rss.push(util::peak_rss_mb());
        match &mut nominal {
            None => nominal = Some(part),
            Some(all) => {
                all.failed += part.failed;
                all.wrong.extend(part.wrong);
                all.done.extend(part.done);
            }
        }
    }
    let nominal = nominal.expect("at least one nominal part");
    report.attempted += nominal.done.len() as u64;
    report.failed += nominal.failed;
    for w in &nominal.wrong {
        report.wrong_answer(w.clone());
    }
    let hot_lat = Summary::of(&nominal.latencies(false));
    let cold_lat = Summary::of(&nominal.latencies(true));
    let stats1 = daemon.stats();

    let sustained = if tracer.enabled() {
        // The traced run repeats the nominal phase with spans on; the
        // difference in hot p50 is the tracing overhead.
        let (h, c) = schedule(
            &mut rng,
            mix.nominal_rate,
            nominal_secs,
            mix.cold_every,
            &hot,
            &mut next_cold,
        );
        let traced = run_phase(daemon.addr, &h, &c);
        trace_phase(tracer, &traced, 1 << 32);
        let traced_hot = Summary::of(&traced.latencies(false));
        layers.set("trace.overhead_us", traced_hot.p50 - hot_lat.p50);
        let all: Vec<&Done> = nominal.ok().chain(traced.ok()).collect();
        let pick = |f: fn(&Done) -> f64| Summary::of(&all.iter().map(|d| f(d)).collect::<Vec<_>>());
        let q = pick(|d| d.queue_us);
        layers.set("service.queue_p50_us", q.p50);
        layers.set("service.queue_tail_us", q.tail);
        let solve: Vec<f64> = all
            .iter()
            .filter(|d| d.cold)
            .map(|d| d.elapsed_us)
            .collect();
        let s = Summary::of(&solve);
        layers.set("service.solve_p50_us", s.p50);
        layers.set("service.solve_tail_us", s.tail);
        let n = pick(|d| (d.rtt_us - d.queue_us - d.elapsed_us).max(0.0));
        layers.set("net.overhead_p50_us", n.p50);
        layers.set("net.overhead_tail_us", n.tail);
        layers.set("gen.lag_tail_us", pick(|d| d.lag_us).tail);
        0.0
    } else {
        let lag = Summary::of(&nominal.done.iter().map(|d| d.lag_us).collect::<Vec<_>>());
        report.note(format!(
            "generator lag: p50 {:.0} us, tail p{} {:.0} us",
            lag.p50, lag.tail_pct, lag.tail
        ));
        let rung_secs = secs / 25.0;
        let mut wrong = Vec::new();
        let (rate, notes) = ladder(
            mix,
            daemon.addr,
            &mut rng,
            rung_secs,
            &hot,
            &mut next_cold,
            &mut wrong,
        );
        for n in notes {
            report.note(n);
        }
        for w in wrong {
            report.broken(w);
        }
        rate.unwrap_or_else(|| {
            report.invalid = Some(format!(
                "the load ladder ran {MAX_RUNGS} rungs without {SATURATED_RUNGS} saturated in a row"
            ));
            0.0
        })
    };

    if tracer.enabled() {
        let root = tracer.open("replay", UNATTRIBUTED, None, 0);
        let mut counts = StageCounts::default();
        if store {
            // One cold problem's solve, as the engine ran it.
            let chain = problems::trivial_chain(cold_base);
            replay::replay(
                tracer,
                root,
                0,
                &chain,
                &Cgra::square(2),
                &[Rung { ii: 1, cut: false }],
                &mut counts,
            );
        } else {
            // One cold request per template: the same work on every seed.
            let mut seen = vec![false; cold_problems.len()];
            for d in nominal.ok().filter(|d| d.cold) {
                if !std::mem::replace(&mut seen[d.problem], true) {
                    let p = &cold_problems[d.problem];
                    let rungs: Vec<Rung> =
                        d.rungs.iter().map(|&ii| Rung { ii, cut: false }).collect();
                    let ii = replay::replay(
                        tracer,
                        root,
                        d.problem as u64,
                        &p.dfg,
                        &p.cgra,
                        &rungs,
                        &mut counts,
                    );
                    if ii != Some(p.pin.ii) {
                        report.broken(format!("{}: replay mapped at {ii:?}", p.label));
                    }
                }
            }
        }
        tracer.close(root);
        layers.add_counts(&counts);
        let stats2 = daemon.stats();
        let delta = |path: &[&str]| stat(&stats2, path) - stat(&stats0, path);
        layers.set("engine.cache_hits", delta(&["cache", "hits"]));
        layers.set("engine.cache_misses", delta(&["cache", "misses"]));
        if store {
            layers.set("persist.appends", delta(&["cache", "misses"]));
            layers.set("persist.fsyncs", delta(&["cache", "fsyncs"]));
            layers.set("persist.compactions", delta(&["cache", "compactions"]));
            layers.set("persist.append_errors", delta(&["cache", "append_errors"]));
        }
        layers.set("service.shed", delta(&["shed"]));
        layers.set("service.rejected", delta(&["rejected"]));
        let spans = tracer.take();
        layers.add_spans(&spans);
        let path = Path::new(crate::OUT_DIR).join(format!("trace-{}-{seed}.json", mix.name));
        if let Err(e) = tracer.write_chrome(&spans, &path) {
            report.note(format!("trace not written: {e}"));
        }
    }
    let end_stats = daemon.stats();
    report.note(format!(
        "nominal phase: hits {} misses {}; whole run: shed {} rejected {}",
        stat(&stats1, &["cache", "hits"]) - stat(&stats0, &["cache", "hits"]),
        stat(&stats1, &["cache", "misses"]) - stat(&stats0, &["cache", "misses"]),
        stat(&end_stats, &["shed"]),
        stat(&end_stats, &["rejected"]),
    ));
    daemon.stop();
    if let Some(dir) = &store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    // Per problem template of the nominal phase, hot and cold, the worst
    // II its replies report, right or wrong; a template no reply reported
    // an II for counts at its pinned II plus a penalty, so a failure never
    // reads as a gain.
    let mut achieved: BTreeMap<(bool, usize), (Pin, Option<u32>)> = BTreeMap::new();
    for d in &nominal.done {
        let entry = achieved.entry((d.cold, d.problem)).or_insert((d.pin, None));
        entry.1 = entry.1.max(d.ii);
    }
    let ii_sum: u32 = achieved
        .values()
        .map(|(pin, ii)| ii.unwrap_or(pin.ii + problems::II_PENALTY))
        .sum();
    report.metric("setup_s", median(&setups), "s");
    report.metric("sustained_rps", sustained, "1/s");
    report.latency("hot", hot_lat, "us");
    report.latency("cold", cold_lat, "us");
    report.metric("ii_sum", f64::from(ii_sum), "II");
    report.metric(
        "ok_frac",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
    report.metric("peak_rss_mb", median(&rss), "MiB");
    report.note(format!("set-up times {setups:.4?} s"));
    if tracer.enabled() {
        layers.emit(&mut report);
    }
    report
}
