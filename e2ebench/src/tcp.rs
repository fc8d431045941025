//! The two TCP workloads. An in-process `NetServer` on 127.0.0.1:0 with
//! `ServeConfig::default()` serves two connections, each driven by one
//! closed-loop client thread that keeps `window` requests in flight. The
//! requests are drawn from a seeded pool of pre-encoded frames whose
//! answers are computed up front; every response is compared with its
//! answer.
//!
//! - tcp_small: small merges on both connections; a light phase (window 1)
//!   gives the latency percentiles, a saturated phase (window 16) the
//!   request rate.
//! - tcp_mixed: one connection sends bulk sorts, the other small merges,
//!   both at window 1; the merges' latency tail shows how wide pool rounds
//!   delay narrow requests.

use std::collections::VecDeque;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mergepath::merge::sequential::{merge_into, merge_into_by};
use mergepath::sort::parallel::parallel_merge_sort_recorded;
use mergepath::telemetry::{CounterKind, Recorder, Telemetry, TimelineRecorder};
use mergepath_serve::net::{
    encode_request, encode_response, read_request, read_response, NetOp, NetRequest, NetResponse,
    NetServer, NetStatus,
};
use mergepath_serve::{
    NoRecorder, ObserverConfig, Outcome, Request, RequestKind, ResponseHandle, ServeConfig,
    ServeObserver, ServeProbe, ServeStats, Server, Waterfall,
};
use mergepath_workloads::prng::Prng;
use mergepath_workloads::{merge_pair_sized, unsorted_keys, MergeWorkload, SortWorkload};

use crate::layers::{self, ns_since};
use crate::stats::{beyond, median, median_ns, percentile};
use crate::{env, nproc, sort_keyed, Checker, Opts, Report};

/// Requests each connection keeps in flight in the saturated phase.
const SATURATED_WINDOW: usize = 16;

/// A client read that waits longer than this counts the request as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One request of the pool: its encoded frame and its answer.
pub struct Frame {
    /// The request id, echoed by the response.
    pub id: u64,
    /// The encoded request frame, sent as is.
    pub bytes: Vec<u8>,
    /// The request, for the in-process server.
    pub op: NetOp,
    /// The oracle's output.
    pub expect: Vec<u32>,
}

impl Frame {
    fn new(id: u64, op: NetOp, expect: Vec<u32>) -> Self {
        let req = NetRequest {
            id,
            deadline_rel_ns: 0,
            op,
        };
        Frame {
            id,
            bytes: encode_request(&req),
            op: req.op,
            expect,
        }
    }
}

/// `count` merges of two sorted uniform `keys`-key arrays.
pub fn merge_frames(count: usize, keys: usize, seed: u64) -> Vec<Frame> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..count as u64)
        .map(|id| {
            let (a, b) = merge_pair_sized(MergeWorkload::Uniform, keys, keys, rng.next_u64());
            let mut expect = vec![0; a.len() + b.len()];
            merge_into(&a, &b, &mut expect);
            Frame::new(id, NetOp::Merge { a, b }, expect)
        })
        .collect()
}

/// `count` sorts of `keys` uniform keys; ids follow the merges'.
pub fn sort_frames(count: usize, keys: usize, seed: u64) -> Vec<Frame> {
    let mut rng = Prng::seed_from_u64(seed ^ 0x5eed_5027);
    (0..count as u64)
        .map(|i| {
            let keys = unsorted_keys(SortWorkload::Uniform, keys, rng.next_u64());
            let mut expect = keys.clone();
            expect.sort();
            Frame::new(1 << 32 | i, NetOp::Sort { keys }, expect)
        })
        .collect()
}

/// A response as the client sees it.
struct Reply {
    id: u64,
    ok: bool,
    output: Vec<u32>,
    /// Submit-to-completion latency the server measured.
    server_ns: u64,
    waterfall: Waterfall,
}

/// Where requests go: a TCP connection or the in-process server.
trait Channel {
    /// Sends `frame`'s request; false when the channel broke.
    fn send(&mut self, frame: &Frame) -> bool;
    /// The next reply in send order; `None` on a protocol error, a
    /// timeout or a closed channel.
    fn recv(&mut self) -> Option<Reply>;
}

impl Channel for TcpStream {
    fn send(&mut self, frame: &Frame) -> bool {
        self.write_all(&frame.bytes).is_ok()
    }

    fn recv(&mut self) -> Option<Reply> {
        let resp = read_response(self).ok()??;
        Some(Reply {
            id: resp.id,
            ok: resp.status == NetStatus::Ok,
            output: resp.output,
            server_ns: resp.latency_ns,
            waterfall: Waterfall::default(),
        })
    }
}

/// Submits to an in-process server. A synchronous rejection is kept in
/// line, by request id, so that replies stay in send order.
struct Local<'s, R, P>
where
    R: Recorder + Send + Sync + 'static,
    P: ServeProbe + Send + Sync + 'static,
{
    server: &'s Server<u32, R, P>,
    pending: VecDeque<Result<ResponseHandle<u32>, u64>>,
}

impl<R, P> Channel for Local<'_, R, P>
where
    R: Recorder + Send + Sync + 'static,
    P: ServeProbe + Send + Sync + 'static,
{
    fn send(&mut self, frame: &Frame) -> bool {
        let kind = match &frame.op {
            NetOp::Merge { a, b } => RequestKind::Merge {
                a: a.clone(),
                b: b.clone(),
            },
            NetOp::Sort { keys } => RequestKind::Sort { keys: keys.clone() },
        };
        let req = Request {
            id: frame.id,
            kind,
            deadline_ns: 0,
        };
        self.pending
            .push_back(self.server.submit(req).map_err(|_| frame.id));
        true
    }

    fn recv(&mut self) -> Option<Reply> {
        let mut reply = Reply {
            id: 0,
            ok: false,
            output: Vec::new(),
            server_ns: 0,
            waterfall: Waterfall::default(),
        };
        match self.pending.pop_front()? {
            Err(id) => reply.id = id,
            Ok(handle) => {
                reply.id = handle.id;
                if let Outcome::Completed {
                    output,
                    latency_ns,
                    waterfall,
                } = handle.wait()
                {
                    reply = Reply {
                        ok: true,
                        output,
                        server_ns: latency_ns,
                        waterfall,
                        ..reply
                    };
                }
            }
        }
        Some(reply)
    }
}

/// When a client stops sending.
#[derive(Clone, Copy)]
enum Limit {
    /// Until this instant; only replies received before it are counted.
    Until(Instant),
    /// After this many requests; every reply is counted.
    Requests(usize),
}

fn until(seconds: f64) -> Limit {
    Limit::Until(Instant::now() + Duration::from_secs_f64(seconds))
}

/// What a client's replies are measured for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Latency samples (and the server's attribution of them).
    Latency,
    /// Output elements per second.
    Rate,
    /// Only counted.
    Count,
}

/// One client's traffic: which frames, how many in flight, and what for.
#[derive(Clone, Copy)]
struct Traffic<'f> {
    frames: &'f [Frame],
    window: usize,
    role: Role,
}

/// What one client saw, over the replies it counted. Kept across windows
/// and cleared between them, so that its buffers are allocated once.
#[derive(Default)]
struct ClientLog {
    /// Correct replies.
    counted: u64,
    /// Output elements of those replies.
    elems: u64,
    /// Client-observed latency of each, ns ([`Role::Latency`] only).
    latency_ns: Vec<u64>,
    /// Client latency minus the server's latency, ns.
    wire_ns: Vec<u64>,
    /// The server's stage attribution, where a probe made one.
    waterfalls: Vec<Waterfall>,
}

impl ClientLog {
    fn clear(&mut self) {
        self.counted = 0;
        self.elems = 0;
        self.latency_ns.clear();
        self.wire_ns.clear();
        self.waterfalls.clear();
    }
}

fn logs(n: usize) -> Vec<ClientLog> {
    (0..n).map(|_| ClientLog::default()).collect()
}

/// One closed-loop client: keeps `traffic.window` requests drawn from
/// `traffic.frames` in flight on `ch` until `limit`, checks each reply and
/// adds the counted ones to `log`.
fn drive(
    ch: &mut impl Channel,
    traffic: Traffic<'_>,
    seed: u64,
    limit: Limit,
    checker: &Checker,
    log: &mut ClientLog,
) {
    let Traffic {
        frames,
        window,
        role,
    } = traffic;
    let mut rng = Prng::seed_from_u64(seed);
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::with_capacity(window);
    let mut sent = 0usize;
    let more = |sent: usize| match limit {
        Limit::Until(t) => Instant::now() < t,
        Limit::Requests(n) => sent < n,
    };
    // Sends one request; false when the channel broke.
    let mut send = |ch: &mut dyn Channel, inflight: &mut VecDeque<(usize, Instant)>| {
        let idx = rng.below(frames.len() as u64) as usize;
        inflight.push_back((idx, Instant::now()));
        ch.send(&frames[idx])
    };
    // A broken channel fails every request still in flight on it.
    let fail_all = |inflight: &VecDeque<(usize, Instant)>| {
        for _ in inflight {
            checker.record(false);
        }
    };
    while inflight.len() < window && more(sent) {
        sent += 1;
        if !send(ch, &mut inflight) {
            return fail_all(&inflight);
        }
    }
    while let Some(&(idx, t0)) = inflight.front() {
        let Some(mut reply) = ch.recv() else {
            return fail_all(&inflight);
        };
        inflight.pop_front();
        let t1 = Instant::now();
        let frame = &frames[idx];
        let ok = if reply.ok && reply.id == frame.id {
            checker.check(&mut reply.output, &frame.expect)
        } else {
            checker.record(false)
        };
        let counts = match limit {
            Limit::Until(t) => t1 < t,
            Limit::Requests(_) => true,
        };
        if ok && counts {
            log.counted += 1;
            log.elems += frame.expect.len() as u64;
            if role == Role::Latency {
                let ns = (t1 - t0).as_nanos() as u64;
                log.latency_ns.push(ns);
                log.wire_ns.push(ns.saturating_sub(reply.server_ns));
                if reply.waterfall.total_ns() > 0 {
                    log.waterfalls.push(reply.waterfall);
                }
            }
        }
        if more(sent) {
            sent += 1;
            if !send(ch, &mut inflight) {
                return fail_all(&inflight);
            }
        }
    }
}

/// Runs one client thread per channel, all started together, each adding
/// to its entry of `logs`.
fn run_clients<C: Channel + Send>(
    chans: &mut [C],
    traffic: &[Traffic<'_>],
    limit: Limit,
    seed: u64,
    checker: &Checker,
    logs: &mut [ClientLog],
) {
    let barrier = Barrier::new(chans.len());
    std::thread::scope(|s| {
        for (i, ((ch, t), log)) in chans.iter_mut().zip(traffic).zip(logs).enumerate() {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                drive(ch, *t, seed ^ (i as u64 + 1), limit, checker, log);
            });
        }
    });
}

/// Runs `traffic` against an in-process server (recorded when `R` is,
/// probed when `P` is), one submitter thread per entry, for `seconds`;
/// returns the logs and the server's final stats.
fn run_local<R, P>(
    rec: R,
    probe: P,
    traffic: &[Traffic<'_>],
    seconds: f64,
    seed: u64,
    checker: &Checker,
) -> (Vec<ClientLog>, ServeStats)
where
    R: Recorder + Send + Sync + 'static,
    P: ServeProbe + Send + Sync + 'static,
{
    let server = Server::start_with_probe(ServeConfig::default(), rec, probe);
    let mut chans: Vec<Local<'_, R, P>> = traffic
        .iter()
        .map(|_| Local {
            server: &server,
            pending: VecDeque::new(),
        })
        .collect();
    let mut out = logs(traffic.len());
    run_clients(&mut chans, traffic, until(seconds), seed, checker, &mut out);
    drop(chans);
    (out, server.shutdown())
}

/// A running daemon and the client connections to it.
struct Daemon {
    net: NetServer,
    conns: Vec<TcpStream>,
}

impl Daemon {
    /// Starts the daemon and connects `clients` clients.
    fn start(clients: usize) -> Daemon {
        let net = NetServer::start(ServeConfig::default(), NoRecorder, "127.0.0.1:0")
            .expect("bind a loopback port");
        let conns = (0..clients)
            .map(|_| {
                let s = TcpStream::connect(net.local_addr()).expect("connect to the daemon");
                s.set_nodelay(true).expect("set TCP_NODELAY");
                s.set_read_timeout(Some(READ_TIMEOUT))
                    .expect("set a read timeout");
                s
            })
            .collect();
        Daemon { net, conns }
    }

    /// Closes the connections, then stops the daemon.
    fn stop(self) {
        drop(self.conns);
        self.net.shutdown();
    }
}

/// Set-up: starts the daemon, connects, and sends the warm-up requests
/// (`warmup[i]` at window 1 on connection `i`). Returns the daemon and the
/// seconds taken.
fn set_up(
    traffic: &[Traffic<'_>],
    warmup: &[usize],
    seed: u64,
    checker: &Checker,
) -> (Daemon, f64) {
    let t = Instant::now();
    let mut d = Daemon::start(traffic.len());
    let barrier = Barrier::new(traffic.len());
    std::thread::scope(|s| {
        for (i, (ch, tr)) in d.conns.iter_mut().zip(traffic).enumerate() {
            let (barrier, n) = (&barrier, warmup[i]);
            s.spawn(move || {
                barrier.wait();
                let warm = Traffic {
                    window: 1,
                    role: Role::Count,
                    ..*tr
                };
                let seed = seed ^ (i as u64 + 1);
                drive(
                    ch,
                    warm,
                    seed,
                    Limit::Requests(n),
                    checker,
                    &mut ClientLog::default(),
                );
            });
        }
    });
    (d, t.elapsed().as_secs_f64())
}

/// Length of one measurement window, seconds. Each window yields its own
/// percentiles and rates; a run reports their medians, so a burst of
/// interference from outside the process moves one window, not the result.
const WINDOW_S: f64 = 1.0;

/// What one window measured.
struct Window {
    /// CPU ticks the hypervisor stole during the window.
    steal_ticks: u64,
    /// Correct replies per second over all clients.
    rps: f64,
    /// Output elements per second returned to the [`Role::Rate`] client.
    elems_per_s: f64,
    /// Output elements per second returned to the [`Role::Latency`]
    /// clients.
    latency_elems_per_s: f64,
    /// Latency percentiles of the [`Role::Latency`] clients, us.
    p50_us: f64,
    p99_us: f64,
    /// Their latency samples, and how many lie beyond p99.
    samples: usize,
    beyond_p99: usize,
}

/// The windows of a run's measured phase.
#[derive(Default)]
struct Windows {
    done: Vec<Window>,
    /// The clients' logs, reused window after window so that their
    /// buffers are allocated once.
    logs: Vec<ClientLog>,
    /// Scratch for one window's latencies, us.
    us: Vec<f64>,
}

impl Windows {
    /// Runs `traffic` on the daemon's connections for `seconds`, in
    /// windows of about [`WINDOW_S`].
    fn measure(
        &mut self,
        d: &mut Daemon,
        traffic: &[Traffic<'_>],
        seconds: f64,
        seed: u64,
        checker: &Checker,
    ) {
        let count = (seconds / WINDOW_S).round().max(1.0) as usize;
        let len = seconds / count as f64;
        self.logs.resize_with(traffic.len(), ClientLog::default);
        for k in 0..count {
            self.logs.iter_mut().for_each(ClientLog::clear);
            let seed = seed ^ ((k as u64 + 1) << 16);
            let ticks = env::cpu_ticks();
            run_clients(
                &mut d.conns,
                traffic,
                until(len),
                seed,
                checker,
                &mut self.logs,
            );
            let steal_ticks = env::cpu_ticks().0.saturating_sub(ticks.0);
            let clients = || traffic.iter().zip(&self.logs);
            self.us.clear();
            for (_, log) in clients().filter(|(t, _)| t.role == Role::Latency) {
                self.us
                    .extend(log.latency_ns.iter().map(|&ns| ns as f64 / 1e3));
            }
            self.us.sort_by(f64::total_cmp);
            let (p50_us, p99_us, beyond_p99) = if self.us.is_empty() {
                (0.0, 0.0, 0)
            } else {
                (
                    percentile(&self.us, 0.50),
                    percentile(&self.us, 0.99),
                    beyond(&self.us, 0.99),
                )
            };
            self.done.push(Window {
                steal_ticks,
                rps: self.logs.iter().map(|l| l.counted).sum::<u64>() as f64 / len,
                elems_per_s: clients()
                    .filter(|(t, _)| t.role == Role::Rate)
                    .map(|(_, l)| l.elems as f64 / len)
                    .sum(),
                latency_elems_per_s: clients()
                    .filter(|(t, _)| t.role == Role::Latency)
                    .map(|(_, l)| l.elems as f64 / len)
                    .sum(),
                p50_us,
                p99_us,
                samples: self.us.len(),
                beyond_p99,
            });
        }
    }

    /// The windows the hypervisor disturbed least: those that lost no more
    /// CPU time to it than the median window. On a quiet host that is
    /// nearly every window; when the host is busy for part of a run, the
    /// medians come from the part it was not.
    fn quiet(&self) -> Vec<&Window> {
        let mut steal: Vec<f64> = self.done.iter().map(|w| w.steal_ticks as f64).collect();
        let limit = median(&mut steal);
        self.done
            .iter()
            .filter(|w| w.steal_ticks as f64 <= limit)
            .collect()
    }

    /// Median over the quiet windows of `f`.
    fn median_of(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&mut self.quiet().into_iter().map(f).collect::<Vec<_>>())
    }

    /// Adds the latency percentiles and their sample counts.
    fn latency_metrics(&self, r: &mut Report) {
        r.metric("p50_us", self.median_of(|w| w.p50_us), "us");
        r.metric("p99_us", self.median_of(|w| w.p99_us), "us");
        let quiet = self.quiet();
        r.detail("windows", self.done.len() as f64);
        r.detail("quiet_windows", quiet.len() as f64);
        r.detail(
            "quiet_latency_samples",
            quiet.iter().map(|w| w.samples).sum::<usize>() as f64,
        );
        r.detail(
            "min_window_samples_beyond_p99",
            quiet.iter().map(|w| w.beyond_p99).min().unwrap_or(0) as f64,
        );
    }
}

fn concat<T: Clone>(parts: impl IntoIterator<Item = impl AsRef<[T]>>) -> Vec<T> {
    parts
        .into_iter()
        .flat_map(|p| p.as_ref().to_vec())
        .collect()
}

/// Adds the medians of the four waterfall stages, microseconds; returns
/// their sum.
fn waterfall_metrics(r: &mut Report, waterfalls: &[Waterfall]) -> f64 {
    let names = [
        "serve.queue_us",
        "serve.dispatch_us",
        "serve.compute_us",
        "serve.emit_us",
    ];
    let mut total = 0.0;
    for (stage, name) in names.iter().enumerate() {
        let ns: Vec<u64> = waterfalls.iter().map(|w| w.stages()[stage]).collect();
        let us = median_ns(&ns) / 1e3;
        r.metric(name, us, "us");
        total += us;
    }
    total
}

fn probe() -> std::sync::Arc<ServeObserver> {
    std::sync::Arc::new(ServeObserver::new(ObserverConfig::default()))
}

/// Runs tcp_small.
pub fn run_small(opts: &Opts) -> Report {
    let sc = &opts.scale;
    let frames = merge_frames(sc.small_frames, sc.small_keys, opts.seed);
    let light = [Traffic {
        frames: &frames,
        window: 1,
        role: Role::Latency,
    }; 2];
    let saturated = [Traffic {
        frames: &frames,
        window: SATURATED_WINDOW,
        role: Role::Count,
    }; 2];
    let warmup = [sc.warmup_requests; 2];
    let checker = Checker::new(opts.corrupt);

    if !opts.trace {
        // Each set-up's daemon serves its share of both phases, so the
        // windows sample several daemons' thread placements.
        let reps = sc.setup_reps;
        let each = opts.seconds / 2.0 / reps as f64;
        let (mut setups, mut light_w, mut sat_w) = (vec![], Windows::default(), Windows::default());
        for rep in 0..reps {
            let seed = opts.seed.wrapping_add(rep as u64);
            let (mut d, secs) = set_up(&light, &warmup, seed, &checker);
            setups.push(secs);
            light_w.measure(&mut d, &light, each, seed, &checker);
            sat_w.measure(&mut d, &saturated, each, seed, &checker);
            d.stop();
        }

        let mut r = Report::new(&checker);
        r.metric("setup_s", median(&mut setups), "s");
        r.metric("rps", sat_w.median_of(|w| w.rps), "1/s");
        // Output elements returned in the light phase: the saturated
        // phase's would be `rps` times the fixed response size.
        r.metric(
            "elems_per_s",
            light_w.median_of(|w| w.latency_elems_per_s),
            "elem/s",
        );
        light_w.latency_metrics(&mut r);
        r.metric("peak_rss_mib", env::peak_rss_mib(), "MiB");
        return r;
    }

    // Traced: the TCP phases once more, then the same traffic against an
    // in-process server with and without the serve probe.
    let threads = nproc();
    let (mut d, _) = set_up(&light, &warmup, opts.seed, &checker);
    let mut tcp = logs(2);
    let phase = opts.seconds * 0.25;
    run_clients(
        &mut d.conns,
        &light,
        until(phase),
        opts.seed,
        &checker,
        &mut tcp,
    );
    let steals = layers::steal_stats();
    let mut sat = logs(2);
    run_clients(
        &mut d.conns,
        &saturated,
        until(phase),
        opts.seed,
        &checker,
        &mut sat,
    );
    let steals_after = layers::steal_stats();
    let protocol_errors = d.net.protocol_errors();
    d.stop();

    let no_probe = mergepath_serve::NoProbe;
    let (plain, _) = run_local(
        NoRecorder,
        no_probe,
        &light,
        opts.seconds * 0.15,
        opts.seed,
        &checker,
    );
    let (probed, _) = run_local(
        NoRecorder,
        probe(),
        &light,
        opts.seconds * 0.15,
        opts.seed,
        &checker,
    );
    let (_, sat_stats) = run_local(
        NoRecorder,
        probe(),
        &saturated,
        opts.seconds * 0.15,
        opts.seed,
        &checker,
    );
    let tel = record_daemon(&light, opts.seconds * 0.05, opts.seed, &checker);
    let (request_codec_ns, response_codec_ns) = codec_ns(&[&frames], &checker);

    let mut r = Report::new(&checker);
    daemon_layers(&mut r, &tel, &frames, &checker);
    layers::report_not_on_path(&mut r, &layers::SORT_LAYER);
    r.metric(
        "executor.round_ns",
        layers::executor_round_ns(threads, 2000),
        "ns",
    );
    let saturated_ok = sat.iter().map(|l| l.counted).sum();
    layers::report_steals(&mut r, steals, steals_after, saturated_ok);
    let waterfalls = concat(probed.iter().map(|l| &l.waterfalls));
    let stages = waterfall_metrics(&mut r, &waterfalls);
    r.metric(
        "serve.batch_width",
        sat_stats.batched_requests as f64 / sat_stats.batched_rounds.max(1) as f64,
        "req/round",
    );
    r.metric(
        "serve.queue_depth_peak",
        sat_stats.queue_depth_peak as f64,
        "count",
    );
    r.metric(
        "serve.inflight_peak",
        sat_stats.inflight_peak as f64,
        "count",
    );
    r.metric("net.request_codec_ns", request_codec_ns, "ns");
    r.metric("net.response_codec_ns", response_codec_ns, "ns");
    let wire_us = median_ns(&concat(tcp.iter().map(|l| &l.wire_ns))) / 1e3;
    r.metric("net.wire_us", wire_us, "us");
    r.metric("net.protocol_errors", protocol_errors as f64, "count");
    let tcp_latency = concat(tcp.iter().map(|l| &l.latency_ns));
    let e2e_us = median_ns(&tcp_latency) / 1e3;
    layers::report_residual(&mut r, e2e_us, stages + wire_us);
    layers::report_overhead(
        &mut r,
        median_ns(&concat(probed.iter().map(|l| &l.latency_ns))),
        median_ns(&concat(plain.iter().map(|l| &l.latency_ns))),
    );
    r.detail("tcp_p50_us", e2e_us);
    r.detail("latency_samples", tcp_latency.len() as f64);
    r.detail("waterfall_samples", waterfalls.len() as f64);
    r
}

/// Runs `traffic` against an in-process server whose kernels record into
/// a timeline, for `seconds`; returns what they recorded.
fn record_daemon(traffic: &[Traffic<'_>], seconds: f64, seed: u64, checker: &Checker) -> Telemetry {
    let rec = Arc::new(TimelineRecorder::new());
    run_local(
        Arc::clone(&rec),
        mergepath_serve::NoProbe,
        traffic,
        seconds,
        seed,
        checker,
    );
    Arc::into_inner(rec)
        .expect("the server released its recorder")
        .finish()
}

/// Adds the diagonal, kernel and share-skew metrics of a daemon's recorded
/// run (see [`record_daemon`]): its own diagonal searches per completed
/// request (a lone request merges with up to nproc shares, coalesced ones
/// in a batch round), the kernels its segments took, and the skew of its
/// pool rounds. The floor `kernel.seq_ns_per_elem` is one thread's
/// sequential merge of the `merges` frames' inputs.
fn daemon_layers(r: &mut Report, tel: &Telemetry, merges: &[Frame], checker: &Checker) {
    let (searches, search_ns) = layers::searches(tel);
    let completed = layers::counter(tel, CounterKind::ServeCompleted);
    r.metric(
        "diagonal.search_ns",
        search_ns as f64 / searches.max(1) as f64,
        "ns",
    );
    r.metric(
        "diagonal.searches_per_op",
        searches as f64 / completed.max(1) as f64,
        "count",
    );
    r.detail("recorded_requests", completed as f64);
    let tel = std::slice::from_ref(tel);
    layers::report_kernel(r, tel);
    layers::report_skew(r, tel);

    let mut seq = Vec::new();
    let mut out = Vec::new();
    for _ in 0..4 {
        for f in merges {
            let NetOp::Merge { a, b } = &f.op else {
                continue;
            };
            out.clear();
            out.resize(a.len() + b.len(), 0);
            let t = Instant::now();
            merge_into_by(a, b, &mut out, &|x: &u32, y: &u32| x.cmp(y));
            seq.push(ns_since(t) as f64 / out.len().max(1) as f64);
            checker.check(&mut out, &f.expect);
        }
    }
    r.metric("kernel.seq_ns_per_elem", median(&mut seq), "ns");
}

/// The request and response codec costs: encode plus decode of each frame
/// of `sets` on in-memory buffers, median ns. Each round trip is checked.
fn codec_ns(sets: &[&[Frame]], checker: &Checker) -> (f64, f64) {
    let mut req_ns = Vec::new();
    let mut resp_ns = Vec::new();
    for _ in 0..4 {
        for f in sets.iter().flat_map(|s| s.iter()) {
            let req = NetRequest {
                id: f.id,
                deadline_rel_ns: 0,
                op: f.op.clone(),
            };
            let t = Instant::now();
            let bytes = encode_request(&req);
            let back = read_request(&mut &bytes[..]);
            req_ns.push(ns_since(t));
            checker.record(back.ok().flatten().as_ref() == Some(&req));

            let resp = NetResponse {
                id: f.id,
                status: NetStatus::Ok,
                latency_ns: 1,
                output: f.expect.clone(),
            };
            let t = Instant::now();
            let bytes = encode_response(&resp);
            let back = read_response(&mut &bytes[..]);
            resp_ns.push(ns_since(t));
            checker.record(back.ok().flatten().as_ref() == Some(&resp));
        }
    }
    (median_ns(&req_ns), median_ns(&resp_ns))
}

/// Runs tcp_mixed.
pub fn run_mixed(opts: &Opts) -> Report {
    let sc = &opts.scale;
    let small = merge_frames(sc.small_frames, sc.small_keys, opts.seed);
    let bulk = sort_frames(sc.bulk_frames, sc.bulk_keys, opts.seed);
    // Connection 0 is interactive, connection 1 bulk.
    let traffic = [
        Traffic {
            frames: &small,
            window: 1,
            role: Role::Latency,
        },
        Traffic {
            frames: &bulk,
            window: 1,
            role: Role::Rate,
        },
    ];
    let warmup = [sc.warmup_requests, sc.warmup_bulk];
    let checker = Checker::new(opts.corrupt);

    if !opts.trace {
        let reps = sc.setup_reps;
        let (mut setups, mut w) = (vec![], Windows::default());
        for rep in 0..reps {
            let seed = opts.seed.wrapping_add(rep as u64);
            let (mut d, secs) = set_up(&traffic, &warmup, seed, &checker);
            setups.push(secs);
            w.measure(&mut d, &traffic, opts.seconds / reps as f64, seed, &checker);
            d.stop();
        }

        let mut r = Report::new(&checker);
        r.metric("setup_s", median(&mut setups), "s");
        r.metric("elems_per_s", w.median_of(|w| w.elems_per_s), "elem/s");
        r.metric("rps", w.median_of(|w| w.rps), "1/s");
        w.latency_metrics(&mut r);
        r.metric("peak_rss_mib", env::peak_rss_mib(), "MiB");
        return r;
    }

    let threads = nproc();
    let (mut d, _) = set_up(&traffic, &warmup, opts.seed, &checker);
    let steals = layers::steal_stats();
    let mut tcp = logs(2);
    run_clients(
        &mut d.conns,
        &traffic,
        until(opts.seconds * 0.4),
        opts.seed,
        &checker,
        &mut tcp,
    );
    let steals_after = layers::steal_stats();
    let protocol_errors = d.net.protocol_errors();
    d.stop();

    let no_probe = mergepath_serve::NoProbe;
    let (plain, _) = run_local(
        NoRecorder,
        no_probe,
        &traffic,
        opts.seconds * 0.3,
        opts.seed,
        &checker,
    );
    let (probed, stats) = run_local(
        NoRecorder,
        probe(),
        &traffic,
        opts.seconds * 0.3,
        opts.seed,
        &checker,
    );

    let tel = record_daemon(&traffic, opts.seconds * 0.1, opts.seed, &checker);
    // The sort layer on the bulk requests' keys, through the recorded
    // entry point the daemon calls for each of them.
    let sort_cmp = |x: &u32, y: &u32| x.cmp(y);
    let bulk_keys: Vec<&Vec<u32>> = bulk
        .iter()
        .map(|f| match &f.op {
            NetOp::Sort { keys } => keys,
            _ => unreachable!("bulk frames are sorts"),
        })
        .collect();
    let sorts: Vec<Telemetry> = bulk
        .iter()
        .zip(&bulk_keys)
        .map(|(f, keys)| {
            let mut work = keys.to_vec();
            let (_, tel) = layers::record(|rec| {
                parallel_merge_sort_recorded(&mut work, threads, &sort_cmp, rec)
            });
            checker.check(&mut work, &f.expect);
            tel
        })
        .collect();
    let (request_codec_ns, response_codec_ns) = codec_ns(&[&small, &bulk], &checker);

    let mut r = Report::new(&checker);
    daemon_layers(&mut r, &tel, &small, &checker);
    sort_keyed::report_sort(&mut r, &sorts, bulk_keys[0], threads, &sort_cmp);
    r.detail("recorded_sorts", sorts.len() as f64);
    r.metric(
        "executor.round_ns",
        layers::executor_round_ns(threads, 2000),
        "ns",
    );
    let ops = tcp.iter().map(|l| l.counted).sum();
    layers::report_steals(&mut r, steals, steals_after, ops);
    let stages = waterfall_metrics(&mut r, &probed[0].waterfalls);
    r.metric(
        "serve.queue_depth_peak",
        stats.queue_depth_peak as f64,
        "count",
    );
    r.metric("serve.inflight_peak", stats.inflight_peak as f64, "count");
    r.metric(
        "serve.batch_width",
        stats.batched_requests as f64 / stats.batched_rounds.max(1) as f64,
        "req/round",
    );
    r.metric("net.request_codec_ns", request_codec_ns, "ns");
    r.metric("net.response_codec_ns", response_codec_ns, "ns");
    let wire_us = median_ns(&tcp[0].wire_ns) / 1e3;
    r.metric("net.wire_us", wire_us, "us");
    r.metric("net.protocol_errors", protocol_errors as f64, "count");
    let e2e_us = median_ns(&tcp[0].latency_ns) / 1e3;
    layers::report_residual(&mut r, e2e_us, stages + wire_us);
    layers::report_overhead(
        &mut r,
        median_ns(&probed[0].latency_ns),
        median_ns(&plain[0].latency_ns),
    );
    r.detail("tcp_interactive_p50_us", e2e_us);
    r.detail("latency_samples", tcp[0].latency_ns.len() as f64);
    r
}
