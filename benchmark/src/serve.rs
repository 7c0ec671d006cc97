//! The `serve-open` workload: an open-loop generator over HTTP/1.1
//! keep-alive against an in-process `winrs_serve::Server`.
//!
//! Arrivals are Poisson, drawn from the seed. The generator runs one
//! thread per connection, `min(available_parallelism, 2)` of each; every
//! thread owns a Poisson stream of `rate / threads`, so their union is
//! Poisson at `rate`. Requests are written at their due time whether or
//! not earlier replies have arrived (pipelined), and each request's
//! latency runs from its due time to the end of its reply.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use winrs_core::{ExecHandle, PoolConfig, WorkspacePool};
use winrs_gpu_sim::RTX_4090;
use winrs_json::Json;
use winrs_serve::{gradient_digest, GradientMode, JobRequest, ServeConfig, Server};

use crate::keys::{Key, SERVE_JOBS, SERVE_MIX_FIRST};
use crate::library::mare_bound;
use crate::trace::Span;
use crate::util::{percentile, Rng};

/// Latency limit of the `max_rps_slo` search, on p99.
pub const SLO_P99_MS: f64 = 20.0;

/// Seed pairs per job key; every request names one of them.
const SEED_PAIRS: usize = 16;

/// One pre-rendered request with the digest its reply must carry.
pub struct Template {
    pub req: JobRequest,
    http: Vec<u8>,
    digest: String,
    pub flops: u64,
    first_key: bool,
}

/// Build the request templates for this seed and compute each one's
/// expected digest through `ExecHandle` on a fresh pool. The first
/// template's result is also checked against f64 direct convolution.
pub fn templates(rng: &mut Rng) -> Result<Vec<Template>, String> {
    let pool = WorkspacePool::new(PoolConfig::default());
    let mut out = Vec::new();
    for (ki, key) in SERVE_JOBS.iter().enumerate() {
        let h = ExecHandle::new(Arc::clone(&pool), RTX_4090, key.precision);
        for _ in 0..SEED_PAIRS {
            let req = job(key, rng.next_u64() >> 12, rng.next_u64() >> 12);
            let (x, dy) = req.operands();
            let (dw, _) = h
                .run(&req.shape, &x, &dy)
                .map_err(|e| format!("reference run failed: {e}"))?;
            if out.len() % SEED_PAIRS == 0 {
                let exact =
                    winrs_conv::direct::bfc_direct(&req.shape, &x.cast::<f64>(), &dy.cast::<f64>());
                let m = winrs_tensor::mare(&dw, &exact);
                if !(m.is_finite() && m < mare_bound(key.precision)) {
                    return Err(format!("{}: MARE {m:e} vs f64 direct", key.label()));
                }
            }
            let body = req.to_json().to_document();
            let http = format!(
                "POST /v1/bfc HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes();
            out.push(Template {
                flops: req.shape.bfc_flops(),
                req,
                http,
                digest: gradient_digest(&dw),
                first_key: ki == 0,
            });
        }
    }
    Ok(out)
}

fn job(key: &Key, x_seed: u64, dy_seed: u64) -> JobRequest {
    JobRequest {
        shape: key.shape,
        precision: key.precision,
        policy: Default::default(),
        guard: Default::default(),
        deadline: None,
        x_seed,
        dy_seed,
        scale: 1.0,
        gradient: GradientMode::Digest,
    }
}

/// Pick a template: the first key with probability `SERVE_MIX_FIRST`,
/// then one of its seed pairs uniformly.
fn pick(rng: &mut Rng) -> usize {
    let key = if rng.unit() < SERVE_MIX_FIRST { 0 } else { 1 };
    key * SEED_PAIRS + (rng.next_u64() % SEED_PAIRS as u64) as usize
}

/// The server configuration every serve run uses: the default (2 ms
/// window, 256-deep queue) on a private pool of the default size, so each
/// server starts cold.
pub fn config(window: Duration) -> ServeConfig {
    ServeConfig {
        window,
        slots: PoolConfig::default().slots,
        ..ServeConfig::default()
    }
}

/// Figures of one fixed-rate leg.
#[derive(Default)]
pub struct Leg {
    pub rate: f64,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Latency from due time, ms; failed requests are `f64::INFINITY`.
    pub latency_ms: Vec<f64>,
    /// How late each request was written, ms.
    pub lag_ms: Vec<f64>,
    /// Client latency minus the server's reported `timing.total_s`, ms.
    pub overhead_ms: Vec<f64>,
    /// Requests still unanswered when the last one was sent.
    pub backlog: u64,
    /// Replies completed before the leg's send window closed.
    pub ok_in_window: u64,
    pub seconds: f64,
    pub spans: Vec<Vec<Span>>,
}

impl Leg {
    pub fn p(&self, q: f64) -> f64 {
        percentile(&self.latency_ms, q)
    }

    /// Replies per second completed inside the send window.
    pub fn goodput(&self) -> f64 {
        self.ok_in_window as f64 / self.seconds
    }

    /// The backlog grew: the server completed under 90% of the offered
    /// rate while requests kept arriving.
    pub fn overloaded(&self) -> bool {
        self.goodput() < 0.9 * self.rate
    }

    /// Meets the SLO: p99 within the limit (failures count as misses) and
    /// no growing backlog.
    pub fn meets_slo(&self) -> bool {
        self.p(99.0) <= SLO_P99_MS && !self.overloaded()
    }

    pub fn absorb(&mut self, other: Leg) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.overhead_ms.extend(other.overhead_ms);
        self.backlog += other.backlog;
        self.ok_in_window += other.ok_in_window;
        self.spans.extend(other.spans);
    }
}

/// Connections (and generator threads) the generator uses: no more than
/// the host has cores, so it does not crowd out the server, and no more
/// than two, so the traffic is the same on a larger host.
pub fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// One fixed-rate leg of the generator.
#[derive(Clone, Copy)]
pub struct LegSpec {
    pub rate: f64,
    pub seconds: f64,
    pub seed: u64,
    /// Record spans.
    pub trace: bool,
    /// Diagnostic only: ACK every reply segment at once (`TCP_QUICKACK`)
    /// instead of the kernel's delayed ACK, to measure how much of the
    /// latency a delayed ACK costs. Measured legs leave this off, as an
    /// ordinary client would.
    pub quickack: bool,
}

/// Run one open-loop leg.
pub fn run_leg(addr: SocketAddr, templates: &[Template], spec: LegSpec, origin: Instant) -> Leg {
    let conns = connections();
    let start = Instant::now() + Duration::from_millis(5);
    let mut leg = Leg {
        rate: spec.rate,
        seconds: spec.seconds,
        ..Leg::default()
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let spec = LegSpec {
                    rate: spec.rate / conns as f64,
                    seed: spec.seed ^ (c as u64).wrapping_mul(0x2545_f491_4f6c_dd1d),
                    ..spec
                };
                s.spawn(move || conn_thread(addr, templates, spec, start, origin))
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => leg.absorb(part),
                Err(_) => leg.failed += 1,
            }
        }
    });
    leg
}

struct InFlight {
    due: Instant,
    template: usize,
    req: u64,
}

fn conn_thread(
    addr: SocketAddr,
    templates: &[Template],
    spec: LegSpec,
    start: Instant,
    origin: Instant,
) -> Leg {
    let LegSpec {
        rate,
        seconds,
        seed,
        ..
    } = spec;
    let mut rng = Rng::new(seed);
    let mut leg = Leg::default();
    let mut tracer = crate::trace::Tracer::new(spec.trace, origin);
    let stop = start + Duration::from_secs_f64(seconds);
    // Failed requests still count: each is one attempt with an infinite
    // latency.
    let fail_all = |leg: &mut Leg, n: u64| {
        leg.failed += n;
        leg.latency_ms
            .extend(std::iter::repeat_n(f64::INFINITY, n as usize));
    };
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return leg,
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut next_due = Some(start + Duration::from_secs_f64(rng.exp_gap_s(rate)));
    let mut inflight: std::collections::VecDeque<InFlight> = Default::default();
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut req_id = seed & 0xffff_ffff_0000_0000;
    let drain_deadline = stop + Duration::from_secs(10);
    loop {
        let now = Instant::now();
        if let Some(due) = next_due.filter(|d| *d <= now) {
            let t = pick(&mut rng);
            req_id += 1;
            let sent = tracer.span("loadgen.send", req_id, |_| {
                stream.write_all(&templates[t].http)
            });
            leg.sent += 1;
            leg.lag_ms
                .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
            if sent.is_err() {
                fail_all(&mut leg, 1);
            } else {
                inflight.push_back(InFlight {
                    due,
                    template: t,
                    req: req_id,
                });
            }
            let next = due + Duration::from_secs_f64(rng.exp_gap_s(rate));
            next_due = (next < stop).then_some(next);
            if next_due.is_none() {
                leg.backlog = inflight.len() as u64;
            }
            continue;
        }
        if next_due.is_none() && inflight.is_empty() {
            break;
        }
        if now >= drain_deadline {
            fail_all(&mut leg, inflight.len() as u64);
            break;
        }
        let wait = next_due
            .map_or(drain_deadline, |d| d)
            .saturating_duration_since(now);
        if !wait_readable(&stream, wait) {
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                fail_all(&mut leg, inflight.len() as u64);
                break;
            }
            Ok(n) => {
                let done = Instant::now();
                if spec.quickack {
                    quickack(&stream);
                }
                buf.extend_from_slice(&chunk[..n]);
                while let Some((status, body, used)) = parse_response(&buf) {
                    buf.drain(..used);
                    let Some(f) = inflight.pop_front() else {
                        leg.failed += 1;
                        break;
                    };
                    let lat_ms = done.saturating_duration_since(f.due).as_secs_f64() * 1e3;
                    tracer.record("serve.request", f.req, f.due, done);
                    match check_reply(status, &body, &templates[f.template]) {
                        Some(server_s) => {
                            leg.ok += 1;
                            leg.ok_in_window += u64::from(done <= stop);
                            leg.latency_ms.push(lat_ms);
                            leg.overhead_ms.push(lat_ms - server_s * 1e3);
                        }
                        None => fail_all(&mut leg, 1),
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                fail_all(&mut leg, inflight.len() as u64);
                break;
            }
        }
    }
    leg.spans.push(tracer.into_spans());
    leg
}

/// Split one complete HTTP response off the front of `buf`: status, body
/// and bytes consumed.
fn parse_response(buf: &[u8]) -> Option<(u16, Vec<u8>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())
                .flatten()
        })
        .unwrap_or(0);
    (buf.len() >= head_end + len).then(|| {
        (
            status,
            buf[head_end..head_end + len].to_vec(),
            head_end + len,
        )
    })
}

/// A reply is correct when it is a 200 carrying the expected digest.
/// Returns the server-reported `timing.total_s`.
fn check_reply(status: u16, body: &[u8], t: &Template) -> Option<f64> {
    if status != 200 {
        return None;
    }
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let digest = doc.get("gradient")?.get("fnv1a64")?.as_str()?;
    if digest != t.digest {
        eprintln!("serve digest mismatch for {}", t.req.shape.n);
        return None;
    }
    doc.get("report")?.get("timing")?.get("total_s")?.as_f64()
}

/// One cold set-up: spawn a server on a fresh pool, send the first job
/// over a new connection, check its digest, stop the server.
pub fn cold_setup(templates: &[Template], origin: Instant) -> Option<f64> {
    let mut server = Server::spawn(config(ServeConfig::default().window)).ok()?;
    let mut stream = TcpStream::connect(server.addr()).ok()?;
    stream.write_all(&templates[0].http).ok()?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let reply = loop {
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some((status, body, _)) = parse_response(&buf) {
            break check_reply(status, &body, &templates[0]);
        }
    };
    let elapsed = origin.elapsed().as_secs_f64();
    drop(stream);
    server.shutdown();
    reply.map(|_| elapsed)
}

/// Mean BFC FLOPs of one request under the job mix.
pub fn mean_flops(templates: &[Template]) -> f64 {
    let first = templates
        .iter()
        .find(|t| t.first_key)
        .map_or(0, |t| t.flops) as f64;
    let second = templates
        .iter()
        .find(|t| !t.first_key)
        .map_or(0, |t| t.flops) as f64;
    SERVE_MIX_FIRST * first + (1.0 - SERVE_MIX_FIRST) * second
}

/// Wait until `stream` has bytes to read or `timeout` passes; true when
/// readable. Socket receive timeouts tick in scheduler jiffies (up to
/// 10 ms), far coarser than the send schedule, so the wait uses `ppoll`,
/// whose timeout has nanosecond resolution.
#[cfg(target_os = "linux")]
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, n: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        sec: timeout.as_secs() as i64,
        nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fd` and `ts` are live, correctly laid-out `struct pollfd` /
    // `struct timespec` values for 64-bit Linux; one descriptor is passed
    // and a null signal mask leaves the mask unchanged.
    unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) > 0 }
}

#[cfg(not(target_os = "linux"))]
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    let _ = stream.set_read_timeout(Some(timeout.max(Duration::from_micros(50))));
    let mut probe = [0u8; 1];
    !matches!(stream.peek(&mut probe), Err(_))
}

/// Ask the kernel to ACK received data immediately (Linux `TCP_QUICKACK`;
/// the flag lapses, so it is re-armed after every read).
#[cfg(target_os = "linux")]
fn quickack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let one = 1i32;
    // SAFETY: `one` is a live `int` and `len` is its size; the call only
    // reads it.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &one, 4);
    }
}

#[cfg(not(target_os = "linux"))]
fn quickack(_stream: &TcpStream) {}
