//! Layer probes for the traced run: the host roofline, microbenchmarks of
//! single public functions, and the tuner regret table over the
//! mixed-shapes catalogue. None depends on the workload, so every traced
//! run reports the same set.

use std::sync::Arc;
use std::time::{Duration, Instant};

use winrs_core::engine::sched::run_tasks;
use winrs_core::{AlgoChoice, ExecHandle, FallbackPolicy, PoolConfig, WinRsPlan, WorkspacePool};
use winrs_gemm::micro::{self, SimdWidth};
use winrs_gpu_sim::RTX_4090;
use winrs_json::Json;
use winrs_serve::{gradient_digest, job_response_json, DispatchQueue, JobRequest};
use winrs_tensor::Tensor4;

use crate::keys::{Key, MIXED};
use crate::util::{llc_bytes, median, median_time_s};

pub type Metric = (String, f64, &'static str);

pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The measured host bounds.
pub struct Roofline {
    /// Single-thread `micro_kernel_4x8` GFLOP/s per available width.
    pub peak_by_width: Vec<(SimdWidth, f64)>,
    /// Triad bandwidth over `workers()` threads, GB/s of computed bytes.
    pub stream_gbps: f64,
    pub array_bytes: usize,
    pub llc_bytes: Option<usize>,
}

impl Roofline {
    /// Peak of the width the engine dispatches to, times the worker count.
    pub fn engine_peak_gflops(&self) -> f64 {
        let active = micro::active_width();
        self.peak_by_width
            .iter()
            .find(|(w, _)| *w == active)
            .map_or(0.0, |(_, g)| g * workers() as f64)
    }
}

/// Largest triad array, so the three arrays stay far below the host's
/// memory on a shared machine even when the LLC is large.
const MAX_ARRAY_BYTES: usize = 256 << 20;

pub fn roofline() -> Roofline {
    let mut peak_by_width = Vec::new();
    let forced = micro::forced_width();
    for w in SimdWidth::ALL {
        if w.is_available() && micro::force_width(Some(w)).is_ok() {
            peak_by_width.push((w, micro_peak_gflops()));
        }
    }
    let _ = micro::force_width(forced);

    let llc = llc_bytes();
    let array_bytes = llc.map_or(MAX_ARRAY_BYTES, |l| (4 * l).min(MAX_ARRAY_BYTES));
    Roofline {
        peak_by_width,
        stream_gbps: triad_gbps(array_bytes / 4),
        array_bytes,
        llc_bytes: llc,
    }
}

fn micro_peak_gflops() -> f64 {
    const KC: usize = 256;
    let a = vec![1.0f32; micro::MR * KC];
    let b = vec![0.5f32; KC * micro::NR];
    let mut c = vec![0.0f32; micro::MR * micro::NR];
    let calls = 20_000;
    let secs = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                micro::micro_kernel_4x8(
                    KC,
                    1.0,
                    std::hint::black_box(&a),
                    KC,
                    std::hint::black_box(&b),
                    micro::NR,
                    &mut c,
                    micro::NR,
                );
            }
            std::hint::black_box(&c);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (2 * micro::MR * micro::NR * KC * calls) as f64 / secs / 1e9
}

fn triad_gbps(len: usize) -> f64 {
    let threads = workers();
    let mut a = vec![0.0f32; len];
    let b = vec![1.0f32; len];
    let c = vec![2.0f32; len];
    let chunk = len.div_ceil(threads);
    let pass = |a: &mut [f32]| {
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + 3.0 * c;
                    }
                });
            }
        });
    };
    pass(&mut a);
    let secs = median_time_s(5, || pass(&mut a));
    std::hint::black_box(&a);
    (3 * len * 4) as f64 / secs / 1e9
}

/// The x86-64 widths the benchmark reports; a width the host lacks
/// reports 0.
const REPORTED_WIDTHS: [SimdWidth; 3] = [SimdWidth::Scalar, SimdWidth::Avx2, SimdWidth::Avx512];

pub fn roofline_metrics(r: &Roofline) -> Vec<Metric> {
    let mut m: Vec<Metric> = REPORTED_WIDTHS
        .iter()
        .map(|w| {
            let g = r
                .peak_by_width
                .iter()
                .find(|(pw, _)| pw == w)
                .map_or(0.0, |(_, g)| *g);
            (format!("host.peak_gflops.{}", w.name()), g, "GFLOP/s")
        })
        .collect();
    m.push(("host.stream_gbps".into(), r.stream_gbps, "GB/s"));
    m
}

/// `run_tasks` over one no-op item per worker: the per-call cost of
/// spawning the scheduler's threads.
pub fn spawn_us() -> f64 {
    let w = workers();
    for _ in 0..50 {
        run_tasks(vec![(); w], w, |_, _| {});
    }
    median_time_s(2000, || run_tasks(vec![(); w], w, |_, _| {})) * 1e6
}

/// Median µs of a cold `WinRsPlan::new` over the keys the engine runs.
pub fn plan_build_us(keys: &[Key]) -> f64 {
    let times: Vec<f64> = keys
        .iter()
        .filter(|k| WinRsPlan::validate(&k.shape, k.precision).is_empty())
        .map(|k| {
            median_time_s(3, || {
                let _ = std::hint::black_box(WinRsPlan::new(&k.shape, &RTX_4090, k.precision));
            }) * 1e6
        })
        .collect();
    median(&times)
}

/// The serve protocol functions and the dispatch queue, timed on `req`.
pub fn serve_microbench(req: &JobRequest) -> Vec<Metric> {
    const REPS: usize = 300;
    let body = req.to_json().to_document();
    let parse = median_time_s(REPS, || {
        let doc = Json::parse(std::hint::black_box(&body)).ok();
        let _ = std::hint::black_box(doc.as_ref().map(JobRequest::from_json));
    });
    let operands = median_time_s(REPS, || {
        std::hint::black_box(req.operands());
    });
    let (x, dy) = req.operands();
    let h = ExecHandle::new(
        WorkspacePool::new(PoolConfig::default()),
        RTX_4090,
        req.precision,
    );
    let Ok((dw, report)) = h.run(&req.shape, &x, &dy) else {
        return Vec::new();
    };
    let encode = median_time_s(REPS, || {
        std::hint::black_box(job_response_json(&report, &dw, req.gradient).to_document());
    });
    let digest = median_time_s(REPS, || {
        std::hint::black_box(gradient_digest(&dw));
    });
    let q: DispatchQueue<u8, u64> = DispatchQueue::new(256, None);
    let mut i = 0u64;
    let admit_collect = median_time_s(2000, || {
        i += 1;
        let _ = q.admit(0, i);
        std::hint::black_box(q.collect(Duration::ZERO));
    });
    vec![
        ("serve.protocol.parse_us".into(), parse * 1e6, "us"),
        ("serve.protocol.operands_us".into(), operands * 1e6, "us"),
        ("serve.protocol.encode_us".into(), encode * 1e6, "us"),
        ("serve.protocol.digest_us".into(), digest * 1e6, "us"),
        (
            "serve.queue.admit_collect_us".into(),
            admit_collect * 1e6,
            "us",
        ),
    ]
}

/// One row of the tuner regret table.
pub struct RegretRow {
    pub key: Key,
    pub chosen: AlgoChoice,
    /// Median ms per candidate the tuner ranked (WinRS via `Strict`, the
    /// substitutes via `Force`).
    pub times_ms: Vec<(AlgoChoice, f64)>,
}

impl RegretRow {
    pub fn fastest(&self) -> (AlgoChoice, f64) {
        self.times_ms
            .iter()
            .copied()
            .fold(
                (self.chosen, f64::INFINITY),
                |b, c| if c.1 < b.1 { c } else { b },
            )
    }

    pub fn chosen_ms(&self) -> f64 {
        self.times_ms
            .iter()
            .find(|(a, _)| *a == self.chosen)
            .map_or(f64::NAN, |(_, t)| *t)
    }

    pub fn regret(&self) -> f64 {
        self.chosen_ms() / self.fastest().1
    }
}

/// Time every candidate the tuner ranks for every mixed-shapes key, each
/// through its own `ExecHandle` so the policy pins the algorithm.
pub fn regret_table() -> Vec<RegretRow> {
    let pool = WorkspacePool::new(PoolConfig::default());
    MIXED
        .iter()
        .map(|key| {
            let (x, dy) = (
                Tensor4::<f32>::random_uniform(
                    [key.shape.n, key.shape.ih, key.shape.iw, key.shape.ic],
                    11,
                    1.0,
                ),
                Tensor4::<f32>::random_uniform(
                    [key.shape.n, key.shape.oh(), key.shape.ow(), key.shape.oc],
                    12,
                    1.0,
                ),
            );
            let d = pool.with_tuner(|t| t.decide(&key.shape, &RTX_4090, key.precision));
            let times_ms = d
                .ranked
                .iter()
                .filter_map(|c| {
                    let policy = match c.algo {
                        AlgoChoice::WinRs => FallbackPolicy::Strict,
                        other => FallbackPolicy::Force(other.algorithm()),
                    };
                    let h = ExecHandle::new(Arc::clone(&pool), RTX_4090, key.precision)
                        .with_policy(policy);
                    // A candidate slower than 20 ms is timed by its first
                    // run alone (plan building is microseconds); a faster
                    // one by the median of three warm runs.
                    let t = Instant::now();
                    h.run(&key.shape, &x, &dy).ok()?;
                    let first = t.elapsed().as_secs_f64();
                    let secs = if first > 0.020 {
                        first
                    } else {
                        median_time_s(3, || {
                            let _ = std::hint::black_box(h.run(&key.shape, &x, &dy));
                        })
                    };
                    let ms = secs * 1e3;
                    Some((c.algo, ms))
                })
                .collect();
            RegretRow {
                key: *key,
                chosen: d.chosen,
                times_ms,
            }
        })
        .collect()
}

pub fn regret_metrics(rows: &[RegretRow]) -> Vec<Metric> {
    let regrets: Vec<f64> = rows
        .iter()
        .map(RegretRow::regret)
        .filter(|r| r.is_finite())
        .collect();
    let best = rows.iter().filter(|r| r.fastest().0 == r.chosen).count();
    let mut m: Vec<Metric> = vec![
        (
            "core.tuner.pick_best_frac".into(),
            best as f64 / rows.len().max(1) as f64,
            "ratio",
        ),
        ("core.tuner.regret_p50".into(), median(&regrets), "ratio"),
    ];
    for (alg, name) in [
        (AlgoChoice::GemmBfc, "conv.gemm_bfc"),
        (AlgoChoice::Direct, "conv.direct"),
        (AlgoChoice::FftBfc, "conv.fft_bfc"),
    ] {
        let (mut ms, mut flops, mut n) = (0.0, 0.0, 0usize);
        for r in rows {
            if let Some((_, t)) = r.times_ms.iter().find(|(a, _)| *a == alg) {
                ms += t;
                flops += r.key.shape.bfc_flops() as f64;
                n += 1;
            }
        }
        m.push((format!("{name}.ms"), ms / n.max(1) as f64, "ms"));
        m.push((
            format!("{name}.gflops"),
            if ms > 0.0 {
                flops / (ms * 1e-3) / 1e9
            } else {
                0.0
            },
            "GFLOP/s",
        ));
    }
    m
}

pub fn render_regret(rows: &[RegretRow]) -> String {
    let mut s =
        String::from("key | chosen | chosen_ms | fastest | fastest_ms | ratio | all candidates\n");
    for r in rows {
        let (fa, fms) = r.fastest();
        let all: Vec<String> = r
            .times_ms
            .iter()
            .map(|(a, t)| format!("{}={t:.3}", a.name()))
            .collect();
        s.push_str(&format!(
            "{} | {} | {:.3} | {} | {:.3} | {:.2} | {}\n",
            r.key.label(),
            r.chosen.name(),
            r.chosen_ms(),
            fa.name(),
            fms,
            r.regret(),
            all.join(" ")
        ));
    }
    s
}
