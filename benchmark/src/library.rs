//! The library workloads: `fig10-large` and `mixed-shapes` drive
//! `ExecHandle::run` in a closed loop with one caller.
//!
//! The untraced run times each call. The traced run alternates untraced
//! and traced blocks of calls; in a traced block each call is followed by
//! a replay of the same input through the layers `ExecHandle::run` is
//! built from (tuner decision, plan cache, pool lease, engine, reduce, or
//! the chosen substitute), each wrapped in a span, on a shadow pool that
//! sees the same key sequence. That splits a call into per-layer self
//! times from outside the program.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use winrs_conv::direct::bfc_direct;
use winrs_core::engine::ExecOptions;
use winrs_core::{
    AlgoChoice, Algorithm, ExecHandle, FallbackPolicy, PhaseTimings, PoolConfig, Precision,
    TimingSink, WorkspacePool,
};
use winrs_gpu_sim::RTX_4090;
use winrs_tensor::{mare, Tensor4};

use crate::keys::Key;
use crate::trace::{aggregate, LayerStat, Span, Tracer};
use crate::util::{median, percentile, Rng, Zipf};

/// MARE bound a result must meet against the f64 direct reference — the
/// same per-precision bound `winrs verify` applies.
pub fn mare_bound(p: Precision) -> f64 {
    match p {
        Precision::Fp32 => 1e-4,
        Precision::Fp16 => 1e-1,
        Precision::Bf16 => 2e-1,
    }
}

/// One catalogue key with its seeded operands and the bits of its first
/// result, against which every later result of the key is compared.
pub struct Problem {
    pub key: Key,
    x_seed: u64,
    dy_seed: u64,
    pub x: Tensor4<f32>,
    pub dy: Tensor4<f32>,
    pub first: Option<Vec<u32>>,
}

impl Problem {
    pub fn new(key: Key, rng: &mut Rng) -> Problem {
        let (x_seed, dy_seed) = (rng.next_u64(), rng.next_u64());
        let (x64, dy64) = operands_f64(&key, x_seed, dy_seed);
        Problem {
            key,
            x_seed,
            dy_seed,
            x: x64.cast(),
            dy: dy64.cast(),
            first: None,
        }
    }

    /// Compare `dw` with this key's first result, recording it if this is
    /// the first. Dispatch is deterministic (pure cost-model tuner, no
    /// exploration), so any difference is a wrong result.
    pub fn check(&mut self, dw: &Tensor4<f32>) -> bool {
        if self.first.is_none() {
            self.first = Some(dw.as_slice().iter().map(|v| v.to_bits()).collect());
        }
        self.matches(dw)
    }

    /// True when `dw` is bitwise the recorded first result.
    pub fn matches(&self, dw: &Tensor4<f32>) -> bool {
        self.first.as_ref().is_some_and(|f| {
            f.iter()
                .copied()
                .eq(dw.as_slice().iter().map(|v| v.to_bits()))
        })
    }

    /// Check the recorded first result against f64 direct convolution.
    pub fn verify_f64(&self) -> Result<f64, String> {
        let Some(bits) = &self.first else {
            return Ok(0.0);
        };
        let s = &self.key.shape;
        let (x64, dy64) = operands_f64(&self.key, self.x_seed, self.dy_seed);
        let exact = bfc_direct(s, &x64, &dy64);
        let got = Tensor4::from_vec(
            [s.oc, s.fh, s.fw, s.ic],
            bits.iter().map(|b| f32::from_bits(*b)).collect(),
        );
        let m = mare(&got, &exact);
        if m.is_finite() && m < mare_bound(self.key.precision) {
            Ok(m)
        } else {
            Err(format!("{}: MARE {m:e} vs f64 direct", self.key.label()))
        }
    }
}

fn operands_f64(key: &Key, x_seed: u64, dy_seed: u64) -> (Tensor4<f64>, Tensor4<f64>) {
    let s = &key.shape;
    (
        Tensor4::<f64>::random_uniform([s.n, s.ih, s.iw, s.ic], x_seed, 1.0),
        Tensor4::<f64>::random_uniform([s.n, s.oh(), s.ow(), s.oc], dy_seed, 1.0),
    )
}

/// How a workload picks its next key.
pub enum Picker {
    Cycle(usize),
    Zipf(Zipf, Rng),
}

impl Picker {
    pub fn next(&mut self, n: usize) -> usize {
        match self {
            Picker::Cycle(i) => {
                let k = *i % n;
                *i += 1;
                k
            }
            Picker::Zipf(z, rng) => z.sample(rng),
        }
    }
}

/// A pool plus one `ExecHandle` per precision (Auto policy).
pub struct Handles {
    pub pool: Arc<WorkspacePool>,
    fp32: ExecHandle,
    fp16: ExecHandle,
}

impl Handles {
    pub fn new() -> Handles {
        let pool = WorkspacePool::new(PoolConfig::default());
        Handles {
            fp32: ExecHandle::new(Arc::clone(&pool), RTX_4090, Precision::Fp32),
            fp16: ExecHandle::new(Arc::clone(&pool), RTX_4090, Precision::Fp16),
            pool,
        }
    }

    pub fn get(&self, p: Precision) -> &ExecHandle {
        match p {
            Precision::Fp16 => &self.fp16,
            _ => &self.fp32,
        }
    }
}

/// Figures of one closed-loop measurement.
#[derive(Default)]
pub struct LoopStats {
    /// Per completed call: end time from the loop's start (s), latency
    /// (ms) and direct-convolution FLOPs.
    pub samples: Vec<(f64, f64, u64)>,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub workspace_peak_bytes: usize,
}

/// One call through `ExecHandle::run`, checked. Returns the call's wall
/// time in seconds, or `None` when it failed or was wrong.
fn call(h: &Handles, p: &mut Problem, stats: &mut LoopStats) -> Option<f64> {
    stats.attempted += 1;
    let t = Instant::now();
    let out = h.get(p.key.precision).run(&p.key.shape, &p.x, &p.dy);
    let dt = t.elapsed().as_secs_f64();
    match out {
        Ok((dw, report)) if p.check(&dw) => {
            stats.workspace_peak_bytes = stats
                .workspace_peak_bytes
                .max(report.mem.workspace_bytes_peak);
            Some(dt)
        }
        Ok((_, _)) => {
            eprintln!("wrong result for {}", p.key.label());
            stats.failed += 1;
            None
        }
        Err(e) => {
            eprintln!("call failed for {}: {e}", p.key.label());
            stats.failed += 1;
            None
        }
    }
}

/// Closed loop with one caller for `seconds`.
pub fn run_loop(
    h: &Handles,
    problems: &mut [Problem],
    picker: &mut Picker,
    seconds: f64,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        let i = picker.next(problems.len());
        if let Some(dt) = call(h, &mut problems[i], &mut stats) {
            stats.samples.push((
                start.elapsed().as_secs_f64(),
                dt * 1e3,
                problems[i].key.shape.bfc_flops(),
            ));
        }
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}

/// End-to-end figures as medians over equal time windows of a run, so a
/// burst of interference from outside the process moves at most the
/// windows it falls in.
pub struct Windowed {
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub calls_per_s: f64,
    pub gflops: f64,
    /// Fewest calls in any window.
    pub min_calls: usize,
    pub per_window_calls_per_s: Vec<f64>,
}

pub fn windowed(stats: &LoopStats, windows: usize) -> Windowed {
    let len = stats.wall_s / windows as f64;
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); windows];
    let mut flops = vec![0u64; windows];
    for &(t, ms, f) in &stats.samples {
        let w = ((t / len) as usize).min(windows - 1);
        lat[w].push(ms);
        flops[w] += f;
    }
    let per = |f: &dyn Fn(usize) -> f64| median(&(0..windows).map(f).collect::<Vec<_>>());
    Windowed {
        p50_ms: per(&|w| median(&lat[w])),
        p90_ms: per(&|w| percentile(&lat[w], 90.0)),
        calls_per_s: per(&|w| lat[w].len() as f64 / len),
        gflops: per(&|w| flops[w] as f64 / len / 1e9),
        min_calls: lat.iter().map(Vec::len).min().unwrap_or(0),
        per_window_calls_per_s: lat.iter().map(|l| l.len() as f64 / len).collect(),
    }
}

/// One cold set-up: a fresh pool and handles, then the first call of
/// `p` (cold plan, first tuner decision). Returns its wall time and the
/// result, which the caller checks against the verified first result.
pub fn cold_setup(p: &Problem, origin: Instant) -> (f64, Option<Tensor4<f32>>) {
    let h = Handles::new();
    let out = h.get(p.key.precision).run(&p.key.shape, &p.x, &p.dy);
    (origin.elapsed().as_secs_f64(), out.ok().map(|(dw, _)| dw))
}

/// Engine-side figures accumulated across replays.
#[derive(Default)]
pub struct EngineAcc {
    pub execs: u64,
    pub flops: u64,
    pub bytes: u64,
    pub phases: PhaseTimings,
    pub utilisation_sum: f64,
    pub block_ratio_sum: f64,
    pub reduce_bytes: u64,
    /// Per key label: (block min, mean, max) seconds of the last replay.
    pub blocks_by_key: BTreeMap<String, (f64, f64, f64)>,
    pub replay_mismatches: u64,
}

/// The shadow pool the replays run on: the same key sequence as the
/// measured pool, so its plan and decision caches hold the same keys.
pub struct Replay {
    pool: Arc<WorkspacePool>,
    pub acc: EngineAcc,
}

impl Replay {
    pub fn new() -> Replay {
        Replay {
            pool: WorkspacePool::new(PoolConfig::default()),
            acc: EngineAcc::default(),
        }
    }

    /// Replay `p` layer by layer. `expect` is the result `ExecHandle::run`
    /// returned for the same input; the replay must reproduce it bitwise.
    fn run(&mut self, tr: &mut Tracer, req: u64, p: &Problem, expect: &Tensor4<f32>) {
        let conv = p.key.shape;
        let prec = p.key.precision;
        let decision = tr.span("core.tuner.decide", req, |_| {
            self.pool.with_tuner(|t| t.decide(&conv, &RTX_4090, prec))
        });
        if decision.chosen != AlgoChoice::WinRs {
            let alg = decision.chosen.algorithm();
            let h = ExecHandle::new(Arc::clone(&self.pool), RTX_4090, prec)
                .with_policy(FallbackPolicy::Force(alg));
            let out = tr.span(substitute_span(alg), req, |_| h.run(&conv, &p.x, &p.dy));
            if !matches!(out, Ok((ref dw, _)) if same_bits(dw, expect)) {
                self.acc.replay_mismatches += 1;
            }
            return;
        }
        let (_, misses0) = self.pool.plan_stats();
        let t = Instant::now();
        let plan = self.pool.cached_plan(&conv, &RTX_4090, prec);
        let (_, misses1) = self.pool.plan_stats();
        let name = if misses1 > misses0 {
            "core.plan.build"
        } else {
            "core.cache.lookup"
        };
        tr.record(name, req, t, Instant::now());
        let Ok(plan) = plan else {
            self.acc.replay_mismatches += 1;
            return;
        };
        let layout = plan.workspace_layout();
        let Ok(mut lease) = tr.span("core.pool.lease", req, |_| self.pool.lease(layout)) else {
            self.acc.replay_mismatches += 1;
            return;
        };
        let ws = lease.workspace();
        let Ok(ctx) = ws.ctx(layout) else {
            self.acc.replay_mismatches += 1;
            return;
        };
        let mode = plan.tile_mode();
        let sink = TimingSink::new();
        let opts = ExecOptions {
            scratch: Some(&ctx.scratch),
            // The same health accounting `ExecHandle::run` asks for under
            // its default `Warn` guard.
            health: (mode != winrs_core::engine::TileMode::Fp32).then_some(ctx.health),
            timing: Some(&sink),
            ..Default::default()
        };
        let t = Instant::now();
        let ok = tr.span("core.engine.exec", req, |_| {
            plan.execute_into_buckets(&p.x, &p.dy, mode, ctx.buckets, opts)
        });
        let exec_s = t.elapsed().as_secs_f64();
        let mut dw = Tensor4::<f32>::zeros([conv.oc, conv.fh, conv.fw, conv.ic]);
        tr.span("core.reduce", req, |_| {
            plan.reduce_into(ctx.buckets, &mut dw)
        });
        if ok.is_err() || !same_bits(&dw, expect) {
            self.acc.replay_mismatches += 1;
        }

        let mut pt = PhaseTimings {
            block_loop_s: exec_s,
            ..Default::default()
        };
        pt.absorb_sink(&sink, winrs_core::workspace::default_scratch_slots());
        let a = &mut self.acc;
        a.execs += 1;
        a.flops += plan.flops();
        let z_dw = (plan.z() * conv.dw_elems()) as u64;
        a.bytes += (conv.x_elems() as u64 + conv.dy_elems() as u64 + z_dw) * 4;
        a.reduce_bytes += z_dw * 4;
        a.phases.ft_s += pt.ft_s;
        a.phases.it_s += pt.it_s;
        a.phases.ewmm_s += pt.ewmm_s;
        a.phases.ot_s += pt.ot_s;
        a.utilisation_sum += pt.utilisation;
        if pt.block_mean_s > 0.0 {
            a.block_ratio_sum += pt.block_max_s / pt.block_mean_s;
        }
        a.blocks_by_key.insert(
            p.key.label(),
            (pt.block_min_s, pt.block_mean_s, pt.block_max_s),
        );
    }
}

fn same_bits(a: &Tensor4<f32>, b: &Tensor4<f32>) -> bool {
    a.as_slice()
        .iter()
        .map(|v| v.to_bits())
        .eq(b.as_slice().iter().map(|v| v.to_bits()))
}

pub fn substitute_span(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::GemmBfc => "conv.gemm_bfc",
        Algorithm::FftBfc => "conv.fft_bfc",
        _ => "conv.direct",
    }
}

/// The traced run's library loop.
pub struct TracedLoop {
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub stats: LoopStats,
    pub layers: BTreeMap<&'static str, LayerStat>,
    pub replay: Replay,
    pub spans: Vec<Span>,
}

/// Alternate blocks of untraced calls and traced calls (each followed by
/// its replay) for `seconds`.
pub fn run_traced(
    h: &Handles,
    problems: &mut [Problem],
    picker: &mut Picker,
    seconds: f64,
    origin: Instant,
) -> TracedLoop {
    const BLOCK: usize = 8;
    let mut tr = Tracer::new(true, origin);
    let mut replay = Replay::new();
    let mut stats = LoopStats::default();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut req = 0u64;
    let mut traced_block = false;
    while Instant::now() < end {
        for _ in 0..BLOCK {
            let i = picker.next(problems.len());
            let p = &mut problems[i];
            req += 1;
            if !traced_block {
                if let Some(dt) = call(h, p, &mut stats) {
                    untraced_ms.push(dt * 1e3);
                }
                continue;
            }
            stats.attempted += 1;
            let t = Instant::now();
            let out = tr.span("core.dispatch", req, |_| {
                h.get(p.key.precision).run(&p.key.shape, &p.x, &p.dy)
            });
            traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match out {
                Ok((dw, report)) if p.check(&dw) => {
                    stats.workspace_peak_bytes = stats
                        .workspace_peak_bytes
                        .max(report.mem.workspace_bytes_peak);
                    tr.span("replay", req, |tr| replay.run(tr, req, p, &dw));
                }
                _ => stats.failed += 1,
            }
        }
        traced_block = !traced_block;
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    let spans = tr.into_spans();
    let mut layers = BTreeMap::new();
    aggregate(&spans, &mut layers);
    TracedLoop {
        untraced_ms,
        traced_ms,
        stats,
        layers,
        replay,
        spans,
    }
}

/// Per-layer metrics from a traced library loop.
pub fn layer_metrics(
    t: &TracedLoop,
    pool: &WorkspacePool,
    peak_gflops: f64,
    stream_gbps: f64,
) -> Vec<(String, f64, &'static str)> {
    let l = |name: &str| t.layers.get(name).copied().unwrap_or_default();
    let a = &t.replay.acc;
    let n = a.execs.max(1) as f64;
    let exec = l("core.engine.exec");
    let exec_s = exec.total_ns as f64 * 1e-9;
    let gflops_exec = if exec_s > 0.0 {
        a.flops as f64 / exec_s / 1e9
    } else {
        0.0
    };
    let ops_per_byte = a.flops as f64 / a.bytes.max(1) as f64;
    let bound = peak_gflops.min(stream_gbps * ops_per_byte);
    let reduce = l("core.reduce");
    let reduce_s = reduce.total_ns as f64 * 1e-9;
    let (hits, misses) = pool.plan_stats();
    let st = pool.stats();
    let tc = pool.tuner_counters();
    let dispatch = l("core.dispatch");
    let parts: u64 = [
        "core.tuner.decide",
        "core.cache.lookup",
        "core.plan.build",
        "core.pool.lease",
        "core.engine.exec",
        "core.reduce",
        "conv.gemm_bfc",
        "conv.direct",
        "conv.fft_bfc",
    ]
    .iter()
    .map(|name| l(name).total_ns)
    .sum();
    let overhead_ms = if dispatch.count > 0 {
        (dispatch.total_ns as f64 - parts as f64) / dispatch.count as f64 / 1e6
    } else {
        0.0
    };
    vec![
        ("core.engine.exec_ms".into(), exec.mean_total_ms(), "ms"),
        ("core.engine.gflops_executed".into(), gflops_exec, "GFLOP/s"),
        (
            "core.engine.roofline_frac".into(),
            if bound > 0.0 {
                gflops_exec / bound
            } else {
                0.0
            },
            "ratio",
        ),
        ("core.engine.ops_per_byte".into(), ops_per_byte, "flop/B"),
        ("core.engine.ft_ms".into(), a.phases.ft_s / n * 1e3, "ms"),
        ("core.engine.it_ms".into(), a.phases.it_s / n * 1e3, "ms"),
        (
            "core.engine.ewmm_ms".into(),
            a.phases.ewmm_s / n * 1e3,
            "ms",
        ),
        ("core.engine.ot_ms".into(), a.phases.ot_s / n * 1e3, "ms"),
        (
            "core.engine.utilisation".into(),
            a.utilisation_sum / n,
            "ratio",
        ),
        (
            "core.engine.block_max_over_mean".into(),
            a.block_ratio_sum / n,
            "ratio",
        ),
        ("core.reduce.ms".into(), reduce.mean_total_ms(), "ms"),
        (
            "core.reduce.gbps".into(),
            if reduce_s > 0.0 {
                a.reduce_bytes as f64 / reduce_s / 1e9
            } else {
                0.0
            },
            "GB/s",
        ),
        (
            "core.cache.lookup_us".into(),
            l("core.cache.lookup").mean_total_ms() * 1e3,
            "us",
        ),
        (
            "core.cache.hit_frac".into(),
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        (
            "core.tuner.decide_us".into(),
            l("core.tuner.decide").mean_total_ms() * 1e3,
            "us",
        ),
        ("core.tuner.evictions".into(), tc.evictions as f64, "count"),
        (
            "core.pool.lease_us".into(),
            l("core.pool.lease").mean_total_ms() * 1e3,
            "us",
        ),
        ("core.pool.waits".into(), st.waits as f64, "count"),
        ("core.pool.exhausted".into(), st.exhausted as f64, "count"),
        (
            "core.pool.degradations".into(),
            st.degradations as f64,
            "count",
        ),
        ("core.dispatch.overhead_ms".into(), overhead_ms, "ms"),
        (
            "core.workspace.peak_bytes".into(),
            t.stats.workspace_peak_bytes as f64,
            "bytes",
        ),
    ]
}

/// p50 / p90 summary line for a latency sample set.
pub fn describe(lat: &[f64]) -> String {
    format!(
        "n={} p50={:.4}ms p90={:.4}ms p99={:.4}ms",
        lat.len(),
        median(lat),
        percentile(lat, 90.0),
        percentile(lat, 99.0)
    )
}
