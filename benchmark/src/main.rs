//! The repository benchmark: three workloads over the WinRS library and
//! its BFC service, driven only through public APIs.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fig10-large|mixed-shapes|serve-open --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the traced
//! run that reports per-layer metrics. A human-readable report goes to
//! stderr; the last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `benchmark/README.md`.

mod keys;
mod library;
mod probes;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use keys::{Key, FIG10_LARGE, MIXED, MIXED_ZIPF_S, SERVE_JOBS, SERVE_MIX_FIRST};
use library::{Handles, Picker, Problem};
use probes::Metric;
use serve::LegSpec;
use trace::{aggregate, Span};
use util::{mean, median, percentile, Rng, Zipf};

/// Time windows per library run; the end-to-end figures are medians
/// over them.
const WINDOWS: usize = 5;
/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// serve-open fixed rates, req/s.
const LOW_RPS: f64 = 100.0;
const HIGH_RPS: f64 = 200.0;
/// serve-open rounds of (low, high, saturated) legs.
const ROUNDS: usize = 3;
/// Third rung of the `max_rps_slo` ladder (low, high, top), req/s.
const TOP_RPS: f64 = 350.0;
/// Offered rate of the capacity leg, far past what the server completes.
const SATURATE_RPS: f64 = 650.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Human-readable report (stderr and the results file).
    report: String,
}

fn main() {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: winrs-benchmark --workload fig10-large|mixed-shapes|serve-open \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let outcome = match (args.workload.as_str(), args.trace) {
        ("fig10-large", false) => library_e2e(&FIG10_LARGE, Picker::Cycle(0), &args, origin),
        ("mixed-shapes", false) => library_e2e(&MIXED, mixed_picker(args.seed), &args, origin),
        ("fig10-large", true) => library_traced(&FIG10_LARGE, Picker::Cycle(0), &args, origin),
        ("mixed-shapes", true) => library_traced(&MIXED, mixed_picker(args.seed), &args, origin),
        ("serve-open", false) => serve_e2e(&args, origin),
        ("serve-open", true) => serve_traced(&args, origin),
        (other, _) => Err(format!("unknown workload `{other}`")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    eprint!("{}", outcome.report);
    let name = format!(
        "{}-seed{}-trace{}.txt",
        args.workload, args.seed, args.trace as u8
    );
    if let Err(e) = write_out(&name, &outcome.report) {
        eprintln!("warning: could not write results file: {e}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                json_num(*value)
            )
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (no data) become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Where run artefacts (reports, traces, regret tables) go: `out/` in the
/// benchmark package.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn write_out(name: &str, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(out_dir().join(name), text)
}

fn mixed_picker(seed: u64) -> Picker {
    Picker::Zipf(
        Zipf::new(MIXED.len(), MIXED_ZIPF_S),
        Rng::new(seed ^ 0x005e_ed0f_2140),
    )
}

fn metric_lines(out: &mut String, metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        let _ = writeln!(out, "  {name:<36} {value:>14.6} {unit}");
    }
}

/// Build the seeded problems and warm every key once (first results are
/// recorded for the later bitwise checks).
fn warm_problems(keys: &[Key], seed: u64, h: &Handles) -> Vec<Problem> {
    let mut rng = Rng::new(seed);
    let mut problems: Vec<Problem> = keys.iter().map(|k| Problem::new(*k, &mut rng)).collect();
    for p in &mut problems {
        if let Ok((dw, _)) = h.get(p.key.precision).run(&p.key.shape, &p.x, &p.dy) {
            p.check(&dw);
        }
    }
    problems
}

/// Check every key's first result against f64 direct convolution.
fn verify_all(problems: &[Problem], report: &mut String) -> u64 {
    let mut failed = 0;
    let mut worst = 0.0f64;
    for p in problems {
        match p.verify_f64() {
            Ok(m) => worst = worst.max(m),
            Err(e) => {
                let _ = writeln!(report, "  VERIFY FAILED {e}");
                failed += 1;
            }
        }
    }
    let _ = writeln!(
        report,
        "verification: {} keys vs f64 bfc_direct, worst MARE {worst:.3e}, {failed} failed",
        problems.len()
    );
    failed
}

fn library_e2e(
    keys: &[Key],
    mut picker: Picker,
    args: &Args,
    origin: Instant,
) -> Result<Outcome, String> {
    let mut report = format!("workload {} seed {} (untraced)\n", args.workload, args.seed);
    // Cold set-ups first: the first one also pays for process start.
    let probe = Problem::new(keys[0], &mut Rng::new(args.seed));
    let mut setups = Vec::new();
    let mut setup_results = Vec::new();
    for i in 0..SETUP_REPS {
        let t0 = if i == 0 { origin } else { Instant::now() };
        let (secs, dw) = library::cold_setup(&probe, t0);
        setups.push(secs);
        setup_results.push(dw);
    }

    let h = Handles::new();
    let mut problems = warm_problems(keys, args.seed, &h);
    let stats = library::run_loop(&h, &mut problems, &mut picker, args.seconds);
    let rss = util::peak_rss_mib();

    let mut failed = stats.failed + verify_all(&problems, &mut report);
    // Set-up results must match the verified first result of the key.
    failed += setup_results
        .iter()
        .filter(|dw| !dw.as_ref().is_some_and(|dw| problems[0].matches(dw)))
        .count() as u64;
    let attempted = stats.attempted + SETUP_REPS as u64;
    let lat: Vec<f64> = stats.samples.iter().map(|s| s.1).collect();
    let win = library::windowed(&stats, WINDOWS);
    let metrics: Vec<Metric> = vec![
        ("setup_s".into(), median(&setups), "s"),
        ("latency_ms_p50".into(), win.p50_ms, "ms"),
        ("latency_ms_tail".into(), win.p90_ms, "ms"),
        ("throughput_per_s".into(), win.calls_per_s, "1/s"),
        ("gflops".into(), win.gflops, "GFLOP/s"),
        ("rss_peak_mib".into(), rss, "MiB"),
    ];
    let _ = writeln!(report, "whole run: {}", library::describe(&lat));
    let _ = writeln!(
        report,
        "calls/s per window: {:.1?}",
        win.per_window_calls_per_s
    );
    let _ = writeln!(
        report,
        "medians of {WINDOWS} windows (>= {} calls each, so >= {} beyond p90): call_ms_p50 {:.4} ms, call_ms_p90 {:.4} ms, \
         calls_per_s {:.2}, gflops {:.3}",
        win.min_calls,
        win.min_calls / 10,
        win.p50_ms,
        win.p90_ms,
        win.calls_per_s,
        win.gflops
    );
    let _ = writeln!(
        report,
        "setup_s runs: {setups:?}; workspace_peak_bytes {}; fail_frac {:.6} ({failed}/{attempted})",
        stats.workspace_peak_bytes,
        failed as f64 / attempted as f64
    );
    let pc = h.pool.plan_stats();
    let _ = writeln!(
        report,
        "pool {:?}; plan cache {}h/{}m; tuner {:?}",
        h.pool.stats(),
        pc.0,
        pc.1,
        h.pool.tuner_counters()
    );
    metric_lines(&mut report, &metrics);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        report,
    })
}

/// The workload-independent probes every traced run reports.
fn common_probes(
    engine_keys: &[Key],
    report: &mut String,
    args: &Args,
) -> (probes::Roofline, Vec<Metric>) {
    let roof = probes::roofline();
    let mut m = probes::roofline_metrics(&roof);
    let _ = writeln!(
        report,
        "roofline: triad arrays {} MiB each (3 arrays), LLC reported {} MiB; peak per width {:?}",
        roof.array_bytes >> 20,
        roof.llc_bytes
            .map_or("unknown".to_string(), |b| (b >> 20).to_string()),
        roof.peak_by_width
            .iter()
            .map(|(w, g)| format!("{}={g:.2}", w.name()))
            .collect::<Vec<_>>()
    );
    m.push((
        "core.engine.sched.spawn_us".into(),
        probes::spawn_us(),
        "us",
    ));
    m.push((
        "core.plan.build_us".into(),
        probes::plan_build_us(engine_keys),
        "us",
    ));
    let serve_req = serve::templates(&mut Rng::new(args.seed))
        .ok()
        .and_then(|t| t.into_iter().next())
        .map(|t| t.req);
    if let Some(req) = serve_req {
        m.extend(probes::serve_microbench(&req));
    }
    let rows = probes::regret_table();
    let table = probes::render_regret(&rows);
    let _ = writeln!(
        report,
        "tuner regret table over the mixed-shapes catalogue:\n{table}"
    );
    m.extend(probes::regret_metrics(&rows));
    (roof, m)
}

fn library_traced(
    keys: &[Key],
    mut picker: Picker,
    args: &Args,
    origin: Instant,
) -> Result<Outcome, String> {
    let mut report = format!("workload {} seed {} (traced)\n", args.workload, args.seed);
    let h = Handles::new();
    let mut problems = warm_problems(keys, args.seed, &h);
    let traced = library::run_traced(&h, &mut problems, &mut picker, args.seconds, origin);
    let failed_loop = traced.stats.failed + traced.replay.acc.replay_mismatches;

    let (roof, mut metrics) = common_probes(keys, &mut report, args);
    let mut lm = library::layer_metrics(
        &traced,
        &h.pool,
        roof.engine_peak_gflops(),
        roof.stream_gbps,
    );
    metrics.append(&mut lm);
    metrics.push((
        "trace.overhead_ms".into(),
        median(&traced.traced_ms) - median(&traced.untraced_ms),
        "ms",
    ));

    // The serve layer on the serve-open job mix, briefly, at the low rate.
    let (serve_metrics, serve_failed, serve_attempted, serve_spans) =
        serve_probe_leg(args, origin, &mut report)?;
    metrics.extend(serve_metrics);

    let failed = failed_loop + serve_failed + verify_all(&problems, &mut report);
    let attempted = traced.stats.attempted + serve_attempted;
    let _ = writeln!(
        report,
        "untraced calls: {}\ntraced calls:   {}",
        library::describe(&traced.untraced_ms),
        library::describe(&traced.traced_ms)
    );
    for (k, (lo, mid, hi)) in &traced.replay.acc.blocks_by_key {
        let _ = writeln!(
            report,
            "block walls {k}: min {:.3} / mean {:.3} / max {:.3} ms (max/mean {:.2})",
            lo * 1e3,
            mid * 1e3,
            hi * 1e3,
            hi / mid
        );
    }
    layer_table(&mut report, std::slice::from_ref(&traced.spans));
    let spawn = metrics
        .iter()
        .find(|m| m.0 == "core.engine.sched.spawn_us")
        .map_or(0.0, |m| m.1);
    let _ = writeln!(
        report,
        "finding: one run_tasks spawn scope is {:.1} us = {:.1}% of the mean untraced call ({:.4} ms)",
        spawn,
        spawn / 1e3 / mean(&traced.untraced_ms) * 100.0,
        mean(&traced.untraced_ms)
    );
    write_trace(args, &[traced.spans.clone(), serve_spans]);
    metric_lines(&mut report, &metrics);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        report,
    })
}

/// Per-layer self-time table from spans.
fn layer_table(report: &mut String, threads: &[Vec<Span>]) {
    let mut layers = BTreeMap::new();
    for spans in threads {
        aggregate(spans, &mut layers);
    }
    let _ = writeln!(report, "span | count | mean total ms | mean self ms");
    for (name, s) in &layers {
        let _ = writeln!(
            report,
            "{name} | {} | {:.4} | {:.4}",
            s.count,
            s.mean_total_ms(),
            s.mean_self_ms()
        );
    }
}

fn write_trace(args: &Args, threads: &[Vec<Span>]) {
    let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = trace::write_spans(&path, threads) {
        eprintln!("warning: could not write trace: {e}");
    }
}

/// Serve layer metrics from traced legs and the server's counters.
fn serve_layer_metrics(legs: &[&serve::Leg], server: &winrs_serve::Server) -> Vec<Metric> {
    use std::sync::atomic::Ordering::Relaxed;
    let st = server.stats();
    let completed = st.completed.load(Relaxed).max(1) as f64;
    let overhead: Vec<f64> = legs
        .iter()
        .flat_map(|l| l.overhead_ms.iter().copied())
        .collect();
    let lag: Vec<f64> = legs.iter().flat_map(|l| l.lag_ms.iter().copied()).collect();
    vec![
        ("serve.overhead_ms".into(), median(&overhead), "ms"),
        (
            "serve.queue.batch_mean".into(),
            completed / st.batches.load(Relaxed).max(1) as f64,
            "jobs",
        ),
        (
            "serve.queue.coalesced_frac".into(),
            st.coalesced_jobs.load(Relaxed) as f64 / completed,
            "ratio",
        ),
        ("loadgen.lag_ms_p99".into(), percentile(&lag, 99.0), "ms"),
    ]
}

fn spawn_server(window: Duration) -> Result<winrs_serve::Server, String> {
    winrs_serve::Server::spawn(serve::config(window)).map_err(|e| format!("server: {e}"))
}

fn leg_spec(rate: f64, seconds: f64, rng: &mut Rng, trace: bool) -> LegSpec {
    LegSpec {
        rate,
        seconds,
        seed: rng.next_u64(),
        trace,
        quickack: false,
    }
}

/// Low-rate legs for the library workloads' traced runs: one traced,
/// one with the client ACKing at once (`serve.ack_stall_ms`).
fn serve_probe_leg(
    args: &Args,
    origin: Instant,
    report: &mut String,
) -> Result<(Vec<Metric>, u64, u64, Vec<Span>), String> {
    let mut rng = Rng::new(args.seed ^ 0x5e7e);
    let templates = serve::templates(&mut rng)?;
    let mut server = spawn_server(winrs_serve::ServeConfig::default().window)?;
    let addr = server.addr();
    let _warm = serve::run_leg(
        addr,
        &templates,
        leg_spec(LOW_RPS, 0.3, &mut rng, false),
        origin,
    );
    let leg = serve::run_leg(
        addr,
        &templates,
        leg_spec(LOW_RPS, 2.0, &mut rng, true),
        origin,
    );
    let quick = serve::run_leg(
        addr,
        &templates,
        LegSpec {
            quickack: true,
            ..leg_spec(LOW_RPS, 2.0, &mut rng, false)
        },
        origin,
    );
    let mut m = serve_layer_metrics(&[&leg], &server);
    m.push((
        "serve.ack_stall_ms".into(),
        leg.p(50.0) - quick.p(50.0),
        "ms",
    ));
    leg_line(report, "serve probe leg", &leg);
    leg_line(report, "serve probe leg, client TCP_QUICKACK", &quick);
    server.shutdown();
    let spans = leg.spans.into_iter().flatten().collect();
    Ok((m, leg.failed + quick.failed, leg.sent + quick.sent, spans))
}

fn leg_line(report: &mut String, name: &str, leg: &serve::Leg) {
    let _ = writeln!(
        report,
        "{name}: rate {:.0} req/s sent {} ok {} failed {} goodput {:.1}/s p50 {:.3} ms p99 {:.3} ms ({} beyond p99) lag_p99 {:.3} ms backlog {}",
        leg.rate,
        leg.sent,
        leg.ok,
        leg.failed,
        leg.goodput(),
        leg.p(50.0),
        leg.p(99.0),
        leg.latency_ms.len() / 100,
        percentile(&leg.lag_ms, 99.0),
        leg.backlog
    );
}

fn serve_e2e(args: &Args, origin: Instant) -> Result<Outcome, String> {
    let mut report = format!("workload serve-open seed {} (untraced)\n", args.seed);
    let mut rng = Rng::new(args.seed);
    let templates = serve::templates(&mut rng)?;
    let mut setups = Vec::new();
    let mut failed = 0;
    for i in 0..SETUP_REPS {
        let t0 = if i == 0 { origin } else { Instant::now() };
        match serve::cold_setup(&templates, t0) {
            Some(s) => setups.push(s),
            None => failed += 1,
        }
    }

    let mut server = spawn_server(winrs_serve::ServeConfig::default().window)?;
    let addr = server.addr();
    let mut leg = |rate: f64, secs: f64| {
        serve::run_leg(
            addr,
            &templates,
            leg_spec(rate, secs, &mut rng, false),
            origin,
        )
    };
    let _warm = leg(LOW_RPS, 0.5);
    // Rounds interleave the legs, so interference from outside the process
    // falls on every leg alike; latencies pool across rounds, capacity is
    // the median round.
    let (mut low, mut high) = (serve::Leg::default(), serve::Leg::default());
    let mut saturated = Vec::new();
    for _ in 0..ROUNDS {
        let part = args.seconds / ROUNDS as f64;
        low.absorb(leg(LOW_RPS, part * 0.25));
        high.absorb(leg(HIGH_RPS, part * 0.3));
        // Offered load far past capacity keeps both connections'
        // pipelines full: the goodput inside the window is the capacity.
        saturated.push(leg(SATURATE_RPS, part * 0.25));
    }
    (low.rate, low.seconds, high.rate, high.seconds) =
        (LOW_RPS, args.seconds * 0.25, HIGH_RPS, args.seconds * 0.3);
    let top = leg(TOP_RPS, args.seconds * 0.1);
    server.shutdown();
    let rss = util::peak_rss_mib();

    let capacity = median(
        &saturated
            .iter()
            .map(serve::Leg::goodput)
            .collect::<Vec<_>>(),
    );
    let ladder = [&low, &high, &top];
    let max_rps_slo = ladder
        .iter()
        .filter(|l| l.meets_slo())
        .map(|l| l.rate)
        .fold(0.0, f64::max);
    let all: Vec<&serve::Leg> = [&low, &high, &top].into_iter().chain(&saturated).collect();
    failed += all.iter().map(|l| l.failed).sum::<u64>();
    let attempted = all.iter().map(|l| l.sent).sum::<u64>() + SETUP_REPS as u64;
    let metrics: Vec<Metric> = vec![
        ("setup_s".into(), median(&setups), "s"),
        ("latency_ms_p50".into(), low.p(50.0), "ms"),
        ("latency_ms_tail".into(), high.p(99.0), "ms"),
        ("throughput_per_s".into(), capacity, "1/s"),
        (
            "gflops".into(),
            capacity * serve::mean_flops(&templates) / 1e9,
            "GFLOP/s",
        ),
        ("rss_peak_mib".into(), rss, "MiB"),
    ];
    leg_line(&mut report, "low", &low);
    leg_line(&mut report, "high", &high);
    leg_line(&mut report, "top", &top);
    for (i, l) in saturated.iter().enumerate() {
        leg_line(&mut report, &format!("saturated[{i}]"), l);
    }
    let _ = writeln!(
        report,
        "req_ms_p50.low {:.4} req_ms_p99.low {:.4} req_ms_p50.high {:.4} req_ms_p99.high {:.4}\n\
         max_rps_slo {:.1} (highest of the low/high/top rates with p99 <= {} ms and no growing backlog; 0 = none)\n\
         capacity {:.1} req/s (goodput at an offered {SATURATE_RPS} req/s)",
        low.p(50.0),
        low.p(99.0),
        high.p(50.0),
        high.p(99.0),
        max_rps_slo,
        serve::SLO_P99_MS,
        capacity
    );
    let _ = writeln!(
        report,
        "setup_s runs: {setups:?}; fail_frac {:.6} ({failed}/{attempted}); generator {} threads/connections",
        failed as f64 / attempted as f64,
        serve::connections()
    );
    metric_lines(&mut report, &metrics);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        report,
    })
}

fn serve_traced(args: &Args, origin: Instant) -> Result<Outcome, String> {
    let mut report = format!("workload serve-open seed {} (traced)\n", args.seed);
    let mut rng = Rng::new(args.seed);
    let templates = serve::templates(&mut rng)?;
    let part = args.seconds / 6.0;

    let mut server = spawn_server(winrs_serve::ServeConfig::default().window)?;
    let addr = server.addr();
    let _warm = serve::run_leg(
        addr,
        &templates,
        leg_spec(LOW_RPS, 0.5, &mut rng, false),
        origin,
    );
    let low_untraced = serve::run_leg(
        addr,
        &templates,
        leg_spec(LOW_RPS, part, &mut rng, false),
        origin,
    );
    let low = serve::run_leg(
        addr,
        &templates,
        leg_spec(LOW_RPS, part, &mut rng, true),
        origin,
    );
    let high = serve::run_leg(
        addr,
        &templates,
        leg_spec(HIGH_RPS, part, &mut rng, true),
        origin,
    );
    let low_quickack = serve::run_leg(
        addr,
        &templates,
        LegSpec {
            quickack: true,
            ..leg_spec(LOW_RPS, part, &mut rng, false)
        },
        origin,
    );

    // The same low-rate leg against a server with no coalescing window.
    let mut bare = spawn_server(Duration::ZERO)?;
    let _ = serve::run_leg(
        bare.addr(),
        &templates,
        leg_spec(LOW_RPS, 0.5, &mut rng, false),
        origin,
    );
    let low_bare = serve::run_leg(
        bare.addr(),
        &templates,
        leg_spec(LOW_RPS, part, &mut rng, false),
        origin,
    );
    bare.shutdown();

    // The serve jobs replayed layer by layer in-process.
    let h = Handles::new();
    let mut problems = warm_problems(&SERVE_JOBS, args.seed, &h);
    let mut picker = Picker::Zipf(weighted_two(), Rng::new(args.seed ^ 0x2));
    let traced = library::run_traced(&h, &mut problems, &mut picker, part, origin);

    let (roof, mut metrics) = common_probes(&SERVE_JOBS, &mut report, args);
    // The workload's pool is the server's; its engine figures come from
    // the in-process replay.
    let mut lm = library::layer_metrics(
        &traced,
        server.pool(),
        roof.engine_peak_gflops(),
        roof.stream_gbps,
    );
    metrics.append(&mut lm);
    metrics.extend(serve_layer_metrics(&[&low, &high], &server));
    metrics.push((
        "serve.ack_stall_ms".into(),
        low_untraced.p(50.0) - low_quickack.p(50.0),
        "ms",
    ));
    metrics.push((
        "trace.overhead_ms".into(),
        low.p(50.0) - low_untraced.p(50.0),
        "ms",
    ));
    server.shutdown();

    let legs = [&low_untraced, &low, &high, &low_quickack, &low_bare];
    let failed = legs.iter().map(|l| l.failed).sum::<u64>()
        + traced.stats.failed
        + traced.replay.acc.replay_mismatches
        + verify_all(&problems, &mut report);
    let attempted = legs.iter().map(|l| l.sent).sum::<u64>() + traced.stats.attempted;
    leg_line(&mut report, "low untraced", &low_untraced);
    leg_line(&mut report, "low traced", &low);
    leg_line(&mut report, "high traced", &high);
    leg_line(&mut report, "low, client TCP_QUICKACK", &low_quickack);
    leg_line(&mut report, "low, window 0", &low_bare);
    let _ = writeln!(
        report,
        "finding: the 2 ms coalescing window is {:.1}% of req_ms_p50.low ({:.3} ms with the window, {:.3} ms without)\n\
         finding: waiting for the client's delayed ACK is {:.1}% of req_ms_p50.low ({:.3} ms when the client ACKs at once)",
        (low_untraced.p(50.0) - low_bare.p(50.0)) / low_untraced.p(50.0) * 100.0,
        low_untraced.p(50.0),
        low_bare.p(50.0),
        (low_untraced.p(50.0) - low_quickack.p(50.0)) / low_untraced.p(50.0) * 100.0,
        low_quickack.p(50.0),
    );
    let threads: Vec<Vec<Span>> = [low.spans.clone(), high.spans.clone()]
        .concat()
        .into_iter()
        .chain(std::iter::once(traced.spans.clone()))
        .collect();
    layer_table(&mut report, &threads);
    write_trace(args, &threads);
    metric_lines(&mut report, &metrics);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        report,
    })
}

/// The serve job mix as a two-key draw.
fn weighted_two() -> Zipf {
    // Zipf over two ranks with exponent s gives P(first) = 1 / (1 + 2^-s);
    // solve for the configured mix.
    let s = -((1.0 / SERVE_MIX_FIRST - 1.0).log2());
    Zipf::new(2, s)
}
