//! End-to-end application benchmark of the kamping binding.
//!
//! ```text
//! cargo run --release --offline --manifest-path appbench/Cargo.toml -- \
//!     --workload bfs_sparse --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of one workload,
//! with `--trace 1` the per-layer metrics; the last stdout line is one
//! JSON object either way. See `README.md` in this directory.

mod layers;
mod problem;
mod stats;
mod timed;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

use kmp_mpi::RankOutcome;

use problem::{Problem, Workload, DEFAULT_SEED};
use stats::median;
use timed::{with_setup, RankPhase, Setup, SETUPS};

/// Rank threads of every timed run: one per core of the reference host.
const P: usize = 2;
/// A run that has not finished by then is stopped.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The host canary: a fixed single-thread integer kernel that no change
/// to the program can move. Median of five timings, in milliseconds.
fn host_probe_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..4_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A content hash of the library sources, standing in for the commit
/// (the benchmark may run from a checkout without version control).
fn source_hash() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in std::fs::read(f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

/// Metrics of one run, in print order: name -> (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The benchmark's own failures (not the program's): an input generator
/// that no longer produces the pinned inputs, or an unfair comparison.
pub struct BenchError(pub String);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("appbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The watchdog is never joined: it either fires and ends the process,
    // or the process ends first.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("appbench: run exceeded {WATCHDOG:?}, stopping");
        std::process::exit(3);
    });
    match run(&args) {
        Ok(ok) => {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(BenchError(e)) => {
            eprintln!("appbench: benchmark error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload; `Ok(false)` when any output was wrong.
fn run(args: &Args) -> Result<bool, BenchError> {
    let w = args.workload;
    let probe_start = host_probe_ms();

    // Inputs are generated before any set-up clock starts. The default
    // seed's inputs are regenerated and compared with their pinned
    // fingerprint on every run, so a generator change fails loudly
    // instead of reading as a speed change.
    let pinned = problem::pinned_fingerprint(w);
    let default_fp = Problem::generate(w, DEFAULT_SEED, P).fingerprint();
    if default_fp != pinned {
        return Err(BenchError(format!(
            "seed {DEFAULT_SEED} inputs changed: got {default_fp}, pinned {pinned}"
        )));
    }
    let problem = Problem::generate(w, args.seed, P);
    let fp = problem.fingerprint();

    println!(
        "appbench workload={} seed={} p={P} seconds={} mode={}",
        w.name(),
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    println!("input {fp} (seed {DEFAULT_SEED} pinned: ok)");

    let mut setups: Vec<Setup> = (1..SETUPS)
        .map(|_| with_setup(&problem, |_| ()).0)
        .collect();
    let (mut metrics, attempted, failed) = if args.trace {
        layers::traced_run(&problem, args.seed, args.seconds, &mut setups)?
    } else {
        untraced_run(&problem, args.seconds, &mut setups)?
    };

    let probe_end = host_probe_ms();
    if args.trace {
        metrics.insert("host.probe_ms", (0.5 * (probe_start + probe_end), "ms"));
    }
    println!(
        "stamp nproc={} source={} features=kmp_mpi/default(copy-metrics) host.probe_ms start={probe_start:.3} end={probe_end:.3}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        source_hash(),
    );
    let correct = failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}

/// Iterations where any rank (or the baseline) produced a wrong result,
/// counting a rank that panicked or failed as wrong everywhere.
fn count_failures(outcomes: &[RankOutcome<(Setup, RankPhase)>]) -> (u64, u64) {
    let phases: Vec<Option<&RankPhase>> = outcomes
        .iter()
        .map(|o| match o {
            RankOutcome::Completed((_, ph)) => Some(ph),
            _ => None,
        })
        .collect();
    let iters = phases
        .iter()
        .flatten()
        .map(|ph| ph.ok.len())
        .max()
        .unwrap_or(0);
    if phases.iter().any(Option::is_none) {
        return (iters.max(1) as u64, iters.max(1) as u64);
    }
    let failed = (0..iters)
        .filter(|&i| {
            phases
                .iter()
                .flatten()
                .any(|ph| !ph.ok.get(i).copied().unwrap_or(false))
        })
        .count();
    (iters as u64, failed as u64)
}

fn untraced_run(
    problem: &Problem,
    seconds: f64,
    setups: &mut Vec<Setup>,
) -> Result<(Metrics, u64, u64), BenchError> {
    let go = AtomicBool::new(true);
    let (setup, outcomes) = with_setup(problem, |ctx| timed::timed_phase(ctx, seconds, &go));
    setups.push(setup);
    let (attempted, failed) = count_failures(&outcomes);
    let samples = match &outcomes[0] {
        RankOutcome::Completed((_, ph)) => ph.samples.clone(),
        _ => Vec::new(),
    };
    if samples.len() < problem.workload.batch() {
        return Ok((Metrics::new(), attempted.max(1), attempted.max(1)));
    }

    // One sample per `batch` consecutive calls: the mean call time and
    // the ratio of the summed baselines to the summed calls.
    let k = problem.workload.batch();
    let total_par: f64 = samples.iter().map(|s| s.par).sum();
    let (par, ratio): (Vec<f64>, Vec<f64>) = samples
        .chunks_exact(k)
        .map(|c| {
            let par: f64 = c.iter().map(|s| s.par).sum();
            let seq: f64 = c.iter().map(|s| s.seq).sum();
            (par / k as f64, seq / par)
        })
        .unzip();
    let tail = stats::tail(&par);
    let setup_totals: Vec<f64> = setups.iter().map(Setup::total).collect();
    let fail_frac = failed as f64 / attempted as f64;

    // Gated: the paired ratio, memory and set-up. The raw wall-clock
    // metrics follow the host's drift (on a shared 2-vCPU host the
    // canary swings by some 15% between runs), so they are printed but
    // not gated.
    let mut m = Metrics::new();
    m.insert("speedup_p50", (median(&ratio), "x"));
    m.insert("setup_s", (median(&setup_totals), "s"));
    m.insert("peak_rss_mib", (peak_rss_mib(), "MiB"));
    let raw = [
        (
            "work_per_s",
            problem.work_per_iter() * samples.len() as f64 / total_par,
            "1/s",
        ),
        ("wall_ms_p50", median(&par) * 1e3, "ms"),
        ("wall_ms_tail", tail.value * 1e3, "ms"),
        ("fail_frac", fail_frac, "ratio"),
    ];
    for (k, (v, u)) in &m {
        println!("metric {k:<14} {v:>16.6} {u}");
    }
    for (k, v, u) in raw {
        println!("metric {k:<14} {v:>16.6} {u} (printed, not gated)");
    }
    println!("work unit: {}", problem.workload.work_unit());
    let s = stats::sorted(&par);
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", s[d * s.len() / 10] * 1e3))
        .collect();
    println!("wall_ms deciles: {}", deciles.join(" "));
    println!(
        "samples p50: {} (each the mean of {} calls); tail: p{} with {} samples beyond it; seq/par pairs: {}",
        par.len(),
        k * problem.workload.calls_per_fence(),
        tail.pct,
        tail.beyond,
        ratio.len()
    );
    Ok((m, attempted, failed))
}
