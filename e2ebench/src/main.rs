//! `od-e2ebench` — drives a real `od-serve` from one closed-loop client
//! and reports end-to-end metrics; with `--trace 1` it also times calls
//! into each layer's public functions and reports per-layer metrics.
//!
//! ```text
//! od-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!     --serve-bin <path to od-serve>
//! ```
//!
//! Run it from the repository root (it reads `examples/` and keeps its
//! state under `.bench_runs/`). The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod client;
mod gate;
mod layers;
mod process;
mod stats;
mod trace;
mod workloads;

use layers::Metric;
use process::Serve;
use stats::{median, quantile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};
use workloads::{Run, Samples, Workload};

/// Cold starts per run, in groups of [`SETUP_GROUP`]. VM steal only
/// ever adds time, and a steal burst can slow every start of a run, so
/// each group counts its fastest start, one the hypervisor left alone;
/// `setup_s` is the median of the group minima.
const SETUP_STARTS: usize = 63;

/// Cold starts per group.
const SETUP_GROUP: usize = 7;

/// Pause between a cold start's banner and its first request. The
/// accept loop polls every 5 ms and makes its first poll as the banner
/// is printed. A request sent at once races that poll and is answered
/// either at it or 5 ms later, as scheduling decides, so the split
/// between the two modes (and any statistic of it) moves with host
/// load. After this pause the request always arrives during the first
/// 5 ms sleep and is answered at the second poll; the pause itself is
/// covered by that sleep.
const BANNER_PAUSE: Duration = Duration::from_millis(2);

/// How far past the measured stretch any wait may run before it gives
/// up and counts as failed.
const WAIT_SLACK: Duration = Duration::from_secs(90);

/// A steal share above this flags the run as noisy (it is kept).
const NOISY_STEAL: f64 = 0.05;

/// Where runs keep their private queues, traces and the history file.
const RUNS_DIR: &str = ".bench_runs";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve_bin = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => trace = value()? == "1",
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
    })
}

/// Removes the run's private directory on every exit path.
struct PrivateDir(PathBuf);

impl Drop for PrivateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one run produced.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failures: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("od-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            let correct = outcome.failures.is_empty();
            let metrics: Vec<String> = outcome
                .metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                })
                .collect();
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                outcome.attempted,
                outcome.failures.len(),
                metrics.join(", ")
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("od-e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let strays = process::stray_processes();
    if !strays.is_empty() {
        return Err(format!(
            "refusing to start while other od-serve/od-run processes run: {strays:?}"
        ));
    }
    let name = args.workload.name();
    let dir = Path::new(RUNS_DIR).join(format!("{name}-s{}-p{}", args.seed, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let private = PrivateDir(dir);
    let queue = private.0.join("queue");
    std::fs::create_dir_all(&queue).map_err(|e| format!("creating {}: {e}", queue.display()))?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds) + WAIT_SLACK;

    // The workload's prepared queue: empty, or (status-reads) filled
    // with done jobs and published results by an untimed first life.
    let first = Serve::spawn(&args.serve_bin, &queue)?;
    let mut run = Run::new(args.workload, args.seed, &queue, first.addr, deadline)?;
    if args.workload == Workload::StatusReads {
        run.fill_status_queue();
    }
    drop(first);
    let mut stretches = vec![std::mem::take(&mut run.samples)];

    let mut setup = Samples::default();
    for _ in 0..SETUP_STARTS {
        let started = Instant::now();
        let serve = Serve::spawn(&args.serve_bin, &queue)?;
        std::thread::sleep(BANNER_PAUSE);
        setup.attempted += 1;
        match client::fresh(serve.addr, "GET", "/metrics", b"") {
            Ok(reply) if reply.status == 200 => setup.setup_s.push(started.elapsed().as_secs_f64()),
            Ok(reply) => setup
                .failures
                .push(format!("cold start answered {}", reply.status)),
            Err(e) => setup.failures.push(format!("cold start: {e}")),
        }
    }
    let starts = &setup.setup_s;
    println!(
        "cold starts: p10 {:.4} s, p50 {:.4} s, p90 {:.4} s",
        quantile(starts, 0.1).unwrap_or(f64::NAN),
        quantile(starts, 0.5).unwrap_or(f64::NAN),
        quantile(starts, 0.9).unwrap_or(f64::NAN)
    );
    let setup_s: Vec<f64> = starts
        .chunks(SETUP_GROUP)
        .map(|group| group.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    stretches.push(setup);

    let serve = Serve::spawn(&args.serve_bin, &queue)?;
    run.reconnect(serve.addr)?;
    let cpu_start = stats::cpu_times();
    let measured = Duration::from_secs_f64(args.seconds);
    let mut layer_metrics = Vec::new();
    let main = if args.trace {
        let untraced = measure(&mut run, measured / 2);
        run.tracer.set_enabled(true);
        let traced = measure(&mut run, measured / 2);
        report_overhead(&untraced, &traced);
        stretches.push(traced);
        let tracer = Rc::clone(&run.tracer);
        layer_metrics = layers::probe(&mut run, &tracer, &private.0)?;
        stretches.push(std::mem::take(&mut run.samples));
        let trace_path = Path::new(RUNS_DIR).join(format!("trace-{name}-s{}.jsonl", args.seed));
        tracer
            .write_jsonl(&trace_path)
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
        report_self_times(&tracer);
        untraced
    } else {
        measure(&mut run, measured)
    };
    let cpu_end = stats::cpu_times();
    let peak_rss_mb = serve.peak_rss_mb();
    drop(serve);

    let mut tail = Samples::default();
    check_reference(&run, &mut tail);
    let end_to_end = end_to_end_metrics(&main, &setup_s, peak_rss_mb, &mut tail);
    stretches.push(main);
    stretches.push(tail);
    let attempted: u64 = stretches.iter().map(|s| s.attempted).sum();
    let failures: Vec<String> = stretches.into_iter().flat_map(|s| s.failures).collect();

    let steal = match (cpu_start, cpu_end) {
        (Some(a), Some(b)) => stats::steal_share(a, b),
        _ => 0.0,
    };
    let load = stats::load_average().unwrap_or(0.0);
    let noisy = steal > NOISY_STEAL;
    println!(
        "workload {name} seed {} ({} passes, {} keep-alive reconnects):",
        args.seed, run.passes, run.conn.reconnects
    );
    for (metric, value, unit) in &end_to_end {
        println!("  {metric:<26} {value:>12.4} {unit}");
    }
    let failed_ratio = failures.len() as f64 / attempted.max(1) as f64;
    println!(
        "  {:<26} {failed_ratio:>12.4} ratio ({} of {attempted})",
        "failed_ratio",
        failures.len()
    );
    println!(
        "  host: steal {:.2}% load1 {load:.2}{}",
        steal * 100.0,
        if noisy { " [noisy]" } else { "" }
    );
    for failure in failures.iter().take(10) {
        println!("  FAILED: {failure}");
    }
    let metrics = if args.trace {
        layer_metrics
    } else {
        end_to_end
    };
    append_history(name, args, &metrics, failed_ratio, steal, load, noisy);
    Ok(Outcome {
        metrics,
        attempted: attempted.max(1),
        failures,
    })
}

/// Runs passes until `length` has elapsed (at least one pass) and
/// returns the stretch's samples.
fn measure(run: &mut Run, length: Duration) -> Samples {
    let started = Instant::now();
    loop {
        run.pass();
        if started.elapsed() >= length || Instant::now() > run.deadline {
            break;
        }
    }
    std::mem::take(&mut run.samples)
}

/// The end-to-end metrics of one untraced stretch. A metric without
/// samples is a failed run.
fn end_to_end_metrics(
    s: &Samples,
    setup_s: &[f64],
    peak_rss_mb: Option<f64>,
    tail: &mut Samples,
) -> Vec<Metric> {
    let wanted = [
        ("setup_s", median(setup_s), "s"),
        ("makespan_s", median(&s.makespan_s), "s"),
        (
            "submit_to_result_ms_p50",
            median(&s.submit_to_result_ms),
            "ms",
        ),
        ("request_ms_p50", quantile(&s.request_ms, 0.5), "ms"),
        ("request_ms_p90", quantile(&s.request_ms, 0.9), "ms"),
        ("fresh_request_ms_p50", median(&s.fresh_ms), "ms"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    println!(
        "samples: setup groups {} makespan {} submit_to_result {} request {} fresh {}",
        setup_s.len(),
        s.makespan_s.len(),
        s.submit_to_result_ms.len(),
        s.request_ms.len(),
        s.fresh_ms.len()
    );
    println!(
        "wall time, steal included: makespan_s {:.4} s, submit_to_result_ms_p50 {:.4} ms",
        median(&s.makespan_wall_s).unwrap_or(f64::NAN),
        median(&s.submit_to_result_wall_ms).unwrap_or(f64::NAN)
    );
    let mut out = Vec::new();
    for (name, value, unit) in wanted {
        match value {
            Some(v) => out.push((name, v, unit)),
            None => tail.failures.push(format!("no samples for {name}")),
        }
    }
    out
}

/// Runs the cheapest served spec in-process and compares summaries bit
/// for bit, and proves the result gate rejects a tampered copy.
fn check_reference(run: &Run, tail: &mut Samples) {
    tail.attempted += 2;
    let Some(reference) = run.served.iter().min_by_key(|s| cost(&s.spec)) else {
        tail.failures.push("no result was served".to_string());
        return;
    };
    if let Err(e) = gate::check_reference(&reference.spec, &reference.summary) {
        tail.failures.push(e);
    }
    let trips = gate::tampered(&reference.body)
        .map(|body| gate::check_result(&body, &reference.hash, reference.spec.trials).is_err());
    if trips != Some(true) {
        tail.failures
            .push("the result gate accepted a tampered result".to_string());
    }
}

/// A rough work estimate used only to pick the cheapest reference spec.
fn cost(spec: &od_runtime::JobSpec) -> u64 {
    let (n, k) = spec
        .initial
        .build()
        .map_or((u64::MAX, 1), |c| (c.n(), c.k() as u64));
    n.saturating_mul(k).saturating_mul(spec.trials)
}

fn report_overhead(untraced: &Samples, traced: &Samples) {
    let pairs = [
        ("makespan_s", &untraced.makespan_s, &traced.makespan_s),
        (
            "submit_to_result_ms_p50",
            &untraced.submit_to_result_ms,
            &traced.submit_to_result_ms,
        ),
        ("request_ms_p50", &untraced.request_ms, &traced.request_ms),
        ("fresh_request_ms_p50", &untraced.fresh_ms, &traced.fresh_ms),
    ];
    println!("tracing overhead (traced minus untraced median):");
    for (name, a, b) in pairs {
        if let (Some(a), Some(b)) = (median(a), median(b)) {
            println!(
                "  {name:<26} {:>+12.4} (untraced {a:.4}, traced {b:.4})",
                b - a
            );
        }
    }
}

fn report_self_times(tracer: &trace::Tracer) {
    println!("span self time (count, total ms, self ms):");
    for (name, (count, total, own)) in tracer.self_times() {
        println!(
            "  {name:<44} {count:>6} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

/// Appends the run's metrics and host-noise record to the history file.
fn append_history(
    name: &str,
    args: &Args,
    metrics: &[Metric],
    failed_ratio: f64,
    steal: f64,
    load: f64,
    noisy: bool,
) {
    use std::io::Write as _;
    let fields: BTreeMap<&str, f64> = metrics.iter().map(|&(n, v, _)| (n, v)).collect();
    let metrics: Vec<String> = fields
        .iter()
        .map(|(n, v)| format!("\"{n}\": {v}"))
        .collect();
    let line = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, \"failed_ratio\": {failed_ratio}, \
         \"steal\": {steal}, \"load1\": {load}, \"noisy\": {noisy}, \"metrics\": {{{}}}}}\n",
        args.seed,
        args.trace,
        metrics.join(", ")
    );
    let path = Path::new(RUNS_DIR).join("history.jsonl");
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = file.write_all(line.as_bytes());
    }
}
