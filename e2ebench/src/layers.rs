//! The traced run's per-layer probes: spans from the benchmark's own
//! code around calls into each layer's public functions, on the
//! workload's own inputs. Every workload reports every layer metric; a
//! layer the workload does not exercise (say, the population engine on
//! graph-jobs) is probed on a small fixed reference input, so its value
//! is the reference cost rather than the workload's.
//!
//! Counts documented as exact repeat bit for bit across runs with one
//! seed: they depend on the spec alone, never on timing.

use crate::client::request_bytes;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{job_seed, small_spec, sweep_spec, Run, Workload};
use od_runtime::json::Json;
use od_runtime::{
    run_job_with_metrics, run_queue_worker, Checkpoint, JobMetrics, JobSpec, RunOptions,
    WorkerOptions,
};
use od_sampling::seeds::rng_for;
use od_serve::{http, state, store};
use od_telemetry::{Event, TelemetrySink};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Seed stream for probe specs, apart from every pass's seeds, so the
/// service has never seen them.
const PROBE_STREAM: u64 = 1 << 40;

/// Repetitions of the micro-second calls; their median is reported.
const MICRO_REPS: usize = 200;

/// Reference specs run through every persistence and queue probe.
const REFERENCE_REPS: u64 = 5;

/// Keep-alive and fresh repetitions per route.
const ROUTE_REPS: usize = 20;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_or_zero(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// Times `f` `reps` times under span `name`, returning the durations in
/// microseconds.
fn timed<T>(tracer: &Tracer, name: &str, reps: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(tracer.span(name, 0, &mut f));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// A writer that counts `write` calls, the way a socket sees them.
#[derive(Default)]
struct CountingWriter {
    writes: u64,
}

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A telemetry sink that counts events and their encoded bytes. Values
/// that vary between runs — timestamps, durations, rates, span ids and
/// the run's private directory — are encoded as fixed placeholders, so
/// the byte count is exact.
///
/// It also watches the executor's `checkpoint_save` spans: when one
/// closes, the save has just written `checkpoint`, and the sink records
/// how many shards that file holds (`None` where it cannot be read).
struct CountingSink {
    dir: String,
    checkpoint: PathBuf,
    events: AtomicU64,
    bytes: AtomicU64,
    saves: Mutex<Vec<Option<usize>>>,
}

impl TelemetrySink for CountingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, event: &Event<'_>) -> u64 {
        if let Event::SpanExit {
            name: "checkpoint_save",
            ..
        } = event
        {
            let shards = Checkpoint::load(&self.checkpoint)
                .ok()
                .flatten()
                .map(|c| c.shards.len());
            self.saves.lock().expect("saves lock poisoned").push(shards);
        }
        let seq = self.events.fetch_add(1, Ordering::SeqCst);
        let mut line = event.encode(0, 0).replace(&self.dir, "<dir>");
        for key in ["elapsed_us", "rounds_per_sec", "eta_s", "span", "parent"] {
            line = zero_field(&line, key);
        }
        self.bytes
            .fetch_add(line.len() as u64 + 1, Ordering::SeqCst);
        seq
    }
}

/// Replaces the numeric value of every `"key":<number>` with `0`.
fn zero_field(line: &str, key: &str) -> String {
    let pattern = format!("\"{key}\":");
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(&pattern) {
        let value_start = at + pattern.len();
        out.push_str(&rest[..value_start]);
        let tail = &rest[value_start..];
        let len = tail
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
            .unwrap_or(tail.len());
        out.push('0');
        rest = &tail[len..];
    }
    out.push_str(rest);
    out
}

/// The kind of engine path a spec takes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    ThreeMajority,
    TwoChoices,
    Plain,
    Weighted,
    Temporal,
}

fn kind_of(spec: &JobSpec) -> Option<Kind> {
    match &spec.graph {
        Some(g) if g.temporal.is_some() => Some(Kind::Temporal),
        Some(g) if g.weights.is_some() => Some(Kind::Weighted),
        Some(_) => Some(Kind::Plain),
        None if spec.protocol == "three-majority" => Some(Kind::ThreeMajority),
        None if spec.protocol == "two-choices" => Some(Kind::TwoChoices),
        None => None,
    }
}

/// One in-process execution with its metrics.
struct Executed {
    spec: JobSpec,
    metrics: JobMetrics,
    wall: Duration,
}

impl Executed {
    fn phase_us(&self, name: &str) -> f64 {
        self.metrics
            .phases
            .iter()
            .find(|(p, _)| *p == name)
            .map_or(0.0, |&(_, us)| us as f64)
    }

    fn shard_us(&self) -> f64 {
        self.metrics
            .shards
            .iter()
            .map(|s| s.elapsed_us as f64)
            .sum()
    }

    fn rounds(&self) -> u64 {
        self.metrics.shards.iter().map(|s| s.rounds).sum()
    }

    fn n(&self) -> f64 {
        self.spec.initial.build().map_or(1.0, |c| c.n() as f64)
    }
}

fn execute(
    tracer: &Tracer,
    trace: u64,
    spec: &JobSpec,
    checkpoint: Option<&Path>,
) -> Result<Executed, String> {
    let options = RunOptions {
        checkpoint_path: checkpoint.map(Path::to_path_buf),
        ..RunOptions::default()
    };
    let started = Instant::now();
    let (_, metrics) = tracer
        .span("runtime.executor.run_job", trace, || {
            run_job_with_metrics(spec, &options)
        })
        .map_err(|e| format!("in-process run of {}: {e}", spec.name))?;
    Ok(Executed {
        spec: spec.clone(),
        metrics,
        wall: started.elapsed(),
    })
}

/// The workload's own specs for the executor probe, on the probe seed
/// stream.
fn own_specs(run: &Run) -> Vec<JobSpec> {
    let seed = |i: u64| job_seed(run.seed, PROBE_STREAM + i);
    match run.workload {
        Workload::GraphJobs => (0..3).map(|i| run.shape_spec(i, seed(i as u64))).collect(),
        Workload::StatusReads => vec![small_spec(seed(0))],
    }
}

/// Reference spec `i` for the persistence, queue and service-overhead
/// probes: one of the workload's typical jobs, never submitted before.
fn reference_spec(run: &Run, i: u64) -> JobSpec {
    let seed = job_seed(run.seed, PROBE_STREAM + 200 + i);
    match run.workload {
        Workload::GraphJobs => run.shape_spec(0, seed),
        Workload::StatusReads => small_spec(seed),
    }
}

/// Reference inputs for the engine kinds a workload does not run.
fn fallback_spec(run: &Run, kind: Kind) -> JobSpec {
    let seed = job_seed(run.seed, PROBE_STREAM + 100);
    match kind {
        Kind::ThreeMajority => sweep_spec("three-majority", 316, seed),
        Kind::TwoChoices => sweep_spec("two-choices", 316, seed),
        Kind::Plain => run.shape_spec(0, seed),
        Kind::Weighted => run.shape_spec(1, seed),
        Kind::Temporal => run.shape_spec(2, seed),
    }
}

/// Runs every probe and returns the per-layer metrics.
pub fn probe(run: &mut Run, tracer: &Tracer, dir: &Path) -> Result<Vec<Metric>, String> {
    let mut out: Vec<Metric> = Vec::new();
    let own = own_specs(run);
    let reference = reference_spec(run, 0);
    let served = run
        .served
        .last()
        .map(|s| (s.spec.clone(), s.id.clone(), s.hash.clone(), s.body.clone()))
        .ok_or("no served result to probe the service with")?;
    let (served_spec, served_id, served_hash, served_body) = served;

    // serve.http: parse the workload's submission request, write a
    // served result.
    let submission = match run.workload {
        Workload::StatusReads => request_bytes("GET", &format!("/jobs/{served_id}"), b"", false),
        Workload::GraphJobs => request_bytes(
            "POST",
            "/jobs",
            reference.to_json().to_string_compact().as_bytes(),
            false,
        ),
    };
    let parse = timed(tracer, "serve.http.parse", MICRO_REPS, || {
        http::parse_request(&submission)
    });
    let write = timed(tracer, "serve.http.write", MICRO_REPS, || {
        let mut sink = Vec::with_capacity(served_body.len() + 128);
        http::write_response(&mut sink, 200, "application/json", &served_body, false).map(|()| sink)
    });
    let mut counter = CountingWriter::default();
    http::write_response(&mut counter, 200, "application/json", &served_body, false)
        .map_err(|e| e.to_string())?;
    out.push(("serve.http.write_calls", counter.writes as f64, "count"));
    out.push(("serve.http.parse_us", median_or_zero(&parse), "us"));
    out.push(("serve.http.write_us", median_or_zero(&write), "us"));

    // serve.service: time to first response byte per route on the
    // keep-alive connection (no work is started: every submission is a
    // dedup of a done spec).
    let spec_body = served_spec.to_json().to_string_compact();
    let batch_body = Json::Arr(
        run.served
            .iter()
            .rev()
            .take(4)
            .map(|s| s.spec.to_json())
            .collect(),
    )
    .to_string_compact();
    let routes: [(&'static str, &str, String, &[u8]); 6] = [
        (
            "serve.service.route_ms.job_post",
            "POST",
            "/jobs".into(),
            spec_body.as_bytes(),
        ),
        (
            "serve.service.route_ms.batch_post",
            "POST",
            "/batches".into(),
            batch_body.as_bytes(),
        ),
        (
            "serve.service.route_ms.job_get",
            "GET",
            format!("/jobs/{served_id}"),
            b"",
        ),
        (
            "serve.service.route_ms.jobs_list",
            "GET",
            "/jobs".into(),
            b"",
        ),
        (
            "serve.service.route_ms.result_get",
            "GET",
            format!("/results/{served_hash}"),
            b"",
        ),
        (
            "serve.service.route_ms.metrics_get",
            "GET",
            "/metrics".into(),
            b"",
        ),
    ];
    for (metric, method, path, body) in routes {
        let mut ttfb = Vec::new();
        for _ in 0..ROUTE_REPS {
            let route = metric.rsplit('.').next().unwrap_or(metric);
            if let Some(reply) = run.call(route, method, &path, body) {
                ttfb.push(ms(reply.ttfb));
            }
        }
        out.push((metric, median_or_zero(&ttfb), "ms"));
    }
    let job_path = format!("/jobs/{served_id}");
    let mut keep_alive = Vec::new();
    let mut fresh_ttfb = Vec::new();
    for _ in 0..ROUTE_REPS * 2 {
        if let Some(reply) = run.call("job_get", "GET", &job_path, b"") {
            keep_alive.push(ms(reply.ttfb));
        }
        if let Some(reply) = run.call_fresh("job_get", &job_path) {
            fresh_ttfb.push(ms(reply.ttfb));
        }
    }
    out.push((
        "serve.service.accept_wait_ms",
        median_or_zero(&fresh_ttfb) - median_or_zero(&keep_alive),
        "ms",
    ));

    // serve.state and serve.store at the workload's queue size.
    let queue = run.queue.clone();
    let job_file = queue.join(format!("{served_id}.json"));
    let status = timed(tracer, "serve.state.status", MICRO_REPS / 4, || {
        state::status_json(&job_file)
    });
    let list = timed(tracer, "serve.state.list", 10, || {
        od_runtime::queue::queue_files(&queue).map(|files| {
            files
                .iter()
                .map(|f| state::status_json(f))
                .collect::<Vec<_>>()
        })
    });
    let lookup = timed(tracer, "serve.store.lookup", MICRO_REPS, || {
        store::lookup(&queue, &served_hash)
    });
    let publish = timed(tracer, "serve.store.publish", 20, || {
        store::publish(&queue, &job_file, &served_hash)
    });
    out.push(("serve.state.status_us", median_or_zero(&status), "us"));
    out.push(("serve.state.list_ms", median_or_zero(&list) / 1e3, "ms"));
    out.push(("serve.store.lookup_us", median_or_zero(&lookup), "us"));
    out.push((
        "serve.store.publish_ms",
        median_or_zero(&publish) / 1e3,
        "ms",
    ));

    // runtime.spec on the reference spec's text.
    let text = reference.to_json().to_string_pretty();
    let parse = timed(tracer, "runtime.spec.parse", MICRO_REPS, || {
        JobSpec::from_json_text(&text)
    });
    let validate = timed(tracer, "runtime.spec.validate", MICRO_REPS, || {
        reference.validate().is_ok()
    });
    let hash = timed(tracer, "runtime.spec.hash", MICRO_REPS, || {
        reference.content_hash()
    });
    out.push(("runtime.spec.parse_us", median_or_zero(&parse), "us"));
    out.push(("runtime.spec.validate_us", median_or_zero(&validate), "us"));
    out.push(("runtime.spec.hash_us", median_or_zero(&hash), "us"));

    // runtime.executor, core.engine, core.graph_dynamics: the
    // workload's own specs in-process, plus references for the engine
    // kinds it does not run. The executor phases sum over all of them,
    // so every phase covers several jobs.
    const KINDS: [Kind; 5] = [
        Kind::ThreeMajority,
        Kind::TwoChoices,
        Kind::Plain,
        Kind::Weighted,
        Kind::Temporal,
    ];
    let mut runs = Vec::new();
    for (i, spec) in own.iter().enumerate() {
        runs.push(execute(tracer, 1000 + i as u64, spec, None)?);
    }
    for (i, kind) in KINDS.into_iter().enumerate() {
        if !runs.iter().any(|r| kind_of(&r.spec) == Some(kind)) {
            runs.push(execute(
                tracer,
                2000 + i as u64,
                &fallback_spec(run, kind),
                None,
            )?);
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    let phase_ms = |name: &str| runs.iter().map(|r| r.phase_us(name)).sum::<f64>() / 1e3;
    let shard_us: f64 = runs.iter().map(Executed::shard_us).sum();
    out.push(("runtime.executor.validate_ms", phase_ms("validate"), "ms"));
    out.push(("runtime.executor.build_ms", phase_ms("build"), "ms"));
    out.push(("runtime.executor.execute_ms", phase_ms("execute"), "ms"));
    out.push(("runtime.executor.merge_ms", phase_ms("merge"), "ms"));
    out.push((
        "runtime.executor.core_utilization",
        shard_us / (phase_ms("execute") * 1e3 * cores).max(1.0),
        "ratio",
    ));
    let mut engine_rounds = 0;
    let mut graph_rounds = 0;
    for kind in KINDS {
        let mine: Vec<&Executed> = runs
            .iter()
            .filter(|r| kind_of(&r.spec) == Some(kind))
            .collect();
        let us: f64 = mine.iter().map(|r| r.shard_us()).sum();
        let rounds: u64 = mine.iter().map(|r| r.rounds()).sum();
        let per_round = us / rounds.max(1) as f64;
        let per_vertex_round = per_round * 1e3 / mine.first().map_or(1.0, |r| r.n());
        let (name, value, unit) = match kind {
            Kind::ThreeMajority => ("core.engine.us_per_round.three-majority", per_round, "us"),
            Kind::TwoChoices => ("core.engine.us_per_round.two-choices", per_round, "us"),
            Kind::Plain => (
                "core.graph_dynamics.ns_per_vertex_round.plain",
                per_vertex_round,
                "ns",
            ),
            Kind::Weighted => (
                "core.graph_dynamics.ns_per_vertex_round.weighted",
                per_vertex_round,
                "ns",
            ),
            Kind::Temporal => (
                "core.graph_dynamics.ns_per_vertex_round.temporal",
                per_vertex_round,
                "ns",
            ),
        };
        out.push((name, value, unit));
        match kind {
            Kind::ThreeMajority | Kind::TwoChoices => engine_rounds += rounds,
            _ => graph_rounds += rounds,
        }
    }
    out.push(("core.engine.rounds", engine_rounds as f64, "count"));
    out.push(("core.graph_dynamics.rounds", graph_rounds as f64, "count"));

    // graphs: the generators at the workload's sizes.
    let rr_n = 10_000;
    let mut csr_bytes = 0usize;
    let rr = timed(tracer, "graphs.build.random-regular", 5, || {
        let mut rng = rng_for(run.seed, 7);
        if let Ok(g) = od_graphs::random_regular(rr_n, 8, &mut rng) {
            let (offsets, neighbors) = g.raw_parts();
            csr_bytes = (offsets.len() + neighbors.len()) * std::mem::size_of::<u32>();
        }
    });
    let er = timed(tracer, "graphs.build.erdos-renyi", 5, || {
        let mut rng = rng_for(run.seed, 8);
        od_graphs::erdos_renyi(2_000, 0.002, &mut rng).map(|g| g.raw_parts().1.len())
    });
    out.push((
        "graphs.build_ms.random-regular",
        median_or_zero(&rr) / 1e3,
        "ms",
    ));
    out.push((
        "graphs.build_ms.erdos-renyi",
        median_or_zero(&er) / 1e3,
        "ms",
    ));
    out.push((
        "graphs.bytes_per_vertex",
        csr_bytes as f64 / rr_n as f64,
        "bytes",
    ));

    // runtime.checkpoint, runtime.queue, telemetry, serve.service
    // overhead: each reference spec without and with a checkpoint, in a
    // one-job queue, and through the service; the differences are taken
    // per spec and their median reported. The exact counts come from
    // the first reference spec.
    let mut persist = Vec::new();
    let mut queue_overhead = Vec::new();
    let mut service_overhead = Vec::new();
    for i in 0..REFERENCE_REPS {
        let spec = reference_spec(run, i);
        let trace = 3000 + 10 * i;
        let bare = execute(tracer, trace, &spec, None)?;
        let rep_dir = dir.join(format!("probe-{i}"));
        let checkpoint = rep_dir.join("reference.checkpoint.json");
        let persisted = execute(tracer, trace, &spec, Some(&checkpoint))?;
        persist.push((persisted.phase_us("execute") - bare.phase_us("execute")) / 1e3);

        let one_job = rep_dir.join("queue");
        std::fs::create_dir_all(&one_job).map_err(|e| e.to_string())?;
        let mut text = spec.to_json().to_string_pretty();
        text.push('\n');
        let job_file = one_job.join("job.json");
        std::fs::write(&job_file, text).map_err(|e| e.to_string())?;
        let sink = Arc::new(CountingSink {
            dir: one_job.display().to_string(),
            checkpoint: od_runtime::queue::default_checkpoint_path(&job_file),
            events: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            saves: Mutex::new(Vec::new()),
        });
        // A lease far longer than the job, so no heartbeat renewal (a
        // timing-dependent event) lands on the counted bus.
        let mut options = WorkerOptions {
            worker_id: "bench-probe".to_string(),
            lease_ms: 3_600_000,
            ..WorkerOptions::default()
        };
        options.run.sink = sink.clone();
        let started = Instant::now();
        let report = tracer
            .span("runtime.queue.run_queue_worker", trace, || {
                run_queue_worker(&one_job, &options)
            })
            .map_err(|e| format!("one-job queue: {e}"))?;
        if report.done != 1 {
            return Err(format!("one-job queue finished {} jobs", report.done));
        }
        queue_overhead.push(ms(started.elapsed()) - ms(persisted.wall));

        let submitted = tracer
            .span("client.reference_job", trace, || {
                run.submit_and_fetch(&spec)
            })
            .ok_or("a reference job was not served")?;
        service_overhead.push(ms(submitted.elapsed()) - ms(bare.wall));

        if i == 0 {
            let saves = sink.saves.lock().expect("saves lock poisoned").clone();
            let saves: Vec<usize> = saves
                .into_iter()
                .collect::<Option<_>>()
                .ok_or("a checkpoint save left no readable checkpoint")?;
            let bytes = replay_checkpoint(&checkpoint, &saves, &rep_dir.join("replay.json"))?;
            out.push(("runtime.checkpoint.saves", saves.len() as f64, "count"));
            out.push(("runtime.checkpoint.bytes_written", bytes as f64, "bytes"));
            let events = sink.events.load(Ordering::SeqCst);
            let bytes = sink.bytes.load(Ordering::SeqCst);
            out.push(("telemetry.bus_events_per_job", events as f64, "count"));
            out.push(("telemetry.bus_bytes_per_job", bytes as f64, "bytes"));
        }
    }
    out.push((
        "runtime.checkpoint.persist_ms",
        median_or_zero(&persist),
        "ms",
    ));
    out.push((
        "runtime.queue.overhead_ms",
        median_or_zero(&queue_overhead),
        "ms",
    ));
    out.push((
        "serve.service.overhead_ms",
        median_or_zero(&service_overhead),
        "ms",
    ));

    let mut order: Vec<usize> = (0..out.len()).collect();
    order.sort_by_key(|&i| out[i].0);
    Ok(order.into_iter().map(|i| out[i]).collect())
}

/// The bytes the observed checkpoint saves wrote, replayed through
/// [`Checkpoint::save`]: `saves` holds, per save the program made, the
/// number of shards the checkpoint held after it. Which shards those
/// were depends on completion order, so each save is replayed with that
/// many shards of `final_path`'s checkpoint taken in index order, which
/// makes the count exact.
fn replay_checkpoint(final_path: &Path, saves: &[usize], scratch: &Path) -> Result<u64, String> {
    let done = Checkpoint::load(final_path)
        .map_err(|e| e.to_string())?
        .ok_or("the reference run left no checkpoint")?;
    let mut bytes = 0;
    for &held in saves {
        if held > done.shards.len() {
            return Err(format!(
                "a save held {held} shards of a {}-shard job",
                done.shards.len()
            ));
        }
        let mut partial = Checkpoint::new(done.spec_hash.clone(), done.total_shards);
        for (&index, summary) in done.shards.iter().take(held) {
            partial.record(index, summary.clone());
        }
        partial.save(scratch).map_err(|e| e.to_string())?;
        bytes += std::fs::metadata(scratch).map_err(|e| e.to_string())?.len();
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_field_replaces_every_number_of_a_key() {
        let line = r#"{"span":12,"name":"x","elapsed_us":345,"span":7}"#;
        assert_eq!(
            zero_field(line, "span"),
            r#"{"span":0,"name":"x","elapsed_us":345,"span":0}"#
        );
        assert_eq!(zero_field(line, "eta_s"), line);
    }
}
