//! The workloads, each a closed loop: one client that waits for
//! every reply before sending the next request, the way callers poll
//! this service. Inputs come from the workload seed alone; `od-serve`
//! sees only the generated specs and requests.

use crate::client::{fresh, Conn, Reply};
use crate::gate;
use crate::stats::Mark;
use crate::trace::Tracer;
use od_runtime::json::Json;
use od_runtime::JobSpec;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The three graph-engine variants, as shipped in `examples/`.
pub const GRAPH_SHAPES: [&str; 3] = [
    "examples/job_graph.json",
    "examples/job_graph_weighted.json",
    "examples/job_graph_temporal.json",
];

/// Submit → poll → fetch cycles in one graph-jobs pass: one per shape.
/// Short passes let the makespan's median drop the passes a steal spike
/// hit, where one long pass would sum them in.
const GRAPH_CYCLES: u64 = 3;

/// Small done jobs the status-reads queue holds.
const STATUS_JOBS: u64 = 32;

/// Done specs re-submitted by each status-reads `POST /batches`.
const STATUS_BATCH: usize = 4;

/// Fresh-connection requests timed after each pass.
const FRESH_PER_PASS: usize = 10;

/// The workloads the benchmark defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Short graph jobs submitted one at a time; fixed per-job costs
    /// (checkpoint rewrites, worker poll, status polls) dominate.
    GraphJobs,
    /// A rotation of reads and dedup writes over a queue of done jobs;
    /// no engine runs.
    StatusReads,
}

impl Workload {
    /// Every workload the command line accepts.
    pub const ALL: [Workload; 2] = [Workload::GraphJobs, Workload::StatusReads];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GraphJobs => "graph-jobs",
            Workload::StatusReads => "status-reads",
        }
    }

    /// Whether `makespan_s` and `submit_to_result_ms_p50` are taken net
    /// of VM steal. Only graph-jobs keeps the CPUs busy; status-reads
    /// mostly waits on timers, so the steal that accrues meanwhile is
    /// time taken from other processes and its figures are wall time.
    pub fn net_of_steal(self) -> bool {
        self == Workload::GraphJobs
    }
}

/// Every sample one measured stretch of a run collects.
#[derive(Default)]
pub struct Samples {
    /// Cold starts: spawn → first answered request, seconds.
    pub setup_s: Vec<f64>,
    /// One per pass, seconds; net of VM steal where the workload says
    /// so ([`Workload::net_of_steal`]).
    pub makespan_s: Vec<f64>,
    /// `makespan_s` as wall time.
    pub makespan_wall_s: Vec<f64>,
    /// One per job: submission → its result fetched, milliseconds; net
    /// of VM steal where the workload says so.
    pub submit_to_result_ms: Vec<f64>,
    /// `submit_to_result_ms` as wall time.
    pub submit_to_result_wall_ms: Vec<f64>,
    /// Keep-alive requests (status polls or the read mix), milliseconds.
    pub request_ms: Vec<f64>,
    /// Single requests on new connections, milliseconds.
    pub fresh_ms: Vec<f64>,
    /// Operations attempted: requests sent plus results checked.
    pub attempted: u64,
    /// Failed, refused, timed-out or wrong operations.
    pub failures: Vec<String>,
}

impl Samples {
    fn record_makespan(&mut self, (wall, reported): (Duration, Duration)) {
        self.makespan_wall_s.push(wall.as_secs_f64());
        self.makespan_s.push(reported.as_secs_f64());
    }

    fn record_submit_to_result(&mut self, (wall, reported): (Duration, Duration)) {
        self.submit_to_result_wall_ms.push(ms(wall));
        self.submit_to_result_ms.push(ms(reported));
    }
}

/// A job whose result the run fetched and checked.
pub struct Served {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Its queue id, `job-<hash>`.
    pub id: String,
    /// Its content hash.
    pub hash: String,
    /// The result body as served.
    pub body: Vec<u8>,
    /// The result's `summary` document.
    pub summary: Json,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One run's client state against one service.
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The service's queue directory.
    pub queue: PathBuf,
    /// The service's address.
    pub addr: SocketAddr,
    /// The keep-alive connection every closed-loop request goes over.
    pub conn: Conn,
    /// Client-side spans (disabled in untraced stretches).
    pub tracer: Rc<Tracer>,
    /// Samples of the current measured stretch.
    pub samples: Samples,
    /// Every job whose result was fetched and passed the gate.
    pub served: Vec<Served>,
    /// Passes run so far; each pass derives fresh seeds from it.
    pub passes: u64,
    /// Past this instant every wait gives up and counts as failed.
    pub deadline: Instant,
    shapes: Vec<JobSpec>,
    next_trace: u64,
}

impl Run {
    /// Connects to the service at `addr`.
    pub fn new(
        workload: Workload,
        seed: u64,
        queue: &Path,
        addr: SocketAddr,
        deadline: Instant,
    ) -> Result<Self, String> {
        let shapes = GRAPH_SHAPES
            .iter()
            .map(|path| {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                JobSpec::from_json_text(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            workload,
            seed,
            queue: queue.to_path_buf(),
            addr,
            conn: Conn::open(addr).map_err(|e| format!("connecting to {addr}: {e}"))?,
            tracer: Rc::new(Tracer::new(false)),
            samples: Samples::default(),
            served: Vec::new(),
            passes: 0,
            deadline,
            shapes,
            next_trace: 0,
        })
    }

    /// Points the client at a restarted service.
    pub fn reconnect(&mut self, addr: SocketAddr) -> Result<(), String> {
        self.addr = addr;
        self.conn = Conn::open(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        Ok(())
    }

    fn fail(&mut self, what: String) {
        self.samples.failures.push(what);
    }

    /// Starts a new trace id: every request of one job (or one pass of
    /// reads) shares it.
    fn begin_trace(&mut self) -> u64 {
        self.next_trace += 1;
        self.next_trace
    }

    /// One keep-alive request; a transport error or an unexpected
    /// status counts as a failure and yields `None`.
    pub fn call(&mut self, route: &str, method: &str, path: &str, body: &[u8]) -> Option<Reply> {
        self.samples.attempted += 1;
        let trace = self.next_trace;
        let conn = &mut self.conn;
        let result = self.tracer.span(&format!("client.{route}"), trace, || {
            conn.send(method, path, body)
        });
        self.expect_ok(method, path, result)
    }

    /// One request on a new connection, with the same accounting.
    pub fn call_fresh(&mut self, route: &str, path: &str) -> Option<Reply> {
        self.samples.attempted += 1;
        let trace = self.next_trace;
        let addr = self.addr;
        let result = self
            .tracer
            .span(&format!("client.fresh.{route}"), trace, || {
                fresh(addr, "GET", path, b"")
            });
        self.expect_ok("GET", path, result)
    }

    fn expect_ok(
        &mut self,
        method: &str,
        path: &str,
        result: std::io::Result<Reply>,
    ) -> Option<Reply> {
        match result {
            Ok(reply) if matches!(reply.status, 200 | 201) => Some(reply),
            Ok(reply) => {
                let body = String::from_utf8_lossy(&reply.body).into_owned();
                self.fail(format!("{method} {path}: status {} {body}", reply.status));
                None
            }
            Err(e) => {
                self.fail(format!("{method} {path}: {e}"));
                None
            }
        }
    }

    fn json_of(&mut self, what: &str, reply: &Reply) -> Option<Json> {
        match reply.json() {
            Ok(doc) => Some(doc),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Fetches and gates one done job's result; with `sample`, records
    /// the submit-to-result time from `submitted`.
    fn fetch_result(
        &mut self,
        spec: &JobSpec,
        id: &str,
        hash: &str,
        submitted: Mark,
        sample: bool,
    ) {
        let Some(reply) = self.call("result_get", "GET", &format!("/results/{hash}"), b"") else {
            return;
        };
        let elapsed = submitted.wall_and_reported(self.workload.net_of_steal());
        self.samples.attempted += 1;
        match gate::check_result(&reply.body, hash, spec.trials) {
            Ok(summary) => {
                if sample {
                    self.samples.record_submit_to_result(elapsed);
                }
                self.served.push(Served {
                    spec: spec.clone(),
                    id: id.to_string(),
                    hash: hash.to_string(),
                    body: reply.body,
                    summary,
                });
            }
            Err(e) => self.fail(e),
        }
    }

    /// Submits one spec with `POST /jobs`, returning `(id, hash)` after
    /// checking the service hashed it as we do.
    fn submit(&mut self, spec: &JobSpec) -> Option<(String, String)> {
        let body = spec.to_json().to_string_compact();
        let reply = self.call("job_post", "POST", "/jobs", body.as_bytes())?;
        let doc = self.json_of("POST /jobs", &reply)?;
        self.job_ref(&doc, spec)
    }

    fn job_ref(&mut self, doc: &Json, spec: &JobSpec) -> Option<(String, String)> {
        let id = doc.get("job").and_then(Json::as_str).unwrap_or("");
        let hash = doc.get("spec_hash").and_then(Json::as_str).unwrap_or("");
        if hash != spec.content_hash() || id.is_empty() {
            self.fail(format!(
                "submission of {} answered job {id:?} hash {hash:?}",
                spec.content_hash()
            ));
            return None;
        }
        Some((id.to_string(), hash.to_string()))
    }

    /// Polls `GET /jobs/<id>` until the job is done; every poll is a
    /// keep-alive request sample.
    fn await_done(&mut self, id: &str) -> bool {
        loop {
            if Instant::now() > self.deadline {
                self.fail(format!("{id}: timed out waiting for completion"));
                return false;
            }
            let Some(reply) = self.call("job_get", "GET", &format!("/jobs/{id}"), b"") else {
                return false;
            };
            self.samples.request_ms.push(ms(reply.total));
            let Some(doc) = self.json_of("GET /jobs/<id>", &reply) else {
                return false;
            };
            match doc.get("status").and_then(Json::as_str) {
                Some("done") => return true,
                Some("queued" | "running" | "retrying") => {}
                other => {
                    self.fail(format!("{id}: status {other:?}"));
                    return false;
                }
            }
        }
    }

    /// Runs one pass of the workload and its fresh-connection series.
    pub fn pass(&mut self) {
        let trace = self.begin_trace();
        let rep = self.passes;
        self.passes += 1;
        let started = Mark::now();
        let tracer = Rc::clone(&self.tracer);
        tracer.span("client.pass", trace, || match self.workload {
            Workload::GraphJobs => self.graph_pass(rep),
            Workload::StatusReads => self.status_pass(rep),
        });
        let elapsed = started.wall_and_reported(self.workload.net_of_steal());
        self.samples.record_makespan(elapsed);
        self.fresh_series();
    }

    fn fresh_series(&mut self) {
        let Some(last) = self.served.last() else {
            return;
        };
        let path = format!("/jobs/{}", last.id);
        for _ in 0..FRESH_PER_PASS {
            if let Some(reply) = self.call_fresh("job_get", &path) {
                self.samples.fresh_ms.push(ms(reply.total));
            }
        }
    }

    /// Graph shape `shape` (an index into [`GRAPH_SHAPES`]) with the
    /// given master seed; the graph generator seed follows it.
    pub fn shape_spec(&self, shape: usize, master_seed: u64) -> JobSpec {
        let mut spec = self.shapes[shape % self.shapes.len()].clone();
        spec.master_seed = master_seed;
        spec
    }

    /// Submits one spec, polls it to completion and fetches its result;
    /// returns the submission instant when the result passed the gate.
    pub fn submit_and_fetch(&mut self, spec: &JobSpec) -> Option<Mark> {
        let submitted = Mark::now();
        let (id, hash) = self.submit(spec)?;
        if !self.await_done(&id) {
            return None;
        }
        let served = self.served.len();
        self.fetch_result(spec, &id, &hash, submitted, true);
        (self.served.len() > served).then_some(submitted)
    }

    fn graph_pass(&mut self, rep: u64) {
        for i in 0..GRAPH_CYCLES {
            self.begin_trace();
            let spec = self.shape_spec(i as usize, job_seed(self.seed, rep * GRAPH_CYCLES + i));
            self.submit_and_fetch(&spec);
        }
    }

    /// Untimed set-up of status-reads: one batch of small jobs, run to
    /// completion and their results published to the store.
    pub fn fill_status_queue(&mut self) {
        let specs: Vec<JobSpec> = (0..STATUS_JOBS)
            .map(|i| small_spec(job_seed(self.seed, i)))
            .collect();
        let body = Json::Arr(specs.iter().map(JobSpec::to_json).collect()).to_string_compact();
        let submitted = Mark::now();
        let Some(reply) = self.call("batch_post", "POST", "/batches", body.as_bytes()) else {
            return;
        };
        let Some(doc) = self.json_of("POST /batches", &reply) else {
            return;
        };
        let items = doc
            .get("items")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .to_vec();
        for (item, spec) in items.iter().zip(&specs) {
            if let Some((id, hash)) = self.job_ref(item, spec) {
                if self.await_done(&id) {
                    self.fetch_result(spec, &id, &hash, submitted, false);
                }
            }
        }
    }

    fn status_pass(&mut self, rep: u64) {
        if self.served.is_empty() {
            self.fail("status-reads has no done jobs to read".to_string());
            return;
        }
        let n = self.served.len();
        let pick = (rep as usize) % n;
        let (spec, id, hash) = {
            let s = &self.served[pick];
            (s.spec.clone(), s.id.clone(), s.hash.clone())
        };
        let timed = |run: &mut Self, route: &str, method: &str, path: &str, body: &[u8]| {
            let reply = run.call(route, method, path, body)?;
            run.samples.request_ms.push(ms(reply.total));
            Some(reply)
        };
        timed(self, "job_get", "GET", &format!("/jobs/{id}"), b"");
        // A dedup re-POST answered from the store, then its result.
        let submitted = Mark::now();
        let body = spec.to_json().to_string_compact();
        if let Some(reply) = timed(self, "job_post", "POST", "/jobs", body.as_bytes()) {
            let deduped = reply
                .json()
                .ok()
                .and_then(|d| d.get("deduped").and_then(Json::as_bool));
            if reply.status != 200 || deduped != Some(true) {
                self.fail(format!("re-POST of {hash} was not deduped"));
            }
        }
        if let Some(reply) = timed(self, "result_get", "GET", &format!("/results/{hash}"), b"") {
            let elapsed = submitted.wall_and_reported(self.workload.net_of_steal());
            self.samples.attempted += 1;
            match gate::check_result(&reply.body, &hash, spec.trials) {
                Ok(_) => self.samples.record_submit_to_result(elapsed),
                Err(e) => self.fail(e),
            }
        }
        let batch: Vec<Json> = (0..STATUS_BATCH)
            .map(|j| self.served[(pick + j) % n].spec.to_json())
            .collect();
        let body = Json::Arr(batch).to_string_compact();
        if let Some(reply) = timed(self, "batch_post", "POST", "/batches", body.as_bytes()) {
            let deduped = reply
                .json()
                .ok()
                .and_then(|d| d.get("deduped").and_then(Json::as_u64));
            if deduped != Some(STATUS_BATCH as u64) {
                self.fail(format!(
                    "batch re-POST deduped {deduped:?} of {STATUS_BATCH}"
                ));
            }
        }
        timed(self, "jobs_list", "GET", "/jobs", b"");
        timed(self, "metrics_get", "GET", "/metrics", b"");
    }
}

/// A complete-graph population job in the shape of the paper's sweep
/// (n = 10^5, 8 trials, `shard_size` 4); the traced run's reference
/// input for the population engine.
pub fn sweep_spec(protocol: &str, k: u64, master_seed: u64) -> JobSpec {
    spec_from(&format!(
        r#"{{"name":"population reference {protocol} k={k}",
            "protocol":{{"name":"{protocol}","params":{{}}}},
            "initial":{{"kind":"balanced","n":100000,"k":{k}}},
            "trials":8,"master_seed":{master_seed},"max_rounds":1000000,"shard_size":4,
            "mode":"full","stop":{{"kind":"consensus"}}}}"#
    ))
}

/// A small population job that finishes in milliseconds.
pub fn small_spec(master_seed: u64) -> JobSpec {
    spec_from(&format!(
        r#"{{"name":"status-reads small job",
            "protocol":{{"name":"three-majority","params":{{}}}},
            "initial":{{"kind":"balanced","n":1000,"k":4}},
            "trials":4,"master_seed":{master_seed},"max_rounds":100000,"shard_size":2,
            "mode":"full","stop":{{"kind":"consensus"}}}}"#
    ))
}

/// A job's master seed for stream `stream` of the workload seed, kept
/// below 2^53 so every JSON reader holds it exactly.
pub fn job_seed(seed: u64, stream: u64) -> u64 {
    od_sampling::seeds::derive_seed(seed, stream) >> 11
}

fn spec_from(text: &str) -> JobSpec {
    JobSpec::from_json_text(text).expect("the benchmark's spec templates are valid")
}
