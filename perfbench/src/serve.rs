//! The `serve-mix` workload: an open loop of streamed NDJSON submits over
//! TCP to `qsim_serve --io-threads 1 --workers 2`.
//!
//! One generator thread drives two connections on a schedule fixed by the
//! seed. The interactive tenant sends Normal-class 14–16 qubit RQCs with
//! 100 samples: mostly fresh seeds on a small circuit set (plan-cache
//! hits), some verbatim repeats (result-cache hits) and a few new
//! circuits (both caches miss). The batch tenant bursts 16 hash-equal
//! Batch-class jobs at a fixed period so gangs form. Every job is timed
//! from when it was due to the last `samples` frame; jobs lost to a
//! connection reset count as failed and are never retried. Idle-priority
//! spinners keep every CPU busy from the first set-up to the end of the
//! window (see [`crate::idle`]).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use qsim_backends::{Flavor, SimBackend};
use qsim_core::sweep::SweepExecutor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};

use crate::pipeline::{self, RunSpec};
use crate::spans::Recorder;
use crate::stats::{median, summarize};
use crate::{idle, procfs, Args, Report};

const CYCLES: usize = 14;
const SAMPLES: usize = 100;
const MAX_FUSED: usize = 4;
/// Widths of the interactive circuit set (two circuits each).
const SET_QUBITS: [usize; 6] = [14, 14, 15, 15, 16, 16];
/// Interactive submits are due every this many milliseconds.
const INTERACTIVE_PERIOD_MS: f64 = 20.0;
/// Interactive kinds repeat every `PATTERN_SLOTS` submits: phases below
/// `HIT_PHASES` are verbatim repeats (20 %), phase `COLD_PHASE` is a new
/// circuit (5 %), the rest are fresh seeds on the circuit set (75 %).
const PATTERN_SLOTS: usize = 20;
const HIT_PHASES: usize = 4;
const COLD_PHASE: usize = 19;
/// A repeat copies the submit this many slots earlier (1 s): always a
/// fresh-seed one, which has usually finished, so its result is cached.
const REPEAT_LAG_SLOTS: usize = 50;
/// Batch tenant: a burst of this many hash-equal jobs every period.
const BURST_JOBS: usize = 16;
const BURST_PERIOD_MS: f64 = 2000.0;
const BURST_QUBITS: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// How long to wait for in-flight jobs after the last submit is sent.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Served jobs of each kind re-run in process and compared sample for
/// sample.
const VERIFY_PER_KIND: usize = 3;
/// Traced run: seconds spent timing the in-process layers on this
/// workload's circuits.
const IN_PROCESS_SECONDS: f64 = 3.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Setup,
    Warm,
    Hit,
    Cold,
    Burst,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Setup => "setup",
            Kind::Warm => "warm",
            Kind::Hit => "hit",
            Kind::Cold => "cold",
            Kind::Burst => "burst",
        }
    }
}

/// Connections of one session.
const INTERACTIVE: usize = 0;
const BATCH: usize = 1;

/// One submit and everything observed about it.
struct Job {
    kind: Kind,
    conn: usize,
    circuit: usize,
    seed: u64,
    due: Instant,
    sent: Option<Instant>,
    ack: Option<Instant>,
    id: Option<u64>,
    done: Option<Instant>,
    samples: Vec<u64>,
    error: Option<String>,
}

impl Job {
    fn finished(&self) -> bool {
        self.done.is_some() || self.error.is_some()
    }
}

/// The `submit` line for `job`; `texts` holds the run's circuits.
fn submit_line(texts: &[String], job: &Job) -> String {
    let priority = if job.kind == Kind::Burst { "batch" } else { "normal" };
    let req = json!({
        "verb": "submit",
        "circuit": (texts[job.circuit].clone()),
        "backend": "cpu",
        "max_fused": (MAX_FUSED as u64),
        "seed": (job.seed),
        "sample_count": (SAMPLES as u64),
        "priority": priority,
        "stream": true,
    });
    serde_json::to_string(&req).expect("submit serializes")
}

type Jobs = Arc<Mutex<Vec<Job>>>;

/// A running `qsim_serve` plus the benchmark's connections to it.
struct Session {
    child: Child,
    pid: u32,
    /// Held open so the server's exit message does not hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    control: (TcpStream, BufReader<TcpStream>),
    writers: Vec<TcpStream>,
    pending: Vec<Arc<Mutex<VecDeque<usize>>>>,
    readers: Vec<JoinHandle<()>>,
    jobs: Jobs,
}

impl Session {
    /// Spawn the server, wait for `listening on`, connect.
    fn start(serve_bin: &str, jobs: Jobs) -> Result<Session, String> {
        let mut child = Command::new(serve_bin)
            .args(["--io-threads", "1", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {serve_bin}: {e}"))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening on ").map(str::to_string));
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("qsim_serve did not announce its address (got {line:?})"));
        };
        let connect = || -> Result<TcpStream, String> {
            let s = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(s)
        };
        let mut session = Session {
            child,
            pid,
            _stdout: stdout,
            control: {
                let s = connect()?;
                let r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
                (s, r)
            },
            writers: Vec::new(),
            pending: Vec::new(),
            readers: Vec::new(),
            jobs,
        };
        for conn in [INTERACTIVE, BATCH] {
            let stream = connect()?;
            let reader = stream.try_clone().map_err(|e| e.to_string())?;
            let pending = Arc::new(Mutex::new(VecDeque::new()));
            let (p, jobs) = (pending.clone(), session.jobs.clone());
            session.readers.push(thread::spawn(move || read_loop(reader, &p, &jobs, conn)));
            session.writers.push(stream);
            session.pending.push(pending);
        }
        Ok(session)
    }

    /// One request/response round trip on the control connection.
    fn call(&mut self, req: &Value) -> Result<Value, String> {
        let line = serde_json::to_string(req).expect("request serializes") + "\n";
        self.control.0.write_all(line.as_bytes()).map_err(|e| format!("control write: {e}"))?;
        let mut resp = String::new();
        self.control.1.read_line(&mut resp).map_err(|e| format!("control read: {e}"))?;
        serde_json::from_str(&resp).map_err(|e| format!("control response {resp:?}: {e}"))
    }

    fn metrics(&mut self) -> Result<Value, String> {
        let resp = self.call(&json!({ "verb": "metrics" }))?;
        resp.get("metrics")
            .cloned()
            .ok_or_else(|| format!("metrics response without metrics: {resp:?}"))
    }

    /// Send job `j` now: queue it for its connection's reader, then write.
    /// A write error means the connection is gone; the job and every later
    /// job on it fail.
    fn send(&mut self, j: usize, line: &str) {
        let conn = self.jobs.lock().expect("jobs lock")[j].conn;
        self.pending[conn].lock().expect("pending lock").push_back(j);
        let sent = Instant::now();
        let res = self.writers[conn]
            .write_all(line.as_bytes())
            .and_then(|()| self.writers[conn].write_all(b"\n"));
        let mut jobs = self.jobs.lock().expect("jobs lock");
        jobs[j].sent = Some(sent);
        if let Err(e) = res {
            jobs[j].error = Some(format!("lost to a connection reset: {e}"));
        }
    }

    /// Wait until every job has finished or `timeout` passes.
    fn drain(&self, timeout: Duration) -> bool {
        let end = Instant::now() + timeout;
        loop {
            if self.jobs.lock().expect("jobs lock").iter().all(Job::finished) {
                return true;
            }
            if Instant::now() > end {
                return false;
            }
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// Ask for the state of every unfinished job and mark it failed.
    fn settle_stragglers(&mut self) {
        let open: Vec<(usize, Option<u64>)> = {
            let jobs = self.jobs.lock().expect("jobs lock");
            jobs.iter().enumerate().filter(|(_, j)| !j.finished()).map(|(i, j)| (i, j.id)).collect()
        };
        for (i, id) in open {
            let state = match id {
                Some(id) => self
                    .call(&json!({ "verb": "status", "id": id }))
                    .ok()
                    .and_then(|v| v.get("state").and_then(Value::as_str).map(str::to_string))
                    .unwrap_or_else(|| "unknown".into()),
                None => "never acknowledged".into(),
            };
            let mut jobs = self.jobs.lock().expect("jobs lock");
            if !jobs[i].finished() {
                jobs[i].error = Some(format!("no final samples frame (server state: {state})"));
            }
        }
    }

    /// Drain and stop the server, then join the reader threads.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = self.call(&json!({ "verb": "shutdown" }));
        let end = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break Some(status),
                None if Instant::now() > end => break None,
                None => thread::sleep(Duration::from_millis(5)),
            }
        };
        for w in &self.writers {
            let _ = w.shutdown(std::net::Shutdown::Both);
        }
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("qsim_serve exited with {s}")),
            None => Err("qsim_serve did not exit within 20 s of shutdown".into()),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Only reached with the child still running on an error path;
        // `shutdown` reaps it on the normal path.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        for w in &self.writers {
            let _ = w.shutdown(std::net::Shutdown::Both);
        }
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
    }
}

/// Per-connection reader: acks map to the connection's sends in order;
/// `samples` frames carry the job id. EOF or an error fails every job
/// still open on the connection.
fn read_loop(
    stream: TcpStream,
    pending: &Mutex<VecDeque<usize>>,
    jobs: &Mutex<Vec<Job>>,
    conn: usize,
) {
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let mut early: HashMap<u64, Vec<Value>> = HashMap::new();
    let mut lines = BufReader::new(stream).lines();
    let apply = |jobs: &mut Vec<Job>, j: usize, frame: &Value, at: Instant| {
        if let Some(s) = frame.get("samples").and_then(Value::as_array) {
            jobs[j].samples.extend(s.iter().filter_map(Value::as_u64));
        }
        if frame.get("last").and_then(Value::as_bool) == Some(true) {
            jobs[j].done = Some(at);
        }
    };
    let reason = loop {
        let line = match lines.next() {
            Some(Ok(line)) => line,
            Some(Err(e)) => break format!("lost to a connection reset: {e}"),
            None => break "lost: connection closed".to_string(),
        };
        let at = Instant::now();
        let Ok(v) = serde_json::from_str::<Value>(&line) else {
            break format!("unparsable line from server: {line:.80}");
        };
        let mut jobs = jobs.lock().expect("jobs lock");
        if v.get("event").is_some() {
            let Some(id) = v.get("id").and_then(Value::as_u64) else { continue };
            match by_id.get(&id) {
                Some(&j) => apply(&mut jobs, j, &v, at),
                None => early.entry(id).or_default().push(v),
            }
            continue;
        }
        let Some(j) = pending.lock().expect("pending lock").pop_front() else {
            break format!("response with no request outstanding: {line:.80}");
        };
        jobs[j].ack = Some(at);
        match (v.get("ok").and_then(Value::as_bool), v.get("id").and_then(Value::as_u64)) {
            (Some(true), Some(id)) => {
                jobs[j].id = Some(id);
                by_id.insert(id, j);
                for frame in early.remove(&id).unwrap_or_default() {
                    apply(&mut jobs, j, &frame, at);
                }
            }
            _ => {
                let why = v.get("error").and_then(Value::as_str).unwrap_or("refused");
                jobs[j].error = Some(format!("refused: {why}"));
            }
        }
    };
    let mut jobs = jobs.lock().expect("jobs lock");
    for j in jobs.iter_mut().filter(|j| j.conn == conn && j.sent.is_some() && !j.finished()) {
        j.error = Some(reason.clone());
    }
}

/// A scheduled submit before it is sent.
struct Planned {
    kind: Kind,
    conn: usize,
    circuit: usize,
    seed: u64,
    due_ms: f64,
}

/// Everything a run submits, fixed by the workload seed: the circuits
/// (the interactive set, the burst circuit, then one per cold submit),
/// the set-up submits and the window's schedule (due offsets in ms).
struct Plan {
    texts: Vec<String>,
    setup: Vec<Planned>,
    window: Vec<Planned>,
}

fn plan(seed: u64, seconds: f64) -> Plan {
    let mut rng = StdRng::seed_from_u64(pipeline::mix(seed, 7));
    let mut texts: Vec<String> = SET_QUBITS
        .iter()
        .enumerate()
        .map(|(i, &q)| pipeline::rqc_text(q, CYCLES, pipeline::mix(seed, 100 + i as u64)))
        .collect();
    let burst_circuit = texts.len();
    texts.push(pipeline::rqc_text(BURST_QUBITS, CYCLES, pipeline::mix(seed, 200)));
    let fresh_seed = |rng: &mut StdRng| rng.gen::<u64>() >> 12;

    // Set-up: every set circuit and the burst circuit once, so the plan
    // cache, buffer pool and worker threads are warm.
    let setup: Vec<Planned> = (0..=burst_circuit)
        .map(|c| Planned {
            kind: Kind::Setup,
            conn: if c == burst_circuit { BATCH } else { INTERACTIVE },
            circuit: c,
            seed: fresh_seed(&mut rng),
            due_ms: 0.0,
        })
        .collect();

    // Interactive slot k: a fixed pattern of kinds and round-robin widths,
    // so every seed offers the same mix.
    let span_ms = seconds * 1e3;
    let slots = (span_ms / INTERACTIVE_PERIOD_MS).ceil() as usize;
    let mut window = Vec::with_capacity(slots);
    for k in 0..slots {
        let mut p = Planned {
            kind: Kind::Warm,
            conn: INTERACTIVE,
            circuit: k % SET_QUBITS.len(),
            seed: fresh_seed(&mut rng),
            due_ms: k as f64 * INTERACTIVE_PERIOD_MS,
        };
        let phase = k % PATTERN_SLOTS;
        if phase == COLD_PHASE {
            p.kind = Kind::Cold;
            p.circuit = texts.len();
            let q = SET_QUBITS[k % SET_QUBITS.len()];
            texts.push(pipeline::rqc_text(q, CYCLES, pipeline::mix(seed, 1_000 + k as u64)));
        } else if phase < HIT_PHASES && k >= REPEAT_LAG_SLOTS {
            let src: &Planned = &window[k - REPEAT_LAG_SLOTS];
            p.kind = Kind::Hit;
            p.circuit = src.circuit;
            p.seed = src.seed;
        }
        window.push(p);
    }
    let mut t = BURST_PERIOD_MS / 2.0;
    while t < span_ms {
        for _ in 0..BURST_JOBS {
            window.push(Planned {
                kind: Kind::Burst,
                conn: BATCH,
                circuit: burst_circuit,
                seed: fresh_seed(&mut rng),
                due_ms: t,
            });
        }
        t += BURST_PERIOD_MS;
    }
    // A stable sort keeps every repeat after the submit it copies.
    window.sort_by(|a, b| a.due_ms.total_cmp(&b.due_ms));
    Plan { texts, setup, window }
}

/// Append planned submits to the job table, due at `start + due_ms`.
fn enqueue(jobs: &Jobs, planned: &[Planned], start: Instant) -> Vec<usize> {
    let mut table = jobs.lock().expect("jobs lock");
    planned
        .iter()
        .map(|p| {
            table.push(Job {
                kind: p.kind,
                conn: p.conn,
                circuit: p.circuit,
                seed: p.seed,
                due: start + Duration::from_secs_f64(p.due_ms / 1e3),
                sent: None,
                ack: None,
                id: None,
                done: None,
                samples: Vec::new(),
                error: None,
            });
            table.len() - 1
        })
        .collect()
}

/// Spawn a server and run the set-up submits; returns the session and
/// the seconds from spawn to the last set-up job's final frame.
fn set_up(plan: &Plan, serve_bin: &str) -> Result<(Session, f64), String> {
    let t0 = Instant::now();
    let jobs: Jobs = Arc::new(Mutex::new(Vec::new()));
    let mut session = Session::start(serve_bin, jobs.clone())?;
    let ids = enqueue(&jobs, &plan.setup, Instant::now());
    let lines: Vec<String> = {
        let table = jobs.lock().expect("jobs lock");
        ids.iter().map(|&j| submit_line(&plan.texts, &table[j])).collect()
    };
    for (&j, line) in ids.iter().zip(&lines) {
        session.send(j, line);
    }
    if !session.drain(DRAIN_TIMEOUT) {
        session.settle_stragglers();
    }
    Ok((session, t0.elapsed().as_secs_f64()))
}

/// Admission bytes still reserved by jobs: the ledger also carries the
/// result cache's resident entries, which are not job reservations.
fn job_reserved_bytes(metrics: &Value) -> f64 {
    num(metrics, &["admission", "reserved_bytes"])
        - num(metrics, &["result_cache", "occupancy_bytes"])
}

fn num(v: &Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Run the workload (`traced` adds spans and the in-process layer pass).
pub fn run(args: &Args, report: &mut Report, traced: bool) -> Result<(), String> {
    let serve_bin = args.serve_bin.as_deref().ok_or("serve-mix needs --serve-bin")?;
    let plan = plan(args.seed, args.seconds);
    let spinners = idle::Spinners::start()?;

    let mut setups = Vec::new();
    let mut session: Option<Session> = None;
    // The traced run needs no set-up time: one set-up suffices.
    for _ in 0..if traced { 1 } else { SETUPS } {
        if let Some(s) = session.take() {
            let jobs = std::mem::take(&mut *s.jobs.lock().expect("jobs lock"));
            Session::shutdown(s)?;
            check_jobs(&jobs, report);
        }
        let (s, secs) = set_up(&plan, serve_bin)?;
        setups.push(secs);
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");

    // ---- timed window ----
    let m0 = session.metrics()?;
    let rss0 = procfs::status_mib(Some(session.pid), "VmRSS")?;
    let server_cpu0 = procfs::cpu_seconds(Some(session.pid))?;
    let client_cpu0 = client_cpu_seconds()?;
    let host0 = procfs::host_jiffies()?;
    let start = Instant::now() + Duration::from_millis(20);
    let ids = enqueue(&session.jobs, &plan.window, start);
    let lines: Vec<String> = {
        let table = session.jobs.lock().expect("jobs lock");
        ids.iter().map(|&j| submit_line(&plan.texts, &table[j])).collect()
    };
    for (&j, line) in ids.iter().zip(&lines) {
        let due = session.jobs.lock().expect("jobs lock")[j].due;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        session.send(j, line);
    }
    let drained = session.drain(DRAIN_TIMEOUT);
    let server_cpu = procfs::cpu_seconds(Some(session.pid))? - server_cpu0;
    let client_cpu = client_cpu_seconds()? - client_cpu0;
    let host1 = procfs::host_jiffies()?;
    let steal_share = (host1.1 - host0.1) / (host1.0 - host0.0).max(1.0);
    let m1 = session.metrics()?;
    let rss1 = procfs::status_mib(Some(session.pid), "VmRSS")?;
    let hwm = procfs::status_mib(Some(session.pid), "VmHWM")?;
    if !drained {
        session.settle_stragglers();
    }
    // ---- end of window ----

    let jobs = std::mem::take(&mut *session.jobs.lock().expect("jobs lock"));
    session.shutdown()?;
    drop(spinners);
    report.note(format!("host steal share in the window: {steal_share:.4}"));

    check_jobs(&jobs, report);
    let left = job_reserved_bytes(&m1);
    report.check(
        if left == 0.0 { Ok(()) } else { Err(format!("{left} B still reserved by jobs")) },
        "admission ledger after drain",
    );
    verify_in_process(&jobs, &plan.texts, report);

    let window: Vec<&Job> = jobs.iter().filter(|j| j.kind != Kind::Setup).collect();
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    let latency: Vec<f64> = window.iter().filter_map(|j| Some(ms(j.due, j.done?))).collect();
    let completed = latency.len();
    let d = |path: &[&str]| num(&m1, path) - num(&m0, path);

    if !traced {
        let lat = summarize(&latency);
        report.metric("job_p50_ms", lat.p50, lat.n, "median".into());
        report.note(format!("job_p99_ms = {} ms ({} of n={})", lat.tail, lat.tail_label, lat.n));
        report.metric(
            "cpu_ms_per_job",
            server_cpu * 1e3 / completed.max(1) as f64,
            completed,
            format!("qsim_serve {server_cpu:.3} s CPU / {completed} jobs"),
        );
        report.metric("setup_s", median(&setups), setups.len(), "median".into());
        report.metric("peak_rss_mib", hwm, 1, "qsim_serve VmHWM".into());
        report.note(format!(
            "offered {} jobs in {:.1} s ({} interactive every {INTERACTIVE_PERIOD_MS} ms, bursts of {BURST_JOBS} every {BURST_PERIOD_MS} ms); {completed} completed",
            window.len(),
            args.seconds,
            window.iter().filter(|j| j.conn == INTERACTIVE).count(),
        ));
        return Ok(());
    }

    let mut put =
        |name: &str, value: f64, n: usize, note: String| report.metric(name, value, n, note);
    let lat = summarize(&latency);
    put("serve.job_p99_ms", lat.tail, lat.n, format!("{} of n={}", lat.tail_label, lat.n));
    let acks: Vec<f64> = window.iter().filter_map(|j| Some(ms(j.sent?, j.ack?))).collect();
    let a = summarize(&acks);
    put("serve.ack_ms.p50", a.p50, a.n, String::new());
    put("serve.ack_ms.p99", a.tail, a.n, format!("{} of n={}", a.tail_label, a.n));
    let a2d: Vec<f64> = window.iter().filter_map(|j| Some(ms(j.ack?, j.done?))).collect();
    let s = summarize(&a2d);
    put("serve.ack_to_done_ms.p50", s.p50, s.n, String::new());
    put("serve.ack_to_done_ms.p99", s.tail, s.n, format!("{} of n={}", s.tail_label, s.n));
    let done_jobs = d(&["jobs", "completed"]);
    put(
        "serve.worker_ms_per_job",
        if done_jobs > 0.0 { d(&["timing", "total_wall_seconds"]) * 1e3 / done_jobs } else { 0.0 },
        done_jobs as usize,
        format!(
            "Δtotal_wall_seconds / Δcompleted = {:.4} s / {done_jobs}",
            d(&["timing", "total_wall_seconds"])
        ),
    );
    for kind in [Kind::Hit, Kind::Warm, Kind::Cold, Kind::Burst] {
        let v: Vec<f64> = window
            .iter()
            .filter(|j| j.kind == kind)
            .filter_map(|j| Some(ms(j.due, j.done?)))
            .collect();
        put(&format!("serve.job_p50_ms.{}", kind.label()), median(&v), v.len(), String::new());
    }
    for cache in ["result", "plan"] {
        let key = format!("{cache}_cache");
        let (hits, misses) = (d(&[&key, "hits"]), d(&[&key, "misses"]));
        let lookups = hits + misses;
        put(
            &format!("cache.{cache}.hit_ratio"),
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            lookups as usize,
            format!("{hits} hits / {lookups} lookups"),
        );
        put(&format!("cache.{cache}.evictions"), d(&[&key, "evictions"]), 1, String::new());
    }
    let (batches, batched) = (d(&["batching", "batches"]), d(&["batching", "batched_jobs"]));
    put(
        "serve.batch.occupancy_avg",
        if batches > 0.0 { batched / batches } else { 0.0 },
        batches as usize,
        format!("{batched} batched jobs / {batches} gangs"),
    );
    put(
        "serve.batch.batched_share",
        if done_jobs > 0.0 { batched / done_jobs } else { 0.0 },
        done_jobs as usize,
        format!("{batched} batched jobs / {done_jobs} completed"),
    );
    let (ph, pm) = (d(&["buffer_pool", "hits"]), d(&["buffer_pool", "misses"]));
    put(
        "serve.pool.reuse_ratio",
        if ph + pm > 0.0 { ph / (ph + pm) } else { 0.0 },
        (ph + pm) as usize,
        format!("{ph} pooled-buffer hits / {} acquisitions", ph + pm),
    );
    put("serve.admission.rejected", d(&["jobs", "rejected"]), 1, String::new());
    put(
        "serve.reserved_bytes_end",
        job_reserved_bytes(&m1),
        1,
        format!(
            "admission reserved {} B − result-cache occupancy {} B",
            num(&m1, &["admission", "reserved_bytes"]),
            num(&m1, &["result_cache", "occupancy_bytes"])
        ),
    );
    put(
        "serve.registry_growth_mib",
        rss1 - rss0,
        1,
        format!("VmRSS {rss1:.1} MiB at window end − {rss0:.1} MiB after set-up"),
    );
    let late: Vec<f64> = window.iter().filter_map(|j| Some(ms(j.due, j.sent?))).collect();
    let l = summarize(&late);
    put(
        "bench.host_steal_share",
        steal_share,
        1,
        "steal / all jiffies of every CPU, /proc/stat over the window".into(),
    );
    put("bench.gen_late_ms.p99", l.tail, l.n, format!("{} of n={}", l.tail_label, l.n));
    put(
        "bench.client_cpu_ms_per_job",
        client_cpu * 1e3 / completed.max(1) as f64,
        completed,
        format!("benchmark process CPU {client_cpu:.3} s / {completed} jobs"),
    );

    // Client-side spans: send → ack → last frame, one track per job.
    let mut rec = Recorder::new(true);
    for (i, j) in window.iter().enumerate() {
        if let (Some(sent), Some(ack)) = (j.sent, j.ack) {
            let root = rec.record(
                &format!("serve.job.{}", j.kind.label()),
                i as u64,
                None,
                j.due,
                j.done.unwrap_or(ack),
            );
            rec.record("serve.generator_late", i as u64, root, j.due, sent);
            rec.record("serve.ack", i as u64, root, sent, ack);
            if let Some(done) = j.done {
                rec.record("serve.ack_to_done", i as u64, root, ack, done);
            }
        }
    }

    // In-process layers on this workload's circuits.
    let subset = verify_subset(&jobs);
    if subset.is_empty() {
        report.fail("no completed job to time in process".into());
        return report.write_trace(args, &rec);
    }
    let traced = pipeline::TracedBackend::new(Flavor::CpuAvx);
    let exec = SweepExecutor::new(pipeline::sweep_config(Flavor::CpuAvx));
    let id_base = window.len() as u64;
    let figures = crate::rqc::traced_loop(
        &traced,
        &exec,
        IN_PROCESS_SECONDS,
        id_base,
        report,
        &mut rec,
        |i| {
            let j = &jobs[subset[i as usize % subset.len()]];
            (
                plan.texts[j.circuit].clone(),
                RunSpec { max_fused: MAX_FUSED, seed: j.seed, samples: SAMPLES },
            )
        },
    );
    report.layers(figures);
    report.write_trace(args, &rec)
}

/// CPU seconds of this process so far, without its spinners.
fn client_cpu_seconds() -> Result<f64, String> {
    Ok(procfs::cpu_seconds(None)? - procfs::threads_cpu_seconds(idle::THREAD_NAME)?)
}

/// Every job must end with its final frame and all requested samples;
/// verbatim repeats must return the first submission's samples bit for
/// bit.
fn check_jobs(jobs: &[Job], report: &mut Report) {
    // The first submission of each (circuit, seed); a later submission
    // with the same key is a verbatim repeat.
    let mut first: HashMap<(usize, u64), usize> = HashMap::new();
    for (i, j) in jobs.iter().enumerate() {
        let src = *first.entry((j.circuit, j.seed)).or_insert(i);
        report.attempted += 1;
        let verdict = if let Some(e) = &j.error {
            Err(e.clone())
        } else if j.done.is_none() {
            Err("no final samples frame".into())
        } else if j.samples.len() != SAMPLES {
            Err(format!("{} samples streamed, {SAMPLES} requested", j.samples.len()))
        } else if src != i && jobs[src].samples != j.samples {
            Err(format!("verbatim repeat of job {src} returned different samples"))
        } else {
            Ok(())
        };
        report.check(verdict, &format!("{} job {i}", j.kind.label()));
    }
}

/// The first few completed jobs of each kind.
fn verify_subset(jobs: &[Job]) -> Vec<usize> {
    let mut by_kind: BTreeMap<Kind, Vec<usize>> = BTreeMap::new();
    for (i, j) in jobs.iter().enumerate() {
        let bucket = by_kind.entry(j.kind).or_default();
        if j.kind != Kind::Setup
            && j.done.is_some()
            && j.samples.len() == SAMPLES
            && bucket.len() < VERIFY_PER_KIND
        {
            bucket.push(i);
        }
    }
    by_kind.into_values().flatten().collect()
}

/// Re-run a subset of served jobs (solo, gang and cache-hit ones) in
/// process on a fresh `SimBackend`; samples must match exactly.
fn verify_in_process(jobs: &[Job], texts: &[String], report: &mut Report) {
    let backend = SimBackend::new(Flavor::CpuAvx);
    let subset = verify_subset(jobs);
    for &i in &subset {
        let j = &jobs[i];
        let spec = RunSpec { max_fused: MAX_FUSED, seed: j.seed, samples: SAMPLES };
        let verdict =
            pipeline::run_text(&backend, &texts[j.circuit], spec, &mut Recorder::new(false), 0)
                .and_then(|out| {
                    pipeline::check_output(&out, spec)?;
                    if out.report.samples == j.samples {
                        Ok(())
                    } else {
                        Err("served samples differ from an in-process SimBackend run".into())
                    }
                });
        report.check(verdict, &format!("in-process re-run of {} job {i}", j.kind.label()));
    }
    report.note(format!("{} served jobs re-run in process", subset.len()));
}
