//! The serving daemon: admission control, per-run worker threads,
//! checkpointing, and the socket accept/dispatch loops.
//!
//! # Session state machine
//!
//! ```text
//!                submit            slot free
//!   (client) ───────────▶ Queued ───────────▶ Running ──▶ Done
//!                           │                    │   │
//!                    cancel │             cancel │   │ error
//!                           ▼                    ▼   ▼
//!                       Cancelled          Cancelled Failed
//!                                                │
//!                                       shutdown │ (checkpoint)
//!                                                ▼
//!                                          Interrupted ──restart──▶ Queued
//! ```
//!
//! Every run owns a per-tenant directory `state_dir/runs/{id:06}/`
//! holding its spec (`spec.grrs`), periodic `step-NNNNNN.grrs`
//! checkpoints, the final `result.grrs` artifact, and `cancelled` /
//! `failed` markers. A daemon restarted over the same state directory
//! rebuilds its table from those files and resumes non-terminal runs
//! from their newest checkpoint.
//!
//! The driver is deliberately stepped on a dedicated thread per run
//! ([`graphrare::RareDriver`] is `!Send`), with all cross-thread
//! coordination going through lock-free `RunCtl` atomics plus one
//! short-lived table mutex.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use graphrare::{persist, RareDriver};
use graphrare_datasets::stratified_split;
use graphrare_graph::io;
use graphrare_store::wire::{ByteReader, ByteWriter};
use graphrare_store::{Container, ContainerWriter};
use graphrare_telemetry as telemetry;

use crate::proto::{
    self, decode_spec, encode_spec, FrameRead, Request, Response, RunInfo, RunSpec, RunState,
    StatsReport,
};

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Root directory for per-run state (specs, checkpoints, results).
    pub state_dir: PathBuf,
    /// Runs allowed to step concurrently.
    pub max_runs: usize,
    /// Admitted runs allowed to wait behind the active ones; a submit
    /// past `max_runs + max_queue` gets [`Response::Busy`].
    pub max_queue: usize,
    /// Auto-checkpoint cadence in DRL steps (0 disables periodic
    /// checkpoints; explicit snapshots and shutdown still write them).
    pub checkpoint_every: usize,
}

impl ServeConfig {
    /// Defaults: 2 worker slots, queue of 8, checkpoint every 5 steps.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServeConfig { state_dir: state_dir.into(), max_runs: 2, max_queue: 8, checkpoint_every: 5 }
    }
}

/// A daemon endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Listen {
    /// Unix domain socket at this path.
    Unix(PathBuf),
    /// TCP socket at this `host:port` address.
    Tcp(String),
}

impl Listen {
    /// Parses `unix:PATH` or `tcp:HOST:PORT` (a bare path containing
    /// `/` is accepted as a unix socket).
    pub fn parse(s: &str) -> Result<Listen, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".into());
            }
            return Ok(Listen::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.rsplit_once(':').is_none_or(|(h, p)| h.is_empty() || p.parse::<u16>().is_err())
            {
                return Err(format!("tcp endpoint {addr:?} is not HOST:PORT"));
            }
            return Ok(Listen::Tcp(addr.to_string()));
        }
        if s.contains('/') {
            return Ok(Listen::Unix(PathBuf::from(s)));
        }
        Err(format!("endpoint {s:?} must be unix:PATH or tcp:HOST:PORT"))
    }
}

/// Per-run control block shared between the worker thread and request
/// handlers. All fields are atomics so status queries never block a
/// stepping worker.
struct RunCtl {
    state: AtomicU8,
    step: AtomicU64,
    budget: AtomicU64,
    cancel: AtomicBool,
    snap_req: AtomicBool,
    last_checkpoint: AtomicU64,
    best_val_bits: AtomicU64,
    test_acc_bits: AtomicU64,
    error: Mutex<String>,
}

impl RunCtl {
    fn new(state: RunState) -> Self {
        RunCtl {
            state: AtomicU8::new(state.tag()),
            step: AtomicU64::new(0),
            budget: AtomicU64::new(0),
            cancel: AtomicBool::new(false),
            snap_req: AtomicBool::new(false),
            last_checkpoint: AtomicU64::new(0),
            best_val_bits: AtomicU64::new(0),
            test_acc_bits: AtomicU64::new(0),
            error: Mutex::new(String::new()),
        }
    }

    fn state(&self) -> RunState {
        // Only `RunState::tag` values are ever stored, so this decodes.
        RunState::from_tag(self.state.load(Ordering::SeqCst)).unwrap_or(RunState::Interrupted)
    }

    fn set_state(&self, s: RunState) {
        self.state.store(s.tag(), Ordering::SeqCst);
    }

    fn fail(&self, message: String) {
        *self.error.lock().unwrap() = message;
        self.set_state(RunState::Failed);
    }
}

struct RunEntry {
    spec: RunSpec,
    ctl: Arc<RunCtl>,
}

#[derive(Default)]
struct Table {
    runs: BTreeMap<u64, RunEntry>,
    queue: VecDeque<u64>,
    active: usize,
    next_id: u64,
}

struct Shared {
    cfg: ServeConfig,
    shutdown: AtomicBool,
    table: Mutex<Table>,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed_n: AtomicU64,
    cancelled_n: AtomicU64,
    steps_total: AtomicU64,
    requests: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

fn run_dir(state_dir: &Path, run_id: u64) -> PathBuf {
    state_dir.join("runs").join(format!("{run_id:06}"))
}

fn spec_bytes(spec: &RunSpec) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_spec(spec, &mut w);
    w.into_bytes()
}

fn write_spec(dir: &Path, spec: &RunSpec) -> Result<(), String> {
    let mut w = ContainerWriter::new();
    w.put_bytes("serve/spec", &spec_bytes(spec));
    w.write_atomic(&dir.join("spec.grrs")).map(|_| ()).map_err(|e| e.to_string())
}

fn read_spec(dir: &Path) -> Result<RunSpec, String> {
    let c = Container::read(&dir.join("spec.grrs")).map_err(|e| e.to_string())?;
    let bytes = c.bytes("serve/spec").map_err(|e| e.to_string())?;
    let mut r = ByteReader::new(bytes, "serve run spec");
    let spec = decode_spec(&mut r).map_err(|e| e.to_string())?;
    r.expect_exhausted("serve run spec").map_err(|e| e.to_string())?;
    Ok(spec)
}

/// The serving daemon. Construct with [`Server::start`]; stop with
/// [`Server::request_shutdown`] followed by [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    accept_handles: Vec<JoinHandle<()>>,
    socket_files: Vec<PathBuf>,
}

impl Server {
    /// Creates (or reopens) the state directory, rebuilds the run table
    /// from any previous daemon lifetime, binds every endpoint, and
    /// starts resuming non-terminal runs.
    pub fn start(cfg: ServeConfig, listens: &[Listen]) -> Result<Server, String> {
        let runs_root = cfg.state_dir.join("runs");
        std::fs::create_dir_all(&runs_root)
            .map_err(|e| format!("cannot create {}: {e}", runs_root.display()))?;

        let shared = Arc::new(Shared {
            cfg,
            shutdown: AtomicBool::new(false),
            table: Mutex::new(Table::default()),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed_n: AtomicU64::new(0),
            cancelled_n: AtomicU64::new(0),
            steps_total: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        });
        recover_state(&shared)?;

        let mut accept_handles = Vec::new();
        let mut socket_files = Vec::new();
        for listen in listens {
            match listen {
                Listen::Unix(path) => {
                    // Bind beside `path` and rename onto it once the
                    // socket listens, so `path` never names a socket
                    // that refuses connections. The rename replaces a
                    // socket file left behind by a killed daemon.
                    let mut tmp = path.clone().into_os_string();
                    tmp.push(".tmp");
                    let tmp = PathBuf::from(tmp);
                    let _ = std::fs::remove_file(&tmp);
                    let listener = std::os::unix::net::UnixListener::bind(&tmp)
                        .map_err(|e| format!("cannot bind {}: {e}", tmp.display()))?;
                    std::fs::rename(&tmp, path)
                        .map_err(|e| format!("cannot move socket to {}: {e}", path.display()))?;
                    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
                    socket_files.push(path.clone());
                    let shared = Arc::clone(&shared);
                    accept_handles.push(std::thread::spawn(move || {
                        accept_loop(shared, move || listener.accept().map(|(s, _)| s));
                    }));
                }
                Listen::Tcp(addr) => {
                    let listener = std::net::TcpListener::bind(addr)
                        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
                    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
                    let shared = Arc::clone(&shared);
                    accept_handles.push(std::thread::spawn(move || {
                        accept_loop(shared, move || listener.accept().map(|(s, _)| s));
                    }));
                }
            }
        }

        // Resume: fill the worker slots from the recovered queue.
        schedule(&shared);
        Ok(Server { shared, accept_handles, socket_files })
    }

    /// Handles one request in-process (no socket round-trip) — the
    /// accept loops dispatch through the same path.
    pub fn handle(&self, req: Request) -> Response {
        handle_request(&self.shared, req)
    }

    /// Flips the daemon into draining mode: no new admissions, every
    /// active worker checkpoints and parks its run at the next step
    /// boundary.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether a shutdown has been requested (by [`Self::request_shutdown`]
    /// or a client's `Shutdown` frame).
    pub fn shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the accept loops and every worker thread, then removes
    /// the daemon's unix socket files. Call [`Self::request_shutdown`]
    /// first, or this blocks until every hosted run finishes on its
    /// own. (Telemetry sinks stay registered; the daemon binary flushes
    /// them with `clear_sinks` on exit, like the CLI.)
    pub fn join(self) {
        for handle in self.accept_handles {
            let _ = handle.join();
        }
        // Workers can spawn successors (the scheduler hands a freed
        // slot to the next queued run), so drain until stable.
        loop {
            let batch = std::mem::take(&mut *self.shared.workers.lock().unwrap());
            if batch.is_empty() {
                break;
            }
            for handle in batch {
                let _ = handle.join();
            }
        }
        for path in &self.socket_files {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Rebuilds the run table from the state directory: finished runs keep
/// their terminal states, anything else re-queues for resumption.
fn recover_state(shared: &Arc<Shared>) -> Result<(), String> {
    let runs_root = shared.cfg.state_dir.join("runs");
    let mut table = shared.table.lock().unwrap();
    let entries =
        std::fs::read_dir(&runs_root).map_err(|e| format!("{}: {e}", runs_root.display()))?;
    let mut max_id = 0;
    for entry in entries.flatten() {
        let Ok(run_id) = entry.file_name().to_string_lossy().parse::<u64>() else { continue };
        let dir = entry.path();
        let spec = match read_spec(&dir) {
            Ok(spec) => spec,
            Err(e) => return Err(format!("run {run_id}: unreadable spec: {e}")),
        };
        max_id = max_id.max(run_id);

        let ctl = Arc::new(RunCtl::new(RunState::Queued));
        if let Some((step, _)) = persist::latest_checkpoint(&dir) {
            ctl.step.store(step as u64, Ordering::SeqCst);
            ctl.last_checkpoint.store(step as u64, Ordering::SeqCst);
        }
        if dir.join("result.grrs").exists() {
            ctl.set_state(RunState::Done);
            ctl.step.store(spec.steps, Ordering::SeqCst);
            if let Ok(artifact) = persist::load_model(&dir.join("result.grrs")) {
                ctl.best_val_bits.store(artifact.best_val_acc.to_bits(), Ordering::SeqCst);
                ctl.test_acc_bits.store(artifact.test_acc.to_bits(), Ordering::SeqCst);
            }
        } else if dir.join("cancelled").exists() {
            ctl.set_state(RunState::Cancelled);
        } else if let Ok(message) = std::fs::read_to_string(dir.join("failed")) {
            ctl.fail(message.trim_end().to_string());
        } else {
            table.queue.push_back(run_id);
        }
        table.runs.insert(run_id, RunEntry { spec, ctl });
    }
    table.next_id = max_id + 1;
    Ok(())
}

/// Moves queued runs onto worker threads until the slots are full.
fn schedule(shared: &Arc<Shared>) {
    if shared.shutdown.load(Ordering::SeqCst) {
        return;
    }
    let mut to_spawn = Vec::new();
    {
        let mut table = shared.table.lock().unwrap();
        while table.active < shared.cfg.max_runs {
            let Some(run_id) = table.queue.pop_front() else { break };
            let entry = &table.runs[&run_id];
            entry.ctl.set_state(RunState::Running);
            to_spawn.push((run_id, entry.spec.clone(), Arc::clone(&entry.ctl)));
            table.active += 1;
        }
    }
    for (run_id, spec, ctl) in to_spawn {
        let worker_shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || worker_main(worker_shared, run_id, spec, ctl));
        shared.workers.lock().unwrap().push(handle);
    }
}

fn worker_main(shared: Arc<Shared>, run_id: u64, spec: RunSpec, ctl: Arc<RunCtl>) {
    // Every telemetry event this thread emits (driver spans included)
    // carries the run's id, so one daemon JSONL stream demultiplexes
    // cleanly with `graphrare-trace --run-id`.
    telemetry::set_run_id(Some(run_id));
    let dir = run_dir(&shared.cfg.state_dir, run_id);
    match run_one(&shared, &dir, &spec, &ctl) {
        Ok(final_state) => ctl.set_state(final_state),
        Err(message) => {
            let _ = std::fs::write(dir.join("failed"), &message);
            ctl.fail(message);
            shared.failed_n.fetch_add(1, Ordering::SeqCst);
        }
    }
    telemetry::set_run_id(None);
    shared.table.lock().unwrap().active -= 1;
    schedule(&shared);
}

/// Steps one run to completion (or cancellation/interruption) on the
/// calling thread. The driver is created here and never leaves the
/// thread — [`RareDriver`] is `!Send`.
fn run_one(
    shared: &Arc<Shared>,
    dir: &Path,
    spec: &RunSpec,
    ctl: &RunCtl,
) -> Result<RunState, String> {
    let input = PathBuf::from(&spec.input);
    let graph = io::read_graph(&input).map_err(|e| format!("cannot read {}: {e}", spec.input))?;
    let split = stratified_split(graph.labels(), graph.num_classes(), spec.split_seed);
    let cfg = spec.to_config();

    let mut driver = match persist::latest_checkpoint(dir) {
        Some((step, path)) => {
            telemetry::progress!("resuming from {} (step {step})", path.display());
            persist::resume_driver(&path, &graph, &split, spec.backbone, &cfg)
                .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?
        }
        None => RareDriver::new(&graph, &split, spec.backbone, &cfg),
    };

    let checkpoint = |driver: &RareDriver, done: usize| -> Result<(), String> {
        let path = persist::checkpoint_path(dir, done);
        persist::save_checkpoint(&path, driver)
            .map(|_| ())
            .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
        ctl.last_checkpoint.store(done as u64, Ordering::SeqCst);
        Ok(())
    };

    loop {
        if ctl.cancel.load(Ordering::SeqCst) {
            let _ = std::fs::write(dir.join("cancelled"), b"");
            shared.cancelled_n.fetch_add(1, Ordering::SeqCst);
            return Ok(RunState::Cancelled);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // Park the run resumable: checkpoint at this step boundary
            // unless one is already current.
            let done = driver.step_index();
            if done > 0 && ctl.last_checkpoint.load(Ordering::SeqCst) != done as u64 {
                checkpoint(&driver, done)?;
            }
            return Ok(RunState::Interrupted);
        }
        if spec.paced && ctl.budget.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        // A rewire rejection (corrupt or version-skewed checkpoint state
        // slipping past the restore shape checks) is a per-run failure:
        // the worker reports it and the slot keeps serving other runs,
        // instead of the old hot-path panic taking the thread down.
        let stepped = driver
            .try_step()
            .map_err(|e| format!("rewire engine rejected the run's topology state: {e}"))?;
        if !stepped {
            break;
        }
        let done = driver.step_index();
        ctl.step.store(done as u64, Ordering::SeqCst);
        shared.steps_total.fetch_add(1, Ordering::SeqCst);
        if spec.paced {
            // The worker is the budget's only consumer; grants only add.
            let _ = ctl
                .budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| Some(b.saturating_sub(1)));
        }
        let periodic = shared.cfg.checkpoint_every > 0 && done % shared.cfg.checkpoint_every == 0;
        if ctl.snap_req.swap(false, Ordering::SeqCst) || periodic {
            checkpoint(&driver, done)?;
        }
    }

    let report = driver
        .try_finish()
        .map_err(|e| format!("rewire engine rejected the run's topology state: {e}"))?;
    // The exact CLI `--save-model` path: deterministic bytes, which is
    // what lets the smoke test `cmp` served artifacts against solo runs.
    persist::save_model(&dir.join("result.grrs"), &report)
        .map_err(|e| format!("cannot write result: {e}"))?;
    ctl.step.store(spec.steps, Ordering::SeqCst);
    ctl.best_val_bits.store(report.best_val_acc.to_bits(), Ordering::SeqCst);
    ctl.test_acc_bits.store(report.test_acc.to_bits(), Ordering::SeqCst);
    shared.completed.fetch_add(1, Ordering::SeqCst);
    Ok(RunState::Done)
}

fn info_of(run_id: u64, entry: &RunEntry) -> RunInfo {
    let ctl = &entry.ctl;
    RunInfo {
        run_id,
        state: ctl.state(),
        step: ctl.step.load(Ordering::SeqCst),
        total_steps: entry.spec.steps,
        checkpoint_step: ctl.last_checkpoint.load(Ordering::SeqCst),
        best_val_acc: f64::from_bits(ctl.best_val_bits.load(Ordering::SeqCst)),
        test_acc: f64::from_bits(ctl.test_acc_bits.load(Ordering::SeqCst)),
        error: ctl.error.lock().unwrap().clone(),
    }
}

/// Dispatches one request against the daemon state. Pure with respect
/// to the transport: both the socket loops and in-process tests call
/// this directly.
fn handle_request(shared: &Arc<Shared>, req: Request) -> Response {
    shared.requests.fetch_add(1, Ordering::SeqCst);
    match req {
        Request::SubmitRun(spec) => submit(shared, spec),
        Request::Status(run_id) => {
            with_run(shared, run_id, |id, entry| Response::RunStatus(info_of(id, entry)))
        }
        Request::StepBudget { run_id, steps } => with_run(shared, run_id, |id, entry| {
            if !entry.spec.paced {
                return Response::Error(format!("run {id} is not paced"));
            }
            if entry.ctl.state().is_terminal() {
                return Response::Error(format!("run {id} is {}", entry.ctl.state().name()));
            }
            let mut after = 0;
            let _ = entry.ctl.budget.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                after = b.saturating_add(steps);
                Some(after)
            });
            Response::BudgetGranted { run_id: id, remaining: after }
        }),
        Request::Snapshot(run_id) => with_run(shared, run_id, |id, entry| {
            if entry.ctl.state().is_terminal() {
                return Response::Error(format!("run {id} is {}", entry.ctl.state().name()));
            }
            entry.ctl.snap_req.store(true, Ordering::SeqCst);
            Response::SnapshotAck {
                run_id: id,
                checkpoint_step: entry.ctl.last_checkpoint.load(Ordering::SeqCst),
            }
        }),
        Request::Cancel(run_id) => cancel(shared, run_id),
        Request::FetchResult(run_id) => {
            let state_dir = shared.cfg.state_dir.clone();
            with_run(shared, run_id, |id, entry| {
                if entry.ctl.state() != RunState::Done {
                    return Response::Error(format!(
                        "run {id} is {}, not done",
                        entry.ctl.state().name()
                    ));
                }
                match std::fs::read(run_dir(&state_dir, id).join("result.grrs")) {
                    Ok(artifact) => Response::RunResult { run_id: id, artifact },
                    Err(e) => Response::Error(format!("run {id}: cannot read result: {e}")),
                }
            })
        }
        Request::ListRuns => {
            let table = shared.table.lock().unwrap();
            Response::RunList(table.runs.iter().map(|(&id, entry)| info_of(id, entry)).collect())
        }
        Request::ServerStats => {
            let (active, queued) = {
                let table = shared.table.lock().unwrap();
                (table.active as u64, table.queue.len() as u64)
            };
            Response::Stats(StatsReport {
                active,
                queued,
                submitted: shared.submitted.load(Ordering::SeqCst),
                completed: shared.completed.load(Ordering::SeqCst),
                failed: shared.failed_n.load(Ordering::SeqCst),
                cancelled: shared.cancelled_n.load(Ordering::SeqCst),
                steps_total: shared.steps_total.load(Ordering::SeqCst),
                requests: shared.requests.load(Ordering::SeqCst),
                counters: telemetry::snapshot().counters,
            })
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::ShuttingDown
        }
    }
}

fn with_run(
    shared: &Arc<Shared>,
    run_id: u64,
    f: impl FnOnce(u64, &RunEntry) -> Response,
) -> Response {
    let table = shared.table.lock().unwrap();
    match table.runs.get(&run_id) {
        Some(entry) => f(run_id, entry),
        None => Response::Error(format!("no such run {run_id}")),
    }
}

fn submit(shared: &Arc<Shared>, spec: RunSpec) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::ShuttingDown;
    }
    if let Err(why) = spec.validate() {
        return Response::Error(format!("invalid run spec: {why}"));
    }
    let run_id = {
        let mut table = shared.table.lock().unwrap();
        if table.active >= shared.cfg.max_runs && table.queue.len() >= shared.cfg.max_queue {
            return Response::Busy {
                active: table.active as u64,
                queued: table.queue.len() as u64,
            };
        }
        let run_id = table.next_id;
        let dir = run_dir(&shared.cfg.state_dir, run_id);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            return Response::Error(format!("cannot create {}: {e}", dir.display()));
        }
        if let Err(e) = write_spec(&dir, &spec) {
            return Response::Error(format!("cannot persist spec: {e}"));
        }
        table.next_id += 1;
        let ctl = Arc::new(RunCtl::new(RunState::Queued));
        table.runs.insert(run_id, RunEntry { spec, ctl });
        table.queue.push_back(run_id);
        run_id
    };
    shared.submitted.fetch_add(1, Ordering::SeqCst);
    schedule(shared);
    Response::Submitted(run_id)
}

fn cancel(shared: &Arc<Shared>, run_id: u64) -> Response {
    let state_dir = shared.cfg.state_dir.clone();
    let mut table = shared.table.lock().unwrap();
    let Some(entry) = table.runs.get(&run_id) else {
        return Response::Error(format!("no such run {run_id}"));
    };
    match entry.ctl.state() {
        RunState::Queued => {
            entry.ctl.set_state(RunState::Cancelled);
            let _ = std::fs::write(run_dir(&state_dir, run_id).join("cancelled"), b"");
            shared.cancelled_n.fetch_add(1, Ordering::SeqCst);
            table.queue.retain(|&id| id != run_id);
            Response::Cancelled(run_id)
        }
        RunState::Running | RunState::Interrupted => {
            // Interrupted runs re-queue on restart, so a persisted
            // cancel must stop them then too.
            entry.ctl.cancel.store(true, Ordering::SeqCst);
            if entry.ctl.state() == RunState::Interrupted {
                entry.ctl.set_state(RunState::Cancelled);
                let _ = std::fs::write(run_dir(&state_dir, run_id).join("cancelled"), b"");
                shared.cancelled_n.fetch_add(1, Ordering::SeqCst);
            }
            Response::Cancelled(run_id)
        }
        terminal => Response::Error(format!("run {run_id} is already {}", terminal.name())),
    }
}

/// Accepts connections until shutdown, handing each to a detached
/// handler thread.
fn accept_loop<S, F>(shared: Arc<Shared>, mut accept: F)
where
    S: std::io::Read + std::io::Write + SetTimeout + Send + 'static,
    F: FnMut() -> std::io::Result<S>,
{
    while !shared.shutdown.load(Ordering::SeqCst) {
        match accept() {
            Ok(stream) => {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || handle_connection(shared, stream));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Read-timeout capability shared by unix and TCP streams.
trait SetTimeout {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()>;
}

impl SetTimeout for std::os::unix::net::UnixStream {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.set_read_timeout(Some(Duration::from_millis(ms)))
    }
}

impl SetTimeout for std::net::TcpStream {
    fn set_read_timeout_ms(&self, ms: u64) -> std::io::Result<()> {
        self.set_read_timeout(Some(Duration::from_millis(ms)))
    }
}

/// Serves one connection: request frames in, response frames out.
/// Payload-level corruption answers with a typed `Error` response;
/// frame-level corruption drops the connection. Neither panics.
fn handle_connection<S>(shared: Arc<Shared>, mut stream: S)
where
    S: std::io::Read + std::io::Write + SetTimeout,
{
    // The timeout bounds how long an idle connection can pin this
    // thread once a shutdown starts.
    let _ = stream.set_read_timeout_ms(100);
    loop {
        match proto::read_frame(&mut stream) {
            Ok(FrameRead::Frame(kind, payload)) => {
                let resp = match Request::decode(kind, &payload) {
                    Ok(req) => handle_request(&shared, req),
                    Err(e) => Response::Error(format!("bad request: {e}")),
                };
                if proto::write_response(&mut stream, &resp).is_err() {
                    break;
                }
            }
            Ok(FrameRead::Eof) => break,
            Ok(FrameRead::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            // Bad magic / version / CRC / truncation: the stream can no
            // longer be framed, so drop it.
            Err(_) => break,
        }
    }
    let _ = stream.flush();
}
