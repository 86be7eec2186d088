//! Served runs: an in-process `graphrare-serve` daemon on a unix socket,
//! driven over the real frame protocol by closed-loop clients.

use std::path::Path;
use std::time::{Duration, Instant};

use graphrare_serve::{
    Connection, Listen, Request, Response, RunSpec, RunState, ServeConfig, Server,
};

/// Pause between two Status polls of one client.
const POLL: Duration = Duration::from_millis(2);

/// A daemon with `max_runs` worker slots and the default checkpoint
/// cadence, state under `dir`, socket at `dir/d.sock`.
pub fn start(dir: &Path, max_runs: usize) -> Result<(Server, Listen), String> {
    let mut cfg = ServeConfig::new(dir.join("state"));
    cfg.max_runs = max_runs;
    let listen = Listen::Unix(dir.join("d.sock"));
    let server = Server::start(cfg, std::slice::from_ref(&listen))?;
    Ok((server, listen))
}

pub fn stop(server: Server) {
    server.request_shutdown();
    server.join();
}

pub fn connect(listen: &Listen) -> Result<Connection, String> {
    Connection::connect(listen).map_err(|e| format!("connect: {e}"))
}

fn submit(conn: &mut Connection, spec: &RunSpec) -> Result<u64, String> {
    match conn.request(&Request::SubmitRun(spec.clone())) {
        Ok(Response::Submitted(id)) => Ok(id),
        other => Err(format!("submit answered {other:?}")),
    }
}

/// `Server::start` on a fresh state directory, through the first
/// accepted submit, until Status shows the run's first step done: the
/// daemon's own start plus the run's `RareDriver::new`. The submit alone
/// is a few fsync-bound milliseconds that swing with the disk's load.
/// The daemon is drained afterwards, parking the run.
pub fn setup_cycle(dir: &Path, spec: &RunSpec) -> Result<f64, String> {
    let t = Instant::now();
    let (server, listen) = start(dir, 2)?;
    let outcome = connect(&listen).and_then(|mut conn| {
        let id = submit(&mut conn, spec)?;
        loop {
            match conn.request(&Request::Status(id)) {
                Ok(Response::RunStatus(info)) if info.step >= 1 => return Ok(t.elapsed()),
                Ok(Response::RunStatus(info)) if !info.state.is_terminal() => {}
                other => return Err(format!("status of run {id} answered {other:?}")),
            }
            std::thread::sleep(POLL);
        }
    });
    stop(server);
    outcome.map(|d| d.as_secs_f64())
}

/// One served run as its client saw it.
pub struct ServedRun {
    /// Index into the spec pool the run was submitted from.
    pub spec: usize,
    pub submit_s: f64,
    /// Submit answered until a Status poll first shows the run Running.
    pub queue_wait_s: f64,
    /// Submit until the result is fetched.
    pub turnaround_s: f64,
    pub test_acc: f64,
    pub artifact: Vec<u8>,
    pub status_rtt_s: Vec<f64>,
}

/// Submits `spec`, polls Status until Done, fetches the artifact. A
/// `Busy`/`Error` answer or a `Failed`/`Cancelled` run is an error.
pub fn serve_one(conn: &mut Connection, spec: &RunSpec, index: usize) -> Result<ServedRun, String> {
    let t0 = Instant::now();
    let id = submit(conn, spec)?;
    let submitted = Instant::now();
    let submit_s = submitted.duration_since(t0).as_secs_f64();
    let mut queue_wait_s = None;
    let mut status_rtt_s = Vec::new();
    let test_acc = loop {
        let t = Instant::now();
        let resp = conn.request(&Request::Status(id));
        status_rtt_s.push(t.elapsed().as_secs_f64());
        let info = match resp {
            Ok(Response::RunStatus(info)) => info,
            other => return Err(format!("status of run {id} answered {other:?}")),
        };
        match info.state {
            RunState::Queued => {}
            RunState::Running => {
                queue_wait_s.get_or_insert(submitted.elapsed().as_secs_f64());
            }
            RunState::Done => {
                queue_wait_s.get_or_insert(submitted.elapsed().as_secs_f64());
                break info.test_acc;
            }
            other => return Err(format!("run {id} ended {}: {}", other.name(), info.error)),
        }
        std::thread::sleep(POLL);
    };
    let artifact = match conn.request(&Request::FetchResult(id)) {
        Ok(Response::RunResult { artifact, .. }) => artifact,
        other => return Err(format!("fetch of run {id} answered {other:?}")),
    };
    Ok(ServedRun {
        spec: index,
        submit_s,
        queue_wait_s: queue_wait_s.unwrap_or(f64::NAN),
        turnaround_s: t0.elapsed().as_secs_f64(),
        test_acc,
        artifact,
        status_rtt_s,
    })
}

/// What a closed-loop window produced.
pub struct Window {
    /// Every client's runs, failures included, in completion order.
    pub runs: Vec<Result<ServedRun, String>>,
    /// First submit to last fetch.
    pub wall_s: f64,
    /// DRL steps the daemon completed in the window.
    pub steps: u64,
}

/// `clients` closed-loop clients on their own connections. Client `c`
/// submits from `pool[c * per_client ..]`, cycling through its share,
/// and starts a new run only while `seconds` have not passed; the
/// window ends when the last in-flight run is fetched.
pub fn closed_loop(listen: &Listen, pool: &[RunSpec], clients: usize, seconds: f64) -> Window {
    let per_client = pool.len() / clients;
    let t0 = Instant::now();
    let mut runs = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut conn = match connect(listen) {
                        Ok(conn) => conn,
                        Err(e) => return vec![Err(e)],
                    };
                    let mut i = 0;
                    while t0.elapsed().as_secs_f64() < seconds {
                        let index = c * per_client + i % per_client;
                        let run = serve_one(&mut conn, &pool[index], index);
                        let failed = run.is_err();
                        out.push(run);
                        if failed {
                            break;
                        }
                        i += 1;
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(client_runs) => runs.extend(client_runs),
                Err(_) => runs.push(Err("client thread panicked".into())),
            }
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let steps = connect(listen)
        .ok()
        .and_then(|mut conn| match conn.request(&Request::ServerStats) {
            Ok(Response::Stats(stats)) => Some(stats.steps_total),
            _ => None,
        })
        .unwrap_or(0);
    Window { runs, wall_s, steps }
}
