//! The serving contract, end to end: concurrent served runs are
//! bit-identical to solo runs, admission control refuses overload with
//! a typed `Busy`, corrupt connections are dropped without harming the
//! daemon, a shutdown/restart cycle resumes interrupted runs from their
//! checkpoints to the same bits, a paced run granted exactly its steps
//! finishes, a bad input bundle fails its own run with a typed error and
//! frees its slot, and a daemon starts over the
//! socket files a killed one left behind and over the run directory an
//! unfinished submit left behind.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use graphrare::{persist, RewirerKind, RlAlgo};
use graphrare_datasets::{generate_spec, stratified_split, DatasetSpec};
use graphrare_gnn::Backbone;
use graphrare_graph::io;
use graphrare_serve::{
    Connection, Listen, Request, Response, RunSpec, RunState, ServeConfig, Server,
};

fn fixture_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphrare-serve-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_graph() -> graphrare_graph::Graph {
    generate_spec(
        &DatasetSpec {
            name: "serve",
            num_nodes: 40,
            num_edges: 90,
            feat_dim: 12,
            num_classes: 3,
            homophily: 0.2,
            degree_exponent: 0.3,
            feature_signal: 0.8,
            feature_density: 0.08,
        },
        1,
    )
}

fn spec(input: &Path, seed: u64, steps: u64, paced: bool) -> RunSpec {
    RunSpec {
        input: input.to_str().unwrap().to_string(),
        backbone: Backbone::Gcn,
        steps,
        seed,
        split_seed: 0,
        k_cap: 10,
        lambda: 1.0,
        algo: RlAlgo::Ppo,
        threads: 1,
        paced,
        rewirer: RewirerKind::Ppo,
    }
}

/// Runs the same spec solo (no daemon) through the library and the
/// deterministic `save_model` writer; returns the artifact bytes.
fn solo_artifact(dir: &Path, run_spec: &RunSpec) -> Vec<u8> {
    let graph = io::read_graph(&PathBuf::from(&run_spec.input)).unwrap();
    let split = stratified_split(graph.labels(), graph.num_classes(), run_spec.split_seed);
    let cfg = run_spec.to_config();
    let report = graphrare::run(&graph, &split, run_spec.backbone, &cfg).unwrap();
    let path = dir.join(format!("solo-{}.grrs", run_spec.seed));
    persist::save_model(&path, &report).unwrap();
    std::fs::read(&path).unwrap()
}

/// Polls the daemon until `run_id` reaches a terminal state.
fn wait_terminal(server: &Server, run_id: u64) -> RunState {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match server.handle(Request::Status(run_id)) {
            Response::RunStatus(info) => {
                if info.state.is_terminal() {
                    return info.state;
                }
            }
            other => panic!("status failed: {other:?}"),
        }
        assert!(Instant::now() < deadline, "run {run_id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn submit_ok(server: &Server, run_spec: RunSpec) -> u64 {
    match server.handle(Request::SubmitRun(run_spec)) {
        Response::Submitted(run_id) => run_id,
        other => panic!("submit failed: {other:?}"),
    }
}

fn fetch_artifact(server: &Server, run_id: u64) -> Vec<u8> {
    match server.handle(Request::FetchResult(run_id)) {
        Response::RunResult { artifact, .. } => artifact,
        other => panic!("fetch failed: {other:?}"),
    }
}

#[test]
fn concurrent_served_runs_are_bit_identical_to_solo_runs() {
    let dir = fixture_dir("identity");
    let input = dir.join("toy");
    io::write_graph(&small_graph(), &input).unwrap();
    let socket = dir.join("daemon.sock");

    let mut cfg = ServeConfig::new(dir.join("state"));
    cfg.max_runs = 2;
    let server = Server::start(cfg, &[Listen::Unix(socket.clone())]).unwrap();

    // Submit two different-seed runs over the real socket so the whole
    // frame path is exercised, then watch both to completion.
    let mut conn = Connection::connect(&Listen::Unix(socket.clone())).unwrap();
    let mut ids = Vec::new();
    for seed in [5, 9] {
        match conn.request(&Request::SubmitRun(spec(&input, seed, 8, false))).unwrap() {
            Response::Submitted(run_id) => ids.push(run_id),
            other => panic!("submit over socket failed: {other:?}"),
        }
    }
    for &run_id in &ids {
        assert_eq!(wait_terminal(&server, run_id), RunState::Done);
    }

    // Served artifacts (fetched over the socket) must equal the solo
    // CLI-equivalent bytes exactly.
    for (&run_id, seed) in ids.iter().zip([5, 9]) {
        let served = match conn.request(&Request::FetchResult(run_id)).unwrap() {
            Response::RunResult { artifact, .. } => artifact,
            other => panic!("fetch over socket failed: {other:?}"),
        };
        let solo = solo_artifact(&dir, &spec(&input, seed, 8, false));
        assert_eq!(served, solo, "seed {seed}: served artifact differs from solo run");
    }

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn admission_control_refuses_overload_with_busy() {
    let dir = fixture_dir("busy");
    let input = dir.join("toy");
    io::write_graph(&small_graph(), &input).unwrap();

    let mut cfg = ServeConfig::new(dir.join("state"));
    cfg.max_runs = 1;
    cfg.max_queue = 2;
    let server = Server::start(cfg, &[]).unwrap();

    // Paced runs with zero budget hold their slots indefinitely, so
    // capacity fills deterministically: 1 active + 2 queued.
    for _ in 0..3 {
        submit_ok(&server, spec(&input, 1, 8, true));
    }
    match server.handle(Request::SubmitRun(spec(&input, 1, 8, true))) {
        Response::Busy { active, queued } => {
            assert_eq!(active, 1);
            assert_eq!(queued, 2);
        }
        other => panic!("expected Busy, got {other:?}"),
    }

    // Cancelling a queued run frees a queue slot; the next submit is
    // admitted again.
    match server.handle(Request::Cancel(2)) {
        Response::Cancelled(2) => {}
        other => panic!("cancel failed: {other:?}"),
    }
    submit_ok(&server, spec(&input, 1, 8, true));

    // An invalid spec is a typed error, not a panic or an admission.
    let mut bad = spec(&input, 1, 8, false);
    bad.steps = 0;
    assert!(matches!(server.handle(Request::SubmitRun(bad)), Response::Error(_)));

    // Unknown run ids are typed errors across the board.
    assert!(matches!(server.handle(Request::Status(99)), Response::Error(_)));
    assert!(matches!(server.handle(Request::FetchResult(99)), Response::Error(_)));
    assert!(matches!(server.handle(Request::Cancel(99)), Response::Error(_)));

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupt_connection_is_dropped_and_daemon_survives() {
    let dir = fixture_dir("corrupt");
    let socket = dir.join("daemon.sock");
    let bind_path = dir.join("daemon.sock.tmp");
    // Leftovers of a killed daemon at both paths must not block start,
    // and the socket is renamed from its bind path once it listens.
    std::fs::write(&socket, b"stale").unwrap();
    std::fs::write(&bind_path, b"stale").unwrap();
    let server =
        Server::start(ServeConfig::new(dir.join("state")), &[Listen::Unix(socket.clone())])
            .unwrap();
    assert!(!bind_path.exists(), "the bind path must be renamed onto the socket path");

    // Garbage bytes: the daemon cannot frame them, drops the
    // connection, and keeps serving.
    {
        let mut raw = std::os::unix::net::UnixStream::connect(&socket).unwrap();
        raw.write_all(b"not a frame at all, definitely not GRSV").unwrap();
        raw.flush().unwrap();
        // The daemon closes its end; our next read sees EOF.
        let mut buf = [0u8; 16];
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let n = std::io::Read::read(&mut raw, &mut buf).unwrap_or(0);
        assert_eq!(n, 0, "daemon should close a corrupt connection");
    }

    // A fresh, well-formed connection still works afterwards.
    let mut conn = Connection::connect(&Listen::Unix(socket)).unwrap();
    match conn.request(&Request::ServerStats).unwrap() {
        Response::Stats(stats) => assert_eq!(stats.submitted, 0),
        other => panic!("stats failed after corrupt peer: {other:?}"),
    }

    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn shutdown_checkpoints_and_restart_resumes_to_identical_bits() {
    let dir = fixture_dir("resume");
    let input = dir.join("toy");
    io::write_graph(&small_graph(), &input).unwrap();
    let state = dir.join("state");
    let run_spec = spec(&input, 13, 10, true);

    // First daemon lifetime: run 6 of 10 steps (paced budget), then
    // shut down mid-run — the worker checkpoints and parks the run.
    {
        let mut cfg = ServeConfig::new(&state);
        cfg.checkpoint_every = 2;
        let server = Server::start(cfg, &[]).unwrap();
        let run_id = submit_ok(&server, run_spec.clone());
        assert_eq!(run_id, 1);
        match server.handle(Request::StepBudget { run_id, steps: 6 }) {
            Response::BudgetGranted { remaining, .. } => assert_eq!(remaining, 6),
            other => panic!("budget failed: {other:?}"),
        }
        // Wait until the budget is consumed and the run stalls at step 6.
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            match server.handle(Request::Status(run_id)) {
                Response::RunStatus(info) if info.step == 6 => break,
                Response::RunStatus(_) => {}
                other => panic!("status failed: {other:?}"),
            }
            assert!(Instant::now() < deadline, "run never reached step 6");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(matches!(server.handle(Request::Shutdown), Response::ShuttingDown));
        // Draining daemons refuse new work.
        assert!(matches!(
            server.handle(Request::SubmitRun(run_spec.clone())),
            Response::ShuttingDown
        ));
        server.request_shutdown();
        server.join();
    }

    // The parked run left a checkpoint at its stall point.
    assert!(state.join("runs").join("000001").join("step-000006.grrs").exists());

    // Second lifetime over the same state directory: the run comes
    // back queued, resumes from the checkpoint, and finishes once
    // granted the remaining budget.
    {
        let server = Server::start(ServeConfig::new(&state), &[]).unwrap();
        match server.handle(Request::Status(1)) {
            Response::RunStatus(info) => {
                assert!(
                    matches!(info.state, RunState::Queued | RunState::Running),
                    "recovered state {:?}",
                    info.state
                );
                assert_eq!(info.checkpoint_step, 6);
            }
            other => panic!("status after restart failed: {other:?}"),
        }
        match server.handle(Request::StepBudget { run_id: 1, steps: 10 }) {
            Response::BudgetGranted { .. } => {}
            other => panic!("budget after restart failed: {other:?}"),
        }
        assert_eq!(wait_terminal(&server, 1), RunState::Done);

        // The interrupted-and-resumed run produces the same bytes as an
        // uninterrupted solo run of the same spec.
        let served = fetch_artifact(&server, 1);
        let solo = solo_artifact(&dir, &run_spec);
        assert_eq!(served, solo, "resumed artifact differs from uninterrupted solo run");

        server.request_shutdown();
        server.join();
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_paced_run_granted_exactly_its_steps_finishes() {
    let dir = fixture_dir("exact-budget");
    let input = dir.join("toy");
    io::write_graph(&small_graph(), &input).unwrap();
    let server = Server::start(ServeConfig::new(dir.join("state")), &[]).unwrap();
    let run_spec = spec(&input, 21, 2, true);
    let run_id = submit_ok(&server, run_spec.clone());
    match server.handle(Request::StepBudget { run_id, steps: 2 }) {
        Response::BudgetGranted { remaining, .. } => assert_eq!(remaining, 2),
        other => panic!("budget failed: {other:?}"),
    }
    // The second granted step is the run's last: the worker finishes the
    // run with no budget left, without waiting for a grant it cannot use.
    assert_eq!(wait_terminal(&server, run_id), RunState::Done);
    assert_eq!(fetch_artifact(&server, run_id), solo_artifact(&dir, &run_spec));
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupted_checkpoint_fails_the_run_but_daemon_keeps_serving() {
    let dir = fixture_dir("corrupt-ckpt");
    let input = dir.join("toy");
    io::write_graph(&small_graph(), &input).unwrap();
    let state = dir.join("state");
    let run_spec = spec(&input, 21, 10, true);

    // First lifetime: park a paced run at step 6 with a checkpoint, like
    // the resume test.
    {
        let mut cfg = ServeConfig::new(&state);
        cfg.checkpoint_every = 2;
        let server = Server::start(cfg, &[]).unwrap();
        let run_id = submit_ok(&server, run_spec.clone());
        match server.handle(Request::StepBudget { run_id, steps: 6 }) {
            Response::BudgetGranted { .. } => {}
            other => panic!("budget failed: {other:?}"),
        }
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            match server.handle(Request::Status(run_id)) {
                Response::RunStatus(info) if info.step == 6 => break,
                Response::RunStatus(_) => {}
                other => panic!("status failed: {other:?}"),
            }
            assert!(Instant::now() < deadline, "run never reached step 6");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.request_shutdown();
        server.join();
    }

    // Corrupt the parked checkpoint's payload between lifetimes.
    let ckpt = state.join("runs").join("000001").join("step-000006.grrs");
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let (mid, end) = (bytes.len() / 2, (bytes.len() / 2 + 64).min(bytes.len()));
    for b in &mut bytes[mid..end] {
        *b ^= 0xA5;
    }
    std::fs::write(&ckpt, &bytes).unwrap();

    // Second lifetime: the resume must surface as a *failed run* — not a
    // worker panic that leaks the slot for the daemon's lifetime.
    {
        let mut cfg = ServeConfig::new(&state);
        cfg.max_runs = 1; // a leaked slot would deadlock the daemon below
        let server = Server::start(cfg, &[]).unwrap();
        // Paced run with no budget grant: it fails in restore before
        // stepping, so no budget is needed; grant anyway to avoid any
        // dependence on where the failure lands.
        match server.handle(Request::StepBudget { run_id: 1, steps: 10 }) {
            Response::BudgetGranted { .. } => {}
            other => panic!("budget after restart failed: {other:?}"),
        }
        assert_eq!(wait_terminal(&server, 1), RunState::Failed);
        match server.handle(Request::Status(1)) {
            Response::RunStatus(info) => {
                assert!(!info.error.is_empty(), "failed run must carry its error message");
            }
            other => panic!("status of failed run: {other:?}"),
        }

        // The slot is free again: a fresh run on the same daemon goes all
        // the way to Done.
        let fresh = submit_ok(&server, spec(&input, 3, 4, false));
        assert_eq!(wait_terminal(&server, fresh), RunState::Done);
        match server.handle(Request::ServerStats) {
            Response::Stats(stats) => {
                assert!(stats.failed >= 1, "failure must be counted: {stats:?}");
            }
            other => panic!("stats failed: {other:?}"),
        }

        server.request_shutdown();
        server.join();
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn an_unfinished_submit_does_not_stop_a_restart() {
    let dir = fixture_dir("unfinished-submit");
    let input = dir.join("toy");
    io::write_graph(&small_graph(), &input).unwrap();
    let state = dir.join("state");
    let run_dir = state.join("runs").join("000001");
    // A daemon killed between creating a run's directory and making its
    // spec durable leaves the directory holding only the spec's temp
    // file. `Submitted` is sent after the spec is durable, so no client
    // ever got this id.
    std::fs::create_dir_all(&run_dir).unwrap();
    std::fs::write(run_dir.join("spec.grrs.tmp.4242"), b"partial").unwrap();

    let server = Server::start(ServeConfig::new(&state), &[]).unwrap();
    match server.handle(Request::ListRuns) {
        Response::RunList(runs) => assert!(runs.is_empty(), "{runs:?}"),
        other => panic!("list failed: {other:?}"),
    }

    // A submit whose spec cannot be written removes the directory it
    // made: here the spec's path is taken by a directory.
    std::fs::create_dir_all(run_dir.join("spec.grrs")).unwrap();
    let run_spec = spec(&input, 17, 6, false);
    match server.handle(Request::SubmitRun(run_spec.clone())) {
        Response::Error(e) => assert!(e.contains("cannot persist spec"), "{e}"),
        other => panic!("expected a spec write failure, got {other:?}"),
    }
    assert!(!run_dir.exists(), "a failed submit must not leave its directory behind");

    // The id is free again, and the run it gets matches a solo run.
    let run_id = submit_ok(&server, run_spec.clone());
    assert_eq!(run_id, 1);
    assert_eq!(wait_terminal(&server, run_id), RunState::Done);
    assert_eq!(fetch_artifact(&server, run_id), solo_artifact(&dir, &run_spec));
    server.request_shutdown();
    server.join();

    // A spec that is present but corrupt still refuses start.
    std::fs::write(run_dir.join("spec.grrs"), b"not a container").unwrap();
    match Server::start(ServeConfig::new(&state), &[]) {
        Err(e) => assert!(e.contains("run 1: unreadable spec"), "{e}"),
        Ok(server) => {
            server.request_shutdown();
            server.join();
            panic!("a corrupt spec must refuse start");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Serves a 4-node bundle with the given feature and label files on a
/// one-slot daemon: the run must end `Failed` with an error containing
/// every `error_parts` entry, and a fresh good run must then get the
/// freed slot and finish.
fn bad_bundle_fails_and_frees_its_slot(
    name: &str,
    features: &str,
    labels: &str,
    error_parts: &[&str],
) {
    let dir = fixture_dir(name);
    let bad = dir.join("bad");
    std::fs::write(bad.with_extension("edges"), "0 1\n1 2\n2 3\n").unwrap();
    std::fs::write(bad.with_extension("features"), features).unwrap();
    std::fs::write(bad.with_extension("labels"), labels).unwrap();
    let good = dir.join("toy");
    io::write_graph(&small_graph(), &good).unwrap();

    let mut cfg = ServeConfig::new(dir.join("state"));
    cfg.max_runs = 1; // a leaked slot would deadlock the fresh run below
    let server = Server::start(cfg, &[]).unwrap();
    let run_id = submit_ok(&server, spec(&bad, 1, 4, false));
    assert_eq!(wait_terminal(&server, run_id), RunState::Failed);
    match server.handle(Request::Status(run_id)) {
        Response::RunStatus(info) => {
            for part in error_parts {
                assert!(info.error.contains(part), "error must name {part:?}: {}", info.error);
            }
        }
        other => panic!("status of failed run: {other:?}"),
    }

    // With one slot, the fresh run only starts once the failed run's
    // slot is free again.
    let fresh = submit_ok(&server, spec(&good, 3, 4, false));
    assert_eq!(wait_terminal(&server, fresh), RunState::Done);
    match server.handle(Request::ServerStats) {
        Response::Stats(stats) => assert_eq!(stats.failed, 1, "{stats:?}"),
        other => panic!("stats failed: {other:?}"),
    }
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn out_of_range_label_fails_the_run_and_frees_its_slot() {
    let labels = format!("0\n1\n{}\n0\n", u64::MAX);
    bad_bundle_fails_and_frees_its_slot(
        "bad-label",
        "1 0\n0 1\n1 1\n0 0\n",
        &labels,
        &[&u64::MAX.to_string()],
    );
}

#[test]
fn non_finite_feature_fails_the_run_and_frees_its_slot() {
    bad_bundle_fails_and_frees_its_slot(
        "nan-feature",
        "1 0\n0 NaN\n1 1\n0 0\n",
        "0\n1\n0\n1\n",
        &["features", "line 2", "NaN"],
    );
}

#[test]
fn listen_parse_accepts_and_rejects() {
    assert_eq!(Listen::parse("unix:/tmp/x.sock"), Ok(Listen::Unix(PathBuf::from("/tmp/x.sock"))));
    assert_eq!(Listen::parse("/tmp/x.sock"), Ok(Listen::Unix(PathBuf::from("/tmp/x.sock"))));
    assert_eq!(Listen::parse("tcp:127.0.0.1:7464"), Ok(Listen::Tcp("127.0.0.1:7464".into())));
    assert!(Listen::parse("tcp:nonsense").is_err());
    assert!(Listen::parse("tcp::7464").is_err());
    assert!(Listen::parse("unix:").is_err());
    assert!(Listen::parse("bare-name").is_err());
}
