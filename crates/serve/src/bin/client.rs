//! `graphrare-client` — command-line client for the serving daemon.
//!
//! ```text
//! graphrare-client --connect unix:PATH|tcp:HOST:PORT <command> [args]
//!
//! commands:
//!   submit --input PREFIX [--backbone gcn|sage|gat|h2gcn|mlp]
//!          [--lambda F] [--steps N] [--seed N] [--split-seed N]
//!          [--k-cap N] [--algo ppo|a2c] [--threads N] [--paced]
//!          [--rewirer ppo|dhgr|reference|none]
//!                              the `graphrare` CLI's run flags and
//!                              defaults, plus --paced
//!   status   RUN_ID
//!   watch    RUN_ID            poll until the run reaches a terminal state
//!   result   RUN_ID --out PATH write the model artifact bytes to PATH
//!   budget   RUN_ID STEPS      grant a paced run more steps
//!   snapshot RUN_ID            force a checkpoint at the next step
//!   cancel   RUN_ID
//!   list
//!   stats
//!   shutdown
//! ```
//!
//! Output on stdout is machine-parseable `key=value` lines; progress
//! chatter goes to stderr. Exit code 0 on success, 1 on any daemon-side
//! error (including `busy`), 2 on usage errors.

use std::process::ExitCode;
use std::time::Duration;

use graphrare_serve::{Connection, Listen, Request, Response, RunInfo, RunSpec, RunState};

fn usage() -> ! {
    eprintln!(
        "usage: graphrare-client --connect unix:PATH|tcp:HOST:PORT <command>\n\
         commands: submit status watch result budget snapshot cancel list stats shutdown\n\
         (see crate docs for per-command flags)"
    );
    std::process::exit(2);
}

fn fail(message: &str) -> ExitCode {
    eprintln!("{message}");
    ExitCode::FAILURE
}

fn print_info(info: &RunInfo) {
    println!("run_id={}", info.run_id);
    println!("state={}", info.state.name());
    println!("step={}", info.step);
    println!("total_steps={}", info.total_steps);
    println!("checkpoint_step={}", info.checkpoint_step);
    println!("best_val_acc={:.6}", info.best_val_acc);
    println!("test_acc={:.6}", info.test_acc);
    if !info.error.is_empty() {
        println!("error={}", info.error);
    }
}

/// Prints non-OK daemon responses and converts them to an exit code.
fn unexpected(resp: Response) -> ExitCode {
    match resp {
        Response::Error(message) => fail(&format!("daemon error: {message}")),
        Response::Busy { active, queued } => {
            println!("busy=1");
            fail(&format!("daemon busy: {active} active, {queued} queued"))
        }
        Response::ShuttingDown => fail("daemon is shutting down"),
        other => fail(&format!("unexpected response {other:?}")),
    }
}

/// The shared run flags ([`RunSpec::parse_flag`], with the CLI's
/// defaults) plus `--paced`.
fn parse_spec(args: &[String]) -> Result<RunSpec, String> {
    let mut spec = RunSpec::default();
    let mut args = args.iter().cloned();
    while let Some(flag) = args.next() {
        if spec.parse_flag(&flag, &mut args)? {
            continue;
        }
        match flag.as_str() {
            "--paced" => spec.paced = true,
            other => return Err(format!("unknown submit flag {other}")),
        }
    }
    if spec.input.is_empty() {
        return Err("submit requires --input".into());
    }
    Ok(spec)
}

fn run_id_arg(args: &[String]) -> Result<u64, String> {
    let id = args.first().ok_or("missing RUN_ID argument")?;
    match id.parse() {
        Ok(id) if id > 0 => Ok(id),
        _ => Err(format!("RUN_ID {id:?} must be a positive integer")),
    }
}

/// A command line, parsed before any connection is made: the request to
/// send, and what to do with its answer.
enum Command {
    /// Send the request once and print its answer.
    Once(Request),
    /// Poll the run's status until it reaches a terminal state.
    Watch(u64),
    /// Fetch the run's result and write its artifact to the path.
    Result(u64, String),
}

/// Parses `command` and its arguments; `Ok(None)` for an unknown command.
fn parse_command(command: &str, args: &[String]) -> Result<Option<Command>, String> {
    Ok(Some(match command {
        "submit" => Command::Once(Request::SubmitRun(parse_spec(args)?)),
        "status" => Command::Once(Request::Status(run_id_arg(args)?)),
        "watch" => Command::Watch(run_id_arg(args)?),
        "result" => {
            let id = run_id_arg(args)?;
            match (args.get(1).map(String::as_str), args.get(2)) {
                (Some("--out"), Some(path)) => Command::Result(id, path.clone()),
                (Some("--out"), None) => return Err("missing value for --out".into()),
                _ => return Err("result requires RUN_ID --out PATH".into()),
            }
        }
        "budget" => {
            let run_id = run_id_arg(args)?;
            let steps = args.get(1).ok_or("budget requires RUN_ID STEPS")?;
            let steps = steps.parse().map_err(|_| format!("invalid value {steps:?} for STEPS"))?;
            Command::Once(Request::StepBudget { run_id, steps })
        }
        "snapshot" => Command::Once(Request::Snapshot(run_id_arg(args)?)),
        "cancel" => Command::Once(Request::Cancel(run_id_arg(args)?)),
        "list" => Command::Once(Request::ListRuns),
        "stats" => Command::Once(Request::ServerStats),
        "shutdown" => Command::Once(Request::Shutdown),
        _ => return Ok(None),
    }))
}

/// Prints the daemon's answer to `req` and converts it to an exit code.
fn answer(req: &Request, resp: Response) -> ExitCode {
    match (req, resp) {
        (Request::SubmitRun(_), Response::Submitted(run_id)) => println!("run_id={run_id}"),
        (Request::Status(_), Response::RunStatus(info)) => print_info(&info),
        (Request::StepBudget { .. }, Response::BudgetGranted { run_id, remaining }) => {
            println!("run_id={run_id}");
            println!("budget_remaining={remaining}");
        }
        (Request::Snapshot(_), Response::SnapshotAck { run_id, checkpoint_step }) => {
            println!("run_id={run_id}");
            println!("checkpoint_step={checkpoint_step}");
        }
        (Request::Cancel(_), Response::Cancelled(run_id)) => {
            println!("run_id={run_id}");
            println!("cancelled=1");
        }
        (Request::ListRuns, Response::RunList(infos)) => {
            println!("runs={}", infos.len());
            for info in infos {
                println!(
                    "run {} state={} step={}/{} test_acc={:.6}",
                    info.run_id,
                    info.state.name(),
                    info.step,
                    info.total_steps,
                    info.test_acc
                );
            }
        }
        (Request::ServerStats, Response::Stats(stats)) => {
            println!("active={}", stats.active);
            println!("queued={}", stats.queued);
            println!("submitted={}", stats.submitted);
            println!("completed={}", stats.completed);
            println!("failed={}", stats.failed);
            println!("cancelled={}", stats.cancelled);
            println!("steps_total={}", stats.steps_total);
            println!("requests={}", stats.requests);
            for (name, value) in &stats.counters {
                println!("counter.{name}={value}");
            }
        }
        (Request::Shutdown, Response::ShuttingDown) => println!("shutting_down=1"),
        (_, other) => return unexpected(other),
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut connect = None;
    let mut rest = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--connect" {
            i += 1;
            let Some(endpoint) = argv.get(i) else { usage() };
            match Listen::parse(endpoint) {
                Ok(listen) => connect = Some(listen),
                Err(e) => {
                    eprintln!("{e}");
                    usage()
                }
            }
        } else {
            rest.push(argv[i].clone());
        }
        i += 1;
    }
    let (Some(endpoint), Some(command)) = (connect, rest.first()) else { usage() };
    // Usage errors exit 2 whether or not a daemon is listening.
    let command = match parse_command(command, &rest[1..]) {
        Ok(Some(command)) => command,
        Ok(None) => {
            eprintln!("unknown command {command}");
            usage()
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let mut conn = match Connection::connect(&endpoint) {
        Ok(conn) => conn,
        Err(e) => return fail(&format!("cannot connect: {e}")),
    };
    let mut request = |req: &Request| -> Result<Response, String> {
        conn.request(req).map_err(|e| format!("request failed: {e}"))
    };

    match command {
        Command::Once(req) => match request(&req) {
            Ok(resp) => answer(&req, resp),
            Err(e) => fail(&e),
        },
        // Poll until terminal; each status round-trip reuses the same
        // connection.
        Command::Watch(id) => loop {
            match request(&Request::Status(id)) {
                Ok(Response::RunStatus(info)) => {
                    eprintln!(
                        "run {} {} step {}/{}",
                        info.run_id,
                        info.state.name(),
                        info.step,
                        info.total_steps
                    );
                    if info.state.is_terminal() {
                        print_info(&info);
                        break if info.state == RunState::Done {
                            ExitCode::SUCCESS
                        } else {
                            ExitCode::FAILURE
                        };
                    }
                }
                Ok(other) => break unexpected(other),
                Err(e) => break fail(&e),
            }
            std::thread::sleep(Duration::from_millis(150));
        },
        Command::Result(id, path) => match request(&Request::FetchResult(id)) {
            Ok(Response::RunResult { run_id, artifact }) => {
                if let Err(e) = std::fs::write(&path, &artifact) {
                    return fail(&format!("cannot write {path}: {e}"));
                }
                println!("run_id={run_id}");
                println!("artifact_bytes={}", artifact.len());
                println!("artifact_path={path}");
                ExitCode::SUCCESS
            }
            Ok(other) => unexpected(other),
            Err(e) => fail(&e),
        },
    }
}
