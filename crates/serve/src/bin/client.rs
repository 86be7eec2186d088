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
    let (Some(endpoint), Some(command)) = (connect, rest.first().cloned()) else { usage() };
    let args = &rest[1..];

    let mut conn = match Connection::connect(&endpoint) {
        Ok(conn) => conn,
        Err(e) => return fail(&format!("cannot connect: {e}")),
    };
    let mut request = |req: &Request| -> Result<Response, String> {
        conn.request(req).map_err(|e| format!("request failed: {e}"))
    };

    let outcome: Result<ExitCode, String> = match command.as_str() {
        "submit" => parse_spec(args).map(|spec| match request(&Request::SubmitRun(spec)) {
            Ok(Response::Submitted(run_id)) => {
                println!("run_id={run_id}");
                ExitCode::SUCCESS
            }
            Ok(other) => unexpected(other),
            Err(e) => fail(&e),
        }),
        "status" => run_id_arg(args).map(|id| match request(&Request::Status(id)) {
            Ok(Response::RunStatus(info)) => {
                print_info(&info);
                ExitCode::SUCCESS
            }
            Ok(other) => unexpected(other),
            Err(e) => fail(&e),
        }),
        "watch" => run_id_arg(args).map(|id|

            // Poll until terminal; each status round-trip reuses the
            // same connection.
            loop {
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
            }),
        "result" => {
            let parsed = run_id_arg(args).and_then(|id| match args.get(1).map(String::as_str) {
                Some("--out") => match args.get(2) {
                    Some(path) => Ok((id, path.clone())),
                    None => Err("missing value for --out".into()),
                },
                _ => Err("result requires RUN_ID --out PATH".into()),
            });
            parsed.map(|(id, path)| match request(&Request::FetchResult(id)) {
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
            })
        }
        "budget" => {
            let parsed = run_id_arg(args).and_then(|id| match args.get(1) {
                Some(steps) => match steps.parse() {
                    Ok(steps) => Ok((id, steps)),
                    Err(_) => Err(format!("invalid value {steps:?} for STEPS")),
                },
                None => Err("budget requires RUN_ID STEPS".into()),
            });
            parsed.map(|(run_id, steps)| match request(&Request::StepBudget { run_id, steps }) {
                Ok(Response::BudgetGranted { run_id, remaining }) => {
                    println!("run_id={run_id}");
                    println!("budget_remaining={remaining}");
                    ExitCode::SUCCESS
                }
                Ok(other) => unexpected(other),
                Err(e) => fail(&e),
            })
        }
        "snapshot" => run_id_arg(args).map(|id| match request(&Request::Snapshot(id)) {
            Ok(Response::SnapshotAck { run_id, checkpoint_step }) => {
                println!("run_id={run_id}");
                println!("checkpoint_step={checkpoint_step}");
                ExitCode::SUCCESS
            }
            Ok(other) => unexpected(other),
            Err(e) => fail(&e),
        }),
        "cancel" => run_id_arg(args).map(|id| match request(&Request::Cancel(id)) {
            Ok(Response::Cancelled(run_id)) => {
                println!("run_id={run_id}");
                println!("cancelled=1");
                ExitCode::SUCCESS
            }
            Ok(other) => unexpected(other),
            Err(e) => fail(&e),
        }),
        "list" => Ok(match request(&Request::ListRuns) {
            Ok(Response::RunList(infos)) => {
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
                ExitCode::SUCCESS
            }
            Ok(other) => unexpected(other),
            Err(e) => fail(&e),
        }),
        "stats" => Ok(match request(&Request::ServerStats) {
            Ok(Response::Stats(stats)) => {
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
                ExitCode::SUCCESS
            }
            Ok(other) => unexpected(other),
            Err(e) => fail(&e),
        }),
        "shutdown" => Ok(match request(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => {
                println!("shutting_down=1");
                ExitCode::SUCCESS
            }
            Ok(other) => unexpected(other),
            Err(e) => fail(&e),
        }),
        _ => {
            eprintln!("unknown command {command}");
            usage()
        }
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
