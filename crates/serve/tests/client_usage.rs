//! `graphrare-client` reports a usage error with exit code 2 before it
//! tries to reach a daemon, so a malformed command line reads the same
//! whether or not one is listening; a well-formed command with no daemon
//! is a connection failure, exit code 1.

use std::process::Command;

/// Runs the client against a socket path nothing listens on and returns
/// its exit code.
fn exit_code(args: &[&str]) -> i32 {
    let socket = std::env::temp_dir().join("graphrare-client-usage-no-daemon.sock");
    let _ = std::fs::remove_file(&socket);
    let output = Command::new(env!("CARGO_BIN_EXE_graphrare-client"))
        .arg("--connect")
        .arg(format!("unix:{}", socket.display()))
        .args(args)
        .output()
        .expect("client starts");
    output.status.code().expect("client exits with a code")
}

#[test]
fn usage_errors_exit_2_with_no_daemon_listening() {
    for args in [
        &["submit", "--input", "toy", "--steps", "abc"][..],
        &["submit", "--steps", "3"],
        &["frob"],
        &["status"],
        &["budget", "1"],
        &["budget", "1", "many"],
        &["result", "1"],
    ] {
        assert_eq!(exit_code(args), 2, "{args:?}");
    }
}

#[test]
fn a_well_formed_command_with_no_daemon_exits_1() {
    assert_eq!(exit_code(&["status", "1"]), 1);
}
