//! A malformed `repro_*` command line, or one passing a flag the binary
//! does not read, is a usage error with exit code 2 and no panic; a
//! well-formed one runs.

use std::process::Command;

#[test]
fn malformed_lines_exit_2_without_a_panic() {
    for (bin, name, args) in [
        (env!("CARGO_BIN_EXE_repro_table3"), "repro_table3", &["--splits"][..]),
        (env!("CARGO_BIN_EXE_repro_table3"), "repro_table3", &["--splits", "abc"]),
        (env!("CARGO_BIN_EXE_repro_table3"), "repro_table3", &["--splits", "0"]),
        (env!("CARGO_BIN_EXE_repro_table3"), "repro_table3", &["--splits", "20"]),
        (env!("CARGO_BIN_EXE_repro_table3"), "repro_table3", &["--seed", "x"]),
        (env!("CARGO_BIN_EXE_repro_table3"), "repro_table3", &["--datasets"]),
        (env!("CARGO_BIN_EXE_repro_table3"), "repro_table3", &["--datasets", "nope"]),
        (env!("CARGO_BIN_EXE_repro_table3"), "repro_table3", &["--frob"]),
        (env!("CARGO_BIN_EXE_repro_table2"), "repro_table2", &["--splits", "3"]),
        (env!("CARGO_BIN_EXE_repro_fig8"), "repro_fig8", &["--splits", "3"]),
        (
            env!("CARGO_BIN_EXE_repro_sweep_homophily"),
            "repro_sweep_homophily",
            &["--datasets", "cornell,texas"],
        ),
        (env!("CARGO_BIN_EXE_repro_sweep_homophily"), "repro_sweep_homophily", &["--full"]),
        (env!("CARGO_BIN_EXE_repro_fig6"), "repro_fig6", &["--datasets", "cornell,texas"]),
    ] {
        let output = Command::new(bin).args(args).output().expect("the binary starts");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
        assert!(stderr.contains(args[0]), "{name} {args:?} names no flag: {stderr}");
        assert!(stderr.contains(&format!("usage: {name}")), "{name} {args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{name} {args:?} printed a table");
    }
}

#[test]
fn a_well_formed_line_runs() {
    let dir = std::env::temp_dir().join(format!("graphrare-repro-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_repro_table2"))
        .args(["--datasets", "CORNELL,texas", "--quiet"])
        .current_dir(&dir)
        .output()
        .expect("repro_table2 starts");
    let csv = std::fs::read_to_string(dir.join("results/table2.csv"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let csv = csv.expect("results/table2.csv written");
    let datasets: Vec<&str> =
        csv.lines().skip(1).map(|l| l.split(',').next().unwrap_or("")).collect();
    assert_eq!(datasets, ["Cornell", "Texas"]);
}
