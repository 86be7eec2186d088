//! A malformed `repro_*` command line is a usage error with exit code 2
//! and no panic; a well-formed one runs.

use std::process::Command;

#[test]
fn malformed_lines_exit_2_without_a_panic() {
    for args in [
        &["--splits"][..],
        &["--splits", "abc"],
        &["--splits", "0"],
        &["--splits", "20"],
        &["--seed", "x"],
        &["--datasets"],
        &["--datasets", "nope"],
        &["--frob"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro_table2"))
            .args(args)
            .output()
            .expect("repro_table2 starts");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains(args[0]), "{args:?} names no flag: {stderr}");
        assert!(stderr.contains("usage: repro_table2"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed a table");
    }
}

#[test]
fn a_well_formed_line_runs() {
    let dir = std::env::temp_dir().join(format!("graphrare-repro-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_repro_table2"))
        .args(["--splits", "1", "--datasets", "CORNELL,texas", "--quiet"])
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
