//! The options every `repro_*` binary parses: a malformed line is an
//! error that names its flag (the binaries print it and exit 2), a flag
//! the binary does not read is one too, and a valid line parses to its
//! values.

use graphrare_bench::{HarnessOptions, Reads, Scale};
use graphrare_datasets::Dataset;

fn parse_for(line: &str, reads: Reads) -> Result<HarnessOptions, String> {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    HarnessOptions::parse(&args, reads)
}

fn parse(line: &str) -> Result<HarnessOptions, String> {
    parse_for(line, Reads::ALL)
}

#[test]
fn malformed_lines_name_their_flag() {
    for (line, flag) in [
        ("--splits", "--splits"),
        ("--splits abc", "--splits"),
        ("--splits 0", "--splits"),
        ("--splits 11", "--splits"),
        ("--splits 20", "--splits"),
        ("--splits -1", "--splits"),
        ("--seed", "--seed"),
        ("--seed x", "--seed"),
        ("--seed -3", "--seed"),
        ("--datasets", "--datasets"),
        ("--datasets nope", "--datasets"),
        ("--datasets cornell,nope", "--datasets"),
        ("--frob", "--frob"),
        ("--full --splits 2 extra", "extra"),
    ] {
        let err = parse(line).expect_err(line);
        assert!(err.contains(flag), "`{line}` gave `{err}`, which does not name {flag}");
    }
}

#[test]
fn flags_a_binary_does_not_read_name_themselves() {
    let no_splits = Reads { splits: false, ..Reads::ALL };
    let one_dataset = Reads { datasets: 1, ..Reads::ALL };
    let sweep = Reads { full: false, datasets: 0, ..Reads::ALL };
    for (line, reads, flag) in [
        ("--splits 3", no_splits, "--splits"),
        ("--seed 1 --splits 1", no_splits, "--splits"),
        ("--datasets cornell,texas", one_dataset, "--datasets"),
        ("--datasets cornell", sweep, "--datasets"),
        ("--full", sweep, "--full"),
    ] {
        let err = parse_for(line, reads).expect_err(line);
        assert!(err.contains(flag), "`{line}` gave `{err}`, which does not name {flag}");
    }
    // What each reads still parses.
    assert_eq!(parse_for("--datasets TEXAS", one_dataset).unwrap().datasets, [Dataset::Texas]);
    assert_eq!(parse_for("--full --seed 3", no_splits).unwrap().seed, 3);
    assert_eq!(parse_for("--splits 2 --quiet", sweep).unwrap().splits, 2);
    assert_eq!(parse_for("", one_dataset).unwrap(), HarnessOptions::default());
}

#[test]
fn a_valid_line_parses_to_its_values() {
    let opts = parse("--full --splits 10 --seed 7 --datasets CORNELL,texas,WisConsin --quiet")
        .expect("a valid line");
    assert_eq!(
        opts,
        HarnessOptions {
            scale: Scale::Full,
            splits: 10,
            seed: 7,
            datasets: vec![Dataset::Cornell, Dataset::Texas, Dataset::Wisconsin],
        }
    );
}

#[test]
fn an_empty_line_parses_to_the_defaults() {
    let opts = parse("").expect("no arguments");
    assert_eq!(opts, HarnessOptions::default());
    assert_eq!((opts.scale, opts.splits, opts.seed), (Scale::Mini, 3, 42));
    assert_eq!(opts.datasets, Dataset::ALL);
}
