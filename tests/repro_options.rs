//! The options every `repro_*` binary parses: a malformed line is an
//! error that names its flag (the binaries print it and exit 2), and a
//! valid line parses to its values.

use graphrare_bench::{HarnessOptions, Scale};
use graphrare_datasets::Dataset;

fn parse(line: &str) -> Result<HarnessOptions, String> {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    HarnessOptions::parse(&args)
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
