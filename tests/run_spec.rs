//! The one description of a run: `RunSpec`'s defaults, the ten value
//! flags the `graphrare` CLI and `graphrare-client submit` both parse
//! through `RunSpec::parse_flag`, and the config `to_config` builds.

use graphrare::{GraphRareConfig, RewirerKind, RlAlgo, RunSpec};
use graphrare_gnn::Backbone;

/// Parses `args` as run flags only, the way both front ends feed them.
fn parse(args: &[&str]) -> Result<RunSpec, String> {
    let mut spec = RunSpec::default();
    let mut rest = args.iter().map(|s| s.to_string());
    while let Some(flag) = rest.next() {
        if !spec.parse_flag(&flag, &mut rest)? {
            return Err(format!("{flag} is not a run flag"));
        }
    }
    Ok(spec)
}

#[test]
fn defaults_are_the_documented_ones() {
    let expected = RunSpec {
        input: String::new(),
        backbone: Backbone::Gcn,
        steps: 160,
        seed: 42,
        split_seed: 0,
        k_cap: 10,
        lambda: 1.0,
        algo: RlAlgo::Ppo,
        threads: 0,
        paced: false,
        rewirer: RewirerKind::Ppo,
    };
    assert_eq!(RunSpec::default(), expected);
    assert_eq!(parse(&[]).unwrap(), expected);
}

#[test]
fn each_run_flag_sets_its_own_field() {
    type Setter = fn(&mut RunSpec);
    let cases: [(&str, &str, Setter); 10] = [
        ("--input", "data/g", |s| s.input = "data/g".into()),
        ("--backbone", "gat", |s| s.backbone = Backbone::Gat),
        ("--lambda", "0.5", |s| s.lambda = 0.5),
        ("--steps", "7", |s| s.steps = 7),
        ("--seed", "9", |s| s.seed = 9),
        ("--split-seed", "3", |s| s.split_seed = 3),
        ("--k-cap", "4", |s| s.k_cap = 4),
        ("--threads", "2", |s| s.threads = 2),
        ("--algo", "a2c", |s| s.algo = RlAlgo::A2c),
        ("--rewirer", "dhgr", |s| s.rewirer = RewirerKind::Dhgr),
    ];
    let mut all = RunSpec::default();
    let mut argv = Vec::new();
    for (flag, value, set) in cases {
        let mut expected = RunSpec::default();
        set(&mut expected);
        assert_ne!(expected, RunSpec::default(), "{flag} {value} must leave the default");
        assert_eq!(parse(&[flag, value]), Ok(expected), "{flag} {value}");
        set(&mut all);
        argv.extend([flag, value]);
    }
    assert_eq!(parse(&argv), Ok(all));
    // A repeated flag keeps its last value.
    assert_eq!(parse(&["--steps", "3", "--steps", "5"]).unwrap().steps, 5);
}

#[test]
fn backbone_algo_and_rewirer_names_are_case_insensitive() {
    let spec = parse(&["--backbone", "GAT", "--algo", "A2C", "--rewirer", "Reference"]).unwrap();
    assert_eq!(
        (spec.backbone, spec.algo, spec.rewirer),
        (Backbone::Gat, RlAlgo::A2c, RewirerKind::Reference)
    );
    assert_eq!(parse(&["--backbone", "Sage"]).unwrap().backbone, Backbone::Sage);
    assert_eq!(parse(&["--backbone", "GraphSAGE"]).unwrap().backbone, Backbone::Sage);
    assert_eq!(parse(&["--rewirer", "NONE"]).unwrap().rewirer, RewirerKind::None);
}

#[test]
fn a_malformed_or_missing_value_is_an_error_naming_the_flag() {
    for (flag, value) in [
        ("--backbone", "gin"),
        ("--lambda", "half"),
        ("--steps", "abc"),
        ("--steps", "-1"),
        ("--seed", "1.5"),
        ("--split-seed", ""),
        ("--k-cap", "ten"),
        ("--threads", "many"),
        ("--algo", "sac"),
        ("--rewirer", "random"),
    ] {
        let err = parse(&[flag, value]).expect_err(flag);
        assert!(err.contains(flag.trim_start_matches("--")), "{flag} {value:?}: {err}");
    }
    assert_eq!(parse(&["--steps", "abc"]), Err(r#"invalid value "abc" for --steps"#.into()));
    for flag in ["--input", "--lambda", "--rewirer"] {
        assert_eq!(parse(&[flag]), Err(format!("missing value for {flag}")));
    }
}

#[test]
fn a_flag_that_is_not_a_run_flag_is_refused_untouched() {
    for flag in ["--paced", "--output", "--entropy-refresh-every", "--quiet", "--frobnicate", "gcn"]
    {
        let mut spec = RunSpec::default();
        let mut rest = ["7".to_string()].into_iter();
        assert_eq!(spec.parse_flag(flag, &mut rest), Ok(false), "{flag}");
        assert_eq!(rest.next().as_deref(), Some("7"), "{flag} took a value");
        assert_eq!(spec, RunSpec::default(), "{flag}");
    }
}

#[test]
fn to_config_is_the_reseeded_default_with_the_spec_fields() {
    let flags = "--steps 7 --seed 9 --k-cap 4 --lambda 0.5 --threads 2 --algo a2c \
                 --rewirer dhgr --split-seed 3 --backbone gat";
    let spec = parse(&flags.split_whitespace().collect::<Vec<_>>()).unwrap();
    let cfg = spec.to_config();
    let reseeded = GraphRareConfig::default().with_seed(9);
    assert_eq!((cfg.steps, cfg.k_cap, cfg.threads), (7, 4, 2));
    assert_eq!(cfg.entropy.lambda.to_bits(), 0.5f64.to_bits());
    assert_eq!((cfg.algo, cfg.rewirer), (RlAlgo::A2c, RewirerKind::Dhgr));
    assert_eq!(
        (cfg.seed, cfg.model.seed, cfg.train.seed, cfg.ppo.seed),
        (reseeded.seed, reseeded.model.seed, reseeded.train.seed, reseeded.ppo.seed)
    );
    // Everything a run flag does not name keeps the library default;
    // the refresh cadence is the CLI's to set afterwards.
    assert_eq!(cfg.entropy_refresh_every, 0);
    assert_eq!(
        (cfg.update_every, cfg.warmup_epochs, cfg.finetune_epochs),
        (reseeded.update_every, reseeded.warmup_epochs, reseeded.finetune_epochs)
    );
    // Pacing changes timing only, never the config.
    let paced = RunSpec { paced: true, ..spec.clone() };
    assert_eq!(format!("{:?}", paced.to_config()), format!("{cfg:?}"));
}
