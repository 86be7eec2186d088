//! A graph holds its node features once: its clones, the tensors built
//! from them, the eval forwards' input and a finished run's optimised
//! graph all hand out that one allocation.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use graphrare::{run, GraphRareConfig, RewirerKind};
use graphrare_datasets::{generate_spec, stratified_split, Dataset};
use graphrare_gnn::{Backbone, GraphTensors};

#[test]
fn clones_tensors_and_eval_inputs_share_the_graphs_features() {
    let g = generate_spec(&Dataset::Cornell.spec_mini(), 3);
    let clone = g.clone();
    assert!(Arc::ptr_eq(clone.features(), g.features()), "a clone copied the features");
    let gt = GraphTensors::new(&clone);
    assert!(Arc::ptr_eq(gt.graph().features(), g.features()), "GraphTensors copied them");
    let mut rng = StdRng::seed_from_u64(1);
    assert!(Arc::ptr_eq(&gt.input(false, 0.5, &mut rng), g.features()), "eval input copied");
    // Training under dropout gets its own masked matrix.
    assert!(!Arc::ptr_eq(&gt.input(true, 0.5, &mut rng), g.features()));
}

#[test]
fn a_finished_runs_optimized_graph_shares_the_input_features() {
    let g = generate_spec(&Dataset::Texas.spec_mini(), 5);
    let split = stratified_split(g.labels(), g.num_classes(), 0);
    for (rewirer, refresh) in [
        (RewirerKind::Ppo, 0),
        (RewirerKind::Ppo, 3),
        (RewirerKind::Dhgr, 0),
        (RewirerKind::Reference, 0),
        (RewirerKind::None, 0),
    ] {
        let mut cfg = GraphRareConfig::fast().with_seed(2);
        cfg.steps = 6;
        cfg.rewirer = rewirer;
        cfg.entropy_refresh_every = refresh;
        let report = run(&g, &split, Backbone::Gcn, &cfg).expect("run finishes");
        assert!(
            Arc::ptr_eq(report.optimized_graph.features(), g.features()),
            "{} (refresh every {refresh}) returned a copy of the features",
            rewirer.name()
        );
    }
}
