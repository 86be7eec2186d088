//! Reproduces **Table V**: the ablation study on the relative entropy and
//! the DRL module, all with the GCN backbone:
//!
//! * `GCN` — the plain backbone;
//! * `GCN-RE[0..max]` — random per-node k, d in `0..=max` for
//!   max ∈ {5, 10, 15, 20} (no DRL);
//! * `GCN-RA` — DRL but shuffled (entropy-free) candidate rankings;
//! * `GCN-RARE-add` / `GCN-RARE-remove` — only one edit direction;
//! * `GCN-RARE-reward` — AUC reward instead of Eq. 11;
//! * `GCN-RARE` — the full framework.

use graphrare::{run_random_kd, EditMode, RewardKind, SequenceMode};
use graphrare_bench::{
    accuracy_grid, publish, run_method, Budget, GridRow, HarnessOptions, Method, Reads,
};
use graphrare_gnn::Backbone;

fn main() {
    let opts = HarnessOptions::from_args(Reads::ALL);
    let budget = Budget::default();
    let gcn = Backbone::Gcn;
    let mut rows = vec![GridRow::new(vec!["GCN".into()], move |g, s, seed| {
        run_method(Method::Plain(gcn), g, s, seed, &budget)
    })];
    for max_kd in [5, 10, 15, 20] {
        rows.push(GridRow::new(vec![format!("GCN-RE[0..{max_kd}]")], move |g, s, seed| {
            run_random_kd(g, s, gcn, max_kd, seed, &budget.config(seed)).test_acc
        }));
    }
    rows.extend([
        GridRow::rare(vec!["GCN-RA".into()], gcn, budget, |cfg| {
            cfg.sequence_mode = SequenceMode::Shuffled { seed: cfg.seed.wrapping_add(5) };
        }),
        GridRow::rare(vec!["GCN-RARE-add".into()], gcn, budget, |cfg| {
            cfg.edit_mode = EditMode::AddOnly;
        }),
        GridRow::rare(vec!["GCN-RARE-remove".into()], gcn, budget, |cfg| {
            cfg.edit_mode = EditMode::RemoveOnly;
        }),
        GridRow::rare(vec!["GCN-RARE-reward".into()], gcn, budget, |cfg| {
            cfg.reward = RewardKind::Auc;
        }),
        GridRow::rare(vec!["GCN-RARE".into()], gcn, budget, |_| {}),
    ]);
    let (table, _) = accuracy_grid(&opts, &["Method"], rows);
    publish(
        &format!(
            "Table V — ablation study on relative entropy and the DRL module \
             ({:?} scale, {} splits, seed {})",
            opts.scale, opts.splits, opts.seed
        ),
        &table,
        "results/table5.csv",
    );
}
