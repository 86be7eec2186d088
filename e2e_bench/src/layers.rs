//! Per-layer attribution: the program's own span tree captured in memory
//! and folded with `graphrare-trace`, plus benchmark-side timings around
//! the public call of each layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use graphrare::{build_rewirer, RewirerKind, TopoState, TopologyOptimizer};
use graphrare_entropy::{EntropySequences, RelativeEntropyTable};
use graphrare_gnn::{build_model, evaluate, Backbone, GraphTensors, Trainer};
use graphrare_serve::RunSpec;
use graphrare_telemetry::{self as telemetry, Summary, VecSink};
use graphrare_tensor::{parallel, Matrix};
use graphrare_trace::{folded_stacks, parse_spans, root_totals, Span};

use crate::report::{median, Metrics};
use crate::solo;

/// A telemetry capture: the span forest, the registry aggregate and the
/// number of events emitted.
pub struct Trace {
    pub spans: Vec<Span>,
    pub summary: Summary,
    pub events: usize,
}

/// Runs `f` with the registry on and every event kept in memory; the
/// stream is parsed (strictly) once `f` returns.
pub fn traced<R>(f: impl FnOnce() -> R) -> Result<(R, Trace), String> {
    telemetry::reset();
    let (sink, events) = VecSink::new();
    telemetry::add_sink(Box::new(sink));
    telemetry::set_enabled(true);
    let out = f();
    telemetry::set_enabled(false);
    let summary = telemetry::snapshot();
    telemetry::clear_sinks();
    let events = std::mem::take(&mut *events.lock().map_err(|_| "event sink poisoned")?);
    let mut text = String::new();
    for event in &events {
        text.push_str(&event.to_json_line());
        text.push('\n');
    }
    let spans = parse_spans(&text)?;
    Ok((out, Trace { spans, summary, events: events.len() }))
}

/// The layer a span frame belongs to, by its name prefix.
pub fn layer_of(frame: &str) -> &'static str {
    if frame.starts_with("kernel.") {
        "tensor"
    } else if frame.starts_with("train.") {
        "gnn"
    } else if frame.starts_with("rewire.propose.") {
        "rewirer"
    } else if frame.starts_with("rewire.") {
        "rewire"
    } else if frame.starts_with("entropy.") {
        "entropy"
    } else if frame.starts_with("driver.") {
        "driver"
    } else {
        "other"
    }
}

/// Self time per layer over the whole capture, from the folded stacks.
pub struct LayerTable {
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Self time per leaf frame (e.g. `kernel.matmul_tn`).
    pub frame_ns: BTreeMap<String, u64>,
    pub total_ns: u64,
}

impl LayerTable {
    pub fn share(&self, layer: &str) -> f64 {
        *self.self_ns.get(layer).unwrap_or(&0) as f64 / self.total_ns.max(1) as f64
    }

    pub fn frames_ns(&self, frames: &[&str]) -> u64 {
        frames.iter().map(|f| *self.frame_ns.get(*f).unwrap_or(&0)).sum()
    }

    pub fn render(&self) -> String {
        let mut out = String::from("  layer        self_ms     share\n");
        for (layer, ns) in &self.self_ns {
            out.push_str(&format!(
                "  {layer:<10} {:>9.1} {:>8.2}%\n",
                *ns as f64 / 1e6,
                100.0 * self.share(layer)
            ));
        }
        out
    }
}

/// Folds the capture with `graphrare-trace`'s semantics and checks that
/// the self times under every `driver.run` root add up to those roots'
/// wall time within 1% (flame totals telescope).
pub fn fold(trace: &Trace) -> Result<LayerTable, String> {
    let folded = folded_stacks(&trace.spans);
    let mut self_ns = BTreeMap::new();
    let mut frame_ns: BTreeMap<String, u64> = BTreeMap::new();
    let mut total_ns = 0u64;
    for (stack, ns) in &folded {
        let leaf = stack.rsplit(';').next().unwrap_or(stack);
        *self_ns.entry(layer_of(leaf)).or_insert(0) += ns;
        *frame_ns.entry(leaf.to_string()).or_insert(0) += ns;
        total_ns += ns;
    }
    let folded_run = *root_totals(&folded).get("driver.run").unwrap_or(&0);
    let wall_run: u64 = trace.spans.iter().filter(|s| s.path == "driver.run").map(|s| s.ns).sum();
    if wall_run == 0 {
        return Err("trace holds no driver.run span".into());
    }
    let gap = folded_run.abs_diff(wall_run) as f64 / wall_run as f64;
    if gap > 0.01 {
        return Err(format!(
            "layer self times under driver.run sum to {folded_run} ns, \
             {:.2}% away from its wall time {wall_run} ns",
            100.0 * gap
        ));
    }
    Ok(LayerTable { self_ns, frame_ns, total_ns })
}

/// Per-layer metrics read from a capture of `runs` whole runs holding
/// `steps` DRL steps between them.
pub fn from_trace(trace: &Trace, table: &LayerTable, runs: usize, steps: usize, m: &mut Metrics) {
    let per_run = |ns: u64| ns as f64 / runs.max(1) as f64;
    let per_step = |x: f64| x / steps.max(1) as f64;
    let in_steps = |s: &&Span| s.path.contains("driver.step/");
    let counter = |name: &str| trace.summary.counter(name);

    m.push("tensor.kernel_self_share", "fraction", table.share("tensor"));
    let matmul = table.frames_ns(&["kernel.matmul", "kernel.matmul_tn", "kernel.matmul_nt"]);
    m.push("tensor.matmul_ms", "ms", per_run(matmul) / 1e6);
    let spmm = table.frames_ns(&["kernel.spmm", "kernel.spmm_t", "kernel.spmv"]);
    m.push("tensor.spmm_ms", "ms", per_run(spmm) / 1e6);
    let step_kernels =
        trace.spans.iter().filter(in_steps).filter(|s| s.name.starts_with("kernel.")).count();
    m.push("tensor.kernel_calls_per_step", "count", per_step(step_kernels as f64));

    m.push("gnn.epochs_per_run", "count", per_run(counter("train.epochs")));

    let step_ns = |pred: &dyn Fn(&str) -> bool| -> f64 {
        trace.spans.iter().filter(in_steps).filter(|s| pred(&s.name)).map(|s| s.ns as f64).sum()
    };
    m.push("rewire.apply_us_per_step", "us", per_step(step_ns(&|n| n == "rewire.apply")) / 1e3);
    let (hits, misses) = (counter("rewire.kept_cache_hits"), counter("rewire.kept_cache_misses"));
    m.push("rewire.kept_cache_hit_ratio", "fraction", ratio(hits, hits + misses));
    m.push("rewire.kept_cache_lookups", "count", per_run(hits + misses));
    let (inplace, patched) = (counter("rewire.rows_inplace"), counter("rewire.rows_patched"));
    m.push("rewire.rows_inplace_ratio", "fraction", ratio(inplace, patched));
    m.push("rewire.rows_patched", "count", per_run(patched));
    let propose = step_ns(&|n| n.starts_with("rewire.propose."));
    m.push("rewirer.propose_us_per_step", "us", per_step(propose) / 1e3);

    m.push("driver.self_share", "fraction", table.share("driver"));
    let step_allocs: u64 =
        trace.spans.iter().filter(|s| s.name == "driver.step").map(|s| s.alloc_count).sum();
    m.push("driver.allocs_per_step", "count", per_step(step_allocs as f64));
    m.push("telemetry.events_per_step", "count", per_step(trace.events as f64));
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median seconds of `reps` timed calls (after one untimed call when
/// `warm`), and the last call's output.
fn timed<T>(reps: usize, warm: bool, mut f: impl FnMut() -> T) -> (f64, T) {
    if warm {
        black_box(f());
    }
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        out = Some(black_box(f()));
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), out.expect("at least one timed call"))
}

/// Benchmark-side timings of each layer's public entry point on the
/// graph and model of `spec`, at the workload's thread count.
pub fn probes(spec: &RunSpec, m: &mut Metrics) -> Result<(), String> {
    let (graph, split, cfg) = solo::load(spec)?;
    parallel::set_threads(cfg.threads);
    let (n, f) = (graph.num_nodes(), graph.feat_dim());
    let labels = graph.labels();

    // tensor: the first layer's dense product, N x F times F x H.
    let h = match spec.backbone {
        Backbone::Gat => cfg.model.hidden / cfg.model.gat_heads,
        _ => cfg.model.hidden,
    };
    let a = Matrix::from_fn(n, f, |r, c| ((r * 31 + c * 17) % 13) as f32 * 0.1 - 0.6);
    let b = Matrix::from_fn(f, h, |r, c| ((r * 7 + c * 29) % 11) as f32 * 0.1 - 0.5);
    let (matmul_s, _) = timed(9, true, || black_box(&a).matmul(black_box(&b)));
    m.push("tensor.matmul_gflops", "GFLOP/s", 2.0 * (n * f * h) as f64 / matmul_s / 1e9);

    // gnn: one training epoch and one inference forward.
    let model = build_model(spec.backbone, f, graph.num_classes(), &cfg.model);
    let mut trainer = Trainer::new(model.as_ref(), &cfg.train);
    let gt = GraphTensors::new(&graph);
    let (epoch_s, _) =
        timed(5, true, || trainer.train_epoch(model.as_ref(), &gt, labels, &split.train));
    m.push("gnn.train_epoch_ms", "ms", epoch_s * 1e3);
    let (eval_s, _) = timed(5, true, || evaluate(model.as_ref(), &gt, labels, &split.val));
    m.push("gnn.eval_forward_ms", "ms", eval_s * 1e3);

    // graph: operator construction for one topology, including the
    // operator the backbone reads (built lazily on first use).
    let (tensors_s, _) = timed(5, true, || {
        let gt = GraphTensors::new(black_box(&graph));
        match spec.backbone {
            Backbone::Gat => drop(gt.attention()),
            _ => drop(gt.gcn_norm()),
        }
        gt
    });
    m.push("graph.tensors_build_ms", "ms", tensors_s * 1e3);

    // entropy: the relative-entropy table and the candidate sequences at
    // the workload's thread count, and the sequences' 1- over 2-thread
    // speed-up.
    let (table_s, table) = timed(3, true, || RelativeEntropyTable::new(&graph, &cfg.entropy));
    m.push("entropy.table_s", "s", table_s);
    let build_at = |threads: usize| {
        parallel::with_threads(threads, || {
            timed(3, true, || EntropySequences::build(&graph, &table, &cfg.sequences))
        })
    };
    let threads = parallel::current_threads();
    let (sequences_s, sequences) = build_at(threads);
    m.push("entropy.sequences_s", "s", sequences_s);
    let at = |t: usize| if t == threads { sequences_s } else { build_at(t).0 };
    m.push("entropy.sequences_speedup", "x", at(1) / at(2));

    // rl: window-end feedback (the PPO update) of a PPO rewirer over this
    // topology, whatever strategy the workload itself runs.
    let topo = TopologyOptimizer::new(graph.clone(), sequences, cfg.edit_mode);
    let mut ppo_cfg = cfg;
    ppo_cfg.rewirer = RewirerKind::Ppo;
    let mut rewirer = build_rewirer(&topo, &ppo_cfg, &split.train);
    let mut state = TopoState::new(topo.k_bounds(cfg.k_cap), topo.d_bounds(cfg.k_cap));
    let mut updates = Vec::new();
    for window in 0..4 {
        for s in 0..cfg.update_every {
            let actions = rewirer.propose(&state);
            state.apply(&actions);
            let window_end = s + 1 == cfg.update_every;
            let reward = ((s * 7 + window * 3) % 5) as f32 * 0.01 - 0.02;
            let t = Instant::now();
            black_box(rewirer.feedback(reward, window_end, false, &state));
            if window_end && window > 0 {
                updates.push(t.elapsed().as_secs_f64());
            }
        }
    }
    m.push("rl.ppo_update_ms", "ms", median(&updates) * 1e3);
    Ok(())
}
