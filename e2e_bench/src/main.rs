//! `e2e_bench` — whole-run GraphRARE benchmark, solo and served, with
//! per-layer attribution.
//!
//! ```text
//! e2e_bench --workload drl-loop|wide-gat|serve --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (e.g. through `cargo run --release
//! --manifest-path e2e_bench/Cargo.toml -- ...`). Inputs are generated
//! from `--seed` into `.bench_work/` and removed afterwards.
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off;
//! `--trace 1` gives the per-layer metrics from a traced run, the
//! telemetry-invariance and served == solo byte checks, and
//! benchmark-side timings of each layer's public calls. The last stdout
//! line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; any failed operation makes the exit code 1.

mod layers;
mod report;
mod served;
mod solo;
#[cfg(test)]
mod tests;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use graphrare_serve::RunSpec;
use graphrare_telemetry as telemetry;

use report::{mean, median, percentile, tail_percentile, Envelope, Metrics, Tally};
use solo::SoloRun;
use workload::Workload;

graphrare_telemetry::install_counting_allocator!();

/// Set-up samples behind every `setup_s` median.
const MIN_SETUPS: usize = 3;
/// Set-up cycles of the in-process daemon behind `serve`'s `setup_s`.
const SERVE_SETUPS: usize = 11;
/// Closed-loop clients of the `serve` workload.
const SERVE_CLIENTS: usize = 2;
/// Distinct served specs, each on its own graph and checked against its
/// own solo reference; clients split them evenly.
const SERVE_POOL: usize = 24;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e_bench --workload {} --seed N --seconds S --trace 0|1",
        workload::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { return None };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::by_name(value)?),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse::<u64>().ok().filter(|&s| s > 0)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    Some(Args { workload: workload?, seed: seed?, seconds: seconds?, trace: trace? })
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else { return usage() };
    telemetry::install_panic_hook();
    telemetry::set_quiet(true);
    let w = args.workload;
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        w.name,
        args.seed,
        std::process::id()
    ));
    let mut tally = Tally::default();
    let mut env = Envelope::new(w.name, args.seed, args.seconds, args.trace);
    env.num("threads", w.threads as f64);
    let mut metrics = Metrics::default();
    let outcome = match (args.trace, w.served) {
        (false, false) => solo_e2e(&w, &args, &work, &mut tally, &mut env, &mut metrics),
        (false, true) => serve_e2e(&w, &args, &work, &mut tally, &mut env, &mut metrics),
        (true, _) => per_layer(&w, &args, &work, &mut tally, &mut env, &mut metrics),
    };
    tally.check("workload", outcome);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");

    println!("envelope: {}", env.to_json());
    print!("{}", report::render_table(&metrics));
    for failure in &tally.failures {
        println!("failed: {failure}");
    }
    println!("{}", report::result_line(&tally, &metrics));
    if tally.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Whole solo runs over fresh inputs until `--seconds` are used, then
/// extra set-ups until `setup_s` has `MIN_SETUPS` samples.
fn solo_e2e(
    w: &Workload,
    args: &Args,
    work: &Path,
    tally: &mut Tally,
    env: &mut Envelope,
    m: &mut Metrics,
) -> Result<(), String> {
    let count = w.runs_for(args.seconds);
    let inputs = workload::write_inputs(&work.join("in"), &w.shape, args.seed, count)?;
    let window = std::time::Instant::now();
    let mut runs: Vec<SoloRun> = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let spec = w.spec(input, args.seed, i);
        let out = work.join(format!("run{i}.grrs"));
        if let Some(run) = tally.take(&format!("solo run {i}"), solo::run(&spec, &out, None)) {
            runs.push(run);
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    if runs.is_empty() {
        return Err("no run completed".into());
    }
    let mut setups: Vec<f64> = runs.iter().map(SoloRun::setup_s).collect();
    for i in 0..MIN_SETUPS.saturating_sub(setups.len()) {
        let spec = w.spec(&inputs[i % inputs.len()], args.seed, i);
        if let Some(s) = tally.take(&format!("set-up {i}"), solo::setup_only(&spec)) {
            setups.push(s);
        }
    }

    let run_s: Vec<f64> = runs.iter().map(SoloRun::run_s).collect();
    let steps: usize = runs.iter().map(|r| r.step_s.len()).sum();
    let step_time: f64 = runs.iter().flat_map(|r| &r.step_s).sum();
    let acc: Vec<f64> = runs.iter().map(|r| r.test_acc).collect();
    m.push("run_s", "s", mean(&run_s));
    m.push("setup_s", "s", median(&setups));
    m.push("loop_steps_per_s", "steps/s", steps as f64 / step_time);
    m.push("test_acc", "fraction", mean(&acc));
    m.push("peak_rss_mb", "MiB", report::peak_rss_mb());
    m.push("runs_per_s", "runs/s", runs.len() as f64 / window_s);
    m.push("turnaround_p50_s", "s", median(&run_s));
    env.num("runs", runs.len() as f64);
    env.num("setup_samples", setups.len() as f64);
    env.num("steps", steps as f64);
    Ok(())
}

/// The served workload's spec pool: one graph per spec, consecutive
/// specs alternating the workload's strategies.
fn serve_pool(w: &Workload, args: &Args, work: &Path) -> Result<Vec<RunSpec>, String> {
    let inputs = workload::write_inputs(&work.join("in"), &w.shape, args.seed, SERVE_POOL)?;
    Ok(inputs.iter().enumerate().map(|(i, input)| w.spec(input, args.seed, i)).collect())
}

/// Solo reference runs of every pool spec: the bytes each served
/// artifact must equal. `timed` runs them one at a time, the first with
/// a checkpoint probe, because their timings are reported; otherwise
/// only their bytes are used and they run on one thread per client.
fn solo_refs(
    pool: &[RunSpec],
    work: &Path,
    timed: bool,
    tally: &mut Tally,
) -> Result<Vec<SoloRun>, String> {
    let run = |i: usize| {
        let out = work.join(format!("ref{i}.grrs"));
        let probe = (timed && i == 0).then(|| work.join("probe-checkpoint.grrs"));
        (i, solo::run(&pool[i], &out, probe.as_deref()))
    };
    let workers = if timed { 1 } else { SERVE_CLIENTS };
    let mut results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|t| scope.spawn(move || (t..pool.len()).step_by(workers).map(run).collect()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap_or_else(|_| Vec::new())).collect()
    });
    if results.len() != pool.len() {
        return Err("a solo reference thread panicked".into());
    }
    results.sort_by_key(|(i, _)| *i);
    let mut refs = Vec::new();
    for (i, run) in results {
        refs.push(tally.take(&format!("solo reference {i}"), run).ok_or("no solo reference")?);
    }
    Ok(refs)
}

/// Counts one byte-for-byte artifact comparison.
fn check_same(tally: &mut Tally, what: &str, got: &[u8], want: &[u8]) -> bool {
    let same = got == want;
    tally.check(what, if same { Ok(()) } else { Err("artifact bytes differ".into()) });
    same
}

/// Tallies every served run of a window, comparing each artifact to the
/// solo reference of its spec; returns the runs that passed.
fn check_served(
    window: served::Window,
    refs: &[SoloRun],
    tally: &mut Tally,
) -> Vec<served::ServedRun> {
    let mut ok = Vec::new();
    for (i, run) in window.runs.into_iter().enumerate() {
        let Some(run) = tally.take(&format!("served run {i}"), run) else { continue };
        let what = format!("served run {i} == solo spec {}", run.spec);
        if check_same(tally, &what, &run.artifact, &refs[run.spec].artifact) {
            ok.push(run);
        }
    }
    ok
}

fn serve_e2e(
    w: &Workload,
    args: &Args,
    work: &Path,
    tally: &mut Tally,
    env: &mut Envelope,
    m: &mut Metrics,
) -> Result<(), String> {
    let pool = serve_pool(w, args, work)?;
    let refs = solo_refs(&pool, work, false, tally)?;
    let mut setups = Vec::new();
    for i in 0..SERVE_SETUPS {
        let dir = work.join(format!("setup{i}"));
        let cycle = served::setup_cycle(&dir, &pool[i % pool.len()]);
        if let Some(s) = tally.take(&format!("daemon set-up {i}"), cycle) {
            setups.push(s);
        }
    }

    let dir = work.join("daemon");
    let (server, listen) = served::start(&dir, 2)?;
    env.text("state_fs", &report::filesystem_of(&dir));
    let window = served::closed_loop(&listen, &pool, SERVE_CLIENTS, args.seconds as f64);
    served::stop(server);
    let (wall_s, steps) = (window.wall_s, window.steps);
    let runs = check_served(window, &refs, tally);
    if runs.is_empty() {
        return Err("no served run completed".into());
    }

    let turnaround: Vec<f64> = runs.iter().map(|r| r.turnaround_s).collect();
    let acc: Vec<f64> = runs.iter().map(|r| r.test_acc).collect();
    m.push("run_s", "s", mean(&turnaround));
    m.push("setup_s", "s", median(&setups));
    m.push("loop_steps_per_s", "steps/s", steps as f64 / wall_s);
    m.push("test_acc", "fraction", mean(&acc));
    m.push("peak_rss_mb", "MiB", report::peak_rss_mb());
    m.push("runs_per_s", "runs/s", runs.len() as f64 / wall_s);
    m.push("turnaround_p50_s", "s", median(&turnaround));
    env.num("runs", runs.len() as f64);
    env.num("setup_samples", setups.len() as f64);
    env.num("steps", steps as f64);
    env.num("clients", SERVE_CLIENTS as f64);
    Ok(())
}

/// Served-side per-layer metrics from runs taken with telemetry off.
fn serve_metrics(runs: &[served::ServedRun], env: &mut Envelope, m: &mut Metrics) {
    let submit: Vec<f64> = runs.iter().map(|r| r.submit_s).collect();
    let wait: Vec<f64> = runs.iter().map(|r| r.queue_wait_s).collect();
    let rtt: Vec<f64> = runs.iter().flat_map(|r| r.status_rtt_s.iter().copied()).collect();
    let tail = tail_percentile(rtt.len());
    m.push("serve.submit_rtt_ms", "ms", median(&submit) * 1e3);
    m.push("serve.queue_wait_ms", "ms", median(&wait) * 1e3);
    m.push("serve.status_rtt_us_p50", "us", median(&rtt) * 1e6);
    m.push("serve.status_rtt_us_tail", "us", percentile(&rtt, tail) * 1e6);
    env.num("served_runs", runs.len() as f64);
    env.num("status_samples", rtt.len() as f64);
    env.num("status_rtt_tail_percentile", tail);
}

/// The untraced and traced halves of a per-layer invocation.
struct Captured {
    /// The specs probed and traced; the first one drives the probes.
    pool: Vec<RunSpec>,
    /// Untraced solo runs of `pool`, the first with a checkpoint probe.
    refs: Vec<SoloRun>,
    untraced_run_s: f64,
    traced_run_s: f64,
    trace: layers::Trace,
    traced_runs: usize,
    traced_steps: usize,
}

/// Solo workloads: an untraced run (with a checkpoint probe), the same
/// spec served by a one-client daemon, the run traced, and the run
/// untraced again (the baseline of the overhead, both warm). All four
/// artifacts must be byte-identical.
fn capture_solo(
    w: &Workload,
    args: &Args,
    work: &Path,
    tally: &mut Tally,
    env: &mut Envelope,
    m: &mut Metrics,
) -> Result<Captured, String> {
    let input = workload::write_inputs(&work.join("in"), &w.shape, args.seed, 1)?;
    let spec = w.spec(&input[0], args.seed, 0);
    let probe = work.join("probe-checkpoint.grrs");
    let first = solo::run(&spec, &work.join("untraced.grrs"), Some(&probe));
    let first = tally.take("untraced solo run", first).ok_or("untraced run failed")?;

    let dir = work.join("daemon");
    let (server, listen) = served::start(&dir, 2)?;
    env.text("state_fs", &report::filesystem_of(&dir));
    let served = served::connect(&listen).and_then(|mut c| served::serve_one(&mut c, &spec, 0));
    served::stop(server);
    if let Some(s) = tally.take("served run", served) {
        check_same(tally, "served == solo", &s.artifact, &first.artifact);
        serve_metrics(&[s], env, m);
    }

    let out = work.join("traced.grrs");
    let (traced, trace) = layers::traced(|| solo::run(&spec, &out, None))?;
    let traced = tally.take("traced solo run", traced).ok_or("traced run failed")?;
    check_same(tally, "telemetry on == off", &traced.artifact, &first.artifact);

    let again = solo::run(&spec, &work.join("untraced-again.grrs"), None);
    let again = tally.take("second untraced solo run", again).ok_or("untraced run failed")?;
    check_same(tally, "rerun == first run", &again.artifact, &first.artifact);

    Ok(Captured {
        pool: vec![spec],
        refs: vec![first],
        untraced_run_s: again.run_s(),
        traced_run_s: traced.run_s(),
        trace,
        traced_runs: 1,
        traced_steps: traced.step_s.len(),
    })
}

/// `serve`: solo references of the pool (the first with a checkpoint
/// probe), then a half-length untraced and a half-length traced window;
/// every served artifact must equal its reference.
fn capture_serve(
    w: &Workload,
    args: &Args,
    work: &Path,
    tally: &mut Tally,
    env: &mut Envelope,
    m: &mut Metrics,
) -> Result<Captured, String> {
    let pool = serve_pool(w, args, work)?;
    let refs = solo_refs(&pool, work, true, tally)?;
    let half = (args.seconds as f64 / 2.0).max(1.0);
    let window = |name: &str, traced: bool, tally: &mut Tally| {
        let (server, listen) = served::start(&work.join(name), 2)?;
        let outcome = if traced {
            layers::traced(|| served::closed_loop(&listen, &pool, SERVE_CLIENTS, half))
                .map(|(w, t)| (w, Some(t)))
        } else {
            Ok((served::closed_loop(&listen, &pool, SERVE_CLIENTS, half), None))
        };
        served::stop(server);
        let (window, trace) = outcome?;
        Ok::<_, String>((check_served(window, &refs, tally), trace))
    };
    let (untraced, _) = window("daemon", false, tally)?;
    env.text("state_fs", &report::filesystem_of(&work.join("daemon")));
    serve_metrics(&untraced, env, m);
    let (traced, trace) = window("traced-daemon", true, tally)?;
    let turnaround =
        |runs: &[served::ServedRun]| mean(&runs.iter().map(|r| r.turnaround_s).collect::<Vec<_>>());
    Ok(Captured {
        untraced_run_s: turnaround(&untraced),
        traced_run_s: turnaround(&traced),
        trace: trace.ok_or("traced window has no trace")?,
        traced_runs: traced.len(),
        traced_steps: traced.len() * w.steps as usize,
        pool,
        refs,
    })
}

/// Per-layer mode: capture untraced and traced runs, fold the trace,
/// add the benchmark-side timings and the layer probes on the first
/// spec, and print the metrics in `BENCHMARK.json` order.
fn per_layer(
    w: &Workload,
    args: &Args,
    work: &Path,
    tally: &mut Tally,
    env: &mut Envelope,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut layer_m = Metrics::default();
    let capture = if w.served { capture_serve } else { capture_solo };
    let c = capture(w, args, work, tally, env, &mut layer_m)?;

    let table = tally.take("layer fold", layers::fold(&c.trace)).ok_or("fold failed")?;
    println!("per-layer self time ({} traced runs, {} steps):", c.traced_runs, c.traced_steps);
    print!("{}", table.render());
    layers::from_trace(&c.trace, &table, c.traced_runs, c.traced_steps, &mut layer_m);
    let overhead = 100.0 * (c.traced_run_s / c.untraced_run_s - 1.0);
    layer_m.push("telemetry.overhead_pct", "%", overhead);

    // Benchmark-side timings from the untraced solo runs.
    let step_s: Vec<f64> = c.refs.iter().flat_map(|r| r.step_s.iter().copied()).collect();
    let tail = tail_percentile(step_s.len());
    layer_m.push("driver.step_ms_p50", "ms", median(&step_s) * 1e3);
    layer_m.push("driver.step_ms_tail", "ms", percentile(&step_s, tail) * 1e3);
    let finish: Vec<f64> = c.refs.iter().map(|r| r.finish_s).collect();
    layer_m.push("driver.finish_s", "s", mean(&finish));
    env.num("step_samples", step_s.len() as f64);
    env.num("step_tail_percentile", tail);
    let (ckpt_s, ckpt_bytes) = c.refs[0].checkpoint.clone().ok_or("no checkpoint probe")?;
    layer_m.push("store.checkpoint_ms", "ms", median(&ckpt_s) * 1e3);
    layer_m.push("store.checkpoint_bytes", "bytes", ckpt_bytes as f64);
    env.num("checkpoint_samples", ckpt_s.len() as f64);

    tally.check("layer probes", layers::probes(&c.pool[0], &mut layer_m));

    for &(name, unit) in PER_LAYER.iter() {
        m.push(name, unit, layer_m.get(name).unwrap_or(f64::NAN));
    }
    Ok(())
}

/// Every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("loop_steps_per_s", "steps/s"),
    ("test_acc", "fraction"),
    ("peak_rss_mb", "MiB"),
    ("runs_per_s", "runs/s"),
    ("turnaround_p50_s", "s"),
];

/// Every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("tensor.kernel_self_share", "fraction"),
    ("tensor.matmul_ms", "ms"),
    ("tensor.spmm_ms", "ms"),
    ("tensor.kernel_calls_per_step", "count"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("gnn.train_epoch_ms", "ms"),
    ("gnn.eval_forward_ms", "ms"),
    ("gnn.epochs_per_run", "count"),
    ("entropy.table_s", "s"),
    ("entropy.sequences_s", "s"),
    ("entropy.sequences_speedup", "x"),
    ("rewire.apply_us_per_step", "us"),
    ("rewire.kept_cache_hit_ratio", "fraction"),
    ("rewire.kept_cache_lookups", "count"),
    ("rewire.rows_inplace_ratio", "fraction"),
    ("rewire.rows_patched", "count"),
    ("rewirer.propose_us_per_step", "us"),
    ("driver.step_ms_p50", "ms"),
    ("driver.step_ms_tail", "ms"),
    ("driver.finish_s", "s"),
    ("driver.self_share", "fraction"),
    ("driver.allocs_per_step", "count"),
    ("rl.ppo_update_ms", "ms"),
    ("graph.tensors_build_ms", "ms"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoint_bytes", "bytes"),
    ("serve.submit_rtt_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.status_rtt_us_p50", "us"),
    ("serve.status_rtt_us_tail", "us"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.events_per_step", "count"),
];
