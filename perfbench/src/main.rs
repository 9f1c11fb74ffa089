//! `perfbench` — the canonical benchmark of the truthful-UFP engine.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paid_contended --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run generates the workload's inputs from `--seed`, replays them
//! closed-loop through the public `ufp_engine` / `ufp_shard` API for at
//! least `--seconds` seconds in whole passes of the trace, checks every
//! epoch's outputs against the recorded reference and the mechanism's
//! invariants, and prints its metrics. The last line of standard output is
//! one JSON object:
//! `{"correct": .., "attempted": <epochs>, "failed": <failed epochs>,
//! "metrics": {..}}`, with the end-to-end metrics under `--trace 0` and
//! the per-layer metrics under `--trace 1`. `--record` instead writes the
//! seed's reference (one untimed pass of the trace). See `README.md`.

mod check;
mod host;
mod replay;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ufp_obs::{Phase, Recorder};

use check::Reference;
use replay::{replay, Budget, Replay};
use workload::{deploy, generate, Inputs, Spec};

/// Set-ups timed before the replay. One more is timed after every
/// replayed epoch, outside its window, and `setup_s` is the median of them
/// all. A set-up takes under a millisecond, and a block of them timed at one
/// moment moved by ±30% from run to run with the host's load; spread over
/// the run, they sample the host as the replay's own metrics do.
const SETUP_REPEATS: usize = 11;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        threads: None,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        let parse_err = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| parse_err(&e))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|e| parse_err(&e))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            "--threads" => args.threads = Some(value()?.parse().map_err(|e| parse_err(&e))?),
            "--record" => args.record = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Time one set-up: graph, partition, arrival trace, failure trace and
/// engine construction.
fn time_setup(spec: &Spec, seed: u64, threads: usize, obs: &Recorder) -> (f64, Inputs) {
    let started = Instant::now();
    let inputs = generate(spec, seed);
    let deployment = deploy(spec, &inputs, threads, obs);
    let took = started.elapsed().as_secs_f64();
    drop(deployment);
    (took, inputs)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of per-epoch latencies, in ms.
fn percentile_ms(latencies: &[Duration], p: f64) -> f64 {
    let mut ms: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * ms.len() as f64).ceil().max(1.0) as usize;
    ms[rank.min(ms.len()) - 1]
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end(run: &Replay, setup_s: f64) -> Vec<Metric> {
    vec![
        m(
            "requests_per_s",
            run.decided as f64 / run.wall.as_secs_f64(),
            "1/s",
        ),
        m("epoch_p50_ms", percentile_ms(&run.latencies, 50.0), "ms"),
        m("epoch_p90_ms", percentile_ms(&run.latencies, 90.0), "ms"),
        m("setup_s", setup_s, "s"),
        m("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ]
}

fn per_layer(
    untraced: &Replay,
    traced: &Replay,
    phase_ns: &[u64],
    phase_hits: &[u64],
) -> Vec<Metric> {
    let l = &traced.layers;
    let epochs = traced.epochs.max(1) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let per = |x: f64, n: usize| if n == 0 { 0.0 } else { x / n as f64 };
    let ns_ms = |p: Phase| phase_ns[p.index()] as f64 / 1e6;
    let hits = |p: Phase| phase_hits[p.index()] as f64;
    let oracle_samples = phase_hits[Phase::HealthRegretOracle.index()] as usize;
    vec![
        m("engine.plan_epoch_ms", ms(l.plan) / epochs, "ms"),
        m("engine.plan_steps", l.plan_steps as f64 / epochs, "1/epoch"),
        m(
            "selection.dijkstra_calls",
            hits(Phase::SelectionDijkstra) / epochs,
            "1/epoch",
        ),
        m(
            "selection.dirty_refreshes",
            hits(Phase::SelectionDirtyRefresh) / epochs,
            "1/epoch",
        ),
        m(
            "selection.dijkstra_per_step",
            per(hits(Phase::SelectionDijkstra), traced.admitted),
            "1/step",
        ),
        m("engine.commit_epoch_ms", ms(l.commit) / epochs, "ms"),
        m(
            "engine.commit_ms_per_winner",
            per(ms(l.commit), traced.admitted),
            "ms",
        ),
        m("engine.open_epoch_ms", ms(l.open) / epochs, "ms"),
        m(
            "engine.apply_topology_ms",
            ms(l.apply_topology) / epochs,
            "ms",
        ),
        m("engine.evictions", l.evictions as f64 / epochs, "1/epoch"),
        m(
            "engine.readmissions",
            l.readmissions as f64 / epochs,
            "1/epoch",
        ),
        m("shard.submit_batch_ms", ms(l.submit) / epochs, "ms"),
        m(
            "shard.merge_replay_ms",
            ns_ms(Phase::ShardMergeReplay) / epochs,
            "ms",
        ),
        m(
            "shard.cross_route_ms",
            ns_ms(Phase::ShardCrossRoute) / epochs,
            "ms",
        ),
        m("shard.lease_ms", ns_ms(Phase::ShardLease) / epochs, "ms"),
        m(
            "health.regret_oracle_ms",
            per(ns_ms(Phase::HealthRegretOracle), oracle_samples),
            "ms",
        ),
        m("health.regret_samples", oracle_samples as f64, "count"),
        m("codec.snapshot_ms", per(ms(l.snapshot), l.snapshots), "ms"),
        m(
            "codec.snapshot_kb",
            per(l.snapshot_bytes as f64 / 1024.0, l.snapshots),
            "KiB",
        ),
        m("codec.restore_ms", per(ms(l.restore), l.snapshots), "ms"),
        m(
            "par.cpu_over_wall",
            l.cpu.as_secs_f64() / traced.wall.as_secs_f64(),
            "ratio",
        ),
        m(
            "par.dispatches",
            hits(Phase::ParDispatch) / epochs,
            "1/epoch",
        ),
        m("par.steals", hits(Phase::ParSteal) / epochs, "1/epoch"),
        m(
            "engine.call_coverage",
            l.timed_calls().as_secs_f64() / traced.wall.as_secs_f64(),
            "ratio",
        ),
        m(
            "obs.trace_overhead_pct",
            100.0 * (traced.wall.as_secs_f64() / untraced.wall.as_secs_f64() - 1.0),
            "%",
        ),
    ]
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let spec = workload::spec(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        )
    })?;
    let nproc = host::nproc();
    let threads = args.threads.unwrap_or(nproc.min(2));
    if threads == 0 || threads > nproc {
        return Err(format!(
            "--threads {threads} refused: this host has {nproc} CPU(s)"
        ));
    }
    check::self_test().map_err(|e| format!("checker self-test failed: {e}"))?;
    let ref_path = Reference::path(&bench_dir(), spec.name, args.seed);
    let reference = Reference::load(&ref_path)?;

    println!(
        "perfbench: workload {} seed {} threads {} trace {}",
        spec.name,
        args.seed,
        threads,
        u8::from(args.trace)
    );
    println!("provenance: {}", host::provenance(threads));

    // The health oracle publishes through the recorder, so the workload
    // that samples it keeps a recorder that retains no spans even when
    // untraced; the others run with the recorder off.
    let untraced_obs = if spec.regret_every > 0 {
        Recorder::enabled_with_capacity(0)
    } else {
        Recorder::off()
    };
    ufp_par::set_recorder(Recorder::off());

    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let (took, generated) = time_setup(&spec, args.seed, threads, &untraced_obs);
        setups.push(took);
        inputs = Some(generated);
    }
    let inputs = inputs.expect("at least one set-up");

    if args.record {
        let run = replay(
            &spec,
            &inputs,
            threads,
            &untraced_obs,
            false,
            Budget::Epochs(spec.epochs),
            None,
            &mut || {},
        );
        if !run.failed.is_empty() {
            return Err(format!(
                "{} epoch(s) failed the invariants",
                run.failed.len()
            ));
        }
        let header = format!(
            "perfbench reference: workload {} seed {} epochs {} source {}",
            spec.name,
            args.seed,
            run.epochs,
            env!("PERFBENCH_SOURCE_DIGEST")
        );
        Reference::save(&ref_path, &header, &run.records)?;
        println!("recorded {} epochs to {}", run.epochs, ref_path.display());
        return Ok(());
    }
    match &reference {
        Some(r) if r.epochs.len() != spec.epochs => {
            return Err(format!(
                "reference {} has {} epochs, the trace {}",
                ref_path.display(),
                r.epochs.len(),
                spec.epochs
            ));
        }
        Some(_) => println!("reference: {}", ref_path.display()),
        None => println!(
            "reference: none recorded for seed {}; outputs checked against the invariants only",
            args.seed
        ),
    }

    let untraced = replay(
        &spec,
        &inputs,
        threads,
        &untraced_obs,
        false,
        Budget::Seconds(args.seconds),
        reference.as_ref(),
        &mut || setups.push(time_setup(&spec, args.seed, threads, &untraced_obs).0),
    );
    let setup_s = median(setups);
    let mut failed = untraced.failed.len();
    let mut attempted = untraced.epochs;
    let metrics = if !args.trace {
        end_to_end(&untraced, setup_s)
    } else {
        // Same epochs as the untraced replay; an epoch fails if it fails
        // its own checks or its outputs differ from the untraced run's.
        let obs = Recorder::enabled();
        ufp_par::set_recorder(obs.clone());
        let traced = replay(
            &spec,
            &inputs,
            threads,
            &obs,
            true,
            Budget::Epochs(untraced.epochs),
            reference.as_ref(),
            &mut || {},
        );
        ufp_par::set_recorder(Recorder::off());
        let diverged: Vec<usize> = (0..traced.epochs)
            .filter(|&i| !untraced.records[i].identical(&traced.records[i]))
            .collect();
        if !diverged.is_empty() {
            eprintln!(
                "perfbench: traced run diverged from the untraced run on {} epoch(s)",
                diverged.len()
            );
        }
        let bad: std::collections::BTreeSet<usize> =
            traced.failed.iter().chain(&diverged).copied().collect();
        failed += bad.len();
        attempted += traced.epochs;
        let (ns, hits) = obs.phase_totals().expect("recorder is enabled");
        per_layer(&untraced, &traced, &ns, &hits)
    };

    let guard_stops = untraced.records.iter().filter(|r| r.stop == 'G').count();
    let revenue: f64 = untraced.records.iter().flat_map(|r| &r.payments).sum();
    println!(
        "replay: {} epochs ({guard_stops} guard-stopped), {} decided, {} admitted, revenue {revenue:.3}",
        untraced.epochs, untraced.decided, untraced.admitted
    );
    println!(
        "epochs: {attempted} checked, failed: {failed}, failed_epoch_frac: {}",
        failed as f64 / attempted.max(1) as f64
    );
    for x in &metrics {
        println!("{:<30} {:>16.6} {}", x.name, x.value, x.unit);
    }
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    Ok(())
}
