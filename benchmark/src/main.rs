//! The store's benchmark: four workloads against
//! `li_serve::ShardedWritable`, end-to-end metrics from an untraced run
//! and per-layer metrics from a traced one. README.md has the tables.

mod check;
mod driver;
mod host;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use driver::{run_pass, Pass};
use host::Scratch;
use layers::Values;
use stats::{median, quantile};
use trace::Name;
use workload::{Spec, NOMINAL_SECONDS};

const USAGE: &str = "\
usage: li-benchmark [--workload|--only <name>] [--seed <n>] [--seconds <s>]
                    [--scale <f>] [--trace <0|1|file>] [--check]

  --workload, --only  run one workload in this process; without it, each of
                      read_large, read_cached, mixed_tiered, durable_ingest
                      runs in a fresh process, in that order
  --seed      seed of the op stream; the key population is fixed (default 42)
  --seconds   nominal length of the measured phase: op counts are fixed, sized
              for 15 s on the reference host, and scale with this (default 15)
  --scale     scales key and op counts together (default 1; --check: 0.02)
  --trace     0: end-to-end metrics (default). 1: per-layer metrics from an
              untraced + traced pair. <file>: as 1, and write the spans there
              as Chrome trace-event JSON (<file>.<workload>.json without
              --workload)
  --check     replay every op against a BTreeSet oracle; exit 1 on a mismatch";

enum TraceMode {
    Off,
    On,
    File(PathBuf),
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    scale: Option<f64>,
    trace: TraceMode,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: NOMINAL_SECONDS,
        scale: None,
        trace: TraceMode::Off,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" | "--only" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--scale" => args.scale = Some(value()?.parse().map_err(|e| format!("--scale: {e}"))?),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => TraceMode::Off,
                    "1" => TraceMode::On,
                    file => TraceMode::File(file.into()),
                }
            }
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if !positive(args.seconds) || !args.scale.is_none_or(positive) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let specs = workload::all();
    let chosen: Vec<&Spec> = match &args.workload {
        None => specs.iter().collect(),
        Some(name) => match specs.iter().find(|s| s.name == name) {
            Some(spec) => vec![spec],
            None => {
                eprintln!("unknown workload {name}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    // A workload is one client thread. The per-layer timings of a
    // traced run start a second one twice: the worker, and the two-way
    // parallel batch lookup.
    let threads = if matches!(args.trace, TraceMode::Off) {
        1
    } else {
        2
    };
    if threads > host::cores() {
        eprintln!(
            "this run starts {threads} threads; this host has {} core",
            host::cores()
        );
        return ExitCode::from(2);
    }

    if args.check {
        return run_check(&chosen, &args);
    }
    match chosen[..] {
        [spec] if args.workload.is_some() => run_workload(spec, &args),
        _ => run_each_in_a_fresh_process(&chosen, &args),
    }
}

/// One process per workload, so allocator state and peak RSS do not
/// leak from one workload into the next.
fn run_each_in_a_fresh_process(specs: &[&Spec], args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut worst = 0u8;
    for spec in specs {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", spec.name, "--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        if let Some(scale) = args.scale {
            child.args(["--scale", &scale.to_string()]);
        }
        match &args.trace {
            TraceMode::Off => {}
            TraceMode::On => {
                child.args(["--trace", "1"]);
            }
            TraceMode::File(file) => {
                child.args(["--trace", &format!("{}.{}.json", file.display(), spec.name)]);
            }
        }
        let status = child.status().expect("run the workload's process");
        worst = worst.max(status.code().map_or(1, |c| c.clamp(0, 255) as u8));
    }
    ExitCode::from(worst)
}

fn run_check(specs: &[&Spec], args: &Args) -> ExitCode {
    let scale = args.scale.unwrap_or(0.02);
    let mut wrong_total = 0;
    for spec in specs {
        let dir = Scratch::take().expect("scratch directory");
        let (checks, wrong) = check::check(&spec.scaled(scale, NOMINAL_SECONDS), args.seed, &dir);
        println!(
            "check {}: {checks} checks, {wrong} mismatches (seed {}, scale {scale})",
            spec.name, args.seed
        );
        wrong_total += wrong;
    }
    ExitCode::from(u8::from(wrong_total > 0))
}

fn print_host_facts(spec: &Spec, args: &Args, scale: f64, probe_ns: f64) {
    println!(
        "# workload {} — seed {}, scale {scale}, seconds {}",
        spec.name, args.seed, args.seconds
    );
    println!("# cores {}, host.probe_ns {probe_ns:.1}", host::cores());
    println!("# git {}, {}", host::git_rev(), host::rustc_version());
}

fn run_workload(spec: &Spec, args: &Args) -> ExitCode {
    let scale = args.scale.unwrap_or(1.0);
    let dir = Scratch::take().expect("scratch directory");
    let probe_ns = host::probe_ns();
    print_host_facts(spec, args, scale, probe_ns);
    let spec = &spec.scaled(scale, args.seconds);
    let inp = workload::generate(spec, args.seed);

    let (values, table, attempted, failed) = match &args.trace {
        TraceMode::Off => {
            let pass = run_pass(spec, &inp, &dir, true, false);
            (
                end_to_end(&pass),
                metrics::END_TO_END,
                pass.rec.attempted,
                pass.rec.failed,
            )
        }
        TraceMode::On | TraceMode::File(_) => {
            // The pair: the same stream untraced, then traced, each over
            // a store of its own.
            let plain = run_pass(spec, &inp, &dir, false, false);
            let plain_rate = plain.ops_per_s();
            let mut values = diagnostics(&plain);
            let (attempted, failed) = (plain.rec.attempted, plain.rec.failed);
            drop(plain);
            let traced = run_pass(spec, &inp, &dir, false, true);
            values.insert("trace.overhead_ratio", plain_rate / traced.ops_per_s());
            values.insert("host.probe_ns", probe_ns);
            in_situ(spec, &traced, &mut values);
            // What the traced pass itself could not give, standalone.
            values.extend(layers::measure(spec, &inp, &dir, &traced, args.seed));
            if let TraceMode::File(file) = &args.trace {
                let trace = &traced.tracing.as_ref().expect("traced pass").trace;
                trace
                    .write_chrome(file, spec.name, MAX_SPANS_WRITTEN)
                    .expect("write the trace file");
                println!(
                    "# {} spans recorded, trace written to {}",
                    trace.spans.len(),
                    file.display()
                );
            }
            (
                values,
                metrics::PER_LAYER,
                attempted + traced.rec.attempted,
                failed + traced.rec.failed,
            )
        }
    };
    drop(dir);

    let mut json = Vec::new();
    for &(name, unit) in table {
        let value = *values
            .get(name)
            .unwrap_or_else(|| panic!("no value for {name}"));
        println!("{name:<34} {value:>16.4} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!("{:<34} {attempted:>16}", "ops_attempted");
    println!("{:<34} {failed:>16}", "ops_failed");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        json.join(", ")
    );
    ExitCode::from(u8::from(failed > 0))
}

/// Spans a trace file holds at most (the buffer keeps them all).
const MAX_SPANS_WRITTEN: usize = 1_000_000;

/// The exact `q`-quantile of the samples: an order statistic over every
/// sampled op of the phase. 0 when a run scaled far down sampled none.
fn percentile(samples: &[u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    quantile(&sorted, q)
}

fn end_to_end(pass: &Pass) -> Values {
    let rec = &pass.rec;
    let disk = &pass.live.disk;
    Values::from([
        ("setup_s", median(&mut pass.setup_s.clone())),
        ("ops_per_s", pass.ops_per_s()),
        ("get_p50_ns", percentile(&rec.get, 0.5)),
        ("get_p99_ns", percentile(&rec.get, 0.99)),
        ("put_p50_ns", percentile(&rec.put, 0.5)),
        ("scan_p50_ns", percentile(&rec.scan, 0.5)),
        ("restart_s", median(&mut pass.restart_s.clone())),
        (
            "index_bytes_per_key",
            (pass.rmi_bytes + pass.router_bytes) as f64 / pass.live_keys as f64,
        ),
        (
            "disk_write_amp",
            (disk.snapshots_bytes + disk.wal_bytes) as f64 / (8 * pass.live_keys) as f64,
        ),
        ("rss_peak_mb", pass.rss_peak_mb),
    ])
}

/// Tail latencies too noisy to bound, from the untraced pass.
fn diagnostics(plain: &Pass) -> Values {
    let rec = &plain.rec;
    Values::from([
        ("store.get_p999_ns", percentile(&rec.get, 0.999)),
        ("store.put_p99_ns", percentile(&rec.put, 0.99)),
        ("store.put_p999_ns", percentile(&rec.put, 0.999)),
        ("store.put_max_ms", percentile(&rec.put, 1.0) / 1e6),
        ("store.scan_p99_ns", percentile(&rec.scan, 0.99)),
    ])
}

/// Per-layer metrics read off the traced pass itself: span medians,
/// counts taken at the layer boundaries, the store's own counters.
fn in_situ(spec: &Spec, pass: &Pass, values: &mut Values) {
    let tracing = pass.tracing.as_ref().expect("traced pass");
    let span_p50 = |name| percentile(&tracing.trace.durations(name), 0.5);
    let base_walks = tracing.base_walks.max(1) as f64;
    values.extend([
        ("router.route_ns", span_p50(Name::Route)),
        ("rmi.predict_ns", span_p50(Name::Predict)),
        ("rmi.window_keys", tracing.window_keys as f64 / base_walks),
        (
            "rmi.bytes_per_key",
            pass.rmi_bytes as f64 / pass.base_keys as f64,
        ),
        ("search.last_mile_ns", span_p50(Name::LastMile)),
        ("search.widen_rate", tracing.widened as f64 / base_walks),
        ("store.contains_ns", span_p50(Name::Get)),
        ("store.insert_ns", span_p50(Name::Put)),
        ("store.range_keys_ns", span_p50(Name::Scan)),
        ("store.max_run_depth", tracing.max_run_depth as f64),
    ]);

    let store = &pass.live.store;
    values.insert("store.splits", store.splits() as f64);
    values.insert("store.compactions", store.compactions() as f64);

    let disk = &pass.live.disk;
    values.insert("wal.syncs", store.wal_sync_count() as f64);
    values.insert(
        "wal.bytes_per_put",
        disk.wal_bytes as f64 / pass.puts as f64,
    );
    values.insert(
        "wal.write_syscalls_per_put",
        pass.write_syscalls as f64 / pass.measured_puts as f64,
    );
    let last_save_s = *disk.save_s.last().expect("at least the final save");
    values.insert("persist.save_s", last_save_s);
    values.insert("persist.snapshot_bytes", disk.snapshot_bytes as f64);
    // What a checkpoint stalled the measured phase for; 0 without a WAL
    // (nothing checkpoints) or when the phase was too short for one.
    let mut stalls = if spec.durable {
        disk.save_s[1..].to_vec()
    } else {
        Vec::new()
    };
    let stall_s = if stalls.is_empty() {
        0.0
    } else {
        median(&mut stalls)
    };
    values.insert("persist.checkpoint_stall_ms", stall_s * 1e3);
}
