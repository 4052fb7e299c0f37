//! The parafile benchmark harness: one client process holding one `Session`
//! over two `pf serve` daemons, driving a closed loop with one operation
//! outstanding.
//!
//! ```text
//! perfbench --workload <matrix_redist|replicated_records|view_churn|durable_records>
//!           --seed N --seconds S --trace <0|1> --pf <pf binary> --work <dir>
//! ```
//!
//! Prints the metrics as the last line of standard output, one JSON object.
//! `perfbench/run.py` builds this harness and `pf`, clears the program's
//! `PF_*` knobs and calls it; see `perfbench/README.md`.

mod churn;
mod cluster;
mod layers;
mod matrix;
mod oracle;
mod record;
mod records;
mod workload;

use cluster::{peak_rss_kib, pin_to};
use record::{percentile, Recorder};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Env, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Probes timed for `session.ping_rtt_us` in a traced run.
const PROBES: usize = 200;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pf: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        pf: get("--pf")?.into(),
        work: get("--work")?.into(),
    })
}

fn make(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "matrix_redist" => Box::new(matrix::MatrixRedist::new()),
        "replicated_records" => Box::new(records::Records::new(seed, false)),
        "durable_records" => Box::new(records::Records::new(seed, true)),
        "view_churn" => Box::new(churn::ViewChurn::new(seed)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Summed daemon `Stat` counters of the workload's files:
/// (requests, fragments, bytes written).
fn server_counters(w: &dyn Workload, live: &mut workload::Live) -> Result<[u64; 3], String> {
    let mut sum = [0u64; 3];
    for file in w.wire_files() {
        for st in live.session.stat(file).map_err(|e| format!("stat {file}: {e}"))? {
            sum[0] += st.requests;
            sum[1] += st.fragments;
            sum[2] += st.bytes_written;
        }
    }
    Ok(sum)
}

fn fresh_dir(dir: &std::path::Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

type Metric = (&'static str, f64, &'static str);

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let allowed = cluster::allowed_cpus().map_err(|e| format!("CPU placement: {e}"))?;
    // Client and daemons all run on the first allowed CPU. On a 2-vCPU
    // virtual machine this was steadier than client and daemons on separate
    // CPUs: a request then wakes no other vCPU, whose host-side scheduling
    // delay drifts from minute to minute.
    let cpu = *allowed.first().ok_or("no CPU allowed")?;
    pin_to(cpu).map_err(|e| format!("pin client: {e}"))?;
    println!("cpus: {} allowed {allowed:?}; client and daemons pinned to cpu {cpu}", allowed.len());
    let env = Env { pf: args.pf.clone(), data: args.work.join("data"), cpu };
    let mut w = make(&args.workload, args.seed)?;

    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        drop(live.take());
        fresh_dir(&env.data)?;
        let t = Instant::now();
        let l = w.setup(&env)?;
        setups.push(t.elapsed().as_secs_f64());
        live = Some(l);
    }
    let mut live = live.ok_or("no set-up ran")?;

    let engine_before = parafile::PlanEngine::global().stats().views;
    let counters_before = server_counters(w.as_ref(), &mut live)?;
    let mut rec = Recorder::new(args.trace);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut rounds = 0u64;
    while Instant::now() < deadline {
        w.round(&mut live, &mut rec);
        rec.end_round();
        rounds += 1;
    }
    let ops = rec.attempted;
    let engine = parafile::PlanEngine::global().stats().views;
    let counters = server_counters(w.as_ref(), &mut live)?;
    let (client_kib, daemons_kib) =
        (peak_rss_kib("/proc/self/status"), live.daemons.peak_rss_kib());
    let peak_kib = client_kib + daemons_kib;

    let mut layer_metrics = Vec::new();
    if args.trace {
        let mut probe = Vec::with_capacity(PROBES);
        for i in 0..PROBES {
            let (health, us) = rec.layer("session.probe", i as u64, || live.session.probe());
            if health.iter().any(|h| matches!(h, parafile_net::NodeHealth::Dead)) {
                return Err("a daemon failed its probe".into());
            }
            probe.push(us);
        }
        layer_metrics.push(("session.ping_rtt_us", percentile(&probe, 0.5), "us"));
        let cases = w.layer_cases();
        layer_metrics.extend(
            layers::measure(&cases, &args.work.join("layers"), &mut rec)
                .map_err(|e| format!("layer measurements: {e}"))?,
        );
    }

    let verified = w.verify(&mut live, &env, &mut rec);
    if let Err(e) = &verified {
        eprintln!("perfbench: verification failed: {e}");
    }
    let disk = w.disk_before_flush();
    drop(live);
    let _ = std::fs::remove_dir_all(&env.data);

    let user_bytes = rec.writes.bytes as f64;
    let (hits, misses) = (engine.hits - engine_before.hits, engine.misses - engine_before.misses);
    println!(
        "{}: seed {} rounds {rounds} ops {ops} (set_view {}, write {}, read {}) failed {} mismatches {}; \
         peak RSS client {} KiB, daemons {} KiB",
        args.workload,
        args.seed,
        rec.sets.micros.len(),
        rec.writes.micros.len(),
        rec.reads.micros.len(),
        rec.failed,
        w.mismatches(),
        client_kib,
        daemons_kib
    );
    // Tails are printed for reference only: on this class of machine their
    // run-to-run spread is wider than any bound worth gating on (README).
    for (kind, s) in [("write", &rec.writes), ("read", &rec.reads), ("set_view", &rec.sets)] {
        println!(
            "reference {kind}: p90 {:.1} us, p99 {:.1} us over {} calls",
            percentile(&s.micros, 0.9),
            percentile(&s.micros, 0.99),
            s.micros.len()
        );
    }
    let e2e: Vec<Metric> = vec![
        ("setup_s", percentile(&setups, 0.5), "s"),
        ("write_mib_s", rec.writes.mib_per_s(), "MiB/s"),
        ("read_mib_s", rec.reads.mib_per_s(), "MiB/s"),
        ("write_p50_us", percentile(&rec.writes.micros, 0.5), "us"),
        ("read_p50_us", percentile(&rec.reads.micros, 0.5), "us"),
        ("view_sets_per_s", rec.sets.calls_per_s(), "1/s"),
        ("view_set_p50_us", percentile(&rec.sets.micros, 0.5), "us"),
        ("peak_rss_mib", peak_kib as f64 / 1024.0, "MiB"),
    ];
    let metrics = if args.trace {
        for (name, v, unit) in &e2e {
            println!("traced {name} = {v:.4} {unit}");
        }
        let per_op = |d: u64| d as f64 / ops.max(1) as f64;
        layer_metrics.extend([
            ("engine.view_hit_ratio", hits as f64 / (hits + misses).max(1) as f64, "ratio"),
            ("engine.view_hits", hits as f64, "count"),
            ("engine.view_misses", misses as f64, "count"),
            ("server.requests_per_op", per_op(counters[0] - counters_before[0]), "1/op"),
            ("server.fragments_per_op", per_op(counters[1] - counters_before[1]), "1/op"),
            (
                "replica.bytes_per_user_byte",
                (counters[2] - counters_before[2]) as f64 / user_bytes,
                "ratio",
            ),
            ("disk.bytes_per_user_byte", disk as f64 / user_bytes, "ratio"),
            ("span.set_view_us", rec.span_median("session.set_view"), "us"),
            ("span.write_us", rec.span_median("session.write"), "us"),
            ("span.read_us", rec.span_median("session.read"), "us"),
            ("span.flush_us", rec.span_median("session.flush"), "us"),
        ]);
        let traces = args.work.join("traces");
        std::fs::create_dir_all(&traces).map_err(|e| e.to_string())?;
        let path = traces.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        rec.write_spans(&path).map_err(|e| format!("write spans: {e}"))?;
        println!("spans: {}", path.display());
        layer_metrics
    } else {
        e2e
    };
    Ok(Outcome {
        correct: verified.is_ok() && w.mismatches() == 0,
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
