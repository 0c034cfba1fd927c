//! The stcfa daemon benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_stream|warm_mix|restart_disk|session_edits> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `corpus/` and works under
//! `.bench_work/`). With `--trace 0` it drives the real daemon over
//! loopback TCP in a closed loop for `--seconds` and prints the
//! end-to-end metrics; with `--trace 1` it drives the daemon in lockstep
//! with a replay of the same requests through each layer's public
//! functions, timed with spans, and prints the per-layer metrics and the
//! layer-sum reconciliation. Every response is checked against set-up
//! oracles either way. The end-to-end timings span whole units,
//! stretches of the request stream that send the same mix, after a
//! warm-up unit (see `timed_units`). Human-readable lines come first;
//! the last line of standard output is one JSON object. The exit code
//! is 0 only when every check passed.

mod check;
mod drive;
mod inputs;
mod stream;
#[cfg(test)]
mod tests;
mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use drive::{measure, reset_dir, setup, Entry, RunResult, Sample};
use stream::{Op, Workload};

/// Per-op medians every untraced run prints. They are not gated: most
/// ops occur on one or two workloads only, and a gated metric must exist
/// on every workload.
const PER_OP: [(&str, Op, f64, &str); 8] = [
    ("analyze_p50_ms", Op::Analyze, 1e6, "ms"),
    ("query_p50_us", Op::Query, 1e3, "us"),
    ("graded_p50_us", Op::Graded, 1e3, "us"),
    ("lint_p50_ms", Op::Lint, 1e6, "ms"),
    ("rule_p50_ms", Op::Rule, 1e6, "ms"),
    ("opt_p50_ms", Op::Opt, 1e6, "ms"),
    ("session_open_p50_ms", Op::SessionOpen, 1e6, "ms"),
    ("session_update_p50_ms", Op::SessionUpdate, 1e6, "ms"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// How far Σ layer self time may exceed the untraced end-to-end time
/// before the replay counts as doing work the daemon does not.
const LAYER_SUM_TOLERANCE: f64 = 0.10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("bad --seconds `{value}`"))?
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let code = match parse_args().and_then(run) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Runs one workload; `Ok(false)` when a check failed.
fn run(args: Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let corpus = root.join("corpus");
    if !corpus.is_dir() {
        return Err("run from the repository root (corpus/ not found)".into());
    }
    let work = root.join(".bench_work").join(args.workload.name());
    reset_dir(&work)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc} connections {} daemon_threads {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        args.workload.connections(nproc),
        drive::options(nproc, None).threads,
    );
    let passed = if args.trace {
        traced(&args, &corpus, &work, nproc)
    } else {
        untraced(&args, &corpus, &work, nproc)
    };
    // Spans (trace runs) live one level up and survive the clean-up.
    let _ = std::fs::remove_dir_all(&work);
    passed
}

fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The timed part of a run.
struct Timed {
    units: usize,
    /// Requests per second over the timed units, summed over connections.
    throughput: f64,
    /// The latencies of the timed units' requests, sorted.
    latencies: Vec<u64>,
}

/// Groups the samples by connection and unit. A unit lasts from the
/// last response of the connection's previous unit to its own last
/// response. Each connection's first unit is warm-up and its last one
/// is cut by the deadline, so neither is timed; the timed ones all send
/// the same mix. A run too short for a timed unit counts whole.
fn timed_units(samples: &[Sample], conns: usize, wall_s: f64) -> Timed {
    // The end of each unit's last response.
    let mut units: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    for s in samples {
        let end = units.entry((s.conn, s.unit)).or_default();
        *end = (*end).max(s.end_ns);
    }
    let mut timed = std::collections::BTreeSet::new();
    let mut wall_ns = 0;
    let mut prev: Option<(usize, u64)> = None;
    let mut it = units.into_iter().peekable();
    while let Some(((conn, unit), end)) = it.next() {
        let last = it.peek().is_none_or(|((c, _), _)| *c != conn);
        if let Some((prev_conn, prev_end)) = prev {
            if prev_conn == conn && !last {
                timed.insert((conn, unit));
                wall_ns += end - prev_end;
            }
        }
        prev = Some((conn, end));
    }
    let mut latencies: Vec<u64> = samples
        .iter()
        .filter(|s| timed.is_empty() || timed.contains(&(s.conn, s.unit)))
        .map(|s| s.latency_ns)
        .collect();
    latencies.sort_unstable();
    let throughput = if timed.is_empty() {
        latencies.len() as f64 / wall_s
    } else {
        conns as f64 * latencies.len() as f64 / (wall_ns as f64 / 1e9)
    };
    Timed {
        units: timed.len(),
        throughput,
        latencies,
    }
}

fn median_f64(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn metric_line(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<28} {value:>14.4} {unit:<8} {note}");
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        json_metrics(metrics)
    );
}

/// Resets the peak-RSS watermark of this process (Linux `clear_refs`).
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {e}"))
}

/// Peak resident memory of this process since the last reset, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn report_checks(r: &RunResult) {
    let error_share = (r.refused + r.mismatches) as f64 / r.attempted as f64;
    metric_line(
        "error_share",
        error_share,
        "ratio",
        &format!(
            "(n={}: {} refused as the oracle predicts, {} mismatched; Section 5 share {:.4})",
            r.attempted,
            r.refused,
            r.mismatches,
            r.section5 as f64 / r.attempted as f64
        ),
    );
    println!(
        "  transcript_fnv               {:016x} (first {} responses per connection)",
        r.transcript,
        drive::TRANSCRIPT_WINDOW
    );
    if let Some(why) = &r.first_mismatch {
        println!("  MISMATCH {why}");
    }
}

/// Nothing mismatched. Refusals are only ever the oracle-predicted ones
/// of Section 5 requests, so `error_share` is at most the Section 5 share
/// (and equal to it while the daemon refuses that program).
fn checks_pass(r: &RunResult) -> bool {
    r.mismatches == 0
}

fn untraced(args: &Args, corpus: &Path, work: &Path, nproc: usize) -> Result<bool, String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let started = Instant::now();
        prepared = Some(setup(args.workload, args.seed, corpus, work, nproc)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up");
    reset_peak_rss()?;
    let r = measure(&prepared, args.seconds, nproc, None)?;
    let peak = peak_rss_mb()?;

    let n = r.samples.len();
    let setup_s = median_f64(setups);
    let conns = args.workload.connections(nproc);
    let timed = timed_units(&r.samples, conns, r.wall_s);
    let throughput = timed.throughput;
    let p50 = percentile(&timed.latencies, 0.50) / 1e6;
    let p99 = percentile(&timed.latencies, 0.99) / 1e6;
    println!("end-to-end (untraced)");
    metric_line(
        "setup_s",
        setup_s,
        "s",
        &format!("(median of {SETUP_REPEATS} set-ups)"),
    );
    let m = timed.latencies.len();
    let note = format!("(n={m} in {} timed units; {n} in the run)", timed.units);
    metric_line("throughput_rps", throughput, "req/s", &note);
    // Printed, not gated: where light, transport-bound requests meet
    // heavier ones the median is bimodal from run to run, because the
    // daemon's event loop wakes from an escalating timed park.
    metric_line("latency_p50_ms", p50, "ms", &note);
    metric_line(
        "latency_p99_ms",
        p99,
        "ms",
        &format!(
            "{note}, {} beyond it",
            m - (0.99 * m as f64).ceil() as usize
        ),
    );
    report_checks(&r);
    for (name, op, scale, unit) in PER_OP {
        let mut v: Vec<u64> = r
            .samples
            .iter()
            .filter(|s| s.op == op)
            .map(|s| s.latency_ns)
            .collect();
        if v.is_empty() {
            println!(
                "  {name:<28} {:>14} {unit:<8} (n=0: no such requests here)",
                "-"
            );
            continue;
        }
        v.sort_unstable();
        metric_line(
            name,
            percentile(&v, 0.5) / scale,
            unit,
            &format!("(n={})", v.len()),
        );
    }
    metric_line("peak_rss_mb", peak, "MB", "(timed run, VmHWM)");
    if let Some(ratio) = prepared.disk_ratio {
        metric_line(
            "disk_bytes_per_source_byte",
            ratio,
            "ratio",
            &format!("(n={} persisted programs)", prepared.inputs.progs.len()),
        );
    }
    let correct = checks_pass(&r);
    result_line(
        correct,
        r.attempted,
        r.mismatches,
        &[
            ("setup_s", setup_s, "s"),
            ("throughput_rps", throughput, "req/s"),
            ("latency_p99_ms", p99, "ms"),
            ("peak_rss_mb", peak, "MB"),
        ],
    );
    Ok(correct)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    reset_dir(to)?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().expect("directory entries have names");
        std::fs::copy(&path, to.join(name)).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn traced(args: &Args, corpus: &Path, work: &Path, nproc: usize) -> Result<bool, String> {
    let prepared = setup(args.workload, args.seed, corpus, work, nproc)?;
    // The replay gets its own copy of the persisted set, so the daemon's
    // write-behind of fresh sources cannot turn its misses into hits.
    let replay_disk = match &prepared.disk {
        Some(dir) => {
            let copy = work.join("replay-disk");
            copy_dir(dir, &copy)?;
            Some(copy)
        }
        None => None,
    };
    let mut replay = trace::Replay::new(drive::options(nproc, None).threads, replay_disk);
    if prepared.server.is_some() {
        for (seq, (line, response)) in prepared.primed.iter().enumerate() {
            replay.handle(seq as u64, 0, line, response);
        }
    }
    replay.reset_counters();
    let mut e2e_ns = 0u64;
    let mut replay_ns = 0u64;
    let mut ops = Vec::new();
    let r = measure(
        &prepared,
        args.seconds,
        nproc,
        Some(&mut |entry| {
            let started = Instant::now();
            match entry {
                Entry::Reboot => replay.reboot(),
                Entry::Req(l) => {
                    replay.handle(ops.len() as u64, l.req.id, &l.req.line, &l.response);
                    e2e_ns += l.latency_ns;
                    ops.push((l.req.op, l.latency_ns));
                }
            }
            replay_ns += started.elapsed().as_nanos() as u64;
        }),
    )?;
    println!("daemon pass (untraced, in lockstep with the replay)");
    report_checks(&r);
    replay.finish();
    let replay_s = replay_ns as f64 / 1e9;
    let report = trace::report(&replay, &r.store, e2e_ns);

    let spans_dir = work.parent().expect("work dir has a parent").join("spans");
    std::fs::create_dir_all(&spans_dir).map_err(|e| e.to_string())?;
    let spans_path = spans_dir.join(format!("{}-{}.tsv", args.workload.name(), args.seed));
    replay
        .rec
        .write_tsv(&spans_path)
        .map_err(|e| e.to_string())?;

    let span_ns = trace::span_cost_ns();
    let layer_ms = report.layer_sum_ns as f64 / 1e6;
    let e2e_ms = report.e2e_sum_ns as f64 / 1e6;
    let reconciled = layer_ms <= e2e_ms * (1.0 + LAYER_SUM_TOLERANCE);
    println!("layer-sum reconciliation");
    println!(
        "  layer_sum_ms {layer_ms:.3} untraced_e2e_ms {e2e_ms:.3} (n={} requests) \
         unattributed_share {:.4} tolerance {LAYER_SUM_TOLERANCE} -> {}",
        r.attempted,
        1.0 - layer_ms / e2e_ms,
        if reconciled {
            "ok"
        } else {
            "FAIL: the layers exceed end to end"
        }
    );
    println!(
        "  tracing_overhead_share {:.5} ({} spans x {span_ns:.1} ns / layer sum); \
         replay wall {replay_s:.3} s; spans written to {}",
        report.spans as f64 * span_ns / report.layer_sum_ns.max(1) as f64,
        report.spans,
        spans_path.display()
    );
    let counts = &replay.counts;
    let mirrored = (counts.hits, counts.misses, counts.disk_hits)
        == (r.store.hits, r.store.misses, r.store.disk_hits);
    println!(
        "  store mirror: daemon hits/misses/disk_hits {}/{}/{}, replay {}/{}/{} -> {}",
        r.store.hits,
        r.store.misses,
        r.store.disk_hits,
        counts.hits,
        counts.misses,
        counts.disk_hits,
        if mirrored { "ok" } else { "FAIL" }
    );
    if let Some(why) = &replay.first_divergence {
        println!("  DIVERGENCE ({} requests) {why}", replay.divergences);
    }
    // Where the layer sum sits against end to end, op by op.
    let mut by_op: std::collections::BTreeMap<Op, (usize, u64, u64)> = Default::default();
    for (span, own) in replay.rec.spans.iter().zip(replay.rec.self_times()) {
        if span.name != "request" {
            by_op.entry(ops[span.req as usize].0).or_default().2 += own;
        }
    }
    for &(op, ns) in &ops {
        let e = by_op.entry(op).or_default();
        e.0 += 1;
        e.1 += ns;
    }
    for (op, (n, e2e, layers)) in by_op {
        println!(
            "  {:<16} n={n:<6} untraced_e2e_ms {:>10.3} layer_sum_ms {:>10.3} share {:.3}",
            format!("{op:?}"),
            e2e as f64 / 1e6,
            layers as f64 / 1e6,
            layers as f64 / e2e.max(1) as f64
        );
    }
    println!("per-layer (traced replay; medians are per call or per request)");
    for &(name, value, unit, n) in &report.metrics {
        metric_line(name, value, unit, &format!("(n={n})"));
    }
    let correct = checks_pass(&r) && reconciled && mirrored && replay.divergences == 0;
    let metrics: Vec<_> = report.metrics.iter().map(|m| (m.0, m.1, m.2)).collect();
    result_line(correct, r.attempted, r.mismatches, &metrics);
    Ok(correct)
}
