//! PBSM benchmark: one command per workload.
//!
//! ```text
//! cargo run --release --manifest-path pbsmbench/Cargo.toml -- \
//!     --workload tiger_cold --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `--trace 0` is the timed run and prints the end-to-end metrics;
//! `--trace 1` is the separate traced run and prints the per-layer
//! metrics. Both print a human-readable table and then, as the last line
//! of standard output, one JSON object. Every join and selection is
//! checked against a reference computed at set-up; the exit code is
//! non-zero on any failure. See NOTES.md for the workloads and metrics.

mod data;
mod layers;
mod run;
mod stats;
mod trace;

use data::{setup, Env, Reference, Workload};
use run::{Join, Timed};
use stats::summarize;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median. The timed run measures
/// one segment of `--seconds / SETUPS` on each set-up, so its medians pool
/// rounds from five separately built databases spread over the run.
const SETUPS: usize = 5;
/// Scale of the generated data (1.0 = the paper's cardinalities).
const DEFAULT_SCALE: f64 = 0.2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = DEFAULT_SCALE;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("expected 0 < seconds <= 120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--scale" => {
                scale = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(bad("expected 0 < scale <= 1"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` when there is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head,
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        r => r.chars().take(12).collect(),
    }
}

struct Output {
    metrics: Vec<(&'static str, f64, &'static str)>,
    table: String,
}

impl Output {
    fn new() -> Output {
        Output {
            metrics: Vec::new(),
            table: String::new(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let _ = writeln!(self.table, "  {name:<28} {value:>14.6} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// A timing reported as its median, with the tail and sample count
    /// on the human-readable line.
    fn timing(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        match summarize(samples) {
            Some(s) => {
                let _ = writeln!(
                    self.table,
                    "  {name:<28} {:>14.6} {unit}  (median; p{} {:.6}; n={})",
                    s.median, s.tail_pct, s.tail, s.n
                );
                self.metrics.push((name, s.median, unit));
            }
            None => self.metric(name, 0.0, unit),
        }
    }

    fn json(&self, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            metrics.join(", ")
        )
    }
}

fn end_to_end(out: &mut Output, setup_s: &[f64], timed: &Timed, env: &Env) {
    out.timing("setup_s", setup_s, "s");
    for join in Join::ALL {
        out.timing(join.metric(), &timed.join_s[join as usize], "s");
    }
    out.metric(
        "join_tuples_per_s",
        timed.tuples_joined as f64 / timed.wall_s,
        "tuples/s",
    );
    let mut sel = timed.select_ms.clone();
    sel.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        if sel.is_empty() {
            0.0
        } else {
            stats::percentile(&sel, p)
        }
    };
    out.metric("select_p50_ms", pct(50.0), "ms");
    out.metric("select_p99_ms", pct(99.0), "ms");
    if let Some(s) = summarize(&sel) {
        let _ = writeln!(
            out.table,
            "  {:<28} {:>14} selections (tail p{} = {:.6} ms)",
            "", s.n, s.tail_pct, s.tail
        );
    }
    out.metric(
        "selects_per_s",
        timed.select_ms.len() as f64 / timed.select_wall_s,
        "1/s",
    );
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    let _ = writeln!(
        out.table,
        "  failed_frac {} / {} = {:.6}  (joins per round: {}; timed wall {:.3} s; {} rounds)",
        timed.tally.failed,
        timed.tally.attempted,
        timed.tally.failed as f64 / timed.tally.attempted.max(1) as f64,
        Join::ALL.len(),
        timed.wall_s,
        timed.io_s_per_round.len()
    );
    // Modeled disk time is deterministic by design, so it is reported
    // here and through the per-layer disk counts, not as a metric.
    let io = &timed.io_s_per_round;
    let _ = writeln!(
        out.table,
        "  modeled_io_s per round {:.6} s (min {:.6}, max {:.6}; identical across rounds: {}); \
         |R|+|S| = {}",
        stats::median(io),
        io.iter().copied().fold(f64::INFINITY, f64::min),
        io.iter().copied().fold(0.0, f64::max),
        stats::identical(io),
        env.join_tuples()
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: pbsmbench --workload <tiger_cold|sequoia_warm> \
                 --seed <n> --seconds <s> --trace <0|1> [--scale <f>]"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "pbsmbench workload={} seed={} seconds={} trace={} scale={} pool_mb={} shards={} \
         shard_pool_mb={} nproc={} rev={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        w.pool_mb(),
        data::SHARDS,
        w.pool_mb(),
        nproc,
        git_rev()
    );

    let mut tracer = Tracer::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut timed_setup = |tracer: &mut Tracer| {
        tracer.begin_request();
        let t = Instant::now();
        let env = setup(w, args.scale, tracer);
        setup_s.push(t.elapsed().as_secs_f64());
        env
    };
    let mut env = timed_setup(&mut tracer);
    // Generation and loading are deterministic, so every later set-up
    // yields the same OIDs and this reference holds for all of them.
    let reference = Reference::compute(&env, args.seed);
    println!(
        "data: {} ⋈ {} = {} + {} tuples, {:.1} MB of heaps and indexes; reference {} pairs; \
         {} windows",
        env.spec.left,
        env.spec.right,
        env.left.len(),
        env.right.len(),
        env.data_mb(),
        reference.pairs.len(),
        reference.windows.len()
    );

    let mut out = Output::new();
    let (attempted, failed) = if args.trace {
        for _ in 1..SETUPS {
            drop(env);
            env = timed_setup(&mut tracer);
        }
        let (metrics, attempted, failed) =
            layers::traced(&mut env, &reference, &mut tracer, args.seconds);
        let mut self_times = String::new();
        for (name, v) in tracer.self_by_request() {
            let _ = writeln!(
                self_times,
                "  {name:<28} {:>12.6} s median self time over {} requests",
                stats::median(&v),
                v.len()
            );
        }
        println!("self time per span:\n{self_times}");
        for m in metrics {
            out.metric(m.name, m.value, m.unit);
        }
        eprint!("{}", tracer.to_json_lines());
        (attempted, failed)
    } else {
        // Each segment runs on a database of its own set-up: a run's
        // timings then pool five memory layouts and five stretches of the
        // run instead of resting on the layout of a single set-up.
        let mut timed = Timed::default();
        for i in 0..SETUPS {
            if i > 0 {
                drop(env);
                env = timed_setup(&mut tracer);
            }
            let segment = run::single_client(&mut env, &reference, args.seconds / SETUPS as f64);
            timed.absorb(segment);
        }
        end_to_end(&mut out, &setup_s, &timed, &env);
        (timed.tally.attempted, timed.tally.failed)
    };
    print!("{}", out.table);
    println!("{}", out.json(attempted, failed));
    drop(env);
    if failed > 0 {
        std::process::exit(1);
    }
}
