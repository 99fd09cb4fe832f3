//! The sharded scatter-gather harness: K-shard joins checked against the
//! unsharded single-engine oracle, plus the shard crash sweep.
//!
//! Two halves, both written into `bench_results/shard.{json,txt}` by the
//! `shard_bench` binary:
//!
//! 1. **Scatter-gather bench** — every algorithm × K ∈ {1, 2, 4} shards
//!    on the TIGER road ⋈ hydrography workload. Result counts, pair-list
//!    checksums, and replication counts are recorded as deterministic
//!    metrics (byte-identical run to run); per-K wall times are recorded
//!    as informational timings (scaling numbers, never gated).
//! 2. **Shard crash sweep** — every (crash-point × seed × algorithm ×
//!    crashed-shard) cell kills exactly one shard mid-join with a
//!    deterministic `crash_at` schedule and requires the coordinator to
//!    contain it: the merged result must equal the unsharded oracle, the
//!    victim must actually have been recovered and resumed, every shard's
//!    post-join residue must equal the fault-free baseline (zero orphans
//!    beyond the rebuildable index files), and every shard's durable
//!    gauges must be back at their post-load baseline.
//!
//! Knobs: `PBSM_SHARD_COUNT` (default 3) shards in the sweep,
//! `PBSM_SHARD_CRASH_POINTS` (default 3) crash points per (algorithm,
//! seed, shard), `PBSM_CHAOS_SEEDS` shared with the chaos harness, and
//! `PBSM_SCALE` as everywhere.

use crate::chaos::{self, catch_quietly, dump_flight, Verdict};
use crate::{env_var, Report};
use pbsm_datagen::tiger::{self, TigerConfig};
use pbsm_geom::predicates::SpatialPredicate;
use pbsm_join::shard::{universe_of, unsharded_join_keys};
use pbsm_join::{Algorithm, JoinConfig, JoinSpec, ShardedDb, ShardedDbConfig, ShardedJoinOutcome};
use pbsm_storage::tuple::SpatialTuple;
use pbsm_storage::{Db, FaultConfig, TelemetryBaseline};
use std::time::Instant;

/// Shard count of the crash sweep, from `PBSM_SHARD_COUNT`.
pub fn shard_count() -> usize {
    env_var("PBSM_SHARD_COUNT")
        .and_then(|v| v.trim().parse().ok())
        .filter(|&k| k >= 2)
        .unwrap_or(3)
}

/// Crash points per (algorithm, seed, shard), from
/// `PBSM_SHARD_CRASH_POINTS`.
pub fn crash_points() -> usize {
    env_var("PBSM_SHARD_CRASH_POINTS")
        .and_then(|v| v.trim().parse().ok())
        .filter(|&p| p >= 1)
        .unwrap_or(3)
}

/// Same join configuration as the unsharded crash sweep: a small fixed
/// work memory forces several partitions per shard, so PBSM checkpoints
/// land throughout each shard's op window and mid-join crashes exercise
/// partial resumes.
fn shard_config() -> JoinConfig {
    JoinConfig {
        work_mem_bytes: 64 * 1024,
        num_tiles: 256,
        ..JoinConfig::default()
    }
}

/// The sweep's workload: the TIGER road ⋈ hydrography intersection at
/// the session scale, as raw tuple vectors (the sharded coordinator does
/// its own loading).
fn workload() -> (Vec<SpatialTuple>, Vec<SpatialTuple>, JoinSpec) {
    let cfg = TigerConfig::scaled(crate::scale());
    let road = tiger::road(&cfg);
    let hydro = tiger::hydrography(&cfg);
    let spec = JoinSpec::new("road", "hydrography", SpatialPredicate::Intersects);
    (road, hydro, spec)
}

/// The unsharded single-engine oracle every sharded configuration must
/// merge to.
fn oracle_keys(left: &[SpatialTuple], right: &[SpatialTuple], spec: &JoinSpec) -> Vec<(u64, u64)> {
    unsharded_join_keys(left, right, spec, &shard_config()).expect("oracle join")
}

/// FNV-1a over the sorted pair list — the byte-identity witness recorded
/// as a gated-class metric.
fn pairs_checksum(pairs: &[(u64, u64)]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for &(a, b) in pairs {
        mix(a);
        mix(b);
    }
    h
}

/// Builds a fresh K-shard coordinator with the workload loaded —
/// deterministic, so every cell of the sweep sees byte-identical disks
/// and the probe's op windows transfer exactly.
fn build_sharded(k: usize, left: &[SpatialTuple], right: &[SpatialTuple]) -> ShardedDb {
    let universe = universe_of(&[left, right]);
    let mut sdb = ShardedDb::new(ShardedDbConfig::with_shards(k), universe);
    sdb.load_relation("road", left, false).expect("shard load");
    sdb.load_relation("hydrography", right, false)
        .expect("shard load");
    // Cold caches, as after the builders everywhere else: joins must hit
    // the disk, so every algorithm has a real op window for the crash
    // schedule to land in.
    for s in 0..k {
        if let Some(db) = sdb.shard_db(s) {
            db.pool().clear_cache().expect("clear cache");
        }
    }
    sdb
}

/// Half 1: the scatter-gather bench. Returns false if any configuration
/// diverged from the oracle.
pub fn run_shard_bench(report: &mut Report) -> bool {
    let (left, right, spec) = workload();
    let oracle = oracle_keys(&left, &right, &spec);
    let checksum = pairs_checksum(&oracle);
    report.line(&format!(
        "# scatter-gather: {} road x {} hydrography tuples, oracle {} pairs",
        left.len(),
        right.len(),
        oracle.len()
    ));
    report.metric("shard.oracle.pairs", oracle.len() as f64);
    report.metric(
        "shard.oracle.checksum_lo32",
        (checksum & 0xffff_ffff) as f64,
    );
    report.blank();

    let mut ok = true;
    let mut rows = Vec::new();
    for k in [1usize, 2, 4] {
        let mut sdb = build_sharded(k, &left, &right);
        let (input, copies) = sdb.replication();
        report.metric(&format!("shard.k{k}.replicas"), copies as f64);
        for alg in Algorithm::ALL {
            let t0 = Instant::now();
            let out = match sdb.join(alg, &spec, &shard_config()) {
                Ok(out) => out,
                Err(e) => {
                    report.line(&format!("# k={k} {}: FAILED: {e}", alg.key()));
                    ok = false;
                    continue;
                }
            };
            let wall = t0.elapsed().as_secs_f64();
            let identical = out.pairs == oracle;
            ok &= identical;
            report.metric(
                &format!("shard.k{k}.{}.pairs", alg.key()),
                out.pairs.len() as f64,
            );
            report.metric(
                &format!("shard.k{k}.{}.match", alg.key()),
                identical as u64 as f64,
            );
            // Scaling numbers are wall-clock and machine-dependent:
            // informational only, never gated.
            report.timing(&format!("shard.k{k}.{}.wall_s", alg.key()), wall);
            rows.push(vec![
                format!("{k}"),
                alg.key().to_string(),
                format!("{}", out.pairs.len()),
                if identical { "identical" } else { "MISMATCH" }.to_string(),
                format!(
                    "{:.1}%",
                    100.0 * copies as f64 / input.max(1) as f64 - 100.0
                ),
                format!("{wall:.3}s"),
            ]);
        }
    }
    report.table(
        &[
            "shards",
            "algorithm",
            "pairs",
            "vs oracle",
            "replication",
            "wall",
        ],
        &rows,
    );
    report.blank();
    ok
}

/// One (algorithm, seed, crash-point, crashed-shard) cell of the sweep.
pub struct ShardCrashCase {
    pub alg: Algorithm,
    pub seed: u64,
    pub victim: usize,
    pub crash_op: u64,
    pub verdict: Verdict,
    /// True when the coordinator actually contained a crash on the
    /// victim (false means the sampled op landed past the victim's
    /// window and the join completed untouched).
    pub contained: bool,
    pub resumed_pairs: u64,
    pub resumed_runs: u64,
}

/// The whole sweep plus the tallies the exit code gates on.
pub struct ShardCrashSummary {
    pub cases: Vec<ShardCrashCase>,
}

impl ShardCrashSummary {
    pub fn all_acceptable(&self) -> bool {
        self.cases.iter().all(|c| c.verdict.acceptable())
    }

    pub fn contained_total(&self) -> u64 {
        self.cases.iter().filter(|c| c.contained).count() as u64
    }

    /// Checkpointed work actually reused across the sweep — must be
    /// nonzero or the resume path is inert and the harness fails.
    pub fn resumed_total(&self) -> u64 {
        self.cases
            .iter()
            .map(|c| c.resumed_pairs + c.resumed_runs)
            .sum()
    }

    fn count(&self, label: &str) -> u64 {
        self.cases
            .iter()
            .filter(|c| c.verdict.label() == label)
            .count() as u64
    }
}

/// Audits one recovered coordinator after a contained-crash join: every
/// shard's allocator must reconcile, every shard's durable gauges must be
/// back at the post-load baseline, and one more recovery pass per shard
/// must find no join in flight and exactly the fault-free residue.
fn audit_shards(
    sdb: ShardedDb,
    baselines: &[TelemetryBaseline],
    residue: &[(u64, u64)],
) -> Result<(), String> {
    let k = sdb.num_shards();
    for (s, base) in baselines.iter().enumerate().take(k) {
        let db = sdb.shard_db(s).ok_or_else(|| format!("shard {s} gone"))?;
        // The sweep is over; nothing may crash or fault during the audit.
        db.pool().disk_mut().set_faults(None);
        let held = db.held_pages();
        let tb = db.telemetry_baseline();
        if tb.live_pages != held {
            return Err(format!(
                "shard {s}: live_pages {} != held pages {held}",
                tb.live_pages
            ));
        }
        // The journal legitimately grows with intent/checkpoint records;
        // everything else durable must be exactly back at baseline.
        let durable = tb.live_pages - tb.journal_pages;
        let base_durable = base.live_pages - base.journal_pages;
        if durable != base_durable {
            return Err(format!(
                "shard {s}: durable pages {durable} != baseline {base_durable}"
            ));
        }
        if tb.journal_open_intents != base.journal_open_intents {
            return Err(format!(
                "shard {s}: {} open intents != baseline {}",
                tb.journal_open_intents, base.journal_open_intents
            ));
        }
    }
    for (s, db) in sdb.into_dbs().into_iter().enumerate() {
        match Db::recover(db.config(), db.into_disk()) {
            Ok((_, audit)) => {
                if audit.join.is_some() {
                    return Err(format!("shard {s}: join still in flight after the query"));
                }
                if (audit.orphan_files, audit.orphan_pages) != residue[s] {
                    return Err(format!(
                        "shard {s}: residue {} files / {} pages (fault-free leaves {} / {})",
                        audit.orphan_files, audit.orphan_pages, residue[s].0, residue[s].1
                    ));
                }
            }
            Err(e) => return Err(format!("shard {s}: audit recovery failed: {e}")),
        }
    }
    Ok(())
}

/// One cell: fresh deterministic build, one shard armed to crash at a
/// fixed disk operation, one coordinator join that must contain it.
#[allow(clippy::too_many_arguments)]
fn run_shard_crash_case(
    alg: Algorithm,
    seed: u64,
    victim: usize,
    crash_op: u64,
    k: usize,
    left: &[SpatialTuple],
    right: &[SpatialTuple],
    spec: &JoinSpec,
    oracle: &[(u64, u64)],
    residue: &[(u64, u64)],
) -> ShardCrashCase {
    let mut case = ShardCrashCase {
        alg,
        seed,
        victim,
        crash_op,
        verdict: Verdict::Identical,
        contained: false,
        resumed_pairs: 0,
        resumed_runs: 0,
    };
    pbsm_obs::flight::clear();
    let mut sdb = build_sharded(k, left, right);
    let baselines = sdb.telemetry_baselines();
    match sdb.shard_db(victim) {
        Some(db) => db
            .pool()
            .disk_mut()
            .set_faults(Some(FaultConfig::crash_at(seed, crash_op))),
        None => {
            case.verdict = Verdict::Broken(format!("victim shard {victim} missing"));
            return case;
        }
    }

    // The coordinator must contain the crash itself — the harness only
    // silences the panic hook so a contained abort does not spray a
    // backtrace into the report.
    let joined = catch_quietly(|| sdb.join(alg, spec, &shard_config()).map(|out| (sdb, out)));
    let (sdb, out): (ShardedDb, ShardedJoinOutcome) = match joined {
        Err(msg) => {
            case.verdict = Verdict::Panic(msg);
            return case;
        }
        Ok(Err(e)) => {
            case.verdict = Verdict::Broken(format!("coordinator surfaced: {e}"));
            return case;
        }
        Ok(Ok(x)) => x,
    };
    case.contained = out.shards[victim].crash_contained;
    case.resumed_pairs = out.shards[victim].join.resumed_pairs;
    case.resumed_runs = out.shards[victim].join.resumed_runs;
    // Siblings must be untouched: no other shard may report a crash.
    if out.crashes_contained() > 1 {
        case.verdict = Verdict::Broken("a sibling shard also reported a crash".to_string());
        return case;
    }
    if out.pairs != oracle {
        case.verdict = Verdict::Mismatch(oracle.len() as u64, out.pairs.len() as u64);
        return case;
    }
    if let Err(msg) = audit_shards(sdb, &baselines, residue) {
        case.verdict = Verdict::Broken(msg);
    }
    case
}

/// Half 2: the shard crash sweep — every (crash-point × seed × algorithm
/// × crashed-shard) cell.
pub fn run_shard_crash_sweep(report: &mut Report) -> ShardCrashSummary {
    let k = shard_count();
    let points = crash_points();
    let seeds = chaos::seeds();
    let (left, right, spec) = workload();
    let oracle = oracle_keys(&left, &right, &spec);
    report.line(&format!(
        "# shard crash sweep: {k} shards, {points} crash points per (algorithm, seed, shard), \
         seeds {seeds:?}"
    ));
    report.blank();

    let mut cases = Vec::new();
    let mut rows = Vec::new();
    for alg in Algorithm::ALL {
        // Probe: the same deterministic build, fault-free. Yields each
        // shard's disk-operation window (to aim the crash points) and the
        // residue a clean query leaves per shard (the rebuildable index
        // files — "zero orphans" means nothing beyond that).
        let mut sdb = build_sharded(k, &left, &right);
        let ops_before: Vec<u64> = (0..k)
            .map(|s| sdb.shard_db(s).map_or(0, |db| db.pool().disk().total_ops()))
            .collect();
        match sdb.join(alg, &spec, &shard_config()) {
            Ok(out) if out.pairs == oracle => {}
            Ok(_) => {
                report.line(&format!("# {}: probe diverged from oracle", alg.key()));
            }
            Err(e) => {
                report.line(&format!("# {}: probe failed: {e}", alg.key()));
            }
        }
        let windows: Vec<u64> = (0..k)
            .map(|s| {
                sdb.shard_db(s)
                    .map_or(0, |db| db.pool().disk().total_ops() - ops_before[s])
            })
            .collect();
        let residue: Vec<(u64, u64)> = sdb
            .into_dbs()
            .into_iter()
            .map(|db| match Db::recover(db.config(), db.into_disk()) {
                Ok((_, s)) => (s.orphan_files, s.orphan_pages),
                Err(_) => (u64::MAX, u64::MAX),
            })
            .collect();

        for &seed in &seeds {
            for (victim, &window) in windows.iter().enumerate().take(k) {
                for p in 0..points {
                    // Evenly spread across the victim's own op window —
                    // except the last point, pinned at 90%: checkpoints
                    // are only alive during the refinement tail (a pair's
                    // candidate file is dropped once consumed), so a
                    // uniform spread would never exercise a real resume.
                    let w = window.saturating_sub(1);
                    let crash_op = if p + 1 == points && points > 1 {
                        1 + w * 9 / 10
                    } else {
                        1 + w * p as u64 / points as u64
                    };
                    let case = run_shard_crash_case(
                        alg, seed, victim, crash_op, k, &left, &right, &spec, &oracle, &residue,
                    );
                    if !case.verdict.acceptable() {
                        dump_flight(&format!(
                            "shard_{}_{}_s{}_{}",
                            alg.key(),
                            seed,
                            victim,
                            crash_op
                        ));
                    }
                    rows.push(vec![
                        alg.key().to_string(),
                        format!("{seed}"),
                        format!("{victim}"),
                        format!("{}/{}", case.crash_op, window),
                        case.verdict.label().to_string(),
                        if case.contained { "yes" } else { "-" }.to_string(),
                        format!("{}", case.resumed_pairs),
                        format!("{}", case.resumed_runs),
                        case.verdict.detail(oracle.len()),
                    ]);
                    cases.push(case);
                }
            }
        }
    }
    report.table(
        &[
            "algorithm",
            "seed",
            "victim",
            "crash op",
            "verdict",
            "contained",
            "res-pairs",
            "res-runs",
            "detail",
        ],
        &rows,
    );

    let summary = ShardCrashSummary { cases };
    report.blank();
    for label in ["identical", "MISMATCH", "PANIC", "BROKEN"] {
        report.line(&format!("{label:>12}: {}", summary.count(label)));
    }
    report.line(&format!(
        "crashes contained: {} | resumed pairs+runs: {}",
        summary.contained_total(),
        summary.resumed_total()
    ));
    // Like crash.json: not in `HARNESSES`, so these enter bench_compare
    // as informational NewMetric rows — but the invariants are recorded:
    // mismatches/panics/broken must be zero, contained and resumed
    // nonzero.
    report.metric("shard.crash.cases", summary.cases.len() as f64);
    report.metric("shard.crash.mismatches", summary.count("MISMATCH") as f64);
    report.metric("shard.crash.panics", summary.count("PANIC") as f64);
    report.metric("shard.crash.broken", summary.count("BROKEN") as f64);
    report.timing("shard.crash.identical", summary.count("identical") as f64);
    report.timing("shard.crash.contained", summary.contained_total() as f64);
    report.timing("shard.crash.resumed", summary.resumed_total() as f64);
    summary
}
