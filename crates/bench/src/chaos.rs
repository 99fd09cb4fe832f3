//! The chaos harness: seeded fault schedules swept across all three join
//! algorithms, checked against a fault-free oracle.
//!
//! The contract under test is the storage stack's fault story end to end:
//! under any [`FaultConfig::chaos`] schedule, a join either
//!
//! 1. produces **exactly** the oracle's result pairs (transient faults
//!    absorbed by the buffer pool's bounded retry, ENOSPC absorbed by
//!    PBSM's degradation loop), or
//! 2. surfaces a **clean typed** [`StorageError`] (`RetriesExhausted`,
//!    `Corruption`, `DiskFull`, …),
//!
//! and **never** panics and **never** returns silently wrong results.
//!
//! Every case is deterministic: the workload generators are seeded, the
//! fault schedule is a pure function of `(seed, operation index)`, and the
//! retry loop replays bursts without consuming the decision stream — so a
//! failing `(algorithm, seed)` cell reproduces exactly under a debugger.
//!
//! Knobs (also echoed into `bench_results/chaos.json`):
//!
//! * `PBSM_CHAOS_SEEDS` — comma-separated schedule seeds
//!   (default `13,1996,271828`).
//! * `PBSM_CHAOS_PPM` — base fault rate in parts per million
//!   (default 1500); torn-write and ENOSPC rates run at a quarter of it.
//! * `PBSM_SCALE` — workload scale, as everywhere in the bench crate.
//!
//! [`StorageError`]: pbsm_storage::StorageError

use crate::{
    env_parse, env_var, run_join, tiger_db, tiger_db_journaled, tiger_spec, try_join, Algorithm,
    Report, TigerSet,
};
use pbsm_join::shard::panic_text;
use pbsm_join::{JoinConfig, JoinSpec};
use pbsm_storage::{Db, FaultConfig, FaultTally, Oid, StorageError};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default schedule seeds — fixed so CI runs are comparable over time.
pub const DEFAULT_SEEDS: [u64; 3] = [13, 1996, 271828];

/// Default base fault rate (parts per million of page operations).
pub const DEFAULT_PPM: u32 = 1500;

/// How one `(algorithm, seed)` cell ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Faults were absorbed; results match the oracle bit-for-bit.
    Identical,
    /// A typed storage error surfaced (the message names it).
    CleanError(String),
    /// Results differ from the oracle — the one outcome that must never
    /// happen silently. Carries `(oracle_pairs, got_pairs)`.
    Mismatch(u64, u64),
    /// The join panicked (payload text).
    Panic(String),
    /// The kill–restart–verify loop hit a state it must never see: a
    /// non-crash error before the crash point, a failed recovery or
    /// resume, or files/pages leaked past the resumed join.
    Broken(String),
}

impl Verdict {
    /// Identical and clean errors are acceptable; mismatches and panics
    /// fail the harness.
    pub fn acceptable(&self) -> bool {
        matches!(self, Verdict::Identical | Verdict::CleanError(_))
    }

    /// Short label for tables and counters.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::CleanError(_) => "clean-error",
            Verdict::Mismatch(..) => "MISMATCH",
            Verdict::Panic(_) => "PANIC",
            Verdict::Broken(_) => "BROKEN",
        }
    }

    /// The sweep tables' "detail" column.
    pub fn detail(&self, oracle_len: usize) -> String {
        match self {
            Verdict::Identical => format!("{oracle_len} pairs"),
            Verdict::CleanError(msg) | Verdict::Panic(msg) | Verdict::Broken(msg) => msg.clone(),
            Verdict::Mismatch(want, got) => format!("oracle {want} pairs, got {got}"),
        }
    }
}

/// One `(algorithm, seed)` cell of the sweep.
pub struct ChaosCase {
    pub algorithm: Algorithm,
    pub seed: u64,
    pub verdict: Verdict,
    /// Faults the schedule injected during this run.
    pub faults: FaultTally,
    /// Degraded ENOSPC re-runs (PBSM only; 0 elsewhere).
    pub recovery_retries: u64,
}

/// The whole sweep, plus tallies for the exit code and the report.
pub struct ChaosSummary {
    pub cases: Vec<ChaosCase>,
    pub ppm: u32,
}

impl ChaosSummary {
    /// True when no case mismatched or panicked.
    pub fn all_acceptable(&self) -> bool {
        self.cases.iter().all(|c| c.verdict.acceptable())
    }

    fn count(&self, label: &str) -> u64 {
        self.cases
            .iter()
            .filter(|c| c.verdict.label() == label)
            .count() as u64
    }
}

/// Seeds from `PBSM_CHAOS_SEEDS`, or the fixed defaults.
pub fn seeds() -> Vec<u64> {
    env_var("PBSM_CHAOS_SEEDS")
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<u64>| !v.is_empty())
        .unwrap_or_else(|| DEFAULT_SEEDS.to_vec())
}

/// Base fault rate from `PBSM_CHAOS_PPM`, or the default.
pub fn ppm() -> u32 {
    env_parse("PBSM_CHAOS_PPM", DEFAULT_PPM)
}

/// Runs `f` with the panic hook silenced and returns a panic as its
/// payload text: a sweep records a panic as a red table row, not a
/// backtrace.
pub fn catch_quietly<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(prev_hook);
    result.map_err(panic_text)
}

/// Writes the flight-recorder ring to `bench_results/flight_<tag>.txt`.
///
/// Called whenever a sweep cell ends unacceptably, so "exit 1" comes
/// with the structured events (faults injected, retries, journal
/// intents, recovery decisions) that led up to the failure. Returns the
/// dump path.
pub fn dump_flight(tag: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("bench_results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("flight_{tag}.txt"));
    match std::fs::write(&path, pbsm_obs::flight::dump()) {
        Ok(()) => eprintln!("[flight recorder dumped to {}]", path.display()),
        Err(e) => eprintln!("could not dump flight recorder to {}: {e}", path.display()),
    }
    path
}

/// Runs one algorithm on a fresh faulted database and classifies the
/// outcome against the oracle pairs.
fn run_case(alg: Algorithm, seed: u64, ppm: u32, oracle: &[(Oid, Oid)]) -> ChaosCase {
    // Build (and, for the index algorithms, bulk-load) fault-free, then
    // arm the schedule: the contract under test is join execution, not
    // data loading. The flight ring restarts with the case, so a dump on
    // failure shows only this cell's events.
    pbsm_obs::flight::clear();
    let db = tiger_db(2, TigerSet::RoadHydro, false);
    let spec = tiger_spec(TigerSet::RoadHydro);
    let config = JoinConfig::for_db(&db);
    db.pool()
        .disk_mut()
        .set_faults(Some(FaultConfig::chaos(seed, ppm)));

    // The join must never panic.
    let result = catch_quietly(|| try_join(alg, &db, &spec, &config, None));

    let faults = db.pool().disk().fault_tally();
    let (verdict, recovery_retries) = match result {
        Ok(Ok(out)) => {
            if out.pairs == oracle {
                (Verdict::Identical, out.stats.recovery_retries)
            } else {
                (
                    Verdict::Mismatch(oracle.len() as u64, out.pairs.len() as u64),
                    out.stats.recovery_retries,
                )
            }
        }
        Ok(Err(e)) => (Verdict::CleanError(e.to_string()), 0),
        Err(msg) => (Verdict::Panic(msg), 0),
    };
    ChaosCase {
        algorithm: alg,
        seed,
        verdict,
        faults,
        recovery_retries,
    }
}

/// The full sweep: every algorithm × every seed, each against that
/// algorithm's own fault-free oracle run on identical data.
pub fn run_sweep(report: &mut Report) -> ChaosSummary {
    let ppm = ppm();
    let seeds = seeds();
    let spec = tiger_spec(TigerSet::RoadHydro);
    report.line(&format!(
        "# fault rate {ppm} ppm (torn/enospc at {} ppm), seeds {seeds:?}",
        ppm / 4
    ));
    report.blank();

    let mut cases = Vec::new();
    let mut rows = Vec::new();
    for alg in Algorithm::ALL {
        // The oracle: same data, same config, perfect device.
        let db = tiger_db(2, TigerSet::RoadHydro, false);
        let oracle = run_join(alg, &db, &spec, &JoinConfig::for_db(&db)).pairs;
        drop(db);

        for &seed in &seeds {
            let case = run_case(alg, seed, ppm, &oracle);
            if !case.verdict.acceptable() {
                dump_flight(&format!("chaos_{}_{}", alg.key(), seed));
            }
            rows.push(vec![
                alg.name().to_string(),
                format!("{seed}"),
                case.verdict.label().to_string(),
                format!("{}", case.faults.transient_reads),
                format!("{}", case.faults.transient_writes),
                format!("{}", case.faults.torn_writes),
                format!("{}", case.faults.enospc),
                format!("{}", case.recovery_retries),
                case.verdict.detail(oracle.len()),
            ]);
            cases.push(case);
        }
    }
    report.table(
        &[
            "algorithm",
            "seed",
            "verdict",
            "rd-flt",
            "wr-flt",
            "torn",
            "enospc",
            "degrades",
            "detail",
        ],
        &rows,
    );

    let summary = ChaosSummary { cases, ppm };
    report.blank();
    for label in ["identical", "clean-error", "MISMATCH", "PANIC"] {
        report.line(&format!("{label:>12}: {}", summary.count(label)));
    }
    // chaos.json is informational (the harness is not in `HARNESSES`, so
    // bench_compare never gates on it), but record the invariants anyway:
    // mismatches and panics must be zero on every run.
    report.metric("chaos.cases", summary.cases.len() as f64);
    report.metric("chaos.mismatches", summary.count("MISMATCH") as f64);
    report.metric("chaos.panics", summary.count("PANIC") as f64);
    report.timing("chaos.identical", summary.count("identical") as f64);
    report.timing("chaos.clean_errors", summary.count("clean-error") as f64);
    report.timing(
        "chaos.faults_injected",
        summary.cases.iter().map(|c| c.faults.total()).sum::<u64>() as f64,
    );
    report.timing(
        "chaos.recovery_retries",
        summary
            .cases
            .iter()
            .map(|c| c.recovery_retries)
            .sum::<u64>() as f64,
    );
    summary
}

// ---------------------------------------------------------------------
// The kill–restart–verify sweep.
// ---------------------------------------------------------------------

/// Default crash points sampled per `(algorithm, seed)` cell, spread
/// evenly across the join's disk-operation window.
pub const DEFAULT_CRASH_POINTS: usize = 6;

/// Crash points per cell from `PBSM_CRASH_POINTS`, or the default.
pub fn crash_points() -> usize {
    env_var("PBSM_CRASH_POINTS")
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_CRASH_POINTS)
}

/// One `(algorithm, seed, crash point)` cell of the crash sweep.
pub struct CrashCase {
    pub algorithm: Algorithm,
    pub seed: u64,
    /// Disk operation (counted from join start) the crash landed on.
    pub crash_op: u64,
    pub verdict: Verdict,
    /// Orphan files recovery reclaimed at restart.
    pub recovered_files: u64,
    /// Pages those files held.
    pub recovered_pages: u64,
    /// Partition pairs the resumed join skipped via checkpoints.
    pub resumed_pairs: u64,
    /// Refinement sort runs the resumed join skipped.
    pub resumed_runs: u64,
}

/// The whole kill–restart–verify sweep.
pub struct CrashSummary {
    pub cases: Vec<CrashCase>,
    pub points: usize,
}

impl CrashSummary {
    /// True when every cell recovered to the oracle result with no
    /// residue beyond what a fault-free run leaves.
    pub fn all_acceptable(&self) -> bool {
        self.cases.iter().all(|c| c.verdict.acceptable())
    }

    /// Total partition pairs skipped by resumed PBSM joins — the proof
    /// that checkpoints actually engage (must be nonzero over a sweep
    /// with late crash points).
    pub fn resumed_pairs_total(&self) -> u64 {
        self.cases.iter().map(|c| c.resumed_pairs).sum()
    }

    fn count(&self, label: &str) -> u64 {
        self.cases
            .iter()
            .filter(|c| c.verdict.label() == label)
            .count() as u64
    }
}

/// Join configuration for the crash sweep: a small fixed work memory
/// forces several partitions even at smoke scales, so `PairDone`
/// checkpoints land throughout the merge phase and evenly spaced crash
/// points actually exercise partial resumes (with the pool-sized default
/// a single pair checkpoints only at the very end of the op window).
fn crash_config() -> JoinConfig {
    JoinConfig {
        work_mem_bytes: 64 * 1024,
        num_tiles: 256,
        ..JoinConfig::default()
    }
}

/// One kill–restart–verify cycle: crash a journaled join at a fixed disk
/// operation, recover over the surviving disk image, resume (PBSM) or
/// restart (INL, R-tree), and audit the result against the oracle and the
/// fault-free run's residue.
fn run_crash_case(
    alg: Algorithm,
    seed: u64,
    crash_op: u64,
    spec: &JoinSpec,
    oracle: &[(Oid, Oid)],
    baseline: (u64, u64),
) -> CrashCase {
    let mut case = CrashCase {
        algorithm: alg,
        seed,
        crash_op,
        verdict: Verdict::Identical,
        recovered_files: 0,
        recovered_pages: 0,
        resumed_pairs: 0,
        resumed_runs: 0,
    };
    pbsm_obs::flight::clear();
    // Same deterministic build as the probe run, so disk-operation
    // indexes line up exactly.
    let db = tiger_db_journaled(2, TigerSet::RoadHydro, crate::scale());
    let snapshot = db.catalog().snapshot();
    let config = crash_config();
    db.pool()
        .disk_mut()
        .set_faults(Some(FaultConfig::crash_at(seed, crash_op)));

    match catch_quietly(|| try_join(alg, &db, spec, &config, None)) {
        Err(msg) => {
            case.verdict = Verdict::Panic(msg);
            return case;
        }
        Ok(Ok(out)) => {
            // The sampled op landed past the join's last disk operation —
            // the join completed before the crash fired, so its (already
            // returned) result must match the oracle as-is.
            if out.pairs != oracle {
                case.verdict = Verdict::Mismatch(oracle.len() as u64, out.pairs.len() as u64);
            }
            return case;
        }
        Ok(Err(StorageError::Crashed)) => {}
        Ok(Err(e)) => {
            case.verdict = Verdict::Broken(format!("expected Crashed, got: {e}"));
            return case;
        }
    }

    // Restart: recover over the surviving disk image.
    let (db, state) = match Db::recover(db.config(), db.into_disk()) {
        Ok(x) => x,
        Err(e) => {
            case.verdict = Verdict::Broken(format!("recovery failed: {e}"));
            return case;
        }
    };
    case.recovered_files = state.orphan_files;
    case.recovered_pages = state.orphan_pages;
    // The in-memory catalog died with the crash; the harness plays the
    // durable system catalog and re-registers the committed relations.
    for meta in &snapshot {
        db.catalog_mut().put_relation(meta.clone());
    }

    // PBSM resumes from the journaled checkpoints. INL and the R-tree
    // join restart from scratch: recovery already reclaimed their
    // half-built (rebuildable) index files.
    let out = match try_join(alg, &db, spec, &config, state.join.as_ref()) {
        Ok(out) => out,
        Err(e) => {
            case.verdict = Verdict::Broken(format!("resumed join failed: {e}"));
            return case;
        }
    };
    case.resumed_pairs = out.stats.resumed_pairs;
    case.resumed_runs = out.stats.resumed_runs;
    if out.pairs != oracle {
        case.verdict = Verdict::Mismatch(oracle.len() as u64, out.pairs.len() as u64);
        return case;
    }

    // Clean-shutdown audit: one more recovery pass must find no join in
    // flight and exactly the residue a fault-free run leaves (PBSM: none;
    // the index algorithms: their rebuildable index files).
    match Db::recover(db.config(), db.into_disk()) {
        Ok((_, audit)) => {
            if audit.join.is_some() || (audit.orphan_files, audit.orphan_pages) != baseline {
                case.verdict = Verdict::Broken(format!(
                    "post-resume residue {} files / {} pages (fault-free leaves {} / {}), \
                     join in flight: {}",
                    audit.orphan_files,
                    audit.orphan_pages,
                    baseline.0,
                    baseline.1,
                    audit.join.is_some()
                ));
            }
        }
        Err(e) => case.verdict = Verdict::Broken(format!("audit recovery failed: {e}")),
    }
    case
}

/// The full kill–restart–verify sweep: every algorithm × every seed ×
/// evenly sampled crash points, each cycle checked for oracle-identical
/// results and zero leaked state.
pub fn run_crash_sweep(report: &mut Report) -> CrashSummary {
    let seeds = seeds();
    let points = crash_points();
    let spec = tiger_spec(TigerSet::RoadHydro);
    report.line(&format!(
        "# kill-restart-verify: {points} crash points per (algorithm, seed), seeds {seeds:?}"
    ));
    report.blank();

    let mut cases = Vec::new();
    let mut rows = Vec::new();
    for alg in Algorithm::ALL {
        // Probe run: the same journaled database, fault-free. Yields the
        // oracle pairs, the join's disk-operation window (to place crash
        // points), and the residue a clean run leaves behind.
        let db = tiger_db_journaled(2, TigerSet::RoadHydro, crate::scale());
        let config = crash_config();
        let ops_before = db.pool().disk().total_ops();
        let oracle = run_join(alg, &db, &spec, &config);
        let ops_in_join = db.pool().disk().total_ops() - ops_before;
        let baseline = match Db::recover(db.config(), db.into_disk()) {
            Ok((_, s)) => (s.orphan_files, s.orphan_pages),
            Err(e) => {
                report.line(&format!("# {}: probe recovery failed: {e}", alg.name()));
                (u64::MAX, u64::MAX)
            }
        };

        for &seed in &seeds {
            for k in 0..points {
                // Evenly spread across the join's op window, starting at
                // its very first disk operation.
                let crash_op = 1 + ops_in_join.saturating_sub(1) * k as u64 / points as u64;
                let case = run_crash_case(alg, seed, crash_op, &spec, &oracle.pairs, baseline);
                if !case.verdict.acceptable() {
                    dump_flight(&format!("crash_{}_{}_{}", alg.key(), seed, crash_op));
                }
                rows.push(vec![
                    alg.name().to_string(),
                    format!("{seed}"),
                    format!("{}/{ops_in_join}", case.crash_op),
                    case.verdict.label().to_string(),
                    format!("{}", case.recovered_files),
                    format!("{}", case.recovered_pages),
                    format!("{}", case.resumed_pairs),
                    format!("{}", case.resumed_runs),
                    case.verdict.detail(oracle.pairs.len()),
                ]);
                cases.push(case);
            }
        }
    }
    report.table(
        &[
            "algorithm",
            "seed",
            "crash op",
            "verdict",
            "rec-files",
            "rec-pages",
            "res-pairs",
            "res-runs",
            "detail",
        ],
        &rows,
    );

    let summary = CrashSummary { cases, points };
    report.blank();
    for label in ["identical", "MISMATCH", "PANIC", "BROKEN"] {
        report.line(&format!("{label:>12}: {}", summary.count(label)));
    }
    report.line(&format!(
        "resumed pairs: {} | resumed runs: {}",
        summary.resumed_pairs_total(),
        summary.cases.iter().map(|c| c.resumed_runs).sum::<u64>()
    ));
    // crash.json is informational (not in `HARNESSES`, so bench_compare
    // never gates on it), but record the invariants: mismatches, panics,
    // and broken cycles must be zero on every run, and resumed pairs must
    // be nonzero (proof the checkpoints engage).
    report.metric("crash.cases", summary.cases.len() as f64);
    report.metric("crash.mismatches", summary.count("MISMATCH") as f64);
    report.metric("crash.panics", summary.count("PANIC") as f64);
    report.metric("crash.broken", summary.count("BROKEN") as f64);
    report.timing("crash.identical", summary.count("identical") as f64);
    report.timing("crash.resumed_pairs", summary.resumed_pairs_total() as f64);
    report.timing(
        "crash.recovered_files",
        summary.cases.iter().map(|c| c.recovered_files).sum::<u64>() as f64,
    );
    report.timing(
        "crash.recovered_pages",
        summary.cases.iter().map(|c| c.recovered_pages).sum::<u64>() as f64,
    );
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_knobs() {
        if std::env::var("PBSM_CHAOS_SEEDS").is_err() {
            assert_eq!(seeds(), DEFAULT_SEEDS.to_vec());
        }
        if std::env::var("PBSM_CHAOS_PPM").is_err() {
            assert_eq!(ppm(), DEFAULT_PPM);
        }
    }

    #[test]
    fn verdict_classification() {
        assert!(Verdict::Identical.acceptable());
        assert!(Verdict::CleanError("corruption".into()).acceptable());
        assert!(!Verdict::Mismatch(10, 9).acceptable());
        assert!(!Verdict::Panic("boom".into()).acceptable());
        assert!(!Verdict::Broken("leaked 2 files".into()).acceptable());
        assert_eq!(Verdict::Mismatch(1, 2).label(), "MISMATCH");
        assert_eq!(Verdict::Broken("x".into()).label(), "BROKEN");
    }

    #[test]
    fn crash_points_default() {
        if std::env::var("PBSM_CRASH_POINTS").is_err() {
            assert_eq!(crash_points(), DEFAULT_CRASH_POINTS);
        }
    }

    #[test]
    fn forced_failure_dump_carries_fault_and_recovery_events() {
        // Simulate the artifact path a broken crash-sweep cell takes:
        // crash a journaled join mid-flight, recover, then dump the ring
        // as the harness would on an unacceptable verdict. The dump must
        // contain the fault injection and the recovery decisions that
        // led up to it — that is what turns "exit 1" into a diagnosis.
        pbsm_obs::flight::clear();
        let db = crate::tiger_db_journaled(2, TigerSet::RoadHydro, 0.002);
        let spec = tiger_spec(TigerSet::RoadHydro);
        let config = crash_config();
        db.pool()
            .disk_mut()
            .set_faults(Some(FaultConfig::crash_at(7, 10)));
        match try_join(Algorithm::Pbsm, &db, &spec, &config, None) {
            Err(StorageError::Crashed) => {}
            Ok(_) => panic!("join completed before the crash point"),
            Err(e) => panic!("expected Crashed, got {e}"),
        }
        Db::recover(db.config(), db.into_disk()).unwrap();

        let path = dump_flight("test_forced_failure");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.contains("crash.point"), "no fault event:\n{text}");
        assert!(
            text.contains("recover.decision"),
            "no recovery event:\n{text}"
        );
        assert!(
            text.contains("journal.intent"),
            "no journal intents:\n{text}"
        );
        assert!(text.contains("span."), "no span breadcrumbs:\n{text}");
    }
}
