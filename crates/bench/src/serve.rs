//! The concurrent serving harness behind `bin/query_service`.
//!
//! Soak asks "does one thread stay healthy for hours"; this harness asks
//! the other serving-layer question: do N threads sharing one `Db` — one
//! buffer pool, one catalog — produce exactly the answers a single
//! thread would? A seeded generator pre-builds a mixed read workload
//! (window selections, PBSM / INL / R-tree joins), an **oracle pass**
//! runs every query single-threaded and records a per-query result
//! digest, then `PBSM_SERVE_THREADS` workers replay the same queries
//! through [`pbsm_storage::Db::read_snapshot`] handles and
//! [`pbsm_join::execute_at`], each digest compared byte-for-byte against
//! the oracle's.
//!
//! Admission is bounded: a counting semaphore caps queries in flight
//! (`PBSM_SERVE_INFLIGHT`), the shape a service's request queue imposes;
//! blocked admissions tick `serve.admission.waits`. Each worker tallies
//! per-class wall-clock latencies into its thread-local pow2 histograms
//! and ships them to the coordinator as an [`pbsm_obs::MetricsDelta`] —
//! merged totals are scheduling-independent even though per-thread
//! interleavings are not.
//!
//! The output splits like soak's: `gated` (config, per-class counts,
//! mismatch count, oracle checksum — byte-identical across runs) and
//! `info` (latency quantiles, admission waits, wall seconds — timing,
//! never gated). The harness is deliberately **not** in
//! [`crate::HARNESSES`]: its latencies are wall-clock and its counter
//! interleavings thread-dependent, so nothing here feeds the
//! deterministic bench-compare gate.

use crate::{env_parse, env_var, hash_answer, query_mix, scale, serving_db};
use pbsm_join::telemetry::QueryClass;
use pbsm_join::{execute_at, JoinConfig, Query};
use pbsm_obs::{names, Json};
use pbsm_storage::{DbConfig, ReplacementPolicy, Snapshot};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Schema tag of `bench_results/query_service.json`.
pub const SCHEMA: &str = "pbsm-query-service-v1";

/// Knobs of one serving run. [`ServeConfig::from_env`] reads the
/// `PBSM_SERVE_*` variables; tests construct configs directly.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads (`PBSM_SERVE_THREADS`, default 4).
    pub threads: usize,
    /// Total queries in the workload (`PBSM_SERVE_QUERIES`, default 240).
    pub queries: usize,
    /// Admission-control bound on queries in flight
    /// (`PBSM_SERVE_INFLIGHT`, default `threads - 1`, min 1) — below the
    /// thread count so the admission path actually exercises blocking.
    pub inflight: usize,
    /// Workload generator seed (`PBSM_SERVE_SEED`, default 1996).
    pub seed: u64,
    /// Data scale; defaults to the harness-wide `PBSM_SCALE`.
    pub scale: f64,
    /// Buffer pool size in MB (`PBSM_SERVE_POOL_MB`, default 4).
    pub pool_mb: usize,
    /// Pool replacement policy (`PBSM_SERVE_POLICY`, `clock` | `lru`).
    pub policy: ReplacementPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            queries: 240,
            inflight: 3,
            seed: 1996,
            scale: scale(),
            pool_mb: 4,
            policy: ReplacementPolicy::Clock,
        }
    }
}

impl ServeConfig {
    /// Reads the `PBSM_SERVE_*` knobs over the defaults.
    pub fn from_env() -> Self {
        let d = ServeConfig::default();
        let threads = env_parse("PBSM_SERVE_THREADS", d.threads).max(1);
        ServeConfig {
            threads,
            queries: env_parse("PBSM_SERVE_QUERIES", d.queries),
            inflight: env_parse("PBSM_SERVE_INFLIGHT", threads.saturating_sub(1)).max(1),
            seed: env_parse("PBSM_SERVE_SEED", d.seed),
            pool_mb: env_parse("PBSM_SERVE_POOL_MB", d.pool_mb).max(1),
            policy: match env_var("PBSM_SERVE_POLICY") {
                Some("lru") => ReplacementPolicy::Lru,
                _ => ReplacementPolicy::Clock,
            },
            ..d
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("threads".into(), Json::uint(self.threads as u64)),
            ("queries".into(), Json::uint(self.queries as u64)),
            ("inflight".into(), Json::uint(self.inflight as u64)),
            ("seed".into(), Json::uint(self.seed)),
            ("scale".into(), Json::Num(self.scale)),
            ("pool_mb".into(), Json::uint(self.pool_mb as u64)),
            (
                "policy".into(),
                Json::Str(
                    match self.policy {
                        ReplacementPolicy::Clock => "clock",
                        ReplacementPolicy::Lru => "lru",
                    }
                    .into(),
                ),
            ),
        ])
    }
}

/// The query classes in report order.
const CLASSES: [QueryClass; 5] = [
    QueryClass::SelectScan,
    QueryClass::SelectIndex,
    QueryClass::Pbsm,
    QueryClass::Inl,
    QueryClass::Rtree,
];

/// The wall-clock latency histogram of a query class.
fn latency_hist(class: QueryClass) -> &'static str {
    match class {
        QueryClass::SelectScan => names::SERVE_LATENCY_SELECT_SCAN,
        QueryClass::SelectIndex => names::SERVE_LATENCY_SELECT_INDEX,
        QueryClass::Pbsm => names::SERVE_LATENCY_PBSM,
        QueryClass::Inl => names::SERVE_LATENCY_INL,
        QueryClass::Rtree => names::SERVE_LATENCY_RTREE,
    }
}

/// Executes one query against a snapshot and digests its full result —
/// every OID / OID pair, not a summary — so the concurrent-vs-oracle
/// comparison is byte-exact. Both the oracle and the workers call this
/// same function, so any divergence is the pool's, not the harness's.
fn digest(
    snap: Snapshot<'_>,
    join_config: &JoinConfig,
    query: &Query,
) -> pbsm_storage::StorageResult<u64> {
    // DefaultHasher with fixed keys is deterministic for identical byte
    // streams — the soak checksum relies on the same property.
    let mut hasher = DefaultHasher::new();
    hash_answer(&execute_at(snap, query, join_config, None)?, &mut hasher);
    Ok(hasher.finish())
}

/// Counting semaphore bounding queries in flight — the admission queue
/// of the simulated service.
struct Admission {
    slots: Mutex<usize>,
    cv: Condvar,
}

impl Admission {
    fn new(slots: usize) -> Self {
        Admission {
            slots: Mutex::new(slots),
            cv: Condvar::new(),
        }
    }

    /// Takes a slot, blocking while none are free. Returns whether it
    /// had to wait (ticks the `serve.admission.waits` counter).
    fn acquire(&self) -> bool {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let mut waited = false;
        while *slots == 0 {
            waited = true;
            slots = self.cv.wait(slots).unwrap_or_else(PoisonError::into_inner);
        }
        *slots -= 1;
        waited
    }

    fn release(&self) {
        *self.slots.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.cv.notify_one();
    }
}

/// What one serving run produced.
pub struct ServeOutcome {
    /// Queries executed across all workers.
    pub queries_run: u64,
    /// Queries whose digest differed from the oracle's (or errored).
    /// Anything nonzero is a correctness failure.
    pub mismatches: u64,
    /// Deterministic document (config, per-class counts, checksum).
    pub gated: Json,
    /// Timing document (latency quantiles, admission waits, wall time).
    pub info: Json,
    /// Human-readable summary table.
    pub summary: String,
    /// Wall-clock seconds (informational only).
    pub wall_s: f64,
}

/// Runs the full harness: build, oracle pass, concurrent replay,
/// digest comparison. Resets the metric registry first so back-to-back
/// runs in one process are self-contained.
pub fn run_serve(config: &ServeConfig) -> ServeOutcome {
    pbsm_obs::reset();
    let t0 = Instant::now();
    // Unjournaled: a read-only serving instance has no intents to log,
    // and the journal would interleave temp-file records
    // nondeterministically.
    let db = serving_db(
        DbConfig {
            replacement: config.policy,
            ..DbConfig::with_pool_mb(config.pool_mb)
        },
        config.scale,
    );
    let join_config = JoinConfig::for_db(&db);
    // Materialized up front so the oracle and every worker replay the
    // identical query list.
    let workload: Vec<Query> = query_mix(config.seed).take(config.queries).collect();

    // Oracle pass: single-threaded, in workload order, on the main
    // thread. Also warms nothing permanently — the cache is cleared
    // after, so workers start as cold as the oracle did.
    let oracle: Vec<u64> = workload
        .iter()
        .map(|q| digest(db.read_snapshot(), &join_config, q).expect("oracle query failed"))
        .collect();
    let mut checksum = DefaultHasher::new();
    oracle.hash(&mut checksum);
    let checksum = checksum.finish();
    db.pool().clear_cache().unwrap();

    // Concurrent replay: worker w takes queries w, w+K, w+2K, … so every
    // class lands on several threads. Each worker returns its mismatch
    // tally and its thread-local metrics delta; deltas merge on the main
    // thread in worker order (merge order is irrelevant — the deltas are
    // commutative — but fixing it keeps the loop obviously deterministic).
    let admission = Admission::new(config.inflight);
    let threads = config.threads;
    let (mismatches, deltas): (u64, Vec<pbsm_obs::MetricsDelta>) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let db = &db;
                let join_config = &join_config;
                let workload = &workload;
                let oracle = &oracle;
                let admission = &admission;
                scope.spawn(move || {
                    let snap = db.read_snapshot();
                    let mut bad = 0u64;
                    for i in (w..workload.len()).step_by(threads) {
                        let query = &workload[i];
                        if admission.acquire() {
                            pbsm_obs::counter(names::SERVE_ADMISSION_WAITS).incr();
                        }
                        let q0 = Instant::now();
                        let answer = digest(snap, join_config, query);
                        let lat_ns = q0.elapsed().as_nanos() as u64;
                        admission.release();
                        pbsm_obs::histogram(latency_hist(query.class())).record(lat_ns);
                        if answer.ok() == Some(oracle[i]) {
                            pbsm_obs::counter(names::SERVE_QUERIES_OK).incr();
                        } else {
                            bad += 1;
                            pbsm_obs::counter(names::SERVE_QUERIES_MISMATCHED).incr();
                        }
                    }
                    (bad, pbsm_obs::take_metrics_delta())
                })
            })
            .collect();
        let mut total = 0u64;
        let mut deltas = Vec::new();
        for h in handles {
            let (bad, delta) = h.join().expect("serve worker panicked");
            total += bad;
            deltas.push(delta);
        }
        (total, deltas)
    });
    for delta in &deltas {
        pbsm_obs::merge_metrics_delta(delta);
    }

    // Per-class counts come from the workload itself — deterministic by
    // construction, independent of scheduling.
    let count = |class| workload.iter().filter(|q| q.class() == class).count();
    let counts: Vec<(String, Json)> = CLASSES
        .iter()
        .map(|&c| (c.key().to_string(), Json::uint(count(c) as u64)))
        .collect();

    let gated = Json::Obj(vec![
        ("config".into(), config.to_json()),
        ("classes".into(), Json::Obj(counts)),
        ("mismatches".into(), Json::uint(mismatches)),
        (
            "oracle_checksum".into(),
            Json::Str(format!("{checksum:016x}")),
        ),
    ]);

    let wall_s = t0.elapsed().as_secs_f64();
    let latency = Json::Obj(
        CLASSES
            .iter()
            .map(|&c| {
                let entries = pbsm_obs::histogram_entries(latency_hist(c));
                let count: u64 = entries.iter().map(|&(_, n)| n).sum();
                let q = |x| pbsm_obs::timeseries::hist_quantile(&entries, x);
                (
                    c.key().to_string(),
                    Json::Obj(vec![
                        ("count".into(), Json::uint(count)),
                        ("p50_ns".into(), Json::uint(q(0.5))),
                        ("p99_ns".into(), Json::uint(q(0.99))),
                        (
                            "max_ns".into(),
                            Json::uint(entries.last().map_or(0, |&(u, _)| u)),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    let info = Json::Obj(vec![
        ("wall_s".into(), Json::Num(wall_s)),
        ("latency".into(), latency),
        (
            "admission_waits".into(),
            Json::uint(
                pbsm_obs::counters()
                    .into_iter()
                    .find(|(n, _)| n == names::SERVE_ADMISSION_WAITS)
                    .map_or(0, |(_, v)| v),
            ),
        ),
    ]);

    let mut summary = format!(
        "== query_service: {} queries x {} threads (inflight {}), {} mismatches, wall {:.1}s ==\n",
        config.queries, config.threads, config.inflight, mismatches, wall_s
    );
    for c in CLASSES {
        summary.push_str(&format!("  {:<13} {:>6} queries\n", c.key(), count(c)));
    }
    summary.push_str(if mismatches == 0 {
        "verdict: all digests byte-identical to oracle\n"
    } else {
        "verdict: DIGEST MISMATCH vs oracle\n"
    });

    ServeOutcome {
        queries_run: workload.len() as u64,
        mismatches,
        gated,
        info,
        summary,
        wall_s,
    }
}

/// Writes `bench_results/query_service.{json,txt}`.
pub fn write_outputs(outcome: &ServeOutcome) -> std::io::Result<()> {
    std::fs::create_dir_all("bench_results")?;
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("name".into(), Json::Str("query_service".into())),
        ("gated".into(), outcome.gated.clone()),
        ("info".into(), outcome.info.clone()),
    ]);
    std::fs::write("bench_results/query_service.json", doc.render())?;
    std::fs::write("bench_results/query_service.txt", &outcome.summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeConfig {
        ServeConfig {
            threads: 3,
            queries: 24,
            inflight: 2,
            scale: 0.02,
            pool_mb: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn concurrent_replay_matches_oracle() {
        let outcome = run_serve(&tiny());
        assert_eq!(outcome.mismatches, 0);
        assert_eq!(outcome.queries_run, 24);
    }

    #[test]
    fn gated_doc_is_run_to_run_identical() {
        let cfg = tiny();
        let a = run_serve(&cfg).gated.render();
        let b = run_serve(&cfg).gated.render();
        assert_eq!(a, b);
    }

    #[test]
    fn lru_policy_also_serves_correctly() {
        let cfg = ServeConfig {
            policy: ReplacementPolicy::Lru,
            ..tiny()
        };
        let outcome = run_serve(&cfg);
        assert_eq!(outcome.mismatches, 0);
    }

    #[test]
    fn workload_mix_is_deterministic_and_mixed() {
        let cfg = ServeConfig {
            queries: 200,
            ..tiny()
        };
        let a: Vec<Query> = query_mix(cfg.seed).take(cfg.queries).collect();
        let b: Vec<Query> = query_mix(cfg.seed).take(cfg.queries).collect();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.class(), y.class());
        }
        for class in [
            QueryClass::SelectScan,
            QueryClass::SelectIndex,
            QueryClass::Pbsm,
        ] {
            assert!(
                a.iter().any(|q| q.class() == class),
                "mix must contain {}",
                class.key()
            );
        }
    }
}
