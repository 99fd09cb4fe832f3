//! The soak harness: thousands of mixed queries through one database,
//! watched by the continuous-telemetry sentinels.
//!
//! Where the figure benches measure one algorithm at a time on a fresh
//! `Db`, soak asks the serving-layer question: does the engine stay
//! healthy when selections and joins interleave for hours on the *same*
//! instance? A seeded generator drives a fixed mix — window selections
//! (scan and index probe) over all four relations, PBSM / INL / R-tree
//! joins over the TIGER and Sequoia pairs — with an optional seeded
//! transient-fault phase in the middle (reusing `fault.rs`), so the
//! retry path soaks too.
//!
//! Everything the run asserts on is deterministic: the sampler ticks on
//! query count, latencies are the disk model's integer nanoseconds, and
//! the output splits into a `gated` document (byte-identical across
//! runs — the determinism test compares two in-process runs) and an
//! `info` block for wall-clock context.
//!
//! Verdicts come from `pbsm_obs::timeseries`: leak sentinels over live
//! disk pages (journal growth subtracted — the journal is append-only
//! by design), pool occupancy, and open journal intents; SLO sentinels
//! over the per-query-class latency histograms. Any breach makes
//! `bin/soak` exit nonzero.

use crate::{scale, sequoia_spec, tiger_spec, Algorithm, TigerSet};
use pbsm_datagen::tiger::TigerConfig;
use pbsm_datagen::{sequoia, sequoia::SequoiaConfig, tiger};
use pbsm_geom::Rect;
use pbsm_join::loader::{build_index, load_relation};
use pbsm_join::select::{select_index, select_scan};
use pbsm_join::telemetry::QueryClass;
use pbsm_join::{JoinConfig, JoinSpec};
use pbsm_obs::names;
use pbsm_obs::timeseries::{
    self, check_slo, LeakSentinel, Sample, SamplerConfig, SloCheck, SloSpec, Verdict,
};
use pbsm_obs::Json;
use pbsm_storage::{Db, DbConfig, FaultConfig, TelemetryBaseline};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Schema tag of `bench_results/soak.json`.
pub const SCHEMA: &str = "pbsm-soak-v1";

/// Knobs of one soak run. [`SoakConfig::from_env`] reads the
/// `PBSM_SOAK_*` variables; tests construct configs directly.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Queries after warmup (`PBSM_SOAK_QUERIES`, default 1000).
    pub queries: u64,
    /// Sampler interval in queries (`PBSM_SOAK_SAMPLE_EVERY`, default 16).
    pub sample_every: u64,
    /// Sampler ring bound (`PBSM_SOAK_RING`, default 512).
    pub ring: usize,
    /// Unsampled warm-up queries before the baseline is captured
    /// (`PBSM_SOAK_WARMUP`, default 12).
    pub warmup: u64,
    /// Workload generator seed (`PBSM_SOAK_SEED`, default 1996).
    pub seed: u64,
    /// Data scale; defaults to the harness-wide `PBSM_SCALE`.
    pub scale: f64,
    /// Buffer pool size in MB (`PBSM_SOAK_POOL_MB`, default 2).
    pub pool_mb: usize,
    /// Arm a transient-fault phase over the middle fifth of the run
    /// (`PBSM_SOAK_FAULTS`, default on; `0` disables).
    pub faults: bool,
    /// Fault probability while armed (`PBSM_SOAK_FAULT_PPM`, default 500).
    pub fault_ppm: u32,
    /// Join-class p99 SLO in modeled seconds (`PBSM_SOAK_SLO_JOIN_S`,
    /// default 3600). The p999 ceiling is twice this.
    pub slo_join_s: u64,
    /// Selection-class p99 SLO in modeled seconds
    /// (`PBSM_SOAK_SLO_SELECT_S`, default 600). p999 is twice this.
    pub slo_select_s: u64,
    /// Test hook: arm `pbsm_join::telemetry::set_force_temp_leak` after
    /// the baseline, so the leak sentinels have a real leak to catch.
    pub force_leak: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            queries: 1000,
            sample_every: 16,
            ring: 512,
            warmup: 12,
            seed: 1996,
            scale: scale(),
            pool_mb: 2,
            faults: true,
            fault_ppm: 500,
            slo_join_s: 3600,
            slo_select_s: 600,
            force_leak: false,
        }
    }
}

impl SoakConfig {
    /// Reads the `PBSM_SOAK_*` knobs over the defaults.
    pub fn from_env() -> Self {
        let d = SoakConfig::default();
        SoakConfig {
            queries: env_parse("PBSM_SOAK_QUERIES", d.queries),
            sample_every: env_parse("PBSM_SOAK_SAMPLE_EVERY", d.sample_every).max(1),
            ring: env_parse("PBSM_SOAK_RING", d.ring).max(1),
            warmup: env_parse("PBSM_SOAK_WARMUP", d.warmup),
            seed: env_parse("PBSM_SOAK_SEED", d.seed),
            pool_mb: env_parse("PBSM_SOAK_POOL_MB", d.pool_mb).max(1),
            faults: env_parse("PBSM_SOAK_FAULTS", 1u8) != 0,
            fault_ppm: env_parse("PBSM_SOAK_FAULT_PPM", d.fault_ppm),
            slo_join_s: env_parse("PBSM_SOAK_SLO_JOIN_S", d.slo_join_s),
            slo_select_s: env_parse("PBSM_SOAK_SLO_SELECT_S", d.slo_select_s),
            ..d
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("queries".into(), Json::uint(self.queries)),
            ("sample_every".into(), Json::uint(self.sample_every)),
            ("ring".into(), Json::uint(self.ring as u64)),
            ("warmup".into(), Json::uint(self.warmup)),
            ("seed".into(), Json::uint(self.seed)),
            ("scale".into(), Json::Num(self.scale)),
            ("pool_mb".into(), Json::uint(self.pool_mb as u64)),
            ("faults".into(), Json::Bool(self.faults)),
            ("fault_ppm".into(), Json::uint(self.fault_ppm as u64)),
            ("slo_join_s".into(), Json::uint(self.slo_join_s)),
            ("slo_select_s".into(), Json::uint(self.slo_select_s)),
            ("force_leak".into(), Json::Bool(self.force_leak)),
        ])
    }
}

fn env_parse<T: std::str::FromStr + Copy>(name: &str, default: T) -> T {
    crate::env()
        .vars
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(default)
}

/// What one soak run produced. `gated` renders byte-identically for
/// identical configs; `dashboard` and the sentinel lists feed `soak.txt`.
pub struct SoakOutcome {
    /// Queries executed after warmup.
    pub queries_run: u64,
    /// Queries that returned a clean storage error (fault phases only).
    pub failures: u64,
    /// Every sentinel breach message, in evaluation order.
    pub breaches: Vec<String>,
    /// The leak sentinels, post-evaluation.
    pub leaks: Vec<LeakSentinel>,
    /// The SLO checks, post-evaluation.
    pub slos: Vec<SloCheck>,
    /// Deterministic document (timeseries, sentinels, latency, counts).
    pub gated: Json,
    /// Sparkline dashboard + sentinel table.
    pub dashboard: String,
    /// Wall-clock seconds (informational only).
    pub wall_s: f64,
}

/// Splitmix-style generator: tiny, seedable, and stable across runs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One database holding all four relations — TIGER road + hydrography
/// and Sequoia landuse + islands — with committed heaps, pre-built
/// indexes on every relation (selections probe them, joins reuse them),
/// and the intent journal on.
pub fn soak_db(config: &SoakConfig) -> Db {
    let db = Db::new(DbConfig {
        journal: true,
        ..DbConfig::with_pool_mb(config.pool_mb)
    });
    let tiger_cfg = TigerConfig::scaled(config.scale);
    let sequoia_cfg = SequoiaConfig {
        scale: config.scale,
        ..SequoiaConfig::default()
    };
    let (landuse, islands) = sequoia::generate(&sequoia_cfg);
    for (name, tuples) in [
        ("road", tiger::road(&tiger_cfg)),
        ("hydrography", tiger::hydrography(&tiger_cfg)),
        ("landuse", landuse),
        ("islands", islands),
    ] {
        let meta = load_relation(&db, name, &tuples, false).unwrap();
        build_index(&db, &meta).unwrap();
    }
    db.pool().clear_cache().unwrap();
    db
}

enum Query {
    Select {
        index: bool,
        relation: &'static str,
        window: Rect,
    },
    Join {
        alg: Algorithm,
        spec: JoinSpec,
    },
}

/// The fixed mix: 30% scan selections, 30% index selections, 20% PBSM,
/// 10% INL, 10% R-tree joins; joins alternate the TIGER intersection
/// and the Sequoia containment, selections rotate all four relations.
fn next_query(rng: &mut Lcg) -> Query {
    const RELATIONS: [&str; 4] = ["road", "hydrography", "landuse", "islands"];
    let roll = rng.next() % 10;
    if roll < 6 {
        let relation = RELATIONS[(rng.next() % 4) as usize];
        let cx = 5.0 + (rng.next() % 900) as f64 / 10.0;
        let cy = 5.0 + (rng.next() % 900) as f64 / 10.0;
        let half = 1.0 + (rng.next() % 70) as f64 / 10.0;
        Query::Select {
            index: roll >= 3,
            relation,
            window: Rect::new(cx - half, cy - half, cx + half, cy + half),
        }
    } else {
        let alg = match roll {
            6 | 7 => Algorithm::Pbsm,
            8 => Algorithm::Inl,
            _ => Algorithm::RtreeJoin,
        };
        let spec = if rng.next().is_multiple_of(2) {
            tiger_spec(TigerSet::RoadHydro)
        } else {
            sequoia_spec()
        };
        Query::Join { alg, spec }
    }
}

/// Folds a query's results into the running determinism checksum.
fn fold<T: Hash>(hasher: &mut std::collections::hash_map::DefaultHasher, value: &T) {
    value.hash(hasher);
}

/// Runs the full soak: build, warm up, baseline, query loop (with the
/// optional fault phase), then sentinel evaluation. Resets the metric
/// registry first, so a process can run several soaks back to back and
/// each is self-contained — the determinism test relies on exactly that.
pub fn run_soak(config: &SoakConfig) -> SoakOutcome {
    pbsm_obs::reset();
    let t0 = Instant::now();
    let db = soak_db(config);
    let join_config = JoinConfig::for_db(&db);
    let mut rng = Lcg(config.seed);
    let mut checksum = std::collections::hash_map::DefaultHasher::new();

    // Warm-up, part 1 — deterministic coverage preamble: a full-window
    // scan and index probe of every relation plus one join per
    // algorithm per dataset. This touches every persistent page once,
    // so pool occupancy reaches its resting plateau *before* the
    // baseline is captured (a cache filling toward its working set is
    // not a leak, and must not read as one when the working set is
    // smaller than the pool).
    let universe = Rect::new(0.0, 0.0, 100.0, 100.0);
    for rel in ["road", "hydrography", "landuse", "islands"] {
        for index in [false, true] {
            let _ = execute(
                &db,
                &join_config,
                Query::Select {
                    index,
                    relation: rel,
                    window: universe,
                },
                &mut checksum,
            );
        }
    }
    for alg in Algorithm::ALL {
        for spec in [tiger_spec(TigerSet::RoadHydro), sequoia_spec()] {
            let _ = execute(&db, &join_config, Query::Join { alg, spec }, &mut checksum);
        }
    }
    // Warm-up, part 2: unsampled queries from the same generator, so
    // the mixed workload's own transients settle too.
    for _ in 0..config.warmup {
        let _ = execute(&db, &join_config, next_query(&mut rng), &mut checksum);
    }
    let baseline = db.telemetry_baseline();
    timeseries::configure(SamplerConfig {
        every_ticks: config.sample_every,
        ring_capacity: config.ring,
    });
    if config.force_leak {
        pbsm_join::telemetry::set_force_temp_leak(true);
    }

    // The fault phase covers the middle fifth of the run.
    let fault_from = config.queries * 2 / 5;
    let fault_to = config.queries * 3 / 5;
    let mut failures = 0u64;
    for i in 0..config.queries {
        if config.faults && i == fault_from {
            db.pool()
                .disk_mut()
                .set_faults(Some(FaultConfig::transient_only(
                    config.seed,
                    config.fault_ppm,
                )));
        }
        if config.faults && i == fault_to {
            db.pool().disk_mut().set_faults(None);
        }
        let faulted = config.faults && (fault_from..fault_to).contains(&i);
        if faulted {
            pbsm_obs::counter(names::SOAK_QUERIES_FAULTED).incr();
        }
        match execute(&db, &join_config, next_query(&mut rng), &mut checksum) {
            Ok(()) => pbsm_obs::counter(names::SOAK_QUERIES_OK).incr(),
            Err(e) => {
                // Clean typed errors are acceptable under faults; the
                // query simply doesn't tick.
                failures += 1;
                fold(&mut checksum, &format!("{e:?}"));
                pbsm_obs::counter(names::SOAK_QUERIES_FAILED).incr();
            }
        }
    }
    pbsm_join::telemetry::set_force_temp_leak(false);

    let samples = timeseries::samples();
    let (leaks, slos, breaches) = evaluate_sentinels(config, &baseline, &samples);
    let gated = gated_json(
        config,
        &baseline,
        &samples,
        failures,
        checksum.finish(),
        &leaks,
        &slos,
        &breaches,
    );
    let dashboard = render_dashboard(&samples, &leaks, &slos, &breaches);
    SoakOutcome {
        queries_run: config.queries,
        failures,
        breaches,
        leaks,
        slos,
        gated,
        dashboard,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

fn execute(
    db: &Db,
    join_config: &JoinConfig,
    query: Query,
    checksum: &mut std::collections::hash_map::DefaultHasher,
) -> pbsm_storage::StorageResult<()> {
    match query {
        Query::Select {
            index,
            relation,
            window,
        } => {
            let outcome = if index {
                select_index(db, relation, &window)?
            } else {
                select_scan(db, relation, &window)?
            };
            fold(checksum, &outcome.oids);
        }
        Query::Join { alg, spec } => {
            let outcome = alg.try_run(db, &spec, join_config)?;
            fold(checksum, &outcome.pairs);
        }
    }
    Ok(())
}

/// Gauge level of `name` in one sample (sparse: absent means 0).
fn sample_gauge(sample: &Sample, name: &str) -> u64 {
    sample
        .gauges
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// Counter level of `name` in one sample (sparse: absent means 0).
fn sample_counter(sample: &Sample, name: &str) -> u64 {
    sample
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

fn evaluate_sentinels(
    config: &SoakConfig,
    baseline: &TelemetryBaseline,
    samples: &[Sample],
) -> (Vec<LeakSentinel>, Vec<SloCheck>, Vec<String>) {
    // Leak axis 1: live disk pages, minus the journal file's — the
    // journal is append-only by design, so its growth is not a leak.
    // `storage.journal.pages` counts from the post-reset journal
    // creation, so its level equals the journal file's page count.
    let mut live = LeakSentinel::new(
        names::DISK_LIVE_PAGES,
        baseline.live_pages - baseline.journal_pages,
    );
    // Leak axis 2: buffer-pool occupancy. Caching legitimately climbs
    // to a plateau; only monotonic post-warmup drift breaches.
    let mut occupied = LeakSentinel::new(names::POOL_OCCUPIED, baseline.pool_occupied);
    // Leak axis 3: journal length, i.e. open (uncommitted, undropped)
    // intents. Between queries this must rest at the baseline —
    // pre-built indexes hold theirs open for the Db's lifetime.
    let mut intents = LeakSentinel::new(names::JOURNAL_OPEN_INTENTS, baseline.journal_open_intents);
    for s in samples {
        let journal_pages = sample_counter(s, names::JOURNAL_PAGES);
        live.observe(sample_gauge(s, names::DISK_LIVE_PAGES).saturating_sub(journal_pages));
        occupied.observe(sample_gauge(s, names::POOL_OCCUPIED));
        intents.observe(sample_gauge(s, names::JOURNAL_OPEN_INTENTS));
    }
    let leaks = vec![live, occupied, intents];

    let ns = |secs: u64| secs.saturating_mul(1_000_000_000);
    let mut slos = Vec::new();
    for class in QueryClass::ALL {
        let is_join = matches!(
            class,
            QueryClass::Pbsm | QueryClass::Inl | QueryClass::Rtree
        );
        let p99 = if is_join {
            config.slo_join_s
        } else {
            config.slo_select_s
        };
        for (q, limit) in [(0.99, ns(p99)), (0.999, ns(p99 * 2))] {
            slos.push(check_slo(&SloSpec {
                class: class.key().into(),
                hist: class.hist_name().into(),
                quantile: q,
                limit,
            }));
        }
    }

    let mut breaches = Vec::new();
    for leak in &leaks {
        if let Verdict::Breach(msg) = leak.verdict() {
            breaches.push(msg);
        }
    }
    for slo in &slos {
        if let Verdict::Breach(msg) = &slo.verdict {
            breaches.push(msg.clone());
        }
    }
    (leaks, slos, breaches)
}

#[allow(clippy::too_many_arguments)]
fn gated_json(
    config: &SoakConfig,
    baseline: &TelemetryBaseline,
    samples: &[Sample],
    failures: u64,
    checksum: u64,
    leaks: &[LeakSentinel],
    slos: &[SloCheck],
    breaches: &[String],
) -> Json {
    let sampler = SamplerConfig {
        every_ticks: config.sample_every,
        ring_capacity: config.ring,
    };
    let latency = Json::Obj(
        QueryClass::ALL
            .iter()
            .map(|class| {
                let entries = pbsm_obs::histogram_entries(class.hist_name());
                let count: u64 = entries.iter().map(|&(_, c)| c).sum();
                let q = |x| timeseries::hist_quantile(&entries, x);
                (
                    class.key().to_string(),
                    Json::Obj(vec![
                        ("count".into(), Json::uint(count)),
                        ("p50".into(), Json::uint(q(0.5))),
                        ("p99".into(), Json::uint(q(0.99))),
                        ("p999".into(), Json::uint(q(0.999))),
                        (
                            "max".into(),
                            Json::uint(entries.last().map_or(0, |&(u, _)| u)),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    let counters = Json::Obj(
        pbsm_obs::counters()
            .into_iter()
            .filter(|(_, v)| *v > 0)
            .map(|(n, v)| (n, Json::uint(v)))
            .collect(),
    );
    Json::Obj(vec![
        ("config".into(), config.to_json()),
        (
            "baseline".into(),
            Json::Obj(vec![
                ("live_pages".into(), Json::uint(baseline.live_pages)),
                ("pool_occupied".into(), Json::uint(baseline.pool_occupied)),
                (
                    "journal_open_intents".into(),
                    Json::uint(baseline.journal_open_intents),
                ),
                ("journal_pages".into(), Json::uint(baseline.journal_pages)),
            ]),
        ),
        (
            "timeseries".into(),
            timeseries::to_json(samples, &sampler, timeseries::evicted()),
        ),
        ("latency".into(), latency),
        (
            "sentinels".into(),
            Json::Obj(vec![
                (
                    "leak".into(),
                    Json::Arr(leaks.iter().map(LeakSentinel::to_json).collect()),
                ),
                (
                    "slo".into(),
                    Json::Arr(slos.iter().map(SloCheck::to_json).collect()),
                ),
                (
                    "breaches".into(),
                    Json::Arr(breaches.iter().map(|m| Json::Str(m.clone())).collect()),
                ),
            ]),
        ),
        (
            "queries".into(),
            Json::Obj(vec![
                ("total".into(), Json::uint(config.queries)),
                ("failed".into(), Json::uint(failures)),
                (
                    "results_checksum".into(),
                    Json::Str(format!("{checksum:016x}")),
                ),
            ]),
        ),
        ("counters".into(), counters),
    ])
}

fn render_dashboard(
    samples: &[Sample],
    leaks: &[LeakSentinel],
    slos: &[SloCheck],
    breaches: &[String],
) -> String {
    use std::fmt::Write as _;
    let mut out = timeseries::dashboard(samples);
    out.push_str("\nleak sentinels:\n");
    for leak in leaks {
        let _ = writeln!(
            out,
            "  {:<34} baseline {:>6}  last {:>6}  {}",
            leak.name,
            leak.baseline,
            leak.observed.last().copied().unwrap_or(0),
            if leak.verdict().is_breach() {
                "BREACH"
            } else {
                "ok"
            },
        );
    }
    out.push_str("\nslo sentinels (modeled ns):\n");
    for slo in slos {
        let _ = writeln!(
            out,
            "  {:<14} {:>5} = {:>16}  limit {:>16}  {}",
            slo.spec.class,
            timeseries::quantile_label(slo.spec.quantile),
            slo.observed,
            slo.spec.limit,
            if slo.verdict.is_breach() {
                "BREACH"
            } else {
                "ok"
            },
        );
    }
    if breaches.is_empty() {
        out.push_str("\nverdict: all sentinels pass\n");
    } else {
        let _ = writeln!(out, "\nverdict: {} breach(es)", breaches.len());
        for b in breaches {
            let _ = writeln!(out, "  {b}");
        }
    }
    out
}

/// Writes `bench_results/soak.{json,txt}`.
pub fn write_outputs(outcome: &SoakOutcome) -> std::io::Result<()> {
    std::fs::create_dir_all("bench_results")?;
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("name".into(), Json::Str("soak".into())),
        ("gated".into(), outcome.gated.clone()),
        (
            "info".into(),
            Json::Obj(vec![
                ("wall_s".into(), Json::Num(outcome.wall_s)),
                ("config_env".into(), {
                    Json::Obj(
                        crate::env()
                            .vars
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                            .collect(),
                    )
                }),
            ]),
        ),
    ]);
    std::fs::write("bench_results/soak.json", doc.render())?;
    let mut txt = format!(
        "== soak: {} queries ({} failed), wall {:.1}s ==\n\n",
        outcome.queries_run, outcome.failures, outcome.wall_s
    );
    txt.push_str(&outcome.dashboard);
    std::fs::write("bench_results/soak.txt", txt)
}
