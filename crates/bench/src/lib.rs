//! Shared harness machinery for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation section (see DESIGN.md §4 for the index). They share
//! the workload builders, the result-table formatter, and the environment
//! knobs defined here:
//!
//! * `PBSM_SCALE` — workload scale factor (default 1.0, the paper's full
//!   cardinalities). Set e.g. `PBSM_SCALE=0.05` for quick smoke runs.
//! * `PBSM_POOLS` — comma-separated buffer-pool sizes in MB (default
//!   `2,8,24`, the paper's x-axis).
//! * `PBSM_CPU_SCALE` — native→1996 CPU calibration factor (see
//!   `pbsm_join::cost`).
//! * `PBSM_TRACE=1` — print every completed root span tree to stderr
//!   (see `pbsm_obs`).
//! * `PBSM_TRACE_JSON` / `PBSM_TRACE_FOLDED` — write the span forest as
//!   a Chrome trace-event file / folded flamegraph text on every report
//!   save (see `pbsm_obs::export`; `{name}` expands to the report name).
//!
//! The environment is read **once** per process into [`BenchEnv`]; every
//! `PBSM_*` variable is echoed into each bench JSON's `config` block.
//!
//! Output goes to stdout and to `bench_results/<name>.txt`, plus a
//! machine-readable `bench_results/<name>.json` holding the run's
//! configuration, recorded metrics, and the full observability session
//! (counters, gauges, histograms, and the span forest). See DESIGN.md §7
//! for the schema. The perf-lab layers on top:
//!
//! * [`traj`] aggregates all per-bench JSONs into one `BENCH_<rev>.json`
//!   trajectory record (`bench_all` binary);
//! * [`compare`] diffs a trajectory record against a committed baseline
//!   with per-metric relative tolerances (`bench_compare` binary);
//! * [`scorecard`] asserts measured values against the paper's published
//!   numbers and renders the fidelity report in EXPERIMENTS.md.

use pbsm_datagen::sequoia::{self, SequoiaConfig};
use pbsm_datagen::tiger::{self, TigerConfig};
use pbsm_geom::predicates::SpatialPredicate;
use pbsm_join::loader::{load_relation, spatial_sort};
use pbsm_join::{JoinConfig, JoinOutcome, JoinSpec};
use pbsm_storage::{Db, DbConfig};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

pub mod chaos;
pub mod compare;
pub mod scorecard;
pub mod serve;
pub mod shard;
pub mod soak;
pub mod traj;

/// Every figure/table harness binary, in the paper's presentation order.
/// `run_all` and `bench_all` both iterate this list, so adding a harness
/// is a one-line change.
pub const HARNESSES: &[&str] = &[
    "table02_tiger_stats",
    "table03_sequoia_stats",
    "fig04_partition_balance",
    "fig05_replication_tiger",
    "fig06_replication_sequoia",
    "fig07_tiger_road_hydro",
    "fig08_tiger_road_rail",
    "fig09_clustered_road_hydro",
    "fig10_rtree_breakdown",
    "fig11_inl_breakdown",
    "fig12_pbsm_breakdown",
    "fig13_sequoia",
    "fig14_indices_road_hydro",
    "fig15_indices_road_rail",
    "table04_cost_breakdown",
    "bulkload_vs_insert",
    "tiles_ablation",
    "refinement_sweep_ablation",
    "mer_ablation",
    "sweep_variants",
    "sorted_flush_ablation",
    "skew_ablation",
    "pd_clustered_road_rail",
    "pd_sequoia_indices",
];

/// The harness environment, read **once** per process. Every `PBSM_*`
/// variable present at first access is captured verbatim into
/// [`BenchEnv::vars`] and recorded in each bench JSON's `config` block,
/// so runs are self-describing; nothing re-reads `std::env` mid-run.
pub struct BenchEnv {
    /// `PBSM_SCALE` (default 1.0, the paper's full cardinalities).
    pub scale: f64,
    /// `PBSM_POOLS` in MB (default the paper's 2, 8, 24).
    pub pools_mb: Vec<usize>,
    /// `PBSM_CPU_SCALE` (see `pbsm_join::cost`).
    pub cpu_scale: f64,
    /// Every `PBSM_*` environment variable, sorted by name.
    pub vars: Vec<(String, String)>,
}

/// The process-wide harness environment (first call reads the
/// environment; later calls return the cached snapshot).
pub fn env() -> &'static BenchEnv {
    static ENV: OnceLock<BenchEnv> = OnceLock::new();
    ENV.get_or_init(|| {
        let mut vars: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("PBSM_"))
            .collect();
        vars.sort();
        let lookup = |name: &str| vars.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone());
        let scale = match lookup("PBSM_SCALE") {
            None => 1.0,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("warning: ignoring unparseable PBSM_SCALE={v:?}; using 1.0");
                1.0
            }),
        };
        let pools_mb = lookup("PBSM_POOLS")
            .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
            .filter(|v: &Vec<usize>| !v.is_empty())
            .unwrap_or_else(|| vec![2, 8, 24]);
        BenchEnv {
            scale,
            pools_mb,
            cpu_scale: pbsm_join::cost::cpu_scale(),
            vars,
        }
    })
}

/// Workload scale factor from `PBSM_SCALE` (default 1.0).
pub fn scale() -> f64 {
    env().scale
}

/// Buffer-pool sizes in MB from `PBSM_POOLS` (default the paper's
/// 2, 8, 24).
pub fn pool_sizes_mb() -> Vec<usize> {
    env().pools_mb.clone()
}

/// The native→1996 CPU calibration factor (see `pbsm_join::cost`).
pub fn cpu_scale() -> f64 {
    env().cpu_scale
}

/// Which TIGER relations to load.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum TigerSet {
    RoadHydro,
    RoadRail,
}

/// Builds a fresh database with TIGER data loaded (and nothing cached:
/// the pool is cooled after loading, so measured runs start cold).
pub fn tiger_db(pool_mb: usize, set: TigerSet, clustered: bool) -> Db {
    tiger_db_scaled(pool_mb, set, clustered, scale())
}

/// [`tiger_db`] with an explicit scale (tests use this to avoid mutating
/// the process-global `PBSM_SCALE`).
pub fn tiger_db_scaled(pool_mb: usize, set: TigerSet, clustered: bool, scale: f64) -> Db {
    tiger_db_config(DbConfig::with_pool_mb(pool_mb), set, clustered, scale)
}

/// [`tiger_db_scaled`] on a journaling database (`DbConfig::journal`) —
/// the crash harness's builder. The loader commits the base relations;
/// everything else stays reclaimable intent, so a restart after a crash
/// keeps the data and sheds the half-built temp state.
pub fn tiger_db_journaled(pool_mb: usize, set: TigerSet, scale: f64) -> Db {
    let config = DbConfig {
        journal: true,
        ..DbConfig::with_pool_mb(pool_mb)
    };
    tiger_db_config(config, set, false, scale)
}

/// The TIGER builder everyone above delegates to.
pub fn tiger_db_config(config: DbConfig, set: TigerSet, clustered: bool, scale: f64) -> Db {
    let db = Db::new(config);
    let cfg = TigerConfig::scaled(scale);
    let mut road = tiger::road(&cfg);
    let mut other = match set {
        TigerSet::RoadHydro => tiger::hydrography(&cfg),
        TigerSet::RoadRail => tiger::rail(&cfg),
    };
    if clustered {
        spatial_sort(&mut road);
        spatial_sort(&mut other);
    }
    load_relation(&db, "road", &road, clustered).unwrap();
    let name = match set {
        TigerSet::RoadHydro => "hydrography",
        TigerSet::RoadRail => "rail",
    };
    load_relation(&db, name, &other, clustered).unwrap();
    db.pool().clear_cache().unwrap();
    db
}

/// Builds a fresh database with the Sequoia polygons + islands loaded.
pub fn sequoia_db(pool_mb: usize, with_mer: bool) -> Db {
    let db = Db::new(DbConfig::with_pool_mb(pool_mb));
    let cfg = SequoiaConfig {
        scale: scale(),
        with_mer,
        ..SequoiaConfig::default()
    };
    let (polys, islands) = sequoia::generate(&cfg);
    load_relation(&db, "landuse", &polys, false).unwrap();
    load_relation(&db, "islands", &islands, false).unwrap();
    db.pool().clear_cache().unwrap();
    db
}

/// The join spec of the given TIGER query.
pub fn tiger_spec(set: TigerSet) -> JoinSpec {
    match set {
        TigerSet::RoadHydro => JoinSpec::new("road", "hydrography", SpatialPredicate::Intersects),
        TigerSet::RoadRail => JoinSpec::new("road", "rail", SpatialPredicate::Intersects),
    }
}

/// The Sequoia containment query.
pub fn sequoia_spec() -> JoinSpec {
    JoinSpec::new("landuse", "islands", SpatialPredicate::Contains)
}

/// The three algorithms of the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    Pbsm,
    RtreeJoin,
    Inl,
}

impl Algorithm {
    pub const ALL: [Algorithm; 3] = [Algorithm::Pbsm, Algorithm::RtreeJoin, Algorithm::Inl];

    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Pbsm => "PBSM Join",
            Algorithm::RtreeJoin => "R-tree Based Join",
            Algorithm::Inl => "Idx. Nested Loops",
        }
    }

    /// Short stable identifier used in metric/timing keys.
    pub fn key(self) -> &'static str {
        match self {
            Algorithm::Pbsm => "pbsm",
            Algorithm::RtreeJoin => "rtree",
            Algorithm::Inl => "inl",
        }
    }

    /// Runs this algorithm, surfacing storage errors as typed values —
    /// the entry point the chaos harness drives under fault injection.
    pub fn try_run(
        self,
        db: &Db,
        spec: &JoinSpec,
        config: &JoinConfig,
    ) -> pbsm_storage::StorageResult<JoinOutcome> {
        match self {
            Algorithm::Pbsm => pbsm_join::pbsm::pbsm_join(db, spec, config),
            Algorithm::RtreeJoin => pbsm_join::rtree_join::rtree_join(db, spec, config),
            Algorithm::Inl => pbsm_join::inl::inl_join(db, spec, config),
        }
    }

    /// Runs this algorithm on a fault-free database, where storage errors
    /// are impossible by construction.
    pub fn run(self, db: &Db, spec: &JoinSpec, config: &JoinConfig) -> JoinOutcome {
        self.try_run(db, spec, config)
            .expect("join failed on a fault-free database")
    }
}

/// Collects harness output, mirrors it to stdout, and saves it under
/// `bench_results/`.
///
/// Besides the human-readable table body, a report accumulates named
/// scalar results in two classes:
///
/// * [`metric`](Report::metric) — **deterministic** quantities (result
///   cardinalities, replication percentages, index sizes, page counts).
///   These are the values `bench_compare` gates on and the scorecard
///   checks against the paper.
/// * [`timing`](Report::timing) — wall-clock-derived quantities
///   (modeled totals, speedup factors, shape-check verdicts). Reported
///   in the trajectory but never gated: they jitter with the host.
pub struct Report {
    name: String,
    body: String,
    metrics: Vec<(String, f64)>,
    timings: Vec<(String, f64)>,
    t0: Instant,
}

impl Report {
    /// Starts a report; prints the header. Also resets the metrics
    /// collector, so the session captured by [`Report::save`] covers
    /// exactly this report's work.
    pub fn new(name: &str, title: &str) -> Self {
        pbsm_obs::reset();
        let mut r = Report {
            name: name.to_string(),
            body: String::new(),
            metrics: Vec::new(),
            timings: Vec::new(),
            t0: Instant::now(),
        };
        r.line(&format!("# {title}"));
        r.line(&format!(
            "# scale={} pools={:?} cpu_scale={}",
            scale(),
            pool_sizes_mb(),
            cpu_scale()
        ));
        r
    }

    /// The one output path every harness shares: build the report inside
    /// the closure, and the header, save, and trace export are handled
    /// here.
    pub fn run(name: &str, title: &str, f: impl FnOnce(&mut Report)) {
        let mut report = Report::new(name, title);
        f(&mut report);
        report.save();
    }

    /// Records a deterministic scalar result (gated by `bench_compare`,
    /// consumed by the paper-fidelity scorecard).
    pub fn metric(&mut self, key: &str, value: f64) {
        self.metrics.push((key.to_string(), value));
    }

    /// Records a timing-derived scalar (reported, never gated).
    pub fn timing(&mut self, key: &str, value: f64) {
        self.timings.push((key.to_string(), value));
    }

    /// Appends (and prints) one line.
    pub fn line(&mut self, s: &str) {
        println!("{s}");
        let _ = writeln!(self.body, "{s}");
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        self.line("");
    }

    /// Renders an aligned table: header row plus data rows.
    pub fn table(&mut self, header: &[&str], rows: &[Vec<String>]) {
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
        self.line(&fmt_row(&head));
        self.line(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for row in rows {
            let s = fmt_row(row);
            self.line(&s);
        }
    }

    /// Writes the collected output to `bench_results/<name>.txt` and the
    /// machine-readable session to `bench_results/<name>.json`.
    pub fn save(&self) {
        let dir = std::path::Path::new("bench_results");
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!("{}.txt", self.name));
        match std::fs::File::create(&path) {
            Ok(mut f) => {
                let _ = f.write_all(self.body.as_bytes());
                println!("\n[saved {}]", path.display());
            }
            Err(e) => eprintln!("could not save {}: {e}", path.display()),
        }
        let json_path = dir.join(format!("{}.json", self.name));
        match std::fs::File::create(&json_path) {
            Ok(mut f) => {
                let _ = f.write_all(self.session_json().render().as_bytes());
                let _ = f.write_all(b"\n");
                println!("[saved {}]", json_path.display());
            }
            Err(e) => eprintln!("could not save {}: {e}", json_path.display()),
        }
        save_profiles(&self.name);
        pbsm_obs::export::write_env_traces(&self.name);
    }

    /// The `config` block shared by every bench JSON and the trajectory
    /// record: parsed knobs plus the raw `PBSM_*` environment.
    pub fn config_json() -> pbsm_obs::Json {
        use pbsm_obs::Json;
        let e = env();
        let pools = e.pools_mb.iter().map(|&p| Json::uint(p as u64)).collect();
        let vars = e
            .vars
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect();
        Json::Obj(vec![
            ("scale".into(), Json::Num(e.scale)),
            ("pools_mb".into(), Json::Arr(pools)),
            ("cpu_scale".into(), Json::Num(e.cpu_scale)),
            ("env".into(), Json::Obj(vars)),
        ])
    }

    /// The machine-readable form of this report: run identification, the
    /// harness configuration, the recorded metrics/timings, and the whole
    /// observability session.
    pub fn session_json(&self) -> pbsm_obs::Json {
        use pbsm_obs::Json;
        let kv = |pairs: &[(String, f64)]| {
            Json::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("config".into(), Self::config_json()),
            ("wall_s".into(), Json::Num(self.t0.elapsed().as_secs_f64())),
            ("metrics".into(), kv(&self.metrics)),
            ("timings".into(), kv(&self.timings)),
            ("session".into(), pbsm_obs::session_json()),
        ])
    }
}

/// Drains every profile the joins published during this report and
/// writes them to `bench_results/profile_<name>.json` (skipped when the
/// report ran no profiled queries). Each document wraps the individual
/// `pbsm-profile-v1` profiles in run order.
pub fn save_profiles(name: &str) {
    use pbsm_obs::Json;
    let profiles = pbsm_obs::profile::take_pending();
    if profiles.is_empty() {
        return;
    }
    let dir = std::path::Path::new("bench_results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("profile_{name}.json"));
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(pbsm_obs::profile::SCHEMA.into())),
        ("bench".into(), Json::Str(name.to_string())),
        (
            "profiles".into(),
            Json::Arr(profiles.iter().map(|p| p.to_json()).collect()),
        ),
    ]);
    match std::fs::write(&path, doc.render() + "\n") {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("could not save {}: {e}", path.display()),
    }
}

/// Formats seconds with sensible precision.
pub fn secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Summarizes a `JoinOutcome` into the standard comparison columns.
pub fn outcome_row(alg: &str, pool_mb: usize, out: &JoinOutcome) -> Vec<String> {
    let cs = cpu_scale();
    vec![
        alg.to_string(),
        format!("{pool_mb}"),
        secs(out.report.total_1996(cs)),
        secs(out.report.total_cpu_s() * cs),
        secs(out.report.total_io_s()),
        format!(
            "{:.1}%",
            100.0 * out.report.total_io_s() / out.report.total_1996(cs).max(1e-9)
        ),
        format!("{}", out.stats.results),
    ]
}

/// Standard header matching [`outcome_row`].
pub const OUTCOME_HEADER: [&str; 7] = [
    "algorithm",
    "pool MB",
    "total s (1996)",
    "cpu s",
    "io s",
    "io %",
    "results",
];

/// Per-component rows of one outcome (Figure 10–12 shape).
pub fn component_rows(out: &JoinOutcome) -> Vec<Vec<String>> {
    let cs = cpu_scale();
    out.report
        .components
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                secs(c.total_1996(cs)),
                secs(c.cpu_s * cs),
                secs(c.io_s()),
                format!("{}", c.io.reads),
                format!("{}", c.io.writes),
                format!("{}", c.io.seeks),
            ]
        })
        .collect()
}

/// Header matching [`component_rows`].
pub const COMPONENT_HEADER: [&str; 7] = [
    "component",
    "total s",
    "cpu s",
    "io s",
    "reads",
    "writes",
    "seeks",
];

/// The Figure 7/8/9/13 experiment: run all three algorithms at each
/// buffer-pool size on a fresh database (no pre-existing indices), report
/// totals, and return `(pool_mb, algorithm, modeled 1996 total)` samples
/// for qualitative checks.
pub fn compare_algorithms(
    report: &mut Report,
    mk_db: &dyn Fn(usize) -> Db,
    spec: &JoinSpec,
) -> Vec<(usize, Algorithm, f64)> {
    let cs = cpu_scale();
    let mut samples = Vec::new();
    let mut rows = Vec::new();
    let mut result_pairs = None;
    for pool_mb in pool_sizes_mb() {
        for alg in Algorithm::ALL {
            // Fresh database per run: index builds must be paid by the
            // algorithm that needs them, and caches start cold.
            let db = mk_db(pool_mb);
            let config = JoinConfig::for_db(&db);
            let out = alg.run(&db, spec, &config);
            let total = out.report.total_1996(cs);
            samples.push((pool_mb, alg, total));
            rows.push(outcome_row(alg.name(), pool_mb, &out));
            report.timing(&format!("total_1996.{}.{pool_mb}mb", alg.key()), total);
            result_pairs.get_or_insert(out.stats.results);
        }
    }
    // All (algorithm, pool) runs answer the same join, so one result
    // cardinality describes the comparison.
    if let Some(n) = result_pairs {
        report.metric("result_pairs", n as f64);
    }
    report.table(&OUTCOME_HEADER, &rows);
    samples
}

/// The Figure 10/11/12 experiment: one algorithm's per-component cost
/// breakdown on Road ⋈ Hydrography, clustered and non-clustered, at each
/// buffer-pool size.
pub fn breakdown_figure(name: &str, title: &str, alg: Algorithm) {
    let cs = cpu_scale();
    Report::run(name, title, |report| {
        let spec = tiger_spec(TigerSet::RoadHydro);
        let mut drift: Option<(f64, f64)> = None;
        let mut explained = false;
        for clustered in [false, true] {
            let cl = if clustered { "cl" } else { "nc" };
            for pool_mb in pool_sizes_mb() {
                let db = tiger_db(pool_mb, TigerSet::RoadHydro, clustered);
                let out = alg.run(&db, &spec, &JoinConfig::for_db(&db));
                report.blank();
                report.line(&format!(
                    "== {} | {} | {pool_mb} MB pool ==",
                    alg.name(),
                    if clustered {
                        "clustered"
                    } else {
                        "non-clustered"
                    }
                ));
                report.table(&COMPONENT_HEADER, &component_rows(&out));
                if let Some(p) = &out.profile {
                    if let Some((lo, hi)) = p.drift_extrema() {
                        drift = Some(match drift {
                            None => (lo, hi),
                            Some((l, h)) => (l.min(lo), h.max(hi)),
                        });
                    }
                    // One EXPLAIN ANALYZE tree per figure is plenty.
                    if !explained {
                        explained = true;
                        report.blank();
                        for line in p.explain_analyze().lines() {
                            report.line(line);
                        }
                    }
                }
                // Per-component shares of the modeled total: the
                // Figure-10/11/12 shape, in the trajectory record.
                let total = out.report.total_1996(cs).max(1e-9);
                for c in &out.report.components {
                    report.timing(
                        &format!("share.{cl}.{pool_mb}mb.{}", c.name.replace(' ', "_")),
                        c.total_1996(cs) / total,
                    );
                }
                report.timing(
                    &format!("io_share.{cl}.{pool_mb}mb"),
                    out.report.total_io_s() / total,
                );
            }
        }
        // The drift audit: observed vs modeled I/O over every operator
        // of every run. Both sides are pure functions of deterministic
        // counters, so these are gateable metrics (and the scorecard
        // pins fig12's inside [0.98, 1.02]).
        if let Some((lo, hi)) = drift {
            report.metric("drift.min_ratio", lo);
            report.metric("drift.max_ratio", hi);
        }
    });
}

/// The Figure 14/15 experiment: the six pre-existing-index scenarios of
/// §4.5. Returns `(pool_mb, series, total)` samples.
pub fn index_scenarios_figure(
    report: &mut Report,
    set: TigerSet,
) -> Vec<(usize, &'static str, f64)> {
    let spec = tiger_spec(set);
    let small_rel = match set {
        TigerSet::RoadHydro => "hydrography",
        TigerSet::RoadRail => "rail",
    };
    // (series label, algorithm, pre-built indices)
    let series: [(&'static str, Algorithm, &[&str]); 6] = [
        ("PBSM", Algorithm::Pbsm, &[]),
        (
            "Rtree-2-Indices",
            Algorithm::RtreeJoin,
            &["road", small_rel],
        ),
        ("Rtree-1-LargeIdx", Algorithm::RtreeJoin, &["road"]),
        ("INL-1-LargeIdx", Algorithm::Inl, &["road"]),
        ("Rtree-1-SmallIdx", Algorithm::RtreeJoin, &[small_rel]),
        ("INL-1-SmallIdx", Algorithm::Inl, &[small_rel]),
    ];
    let cs = cpu_scale();
    let mut samples = Vec::new();
    let mut rows = Vec::new();
    let mut result_pairs = None;
    for pool_mb in pool_sizes_mb() {
        for (label, alg, prebuilt) in series {
            let db = tiger_db(pool_mb, set, false);
            for rel in prebuilt {
                let meta = db.catalog().relation(rel).unwrap().clone();
                pbsm_join::loader::build_index(&db, &meta).unwrap();
            }
            // Pre-existing indices are not charged to the join.
            db.pool().clear_cache().unwrap();
            let out = alg.run(&db, &spec, &JoinConfig::for_db(&db));
            let total = out.report.total_1996(cs);
            samples.push((pool_mb, label, total));
            rows.push(outcome_row(label, pool_mb, &out));
            report.timing(&format!("total_1996.{label}.{pool_mb}mb"), total);
            result_pairs.get_or_insert(out.stats.results);
        }
    }
    if let Some(n) = result_pairs {
        report.metric("result_pairs", n as f64);
    }
    report.table(&OUTCOME_HEADER, &rows);
    samples
}

/// Renders the "who wins" verdicts the paper draws from a comparison.
pub fn verdicts(report: &mut Report, samples: &[(usize, Algorithm, f64)]) {
    report.blank();
    for pool_mb in pool_sizes_mb() {
        let mut at: Vec<(Algorithm, f64)> = samples
            .iter()
            .filter(|(p, _, _)| *p == pool_mb)
            .map(|(_, a, t)| (*a, *t))
            .collect();
        at.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        let line = at
            .iter()
            .map(|(a, t)| format!("{} {}", a.name(), secs(*t)))
            .collect::<Vec<_>>()
            .join("  <  ");
        report.line(&format!("{pool_mb:>3} MB: {line}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(1234.4), "1234");
        assert_eq!(secs(99.94), "99.9");
        assert_eq!(secs(2.04), "2.0");
        assert_eq!(secs(0.1234), "0.123");
    }

    #[test]
    fn env_knobs_have_defaults() {
        // These read the live environment; absent overrides they must
        // return the paper's defaults.
        if std::env::var("PBSM_SCALE").is_err() {
            assert_eq!(scale(), 1.0);
        }
        if std::env::var("PBSM_POOLS").is_err() {
            assert_eq!(pool_sizes_mb(), vec![2, 8, 24]);
        }
        assert!(cpu_scale() > 0.0);
    }

    #[test]
    fn algorithms_enumerate_and_name() {
        assert_eq!(Algorithm::ALL.len(), 3);
        let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert!(names.contains(&"PBSM Join"));
        assert!(names.contains(&"R-tree Based Join"));
        assert!(names.contains(&"Idx. Nested Loops"));
    }

    #[test]
    fn tiny_end_to_end_through_harness_builders() {
        // The workload builders must produce runnable databases at any
        // scale; exercise the whole harness path at 0.2 %. Uses the
        // explicit-scale builder: mutating PBSM_SCALE would race with the
        // other tests in this binary.
        let db = tiger_db_scaled(2, TigerSet::RoadRail, false, 0.002);
        let spec = tiger_spec(TigerSet::RoadRail);
        let out = Algorithm::Pbsm.run(&db, &spec, &JoinConfig::for_db(&db));
        let row = outcome_row("PBSM", 2, &out);
        assert_eq!(row.len(), OUTCOME_HEADER.len());
        assert!(!component_rows(&out).is_empty());
    }
}
