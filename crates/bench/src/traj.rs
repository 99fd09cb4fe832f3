//! Benchmark trajectory records.
//!
//! `bench_all` runs every harness in [`crate::HARNESSES`], then folds all
//! the per-bench `bench_results/<name>.json` sessions into **one**
//! trajectory record, `BENCH_<rev>.json`, written at the repository root
//! so the perf history accrues alongside the code. The record keeps the
//! decision-relevant reductions — per-bench wall time, deterministic
//! counters and metrics, histogram p50/p99/p999 — not the full span forests
//! (those stay in `bench_results/`).
//!
//! Schema (`pbsm-bench-trajectory-v1`, see DESIGN.md §7):
//! ```json
//! {
//!   "schema": "pbsm-bench-trajectory-v1",
//!   "created_unix_ms": 1754000000000,
//!   "git": {"rev": "5d640aa1b2c3", "dirty": false},
//!   "host": {"parallelism": 1},
//!   "config": {"scale": 0.02, "pools_mb": [2,8,24], "cpu_scale": 250,
//!              "env": {"PBSM_SCALE": "0.02"}},
//!   "total_wall_s": 41.5,
//!   "benches": [
//!     {"name": "fig07_tiger_road_hydro", "wall_s": 1.9,
//!      "counters": {"storage.disk.reads": 123},
//!      "metrics": {"result_pairs": 36587},
//!      "timings": {"total_1996.pbsm.2mb": 332.1},
//!      "histograms": {"pbsm.partition.tiles_per_mbr":
//!                     {"count": 900, "p50": 1, "p99": 3, "p999": 5, "max": 7}}}
//!   ]
//! }
//! ```
//!
//! `bench_compare` gates on `counters`, `metrics`, and the histogram
//! summaries; `wall_s` and `timings` are informational (they jitter with
//! the host).

use pbsm_obs::Json;

/// Schema tag written into (and required of) every trajectory record.
pub const SCHEMA: &str = "pbsm-bench-trajectory-v1";

/// An approximate quantile over sparse power-of-two histogram entries
/// (`[bucket_upper_bound, count]` pairs, ascending): the upper bound of
/// the bucket where the cumulative count first reaches `q` of the total.
/// Returns 0 for an empty histogram. The implementation lives with the
/// SLO sentinels in `pbsm_obs::timeseries`; this re-export keeps the
/// trajectory module self-describing.
pub fn hist_quantile(entries: &[(u64, u64)], q: f64) -> u64 {
    pbsm_obs::timeseries::hist_quantile(entries, q)
}

fn parse_hist(json: &Json) -> Vec<(u64, u64)> {
    json.as_arr()
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|p| {
                    let p = p.as_arr()?;
                    Some((p.first()?.as_u64()?, p.get(1)?.as_u64()?))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Reduces one bench's saved session JSON (the `bench_results/<name>.json`
/// document) to its trajectory entry.
pub fn bench_entry(doc: &Json) -> Option<Json> {
    let name = doc.get("name")?.as_str()?.to_string();
    let session = doc.get("session")?;
    let counters: Vec<(String, Json)> = match session.get("counters") {
        Some(Json::Obj(fields)) => fields.clone(),
        _ => Vec::new(),
    };
    let hists: Vec<(String, Json)> = match session.get("histograms") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| {
                let entries = parse_hist(v);
                let count: u64 = entries.iter().map(|(_, c)| c).sum();
                let max = entries.last().map_or(0, |&(u, _)| u);
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::uint(count)),
                        ("p50".into(), Json::uint(hist_quantile(&entries, 0.50))),
                        ("p99".into(), Json::uint(hist_quantile(&entries, 0.99))),
                        ("p999".into(), Json::uint(hist_quantile(&entries, 0.999))),
                        ("max".into(), Json::uint(max)),
                    ]),
                )
            })
            .collect(),
        _ => Vec::new(),
    };
    let grab = |key: &str| doc.get(key).cloned().unwrap_or(Json::Obj(vec![]));
    Some(Json::Obj(vec![
        ("name".into(), Json::Str(name)),
        (
            "wall_s".into(),
            doc.get("wall_s").cloned().unwrap_or(Json::Num(0.0)),
        ),
        ("counters".into(), Json::Obj(counters)),
        ("metrics".into(), grab("metrics")),
        ("timings".into(), grab("timings")),
        ("histograms".into(), Json::Obj(hists)),
    ]))
}

/// Assembles the full trajectory record.
pub fn record(
    git_rev: &str,
    git_dirty: bool,
    created_unix_ms: u64,
    total_wall_s: f64,
    benches: Vec<Json>,
) -> Json {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("created_unix_ms".into(), Json::uint(created_unix_ms)),
        (
            "git".into(),
            Json::Obj(vec![
                ("rev".into(), Json::Str(git_rev.into())),
                ("dirty".into(), Json::Bool(git_dirty)),
            ]),
        ),
        (
            "host".into(),
            Json::Obj(vec![("parallelism".into(), Json::uint(parallelism as u64))]),
        ),
        ("config".into(), crate::Report::config_json()),
        ("total_wall_s".into(), Json::Num(total_wall_s)),
        ("benches".into(), Json::Arr(benches)),
    ])
}

/// The current git revision (short) and dirty flag, via the `git` CLI;
/// `("nogit", false)` when unavailable.
pub fn git_state() -> (String, bool) {
    let run = |args: &[&str]| -> Option<String> {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match run(&["rev-parse", "--short=12", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            let dirty = run(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            (rev, dirty)
        }
        _ => ("nogit".into(), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_over_sparse_buckets() {
        // 90 values ≤1, 9 values ≤7, 1 value ≤1023.
        let entries = [(1u64, 90u64), (7, 9), (1023, 1)];
        assert_eq!(hist_quantile(&entries, 0.50), 1);
        assert_eq!(hist_quantile(&entries, 0.95), 7);
        assert_eq!(hist_quantile(&entries, 0.99), 7);
        assert_eq!(hist_quantile(&entries, 0.999), 1023);
        assert_eq!(hist_quantile(&entries, 1.0), 1023);
        assert_eq!(hist_quantile(&[], 0.5), 0);
        assert_eq!(hist_quantile(&[(0, 5)], 0.99), 0);
    }

    #[test]
    fn p999_separates_the_tail_p99_misses() {
        // 998 fast observations and two 1023-bucket stragglers: p99
        // (rank 990) stays in the fast bucket, p999 (rank 999) lands on
        // the stragglers p99 cannot see.
        let entries = [(3u64, 998u64), (1023, 2)];
        assert_eq!(hist_quantile(&entries, 0.99), 3);
        assert_eq!(hist_quantile(&entries, 0.999), 1023);
    }

    #[test]
    fn bench_entry_reduces_a_session() {
        let doc = Json::parse(
            r#"{"name":"fig_x","config":{},"wall_s":1.5,
                "metrics":{"result_pairs":42},"timings":{"t":0.1},
                "session":{
                  "counters":{"storage.disk.reads":7},
                  "gauges":{},
                  "histograms":{"h":[[1,90],[7,10]]},
                  "spans":[]}}"#,
        )
        .unwrap();
        let e = bench_entry(&doc).unwrap();
        assert_eq!(e.get("name").unwrap().as_str(), Some("fig_x"));
        assert_eq!(e.get("wall_s").unwrap().as_f64(), Some(1.5));
        let counters = e.get("counters").unwrap();
        assert_eq!(
            counters.get("storage.disk.reads").unwrap().as_u64(),
            Some(7)
        );
        let h = e.get("histograms").unwrap().get("h").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(100));
        assert_eq!(h.get("p50").unwrap().as_u64(), Some(1));
        assert_eq!(h.get("p99").unwrap().as_u64(), Some(7));
        assert_eq!(h.get("p999").unwrap().as_u64(), Some(7));
        assert_eq!(h.get("max").unwrap().as_u64(), Some(7));
        assert_eq!(
            e.get("metrics")
                .unwrap()
                .get("result_pairs")
                .unwrap()
                .as_u64(),
            Some(42)
        );
    }

    #[test]
    fn bench_entry_summary_round_trips_through_json() {
        // Golden shape: the rendered histogram summary must parse back
        // identically, p999 included — the trajectory file is consumed
        // by `bench_compare` after a disk round trip.
        let doc = Json::parse(
            r#"{"name":"fig_y","config":{},"wall_s":0.5,
                "metrics":{},"timings":{},
                "session":{
                  "counters":{},"gauges":{},
                  "histograms":{"lat":[[3,998],[1023,2]]},
                  "spans":[]}}"#,
        )
        .unwrap();
        let e = bench_entry(&doc).unwrap();
        let golden = r#""lat":{"count":1000,"p50":3,"p99":3,"p999":1023,"max":1023}"#;
        assert!(
            e.render().contains(golden),
            "rendered entry lacks golden summary: {}",
            e.render()
        );
        let reparsed = Json::parse(&e.render()).unwrap();
        assert_eq!(reparsed, e, "trajectory entry must round-trip");
        assert_eq!(
            reparsed
                .get("histograms")
                .unwrap()
                .get("lat")
                .unwrap()
                .get("p999")
                .unwrap()
                .as_u64(),
            Some(1023)
        );
    }

    #[test]
    fn record_is_self_describing() {
        let rec = record("abc123", true, 1_754_000_000_000, 12.5, vec![]);
        assert_eq!(rec.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(
            rec.get("git").unwrap().get("rev").unwrap().as_str(),
            Some("abc123")
        );
        assert_eq!(
            rec.get("git").unwrap().get("dirty"),
            Some(&Json::Bool(true))
        );
        // The config block carries the PBSM_* environment snapshot.
        assert!(rec.get("config").unwrap().get("env").is_some());
        // And it round-trips through the serializer.
        assert_eq!(Json::parse(&rec.render()).unwrap(), rec);
    }
}
