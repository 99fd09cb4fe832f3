//! Figure 8: Road ⋈ Rail execution time vs buffer-pool size, no
//! pre-existing indices — the unequal-input-size case.
//!
//! Paper's findings to reproduce: with the Rail data (2.4 MB) and its
//! index (1 MB) fitting in the pool, indexed nested loops beats the
//! R-tree based join, whose cost is dominated (~85 %) by building the
//! index on the large Road input.

use pbsm_bench::{
    compare_algorithms, run_join, tiger_db, tiger_spec, verdicts, Algorithm, Report, TigerSet,
};
use pbsm_join::JoinConfig;

fn main() {
    Report::run(
        "fig08_tiger_road_rail",
        "Figure 8: TIGER Road ⋈ Rail (unequal input sizes), no pre-existing indices",
        |report| {
            let samples = compare_algorithms(
                report,
                &|mb| tiger_db(mb, TigerSet::RoadRail, false),
                &tiger_spec(TigerSet::RoadRail),
            );
            verdicts(report, &samples);

            report.blank();
            let inl_beats_rtree = pbsm_bench::pool_sizes_mb().iter().all(|&mb| {
                let t = |alg| {
                    samples
                        .iter()
                        .find(|(p, a, _)| *p == mb && *a == alg)
                        .map(|(_, _, t)| *t)
                        .unwrap()
                };
                t(Algorithm::Inl) < t(Algorithm::RtreeJoin)
            });
            report.timing("check.inl_beats_rtree", f64::from(inl_beats_rtree));
            report.line(&format!(
                "INL beats the R-tree join when inputs differ greatly in size: {}",
                if inl_beats_rtree { "yes ✓" } else { "NO ✗" }
            ));

            // Paper: the R-tree join spends ~85 % of its time building
            // the Road index.
            let db = tiger_db(
                *pbsm_bench::pool_sizes_mb().last().unwrap(),
                TigerSet::RoadRail,
                false,
            );
            let out = run_join(
                Algorithm::RtreeJoin,
                &db,
                &tiger_spec(TigerSet::RoadRail),
                &JoinConfig::for_db(&db),
            );
            let cs = pbsm_bench::cpu_scale();
            let build_road = out
                .report
                .component("build index on road")
                .map(|c| c.total_1996(cs))
                .unwrap_or(0.0);
            let share = 100.0 * build_road / out.report.total_1996(cs).max(1e-9);
            report.timing("build_road_share_pct.rtree", share);
            report.line(&format!(
                "R-tree join share spent building the Road index: {share:.0}% (paper: ≈85%)"
            ));
        },
    );
}
