//! Figure 15: joins with pre-existing indices, Road ⋈ Rail.
//!
//! Same scenario matrix as Figure 14 on the unequal-size query. Paper's
//! extra finding: with the tiny Rail index, INL-1-SmallIdx beats the
//! R-tree variants at all pool sizes (the index and data fit in memory).

use pbsm_bench::{
    index_scenarios_figure, pool_sizes_mb, secs, tiger_db, tiger_spec, Report, TigerSet,
};

fn main() {
    Report::run(
        "fig15_indices_road_rail",
        "Figure 15: pre-existing index scenarios, Road ⋈ Rail",
        |report| {
            let samples = index_scenarios_figure(
                report,
                &|mb| tiger_db(mb, TigerSet::RoadRail, false),
                &tiger_spec(TigerSet::RoadRail),
            );
            report.blank();
            let t = |mb: usize, label: &str| {
                samples
                    .iter()
                    .find(|(p, l, _)| *p == mb && *l == label)
                    .map(|(_, _, v)| *v)
                    .unwrap()
            };
            let mut inl_small_beats_rtree_small = true;
            for mb in pool_sizes_mb() {
                inl_small_beats_rtree_small &= t(mb, "INL-1-SmallIdx") <= t(mb, "Rtree-1-SmallIdx");
                report.line(&format!(
                    "{mb:>3} MB: PBSM {} | Rtree-2 {} | Rtree-1L {} | INL-1L {} | Rtree-1S {} | INL-1S {}",
                    secs(t(mb, "PBSM")),
                    secs(t(mb, "Rtree-2-Indices")),
                    secs(t(mb, "Rtree-1-LargeIdx")),
                    secs(t(mb, "INL-1-LargeIdx")),
                    secs(t(mb, "Rtree-1-SmallIdx")),
                    secs(t(mb, "INL-1-SmallIdx")),
                ));
            }
            report.blank();
            report.timing(
                "check.inl_small_beats_rtree_small",
                f64::from(inl_small_beats_rtree_small),
            );
            report.line(&format!(
                "INL beats the R-tree join when only the small Rail index exists: {}",
                if inl_small_beats_rtree_small {
                    "yes ✓"
                } else {
                    "NO ✗"
                }
            ));
        },
    );
}
