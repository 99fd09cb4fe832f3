//! §4.5 omitted result: "the performance of the different algorithms
//! using the Sequoia data qualitatively matched the results shown in
//! Figure 14". Reproduced: the same six pre-existing-index scenarios on
//! the Sequoia containment query.

use pbsm_bench::{index_scenarios_figure, pool_sizes_mb, secs, sequoia_db, sequoia_spec, Report};

fn main() {
    Report::run(
        "pd_sequoia_indices",
        "§4.5 omitted result: pre-existing index scenarios, Sequoia landuse ⋈ islands",
        |report| {
            let samples =
                index_scenarios_figure(report, &|mb| sequoia_db(mb, false), &sequoia_spec());
            report.blank();
            let t = |mb: usize, label: &str| {
                samples
                    .iter()
                    .find(|(p, l, _)| *p == mb && *l == label)
                    .map(|(_, _, v)| *v)
                    .unwrap()
            };
            let mut both_ok = true;
            for mb in pool_sizes_mb() {
                both_ok &= t(mb, "Rtree-2-Indices") <= t(mb, "PBSM") * 1.10;
                report.line(&format!(
                    "{mb:>3} MB: Rtree-2 {} vs PBSM {}",
                    secs(t(mb, "Rtree-2-Indices")),
                    secs(t(mb, "PBSM"))
                ));
            }
            report.timing("check.matches_fig14", f64::from(both_ok));
            report.line(&format!(
                "qualitatively matches Figure 14 (both indices ⇒ R-tree join wins or ties within 10%): {}",
                if both_ok { "yes ✓" } else { "NO ✗" }
            ));
        },
    );
}
