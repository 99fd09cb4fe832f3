//! Figure 13: Sequoia landuse ⋈ islands (containment), no pre-existing
//! indices.
//!
//! Paper's findings to reproduce: PBSM is 13–27 % faster than the R-tree
//! join and 17–114 % faster than INL; the refinement step dominates both
//! PBSM (~79 %) and the R-tree join (~68 %) because the polygon features
//! are large.

use pbsm_bench::{
    compare_algorithms, run_join, sequoia_db, sequoia_spec, verdicts, Algorithm, Report,
};
use pbsm_join::JoinConfig;

fn main() {
    Report::run(
        "fig13_sequoia",
        "Figure 13: Sequoia landuse ⋈ islands (containment), no pre-existing indices",
        |report| {
            let samples = compare_algorithms(report, &|mb| sequoia_db(mb, false), &sequoia_spec());
            verdicts(report, &samples);

            // Refinement dominance check.
            report.blank();
            let cs = pbsm_bench::cpu_scale();
            for alg in [Algorithm::Pbsm, Algorithm::RtreeJoin] {
                let db = sequoia_db(*pbsm_bench::pool_sizes_mb().last().unwrap(), false);
                let out = run_join(alg, &db, &sequoia_spec(), &JoinConfig::for_db(&db));
                let refine = out
                    .report
                    .component("refinement step")
                    .map(|c| c.total_1996(cs))
                    .unwrap_or(0.0);
                let share = refine / out.report.total_1996(cs).max(1e-9);
                report.timing(&format!("refine_share.{}", alg.key()), share);
                report.line(&format!(
                    "{}: refinement share {:.0}% (paper: PBSM ≈79%, R-tree ≈68%)",
                    alg.name(),
                    100.0 * share
                ));
            }
        },
    );
}
