//! Profile smoke: one profiled join per algorithm, each emitted profile
//! validated against the `pbsm-profile-v1` schema.
//!
//! ```text
//! PBSM_SCALE=0.02 cargo run --release -p pbsm-bench --bin profile_smoke
//! ```
//!
//! Prints the EXPLAIN ANALYZE tree of every join, checks the schema and
//! the children-sum invariant (`pbsm_obs::profile::validate`), writes
//! the collected documents to `bench_results/profile_smoke.json`, and
//! exits non-zero if any profile is missing or invalid. Not a harness
//! (`HARNESSES` excludes it): nothing here is gated by `bench_compare`;
//! this is CI's proof that the profile pipeline stays wired end to end.

use pbsm_bench::{run_join, save_profiles, tiger_db, tiger_spec, Algorithm, TigerSet};
use pbsm_join::JoinConfig;
use pbsm_obs::Json;

fn main() {
    pbsm_obs::reset();
    let spec = tiger_spec(TigerSet::RoadHydro);
    let mut failures = 0u32;
    for alg in Algorithm::ALL {
        let db = tiger_db(2, TigerSet::RoadHydro, false);
        let out = run_join(alg, &db, &spec, &JoinConfig::for_db(&db));
        let Some(p) = &out.profile else {
            eprintln!("profile_smoke: {} attached no profile", alg.name());
            failures += 1;
            continue;
        };
        println!("{}", p.explain_analyze());
        // Round-trip through the renderer: what CI archives is the JSON
        // text, so validate the parsed text, not the in-memory tree.
        let doc = match Json::parse(&p.to_json().render()) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("profile_smoke: {} profile JSON unparseable: {e}", alg.key());
                failures += 1;
                continue;
            }
        };
        if let Err(e) = pbsm_obs::profile::validate(&doc) {
            eprintln!("profile_smoke: {} profile invalid: {e}", alg.key());
            failures += 1;
        }
    }
    save_profiles("smoke");
    if failures > 0 {
        eprintln!("\nprofile_smoke: {failures} invalid profile(s)");
        std::process::exit(1);
    }
    println!("profile_smoke: all {} profiles valid", Algorithm::ALL.len());
}
