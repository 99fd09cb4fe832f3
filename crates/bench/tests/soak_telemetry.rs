//! Integration tests for the continuous-telemetry stack: soak-run
//! determinism, the forced-leak sentinel hook, and the gauge-baseline
//! regression contracts the leak sentinels depend on.

use pbsm_bench::soak::{run_soak, SoakConfig};
use pbsm_bench::{
    run_join, tiger_db_journaled, tiger_db_scaled, tiger_spec, try_join, Algorithm, TigerSet,
};
use pbsm_join::JoinConfig;
use pbsm_obs::names;
use pbsm_storage::FaultConfig;

/// A small but fully mixed configuration: every query class runs, the
/// fault phase arms, and several samples land in the ring.
fn small_config() -> SoakConfig {
    SoakConfig {
        queries: 48,
        sample_every: 4,
        ring: 64,
        warmup: 6,
        seed: 7,
        scale: 0.002,
        pool_mb: 2,
        faults: true,
        fault_ppm: 400,
        force_leak: false,
        ..SoakConfig::default()
    }
}

fn gauge(name: &str) -> u64 {
    pbsm_obs::gauges()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

#[test]
fn soak_gated_output_is_byte_identical_across_runs() {
    let config = small_config();
    let first = run_soak(&config);
    let second = run_soak(&config);
    assert_eq!(
        first.gated.render(),
        second.gated.render(),
        "two soaks with the same config must render identical gated documents"
    );
    // And the clean run holds its own guarantees: samples were captured,
    // queries ran, and every sentinel passed.
    assert!(first.queries_run >= 48);
    assert!(
        first.gated.get("timeseries").is_some(),
        "gated document must embed the time series"
    );
    assert!(
        first.breaches.is_empty(),
        "clean soak must pass all sentinels, got: {:?}",
        first.breaches
    );
}

#[test]
fn soak_timeseries_validates_against_schema() {
    let outcome = run_soak(&small_config());
    let ts = outcome.gated.get("timeseries").expect("timeseries block");
    pbsm_obs::timeseries::validate(ts).expect("soak time series must validate");
}

#[test]
fn forced_leak_trips_the_live_pages_sentinel() {
    let config = SoakConfig {
        force_leak: true,
        // No faults: every PBSM query must complete (and leak).
        faults: false,
        ..small_config()
    };
    let outcome = run_soak(&config);
    let pinned = format!(
        "leak sentinel: {} drifted monotonically from baseline",
        names::DISK_LIVE_PAGES
    );
    assert!(
        outcome.breaches.iter().any(|b| b.starts_with(&pinned)),
        "forced temp leak must trip the live-pages sentinel with the pinned \
         message, got: {:?}",
        outcome.breaches
    );
    // The leaked candidate files also hold their creation intents open,
    // so the journal-length axis drifts too.
    let intents = format!(
        "leak sentinel: {} drifted monotonically from baseline",
        names::JOURNAL_OPEN_INTENTS
    );
    assert!(
        outcome.breaches.iter().any(|b| b.starts_with(&intents)),
        "forced temp leak must also trip the open-intents sentinel, got: {:?}",
        outcome.breaches
    );
}

#[test]
fn gauges_drop_to_zero_when_the_db_drops() {
    pbsm_obs::reset();
    let db = tiger_db_journaled(2, TigerSet::RoadHydro, 0.002);
    let spec = tiger_spec(TigerSet::RoadHydro);
    let _ = run_join(Algorithm::Pbsm, &db, &spec, &JoinConfig::for_db(&db));
    assert!(
        gauge(names::DISK_LIVE_PAGES) > 0,
        "a loaded database must report live pages"
    );
    drop(db);
    // The resource gauges are tied to the Db's lifetime: after drop the
    // registry must read zero on every axis, so the next session's
    // baseline starts clean.
    assert_eq!(gauge(names::DISK_LIVE_PAGES), 0);
    assert_eq!(gauge(names::POOL_OCCUPIED), 0);
    assert_eq!(gauge(names::JOURNAL_OPEN_INTENTS), 0);
}

#[test]
fn gauges_return_to_baseline_after_recovered_enospc_join() {
    pbsm_obs::reset();
    let db = tiger_db_scaled(2, TigerSet::RoadHydro, false, 0.01);
    let baseline = db.telemetry_baseline();
    let spec = tiger_spec(TigerSet::RoadHydro);
    let config = JoinConfig::for_db(&db);
    let mut recovered = false;
    for seed in 0..24u64 {
        db.pool().disk_mut().set_faults(Some(FaultConfig {
            seed,
            enospc_ppm: 6000,
            ..FaultConfig::default()
        }));
        let result = try_join(Algorithm::Pbsm, &db, &spec, &config, None);
        db.pool().disk_mut().set_faults(None);
        if let Ok(out) = &result {
            if out.stats.recovery_retries > 0 {
                recovered = true;
            }
        }
        // Whether the attempt succeeded cleanly, succeeded after
        // degradation, or exhausted its retries: every temp file must
        // be gone, so the resting levels match the pre-join baseline.
        let now = db.telemetry_baseline();
        assert_eq!(
            now.live_pages,
            baseline.live_pages,
            "live pages leaked after seed {seed} (ok={})",
            result.is_ok()
        );
        assert_eq!(now.journal_open_intents, baseline.journal_open_intents);
    }
    assert!(
        recovered,
        "no seed produced a recovered (degraded) ENOSPC join; weaken the rate"
    );
    // Cooling the cache returns occupancy to the loader's baseline too.
    db.pool().clear_cache().unwrap();
    assert_eq!(gauge(names::POOL_OCCUPIED), baseline.pool_occupied);
    assert_eq!(gauge(names::POOL_OCCUPIED), 0);
}
