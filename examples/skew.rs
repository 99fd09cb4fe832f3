//! §3.5 dynamic repartitioning, the skew extension the paper leaves as
//! future work, exercised on a pathologically skewed workload: without
//! it, a partition pair holding a dense cluster blows past work memory;
//! with it, the pair is recursively re-tiled until sub-pairs fit.
//!
//! ```text
//! cargo run --release --example skew
//! ```

use pbsm::geom::{Point, Polyline};
use pbsm::prelude::*;
use std::time::Instant;

/// 90 % of all features inside one tiny "downtown" cell, the rest spread
/// out — the "most of the data is concentrated in a very small cluster"
/// case of §3.5.
fn skewed_tuples(n: usize, seed: u64) -> Vec<SpatialTuple> {
    let mut rnd = pbsm_geom::lcg::Lcg::new(seed);
    (0..n)
        .map(|i| {
            let (x, y) = if i % 10 != 0 {
                // downtown cell
                (49.0 + rnd.next_f64() * 2.0, 49.0 + rnd.next_f64() * 2.0)
            } else {
                (rnd.next_f64() * 100.0, rnd.next_f64() * 100.0)
            };
            let pts = vec![
                Point::new(x, y),
                Point::new(x + rnd.next_f64() * 0.03, y + rnd.next_f64() * 0.03),
                Point::new(x + rnd.next_f64() * 0.03, y + rnd.next_f64() * 0.03),
            ];
            SpatialTuple::new(i as u64, Polyline::new(pts).into(), 16)
        })
        .collect()
}

fn main() {
    let db = Db::new(DbConfig::with_pool_mb(8));
    load_relation(&db, "r", &skewed_tuples(25_000, 3), false).unwrap();
    load_relation(&db, "s", &skewed_tuples(20_000, 7), false).unwrap();
    let spec = JoinSpec::new("r", "s", SpatialPredicate::Intersects);

    // Work memory so small that the downtown partition cannot fit.
    let base = JoinConfig {
        work_mem_bytes: 256 * 1024,
        ..JoinConfig::default()
    };

    let t = Instant::now();
    let plain = pbsm_join(&db, &spec, &base).unwrap();
    let t_plain = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let repart = pbsm_join(
        &db,
        &spec,
        &JoinConfig {
            dynamic_repartition: true,
            ..base.clone()
        },
    )
    .unwrap();
    let t_repart = t.elapsed().as_secs_f64();
    assert_eq!(
        plain.pairs, repart.pairs,
        "repartitioning changed the answer"
    );

    println!(
        "skewed join, {} partitions, {} results",
        plain.stats.partitions, plain.stats.results
    );
    println!("  plain merge (overflowing pairs swept in place): {t_plain:.3}s");
    println!("  with §3.5 dynamic repartitioning:               {t_repart:.3}s");
}
