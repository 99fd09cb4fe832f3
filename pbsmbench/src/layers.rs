//! The traced run: PBSM and the R-tree join composed from their public
//! phases, plus single-layer kernel passes, each call wrapped in a span
//! of the benchmark's own [`Tracer`].
//!
//! Counts come from `Db::disk_stats()`, `BufferPool::stats()`, join
//! outcomes and sharded outcomes. Two counts exist only as `pbsm_obs`
//! counters (`rtree.join.node_pairs`, `storage.extsort.runs`); they are
//! read in phase 1, before any thread other than this one has written a
//! database, because reading `pbsm_obs` counters on a thread whose
//! database other threads have written is unsound (see NOTES.md, open
//! finding). The sharded join, whose scatter workers write the shard
//! databases, runs only in phase 2.

use crate::data::{Digest, Env, Reference, WINDOWS};
use crate::stats::median;
use crate::trace::Tracer;
use pbsm_geom::predicates::evaluate;
use pbsm_join::filter::{load_partition, merge_partitions, partition_input, sweep_partition_pair};
use pbsm_join::inl::inl_join;
use pbsm_join::keyptr::{cmp_pair_bytes, decode_pair, encode_pair, KEY_PTR_SIZE, OID_PAIR_SIZE};
use pbsm_join::partition::{partition_count, TileGrid};
use pbsm_join::pbsm::pbsm_join;
use pbsm_join::refine::refinement_step;
use pbsm_join::select::select_index;
use pbsm_join::ShardAlgorithm;
use pbsm_rtree::join::rtree_join as bks93_join;
use pbsm_rtree::query::window_query;
use pbsm_rtree::RTree;
use pbsm_storage::buffer::PoolStats;
use pbsm_storage::catalog::RelationMeta;
use pbsm_storage::disk::DiskStats;
use pbsm_storage::extsort::external_sort;
use pbsm_storage::heap::HeapFile;
use pbsm_storage::record::RecordFile;
use pbsm_storage::tuple::SpatialTuple;
use pbsm_storage::{Oid, StorageResult};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Selections per traced round.
const TRACE_SELECTS: usize = 200;
/// Share of the run given to phase 1 (everything but the sharded join).
const PHASE1_SHARE: f64 = 0.75;

/// One per-layer metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Per-round counts gathered next to the spans.
#[derive(Default)]
struct Counts {
    pbsm_untraced_s: Vec<f64>,
    pbsm_traced_s: Vec<f64>,
    replication: Vec<f64>,
    candidates: Vec<f64>,
    unique_candidates: Vec<f64>,
    hit_ratio: Vec<f64>,
    node_pairs: Vec<f64>,
    sort_runs: Vec<f64>,
    nodes_per_query: Vec<f64>,
    probes: Vec<f64>,
    misses_per_probe: Vec<f64>,
    pool: Vec<PoolStats>,
    disk: Vec<DiskStats>,
    dedup: Vec<f64>,
    failures: Vec<String>,
}

fn obs_count(name: &str) -> u64 {
    pbsm_obs::counter(name).get()
}

fn pool_delta(a: PoolStats, b: PoolStats) -> PoolStats {
    PoolStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        evictions: b.evictions - a.evictions,
        writebacks: b.writebacks - a.writebacks,
    }
}

fn expect_digest(what: &str, got: Digest, want: Digest) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} mismatch: got {got:?}, reference {want:?}"))
    }
}

/// The inputs' catalog entries and the partitioning `pbsm_join` derives
/// from them: Equation 1's partition count and the tile grid.
struct Plan {
    lm: RelationMeta,
    rm: RelationMeta,
    p: usize,
    grid: TileGrid,
}

impl Plan {
    fn new(env: &Env) -> Result<Plan, String> {
        let cat = env.db.catalog();
        let meta = |name: &str| cat.relation(name).cloned().map_err(|e| e.to_string());
        let (lm, rm) = (meta(&env.spec.left)?, meta(&env.spec.right)?);
        let p = partition_count(
            lm.cardinality,
            rm.cardinality,
            KEY_PTR_SIZE,
            env.config.work_mem_bytes,
        );
        let grid = TileGrid::new(lm.universe.union(&rm.universe), env.config.num_tiles.max(p));
        Ok(Plan { lm, rm, p, grid })
    }
}

/// The traced run. Returns the per-layer metrics and the number of
/// operations attempted and failed.
pub fn traced(
    env: &mut Env,
    reference: &Reference,
    tracer: &mut Tracer,
    seconds: f64,
) -> (Vec<Metric>, u64, u64) {
    let mut counts = Counts::default();
    let mut attempted = 0u64;
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || t0.elapsed().as_secs_f64() < seconds * PHASE1_SHARE {
        tracer.begin_request();
        let ops = [
            main_db_round(env, reference, tracer, &mut counts),
            kernels(env, reference, tracer, &mut counts),
        ];
        attempted += ops.len() as u64;
        counts
            .failures
            .extend(ops.into_iter().filter_map(Result::err));
        // Bounds the program's retained spans and profiles, as in the
        // timed run; phase 2 does not reset, since that would run the
        // shard flushers on this thread after scatter workers wrote.
        pbsm_obs::reset();
        rounds += 1;
    }
    let mut shard_rounds = 0u64;
    while shard_rounds == 0 || (t0.elapsed().as_secs_f64() < seconds && shard_rounds < rounds) {
        tracer.begin_request();
        attempted += 1;
        if let Err(e) = sharded_round(env, reference, tracer, &mut counts) {
            counts.failures.push(e);
        }
        shard_rounds += 1;
    }
    for f in &counts.failures {
        eprintln!("FAILED traced: {f}");
    }
    let failed = counts.failures.len() as u64;
    (metrics(env, tracer, &counts), attempted, failed)
}

/// Composed PBSM, composed R-tree join, INL and selections on the main
/// database, with the untraced `pbsm_join` as the base they are compared
/// against.
fn main_db_round(
    env: &Env,
    reference: &Reference,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let (db, spec, config) = (&env.db, &env.spec, &env.config);
    let err = |e: pbsm_storage::StorageError| e.to_string();
    let Plan { lm, rm, p, grid } = Plan::new(env)?;

    env.cool();
    let t = Instant::now();
    let out = pbsm_join(db, spec, config).map_err(err)?;
    counts.pbsm_untraced_s.push(t.elapsed().as_secs_f64());
    expect_digest(
        "pbsm_join",
        Digest::of_oid_pairs(&out.pairs),
        reference.join,
    )?;

    // PBSM composed from its phases, in the order `pbsm_join` runs them.
    env.cool();
    let pool0 = db.pool().stats();
    let disk0 = db.disk_stats();
    let t = Instant::now();
    let refined = tracer.span("pbsm", |t| -> StorageResult<_> {
        let lp = t.span("filter.partition_input", |_| {
            partition_input(db, &lm, &grid, config.tile_map, p)
        })?;
        let rp = t.span("filter.partition_input", |_| {
            partition_input(db, &rm, &grid, config.tile_map, p)
        })?;
        let input = (lp.input_elements + rp.input_elements) as f64;
        let copies = (lp.replicated_elements + rp.replicated_elements) as f64;
        let merged = t.span("filter.merge_partitions", |_| {
            merge_partitions(db, &lp, &rp, config)
        });
        lp.destroy(db);
        rp.destroy(db);
        let (cands, raw) = merged?;
        let refined = t.span("refine.refinement_step", |_| {
            refinement_step(
                db,
                &cands,
                &lm,
                &rm,
                spec.predicate,
                &config.refine,
                config.work_mem_bytes,
            )
        });
        cands.destroy(db.pool());
        Ok((refined?, copies / input, raw))
    });
    counts.pbsm_traced_s.push(t.elapsed().as_secs_f64());
    let (refined, replication, raw) = refined.map_err(err)?;
    expect_digest(
        "composed pbsm",
        Digest::of_oid_pairs(&refined.pairs),
        reference.join,
    )?;
    counts.replication.push(replication);
    counts.candidates.push(raw as f64);
    counts
        .unique_candidates
        .push(refined.unique_candidates as f64);
    counts
        .hit_ratio
        .push(refined.pairs.len() as f64 / refined.unique_candidates.max(1) as f64);

    // The R-tree join composed from the BKS93 traversal and refinement.
    env.cool();
    let index = |name: &str| {
        db.catalog()
            .index(name)
            .map(RTree::open)
            .ok_or_else(|| format!("{name} has no index"))
    };
    let (lt, rt) = (index(&spec.left)?, index(&spec.right)?);
    let node_pairs0 = obs_count("rtree.join.node_pairs");
    let refined = tracer.span("rtree", |t| -> StorageResult<_> {
        let cands = t.span("rtree.join", |_| -> StorageResult<RecordFile> {
            let out = RecordFile::create(db.pool(), OID_PAIR_SIZE)?;
            let mut writer = out.writer(db.pool());
            let mut pushed = Ok(());
            bks93_join(&lt, &rt, db.pool(), &mut |a, b| {
                if pushed.is_ok() {
                    pushed = writer.push(&encode_pair(a, b));
                }
            })?;
            pushed?;
            writer.finish()?;
            Ok(out)
        })?;
        let refined = t.span("rtree.refinement_step", |_| {
            refinement_step(
                db,
                &cands,
                &lm,
                &rm,
                spec.predicate,
                &config.refine,
                config.work_mem_bytes,
            )
        });
        cands.destroy(db.pool());
        refined
    });
    counts
        .node_pairs
        .push((obs_count("rtree.join.node_pairs") - node_pairs0) as f64);
    let refined = refined.map_err(err)?;
    expect_digest(
        "composed rtree join",
        Digest::of_oid_pairs(&refined.pairs),
        reference.join,
    )?;

    env.cool();
    let before = db.pool().stats();
    let out = tracer
        .span("inl.join", |_| inl_join(db, spec, config))
        .map_err(err)?;
    expect_digest("inl_join", Digest::of_oid_pairs(&out.pairs), reference.join)?;
    // Both inputs are indexed, so INL indexes the smaller one and probes
    // it once per tuple of the larger.
    let probes = lm.cardinality.max(rm.cardinality) as f64;
    counts.probes.push(probes);
    counts
        .misses_per_probe
        .push(pool_delta(before, db.pool().stats()).misses as f64 / probes);
    counts.pool.push(pool_delta(pool0, db.pool().stats()));
    counts.disk.push(db.disk_stats().delta_since(&disk0));

    env.cool();
    let relation = env.workload.select_relation();
    let tree = index(relation)?;
    let start = tracer.request() as usize * TRACE_SELECTS;
    // On a thread of its own, as in the timed run (see `run::single_client`).
    let nodes = std::thread::scope(|s| {
        s.spawn(|| -> Result<u64, String> {
            let mut nodes = 0u64;
            for k in 0..TRACE_SELECTS {
                let w = (start + k) % WINDOWS;
                let window = &reference.windows[w];
                let before = db.pool().stats();
                let mut hits: Vec<Oid> = Vec::new();
                tracer
                    .span("rtree.window_query", |_| {
                        window_query(&tree, db.pool(), window, &mut hits)
                    })
                    .map_err(err)?;
                let after = db.pool().stats();
                nodes += (after.hits + after.misses) - (before.hits + before.misses);
                let out = tracer
                    .span("select.select_index", |_| {
                        select_index(db, relation, window)
                    })
                    .map_err(err)?;
                expect_digest(
                    "select_index",
                    Digest::of_oids(&out.oids),
                    reference.selects[w],
                )?;
            }
            Ok(nodes)
        })
        .join()
        .expect("selection thread")
    })?;
    counts
        .nodes_per_query
        .push(nodes as f64 / TRACE_SELECTS as f64);
    Ok(())
}

/// Single-layer passes: heap scan, tuple decode, the tile map over every
/// MBR, the plane sweep over loaded partitions, the external sort of the
/// candidates and the exact predicate over the unique candidates.
fn kernels(
    env: &Env,
    reference: &Reference,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let (db, spec, config) = (&env.db, &env.spec, &env.config);
    let err = |e: pbsm_storage::StorageError| e.to_string();
    let Plan { lm, rm, p, grid } = Plan::new(env)?;

    env.cool();
    let heap = HeapFile::open(lm.file);
    let bytes = tracer
        .span("heap.scan", |_| {
            heap.scan(db.pool())
                .map(|item| item.map(|(_, b)| b))
                .collect::<StorageResult<Vec<Vec<u8>>>>()
        })
        .map_err(err)?;
    let decoded = tracer
        .span("tuple.decode", |_| {
            bytes
                .iter()
                .map(|b| SpatialTuple::decode(b).map(|t| black_box(t).key))
                .collect::<StorageResult<Vec<u64>>>()
        })
        .map_err(err)?;
    if decoded.len() != env.left.len() {
        return Err(format!("heap scan returned {} tuples", decoded.len()));
    }

    let mbrs: Vec<_> = env
        .left
        .iter()
        .chain(&env.right)
        .map(|t| t.geom.mbr())
        .collect();
    let copies = tracer.span("partition.tile_map", |_| {
        let mut copies = 0u64;
        for mbr in &mbrs {
            grid.for_each_partition(black_box(mbr), config.tile_map, p, |_| copies += 1);
        }
        copies
    });
    black_box(copies);

    env.cool();
    let lp = partition_input(db, &lm, &grid, config.tile_map, p).map_err(err)?;
    let rp = partition_input(db, &rm, &grid, config.tile_map, p).map_err(err)?;
    let mut swept = Vec::new();
    for (rf, sf) in lp.files.iter().zip(&rp.files) {
        let r = load_partition(db, rf).map_err(err)?;
        let s = load_partition(db, sf).map_err(err)?;
        tracer.span("geom.sweep_join", |_| {
            sweep_partition_pair(&r, &s, &mut swept)
        });
    }
    let merged = merge_partitions(db, &lp, &rp, config);
    lp.destroy(db);
    rp.destroy(db);
    let (cands, raw) = merged.map_err(err)?;
    if raw != swept.len() as u64 {
        cands.destroy(db.pool());
        return Err(format!(
            "sweep found {} candidates, merge {raw}",
            swept.len()
        ));
    }
    let runs0 = obs_count("storage.extsort.runs");
    let sorted = tracer.span("extsort.sort", |_| {
        external_sort(
            db.pool(),
            &cands,
            config.work_mem_bytes,
            cmp_pair_bytes,
            true,
        )
    });
    counts
        .sort_runs
        .push((obs_count("storage.extsort.runs") - runs0) as f64);
    cands.destroy(db.pool());
    let sorted = sorted.map_err(err)?;
    let unique = sorted.read_all(db.pool());
    sorted.destroy(db.pool());
    let unique = unique.map_err(err)?;

    let left_at: HashMap<u64, usize> = reference
        .left_oids
        .iter()
        .enumerate()
        .map(|(i, o)| (o.raw(), i))
        .collect();
    let right_at: HashMap<u64, usize> = reference
        .right_oids
        .iter()
        .enumerate()
        .map(|(i, o)| (o.raw(), i))
        .collect();
    let pairs: Vec<(&SpatialTuple, &SpatialTuple)> = unique
        .chunks_exact(OID_PAIR_SIZE)
        .map(|c| {
            let (a, b) = decode_pair(c);
            (&env.left[left_at[&a.raw()]], &env.right[right_at[&b.raw()]])
        })
        .collect();
    let hits = tracer.span("geom.evaluate", |_| {
        pairs
            .iter()
            .filter(|(l, r)| evaluate(spec.predicate, &l.geom, &r.geom, &config.refine))
            .count()
    });
    if hits != reference.pairs.len() {
        return Err(format!(
            "evaluate accepted {hits} pairs, reference {}",
            reference.pairs.len()
        ));
    }
    Ok(())
}

/// The sharded PBSM join (phase 2).
fn sharded_round(
    env: &mut Env,
    reference: &Reference,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    env.cool();
    let (shards, spec, config) = (&mut env.shards, &env.spec, &env.config);
    let out = tracer
        .span("shard.join", |_| {
            shards.join(ShardAlgorithm::Pbsm, spec, config)
        })
        .map_err(|e| e.to_string())?;
    let raw: u64 = out.shards.iter().map(|s| s.raw_pairs).sum();
    let emitted: u64 = out.shards.iter().map(|s| s.emitted_pairs).sum();
    counts.dedup.push(emitted as f64 / raw.max(1) as f64);
    let mut keys = out.pairs;
    keys.sort_unstable();
    expect_digest("sharded pbsm join", Digest::of(keys), reference.join_keys)
}

fn metrics(env: &Env, tracer: &Tracer, counts: &Counts) -> Vec<Metric> {
    let by_name = tracer.self_by_request();
    let span = |name: &str| by_name.get(name).map_or(0.0, |v| median(v));
    let per_query = |name: &str| span(name) / TRACE_SELECTS as f64;
    let med = |v: &[f64]| median(v);
    let pool = |f: fn(&PoolStats) -> u64| {
        median(&counts.pool.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    let disk = |f: fn(&DiskStats) -> u64| {
        median(&counts.disk.iter().map(|d| f(d) as f64).collect::<Vec<_>>())
    };
    let (shard_input, shard_copies) = env.shards.replication();

    // (max − min) ÷ median of the modeled disk time of the rounds: 0
    // when cold rounds repeat their I/O exactly.
    let io_ms: Vec<f64> = counts.disk.iter().map(|d| d.io_ms).collect();
    let io_spread = {
        let (lo, hi) = io_ms.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
        let mid = median(&io_ms);
        if mid > 0.0 {
            (hi - lo) / mid
        } else {
            0.0
        }
    };
    let base = med(&counts.pbsm_untraced_s);
    let partition = span("filter.partition_input");
    let merge = span("filter.merge_partitions");
    let refine = span("refine.refinement_step");
    let share = |x: f64| if base > 0.0 { x / base } else { 0.0 };
    let hit_ratio = {
        let (hits, misses) = (pool(|p| p.hits), pool(|p| p.misses));
        hits / (hits + misses).max(1.0)
    };
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("datagen.generate_s", span("datagen.generate"), "s"),
        m("loader.load_relation_s", span("loader.load_relation"), "s"),
        m("loader.build_index_s", span("loader.build_index"), "s"),
        m("shard.load_s", span("shard.load"), "s"),
        m(
            "shard.replication_ratio",
            shard_copies as f64 / shard_input.max(1) as f64,
            "ratio",
        ),
        m("shard.join_s", span("shard.join"), "s"),
        m("shard.dedup_ratio", med(&counts.dedup), "ratio"),
        m("filter.partition_input_s", partition, "s"),
        m(
            "filter.replication_ratio",
            med(&counts.replication),
            "ratio",
        ),
        m("partition.tile_map_s", span("partition.tile_map"), "s"),
        m("heap.scan_s", span("heap.scan"), "s"),
        m("tuple.decode_s", span("tuple.decode"), "s"),
        m("filter.merge_partitions_s", merge, "s"),
        m("filter.candidates", med(&counts.candidates), "count"),
        m("geom.sweep_join_s", span("geom.sweep_join"), "s"),
        m("refine.refinement_step_s", refine, "s"),
        m(
            "refine.unique_candidates",
            med(&counts.unique_candidates),
            "count",
        ),
        m("refine.hit_ratio", med(&counts.hit_ratio), "ratio"),
        m("extsort.sort_s", span("extsort.sort"), "s"),
        m("extsort.runs", med(&counts.sort_runs), "count"),
        m("geom.evaluate_s", span("geom.evaluate"), "s"),
        m("rtree.join_s", span("rtree.join"), "s"),
        m("rtree.join.node_pairs", med(&counts.node_pairs), "count"),
        m(
            "rtree.refinement_step_s",
            span("rtree.refinement_step"),
            "s",
        ),
        m("rtree.window_query_s", per_query("rtree.window_query"), "s"),
        m(
            "rtree.nodes_per_query",
            med(&counts.nodes_per_query),
            "count",
        ),
        m(
            "select.select_index_s",
            per_query("select.select_index"),
            "s",
        ),
        m("inl.join_s", span("inl.join"), "s"),
        m("inl.probes", med(&counts.probes), "count"),
        m(
            "inl.misses_per_probe",
            med(&counts.misses_per_probe),
            "ratio",
        ),
        m("pool.hit_ratio", hit_ratio, "ratio"),
        m("pool.misses", pool(|p| p.misses), "count"),
        m("pool.evictions", pool(|p| p.evictions), "count"),
        m("pool.writebacks", pool(|p| p.writebacks), "count"),
        m("disk.reads", disk(|d| d.reads), "count"),
        m("disk.writes", disk(|d| d.writes), "count"),
        m("disk.seeks", disk(|d| d.seeks), "count"),
        m("disk.io_round_spread", io_spread, "ratio"),
        m(
            "obs.tracing_overhead",
            share(med(&counts.pbsm_traced_s)) - 1.0,
            "ratio",
        ),
        m("trace.pbsm_join_s", base, "s"),
        m(
            "trace.pbsm_phase_coverage",
            share(partition + merge + refine),
            "ratio",
        ),
        m("trace.partition_share", share(partition), "ratio"),
        m("trace.merge_share", share(merge), "ratio"),
        m("trace.refine_share", share(refine), "ratio"),
    ]
}
