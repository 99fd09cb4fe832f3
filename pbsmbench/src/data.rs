//! Workload definitions, set-up (data generation, load, index and shard
//! build) and the reference answers every result is checked against.

use crate::trace::Tracer;
use pbsm_datagen::rng::StdRng;
use pbsm_datagen::sequoia::{self, SequoiaConfig};
use pbsm_datagen::tiger::{self, TigerConfig};
use pbsm_geom::polygon::Ring;
use pbsm_geom::predicates::{evaluate, RefineOptions, SpatialPredicate};
use pbsm_geom::{Geometry, Point, Polygon, Rect};
use pbsm_join::loader::{build_index, extract_entries, load_relation};
use pbsm_join::{JoinConfig, JoinSpec, ShardedDb, ShardedDbConfig};
use pbsm_rtree::RTree;
use pbsm_storage::tuple::SpatialTuple;
use pbsm_storage::{Db, DbConfig, Oid};

/// Shards of the scatter-gather engine every workload also joins on.
pub const SHARDS: usize = 2;
/// Seeded selection windows per run; clients cycle through them.
pub const WINDOWS: usize = 4096;
/// Window side as a share of the selected relation's universe side.
const WINDOW_FRAC: f64 = 0.004;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// TIGER road ⋈ hydrography, 2 MB pool cleared before every join.
    TigerCold,
    /// Sequoia landuse ⊇ islands, 32 MB pool kept warm.
    SequoiaWarm,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::TigerCold, Workload::SequoiaWarm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TigerCold => "tiger_cold",
            Workload::SequoiaWarm => "sequoia_warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Buffer pool of the main database and of each shard, in MB.
    pub fn pool_mb(self) -> usize {
        match self {
            Workload::TigerCold => 2,
            Workload::SequoiaWarm => 32,
        }
    }

    /// Whether every pool is cleared before each operation.
    pub fn cold(self) -> bool {
        self == Workload::TigerCold
    }

    pub fn spec(self) -> JoinSpec {
        match self {
            Workload::TigerCold => {
                JoinSpec::new("road", "hydrography", SpatialPredicate::Intersects)
            }
            Workload::SequoiaWarm => {
                JoinSpec::new("landuse", "islands", SpatialPredicate::Contains)
            }
        }
    }

    /// The relation selections read (the join's left input).
    pub fn select_relation(self) -> &'static str {
        match self {
            Workload::TigerCold => "road",
            Workload::SequoiaWarm => "landuse",
        }
    }
}

/// A loaded workload.
pub struct Env {
    pub workload: Workload,
    pub db: Db,
    pub shards: ShardedDb,
    pub spec: JoinSpec,
    pub config: JoinConfig,
    pub left: Vec<SpatialTuple>,
    pub right: Vec<SpatialTuple>,
}

impl Env {
    /// Clears the main pool and every shard pool (cold workloads only).
    pub fn cool(&self) {
        if !self.workload.cold() {
            return;
        }
        self.db
            .pool()
            .clear_cache()
            .expect("clearing a fault-free pool");
        for i in 0..self.shards.num_shards() {
            let shard = self.shards.shard_db(i).expect("shard engine present");
            shard
                .pool()
                .clear_cache()
                .expect("clearing a fault-free pool");
        }
    }

    /// Modeled disk milliseconds so far, main database and shards.
    pub fn io_ms(&self) -> f64 {
        let shards: f64 = (0..self.shards.num_shards())
            .filter_map(|i| self.shards.shard_db(i))
            .map(|db| db.disk_stats().io_ms)
            .sum();
        self.db.disk_stats().io_ms + shards
    }

    /// Megabytes of the main database's heaps and indexes.
    pub fn data_mb(&self) -> f64 {
        let cat = self.db.catalog();
        let bytes: u64 = [&self.spec.left, &self.spec.right]
            .into_iter()
            .filter_map(|name| {
                let heap = cat.relation(name).ok()?.bytes;
                let index = cat
                    .index(name)
                    .map_or(0, |m| RTree::open(m).bytes(self.db.pool()));
                Some(heap + index)
            })
            .sum();
        bytes as f64 / (1024.0 * 1024.0)
    }

    /// |R| + |S| of one join.
    pub fn join_tuples(&self) -> u64 {
        (self.left.len() + self.right.len()) as u64
    }
}

/// Generates the workload's data, loads it, builds both R*-tree indexes
/// and the sharded engine. Every step runs inside a span of `tracer`.
///
/// The relations come from the generators' calibrated default seeds, the
/// stand-ins for the paper's fixed TIGER and Sequoia data sets; the run's
/// seed drives the request stream (see [`Reference::compute`]). Seeding
/// the data as well moved the TIGER result between 1,197 and 3,201 pairs,
/// so join times across seeds measured the data, not the code.
pub fn setup(w: Workload, scale: f64, tracer: &mut Tracer) -> Env {
    let spec = w.spec();
    let (left, right) = tracer.span("datagen.generate", |_| match w {
        Workload::TigerCold => {
            let cfg = TigerConfig::scaled(scale);
            (tiger::road(&cfg), tiger::hydrography(&cfg))
        }
        Workload::SequoiaWarm => sequoia::generate(&SequoiaConfig::scaled(scale)),
    });
    let db = Db::new(DbConfig::with_pool_mb(w.pool_mb()));
    for (name, tuples) in [(&spec.left, &left), (&spec.right, &right)] {
        let meta = tracer.span("loader.load_relation", |_| {
            load_relation(&db, name, tuples, false).expect("loading a fault-free database")
        });
        tracer.span("loader.build_index", |_| {
            build_index(&db, &meta).expect("indexing a fault-free database")
        });
    }
    let shards = tracer.span("shard.load", |_| {
        let universe = left
            .iter()
            .chain(&right)
            .fold(Rect::empty(), |u, t| u.union(&t.geom.mbr()));
        let mut shards = ShardedDb::new(
            ShardedDbConfig {
                db: DbConfig::with_pool_mb(w.pool_mb()),
                ..ShardedDbConfig::with_shards(SHARDS)
            },
            universe,
        );
        shards
            .load_relation(&spec.left, &left, false)
            .expect("loading fault-free shards");
        shards
            .load_relation(&spec.right, &right, false)
            .expect("loading fault-free shards");
        shards
    });
    let config = JoinConfig::for_db(&db);
    Env {
        workload: w,
        db,
        shards,
        spec,
        config,
        left,
        right,
    }
}

/// Count and FNV-1a hash of a sequence of `u64` pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub n: u64,
    pub hash: u64,
}

impl Digest {
    pub fn of(items: impl IntoIterator<Item = (u64, u64)>) -> Digest {
        let mut d = Digest {
            n: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        };
        for (a, b) in items {
            d.n += 1;
            for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
                d.hash = (d.hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        d
    }

    /// Digest of sorted OID pairs.
    pub fn of_oid_pairs(pairs: &[(Oid, Oid)]) -> Digest {
        let mut v: Vec<(u64, u64)> = pairs.iter().map(|(a, b)| (a.raw(), b.raw())).collect();
        v.sort_unstable();
        Digest::of(v)
    }

    /// Digest of a sorted OID set.
    pub fn of_oids(oids: &[Oid]) -> Digest {
        let mut v: Vec<u64> = oids.iter().map(|o| o.raw()).collect();
        v.sort_unstable();
        Digest::of(v.into_iter().map(|o| (o, 0)))
    }
}

/// Reference answers, computed once in memory from the generated tuples
/// with a uniform-grid filter of the benchmark's own and the exact
/// predicate kernel; none of the joins or indexes under test is used.
pub struct Reference {
    /// OID of each left / right tuple in the main database.
    pub left_oids: Vec<Oid>,
    pub right_oids: Vec<Oid>,
    /// Result pairs as (left index, right index).
    pub pairs: Vec<(u32, u32)>,
    /// Digest of the result as OID pairs (single-database joins).
    pub join: Digest,
    /// Digest of the result as key pairs (the sharded join).
    pub join_keys: Digest,
    pub windows: Vec<Rect>,
    /// Digest of each window's selected OIDs.
    pub selects: Vec<Digest>,
}

impl Reference {
    /// Computes the reference for `env`; `seed` draws the selection
    /// windows.
    pub fn compute(env: &Env, seed: u64) -> Reference {
        let oids = |name: &str, n: usize| -> Vec<Oid> {
            let meta = env.db.catalog().relation(name).expect("loaded").clone();
            let entries = extract_entries(&env.db, &meta).expect("scanning a fault-free heap");
            assert_eq!(entries.len(), n, "heap scan returns every loaded tuple");
            entries.into_iter().map(|(_, oid)| oid).collect()
        };
        let left_oids = oids(&env.spec.left, env.left.len());
        let right_oids = oids(&env.spec.right, env.right.len());
        let opts = RefineOptions::default();

        let right_grid = Grid::new(&env.right);
        let mut pairs = Vec::new();
        for (i, l) in env.left.iter().enumerate() {
            right_grid.query(&l.geom.mbr(), |j| {
                let r = &env.right[j as usize];
                if evaluate(env.spec.predicate, &l.geom, &r.geom, &opts) {
                    pairs.push((i as u32, j));
                }
            });
        }
        let join = Digest::of_oid_pairs(
            &pairs
                .iter()
                .map(|&(i, j)| (left_oids[i as usize], right_oids[j as usize]))
                .collect::<Vec<_>>(),
        );
        let mut keys: Vec<(u64, u64)> = pairs
            .iter()
            .map(|&(i, j)| (env.left[i as usize].key, env.right[j as usize].key))
            .collect();
        keys.sort_unstable();
        let join_keys = Digest::of(keys);

        let windows = windows(&env.left, seed);
        let left_grid = Grid::new(&env.left);
        let selects = windows
            .iter()
            .map(|w| {
                let window = window_polygon(w);
                let mut hits = Vec::new();
                left_grid.query(w, |i| {
                    let t = &env.left[i as usize];
                    if evaluate(SpatialPredicate::Intersects, &window, &t.geom, &opts) {
                        hits.push(left_oids[i as usize]);
                    }
                });
                Digest::of_oids(&hits)
            })
            .collect();
        Reference {
            left_oids,
            right_oids,
            pairs,
            join,
            join_keys,
            windows,
            selects,
        }
    }
}

/// Seeded selection windows centred on tuples of `tuples`.
fn windows(tuples: &[SpatialTuple], seed: u64) -> Vec<Rect> {
    let universe = tuples
        .iter()
        .fold(Rect::empty(), |u, t| u.union(&t.geom.mbr()));
    let half_w = universe.width() * WINDOW_FRAC / 2.0;
    let half_h = (universe.yu - universe.yl) * WINDOW_FRAC / 2.0;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..WINDOWS)
        .map(|_| {
            let c = tuples[rng.gen_range(0..tuples.len())].geom.mbr().center();
            Rect::new(c.x - half_w, c.y - half_h, c.x + half_w, c.y + half_h)
        })
        .collect()
}

/// The polygon the selection predicate tests a window as.
fn window_polygon(w: &Rect) -> Geometry {
    Geometry::Polygon(Polygon::simple(Ring::new(vec![
        Point::new(w.xl, w.yl),
        Point::new(w.xu, w.yl),
        Point::new(w.xu, w.yu),
        Point::new(w.xl, w.yu),
    ])))
}

/// Uniform grid over the MBRs of a tuple set.
struct Grid {
    rects: Vec<Rect>,
    universe: Rect,
    side: usize,
    cells: Vec<Vec<u32>>,
}

impl Grid {
    fn new(tuples: &[SpatialTuple]) -> Grid {
        let rects: Vec<Rect> = tuples.iter().map(|t| t.geom.mbr()).collect();
        let universe = rects.iter().fold(Rect::empty(), |u, r| u.union(r));
        let side = ((rects.len() as f64).sqrt() as usize).clamp(1, 1024);
        let mut grid = Grid {
            rects: Vec::new(),
            universe,
            side,
            cells: vec![Vec::new(); side * side],
        };
        for (i, r) in rects.iter().enumerate() {
            let (c0, r0) = grid.cell(r.xl, r.yl);
            let (c1, r1) = grid.cell(r.xu, r.yu);
            for row in r0..=r1 {
                for col in c0..=c1 {
                    grid.cells[row * side + col].push(i as u32);
                }
            }
        }
        grid.rects = rects;
        grid
    }

    fn cell(&self, x: f64, y: f64) -> (usize, usize) {
        let u = &self.universe;
        let at = |v: f64, lo: f64, hi: f64| {
            let f = if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
            ((f * self.side as f64).max(0.0) as usize).min(self.side - 1)
        };
        (at(x, u.xl, u.xu), at(y, u.yl, u.yu))
    }

    /// Calls `f` once for every rectangle intersecting `q`: a pair is
    /// reported only from the cell holding the lower-left corner of the
    /// two rectangles' intersection.
    fn query(&self, q: &Rect, mut f: impl FnMut(u32)) {
        let (c0, r0) = self.cell(q.xl, q.yl);
        let (c1, r1) = self.cell(q.xu, q.yu);
        for row in r0..=r1 {
            for col in c0..=c1 {
                for &i in &self.cells[row * self.side + col] {
                    let r = &self.rects[i as usize];
                    let overlaps = r.xl <= q.xu && q.xl <= r.xu && r.yl <= q.yu && q.yl <= r.yu;
                    if overlaps && self.cell(r.xl.max(q.xl), r.yl.max(q.yl)) == (col, row) {
                        f(i);
                    }
                }
            }
        }
    }
}
