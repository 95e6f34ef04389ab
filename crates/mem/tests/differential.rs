//! Differential test of the flat cache tag store against the per-set
//! reference model in `reference/`: seeded streams of accesses, fills,
//! invalidations, forced evictions and cold starts must give equal
//! results, probes, occupancy and statistics after every operation, for
//! every replacement policy.

mod reference;

use reference::RefCache;
use vpsim_mem::{Cache, CacheGeometry, ReplacementKind};
use vpsim_rng::SmallRng;

const KINDS: [ReplacementKind; 3] = [
    ReplacementKind::Lru,
    ReplacementKind::TreePlru,
    ReplacementKind::Random,
];

fn geometry(sets: usize, ways: usize, line_bytes: u64, kind: ReplacementKind) -> CacheGeometry {
    CacheGeometry {
        sets,
        ways,
        line_bytes,
        hit_latency: 4,
        replacement: kind,
    }
}

/// Drive `ops` seeded operations through both caches. Addresses come
/// from `sets_used` sets with `ways + extra` distinct lines each, so a
/// large `extra` thrashes every set it touches.
fn drive(geom: CacheGeometry, seed: u64, ops: usize, sets_used: usize, extra: usize) {
    let ctx = format!("{geom:?}, seed {seed}");
    let mut flat = Cache::new(geom, seed);
    let mut model = RefCache::new(geom, seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let stride = geom.sets as u64 * geom.line_bytes;
    let lines_per_set = (geom.ways + extra) as u64;
    let addr = |rng: &mut SmallRng| {
        let set = rng.gen_range(0..sets_used.min(geom.sets)) as u64;
        let tag = rng.gen_range(0..lines_per_set);
        let offset = rng.gen_range(0..geom.line_bytes / 8) * 8;
        tag * stride + set * geom.line_bytes + offset
    };
    for op in 0..ops {
        let a = addr(&mut rng);
        match rng.gen_range(0u32..100) {
            0..=54 => {
                let write = rng.gen_bool(0.3);
                assert_eq!(
                    flat.access(a, write),
                    model.access(a, write),
                    "{ctx}, op {op}"
                );
            }
            55..=74 => assert_eq!(flat.fill(a), model.fill(a), "{ctx}, op {op}"),
            75..=89 => assert_eq!(flat.invalidate(a), model.invalidate(a), "{ctx}, op {op}"),
            90..=98 => {
                // Out-of-range coordinates are part of the contract.
                let set = rng.gen_range(0..geom.sets + 1);
                let way = rng.gen_range(0..geom.ways + 1);
                assert_eq!(
                    flat.evict_way(set, way),
                    model.evict_way(set, way),
                    "{ctx}, op {op}"
                );
            }
            _ => {
                flat.invalidate_all();
                model.invalidate_all();
            }
        }
        let p = addr(&mut rng);
        assert_eq!(flat.probe(p), model.probe(p), "{ctx}, op {op}");
        assert_eq!(flat.probe(a), model.probe(a), "{ctx}, op {op}");
        assert_eq!(flat.stats(), model.stats(), "{ctx}, op {op}");
        assert_eq!(flat.valid_lines(), model.valid_lines(), "{ctx}, op {op}");
    }
}

#[test]
fn flat_cache_matches_reference_across_geometries() {
    for kind in KINDS {
        for sets in [1, 2, 8, 64] {
            for ways in [1usize, 2, 3, 4, 8, 16] {
                if kind == ReplacementKind::TreePlru && !ways.is_power_of_two() {
                    continue;
                }
                for line_bytes in [8, 64] {
                    for seed in 0..3 {
                        drive(geometry(sets, ways, line_bytes, kind), seed, 600, sets, 3);
                    }
                }
            }
        }
    }
}

#[test]
fn single_way_and_single_set_caches_match_reference() {
    for kind in KINDS {
        for seed in 10..20 {
            drive(geometry(1, 1, 64, kind), seed, 400, 1, 4);
            drive(geometry(1, 8, 64, kind), seed, 400, 1, 4);
            drive(geometry(16, 1, 64, kind), seed, 400, 16, 4);
        }
    }
}

#[test]
fn full_set_thrash_matches_reference() {
    // Two hot sets, each cycling through far more lines than it has
    // ways: nearly every access misses and evicts.
    for kind in KINDS {
        for ways in [2, 4, 8] {
            for seed in 20..25 {
                drive(geometry(64, ways, 64, kind), seed, 2000, 2, 4 * ways);
            }
        }
    }
}
