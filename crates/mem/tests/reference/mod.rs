//! A reference model of one cache level: per-set line vectors and one
//! boxed replacement policy per set, with an explicit recency stack for
//! LRU. It is the straightforward layout the flat [`vpsim_mem::Cache`]
//! must stay observably equal to; the differential test drives both
//! with the same operation streams.

use vpsim_mem::{Addr, CacheAccess, CacheGeometry, CacheStats, Eviction, ReplacementKind};
use vpsim_rng::SmallRng;

/// Per-set replacement state. The cache calls `touch` on every hit and
/// fill, and `victim` only when the set is full.
pub trait ReplacementPolicy: std::fmt::Debug {
    fn touch(&mut self, way: usize);
    fn victim(&mut self) -> usize;
    fn reset(&mut self);
}

/// True LRU over an explicit most-recent-first stack of ways.
#[derive(Debug)]
pub struct Lru {
    stack: Vec<usize>,
    ways: usize,
}

impl Lru {
    pub fn new(ways: usize) -> Lru {
        Lru {
            stack: (0..ways).collect(),
            ways,
        }
    }
}

impl ReplacementPolicy for Lru {
    fn touch(&mut self, way: usize) {
        if let Some(pos) = self.stack.iter().position(|&w| w == way) {
            self.stack.remove(pos);
        }
        self.stack.insert(0, way);
    }

    fn victim(&mut self) -> usize {
        *self.stack.last().expect("LRU stack is never empty")
    }

    fn reset(&mut self) {
        self.stack = (0..self.ways).collect();
    }
}

/// Tree pseudo-LRU with one direction bit per internal node.
#[derive(Debug)]
pub struct TreePlru {
    bits: Vec<bool>,
    ways: usize,
}

impl TreePlru {
    pub fn new(ways: usize) -> TreePlru {
        assert!(ways.is_power_of_two());
        TreePlru {
            bits: vec![false; ways - 1],
            ways,
        }
    }
}

impl ReplacementPolicy for TreePlru {
    fn touch(&mut self, way: usize) {
        let (mut node, mut lo, mut hi) = (0, 0, self.ways);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                self.bits[node] = true;
                node = 2 * node + 1;
                hi = mid;
            } else {
                self.bits[node] = false;
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }

    fn victim(&mut self) -> usize {
        let (mut node, mut lo, mut hi) = (0, 0, self.ways);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bits[node] {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        lo
    }

    fn reset(&mut self) {
        self.bits.fill(false);
    }
}

/// Uniformly random victims from a seeded stream.
#[derive(Debug)]
pub struct RandomRepl {
    rng: SmallRng,
    ways: usize,
}

impl ReplacementPolicy for RandomRepl {
    fn touch(&mut self, _way: usize) {}

    fn victim(&mut self) -> usize {
        self.rng.gen_range(0..self.ways)
    }

    fn reset(&mut self) {}
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    line_addr: Addr,
}

/// The reference cache: same public behaviour as `vpsim_mem::Cache`.
#[derive(Debug)]
pub struct RefCache {
    geometry: CacheGeometry,
    sets: Vec<Vec<Line>>,
    policies: Vec<Box<dyn ReplacementPolicy>>,
    stats: CacheStats,
}

impl RefCache {
    pub fn new(geometry: CacheGeometry, seed: u64) -> RefCache {
        let policies = (0..geometry.sets)
            .map(|i| -> Box<dyn ReplacementPolicy> {
                match geometry.replacement {
                    ReplacementKind::Lru => Box::new(Lru::new(geometry.ways)),
                    ReplacementKind::TreePlru => Box::new(TreePlru::new(geometry.ways)),
                    ReplacementKind::Random => Box::new(RandomRepl {
                        rng: SmallRng::seed_from_u64(seed ^ i as u64),
                        ways: geometry.ways,
                    }),
                }
            })
            .collect();
        RefCache {
            sets: vec![vec![Line::default(); geometry.ways]; geometry.sets],
            policies,
            geometry,
            stats: CacheStats::default(),
        }
    }

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn locate(&self, addr: Addr) -> (Addr, usize) {
        let line = addr & !(self.geometry.line_bytes - 1);
        let set = ((line / self.geometry.line_bytes) as usize) & (self.geometry.sets - 1);
        (line, set)
    }

    fn find_way(&self, set: usize, line: Addr) -> Option<usize> {
        self.sets[set]
            .iter()
            .position(|l| l.valid && l.line_addr == line)
    }

    fn allocate_way(&mut self, set: usize) -> (usize, Option<Eviction>) {
        if let Some(way) = self.sets[set].iter().position(|l| !l.valid) {
            return (way, None);
        }
        let way = self.policies[set].victim();
        let victim = self.sets[set][way];
        self.stats.evictions += 1;
        if victim.dirty {
            self.stats.writebacks += 1;
        }
        let eviction = Eviction {
            line_addr: victim.line_addr,
            dirty: victim.dirty,
        };
        (way, Some(eviction))
    }

    pub fn probe(&self, addr: Addr) -> bool {
        let (line, set) = self.locate(addr);
        self.find_way(set, line).is_some()
    }

    pub fn access(&mut self, addr: Addr, is_write: bool) -> CacheAccess {
        let (line, set) = self.locate(addr);
        if let Some(way) = self.find_way(set, line) {
            self.policies[set].touch(way);
            if is_write {
                self.sets[set][way].dirty = true;
            }
            self.stats.hits += 1;
            return CacheAccess {
                hit: true,
                eviction: None,
            };
        }
        self.stats.misses += 1;
        let (way, eviction) = self.allocate_way(set);
        self.sets[set][way] = Line {
            valid: true,
            dirty: is_write,
            line_addr: line,
        };
        self.policies[set].touch(way);
        CacheAccess {
            hit: false,
            eviction,
        }
    }

    pub fn fill(&mut self, addr: Addr) -> Option<Eviction> {
        let (line, set) = self.locate(addr);
        if let Some(way) = self.find_way(set, line) {
            self.policies[set].touch(way);
            return None;
        }
        let (way, eviction) = self.allocate_way(set);
        self.sets[set][way] = Line {
            valid: true,
            dirty: false,
            line_addr: line,
        };
        self.policies[set].touch(way);
        eviction
    }

    pub fn invalidate(&mut self, addr: Addr) -> Option<Eviction> {
        let (line, set) = self.locate(addr);
        let way = self.find_way(set, line)?;
        let victim = std::mem::take(&mut self.sets[set][way]);
        self.stats.invalidations += 1;
        Some(Eviction {
            line_addr: victim.line_addr,
            dirty: victim.dirty,
        })
    }

    pub fn evict_way(&mut self, set: usize, way: usize) -> Option<Eviction> {
        let line = *self.sets.get(set)?.get(way)?;
        if !line.valid {
            return None;
        }
        self.sets[set][way] = Line::default();
        self.stats.evictions += 1;
        if line.dirty {
            self.stats.writebacks += 1;
        }
        Some(Eviction {
            line_addr: line.line_addr,
            dirty: line.dirty,
        })
    }

    pub fn invalidate_all(&mut self) {
        for set in &mut self.sets {
            set.fill(Line::default());
        }
        for p in &mut self.policies {
            p.reset();
        }
    }

    pub fn valid_lines(&self) -> usize {
        self.sets.iter().flatten().filter(|l| l.valid).count()
    }
}
