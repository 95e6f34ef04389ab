//! Cache replacement state, flat across all sets of one cache.
//!
//! Each policy keeps its state in one array indexed by set (and way), so
//! building or resetting a cache is a few zeroed allocations or fills
//! rather than one heap object per set.

use crate::config::ReplacementKind;
use vpsim_rng::SmallRng;

/// Replacement state for every set of one cache.
///
/// Way indices are `0..ways`. The cache calls [`touch`](Replacement::touch)
/// on every hit and fill, and [`victim`](Replacement::victim) only when
/// every way of the set is valid — and a way becomes valid only by being
/// filled, which touches it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Replacement {
    /// True least-recently-used, as a per-line last-touch stamp drawn
    /// from a per-cache clock. The victim is the way with the smallest
    /// stamp. Since every way of a full set has been touched since the
    /// last reset, stamp order is exactly recency order, and the order
    /// of never-touched ways never matters.
    Lru {
        ways: usize,
        stamps: Vec<u64>,
        clock: u64,
    },
    /// Tree pseudo-LRU: `ways - 1` direction bits per set, one per
    /// internal node of the implicit binary tree (`false` points left,
    /// `true` points right). Requires power-of-two ways.
    TreePlru { ways: usize, bits: Vec<bool> },
    /// Uniformly random victims, one seeded stream per set
    /// (`seed ^ set`), so a set's victims do not depend on other sets.
    Random { ways: usize, rngs: Vec<SmallRng> },
}

impl Replacement {
    /// Cold replacement state for `sets` sets of `ways` ways. `seed`
    /// feeds random replacement.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is tree-PLRU and `ways` is not a power of two.
    pub(crate) fn new(kind: ReplacementKind, sets: usize, ways: usize, seed: u64) -> Replacement {
        match kind {
            ReplacementKind::Lru => Replacement::Lru {
                ways,
                stamps: vec![0; sets * ways],
                clock: 0,
            },
            ReplacementKind::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "tree-PLRU requires power-of-two ways"
                );
                Replacement::TreePlru {
                    ways,
                    bits: vec![false; sets * (ways - 1)],
                }
            }
            ReplacementKind::Random => Replacement::Random {
                ways,
                rngs: (0..sets)
                    .map(|set| SmallRng::seed_from_u64(seed ^ set as u64))
                    .collect(),
            },
        }
    }

    /// Record a use of `way` in `set` (hit or fill).
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        match self {
            Replacement::Lru {
                ways,
                stamps,
                clock,
            } => {
                debug_assert!(way < *ways);
                *clock += 1;
                stamps[set * *ways + way] = *clock;
            }
            Replacement::TreePlru { ways, bits } => {
                debug_assert!(way < *ways);
                let bits = &mut bits[set * (*ways - 1)..(set + 1) * (*ways - 1)];
                // Walk from the root to the leaf, flipping each node to
                // point *away* from the touched way.
                let (mut node, mut lo, mut hi) = (0, 0, *ways);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if way < mid {
                        bits[node] = true; // point right, away from `way`
                        node = 2 * node + 1;
                        hi = mid;
                    } else {
                        bits[node] = false; // point left, away from `way`
                        node = 2 * node + 2;
                        lo = mid;
                    }
                }
            }
            Replacement::Random { .. } => {}
        }
    }

    /// Choose the way of `set` to evict.
    pub(crate) fn victim(&mut self, set: usize) -> usize {
        match self {
            Replacement::Lru { ways, stamps, .. } => {
                let stamps = &stamps[set * *ways..(set + 1) * *ways];
                // Stamps of a full set are distinct, so the first minimum
                // is the only one.
                (0..*ways).min_by_key(|&w| stamps[w]).unwrap_or(0)
            }
            Replacement::TreePlru { ways, bits } => {
                let bits = &bits[set * (*ways - 1)..(set + 1) * (*ways - 1)];
                // Follow the direction bits from the root.
                let (mut node, mut lo, mut hi) = (0, 0, *ways);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if bits[node] {
                        node = 2 * node + 2;
                        lo = mid;
                    } else {
                        node = 2 * node + 1;
                        hi = mid;
                    }
                }
                lo
            }
            Replacement::Random { ways, rngs } => rngs[set].gen_range(0..*ways),
        }
    }

    /// Return to the cold state (the cache was fully invalidated).
    /// Random streams continue where they were.
    pub(crate) fn reset(&mut self) {
        match self {
            Replacement::Lru { stamps, clock, .. } => {
                stamps.fill(0);
                *clock = 0;
            }
            Replacement::TreePlru { bits, .. } => bits.fill(false),
            Replacement::Random { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut lru = Replacement::new(ReplacementKind::Lru, 1, 4, 0);
        for w in [0, 1, 2, 3] {
            lru.touch(0, w);
        }
        assert_eq!(lru.victim(0), 0);
        lru.touch(0, 0);
        assert_eq!(lru.victim(0), 1);
    }

    #[test]
    fn lru_reset_restores_order() {
        let cold = Replacement::new(ReplacementKind::Lru, 2, 2, 0);
        let mut lru = Replacement::new(ReplacementKind::Lru, 2, 2, 0);
        lru.touch(0, 0);
        lru.touch(1, 1);
        lru.reset();
        assert_eq!(lru, cold, "reset is a cold start");
        lru.touch(0, 1);
        lru.touch(0, 0);
        assert_eq!(lru.victim(0), 1);
    }

    #[test]
    fn plru_never_victimises_most_recent() {
        let mut plru = Replacement::new(ReplacementKind::TreePlru, 2, 8, 0);
        for round in 0..64 {
            let way = round % 8;
            plru.touch(1, way);
            assert_ne!(plru.victim(1), way, "PLRU evicted the MRU way");
        }
        assert_eq!(plru.victim(0), 0, "other sets keep their cold bits");
    }

    #[test]
    fn plru_single_way() {
        let mut plru = Replacement::new(ReplacementKind::TreePlru, 4, 1, 0);
        plru.touch(3, 0);
        assert_eq!(plru.victim(3), 0);
    }

    #[test]
    fn plru_cycles_through_all_ways_when_touching_victims() {
        // Touching the current victim each time must visit every way —
        // a liveness property of tree PLRU.
        let mut plru = Replacement::new(ReplacementKind::TreePlru, 1, 4, 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            let v = plru.victim(0);
            seen.insert(v);
            plru.touch(0, v);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two() {
        let _ = Replacement::new(ReplacementKind::TreePlru, 1, 3, 0);
    }

    #[test]
    fn random_victims_in_range_and_deterministic() {
        let mut a = Replacement::new(ReplacementKind::Random, 2, 8, 7);
        let mut b = Replacement::new(ReplacementKind::Random, 2, 8, 7);
        for i in 0..100 {
            let va = a.victim(i % 2);
            assert!(va < 8);
            assert_eq!(va, b.victim(i % 2), "same seed must give same sequence");
        }
    }

    #[test]
    fn random_different_seeds_differ() {
        let mut a = Replacement::new(ReplacementKind::Random, 1, 8, 1);
        let mut b = Replacement::new(ReplacementKind::Random, 1, 8, 2);
        let sa: Vec<usize> = (0..32).map(|_| a.victim(0)).collect();
        let sb: Vec<usize> = (0..32).map(|_| b.victim(0)).collect();
        assert_ne!(sa, sb);
    }
}
