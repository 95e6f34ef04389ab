//! [`SeqSet`]: the executor's ordered sets of in-flight seqs.

use crate::dyninst::Seq;

/// A set of seqs kept as a sorted `Vec`.
///
/// Every set the executor keeps (ready, unverified, unissued stores,
/// flushes in flight) holds at most one ROB's worth of seqs, so a sorted
/// slice beats a tree: lookups are a binary search over a few cache
/// lines, and dispatch, which inserts the youngest seq, appends. The
/// buffer is kept across runs and never shrinks.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeqSet(Vec<Seq>);

impl SeqSet {
    pub(crate) fn with_capacity(capacity: usize) -> SeqSet {
        SeqSet(Vec::with_capacity(capacity))
    }

    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    pub(crate) fn insert(&mut self, seq: Seq) {
        match self.0.last() {
            Some(&last) if last >= seq => {
                if let Err(i) = self.0.binary_search(&seq) {
                    self.0.insert(i, seq);
                }
            }
            _ => self.0.push(seq),
        }
    }

    pub(crate) fn remove(&mut self, seq: Seq) {
        if let Ok(i) = self.0.binary_search(&seq) {
            self.0.remove(i);
        }
    }

    /// Whether the set holds a seq smaller than `seq`.
    pub(crate) fn any_older_than(&self, seq: Seq) -> bool {
        self.0.first().is_some_and(|&s| s < seq)
    }

    /// The smallest member that is at least `seq`.
    pub(crate) fn first_at_or_after(&self, seq: Seq) -> Option<Seq> {
        self.0.get(self.0.partition_point(|&s| s < seq)).copied()
    }

    /// Drop every member larger than `seq` (a squash after `seq`).
    pub(crate) fn truncate_after(&mut self, seq: Seq) {
        self.0.truncate(self.0.partition_point(|&s| s <= seq));
    }
}

/// Model test: seeded streams of every operation through a [`SeqSet`]
/// and a `BTreeSet` reference must agree on every answer and on the
/// full contents after every operation.
#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use vpsim_rng::SmallRng;

    use super::*;

    /// Drive `ops` operations on seqs below `span`; `cap` bounds the set
    /// size the way the ROB bounds the executor's sets (inserts into a
    /// full set are skipped).
    fn drive(seed: u64, ops: usize, span: u64, cap: usize) {
        let mut flat = SeqSet::default();
        let mut model = BTreeSet::new();
        let mut rng = SmallRng::seed_from_u64(seed);
        for op in 0..ops {
            let ctx = format!("seed {seed}, op {op}");
            let seq = rng.gen_range(0..span);
            match rng.gen_range(0u32..100) {
                0..=44 => {
                    if model.len() < cap {
                        flat.insert(seq);
                        model.insert(seq);
                    }
                }
                45..=74 => {
                    flat.remove(seq);
                    model.remove(&seq);
                }
                75..=84 => {
                    assert_eq!(
                        flat.any_older_than(seq),
                        model.range(..seq).next().is_some(),
                        "{ctx}"
                    );
                }
                85..=94 => {
                    assert_eq!(
                        flat.first_at_or_after(seq),
                        model.range(seq..).next().copied(),
                        "{ctx}"
                    );
                }
                95..=98 => {
                    flat.truncate_after(seq);
                    drop(model.split_off(&(seq + 1)));
                }
                _ => {
                    flat.clear();
                    model.clear();
                }
            }
            assert!(
                flat.0.iter().copied().eq(model.iter().copied()),
                "{ctx}: {:?} vs {model:?}",
                flat.0
            );
        }
    }

    #[test]
    fn matches_btreeset_on_seeded_streams() {
        for seed in 0..24 {
            // Sparse seqs, a dense ROB-sized window, and a set that
            // stays pinned at a full 64-entry ROB.
            drive(seed, 2_000, 1 << 20, usize::MAX);
            drive(seed, 2_000, 96, 64);
            drive(seed, 2_000, 64, 64);
        }
    }

    #[test]
    fn empty_and_single_element_edges() {
        let mut s = SeqSet::default();
        assert!(!s.any_older_than(0));
        assert!(!s.any_older_than(Seq::MAX));
        assert_eq!(s.first_at_or_after(0), None);
        s.truncate_after(0);
        s.remove(3);
        s.insert(5);
        assert!(!s.any_older_than(5));
        assert!(s.any_older_than(6));
        assert_eq!(s.first_at_or_after(5), Some(5));
        assert_eq!(s.first_at_or_after(6), None);
        s.insert(5);
        s.truncate_after(5);
        assert_eq!(s.0, [5]);
        s.truncate_after(4);
        assert!(s.0.is_empty());
    }

    #[test]
    fn full_rob_window() {
        let mut s = SeqSet::with_capacity(64);
        // Out-of-order inserts (wakeup readies older seqs) over a full
        // 64-entry window, then a squash in the middle.
        for seq in (100..164).rev() {
            s.insert(seq);
        }
        assert_eq!(s.0, (100..164).collect::<Vec<_>>());
        assert_eq!(s.first_at_or_after(0), Some(100));
        s.truncate_after(131);
        assert_eq!(s.0.len(), 32);
        assert_eq!(s.first_at_or_after(132), None);
    }
}
