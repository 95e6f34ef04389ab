//! Dynamic (in-flight) instructions — the reorder-buffer entry type.

use vpsim_isa::{Inst, Pc};
use vpsim_mem::Cycles;

/// Unique, monotonically increasing id of a dynamic instruction within a
/// run; doubles as the register-rename tag.
pub type Seq = u64;

/// Execution status of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Dispatched, waiting for operands or an issue slot.
    Waiting,
    /// Issued; result will be available at `done_at`.
    Executing,
    /// Result available (broadcast to dependents).
    Done,
}

/// How a load obtained its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOrigin {
    /// L1 hit or lower-level access without prediction.
    Memory,
    /// Store-to-load forwarding from an older in-flight store.
    Forwarded,
    /// The VPS supplied a speculative value; `actual` arrives at
    /// `verify_at` (stored on the entry).
    Predicted {
        /// Value the predictor supplied (post-defense perturbation).
        predicted: u64,
        /// The true memory value, known to the simulator at issue time
        /// but architecturally available only at `verify_at`.
        actual: u64,
    },
}

/// A dynamic instruction in the reorder buffer.
#[derive(Debug, Clone)]
pub struct DynInst {
    /// Rename tag / age.
    pub seq: Seq,
    /// Static program counter.
    pub pc: Pc,
    /// The decoded instruction.
    pub inst: Inst,
    /// Execution status.
    pub status: Status,
    /// Resolved source-operand values (index matches `Inst::sources`).
    pub operands: [Option<u64>; 2],
    /// Producer tags for unresolved operands.
    pub src_tags: [Option<Seq>; 2],
    /// Source slots of younger entries that dispatch tagged with this
    /// entry's seq (the slots its result broadcast must fill).
    pub waiting_slots: u32,
    /// Result value (dest-register value, store data, branch taken flag).
    pub result: Option<u64>,
    /// Cycle at which the result becomes available for wakeup.
    pub done_at: Option<Cycles>,
    /// Effective address for loads/stores/flushes, once computed.
    pub addr: Option<u64>,
    /// How a load got its value.
    pub load_origin: Option<LoadOrigin>,
    /// For predicted loads: when the actual data arrives (verification).
    pub verify_at: Option<Cycles>,
    /// Set once a predicted load's value check has completed.
    pub verified: bool,
    /// D-type: this load skipped its cache fill; install at commit.
    pub deferred_fill: bool,
    /// This load missed without a prediction and trains the VPS with its
    /// value when it completes.
    pub owes_train: bool,
    /// Branch resolution outcome: the next fetch PC.
    pub redirect: Option<Pc>,
    /// For branches under a speculating front-end: the PC fetch
    /// continued at when this branch was dispatched (the prediction).
    pub predicted_next: Option<Pc>,
}

impl DynInst {
    /// A freshly dispatched entry.
    #[must_use]
    pub fn new(seq: Seq, pc: Pc, inst: Inst) -> DynInst {
        DynInst {
            seq,
            pc,
            inst,
            status: Status::Waiting,
            operands: [None, None],
            src_tags: [None, None],
            waiting_slots: 0,
            result: None,
            done_at: None,
            addr: None,
            load_origin: None,
            verify_at: None,
            verified: false,
            deferred_fill: false,
            owes_train: false,
            redirect: None,
            predicted_next: None,
        }
    }

    /// Whether every source operand has a value.
    #[must_use]
    pub fn operands_ready(&self) -> bool {
        self.src_tags.iter().all(Option::is_none)
    }

    /// Whether the result is available at `cycle` (for wakeup/commit).
    #[must_use]
    pub fn result_available(&self, cycle: Cycles) -> bool {
        matches!(self.done_at, Some(t) if t <= cycle) && self.result.is_some()
    }

    /// Whether this entry is a load carrying an unverified prediction.
    #[must_use]
    pub fn is_unverified_prediction(&self) -> bool {
        matches!(self.load_origin, Some(LoadOrigin::Predicted { .. })) && !self.verified
    }

    /// Whether this entry can commit at `cycle`: result available, and
    /// any prediction verified.
    #[must_use]
    pub fn committable(&self, cycle: Cycles) -> bool {
        match self.status {
            Status::Done => {}
            _ => return false,
        }
        if let Some(t) = self.done_at {
            if t > cycle {
                return false;
            }
        }
        if self.is_unverified_prediction() {
            return false;
        }
        if let Some(v) = self.verify_at {
            if v > cycle {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpsim_isa::Reg;

    fn entry() -> DynInst {
        DynInst::new(
            0,
            Pc(0),
            Inst::Li {
                rd: Reg::R1,
                imm: 5,
            },
        )
    }

    #[test]
    fn fresh_entry_waiting() {
        let e = entry();
        assert_eq!(e.status, Status::Waiting);
        assert!(e.operands_ready(), "Li has no sources");
        assert!(!e.result_available(100));
    }

    #[test]
    fn result_availability_timing() {
        let mut e = entry();
        e.result = Some(5);
        e.done_at = Some(10);
        e.status = Status::Done;
        assert!(!e.result_available(9));
        assert!(e.result_available(10));
        assert!(e.committable(10));
        assert!(!e.committable(9));
    }

    #[test]
    fn unverified_prediction_blocks_commit() {
        let mut e = DynInst::new(
            1,
            Pc(0),
            Inst::Load {
                rd: Reg::R1,
                base: Reg::R2,
                offset: 0,
            },
        );
        e.result = Some(7);
        e.done_at = Some(5);
        e.status = Status::Done;
        e.load_origin = Some(LoadOrigin::Predicted {
            predicted: 7,
            actual: 7,
        });
        e.verify_at = Some(50);
        assert!(e.is_unverified_prediction());
        assert!(!e.committable(10));
        e.verified = true;
        assert!(!e.committable(10), "verify_at still in the future");
        assert!(e.committable(50));
    }

    #[test]
    fn pending_src_tags_block_readiness() {
        let mut e = DynInst::new(
            2,
            Pc(0),
            Inst::Addi {
                rd: Reg::R1,
                rs: Reg::R2,
                imm: 1,
            },
        );
        e.src_tags[0] = Some(1);
        assert!(!e.operands_ready());
        e.src_tags[0] = None;
        e.operands[0] = Some(3);
        assert!(e.operands_ready());
    }
}
