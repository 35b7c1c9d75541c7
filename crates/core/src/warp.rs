//! Warp state and active-thread selection.
//!
//! Each thread has its own program counter (and, under CHERI, its own PCC
//! metadata). The Active Thread Selection stage picks the subset of threads
//! that execute together: those sharing the minimum PC (a convergence-optimal
//! policy for the structured code our compiler emits, standing in for
//! SIMTight's nesting-level scheme) — and, under CHERI without the static-PC-
//! metadata restriction, sharing the same PCC metadata as well.

use simt_regfile::MAX_LANES;

/// Per-thread execution status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Runnable.
    Active,
    /// Waiting at a block barrier.
    AtBarrier,
    /// Finished the kernel.
    Terminated,
    /// Permanently disabled after a suppressed fault
    /// (`TrapPolicy::MaskLanes`). Like `Terminated`, the thread never
    /// issues again, but the distinct status keeps the suppression visible
    /// in warp state.
    Faulted,
}

/// State of one warp.
///
/// The per-thread state lives in fixed `MAX_LANES`-sized arrays (only the
/// first [`Warp::lanes`] entries are meaningful) so the scheduler's hot
/// scans walk contiguous memory instead of chasing per-warp heap vectors.
/// `repr(C)` pins the declaration order: the scheduler-hot scalars come
/// first, so the pick scan touches one cache line per warp instead of
/// straddling the kilobyte of lane arrays.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct Warp {
    /// Cycle at which this warp may issue again.
    pub ready_at: u64,
    /// Cached count of [`ThreadStatus::Active`] threads. Maintained by
    /// [`Warp::set_status`]; the scheduler's O(1) pickability checks read it
    /// instead of rescanning the status vector every step. Code that writes
    /// `status` directly (tests of the scan-based queries) leaves it stale,
    /// so the scan-based methods below never consult it.
    pub(crate) runnable: u32,
    /// Cached count of [`ThreadStatus::AtBarrier`] threads (same contract
    /// as `runnable`).
    pub(crate) parked: u32,
    /// Number of live lanes.
    lanes: u32,
    /// Static-PC-metadata restriction: all threads share `pcc_meta[0]`.
    static_pcc: bool,
    /// Memoised answer of the next [`Warp::select`] call, set by the
    /// uniform-advance commit path when it can prove the outcome (every
    /// runnable thread stepped to the same PC with statuses and PCC
    /// metadata untouched) and cleared by every other state mutation.
    /// Like the cached counts, direct `status`/`pc` writes bypass the
    /// maintenance, but such writers never see a stale value: the cache
    /// only becomes `Some` via [`crate::Sm`]'s commit path.
    pub(crate) cached_sel: Option<Selection>,
    /// Per-thread program counters (`[..lanes]` live).
    pub pc: [u32; MAX_LANES],
    /// Per-thread PCC metadata (33-bit: tag in bit 32). Under the
    /// static-PC-metadata restriction only entry 0 is used.
    pub pcc_meta: [u64; MAX_LANES],
    /// Per-thread status (`[..lanes]` live; the tail is `Terminated`).
    pub status: [ThreadStatus; MAX_LANES],
}

/// The outcome of active-thread selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// Lane mask of the selected threads.
    pub mask: u64,
    /// Their common PC.
    pub pc: u32,
    /// Their common PCC metadata.
    pub pcc_meta: u64,
}

impl Warp {
    /// A warp of `lanes` threads, all starting at `pc` with the given PCC
    /// metadata (`static_pcc` collapses the metadata to one copy).
    pub fn new(lanes: u32, pc: u32, pcc_meta: u64, static_pcc: bool) -> Self {
        let mut status = [ThreadStatus::Terminated; MAX_LANES];
        status[..lanes as usize].fill(ThreadStatus::Active);
        Warp {
            pc: [pc; MAX_LANES],
            pcc_meta: [pcc_meta; MAX_LANES],
            status,
            lanes,
            static_pcc,
            ready_at: 0,
            runnable: lanes,
            parked: 0,
            cached_sel: None,
        }
    }

    /// Transition thread `lane` to status `s`, keeping the cached
    /// `runnable`/`parked` counts exact. All status mutations on the issue
    /// path go through here so the scheduler can trust the counts.
    #[inline]
    pub(crate) fn set_status(&mut self, lane: usize, s: ThreadStatus) {
        self.cached_sel = None;
        let old = self.status[lane];
        if old == s {
            return;
        }
        match old {
            ThreadStatus::Active => self.runnable -= 1,
            ThreadStatus::AtBarrier => self.parked -= 1,
            _ => {}
        }
        match s {
            ThreadStatus::Active => self.runnable += 1,
            ThreadStatus::AtBarrier => self.parked += 1,
            _ => {}
        }
        self.status[lane] = s;
    }

    /// O(1) equivalent of [`Warp::done`] via the cached counts. Valid only
    /// when every status mutation went through [`Warp::set_status`].
    #[inline]
    pub(crate) fn done_fast(&self) -> bool {
        debug_assert_eq!(self.runnable == 0 && self.parked == 0, self.done());
        self.runnable == 0 && self.parked == 0
    }

    /// O(1) equivalent of [`Warp::blocked_at_barrier`] via the cached counts.
    #[inline]
    pub(crate) fn blocked_at_barrier_fast(&self) -> bool {
        debug_assert_eq!(self.runnable == 0 && self.parked > 0, self.blocked_at_barrier());
        self.runnable == 0 && self.parked > 0
    }

    /// Is every thread finished (terminated, or faulted under
    /// `TrapPolicy::MaskLanes`)?
    pub fn done(&self) -> bool {
        self.status[..self.lanes as usize]
            .iter()
            .all(|&s| matches!(s, ThreadStatus::Terminated | ThreadStatus::Faulted))
    }

    /// Is the warp blocked on a barrier (no runnable thread, at least one
    /// waiting)?
    pub fn blocked_at_barrier(&self) -> bool {
        !self.done()
            && self.status[..self.lanes as usize].iter().all(|&s| s != ThreadStatus::Active)
    }

    /// Number of live lanes.
    #[inline]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// The PCC metadata of thread `lane`.
    #[inline]
    pub fn pcc_meta_of(&self, lane: usize) -> u64 {
        if self.static_pcc {
            self.pcc_meta[0]
        } else {
            self.pcc_meta[lane]
        }
    }

    /// Set the PCC metadata of thread `lane` (a no-op redundancy under the
    /// static restriction, where all threads share one copy).
    pub fn set_pcc_meta(&mut self, lane: usize, meta: u64) {
        self.cached_sel = None;
        if self.static_pcc {
            self.pcc_meta[0] = meta;
        } else {
            self.pcc_meta[lane] = meta;
        }
    }

    /// Active-thread selection: the runnable threads at the minimum PC whose
    /// PCC metadata matches the first such thread's (metadata comparison is
    /// skipped under the static-PC-metadata restriction, letting the
    /// hardware drop `lanes × 33` comparators).
    // Inlined so the memoised answer is read in place: out of line, the
    // caller's 16-byte copy of the just-stored `Option` stalls on store
    // forwarding at every issue.
    #[inline]
    pub fn select(&self) -> Option<Selection> {
        if let Some(s) = self.cached_sel {
            debug_assert_eq!(self.select_scan(), Some(s));
            return Some(s);
        }
        self.select_scan()
    }

    /// The full selection scan behind [`Warp::select`], bypassing the
    /// memoised answer.
    fn select_scan(&self) -> Option<Selection> {
        // The leader is the lowest-numbered runnable thread at the minimum
        // PC; finding the lane (not just the PC) in the first pass makes
        // "nonempty selection ⇒ leader metadata" hold by construction.
        let lanes = self.lanes as usize;
        let mut leader: Option<(usize, u32)> = None;
        for (i, &s) in self.status[..lanes].iter().enumerate() {
            if s == ThreadStatus::Active {
                match leader {
                    Some((_, pc)) if pc <= self.pc[i] => {}
                    _ => leader = Some((i, self.pc[i])),
                }
            }
        }
        let (leader_lane, min_pc) = leader?;
        let leader_meta = self.pcc_meta_of(leader_lane);
        let static_pcc = self.static_pcc;
        let mut mask = 0u64;
        for i in 0..lanes {
            if self.status[i] == ThreadStatus::Active
                && self.pc[i] == min_pc
                && (static_pcc || self.pcc_meta_of(i) == leader_meta)
            {
                mask |= 1 << i;
            }
            // Min-PC threads with differing PCC metadata defer to a later issue.
        }
        Some(Selection { mask, pc: min_pc, pcc_meta: leader_meta })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_pc_selection_reconverges() {
        let mut w = Warp::new(4, 0x100, 0, true);
        // Two threads took a forward branch to 0x120, two fell through.
        w.pc[1] = 0x120;
        w.pc[3] = 0x120;
        let s = w.select().unwrap();
        assert_eq!(s.pc, 0x100);
        assert_eq!(s.mask, 0b0101);
        // After the laggards advance to the join point, all reconverge.
        w.pc[0] = 0x120;
        w.pc[2] = 0x120;
        let s = w.select().unwrap();
        assert_eq!(s.mask, 0b1111);
    }

    #[test]
    fn pcc_metadata_divergence_splits_selection() {
        let mut w = Warp::new(4, 0x100, 7, false);
        w.set_pcc_meta(2, 9);
        let s = w.select().unwrap();
        assert_eq!(s.mask, 0b1011, "thread 2 has different PCC metadata");
        assert_eq!(s.pcc_meta, 7);
    }

    #[test]
    fn static_pcc_ignores_metadata() {
        let mut w = Warp::new(4, 0x100, 7, true);
        w.set_pcc_meta(2, 9); // updates the single shared copy
        let s = w.select().unwrap();
        assert_eq!(s.mask, 0b1111);
    }

    #[test]
    fn barrier_and_termination() {
        let mut w = Warp::new(2, 0, 0, true);
        w.status[0] = ThreadStatus::AtBarrier;
        assert!(!w.blocked_at_barrier());
        let s = w.select().unwrap();
        assert_eq!(s.mask, 0b10);
        w.status[1] = ThreadStatus::Terminated;
        assert!(w.blocked_at_barrier());
        assert!(w.select().is_none());
        w.status[0] = ThreadStatus::Terminated;
        assert!(w.done());
    }

    #[test]
    fn select_handles_empty_and_finished_warps() {
        // All-terminated warp: select() must return None, not panic.
        let mut w = Warp::new(4, 0x100, 0, false);
        for s in &mut w.status {
            *s = ThreadStatus::Terminated;
        }
        assert!(w.select().is_none());
        assert!(w.done());
        // Mixed faulted/terminated: also finished, also None.
        w.status[1] = ThreadStatus::Faulted;
        assert!(w.select().is_none());
        assert!(w.done());
        assert!(!w.blocked_at_barrier());
        // Faulted lanes never appear in a selection mask.
        w.status[3] = ThreadStatus::Active;
        let s = w.select().unwrap();
        assert_eq!(s.mask, 0b1000);
    }
}
