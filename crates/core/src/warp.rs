//! Warp state and active-thread selection.
//!
//! Each thread has its own program counter (and, under CHERI, its own PCC
//! metadata). The Active Thread Selection stage picks the subset of threads
//! that execute together: those sharing the minimum PC (a convergence-optimal
//! policy for the structured code our compiler emits, standing in for
//! SIMTight's nesting-level scheme) — and, under CHERI without the static-PC-
//! metadata restriction, sharing the same PCC metadata as well.
//!
//! A warp is stored the way a hardware warp scheduler keeps it: a few
//! `(pc, mask)` groups — one per distinct PC among the live threads — plus
//! three status lane masks. Selection is a minimum over groups, a converged
//! commit renames one group's PC, and reconvergence is two groups merging,
//! so neither costs anything per lane.

use simt_regfile::MAX_LANES;

/// Per-thread execution status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadStatus {
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
/// A lane is in at most one of the status masks `active`, `parked`
/// (waiting at a barrier) and `faulted`; a lane in none of them is
/// terminated. The live lanes (`active | parked`) are partitioned by PC
/// into `groups`: masks are non-empty and disjoint, PCs are distinct, and
/// the union of the masks is `active | parked`.
#[derive(Debug, Clone)]
pub(crate) struct Warp {
    /// Cycle at which this warp may issue again.
    pub(crate) ready_at: u64,
    /// Runnable lanes.
    active: u64,
    /// Lanes waiting at a block barrier.
    parked: u64,
    /// Lanes disabled after a suppressed fault.
    faulted: u64,
    /// The live lanes grouped by PC, in no particular order.
    groups: Vec<(u32, u64)>,
    /// Static-PC-metadata restriction: all threads share `pcc_meta[0]`.
    static_pcc: bool,
    /// Per-thread PCC metadata (33-bit: tag in bit 32). Under the
    /// static-PC-metadata restriction only entry 0 is used.
    pcc_meta: [u64; MAX_LANES],
}

/// The outcome of active-thread selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Selection {
    /// Lane mask of the selected threads.
    pub(crate) mask: u64,
    /// Their common PC.
    pub(crate) pc: u32,
    /// Their common PCC metadata.
    pub(crate) pcc_meta: u64,
}

impl Warp {
    /// A warp of `lanes` threads, all starting at `pc` with the given PCC
    /// metadata (`static_pcc` collapses the metadata to one copy).
    pub(crate) fn new(lanes: u32, pc: u32, pcc_meta: u64, static_pcc: bool) -> Self {
        let mut warp = Warp {
            ready_at: 0,
            active: 0,
            parked: 0,
            faulted: 0,
            groups: Vec::new(),
            static_pcc,
            pcc_meta: [pcc_meta; MAX_LANES],
        };
        warp.reset(lanes, pc, pcc_meta, static_pcc);
        warp
    }

    /// Restore the state [`Warp::new`] builds, reusing the group vector.
    pub(crate) fn reset(&mut self, lanes: u32, pc: u32, pcc_meta: u64, static_pcc: bool) {
        let active = u64::MAX.checked_shr(64 - lanes).unwrap_or(0);
        (self.ready_at, self.active, self.parked, self.faulted) = (0, active, 0, 0);
        self.groups.clear();
        if active != 0 {
            self.groups.push((pc, active));
        }
        self.static_pcc = static_pcc;
        self.pcc_meta.fill(pcc_meta);
    }

    /// Does any thread remain runnable?
    #[inline]
    pub(crate) fn runnable(&self) -> bool {
        self.active != 0
    }

    /// Is any thread waiting at a barrier?
    #[inline]
    pub(crate) fn has_parked(&self) -> bool {
        self.parked != 0
    }

    /// Is every thread finished (terminated, or faulted under
    /// `TrapPolicy::MaskLanes`)?
    #[inline]
    pub(crate) fn done(&self) -> bool {
        self.active | self.parked == 0
    }

    /// Is the warp blocked on a barrier (no runnable thread, at least one
    /// waiting)?
    #[inline]
    pub(crate) fn blocked_at_barrier(&self) -> bool {
        self.active == 0 && self.parked != 0
    }

    /// The PCC metadata of thread `lane`.
    #[inline]
    fn pcc_meta_of(&self, lane: usize) -> u64 {
        if self.static_pcc {
            self.pcc_meta[0]
        } else {
            self.pcc_meta[lane]
        }
    }

    /// Set the PCC metadata of thread `lane` (a no-op redundancy under the
    /// static restriction, where all threads share one copy).
    pub(crate) fn set_pcc_meta(&mut self, lane: usize, meta: u64) {
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
    ///
    /// PCs are distinct across groups, so the group at the minimum PC holds
    /// every runnable thread there; the leader is its lowest-numbered one.
    // Inlined so the caller reads the answer in place: out of line, its
    // 16-byte copy of the just-stored `Option` stalls on store forwarding.
    #[inline]
    pub(crate) fn select(&self) -> Option<Selection> {
        let mut best: Option<(u32, u64)> = None;
        for &(pc, lanes) in &self.groups {
            let mask = lanes & self.active;
            if mask != 0 && best.is_none_or(|(min, _)| pc < min) {
                best = Some((pc, mask));
            }
        }
        let (pc, mut mask) = best?;
        let pcc_meta = self.pcc_meta_of(mask.trailing_zeros() as usize);
        if !self.static_pcc {
            // Min-PC threads with differing PCC metadata defer to a later issue.
            let mut rest = mask;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if self.pcc_meta[i] != pcc_meta {
                    mask &= !(1 << i);
                }
            }
        }
        Some(Selection { mask, pc, pcc_meta })
    }

    /// Commit the selected lanes `mask`, all at `from`, stepping together
    /// to `to` and ending in `status`: `Active` keeps them runnable,
    /// `AtBarrier` parks them at `to`, and `Terminated` or `Faulted`
    /// retires them (`to` is then unused).
    #[inline]
    pub(crate) fn advance_uniform(&mut self, mask: u64, from: u32, to: u32, status: ThreadStatus) {
        match status {
            ThreadStatus::Active => self.move_lanes(mask, from, to),
            ThreadStatus::AtBarrier => {
                self.move_lanes(mask, from, to);
                self.active &= !mask;
                self.parked |= mask;
            }
            ThreadStatus::Terminated | ThreadStatus::Faulted => self.retire(mask, status),
        }
    }

    /// Commit the selected lanes `mask`, all at `from`, each stepping to
    /// its own `pcs[lane]` (divergent branch, `JALR`, `CJALR`): the lanes
    /// are bucketed by target, one group attach per distinct target.
    pub(crate) fn advance(&mut self, mask: u64, from: u32, pcs: &[u32; MAX_LANES]) {
        self.detach(mask, from);
        let mut rest = mask;
        while rest != 0 {
            let pc = pcs[rest.trailing_zeros() as usize];
            let mut bucket = 0;
            let mut scan = rest;
            while scan != 0 {
                let i = scan.trailing_zeros() as usize;
                scan &= scan - 1;
                if pcs[i] == pc {
                    bucket |= 1 << i;
                }
            }
            self.attach(pc, bucket);
            rest &= !bucket;
        }
    }

    /// Take the live lanes `mask` out of every group and status mask,
    /// leaving them `Terminated`, or `Faulted` if `status` says so.
    pub(crate) fn retire(&mut self, mask: u64, status: ThreadStatus) {
        self.groups.retain_mut(|(_, lanes)| {
            *lanes &= !mask;
            *lanes != 0
        });
        self.active &= !mask;
        self.parked &= !mask;
        if status == ThreadStatus::Faulted {
            self.faulted |= mask;
        }
    }

    /// Barrier release: every parked lane becomes runnable where it
    /// stands. Returns whether any lane was parked.
    pub(crate) fn release(&mut self) -> bool {
        let released = self.parked != 0;
        self.active |= self.parked;
        self.parked = 0;
        released
    }

    /// Move the lanes `mask` of the group at `from` to `to`. With one group
    /// and the whole of it moving (a converged warp), that is a rename.
    #[inline]
    fn move_lanes(&mut self, mask: u64, from: u32, to: u32) {
        if let [(pc, lanes)] = self.groups.as_mut_slice() {
            if *lanes == mask {
                *pc = to;
                return;
            }
        }
        self.detach(mask, from);
        self.attach(to, mask);
    }

    /// Remove the lanes `mask` from the group at `from`, which holds them.
    fn detach(&mut self, mask: u64, from: u32) {
        let Some(g) = self.groups.iter().position(|&(pc, _)| pc == from) else {
            debug_assert!(false, "no group at {from:#x} holds lanes {mask:#x}");
            return;
        };
        let lanes = &mut self.groups[g].1;
        debug_assert_eq!(*lanes & mask, mask, "lanes {mask:#x} are not all at {from:#x}");
        *lanes &= !mask;
        if *lanes == 0 {
            self.groups.swap_remove(g);
        }
    }

    /// Add the lanes `mask` at `pc`, merging into the group already there
    /// (reconvergence).
    fn attach(&mut self, pc: u32, mask: u64) {
        match self.groups.iter_mut().find(|(at, _)| *at == pc) {
            Some((_, lanes)) => *lanes |= mask,
            None => self.groups.push((pc, mask)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_prng::Prng;

    impl Warp {
        /// The status of thread `lane`, read off the masks.
        fn status(&self, lane: usize) -> ThreadStatus {
            let bit = 1u64 << lane;
            if self.active & bit != 0 {
                ThreadStatus::Active
            } else if self.parked & bit != 0 {
                ThreadStatus::AtBarrier
            } else if self.faulted & bit != 0 {
                ThreadStatus::Faulted
            } else {
                ThreadStatus::Terminated
            }
        }

        /// The PC of a live thread `lane`.
        fn pc(&self, lane: usize) -> Option<u32> {
            self.groups.iter().find(|&&(_, lanes)| lanes >> lane & 1 == 1).map(|&(pc, _)| pc)
        }

        /// The group invariant of [`Warp`], checked in full.
        fn assert_invariants(&self) {
            let mut union = 0;
            for (k, &(pc, lanes)) in self.groups.iter().enumerate() {
                assert_ne!(lanes, 0, "empty group at {pc:#x}");
                assert_eq!(union & lanes, 0, "groups overlap");
                assert!(self.groups[..k].iter().all(|&(p, _)| p != pc), "two groups at {pc:#x}");
                union |= lanes;
            }
            assert_eq!(union, self.active | self.parked, "groups do not cover the live lanes");
            assert_eq!(self.active & self.parked, 0);
            assert_eq!((self.active | self.parked) & self.faulted, 0);
        }
    }

    /// The per-lane reference warp: one PC and one status per lane,
    /// selection by a full min-PC scan.
    struct Reference {
        lanes: usize,
        static_pcc: bool,
        pc: [u32; MAX_LANES],
        pcc_meta: [u64; MAX_LANES],
        status: [ThreadStatus; MAX_LANES],
    }

    impl Reference {
        fn new(lanes: usize, pc: u32, pcc_meta: u64, static_pcc: bool) -> Self {
            let mut status = [ThreadStatus::Terminated; MAX_LANES];
            status[..lanes].fill(ThreadStatus::Active);
            Reference {
                lanes,
                static_pcc,
                pc: [pc; MAX_LANES],
                pcc_meta: [pcc_meta; MAX_LANES],
                status,
            }
        }

        fn meta(&self, lane: usize) -> u64 {
            self.pcc_meta[if self.static_pcc { 0 } else { lane }]
        }

        fn select_scan(&self) -> Option<Selection> {
            let mut leader: Option<(usize, u32)> = None;
            for i in 0..self.lanes {
                if self.status[i] == ThreadStatus::Active {
                    match leader {
                        Some((_, pc)) if pc <= self.pc[i] => {}
                        _ => leader = Some((i, self.pc[i])),
                    }
                }
            }
            let (leader, pc) = leader?;
            let pcc_meta = self.meta(leader);
            let mask = (0..self.lanes)
                .filter(|&i| {
                    self.status[i] == ThreadStatus::Active
                        && self.pc[i] == pc
                        && (self.static_pcc || self.meta(i) == pcc_meta)
                })
                .fold(0, |m, i| m | 1 << i);
            Some(Selection { mask, pc, pcc_meta })
        }

        fn set(&mut self, mask: u64, pc: Option<&[u32; MAX_LANES]>, s: Option<ThreadStatus>) {
            for i in (0..self.lanes).filter(|&i| mask >> i & 1 == 1) {
                if let Some(pcs) = pc {
                    self.pc[i] = pcs[i];
                }
                if let Some(s) = s {
                    self.status[i] = s;
                }
            }
        }
    }

    /// Both warps agree on the selection and on every lane's status, and
    /// on the PC of every live lane (a retired lane's PC is never read).
    fn assert_agree(w: &Warp, r: &Reference, step: usize) {
        w.assert_invariants();
        assert_eq!(w.select(), r.select_scan(), "select() differs after step {step}");
        for i in 0..r.lanes {
            assert_eq!(w.status(i), r.status[i], "lane {i} status after step {step}");
            if matches!(r.status[i], ThreadStatus::Active | ThreadStatus::AtBarrier) {
                assert_eq!(w.pc(i), Some(r.pc[i]), "lane {i} pc after step {step}");
            }
        }
        let finished = |s| matches!(s, ThreadStatus::Terminated | ThreadStatus::Faulted);
        assert_eq!(w.done(), r.status[..r.lanes].iter().all(|&s| finished(s)));
    }

    /// The mask warp against the per-lane reference over seeded random
    /// operation sequences: converged and divergent commits (up to one
    /// target per lane), barrier park and release, termination, faults and
    /// PCC-metadata installs, with the static-PC-metadata restriction on
    /// and off.
    #[test]
    fn masks_agree_with_per_lane_reference() {
        let mut rng = Prng::seed_from_u64(0x3A2F_5EED);
        for run in 0..400 {
            let lanes = *rng.choose(&[1usize, 2, 5, 8, 31, 32, 64]);
            let static_pcc = run % 2 == 0;
            let mut w = Warp::new(lanes as u32, 0x100, 7, static_pcc);
            let mut r = Reference::new(lanes, 0x100, 7, static_pcc);
            let full = u64::MAX >> (64 - lanes);
            for step in 0..60 {
                let sel = w.select();
                let pcs: [u32; MAX_LANES] = {
                    let spread = *rng.choose(&[1u32, 2, 4, 64]);
                    std::array::from_fn(|_| 0x100 + 4 * rng.range_u32(0, spread))
                };
                match (sel, rng.range_u32(0, 9)) {
                    (Some(s), 0..=2) => {
                        let to = pcs[0];
                        w.advance_uniform(s.mask, s.pc, to, ThreadStatus::Active);
                        r.set(s.mask, Some(&[to; MAX_LANES]), None);
                    }
                    (Some(s), 3..=4) => {
                        w.advance(s.mask, s.pc, &pcs);
                        r.set(s.mask, Some(&pcs), None);
                    }
                    (Some(s), 5) => {
                        let status =
                            *rng.choose(&[ThreadStatus::AtBarrier, ThreadStatus::Terminated]);
                        let to = s.pc + 4;
                        w.advance_uniform(s.mask, s.pc, to, status);
                        r.set(s.mask, Some(&[to; MAX_LANES]), Some(status));
                    }
                    (_, 6) => {
                        let mask = rng.next_u64() & rng.next_u64() & full;
                        w.retire(mask, ThreadStatus::Faulted);
                        r.set(mask, None, Some(ThreadStatus::Faulted));
                    }
                    (_, 7) => {
                        let lane = rng.range_usize(0, lanes);
                        let meta = rng.range_u64(6, 9);
                        w.set_pcc_meta(lane, meta);
                        r.pcc_meta[if static_pcc { 0 } else { lane }] = meta;
                    }
                    _ => {
                        let parked = (0..lanes).filter(|&i| r.status[i] == ThreadStatus::AtBarrier);
                        let mask = parked.fold(0, |m, i| m | 1u64 << i);
                        assert_eq!(w.release(), mask != 0);
                        r.set(mask, None, Some(ThreadStatus::Active));
                    }
                }
                assert_agree(&w, &r, step);
            }
        }
    }

    #[test]
    fn min_pc_selection_reconverges() {
        let mut w = Warp::new(4, 0x100, 0, true);
        // Two threads took a forward branch to 0x120, two fell through.
        let mut pcs = [0x100; MAX_LANES];
        pcs[1] = 0x120;
        pcs[3] = 0x120;
        w.advance(0b1111, 0x100, &pcs);
        let s = w.select().unwrap();
        assert_eq!(s.pc, 0x100);
        assert_eq!(s.mask, 0b0101);
        // After the laggards advance to the join point, all reconverge.
        w.advance_uniform(s.mask, 0x100, 0x120, ThreadStatus::Active);
        let s = w.select().unwrap();
        assert_eq!(s.mask, 0b1111);
        assert_eq!(w.groups, [(0x120, 0b1111)]);
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
        w.advance_uniform(0b01, 0, 4, ThreadStatus::AtBarrier);
        assert!(!w.blocked_at_barrier());
        let s = w.select().unwrap();
        assert_eq!(s.mask, 0b10);
        w.advance_uniform(0b10, 0, 4, ThreadStatus::Terminated);
        assert!(w.blocked_at_barrier());
        assert!(w.select().is_none());
        w.retire(0b01, ThreadStatus::Terminated);
        assert!(w.done());
    }

    #[test]
    fn select_handles_empty_and_finished_warps() {
        // All-terminated warp: select() must return None, not panic.
        let mut w = Warp::new(4, 0x100, 0, false);
        w.retire(0b1111, ThreadStatus::Terminated);
        assert!(w.select().is_none());
        assert!(w.done());
        // Mixed faulted/terminated: also finished, also None.
        w.retire(0b0010, ThreadStatus::Faulted);
        assert_eq!(w.status(1), ThreadStatus::Faulted);
        assert!(w.select().is_none());
        assert!(w.done());
        assert!(!w.blocked_at_barrier());
        // Faulted lanes never appear in a selection mask.
        let mut w = Warp::new(4, 0x100, 0, false);
        w.retire(0b0111, ThreadStatus::Faulted);
        assert_eq!(w.select().unwrap().mask, 0b1000);
        // A warp of no lanes is finished from the start.
        let w = Warp::new(0, 0x100, 0, true);
        assert!(w.select().is_none());
        assert!(w.done());
    }
}
