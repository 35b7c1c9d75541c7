//! Schedule stage: the barrel scheduler.
//!
//! Owns the round-robin warp pick, barrier release, the `idle` stall
//! counter and its trace events, and deadlock detection. One call to
//! [`Sm::step`] is one scheduler decision: issue one instruction, advance
//! time to the next resume point, or report the run finished/deadlocked.
//! How many steps an SM takes in a row is decided by [`crate::Device::run`]
//! alone, at every SM count.

use super::StepOutcome;
use crate::device::MemSystem;
use crate::sm::Sm;
use crate::trap::RunError;
use crate::warp::ThreadStatus;
use simt_trace::{StallCause, TraceEvent, NO_WARP};

impl Sm {
    /// One scheduler step over the device's memory system: release
    /// barriers, pick a ready warp round-robin and issue one instruction
    /// for it, or advance time to the next resume point.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Trap`] on a thread fault, [`RunError::Timeout`]
    /// past `max_cycles`, and [`RunError::Deadlock`] when only
    /// barrier-blocked warps remain and no block can release.
    pub(crate) fn step(
        &mut self,
        ms: &mut MemSystem,
        max_cycles: u64,
    ) -> Result<StepOutcome, RunError> {
        // Barrier maintenance (and the done/timeout checks that must
        // precede it) runs only while some thread may be parked:
        // `maybe_parked` is raised by the barrier op and lowered here once
        // a scan finds nothing parked, so barrier-free stretches pay no
        // per-step warp scans at all. A released warp resumes no earlier
        // than `cycle + 1`, so releasing before the pick never changes
        // this step's pick.
        if self.maybe_parked {
            let mut any_parked = false;
            let mut all_done = true;
            for w in &self.warps {
                debug_assert_eq!(w.runnable == 0 && w.parked == 0, w.done_fast());
                any_parked |= w.parked > 0;
                all_done &= w.runnable == 0 && w.parked == 0;
            }
            if all_done {
                return Ok(StepOutcome::Done);
            }
            if self.cycle >= max_cycles {
                return Err(RunError::Timeout { cycles: self.cycle });
            }
            if any_parked {
                self.release_barriers();
            } else {
                self.maybe_parked = false;
            }
        }

        let n = self.warps.len();
        let mut picked = None;
        for i in 0..n {
            let w = (self.rr + i) % n;
            if self.pickable(w) {
                picked = Some(w);
                break;
            }
        }
        match picked {
            Some(w) => {
                // A pickable warp implies the SM is not done, so the Done
                // check is needed only on the no-pick path below.
                if self.cycle >= max_cycles {
                    return Err(RunError::Timeout { cycles: self.cycle });
                }
                self.rr = (w + 1) % n;
                // The one narrowing of the warp index: traps and events
                // name warps as `u32`.
                let w = u32::try_from(w).expect("warp index exceeds u32");
                self.issue(ms, w)?;
            }
            None => {
                let mut all_done = true;
                for w in &self.warps {
                    debug_assert_eq!(w.runnable == 0 && w.parked == 0, w.done_fast());
                    all_done &= w.runnable == 0 && w.parked == 0;
                }
                if all_done {
                    return Ok(StepOutcome::Done);
                }
                if self.cycle >= max_cycles {
                    return Err(RunError::Timeout { cycles: self.cycle });
                }
                // Advance time to the next resume point.
                let next = self.warps.iter().filter(|w| w.runnable > 0).map(|w| w.ready_at).min();
                match next {
                    Some(t) if t > self.cycle => {
                        self.stats.stalls.idle += t - self.cycle;
                        self.emit_stall(NO_WARP, StallCause::Idle, t - self.cycle);
                        self.cycle = t;
                    }
                    _ => {
                        // Only barrier-blocked warps remain and the
                        // release pass freed none: deadlock.
                        let blocked_warps =
                            self.warps.iter().filter(|w| w.blocked_at_barrier_fast()).count()
                                as u32;
                        return Err(RunError::Deadlock { cycles: self.cycle, blocked_warps });
                    }
                }
            }
        }
        Ok(StepOutcome::Progress)
    }

    /// Would the pick scan take warp `w` this cycle? A runnable thread
    /// implies the warp is neither done nor barrier-blocked and that
    /// `select()` returns a selection, so the whole original four-part
    /// test collapses to two O(1) reads.
    #[inline]
    fn pickable(&self, w: usize) -> bool {
        let warp = &self.warps[w];
        debug_assert_eq!(
            warp.runnable > 0,
            !warp.done() && !warp.blocked_at_barrier() && warp.select().is_some()
        );
        warp.runnable > 0 && warp.ready_at <= self.cycle
    }

    /// Release barriers: a block whose live warps are all blocked at the
    /// barrier resumes as a unit.
    pub(crate) fn release_barriers(&mut self) {
        let per_block = self.block_warps as usize;
        let n = self.warps.len();
        let mut b = 0;
        while b < n {
            let group = b..(b + per_block).min(n);
            let any_blocked = group.clone().any(|w| self.warps[w].blocked_at_barrier_fast());
            let all_parked = group
                .clone()
                .all(|w| self.warps[w].done_fast() || self.warps[w].blocked_at_barrier_fast());
            if any_blocked && all_parked {
                for w in group {
                    let released = {
                        let warp = &mut self.warps[w];
                        let mut released = false;
                        for i in 0..warp.lanes() as usize {
                            if warp.status[i] == ThreadStatus::AtBarrier {
                                warp.set_status(i, ThreadStatus::Active);
                                released = true;
                            }
                        }
                        warp.ready_at = warp.ready_at.max(self.cycle + 1);
                        released
                    };
                    if released {
                        if let Some(sink) = self.sink.as_deref_mut() {
                            sink.emit(TraceEvent::Barrier {
                                cycle: self.cycle,
                                warp: w as u32,
                                release: true,
                            });
                        }
                    }
                }
            }
            b += per_block;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::device::MemSystem;
    use crate::sm::Sm;
    use crate::trap::RunError;
    use crate::warp::ThreadStatus;
    use crate::{CheriMode, SmConfig};
    use simt_isa::asm::Assembler;

    /// A scheduler bug that issues a warp with no selectable thread must
    /// surface as a typed [`RunError::SchedulerInvariant`], not a process
    /// abort (the former `expect("issue() requires a selectable warp")`).
    #[test]
    fn issue_without_selectable_warp_is_a_typed_error() {
        let mut a = Assembler::new();
        a.terminate();
        let cfg = SmConfig::small(CheriMode::Off);
        let mut sm = Sm::new(cfg);
        let mut ms = MemSystem::new(&cfg);
        sm.load_program(&a.assemble());
        sm.reset();
        // Simulate the bug: every thread of warp 0 finished, yet the warp
        // is handed to issue() anyway.
        for lane in 0..sm.warps[0].lanes() as usize {
            sm.warps[0].set_status(lane, ThreadStatus::Terminated);
        }
        match sm.issue(&mut ms, 0) {
            Err(RunError::SchedulerInvariant { warp: 0, .. }) => {}
            other => panic!("expected SchedulerInvariant, got {other:?}"),
        }
    }
}
