//! Schedule stage: the barrel scheduler.
//!
//! Owns the round-robin warp pick, barrier release, the `idle` stall
//! counter and its trace events, and deadlock detection. One call to
//! [`Sm::step`] is one scheduler decision: issue one instruction, advance
//! time to the next resume point, or report the run finished/deadlocked.
//! How many steps an SM takes in a row is decided by [`crate::Device::run`]
//! alone, at every SM count.
//!
//! Every warp query here is a lane-mask test: a warp is pickable when its
//! `active` mask is non-empty, done when no lane is active or parked, and
//! a barrier release turns its parked lanes active in one operation.

use super::StepOutcome;
use crate::device::MemSystem;
use crate::sm::Sm;
use crate::trap::RunError;
use crate::warp::Warp;
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
                any_parked |= w.has_parked();
                all_done &= w.done();
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

        // Round robin from `rr`, as two ranges: no division per warp.
        let n = self.warps.len();
        match (self.rr..n).chain(0..self.rr).find(|&w| self.pickable(w)) {
            Some(w) => {
                // A pickable warp implies the SM is not done, so the Done
                // check is needed only on the no-pick path below.
                if self.cycle >= max_cycles {
                    return Err(RunError::Timeout { cycles: self.cycle });
                }
                self.rr = if w + 1 == n { 0 } else { w + 1 };
                // The one narrowing of the warp index: traps and events
                // name warps as `u32`.
                let w = u32::try_from(w).expect("warp index exceeds u32");
                self.issue(ms, w)?;
            }
            None => {
                if self.warps.iter().all(Warp::done) {
                    return Ok(StepOutcome::Done);
                }
                if self.cycle >= max_cycles {
                    return Err(RunError::Timeout { cycles: self.cycle });
                }
                // Advance time to the next resume point.
                let next = self.warps.iter().filter(|w| w.runnable()).map(|w| w.ready_at).min();
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
                            self.warps.iter().filter(|w| w.blocked_at_barrier()).count() as u32;
                        return Err(RunError::Deadlock { cycles: self.cycle, blocked_warps });
                    }
                }
            }
        }
        Ok(StepOutcome::Progress)
    }

    /// Would the pick scan take warp `w` this cycle? A runnable lane
    /// implies the warp is neither done nor barrier-blocked and that
    /// `select()` returns a selection, so the test is one mask and one
    /// cycle comparison.
    #[inline]
    fn pickable(&self, w: usize) -> bool {
        let warp = &self.warps[w];
        warp.runnable() && warp.ready_at <= self.cycle
    }

    /// Release barriers: a block whose live warps are all blocked at the
    /// barrier resumes as a unit.
    pub(crate) fn release_barriers(&mut self) {
        let per_block = self.block_warps as usize;
        let n = self.warps.len();
        let mut b = 0;
        while b < n {
            let group = b..(b + per_block).min(n);
            let warps = &self.warps[group.clone()];
            let any_blocked = warps.iter().any(Warp::blocked_at_barrier);
            // Done or blocked: no warp of the block has a runnable lane.
            let all_parked = warps.iter().all(|w| !w.runnable());
            if any_blocked && all_parked {
                for w in group {
                    let warp = &mut self.warps[w];
                    let released = warp.release();
                    warp.ready_at = warp.ready_at.max(self.cycle + 1);
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
        let mut sm = Sm::new(cfg, 0, cfg.threads());
        let mut ms = MemSystem::new(&cfg);
        sm.load_program(&a.assemble().unwrap());
        sm.reset();
        // Simulate the bug: every thread of warp 0 finished, yet the warp
        // is handed to issue() anyway.
        sm.warps[0].retire(sm.full_mask, ThreadStatus::Terminated);
        match sm.issue(&mut ms, 0) {
            Err(RunError::SchedulerInvariant { warp: 0, .. }) => {}
            other => panic!("expected SchedulerInvariant, got {other:?}"),
        }
    }
}
