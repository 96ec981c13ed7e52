//! The [`Core`] trait: the contract every core model satisfies.
//!
//! Replaces the closed `AnyCore` enum the machine used to dispatch
//! through. The machine drives cores purely through this trait, so a
//! machine can mix slot kinds freely (the heterogeneous-CMP scenarios of
//! Porobic et al. and Schall & Härder) and new core models plug in
//! without touching the cycle loop.

use dbcmp_trace::region::CodeRegions;

use crate::ctx::CtxBase;
use crate::cursor::ThreadState;
use crate::machine::MachineCtl;
use crate::memsys::MemSys;
use crate::stats::CycleClass;

/// What one simulated cycle reports back to the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick {
    /// The cycle's accounting class, or `None` when the core has no work
    /// at all (inactive cores are not charged).
    pub class: Option<CycleClass>,
    /// Every cycle in `now + 1..quiet_until` would report the same
    /// `class` and change no state except what [`Core::skip`] applies in
    /// bulk. `now + 1` or less: call me next cycle; `u64::MAX`: never.
    pub quiet_until: u64,
}

impl Tick {
    /// A cycle that changed state: the core must be called next cycle.
    #[inline]
    pub fn busy(class: CycleClass) -> Self {
        Tick {
            class: Some(class),
            quiet_until: 0,
        }
    }
}

/// One core slot of a machine. Implementations own their hardware
/// contexts ([`CtxBase`]) and per-window retirement counter; the machine
/// owns the threads, the memory system, and the clock.
pub trait Core {
    /// Simulate one cycle as core number `core` at time `now`. The
    /// machine does not call the core again before `quiet_until`; it
    /// charges the skipped cycles to `class` and reports them through
    /// [`skip`](Self::skip) first.
    fn cycle(
        &mut self,
        core: usize,
        now: u64,
        mem: &mut MemSys,
        threads: &mut [ThreadState<'_>],
        regions: &CodeRegions,
        ctl: &mut MachineCtl,
    ) -> Tick;

    /// Apply, in bulk, the side effects `cycles` skipped quiet cycles
    /// would have had one at a time (fat: the quantum countdown; lean:
    /// the round-robin pointer).
    fn skip(&mut self, cycles: u64);

    /// The core's hardware contexts (thread slots), in binding order.
    fn contexts(&self) -> &[CtxBase];

    /// Mutable access to the contexts, for thread binding.
    fn contexts_mut(&mut self) -> &mut [CtxBase];

    /// Mutable access to the per-window retirement counter (the shared
    /// reset plumbing; concrete models expose the count as a field).
    fn retired_mut(&mut self) -> &mut u64;

    /// Zero the measurement counters at the end of warm-up. Cores with
    /// extra window state override and call the default.
    fn reset_counters(&mut self) {
        *self.retired_mut() = 0;
    }
}
