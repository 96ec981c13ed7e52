//! The [`Core`] trait: the contract every core model satisfies.
//!
//! The machine drives cores purely through this trait, so a machine can
//! mix slot kinds freely (the heterogeneous-CMP scenarios of Porobic et
//! al. and Schall & Härder).

use crate::ctx::CtxBase;
use crate::machine::Shared;
use crate::stats::CycleClass;

/// What one [`Core::cycle`] call reports back to the machine: a span of
/// cycles, all of one class, that the core has fully simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tick {
    /// The class of every cycle of the span, or `None` when the core has
    /// no work at all (inactive cores are not charged).
    pub(crate) class: Option<CycleClass>,
    /// End of the span, exclusive: `now < until <= horizon`. Every effect
    /// of cycles `now..until` is already applied; the machine charges
    /// them to `class` and calls the core next at `until`.
    pub(crate) until: u64,
}

impl Tick {
    /// A span of the one cycle at `now`.
    #[inline]
    pub(crate) fn once(class: CycleClass, now: u64) -> Self {
        Tick {
            class: Some(class),
            until: now + 1,
        }
    }
}

/// One core slot of a machine. Implementations own their hardware
/// contexts ([`CtxBase`]); the machine owns the clock and lends the rest
/// of its state ([`Shared`]: memory system, threads, code regions,
/// run control) to one core call at a time.
pub(crate) trait Core {
    /// Simulate core number `core` from cycle `now`, never reaching
    /// `horizon` (the end of the machine's current window): the cycle at
    /// `now`, then the cycles after it for as long as nothing outside the
    /// core can change what they do (DESIGN.md §2, "Time advance").
    /// Returns the span simulated; `horizon = now + 1` is one cycle.
    fn cycle(&mut self, core: usize, now: u64, horizon: u64, s: &mut Shared<'_>) -> Tick {
        let tick = self.step(core, now, horizon, s);
        let mut t = tick.until;
        if tick.class == Some(CycleClass::Compute) {
            while t < horizon && self.private_cycle(t, s) {
                t += 1;
            }
        }
        Tick { until: t, ..tick }
    }

    /// Simulate the one cycle at `now`, or, when it is quiet (it and the
    /// cycles after it change nothing but countdowns the core applies in
    /// bulk), the quiet span it starts, ending by `horizon`.
    fn step(&mut self, core: usize, now: u64, horizon: u64, s: &mut Shared<'_>) -> Tick;

    /// Simulate the cycle at `t` if it is *private* and return `true`;
    /// otherwise change nothing and return `false`. A private cycle
    /// retires something, calls no `MemSys`, consumes no trace event and
    /// rotates no thread, and its thread is unfinished, so no completion
    /// run ends before it. Nothing another core does can reach such a
    /// cycle, so it may run ahead of the clock. It does what
    /// [`step`](Self::step) would, through `step`'s own stage functions.
    fn private_cycle(&mut self, t: u64, s: &mut Shared<'_>) -> bool;

    /// The core's hardware contexts (thread slots), in binding order.
    fn contexts(&self) -> &[CtxBase];

    /// Mutable access to the contexts, for thread binding.
    fn contexts_mut(&mut self) -> &mut [CtxBase];
}
