//! Trace context: the engine's handle for charging instructions and
//! recording memory accesses.
//!
//! One `TraceCtx` exists per client session. It bundles the per-thread
//! [`Tracer`] with the engine's region ids so call sites read naturally:
//! `tc.charge(tc.r.lock_mgr, instr::LOCK_ACQUIRE)`.

use dbcmp_trace::{AddressSpace, RegionId, ScratchArena, SimAddr, ThreadTrace, Tracer};

use crate::costs::EngineRegions;

/// Fixed framing (header, transaction ids) of every message one engine
/// instance sends another, in simulated bytes: a cross-partition lock
/// request carries nothing else, a two-phase transaction message or an
/// exchange transfer adds its payload.
pub const MSG_HEADER_BYTES: u32 = 32;

/// Per-client trace capture context.
#[derive(Debug)]
pub struct TraceCtx {
    tracer: Tracer,
    /// Engine region ids (copy).
    pub r: EngineRegions,
    /// Pre-carved private scratch space. When set, operator scratch
    /// allocations (sort runs, hash tables) come from here instead of
    /// the shared bump allocator, decoupling this client's addresses
    /// from other clients' allocation timing (parallel capture).
    scratch: Option<ScratchArena>,
}

impl TraceCtx {
    /// A context that records full event streams (capture mode).
    pub fn recording(r: EngineRegions) -> Self {
        TraceCtx {
            tracer: Tracer::recording(),
            r,
            scratch: None,
        }
    }

    /// Counts instructions but records no events — for native benchmarks.
    pub fn null(r: EngineRegions) -> Self {
        TraceCtx {
            tracer: Tracer::null(),
            r,
            scratch: None,
        }
    }

    /// Route operator scratch allocations through a private arena (see
    /// [`AddressSpace::reserve_arena`]).
    pub fn set_scratch(&mut self, arena: ScratchArena) {
        self.scratch = Some(arena);
    }

    /// Allocate operator scratch (sort buffers, hash tables): from this
    /// context's private arena when one is set, else anonymously from
    /// the shared `space`. Capture drivers that run clients in parallel
    /// must set an arena — the shared path's addresses depend on
    /// cross-client allocation order.
    pub(crate) fn scratch_alloc(&mut self, space: &AddressSpace, bytes: u64) -> SimAddr {
        match &mut self.scratch {
            Some(arena) => arena.alloc(bytes),
            None => space.alloc(bytes),
        }
    }

    /// Charge `n` instructions to `region`.
    #[inline]
    pub fn charge(&mut self, region: RegionId, n: u32) {
        self.tracer.exec(region, n);
    }

    /// Record a data load.
    #[inline]
    pub fn load(&mut self, addr: u64, size: u32) {
        self.tracer.load(addr, size);
    }

    /// Record a *dependent* load (pointer chase — gates OoO overlap).
    #[inline]
    pub fn load_dep(&mut self, addr: u64, size: u32) {
        self.tracer.load_dep(addr, size);
    }

    /// Record a data store.
    #[inline]
    pub fn store(&mut self, addr: u64, size: u32) {
        self.tracer.store(addr, size);
    }

    /// Ordering fence (lock handoff, commit point).
    #[inline]
    pub fn fence(&mut self) {
        self.tracer.fence();
    }

    /// Mark a completed unit of work (transaction or query).
    #[inline]
    pub fn unit_end(&mut self) {
        self.tracer.unit_end();
    }

    /// Mark a lock-wait block (the session parks until woken).
    #[inline]
    pub(crate) fn block(&mut self) {
        self.tracer.block();
    }

    /// Mark resumption after a lock grant or victim notification.
    #[inline]
    pub(crate) fn wake(&mut self) {
        self.tracer.wake();
    }

    /// Record sending a `bytes`-byte message to another engine instance
    /// (shared-nothing deployments; replay charges interconnect cost).
    #[inline]
    pub fn remote_send(&mut self, bytes: u32) {
        self.tracer.remote_send(bytes);
    }

    /// Record waiting for a `bytes`-byte message from another instance.
    #[inline]
    pub fn remote_recv(&mut self, bytes: u32) {
        self.tracer.remote_recv(bytes);
    }

    /// Instructions charged so far.
    pub fn instrs(&self) -> u64 {
        self.tracer.instrs_so_far()
    }

    /// Finish capture.
    pub fn finish(self) -> ThreadTrace {
        self.tracer.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcmp_trace::CodeRegions;

    #[test]
    fn charges_accumulate() {
        let mut regions = CodeRegions::new();
        let er = EngineRegions::register(&mut regions);
        let mut tc = TraceCtx::recording(er);
        tc.charge(tc.r.lock_mgr, 85);
        tc.load_dep(0x2000, 8);
        tc.store(0x2040, 16);
        tc.unit_end();
        let tr = tc.finish();
        assert_eq!(tr.instrs(), 85 + 2);
        assert_eq!(tr.counts().units, 1);
        assert!(tr.len() >= 3);
    }
}
