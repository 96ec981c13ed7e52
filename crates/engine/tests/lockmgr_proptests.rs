//! Property tests for the wait-queue lock manager (ISSUE 2).
//!
//! A miniature round-robin scheduler (mirroring the interleaved capture's
//! baton protocol) drives random per-transaction acquisition scripts
//! through [`ConcurrencyControl::acquire_wait`] and checks, after every
//! step:
//!
//! * at most one exclusive holder per key, and shared/exclusive never
//!   coexist (the 2PL compatibility matrix);
//! * the waits-for graph is acyclic — every cycle is resolved inside the
//!   acquire that would create it;
//! * every blocked transaction is eventually granted or deadlock-aborted
//!   (the run terminates with all scripts finished);
//! * the lock table and wait queues drain completely at the end.

use std::collections::BTreeMap;

use dbcmp_engine::cc::{DeterministicOrdered, PartitionedPerCore};
use dbcmp_engine::lockmgr::{Grant, LockMgr, LockMode};
use dbcmp_engine::{CcBackend, ConcurrencyControl, EngineError, EngineRegions, TraceCtx};
use dbcmp_trace::{AddressSpace, CodeRegions};
use proptest::prelude::*;

fn tc() -> TraceCtx {
    let mut r = CodeRegions::new();
    let er = EngineRegions::register(&mut r);
    TraceCtx::null(er)
}

/// One transaction's script: keys to acquire, in order.
type Script = Vec<(u64, bool)>;

/// A backend-harness script step: `(key, exclusive, late)`. `late` keys
/// are left out of the ordered backend's declaration, exercising its
/// no-wait fallback path (the other backends ignore the flag).
type CcScript = Vec<(u64, bool, bool)>;

fn make_backend(b: CcBackend, space: &AddressSpace) -> Box<dyn ConcurrencyControl> {
    match b {
        CcBackend::Centralized2PL => Box::new(LockMgr::new(space, 64)),
        CcBackend::PartitionedPerCore => Box::new(PartitionedPerCore::new(space, 4, 256)),
        CcBackend::DeterministicOrdered => Box::new(DeterministicOrdered::new(space, 64)),
    }
}

/// Record that `txn` now holds `key` (upgrading S to X if re-recorded
/// exclusive) in the host-side holder ledger.
fn record(ledger: &mut BTreeMap<u64, Vec<(usize, bool)>>, key: u64, txn: usize, excl: bool) {
    let holders = ledger.entry(key).or_default();
    match holders.iter_mut().find(|h| h.0 == txn) {
        Some(h) => h.1 |= excl,
        None => holders.push((txn, excl)),
    }
}

/// Drive the same random scripts through one backend behind the
/// [`ConcurrencyControl`] trait with the mini round-robin scheduler and
/// check, after every step: the 2PL compatibility matrix on a host-side
/// holder ledger, acyclicity (`has_deadlock` must never fire for the
/// deadlock-free backends), bounded termination, and a fully drained
/// table at the end.
fn run_backend_scripts(backend: CcBackend, scripts: &[CcScript]) {
    let n = scripts.len();
    let space = AddressSpace::new();
    let mut cc = make_backend(backend, &space);
    let mut tcx = tc();
    let ordered = backend == CcBackend::DeterministicOrdered;
    let id = |i: usize| (i + 1) as u64;
    let mode = |x: bool| {
        if x {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        }
    };

    // Ordered transactions declare their non-late keys before running.
    let mut declared = vec![!ordered; n];
    let mut pc = vec![0usize; n];
    let mut state = vec![St::Ready; n];
    // Freshly granted keys each txn must release itself (txn.locks).
    let mut fresh: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut ledger: BTreeMap<u64, Vec<(usize, bool)>> = BTreeMap::new();

    let mut turns = 0u64;
    let mut rr = 0usize;
    while state.iter().any(|&s| s != St::Done) {
        turns += 1;
        prop_assert!(
            turns < 20_000,
            "{backend:?}: scheduler failed to make progress"
        );
        let Some(i) = (0..n)
            .map(|k| (rr + k) % n)
            .find(|&k| state[k] == St::Ready)
        else {
            panic!("{backend:?}: all live txns blocked: undetected deadlock");
        };
        rr = (i + 1) % n;

        // Abort path shared by deadlock victims and no-wait refusals.
        macro_rules! abort {
            () => {{
                cc.cancel_wait(id(i), &mut tcx);
                for key in fresh[i].drain(..) {
                    cc.release(id(i), key, &mut tcx);
                }
                cc.finish(id(i), &mut tcx);
                ledger.values_mut().for_each(|v| v.retain(|&(t, _)| t != i));
                state[i] = St::Done;
            }};
        }

        if !declared[i] {
            let keys: Vec<(u64, LockMode)> = scripts[i]
                .iter()
                .filter(|&&(_, _, late)| !late)
                .map(|&(k, x, _)| (k, mode(x)))
                .collect();
            match cc.declare(id(i), &keys, &mut tcx) {
                Ok(()) => declared[i] = true,
                Err(EngineError::LockWait { .. }) => state[i] = St::Blocked,
                Err(e) => panic!("{backend:?}: unexpected declare error: {e}"),
            }
        } else if pc[i] >= scripts[i].len() {
            for key in fresh[i].drain(..) {
                cc.release(id(i), key, &mut tcx);
            }
            cc.finish(id(i), &mut tcx);
            ledger.values_mut().for_each(|v| v.retain(|&(t, _)| t != i));
            state[i] = St::Done;
        } else {
            let (key, excl, _late) = scripts[i][pc[i]];
            match cc.acquire_wait(id(i), key, mode(excl), &mut tcx) {
                Ok(Grant::Acquired | Grant::WaitGranted) => {
                    fresh[i].push(key);
                    record(&mut ledger, key, i, excl);
                    pc[i] += 1;
                }
                Ok(Grant::Held | Grant::WaitUpgraded) => {
                    record(&mut ledger, key, i, excl);
                    pc[i] += 1;
                }
                Ok(Grant::Wait) => state[i] = St::Blocked,
                Err(EngineError::Deadlock { .. }) => {
                    prop_assert!(
                        backend == CcBackend::Centralized2PL,
                        "{backend:?} must be structurally deadlock-free"
                    );
                    abort!();
                }
                Err(EngineError::LockConflict { .. }) => {
                    // A discipline-enforced no-wait refusal (out-of-order
                    // partitioned request, ordered derivation miss): the
                    // capture layer aborts and retries; here the unit is
                    // simply given up.
                    abort!();
                }
                Err(e) => panic!("{backend:?}: unexpected engine error: {e}"),
            }
        }

        for t in cc.drain_woken() {
            let k = (t - 1) as usize;
            if state[k] == St::Blocked {
                state[k] = St::Ready;
            }
        }

        // Compatibility matrix over everything the backend has granted:
        // at most one exclusive holder, and S never coexists with X.
        // (The ledger may *undercount* ordered declare-granted locks the
        // transaction has not touched yet — that only weakens the check,
        // never falsely trips it.)
        for (key, holders) in &ledger {
            let x = holders.iter().filter(|h| h.1).count();
            prop_assert!(x <= 1, "{backend:?}: key {key}: {x} exclusive holders");
            if x == 1 {
                prop_assert_eq!(
                    holders.len(),
                    1,
                    "{:?}: key {}: S and X coexist: {:?}",
                    backend,
                    key,
                    holders
                );
            }
        }
        prop_assert!(
            !cc.has_deadlock(),
            "{backend:?}: waits-for cycle survived a step: {:?}",
            cc.wait_graph()
        );
        if backend != CcBackend::Centralized2PL {
            prop_assert_eq!(
                cc.stats().deadlocks,
                0,
                "{:?} handed out a deadlock-victim notification",
                backend
            );
        }
    }

    prop_assert_eq!(cc.live_locks(), 0, "{:?}: lock state must drain", backend);
    prop_assert_eq!(cc.waiting_count(), 0, "{:?}: waiters must drain", backend);
    prop_assert!(cc.drain_woken().is_empty(), "{backend:?}: stale wakes");
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    /// May attempt its next acquisition.
    Ready,
    /// Parked on a wait queue until woken.
    Blocked,
    /// Committed or deadlock-aborted; locks released.
    Done,
}

/// 2PL compatibility matrix + structural sanity over the live lock table:
/// an entry lives exactly while it has a holder or a waiter of its own.
fn assert_table_invariants(lm: &LockMgr) {
    let snapshot = lm.snapshot();
    prop_assert_eq!(lm.live_locks(), snapshot.len(), "live_locks vs snapshot");
    for (key, mode, holders, waiters) in snapshot {
        prop_assert!(
            !holders.is_empty() || !waiters.is_empty(),
            "key {key}: an entry with no holder and no waiter must not linger"
        );
        if mode == LockMode::Exclusive {
            prop_assert!(
                holders.len() <= 1,
                "key {key}: {} exclusive holders",
                holders.len()
            );
        }
        let mut uniq = holders.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), holders.len(), "key {}: duplicate holder", key);
    }
    prop_assert!(
        !lm.has_deadlock(),
        "waits-for graph must be acyclic after each step: {:?}",
        lm.wait_graph()
    );
}

proptest! {
    // Deterministic in CI: the vendored proptest seeds each property's RNG
    // from the test's fully-qualified name; this bounds the case count.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random acquisition scripts under round-robin scheduling: the
    /// compatibility matrix holds, cycles never survive a step, everything
    /// terminates, and the table drains.
    #[test]
    fn queued_lockmgr_invariants(
        scripts in prop::collection::vec(
            prop::collection::vec((0u64..6, any::<bool>()), 1..8),
            2..6,
        )
    ) {
        let scripts: Vec<Script> = scripts;
        let n = scripts.len();
        let space = AddressSpace::new();
        let mut lm = LockMgr::new(&space, 64);
        let mut tcx = tc();

        // Transaction i has id i+1 (ids grow with begin order; the victim
        // rule aborts the largest id on a cycle).
        let id = |i: usize| (i + 1) as u64;
        let mut pc = vec![0usize; n];
        let mut state = vec![St::Ready; n];
        let mut held: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut blocked_ever = 0u64;
        let mut resolved = 0u64;

        let mut turns = 0u64;
        let mut rr = 0usize;
        while state.iter().any(|&s| s != St::Done) {
            turns += 1;
            // Progress property: bounded termination. Generous cap — every
            // script is ≤ 8 ops and every turn retries at most one op.
            prop_assert!(turns < 10_000, "scheduler failed to make progress");
            let Some(i) = (0..n).map(|k| (rr + k) % n).find(|&k| state[k] == St::Ready) else {
                panic!("all live txns blocked: undetected deadlock");
            };
            rr = (i + 1) % n;

            if pc[i] >= scripts[i].len() {
                // Commit: release everything.
                for key in held[i].drain(..) {
                    lm.release(id(i), key, &mut tcx);
                }
                state[i] = St::Done;
            } else {
                let (key, exclusive) = scripts[i][pc[i]];
                let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                match lm.acquire_wait(id(i), key, mode, &mut tcx) {
                    Ok(Grant::Acquired | Grant::WaitGranted) => {
                        held[i].push(key);
                        pc[i] += 1;
                    }
                    Ok(Grant::Held | Grant::WaitUpgraded) => pc[i] += 1,
                    Ok(Grant::Wait) => {
                        blocked_ever += 1;
                        state[i] = St::Blocked;
                    }
                    Err(EngineError::Deadlock { .. }) => {
                        // Victim: abort — cancel any queue residue, release
                        // held locks, finish.
                        resolved += 1;
                        lm.cancel_wait(id(i), &mut tcx);
                        for key in held[i].drain(..) {
                            lm.release(id(i), key, &mut tcx);
                        }
                        state[i] = St::Done;
                    }
                    Err(e) => panic!("unexpected engine error: {e}"),
                }
            }

            // Wake notifications resume blocked txns (grant or victim).
            for t in lm.drain_woken() {
                let k = (t - 1) as usize;
                if state[k] == St::Blocked {
                    state[k] = St::Ready;
                }
            }
            assert_table_invariants(&lm);
        }

        // Every blocked txn was eventually granted or deadlock-aborted —
        // termination proves it; the table must also have drained.
        prop_assert_eq!(lm.live_locks(), 0, "lock table must drain");
        prop_assert_eq!(lm.waiting_count(), 0, "wait queues must drain");
        prop_assert!(lm.drain_woken().is_empty(), "no stale wake notifications");
        // Keep the counters observable for shrunk-case debugging.
        let _ = (blocked_ever, resolved);
    }

    /// No-wait and queued acquires agree on the grant/held outcomes when
    /// no waiting is involved (single live transaction at a time).
    #[test]
    fn nowait_and_queued_agree_without_contention(
        ops in prop::collection::vec((0u64..8, any::<bool>()), 1..20)
    ) {
        let space = AddressSpace::new();
        let mut nw = LockMgr::new(&space, 64);
        let mut qd = LockMgr::new(&space, 64);
        let mut tcx = tc();
        for (key, exclusive) in ops {
            let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
            let a = nw.acquire(1, key, mode, &mut tcx);
            let b = qd.acquire_wait(1, key, mode, &mut tcx);
            match (a, b) {
                (Ok(true), Ok(Grant::Acquired)) | (Ok(false), Ok(Grant::Held)) => {}
                (a, b) => panic!("disagreement on ({key}, {mode:?}): {a:?} vs {b:?}"),
            }
        }
        prop_assert_eq!(nw.live_locks(), qd.live_locks());
    }

    /// The same random scripts driven through *each* backend behind the
    /// [`ConcurrencyControl`] trait: the compatibility matrix holds on a
    /// host-side holder ledger, partitioned/ordered never produce a
    /// deadlock victim (and `has_deadlock` never fires), every schedule
    /// terminates, and the table fully drains.
    #[test]
    fn centralized_backend_scripts_terminate_and_drain(
        scripts in prop::collection::vec(
            prop::collection::vec((0u64..6, any::<bool>(), any::<bool>()), 1..8),
            2..6,
        )
    ) {
        run_backend_scripts(CcBackend::Centralized2PL, &scripts);
    }

    #[test]
    fn partitioned_backend_scripts_terminate_and_drain(
        scripts in prop::collection::vec(
            prop::collection::vec((0u64..6, any::<bool>(), any::<bool>()), 1..8),
            2..6,
        )
    ) {
        run_backend_scripts(CcBackend::PartitionedPerCore, &scripts);
    }

    #[test]
    fn ordered_backend_scripts_terminate_and_drain(
        scripts in prop::collection::vec(
            prop::collection::vec((0u64..6, any::<bool>(), any::<bool>()), 1..8),
            2..6,
        )
    ) {
        run_backend_scripts(CcBackend::DeterministicOrdered, &scripts);
    }
}
