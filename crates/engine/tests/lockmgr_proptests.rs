//! Property tests for the wait-queue lock manager.
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
use dbcmp_trace::{AddressSpace, CodeRegions, Fnv};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

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

// ---- lock-layer event pins ----

/// One pinned script step: a queued (or, when `nowait`, a no-wait)
/// acquire of `key`. `late` keys stay out of the ordered backend's
/// declaration, as in [`CcScript`].
#[derive(Debug, Clone, Copy)]
struct PinStep {
    key: u64,
    excl: bool,
    late: bool,
    nowait: bool,
}

/// Fold `s` into `d`: its length, then one word per byte.
fn fold_str(d: &mut Fnv, s: &str) {
    d.word(s.len() as u64);
    s.bytes().for_each(|b| d.word(u64::from(b)));
}

/// Run 64 fixed script sets (from the vendored [`TestRng`]) through
/// `backend` under a recording [`TraceCtx`] and fold everything the lock
/// layer lets a caller observe into one digest: each call's outcome,
/// every `drain_woken` batch, the live/waiting counts and waits-for graph
/// after each turn, every trace event and the final [`CcStats`].
///
/// The scheduler is the round-robin one of `run_backend_scripts`, made
/// impatient on purpose so the rarely-taken paths run: a parked
/// transaction gives up a quarter of the time (`cancel_wait` while
/// parked, while a declaration is pending or while a victim mark is
/// unread; an ordered one sometimes goes straight to `finish`), a ready
/// one rolls back one turn in sixteen (an unclaimed
/// parked grant), one parked declaration in four executes anyway (a probe
/// of a declared key not granted yet), and one step in eight is no-wait.
fn lock_event_digest(backend: CcBackend) -> u64 {
    let mut gen = TestRng::deterministic("lockmgr_proptests::lock_event_pins::scripts");
    let mut sched = TestRng::deterministic("lockmgr_proptests::lock_event_pins::sched");
    let mut d = Fnv::new();
    let ordered = backend == CcBackend::DeterministicOrdered;
    let id = |i: usize| (i + 1) as u64;
    let mode = |x: bool| {
        if x {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        }
    };
    for case in 0..64u32 {
        let n = 2 + gen.below(4) as usize;
        let scripts: Vec<Vec<PinStep>> = (0..n)
            .map(|_| {
                (0..1 + gen.below(7))
                    .map(|_| PinStep {
                        key: gen.below(6),
                        excl: gen.below(2) == 1,
                        late: gen.below(2) == 1,
                        nowait: gen.below(8) == 0,
                    })
                    .collect()
            })
            .collect();

        let space = AddressSpace::new();
        let mut cc = make_backend(backend, &space);
        cc.set_contention(case % 3 * 7);
        let mut r = CodeRegions::new();
        let mut tcx = TraceCtx::recording(EngineRegions::register(&mut r));

        let mut declared = vec![!ordered; n];
        let mut pc = vec![0usize; n];
        let mut state = vec![St::Ready; n];
        let mut fresh: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut turns = 0u64;
        let mut rr = 0usize;
        while let Some(i) = (0..n).map(|k| (rr + k) % n).find(|&k| state[k] != St::Done) {
            turns += 1;
            assert!(turns < 20_000, "{backend:?}: case {case} made no progress");
            rr = (i + 1) % n;
            let roll = sched.below(16);
            let give_up = match state[i] {
                St::Blocked => roll < 4,
                St::Ready => roll == 0,
                St::Done => false,
            };
            if give_up || (state[i] == St::Ready && pc[i] >= scripts[i].len()) {
                // The ordered backend's `finish` also withdraws a parked
                // declaration by itself; the others need `cancel_wait`.
                if give_up && !(ordered && roll == 1) {
                    cc.cancel_wait(id(i), &mut tcx);
                }
                for key in fresh[i].drain(..) {
                    cc.release(id(i), key, &mut tcx);
                }
                cc.finish(id(i), &mut tcx);
                d.word(if give_up { 0xA807 } else { 0xC0 });
                state[i] = St::Done;
            } else if state[i] == St::Blocked {
                d.word(0xB1);
            } else if !declared[i] {
                let keys: Vec<(u64, LockMode)> = scripts[i]
                    .iter()
                    .filter(|s| !s.late)
                    .map(|s| (s.key, mode(s.excl)))
                    .collect();
                let res = cc.declare(id(i), &keys, &mut tcx);
                fold_str(&mut d, &format!("{res:?}"));
                match res {
                    Ok(()) => declared[i] = true,
                    Err(EngineError::LockWait { .. }) if sched.below(4) == 0 => declared[i] = true,
                    Err(EngineError::LockWait { .. }) => state[i] = St::Blocked,
                    Err(e) => panic!("{backend:?}: unexpected declare error: {e}"),
                }
            } else {
                let s = scripts[i][pc[i]];
                let res = if s.nowait {
                    cc.acquire(id(i), s.key, mode(s.excl), &mut tcx)
                        .map(|fresh| if fresh { Grant::Acquired } else { Grant::Held })
                } else {
                    cc.acquire_wait(id(i), s.key, mode(s.excl), &mut tcx)
                };
                fold_str(&mut d, &format!("{res:?}"));
                match res {
                    Ok(Grant::Acquired | Grant::WaitGranted) => {
                        fresh[i].push(s.key);
                        pc[i] += 1;
                    }
                    Ok(Grant::Held | Grant::WaitUpgraded) => pc[i] += 1,
                    Ok(Grant::Wait) => state[i] = St::Blocked,
                    Err(EngineError::Deadlock { .. } | EngineError::LockConflict { .. }) => {
                        cc.cancel_wait(id(i), &mut tcx);
                        for key in fresh[i].drain(..) {
                            cc.release(id(i), key, &mut tcx);
                        }
                        cc.finish(id(i), &mut tcx);
                        state[i] = St::Done;
                    }
                    Err(e) => panic!("{backend:?}: unexpected engine error: {e}"),
                }
            }

            let woken = cc.drain_woken();
            d.word(woken.len() as u64);
            for t in woken {
                d.word(t);
                let k = (t - 1) as usize;
                if state[k] == St::Blocked {
                    state[k] = St::Ready;
                }
            }
            d.word(cc.live_locks() as u64);
            d.word(cc.waiting_count() as u64);
            for (t, targets) in cc.wait_graph() {
                d.word(t);
                d.word(targets.len() as u64);
                targets.into_iter().for_each(|w| d.word(w));
            }
        }

        let trace = tcx.finish();
        d.word(trace.len() as u64);
        trace.iter().for_each(|e| d.word(e.pack().0));
        let s = cc.stats();
        [
            s.acquires,
            s.waits,
            s.ordering_waits,
            s.deadlocks,
            s.remote_msgs,
            s.remote_bytes,
            s.fallback_conflicts,
            cc.live_locks() as u64,
            cc.waiting_count() as u64,
        ]
        .into_iter()
        .for_each(|w| d.word(w));
    }
    d.finish()
}

/// Every event, wake batch and counter the three backends produce on the
/// impatient scripts of [`lock_event_digest`], pinned at `c722257`, the
/// last commit with a separate lock table per backend. A refactor of the
/// lock layer that changes what any backend emits, or in which order,
/// moves its row.
#[test]
fn lock_events_are_pinned_for_every_backend() {
    let got = [
        CcBackend::Centralized2PL,
        CcBackend::PartitionedPerCore,
        CcBackend::DeterministicOrdered,
    ]
    .map(lock_event_digest);
    assert_eq!(
        got,
        [0x7b52fb23ebdbb850, 0x9e2fff6b4c714ea9, 0x52f536bed750287d],
        "lock-layer events moved: 2PL, partitioned, ordered"
    );
}

// ---- lock-table snapshot pin ----

/// The bucket a 64-bucket [`LockMgr`] puts `key` in: the engine's
/// multiplicative lock hash, bits 32.. masked to the table size.
fn bucket64(key: u64) -> u64 {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & 63
}

/// The exact snapshot of a 64-bucket table holding shared and exclusive
/// holders and queued waiters on five keys searched from the hash: three
/// share one bucket, one sits in a lower bucket but is the largest key,
/// one in a higher bucket but is the smallest. So the pinned order is by
/// bucket first, keys ascending within a bucket, and is neither key order
/// nor acquisition order. Pinned at `1b032a2`.
#[test]
fn lock_table_snapshot_is_pinned() {
    let mut by_bucket: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let (b, shared) = (1000u64..)
        .find_map(|k| {
            let keys = by_bucket.entry(bucket64(k)).or_default();
            keys.push(k);
            (keys.len() == 3).then(|| (bucket64(k), keys.clone()))
        })
        .expect("some bucket fills");
    let [k1, k2, k3] = [shared[0], shared[1], shared[2]];
    let low = (k3 + 1..)
        .find(|&k| bucket64(k) < b)
        .expect("a lower bucket");
    let high = (0..k1).find(|&k| bucket64(k) > b).expect("a higher bucket");
    assert_eq!(
        [k1, k2, k3, low, high],
        [1000, 1059, 1118, 1119, 1],
        "searched keys"
    );

    let space = AddressSpace::new();
    let mut lm = LockMgr::new(&space, 64);
    let mut tcx = tc();
    let (s, x) = (LockMode::Shared, LockMode::Exclusive);
    let script = [
        (1, k3, x, Grant::Acquired),
        (2, k2, s, Grant::Acquired),
        (3, k2, s, Grant::Acquired),
        (4, k2, x, Grant::Wait),
        (2, k1, x, Grant::Acquired),
        (3, k1, s, Grant::Wait),
        (1, low, s, Grant::Acquired),
        (5, low, x, Grant::Wait),
        (6, k3, s, Grant::Wait),
        (2, high, s, Grant::Acquired),
        (7, high, s, Grant::Acquired),
    ];
    for (txn, key, mode, want) in script {
        assert_eq!(lm.acquire_wait(txn, key, mode, &mut tcx).unwrap(), want);
    }
    assert_eq!(
        lm.snapshot(),
        vec![
            (1119, s, vec![1], vec![5]),
            (1000, x, vec![2], vec![3]),
            (1059, s, vec![2, 3], vec![4]),
            (1118, x, vec![1], vec![6]),
            (1, s, vec![2, 7], vec![]),
        ],
        "snapshot order or content moved"
    );
}

/// Nine keys, three in each of three buckets of a 64-bucket table, so that
/// bucket order and key order disagree.
fn colliding_keys() -> Vec<u64> {
    let mut by_bucket: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut keys = Vec::new();
    for k in 1000u64.. {
        let bucket = by_bucket.entry(bucket64(k)).or_default();
        bucket.push(k);
        if bucket.len() == 3 {
            keys.extend_from_slice(bucket);
            if keys.len() == 9 {
                break;
            }
        }
    }
    keys
}

/// A [`LockMgr`] run by the round-robin scheduler over
/// [`colliding_keys`], with a ledger of who holds what (and whether
/// exclusively, upgrades included). Each woken transaction retries at
/// once, so the ledger and the scheduler's states name every holder and
/// waiter the table has.
struct Reference {
    lm: LockMgr,
    tcx: TraceCtx,
    keys: Vec<u64>,
    pc: Vec<usize>,
    state: Vec<St>,
    ledger: BTreeMap<u64, Vec<(usize, bool)>>,
}

impl Reference {
    fn id(i: usize) -> u64 {
        (i + 1) as u64
    }

    /// Release every lock txn `i` holds, and end it.
    fn finish(&mut self, i: usize) {
        for (&key, holders) in &mut self.ledger {
            if holders.iter().any(|h| h.0 == i) {
                self.lm.release(Self::id(i), key, &mut self.tcx);
                holders.retain(|h| h.0 != i);
            }
        }
        self.ledger.retain(|_, holders| !holders.is_empty());
        self.state[i] = St::Done;
    }

    /// Txn `i` commits, or makes (or retries) its next acquire.
    fn step(&mut self, scripts: &[Vec<(usize, bool)>], i: usize) {
        let Some(&(k, excl)) = scripts[i].get(self.pc[i]) else {
            return self.finish(i);
        };
        let key = self.keys[k];
        let mode = if excl {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        match self.lm.acquire_wait(Self::id(i), key, mode, &mut self.tcx) {
            Ok(Grant::Wait) => self.state[i] = St::Blocked,
            Ok(_) => {
                record(&mut self.ledger, key, i, excl);
                self.pc[i] += 1;
                self.state[i] = St::Ready;
            }
            Err(EngineError::Deadlock { .. }) => {
                self.lm.cancel_wait(Self::id(i), &mut self.tcx);
                self.finish(i);
            }
            Err(e) => panic!("unexpected engine error: {e}"),
        }
    }

    /// The live entries the ledger implies, ordered by `(bucket, key)`,
    /// holders and waiters sorted.
    fn expected(&self, scripts: &[Vec<(usize, bool)>]) -> Vec<(u64, LockMode, Vec<u64>, Vec<u64>)> {
        let mut reference = BTreeMap::new();
        for (&key, holders) in &self.ledger {
            let mode = if holders.iter().any(|h| h.1) {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            let mut ids: Vec<u64> = holders.iter().map(|h| Self::id(h.0)).collect();
            ids.sort_unstable();
            reference.insert((bucket64(key), key), (key, mode, ids, Vec::new()));
        }
        for i in (0..scripts.len()).filter(|&i| self.state[i] == St::Blocked) {
            let key = self.keys[scripts[i][self.pc[i]].0];
            let entry = reference.get_mut(&(bucket64(key), key));
            prop_assert!(
                entry.is_some(),
                "txn {} waits on {} with no holder",
                i + 1,
                key
            );
            if let Some(entry) = entry {
                entry.3.push(Self::id(i));
            }
        }
        reference.into_values().collect()
    }
}

/// Run `scripts` (indexes into [`colliding_keys`]) and check after every
/// step that the snapshot equals [`Reference::expected`], a `BTreeMap`
/// keyed by `(bucket, key)`.
fn run_against_reference(scripts: &[Vec<(usize, bool)>]) {
    let n = scripts.len();
    let space = AddressSpace::new();
    let mut r = Reference {
        lm: LockMgr::new(&space, 64),
        tcx: tc(),
        keys: colliding_keys(),
        pc: vec![0; n],
        state: vec![St::Ready; n],
        ledger: BTreeMap::new(),
    };
    let mut rr = 0usize;
    for _ in 0..10_000 {
        let Some(i) = (0..n)
            .map(|k| (rr + k) % n)
            .find(|&k| r.state[k] == St::Ready)
        else {
            break;
        };
        rr = (i + 1) % n;
        r.step(scripts, i);
        let mut woken = r.lm.drain_woken();
        while !woken.is_empty() {
            for t in woken {
                let k = (t - 1) as usize;
                if r.state[k] == St::Blocked {
                    r.step(scripts, k);
                }
            }
            woken = r.lm.drain_woken();
        }
        let got: Vec<_> =
            r.lm.snapshot()
                .into_iter()
                .map(|(key, mode, mut holders, mut waiters)| {
                    holders.sort_unstable();
                    waiters.sort_unstable();
                    (key, mode, holders, waiters)
                })
                .collect();
        prop_assert_eq!(
            got,
            r.expected(scripts),
            "snapshot vs the (bucket, key) reference"
        );
    }
    prop_assert!(
        r.state.iter().all(|&s| s == St::Done),
        "scripts must finish"
    );
    prop_assert_eq!(r.lm.live_locks(), 0, "lock table must drain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random scripts over keys that collide in buckets: after every step
    /// the snapshot lists exactly the live entries, ordered by bucket and
    /// then by key.
    #[test]
    fn snapshot_matches_a_bucket_then_key_reference(
        scripts in prop::collection::vec(
            prop::collection::vec((0usize..9, any::<bool>()), 1..8),
            2..6,
        )
    ) {
        run_against_reference(&scripts);
    }
}
