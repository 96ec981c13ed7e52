//! Property tests for the exchange layer: for arbitrary tables, keys,
//! and partition counts, the partitioned build+probe must produce
//! exactly the single-instance `HashJoin` row multiset — NULL keys
//! never shipped (shuffle) or matched, duplicate keys fan out, empty
//! fragments are harmless — and the shipped bytes must conserve: every
//! `RemoteSend` byte shows up as a `RemoteRecv` byte on some link.

use std::sync::Arc;

use dbcmp_engine::exec::{run_to_vec, ExchangeStrategy, HashJoin, JoinKind, Rows};
use dbcmp_engine::{Database, Row, TraceCtx, Value};
use dbcmp_trace::{AddressSpace, Event};
use dbcmp_workloads::{exchange_rows, ExchangeBufs};
use proptest::prelude::*;

/// A random row: the join key (col 0) is drawn from a small domain so
/// duplicates and cross-side matches are common; NULLs appear ~1 in 8;
/// col 1 tags the row so reference and exchanged outputs can be
/// compared as exact multisets even across duplicate keys.
fn key_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        1 => Just(Value::Null),
        4 => (0i64..12).prop_map(Value::Int),
        2 => (0u32..8).prop_map(Value::Date),
        1 => (0u8..6).prop_map(|c| Value::Str(format!("KEY#{c}"))),
    ]
}

fn rows_strategy(tag: i64) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(key_strategy(), 0..40).prop_map(move |keys| {
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| vec![k, Value::Int(tag * 1_000 + i as i64)])
            .collect()
    })
}

/// Deal rows round-robin across `n` fragments — deliberately *not* by
/// join key, so the exchange has real routing work to do (and short
/// inputs leave some fragments empty).
fn deal(rows: &[Row], n: usize) -> Vec<Vec<Row>> {
    let mut frags = vec![Vec::new(); n];
    for (i, r) in rows.iter().enumerate() {
        frags[i % n].push(r.clone());
    }
    frags
}

/// Inner hash join of two materialized row sets on column 0 — how the
/// distributed capture joins each instance's post-exchange fragments.
fn join(build: Vec<Row>, probe: Vec<Row>, db: &Database, tc: &mut TraceCtx) -> Vec<Row> {
    let mut j = HashJoin::new(
        Box::new(Rows::new(build)),
        0,
        Box::new(Rows::new(probe)),
        0,
        JoinKind::Inner,
    );
    run_to_vec(&mut j, db, tc).unwrap()
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

proptest! {
    // Deterministic in CI: the vendored proptest seeds each property's
    // RNG from the test's fully-qualified name; this bounds the count.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exchange + per-instance join ≡ single-instance `HashJoin`, for
    /// every strategy and partition count, as an exact row multiset.
    #[test]
    fn exchanged_join_matches_single_instance_hash_join(
        build in rows_strategy(1),
        probe in rows_strategy(2),
        n in 1usize..5,
        prefer_shuffle in any::<bool>(),
    ) {
        // Reference: one engine, plain HashJoin over the same rows.
        let ref_db = Database::new();
        let mut ref_tc = ref_db.null_ctx();
        let reference = join(build.clone(), probe.clone(), &ref_db, &mut ref_tc);

        // Distributed: n instances in their own partition windows.
        let spaces: Vec<Arc<AddressSpace>> =
            (0..n)
                .map(|p| Arc::new(AddressSpace::partition(p).expect("window fits")))
                .collect();
        let dbs: Vec<Database> = spaces.iter().map(|s| Database::with_space(s.clone())).collect();
        let mut bufs = ExchangeBufs::reserve(&spaces);
        let mut tc_store: Vec<TraceCtx> = dbs.iter().map(|d| d.trace_ctx()).collect();
        let mut tcs: Vec<&mut TraceCtx> = tc_store.iter_mut().collect();
        let strategy = if prefer_shuffle {
            ExchangeStrategy::Shuffle
        } else {
            ExchangeStrategy::Broadcast
        };
        let (b_frags, p_frags, traffic) = exchange_rows(
            strategy,
            &mut bufs,
            &mut tcs,
            deal(&build, n),
            0,
            deal(&probe, n),
            0,
        );

        // Shuffle drops NULL-key rows at the router: they can never
        // match, so they are never shipped — no post-exchange fragment
        // may contain one.
        if strategy == ExchangeStrategy::Shuffle {
            for frag in b_frags.iter().chain(p_frags.iter()) {
                prop_assert!(frag.iter().all(|r| !r[0].is_null()));
            }
        }

        let mut got = Vec::new();
        for (q, (bf, pf)) in b_frags.into_iter().zip(p_frags).enumerate() {
            got.extend(join(bf, pf, &dbs[q], tcs[q]));
        }
        prop_assert_eq!(sorted(got), sorted(reference));

        // Shipped-bytes conservation, both in the traffic summary and
        // in the traces themselves: every RemoteSend byte is received.
        prop_assert_eq!(traffic.sent_bytes, traffic.recv_bytes);
        let traces: Vec<_> = tc_store.into_iter().map(|tc| tc.finish()).collect();
        let mut sent = 0u64;
        let mut recvd = 0u64;
        for t in &traces {
            for ev in t.iter() {
                match ev {
                    Event::RemoteSend { bytes } => sent += bytes as u64,
                    Event::RemoteRecv { bytes } => recvd += bytes as u64,
                    _ => {}
                }
            }
        }
        prop_assert_eq!(sent, recvd);
        prop_assert_eq!(sent, traffic.sent_bytes);
        if n == 1 {
            prop_assert_eq!(traffic.messages, 0, "single instance never ships");
            prop_assert_eq!(sent, 0);
        }
    }
}
