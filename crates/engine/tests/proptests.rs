//! Property tests for the engine: slotted pages against a map model, the
//! lock manager's 2PL invariants, transactional abort as the exact
//! inverse of any statement sequence, and expressions giving one answer
//! on a tuple in its page and on the row it materialises to.

#![allow(
    clippy::disallowed_types,
    reason = "model maps here are read by key lookup only; their order never reaches a trace or result"
)]

use dbcmp_engine::exec::{CmpOp, Pred, Scalar};
use dbcmp_engine::heap::Rid;
use dbcmp_engine::lockmgr::{LockMgr, LockMode};
use dbcmp_engine::page::{SlottedPage, PAGE_SIZE};
use dbcmp_engine::{ColType, ConcurrencyControl, Database, EngineRegions, Schema, TraceCtx, Value};
use dbcmp_trace::{AddressSpace, CodeRegions};
use proptest::prelude::*;
use std::collections::HashMap;

fn tc() -> TraceCtx {
    let mut r = CodeRegions::new();
    let er = EngineRegions::register(&mut r);
    TraceCtx::null(er)
}

/// A value of column type `ty` from a draw: small integers so that
/// equalities and range hits happen, strings over an alphabet with two-
/// and three-byte characters so that truncation to capacity happens.
fn value_of(ty: ColType, n: i64, letters: &[u8]) -> Value {
    match ty {
        ColType::Int => Value::Int(n % 7),
        ColType::Decimal => Value::Decimal(n % 7 * 50),
        ColType::Date => Value::Date(n.rem_euclid(7) as u32),
        ColType::Str(_) => Value::Str(
            letters
                .iter()
                .map(|&l| ['a', 'b', ' ', 'é', '€'][l as usize % 5])
                .collect(),
        ),
    }
}

/// Every `Pred` variant over column `col`, against constant `k` (which
/// may or may not have the column's type) and needle `needle`.
fn preds_over(col: usize, k: &Value, k2: &Value, needle: &str) -> Vec<Pred> {
    use CmpOp::*;
    let mut ps: Vec<Pred> = [Eq, Ne, Lt, Le, Gt, Ge]
        .into_iter()
        .map(|op| Pred::Cmp {
            col,
            op,
            val: k.clone(),
        })
        .collect();
    ps.push(Pred::Between {
        col,
        lo: k.clone().min(k2.clone()),
        hi: k.clone().max(k2.clone()),
    });
    ps.push(Pred::In {
        col,
        set: vec![k.clone(), k2.clone()],
    });
    for negate in [false, true] {
        ps.push(Pred::StrContains {
            col,
            needle: needle.into(),
            negate,
        });
        ps.push(Pred::StrPrefix {
            col,
            prefix: needle.into(),
            negate,
        });
    }
    ps.push(Pred::Not(Box::new(ps[0].clone())));
    ps.push(Pred::And(ps[..3].to_vec()));
    ps.push(Pred::Or(ps[3..6].to_vec()));
    ps.push(Pred::And(vec![]));
    ps.push(Pred::Or(vec![]));
    ps.push(Pred::True);
    ps
}

proptest! {
    // Deterministic in CI: the vendored proptest seeds each property's RNG
    // from the test's fully-qualified name; this bounds the case count.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A slotted page behaves like a map from slot id to byte image under
    /// arbitrary insert/update/delete/compact interleavings.
    #[test]
    fn page_matches_map_model(
        ops in prop::collection::vec((0u8..4, 1usize..300, any::<u8>()), 1..120)
    ) {
        let mut tcx = tc();
        let mut page = SlottedPage::new(0x4000);
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        let mut next_slot = 0u16;
        for (op, len, fill) in ops {
            match op {
                0 => {
                    let bytes = vec![fill; len];
                    if page.fits(len) {
                        let slot = page.insert(&bytes, &mut tcx).unwrap();
                        prop_assert_eq!(slot, next_slot);
                        model.insert(slot, bytes);
                        next_slot += 1;
                    }
                }
                1 if next_slot > 0 => {
                    let slot = (fill as u16) % next_slot;
                    if let Some(old) = model.get(&slot) {
                        // In-place update must not grow.
                        let n = len.min(old.len());
                        let bytes = vec![fill ^ 0xFF; n.max(1).min(old.len().max(1))];
                        if !old.is_empty() && bytes.len() <= old.len() {
                            page.update(slot, &bytes, &mut tcx).unwrap();
                            model.insert(slot, bytes);
                        }
                    }
                }
                2 if next_slot > 0 => {
                    let slot = (fill as u16) % next_slot;
                    let in_model = model.remove(&slot).is_some();
                    prop_assert_eq!(page.delete(slot, &mut tcx).is_ok(), in_model);
                }
                _ => page.compact(),
            }
            // Full agreement after every step.
            for s in 0..next_slot {
                let got = page.get(s, &mut tcx).map(<[u8]>::to_vec);
                prop_assert_eq!(&got, &model.get(&s).cloned(), "slot {} diverged", s);
            }
            prop_assert_eq!(page.live(), model.len());
            prop_assert!(page.free_space() <= PAGE_SIZE);
        }
    }

    /// 2PL invariants: at most one exclusive holder per key; shared and
    /// exclusive never coexist; releases leave no residue.
    #[test]
    fn lockmgr_invariants(
        ops in prop::collection::vec((1u64..6, 0u64..12, any::<bool>()), 1..200)
    ) {
        let space = AddressSpace::new();
        let mut lm = LockMgr::new(&space, 64);
        let mut tcx = tc();
        // model: key -> (mode, holders)
        let mut model: HashMap<u64, (LockMode, Vec<u64>)> = HashMap::new();
        for (txn, key, exclusive) in ops {
            let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
            let res = lm.acquire(txn, key, mode, &mut tcx);
            match model.get_mut(&key) {
                None => {
                    prop_assert!(res.is_ok());
                    model.insert(key, (mode, vec![txn]));
                }
                Some((m, holders)) => {
                    let holds = holders.contains(&txn);
                    let expect_ok = match (mode, *m) {
                        (_, LockMode::Exclusive) => holds,
                        (LockMode::Shared, LockMode::Shared) => true,
                        (LockMode::Exclusive, LockMode::Shared) => holds && holders.len() == 1,
                    };
                    prop_assert_eq!(res.is_ok(), expect_ok, "key {} txn {}", key, txn);
                    if expect_ok {
                        if mode == LockMode::Exclusive {
                            *m = LockMode::Exclusive;
                        }
                        if !holds && res.unwrap() {
                            holders.push(txn);
                        }
                    }
                }
            }
        }
        // Release everything; the table must drain completely.
        for (key, (_, holders)) in model {
            for txn in holders {
                lm.release(txn, key, &mut tcx);
            }
        }
        prop_assert_eq!(lm.live_locks(), 0, "locks must not leak");
    }

    /// Abort undoes any prefix of inserts/updates/deletes exactly: the
    /// visible table state equals the pre-transaction snapshot.
    #[test]
    fn abort_is_exact_inverse(
        ops in prop::collection::vec((0u8..3, 0u64..20, -500i64..500), 1..60)
    ) {
        let mut db = Database::new();
        let t = db.create_table(
            "t",
            Schema::new(vec![("k", ColType::Int), ("v", ColType::Int)]),
        );
        let idx = db
            .create_index(t, Box::new(|row, _| row.col(0).as_i64().unwrap() as u64))
            .unwrap();
        let mut tcx = db.null_ctx();

        // Committed baseline: keys 0..10.
        let mut setup = db.begin(&mut tcx);
        for k in 0..10i64 {
            db.insert(&mut setup, t, &[Value::Int(k), Value::Int(k * 10)], &mut tcx).unwrap();
        }
        db.commit(setup, &mut tcx).unwrap();

        let snapshot = |db: &mut Database, tcx: &mut TraceCtx| -> Vec<(u64, Vec<Value>)> {
            let pairs = db.index_range(idx, 0, u64::MAX, tcx);
            pairs
                .into_iter()
                .map(|(k, rid)| (k, db.table(t).get(rid, tcx).unwrap()))
                .collect()
        };
        let before = snapshot(&mut db, &mut tcx);

        // A txn doing arbitrary things, then aborting.
        let mut txn = db.begin(&mut tcx);
        for (op, key, v) in ops {
            match op {
                0 => {
                    // Insert a fresh key (conflict-free by construction).
                    let k = 100 + key as i64;
                    if db.index_get(idx, k as u64, &mut tcx).is_none() {
                        db.insert(&mut txn, t, &[Value::Int(k), Value::Int(v)], &mut tcx)
                            .unwrap();
                    }
                }
                1 => {
                    if let Some(rid) = db.index_get(idx, key % 10, &mut tcx) {
                        db.update(
                            &mut txn,
                            t,
                            rid,
                            &[Value::Int((key % 10) as i64), Value::Int(v)],
                            &mut tcx,
                        )
                        .unwrap();
                    }
                }
                _ => {
                    if let Some(rid) = db.index_get(idx, key % 10, &mut tcx) {
                        // May already be deleted in this txn.
                        let _ = db.delete(&mut txn, t, rid, &mut tcx);
                    }
                }
            }
        }
        db.abort(txn, &mut tcx);

        let after = snapshot(&mut db, &mut tcx);
        prop_assert_eq!(before, after, "abort must restore the exact snapshot");
    }
    /// Every predicate and scalar gives the same answer on a tuple read
    /// in place (`HeapTable::read_at`'s view) and on the row that view
    /// materialises to, for any schema over the four column types.
    #[test]
    fn expressions_agree_on_the_view_and_its_row(
        cols in prop::collection::vec((0u8..4, 1u16..9), 1..6),
        draws in prop::collection::vec(
            (any::<i64>(), prop::collection::vec(0u8..5, 0..12)),
            18,
        ),
    ) {
        const NAMES: [&str; 6] = ["c0", "c1", "c2", "c3", "c4", "c5"];
        let types: Vec<ColType> = cols
            .iter()
            .map(|&(t, cap)| [ColType::Int, ColType::Decimal, ColType::Date, ColType::Str(cap)][t as usize])
            .collect();
        let value = |ty, d: usize| value_of(ty, draws[d].0, &draws[d].1);
        let row: Vec<Value> = types.iter().enumerate().map(|(i, &ty)| value(ty, i)).collect();

        let mut db = Database::new();
        let t = db.create_table(
            "t",
            Schema::new(NAMES.into_iter().zip(types.iter().copied()).collect()),
        );
        let mut tcx = db.null_ctx();
        let mut load = db.loader(&mut tcx).unwrap();
        load.insert(t, &row).unwrap();
        load.finish().unwrap();
        let view = db.table(t).read_at(Rid { page: 0, slot: 0 }, &mut tcx).unwrap();
        // What was stored, which for an over-long string is not `row`.
        let stored = view.to_row();

        for (i, &ty) in types.iter().enumerate() {
            // A constant of the column's own type, then of the next
            // column's: comparisons across types must agree too.
            let other = types[(i + 1) % types.len()];
            let needle: String = stored[i].as_str().unwrap_or("ab").chars().take(2).collect();
            for (k, k2) in [(value(ty, 6 + i), value(ty, 12 + i)), (value(other, 6 + i), Value::Null)] {
                for p in preds_over(i, &k, &k2, &needle) {
                    prop_assert_eq!(
                        p.eval(&view, &mut tcx),
                        p.eval(&stored, &mut tcx),
                        "{:?} on {:?}", p, stored
                    );
                }
            }
            let c = || Box::new(Scalar::Col(i));
            let o = || Box::new(Scalar::Col((i + 1) % types.len()));
            for e in [
                Scalar::Col(i),
                Scalar::ConstInt(3),
                Scalar::ConstDec(250),
                Scalar::Null,
                Scalar::Add(c(), o()),
                Scalar::Sub(c(), Box::new(Scalar::ConstDec(100))),
                Scalar::MulDec(c(), o()),
            ] {
                prop_assert_eq!(e.eval(&view), e.eval(&stored), "{:?}", e);
                prop_assert_eq!(e.eval_i64(&view), e.eval_i64(&stored), "{:?}", e);
            }
        }
    }
}
