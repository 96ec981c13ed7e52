//! Shared-nothing multi-instance deployments: partition the TPC-C
//! warehouses across N independent engine instances and capture one
//! trace bundle per instance.
//!
//! This is the workload side of the paper's scale-out question: instead
//! of one fat shared-everything engine on one chip, run several smaller
//! engines ("instances"), each owning a contiguous warehouse range, with
//! cross-instance transactions exchanging messages over an interconnect
//! (`dbcmp-sim`'s `Interconnect` charges them at replay).
//!
//! Partitioning rules:
//!
//! * Instance `p` of `N` owns warehouses `p·W/N + 1 ..= (p+1)·W/N`
//!   (`W` must divide evenly — deployments are built from the island
//!   divisor chain, which guarantees it). Items are fully replicated.
//! * Each instance is built into its own
//!   [`AddressSpace::partition`](dbcmp_trace::AddressSpace::partition)
//!   window, so instances never alias simulated addresses; the scaffold
//!   `tpch::dist` shares reserves every window first and surfaces a typed
//!   [`AddressSpaceError`] at this capture boundary.
//! * Clients keep the single-instance homing rule
//!   (`w_home = client mod W + 1`) and are captured in global client
//!   order.
//! * The client rng stream consumes exactly three draws per transaction
//!   (kind, multi roll, target warehouse) and each transaction's
//!   *parameters* come from a private stream derived from
//!   `(seed, client, transaction)`. Every deployment point — any instance
//!   count, any `multi_pct` — therefore captures the same transaction
//!   kind sequence, so unit counts are directly comparable across the
//!   `fig_deploy` grid. (The price: a 1-instance deployment is *not*
//!   event-identical to [`capture_oltp`](crate::capture::capture_oltp),
//!   which draws parameters from the client stream.)
//!
//! The **multi-partition knob** (`multi_pct`): that percentage of
//! NewOrder/Payment transactions target a uniformly-drawn *other*
//! warehouse. If the target lives on the same instance the transaction
//! runs locally (forced-target `TxnCfg::remote_wh`); otherwise it runs
//! as a **two-phase** pair. Phase 1: the owner's *service thread*
//! qualifies the remote rows (index probes) and pins their locks,
//! shipping back row handles; the coordinator then reads and writes
//! those owner-window rows itself — the full row work stays on the home
//! thread, and at replay the owner-window lines are cold traffic in the
//! coordinator chip's hierarchy (an RDMA-style stand-in). Phase 2 ships
//! the commit decision; the service thread commits the owner-side
//! transaction and acknowledges. A crossing therefore costs the home
//! thread its usual row work *plus* two interconnect round trips —
//! coarser partitioning absorbs more of these as instance-local work,
//! the Islands tradeoff `fig_deploy` sweeps. Both flavors run NewOrder's
//! and Payment's own statement groups (`tpcc::txns`); this module states
//! only the protocol — the messages, the service context, and which
//! instance, transaction and trace context each statement runs under.
//!
//! Each instance's engine declares its client count via
//! `Database::set_lock_sharers`, charging quadratic lock-table
//! contention: the shared-everything endpoint pays for every client
//! contending on one lock manager, while fine partitions run nearly
//! contention-free — the reason partitioning wins on purely local work.
//!
//! Honesty caveats (DESIGN.md §6): replay does not synchronize threads
//! across bundles — the interconnect latency charged at each
//! `RemoteRecv` is the stand-in for the round trip, not a rendezvous;
//! only the two protocol round trips pay interconnect cost (per-row
//! remote accesses replay as ordinary cache traffic, a lower bound on
//! crossing cost); the two-phase NewOrder flavor skips the spec's 1%
//! rollback draw.

use dbcmp_engine::txn::Txn;
use dbcmp_engine::{Database, Result as EngineResult, TraceCtx, MSG_HEADER_BYTES};
use dbcmp_trace::{AddressSpaceError, TraceBundle};
use rand::rngs::StdRng;
use rand::Rng;

use crate::capture::CaptureOptions;
use crate::instances::{build_instances, bundle_instances};
use crate::ops::now;
use crate::rng::{client_rng, txn_rng, uniform};
use crate::tpcc::txns::{
    draw_kind, draw_other_wh, find_customer, insert_order, insert_order_line, item_price,
    open_order, pay_customer, pay_home, reserve_stock, run_txn_cfg, write_history, OrderLine,
    TxnCfg, TxnKind,
};
use crate::tpcc::{build_tpcc_range, random_customer, random_item, stock_key, TpccDb, TpccScale};

/// Per-order-line payload in a shipped stock reservation.
const NO_LINE_BYTES: u32 = 8;
/// Payment request payload (customer id, amount).
const PAY_BODY_BYTES: u32 = 24;
/// Per-row handle in a phase-1 qualification response.
const ROW_HANDLE_BYTES: u32 = 8;
/// Shipped name-index pages for a by-last-name customer qualification.
const NAME_PAGES_BYTES: u32 = 256;
/// Phase-2 commit decision.
const COMMIT_BYTES: u32 = 48;
/// Phase-2 acknowledgement.
const ACK_BYTES: u32 = 16;

/// Parameters for a shared-nothing capture.
#[derive(Debug, Clone, Copy)]
pub struct DeployOptions {
    /// Clients / units / seed, exactly as for the single-instance capture.
    pub capture: CaptureOptions,
    /// Engine instances. Must divide the warehouse count.
    pub partitions: usize,
    /// Percentage (0-100) of NewOrder/Payment transactions that target
    /// another warehouse (routed only when `partitions > 1`).
    pub multi_pct: u8,
}

/// What happened during a deployment capture.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeployStats {
    /// Plain single-warehouse transactions completed.
    pub(crate) local_txns: u64,
    /// Multi-warehouse transactions whose target lived on the home
    /// instance (ran locally, no messages).
    pub(crate) multi_local_txns: u64,
    /// Multi-warehouse transactions run as two-phase cross-instance ops.
    pub multi_remote_txns: u64,
}

/// A captured shared-nothing deployment: one bundle per instance.
#[derive(Debug)]
pub struct Deployment {
    /// Per-instance trace bundles. Client threads appear in global client
    /// order; an instance that served cross-instance work carries its
    /// service thread last.
    pub bundles: Vec<TraceBundle>,
    pub stats: DeployStats,
}

/// Owning instance of warehouse `w` (1-based) among `n` partitions.
fn owner(w: u64, warehouses: u64, n: usize) -> usize {
    let per = warehouses / n as u64;
    ((w - 1) / per) as usize
}

/// Capture a shared-nothing deployment, building the partitions'
/// databases on up to `workers` threads (each partition's population is
/// independent — own rng stream, own address window — so the result is
/// byte-identical at any worker count; transaction capture itself stays
/// sequential in global client order).
pub fn capture_oltp_deployment(
    scale: TpccScale,
    opt: DeployOptions,
    workers: usize,
) -> Result<Deployment, AddressSpaceError> {
    let n = opt.partitions.max(1);
    assert!(
        scale.warehouses >= n as u64 && scale.warehouses.is_multiple_of(n as u64),
        "{} warehouses must divide evenly across {} instances",
        scale.warehouses,
        n
    );
    let per = scale.warehouses / n as u64;
    let seed = opt.capture.seed;
    // Clients keep the single-instance homing rule.
    let home_of = |client: usize| {
        let w = (client as u64 % scale.warehouses) + 1;
        (w, owner(w, scale.warehouses, n))
    };
    let (_, mut parts) = build_instances(n, workers, |p, space| {
        let lo = p as u64 * per + 1;
        build_tpcc_range(scale, seed, lo, lo + per - 1, space)
    })?;

    // Contention model: each instance's lock manager learns how many
    // clients share it, so engines shared by more clients pay linearly
    // more per lock operation (applied after the build — population is
    // single-threaded either way, so only transaction capture pays).
    for (p, (db, _)) in parts.iter_mut().enumerate() {
        let homed = (0..opt.capture.clients).filter(|&c| home_of(c).1 == p);
        db.set_lock_sharers(homed.count() as u32);
    }

    // Each instance's service context, opened by the first crossing it
    // serves: an instance no crossing reaches bundles no service trace.
    let mut service: Vec<Option<TraceCtx>> = (0..n).map(|_| None).collect();
    let mut clients = Vec::with_capacity(opt.capture.clients);
    let mut stats = DeployStats::default();

    for client in 0..opt.capture.clients {
        let mut rng = client_rng(seed, client);
        let (w_home, p_home) = home_of(client);
        let mut tc = parts[p_home].0.trace_ctx();
        for unit in 1..=opt.capture.units_per_client {
            // Fixed consumption from the client stream — kind, multi
            // roll, target — so every grid point sees the same kind
            // sequence; the flagged subsets nest as multi_pct grows.
            let kind = draw_kind(&mut rng);
            let roll = rng.gen_range(0..100u32);
            let other = draw_other_wh(&mut rng, (1, scale.warehouses), w_home);
            let target = (n > 1
                && matches!(kind, TxnKind::NewOrder | TxnKind::Payment)
                && roll < opt.multi_pct as u32)
                .then_some(other);
            // Parameters come from the transaction's own stream, so one
            // flavor's consumption can't shift later transactions.
            let mut trng = txn_rng(seed, client, unit);
            // Sequential capture: one transaction (or one home/service
            // pair on different instances) is live at a time, so nothing
            // can conflict or park — an engine error is a bug, not a retry.
            let res = match target.map(|t| (t, owner(t, scale.warehouses, n))) {
                Some((t, p_t)) if p_t != p_home => {
                    stats.multi_remote_txns += 1;
                    let [home, tgt] = parts
                        .get_disjoint_mut([p_home, p_t])
                        .expect("a crossing spans two instances");
                    let stc = service[p_t].get_or_insert_with(|| tgt.0.trace_ctx());
                    match kind {
                        TxnKind::NewOrder => {
                            remote_new_order(home, &mut tc, tgt, stc, w_home, t, &mut trng)
                        }
                        TxnKind::Payment => {
                            remote_payment(home, &mut tc, tgt, stc, w_home, t, &mut trng)
                        }
                        _ => unreachable!("only NewOrder/Payment go multi-warehouse"),
                    }
                }
                // No target, or one on the home instance, which the local
                // run is forced to.
                _ => {
                    match target {
                        Some(_) => stats.multi_local_txns += 1,
                        None => stats.local_txns += 1,
                    }
                    let (db, h) = &mut parts[p_home];
                    let cfg = TxnCfg {
                        remote_wh: target,
                        ..TxnCfg::home(w_home)
                    };
                    now(run_txn_cfg(db, h, kind, cfg, &mut trng, &mut tc)).map(drop)
                }
            };
            res.unwrap_or_else(|e| panic!("sequential capture: client {client} {kind:?}: {e}"));
        }
        clients.push((p_home, tc.finish()));
    }

    let service = service.into_iter().map(|tc| tc.map(TraceCtx::finish));
    let bundles = bundle_instances(parts.iter().map(|(db, _)| db), clients, service);
    Ok(Deployment { bundles, stats })
}

/// Two-phase cross-instance NewOrder: every line is supplied by
/// `target_wh`. The owner's service thread qualifies the stock rows and
/// ships handles; the home thread performs the reservation on them and
/// runs the order/order-line inserts, then ships the commit decision.
/// (No 1% rollback draw in this flavor.)
fn remote_new_order(
    (hdb, hh): &mut (Database, TpccDb),
    htc: &mut TraceCtx,
    (tdb, th): &mut (Database, TpccDb),
    stc: &mut TraceCtx,
    w_home: u64,
    target_wh: u64,
    rng: &mut StdRng,
) -> EngineResult<()> {
    hdb.statement_overhead(htc);
    let mut txn = hdb.begin(htc);
    let d = uniform(rng, 1, hh.scale.districts_per_wh);
    let c = random_customer(rng, hh);
    let ol_cnt = uniform(rng, 5, 15);
    let order = now(open_order(hdb, hh, &mut txn, (w_home, d), c, htc))?;

    // Items are replicated: prices come from the home copy; only the
    // stock rows live solely on the owner.
    let mut lines = Vec::with_capacity(ol_cnt as usize);
    for number in 1..=ol_cnt {
        let i_id = random_item(rng, hh);
        let qty = uniform(rng, 1, 10) as i64;
        let price = now(item_price(hdb, hh, &mut txn, i_id, htc))?.expect("item");
        lines.push(OrderLine {
            number,
            i_id,
            supply_w: target_wh,
            qty,
            amount: price * qty,
        });
    }

    // Phase 1: the owner's service thread probes the stock index under
    // the owner-side transaction and ships back row handles.
    let req = MSG_HEADER_BYTES + NO_LINE_BYTES * ol_cnt as u32;
    let mut rtxn = request(htc, tdb, stc, req);
    let handles: Vec<_> = lines
        .iter()
        .map(|l| tdb.index_get(th.idx_stock, stock_key(target_wh, l.i_id), stc))
        .map(|rid| rid.expect("stock"))
        .collect();
    reply(
        stc,
        htc,
        MSG_HEADER_BYTES + ROW_HANDLE_BYTES * ol_cnt as u32,
    );

    // The coordinator reserves the stock itself on the shipped handles:
    // the reads and writes of owner-window rows are recorded on the
    // home thread (cold remote lines in its hierarchy at replay), so a
    // crossing keeps the full row work *and* pays the round trips.
    for (s_rid, line) in handles.into_iter().zip(&lines) {
        let qty = || line.qty;
        now(reserve_stock(tdb, th, &mut rtxn, s_rid, qty, true, htc))?;
    }
    for line in &lines {
        now(insert_order_line(hdb, hh, &mut txn, order, line, htc))?;
    }
    now(insert_order(hdb, hh, &mut txn, order, c, ol_cnt, htc))?;
    commit_both(hdb, txn, htc, tdb, rtxn, stc)
}

/// Two-phase cross-instance Payment: home warehouse/district YTD updates
/// stay local; the customer is qualified on the owner (by id) or on the
/// coordinator over shipped name-index pages (by last name, mirroring
/// the local 60/40 split), and the home thread applies the balance
/// update and records the history row at the paying warehouse.
fn remote_payment(
    (hdb, hh): &mut (Database, TpccDb),
    htc: &mut TraceCtx,
    (tdb, th): &mut (Database, TpccDb),
    stc: &mut TraceCtx,
    w_home: u64,
    target_wh: u64,
    rng: &mut StdRng,
) -> EngineResult<()> {
    hdb.statement_overhead(htc);
    let mut txn = hdb.begin(htc);
    let d = uniform(rng, 1, hh.scale.districts_per_wh);
    let amount = uniform(rng, 1_00, 5_000_00) as i64;
    now(pay_home(hdb, hh, &mut txn, (w_home, d), amount, htc))?;
    let c_d = uniform(rng, 1, hh.scale.districts_per_wh);

    // Phase 1: qualify the customer row, mirroring the local 60/40
    // id/last-name split (spec 2.5.2.2) so a crossing never replaces a
    // local transaction with a cheaper one. By id the owner probes its
    // index and ships the row handle; by last name the owner ships the
    // name-index pages and the coordinator runs the scan itself.
    let by_id = rng.gen_range(0..100u32) < 60;
    let mut rtxn = request(htc, tdb, stc, MSG_HEADER_BYTES + PAY_BODY_BYTES);
    let c_rid = if by_id {
        let rid = now(find_customer(tdb, th, (target_wh, c_d), true, rng, stc));
        reply(stc, htc, MSG_HEADER_BYTES + ROW_HANDLE_BYTES);
        rid
    } else {
        reply(stc, htc, MSG_HEADER_BYTES + NAME_PAGES_BYTES);
        now(find_customer(tdb, th, (target_wh, c_d), false, rng, htc))
    };

    // The coordinator applies the balance update to the shipped handle
    // and records the history row at the paying warehouse.
    let c_id = now(pay_customer(tdb, th, &mut rtxn, c_rid, amount, htc))?;
    now(write_history(hdb, hh, &mut txn, c_id, w_home, amount, htc))?;
    commit_both(hdb, txn, htc, tdb, rtxn, stc)
}

/// Open phase 1: the coordinator fences and ships the `bytes`-byte
/// request; the owner's service thread receives it and opens the
/// owner-side transaction.
fn request(htc: &mut TraceCtx, tdb: &mut Database, stc: &mut TraceCtx, bytes: u32) -> Txn {
    htc.fence();
    htc.remote_send(bytes);
    stc.remote_recv(bytes);
    tdb.statement_overhead(stc);
    tdb.begin(stc)
}

/// The owner's service thread ships a `bytes`-byte response home.
fn reply(stc: &mut TraceCtx, htc: &mut TraceCtx, bytes: u32) {
    stc.remote_send(bytes);
    htc.remote_recv(bytes);
}

/// Phase 2: the home side commits and ships the decision, then the
/// owner's service thread commits its side and acknowledges.
fn commit_both(
    hdb: &mut Database,
    txn: Txn,
    htc: &mut TraceCtx,
    tdb: &mut Database,
    rtxn: Txn,
    stc: &mut TraceCtx,
) -> EngineResult<()> {
    hdb.commit(txn, htc)?;
    htc.remote_send(COMMIT_BYTES);
    htc.remote_recv(ACK_BYTES);
    htc.unit_end();

    stc.remote_recv(COMMIT_BYTES);
    tdb.commit(rtxn, stc)?;
    stc.remote_send(ACK_BYTES);
    stc.fence();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcmp_trace::{EventCounts, ThreadTrace};

    /// Every instance's [`TraceBundle::counts`], summed.
    fn counts(dep: &Deployment) -> EventCounts {
        let mut c = EventCounts::default();
        for b in &dep.bundles {
            c += b.counts();
        }
        c
    }

    fn quick_opt(partitions: usize, multi_pct: u8) -> DeployOptions {
        DeployOptions {
            capture: CaptureOptions::new(8, 4, 0xD3B),
            partitions,
            multi_pct,
        }
    }

    /// W=4 scale that divides across 1/2/4 instances.
    fn scale4() -> TpccScale {
        TpccScale {
            warehouses: 4,
            ..TpccScale::tiny()
        }
    }

    #[test]
    fn owner_maps_contiguous_ranges() {
        assert_eq!(owner(1, 4, 2), 0);
        assert_eq!(owner(2, 4, 2), 0);
        assert_eq!(owner(3, 4, 2), 1);
        assert_eq!(owner(4, 4, 2), 1);
        assert_eq!(owner(4, 4, 4), 3);
        assert_eq!(owner(7, 8, 1), 0);
    }

    #[test]
    fn cross_instance_transactions_emit_paired_messages() {
        let dep = capture_oltp_deployment(scale4(), quick_opt(4, 60), 1).unwrap();
        assert_eq!(dep.bundles.len(), 4);
        assert!(
            dep.stats.multi_remote_txns > 0,
            "60% multi across 4 single-warehouse instances must cross"
        );
        let c = counts(&dep);
        assert!(c.remote_sends > 0);
        // Two-phase = 2 sends home + 2 sends service per remote txn.
        assert_eq!(c.remote_sends, 4 * dep.stats.multi_remote_txns);
        // Sends and recvs pair up across the deployment.
        assert_eq!(c.remote_recvs, c.remote_sends);
        // Instances that served remote work carry a service thread.
        let service_threads: usize = dep
            .bundles
            .iter()
            .map(|b| {
                b.threads
                    .iter()
                    .map(ThreadTrace::counts)
                    .filter(|c| c.remote_recvs > c.remote_sends || c.units == 0)
                    .count()
            })
            .sum();
        assert!(service_threads > 0);
    }

    #[test]
    fn contention_model_scales_with_instance_sharing() {
        // Same transactions (multi_pct = 0, so nothing crosses), two
        // degrees of lock-manager sharing: shared-everything (all eight
        // clients on one lock manager) against one instance per
        // warehouse (two sharers each). Instructions must grow with
        // sharing — the mechanism that makes partitioning win on purely
        // local work.
        let instrs = |partitions: usize| -> u64 {
            capture_oltp_deployment(scale4(), quick_opt(partitions, 0), 1)
                .unwrap()
                .bundles
                .iter()
                .map(|b| b.total_instrs())
                .sum()
        };
        let (shared, fine) = (instrs(1), instrs(4));
        assert!(
            shared > fine,
            "8 sharers ({shared}) must out-charge 2 sharers per instance ({fine})"
        );
    }

    /// What lets the one (queued) lock discipline serve the sequential
    /// drivers: with one transaction live per instance at a time no
    /// request ever parks, so no trace carries a `Block` or `Wake`.
    #[test]
    fn sequential_deployment_never_parks() {
        let dep = capture_oltp_deployment(scale4(), quick_opt(2, 60), 1).unwrap();
        assert!(dep.stats.multi_remote_txns > 0, "fixture must cross");
        let c = counts(&dep);
        assert_eq!((c.blocks, c.wakes), (0, 0));
    }

    #[test]
    fn zero_multi_pct_never_messages() {
        let dep = capture_oltp_deployment(scale4(), quick_opt(4, 0), 1).unwrap();
        assert_eq!(counts(&dep).remote_sends, 0);
        assert_eq!(dep.stats.multi_remote_txns, 0);
        assert_eq!(dep.stats.multi_local_txns, 0);
        // No service threads appended.
        for b in &dep.bundles {
            for t in &b.threads {
                assert!(t.counts().units > 0, "only client threads expected");
            }
        }
    }

    #[test]
    fn per_txn_draws_hold_the_mix_constant_across_the_grid() {
        let cap = |partitions: usize, multi_pct: u8| -> DeployStats {
            capture_oltp_deployment(scale4(), quick_opt(partitions, multi_pct), 1)
                .unwrap()
                .stats
        };
        // The multi-flagged transaction set depends only on multi_pct
        // (same rolls everywhere), so its size is invariant across
        // instance counts — only the local/remote split moves with
        // ownership.
        let flagged = |s: DeployStats| s.multi_local_txns + s.multi_remote_txns;
        let (s2, s4) = (cap(2, 60), cap(4, 60));
        assert!(s4.multi_remote_txns > 0);
        assert_eq!(flagged(s2), flagged(s4));
        assert_eq!(
            s2.local_txns + flagged(s2),
            s4.local_txns + flagged(s4),
            "committed transaction count must match across instance counts"
        );
        // Raising multi_pct only grows the flagged set (rolls nest).
        assert!(flagged(cap(4, 20)) < flagged(s4));
        // n = 1 consumes the same client-stream draws but routes nothing.
        let s1 = cap(1, 60);
        assert_eq!(flagged(s1), 0);
        assert_eq!(s1.local_txns, s2.local_txns + flagged(s2));
    }
}
