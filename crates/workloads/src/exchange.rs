//! The exchange: row shipping between engine instances for distributed
//! joins.
//!
//! A distributed join starts from per-instance *fragments* (each
//! instance scans and filters its own range partition) and must bring
//! matching build and probe rows together. [`exchange_rows`] does that
//! under one of the [`ExchangeStrategy`] variants:
//!
//! * `Broadcast` — the (small) build side is copied to every other
//!   instance; probe rows stay put. Pays `(n-1) x build bytes`.
//! * `Shuffle` — both sides are hash-partitioned by join key with
//!   [`partition_of`] (the same hash the join's buckets use); every row
//!   whose key hashes to another instance is shipped. Pays roughly
//!   `(n-1)/n` of both sides' bytes.
//!
//! Costs are charged to the per-instance [`TraceCtx`]s exactly where
//! they arise: routing pays `XCHG_PART_ROW` per examined row through
//! the `exec-exchange` region, each *shipped* row pays `TUPLE_ENCODE` +
//! a store into the sender's send buffer and `TUPLE_DECODE` + a load
//! from the receiver's recv buffer, and each non-empty (sender,
//! receiver, side) message becomes one `fence` + `RemoteSend` on the
//! sender and one `RemoteRecv` on the receiver, sized
//! [`MSG_HEADER_BYTES`] plus the *value* bytes of its rows (see
//! [`row_bytes`]) and priced at replay by `sim::Interconnect`.
//!
//! NULL join keys are charged for routing but never shipped and never
//! kept: SQL equi-joins cannot match them, so shipping them would be
//! pure waste — and the property suite pins that they do not change
//! results.
//!
//! Honesty caveats (DESIGN.md §9): shuffle compute does not overlap
//! with shipping (phases are sequential per unit), and there is no flow
//! control — buffers wrap rather than backpressure.

use std::sync::Arc;

use dbcmp_engine::costs::instr;
use dbcmp_engine::exec::shuffle_join::partition_of;
use dbcmp_engine::exec::ExchangeStrategy;
use dbcmp_engine::{Row, TraceCtx, Value, MSG_HEADER_BYTES};
use dbcmp_trace::AddressSpace;

/// Build sides at or below this many global post-filter bytes are
/// broadcast instead of shuffled: copying a small table to every
/// instance is cheaper than repartitioning the (large) probe side.
/// 256 KB keeps the TPC-H customer and supplier tables broadcast at
/// paper scale while filtered orders (the Q3/Q5 build) shuffle.
pub(crate) const BROADCAST_MAX_BYTES: u64 = 256 << 10;

/// Simulated payload bytes of one row: 8 B integers/decimals, 4 B
/// dates, length-prefixed strings (len + 2), 1 B NULL tag. Value-based
/// rather than schema-fixed-width — shipped tuples are packed, which
/// slightly *understates* a fixed-width wire format (DESIGN.md §9).
pub(crate) fn row_bytes(row: &[Value]) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Int(_) | Value::Decimal(_) => 8,
            Value::Date(_) => 4,
            Value::Str(s) => s.len() as u64 + 2,
            Value::Null => 1,
        })
        .sum()
}

/// Total payload bytes of a row set.
pub(crate) fn rows_bytes(rows: &[Row]) -> u64 {
    rows.iter().map(|r| row_bytes(r)).sum()
}

/// Pick the exchange strategy for a join whose *global* post-filter
/// build side totals `build_bytes`: small build sides broadcast;
/// everything else shuffles. A single instance never gets here: its
/// capture is the single-instance plan, with no exchange.
pub(crate) fn choose_strategy(build_bytes: u64) -> ExchangeStrategy {
    if build_bytes <= BROADCAST_MAX_BYTES {
        ExchangeStrategy::Broadcast
    } else {
        ExchangeStrategy::Shuffle
    }
}

/// Per-instance send/recv staging buffers in the instances' own address
/// windows. Offsets advance per shipped row and wrap (no flow control —
/// see module docs).
pub struct ExchangeBufs {
    send: Vec<Cursor>,
    recv: Vec<Cursor>,
}

struct Cursor {
    base: u64,
    off: u64,
}

impl Cursor {
    /// Address for the next `w`-byte entry, wrapping before the tail.
    fn slot(&mut self, w: u64) -> u64 {
        if self.off + w > ExchangeBufs::BUF_BYTES - 512 {
            self.off = 0;
        }
        let addr = self.base + self.off;
        self.off += w;
        addr
    }
}

impl ExchangeBufs {
    /// Staging buffer size per direction per instance.
    pub(crate) const BUF_BYTES: u64 = 1 << 20;

    /// Allocate one send and one recv buffer in each instance's window.
    pub fn reserve(spaces: &[Arc<AddressSpace>]) -> Self {
        let cursor = || {
            spaces
                .iter()
                .map(|s| Cursor {
                    base: s.alloc(Self::BUF_BYTES),
                    off: 0,
                })
                .collect()
        };
        ExchangeBufs {
            send: cursor(),
            recv: cursor(),
        }
    }
}

/// Interconnect traffic produced by exchanges, for figure reporting and
/// the shipped-bytes conservation property.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeTraffic {
    /// Point-to-point messages sent (== received: the exchange is
    /// lossless).
    pub messages: u64,
    /// Bytes recorded as `RemoteSend` (header + payload).
    pub sent_bytes: u64,
    /// Bytes recorded as `RemoteRecv`.
    pub recv_bytes: u64,
    /// Rows that crossed an instance boundary.
    pub shipped_rows: u64,
}

impl ExchangeTraffic {
    /// Accumulate another exchange's traffic.
    pub(crate) fn merge(&mut self, o: &ExchangeTraffic) {
        self.messages += o.messages;
        self.sent_bytes += o.sent_bytes;
        self.recv_bytes += o.recv_bytes;
        self.shipped_rows += o.shipped_rows;
    }
}

/// Route one join's build and probe fragments under `strategy`,
/// returning each instance's post-exchange row sets (local rows first,
/// then inbound rows in sender order) and the traffic generated.
/// `tcs[p]` is instance p's capture context. This dispatch is
/// exhaustive over [`ExchangeStrategy`] by design: a missing variant
/// fails the build (E0004) and a `_ =>` arm fails clippy.
#[allow(
    clippy::too_many_arguments,
    reason = "one join's two sides (rows + key column each), the buffers and the per-instance contexts"
)]
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
pub fn exchange_rows(
    strategy: ExchangeStrategy,
    bufs: &mut ExchangeBufs,
    tcs: &mut [&mut TraceCtx],
    build_frags: Vec<Vec<Row>>,
    build_key: usize,
    probe_frags: Vec<Vec<Row>>,
    probe_key: usize,
) -> (Vec<Vec<Row>>, Vec<Vec<Row>>, ExchangeTraffic) {
    let n = tcs.len();
    assert_eq!(build_frags.len(), n);
    assert_eq!(probe_frags.len(), n);
    let mut traffic = ExchangeTraffic::default();
    match strategy {
        ExchangeStrategy::Broadcast => {
            // Every instance q receives a full copy of every other
            // instance's build fragment; probe rows stay put.
            for (p, frag) in build_frags.iter().enumerate() {
                for row in frag {
                    // One encode + staged copy per remote replica.
                    for _ in 1..n {
                        stage(bufs, tcs, p, row);
                    }
                }
            }
            // Every instance but the last receives copies; the last
            // takes the original fragments.
            let mut build_out = Vec::with_capacity(n);
            for q in 0..n.saturating_sub(1) {
                let mut rows = build_frags[q].clone();
                for (p, sent) in build_frags.iter().enumerate() {
                    if p != q {
                        deliver(&mut traffic, bufs, tcs, p, q, sent.clone(), &mut rows);
                    }
                }
                build_out.push(rows);
            }
            let mut frags = build_frags;
            if let Some(mut rows) = frags.pop() {
                let q = frags.len();
                for (p, sent) in frags.into_iter().enumerate() {
                    deliver(&mut traffic, bufs, tcs, p, q, sent, &mut rows);
                }
                build_out.push(rows);
            }
            (build_out, probe_frags, traffic)
        }
        ExchangeStrategy::Shuffle => {
            // Hash-partition both sides by join key; rows keep their
            // instance when the key hashes home, ship otherwise. NULL
            // keys are charged for routing but never shipped or kept.
            let mut route = |frags: Vec<Vec<Row>>,
                             key: usize,
                             bufs: &mut ExchangeBufs,
                             tcs: &mut [&mut TraceCtx]|
             -> Vec<Vec<Row>> {
                let mut kept: Vec<Vec<Row>> = (0..n).map(|_| Vec::new()).collect();
                let mut outbox: Vec<Vec<Vec<Row>>> = (0..n).map(|_| kept.clone()).collect();
                for (p, frag) in frags.into_iter().enumerate() {
                    for row in frag {
                        tcs[p].charge(tcs[p].r.exec_exchange, instr::XCHG_PART_ROW);
                        let k = &row[key];
                        if k.is_null() {
                            continue;
                        }
                        let dest = partition_of(k, n);
                        if dest == p {
                            kept[p].push(row);
                        } else {
                            stage(bufs, tcs, p, &row);
                            outbox[p][dest].push(row);
                        }
                    }
                }
                for q in 0..n {
                    for (p, sent) in outbox.iter_mut().enumerate() {
                        if p == q {
                            continue;
                        }
                        let inbound = std::mem::take(&mut sent[q]);
                        deliver(&mut traffic, bufs, tcs, p, q, inbound, &mut kept[q]);
                    }
                }
                kept
            };
            let build_out = route(build_frags, build_key, bufs, tcs);
            let probe_out = route(probe_frags, probe_key, bufs, tcs);
            (build_out, probe_out, traffic)
        }
    }
}

/// Ship `rows` from instance `from` to instance `to` as one message
/// (header + payload), charging encode/store on the sender and
/// recv/decode/load on the receiver, and deliver them onto `out`.
/// Same-instance and empty sets are free: no message, no charges.
pub(crate) fn ship_rows(
    traffic: &mut ExchangeTraffic,
    bufs: &mut ExchangeBufs,
    tcs: &mut [&mut TraceCtx],
    from: usize,
    to: usize,
    rows: Vec<Row>,
    out: &mut Vec<Row>,
) {
    if from == to {
        out.extend(rows);
        return;
    }
    for row in &rows {
        stage(bufs, tcs, from, row);
    }
    deliver(traffic, bufs, tcs, from, to, rows, out);
}

/// Encode `row` on instance `from` and store it into `from`'s send
/// buffer, ready to ship.
fn stage(bufs: &mut ExchangeBufs, tcs: &mut [&mut TraceCtx], from: usize, row: &[Value]) {
    let w = row_bytes(row);
    tcs[from].charge(tcs[from].r.tuple, instr::TUPLE_ENCODE);
    let addr = bufs.send[from].slot(w);
    tcs[from].store(addr, w as u32);
}

/// The wire + receive half of a transfer whose rows are already staged
/// on the sender: one fence + `RemoteSend` on `from`, one `RemoteRecv`
/// on `to`, then a decode + recv-buffer load per row as `to` unpacks
/// them onto `out`. Empty transfers are skipped entirely, keeping
/// per-link send bytes == recv bytes exactly.
fn deliver(
    traffic: &mut ExchangeTraffic,
    bufs: &mut ExchangeBufs,
    tcs: &mut [&mut TraceCtx],
    from: usize,
    to: usize,
    rows: Vec<Row>,
    out: &mut Vec<Row>,
) {
    if rows.is_empty() {
        return;
    }
    let bytes = (u64::from(MSG_HEADER_BYTES) + rows_bytes(&rows)) as u32;
    tcs[from].fence();
    tcs[from].remote_send(bytes);
    tcs[to].remote_recv(bytes);
    traffic.messages += 1;
    traffic.sent_bytes += bytes as u64;
    traffic.recv_bytes += bytes as u64;
    traffic.shipped_rows += rows.len() as u64;
    for row in &rows {
        let w = row_bytes(row);
        tcs[to].charge(tcs[to].r.tuple, instr::TUPLE_DECODE);
        let addr = bufs.recv[to].slot(w);
        tcs[to].load(addr, w as u32);
    }
    out.extend(rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcmp_engine::Database;

    fn setup(n: usize) -> (Vec<Database>, ExchangeBufs) {
        let spaces: Vec<_> = (0..n)
            .map(|p| Arc::new(AddressSpace::partition(p).unwrap()))
            .collect();
        let bufs = ExchangeBufs::reserve(&spaces);
        let dbs = spaces.into_iter().map(Database::with_space).collect();
        (dbs, bufs)
    }

    fn int_rows(keys: &[i64]) -> Vec<Row> {
        keys.iter()
            .map(|&k| vec![Value::Int(k), Value::Str(format!("r{k}"))])
            .collect()
    }

    #[test]
    fn strategy_rule_is_size_and_count_driven() {
        assert_eq!(
            choose_strategy(BROADCAST_MAX_BYTES),
            ExchangeStrategy::Broadcast
        );
        assert_eq!(
            choose_strategy(BROADCAST_MAX_BYTES + 1),
            ExchangeStrategy::Shuffle
        );
    }

    #[test]
    fn shuffle_routes_by_join_hash_and_drops_nulls() {
        let n = 3;
        let (dbs, mut bufs) = setup(n);
        let mut ctxs: Vec<_> = dbs.iter().map(|db| db.trace_ctx()).collect();
        let mut tcs: Vec<&mut TraceCtx> = ctxs.iter_mut().collect();
        let mut build = vec![int_rows(&[1, 2, 3]), int_rows(&[4, 5]), int_rows(&[6])];
        build[1].push(vec![Value::Null, Value::Str("nullkey".into())]);
        let probe = vec![int_rows(&[1, 4]), Vec::new(), int_rows(&[2, 6, 6])];
        let (b, p, traffic) = exchange_rows(
            ExchangeStrategy::Shuffle,
            &mut bufs,
            &mut tcs,
            build,
            0,
            probe,
            0,
        );
        // Every surviving row sits on the instance its key hashes to.
        for side in [&b, &p] {
            for (q, rows) in side.iter().enumerate() {
                for r in rows {
                    assert_eq!(partition_of(&r[0], n), q);
                }
            }
        }
        // NULL-key row vanished (charged, not shipped, not kept).
        let total_build: usize = b.iter().map(Vec::len).sum();
        assert_eq!(total_build, 6);
        let total_probe: usize = p.iter().map(Vec::len).sum();
        assert_eq!(total_probe, 5);
        // Conservation: sends == recvs in the summary and in the traces.
        assert_eq!(traffic.sent_bytes, traffic.recv_bytes);
        let traces: Vec<_> = ctxs.into_iter().map(|c| c.finish()).collect();
        let sends: u64 = traces.iter().map(|t| t.counts().remote_sends).sum();
        let recvs: u64 = traces.iter().map(|t| t.counts().remote_recvs).sum();
        assert_eq!(sends, recvs);
        assert_eq!(sends, traffic.messages);
    }

    #[test]
    fn broadcast_replicates_build_only() {
        let n = 2;
        let (dbs, mut bufs) = setup(n);
        let mut ctxs: Vec<_> = dbs.iter().map(|db| db.trace_ctx()).collect();
        let mut tcs: Vec<&mut TraceCtx> = ctxs.iter_mut().collect();
        let build = vec![int_rows(&[1, 2]), int_rows(&[3])];
        let probe = vec![int_rows(&[7]), int_rows(&[8, 9])];
        let (b, p, traffic) = exchange_rows(
            ExchangeStrategy::Broadcast,
            &mut bufs,
            &mut tcs,
            build.clone(),
            0,
            probe.clone(),
            0,
        );
        // Both instances end with the full build table.
        for rows in &b {
            let mut keys: Vec<i64> = rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
            keys.sort();
            assert_eq!(keys, vec![1, 2, 3]);
        }
        // Probe side untouched.
        assert_eq!(p, probe);
        assert_eq!(traffic.messages, 2, "one build message per direction");
        assert_eq!(traffic.sent_bytes, traffic.recv_bytes);
    }

    #[test]
    fn ship_rows_charges_both_ends() {
        let (dbs, mut bufs) = setup(2);
        let mut ctxs: Vec<_> = dbs.iter().map(|db| db.trace_ctx()).collect();
        let mut tcs: Vec<&mut TraceCtx> = ctxs.iter_mut().collect();
        let rows = int_rows(&[10, 11]);
        let mut out = Vec::new();
        let mut traffic = ExchangeTraffic::default();
        ship_rows(
            &mut traffic,
            &mut bufs,
            &mut tcs,
            1,
            0,
            rows.clone(),
            &mut out,
        );
        assert_eq!(out, rows);
        assert_eq!(traffic.messages, 1);
        assert_eq!(
            traffic.sent_bytes,
            u64::from(MSG_HEADER_BYTES) + rows_bytes(&rows),
            "message = header + payload"
        );
        let t0 = ctxs.remove(0).finish();
        let t1 = ctxs.remove(0).finish();
        assert_eq!(t1.counts().remote_sends, 1);
        assert_eq!(t0.counts().remote_recvs, 1);
        assert_eq!(t0.counts().remote_bytes, t1.counts().remote_bytes);
    }
}
