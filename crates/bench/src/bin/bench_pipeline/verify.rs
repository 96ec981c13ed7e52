//! Output checks: what makes an operation count as failed.
//!
//! An *operation* is one capture or one replay point. Every repetition
//! is fingerprinted — a digest of every captured event and of every
//! deterministic `SimResult` field — and compared with the warm-up
//! repetition's fingerprint, so a capture that is not byte-identical
//! across repetitions, or a replay that is not bit-identical, fails its
//! operation. Vacuous results (no units completed, a link-bound point
//! that never stalled on the link, a truncated capture) fail too. At the
//! default seed the fingerprints must also equal the goldens below.

use dbcmp_sim::SimResult;

use crate::pipelines::{Capture, Rep, Workload};

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for &x in b {
            self.word(u64::from(x));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of every event of every thread of every bundle of a capture,
/// with thread and bundle boundaries.
pub fn capture_digest(c: &Capture) -> u64 {
    let mut d = Digest::new();
    for b in &c.bundles {
        d.word(b.threads.len() as u64);
        for t in &b.threads {
            d.word(t.len() as u64);
            for e in t.iter() {
                d.word(e.pack().0);
            }
        }
    }
    for (_, v) in &c.counters {
        d.word(*v);
    }
    d.finish()
}

/// Digest of every deterministic field of a `SimResult` — named one by
/// one, so a field *added* later does not silently change the goldens.
pub fn result_digest(r: &SimResult) -> u64 {
    let mut d = Digest::new();
    d.bytes(r.machine.as_bytes());
    for w in [r.cycles, r.instrs, r.units] {
        d.word(w);
    }
    for b in std::iter::once(&r.breakdown).chain(&r.per_core) {
        for &c in &b.cycles {
            d.word(c);
        }
    }
    let m = &r.mem;
    for w in [
        m.l1d_accesses,
        m.l1d_misses,
        m.l1i_accesses,
        m.l1i_misses,
        m.l2_hits,
        m.l2_hits_instr,
        m.l1_to_l1,
        m.mem_accesses,
        m.mem_accesses_instr,
        m.coherence_transfers,
        m.stream_hits,
        m.l2_queue_cycles,
        m.l2_queued_accesses,
    ] {
        d.word(w);
    }
    for l in &m.per_level {
        for w in [
            l.hits_data,
            l.hits_instr,
            l.misses_data,
            l.misses_instr,
            l.evictions,
            l.service_cycles,
            l.queue_cycles,
            l.queued_accesses,
            l.mshr_waits,
            l.mshr_wait_cycles,
        ] {
            d.word(w);
        }
    }
    for w in [
        r.remote.sends,
        r.remote.recvs,
        r.remote.bytes,
        r.remote.stall_cycles,
    ] {
        d.word(w);
    }
    d.word(r.avg_unit_cycles.map_or(u64::MAX, f64::to_bits));
    d.finish()
}

/// One repetition's digests, per operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub captures: Vec<u64>,
    pub points: Vec<u64>,
}

impl Fingerprint {
    pub fn of(rep: &Rep) -> Fingerprint {
        Fingerprint {
            captures: rep.captures.iter().map(capture_digest).collect(),
            points: rep.results.iter().map(result_digest).collect(),
        }
    }

    /// `(capture digest, sim digest)` folded over the operations.
    pub fn folded(&self) -> (u64, u64) {
        let fold = |ds: &[u64]| {
            let mut d = Digest::new();
            ds.iter().for_each(|&w| d.word(w));
            d.finish()
        };
        (fold(&self.captures), fold(&self.points))
    }
}

/// Operation counts of one repetition, with a line per failure.
#[derive(Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Some capture / some replay differed from the warm-up's digest.
    pub capture_drift: bool,
    pub replay_drift: bool,
}

impl Verdict {
    fn op(&mut self, label: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.notes.push(format!("{label}: {p}"));
        }
    }

    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.capture_drift |= other.capture_drift;
        self.replay_drift |= other.replay_drift;
    }
}

/// Judge every operation of `rep` against the reference fingerprint.
pub fn check_rep(rep: &Rep, fp: &Fingerprint, reference: &Fingerprint) -> Verdict {
    let mut v = Verdict::default();
    for (i, c) in rep.captures.iter().enumerate() {
        let drifted = reference.captures.get(i) != Some(&fp.captures[i]);
        v.capture_drift |= drifted;
        let problem = c
            .defect
            .clone()
            .or_else(|| drifted.then(|| "capture is not byte-identical across repetitions".into()));
        v.op(&c.label, problem);
    }
    for (i, (p, r)) in rep.points.iter().zip(&rep.results).enumerate() {
        let drifted = reference.points.get(i) != Some(&fp.points[i]);
        v.replay_drift |= drifted;
        let problem =
            p.expect.defect(r).map(str::to_string).or_else(|| {
                drifted.then(|| "replay is not bit-identical across repetitions".into())
            });
        v.op(&p.label, problem);
    }
    v
}

/// The traced run replays every point once more, sequentially and
/// single-threaded; the parallel sweep must have produced the same bits.
pub fn check_sequential(rep: &Rep, sequential: &[SimResult]) -> Verdict {
    let mut v = Verdict::default();
    for (p, (par, seq)) in rep.points.iter().zip(rep.results.iter().zip(sequential)) {
        v.op(
            &p.label,
            (par != seq).then(|| "parallel sweep differs from the sequential replay".into()),
        );
    }
    v
}

/// `(capture digest, sim digest)` of each workload at the default seed
/// and the benchmark scale, taken on the commit that added the
/// benchmark. A simulator-speed change must leave both untouched; a
/// capture-side speed change must too. A change that *means* to alter
/// the model re-takes them (every run prints its digests) and says so.
pub fn golden(w: Workload) -> (u64, u64) {
    match w {
        Workload::OltpCamps => (0x378b_d2b7_71ac_dcc8, 0x13a1_5c45_efd2_0fbc),
        Workload::DssCapture => (0x1af1_2ba5_707b_4719, 0x562a_eb1e_7c98_e9c9),
        Workload::OltpContended => (0xa5af_3651_d348_2c9a, 0xf3e6_aaf0_baa8_2632),
        Workload::DistJoins => (0x092e_36bd_a51c_6480, 0xc019_d777_4c09_d319),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_digest_sees_every_kind_of_field() {
        let base = SimResult {
            machine: "m".into(),
            per_core: vec![Default::default(); 2],
            ..Default::default()
        };
        let d0 = result_digest(&base);
        assert_eq!(d0, result_digest(&base.clone()));
        let mut variants = vec![base.clone(); 7];
        variants[0].machine = "n".into();
        variants[1].units = 1;
        variants[2].breakdown.cycles[3] = 1;
        variants[3].per_core[1].cycles[0] = 1;
        variants[4].mem.coherence_transfers = 1;
        variants[5].remote.stall_cycles = 1;
        variants[6].avg_unit_cycles = Some(0.0);
        let mut seen = std::collections::BTreeSet::from([d0]);
        for v in &variants {
            assert!(seen.insert(result_digest(v)), "{v:?} collides");
        }
        let mut levels = base.clone();
        levels.mem.per_level = vec![Default::default()];
        levels.mem.per_level[0].mshr_wait_cycles = 9;
        assert!(seen.insert(result_digest(&levels)));
    }
}
