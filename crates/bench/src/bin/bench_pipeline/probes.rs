//! The isolating measurements only the traced run makes, all under one
//! `probes` root span and all on the last repetition's retained
//! captures: every point built and executed once more sequentially on
//! one thread (`sim.build`, `sim.execute`), the captured events re-fed
//! through a non-retaining `Tracer` (`trace.encode` — the `bench_trace`
//! method), every thread drained through a `TraceCursor`
//! (`trace.decode`), and the load/store line stream driven straight
//! into `MemSys::data_access` (`sim.memsys_walk`).

use std::hint::black_box;

use dbcmp_sim::cursor::TraceCursor;
use dbcmp_sim::memsys::MemSys;
use dbcmp_sim::{MachineBuilder, RunMode, SimResult};
use dbcmp_trace::{CountingSink, Event, ThreadTrace, Tracer, CACHE_LINE};

use crate::pipelines::Rep;
use crate::spans::Recorder;

#[derive(Debug, Default)]
pub struct Probes {
    pub build_s: f64,
    /// Per point, in point order.
    pub execute_s: Vec<f64>,
    pub sequential: Vec<SimResult>,
    pub encode_s: f64,
    pub decode_s: f64,
    /// Events fed / drained by the two codec probes (every capture).
    pub codec_events: u64,
    pub memsys_s: f64,
    pub memsys_accesses: u64,
}

pub fn run(rep: &Rep, rec: &mut Recorder) -> Probes {
    let mut p = Probes::default();
    rec.scope("probes", |rec| {
        for point in &rep.points {
            let bundle = rep.bundle(point);
            let (machine, secs) = rec.scope("sim.build", |_| {
                MachineBuilder::from_config(point.cfg.clone(), point.mode)
                    .build(bundle)
                    .expect("the sweep validated this config")
            });
            p.build_s += secs;
            let (result, secs) = rec.scope("sim.execute", |_| machine.execute());
            p.execute_s.push(secs);
            p.sequential.push(result);
        }

        let threads = || {
            rep.captures
                .iter()
                .flat_map(|c| &c.bundles)
                .flat_map(|b| &b.threads)
        };
        p.codec_events = threads().map(|t| t.len() as u64).sum();
        // Decoding a thread into a flat event list is the probe's input,
        // not its subject: only the re-feed is timed.
        for t in threads() {
            let events: Vec<Event> = t.iter().collect();
            p.encode_s += rec.scope("trace.encode", |_| black_box(refeed(&events))).1;
        }
        p.decode_s = rec
            .scope("trace.decode", |_| {
                black_box(threads().map(drain).sum::<u64>())
            })
            .1;

        if let Some(point) = rep.points.first() {
            let bundle = rep.bundle(point);
            let mut mem = MemSys::new(&point.cfg);
            let ((), secs) = rec.scope("sim.memsys_walk", |_| {
                let mut now = 0u64;
                for (i, t) in bundle.threads.iter().enumerate() {
                    let core = i % point.cfg.n_cores;
                    for e in t.iter() {
                        let (addr, write) = match e {
                            Event::Load { addr, .. } => (addr, false),
                            Event::Store { addr, .. } => (addr, true),
                            _ => continue,
                        };
                        now = now.max(
                            mem.data_access(core, addr / CACHE_LINE, write, now)
                                .ready_at,
                        );
                        p.memsys_accesses += 1;
                    }
                }
                black_box(now);
            });
            p.memsys_s = secs;
        }
    });
    p
}

/// Cycles one `execute()` simulates on every core, warm-up included.
pub fn simulated_cycles(mode: RunMode, result: &SimResult) -> u64 {
    match mode {
        RunMode::Throughput { warmup, measure } => warmup + measure,
        RunMode::Completion { .. } => result.cycles,
    }
}

fn refeed(events: &[Event]) -> u64 {
    let mut tr = Tracer::streaming(Box::<CountingSink>::default());
    for &e in events {
        match e {
            Event::Exec { region, instrs } => tr.exec(region, instrs),
            Event::Load { addr, size, dep } => {
                if dep {
                    tr.load_dep(addr, size as u32)
                } else {
                    tr.load(addr, size as u32)
                }
            }
            Event::Store { addr, size } => tr.store(addr, size as u32),
            Event::Fence => tr.fence(),
            Event::UnitEnd => tr.unit_end(),
            Event::Block => tr.block(),
            Event::Wake => tr.wake(),
            Event::RemoteSend { bytes } => tr.remote_send(bytes),
            Event::RemoteRecv { bytes } => tr.remote_recv(bytes),
        }
    }
    tr.finish().instrs()
}

fn drain(t: &ThreadTrace) -> u64 {
    let mut cursor = TraceCursor::new(t, false);
    let mut checksum = 0u64;
    while let Some(e) = cursor.next_event() {
        checksum = checksum.wrapping_add(match e {
            Event::Exec { instrs, .. } => instrs as u64,
            Event::Load { addr, .. } | Event::Store { addr, .. } => addr,
            _ => 1,
        });
    }
    checksum
}
