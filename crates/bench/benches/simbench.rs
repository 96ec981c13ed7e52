//! Criterion benchmarks of the simulator itself: cycles simulated per
//! second for both core models, and the cache tag array.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use dbcmp_sim::cache::Cache;
use dbcmp_sim::{MachineBuilder, MachineConfig, RunMode};
use dbcmp_trace::{CodeRegions, TraceBundle, Tracer};

fn synthetic_bundle(threads: usize) -> TraceBundle {
    let mut regions = CodeRegions::new();
    let r = regions.add("loop", 32 << 10, 2.0);
    let traces = (0..threads)
        .map(|t| {
            let mut tr = Tracer::recording();
            for k in 0..20_000u64 {
                tr.exec(r, 16);
                tr.load(0x100000 + (t as u64) * 0x40000 + (k % 4096) * 64, 8);
                if k % 64 == 0 {
                    tr.store(0x900000 + (k % 512) * 64, 8);
                }
            }
            tr.finish()
        })
        .collect();
    TraceBundle::new(regions, traces)
}

fn bench_cores(c: &mut Criterion) {
    let bundle = synthetic_bundle(4);
    let mut g = c.benchmark_group("simulator");
    let cycles = 200_000u64;
    g.throughput(Throughput::Elements(cycles));
    let mode = RunMode::Throughput {
        warmup: 0,
        measure: cycles,
    };
    for (name, cfg) in [
        (
            "fat_cmp_4core_200k_cycles",
            MachineConfig::fat_cmp(4, 4 << 20, 10),
        ),
        (
            "lean_cmp_4core_200k_cycles",
            MachineConfig::lean_cmp(4, 4 << 20, 10),
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let machine = MachineBuilder::from_config(cfg.clone(), mode)
                    .build(&bundle)
                    .expect("valid preset");
                black_box(machine.execute())
            })
        });
    }
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut cache = Cache::new(1 << 20, 16);
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(1));
    g.bench_function("probe_insert_stream", |b| {
        let mut line = 0u64;
        b.iter(|| {
            line = (line + 97) % 100_000;
            if cache.probe(line).is_none() {
                cache.insert(line);
            }
            black_box(line)
        })
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cores, bench_cache
);
criterion_main!(benches);
