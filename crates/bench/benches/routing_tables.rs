//! Construction cost of the two all-pairs routing tables every `Sim` on
//! an irregular topology builds: [`DistanceMap::new`] (adaptive routing
//! and the core's misroute accounting, shared between them) and
//! [`UpDownRouting::new`] (the escape-VC baseline's escape routing), on
//! random topologies of 64, 256 and 1 024 routers at average degree 4 —
//! the sizes of the §VI scaling grid. Both are O(n²) in time and memory,
//! so a regression to per-pair heap tables shows here first.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use drain_topology::chiplet::random_connected;
use drain_topology::distance::DistanceMap;
use drain_topology::updown::UpDownRouting;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing_tables");
    g.sample_size(10);
    for n in [64u16, 256, 1024] {
        let topo = random_connected(n, 4.0, 0x7AB1E5 ^ u64::from(n));
        g.bench_with_input(BenchmarkId::new("distance_map", n), &topo, |b, topo| {
            b.iter(|| DistanceMap::new(topo));
        });
        g.bench_with_input(BenchmarkId::new("updown", n), &topo, |b, topo| {
            b.iter(|| UpDownRouting::new(topo));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
