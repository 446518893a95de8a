//! Microbenchmarks for the substrate systems: DNS wire format, LPM
//! routing, geolocation lookup, SHA-256 / Merkle proofs, and full
//! iterative resolution through the simulated network.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ruwhere_authdns::IterativeResolver;
use ruwhere_ct::ctlog::{verify_consistency, verify_inclusion};
use ruwhere_ct::{sha256, CtLog};
use ruwhere_dns::{Message, Name, RData, RType, Rcode, Record};
use ruwhere_geo::GeoDbBuilder;
use ruwhere_netsim::{Ipv4Net, RoutingTable};
use ruwhere_scan::OpenIntelScanner;
use ruwhere_types::{Country, Date};
use ruwhere_world::{World, WorldConfig};
use std::hint::black_box;
use std::net::Ipv4Addr;

fn bench_dns_wire(c: &mut Criterion) {
    let q = Message::query(7, "www.example.ru".parse().unwrap(), RType::A);
    let mut resp = Message::response_to(&q, Rcode::NoError);
    for i in 0..4 {
        resp.answers.push(Record::new(
            "www.example.ru".parse().unwrap(),
            300,
            RData::Ns(format!("ns{i}.hosting-provider.ru").parse().unwrap()),
        ));
    }
    let encoded = resp.encode().unwrap();

    let mut g = c.benchmark_group("dns_wire");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode_response", |b| {
        b.iter(|| black_box(black_box(&resp).encode().unwrap()))
    });
    g.bench_function("decode_response", |b| {
        b.iter(|| black_box(Message::decode(black_box(&encoded)).unwrap()))
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut table = RoutingTable::new();
    for i in 0..10_000u32 {
        let addr = Ipv4Addr::from(rng.random::<u32>());
        let len = rng.random_range(8..=24);
        table.insert(Ipv4Net::new(addr, len).unwrap(), i);
    }
    let probes: Vec<Ipv4Addr> = (0..1024)
        .map(|_| Ipv4Addr::from(rng.random::<u32>()))
        .collect();
    let mut g = c.benchmark_group("routing");
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_function("lpm_lookup_10k_prefixes", |b| {
        b.iter(|| {
            let mut hits = 0;
            for p in &probes {
                if table.lookup(black_box(*p)).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn bench_geo(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let mut builder = GeoDbBuilder::new();
    for _ in 0..20_000 {
        let start = rng.random::<u32>() & !0xFFF;
        builder.assign(
            Ipv4Addr::from(start),
            Ipv4Addr::from(start | 0xFFF),
            if rng.random_bool(0.3) {
                Country::RU
            } else {
                Country::US
            },
        );
    }
    let db = builder.build();
    let probes: Vec<Ipv4Addr> = (0..1024)
        .map(|_| Ipv4Addr::from(rng.random::<u32>()))
        .collect();
    let mut g = c.benchmark_group("geo");
    g.throughput(Throughput::Elements(probes.len() as u64));
    g.bench_function("lookup_20k_ranges", |b| {
        b.iter(|| {
            let mut ru = 0;
            for p in &probes {
                if db.lookup(black_box(*p)) == Some(Country::RU) {
                    ru += 1;
                }
            }
            black_box(ru)
        })
    });
    g.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let data = vec![0xA5u8; 16 * 1024];
    let mut g = c.benchmark_group("crypto");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("sha256_16k", |b| {
        b.iter(|| black_box(sha256(black_box(&data))))
    });
    g.finish();

    // Merkle proofs over a 4096-entry log.
    let mut log = CtLog::new("bench");
    let mut ca = ruwhere_ct::CertificateAuthority::new("Bench CA", Country::US, &["B1"], true, 90);
    for i in 0..4096u64 {
        let d: ruwhere_types::DomainName = format!("bench-{i}.ru").parse().unwrap();
        let cert = ca
            .issue(&d, vec![], 0, Date::from_ymd(2022, 1, 1), vec![])
            .unwrap();
        log.append(cert, Date::from_ymd(2022, 1, 1));
    }
    let root = log.root_at(4096).unwrap();
    let old_root = log.root_at(1000).unwrap();
    c.bench_function("ct_inclusion_proof_4096", |b| {
        b.iter(|| black_box(log.inclusion_proof(black_box(2048), 4096).unwrap()))
    });
    let proof = log.inclusion_proof(2048, 4096).unwrap();
    let leaf = log.leaf_at(2048).unwrap();
    c.bench_function("ct_verify_inclusion", |b| {
        b.iter(|| {
            assert!(verify_inclusion(
                black_box(&leaf),
                black_box(&proof),
                black_box(&root)
            ))
        })
    });
    let cproof = log.consistency_proof(1000, 4096).unwrap();
    c.bench_function("ct_verify_consistency", |b| {
        b.iter(|| {
            assert!(verify_consistency(
                black_box(&old_root),
                black_box(&root),
                black_box(&cproof)
            ))
        })
    });
}

fn bench_resolution(c: &mut Criterion) {
    // Full iterative resolution through the simulated Internet.
    let mut world = World::new(WorldConfig::tiny());
    world.publish_tld_zones();
    let seeds = world.seed_names();
    let mut resolver = IterativeResolver::new(world.scanner_ip(), world.root_hints());
    c.bench_function("iterative_resolve_cold", |b| {
        let mut i = 0usize;
        b.iter(|| {
            resolver.clear_cache();
            let name = ruwhere_dns::Name::from(&seeds[i % seeds.len()]);
            i += 1;
            black_box(resolver.resolve(world.network_mut(), &name, RType::A))
        })
    });
    c.bench_function("iterative_resolve_warm", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let name = Name::from(&seeds[i % seeds.len()]);
            i += 1;
            black_box(resolver.resolve(world.network_mut(), &name, RType::A))
        })
    });
}

fn bench_sweep(c: &mut Criterion) {
    // A complete OpenINTEL sweep of a ~500-domain world.
    let mut world = World::new(WorldConfig::tiny());
    let mut scanner = OpenIntelScanner::new(&world);
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    g.bench_function("openintel_daily_sweep_tiny", |b| {
        b.iter(|| black_box(scanner.sweep_frame(&mut world)))
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_dns_wire,
    bench_routing,
    bench_geo,
    bench_crypto,
    bench_resolution,
    bench_sweep
);
criterion_main!(benches);
