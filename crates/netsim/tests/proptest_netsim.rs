//! Property tests: the routing table against a brute-force model, the
//! topology's latency draws against their seed formula, CIDR parsing.

use proptest::prelude::*;
use ruwhere_netsim::{AsInfo, Ipv4Net, RoutingTable, Topology};
use ruwhere_types::{Asn, Country, SeedTree};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Prefix lengths around each base address: the default route, host
/// routes, and nested prefixes in between.
const POOL_LENS: [u8; 9] = [0, 1, 7, 8, 16, 23, 24, 31, 32];

/// The model: exact prefix → value, matched by a linear scan.
fn model_lookup(model: &BTreeMap<(u8, u32), u32>, ip: Ipv4Addr) -> Option<&u32> {
    model
        .iter()
        .filter(|((len, bits), _)| {
            Ipv4Net::new(Ipv4Addr::from(*bits), *len)
                .unwrap()
                .contains(ip)
        })
        .max_by_key(|((len, _), _)| *len)
        .map(|(_, v)| v)
}

/// The inter-AS latency of `a`↔`b` computed from scratch from the
/// topology seed, as `Topology::latency_us` documents it.
fn latency_formula(seed: SeedTree, countries: &BTreeMap<u32, Country>, a: u32, b: u32) -> u64 {
    if a == b {
        return 200 + seed.child("lat-intra").child_idx(u64::from(a)).seed() % 1_800;
    }
    let (lo, hi) = (a.min(b), a.max(b));
    let node = seed
        .child("lat")
        .child_idx(u64::from(lo))
        .child_idx(u64::from(hi));
    let base = 5_000 + node.seed() % 145_000;
    match (countries.get(&a), countries.get(&b)) {
        (Some(x), Some(y)) if x == y => 2_000 + base / 10,
        _ => base,
    }
}

fn jitter_formula(seed: SeedTree, a: u32, b: u32, packet_id: u64) -> u64 {
    let pair = u64::from(a) << 32 | u64::from(b);
    seed.child("jitter")
        .child_idx(pair)
        .child_idx(packet_id)
        .seed()
        % 2_000
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn routing_table_matches_model(
        bases in proptest::collection::vec(any::<u32>(), 1..4),
        ops in proptest::collection::vec((0u8..3, any::<prop::sample::Index>(), any::<u32>()), 1..120),
        probes in proptest::collection::vec(any::<u32>(), 32),
    ) {
        // Prefixes drawn from a small pool, so inserts re-announce and
        // remove what is there, and prefixes nest and repeat (every base
        // shares the /0).
        let pool: Vec<Ipv4Net> = bases
            .iter()
            .flat_map(|&b| POOL_LENS.map(|len| Ipv4Net::new(Ipv4Addr::from(b), len).unwrap()))
            .collect();
        let mut table = RoutingTable::new();
        let mut model: BTreeMap<(u8, u32), u32> = BTreeMap::new();
        for (op, idx, value) in &ops {
            let net = pool[idx.index(pool.len())];
            let key = (net.prefix_len(), net.bits());
            if *op < 2 {
                prop_assert_eq!(table.insert(net, *value), model.insert(key, *value));
            } else {
                prop_assert_eq!(table.remove(net), model.remove(&key));
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
        }
        for net in &pool {
            prop_assert_eq!(table.get(*net), model.get(&(net.prefix_len(), net.bits())));
        }
        // Probe each base, each base with one bit flipped (where nested
        // prefixes part ways), and random addresses.
        let near = bases.iter().flat_map(|&b| (0..32).map(move |k| b ^ (1 << k)));
        for p in bases.iter().copied().chain(near).chain(probes) {
            let ip = Ipv4Addr::from(p);
            prop_assert_eq!(table.lookup(ip), model_lookup(&model, ip), "lookup {}", ip);
        }
    }

    #[test]
    fn topology_draws_match_seed_formula(
        root in any::<u64>(),
        ases in proptest::collection::vec((1u32..64, 0usize..3), 2..12),
        queries in proptest::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>(), any::<u64>()), 16),
    ) {
        let seed = SeedTree::new(root).child("topo");
        let palette = [Country::RU, Country::US, Country::SE];
        let mut topo = Topology::new(seed);
        let mut countries = BTreeMap::new();
        let asns: Vec<u32> = ases.iter().map(|(a, _)| *a).collect();
        let check = |topo: &Topology, countries: &BTreeMap<u32, Country>| {
            for (i, j, packet_id) in &queries {
                let (a, b) = (asns[i.index(asns.len())], asns[j.index(asns.len())]);
                prop_assert_eq!(
                    topo.latency_us(Asn(a), Asn(b)),
                    latency_formula(seed, countries, a, b)
                );
                prop_assert_eq!(
                    topo.jitter_us(Asn(a), Asn(b), *packet_id),
                    jitter_formula(seed, a, b, *packet_id)
                );
            }
            Ok(())
        };
        // Register half the ASes, draw, then register the rest: a later
        // `add_as` turns an unknown pair into a same-country one.
        let (first, later) = ases.split_at(ases.len() / 2);
        for batch in [first, later] {
            for &(asn, c) in batch {
                let info = AsInfo { asn: Asn(asn), org: format!("AS{asn}"), country: palette[c] };
                if topo.add_as(info) {
                    countries.insert(asn, palette[c]);
                }
            }
            check(&topo, &countries)?;
        }
    }

    #[test]
    fn cidr_display_parse_roundtrip(addr in any::<u32>(), len in 0u8..=32) {
        let net = Ipv4Net::new(Ipv4Addr::from(addr), len).unwrap();
        let s = net.to_string();
        prop_assert_eq!(s.parse::<Ipv4Net>().unwrap(), net);
    }

    #[test]
    fn containment_is_consistent(addr in any::<u32>(), len in 0u8..=32, probe in any::<u32>()) {
        let net = Ipv4Net::new(Ipv4Addr::from(addr), len).unwrap();
        let p = Ipv4Addr::from(probe);
        // An address is contained iff its top `len` bits match.
        let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
        prop_assert_eq!(net.contains(p), probe & mask == net.bits());
        // The network address itself is always contained.
        prop_assert!(net.contains(net.network()));
    }

    #[test]
    fn nth_stays_inside(addr in any::<u32>(), len in 8u8..=32, i in any::<u64>()) {
        let net = Ipv4Net::new(Ipv4Addr::from(addr), len).unwrap();
        match net.nth(i) {
            Some(ip) => prop_assert!(net.contains(ip)),
            None => prop_assert!(i >= net.size()),
        }
    }
}
