//! Measurement fidelity: the active-DNS pipeline must agree with ground
//! truth for *every* domain it measures — resolution through root, TLD and
//! provider servers, geolocation annotation, ASN attribution, and NS-name
//! extraction all have to line up.

use ruwhere::prelude::*;
use ruwhere::world::{catalog, DnsPlan};

#[test]
fn every_measured_record_matches_ground_truth() {
    let mut world = World::new(WorldConfig::tiny());
    // Advance into the conflict so events have fired (harder case than a
    // freshly built world).
    world.advance_to(Date::from_ymd(2022, 3, 20));
    let mut scanner = OpenIntelScanner::new(&world);
    let sweep = scanner.sweep_frame(&mut world);
    let snap = scanner.interner().snapshot();

    let plans = catalog::dns_plans();
    let mut checked_apex = 0;
    let mut checked_ns = 0;
    for rec in sweep.records() {
        let domain = snap.name(rec.domain_sym());
        let Some(truth) = world.domain_state(domain) else {
            continue; // infra domains like reg.ru have no DomainState
        };

        // Apex A records: the measured set must equal the ground-truth set.
        if rec.has_apex_data() {
            let apex = rec.apex_addrs();
            let mut measured = apex.ips().to_vec();
            measured.sort();
            let mut expected = vec![truth.hosting.primary_ip];
            if let Some((_, ip)) = truth.hosting.secondary {
                expected.push(ip);
            }
            expected.sort();
            assert_eq!(measured, expected, "apex mismatch for {domain}");

            // ASN annotation matches the hosting provider's ASN.
            let providers = catalog::providers();
            let expected_asn = providers[truth.hosting.primary.0 as usize].asn;
            assert!(
                apex.asns().contains(&Some(expected_asn)),
                "ASN mismatch for {domain}: {:?} lacks {expected_asn}",
                apex.asns(),
            );
            checked_apex += 1;
        }

        // NS names: managed plans must report exactly the plan's NS set.
        if let DnsPlan::Managed(p) = &truth.dns {
            if !rec.ns_name_syms().is_empty() {
                let mut measured: Vec<String> = rec
                    .ns_name_syms()
                    .iter()
                    .map(|&n| snap.name(n).as_str().to_owned())
                    .collect();
                measured.sort();
                let mut expected: Vec<String> = plans[p.0 as usize]
                    .ns
                    .iter()
                    .map(|h| h.host.to_owned())
                    .collect();
                expected.sort();
                assert_eq!(measured, expected, "NS mismatch for {domain}");
                checked_ns += 1;
            }
        }
    }
    assert!(checked_apex > 300, "only {checked_apex} apex checks ran");
    assert!(checked_ns > 300, "only {checked_ns} NS checks ran");
}

#[test]
fn geolocation_annotation_matches_provider_countries() {
    let mut world = World::new(WorldConfig::tiny());
    let mut scanner = OpenIntelScanner::new(&world);
    let sweep = scanner.sweep_frame(&mut world);
    let snap = scanner.interner().snapshot();
    let providers = catalog::providers();

    let mut checked = 0;
    for rec in sweep.records() {
        let domain = snap.name(rec.domain_sym());
        let Some(truth) = world.domain_state(domain) else {
            continue;
        };
        let apex = rec.apex_addrs();
        for (ip, &country) in apex.ips().iter().zip(apex.countries()) {
            if *ip == truth.hosting.primary_ip {
                let expected = providers[truth.hosting.primary.0 as usize].country;
                assert_eq!(
                    snap.country(country),
                    Some(expected),
                    "geo mismatch for {domain} at {ip}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 300, "only {checked} geo checks ran");
}

#[test]
fn sanctioned_subset_is_measured_completely() {
    let mut world = World::new(WorldConfig::tiny());
    world.publish_tld_zones();
    let mut scanner = OpenIntelScanner::new(&world);
    let sweep = scanner.sweep_frame(&mut world);
    let snap = scanner.interner().snapshot();
    let sanctions = world.sanctions().clone();

    // Every sanctioned domain listed by study end must appear in the sweep
    // with usable NS data (they are all registered and delegated).
    let mut found = 0;
    for rec in sweep.records() {
        let domain = snap.name(rec.domain_sym());
        if sanctions.is_sanctioned(domain, Date::from_ymd(2022, 12, 31)) {
            assert!(rec.has_ns_data(), "sanctioned {domain} failed to resolve");
            found += 1;
        }
    }
    assert_eq!(found, sanctions.len());
}
