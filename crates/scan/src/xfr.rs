//! Zone-transfer client: fetch the registry's daily zone file over the
//! wire and extract the sweep seed list from its delegations.
//!
//! OpenINTEL "uses daily zone file snapshots as seeds" (§2), obtained from
//! registry operators. [`OpenIntelScanner`](crate::OpenIntelScanner)
//! normally receives the seed list out-of-band (the data-sharing-agreement
//! model); this client implements the stricter in-band variant — a chunked
//! transfer protocol against the registry's XFR service — and parses the
//! zone text back into delegations.

use crate::error::ScanError;
use ruwhere_dns::Zone;
use ruwhere_types::DomainName;
use ruwhere_world::World;

/// The transfer client.
pub struct ZoneTransferClient {
    src: std::net::Ipv4Addr,
}

impl ZoneTransferClient {
    /// Client homed at the world's measurement vantage.
    pub fn new(world: &World) -> Self {
        ZoneTransferClient {
            src: world.scanner_ip(),
        }
    }

    fn fetch_chunk(
        &self,
        world: &mut World,
        tld: &str,
        chunk: usize,
    ) -> Result<(usize, String), ScanError> {
        let bad_frame = || ScanError::BadPayload("malformed zone transfer frame".to_owned());
        let server = world.xfr_server();
        let req = format!("XFR {tld} {chunk}");
        let reply = world
            .network_mut()
            .request(self.src, server, req.as_bytes(), 3_000_000, 2)
            .map_err(ScanError::from)?;
        let text = String::from_utf8(reply).map_err(|_| bad_frame())?;
        let (header, body) = text.split_once('\n').ok_or_else(bad_frame)?;
        let total: usize = header
            .strip_prefix("XFRHDR ")
            .ok_or_else(bad_frame)?
            .trim()
            .parse()
            .map_err(|_| bad_frame())?;
        Ok((total, body.to_owned()))
    }

    /// Transfer the full zone for `tld` (presentation name, e.g. `"ru"` or
    /// `"xn--p1ai"`). Transport failures surface as
    /// [`ScanError::Timeout`] / [`ScanError::Unreachable`]; framing and
    /// zone-text failures as [`ScanError::BadPayload`].
    pub fn transfer(&self, world: &mut World, tld: &str) -> Result<Zone, ScanError> {
        let (total, first) = self.fetch_chunk(world, tld, 0)?;
        let mut text = first;
        for i in 1..total {
            let (_, body) = self.fetch_chunk(world, tld, i)?;
            text.push_str(&body);
        }
        Zone::from_text(&text)
            .map_err(|e| ScanError::BadPayload(format!("transferred zone failed to parse: {e}")))
    }

    /// Transfer both study zones and extract the seed list (delegated
    /// names, sorted) — byte-for-byte what the out-of-band path yields.
    pub fn seed_names(&self, world: &mut World) -> Result<Vec<DomainName>, ScanError> {
        let mut seeds = Vec::new();
        for tld in ["ru", "xn--p1ai"] {
            let zone = self.transfer(world, tld)?;
            for owner in zone.delegations() {
                if let Some(d) = owner.to_domain_name() {
                    seeds.push(d);
                }
            }
        }
        seeds.sort();
        Ok(seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_types::Date;
    use ruwhere_world::WorldConfig;

    #[test]
    fn transferred_zone_matches_published_snapshot() {
        let mut world = World::new(WorldConfig::tiny());
        world.publish_tld_zones();
        let client = ZoneTransferClient::new(&world);
        let zone = client
            .transfer(&mut world, "ru")
            .expect("transfer succeeds");
        assert_eq!(zone.origin().to_string(), "ru.");
        assert!(zone.record_count() > 300, "zone should carry delegations");
        // The .рф zone transfers too.
        let rf = client.transfer(&mut world, "xn--p1ai").unwrap();
        assert_eq!(rf.origin().to_string(), "xn--p1ai.");
        assert!(rf.record_count() > 10);
    }

    #[test]
    fn in_band_seeds_equal_out_of_band_seeds() {
        let mut world = World::new(WorldConfig::tiny());
        world.publish_tld_zones();
        let client = ZoneTransferClient::new(&world);
        let in_band = client.seed_names(&mut world).expect("transfer succeeds");
        let out_of_band = world.seed_names();
        // The out-of-band list includes every *registered* name; the zone
        // only carries *delegated* names. In our world every registered
        // name is delegated, so the lists must be identical.
        assert_eq!(in_band, out_of_band);
    }

    #[test]
    fn unknown_tld_fails_cleanly() {
        let mut world = World::new(WorldConfig::tiny());
        world.publish_tld_zones();
        let client = ZoneTransferClient::new(&world);
        // The service stays silent for unknown zones → transport timeout.
        assert_eq!(
            client.transfer(&mut world, "su").unwrap_err(),
            ScanError::Timeout
        );
        // The key is the exact TLD string: no case folding, no Unicode form.
        for tld in ["RU", "рф", "ru."] {
            assert_eq!(
                client.transfer(&mut world, tld).unwrap_err(),
                ScanError::Timeout,
                "{tld}"
            );
        }
    }

    #[test]
    fn silent_before_first_publish() {
        let mut world = World::new(WorldConfig::tiny());
        let client = ZoneTransferClient::new(&world);
        for tld in ["ru", "xn--p1ai", "su"] {
            assert_eq!(
                client.transfer(&mut world, tld).unwrap_err(),
                ScanError::Timeout,
                "{tld}"
            );
        }
        world.publish_tld_zones();
        assert!(client.transfer(&mut world, "ru").is_ok());
    }

    /// Today's snapshot of the registry for `tld`, as fresh as it gets.
    fn fresh_snapshot(world: &World, tld: &str) -> Zone {
        let registry = world
            .registries()
            .iter()
            .find(|r| r.tld().as_str() == tld)
            .expect("study TLD");
        registry.zone_snapshot(world.today())
    }

    /// The oracle for publish-on-change: on every day, across churn,
    /// the conflict's re-delegations and serial-only days, the transferred
    /// zone and its text equal a fresh snapshot of the registry, and
    /// publishing twice changes nothing.
    #[test]
    fn transfers_equal_fresh_snapshots_every_day() {
        let mut world = World::new(WorldConfig::tiny());
        let client = ZoneTransferClient::new(&world);
        let end = Date::from_ymd(2022, 3, 1);
        let (mut changed_days, mut serial_only_days) = (0, 0);
        let mut last_versions: Option<Vec<u64>> = None;
        while world.today() <= end {
            let versions: Vec<u64> = world.registries().iter().map(|r| r.version()).collect();
            match &last_versions {
                Some(last) if *last == versions => serial_only_days += 1,
                Some(_) => changed_days += 1,
                None => {}
            }
            last_versions = Some(versions);
            for _ in 0..2 {
                world.publish_tld_zones();
                for tld in ["ru", "xn--p1ai"] {
                    let fresh_text = fresh_snapshot(&world, tld).to_text();
                    let zone = client.transfer(&mut world, tld).expect("transfer");
                    assert_eq!(zone, Zone::from_text(&fresh_text).unwrap(), "{tld}");
                    assert_eq!(zone.to_text(), fresh_text, "{tld}");
                }
            }
            let next = world.today().succ();
            world.advance_to(next);
        }
        // Both publish paths ran: rebuilds and serial-only patches.
        assert!(changed_days > 0, "no day changed a registry");
        assert!(serial_only_days > 0, "every day changed a registry");
    }

    #[test]
    fn transfer_after_zone_change_is_not_cached_text() {
        let mut world = World::new(WorldConfig::tiny());
        let client = ZoneTransferClient::new(&world);
        world.publish_tld_zones();
        let before = client.transfer(&mut world, "ru").unwrap();
        let version = world.registries()[0].version();
        // Walk forward to the first day whose .ru delegations changed.
        loop {
            let next = world.today().succ();
            world.advance_to(next);
            let fresh = fresh_snapshot(&world, "ru");
            if !ruwhere_dns::ZoneDiff::between(&before, &fresh).is_empty() {
                break;
            }
            assert!(next < Date::from_ymd(2022, 3, 1), "no .ru change found");
        }
        assert_ne!(world.registries()[0].version(), version);
        world.publish_tld_zones();
        let after = client.transfer(&mut world, "ru").unwrap();
        assert_eq!(after, fresh_snapshot(&world, "ru"));
        assert!(!ruwhere_dns::ZoneDiff::between(&before, &after).is_empty());
    }
}
