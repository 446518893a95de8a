//! Frame fixtures for the analysis unit tests: records described with
//! plain strings, built into [`SweepFrame`]s by [`FrameBuilder`] on one
//! shared [`Interner`], and fed to series through [`AnalysisEngine`] —
//! the same path `run_study` takes.

use crate::engine::{AnalysisEngine, FrameObserver};
use ruwhere_store::{FrameBuilder, Interner, SweepFrame, SweepStats};
use ruwhere_types::{Asn, Country, Date};
use std::net::Ipv4Addr;

/// One address: its country code (`None` = no geolocation) and origin AS.
type Addr = (Option<&'static str>, Option<u32>);

/// One domain's record, built up fluently.
#[derive(Debug, Clone)]
pub(crate) struct Rec {
    domain: &'static str,
    ns_names: Vec<&'static str>,
    ns_addrs: Vec<Addr>,
    apex_addrs: Vec<Addr>,
}

impl Rec {
    /// A record for `domain` with no NS names and no addresses.
    pub(crate) fn new(domain: &'static str) -> Rec {
        Rec {
            domain,
            ns_names: Vec::new(),
            ns_addrs: Vec::new(),
            apex_addrs: Vec::new(),
        }
    }

    /// Add NS RRset targets.
    pub(crate) fn ns(mut self, names: &[&'static str]) -> Rec {
        self.ns_names.extend_from_slice(names);
        self
    }

    /// Add one name-server address.
    pub(crate) fn ns_addr(mut self, country: Option<&'static str>, asn: Option<u32>) -> Rec {
        self.ns_addrs.push((country, asn));
        self
    }

    /// Add one apex address.
    pub(crate) fn apex_addr(mut self, country: Option<&'static str>, asn: Option<u32>) -> Rec {
        self.apex_addrs.push((country, asn));
        self
    }
}

/// One interner shared by every frame a test builds, as the engine
/// contract requires.
#[derive(Debug, Default)]
pub(crate) struct Fixture {
    pub(crate) interner: Interner,
}

impl Fixture {
    pub(crate) fn new() -> Fixture {
        Fixture::default()
    }

    /// A full sweep on `date` holding `records` in order.
    pub(crate) fn frame(&self, date: Date, records: &[Rec]) -> SweepFrame {
        self.frame_with(date, records, SweepStats::default())
    }

    /// [`Fixture::frame`] with explicit sweep counters.
    pub(crate) fn frame_with(&self, date: Date, records: &[Rec], stats: SweepStats) -> SweepFrame {
        let name = |s: &str| self.interner.intern_name(&s.parse().expect("test name"));
        let country = |cc: Option<&str>| {
            let cc = cc.map(|c| c.parse::<Country>().expect("test country"));
            self.interner.intern_country(cc)
        };
        // Addresses are distinct per record slot; no analysis reads them.
        let ip = |block: u8, i: usize| Ipv4Addr::new(10, 0, block, i as u8 + 1);
        let mut b = FrameBuilder::new(date);
        for rec in records {
            b.begin_record(name(rec.domain));
            for ns in &rec.ns_names {
                b.push_ns_name(name(ns));
            }
            for (i, &(cc, asn)) in rec.ns_addrs.iter().enumerate() {
                b.push_ns_addr(ip(0, i), country(cc), asn.map(Asn));
            }
            for (i, &(cc, asn)) in rec.apex_addrs.iter().enumerate() {
                b.push_apex_addr(ip(1, i), country(cc), asn.map(Asn));
            }
            b.end_record();
        }
        b.finish(stats, Default::default())
    }

    /// Walk `frame` once with `observer`, through the engine.
    pub(crate) fn observe(&self, observer: &mut dyn FrameObserver, frame: &SweepFrame) {
        AnalysisEngine::new().observe_frame(frame, &self.interner, &mut [observer]);
    }

    /// Build a full sweep on `date` and feed it to `observer`.
    pub(crate) fn feed(&self, observer: &mut dyn FrameObserver, date: Date, records: &[Rec]) {
        self.observe(observer, &self.frame(date, records));
    }
}
