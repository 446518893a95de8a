//! The columnar sweep store: one day's measurement output as
//! struct-of-arrays over interned symbols.
//!
//! A [`SweepFrame`] holds one measurement day in six flat columns: a domain-symbol column, an NS-name symbol column and
//! two [`AddrColumns`] (name-server and apex addresses), each delimited by
//! a `u32` offset column of length `records + 1`. Record `i` owns the
//! half-open range `offsets[i]..offsets[i+1]` of the data column.
//!
//! The layout buys two things:
//!
//! - **One allocation per column per sweep** instead of four `Vec`s and a
//!   handful of owned strings per record — retaining a frame for movement
//!   analysis costs a few flat buffers.
//! - **Symbol-level analysis**: every per-record hook sees `u32` symbols,
//!   so the eight study analyses compare integers and index dense arrays
//!   where they used to hash owned [`DomainName`](ruwhere_types::DomainName)s.
//!
//! Frames are byte-identical for any worker count — the columns are
//! written by a single post-merge pass in zone-snapshot order, and symbol
//! assignment follows the rules in [`crate::sym`].

use crate::record::{Completeness, SweepStats};
use crate::sym::{CountrySym, Sym};
use crate::SweepMetrics;
use ruwhere_types::{Asn, Date};
use std::net::Ipv4Addr;

/// A flat address table: three parallel columns, one entry per resolved
/// address. Ranges into it are delimited by a frame offset column.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddrColumns {
    /// The addresses.
    pub ips: Vec<Ipv4Addr>,
    /// Geolocation per the sweep date's snapshot (sentinel for none).
    pub countries: Vec<CountrySym>,
    /// Origin AS per BGP-derived data.
    pub asns: Vec<Option<Asn>>,
}

impl AddrColumns {
    fn push(&mut self, ip: Ipv4Addr, country: CountrySym, asn: Option<Asn>) {
        self.ips.push(ip);
        self.countries.push(country);
        self.asns.push(asn);
    }

    fn len(&self) -> usize {
        self.ips.len()
    }
}

/// One day's complete measurement output, columnar form. See the module
/// docs for the layout; use [`SweepFrame::record`]/[`SweepFrame::records`]
/// for row-shaped access without materialising rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFrame {
    /// Sweep date.
    pub date: Date,
    /// Domain symbol of each record (zone-snapshot order).
    pub domains: Vec<Sym>,
    /// NS-name range delimiters, length `records + 1`.
    pub ns_name_offsets: Vec<u32>,
    /// NS RRset target symbols, concatenated across records.
    pub ns_names: Vec<Sym>,
    /// NS-address range delimiters, length `records + 1`.
    pub ns_addr_offsets: Vec<u32>,
    /// Resolved, annotated name-server addresses.
    pub ns_addrs: AddrColumns,
    /// Apex-address range delimiters, length `records + 1`.
    pub apex_addr_offsets: Vec<u32>,
    /// Resolved, annotated apex A records.
    pub apex_addrs: AddrColumns,
    /// Counters.
    pub stats: SweepStats,
    /// Observability section: per-cause latency histograms, transport and
    /// resolver aggregates. Empty when the scanner ran without metric
    /// collection; byte-identical for any worker count otherwise.
    pub metrics: SweepMetrics,
}

impl SweepFrame {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the frame has no records.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Whether this sweep was salvaged as partial (outage day).
    pub fn is_partial(&self) -> bool {
        self.stats.completeness == Completeness::Partial
    }

    /// Row-shaped view of record `i` (no allocation).
    pub fn record(&self, idx: usize) -> RecordView<'_> {
        debug_assert!(idx < self.len());
        RecordView { frame: self, idx }
    }

    /// Iterate all records as views, in zone-snapshot order.
    pub fn records(&self) -> impl Iterator<Item = RecordView<'_>> {
        (0..self.len()).map(move |idx| self.record(idx))
    }

    /// Drop the observability payload (for long-term retention: movement
    /// analysis needs the columns, never the histograms).
    pub fn strip_metrics(mut self) -> SweepFrame {
        self.metrics = SweepMetrics::new();
        self
    }
}

/// Incremental [`SweepFrame`] writer. Call
/// [`begin_record`](FrameBuilder::begin_record), push the record's NS
/// names and addresses, [`end_record`](FrameBuilder::end_record), repeat;
/// then [`finish`](FrameBuilder::finish). The caller drives records in
/// zone-snapshot order — the builder just appends.
#[derive(Debug)]
pub struct FrameBuilder {
    date: Date,
    domains: Vec<Sym>,
    ns_name_offsets: Vec<u32>,
    ns_names: Vec<Sym>,
    ns_addr_offsets: Vec<u32>,
    ns_addrs: AddrColumns,
    apex_addr_offsets: Vec<u32>,
    apex_addrs: AddrColumns,
}

impl FrameBuilder {
    /// An empty frame under construction for `date`.
    pub fn new(date: Date) -> FrameBuilder {
        FrameBuilder {
            date,
            domains: Vec::new(),
            ns_name_offsets: vec![0],
            ns_names: Vec::new(),
            ns_addr_offsets: vec![0],
            ns_addrs: AddrColumns::default(),
            apex_addr_offsets: vec![0],
            apex_addrs: AddrColumns::default(),
        }
    }

    /// Reserve column capacity for an expected record count.
    pub fn reserve(&mut self, records: usize) {
        self.domains.reserve(records);
        self.ns_name_offsets.reserve(records);
        self.ns_addr_offsets.reserve(records);
        self.apex_addr_offsets.reserve(records);
    }

    /// Start the next record.
    pub fn begin_record(&mut self, domain: Sym) {
        self.domains.push(domain);
    }

    /// Append an NS RRset target to the current record.
    pub fn push_ns_name(&mut self, ns: Sym) {
        self.ns_names.push(ns);
    }

    /// Append an annotated name-server address to the current record.
    pub fn push_ns_addr(&mut self, ip: Ipv4Addr, country: CountrySym, asn: Option<Asn>) {
        self.ns_addrs.push(ip, country, asn);
    }

    /// Append an annotated apex address to the current record.
    pub fn push_apex_addr(&mut self, ip: Ipv4Addr, country: CountrySym, asn: Option<Asn>) {
        self.apex_addrs.push(ip, country, asn);
    }

    /// Close the current record (writes its offset delimiters).
    pub fn end_record(&mut self) {
        self.ns_name_offsets.push(self.ns_names.len() as u32);
        self.ns_addr_offsets.push(self.ns_addrs.len() as u32);
        self.apex_addr_offsets.push(self.apex_addrs.len() as u32);
    }

    /// Seal the frame with its counters and metric section.
    pub fn finish(self, stats: SweepStats, metrics: SweepMetrics) -> SweepFrame {
        debug_assert_eq!(self.domains.len() + 1, self.ns_name_offsets.len());
        SweepFrame {
            date: self.date,
            domains: self.domains,
            ns_name_offsets: self.ns_name_offsets,
            ns_names: self.ns_names,
            ns_addr_offsets: self.ns_addr_offsets,
            ns_addrs: self.ns_addrs,
            apex_addr_offsets: self.apex_addr_offsets,
            apex_addrs: self.apex_addrs,
            stats,
            metrics,
        }
    }
}

/// Row-shaped, allocation-free view of one frame record.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    frame: &'a SweepFrame,
    idx: usize,
}

impl<'a> RecordView<'a> {
    /// The record's index within its frame.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// The measured domain's symbol.
    pub fn domain_sym(&self) -> Sym {
        self.frame.domains[self.idx]
    }

    /// NS RRset target symbols.
    pub fn ns_name_syms(&self) -> &'a [Sym] {
        let (s, e) = range(&self.frame.ns_name_offsets, self.idx);
        &self.frame.ns_names[s..e]
    }

    /// Resolved name-server addresses.
    pub fn ns_addrs(&self) -> AddrsView<'a> {
        let (start, end) = range(&self.frame.ns_addr_offsets, self.idx);
        AddrsView {
            cols: &self.frame.ns_addrs,
            start,
            end,
        }
    }

    /// Resolved apex A records.
    pub fn apex_addrs(&self) -> AddrsView<'a> {
        let (start, end) = range(&self.frame.apex_addr_offsets, self.idx);
        AddrsView {
            cols: &self.frame.apex_addrs,
            start,
            end,
        }
    }

    /// Whether any name server resolved.
    pub fn has_ns_data(&self) -> bool {
        !self.ns_addrs().is_empty()
    }

    /// Whether the apex resolved.
    pub fn has_apex_data(&self) -> bool {
        !self.apex_addrs().is_empty()
    }
}

fn range(offsets: &[u32], idx: usize) -> (usize, usize) {
    (offsets[idx] as usize, offsets[idx + 1] as usize)
}

/// One record's slice of an [`AddrColumns`] table.
#[derive(Debug, Clone, Copy)]
pub struct AddrsView<'a> {
    cols: &'a AddrColumns,
    start: usize,
    end: usize,
}

impl<'a> AddrsView<'a> {
    /// Number of addresses.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the record resolved no addresses.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The addresses.
    pub fn ips(&self) -> &'a [Ipv4Addr] {
        &self.cols.ips[self.start..self.end]
    }

    /// Country symbols, parallel to [`ips`](AddrsView::ips).
    pub fn countries(&self) -> &'a [CountrySym] {
        &self.cols.countries[self.start..self.end]
    }

    /// Origin ASes, parallel to [`ips`](AddrsView::ips).
    pub fn asns(&self) -> &'a [Option<Asn>] {
        &self.cols.asns[self.start..self.end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::Interner;
    use proptest::prelude::*;
    use ruwhere_types::{Country, DomainName};

    /// One address as pushed: last IPv4 octet, country, origin AS.
    type Addr = (u8, Option<Country>, Option<u32>);

    /// One record as pushed: domain, NS names, NS and apex addresses.
    type Rec = (&'static str, Vec<&'static str>, Vec<Addr>, Vec<Addr>);

    fn d(s: &str) -> DomainName {
        s.parse().expect("test domain")
    }

    fn build(interner: &Interner, records: &[Rec], stats: SweepStats) -> SweepFrame {
        let mut b = FrameBuilder::new(Date::from_ymd(2022, 3, 1));
        for (domain, ns_names, ns_addrs, apex_addrs) in records {
            b.begin_record(interner.intern_name(&d(domain)));
            for ns in ns_names {
                b.push_ns_name(interner.intern_name(&d(ns)));
            }
            for &(ip, c, asn) in ns_addrs {
                let ip = Ipv4Addr::new(10, 0, 0, ip);
                b.push_ns_addr(ip, interner.intern_country(c), asn.map(Asn));
            }
            for &(ip, c, asn) in apex_addrs {
                let ip = Ipv4Addr::new(10, 0, 0, ip);
                b.push_apex_addr(ip, interner.intern_country(c), asn.map(Asn));
            }
            b.end_record();
        }
        b.finish(stats, SweepMetrics::new())
    }

    /// Every record view reads back exactly what was pushed for it.
    fn assert_views_match(frame: &SweepFrame, interner: &Interner, records: &[Rec]) {
        let snap = interner.snapshot();
        assert_eq!(frame.len(), records.len());
        assert_eq!(frame.is_empty(), records.is_empty());
        for (rec, (domain, ns_names, ns_addrs, apex_addrs)) in frame.records().zip(records) {
            assert_eq!(snap.name(rec.domain_sym()), &d(domain));
            let names: Vec<DomainName> = rec
                .ns_name_syms()
                .iter()
                .map(|&s| snap.name(s).clone())
                .collect();
            assert_eq!(names, ns_names.iter().map(|n| d(n)).collect::<Vec<_>>());
            assert_eq!(rec.has_ns_data(), !ns_addrs.is_empty());
            assert_eq!(rec.has_apex_data(), !apex_addrs.is_empty());
            for (view, want) in [(rec.ns_addrs(), ns_addrs), (rec.apex_addrs(), apex_addrs)] {
                assert_eq!(view.len(), want.len());
                assert_eq!(view.is_empty(), want.is_empty());
                for (i, &(ip, c, asn)) in want.iter().enumerate() {
                    assert_eq!(view.ips()[i], Ipv4Addr::new(10, 0, 0, ip));
                    assert_eq!(snap.country(view.countries()[i]), c);
                    assert_eq!(view.asns()[i], asn.map(Asn));
                }
            }
        }
    }

    fn sample() -> Vec<Rec> {
        vec![
            (
                "alpha.ru",
                vec!["ns1.host.com", "ns2.host.com"],
                vec![(1, Some(Country::RU), Some(1)), (2, None, None)],
                vec![(3, Some(Country::SE), Some(2))],
            ),
            ("beta.ru", vec![], vec![], vec![]),
            (
                "gamma.com",
                vec!["ns1.host.com"],
                vec![(1, Some(Country::RU), Some(1))],
                vec![],
            ),
        ]
    }

    #[test]
    fn record_views_read_back_the_builder_input() {
        let interner = Interner::new();
        let stats = SweepStats {
            seeded: 3,
            queries: 17,
            ..SweepStats::default()
        };
        let frame = build(&interner, &sample(), stats);
        assert_eq!(frame.stats, stats);
        assert!(!frame.is_partial());
        assert_views_match(&frame, &interner, &sample());
        // Shared names intern once: `ns1.host.com` is one symbol in both
        // records that delegate to it.
        assert_eq!(
            frame.record(0).ns_name_syms()[0],
            frame.record(2).ns_name_syms()[0]
        );
        assert_eq!(frame.record(1).index(), 1);
    }

    #[test]
    fn strip_metrics_keeps_columns() {
        let interner = Interner::new();
        let mut frame = build(&interner, &sample(), SweepStats::default());
        frame.metrics.resolver.srtt_us.record(1000);
        let stripped = frame.clone().strip_metrics();
        assert!(stripped.metrics.is_empty());
        assert_eq!(stripped.domains, frame.domains);
        assert_eq!(stripped.stats, frame.stats);
    }

    /// One arbitrary record drawn from small pools (so symbol sharing
    /// actually happens across records).
    fn arb_record() -> impl Strategy<Value = Rec> {
        const DOMAINS: [&str; 6] = ["a.ru", "b.ru", "c.com", "d.su", "e.xn--p1ai", "f.org"];
        const HOSTS: [&str; 3] = ["ns1.h.com", "ns2.h.com", "ns.ru"];
        fn addr() -> impl Strategy<Value = Addr> {
            const COUNTRIES: [Option<Country>; 4] = [
                None,
                Some(Country::RU),
                Some(Country::SE),
                Some(Country::DE),
            ];
            (0u8..20, 0usize..4, 0u32..4)
                .prop_map(|(ip, c, a)| (ip, COUNTRIES[c], (a > 0).then_some(a)))
        }
        (
            0usize..DOMAINS.len(),
            proptest::collection::vec(0usize..HOSTS.len(), 0..4),
            proptest::collection::vec(addr(), 0..4),
            proptest::collection::vec(addr(), 0..3),
        )
            .prop_map(|(dom, nss, ns_addrs, apex_addrs)| {
                (
                    DOMAINS[dom],
                    nss.into_iter().map(|i| HOSTS[i]).collect(),
                    ns_addrs,
                    apex_addrs,
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn arbitrary_frames_read_back(records in proptest::collection::vec(arb_record(), 0..12)) {
            let interner = Interner::new();
            let frame = build(&interner, &records, SweepStats::default());
            assert_views_match(&frame, &interner, &records);
            // Rebuilding against the now-populated interner assigns the
            // same symbols.
            prop_assert_eq!(build(&interner, &records, SweepStats::default()), frame);
        }
    }
}
