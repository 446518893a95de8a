//! The columnar sweep store: one day's measurement output as
//! struct-of-arrays over interned symbols.
//!
//! A [`SweepFrame`] holds the same information as a [`DailySweep`] but in
//! six flat columns: a domain-symbol column, an NS-name symbol column and
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

use crate::record::{AddrInfo, Completeness, DailySweep, DomainDay, SweepStats};
use crate::sym::{CountrySym, Interner, Sym};
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
    /// Counters (identical to the row view's).
    pub stats: SweepStats,
    /// Observability section (identical to the row view's).
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

    /// Materialise the row view. Symbols must come from `interner`.
    pub fn to_daily_sweep(&self, interner: &Interner) -> DailySweep {
        let snap = interner.snapshot();
        let domains = self
            .records()
            .map(|rec| {
                let addrs = |v: &AddrsView<'_>| -> Vec<AddrInfo> {
                    (0..v.len())
                        .map(|i| AddrInfo {
                            ip: v.ips()[i],
                            country: snap.country(v.countries()[i]),
                            asn: v.asns()[i],
                        })
                        .collect()
                };
                DomainDay {
                    domain: snap.name(rec.domain_sym()).clone(),
                    ns_names: rec
                        .ns_name_syms()
                        .iter()
                        .map(|&s| snap.name(s).clone())
                        .collect(),
                    ns_addrs: addrs(&rec.ns_addrs()),
                    apex_addrs: addrs(&rec.apex_addrs()),
                }
            })
            .collect();
        DailySweep {
            date: self.date,
            domains,
            stats: self.stats,
            metrics: self.metrics.clone(),
        }
    }

    /// Build the columnar form of a row sweep, interning every name and
    /// country in record order. The inverse of
    /// [`to_daily_sweep`](SweepFrame::to_daily_sweep).
    pub fn from_daily_sweep(sweep: &DailySweep, interner: &Interner) -> SweepFrame {
        let mut b = FrameBuilder::new(sweep.date);
        for rec in &sweep.domains {
            b.begin_record(interner.intern_name(&rec.domain));
            for ns in &rec.ns_names {
                b.push_ns_name(interner.intern_name(ns));
            }
            for a in &rec.ns_addrs {
                b.push_ns_addr(a.ip, interner.intern_country(a.country), a.asn);
            }
            for a in &rec.apex_addrs {
                b.push_apex_addr(a.ip, interner.intern_country(a.country), a.asn);
            }
            b.end_record();
        }
        b.finish(sweep.stats, sweep.metrics.clone())
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

    /// Whether any name server resolved (cf. [`DomainDay::has_ns_data`]).
    pub fn has_ns_data(&self) -> bool {
        !self.ns_addrs().is_empty()
    }

    /// Whether the apex resolved (cf. [`DomainDay::has_apex_data`]).
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
    use proptest::prelude::*;
    use ruwhere_types::{Country, DomainName};

    fn d(s: &str) -> DomainName {
        s.parse().expect("test domain")
    }

    fn addr(last: u8, country: Option<Country>, asn: Option<u32>) -> AddrInfo {
        AddrInfo {
            ip: Ipv4Addr::new(10, 0, 0, last),
            country,
            asn: asn.map(Asn),
        }
    }

    fn sample_sweep() -> DailySweep {
        DailySweep {
            date: Date::from_ymd(2022, 3, 1),
            domains: vec![
                DomainDay {
                    domain: d("alpha.ru"),
                    ns_names: vec![d("ns1.host.com"), d("ns2.host.com")],
                    ns_addrs: vec![addr(1, Some(Country::RU), Some(1)), addr(2, None, None)],
                    apex_addrs: vec![addr(3, Some(Country::SE), Some(2))],
                },
                DomainDay {
                    domain: d("beta.ru"),
                    ns_names: vec![],
                    ns_addrs: vec![],
                    apex_addrs: vec![],
                },
                DomainDay {
                    domain: d("gamma.com"),
                    ns_names: vec![d("ns1.host.com")],
                    ns_addrs: vec![addr(1, Some(Country::RU), Some(1))],
                    apex_addrs: vec![],
                },
            ],
            stats: SweepStats {
                seeded: 3,
                queries: 17,
                ..SweepStats::default()
            },
            metrics: SweepMetrics::new(),
        }
    }

    #[test]
    fn round_trips_through_the_columnar_form() {
        let sweep = sample_sweep();
        let interner = Interner::new();
        let frame = SweepFrame::from_daily_sweep(&sweep, &interner);
        assert_eq!(frame.len(), 3);
        assert_eq!(frame.stats, sweep.stats);
        assert_eq!(frame.to_daily_sweep(&interner), sweep);
    }

    #[test]
    fn record_views_match_rows() {
        let sweep = sample_sweep();
        let interner = Interner::new();
        let frame = SweepFrame::from_daily_sweep(&sweep, &interner);
        let snap = interner.snapshot();
        for (rec, row) in frame.records().zip(&sweep.domains) {
            assert_eq!(snap.name(rec.domain_sym()), &row.domain);
            assert_eq!(rec.ns_name_syms().len(), row.ns_names.len());
            assert_eq!(rec.has_ns_data(), row.has_ns_data());
            assert_eq!(rec.has_apex_data(), row.has_apex_data());
            assert_eq!(rec.ns_addrs().ips().len(), row.ns_addrs.len());
            for (i, a) in row.apex_addrs.iter().enumerate() {
                let v = rec.apex_addrs();
                assert_eq!(v.ips()[i], a.ip);
                assert_eq!(snap.country(v.countries()[i]), a.country);
                assert_eq!(v.asns()[i], a.asn);
            }
        }
    }

    #[test]
    fn strip_metrics_keeps_columns() {
        let mut sweep = sample_sweep();
        sweep.metrics.resolver.srtt_us.record(1000);
        let interner = Interner::new();
        let frame = SweepFrame::from_daily_sweep(&sweep, &interner);
        let stripped = frame.clone().strip_metrics();
        assert!(stripped.metrics.is_empty());
        assert_eq!(stripped.domains, frame.domains);
        assert_eq!(stripped.stats, frame.stats);
    }

    /// One arbitrary record drawn from small pools (so symbol sharing
    /// actually happens across records).
    fn arb_record() -> impl Strategy<Value = DomainDay> {
        (
            0usize..12,
            proptest::collection::vec(0usize..6, 0..4),
            proptest::collection::vec((0u8..20, 0usize..4, 0usize..4), 0..4),
            proptest::collection::vec((0u8..20, 0usize..4, 0usize..4), 0..3),
        )
            .prop_map(|(dom, nss, ns_addrs, apex_addrs)| {
                let domains = ["a.ru", "b.ru", "c.com", "d.su", "e.xn--p1ai", "f.org"];
                let hosts = ["ns1.h.com", "ns2.h.com", "ns.ru"];
                let countries = [
                    None,
                    Some(Country::RU),
                    Some(Country::SE),
                    Some(Country::DE),
                ];
                let mk = |(ip, c, a): (u8, usize, usize)| AddrInfo {
                    ip: Ipv4Addr::new(10, 0, 0, ip),
                    country: countries[c % countries.len()],
                    asn: if a == 0 { None } else { Some(Asn(a as u32)) },
                };
                DomainDay {
                    domain: d(domains[dom % domains.len()]),
                    ns_names: nss.iter().map(|&i| d(hosts[i % hosts.len()])).collect(),
                    ns_addrs: ns_addrs.into_iter().map(mk).collect(),
                    apex_addrs: apex_addrs.into_iter().map(mk).collect(),
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn arbitrary_sweeps_round_trip(records in proptest::collection::vec(arb_record(), 0..12)) {
            let sweep = DailySweep {
                date: Date::from_ymd(2022, 2, 24),
                domains: records,
                stats: SweepStats::default(),
                metrics: SweepMetrics::new(),
            };
            let interner = Interner::new();
            let frame = SweepFrame::from_daily_sweep(&sweep, &interner);
            prop_assert_eq!(frame.to_daily_sweep(&interner), sweep);
            // Rebuilding against a pre-populated interner is stable too.
            let again = SweepFrame::from_daily_sweep(&frame.to_daily_sweep(&interner), &interner);
            prop_assert_eq!(again, frame);
        }
    }
}
