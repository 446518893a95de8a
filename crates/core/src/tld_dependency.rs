//! Name-server TLD dependency (Figures 2 and 3).
//!
//! > "We extract the TLD of each name server to which .ru and .рф domain
//! > names delegate authority. If all of a domain's name servers are
//! > exclusively registered under the Russian Federation TLDs, we consider
//! > the TLD dependency fully Russian. … if only a subset are Russian TLDs,
//! > we consider it partial, otherwise we consider it non Russian." — §3.1

use crate::composition::{Composition, CompositionCounts};
use crate::engine::FrameObserver;
use ruwhere_store::{InternerSnap, RecordView, SweepFrame, TldSym};
use ruwhere_types::Date;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Longitudinal full/partial/non series over NS-name TLDs (Figure 2).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TldDependencySeries {
    days: BTreeMap<Date, CompositionCounts>,
    scratch: CompositionCounts,
}

impl TldDependencySeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-date counts in date order.
    pub fn rows(&self) -> impl Iterator<Item = (Date, &CompositionCounts)> {
        self.days.iter().map(|(d, c)| (*d, c))
    }

    /// Counts on one date.
    pub fn at(&self, date: Date) -> Option<&CompositionCounts> {
        self.days.get(&date)
    }

    /// Net percentage-point change in the full/partial/non shares between
    /// the first and last observation ("a net reduction of 6.3 %" — §3.1).
    pub fn net_change(&self) -> Option<(f64, f64, f64)> {
        let first = self.days.values().next()?;
        let last = self.days.values().next_back()?;
        Some((
            last.pct_full() - first.pct_full(),
            last.pct_partial() - first.pct_partial(),
            last.pct_non() - first.pct_non(),
        ))
    }
}

impl FrameObserver for TldDependencySeries {
    fn begin_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {
        self.scratch = CompositionCounts::default();
    }

    fn observe_record(&mut self, rec: &RecordView<'_>, snap: &InternerSnap<'_>) {
        let (mut ru, mut other) = (0usize, 0usize);
        for &ns in rec.ns_name_syms() {
            if snap.tld_is_russian(snap.tld_of(ns)) {
                ru += 1;
            } else {
                other += 1;
            }
        }
        self.scratch.bump(Composition::from_counts(ru, other));
    }

    fn end_frame(&mut self, frame: &SweepFrame, _snap: &InternerSnap<'_>) {
        self.days.insert(frame.date, self.scratch);
    }
}

/// Longitudinal per-TLD usage: for each date, how many domains delegate to
/// at least one name server under each TLD (Figure 3 — shares can sum to
/// more than 100 % because domains use multiple TLDs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TldUsageSeries {
    days: BTreeMap<Date, BTreeMap<String, u64>>,
    totals: BTreeMap<Date, u64>,
    /// Per-frame counts keyed by TLD symbol; resolved to strings once at
    /// `end_frame` instead of once per record.
    scratch: BTreeMap<TldSym, u64>,
    scratch_total: u64,
}

impl TldUsageSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct TLDs ever observed (the paper counts 270).
    pub fn distinct_tlds(&self) -> usize {
        let mut set = std::collections::BTreeSet::new();
        for m in self.days.values() {
            set.extend(m.keys().cloned());
        }
        set.len()
    }

    /// The top `n` TLDs by usage on the final observed date.
    pub fn top_tlds(&self, n: usize) -> Vec<String> {
        let Some(last) = self.days.values().next_back() else {
            return Vec::new();
        };
        let mut v: Vec<(&String, &u64)> = last.iter().collect();
        v.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        v.into_iter().take(n).map(|(t, _)| t.clone()).collect()
    }

    /// Usage share (%) of `tld` on `date`.
    pub fn share(&self, date: Date, tld: &str) -> Option<f64> {
        let counts = self.days.get(&date)?;
        let total = *self.totals.get(&date)? as f64;
        Some(100.0 * *counts.get(tld).unwrap_or(&0) as f64 / total.max(1.0))
    }

    /// All observed dates in order.
    pub fn dates(&self) -> impl Iterator<Item = Date> + '_ {
        self.days.keys().copied()
    }
}

impl FrameObserver for TldUsageSeries {
    fn begin_frame(&mut self, _frame: &SweepFrame, _snap: &InternerSnap<'_>) {
        self.scratch.clear();
        self.scratch_total = 0;
    }

    fn observe_record(&mut self, rec: &RecordView<'_>, snap: &InternerSnap<'_>) {
        let ns = rec.ns_name_syms();
        if ns.is_empty() {
            return;
        }
        self.scratch_total += 1;
        let mut tlds: Vec<TldSym> = ns.iter().map(|&n| snap.tld_of(n)).collect();
        tlds.sort_unstable();
        tlds.dedup();
        for t in tlds {
            *self.scratch.entry(t).or_default() += 1;
        }
    }

    fn end_frame(&mut self, frame: &SweepFrame, snap: &InternerSnap<'_>) {
        let counts: BTreeMap<String, u64> = self
            .scratch
            .iter()
            .map(|(&t, &n)| (snap.tld(t).to_owned(), n))
            .collect();
        self.days.insert(frame.date, counts);
        self.totals.insert(frame.date, self.scratch_total);
        self.scratch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{Fixture, Rec};

    fn rec(domain: &'static str, ns: &[&'static str]) -> Rec {
        Rec::new(domain).ns(ns)
    }

    #[test]
    fn dependency_classification() {
        let d = Date::from_ymd(2022, 1, 1);
        let mut series = TldDependencySeries::new();
        Fixture::new().feed(
            &mut series,
            d,
            &[
                rec("a.ru", &["ns1.reg.ru", "ns2.reg.ru"]),
                rec("b.ru", &["ns1.beget.ru", "ns2.beget.pro"]),
                rec("c.ru", &["alla.ns.cloudflare.com"]),
                rec("d.xn--p1ai", &["ns1.reg.ru"]),
                rec("e.ru", &[]),
            ],
        );
        let c = series.at(d).unwrap();
        assert_eq!((c.full, c.partial, c.non, c.unknown), (2, 1, 1, 1));
    }

    #[test]
    fn rf_tld_counts_as_russian() {
        let d = Date::from_ymd(2022, 1, 1);
        let mut series = TldDependencySeries::new();
        Fixture::new().feed(&mut series, d, &[rec("a.ru", &["ns1.dns.xn--p1ai"])]);
        assert_eq!(series.at(d).unwrap().full, 1);
    }

    #[test]
    fn net_change() {
        let fx = Fixture::new();
        let mut series = TldDependencySeries::new();
        fx.feed(
            &mut series,
            Date::from_ymd(2022, 1, 1),
            &[rec("a.ru", &["ns1.x.ru"]), rec("b.ru", &["ns1.y.com"])],
        );
        fx.feed(
            &mut series,
            Date::from_ymd(2022, 2, 1),
            &[rec("a.ru", &["ns1.x.com"]), rec("b.ru", &["ns1.y.com"])],
        );
        let (df, dp, dn) = series.net_change().unwrap();
        assert!((df - -50.0).abs() < 1e-9);
        assert!((dp - 0.0).abs() < 1e-9);
        assert!((dn - 50.0).abs() < 1e-9);
    }

    #[test]
    fn usage_counts_each_domain_once_per_tld() {
        let d = Date::from_ymd(2022, 1, 1);
        let mut usage = TldUsageSeries::new();
        Fixture::new().feed(
            &mut usage,
            d,
            &[
                // Two .ru NS: counts once for .ru.
                rec("a.ru", &["ns1.reg.ru", "ns2.reg.ru"]),
                rec("b.ru", &["ns1.beget.ru", "ns2.beget.pro"]),
                rec("c.ru", &["x.cloudflare.com", "y.cloudflare.com"]),
            ],
        );
        assert_eq!(usage.share(d, "ru"), Some(100.0 * 2.0 / 3.0));
        assert_eq!(usage.share(d, "pro"), Some(100.0 / 3.0));
        assert_eq!(usage.share(d, "com"), Some(100.0 / 3.0));
        assert_eq!(usage.share(d, "net"), Some(0.0));
        assert_eq!(usage.distinct_tlds(), 3);
        assert_eq!(usage.top_tlds(2), vec!["ru".to_owned(), "com".to_owned()]);
    }

    #[test]
    fn shares_can_exceed_100_in_total() {
        let d = Date::from_ymd(2022, 1, 1);
        let mut usage = TldUsageSeries::new();
        Fixture::new().feed(
            &mut usage,
            d,
            &[rec("a.ru", &["ns1.x.ru", "ns2.x.com", "ns3.x.net"])],
        );
        let sum = usage.share(d, "ru").unwrap()
            + usage.share(d, "com").unwrap()
            + usage.share(d, "net").unwrap();
        assert!((sum - 300.0).abs() < 1e-9);
    }
}
