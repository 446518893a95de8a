//! Row-oriented sweep records: the human-facing view of one measurement
//! day.
//!
//! [`DailySweep`]/[`DomainDay`] are the original per-row representation;
//! the sweep engine now builds the columnar [`SweepFrame`](crate::frame)
//! natively and materialises rows on demand
//! ([`SweepFrame::to_daily_sweep`](crate::SweepFrame::to_daily_sweep)).
//! Both carry the same [`SweepStats`] counters and
//! [`SweepMetrics`] section under the same contract:
//! byte-identical for any worker count.

use crate::metrics::SweepMetrics;
use ruwhere_types::{Asn, Country, Date, DomainName};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// One resolved address with its measurement-time annotations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddrInfo {
    /// The address.
    pub ip: Ipv4Addr,
    /// Country per the geolocation snapshot in force on the sweep date.
    pub country: Option<Country>,
    /// Origin AS per BGP-derived data.
    pub asn: Option<Asn>,
}

/// One domain's daily measurement record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DomainDay {
    /// The measured domain.
    pub domain: DomainName,
    /// NS RRset targets (name-server host names).
    pub ns_names: Vec<DomainName>,
    /// Resolved, annotated name-server addresses.
    pub ns_addrs: Vec<AddrInfo>,
    /// Resolved, annotated apex A records.
    pub apex_addrs: Vec<AddrInfo>,
}

impl DomainDay {
    /// Whether any name server resolved.
    pub fn has_ns_data(&self) -> bool {
        !self.ns_addrs.is_empty()
    }

    /// Whether the apex resolved.
    pub fn has_apex_data(&self) -> bool {
        !self.apex_addrs.is_empty()
    }
}

/// Whether a sweep's dataset is complete or was salvaged from a day of
/// heavy measurement failure (an infrastructure outage, Figure-1 style).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Completeness {
    /// The sweep resolved normally; failures are kept as unknown-bucket
    /// records.
    #[default]
    Full,
    /// The day's failure rate exceeded the salvage threshold: unresolved
    /// records were dropped, leaving only what actually measured. The raw
    /// daily total visibly dips — exactly how the real dataset records an
    /// outage day.
    Partial,
}

/// Aggregate counters for one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Domains seeded from the zone snapshots.
    pub seeded: u64,
    /// Domains with a fully failed NS resolution.
    pub ns_failures: u64,
    /// Domains with a failed apex resolution.
    pub apex_failures: u64,
    /// Total DNS queries emitted.
    pub queries: u64,
    /// Virtual (simulated) time the sweep took, in microseconds, summed
    /// over every measurement lane — the latency cost of active
    /// measurement at this scale (cf. the OpenINTEL infrastructure
    /// paper's throughput engineering).
    pub virtual_elapsed_us: u64,
    /// Queries that timed out (per-cause failure accounting).
    pub timeouts: u64,
    /// Queries answered SERVFAIL.
    pub servfails: u64,
    /// Queries answered lamely.
    pub lame: u64,
    /// Failed exchanges charged to resolver retry budgets — the wasted
    /// query cost of server misbehaviour during this sweep.
    pub retries_spent: u64,
    /// NS-target address lookups served from the shared sweep cache.
    pub ns_cache_hits: u64,
    /// NS-target address lookups that had to resolve (one per distinct
    /// name-server host per sweep).
    pub ns_cache_misses: u64,
    /// Shard workers that panicked and were successfully re-run by the
    /// supervisor (the sweep recovered; output may differ from a clean
    /// run only in cache-cost accounting).
    pub shards_retried: u64,
    /// Shard workers lost for good — panicked twice. Their domains
    /// degrade into per-cause failure records (`worker_lost`) and flow
    /// into the partial-sweep salvage path.
    pub shards_lost: u64,
    /// Whether the sweep is full or a salvaged partial.
    pub completeness: Completeness,
}

/// One day's complete measurement output, row form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DailySweep {
    /// Sweep date.
    pub date: Date,
    /// Per-domain records (zone-snapshot order).
    pub domains: Vec<DomainDay>,
    /// Counters.
    pub stats: SweepStats,
    /// The sweep's observability section: per-cause latency histograms,
    /// transport and resolver aggregates. Empty when the scanner ran with
    /// `SweepOptions::collect_metrics(false)`; byte-identical for any
    /// worker count otherwise (same contract as `stats`).
    pub metrics: SweepMetrics,
}

impl DailySweep {
    /// Whether this sweep was salvaged as partial (outage day).
    pub fn is_partial(&self) -> bool {
        self.stats.completeness == Completeness::Partial
    }
}
