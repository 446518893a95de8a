//! Sweep-level observability — re-exported from [`ruwhere_store`], where
//! the section lives next to the [`SweepFrame`](ruwhere_store::SweepFrame)
//! that carries it.
//!
//! The scan crate keeps this module so existing
//! `ruwhere_scan::metrics::…` paths (and the `fail_key` vocabulary, whose
//! categories come from [`ScanError::category`](crate::ScanError::category))
//! continue to work unchanged.

pub use ruwhere_store::metrics::{fail_key, keys, SweepMetrics};
