//! Longest-prefix-match routing table: one hash map per prefix length.

use crate::ip::Ipv4Net;
use ruwhere_types::FnvMap;
use std::net::Ipv4Addr;

/// IPv4 prefixes mapped to values, one hash map per prefix length.
///
/// Lookup masks the address to each length that holds a prefix, longest
/// first, and returns the value of the first hit: the most specific
/// matching prefix, the standard FIB longest-prefix-match. A table holds
/// a few distinct lengths, so a lookup is a few hash probes.
///
/// ```
/// use ruwhere_netsim::RoutingTable;
/// let mut t = RoutingTable::new();
/// t.insert("10.0.0.0/8".parse().unwrap(), "coarse");
/// t.insert("10.1.0.0/16".parse().unwrap(), "fine");
/// assert_eq!(t.lookup("10.1.2.3".parse().unwrap()), Some(&"fine"));
/// assert_eq!(t.lookup("10.9.9.9".parse().unwrap()), Some(&"coarse"));
/// assert_eq!(t.lookup("192.0.2.1".parse().unwrap()), None);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable<V> {
    /// `by_len[l]`: the /`l` prefixes, keyed by their network address.
    by_len: [FnvMap<u32, V>; 33],
    /// Bit `l` is set when `by_len[l]` is not empty.
    lens: u64,
}

/// The network mask of a /`len` prefix.
fn mask(len: u32) -> u32 {
    u32::MAX.checked_shl(32 - len).unwrap_or(0)
}

impl<V> RoutingTable<V> {
    /// Empty table.
    pub fn new() -> Self {
        RoutingTable {
            by_len: std::array::from_fn(|_| FnvMap::default()),
            lens: 0,
        }
    }

    /// Number of prefixes with a value.
    pub fn len(&self) -> usize {
        self.by_len.iter().map(|m| m.len()).sum()
    }

    /// Whether the table holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.lens == 0
    }

    /// Insert (or replace) the value at `net`. Returns the previous value.
    pub fn insert(&mut self, net: Ipv4Net, value: V) -> Option<V> {
        let l = net.prefix_len();
        self.lens |= 1 << l;
        self.by_len[usize::from(l)].insert(net.bits(), value)
    }

    /// Remove the value at exactly `net`. Returns the removed value.
    pub fn remove(&mut self, net: Ipv4Net) -> Option<V> {
        let l = net.prefix_len();
        let map = &mut self.by_len[usize::from(l)];
        let old = map.remove(&net.bits());
        if map.is_empty() {
            self.lens &= !(1 << l);
        }
        old
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<&V> {
        let bits = u32::from(ip);
        let mut lens = self.lens;
        while lens != 0 {
            let l = 63 - lens.leading_zeros();
            if let Some(v) = self.by_len[l as usize].get(&(bits & mask(l))) {
                return Some(v);
            }
            lens &= !(1 << l);
        }
        None
    }

    /// Exact-match lookup of a prefix (not LPM).
    pub fn get(&self, net: Ipv4Net) -> Option<&V> {
        self.by_len[usize::from(net.prefix_len())].get(&net.bits())
    }
}

impl<V> Default for RoutingTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(s: &str) -> Ipv4Net {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let mut t = RoutingTable::new();
        t.insert(net("0.0.0.0/0"), 0);
        t.insert(net("10.0.0.0/8"), 8);
        t.insert(net("10.1.0.0/16"), 16);
        t.insert(net("10.1.2.0/24"), 24);
        t.insert(net("10.1.2.3/32"), 32);
        assert_eq!(t.lookup(ip("10.1.2.3")), Some(&32));
        assert_eq!(t.lookup(ip("10.1.2.4")), Some(&24));
        assert_eq!(t.lookup(ip("10.1.3.1")), Some(&16));
        assert_eq!(t.lookup(ip("10.2.0.1")), Some(&8));
        assert_eq!(t.lookup(ip("11.0.0.1")), Some(&0));
    }

    #[test]
    fn insert_replace_and_remove() {
        let mut t = RoutingTable::new();
        assert_eq!(t.insert(net("192.0.2.0/24"), "a"), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.insert(net("192.0.2.0/24"), "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(net("192.0.2.0/24")), Some(&"b"));
        assert_eq!(t.remove(net("192.0.2.0/24")), Some("b"));
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup(ip("192.0.2.1")), None);
        assert_eq!(t.remove(net("192.0.2.0/24")), None);
    }

    #[test]
    fn removal_keeps_covering_prefix() {
        let mut t = RoutingTable::new();
        t.insert(net("10.0.0.0/8"), "big");
        t.insert(net("10.1.0.0/16"), "small");
        assert_eq!(t.lookup(ip("10.1.1.1")), Some(&"small"));
        t.remove(net("10.1.0.0/16"));
        assert_eq!(t.lookup(ip("10.1.1.1")), Some(&"big"));
    }

    #[test]
    fn empty_table() {
        let t: RoutingTable<u8> = RoutingTable::new();
        assert!(t.is_empty());
        assert_eq!(t.lookup(ip("1.2.3.4")), None);
    }

    #[test]
    fn exact_get_is_not_lpm() {
        let mut t = RoutingTable::new();
        t.insert(net("10.0.0.0/8"), 1);
        assert_eq!(t.get(net("10.0.0.0/8")), Some(&1));
        assert_eq!(t.get(net("10.0.0.0/16")), None);
    }

    #[test]
    fn dense_random_consistency() {
        // Cross-check the table against a brute-force scan on random data.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xDA7A);
        let mut t = RoutingTable::new();
        let mut reference: Vec<(Ipv4Net, u32)> = Vec::new();
        for i in 0..500u32 {
            let addr = Ipv4Addr::from(rng.random::<u32>());
            let len = rng.random_range(4..=28);
            let n = Ipv4Net::new(addr, len).unwrap();
            t.insert(n, i);
            reference.retain(|(rn, _)| *rn != n);
            reference.push((n, i));
        }
        for _ in 0..2000 {
            let probe = Ipv4Addr::from(rng.random::<u32>());
            let expected = reference
                .iter()
                .filter(|(n, _)| n.contains(probe))
                .max_by_key(|(n, _)| n.prefix_len())
                .map(|(_, v)| v);
            assert_eq!(t.lookup(probe), expected, "mismatch at {probe}");
        }
    }
}
