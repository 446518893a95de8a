//! Authoritative server: zone storage and query answering.

use parking_lot::RwLock;
use ruwhere_dns::message::put_header;
use ruwhere_dns::wire::Encoder;
use ruwhere_dns::zone::{Glue, Lookup, RRset};
use ruwhere_dns::{Flags, Message, MessageView, Name, NameKey, RData, RType, Rcode, Record, Zone};
use ruwhere_netsim::{Service, SimTime};
use ruwhere_types::FnvMap;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A set of zones served by one operator, keyed by origin.
#[derive(Debug, Default)]
pub struct ZoneSet {
    zones: FnvMap<NameKey, Zone>,
}

impl ZoneSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a zone; keyed by its origin.
    pub fn insert(&mut self, zone: Zone) {
        self.zones.insert(NameKey(zone.origin().clone()), zone);
    }

    /// Remove the zone with `origin`.
    pub fn remove(&mut self, origin: &Name) -> Option<Zone> {
        self.zones.remove(origin)
    }

    /// Number of zones.
    pub fn len(&self) -> usize {
        self.zones.len()
    }

    /// Whether no zones are present.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Direct access to a zone by origin.
    pub fn get(&self, origin: &Name) -> Option<&Zone> {
        self.zones.get(origin)
    }

    /// Mutable access to a zone by origin.
    pub fn get_mut(&mut self, origin: &Name) -> Option<&mut Zone> {
        self.zones.get_mut(origin)
    }

    /// The zone with the deepest origin that is an ancestor of (or equal
    /// to) the name with lowercase labels `qname` ([`Name::as_labels`],
    /// [`NameView::lower_labels`]) — the zone this operator would answer
    /// from. Each suffix is looked up, longest first, down to the root.
    ///
    /// [`NameView::lower_labels`]: ruwhere_dns::NameView::lower_labels
    pub fn find_best(&self, qname: &[u8]) -> Option<&Zone> {
        let mut at = 0;
        loop {
            if let Some(z) = self.zones.get(&qname[at..]) {
                return Some(z);
            }
            if at == qname.len() {
                return None;
            }
            at += 1 + usize::from(qname[at]);
        }
    }
}

/// Shared, mutable zone storage: the world driver updates zones while the
/// network holds the serving side.
pub type SharedZoneSet = Arc<RwLock<ZoneSet>>;

/// How the server responds — the observable modes of provider behaviour
/// during the 2022 disengagements, plus the degraded modes the
/// fault-injection layer exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerBehavior {
    /// Answer authoritatively from the zone set.
    Normal,
    /// Respond `REFUSED` to everything (service terminated, box still up).
    Refused,
    /// Never respond (black-holed / decommissioned).
    Silent,
    /// Respond `SERVFAIL` to everything (frontend up, backend broken).
    ServFail,
    /// Respond with `TC=1` and empty sections (reply would not fit; the
    /// UDP-only measurement client cannot use it).
    Truncated,
    /// Lame: answer `NOERROR` non-authoritatively with nothing — the box
    /// is up but does not actually serve the delegated zone.
    Lame,
}

/// The authoritative DNS service bound into the simulated network.
pub struct AuthServer {
    zones: SharedZoneSet,
    behavior: Arc<RwLock<ServerBehavior>>,
}

impl AuthServer {
    /// New server over `zones` with [`ServerBehavior::Normal`].
    pub fn new(zones: SharedZoneSet) -> Self {
        AuthServer {
            zones,
            behavior: Arc::new(RwLock::new(ServerBehavior::Normal)),
        }
    }

    /// Handle to flip behaviour later (provider exits mid-simulation).
    pub fn behavior_handle(&self) -> Arc<RwLock<ServerBehavior>> {
        Arc::clone(&self.behavior)
    }

    /// Answer `query` against the zone set: the owned form of the reply
    /// the server sends on the wire, from the same borrowed lookup.
    pub fn answer(zones: &ZoneSet, query: &Message) -> Message {
        match query.questions.first() {
            None => Message::response_to(query, Rcode::FormErr),
            Some(q) => Reply::lookup(zones, q.name.as_labels(), q.rtype).to_message(query),
        }
    }

    /// The full request path: behaviour gate, parse, answer, encode. It
    /// needs only shared access (zones and behaviour live behind their
    /// own locks). It looks the question up by its label bytes and
    /// encodes the reply straight from the zone's records and the query's
    /// bytes, so the only allocation is the reply itself.
    fn respond(&self, payload: &[u8]) -> Option<Vec<u8>> {
        let behavior = *self.behavior.read();
        if behavior == ServerBehavior::Silent {
            return None;
        }
        let query = MessageView::parse(payload).ok()?;
        if query.is_response() || query.question_count() == 0 {
            return None;
        }
        let zones;
        let reply = match behavior {
            ServerBehavior::Refused => Reply::bare(Rcode::Refused),
            ServerBehavior::ServFail => Reply::bare(Rcode::ServFail),
            ServerBehavior::Truncated => Reply {
                tc: true,
                ..Reply::bare(Rcode::NoError)
            },
            ServerBehavior::Lame => Reply::bare(Rcode::NoError),
            ServerBehavior::Normal | ServerBehavior::Silent => {
                zones = self.zones.read();
                let q = query.questions().next()?;
                Reply::lookup(&zones, q.name.lower_labels(&mut [0; 255]), q.rtype)
            }
        };
        reply.encode(&query)
    }
}

thread_local! {
    /// The encoder every reply on this thread is written into before it is
    /// copied out at its exact size. Servers are shared by all the lanes
    /// of a sweep, which run on many threads, so the reuse is per thread.
    static REPLY_ENCODER: RefCell<Encoder> = RefCell::new(Encoder::new());
}

/// Longest in-zone CNAME chain a reply follows: the CNAME at the question
/// and up to eight more.
const MAX_CHAIN: usize = 9;

/// One reply, borrowed from the zone it answers from: the header bits and
/// the records of its sections. [`AuthServer::answer`] clones it into a
/// [`Message`]; [`AuthServer::respond`] encodes it directly.
struct Reply<'z> {
    rcode: Rcode,
    aa: bool,
    tc: bool,
    /// The in-zone CNAME chain from the question on.
    chain: [Option<&'z Record>; MAX_CHAIN],
    /// Then the records of the queried type.
    answer: Option<RRset<'z>>,
    /// The authority section.
    authority: Authority<'z>,
    /// The additional section: glue for a referral.
    glue: Option<Glue<'z>>,
}

/// What a reply's authority section holds.
enum Authority<'z> {
    None,
    /// The cut's NS records, on a referral.
    Ns(RRset<'z>),
    /// The zone's SOA, on a negative answer.
    Soa(&'z Record),
}

impl<'z> Reply<'z> {
    /// A reply with `rcode` and empty sections.
    fn bare(rcode: Rcode) -> Self {
        Reply {
            rcode,
            aa: false,
            tc: false,
            chain: [None; MAX_CHAIN],
            answer: None,
            authority: Authority::None,
            glue: None,
        }
    }

    /// The authoritative answer to the name with lowercase labels
    /// `qname` and type `qtype` from the zone set.
    fn lookup(zones: &'z ZoneSet, qname: &[u8], qtype: RType) -> Self {
        let Some(zone) = zones.find_best(qname) else {
            return Reply::bare(Rcode::Refused);
        };
        let mut reply = Reply::bare(Rcode::NoError);
        match zone.lookup_labels(qname, qtype) {
            Lookup::Answer(records) => {
                reply.aa = true;
                reply.answer = Some(records);
            }
            Lookup::Cname(cname) => {
                reply.aa = true;
                // Chase in-zone as far as possible, like real servers do.
                reply.chain[0] = Some(cname);
                let mut target = cname;
                for link in &mut reply.chain[1..] {
                    let RData::Cname(next) = &target.data else {
                        unreachable!("Lookup::Cname holds a CNAME")
                    };
                    match zone.lookup(next, qtype) {
                        Lookup::Answer(records) => {
                            reply.answer = Some(records);
                            break;
                        }
                        Lookup::Cname(cname) => {
                            *link = Some(cname);
                            target = cname;
                        }
                        _ => break,
                    }
                }
            }
            Lookup::Delegation { ns, glue } => {
                reply.authority = Authority::Ns(ns);
                reply.glue = Some(glue);
            }
            Lookup::NoData => {
                reply.aa = true;
                reply.authority = Authority::Soa(zone.soa_record());
            }
            Lookup::NxDomain => {
                reply.aa = true;
                reply.rcode = Rcode::NxDomain;
                reply.authority = Authority::Soa(zone.soa_record());
            }
            Lookup::OutOfZone => reply.rcode = Rcode::Refused,
        }
        reply
    }

    /// The reply's header flags, answering a query with flags `query`.
    fn flags(&self, query: Flags) -> Flags {
        Flags {
            aa: self.aa,
            tc: self.tc,
            ..Flags::reply_to(query, self.rcode)
        }
    }

    fn answers(&self) -> impl Iterator<Item = &'z Record> + '_ {
        self.chain
            .iter()
            .map_while(|r| *r)
            .chain(self.answer.iter().flat_map(|a| a.iter()))
    }

    fn authorities(&self) -> impl Iterator<Item = &'z Record> + '_ {
        let (ns, soa) = match &self.authority {
            Authority::None => (None, None),
            Authority::Ns(ns) => (Some(ns), None),
            Authority::Soa(soa) => (None, Some(*soa)),
        };
        ns.into_iter().flat_map(|ns| ns.iter()).chain(soa)
    }

    fn additionals(&self) -> impl Iterator<Item = &'z Record> + '_ {
        self.glue.iter().flat_map(|g| g.iter())
    }

    /// The reply as a [`Message`] answering `query`.
    fn to_message(&self, query: &Message) -> Message {
        Message {
            id: query.id,
            flags: self.flags(query.flags),
            questions: query.questions.clone(),
            answers: self.answers().cloned().collect(),
            authorities: self.authorities().cloned().collect(),
            additionals: self.additionals().cloned().collect(),
        }
    }

    /// The reply's wire bytes answering `query`: byte for byte
    /// `self.to_message(&query.to_message()).encode()`.
    fn encode(&self, query: &MessageView<'_>) -> Option<Vec<u8>> {
        REPLY_ENCODER.with(|enc| {
            let enc = &mut *enc.borrow_mut();
            enc.clear();
            // The record counts are patched in once the sections are
            // written, so each section is walked once.
            let counts = [query.question_count(), 0, 0, 0];
            put_header(enc, query.id(), self.flags(query.flags()), counts);
            for q in query.questions() {
                q.encode(enc);
            }
            let sections = [
                encode_all(enc, self.answers()),
                encode_all(enc, self.authorities()),
                encode_all(enc, self.additionals()),
            ];
            for (at, n) in [6, 8, 10].into_iter().zip(sections) {
                enc.patch_u16(at, n);
            }
            enc.message().ok().map(<[u8]>::to_vec)
        })
    }
}

/// Encode `records` into `enc`; returns how many there were.
fn encode_all<'z>(enc: &mut Encoder, records: impl Iterator<Item = &'z Record>) -> u16 {
    let mut n = 0u16;
    for r in records {
        r.encode(enc);
        n = n.wrapping_add(1);
    }
    n
}

impl Service for AuthServer {
    fn handle(&mut self, payload: &[u8], _src: (Ipv4Addr, u16), _now: SimTime) -> Option<Vec<u8>> {
        self.respond(payload)
    }

    fn handle_concurrent(
        &self,
        payload: &[u8],
        _src: (Ipv4Addr, u16),
        _now: SimTime,
    ) -> Option<Option<Vec<u8>>> {
        // Every parallel sweep lane walks through the same root and TLD
        // boxes; answering under shared access keeps them off each
        // other's critical path.
        Some(self.respond(payload))
    }

    fn processing_us(&self) -> u64 {
        250
    }
}

/// Convenience: build a shared zone set from zones.
pub fn shared_zones<I: IntoIterator<Item = Zone>>(zones: I) -> SharedZoneSet {
    let mut set = ZoneSet::new();
    for z in zones {
        set.insert(z);
    }
    Arc::new(RwLock::new(set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruwhere_dns::{RData, RType, Record, SoaData};

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn soa() -> SoaData {
        SoaData {
            mname: name("ns.op.ru"),
            rname: name("host.op.ru"),
            serial: 1,
            refresh: 1,
            retry: 1,
            expire: 1,
            minimum: 60,
        }
    }

    fn example_zone() -> Zone {
        let mut z = Zone::new(name("example.ru"), soa(), 3600);
        z.add(Record::new(
            name("example.ru"),
            300,
            RData::A("192.0.2.10".parse().unwrap()),
        ));
        z.add(Record::new(
            name("example.ru"),
            300,
            RData::Ns(name("ns1.dns-op.ru")),
        ));
        z.add(Record::new(
            name("www.example.ru"),
            300,
            RData::Cname(name("example.ru")),
        ));
        z
    }

    #[test]
    fn zoneset_deepest_match() {
        let mut zs = ZoneSet::new();
        zs.insert(Zone::new(name("ru"), soa(), 3600));
        zs.insert(example_zone());
        assert_eq!(
            zs.find_best(name("www.example.ru").as_labels())
                .unwrap()
                .origin(),
            &name("example.ru")
        );
        assert_eq!(
            zs.find_best(name("other.ru").as_labels()).unwrap().origin(),
            &name("ru")
        );
        assert!(zs.find_best(name("example.com").as_labels()).is_none());
        assert_eq!(zs.len(), 2);
    }

    #[test]
    fn answer_a_query() {
        let zones = shared_zones([example_zone()]);
        let q = Message::query(1, name("example.ru"), RType::A);
        let resp = AuthServer::answer(&zones.read(), &q);
        assert_eq!(resp.flags.rcode, Rcode::NoError);
        assert!(resp.flags.aa);
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn answer_cname_chases_in_zone() {
        let zones = shared_zones([example_zone()]);
        let q = Message::query(1, name("www.example.ru"), RType::A);
        let resp = AuthServer::answer(&zones.read(), &q);
        // CNAME plus the chased A record.
        assert_eq!(resp.answers.len(), 2);
        assert_eq!(resp.answers[0].data.rtype(), RType::Cname);
        assert_eq!(resp.answers[1].data.rtype(), RType::A);
    }

    #[test]
    fn answer_nxdomain_and_nodata() {
        let zones = shared_zones([example_zone()]);
        let q = Message::query(1, name("missing.example.ru"), RType::A);
        let resp = AuthServer::answer(&zones.read(), &q);
        assert_eq!(resp.flags.rcode, Rcode::NxDomain);
        assert_eq!(resp.authorities.len(), 1, "negative answers carry the SOA");

        let q = Message::query(1, name("example.ru"), RType::Mx);
        let resp = AuthServer::answer(&zones.read(), &q);
        assert_eq!(resp.flags.rcode, Rcode::NoError);
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities.len(), 1);
    }

    #[test]
    fn answer_refused_outside_authority() {
        let zones = shared_zones([example_zone()]);
        let q = Message::query(1, name("example.com"), RType::A);
        let resp = AuthServer::answer(&zones.read(), &q);
        assert_eq!(resp.flags.rcode, Rcode::Refused);
    }

    #[test]
    fn service_behaviors() {
        let zones = shared_zones([example_zone()]);
        let mut srv = AuthServer::new(Arc::clone(&zones));
        let behavior = srv.behavior_handle();
        let q = Message::query(9, name("example.ru"), RType::A)
            .encode()
            .unwrap();
        let src = ("10.0.0.1".parse().unwrap(), 40000);

        let out = srv.handle(&q, src, SimTime::ZERO).unwrap();
        assert_eq!(Message::decode(&out).unwrap().flags.rcode, Rcode::NoError);

        *behavior.write() = ServerBehavior::Refused;
        let out = srv.handle(&q, src, SimTime::ZERO).unwrap();
        assert_eq!(Message::decode(&out).unwrap().flags.rcode, Rcode::Refused);

        *behavior.write() = ServerBehavior::ServFail;
        let out = srv.handle(&q, src, SimTime::ZERO).unwrap();
        assert_eq!(Message::decode(&out).unwrap().flags.rcode, Rcode::ServFail);

        *behavior.write() = ServerBehavior::Truncated;
        let out = srv.handle(&q, src, SimTime::ZERO).unwrap();
        let m = Message::decode(&out).unwrap();
        assert!(m.flags.tc);
        assert!(m.answers.is_empty());

        *behavior.write() = ServerBehavior::Lame;
        let out = srv.handle(&q, src, SimTime::ZERO).unwrap();
        let m = Message::decode(&out).unwrap();
        assert_eq!(m.flags.rcode, Rcode::NoError);
        assert!(!m.flags.aa);
        assert!(m.answers.is_empty() && m.authorities.is_empty());

        *behavior.write() = ServerBehavior::Silent;
        assert!(srv.handle(&q, src, SimTime::ZERO).is_none());
    }

    #[test]
    fn service_ignores_garbage_and_responses() {
        let zones = shared_zones([example_zone()]);
        let mut srv = AuthServer::new(zones);
        let src = ("10.0.0.1".parse().unwrap(), 40000);
        assert!(srv.handle(b"not dns", src, SimTime::ZERO).is_none());
        let q = Message::query(9, name("example.ru"), RType::A);
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.flags.qr = true;
        assert!(srv
            .handle(&resp.encode().unwrap(), src, SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn zone_updates_visible_through_shared_set() {
        let zones = shared_zones([example_zone()]);
        let mut srv = AuthServer::new(Arc::clone(&zones));
        let src = ("10.0.0.1".parse().unwrap(), 40000);
        let q = Message::query(9, name("example.ru"), RType::A)
            .encode()
            .unwrap();

        // Mutate the zone from "outside" (the world driver's daily update).
        {
            let mut g = zones.write();
            let z = g.get_mut(&name("example.ru")).unwrap();
            z.remove(&name("example.ru"), Some(RType::A));
            z.add(Record::new(
                name("example.ru"),
                300,
                RData::A("198.51.100.99".parse().unwrap()),
            ));
        }
        let out = srv.handle(&q, src, SimTime::ZERO).unwrap();
        let resp = Message::decode(&out).unwrap();
        assert_eq!(
            resp.answers[0].data,
            RData::A("198.51.100.99".parse().unwrap())
        );
    }
}
