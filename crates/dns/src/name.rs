//! Wire-format domain names with compression.

use crate::wire::{Decoder, Encoder, WireError};
use ruwhere_types::DomainName;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

/// Maximum total wire length of a name (RFC 1035 §2.3.4).
const MAX_WIRE_LEN: usize = 255;
/// Maximum label length.
const MAX_LABEL_LEN: usize = 63;
/// Safety cap on compression-pointer hops while decoding.
const MAX_POINTER_HOPS: usize = 64;

/// A DNS name in wire form: a sequence of lowercase labels. The root name
/// has zero labels.
///
/// The labels live in one shared buffer: each label is its length octet
/// followed by its lowercase bytes, leftmost label first, without the
/// terminal zero octet (the root is the empty buffer). A name is the tail
/// of its buffer from `start` on, so cloning it and taking its
/// [`parent`](Name::parent) both bump a reference count and copy nothing.
/// Equality and hashing see only the name's own bytes, never the labels
/// before `start`.
///
/// Names order label by label, leftmost first (`ab.` before `b.`), which
/// is not the bytewise order of the buffer.
///
/// ```
/// use ruwhere_dns::Name;
/// let n: Name = "www.example.ru".parse().unwrap();
/// assert_eq!(n.label_count(), 3);
/// assert_eq!(n.to_string(), "www.example.ru.");
/// assert!(n.is_subdomain_of(&"example.ru".parse().unwrap()));
/// assert!(Name::root().is_root());
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Name {
    wire: Arc<[u8]>,
    /// Offset of this name's first label in `wire` (a name is at most 255
    /// octets long, so its labels start below 255).
    start: u8,
}

impl Name {
    /// A name over the whole of `labels` (length-prefixed lowercase
    /// labels, no terminal zero).
    fn new(labels: &[u8]) -> Self {
        Name {
            wire: Arc::from(labels),
            start: 0,
        }
    }

    /// The root name (`.`).
    pub fn root() -> Self {
        Name::new(&[])
    }

    /// This name's length-prefixed lowercase labels, without the
    /// terminal zero: the bytes its equality and hashing see.
    pub fn as_labels(&self) -> &[u8] {
        &self.wire[self.start as usize..]
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.as_labels().is_empty()
    }

    /// Build a name from presentation labels. Each label is lowercased and
    /// validated for length and ASCII content.
    pub fn from_labels<I, S>(labels: I) -> Result<Self, WireError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<[u8]>,
    {
        let mut buf = [0u8; MAX_WIRE_LEN];
        // Bytes the labels take; may outgrow `buf`, in which case later
        // labels are still validated but no longer copied.
        let mut len = 0usize;
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() || l.len() > MAX_LABEL_LEN {
                return Err(WireError::NameTooLong);
            }
            if !l.iter().all(|b| b.is_ascii() && *b != b'.') {
                return Err(WireError::BadLabel);
            }
            if let Some(dst) = buf.get_mut(len..len + 1 + l.len()) {
                dst[0] = l.len() as u8;
                dst[1..].copy_from_slice(l);
                dst[1..].make_ascii_lowercase();
            }
            len += 1 + l.len();
        }
        // One more octet for the terminal zero.
        if len + 1 > MAX_WIRE_LEN {
            return Err(WireError::NameTooLong);
        }
        Ok(Name::new(&buf[..len]))
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Iterate over labels (leftmost first).
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        Labels(self.as_labels())
    }

    /// The parent name (one label removed from the left), or `None` at root.
    /// It shares this name's buffer.
    pub fn parent(&self) -> Option<Name> {
        let first = *self.as_labels().first()?;
        Some(Name {
            wire: Arc::clone(&self.wire),
            start: self.start + 1 + first,
        })
    }

    /// Whether `self` is equal to or a subdomain of `ancestor`.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        labels_under(self.as_labels(), ancestor.as_labels())
    }

    /// Wire length of this name when encoded without compression.
    pub fn wire_len(&self) -> usize {
        self.as_labels().len() + 1
    }

    /// Encode into `enc`, compressing against (and registering with) the
    /// suffixes the encoder has already written.
    pub fn encode(&self, enc: &mut Encoder) {
        encode_labels(self.as_labels(), enc);
    }

    /// Encode without compression (used inside RDATA where some historical
    /// servers choke on pointers; also for deterministic digest input).
    pub fn encode_uncompressed(&self, enc: &mut Encoder) {
        enc.put_slice(self.as_labels());
        enc.put_u8(0);
    }

    /// Decode a (possibly compressed) name at the decoder's cursor. The
    /// cursor ends just past the name's in-place encoding; pointer targets
    /// are followed via random access without moving the cursor there.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        NameView::parse(dec).map(|v| v.to_name())
    }

    /// Convert to the analysis-level [`DomainName`] (fails for the root name
    /// or names with labels that are not valid hostnames).
    pub fn to_domain_name(&self) -> Option<DomainName> {
        DomainName::from_ascii_labels(self.labels()).ok()
    }
}

/// Whether the name with length-prefixed labels `wire` is equal to or
/// below the one with labels `tail`.
pub(crate) fn labels_under(wire: &[u8], tail: &[u8]) -> bool {
    let Some(start) = wire.len().checked_sub(tail.len()) else {
        return false;
    };
    // The ancestor must start at one of our label boundaries.
    let mut at = 0;
    while at < start {
        at += 1 + wire[at] as usize;
    }
    at == start && wire[start..] == *tail
}

/// Encode the length-prefixed `labels` of a name (no terminal zero) into
/// `enc`, compressing against (and registering with) the suffixes the
/// encoder has already written.
pub(crate) fn encode_labels(labels: &[u8], enc: &mut Encoder) {
    // Walk suffixes from the full name down; at the first suffix already
    // written, emit a pointer and stop.
    let mut at = 0;
    while at < labels.len() {
        if let Some(off) = enc.lookup_suffix(&labels[at..]) {
            enc.put_u16(0xC000 | off);
            return;
        }
        enc.remember_suffix(enc.position());
        let end = at + 1 + labels[at] as usize;
        enc.put_slice(&labels[at..end]);
        at = end;
    }
    enc.put_u8(0);
}

/// Iterator over the labels of a name's buffer.
struct Labels<'a>(&'a [u8]);

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, rest) = self.0.split_first()?;
        let (label, rest) = rest.split_at(len as usize);
        self.0 = rest;
        Some(label)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_labels() == other.as_labels()
    }
}

impl Eq for Name {}

impl Hash for Name {
    /// Hashes exactly as its labels, a `[u8]`, do: [`NameKey`]'s
    /// `Borrow<[u8]>` relies on it.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_labels().hash(state);
    }
}

/// A [`Name`] as a hash-map key that can also be looked up by its labels
/// ([`Name::as_labels`], [`NameView::lower_labels`]), so a name read
/// from a query is looked up without building a `Name`. It hashes and
/// compares as the name does. It has no order: names order label by
/// label, their label bytes would not.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NameKey(pub Name);

impl Borrow<Name> for NameKey {
    fn borrow(&self) -> &Name {
        &self.0
    }
}

impl Borrow<[u8]> for NameKey {
    fn borrow(&self) -> &[u8] {
        self.0.as_labels()
    }
}

impl Ord for Name {
    /// Label-wise order, leftmost label first; a bytewise compare of the
    /// buffers would put `ab.` after `b.`.
    fn cmp(&self, other: &Self) -> Ordering {
        self.labels().cmp(other.labels())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl fmt::Display for Name {
    /// Presentation form with trailing dot; the root displays as `"."`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for l in self.labels() {
            for &b in l {
                if b.is_ascii_graphic() && b != b'.' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{:03}", b)?;
                }
            }
            f.write_str(".")?;
        }
        Ok(())
    }
}

/// A name inside a message, validated where it lies and not copied: the
/// message bytes and the offset of the name's first label or pointer.
///
/// [`NameView::parse`] is the one name decoder; [`Name::decode`] is that
/// parse followed by [`NameView::to_name`]. A view compares to names and
/// to other views label by label, ignoring ASCII case, as [`Name`]
/// equality does after decoding lowercases.
#[derive(Clone, Copy)]
pub struct NameView<'a> {
    msg: &'a [u8],
    at: usize,
}

impl<'a> NameView<'a> {
    /// Validate the (possibly compressed) name at the decoder's cursor and
    /// move the cursor just past its in-place encoding. Pointers must
    /// point strictly backwards, at most 64 of them; the name, terminal
    /// zero included, must fit in 255 octets.
    pub fn parse(dec: &mut Decoder<'a>) -> Result<Self, WireError> {
        let msg = dec.message();
        let at = dec.position();
        let mut pos = at;
        let mut len = 0usize;
        let mut hops = 0usize;
        let mut end_pos = None;

        loop {
            if pos >= msg.len() {
                return Err(WireError::Truncated);
            }
            let label_len = msg[pos];
            match label_len & 0xC0 {
                0x00 => {
                    pos += 1;
                    if label_len == 0 {
                        if end_pos.is_none() {
                            end_pos = Some(pos);
                        }
                        break;
                    }
                    let n = label_len as usize;
                    if pos + n > msg.len() {
                        return Err(WireError::Truncated);
                    }
                    // The labels so far, this one, and the terminal zero.
                    if len + 1 + n + 1 > MAX_WIRE_LEN {
                        return Err(WireError::NameTooLong);
                    }
                    len += 1 + n;
                    pos += n;
                }
                0xC0 => {
                    if pos + 1 >= msg.len() {
                        return Err(WireError::Truncated);
                    }
                    let target = (((label_len & 0x3F) as usize) << 8) | msg[pos + 1] as usize;
                    if end_pos.is_none() {
                        end_pos = Some(pos + 2);
                    }
                    // Pointers must point strictly backwards to prevent loops.
                    if target >= pos {
                        return Err(WireError::BadPointer);
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::BadPointer);
                    }
                    pos = target;
                }
                other => return Err(WireError::BadLabelType(other)),
            }
        }

        dec.seek(end_pos.expect("loop sets end_pos before breaking"))?;
        Ok(NameView { msg, at })
    }

    /// The labels as they appear on the wire (case kept), leftmost first.
    pub fn labels(&self) -> impl Iterator<Item = &'a [u8]> {
        ViewLabels {
            msg: self.msg,
            pos: self.at,
        }
    }

    /// The name's lowercase, length-prefixed labels, copied into `buf`
    /// (they take at most 254 bytes, as `parse` checked): the bytes
    /// [`Name::as_labels`] gives for [`to_name`](Self::to_name).
    pub fn lower_labels<'b>(&self, buf: &'b mut [u8; MAX_WIRE_LEN]) -> &'b [u8] {
        let mut len = 0;
        for l in self.labels() {
            buf[len] = l.len() as u8;
            let dst = &mut buf[len + 1..len + 1 + l.len()];
            dst.copy_from_slice(l);
            dst.make_ascii_lowercase();
            len += 1 + l.len();
        }
        &buf[..len]
    }

    /// The name as an owned [`Name`] (lowercased).
    pub fn to_name(&self) -> Name {
        Name::new(self.lower_labels(&mut [0u8; MAX_WIRE_LEN]))
    }

    /// Encode the name into `enc` exactly as [`Name::encode`] encodes the
    /// decoded name: lowercased and compressed.
    pub fn encode(&self, enc: &mut Encoder) {
        encode_labels(self.lower_labels(&mut [0u8; MAX_WIRE_LEN]), enc);
    }
}

/// Iterator over a [`NameView`]'s labels, following its (validated)
/// pointers.
struct ViewLabels<'a> {
    msg: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for ViewLabels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        loop {
            let len = self.msg[self.pos];
            if len & 0xC0 == 0xC0 {
                self.pos = (((len & 0x3F) as usize) << 8) | self.msg[self.pos + 1] as usize;
                continue;
            }
            if len == 0 {
                return None;
            }
            let start = self.pos + 1;
            self.pos = start + len as usize;
            return Some(&self.msg[start..self.pos]);
        }
    }
}

/// Label-wise equality ignoring ASCII case.
fn labels_eq<'a, 'b>(
    mut a: impl Iterator<Item = &'a [u8]>,
    mut b: impl Iterator<Item = &'b [u8]>,
) -> bool {
    loop {
        match (a.next(), b.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) if x.eq_ignore_ascii_case(y) => {}
            _ => return false,
        }
    }
}

impl PartialEq<Name> for NameView<'_> {
    fn eq(&self, other: &Name) -> bool {
        labels_eq(self.labels(), other.labels())
    }
}

impl PartialEq for NameView<'_> {
    fn eq(&self, other: &Self) -> bool {
        labels_eq(self.labels(), other.labels())
    }
}

impl fmt::Debug for NameView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NameView({})", self.to_name())
    }
}

impl FromStr for Name {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "." || s.is_empty() {
            return Ok(Name::root());
        }
        let s = s.strip_suffix('.').unwrap_or(s);
        Name::from_labels(s.split('.'))
    }
}

impl From<&DomainName> for Name {
    fn from(d: &DomainName) -> Name {
        Name::from_labels(d.labels()).expect("DomainName invariants imply valid wire name")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc_dec(n: &Name) -> Name {
        let mut e = Encoder::new();
        n.encode(&mut e);
        let buf = e.finish().unwrap();
        let mut d = Decoder::new(&buf);
        Name::decode(&mut d).unwrap()
    }

    #[test]
    fn roundtrip_simple() {
        for s in [
            "example.ru.",
            "www.example.ru.",
            "xn--e1afmkfd.xn--p1ai.",
            ".",
        ] {
            let n: Name = s.parse().unwrap();
            assert_eq!(enc_dec(&n), n);
            assert_eq!(n.to_string(), s);
        }
    }

    #[test]
    fn compression_shares_suffixes() {
        let a: Name = "ns1.example.ru.".parse().unwrap();
        let b: Name = "ns2.example.ru.".parse().unwrap();
        let mut e = Encoder::new();
        a.encode(&mut e);
        let after_a = e.position();
        b.encode(&mut e);
        let buf = e.finish().unwrap();
        // Second name must be shorter than its uncompressed form thanks to
        // the shared "example.ru." suffix: 1+3 + pointer(2) = 6 bytes.
        assert_eq!(buf.len() - after_a, 6);

        let mut d = Decoder::new(&buf);
        assert_eq!(Name::decode(&mut d).unwrap(), a);
        assert_eq!(Name::decode(&mut d).unwrap(), b);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn identical_name_is_a_single_pointer() {
        let a: Name = "example.ru.".parse().unwrap();
        let mut e = Encoder::new();
        a.encode(&mut e);
        let after_first = e.position();
        a.encode(&mut e);
        let buf = e.finish().unwrap();
        assert_eq!(buf.len() - after_first, 2);
        let mut d = Decoder::new(&buf);
        assert_eq!(Name::decode(&mut d).unwrap(), a);
        assert_eq!(Name::decode(&mut d).unwrap(), a);
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        // Pointer at offset 0 pointing to itself.
        let buf = [0xC0, 0x00];
        let mut d = Decoder::new(&buf);
        assert_eq!(Name::decode(&mut d), Err(WireError::BadPointer));
    }

    #[test]
    fn decode_rejects_reserved_label_types() {
        let buf = [0x40, 0x00];
        let mut d = Decoder::new(&buf);
        assert_eq!(Name::decode(&mut d), Err(WireError::BadLabelType(0x40)));
    }

    #[test]
    fn decode_rejects_truncation() {
        let buf = [3, b'a', b'b']; // label promises 3 bytes, only 2 present
        let mut d = Decoder::new(&buf);
        assert_eq!(Name::decode(&mut d), Err(WireError::Truncated));
        let buf = [1, b'a']; // missing terminal zero
        let mut d = Decoder::new(&buf);
        assert_eq!(Name::decode(&mut d), Err(WireError::Truncated));
    }

    #[test]
    fn name_length_limits() {
        assert!(Name::from_labels([&b"a".repeat(64)[..]]).is_err());
        assert!(Name::from_labels([&b"a".repeat(63)[..]]).is_ok());
        // 4 * (63+1) + 1 = 257 > 255.
        let l = b"a".repeat(63);
        assert!(Name::from_labels([&l[..], &l[..], &l[..], &l[..]]).is_err());
        assert!(Name::from_labels([b"".as_slice()]).is_err());
    }

    #[test]
    fn case_insensitive() {
        let a: Name = "ExAmPlE.RU".parse().unwrap();
        let b: Name = "example.ru".parse().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn subdomain_relation() {
        let apex: Name = "example.ru".parse().unwrap();
        let sub: Name = "a.b.example.ru".parse().unwrap();
        let other: Name = "example.com".parse().unwrap();
        assert!(sub.is_subdomain_of(&apex));
        assert!(apex.is_subdomain_of(&apex));
        assert!(apex.is_subdomain_of(&Name::root()));
        assert!(!apex.is_subdomain_of(&sub));
        assert!(!other.is_subdomain_of(&apex));
    }

    #[test]
    fn parent_chain() {
        let n: Name = "a.b.ru".parse().unwrap();
        let p = n.parent().unwrap();
        assert_eq!(p.to_string(), "b.ru.");
        assert_eq!(p.parent().unwrap().to_string(), "ru.");
        assert!(p.parent().unwrap().parent().unwrap().is_root());
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn domain_name_interop() {
        let d = DomainName::parse("пример.рф").unwrap();
        let n = Name::from(&d);
        assert_eq!(n.to_string(), "xn--e1afmkfd.xn--p1ai.");
        assert_eq!(n.to_domain_name().unwrap(), d);
        assert!(Name::root().to_domain_name().is_none());
    }

    #[test]
    fn pointer_chain_depth_limited() {
        // Build a long chain of backward pointers: p_i points to p_{i-1},
        // terminating at a real name at offset 0.
        let mut buf = vec![0u8]; // root name at offset 0
        for i in 0..100u16 {
            let target = if i == 0 { 0 } else { 1 + 2 * (i - 1) };
            buf.push(0xC0 | (target >> 8) as u8);
            buf.push((target & 0xFF) as u8);
        }
        let start = buf.len() - 2;
        let mut d = Decoder::new(&buf);
        d.seek(start).unwrap();
        assert_eq!(Name::decode(&mut d), Err(WireError::BadPointer));
    }
}
