//! Data descriptors — self-describing metadata entries (§II-B).

use crate::ids::{ChunkId, ItemName};
use crate::value::AttrValue;
use bytes::Buf;
use std::cmp::Ordering;
use std::fmt;

/// Well-known attribute names.
pub mod attrs {
    /// Namespace where the data type is defined.
    pub const NAMESPACE: &str = "ns";
    /// Data type (e.g. `no2`, `video`, or the system types `metadata`/`cdi`).
    pub const TYPE: &str = "type";
    /// Unique item name for large chunked items.
    pub const NAME: &str = "name";
    /// Number of chunks of a large item.
    pub const TOTAL_CHUNKS: &str = "total_chunks";
    /// Chunk index, present only on chunk descriptors.
    pub const CHUNK_ID: &str = "chunk_id";
    /// Generation time.
    pub const TIME: &str = "time";
}

/// An interned attribute name: the six well-known names every descriptor
/// in the system uses are enum atoms (no heap allocation, one byte),
/// and only genuinely custom names pay for an owned string.
///
/// A city-scale world holds millions of descriptor attributes — almost
/// all of them named `ns`/`type`/`name`/`time`/`chunk_id`/`total_chunks`.
/// As `String` keys those cost ~24 bytes of struct plus a heap block
/// each; as atoms they cost nothing. Ordering and equality are defined
/// by the *name string* (see [`AttrName::as_str`]), so sorted iteration,
/// canonical encodings and [`EntryKey`]s are byte-identical to the
/// string-keyed representation this replaces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AttrName {
    /// `chunk_id`
    ChunkId,
    /// `name`
    Name,
    /// `ns`
    Ns,
    /// `time`
    Time,
    /// `total_chunks`
    TotalChunks,
    /// `type`
    Type,
    /// Any other attribute name.
    Other(Box<str>),
}

impl AttrName {
    /// The name as a string slice — the canonical form that defines
    /// ordering, equality and the wire encoding.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match self {
            AttrName::ChunkId => attrs::CHUNK_ID,
            AttrName::Name => attrs::NAME,
            AttrName::Ns => attrs::NAMESPACE,
            AttrName::Time => attrs::TIME,
            AttrName::TotalChunks => attrs::TOTAL_CHUNKS,
            AttrName::Type => attrs::TYPE,
            AttrName::Other(s) => s,
        }
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> Self {
        match s {
            attrs::CHUNK_ID => AttrName::ChunkId,
            attrs::NAME => AttrName::Name,
            attrs::NAMESPACE => AttrName::Ns,
            attrs::TIME => AttrName::Time,
            attrs::TOTAL_CHUNKS => AttrName::TotalChunks,
            attrs::TYPE => AttrName::Type,
            other => AttrName::Other(other.into()),
        }
    }
}

impl From<String> for AttrName {
    fn from(s: String) -> Self {
        AttrName::from(s.as_str())
    }
}

impl PartialOrd for AttrName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AttrName {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Canonical identity of a metadata entry: the byte encoding of its
/// descriptor. Used as the Bloom-filter element and dedup key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryKey(pub Vec<u8>);

impl EntryKey {
    /// The key bytes (what gets inserted into Bloom filters).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// A data descriptor: a set of named attribute values describing one data
/// item (or one chunk of a large item).
///
/// Attributes are kept sorted by name, so equal descriptors have equal
/// canonical encodings ([`DataDescriptor::entry_key`]).
///
/// # Examples
///
/// ```
/// use pds_core::{AttrValue, DataDescriptor};
///
/// let video = DataDescriptor::builder()
///     .attr("ns", "events")
///     .attr("type", "video")
///     .attr("name", "parade-finale")
///     .attr("total_chunks", AttrValue::Int(80))
///     .build();
/// assert_eq!(video.total_chunks(), Some(80));
/// assert_eq!(video.item_name().unwrap().as_str(), "parade-finale");
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataDescriptor {
    /// Sorted by name, unique — a flat vec, not a tree: descriptors have
    /// a handful of attributes, and one contiguous allocation (with
    /// interned [`AttrName`] atoms) replaces a B-tree node per map.
    attrs: Vec<(AttrName, AttrValue)>,
}

impl DataDescriptor {
    /// Starts building a descriptor.
    #[must_use]
    pub fn builder() -> DescriptorBuilder {
        DescriptorBuilder::default()
    }

    /// Looks up an attribute by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&AttrValue> {
        self.attrs
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .and_then(|i| self.attrs.get(i).map(|(_, v)| v))
    }

    /// Iterates attributes in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of attributes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the descriptor has no attributes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The `name` attribute as an [`ItemName`], if present and a string.
    #[must_use]
    pub fn item_name(&self) -> Option<ItemName> {
        match self.get(attrs::NAME) {
            Some(AttrValue::Str(s)) => Some(ItemName::new(s)),
            _ => None,
        }
    }

    /// The `total_chunks` attribute, if present and an integer.
    #[must_use]
    pub fn total_chunks(&self) -> Option<u32> {
        match self.get(attrs::TOTAL_CHUNKS) {
            Some(AttrValue::Int(n)) if *n >= 0 => u32::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The `chunk_id` attribute, if present — i.e. this describes a chunk
    /// rather than a whole item.
    #[must_use]
    pub fn chunk_id(&self) -> Option<ChunkId> {
        match self.get(attrs::CHUNK_ID) {
            Some(AttrValue::Int(n)) if *n >= 0 => u32::try_from(*n).ok().map(ChunkId),
            _ => None,
        }
    }

    /// The descriptor of chunk `id`: this descriptor plus a `chunk_id`
    /// attribute (the paper: "the descriptor of each chunk is simply the
    /// data item descriptor appended by a chunk id attribute").
    #[must_use]
    pub fn chunk_descriptor(&self, id: ChunkId) -> DataDescriptor {
        let mut attrs = self.attrs.clone();
        insert_sorted(
            &mut attrs,
            AttrName::ChunkId,
            AttrValue::Int(i64::from(id.0)),
        );
        DataDescriptor { attrs }
    }

    /// This descriptor with any `chunk_id` removed — the whole-item
    /// descriptor a chunk belongs to.
    #[must_use]
    pub fn item_descriptor(&self) -> DataDescriptor {
        let mut attrs = self.attrs.clone();
        attrs.retain(|(k, _)| !matches!(k, AttrName::ChunkId));
        DataDescriptor { attrs }
    }

    /// Canonical encoding, used as identity (Bloom elements, dedup keys).
    #[must_use]
    pub fn entry_key(&self) -> EntryKey {
        EntryKey(self.encode())
    }

    /// Serializes the descriptor.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.push(self.attrs.len() as u8);
        for (k, v) in &self.attrs {
            let k = k.as_str();
            out.push(k.len() as u8);
            out.extend_from_slice(k.as_bytes());
            v.encode(&mut out);
        }
        out
    }

    /// Wire size of the encoded form.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        1 + self
            .attrs
            .iter()
            .map(|(k, v)| 1 + k.as_str().len() + v.encoded_len())
            .sum::<usize>()
    }

    /// Deserializes a descriptor.
    ///
    /// Returns `None` on truncation or malformed content.
    pub fn decode(buf: &mut impl Buf) -> Option<Self> {
        if buf.remaining() < 1 {
            return None;
        }
        let n = buf.get_u8() as usize;
        let mut attrs = Vec::with_capacity(n);
        for _ in 0..n {
            if buf.remaining() < 1 {
                return None;
            }
            let klen = buf.get_u8() as usize;
            if buf.remaining() < klen {
                return None;
            }
            let mut kb = vec![0u8; klen];
            buf.copy_to_slice(&mut kb);
            let key = String::from_utf8(kb).ok()?;
            let value = AttrValue::decode(buf)?;
            insert_sorted(&mut attrs, AttrName::from(key), value);
        }
        Some(DataDescriptor { attrs })
    }
}

impl fmt::Display for DataDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

/// Inserts (or replaces) `name` in a name-sorted attribute vec.
fn insert_sorted(attrs: &mut Vec<(AttrName, AttrValue)>, name: AttrName, value: AttrValue) {
    match attrs.binary_search_by(|(k, _)| k.as_str().cmp(name.as_str())) {
        Ok(i) => {
            if let Some(slot) = attrs.get_mut(i) {
                slot.1 = value;
            }
        }
        Err(i) => attrs.insert(i, (name, value)),
    }
}

/// Incremental builder for [`DataDescriptor`].
#[derive(Debug, Default)]
pub struct DescriptorBuilder {
    attrs: Vec<(AttrName, AttrValue)>,
}

impl DescriptorBuilder {
    /// Adds (or replaces) an attribute.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty or longer than 255 bytes, or if a float
    /// value is NaN (NaN would break total ordering and canonical identity).
    #[must_use]
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        let name = name.into();
        assert!(
            !name.is_empty() && name.len() <= 255,
            "attribute name must be 1–255 bytes"
        );
        let value = value.into();
        if let AttrValue::Float(f) = value {
            assert!(!f.is_nan(), "attribute value must not be NaN");
        }
        insert_sorted(&mut self.attrs, AttrName::from(name), value);
        self
    }

    /// Finishes the descriptor.
    #[must_use]
    pub fn build(self) -> DataDescriptor {
        DataDescriptor { attrs: self.attrs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataDescriptor {
        DataDescriptor::builder()
            .attr(attrs::NAMESPACE, "env")
            .attr(attrs::TYPE, "no2")
            .attr(attrs::TIME, AttrValue::Time(100))
            .attr("x", 1.5)
            .build()
    }

    #[test]
    fn builder_sets_and_replaces() {
        let d = DataDescriptor::builder()
            .attr("a", 1i64)
            .attr("a", 2i64)
            .build();
        assert_eq!(d.get("a"), Some(&AttrValue::Int(2)));
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn encode_decode_round_trips() {
        let d = sample();
        let bytes = d.encode();
        assert_eq!(bytes.len(), d.encoded_len());
        let mut slice = &bytes[..];
        let back = DataDescriptor::decode(&mut slice).expect("decodes");
        assert_eq!(back, d);
    }

    #[test]
    fn entry_key_is_canonical() {
        // Attribute insertion order must not matter.
        let a = DataDescriptor::builder()
            .attr("x", 1i64)
            .attr("y", 2i64)
            .build();
        let b = DataDescriptor::builder()
            .attr("y", 2i64)
            .attr("x", 1i64)
            .build();
        assert_eq!(a.entry_key(), b.entry_key());
        let c = DataDescriptor::builder()
            .attr("x", 1i64)
            .attr("y", 3i64)
            .build();
        assert_ne!(a.entry_key(), c.entry_key());
    }

    #[test]
    fn chunk_descriptor_appends_chunk_id() {
        let item = DataDescriptor::builder()
            .attr(attrs::NAME, "vid")
            .attr(attrs::TOTAL_CHUNKS, AttrValue::Int(4))
            .build();
        let chunk = item.chunk_descriptor(ChunkId(2));
        assert_eq!(chunk.chunk_id(), Some(ChunkId(2)));
        assert_eq!(chunk.item_descriptor(), item);
        assert_eq!(item.chunk_id(), None);
        assert_eq!(chunk.total_chunks(), Some(4));
        assert_eq!(chunk.item_name(), Some(ItemName::new("vid")));
    }

    #[test]
    fn entry_size_is_compact() {
        // The paper budgets ~30 bytes per metadata entry; short attribute
        // names keep ours in the same regime.
        let d = DataDescriptor::builder()
            .attr("ns", "e")
            .attr("type", "no2")
            .attr("time", AttrValue::Time(1_451_635_200))
            .build();
        assert!(
            d.encoded_len() <= 48,
            "entry too large: {} bytes",
            d.encoded_len()
        );
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = DataDescriptor::builder().attr("x", f64::NAN);
    }

    #[test]
    #[should_panic(expected = "1–255")]
    fn empty_name_rejected() {
        let _ = DataDescriptor::builder().attr("", 1i64);
    }

    #[test]
    fn decode_rejects_truncated() {
        let d = sample();
        let bytes = d.encode();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut slice = &bytes[..cut];
            assert_eq!(DataDescriptor::decode(&mut slice), None, "cut at {cut}");
        }
    }

    #[test]
    fn display_lists_attributes() {
        let s = sample().to_string();
        assert!(s.contains("type=no2"));
        assert!(s.starts_with('{') && s.ends_with('}'));
    }
}
