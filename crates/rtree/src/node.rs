//! In-memory node representation and the on-page codec.

use crate::config::{DIR_ENTRY_SIZE, LEAF_ENTRY_SIZE};
use asb_geom::{mbr_of, Rect, SpatialStats};
use asb_storage::{Page, PageId, PageMeta, PageType, StorageError, PAGE_HEADER_SIZE};
use bytes::{BufMut, Bytes, BytesMut};

/// An entry of a directory (inner) node: the MBR of a child node plus its
/// page id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirEntry {
    /// MBR covering everything below `child`.
    pub mbr: Rect,
    /// The child node's page.
    pub child: PageId,
}

/// An entry of a data (leaf) node: the MBR of one spatial object.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafEntry {
    /// The object's MBR.
    pub mbr: Rect,
    /// Application-level object identifier.
    pub object_id: u64,
    /// Page id of the object page holding the exact representation
    /// (0 when objects are not materialized, as in the paper's tree-only
    /// measurements).
    pub object_page: u64,
}

/// The level-dependent entry list of a node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A leaf (data page) with object entries.
    Leaf(Vec<LeafEntry>),
    /// An inner node (directory page) with child entries.
    Dir(Vec<DirEntry>),
}

/// An R\*-tree node decoded from (or about to be encoded to) one page.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Level in the tree: 1 for leaves, parents of leaves 2, and so on.
    pub level: u8,
    /// The node's entries.
    pub kind: NodeKind,
}

impl Node {
    /// Creates an empty leaf.
    pub fn new_leaf() -> Self {
        Node {
            level: 1,
            kind: NodeKind::Leaf(Vec::new()),
        }
    }

    /// Creates an empty directory node at `level >= 2`.
    pub fn new_dir(level: u8) -> Self {
        debug_assert!(level >= 2);
        Node {
            level,
            kind: NodeKind::Dir(Vec::new()),
        }
    }

    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf(_))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(v) => v.len(),
            NodeKind::Dir(v) => v.len(),
        }
    }

    /// Whether the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The MBRs of all entries.
    pub fn entry_mbrs(&self) -> Vec<Rect> {
        match &self.kind {
            NodeKind::Leaf(v) => v.iter().map(|e| e.mbr).collect(),
            NodeKind::Dir(v) => v.iter().map(|e| e.mbr).collect(),
        }
    }

    /// The node's MBR (`None` when empty).
    pub fn mbr(&self) -> Option<Rect> {
        match &self.kind {
            NodeKind::Leaf(v) => mbr_of(v.iter().map(|e| e.mbr)),
            NodeKind::Dir(v) => mbr_of(v.iter().map(|e| e.mbr)),
        }
    }

    /// Directory entries; panics on a leaf (internal invariant violations
    /// only — levels are checked on decode).
    pub fn dir_entries(&self) -> &[DirEntry] {
        match &self.kind {
            NodeKind::Dir(v) => v,
            NodeKind::Leaf(_) => panic!("dir_entries() on a leaf node"),
        }
    }

    /// Mutable directory entries; panics on a leaf.
    pub fn dir_entries_mut(&mut self) -> &mut Vec<DirEntry> {
        match &mut self.kind {
            NodeKind::Dir(v) => v,
            NodeKind::Leaf(_) => panic!("dir_entries_mut() on a leaf node"),
        }
    }

    /// Leaf entries; panics on a directory node.
    pub fn leaf_entries(&self) -> &[LeafEntry] {
        match &self.kind {
            NodeKind::Leaf(v) => v,
            NodeKind::Dir(_) => panic!("leaf_entries() on a directory node"),
        }
    }

    /// Mutable leaf entries; panics on a directory node.
    pub fn leaf_entries_mut(&mut self) -> &mut Vec<LeafEntry> {
        match &mut self.kind {
            NodeKind::Leaf(v) => v,
            NodeKind::Dir(_) => panic!("leaf_entries_mut() on a directory node"),
        }
    }

    /// Page metadata for this node: type and level for LRU-T / LRU-P, plus
    /// the spatial statistics the spatial policies evaluate.
    pub fn page_meta(&self) -> PageMeta {
        let stats = SpatialStats::from_rects(&self.entry_mbrs());
        match self.kind {
            NodeKind::Leaf(_) => PageMeta::data(stats),
            NodeKind::Dir(_) => PageMeta::directory(self.level, stats),
        }
    }

    /// Serializes the node into a page payload.
    ///
    /// Layout: `[type_tag u8][level u8][count u16 LE][reserved u32]` header,
    /// then fixed-size entries (40 bytes per directory entry, 48 per leaf
    /// entry — the paper's fan-outs on a 2 KiB page).
    pub fn encode(&self) -> Bytes {
        let count = self.len();
        let entry_size = if self.is_leaf() {
            LEAF_ENTRY_SIZE
        } else {
            DIR_ENTRY_SIZE
        };
        let mut buf = BytesMut::with_capacity(PAGE_HEADER_SIZE + count * entry_size);
        let tag = if self.is_leaf() {
            PageType::Data
        } else {
            PageType::Directory
        };
        buf.put_u8(tag.tag());
        buf.put_u8(self.level);
        buf.put_u16_le(count as u16);
        buf.put_u32_le(0); // reserved
        match &self.kind {
            NodeKind::Leaf(entries) => {
                for e in entries {
                    put_rect(&mut buf, &e.mbr);
                    buf.put_u64_le(e.object_id);
                    buf.put_u64_le(e.object_page);
                }
            }
            NodeKind::Dir(entries) => {
                for e in entries {
                    put_rect(&mut buf, &e.mbr);
                    buf.put_u64_le(e.child.raw());
                }
            }
        }
        buf.freeze()
    }

    /// Decodes a node from a page written by [`encode`](Node::encode).
    ///
    /// A payload shorter than the header, an unknown tag, a level that
    /// does not fit the tag, or fewer entry bytes than the header's count
    /// is a [`StorageError::Corrupt`], checked in that order.
    pub fn decode(page: &Page) -> Result<Node, StorageError> {
        let corrupt = |reason: &str| StorageError::Corrupt {
            id: page.id,
            reason: reason.to_string(),
        };
        let Some((header, body)) = page.payload.split_first_chunk::<PAGE_HEADER_SIZE>() else {
            return Err(corrupt("payload shorter than the header"));
        };
        let [tag, level, count_lo, count_hi, ..] = *header;
        let count = usize::from(u16::from_le_bytes([count_lo, count_hi]));
        match PageType::from_tag(tag) {
            Some(PageType::Data) => {
                if level != 1 {
                    return Err(corrupt("data page with level != 1"));
                }
                let Some(body) = body.get(..count * LEAF_ENTRY_SIZE) else {
                    return Err(corrupt("truncated leaf entries"));
                };
                let entries = body
                    .chunks_exact(LEAF_ENTRY_SIZE)
                    .map(|e| LeafEntry {
                        mbr: rect_at(e),
                        object_id: u64_at(e, 32),
                        object_page: u64_at(e, 40),
                    })
                    .collect();
                Ok(Node {
                    level: 1,
                    kind: NodeKind::Leaf(entries),
                })
            }
            Some(PageType::Directory) => {
                if level < 2 {
                    return Err(corrupt("directory page with level < 2"));
                }
                let Some(body) = body.get(..count * DIR_ENTRY_SIZE) else {
                    return Err(corrupt("truncated directory entries"));
                };
                let entries = body
                    .chunks_exact(DIR_ENTRY_SIZE)
                    .map(|e| DirEntry {
                        mbr: rect_at(e),
                        child: PageId::new(u64_at(e, 32)),
                    })
                    .collect();
                Ok(Node {
                    level,
                    kind: NodeKind::Dir(entries),
                })
            }
            _ => Err(corrupt("not an index page")),
        }
    }
}

fn put_rect(buf: &mut BytesMut, r: &Rect) {
    buf.put_f64_le(r.min.x);
    buf.put_f64_le(r.min.y);
    buf.put_f64_le(r.max.x);
    buf.put_f64_le(r.max.y);
}

/// The little-endian `u64` at byte `at` of an entry.
#[inline]
fn u64_at(entry: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&entry[at..at + 8]);
    u64::from_le_bytes(word)
}

/// The MBR stored in an entry's first 32 bytes (`x0, y0, x1, y1` as
/// little-endian `f64`s).
#[inline]
fn rect_at(entry: &[u8]) -> Rect {
    let f = |at| f64::from_bits(u64_at(entry, at));
    Rect {
        min: asb_geom::Point::new(f(0), f(8)),
        max: asb_geom::Point::new(f(16), f(24)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_storage::PAGE_SIZE;

    fn leaf_with(n: usize) -> Node {
        let entries = (0..n)
            .map(|i| LeafEntry {
                mbr: Rect::new(i as f64, 0.0, i as f64 + 0.5, 1.0),
                object_id: i as u64,
                object_page: 0,
            })
            .collect();
        Node {
            level: 1,
            kind: NodeKind::Leaf(entries),
        }
    }

    fn dir_with(n: usize) -> Node {
        let entries = (0..n)
            .map(|i| DirEntry {
                mbr: Rect::new(i as f64, -1.0, i as f64 + 2.0, 3.0),
                child: PageId::new(100 + i as u64),
            })
            .collect();
        Node {
            level: 2,
            kind: NodeKind::Dir(entries),
        }
    }

    fn roundtrip(node: &Node) -> Node {
        let payload = node.encode();
        let page = Page::new(PageId::new(1), node.page_meta(), payload).unwrap();
        Node::decode(&page).unwrap()
    }

    #[test]
    fn leaf_roundtrip() {
        let n = leaf_with(7);
        assert_eq!(roundtrip(&n), n);
    }

    #[test]
    fn dir_roundtrip() {
        let n = dir_with(5);
        assert_eq!(roundtrip(&n), n);
    }

    #[test]
    fn empty_nodes_roundtrip() {
        assert_eq!(roundtrip(&Node::new_leaf()), Node::new_leaf());
        assert_eq!(roundtrip(&Node::new_dir(3)), Node::new_dir(3));
    }

    #[test]
    fn full_fanout_fits_in_a_page() {
        let leaf = leaf_with(42);
        assert!(leaf.encode().len() <= PAGE_SIZE);
        let dir = dir_with(51);
        assert!(dir.encode().len() <= PAGE_SIZE);
        assert_eq!(roundtrip(&dir).len(), 51);
    }

    #[test]
    fn node_mbr_covers_entries() {
        let n = leaf_with(3);
        let mbr = n.mbr().unwrap();
        for e in n.leaf_entries() {
            assert!(mbr.contains(&e.mbr));
        }
        assert_eq!(Node::new_leaf().mbr(), None);
    }

    #[test]
    fn page_meta_reflects_kind_and_level() {
        let leaf = leaf_with(2);
        assert_eq!(leaf.page_meta().page_type, PageType::Data);
        assert_eq!(leaf.page_meta().level, 1);
        let dir = dir_with(2);
        assert_eq!(dir.page_meta().page_type, PageType::Directory);
        assert_eq!(dir.page_meta().level, 2);
        // Stats are computed over entry MBRs.
        assert_eq!(leaf.page_meta().stats.entry_count, 2);
    }

    #[test]
    fn decode_rejects_garbage() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let page = Page::new(PageId::new(9), meta, Bytes::from_static(b"nonsense")).unwrap();
        assert!(matches!(
            Node::decode(&page),
            Err(StorageError::Corrupt { .. })
        ));
        let short = Page::new(PageId::new(9), meta, Bytes::from_static(b"ab")).unwrap();
        assert!(Node::decode(&short).is_err());
    }

    #[test]
    fn decode_rejects_wrong_level() {
        // A data page claiming level 3.
        let mut node = leaf_with(1);
        node.level = 3;
        let page = Page::new(PageId::new(2), node.page_meta(), node.encode()).unwrap();
        assert!(Node::decode(&page).is_err());
    }

    #[test]
    fn decode_rejects_truncated_entries() {
        let node = leaf_with(3);
        let full = node.encode();
        let truncated = full.slice(0..full.len() - 8);
        let page = Page::new(PageId::new(3), node.page_meta(), truncated).unwrap();
        assert!(Node::decode(&page).is_err());
    }
}
