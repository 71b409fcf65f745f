use asb_geom::SpatialStats;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Size of a page in bytes.
///
/// 2048 bytes reproduce the paper's R\*-tree fan-outs exactly: with an
/// [`PAGE_HEADER_SIZE`] = 8 byte header, 40-byte directory entries
/// (4 × f64 MBR + u64 child id) give ⌊2040 / 40⌋ = **51** entries per
/// directory page and 48-byte data entries (MBR + u64 object id + u64
/// object-page pointer) give ⌊2040 / 48⌋ = **42** entries per data page —
/// the paper's "maximum number of entries per directory page and per data
/// page is 51 and 42".
pub const PAGE_SIZE: usize = 2048;

/// Bytes reserved for the on-page header (type tag, level, entry count).
pub const PAGE_HEADER_SIZE: usize = 8;

/// Identifier of a page on the simulated disk.
///
/// Ids are dense and allocated by the [`DiskManager`](crate::DiskManager);
/// consecutive ids model physically adjacent pages, which is what the
/// sequential-I/O detection in [`IoStats`](crate::IoStats) keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page id from its raw index.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        PageId(raw)
    }

    /// The raw index.
    #[inline]
    pub const fn raw(&self) -> u64 {
        self.0
    }

    /// Whether `other` is the page physically following `self`.
    #[inline]
    pub fn is_successor_of(&self, other: &PageId) -> bool {
        self.0 == other.0.wrapping_add(1)
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The three page categories the paper distinguishes (Section 2.1, Fig. 1):
/// directory pages and data pages of the spatial access method, plus object
/// pages storing the exact object representations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageType {
    /// Inner page of the spatial access method.
    Directory,
    /// Leaf page of the spatial access method.
    Data,
    /// Page holding exact spatial-object representations.
    Object,
}

impl PageType {
    /// Base ordering used by the type-based LRU (LRU-T): object pages are
    /// dropped first, then data pages, directory pages last.
    #[inline]
    pub fn type_rank(&self) -> u8 {
        match self {
            PageType::Object => 0,
            PageType::Data => 1,
            PageType::Directory => 2,
        }
    }

    /// Encodes the type as a byte tag (for on-page headers).
    #[inline]
    pub fn tag(&self) -> u8 {
        match self {
            PageType::Directory => 1,
            PageType::Data => 2,
            PageType::Object => 3,
        }
    }

    /// Decodes a byte tag written by [`PageType::tag`].
    #[inline]
    pub fn from_tag(tag: u8) -> Option<PageType> {
        match tag {
            1 => Some(PageType::Directory),
            2 => Some(PageType::Data),
            3 => Some(PageType::Object),
            _ => None,
        }
    }
}

/// Metadata travelling with every page.
///
/// The replacement policies in `asb-core` are driven exclusively by this
/// struct — they never parse page payloads. The index layer fills it in
/// whenever it (re)writes a page:
///
/// * `page_type` / `level` feed LRU-T and LRU-P (priority = level; object
///   pages have priority 0, leaves 1, the root the highest),
/// * `stats` feeds the five spatial criteria of Section 2.3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PageMeta {
    /// Category of the page.
    pub page_type: PageType,
    /// Level in the index: object pages 0, data (leaf) pages 1, directory
    /// pages 2 and up; the root has the highest level.
    pub level: u8,
    /// Precomputed spatial criteria over the page's entries.
    pub stats: SpatialStats,
}

impl PageMeta {
    /// Metadata for an object page (level 0, no entry statistics required by
    /// the experiments, but they may be supplied).
    pub fn object(stats: SpatialStats) -> Self {
        PageMeta {
            page_type: PageType::Object,
            level: 0,
            stats,
        }
    }

    /// Metadata for a data (leaf) page of the index.
    pub fn data(stats: SpatialStats) -> Self {
        PageMeta {
            page_type: PageType::Data,
            level: 1,
            stats,
        }
    }

    /// Metadata for a directory page at `level >= 2`.
    pub fn directory(level: u8, stats: SpatialStats) -> Self {
        debug_assert!(level >= 2, "directory pages live at level 2 and above");
        PageMeta {
            page_type: PageType::Directory,
            level,
            stats,
        }
    }

    /// The LRU-P priority of the page: "the object page may have the
    /// priority 0 whereas the priority of a page in an index depends on its
    /// height in the corresponding tree. The root has the highest priority."
    #[inline]
    pub fn priority(&self) -> u8 {
        match self.page_type {
            PageType::Object => 0,
            _ => self.level,
        }
    }
}

/// Odd multiplier of the checksum's absorb step (the 64-bit golden ratio
/// with its low bit set); multiplying by an odd constant is a bijection
/// modulo 2^64.
const CHECKSUM_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Distinct starting states of the four checksum lanes, so that words
/// swapped between lanes change the result.
const CHECKSUM_SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// One checksum step: mixes `word` into `state`. For a fixed `state` it is
/// a bijection of `word`, and for a fixed `word` a bijection of `state`.
#[inline(always)]
fn absorb(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(CHECKSUM_K).rotate_left(29)
}

/// The little-endian word of up to 8 bytes, zero-padded at the top.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The per-page checksum: a word-at-a-time 64-bit hash of a payload.
///
/// The payload is read as little-endian 8-byte words dealt round-robin to
/// four independent lanes (word `i` goes to lane `i mod 4`), so the four
/// multiply chains run in parallel. The lanes are then folded into one
/// state together with the zero-padded tail (the last `len mod 8` bytes)
/// and the payload length, and the SplitMix64 finalizer spreads the
/// result. Every step is a bijection of the state it updates, which gives
/// a hard detection guarantee: two payloads of equal length that differ
/// only inside one aligned 8-byte word — in particular any single-byte
/// change — *always* have different checksums. The length is folded in
/// separately, so `b""` and `b"\0"` differ too. Other damage (several
/// words, a different length) is missed with probability about 2⁻⁶⁴.
///
/// Dependency-free and identical on every platform. This is an
/// error-*detection* code for the fault-injection layer and the WAL, not
/// a cryptographic digest.
pub fn page_checksum(payload: &[u8]) -> u64 {
    let mut lanes = CHECKSUM_SEEDS;
    let mut blocks = payload.chunks_exact(32);
    for block in &mut blocks {
        lanes[0] = absorb(lanes[0], le_word(&block[0..8]));
        lanes[1] = absorb(lanes[1], le_word(&block[8..16]));
        lanes[2] = absorb(lanes[2], le_word(&block[16..24]));
        lanes[3] = absorb(lanes[3], le_word(&block[24..32]));
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = absorb(*lane, le_word(word));
    }
    let mut state = lanes.into_iter().fold(0, absorb);
    state = absorb(state, le_word(words.remainder()));
    state = absorb(state, payload.len() as u64);
    splitmix64(state)
}

/// SplitMix64 finalizer: a fast, well-mixing bijection of a 64-bit word.
///
/// It is the workspace's one deterministic integer mixer: the sharded
/// pool routes pages with `splitmix64(id) % shards`, [`PageIdHasher`]
/// hashes page ids with it, and the fault and crash harnesses draw their
/// seeded coins from it. Never a seeded `RandomState`, so everything built
/// on it is reproducible across runs and platforms.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The fixed hasher of [`PageIdMap`]: a [`PageId`] hashes to
/// `splitmix64(raw id)`.
///
/// Cheaper than the default SipHash and deterministic, and unlike an
/// identity hash it spreads small dense ids over both the low bits (the
/// bucket index) and the top bits (the hash table's control tag). Page ids
/// are allocated by the store, never read from outside input, so these
/// maps do not need SipHash's resistance to keys crafted to collide.
/// Other key types are folded in 8 bytes at a time.
#[derive(Debug, Default, Clone, Copy)]
pub struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = splitmix64(self.0 ^ word);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            self.write_u64(le_word(chunk));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`BuildHasher`](std::hash::BuildHasher) of [`PageIdMap`].
pub type PageIdBuildHasher = BuildHasherDefault<PageIdHasher>;

/// A hash map keyed by [`PageId`] under the fixed [`PageIdHasher`]. Build
/// one with `PageIdMap::default()`.
pub type PageIdMap<V> = HashMap<PageId, V, PageIdBuildHasher>;

/// A page: identifier, metadata, payload and a payload checksum.
///
/// The payload is a [`Bytes`] value, so cloning a page (for handing copies
/// out of the buffer) is O(1) and allocation-free. The checksum is computed
/// once in [`Page::new`] and travels with every clone; a copy whose payload
/// was damaged in flight (or in a buffer frame) no longer satisfies
/// [`Page::verify_checksum`], which is how the buffer detects corruption.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// The page's identity on disk.
    pub id: PageId,
    /// Metadata driving replacement decisions.
    pub meta: PageMeta,
    /// Serialized content, at most [`PAGE_SIZE`] bytes.
    pub payload: Bytes,
    /// [`page_checksum`] of the payload at construction time.
    checksum: u64,
}

impl Page {
    /// Creates a page, validating the payload size.
    pub fn new(id: PageId, meta: PageMeta, payload: Bytes) -> crate::Result<Self> {
        let checksum = page_checksum(&payload);
        Page::with_checksum(id, meta, payload, checksum)
    }

    /// Creates a page with an explicit checksum instead of computing one.
    ///
    /// This exists for layers that *transport* pages rather than create
    /// them: deserializers carrying a stored checksum forward, and the
    /// fault-injection store, which damages a payload while preserving the
    /// original checksum so the corruption stays detectable downstream.
    pub fn with_checksum(
        id: PageId,
        meta: PageMeta,
        payload: Bytes,
        checksum: u64,
    ) -> crate::Result<Self> {
        if payload.len() > PAGE_SIZE {
            return Err(crate::StorageError::PageOverflow {
                id,
                len: payload.len(),
            });
        }
        Ok(Page {
            id,
            meta,
            payload,
            checksum,
        })
    }

    /// The checksum recorded when the page was created.
    #[inline]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Whether the payload still matches the recorded checksum.
    #[inline]
    pub fn verify_checksum(&self) -> bool {
        page_checksum(&self.payload) == self.checksum
    }

    /// Maximum number of fixed-size entries a page payload can hold after
    /// the header.
    #[inline]
    pub const fn capacity_for(entry_size: usize) -> usize {
        (PAGE_SIZE - PAGE_HEADER_SIZE) / entry_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_geom::{Rect, SpatialCriterion};

    #[test]
    fn paper_fanouts_are_reproduced() {
        // Directory entry: 4 f64 coordinates + u64 child id = 40 bytes.
        assert_eq!(Page::capacity_for(40), 51);
        // Data entry: MBR + object id + object-page pointer = 48 bytes.
        assert_eq!(Page::capacity_for(48), 42);
    }

    #[test]
    fn page_rejects_oversized_payload() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let big = Bytes::from(vec![0u8; PAGE_SIZE + 1]);
        let err = Page::new(PageId::new(0), meta, big).unwrap_err();
        assert!(
            matches!(err, crate::StorageError::PageOverflow { len, .. } if len == PAGE_SIZE + 1)
        );
    }

    #[test]
    fn page_accepts_full_payload() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let full = Bytes::from(vec![0u8; PAGE_SIZE]);
        assert!(Page::new(PageId::new(0), meta, full).is_ok());
    }

    #[test]
    fn type_rank_orders_object_data_directory() {
        assert!(PageType::Object.type_rank() < PageType::Data.type_rank());
        assert!(PageType::Data.type_rank() < PageType::Directory.type_rank());
    }

    #[test]
    fn type_tag_roundtrip() {
        for t in [PageType::Directory, PageType::Data, PageType::Object] {
            assert_eq!(PageType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(PageType::from_tag(0), None);
        assert_eq!(PageType::from_tag(99), None);
    }

    #[test]
    fn priority_follows_tree_level() {
        let leaf = PageMeta::data(SpatialStats::EMPTY);
        let dir = PageMeta::directory(3, SpatialStats::EMPTY);
        let obj = PageMeta::object(SpatialStats::EMPTY);
        assert_eq!(obj.priority(), 0);
        assert_eq!(leaf.priority(), 1);
        assert_eq!(dir.priority(), 3);
    }

    #[test]
    fn meta_carries_spatial_stats() {
        let stats = SpatialStats::from_rects(&[Rect::new(0.0, 0.0, 2.0, 2.0)]);
        let meta = PageMeta::data(stats);
        assert_eq!(meta.stats.criterion(SpatialCriterion::Area), 4.0);
    }

    #[test]
    fn page_id_successor() {
        let a = PageId::new(5);
        let b = PageId::new(6);
        assert!(b.is_successor_of(&a));
        assert!(!a.is_successor_of(&b));
        assert!(!a.is_successor_of(&a));
    }

    /// A fixed 2 KiB byte pattern.
    fn pattern_2k() -> Vec<u8> {
        (0..PAGE_SIZE).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// A full index page in the R*-tree node layout: the 8-byte header
    /// (`tag, level, count u16, reserved u32`) followed by `count` entries
    /// of four `f64` coordinates and `ids` trailing `u64` fields each.
    fn encoded_node_page(tag: PageType, level: u8, count: u16, ids: u64) -> Vec<u8> {
        let mut out = vec![tag.tag(), level];
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        for i in 0..u64::from(count) {
            let x = i as f64 * 0.75;
            for coord in [x, x + 1.0, x + 0.25, x + 2.5] {
                out.extend_from_slice(&coord.to_le_bytes());
            }
            for k in 0..ids {
                out.extend_from_slice(&(1_000 * i + k).to_le_bytes());
            }
        }
        out
    }

    /// A full leaf page (42 entries, 2 024 bytes) and a full directory
    /// page (51 entries, 2 048 bytes).
    fn full_index_pages() -> [Vec<u8>; 2] {
        let leaf = encoded_node_page(PageType::Data, 1, 42, 2);
        let dir = encoded_node_page(PageType::Directory, 3, 51, 1);
        assert_eq!((leaf.len(), dir.len()), (8 + 42 * 48, PAGE_SIZE));
        [leaf, dir]
    }

    #[test]
    fn checksum_known_answers() {
        assert_eq!(page_checksum(b""), 0x8c6f_2728_3366_ff5e);
        assert_eq!(page_checksum(b"abc"), 0x935b_2ac4_a0cc_ca20);
        assert_eq!(page_checksum(&pattern_2k()), 0x1719_adc9_154b_a40c);
        assert_ne!(page_checksum(b"abc"), page_checksum(b"abd"));
        assert_ne!(page_checksum(b""), page_checksum(b"\0"));
    }

    #[test]
    fn every_single_byte_flip_of_an_index_page_is_detected() {
        for page in full_index_pages() {
            let clean = page_checksum(&page);
            let mut damaged = page.clone();
            for at in 0..page.len() {
                // Every single-bit flip of the byte, and the whole byte.
                for mask in (0..8).map(|b| 1u8 << b).chain([0xFF]) {
                    damaged[at] ^= mask;
                    assert_ne!(page_checksum(&damaged), clean, "flip {mask:#04x} at {at}");
                    damaged[at] ^= mask;
                }
            }
        }
    }

    #[test]
    fn every_truncation_of_an_index_page_is_detected() {
        for page in full_index_pages() {
            let clean = page_checksum(&page);
            for len in 0..page.len() {
                assert_ne!(page_checksum(&page[..len]), clean, "truncated to {len}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// Random payloads with one or two damaged bytes never verify.
        #[test]
        fn random_one_or_two_byte_damage_is_detected(
            payload in proptest::collection::vec(0u8..=255, 2..=PAGE_SIZE),
            (at, gap, two) in (0usize..PAGE_SIZE, 0usize..PAGE_SIZE, 0u8..2),
            (first, second) in (1u8..=255, 1u8..=255),
        ) {
            let clean = page_checksum(&payload);
            let mut damaged = payload.clone();
            let at = at % payload.len();
            damaged[at] ^= first;
            if two == 1 {
                // A second, different byte.
                let other = (at + 1 + gap % (payload.len() - 1)) % payload.len();
                damaged[other] ^= second;
            }
            proptest::prop_assert_ne!(page_checksum(&damaged), clean);
        }
    }

    #[test]
    fn page_id_hash_spreads_low_bits_and_control_tag() {
        use std::collections::HashSet;
        use std::hash::BuildHasher;
        let hash = |raw: u64| PageIdBuildHasher::default().hash_one(PageId::new(raw));
        for ids in [
            (0..4096).collect::<Vec<u64>>(),
            (0..4096).map(|i| i * 4096).collect(),
        ] {
            let hashes: Vec<u64> = ids.iter().map(|&raw| hash(raw)).collect();
            let distinct: HashSet<u64> = hashes.iter().copied().collect();
            assert_eq!(distinct.len(), ids.len(), "finish() values collide");
            // Bucket index of a 4096-bucket table: a random function fills
            // about 63 % of the buckets; an identity hash of strided ids
            // would fill one.
            let buckets: HashSet<u64> = hashes.iter().map(|h| h & 4095).collect();
            assert!(
                buckets.len() > 2400,
                "low bits fill {} buckets",
                buckets.len()
            );
            // hashbrown's 7-bit control tag: all 128 values show up; an
            // identity hash would give every small id the tag 0.
            let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert_eq!(tags.len(), 128, "top 7 bits take {} values", tags.len());
        }
        // The map hash is exactly the shard-routing mix of the raw id.
        assert_eq!(hash(12_345), splitmix64(12_345));
    }

    #[test]
    fn fresh_pages_verify() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let p = Page::new(PageId::new(3), meta, Bytes::from_static(b"payload")).unwrap();
        assert!(p.verify_checksum());
        assert_eq!(p.checksum(), page_checksum(b"payload"));
        assert!(p.clone().verify_checksum());
    }

    #[test]
    fn preserved_checksum_exposes_tampered_payload() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let p = Page::new(PageId::new(3), meta, Bytes::from_static(b"payload")).unwrap();
        let tampered =
            Page::with_checksum(p.id, p.meta, Bytes::from_static(b"grabled"), p.checksum())
                .unwrap();
        assert!(!tampered.verify_checksum());
        // An honestly rebuilt page verifies again.
        let rebuilt = Page::new(p.id, p.meta, Bytes::from_static(b"grabled")).unwrap();
        assert!(rebuilt.verify_checksum());
    }

    #[test]
    fn with_checksum_still_rejects_oversized_payload() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let big = Bytes::from(vec![0u8; PAGE_SIZE + 1]);
        assert!(Page::with_checksum(PageId::new(0), meta, big, 0).is_err());
    }

    #[test]
    fn page_clone_is_cheap_and_equal() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let p = Page::new(PageId::new(1), meta, Bytes::from_static(b"abc")).unwrap();
        let q = p.clone();
        assert_eq!(p, q);
    }
}
