//! Synthetic Wikipedia `page` and `revision` tables.
//!
//! This is the substitution for the paper's real Wikipedia database:
//! the schemas mirror MediaWiki's — including its
//! deliberate encoding waste, e.g. **timestamps stored as 14-byte
//! strings** (`YYYYMMDDHHMMSS`) and booleans stored as full bytes — and
//! the generators reproduce the distributional facts the paper reports:
//!
//! * page lookups are zipfian with α ≈ 0.5 over (namespace, title);
//! * each page has a current revision; historical revisions pile up so
//!   the *latest* revisions are ~5% of the revision table;
//! * hot (latest) revisions are scattered roughly one per data page.
//!
//! Rows encode to fixed-width tuples ([`PageRow::encode`],
//! [`RevisionRow::encode`]) so heap pages, index caches, and the
//! §4.1 waste analyzer all operate on realistic bytes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// MediaWiki-style 14-char timestamp (`YYYYMMDDHHMMSS`) from an epoch
/// second counter starting 2011-01-01 00:00:00 (delegates to
/// [`nbb_encoding::timestamp`], the canonical implementation).
pub fn format_timestamp(epoch_s: u64) -> String {
    nbb_encoding::timestamp::format_epoch(epoch_s)
}

/// Parses [`format_timestamp`] output back to the epoch second counter.
pub fn parse_timestamp(ts: &str) -> Option<u64> {
    nbb_encoding::timestamp::parse_epoch(ts)
}

/// A row of the `page` table (MediaWiki schema subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageRow {
    /// `page_id` — AUTO_INCREMENT primary key (semantically opaque, §4.2).
    pub id: u64,
    /// `page_namespace`.
    pub namespace: u32,
    /// `page_title` (unique within a namespace).
    pub title: String,
    /// `page_counter` — view counter.
    pub counter: u64,
    /// `page_is_redirect` — stored as a whole byte (encoding waste).
    pub is_redirect: bool,
    /// `page_is_new` — stored as a whole byte (encoding waste).
    pub is_new: bool,
    /// `page_touched` — 14-byte string timestamp (encoding waste).
    pub touched: String,
    /// `page_latest` — id of the page's current revision.
    pub latest_rev: u64,
    /// `page_len` — length of the current revision text.
    pub len: u64,
}

/// Fixed width of [`PageRow::title`] in the tuple encoding.
pub const TITLE_WIDTH: usize = 28;
/// Encoded width of a [`PageRow`] tuple.
pub const PAGE_ROW_WIDTH: usize = 8 + 4 + TITLE_WIDTH + 8 + 1 + 1 + 14 + 8 + 8;

impl PageRow {
    /// Serializes to the fixed-width heap tuple layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PAGE_ROW_WIDTH);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.namespace.to_le_bytes());
        let mut t = [0u8; TITLE_WIDTH];
        let tb = self.title.as_bytes();
        let n = tb.len().min(TITLE_WIDTH);
        t[..n].copy_from_slice(&tb[..n]);
        out.extend_from_slice(&t);
        out.extend_from_slice(&self.counter.to_le_bytes());
        out.push(self.is_redirect as u8);
        out.push(self.is_new as u8);
        let mut ts = [b'0'; 14];
        let tsb = self.touched.as_bytes();
        ts[..tsb.len().min(14)].copy_from_slice(&tsb[..tsb.len().min(14)]);
        out.extend_from_slice(&ts);
        out.extend_from_slice(&self.latest_rev.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        debug_assert_eq!(out.len(), PAGE_ROW_WIDTH);
        out
    }

    /// Deserializes from [`PageRow::encode`] bytes.
    pub fn decode(b: &[u8]) -> Option<Self> {
        if b.len() != PAGE_ROW_WIDTH {
            return None;
        }
        let u64_at = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
        let title_end = b[12..12 + TITLE_WIDTH].iter().position(|&c| c == 0).unwrap_or(TITLE_WIDTH);
        Some(PageRow {
            id: u64_at(0),
            namespace: u32::from_le_bytes(b[8..12].try_into().unwrap()),
            title: String::from_utf8_lossy(&b[12..12 + title_end]).into_owned(),
            counter: u64_at(12 + TITLE_WIDTH),
            is_redirect: b[20 + TITLE_WIDTH] != 0,
            is_new: b[21 + TITLE_WIDTH] != 0,
            touched: String::from_utf8_lossy(&b[22 + TITLE_WIDTH..36 + TITLE_WIDTH]).into_owned(),
            latest_rev: u64_at(36 + TITLE_WIDTH),
            len: u64_at(44 + TITLE_WIDTH),
        })
    }

    /// The 17 bytes of "hot" projected fields the paper caches in the
    /// name_title index (4 fields, 25-byte cache items including the id):
    /// `latest_rev (8) ‖ len (8) ‖ is_redirect (1)`.
    pub fn cache_payload(&self) -> [u8; 17] {
        let mut out = [0u8; 17];
        out[..8].copy_from_slice(&self.latest_rev.to_le_bytes());
        out[8..16].copy_from_slice(&self.len.to_le_bytes());
        out[16] = self.is_redirect as u8;
        out
    }
}

/// A row of the `revision` table (MediaWiki schema subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevisionRow {
    /// `rev_id` — AUTO_INCREMENT primary key.
    pub id: u64,
    /// `rev_page` — owning page.
    pub page_id: u64,
    /// `rev_text_id` — pointer to the text blob.
    pub text_id: u64,
    /// `rev_comment` — edit summary (fixed width here).
    pub comment: String,
    /// `rev_user` — editor id.
    pub user: u64,
    /// `rev_timestamp` — 14-byte string (encoding waste).
    pub timestamp: String,
    /// `rev_minor_edit` — whole byte for one bit.
    pub minor_edit: bool,
    /// `rev_deleted` — whole byte for one bit.
    pub deleted: bool,
    /// `rev_len`.
    pub len: u64,
    /// `rev_parent_id` — previous revision of the same page (0 = none).
    pub parent_id: u64,
}

/// Fixed width of [`RevisionRow::comment`] in the tuple encoding.
pub const COMMENT_WIDTH: usize = 40;
/// Encoded width of a [`RevisionRow`] tuple.
pub const REVISION_ROW_WIDTH: usize = 8 * 3 + COMMENT_WIDTH + 8 + 14 + 1 + 1 + 8 + 8;

impl RevisionRow {
    /// Serializes to the fixed-width heap tuple layout.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(REVISION_ROW_WIDTH);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.page_id.to_le_bytes());
        out.extend_from_slice(&self.text_id.to_le_bytes());
        let mut c = [0u8; COMMENT_WIDTH];
        let cb = self.comment.as_bytes();
        let n = cb.len().min(COMMENT_WIDTH);
        c[..n].copy_from_slice(&cb[..n]);
        out.extend_from_slice(&c);
        out.extend_from_slice(&self.user.to_le_bytes());
        let mut ts = [b'0'; 14];
        let tsb = self.timestamp.as_bytes();
        ts[..tsb.len().min(14)].copy_from_slice(&tsb[..tsb.len().min(14)]);
        out.extend_from_slice(&ts);
        out.push(self.minor_edit as u8);
        out.push(self.deleted as u8);
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.parent_id.to_le_bytes());
        debug_assert_eq!(out.len(), REVISION_ROW_WIDTH);
        out
    }

    /// Deserializes from [`RevisionRow::encode`] bytes.
    pub fn decode(b: &[u8]) -> Option<Self> {
        if b.len() != REVISION_ROW_WIDTH {
            return None;
        }
        let u64_at = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
        let o = 24;
        let comment_end =
            b[o..o + COMMENT_WIDTH].iter().position(|&c| c == 0).unwrap_or(COMMENT_WIDTH);
        Some(RevisionRow {
            id: u64_at(0),
            page_id: u64_at(8),
            text_id: u64_at(16),
            comment: String::from_utf8_lossy(&b[o..o + comment_end]).into_owned(),
            user: u64_at(o + COMMENT_WIDTH),
            timestamp: String::from_utf8_lossy(&b[o + COMMENT_WIDTH + 8..o + COMMENT_WIDTH + 22])
                .into_owned(),
            minor_edit: b[o + COMMENT_WIDTH + 22] != 0,
            deleted: b[o + COMMENT_WIDTH + 23] != 0,
            len: u64_at(o + COMMENT_WIDTH + 24),
            parent_id: u64_at(o + COMMENT_WIDTH + 32),
        })
    }
}

/// Deterministic generator for a synthetic wiki.
pub struct WikiGenerator {
    rng: SmallRng,
}

impl WikiGenerator {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        WikiGenerator { rng: SmallRng::seed_from_u64(seed) }
    }

    /// Generates `n` pages with ids `1..=n`, unique titles, and realistic
    /// field contents (small namespaces, short titles, byte booleans,
    /// string timestamps).
    pub fn pages(&mut self, n: u64) -> Vec<PageRow> {
        (1..=n)
            .map(|id| {
                let namespace =
                    *[0u32, 0, 0, 0, 0, 0, 1, 2, 4, 10].get(self.rng.gen_range(0..10)).unwrap();
                let title = format!("Page_{:x}_{}", self.rng.gen::<u32>(), id);
                let len = self.rng.gen_range(100..60_000);
                PageRow {
                    id,
                    namespace,
                    title,
                    counter: self.rng.gen_range(0..100_000),
                    is_redirect: self.rng.gen_bool(0.07),
                    is_new: self.rng.gen_bool(0.02),
                    touched: format_timestamp(self.rng.gen_range(0..86_400 * 300)),
                    latest_rev: 0, // assigned by `revisions`
                    len,
                }
            })
            .collect()
    }

    /// Generates a revision history with `revs_per_page` revisions per
    /// page *on average* (so latest revisions are ≈`1/revs_per_page` of
    /// the table — the paper's 5% corresponds to `revs_per_page = 20`).
    ///
    /// Every edit gets a random timestamp and revisions are appended in
    /// global time order — Wikipedia's append-only heap. Each page's
    /// *latest* revision therefore lands wherever that page happened to
    /// be edited last: scattered through the table, approaching one hot
    /// tuple per data page (§3.1's "2% utilization"). Sets each page's
    /// `latest_rev`.
    pub fn revisions(&mut self, pages: &mut [PageRow], revs_per_page: usize) -> Vec<RevisionRow> {
        assert!(revs_per_page >= 1);
        // Edit events: page index + timestamp, count per page uniform in
        // [1, 2*revs_per_page - 1] (mean = revs_per_page).
        let horizon = 86_400u64 * 300;
        let mut events: Vec<(u64, usize)> = Vec::with_capacity(pages.len() * revs_per_page);
        for pi in 0..pages.len() {
            let k = self.rng.gen_range(1..=2 * revs_per_page - 1);
            for _ in 0..k {
                events.push((self.rng.gen_range(0..horizon), pi));
            }
        }
        events.sort_unstable();
        let mut out = Vec::with_capacity(events.len());
        let mut last_of_page = vec![0u64; pages.len()];
        for (rev_id0, (ts, pi)) in events.into_iter().enumerate() {
            let rev_id = rev_id0 as u64 + 1;
            let page = &mut pages[pi];
            out.push(RevisionRow {
                id: rev_id,
                page_id: page.id,
                text_id: rev_id + 1_000_000,
                comment: format!("edit of {}", page.title),
                user: self.rng.gen_range(1..50_000),
                timestamp: format_timestamp(ts),
                minor_edit: self.rng.gen_bool(0.3),
                deleted: false,
                len: self.rng.gen_range(100..60_000),
                parent_id: last_of_page[pi],
            });
            last_of_page[pi] = rev_id;
            page.latest_rev = rev_id;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_round_trip() {
        for s in [0u64, 59, 3600, 86_399, 86_400 * 359, 86_400 * 4000 + 12_345] {
            let ts = format_timestamp(s);
            assert_eq!(ts.len(), 14);
            assert_eq!(parse_timestamp(&ts), Some(s), "epoch {s} -> {ts}");
        }
    }

    #[test]
    fn timestamp_rejects_garbage() {
        assert_eq!(parse_timestamp("not-a-time!!!!"), None);
        assert_eq!(parse_timestamp("2011"), None);
        assert_eq!(parse_timestamp("20111401000000"), None); // month 14
    }

    #[test]
    fn page_row_round_trip() {
        let mut g = WikiGenerator::new(1);
        let mut pages = g.pages(50);
        g.revisions(&mut pages, 3);
        for p in &pages {
            let enc = p.encode();
            assert_eq!(enc.len(), PAGE_ROW_WIDTH);
            assert_eq!(PageRow::decode(&enc).unwrap(), *p);
        }
    }

    #[test]
    fn revision_row_round_trip() {
        let mut g = WikiGenerator::new(2);
        let mut pages = g.pages(20);
        let revs = g.revisions(&mut pages, 4);
        for r in &revs {
            let enc = r.encode();
            assert_eq!(enc.len(), REVISION_ROW_WIDTH);
            assert_eq!(RevisionRow::decode(&enc).unwrap(), *r);
        }
    }

    #[test]
    fn latest_revisions_are_scattered_and_about_5_percent() {
        let mut g = WikiGenerator::new(3);
        let mut pages = g.pages(500);
        let revs = g.revisions(&mut pages, 20);
        let latest: std::collections::HashSet<u64> = pages.iter().map(|p| p.latest_rev).collect();
        assert_eq!(latest.len(), 500, "one latest revision per page");
        let frac = latest.len() as f64 / revs.len() as f64;
        assert!((0.03..0.08).contains(&frac), "hot fraction {frac}");
        // Scattered: the hot set spans a wide range of table positions,
        // not a contiguous tail block (the §3.1 precondition).
        let positions: Vec<usize> = revs
            .iter()
            .enumerate()
            .filter(|(_, r)| latest.contains(&r.id))
            .map(|(i, _)| i)
            .collect();
        let span = positions.last().unwrap() - positions.first().unwrap();
        assert!(span > revs.len() / 2, "hot set clustered: span {span} of {}", revs.len());
        // Typical gap between consecutive hot tuples is many rows — i.e.
        // roughly one hot tuple per data page at realistic tuple sizes.
        let mean_gap = span as f64 / positions.len() as f64;
        assert!(mean_gap > 3.0, "hot tuples adjacent: mean gap {mean_gap}");
    }

    #[test]
    fn revisions_are_in_time_order_with_ids_matching() {
        let mut g = WikiGenerator::new(9);
        let mut pages = g.pages(50);
        let revs = g.revisions(&mut pages, 5);
        for w in revs.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp, "append order must be time order");
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn parent_chain_links_history() {
        let mut g = WikiGenerator::new(4);
        let mut pages = g.pages(10);
        let revs = g.revisions(&mut pages, 5);
        // For each page: parent pointers chain through every revision of
        // that page, ending at 0.
        for p in &pages {
            let expect = revs.iter().filter(|r| r.page_id == p.id).count();
            let mut cur = p.latest_rev;
            let mut hops = 0;
            while cur != 0 {
                let r = revs.iter().find(|r| r.id == cur).unwrap();
                assert_eq!(r.page_id, p.id);
                cur = r.parent_id;
                hops += 1;
            }
            assert_eq!(hops, expect, "page {}", p.id);
            assert!(hops >= 1);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = WikiGenerator::new(42);
        let mut b = WikiGenerator::new(42);
        assert_eq!(a.pages(20), b.pages(20));
    }

    #[test]
    fn cache_payload_has_fixed_width() {
        let mut g = WikiGenerator::new(5);
        let p = &g.pages(1)[0];
        assert_eq!(p.cache_payload().len(), 17);
        let pl = p.cache_payload();
        assert_eq!(u64::from_le_bytes(pl[..8].try_into().unwrap()), p.latest_rev);
    }

    #[test]
    fn titles_are_unique() {
        let mut g = WikiGenerator::new(6);
        let pages = g.pages(2000);
        let titles: std::collections::HashSet<_> =
            pages.iter().map(|p| (p.namespace, p.title.clone())).collect();
        assert_eq!(titles.len(), pages.len());
    }
}
