//! Query traces over the synthetic wiki.
//!
//! Reproduces the two access patterns the paper measures:
//!
//! * **Page lookups** (§2.1.4): 40% of Wikipedia's query volume hits the
//!   `page` table through the `name_title` index with zipfian (α = 0.5)
//!   popularity, projecting up to 4 extra fields.
//! * **Revision lookups** (§3.1): 99.9% of requests touch the ~5% of
//!   revision tuples that are each page's latest revision; the page
//!   popularity within the hot set is itself zipfian.

use crate::wikipedia::PageRow;
use crate::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One operation in a generated trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Point lookup on the page table by `(namespace, title)`, projecting
    /// the cached fields (answerable from the index cache).
    PageLookup {
        /// Namespace component of the name_title key.
        namespace: u32,
        /// Title component of the name_title key.
        title: String,
    },
    /// Point lookup on the revision table by `rev_id`.
    RevisionLookup {
        /// The revision id to fetch.
        rev_id: u64,
    },
    /// Update of a page's non-key fields (rewrites its cache entry).
    PageTouch {
        /// Namespace component of the key.
        namespace: u32,
        /// Title component of the key.
        title: String,
    },
}

/// Generates `nops` zipfian page lookups (the paper's 40% query class),
/// with an `update_fraction` of operations being `PageTouch` writes.
pub fn page_lookup_trace(
    pages: &[PageRow],
    nops: usize,
    alpha: f64,
    update_fraction: f64,
    seed: u64,
) -> Vec<TraceOp> {
    assert!(!pages.is_empty());
    assert!((0.0..=1.0).contains(&update_fraction));
    let mut rng = SmallRng::seed_from_u64(seed);
    let zipf = Zipf::new(pages.len() as u64, alpha);
    // Popularity rank -> page, scrambled so hot pages are scattered.
    let mut order: Vec<usize> = (0..pages.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    (0..nops)
        .map(|_| {
            let rank = zipf.sample(&mut rng) as usize - 1;
            let p = &pages[order[rank]];
            if rng.gen_bool(update_fraction) {
                TraceOp::PageTouch { namespace: p.namespace, title: p.title.clone() }
            } else {
                TraceOp::PageLookup { namespace: p.namespace, title: p.title.clone() }
            }
        })
        .collect()
}

/// Generates `nops` revision lookups: `hot_fraction` of them hit the hot
/// set (each page's latest revision, zipfian within it), the rest pick a
/// cold historical revision uniformly.
pub fn revision_lookup_trace(
    pages: &[PageRow],
    total_revisions: u64,
    nops: usize,
    hot_fraction: f64,
    alpha: f64,
    seed: u64,
) -> Vec<TraceOp> {
    assert!(!pages.is_empty());
    assert!((0.0..=1.0).contains(&hot_fraction));
    let mut rng = SmallRng::seed_from_u64(seed);
    let zipf = Zipf::new(pages.len() as u64, alpha);
    let hot: Vec<u64> = pages.iter().map(|p| p.latest_rev).collect();
    (0..nops)
        .map(|_| {
            let rev_id = if rng.gen_bool(hot_fraction) {
                hot[zipf.sample(&mut rng) as usize - 1]
            } else {
                rng.gen_range(1..=total_revisions)
            };
            TraceOp::RevisionLookup { rev_id }
        })
        .collect()
}

/// Summary statistics of a trace, for validating generated skew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceProfile {
    /// Total operations.
    pub ops: usize,
    /// Distinct keys touched.
    pub distinct: usize,
    /// Fraction of operations hitting the most popular 5% of keys.
    pub top5_share: f64,
    /// Fraction of operations that are writes.
    pub write_fraction: f64,
}

/// Profiles a trace (lookup skew, write share).
pub fn profile(trace: &[TraceOp]) -> TraceProfile {
    use std::collections::HashMap;
    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut writes = 0usize;
    for op in trace {
        let key = match op {
            TraceOp::PageLookup { namespace, title } => format!("p:{namespace}:{title}"),
            TraceOp::RevisionLookup { rev_id } => format!("r:{rev_id}"),
            TraceOp::PageTouch { namespace, title } => {
                writes += 1;
                format!("p:{namespace}:{title}")
            }
        };
        *counts.entry(key).or_insert(0) += 1;
    }
    let mut freq: Vec<u64> = counts.values().copied().collect();
    freq.sort_unstable_by(|a, b| b.cmp(a));
    let top5 = (freq.len() as f64 * 0.05).ceil() as usize;
    let top5_hits: u64 = freq.iter().take(top5.max(1)).sum();
    TraceProfile {
        ops: trace.len(),
        distinct: counts.len(),
        top5_share: top5_hits as f64 / trace.len() as f64,
        write_fraction: writes as f64 / trace.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wikipedia::WikiGenerator;

    fn wiki(n: u64) -> (Vec<PageRow>, u64) {
        let mut g = WikiGenerator::new(77);
        let mut pages = g.pages(n);
        let revs = g.revisions(&mut pages, 20);
        (pages, revs.len() as u64)
    }

    #[test]
    fn page_trace_is_skewed() {
        let (pages, _) = wiki(1000);
        let trace = page_lookup_trace(&pages, 50_000, 0.5, 0.0, 1);
        let p = profile(&trace);
        assert_eq!(p.ops, 50_000);
        assert_eq!(p.write_fraction, 0.0);
        // α=0.5 over 1000 items: the top 5% should draw well above 5%.
        assert!(p.top5_share > 0.10, "top5 share {}", p.top5_share);
    }

    #[test]
    fn page_trace_update_fraction_respected() {
        let (pages, _) = wiki(100);
        let trace = page_lookup_trace(&pages, 20_000, 0.5, 0.2, 2);
        let p = profile(&trace);
        assert!((p.write_fraction - 0.2).abs() < 0.02, "writes {}", p.write_fraction);
    }

    #[test]
    fn revision_trace_concentrates_on_hot_set() {
        let (pages, nrevs) = wiki(500);
        let hot: std::collections::HashSet<u64> = pages.iter().map(|p| p.latest_rev).collect();
        let trace = revision_lookup_trace(&pages, nrevs, 30_000, 0.999, 0.5, 3);
        let hot_hits = trace
            .iter()
            .filter(|op| match op {
                TraceOp::RevisionLookup { rev_id } => hot.contains(rev_id),
                _ => false,
            })
            .count();
        let share = hot_hits as f64 / trace.len() as f64;
        // 99.9% targeted plus a tiny accidental-hot from the cold picks.
        assert!(share > 0.995, "hot share {share}");
        // Hot set is ~5% of all revisions.
        let frac = hot.len() as f64 / nrevs as f64;
        assert!((0.03..0.08).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn traces_are_deterministic() {
        let (pages, nrevs) = wiki(50);
        let a = revision_lookup_trace(&pages, nrevs, 100, 0.9, 0.5, 5);
        let b = revision_lookup_trace(&pages, nrevs, 100, 0.9, 0.5, 5);
        assert_eq!(a, b);
        let c = revision_lookup_trace(&pages, nrevs, 100, 0.9, 0.5, 6);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn profile_counts_distinct_keys() {
        let ops = vec![
            TraceOp::RevisionLookup { rev_id: 1 },
            TraceOp::RevisionLookup { rev_id: 1 },
            TraceOp::RevisionLookup { rev_id: 2 },
        ];
        let p = profile(&ops);
        assert_eq!(p.distinct, 2);
        assert_eq!(p.ops, 3);
    }
}
