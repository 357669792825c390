//! Semantic IDs (§4.2): exploiting the opaqueness of surrogate keys.
//!
//! Applications treat AUTO_INCREMENT ids as opaque — only uniqueness
//! matters. The paper proposes two exploits:
//!
//! 1. **Embedding placement**: reassign the value so the id *contains*
//!    the tuple's partition ([`SemanticIdLayout`]), making query routing
//!    a bit-shift instead of a routing-table lookup. [`RoutingTable`] is
//!    the baseline it replaces; the bench compares their memory.
//! 2. **Reduction**: drop the id entirely and use the tuple's physical
//!    address as a proxy (column stores infer ids from offsets), saving
//!    the 8-byte id column per tuple.

use std::collections::HashMap;

/// Bit layout of a semantic id: `partition` in the high bits, a
/// per-partition sequence in the low bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SemanticIdLayout {
    partition_bits: u32,
}

impl SemanticIdLayout {
    /// Creates a layout with `partition_bits` high bits (1..=16).
    pub fn new(partition_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&partition_bits),
            "partition_bits must be in 1..=16, got {partition_bits}"
        );
        SemanticIdLayout { partition_bits }
    }

    /// Number of addressable partitions.
    pub fn max_partitions(&self) -> u32 {
        1 << self.partition_bits
    }

    /// Largest per-partition sequence number.
    pub fn max_seq(&self) -> u64 {
        (1u64 << (64 - self.partition_bits)) - 1
    }

    /// Builds an id from partition and sequence.
    ///
    /// # Panics
    /// Panics if either component exceeds its field.
    pub fn encode(&self, partition: u32, seq: u64) -> u64 {
        assert!(partition < self.max_partitions(), "partition {partition} out of range");
        assert!(seq <= self.max_seq(), "sequence {seq} out of range");
        (u64::from(partition) << (64 - self.partition_bits)) | seq
    }

    /// Extracts the partition — the O(1) routing operation.
    pub fn partition_of(&self, id: u64) -> u32 {
        (id >> (64 - self.partition_bits)) as u32
    }

    /// Extracts the per-partition sequence.
    pub fn seq_of(&self, id: u64) -> u64 {
        id & self.max_seq()
    }

    /// Re-homes an id to a new partition, preserving its sequence.
    ///
    /// This is the §3.1/§4.2 connection: moving a tuple between hot and
    /// cold partitions is an id update; if data is clustered on the id,
    /// "simply updating the ID value is enough to physically move the
    /// tuple".
    pub fn rehome(&self, id: u64, new_partition: u32) -> u64 {
        self.encode(new_partition, self.seq_of(id))
    }
}

/// Allocator handing out semantic ids per partition.
#[derive(Debug, Clone)]
pub struct SemanticIdAllocator {
    layout: SemanticIdLayout,
    next_seq: Vec<u64>,
}

impl SemanticIdAllocator {
    /// Creates an allocator for `partitions` partitions.
    pub fn new(layout: SemanticIdLayout, partitions: u32) -> Self {
        assert!(partitions <= layout.max_partitions());
        SemanticIdAllocator { layout, next_seq: vec![0; partitions as usize] }
    }

    /// The layout in use.
    pub fn layout(&self) -> SemanticIdLayout {
        self.layout
    }

    /// Allocates the next id in `partition`.
    pub fn allocate(&mut self, partition: u32) -> u64 {
        let seq = self.next_seq[partition as usize];
        self.next_seq[partition as usize] += 1;
        self.layout.encode(partition, seq)
    }
}

/// The baseline §4.2 argues against: an explicit id → partition map
/// ("such tables can easily become a resource and performance
/// bottleneck").
#[derive(Debug, Default, Clone)]
pub struct RoutingTable {
    map: HashMap<u64, u32>,
}

impl RoutingTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the location of `id`.
    pub fn insert(&mut self, id: u64, partition: u32) {
        self.map.insert(id, partition);
    }

    /// Looks up the partition of `id`.
    pub fn route(&self, id: u64) -> Option<u32> {
        self.map.get(&id).copied()
    }

    /// Number of routed tuples.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate resident bytes (key + value + hash-table overhead),
    /// for the memory comparison in the §4.2 bench.
    pub fn approx_bytes(&self) -> usize {
        // 8B key + 4B value, ~1.75x table overhead under SwissTable-like
        // load factors.
        (self.map.len() as f64 * (8.0 + 4.0) * 1.75) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let l = SemanticIdLayout::new(8);
        for p in [0u32, 1, 200, 255] {
            for s in [0u64, 1, 999_999, l.max_seq()] {
                let id = l.encode(p, s);
                assert_eq!(l.partition_of(id), p);
                assert_eq!(l.seq_of(id), s);
            }
        }
    }

    #[test]
    fn ids_unique_across_partitions() {
        let l = SemanticIdLayout::new(4);
        let mut a = SemanticIdAllocator::new(l, 16);
        let mut seen = std::collections::HashSet::new();
        for p in 0..16u32 {
            for _ in 0..100 {
                assert!(seen.insert(a.allocate(p)));
            }
        }
        assert_eq!(seen.len(), 1600);
    }

    #[test]
    fn rehome_preserves_sequence() {
        let l = SemanticIdLayout::new(2);
        let id = l.encode(0, 777);
        let moved = l.rehome(id, 3);
        assert_eq!(l.partition_of(moved), 3);
        assert_eq!(l.seq_of(moved), 777);
        assert_ne!(id, moved);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn overflow_partition_panics() {
        SemanticIdLayout::new(2).encode(4, 0);
    }

    #[test]
    #[should_panic(expected = "partition_bits")]
    fn zero_partition_bits_rejected() {
        SemanticIdLayout::new(0);
    }

    #[test]
    fn routing_table_baseline_works_but_costs_memory() {
        let l = SemanticIdLayout::new(8);
        let mut table = RoutingTable::new();
        let mut alloc = SemanticIdAllocator::new(l, 4);
        let mut ids = Vec::new();
        for p in 0..4u32 {
            for _ in 0..1000 {
                let id = alloc.allocate(p);
                table.insert(id, p);
                ids.push((id, p));
            }
        }
        // Both mechanisms agree…
        for (id, p) in &ids {
            assert_eq!(table.route(*id), Some(*p));
            assert_eq!(l.partition_of(*id), *p);
        }
        // …but the table costs linear memory while the layout costs none.
        assert!(table.approx_bytes() > 4000 * 12);
    }
}
