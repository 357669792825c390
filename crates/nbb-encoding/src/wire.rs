//! Order-preserving wire codecs for fixed-width unsigned integers.
//!
//! The network protocol (`nbb-proto`) frames every integer — request
//! ids, counts, lengths, record addresses — through these helpers so
//! the wire shares the engine's one encoding convention: big-endian
//! bytes, whose `memcmp` order equals numeric order. That is the same
//! property [`crate::rowcodec::RowLayout`] relies on for index keys
//! (with a sign flip for the signed types), which means a `u64` key
//! captured off the wire is directly comparable against leaf bytes with
//! no re-encoding step.
//!
//! Decodes are total: a short buffer yields `None`, never a panic, so
//! protocol parsers can surface named errors on truncated frames.

/// Appends `v` as 4 order-preserving big-endian bytes.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends `v` as 8 order-preserving big-endian bytes.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Reads a `u16` from the first 2 bytes of `b`; `None` when short.
#[inline]
pub fn get_u16(b: &[u8]) -> Option<u16> {
    Some(u16::from_be_bytes(b.get(..2)?.try_into().ok()?))
}

/// Reads a `u32` from the first 4 bytes of `b`; `None` when short.
#[inline]
pub fn get_u32(b: &[u8]) -> Option<u32> {
    Some(u32::from_be_bytes(b.get(..4)?.try_into().ok()?))
}

/// Reads a `u64` from the first 8 bytes of `b`; `None` when short.
#[inline]
pub fn get_u64(b: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(b.get(..8)?.try_into().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for v in [0u64, 1, 255, 256, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            assert_eq!(get_u64(&buf), Some(v));
        }
        let mut buf = 0xBEEFu16.to_be_bytes().to_vec();
        put_u32(&mut buf, 0xDEAD_F00D);
        assert_eq!(get_u16(&buf), Some(0xBEEF));
        assert_eq!(get_u32(&buf[2..]), Some(0xDEAD_F00D));
    }

    #[test]
    fn short_buffers_decode_to_none() {
        assert_eq!(get_u16(&[1]), None);
        assert_eq!(get_u32(&[1, 2, 3]), None);
        assert_eq!(get_u64(&[0; 7]), None);
        assert_eq!(get_u64(&[]), None);
    }

    #[test]
    fn memcmp_order_equals_numeric_order() {
        let encode = |v: u64| {
            let mut b = Vec::new();
            put_u64(&mut b, v);
            b
        };
        let mut values = [0u64, 1, 7, 255, 256, 65_535, 1 << 20, 1 << 40, u64::MAX];
        values.sort_unstable();
        for pair in values.windows(2) {
            assert!(encode(pair[0]) < encode(pair[1]), "{} vs {}", pair[0], pair[1]);
        }
    }
}
