//! Property tests for the wire codec: every representable frame round
//! trips bit-exactly, and *no* byte sequence — truncated, spliced, or
//! random — can make the decoder panic; it either decodes or names a
//! [`DecodeError`].

use nbb_proto::{
    decode_request, decode_response, encode_request, encode_response, DecodeError, Framer, Request,
    RequestOp, Response, ResponseBody, WireBound, WireProjection, WireServerStats, HEADER_LEN,
};
use proptest::prelude::*;

/// Deterministically builds one of every request-op shape from plain
/// generated scalars (the shim has no `prop_oneof`, so selection is an
/// integer and construction happens in the test body).
fn build_request_op(
    sel: u8,
    table: String,
    index: String,
    blobs: Vec<Vec<u8>>,
    limit: u32,
    bsel: u8,
) -> RequestOp {
    let first = blobs.first().cloned().unwrap_or_default();
    let bound = |sel: u8, k: Vec<u8>| match sel % 3 {
        0 => WireBound::Unbounded,
        1 => WireBound::Included(k),
        _ => WireBound::Excluded(k),
    };
    match sel % 8 {
        0 => RequestOp::GetMany { table, index, keys: blobs },
        1 => RequestOp::ProjectMany { table, index, keys: blobs },
        2 => RequestOp::InsertMany { table, tuples: blobs },
        3 => RequestOp::PutMany { table, index, tuples: blobs },
        4 => {
            let pairs = blobs.iter().map(|b| (b.clone(), first.clone())).collect();
            RequestOp::UpdateMany { table, index, pairs }
        }
        5 => RequestOp::DeleteMany { table, index, keys: blobs },
        6 => RequestOp::Range {
            table,
            index,
            lo: bound(bsel, first.clone()),
            hi: bound(bsel.wrapping_add(1), first),
            limit,
        },
        _ => RequestOp::Stats,
    }
}

fn build_response_body(sel: u8, blobs: Vec<Vec<u8>>, flags: u64) -> ResponseBody {
    let first = blobs.first().cloned().unwrap_or_default();
    match sel % 9 {
        0 => ResponseBody::Error { message: String::from_utf8_lossy(&first).into_owned() },
        1 => ResponseBody::GetMany {
            rows: blobs
                .into_iter()
                .enumerate()
                .map(|(i, b)| if i % 2 == 0 { Some(b) } else { None })
                .collect(),
        },
        2 => ResponseBody::ProjectMany {
            rows: blobs
                .into_iter()
                .enumerate()
                .map(|(i, b)| match i % 3 {
                    0 => None,
                    n => Some(WireProjection { payload: b, index_only: n == 1 }),
                })
                .collect(),
        },
        3 => ResponseBody::InsertMany {
            rids: blobs.iter().map(|b| b.len() as u64 ^ flags).collect(),
        },
        4 => ResponseBody::PutMany { rids: blobs.iter().map(|b| b.len() as u64).collect() },
        5 => ResponseBody::UpdateMany { applied: blobs.iter().map(|b| b.len() % 2 == 0).collect() },
        8 => ResponseBody::DeleteMany { applied: blobs.iter().map(|b| b.len() % 3 == 0).collect() },
        6 => ResponseBody::Range {
            rows: blobs.iter().map(|b| (b.clone(), first.clone())).collect(),
            more: flags.is_multiple_of(2),
            resume: if blobs.is_empty() { None } else { Some(first) },
        },
        _ => ResponseBody::Stats(WireServerStats {
            frames_in: flags,
            frames_out: flags.wrapping_mul(3),
            bytes_in: flags >> 1,
            bytes_out: flags >> 2,
            batches_executed: flags & 0xFF,
            queue_full_parks: flags % 7,
            active_connections: flags % 11,
            connections_opened: flags % 13,
            connections_refused: flags % 17,
            decode_errors: flags % 19,
        }),
    }
}

proptest! {
    #[test]
    fn requests_round_trip(
        id in proptest::prelude::any::<u64>(),
        sel in 0u8..8,
        table in "[a-z]{1,8}",
        index in "[a-z]{1,8}",
        blobs in prop::collection::vec(prop::collection::vec(0u8..=255, 0..24), 0..8),
        limit in 0u32..100_000,
        bsel in 0u8..6,
    ) {
        let req = Request { id, op: build_request_op(sel, table, index, blobs, limit, bsel) };
        let frame = encode_request(&req);
        prop_assert_eq!(decode_request(&frame[HEADER_LEN..]), Ok(req));
    }

    #[test]
    fn responses_round_trip(
        id in proptest::prelude::any::<u64>(),
        sel in 0u8..9,
        blobs in prop::collection::vec(prop::collection::vec(0u8..=255, 0..24), 0..8),
        flags in proptest::prelude::any::<u64>(),
    ) {
        let resp = Response { id, body: build_response_body(sel, blobs, flags) };
        let frame = encode_response(&resp);
        prop_assert_eq!(decode_response(&frame[HEADER_LEN..]), Ok(resp));
    }

    #[test]
    fn truncated_requests_never_decode_and_never_panic(
        sel in 0u8..8,
        table in "[a-z]{1,8}",
        index in "[a-z]{1,8}",
        blobs in prop::collection::vec(prop::collection::vec(0u8..=255, 0..16), 1..5),
        cut_frac in 0.0f64..1.0,
    ) {
        let req = Request { id: 7, op: build_request_op(sel, table, index, blobs, 10, 1) };
        let frame = encode_request(&req);
        let payload = &frame[HEADER_LEN..];
        let cut = ((payload.len() as f64) * cut_frac) as usize;
        if cut < payload.len() {
            // A strict prefix must fail by name — Truncated, since no
            // field can be mistaken for another under a clean cut.
            prop_assert!(matches!(
                decode_request(&payload[..cut]),
                Err(DecodeError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn spliced_garbage_decodes_or_errors_but_never_panics(
        sel in 0u8..8,
        table in "[a-z]{1,8}",
        index in "[a-z]{1,8}",
        blobs in prop::collection::vec(prop::collection::vec(0u8..=255, 0..16), 1..5),
        pos_frac in 0.0f64..1.0,
        splice in prop::collection::vec(0u8..=255, 1..12),
    ) {
        // Overwrite a window of a valid payload with random bytes: the
        // decoder must terminate with Ok or a named error.
        let req = Request { id: 7, op: build_request_op(sel, table, index, blobs, 10, 1) };
        let frame = encode_request(&req);
        let mut payload = frame[HEADER_LEN..].to_vec();
        let pos = ((payload.len() as f64) * pos_frac) as usize;
        for (i, b) in splice.iter().enumerate() {
            if pos + i < payload.len() {
                payload[pos + i] = *b;
            }
        }
        let _ = decode_request(&payload); // must return, not panic
    }

    #[test]
    fn raw_random_bytes_never_panic_either_decoder(
        bytes in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    #[test]
    fn framer_reassembly_is_chunking_independent(
        id in proptest::prelude::any::<u64>(),
        sel in 0u8..8,
        table in "[a-z]{1,8}",
        blobs in prop::collection::vec(prop::collection::vec(0u8..=255, 0..16), 0..4),
        chunk in 1usize..17,
    ) {
        let req = Request {
            id,
            op: build_request_op(sel, table, "pk".to_string(), blobs, 5, 0),
        };
        let stream: Vec<u8> = encode_request(&req)
            .into_iter()
            .chain(encode_request(&req))
            .collect();
        let mut framer = Framer::new();
        let mut seen = 0usize;
        for part in stream.chunks(chunk) {
            framer.extend(part);
            while let Some(payload) = framer.next_payload().expect("valid stream") {
                prop_assert_eq!(decode_request(&payload), Ok(req.clone()));
                seen += 1;
            }
        }
        prop_assert_eq!(seen, 2);
        prop_assert_eq!(framer.eof_error(), None);
    }
}
