//! Property tests of the framing and reassembly layers: arbitrary
//! payloads must round-trip through chunked frames byte-for-byte, and a
//! flipped bit anywhere on the wire must never surface as a *wrong*
//! payload — rejection or silence, never corruption.

use oddci_wire::frame::crc32_parts;
use oddci_wire::{encode_chunks, FrameDecoder, Integrity, Reassembler, HEADER_LEN};
use proptest::prelude::*;

/// Feeds `bytes` to a fresh decoder+reassembler in `step`-sized slices
/// and returns every fully reassembled (kind, seq, payload).
fn pump(integrity: &Integrity, bytes: &[u8], step: usize) -> Vec<(u8, u64, Vec<u8>)> {
    let mut decoder = FrameDecoder::new(integrity.clone());
    let mut reassembler = Reassembler::new();
    let mut out = Vec::new();
    for chunk in bytes.chunks(step.max(1)) {
        decoder.extend(chunk);
        while let Some(frame) = decoder.next_frame() {
            if let Some(msg) = reassembler.push(frame) {
                out.push((msg.kind, msg.seq, msg.payload));
            }
        }
    }
    out
}

/// Bit-at-a-time IEEE CRC-32: the textbook definition, sharing no table
/// with the slice-by-8 implementation it checks.
fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any payload (including empty) round-trips through any chunk size
    /// and any read-slice size.
    #[test]
    fn envelope_round_trips(payload in proptest::collection::vec(any::<u8>(), 0..4096),
                            max_chunk in 1usize..1024,
                            step in 1usize..512,
                            seq in 0u64..1000,
                            kind in 1u8..10,
                            hmac in any::<bool>()) {
        let integrity = if hmac {
            Integrity::hmac(b"proptest-key")
        } else {
            Integrity::Crc32
        };
        let frames = encode_chunks(&integrity, kind, seq, &payload, max_chunk);
        // ceil(len / max_chunk), and at least one frame even when empty.
        let expected = payload.len().div_ceil(max_chunk).max(1);
        prop_assert_eq!(frames.len(), expected);
        let bytes: Vec<u8> = frames.concat();
        let got = pump(&integrity, &bytes, step);
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(got[0].0, kind);
        prop_assert_eq!(got[0].1, seq);
        prop_assert_eq!(&got[0].2, &payload);
    }

    /// A single flipped bit anywhere in the stream: the damaged message
    /// is rejected or withheld, and is NEVER delivered with a different
    /// payload. A trailing clean message still gets through (resync).
    #[test]
    fn bit_flip_never_delivers_wrong_payload(
            payload in proptest::collection::vec(any::<u8>(), 0..2048),
            max_chunk in 1usize..512,
            flip_at in any::<usize>(),
            flip_bit in 0u8..8,
            hmac in any::<bool>()) {
        let integrity = if hmac {
            Integrity::hmac(b"proptest-key")
        } else {
            Integrity::Crc32
        };
        let mut bytes: Vec<u8> = encode_chunks(&integrity, 3, 7, &payload, max_chunk).concat();
        let n = bytes.len();
        let at = flip_at % n;
        bytes[at] ^= 1 << flip_bit;
        // A clean follow-up message big enough to out-supply the worst
        // damage: a flipped bit in the length field can claim up to
        // MAX_FRAME_PAYLOAD bytes (larger claims are rejected outright),
        // and the decoder cannot tell that claim from a partial arrival
        // until the buffered bytes cover it. Real traffic (heartbeats)
        // provides that flow; here the follow-up does.
        let follow = vec![0xAB; oddci_wire::MAX_FRAME_PAYLOAD + HEADER_LEN + 64];
        bytes.extend(encode_chunks(&integrity, 4, 8, &follow, 16 * 1024).concat());

        let got = pump(&integrity, &bytes, 97);
        for (kind, seq, delivered) in &got {
            match (kind, seq) {
                // If the damaged message survives at all, it must be
                // byte-identical (the flip landed in padding it didn't —
                // impossible here since every byte is covered, so any
                // delivery must equal the original payload exactly).
                (3, 7) => prop_assert_eq!(delivered, &payload),
                (4, 8) => prop_assert_eq!(delivered, &follow),
                other => prop_assert!(false, "unexpected delivery {:?}", other),
            }
        }
        // The clean trailing message always arrives.
        prop_assert!(got.iter().any(|(k, s, _)| *k == 4 && *s == 8),
                     "resync lost the clean follow-up");
    }

    /// Chunks arriving out of order (whole-frame permutation within one
    /// message) still reassemble exactly, and duplicated frames are
    /// absorbed without corrupting the payload.
    #[test]
    fn reordered_and_duplicated_chunks_reassemble(
            payload in proptest::collection::vec(any::<u8>(), 1..2048),
            max_chunk in 16usize..256,
            rot in 0usize..8,
            dup in any::<usize>()) {
        let integrity = Integrity::Crc32;
        let mut frames = encode_chunks(&integrity, 5, 11, &payload, max_chunk);
        let rot = rot % frames.len();
        frames.rotate_left(rot);
        let dup_frame = frames[dup % frames.len()].clone();
        frames.push(dup_frame);
        let bytes: Vec<u8> = frames.concat();
        let got = pump(&integrity, &bytes, 64);
        prop_assert_eq!(got.len(), 1, "duplicates must not re-deliver");
        prop_assert_eq!(&got[0].2, &payload);
    }

    /// Slice-by-8 CRC-32 over any bytes split at any points (parts of
    /// any length, empty ones included, so boundaries fall off the
    /// 8-byte stride) equals the bitwise reference over the whole.
    #[test]
    fn crc32_parts_matches_bitwise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
            cuts in proptest::collection::vec(any::<usize>(), 0..6)) {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        let mut parts: Vec<&[u8]> = Vec::new();
        let mut from = 0;
        for cut in cuts {
            parts.push(&bytes[from..cut]);
            from = cut;
        }
        parts.push(&bytes[from..]);
        prop_assert_eq!(crc32_parts(&parts), crc32_reference(&bytes));
    }
}
