//! Property tests for the wire codec: every message type must round-trip
//! through framing under 1-byte reassembly, and no damaged frame —
//! truncated, bit-flipped, or duplicated — may ever decode silently
//! wrong.

use net::frame::{encode_frame, FrameError, FrameReader};
use net::message::{Message, PROTOCOL_VERSION};
use proptest::prelude::*;

fn arb_name() -> BoxedStrategy<String> {
    // Includes JSON-special characters so escaping is exercised.
    prop::collection::vec(0usize..6, 0..12)
        .prop_map(|picks| {
            picks
                .into_iter()
                .map(|p| ['a', 'Z', '"', '\\', '/', ' '][p])
                .collect()
        })
        .boxed()
}

fn arb_message() -> BoxedStrategy<Message> {
    prop_oneof![
        arb_name().prop_map(|worker| Message::Hello {
            worker,
            version: PROTOCOL_VERSION,
        }),
        ((0usize..5), arb_name(), arb_name()).prop_map(|(shards, jobs_jsonl, config_json)| {
            Message::Welcome {
                batch_seed: u64::MAX - shards as u64,
                fault_rate_bits: 0.25f64.to_bits(),
                shards: shards + 1,
                jobs_jsonl,
                config_json,
                lease_ms: 500,
                heartbeat_ms: 100,
            }
        }),
        arb_name().prop_map(|worker| Message::Claim { worker }),
        ((0usize..8), (0usize..1000)).prop_map(|(shard_id, epoch)| Message::Grant {
            shard_id,
            epoch: epoch as u64,
            taken_over_from: (epoch % 2 == 0).then(|| format!("pid:{epoch}/feed")),
        }),
        (0usize..100_000).prop_map(|ms| Message::Wait {
            backoff_ms: ms as u64
        }),
        ((0usize..8), (0usize..64), arb_name()).prop_map(|(shard_id, index, record_json)| {
            Message::JobResult {
                shard_id,
                epoch: 3,
                index,
                record_json,
            }
        }),
        ((0usize..8), (0usize..1000)).prop_map(|(shard_id, beats)| Message::Heartbeat {
            shard_id,
            epoch: 1,
            beats: beats as u64,
        }),
        (0usize..8).prop_map(|shard_id| Message::LeaseRenew { shard_id, epoch: 2 }),
        (0usize..1000).prop_map(|epoch| Message::Ack {
            epoch: epoch as u64
        }),
        arb_name().prop_map(|reason| Message::Reject { reason }),
        Just(Message::Drain),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_byte_reassembly_round_trips(msg in arb_message()) {
        let frame = encode_frame(&msg.encode());
        let mut reader = FrameReader::new();
        let mut decoded = None;
        for byte in &frame {
            reader.feed(std::slice::from_ref(byte));
            if let Some(payload) = reader.next_frame().map_err(|e| {
                TestCaseError::fail(format!("codec error mid-stream: {e}"))
            })? {
                prop_assert!(decoded.is_none(), "frame produced twice");
                decoded = Some(payload);
            }
        }
        let payload = decoded.ok_or_else(|| TestCaseError::fail("frame never completed"))?;
        let back = Message::decode(&payload)
            .map_err(|e| TestCaseError::fail(format!("decode: {e}")))?;
        prop_assert_eq!(back, msg);
        prop_assert_eq!(reader.pending(), 0);
    }

    #[test]
    fn truncation_never_yields_a_frame(msg in arb_message(), cut_per_mille in 0usize..1000) {
        let frame = encode_frame(&msg.encode());
        let cut = (frame.len() * cut_per_mille) / 1000;
        prop_assert!(cut < frame.len());
        let mut reader = FrameReader::new();
        reader.feed(&frame[..cut]);
        match reader.next_frame() {
            Ok(None) => {}
            Ok(Some(p)) => {
                return Err(TestCaseError::fail(format!(
                    "truncated at {cut}/{} but produced a {}-byte payload",
                    frame.len(),
                    p.len()
                )))
            }
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "truncation must look incomplete, not damaged: {e}"
                )))
            }
        }
    }

    #[test]
    fn bit_flips_never_decode_silently(msg in arb_message(), pos_seed in 0usize..10_000, bit in 0usize..8) {
        let mut frame = encode_frame(&msg.encode());
        let pos = pos_seed % frame.len();
        frame[pos] ^= 1 << bit;
        let mut reader = FrameReader::new();
        reader.feed(&frame);
        match reader.next_frame() {
            // A flipped length field can make the frame look incomplete —
            // the stream stalls, which a real peer handles as a timeout.
            Ok(None) => {}
            Ok(Some(_)) => {
                return Err(TestCaseError::fail(format!(
                    "bit {bit} at byte {pos} decoded as a valid frame"
                )))
            }
            Err(FrameError::BadMagic(_))
            | Err(FrameError::TooLarge(_))
            | Err(FrameError::ChecksumMismatch { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error: {e}"))),
        }
    }

    #[test]
    fn duplication_decodes_to_two_identical_messages(msg in arb_message()) {
        let frame = encode_frame(&msg.encode());
        let mut reader = FrameReader::new();
        reader.feed(&frame);
        reader.feed(&frame);
        let first = reader
            .next_frame()
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .ok_or_else(|| TestCaseError::fail("first copy missing"))?;
        let second = reader
            .next_frame()
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .ok_or_else(|| TestCaseError::fail("second copy missing"))?;
        prop_assert_eq!(&first, &second);
        let decoded = Message::decode(&first)
            .map_err(|e| TestCaseError::fail(format!("decode: {e}")))?;
        prop_assert_eq!(decoded, msg);
    }
}
