//! Property tests for the wire protocol's framing layer
//! (`ranksql::common::wire`): whatever bytes arrive, `read_frame` answers
//! with a frame or a typed [`WireError`] and never panics; and every frame
//! `write_frame` emits reads back as exactly the opcode and payload that
//! went in.

use proptest::prelude::*;
use ranksql::common::wire::{read_frame, write_frame, WireError, MAX_FRAME_LEN};

/// A small read cap, so random length prefixes hit every branch: zero,
/// in range, and over the cap.
const SMALL_CAP: u32 = 32;

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary bytes, optionally behind a plausible length prefix, read
    /// as a sequence of frames until the first error.  Every frame honours
    /// the cap and every error is one of the typed outcomes.
    #[test]
    fn arbitrary_bytes_read_as_frames_or_typed_errors(
        prefix in 0u32..(SMALL_CAP + 8),
        use_prefix in any::<bool>(),
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut input = Vec::new();
        if use_prefix {
            input.extend_from_slice(&prefix.to_be_bytes());
        }
        input.extend_from_slice(&bytes);
        let mut r = &input[..];
        let mut consumed = 0usize;
        loop {
            match read_frame(&mut r, SMALL_CAP) {
                Ok((_, payload)) => {
                    prop_assert!(payload.len() < SMALL_CAP as usize);
                    consumed += 5 + payload.len();
                    prop_assert_eq!(consumed, input.len() - r.len());
                }
                Err(WireError::Io(e)) => {
                    prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                    break;
                }
                Err(WireError::Oversized { len, max }) => {
                    prop_assert!(len > max);
                    prop_assert_eq!(max, SMALL_CAP);
                    break;
                }
                Err(WireError::Malformed(_)) => break,
            }
        }
    }

    /// `write_frame` → `read_frame` is the identity on (opcode, payload),
    /// for a run of frames sharing one stream.
    #[test]
    fn written_frames_read_back_unchanged(
        frames in prop::collection::vec(
            (any::<u8>(), prop::collection::vec(any::<u8>(), 0..300)),
            1..6,
        ),
    ) {
        let mut stream = Vec::new();
        for (op, payload) in &frames {
            write_frame(&mut stream, *op, payload).unwrap();
        }
        let mut r = &stream[..];
        for (op, payload) in &frames {
            let (got_op, got_payload) = read_frame(&mut r, MAX_FRAME_LEN).unwrap();
            prop_assert_eq!(got_op, *op);
            prop_assert_eq!(&got_payload, payload);
        }
        prop_assert!(r.is_empty());
    }
}

/// The largest payload the cap admits round-trips.
#[test]
fn payload_at_the_cap_round_trips() {
    let payload: Vec<u8> = (0..MAX_FRAME_LEN - 1).map(|i| i as u8).collect();
    let mut stream = Vec::new();
    write_frame(&mut stream, 0x7E, &payload).unwrap();
    let (op, got) = read_frame(&mut &stream[..], MAX_FRAME_LEN).unwrap();
    assert_eq!(op, 0x7E);
    assert_eq!(got, payload);
}
