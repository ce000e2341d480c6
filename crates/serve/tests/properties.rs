//! Property-based hostile-input tests for the wire codecs.
//!
//! The resilience contract the daemon and the chaos battery lean on:
//! **no byte sequence makes a decoder panic or allocate past the frame
//! cap** — not the server-side request decoder, not the client-side
//! response decoders, not the shared frame reader. Malice and
//! corruption must surface as typed [`Status`] errors (or
//! `io::Error`s), never as an unwind into the connection thread's
//! per-request `catch_unwind` backstop.

use abp_serve::protocol::{self as wire, MAX_FRAME};
use proptest::prelude::*;

/// Feed every decoder in both codecs one payload; success or typed
/// error are both fine, panics and runaway reservations are not.
fn decode_everything(payload: &[u8]) {
    let mut ids = Vec::new();
    let _ = wire::decode_request(payload, &mut ids);
    let _ = wire::decode_localize_response(payload);
    let _ = wire::decode_place_response(payload);
    let _ = wire::decode_info_response(payload);
    let _ = wire::decode_stats_response(payload);
    assert!(
        ids.capacity() <= MAX_FRAME as usize,
        "id scratch ballooned to {} entries",
        ids.capacity()
    );
}

proptest! {
    /// Pure noise: arbitrary bytes through every decoder.
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        payload in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        decode_everything(&payload);
    }

    /// Plausible frames: a known (or near-miss) opcode/status byte in
    /// front of arbitrary bytes — deeper decode paths than pure noise
    /// reaches, since the leading byte gates the parse.
    #[test]
    fn decoders_never_panic_on_grafted_frames(
        lead in 0u8..10,
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut payload = Vec::with_capacity(1 + body.len());
        payload.push(lead);
        payload.extend_from_slice(&body);
        decode_everything(&payload);
    }

    /// Truncations of a valid stats response — the deepest frame in the
    /// protocol (fourteen header fields, histograms, flight entries) —
    /// must all decode to a typed error, never a slice panic.
    #[test]
    fn truncated_stats_frames_fail_typed(cut in 0usize..200) {
        let metrics = abp_serve::metrics::ServeMetrics::new();
        metrics.record(abp_serve::metrics::OpClass::Localize, 1_000);
        let mut out = Vec::new();
        wire::encode_stats_response(
            &mut out,
            &wire::StatsView { epoch: 3, metrics: &metrics, flight: &[] },
        );
        let payload = &out[4..];
        let cut = cut.min(payload.len().saturating_sub(1));
        prop_assert!(wire::decode_stats_response(&payload[..cut]).is_err());
    }

    /// The frame reader caps its buffer at `MAX_FRAME` no matter what
    /// length prefix the bytes claim.
    #[test]
    fn read_frame_never_panics_or_overallocates(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut stream = std::io::Cursor::new(bytes);
        let mut buf = Vec::new();
        let _ = wire::read_frame(&mut stream, &mut buf);
        prop_assert!(buf.capacity() <= MAX_FRAME as usize);
    }
}
