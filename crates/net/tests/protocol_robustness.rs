//! The codec against hostile bytes: truncations, oversized lengths,
//! wrong versions, bit flips, random garbage. The contract under test
//! is the crate's no-panic gate made concrete — every outcome is
//! `Ok(Some(..))`, `Ok(None)` (need more bytes), or a typed
//! [`ProtocolError`]; the decoder must never panic and never balloon
//! memory on a hostile length or count.

use ssq_engine::{Algorithm, CounterSet};
use ssq_geom::{Point, Rect};
use ssq_net::wire::{
    decode, encode_frame, Frame, ProtocolError, QuerySpec, StatsResult, WireResult, WireUpdate,
    DEFAULT_MAX_FRAME_LEN, FRAME_OVERHEAD, SERVED_BY_CACHE, SERVED_BY_DIAGRAM, WIRE_VERSION,
};
use ssq_net::ErrorCode;
use ssq_rng::Xoshiro256;

/// One valid encoding of every frame kind — the corpus the corruption
/// tests mutate.
fn corpus() -> Vec<Vec<u8>> {
    let q = vec![Point::new(1.0, 2.0), Point::new(3.5, -4.25)];
    let frames = vec![
        Frame::Ping,
        Frame::Pong,
        Frame::Query {
            force: Some(Algorithm::B2s2),
            query: q.clone(),
        },
        Frame::QueryResult(WireResult {
            generation: 7,
            algorithm: 2,
            served_by: SERVED_BY_CACHE,
            skyline: vec![1, 5, 9],
        }),
        Frame::Batch {
            queries: vec![
                QuerySpec {
                    force: None,
                    query: q.clone(),
                },
                QuerySpec {
                    force: Some(Algorithm::Naive),
                    query: vec![Point::new(0.0, 0.0)],
                },
            ],
        },
        Frame::BatchResult(vec![WireResult {
            generation: 1,
            algorithm: 0,
            served_by: SERVED_BY_DIAGRAM,
            skyline: vec![2],
        }]),
        Frame::SessionOpen { query: q },
        Frame::SessionOpened {
            session: 3,
            generation: 9,
            skyline: vec![0, 1],
        },
        Frame::SessionNext {
            session: 3,
            object: 1,
            x: 2.5,
            y: -1.5,
        },
        Frame::SessionUpdated(WireUpdate {
            outcome: 1,
            generation: 11,
            skyline: vec![4],
        }),
        Frame::SessionClose { session: 3 },
        Frame::SessionClosed { existed: true },
        Frame::Stats,
        Frame::StatsResult(Box::new(StatsResult {
            data_len: 100,
            universe: Rect {
                min: Point::new(0.0, 0.0),
                max: Point::new(10.0, 10.0),
            },
            // Every group populated: counter i of the table reads i.
            groups: {
                let mut next = 0u64;
                CounterSet::decode(|| {
                    next += 1;
                    Ok::<u64, ProtocolError>(next)
                })
                .expect("an endless word source cannot truncate")
            },
        })),
        Frame::RetryLater { backoff_ms: 25 },
        Frame::Error {
            code: ErrorCode::Malformed,
            message: "nope".into(),
        },
        Frame::Goodbye,
    ];
    frames
        .iter()
        .enumerate()
        .map(|(i, frame)| {
            let mut buf = Vec::new();
            encode_frame(i as u64, frame, DEFAULT_MAX_FRAME_LEN, &mut buf)
                .expect("corpus frames fit the default cap");
            buf
        })
        .collect()
}

/// Decode must classify — not panic on — any byte slice.
fn decode_must_not_panic(bytes: &[u8]) {
    match decode(bytes, DEFAULT_MAX_FRAME_LEN) {
        Ok(Some(_)) | Ok(None) => {}
        Err(_e) => {} // typed rejection is a valid outcome
    }
}

#[test]
fn every_truncation_of_every_frame_is_classified() {
    for frame in corpus() {
        for cut in 0..frame.len() {
            let truncated = &frame[..cut];
            // A truncated frame either asks for more bytes or — when the
            // cut corrupts the header fields themselves — gets a typed
            // rejection; it must never decode to a *different* frame.
            match decode(truncated, DEFAULT_MAX_FRAME_LEN) {
                Ok(None) | Err(_) => {}
                Ok(Some((_, consumed))) => {
                    panic!(
                        "truncated prefix ({cut} of {}) decoded {consumed} bytes",
                        frame.len()
                    )
                }
            }
        }
    }
}

#[test]
fn single_bit_flips_never_panic_and_never_over_read() {
    for frame in corpus() {
        for byte in 0..frame.len() {
            for bit in 0..8u8 {
                let mut mutated = frame.clone();
                mutated[byte] ^= 1 << bit;
                if let Ok(Some((_, consumed))) = decode(&mutated, DEFAULT_MAX_FRAME_LEN) {
                    // A flip inside the payload may still decode (data
                    // bytes are opaque) but must never read past what
                    // the original frame occupied + the flipped length.
                    assert!(
                        consumed <= mutated.len(),
                        "decode consumed {consumed} of {} bytes",
                        mutated.len()
                    );
                }
            }
        }
    }
}

#[test]
fn random_garbage_is_classified_not_panicked_on() {
    let mut rng = Xoshiro256::seed_from_u64(0xF00D);
    for _ in 0..2000 {
        let len = rng.range_usize(64);
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        decode_must_not_panic(&bytes);
    }
    // Garbage with a *plausible* header: correct version byte, random
    // kind/length — exercises every per-kind payload reader.
    for _ in 0..2000 {
        let payload_len = rng.range_usize(48);
        let mut bytes = Vec::new();
        let len = (FRAME_OVERHEAD + payload_len) as u32;
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.push(WIRE_VERSION);
        bytes.push((rng.next_u64() & 0xFF) as u8);
        bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        for _ in 0..payload_len {
            bytes.push((rng.next_u64() & 0xFF) as u8);
        }
        decode_must_not_panic(&bytes);
    }
}

#[test]
fn hostile_length_prefixes_are_rejected_without_allocation() {
    // Length claims u32::MAX: the decoder must reject from the 4-byte
    // prefix alone — long before any buffer of that size could exist.
    let mut bytes = u32::MAX.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[WIRE_VERSION, 0x01]);
    match decode(&bytes, DEFAULT_MAX_FRAME_LEN) {
        Err(ProtocolError::Oversized { len, max }) => {
            assert_eq!(len, u32::MAX as usize);
            assert_eq!(max, DEFAULT_MAX_FRAME_LEN);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }

    // A query frame whose point count claims 200 million entries inside
    // a small declared frame: the count×16 guard must reject before the
    // Vec reservation, as a typed Truncated error.
    let count: u32 = 200_000_000;
    let mut payload = vec![0u8]; // force byte: none
    payload.extend_from_slice(&count.to_le_bytes());
    let mut frame = Vec::new();
    let len = (FRAME_OVERHEAD + payload.len()) as u32;
    frame.extend_from_slice(&len.to_le_bytes());
    frame.push(WIRE_VERSION);
    frame.push(0x02); // query kind
    frame.extend_from_slice(&7u64.to_le_bytes());
    frame.extend_from_slice(&payload);
    match decode(&frame, DEFAULT_MAX_FRAME_LEN) {
        Err(ProtocolError::Truncated { .. }) => {}
        other => panic!("expected Truncated for a hostile count, got {other:?}"),
    }
}

#[test]
fn wrong_version_is_a_typed_error_for_every_kind() {
    for frame in corpus() {
        let mut mutated = frame.clone();
        mutated[4] = WIRE_VERSION + 1;
        match decode(&mutated, DEFAULT_MAX_FRAME_LEN) {
            Err(ProtocolError::UnsupportedVersion { version }) => {
                assert_eq!(version, WIRE_VERSION + 1)
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn pipelined_corpus_decodes_back_to_back() {
    // All corpus frames concatenated — the pipelining wire image — must
    // decode one by one, each consuming exactly its own bytes.
    let corpus = corpus();
    let stream: Vec<u8> = corpus.iter().flatten().copied().collect();
    let mut offset = 0usize;
    let mut decoded = 0usize;
    while offset < stream.len() {
        match decode(&stream[offset..], DEFAULT_MAX_FRAME_LEN) {
            Ok(Some((envelope, consumed))) => {
                assert_eq!(envelope.request_id, decoded as u64);
                offset += consumed;
                decoded += 1;
            }
            other => panic!("mid-stream decode failed at {offset}: {other:?}"),
        }
    }
    assert_eq!(decoded, corpus.len());
}
