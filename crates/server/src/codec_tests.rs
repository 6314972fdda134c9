//! Golden bytes for every format the server writes (wire requests and
//! responses, WAL delta and checkpoint frames, a session snapshot file)
//! and a seeded mutation sweep over every decoder.
//!
//! The fixtures under `tests/fixtures/` were captured from the encoders as
//! they stood before the wire, WAL and snapshot codecs moved onto the
//! shared `priu_core::snapshot` writer/reader; matching them byte for byte
//! shows that no byte on disk or on the wire changed. The snapshot's
//! session trains on integer-valued data at the portable SIMD level on one
//! thread, without the eigen capture, so its bits depend on no host CPU
//! feature or libm routine; only its measured training time differs
//! between fits.

use std::sync::Arc;

use priu_core::{Compression, Method, SessionBuilder, TrainerConfig};
use priu_data::catalog::Hyperparameters;
use priu_data::dataset::{DenseDataset, Labels};
use priu_linalg::{par, simd, Matrix, Vector};
use priu_rng::Rng64;

use crate::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, ProtocolError,
    RecoverySessionStatus, Request, RequestEnvelope, Response, ResponseEnvelope,
};
use crate::registry::SlotState;
use crate::snapshot::{decode_snapshot, parse_snapshot_file, snapshot_file_bytes};
use crate::wal::{
    encode_checkpoint, encode_record, push_frame, scan_bytes, CheckpointRecord, WalRecord,
};

/// `write_frame` frames, one per [`requests`] entry.
const REQUESTS: &[u8] = include_bytes!("../tests/fixtures/requests.frames");
/// `write_frame` frames, one per [`responses`] entry.
const RESPONSES: &[u8] = include_bytes!("../tests/fixtures/responses.frames");
/// A WAL file: the [`wal_checkpoint`] frame, then every [`wal_records`] frame.
const WAL: &[u8] = include_bytes!("../tests/fixtures/wal.log");
/// A snapshot file of one [`snapshot_state`] fit covering [`COVERED_LSN`].
const SNAPSHOT: &[u8] = include_bytes!("../tests/fixtures/session.snap");

const COVERED_LSN: u64 = 43;

/// Random mutations per fixture, on top of every truncation offset.
const MUTATIONS: usize = 512;

/// Every request variant.
fn requests() -> Vec<RequestEnvelope> {
    [
        Request::Predict {
            session: "tenant/model".into(),
            features: vec![0.0, -1.5, f64::MIN_POSITIVE, 1.0e300, -0.0],
        },
        Request::Delete {
            session: "s".into(),
            ids: vec![0, u64::MAX, 17],
        },
        Request::Flush {
            session: "s".into(),
        },
        Request::Stats {
            session: "πρ/iu".into(),
        },
        Request::Add {
            session: "s".into(),
            num_features: 3,
            features: vec![1.0, -2.5, 0.0, 4.0, f64::MAX, -0.0],
            labels: vec![1.0, -1.0],
        },
        Request::Add {
            session: "s".into(),
            num_features: 0,
            features: vec![],
            labels: vec![],
        },
        Request::Tick {
            session: "window".into(),
            num_features: 2,
            features: vec![0.5, 0.25],
            labels: vec![7.0],
            keep_last: 1000,
        },
        Request::Tick {
            session: "shrink-only".into(),
            num_features: 4,
            features: vec![],
            labels: vec![],
            keep_last: 64,
        },
        Request::Recovery,
        Request::DurabilityStats,
    ]
    .into_iter()
    .zip(1000..)
    .map(|(request, id)| RequestEnvelope { id, request })
    .collect()
}

/// Every response variant, both arms of every `Option` and every method
/// code.
fn responses() -> Vec<ResponseEnvelope> {
    let mut out = vec![
        Response::Predicted {
            value: -3.25,
            class: Some(2),
            epoch: 9,
        },
        Response::Predicted {
            value: f64::NEG_INFINITY,
            class: None,
            epoch: 0,
        },
    ];
    for method in Method::ALL.iter().map(|&m| Some(m)).chain([None]) {
        out.push(Response::Deleted {
            requested: 3,
            applied: 2,
            stale: 1,
            batch_rows: 5,
            method,
            seconds: 0.001953125,
            epoch: 4,
        });
        out.push(Response::Applied {
            added: 12,
            expired: 7,
            batch_rows: 9,
            method,
            seconds: 0.25,
            epoch: 3,
        });
    }
    out.extend([
        Response::Flushed,
        Response::Stats {
            epoch: 12,
            num_samples: 4800,
            num_features: 16,
            drift: 0.04,
            pending: 3,
            decisions: Method::ALL
                .iter()
                .zip(0..)
                .map(|(&m, n)| (m, 2 * n))
                .collect(),
        },
        Response::RecoveryStatus {
            durable: true,
            wal_records: 41,
            wal_tail: Some("truncated frame at byte 812".into()),
            snapshot_skips: 1,
            orphan_records: 2,
            sessions: vec![
                RecoverySessionStatus {
                    session: "a/x".into(),
                    redone: 3,
                    skipped: 1,
                    final_epoch: 9,
                },
                RecoverySessionStatus {
                    session: "b".into(),
                    redone: 0,
                    skipped: 0,
                    final_epoch: 1,
                },
            ],
        },
        Response::RecoveryStatus {
            durable: false,
            wal_records: 0,
            wal_tail: None,
            snapshot_skips: 0,
            orphan_records: 0,
            sessions: vec![],
        },
        Response::DurabilityStats {
            durable: true,
            fsyncs: 7,
            wal_frames: 41,
            wal_bytes: 9001,
            max_group: 12,
            checkpoints: 2,
        },
        Response::DurabilityStats {
            durable: false,
            fsyncs: 0,
            wal_frames: 0,
            wal_bytes: 0,
            max_group: 0,
            checkpoints: 0,
        },
        Response::Error {
            message: "unknown session \"x\"".into(),
        },
    ]);
    out.into_iter()
        .zip(2000..)
        .map(|(response, id)| ResponseEnvelope { id, response })
        .collect()
}

fn wal_checkpoint() -> CheckpointRecord {
    CheckpointRecord {
        next_lsn: 40,
        floors: vec![("a/x".into(), 12), ("πρ".into(), 40)],
    }
}

/// Delta records with and without `prev_lsn`, `keep_last` and `added`,
/// covering every method index.
fn wal_records() -> Vec<WalRecord> {
    let record = |lsn, prev_lsn, session: &str, method, removed_ids: &[u64]| WalRecord {
        lsn,
        prev_lsn,
        session: session.into(),
        method,
        removed_ids: removed_ids.to_vec(),
        keep_last: None,
        added: None,
    };
    vec![
        record(40, None, "a/x", Method::Priu, &[3, 9, 1 << 40]),
        WalRecord {
            keep_last: Some(128),
            added: Some((2, vec![0.5, -1.0, 2.0, -0.0], vec![1.0, -1.0])),
            ..record(41, Some(40), "a/x", Method::PriuOpt, &[])
        },
        WalRecord {
            keep_last: Some(0),
            added: Some((3, vec![], vec![])),
            ..record(42, None, "πρ", Method::Retrain, &[7])
        },
        WalRecord {
            added: Some((1, vec![4.0], vec![2.5])),
            ..record(43, Some(41), "b", Method::ClosedForm, &[])
        },
        WalRecord {
            keep_last: Some(u64::MAX),
            ..record(44, None, "b", Method::Influence, &[0, 1, 2])
        },
    ]
}

fn wal_bytes() -> Vec<u8> {
    let mut out = Vec::new();
    push_frame(&mut out, &encode_checkpoint(&wal_checkpoint())).unwrap();
    for record in wal_records() {
        push_frame(&mut out, &encode_record(&record)).unwrap();
    }
    out
}

fn snapshot_state() -> SlotState {
    let n = 12;
    let x = Matrix::from_fn(n, 2, |i, j| ((i * 7 + j * 3) % 11) as f64 / 4.0 - 1.0);
    let y = Vector::from_fn(n, |i| (i % 5) as f64 * 0.5 - 1.0);
    let hyper = Hyperparameters {
        batch_size: 4,
        num_iterations: 6,
        learning_rate: 0.125,
        regularization: 0.0625,
    };
    let session = simd::with_level(simd::SimdLevel::Portable, || {
        par::with_threads(1, || {
            SessionBuilder::dense(
                DenseDataset::new(x, Labels::Continuous(y)),
                TrainerConfig::from_hyper(hyper),
            )
            .seed(3)
            .compression(Compression::None)
            .opt_capture(false)
            .fit()
        })
    })
    .expect("the fixture session trains");
    SlotState {
        session: Arc::new(session),
        ids: (0..n as u64).map(|i| 2 * i + 1).collect(),
        next_id: 2 * n as u64 + 5,
        epoch: 6,
        initial_samples: n + 3,
        removed_since_refit: 3,
    }
}

/// Splits a `write_frame` stream back into its payloads.
fn frames(mut bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while let Some(payload) = read_frame(&mut bytes).expect("fixture frames are well formed") {
        out.push(payload);
    }
    out
}

#[test]
fn wire_fixtures_match_byte_for_byte() {
    let (requests, frames_) = (requests(), frames(REQUESTS));
    assert_eq!(frames_.len(), requests.len());
    for (env, frame) in requests.iter().zip(&frames_) {
        assert_eq!(&encode_request(env), frame, "{env:?}");
        assert_eq!(&decode_request(frame).unwrap(), env);
    }
    let (responses, frames_) = (responses(), frames(RESPONSES));
    assert_eq!(frames_.len(), responses.len());
    for (env, frame) in responses.iter().zip(&frames_) {
        assert_eq!(&encode_response(env), frame, "{env:?}");
        assert_eq!(&decode_response(frame).unwrap(), env);
    }
}

#[test]
fn wal_fixture_matches_byte_for_byte() {
    assert_eq!(wal_bytes(), WAL);
    let scan = scan_bytes(WAL);
    assert_eq!(scan.tail, None);
    assert_eq!(scan.valid_bytes, WAL.len() as u64);
    assert_eq!(scan.checkpoint, Some(wal_checkpoint()));
    assert_eq!(scan.records, wal_records());
}

#[test]
fn snapshot_fixture_matches_byte_for_byte() {
    let loaded = parse_snapshot_file(SNAPSHOT).unwrap();
    let fresh = snapshot_state();
    assert_eq!(loaded.covered_lsn, COVERED_LSN);
    assert_eq!(loaded.state.ids, fresh.ids);
    assert_eq!(loaded.state.next_id, fresh.next_id);
    assert_eq!(loaded.state.epoch, fresh.epoch);
    assert_eq!(loaded.state.initial_samples, fresh.initial_samples);
    assert_eq!(loaded.state.removed_since_refit, fresh.removed_since_refit);
    // A fresh fit reproduces every bit of the session blob except the
    // measured training time, its last eight bytes.
    let (blob, fresh_blob) = (
        loaded.state.session.to_snapshot_bytes(),
        fresh.session.to_snapshot_bytes(),
    );
    assert_eq!(blob.len(), fresh_blob.len());
    assert_eq!(blob[..blob.len() - 8], fresh_blob[..blob.len() - 8]);
    assert_eq!(
        snapshot_file_bytes(COVERED_LSN, &loaded.state).unwrap(),
        SNAPSHOT
    );
}

/// Seeded mutants of `bytes`: byte flips, splices of `donor` bytes
/// (insertions, deletions and overwrites) and all-ones runs where a length
/// prefix may sit. Truncations are generated separately by the callers.
fn mutants(bytes: &[u8], donor: &[u8], rng: &mut Rng64) -> Vec<Vec<u8>> {
    (0..MUTATIONS)
        .map(|_| {
            let mut m = bytes.to_vec();
            let at = rng.index(m.len());
            match rng.index(3) {
                0 => m[at] ^= rng.index(255) as u8 + 1,
                1 => {
                    let end = (at + rng.index(9)).min(m.len());
                    let from = rng.index(donor.len());
                    let to = (from + rng.index(17)).min(donor.len());
                    m.splice(at..end, donor[from..to].iter().copied());
                }
                _ => {
                    let end = (at + 4 + 4 * rng.index(2)).min(m.len());
                    m[at..end].fill(0xff);
                }
            }
            m
        })
        .collect()
}

#[test]
fn every_decoder_survives_seeded_mutations() {
    let mut rng = Rng64::from_seed(0xC0DE_C0DE);
    let request_frames = frames(REQUESTS);
    let response_frames = frames(RESPONSES);
    let donor: Vec<u8> = [REQUESTS, RESPONSES, WAL].concat();

    // Wire payloads: every strict prefix is a truncation; every mutant
    // decodes or fails typed.
    for payload in &request_frames {
        for cut in 0..payload.len() {
            let got = decode_request(&payload[..cut]);
            assert!(matches!(got, Err(ProtocolError::Truncated)), "{got:?}");
        }
        for m in mutants(payload, &donor, &mut rng) {
            let _ = decode_request(&m);
        }
    }
    for payload in &response_frames {
        for cut in 0..payload.len() {
            let got = decode_response(&payload[..cut]);
            assert!(matches!(got, Err(ProtocolError::Truncated)), "{got:?}");
        }
        for m in mutants(payload, &donor, &mut rng) {
            let _ = decode_response(&m);
        }
    }

    // The WAL file: a cut keeps a prefix of the records and reports a
    // tail; a mutant never yields more bytes than it has.
    let records = wal_records();
    for cut in 0..WAL.len() {
        let scan = scan_bytes(&WAL[..cut]);
        assert!(scan.valid_bytes <= cut as u64);
        assert!(records.starts_with(&scan.records));
        assert_eq!(scan.tail.is_none(), scan.valid_bytes == cut as u64);
    }
    for m in mutants(WAL, &donor, &mut rng) {
        assert!(scan_bytes(&m).valid_bytes <= m.len() as u64);
    }
    // Each frame payload, mutated and re-framed under a valid CRC, so the
    // mutants reach the record and checkpoint decoders.
    let payloads = std::iter::once(encode_checkpoint(&wal_checkpoint()))
        .chain(records.iter().map(encode_record));
    for payload in payloads {
        let cuts = (0..payload.len()).map(|cut| payload[..cut].to_vec());
        for m in cuts.chain(mutants(&payload, &donor, &mut rng)) {
            let mut frame = Vec::new();
            push_frame(&mut frame, &m).unwrap();
            let scan = scan_bytes(&frame);
            assert!(scan.records.len() + usize::from(scan.checkpoint.is_some()) <= 1);
        }
    }

    // The snapshot file (mostly caught by the CRC), then its payload fed
    // straight to the decoder.
    for cut in 0..SNAPSHOT.len() {
        assert!(parse_snapshot_file(&SNAPSHOT[..cut]).is_err());
    }
    for m in mutants(SNAPSHOT, &donor, &mut rng) {
        let _ = parse_snapshot_file(&m);
    }
    let payload = &SNAPSHOT[16..];
    for cut in 0..payload.len() {
        assert!(decode_snapshot(&payload[..cut]).is_err());
    }
    for m in mutants(payload, &donor, &mut rng) {
        let _ = decode_snapshot(&m);
    }
}
