//! Property tests for the artifact codec: decode(encode(x)) == x for
//! every serialised type under arbitrary inputs, re-encoding is
//! byte-stable, and any single-byte corruption of a stored envelope is
//! detected rather than silently decoded.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use fbist_bits::BitVec;
use fbist_fault::{Fault, FaultList, FaultSite};
use fbist_netlist::GateId;
use fbist_setcover::FirstDetectionMatrix;
use fbist_store::{
    decode_from_slice, encode_to_vec, Artifact, ArtifactStore, DecodeError, StageKey,
};
use fbist_tpg::Triplet;
use proptest::prelude::*;

/// A fresh, empty directory no other test shares, in this process or a
/// concurrent one: the label names the caller, the process id and a
/// process-wide counter keep equal labels apart.
fn unique_temp_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fbist-{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// decode(encode(x)) == x, and the re-encoding is the same byte stream
/// (a canonical encoding — required for content addressing to be stable).
fn assert_round_trip<T: Artifact + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = encode_to_vec(value);
    let back: T = decode_from_slice(&bytes).expect("decode of a fresh encoding");
    assert_eq!(&back, value);
    assert_eq!(encode_to_vec(&back), bytes, "re-encoding must be stable");
}

fn bitvec() -> impl Strategy<Value = BitVec> {
    (0usize..200).prop_flat_map(|w| {
        proptest::collection::vec(any::<u64>(), w.div_ceil(64))
            .prop_map(move |words| BitVec::from_words(w, &words))
    })
}

fn triplet() -> impl Strategy<Value = Triplet> {
    (1usize..140, 0usize..10_000).prop_flat_map(|(w, tau)| {
        let nw = w.div_ceil(64);
        (
            proptest::collection::vec(any::<u64>(), nw),
            proptest::collection::vec(any::<u64>(), nw),
        )
            .prop_map(move |(d, t)| {
                Triplet::new(BitVec::from_words(w, &d), BitVec::from_words(w, &t), tau)
            })
    })
}

fn fault() -> impl Strategy<Value = Fault> {
    (0u32..1_000_000, any::<bool>(), 0u32..8, any::<bool>()).prop_map(
        |(gate, on_input, pin, stuck)| {
            let site = if on_input {
                FaultSite::GateInput {
                    gate: GateId::from_index(gate as usize),
                    pin,
                }
            } else {
                FaultSite::GateOutput(GateId::from_index(gate as usize))
            };
            Fault::stuck_at(site, stuck)
        },
    )
}

/// The τ_max values at which the cell width changes (u8 → u16 → u32),
/// with the values on either side.
const WIDTH_BOUNDARIES: [usize; 5] = [0, 254, 255, 65534, 65535];

/// splitmix64: a deterministic stream from one proptest seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `rows × cols` matrix at `tau_max` whose cells are a seeded mix of
/// "never detected", 0, `tau_max` and indices in between.
fn matrix_at(rows: usize, cols: usize, tau_max: usize, seed: u64) -> FirstDetectionMatrix {
    let mut state = seed;
    let mut m = FirstDetectionMatrix::undetected(rows, cols, tau_max);
    for r in 0..rows {
        let row: Vec<u32> = (0..cols)
            .map(|_| match splitmix(&mut state) % 4 {
                0 => FirstDetectionMatrix::NO_DETECTION,
                1 => 0,
                2 => tau_max as u32,
                _ => (splitmix(&mut state) % (tau_max as u64 + 1)) as u32,
            })
            .collect();
        m.merge_min(r, &row);
    }
    m
}

/// A valid first-detection matrix at a width boundary or an arbitrary
/// τ_max.
fn first_detection() -> impl Strategy<Value = FirstDetectionMatrix> {
    (0usize..12, 1usize..20, 0usize..7, any::<u64>()).prop_map(|(rows, cols, pick, seed)| {
        let tau_max = match pick {
            5 => (seed % 70_000) as usize,
            6 => 1 << 24,
            i => WIDTH_BOUNDARIES[i],
        };
        matrix_at(rows, cols, tau_max, seed)
    })
}

/// Byte offset of the first cell in an encoded matrix: rows, cols,
/// τ_max, the width tag and the cell bytes' length prefix.
const CELLS_AT: usize = 8 + 8 + 8 + 1 + 8;

/// An encoded matrix header followed by `payload` as its cell bytes.
fn raw_matrix(rows: u64, cols: u64, tau_max: u64, width: u8, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for v in [rows, cols, tau_max] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes.push(width);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

fn decodes_invalid(bytes: &[u8]) -> bool {
    matches!(
        decode_from_slice::<FirstDetectionMatrix>(bytes),
        Err(DecodeError::Invalid(_))
    )
}

proptest! {
    #[test]
    fn bitvec_round_trips(v in bitvec()) {
        assert_round_trip(&v);
    }

    #[test]
    fn triplet_round_trips(t in triplet()) {
        assert_round_trip(&t);
    }

    #[test]
    fn fault_round_trips(f in fault()) {
        assert_round_trip(&f);
    }

    #[test]
    fn fault_list_round_trips(faults in proptest::collection::vec(fault(), 0..50)) {
        assert_round_trip(&FaultList::from_faults(faults));
    }

    #[test]
    fn u64_round_trips(v in any::<u64>()) {
        assert_round_trip(&v);
    }

    #[test]
    fn first_detection_round_trips(m in first_detection()) {
        assert_round_trip(&m);
    }

    #[test]
    fn truncated_first_detection_never_decodes(m in first_detection(), cut in any::<u64>()) {
        let bytes = encode_to_vec(&m);
        let cut = (cut % bytes.len() as u64) as usize;
        prop_assert!(decode_from_slice::<FirstDetectionMatrix>(&bytes[..cut]).is_err());
    }

    #[test]
    fn a_cell_beyond_tau_max_never_decodes(m in first_detection(), at in any::<u64>()) {
        // every out-of-range value of the cell's width other than the
        // sentinel is rejected, at any position
        let width = m.cells().bytes_per_cell();
        prop_assume!(!m.cells().is_empty() && m.tau_max() + 1 < (1usize << (8 * width)) - 1);
        let mut bytes = encode_to_vec(&m);
        let cell = (at % m.cells().len() as u64) as usize;
        let span = ((1u64 << (8 * width)) - 1) - (m.tau_max() as u64 + 1);
        let value = m.tau_max() as u64 + 1 + (at >> 8) % span;
        let pos = CELLS_AT + cell * width;
        bytes[pos..pos + width].copy_from_slice(&value.to_le_bytes()[..width]);
        prop_assert!(decodes_invalid(&bytes));
    }

    #[test]
    fn arbitrary_headers_never_panic(
        rows in any::<u64>(),
        cols in any::<u64>(),
        tau_max in any::<u64>(),
        width in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // untrusted sizes up to 2^64: decoding fails without panicking
        // or allocating for them (only a payload of exactly rows × cols
        // cells, every one in range, decodes)
        let bytes = raw_matrix(rows, cols, tau_max, width, &payload);
        if let Ok(m) = decode_from_slice::<FirstDetectionMatrix>(&bytes) {
            prop_assert_eq!(m.cells().len() * m.cells().bytes_per_cell(), payload.len());
            prop_assert_eq!(encode_to_vec(&m), bytes);
        }
    }

    #[test]
    fn truncated_encodings_never_decode(t in triplet(), cut in 0usize..100) {
        // any strict prefix must be rejected, never misread
        let bytes = encode_to_vec(&t);
        prop_assume!(cut < bytes.len());
        prop_assert!(decode_from_slice::<Triplet>(&bytes[..cut]).is_err());
    }
}

#[test]
fn first_detection_round_trips_at_every_width_boundary() {
    for (tau_max, width) in WIDTH_BOUNDARIES.into_iter().zip([1, 1, 2, 2, 4]) {
        let m = matrix_at(5, 9, tau_max, tau_max as u64);
        assert_eq!(m.cells().bytes_per_cell(), width, "τ_max={tau_max}");
        assert_eq!(m.max_first(), Some(tau_max as u32), "τ_max={tau_max}");
        assert_round_trip(&m);
        let bytes = encode_to_vec(&m);
        assert_eq!(bytes.len(), CELLS_AT + 5 * 9 * width, "τ_max={tau_max}");
    }
}

#[test]
fn first_detection_rejects_a_width_tag_that_does_not_match_tau_max() {
    for (tau_max, wrong) in [
        (7u64, 2u8),
        (254, 2),
        (255, 1),
        (255, 4),
        (65535, 2),
        (7, 3),
    ] {
        let cells = vec![0u8; 2 * usize::from(wrong)];
        let bytes = raw_matrix(1, 2, tau_max, wrong, &cells);
        assert!(decodes_invalid(&bytes), "τ_max={tau_max} tag {wrong}");
    }
    // a τ_max at the u32 sentinel has no valid width at all
    let bytes = raw_matrix(1, 1, u64::from(u32::MAX), 4, &[0; 4]);
    assert!(decodes_invalid(&bytes));
}

#[test]
fn first_detection_rejects_overflowing_and_mismatched_sizes() {
    // rows × cols overflows usize
    assert!(decodes_invalid(&raw_matrix(1 << 40, 1 << 40, 7, 1, &[])));
    // rows × cols × width overflows usize
    assert!(decodes_invalid(&raw_matrix(
        1 << 31,
        1 << 31,
        70_000,
        4,
        &[]
    )));
    // a huge but representable size with a short payload
    assert!(decodes_invalid(&raw_matrix(
        1 << 30,
        1 << 20,
        7,
        1,
        &[0; 16]
    )));
    // a cell-byte length prefix far beyond the buffer
    let mut bytes = raw_matrix(2, 2, 7, 1, &[0; 4]);
    bytes[CELLS_AT - 8..CELLS_AT].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode_from_slice::<FirstDetectionMatrix>(&bytes).is_err());
    // one cell too few and one too many
    assert!(decodes_invalid(&raw_matrix(2, 2, 7, 1, &[0; 3])));
    assert!(decodes_invalid(&raw_matrix(2, 2, 7, 1, &[0; 5])));
    // the sentinel decodes, the value just above τ_max does not
    assert!(decode_from_slice::<FirstDetectionMatrix>(&raw_matrix(1, 2, 7, 1, &[7, 255])).is_ok());
    assert!(decodes_invalid(&raw_matrix(1, 2, 7, 1, &[8, 255])));
    assert!(decodes_invalid(&raw_matrix(
        1,
        1,
        300,
        2,
        &301u16.to_le_bytes()
    )));
}

#[test]
fn every_single_byte_corruption_of_a_stored_artifact_is_detected() {
    // flip each byte of a stored envelope in turn: the load must fail
    // (magic, version, kind, key digest, payload checksum, or a codec
    // invariant) — never silently return a different artifact
    let dir = unique_temp_dir("store-corrupt-prop");
    let store = ArtifactStore::open(&dir).unwrap();
    let value = Triplet::new(BitVec::from_u64(8, 0xA5), BitVec::from_u64(8, 0x3C), 7);
    let key = StageKey::new("triplet", {
        let mut d = fbist_store::Digest::new("corruption-prop");
        d.u64(1);
        d.finish()
    });
    store.save(key, &value).unwrap();
    let path = key.path_under(store.root());
    let pristine = std::fs::read(&path).unwrap();
    for i in 0..pristine.len() {
        for flip in [0x01u8, 0xFF] {
            let mut corrupt = pristine.clone();
            corrupt[i] ^= flip;
            std::fs::write(&path, &corrupt).unwrap();
            match store.load::<Triplet>(key) {
                Err(_) => {}
                Ok(got) => panic!("byte {i} ^ {flip:#04x}: corruption not detected (got {got:?})"),
            }
        }
    }
    // restore and prove the pristine file still loads
    std::fs::write(&path, &pristine).unwrap();
    assert_eq!(store.load::<Triplet>(key).unwrap(), Some(value));
    let _ = std::fs::remove_dir_all(dir);
}
