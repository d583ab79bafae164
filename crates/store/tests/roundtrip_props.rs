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
use fbist_store::{decode_from_slice, encode_to_vec, Artifact, ArtifactStore, StageKey};
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

/// A structurally valid first-detection CSR: per row, a strictly
/// ascending subset of the columns with arbitrary bounded first-indices.
fn first_detection() -> impl Strategy<Value = FirstDetectionMatrix> {
    (0usize..12, 1usize..20).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            proptest::collection::vec((0..cols, 0u32..5_000), 0..cols),
            rows,
        )
        .prop_map(move |row_entries| {
            let mut row_ptr = vec![0usize];
            let mut col_idx = Vec::new();
            let mut first = Vec::new();
            for entries in &row_entries {
                let mut cells: Vec<(usize, u32)> = entries.clone();
                cells.sort_by_key(|&(c, _)| c);
                cells.dedup_by_key(|&mut (c, _)| c);
                for (c, f) in cells {
                    col_idx.push(c as u32);
                    first.push(f);
                }
                row_ptr.push(col_idx.len());
            }
            FirstDetectionMatrix::from_csr(rows, cols, row_ptr, col_idx, first)
                .expect("constructed CSR is valid")
        })
    })
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
    fn truncated_encodings_never_decode(t in triplet(), cut in 0usize..100) {
        // any strict prefix must be rejected, never misread
        let bytes = encode_to_vec(&t);
        prop_assume!(cut < bytes.len());
        prop_assert!(decode_from_slice::<Triplet>(&bytes[..cut]).is_err());
    }
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
