//! Binary codecs for the workspace's shared artifact types.
//!
//! Every codec is exact: `decode(encode(x)) == x`, pinned by the
//! round-trip proptests in `tests/roundtrip.rs`. Decoders validate
//! every structural invariant they rebuild (widths, index ranges, CSR
//! cell ranges) so a corrupt payload is reported as
//! [`DecodeError::Invalid`] instead of panicking deep inside a consumer.

use fbist_atpg::AtpgResult;
use fbist_bits::BitVec;
use fbist_fault::{Fault, FaultId, FaultList, FaultSite};
use fbist_netlist::GateId;
use fbist_setcover::{Cells, FirstDetectionMatrix};
use fbist_tpg::Triplet;

use crate::codec::{DecodeError, Reader, Writer};

/// A type that can live in the store: a stage kind name plus an exact
/// byte codec.
///
/// Implementations compose: a struct's `encode` calls its fields'
/// `encode`s in order, and `decode` mirrors it. The store wraps the
/// payload in its own envelope (magic, version, kind, key digest,
/// checksum), so codecs never need framing of their own.
pub trait Artifact: Sized {
    /// The stage-kind directory this artifact type lives under when
    /// stored at the top level (composed sub-artifacts ignore it).
    const KIND: &'static str;

    /// Appends the exact byte encoding of `self`.
    fn encode(&self, w: &mut Writer);

    /// Decodes one value, validating every invariant.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncated, corrupt, or invariant-violating
    /// bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;
}

impl Artifact for u64 {
    const KIND: &'static str = "u64";

    fn encode(&self, w: &mut Writer) {
        w.u64(*self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u64()
    }
}

impl Artifact for BitVec {
    const KIND: &'static str = "bitvec";

    fn encode(&self, w: &mut Writer) {
        w.usize(self.width());
        w.u64_slice(self.as_words());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let width = r.usize()?;
        let words = r.u64_vec()?;
        if words.len() != width.div_ceil(64) {
            return Err(DecodeError::Invalid(format!(
                "BitVec of width {width} stored with {} words",
                words.len()
            )));
        }
        // from_words clears unused high bits; encoded vectors are already
        // normalized, so this is the identity on well-formed payloads
        Ok(BitVec::from_words(width, &words))
    }
}

impl Artifact for Triplet {
    const KIND: &'static str = "triplet";

    fn encode(&self, w: &mut Writer) {
        self.delta().encode(w);
        self.theta().encode(w);
        w.usize(self.tau());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let delta = BitVec::decode(r)?;
        let theta = BitVec::decode(r)?;
        let tau = r.usize()?;
        if delta.width() != theta.width() {
            return Err(DecodeError::Invalid(format!(
                "triplet δ width {} ≠ θ width {}",
                delta.width(),
                theta.width()
            )));
        }
        Ok(Triplet::new(delta, theta, tau))
    }
}

fn encode_bitvec_list(w: &mut Writer, list: &[BitVec]) {
    w.usize(list.len());
    for v in list {
        v.encode(w);
    }
}

fn decode_bitvec_list(r: &mut Reader<'_>) -> Result<Vec<BitVec>, DecodeError> {
    let n = r.usize()?;
    let mut out = Vec::with_capacity(n.min(r.remaining() / 8));
    for _ in 0..n {
        out.push(BitVec::decode(r)?);
    }
    Ok(out)
}

fn encode_fault_ids(w: &mut Writer, ids: &[FaultId]) {
    w.usize(ids.len());
    for id in ids {
        w.u32(id.index() as u32);
    }
}

fn decode_fault_ids(r: &mut Reader<'_>) -> Result<Vec<FaultId>, DecodeError> {
    let n = r.usize()?;
    let mut out = Vec::with_capacity(n.min(r.remaining() / 4));
    for _ in 0..n {
        out.push(FaultId::from_index(r.u32()? as usize));
    }
    Ok(out)
}

impl Artifact for Fault {
    const KIND: &'static str = "fault";

    fn encode(&self, w: &mut Writer) {
        match self.site() {
            FaultSite::GateOutput(g) => {
                w.u8(0);
                w.u32(g.index() as u32);
            }
            FaultSite::GateInput { gate, pin } => {
                w.u8(1);
                w.u32(gate.index() as u32);
                w.u32(pin);
            }
        }
        w.bool(self.stuck_value());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let site = match r.u8()? {
            0 => FaultSite::GateOutput(GateId::from_index(r.u32()? as usize)),
            1 => FaultSite::GateInput {
                gate: GateId::from_index(r.u32()? as usize),
                pin: r.u32()?,
            },
            other => return Err(DecodeError::Invalid(format!("bad fault-site tag {other}"))),
        };
        Ok(Fault::stuck_at(site, r.bool()?))
    }
}

impl Artifact for FaultList {
    const KIND: &'static str = "fault-list";

    fn encode(&self, w: &mut Writer) {
        w.usize(self.len());
        for f in self.as_slice() {
            f.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.usize()?;
        let mut faults = Vec::with_capacity(n.min(r.remaining() / 6));
        for _ in 0..n {
            faults.push(Fault::decode(r)?);
        }
        Ok(FaultList::from_faults(faults))
    }
}

impl Artifact for AtpgResult {
    const KIND: &'static str = "atpg-result";

    fn encode(&self, w: &mut Writer) {
        encode_bitvec_list(w, &self.patterns);
        self.detected.encode(w);
        encode_fault_ids(w, &self.untestable);
        encode_fault_ids(w, &self.aborted);
        w.usize(self.random_detected);
        w.usize(self.podem_tests);
        w.usize(self.total_faults);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let patterns = decode_bitvec_list(r)?;
        if let Some(w0) = patterns.first().map(BitVec::width) {
            if patterns.iter().any(|p| p.width() != w0) {
                return Err(DecodeError::Invalid(
                    "ATPG patterns have mixed widths".into(),
                ));
            }
        }
        let detected = BitVec::decode(r)?;
        let untestable = decode_fault_ids(r)?;
        let aborted = decode_fault_ids(r)?;
        let random_detected = r.usize()?;
        let podem_tests = r.usize()?;
        let total_faults = r.usize()?;
        if detected.width() != total_faults {
            return Err(DecodeError::Invalid(format!(
                "detected mask is {} bits for {total_faults} faults",
                detected.width()
            )));
        }
        for id in untestable.iter().chain(&aborted) {
            if id.index() >= total_faults {
                return Err(DecodeError::Invalid(format!(
                    "fault id {} out of range ({total_faults} faults)",
                    id.index()
                )));
            }
        }
        Ok(AtpgResult {
            patterns,
            detected,
            untestable,
            aborted,
            random_detected,
            podem_tests,
            total_faults,
        })
    }
}

impl Artifact for FirstDetectionMatrix {
    const KIND: &'static str = "first-detection-matrix";

    fn encode(&self, w: &mut Writer) {
        w.usize(self.rows());
        w.usize(self.cols());
        w.usize(self.tau_max());
        let cells = self.cells();
        w.u8(cells.bytes_per_cell() as u8);
        let mut raw = Vec::with_capacity(cells.len() * cells.bytes_per_cell());
        match cells {
            Cells::U8(v) => raw.extend_from_slice(v),
            Cells::U16(v) => v
                .iter()
                .for_each(|c| raw.extend_from_slice(&c.to_le_bytes())),
            Cells::U32(v) => v
                .iter()
                .for_each(|c| raw.extend_from_slice(&c.to_le_bytes())),
        }
        w.bytes(&raw);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let rows = r.usize()?;
        let cols = r.usize()?;
        let tau_max = r.usize()?;
        let width = usize::from(r.u8()?);
        if width != Cells::bytes_for(tau_max) {
            return Err(DecodeError::Invalid(format!(
                "width tag {width} for τ_max = {tau_max}, which needs {}-byte cells",
                Cells::bytes_for(tau_max)
            )));
        }
        // the raw bytes are borrowed from the buffer, so nothing is
        // allocated before their length is checked against rows × cols
        let raw = r.bytes()?;
        let expected = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(width))
            .ok_or_else(|| DecodeError::Invalid(format!("{rows} × {cols} cells overflow")))?;
        if raw.len() != expected {
            return Err(DecodeError::Invalid(format!(
                "{} cell bytes for a {rows} × {cols} matrix of {width}-byte cells",
                raw.len()
            )));
        }
        let cells = match width {
            1 => Cells::U8(raw.to_vec()),
            2 => Cells::U16(
                raw.chunks_exact(2)
                    .map(|b| u16::from_le_bytes([b[0], b[1]]))
                    .collect(),
            ),
            _ => Cells::U32(
                raw.chunks_exact(4)
                    .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                    .collect(),
            ),
        };
        FirstDetectionMatrix::from_cells(rows, cols, tau_max, cells).map_err(DecodeError::Invalid)
    }
}

/// Encodes any artifact to a standalone byte vector (no envelope).
pub fn encode_to_vec<T: Artifact>(value: &T) -> Vec<u8> {
    let mut w = Writer::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes an artifact from a standalone byte vector, requiring the
/// buffer to be fully consumed.
///
/// # Errors
///
/// [`DecodeError`] on corrupt bytes or trailing garbage.
pub fn decode_from_slice<T: Artifact>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Reader::new(bytes);
    let v = T::decode(&mut r)?;
    if !r.is_exhausted() {
        return Err(DecodeError::Invalid(format!(
            "{} trailing bytes",
            r.remaining()
        )));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbist_netlist::embedded;

    fn round_trip<T: Artifact + PartialEq + std::fmt::Debug>(x: &T) {
        let bytes = encode_to_vec(x);
        let back: T = decode_from_slice(&bytes).unwrap();
        assert_eq!(&back, x);
        // exactness both ways: re-encoding reproduces the bytes
        assert_eq!(encode_to_vec(&back), bytes);
    }

    #[test]
    fn bitvec_and_triplet_round_trip() {
        for width in [0usize, 1, 63, 64, 65, 130] {
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let mut word = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let v = BitVec::random_with(width, &mut word);
            round_trip(&v);
            round_trip(&Triplet::new(v.clone(), v.clone(), width * 3));
        }
    }

    #[test]
    fn bitvec_rejects_word_count_mismatch() {
        let mut w = Writer::new();
        w.usize(64);
        w.u64_slice(&[1, 2]);
        let bytes = w.into_bytes();
        assert!(matches!(
            decode_from_slice::<BitVec>(&bytes),
            Err(DecodeError::Invalid(_))
        ));
    }

    #[test]
    fn fault_list_round_trips() {
        let n = embedded::c17();
        round_trip(&FaultList::collapsed(&n));
        round_trip(&FaultList::full(&n));
        round_trip(&FaultList::new());
    }

    #[test]
    fn atpg_result_round_trips() {
        use fbist_atpg::{Atpg, AtpgConfig};
        let n = embedded::c17();
        let faults = FaultList::collapsed(&n);
        let res = Atpg::new(&n).unwrap().run(&faults, &AtpgConfig::default());
        let bytes = encode_to_vec(&res);
        let back: AtpgResult = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.patterns, res.patterns);
        assert_eq!(back.detected, res.detected);
        assert_eq!(back.untestable, res.untestable);
        assert_eq!(back.aborted, res.aborted);
        assert_eq!(back.random_detected, res.random_detected);
        assert_eq!(back.podem_tests, res.podem_tests);
        assert_eq!(back.total_faults, res.total_faults);
        assert_eq!(encode_to_vec(&back), bytes);
    }

    #[test]
    fn first_detection_matrix_round_trips() {
        const NONE: u32 = FirstDetectionMatrix::NO_DETECTION;
        let m = FirstDetectionMatrix::from_rows(
            4,
            vec![vec![0, 3, NONE, 7], vec![NONE; 4], vec![2, NONE, 0, NONE]],
        );
        round_trip(&m);
        round_trip(&FirstDetectionMatrix::from_rows(3, Vec::new()));
    }
}
