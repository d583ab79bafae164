//! Property-based tests for the bit-vector arithmetic and cube algebra.
//!
//! These check the algebraic laws the rest of the workspace relies on:
//! modular arithmetic must behave exactly like a hardware register, cube
//! fills must stay inside their cube, and the word-block transpose must
//! move every bit exactly as a bit-by-bit transpose does.

use fbist_bits::{BitMatrix, BitVec, Cube, Trit};
use proptest::prelude::*;

/// Strategy: a width in [1, 200] and two raw word seeds.
fn wv2() -> impl Strategy<Value = (usize, Vec<u64>, Vec<u64>)> {
    (1usize..200).prop_flat_map(|w| {
        let nw = w.div_ceil(64);
        (
            Just(w),
            proptest::collection::vec(any::<u64>(), nw),
            proptest::collection::vec(any::<u64>(), nw),
        )
    })
}

proptest! {
    #[test]
    fn add_commutes((w, a, b) in wv2()) {
        let a = BitVec::from_words(w, &a);
        let b = BitVec::from_words(w, &b);
        prop_assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
    }

    #[test]
    fn add_sub_roundtrip((w, a, b) in wv2()) {
        let a = BitVec::from_words(w, &a);
        let b = BitVec::from_words(w, &b);
        prop_assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
    }

    #[test]
    fn neg_is_sub_from_zero((w, a, _b) in wv2()) {
        let a = BitVec::from_words(w, &a);
        prop_assert!(a.wrapping_add(&a.wrapping_neg()).is_zero());
    }

    #[test]
    fn mul_commutes((w, a, b) in wv2()) {
        let a = BitVec::from_words(w, &a);
        let b = BitVec::from_words(w, &b);
        prop_assert_eq!(a.wrapping_mul(&b), b.wrapping_mul(&a));
    }

    #[test]
    fn mul_distributes_over_add((w, a, b) in wv2(), c in proptest::collection::vec(any::<u64>(), 4)) {
        let a = BitVec::from_words(w, &a);
        let b = BitVec::from_words(w, &b);
        let c = BitVec::from_words(w, &c);
        let lhs = c.wrapping_mul(&a.wrapping_add(&b));
        let rhs = c.wrapping_mul(&a).wrapping_add(&c.wrapping_mul(&b));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn mul_matches_u128_reference(w in 1usize..120, x in any::<u64>(), y in any::<u64>()) {
        // Reference: compute in u128 then truncate, valid whenever w <= 120
        // and both operands fit in 60 bits so the product fits u128.
        let x = x >> 4; // 60-bit
        let y = y >> 4;
        let a = BitVec::from_u64(w, x);
        let b = BitVec::from_u64(w, y);
        let got = a.wrapping_mul(&b);
        let full = (x as u128) * (y as u128);
        // compare low min(w,128) bits
        for i in 0..w.min(128) {
            let want = if w <= 64 {
                // operands were truncated to w bits first
                let xa = x & fbist_bits::tail_mask(w);
                let yb = y & fbist_bits::tail_mask(w);
                ((xa as u128 * yb as u128) >> i) & 1 == 1
            } else {
                (full >> i) & 1 == 1
            };
            prop_assert_eq!(got.get(i), want, "bit {} of {}x{} width {}", i, x, y, w);
        }
    }

    #[test]
    fn parse_display_roundtrip(bits in proptest::collection::vec(any::<bool>(), 1..150)) {
        let v = BitVec::from_bits(&bits);
        let s = v.to_string();
        let back: BitVec = s.parse().unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn shl_shr_inverse_on_lsb_cleared((w, a, _b) in wv2()) {
        let mut a = BitVec::from_words(w, &a);
        if w > 0 { a.set(w - 1, false); }
        prop_assert_eq!(a.shl1().shr1(), a);
    }

    #[test]
    fn transposed_roundtrip((rows, cols, words) in bitmatrix()) {
        let m = matrix_from(rows, cols, &words);
        let t = m.transposed();
        prop_assert_eq!(t.rows(), cols);
        prop_assert_eq!(t.cols(), rows);
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(m.get(r, c), t.get(c, r), "cell ({}, {})", r, c);
            }
        }
        prop_assert_eq!(t.transposed(), m);
    }

    #[test]
    fn hamming_triangle((w, a, b) in wv2(), c in proptest::collection::vec(any::<u64>(), 4)) {
        let a = BitVec::from_words(w, &a);
        let b = BitVec::from_words(w, &b);
        let c = BitVec::from_words(w, &c);
        let ab = a.hamming_distance(&b);
        let bc = b.hamming_distance(&c);
        let ac = a.hamming_distance(&c);
        prop_assert!(ac <= ab + bc);
    }
}

proptest! {
    // 512 cases draw each of the 81 (rows, cols) edge pairs with
    // probability above 99.8 %
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn transposed_matches_bit_by_bit_reference(
        (rows, cols, words) in block_edge_matrix()
    ) {
        let m = matrix_from(rows, cols, &words);
        let mut expect = BitMatrix::new(cols, rows);
        for r in 0..rows {
            for c in 0..cols {
                expect.set(c, r, m.get(r, c));
            }
        }
        // whole-matrix equality also holds the padding bits past `rows` at 0
        prop_assert_eq!(m.transposed(), expect);
    }
}

/// Strategy: matrix dimensions plus enough raw words to fill every row.
fn bitmatrix() -> impl Strategy<Value = (usize, usize, Vec<u64>)> {
    (1usize..24, 1usize..150).prop_flat_map(|(rows, cols)| {
        let per_row = cols.div_ceil(64);
        (
            Just(rows),
            Just(cols),
            proptest::collection::vec(any::<u64>(), rows * per_row),
        )
    })
}

/// Strategy: rows and columns each drawn from sizes on both sides of the
/// 64-bit word and 64 × 64 block edges (empty included), filled at random.
fn block_edge_matrix() -> impl Strategy<Value = (usize, usize, Vec<u64>)> {
    const EDGES: [usize; 9] = [0, 1, 63, 64, 65, 127, 128, 129, 200];
    (0..EDGES.len(), 0..EDGES.len()).prop_flat_map(|(r, c)| {
        let (rows, cols) = (EDGES[r], EDGES[c]);
        (
            Just(rows),
            Just(cols),
            proptest::collection::vec(any::<u64>(), rows * cols.div_ceil(64)),
        )
    })
}

fn matrix_from(rows: usize, cols: usize, words: &[u64]) -> BitMatrix {
    let per_row = cols.div_ceil(64);
    let row_vecs: Vec<BitVec> = (0..rows)
        .map(|r| BitVec::from_words(cols, &words[r * per_row..(r + 1) * per_row]))
        .collect();
    BitMatrix::from_rows(cols, &row_vecs)
}

/// Strategy: a cube as a string over {0,1,X}.
fn cube_str() -> impl Strategy<Value = String> {
    proptest::collection::vec(prop_oneof![Just('0'), Just('1'), Just('X')], 1..80)
        .prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #[test]
    fn const_fills_are_contained(a in cube_str()) {
        let a: Cube = a.parse().unwrap();
        // Any fill of a is contained in a.
        let p0 = a.fill_const(false);
        let p1 = a.fill_const(true);
        prop_assert!(a.contains(&p0));
        prop_assert!(a.contains(&p1));
    }

    #[test]
    fn fill_with_is_contained(a in cube_str(), seed in any::<u64>()) {
        let a: Cube = a.parse().unwrap();
        let mut s = seed | 1;
        let mut src = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
        let p = a.fill_with(&mut src);
        prop_assert!(a.contains(&p));
        prop_assert!(Cube::from_pattern(&p).is_fully_specified());
    }

    #[test]
    fn cube_set_get_consistent(a in cube_str(), idx_frac in 0.0f64..1.0) {
        let mut c: Cube = a.parse().unwrap();
        let i = ((c.width() - 1) as f64 * idx_frac) as usize;
        for t in [Trit::Zero, Trit::One, Trit::X] {
            c.set(i, t);
            prop_assert_eq!(c.get(i), t);
        }
    }
}

proptest! {
    #[test]
    fn matrix_subset_is_reflexive_transitive(
        rows in 2usize..8, cols in 1usize..100, seed in any::<u64>()
    ) {
        let mut s = seed | 1;
        let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
        let mut m = BitMatrix::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if next() % 3 == 0 { m.set(r, c, true); }
            }
        }
        for r in 0..rows {
            prop_assert!(m.row_is_subset(r, r));
        }
        // transitivity spot check on the first three rows
        if rows >= 3 && m.row_is_subset(0, 1) && m.row_is_subset(1, 2) {
            prop_assert!(m.row_is_subset(0, 2));
        }
        // transpose involution
        prop_assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn union_of_rows_covers_each_row(rows in 1usize..6, cols in 1usize..80, seed in any::<u64>()) {
        let mut s = seed | 1;
        let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
        let mut m = BitMatrix::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if next() % 4 == 0 { m.set(r, c, true); }
            }
        }
        let all: Vec<usize> = (0..rows).collect();
        let u = m.union_of_rows(&all);
        for r in 0..rows {
            for c in m.cols_of_row(r) {
                prop_assert!(u.get(c));
            }
        }
    }
}
