//! Gate kinds and their evaluation semantics.

use std::fmt;
use std::str::FromStr;

use fbist_bits::{SimWord, Trit};

use crate::GateId;

/// The kind of a gate (its Boolean function).
///
/// The set matches what appears in the ISCAS'85/'89 `.bench` benchmark
/// format: the basic gates plus `DFF` for state elements and explicit
/// constants (used by some synthetic circuits).
///
/// Multi-input `AND`/`NAND`/`OR`/`NOR` fold over all fanins; `XOR`/`XNOR`
/// compute (inverted) parity over all fanins, which agrees with the 2-input
/// reading used by the benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Primary input (no fanin).
    Input,
    /// Logical AND of all fanins.
    And,
    /// Logical NAND of all fanins.
    Nand,
    /// Logical OR of all fanins.
    Or,
    /// Logical NOR of all fanins.
    Nor,
    /// Parity (XOR) of all fanins.
    Xor,
    /// Inverted parity (XNOR) of all fanins.
    Xnor,
    /// Inverter (single fanin).
    Not,
    /// Buffer (single fanin).
    Buff,
    /// Constant logic 0 (no fanin).
    Const0,
    /// Constant logic 1 (no fanin).
    Const1,
    /// D flip-flop; fanin is the `D` pin, the gate's net is `Q`.
    Dff,
}

impl GateKind {
    /// All gate kinds, in a fixed order (useful for statistics tables).
    pub const ALL: [GateKind; 12] = [
        GateKind::Input,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buff,
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Dff,
    ];

    /// The `.bench` keyword for this kind (upper-case).
    pub fn bench_name(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buff => "BUFF",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Dff => "DFF",
        }
    }

    /// Valid fanin count range `(min, max)` for this kind
    /// (`usize::MAX` = unbounded).
    pub fn fanin_arity(self) -> (usize, usize) {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => (0, 0),
            GateKind::Not | GateKind::Buff | GateKind::Dff => (1, 1),
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => (1, usize::MAX),
            GateKind::Xor | GateKind::Xnor => (1, usize::MAX),
        }
    }

    /// `true` for gates that have no driver of their own (sources of the
    /// combinational graph): inputs and constants.
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Const0 | GateKind::Const1)
    }

    /// `true` for state elements.
    pub fn is_state(self) -> bool {
        self == GateKind::Dff
    }

    /// The *controlling value* of the gate, if it has one: the input value
    /// that forces the output regardless of the other inputs (e.g. `0` for
    /// AND/NAND, `1` for OR/NOR). XOR-family and single-input gates have
    /// none.
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// `true` if the gate inverts: output = NOT(base function).
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_name())
    }
}

/// Error for an unknown gate keyword in [`GateKind::from_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGateKindError(pub(crate) String);

impl fmt::Display for ParseGateKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown gate kind {:?}", self.0)
    }
}

impl std::error::Error for ParseGateKindError {}

impl FromStr for GateKind {
    type Err = ParseGateKindError;

    /// Case-insensitive parse of a `.bench` gate keyword.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "INPUT" => Ok(GateKind::Input),
            "AND" => Ok(GateKind::And),
            "NAND" => Ok(GateKind::Nand),
            "OR" => Ok(GateKind::Or),
            "NOR" => Ok(GateKind::Nor),
            "XOR" => Ok(GateKind::Xor),
            "XNOR" => Ok(GateKind::Xnor),
            "NOT" | "INV" => Ok(GateKind::Not),
            "BUFF" | "BUF" => Ok(GateKind::Buff),
            "CONST0" => Ok(GateKind::Const0),
            "CONST1" => Ok(GateKind::Const1),
            "DFF" => Ok(GateKind::Dff),
            other => Err(ParseGateKindError(other.to_owned())),
        }
    }
}

/// Evaluates a gate over bit-parallel words: one [`SimWord<W>`] per net
/// carries `64·W` pattern lanes, and `read(p, driver)` returns the word
/// on input pin `p`, driven by `driver`. This is the one two-valued gate
/// truth table of the workspace: the good-circuit sweep reads each
/// driver's good word, the fault simulator's cone sweep reads its faulty
/// words, and a stuck-at fault on pin `p` is only a `read` that returns
/// a constant word for that pin. The folds are plain `[u64; W]` array
/// operations, which the autovectorizer lowers to SIMD.
///
/// `Input` and `Dff` gates are sources of the combinational evaluation;
/// the simulators assign their words instead.
///
/// # Panics
///
/// Panics if called on `Input`/`Dff`.
///
/// ```
/// use fbist_bits::SimWord;
/// use fbist_netlist::{eval_word, GateId, GateKind};
/// let fanin = [GateId::from_index(0), GateId::from_index(1)];
/// let words = [SimWord([0b1100]), SimWord([0b1010])];
/// let read = |_, f: GateId| words[f.index()];
/// assert_eq!(eval_word::<1>(GateKind::And, &fanin, read), SimWord([0b1000]));
/// assert_eq!(eval_word::<1>(GateKind::Xor, &fanin, read), SimWord([0b0110]));
/// // pin 1 stuck at 1: AND passes pin 0 through
/// let stuck = |p, f: GateId| if p == 1 { SimWord::MAX } else { words[f.index()] };
/// assert_eq!(eval_word::<1>(GateKind::And, &fanin, stuck), SimWord([0b1100]));
/// ```
#[inline]
pub fn eval_word<const W: usize>(
    kind: GateKind,
    fanin: &[GateId],
    read: impl Fn(usize, GateId) -> SimWord<W>,
) -> SimWord<W> {
    type S<const W: usize> = SimWord<W>;
    let mut pins = fanin.iter().enumerate().map(|(p, &f)| read(p, f));
    match kind {
        GateKind::And => pins.fold(S::MAX, |a, v| a & v),
        GateKind::Nand => !pins.fold(S::MAX, |a, v| a & v),
        GateKind::Or => pins.fold(S::ZERO, |a, v| a | v),
        GateKind::Nor => !pins.fold(S::ZERO, |a, v| a | v),
        GateKind::Xor => pins.fold(S::ZERO, |a, v| a ^ v),
        GateKind::Xnor => !pins.fold(S::ZERO, |a, v| a ^ v),
        GateKind::Not => !pins.next().expect("NOT has one pin"),
        GateKind::Buff => pins.next().expect("BUFF has one pin"),
        GateKind::Const0 => S::ZERO,
        GateKind::Const1 => S::MAX,
        GateKind::Input | GateKind::Dff => {
            panic!("{kind} is a source; its value is assigned, not evaluated")
        }
    }
}

/// Evaluates a gate over three-valued ([`Trit`]) fanin values using the
/// standard pessimistic (Kleene) extension: the result is `X` only when the
/// binary outcomes actually diverge.
///
/// # Panics
///
/// Panics like [`eval_word`] on sources.
///
/// ```
/// use fbist_netlist::{eval_trit, GateKind};
/// use fbist_bits::Trit;
/// // 0 AND X = 0 (controlling value wins)
/// assert_eq!(eval_trit(GateKind::And, &[Trit::Zero, Trit::X]), Trit::Zero);
/// // 1 AND X = X
/// assert_eq!(eval_trit(GateKind::And, &[Trit::One, Trit::X]), Trit::X);
/// assert_eq!(eval_trit(GateKind::Xor, &[Trit::One, Trit::X]), Trit::X);
/// ```
pub fn eval_trit(kind: GateKind, fanin: &[Trit]) -> Trit {
    fn and_all(fanin: &[Trit]) -> Trit {
        let mut has_x = false;
        for &t in fanin {
            match t {
                Trit::Zero => return Trit::Zero,
                Trit::X => has_x = true,
                Trit::One => {}
            }
        }
        if has_x {
            Trit::X
        } else {
            Trit::One
        }
    }
    fn or_all(fanin: &[Trit]) -> Trit {
        let mut has_x = false;
        for &t in fanin {
            match t {
                Trit::One => return Trit::One,
                Trit::X => has_x = true,
                Trit::Zero => {}
            }
        }
        if has_x {
            Trit::X
        } else {
            Trit::Zero
        }
    }
    fn xor_all(fanin: &[Trit]) -> Trit {
        let mut acc = false;
        for &t in fanin {
            match t {
                Trit::X => return Trit::X,
                Trit::One => acc = !acc,
                Trit::Zero => {}
            }
        }
        Trit::from_bool(acc)
    }
    fn invert(t: Trit) -> Trit {
        match t {
            Trit::Zero => Trit::One,
            Trit::One => Trit::Zero,
            Trit::X => Trit::X,
        }
    }

    match kind {
        GateKind::And => and_all(fanin),
        GateKind::Nand => invert(and_all(fanin)),
        GateKind::Or => or_all(fanin),
        GateKind::Nor => invert(or_all(fanin)),
        GateKind::Xor => xor_all(fanin),
        GateKind::Xnor => invert(xor_all(fanin)),
        GateKind::Not => invert(fanin[0]),
        GateKind::Buff => fanin[0],
        GateKind::Const0 => Trit::Zero,
        GateKind::Const1 => Trit::One,
        GateKind::Input | GateKind::Dff => {
            panic!("{kind} is a source; its value is assigned, not evaluated")
        }
    }
}

/// Two-bit Kleene encoding of a three-valued net value: bit 0 = "can be
/// 0", bit 1 = "can be 1". [`TV_ZERO`] = `0b01`, [`TV_ONE`] = `0b10`,
/// [`TV_X`] = `0b11`; `0b00`, the empty set, is a contradiction that
/// the implication engine detects and never stores.
///
/// The encoding makes three-valued gate evaluation **branchless**
/// ([`eval_tv`] folds plain AND/OR words over the fanins), where the
/// [`Trit`] `match` of [`eval_trit`] costs an unpredictable branch per
/// fanin read. PODEM's implication sweep and the static implication
/// engine both run on it.
pub type Tv = u8;
/// Definitely logic 0.
pub const TV_ZERO: Tv = 0b01;
/// Definitely logic 1.
pub const TV_ONE: Tv = 0b10;
/// Unknown: either value possible.
pub const TV_X: Tv = 0b11;

/// The encoding of a [`Trit`].
#[inline]
pub fn tv_of(t: Trit) -> Tv {
    match t {
        Trit::Zero => TV_ZERO,
        Trit::One => TV_ONE,
        Trit::X => TV_X,
    }
}

/// The encoding of a binary value.
#[inline]
pub fn tv_from_bool(b: bool) -> Tv {
    if b {
        TV_ONE
    } else {
        TV_ZERO
    }
}

/// Kleene NOT: swap the can-be-0 and can-be-1 bits (X stays X).
#[inline]
pub fn tv_not(v: Tv) -> Tv {
    ((v & 1) << 1) | (v >> 1)
}

/// Branchless three-valued gate evaluation over fanin *positions*
/// (`read(p)` returns the encoded value of fanin `p`). Equals
/// [`eval_trit`] under the encoding for every gate kind.
///
/// AND: can-be-0 = OR of fanin can-be-0 bits, can-be-1 = AND of can-be-1
/// bits — one `|=` and one `&=` per fanin, no branches. OR is the dual;
/// XOR composes pairwise with the 4-term product rule.
///
/// # Panics
///
/// Panics like [`eval_word`] on sources.
#[inline]
pub fn eval_tv(kind: GateKind, arity: usize, read: impl Fn(usize) -> Tv) -> Tv {
    #[inline]
    fn xor2(a: Tv, b: Tv) -> Tv {
        // c0 = a0 b0 | a1 b1 ; c1 = a0 b1 | a1 b0
        (((a & b) | ((a >> 1) & (b >> 1))) & 1) | ((((a & (b >> 1)) | ((a >> 1) & b)) & 1) << 1)
    }
    match kind {
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            let mut or_acc: Tv = 0;
            let mut and_acc: Tv = 0b11;
            for p in 0..arity {
                let v = read(p);
                or_acc |= v;
                and_acc &= v;
            }
            match kind {
                GateKind::And => (or_acc & 0b01) | (and_acc & 0b10),
                GateKind::Nand => tv_not((or_acc & 0b01) | (and_acc & 0b10)),
                GateKind::Or => (or_acc & 0b10) | (and_acc & 0b01),
                _ => tv_not((or_acc & 0b10) | (and_acc & 0b01)),
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut r = TV_ZERO;
            for p in 0..arity {
                r = xor2(r, read(p));
            }
            if kind == GateKind::Xnor {
                tv_not(r)
            } else {
                r
            }
        }
        GateKind::Not => tv_not(read(0)),
        GateKind::Buff => read(0),
        GateKind::Const0 => TV_ZERO,
        GateKind::Const1 => TV_ONE,
        GateKind::Input | GateKind::Dff => {
            panic!("{kind} is a source; its value is assigned, not evaluated")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tv_eval_matches_eval_trit() {
        // the branchless two-bit evaluation must agree with the reference
        // three-valued evaluation on every (kind, values) combination of
        // up to 3 fanins
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        let trits = [Trit::Zero, Trit::One, Trit::X];
        for kind in kinds {
            for n in 1..=3usize {
                for combo in 0..3usize.pow(n as u32) {
                    let vals: Vec<Trit> = (0..n)
                        .map(|i| trits[(combo / 3usize.pow(i as u32)) % 3])
                        .collect();
                    let expect = tv_of(eval_trit(kind, &vals));
                    let got = eval_tv(kind, n, |p| tv_of(vals[p]));
                    assert_eq!(got, expect, "{kind} {vals:?}");
                }
            }
        }
        for v in trits {
            assert_eq!(
                eval_tv(GateKind::Not, 1, |_| tv_of(v)),
                tv_of(eval_trit(GateKind::Not, &[v]))
            );
            assert_eq!(eval_tv(GateKind::Buff, 1, |_| tv_of(v)), tv_of(v));
            assert_eq!(tv_not(tv_of(v)), tv_of(eval_trit(GateKind::Not, &[v])));
        }
        for b in [false, true] {
            assert_eq!(tv_from_bool(b), tv_of(Trit::from_bool(b)));
        }
        assert_eq!(eval_tv(GateKind::Const0, 0, |_| TV_X), TV_ZERO);
        assert_eq!(eval_tv(GateKind::Const1, 0, |_| TV_X), TV_ONE);
    }

    /// Checks [`eval_word`] at width `W` against [`eval_trit`] on 0/1 for
    /// every evaluated kind (constants at arity 0, the rest at 1–4) and
    /// input combination, plain and with each pin forced to 0 and to 1. Lane `k` carries combination
    /// `(k ^ k / 64) mod 2^n`, so the words of a wide block hold the
    /// combinations in different orders.
    fn word_eval_matches_trit<const W: usize>() {
        let lanes = SimWord::<W>::LANES;
        for kind in GateKind::ALL {
            if matches!(kind, GateKind::Input | GateKind::Dff) {
                continue; // assigned, not evaluated
            }
            let (lo, hi) = kind.fanin_arity();
            for n in lo..=hi.min(4) {
                let combo = |k: usize| (k ^ (k / 64)) % (1 << n);
                let fanin: Vec<GateId> = (0..n).map(GateId::from_index).collect();
                let mut words = vec![SimWord::<W>::ZERO; n];
                for k in 0..lanes {
                    for (i, w) in words.iter_mut().enumerate() {
                        if combo(k) >> i & 1 == 1 {
                            w.set_lane(k);
                        }
                    }
                }
                let forcings = [None]
                    .into_iter()
                    .chain((0..n).flat_map(|p| [Some((p, false)), Some((p, true))]));
                for forced in forcings {
                    let read = |p: usize, f: GateId| match forced {
                        Some((fp, v)) if fp == p => [SimWord::ZERO, SimWord::MAX][v as usize],
                        _ => words[f.index()],
                    };
                    let got = eval_word::<W>(kind, &fanin, read);
                    for k in 0..lanes {
                        let pins: Vec<Trit> = (0..n)
                            .map(|i| match forced {
                                Some((fp, v)) if fp == i => Trit::from_bool(v),
                                _ => Trit::from_bool(combo(k) >> i & 1 == 1),
                            })
                            .collect();
                        assert_eq!(
                            Trit::from_bool(got.lane(k)),
                            eval_trit(kind, &pins),
                            "W={W} {kind} {pins:?} forced {forced:?} lane {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn word_eval_matches_trit_narrow() {
        word_eval_matches_trit::<1>();
    }

    #[test]
    fn word_eval_matches_trit_wide() {
        word_eval_matches_trit::<4>();
    }

    #[test]
    #[should_panic(expected = "source")]
    fn eval_input_panics() {
        eval_word::<1>(GateKind::Input, &[], |_, _| SimWord::ZERO);
    }

    #[test]
    fn trit_controlling_values() {
        use Trit::*;
        assert_eq!(eval_trit(GateKind::And, &[Zero, X, X]), Zero);
        assert_eq!(eval_trit(GateKind::Nand, &[Zero, X]), One);
        assert_eq!(eval_trit(GateKind::Or, &[One, X]), One);
        assert_eq!(eval_trit(GateKind::Nor, &[One, X]), Zero);
        assert_eq!(eval_trit(GateKind::Or, &[Zero, X]), X);
        assert_eq!(eval_trit(GateKind::Xnor, &[One, One]), One);
        assert_eq!(eval_trit(GateKind::Not, &[X]), X);
        assert_eq!(eval_trit(GateKind::Const1, &[]), One);
    }

    #[test]
    fn parse_kind_roundtrip() {
        for k in GateKind::ALL {
            let parsed: GateKind = k.bench_name().parse().unwrap();
            assert_eq!(parsed, k);
        }
        assert_eq!("nand".parse::<GateKind>().unwrap(), GateKind::Nand);
        assert_eq!("INV".parse::<GateKind>().unwrap(), GateKind::Not);
        assert!("FOO".parse::<GateKind>().is_err());
    }

    #[test]
    fn arity_ranges() {
        assert_eq!(GateKind::Input.fanin_arity(), (0, 0));
        assert_eq!(GateKind::Not.fanin_arity(), (1, 1));
        assert_eq!(GateKind::And.fanin_arity().0, 1);
        assert!(GateKind::And.fanin_arity().1 > 100);
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
    }
}
