//! No-panic property of the `.bench` front door: garbled text fed to
//! [`bench::parse`] comes back as `Ok` or `Err`, never as a panic.
//!
//! The inputs are the embedded circuits with random edits (cut ranges,
//! inserted syntax fragments, duplicated lines, replaced characters) and
//! fragment soups built from scratch, so they reach the parser's later
//! checks (undefined and redefined signals, arities, cycles, flip-flops)
//! as well as its tokenizer.

use proptest::prelude::*;
use set_covering_reseeding::prelude::*;

/// Syntax pieces the edits splice in, `|`-separated: keywords,
/// punctuation, whole declarations and a few characters a tokenizer must
/// not trip on.
const FRAGMENTS: &str = "(|)|,|=|\n|#| |\t|\r\n|()|= =|INPUT(|OUTPUT(|AND(|NAND(|NOT(|BUFF(|\
    XOR(|DFF(|MUX(|G1|G22|x = |INPUT(G1)\n|OUTPUT(zz)\n|OUTPUT(G1)\nOUTPUT(G1)\n|\
    G1 = NOT(G1)\n|a = AND(a, b)\n|q = DFF(q)\n|n = NOT(G1, G2)\n|e = AND()\n|\0|é";

/// Fragment `i`, wrapping around.
fn fragment(i: usize) -> &'static str {
    let pieces: Vec<&str> = FRAGMENTS.split('|').collect();
    pieces[i % pieces.len()]
}

/// The embedded circuits' `.bench` sources, one sequential.
const BASES: &[&str] = &[
    embedded::C17_BENCH,
    embedded::ADDER4_BENCH,
    embedded::JOHNSON3_BENCH,
    embedded::MAJORITY_BENCH,
];

/// One edit: `(kind, position, length, fragment, character)`.
type Edit = (u8, usize, usize, usize, char);

fn apply(base: &str, edits: &[Edit]) -> String {
    let mut text: Vec<char> = base.chars().collect();
    for &(kind, pos, len, frag, ch) in edits {
        let at = pos % (text.len() + 1);
        match kind {
            0 => {
                let end = (at + len).min(text.len());
                text.drain(at..end);
            }
            1 => {
                text.splice(at..at, fragment(frag).chars());
            }
            2 => {
                // duplicate the line holding `at`
                let start = text[..at]
                    .iter()
                    .rposition(|&c| c == '\n')
                    .map_or(0, |i| i + 1);
                let end = text[at..]
                    .iter()
                    .position(|&c| c == '\n')
                    .map_or(text.len(), |i| at + i + 1);
                let line: Vec<char> = text[start..end].to_vec();
                text.splice(end..end, line);
            }
            _ => {
                if at < text.len() {
                    text[at] = ch;
                }
            }
        }
    }
    text.into_iter().collect()
}

fn edit() -> impl Strategy<Value = Edit> {
    (
        0u8..4,
        any::<usize>(),
        0usize..24,
        any::<usize>(),
        any::<char>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn edited_circuits_parse_or_fail_without_panicking(
        base in 0usize..BASES.len(),
        edits in proptest::collection::vec(edit(), 1..8),
    ) {
        let text = apply(BASES[base], &edits);
        let outcome = std::panic::catch_unwind(|| bench::parse(&text).map(|_| ()));
        prop_assert!(outcome.is_ok(), "bench::parse panicked on {text:?}");
    }

    #[test]
    fn fragment_soups_parse_or_fail_without_panicking(
        pieces in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let text: String = pieces.iter().map(|&i| fragment(i)).collect();
        let outcome = std::panic::catch_unwind(|| bench::parse(&text).map(|_| ()));
        prop_assert!(outcome.is_ok(), "bench::parse panicked on {text:?}");
    }
}
