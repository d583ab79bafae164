//! No-panic property of the `.bench` front door: garbled text fed to
//! [`bench::parse`] comes back as `Ok` or `Err`, never as a panic — and
//! a text that parses to a combinational netlist runs through the whole
//! flow without one.
//!
//! The inputs are the embedded circuits with random edits (cut ranges,
//! inserted syntax fragments, duplicated lines, replaced characters) and
//! fragment soups built from scratch, so they reach the parser's later
//! checks (undefined and redefined signals, arities, cycles, flip-flops)
//! as well as its tokenizer. What parses includes shapes a real file
//! rarely has — no inputs, one input, constant outputs — and each
//! combinational one runs through [`ReseedingFlow`] at τ ∈ {0, 3} with
//! the adder TPG: its report must cover every target fault and replay to
//! that coverage through [`verify_against`].

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use set_covering_reseeding::prelude::*;
use set_covering_reseeding::reseed::verify_against;

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

/// Why the flow fails on `text`, or `None` if it does not parse to a
/// combinational netlist or the flow holds up: no panic, and at τ = 0
/// and τ = 3 a report that covers every target fault and replays to
/// full coverage of the target list.
fn flow_failure(text: &str) -> Option<String> {
    let netlist = match bench::parse(text) {
        Ok(n) if n.is_combinational() => n,
        _ => return None,
    };
    let run = || -> Result<(), String> {
        let flow = ReseedingFlow::new(&netlist).map_err(|e| format!("ReseedingFlow::new: {e}"))?;
        for tau in [0, 3] {
            let cfg = FlowConfig::new(TpgKind::Adder).with_tau(tau).with_jobs(1);
            let report = flow.run(&cfg);
            if !report.covers_all_target_faults() {
                return Err(format!("τ={tau}: report misses target faults"));
            }
            let target = flow.builder().atpg_base(&cfg).target_faults;
            let replay = verify_against(&netlist, &report, cfg.tpg, &target)
                .map_err(|e| format!("τ={tau}: verify_against: {e}"))?;
            if !replay.passed() {
                return Err(format!("τ={tau}: replay {replay:?}"));
            }
        }
        Ok(())
    };
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(result) => result.err(),
        Err(_) => Some("the flow panicked".into()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn edited_circuits_parse_or_fail_without_panicking(
        base in 0usize..BASES.len(),
        edits in proptest::collection::vec(edit(), 1..8),
    ) {
        let text = apply(BASES[base], &edits);
        let outcome = catch_unwind(|| bench::parse(&text).map(|_| ()));
        prop_assert!(outcome.is_ok(), "bench::parse panicked on {text:?}");
        let failure = flow_failure(&text);
        prop_assert!(failure.is_none(), "{failure:?} on {text:?}");
    }

    #[test]
    fn fragment_soups_parse_or_fail_without_panicking(
        pieces in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let text: String = pieces.iter().map(|&i| fragment(i)).collect();
        let outcome = catch_unwind(|| bench::parse(&text).map(|_| ()));
        prop_assert!(outcome.is_ok(), "bench::parse panicked on {text:?}");
        let failure = flow_failure(&text);
        prop_assert!(failure.is_none(), "{failure:?} on {text:?}");
    }
}
