//! Static netlist analysis for the functional-BIST flow.
//!
//! This crate answers two questions *before* any simulation or ATPG runs:
//!
//! 1. **Is the circuit structurally sane?** [`analyze`] produces an
//!    [`AnalysisReport`] of combinational cycles (full paths, via the
//!    shared SCC pass in `fbist-netlist`), unconnected flip-flops,
//!    floating nets, statically unobservable logic, and dead logic behind
//!    constant inputs — the diagnostics surfaced by `fbist check`.
//! 2. **Which stuck-at faults are provably untestable?**
//!    [`untestable_faults`] runs a FIRE-style fault-independent pass over
//!    the [`Implicator`], a direct-implication engine on the two-bit
//!    Kleene domain. The ATPG engine's `static_prepass` knob uses it to
//!    prune hopeless targets among the random phase's survivors before
//!    spending PODEM backtrack budget on them.
//!
//! On top of the direct engine, the [`learning`] module computes a
//! SOCRATES-style **learned-implication database**
//! ([`LearnedImplications`]): contrapositives of every forward-implication
//! sweep plus bounded recursive learning (a complete case split on each
//! queried gate left unjustified at its fixpoint, default depth
//! [`learning::DEFAULT_RECURSION_DEPTH`]). The database is a CSR table
//! mapping each literal `2·net + value` to the closed, sorted set of
//! literals it implies, plus learned global constants — so consumers query
//! it with a slice lookup. [`untestable_faults_with`] uses it to prove
//! strictly more faults untestable and to close verdicts over
//! implication-proved fault equivalence and dominance
//! ([`fault_relations`]); `fbist check` reports the redundancies only
//! the learned pass proves.
//!
//! The crate is also the shared home for fault-independent netlist
//! *measures*: [`testability`] holds the SCOAP
//! controllability/observability estimates (`fbist-atpg` re-exports it).
//!
//! Everything proven here is *sound*: a fault marked untestable has no
//! test, a learned implication holds in every consistent assignment, and a
//! gate marked unobservable has no sensitisable path to any observation
//! point. The analyses are deliberately incomplete — they trade
//! completeness for a cost that is a small fraction of one ATPG run.
//!
//! # Example
//!
//! ```
//! use fbist_netlist::bench;
//!
//! // OR(a, NOT a) is constant 1, so its output stuck-at-1 is untestable.
//! let n = bench::parse("INPUT(a)\nOUTPUT(y)\nna = NOT(a)\ny = OR(a, na)\n")?;
//! let faults = fbist_fault::FaultList::full(&n);
//! let mask = fbist_analyze::untestable_faults(&n, &faults, &[])?;
//! assert!(mask.iter().any(|&m| m));
//!
//! let report = fbist_analyze::analyze(&n);
//! assert!(!report.has_findings()); // untestable faults are Info, not Warning
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod implication;
pub mod learning;
mod report;
mod structure;
pub mod testability;
mod untestable;

pub use implication::Implicator;
pub use learning::{fault_relations, FaultRelations, LearnedImplications};
pub use report::{AnalysisReport, Finding, Severity, TestabilityEntry};
pub use testability::Testability;
pub use untestable::{untestable_faults, untestable_faults_with};

use fbist_fault::FaultList;
use fbist_netlist::{GateKind, Netlist};

use report::TestabilityEntry as Entry;
use structure::Structure;

/// At most this many individual findings are listed per code; the rest
/// fold into one "and N more" finding so huge circuits stay readable.
const MAX_LISTED: usize = 20;

/// Size of the SCOAP hard-to-test report: the `testability` section lists
/// the top fault sites by `fault_difficulty`, hardest first.
const MAX_HARD_NETS: usize = 10;

/// Runs the full static analysis and returns the report backing
/// `fbist check`.
///
/// Structural errors (cycles, unconnected DFFs) are always reported; the
/// implication-based diagnostics are skipped when the combinational part
/// is cyclic, since implications are only meaningful on a DAG.
pub fn analyze(netlist: &Netlist) -> AnalysisReport {
    let mut findings = Vec::new();

    let cycles = netlist.combinational_cycles();
    for cycle in &cycles {
        let mut names: Vec<&str> = cycle.iter().map(|&g| netlist.gate(g).name()).collect();
        names.push(names[0]);
        findings.push(Finding {
            severity: Severity::Error,
            code: "comb-cycle",
            message: format!("combinational cycle: {}", names.join(" -> ")),
        });
    }
    for (id, g) in netlist.iter() {
        if g.kind() == GateKind::Dff && g.fanin().is_empty() {
            findings.push(Finding {
                severity: Severity::Error,
                code: "unconnected-dff",
                message: format!("DFF {:?} has no D input", netlist.gate(id).name()),
            });
        }
    }

    let mut testability = Vec::new();
    if cycles.is_empty() {
        let mut imp = Implicator::new(netlist).expect("acyclic: levelize succeeds");
        let order = netlist.levelize().expect("acyclic");
        let s = Structure::compute(netlist, &order, imp.baseline_constants());
        let db = LearnedImplications::learn(netlist).expect("acyclic");

        push_capped(
            &mut findings,
            Severity::Warning,
            "floating-net",
            s.floating
                .iter()
                .map(|&g| {
                    format!(
                        "net {:?} drives nothing and is not an output",
                        name(netlist, g)
                    )
                })
                .collect(),
        );
        push_capped(
            &mut findings,
            Severity::Warning,
            "unobservable",
            s.unobservable
                .iter()
                .map(|&g| {
                    format!(
                        "gate {:?} has no structural path to any output",
                        name(netlist, g)
                    )
                })
                .collect(),
        );
        push_capped(
            &mut findings,
            Severity::Warning,
            "constant-net",
            s.dead_constant
                .iter()
                .map(|&(g, v)| {
                    format!(
                        "net {:?} is constant {} behind constant inputs",
                        name(netlist, g),
                        v as u8
                    )
                })
                .collect(),
        );

        // Constants only the implication engine can see (reconvergence
        // like AND(x, NOT x)): informational — real circuits contain
        // such redundancy legitimately.
        let already: Vec<bool> = {
            let mut m = vec![false; netlist.gate_count()];
            for &(g, _) in &s.dead_constant {
                m[g.index()] = true;
            }
            m
        };
        let baseline = imp.baseline_constants();
        let mut implied = Vec::new();
        let mut direct_constant = vec![false; netlist.gate_count()];
        for (id, g) in netlist.iter() {
            if g.kind().is_source() || g.kind().is_state() {
                continue;
            }
            if let Some(v) = imp.implied_constant(id) {
                direct_constant[id.index()] = true;
                if !already[id.index()] {
                    implied.push(format!(
                        "net {:?} is provably constant {}",
                        name(netlist, id),
                        v as u8
                    ));
                }
            }
        }
        push_capped(&mut findings, Severity::Info, "implied-constant", implied);

        // Redundancies only static learning can see: constants needing
        // recursive case splits or indirect-implication chains.
        let mut learned = Vec::new();
        for (id, g) in netlist.iter() {
            if g.kind().is_source()
                || g.kind().is_state()
                || baseline[id.index()].is_some()
                || direct_constant[id.index()]
            {
                continue;
            }
            if let Some(v) = db.constant(id) {
                learned.push(format!(
                    "net {:?} is constant {} by static learning",
                    name(netlist, id),
                    v as u8
                ));
            }
        }
        push_capped(&mut findings, Severity::Info, "learned-constant", learned);

        let faults = FaultList::full(netlist);
        let plain = untestable_faults(netlist, &faults, &[]).expect("acyclic");
        let mask = untestable_faults_with(netlist, &faults, Some(&db)).expect("acyclic");
        let proven: Vec<String> = faults
            .iter()
            .filter(|(fid, _)| mask[fid.index()])
            .map(|(_, f)| f.describe(netlist))
            .collect();
        if !proven.is_empty() {
            let sample: Vec<&str> = proven.iter().take(5).map(String::as_str).collect();
            let more = if proven.len() > sample.len() {
                ", ..."
            } else {
                ""
            };
            findings.push(Finding {
                severity: Severity::Info,
                code: "untestable-faults",
                message: format!(
                    "{} of {} stuck-at faults are provably untestable ({}{more})",
                    proven.len(),
                    faults.len(),
                    sample.join(", ")
                ),
            });
        }
        let extra = mask.iter().zip(&plain).filter(|&(&m, &p)| m && !p).count();
        if extra > 0 {
            let samples: Vec<String> = faults
                .iter()
                .filter(|(fid, _)| mask[fid.index()] && !plain[fid.index()])
                .take(5)
                .map(|(_, f)| f.describe(netlist))
                .collect();
            findings.push(Finding {
                severity: Severity::Info,
                code: "learned-untestable",
                message: format!(
                    "static learning proves {extra} additional faults untestable ({})",
                    samples.join(", ")
                ),
            });
        }

        testability = hard_to_test(netlist);
    }

    findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
    AnalysisReport {
        circuit: netlist.name().to_owned(),
        gates: netlist.gate_count(),
        findings,
        testability,
    }
}

/// The SCOAP hard-to-test report: the [`MAX_HARD_NETS`] fault sites with
/// the highest finite `fault_difficulty`, hardest first, ties broken by
/// net order then stuck value — a stable ranking of the
/// random-pattern-resistant regions.
fn hard_to_test(netlist: &Netlist) -> Vec<Entry> {
    let t = match Testability::analyze(netlist) {
        Ok(t) => t,
        Err(_) => return Vec::new(),
    };
    let mut sites: Vec<(u32, usize, bool)> = Vec::new();
    for (id, _) in netlist.iter() {
        for stuck in [false, true] {
            // Saturated measures mean "impossible", which the untestability
            // findings already cover — the ranking is for *hard*, not
            // hopeless, sites.
            if t.cc(id, !stuck) >= Testability::INFINITY || t.co(id) >= Testability::INFINITY {
                continue;
            }
            sites.push((t.fault_difficulty(id, stuck), id.index(), stuck));
        }
    }
    sites.sort_by_key(|&(d, i, s)| (std::cmp::Reverse(d), i, s));
    sites
        .into_iter()
        .take(MAX_HARD_NETS)
        .map(|(d, i, stuck)| {
            let id = fbist_netlist::GateId::from_index(i);
            Entry {
                net: netlist.gate(id).name().to_owned(),
                stuck,
                difficulty: d,
                cc0: t.cc0(id),
                cc1: t.cc1(id),
                co: t.co(id),
            }
        })
        .collect()
}

fn name(netlist: &Netlist, g: fbist_netlist::GateId) -> &str {
    netlist.gate(g).name()
}

/// Pushes one finding per item up to [`MAX_LISTED`], folding the overflow
/// into a single "and N more" finding of the same code.
fn push_capped(
    findings: &mut Vec<Finding>,
    severity: Severity,
    code: &'static str,
    items: Vec<String>,
) {
    let total = items.len();
    for message in items.into_iter().take(MAX_LISTED) {
        findings.push(Finding {
            severity,
            code,
            message,
        });
    }
    if total > MAX_LISTED {
        findings.push(Finding {
            severity,
            code,
            message: format!("... and {} more", total - MAX_LISTED),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbist_netlist::bench;

    #[test]
    fn clean_circuit_clean_report() {
        let n = bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n").unwrap();
        let r = analyze(&n);
        assert!(!r.has_findings());
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.gates, 3);
    }

    #[test]
    fn embedded_c17_is_clean() {
        let r = analyze(&fbist_netlist::embedded::c17());
        assert!(!r.has_findings(), "{}", r.render_text());
    }

    #[test]
    fn floating_and_constant_warnings() {
        let src = "INPUT(a)\nOUTPUT(w)\nz = CONST0()\ny = NOT(a)\nw = AND(y, z)\nf = BUFF(a)\n";
        let n = bench::parse(src).unwrap();
        let r = analyze(&n);
        assert!(r.has_findings());
        let codes: Vec<&str> = r.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"floating-net"), "{codes:?}");
        assert!(codes.contains(&"unobservable"), "{codes:?}");
        assert!(codes.contains(&"constant-net"), "{codes:?}");
        assert!(codes.contains(&"untestable-faults"), "{codes:?}");
    }

    #[test]
    fn redundancy_is_info_only() {
        let src = "INPUT(a)\nOUTPUT(y)\nna = NOT(a)\nr = OR(a, na)\ny = BUFF(r)\n";
        let n = bench::parse(src).unwrap();
        let r = analyze(&n);
        assert!(!r.has_findings(), "{}", r.render_text());
        let codes: Vec<&str> = r.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"implied-constant"), "{codes:?}");
        assert!(codes.contains(&"untestable-faults"), "{codes:?}");
    }

    #[test]
    fn errors_sort_before_infos() {
        let src = "INPUT(a)\nOUTPUT(w)\nz = CONST1()\nw = OR(a, z)\n";
        let n = bench::parse(src).unwrap();
        let r = analyze(&n);
        for pair in r.findings.windows(2) {
            assert!(pair[0].severity >= pair[1].severity);
        }
    }

    #[test]
    fn capping_folds_overflow() {
        // 30 floating buffers → 20 listed + 1 "and 10 more".
        let mut src = String::from("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
        for i in 0..30 {
            src.push_str(&format!("f{i} = BUFF(a)\n"));
        }
        let n = bench::parse(&src).unwrap();
        let r = analyze(&n);
        let floats = r
            .findings
            .iter()
            .filter(|f| f.code == "floating-net")
            .count();
        assert_eq!(floats, MAX_LISTED + 1);
        assert!(r.findings.iter().any(|f| f.message.contains("and 10 more")));
    }
}
