//! Reader and writer for the ISCAS `.bench` netlist format.
//!
//! The `.bench` format is the lingua franca of the ISCAS'85/'89 benchmark
//! suites the paper evaluates on:
//!
//! ```text
//! # c17 — smallest ISCAS'85 circuit
//! INPUT(1)
//! INPUT(2)
//! OUTPUT(22)
//! 10 = NAND(1, 3)
//! 22 = NAND(10, 16)
//! ```
//!
//! Gates may be referenced before they are defined, so parsing is two-pass:
//! first collect declarations, then resolve names.
//!
//! # Example
//!
//! ```
//! use fbist_netlist::bench;
//!
//! let src = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
//! let n = bench::parse(src)?;
//! assert_eq!(n.inputs().len(), 2);
//! let round = bench::parse(&bench::to_bench(&n))?;
//! assert_eq!(round.gate_count(), n.gate_count());
//! # Ok::<(), bench::BenchParseError>(())
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::gate::GateKind;
use crate::netlist::{GateId, Netlist, NetlistError};

/// Error produced while parsing `.bench` text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchParseError {
    line: usize,
    message: String,
}

impl BenchParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        BenchParseError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number of the offending line (0 for whole-file errors).
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for BenchParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for BenchParseError {}

impl From<NetlistError> for BenchParseError {
    fn from(e: NetlistError) -> Self {
        BenchParseError::new(0, e.to_string())
    }
}

enum Decl {
    Input(String),
    Output(String),
    Gate {
        name: String,
        kind: GateKind,
        fanin_names: Vec<String>,
    },
}

/// Parses `.bench` text into a [`Netlist`].
///
/// # Errors
///
/// Returns a [`BenchParseError`] naming the offending line for syntax
/// errors, unknown gate kinds, undefined signal references, duplicate
/// definitions or arity violations.
pub fn parse(src: &str) -> Result<Netlist, BenchParseError> {
    parse_named(src, "bench")
}

/// Parses `.bench` text, giving the resulting netlist an explicit name.
///
/// # Errors
///
/// See [`parse`].
pub fn parse_named(src: &str, name: &str) -> Result<Netlist, BenchParseError> {
    let mut decls = Vec::new();
    for (lineno, raw) in src.lines().enumerate() {
        let lineno = lineno + 1;
        let line = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = strip_call(line, "INPUT") {
            decls.push(Decl::Input(rest.trim().to_owned()));
        } else if let Some(rest) = strip_call(line, "OUTPUT") {
            decls.push(Decl::Output(rest.trim().to_owned()));
        } else if let Some(eq) = line.find('=') {
            let name_part = line[..eq].trim();
            let rhs = line[eq + 1..].trim();
            let open = rhs.find('(').ok_or_else(|| {
                BenchParseError::new(lineno, format!("expected KIND(...) after '=', got {rhs:?}"))
            })?;
            if !rhs.ends_with(')') {
                return Err(BenchParseError::new(lineno, "missing closing ')'"));
            }
            let kind_str = rhs[..open].trim();
            let kind: GateKind = kind_str.parse().map_err(|_| {
                BenchParseError::new(lineno, format!("unknown gate kind {kind_str:?}"))
            })?;
            let args = &rhs[open + 1..rhs.len() - 1];
            let fanin_names: Vec<String> = if args.trim().is_empty() {
                Vec::new()
            } else {
                args.split(',').map(|a| a.trim().to_owned()).collect()
            };
            if name_part.is_empty() {
                return Err(BenchParseError::new(lineno, "missing gate name before '='"));
            }
            decls.push(Decl::Gate {
                name: name_part.to_owned(),
                kind,
                fanin_names,
            });
        } else {
            return Err(BenchParseError::new(
                lineno,
                format!("unrecognised statement {line:?}"),
            ));
        }
    }

    // Pass 1: assign ids in declaration order (inputs and gates).
    let mut ids: HashMap<&str, usize> = HashMap::new();
    let mut gate_decls: Vec<(&str, GateKind, &[String])> = Vec::new();
    const NO_FANIN: &[String] = &[];
    for d in &decls {
        match d {
            Decl::Input(n) => {
                if ids.insert(n.as_str(), gate_decls.len()).is_some() {
                    return Err(BenchParseError::new(
                        0,
                        format!("duplicate definition of {n:?}"),
                    ));
                }
                gate_decls.push((n.as_str(), GateKind::Input, NO_FANIN));
            }
            Decl::Gate {
                name,
                kind,
                fanin_names,
            } => {
                if ids.insert(name.as_str(), gate_decls.len()).is_some() {
                    return Err(BenchParseError::new(
                        0,
                        format!("duplicate definition of {name:?}"),
                    ));
                }
                gate_decls.push((name.as_str(), *kind, fanin_names.as_slice()));
            }
            Decl::Output(_) => {}
        }
    }

    // Pass 2: emit gates in dependence order (iterative DFS), since the
    // Netlist builder requires fanins to exist first. DFF fanins are
    // sequential edges and must not create build-order dependences, so they
    // are resolved in a fix-up pass afterwards — but the builder API needs
    // the fanin id at insertion. Instead, emit DFFs first with a placeholder
    // fanin of themselves? Cleaner: topologically sort treating DFF fanin
    // edges as absent, insert DFFs as id-only, then patch via rebuild.
    //
    // Simplest correct approach: order combinational dependences, with DFF
    // gates treated as sources; afterwards rebuild any DFF's fanin by name
    // through a second netlist construction. To keep the Netlist immutable-
    // after-build invariant, we instead compute a global emission order in
    // which every gate's *combinational* fanins precede it, and DFFs are
    // emitted last (all their D drivers exist by then).
    let n = gate_decls.len();

    // Cycle pre-check on the declared dependence graph via the shared SCC
    // pass, so the error names the full cycle path rather than one gate.
    // DFF fanins are sequential edges and unknown names are reported later
    // with a better message, so both are skipped here.
    {
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, &(_, kind, fanins)) in gate_decls.iter().enumerate() {
            if kind == GateKind::Dff {
                continue;
            }
            for fname in fanins {
                if let Some(&dep) = ids.get(fname.as_str()) {
                    succ[dep].push(i as u32);
                }
            }
        }
        let comps = crate::topo::cyclic_sccs(&succ);
        if let Some(comp) = comps.first() {
            let path = crate::topo::cycle_path(&succ, comp);
            let names: Vec<&str> = path.iter().map(|&i| gate_decls[i].0).collect();
            return Err(BenchParseError::new(
                0,
                format!(
                    "combinational cycle through {:?}: {} -> {}",
                    names[0],
                    names.join(" -> "),
                    names[0]
                ),
            ));
        }
    }

    let mut state = vec![0u8; n]; // 0 unvisited, 1 visiting, 2 done
    let mut emit: Vec<usize> = Vec::with_capacity(n);
    for start in 0..n {
        if state[start] != 0 {
            continue;
        }
        // iterative DFS
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        state[start] = 1;
        while let Some(&(node, child)) = stack.last() {
            let (_, kind, fanins) = gate_decls[node];
            // DFF: sequential input, no combinational dependence.
            let deps: &[String] = if kind == GateKind::Dff { &[] } else { fanins };
            if child < deps.len() {
                stack.last_mut().expect("non-empty").1 += 1;
                let dep_name = &deps[child];
                let &dep = ids.get(dep_name.as_str()).ok_or_else(|| {
                    BenchParseError::new(
                        0,
                        format!(
                            "gate {:?} references undefined signal {dep_name:?}",
                            gate_decls[node].0
                        ),
                    )
                })?;
                match state[dep] {
                    0 => {
                        state[dep] = 1;
                        stack.push((dep, 0));
                    }
                    1 => {
                        return Err(BenchParseError::new(
                            0,
                            format!("combinational cycle through {:?}", gate_decls[dep].0),
                        ));
                    }
                    _ => {}
                }
            } else {
                state[node] = 2;
                emit.push(node);
                stack.pop();
            }
        }
    }
    // Emit: DFF placeholders first (so their Q nets can be referenced by
    // combinational gates), then everything else in dependence order, then
    // connect the D pins.
    let mut netlist = Netlist::new(name);
    let mut new_id: Vec<Option<GateId>> = vec![None; n];
    for (i, &(gname, kind, _)) in gate_decls.iter().enumerate() {
        if kind == GateKind::Dff {
            new_id[i] = Some(netlist.add_dff(gname)?);
        }
    }
    for &i in &emit {
        let (gname, kind, fanin_names) = gate_decls[i];
        if kind == GateKind::Dff {
            continue;
        }
        let fanin: Vec<GateId> = fanin_names
            .iter()
            .map(|fname| {
                let &fi = ids.get(fname.as_str()).ok_or_else(|| {
                    BenchParseError::new(
                        0,
                        format!("gate {gname:?} references undefined signal {fname:?}"),
                    )
                })?;
                new_id[fi].ok_or_else(|| {
                    BenchParseError::new(
                        0,
                        format!("gate {gname:?} fanin {fname:?} not yet emitted (cycle?)"),
                    )
                })
            })
            .collect::<Result<_, _>>()?;
        let id = netlist.add_gate(kind, gname, fanin)?;
        new_id[i] = Some(id);
    }
    for (i, &(gname, kind, fanin_names)) in gate_decls.iter().enumerate() {
        if kind != GateKind::Dff {
            continue;
        }
        if fanin_names.len() != 1 {
            return Err(BenchParseError::new(
                0,
                format!("DFF {gname:?} must have exactly one input"),
            ));
        }
        let fname = &fanin_names[0];
        let &fi = ids.get(fname.as_str()).ok_or_else(|| {
            BenchParseError::new(
                0,
                format!("gate {gname:?} references undefined signal {fname:?}"),
            )
        })?;
        let d = new_id[fi].expect("non-DFF gates all emitted");
        netlist.connect_dff(new_id[i].expect("DFF emitted"), d)?;
    }
    for d in &decls {
        if let Decl::Output(oname) = d {
            let &oi = ids
                .get(oname.as_str())
                .ok_or_else(|| BenchParseError::new(0, format!("undefined output {oname:?}")))?;
            netlist.add_output(new_id[oi].expect("all gates emitted"));
        }
    }
    Ok(netlist)
}

fn strip_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(keyword).or_else(|| {
        // case-insensitive match; `get` because the keyword's length may
        // end inside a multi-byte character of the line
        line.get(..keyword.len())
            .filter(|head| head.eq_ignore_ascii_case(keyword))
            .and_then(|_| line.get(keyword.len()..))
    })?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix('(')?;
    rest.strip_suffix(')')
}

/// Serialises a netlist to `.bench` text.
///
/// Output order: inputs, outputs, then gates in id order — which is a valid
/// definition-before-use order for everything except DFF feedback, which the
/// format permits anyway.
pub fn to_bench(netlist: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", netlist.name()));
    for &i in netlist.inputs() {
        out.push_str(&format!("INPUT({})\n", netlist.gate(i).name()));
    }
    for &o in netlist.outputs() {
        out.push_str(&format!("OUTPUT({})\n", netlist.gate(o).name()));
    }
    for (_, g) in netlist.iter() {
        if g.kind() == GateKind::Input {
            continue;
        }
        let fanins: Vec<&str> = g.fanin().iter().map(|&f| netlist.gate(f).name()).collect();
        out.push_str(&format!(
            "{} = {}({})\n",
            g.name(),
            g.kind().bench_name(),
            fanins.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const C17: &str = r#"
# c17 iscas example
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)

OUTPUT(22)
OUTPUT(23)

10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
"#;

    #[test]
    fn parse_c17() {
        let n = parse_named(C17, "c17").unwrap();
        assert_eq!(n.inputs().len(), 5);
        assert_eq!(n.outputs().len(), 2);
        assert_eq!(n.logic_gate_count(), 6);
        assert!(n.is_combinational());
        assert!(n.validate().is_ok());
    }

    #[test]
    fn roundtrip_c17() {
        let n = parse_named(C17, "c17").unwrap();
        let text = to_bench(&n);
        let n2 = parse_named(&text, "c17").unwrap();
        assert_eq!(n2.inputs().len(), n.inputs().len());
        assert_eq!(n2.outputs().len(), n.outputs().len());
        assert_eq!(n2.logic_gate_count(), n.logic_gate_count());
        // names survive
        assert!(n2.find("22").is_some());
    }

    #[test]
    fn multibyte_character_at_keyword_length_is_an_error() {
        // byte 5 falls inside 'é', where the case-insensitive keyword
        // check used to slice the line and panic
        let err = parse("MUX(é OUTPUT(x)\n").unwrap_err();
        assert!(err.to_string().contains("unrecognised statement"), "{err}");
        assert!(parse("inpué(a)\n").is_err());
    }

    #[test]
    fn forward_references_allowed() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(m)\nm = BUFF(a)\n";
        let n = parse(src).unwrap();
        assert_eq!(n.logic_gate_count(), 2);
        // m must precede y in ids
        assert!(n.find("m").unwrap() < n.find("y").unwrap());
    }

    #[test]
    fn dff_feedback_loop_parses() {
        let src = "OUTPUT(q)\nq = DFF(d)\nd = NOT(q)\n";
        let n = parse(src).unwrap();
        assert_eq!(n.dffs().len(), 1);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn combinational_cycle_rejected() {
        let src = "INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = BUFF(x)\n";
        let e = parse(src).unwrap_err();
        assert!(e.to_string().contains("cycle"), "{e}");
        // the full cycle path is reported by gate name
        let msg = e.to_string();
        assert!(
            msg.contains("x") && msg.contains("y") && msg.contains("->"),
            "{msg}"
        );
    }

    #[test]
    fn cycle_error_names_every_gate_on_the_loop() {
        let src = "INPUT(a)\nOUTPUT(p)\np = AND(a, r)\nq = NOT(p)\nr = BUFF(q)\n";
        let msg = parse(src).unwrap_err().to_string();
        for g in ["p", "q", "r"] {
            assert!(msg.contains(g), "missing {g} in {msg}");
        }
        // sequential feedback is fine though
        let seq = "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = NAND(a, q)\n";
        assert!(parse(seq).is_ok());
    }

    #[test]
    fn unknown_signal_rejected() {
        let src = "INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)\n";
        let e = parse(src).unwrap_err();
        assert!(e.to_string().contains("ghost"), "{e}");
    }

    #[test]
    fn unknown_kind_rejected() {
        let src = "INPUT(a)\ny = FROB(a)\n";
        let e = parse(src).unwrap_err();
        assert!(e.to_string().contains("FROB"), "{e}");
        assert_eq!(e.line(), 2);
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let e = parse("INPUT(a)\nwhat is this\n").unwrap_err();
        assert_eq!(e.line(), 2);
        let e = parse("INPUT(a)\ny = AND(a\n").unwrap_err();
        assert_eq!(e.line(), 2);
    }

    #[test]
    fn duplicate_definition_rejected() {
        let src = "INPUT(a)\nINPUT(a)\n";
        assert!(parse(src).is_err());
        let src = "INPUT(a)\nx = NOT(a)\nx = BUFF(a)\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn comments_and_case_insensitivity() {
        let src = "input(a) # the input\noutput(y)\ny = nand(a, a) # self-pair\n";
        let n = parse(src).unwrap();
        assert_eq!(n.logic_gate_count(), 1);
        assert_eq!(n.gate(n.find("y").unwrap()).kind(), GateKind::Nand);
    }
}
