//! Cross-crate property-based tests.

use proptest::prelude::*;
use set_covering_reseeding::prelude::*;
use set_covering_reseeding::setcover::{
    greedy_cover, reduce, ExactConfig, ExactSolver, ReducerConfig,
};

/// Strategy: a random small netlist built through the public builder API.
fn arb_netlist() -> impl Strategy<Value = Netlist> {
    (2usize..6, 5usize..40, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        // deterministic mini-generator (independent of fbist-genbench)
        let mut n = Netlist::new("prop");
        let mut nets = Vec::new();
        for i in 0..inputs {
            nets.push(n.add_input(format!("i{i}")));
        }
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for g in 0..gates {
            let kinds = [
                GateKind::And,
                GateKind::Nand,
                GateKind::Or,
                GateKind::Nor,
                GateKind::Xor,
                GateKind::Not,
            ];
            let kind = kinds[(next() % kinds.len() as u64) as usize];
            let fanin_count = if kind == GateKind::Not { 1 } else { 2 };
            let mut fanin = Vec::new();
            while fanin.len() < fanin_count {
                let cand = nets[(next() % nets.len() as u64) as usize];
                if !fanin.contains(&cand) {
                    fanin.push(cand);
                }
            }
            let id = n.add_gate(kind, format!("g{g}"), fanin).unwrap();
            nets.push(id);
        }
        // observe the last few nets
        for k in 0..3.min(nets.len()) {
            n.add_output(nets[nets.len() - 1 - k]);
        }
        n
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fault simulator must agree with the naive per-pattern oracle on
    /// random circuits and patterns.
    #[test]
    fn fault_sim_matches_oracle(netlist in arb_netlist(), pseed in any::<u64>()) {
        use set_covering_reseeding::fault::reference;
        let faults = FaultList::collapsed(&netlist);
        let fsim = FaultSimulator::new(&netlist).unwrap();
        let w = netlist.inputs().len();
        let mut s = pseed | 1;
        let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
        let patterns: Vec<BitVec> = (0..8).map(|_| BitVec::random_with(w, &mut next)).collect();
        let dict = fsim.dictionary(&patterns, &faults);
        for (fid, fault) in faults.iter() {
            for (p, pattern) in patterns.iter().enumerate() {
                prop_assert_eq!(
                    dict.get(p, fid.index()),
                    reference::naive_detects(&netlist, fault, pattern),
                    "fault {} pattern {}", fault.describe(&netlist), pattern
                );
            }
        }
    }

    /// Every PODEM cube must detect its fault under arbitrary fill, and
    /// PODEM+fault-sim must agree about testability on exhaustive checking.
    #[test]
    fn podem_cubes_always_detect(netlist in arb_netlist()) {
        use set_covering_reseeding::atpg::{Podem, PodemOutcome};
        use set_covering_reseeding::fault::reference;
        prop_assume!(netlist.inputs().len() <= 5); // exhaustive check feasible
        let faults = FaultList::collapsed(&netlist);
        let podem = Podem::new(&netlist).unwrap();
        let w = netlist.inputs().len();
        for (_, fault) in faults.iter() {
            match podem.generate(fault) {
                PodemOutcome::Test(cube) => {
                    prop_assert!(reference::naive_detects(&netlist, fault, &cube.fill_const(false)));
                    prop_assert!(reference::naive_detects(&netlist, fault, &cube.fill_const(true)));
                }
                PodemOutcome::Untestable => {
                    // exhaustively confirm: no pattern detects it
                    for v in 0..(1u64 << w) {
                        let p = BitVec::from_u64(w, v);
                        prop_assert!(
                            !reference::naive_detects(&netlist, fault, &p),
                            "PODEM declared {} untestable but {} detects it",
                            fault.describe(&netlist), p
                        );
                    }
                }
                PodemOutcome::Aborted => {} // budget exhaustion is legal
            }
        }
    }

    /// Reduction + exact solving must equal plain exact solving on the
    /// matrices the real flow produces.
    #[test]
    fn reduction_is_lossless_on_flow_matrices(seed in any::<u64>(), tau in 0usize..16) {
        let netlist = genbench_generate(&genbench_profile("tiny64").unwrap(), seed % 16);
        let flow = ReseedingFlow::new(&netlist).unwrap();
        let cfg = FlowConfig::new(TpgKind::Adder).with_tau(tau);
        let initial = flow.builder().build(&cfg);
        let m = &initial.matrix;

        let direct = ExactSolver::new().solve(m);
        let reduction = reduce(m, &ReducerConfig::default());
        let (sub, _) = m.submatrix(&reduction.active_rows, &reduction.active_cols);
        let residual = ExactSolver::new().solve(&sub);
        prop_assert!(direct.optimal && residual.optimal);
        prop_assert_eq!(
            direct.rows.len(),
            reduction.essential_rows.len() + residual.rows.len()
        );
    }

    /// Greedy is valid and within the H(d) bound of the optimum on flow
    /// matrices, and the exact solver at a zero node budget is exactly
    /// greedy.
    #[test]
    fn greedy_within_harmonic_bound(seed in any::<u64>()) {
        let netlist = genbench_generate(&genbench_profile("tiny64").unwrap(), seed % 16);
        let flow = ReseedingFlow::new(&netlist).unwrap();
        let cfg = FlowConfig::new(TpgKind::Adder).with_tau(8);
        let initial = flow.builder().build(&cfg);
        let m = &initial.matrix;
        let greedy = greedy_cover(m);
        prop_assert!(m.is_cover(&greedy));
        let exact = ExactSolver::new().solve(m);
        prop_assert!(exact.optimal);
        let zero = ExactSolver::with_config(ExactConfig { node_limit: 0 }).solve(m);
        prop_assert_eq!(&zero.rows, &greedy);
        prop_assert!(!zero.optimal);
        prop_assert_eq!(zero.nodes, 0);
        let d = (0..m.rows()).map(|r| m.row_weight(r)).max().unwrap_or(1);
        let harmonic: f64 = (1..=d).map(|k| 1.0 / k as f64).sum();
        prop_assert!(
            greedy.len() as f64 <= harmonic * exact.rows.len() as f64 + 1e-9,
            "greedy {} vs bound {:.2} × {}", greedy.len(), harmonic, exact.rows.len()
        );
    }

    /// TPG contract across all kinds: τ=0 seed reproduces the pattern, and
    /// expansion length is always τ+1.
    #[test]
    fn tpg_contract(width in 2usize..100, seed in any::<u64>(), tau in 0usize..40) {
        let mut s = seed | 1;
        let mut next = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; s };
        for kind in [
            TpgKind::Adder, TpgKind::Subtracter, TpgKind::Multiplier,
            TpgKind::Lfsr, TpgKind::MultiPolyLfsr, TpgKind::Weighted,
        ] {
            let g = kind.build(width);
            let p = BitVec::random_with(g.width(), &mut next);
            let t = g.seed_for(&p, &mut next);
            prop_assert_eq!(g.expand(&t), vec![p.clone()], "{}", kind);
            let t = t.with_tau(tau);
            prop_assert_eq!(g.expand(&t).len(), tau + 1, "{}", kind);
            prop_assert_eq!(g.expand(&t)[0].clone(), p, "{}", kind);
        }
    }
}

/// Full-scan equivalence: one SeqSimulator cycle equals one combinational
/// evaluation of the scan core with (PI, state) inputs and (PO, next
/// state) outputs.
#[test]
fn scan_core_equals_one_sequential_cycle() {
    let seq = embedded::johnson3();
    let view = full_scan(&seq);
    let core = view.combinational();
    let psim = PackedSimulator::new(core).unwrap();
    let mut ssim = SeqSimulator::new(&seq).unwrap();

    for state_v in 0..8u64 {
        for in_v in 0..2u64 {
            let state = BitVec::from_u64(3, state_v);
            let input = BitVec::from_u64(1, in_v);
            // sequential machine: load state, apply input, capture
            ssim.load_state(&state);
            let po = ssim.step_pattern(&input);
            let next_state = ssim.state_pattern();
            // scan core: PI ++ PPI → PO ++ PPO
            let scan_in = input.concat(&state);
            let resp = psim
                .simulate_patterns(std::slice::from_ref(&scan_in))
                .remove(0);
            let core_po = resp.resized(view.original_po_count());
            // PPOs live above the original POs in the output list
            let mut core_next = BitVec::zeros(3);
            for i in 0..3 {
                core_next.set(i, resp.get(view.original_po_count() + i));
            }
            assert_eq!(core_po, po, "PO mismatch at state {state_v} in {in_v}");
            assert_eq!(
                core_next, next_state,
                "next-state mismatch at {state_v}/{in_v}"
            );
        }
    }
}
