//! The fanout-free-region fault simulator against the per-fault cone
//! oracle ([`reference::ConeOracle`]), word for word, at every SIMD width.
//! The simulator picks its width from the pattern count
//! ([`simd::width_for`]), so each case draws one flat pattern count per
//! width, in the range the rule maps to it.
//!
//! Every random netlist carries the shapes that stress a region tree: a
//! gate driving two pins of one gate (a stem inside what would otherwise
//! look like a chain), BUFF, XNOR and constant gates, 3- and 4-input
//! gates, a primary output whose net also feeds exactly one gate (a root
//! that is not a stem), and dangling non-output gates (roots that observe
//! nothing). The three engine surfaces are checked against detection words
//! the oracle computes one fault cone at a time:
//!
//! * `dictionary` — every lane of every word, no dropping;
//! * `run` — fault dropping across blocks, first detection indices;
//! * `first_detections_blocks` / `detects_blocks` — masked dropping over
//!   shared blocks whose lane groups only partly fill a block, merged
//!   over random partitions of the block axis.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use set_covering_reseeding::bits::{simd, SimWord};
use set_covering_reseeding::fault::{merge_first_detections, reference::ConeOracle, BatchPlan};
use set_covering_reseeding::netlist::GateId;
use set_covering_reseeding::prelude::*;

/// xorshift64 stream used by every generator below.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// A random driver among `nets`.
fn pick(nets: &[GateId], next: &mut impl FnMut() -> u64) -> GateId {
    nets[(next() % nets.len() as u64) as usize]
}

/// Adds a gate named after its position and records its net.
fn add(n: &mut Netlist, nets: &mut Vec<GateId>, kind: GateKind, fanin: Vec<GateId>) -> GateId {
    let id = n
        .add_gate(kind, format!("g{}", nets.len()), fanin)
        .expect("valid gate");
    nets.push(id);
    id
}

/// A random netlist with every region-tree corner case built in.
fn arb_region_netlist() -> impl Strategy<Value = Netlist> {
    (1usize..6, 4usize..36, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        const KINDS: [GateKind; 10] = [
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
        ];
        let mut next = xorshift(seed);
        let mut n = Netlist::new("ffr");
        let mut nets: Vec<GateId> = (0..inputs).map(|i| n.add_input(format!("i{i}"))).collect();
        for _ in 0..gates {
            let kind = KINDS[(next() % KINDS.len() as u64) as usize];
            let arity = match kind {
                GateKind::Const0 | GateKind::Const1 => 0,
                GateKind::Not | GateKind::Buff => 1,
                _ => 1 + (next() % 4) as usize,
            };
            let mut fanin = Vec::with_capacity(arity);
            while fanin.len() < arity {
                // now and then the same driver on two pins
                let cand = match fanin.last() {
                    Some(&prev) if next() % 5 == 0 => prev,
                    _ => pick(&nets, &mut next),
                };
                fanin.push(cand);
            }
            add(&mut n, &mut nets, kind, fanin);
        }
        // the corner cases, present in every netlist
        let a = pick(&nets, &mut next);
        let b = pick(&nets, &mut next);
        let c = pick(&nets, &mut next);
        let twice = add(&mut n, &mut nets, GateKind::And, vec![a, a, b]);
        let zero = add(&mut n, &mut nets, GateKind::Const0, vec![]);
        let one = add(&mut n, &mut nets, GateKind::Const1, vec![]);
        let wide_or = add(&mut n, &mut nets, GateKind::Or, vec![zero, a, b, c]);
        let xnor = add(&mut n, &mut nets, GateKind::Xnor, vec![one, wide_or, twice]);
        let buff = add(&mut n, &mut nets, GateKind::Buff, vec![xnor]);
        // a PO whose net also feeds exactly one gate
        let po_and_feed = add(&mut n, &mut nets, GateKind::Nand, vec![buff, c]);
        let reader = add(&mut n, &mut nets, GateKind::Not, vec![po_and_feed]);
        n.add_output(po_and_feed);
        n.add_output(reader);
        // dangling non-output gates
        add(&mut n, &mut nets, GateKind::Xor, vec![a, b, c]);
        add(&mut n, &mut nets, GateKind::Nor, vec![wide_or]);
        // observe a few random nets too
        for _ in 0..2 {
            let o = pick(&nets, &mut next);
            n.add_output(o);
        }
        n
    })
}

/// Up to seven rows of `total` patterns in all: random cut points give
/// empty, sub-block, block-straddling and multi-block rows.
fn random_rows(width: usize, seed: u64, total: usize) -> Vec<Vec<BitVec>> {
    let mut next = xorshift(seed);
    let mut cuts: Vec<usize> = (0..next() % 7)
        .map(|_| (next() % (total as u64 + 1)) as usize)
        .collect();
    cuts.push(total);
    cuts.sort_unstable();
    let mut start = 0;
    cuts.into_iter()
        .map(|end| {
            let len = end - std::mem::replace(&mut start, end);
            (0..len)
                .map(|_| BitVec::random_with(width, &mut next))
                .collect()
        })
        .collect()
}

/// Checks the three engine surfaces against the oracle on `total`
/// patterns, a count the width rule maps to `W`.
fn check_width<const W: usize>(
    netlist: &Netlist,
    pseed: u64,
    total: usize,
    chunk: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(simd::width_for(total), W, "{} patterns", total);
    let rows = random_rows(netlist.inputs().len(), pseed, total);
    let faults = FaultList::full(netlist);
    let fsim = FaultSimulator::new(netlist).unwrap();
    let flat: Vec<BitVec> = rows.iter().flatten().cloned().collect();
    let words = ConeOracle::new(netlist)
        .unwrap()
        .block_words::<W>(&flat, &faults);
    let lanes = SimWord::<W>::LANES;

    // dictionary: every lane of every word
    let dict = fsim.dictionary(&flat, &faults);
    for (b, block) in words.iter().enumerate() {
        for (fid, _) in faults.iter() {
            let mut word = SimWord::<W>::ZERO;
            for k in 0..lanes.min(flat.len() - b * lanes) {
                if dict.get(b * lanes + k, fid.index()) {
                    word.set_lane(k);
                }
            }
            prop_assert_eq!(
                word,
                block[fid.index()],
                "W={} block {} fault {:?}",
                W,
                b,
                fid
            );
        }
    }

    // run: dropping across blocks, first detection = lowest lane of the
    // first nonzero word
    let run = fsim.run(&flat, &faults);
    for (fid, _) in faults.iter() {
        let expect = words.iter().enumerate().find_map(|(b, block)| {
            let w = block[fid.index()];
            (!w.is_zero()).then(|| (b * lanes) as u32 + w.trailing_zeros())
        });
        prop_assert_eq!(
            run.first_detection[fid.index()],
            expect,
            "W={} fault {:?}",
            W,
            fid
        );
        prop_assert_eq!(run.detected.get(fid.index()), expect.is_some());
    }

    // shared blocks: masked dropping over partial lane groups, merged
    // over a partition of the block axis
    let lengths: Vec<usize> = rows.iter().map(Vec::len).collect();
    let plan = BatchPlan::new(&lengths);
    prop_assert_eq!(plan.width_words(), W);
    let row_base: Vec<usize> = lengths
        .iter()
        .scan(0, |acc, &l| {
            let base = *acc;
            *acc += l;
            Some(base)
        })
        .collect();
    let mut expect = vec![vec![FaultSimulator::NO_DETECTION; faults.len()]; rows.len()];
    for (b, block) in plan.blocks().iter().enumerate() {
        for g in &block.groups {
            let r = g.row as usize;
            // the plan lays the row streams out back to back
            prop_assert_eq!(
                row_base[r] + g.start as usize,
                b * lanes + g.lane_offset as usize
            );
            for (fid, _) in faults.iter() {
                let hit = words[b][fid.index()] & g.mask_w::<W>();
                if !hit.is_zero() {
                    let first = g.start + (hit.trailing_zeros() - g.lane_offset as u32);
                    let cell = &mut expect[r][fid.index()];
                    *cell = (*cell).min(first);
                }
            }
        }
    }
    let mut partials = Vec::new();
    let mut detects = vec![BitVec::zeros(faults.len()); rows.len()];
    let mut lo = 0;
    while lo < plan.block_count() {
        let hi = (lo + chunk).min(plan.block_count());
        let span = &rows[plan.row_span(lo..hi)];
        partials.extend(fsim.first_detections_blocks(&plan, lo..hi, span, &faults));
        for (row, bits) in fsim.detects_blocks(&plan, lo..hi, span, &faults) {
            detects[row].union_with(&bits);
        }
        lo = hi;
    }
    let firsts = merge_first_detections(rows.len(), faults.len(), partials);
    prop_assert_eq!(&firsts, &expect, "W={} chunk {}", W, chunk);
    for (r, row) in expect.iter().enumerate() {
        for (f, &first) in row.iter().enumerate() {
            prop_assert_eq!(detects[r].get(f), first != FaultSimulator::NO_DETECTION);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Region tracing plus one root sweep reproduces every per-fault cone
    /// word at W = 1, 2, 4 and 8.
    #[test]
    fn region_simulation_matches_the_cone_oracle(
        netlist in arb_region_netlist(),
        pseed in any::<u64>(),
        chunk in 1usize..4,
        totals in (0usize..=64, 65usize..=128, 129usize..=256, 257usize..=1100),
    ) {
        check_width::<1>(&netlist, pseed, totals.0, chunk)?;
        check_width::<2>(&netlist, pseed, totals.1, chunk)?;
        check_width::<4>(&netlist, pseed, totals.2, chunk)?;
        check_width::<8>(&netlist, pseed, totals.3, chunk)?;
    }
}
