//! Differential suite pinning the SIMD block width (`--simd-width`,
//! [`FlowConfig::simd_width`], [`AtpgConfig::simd_width`]) bit-identical.
//!
//! For **every** genbench profile (scaled to a small, fast gate budget —
//! the width machinery is identical at every size), a TPG from each
//! family (accumulator-based `add`, LFSR-based `lfsr`) and
//! `jobs ∈ {1, 4}`, the narrow `W = 1` engine, the explicit `W = 4`
//! engine and the `auto` width must produce **byte-for-byte identical**
//! results at every layer that touches the packed fault simulator: the
//! ATPG run, the Detection Matrix (both construction engines), the
//! first-detection matrix, and the full reseeding report. This is the
//! width twin of the `parallel_equivalence` (jobs),
//! `sparse_dense_equivalence` (backend), `batched_matrix_equivalence`
//! (matrix engine) and `sweep_equivalence` (sweep engine) contracts —
//! together they are the proof obligations behind the
//! `THROUGHPUT_KNOBS` stage-key exclusion manifest that `xtask lint`
//! cross-checks.
//!
//! Why equality holds by construction: lane `k` of a W-wide block is
//! lane `k` of the flat `64·W` lane space, detection is a monotone OR
//! over lanes and first-detection a min over ascending flat-lane
//! indices, so re-chunking the same lane stream into wider blocks can
//! never change a reduction result. This suite is the executable form
//! of that argument.

use fbist_genbench::{all_profiles, generate, CircuitProfile};
use fbist_netlist::Netlist;
use set_covering_reseeding::prelude::*;

/// Gate budget: exercises every interface shape while staying test-fast
/// (same budget as `batched_matrix_equivalence`).
const GATE_BUDGET: f64 = 70.0;

/// The widths compared against the `W = 1` reference: one explicit wide
/// engine and the auto rule (which may resolve to any width per call).
const WIDE: [SimdWidth; 2] = [SimdWidth::W4, SimdWidth::Auto];

fn small(p: &CircuitProfile) -> Netlist {
    let factor = (GATE_BUDGET / p.gates as f64).min(1.0);
    let n = generate(&p.scaled(factor), 1);
    if n.is_combinational() {
        n
    } else {
        full_scan(&n).into_combinational()
    }
}

/// Every width must reproduce the `W = 1` ATPG run, Detection Matrix
/// (per-row and batched engines), first-detection matrix and full
/// reseeding report, for a serial and a 4-worker pool.
fn assert_widths_equivalent(netlist: &Netlist, tpg_kind: TpgKind, label: &str) {
    let builder = InitialReseedingBuilder::new(netlist).expect("combinational circuit");
    let tpg = tpg_kind.build(netlist.inputs().len());
    for jobs in [1usize, 4] {
        let cfg_at = |w: SimdWidth| {
            FlowConfig::new(tpg_kind)
                .with_tau(31)
                .with_jobs(jobs)
                .with_simd_width(w)
        };

        // the ATPG phases (random batches, round dictionaries, drop
        // passes, compaction replay) all go through the width dispatch
        let ref_base = builder.atpg_base(&cfg_at(SimdWidth::W1));
        for w in WIDE {
            let base = builder.atpg_base(&cfg_at(w));
            assert_eq!(
                ref_base.atpg, base.atpg,
                "{label} jobs={jobs} {w}: ATPG result differs from W=1"
            );
        }

        // matrix + first-detection, under both construction engines and
        // the τ regimes that matter (τ=3 packs many rows per wide block,
        // τ=31 spans blocks within a row)
        for engine in [MatrixBuild::PerRow, MatrixBuild::Batched] {
            for tau in [3usize, 31] {
                let matrix_at = |w: SimdWidth| {
                    builder.matrix_for(
                        tpg.as_ref(),
                        &ref_base.atpg.patterns,
                        &ref_base.target_faults,
                        tau,
                        cfg_at(w).seed,
                        jobs,
                        engine,
                        w,
                    )
                };
                let (ref_triplets, ref_matrix) = matrix_at(SimdWidth::W1);
                let fdm_at = |w: SimdWidth| {
                    builder.first_detection_matrix_for(
                        tpg.as_ref(),
                        &ref_base.atpg.patterns,
                        &ref_base.target_faults,
                        tau,
                        cfg_at(w).seed,
                        jobs,
                        engine,
                        w,
                    )
                };
                let (_, ref_fdm) = fdm_at(SimdWidth::W1);
                for w in WIDE {
                    let (triplets, matrix) = matrix_at(w);
                    assert_eq!(
                        ref_triplets, triplets,
                        "{label} jobs={jobs} τ={tau} {engine} {w}: triplets differ"
                    );
                    assert_eq!(
                        ref_matrix.row_major(),
                        matrix.row_major(),
                        "{label} jobs={jobs} τ={tau} {engine} {w}: Detection Matrix \
                         differs from W=1"
                    );
                    let (_, fdm) = fdm_at(w);
                    assert_eq!(
                        ref_fdm.csr_parts(),
                        fdm.csr_parts(),
                        "{label} jobs={jobs} τ={tau} {engine} {w}: first-detection \
                         matrix differs from W=1"
                    );
                }
            }
        }

        // end to end: the whole report (cover, trim, ROM accounting)
        let flow = ReseedingFlow::new(netlist).expect("combinational circuit");
        let ref_report = flow.run(&cfg_at(SimdWidth::W1));
        for w in WIDE {
            assert_eq!(
                ref_report,
                flow.run(&cfg_at(w)),
                "{label} jobs={jobs} {w}: reseeding report differs from W=1"
            );
        }
    }
}

#[test]
fn every_profile_matches_width_one_with_accumulator_tpg() {
    for p in all_profiles() {
        assert_widths_equivalent(&small(&p), TpgKind::Adder, &p.name);
    }
}

#[test]
fn every_profile_matches_width_one_with_lfsr_tpg() {
    for p in all_profiles() {
        assert_widths_equivalent(&small(&p), TpgKind::Lfsr, &p.name);
    }
}

/// The pure-PODEM reference run (`static_prepass: false`), across every
/// profile: the default config's width invariance is pinned through the
/// flows above, and the reference the differential suites compare it
/// against must not depend on the width (or jobs) either.
#[test]
fn pure_podem_atpg_is_width_invariant() {
    for p in all_profiles() {
        let n = small(&p);
        let builder = InitialReseedingBuilder::new(&n).expect("combinational circuit");
        for jobs in [1usize, 4] {
            let base_at = |w: SimdWidth| {
                let mut cfg = FlowConfig::new(TpgKind::Adder)
                    .with_tau(31)
                    .with_jobs(jobs)
                    .with_simd_width(w);
                cfg.atpg.static_prepass = false;
                builder.atpg_base(&cfg)
            };
            let narrow = base_at(SimdWidth::W1);
            for w in WIDE {
                assert_eq!(
                    narrow.atpg,
                    base_at(w).atpg,
                    "{} jobs={jobs} {w}: pure-PODEM ATPG differs from W=1",
                    p.name
                );
            }
        }
    }
}

#[test]
fn sweep_curves_are_width_invariant() {
    // the τ-sweep drives the simulator through its remaining public entry
    // point (shared first-detection pass + thresholding); the whole curve
    // must be width-invariant too
    let p = genbench_profile("mid256").unwrap();
    let n = small(&p);
    let curve = |w: SimdWidth| {
        tradeoff_sweep(
            &n,
            &FlowConfig::new(TpgKind::Adder).with_simd_width(w),
            &[0, 3, 31],
        )
        .unwrap()
    };
    let narrow = curve(SimdWidth::W1);
    for w in WIDE {
        assert_eq!(narrow, curve(w), "{w}: sweep curve differs from W=1");
    }
}
