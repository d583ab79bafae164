//! Differential suite for the content-addressed artifact store: for
//! **every** genbench profile (scaled to a small, fast gate budget) and a
//! TPG from each family (`add`, `lfsr`), the store may only change
//! wall-clock time — never a single bit of any report:
//!
//! 1. **no-store == cold store**: attaching an empty store must not
//!    perturb the computation it caches;
//! 2. **cold == warm**: a second flow over the same store must decode the
//!    identical curve — across a *different* job count, because
//!    throughput knobs are deliberately excluded from stage keys;
//! 3. **warm is free**: the warm sweep performs **zero** matrix
//!    simulation passes and never runs ATPG (`fully_warm`).
//!
//! This is the store-level sibling of the `sweep_equivalence` (sweep vs run),
//! `parallel_equivalence` (jobs), `sparse_dense_equivalence` (backend)
//! and `batched_matrix_equivalence` (matrix engine) contracts.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use fbist_genbench::{all_profiles, generate, CircuitProfile};
use fbist_netlist::Netlist;
use set_covering_reseeding::prelude::*;

/// Gate budget for the per-profile half: exercises every interface shape
/// while staying test-fast.
const GATE_BUDGET: f64 = 70.0;

/// Deliberately unsorted, duplicated τ list — cover keys must canonicalise
/// per unique τ while the answer preserves input order.
const TAUS: [usize; 4] = [7, 0, 3, 3];

fn small(p: &CircuitProfile) -> Netlist {
    let n = generate(&p.scaled((GATE_BUDGET / p.gates as f64).min(1.0)), 1);
    if n.is_combinational() {
        n
    } else {
        full_scan(&n).into_combinational()
    }
}

/// A fresh, empty directory no other test shares, in this process or a
/// concurrent one: the label names the caller, the process id and a
/// process-wide counter keep equal labels apart.
fn unique_temp_dir(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fbist-{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// A fresh, empty store no other test touches (the label names the
/// caller: profile and TPG for the per-profile tests).
fn fresh_store(label: &str) -> (ArtifactStore, PathBuf) {
    let dir = unique_temp_dir(&format!("store-equiv-{label}"));
    (ArtifactStore::open(&dir).expect("temp store opens"), dir)
}

fn assert_store_equivalent(netlist: &Netlist, tpg: TpgKind, label: &str) {
    let (store, dir) = fresh_store(&format!("{label}-{}", tpg.name()));

    // ground truth: no store attached
    let reference = tradeoff_sweep(netlist, &FlowConfig::new(tpg).with_jobs(1), &TAUS).unwrap();

    // cold: an empty store must not change a single bit
    let cold_flow = ReseedingFlow::with_store(netlist, store.clone()).unwrap();
    let cold = tradeoff_sweep_with(&cold_flow, &FlowConfig::new(tpg).with_jobs(1), &TAUS);
    assert_eq!(
        cold, reference,
        "{label}: cold store perturbed the computation"
    );
    assert!(
        cold_flow.builder().matrix_sim_passes() >= 1,
        "{label}: cold sweep must simulate"
    );

    // warm: a fresh flow over the same store, at a different job count
    // (throughput knobs are excluded from stage keys), decodes the same
    // curve without simulating or running ATPG at all
    let warm_flow = ReseedingFlow::with_store(netlist, store).unwrap();
    let warm = tradeoff_sweep_with(&warm_flow, &FlowConfig::new(tpg).with_jobs(4), &TAUS);
    assert_eq!(warm, reference, "{label}: warm curve differs");
    assert_eq!(
        warm_flow.builder().matrix_sim_passes(),
        0,
        "{label}: warm sweep must not simulate"
    );
    let stats = warm_flow.stages().stats();
    assert!(
        stats.fully_warm(),
        "{label}: warm sweep computed a stage: {stats:?}"
    );
    assert_eq!(stats.cover_hits, 3, "{label}: one cover hit per unique τ");

    let _ = std::fs::remove_dir_all(dir);
}

macro_rules! store_equivalence_tests {
    ($($test:ident => $profile:literal),+ $(,)?) => {$(
        mod $test {
            use super::*;

            #[test]
            fn add() {
                let p = genbench_profile($profile).expect("profile registered");
                assert_store_equivalent(&small(&p), TpgKind::Adder, $profile);
            }

            #[test]
            fn lfsr() {
                let p = genbench_profile($profile).expect("profile registered");
                assert_store_equivalent(&small(&p), TpgKind::Lfsr, $profile);
            }
        }
    )+};
}

// one module per profile so the harness runs them in parallel
store_equivalence_tests! {
    store_c499 => "c499",
    store_c880 => "c880",
    store_c1355 => "c1355",
    store_c1908 => "c1908",
    store_c7552 => "c7552",
    store_s420 => "s420",
    store_s641 => "s641",
    store_s820 => "s820",
    store_s838 => "s838",
    store_s953 => "s953",
    store_s1238 => "s1238",
    store_s1423 => "s1423",
    store_s5378 => "s5378",
    store_s9234 => "s9234",
    store_s13207 => "s13207",
    store_s15850 => "s15850",
    store_tiny64 => "tiny64",
    store_mid256 => "mid256",
    store_big3500 => "big3500",
    store_xl7000 => "xl7000",
}

#[test]
fn store_macro_covers_every_profile() {
    // fail loudly if a profile is ever added without a store test
    assert_eq!(all_profiles().len(), 20, "update store_equivalence_tests!");
}

/// Single-τ `run` and the sweep share the same cover keys: a sweep-warmed
/// store answers `run` without computing, and vice versa.
#[test]
fn run_and_sweep_share_cover_artifacts() {
    let n = small(&genbench_profile("tiny64").unwrap());
    let (store, dir) = fresh_store("run-sweep-cross");

    let sweep_flow = ReseedingFlow::with_store(&n, store.clone()).unwrap();
    let curve = tradeoff_sweep_with(&sweep_flow, &FlowConfig::new(TpgKind::Adder), &[0, 7]);

    let run_flow = ReseedingFlow::with_store(&n, store.clone()).unwrap();
    let report = run_flow.run(&FlowConfig::new(TpgKind::Adder).with_tau(7));
    assert_eq!(report, curve[1].report, "run must hit the sweep's cover");
    assert_eq!(run_flow.builder().matrix_sim_passes(), 0);
    assert!(run_flow.stages().stats().fully_warm());

    // and the other direction: a run at a new τ seeds the sweep
    let report15 = run_flow.run(&FlowConfig::new(TpgKind::Adder).with_tau(15));
    let warm_sweep = ReseedingFlow::with_store(&n, store).unwrap();
    let curve2 = tradeoff_sweep_with(&warm_sweep, &FlowConfig::new(TpgKind::Adder), &[15]);
    assert_eq!(curve2[0].report, report15);
    assert!(warm_sweep.stages().stats().fully_warm());

    let _ = std::fs::remove_dir_all(dir);
}

/// The saturating first-detection artifact: after a sweep up to τ = 15, a
/// sweep needing only smaller τ values reuses the stored matrix — no new
/// simulation pass — while a τ beyond it recomputes and overwrites.
#[test]
fn first_detection_artifact_saturates_monotonically() {
    let n = small(&genbench_profile("tiny64").unwrap());
    let (store, dir) = fresh_store("fd-saturation");
    let cfg = FlowConfig::new(TpgKind::Adder);

    let flow = ReseedingFlow::with_store(&n, store.clone()).unwrap();
    let _ = tradeoff_sweep_with(&flow, &cfg, &[0, 15]);
    assert_eq!(flow.builder().matrix_sim_passes(), 1);

    // smaller τ values: cover-cold (new keys) but matrix-warm
    let smaller = ReseedingFlow::with_store(&n, store.clone()).unwrap();
    let reference = tradeoff_sweep(&n, &cfg, &[3, 7]).unwrap();
    let got = tradeoff_sweep_with(&smaller, &cfg, &[3, 7]);
    assert_eq!(got, reference);
    assert_eq!(
        smaller.builder().matrix_sim_passes(),
        0,
        "τ ≤ stored τ_max must threshold the stored matrix, not re-simulate"
    );
    let stats = smaller.stages().stats();
    assert_eq!(stats.first_detection_hits, 1, "{stats:?}");
    assert_eq!(stats.atpg_hits, 1, "{stats:?}");

    // a larger τ forces one new pass (and only one)
    let larger = ReseedingFlow::with_store(&n, store).unwrap();
    let reference = tradeoff_sweep(&n, &cfg, &[31]).unwrap();
    let got = tradeoff_sweep_with(&larger, &cfg, &[31]);
    assert_eq!(got, reference);
    assert_eq!(larger.builder().matrix_sim_passes(), 1);

    let _ = std::fs::remove_dir_all(dir);
}

/// A corrupt artifact degrades to recomputation — same answer, a warning
/// on stderr, never an error or a wrong result.
#[test]
fn corrupt_cover_artifact_recomputes_identically() {
    let n = small(&genbench_profile("tiny64").unwrap());
    let (store, dir) = fresh_store("corrupt-degrade");
    let cfg = FlowConfig::new(TpgKind::Adder).with_tau(7);

    let flow = ReseedingFlow::with_store(&n, store.clone()).unwrap();
    let reference = flow.run(&cfg);

    // truncate the stored cover artifact in place
    let key = set_covering_reseeding::reseed::cover_stage_key(&n, &cfg);
    let path = key.path_under(store.root());
    let bytes = std::fs::read(&path).expect("cover artifact exists");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let recompute = ReseedingFlow::with_store(&n, store).unwrap();
    let got = recompute.run(&cfg);
    assert_eq!(got, reference, "recomputed report must be identical");
    assert_eq!(
        recompute.stages().stats().cover_misses,
        1,
        "corrupt artifact must count as a miss"
    );

    let _ = std::fs::remove_dir_all(dir);
}
