//! The cold workloads: `reseed-cold` (`ReseedingFlow::run` at τ=31, no
//! store, jobs=1) and `sweep-cold` (`tradeoff_sweep_with` over the default
//! eight τ values with a fresh empty store per pass, jobs = all cores).
//!
//! The workload seed picks the flow's TPG seed (the triplets' random δ);
//! the ATPG seed stays the default, so every seed runs the same ATPG.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use fbist_genbench::{generate, profile};
use fbist_netlist::{full_scan, Netlist};
use fbist_setcover::{reduce_with, solve_with};
use fbist_store::{ArtifactStore, StageKey};
use fbist_tpg::Triplet;
use reseed_core::{
    atpg_stage_key, cover_stage_key, first_detection_stage_key, tradeoff_sweep_with,
    verify_against, AtpgBase, CachedFirstDetection, FlowConfig, InitialReseeding, ReseedingFlow,
    ReseedingReport, SweepPoint, TpgKind,
};

use crate::trace::Tracer;
use crate::util::{
    all_cores, cpu_seconds, median, peak_rss_mb, percentile, tree_digest, Rng, ScratchDir,
};
use crate::{Args, Outcome};

/// The `fbist sweep` default τ list.
pub const SWEEP_TAUS: [usize; 8] = [0, 3, 7, 15, 31, 63, 127, 255];

#[derive(Clone, Copy)]
pub struct Spec {
    circuits: &'static [&'static str],
    sweep: bool,
    /// `None` = all cores.
    jobs: Option<usize>,
}

pub const RESEED_COLD: Spec = Spec {
    circuits: &["mid256", "c1908"],
    sweep: false,
    jobs: Some(1),
};

pub const SWEEP_COLD: Spec = Spec {
    circuits: &["mid256", "s953"],
    sweep: true,
    jobs: None,
};

/// A built-in profile as `fbist` loads it: generated at scale 1 with
/// generator seed 1, full-scanned if sequential.
pub fn load(name: &str) -> Netlist {
    let p = profile(name).unwrap_or_else(|| panic!("no built-in profile {name}"));
    let n = generate(&p.scaled(1.0), 1);
    if n.is_combinational() {
        n
    } else {
        full_scan(&n).into_combinational()
    }
}

/// One front-door call's result: a report or a whole curve.
enum Output {
    Report(ReseedingReport),
    Curve(Vec<SweepPoint>),
}

impl Output {
    fn reports(&self) -> Vec<&ReseedingReport> {
        match self {
            Output::Report(r) => vec![r],
            Output::Curve(c) => c.iter().map(|p| &p.report).collect(),
        }
    }

    fn digest(&self) -> String {
        match self {
            Output::Report(r) => format!("{r:?}"),
            Output::Curve(c) => format!("{c:?}"),
        }
    }
}

fn flow_for(netlist: &Netlist, store: Option<&ScratchDir>) -> ReseedingFlow {
    match store {
        Some(dir) => {
            let s = ArtifactStore::open(dir.path()).expect("opening a fresh store");
            ReseedingFlow::with_store(netlist, s)
        }
        None => ReseedingFlow::new(netlist),
    }
    .expect("built-in profiles are valid combinational netlists")
}

/// Calls the front door once: `run` or `tradeoff_sweep_with`.
fn call(spec: Spec, flow: &ReseedingFlow, cfg: &FlowConfig) -> Output {
    if spec.sweep {
        Output::Curve(tradeoff_sweep_with(flow, cfg, &SWEEP_TAUS))
    } else {
        Output::Report(flow.run(cfg))
    }
}

pub fn run(args: &Args, spec: Spec) -> Outcome {
    let jobs = spec.jobs.unwrap_or_else(all_cores);
    mini_rayon::set_jobs(jobs);
    let mut cfg = FlowConfig::new(TpgKind::Adder).with_tau(31).with_jobs(jobs);
    cfg.seed = Rng::new(args.seed).next_u64();
    let mut out = Outcome::default();

    // ---- measured loop: whole passes until the time is up. Each pass
    // starts with a timed set-up (netlist generation + flow construction,
    // on a fresh empty store for the sweep), so set-up samples spread
    // over the whole run like the passes do.
    let mut setup_s = Vec::new();
    let mut pass_s = Vec::new();
    let mut busy_cpu = 0.0;
    let mut netlists = Vec::new();
    let mut first: Vec<Output> = Vec::new();
    let mut first_stores: Vec<(ScratchDir, u64)> = Vec::new();
    let mut same_as_first: Vec<bool> = Vec::new();
    let loop_start = Instant::now();
    while pass_s.is_empty() || loop_start.elapsed().as_secs_f64() < args.seconds {
        let mut stores: Vec<Option<ScratchDir>> = spec
            .circuits
            .iter()
            .map(|_| {
                spec.sweep
                    .then(|| ScratchDir::new(&args.scratch, "pass-store"))
            })
            .collect();
        let t = Instant::now();
        netlists = spec.circuits.iter().map(|c| load(c)).collect();
        let flows: Vec<ReseedingFlow> = netlists
            .iter()
            .zip(&stores)
            .map(|(n, s)| flow_for(n, s.as_ref()))
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());

        let mut wall = 0.0;
        for (i, flow) in flows.iter().enumerate() {
            let cpu0 = cpu_seconds("self");
            let t = Instant::now();
            let output = call(spec, flow, &cfg);
            wall += t.elapsed().as_secs_f64();
            busy_cpu += cpu_seconds("self") - cpu0;
            let store_digest = stores[i].as_ref().map_or(0, |s| tree_digest(s.path()));
            if first.len() < flows.len() {
                first.push(output);
                if let Some(s) = stores[i].take() {
                    first_stores.push((s, store_digest));
                }
            } else {
                let same = output.digest() == first[i].digest()
                    && first_stores.get(i).is_none_or(|(_, d)| *d == store_digest);
                same_as_first.push(same);
            }
        }
        pass_s.push(wall);
    }
    let rss = peak_rss_mb("self");

    // ---- correctness (untimed): verify every distinct report, then count
    // each call as failed if its output differs from the first pass's
    let verify_cfg = cfg.clone().with_jobs(all_cores());
    let mut verified = Vec::new();
    for (i, netlist) in netlists.iter().enumerate() {
        let base = match first_stores.get(i) {
            // the pass's own atpg artifact holds the target list
            Some((dir, _)) => ArtifactStore::open(dir.path())
                .ok()
                .and_then(|s| s.get::<AtpgBase>(atpg_stage_key(netlist, &cfg)))
                .expect("a cold sweep writes its atpg artifact"),
            None => flow_for(netlist, None).builder().atpg_base(&verify_cfg),
        };
        let ok = first[i].reports().iter().all(|r| {
            r.covers_all_target_faults()
                && verify_against(netlist, r, cfg.tpg, &base.target_faults)
                    .is_ok_and(|v| v.passed())
        });
        verified.push(ok);
        out.tally.op(
            ok,
            &format!("{}: first-pass report verification", spec.circuits[i]),
        );
    }
    for (k, same) in same_as_first.iter().enumerate() {
        let i = k % netlists.len();
        out.tally.op(
            *same && verified[i],
            &format!(
                "{}: pass {} output or store differs from pass 1",
                spec.circuits[i],
                k / netlists.len() + 2
            ),
        );
    }

    let reports: Vec<&ReseedingReport> = first.iter().flat_map(Output::reports).collect();
    let (covered, universe) = first.iter().fold((0, 0), |(c, u), o| {
        let r = o.reports()[0];
        (c + r.target_faults, u + r.fault_universe)
    });
    // a cold request is a whole pass: every circuit reseeded (or swept)
    // once, the unit of work a user of the cold flow asks for
    let busy_wall: f64 = pass_s.iter().sum();
    out.e2e.insert("setup_s", median(&setup_s));
    out.e2e.insert("pass_s_p50", median(&pass_s));
    out.e2e.insert("request_ms_p50", 1e3 * median(&pass_s));
    out.e2e
        .insert("request_ms_p95", 1e3 * percentile(&pass_s, 0.95));
    out.e2e
        .insert("requests_per_s", pass_s.len() as f64 / busy_wall);
    out.e2e.insert("peak_rss_mb", rss);
    out.e2e
        .insert("fault_coverage", covered as f64 / universe as f64);
    out.e2e.insert(
        "rom_bits",
        reports.iter().map(|r| r.rom_bits() as f64).sum(),
    );
    out.samples = vec![
        ("setup_s", setup_s.len()),
        ("passes (= requests)", pass_s.len()),
    ];

    if args.trace {
        let other = if jobs == 1 { all_cores() } else { 1 };
        let mut traced = Vec::new();
        for j in [jobs, other] {
            mini_rayon::set_jobs(j);
            let t = traced_pass(args, spec, &cfg.clone().with_jobs(j));
            let digests_match = t
                .outputs
                .iter()
                .zip(&first)
                .all(|(a, b)| a.digest() == b.digest())
                && t.store_digests
                    .iter()
                    .zip(&first_stores)
                    .all(|(a, (_, b))| a == b);
            out.tally.op(
                digests_match,
                &format!("traced decomposed pass at jobs={j} differs from the front-door call"),
            );
            traced.push(t);
        }
        mini_rayon::set_jobs(jobs);
        out.check_deterministic(
            &traced[0].counters,
            &traced[1].counters,
            "traced passes at jobs 1 vs all cores",
        );
        let main = traced.remove(0);
        out.layers = main.counters.clone();
        layer_times(&mut out.layers, &main.tracer);
        out.layers
            .insert("pool.cpu_over_wall", busy_cpu / busy_wall);
        let traced_wall = main.tracer.total("pass", "pass");
        out.layers.insert("trace.pass_s", traced_wall);
        out.layers
            .insert("trace.overhead_s", traced_wall - median(&pass_s));
        out.check_attributed(&main.tracer);
        out.traces.push(main.tracer);
        out.traces.push(traced.remove(0).tracer);
    }
    out
}

/// Per-layer times from a traced pass (`setup`, `pass` and `probe` roots).
pub fn layer_times(layers: &mut BTreeMap<&'static str, f64>, tr: &Tracer) {
    for (metric, root, span) in [
        ("atpg.run_s", "pass", "atpg.run"),
        ("core.matrix_s", "pass", "core.matrix"),
        ("setcover.threshold_s", "pass", "setcover.threshold"),
        ("core.finish_s", "pass", "core.finish"),
        ("store.get_s", "pass", "store.get"),
        ("store.put_s", "pass", "store.put"),
        ("setcover.reduce_s", "probe", "setcover.reduce"),
        ("setcover.solve_s", "probe", "setcover.solve"),
        ("tpg.expand_s", "probe", "tpg.expand"),
    ] {
        layers.insert(metric, tr.total(root, span));
    }
    // cold passes build their flows during set-up; every serve request
    // builds its own inside the pass
    for (metric, span) in [
        ("genbench.generate_s", "genbench.generate"),
        ("core.flow_new_s", "core.flow_new"),
    ] {
        layers.insert(metric, tr.total("setup", span) + tr.total("pass", span));
    }
    let trim = layers["core.finish_s"] - layers["setcover.reduce_s"] - layers["setcover.solve_s"];
    layers.insert("core.trim_s", trim);
    layers.insert(
        "trace.unattributed_s",
        tr.self_by_name("pass").get("pass").copied().unwrap_or(0.0),
    );
}

/// What one traced pass produced.
struct Traced {
    tracer: Tracer,
    outputs: Vec<Output>,
    store_digests: Vec<u64>,
    counters: BTreeMap<&'static str, f64>,
}

/// Counters shared by the cold and warm traced passes. Artifact sizes
/// are read after the pass, so the file-system lookups stay outside it.
#[derive(Default)]
pub struct Counters {
    pub store_hits: u64,
    pub store_misses: u64,
    /// Artifacts read (hits) and written, for the byte counts.
    pub read: Vec<PathBuf>,
    pub written: Vec<PathBuf>,
    pub matrix_ones: usize,
}

/// Adds a finished report's counters.
pub fn add_report(c: &mut BTreeMap<&'static str, f64>, r: &ReseedingReport) {
    *c.entry("setcover.reduction_iterations").or_default() += r.reduction_iterations as f64;
    *c.entry("setcover.dominated_rows").or_default() += r.dominated_rows as f64;
    *c.entry("setcover.solver_nodes").or_default() += r.solver_nodes as f64;
    *c.entry("core.trim_patterns_resimulated").or_default() +=
        (r.selected.len() * (r.tau + 1)) as f64;
}

/// Adds a flow's simulator counters (`matrix_sim_passes`, lane occupancy).
pub fn add_flow(c: &mut BTreeMap<&'static str, f64>, flow: &ReseedingFlow) {
    let occ = flow
        .builder()
        .fault_simulator()
        .good_simulator()
        .occupancy();
    *c.entry("core.matrix_sim_passes").or_default() += flow.builder().matrix_sim_passes() as f64;
    *c.entry("fault.sim_blocks").or_default() += occ.blocks as f64;
    *c.entry("fault.sim_lanes").or_default() += occ.lanes as f64;
    *c.entry("fault.sim_capacity").or_default() += occ.capacity as f64;
}

/// Folds the shared counters and derived ratios into the counter map.
pub fn finish_counters(c: &mut BTreeMap<&'static str, f64>, k: &Counters) {
    c.insert("store.hits", k.store_hits as f64);
    c.insert("store.misses", k.store_misses as f64);
    let bytes = |paths: &[PathBuf]| -> f64 {
        paths
            .iter()
            .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()) as f64)
            .sum()
    };
    c.insert("store.bytes_read", bytes(&k.read));
    c.insert("store.bytes_written", bytes(&k.written));
    c.insert("setcover.matrix_ones", k.matrix_ones as f64);
    let capacity = c.remove("fault.sim_capacity").unwrap_or(0.0);
    let lanes = c.get("fault.sim_lanes").copied().unwrap_or(0.0);
    c.insert(
        "fault.occupancy",
        if capacity > 0.0 {
            lanes / capacity
        } else {
            0.0
        },
    );
}

/// The work of one pass, decomposed into the calls the front door makes,
/// each inside a span: `run` = ATPG → matrix → finish; the store-backed
/// sweep = cover lookups → atpg stage → first-detection stage →
/// threshold/finish/cover write per τ. The reduce/solve split of
/// `finish` and the TPG expansion are timed again, alone, under the
/// `probe` root (trim = finish − reduce − solve).
fn traced_pass(args: &Args, spec: Spec, cfg: &FlowConfig) -> Traced {
    let mut tr = Tracer::new(format!("{} traced pass, jobs={}", args.workload, cfg.jobs));
    let mut c: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut k = Counters::default();

    let stores: Vec<Option<ScratchDir>> = spec
        .circuits
        .iter()
        .map(|_| {
            spec.sweep
                .then(|| ScratchDir::new(&args.scratch, "traced-store"))
        })
        .collect();
    let setup = tr.enter("setup");
    let mut flows = Vec::new();
    for (name, store) in spec.circuits.iter().zip(&stores) {
        let netlist = tr.time("genbench.generate", || load(name));
        flows.push(tr.time("core.flow_new", || flow_for(&netlist, store.as_ref())));
    }
    tr.exit(setup);

    let mut outputs = Vec::new();
    let mut finished: Vec<(FlowConfig, InitialReseeding)> = Vec::new();
    let mut expanded = Vec::new();
    let pass = tr.enter("pass");
    for flow in &flows {
        let builder = flow.builder();
        let netlist = builder.netlist();
        let tpg = cfg.tpg.build(netlist.inputs().len());
        let Some(store) = flow.stages().store() else {
            // `run` without a store: builder.build + finish
            let base = tr.time("atpg.run", || builder.atpg_base(cfg));
            let (triplets, matrix) = tr.time("core.matrix", || {
                builder.matrix_for(
                    &*tpg,
                    &base.atpg.patterns,
                    &base.target_faults,
                    cfg.tau,
                    cfg.seed,
                    cfg.jobs,
                    cfg.matrix_build,
                    cfg.simd_width,
                )
            });
            expanded.push((netlist.inputs().len(), triplets.clone()));
            let initial = InitialReseeding {
                triplets,
                matrix,
                target_faults: base.target_faults,
                universe_size: base.universe_size,
                atpg: base.atpg,
            };
            let report = tr.time("core.finish", || flow.finish(cfg, &initial));
            add_atpg(&mut c, &initial.atpg);
            finished.push((cfg.clone(), initial));
            outputs.push(Output::Report(report));
            continue;
        };
        // the store-backed sweep on a fresh store: every lookup misses
        for &tau in &SWEEP_TAUS {
            let key = cover_stage_key(netlist, &cfg.clone().with_tau(tau));
            let hit = tr.time("store.get", || store.get::<ReseedingReport>(key));
            count_get(&mut k, store, key, hit.is_some());
        }
        let akey = atpg_stage_key(netlist, cfg);
        let hit = tr.time("store.get", || store.get::<AtpgBase>(akey));
        count_get(&mut k, store, akey, hit.is_some());
        let base = tr.time("atpg.run", || builder.atpg_base(cfg));
        tr.time("store.put", || store.put(akey, &base));
        k.written.push(akey.path_under(store.root()));
        add_atpg(&mut c, &base.atpg);

        let tau_max = SWEEP_TAUS[SWEEP_TAUS.len() - 1];
        let fkey = first_detection_stage_key(netlist, cfg);
        let hit = tr.time("store.get", || store.get::<CachedFirstDetection>(fkey));
        count_get(&mut k, store, fkey, hit.is_some());
        let (triplets, fdm) = tr.time("core.matrix", || {
            builder.first_detection_matrix_for(
                &*tpg,
                &base.atpg.patterns,
                &base.target_faults,
                tau_max,
                cfg.seed,
                cfg.jobs,
                cfg.matrix_build,
                cfg.simd_width,
            )
        });
        tr.time("store.put", || {
            store.put(
                fkey,
                &CachedFirstDetection {
                    tau_max,
                    matrix: fdm.clone(),
                },
            );
        });
        k.written.push(fkey.path_under(store.root()));

        let mut curve = Vec::new();
        for &tau in &SWEEP_TAUS {
            let matrix = tr.time("setcover.threshold", || fdm.at_tau(tau));
            let initial = InitialReseeding {
                triplets: triplets.iter().map(|t| t.with_tau(tau)).collect(),
                matrix,
                target_faults: base.target_faults.clone(),
                universe_size: base.universe_size,
                atpg: base.atpg.clone(),
            };
            let cfg_tau = cfg.clone().with_tau(tau);
            let report = tr.time("core.finish", || flow.finish(&cfg_tau, &initial));
            let ckey = cover_stage_key(netlist, &cfg_tau);
            tr.time("store.put", || store.put(ckey, &report));
            k.written.push(ckey.path_under(store.root()));
            finished.push((cfg_tau, initial));
            curve.push(SweepPoint {
                tau,
                triplets: report.triplet_count(),
                test_length: report.test_length(),
                rom_bits: report.rom_bits(),
                report,
            });
        }
        expanded.push((netlist.inputs().len(), triplets));
        outputs.push(Output::Curve(curve));
    }
    tr.exit(pass);

    let patterns = probe(&mut tr, &finished, &expanded, cfg, &mut k);
    c.insert("tpg.patterns_expanded", patterns as f64);
    for flow in &flows {
        add_flow(&mut c, flow);
    }
    for o in &outputs {
        for r in o.reports() {
            add_report(&mut c, r);
            *c.entry("rom_bits").or_default() += r.rom_bits() as f64;
        }
    }
    let (covered, universe) = outputs.iter().fold((0, 0), |(a, b), o| {
        let r = o.reports()[0];
        (a + r.target_faults, b + r.fault_universe)
    });
    c.insert("fault_coverage", covered as f64 / universe as f64);
    finish_counters(&mut c, &k);
    let store_digests = stores
        .iter()
        .flatten()
        .map(|s| tree_digest(s.path()))
        .collect();
    Traced {
        tracer: tr,
        outputs,
        store_digests,
        counters: c,
    }
}

/// Counts a store lookup and, on a hit, the artifact it read.
fn count_get(k: &mut Counters, store: &ArtifactStore, key: StageKey, hit: bool) {
    if hit {
        k.store_hits += 1;
        k.read.push(key.path_under(store.root()));
    } else {
        k.store_misses += 1;
    }
}

/// Adds one ATPG run's counters.
fn add_atpg(c: &mut BTreeMap<&'static str, f64>, atpg: &fbist_atpg::AtpgResult) {
    *c.entry("atpg.patterns").or_default() += atpg.patterns.len() as f64;
    *c.entry("atpg.podem_tests").or_default() += atpg.podem_tests as f64;
    *c.entry("atpg.untestable").or_default() += atpg.untestable.len() as f64;
    *c.entry("atpg.aborted").or_default() += atpg.aborted.len() as f64;
    // every PODEM search ends in a test, an untestability proof or an abort
    let targets = c["atpg.podem_tests"] + c["atpg.untestable"] + c["atpg.aborted"];
    let yield_ = if targets > 0.0 {
        c["atpg.podem_tests"] / targets
    } else {
        0.0
    };
    c.insert("atpg.podem_yield", yield_);
}

/// The `probe` root: the set-cover split of every `finish` call (reduce,
/// then solve on that reduction) and the TPG expansion of the triplets
/// the matrix build simulated (with their TPG register width), each
/// timed alone.
pub fn probe(
    tr: &mut Tracer,
    finished: &[(FlowConfig, InitialReseeding)],
    expanded: &[(usize, Vec<Triplet>)],
    cfg: &FlowConfig,
    k: &mut Counters,
) -> usize {
    let root = tr.enter("probe");
    for (cfg_tau, initial) in finished {
        let m = &initial.matrix;
        let reduction = tr.time("setcover.reduce", || {
            reduce_with(m, &cfg_tau.solve.reducer, cfg_tau.solve.backend)
        });
        black_box(tr.time("setcover.solve", || {
            solve_with(m, &cfg_tau.solve, &reduction)
        }));
        k.matrix_ones += m.row_major().count_ones();
    }
    let mut patterns = 0usize;
    for (width, triplets) in expanded {
        let tpg = cfg.tpg.build(*width);
        patterns += tr.time("tpg.expand", || {
            triplets
                .iter()
                .map(|t| black_box(tpg.expand(t)).len())
                .sum::<usize>()
        });
    }
    tr.exit(root);
    patterns
}
