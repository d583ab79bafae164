//! The `serve-warm` workload: `fbist serve --store <pre-warmed> --jobs 1`
//! driven as a closed loop — one client, one request outstanding.
//!
//! Set-up warms a fresh store with the default eight-point sweep of every
//! circuit (so it holds their `atpg`, `first-detection` at τ_max = 255
//! and eight `cover` artifacts) and starts the server. The seeded request
//! stream comes in rounds of 30: per circuit one `sweep` and eight
//! `reseed --tau T` at the warmed τ values (cover hits), plus one
//! `reseed` at a τ no request has used yet (a cover miss that hits the
//! first-detection artifact, so only the cover path runs and writes).
//! Once every such τ is used, the loop pauses its clock, restarts the
//! server on a fresh copy of the warm store and continues.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fbist_netlist::Netlist;
use fbist_store::{ArtifactStore, StageKey};
use reseed_core::{
    atpg_stage_key, cover_stage_key, first_detection_stage_key, tradeoff_sweep_with,
    verify_against, AtpgBase, FlowConfig, InitialReseeding, ReseedingFlow, ReseedingReport,
    SweepPoint, TpgKind,
};

use crate::cold::{
    add_flow, add_report, finish_counters, layer_times, load, probe, Counters, SWEEP_TAUS,
};
use crate::trace::Tracer;
use crate::util::{all_cores, cpu_seconds, median, peak_rss_mb, percentile, Rng, ScratchDir};
use crate::{Args, Outcome};

const CIRCUITS: [&str; 3] = ["mid256", "s953", "c1908"];

/// Set-ups timed per run (warm store + start server); `setup_s` is
/// their median.
const SETUPS: usize = 3;

/// `rom_bits` sums the answers of this many leading rounds, and the
/// traced run replays this many rounds in-process.
const LEADING_ROUNDS: usize = 4;

/// How long to wait for any single answer from the server.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy)]
enum Req {
    Sweep {
        circuit: usize,
    },
    Reseed {
        circuit: usize,
        tau: usize,
        warm: bool,
    },
}

impl Req {
    fn circuit(self) -> usize {
        match self {
            Req::Sweep { circuit } | Req::Reseed { circuit, .. } => circuit,
        }
    }

    fn line(self) -> String {
        match self {
            Req::Sweep { circuit } => format!("sweep {}", CIRCUITS[circuit]),
            Req::Reseed { circuit, tau, .. } => format!("reseed {} --tau {tau}", CIRCUITS[circuit]),
        }
    }

    /// Cover artifacts the request should read (hits) and write (misses).
    fn expected_covers(self) -> (u64, u64) {
        match self {
            Req::Sweep { .. } => (SWEEP_TAUS.len() as u64, 0),
            Req::Reseed { warm: true, .. } => (1, 0),
            Req::Reseed { warm: false, .. } => (0, 1),
        }
    }
}

/// The seeded request stream, one round at a time.
struct Stream {
    rng: Rng,
    /// Per circuit, the not-yet-used τ values ≤ 255 outside the warmed
    /// list, in seeded order.
    fresh: Vec<Vec<usize>>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let mut stream = Stream {
            rng: Rng::new(seed),
            fresh: Vec::new(),
        };
        stream.refill();
        stream
    }

    /// Makes every unwarmed τ fresh again, in a new seeded order (for a
    /// server whose store holds none of them).
    fn refill(&mut self) {
        self.fresh = CIRCUITS
            .iter()
            .map(|_| {
                let mut taus: Vec<usize> = (1..*SWEEP_TAUS.last().expect("non-empty"))
                    .filter(|t| !SWEEP_TAUS.contains(t))
                    .collect();
                self.rng.shuffle(&mut taus);
                taus
            })
            .collect();
    }

    /// The next round, or `None` once some circuit has no fresh τ left.
    fn next_round(&mut self) -> Option<Vec<Req>> {
        let mut round = Vec::new();
        for circuit in 0..CIRCUITS.len() {
            round.push(Req::Sweep { circuit });
            for &tau in &SWEEP_TAUS {
                round.push(Req::Reseed {
                    circuit,
                    tau,
                    warm: true,
                });
            }
            let tau = self.fresh[circuit].pop()?;
            round.push(Req::Reseed {
                circuit,
                tau,
                warm: false,
            });
        }
        self.rng.shuffle(&mut round);
        Some(round)
    }
}

/// A running `fbist serve` process.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    stderr: Receiver<String>,
    stderr_reader: Option<JoinHandle<()>>,
    next_id: usize,
}

/// One answered request.
struct Answer {
    /// The id the server gave the request (counting from 0 per server).
    id: usize,
    latency_s: f64,
    line: String,
    stats: Option<String>,
}

impl Server {
    fn start(args: &Args, store: &ScratchDir) -> Server {
        let mut child = Command::new(&args.fbist)
            .arg("serve")
            .arg("--store")
            .arg(store.path())
            .args(["--jobs", "1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("starting {}: {e}", args.fbist.display()));
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        let stderr_reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let server = Server {
            stdin: child.stdin.take(),
            stdout: BufReader::new(child.stdout.take().expect("piped stdout")),
            child,
            stderr: rx,
            stderr_reader: Some(stderr_reader),
            next_id: 0,
        };
        let banner = server
            .stderr
            .recv_timeout(ANSWER_TIMEOUT)
            .expect("fbist serve prints its store banner on start");
        assert!(
            banner.starts_with("fbist serve: store"),
            "unexpected banner {banner:?}"
        );
        server
    }

    /// Sends one request followed by a blank line (which evaluates it)
    /// and waits for its answer and, for `ok` answers, its stats line.
    fn request(&mut self, line: &str) -> Answer {
        let id = self.next_id;
        self.next_id += 1;
        let stdin = self.stdin.as_mut().expect("server is running");
        let t = Instant::now();
        stdin
            .write_all(format!("{line}\n\n").as_bytes())
            .and_then(|()| stdin.flush())
            .expect("writing a request to fbist serve");
        let mut answer = String::new();
        self.stdout
            .read_line(&mut answer)
            .expect("reading an answer from fbist serve");
        let latency_s = t.elapsed().as_secs_f64();
        let answer = answer.trim_end().to_owned();
        let mut stats = None;
        if answer.starts_with("ok ") {
            let prefix = format!("stats {id} ");
            while let Ok(l) = self.stderr.recv_timeout(ANSWER_TIMEOUT) {
                if let Some(s) = l.strip_prefix(&prefix) {
                    stats = Some(s.to_owned());
                    break;
                }
                eprintln!("perfbench: fbist serve: {l}");
            }
        }
        Answer {
            id,
            latency_s,
            line: answer,
            stats,
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the server to quit and waits for it, killing it if it hangs.
    fn stop(&mut self) {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"quit\n");
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr_reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A `stats` field as a number (0 when absent).
fn stat(stats: &str, key: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn reseed_summary(r: &ReseedingReport) -> String {
    format!(
        "reseed {} tpg={} tau={} triplets={} test_length={} rom_bits={}",
        r.circuit,
        r.tpg,
        r.tau,
        r.triplet_count(),
        r.test_length(),
        r.rom_bits()
    )
}

fn sweep_summary(netlist: &Netlist, curve: &[SweepPoint]) -> String {
    let points: Vec<String> = curve
        .iter()
        .map(|p| format!("{}:{}:{}:{}", p.tau, p.triplets, p.test_length, p.rom_bits))
        .collect();
    format!("sweep {} tpg=add {}", netlist.name(), points.join(" "))
}

/// ROM bits of every report in an answer line.
fn answer_rom_bits(line: &str) -> u64 {
    if let Some(v) = line
        .split_whitespace()
        .find_map(|t| t.strip_prefix("rom_bits="))
    {
        return v.parse().unwrap_or(0);
    }
    line.split_whitespace()
        .filter(|t| t.matches(':').count() == 3)
        .filter_map(|t| t.rsplit(':').next()?.parse::<u64>().ok())
        .sum()
}

/// The warmed state set-up leaves behind.
struct Warm {
    // declared first so dropping a `Warm` stops the server before its
    // store directory is removed
    server: Server,
    store: ScratchDir,
    netlists: Vec<Netlist>,
    curves: Vec<Vec<SweepPoint>>,
}

/// Set-up: generate the circuits, build their flows on a fresh store,
/// warm it with the default sweep, start the server on it.
fn set_up(args: &Args, cfg: &FlowConfig) -> (f64, Warm) {
    let store = ScratchDir::new(&args.scratch, "serve-store");
    let t = Instant::now();
    let netlists: Vec<Netlist> = CIRCUITS.iter().map(|c| load(c)).collect();
    let curves = netlists
        .iter()
        .map(|n| {
            let s = ArtifactStore::open(store.path()).expect("opening a fresh store");
            let flow = ReseedingFlow::with_store(n, s).expect("valid netlist");
            tradeoff_sweep_with(&flow, cfg, &SWEEP_TAUS)
        })
        .collect();
    let server = Server::start(args, &store);
    let elapsed = t.elapsed().as_secs_f64();
    (
        elapsed,
        Warm {
            store,
            netlists,
            curves,
            server,
        },
    )
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cores = all_cores();
    mini_rayon::set_jobs(cores);
    // the server's configuration: `fbist serve` defaults (seed, τ = 31)
    let cfg = FlowConfig::new(TpgKind::Adder);

    let mut setup_times = Vec::new();
    let mut warm = None;
    for _ in 0..SETUPS {
        let (t, w) = set_up(args, &cfg.clone().with_jobs(cores));
        setup_times.push(t);
        // replacing an earlier set-up drops (stops) its server
        warm = Some(w);
    }
    let Warm {
        mut store,
        netlists,
        curves,
        mut server,
    } = warm.expect("at least one set-up");
    // the server has answered nothing yet, so this copy is the pristine
    // warm store every in-process check starts from
    let pristine = store.copy(&args.scratch, "pristine-store");

    // ---- measured loop: whole rounds until the time is up
    let mut stream = Stream::new(args.seed);
    let mut reqs: Vec<(usize, Req, Answer)> = Vec::new();
    let mut round_s = Vec::new();
    let (mut cpu, mut rss, mut paused) = (0.0, 0.0f64, 0.0);
    let mut cpu0 = cpu_seconds(&server.pid());
    let loop_start = Instant::now();
    while round_s.is_empty() || loop_start.elapsed().as_secs_f64() - paused < args.seconds {
        let Some(round) = stream.next_round() else {
            // every unwarmed τ has been served once: continue on a new
            // server over a fresh copy of the warm store, off the clock
            let t = Instant::now();
            cpu += cpu_seconds(&server.pid()) - cpu0;
            rss = rss.max(peak_rss_mb(&server.pid()));
            server.stop();
            store = pristine.copy(&args.scratch, "serve-store");
            server = Server::start(args, &store);
            cpu0 = cpu_seconds(&server.pid());
            stream.refill();
            paused += t.elapsed().as_secs_f64();
            continue;
        };
        let t = Instant::now();
        for req in round {
            let answer = server.request(&req.line());
            reqs.push((round_s.len(), req, answer));
        }
        round_s.push(t.elapsed().as_secs_f64());
    }
    let loop_wall = loop_start.elapsed().as_secs_f64() - paused;
    cpu += cpu_seconds(&server.pid()) - cpu0;
    let rss = rss.max(peak_rss_mb(&server.pid()));
    server.stop();
    drop(store);

    // ---- correctness (untimed): warmed reports verify; every answer
    // equals the in-process answer and its stats show the expected work
    let checks = Instant::now();
    let targets: Vec<AtpgBase> = netlists
        .iter()
        .map(|n| {
            ArtifactStore::open(pristine.path())
                .ok()
                .and_then(|s| s.get::<AtpgBase>(atpg_stage_key(n, &cfg)))
                .expect("the warmed store holds every atpg artifact")
        })
        .collect();
    let verify = |i: usize, r: &ReseedingReport| {
        r.covers_all_target_faults()
            && verify_against(&netlists[i], r, cfg.tpg, &targets[i].target_faults)
                .is_ok_and(|v| v.passed())
    };
    for (i, curve) in curves.iter().enumerate() {
        for p in curve {
            out.tally.op(
                verify(i, &p.report),
                &format!("{}: warm report τ={} verification", CIRCUITS[i], p.tau),
            );
        }
    }
    // every distinct miss, recomputed in-process on a copy of the warm
    // store (in parallel: this is off the clock) and verified
    let check_store = pristine.copy(&args.scratch, "check-store");
    let check_flows: Vec<ReseedingFlow> = netlists
        .iter()
        .map(|n| {
            let s = ArtifactStore::open(check_store.path()).expect("opening the check store");
            ReseedingFlow::with_store(n, s).expect("valid netlist")
        })
        .collect();
    let mut misses: Vec<(usize, usize)> = reqs
        .iter()
        .filter_map(|(_, req, _)| match *req {
            Req::Reseed {
                circuit,
                tau,
                warm: false,
            } => Some((circuit, tau)),
            _ => None,
        })
        .collect();
    misses.sort_unstable();
    misses.dedup();
    let miss_summaries = mini_rayon::par_map_indexed(cores, misses.len(), |k| {
        let (i, tau) = misses[k];
        let r = check_flows[i].run(&cfg.clone().with_tau(tau));
        if verify(i, &r) {
            reseed_summary(&r)
        } else {
            format!("(in-process report for τ={tau} does not verify)")
        }
    });
    for (_, req, answer) in &reqs {
        let i = req.circuit();
        let expected = match *req {
            Req::Sweep { .. } => sweep_summary(&netlists[i], &curves[i]),
            Req::Reseed {
                tau, warm: true, ..
            } => {
                let p = curves[i].iter().find(|p| p.tau == tau).expect("warmed τ");
                reseed_summary(&p.report)
            }
            Req::Reseed {
                tau, warm: false, ..
            } => {
                let k = misses
                    .binary_search(&(i, tau))
                    .expect("every miss was recomputed");
                miss_summaries[k].clone()
            }
        };
        let stats = answer.stats.as_deref().unwrap_or("");
        let (hits, misses) = req.expected_covers();
        let work_ok = stat(stats, "cover_hits") == hits
            && stat(stats, "cover_misses") == misses
            && stat(stats, "atpg_misses") == 0
            && stat(stats, "first_detection_misses") == 0
            && stat(stats, "matrix_sim_passes") == 0;
        out.tally.op(
            answer.line == format!("ok {} {expected}", answer.id)
                && answer.stats.is_some()
                && work_ok,
            &format!(
                "request `{}` answered {:?} (stats {stats:?})",
                req.line(),
                answer.line
            ),
        );
    }

    eprintln!(
        "perfbench: correctness checks took {:.1} s",
        checks.elapsed().as_secs_f64()
    );
    let latencies: Vec<f64> = reqs.iter().map(|(_, _, a)| a.latency_s).collect();
    let (covered, universe) = curves.iter().fold((0, 0), |(c, u), curve| {
        let r = &curve[0].report;
        (c + r.target_faults, u + r.fault_universe)
    });
    let leading = |(round, _, _): &&(usize, Req, Answer)| *round < LEADING_ROUNDS;
    out.e2e.insert("setup_s", median(&setup_times));
    out.e2e.insert("pass_s_p50", median(&round_s));
    out.e2e.insert("request_ms_p50", 1e3 * median(&latencies));
    out.e2e
        .insert("request_ms_p95", 1e3 * percentile(&latencies, 0.95));
    out.e2e
        .insert("requests_per_s", latencies.len() as f64 / loop_wall);
    out.e2e.insert("peak_rss_mb", rss);
    out.e2e
        .insert("fault_coverage", covered as f64 / universe as f64);
    out.e2e.insert(
        "rom_bits",
        reqs.iter()
            .filter(leading)
            .map(|(_, _, a)| answer_rom_bits(&a.line) as f64)
            .sum(),
    );
    out.samples = vec![
        ("setup_s", setup_times.len()),
        ("pass_s_p50 (rounds)", round_s.len()),
        ("request_ms_p50/p95", latencies.len()),
    ];

    if args.trace {
        let replayed: Vec<(Req, &Answer)> = reqs
            .iter()
            .filter(leading)
            .map(|(_, r, a)| (*r, a))
            .collect();
        traced(args, &mut out, &cfg, &pristine, &replayed);
        let all_stats: Vec<&str> = reqs
            .iter()
            .filter_map(|(_, _, a)| a.stats.as_deref())
            .collect();
        let hits: u64 = all_stats.iter().map(|s| stat(s, "cover_hits")).sum();
        let misses: u64 = all_stats.iter().map(|s| stat(s, "cover_misses")).sum();
        out.layers.insert(
            "serve.cover_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let by_outcome = |miss: bool| -> Vec<f64> {
            reqs.iter()
                .filter(|(_, _, a)| {
                    a.stats
                        .as_deref()
                        .is_some_and(|s| (stat(s, "cover_misses") > 0) == miss)
                })
                .map(|(_, _, a)| 1e3 * a.latency_s)
                .collect()
        };
        for (metric, miss) in [("serve.hit_ms_p50", false), ("serve.miss_ms_p50", true)] {
            let v = by_outcome(miss);
            out.layers
                .insert(metric, if v.is_empty() { 0.0 } else { median(&v) });
        }
        out.layers.insert("pool.cpu_over_wall", cpu / loop_wall);
    }
    out
}

/// The traced run's in-process replay of the leading rounds: once plain
/// (as `fbist serve` evaluates a request: build the flow, then `run` or
/// `tradeoff_sweep_with`), then decomposed into layer calls with spans,
/// at jobs=1 (the server's setting) and at all cores. Each replay starts
/// from its own copy of the pristine warm store.
fn traced(
    args: &Args,
    out: &mut Outcome,
    cfg: &FlowConfig,
    pristine: &ScratchDir,
    reqs: &[(Req, &Answer)],
) {
    mini_rayon::set_jobs(1);
    let plain_dir = pristine.copy(&args.scratch, "replay-store");
    let plain_store = ArtifactStore::open(plain_dir.path()).expect("opening the replay store");
    let t = Instant::now();
    let mut plain = Vec::new();
    for (req, _) in reqs {
        let netlist = load(CIRCUITS[req.circuit()]);
        let flow = ReseedingFlow::with_store(&netlist, plain_store.clone()).expect("valid netlist");
        plain.push(match *req {
            Req::Sweep { .. } => {
                sweep_summary(&netlist, &tradeoff_sweep_with(&flow, cfg, &SWEEP_TAUS))
            }
            Req::Reseed { tau, .. } => reseed_summary(&flow.run(&cfg.clone().with_tau(tau))),
        });
    }
    let plain_wall = t.elapsed().as_secs_f64();
    for ((req, answer), summary) in reqs.iter().zip(&plain) {
        let served = answer.line.splitn(3, ' ').nth(2).unwrap_or("");
        out.tally.op(
            served == summary,
            &format!(
                "in-process replay of `{}` differs from the served answer",
                req.line()
            ),
        );
    }
    let served_s: f64 = reqs.iter().map(|(_, a)| a.latency_s).sum();

    let mut runs = Vec::new();
    for jobs in [1, all_cores()] {
        mini_rayon::set_jobs(jobs);
        let store = pristine.copy(&args.scratch, "traced-store");
        let (tracer, summaries, counters) =
            traced_replay(args, &cfg.clone().with_jobs(jobs), &store, reqs);
        out.tally.op(
            summaries == plain,
            &format!("decomposed replay at jobs={jobs} differs from the plain replay"),
        );
        runs.push((tracer, counters));
    }
    out.check_deterministic(
        &runs[0].1,
        &runs[1].1,
        "traced replays at jobs 1 vs all cores",
    );
    let (main, counters) = runs.remove(0);
    out.layers = counters;
    layer_times(&mut out.layers, &main);
    let traced_wall = main.total("pass", "pass");
    out.layers.insert("trace.pass_s", traced_wall);
    out.layers
        .insert("trace.overhead_s", traced_wall - plain_wall);
    out.layers.insert(
        "cli.self_ms_mean",
        1e3 * (served_s - plain_wall) / reqs.len() as f64,
    );
    out.check_attributed(&main);
    out.traces.push(main);
    out.traces.push(runs.remove(0).0);
}

/// One decomposed replay: per request the serve evaluation's calls —
/// generate the netlist, build the flow, then each stage lookup through
/// the flow's stage cache and, on a cover miss, threshold → finish →
/// cover write — each inside a span.
fn traced_replay(
    args: &Args,
    cfg: &FlowConfig,
    store: &ScratchDir,
    reqs: &[(Req, &Answer)],
) -> (Tracer, Vec<String>, BTreeMap<&'static str, f64>) {
    let mut tr = Tracer::new(format!(
        "{} traced replay, jobs={}",
        args.workload, cfg.jobs
    ));
    let store = ArtifactStore::open(store.path()).expect("opening the replay store");
    let mut c: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut k = Counters::default();
    let mut summaries = Vec::new();
    let mut flows = Vec::new();
    let mut finished: Vec<(FlowConfig, InitialReseeding)> = Vec::new();
    let mut expanded = Vec::new();
    // artifacts read or written, by (flow, config, key function, written);
    // their paths and sizes are resolved after the pass
    type KeyFn = fn(&Netlist, &FlowConfig) -> StageKey;
    let mut touched: Vec<(usize, FlowConfig, KeyFn, bool)> = Vec::new();
    let pass = tr.enter("pass");
    for (req, _) in reqs {
        let name = CIRCUITS[req.circuit()];
        let netlist = tr.time("genbench.generate", || load(name));
        let flow = tr.time("core.flow_new", || {
            ReseedingFlow::with_store(&netlist, store.clone()).expect("valid netlist")
        });
        let stages = flow.stages();
        let i = flows.len();
        let summary = match *req {
            Req::Sweep { .. } => {
                let mut curve = Vec::new();
                for &tau in &SWEEP_TAUS {
                    let cfg_tau = cfg.clone().with_tau(tau);
                    let got = tr.time("store.get", || stages.cover_get(&netlist, &cfg_tau));
                    let report = got.expect("the warm store holds every swept cover");
                    *c.entry("rom_bits").or_default() += report.rom_bits() as f64;
                    touched.push((i, cfg_tau, cover_stage_key, false));
                    curve.push(SweepPoint {
                        tau,
                        triplets: report.triplet_count(),
                        test_length: report.test_length(),
                        rom_bits: report.rom_bits(),
                        report,
                    });
                }
                sweep_summary(&netlist, &curve)
            }
            Req::Reseed { tau, .. } => {
                let cfg_tau = cfg.clone().with_tau(tau);
                let report = match tr.time("store.get", || stages.cover_get(&netlist, &cfg_tau)) {
                    Some(report) => {
                        touched.push((i, cfg_tau, cover_stage_key, false));
                        report
                    }
                    None => {
                        let builder = flow.builder();
                        let base = tr.time("store.get", || stages.atpg_base(builder, &cfg_tau));
                        touched.push((i, cfg_tau.clone(), atpg_stage_key, false));
                        let tpg = cfg_tau.tpg.build(netlist.inputs().len());
                        let (triplets, fdm) = tr.time("store.get", || {
                            stages.first_detection(builder, &*tpg, &base, &cfg_tau, tau)
                        });
                        touched.push((i, cfg_tau.clone(), first_detection_stage_key, false));
                        let matrix = tr.time("setcover.threshold", || fdm.at_tau(tau));
                        expanded.push((netlist.inputs().len(), triplets.clone()));
                        let initial = InitialReseeding {
                            triplets,
                            matrix,
                            target_faults: base.target_faults,
                            universe_size: base.universe_size,
                            atpg: base.atpg,
                        };
                        let report = tr.time("core.finish", || flow.finish(&cfg_tau, &initial));
                        tr.time("store.put", || {
                            stages.cover_put(&netlist, &cfg_tau, &report)
                        });
                        touched.push((i, cfg_tau.clone(), cover_stage_key, true));
                        add_report(&mut c, &report);
                        finished.push((cfg_tau, initial));
                        report
                    }
                };
                *c.entry("rom_bits").or_default() += report.rom_bits() as f64;
                reseed_summary(&report)
            }
        };
        summaries.push(summary);
        let st = stages.stats();
        k.store_hits += st.atpg_hits + st.first_detection_hits + st.cover_hits;
        k.store_misses += st.atpg_misses + st.first_detection_misses + st.cover_misses;
        flows.push(flow);
    }
    tr.exit(pass);
    for (i, cfg_tau, key, written) in touched {
        let path = key(flows[i].builder().netlist(), &cfg_tau).path_under(store.root());
        if written {
            k.written.push(path)
        } else {
            k.read.push(path)
        }
    }

    let patterns = probe(&mut tr, &finished, &expanded, cfg, &mut k);
    c.insert("tpg.patterns_expanded", patterns as f64);
    for flow in &flows {
        add_flow(&mut c, flow);
    }
    finish_counters(&mut c, &k);
    (tr, summaries, c)
}
