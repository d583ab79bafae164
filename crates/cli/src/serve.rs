//! `fbist serve` — a long-running request loop over the artifact store.
//!
//! Reads line-delimited requests from stdin, in the same syntax as the
//! one-shot subcommands minus `--jobs` (the server's pool serves every
//! request) and their store and output-file flags:
//!
//! ```text
//! reseed <circuit> [--tpg KIND] [--tau N] [--seed N] [--scale F] ...
//! sweep  <circuit> [--tpg KIND] [--taus 0,7,31] ...
//! ```
//!
//! Requests accumulate into a batch; a blank line or `flush` evaluates
//! the batch, `quit` (or EOF) evaluates what is pending and exits, and
//! `#`-prefixed lines are comments. Within a batch, requests that
//! canonicalise to the same work — same circuit, same keyed configuration
//! fragment, the same τ set regardless of order and duplicates — are
//! *coalesced*: computed once, answered to every submitter.
//!
//! **Resident circuits.** The server keeps up to [`RESIDENT_CAP`] (8)
//! circuits resident, dropping the least recently used one to make room.
//! Each holds one [`ReseedingFlow`]: the netlist, the ATPG and
//! fault-simulator engines, and the store-backed stage cache with the
//! circuit digest hashed once. The cache keeps the last `atpg` base and
//! `first-detection` matrix the flow read or wrote, decoded, so a
//! resident flow answers its next cover miss at a τ up to that matrix's
//! `τ_max` by thresholding cells already in memory, with no store read.
//! The store stays the source of truth across processes: a resident
//! artifact is one the store held or was just given under the same key,
//! so every answer and stats line is the one a fresh server would print.
//! A profile or embedded circuit is a pure
//! function of its name, `--scale` and `--seed`, so it is looked up by
//! those before anything is generated. A `.bench` path is read and parsed
//! on every request and looked up by its content digest, so an edited
//! file is never answered from the old content. A request that panics
//! answers `err <id> internal: <message>`, the rest of its batch is still
//! answered, and its circuit is dropped from the table, to be rebuilt on
//! next use.
//!
//! **Evaluation order.** Distinct work on one circuit runs one item after
//! another on its resident flow, in submission order; different circuits
//! run in parallel on the workspace pool. So a batch's answers are those
//! of one fresh server per request, in submission order, on the same
//! store.
//!
//! Answers go to stdout in submission order, one line per request —
//! `ok <id> <summary>` or `err <id> <message>` — so the stream stays
//! diffable between cold and warm stores. A request line is checked
//! against the same flag tables as the one-shot subcommands: an unknown,
//! repeated or value-less flag answers `err`, and so does a τ whose
//! matrix build would exceed the pattern-memory budget
//! ([`reseed_core::admit_tau`]), before any work. Once the reader closes
//! stdout, the server exits quietly. Per-request statistics go to stderr
//! as `stats <id> ...`: stage hits/misses, `matrix_sim_passes`, the
//! simulator's lane-occupancy and cone-sweep counters, plus
//! `coalesced=1` for requests that shared another's evaluation. They
//! are the changes of the resident flow's counters over that request
//! alone, which stay exact because no other request uses the flow
//! meanwhile.

use std::any::Any;
use std::io::{BufRead, LineWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use fbist_fault::ConeSweeps;
use fbist_sim::LaneOccupancy;
use fbist_store::{ArtifactStore, DigestBytes};
use reseed_core::{
    admit_tau, circuit_digest, tradeoff_sweep_with, FlowConfig, ReseedingFlow, StageStats,
};

use crate::{
    check_flags, cone_sweeps, exit_if_pipe_closed, flow_config, occupancy, parse_tau, parse_taus,
    resolve_store, simd_stats_line, CircuitSource, Flag, CIRCUIT_FLAGS, RESEED_FLAGS, SWEEP_FLAGS,
};

/// How many circuits a server keeps resident.
const RESIDENT_CAP: usize = 8;

pub fn cmd_serve(args: &[String]) -> Result<(), String> {
    let store = resolve_store(args)?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let stderr = std::io::stderr();
    // stdout is line-buffered already; stderr is not, so without this a
    // stats line reached the pipe in one write per formatted piece
    let mut err = LineWriter::new(stderr.lock());
    serve(store, stdin.lock(), &mut stdout.lock(), &mut err)
}

/// What names a resident circuit before anything is built.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CircuitKey {
    /// A profile or embedded circuit, by the values it is generated from.
    Generated {
        name: String,
        scale_bits: u64,
        seed: u64,
    },
    /// A `.bench` file, by the content digest of its parsed netlist.
    Content(DigestBytes),
}

/// The resident circuits, least recently used first.
struct Residents {
    store: Option<ArtifactStore>,
    entries: Vec<(CircuitKey, Arc<ReseedingFlow>)>,
}

impl Residents {
    fn new(store: Option<ArtifactStore>) -> Residents {
        Residents {
            store,
            entries: Vec::new(),
        }
    }

    /// The flow of the circuit `args` names: the resident one, or a new
    /// one that becomes resident.
    fn flow_for(&mut self, args: &[String]) -> Result<Arc<ReseedingFlow>, String> {
        let source = CircuitSource::of(args)?;
        let (key, netlist) = match source {
            CircuitSource::Generated { name, scale, seed } => (
                CircuitKey::Generated {
                    name: name.to_owned(),
                    scale_bits: scale.to_bits(),
                    seed,
                },
                None,
            ),
            CircuitSource::File(_) => {
                let netlist = source.load()?;
                (CircuitKey::Content(circuit_digest(&netlist)), Some(netlist))
            }
        };
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            let entry = self.entries.remove(i);
            let flow = Arc::clone(&entry.1);
            self.entries.push(entry);
            return Ok(flow);
        }
        let netlist = match netlist {
            Some(n) => n,
            None => source.load()?,
        };
        let flow = match &self.store {
            Some(s) => ReseedingFlow::with_store(&netlist, s.clone()),
            None => ReseedingFlow::new(&netlist),
        }
        .map_err(|e| e.to_string())?;
        let flow = Arc::new(flow);
        if self.entries.len() == RESIDENT_CAP {
            self.entries.remove(0);
        }
        self.entries.push((key, Arc::clone(&flow)));
        Ok(flow)
    }

    /// Drops every resident flow of the circuit with this digest.
    fn evict(&mut self, circuit: DigestBytes) {
        self.entries.retain(|(_, f)| f.circuit_digest() != circuit);
    }
}

/// What a request line asks for, after parsing and canonicalisation.
struct Parsed {
    /// The circuit's resident flow.
    flow: Arc<ReseedingFlow>,
    config: FlowConfig,
    /// `None` = single-τ reseed at `config.tau`; `Some` = sweep.
    taus: Option<Vec<usize>>,
    /// The canonical work identity: requests with equal digests are the
    /// same computation and coalesce onto one evaluation.
    digest: String,
}

struct Request {
    id: usize,
    parsed: Result<Parsed, String>,
}

/// One evaluated unit of work: the stdout summary and the stderr stats.
struct Evaluated {
    summary: String,
    stats: String,
}

/// Runs `work`, turning a panic into an `internal: <message>` error (on
/// one line, like every answer) so one bad request cannot take down the
/// server.
fn isolated<T>(work: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|payload| {
        let msg: Vec<&str> = panic_message(&*payload).lines().map(str::trim).collect();
        Err(format!("internal: {}", msg.join(" ")))
    })
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "panic"
    }
}

fn parse_line(line: &str, residents: &mut Residents) -> Result<Parsed, String> {
    let tokens: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    let (kind, rest) = tokens
        .split_first()
        .ok_or_else(|| "empty request".to_string())?;
    if rest.iter().any(|a| a == "--store" || a == "--no-store") {
        return Err(
            "per-request store flags are not supported; pass --store to `fbist serve` itself"
                .into(),
        );
    }
    if rest.iter().any(|a| a == "--jobs") {
        return Err(
            "per-request --jobs is not supported; pass --jobs to `fbist serve` itself".into(),
        );
    }
    let flags: &[&[Flag]] = match kind.as_str() {
        "reseed" => &[CIRCUIT_FLAGS, RESEED_FLAGS],
        "sweep" => &[CIRCUIT_FLAGS, SWEEP_FLAGS],
        other => {
            return Err(format!(
                "unknown request {other:?} (expected `reseed` or `sweep`)"
            ))
        }
    };
    check_flags(kind, rest, flags)?;
    let flow = residents.flow_for(rest)?;
    let config = flow_config(rest)?;
    config
        .tpg
        .check_inputs(flow.builder().netlist().inputs().len())?;
    let inputs = flow.builder().netlist().inputs().len();
    let workers = mini_rayon::max_workers(0);
    if kind.as_str() == "reseed" {
        let config = config.with_tau(parse_tau(rest, 31)?);
        admit_tau(config.tau, inputs, workers)?;
        let digest = flow.cover_key(&config).to_string();
        Ok(Parsed {
            flow,
            config,
            taus: None,
            digest,
        })
    } else {
        let taus = parse_taus(rest)?;
        admit_tau(taus.iter().copied().max().unwrap_or(0), inputs, workers)?;
        let digest = format!("sweep/{}", flow.sweep_digest(&config, &taus));
        Ok(Parsed {
            flow,
            config,
            taus: Some(taus),
            digest,
        })
    }
}

/// The counters of a flow that a request's stats line reports.
#[derive(Clone, Copy)]
struct Counters {
    stages: StageStats,
    matrix_sim_passes: u64,
    occupancy: LaneOccupancy,
    sweeps: ConeSweeps,
}

impl Counters {
    fn of(flow: &ReseedingFlow) -> Counters {
        Counters {
            stages: flow.stages().stats(),
            matrix_sim_passes: flow.builder().matrix_sim_passes(),
            occupancy: occupancy(flow),
            sweeps: cone_sweeps(flow),
        }
    }

    /// What changed since `earlier`.
    fn since(&self, earlier: &Counters) -> Counters {
        let (now, then) = (self.occupancy, earlier.occupancy);
        Counters {
            stages: self.stages.since(&earlier.stages),
            matrix_sim_passes: self.matrix_sim_passes - earlier.matrix_sim_passes,
            occupancy: LaneOccupancy {
                blocks: now.blocks - then.blocks,
                lanes: now.lanes - then.lanes,
                capacity: now.capacity - then.capacity,
            },
            sweeps: ConeSweeps {
                roots: self.sweeps.roots - earlier.sweeps.roots,
                faults: self.sweeps.faults - earlier.sweeps.faults,
            },
        }
    }
}

fn evaluate(p: &Parsed) -> Evaluated {
    let flow = &*p.flow;
    let before = Counters::of(flow);
    let summary = match &p.taus {
        None => {
            let r = flow.run(&p.config);
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
        Some(taus) => {
            let curve = tradeoff_sweep_with(flow, &p.config, taus);
            let points: Vec<String> = curve
                .iter()
                .map(|pt| {
                    format!(
                        "{}:{}:{}:{}",
                        pt.tau, pt.triplets, pt.test_length, pt.rom_bits
                    )
                })
                .collect();
            format!(
                "sweep {} tpg={} {}",
                flow.builder().netlist().name(),
                p.config.tpg.name(),
                points.join(" ")
            )
        }
    };
    let c = Counters::of(flow).since(&before);
    let s = c.stages;
    let stats = format!(
        "cover_hits={} cover_misses={} first_detection_hits={} first_detection_misses={} \
         atpg_hits={} atpg_misses={} matrix_sim_passes={} {}",
        s.cover_hits,
        s.cover_misses,
        s.first_detection_hits,
        s.first_detection_misses,
        s.atpg_hits,
        s.atpg_misses,
        c.matrix_sim_passes,
        simd_stats_line(c.occupancy, c.sweeps)
    );
    Evaluated { summary, stats }
}

/// A server's state: the resident circuits and the pending batch.
struct Server {
    residents: Residents,
    batch: Vec<Request>,
    next_id: usize,
}

impl Server {
    fn new(store: Option<ArtifactStore>) -> Server {
        Server {
            residents: Residents::new(store),
            batch: Vec::new(),
            next_id: 0,
        }
    }

    /// Parses a request line into the pending batch.
    fn submit(&mut self, line: &str) {
        let residents = &mut self.residents;
        self.batch.push(Request {
            id: self.next_id,
            parsed: isolated(|| parse_line(line, residents)),
        });
        self.next_id += 1;
    }

    /// Evaluates the batch: coalesce by canonical digest, compute the
    /// distinct work (one circuit's in submission order, different
    /// circuits in parallel), answer every request in submission order.
    fn flush(&mut self, out: &mut dyn Write, err: &mut dyn Write) -> Result<(), String> {
        let mut uniq: Vec<&Parsed> = Vec::new();
        let mut work_of: Vec<Option<(usize, bool)>> = Vec::with_capacity(self.batch.len());
        for req in &self.batch {
            match &req.parsed {
                Err(_) => work_of.push(None),
                Ok(p) => match uniq.iter().position(|u| u.digest == p.digest) {
                    Some(i) => work_of.push(Some((i, true))),
                    None => {
                        uniq.push(p);
                        work_of.push(Some((uniq.len() - 1, false)));
                    }
                },
            }
        }
        // distinct work grouped by circuit, groups and items in submission
        // order; a single group runs inline, leaving the pool to its work
        let mut groups: Vec<(DigestBytes, Vec<usize>)> = Vec::new();
        for (i, p) in uniq.iter().enumerate() {
            let circuit = p.flow.circuit_digest();
            match groups.iter_mut().find(|g| g.0 == circuit) {
                Some(g) => g.1.push(i),
                None => groups.push((circuit, vec![i])),
            }
        }
        let done = mini_rayon::par_map_indexed(0, groups.len(), |g| {
            groups[g]
                .1
                .iter()
                .map(|&i| isolated(|| Ok(evaluate(uniq[i]))))
                .collect::<Vec<_>>()
        });
        let mut results: Vec<Option<Result<Evaluated, String>>> =
            (0..uniq.len()).map(|_| None).collect();
        let mut panicked = Vec::new();
        for ((circuit, items), evaluated) in groups.iter().zip(done) {
            for (&i, r) in items.iter().zip(evaluated) {
                if r.is_err() {
                    panicked.push(*circuit);
                }
                results[i] = Some(r);
            }
        }
        for (req, work) in self.batch.iter().zip(&work_of) {
            let id = req.id;
            let answer = match (&req.parsed, work) {
                (Err(msg), _) => Err(msg),
                (Ok(_), Some((i, coalesced))) => match results[*i].as_ref() {
                    Some(Ok(r)) => Ok((r, *coalesced)),
                    Some(Err(msg)) => Err(msg),
                    None => unreachable!("every distinct work item is evaluated"),
                },
                (Ok(_), None) => unreachable!("parsed requests always get a work slot"),
            };
            match answer {
                Ok((r, coalesced)) => {
                    writeln!(out, "ok {id} {}", r.summary).map_err(exit_if_pipe_closed)?;
                    let suffix = if coalesced { " coalesced=1" } else { "" };
                    writeln!(err, "stats {id} {}{suffix}", r.stats).map_err(exit_if_pipe_closed)?;
                }
                Err(msg) => writeln!(out, "err {id} {msg}").map_err(exit_if_pipe_closed)?,
            }
        }
        out.flush().map_err(exit_if_pipe_closed)?;
        err.flush().map_err(exit_if_pipe_closed)?;
        self.batch.clear();
        for circuit in panicked {
            self.residents.evict(circuit);
        }
        Ok(())
    }
}

fn serve(
    store: Option<ArtifactStore>,
    input: impl BufRead,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), String> {
    if let Some(s) = &store {
        writeln!(err, "fbist serve: store {}", s.root().display()).map_err(exit_if_pipe_closed)?;
    } else {
        writeln!(
            err,
            "fbist serve: no store attached (pass --store DIR or set FBIST_STORE)"
        )
        .map_err(exit_if_pipe_closed)?;
    }
    let mut server = Server::new(store);
    for line in input.lines() {
        let line = line.map_err(|e| format!("reading request: {e}"))?;
        let line = line.trim();
        if line.starts_with('#') {
            continue;
        }
        match line {
            "" | "flush" => server.flush(out, err)?,
            "quit" | "exit" => break,
            _ => server.submit(line),
        }
    }
    server.flush(out, err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn run_serve(store: Option<ArtifactStore>, script: &str) -> (String, String) {
        let mut out = Vec::new();
        let mut err = Vec::new();
        serve(store, Cursor::new(script.to_owned()), &mut out, &mut err).unwrap();
        (
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        )
    }

    /// A fresh store in a directory no other test shares, in this process
    /// or a concurrent one (the process id and a process-wide counter keep
    /// equal names apart).
    fn tmp_store(name: &str) -> (ArtifactStore, std::path::PathBuf) {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "fbist-serve-test-{name}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (ArtifactStore::open(&dir).unwrap(), dir)
    }

    /// `(stdout, stats lines)` of `script` through one server.
    fn answers(store: Option<ArtifactStore>, script: &str) -> (String, Vec<String>) {
        let (out, err) = run_serve(store, script);
        let stats = err
            .lines()
            .filter(|l| l.starts_with("stats "))
            .map(str::to_owned)
            .collect();
        (out, stats)
    }

    /// What one fresh server per request line gives, in order, on a store
    /// opened at `dir` (`None`: no store), renumbered as if one server had
    /// answered them all.
    fn fresh_server_per_request(
        dir: Option<&std::path::Path>,
        lines: &[&str],
    ) -> (String, Vec<String>) {
        let mut out = String::new();
        let mut stats = Vec::new();
        for (id, line) in lines.iter().enumerate() {
            let store = dir.map(|d| ArtifactStore::open(d).unwrap());
            let (o, st) = answers(store, &format!("{line}\n"));
            let renumber = |l: &str, tag: &str| {
                let rest = l.strip_prefix(&format!("{tag} 0 ")).unwrap_or_else(|| {
                    panic!("{line}: one answer with id 0, got {l:?}");
                });
                format!("{tag} {id} {rest}")
            };
            let o = o.strip_suffix('\n').expect("one answer line");
            let tag = if o.starts_with("ok ") { "ok" } else { "err" };
            out.push_str(&renumber(o, tag));
            out.push('\n');
            stats.extend(st.iter().map(|l| renumber(l, "stats")));
        }
        (out, stats)
    }

    #[test]
    fn answers_in_submission_order_with_ids() {
        let (out, _) = run_serve(None, "reseed c17 --tau 3\nreseed c17 --tau 0\nquit\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("ok 0 reseed c17"), "{out}");
        assert!(lines[1].starts_with("ok 1 reseed c17"), "{out}");
        assert!(lines[0].contains("tau=3"));
        assert!(lines[1].contains("tau=0"));
    }

    #[test]
    fn bad_requests_answer_err_and_do_not_stop_the_batch() {
        let (out, _) = run_serve(
            None,
            "reseed no-such-circuit-anywhere\nbogus c17\nreseed c17 --tau 1\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[0].starts_with("err 0 "), "{out}");
        assert!(lines[1].starts_with("err 1 unknown request"), "{out}");
        assert!(lines[2].starts_with("ok 2 "), "{out}");
    }

    #[test]
    fn identical_requests_coalesce_within_a_batch() {
        // the same sweep, submitted thrice with reordered/duplicated τ:
        // one evaluation, three identical answers, coalesced flags on the
        // later two
        let (store, dir) = tmp_store("coalesce");
        let (out, err) = run_serve(
            Some(store),
            "sweep c17 --taus 0,3\nsweep c17 --taus 3,0\nsweep c17 --taus 0,3,3\nquit\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        let tail = |l: &str| l.splitn(3, ' ').nth(2).unwrap().to_owned();
        assert_eq!(tail(lines[0]), tail(lines[1]));
        assert_eq!(tail(lines[0]), tail(lines[2]));
        assert_eq!(
            err.lines().filter(|l| l.contains("coalesced=1")).count(),
            2,
            "{err}"
        );
        // exactly one evaluation: the stats lines agree and show one pass
        assert_eq!(
            err.lines()
                .filter(|l| l.contains("matrix_sim_passes=1"))
                .count(),
            3,
            "{err}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn second_batch_is_answered_from_the_store_without_simulating() {
        let (store, dir) = tmp_store("warm");
        // batches are separated by `flush`, so the second request is a
        // fresh evaluation answered from the store, not a coalesced one
        let script = "sweep c17 --taus 0,7\nflush\nsweep c17 --taus 0,7\nquit\n";
        let (out, err) = run_serve(Some(store), script);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        let tail = |l: &str| l.splitn(3, ' ').nth(2).unwrap().to_owned();
        assert_eq!(
            tail(lines[0]),
            tail(lines[1]),
            "warm answer must match cold"
        );
        let stats: Vec<&str> = err.lines().filter(|l| l.starts_with("stats")).collect();
        assert_eq!(stats.len(), 2, "{err}");
        assert!(stats[0].contains("matrix_sim_passes=1"), "{err}");
        assert!(
            stats[1].contains("matrix_sim_passes=0") && stats[1].contains("cover_hits=2"),
            "warm request must simulate nothing: {err}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn warm_request_reports_no_cone_sweeps() {
        // the cone-sweep counter is a per-request delta like sim_blocks:
        // the cold request sweeps, the warm one on the same resident flow
        // evaluates nothing
        let (store, dir) = tmp_store("cone-sweeps");
        let script = "reseed c17 --tau 7\nflush\nreseed c17 --tau 7\nquit\n";
        let (_, err) = run_serve(Some(store), script);
        let _ = std::fs::remove_dir_all(dir);
        let stats: Vec<&str> = err.lines().filter(|l| l.starts_with("stats")).collect();
        assert_eq!(stats.len(), 2, "{err}");
        assert!(stats[0].contains(" cone_sweeps="), "{err}");
        assert!(!stats[0].contains(" cone_sweeps=0/0"), "{err}");
        assert!(
            stats[1].contains(" sim_blocks=0 ") && stats[1].ends_with(" cone_sweeps=0/0"),
            "{err}"
        );
    }

    #[test]
    fn reseed_and_sweep_share_the_cover_artifacts() {
        // a sweep warms the store point by point; a later reseed at one of
        // its τ values is a pure cover hit
        let (store, dir) = tmp_store("cross");
        let script = "sweep c17 --taus 0,7\nflush\nreseed c17 --tau 7\nquit\n";
        let (_, err) = run_serve(Some(store), script);
        let stats: Vec<&str> = err.lines().filter(|l| l.starts_with("stats")).collect();
        assert_eq!(stats.len(), 2, "{err}");
        assert!(
            stats[1].contains("cover_hits=1") && stats[1].contains("matrix_sim_passes=0"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn per_request_store_and_jobs_flags_are_rejected() {
        let (out, _) = run_serve(None, "reseed c17 --store /tmp/x\n");
        assert!(out.starts_with("err 0 per-request store flags"), "{out}");
        let (out, _) = run_serve(None, "reseed c17 --jobs 7 --tau 3\nsweep c17 --jobs 1\n");
        let jobs = "per-request --jobs is not supported; pass --jobs to `fbist serve` itself";
        assert_eq!(out, format!("err 0 {jobs}\nerr 1 {jobs}\n"));
    }

    #[test]
    fn comments_and_blank_lines_are_free() {
        let (out, _) = run_serve(None, "# warm-up script\n\n\nreseed c17 --tau 1\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "{out}");
        assert!(lines[0].starts_with("ok 0 "));
    }

    #[test]
    fn interleaved_circuits_answer_like_one_fresh_server_per_request() {
        // two circuits interleaved over three batches: cold work, store
        // hits, a first-detection artifact outgrown by a larger τ, and
        // requests repeated from earlier batches
        let batches: [&[&str]; 3] = [
            &["sweep c17 --taus 0,3", "reseed tiny64 --tau 3"],
            &[
                "reseed c17 --tau 3",
                "reseed tiny64 --tau 7",
                "reseed c17 --tau 5",
                "sweep tiny64 --taus 0,3",
            ],
            &[
                "reseed tiny64 --tau 3",
                "reseed c17 --tau 3",
                "sweep c17 --taus 0,3",
                "reseed c17 --tau 9 --tpg lfsr",
            ],
        ];
        let script: String = batches.iter().map(|b| b.join("\n") + "\nflush\n").collect();
        let lines: Vec<&str> = batches.concat();
        for with_store in [false, true] {
            let (store, dir) = tmp_store("resident");
            let (fresh_store, fresh_dir) = tmp_store("resident-fresh");
            drop(fresh_store);
            let (out, stats) = answers(with_store.then_some(store), &script);
            let (want_out, want_stats) =
                fresh_server_per_request(with_store.then_some(fresh_dir.as_path()), &lines);
            assert_eq!(out, want_out, "store: {with_store}");
            assert_eq!(stats, want_stats, "store: {with_store}");
            assert_eq!(out.lines().count(), lines.len(), "{out}");
            assert!(out.lines().all(|l| l.starts_with("ok ")), "{out}");
            if with_store {
                // the repeated requests of the last batch are store hits
                assert!(
                    stats[6].contains("cover_hits=1 cover_misses=0"),
                    "{stats:?}"
                );
                assert!(stats[7].contains("matrix_sim_passes=0"), "{stats:?}");
            }
            let _ = std::fs::remove_dir_all(dir);
            let _ = std::fs::remove_dir_all(fresh_dir);
        }
    }

    #[test]
    fn distinct_same_circuit_requests_each_report_their_own_work() {
        // one batch, one resident flow, two distinct requests: each stats
        // line counts its own matrix pass, not the flow's running total
        let (store, dir) = tmp_store("same-circuit");
        let (_, stats) = answers(
            Some(store),
            "sweep c17 --taus 0,3\nsweep c17 --taus 0,7\nquit\n",
        );
        let _ = std::fs::remove_dir_all(dir);
        assert_eq!(stats.len(), 2, "{stats:?}");
        for line in &stats {
            assert!(line.contains("matrix_sim_passes=1"), "{stats:?}");
            assert!(!line.contains("coalesced"), "{stats:?}");
        }
        let (_, stats) = answers(None, "reseed c17 --tau 3\nreseed c17 --tau 5\n");
        assert_eq!(stats.len(), 2, "{stats:?}");
        assert!(
            stats.iter().all(|l| l.contains("matrix_sim_passes=1")),
            "{stats:?}"
        );
    }

    #[test]
    fn an_edited_bench_file_is_answered_from_its_new_content() {
        let (store, dir) = tmp_store("edited");
        let path = dir.join("edited.bench");
        let request = format!("reseed {} --tau 3", path.display());
        let mut server = Server::new(Some(store));
        let mut answer = |text: &str| {
            std::fs::write(&path, text).unwrap();
            server.submit(&request);
            let mut out = Vec::new();
            server.flush(&mut out, &mut Vec::new()).unwrap();
            let out = String::from_utf8(out).unwrap();
            out.trim_end()
                .strip_prefix(&format!("ok {} ", server.next_id - 1))
                .unwrap_or_else(|| panic!("{out}"))
                .to_owned()
        };
        let before = answer(fbist_netlist::embedded::C17_BENCH);
        let after = answer(fbist_netlist::embedded::MAJORITY_BENCH);
        let again = answer(fbist_netlist::embedded::C17_BENCH);
        assert_eq!(server.residents.entries.len(), 2);
        let fresh = |text: &str| {
            std::fs::write(&path, text).unwrap();
            let (out, _) = run_serve(None, &format!("{request}\n"));
            out.trim_end().strip_prefix("ok 0 ").unwrap().to_owned()
        };
        assert_eq!(after, fresh(fbist_netlist::embedded::MAJORITY_BENCH));
        assert_eq!(before, fresh(fbist_netlist::embedded::C17_BENCH));
        assert_eq!(again, before);
        assert_ne!(before, after);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn ten_circuits_answer_correctly_under_the_cap() {
        let lines: Vec<String> = (1..=10)
            .map(|seed| format!("reseed tiny64 --seed {seed} --tau 3"))
            .collect();
        let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
        let (want, _) = fresh_server_per_request(None, &lines);
        let mut server = Server::new(None);
        let round = |server: &mut Server, first_id: usize| {
            for line in &lines {
                server.submit(line);
            }
            let mut out = Vec::new();
            server.flush(&mut out, &mut Vec::new()).unwrap();
            let renumbered: String = String::from_utf8(out)
                .unwrap()
                .lines()
                .map(|l| {
                    let (id, rest) = l.strip_prefix("ok ").unwrap().split_once(' ').unwrap();
                    let id: usize = id.parse().unwrap();
                    format!("ok {} {rest}\n", id - first_id)
                })
                .collect();
            assert_eq!(renumbered, want);
            assert_eq!(server.residents.entries.len(), RESIDENT_CAP);
        };
        round(&mut server, 0);
        // every circuit again: each of the ten is rebuilt after eviction
        round(&mut server, 10);
    }

    #[test]
    fn isolated_turns_a_panic_into_an_internal_error() {
        assert_eq!(isolated(|| Ok::<_, String>(7)), Ok(7));
        assert_eq!(isolated::<()>(|| Err("plain".into())), Err("plain".into()));
        assert_eq!(
            isolated::<()>(|| panic!("boom")),
            Err("internal: boom".into())
        );
        let n = 3;
        assert_eq!(
            isolated::<()>(|| panic!("boom {n}\n  second line")),
            Err("internal: boom 3 second line".into())
        );
    }

    #[test]
    fn a_panicking_work_item_answers_err_and_drops_its_circuit() {
        // a work item that panics inside the flow: an LFSR on a one-input
        // circuit, slipped past the request-boundary check
        let one =
            fbist_netlist::bench::parse_named("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n", "one").unwrap();
        let flow = Arc::new(ReseedingFlow::new(&one).unwrap());
        let mut server = Server::new(None);
        server
            .residents
            .entries
            .push((CircuitKey::Content(circuit_digest(&one)), Arc::clone(&flow)));
        server.batch.push(Request {
            id: 0,
            parsed: Ok(Parsed {
                digest: "panics".into(),
                flow,
                config: FlowConfig::new(reseed_core::TpgKind::Lfsr),
                taus: None,
            }),
        });
        server.next_id = 1;
        server.submit("reseed c17 --tau 3");
        let (mut out, mut err) = (Vec::new(), Vec::new());
        server.flush(&mut out, &mut err).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].starts_with("err 0 internal: "), "{out}");
        assert!(lines[1].starts_with("ok 1 reseed c17"), "{out}");
        let keys: Vec<&CircuitKey> = server.residents.entries.iter().map(|e| &e.0).collect();
        assert_eq!(keys.len(), 1, "the panicked circuit is dropped");
        assert!(matches!(keys[0], CircuitKey::Generated { name, .. } if name == "c17"));
    }

    /// Words of garbled request lines: request kinds and circuits, the
    /// first ones valid; each flag with values it accepts, all small
    /// enough to keep a request fast; values no flag accepts; and noise
    /// characters spliced into a token (no whitespace and no `#`, so a
    /// line never turns into a comment or a control line).
    const KINDS: &str = "reseed sweep reseed sweep reseed sweep RESEED bogus";
    const CIRCUITS: &str =
        "c17 majority adder4 c17 tiny64 no-such-circuit missing.bench /no/dir/ --tau";
    const REQUEST_FLAGS: &[(&str, &str)] = &[
        ("--tpg", "add sub mul lfsr mplfsr wrand"),
        ("--tau", "0 3 7"),
        ("--taus", "0,3 7,0,7 3"),
        ("--seed", "1 2 7"),
        ("--scale", "1 0.5 0.01 1e-300"),
    ];
    const OTHER_FLAGS: &[(&str, &str)] = &[
        ("--jobs", "1 0"),
        (concat!("--simd", "-width"), "auto 4"),
        ("--store", "/tmp"),
        ("--no-store", ""),
        ("--csv", "out.csv"),
        ("--Tau", "3"),
        ("--", ""),
    ];
    const GARBAGE: &str = "nope -1 abc 3,,7 , 16777216 99999999999999999999 nan inf -0 16 é 0x10";
    const NOISE: &str = "-,=().x9é\0'\"";

    /// Word `i` of `words`, wrapping around; `None` if there is none.
    fn pick(words: &str, i: usize) -> Option<&str> {
        let words: Vec<&str> = words.split_whitespace().collect();
        (!words.is_empty()).then(|| words[i % words.len()])
    }

    type LineSpec = (usize, usize, Vec<(usize, usize, u8)>, (u8, usize, usize));

    /// One request line from `(kind, circuit, flags, noise)`. A flag is
    /// `(flag, value, value kind)`: one in four is not a request flag,
    /// and the kind picks a value the flag accepts (0, 1), garbage (2)
    /// or no value (3). The noise `(on, where, what)` puts a character
    /// into one token.
    fn garbled_line((kind, circuit, flags, (noisy, at, ch)): LineSpec) -> String {
        let mut tokens: Vec<String> = [pick(KINDS, kind), pick(CIRCUITS, circuit)]
            .into_iter()
            .flatten()
            .map(str::to_owned)
            .collect();
        for (flag, value, value_kind) in flags {
            let table = if flag % 4 == 0 {
                OTHER_FLAGS
            } else {
                REQUEST_FLAGS
            };
            let (name, accepted) = table[flag / 4 % table.len()];
            tokens.push(name.to_owned());
            let value = match value_kind {
                0 | 1 => pick(accepted, value),
                2 => pick(GARBAGE, value),
                _ => None,
            };
            tokens.extend(value.map(str::to_owned));
        }
        if noisy % 4 == 0 {
            let count = tokens.len();
            let token = &mut tokens[at % count];
            let pos = token.char_indices().nth(at % (token.chars().count() + 1));
            let noise: Vec<char> = NOISE.chars().collect();
            token.insert(pos.map_or(token.len(), |(i, _)| i), noise[ch % noise.len()]);
        }
        tokens.join(" ")
    }

    fn garbled_script() -> impl proptest::prelude::Strategy<Value = Vec<(String, bool)>> {
        use proptest::prelude::*;
        let flag = (any::<usize>(), any::<usize>(), 0u8..4);
        let noise = (any::<u8>(), any::<usize>(), any::<usize>());
        let line = (
            any::<usize>(),
            any::<usize>(),
            proptest::collection::vec(flag, 0..4),
            noise,
        )
            .prop_map(garbled_line);
        proptest::collection::vec((line, any::<bool>()), 1..7)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn every_garbled_line_gets_one_answer_and_none_is_internal(script in garbled_script()) {
            // the bool ends a batch after its line
            let text: String = script
                .iter()
                .map(|(line, flush)| format!("{line}\n{}", if *flush { "flush\n" } else { "" }))
                .collect();
            let (out, _) = run_serve(None, &text);
            let answers: Vec<&str> = out.lines().collect();
            proptest::prop_assert_eq!(answers.len(), script.len(), "{}\n{}", text, out);
            for (id, answer) in answers.iter().enumerate() {
                let ok = answer.starts_with(&format!("ok {id} "));
                let err = answer.starts_with(&format!("err {id} "));
                proptest::prop_assert!(ok || err, "answer {} to {:?}: {}", id, script[id].0, out);
                proptest::prop_assert!(
                    !answer.starts_with(&format!("err {id} internal:")),
                    "{:?} panicked: {}",
                    script[id].0,
                    answer
                );
            }
        }
    }

    #[test]
    fn a_one_input_circuit_rejects_the_lfsr_families() {
        let dir = tmp_store("one-input").1;
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one.bench");
        std::fs::write(&path, "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n").unwrap();
        let p = path.display();
        let (out, _) = run_serve(
            None,
            &format!("reseed {p} --tpg lfsr\nsweep {p} --tpg mplfsr\nreseed {p} --tpg add\n"),
        );
        let _ = std::fs::remove_dir_all(dir);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(
            lines[0].starts_with("err 0 TPG lfsr needs a circuit with at least 2 inputs"),
            "{out}"
        );
        assert!(lines[1].starts_with("err 1 TPG mplfsr"), "{out}");
        assert!(lines[2].starts_with("ok 2 reseed"), "{out}");
    }
}
