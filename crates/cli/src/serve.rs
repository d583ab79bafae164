//! `fbist serve` — a long-running request loop over the artifact store.
//!
//! Reads line-delimited requests from stdin, in the same syntax as the
//! one-shot subcommands minus their store and output-file flags:
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
//! *coalesced*: computed once, answered to every submitter. Distinct
//! requests evaluate in parallel on the workspace pool.
//!
//! Answers go to stdout in submission order, one line per request —
//! `ok <id> <summary>` or `err <id> <message>` — so the stream stays
//! diffable between cold and warm stores. A request line is checked
//! against the same flag tables as the one-shot subcommands: an unknown,
//! repeated or value-less flag answers `err`. Once the reader closes
//! stdout, the server exits quietly. Per-request store statistics
//! (stage hits/misses, `matrix_sim_passes`, the configured SIMD width
//! with the simulator's lane-occupancy counters, plus `coalesced=1` for
//! requests that shared another's evaluation) go to stderr.

use std::io::{BufRead, Write};

use fbist_netlist::Netlist;
use fbist_store::ArtifactStore;
use reseed_core::{
    cover_stage_key, sweep_request_digest, tradeoff_sweep_with, FlowConfig, ReseedingFlow,
};

use crate::{
    check_flags, exit_if_pipe_closed, flow_config, load_circuit, parse_tau, parse_taus,
    resolve_store, simd_stats_line, Flag, CIRCUIT_FLAGS, RESEED_FLAGS, SWEEP_FLAGS,
};

pub fn cmd_serve(args: &[String]) -> Result<(), String> {
    let store = resolve_store(args)?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let stderr = std::io::stderr();
    serve(store, stdin.lock(), &mut stdout.lock(), &mut stderr.lock())
}

/// What a request line asks for, after parsing and canonicalisation.
struct Parsed {
    netlist: Netlist,
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
    summary: Result<String, String>,
    stats: String,
}

fn parse_line(line: &str) -> Result<Parsed, String> {
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
    let netlist = load_circuit(rest)?;
    let config = flow_config(rest)?;
    if kind.as_str() == "reseed" {
        let config = config.with_tau(parse_tau(rest, 31)?);
        let digest = cover_stage_key(&netlist, &config).to_string();
        Ok(Parsed {
            netlist,
            config,
            taus: None,
            digest,
        })
    } else {
        let taus = parse_taus(rest)?;
        let digest = format!("sweep/{}", sweep_request_digest(&netlist, &config, &taus));
        Ok(Parsed {
            netlist,
            config,
            taus: Some(taus),
            digest,
        })
    }
}

fn evaluate(p: &Parsed, store: &Option<ArtifactStore>) -> Evaluated {
    let flow = match store {
        Some(s) => ReseedingFlow::with_store(&p.netlist, s.clone()),
        None => ReseedingFlow::new(&p.netlist),
    };
    let flow = match flow {
        Ok(flow) => flow,
        Err(e) => {
            return Evaluated {
                summary: Err(e.to_string()),
                stats: String::new(),
            }
        }
    };
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
            let curve = tradeoff_sweep_with(&flow, &p.config, taus);
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
                p.netlist.name(),
                p.config.tpg.name(),
                points.join(" ")
            )
        }
    };
    let s = flow.stages().stats();
    let stats = format!(
        "cover_hits={} cover_misses={} first_detection_hits={} first_detection_misses={} \
         atpg_hits={} atpg_misses={} matrix_sim_passes={} {}",
        s.cover_hits,
        s.cover_misses,
        s.first_detection_hits,
        s.first_detection_misses,
        s.atpg_hits,
        s.atpg_misses,
        flow.builder().matrix_sim_passes(),
        simd_stats_line(&flow, p.config.simd_width)
    );
    Evaluated {
        summary: Ok(summary),
        stats,
    }
}

/// Evaluates a batch: coalesce by canonical digest, compute the distinct
/// work in parallel, answer every request in submission order.
fn flush_batch(
    batch: &mut Vec<Request>,
    store: &Option<ArtifactStore>,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<(), String> {
    let mut uniq: Vec<&Parsed> = Vec::new();
    let mut work_of: Vec<Option<(usize, bool)>> = Vec::with_capacity(batch.len());
    for req in batch.iter() {
        match &req.parsed {
            Err(_) => work_of.push(None),
            Ok(p) => {
                let existing = uniq.iter().position(|u| u.digest == p.digest);
                match existing {
                    Some(i) => work_of.push(Some((i, true))),
                    None => {
                        uniq.push(p);
                        work_of.push(Some((uniq.len() - 1, false)));
                    }
                }
            }
        }
    }
    let results: Vec<Evaluated> =
        mini_rayon::par_map_indexed(0, uniq.len(), |i| evaluate(uniq[i], store));
    for (req, work) in batch.iter().zip(&work_of) {
        let id = req.id;
        match (&req.parsed, work) {
            (Err(msg), _) => {
                writeln!(out, "err {id} {msg}").map_err(exit_if_pipe_closed)?;
            }
            (Ok(_), Some((i, coalesced))) => {
                let r = &results[*i];
                match &r.summary {
                    Ok(summary) => {
                        writeln!(out, "ok {id} {summary}").map_err(exit_if_pipe_closed)?;
                        let suffix = if *coalesced { " coalesced=1" } else { "" };
                        writeln!(err, "stats {id} {}{suffix}", r.stats)
                            .map_err(exit_if_pipe_closed)?;
                    }
                    Err(msg) => {
                        writeln!(out, "err {id} {msg}").map_err(exit_if_pipe_closed)?;
                    }
                }
            }
            (Ok(_), None) => unreachable!("parsed requests always get a work slot"),
        }
    }
    out.flush().map_err(exit_if_pipe_closed)?;
    err.flush().map_err(exit_if_pipe_closed)?;
    batch.clear();
    Ok(())
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
    let mut batch: Vec<Request> = Vec::new();
    let mut next_id = 0usize;
    for line in input.lines() {
        let line = line.map_err(|e| format!("reading request: {e}"))?;
        let line = line.trim();
        if line.starts_with('#') {
            continue;
        }
        match line {
            "" | "flush" => flush_batch(&mut batch, &store, out, err)?,
            "quit" | "exit" => break,
            _ => {
                batch.push(Request {
                    id: next_id,
                    parsed: parse_line(line),
                });
                next_id += 1;
            }
        }
    }
    flush_batch(&mut batch, &store, out, err)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run_serve(store: Option<ArtifactStore>, script: &str) -> (String, String) {
        let mut out = Vec::new();
        let mut err = Vec::new();
        serve(store, Cursor::new(script.to_owned()), &mut out, &mut err).unwrap();
        (
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        )
    }

    fn tmp_store(name: &str) -> (ArtifactStore, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("fbist-serve-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (ArtifactStore::open(&dir).unwrap(), dir)
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
    fn per_request_store_flags_are_rejected() {
        let (out, _) = run_serve(None, "reseed c17 --store /tmp/x\n");
        assert!(out.starts_with("err 0 per-request store flags"), "{out}");
    }

    #[test]
    fn comments_and_blank_lines_are_free() {
        let (out, _) = run_serve(None, "# warm-up script\n\n\nreseed c17 --tau 1\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1, "{out}");
        assert!(lines[0].starts_with("ok 0 "));
    }
}
