//! Wall-clock end-to-end benchmark of the mining-to-serving dataflow.
//!
//! ```text
//! perfbench --workload <bulk_mine|serve_read|update_mix|all> --seed N
//!           --seconds S --trace <0|1> [--size full|tiny] [--spans FILE]
//! ```
//!
//! Every call into the program is in `sut.rs`. Report lines come first;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`). See `README.md` for what each
//! workload and metric means.

mod calib;
mod spans;
mod stats;
mod sut;

use spans::span;
use stats::{median, percentile, sorted, Fnv, Rng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use sut::{Doc, MineStats, Mining, Served, Storage, System, Tally};

const WORKLOADS: [&str; 3] = ["bulk_mine", "serve_read", "update_mix"];

/// Printed for every workload with `--trace 0`, in this order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("tail_latency_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Printed for every workload with `--trace 1`; 0 where the workload
/// bypasses the layer.
const PER_LAYER: [(&str, &str); 48] = [
    ("ingest.s", "s"),
    ("miner.s", "s"),
    ("miner.busy_s", "s"),
    ("miner.shard_skew", "ratio"),
    ("miner.failed", "count"),
    ("miner.retries", "count"),
    ("nlp.annotate_s", "s"),
    ("spotter.process_us", "us"),
    ("sentiment.process_us", "us"),
    ("store.update_us", "us"),
    ("store.delete_us", "us"),
    ("index.build_s", "s"),
    ("index.build_ns_per_doc", "ns"),
    ("index.postings_bytes", "bytes"),
    ("index.terms", "count"),
    ("index.concepts", "count"),
    ("index.upsert_us", "us"),
    ("index.remove_us", "us"),
    ("index.query_us.term", "us"),
    ("index.query_us.and", "us"),
    ("index.query_us.or", "us"),
    ("index.query_us.phrase", "us"),
    ("index.query_us.not", "us"),
    ("index.query_us.concept", "us"),
    ("index.query_us.meta", "us"),
    ("index.query_us.regex", "us"),
    ("index.postings_scanned_per_query", "count"),
    ("query_parser.parse_us", "us"),
    ("sindex.build_s", "s"),
    ("sindex.rebuild_shard_s", "s"),
    ("sindex.postings", "count"),
    ("serve.subject_us", "us"),
    ("serve.topk_us", "us"),
    ("serve.answer_postings", "count"),
    ("durable.checkpoint_s", "s"),
    ("durable.replay_s", "s"),
    ("durable.wal_bytes_per_user_byte", "ratio"),
    ("durable.snapshot_bytes", "bytes"),
    ("durable.fsyncs", "count"),
    ("durable.records_appended", "count"),
    ("cluster.restart_s", "s"),
    ("cluster.reindexed", "count"),
    ("trace.spans", "count"),
    ("evlog.emitted", "count"),
    ("loadgen.lateness_ms", "ms"),
    ("tracing.overhead_share", "ratio"),
    ("tracing.coverage_share", "ratio"),
    ("failed_share", "ratio"),
];

/// Query shapes of the search mix, with the span each one's execution
/// is recorded under.
const SHAPES: [(&str, &str); 8] = [
    ("term", "index.query.term"),
    ("and", "index.query.and"),
    ("or", "index.query.or"),
    ("phrase", "index.query.phrase"),
    ("not", "index.query.not"),
    ("concept", "index.query.concept"),
    ("meta", "index.query.meta"),
    ("regex", "index.query.regex"),
];

/// Sizes and rates of one benchmark scale.
struct Plan {
    /// Camera reviews mined by `bulk_mine`.
    bulk_docs: usize,
    /// Reviews behind `serve_read`: half camera, half music.
    read_docs: usize,
    /// Camera reviews behind `update_mix`.
    update_docs: usize,
    /// Distinct generated reviews that updates and inserts draw from.
    write_pool: usize,
    /// Set-ups per run of `serve_read` and `update_mix`; `setup_s` is
    /// their median.
    setup_reps: usize,
    /// Least fresh-process boots per `bulk_mine` run; `setup_s` is their
    /// median.
    cold_boots: usize,
    /// Fixed open-loop rate of `serve_read`, requests/s.
    read_rate: f64,
    /// Fixed open-loop rate of `update_mix`, operations/s.
    mix_rate: f64,
    /// `update_mix` closed-loop operations per second of `--seconds`.
    mix_closed_ops: f64,
}

const FULL: Plan = Plan {
    bulk_docs: 500,
    read_docs: 1000,
    update_docs: 600,
    write_pool: 256,
    setup_reps: 3,
    cold_boots: 7,
    read_rate: 2000.0,
    mix_rate: 500.0,
    mix_closed_ops: 200.0,
};

/// For the smoke test: every path runs, nothing is measured.
const TINY: Plan = Plan {
    bulk_docs: 24,
    read_docs: 24,
    update_docs: 24,
    write_pool: 8,
    setup_reps: 2,
    cold_boots: 2,
    read_rate: 400.0,
    mix_rate: 200.0,
    mix_closed_ops: 40.0,
};

/// Share of `--seconds` `serve_read` spends in the closed loop; the rest
/// is open loop.
const CLOSED_SHARE: f64 = 0.3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    spans_out: Option<PathBuf>,
    /// Boot once, print the time and exit (see [`cold_boots`]).
    probe_boot: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        // BENCHMARK.json's run_seconds, which the bounds were set on
        seconds: 20.0,
        trace: false,
        tiny: false,
        spans_out: None,
        probe_boot: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--size" => {
                args.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size takes full or tiny, got {other:?}")),
                }
            }
            "--spans" => args.spans_out = Some(PathBuf::from(value()?)),
            "--probe-boot" => args.probe_boot = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.probe_boot {
        let t = Instant::now();
        match System::boot(Storage::Memory, Mining::NamedEntities) {
            Ok(_) => println!("boot_s {}", secs(t)),
            Err(e) => {
                eprintln!("perfbench: boot failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let plan = if args.tiny { &TINY } else { &FULL };
    let result = match args.workload.as_str() {
        "bulk_mine" => bulk_mine(&args, plan),
        "serve_read" => serve_read(&args, plan),
        _ => update_mix(&args, plan),
    };
    match result {
        Ok(outcome) => {
            if args.trace {
                let path = args.spans_out.clone().unwrap_or_else(|| {
                    PathBuf::from(format!(
                        ".perfbench_out/spans-{}-{}.jsonl",
                        args.workload, args.seed
                    ))
                });
                if let Err(e) = spans::write_jsonl(&path, &spans::records()) {
                    eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
                    std::process::exit(1);
                }
                println!("spans {}", path.display());
            }
            outcome.print(&args);
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

/// Runs every workload in its own process (so each has its own peak
/// RSS) and prints their reports plus one combined result line.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return 1;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics: Vec<String> = Vec::new();
    for workload in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--size", if args.tiny { "tiny" } else { "full" }]);
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot run {workload}: {e}");
                return 1;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let text = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        let result: serde_json::Value = match serde_json::from_str(last) {
            Ok(v) if output.status.success() => v,
            _ => {
                eprintln!("perfbench: {workload} produced no result");
                return 1;
            }
        };
        correct &= result["correct"].as_bool() == Some(true);
        attempted += result["attempted"].as_u64().unwrap_or(0);
        failed += result["failed"].as_u64().unwrap_or(0);
        if let Some(m) = result["metrics"].as_object() {
            for (name, v) in m {
                metrics.push(format!("\"{workload}.{name}\":{}", v.to_json_string()));
            }
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    0
}

// ---------------------------------------------------------------------
// Checks, fingerprint and the printed outcome

/// Reference checks of one kind. A failed check counts against
/// `failed`; a gating one also makes `correct` false.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
    gating: bool,
    notes: Vec<String>,
}

#[derive(Default)]
struct Checks(BTreeMap<&'static str, Check>);

impl Checks {
    fn record(
        &mut self,
        kind: &'static str,
        gating: bool,
        ok: bool,
        what: impl FnOnce() -> String,
    ) {
        let c = self.0.entry(kind).or_default();
        c.gating |= gating;
        c.attempted += 1;
        if !ok {
            c.failed += 1;
            if c.notes.len() < 3 {
                c.notes.push(what());
            }
        }
    }

    fn gating_failures(&self) -> u64 {
        self.0.values().filter(|c| c.gating).map(|c| c.failed).sum()
    }
}

#[derive(Default)]
struct Outcome {
    /// Operations attempted and failed, reference checks included.
    attempted: u64,
    failed: u64,
    checks: Checks,
    /// End-to-end metrics in the contract's generic names.
    end_to_end: BTreeMap<&'static str, f64>,
    /// The same measurements under workload-specific names, plus
    /// sample counts.
    report: Vec<(&'static str, f64, &'static str)>,
    fingerprint: Vec<(&'static str, u64)>,
    layers: BTreeMap<&'static str, f64>,
    /// Median slowdown of the machine over the run (see `calib.rs`).
    slowdown: f64,
}

impl Outcome {
    fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    fn print(&self, args: &Args) {
        println!(
            "workload {} seed {} seconds {} trace {} size {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            if args.tiny { "tiny" } else { "full" }
        );
        for (name, value, unit) in &self.report {
            println!("metric {name} {value} {unit}");
        }
        println!("metric slowdown {} ratio", self.slowdown);
        println!("metric failed_share {} ratio", self.failed_share());
        for (kind, c) in &self.checks.0 {
            println!(
                "check {kind} attempted {} failed {}{}",
                c.attempted,
                c.failed,
                if c.gating {
                    ""
                } else {
                    " (known defect, not gating)"
                }
            );
            for note in &c.notes {
                println!("  {note}");
            }
        }
        let fp: Vec<String> = self
            .fingerprint
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        println!("fingerprint {{{}}}", fp.join(","));
        let metrics: Vec<String> = if args.trace {
            PER_LAYER
                .iter()
                .map(|(name, unit)| {
                    let value = self.layers.get(name).copied().unwrap_or(0.0);
                    println!("layer {name} {value} {unit}");
                    json_metric(name, value, unit)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|(name, unit)| json_metric(name, self.end_to_end[name], unit))
                .collect()
        };
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.checks.gating_failures() == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

fn wall_median(samples: &[calib::Sample]) -> f64 {
    median(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>())
}

fn steady_median(samples: &[calib::Sample]) -> f64 {
    median(&samples.iter().map(|s| s.steady_s).collect::<Vec<_>>())
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Requests and their references

struct Search {
    text: String,
    layer: &'static str,
}

/// The search mix: every query shape, a few variants each, built from
/// the generator's vocabulary.
fn search_queries(seed: u64) -> Vec<Search> {
    let v = sut::vocab();
    let mut rng = Rng::new(seed ^ 0x5EED_0003);
    let words = |lists: &[&[&str]], multi: bool| -> Vec<String> {
        lists
            .iter()
            .flat_map(|l| l.iter())
            .map(|w| w.to_lowercase())
            .filter(|w| {
                w.contains(' ') == multi && w.chars().all(|c| c.is_ascii_lowercase() || c == ' ')
            })
            .collect()
    };
    let camera = words(&[v.camera_features], false);
    let music = words(&[v.music_features], false);
    let phrases = words(&[v.camera_features, v.music_features], true);
    let products = words(&[v.camera_products], false);
    let adjectives = words(&[v.positive, v.negative], false);
    let mut out: Vec<Search> = Vec::new();
    for variant in 0..16 {
        for (shape, layer) in SHAPES {
            let text = match shape {
                "term" => rng.pick(&adjectives).clone(),
                "and" => format!("{} AND {}", rng.pick(&products), rng.pick(&camera)),
                "or" => format!("{} OR {}", rng.pick(&camera), rng.pick(&music)),
                "phrase" => format!("\"{}\"", rng.pick(&phrases)),
                "not" => format!("{} AND NOT {}", rng.pick(&camera), rng.pick(&products)),
                "concept" => match variant {
                    0 => "concept:sentiment:polarity=+".to_string(),
                    1 => "concept:sentiment:polarity=-".to_string(),
                    _ => format!("concept:sentiment:subject={}", rng.pick(&products)),
                },
                "meta" => match variant {
                    0 => "meta:domain=camera".to_string(),
                    1 => format!("meta:domain=music AND {}", rng.pick(&music)),
                    _ => format!("meta:domain=camera AND {}", rng.pick(&adjectives)),
                },
                _ => {
                    let w = rng.pick(&camera);
                    format!("regex:{}[a-z]*", &w[..w.len().min(3)])
                }
            };
            if out.iter().all(|s| s.text != text) {
                out.push(Search { text, layer });
            }
        }
    }
    out
}

/// Reference answers to the search mix: the naive index over a store
/// scan.
fn check_searches(
    sys: &System,
    searches: &[Search],
    checks: &mut Checks,
    kind: &'static str,
    gating: bool,
) -> Vec<Result<Vec<u64>, String>> {
    let texts: Vec<String> = searches.iter().map(|s| s.text.clone()).collect();
    let reference = sys.reference_search(&texts);
    for (s, want) in searches.iter().zip(&reference) {
        let got = sys.search(&s.text, s.layer);
        checks.record(kind, gating, &got == want, || {
            format!(
                "{:?}: {} hit(s), reference {}",
                s.text,
                got.as_ref().map_or(0, Vec::len),
                want.as_ref().map_or(0, Vec::len)
            )
        });
    }
    reference
}

/// The serving requests: Zipf-skewed subjects (most-mentioned first),
/// a few unknown subjects, and top-k tallies.
struct ServeSet {
    subjects: Vec<String>,
    requests: Vec<String>,
    known: usize,
    topk: Vec<(String, usize, usize)>,
}

const UNKNOWN_SUBJECTS: [&str; 3] = ["zz-unknown-a", "zz-unknown-b", "zz-unknown-c"];
const UNKNOWN_SHARE: f64 = 0.02;

impl ServeSet {
    fn new(tally: &Tally) -> ServeSet {
        let mut ranked: Vec<(&String, u64)> =
            tally.iter().map(|(s, t)| (s, t.iter().sum())).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        let mut subjects: Vec<String> = ranked.into_iter().map(|(s, _)| s.clone()).collect();
        let known = subjects.len();
        subjects.extend(UNKNOWN_SUBJECTS.iter().map(|s| s.to_string()));
        let requests = subjects
            .iter()
            .map(|s| format!("sentiment of {s}"))
            .collect();
        let topk = [(5, "+", 0), (10, "-", 1), (3, "0", 2), (20, "+", 0)]
            .into_iter()
            .map(|(k, p, slot)| (format!("top {k} {p}"), k, slot))
            .collect();
        ServeSet {
            subjects,
            requests,
            known,
            topk,
        }
    }

    fn pick_subject(&self, rng: &mut Rng) -> usize {
        if self.known == 0 || rng.unit() < UNKNOWN_SHARE {
            self.known + rng.below(UNKNOWN_SUBJECTS.len())
        } else {
            sut::zipf_rank(self.known, rng.unit())
        }
    }
}

fn subject_matches(answer: &Served, subject: &str, tally: &Tally) -> bool {
    match (tally.get(subject), answer) {
        (None, Served::NotFound) => true,
        (Some(t), Served::Body(body)) => {
            let Ok(v) = serde_json::from_str::<serde_json::Value>(body) else {
                return false;
            };
            v["subject"].as_str() == Some(subject)
                && v["positive"].as_u64() == Some(t[0])
                && v["negative"].as_u64() == Some(t[1])
                && v["neutral"].as_u64() == Some(t[2])
                && v["postings"].as_u64() == Some(t.iter().sum())
        }
        _ => false,
    }
}

fn topk_matches(answer: &Served, k: usize, slot: usize, tally: &Tally) -> bool {
    let mut ranked: Vec<(&String, &[u64; 3])> = tally.iter().collect();
    ranked.sort_by(|a, b| b.1[slot].cmp(&a.1[slot]).then_with(|| a.0.cmp(b.0)));
    ranked.truncate(k);
    let Served::Body(body) = answer else {
        return false;
    };
    let Ok(v) = serde_json::from_str::<serde_json::Value>(body) else {
        return false;
    };
    let Some(top) = v["top"].as_array() else {
        return false;
    };
    top.len() == ranked.len()
        && top.iter().zip(&ranked).all(|(got, (subject, t))| {
            got["subject"].as_str() == Some(subject.as_str())
                && got["count"].as_u64() == Some(t[slot])
                && got["net"].as_i64() == Some(t[0] as i64 - t[1] as i64)
        })
}

/// Checks every distinct serving request once against the annotation
/// tally; returns the validated answers (`None` where the answer was
/// wrong), which timed requests are then compared to.
fn check_serving(
    sys: &System,
    set: &ServeSet,
    tally: &Tally,
    checks: &mut Checks,
) -> (Vec<Option<Served>>, Vec<Option<Served>>) {
    let subjects = set
        .requests
        .iter()
        .zip(&set.subjects)
        .map(|(request, subject)| {
            let (answer, _) = sys.serve(request, "serve.subject");
            let ok = subject_matches(&answer, subject, tally);
            checks.record("serve", true, ok, || {
                format!("{request:?} answered {answer:?}")
            });
            ok.then_some(answer)
        })
        .collect();
    let topk = set
        .topk
        .iter()
        .map(|(request, k, slot)| {
            let (answer, _) = sys.serve(request, "serve.topk");
            let ok = topk_matches(&answer, *k, *slot, tally);
            checks.record("serve", true, ok, || {
                format!("{request:?} answered {answer:?}")
            });
            ok.then_some(answer)
        })
        .collect();
    (subjects, topk)
}

fn check_pipeline(checks: &mut Checks, mined: &MineStats, docs: usize) {
    let ok = mined.processed == docs && mined.failed == 0;
    checks.record("pipeline", true, ok, || {
        format!(
            "mined {} of {docs}, {} failed",
            mined.processed, mined.failed
        )
    });
}

fn check_replay(sys: &System, checks: &mut Checks, kind: &'static str) {
    match sys.replay() {
        Ok(shards) => {
            for (shard, (recovered, live)) in shards.into_iter().enumerate() {
                checks.record(kind, true, recovered == live, || {
                    format!("shard {shard}: replay recovered {recovered}, store holds {live}")
                });
            }
        }
        Err(e) => checks.record(kind, true, false, || format!("replay failed: {e}")),
    }
}

/// Exact counts that pin the program's behaviour for a seed.
fn fingerprint(
    sys: &System,
    mined: &MineStats,
    reference: &[Result<Vec<u64>, String>],
    tally: &Tally,
) -> Vec<(&'static str, u64)> {
    let mut sum = Fnv::default();
    for answer in reference {
        match answer {
            Ok(hits) => {
                sum.u64(hits.len() as u64);
                hits.iter().for_each(|&h| sum.u64(h));
            }
            Err(e) => sum.bytes(e.as_bytes()),
        }
    }
    for (subject, t) in tally {
        sum.bytes(subject.as_bytes());
        t.iter().for_each(|&n| sum.u64(n));
    }
    vec![
        ("docs_mined", mined.processed as u64),
        ("annotations", sys.annotation_count() as u64),
        ("index.terms", sys.index_terms() as u64),
        ("index.concepts", sys.index_concepts() as u64),
        ("index.postings_bytes", sys.index_postings_bytes()),
        ("sindex.postings", sys.sindex_postings() as u64),
        ("wal_records", sys.counters().records_appended),
        ("reference_checksum", sum.finish()),
    ]
}

// ---------------------------------------------------------------------
// Load generation

/// Times calibration units, then sleeps, then spins, until `due`; the
/// wait is a `loadgen.idle` span.
fn wait_until(due: Instant, speed: &mut calib::Speed) {
    if Instant::now() >= due {
        return;
    }
    let _s = span("loadgen.idle");
    speed.fill_until(due);
    let now = Instant::now();
    if now >= due {
        return;
    }
    let left = due - now;
    if left > Duration::from_millis(2) {
        std::thread::sleep(left - Duration::from_millis(1));
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Rounds the timed phase of `serve_read` and `update_mix` is split into.
/// Each round runs a closed loop, then an open loop, so both sample the
/// whole run rather than one end of it.
const ROUNDS: usize = 5;

/// What a timed phase measured, over all its rounds. Figures come in
/// pairs: on the wall clock, and steady, with the machine's slowdown at
/// the time taken out (see `calib.rs`).
#[derive(Default)]
struct Timed {
    /// Closed-loop rates of untraced and traced blocks, requests/s.
    block_rates: [Vec<f64>; 2],
    /// Steady rates of the untraced blocks.
    steady_rates: Vec<f64>,
    /// Steady seconds of untraced and traced blocks, for the tracing
    /// overhead.
    block_time: [f64; 2],
    /// Open-loop latencies by request class (0 read, 1 write), µs.
    latencies: [Vec<f64>; 2],
    steady_latencies: [Vec<f64>; 2],
    /// How late the last open-loop request started, ms.
    lateness_ms: f64,
    speed: calib::Speed,
}

impl Timed {
    /// One client sending its next request as soon as the previous one
    /// completes, in blocks of `block` requests, until `done(requests,
    /// seconds)`. With `trace` the blocks alternate untraced and traced;
    /// tracing is left on afterwards.
    fn closed_loop(
        &mut self,
        trace: bool,
        block: u64,
        done: impl Fn(u64, f64) -> bool,
        mut op: impl FnMut(),
    ) {
        let start = Instant::now();
        let mut requests = 0u64;
        while requests == 0 || !done(requests, secs(start)) {
            let traced = usize::from(trace && (requests / block) % 2 == 1);
            spans::enable(traced == 1);
            let ((), time) = self.speed.bracket(|| {
                let _p = span("phase.closed");
                for _ in 0..block {
                    op();
                }
            });
            self.block_time[traced] += time.steady_s;
            self.block_rates[traced].push(block as f64 / time.wall_s);
            if traced == 0 {
                self.steady_rates.push(block as f64 / time.steady_s);
            }
            requests += block;
        }
        spans::enable(trace);
    }

    /// Sends `count` requests at `rate`/s regardless of completions; each
    /// is timed from when it was due. `op` returns the request's class.
    fn open_loop(&mut self, rate: f64, count: usize, mut op: impl FnMut() -> usize) {
        let _p = span("phase.open");
        let start = Instant::now();
        let mut sent = Vec::with_capacity(count);
        for i in 0..count {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            wait_until(due, &mut self.speed);
            if i + 1 == count {
                self.lateness_ms = due.elapsed().as_secs_f64() * 1e3;
            }
            let class = op();
            sent.push((due, class, due.elapsed().as_secs_f64() * 1e6));
        }
        let fallback = self.speed.median_slowdown();
        for (due, class, latency) in sent {
            let slowdown = self.speed.slowdown_at(due, fallback);
            self.latencies[class].push(latency);
            self.steady_latencies[class].push(latency / slowdown);
        }
    }

    /// Closed-loop requests/s: the median over untraced blocks, so a stall
    /// caused by another process hits one block rather than the figure.
    fn rate(&self) -> f64 {
        median(&self.block_rates[0])
    }

    fn steady_rate(&self) -> f64 {
        median(&self.steady_rates)
    }

    /// Extra time per request in traced blocks, as a share of untraced.
    fn overhead_share(&self) -> f64 {
        let per_block = |k: usize| self.block_time[k] / self.block_rates[k].len().max(1) as f64;
        if self.block_rates[1].is_empty() {
            0.0
        } else {
            per_block(1) / per_block(0) - 1.0
        }
    }
}

// ---------------------------------------------------------------------
// bulk_mine: raw text to a checkpointed, indexed, sentiment-indexed
// cluster, then a crashed node's restart.

fn bulk_mine(args: &Args, plan: &Plan) -> Result<Outcome, String> {
    let docs = sut::camera_docs(args.seed, plan.bulk_docs);
    let searches = search_queries(args.seed);
    let mut out = Outcome::default();
    // one fresh-process boot per iteration, so the samples span the run
    let mut speed = calib::Speed::default();
    // wall and steady figures of each boot, iteration and restart
    let mut setup: Vec<calib::Sample> = Vec::new();
    let mut rates: Vec<(f64, f64)> = Vec::new();
    let mut recoveries: Vec<calib::Sample> = Vec::new();
    let mut slowest_recoveries: Vec<calib::Sample> = Vec::new();
    let mut first_fingerprint: Option<Vec<(&'static str, u64)>> = None;
    let mut traced: Option<(System, MineStats, usize)> = None;
    // Untraced runs repeat until `--seconds` have been measured. Trace
    // runs do untraced, traced, untraced: the traced iteration gives the
    // layers, its neighbours the tracing overhead.
    let (min_iterations, max_iterations) = if args.trace { (3, 3) } else { (2, usize::MAX) };
    let mut iteration_s = Vec::new();
    let mut measured = 0.0;
    let mut iteration = 0;
    while iteration < min_iterations || (measured < args.seconds && iteration < max_iterations) {
        setup.push(cold_boot(&mut speed)?);
        spans::enable(args.trace && iteration == 1);
        let mut sys = System::boot(Storage::Memory, Mining::NamedEntities)?;
        let batch = sut::raw_batch(&docs);

        // Each step is timed on its own, between calibration bursts.
        let mut dataflow = calib::Sample::default();
        let mined = {
            let _p = span("phase.bulk");
            let d = &mut dataflow;
            speed.step(d, || sys.ingest(batch));
            speed.step(d, || sys.checkpoint())?;
            let mined = speed.step(d, || sys.mine());
            speed.step(d, || sys.build_index());
            speed.step(d, || sys.build_sindex());
            mined
        };
        let n = docs.len() as f64;
        rates.push((n / dataflow.wall_s, n / dataflow.steady_s));
        out.attempted += docs.len() as u64;

        // Each node in turn crashes and restarts until it serves again.
        let mut reindexed = 0;
        let mut slowest = calib::Sample::default();
        let mut recover = calib::Sample::default();
        for node in 0..sut::NODES as u32 {
            sys.crash(node);
            let _p = span("phase.recover");
            let (restarted, time) = speed.bracket(|| sys.restart(node));
            reindexed += restarted?;
            recoveries.push(time);
            if time.steady_s > slowest.steady_s {
                slowest = time;
            }
            recover += time;
            out.attempted += 1;
        }
        sys.start_serving()?;
        slowest_recoveries.push(slowest);
        iteration_s.push(dataflow.steady_s + recover.steady_s);
        measured += dataflow.wall_s + recover.wall_s;

        check_pipeline(&mut out.checks, &mined, docs.len());
        check_replay(&sys, &mut out.checks, "replay");
        let reference = check_searches(&sys, &searches, &mut out.checks, "search", true);
        let tally = sys.reference_tally();
        check_serving(&sys, &ServeSet::new(&tally), &tally, &mut out.checks);
        let fp = fingerprint(&sys, &mined, &reference, &tally);
        match &first_fingerprint {
            None => first_fingerprint = Some(fp),
            Some(first) => out.checks.record("determinism", true, *first == fp, || {
                format!("iteration {iteration} fingerprint {fp:?} differs from {first:?}")
            }),
        }
        if args.trace && iteration == 1 {
            traced = Some((sys, mined, reindexed));
        }
        iteration += 1;
    }
    spans::enable(false);
    while setup.len() < plan.cold_boots {
        setup.push(cold_boot(&mut speed)?);
    }
    out.fingerprint = first_fingerprint.unwrap_or_default();
    add_check_counts(&mut out);

    let rss = peak_rss_mb();
    let rate = median(&rates.iter().map(|r| r.0).collect::<Vec<_>>());
    out.end_to_end = BTreeMap::from([
        ("setup_s", steady_median(&setup)),
        (
            "throughput_per_s",
            median(&rates.iter().map(|r| r.1).collect::<Vec<_>>()),
        ),
        ("latency_ms", steady_median(&recoveries) * 1e3),
        ("tail_latency_ms", steady_median(&slowest_recoveries) * 1e3),
        ("peak_rss_mb", rss),
    ]);
    out.slowdown = speed.median_slowdown();
    out.report = vec![
        ("setup_s", wall_median(&setup), "s"),
        ("bulk_docs_per_s", rate, "docs/s"),
        ("recover_s", wall_median(&recoveries), "s"),
        ("recover_slowest_s", wall_median(&slowest_recoveries), "s"),
        ("restarts", recoveries.len() as f64, "count"),
        ("peak_rss_mb", rss, "MB"),
        ("docs", docs.len() as f64, "count"),
        ("iterations", iteration as f64, "count"),
    ];
    if let Some((sys, mined, reindexed)) = traced {
        let mut ctx = LayerCtx::new(&sys, &mined, &docs);
        ctx.reindexed = reindexed / sut::NODES;
        ctx.overhead_share = 2.0 * iteration_s[1] / (iteration_s[0] + iteration_s[2]) - 1.0;
        ctx.nlp_s = nlp_seconds(&docs);
        out.layers = layer_metrics(&ctx, out.failed_share());
    }
    Ok(out)
}

/// Set-up of the batch job: booting the cluster and constructing the
/// miners, whose resources load once per process. Each sample is the
/// first boot of a fresh process, so work moved into lazily built
/// resources shows here.
fn cold_boot(speed: &mut calib::Speed) -> Result<calib::Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let (output, time) = speed.bracket(|| {
        std::process::Command::new(&exe)
            .args(["--workload", "bulk_mine", "--probe-boot"])
            .output()
    });
    let output = output.map_err(|e| format!("boot probe: {e}"))?;
    let boot_s: f64 = String::from_utf8_lossy(&output.stdout)
        .trim()
        .strip_prefix("boot_s ")
        .and_then(|v| v.parse().ok())
        .filter(|_| output.status.success())
        .ok_or_else(|| "boot probe printed no time".to_string())?;
    // The boot's own time, with the slowdown the bracket measured.
    Ok(calib::Sample {
        wall_s: boot_s,
        steady_s: boot_s * time.steady_s / time.wall_s,
    })
}

/// Folds the reference checks into `attempted` / `failed`.
fn add_check_counts(out: &mut Outcome) {
    for c in out.checks.0.values() {
        out.attempted += c.attempted;
        out.failed += c.failed;
    }
}

fn nlp_seconds(docs: &[Doc]) -> f64 {
    let t = Instant::now();
    sut::nlp_annotate(docs);
    secs(t)
}

// ---------------------------------------------------------------------
// serve_read: Mode B real-time reads over a prebuilt index.

enum Read {
    Subject(usize),
    TopK(usize),
    Search(usize),
}

/// The request class of the `n`th read repeats every ten requests: 7
/// subject lookups, 1 top-k, 2 searches. A fixed cycle keeps every block
/// of the closed loop at the same mix; the choice within a class is
/// random.
fn pick_read(n: u64, rng: &mut Rng, set: &ServeSet, searches: usize) -> Read {
    match n % 10 {
        0..=6 => Read::Subject(set.pick_subject(rng)),
        7 => Read::TopK(rng.below(set.topk.len())),
        _ => Read::Search(rng.below(searches)),
    }
}

fn serve_read(args: &Args, plan: &Plan) -> Result<Outcome, String> {
    let mut docs = sut::camera_docs(args.seed, plan.read_docs / 2);
    docs.extend(sut::music_docs(
        args.seed.wrapping_add(1),
        plan.read_docs - plan.read_docs / 2,
    ));
    let searches = search_queries(args.seed);
    let mut out = Outcome::default();
    let mut timed = Timed::default();
    let speed = &mut timed.speed;
    let mut setup = Vec::new();
    let mut booted: Option<(System, MineStats)> = None;
    for rep in 0..plan.setup_reps {
        drop(booted.take());
        spans::enable(args.trace && rep + 1 == plan.setup_reps);
        let batch = sut::raw_batch(&docs);
        let _p = span("phase.setup");
        let t = &mut calib::Sample::default();
        let mut sys = speed.step(t, || System::boot(Storage::Memory, Mining::NamedEntities))?;
        speed.step(t, || sys.ingest(batch));
        speed.step(t, || sys.checkpoint())?;
        let mined = speed.step(t, || sys.mine());
        speed.step(t, || sys.build_index());
        speed.step(t, || sys.build_sindex());
        speed.step(t, || sys.start_serving())?;
        setup.push(*t);
        booted = Some((sys, mined));
    }
    let (sys, mined) = booted.ok_or("no set-up ran")?;

    check_pipeline(&mut out.checks, &mined, docs.len());
    check_replay(&sys, &mut out.checks, "replay");
    let reference = check_searches(&sys, &searches, &mut out.checks, "search", true);
    let tally = sys.reference_tally();
    let set = ServeSet::new(&tally);
    let (subject_answers, topk_answers) = check_serving(&sys, &set, &tally, &mut out.checks);
    out.fingerprint = fingerprint(&sys, &mined, &reference, &tally);

    // Timed answers must equal the validated ones: the index is read-only.
    let mut rng = Rng::new(args.seed ^ 0x5EED_0001);
    let checks = &mut out.checks;
    let mut answer_postings = (0u64, 0u64);
    let mut sent = 0u64;
    let mut read = |rng: &mut Rng| {
        sent += 1;
        let ok = match pick_read(sent, rng, &set, searches.len()) {
            Read::Subject(i) => {
                let (answer, cost) = sys.serve(&set.requests[i], "serve.subject");
                answer_postings.0 += cost;
                answer_postings.1 += 1;
                subject_answers[i].as_ref() == Some(&answer)
            }
            Read::TopK(i) => {
                let (answer, cost) = sys.serve(&set.topk[i].0, "serve.topk");
                answer_postings.0 += cost;
                answer_postings.1 += 1;
                topk_answers[i].as_ref() == Some(&answer)
            }
            Read::Search(i) => sys.search(&searches[i].text, searches[i].layer) == reference[i],
        };
        checks.record("timed_answers", true, ok, || {
            format!("timed request {sent} differs from its checked answer")
        });
    };

    let closed_s = args.seconds * CLOSED_SHARE / ROUNDS as f64;
    let per_round = plan.read_rate * args.seconds * (1.0 - CLOSED_SHARE) / ROUNDS as f64;
    for _ in 0..ROUNDS {
        timed.closed_loop(args.trace, 256, |_, s| s >= closed_s, || read(&mut rng));
        timed.open_loop(plan.read_rate, per_round.round().max(1.0) as usize, || {
            read(&mut rng);
            0
        });
    }
    spans::enable(false);
    add_check_counts(&mut out);

    let rps = timed.rate();
    let lat = sorted(timed.latencies[0].clone());
    let steady = sorted(timed.steady_latencies[0].clone());
    let rss = peak_rss_mb();
    out.end_to_end = BTreeMap::from([
        ("setup_s", steady_median(&setup)),
        ("throughput_per_s", timed.steady_rate()),
        ("latency_ms", percentile(&steady, 50.0) / 1e3),
        // p95, not p99: about one run in ten has enough stalls of the
        // host to set the p99 (see README.md).
        ("tail_latency_ms", percentile(&steady, 95.0) / 1e3),
        ("peak_rss_mb", rss),
    ]);
    out.slowdown = timed.speed.median_slowdown();
    out.report = vec![
        ("setup_s", wall_median(&setup), "s"),
        ("read_rps", rps, "req/s"),
        ("read_p50_us", percentile(&lat, 50.0), "us"),
        ("read_p95_us", percentile(&lat, 95.0), "us"),
        ("read_p99_us", percentile(&lat, 99.0), "us"),
        ("peak_rss_mb", rss, "MB"),
        ("docs", docs.len() as f64, "count"),
        ("open_loop_rate", plan.read_rate, "req/s"),
        ("read_samples", lat.len() as f64, "count"),
        ("loadgen_lateness_ms", timed.lateness_ms, "ms"),
    ];
    if args.trace {
        let mut ctx = LayerCtx::new(&sys, &mined, &docs);
        ctx.overhead_share = timed.overhead_share();
        ctx.lateness_ms = timed.lateness_ms;
        ctx.answer_postings = answer_postings.0 as f64 / answer_postings.1.max(1) as f64;
        ctx.nlp_s = nlp_seconds(&docs);
        out.layers = layer_metrics(&ctx, out.failed_share());
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// update_mix: point writes, re-mined one at a time, between searches.

/// The documents a write may target, and where new text comes from.
struct Writes<'a> {
    live: Vec<u64>,
    pool: &'a [Doc],
    done: u64,
    /// Text bytes written by updates (ingest counts inserted bytes).
    user_bytes: u64,
}

/// Writes cycle update, update, insert, update, delete: 60% updates,
/// 20% inserts and 20% deletes. The split is an assumption, not a
/// measured workload: inserts equal deletes so the corpus size stays
/// level, and a fixed cycle makes every block of writes cost alike. At
/// 80/10/10 and 40/30/30 the median write is still an update and most
/// writes above the p99 are still deletes (see README.md).
fn write_op(sys: &System, rng: &mut Rng, w: &mut Writes<'_>) -> Result<(), String> {
    let doc = &w.pool[w.done as usize % w.pool.len()];
    let kind = w.done % 5;
    w.done += 1;
    match kind {
        2 => {
            let id = sys.insert(doc, w.done as usize)?;
            w.live.push(id);
            Ok(())
        }
        4 if w.live.len() > 1 => {
            let id = w.live.swap_remove(rng.below(w.live.len()));
            sys.delete(id)
        }
        _ => {
            let id = w.live[rng.below(w.live.len())];
            w.user_bytes += doc.text.len() as u64;
            sys.update(id, &doc.text)
        }
    }
}

fn update_mix(args: &Args, plan: &Plan) -> Result<Outcome, String> {
    let scratch = PathBuf::from(".perfbench_tmp");
    let root = scratch.join(format!("update_mix-{}", std::process::id()));
    let result = update_mix_in(args, plan, &root);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(&scratch); // only if no other run uses it
    result
}

fn update_mix_in(args: &Args, plan: &Plan, root: &Path) -> Result<Outcome, String> {
    let docs = sut::camera_docs(args.seed, plan.update_docs);
    let pool = sut::camera_docs(args.seed.wrapping_add(7), plan.write_pool);
    let searches = search_queries(args.seed);
    let mut out = Outcome::default();
    let mut timed = Timed::default();
    let speed = &mut timed.speed;
    let mut setup = Vec::new();
    let mut booted: Option<(System, MineStats)> = None;
    for rep in 0..plan.setup_reps {
        drop(booted.take());
        let dir = root.join(format!("rep{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        spans::enable(args.trace && rep + 1 == plan.setup_reps);
        let batch = sut::raw_batch(&docs);
        let _p = span("phase.setup");
        let t = &mut calib::Sample::default();
        let sys = speed.step(t, || {
            System::boot(Storage::Dir(&dir), Mining::CameraProducts)
        })?;
        speed.step(t, || sys.ingest(batch));
        speed.step(t, || sys.checkpoint())?;
        let mined = speed.step(t, || sys.mine());
        speed.step(t, || sys.build_index());
        setup.push(*t);
        booted = Some((sys, mined));
    }
    let (sys, mined) = booted.ok_or("no set-up ran")?;

    check_pipeline(&mut out.checks, &mined, docs.len());
    check_replay(&sys, &mut out.checks, "replay");
    let reference = check_searches(&sys, &searches, &mut out.checks, "search", true);
    out.fingerprint = fingerprint(&sys, &mined, &reference, &sys.reference_tally());

    let mut rng = Rng::new(args.seed ^ 0x5EED_0002);
    let mut writes = Writes {
        live: sys.doc_ids(),
        pool: &pool,
        done: 0,
        user_bytes: 0,
    };
    let checks = &mut out.checks;
    let mut ops = 0u64;
    // Every tenth operation is a write, so writes never queue behind
    // writes at the open loop's rate and every closed-loop block holds the
    // same mix.
    let mut op = |rng: &mut Rng, w: &mut Writes<'_>| -> usize {
        ops += 1;
        let (class, result) = if !ops.is_multiple_of(10) {
            let s = &searches[rng.below(searches.len())];
            (0, sys.search(&s.text, s.layer).map(|_| ()))
        } else {
            (1, write_op(&sys, rng, w))
        };
        checks.record("operations", true, result.is_ok(), || {
            format!("operation {ops}: {}", result.unwrap_err())
        });
        class
    };

    // All of `--seconds` goes to the open loop, so that at the fixed rate
    // the write tail has enough samples.
    let closed_per_round = (plan.mix_closed_ops * args.seconds / ROUNDS as f64).round() as u64;
    let open_per_round = (plan.mix_rate * args.seconds / ROUNDS as f64).round() as usize;
    for _ in 0..ROUNDS {
        timed.closed_loop(
            args.trace,
            200,
            |n, _| n >= closed_per_round,
            || {
                op(&mut rng, &mut writes);
            },
        );
        timed.open_loop(plan.mix_rate, open_per_round.max(1), || {
            op(&mut rng, &mut writes)
        });
    }

    // The audit after the writes: every search against a fresh scan.
    // Stale postings left by point writes are a known defect of the
    // index: they count as failures but do not gate the run.
    check_searches(
        &sys,
        &searches,
        &mut out.checks,
        "search_after_writes",
        false,
    );
    check_replay(&sys, &mut out.checks, "replay_after_writes");
    spans::enable(false);
    add_check_counts(&mut out);

    let ops_per_s = timed.rate();
    let reads = sorted(timed.latencies[0].clone());
    let writes_lat = sorted(timed.latencies[1].clone());
    let (w50, w95, w99) = (
        percentile(&writes_lat, 50.0),
        percentile(&writes_lat, 95.0),
        percentile(&writes_lat, 99.0),
    );
    let steady = sorted(timed.steady_latencies[1].clone());
    let rss = peak_rss_mb();
    out.end_to_end = BTreeMap::from([
        ("setup_s", steady_median(&setup)),
        ("throughput_per_s", timed.steady_rate()),
        ("latency_ms", percentile(&steady, 50.0) / 1e3),
        // p95, not p99: about one run in ten has enough stalls of the
        // host to set the p99 of 1,000 writes (see README.md).
        ("tail_latency_ms", percentile(&steady, 95.0) / 1e3),
        ("peak_rss_mb", rss),
    ]);
    out.slowdown = timed.speed.median_slowdown();
    out.report = vec![
        ("setup_s", wall_median(&setup), "s"),
        ("mix_ops_per_s", ops_per_s, "ops/s"),
        ("read_p50_us", percentile(&reads, 50.0), "us"),
        ("read_p99_us", percentile(&reads, 99.0), "us"),
        ("write_p50_us", w50, "us"),
        ("write_p99_us", w99, "us"),
        ("write_p95_us", w95, "us"),
        ("peak_rss_mb", rss, "MB"),
        ("docs", docs.len() as f64, "count"),
        ("open_loop_rate", plan.mix_rate, "ops/s"),
        ("read_samples", reads.len() as f64, "count"),
        ("write_samples", writes_lat.len() as f64, "count"),
        ("loadgen_lateness_ms", timed.lateness_ms, "ms"),
    ];
    if args.trace {
        let mut ctx = LayerCtx::new(&sys, &mined, &docs);
        ctx.overhead_share = timed.overhead_share();
        ctx.lateness_ms = timed.lateness_ms;
        ctx.user_bytes += writes.user_bytes;
        ctx.nlp_s = nlp_seconds(&docs);
        out.layers = layer_metrics(&ctx, out.failed_share());
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Per-layer metrics from the recorded spans and the program's counters

struct LayerCtx {
    mined: MineStats,
    docs: usize,
    reindexed: usize,
    counters: sut::Counters,
    user_bytes: u64,
    index_terms: usize,
    index_concepts: usize,
    index_postings_bytes: u64,
    sindex_postings: usize,
    overhead_share: f64,
    lateness_ms: f64,
    answer_postings: f64,
    nlp_s: f64,
}

impl LayerCtx {
    fn new(sys: &System, mined: &MineStats, docs: &[Doc]) -> LayerCtx {
        let counters = sys.counters();
        LayerCtx {
            mined: *mined,
            docs: docs.len(),
            reindexed: 0,
            user_bytes: counters.ingested_bytes,
            counters,
            index_terms: sys.index_terms(),
            index_concepts: sys.index_concepts(),
            index_postings_bytes: sys.index_postings_bytes(),
            sindex_postings: sys.sindex_postings(),
            overhead_share: 0.0,
            lateness_ms: 0.0,
            answer_postings: 0.0,
            nlp_s: 0.0,
        }
    }
}

struct Trace {
    records: Vec<spans::Record>,
    self_ns: BTreeMap<u32, u64>,
}

impl Trace {
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a spans::Record> + 'a {
        self.records.iter().filter(move |r| r.name == name)
    }

    fn sum_s(&self, name: &str) -> f64 {
        let ns: u64 = self.named(name).map(spans::Record::duration_ns).sum();
        ns as f64 / 1e9
    }

    fn p50_us(&self, name: &str) -> f64 {
        median(
            &self
                .named(name)
                .map(|r| r.duration_ns() as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    }

    fn p50_self_us(&self, name: &str) -> f64 {
        median(
            &self
                .named(name)
                .map(|r| self.self_ns[&r.id] as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    }

    /// Busy seconds per thread that ran `name` spans.
    fn busy_by_thread(&self, name: &str) -> Vec<f64> {
        let mut by: BTreeMap<u32, f64> = BTreeMap::new();
        for r in self.named(name) {
            *by.entry(r.thread).or_default() += r.duration_ns() as f64 / 1e9;
        }
        by.into_values().collect()
    }

    /// Share of the timed phases' busy time covered by their direct
    /// children, the layer calls. The open loop's waits for the next due
    /// request (`loadgen.idle`) and the calibration bursts between timed
    /// steps (`loadgen.calib`) are neither busy nor covered time.
    fn coverage(&self) -> f64 {
        let mut layers: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        let mut idle: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for r in &self.records {
            let by_parent = if r.name.starts_with("loadgen.") {
                &mut idle
            } else {
                &mut layers
            };
            by_parent
                .entry(r.parent)
                .or_default()
                .push((r.start_ns, r.end_ns));
        }
        let (mut covered, mut busy) = (0u64, 0u64);
        for phase in self.records.iter().filter(|r| {
            matches!(
                r.name,
                "phase.bulk" | "phase.recover" | "phase.closed" | "phase.open"
            )
        }) {
            let clipped = |spans: &mut BTreeMap<u32, Vec<(u64, u64)>>| {
                spans
                    .get_mut(&phase.id)
                    .map_or(0, |c| spans::covered_ns(c, phase.start_ns, phase.end_ns))
            };
            busy += phase.duration_ns() - clipped(&mut idle);
            covered += clipped(&mut layers);
        }
        if busy == 0 {
            0.0
        } else {
            covered as f64 / busy as f64
        }
    }
}

fn layer_metrics(ctx: &LayerCtx, failed_share: f64) -> BTreeMap<&'static str, f64> {
    let records = spans::records();
    let self_ns = spans::self_times(&records);
    let t = Trace { records, self_ns };
    let busy = t.busy_by_thread("miner.process");
    let busy_sum: f64 = busy.iter().sum();
    let skew = if busy.is_empty() {
        0.0
    } else {
        busy.iter().copied().fold(0.0, f64::max) / (busy_sum / busy.len() as f64)
    };
    let index_build_s = t.sum_s("index.build");
    let c = &ctx.counters;
    let mut m = BTreeMap::from([
        ("ingest.s", t.sum_s("ingest")),
        ("miner.s", t.sum_s("miner")),
        ("miner.busy_s", busy_sum),
        ("miner.shard_skew", skew),
        ("miner.failed", ctx.mined.failed as f64),
        ("miner.retries", ctx.mined.retries as f64),
        ("nlp.annotate_s", ctx.nlp_s),
        ("spotter.process_us", t.p50_us("spotter.process")),
        ("sentiment.process_us", t.p50_us("sentiment.process")),
        ("store.update_us", t.p50_self_us("store.update")),
        ("store.delete_us", t.p50_us("store.delete")),
        ("index.build_s", index_build_s),
        (
            "index.build_ns_per_doc",
            index_build_s * 1e9 / ctx.docs.max(1) as f64,
        ),
        ("index.postings_bytes", ctx.index_postings_bytes as f64),
        ("index.terms", ctx.index_terms as f64),
        ("index.concepts", ctx.index_concepts as f64),
        ("index.upsert_us", t.p50_us("index.upsert")),
        ("index.remove_us", t.p50_us("index.remove")),
        (
            "index.postings_scanned_per_query",
            c.postings_scanned as f64 / c.queries.max(1) as f64,
        ),
        ("query_parser.parse_us", t.p50_us("query_parser.parse")),
        ("sindex.build_s", t.sum_s("sindex.build")),
        (
            "sindex.rebuild_shard_s",
            t.p50_us("sindex.rebuild_shard") / 1e6,
        ),
        ("sindex.postings", ctx.sindex_postings as f64),
        ("serve.subject_us", t.p50_us("serve.subject")),
        ("serve.topk_us", t.p50_us("serve.topk")),
        ("serve.answer_postings", ctx.answer_postings),
        ("durable.checkpoint_s", t.sum_s("durable.checkpoint")),
        (
            "durable.replay_s",
            t.named("durable.replay")
                .take(sut::NODES)
                .map(spans::Record::duration_ns)
                .sum::<u64>() as f64
                / 1e9,
        ),
        (
            "durable.wal_bytes_per_user_byte",
            c.wal_bytes_appended as f64 / ctx.user_bytes.max(1) as f64,
        ),
        ("durable.snapshot_bytes", c.snapshot_bytes as f64),
        ("durable.fsyncs", c.fsyncs as f64),
        ("durable.records_appended", c.records_appended as f64),
        ("cluster.restart_s", t.p50_us("cluster.restart") / 1e6),
        ("cluster.reindexed", ctx.reindexed as f64),
        ("trace.spans", c.trace_spans as f64),
        ("evlog.emitted", c.evlog_emitted as f64),
        ("loadgen.lateness_ms", ctx.lateness_ms),
        ("tracing.overhead_share", ctx.overhead_share),
        ("tracing.coverage_share", t.coverage()),
        ("failed_share", failed_share),
    ]);
    for (shape, layer) in SHAPES {
        let name = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_prefix("index.query_us.") == Some(shape))
            .map(|(n, _)| *n)
            .expect("every shape has a per-layer metric");
        m.insert(name, t.p50_us(layer));
    }
    m
}
