//! Acceptance suite for the query-time sentiment serving tier
//! (`wf_platform::serving` + `wf_sentiment::{sindex, serve}`).
//!
//! Locks down the PR's guarantees end to end:
//!
//! 1. **Cache coherence** (property) — any answer served from the LRU
//!    result cache is byte-identical to recomputing the same request
//!    against the sentiment index.
//! 2. **Shard-merge** (property) — merging per-shard postings of a
//!    4-way sharded index reproduces exactly the single-shard build:
//!    same postings, same summaries, same top-k ranking.
//! 3. **Conservation under chaos** — with a pinned seed, injected
//!    faults, a mid-stream slow shard, and a mid-stream node loss,
//!    every arrival is accounted for: `requests == ok + shed + errors`,
//!    on both the report and the `serving.*` telemetry counters.
//! 4. **Determinism** — same-seed chaos runs export byte-identical
//!    reports and byte-identical `serving.*` telemetry snapshots, and
//!    the snapshot matches a golden file (`UPDATE_GOLDEN=1` regens).
//! 5. **SLO wiring** — the serving-latency SLO from `default_slos()`
//!    fires under the chaos scenario, so `wfsm doctor` observes the
//!    serving tier like any other subsystem.
//! 6. **Tallies equal a recount** (property) — after any sequence of
//!    entity adds, shard clears and shard rebuilds, the index's
//!    maintained polarity tallies answer `summary`, `top_k`, `subjects`
//!    and `sentiment of X` exactly as a recount of the postings would.
//! 7. **Answer time is flat in posting count** — a subject answer and a
//!    top-k answer take about as long when the head subject has 16×
//!    the postings.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Instant;
use wf_platform::{
    default_slos, Annotation, DataStore, Entity, FaultPlan, HealthEngine, NodeHealth, ServeLoop,
    ServingBackend, ServingConfig, SourceKind, Telemetry, TelemetrySnapshot,
};
use wf_sentiment::{SentimentServingBackend, ShardedSentimentIndex, SubjectSummary};
use wf_types::{DocId, Error, Polarity, Span};

const SUBJECTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
const POLARITIES: [Polarity; 3] = [Polarity::Positive, Polarity::Negative, Polarity::Neutral];

/// Decodes one generated mark (0..12) into a (subject, polarity) pair.
fn decode(mark: usize) -> (&'static str, Polarity) {
    (SUBJECTS[mark % 4], POLARITIES[(mark / 4) % 3])
}

/// One document per mark, annotated directly (no NLP pipeline) so the
/// property fixtures stay fast across the shim's 64 cases.
fn seeded_store(shards: usize, marks: &[usize]) -> DataStore {
    let store = DataStore::new(shards).unwrap();
    for (i, &mark) in marks.iter().enumerate() {
        let (subject, polarity) = decode(mark);
        let text = format!("document {i} mentions {subject} here");
        let mut entity = Entity::new(format!("test://serving/{i}"), SourceKind::Web, &text);
        entity.annotate(
            Annotation::new("sentiment", Span::new(0, text.len()))
                .with_attr("subject", subject.to_string())
                .with_attr("polarity", polarity.to_string()),
        );
        store.insert(entity);
    }
    store
}

/// The full request surface: every subject, both top-k forms, and an
/// unknown subject to keep the error path in play.
fn full_workload() -> Vec<String> {
    let mut pool: Vec<String> = SUBJECTS
        .iter()
        .map(|s| format!("sentiment of {s}"))
        .collect();
    pool.push("sentiment of alpha".to_string()); // popularity skew
    pool.push("sentiment of alpha".to_string());
    pool.push("top 2 +".to_string());
    pool.push("top 3 -".to_string());
    pool.push("sentiment of zorblax".to_string());
    pool
}

/// Renders only the `serving.*` slice of a telemetry snapshot, so the
/// byte-identity assertions are not diluted by unrelated subsystems.
fn serving_snapshot_json(snapshot: &TelemetrySnapshot) -> String {
    let mut filtered = TelemetrySnapshot::default();
    for (name, value) in &snapshot.counters {
        if name.starts_with("serving.") {
            filtered.counters.insert(name.clone(), *value);
        }
    }
    for (name, value) in &snapshot.gauges {
        if name.starts_with("serving.") {
            filtered.gauges.insert(name.clone(), *value);
        }
    }
    for (name, value) in &snapshot.histograms {
        if name.starts_with("serving.") {
            filtered.histograms.insert(name.clone(), value.clone());
        }
    }
    filtered.to_json_string() + "\n"
}

/// One entity with one `sentiment` annotation per mark, each over its
/// own 10-byte slice of the text.
fn marked_entity(id: u64, marks: &[usize]) -> Entity {
    let text = "0123456789".repeat(marks.len().max(1));
    let mut entity = Entity::new(format!("test://tally/{id}"), SourceKind::Web, &text);
    entity.id = DocId(id);
    for (i, &mark) in marks.iter().enumerate() {
        let (subject, polarity) = decode(mark);
        entity.annotate(
            Annotation::new("sentiment", Span::new(i * 10, i * 10 + 10))
                .with_attr("subject", subject.to_string())
                .with_attr("polarity", polarity.to_string()),
        );
    }
    entity
}

/// Every subject's polarity counts, recounted from its merged postings;
/// subjects without postings are left out.
fn recount(index: &ShardedSentimentIndex) -> Vec<SubjectSummary> {
    let mut counts = Vec::new();
    for subject in SUBJECTS {
        let postings = index.merged_postings(subject);
        if postings.is_empty() {
            continue;
        }
        let count = |p: Polarity| postings.iter().filter(|x| x.polarity == p).count() as u64;
        counts.push(SubjectSummary {
            subject: subject.to_string(),
            positive: count(Polarity::Positive),
            negative: count(Polarity::Negative),
            neutral: count(Polarity::Neutral),
        });
    }
    counts.sort_by(|a, b| a.subject.cmp(&b.subject));
    counts
}

proptest! {
    /// Cache-coherence invariant: every answer the serve loop marks as
    /// a cache hit carries exactly the bytes a fresh recomputation from
    /// the sentiment index produces.
    #[test]
    fn cache_hits_match_recomputation(
        marks in prop::collection::vec(0usize..12, 4..40),
        seed in 0u64..100_000,
    ) {
        let store = seeded_store(4, &marks);
        let backend = SentimentServingBackend::new(ShardedSentimentIndex::build_from_store(&store));
        let config = ServingConfig {
            seed,
            clients: 4,
            qps: 400,
            requests: 48,
            cache_capacity: 3, // small: force evictions and re-inserts
            record_answers: true,
            ..ServingConfig::default()
        };
        let report = ServeLoop::new(&backend, Telemetry::new(), config, full_workload())
            .run()
            .unwrap();
        prop_assert_eq!(report.answers.len() as u64, report.ok + report.errors);
        let mut hits_checked = 0;
        for answer in &report.answers {
            if !answer.cached {
                continue;
            }
            let fresh = backend.execute(&answer.request).unwrap();
            prop_assert!(
                answer.body == fresh.body,
                "cache hit for {:?} diverged from recomputation",
                &answer.request
            );
            hits_checked += 1;
        }
        prop_assert_eq!(hits_checked, report.cache_hits);
    }

    /// Shard-merge invariant: building the index 4-way sharded and
    /// merging per-shard postings reproduces the single-shard build
    /// exactly — postings, summaries, and top-k ranking.
    #[test]
    fn sharded_index_merges_to_single_shard_build(
        marks in prop::collection::vec(0usize..12, 1..40),
    ) {
        let sharded = ShardedSentimentIndex::build_from_store(&seeded_store(4, &marks));
        let single = ShardedSentimentIndex::build_from_store(&seeded_store(1, &marks));
        prop_assert_eq!(sharded.shard_count(), 4);
        prop_assert_eq!(single.shard_count(), 1);
        prop_assert_eq!(sharded.posting_count(), single.posting_count());
        prop_assert_eq!(sharded.subjects(), single.subjects());
        for subject in sharded.subjects() {
            let merged = sharded.merged_postings(&subject);
            let flat = single.merged_postings(&subject);
            prop_assert_eq!(merged.len(), flat.len());
            for (m, f) in merged.iter().zip(flat.iter()) {
                prop_assert_eq!(m.doc, f.doc);
                prop_assert_eq!(m.subject.clone(), f.subject.clone());
                prop_assert_eq!(m.polarity, f.polarity);
                prop_assert_eq!(m.sentence_span, f.sentence_span);
                prop_assert_eq!(m.sentence.clone(), f.sentence.clone());
            }
            prop_assert_eq!(sharded.summary(&subject), single.summary(&subject));
        }
        for polarity in POLARITIES {
            prop_assert_eq!(sharded.top_k(3, polarity), single.top_k(3, polarity));
        }
    }

    /// Tally invariant: after every step of a random history of adds
    /// (op 0), shard clears (op 1) and shard rebuilds (op 2), the
    /// maintained tallies equal a recount of the postings — summaries,
    /// every top-k ranking, the subject list and the served bodies.
    /// Shard 4 exercises the out-of-range clamp.
    #[test]
    fn tallies_equal_a_recount_of_the_postings(
        four_shards in 0usize..2,
        ops in prop::collection::vec(
            (0usize..3, 0u32..5, prop::collection::vec(0usize..12, 0..4)),
            1..24,
        ),
    ) {
        let mut index = ShardedSentimentIndex::new(if four_shards == 1 { 4 } else { 1 });
        let mut next_id = 0u64;
        // one entity per pair of marks, so a rebuild sees several
        let mut entities_of = |marks: &[usize]| -> Vec<Entity> {
            marks
                .chunks(2)
                .map(|chunk| {
                    next_id += 1;
                    marked_entity(next_id, chunk)
                })
                .collect()
        };
        for (op, shard, marks) in &ops {
            match op {
                0 => {
                    for entity in entities_of(marks) {
                        index.add_entity(&entity, *shard);
                    }
                }
                1 => {
                    index.clear_shard(*shard);
                }
                _ => {
                    index.rebuild_shard(*shard, &entities_of(marks));
                }
            }
            let expected = recount(&index);
            prop_assert_eq!(
                expected.iter().map(SubjectSummary::total).sum::<u64>(),
                index.posting_count() as u64
            );
            let names: Vec<String> = expected.iter().map(|s| s.subject.clone()).collect();
            prop_assert_eq!(index.subjects(), names);
            for subject in SUBJECTS {
                prop_assert_eq!(
                    index.summary(subject),
                    expected.iter().find(|s| s.subject == subject).cloned()
                );
            }
            for polarity in POLARITIES {
                let mut ranked = expected.clone();
                ranked.sort_by(|a, b| {
                    b.count(polarity)
                        .cmp(&a.count(polarity))
                        .then_with(|| a.subject.cmp(&b.subject))
                });
                for k in 1..=SUBJECTS.len() + 1 {
                    let top: Vec<SubjectSummary> = ranked.iter().take(k).cloned().collect();
                    prop_assert_eq!(index.top_k(k, polarity), top);
                }
            }
            let backend = SentimentServingBackend::new(index.clone());
            for subject in SUBJECTS {
                let answer = backend.execute(&format!("sentiment of {subject}"));
                match expected.iter().find(|s| s.subject == subject) {
                    Some(s) => {
                        let answer = answer.unwrap();
                        let body = format!(
                            "{{\"negative\":{},\"net\":{},\"neutral\":{},\"positive\":{},\
                             \"postings\":{},\"subject\":\"{}\"}}",
                            s.negative,
                            s.net(),
                            s.neutral,
                            s.positive,
                            s.total(),
                            s.subject
                        );
                        prop_assert_eq!(answer.body, body);
                        prop_assert_eq!(answer.cost_sim_ms, s.total());
                    }
                    None => prop_assert!(
                        matches!(answer, Err(Error::NotFound(_))),
                        "{subject} has no postings: {:?}",
                        answer
                    ),
                }
            }
        }
    }
}

/// The pinned chaos scenario shared by the conservation, determinism,
/// golden, and SLO tests: faults on the serving path, a shard turning
/// slow a third of the way in, and a node loss at the halfway mark.
const CHAOS_SEED: u64 = 20050405;

fn chaos_backend() -> SentimentServingBackend {
    let marks: Vec<usize> = (0..24).map(|i| i % 12).collect();
    let store = seeded_store(4, &marks);
    SentimentServingBackend::new(ShardedSentimentIndex::build_from_store(&store))
}

fn chaos_config(seed: u64) -> ServingConfig {
    ServingConfig {
        seed,
        clients: 6,
        qps: 800,
        requests: 240,
        cache_capacity: 8,
        queue_capacity: 32,
        ..ServingConfig::default()
    }
}

/// Runs the chaos scenario and returns the report plus the `serving.*`
/// telemetry export; optionally drives a health engine on the side.
fn chaos_run(
    seed: u64,
    mut engine: Option<&mut HealthEngine>,
) -> (wf_platform::ServingReport, String) {
    let backend = chaos_backend();
    let telemetry = Telemetry::new();
    if let Some(engine) = engine.as_deref_mut() {
        *engine = HealthEngine::with_telemetry(default_slos(), Arc::clone(&telemetry));
    }
    let telemetry_for_observer = Arc::clone(&telemetry);
    let mut observe = |now_sim_ms: u64| {
        if let Some(engine) = engine.as_deref_mut() {
            engine.observe(now_sim_ms, &telemetry_for_observer.snapshot());
        }
    };
    let report = ServeLoop::new(
        &backend,
        Arc::clone(&telemetry),
        chaos_config(seed),
        full_workload(),
    )
    .with_fault_plan(FaultPlan::uniform(seed, 0.15))
    .with_trigger(80, || backend.set_shard_health(1, NodeHealth::Degraded))
    .with_trigger(120, || backend.set_shard_health(2, NodeHealth::Down))
    .run_observed(&mut observe)
    .unwrap();
    (report, serving_snapshot_json(&telemetry.snapshot()))
}

/// Conservation law: every arrival is exactly one of ok / shed / error,
/// on the report and on the exported counters alike — even with faults,
/// a degraded shard, and a node loss mid-stream.
#[test]
fn chaos_stream_conserves_every_request() {
    let backend = chaos_backend();
    let telemetry = Telemetry::new();
    let report = ServeLoop::new(
        &backend,
        Arc::clone(&telemetry),
        chaos_config(CHAOS_SEED),
        full_workload(),
    )
    .with_fault_plan(FaultPlan::uniform(CHAOS_SEED, 0.15))
    .with_trigger(80, || backend.set_shard_health(1, NodeHealth::Degraded))
    .with_trigger(120, || backend.set_shard_health(2, NodeHealth::Down))
    .run()
    .unwrap();

    assert_eq!(report.requests, 240);
    assert_eq!(
        report.requests,
        report.ok + report.shed + report.errors,
        "conservation law violated: {report:?}"
    );
    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.counter("serving.requests"), report.requests);
    assert_eq!(
        snapshot.counter("serving.requests"),
        snapshot.counter("serving.ok")
            + snapshot.counter("serving.shed")
            + snapshot.counter("serving.errors"),
    );
    // The scenario actually exercises every path: successes before (and
    // cached ones after) the node loss, shedding under the slow shard's
    // convoy, and Unavailable/NotFound/injected errors.
    assert!(report.ok > 0, "no request succeeded: {report:?}");
    assert!(report.shed > 0, "admission control never shed: {report:?}");
    assert!(
        report.errors > 0,
        "node loss produced no errors: {report:?}"
    );
    assert!(report.cache_hits > 0, "cache never hit: {report:?}");
    assert_eq!(
        snapshot
            .histogram("serving.latency.sim_ms")
            .map(|h| h.count)
            .unwrap_or_default(),
        report.ok + report.errors,
        "every completion records a latency sample"
    );
}

/// Same seed, same bytes: the full report and the `serving.*` telemetry
/// export are byte-identical across runs. A different seed produces a
/// different trajectory (sanity check that the assertion has teeth).
#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    let (report_a, snapshot_a) = chaos_run(CHAOS_SEED, None);
    let (report_b, snapshot_b) = chaos_run(CHAOS_SEED, None);
    assert_eq!(report_a.to_json_string(), report_b.to_json_string());
    assert_eq!(snapshot_a, snapshot_b, "serving.* export must not drift");

    let (_, snapshot_other) = chaos_run(CHAOS_SEED + 1, None);
    assert_ne!(
        snapshot_a, snapshot_other,
        "different seeds should diverge; assertion would be vacuous"
    );
}

/// The `serving.*` export of the pinned chaos scenario matches the
/// checked-in golden byte for byte. `UPDATE_GOLDEN=1` regenerates.
#[test]
fn serving_snapshot_matches_golden() {
    let (_, snapshot) = chaos_run(CHAOS_SEED, None);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/serving_snapshot.json"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &snapshot).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden exists; UPDATE_GOLDEN=1 to create");
    assert_eq!(
        snapshot, golden,
        "serving snapshot drifted from golden; UPDATE_GOLDEN=1 to regen"
    );
}

/// The serving SLOs added to `default_slos()` actually observe the
/// workload: the latency objective breaches (and fires) under the slow
/// shard + node loss, deterministically.
#[test]
fn serving_slo_fires_under_chaos() {
    let mut engine = HealthEngine::with_telemetry(default_slos(), Telemetry::new());
    let (report, _) = chaos_run(CHAOS_SEED, Some(&mut engine));
    assert!(report.errors > 0);
    let status = engine.status();
    let latency = status
        .iter()
        .find(|s| s.name == "serving-latency-p95")
        .expect("default_slos carries the serving latency SLO");
    assert!(
        latency.firing,
        "slow-shard chaos must breach the serving latency SLO: {status:?}"
    );
    assert!(
        status.iter().any(|s| s.name == "serving-error-rate"),
        "default_slos carries the serving error-rate SLO"
    );
}

/// A 4-shard index with eight subjects: the head subject carries
/// `head_postings` positive postings (16 per document), the other seven
/// carry 10 each.
fn head_heavy_index(head_postings: usize) -> ShardedSentimentIndex {
    let mut index = ShardedSentimentIndex::new(4);
    let mut add = |id: u64, subject: &str, polarity: Polarity, marks: usize| {
        let text = "0123456789".repeat(marks);
        let mut entity = Entity::new(format!("test://scaling/{id}"), SourceKind::Web, &text);
        entity.id = DocId(id);
        for i in 0..marks {
            entity.annotate(
                Annotation::new("sentiment", Span::new(i * 10, i * 10 + 10))
                    .with_attr("subject", subject.to_string())
                    .with_attr("polarity", polarity.to_string()),
            );
        }
        index.add_entity(&entity, (id % 4) as u32);
    };
    for (i, subject) in ["c1", "c2", "c3", "c4", "c5", "c6", "c7"]
        .iter()
        .enumerate()
    {
        add(i as u64, subject, POLARITIES[i % 3], 10);
    }
    for doc in 0..head_postings / 16 {
        add(100 + doc as u64, "head", Polarity::Positive, 16);
    }
    index
}

/// Minimum over several runs of the time to answer each request 50 times.
fn answer_secs(backend: &SentimentServingBackend, request: &str) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..50 {
                backend.execute(request).unwrap();
            }
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Mode B answers in real time: neither a subject answer nor a top-k
/// answer may grow with the head subject's posting count. Per-request
/// work proportional to the postings would give a ratio near 16.
#[test]
fn answer_time_is_flat_in_posting_count() {
    const N: usize = 2_000;
    let small = SentimentServingBackend::new(head_heavy_index(N));
    let large = SentimentServingBackend::new(head_heavy_index(16 * N));
    assert_eq!(small.index().subjects(), large.index().subjects());
    for request in ["sentiment of head", "top 3 +"] {
        let t_small = answer_secs(&small, request);
        let t_large = answer_secs(&large, request);
        let ratio = t_large / t_small;
        println!("{request:?}: {N} postings {t_small:.6} s, 16x {t_large:.6} s, ratio {ratio:.2}");
        assert!(
            ratio <= 4.0,
            "{request:?} grew with the head subject's postings: {N} postings {t_small:.6} s, \
             {} postings {t_large:.6} s, ratio {ratio:.1} (flat ≈ 1, linear ≈ 16)",
            16 * N
        );
    }
}
