//! Index maintenance stays exact and linear.
//!
//! - A durable 4-node cluster, fully re-indexed and then crashed and
//!   restarted node by node, answers every query exactly as a naive index
//!   built from a store scan does, and the restarts leave the compressed
//!   postings byte-for-byte the size they were.
//! - `Cluster::rebuild_index` scales linearly: indexing 4N camera reviews
//!   takes at most 8× as long as indexing N of them. A build that
//!   re-encodes a posting list per out-of-order document is quadratic and
//!   lands near 16×.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;
use wf_corpus::{camera_reviews, ReviewConfig};
use wf_platform::{
    Cluster, DurableStorage, Entity, Indexer, Ingestor, MinerPipeline, Query, RawDocument,
    SourceKind,
};
use wf_sentiment::AdhocSentimentMiner;
use wf_types::NodeId;

/// The first `n` camera D+ reviews of one seed, tagged with a `parity`
/// metadata field.
fn camera_docs(n: usize) -> Vec<RawDocument> {
    let config = ReviewConfig {
        n_plus: n,
        n_minus: 0,
        ..ReviewConfig::camera()
    };
    camera_reviews(7, &config)
        .d_plus_texts()
        .into_iter()
        .enumerate()
        .map(|(i, text)| {
            RawDocument::new(format!("review://{i}"), SourceKind::Web, text)
                .with_metadata("parity", if i % 2 == 0 { "even" } else { "odd" })
        })
        .collect()
}

/// Every entity in the store, ascending by id.
fn scan(cluster: &Cluster) -> Vec<Entity> {
    let mut all = Vec::new();
    cluster.store().for_each(|e| all.push(e.clone()));
    all.sort_by_key(|e| e.id);
    all
}

/// One query per distinct term, concept token and metadata value in
/// `entities`, plus AND, NOT and phrase shapes over the first document.
fn queries(entities: &[Entity]) -> Vec<Query> {
    let mut terms = BTreeSet::new();
    let mut concepts = BTreeSet::new();
    let mut meta = BTreeSet::new();
    for e in entities {
        for token in e.text.split(|c: char| !c.is_alphanumeric()) {
            if !token.is_empty() {
                terms.insert(token.to_lowercase());
            }
        }
        for ann in &e.annotations {
            concepts.insert(ann.kind.clone());
            for (k, v) in &ann.attrs {
                concepts.insert(format!("{}:{}={}", ann.kind, k, v));
            }
        }
        for (field, value) in &e.metadata {
            meta.insert((field.clone(), value.clone()));
        }
    }
    let first: Vec<String> = entities[0]
        .text
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .take(2)
        .map(str::to_lowercase)
        .collect();
    let mut out: Vec<Query> = terms.into_iter().map(Query::Term).collect();
    out.extend(concepts.into_iter().map(Query::Concept));
    out.extend(meta.into_iter().map(|(f, v)| Query::MetaEquals(f, v)));
    out.push(Query::Phrase(first.clone()));
    out.push(Query::And(first.iter().cloned().map(Query::Term).collect()));
    out.push(Query::Not(Box::new(Query::Term(first[0].clone()))));
    out
}

/// The cluster's index answers every query as a naive index built from a
/// store scan does, with the same term, concept and doc counts.
fn assert_matches_store_scan(cluster: &Cluster, when: &str) {
    let entities = scan(cluster);
    let oracle = Indexer::naive();
    for e in &entities {
        oracle.index_entity(e);
    }
    let index = cluster.indexer();
    for query in queries(&entities) {
        assert_eq!(
            index.query(&query).unwrap(),
            oracle.query(&query).unwrap(),
            "{when}: {query:?}"
        );
    }
    assert_eq!(index.doc_count(), oracle.doc_count(), "{when}");
    assert_eq!(index.term_count(), oracle.term_count(), "{when}");
    assert_eq!(index.concept_count(), oracle.concept_count(), "{when}");
}

#[test]
fn restarted_nodes_reindex_to_the_store_scan() {
    let cluster = Cluster::new(4).unwrap();
    cluster
        .attach_durability(Arc::new(DurableStorage::in_memory(4).unwrap()))
        .unwrap();
    Ingestor::new(cluster.store()).ingest_batch(camera_docs(24));
    cluster.checkpoint().unwrap();
    // mined after the checkpoint, so the annotations replay from the WAL
    let pipeline = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
    let stats = cluster.run_pipeline(&pipeline);
    assert_eq!(stats.processed, 24);
    let rebuild = cluster.rebuild_index();
    assert_eq!(rebuild.indexed, 24);
    assert!(
        cluster.indexer().concept_count() > 0,
        "mining adds concepts"
    );
    assert_matches_store_scan(&cluster, "after rebuild");

    let bytes = cluster.indexer().postings_bytes();
    for node in 0..4 {
        let lost = cluster.drop_node_state(NodeId(node));
        let restart = cluster.restart_node(NodeId(node)).unwrap();
        assert_eq!(restart.reindexed, lost, "node {node}");
        assert_eq!(
            cluster.indexer().postings_bytes(),
            bytes,
            "restart of node {node} re-encoded postings differently"
        );
        assert_matches_store_scan(&cluster, &format!("after restart of node {node}"));
    }
}

/// Minimum over three fresh clusters of the wall time of one
/// `rebuild_index` over `docs`.
fn rebuild_secs(docs: &[RawDocument]) -> f64 {
    (0..3)
        .map(|_| {
            let cluster = Cluster::new(4).unwrap();
            Ingestor::new(cluster.store()).ingest_batch(docs.to_vec());
            let start = Instant::now();
            let stats = cluster.rebuild_index();
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(stats.indexed, docs.len());
            secs
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn rebuild_index_scales_linearly() {
    const N: usize = 250;
    let docs = camera_docs(4 * N);
    let small = rebuild_secs(&docs[..N]);
    let large = rebuild_secs(&docs);
    let ratio = large / small;
    println!(
        "rebuild_index: {N} docs {small:.4} s, {} docs {large:.4} s, ratio {ratio:.2}",
        4 * N
    );
    assert!(
        ratio <= 8.0,
        "rebuild_index grew super-linearly: {N} docs {small:.4} s, {} docs {large:.4} s, \
         ratio {ratio:.1} (linear ≈ 4, quadratic ≈ 16)",
        4 * N
    );
}
