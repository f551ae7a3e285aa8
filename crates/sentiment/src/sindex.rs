//! The precomputed, sharded sentiment index behind the serving tier.
//!
//! Mode B's offline half (Figure 3): the miners annotate every document
//! with per-(subject, sentence) `sentiment` annotations; this module
//! folds those annotations into polarity **postings** sharded the same
//! way the [`wf_platform::DataStore`] shards documents, so each cluster
//! node holds the sentiment postings for exactly the documents it owns.
//! Alongside the postings the index maintains one cluster-wide polarity
//! tally per subject, updated as postings are added and cleared. Query
//! time then never touches the NLP stack or the postings: "sentiment of
//! X" is one tally lookup and "top-k by polarity" ranks the tallies —
//! the paper's "real time response" requirement, made concrete.
//!
//! The shard-merge invariant (see `tests/serving.rs`): building the index
//! over an N-shard store and merging per-shard postings yields exactly
//! the postings of a single-shard build of the same corpus.

use std::collections::BTreeMap;
use wf_platform::{DataStore, Entity};
use wf_types::{DocId, Polarity, Span};

/// One precomputed (subject, sentence) polarity observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentimentPosting {
    pub doc: DocId,
    /// Index shard (= cluster node) owning the document.
    pub shard: u32,
    /// Canonical lowercased subject, as the miners annotate it.
    pub subject: String,
    pub polarity: Polarity,
    /// The sentiment-bearing sentence, located in the document…
    pub sentence_span: Span,
    /// …and materialized so serving never loads the entity.
    pub sentence: String,
}

impl SentimentPosting {
    /// Deterministic postings order: document, then position in it.
    fn sort_key(&self) -> (u64, usize, usize, i32) {
        (
            self.doc.0,
            self.sentence_span.start,
            self.sentence_span.end,
            self.polarity.score(),
        )
    }
}

/// Polarity tallies for one subject across every shard.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubjectSummary {
    pub subject: String,
    pub positive: u64,
    pub negative: u64,
    pub neutral: u64,
}

impl SubjectSummary {
    pub fn total(&self) -> u64 {
        self.positive + self.negative + self.neutral
    }

    /// Net polarity: positive minus negative mentions.
    pub fn net(&self) -> i64 {
        self.positive as i64 - self.negative as i64
    }

    /// The tally for one polarity class.
    pub fn count(&self, polarity: Polarity) -> u64 {
        match polarity {
            Polarity::Positive => self.positive,
            Polarity::Negative => self.negative,
            Polarity::Neutral => self.neutral,
        }
    }
}

/// One shard's subject → postings map.
#[derive(Debug, Clone, Default)]
pub struct SentimentIndexShard {
    postings: BTreeMap<String, Vec<SentimentPosting>>,
    posting_count: usize,
}

impl SentimentIndexShard {
    /// Postings for one subject, sorted by (doc, span).
    pub fn postings(&self, subject: &str) -> &[SentimentPosting] {
        self.postings.get(subject).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn posting_count(&self) -> usize {
        self.posting_count
    }

    /// Inserts keeping each subject's postings sorted, so incremental
    /// adds and bulk builds produce identical layouts.
    fn add(&mut self, posting: SentimentPosting) {
        let list = self.postings.entry(posting.subject.clone()).or_default();
        let at = list
            .binary_search_by_key(&posting.sort_key(), SentimentPosting::sort_key)
            .unwrap_or_else(|i| i);
        list.insert(at, posting);
        self.posting_count += 1;
    }
}

/// Position of a polarity's count in a tally.
fn tally_slot(polarity: Polarity) -> usize {
    match polarity {
        Polarity::Positive => 0,
        Polarity::Negative => 1,
        Polarity::Neutral => 2,
    }
}

fn summary_of(subject: &str, tally: &[u64; 3]) -> SubjectSummary {
    SubjectSummary {
        subject: subject.to_string(),
        positive: tally[0],
        negative: tally[1],
        neutral: tally[2],
    }
}

/// The cluster-wide sentiment index: one [`SentimentIndexShard`] per
/// store shard, co-located with `platform::index` on each node.
#[derive(Debug, Clone)]
pub struct ShardedSentimentIndex {
    shards: Vec<SentimentIndexShard>,
    /// Positive / negative / neutral postings per subject across every
    /// shard; a subject is a key exactly while some shard holds a
    /// posting for it.
    tallies: BTreeMap<String, [u64; 3]>,
}

impl ShardedSentimentIndex {
    /// An empty index with `shard_count` shards (≥ 1 enforced by
    /// clamping).
    pub fn new(shard_count: usize) -> Self {
        ShardedSentimentIndex {
            shards: vec![SentimentIndexShard::default(); shard_count.max(1)],
            tallies: BTreeMap::new(),
        }
    }

    /// Builds the index from every mined entity in the store, placing
    /// postings on the shard that owns the document (`store.node_of`).
    pub fn build_from_store(store: &DataStore) -> Self {
        let mut index = ShardedSentimentIndex::new(store.shard_count());
        store.for_each(|entity| {
            let shard = store.node_of(entity.id).0;
            index.add_entity(entity, shard);
        });
        index
    }

    /// Folds one entity's `sentiment` annotations into `shard` — the
    /// incremental-ingest path: call it as freshly mined documents land.
    pub fn add_entity(&mut self, entity: &Entity, shard: u32) {
        let slot = (shard as usize).min(self.shards.len() - 1);
        for ann in entity.annotations_of("sentiment") {
            let (Some(subject), Some(polarity)) = (ann.attr("subject"), ann.attr("polarity"))
            else {
                continue;
            };
            let Some(polarity) = Polarity::parse(polarity) else {
                continue;
            };
            let subject = subject.to_lowercase();
            // look up first: `entry` would clone the subject per posting
            match self.tallies.get_mut(&subject) {
                Some(tally) => tally[tally_slot(polarity)] += 1,
                None => {
                    let mut tally = [0; 3];
                    tally[tally_slot(polarity)] = 1;
                    self.tallies.insert(subject.clone(), tally);
                }
            }
            self.shards[slot].add(SentimentPosting {
                doc: entity.id,
                shard,
                subject,
                polarity,
                sentence_span: ann.span,
                sentence: ann.span.slice(&entity.text).trim().to_string(),
            });
        }
    }

    /// Drops one shard's postings (its node crashed), returning how
    /// many were lost, and takes them out of the tallies. Out-of-range
    /// shards clamp like `add_entity`.
    pub fn clear_shard(&mut self, shard: u32) -> usize {
        let slot = (shard as usize).min(self.shards.len() - 1);
        let cleared = std::mem::take(&mut self.shards[slot]);
        for (subject, postings) in &cleared.postings {
            let tally = self
                .tallies
                .get_mut(subject)
                .expect("every posting is tallied");
            for posting in postings {
                tally[tally_slot(posting.polarity)] -= 1;
            }
            if tally.iter().all(|&n| n == 0) {
                self.tallies.remove(subject);
            }
        }
        cleared.posting_count
    }

    /// Rebuilds one shard from recovered entities (clear + re-add): the
    /// incremental half of crash recovery, fed by the WAL replay via
    /// `Cluster::restart_node_with`. Sorted insertion makes the result
    /// identical to a bulk build over the same corpus. Returns the
    /// shard's posting count after the rebuild.
    pub fn rebuild_shard(&mut self, shard: u32, entities: &[Entity]) -> usize {
        self.clear_shard(shard);
        for entity in entities {
            self.add_entity(entity, shard);
        }
        let slot = (shard as usize).min(self.shards.len() - 1);
        self.shards[slot].posting_count
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn shard(&self, i: usize) -> &SentimentIndexShard {
        &self.shards[i]
    }

    /// Total postings across every shard.
    pub fn posting_count(&self) -> usize {
        self.shards
            .iter()
            .map(SentimentIndexShard::posting_count)
            .sum()
    }

    /// All indexed subjects, deduplicated and sorted.
    pub fn subjects(&self) -> Vec<String> {
        self.tallies.keys().cloned().collect()
    }

    /// One subject's postings merged across shards in deterministic
    /// (doc, span) order — what the shard-merge invariant compares.
    pub fn merged_postings(&self, subject: &str) -> Vec<SentimentPosting> {
        let mut merged: Vec<SentimentPosting> = self
            .shards
            .iter()
            .flat_map(|s| s.postings(subject).iter().cloned())
            .collect();
        merged.sort_by_key(SentimentPosting::sort_key);
        merged
    }

    /// Polarity tallies for one subject, or `None` when no shard holds
    /// a posting for it.
    pub fn summary(&self, subject: &str) -> Option<SubjectSummary> {
        self.tallies
            .get(subject)
            .map(|tally| summary_of(subject, tally))
    }

    /// The `k` subjects with the most `polarity` mentions (count
    /// descending, subject ascending on ties) — the Sifaka-style
    /// analytics surface.
    pub fn top_k(&self, k: usize, polarity: Polarity) -> Vec<SubjectSummary> {
        let mut ranked: Vec<(&String, &[u64; 3])> = self.tallies.iter().collect();
        // stable: equal counts keep the map's ascending subject order
        ranked.sort_by_key(|(_, tally)| std::cmp::Reverse(tally[tally_slot(polarity)]));
        ranked
            .into_iter()
            .take(k)
            .map(|(subject, tally)| summary_of(subject, tally))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_platform::{Annotation, SourceKind};

    /// An entity with one sentiment annotation per (subject, polarity)
    /// pair, each covering a distinct slice of the text.
    fn entity(uri: &str, marks: &[(&str, Polarity)]) -> Entity {
        let text = "0123456789".repeat(marks.len().max(1));
        let mut e = Entity::new(uri, SourceKind::Web, &text);
        for (i, (subject, polarity)) in marks.iter().enumerate() {
            e.annotate(
                Annotation::new("sentiment", Span::new(i * 10, i * 10 + 10))
                    .with_attr("subject", subject.to_string())
                    .with_attr("polarity", polarity.to_string()),
            );
        }
        e
    }

    fn seeded_store(shards: usize) -> DataStore {
        let store = DataStore::new(shards).unwrap();
        store.insert(entity(
            "a",
            &[("canon", Polarity::Positive), ("nikon", Polarity::Negative)],
        ));
        store.insert(entity("b", &[("canon", Polarity::Positive)]));
        store.insert(entity("c", &[("canon", Polarity::Negative)]));
        store.insert(entity("d", &[("nikon", Polarity::Neutral)]));
        store
    }

    #[test]
    fn build_shards_by_document_owner() {
        let store = seeded_store(2);
        let index = ShardedSentimentIndex::build_from_store(&store);
        assert_eq!(index.shard_count(), 2);
        assert_eq!(index.posting_count(), 5);
        for shard_id in 0..2 {
            for posting in index.shard(shard_id).postings("canon") {
                assert_eq!(store.node_of(posting.doc).0 as usize, shard_id);
            }
        }
    }

    #[test]
    fn summary_tallies_across_shards() {
        let index = ShardedSentimentIndex::build_from_store(&seeded_store(3));
        let canon = index.summary("canon").unwrap();
        assert_eq!((canon.positive, canon.negative, canon.neutral), (2, 1, 0));
        assert_eq!(canon.net(), 1);
        let nikon = index.summary("nikon").unwrap();
        assert_eq!((nikon.positive, nikon.negative, nikon.neutral), (0, 1, 1));
        assert!(index.summary("pentax").is_none());
    }

    #[test]
    fn merged_postings_match_single_shard_build() {
        let sharded = ShardedSentimentIndex::build_from_store(&seeded_store(3));
        let single = ShardedSentimentIndex::build_from_store(&seeded_store(1));
        for subject in sharded.subjects() {
            let merged: Vec<_> = sharded
                .merged_postings(&subject)
                .into_iter()
                .map(|p| (p.doc, p.sentence_span, p.polarity))
                .collect();
            let flat: Vec<_> = single
                .merged_postings(&subject)
                .into_iter()
                .map(|p| (p.doc, p.sentence_span, p.polarity))
                .collect();
            assert_eq!(merged, flat, "subject {subject}");
        }
    }

    #[test]
    fn top_k_ranks_by_polarity_count() {
        let index = ShardedSentimentIndex::build_from_store(&seeded_store(2));
        let top = index.top_k(2, Polarity::Positive);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].subject, "canon");
        assert_eq!(top[0].positive, 2);
        let top_neg = index.top_k(1, Polarity::Negative);
        // canon and nikon tie at 1 negative; the subject tie-break wins
        assert_eq!(top_neg[0].subject, "canon");
    }

    #[test]
    fn rebuild_shard_matches_bulk_after_clear() {
        use wf_types::NodeId;
        let store = seeded_store(2);
        let bulk = ShardedSentimentIndex::build_from_store(&store);
        let mut index = ShardedSentimentIndex::build_from_store(&store);
        let dropped = index.clear_shard(0);
        assert!(dropped > 0, "shard 0 had postings to lose");
        assert_eq!(index.posting_count(), bulk.posting_count() - dropped);
        let recovered: Vec<Entity> = store
            .shard_ids(NodeId(0))
            .into_iter()
            .map(|id| store.get(id).unwrap())
            .collect();
        let rebuilt = index.rebuild_shard(0, &recovered);
        assert_eq!(rebuilt, dropped, "rebuild restores every posting");
        for subject in bulk.subjects() {
            assert_eq!(
                bulk.merged_postings(&subject),
                index.merged_postings(&subject),
                "subject {subject}"
            );
        }
    }

    #[test]
    fn incremental_add_matches_bulk_build() {
        let store = seeded_store(2);
        let bulk = ShardedSentimentIndex::build_from_store(&store);
        let mut incremental = ShardedSentimentIndex::new(store.shard_count());
        // feed documents in reverse to prove order-insensitivity
        let mut ids = store.ids();
        ids.reverse();
        for id in ids {
            let entity = store.get(id).unwrap();
            incremental.add_entity(&entity, store.node_of(id).0);
        }
        for subject in bulk.subjects() {
            assert_eq!(
                bulk.merged_postings(&subject),
                incremental.merged_postings(&subject)
            );
        }
    }
}
