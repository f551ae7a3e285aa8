//! The system under test: every call the benchmark makes into the
//! program lives in this file, so a change to the program's API has one
//! place to edit here.
//!
//! Each call into a layer's public entry point is wrapped in a span named
//! after the layer (see `spans`); with tracing off the spans are no-ops.
//! Only entry points meant to outlive the API clean-up are used: no
//! `_traced` / `_with` / `_explained` twins (the miner wrapper forwards
//! them because the trait requires it), no `persist`, `pagerank`, `geo`,
//! `clustering`, `dedup`, `boilerplate` or `stats`.

use crate::spans::{span, span_under};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use wf_corpus::vocab;
use wf_corpus::{camera_reviews, music_reviews, ReviewConfig};
use wf_platform::{
    parse_query, Cluster, DataStore, DurableStorage, Entity, EntityMiner, Indexer, Ingestor,
    MinerPipeline, RawDocument, ServingBackend, SourceKind, TraceSpan,
};
use wf_sentiment::{
    AdhocSentimentMiner, SentimentEntityMiner, SentimentServingBackend, ShardedSentimentIndex,
    SpotterMiner, SubjectList,
};
use wf_types::{DocId, Error, NodeId, Polarity};

/// Cluster size every `wfsm` command uses.
pub const NODES: usize = 4;

/// WAL records between fsync markers for the file-backed store.
const FSYNC_EVERY: u64 = 16;

/// One generated document.
#[derive(Debug, Clone)]
pub struct Doc {
    pub domain: &'static str,
    pub text: String,
}

fn docs(domain: &'static str, texts: Vec<String>) -> Vec<Doc> {
    texts.into_iter().map(|text| Doc { domain, text }).collect()
}

/// `n` camera reviews (the corpus's D+ documents) from `seed`.
pub fn camera_docs(seed: u64, n: usize) -> Vec<Doc> {
    let config = ReviewConfig {
        n_plus: n,
        n_minus: 0,
        ..ReviewConfig::camera()
    };
    docs("camera", camera_reviews(seed, &config).d_plus_texts())
}

/// `n` music reviews (the corpus's D+ documents) from `seed`.
pub fn music_docs(seed: u64, n: usize) -> Vec<Doc> {
    let config = ReviewConfig {
        n_plus: n,
        n_minus: 0,
        ..ReviewConfig::music()
    };
    docs("music", music_reviews(seed, &config).d_plus_texts())
}

/// A rank in `0..n` (n ≥ 1) drawn with the corpus generator's Zipf
/// weights, 1/(rank+1), from a uniform `u` in [0, 1).
pub fn zipf_rank(n: usize, u: f64) -> usize {
    vocab::zipf_sample(n, u)
}

/// The generator's vocabulary, for building queries.
pub struct Vocab {
    pub camera_products: &'static [&'static str],
    pub camera_features: &'static [&'static str],
    pub music_features: &'static [&'static str],
    pub positive: &'static [&'static str],
    pub negative: &'static [&'static str],
}

pub fn vocab() -> Vocab {
    Vocab {
        camera_products: vocab::CAMERA_PRODUCTS,
        camera_features: vocab::CAMERA_FEATURES,
        music_features: vocab::MUSIC_FEATURES,
        positive: vocab::POS_ADJ,
        negative: vocab::NEG_ADJ,
    }
}

/// Raw documents ready to ingest; built before a timed window opens.
pub struct RawBatch(Vec<RawDocument>);

pub fn raw_batch(docs: &[Doc]) -> RawBatch {
    RawBatch(docs.iter().enumerate().map(|(i, d)| raw(d, i)).collect())
}

fn raw(doc: &Doc, seq: usize) -> RawDocument {
    RawDocument::new(
        format!("bench://{}/{seq}", doc.domain),
        SourceKind::Web,
        doc.text.clone(),
    )
    .with_metadata("domain", doc.domain)
}

/// Where the durable layer keeps its WAL and snapshots.
pub enum Storage<'a> {
    Memory,
    /// File-backed, as `wfsm --data-dir` runs it.
    Dir(&'a Path),
}

/// Which miners annotate the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mining {
    /// Mode B: the named-entity miner (`wfsm mine`'s default).
    NamedEntities,
    /// Mode A (Figure 1): spotter then sentiment miner over the camera
    /// products.
    CameraProducts,
}

/// Times each call into a wrapped miner as a `miner.process` span under
/// the pipeline's span. Forwards every trait method so the pipeline takes
/// the same path as it does untraced.
struct TimedMiner {
    inner: Box<dyn EntityMiner>,
    parent: Arc<AtomicU32>,
}

impl TimedMiner {
    fn open(&self) -> crate::spans::Guard {
        span_under("miner.process", self.parent.load(Ordering::Relaxed))
    }
}

impl EntityMiner for TimedMiner {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn process(&self, entity: &mut Entity) -> wf_types::Result<()> {
        let _s = self.open();
        self.inner.process(entity)
    }

    fn process_batch(&self, batch: &mut [Entity]) -> Vec<wf_types::Result<()>> {
        let _s = self.open();
        self.inner.process_batch(batch)
    }

    fn process_batch_traced(
        &self,
        batch: &mut [Entity],
        span: &mut TraceSpan,
    ) -> Vec<wf_types::Result<()>> {
        let _s = self.open();
        self.inner.process_batch_traced(batch, span)
    }
}

fn camera_subjects() -> SubjectList {
    let mut builder = SubjectList::builder();
    for p in vocab::CAMERA_PRODUCTS {
        builder = builder.subject(p, [p.to_string()]);
    }
    builder.build()
}

/// What one pipeline run reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct MineStats {
    pub processed: usize,
    pub failed: usize,
    pub retries: u64,
}

/// An answer from the serving tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Served {
    Body(String),
    NotFound,
    Error(String),
}

/// Tallies `[positive, negative, neutral]` per subject.
pub type Tally = BTreeMap<String, [u64; 3]>;

/// Program counters read once at the end of a run.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub records_appended: u64,
    pub wal_bytes_appended: u64,
    pub fsyncs: u64,
    pub snapshot_bytes: u64,
    pub trace_spans: u64,
    pub evlog_emitted: u64,
    pub postings_scanned: u64,
    pub queries: u64,
    pub ingested_bytes: u64,
}

/// A booted cluster plus the miners and indices the workloads drive.
pub struct System {
    cluster: Cluster,
    pipeline: MinerPipeline,
    miner_parent: Arc<AtomicU32>,
    /// The Mode A pair that re-mines point writes (update workloads only).
    writers: Option<(SpotterMiner, SentimentEntityMiner)>,
    sindex: Option<ShardedSentimentIndex>,
    backend: Option<SentimentServingBackend>,
}

fn err(e: Error) -> String {
    e.to_string()
}

impl System {
    /// `Cluster::new(4)` with durable storage attached and the miners
    /// constructed.
    pub fn boot(storage: Storage<'_>, mining: Mining) -> Result<System, String> {
        let cluster = Cluster::new(NODES).map_err(err)?;
        let durable = match storage {
            Storage::Memory => DurableStorage::in_memory(NODES).map_err(err)?,
            Storage::Dir(dir) => DurableStorage::at_dir(dir, NODES)
                .map_err(err)?
                .with_fsync_interval(FSYNC_EVERY),
        };
        cluster.attach_durability(Arc::new(durable)).map_err(err)?;
        let miner_parent = Arc::new(AtomicU32::new(0));
        let wrap = |inner: Box<dyn EntityMiner>| {
            Box::new(TimedMiner {
                inner,
                parent: Arc::clone(&miner_parent),
            })
        };
        let pipeline = match mining {
            Mining::NamedEntities => {
                MinerPipeline::new().add(wrap(Box::new(AdhocSentimentMiner::new())))
            }
            Mining::CameraProducts => MinerPipeline::new()
                .add(wrap(Box::new(SpotterMiner::new(camera_subjects()))))
                .add(wrap(Box::new(SentimentEntityMiner::new(camera_subjects())))),
        };
        let writers = (mining == Mining::CameraProducts).then(|| {
            (
                SpotterMiner::new(camera_subjects()),
                SentimentEntityMiner::new(camera_subjects()),
            )
        });
        Ok(System {
            cluster,
            pipeline,
            miner_parent,
            writers,
            sindex: None,
            backend: None,
        })
    }

    fn store(&self) -> &DataStore {
        self.cluster.store()
    }

    pub fn ingest(&self, batch: RawBatch) {
        let _s = span("ingest");
        Ingestor::new(self.store()).ingest_batch(batch.0);
    }

    pub fn checkpoint(&self) -> Result<(), String> {
        let _s = span("durable.checkpoint");
        self.cluster.checkpoint().map(|_| ()).map_err(err)
    }

    pub fn mine(&self) -> MineStats {
        let s = span("miner");
        self.miner_parent.store(s.id(), Ordering::Relaxed);
        let stats = self.cluster.run_pipeline(&self.pipeline);
        self.miner_parent.store(0, Ordering::Relaxed);
        MineStats {
            processed: stats.processed,
            failed: stats.failed,
            retries: stats.retries,
        }
    }

    pub fn build_index(&self) {
        let _s = span("index.build");
        self.cluster.rebuild_index();
    }

    pub fn build_sindex(&mut self) {
        let _s = span("sindex.build");
        self.sindex = Some(ShardedSentimentIndex::build_from_store(self.store()));
    }

    /// Crashes `node`: its store shard and its sentiment-index shard are
    /// lost; the durable layer survives.
    pub fn crash(&mut self, node: u32) {
        self.cluster.drop_node_state(NodeId(node));
        if let Some(index) = self.sindex.as_mut() {
            index.clear_shard(node);
        }
    }

    /// Restarts a crashed node until it serves again: WAL replay, store
    /// restore, inverted-index reindex, sentiment-index shard rebuild.
    /// Returns the number of entities reindexed.
    pub fn restart(&mut self, node: u32) -> Result<usize, String> {
        let mut recovered: Vec<Entity> = Vec::new();
        let restart = {
            let _s = span("cluster.restart");
            self.cluster
                .restart_node_with(NodeId(node), |e| recovered.push(e.clone()))
                .map_err(err)?
        };
        let _s = span("sindex.rebuild_shard");
        let index = self
            .sindex
            .as_mut()
            .ok_or("no sentiment index to rebuild")?;
        index.rebuild_shard(node, &recovered);
        Ok(restart.reindexed)
    }

    /// Hands the sentiment index to the serving tier.
    pub fn start_serving(&mut self) -> Result<(), String> {
        let index = self.sindex.take().ok_or("no sentiment index to serve")?;
        self.backend = Some(SentimentServingBackend::new(index));
        Ok(())
    }

    /// Answers one serving request; `layer` names its span. Returns the
    /// answer and the postings it scanned.
    pub fn serve(&self, request: &str, layer: &'static str) -> (Served, u64) {
        let Some(backend) = self.backend.as_ref() else {
            return (Served::Error("not serving".into()), 0);
        };
        let _s = span(layer);
        match backend.execute(request) {
            Ok(answer) => (Served::Body(answer.body), answer.cost_sim_ms),
            Err(Error::NotFound(_)) => (Served::NotFound, 0),
            Err(e) => (Served::Error(e.to_string()), 0),
        }
    }

    /// Parses and runs one search; `layer` names the query span.
    pub fn search(&self, query: &str, layer: &'static str) -> Result<Vec<u64>, String> {
        let parsed = {
            let _s = span("query_parser.parse");
            parse_query(query).map_err(err)?
        };
        let _s = span(layer);
        let hits = self.cluster.indexer().query(&parsed).map_err(err)?;
        Ok(hits.into_iter().map(|d| d.0).collect())
    }

    /// Re-mines `entity` in place with the Mode A pair.
    fn remine(&self, entity: &mut Entity) -> wf_types::Result<()> {
        let Some((spotter, sentiment)) = self.writers.as_ref() else {
            return Err(Error::Config("booted without the Mode A miners".into()));
        };
        {
            let _s = span("spotter.process");
            spotter.process(entity)?;
        }
        let _s = span("sentiment.process");
        sentiment.process(entity)
    }

    /// Rewrites one stored document (and re-mines it) inside
    /// `DataStore::update`; `text: None` re-mines the current text.
    fn update_in_store(&self, id: u64, text: Option<&str>) -> Result<(), String> {
        let _s = span("store.update");
        let mut mined = Ok(());
        self.store()
            .update(DocId(id), |e| {
                if let Some(text) = text {
                    e.text = text.to_string();
                }
                mined = self.remine(e);
            })
            .map_err(err)?;
        mined.map_err(err)
    }

    fn index_doc(&self, id: u64) -> Result<(), String> {
        let entity = {
            let _s = span("store.get");
            self.store().get(DocId(id)).map_err(err)?
        };
        let _s = span("index.upsert");
        self.cluster.indexer().index_entity(&entity);
        Ok(())
    }

    /// Replaces a document's text, re-mines it and reindexes it.
    pub fn update(&self, id: u64, text: &str) -> Result<(), String> {
        self.update_in_store(id, Some(text))?;
        self.index_doc(id)
    }

    /// Ingests one document, mines it and indexes it.
    pub fn insert(&self, doc: &Doc, seq: usize) -> Result<u64, String> {
        let id = {
            let _s = span("ingest.doc");
            Ingestor::new(self.store()).ingest(raw(doc, seq)).0
        };
        self.update_in_store(id, None)?;
        self.index_doc(id)?;
        Ok(id)
    }

    /// Deletes a document from the store and the index.
    pub fn delete(&self, id: u64) -> Result<(), String> {
        {
            let _s = span("store.delete");
            self.store()
                .delete(DocId(id))
                .ok_or_else(|| format!("delete: doc {id} missing"))?;
        }
        let _s = span("index.remove");
        self.cluster.indexer().remove_entity(DocId(id));
        Ok(())
    }

    /// Every stored entity, in id order.
    fn scan(&self) -> Vec<Entity> {
        let mut all = Vec::with_capacity(self.store().len());
        self.store().for_each(|e| all.push(e.clone()));
        all.sort_by_key(|e| e.id);
        all
    }

    /// Reference search answers: the uncompressed `Indexer::naive()`,
    /// filled from a store scan in id order.
    pub fn reference_search(&self, queries: &[String]) -> Vec<Result<Vec<u64>, String>> {
        let _s = span("check.reference");
        let naive = Indexer::naive();
        for entity in self.scan() {
            naive.index_entity(&entity);
        }
        queries
            .iter()
            .map(|q| {
                let parsed = parse_query(q).map_err(err)?;
                let hits = naive.query(&parsed).map_err(err)?;
                Ok(hits.into_iter().map(|d| d.0).collect())
            })
            .collect()
    }

    /// Reference sentiment tallies from the stored annotations.
    pub fn reference_tally(&self) -> Tally {
        let _s = span("check.reference");
        let mut tally = Tally::new();
        self.store().for_each(|e| {
            for ann in e.annotations_of("sentiment") {
                let (Some(subject), Some(polarity)) = (ann.attr("subject"), ann.attr("polarity"))
                else {
                    continue;
                };
                let slot = match Polarity::parse(polarity) {
                    Some(Polarity::Positive) => 0,
                    Some(Polarity::Negative) => 1,
                    Some(Polarity::Neutral) => 2,
                    None => continue,
                };
                tally.entry(subject.to_lowercase()).or_default()[slot] += 1;
            }
        });
        tally
    }

    /// Read-only WAL + snapshot replay of every shard; returns, per
    /// shard, (entities recovered, entities in the live store).
    pub fn replay(&self) -> Result<Vec<(usize, usize)>, String> {
        let durable = self.cluster.durability().ok_or("no durable storage")?;
        (0..NODES as u32)
            .map(|shard| {
                let recovered = {
                    let _s = span("durable.replay");
                    durable.recover_shard(shard).map_err(err)?.entities.len()
                };
                Ok((recovered, self.store().shard_ids(NodeId(shard)).len()))
            })
            .collect()
    }

    pub fn doc_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.store().ids().into_iter().map(|d| d.0).collect();
        ids.sort_unstable();
        ids
    }

    /// Annotations across every stored entity.
    pub fn annotation_count(&self) -> usize {
        let mut n = 0;
        self.store().for_each(|e| n += e.annotations.len());
        n
    }

    pub fn index_terms(&self) -> usize {
        self.cluster.indexer().term_count()
    }

    pub fn index_concepts(&self) -> usize {
        self.cluster.indexer().concept_count()
    }

    pub fn index_postings_bytes(&self) -> u64 {
        self.cluster.indexer().postings_bytes()
    }

    pub fn sindex_postings(&self) -> usize {
        match (&self.sindex, &self.backend) {
            (Some(index), _) => index.posting_count(),
            (None, Some(backend)) => backend.index().posting_count(),
            (None, None) => 0,
        }
    }

    pub fn counters(&self) -> Counters {
        let snap = self.cluster.metrics_snapshot();
        let scanned = snap.histogram("index.postings_scanned");
        Counters {
            records_appended: snap.counter("durable.records_appended"),
            wal_bytes_appended: snap.counter("durable.wal_bytes_appended"),
            fsyncs: snap.counter("durable.fsyncs"),
            snapshot_bytes: snap.counter("durable.snapshot_bytes"),
            trace_spans: snap.counter("trace.spans"),
            evlog_emitted: snap.counter("evlog.emitted"),
            postings_scanned: scanned.map_or(0, |h| h.sum),
            queries: scanned.map_or(0, |h| h.count),
            ingested_bytes: snap.counter("ingest.bytes"),
        }
    }
}

/// Runs the NLP chain alone over `docs`, as the miner runs it.
pub fn nlp_annotate(docs: &[Doc]) -> usize {
    let pipeline = wf_nlp::Pipeline::new();
    let texts: Vec<&str> = docs.iter().map(|d| d.text.as_str()).collect();
    let _s = span("nlp.annotate");
    std::hint::black_box(pipeline.annotate_batch(&texts)).len()
}
