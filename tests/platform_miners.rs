//! Integration of entity-level sentiment mining with the store, plus
//! aspect and trend aggregation through the public API.

use webfountain_sentiment::platform::{Cluster, Ingestor, MinerPipeline, RawDocument, SourceKind};
use webfountain_sentiment::sentiment::{
    aggregate, sentiment_trends, AspectModel, SentimentEntityMiner, SubjectList, TrendDirection,
};

const FOOTER: &str = "Subscribe to our newsletter for weekly camera deals and updates.";

fn review(body: &str) -> String {
    format!("{body} {FOOTER}")
}

#[test]
fn full_preprocessing_then_sentiment() {
    let cluster = Cluster::new(2).expect("cluster");
    {
        let mut ing = Ingestor::new(cluster.store());
        // site A: five pages sharing a footer, one exact duplicate pair
        let pages = [
            review("The Canon takes excellent pictures in daylight."),
            review("The Canon battery drains quickly on long trips."),
            review("The Canon menu is confusing at first."),
            review("The Canon takes excellent pictures in daylight."), // dup of page 0
            review("The Canon viewfinder is sharp and bright."),
        ];
        for (i, text) in pages.iter().enumerate() {
            ing.ingest(
                RawDocument::new(format!("http://site-a.example/{i}"), SourceKind::Web, text)
                    .with_metadata("month", if i < 3 { "2004-01" } else { "2004-02" }),
            );
        }
    }

    // entity-level sentiment mining over the site's pages
    let subjects = SubjectList::builder().subject("Canon", ["Canon"]).build();
    cluster.run_pipeline(&MinerPipeline::new().add(Box::new(SentimentEntityMiner::new(subjects))));
    assert_eq!(cluster.store().len(), 5);
    let mut sentiment = 0;
    cluster
        .store()
        .for_each(|e| sentiment += e.annotations_of("sentiment").count());
    assert!(sentiment > 0);

    // trends over the month metadata
    let trends = sentiment_trends(cluster.store(), "month");
    let canon = trends.iter().find(|t| t.subject == "canon").unwrap();
    assert_eq!(canon.points.len(), 2);
    assert!(canon.total_mentions() > 0);
    // direction is well-defined even on two points
    let _ = canon.direction(0.05);
}

#[test]
fn aspect_aggregation_via_public_api() {
    use webfountain_sentiment::prelude::*;
    let subjects = SubjectList::builder()
        .subject("camera", ["camera"])
        .subject("battery", ["battery"])
        .subject("flash", ["flash"])
        .build();
    let miner = SentimentMiner::with_default_resources();
    let records = miner.analyze_text(
        "The camera is excellent. The flash works well. \
         The battery is terrible and the battery drains quickly.",
        &subjects,
    );
    let model = AspectModel::new().topic("camera", ["battery", "flash"]);
    let summaries = aggregate(&model, &records);
    let camera = &summaries["camera"];
    assert_eq!(camera.direct.positive, 1);
    assert_eq!(camera.aspects["flash"].positive, 1);
    assert!(camera.aspects["battery"].negative >= 2);
    assert_eq!(
        camera.weakest_aspects().first().map(|(n, _)| *n),
        Some("battery")
    );
    assert!(camera.overall().net() < camera.direct.net() + 1);
    let _ = Polarity::Positive;
}

#[test]
fn trend_direction_end_to_end() {
    let cluster = Cluster::new(1).expect("cluster");
    {
        let mut ing = Ingestor::new(cluster.store());
        let schedule = [
            ("2004-01", "The Canon is terrible. The Canon is awful."),
            ("2004-02", "The Canon is terrible. The Canon is excellent."),
            ("2004-03", "The Canon is excellent. The Canon is superb."),
        ];
        for (month, text) in schedule {
            ing.ingest(
                RawDocument::new(format!("u-{month}"), SourceKind::Web, text)
                    .with_metadata("month", month),
            );
        }
    }
    let subjects = SubjectList::builder().subject("Canon", ["Canon"]).build();
    cluster.run_pipeline(&MinerPipeline::new().add(Box::new(SentimentEntityMiner::new(subjects))));
    let trends = sentiment_trends(cluster.store(), "month");
    let canon = trends.iter().find(|t| t.subject == "canon").unwrap();
    assert_eq!(canon.direction(0.05), TrendDirection::Improving);
}
