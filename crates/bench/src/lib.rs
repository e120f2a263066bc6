//! # cryptext-bench
//!
//! Shared fixtures for the criterion benchmarks and the experiment
//! binaries that regenerate every table and figure of the paper
//! (see EXPERIMENTS.md at the workspace root for the index).

use cryptext_core::{CrypText, TokenDatabase};
use cryptext_corpus::CorpusConfig;
use cryptext_stream::{SocialPlatform, StreamConfig};

/// Simulate a platform feed with `n_posts` posts.
pub fn build_platform(n_posts: usize, seed: u64) -> SocialPlatform {
    SocialPlatform::simulate(StreamConfig {
        n_posts,
        seed,
        ..StreamConfig::default()
    })
}

/// Simulate a platform with custom content characteristics.
pub fn build_platform_with(n_posts: usize, seed: u64, corpus: CorpusConfig) -> SocialPlatform {
    SocialPlatform::simulate(StreamConfig {
        n_posts,
        seed,
        corpus,
        ..StreamConfig::default()
    })
}

/// Build a lexicon-seeded token database from a platform feed (what the
/// crawler produces in production).
pub fn build_db(platform: &SocialPlatform) -> TokenDatabase {
    build_db_with_shards(platform, 1)
}

/// [`build_db`] over `shards` consistent-hash shards.
pub fn build_db_with_shards(platform: &SocialPlatform, shards: usize) -> TokenDatabase {
    let mut db = TokenDatabase::with_shards(shards);
    db.seed_lexicon();
    for post in platform.posts() {
        db.ingest_text(&post.text);
        // Gold clean text doubles as LM training material.
        db.record_clean_sentence(&clean_text_of(post));
    }
    db
}

fn clean_text_of(post: &cryptext_stream::Post) -> String {
    // Reverse the recorded perturbations to recover the clean sentence.
    let mut text = post.text.clone();
    for rec in &post.perturbations {
        text = text.replace(&rec.perturbed, &rec.original);
    }
    text
}

/// Assemble a full CrypText system over a fresh simulated feed.
pub fn build_cryptext(n_posts: usize, seed: u64) -> CrypText {
    let platform = build_platform(n_posts, seed);
    CrypText::new(build_db(&platform))
}

/// Render a markdown table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Render a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_compose() {
        let cx = build_cryptext(200, 1);
        let stats = cx.database().stats();
        assert!(stats.unique_tokens > 400, "lexicon + feed tokens");
        assert!(stats.total_occurrences > 500);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
        assert_eq!(pct(0.675), "67.5%");
    }
}
