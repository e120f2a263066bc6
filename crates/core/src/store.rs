//! The read/ingest contract behind every CrypText engine.
//!
//! [`TokenStore`] is what the engines ([`crate::lookup`],
//! [`crate::normalize`], [`crate::perturb`], [`crate::listening`],
//! [`crate::ingest`]) are generic over. Two types implement it:
//!
//! * [`TokenDatabase`] — the token store itself, at any shard count.
//! * [`crate::durable::DurableTokenStore`] — a `TokenDatabase` whose
//!   ingest is logged for crash recovery; reads delegate to the inner
//!   store.
//!
//! Retrieval is **encode-once**: the walk methods take a pre-built
//! [`EncodedQuery`] (Soundex code set + code hashes + case fold), so a
//! query's encoding cost is paid once no matter how many shards the store
//! walks, and [`TokenStore::fan_out_sound_mates`] lets the store
//! parallelize the per-candidate filter work while preserving the
//! sequential walk's exact visit sequence ([`ControlFlow`] early exit
//! included).
//!
//! Persistence is not part of the contract: [`TokenDatabase::persist_to`]
//! and [`TokenDatabase::load_from`] move a store through the document
//! store, and a durable store recovers through its own `open`.

use std::ops::ControlFlow;

use cryptext_common::metrics::MetricsRegistry;

#[cfg(doc)]
use crate::database::TokenDatabase;
use crate::database::{EncodedQuery, SoundScratch, TokenRecord, TokenStats};

/// The read and ingest contract of the token database (§III-A).
///
/// # Record ids
///
/// The `u32` ids handed to [`TokenStore::for_each_sound_mate`] callbacks
/// are shard-remapped (`local * n_shards + shard`; dense indexes at one
/// shard). They are unique per store and stable until the store is
/// resharded, and must not be interpreted beyond that.
///
/// # Queries encode once
///
/// The walk methods take a pre-built [`EncodedQuery`] rather than a raw
/// token: the caller encodes a query's Soundex codes and case fold exactly
/// once, and the per-shard walks all share that encoding. Construction of
/// the query validates the phonetic level, which is why the walks are
/// infallible ([`ControlFlow`], not `Result`).
pub trait TokenStore: Sync {
    /// How many shards back this store.
    fn num_shards(&self) -> usize;

    /// Visit every record sharing a sound with the encoded `query` exactly
    /// once, in bucket insertion order, shard by shard. The visitor may
    /// return [`ControlFlow::Break`] to stop early; the return value
    /// reports whether it did. `scratch` carries the generation-marked
    /// visited set; reusing one instance across calls makes the walk
    /// allocation-free.
    fn for_each_sound_mate<'a, F>(
        &'a self,
        query: &EncodedQuery,
        scratch: &mut SoundScratch,
        f: F,
    ) -> ControlFlow<()>
    where
        F: FnMut(u32, &'a TokenRecord) -> ControlFlow<()>;

    /// [`TokenStore::for_each_sound_mate`] split into a pure, `Sync`
    /// per-candidate `map` and a sequential `sink`, so the store may fan
    /// the expensive per-candidate work (the `map` — e.g. the bounded
    /// Levenshtein filter) out across shards in parallel.
    ///
    /// The contract is **byte-identical** to running
    /// `for_each_sound_mate` and feeding every `Some` result of `map` to
    /// `sink` inline, early exit included: `sink` receives results in the
    /// exact order the sequential walk would produce them, and a
    /// [`ControlFlow::Break`] from `sink` discards the rest. (`map` must
    /// be pure — a parallel walk may run it for candidates whose results a
    /// broken-out-of `sink` never sees.)
    fn fan_out_sound_mates<'a, M, R, F>(
        &'a self,
        query: &EncodedQuery,
        scratch: &mut SoundScratch,
        map: M,
        sink: F,
    ) -> ControlFlow<()>
    where
        M: Fn(u32, &'a TokenRecord) -> Option<R> + Sync,
        R: Send,
        F: FnMut(R) -> ControlFlow<()>;

    /// Fetch a token's record (case-sensitive).
    fn get(&self, token: &str) -> Option<&TokenRecord>;

    /// Aggregate statistics, independent of the shard count.
    fn stats(&self) -> TokenStats;

    /// Distinct stored tokens — the cheap subset of [`TokenStore::stats`]
    /// (no sound-set unions) for callers like the crawler that only track
    /// growth.
    fn unique_tokens(&self) -> usize;

    /// Clean sentences accumulated for LM training.
    fn clean_sentences(&self) -> &[String];

    /// Ingest one raw token occurrence (gates: ≥ 2 chars, phonetic
    /// content).
    fn ingest_token(&mut self, token: &str);

    /// Tokenize and ingest one text; returns the word-token count.
    /// Fully-in-dictionary sentences are recorded for LM training.
    fn ingest_text(&mut self, text: &str) -> usize;

    /// Batch ingest, byte-identical to calling [`TokenStore::ingest_text`]
    /// per text in order.
    fn ingest_texts<T: AsRef<str> + Sync>(&mut self, texts: &[T]) -> usize;

    /// Record a known-clean sentence for LM training.
    fn record_clean_sentence(&mut self, text: &str);

    /// Seed/refresh every dictionary word as an `is_english` record.
    fn seed_lexicon(&mut self);

    /// Register this store's observability instruments (shard-walk and
    /// Bloom-skip counters, durable-log timings, …) with `registry`. The
    /// service facade calls this once at construction.
    fn register_metrics(&self, registry: &MetricsRegistry);
}
