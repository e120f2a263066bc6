//! One shard of the token database: the crate-private unit
//! [`crate::database::TokenDatabase`] routes every token to.
//!
//! A [`Shard`] owns a disjoint slice of the corpus and keeps it in the
//! layout the Look Up read path (§III-B) wants, since that path touches
//! every record in a bucket:
//!
//! * **Records are a dense `Vec<TokenRecord>`** addressed by a shard-local
//!   `u32` id. Every index (by-token map, buckets) stores ids, never owned
//!   strings. The database remaps local ids to store-wide ids as
//!   `global = local * n_shards + shard`, so at one shard they coincide.
//! * **Soundex codes are interned per level** in a [`CodeIndex`]: each
//!   distinct code gets a dense `u32` code id; `H_k` is then plain
//!   `postings: Vec<Vec<u32>>` indexed by code id, with a side
//!   `FxHashMap<Box<str>, u32>` used only to resolve a query's code
//!   string to its id (one probe per query code, not per candidate).
//! * **Candidate iteration is visitor-based**: [`Shard::for_each_sound_mate`]
//!   walks the union of a query's bucket postings, deduplicating across
//!   ambiguous codes with a generation-marked [`SoundScratch`] (O(1) per
//!   candidate, no per-query set allocation). The visitor may return
//!   [`ControlFlow::Break`] to stop early.
//! * **Each per-level code interner keeps a [`Bloom`] summary** of its
//!   interned codes, current by construction (codes are only interned,
//!   never removed). [`Shard::may_match`] answers "could any of this
//!   query's codes be indexed here?" without probing the map — the
//!   skip-empty shard routing of the database is built on it.
//!
//! A shard persists as one document-store collection, one document per
//! record (`token`, `count`, `is_english`, `codes_k0..`), written through
//! one batched [`Database::insert_many`]. The `codes_k*` array fields are
//! stored but not indexed: the only reader is [`Shard::load`], which scans
//! the collection and checks the stored `codes_k1` against the recomputed
//! codes. Ad-hoc docstore queries by code still work, by scan.

use std::ops::ControlFlow;

use cryptext_common::hash::{fx_hash_str, Bloom, FxHashMap};
use cryptext_common::{Error, Result};
use cryptext_docstore::{Database, Document, Filter, Value};
use cryptext_phonetics::{CustomSoundex, SoundexCode};

use crate::database::{EncodedQuery, SoundScratch, TokenRecord, NUM_LEVELS};

/// One level's interned code table: dense code ids over append-only
/// posting lists. The string map is touched once per *query code*; the
/// per-candidate scan runs over plain `u32` postings. A [`Bloom`] summary
/// of the interned code set rides along (kept current by `intern`, which
/// is the only insertion point), so the router can rule the whole level
/// out for a query without probing the map.
#[derive(Debug, Default)]
struct CodeIndex {
    ids: FxHashMap<Box<str>, u32>,
    names: Vec<Box<str>>,
    postings: Vec<Vec<u32>>,
    summary: Bloom,
}

impl CodeIndex {
    #[inline]
    fn id_of(&self, code: &str) -> Option<u32> {
        self.ids.get(code).copied()
    }

    fn intern(&mut self, code: &str) -> u32 {
        if let Some(&id) = self.ids.get(code) {
            return id;
        }
        let id = self.names.len() as u32;
        let boxed: Box<str> = code.into();
        self.summary.insert(fx_hash_str(&boxed));
        self.names.push(boxed.clone());
        self.ids.insert(boxed, id);
        self.postings.push(Vec::new());
        if self.summary.needs_grow() {
            self.rebuild_summary();
        }
        id
    }

    /// Rebuild the Bloom summary from the exact interned code set, sized
    /// for the current count. The interner is append-only, so the rebuilt
    /// filter covers precisely the same keys at a healthy fill ratio —
    /// the growth policy that keeps shard skip rates high as a shard's
    /// code universe outgrows the summary it started with.
    fn rebuild_summary(&mut self) {
        let mut summary = Bloom::with_capacity(self.names.len());
        for name in &self.names {
            summary.insert(fx_hash_str(name));
        }
        self.summary = summary;
    }

    fn add(&mut self, code: &str, record: u32) {
        let id = self.intern(code);
        self.postings[id as usize].push(record);
    }

    #[inline]
    fn members(&self, code: &str) -> &[u32] {
        self.id_of(code)
            .map(|id| self.postings[id as usize].as_slice())
            .unwrap_or(&[])
    }
}

/// Encode `token` at every materialized phonetic level (the per-level
/// encoders are stateless, so no instance is borrowed).
pub(crate) fn encode_levels(token: &str) -> [Vec<SoundexCode>; NUM_LEVELS] {
    std::array::from_fn(|k| CustomSoundex::new(k).encode_all(token))
}

/// A word token prepared off-thread during batch ingest, against the
/// pre-batch state of the shard it routes to.
pub(crate) enum PreparedWord {
    /// Already in the shard when the batch was prepared; the record id was
    /// resolved during the parallel phase, so the merge bumps the count
    /// directly without re-probing `by_token`.
    Known(u32),
    /// Repeat of a new token first seen earlier in the same text; its
    /// `Fresh` occurrence merges first, so the merge resolves this one
    /// against `by_token`.
    Repeat(String),
    /// New token with phonetic codes precomputed in the parallel phase.
    Fresh(String, Box<[Vec<SoundexCode>; NUM_LEVELS]>),
}

/// One shard's records and `H_k` indexes.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    records: Vec<TokenRecord>,
    by_token: FxHashMap<String, u32>,
    /// `H_k`: interned Soundex code → record ids sharing that sound.
    buckets: [CodeIndex; NUM_LEVELS],
}

impl Shard {
    /// The shard's records in local-id order.
    pub(crate) fn records(&self) -> &[TokenRecord] {
        &self.records
    }

    /// Fetch a token's record (case-sensitive).
    pub(crate) fn get(&self, token: &str) -> Option<&TokenRecord> {
        self.by_token
            .get(token)
            .map(|&id| &self.records[id as usize])
    }

    /// Is `token` stored, and at which local id?
    #[inline]
    pub(crate) fn id_of_token(&self, token: &str) -> Option<u32> {
        self.by_token.get(token).copied()
    }

    /// The members of bucket `H_k[code]` (local ids). `k` must be valid.
    pub(crate) fn bucket(&self, k: usize, code: &str) -> &[u32] {
        self.buckets[k].members(code)
    }

    /// Distinct interned code names at level `k`, in interning order.
    pub(crate) fn code_names(&self, k: usize) -> &[Box<str>] {
        &self.buckets[k].names
    }

    /// Bit width of the level-`k` code summary — growth diagnostics: the
    /// summary starts at a fixed width and is rebuilt wider once the
    /// interned code set outgrows it, which the growth tests pin.
    #[cfg(test)]
    pub(crate) fn summary_bits(&self, k: usize) -> usize {
        self.buckets[k].summary.bit_count()
    }

    fn insert_new(&mut self, token: String, add_count: u64, codes: [Vec<SoundexCode>; NUM_LEVELS]) {
        let folded = token.to_lowercase();
        let folded_chars = folded.chars().count() as u32;
        let is_english = cryptext_corpus::is_english_word(&token);
        self.insert_record(TokenRecord {
            token,
            folded,
            folded_chars,
            count: add_count,
            is_english,
            codes,
        });
    }

    /// Append a fully-formed record under the next dense id, indexing its
    /// stored codes (no re-encoding). The caller guarantees the token is
    /// not already present; live resharding rebuilds shards through this.
    pub(crate) fn insert_record(&mut self, rec: TokenRecord) {
        let id = self.records.len() as u32;
        for (k, level_codes) in rec.codes.iter().enumerate() {
            for code in level_codes {
                self.buckets[k].add(code.as_str(), id);
            }
        }
        self.by_token.insert(rec.token.clone(), id);
        self.records.push(rec);
    }

    /// Insert or count a token with an explicit occurrence delta, without
    /// the ingest gates (lexicon seeding, resharding and delta-log replay
    /// come through here).
    pub(crate) fn upsert(&mut self, token: &str, add_count: u64) {
        if let Some(&id) = self.by_token.get(token) {
            self.records[id as usize].count += add_count;
        } else {
            self.insert_new(token.to_string(), add_count, encode_levels(token));
        }
    }

    /// Apply one prepared word — the sequential half of batch ingest.
    pub(crate) fn merge(&mut self, word: PreparedWord) {
        let id = match word {
            PreparedWord::Known(id) => id,
            PreparedWord::Repeat(t) => *self
                .by_token
                .get(t.as_str())
                .expect("Repeat follows its Fresh within one text"),
            PreparedWord::Fresh(t, codes) => match self.by_token.get(t.as_str()) {
                // An earlier text in this batch inserted it already.
                Some(&id) => id,
                None => return self.insert_new(t, 1, *codes),
            },
        };
        self.records[id as usize].count += 1;
    }

    /// Consume the shard, yielding its records in id order (live
    /// resharding redistributes them without re-running the encoders).
    pub(crate) fn into_records(self) -> Vec<TokenRecord> {
        self.records
    }

    /// Might this shard index any of `query`'s codes at the query's level?
    /// A [`Bloom`]-summary check over the interned code set: `false` is
    /// authoritative (the walk would visit nothing), `true` may be a false
    /// positive.
    #[inline]
    pub(crate) fn may_match(&self, query: &EncodedQuery) -> bool {
        let summary = &self.buckets[query.level()].summary;
        query.code_hashes().iter().any(|&h| summary.may_contain(h))
    }

    /// Visit every record sharing a sound with the pre-encoded `query`
    /// (union over the token's ambiguous readings), each exactly once, in
    /// bucket insertion order, with its local id. The visitor may return
    /// [`ControlFlow::Break`] to stop the walk early; the return value
    /// reports whether it did. Reusing one `scratch` across calls makes
    /// the walk allocation-free.
    pub(crate) fn for_each_sound_mate<'a, F>(
        &'a self,
        query: &EncodedQuery,
        scratch: &mut SoundScratch,
        mut f: F,
    ) -> ControlFlow<()>
    where
        F: FnMut(u32, &'a TokenRecord) -> ControlFlow<()>,
    {
        scratch.begin(self.records.len());
        let bucket = &self.buckets[query.level()];
        for code in query.codes() {
            if let Some(cid) = bucket.id_of(code.as_str()) {
                for &id in &bucket.postings[cid as usize] {
                    if scratch.mark(id) {
                        f(id, &self.records[id as usize])?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// The shard's `H_k` map as `(code, tokens)` pairs, unsorted.
    pub(crate) fn hashmap_entries(&self, k: usize) -> impl Iterator<Item = (&str, Vec<&str>)> {
        let idx = &self.buckets[k];
        idx.names.iter().zip(&idx.postings).map(|(code, ids)| {
            let tokens = ids
                .iter()
                .map(|&id| self.records[id as usize].token.as_str())
                .collect();
            (&**code, tokens)
        })
    }

    /// Write every record into a new collection `name`, in one batched
    /// append (one WAL frame per record, one flush).
    pub(crate) fn persist(&self, store: &Database, name: &str) -> Result<()> {
        store.create_collection(name)?;
        let docs = self
            .records
            .iter()
            .map(|rec| {
                let mut doc = Document::new()
                    .with("token", rec.token.as_str())
                    .with("count", rec.count as i64)
                    .with("is_english", rec.is_english);
                for (k, codes) in rec.codes.iter().enumerate() {
                    doc.set(
                        format!("codes_k{k}"),
                        Value::Array(codes.iter().map(|c| Value::from(c.as_str())).collect()),
                    );
                }
                doc
            })
            .collect();
        store.insert_many(name, docs)?;
        Ok(())
    }

    /// Rebuild a shard from collection `name` (inverse of
    /// [`Shard::persist`]).
    pub(crate) fn load(store: &Database, name: &str) -> Result<Shard> {
        let mut shard = Shard::default();
        for (_, doc) in store.find(name, &Filter::All)? {
            let token = doc
                .get("token")
                .and_then(Value::as_str)
                .ok_or_else(|| Error::corrupt("token field missing"))?;
            let count = doc
                .get("count")
                .and_then(Value::as_int)
                .ok_or_else(|| Error::corrupt("count field missing"))?;
            // Trust recomputed codes over stored ones (the algorithm is
            // the source of truth), but verify agreement for corruption
            // safety.
            let codes = encode_levels(token);
            if let Some(stored) = doc.get("codes_k1").and_then(Value::as_array) {
                let recomputed: Vec<&str> = codes[1].iter().map(|c| c.as_str()).collect();
                let stored_strs: Vec<&str> = stored.iter().filter_map(Value::as_str).collect();
                if recomputed != stored_strs {
                    return Err(Error::corrupt(format!(
                        "code mismatch for token {token}: {stored_strs:?} vs {recomputed:?}"
                    )));
                }
            }
            match shard.by_token.get(token) {
                Some(&id) => shard.records[id as usize].count += count.max(0) as u64,
                None => shard.insert_new(token.to_string(), count.max(0) as u64, codes),
            }
        }
        Ok(shard)
    }
}
