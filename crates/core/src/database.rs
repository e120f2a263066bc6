//! The human-written token database (§III-A): the one token store every
//! CrypText engine reads.
//!
//! Stores **raw case-sensitive tokens** exactly as found in the corpus,
//! encoded with the customized Soundex at every phonetic level `k ∈
//! {0, 1, 2}`, and maintains the `H_k` hash maps from Soundex code to the
//! set of tokens sharing that sound (Table I of the paper).
//!
//! [`TokenDatabase`] splits the corpus across consistent-hash shards (the
//! crate-private `Shard` of `shard.rs`). [`TokenDatabase::in_memory`]
//! and [`TokenDatabase::with_lexicon`] build one shard;
//! [`TokenDatabase::with_shards`] builds N, so a dictionary that outgrows
//! one instance (the paper mines ~3.6M perturbations and keeps growing)
//! scales out instead of up. Results never depend on the shard count
//! (proptest-pinned below against `look_up_naive`/`normalize_naive` and
//! against one shard). The pieces:
//!
//! * **Routing** — every token is owned by exactly one shard, selected by
//!   [`jump_hash`](cryptext_common::hash::jump_hash) over the Fx hash of
//!   the token's **primary `H_1` Soundex code** (tokens without phonetic
//!   content fall back to hashing the raw token). Hashing the sound rather
//!   than the spelling keeps a clean word and the bulk of its
//!   perturbations colocated, and jump hashing keeps a shard-count change
//!   from reshuffling the whole corpus. At one shard the route is 0
//!   without encoding anything (jump hash into one bucket is always 0).
//! * **Shard-local id spaces** — each shard keeps its own dense `u32`
//!   record ids; the store remaps them to globally unique ids at the
//!   [`TokenStore`] boundary as `global = local * n_shards + shard`.
//! * **Reads** — a query is encoded **once** into an [`EncodedQuery`]
//!   (codes + hashes + fold) and every shard's walk shares it; records
//!   are disjoint across shards, so no cross-shard dedup is needed.
//!   `&self` reads are lock-free and `Sync`.
//! * **Skip-empty routing** — each shard's per-level code interner keeps a
//!   [`Bloom`](cryptext_common::hash::Bloom) summary of its code set, and
//!   a query walks only the shards whose summaries admit at least one of
//!   its codes. A ruled-out shard could not have produced a hit, so
//!   skipping it is invisible to results. The walk/skip counters stay at
//!   0 on a one-shard store, which walks its shard directly.
//! * **Per-query parallel fan-out** —
//!   [`TokenStore::fan_out_sound_mates`] runs the matching shards' walks
//!   through the [`cryptext_common::par`] pool and merges in shard order,
//!   so the sink observes exactly the sequential walk's sequence — early
//!   exit included.
//! * **Batch ingest** — one path for every ingest call: a parallel
//!   prepare phase (tokenize, gate, route, 3-level Soundex) per text, then
//!   a merge in input order that applies each prepared word in place to
//!   its shard. The result is byte-identical to ingesting the texts one at
//!   a time.
//! * **Persistence** — one format: one document-store collection per
//!   shard plus a manifest document carrying the shard count and a
//!   **generation**. A persist writes its shard collections straight under
//!   a fresh generation (`{name}__g{g}__shard{i}`); the manifest swap (a
//!   staging collection renamed over the live name — one WAL record) is the
//!   single commit point; only then are other generations of `name` swept.
//!   A crash at any boundary leaves the previous persist fully loadable,
//!   and the sweep never touches a collection that is not one of `name`'s
//!   generations.
//! * **Live resharding** — [`TokenDatabase::grow_one_shard`] grows N→N+1
//!   in place. Jump hashing moves a key only to the *new* shard, so
//!   ~1/(N+1) of the records relocate (reusing their stored codes) and the
//!   result is byte-identical to a fresh (N+1)-shard build of the corpus.
//!
//! The engines ([`crate::lookup`], [`crate::normalize`],
//! [`crate::perturb`], [`crate::listening`], [`crate::ingest`]) are generic
//! over [`TokenStore`], so they also serve a
//! [`crate::durable::DurableTokenStore`] wrapping this store.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::ControlFlow;

use cryptext_common::failpoint;
use cryptext_common::hash::{fx_hash_str, FxHashMap, FxHashSet, ShardRing};
use cryptext_common::metrics::{Counter, MetricsRegistry};
use cryptext_common::par::{par_map, try_par_map};
use cryptext_common::{Error, Result};
use cryptext_docstore::{Database, Document, Filter, Value};
use cryptext_phonetics::{CustomSoundex, SoundexCode, MAX_PHONETIC_LEVEL};
use cryptext_tokenizer::tokenize_spans;

use crate::shard::{encode_levels, PreparedWord, Shard};
use crate::store::TokenStore;

/// Number of materialized phonetic levels (`k = 0, 1, 2`).
pub const NUM_LEVELS: usize = MAX_PHONETIC_LEVEL + 1;

/// Cap on accumulated LM training sentences.
const MAX_CLEAN_SENTENCES: usize = 50_000;

/// One stored token with its phonetic signature.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenRecord {
    /// The raw case-sensitive surface form.
    pub token: String,
    /// The case-folded form, precomputed at ingest so the Look Up filter
    /// never lowercases per candidate.
    pub folded: String,
    /// Unicode scalar count of [`TokenRecord::folded`], precomputed for the
    /// Levenshtein length pre-filter.
    pub folded_chars: u32,
    /// Number of corpus occurrences (0 for lexicon-seeded entries).
    pub count: u64,
    /// Is this a correctly-spelled dictionary word?
    pub is_english: bool,
    /// All Soundex codes per phonetic level (ambiguous leet glyphs give
    /// several codes per level).
    pub codes: [Vec<SoundexCode>; NUM_LEVELS],
}

/// Aggregate database statistics (the paper quotes >2M tokens across
/// >400K sounds for the production instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenStats {
    /// Distinct case-sensitive tokens.
    pub unique_tokens: usize,
    /// Total token occurrences ingested.
    pub total_occurrences: u64,
    /// Distinct Soundex codes per level.
    pub unique_sounds: [usize; NUM_LEVELS],
    /// How many tokens are dictionary words.
    pub english_tokens: usize,
}

/// A Look Up query encoded **exactly once**: the phonetic level, the
/// deduplicated Soundex codes of every visual reading at that level (with
/// their Fx hashes, precomputed for Bloom routing), and the case fold the
/// distance filter compares against.
///
/// Engines build one `EncodedQuery` per query (reusing its buffers across
/// queries via [`crate::lookup::LookupScratch`]) and thread it through the
/// [`TokenStore`] walk methods, so the encoding cost is independent of the
/// shard count.
///
/// Construction validates the phonetic level, so every walk taking an
/// `EncodedQuery` is infallible — the `Result` lives at the encode site.
#[derive(Debug, Default, Clone)]
pub struct EncodedQuery {
    k: usize,
    codes: Vec<SoundexCode>,
    code_hashes: Vec<u64>,
    folded: String,
    folded_chars: usize,
}

impl EncodedQuery {
    /// An empty query holder (encode into it with [`EncodedQuery::encode`]).
    pub fn new() -> Self {
        EncodedQuery::default()
    }

    /// Encode `token` at phonetic level `k`, reusing this query's buffers.
    /// Errors on an unmaterialized level (same contract as
    /// [`TokenDatabase::check_level`]).
    pub fn encode(&mut self, token: &str, k: usize) -> Result<()> {
        TokenDatabase::check_level(k)?;
        self.k = k;
        // The per-level encoders are stateless (`CustomSoundex::new(k)`),
        // so the query encodes without borrowing any store.
        CustomSoundex::new(k).encode_all_into(token, &mut self.codes);
        self.code_hashes.clear();
        self.code_hashes
            .extend(self.codes.iter().map(|c| fx_hash_str(c.as_str())));
        // ASCII folding equals `str::to_lowercase` for ASCII input and
        // reuses the buffer; non-ASCII takes the allocating Unicode path
        // (final-sigma etc. must match the reference engines).
        self.folded.clear();
        if token.is_ascii() {
            self.folded.push_str(token);
            self.folded.make_ascii_lowercase();
        } else {
            self.folded = token.to_lowercase();
        }
        self.folded_chars = self.folded.chars().count();
        Ok(())
    }

    /// Encode a fresh query for `token` at level `k`.
    pub fn for_token(token: &str, k: usize) -> Result<Self> {
        let mut q = EncodedQuery::new();
        q.encode(token, k)?;
        Ok(q)
    }

    /// The phonetic level this query was encoded at (always valid).
    #[inline]
    pub fn level(&self) -> usize {
        self.k
    }

    /// The deduplicated Soundex codes of every visual reading, primary
    /// reading first.
    #[inline]
    pub fn codes(&self) -> &[SoundexCode] {
        &self.codes
    }

    /// Fx hashes of [`EncodedQuery::codes`], index-aligned. These feed the
    /// per-shard Bloom summaries, so routing never rehashes per shard.
    #[inline]
    pub fn code_hashes(&self) -> &[u64] {
        &self.code_hashes
    }

    /// The case-folded form of the encoded token.
    #[inline]
    pub fn folded(&self) -> &str {
        &self.folded
    }

    /// Unicode scalar count of [`EncodedQuery::folded`].
    #[inline]
    pub fn folded_chars(&self) -> usize {
        self.folded_chars
    }
}

/// Generation-marked visited set: the working memory of
/// [`TokenStore::for_each_sound_mate`].
///
/// Marking a record visited is one `u32` compare-and-store; starting a new
/// shard walk is one epoch increment (no clearing). Reuse one instance per
/// thread or per bulk request.
#[derive(Debug, Default)]
pub struct SoundScratch {
    visited: Vec<u32>,
    epoch: u32,
    /// Matching-shard buffer for the fan-out dispatch, kept here so
    /// routing a query allocates nothing (the store borrows it via
    /// `mem::take` around its walk).
    fan_out: Vec<u32>,
}

impl SoundScratch {
    /// Fresh scratch space (allocates lazily on first use).
    pub fn new() -> Self {
        SoundScratch::default()
    }

    pub(crate) fn begin(&mut self, n_records: usize) {
        if self.visited.len() < n_records {
            self.visited.resize(n_records, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: old marks could alias. Reset once per 2^32.
            self.visited.fill(0);
            self.epoch = 1;
        }
    }

    /// Returns true on the first visit of `id` this epoch.
    #[inline]
    pub(crate) fn mark(&mut self, id: u32) -> bool {
        let slot = &mut self.visited[id as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

thread_local! {
    /// Per-worker walk scratch for the parallel fan-out path: each pool
    /// worker (and the participating caller) dedups its shard walks
    /// through its own visited set, so no scratch crosses threads.
    static FAN_OUT_SCRATCH: RefCell<SoundScratch> = RefCell::new(SoundScratch::new());
}

/// One text prepared off-thread during batch ingest: the routed, encoded
/// words plus the clean-sentence gate bits.
struct PreparedText {
    /// `(shard, word)` for every word that reaches a shard; words under
    /// the length gate or without phonetic content are counted in
    /// `n_words` but not scattered.
    words: Vec<(u32, PreparedWord)>,
    n_words: usize,
    any_word: bool,
    all_english: bool,
}

/// The token database. See the module docs for the routing, id-space and
/// persistence design.
pub struct TokenDatabase {
    ring: ShardRing,
    soundex: [CustomSoundex; NUM_LEVELS],
    shards: Vec<Shard>,
    /// Clean sentences accumulated for LM training (bounded).
    clean_sentences: Vec<String>,
    /// Shard walks actually performed (Bloom summary admitted the query).
    shard_walks: Counter,
    /// Shard walks skipped outright by the Bloom summaries.
    shard_skips: Counter,
}

impl Default for TokenDatabase {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl TokenDatabase {
    /// An empty one-shard database.
    pub fn in_memory() -> Self {
        Self::with_shards(1)
    }

    /// An empty database over `shards` consistent-hash shards (clamped to
    /// at least 1).
    pub fn with_shards(shards: usize) -> Self {
        let ring = ShardRing::new(shards);
        TokenDatabase {
            ring,
            soundex: std::array::from_fn(CustomSoundex::new),
            shards: (0..ring.shards()).map(|_| Shard::default()).collect(),
            clean_sentences: Vec::new(),
            shard_walks: Counter::new(),
            shard_skips: Counter::new(),
        }
    }

    /// An empty one-shard database pre-seeded with the English lexicon
    /// (count 0, `is_english = true`). Normalization needs dictionary words
    /// present even when the corpus never used them cleanly.
    pub fn with_lexicon() -> Self {
        let mut db = Self::in_memory();
        db.seed_lexicon();
        db
    }

    /// How many shards back this store.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `token`: jump hash of the primary `H_1` code,
    /// falling back to the raw token for strings without phonetic content.
    #[inline]
    pub(crate) fn route(&self, token: &str) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        match self.soundex[1].encode(token) {
            Some(code) => self.ring.route_str(code.as_str()),
            None => self.ring.route_str(token),
        }
    }

    /// Read access to one shard.
    pub(crate) fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// The record behind a global id handed out by
    /// [`TokenStore::for_each_sound_mate`].
    pub fn record(&self, global_id: u32) -> Option<&TokenRecord> {
        let n = self.shards.len() as u32;
        let shard = self.shards.get((global_id % n) as usize)?;
        shard.records().get((global_id / n) as usize)
    }

    /// The shards whose Bloom summaries admit at least one of `query`'s
    /// codes — the only shards a multi-shard walk visits. False positives
    /// are possible (a listed shard may still produce no hits); false
    /// negatives are not (codes are only ever interned, never removed).
    pub fn matching_shards(&self, query: &EncodedQuery) -> Vec<u32> {
        (0..self.shards.len() as u32)
            .filter(|&s| self.shards[s as usize].may_match(query))
            .collect()
    }

    /// How many of a query's shard walks the Bloom summaries skip — the
    /// `skip-rate` statistic of the bench's `shards` dimension.
    pub fn skipped_shards(&self, query: &EncodedQuery) -> usize {
        self.shards.iter().filter(|s| !s.may_match(query)).count()
    }

    /// The parallel half of [`TokenStore::fan_out_sound_mates`]: run every
    /// matching shard's walk (candidate visit + `map`) on the worker pool,
    /// buffering per-shard results, then feed the buffers to `sink` in
    /// shard order. Because shards are disjoint and `map` is pure, the
    /// sink observes exactly the sequence the sequential walk produces —
    /// including under early exit, where later results are simply
    /// discarded. Kept separate from the dispatch heuristic so tests can
    /// pin this path against the sequential walk regardless of core count.
    fn fan_out_collected<'a, M, R, F>(
        &'a self,
        query: &EncodedQuery,
        matching: &[u32],
        map: &M,
        mut sink: F,
    ) -> ControlFlow<()>
    where
        M: Fn(u32, &'a TokenRecord) -> Option<R> + Sync,
        R: Send,
        F: FnMut(R) -> ControlFlow<()>,
    {
        let n = self.shards.len() as u32;
        let per_shard: Vec<Vec<R>> = par_map(matching, |&s| {
            FAN_OUT_SCRATCH.with(|scratch| {
                let scratch = &mut *scratch.borrow_mut();
                let mut out: Vec<R> = Vec::new();
                let flow =
                    self.shards[s as usize].for_each_sound_mate(query, scratch, |local, rec| {
                        if let Some(r) = map(local * n + s, rec) {
                            out.push(r);
                        }
                        ControlFlow::Continue(())
                    });
                debug_assert!(flow.is_continue());
                out
            })
        });
        for results in per_shard {
            for r in results {
                sink(r)?;
            }
        }
        ControlFlow::Continue(())
    }

    /// Seed/refresh every dictionary word as an `is_english` record.
    pub fn seed_lexicon(&mut self) {
        for w in cryptext_corpus::english_lexicon() {
            let s = self.route(w);
            self.shards[s].upsert(w, 0);
        }
    }

    /// Seed the slice of the English lexicon owned by `shard` — the exact
    /// subsequence (in lexicon order) that [`TokenDatabase::seed_lexicon`]
    /// routes there. Crate internal: delta-log replay re-seeds one shard at
    /// a time.
    pub(crate) fn seed_lexicon_shard(&mut self, shard: usize) {
        for w in cryptext_corpus::english_lexicon() {
            if self.route(w) == shard {
                self.shards[shard].upsert(w, 0);
            }
        }
    }

    /// Apply one replayed count delta to the routed shard. Crate internal:
    /// the durable ingest layer's recovery path replays delta-log records
    /// through this, reproducing live ingest exactly.
    pub(crate) fn upsert_routed(&mut self, token: &str, delta: u64) {
        let s = self.route(token);
        self.shards[s].upsert(token, delta);
    }

    /// Ingest one raw token occurrence (case-sensitive, as the paper's
    /// curation does). Tokens shorter than 2 characters or without letter
    /// interpretation are skipped.
    pub fn ingest_token(&mut self, token: &str) {
        if token.chars().count() < 2 {
            return;
        }
        if self.soundex[0].encode(token).is_none() {
            return; // no phonetic content
        }
        self.upsert_routed(token, 1);
    }

    /// Tokenize `text` and ingest every word token. Returns the word-token
    /// count. If the sentence is fully in-dictionary it is also recorded as
    /// LM training material. A batch of one for
    /// [`TokenDatabase::ingest_texts`].
    pub fn ingest_text(&mut self, text: &str) -> usize {
        self.ingest_texts(&[text])
    }

    /// Ingest a batch of texts: prepare every text in parallel against the
    /// pre-batch state (tokenize, gate, route, encode new tokens), then
    /// merge the prepared words into their shards in input order. Tokens
    /// already present when the batch is prepared carry their resolved
    /// record id into the merge, so the merge is a plain count bump per
    /// known token.
    ///
    /// The resulting state — record ids, bucket posting order, counts,
    /// clean sentences — is identical to ingesting the texts one at a time
    /// in order. Returns the total word-token count.
    pub fn ingest_texts<T: AsRef<str> + Sync>(&mut self, texts: &[T]) -> usize {
        let prepared: Vec<PreparedText> = par_map(texts, |text| self.prepare_text(text.as_ref()));

        // Merge each word in place, in input order; shards are disjoint,
        // so per-shard order is all that matters. Clean sentences are
        // collected here (the gate is per text, not per shard).
        let mut n = 0;
        for (text, prep) in texts.iter().zip(prepared) {
            n += prep.n_words;
            for (s, word) in prep.words {
                self.shards[s as usize].merge(word);
            }
            if prep.any_word && prep.all_english {
                self.record_clean_sentence(text.as_ref());
            }
        }
        n
    }

    /// The read-only, parallel-safe half of batch ingest: route, gate, and
    /// encode every word of one text against the pre-batch shard states.
    /// Token text is borrowed from `text` throughout; owned `String`s are
    /// materialized only for tokens new to their shard.
    fn prepare_text(&self, text: &str) -> PreparedText {
        let mut words = Vec::new();
        let mut n_words = 0usize;
        let mut any_word = false;
        let mut all_english = true;
        // New tokens already encoded earlier in this text: true = emitted
        // as `Fresh` (later occurrences just count), false = unencodable
        // (later occurrences skip). Avoids re-running the 3-level encoder
        // for every repeat of the same new word.
        let mut local: FxHashMap<&str, bool> = FxHashMap::default();
        // Routing runs a Soundex encode at more than one shard, so memoize
        // it per distinct token there.
        let mut routed: FxHashMap<&str, u32> = FxHashMap::default();
        for tok in tokenize_spans(text) {
            if !tok.is_word() {
                continue;
            }
            let t = tok.text(text);
            any_word = true;
            if !cryptext_corpus::is_english_word(t) {
                all_english = false;
            }
            n_words += 1;
            if t.chars().count() < 2 {
                continue; // Counted, never stored.
            }
            let s = if self.shards.len() == 1 {
                0
            } else {
                *routed.entry(t).or_insert_with(|| self.route(t) as u32)
            };
            if let Some(id) = self.shards[s as usize].id_of_token(t) {
                words.push((s, PreparedWord::Known(id)));
                continue;
            }
            match local.get(t) {
                Some(true) => words.push((s, PreparedWord::Repeat(t.to_string()))),
                Some(false) => {}
                None => {
                    let codes = encode_levels(t);
                    if codes[0].is_empty() {
                        local.insert(t, false); // no phonetic content
                    } else {
                        local.insert(t, true);
                        words.push((s, PreparedWord::Fresh(t.to_string(), Box::new(codes))));
                    }
                }
            }
        }
        PreparedText {
            words,
            n_words,
            any_word,
            all_english,
        }
    }

    /// Record a known-clean sentence for LM training without ingesting
    /// perturbations (used when gold clean text is available).
    pub fn record_clean_sentence(&mut self, text: &str) {
        if self.clean_sentences.len() < MAX_CLEAN_SENTENCES {
            self.clean_sentences.push(text.to_string());
        }
    }

    /// Clean sentences accumulated so far (LM training corpus).
    pub fn clean_sentences(&self) -> &[String] {
        &self.clean_sentences
    }

    /// Fetch a token's record (case-sensitive).
    pub fn get(&self, token: &str) -> Option<&TokenRecord> {
        self.shards[self.route(token)].get(token)
    }

    /// Validate a phonetic level.
    pub fn check_level(k: usize) -> Result<()> {
        if k >= NUM_LEVELS {
            return Err(Error::invalid(format!(
                "phonetic level k={k} unsupported (materialized: k ≤ {MAX_PHONETIC_LEVEL})"
            )));
        }
        Ok(())
    }

    /// The encoder for level `k`.
    pub fn soundex(&self, k: usize) -> Result<&CustomSoundex> {
        Self::check_level(k)?;
        Ok(&self.soundex[k])
    }

    /// Aggregate statistics; independent of the shard count.
    pub fn stats(&self) -> TokenStats {
        let mut stats = TokenStats {
            unique_tokens: 0,
            total_occurrences: 0,
            unique_sounds: [0; NUM_LEVELS],
            english_tokens: 0,
        };
        for shard in &self.shards {
            let records = shard.records();
            stats.unique_tokens += records.len();
            stats.total_occurrences += records.iter().map(|r| r.count).sum::<u64>();
            stats.english_tokens += records.iter().filter(|r| r.is_english).count();
        }
        // Sounds are not disjoint across shards (a code can host tokens in
        // several shards through ambiguous secondary readings), so the
        // per-level counts are unions, not sums.
        for (k, sounds) in stats.unique_sounds.iter_mut().enumerate() {
            *sounds = match &self.shards[..] {
                [shard] => shard.code_names(k).len(),
                shards => {
                    let mut seen: FxHashSet<&str> = FxHashSet::default();
                    for shard in shards {
                        seen.extend(shard.code_names(k).iter().map(|name| &**name));
                    }
                    seen.len()
                }
            };
        }
        stats
    }

    /// Distinct stored tokens — the cheap subset of
    /// [`TokenDatabase::stats`] (no sound-set unions).
    pub fn unique_tokens(&self) -> usize {
        self.shards.iter().map(|s| s.records().len()).sum()
    }

    /// Materialize the `H_k` map at level `k` as `(code, tokens)` pairs,
    /// codes and tokens sorted — the exact shape of Table I.
    pub fn hashmap_view(&self, k: usize) -> Result<Vec<(String, Vec<String>)>> {
        Self::check_level(k)?;
        let mut merged: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for shard in &self.shards {
            for (code, tokens) in shard.hashmap_entries(k) {
                merged.entry(code).or_default().extend(tokens);
            }
        }
        Ok(merged
            .into_iter()
            .map(|(code, mut tokens)| {
                tokens.sort_unstable();
                (
                    code.to_string(),
                    tokens.into_iter().map(String::from).collect(),
                )
            })
            .collect())
    }

    /// Route a stored record against `ring` without re-running the Soundex
    /// encoder: records keep their codes, and `encode_all` lists the
    /// primary `H_1` reading first, so resharding reuses it (with the same
    /// raw-token fallback as [`TokenDatabase::route`]).
    fn route_record(ring: &ShardRing, rec: &TokenRecord) -> usize {
        match rec.codes[1].first() {
            Some(code) => ring.route_str(code.as_str()),
            None => ring.route_str(&rec.token),
        }
    }

    /// Grow the store by one shard in place, relocating only the records
    /// whose jump-hash home changes. Jump consistent hashing guarantees a
    /// key's route either stays put or moves to the *new* shard, so going
    /// N→N+1 touches ~1/(N+1) of the corpus and every retained shard keeps
    /// its records (and record order) byte-identical to a fresh
    /// (N+1)-shard build of the same corpus. Returns the number of records
    /// moved.
    pub fn grow_one_shard(&mut self) -> usize {
        let old_n = self.shards.len();
        let new_ring = ShardRing::new(old_n + 1);
        let mut fresh = Shard::default();
        let mut moved = 0;
        for s in 0..old_n {
            let mut keep = Shard::default();
            for rec in std::mem::take(&mut self.shards[s]).into_records() {
                let home = Self::route_record(&new_ring, &rec);
                // Jump hash moves keys only to the new last shard;
                // anything else breaks the minimal-movement contract.
                debug_assert!(home == s || home == old_n);
                if home == s {
                    keep.insert_record(rec);
                } else {
                    fresh.insert_record(rec);
                    moved += 1;
                }
            }
            self.shards[s] = keep;
        }
        self.shards.push(fresh);
        self.ring = new_ring;
        moved
    }

    /// The name of shard `i`'s collection under generation `g` of a
    /// persist of `collection`.
    fn shard_collection(collection: &str, g: u64, i: usize) -> String {
        format!("{collection}__g{g}__shard{i}")
    }

    /// Parse the generation out of a `{collection}__g{g}__shard{i}` name,
    /// or of the `{…}__shard{i}__staging` name an older persist that
    /// crashed mid-write can leave behind. `None` for every other name:
    /// the stale-generation sweep only ever drops names this function
    /// recognizes, so unrelated `{collection}__…` collections survive.
    /// Parsing the numbers rather than string-prefix matching keeps `g1`
    /// from swallowing `g10`.
    fn collection_generation(collection: &str, name: &str) -> Option<u64> {
        let rest = name.strip_prefix(collection)?.strip_prefix("__g")?;
        let (generation, shard) = rest.split_once("__shard")?;
        let shard = shard.strip_suffix("__staging").unwrap_or(shard);
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        if !digits(generation) || !digits(shard) {
            return None;
        }
        generation.parse().ok()
    }

    /// Read the `(shard_count, generation)` pair recorded by a persist of
    /// `collection`, or `None` when the collection is absent or carries no
    /// manifest.
    fn manifest_meta(store: &Database, collection: &str) -> Result<Option<(usize, u64)>> {
        if !store.has_collection(collection) {
            return Ok(None);
        }
        let Some((_, doc)) = store.find_one(collection, &Filter::All)? else {
            return Ok(None);
        };
        let Some(n) = doc
            .get("shard_manifest")
            .and_then(Value::as_int)
            .filter(|&n| n > 0)
        else {
            return Ok(None);
        };
        let g = doc
            .get("generation")
            .and_then(Value::as_int)
            .unwrap_or(0)
            .max(0) as u64;
        Ok(Some((n as usize, g)))
    }

    /// Persist the whole store into `store` under `collection`, replacing
    /// any previous persist of the same name (see the module docs for the
    /// layout). Clean sentences are not persisted.
    ///
    /// Crash-safe: the shard collections are written under a fresh
    /// generation, the manifest swap is the single commit point, and stale
    /// generations are swept only after it. Each shard is written in one
    /// batched append, shards in parallel (the document store takes
    /// per-collection locks, so writers do not contend).
    pub fn persist_to(&self, store: &Database, collection: &str) -> Result<()> {
        // A fresh generation above every one on disk, including leftovers
        // of persists that crashed before their swap.
        let live = Self::manifest_meta(store, collection)?.map_or(0, |(_, g)| g);
        let generation = store
            .collections_with_prefix(&format!("{collection}__g"))
            .iter()
            .filter_map(|name| Self::collection_generation(collection, name))
            .fold(live, u64::max)
            + 1;

        failpoint::check("persist.shards.write")?;
        let jobs: Vec<(usize, &Shard)> = self.shards.iter().enumerate().collect();
        try_par_map(&jobs, |&(i, shard)| {
            shard.persist(store, &Self::shard_collection(collection, generation, i))
        })?;

        // Stage the manifest and rename it over the live name: the rename
        // is a single WAL record with replace semantics, so recovery sees
        // the old manifest or the new one, never neither.
        let staging = format!("{collection}__manifest_staging");
        if store.has_collection(&staging) {
            store.drop_collection(&staging)?;
        }
        store.create_collection(&staging)?;
        store.insert(
            &staging,
            Document::new()
                .with("shard_manifest", self.shards.len() as i64)
                .with("generation", generation as i64),
        )?;
        failpoint::check("persist.manifest.swap")?;
        store.rename_collection(&staging, collection)?;

        // Only now is every other generation garbage.
        for name in store.collections_with_prefix(&format!("{collection}__g")) {
            match Self::collection_generation(collection, &name) {
                Some(g) if g != generation => store.drop_collection(&name)?,
                _ => {}
            }
        }
        Ok(())
    }

    /// Rebuild a store from a previous [`TokenDatabase::persist_to`], at
    /// the persisted shard count. A collection without a manifest is
    /// [`Error::corrupt`]; a missing one is an error too.
    pub fn load_from(store: &Database, collection: &str) -> Result<TokenDatabase> {
        if !store.has_collection(collection) {
            return Err(Error::not_found(format!("collection {collection}")));
        }
        let (n, generation) = Self::manifest_meta(store, collection)?.ok_or_else(|| {
            Error::corrupt(format!(
                "collection {collection} has no shard-count manifest"
            ))
        })?;
        let idx: Vec<usize> = (0..n).collect();
        let shards = try_par_map(&idx, |&i| {
            Shard::load(store, &Self::shard_collection(collection, generation, i))
        })?;
        let mut out = Self::with_shards(n);
        out.shards = shards;
        Ok(out)
    }
}

impl TokenStore for TokenDatabase {
    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn for_each_sound_mate<'a, F>(
        &'a self,
        query: &EncodedQuery,
        scratch: &mut SoundScratch,
        mut f: F,
    ) -> ControlFlow<()>
    where
        F: FnMut(u32, &'a TokenRecord) -> ControlFlow<()>,
    {
        if let [shard] = &self.shards[..] {
            return shard.for_each_sound_mate(query, scratch, f);
        }
        let n = self.shards.len() as u32;
        // Tally walk/skip decisions locally and flush as two adds per
        // query (early exit included), never per shard.
        let mut walked = 0u64;
        let mut skipped = 0u64;
        let mut flow = ControlFlow::Continue(());
        for (s, shard) in self.shards.iter().enumerate() {
            if !shard.may_match(query) {
                skipped += 1;
                continue; // Bloom says no bucket here can match.
            }
            walked += 1;
            let s = s as u32;
            if shard
                .for_each_sound_mate(query, scratch, |local, rec| f(local * n + s, rec))
                .is_break()
            {
                flow = ControlFlow::Break(());
                break;
            }
        }
        self.shard_walks.add(walked);
        self.shard_skips.add(skipped);
        flow
    }

    fn fan_out_sound_mates<'a, M, R, F>(
        &'a self,
        query: &EncodedQuery,
        scratch: &mut SoundScratch,
        map: M,
        mut sink: F,
    ) -> ControlFlow<()>
    where
        M: Fn(u32, &'a TokenRecord) -> Option<R> + Sync,
        R: Send,
        F: FnMut(R) -> ControlFlow<()>,
    {
        let n = self.shards.len() as u32;
        // Route through the scratch's reusable shard buffer — the hot
        // path stays allocation-free per query.
        let mut matching = std::mem::take(&mut scratch.fan_out);
        matching.clear();
        matching.extend((0..n).filter(|&s| self.shards[s as usize].may_match(query)));
        self.shard_walks.add(matching.len() as u64);
        self.shard_skips.add(n as u64 - matching.len() as u64);
        let flow = if let [s] = matching[..] {
            // One matching shard: walk it inline on the caller's scratch,
            // no per-shard buffers.
            self.shards[s as usize].for_each_sound_mate(query, scratch, |local, rec| {
                match map(local * n + s, rec) {
                    Some(r) => sink(r),
                    None => ControlFlow::Continue(()),
                }
            })
        } else {
            self.fan_out_collected(query, &matching, &map, sink)
        };
        scratch.fan_out = matching;
        flow
    }

    fn get(&self, token: &str) -> Option<&TokenRecord> {
        TokenDatabase::get(self, token)
    }

    fn stats(&self) -> TokenStats {
        TokenDatabase::stats(self)
    }

    fn unique_tokens(&self) -> usize {
        TokenDatabase::unique_tokens(self)
    }

    fn clean_sentences(&self) -> &[String] {
        TokenDatabase::clean_sentences(self)
    }

    fn ingest_token(&mut self, token: &str) {
        TokenDatabase::ingest_token(self, token)
    }

    fn ingest_text(&mut self, text: &str) -> usize {
        TokenDatabase::ingest_text(self, text)
    }

    fn ingest_texts<T: AsRef<str> + Sync>(&mut self, texts: &[T]) -> usize {
        TokenDatabase::ingest_texts(self, texts)
    }

    fn record_clean_sentence(&mut self, text: &str) {
        TokenDatabase::record_clean_sentence(self, text)
    }

    fn seed_lexicon(&mut self) {
        TokenDatabase::seed_lexicon(self)
    }

    fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.register_counter(
            "cryptext_store_shard_walks_total",
            "Per-query shard walks the Bloom summaries admitted",
            &[],
            &self.shard_walks,
        );
        registry.register_counter(
            "cryptext_store_shard_skips_total",
            "Per-query shard walks skipped by the Bloom summaries",
            &[],
            &self.shard_skips,
        );
    }
}

impl std::fmt::Debug for TokenDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("TokenDatabase")
            .field("shards", &self.shards.len())
            .field("unique_tokens", &s.unique_tokens)
            .field("sounds_k1", &s.unique_sounds[1])
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup::{look_up, LookupParams};

    const FIXTURE_TEXTS: [&str; 6] = [
        "the dirrty republicans",
        "thee dirty repubLIEcans",
        "the dirty republic@@ns",
        "the demokRATs and the democrats",
        "thinking about suic1de",
        "suicide prevention matters",
    ];

    fn table1_db() -> TokenDatabase {
        let mut db = TokenDatabase::in_memory();
        for s in &FIXTURE_TEXTS[..3] {
            db.ingest_text(s);
        }
        db
    }

    fn fixture(shards: usize) -> TokenDatabase {
        let mut db = TokenDatabase::with_shards(shards);
        for t in FIXTURE_TEXTS {
            db.ingest_text(t);
        }
        db
    }

    /// Per-shard records in local-id order: equal for two stores exactly
    /// when they are byte-identical.
    fn layout(db: &TokenDatabase) -> Vec<&[TokenRecord]> {
        (0..db.num_shards())
            .map(|s| db.shard(s).records())
            .collect()
    }

    /// The canonical one-token-at-a-time ingest loop, independent of the
    /// batch path: every word token through `ingest_token`, fully
    /// in-dictionary texts recorded as clean sentences.
    pub(super) fn reference_ingest(db: &mut TokenDatabase, text: &str) -> usize {
        let mut n = 0;
        let mut all_english = true;
        for tok in tokenize_spans(text).into_iter().filter(|t| t.is_word()) {
            let word = tok.text(text);
            db.ingest_token(word);
            all_english &= cryptext_corpus::is_english_word(word);
            n += 1;
        }
        if n > 0 && all_english {
            db.record_clean_sentence(text);
        }
        n
    }

    fn mates(db: &TokenDatabase, token: &str, k: usize) -> Vec<String> {
        let query = EncodedQuery::for_token(token, k).unwrap();
        let mut out = Vec::new();
        let _ = db.for_each_sound_mate(&query, &mut SoundScratch::new(), |_, rec| {
            out.push(rec.token.clone());
            ControlFlow::Continue(())
        });
        out
    }

    fn assert_equivalent(one: &TokenDatabase, wide: &TokenDatabase) {
        assert_eq!(wide.stats(), one.stats());
        assert_eq!(wide.clean_sentences(), one.clean_sentences());
        for k in 0..NUM_LEVELS {
            assert_eq!(
                wide.hashmap_view(k).unwrap(),
                one.hashmap_view(k).unwrap(),
                "H_{k} identical"
            );
        }
        for q in [
            "republicans",
            "democrats",
            "suic1de",
            "the",
            "zzzzzz",
            "vãccine",
        ] {
            for k in 0..NUM_LEVELS {
                for d in 0..4 {
                    for params in [
                        LookupParams::new(k, d),
                        LookupParams::new(k, d).perturbations_only(),
                        LookupParams::new(k, d).observed(),
                    ] {
                        assert_eq!(
                            look_up(wide, q, params).unwrap(),
                            look_up(one, q, params).unwrap(),
                            "query {q:?} params {params:?}"
                        );
                    }
                }
            }
            assert_eq!(wide.get(q), one.get(q));
        }
    }

    #[test]
    fn table1_h1_groups() {
        let db = table1_db();
        let view = db.hashmap_view(1).unwrap();
        let get = |code: &str| -> Vec<String> {
            view.iter()
                .find(|(c, _)| c == code)
                .map(|(_, t)| t.clone())
                .unwrap_or_default()
        };
        // Table I, reproduced with our (documented) code literals.
        assert_eq!(get("TH000"), vec!["the", "thee"]);
        assert_eq!(get("DI630"), vec!["dirrty", "dirty"]);
        // The republicans row groups all three variants.
        let rep_code = db.soundex(1).unwrap().encode("republicans").unwrap();
        let group = get(rep_code.as_str());
        assert!(group.contains(&"republicans".to_string()));
        assert!(group.contains(&"repubLIEcans".to_string()));
        assert!(group.contains(&"republic@@ns".to_string()));
    }

    #[test]
    fn counts_accumulate_case_sensitively() {
        let db = table1_db();
        assert_eq!(db.get("the").unwrap().count, 2);
        assert_eq!(db.get("dirty").unwrap().count, 2);
        assert_eq!(db.get("repubLIEcans").unwrap().count, 1);
        // Case-sensitive: "The" absent.
        assert!(db.get("The").is_none());
    }

    #[test]
    fn stats_reflect_contents() {
        let db = table1_db();
        let s = db.stats();
        // the, thee, dirrty, dirty, republicans, repubLIEcans, republic@@ns
        assert_eq!(s.unique_tokens, 7);
        assert_eq!(s.total_occurrences, 9);
        assert!(s.english_tokens >= 3, "the, dirty, republicans");
        // H1 sounds: TH000, DI630, RE…, and dirrty≡dirty share DI630.
        assert!(s.unique_sounds[1] >= 3);
        assert!(s.unique_sounds[0] <= s.unique_sounds[1]);
    }

    #[test]
    fn ambiguous_tokens_live_in_multiple_buckets() {
        let mut db = TokenDatabase::in_memory();
        db.ingest_token("suic1de");
        assert!(
            mates(&db, "suicide", 1).contains(&"suic1de".to_string()),
            "query by the clean word finds the 1-perturbed token"
        );
    }

    #[test]
    fn short_and_unencodable_tokens_skipped() {
        let mut db = TokenDatabase::in_memory();
        db.ingest_token("a");
        db.ingest_token("...");
        db.ingest_token("🙂🙂");
        assert_eq!(db.stats().unique_tokens, 0);
    }

    #[test]
    fn ingest_text_counts_words_only() {
        let mut db = TokenDatabase::in_memory();
        let n = db.ingest_text("@user check https://x.com the vaccine!! 123");
        // "check", "the", "vaccine" are word tokens (123 is a number,
        // @user a mention, the URL a url).
        assert_eq!(n, 3);
        assert!(db.get("vaccine").is_some());
        assert!(db.get("123").is_none());
    }

    #[test]
    fn clean_sentences_gate_on_dictionary() {
        let mut db = TokenDatabase::in_memory();
        db.ingest_text("the vaccine mandate was announced");
        db.ingest_text("the vacc1ne mandate was announced");
        assert_eq!(db.clean_sentences().len(), 1);
        db.record_clean_sentence("manually recorded sentence");
        assert_eq!(db.clean_sentences().len(), 2);
    }

    #[test]
    fn lexicon_seeding_marks_english() {
        let db = TokenDatabase::with_lexicon();
        let s = db.stats();
        assert!(s.unique_tokens > 400);
        assert_eq!(s.english_tokens, s.unique_tokens);
        assert_eq!(s.total_occurrences, 0, "seeds carry no counts");
        let rec = db.get("democrats").unwrap();
        assert!(rec.is_english);
    }

    #[test]
    fn invalid_level_rejected() {
        let db = table1_db();
        assert!(EncodedQuery::for_token("the", 9).is_err());
        assert!(db.hashmap_view(3).is_err());
        assert!(db.soundex(3).is_err());
    }

    #[test]
    fn bucket_lookup_by_code() {
        let db = table1_db();
        assert_eq!(db.shard(0).bucket(1, "TH000").len(), 2);
        assert_eq!(db.shard(0).bucket(1, "ZZ999").len(), 0);
    }

    #[test]
    fn reingest_increments_not_duplicates() {
        let mut db = TokenDatabase::in_memory();
        db.ingest_token("vaccine");
        db.ingest_token("vaccine");
        assert_eq!(db.stats().unique_tokens, 1);
        assert_eq!(db.get("vaccine").unwrap().count, 2);
        // Bucket membership not duplicated either.
        let code = db.soundex(1).unwrap().encode("vaccine").unwrap();
        assert_eq!(db.shard(0).bucket(1, code.as_str()).len(), 1);
    }

    #[test]
    fn folded_fields_precomputed() {
        let mut db = TokenDatabase::in_memory();
        db.ingest_token("demokRATs");
        db.ingest_token("vãccine");
        let rec = db.get("demokRATs").unwrap();
        assert_eq!(rec.folded, "demokrats");
        assert_eq!(rec.folded_chars, 9);
        let rec = db.get("vãccine").unwrap();
        assert_eq!(rec.folded, "vãccine");
        assert_eq!(rec.folded_chars, 7, "scalar count, not byte count");
    }

    #[test]
    fn visitor_visits_each_mate_exactly_once() {
        let mut db = TokenDatabase::in_memory();
        // suic1de sits in two H1 buckets (1→l and 1→i readings); a query
        // that probes both buckets must still see it once.
        db.ingest_token("suic1de");
        db.ingest_token("suicide");
        let mut scratch = SoundScratch::new();
        let mut query = EncodedQuery::new();
        query.encode("suic1de", 1).unwrap();
        let mut seen: Vec<String> = Vec::new();
        let _ = db.for_each_sound_mate(&query, &mut scratch, |_, rec| {
            seen.push(rec.token.clone());
            ControlFlow::Continue(())
        });
        let unique: std::collections::HashSet<&String> = seen.iter().collect();
        assert_eq!(unique.len(), seen.len(), "no duplicate visits: {seen:?}");
        assert!(seen.contains(&"suic1de".to_string()));
        assert!(seen.contains(&"suicide".to_string()));
        // Scratch and query-buffer reuse across queries stays correct.
        query.encode("suicide", 1).unwrap();
        let mut second: Vec<String> = Vec::new();
        let _ = db.for_each_sound_mate(&query, &mut scratch, |_, rec| {
            second.push(rec.token.clone());
            ControlFlow::Continue(())
        });
        assert!(second.contains(&"suic1de".to_string()));
    }

    #[test]
    fn visitor_break_stops_the_walk() {
        let mut db = TokenDatabase::in_memory();
        for t in ["dirty", "dirrty", "dirrrty", "dirrrrty"] {
            db.ingest_token(t);
        }
        let query = EncodedQuery::for_token("dirty", 1).unwrap();
        let mut scratch = SoundScratch::new();
        // Full walk first, as the reference sequence.
        let mut full: Vec<u32> = Vec::new();
        let flow = db.for_each_sound_mate(&query, &mut scratch, |id, _| {
            full.push(id);
            ControlFlow::Continue(())
        });
        assert!(flow.is_continue());
        assert_eq!(full.len(), 4);
        // Breaking after n visits yields exactly the n-prefix, and the
        // break is reported to the caller.
        for n in 1..=full.len() {
            let mut seen: Vec<u32> = Vec::new();
            let flow = db.for_each_sound_mate(&query, &mut scratch, |id, _| {
                seen.push(id);
                if seen.len() == n {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert!(flow.is_break());
            assert_eq!(seen, full[..n], "break after {n}");
        }
    }

    #[test]
    fn encoded_query_matches_engine_encoders() {
        let db = table1_db();
        for token in ["republicans", "suic1de", "the", "vãccine", "..."] {
            for k in 0..NUM_LEVELS {
                let q = EncodedQuery::for_token(token, k).unwrap();
                assert_eq!(q.level(), k);
                assert_eq!(
                    q.codes(),
                    db.soundex(k).unwrap().encode_all(token).as_slice(),
                    "query encoding equals the store encoder for {token:?} k={k}"
                );
                assert_eq!(q.codes().len(), q.code_hashes().len());
                assert_eq!(q.folded(), token.to_lowercase());
                assert_eq!(q.folded_chars(), token.to_lowercase().chars().count());
            }
        }
    }

    #[test]
    fn may_match_never_false_negative() {
        let db = table1_db();
        for rec in db.shard(0).records() {
            for k in 0..NUM_LEVELS {
                let q = EncodedQuery::for_token(&rec.token, k).unwrap();
                assert_eq!(
                    db.matching_shards(&q),
                    [0],
                    "stored token {} must pass the level-{k} summary",
                    rec.token
                );
            }
        }
        // An empty database rules everything out.
        let empty = TokenDatabase::in_memory();
        let q = EncodedQuery::for_token("republicans", 1).unwrap();
        assert_eq!(empty.skipped_shards(&q), 1);
    }

    #[test]
    fn one_shard_store_leaves_the_walk_counters_at_zero() {
        let db = table1_db();
        let registry = MetricsRegistry::new();
        db.register_metrics(&registry);
        look_up(&db, "republicans", LookupParams::paper_default()).unwrap();
        assert_eq!((db.shard_walks.get(), db.shard_skips.get()), (0, 0));
        let wide = fixture(4);
        look_up(&wide, "republicans", LookupParams::paper_default()).unwrap();
        assert_eq!(wide.shard_walks.get() + wide.shard_skips.get(), 4);
    }

    #[test]
    fn shard_counts_match_one_shard() {
        let one = fixture(1);
        for n in 1..=8 {
            let wide = fixture(n);
            assert_eq!(wide.num_shards(), n);
            assert_equivalent(&one, &wide);
        }
    }

    #[test]
    fn every_record_lives_in_exactly_one_shard() {
        let wide = fixture(4);
        let total: usize = (0..4).map(|i| wide.shard(i).records().len()).sum();
        assert_eq!(total, fixture(1).stats().unique_tokens);
        // With more than one shard and this corpus, the records actually
        // spread out (the router is not degenerate).
        let populated = (0..4)
            .filter(|&i| !wide.shard(i).records().is_empty())
            .count();
        assert!(populated > 1, "tokens spread across shards");
    }

    #[test]
    fn routing_groups_primary_sound_mates() {
        let wide = fixture(8);
        // Tokens sharing a primary H_1 code are colocated by construction.
        assert_eq!(
            wide.route("dirty"),
            wide.route("dirrty"),
            "same primary H_1 code → same shard"
        );
    }

    #[test]
    fn global_ids_decode_back_to_records() {
        let wide = fixture(3);
        let mut scratch = SoundScratch::new();
        let query = EncodedQuery::for_token("republicans", 1).unwrap();
        let mut seen = 0;
        let flow = wide.for_each_sound_mate(&query, &mut scratch, |id, rec| {
            assert_eq!(
                wide.record(id).expect("global id resolves"),
                rec,
                "id ↔ record agree through the shard remap"
            );
            seen += 1;
            ControlFlow::Continue(())
        });
        assert!(flow.is_continue());
        assert!(seen >= 3, "all republicans variants visited");
        assert!(wide.record(u32::MAX).is_none());
    }

    /// Reference sequence: the sequential shard-order walk with the map
    /// applied inline — what `fan_out_sound_mates` must reproduce exactly.
    fn sequential_reference(wide: &TokenDatabase, query: &EncodedQuery) -> Vec<(u32, String)> {
        let mut scratch = SoundScratch::new();
        let mut out = Vec::new();
        let _ = wide.for_each_sound_mate(query, &mut scratch, |id, rec| {
            out.push((id, rec.token.clone()));
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn parallel_fan_out_matches_sequential_walk_exactly() {
        for n in [1usize, 2, 3, 5, 8] {
            let wide = fixture(n);
            for token in ["republicans", "the", "suic1de", "democrats", "zzzzzz"] {
                for k in 0..NUM_LEVELS {
                    let query = EncodedQuery::for_token(token, k).unwrap();
                    let reference = sequential_reference(&wide, &query);

                    // Drive the parallel collect-then-merge path directly
                    // (bypassing the ≤1-matching-shard shortcut) so the pin
                    // holds even on single-core hosts and sparse queries.
                    let matching = wide.matching_shards(&query);
                    let mut collected = Vec::new();
                    let flow = wide.fan_out_collected(
                        &query,
                        &matching,
                        &|id, rec: &TokenRecord| Some((id, rec.token.clone())),
                        |r| {
                            collected.push(r);
                            ControlFlow::Continue(())
                        },
                    );
                    assert!(flow.is_continue());
                    assert_eq!(
                        collected, reference,
                        "{n} shards, {token:?} k={k}: parallel == sequential"
                    );

                    // The public dispatcher agrees too.
                    let mut scratch = SoundScratch::new();
                    let mut dispatched = Vec::new();
                    let _ = wide.fan_out_sound_mates(
                        &query,
                        &mut scratch,
                        |id, rec| Some((id, rec.token.clone())),
                        |r| {
                            dispatched.push(r);
                            ControlFlow::Continue(())
                        },
                    );
                    assert_eq!(dispatched, reference);
                }
            }
        }
    }

    #[test]
    fn fan_out_early_exit_yields_exact_prefix() {
        let wide = fixture(4);
        let query = EncodedQuery::for_token("republicans", 1).unwrap();
        let reference = sequential_reference(&wide, &query);
        assert!(reference.len() >= 3, "fixture has republicans variants");
        let matching = wide.matching_shards(&query);
        for cut in 0..=reference.len() {
            let mut seen = Vec::new();
            let flow = wide.fan_out_collected(
                &query,
                &matching,
                &|id, rec: &TokenRecord| Some((id, rec.token.clone())),
                |r| {
                    seen.push(r);
                    if seen.len() > cut {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            if cut < reference.len() {
                assert!(flow.is_break(), "cut {cut} breaks");
                assert_eq!(seen, reference[..cut + 1], "prefix after break at {cut}");
            } else {
                assert!(flow.is_continue());
                assert_eq!(seen, reference);
            }
        }
    }

    /// Every shard the router skips for `query` truly holds no hits.
    fn assert_skips_are_exact(wide: &TokenDatabase, query: &EncodedQuery) {
        let matching = wide.matching_shards(query);
        assert_eq!(
            matching.len() + wide.skipped_shards(query),
            wide.num_shards()
        );
        let mut scratch = SoundScratch::new();
        for s in 0..wide.num_shards() as u32 {
            if matching.contains(&s) {
                continue;
            }
            let mut found = 0usize;
            let _ = wide
                .shard(s as usize)
                .for_each_sound_mate(query, &mut scratch, |_, _| {
                    found += 1;
                    ControlFlow::Continue(())
                });
            assert_eq!(found, 0, "skipped shard {s} had a hit");
        }
    }

    #[test]
    fn bloom_routing_skips_shards_without_losing_hits() {
        // At 8 shards most queries route to a strict subset; every hit a
        // full (skip-free) walk finds must still be found.
        let wide = fixture(8);
        let mut skipped_total = 0usize;
        for token in ["republicans", "democrats", "suic1de", "the", "dirty"] {
            let query = EncodedQuery::for_token(token, 1).unwrap();
            skipped_total += wide.skipped_shards(&query);
            assert_skips_are_exact(&wide, &query);
        }
        assert!(
            skipped_total > 0,
            "with 8 shards and this corpus, routing must actually skip"
        );
    }

    #[test]
    fn batch_ingest_matches_one_token_at_a_time() {
        let texts: Vec<String> = (0..40)
            .map(|i| match i % 5 {
                0 => format!("the dirrty republicans round {i}"),
                1 => "thee dirty repubLIEcans".to_string(),
                2 => format!("vacc1ne mandate pushback {i}"),
                3 => "the vaccine mandate was announced".to_string(),
                _ => "thinking about suic1de 🙂 ok zzyzxx zzyzxx ... ...".to_string(),
            })
            .collect();
        let one = {
            let mut db = TokenDatabase::in_memory();
            db.ingest_texts(&texts);
            db
        };
        for n in [1usize, 3, 8] {
            let mut reference = TokenDatabase::with_shards(n);
            let expect_n: usize = texts
                .iter()
                .map(|t| reference_ingest(&mut reference, t))
                .sum();
            let mut batch = TokenDatabase::with_shards(n);
            assert_eq!(batch.ingest_texts(&texts), expect_n, "{n} shards: count");
            let mut single = TokenDatabase::with_shards(n);
            for t in &texts {
                single.ingest_text(t);
            }
            assert_eq!(layout(&batch), layout(&reference), "{n} shards: batch");
            assert_eq!(layout(&single), layout(&reference), "{n} shards: texts");
            assert_eq!(batch.clean_sentences(), reference.clean_sentences());
            assert_equivalent(&one, &batch);
        }
        assert_eq!(one.get("zzyzxx").unwrap().count, 16);
    }

    #[test]
    fn batch_ingest_on_prepopulated_store() {
        let texts = ["the demokRATs rallied", "the demokRATs rallied again"];
        let mut one = TokenDatabase::with_lexicon();
        for t in texts {
            reference_ingest(&mut one, t);
        }
        for n in [1usize, 4] {
            let mut wide = TokenDatabase::with_shards(n);
            wide.seed_lexicon();
            wide.ingest_texts(&texts);
            assert_eq!(wide.get("demokRATs").unwrap().count, 2);
            assert_equivalent(&one, &wide);
        }
    }

    #[test]
    fn persist_load_round_trip_per_shard_count() {
        let one = fixture(1);
        for n in [1usize, 2, 4, 8] {
            let wide = fixture(n);
            let store = Database::in_memory();
            wide.persist_to(&store, "tokens").unwrap();
            let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
            assert_eq!(restored.num_shards(), n);
            assert_eq!(layout(&restored), layout(&wide));
            assert_eq!(restored.stats(), one.stats());
            assert_eq!(
                look_up(&restored, "republicans", LookupParams::paper_default()).unwrap(),
                look_up(&one, "republicans", LookupParams::paper_default()).unwrap()
            );
        }
    }

    #[test]
    fn persist_writes_one_collection_per_shard_plus_the_manifest() {
        let db = table1_db();
        let store = Database::in_memory();
        db.persist_to(&store, "tokens").unwrap();
        assert_eq!(store.len("tokens").unwrap(), 1, "the manifest");
        assert_eq!(store.len("tokens__g1__shard0").unwrap(), 7);
        // Query the docstore directly by H1 code. No index is built, so
        // this is a scan; array-valued fields match on any element.
        let hits = store
            .find("tokens__g1__shard0", &Filter::eq("codes_k1", "TH000"))
            .unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn per_record_indexed_layout_still_loads_identically() {
        // Stores written before persists were batched carry six
        // `CreateIndex` records and one separately flushed frame per
        // record. Replay of that WAL (and of its snapshot) must still load
        // the exact database, and a re-persist over it must be identical.
        let db = table1_db();
        let dir = std::env::temp_dir().join(format!(
            "cryptext-db-old-layout-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = Database::open(&dir, Default::default()).unwrap();
            let shard = "tokens__g1__shard0";
            store.create_collection(shard).unwrap();
            for k in 0..NUM_LEVELS {
                store.create_index(shard, &format!("codes_k{k}")).unwrap();
            }
            store.create_index(shard, "token").unwrap();
            for rec in db.shard(0).records() {
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
                store.insert(shard, doc).unwrap();
            }
            store.create_collection("tokens").unwrap();
            store
                .insert(
                    "tokens",
                    Document::new()
                        .with("shard_manifest", 1i64)
                        .with("generation", 1i64),
                )
                .unwrap();
        }
        for checkpoint in [false, true] {
            let store = Database::open(&dir, Default::default()).unwrap();
            let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
            assert_eq!(layout(&restored), layout(&db), "checkpoint={checkpoint}");
            if checkpoint {
                restored.persist_to(&store, "tokens").unwrap();
                let again = TokenDatabase::load_from(&store, "tokens").unwrap();
                assert_eq!(layout(&again), layout(&db));
            }
            store.checkpoint().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repersist_after_new_ingest_replaces_stale_counts() {
        // Persist, ingest more occurrences, persist again: the collection
        // must reflect only the latest state after a round trip.
        let mut db = table1_db();
        let store = Database::in_memory();
        db.persist_to(&store, "tokens").unwrap();
        db.ingest_text("the dirty republicans again");
        db.persist_to(&store, "tokens").unwrap();
        let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
        assert_eq!(restored.stats(), db.stats());
        assert_eq!(restored.get("the").unwrap().count, 3);
    }

    /// Count the shard collections (any generation) persisted under
    /// `collection`.
    fn shard_collection_count(store: &Database, collection: &str) -> usize {
        store
            .collections_with_prefix(&format!("{collection}__g"))
            .iter()
            .filter(|name| TokenDatabase::collection_generation(collection, name).is_some())
            .count()
    }

    #[test]
    fn repersist_replaces_and_drops_stale_shards() {
        // Persist with 8 shards, then re-persist the same corpus with 2:
        // the load must see exactly 2 shards and the 8 stale collections
        // must be gone (double-persist is replace, never append).
        let store = Database::in_memory();
        fixture(8).persist_to(&store, "tokens").unwrap();
        assert_eq!(shard_collection_count(&store, "tokens"), 8);

        let two = fixture(2);
        two.persist_to(&store, "tokens").unwrap();
        two.persist_to(&store, "tokens").unwrap(); // double persist
        assert_eq!(shard_collection_count(&store, "tokens"), 2);

        let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
        assert_eq!(restored.num_shards(), 2);
        assert_eq!(layout(&restored), layout(&two));
    }

    #[test]
    fn persist_sweep_keeps_unrelated_collections() {
        // Only the generations the parser recognizes are garbage after a
        // commit: a neighbour sharing the `tokens__` prefix survives.
        let store = Database::in_memory();
        for name in ["tokens__notes", "tokens__g2__shardx", "tokens__g__shard0"] {
            store.create_collection(name).unwrap();
            store
                .insert(name, Document::new().with("keep", true))
                .unwrap();
        }
        let db = table1_db();
        db.persist_to(&store, "tokens").unwrap();
        db.persist_to(&store, "tokens").unwrap();
        for name in ["tokens__notes", "tokens__g2__shardx", "tokens__g__shard0"] {
            assert_eq!(store.len(name).unwrap(), 1, "{name} must survive");
        }
        assert_eq!(shard_collection_count(&store, "tokens"), 1);
        assert_eq!(
            TokenDatabase::collection_generation("tokens", "tokens__g12__shard3__staging"),
            Some(12),
            "an older crashed persist's staging collection is swept too"
        );
        assert_eq!(
            TokenDatabase::collection_generation("tokens", "tokens__g1__shard0__notes"),
            None
        );
    }

    #[test]
    fn persist_kill_between_steps_preserves_previous_state() {
        let store = Database::in_memory();
        let old = fixture(3);
        old.persist_to(&store, "tokens").unwrap();
        let mut newer = fixture(3);
        newer.ingest_text("entirely fresh zebra vocabulary");
        assert_ne!(old.stats(), newer.stats());

        // Kill before the shard writes, then between the shard writes and
        // the manifest swap: both must leave the old persist loadable.
        for point in ["persist.shards.write", "persist.manifest.swap"] {
            let guard = failpoint::arm(point, "kill");
            let err = newer.persist_to(&store, "tokens").unwrap_err();
            assert!(failpoint::is_injected(&err), "{point}: {err}");
            drop(guard);
            let loaded = TokenDatabase::load_from(&store, "tokens").unwrap();
            assert_eq!(
                layout(&loaded),
                layout(&old),
                "{point}: old state intact after injected crash"
            );
        }

        // With no failpoint armed the persist commits and sweeps every
        // stale generation, including the crashed attempts' leftovers.
        newer.persist_to(&store, "tokens").unwrap();
        let loaded = TokenDatabase::load_from(&store, "tokens").unwrap();
        assert_eq!(layout(&loaded), layout(&newer));
        let gens: std::collections::BTreeSet<u64> = store
            .collections_with_prefix("tokens__g")
            .iter()
            .filter_map(|n| TokenDatabase::collection_generation("tokens", n))
            .collect();
        assert_eq!(gens.len(), 1, "exactly one generation survives");
        assert!(!store.has_collection("tokens__manifest_staging"));
    }

    #[test]
    fn load_from_without_manifest_is_corrupt() {
        // A collection of token records with no manifest — the layout of
        // the removed flat persist format — does not load.
        let store = Database::in_memory();
        store.create_collection("tokens").unwrap();
        store
            .insert(
                "tokens",
                Document::new().with("token", "the").with("count", 2i64),
            )
            .unwrap();
        let err = TokenDatabase::load_from(&store, "tokens").unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
        assert!(TokenDatabase::load_from(&store, "missing").is_err());
    }

    #[test]
    fn grow_one_shard_moves_minimum_and_matches_fresh_build() {
        let one = fixture(1);
        for n in 1usize..=8 {
            let mut grown = fixture(n);
            let total = grown.unique_tokens();
            let moved = grown.grow_one_shard();
            assert_eq!(grown.num_shards(), n + 1);

            let fresh = fixture(n + 1);
            // Exactly the records whose jump-hash home changed moved, and
            // they all landed in the new shard — the same population a
            // fresh (n+1)-shard build routes there.
            assert_eq!(moved, fresh.shard(n).records().len(), "n={n}: movers");
            assert!(moved <= total);
            // Retained shards are byte-identical to the fresh build; the
            // new shard holds the same record set (arrival order differs —
            // movers drain in shard order, not corpus order).
            assert_eq!(
                layout(&grown)[..n],
                layout(&fresh)[..n],
                "n={n}: retained shards byte-identical"
            );
            let sorted = |db: &TokenDatabase| {
                let mut v: Vec<TokenRecord> = db.shard(n).records().to_vec();
                v.sort_by(|a, b| a.token.cmp(&b.token));
                v
            };
            assert_eq!(sorted(&grown), sorted(&fresh), "n={n}: new shard set");
            assert_equivalent(&one, &grown);
        }
    }

    #[test]
    fn grow_then_persist_load_round_trips() {
        for n in [1usize, 3, 7] {
            let mut grown = fixture(n);
            grown.grow_one_shard();
            let store = Database::in_memory();
            grown.persist_to(&store, "tokens").unwrap();
            let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
            assert_eq!(restored.num_shards(), n + 1);
            assert_eq!(layout(&restored), layout(&grown));
        }
    }

    #[test]
    fn crawler_feeds_every_shard_count_identically() {
        use crate::ingest::Crawler;
        let platform = cryptext_stream::SocialPlatform::simulate(cryptext_stream::StreamConfig {
            n_posts: 200,
            seed: 3,
            ..cryptext_stream::StreamConfig::default()
        });
        let mut one = TokenDatabase::in_memory();
        let mut wide = TokenDatabase::with_shards(4);
        let a = Crawler::new().run_once(&platform, &mut one, 0);
        let b = Crawler::new().run_once(&platform, &mut wide, 0);
        assert_eq!(a, b, "crawl statistics agree");
        assert_eq!(wide.stats(), one.stats());
    }

    #[test]
    fn normalize_identical_across_shard_counts() {
        let lm = cryptext_lm::NgramLm::train([
            "biden belongs to the democrats",
            "the republicans blocked the bill",
            "suicide prevention is important",
        ]);
        let n = crate::normalize::Normalizer::new(&lm);
        let params = crate::normalize::NormalizeParams::default();
        let build = |shards| {
            let mut db = TokenDatabase::with_shards(shards);
            db.seed_lexicon();
            for t in FIXTURE_TEXTS {
                db.ingest_text(t);
            }
            db
        };
        let one = build(1);
        let wide = build(5);
        for text in [
            "Biden belongs to the demokRATs",
            "thinking about suic1de",
            "the dirty republic@@ns everywhere",
            "clean text stays clean",
        ] {
            let want = n.normalize(&one, text, params).unwrap();
            assert_eq!(n.normalize(&wide, text, params).unwrap(), want, "{text:?}");
            assert_eq!(n.normalize_naive(&wide, text, params).unwrap(), want);
        }
    }

    /// Regression for the Bloom growth policy: after a large ingest — the
    /// `exp_bench_json` corpus (4 000 simulated posts, seed 7) plus
    /// enough distinct-code vocabulary that **every** shard rebuilds its
    /// summaries wider — the 8-shard skip rate over the bench query mix
    /// must hold its baseline (85 of 96 shard walks skipped): growing a
    /// summary may only *sharpen* routing, never dull it. And the routing
    /// must stay exact: no skipped shard hides a hit.
    #[test]
    fn grown_summaries_hold_the_bench_skip_rate_at_8_shards() {
        let platform = cryptext_stream::SocialPlatform::simulate(cryptext_stream::StreamConfig {
            n_posts: 4_000,
            seed: 7,
            ..cryptext_stream::StreamConfig::default()
        });
        let mut wide = TokenDatabase::with_shards(8);
        wide.seed_lexicon();
        for post in platform.posts() {
            wide.ingest_text(&post.text);
        }
        // The simulated platform's vocabulary alone stays under the
        // growth threshold; the long tail of a real crawl is what pushes
        // the interners past it. Synthesize that tail with pairwise
        // distinct-code tokens (disjoint from the query mix by prefix).
        for i in 0..8 * 2_800 {
            wide.ingest_token(&super::proptests::distinct_sound_token(i));
        }
        for s in 0..8 {
            assert!(
                wide.shard(s).summary_bits(0) > 4_096,
                "shard {s} must have rebuilt its level-0 summary wider"
            );
        }

        let queries = [
            "democrats",
            "republicans",
            "vaccine",
            "suicide",
            "muslim",
            "depression",
            "vacc1ne",
            "the",
            "demokrats",
            "zzzmiss",
            "lesbian",
            "dirty",
        ];
        let k = LookupParams::paper_default().k;
        let mut skipped = 0usize;
        for q in queries {
            let query = EncodedQuery::for_token(q, k).unwrap();
            skipped += wide.skipped_shards(&query);
            assert_skips_are_exact(&wide, &query);
        }
        assert!(
            skipped >= 85,
            "skip-rate regression: {skipped}/96 shard walks skipped (baseline: 85/96)"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::reference_ingest;
    use super::*;
    use crate::lookup::{look_up, look_up_naive, LookupParams};
    use proptest::prelude::*;

    /// Multi-word text over an alphabet that exercises leet fan-out
    /// (1 ↔ i/l, @ ↔ a) against the seeded lexicon.
    fn text_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec("[a-e1@]{2,8}", 0..6).prop_map(|ws| ws.join(" "))
    }

    fn layout(db: &TokenDatabase) -> Vec<&[TokenRecord]> {
        (0..db.num_shards())
            .map(|s| db.shard(s).records())
            .collect()
    }

    proptest! {
        /// The shard-count pin: for any corpus and any shard count 1–8,
        /// Look Up returns exactly what the naive reference returns over
        /// the same store and what a one-shard store returns; statistics,
        /// record lookups and Table-I views match one shard too — including
        /// after a persist/load round trip.
        #[test]
        fn shard_counts_equal_the_naive_reference_and_one_shard(
            tokens in proptest::collection::vec("[a-e1@O]{2,9}", 1..25),
            queries in proptest::collection::vec("[a-e1@O]{2,9}", 1..5),
            shards in 1usize..=8,
            k in 0usize..=2,
            d in 0usize..=4,
            exclude_identity in proptest::arbitrary::any::<bool>(),
            observed_only in proptest::arbitrary::any::<bool>(),
        ) {
            let mut one = TokenDatabase::in_memory();
            let mut wide = TokenDatabase::with_shards(shards);
            for t in &tokens {
                one.ingest_token(t);
                wide.ingest_token(t);
            }
            let mut params = LookupParams::new(k, d);
            params.exclude_identity = exclude_identity;
            params.observed_only = observed_only;

            prop_assert_eq!(wide.stats(), one.stats());
            for level in 0..NUM_LEVELS {
                prop_assert_eq!(wide.hashmap_view(level).unwrap(), one.hashmap_view(level).unwrap());
            }
            for q in &queries {
                let want = look_up_naive(&wide, q, params).unwrap();
                prop_assert_eq!(look_up(&wide, q, params).unwrap(), want.clone(),
                    "query {:?} params {:?}", q, params);
                prop_assert_eq!(look_up(&one, q, params).unwrap(), want);
                prop_assert_eq!(wide.get(q), one.get(q));
            }

            // Persist/load round trip at this shard count.
            let store = Database::in_memory();
            wide.persist_to(&store, "tokens").unwrap();
            let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
            prop_assert_eq!(layout(&restored), layout(&wide));
            for q in &queries {
                prop_assert_eq!(
                    look_up(&restored, q, params).unwrap(),
                    look_up(&one, q, params).unwrap(),
                    "after round trip: query {:?}", q
                );
            }
        }

        /// Normalization at any shard count 1–8 equals the naive reference
        /// over the same store and the one-shard result: same corrected
        /// text, same spans, same scores, same full candidate ordering.
        #[test]
        fn shard_count_normalize_equals_the_naive_reference_and_one_shard(
            corpus in proptest::collection::vec(text_strategy(), 1..6),
            texts in proptest::collection::vec(text_strategy(), 1..4),
            shards in 1usize..=8,
        ) {
            let build = |n| {
                let mut db = TokenDatabase::with_shards(n);
                db.seed_lexicon();
                db.ingest_texts(&corpus);
                db
            };
            let one = build(1);
            let wide = build(shards);
            let lm = cryptext_lm::NgramLm::train(corpus.iter().map(|s| s.as_str()));
            let n = crate::normalize::Normalizer::new(&lm);
            let params = crate::normalize::NormalizeParams::default();
            for text in &texts {
                let want = n.normalize_naive(&wide, text, params).unwrap();
                prop_assert_eq!(n.normalize(&wide, text, params).unwrap(), want.clone(),
                    "text {:?} shards {}", text, shards);
                prop_assert_eq!(n.normalize(&one, text, params).unwrap(), want);
            }
        }

        /// The fan-out pin: for any corpus, shard count, query, and level,
        /// the Bloom-routed parallel collect-then-merge path produces the
        /// exact sequence of the sequential shard walk — including after a
        /// persist/load round trip, and including the prefix an
        /// early-exiting sink observes.
        #[test]
        fn fan_out_equals_sequential_walk(
            tokens in proptest::collection::vec("[a-e1@O]{2,9}", 1..25),
            query_str in "[a-e1@O]{2,9}",
            shards in 1usize..=8,
            k in 0usize..=2,
            cut in 0usize..=6,
        ) {
            let mut wide = TokenDatabase::with_shards(shards);
            for t in &tokens {
                wide.ingest_token(t);
            }
            let query = EncodedQuery::for_token(&query_str, k).unwrap();

            let reference = {
                let mut scratch = SoundScratch::new();
                let mut out: Vec<(u32, String)> = Vec::new();
                let _ = wide.for_each_sound_mate(&query, &mut scratch, |id, rec| {
                    out.push((id, rec.token.clone()));
                    ControlFlow::Continue(())
                });
                out
            };

            for store in [&wide, &TokenDatabase::load_from(&{
                let s = Database::in_memory();
                wide.persist_to(&s, "tokens").unwrap();
                s
            }, "tokens").unwrap()] {
                // Full parallel path, forced past the dispatch shortcut.
                let matching = store.matching_shards(&query);
                let mut collected: Vec<(u32, String)> = Vec::new();
                let _ = store.fan_out_collected(
                    &query,
                    &matching,
                    &|id, rec: &TokenRecord| Some((id, rec.token.clone())),
                    |r| { collected.push(r); ControlFlow::Continue(()) },
                );
                prop_assert_eq!(&collected, &reference, "parallel == sequential");

                // Early exit after `cut` results sees exactly the prefix.
                let mut prefix: Vec<(u32, String)> = Vec::new();
                let _ = store.fan_out_collected(
                    &query,
                    &matching,
                    &|id, rec: &TokenRecord| Some((id, rec.token.clone())),
                    |r| {
                        prefix.push(r);
                        if prefix.len() > cut { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
                    },
                );
                let want = &reference[..reference.len().min(cut + 1)];
                prop_assert_eq!(&prefix[..], want, "early-exit prefix");
            }
        }

        /// `for_each_hit_until` with a breaking visitor observes exactly
        /// the prefix of the non-breaking visit sequence, at any shard
        /// count.
        #[test]
        fn early_exit_hits_are_a_prefix(
            tokens in proptest::collection::vec("[a-e1@O]{2,9}", 1..20),
            query in "[a-e1@O]{2,9}",
            shards in 1usize..=8,
            d in 0usize..=3,
            cut in 0usize..=5,
        ) {
            let mut wide = TokenDatabase::with_shards(shards);
            for t in &tokens {
                wide.ingest_token(t);
            }
            let params = LookupParams::new(1, d);
            let mut scratch = crate::lookup::LookupScratch::new();
            let mut full: Vec<(u32, usize)> = Vec::new();
            crate::lookup::for_each_hit(&wide, &query, params, &mut scratch,
                |id, _, dist| full.push((id, dist))).unwrap();
            let mut seen: Vec<(u32, usize)> = Vec::new();
            crate::lookup::for_each_hit_until(&wide, &query, params, &mut scratch, |id, _, dist| {
                seen.push((id, dist));
                if seen.len() > cut { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
            }).unwrap();
            let want = &full[..full.len().min(cut + 1)];
            prop_assert_eq!(&seen[..], want, "{} shards", shards);
        }

        /// The resharding pin: growing N→N+1 moves only the jump-hash
        /// movers (retained shards stay byte-identical) and every query
        /// surface matches a fresh (N+1)-shard build of the same corpus —
        /// including after a persist/load round trip of the grown store.
        #[test]
        fn grow_one_shard_equals_fresh_build(
            tokens in proptest::collection::vec("[a-e1@O]{2,9}", 1..25),
            queries in proptest::collection::vec("[a-e1@O]{2,9}", 1..5),
            shards in 1usize..=8,
            k in 0usize..=2,
            d in 0usize..=4,
        ) {
            let mut grown = TokenDatabase::with_shards(shards);
            let mut fresh = TokenDatabase::with_shards(shards + 1);
            for t in &tokens {
                grown.ingest_token(t);
                fresh.ingest_token(t);
            }
            let moved = grown.grow_one_shard();
            prop_assert_eq!(grown.num_shards(), shards + 1);
            prop_assert_eq!(moved, fresh.shard(shards).records().len());
            prop_assert_eq!(&layout(&grown)[..shards], &layout(&fresh)[..shards]);
            prop_assert_eq!(grown.stats(), fresh.stats());
            for level in 0..NUM_LEVELS {
                prop_assert_eq!(grown.hashmap_view(level).unwrap(), fresh.hashmap_view(level).unwrap());
            }
            let params = LookupParams::new(k, d);
            for q in &queries {
                prop_assert_eq!(
                    look_up(&grown, q, params).unwrap(),
                    look_up(&fresh, q, params).unwrap(),
                    "query {:?}", q
                );
                prop_assert_eq!(grown.get(q), fresh.get(q));
            }

            // Persist/load round trip of the grown store.
            let store = Database::in_memory();
            grown.persist_to(&store, "tokens").unwrap();
            let restored = TokenDatabase::load_from(&store, "tokens").unwrap();
            prop_assert_eq!(layout(&restored), layout(&grown));
        }

        /// Batch ingest is byte-identical (per shard) to the one-token-at-
        /// a-time reference loop over the same texts in order.
        #[test]
        fn batch_ingest_equals_one_token_at_a_time(
            texts in proptest::collection::vec(text_strategy(), 1..10),
            shards in 1usize..=6,
        ) {
            let mut reference = TokenDatabase::with_shards(shards);
            let expect_n: usize = texts.iter().map(|t| reference_ingest(&mut reference, t)).sum();
            let mut batch = TokenDatabase::with_shards(shards);
            prop_assert_eq!(batch.ingest_texts(&texts), expect_n);
            prop_assert_eq!(layout(&batch), layout(&reference));
            prop_assert_eq!(batch.clean_sentences(), reference.clean_sentences());
        }
    }

    /// `i` → a token with a distinct customized-Soundex code at *every*
    /// level: base-5 digits pick one consonant per Soundex class, never
    /// repeating the previous class, so no adjacent digits collapse and
    /// the class sequence (hence the code) is injective in `i`.
    pub(super) fn distinct_sound_token(mut i: usize) -> String {
        // One representative per Soundex class 1-6.
        const CLASS: [char; 6] = ['b', 'k', 'd', 'l', 'm', 'r'];
        let mut out = String::from("y");
        let mut prev = usize::MAX;
        loop {
            let d = i % 5;
            i /= 5;
            let class = (0..CLASS.len())
                .filter(|&c| c != prev)
                .nth(d)
                .expect("five choices remain");
            out.push(CLASS[class]);
            prev = class;
            if i == 0 {
                break;
            }
        }
        out
    }

    proptest! {
        /// Bloom growth never costs correctness: after every shard's
        /// level-0 interner is pushed past the growth threshold (so each
        /// summary was rebuilt from the exact interner at least once),
        /// routing still has **no false negatives** — every stored probe
        /// token is found through the routed walk, and every shard the
        /// router skips truly holds no hits.
        #[test]
        fn grown_summaries_never_produce_false_negatives(
            probes in proptest::collection::vec("[a-e1@O]{2,9}", 1..24),
            shards in 2usize..=4,
        ) {
            let mut wide = TokenDatabase::with_shards(shards);
            for i in 0..shards * 900 {
                wide.ingest_token(&distinct_sound_token(i));
            }
            for p in &probes {
                wide.ingest_token(p);
            }
            for s in 0..shards {
                prop_assert!(
                    wide.shard(s).summary_bits(0) > 4_096,
                    "shard {} level-0 summary must have been rebuilt wider", s
                );
            }

            let mut scratch = SoundScratch::new();
            for p in &probes {
                for k in 0..NUM_LEVELS {
                    let query = EncodedQuery::for_token(p, k).unwrap();
                    let matching = wide.matching_shards(&query);

                    // The stored probe itself must surface via routing…
                    let mut found_self = false;
                    let _ = wide.for_each_sound_mate(&query, &mut scratch, |_, rec| {
                        found_self |= rec.token == *p;
                        ControlFlow::Continue(())
                    });
                    prop_assert!(found_self, "probe {:?} lost at level {}", p, k);

                    // …and skipped shards must be exactly empty for it.
                    for s in 0..shards as u32 {
                        if matching.contains(&s) {
                            continue;
                        }
                        let mut hits = 0usize;
                        let _ = wide.shard(s as usize).for_each_sound_mate(
                            &query, &mut scratch, |_, _| {
                                hits += 1;
                                ControlFlow::Continue(())
                            });
                        prop_assert_eq!(
                            hits, 0,
                            "skipped shard {} had a hit for {:?} at level {}", s, p, k
                        );
                    }
                }
            }
        }
    }
}
