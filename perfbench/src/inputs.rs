//! Seeded inputs: the feeds, the request pools and the per-client
//! request streams of each workload, plus the measured traffic
//! properties of a request sequence.

use std::collections::HashSet;
use std::sync::Arc;

use cryptext_common::SplitMix64;
use cryptext_core::TokenDatabase;
use cryptext_stream::{SocialPlatform, StreamConfig};
use cryptext_tokenizer::tokenize;

use crate::util::Zipf;

/// Seed of the feed the serving database is built from. It is fixed, so
/// every workload seed queries the same database; `--seed` varies the
/// requests only.
pub const DB_FEED_SEED: u64 = 20_231;
/// Posts in the serving database's feed.
pub const DB_POSTS: usize = 20_000;
/// Posts in the feed the request inputs are drawn from.
pub const QUERY_POSTS: usize = 4_000;
/// Zipf exponent of the hot-set draws.
const ZIPF_S: f64 = 1.1;
/// Hot-set pool sizes; together well under the 10k entries each tier-1
/// cache holds.
const HOT_LOOKUPS: usize = 2_000;
const HOT_TEXTS: usize = 1_000;
const HOT_PERTURBS: usize = 200;
/// Client threads or connections of the serving workloads.
pub const CLIENTS: usize = 2;

/// A seeded simulated platform feed: post texts and the clean sentences
/// the perturbations were made from.
pub struct Feed {
    pub texts: Vec<String>,
    pub clean: Vec<String>,
}

impl Feed {
    pub fn simulate(n_posts: usize, seed: u64) -> Feed {
        let platform = SocialPlatform::simulate(StreamConfig {
            n_posts,
            seed,
            ..StreamConfig::default()
        });
        let mut texts = Vec::with_capacity(n_posts);
        let mut clean = Vec::with_capacity(n_posts);
        for post in platform.posts() {
            let mut c = post.text.clone();
            for rec in &post.perturbations {
                c = c.replace(&rec.perturbed, &rec.original);
            }
            texts.push(post.text.clone());
            clean.push(c);
        }
        Feed { texts, clean }
    }

    /// Distinct word tokens of at least three characters with their
    /// occurrence counts, in order of first appearance.
    pub fn vocabulary(&self) -> Vec<(String, usize)> {
        let mut index = std::collections::HashMap::new();
        let mut vocab: Vec<(String, usize)> = Vec::new();
        for text in &self.texts {
            for tok in tokenize(text) {
                if tok.is_word() && tok.text.chars().count() >= 3 {
                    let i = *index.entry(tok.text.clone()).or_insert_with(|| {
                        vocab.push((tok.text, 0));
                        vocab.len() - 1
                    });
                    vocab[i].1 += 1;
                }
            }
        }
        vocab
    }
}

/// The three API routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Lookup,
    Normalize,
    Perturb,
}

impl Route {
    pub const ALL: [Route; 3] = [Route::Lookup, Route::Normalize, Route::Perturb];

    pub fn name(self) -> &'static str {
        match self {
            Route::Lookup => "lookup",
            Route::Normalize => "normalize",
            Route::Perturb => "perturb",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// One request: route, input, and (hot set only) its pool index.
#[derive(Debug, Clone)]
pub struct Op {
    pub route: Route,
    pub input: String,
    pub pool_index: usize,
}

/// A hot set: small pools drawn Zipf, mixed 70% Look Up, 25%
/// Normalization, 5% Perturbation.
pub struct HotPools {
    lookups: Vec<String>,
    texts: Vec<String>,
    perturbs: Vec<String>,
    zipf_lookup: Zipf,
    zipf_text: Zipf,
    zipf_perturb: Zipf,
}

impl HotPools {
    /// Look Up tokens are ranked by how often the feed uses them, so the
    /// most requested tokens are the most posted ones; texts are ranked in
    /// a seeded random order.
    pub fn from_feed(feed: &Feed, seed: u64) -> HotPools {
        let mut rng = SplitMix64::new(seed ^ 0x4807_5e75);
        let mut ranked = feed.vocabulary();
        ranked.sort_by_key(|(_, uses)| std::cmp::Reverse(*uses));
        let vocab: Vec<String> = ranked
            .into_iter()
            .take(HOT_LOOKUPS)
            .map(|(w, _)| w)
            .collect();
        let mut texts = feed.texts.clone();
        rng.shuffle(&mut texts);
        let perturbs = texts[HOT_TEXTS..HOT_TEXTS + HOT_PERTURBS].to_vec();
        texts.truncate(HOT_TEXTS);
        HotPools {
            zipf_lookup: Zipf::new(vocab.len(), ZIPF_S),
            zipf_text: Zipf::new(texts.len(), ZIPF_S),
            zipf_perturb: Zipf::new(perturbs.len(), ZIPF_S),
            lookups: vocab,
            texts,
            perturbs,
        }
    }

    pub fn pool(&self, route: Route) -> &[String] {
        match route {
            Route::Lookup => &self.lookups,
            Route::Normalize => &self.texts,
            Route::Perturb => &self.perturbs,
        }
    }
}

/// The cold set: every Look Up token and every Normalization text is new,
/// half Look Up and half Normalization, with 5% Perturbation of feed texts.
pub struct ColdPools {
    /// Lower-case, purely alphabetic feed words, deduplicated.
    vocab: Vec<String>,
    texts: Vec<String>,
}

impl ColdPools {
    pub fn from_feed(feed: &Feed) -> ColdPools {
        let mut seen = HashSet::new();
        let vocab = feed
            .vocabulary()
            .into_iter()
            .map(|(w, _)| w)
            .filter(|w| w.chars().all(|c| c.is_ascii_alphabetic()))
            .map(|w| w.to_ascii_lowercase())
            .filter(|w| seen.insert(w.clone()))
            .collect();
        ColdPools {
            vocab,
            texts: feed.texts.clone(),
        }
    }

    /// The `n`-th distinct token: a feed word with a run of digits inserted
    /// (`vacc7ine`, `va12ccine`). The word, the position and the digits are
    /// all recoverable from the token, because the words hold no digits, so
    /// different `n` never give the same token.
    pub fn distinct_token(&self, n: u64) -> String {
        let word = &self.vocab[(n % self.vocab.len() as u64) as usize];
        let v = n / self.vocab.len() as u64;
        let gaps = word.len() as u64 + 1;
        let pos = (v % gaps) as usize;
        format!("{}{}{}", &word[..pos], v / gaps, &word[pos..])
    }
}

/// Which request mix a stream draws from.
pub enum Mix {
    Hot(HotPools),
    Cold(ColdPools),
}

/// The deterministic request sequence of one client.
pub struct OpStream {
    mix: Arc<Mix>,
    rng: SplitMix64,
    client: u64,
    issued: u64,
}

impl OpStream {
    pub fn new(mix: Arc<Mix>, seed: u64, client: usize) -> OpStream {
        OpStream {
            mix,
            rng: SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (client as u64 + 1)),
            client: client as u64,
            issued: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let n = self.issued * CLIENTS as u64 + self.client;
        self.issued += 1;
        let u = self.rng.next_f64();
        match &*self.mix {
            Mix::Hot(p) => {
                let (route, zipf) = if u < 0.70 {
                    (Route::Lookup, &p.zipf_lookup)
                } else if u < 0.95 {
                    (Route::Normalize, &p.zipf_text)
                } else {
                    (Route::Perturb, &p.zipf_perturb)
                };
                let pool_index = zipf.sample(&mut self.rng);
                Op {
                    route,
                    input: p.pool(route)[pool_index].clone(),
                    pool_index,
                }
            }
            Mix::Cold(p) => {
                let text = &p.texts[(n % p.texts.len() as u64) as usize];
                let (route, input) = if u < 0.05 {
                    (Route::Perturb, text.clone())
                } else if u < 0.525 {
                    (Route::Lookup, p.distinct_token(n))
                } else {
                    (Route::Normalize, format!("{text} {}", p.distinct_token(n)))
                };
                Op {
                    route,
                    input,
                    pool_index: 0,
                }
            }
        }
    }

    /// The first `n` requests of a client's stream.
    pub fn prefix(mix: &Arc<Mix>, seed: u64, client: usize, n: usize) -> Vec<Op> {
        let mut s = OpStream::new(Arc::clone(mix), seed, client);
        (0..n).map(|_| s.next_op()).collect()
    }
}

/// Measured properties of a request sequence.
#[derive(Debug, Default, Clone, Copy)]
pub struct Traffic {
    /// Look Up requests whose token was requested before.
    pub lookup_repeat_share: f64,
    /// Normalization requests whose text was requested before.
    pub normalize_repeat_share: f64,
    /// Word tokens (Look Up tokens and words of Normalization texts) the
    /// database holds no record for.
    pub ood_share: f64,
}

impl Traffic {
    pub fn measure<'a>(ops: impl IntoIterator<Item = &'a Op>, db: &TokenDatabase) -> Traffic {
        let mut seen = [HashSet::new(), HashSet::new()];
        let mut repeats = [0u64; 2];
        let mut totals = [0u64; 2];
        let (mut words, mut ood) = (0u64, 0u64);
        for op in ops {
            let r = match op.route {
                Route::Lookup => 0,
                Route::Normalize => 1,
                Route::Perturb => continue,
            };
            totals[r] += 1;
            if !seen[r].insert(op.input.as_str()) {
                repeats[r] += 1;
            }
            if op.route == Route::Lookup {
                words += 1;
                ood += u64::from(db.get(&op.input).is_none());
            } else {
                for tok in tokenize(&op.input).iter().filter(|t| t.is_word()) {
                    words += 1;
                    ood += u64::from(db.get(&tok.text).is_none());
                }
            }
        }
        let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        Traffic {
            lookup_repeat_share: share(repeats[0], totals[0]),
            normalize_repeat_share: share(repeats[1], totals[1]),
            ood_share: share(ood, words),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_tokens_never_collide() {
        let feed = Feed::simulate(1_000, 3);
        let pools = ColdPools::from_feed(&feed);
        let tokens: HashSet<String> = (0..200_000).map(|n| pools.distinct_token(n)).collect();
        assert_eq!(tokens.len(), 200_000);
    }

    #[test]
    fn streams_are_seeded() {
        let feed = Feed::simulate(1_300, 5);
        let mix = Arc::new(Mix::Hot(HotPools::from_feed(&feed, 9)));
        let a = OpStream::prefix(&mix, 9, 0, 50);
        let b = OpStream::prefix(&mix, 9, 0, 50);
        let c = OpStream::prefix(&mix, 9, 1, 50);
        let inputs = |ops: &[Op]| ops.iter().map(|o| o.input.clone()).collect::<Vec<_>>();
        assert_eq!(inputs(&a), inputs(&b));
        assert_ne!(inputs(&a), inputs(&c));
    }
}
