//! Perturbation (§III-D): rewriting text with *database* perturbations.
//!
//! Unlike the machine baselines in `cryptext-attacks`, every replacement
//! here is drawn from the token database via Look Up — i.e. it was
//! actually written by a human somewhere in the corpus. That is the
//! paper's headline claim for this function: "perturbations utilized by
//! CrypText are guaranteed to be observable in human-written texts."
//!
//! Retrieval is pluggable: [`Perturber::perturb_with`] takes the per-token
//! hit source, and [`Perturber::perturb`] is it over a plain uncached
//! [`look_up`]. The service passes its Look Up cache instead, so each
//! token's retrieval is cached; the rewrite itself is recomputed per call
//! and never cached.

use cryptext_common::{Result, SplitMix64};
use cryptext_tokenizer::{splice, tokenize, Token};

use crate::database::TokenDatabase;
use crate::lookup::{look_up, LookupHit, LookupParams};
use crate::store::TokenStore;

/// Parameters of a Perturbation pass.
#[derive(Debug, Clone, Copy)]
pub struct PerturbParams {
    /// Manipulation ratio `r`: fraction of eligible tokens to rewrite
    /// (the paper's GUI offers 15%, 25%, 50%).
    pub ratio: f64,
    /// Phonetic level for Look Up.
    pub k: usize,
    /// Edit-distance bound for Look Up.
    pub d: usize,
    /// Case-sensitive mode: when false, a perturbation of any casing of
    /// the token is acceptable (§III-D offers both).
    pub case_sensitive: bool,
    /// Only replacements observed in a corpus (count > 0). On by default —
    /// this is the "guaranteed human-written" property.
    pub observed_only: bool,
    /// RNG seed; equal seeds give identical rewrites.
    pub seed: u64,
}

impl PerturbParams {
    /// Ratio `r` with paper-default `k = 1, d = 3`.
    pub fn with_ratio(ratio: f64) -> Self {
        PerturbParams {
            ratio,
            k: 1,
            d: 3,
            case_sensitive: false,
            observed_only: true,
            seed: 42,
        }
    }

    /// Builder: set the seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One applied replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedPerturbation {
    /// Original token.
    pub original: String,
    /// Database perturbation that replaced it.
    pub replacement: String,
    /// Byte span in the source text (Fig. 3 highlights these).
    pub span: std::ops::Range<usize>,
}

/// Result of a Perturbation pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerturbationOutcome {
    /// The rewritten text.
    pub text: String,
    /// What was replaced, in span order.
    pub replacements: Vec<AppliedPerturbation>,
    /// Tokens sampled for manipulation that had no perturbation in the
    /// database (counted toward `r` but left unchanged).
    pub misses: usize,
}

/// The Perturbation engine, generic over the storage backend.
pub struct Perturber<'a, S: TokenStore = TokenDatabase> {
    db: &'a S,
}

impl<'a, S: TokenStore> Perturber<'a, S> {
    /// Build over a token store.
    pub fn new(db: &'a S) -> Self {
        Perturber { db }
    }

    /// The perturbation choices available for one token, in Look Up's hit
    /// order: its out-of-dictionary spellings, plus its case-emphasis
    /// variants unless `params.case_sensitive` is set.
    pub fn choices_for(&self, token: &str, params: PerturbParams) -> Result<Vec<String>> {
        let hits = look_up(self.db, token, choice_params(params))?;
        Ok(hits
            .into_iter()
            .filter(|h| is_choice(h, token, params.case_sensitive))
            .map(|h| h.token)
            .collect())
    }

    /// Rewrite `text` at manipulation ratio `r` (§III-D, Fig. 3), with
    /// every token's choices retrieved by a plain uncached [`look_up`] —
    /// the reference every cached caller must match byte for byte.
    pub fn perturb(&self, text: &str, params: PerturbParams) -> Result<PerturbationOutcome> {
        self.perturb_with(text, params, |token, lookup_params, visit| {
            visit(&look_up(self.db, token, lookup_params)?);
            Ok(())
        })
    }

    /// [`Self::perturb`] over a caller-supplied hit source: for each token
    /// sampled for manipulation, `hits_of(token, lookup_params, visit)`
    /// must call `visit` once with exactly the hits [`look_up`] returns for
    /// those params (sorted), or fail. Errors abort the pass. The service
    /// passes its Look Up cache here, so `visit` may borrow cached hits in
    /// place: the choice filter and the RNG draw run over the borrowed
    /// slice and only the drawn replacement is cloned.
    pub fn perturb_with<H>(
        &self,
        text: &str,
        params: PerturbParams,
        mut hits_of: H,
    ) -> Result<PerturbationOutcome>
    where
        H: FnMut(&str, LookupParams, &mut dyn FnMut(&[LookupHit])) -> Result<()>,
    {
        TokenDatabase::check_level(params.k)?;
        let mut rng = SplitMix64::new(params.seed);
        let tokens = tokenize(text);
        let eligible: Vec<&Token> = tokens
            .iter()
            .filter(|t| t.is_word() && t.text.chars().count() >= 3)
            .collect();
        if eligible.is_empty() {
            return Ok(PerturbationOutcome {
                text: text.to_string(),
                replacements: Vec::new(),
                misses: 0,
            });
        }
        let n_target = ((params.ratio.clamp(0.0, 1.0) * eligible.len() as f64).ceil() as usize)
            .min(eligible.len());
        let mut chosen = rng.sample_indices(eligible.len(), n_target);
        chosen.sort_unstable();

        let lookup_params = choice_params(params);
        let mut replacements: Vec<AppliedPerturbation> = Vec::new();
        let mut misses = 0usize;
        for idx in chosen {
            let tok = eligible[idx];
            let mut drawn: Option<String> = None;
            hits_of(&tok.text, lookup_params, &mut |hits| {
                drawn = draw_choice(hits, &tok.text, params.case_sensitive, &mut rng);
            })?;
            match drawn {
                Some(replacement) => replacements.push(AppliedPerturbation {
                    original: tok.text.clone(),
                    replacement,
                    span: tok.span.clone(),
                }),
                None => misses += 1,
            }
        }
        let splices: Vec<(std::ops::Range<usize>, String)> = replacements
            .iter()
            .map(|r| (r.span.clone(), r.replacement.clone()))
            .collect();
        Ok(PerturbationOutcome {
            text: splice(text, &splices),
            replacements,
            misses,
        })
    }
}

/// The Look Up a token's choices come from. Identity spellings stay in
/// the hits: [`is_choice`] decides about case-emphasis variants, which
/// `exclude_identity` would drop before the case switch could see them.
fn choice_params(params: PerturbParams) -> LookupParams {
    let lookup_params = LookupParams::new(params.k, params.d);
    if params.observed_only {
        lookup_params.observed()
    } else {
        lookup_params
    }
}

/// Is `hit` a perturbation choice for `token`? A *different* dictionary
/// word is not a perturbation of this token — it is a different word that
/// merely sounds alike ("the" vs "they"). Real perturbations are either
/// out-of-dictionary spellings or case-emphasis variants of the same word
/// (the latter only in case-insensitive mode, per §III-D's
/// case-sensitivity switch). Look Up's distance is measured between case
/// folds (`TokenRecord::folded`), so distance 0 is exactly "same fold".
fn is_choice(hit: &LookupHit, token: &str, case_sensitive: bool) -> bool {
    if hit.distance == 0 {
        !case_sensitive && hit.token != token
    } else {
        !hit.is_english
    }
}

/// Draw one choice uniformly from `hits` (one RNG draw, none when there is
/// no choice — the same draws `SplitMix64::choose` makes over the
/// collected choices) and clone only the drawn token.
fn draw_choice(
    hits: &[LookupHit],
    token: &str,
    case_sensitive: bool,
    rng: &mut SplitMix64,
) -> Option<String> {
    let mut choices = hits.iter().filter(|h| is_choice(h, token, case_sensitive));
    let n = choices.clone().count();
    if n == 0 {
        return None;
    }
    choices.nth(rng.index(n)).map(|h| h.token.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TokenDatabase {
        let mut db = TokenDatabase::in_memory();
        for s in [
            "the demokRATs and democrats argue",
            "the dem0crats lie",
            "repubLIEcans and republicans fight",
            "republic@@ns everywhere",
            "the vacc1ne and the vaccine",
            "vac-cine skeptics",
        ] {
            db.ingest_text(s);
        }
        db
    }

    #[test]
    fn replacements_come_from_database() {
        let d = db();
        let p = Perturber::new(&d);
        let out = p
            .perturb(
                "Biden belongs to the democrats",
                PerturbParams::with_ratio(1.0),
            )
            .unwrap();
        for r in &out.replacements {
            assert!(
                d.get(&r.replacement).is_some(),
                "{} is a stored human-written token",
                r.replacement
            );
            assert!(d.get(&r.replacement).unwrap().count > 0, "observed");
            assert_ne!(r.replacement, r.original);
        }
        // "democrats" must have been rewritten to one of its stored variants.
        let demo = out
            .replacements
            .iter()
            .find(|r| r.original == "democrats")
            .expect("democrats perturbed");
        assert!(["demokRATs", "dem0crats"].contains(&demo.replacement.as_str()));
    }

    #[test]
    fn ratio_controls_attempt_count() {
        let d = db();
        let p = Perturber::new(&d);
        let text =
            "democrats republicans vaccine democrats republicans vaccine democrats republicans";
        for (ratio, expected) in [(0.25, 2), (0.5, 4), (1.0, 8)] {
            let out = p.perturb(text, PerturbParams::with_ratio(ratio)).unwrap();
            assert_eq!(
                out.replacements.len() + out.misses,
                expected,
                "ratio {ratio}"
            );
        }
    }

    #[test]
    fn zero_ratio_is_identity() {
        let d = db();
        let p = Perturber::new(&d);
        let text = "the democrats and republicans";
        let out = p.perturb(text, PerturbParams::with_ratio(0.0)).unwrap();
        assert_eq!(out.text, text);
        assert!(out.replacements.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let d = db();
        let p = Perturber::new(&d);
        let text = "democrats and republicans discuss the vaccine at length";
        let a = p
            .perturb(text, PerturbParams::with_ratio(0.5).seeded(7))
            .unwrap();
        let b = p
            .perturb(text, PerturbParams::with_ratio(0.5).seeded(7))
            .unwrap();
        assert_eq!(a, b);
        let c = p
            .perturb(text, PerturbParams::with_ratio(0.5).seeded(8))
            .unwrap();
        // Different seed → (almost surely) different outcome.
        assert!(a != c || a.replacements.is_empty());
    }

    #[test]
    fn tokens_without_perturbations_count_as_misses() {
        let d = db();
        let p = Perturber::new(&d);
        let out = p
            .perturb("zebra crossing ahead", PerturbParams::with_ratio(1.0))
            .unwrap();
        assert_eq!(out.replacements.len(), 0);
        assert_eq!(out.misses, 3);
        assert_eq!(out.text, "zebra crossing ahead");
    }

    #[test]
    fn spans_reference_original_text() {
        let d = db();
        let p = Perturber::new(&d);
        let text = "the democrats met the republicans";
        let out = p.perturb(text, PerturbParams::with_ratio(1.0)).unwrap();
        for r in &out.replacements {
            assert_eq!(&text[r.span.clone()], r.original);
        }
    }

    #[test]
    fn choices_exclude_identity_spellings() {
        let d = db();
        let p = Perturber::new(&d);
        let choices = p
            .choices_for("democrats", PerturbParams::with_ratio(1.0))
            .unwrap();
        assert!(!choices
            .iter()
            .any(|c| c.eq_ignore_ascii_case("democrats") && c == "democrats"));
        assert!(choices.contains(&"demokRATs".to_string()));
    }

    #[test]
    fn case_switch_decides_about_case_emphasis_variants() {
        let mut d = TokenDatabase::in_memory();
        d.ingest_text("DEMOCRATS demoCRATS dem0crats");
        let p = Perturber::new(&d);
        let insensitive = PerturbParams::with_ratio(1.0);
        let sensitive = PerturbParams {
            case_sensitive: true,
            ..insensitive
        };
        let mut offered = p.choices_for("democrats", insensitive).unwrap();
        offered.sort();
        assert_eq!(offered, ["DEMOCRATS", "dem0crats", "demoCRATS"]);
        assert_eq!(
            p.choices_for("democrats", sensitive).unwrap(),
            ["dem0crats"]
        );
        // The query's own spelling is never a choice, in either mode.
        assert!(!p
            .choices_for("DEMOCRATS", insensitive)
            .unwrap()
            .contains(&"DEMOCRATS".to_string()));

        // The rewrite draws from the same choices.
        let drawn: Vec<String> = (0..32)
            .map(|seed| {
                let out = p.perturb("democrats", sensitive.seeded(seed)).unwrap();
                out.replacements[0].replacement.clone()
            })
            .collect();
        assert!(drawn.iter().all(|r| r == "dem0crats"));
        let drawn: Vec<String> = (0..32)
            .map(|seed| {
                let out = p.perturb("democrats", insensitive.seeded(seed)).unwrap();
                out.replacements[0].replacement.clone()
            })
            .collect();
        assert!(drawn.iter().any(|r| r != "dem0crats"), "{drawn:?}");
    }

    #[test]
    fn perturb_with_a_failing_source_surfaces_its_error() {
        let d = db();
        let p = Perturber::new(&d);
        let mut calls = 0;
        let out = p.perturb_with(
            "democrats republicans vaccine",
            PerturbParams::with_ratio(1.0),
            |_, _, _| {
                calls += 1;
                Err(cryptext_common::Error::Internal("source down".into()))
            },
        );
        assert!(out.is_err());
        assert_eq!(calls, 1, "the first failure aborts the pass");
    }

    #[test]
    fn invalid_level_is_error() {
        let d = db();
        let p = Perturber::new(&d);
        let params = PerturbParams {
            k: 9,
            ..PerturbParams::with_ratio(0.5)
        };
        assert!(p.perturb("anything", params).is_err());
    }

    #[test]
    fn empty_text_ok() {
        let d = db();
        let p = Perturber::new(&d);
        let out = p.perturb("", PerturbParams::with_ratio(0.5)).unwrap();
        assert_eq!(out.text, "");
    }
}
