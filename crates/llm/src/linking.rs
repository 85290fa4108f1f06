//! Schema-linking simulation.
//!
//! The linker receives a required native identifier (known from the gold
//! query — the simulation device standing in for the model's language
//! understanding of the question) and must produce the identifier the model
//! would emit, given the *displayed* rendering at the active naturalness
//! variant. The displayed rendering's tokens are classified lexically; each
//! token decodes with a model- and class-dependent probability, and the
//! geometric-mean decode probability (shrunk by schema-size distraction)
//! gives the link-success probability. Failed links hallucinate a typo,
//! guess a natural name, or select a plausible distractor — the three
//! failure modes the paper reports.
//!
//! Token classes and distractor rankings depend only on the displayed
//! schema, so the linker reads them from the view's link index
//! ([`crate::schema_view`]), which computes each at most once per displayed
//! name; only the model-dependent arithmetic runs per link.
//! [`link_probability`] computes the same probability without the index.

use crate::model::{ModelConfig, TokenClass};
use crate::schema_view::SchemaView;
use rand::rngs::StdRng;
use rand::Rng;
use snails_lexicon::abbrev::{
    is_common_acronym, is_conventional_abbreviation, is_recognizable_acronym,
};
use snails_lexicon::dictionary::{dictionary, is_dictionary_word, is_subsequence};
use snails_lexicon::edit::levenshtein_ignore_case;
use snails_lexicon::split_identifier;
use snails_naturalness::category::SchemaVariant;

/// Classify one identifier token.
pub fn classify_token(token: &str) -> TokenClass {
    if token.bytes().all(|b| b.is_ascii_digit()) {
        return TokenClass::Numeric;
    }
    let lower = token.to_ascii_lowercase();
    if is_dictionary_word(&lower) || is_common_acronym(token) {
        return TokenClass::Word;
    }
    if is_conventional_abbreviation(token) || is_recognizable_acronym(token) {
        return TokenClass::Abbreviation;
    }
    // Expandable: a dictionary word contains this token as an ordered
    // subsequence with matching first letter and the token is not too short.
    if lower.len() >= 3 {
        let dict = dictionary();
        let max_len = lower.len() * 4;
        let expandable = dict.iter().any(|w| {
            w.len() > lower.len()
                && w.len() <= max_len
                && w.starts_with(lower.chars().next().unwrap_or('\0'))
                && is_subsequence(&lower, w)
        });
        if expandable {
            return TokenClass::Abbreviation;
        }
    }
    TokenClass::Opaque
}

/// Softening exponent for *organic* (Native-schema) identifiers: the paper's
/// data shows Native schemas outperform what their naturalness mixture alone
/// predicts (Figure 30: Native ≈ Regular on naturally-high databases), i.e.
/// organically grown abbreviations are more decodable than the synthetically
/// abbreviated virtual-schema renderings at the same labeled level.
pub const ORGANIC_EXPONENT: f64 = 0.62;

/// The classes of an identifier's tokens, in token order.
pub(crate) fn token_classes(identifier: &str) -> Vec<TokenClass> {
    split_identifier(identifier).iter().map(|t| classify_token(&t.text)).collect()
}

/// The link-success probability for a displayed identifier: geometric mean
/// of per-token decode probabilities, shrunk by schema-size distraction.
///
/// `organic` marks Native-schema renderings (see [`ORGANIC_EXPONENT`]).
pub fn link_probability(
    model: &ModelConfig,
    displayed: &str,
    schema_columns: usize,
    organic: bool,
) -> f64 {
    class_probability(model, &token_classes(displayed), schema_columns, organic)
}

/// [`link_probability`] of a table (`is_table`) or column name as `view`
/// displays it, with its token classes from the view's link index.
pub(crate) fn view_link_probability(
    model: &ModelConfig,
    view: &SchemaView,
    displayed: &str,
    is_table: bool,
) -> f64 {
    let organic = view.variant == SchemaVariant::Native;
    class_probability(model, &view.token_classes(displayed, is_table), view.column_count(), organic)
}

/// [`link_probability`] from an identifier's token classes.
fn class_probability(
    model: &ModelConfig,
    classes: &[TokenClass],
    schema_columns: usize,
    organic: bool,
) -> f64 {
    if classes.is_empty() {
        return 0.0;
    }
    let mut log_sum = 0.0;
    for &class in classes {
        log_sum += model.decode_prob(class).max(1e-6).ln();
    }
    let mut geo_mean = (log_sum / classes.len() as f64).exp();
    if organic {
        geo_mean = geo_mean.powf(ORGANIC_EXPONENT);
    }
    // Distraction: larger displayed schemas create more linking competition.
    // 40 columns ≈ no penalty; 1,600+ columns ≈ full penalty.
    let size = (schema_columns.max(1) as f64 / 40.0).ln().max(0.0) / (40.0f64).ln();
    let factor = 1.0 - model.distraction * size.min(1.0);
    (geo_mean * factor).clamp(0.0, 1.0)
}

/// The outcome of linking one identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkOutcome {
    /// Correct displayed identifier emitted.
    Correct(String),
    /// Typo-like hallucination of the displayed identifier.
    Hallucinated(String),
    /// The model guessed a natural (snake_case full-word) name.
    NaturalGuess(String),
    /// A plausible but wrong existing identifier was selected.
    Distractor(String),
}

impl LinkOutcome {
    /// The emitted identifier text.
    pub fn emitted(&self) -> &str {
        match self {
            LinkOutcome::Correct(s)
            | LinkOutcome::Hallucinated(s)
            | LinkOutcome::NaturalGuess(s)
            | LinkOutcome::Distractor(s) => s,
        }
    }

    /// True when the link is correct.
    pub fn is_correct(&self) -> bool {
        matches!(self, LinkOutcome::Correct(_))
    }
}

/// Typo-like identifier mutation (the paper observes e.g. whitespace names
/// hallucinated into snake/camel case, `table_` prefixes dropped, casing
/// errors).
fn hallucinate(displayed: &str, rng: &mut StdRng) -> String {
    let mut s = displayed.to_owned();
    // Whitespace identifiers: "rather than encasing [them] with brackets or
    // quotes, the LLM hallucinates the identifier into snake or camel case
    // format" (§6).
    if s.contains(' ') {
        return if rng.gen::<bool>() {
            s.replace(' ', "_")
        } else {
            s.split(' ').collect::<String>()
        };
    }
    match rng.gen_range(0..4u8) {
        0 => {
            // Drop one interior character.
            if s.len() > 2 {
                let i = 1 + rng.gen_range(0..s.len() - 2);
                if s.is_char_boundary(i) && s.is_char_boundary(i + 1) {
                    s.remove(i);
                }
            }
        }
        1 => {
            // Drop a leading `tbl`/`tlu`-style prefix or the first token.
            if let Some(pos) = s.find('_') {
                s = s[pos + 1..].to_owned();
            } else if s.len() > 3 {
                s = s[1..].to_owned();
            }
        }
        2 => {
            // Case mutation: snake-case a camel boundary or lowercase all.
            s = s.to_ascii_lowercase();
        }
        _ => {
            // Duplicate the final character (classic typo).
            if let Some(c) = s.chars().last() {
                s.push(c);
            }
        }
    }
    if s.is_empty() || s.eq_ignore_ascii_case(displayed) {
        format!("{displayed}_x")
    } else {
        s
    }
}

/// How many of the nearest candidates a distractor is drawn from.
const DISTRACTOR_POOL: usize = 5;

/// Candidates for distractor selection: displayed identifiers of the same
/// kind, excluding the correct one. Edit distance decides (plausible
/// confusion, not random noise): one of the [`DISTRACTOR_POOL`] nearest
/// ([`SchemaView::distractors`]) is drawn uniformly.
fn pick_distractor(
    view: &SchemaView,
    displayed: &str,
    is_table: bool,
    rng: &mut StdRng,
) -> Option<String> {
    let pool = view.distractors(displayed, is_table);
    if pool.is_empty() {
        return None;
    }
    Some(pool[rng.gen_range(0..pool.len())].clone())
}

/// The up to [`DISTRACTOR_POOL`] distinct `names` nearest to `displayed`
/// by case-insensitive edit distance, ascending by `(distance, name)`:
/// the order a stable distance sort of the sorted, deduplicated names
/// gives. A name listed by several tables takes one slot, and the
/// case-insensitive match of `displayed` is never a candidate. One pass;
/// a name whose length difference alone (a lower bound on the distance)
/// exceeds the current last distance is skipped unmeasured. An equal
/// bound is still measured, since a tie with a smaller name enters.
pub(crate) fn nearest_names<'a>(
    names: impl Iterator<Item = &'a str>,
    displayed: &str,
) -> Vec<(usize, &'a str)> {
    let mut top: Vec<(usize, &str)> = Vec::with_capacity(DISTRACTOR_POOL + 1);
    for name in names {
        if name.eq_ignore_ascii_case(displayed) {
            continue;
        }
        if top.len() == DISTRACTOR_POOL
            && name.len().abs_diff(displayed.len()) > top[DISTRACTOR_POOL - 1].0
        {
            continue;
        }
        if top.iter().any(|&(_, n)| n == name) {
            continue;
        }
        let entry = (levenshtein_ignore_case(name, displayed), name);
        let at = top.partition_point(|e| *e < entry);
        if at < DISTRACTOR_POOL {
            top.insert(at, entry);
            top.truncate(DISTRACTOR_POOL);
        }
    }
    top
}

/// Simulate linking one required identifier.
///
/// `regular_name` is the snake_case Regular rendering — the phrase the NL
/// question uses, and therefore the model's fallback guess.
pub fn link_identifier(
    model: &ModelConfig,
    view: &SchemaView,
    displayed: &str,
    regular_name: &str,
    is_table: bool,
    rng: &mut StdRng,
) -> LinkOutcome {
    let p = view_link_probability(model, view, displayed, is_table);
    if rng.gen::<f64>() < p {
        return LinkOutcome::Correct(displayed.to_owned());
    }
    if rng.gen::<f64>() < model.hallucination {
        return LinkOutcome::Hallucinated(hallucinate(displayed, rng));
    }
    if rng.gen::<f64>() < model.guess_natural {
        // The natural guess can coincide with the displayed identifier on
        // sufficiently natural schemas — in which case the model recovers.
        if regular_name.eq_ignore_ascii_case(displayed) {
            return LinkOutcome::Correct(displayed.to_owned());
        }
        return LinkOutcome::NaturalGuess(regular_name.to_owned());
    }
    match pick_distractor(view, displayed, is_table, rng) {
        Some(d) => LinkOutcome::Distractor(d),
        None => LinkOutcome::Hallucinated(hallucinate(displayed, rng)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use crate::workflows::Workflow;
    use rand::SeedableRng;
    use snails_data::build_database;

    #[test]
    fn token_classes() {
        assert_eq!(classify_token("height"), TokenClass::Word);
        assert_eq!(classify_token("ID"), TokenClass::Word);
        assert_eq!(classify_token("qty"), TokenClass::Abbreviation);
        assert_eq!(classify_token("veg"), TokenClass::Abbreviation);
        assert_eq!(classify_token("22"), TokenClass::Numeric);
        assert_eq!(classify_token("xq"), TokenClass::Opaque);
        assert_eq!(classify_token("zqxj"), TokenClass::Opaque);
    }

    #[test]
    fn link_probability_monotone_in_naturalness() {
        let gpt4o = ModelKind::Gpt4o.config();
        let regular = link_probability(&gpt4o, "vegetation_height", 100, false);
        let low = link_probability(&gpt4o, "VegHt", 100, false);
        let least = link_probability(&gpt4o, "VgHt", 100, false);
        assert!(regular > low, "{regular} !> {low}");
        assert!(low > least, "{low} !> {least}");
    }

    #[test]
    fn weak_models_link_worse_on_abbreviations() {
        let strong = ModelKind::Gpt4o.config();
        let weak = ModelKind::PhindCodeLlama.config();
        let s = link_probability(&strong, "VgHt", 100, false);
        let w = link_probability(&weak, "VgHt", 100, false);
        assert!(s > w, "{s} !> {w}");
        // But on fully natural names the gap is small.
        let sn = link_probability(&strong, "vegetation_height", 100, false);
        let wn = link_probability(&weak, "vegetation_height", 100, false);
        assert!((sn - wn).abs() < 0.1, "{sn} vs {wn}");
    }

    #[test]
    fn distraction_shrinks_with_schema_size() {
        let m = ModelKind::Gpt35.config();
        let small = link_probability(&m, "vegetation_height", 60, false);
        let large = link_probability(&m, "vegetation_height", 1611, false);
        assert!(small > large, "{small} !> {large}");
    }

    #[test]
    fn hallucination_produces_different_identifier() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let h = hallucinate("tbl_Locations", &mut rng);
            assert!(!h.eq_ignore_ascii_case("tbl_Locations"), "{h}");
            assert!(!h.is_empty());
        }
    }

    #[test]
    fn link_outcomes_cover_failure_modes() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Least);
        let model = ModelKind::PhindCodeLlama.config();
        let table = view.tables().nth(2).expect("a third table");
        let mut correct = 0;
        let mut halluc = 0;
        let mut guess = 0;
        let mut distract = 0;
        for seed in 0..400 {
            let mut rng = StdRng::seed_from_u64(seed);
            match link_identifier(&model, &view, &table.displayed, "wildlife_sighting", false, &mut rng)
            {
                LinkOutcome::Correct(_) => correct += 1,
                LinkOutcome::Hallucinated(_) => halluc += 1,
                LinkOutcome::NaturalGuess(g) => {
                    assert_eq!(g, "wildlife_sighting");
                    guess += 1;
                }
                LinkOutcome::Distractor(d) => {
                    assert!(!d.eq_ignore_ascii_case(&table.displayed));
                    distract += 1;
                }
            }
        }
        assert!(correct > 0, "no successes");
        assert!(halluc + guess + distract > 0, "no failures at Least level");
        assert!(halluc > 0 && distract > 0, "failure modes unexercised");
    }

    #[test]
    fn natural_guess_recovers_on_regular_schema() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Regular);
        let model = ModelKind::Gpt35.config();
        // Find a displayed column equal to its own regular rendering.
        let col = view
            .tables()
            .flat_map(|t| &t.columns)
            .find(|c| {
                db.crosswalk
                    .entry(&c.native)
                    .map(|e| e.renderings[0] == c.displayed)
                    .unwrap_or(false)
            })
            .expect("some regular-rendered column");
        let regular = col.displayed.clone();
        let mut guesses_became_correct = 0;
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = link_identifier(&model, &view, &col.displayed, &regular, false, &mut rng);
            if matches!(out, LinkOutcome::NaturalGuess(_)) {
                panic!("guess should have been converted to Correct");
            }
            if out.is_correct() {
                guesses_became_correct += 1;
            }
        }
        assert!(guesses_became_correct > 250);
    }

    /// The sort-based ranking [`pick_distractor`] replaced, kept as the
    /// reference its one-pass selection must reproduce: every candidate,
    /// nearest first.
    fn ranked_by_sort<'a>(view: &'a SchemaView, displayed: &str, is_table: bool) -> Vec<&'a str> {
        let mut candidates: Vec<&str> = if is_table {
            view.tables()
                .map(|t| t.displayed.as_str())
                .filter(|d| !d.eq_ignore_ascii_case(displayed))
                .collect()
        } else {
            view.tables()
                .flat_map(|t| &t.columns)
                .map(|c| c.displayed.as_str())
                .filter(|d| !d.eq_ignore_ascii_case(displayed))
                .collect()
        };
        candidates.sort_unstable();
        candidates.dedup();
        candidates.sort_by_key(|c| levenshtein_ignore_case(c, displayed));
        candidates
    }

    /// The replaced draw: one of the 5 nearest of `ranked`.
    fn pick_by_sort(ranked: &[&str], rng: &mut StdRng) -> Option<String> {
        if ranked.is_empty() {
            return None;
        }
        let top = ranked.len().min(5);
        Some(ranked[rng.gen_range(0..top)].to_owned())
    }

    /// Every displayed table (`true`) and column (`false`) of `view`.
    fn identifiers(view: &SchemaView) -> Vec<(String, bool)> {
        let tables = view.tables().map(|t| (t.displayed.clone(), true));
        let columns = view
            .tables()
            .flat_map(|t| &t.columns)
            .map(|c| (c.displayed.clone(), false));
        tables.chain(columns).collect()
    }

    /// [`identifiers`] of a view of database `name`; for NTSB and SBOD a
    /// seeded sample of 300 of them.
    fn sampled_identifiers(name: &str, view: &SchemaView) -> Vec<(String, bool)> {
        let mut ids = identifiers(view);
        if matches!(name, "NTSB" | "SBOD") {
            let mut rng = StdRng::seed_from_u64(ids.len() as u64);
            for i in 0..300 {
                let j = rng.gen_range(i..ids.len());
                ids.swap(i, j);
            }
            ids.truncate(300);
        }
        ids
    }

    /// Both selections on each identifier under three seeds: the same
    /// pick, and the rng left in the same state (one further draw agrees).
    /// The identifiers are picked twice, so on a full view the second pass
    /// reads the pools the first one filled. Returns how many picks found
    /// a distractor.
    fn assert_same_picks(view: &SchemaView, ids: &[(String, bool)]) -> usize {
        let mut found = 0;
        for pass in ["cold", "filled"] {
            for (displayed, is_table) in ids {
                let ranked = ranked_by_sort(view, displayed, *is_table);
                for seed in [1, 7, 90210] {
                    let mut fast = StdRng::seed_from_u64(seed);
                    let mut reference = fast.clone();
                    let pick = pick_distractor(view, displayed, *is_table, &mut fast);
                    assert_eq!(
                        pick,
                        pick_by_sort(&ranked, &mut reference),
                        "{} {:?} {displayed:?} seed {seed} ({pass})",
                        view.database,
                        view.variant
                    );
                    assert_eq!(
                        fast.gen::<u64>(),
                        reference.gen::<u64>(),
                        "rng state after {displayed:?} ({pass})"
                    );
                    found += usize::from(pick.is_some());
                }
            }
        }
        found
    }

    #[test]
    fn distractor_selection_equals_the_sort_it_replaces() {
        let mut picks = 0;
        for name in ["CWO", "KIS", "NTSB", "SBOD"] {
            let db = build_database(name);
            for variant in SchemaVariant::ALL {
                let view = SchemaView::new(&db, variant);
                let ids = sampled_identifiers(name, &view);
                picks += assert_same_picks(&view, &ids);
                // One pool per distinct name picked, each filled once.
                let pools = view.filled().expect("the index was built").1;
                assert!(pools > 0 && pools <= view.distinct_names(), "{name} {variant:?}: {pools}");
            }
        }
        // A subsetted view, asked for identifiers inside and outside it: it
        // ranks by scanning its own tables and fills no pool.
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Least);
        let kept: Vec<String> = view.tables().take(2).map(|t| t.displayed.clone()).collect();
        picks += assert_same_picks(&view.restricted_to(&kept), &identifiers(&view));
        let single = view.restricted_to(&kept[..1]);
        assert_eq!(
            pick_distractor(&single, &kept[0], true, &mut StdRng::seed_from_u64(1)),
            None
        );
        assert_eq!(view.filled(), Some((0, 0)), "a restricted view filled its parent's slots");
        assert!(picks > 0, "no pick found a distractor");
    }

    /// The model configurations the grid links with: the five zero-shot
    /// models and the DIN-SQL and CodeS generators.
    fn grid_models() -> Vec<ModelConfig> {
        let chained = [Workflow::DinSql, Workflow::CodeS].map(|w| w.model_config());
        ModelKind::ALL.iter().map(|m| m.config()).chain(chained).collect()
    }

    /// Each identifier's indexed probability, read twice under every model
    /// (the first read of a displayed name fills its slot), equals
    /// [`link_probability`] bit for bit. Returns how many probabilities
    /// were compared.
    fn assert_indexed_probabilities(
        view: &SchemaView,
        ids: &[(String, bool)],
        models: &[ModelConfig],
    ) -> usize {
        let organic = view.variant == SchemaVariant::Native;
        let mut compared = 0;
        for (displayed, is_table) in ids {
            for model in models {
                let reference = link_probability(model, displayed, view.column_count(), organic);
                for read in ["first", "second"] {
                    let indexed = view_link_probability(model, view, displayed, *is_table);
                    assert_eq!(
                        indexed.to_bits(),
                        reference.to_bits(),
                        "{} {:?} {displayed:?} {} ({read} read): {indexed} vs {reference}",
                        view.database,
                        view.variant,
                        model.name
                    );
                    compared += 1;
                }
            }
        }
        compared
    }

    #[test]
    fn indexed_link_probabilities_equal_link_probability() {
        let models = grid_models();
        let mut compared = 0;
        for name in snails_data::DATABASE_NAMES {
            let db = build_database(name);
            for variant in SchemaVariant::ALL {
                let view = SchemaView::new(&db, variant);
                assert_eq!(view.filled(), None, "{name} {variant:?}: a new view built its index");
                let ids = sampled_identifiers(name, &view);
                compared += assert_indexed_probabilities(&view, &ids, &models);
                let (classes, pools) = view.filled().expect("the index was built");
                assert!(classes > 0 && classes <= view.distinct_names(), "{name} {variant:?}");
                assert_eq!(pools, 0, "{name} {variant:?}: a probability filled a pool");

                // A restricted view of a fresh full view: it reads (and
                // fills) its parent's classes, at its own column count.
                let fresh = SchemaView::new(&db, variant);
                let kept: Vec<String> =
                    fresh.tables().step_by(2).map(|t| t.displayed.clone()).collect();
                let restricted = fresh.restricted_to(&kept);
                assert!(restricted.column_count() < view.column_count());
                compared += assert_indexed_probabilities(&restricted, &ids, &models);
                assert_eq!(fresh.filled(), Some((classes, 0)), "{name} {variant:?}");

                // A name the view does not display is classified on the
                // spot and never cached.
                let unseen = [("zz_not_shown_Qty9".to_owned(), false)];
                compared += assert_indexed_probabilities(&view, &unseen, &models);
                assert_eq!(
                    view.filled(),
                    Some((classes, 0)),
                    "{name} {variant:?}: cached an unseen name"
                );
            }
        }
        assert!(compared > 0, "no probability compared");
    }
}
