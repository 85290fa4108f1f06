//! End-to-end simulated NL-to-SQL inference.
//!
//! The simulated model receives the displayed schema and a question and
//! emits SQL text in the *displayed* identifier namespace, exactly like the
//! hosted models in the paper's pipeline (Figure 6). The gold query's AST
//! serves as the model's latent understanding of the question (the
//! simulation device — see DESIGN.md); everything that the paper attributes
//! to the model is simulated on top of it:
//!
//! * schema linking per required identifier ([`crate::linking`]);
//! * structural errors whose probability grows with query complexity;
//! * extra projected columns (tolerated by superset matching, punished by
//!   precision);
//! * outright syntax failures (the paper excludes 137 unparseable
//!   generations from linking analysis).

use crate::linking::{link_identifier, LinkOutcome};
use crate::model::ModelConfig;
use crate::schema_view::SchemaView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snails_data::{GoldPair, SnailsDatabase};
use snails_sql::{
    clause_profile, extract_identifiers, parse, rename_identifiers, Expr, FunctionArg,
    IdentifierMap, QueryIdentifiers, SelectItem, Statement,
};
use std::borrow::Cow;

/// The result of one simulated inference.
#[derive(Debug, Clone)]
pub struct Inference {
    /// Model display name.
    pub model: &'static str,
    /// Database name.
    pub database: String,
    /// Question id.
    pub question_id: usize,
    /// The emitted SQL text, in the displayed identifier namespace. May be
    /// unparseable when the model suffered a syntax failure.
    pub raw_sql: String,
    /// Per-identifier link outcomes `(native, outcome)`.
    pub links: Vec<(String, LinkOutcome)>,
    /// The structural mutation applied, if any.
    pub mutation: Option<&'static str>,
    /// True when the model emitted unparseable output.
    pub syntax_failed: bool,
}

/// FNV-1a mix for deterministic per-inference seeds.
pub fn mix_seed(parts: &[&str], nums: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    };
    for p in parts {
        for b in p.bytes() {
            eat(b);
        }
        eat(0xff);
    }
    for n in nums {
        for b in n.to_le_bytes() {
            eat(b);
        }
    }
    h
}

/// A gold query parsed once: the statement the simulated model starts
/// from, and the identifiers it must link.
#[derive(Debug, Clone)]
pub struct GoldQuery {
    /// The parsed gold statement.
    pub statement: Statement,
    /// Its identifiers (uppercased native names).
    pub ids: QueryIdentifiers,
}

impl GoldQuery {
    /// Parse a gold SQL statement. Panics on invalid SQL: gold queries are
    /// fixtures.
    pub fn parse(sql: &str) -> GoldQuery {
        let statement = parse(sql).expect("gold queries are valid SQL");
        let ids = extract_identifiers(&statement);
        GoldQuery { statement, ids }
    }
}

/// Run one simulated inference, parsing the gold query first. Callers that
/// evaluate a question more than once parse it once and call
/// [`infer_gold`].
///
/// `global_seed` makes whole benchmark runs reproducible; per-inference
/// randomness is derived from it plus the (model, database, variant,
/// question) coordinates.
pub fn infer(
    model: &ModelConfig,
    db: &SnailsDatabase,
    view: &SchemaView,
    pair: &GoldPair,
    global_seed: u64,
) -> Inference {
    infer_gold(model, db, view, pair, &GoldQuery::parse(&pair.sql), global_seed)
}

/// [`infer`] from `pair`'s parsed gold query.
pub fn infer_gold(
    model: &ModelConfig,
    db: &SnailsDatabase,
    view: &SchemaView,
    pair: &GoldPair,
    gold: &GoldQuery,
    global_seed: u64,
) -> Inference {
    let seed = mix_seed(
        &[model.name, db.spec.name, view.variant.display_name()],
        &[global_seed, pair.id as u64],
    );
    let mut rng = StdRng::seed_from_u64(seed);

    let mut inference = Inference {
        model: model.name,
        database: db.spec.name.to_owned(),
        question_id: pair.id,
        raw_sql: String::new(),
        links: Vec::new(),
        mutation: None,
        syntax_failed: false,
    };

    // Outright syntax failure.
    if rng.gen::<f64>() < model.syntax_failure {
        inference.syntax_failed = true;
        inference.raw_sql = "SELECT the FROM WHERE answer IS".to_owned();
        return inference;
    }

    let ids = &gold.ids;

    // Link every required identifier.
    let mut rename = IdentifierMap::new();
    for table in &ids.tables {
        let (displayed, regular) = displayed_and_regular(db, view, table, true);
        let outcome = link_identifier(model, view, displayed, &regular, true, &mut rng);
        rename.insert(table, outcome.emitted());
        inference.links.push((table.clone(), outcome));
    }
    for column in &ids.columns {
        let (displayed, regular) = displayed_and_regular(db, view, column, false);
        let outcome = link_identifier(model, view, displayed, &regular, false, &mut rng);
        rename.insert(column, outcome.emitted());
        inference.links.push((column.clone(), outcome));
    }

    let mut predicted = rename_identifiers(&gold.statement, &rename);

    // Structural correctness: skill decays with clause complexity.
    let complexity = clause_profile(&gold.statement).complexity() as f64;
    let p_structure =
        (model.structure_skill * model.chain_factor).powf(0.5 + complexity / 8.0);
    if rng.gen::<f64>() >= p_structure {
        inference.mutation = mutate(&mut predicted, &mut rng);
    }

    // Extra projected columns (ungrouped queries only).
    if rng.gen::<f64>() < model.extra_column_rate {
        add_extra_column(&mut predicted, view, ids, &mut rng);
    }

    inference.raw_sql = predicted.to_string();
    inference
}

/// The displayed and Regular renderings of a native identifier.
fn displayed_and_regular<'a>(
    db: &'a SnailsDatabase,
    view: &'a SchemaView,
    native: &'a str,
    is_table: bool,
) -> (&'a str, Cow<'a, str>) {
    let displayed = if is_table {
        view.table_by_native(native).map(|t| t.displayed.as_str())
    } else {
        view.column_by_native(native).map(|c| c.displayed.as_str())
    }
    .unwrap_or(native);
    let regular = match db.crosswalk.entry(native) {
        Some(e) => Cow::Borrowed(e.renderings[0].as_str()),
        None => Cow::Owned(native.to_ascii_lowercase()),
    };
    (displayed, regular)
}

/// Apply one structural mutation; returns its label.
fn mutate(stmt: &mut Statement, rng: &mut StdRng) -> Option<&'static str> {
    let select = match stmt {
        Statement::Select(s) => s,
        Statement::CreateView { query, .. } => query,
    };
    // Collect applicable mutations, then pick one.
    let mut options: Vec<&'static str> = Vec::new();
    if let Some(w) = &select.where_clause {
        options.push("drop-where");
        // Only offer a literal flip when the predicate actually contains
        // one (e.g. a bare NOT EXISTS has nothing to mutate).
        if mutate_first_literal(&mut w.clone()) {
            options.push("wrong-literal");
        }
    }
    let swappable = |name: &str, args: &[FunctionArg]| match name {
        "COUNT" => matches!(args.first(), Some(FunctionArg::Expr(_))),
        "SUM" | "AVG" | "MAX" | "MIN" => true,
        _ => false,
    };
    if select.items.iter().any(|i| {
        matches!(i, SelectItem::Expr { expr: Expr::Function { name, args, .. }, .. }
            if swappable(name, args))
    }) {
        options.push("wrong-aggregate");
    }
    if !select.order_by.is_empty() {
        options.push("flip-order");
    }
    if !select.joins.is_empty() {
        options.push("drop-join");
    }
    if options.is_empty() {
        return None;
    }
    let choice = options[rng.gen_range(0..options.len())];
    match choice {
        "drop-where" => select.where_clause = None,
        "wrong-literal" => {
            if let Some(w) = &mut select.where_clause {
                mutate_first_literal(w);
            }
        }
        "wrong-aggregate" => {
            for item in &mut select.items {
                if let SelectItem::Expr { expr: Expr::Function { name, args, .. }, .. } = item {
                    let swapped = match name.as_str() {
                        "COUNT" if matches!(args.first(), Some(FunctionArg::Expr(_))) => "SUM",
                        "SUM" => "AVG",
                        "AVG" => "SUM",
                        "MAX" => "MIN",
                        "MIN" => "MAX",
                        _ => continue,
                    };
                    *name = swapped.to_owned();
                    break;
                }
            }
        }
        "flip-order" => {
            if let Some(o) = select.order_by.first_mut() {
                o.descending = !o.descending;
            }
        }
        "drop-join" => {
            select.joins.pop();
        }
        _ => unreachable!(),
    }
    Some(choice)
}

/// Flip the first literal found in a predicate (wrong value ⇒ wrong result).
fn mutate_first_literal(e: &mut Expr) -> bool {
    match e {
        Expr::Literal(snails_sql::Literal::Str(s)) => {
            s.push_str(" x");
            true
        }
        Expr::Literal(snails_sql::Literal::Int(n)) => {
            *n += 1;
            true
        }
        Expr::Binary { left, right, .. } => {
            mutate_first_literal(left) || mutate_first_literal(right)
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => mutate_first_literal(expr),
        Expr::InList { expr, list, .. } => {
            mutate_first_literal(expr) || list.iter_mut().any(mutate_first_literal)
        }
        Expr::Between { expr, low, high, .. } => {
            mutate_first_literal(expr) || mutate_first_literal(low) || mutate_first_literal(high)
        }
        Expr::Like { pattern, .. } => {
            pattern.push('x');
            true
        }
        Expr::InSubquery { expr, query, .. } => {
            mutate_first_literal(expr) || mutate_select_literal(query)
        }
        Expr::Exists { query, .. } | Expr::Subquery(query) => mutate_select_literal(query),
        _ => false,
    }
}

/// Descend into a subquery's predicates looking for a literal to flip.
fn mutate_select_literal(select: &mut snails_sql::SelectStatement) -> bool {
    if let Some(w) = &mut select.where_clause {
        if mutate_first_literal(w) {
            return true;
        }
    }
    if let Some(h) = &mut select.having {
        if mutate_first_literal(h) {
            return true;
        }
    }
    false
}

/// Project an extra column from the first gold table (paper: predicted
/// queries may include additional fields that do not render the answer
/// incorrect; superset matching tolerates them, precision does not).
fn add_extra_column(
    stmt: &mut Statement,
    view: &SchemaView,
    gold_ids: &QueryIdentifiers,
    rng: &mut StdRng,
) {
    let select = match stmt {
        Statement::Select(s) => s,
        Statement::CreateView { query, .. } => query,
    };
    if !select.group_by.is_empty()
        || select.distinct
        || select.items.iter().any(|i| {
            matches!(i, SelectItem::Expr { expr: Expr::Function { .. }, .. })
        })
    {
        return;
    }
    // A column of a referenced table that the gold projection does not use.
    let Some(first_table) = gold_ids.tables.iter().next() else { return };
    let Some(table) = view.table_by_native(first_table) else { return };
    let unused: Vec<&str> = table
        .columns
        .iter()
        .map(|c| c.displayed.as_str())
        .filter(|d| !gold_ids.columns.contains(&d.to_ascii_uppercase()))
        .collect();
    if unused.is_empty() {
        return;
    }
    let pick = unused[rng.gen_range(0..unused.len())];
    select.items.push(SelectItem::Expr {
        expr: Expr::Column(snails_sql::ColumnRef::bare(pick)),
        alias: None,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use snails_data::build_database;
    use snails_naturalness::category::SchemaVariant;

    fn setup() -> (SnailsDatabase, SchemaView) {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Native);
        (db, view)
    }

    #[test]
    fn inference_is_deterministic() {
        let (db, view) = setup();
        let model = ModelKind::Gpt4o.config();
        let a = infer(&model, &db, &view, &db.questions[0], 42);
        let b = infer(&model, &db, &view, &db.questions[0], 42);
        assert_eq!(a.raw_sql, b.raw_sql);
        let c = infer(&model, &db, &view, &db.questions[0], 43);
        // Different global seed can change the outcome (not guaranteed for
        // one question, but the full-seed mix must differ somewhere).
        let _ = c;
    }

    #[test]
    fn strong_model_mostly_reproduces_gold_on_native() {
        let (db, view) = setup();
        let model = ModelKind::Gpt4o.config();
        let mut exact = 0;
        for pair in &db.questions {
            let inf = infer(&model, &db, &view, pair, 1);
            // On the Native CWO schema (high naturalness), the strong model
            // usually emits the gold query verbatim (identifiers unchanged).
            let gold_norm = snails_sql::normalize(&pair.sql).unwrap();
            if inf.raw_sql == gold_norm {
                exact += 1;
            }
        }
        assert!(exact >= db.questions.len() / 2, "only {exact} exact");
    }

    #[test]
    fn weak_model_degrades_at_least_level() {
        let db = build_database("CWO");
        let native = SchemaView::new(&db, SchemaVariant::Native);
        let least = SchemaView::new(&db, SchemaVariant::Least);
        let model = ModelKind::PhindCodeLlama.config();
        let count_correct = |view: &SchemaView| {
            db.questions
                .iter()
                .map(|p| {
                    infer(&model, &db, view, p, 7)
                        .links
                        .iter()
                        .filter(|(_, o)| o.is_correct())
                        .count()
                })
                .sum::<usize>()
        };
        let native_links = count_correct(&native);
        let least_links = count_correct(&least);
        assert!(
            native_links > least_links,
            "native {native_links} !> least {least_links}"
        );
    }

    #[test]
    fn raw_sql_is_in_displayed_namespace() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Least);
        let model = ModelKind::Gpt4o.config();
        // Find an inference where all links succeeded.
        let inf = db
            .questions
            .iter()
            .map(|p| infer(&model, &db, &view, p, 3))
            .find(|i| !i.syntax_failed && i.links.iter().all(|(_, o)| o.is_correct()))
            .expect("some fully-correct inference");
        // Its SQL must parse and reference displayed (Least) identifiers.
        let stmt = parse(&inf.raw_sql).expect("parseable");
        let ids = extract_identifiers(&stmt);
        for t in &ids.tables {
            assert!(
                view.tables().any(|vt| vt.displayed.eq_ignore_ascii_case(t)),
                "table {t} not a displayed name"
            );
        }
    }

    #[test]
    fn syntax_failures_occur_at_configured_rate() {
        let (db, view) = setup();
        let mut model = ModelKind::Gpt35.config();
        model.syntax_failure = 0.5;
        let failures = (0..200u64)
            .filter(|s| infer(&model, &db, &view, &db.questions[0], *s).syntax_failed)
            .count();
        assert!((60..140).contains(&failures), "{failures}/200");
        // Failed output is unparseable.
        let inf = (0..200u64)
            .map(|s| infer(&model, &db, &view, &db.questions[0], s))
            .find(|i| i.syntax_failed)
            .unwrap();
        assert!(parse(&inf.raw_sql).is_err());
    }

    #[test]
    fn mutations_change_semantics() {
        let (db, view) = setup();
        let mut model = ModelKind::Gpt35.config();
        model.structure_skill = 0.0; // force mutations
        model.syntax_failure = 0.0;
        model.extra_column_rate = 0.0;
        let mut mutated = 0;
        for (i, pair) in db.questions.iter().enumerate() {
            let inf = infer(&model, &db, &view, pair, i as u64);
            if inf.mutation.is_some() {
                mutated += 1;
                assert_ne!(
                    inf.raw_sql,
                    snails_sql::normalize(&pair.sql).unwrap(),
                    "mutation {:?} left query unchanged",
                    inf.mutation
                );
            }
        }
        assert!(mutated > db.questions.len() / 2, "{mutated} mutated");
    }

    #[test]
    fn extra_columns_extend_projection() {
        let (db, view) = setup();
        let mut model = ModelKind::Gpt4o.config();
        model.extra_column_rate = 1.0;
        model.syntax_failure = 0.0;
        model.structure_skill = 1.0;
        // Find a simple projection question.
        let pair = db
            .questions
            .iter()
            .find(|p| p.template == snails_data::questions::Template::SimpleProjWhere)
            .unwrap();
        let inf = infer(&model, &db, &view, pair, 9);
        let gold_items = match parse(&pair.sql).unwrap() {
            Statement::Select(s) => s.items.len(),
            _ => unreachable!(),
        };
        let pred_items = match parse(&inf.raw_sql).unwrap() {
            Statement::Select(s) => s.items.len(),
            _ => unreachable!(),
        };
        assert_eq!(pred_items, gold_items + 1);
    }

    #[test]
    fn mix_seed_varies_with_inputs() {
        let a = mix_seed(&["gpt-4o", "CWO"], &[1, 2]);
        let b = mix_seed(&["gpt-4o", "CWO"], &[1, 3]);
        let c = mix_seed(&["gpt-4o", "KIS"], &[1, 2]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, mix_seed(&["gpt-4o", "CWO"], &[1, 2]));
    }
}
