//! Cross-crate invariants of the benchmark artifacts (Artifacts 1, 4, 6):
//! every database builds to its Table 2 shape, every gold query executes
//! non-empty, and every crosswalk is a per-level bijection covering the
//! schema.

use snails::prelude::*;
use std::collections::HashSet;

#[test]
fn all_nine_databases_match_table_2() {
    // (name, tables, columns, questions) — Table 2 verbatim.
    let expected = [
        ("ASIS", 36, 245, 40),
        ("ATBI", 28, 192, 40),
        ("CWO", 13, 71, 40),
        ("KIS", 18, 157, 40),
        ("NPFM", 27, 190, 40),
        ("NTSB", 40, 1611, 100),
        ("NYSED", 27, 423, 63),
        ("PILB", 21, 196, 40),
        ("SBOD", 2588, 90_477, 100),
    ];
    let mut total_questions = 0;
    for (name, tables, columns, questions) in expected {
        let db = build_database(name);
        assert_eq!(db.db.table_count(), tables, "{name} tables");
        assert_eq!(db.db.column_count(), columns, "{name} columns");
        assert_eq!(db.questions.len(), questions, "{name} questions");
        total_questions += questions;
    }
    assert_eq!(total_questions, 503, "Artifact 6 has 503 NL-SQL pairs");
}

#[test]
fn gold_queries_execute_non_empty_everywhere() {
    // The Artifact-6 invariant on all nine databases, doubling as the
    // real-SQL differential: every gold statement's interpreter result must
    // equal, byte for byte, what the plan cache returns — unbudgeted, and
    // under the guarded budgets served `Sql` requests run with.
    use snails::core::telemetry::{scope, ClockMode, ObsCtx};
    use snails::engine::{ExecOptions, PlanCache};
    let guarded = ExecOptions { limits: ExecLimits::guarded(), ..Default::default() };
    for name in snails::data::DATABASE_NAMES {
        let db = build_database(name);
        let plans = PlanCache::new();
        let obs = std::sync::Arc::new(ObsCtx::new(ClockMode::Sim));
        let _scope = scope(&obs);
        for pair in &db.questions {
            let rs = run_sql(&db.db, &pair.sql)
                .unwrap_or_else(|e| panic!("{name} q{}: {e}\n{}", pair.id, pair.sql));
            assert!(!rs.is_empty(), "{name} q{} returned no rows: {}", pair.id, pair.sql);
            let oracle = format!("{rs:?}");
            for opts in [ExecOptions::default(), guarded] {
                let planned = plans
                    .run(&db.db, &pair.sql, opts)
                    .unwrap_or_else(|e| panic!("{name} q{} planned: {e}", pair.id));
                assert_eq!(format!("{planned:?}"), oracle, "{name} q{}: {}", pair.id, pair.sql);
            }
        }
        // The comparison above exercised the vectorized engine.
        let batches = obs.report().counter("engine.vec.batches");
        assert!(batches > 0, "{name}: no vectorized batches ran");
    }
}

#[test]
fn crosswalks_cover_schemas_and_are_bijective() {
    for name in ["ASIS", "NTSB", "SBOD"] {
        let db = build_database(name);
        // Coverage: every schema identifier has an entry.
        for id in db.db.identifier_names() {
            assert!(db.crosswalk.entry(&id).is_some(), "{name}: {id} uncovered");
        }
        // Per-level bijectivity (case-insensitive).
        for level in 0..3 {
            let mut seen = HashSet::new();
            for e in db.crosswalk.entries() {
                assert!(
                    seen.insert(e.renderings[level].to_ascii_uppercase()),
                    "{name}: level {level} collision on {}",
                    e.renderings[level]
                );
            }
        }
        // Self-mapping at native level (§2.3).
        for e in db.crosswalk.entries() {
            assert_eq!(e.renderings[e.native_level.index()], e.native, "{name}");
        }
    }
}

#[test]
fn native_combined_naturalness_matches_figure_5() {
    // Figure 5 / appendix A combined-naturalness targets, ±0.06 generation
    // tolerance.
    let targets = [
        ("ASIS", 0.77),
        ("ATBI", 0.70),
        ("CWO", 0.84),
        ("KIS", 0.79),
        ("NPFM", 0.70),
        ("NTSB", 0.59),
        ("NYSED", 0.68),
        ("PILB", 0.76),
        ("SBOD", 0.49),
    ];
    for (name, target) in targets {
        let db = build_database(name);
        let combined = db.combined_naturalness();
        assert!(
            (combined - target).abs() < 0.06,
            "{name}: combined {combined:.3} vs Figure 5 target {target}"
        );
    }
}

#[test]
fn database_ordering_by_naturalness_is_preserved() {
    // CWO is the most natural schema; SBOD the least (§3.1 / appendix A).
    let cwo = build_database("CWO").combined_naturalness();
    let sbod = build_database("SBOD").combined_naturalness();
    let ntsb = build_database("NTSB").combined_naturalness();
    assert!(cwo > ntsb && ntsb > sbod, "cwo {cwo} ntsb {ntsb} sbod {sbod}");
}

#[test]
fn gold_clause_distribution_tracks_table_3() {
    // Spot-check two signature Table 3 cells: NTSB is the composite-key-join
    // database (21 CK joins); SBOD has no EXISTS/negation/subqueries.
    let ntsb = build_database("NTSB");
    let ck = ntsb
        .questions
        .iter()
        .filter(|q| {
            snails::sql::clause_profile(&snails::sql::parse(&q.sql).unwrap())
                .composite_key_joins
                > 0
        })
        .count();
    assert_eq!(ck, 21, "NTSB CK joins");

    let sbod = build_database("SBOD");
    for q in &sbod.questions {
        let p = snails::sql::clause_profile(&snails::sql::parse(&q.sql).unwrap());
        assert_eq!(p.exists, 0, "SBOD q{} has EXISTS", q.id);
        assert!(!p.negation, "SBOD q{} has negation", q.id);
    }
}

#[test]
fn data_dictionaries_resolve_least_identifiers() {
    // The RAG expander must be able to recover Regular names for Least
    // identifiers using the generated data dictionary (appendix C.2).
    let db = build_database("NTSB");
    let meta = snails::modify::MetadataIndex::from_text(&db.data_dictionary);
    let expander = Expander::with_metadata(meta);
    let mut tested = 0;
    let mut recovered = 0;
    for e in db.crosswalk.entries() {
        if e.native_level == snails::naturalness::Naturalness::Least && tested < 50 {
            tested += 1;
            let expanded = expander.expand_identifier(&e.native);
            // Success = the expansion matches the Regular rendering's words
            // (ignoring crosswalk deduplication suffixes like `_2`).
            let want = e.renderings[0]
                .trim_end_matches(|c: char| c.is_ascii_digit())
                .trim_end_matches('_');
            if expanded.eq_ignore_ascii_case(want) {
                recovered += 1;
            }
        }
    }
    assert!(tested > 10, "not enough Least identifiers to test");
    assert!(
        recovered * 2 >= tested,
        "expander recovered only {recovered}/{tested}"
    );
}
