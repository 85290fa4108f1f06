//! Semantic audit (appendix E.3, automated).
//!
//! The paper's authors manually reviewed every prediction that passed result
//! set-superset matching and rejected ≈2% as false positives — the canonical
//! example being a query whose result happened to match although it selected
//! the wrong table (`AHEM` instead of `OHEM`). This module automates that
//! review with the checks a human reviewer applies:
//!
//! * every gold *table* must actually be referenced by the prediction (the
//!   AHEM/OHEM case);
//! * the prediction must not have lost the gold query's aggregation
//!   structure (a `GROUP BY` dropped but coincidentally matching).

use snails_sql::{clause_profile, extract_identifiers, parse, QueryIdentifiers, Statement};

/// Audit a set-matched prediction; `true` = passes (finally correct).
///
/// Unparseable predictions fail the audit (they cannot be reviewed).
/// Callers that already hold both statements use [`audit_statements`].
pub fn audit_semantics(gold_sql: &str, predicted_sql: &str) -> bool {
    let Ok(gold) = parse(gold_sql) else { return false };
    let Ok(pred) = parse(predicted_sql) else { return false };
    audit_statements(&gold, &extract_identifiers(&gold), &pred, &extract_identifiers(&pred))
}

/// [`audit_semantics`] on parsed statements and the identifiers extracted
/// from them.
pub fn audit_statements(
    gold: &Statement,
    gold_ids: &QueryIdentifiers,
    pred: &Statement,
    pred_ids: &QueryIdentifiers,
) -> bool {
    // Wrong-table check: every gold table referenced.
    if !gold_ids.tables.is_subset(&pred_ids.tables) {
        return false;
    }

    // Aggregation-structure check: grouping present iff gold groups.
    let gold_profile = clause_profile(gold);
    let pred_profile = clause_profile(pred);
    if gold_profile.group_by && !pred_profile.group_by {
        return false;
    }

    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_queries_pass() {
        let sql = "SELECT a FROM t WHERE a = 1";
        assert!(audit_semantics(sql, sql));
    }

    #[test]
    fn wrong_table_fails() {
        // The paper's AHEM/OHEM example: result sets matched, table wrong.
        let gold = "SELECT StatusOfP FROM OHEM";
        let pred = "SELECT StatusOfP FROM AHEM";
        assert!(!audit_semantics(gold, pred));
    }

    #[test]
    fn extra_tables_tolerated() {
        let gold = "SELECT a FROM t";
        let pred = "SELECT a FROM t JOIN u ON t.x = u.x";
        assert!(audit_semantics(gold, pred));
    }

    #[test]
    fn dropped_group_by_fails() {
        let gold = "SELECT a, COUNT(*) FROM t GROUP BY a";
        let pred = "SELECT a, 3 FROM t";
        assert!(!audit_semantics(gold, pred));
    }

    #[test]
    fn unparseable_prediction_fails() {
        assert!(!audit_semantics("SELECT a FROM t", "SELECT the FROM WHERE"));
    }

    #[test]
    fn alias_differences_pass() {
        let gold = "SELECT a AS x FROM t";
        let pred = "SELECT a AS y FROM t";
        assert!(audit_semantics(gold, pred));
    }
}
