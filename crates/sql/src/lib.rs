#![warn(missing_docs)]

//! # snails-sql
//!
//! SQL substrate for the SNAILS benchmark: a lexer, recursive-descent parser,
//! AST, and SQL renderer for the T-SQL dialect subset exercised by the SNAILS
//! gold queries (Table 3 clause inventory: `TOP`, aggregate functions, joins
//! including composite-key joins, `EXISTS`, subqueries, `WHERE`, negation,
//! `GROUP BY`, `ORDER BY`, `HAVING`), plus the analysis services the paper's
//! ANTLR-based Java parser provided:
//!
//! * **identifier extraction** — the set of table and column identifiers in a
//!   query, with aliases tracked and excluded (appendix E.4);
//! * **identifier tagging** — re-render a query with `<TABLE_NAME>` /
//!   `<COLUMN_NAME>` tags encasing identifiers (appendix D.4), which guides
//!   the replacement algorithm during query "denaturalization";
//! * **identifier replacement** — rename tables/columns through a mapping,
//!   both via the tagged-string pathway and directly on the AST;
//! * **clause counting** — the per-query clause profile used for the Table 3
//!   complexity inventory.

pub mod analyze;
pub mod ast;
pub mod lexer;
pub mod parser;
pub mod render;
pub mod tag;

pub use analyze::{clause_profile, extract_identifiers, ClauseProfile, QueryIdentifiers};
pub use ast::{
    BinOp, ColumnRef, Expr, FunctionArg, Join, JoinKind, Literal, OrderItem, SelectItem,
    SelectStatement, Statement, TableSource, UnaryOp, UnionKind,
};
pub use lexer::{tokenize, LexError, Token, TokenKind};
pub use parser::{parse, parse_select, ParseError, ParseErrorKind, MAX_DEPTH};
pub use tag::{denaturalize_query, rename_identifiers, tag_query, IdentifierMap};

/// Parse then re-render, normalizing whitespace and keyword case.
///
/// Returns an error when the input is not valid SNAILS-dialect SQL.
pub fn normalize(sql: &str) -> Result<String, ParseError> {
    Ok(parse(sql)?.to_string())
}

/// Token-stream cache key: a cheap normalization for plan/statement caches.
///
/// Two inputs get the same key **iff** they lex to the same token stream —
/// whitespace, comments, and keyword case vanish, while identifier
/// spelling, literals, and token order are preserved (identifier case
/// affects output column names, so it must survive). Since the parser is a
/// pure function of the token stream, equal keys imply equal ASTs; the
/// length-prefixed encoding keeps distinct streams from colliding (e.g. a
/// string literal containing `SELECT` never merges with the keyword).
///
/// Returns `None` when the input does not lex; callers fall back to the
/// uncached parse path for its exact error.
pub fn cache_key(sql: &str) -> Option<String> {
    let tokens = tokenize(sql).ok()?;
    let mut key = String::with_capacity(sql.len());
    for t in &tokens {
        match &t.kind {
            TokenKind::Keyword(k) => {
                key.push('k');
                key.push_str(k.as_str());
            }
            TokenKind::Identifier { .. } => {
                key.push('i');
                key.push_str(&t.text.len().to_string());
                key.push(':');
                key.push_str(&t.text);
            }
            TokenKind::StringLit => {
                key.push('s');
                key.push_str(&t.text.len().to_string());
                key.push(':');
                key.push_str(&t.text);
            }
            TokenKind::Integer(n) => {
                key.push('#');
                key.push_str(&n.to_string());
            }
            TokenKind::Float(x) => {
                // Bit pattern, so -0.0 / NaN spellings stay distinct and
                // no formatting round-trip can merge different floats.
                key.push('f');
                key.push_str(&x.to_bits().to_string());
            }
            TokenKind::Symbol(s) => {
                key.push('y');
                key.push_str(s.as_str());
            }
        }
        key.push(' ');
    }
    Some(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_round_trips() {
        let sql = "select   a, b from T where a = 1";
        let norm = normalize(sql).unwrap();
        assert_eq!(norm, "SELECT a, b FROM T WHERE a = 1");
        // Normalization is idempotent.
        assert_eq!(normalize(&norm).unwrap(), norm);
    }

    #[test]
    fn normalize_rejects_garbage() {
        assert!(normalize("this is not sql").is_err());
    }

    #[test]
    fn cache_key_ignores_whitespace_and_keyword_case() {
        let a = cache_key("SELECT a FROM t WHERE x = 'hi'").unwrap();
        let b = cache_key("select   a\n FROM  T where x='hi'").unwrap();
        // Keyword case and spacing normalize away; identifier case does not.
        assert_ne!(a, b); // `t` vs `T`
        let c = cache_key("select a from t WHERE x = 'hi'").unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn cache_key_distinguishes_literals_and_identifiers() {
        // A string literal spelling a keyword never merges with the keyword.
        assert_ne!(cache_key("SELECT 'FROM'"), cache_key("SELECT FROM"));
        // Adjacent tokens cannot re-associate across the length prefix.
        assert_ne!(cache_key("SELECT 'ab', 'c'"), cache_key("SELECT 'a', 'bc'"));
        assert_ne!(cache_key("SELECT 1"), cache_key("SELECT 1.0"));
        assert!(cache_key("SELECT 'unterminated").is_none());
    }
}
