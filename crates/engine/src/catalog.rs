//! Catalog: databases, table schemas, tables, and views.

use crate::batch::ColumnSet;
use crate::error::EngineError;
use crate::value::{DataType, Value};
use snails_sql::SelectStatement;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (original case preserved; lookups are case-insensitive).
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
}

/// A table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns, in declaration order.
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// New schema with no columns.
    pub fn new(name: &str) -> Self {
        TableSchema { name: name.to_owned(), columns: Vec::new() }
    }

    /// Builder: append a column.
    pub fn column(mut self, name: &str, data_type: DataType) -> Self {
        self.columns.push(Column { name: name.to_owned(), data_type });
        self
    }

    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Column names in order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_str())
    }
}

/// A table: schema + rows, with a lazily built columnar mirror.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's schema.
    pub schema: TableSchema,
    /// Row storage (the source of truth).
    pub rows: Vec<Vec<Value>>,
    /// Columnar mirror of `rows`, built on first [`Table::columnar`] call
    /// and dropped by [`Database::table_mut`] (every mutation path goes
    /// through it), so the cache can never serve stale columns.
    columnar: OnceLock<Arc<ColumnSet>>,
}

// `columnar` is a pure cache of `rows`, so equality ignores it.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl Table {
    /// Empty table with the given schema.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
            columnar: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The table's columnar mirror, building it on first use. Subsequent
    /// calls are a refcount bump until the table is next mutated.
    pub fn columnar(&self) -> Arc<ColumnSet> {
        Arc::clone(self.columnar.get_or_init(|| {
            Arc::new(ColumnSet::from_rows(self.schema.columns.len(), &self.rows))
        }))
    }
}

/// A view definition: a named stored query, optionally in a separate schema
/// namespace (`db_nl` for natural views, §6).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    /// Schema namespace (`None` ≙ `dbo`).
    pub schema: Option<String>,
    /// View name.
    pub name: String,
    /// Body.
    pub query: SelectStatement,
}

/// An in-memory database: tables plus views.
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// Database name.
    pub name: String,
    tables: Vec<Table>,
    table_index: HashMap<String, usize>,
    views: Vec<ViewDef>,
}

impl Database {
    /// New empty database.
    pub fn new(name: &str) -> Self {
        Database { name: name.to_owned(), ..Default::default() }
    }

    /// Create a table; replaces any same-named table.
    pub fn create_table(&mut self, schema: TableSchema) {
        let key = schema.name.to_ascii_uppercase();
        let table = Table::new(schema);
        if let Some(&i) = self.table_index.get(&key) {
            self.tables[i] = table;
        } else {
            self.table_index.insert(key, self.tables.len());
            self.tables.push(table);
        }
    }

    /// Look up a table by case-insensitive name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.table_index
            .get(&name.to_ascii_uppercase())
            .map(|&i| &self.tables[i])
    }

    /// Mutable table lookup. Handing out `&mut` invalidates the table's
    /// columnar mirror — every mutation path
    /// (insert, bulk load, direct row edits) funnels through here, so a
    /// stale mirror is unreachable.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.table_index
            .get(&name.to_ascii_uppercase())
            .map(|&i| {
                let t = &mut self.tables[i];
                t.columnar.take();
                t
            })
    }

    /// All tables in creation order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.iter()
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total column count across tables.
    pub fn column_count(&self) -> usize {
        self.tables.iter().map(|t| t.schema.columns.len()).sum()
    }

    /// Insert a row; validates arity.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<(), EngineError> {
        let t = self
            .table_mut(table)
            .ok_or_else(|| EngineError::UnknownTable { name: table.to_owned() })?;
        if row.len() != t.schema.columns.len() {
            return Err(EngineError::Catalog {
                message: format!(
                    "row arity {} != {} columns in {table}",
                    row.len(),
                    t.schema.columns.len()
                ),
            });
        }
        t.rows.push(row);
        Ok(())
    }

    /// Register a view. Views live in a `(schema, name)` namespace distinct
    /// from tables; a view shadows nothing.
    pub fn create_view(&mut self, view: ViewDef) {
        self.views
            .retain(|v| !(v.name.eq_ignore_ascii_case(&view.name) && v.schema == view.schema));
        self.views.push(view);
    }

    /// Look up a view by optional schema and name (case-insensitive).
    pub fn view(&self, schema: Option<&str>, name: &str) -> Option<&ViewDef> {
        self.views.iter().find(|v| {
            v.name.eq_ignore_ascii_case(name)
                && match (schema, &v.schema) {
                    (Some(s), Some(vs)) => vs.eq_ignore_ascii_case(s),
                    (None, None) => true,
                    // An unqualified reference can resolve to a view in any
                    // schema only if no table matches; the executor handles
                    // that ordering. Qualified must match exactly.
                    (None, Some(_)) | (Some(_), None) => false,
                }
        })
    }

    /// All views.
    pub fn views(&self) -> impl Iterator<Item = &ViewDef> {
        self.views.iter()
    }

    /// All identifier names in the physical schema (tables then columns),
    /// the unit of naturalness classification.
    pub fn identifier_names(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.table_count() + self.column_count());
        for t in &self.tables {
            out.push(t.schema.name.clone());
        }
        for t in &self.tables {
            for c in &t.schema.columns {
                out.push(c.name.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Database {
        let mut db = Database::new("demo");
        db.create_table(
            TableSchema::new("tbl_Locations")
                .column("Location_ID", DataType::Int)
                .column("County", DataType::Varchar),
        );
        db
    }

    #[test]
    fn table_lookup_case_insensitive() {
        let db = demo();
        assert!(db.table("TBL_LOCATIONS").is_some());
        assert!(db.table("tbl_locations").is_some());
        assert!(db.table("nope").is_none());
    }

    #[test]
    fn column_index_case_insensitive() {
        let db = demo();
        let t = db.table("tbl_Locations").unwrap();
        assert_eq!(t.schema.column_index("county"), Some(1));
        assert_eq!(t.schema.column_index("COUNTY"), Some(1));
        assert_eq!(t.schema.column_index("missing"), None);
    }

    #[test]
    fn insert_validates_arity() {
        let mut db = demo();
        assert!(db.insert("tbl_Locations", vec![Value::Int(1)]).is_err());
        assert!(db
            .insert("tbl_Locations", vec![Value::Int(1), Value::from("Shasta")])
            .is_ok());
        assert_eq!(db.table("tbl_Locations").unwrap().row_count(), 1);
        assert!(db.insert("missing", vec![]).is_err());
    }

    #[test]
    fn create_table_replaces() {
        let mut db = demo();
        db.insert("tbl_Locations", vec![Value::Int(1), Value::from("x")]).unwrap();
        db.create_table(TableSchema::new("tbl_Locations").column("a", DataType::Int));
        assert_eq!(db.table("tbl_Locations").unwrap().row_count(), 0);
        assert_eq!(db.table_count(), 1);
    }

    #[test]
    fn views_namespaced_by_schema() {
        let mut db = demo();
        let q = snails_sql::parse_select("SELECT County FROM tbl_Locations").unwrap();
        db.create_view(ViewDef {
            schema: Some("db_nl".into()),
            name: "locations".into(),
            query: q.clone(),
        });
        assert!(db.view(Some("db_nl"), "LOCATIONS").is_some());
        assert!(db.view(None, "locations").is_none());
        assert!(db.view(Some("dbo"), "locations").is_none());
        // Re-creating replaces.
        db.create_view(ViewDef { schema: Some("db_nl".into()), name: "locations".into(), query: q });
        assert_eq!(db.views().count(), 1);
    }

    #[test]
    fn columnar_cache_invalidates_on_mutation() {
        let mut db = demo();
        db.insert("tbl_Locations", vec![Value::Int(1), Value::from("Shasta")]).unwrap();
        let t = db.table("tbl_Locations").unwrap();
        let cols = t.columnar();
        assert_eq!(cols.len, 1);
        assert_eq!(cols.row(0), vec![Value::Int(1), Value::from("Shasta")]);
        // Same Arc on a second call (cache hit).
        assert!(Arc::ptr_eq(&cols, &t.columnar()));
        // Mutation through table_mut rebuilds on next access.
        db.insert("tbl_Locations", vec![Value::Int(2), Value::Null]).unwrap();
        let cols2 = db.table("tbl_Locations").unwrap().columnar();
        assert_eq!(cols2.len, 2);
        assert_eq!(cols2.value(1, 1), Value::Null);
        // Equality ignores the cache.
        let a = db.table("tbl_Locations").unwrap().clone();
        let mut b = a.clone();
        b.columnar.take();
        assert_eq!(a, b);
    }

    #[test]
    fn identifier_names_lists_tables_then_columns() {
        let db = demo();
        assert_eq!(
            db.identifier_names(),
            vec!["tbl_Locations", "Location_ID", "County"]
        );
        assert_eq!(db.column_count(), 2);
    }
}
