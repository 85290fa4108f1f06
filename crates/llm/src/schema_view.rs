//! The displayed schema: identifiers at the active naturalness variant,
//! and the link index the simulated linker reads.
//!
//! Whether a link succeeds depends on the token classes of the displayed
//! name, and a failed link draws from the names nearest to it
//! ([`crate::linking`]). Both are pure functions of the view, so each view
//! keeps a link index that computes them at most once per displayed name:
//!
//! * the token classes of each displayed table and column name;
//! * for a full view, each displayed name's pool of nearest names of its
//!   kind (tables among tables, columns among columns);
//! * native → displayed lookups (first match in table order, ignoring ASCII
//!   case) and the displayed column count.
//!
//! Everything fills lazily, on first use: the lookups and slots when the
//! view first links a name, then each name's classes and pool in its own
//! [`OnceLock`] slot. Building a view indexes, classifies and measures
//! nothing, so a view that never links (a serve tenant answering only SQL)
//! costs what its tables cost, and one that does pays for the names it
//! links (a grid pass links a few hundred names per view). A name the view
//! does not display (the native fallback for a table the subset stage
//! dropped) is computed on the spot and not cached, so the index never
//! outgrows the names the view shows. A view restricted by
//! [`SchemaView::restricted_to`] shares its parent's tables and index; its
//! candidate set differs, so it ranks distractors by scanning the tables
//! it keeps.

use crate::linking::{nearest_names, token_classes};
use crate::model::TokenClass;
use snails_data::SnailsDatabase;
use snails_naturalness::category::SchemaVariant;
use snails_sql::IdentifierMap;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// One displayed column.
#[derive(Debug, Clone)]
pub struct ViewColumn {
    /// Name as shown in the prompt (variant rendering).
    pub displayed: String,
    /// The underlying native identifier.
    pub native: String,
    /// Declared SQL type name (prompt schema knowledge).
    pub sql_type: &'static str,
}

/// One displayed table.
#[derive(Debug, Clone)]
pub struct ViewTable {
    /// Name as shown in the prompt.
    pub displayed: String,
    /// The underlying native identifier.
    pub native: String,
    /// Displayed columns.
    pub columns: Vec<ViewColumn>,
}

/// The schema as the model sees it: prompt tables only (module-pruned for
/// SBOD), each identifier rendered at the variant level.
///
/// Cloning is cheap and shares the link index, as does
/// [`SchemaView::restricted_to`].
#[derive(Debug, Clone)]
pub struct SchemaView {
    /// Database name.
    pub database: String,
    /// Active variant.
    pub variant: SchemaVariant,
    /// The full view's tables and link index.
    index: Arc<LinkIndex>,
    /// Positions in `index.tables` this view displays, ascending: all of
    /// them for a full view.
    kept: Box<[u32]>,
    /// Total displayed column count (the distraction scale).
    column_count: usize,
}

/// The tables of a full view and what the linker reads about them.
#[derive(Debug)]
struct LinkIndex {
    tables: Vec<ViewTable>,
    /// Built on the first lookup.
    lookups: OnceLock<Lookups>,
}

/// The maps and slots of a [`LinkIndex`].
#[derive(Debug)]
struct Lookups {
    /// Uppercased native table name → position of the first table with it.
    table_by_native: HashMap<String, u32>,
    /// Uppercased native column name → (table, column) position of the
    /// first column with it, in table order.
    column_by_native: HashMap<String, (u32, u32)>,
    /// Distinct displayed table names.
    table_names: Names,
    /// Distinct displayed column names.
    column_names: Names,
}

/// Distinct displayed names of one kind, each with its lazily filled slot.
#[derive(Debug, Default)]
struct Names {
    /// Position of each name in `slots`.
    position: HashMap<String, u32>,
    slots: Vec<Slot>,
}

/// What the linker reads about one displayed name, filled on first use.
#[derive(Debug, Default)]
struct Slot {
    /// The name's token classes, in token order.
    classes: OnceLock<Box<[TokenClass]>>,
    /// The nearest other names of the same kind, nearest first.
    pool: OnceLock<Box<[String]>>,
}

impl Names {
    fn insert(&mut self, name: &str) {
        if !self.position.contains_key(name) {
            self.position.insert(name.to_owned(), self.slots.len() as u32);
            self.slots.push(Slot::default());
        }
    }

    fn slot(&self, name: &str) -> Option<&Slot> {
        self.position.get(name).map(|&i| &self.slots[i as usize])
    }

    /// Every name, in no particular order: the nearest-name ranking does
    /// not depend on the order it is given the names in.
    fn all(&self) -> impl Iterator<Item = &str> {
        self.position.keys().map(String::as_str)
    }
}

impl Lookups {
    fn build(tables: &[ViewTable]) -> Lookups {
        let mut lookups = Lookups {
            table_by_native: HashMap::new(),
            column_by_native: HashMap::new(),
            table_names: Names::default(),
            column_names: Names::default(),
        };
        for (ti, t) in tables.iter().enumerate() {
            let ti = ti as u32;
            lookups.table_by_native.entry(t.native.to_ascii_uppercase()).or_insert(ti);
            lookups.table_names.insert(&t.displayed);
            for (ci, c) in t.columns.iter().enumerate() {
                let at = (ti, ci as u32);
                lookups.column_by_native.entry(c.native.to_ascii_uppercase()).or_insert(at);
                lookups.column_names.insert(&c.displayed);
            }
        }
        lookups
    }
}

/// `native` uppercased, borrowed when it has no lowercase ASCII letter.
fn upper(native: &str) -> Cow<'_, str> {
    if native.bytes().any(|b| b.is_ascii_lowercase()) {
        Cow::Owned(native.to_ascii_uppercase())
    } else {
        Cow::Borrowed(native)
    }
}

impl SchemaView {
    /// Build the displayed schema for a database at a variant. The link
    /// index starts empty: it is built, and names are classified and
    /// ranked, on first use.
    pub fn new(db: &SnailsDatabase, variant: SchemaVariant) -> Self {
        let map = db.crosswalk.native_to_variant(variant);
        let mut tables = Vec::with_capacity(db.prompt_tables.len());
        for table_name in &db.prompt_tables {
            let table = db.db.table(table_name).expect("prompt table exists");
            let columns = table
                .schema
                .columns
                .iter()
                .map(|c| ViewColumn {
                    displayed: map.resolve(&c.name).to_owned(),
                    native: c.name.clone(),
                    sql_type: c.data_type.sql_name(),
                })
                .collect();
            tables.push(ViewTable {
                displayed: map.resolve(table_name).to_owned(),
                native: table_name.clone(),
                columns,
            });
        }
        SchemaView {
            database: db.spec.name.to_owned(),
            variant,
            kept: (0..tables.len() as u32).collect(),
            column_count: tables.iter().map(|t| t.columns.len()).sum(),
            index: Arc::new(LinkIndex { tables, lookups: OnceLock::new() }),
        }
    }

    /// Restrict the view to the given displayed table names (schema
    /// subsetting output), matched ignoring ASCII case. The restricted view
    /// shares this view's tables and link index.
    pub fn restricted_to(&self, displayed_tables: &[String]) -> SchemaView {
        let kept: Box<[u32]> = self
            .kept
            .iter()
            .copied()
            .filter(|&i| {
                let shown = &self.index.tables[i as usize].displayed;
                displayed_tables.iter().any(|d| d.eq_ignore_ascii_case(shown))
            })
            .collect();
        let column_count =
            kept.iter().map(|&i| self.index.tables[i as usize].columns.len()).sum();
        SchemaView {
            database: self.database.clone(),
            variant: self.variant,
            index: Arc::clone(&self.index),
            kept,
            column_count,
        }
    }

    /// The displayed tables, in prompt order.
    pub fn tables(&self) -> impl Iterator<Item = &ViewTable> + '_ {
        self.kept.iter().map(|&i| &self.index.tables[i as usize])
    }

    /// Total displayed column count (the distraction scale).
    pub fn column_count(&self) -> usize {
        self.column_count
    }

    fn lookups(&self) -> &Lookups {
        self.index.lookups.get_or_init(|| Lookups::build(&self.index.tables))
    }

    /// Whether this view displays every table of its full view.
    fn is_full(&self) -> bool {
        self.kept.len() == self.index.tables.len()
    }

    /// Whether this view displays the full view's table at `position`.
    fn keeps(&self, position: u32) -> bool {
        self.is_full() || self.kept.binary_search(&position).is_ok()
    }

    /// Look up a displayed table by native name, ignoring ASCII case: the
    /// first match in table order.
    pub fn table_by_native(&self, native: &str) -> Option<&ViewTable> {
        let first = *self.lookups().table_by_native.get(upper(native).as_ref())?;
        if self.keeps(first) {
            return Some(&self.index.tables[first as usize]);
        }
        // The full view's first match was dropped; a later one may be kept.
        self.tables().find(|t| t.native.eq_ignore_ascii_case(native))
    }

    /// Look up the displayed name of a native column (searching all tables
    /// in order, ignoring ASCII case).
    pub fn column_by_native(&self, native: &str) -> Option<&ViewColumn> {
        let (table, column) = *self.lookups().column_by_native.get(upper(native).as_ref())?;
        if self.keeps(table) {
            return Some(&self.index.tables[table as usize].columns[column as usize]);
        }
        self.tables()
            .flat_map(|t| &t.columns)
            .find(|c| c.native.eq_ignore_ascii_case(native))
    }

    /// The displayed names of one kind.
    fn names(&self, is_table: bool) -> &Names {
        let lookups = self.lookups();
        if is_table {
            &lookups.table_names
        } else {
            &lookups.column_names
        }
    }

    /// The token classes of `name`, in token order: from the link index
    /// when the full view displays `name` as a table (`is_table`) or
    /// column name, else classified on the spot.
    pub(crate) fn token_classes(&self, name: &str, is_table: bool) -> Cow<'_, [TokenClass]> {
        match self.names(is_table).slot(name) {
            Some(slot) => Cow::Borrowed(slot.classes.get_or_init(|| token_classes(name).into())),
            None => Cow::Owned(token_classes(name)),
        }
    }

    /// The pool a failed link of `name` draws its distractor from: the
    /// displayed names of its kind nearest to it, nearest first
    /// ([`crate::linking`] ranks them). A full view ranks each name it
    /// displays once; a restricted view, or a name the view does not
    /// display, scans the displayed names.
    pub(crate) fn distractors(&self, name: &str, is_table: bool) -> Cow<'_, [String]> {
        let names = self.names(is_table);
        if self.is_full() {
            if let Some(slot) = names.slot(name) {
                return Cow::Borrowed(slot.pool.get_or_init(|| {
                    let nearest = nearest_names(names.all(), name);
                    nearest.into_iter().map(|(_, n)| n.to_owned()).collect()
                }));
            }
        }
        let nearest = if is_table {
            nearest_names(self.tables().map(|t| t.displayed.as_str()), name)
        } else {
            let columns = self.tables().flat_map(|t| &t.columns);
            nearest_names(columns.map(|c| c.displayed.as_str()), name)
        };
        Cow::Owned(nearest.into_iter().map(|(_, n)| n.to_owned()).collect())
    }

    /// The displayed → native identifier map for query denaturalization.
    pub fn displayed_to_native(&self) -> IdentifierMap {
        let mut map = IdentifierMap::new();
        for t in self.tables() {
            map.insert(&t.displayed, &t.native);
            for c in &t.columns {
                map.insert(&c.displayed, &c.native);
            }
        }
        map
    }

    /// How many class entries and distractor pools the link index holds;
    /// `None` before the index is built.
    #[cfg(test)]
    pub(crate) fn filled(&self) -> Option<(usize, usize)> {
        let lookups = self.index.lookups.get()?;
        let slots = lookups.table_names.slots.iter().chain(&lookups.column_names.slots);
        Some(slots.fold((0, 0), |(c, p), s| {
            (c + usize::from(s.classes.get().is_some()), p + usize::from(s.pool.get().is_some()))
        }))
    }

    /// How many distinct table and column names the full view displays.
    #[cfg(test)]
    pub(crate) fn distinct_names(&self) -> usize {
        let lookups = self.lookups();
        lookups.table_names.slots.len() + lookups.column_names.slots.len()
    }
}

/// Render the zero-shot prompt of appendix D.1: task instructions, `#Table
/// (Col type, ...)` schema knowledge lines, and the NL question.
pub fn build_prompt(view: &SchemaView, question: &str) -> String {
    let mut prompt = String::with_capacity(4096);
    prompt.push_str(
        "For the database described next, provide only a sql query. \
         do not include any text that is not valid SQL.\n",
    );
    prompt.push_str(&format!("#Database: {}\n", view.database));
    prompt.push_str("#MS SQL Server tables, with their properties:\n");
    for t in view.tables() {
        prompt.push('#');
        prompt.push_str(&t.displayed);
        prompt.push_str(" (");
        for (i, c) in t.columns.iter().enumerate() {
            if i > 0 {
                prompt.push_str(", ");
            }
            prompt.push_str(&c.displayed);
            prompt.push(' ');
            prompt.push_str(c.sql_type);
        }
        prompt.push_str(")\n");
    }
    prompt.push_str(
        "### a sql query, written in the MS SQL Server dialect, to answer the question: ",
    );
    prompt.push_str(question);
    prompt.push('\n');
    prompt
}

#[cfg(test)]
mod tests {
    use super::*;
    use snails_data::build_database;
    use std::collections::BTreeSet;

    #[test]
    fn native_view_shows_native_names() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Native);
        for t in view.tables() {
            assert_eq!(t.displayed, t.native);
            for c in &t.columns {
                assert_eq!(c.displayed, c.native);
            }
        }
        assert_eq!(view.tables().count(), 13);
        assert_eq!(view.column_count(), 71);
    }

    #[test]
    fn regular_view_is_snake_case_words() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Regular);
        // Regular renderings are snake_case full words; spot-check that the
        // displayed names differ from any Least-style skeletons.
        let mut changed = 0;
        for t in view.tables() {
            if t.displayed != t.native {
                changed += 1;
            }
        }
        assert!(changed > 0, "Regular view identical to native");
    }

    #[test]
    fn displayed_to_native_round_trips() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Least);
        let map = view.displayed_to_native();
        for t in view.tables() {
            assert_eq!(map.get(&t.displayed), Some(t.native.as_str()));
        }
    }

    #[test]
    fn prompt_format_matches_appendix_d1() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Native);
        let prompt = build_prompt(&view, "How many sightings were recorded?");
        assert!(prompt.starts_with("For the database described next"));
        assert!(prompt.contains("#Database: CWO"));
        assert!(prompt.contains("#MS SQL Server tables"));
        assert!(prompt.contains("MS SQL Server dialect"));
        assert!(prompt.ends_with("How many sightings were recorded?\n"));
        // Every prompt table appears as a `#Name (` line.
        for t in view.tables() {
            assert!(prompt.contains(&format!("#{} (", t.displayed)), "{}", t.displayed);
        }
    }

    #[test]
    fn restriction_filters_tables() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Native);
        let keep = vec![view.tables().next().unwrap().displayed.clone()];
        let small = view.restricted_to(&keep);
        let kept: Vec<&ViewTable> = small.tables().collect();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].displayed, keep[0]);
    }

    #[test]
    fn sbod_prompt_is_module_pruned() {
        let db = build_database("SBOD");
        let view = SchemaView::new(&db, SchemaVariant::Native);
        assert_eq!(view.tables().count(), snails_data::databases::SBOD_PROMPT_TABLES);
        assert!(view.column_count() < 4000);
    }

    /// The native lookups answer what a scan in table order answers,
    /// ignoring ASCII case, on full and restricted views.
    #[test]
    fn native_lookups_match_a_scan_in_table_order() {
        let same = |a: Option<&ViewColumn>, b: Option<&ViewColumn>| {
            a.map(|c| c as *const ViewColumn) == b.map(|c| c as *const ViewColumn)
        };
        let (mut checked, mut later_matches) = (0, 0);
        for name in snails_data::DATABASE_NAMES {
            let db = build_database(name);
            let view = SchemaView::new(&db, SchemaVariant::Least);
            let odd: Vec<String> =
                view.tables().skip(1).step_by(2).map(|t| t.displayed.clone()).collect();
            let restricted = view.restricted_to(&odd);
            let tables: BTreeSet<&str> = view.tables().map(|t| t.native.as_str()).collect();
            let columns: BTreeSet<&str> =
                view.tables().flat_map(|t| &t.columns).map(|c| c.native.as_str()).collect();
            for v in [&view, &restricted] {
                for native in tables.iter().flat_map(|n| [n.to_string(), n.to_ascii_lowercase()]) {
                    let scan = v.tables().find(|t| t.native.eq_ignore_ascii_case(&native));
                    let found = v.table_by_native(&native);
                    assert_eq!(
                        found.map(|t| t as *const ViewTable),
                        scan.map(|t| t as *const ViewTable),
                        "{name} table {native}"
                    );
                    checked += 1;
                }
                for native in columns.iter().flat_map(|n| [n.to_string(), n.to_ascii_lowercase()]) {
                    let scan = v
                        .tables()
                        .flat_map(|t| &t.columns)
                        .find(|c| c.native.eq_ignore_ascii_case(&native));
                    let found = v.column_by_native(&native);
                    assert!(same(found, scan), "{name} column {native}");
                    // The full view's first match was dropped, a later one kept.
                    later_matches +=
                        usize::from(found.is_some() && !same(found, view.column_by_native(&native)));
                    checked += 1;
                }
            }
            assert!(view.table_by_native("no_such_table").is_none());
            assert!(restricted.column_by_native("no_such_column").is_none());
        }
        assert!(checked > 0 && later_matches > 0, "{checked} lookups, {later_matches} later");
    }

    #[test]
    fn lookup_by_native() {
        let db = build_database("CWO");
        let view = SchemaView::new(&db, SchemaVariant::Least);
        let event = db.core.native(snails_data::core_schema::CoreRole::EventTable);
        let t = view.table_by_native(&event).expect("event table in view");
        assert_eq!(t.native, event);
        assert!(view.table_by_native("no_such_table").is_none());
    }
}
