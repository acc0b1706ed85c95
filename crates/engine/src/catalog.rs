//! The engine catalog: base tables and view definitions.
//!
//! SQLShare's catalog is flat and per-service ("Sea of Tables", §3):
//! datasets are named, sometimes with an owner prefix, and views are
//! stored as SQL text. Lookups are case-insensitive. The binder resolves
//! `ObjectName`s here and inlines views (view-on-view chains are the
//! paper's provenance hierarchies, Fig. 6).
//!
//! Every relation carries a **generation counter**: any mutation
//! (`add_table`/`set_view`/`remove`) bumps a catalog-wide generation;
//! a created or replaced relation is stamped with it, and a removed one
//! loses its stamp (generation 0 means "absent"). The query cache keys
//! cached plans on the global generation and cached results on the
//! per-object generations of the relations a plan depends on, so
//! invalidation is a version comparison rather than an explicit
//! eviction protocol — a stale entry simply becomes unreachable.

use crate::table::Table;
use sqlshare_common::{Error, Result};
use sqlshare_sql::ast::ObjectName;
use std::borrow::Cow;
use std::collections::HashMap;

/// A stored view definition.
#[derive(Debug, Clone)]
pub struct ViewDef {
    pub name: String,
    /// Canonical SQL text of the defining query.
    pub sql: String,
}

/// Catalog of tables and views.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    views: HashMap<String, ViewDef>,
    /// Registered user-defined functions (name, case-insensitive). UDF
    /// bodies are synthetic in this reproduction; see `BoundExpr::Udf`.
    udfs: HashMap<String, String>,
    /// Per-key mutation generations of the live relations. A removed
    /// key is forgotten (generation 0); the global generation only
    /// increases, so a re-created relation is stamped with a generation
    /// no cached result or preview computed against the old contents
    /// recorded.
    generations: HashMap<String, u64>,
    /// Catalog-wide generation: bumped by every mutation.
    global_gen: u64,
}

/// Resolution result for a name.
pub enum Relation<'a> {
    Table(&'a Table),
    View(&'a ViewDef),
}

/// Canonical (lowercase) catalog key for a relation name, allocating only
/// when the name actually contains uppercase characters. Resolution runs
/// on every table reference of every query, so the common already-lowercase
/// case must not allocate.
fn lower_key(name: &str) -> Cow<'_, str> {
    if name.chars().any(char::is_uppercase) {
        Cow::Owned(name.to_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Canonical catalog key as an owned `String` (for callers that store it).
pub fn canonical_key(name: &str) -> String {
    lower_key(name).into_owned()
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    fn bump(&mut self, key: &str) {
        self.global_gen += 1;
        self.generations.insert(key.to_string(), self.global_gen);
    }

    /// The catalog-wide mutation generation.
    pub fn generation(&self) -> u64 {
        self.global_gen
    }

    /// The generation of one relation, by canonical key; 0 if no such
    /// relation exists.
    pub fn generation_of(&self, key: &str) -> u64 {
        self.generations
            .get(lower_key(key).as_ref())
            .copied()
            .unwrap_or(0)
    }

    /// Register a base table. Fails if any relation already has the name.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        let k = canonical_key(&table.name);
        if self.tables.contains_key(&k) || self.views.contains_key(&k) {
            return Err(Error::Catalog(format!(
                "a dataset named '{}' already exists",
                table.name
            )));
        }
        self.bump(&k);
        self.tables.insert(k, table);
        Ok(())
    }

    /// Register (or replace) a view definition.
    pub fn set_view(&mut self, name: impl Into<String>, sql: impl Into<String>) -> Result<()> {
        let name = name.into();
        let k = canonical_key(&name);
        if self.tables.contains_key(&k) {
            return Err(Error::Catalog(format!(
                "'{name}' is a base table; views cannot shadow tables"
            )));
        }
        self.bump(&k);
        self.views.insert(
            k,
            ViewDef {
                name,
                sql: sql.into(),
            },
        );
        Ok(())
    }

    /// Remove a relation by name; true if something was removed.
    pub fn remove(&mut self, name: &str) -> bool {
        let k = canonical_key(name);
        let removed = self.tables.remove(&k).is_some() | self.views.remove(&k).is_some();
        if removed {
            self.global_gen += 1;
            self.generations.remove(&k);
        }
        removed
    }

    /// Resolve an `ObjectName`, trying the fully-qualified flat form first
    /// and then the base name. Returns the relation together with its
    /// canonical catalog key (what dependency tracking records).
    pub fn resolve_with_key(&self, name: &ObjectName) -> Result<(Relation<'_>, String)> {
        if name.0.len() > 1 {
            let flat = name.flat();
            let k = canonical_key(&flat);
            if let Some(t) = self.tables.get(&k) {
                return Ok((Relation::Table(t), k));
            }
            if let Some(v) = self.views.get(&k) {
                return Ok((Relation::View(v), k));
            }
        }
        // Single-part (or fallback) lookup borrows the name when it is
        // already lowercase; the key is only allocated on a match.
        let base = lower_key(name.base());
        if let Some(t) = self.tables.get(base.as_ref()) {
            return Ok((Relation::Table(t), base.into_owned()));
        }
        if let Some(v) = self.views.get(base.as_ref()) {
            return Ok((Relation::View(v), base.into_owned()));
        }
        Err(Error::Binding(format!("unknown table or view '{name}'")))
    }

    /// Resolve an `ObjectName` (see [`Catalog::resolve_with_key`]).
    pub fn resolve(&self, name: &ObjectName) -> Result<Relation<'_>> {
        self.resolve_with_key(name).map(|(r, _)| r)
    }

    /// Look up a base table by its catalog key.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(lower_key(name).as_ref())
            .ok_or_else(|| Error::Binding(format!("unknown table '{name}'")))
    }

    /// Look up a view by name.
    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        self.views.get(lower_key(name).as_ref())
    }

    /// Register a user-defined function name (synthetic body).
    pub fn register_udf(&mut self, name: impl Into<String>) {
        let name = name.into();
        // UDF bodies are synthetic, but registering one still changes what
        // queries bind to; count it as a catalog-wide mutation.
        self.global_gen += 1;
        self.udfs.insert(canonical_key(&name), name);
    }

    /// Look up a registered UDF, returning its canonical name.
    pub fn udf(&self, name: &str) -> Option<&str> {
        self.udfs
            .get(lower_key(name).as_ref())
            .map(String::as_str)
    }

    /// Iterate registered UDF names (as originally registered).
    pub fn udfs(&self) -> impl Iterator<Item = &str> {
        self.udfs.values().map(String::as_str)
    }

    /// Export the full generation state — the catalog-wide counter plus
    /// every per-key generation, sorted by key. Durable snapshots record
    /// this so crash recovery restores the exact counters the plan and
    /// result caches key on: recovered state and cached state can never
    /// silently diverge.
    pub fn export_generations(&self) -> (u64, Vec<(String, u64)>) {
        let mut gens: Vec<(String, u64)> = self
            .generations
            .iter()
            .map(|(k, g)| (k.clone(), *g))
            .collect();
        gens.sort();
        (self.global_gen, gens)
    }

    /// Restore generation state exported by [`Catalog::export_generations`],
    /// overwriting whatever bumps the restore path produced while
    /// re-registering tables and views. Recovery calls this last. Keys
    /// of relations that do not exist are dropped (state written before
    /// removal forgot keys kept them).
    pub fn import_generations(
        &mut self,
        global: u64,
        gens: impl IntoIterator<Item = (String, u64)>,
    ) {
        self.global_gen = global;
        self.generations = gens
            .into_iter()
            .filter(|(k, _)| self.tables.contains_key(k) || self.views.contains_key(k))
            .collect();
    }

    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// Iterate all base tables.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Iterate all views.
    pub fn views(&self) -> impl Iterator<Item = &ViewDef> {
        self.views.values()
    }

    /// Total estimated stored bytes across base tables.
    pub fn estimated_bytes(&self) -> usize {
        self.tables.values().map(Table::estimated_bytes).sum()
    }

    /// Total column count across base tables (Table 2a's "Columns").
    pub fn total_columns(&self) -> usize {
        self.tables.values().map(|t| t.schema.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn t(name: &str) -> Table {
        Table::new(name, Schema::from_pairs([("x", DataType::Int)]), vec![])
    }

    #[test]
    fn add_and_resolve_case_insensitive() {
        let mut c = Catalog::new();
        c.add_table(t("MyTable")).unwrap();
        assert!(matches!(
            c.resolve(&ObjectName::simple("mytable")).unwrap(),
            Relation::Table(_)
        ));
        assert!(c.table("MYTABLE").is_ok());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Catalog::new();
        c.add_table(t("a")).unwrap();
        assert!(c.add_table(t("A")).is_err());
        c.set_view("v", "SELECT 1").unwrap();
        assert!(c.add_table(t("v")).is_err());
        assert!(c.set_view("a", "SELECT 1").is_err());
    }

    #[test]
    fn views_can_be_replaced() {
        let mut c = Catalog::new();
        c.set_view("v", "SELECT 1").unwrap();
        c.set_view("v", "SELECT 2").unwrap();
        assert_eq!(c.view("V").unwrap().sql, "SELECT 2");
    }

    #[test]
    fn qualified_resolution_prefers_flat_name() {
        let mut c = Catalog::new();
        c.add_table(t("alice.data")).unwrap();
        c.add_table(t("data")).unwrap();
        let n = ObjectName(vec!["alice".into(), "data".into()]);
        match c.resolve(&n).unwrap() {
            Relation::Table(tab) => assert_eq!(tab.name, "alice.data"),
            _ => panic!(),
        }
        // Unqualified falls back to the bare name.
        match c.resolve(&ObjectName::simple("data")).unwrap() {
            Relation::Table(tab) => assert_eq!(tab.name, "data"),
            _ => panic!(),
        }
    }

    #[test]
    fn resolve_with_key_reports_canonical_key() {
        let mut c = Catalog::new();
        c.add_table(t("Alice.Data")).unwrap();
        let n = ObjectName(vec!["ALICE".into(), "DATA".into()]);
        let (_, key) = c.resolve_with_key(&n).unwrap();
        assert_eq!(key, "alice.data");
    }

    #[test]
    fn remove_works() {
        let mut c = Catalog::new();
        c.add_table(t("a")).unwrap();
        assert!(c.remove("A"));
        assert!(!c.remove("a"));
        assert!(c.resolve(&ObjectName::simple("a")).is_err());
    }

    #[test]
    fn generations_bump_on_every_mutation() {
        let mut c = Catalog::new();
        assert_eq!(c.generation(), 0);
        c.add_table(t("a")).unwrap();
        let g_a = c.generation_of("a");
        assert!(g_a > 0);
        c.set_view("v", "SELECT x FROM a").unwrap();
        let g_v = c.generation_of("v");
        assert!(g_v > g_a);
        assert_eq!(c.generation_of("a"), g_a, "untouched keys keep their gen");
        // Replacing a view bumps it again.
        c.set_view("v", "SELECT x + 1 FROM a").unwrap();
        assert!(c.generation_of("v") > g_v);
        // Removal bumps the catalog and forgets the key; re-creating it
        // stamps a generation newer than any it had.
        let g = c.generation();
        c.remove("a");
        assert!(c.generation() > g);
        assert_eq!(c.generation_of("a"), 0);
        c.add_table(t("a")).unwrap();
        assert!(c.generation_of("a") > g);
        // A failed mutation does not bump.
        let g = c.generation();
        assert!(c.add_table(t("v")).is_err());
        assert_eq!(c.generation(), g);
    }

    #[test]
    fn generation_export_import_round_trips() {
        let mut c = Catalog::new();
        c.add_table(t("a")).unwrap();
        c.set_view("v", "SELECT x FROM a").unwrap();
        c.remove("a");
        let (global, gens) = c.export_generations();
        assert_eq!(global, c.generation());
        // A fresh catalog rebuilt in a different order restores exactly.
        let mut r = Catalog::new();
        r.set_view("v", "SELECT x FROM a").unwrap();
        r.import_generations(global, gens.clone());
        assert_eq!(r.generation(), c.generation());
        assert_eq!(r.generation_of("a"), c.generation_of("a"));
        assert_eq!(r.generation_of("v"), c.generation_of("v"));
        assert_eq!(r.export_generations(), (global, gens));
    }

    #[test]
    fn create_drop_cycles_leave_generations_for_live_relations_only() {
        let mut c = Catalog::new();
        c.add_table(t("keep")).unwrap();
        c.set_view("v", "SELECT x FROM keep").unwrap();
        let mut seen = 0;
        for i in 0..1_000 {
            let name = format!("t{}", i % 7);
            c.add_table(t(&name)).unwrap();
            let g = c.generation_of(&name);
            assert!(g > seen, "a re-created table reuses no generation");
            seen = g;
            assert!(c.remove(&name));
        }
        let (_, gens) = c.export_generations();
        assert_eq!(gens.len(), c.table_count() + c.view_count());
        assert_eq!(gens.len(), 2);
        // State that still names dropped relations imports without them.
        let mut r = Catalog::new();
        r.add_table(t("keep")).unwrap();
        r.import_generations(9, [("keep".to_string(), 4), ("gone".to_string(), 7)]);
        assert_eq!(r.export_generations(), (9, vec![("keep".to_string(), 4)]));
    }

    #[test]
    fn counters() {
        let mut c = Catalog::new();
        c.add_table(t("a")).unwrap();
        c.add_table(t("b")).unwrap();
        c.set_view("v", "SELECT 1").unwrap();
        assert_eq!(c.table_count(), 2);
        assert_eq!(c.view_count(), 1);
        assert_eq!(c.total_columns(), 2);
    }
}
