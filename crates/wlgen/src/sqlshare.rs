//! The SQLShare behavioural corpus generator.
//!
//! Users are sampled from the paper's Fig. 13 personas and act them out
//! on a simulated 2011–2015 timeline against a real [`SqlShare`] service:
//!
//! * **one-shot** users upload one dataset, poke at it, and never return;
//! * **exploratory** users interleave uploads and queries for months
//!   (queries ≈ datasets, short lifetimes, cleaning views);
//! * **analytical** users upload a working set early and query it for
//!   years (deep view chains, templates re-run with new constants);
//! * **pipeline** users run periodic upload → process → download →
//!   delete loops (the "daily workflow" §4 reports).
//!
//! Sharing behaviour targets §5.2 (37% public, 9% shared, ~10% of queries
//! over foreign data); query grammars target §5.3 and Table 4 (sorting,
//! top-k, outer joins, window functions, string munging); upload
//! dirtiness targets §3.1/§5.1.

use crate::tables::{generate_csv, Dirtiness};
use crate::text::{dataset_name, zipfish};
use crate::GeneratorConfig;
use rand::rngs::StdRng;
use rand::Rng;
use sqlshare_core::{DatasetName, Metadata, SqlShare, Visibility};
use sqlshare_engine::DataType;
use sqlshare_ingest::IngestOptions;
use sqlshare_sql::rewrite::AppendMode;

/// A generated corpus: the live service plus generation statistics.
pub struct GeneratedCorpus {
    pub service: SqlShare,
    pub stats: GenStats,
}

/// What the generator did (ground truth for sanity checks).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GenStats {
    pub users: usize,
    pub uploads: usize,
    pub views_created: usize,
    pub queries_attempted: usize,
    pub queries_failed: usize,
    pub deletions: usize,
    pub appends: usize,
    pub snapshots: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Persona {
    OneShot,
    Exploratory,
    Analytical,
    Pipeline,
}

/// A live dataset the generator knows how to query.
#[derive(Debug, Clone)]
struct DsInfo {
    name: DatasetName,
    columns: Vec<(String, DataType)>,
    public: bool,
}

struct UserState {
    name: String,
    persona: Persona,
    datasets: Vec<DsInfo>,
    views: Vec<DsInfo>,
    serial: usize,
    /// Pipeline users re-run the same SQL shapes every cycle.
    pipeline_recipe: Vec<usize>,
}

/// One scheduled event.
struct Event {
    day: i32,
    user: usize,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// A work session: uploads, views, queries per persona.
    Session,
}

/// Deployment length in days (2011-01 .. 2015-05).
const TIMELINE_DAYS: i32 = 1600;

/// Generate a full SQLShare corpus.
pub fn generate(config: &GeneratorConfig) -> GeneratedCorpus {
    let mut rng = config.rng();
    let mut service = config.service();
    let mut stats = GenStats::default();
    for udf in SQLSHARE_UDFS {
        service.register_udf(udf);
    }

    // --- users ----------------------------------------------------------
    let n_users = config.scaled(591, 8);
    let mut users: Vec<UserState> = Vec::with_capacity(n_users);
    for i in 0..n_users {
        let persona = match rng.random::<f64>() {
            x if x < 0.44 => Persona::OneShot,
            x if x < 0.82 => Persona::Exploratory,
            x if x < 0.92 => Persona::Analytical,
            _ => Persona::Pipeline,
        };
        let name = format!("user{i:04}");
        let email = if rng.random_bool(0.44) {
            format!("{name}@uw.edu")
        } else {
            format!("{name}@example.org")
        };
        service.register_user(&name, &email).expect("fresh user");
        let recipe = (0..rng.random_range(3..7))
            .map(|_| rng.random_range(0..PIPELINE_SHAPES))
            .collect();
        users.push(UserState {
            name,
            persona,
            datasets: Vec::new(),
            views: Vec::new(),
            serial: 0,
            pipeline_recipe: recipe,
        });
    }
    stats.users = n_users;

    // --- schedule ---------------------------------------------------------
    let mut events: Vec<Event> = Vec::new();
    for (ui, user) in users.iter().enumerate() {
        let arrival = rng.random_range(0..TIMELINE_DAYS * 3 / 4);
        match user.persona {
            Persona::OneShot => {
                events.push(Event {
                    day: arrival,
                    user: ui,
                    kind: EventKind::Session,
                });
            }
            Persona::Exploratory => {
                let episodes = rng.random_range(4..21);
                let mut day = arrival;
                for _ in 0..episodes {
                    events.push(Event {
                        day,
                        user: ui,
                        kind: EventKind::Session,
                    });
                    day += rng.random_range(3..70);
                    if day >= TIMELINE_DAYS {
                        break;
                    }
                }
            }
            Persona::Analytical => {
                let sessions = rng.random_range(15..61);
                let mut day = arrival;
                for _ in 0..sessions {
                    events.push(Event {
                        day,
                        user: ui,
                        kind: EventKind::Session,
                    });
                    day += rng.random_range(2..32);
                    if day >= TIMELINE_DAYS {
                        break;
                    }
                }
            }
            Persona::Pipeline => {
                let cycles = rng.random_range(20..61);
                let period = rng.random_range(1..15);
                let mut day = arrival;
                for _ in 0..cycles {
                    events.push(Event {
                        day,
                        user: ui,
                        kind: EventKind::Session,
                    });
                    day += period;
                    if day >= TIMELINE_DAYS {
                        break;
                    }
                }
            }
        }
    }
    events.sort_by_key(|e| e.day);

    // --- play the timeline ------------------------------------------------
    let mut public_pool: Vec<DsInfo> = Vec::new();
    let mut current_day = 0i32;
    for event in events {
        if event.day > current_day {
            service.advance_days(event.day - current_day);
            current_day = event.day;
        }
        let EventKind::Session = event.kind;
        run_session(
            &mut service,
            &mut users[event.user],
            &mut public_pool,
            &mut rng,
            &mut stats,
        );
    }

    GeneratedCorpus { service, stats }
}

/// Number of pipeline query shapes (indexes into `pipeline_query`).
const PIPELINE_SHAPES: usize = 4;

fn run_session(
    service: &mut SqlShare,
    user: &mut UserState,
    public_pool: &mut Vec<DsInfo>,
    rng: &mut StdRng,
    stats: &mut GenStats,
) {
    match user.persona {
        Persona::OneShot => {
            upload_one(service, user, public_pool, rng, stats, 8, 60);
            let n = rng.random_range(1..9);
            for _ in 0..n {
                if let Some(ds) = pick_own(user, rng) {
                    run(service, user, &simple_query(rng, &ds), rng, stats);
                }
            }
            if rng.random_bool(0.25) {
                create_view(service, user, public_pool, rng, stats);
            }
        }
        Persona::Exploratory => {
            // Interleave uploads with analysis: ~0.8 uploads per episode.
            if rng.random_bool(0.8) || user.datasets.is_empty() {
                let width = if rng.random_bool(0.08) {
                    rng.random_range(25..60) // occasional very wide table
                } else {
                    rng.random_range(3..14)
                };
                upload_one(service, user, public_pool, rng, stats, width, 120);
            }
            // Some files get uploaded "for later" and barely touched — a
            // third of real tables were only ever accessed once (Fig. 4).
            if rng.random_bool(0.35) {
                let width = rng.random_range(3..10);
                upload_one(service, user, public_pool, rng, stats, width, 60);
                if rng.random_bool(0.6) {
                    if let Some(ds) = user.datasets.last().cloned() {
                        run(service, user, &simple_query(rng, &ds), rng, stats);
                    }
                }
            }
            if rng.random_bool(0.55) {
                create_view(service, user, public_pool, rng, stats);
            }
            let n = rng.random_range(2..6);
            for _ in 0..n {
                exploratory_query(service, user, public_pool, rng, stats);
            }
            // Occasional cleanup of an old dataset.
            if rng.random_bool(0.06) && user.datasets.len() > 2 {
                delete_random(service, user, rng, stats);
            }
        }
        Persona::Analytical => {
            // Build the working set early, then mostly query it.
            if user.datasets.len() < 30 && rng.random_bool(0.6) {
                let width = rng.random_range(4..20);
                upload_one(service, user, public_pool, rng, stats, width, 250);
            }
            if rng.random_bool(0.45) {
                create_view(service, user, public_pool, rng, stats);
            }
            let n = rng.random_range(3..8);
            for _ in 0..n {
                analytical_query(service, user, public_pool, rng, stats);
            }
            if rng.random_bool(0.04) && !user.views.is_empty() {
                // Snapshot a stable result for a paper (§3.2).
                let src = user.views[rng.random_range(0..user.views.len())].name.clone();
                let snap = format!("snap_{}_{}", user.serial, user.name);
                user.serial += 1;
                if service.materialize(&user.name, &src, &snap).is_ok() {
                    stats.snapshots += 1;
                }
            }
        }
        Persona::Pipeline => {
            // upload -> process with the same queries -> sometimes delete.
            let width = rng.random_range(4..10);
            upload_one(service, user, public_pool, rng, stats, width, 150);
            if let Some(ds) = user.datasets.last().cloned() {
                let recipe = user.pipeline_recipe.clone();
                for shape in recipe {
                    let sql = pipeline_query(shape, &ds);
                    run(service, user, &sql, rng, stats);
                }
                // Occasionally append instead of keeping separate files.
                if rng.random_bool(0.05) && user.datasets.len() >= 2 {
                    let target = user.datasets[user.datasets.len() - 2].name.clone();
                    if service
                        .append(&user.name, &target, &ds.name, AppendMode::UnionAll)
                        .is_ok()
                    {
                        stats.appends += 1;
                    }
                }
                if rng.random_bool(0.7) {
                    let idx = user.datasets.len() - 1;
                    let name = user.datasets[idx].name.clone();
                    if service.delete_dataset(&user.name, &name).is_ok() {
                        stats.deletions += 1;
                        user.datasets.remove(idx);
                        public_pool.retain(|d| d.name != name);
                    }
                }
            }
        }
    }
    // Cross-pollination: query someone else's public data (§5.2: >10% of
    // queries touch non-owned datasets).
    if rng.random_bool(0.5) && !public_pool.is_empty() {
        let foreign = public_pool[rng.random_range(0..public_pool.len())].clone();
        if !foreign.name.owner.eq_ignore_ascii_case(&user.name) {
            run(service, user, &simple_query(rng, &foreign), rng, stats);
        }
    }
    // Rare malformed query (typos happen in hand-written SQL).
    if rng.random_bool(0.015) {
        run(service, user, "SELEC * FORM typo", rng, stats);
    }
}

fn upload_one(
    service: &mut SqlShare,
    user: &mut UserState,
    public_pool: &mut Vec<DsInfo>,
    rng: &mut StdRng,
    stats: &mut GenStats,
    width: usize,
    max_rows: usize,
) {
    let rows = rng.random_range(12..max_rows.max(13));
    let table = generate_csv(rng, width, rows, &Dirtiness::default());
    let name = dataset_name(rng, user.serial);
    user.serial += 1;
    match service.upload(&user.name, &name, &table.content, &IngestOptions::default()) {
        Ok((dataset_name, _report)) => {
            stats.uploads += 1;
            let columns = actual_columns(service, &dataset_name);
            let mut info = DsInfo {
                name: dataset_name.clone(),
                columns,
                public: false,
            };
            // §5.2 sharing rates.
            let roll: f64 = rng.random();
            if roll < 0.37 {
                let _ = service.set_visibility(&user.name, &dataset_name, Visibility::Public);
                info.public = true;
                public_pool.push(info.clone());
            } else if roll < 0.46 {
                let other = format!("user{:04}", rng.random_range(0..stats.users.max(1)));
                let _ = service.set_visibility(
                    &user.name,
                    &dataset_name,
                    Visibility::Shared(vec![other]),
                );
            }
            user.datasets.push(info);
        }
        Err(_) => {
            // Name collision or quota: skip silently; rare.
        }
    }
}

/// Read the post-ingest schema (the generator's source of truth).
fn actual_columns(service: &SqlShare, name: &DatasetName) -> Vec<(String, DataType)> {
    service
        .dataset(name)
        .and_then(|d| d.preview.as_ref())
        .map(|p| {
            p.schema
                .columns
                .iter()
                .map(|c| (c.name.clone(), c.ty))
                .collect()
        })
        .unwrap_or_default()
}

/// Pick one of the user's *uploaded* datasets (base tables join best).
fn pick_upload(user: &UserState, rng: &mut StdRng) -> Option<DsInfo> {
    if user.datasets.is_empty() {
        return None;
    }
    let rank = zipfish(rng, user.datasets.len(), 2.0);
    Some(user.datasets[user.datasets.len() - rank].clone())
}

fn pick_own(user: &UserState, rng: &mut StdRng) -> Option<DsInfo> {
    let pool_len = user.datasets.len() + user.views.len();
    if pool_len == 0 {
        return None;
    }
    // Zipf over recency: later datasets are hotter.
    let rank = zipfish(rng, pool_len, 2.0);
    let idx = pool_len - rank;
    Some(if idx < user.datasets.len() {
        user.datasets[idx].clone()
    } else {
        user.views[idx - user.datasets.len()].clone()
    })
}

fn run(
    service: &mut SqlShare,
    user: &UserState,
    sql: &str,
    _rng: &mut StdRng,
    stats: &mut GenStats,
) {
    stats.queries_attempted += 1;
    if service.run_query(&user.name, sql).is_err() {
        stats.queries_failed += 1;
    }
}

fn create_view(
    service: &mut SqlShare,
    user: &mut UserState,
    public_pool: &mut Vec<DsInfo>,
    rng: &mut StdRng,
    stats: &mut GenStats,
) {
    // 5% of views derive from someone else's public data (§5.2: 2.5% of
    // views reference other owners; not all attempts succeed).
    let base = if rng.random_bool(0.05) && !public_pool.is_empty() {
        public_pool[rng.random_range(0..public_pool.len())].clone()
    } else {
        // Deep chains: analytical users mostly derive from their own
        // latest view, growing provenance hierarchies (Fig. 6).
        let chain = user.persona == Persona::Analytical && rng.random_bool(0.45);
        if chain && !user.views.is_empty() {
            // Mostly branch off a recent view (breadth); occasionally
            // extend the newest chain (depth) — Fig. 6 shows most users
            // plateau at depth 1-3 with an 8+ tail.
            if rng.random_bool(0.35) {
                user.views[user.views.len() - 1].clone()
            } else {
                let back = rng.random_range(0..user.views.len().min(6));
                user.views[user.views.len() - 1 - back].clone()
            }
        } else {
            match pick_own(user, rng) {
                Some(d) => d,
                None => return,
            }
        }
    };
    if base.columns.is_empty() {
        return;
    }
    let sql = view_definition(rng, &base, user);
    let view_name = format!("v_{}_{}", user.serial, short_stem(&base.name.name));
    user.serial += 1;
    let metadata = Metadata {
        description: format!("derived from {}", base.name),
        tags: vec!["derived".to_string()],
    };
    if let Ok(name) = service.save_dataset(&user.name, &view_name, &sql, metadata) {
        {
            stats.views_created += 1;
            let columns = actual_columns(service, &name);
            let mut info = DsInfo {
                name: name.clone(),
                columns,
                public: false,
            };
            let roll: f64 = rng.random();
            if roll < 0.37 {
                let _ = service.set_visibility(&user.name, &name, Visibility::Public);
                info.public = true;
                public_pool.push(info.clone());
            } else if roll < 0.46 {
                let other = format!("user{:04}", rng.random_range(0..stats.users.max(1)));
                let _ =
                    service.set_visibility(&user.name, &name, Visibility::Shared(vec![other]));
            }
            user.views.push(info);
        }
    }
}

fn short_stem(name: &str) -> String {
    name.chars().take(12).filter(|c| *c != '.').collect()
}

// ---- query grammars -----------------------------------------------------

fn cols_of_type(ds: &DsInfo, ty: DataType) -> Vec<&str> {
    ds.columns
        .iter()
        .filter(|(_, t)| *t == ty)
        .map(|(n, _)| n.as_str())
        .collect()
}

fn any_numeric(ds: &DsInfo) -> Vec<&str> {
    ds.columns
        .iter()
        .filter(|(_, t)| matches!(t, DataType::Int | DataType::Float))
        .map(|(n, _)| n.as_str())
        .collect()
}

fn ident(name: &str) -> String {
    sqlshare_sql::ast::render_ident(name)
}

fn table_ref(ds: &DsInfo) -> String {
    ds.name.sql_ref()
}

fn random_predicate(rng: &mut StdRng, ds: &DsInfo) -> Option<String> {
    let numeric = any_numeric(ds);
    let texts = cols_of_type(ds, DataType::Text);
    // Bias toward the leading column: analysts filter on the key they
    // uploaded first (and it is the clustered-index column, so this also
    // exercises seeks as SQL Server would).
    let pick_numeric = |rng: &mut StdRng, numeric: &[&str]| -> String {
        if rng.random_bool(0.7) {
            ds.columns.first().map(|(n, _)| n.clone()).unwrap_or_default()
        } else {
            numeric[rng.random_range(0..numeric.len())].to_string()
        }
    };
    match rng.random_range(0..6) {
        0 | 1 if !numeric.is_empty() => {
            let col = pick_numeric(rng, &numeric);
            let op = [">", "<", ">=", "<=", "=", "<>"][rng.random_range(0..6)];
            Some(format!("{} {op} {}", ident(&col), rng.random_range(0..150)))
        }
        2 | 5 if !texts.is_empty() => {
            let col = texts[rng.random_range(0..texts.len())];
            let pat = ["'a%'", "'%o%'", "'%ed'", "'b%'", "'%us'"][rng.random_range(0..5)];
            Some(format!("{} LIKE {pat}", ident(col)))
        }
        3 if !numeric.is_empty() => {
            let col = pick_numeric(rng, &numeric);
            let lo = rng.random_range(0..80);
            Some(format!(
                "{} BETWEEN {lo} AND {}",
                ident(&col),
                lo + rng.random_range(5..60)
            ))
        }
        _ if !numeric.is_empty() => {
            let col = numeric[rng.random_range(0..numeric.len())];
            Some(format!("{} IS NOT NULL AND {} <> -999", ident(col), ident(col)))
        }
        _ => None,
    }
}

/// 1-3 AND-ed predicates (hand-written WHERE clauses are rarely single),
/// usually led by a selective condition on the key (leading) column.
fn compound_predicate(rng: &mut StdRng, ds: &DsInfo) -> Option<String> {
    let mut parts: Vec<String> = Vec::new();
    if rng.random_bool(0.55) {
        if let Some(p) = key_predicate(rng, ds) {
            parts.push(p);
        }
    }
    // Text columns attract LIKE filters (Table 4a: `like` dominates).
    if rng.random_bool(0.45) {
        let texts = cols_of_type(ds, DataType::Text);
        if let Some(col) = texts.first() {
            let pat = ["'a%'", "'%o%'", "'%ed'", "'b%'", "'%us'"]
                [rng.random_range(0..5)];
            parts.push(format!("{} LIKE {pat}", ident(col)));
        }
    }
    let n = [0, 1, 1, 2][rng.random_range(0..4)];
    parts.extend((0..n).filter_map(|_| random_predicate(rng, ds)));
    if parts.is_empty() {
        return random_predicate(rng, ds);
    }
    Some(parts.join(" AND "))
}

/// A sargable predicate on the leading (clustered-key) column.
fn key_predicate(rng: &mut StdRng, ds: &DsInfo) -> Option<String> {
    let (key, _) = ds.columns.first()?;
    Some(if rng.random_bool(0.5) {
        format!("{} = {}", ident(key), rng.random_range(0..150))
    } else {
        let lo = rng.random_range(0..100);
        format!(
            "{} BETWEEN {lo} AND {}",
            ident(key),
            lo + rng.random_range(10..80)
        )
    })
}

/// The bread-and-butter short query (Fig. 7's <100-char mass).
fn simple_query(rng: &mut StdRng, ds: &DsInfo) -> String {
    let projection = if rng.random_bool(0.45) && ds.columns.len() > 2 {
        let n = rng.random_range(2..=ds.columns.len().min(7));
        ds.columns[..n]
            .iter()
            .map(|(c, _)| ident(c))
            .collect::<Vec<_>>()
            .join(", ")
    } else {
        "*".to_string()
    };
    let mut sql = format!("SELECT {projection} FROM {}", table_ref(ds));
    if rng.random_bool(0.72) {
        if let Some(p) = compound_predicate(rng, ds) {
            sql.push_str(&format!(" WHERE {p}"));
        }
    }
    if rng.random_bool(0.12) {
        if let Some((c, _)) = ds.columns.first() {
            sql.push_str(&format!(" ORDER BY {}", ident(c)));
        }
    }
    sql
}

/// Inline cleaning (§5.1 idioms used directly in queries, not just views).
fn cleaning_select(rng: &mut StdRng, ds: &DsInfo) -> String {
    let texts = cols_of_type(ds, DataType::Text);
    let Some(c) = texts.first() else {
        return simple_query(rng, ds);
    };
    format!(
        "SELECT {c2}, CASE WHEN {c2} = 'NA' THEN NULL WHEN {c2} = '-999' THEN NULL          ELSE {c2} END AS cleaned, TRY_CAST({c2} AS FLOAT) AS as_number          FROM {t} WHERE ISNUMERIC({c2}) = 1 OR {c2} LIKE '%[a-z]%'",
        c2 = ident(c),
        t = table_ref(ds)
    )
}

/// Arithmetic transforms (unit conversions and derived quantities drive
/// Table 4a's ADD/DIV/SUB/MULT counts).
fn arithmetic_query(rng: &mut StdRng, ds: &DsInfo) -> String {
    let numeric = cols_of_type(ds, DataType::Float);
    if numeric.len() < 2 {
        return simple_query(rng, ds);
    }
    let a = ident(numeric[0]);
    let b = ident(numeric[1 % numeric.len()]);
    match rng.random_range(0..4) {
        0 => format!(
            "SELECT {a} - {b} AS delta, ({a} + {b}) / 2 AS mean_v, {a} * 1000 AS milli              FROM {t} WHERE {a} IS NOT NULL",
            t = table_ref(ds)
        ),
        1 => format!(
            "SELECT {a} / NULLIF({b}, 0) AS ratio, SQUARE({a} - {b}) AS sq_err              FROM {t}",
            t = table_ref(ds)
        ),
        2 => format!(
            "SELECT ROUND({a} * 9 / 5 + 32, 2) AS fahrenheit, {b} - 273 AS centi              FROM {t} WHERE {a} > {}",
            rng.random_range(0..50),
            t = table_ref(ds)
        ),
        _ => format!(
            "SELECT ABS({a} - {b}) AS dist, SQRT(SQUARE({a}) + SQUARE({b})) AS norm              FROM {t}",
            t = table_ref(ds)
        ),
    }
}

/// A very long hand-written query: scientists paste literal ID lists
/// (hundreds of sample ids) or filter dozens of columns, producing the
/// >1000-character tail of Fig. 7.
fn long_query(rng: &mut StdRng, ds: &DsInfo) -> String {
    if ds.columns.len() >= 25 {
        return wide_filter_query(ds);
    }
    let key = ds
        .columns
        .first()
        .map(|(n, _)| ident(n))
        .unwrap_or_else(|| "1".to_string());
    let n_ids = rng.random_range(60..260);
    let ids: Vec<String> = (0..n_ids)
        .map(|_| rng.random_range(0..100_000).to_string())
        .collect();
    format!(
        "SELECT * FROM {} WHERE {key} IN ({})",
        table_ref(ds),
        ids.join(", ")
    )
}

/// A three-way integration join (drives the paper's 2.31 mean tables
/// accessed per query).
fn three_way_join(rng: &mut StdRng, a: &DsInfo, b: &DsInfo, c: &DsInfo) -> String {
    let ka = a.columns.first().map(|(n, _)| ident(n)).unwrap_or_default();
    let kb = b.columns.first().map(|(n, _)| ident(n)).unwrap_or_default();
    let kc = c.columns.first().map(|(n, _)| ident(n)).unwrap_or_default();
    let mut sql = format!(
        "SELECT x.*, y.{kb}, z.{kc} FROM {ta} AS x \
         JOIN {tb} AS y ON x.{ka} = y.{kb} \
         JOIN {tc} AS z ON y.{kb} = z.{kc}",
        ta = table_ref(a),
        tb = table_ref(b),
        tc = table_ref(c),
    );
    if rng.random_bool(0.4) {
        if let Some(p) = key_predicate(rng, a) {
            sql.push_str(&format!(" WHERE x.{p}"));
        }
    }
    sql
}

/// A kitchen-sink analytical query: join + aggregate + having + top +
/// order (drives Fig. 8's >=8-distinct-operator tail).
fn complex_query(rng: &mut StdRng, a: &DsInfo, b: &DsInfo) -> String {
    let ka = a.columns.first().map(|(n, _)| ident(n)).unwrap_or_default();
    let kb = b.columns.first().map(|(n, _)| ident(n)).unwrap_or_default();
    let va = cols_of_type(a, DataType::Float)
        .first()
        .map(|c| ident(c))
        .unwrap_or_else(|| ka.clone());
    format!(
        "SELECT TOP {} x.{ka}, COUNT(*) AS n, AVG(x.{va}) AS mean_v,          MAX(x.{va}) - MIN(x.{va}) AS spread          FROM {ta} AS x LEFT JOIN {tb} AS y ON x.{ka} = y.{kb}          WHERE x.{va} IS NOT NULL AND x.{va} <> -999          GROUP BY x.{ka} HAVING COUNT(*) >= {}          ORDER BY mean_v DESC",
        [10, 20, 50][rng.random_range(0..3)],
        rng.random_range(1..4),
        ta = table_ref(a),
        tb = table_ref(b),
    )
}

fn sorted_query(rng: &mut StdRng, ds: &DsInfo) -> String {
    let cols = project_list(rng, ds, 4);
    let order = &ds.columns[rng.random_range(0..ds.columns.len())].0;
    let top = if rng.random_bool(0.06) {
        format!("TOP {} ", [5, 10, 20, 100][rng.random_range(0..4)])
    } else {
        String::new()
    };
    let desc = if rng.random_bool(0.5) { " DESC" } else { "" };
    let where_clause = if rng.random_bool(0.6) {
        compound_predicate(rng, ds)
            .map(|p| format!(" WHERE {p}"))
            .unwrap_or_default()
    } else {
        String::new()
    };
    format!(
        "SELECT {top}{cols} FROM {}{where_clause} ORDER BY {}{desc}",
        table_ref(ds),
        ident(order)
    )
}

fn project_list(rng: &mut StdRng, ds: &DsInfo, max: usize) -> String {
    let n = rng.random_range(1..=max.min(ds.columns.len()));
    ds.columns[..n]
        .iter()
        .map(|(c, _)| ident(c))
        .collect::<Vec<_>>()
        .join(", ")
}

fn aggregate_query(rng: &mut StdRng, ds: &DsInfo) -> String {
    let groups: Vec<&str> = cols_of_type(ds, DataType::Int)
        .into_iter()
        .chain(cols_of_type(ds, DataType::Text))
        .collect();
    let numeric = cols_of_type(ds, DataType::Float);
    if groups.is_empty() || numeric.is_empty() {
        // Scalar aggregate fallback.
        return format!("SELECT COUNT(*) FROM {}", table_ref(ds));
    }
    let g = groups[rng.random_range(0..groups.len())];
    let v = numeric[rng.random_range(0..numeric.len())];
    let agg = ["AVG", "SUM", "MIN", "MAX", "STDEV"][rng.random_range(0..5)];
    let where_clause = if rng.random_bool(0.55) {
        compound_predicate(rng, ds)
            .map(|p| format!(" WHERE {p}"))
            .unwrap_or_default()
    } else {
        String::new()
    };
    let mut sql = format!(
        "SELECT {}, COUNT(*) AS cnt, {agg}({}) AS stat FROM {}{where_clause} GROUP BY {}",
        ident(g),
        ident(v),
        table_ref(ds),
        ident(g)
    );
    if rng.random_bool(0.15) {
        sql.push_str(" HAVING COUNT(*) > 1");
    }
    if rng.random_bool(0.25) {
        sql.push_str(&format!(" ORDER BY {}", ident(g)));
    }
    sql
}

/// The §5.3 "histogram/binning" idiom the paper calls common-but-awkward.
fn binning_query(rng: &mut StdRng, ds: &DsInfo) -> String {
    let numeric = cols_of_type(ds, DataType::Float);
    if numeric.is_empty() {
        return aggregate_query(rng, ds);
    }
    let v = numeric[rng.random_range(0..numeric.len())];
    let width = [5, 10, 25][rng.random_range(0..3)];
    let extra = if rng.random_bool(0.5) {
        ds.columns
            .first()
            .map(|(k, _)| format!(" AND {} > {}", ident(k), rng.random_range(0..60)))
            .unwrap_or_default()
    } else {
        String::new()
    };
    format!(
        "SELECT FLOOR({c} / {width}) * {width} AS bin, COUNT(*) AS n \
         FROM {t} WHERE {c} IS NOT NULL{extra} GROUP BY FLOOR({c} / {width}) * {width} \
         ORDER BY 1",
        c = ident(v),
        t = table_ref(ds),
    )
}

fn join_query(rng: &mut StdRng, a: &DsInfo, b: &DsInfo) -> String {
    // Join keys: usually the leading (clustered) columns — uploads from
    // the same instrument share their key column position — else a
    // shared column name.
    let shared = a
        .columns
        .iter()
        .find(|(n, _)| b.columns.iter().any(|(m, _)| m.eq_ignore_ascii_case(n)));
    let (ca, cb) = match shared {
        Some((n, _)) if rng.random_bool(0.4) => (n.clone(), n.clone()),
        _ => (
            a.columns.first().map(|(n, _)| n.clone()).unwrap_or_default(),
            b.columns.first().map(|(n, _)| n.clone()).unwrap_or_default(),
        ),
    };
    let kind = match rng.random_range(0..9) {
        0..=3 => "LEFT JOIN",
        4 => "FULL OUTER JOIN",
        _ => "JOIN",
    };
    let mut sql = format!(
        "SELECT x.*, y.{cb2} FROM {ta} AS x {kind} {tb} AS y ON x.{ca2} = y.{cb2}",
        ta = table_ref(a),
        tb = table_ref(b),
        ca2 = ident(&ca),
        cb2 = ident(&cb),
    );
    if rng.random_bool(0.45) {
        if let Some(p) = key_predicate(rng, a).or_else(|| random_predicate(rng, a)) {
            sql.push_str(&format!(" WHERE x.{p}"));
        }
    }
    sql
}

/// Vertical recomposition: stitch sibling uploads back together (§5.1).
fn union_query(rng: &mut StdRng, parts: &[DsInfo]) -> String {
    let width = parts
        .iter()
        .map(|d| d.columns.len())
        .min()
        .unwrap_or(1)
        .clamp(1, 4);
    let branches: Vec<String> = parts
        .iter()
        .map(|d| {
            let cols = d.columns[..width]
                .iter()
                .map(|(c, _)| ident(c))
                .collect::<Vec<_>>()
                .join(", ");
            format!("SELECT {cols} FROM {}", table_ref(d))
        })
        .collect();
    let all = if rng.random_bool(0.8) { " ALL" } else { "" };
    branches.join(&format!(" UNION{all} "))
}

fn window_query(rng: &mut StdRng, ds: &DsInfo) -> String {
    let parts: Vec<&str> = cols_of_type(ds, DataType::Int)
        .into_iter()
        .chain(cols_of_type(ds, DataType::Text))
        .collect();
    let numeric = cols_of_type(ds, DataType::Float);
    if parts.is_empty() || numeric.is_empty() {
        return simple_query(rng, ds);
    }
    let p = parts[rng.random_range(0..parts.len())];
    let v = numeric[rng.random_range(0..numeric.len())];
    let func = match rng.random_range(0..4) {
        0 => "ROW_NUMBER()".to_string(),
        1 => "RANK()".to_string(),
        2 => format!("SUM({}) ", ident(v)),
        _ => format!("AVG({}) ", ident(v)),
    };
    format!(
        "SELECT {p2}, {v2}, {func}OVER (PARTITION BY {p2} ORDER BY {v2} DESC) AS w \
         FROM {t}",
        p2 = ident(p),
        v2 = ident(v),
        t = table_ref(ds),
    )
}

/// String munging drives Table 4a (`like`, `substring`, `charindex`,
/// `isnumeric`, `len`, `patindex`).
fn string_query(rng: &mut StdRng, ds: &DsInfo) -> String {
    let texts = cols_of_type(ds, DataType::Text);
    if texts.is_empty() {
        return simple_query(rng, ds);
    }
    let c = ident(texts[rng.random_range(0..texts.len())]);
    match rng.random_range(0..4) {
        0 => format!(
            "SELECT UPPER({c}) AS label, LEN({c}) AS n FROM {t} WHERE {c} LIKE '%a%'",
            t = table_ref(ds)
        ),
        1 => format!(
            "SELECT SUBSTRING({c}, 1, CHARINDEX('_', {c} + '_') - 1) AS prefix, COUNT(*) AS n \
             FROM {t} GROUP BY SUBSTRING({c}, 1, CHARINDEX('_', {c} + '_') - 1)",
            t = table_ref(ds)
        ),
        2 => format!(
            "SELECT {c}, PATINDEX('%[0-9]%', {c}) AS digit_at FROM {t} \
             WHERE ISNUMERIC({c}) = 0",
            t = table_ref(ds)
        ),
        _ => format!(
            "SELECT REPLACE({c}, '_', ' ') AS cleaned FROM {t} WHERE {c} IS NOT NULL",
            t = table_ref(ds)
        ),
    }
}

/// A very long but shallow query (Fig. 7's >1000-character tail: "a
/// filter applied to 50+ columns").
fn wide_filter_query(ds: &DsInfo) -> String {
    let conditions: Vec<String> = ds
        .columns
        .iter()
        .filter(|(_, t)| matches!(t, DataType::Int | DataType::Float))
        .map(|(c, _)| format!("({} IS NOT NULL AND {} <> -999)", ident(c), ident(c)))
        .collect();
    if conditions.is_empty() {
        return format!("SELECT * FROM {}", table_ref(ds));
    }
    format!(
        "SELECT * FROM {} WHERE {}",
        table_ref(ds),
        conditions.join(" AND ")
    )
}

fn subquery_query(rng: &mut StdRng, ds: &DsInfo) -> String {
    let numeric = any_numeric(ds);
    if numeric.is_empty() {
        return simple_query(rng, ds);
    }
    let c = ident(numeric[rng.random_range(0..numeric.len())]);
    format!(
        "SELECT * FROM {t} WHERE {c} > (SELECT AVG({c}) FROM {t})",
        t = table_ref(ds)
    )
}

/// The §5.1 cleaning view: NULL injection + post-hoc CAST + renaming.
fn view_definition(rng: &mut StdRng, base: &DsInfo, user: &UserState) -> String {
    let roll = rng.random_range(0..10);
    match roll {
        // Cleaning + typing + renaming (most common idiom bundle).
        0..=3 => {
            let mut items: Vec<String> = Vec::new();
            for (i, (c, ty)) in base.columns.iter().enumerate().take(8) {
                let cref = ident(c);
                match ty {
                    DataType::Text if rng.random_bool(0.35) => items.push(format!(
                        "TRY_CAST(CASE WHEN {cref} = '-999' THEN NULL \
                         WHEN {cref} = 'NA' THEN NULL ELSE {cref} END AS FLOAT) AS {}",
                        ident(&rename_of(c, i))
                    )),
                    _ if c.starts_with("column") || rng.random_bool(0.35) => {
                        items.push(format!("{cref} AS {}", ident(&rename_of(c, i))))
                    }
                    _ => items.push(cref),
                }
            }
            format!("SELECT {} FROM {}", items.join(", "), table_ref(base))
        }
        // Filtered subset.
        4 | 5 => {
            let pred = random_predicate(rng, base)
                .unwrap_or_else(|| "1 = 1".to_string());
            format!("SELECT * FROM {} WHERE {pred}", table_ref(base))
        }
        // Aggregation layer.
        6 | 7 => aggregate_query(rng, base),
        // Vertical recomposition over the user's sibling uploads.
        8 if user.datasets.len() >= 2 && rng.random_bool(0.4) => {
            let k = rng.random_range(2..=user.datasets.len().min(3));
            let parts: Vec<DsInfo> =
                user.datasets[user.datasets.len() - k..].to_vec();
            union_query(rng, &parts)
        }
        _ => binning_query(rng, base),
    }
}

fn rename_of(original: &str, i: usize) -> String {
    const SEMANTIC: &[&str] = &[
        "station_id", "nitrate_um", "temp_c", "salinity_psu", "depth_m", "site_code",
        "sample_date", "measured_value", "qc_flag", "latitude",
    ];
    let _ = original;
    SEMANTIC[i % SEMANTIC.len()].to_string()
}

fn exploratory_query(
    service: &mut SqlShare,
    user: &mut UserState,
    public_pool: &mut Vec<DsInfo>,
    rng: &mut StdRng,
    stats: &mut GenStats,
) {
    let Some(ds) = pick_own(user, rng) else { return };
    let sql = match rng.random_range(0..100) {
        0..=24 => simple_query(rng, &ds),
        25..=33 => sorted_query(rng, &ds),
        34..=51 => aggregate_query(rng, &ds),
        52..=55 => binning_query(rng, &ds),
        56..=63 => string_query(rng, &ds),
        64..=69 => arithmetic_query(rng, &ds),
        70..=84 => {
            let left = if rng.random_bool(0.7) {
                pick_upload(user, rng).unwrap_or_else(|| ds.clone())
            } else {
                ds.clone()
            };
            match (pick_upload(user, rng), pick_upload(user, rng)) {
                (Some(b), Some(c)) if rng.random_bool(0.25) => {
                    three_way_join(rng, &left, &b, &c)
                }
                (Some(b), _) => join_query(rng, &left, &b),
                _ => simple_query(rng, &ds),
            }
        }
        85..=88 => window_query(rng, &ds),
        89 => subquery_query(rng, &ds),
        90 => cleaning_select(rng, &ds),
        91 => long_query(rng, &ds),
        92 if user.datasets.len() >= 2 => {
            let k = rng.random_range(2..=user.datasets.len().min(3));
            let parts: Vec<DsInfo> = user.datasets[user.datasets.len() - k..].to_vec();
            union_query(rng, &parts)
        }
        93..=94 => {
            if let Some(other) = pick_upload(user, rng) {
                complex_query(rng, &ds, &other)
            } else {
                aggregate_query(rng, &ds)
            }
        }
        95 => udf_query(rng, &ds),
        _ => simple_query(rng, &ds),
    };
    run(service, user, &sql, rng, stats);
    let _ = public_pool;
}

fn analytical_query(
    service: &mut SqlShare,
    user: &mut UserState,
    public_pool: &mut Vec<DsInfo>,
    rng: &mut StdRng,
    stats: &mut GenStats,
) {
    let Some(ds) = pick_own(user, rng) else { return };
    let sql = match rng.random_range(0..100) {
        0..=27 => aggregate_query(rng, &ds),
        28..=36 => sorted_query(rng, &ds),
        37..=63 => {
            let left = if rng.random_bool(0.7) {
                pick_upload(user, rng).unwrap_or_else(|| ds.clone())
            } else {
                ds.clone()
            };
            match (pick_upload(user, rng), pick_upload(user, rng)) {
                (Some(b), Some(c)) if rng.random_bool(0.3) => {
                    three_way_join(rng, &left, &b, &c)
                }
                (Some(b), _) => join_query(rng, &left, &b),
                _ => aggregate_query(rng, &ds),
            }
        }
        64..=67 => window_query(rng, &ds),
        68..=70 => binning_query(rng, &ds),
        71 => subquery_query(rng, &ds),
        72..=77 => string_query(rng, &ds),
        78..=83 => arithmetic_query(rng, &ds),
        84 if user.datasets.len() >= 2 => {
            let k = rng.random_range(2..=user.datasets.len().min(3));
            let parts: Vec<DsInfo> = user.datasets[user.datasets.len() - k..].to_vec();
            union_query(rng, &parts)
        }
        85..=89 => {
            if let Some(other) = pick_upload(user, rng) {
                complex_query(rng, &ds, &other)
            } else {
                aggregate_query(rng, &ds)
            }
        }
        90..=91 => long_query(rng, &ds),
        92 => udf_query(rng, &ds),
        _ => simple_query(rng, &ds),
    };
    run(service, user, &sql, rng, stats);
    let _ = public_pool;
}

fn pipeline_query(shape: usize, ds: &DsInfo) -> String {
    // Deterministic per shape: pipeline users paste the same SQL every
    // cycle with only the table name changing (§6.3 "data processing
    // mode"; Fig. 6 "views as query templates").
    match shape % PIPELINE_SHAPES {
        0 => format!("SELECT COUNT(*) FROM {}", table_ref(ds)),
        1 => {
            let c = ds
                .columns
                .iter()
                .find(|(_, t)| matches!(t, DataType::Float))
                .or_else(|| ds.columns.first())
                .map(|(n, _)| ident(n))
                .unwrap_or_else(|| "1".to_string());
            format!(
                "SELECT MIN({c}) AS lo, MAX({c}) AS hi, AVG({c}) AS mean FROM {}",
                table_ref(ds)
            )
        }
        2 => {
            let c = ds
                .columns
                .first()
                .map(|(n, _)| ident(n))
                .unwrap_or_else(|| "1".to_string());
            format!(
                "SELECT {c}, COUNT(*) AS n FROM {} GROUP BY {c} ORDER BY n DESC",
                table_ref(ds)
            )
        }
        _ => {
            let c = ds
                .columns
                .first()
                .map(|(n, _)| ident(n))
                .unwrap_or_else(|| "1".to_string());
            format!(
                "SELECT {c}, COUNT(DISTINCT {c}) AS distinct_keys FROM {} GROUP BY {c}",
                table_ref(ds)
            )
        }
    }
}

/// Occasional calls to lab-specific UDFs (the paper counts 56 distinct
/// UDFs in the SQLShare workload).
fn udf_query(rng: &mut StdRng, ds: &DsInfo) -> String {
    let numeric = any_numeric(ds);
    let Some(c) = numeric.first() else {
        return simple_query(rng, &ds.clone());
    };
    let udf = SQLSHARE_UDFS[rng.random_range(0..SQLSHARE_UDFS.len())];
    format!(
        "SELECT {c2}, {udf}({c2}) AS derived FROM {} WHERE {c2} IS NOT NULL",
        table_ref(ds),
        c2 = ident(c)
    )
}

/// Lab UDF names registered with the engine before generation.
pub const SQLSHARE_UDFS: &[&str] = &[
    "fSalinityToDensity",
    "fDepthToPressure",
    "fChlorophyllIndex",
    "fQualityScore",
    "fNormalizeExpression",
    "fDistanceKm",
    "fJulianDay",
    "fSpeciesCode",
];

fn delete_random(
    service: &mut SqlShare,
    user: &mut UserState,
    rng: &mut StdRng,
    stats: &mut GenStats,
) {
    let idx = rng.random_range(0..user.datasets.len());
    let name = user.datasets[idx].name.clone();
    if service.delete_dataset(&user.name, &name).is_ok() {
        stats.deletions += 1;
        user.datasets.remove(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev_corpus() -> GeneratedCorpus {
        generate(&GeneratorConfig {
            seed: 7,
            scale: 0.01,
        })
    }

    #[test]
    fn generator_produces_a_populated_service() {
        let corpus = dev_corpus();
        assert!(corpus.stats.users >= 8);
        assert!(corpus.stats.uploads > 10);
        assert!(corpus.stats.queries_attempted > 50);
        assert_eq!(
            corpus.service.log().len(),
            corpus.stats.queries_attempted
        );
    }

    #[test]
    fn most_queries_succeed() {
        let corpus = dev_corpus();
        let failed = corpus.stats.queries_failed as f64;
        let total = corpus.stats.queries_attempted as f64;
        assert!(
            failed / total < 0.15,
            "too many failures: {failed}/{total}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&GeneratorConfig { seed: 3, scale: 0.005 });
        let b = generate(&GeneratorConfig { seed: 3, scale: 0.005 });
        assert_eq!(a.stats, b.stats);
        let entries_a = a.service.log().entries();
        let entries_b = b.service.log().entries();
        let sqls_a: Vec<&str> = entries_a.iter().map(|e| e.sql.as_str()).collect();
        let sqls_b: Vec<&str> = entries_b.iter().map(|e| e.sql.as_str()).collect();
        assert_eq!(sqls_a, sqls_b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GeneratorConfig { seed: 3, scale: 0.005 });
        let b = generate(&GeneratorConfig { seed: 4, scale: 0.005 });
        assert_ne!(
            a.service.log().entries().iter().map(|e| e.sql.clone()).collect::<Vec<_>>(),
            b.service.log().entries().iter().map(|e| e.sql.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn views_and_sharing_exist() {
        let corpus = dev_corpus();
        assert!(corpus.stats.views_created > 0);
        let derived = corpus
            .service
            .datasets()
            .filter(|d| d.is_derived())
            .count();
        assert!(derived > 0);
        let public = corpus
            .service
            .datasets()
            .filter(|d| {
                matches!(
                    corpus.service.visibility(&d.name),
                    sqlshare_core::Visibility::Public
                )
            })
            .count();
        assert!(public > 0);
    }
}
