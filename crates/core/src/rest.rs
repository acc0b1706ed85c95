//! The REST interface (§3.3, §3.4).
//!
//! "The front-end UI is in no way a privileged application; it operates
//! the REST interface like any other client." This module implements
//! that interface as typed request dispatch over JSON bodies, so any
//! transport can host it — `examples/rest_server.rs` serves it over a
//! dependency-free HTTP listener, and tests drive it directly.
//!
//! | Method & path                              | Action |
//! |--------------------------------------------|--------|
//! | `POST /api/users`                          | register user |
//! | `POST /api/datasets`                       | upload (staged ingest) |
//! | `GET  /api/datasets`                       | list datasets |
//! | `GET  /api/datasets/{owner}/{name}`        | metadata + cached preview |
//! | `GET  /api/datasets/{owner}/{name}/download` | full CSV (runs query) |
//! | `DELETE /api/datasets/{owner}/{name}`      | delete |
//! | `POST /api/views`                          | save a derived dataset |
//! | `POST /api/datasets/{owner}/{name}/append` | UNION-append another dataset |
//! | `POST /api/datasets/{owner}/{name}/permissions` | set visibility |
//! | `POST /api/queries`                        | submit query, returns id |
//! | `GET  /api/queries/{id}`                   | poll status |
//! | `GET  /api/queries/{id}/results`           | fetch results, runtime, cache hit, spill bytes |
//! | `POST /api/queries/{id}/cancel`            | cancel a submitted query |
//! | `GET  /api/ready`                          | readiness, role, epoch, lag, last recovery |
//! | `GET  /api/integrity`                      | scrub progress |
//! | `GET  /api/scheduler`                      | per-tenant scheduler statistics |
//! | `GET  /api/cache`                          | plan/result cache counters, per tenant |
//!
//! The table is [`Route::parse`]: the one place a path is split and
//! matched. Which enum a route is a variant of decides the lock it
//! needs ([`is_mutation`]), whether a standby answers it, and the
//! handler that can take it.

use crate::dataset::{DatasetName, Metadata};
use crate::permissions::Visibility;
use crate::service::{JobStatus, SqlShare};
use sqlshare_common::json::{Json, JsonObject};
use sqlshare_common::Error;
use sqlshare_ingest::{HeaderMode, IngestOptions};
use sqlshare_sql::rewrite::AppendMode;

/// HTTP-ish method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Get,
    Post,
    Put,
    Delete,
}

impl Method {
    /// Parse an HTTP method token.
    pub fn parse(s: &str) -> Option<Method> {
        Some(match s.to_ascii_uppercase().as_str() {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            _ => return None,
        })
    }
}

/// A request to the REST layer.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: Method,
    /// Path, optionally with a `?user=<name>` query string.
    pub path: String,
    pub body: Json,
}

impl Request {
    pub fn get(path: impl Into<String>) -> Self {
        Request {
            method: Method::Get,
            path: path.into(),
            body: Json::Null,
        }
    }

    pub fn post(path: impl Into<String>, body: Json) -> Self {
        Request {
            method: Method::Post,
            path: path.into(),
            body,
        }
    }

    pub fn delete(path: impl Into<String>, body: Json) -> Self {
        Request {
            method: Method::Delete,
            path: path.into(),
            body,
        }
    }
}

/// A response from the REST layer.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: Json,
}

impl Response {
    fn ok(body: Json) -> Self {
        Response { status: 200, body }
    }

    fn created(body: Json) -> Self {
        Response { status: 201, body }
    }

    fn error(status: u16, message: impl Into<String>) -> Self {
        Response {
            status,
            body: Json::object([("error", Json::str(message.into()))]),
        }
    }

    fn from_err(err: &Error) -> Self {
        Response {
            status: status_for_kind(err.kind()),
            body: Json::object([
                ("error", Json::str(err.message().to_string())),
                ("kind", Json::str(err.kind())),
            ]),
        }
    }
}

/// Deliberate HTTP status for each error kind; `tests/rest_dispatch.rs`
/// audits the full table against every [`Error`] variant. The fallback
/// 500 covers only kinds added later — `internal` is listed explicitly
/// so a contained panic is a *chosen* 500, and resource pressure
/// (quota, admission, memory) is the 429 family, distinct from bugs.
pub fn status_for_kind(kind: &str) -> u16 {
    match kind {
        "parse" | "binding" | "request" | "ingest" | "json" | "plan" => 400,
        "permission" => 403,
        "catalog" => 404,
        // A deadline expiring inside the engine is the *server* giving
        // up on a gateway-side timer (504), not the client taking too
        // long to send its request (408).
        "timeout" => 504,
        "cancelled" => 409,
        "execution" => 422,
        "quota" | "overloaded" | "resource" => 429,
        // A standby (or fenced ex-primary) refusing a write is the
        // service being temporarily unable to take mutations at this
        // node — retryable against the promoted primary, so 503 with
        // the server layer's `Retry-After`, not a generic 500.
        "read-only" => 503,
        // Bytes read back failed their check (a spill file, here): the
        // failure is the medium's, not the request's, so it is
        // retryable — 503 with `Retry-After`, never a generic 500.
        "corrupt" => 503,
        "internal" => 500,
        _ => 500,
    }
}

/// One route of the table in the module doc, by what it does to the
/// service — which is also the handler that can take it. A
/// [`WriteRoute`] goes through the journal-before-apply path and needs
/// exclusive (`&mut`) access. A [`QueryRoute`] runs a query, a
/// [`ReadRoute`] reads state or the job table — **submission, polling
/// and cancellation included** — and both run under shared `&` access,
/// so a front end can hold a read lock for the hot paths and reserve the
/// write lock for mutations. A replication standby answers only
/// `ReadRoute`s: a mutation belongs to the primary, and so does a query
/// — it logs an entry and ticks the clock, both of which the primary's
/// log replicates to the standby (DESIGN §4.7).
enum Route<'a> {
    Write(WriteRoute<'a>),
    Query(QueryRoute<'a>),
    Read(ReadRoute<'a>),
}

/// `(owner, name)` path segments of a dataset route.
type Ds<'a> = (&'a str, &'a str);

enum WriteRoute<'a> {
    RegisterUser,
    Upload,
    SaveView,
    Delete(Ds<'a>),
    Append(Ds<'a>),
    Permissions(Ds<'a>),
}

enum QueryRoute<'a> {
    Submit,
    Download(Ds<'a>),
}

enum ReadRoute<'a> {
    Ready,
    Integrity,
    Scheduler,
    Cache,
    ListDatasets,
    Preview(Ds<'a>),
    QueryStatus(&'a str),
    QueryResults(&'a str),
    CancelQuery(&'a str),
}

impl<'a> Route<'a> {
    /// `path` without its query string.
    fn parse(method: Method, path: &'a str) -> Option<Route<'a>> {
        use {QueryRoute as Q, ReadRoute as R, WriteRoute as W};
        let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
        Some(match (method, segments.as_slice()) {
            (Method::Post, ["api", "users"]) => Route::Write(W::RegisterUser),
            (Method::Post, ["api", "datasets"]) => Route::Write(W::Upload),
            (Method::Post, ["api", "views"]) => Route::Write(W::SaveView),
            (Method::Delete, ["api", "datasets", o, n]) => Route::Write(W::Delete((o, n))),
            (Method::Post, ["api", "datasets", o, n, "append"]) => Route::Write(W::Append((o, n))),
            (Method::Post, ["api", "datasets", o, n, "permissions"]) => {
                Route::Write(W::Permissions((o, n)))
            }
            (Method::Post, ["api", "queries"]) => Route::Query(Q::Submit),
            (Method::Get, ["api", "datasets", o, n, "download"]) => {
                Route::Query(Q::Download((o, n)))
            }
            (Method::Get, ["api", "ready"]) => Route::Read(R::Ready),
            (Method::Get, ["api", "integrity"]) => Route::Read(R::Integrity),
            (Method::Get, ["api", "scheduler"]) => Route::Read(R::Scheduler),
            (Method::Get, ["api", "cache"]) => Route::Read(R::Cache),
            (Method::Get, ["api", "datasets"]) => Route::Read(R::ListDatasets),
            (Method::Get, ["api", "datasets", o, n]) => Route::Read(R::Preview((o, n))),
            (Method::Get, ["api", "queries", id]) => Route::Read(R::QueryStatus(id)),
            (Method::Get, ["api", "queries", id, "results"]) => Route::Read(R::QueryResults(id)),
            (Method::Post, ["api", "queries", id, "cancel"]) => Route::Read(R::CancelQuery(id)),
            _ => return None,
        })
    }
}

/// Does this route mutate the catalog? Mutations (user registration,
/// uploads, view DDL, appends, permission and visibility changes,
/// deletes) need exclusive access via [`dispatch`]; everything else runs
/// through [`dispatch_read`] under shared access.
pub fn is_mutation(method: Method, path: &str) -> bool {
    match Route::parse(method, split_query(path).0) {
        Some(Route::Write(_)) => true,
        Some(Route::Query(_) | Route::Read(_)) | None => false,
    }
}

/// Parse the request's route and pass it through the two gates every
/// request meets before its handler; `Err` is the refusal.
fn admit<'a>(
    service: &SqlShare,
    request: &'a Request,
) -> Result<(Route<'a>, Option<&'a str>), Response> {
    let (path, query_user) = split_query(&request.path);
    let route = Route::parse(request.method, path);
    // While crash recovery is replaying the WAL the catalog is
    // incomplete; only the readiness probe answers.
    if service.is_recovering() && !matches!(route, Some(Route::Read(ReadRoute::Ready))) {
        return Err(Response::error(
            503,
            "service is recovering; try again shortly",
        ));
    }
    let Some(route) = route else {
        return Err(Response::error(
            404,
            format!("no route for {:?} {}", request.method, path),
        ));
    };
    // A standby refuses what it does not answer *before* validating it:
    // a lagging replica would otherwise answer with misleading
    // validation errors about state it simply has not replicated yet.
    // The typed error frames as 503 + Retry-After, so obedient clients
    // back off and retry against the promoted primary.
    if service.role() == crate::repl::Role::Standby && !matches!(route, Route::Read(_)) {
        return Err(Response::from_err(&Error::ReadOnly(
            "node is a replication standby; send writes and queries to the primary".into(),
        )));
    }
    Ok((route, query_user))
}

/// Dispatch a request against the service, mutations included.
pub fn dispatch(service: &mut SqlShare, request: &Request) -> Response {
    match admit(service, request) {
        Err(refusal) => Err(refusal),
        Ok((Route::Write(route), _)) => write(service, route, &request.body),
        Ok((Route::Query(route), query_user)) => query(service, route, query_user, &request.body),
        Ok((Route::Read(route), query_user)) => read(service, route, query_user, &request.body),
    }
    .unwrap_or_else(|refusal| refusal)
}

/// Dispatch a request that needs only shared (`&`) access: every read
/// endpoint plus query submission and cancellation, whose interior
/// locking lets them run concurrently. A mutation route landing here
/// (the caller should have consulted [`is_mutation`]) is answered with
/// a 500 rather than silently misrouted.
pub fn dispatch_read(service: &SqlShare, request: &Request) -> Response {
    match admit(service, request) {
        Err(refusal) => Err(refusal),
        Ok((Route::Write(_), _)) => Err(Response::error(
            500,
            "mutation route dispatched without write access (server bug)",
        )),
        Ok((Route::Query(route), query_user)) => query(service, route, query_user, &request.body),
        Ok((Route::Read(route), query_user)) => read(service, route, query_user, &request.body),
    }
    .unwrap_or_else(|refusal| refusal)
}

/// A handler's answer. `Err` is a refusal met on the way: the 400 for a
/// request missing a field, or the service's typed error.
type Reply = std::result::Result<Response, Response>;

fn refused(err: Error) -> Response {
    Response::from_err(&err)
}

/// The named string fields of a JSON body, or the 400 that names them.
fn required<'a, const N: usize>(
    body: &'a Json,
    names: [&str; N],
) -> Result<[&'a str; N], Response> {
    let mut found = [""; N];
    for (slot, name) in found.iter_mut().zip(names) {
        *slot = body.get(name).and_then(Json::as_str).ok_or_else(|| {
            let missing = match names.as_slice() {
                [] | [_] => format!("{} is required", names.concat()),
                [a, b] => format!("{a} and {b} are required"),
                [init @ .., last] => format!("{}, and {last} are required", init.join(", ")),
            };
            Response::error(400, missing)
        })?;
    }
    Ok(found)
}

fn query_id(id: &str) -> Result<u64, Response> {
    id.parse()
        .map_err(|_| Response::error(400, "query id must be an integer"))
}

fn strings(list: &[Json]) -> Vec<String> {
    list.iter()
        .filter_map(Json::as_str)
        .map(str::to_string)
        .collect()
}

fn write(service: &mut SqlShare, route: WriteRoute<'_>, body: &Json) -> Reply {
    Ok(match route {
        WriteRoute::RegisterUser => {
            let [username, email] = required(body, ["username", "email"])?;
            service.register_user(username, email).map_err(refused)?;
            Response::created(Json::object([("username", Json::str(username))]))
        }
        WriteRoute::Upload => {
            let [user, name, content] = required(body, ["user", "name", "content"])?;
            let header = match body.get("header").and_then(Json::as_str) {
                Some("present") => HeaderMode::Present,
                Some("absent") => HeaderMode::Absent,
                _ => HeaderMode::Auto,
            };
            let options = IngestOptions {
                header,
                ..Default::default()
            };
            let (dataset, report) = service
                .upload(user, name, content, &options)
                .map_err(refused)?;
            Response::created(Json::object([
                ("dataset", Json::str(dataset.flat())),
                ("rows", Json::num(report.rows as f64)),
                ("columns", Json::num(report.columns as f64)),
                ("headerUsed", Json::Bool(report.header_used)),
                (
                    "defaultNamesAssigned",
                    Json::num(report.default_names_assigned as f64),
                ),
                ("paddedRows", Json::num(report.padded_rows as f64)),
            ]))
        }
        WriteRoute::Delete((owner, name)) => {
            let [user] = required(body, ["user"])?;
            service
                .delete_dataset(user, &DatasetName::new(owner, name))
                .map_err(refused)?;
            Response::ok(Json::object([("deleted", Json::Bool(true))]))
        }
        WriteRoute::SaveView => {
            let [user, name, sql] = required(body, ["user", "name", "sql"])?;
            let metadata = Metadata {
                description: body
                    .get("description")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                tags: body
                    .get("tags")
                    .and_then(Json::as_array)
                    .map(strings)
                    .unwrap_or_default(),
            };
            let dn = service
                .save_dataset(user, name, sql, metadata)
                .map_err(refused)?;
            Response::created(Json::object([("dataset", Json::str(dn.flat()))]))
        }
        WriteRoute::Append((owner, name)) => {
            let [user, src_owner, src_name] =
                required(body, ["user", "sourceOwner", "sourceName"])?;
            let existing = DatasetName::new(owner, name);
            let new = DatasetName::new(src_owner, src_name);
            service
                .append(user, &existing, &new, AppendMode::UnionAll)
                .map_err(refused)?;
            Response::ok(Json::object([("appended", Json::Bool(true))]))
        }
        WriteRoute::Permissions((owner, name)) => {
            let [user] = required(body, ["user"])?;
            let visibility = match body.get("visibility") {
                Some(Json::String(s)) if s == "public" => Visibility::Public,
                Some(Json::String(s)) if s == "private" => Visibility::Private,
                Some(Json::Array(users)) => Visibility::Shared(strings(users)),
                _ => {
                    return Err(Response::error(
                        400,
                        "visibility must be \"public\", \"private\", or a user list",
                    ))
                }
            };
            service
                .set_visibility(user, &DatasetName::new(owner, name), visibility)
                .map_err(refused)?;
            Response::ok(Json::object([("updated", Json::Bool(true))]))
        }
    })
}

/// The `?user=` of a `GET` made on someone's behalf.
fn viewer(query_user: Option<&str>) -> Result<&str, Response> {
    query_user.ok_or_else(|| Response::error(400, "a ?user= query parameter is required"))
}

fn query(
    service: &SqlShare,
    route: QueryRoute<'_>,
    query_user: Option<&str>,
    body: &Json,
) -> Reply {
    Ok(match route {
        QueryRoute::Submit => {
            let [user, sql] = required(body, ["user", "sql"])?;
            let id = service.submit_query(user, sql).map_err(refused)?;
            Response::created(Json::object([("id", Json::num(id as f64))]))
        }
        QueryRoute::Download((owner, name)) => {
            let csv = service
                .download(viewer(query_user)?, &DatasetName::new(owner, name))
                .map_err(refused)?;
            Response::ok(Json::object([("csv", Json::str(csv))]))
        }
    })
}

fn read(service: &SqlShare, route: ReadRoute<'_>, query_user: Option<&str>, body: &Json) -> Reply {
    let text_rows = |rows: &[sqlshare_engine::Row]| -> Json {
        Json::Array(
            rows.iter()
                .map(|r| Json::Array(r.iter().map(|v| Json::str(v.to_text())).collect()))
                .collect(),
        )
    };
    Ok(match route {
        ReadRoute::Ready => {
            if service.is_recovering() {
                return Err(Response {
                    status: 503,
                    body: Json::object([
                        ("ready", Json::Bool(false)),
                        ("role", Json::str("recovering")),
                    ]),
                });
            }
            // Standbys are "ready" while lagged: they serve the
            // read-only route set the whole time; `lagLsns` is how far
            // behind the primary their applied state is.
            let mut pairs = vec![
                ("ready", Json::Bool(true)),
                ("role", Json::str(service.role().name())),
                ("epoch", Json::num(service.epoch() as f64)),
                ("lastLsn", Json::num(service.last_lsn() as f64)),
                ("lagLsns", Json::num(service.replication_lag() as f64)),
            ];
            if let Some(r) = service.recovery_report() {
                pairs.push((
                    "recovery",
                    Json::object([
                        ("snapshotLsn", Json::num(r.snapshot_lsn as f64)),
                        ("replayedRecords", Json::num(r.replayed_records as f64)),
                        ("skippedRecords", Json::num(r.skipped_records as f64)),
                        ("failedRecords", Json::num(r.failed_records as f64)),
                        ("truncatedWalBytes", Json::num(r.truncated_wal_bytes as f64)),
                        (
                            "skippedSnapshotCandidates",
                            Json::num(r.snapshot_candidates_skipped as f64),
                        ),
                        ("lastLsn", Json::num(r.last_lsn as f64)),
                        ("querylogEntries", Json::num(r.querylog_entries as f64)),
                    ]),
                ));
            }
            Response::ok(Json::object(pairs))
        }
        ReadRoute::Integrity => Response::ok(service.integrity().report()),
        ReadRoute::ListDatasets => {
            let list: Vec<Json> = service
                .datasets()
                .map(|d| {
                    Json::object([
                        ("name", Json::str(d.name.flat())),
                        ("owner", Json::str(d.name.owner.clone())),
                        ("derived", Json::Bool(d.is_derived())),
                    ])
                })
                .collect();
            Response::ok(Json::Array(list))
        }
        ReadRoute::Preview((owner, name)) => {
            let dn = DatasetName::new(owner, name);
            let preview = service.preview(viewer(query_user)?, &dn).map_err(refused)?;
            let ds = service.dataset(&dn).expect("preview implies dataset");
            let columns: Vec<Json> = preview
                .schema
                .columns
                .iter()
                .map(|c| {
                    Json::object([
                        ("name", Json::str(c.name.clone())),
                        ("type", Json::str(c.ty.sql_name())),
                    ])
                })
                .collect();
            Response::ok(Json::object([
                ("name", Json::str(dn.flat())),
                ("sql", Json::str(ds.sql.clone())),
                ("description", Json::str(ds.metadata.description.clone())),
                (
                    "tags",
                    Json::Array(
                        ds.metadata
                            .tags
                            .iter()
                            .map(|t| Json::str(t.clone()))
                            .collect(),
                    ),
                ),
                ("columns", Json::Array(columns)),
                ("preview", text_rows(&preview.rows)),
                ("truncated", Json::Bool(preview.truncated)),
            ]))
        }
        ReadRoute::QueryStatus(id) => {
            let status = service.query_status(query_id(id)?).map_err(refused)?;
            let mut fields = vec![("status", Json::str(status.label()))];
            match &status {
                JobStatus::Failed(err) => {
                    fields.push(("error", Json::str(err.message())));
                    fields.push(("errorKind", Json::str(err.kind())));
                }
                JobStatus::TimedOut(msg) | JobStatus::Cancelled(msg) => {
                    fields.push(("error", Json::str(msg.clone())));
                }
                _ => {}
            }
            Response::ok(Json::object(fields))
        }
        ReadRoute::CancelQuery(id) => {
            let id = query_id(id)?;
            let [user] = required(body, ["user"])?;
            service.cancel_query(user, id).map_err(refused)?;
            Response::ok(Json::object([("cancelled", Json::Bool(true))]))
        }
        ReadRoute::Scheduler => {
            let stats = service.scheduler_stats();
            let tenant_json = |t: &sqlshare_scheduler::TenantStats| {
                Json::object([
                    ("submitted", Json::num(t.submitted as f64)),
                    ("completed", Json::num(t.completed as f64)),
                    ("failed", Json::num(t.failed as f64)),
                    ("failedInternal", Json::num(t.failed_internal as f64)),
                    ("failedResource", Json::num(t.failed_resource as f64)),
                    ("degradedRetries", Json::num(t.degraded_retries as f64)),
                    ("timedOut", Json::num(t.timed_out as f64)),
                    ("cancelled", Json::num(t.cancelled as f64)),
                    ("rejected", Json::num(t.rejected as f64)),
                    ("queueDepth", Json::num(t.queue_depth as f64)),
                    ("meanQueueWaitMicros", Json::num(t.mean_queue_wait_micros())),
                    ("meanExecMicros", Json::num(t.mean_exec_micros())),
                ])
            };
            let tenants: sqlshare_common::json::JsonObject = stats
                .tenants
                .iter()
                .map(|(name, t)| (name.clone(), tenant_json(t)))
                .collect();
            Response::ok(Json::object([
                ("workers", Json::num(stats.workers as f64)),
                ("totals", tenant_json(&stats.totals)),
                ("tenants", Json::Object(tenants)),
            ]))
        }
        ReadRoute::Cache => {
            let stats = service.cache_stats();
            let tenants: sqlshare_common::json::JsonObject = service
                .tenant_cache_stats()
                .iter()
                .map(|(name, t)| {
                    (
                        name.clone(),
                        Json::object([
                            ("hits", Json::num(t.hits as f64)),
                            ("misses", Json::num(t.misses as f64)),
                        ]),
                    )
                })
                .collect();
            Response::ok(Json::object([
                ("planHits", Json::num(stats.plan_hits as f64)),
                ("planMisses", Json::num(stats.plan_misses as f64)),
                ("resultHits", Json::num(stats.result_hits as f64)),
                ("resultMisses", Json::num(stats.result_misses as f64)),
                ("evictions", Json::num(stats.evictions as f64)),
                ("invalidations", Json::num(stats.invalidations as f64)),
                ("materializations", Json::num(stats.materializations as f64)),
                ("planEntries", Json::num(stats.plan_entries as f64)),
                ("resultEntries", Json::num(stats.result_entries as f64)),
                ("resultBytes", Json::num(stats.result_bytes as f64)),
                (
                    "materializedViews",
                    Json::num(stats.materialized_views as f64),
                ),
                ("tenants", Json::Object(tenants)),
            ]))
        }
        ReadRoute::QueryResults(id) => {
            let result = service.query_results(query_id(id)?).map_err(refused)?;
            let columns: Vec<Json> = result
                .schema
                .columns
                .iter()
                .map(|c| Json::str(c.name.clone()))
                .collect();
            Response::ok(Json::object([
                ("columns", Json::Array(columns)),
                ("rows", text_rows(&result.rows)),
                ("runtimeMicros", Json::num(result.runtime_micros as f64)),
                ("cacheHit", Json::Bool(result.cache_hit)),
                ("spillBytes", Json::num(result.spill_bytes as f64)),
                ("plan", result.plan_json.clone()),
            ]))
        }
    })
}

fn split_query(path: &str) -> (&str, Option<&str>) {
    match path.split_once('?') {
        None => (path, None),
        Some((p, qs)) => (p, qs.split('&').find_map(|pair| pair.strip_prefix("user="))),
    }
}

/// Build a `JsonObject`-backed body from string pairs (test/client helper).
pub fn body(pairs: &[(&str, &str)]) -> Json {
    let mut obj = JsonObject::new();
    for (k, v) in pairs {
        obj.insert(k.to_string(), Json::str(v.to_string()));
    }
    Json::Object(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_parsing() {
        assert_eq!(Method::parse("get"), Some(Method::Get));
        assert_eq!(Method::parse("POST"), Some(Method::Post));
        assert_eq!(Method::parse("PATCH"), None);
    }

    #[test]
    fn split_query_extracts_user() {
        let (p, u) = split_query("/api/datasets/a/b?user=ada");
        assert_eq!(p, "/api/datasets/a/b");
        assert_eq!(u, Some("ada"));
        let (p, u) = split_query("/api/datasets");
        assert_eq!(p, "/api/datasets");
        assert!(u.is_none());
    }

    #[test]
    fn unknown_route_is_404() {
        let mut s = SqlShare::new();
        let r = dispatch(&mut s, &Request::get("/api/nope"));
        assert_eq!(r.status, 404);
    }

    #[test]
    fn missing_fields_are_400() {
        let mut s = SqlShare::new();
        let r = dispatch(&mut s, &Request::post("/api/users", Json::Null));
        assert_eq!(r.status, 400);
    }
}
