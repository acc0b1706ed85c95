//! Drive the REST interface end to end, as the web UI or the community
//! R/JavaScript clients would (§3.4: the UI is just another REST client).

use sqlshare_common::json::Json;
use sqlshare_common::Error;
use sqlshare_core::rest::{body, dispatch, status_for_kind, Request};
use sqlshare_core::SqlShare;

fn post(path: &str, pairs: &[(&str, &str)]) -> Request {
    Request::post(path, body(pairs))
}

#[test]
fn rest_session_end_to_end() {
    let mut s = SqlShare::new();

    // Register two users.
    let r = dispatch(&mut s, &post("/api/users", &[("username", "ada"), ("email", "a@uw.edu")]));
    assert_eq!(r.status, 201);
    let r = dispatch(&mut s, &post("/api/users", &[("username", "bob"), ("email", "b@x.org")]));
    assert_eq!(r.status, 201);
    // Duplicate registration fails cleanly.
    let r = dispatch(&mut s, &post("/api/users", &[("username", "ada"), ("email", "z@z.z")]));
    assert_eq!(r.status, 400);

    // Upload a dataset.
    let r = dispatch(
        &mut s,
        &post(
            "/api/datasets",
            &[
                ("user", "ada"),
                ("name", "tides"),
                ("content", "station,level\n1,2.4\n2,3.1\n2,2.9\n"),
            ],
        ),
    );
    assert_eq!(r.status, 201, "{:?}", r.body.to_string());
    assert_eq!(r.body.get("rows").unwrap().as_f64(), Some(3.0));
    assert_eq!(r.body.get("headerUsed"), Some(&Json::Bool(true)));

    // List datasets.
    let r = dispatch(&mut s, &Request::get("/api/datasets"));
    assert_eq!(r.status, 200);
    assert_eq!(r.body.as_array().unwrap().len(), 1);

    // Owner reads metadata + preview.
    let r = dispatch(&mut s, &Request::get("/api/datasets/ada/tides?user=ada"));
    assert_eq!(r.status, 200);
    assert_eq!(r.body.get("preview").unwrap().as_array().unwrap().len(), 3);
    // A stranger is rejected with 403.
    let r = dispatch(&mut s, &Request::get("/api/datasets/ada/tides?user=bob"));
    assert_eq!(r.status, 403);
    // Unknown dataset is 404.
    let r = dispatch(&mut s, &Request::get("/api/datasets/ada/nope?user=ada"));
    assert_eq!(r.status, 404);

    // Save a derived view over it.
    let r = dispatch(
        &mut s,
        &post(
            "/api/views",
            &[
                ("user", "ada"),
                ("name", "mean_levels"),
                ("sql", "SELECT station, AVG(level) AS mean_level FROM tides GROUP BY station"),
                ("description", "station means"),
            ],
        ),
    );
    assert_eq!(r.status, 201, "{:?}", r.body.to_string());

    // Share it publicly.
    let mut perm = Request::post(
        "/api/datasets/ada/mean_levels/permissions",
        body(&[("user", "ada")]),
    );
    if let Json::Object(o) = &mut perm.body {
        o.insert("visibility", Json::str("public"));
    }
    let r = dispatch(&mut s, &perm);
    assert_eq!(r.status, 200);

    // Bob submits a query asynchronously and polls (§3.3).
    let r = dispatch(
        &mut s,
        &post(
            "/api/queries",
            &[("user", "bob"), ("sql", "SELECT * FROM ada.mean_levels ORDER BY station")],
        ),
    );
    assert_eq!(r.status, 201);
    let id = r.body.get("id").unwrap().as_f64().unwrap() as u64;
    s.wait_for_job(id, std::time::Duration::from_secs(10)).unwrap();
    let r = dispatch(&mut s, &Request::get(format!("/api/queries/{id}")));
    assert_eq!(r.body.get("status").unwrap().as_str(), Some("complete"));
    let r = dispatch(&mut s, &Request::get(format!("/api/queries/{id}/results")));
    assert_eq!(r.status, 200);
    let rows = r.body.get("rows").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), 2);
    assert!(r.body.get("plan").unwrap().get("physicalOp").is_some());

    // A failing query surfaces through the handle, not as a 500.
    let r = dispatch(
        &mut s,
        &post("/api/queries", &[("user", "bob"), ("sql", "SELECT nope FROM ada.mean_levels")]),
    );
    let id = r.body.get("id").unwrap().as_f64().unwrap() as u64;
    s.wait_for_job(id, std::time::Duration::from_secs(10)).unwrap();
    let r = dispatch(&mut s, &Request::get(format!("/api/queries/{id}")));
    assert_eq!(r.body.get("status").unwrap().as_str(), Some("failed"));
    assert!(r.body.get("error").is_some());

    // Append another batch via REST.
    let r = dispatch(
        &mut s,
        &post(
            "/api/datasets",
            &[("user", "ada"), ("name", "tides_b2"), ("content", "station,level\n3,1.9\n")],
        ),
    );
    assert_eq!(r.status, 201);
    let r = dispatch(
        &mut s,
        &post(
            "/api/datasets/ada/tides/append",
            &[("user", "ada"), ("sourceOwner", "ada"), ("sourceName", "tides_b2")],
        ),
    );
    assert_eq!(r.status, 200, "{:?}", r.body.to_string());

    // Download the full CSV.
    let r = dispatch(&mut s, &Request::get("/api/datasets/ada/tides/download?user=ada"));
    assert_eq!(r.status, 200);
    let csv = r.body.get("csv").unwrap().as_str().unwrap();
    assert_eq!(csv.lines().count(), 5); // header + 4 rows after append

    // Delete.
    let r = dispatch(
        &mut s,
        &Request::delete("/api/datasets/ada/tides_b2", body(&[("user", "bob")])),
    );
    assert_eq!(r.status, 403);
    let r = dispatch(
        &mut s,
        &Request::delete("/api/datasets/ada/tides_b2", body(&[("user", "ada")])),
    );
    assert_eq!(r.status, 200);
}

#[test]
fn rest_cache_stats_and_cache_hit_flag() {
    let mut s = SqlShare::new();
    dispatch(&mut s, &post("/api/users", &[("username", "ada"), ("email", "a@uw.edu")]));
    let r = dispatch(
        &mut s,
        &post(
            "/api/datasets",
            &[("user", "ada"), ("name", "tides"), ("content", "station,level\n1,2.5\n2,3.1\n")],
        ),
    );
    assert_eq!(r.status, 201);

    let run = |s: &mut SqlShare| {
        let r = dispatch(
            s,
            &post("/api/queries", &[("user", "ada"), ("sql", "SELECT COUNT(*) FROM ada.tides")]),
        );
        let id = r.body.get("id").unwrap().as_f64().unwrap() as u64;
        s.wait_for_job(id, std::time::Duration::from_secs(10)).unwrap();
        dispatch(s, &Request::get(format!("/api/queries/{id}/results")))
    };
    let cold = run(&mut s);
    assert_eq!(cold.body.get("cacheHit"), Some(&Json::Bool(false)));
    let warm = run(&mut s);
    assert_eq!(warm.body.get("cacheHit"), Some(&Json::Bool(true)));
    assert_eq!(cold.body.get("rows"), warm.body.get("rows"));

    let r = dispatch(&mut s, &Request::get("/api/cache"));
    assert_eq!(r.status, 200);
    assert!(r.body.get("resultHits").unwrap().as_f64().unwrap() >= 1.0);
    assert!(r.body.get("resultMisses").unwrap().as_f64().unwrap() >= 1.0);
    let ada = r.body.get("tenants").unwrap().get("ada").unwrap();
    assert!(ada.get("hits").unwrap().as_f64().unwrap() >= 1.0);
}

#[test]
fn rest_error_statuses() {
    let mut s = SqlShare::new();
    assert_eq!(dispatch(&mut s, &Request::get("/api/unknown")).status, 404);
    assert_eq!(
        dispatch(&mut s, &post("/api/datasets", &[("user", "ghost")])).status,
        400
    );
    assert_eq!(
        dispatch(
            &mut s,
            &post("/api/queries", &[("user", "ghost"), ("sql", "SELECT 1")])
        )
        .status,
        400
    );
    assert_eq!(
        dispatch(&mut s, &Request::get("/api/queries/notanumber")).status,
        400
    );
    assert_eq!(dispatch(&mut s, &Request::get("/api/queries/99")).status, 400);
}

#[test]
fn readiness_endpoint_and_recovery_gate() {
    let mut s = SqlShare::new();
    // An ephemeral, fully-started service is ready.
    let r = dispatch(&mut s, &Request::get("/api/ready"));
    assert_eq!(r.status, 200);
    assert_eq!(r.body.get("ready"), Some(&Json::Bool(true)));

    // While recovery is replaying, every route except the probe 503s.
    s.set_recovering(true);
    let r = dispatch(&mut s, &Request::get("/api/datasets"));
    assert_eq!(r.status, 503);
    let r = dispatch(&mut s, &post("/api/users", &[("username", "ada"), ("email", "a@uw.edu")]));
    assert_eq!(r.status, 503);
    let r = dispatch(&mut s, &Request::get("/api/ready"));
    assert_eq!(r.status, 503);
    assert_eq!(r.body.get("ready"), Some(&Json::Bool(false)));

    s.set_recovering(false);
    let r = dispatch(&mut s, &Request::get("/api/datasets"));
    assert_eq!(r.status, 200);
}

#[test]
fn every_error_kind_maps_to_a_deliberate_status() {
    // One instance of every Error variant; if a variant is added, the
    // distinct-kinds count below forces this table to grow with it.
    let table = [
        (Error::Parse(String::new()), 400),
        (Error::Binding(String::new()), 400),
        (Error::Plan(String::new()), 400),
        (Error::Request(String::new()), 400),
        (Error::Json(String::new()), 400),
        (Error::Ingest(String::new()), 400),
        (Error::Permission(String::new()), 403),
        (Error::Catalog(String::new()), 404),
        // The server's deadline expired mid-query: a gateway-style
        // timeout (504), not a slow client request (408).
        (Error::Timeout(String::new()), 504),
        (Error::Cancelled(String::new()), 409),
        // A well-formed query that failed at runtime is the client's
        // problem (unprocessable), not a server fault.
        (Error::Execution(String::new()), 422),
        // Resource pressure: quota, admission control, memory budget.
        (Error::Quota(String::new()), 429),
        (Error::Overloaded(String::new()), 429),
        (Error::ResourceExhausted(String::new()), 429),
        // Contained panics are genuine server faults.
        (Error::Internal(String::new()), 500),
        // A standby (or fenced ex-primary) refusing a write is
        // retryable service unavailability, not a client mistake: 503
        // plus Retry-After steers the client to back off and re-probe
        // for the current primary.
        (Error::ReadOnly(String::new()), 503),
        // Bytes that fail their check on read-back (a spill file) are
        // the medium's failure, not the request's — retryable (503 +
        // Retry-After), and deliberately NOT a generic 500.
        (Error::Corrupt(String::new()), 503),
    ];
    let mut kinds: Vec<&str> = table.iter().map(|(e, _)| e.kind()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert_eq!(kinds.len(), table.len(), "table repeats a kind");
    for (err, want) in &table {
        assert_eq!(
            status_for_kind(err.kind()),
            *want,
            "kind '{}' mapped unexpectedly",
            err.kind()
        );
    }
}

/// What a route does, which decides its lock and who answers it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Does {
    /// Journals a mutation: the write lock, the primary only.
    Write,
    /// Runs a query (logs an entry, ticks the clock): the read lock,
    /// the primary only.
    Query,
    Read,
}

/// One sample request per route of `rest.rs`'s table. The lock decision
/// itself is the compiler's (a route is a `WriteRoute`, a `QueryRoute`
/// or a `ReadRoute`, and each handler takes one of them); this table
/// pins what the surface looks like from outside.
fn route_samples() -> Vec<(Does, Request)> {
    use sqlshare_core::rest::Method;
    let with = |method: Method, path: &str, pairs: &[(&str, &str)]| Request {
        method,
        path: path.to_string(),
        body: body(pairs),
    };
    vec![
        (Does::Write, post("/api/users", &[("username", "cy"), ("email", "c@uw.edu")])),
        (Does::Write, post("/api/datasets", &[("user", "ada"), ("name", "more"), ("content", "a\n1\n")])),
        (Does::Write, post("/api/views", &[("user", "ada"), ("name", "v"), ("sql", "SELECT a FROM tides")])),
        (
            Does::Write,
            post(
                "/api/datasets/ada/tides/append",
                &[("user", "ada"), ("sourceOwner", "ada"), ("sourceName", "tides")],
            ),
        ),
        (Does::Write, post("/api/datasets/ada/tides/permissions", &[("user", "ada")])),
        (Does::Write, with(Method::Delete, "/api/datasets/ada/tides", &[("user", "bob")])),
        (Does::Query, post("/api/queries", &[("user", "ada"), ("sql", "SELECT COUNT(*) FROM tides")])),
        (Does::Query, Request::get("/api/datasets/ada/tides/download?user=ada")),
        (Does::Read, Request::get("/api/ready")),
        (Does::Read, Request::get("/api/integrity")),
        (Does::Read, Request::get("/api/scheduler")),
        (Does::Read, Request::get("/api/cache")),
        (Does::Read, Request::get("/api/datasets")),
        (Does::Read, Request::get("/api/datasets/ada/tides?user=ada")),
        (Does::Read, Request::get("/api/queries/1")),
        (Does::Read, Request::get("/api/queries/1/results")),
        (Does::Read, post("/api/queries/1/cancel", &[("user", "ada")])),
    ]
}

fn service_with_tides() -> SqlShare {
    let mut s = SqlShare::new();
    dispatch(&mut s, &post("/api/users", &[("username", "ada"), ("email", "a@uw.edu")]));
    let r = dispatch(
        &mut s,
        &post("/api/datasets", &[("user", "ada"), ("name", "tides"), ("content", "a,b\n1,2\n")]),
    );
    assert_eq!(r.status, 201);
    s
}

/// `is_mutation` and the two dispatchers agree over the whole surface,
/// and each of the two gates a request meets first — a recovering node
/// answers only the readiness probe, a standby answers only what writes
/// nothing — holds on every route, before the request is even validated.
#[test]
fn every_route_takes_its_lock_and_passes_the_two_gates() {
    use sqlshare_core::rest::{dispatch_read, is_mutation};

    let samples = route_samples();
    assert_eq!(samples.len(), 17, "one sample per row of the route table");
    let s = service_with_tides();
    for (does, request) in &samples {
        let label = format!("{:?} {}", request.method, request.path);
        assert_eq!(is_mutation(request.method, &request.path), *does == Does::Write, "{label}");
        // Misrouting a mutation to the read path must be a loud 500,
        // never a silent no-op or a confusing client error.
        let read_status = dispatch_read(&s, request).status;
        assert_eq!(read_status == 500, *does == Does::Write, "{label}: {read_status}");
    }
    // The predicate ignores query strings: routing must not change
    // because a client tacked on parameters.
    assert!(is_mutation(sqlshare_core::rest::Method::Post, "/api/views?foo=1"));
    assert!(!is_mutation(sqlshare_core::rest::Method::Post, "/api/queries?foo=1"));

    // A standby: 503 `read-only` on everything that writes — bodies
    // valid or not — and a normal answer on everything else.
    let mut standby = service_with_tides();
    standby.demote(0);
    let lsn = standby.last_lsn();
    for (does, request) in &samples {
        let label = format!("standby {:?} {}", request.method, request.path);
        let empty = Request { body: Json::Null, ..request.clone() };
        for request in [request, &empty] {
            let r = dispatch(&mut standby, request);
            if *does == Does::Read {
                assert_ne!(r.status, 503, "{label}");
            } else {
                assert_eq!(r.status, 503, "{label}");
                assert_eq!(r.body.get("kind").and_then(Json::as_str), Some("read-only"), "{label}");
            }
        }
        if *does != Does::Write {
            let shared = dispatch_read(&standby, request).status;
            assert_eq!(shared == 503, *does == Does::Query, "{label} under the read lock");
        }
    }
    assert_eq!(standby.last_lsn(), lsn);
    assert!(standby.log().is_empty(), "a standby's own query reached its log");

    // A recovering node: 503 on every route but the probe, under either
    // lock (the probe itself reports not-ready with a 503 of its own).
    let mut recovering = service_with_tides();
    recovering.set_recovering(true);
    for (_, request) in &samples {
        let label = format!("recovering {:?} {}", request.method, request.path);
        let exclusive = dispatch(&mut recovering, request);
        assert_eq!(exclusive.status, 503, "{label}");
        assert_eq!(dispatch_read(&recovering, request).status, 503, "{label}");
        let is_probe = request.path == "/api/ready";
        assert_eq!(exclusive.body.get("ready").is_some(), is_probe, "{label}");
    }
}
