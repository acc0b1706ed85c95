//! The SDSS (Sloan Digital Sky Survey) comparison workload.
//!
//! SDSS/SkyServer is the paper's foil (§6): "a conventional database
//! application with a pre-engineered schema" whose traffic is dominated
//! by canned, application-generated queries — of 7M logged queries only
//! 3% were string-distinct and 0.3% of those formed distinct templates.
//!
//! This generator reproduces that *mechanism* at 1:100 scale: a fixed
//! astronomy schema, a small library of GUI/example templates (many
//! UDF-flavoured, matching Table 4b's `GetRangeThroughConvert` /
//! `BIT_AND` / `fPhotoTypeN` operators), instantiated with heavily
//! duplicated constants, plus a thin stream of hand-written ad hoc
//! queries.

use crate::GeneratorConfig;
use rand::rngs::StdRng;
use rand::Rng;
use sqlshare_core::{DatasetName, SqlShare, Visibility};
use sqlshare_ingest::{HeaderMode, IngestOptions};

use crate::sqlshare::GeneratedCorpus;
use crate::sqlshare::GenStats;

/// The survey owner account.
pub const SURVEY_USER: &str = "skyserver";

/// UDFs registered for SDSS queries, named after the expression operators
/// the paper observes in the SDSS plans (Table 4b).
pub const SDSS_UDFS: &[&str] = &[
    "GetRangeThroughConvert",
    "GetRangeWithMismatchedTypes",
    "BIT_AND",
    "fPhotoTypeN",
    "fSpecClassN",
    "fObjidFromSky",
    "fMagToFlux",
];

/// Generate the SDSS comparison corpus.
pub fn generate(config: &GeneratorConfig) -> GeneratedCorpus {
    let mut rng = config.rng();
    let mut service = config.service();
    let mut stats = GenStats::default();

    // --- the pre-engineered schema, loaded once -------------------------
    service
        .register_user(SURVEY_USER, "ops@sdss.org")
        .expect("fresh service");
    for udf in SDSS_UDFS {
        service.register_udf(udf);
    }
    load_survey_tables(&mut service, &mut rng, &mut stats, config);

    // A small population of portal users; the bulk of traffic is
    // application-generated on their behalf.
    let n_users = config.scaled(40, 4);
    for i in 0..n_users {
        let name = format!("skyuser{i:03}");
        service
            .register_user(&name, &format!("{name}@portal.sdss.org"))
            .expect("fresh user");
    }
    stats.users = n_users + 1;

    // --- traffic -----------------------------------------------------------
    // 7M real queries scaled 1:100.
    let n_queries = config.scaled(70_000, 400);
    let mut day = 0i32;
    for q in 0..n_queries {
        // Steady trickle across the 4.4-year window.
        if q % (n_queries / 1500 + 1).max(1) == 0 {
            service.advance_days(1);
            day += 1;
        }
        let user = format!("skyuser{:03}", rng.random_range(0..n_users));
        let sql = next_query(&mut rng);
        stats.queries_attempted += 1;
        if service.run_query(&user, &sql).is_err() {
            stats.queries_failed += 1;
        }
    }
    let _ = day;
    GeneratedCorpus { service, stats }
}

fn load_survey_tables(
    service: &mut SqlShare,
    rng: &mut StdRng,
    stats: &mut GenStats,
    config: &GeneratorConfig,
) {
    let photo_rows = config.scaled(2000, 300);
    let spec_rows = config.scaled(800, 120);

    // photoobj: the main photometric catalog.
    let mut photoobj = String::from("objid,ra,dec,type,u,g,r,i,z,flags,run,camcol\n");
    for id in 0..photo_rows {
        let ra = rng.random::<f64>() * 360.0;
        let dec = rng.random::<f64>() * 180.0 - 90.0;
        let mag = |rng: &mut StdRng| 14.0 + rng.random::<f64>() * 10.0;
        photoobj.push_str(&format!(
            "{id},{ra:.5},{dec:.5},{},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{}\n",
            rng.random_range(0..7),
            mag(rng),
            mag(rng),
            mag(rng),
            mag(rng),
            mag(rng),
            rng.random_range(0..65536),
            rng.random_range(100..800),
            rng.random_range(1..7),
        ));
    }
    // specobj: spectroscopic follow-up for a subset.
    let mut specobj = String::from("specobjid,bestobjid,ra,dec,z,class,zwarning\n");
    for sid in 0..spec_rows {
        let best = rng.random_range(0..photo_rows);
        specobj.push_str(&format!(
            "{sid},{best},{:.5},{:.5},{:.5},{},{}\n",
            rng.random::<f64>() * 360.0,
            rng.random::<f64>() * 180.0 - 90.0,
            rng.random::<f64>() * 3.0,
            ["GALAXY", "STAR", "QSO"][rng.random_range(0..3)],
            if rng.random_bool(0.9) { 0 } else { rng.random_range(1..64) },
        ));
    }
    // photoz: photometric redshift estimates.
    let mut photoz = String::from("objid,zphot,zerr\n");
    for id in 0..photo_rows / 2 {
        photoz.push_str(&format!(
            "{id},{:.5},{:.5}\n",
            rng.random::<f64>() * 2.0,
            rng.random::<f64>() * 0.1,
        ));
    }
    // field: imaging run metadata.
    let mut field = String::from("fieldid,run,camcol,quality\n");
    for fid in 0..config.scaled(200, 40) {
        field.push_str(&format!(
            "{fid},{},{},{}\n",
            rng.random_range(100..800),
            rng.random_range(1..7),
            rng.random_range(1..4),
        ));
    }

    let opts = IngestOptions {
        header: HeaderMode::Present,
        ..Default::default()
    };
    for (name, content) in [
        ("photoobj", photoobj),
        ("specobj", specobj),
        ("photoz", photoz),
        ("field", field),
    ] {
        service
            .upload(SURVEY_USER, name, &content, &opts)
            .expect("survey table loads");
        stats.uploads += 1;
        service
            .set_visibility(
                SURVEY_USER,
                &DatasetName::new(SURVEY_USER, name),
                Visibility::Public,
            )
            .expect("survey data is public");
    }
}

/// Canned templates with their *default* constants. The GUI and example
/// pages fire these verbatim, which is where SDSS's 97% duplication comes
/// from.
const CANNED: &[&str] = &[
    // Rectangular search straight from the SkyServer form defaults.
    "SELECT TOP 10 objid, ra, dec, type, u, g, r, i, z FROM skyserver.photoobj \
     WHERE ra BETWEEN 179.5 AND 180.5 AND dec BETWEEN -1.0 AND 1.0 ORDER BY ra",
    // Color-cut example query from the help pages.
    "SELECT objid, ra, dec, u - g AS ug, g - r AS gr, r - i AS ri \
     FROM skyserver.photoobj WHERE g - r > 0.5 AND u - g > 0.6 AND type = 3",
    // Spectro crossmatch example.
    "SELECT p.objid, p.ra, p.dec, p.r, s.z, s.class FROM skyserver.photoobj AS p \
     JOIN skyserver.specobj AS s ON p.objid = s.bestobjid \
     WHERE s.zwarning = 0 AND s.z BETWEEN 0.1 AND 0.3",
    // Class counts from the stats page.
    "SELECT class, COUNT(*) AS n, AVG(z) AS mean_z, MIN(z) AS zmin, MAX(z) AS zmax \
     FROM skyserver.specobj GROUP BY class ORDER BY n DESC",
    // Flag mask check via helper function.
    "SELECT TOP 100 objid, ra, dec, flags FROM skyserver.photoobj \
     WHERE BIT_AND(flags, 256) > 0.2 AND r < 22.0 ORDER BY objid",
    // Type-name helper UDF from the example gallery.
    "SELECT objid, ra, dec, fPhotoTypeN(type) AS type_name, r \
     FROM skyserver.photoobj WHERE type = 6 AND r BETWEEN 15.0 AND 19.0",
    // Range helper UDFs the form-generated templates use.
    "SELECT objid, ra, dec, r FROM skyserver.photoobj \
     WHERE GetRangeThroughConvert(ra, 100, 200) > 0.5 AND dec BETWEEN -5.0 AND 5.0",
    "SELECT objid, ra, dec, g FROM skyserver.photoobj \
     WHERE GetRangeWithMismatchedTypes(dec, 0, 30) > 0.5 AND g < 20.5",
    // Photo-z lookup example.
    "SELECT p.objid, p.ra, p.dec, pz.zphot, pz.zerr FROM skyserver.photoobj AS p \
     JOIN skyserver.photoz AS pz ON p.objid = pz.objid \
     WHERE pz.zerr < 0.02 AND pz.zphot BETWEEN 0.0 AND 1.0",
    // Run quality summary.
    "SELECT run, camcol, COUNT(*) AS n FROM skyserver.field \
     WHERE quality >= 2 GROUP BY run, camcol ORDER BY run, camcol",
    // Magnitude histogram example.
    "SELECT FLOOR(r / 1) * 1 AS rmag, COUNT(*) AS n FROM skyserver.photoobj \
     WHERE r BETWEEN 14.0 AND 24.0 GROUP BY FLOOR(r / 1) * 1 ORDER BY 1",
    // Bright objects example.
    "SELECT TOP 50 objid, ra, dec, u, g, r, i, z FROM skyserver.photoobj \
     WHERE r < 16.0 ORDER BY r",
    // Single-object lookup (Explore tool fires this constantly).
    "SELECT objid, ra, dec, type, u, g, r, i, z, flags, run, camcol \
     FROM skyserver.photoobj WHERE objid = 1237",
    "SELECT objid, ra, dec, type, u, g, r, i, z, flags, run, camcol \
     FROM skyserver.photoobj WHERE objid BETWEEN 100 AND 120",
];

fn next_query(rng: &mut StdRng) -> String {
    let roll: f64 = rng.random();
    if roll < 0.86 {
        // Verbatim canned query (exact duplicate strings dominate).
        CANNED[rng.random_range(0..CANNED.len())].to_string()
    } else if roll < 0.975 {
        // Same template, user-supplied constants.
        parameterized(rng)
    } else {
        // Hand-written ad hoc (the thin long tail).
        ad_hoc(rng)
    }
}

fn parameterized(rng: &mut StdRng) -> String {
    // Constants come from the coarse grids the GUI forms offer, so
    // different templates frequently share identical filter subtrees —
    // the source of SDSS's modest-but-real reuse potential (§6.2).
    let ra0 = (rng.random_range(0..6) * 60) as f64;
    let dec0 = (rng.random_range(0..4) * 30 - 60) as f64;
    match rng.random_range(0..12) {
        0 | 9 | 10 => format!(
            "SELECT TOP 10 objid, ra, dec FROM skyserver.photoobj \
             WHERE ra BETWEEN {ra0:.1} AND {:.1} AND dec BETWEEN {dec0:.1} AND {:.1}",
            ra0 + 60.0,
            dec0 + 30.0
        ),
        // Same rectangle, different projection/aggregation: distinct
        // strings, shared filtered-scan subtree.
        7 | 11 => format!(
            "SELECT COUNT(*) AS n FROM skyserver.photoobj \
             WHERE ra BETWEEN {ra0:.1} AND {:.1} AND dec BETWEEN {dec0:.1} AND {:.1}",
            ra0 + 60.0,
            dec0 + 30.0
        ),
        8 => format!(
            "SELECT objid, ra, dec, r FROM skyserver.photoobj \
             WHERE ra BETWEEN {ra0:.1} AND {:.1} AND dec BETWEEN {dec0:.1} AND {:.1} \
             ORDER BY r",
            ra0 + 60.0,
            dec0 + 30.0
        ),
        1 => format!(
            "SELECT objid, u - g AS ug, g - r AS gr FROM skyserver.photoobj \
             WHERE g - r > {:.2} AND type = {}",
            (rng.random_range(0..8) as f64) * 0.25,
            rng.random_range(0..7)
        ),
        2 => format!(
            "SELECT TOP {} objid, r FROM skyserver.photoobj WHERE r < {:.1} ORDER BY r",
            [10, 50, 100][rng.random_range(0..3)],
            15.0 + rng.random_range(0..12) as f64 * 0.5
        ),
        3 => format!(
            "SELECT p.objid, s.z FROM skyserver.photoobj AS p \
             JOIN skyserver.specobj AS s ON p.objid = s.bestobjid \
             WHERE s.z BETWEEN {:.2} AND {:.2}",
            rng.random_range(0..5) as f64 * 0.2,
            1.0 + rng.random_range(0..5) as f64 * 0.2
        ),
        4 => format!(
            "SELECT objid, flags FROM skyserver.photoobj WHERE BIT_AND(flags, {}) > 0.2",
            [16, 64, 256, 4096][rng.random_range(0..4)]
        ),
        5 => format!(
            "SELECT objid, ra FROM skyserver.photoobj \
             WHERE GetRangeThroughConvert(ra, {}, {}) > {:.1}",
            rng.random_range(0..6) * 30,
            180 + rng.random_range(0..6) * 30,
            rng.random_range(0..8) as f64 * 0.1
        ),
        6 => format!(
            "SELECT class, AVG(z) AS mean_z FROM skyserver.specobj \
             WHERE zwarning = {} GROUP BY class",
            rng.random_range(0..4)
        ),
        _ => format!(
            "SELECT objid, ra, dec, type, u, g, r, i, z, flags, run, camcol \
             FROM skyserver.photoobj WHERE objid = {}",
            rng.random_range(0..2000)
        ),
    }
}

fn ad_hoc(rng: &mut StdRng) -> String {
    match rng.random_range(0..6) {
        0 => format!(
            "SELECT COUNT(*) FROM skyserver.photoobj WHERE camcol = {}",
            rng.random_range(1..7)
        ),
        1 => format!(
            "SELECT objid, fMagToFlux(r) AS flux FROM skyserver.photoobj WHERE run = {}",
            rng.random_range(100..800)
        ),
        2 => "SELECT s.class, COUNT(*) AS n FROM skyserver.specobj AS s \
             LEFT JOIN skyserver.photoz AS pz ON s.bestobjid = pz.objid \
             GROUP BY s.class"
            .to_string(),
        3 => format!(
            "SELECT TOP 20 objid, u, g, r, i, z FROM skyserver.photoobj \
             WHERE u - r > {:.1} ORDER BY r DESC",
            rng.random::<f64>() * 3.0
        ),
        4 => format!(
            "SELECT zwarning, MIN(z) AS zmin, MAX(z) AS zmax FROM skyserver.specobj \
             GROUP BY zwarning HAVING COUNT(*) > {}",
            rng.random_range(1..5)
        ),
        _ => format!(
            "SELECT objid FROM skyserver.photoobj WHERE objid = {}",
            rng.random_range(0..2000)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdss_corpus_generates_and_mostly_succeeds() {
        let corpus = generate(&GeneratorConfig {
            seed: 5,
            scale: 0.005,
        });
        assert!(corpus.stats.queries_attempted >= 400);
        let fail_rate =
            corpus.stats.queries_failed as f64 / corpus.stats.queries_attempted as f64;
        assert!(fail_rate < 0.02, "fail rate {fail_rate}");
    }

    #[test]
    fn duplication_dominates() {
        let corpus = generate(&GeneratorConfig {
            seed: 5,
            scale: 0.01,
        });
        let entries = corpus.service.log().entries();
        let mut sqls: Vec<&str> = entries.iter().map(|e| e.sql.as_str()).collect();
        let total = sqls.len();
        sqls.sort();
        sqls.dedup();
        let distinct_ratio = sqls.len() as f64 / total as f64;
        assert!(
            distinct_ratio < 0.35,
            "SDSS should be dominated by duplicates, got {distinct_ratio}"
        );
    }

    #[test]
    fn udfs_appear_in_successful_queries() {
        let corpus = generate(&GeneratorConfig {
            seed: 5,
            scale: 0.005,
        });
        let udf_queries = corpus
            .service
            .log()
            .entries()
            .iter()
            .filter(|e| e.outcome.is_success() && e.sql.contains("BIT_AND"))
            .count();
        assert!(udf_queries > 0);
    }
}
