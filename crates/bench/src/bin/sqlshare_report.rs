//! `sqlshare-report` — regenerate the paper's tables and figures, and
//! every other checked-in number.
//!
//! ```text
//! sqlshare-report all [--scale X] [--seed N]     # everything, paper order
//! sqlshare-report table3 fig9 ...                # specific sections
//! sqlshare-report list                           # available ids
//! ```
//!
//! `--scale 1.0` reproduces paper scale (591 users / 24k SQLShare queries
//! / 70k SDSS queries at 1:100); the default is 0.25, which preserves all
//! shapes and runs in seconds.

use sqlshare_bench::{reports, Workbench};
use sqlshare_wlgen::GeneratorConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = 0.25f64;
    let mut seed = GeneratorConfig::paper().seed;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale requires a number"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed requires an integer"));
            }
            "list" => {
                print!("{}", reports::list());
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: sqlshare-report <all|list|EXPERIMENT...> \
                     [--scale X] [--seed N]"
                );
                return;
            }
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        ids.push("all".to_string());
    }

    eprintln!("generating corpora (scale {scale}, seed {seed})...");
    let started = std::time::Instant::now();
    let wb = Workbench::build(GeneratorConfig { seed, scale });
    eprintln!(
        "generated {} SQLShare + {} SDSS queries in {:.1}s",
        wb.sqlshare.stats.queries_attempted,
        wb.sdss.stats.queries_attempted,
        started.elapsed().as_secs_f64()
    );

    for id in &ids {
        if id == "all" {
            print!("{}", reports::run_all(&wb));
        } else {
            match reports::run(id, &wb) {
                Some(section) => print!("{section}"),
                None => die(&format!("unknown experiment '{id}' (try 'list')")),
            }
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
