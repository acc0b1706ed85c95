//! Report registry: ids → sections, read by `run`, `run_all` and `list`.

use crate::{experiments, stamp, Workbench};
use sqlshare_common::json::Json;

/// A report section, rendered from the workbench.
pub type Section = fn(&Workbench) -> String;

/// Every section, in paper order, then the timing sections no
/// `benchmark/` workload covers.
pub const REPORTS: &[(&str, Section)] = &[
    ("summary", experiments::summary),
    ("table2", experiments::table2),
    ("fig4", experiments::fig4),
    ("sec51", experiments::sec51),
    ("sec52", experiments::sec52),
    ("sec53", experiments::sec53),
    ("fig6", experiments::fig6),
    ("fig7", experiments::fig7),
    ("fig8", experiments::fig8),
    ("fig9", experiments::fig9),
    ("fig10", experiments::fig10),
    ("table3", experiments::table3),
    ("table4", experiments::table4),
    ("reuse", experiments::reuse),
    ("fig11", experiments::fig11),
    ("fig12", experiments::fig12),
    ("fig13", experiments::fig13),
    ("diversity", experiments::diversity),
    ("scheduler", experiments::scheduler),
    ("parallelism", experiments::parallelism),
    ("ablations", experiments::ablations),
];

/// Run one section by id.
pub fn run(id: &str, wb: &Workbench) -> Option<String> {
    REPORTS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|(_, section)| section(wb))
}

/// Run every section and concatenate the report under a stamped header.
pub fn run_all(wb: &Workbench) -> String {
    let mut out = String::from("# SQLShare reproduction — regenerated tables and figures\n");
    out.push_str(&format!(
        "\nGenerated with seed {} at scale {:.3} (1.0 = paper scale).\nStamp: {}\n",
        wb.config.seed,
        wb.config.scale,
        stamp([
            ("seed", Json::num(wb.config.seed as f64)),
            ("scale", Json::num(wb.config.scale)),
        ]),
    ));
    for (_, section) in REPORTS {
        out.push_str(&section(wb));
    }
    out
}

/// What `sqlshare-report list` prints.
pub fn list() -> String {
    let mut out = String::from("available experiments:\n");
    for (id, _) in REPORTS {
        out.push_str(&format!("  {id}\n"));
    }
    out
}
