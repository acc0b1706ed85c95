//! The engine modes every hand-written suite runs under, in-process.
//!
//! A test crate includes this file; [`in_every_mode!`] compiles a
//! suite's test file once per entry of [`MODES`], each copy in a module
//! named after its mode (`dop1::inner_join_and_plan`), and the suite's
//! one engine helper asks `mode()`. Every hand-written expectation is
//! thereby held against every executor — the row interpreter included,
//! which is otherwise only the reference side of the differentials.

use sqlshare_engine::cache::DEFAULT_HOT_VIEW_THRESHOLD;
use sqlshare_engine::Engine;

#[derive(Debug)]
pub struct Mode {
    pub name: &'static str,
    /// `None`: `Engine::new()`'s cap, the CPUs the test may run on.
    max_dop: Option<usize>,
    /// Plan-cost threshold 0: every eligible plan goes parallel however
    /// small its tables (the morsel executor on hand-sized inputs).
    force_parallel: bool,
    result_cache: bool,
    vectorized: bool,
}

const DEFAULT: Mode = Mode {
    name: "default",
    max_dop: None,
    force_parallel: false,
    result_cache: true,
    vectorized: true,
};

pub const MODES: [Mode; 5] = [
    DEFAULT,
    Mode { name: "dop1", max_dop: Some(1), ..DEFAULT },
    Mode { name: "dop4_forced", max_dop: Some(4), force_parallel: true, ..DEFAULT },
    Mode { name: "cache_off", result_cache: false, ..DEFAULT },
    Mode { name: "row", vectorized: false, ..DEFAULT },
];

impl Mode {
    pub fn named(name: &str) -> &'static Mode {
        MODES
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no mode named {name}"))
    }

    /// An empty engine in this mode.
    pub fn engine(&self) -> Engine {
        let mut e = Engine::new();
        if let Some(dop) = self.max_dop {
            e.set_max_dop(dop);
        }
        if self.force_parallel {
            e.set_parallelism_cost_threshold(0.0);
        }
        if !self.result_cache {
            e.set_cache_config(0, DEFAULT_HOT_VIEW_THRESHOLD);
        }
        e.set_vectorized(self.vectorized);
        e
    }
}

/// `in_every_mode!("suite/cases.rs")`: one module per mode, holding the
/// file's tests and a `mode()`, and a test that the modules are exactly
/// [`MODES`] (module names cannot be computed from a `const`).
macro_rules! in_every_mode {
    ($file:literal) => {
        in_modes!($file: default dop1 dop4_forced cache_off row);

        #[test]
        fn every_mode_is_instantiated() {
            assert_eq!(
                crate::modes::MODES.map(|m| m.name),
                ["default", "dop1", "dop4_forced", "cache_off", "row"]
            );
        }
    };
}

/// `in_modes!("suite/cases.rs": dop1 row)`: the file's tests once per
/// listed mode, each copy in a module named after it.
macro_rules! in_modes {
    ($file:literal: $($mode:ident)*) => {
        $(mod $mode {
            fn mode() -> &'static crate::modes::Mode {
                crate::modes::Mode::named(stringify!($mode))
            }
            include!($file);
        })*
    };
}
