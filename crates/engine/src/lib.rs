//! A from-scratch relational engine standing in for SQL Azure.
//!
//! SQLShare (the paper) ran on Microsoft SQL Azure; this crate implements
//! the slice of that backend the platform and its workload analysis
//! depend on:
//!
//! * typed [`value::Value`]s, [`schema::Schema`]s, and clustered-ordered
//!   [`table::Table`]s (every table gets the default clustered index the
//!   paper describes in §3.4);
//! * a [`catalog::Catalog`] of tables, views, and registered UDF names;
//! * a [`binder::Binder`] that resolves ASTs against the catalog (inlining
//!   view chains) into a [`logical::LogicalPlan`];
//! * a cost-based [`physical`] planner emitting SQL Server's operator
//!   vocabulary with `io`/`cpu`/`numRows` estimates ([`cost`]);
//! * a materialized [`exec`] executor with full join/aggregate/window
//!   support ([`aggregate`], [`window`], [`functions`]);
//! * [`explain`], which serializes plans to the JSON shape in the paper's
//!   Listing 1.
//!
//! ```
//! use sqlshare_engine::{Engine, Table, Schema, DataType, Value};
//!
//! let mut engine = Engine::new();
//! engine
//!     .create_table(Table::new(
//!         "incomes",
//!         Schema::from_pairs([("income", DataType::Int), ("name", DataType::Text)]),
//!         vec![
//!             vec![Value::Int(700000), Value::Text("ada".into())],
//!             vec![Value::Int(300000), Value::Text("bob".into())],
//!         ],
//!     ))
//!     .unwrap();
//! let out = engine.run("SELECT name FROM incomes WHERE income > 500000").unwrap();
//! assert_eq!(out.rows, vec![vec![Value::Text("ada".into())]]);
//! assert_eq!(out.plan.operator_names(), vec!["Clustered Index Seek"]);
//! ```

pub mod aggregate;
pub mod binder;
pub mod cache;
pub mod catalog;
pub mod cost;
pub mod engine;
pub mod exec;
pub mod explain;
pub mod expr;
pub mod faults;
pub(crate) mod hashtable;
pub mod functions;
pub mod logical;
pub mod memory;
pub mod optimizer;
pub mod parallel;
pub mod physical;
pub mod schema;
pub mod spill;
pub mod table;
pub mod value;
pub mod vector;
pub mod vexec;
pub mod window;

pub use cache::{CacheStats, QueryCache};
pub use catalog::Catalog;
pub use engine::{Engine, PreparedQuery, QueryOutput};
pub use exec::ExecGuard;
pub use faults::{FaultPlan, FaultSite};
pub use memory::{MemoryBudget, MemoryPool};
pub use schema::{Column, Schema};
pub use table::Table;
pub use value::{DataType, Row, Value};
