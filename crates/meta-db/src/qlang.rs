//! A small textual query language over the meta-database.
//!
//! Section 2: configurations "can be used to store results of volume
//! queries … or can be made as a result of a query, in which case they will
//! be a non-hierarchical set of data". A stored query needs a storable
//! representation; this module provides it as whitespace-separated,
//! AND-combined terms:
//!
//! | term | meaning |
//! |---|---|
//! | `view=schematic` | the OID's view type matches |
//! | `block=cpu` | the OID's block name matches |
//! | `version=3` / `version!=3` | exact version (mis)match |
//! | `version>=2` / `version<=2` | version bounds |
//! | `latest` | only the newest version of each `(block, view)` chain |
//! | `prop.uptodate=false` | property equals the atom (loose comparison) |
//! | `prop.drc_result!=good` | property differs (or is absent) |
//! | `has.lvs_result` | property present, any value |
//! | `stale.uptodate` | property present and not truthy |
//!
//! # Example
//!
//! ```
//! use damocles_meta::{MetaDb, Oid, Value, qlang::Query};
//!
//! # fn main() -> Result<(), damocles_meta::MetaError> {
//! let mut db = MetaDb::new();
//! let a = db.create_oid(Oid::new("cpu", "schematic", 1))?;
//! db.set_prop(a, "uptodate", Value::Bool(false))?;
//! let q: Query = "view=schematic stale.uptodate".parse()?;
//! assert_eq!(q.run(&db), vec![a]);
//! # Ok(())
//! # }
//! ```

use std::str::FromStr;

use crate::config::{Configuration, ConfigurationBuilder};
use crate::db::{MetaDb, OidEntry, OidId};
use crate::error::MetaError;
use crate::property::Value;

/// One AND-term of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// `view=<name>`
    ViewIs(String),
    /// `block=<name>`
    BlockIs(String),
    /// `version<op><n>`
    Version {
        /// Comparison operator.
        op: VersionOp,
        /// Right-hand side.
        value: u32,
    },
    /// `latest`
    Latest,
    /// `prop.<name>=<atom>` / `prop.<name>!=<atom>`
    Prop {
        /// Property name.
        name: String,
        /// Expected atom.
        expected: String,
        /// True for `!=`.
        negated: bool,
    },
    /// `has.<name>`
    Has(String),
    /// `stale.<name>` — present and not truthy.
    Stale(String),
}

/// Version comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum VersionOp {
    Eq,
    Ne,
    Ge,
    Le,
}

/// A parsed query: AND of all terms.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Query {
    terms: Vec<Term>,
}

impl Query {
    /// The parsed terms.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Whether `entry` (at address `id`) matches every term.
    pub fn matches(&self, db: &MetaDb, id: OidId, entry: &OidEntry) -> bool {
        self.terms.iter().all(|term| match term {
            Term::ViewIs(v) => entry.oid.view.as_str() == v,
            Term::BlockIs(b) => entry.oid.block.as_str() == b,
            Term::Version { op, value } => {
                let v = entry.oid.version;
                match op {
                    VersionOp::Eq => v == *value,
                    VersionOp::Ne => v != *value,
                    VersionOp::Ge => v >= *value,
                    VersionOp::Le => v <= *value,
                }
            }
            Term::Latest => db.chain_of_oid(&entry.oid).last().map(|&(_, l)| l) == Some(id),
            Term::Prop {
                name,
                expected,
                negated,
            } => {
                let matches = entry
                    .props
                    .get(name)
                    .is_some_and(|v| v.loose_eq(&Value::from_atom(expected)));
                matches != *negated
            }
            Term::Has(name) => entry.props.contains(name),
            Term::Stale(name) => entry.props.get(name).is_some_and(|v| !v.is_truthy()),
        })
    }

    /// Runs the query, returning matching addresses in address order.
    ///
    /// When the query contains a positive literal compare
    /// (`prop.<name>=<atom>`), the candidate set is seeded from the
    /// database's `(property, value)` secondary index instead of scanning
    /// every live OID — O(hits on that term) instead of O(db). The
    /// remaining terms filter the candidates as usual.
    pub fn run(&self, db: &MetaDb) -> Vec<OidId> {
        let seed = self.terms.iter().find_map(|t| match t {
            Term::Prop {
                name,
                expected,
                negated: false,
            } => Some(
                crate::query::ProjectQuery::new(db)
                    .where_prop_eq(name, &Value::from_atom(expected)),
            ),
            _ => None,
        });
        let mut out: Vec<OidId> = match seed {
            Some(candidates) => candidates
                .into_iter()
                .filter(|id| {
                    db.entry(*id)
                        .is_ok_and(|entry| self.matches(db, *id, entry))
                })
                .collect(),
            None => db
                .iter_oids()
                .filter(|(id, entry)| self.matches(db, *id, entry))
                .map(|(id, _)| id)
                .collect(),
        };
        out.sort();
        out
    }

    /// Runs the query into a stored [`Configuration`] — the paper's
    /// "result of a query" configuration.
    pub fn into_configuration(&self, db: &MetaDb, name: impl Into<String>) -> Configuration {
        ConfigurationBuilder::new(db)
            .query(|entry| {
                // ConfigurationBuilder::query has no address; re-resolve.
                db.resolve(&entry.oid)
                    .is_some_and(|id| self.matches(db, id, entry))
            })
            .build(name)
    }
}

impl FromStr for Query {
    type Err = MetaError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason: String| MetaError::QueryParse {
            reason,
            input: s.to_string(),
        };
        let mut terms = Vec::new();
        for word in s.split_whitespace() {
            if word == "latest" {
                terms.push(Term::Latest);
            } else if let Some(rest) = word.strip_prefix("view=") {
                terms.push(Term::ViewIs(rest.to_string()));
            } else if let Some(rest) = word.strip_prefix("block=") {
                terms.push(Term::BlockIs(rest.to_string()));
            } else if let Some(rest) = word.strip_prefix("version") {
                let (op, num) = if let Some(n) = rest.strip_prefix(">=") {
                    (VersionOp::Ge, n)
                } else if let Some(n) = rest.strip_prefix("<=") {
                    (VersionOp::Le, n)
                } else if let Some(n) = rest.strip_prefix("!=") {
                    (VersionOp::Ne, n)
                } else if let Some(n) = rest.strip_prefix('=') {
                    (VersionOp::Eq, n)
                } else {
                    return Err(err(format!("bad version term `{word}`")));
                };
                let value: u32 = num
                    .parse()
                    .map_err(|_| err(format!("`{num}` is not a version number")))?;
                terms.push(Term::Version { op, value });
            } else if let Some(rest) = word.strip_prefix("prop.") {
                let (name, expected, negated) = if let Some((n, v)) = rest.split_once("!=") {
                    (n, v, true)
                } else if let Some((n, v)) = rest.split_once('=') {
                    (n, v, false)
                } else {
                    return Err(err(format!("bad prop term `{word}` (need `=` or `!=`)")));
                };
                if name.is_empty() {
                    return Err(err(format!("empty property name in `{word}`")));
                }
                terms.push(Term::Prop {
                    name: name.to_string(),
                    expected: expected.to_string(),
                    negated,
                });
            } else if let Some(rest) = word.strip_prefix("has.") {
                if rest.is_empty() {
                    return Err(err("empty property name in `has.`".to_string()));
                }
                terms.push(Term::Has(rest.to_string()));
            } else if let Some(rest) = word.strip_prefix("stale.") {
                if rest.is_empty() {
                    return Err(err("empty property name in `stale.`".to_string()));
                }
                terms.push(Term::Stale(rest.to_string()));
            } else {
                return Err(err(format!("unrecognized query term `{word}`")));
            }
        }
        Ok(Query { terms })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::Oid;

    fn sample_db() -> MetaDb {
        let mut db = MetaDb::new();
        for (block, view, version, fresh) in [
            ("cpu", "schematic", 1, true),
            ("cpu", "schematic", 2, false),
            ("reg", "schematic", 1, true),
            ("cpu", "layout", 1, false),
        ] {
            let id = db.create_oid(Oid::new(block, view, version)).unwrap();
            db.set_prop(id, "uptodate", Value::Bool(fresh)).unwrap();
        }
        let lay = db.resolve(&Oid::new("cpu", "layout", 1)).unwrap();
        db.set_prop(lay, "drc_result", Value::from_atom("bad"))
            .unwrap();
        db
    }

    fn run(db: &MetaDb, q: &str) -> Vec<String> {
        let query: Query = q.parse().unwrap();
        query
            .run(db)
            .into_iter()
            .map(|id| db.oid(id).unwrap().to_string())
            .collect()
    }

    #[test]
    fn view_and_block_terms() {
        let db = sample_db();
        assert_eq!(run(&db, "view=layout"), vec!["cpu,layout,1"]);
        assert_eq!(
            run(&db, "block=cpu view=schematic"),
            vec!["cpu,schematic,1", "cpu,schematic,2"]
        );
    }

    #[test]
    fn version_terms() {
        let db = sample_db();
        assert_eq!(run(&db, "version>=2"), vec!["cpu,schematic,2"]);
        assert_eq!(run(&db, "view=schematic version=1").len(), 2);
        assert_eq!(
            run(&db, "view=schematic version!=1"),
            vec!["cpu,schematic,2"]
        );
        assert_eq!(run(&db, "version<=1").len(), 3);
    }

    #[test]
    fn latest_term() {
        let db = sample_db();
        let latest = run(&db, "view=schematic latest");
        assert_eq!(latest, vec!["cpu,schematic,2", "reg,schematic,1"]);
    }

    #[test]
    fn prop_terms() {
        let db = sample_db();
        assert_eq!(
            run(&db, "prop.uptodate=false"),
            vec!["cpu,schematic,2", "cpu,layout,1"]
        );
        // != also matches objects lacking the property entirely.
        assert_eq!(run(&db, "prop.drc_result!=good").len(), 4);
        assert_eq!(run(&db, "has.drc_result"), vec!["cpu,layout,1"]);
        assert_eq!(
            run(&db, "stale.uptodate"),
            vec!["cpu,schematic,2", "cpu,layout,1"]
        );
    }

    #[test]
    fn indexed_literal_compare_agrees_with_scan() {
        let db = sample_db();
        // `prop.uptodate=false` takes the index-seeded path; combined terms
        // still filter the seeded candidates.
        assert_eq!(
            run(&db, "prop.uptodate=false view=schematic"),
            vec!["cpu,schematic,2"]
        );
        assert_eq!(run(&db, "prop.drc_result=bad latest"), vec!["cpu,layout,1"]);
        // Stringly-stored numbers still hit through loose comparison.
        let mut db2 = MetaDb::new();
        let a = db2.create_oid(Oid::new("x", "v", 1)).unwrap();
        db2.set_prop(a, "n", Value::Str("4".into())).unwrap();
        assert_eq!(run(&db2, "prop.n=4"), vec!["x,v,1"]);
    }

    #[test]
    fn empty_query_matches_everything() {
        let db = sample_db();
        assert_eq!(run(&db, "").len(), 4);
        assert_eq!(run(&db, "   ").len(), 4);
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "bogus",
            "version~3",
            "versionx",
            "prop.name",
            "prop.=x",
            "has.",
            "stale.",
            "version=abc",
        ] {
            assert!(bad.parse::<Query>().is_err(), "should reject `{bad}`");
        }
    }

    #[test]
    fn query_into_configuration() {
        let db = sample_db();
        let q: Query = "stale.uptodate".parse().unwrap();
        let cfg = q.into_configuration(&db, "stale-set");
        assert_eq!(cfg.name(), "stale-set");
        assert_eq!(cfg.oid_count(), 2);
        // Configurations pin the result: freshening an object later does not
        // change the stored set.
        let mut db2 = db.clone();
        let id = db2.resolve(&Oid::new("cpu", "schematic", 2)).unwrap();
        db2.set_prop(id, "uptodate", Value::Bool(true)).unwrap();
        assert_eq!(cfg.oid_count(), 2);
    }
}
