//! Deterministic, human-readable dumps of the meta-database.
//!
//! DAMOCLES administrators lived in terminals; a stable textual rendering of
//! the whole database doubles as a golden-test format (two databases are
//! equivalent iff their dumps match) and as the CLI's `dump` output.

use std::fmt::Write;

use crate::db::MetaDb;
use crate::link::LinkClass;
use crate::property::Value;

/// Renders every live OID (sorted by triplet) with its properties, followed
/// by every live link (sorted by endpoint triplets).
///
/// The format is stable: equal databases produce byte-equal dumps.
///
/// # Example
///
/// ```
/// use damocles_meta::{dump::dump, MetaDb, Oid, Value};
///
/// # fn main() -> Result<(), damocles_meta::MetaError> {
/// let mut db = MetaDb::new();
/// let id = db.create_oid(Oid::new("cpu", "schematic", 1))?;
/// db.set_prop(id, "uptodate", Value::Bool(true))?;
/// let text = dump(&db);
/// assert!(text.contains("oid cpu,schematic,1"));
/// assert!(text.contains("uptodate = true"));
/// # Ok(())
/// # }
/// ```
pub fn dump(db: &MetaDb) -> String {
    let mut out = String::new();

    let mut oids: Vec<_> = db.iter_oids().collect();
    oids.sort_by(|a, b| a.1.oid.cmp(&b.1.oid));
    let _ = writeln!(out, "# {} oids, {} links", db.oid_count(), db.link_count());
    for (_, entry) in &oids {
        let _ = writeln!(out, "oid {}", entry.oid);
        for (name, value) in entry.props.iter() {
            let _ = writeln!(out, "  {name} = {value}");
        }
    }

    let mut links: Vec<(String, String, String, String)> = db
        .iter_links()
        .filter_map(|(_, link)| {
            let from = db.oid(link.from).ok()?;
            let to = db.oid(link.to).ok()?;
            let class = match link.class {
                LinkClass::Use => "use",
                LinkClass::Derive => "derive",
            };
            let propagates = db.event_names(link.propagates());
            Some((
                from.to_string(),
                to.to_string(),
                format!("{class}/{}", link.kind),
                propagates.join(","),
            ))
        })
        .collect();
    links.sort();
    for (from, to, kind, propagates) in links {
        let _ = writeln!(out, "link {from} -> {to} [{kind}] propagates({propagates})");
    }
    out
}

/// Line-level diff of two dumps: `(only_in_a, only_in_b)`.
pub fn diff(a: &MetaDb, b: &MetaDb) -> (Vec<String>, Vec<String>) {
    let dump_a = dump(a);
    let dump_b = dump(b);
    let set_a: std::collections::BTreeSet<&str> = dump_a.lines().collect();
    let set_b: std::collections::BTreeSet<&str> = dump_b.lines().collect();
    (
        set_a.difference(&set_b).map(|s| s.to_string()).collect(),
        set_b.difference(&set_a).map(|s| s.to_string()).collect(),
    )
}

/// Escapes a string for a double-quoted Graphviz DOT identifier — the
/// one DOT quoting rule shared by every renderer (this module's
/// [`to_dot`] and `damocles_flows::viz::blueprint_to_dot`).
pub fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the live design state as a Graphviz DOT digraph: one node per
/// OID, coloured green/red/grey by the truthiness (or absence) of
/// `state_prop`, one edge per link (use links dashed). Served by the
/// command protocol's `Dot` request; `damocles_flows::viz::db_to_dot`
/// re-exports it.
pub fn to_dot(db: &MetaDb, state_prop: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph design_state {{");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(
        out,
        "  node [shape=box, style=filled, fontname=\"monospace\"];"
    );
    for (_, entry) in db.iter_oids() {
        let color = match entry.props.get(state_prop) {
            Some(v) if v.is_truthy() => "palegreen",
            Some(_) => "lightcoral",
            None => "lightgrey",
        };
        let state = entry
            .props
            .get(state_prop)
            .map(Value::as_atom)
            .unwrap_or_else(|| "untracked".to_string());
        let _ = writeln!(
            out,
            "  \"{}\" [label=\"{}\\n{}={}\", fillcolor={}];",
            dot_escape(&entry.oid.to_string()),
            dot_escape(&entry.oid.to_string()),
            dot_escape(state_prop),
            dot_escape(&state),
            color
        );
    }
    for (_, link) in db.iter_links() {
        let (Ok(from), Ok(to)) = (db.oid(link.from), db.oid(link.to)) else {
            continue;
        };
        let style = match link.class {
            LinkClass::Use => "dashed",
            LinkClass::Derive => "solid",
        };
        let _ = writeln!(
            out,
            "  \"{}\" -> \"{}\" [label=\"{}\", style={}];",
            dot_escape(&from.to_string()),
            dot_escape(&to.to_string()),
            dot_escape(link.kind.as_keyword()),
            style
        );
    }
    out.push_str("}\n");
    out
}

/// A propagation edge that fired during a traced wave, tagged with the
/// trace step that fired it.
///
/// The meta-database knows nothing about the engine's trace format; the
/// inspector (`damocles_inspect`) maps engine `fire` trace records down to
/// this plain struct so [`to_dot_diff`] can annotate the rendered edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredLink {
    /// Source OID triplet, as rendered by `Oid::to_string`.
    pub from: String,
    /// Destination OID triplet.
    pub to: String,
    /// Event name that travelled the link.
    pub event: String,
    /// 0-based step number within the trace slice being rendered.
    pub step: u64,
}

/// Renders a before/after pair of database images as one DOT digraph —
/// the flow-inspector view of "what did this slice of history do".
///
/// Nodes come from the union of both images. A node whose property set
/// changed is outlined in orange with every changed property shown as
/// `name: old -> new` (`∅` stands for absent); created nodes are bold,
/// removed nodes dotted. Fill colour tracks `state_prop` truthiness in
/// the *after* image, exactly as in [`to_dot`]. Edges come from the
/// after image; edges matched by a [`FiredLink`] are drawn orange and
/// labelled with their trace step numbers.
pub fn to_dot_diff(
    before: &MetaDb,
    after: &MetaDb,
    state_prop: &str,
    fired: &[FiredLink],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph design_diff {{");
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(
        out,
        "  node [shape=box, style=filled, fontname=\"monospace\"];"
    );

    // Union of OID triplets, sorted for a stable rendering.
    let mut names: Vec<String> = after
        .iter_oids()
        .map(|(_, e)| e.oid.to_string())
        .chain(before.iter_oids().map(|(_, e)| e.oid.to_string()))
        .collect();
    names.sort();
    names.dedup();

    for name in &names {
        let oid: crate::oid::Oid = match name.parse() {
            Ok(o) => o,
            Err(_) => continue,
        };
        let after_id = after.resolve(&oid);
        let before_id = before.resolve(&oid);
        match (before_id, after_id) {
            (Some(_), None) => {
                // Removed between the two cursors.
                let _ = writeln!(
                    out,
                    "  \"{}\" [label=\"{}\\n(removed)\", style=\"filled,dotted\", fillcolor=white];",
                    dot_escape(name),
                    dot_escape(name),
                );
            }
            (before_id, Some(aid)) => {
                let entry = match after.entry(aid) {
                    Ok(e) => e,
                    Err(_) => continue,
                };
                let fill = match entry.props.get(state_prop) {
                    Some(v) if v.is_truthy() => "palegreen",
                    Some(_) => "lightcoral",
                    None => "lightgrey",
                };
                // Collect property-level changes against the before image.
                let mut changes: Vec<String> = Vec::new();
                for (prop, value) in entry.props.iter() {
                    let old = before_id
                        .and_then(|bid| before.get_prop(bid, prop).ok().flatten())
                        .map(Value::as_atom);
                    match old {
                        Some(old) if old == value.as_atom() => {}
                        Some(old) => changes.push(format!("{prop}: {old} -> {value}")),
                        None => changes.push(format!("{prop}: \u{2205} -> {value}")),
                    }
                }
                if let Some(bid) = before_id {
                    if let Ok(props) = before.props(bid) {
                        for (prop, old) in props.iter() {
                            if entry.props.get(prop).is_none() {
                                changes.push(format!("{prop}: {old} -> \u{2205}"));
                            }
                        }
                    }
                }
                changes.sort();
                let created = before_id.is_none();
                let mut label = dot_escape(name);
                if created {
                    label.push_str("\\n(created)");
                }
                for change in &changes {
                    label.push_str("\\n");
                    label.push_str(&dot_escape(change));
                }
                let extra = if created {
                    ", penwidth=3, color=orange, fontname=\"monospace bold\""
                } else if changes.is_empty() {
                    ""
                } else {
                    ", penwidth=3, color=orange"
                };
                let _ = writeln!(
                    out,
                    "  \"{}\" [label=\"{}\", fillcolor={}{}];",
                    dot_escape(name),
                    label,
                    fill,
                    extra
                );
            }
            (None, None) => {}
        }
    }

    let mut links: Vec<(String, String, String, &'static str)> = after
        .iter_links()
        .filter_map(|(_, link)| {
            let from = after.oid(link.from).ok()?;
            let to = after.oid(link.to).ok()?;
            let style = match link.class {
                LinkClass::Use => "dashed",
                LinkClass::Derive => "solid",
            };
            Some((
                from.to_string(),
                to.to_string(),
                link.kind.as_keyword().to_string(),
                style,
            ))
        })
        .collect();
    links.sort();
    for (from, to, kind, style) in links {
        let steps: Vec<String> = fired
            .iter()
            .filter(|f| f.from == from && f.to == to)
            .map(|f| dot_escape(&format!("step {}: {}", f.step, f.event)))
            .collect();
        if steps.is_empty() {
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [label=\"{}\", style={}];",
                dot_escape(&from),
                dot_escape(&to),
                dot_escape(&kind),
                style
            );
        } else {
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [label=\"{}\\n{}\", style={}, color=orange, penwidth=2];",
                dot_escape(&from),
                dot_escape(&to),
                dot_escape(&kind),
                steps.join("\\n"),
                style
            );
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkKind;
    use crate::oid::Oid;
    use crate::property::Value;

    fn sample() -> MetaDb {
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("cpu", "HDL_model", 1)).unwrap();
        let b = db.create_oid(Oid::new("cpu", "schematic", 1)).unwrap();
        db.set_prop(a, "sim_result", Value::from_atom("good"))
            .unwrap();
        db.add_link_with(a, b, LinkClass::Derive, LinkKind::DeriveFrom, ["outofdate"])
            .unwrap();
        db
    }

    #[test]
    fn dump_is_deterministic_and_complete() {
        let db = sample();
        let d1 = dump(&db);
        let d2 = dump(&db.clone());
        assert_eq!(d1, d2);
        assert!(d1.contains("# 2 oids, 1 links"));
        assert!(d1.contains("oid cpu,HDL_model,1"));
        assert!(d1.contains("sim_result = good"));
        assert!(d1.contains(
            "link cpu,HDL_model,1 -> cpu,schematic,1 [derive/derive_from] propagates(outofdate)"
        ));
    }

    #[test]
    fn dump_orders_by_triplet_not_insertion() {
        let mut db = MetaDb::new();
        db.create_oid(Oid::new("z", "v", 1)).unwrap();
        db.create_oid(Oid::new("a", "v", 1)).unwrap();
        let d = dump(&db);
        let a_pos = d.find("oid a,v,1").unwrap();
        let z_pos = d.find("oid z,v,1").unwrap();
        assert!(a_pos < z_pos);
    }

    #[test]
    fn dot_diff_highlights_changes_and_fired_links() {
        let before = sample();
        let mut after = sample();
        let id = after.resolve(&Oid::new("cpu", "HDL_model", 1)).unwrap();
        after
            .set_prop(id, "sim_result", Value::from_atom("bad"))
            .unwrap();
        after.create_oid(Oid::new("cpu", "netlist", 1)).unwrap();
        let fired = vec![FiredLink {
            from: "cpu,HDL_model,1".to_string(),
            to: "cpu,schematic,1".to_string(),
            event: "modified".to_string(),
            step: 3,
        }];
        let dot = to_dot_diff(&before, &after, "sim_result", &fired);
        // Changed prop shows old -> new and the node is outlined.
        assert!(dot.contains("sim_result: good -> bad"));
        assert!(dot.contains("penwidth=3, color=orange"));
        // New node is marked created.
        assert!(dot.contains("(created)"));
        // The fired link carries its step annotation and stands out.
        assert!(dot.contains("step 3: modified"));
        assert!(dot.contains("color=orange, penwidth=2"));
        // Unchanged nodes are not outlined: the schematic line has no penwidth.
        let schematic = dot
            .lines()
            .find(|l| l.contains("\"cpu,schematic,1\" [label"))
            .unwrap();
        assert!(!schematic.contains("penwidth"));
    }

    #[test]
    fn dot_diff_marks_removed_oids() {
        let before = sample();
        let mut after = sample();
        let id = after.resolve(&Oid::new("cpu", "schematic", 1)).unwrap();
        after.delete_oid(id).unwrap();
        let dot = to_dot_diff(&before, &after, "sim_result", &[]);
        assert!(dot.contains("(removed)"));
        assert!(dot.contains("style=\"filled,dotted\""));
        // Identical images produce no orange anywhere.
        let quiet = to_dot_diff(&before, &before.clone(), "sim_result", &[]);
        assert!(!quiet.contains("orange"));
        assert!(!quiet.contains("removed"));
    }

    #[test]
    fn diff_finds_changes() {
        let db_a = sample();
        let mut db_b = sample();
        let id = db_b.resolve(&Oid::new("cpu", "HDL_model", 1)).unwrap();
        db_b.set_prop(id, "sim_result", Value::from_atom("bad"))
            .unwrap();
        let (only_a, only_b) = diff(&db_a, &db_b);
        assert_eq!(only_a, vec!["  sim_result = good"]);
        assert_eq!(only_b, vec!["  sim_result = bad"]);
        let (x, y) = diff(&db_a, &db_a.clone());
        assert!(x.is_empty() && y.is_empty());
    }
}
