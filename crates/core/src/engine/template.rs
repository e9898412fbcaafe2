//! Template-rule application: the configuration half of the BluePrint.
//!
//! "Template rules are used by the BluePrint to setup new OIDs and Links as
//! they are created by design activities. Each time the BluePrint is informed
//! of a new OID being created, it finds the corresponding view in the
//! BluePrint and attaches properties and Links to the new OID." — Section 3.2.
//!
//! Two entry points:
//!
//! * [`apply_on_create`] — a new OID appeared: attach template properties
//!   (default / `copy` / `move` from the previous version, Fig. 2) and shift
//!   or duplicate `move`/`copy` links from the previous version (Fig. 3).
//! * [`instantiate_link`] — a design activity relates two OIDs: find the
//!   matching link template and attach its PROPAGATE/TYPE annotation to the
//!   new link.

use damocles_meta::{LinkClass, LinkKind, MetaDb, MetaError, OidId, Value};

use crate::engine::audit::{AuditLog, AuditRecord};
use crate::lang::ast::{Blueprint, LinkDef, LinkSource, PropertyDef, Transfer, ViewDef};

/// What [`apply_on_create`] did, for tests and audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateReport {
    /// Properties attached to the new OID.
    pub props_attached: usize,
    /// Links shifted from the previous version (`move`).
    pub links_moved: usize,
    /// Links duplicated from the previous version (`copy`).
    pub links_copied: usize,
}

/// The property templates governing `view`, default-view entries first so
/// view-specific definitions win on name collision.
fn property_templates<'bp>(bp: &'bp Blueprint, view: &str) -> Vec<&'bp PropertyDef> {
    let mut by_name: Vec<&PropertyDef> = Vec::new();
    let mut push = |def: &'bp PropertyDef| {
        if let Some(slot) = by_name.iter_mut().find(|d| d.name == def.name) {
            *slot = def;
        } else {
            by_name.push(def);
        }
    };
    if let Some(default) = bp.default_view() {
        for p in &default.properties {
            push(p);
        }
    }
    if view != "default" {
        if let Some(v) = bp.view(view) {
            for p in &v.properties {
                push(p);
            }
        }
    }
    by_name
}

/// The use-link template governing `view` (view-specific wins over default).
fn use_link_template<'bp>(bp: &'bp Blueprint, view: &str) -> Option<&'bp LinkDef> {
    bp.view(view)
        .and_then(ViewDef::use_link)
        .or_else(|| bp.default_view().and_then(ViewDef::use_link))
}

/// The `link_from` template for a derive link `from_view -> to_view`.
fn derive_link_template<'bp>(
    bp: &'bp Blueprint,
    from_view: &str,
    to_view: &str,
) -> Option<&'bp LinkDef> {
    bp.view(to_view).and_then(|v| v.link_from(from_view))
}

/// Applies template rules to a freshly created OID.
///
/// Properties are attached per their transfer mode; links incident to the
/// previous version are shifted (`move`) or duplicated (`copy`) according to
/// the template that governs each link. Links with no governing template, or
/// whose template has no transfer keyword, stay on the old version.
///
/// # Errors
///
/// Propagates database errors (stale handles); an OID whose view the
/// blueprint does not mention gets default-view properties only.
pub fn apply_on_create(
    bp: &Blueprint,
    db: &mut MetaDb,
    id: OidId,
    audit: &mut AuditLog,
) -> Result<TemplateReport, MetaError> {
    let oid = db.oid(id)?.clone();
    let predecessor = db.predecessor(&oid);
    let mut report = TemplateReport::default();

    // --- properties (Fig. 2) ---
    for def in property_templates(bp, oid.view.as_str()) {
        let value = match (def.transfer, predecessor) {
            (Transfer::Copy, Some(prev)) => db
                .get_prop(prev, &def.name)?
                .cloned()
                .unwrap_or_else(|| Value::from_atom(&def.default)),
            (Transfer::Move, Some(prev)) => db
                .remove_prop(prev, &def.name)?
                .unwrap_or_else(|| Value::from_atom(&def.default)),
            _ => Value::from_atom(&def.default),
        };
        let old = db.set_prop(id, &def.name, value.clone())?;
        audit.push(AuditRecord::Assigned {
            oid: oid.clone(),
            prop: def.name.clone(),
            old,
            new: value,
        });
        report.props_attached += 1;
    }

    // --- links (Fig. 3) ---
    if let Some(prev) = predecessor {
        let incident: Vec<_> = db
            .links_of(prev)?
            .into_iter()
            .map(|(lid, link)| (lid, link.clone()))
            .collect();
        for (link_id, link) in incident {
            let template = match link.class {
                LinkClass::Use => use_link_template(bp, oid.view.as_str()),
                LinkClass::Derive => {
                    let from_view = db.oid(link.from)?.view.to_string();
                    let to_view = db.oid(link.to)?.view.to_string();
                    derive_link_template(bp, &from_view, &to_view)
                }
            };
            match template.map(|t| t.transfer) {
                Some(Transfer::Move) => {
                    db.move_link_end(link_id, prev, id)?;
                    report.links_moved += 1;
                }
                Some(Transfer::Copy) => {
                    db.copy_link_to(link_id, prev, id)?;
                    report.links_copied += 1;
                }
                _ => {}
            }
        }
    }

    audit.push(AuditRecord::TemplateApplied {
        oid,
        props_attached: report.props_attached,
        links_moved: report.links_moved,
        links_copied: report.links_copied,
    });
    Ok(report)
}

/// Creates a link between two existing OIDs, attaching the template's
/// PROPAGATE set and TYPE.
///
/// Resolution order:
///
/// 1. same view on both ends → the view's `use_link` template (hierarchy);
/// 2. `to`'s view declares `link_from <from's view>` → that derive template;
/// 3. `from`'s view declares `link_from <to's view>` → the caller passed the
///    ends backwards; the link is created in template orientation
///    (`to → from`);
/// 4. no template → a bare derive link with an empty PROPAGATE set (the
///    non-obstructive default: the relation is recorded but carries nothing).
///
/// # Errors
///
/// Propagates database errors (stale handles, self-links).
pub fn instantiate_link(
    bp: &Blueprint,
    db: &mut MetaDb,
    from: OidId,
    to: OidId,
) -> Result<damocles_meta::LinkId, MetaError> {
    let from_view = db.oid(from)?.view.to_string();
    let to_view = db.oid(to)?.view.to_string();

    if from_view == to_view {
        let template = use_link_template(bp, &from_view);
        let propagates = template.map(|t| t.propagates.clone()).unwrap_or_default();
        return db.add_link_with(from, to, LinkClass::Use, LinkKind::Composition, propagates);
    }

    if let Some(template) = derive_link_template(bp, &from_view, &to_view) {
        let kind = kind_of(template);
        return db.add_link_with(
            from,
            to,
            LinkClass::Derive,
            kind,
            template.propagates.clone(),
        );
    }

    if let Some(template) = derive_link_template(bp, &to_view, &from_view) {
        let kind = kind_of(template);
        return db.add_link_with(
            to,
            from,
            LinkClass::Derive,
            kind,
            template.propagates.clone(),
        );
    }

    db.add_link(from, to, LinkClass::Derive, LinkKind::DeriveFrom)
}

fn kind_of(template: &LinkDef) -> LinkKind {
    template
        .kind
        .as_deref()
        .map(|k| k.parse().expect("LinkKind::from_str is infallible"))
        .unwrap_or(LinkKind::DeriveFrom)
}

/// Whether `template` matches a `link_from` declaration (used by tests).
pub fn is_link_from(template: &LinkDef, view: &str) -> bool {
    matches!(&template.source, LinkSource::View(v) if v == view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parser::parse;
    use damocles_meta::{Direction, Oid};

    fn fig2_blueprint() -> Blueprint {
        parse("blueprint f2 view GDSII property DRC default bad copy endview endblueprint").unwrap()
    }

    #[test]
    fn fig2_property_copy_across_versions() {
        // Fig. 2: <alu,GDSII,5> has DRC=ok; creating version 6 copies it.
        let bp = fig2_blueprint();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let v5 = db.create_oid(Oid::new("alu", "GDSII", 5)).unwrap();
        apply_on_create(&bp, &mut db, v5, &mut audit).unwrap();
        // First version gets the default...
        assert_eq!(db.get_prop(v5, "DRC").unwrap().unwrap().as_atom(), "bad");
        // ...designer later validates it.
        db.set_prop(v5, "DRC", Value::from_atom("ok")).unwrap();

        let v6 = db.create_oid(Oid::new("alu", "GDSII", 6)).unwrap();
        let report = apply_on_create(&bp, &mut db, v6, &mut audit).unwrap();
        assert_eq!(report.props_attached, 1);
        assert_eq!(db.get_prop(v6, "DRC").unwrap().unwrap().as_atom(), "ok");
        // copy leaves the old version annotated.
        assert_eq!(db.get_prop(v5, "DRC").unwrap().unwrap().as_atom(), "ok");
    }

    #[test]
    fn move_property_strips_the_old_version() {
        let bp = parse("blueprint t view V property tag default none move endview endblueprint")
            .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let v1 = db.create_oid(Oid::new("b", "V", 1)).unwrap();
        apply_on_create(&bp, &mut db, v1, &mut audit).unwrap();
        db.set_prop(v1, "tag", Value::from_atom("golden")).unwrap();
        let v2 = db.create_oid(Oid::new("b", "V", 2)).unwrap();
        apply_on_create(&bp, &mut db, v2, &mut audit).unwrap();
        assert_eq!(db.get_prop(v2, "tag").unwrap().unwrap().as_atom(), "golden");
        assert_eq!(db.get_prop(v1, "tag").unwrap(), None);
    }

    #[test]
    fn create_transfer_resets_to_default() {
        let bp = parse("blueprint t view V property uptodate default true endview endblueprint")
            .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let v1 = db.create_oid(Oid::new("b", "V", 1)).unwrap();
        apply_on_create(&bp, &mut db, v1, &mut audit).unwrap();
        db.set_prop(v1, "uptodate", Value::Bool(false)).unwrap();
        let v2 = db.create_oid(Oid::new("b", "V", 2)).unwrap();
        apply_on_create(&bp, &mut db, v2, &mut audit).unwrap();
        assert_eq!(
            db.get_prop(v2, "uptodate").unwrap(),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn default_view_properties_apply_to_all_views() {
        let bp = parse(
            "blueprint t view default property uptodate default true endview view V property x default y endview endblueprint",
        )
        .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let id = db.create_oid(Oid::new("b", "V", 1)).unwrap();
        let report = apply_on_create(&bp, &mut db, id, &mut audit).unwrap();
        assert_eq!(report.props_attached, 2);
        assert_eq!(
            db.get_prop(id, "uptodate").unwrap(),
            Some(&Value::Bool(true))
        );
        assert_eq!(db.get_prop(id, "x").unwrap().unwrap().as_atom(), "y");
        // Unknown views still get the default-view properties.
        let ghost = db.create_oid(Oid::new("b", "Ghost", 1)).unwrap();
        let report = apply_on_create(&bp, &mut db, ghost, &mut audit).unwrap();
        assert_eq!(report.props_attached, 1);
    }

    #[test]
    fn view_specific_property_overrides_default_view() {
        let bp = parse(
            "blueprint t view default property p default one endview view V property p default two endview endblueprint",
        )
        .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let id = db.create_oid(Oid::new("b", "V", 1)).unwrap();
        let report = apply_on_create(&bp, &mut db, id, &mut audit).unwrap();
        assert_eq!(report.props_attached, 1, "one property, view def wins");
        assert_eq!(db.get_prop(id, "p").unwrap().unwrap().as_atom(), "two");
    }

    #[test]
    fn fig3_derive_link_moves_to_new_version() {
        // Fig. 3: NetList.8 -> GDSII.5 shifts to NetList.8 -> GDSII.6.
        let bp = parse(
            "blueprint f3 view NetList endview view GDSII link_from NetList propagates OutOfDate type derive_from move endview endblueprint",
        )
        .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let nl = db.create_oid(Oid::new("alu", "NetList", 8)).unwrap();
        let g5 = db.create_oid(Oid::new("alu", "GDSII", 5)).unwrap();
        let link = instantiate_link(&bp, &mut db, nl, g5).unwrap();
        let propagates = db.link(link).unwrap().propagates();
        assert!(db.event_names(propagates).contains(&"OutOfDate"));

        let g6 = db.create_oid(Oid::new("alu", "GDSII", 6)).unwrap();
        let report = apply_on_create(&bp, &mut db, g6, &mut audit).unwrap();
        assert_eq!(report.links_moved, 1);
        let l = db.link(link).unwrap();
        assert_eq!(l.from, nl);
        assert_eq!(l.to, g6);
        assert!(db.entry(g5).unwrap().link_ids().is_empty());
    }

    #[test]
    fn move_applies_when_source_end_versions_too() {
        // The §3.4 walkthrough: hdl.2 -> sch.1; creating hdl.3 must shift the
        // link so later outofdate posts from hdl.3 reach the schematic.
        let bp = parse(
            "blueprint t view HDL_model endview view schematic link_from HDL_model move propagates outofdate type derived endview endblueprint",
        )
        .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let h2 = db.create_oid(Oid::new("cpu", "HDL_model", 2)).unwrap();
        let s1 = db.create_oid(Oid::new("cpu", "schematic", 1)).unwrap();
        let link = instantiate_link(&bp, &mut db, h2, s1).unwrap();
        let h3 = db.create_oid(Oid::new("cpu", "HDL_model", 3)).unwrap();
        let report = apply_on_create(&bp, &mut db, h3, &mut audit).unwrap();
        assert_eq!(report.links_moved, 1);
        let l = db.link(link).unwrap();
        assert_eq!(l.from, h3);
        assert_eq!(l.to, s1);
    }

    #[test]
    fn use_link_shift_matches_the_papers_example() {
        // "if a new OID <REG.schematic.2> were created, the use link between
        // <CPU.schematic.1> and <REG.schematic.1> would be shifted to link
        // <CPU.schematic.1> to <REG.schematic.2>."
        let bp = parse(
            "blueprint t view schematic use_link move propagates outofdate endview endblueprint",
        )
        .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let cpu = db.create_oid(Oid::new("CPU", "schematic", 1)).unwrap();
        let reg1 = db.create_oid(Oid::new("REG", "schematic", 1)).unwrap();
        let link = instantiate_link(&bp, &mut db, cpu, reg1).unwrap();
        assert_eq!(db.link(link).unwrap().class, LinkClass::Use);

        let reg2 = db.create_oid(Oid::new("REG", "schematic", 2)).unwrap();
        apply_on_create(&bp, &mut db, reg2, &mut audit).unwrap();
        let l = db.link(link).unwrap();
        assert_eq!(l.from, cpu);
        assert_eq!(l.to, reg2);
    }

    #[test]
    fn copy_link_keeps_both_versions_linked() {
        let bp = parse(
            "blueprint t view A endview view B link_from A copy propagates e type derived endview endblueprint",
        )
        .unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let a = db.create_oid(Oid::new("x", "A", 1)).unwrap();
        let b1 = db.create_oid(Oid::new("x", "B", 1)).unwrap();
        instantiate_link(&bp, &mut db, a, b1).unwrap();
        let b2 = db.create_oid(Oid::new("x", "B", 2)).unwrap();
        let report = apply_on_create(&bp, &mut db, b2, &mut audit).unwrap();
        assert_eq!(report.links_copied, 1);
        assert_eq!(
            db.neighbors(a, Direction::Down, Some("e")).unwrap().len(),
            2
        );
    }

    #[test]
    fn untemplated_link_stays_on_old_version() {
        let bp = parse("blueprint t view A endview view B endview endblueprint").unwrap();
        let mut db = MetaDb::new();
        let mut audit = AuditLog::counters_only();
        let a = db.create_oid(Oid::new("x", "A", 1)).unwrap();
        let b1 = db.create_oid(Oid::new("x", "B", 1)).unwrap();
        let link = instantiate_link(&bp, &mut db, a, b1).unwrap();
        let b2 = db.create_oid(Oid::new("x", "B", 2)).unwrap();
        let report = apply_on_create(&bp, &mut db, b2, &mut audit).unwrap();
        assert_eq!(report.links_moved + report.links_copied, 0);
        assert_eq!(db.link(link).unwrap().to, b1);
    }

    #[test]
    fn instantiate_link_reverses_backwards_calls() {
        let bp = parse(
            "blueprint t view A endview view B link_from A propagates e type derived endview endblueprint",
        )
        .unwrap();
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("x", "A", 1)).unwrap();
        let b = db.create_oid(Oid::new("x", "B", 1)).unwrap();
        // Caller says (b, a) but the template orientation is A -> B.
        let link = instantiate_link(&bp, &mut db, b, a).unwrap();
        let l = db.link(link).unwrap();
        assert_eq!(l.from, a);
        assert_eq!(l.to, b);
        assert!(db.event_names(l.propagates()).contains(&"e"));
    }

    #[test]
    fn instantiate_link_kind_mapping() {
        let bp = parse(
            "blueprint t view A endview view B link_from A propagates e type equivalence endview endblueprint",
        )
        .unwrap();
        let mut db = MetaDb::new();
        let a = db.create_oid(Oid::new("x", "A", 1)).unwrap();
        let b = db.create_oid(Oid::new("x", "B", 1)).unwrap();
        let link = instantiate_link(&bp, &mut db, a, b).unwrap();
        assert_eq!(db.link(link).unwrap().kind, LinkKind::Equivalence);
    }
}
