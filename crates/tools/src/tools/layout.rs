//! The layout generator: schematic → layout.

use blueprint_core::engine::exec::ToolCtx;
use damocles_meta::{Direction, EventMessage, MetaError};

use crate::design_data;
use crate::tool::{ensure_connected, input_oid, payload_of, Tool};

/// Simulated layout editor / place-and-route.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayoutGen {
    _private: (),
}

impl LayoutGen {
    /// Creates a layout generator.
    pub fn new() -> Self {
        LayoutGen::default()
    }
}

impl Tool for LayoutGen {
    fn name(&self) -> &'static str {
        "layout_gen"
    }

    /// Derives a layout payload from the input schematic, creates the next
    /// `(block, layout)` version linked to the schematic (the equivalence
    /// link of Fig. 5), and posts `ckin` for the new layout.
    fn run(
        &mut self,
        ctx: &mut ToolCtx<'_>,
        args: &[String],
    ) -> Result<Vec<EventMessage>, MetaError> {
        let (sch_id, sch_oid) = input_oid(ctx, args)?;
        let schematic = payload_of(ctx, sch_id, &sch_oid);
        let layout = design_data::derive("layout", &schematic);
        let (lay_id, lay_oid) =
            ctx.create_versioned(sch_oid.block.as_str(), "layout", "layout_gen", layout)?;
        ensure_connected(ctx, sch_id, lay_id)?;
        Ok(vec![EventMessage::new("ckin", Direction::Up, lay_oid)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blueprint_core::engine::audit::AuditLog;
    use blueprint_core::lang::parser::parse;
    use damocles_meta::{LinkKind, MetaDb, Oid, Workspace};

    const BP: &str = r#"blueprint t
        view schematic endview
        view layout
            link_from schematic propagates lvs, outofdate type equivalence
        endview
    endblueprint"#;

    #[test]
    fn creates_equivalence_linked_layout() {
        let bp = parse(BP).unwrap();
        let mut db = MetaDb::new();
        let mut ws = Workspace::new("w");
        let mut audit = AuditLog::counters_only();
        let (sch_id, sch_oid) = ws
            .checkin(&mut db, "alu", "schematic", "yves", b"sch".to_vec())
            .unwrap();
        let mut ctx = ToolCtx {
            db: &mut db,
            workspace: &mut ws,
            blueprint: &bp,
            audit: &mut audit,
        };
        let msgs = LayoutGen::new()
            .run(&mut ctx, &[sch_oid.to_string()])
            .unwrap();
        assert_eq!(msgs[0].target, Oid::new("alu", "layout", 1));
        let lay_id = ctx.db.require(&Oid::new("alu", "layout", 1)).unwrap();
        let links = ctx.db.links_of(lay_id).unwrap();
        assert_eq!(links.len(), 1);
        let (_, link) = &links[0];
        assert_eq!(link.kind, LinkKind::Equivalence);
        assert_eq!(link.from, sch_id);
        assert!(ctx.db.event_names(link.propagates()).contains(&"lvs"));
        // Lineage is real: the layout payload derives from the schematic's.
        let lay = ctx.workspace.datum(lay_id).unwrap().content.clone();
        let sch = ctx.workspace.datum(sch_id).unwrap().content.clone();
        assert!(design_data::derived_from("layout", &lay, &sch));
    }
}
