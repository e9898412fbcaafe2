//! Script execution: the engine side of tool integration.
//!
//! `exec` and `notify` actions leave the tracking system through this
//! boundary. "The invocation of the tools is encapsulated into shell scripts
//! called wrapper programs. These scripts post event messages to the
//! BluePrint." — Section 3.1.
//!
//! The run-time engine does **not** run scripts while it is mid-wave; it
//! collects [`ScriptInvocation`]s, and the project server dispatches them
//! afterwards through a [`ScriptExecutor`]. The executor receives a
//! [`ToolCtx`] giving it the same powers a real wrapper program has against
//! the project server: create design objects (with template application),
//! relate them, store design data, and post event messages — which the
//! server feeds back into its FIFO queue, closing the automatic tool
//! invocation loop of Section 3.3.

use damocles_meta::{EventMessage, MetaDb, MetaError, Oid, OidId, Workspace};

use crate::engine::audit::AuditLog;
use crate::engine::template;
use crate::lang::ast::Blueprint;

/// A fully interpolated `exec`/`notify` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptInvocation {
    /// Script (wrapper program) name.
    pub script: String,
    /// Arguments after `$` interpolation.
    pub args: Vec<String>,
    /// True when this came from a `notify` action.
    pub notify: bool,
    /// The OID whose rule fired, as `block,view,version`.
    pub origin: String,
    /// The event that fired the rule.
    pub event: String,
}

/// What a wrapper program may do to the project while it runs.
///
/// This is the in-process equivalent of the paper's wrapper-to-server
/// protocol: queries against the meta-database, creation of new design
/// objects (template rules apply immediately, as "the BluePrint is informed
/// of a new OID being created"), and link instantiation.
pub struct ToolCtx<'a> {
    /// The meta-database.
    pub db: &'a mut MetaDb,
    /// The workspace holding design-data payloads.
    pub workspace: &'a mut Workspace,
    /// The active blueprint (for template application).
    pub blueprint: &'a Blueprint,
    /// The audit log.
    pub audit: &'a mut AuditLog,
}

impl ToolCtx<'_> {
    /// Creates the next version of `(block, view)` with `payload`, applying
    /// template rules to the new OID.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn create_versioned(
        &mut self,
        block: &str,
        view: &str,
        user: &str,
        payload: Vec<u8>,
    ) -> Result<(OidId, Oid), MetaError> {
        let (id, oid) = self
            .workspace
            .checkin(self.db, block, view, user, payload)?;
        template::apply_on_create(self.blueprint, self.db, id, self.audit)?;
        // Tool-created design data must survive recovery exactly like a
        // designer's check-in: journal the payload alongside the creation
        // ops (a no-op when the database has no journal attached).
        // Without this, a recovered project has the OID but an empty
        // workspace datum, and re-dispatched invocations that re-read the
        // payload (LVS, simulation) would compute on missing data.
        if let Some(datum) = self.workspace.datum(id) {
            self.db
                .record_extra(&damocles_meta::journal::JournalOp::Data {
                    oid: oid.clone(),
                    payload: datum.content.clone(),
                });
        }
        Ok((id, oid))
    }

    /// Relates two existing OIDs, attaching the template's PROPAGATE/TYPE.
    ///
    /// # Errors
    ///
    /// Propagates database errors.
    pub fn connect(&mut self, from: OidId, to: OidId) -> Result<damocles_meta::LinkId, MetaError> {
        template::instantiate_link(self.blueprint, self.db, from, to)
    }

    /// The newest version of `(block, view)`, if any — the query a wrapper
    /// performs before running ("the wrapper makes sure that the input
    /// netlist is up to date", Section 3.3).
    pub fn latest(&self, block: &str, view: &str) -> Option<OidId> {
        self.db.latest_version(block, view)
    }

    /// Whether `prop` on the latest version of `(block, view)` is truthy —
    /// the permission predicate of Section 3.3.
    pub fn permitted(&self, block: &str, view: &str, prop: &str) -> bool {
        self.latest(block, view)
            .and_then(|id| self.db.get_prop(id, prop).ok().flatten())
            .is_some_and(damocles_meta::Value::is_truthy)
    }
}

/// A self-contained tool run detached from the command loop: everything it
/// needs from the database was captured when it was prepared, so a worker
/// thread can run (and re-run) it without any engine access. The argument
/// is the zero-based attempt number; an `Err` is a *retryable* failure the
/// invocation pool feeds back through its [`RetryPolicy`].
///
/// [`RetryPolicy`]: crate::engine::invoke::RetryPolicy
pub type DetachedJob = Box<dyn Fn(u32) -> Result<Vec<EventMessage>, String> + Send>;

/// What [`ScriptExecutor::prepare`] decided to do with an invocation.
pub enum PreparedRun {
    /// The invocation ran to completion on the command loop; these are its
    /// result messages (the classic synchronous path).
    Inline(Vec<EventMessage>),
    /// The invocation was captured as a detached job for the worker pool;
    /// its result messages arrive later through the event queue.
    Detached(DetachedJob),
}

impl std::fmt::Debug for PreparedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreparedRun::Inline(msgs) => f.debug_tuple("Inline").field(msgs).finish(),
            PreparedRun::Detached(_) => f.write_str("Detached(..)"),
        }
    }
}

/// Executes wrapper scripts on behalf of the project server.
pub trait ScriptExecutor {
    /// Runs one invocation, returning any event messages the wrapper posts.
    fn execute(
        &mut self,
        invocation: &ScriptInvocation,
        ctx: &mut ToolCtx<'_>,
    ) -> Vec<EventMessage>;

    /// Prepares one invocation: either run it inline (the default, which
    /// simply delegates to [`ScriptExecutor::execute`]) or capture it as a
    /// [`DetachedJob`] the server hands to its async invocation pool.
    /// Database reads happen *here*, on the command loop; a detached job
    /// must carry everything it needs by value.
    fn prepare(&mut self, invocation: &ScriptInvocation, ctx: &mut ToolCtx<'_>) -> PreparedRun {
        PreparedRun::Inline(self.execute(invocation, ctx))
    }
}

/// Discards every invocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullExecutor;

impl ScriptExecutor for NullExecutor {
    fn execute(
        &mut self,
        _invocation: &ScriptInvocation,
        _ctx: &mut ToolCtx<'_>,
    ) -> Vec<EventMessage> {
        Vec::new()
    }
}

/// Records every invocation; test helper.
#[derive(Debug, Clone, Default)]
pub struct RecordingExecutor {
    invocations: Vec<ScriptInvocation>,
    replies: Vec<(String, Vec<EventMessage>)>,
}

impl RecordingExecutor {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers messages to return whenever `script` is invoked.
    pub fn reply_with(
        &mut self,
        script: impl Into<String>,
        messages: Vec<EventMessage>,
    ) -> &mut Self {
        self.replies.push((script.into(), messages));
        self
    }

    /// Everything recorded so far.
    pub fn invocations(&self) -> &[ScriptInvocation] {
        &self.invocations
    }

    /// Invocations of one script.
    pub fn invocations_of(&self, script: &str) -> Vec<&ScriptInvocation> {
        self.invocations
            .iter()
            .filter(|i| i.script == script)
            .collect()
    }

    /// Notification messages (rendered), in order.
    pub fn notifications(&self) -> Vec<String> {
        self.invocations
            .iter()
            .filter(|i| i.notify)
            .map(|i| i.args.join(" "))
            .collect()
    }
}

impl ScriptExecutor for RecordingExecutor {
    fn execute(
        &mut self,
        invocation: &ScriptInvocation,
        _ctx: &mut ToolCtx<'_>,
    ) -> Vec<EventMessage> {
        self.invocations.push(invocation.clone());
        self.replies
            .iter()
            .find(|(name, _)| *name == invocation.script)
            .map(|(_, msgs)| msgs.clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parser::parse;
    use damocles_meta::Value;

    fn invocation(script: &str) -> ScriptInvocation {
        ScriptInvocation {
            script: script.to_string(),
            args: vec!["cpu,schematic,1".into()],
            notify: false,
            origin: "cpu,schematic,1".into(),
            event: "ckin".into(),
        }
    }

    fn harness() -> (MetaDb, Workspace, Blueprint, AuditLog) {
        let bp = parse(
            "blueprint t view default property uptodate default true endview view schematic endview view netlist link_from schematic propagates outofdate type derived endview endblueprint",
        )
        .unwrap();
        (
            MetaDb::new(),
            Workspace::new("w"),
            bp,
            AuditLog::counters_only(),
        )
    }

    #[test]
    fn null_executor_returns_nothing() {
        let (mut db, mut ws, bp, mut audit) = harness();
        let mut ctx = ToolCtx {
            db: &mut db,
            workspace: &mut ws,
            blueprint: &bp,
            audit: &mut audit,
        };
        let mut ex = NullExecutor;
        assert!(ex.execute(&invocation("netlister"), &mut ctx).is_empty());
    }

    #[test]
    fn recorder_keeps_invocations_and_replies() {
        let (mut db, mut ws, bp, mut audit) = harness();
        let mut ctx = ToolCtx {
            db: &mut db,
            workspace: &mut ws,
            blueprint: &bp,
            audit: &mut audit,
        };
        let mut ex = RecordingExecutor::new();
        let msg: EventMessage = "postEvent nl_sim down cpu,netlist,1 \"good\""
            .parse()
            .unwrap();
        ex.reply_with("simulator", vec![msg.clone()]);
        assert!(ex.execute(&invocation("netlister"), &mut ctx).is_empty());
        assert_eq!(ex.execute(&invocation("simulator"), &mut ctx), vec![msg]);
        assert_eq!(ex.invocations().len(), 2);
        assert_eq!(ex.invocations_of("simulator").len(), 1);
    }

    #[test]
    fn tool_ctx_creates_versioned_objects_with_templates() {
        let (mut db, mut ws, bp, mut audit) = harness();
        let mut ctx = ToolCtx {
            db: &mut db,
            workspace: &mut ws,
            blueprint: &bp,
            audit: &mut audit,
        };
        let (id, oid) = ctx
            .create_versioned("cpu", "netlist", "netlister", b"netlist-v1".to_vec())
            .unwrap();
        assert_eq!(oid.version, 1);
        // Default-view template property applied.
        assert_eq!(
            ctx.db.get_prop(id, "uptodate").unwrap(),
            Some(&Value::Bool(true))
        );
        assert!(ctx.workspace.datum(id).is_some());
    }

    #[test]
    fn tool_ctx_connect_uses_templates() {
        let (mut db, mut ws, bp, mut audit) = harness();
        let mut ctx = ToolCtx {
            db: &mut db,
            workspace: &mut ws,
            blueprint: &bp,
            audit: &mut audit,
        };
        let (sch, _) = ctx
            .create_versioned("cpu", "schematic", "synth", b"s".to_vec())
            .unwrap();
        let (net, _) = ctx
            .create_versioned("cpu", "netlist", "netlister", b"n".to_vec())
            .unwrap();
        let link = ctx.connect(sch, net).unwrap();
        let propagates = ctx.db.link(link).unwrap().propagates();
        assert!(ctx.db.event_names(propagates).contains(&"outofdate"));
    }

    #[test]
    fn permission_predicate() {
        let (mut db, mut ws, bp, mut audit) = harness();
        let mut ctx = ToolCtx {
            db: &mut db,
            workspace: &mut ws,
            blueprint: &bp,
            audit: &mut audit,
        };
        assert!(!ctx.permitted("cpu", "schematic", "uptodate"));
        let (id, _) = ctx
            .create_versioned("cpu", "schematic", "yves", b"s".to_vec())
            .unwrap();
        assert!(ctx.permitted("cpu", "schematic", "uptodate"));
        ctx.db.set_prop(id, "uptodate", Value::Bool(false)).unwrap();
        assert!(!ctx.permitted("cpu", "schematic", "uptodate"));
    }

    #[test]
    fn notifications_are_collected() {
        let (mut db, mut ws, bp, mut audit) = harness();
        let mut ctx = ToolCtx {
            db: &mut db,
            workspace: &mut ws,
            blueprint: &bp,
            audit: &mut audit,
        };
        let mut ex = RecordingExecutor::new();
        let mut inv = invocation("notify");
        inv.notify = true;
        inv.args = vec!["yves: Your oid cpu,schematic,1 has been modified".into()];
        ex.execute(&inv, &mut ctx);
        assert_eq!(ex.notifications().len(), 1);
        assert!(ex.notifications()[0].contains("has been modified"));
    }
}
