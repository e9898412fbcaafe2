//! The DAMOCLES command shell: the designer/administrator front-end the
//! paper's wrapper scripts talk to.
//!
//! One command per line; `#` starts a comment. Commands:
//!
//! | command | effect |
//! |---|---|
//! | `init <file>` | load a BluePrint (§3.2) |
//! | `checkin <block> <view> <user> [payload…]` | promote design data |
//! | `checkout <block> <view> <user>` | reserve a chain |
//! | `connect <block,view,ver> <block,view,ver>` | relate two OIDs |
//! | `postEvent <event> <up\|down> <oid> ["args"…]` | the §3.1 wire line |
//! | `process` | drain the event queue |
//! | `show <block,view,ver>` | properties of one OID |
//! | `query <terms…>` | run a `qlang` query (e.g. `stale.uptodate latest`) |
//! | `workleft <block,view,ver> <prop>` | §3.1 "what still needs work" |
//! | `summary <prop>` | per-view state summary |
//! | `snapshot <name> <block,view,ver>` | store a closure Configuration |
//! | `snapshots` | list stored configurations |
//! | `journal <dir> [every]` | enable op-journal durability under `dir` |
//! | `checkpoint` | fold the journal into a fresh snapshot |
//! | `recover <dir> [every]` | restore from snapshot + journal tail |
//! | `promote <dir> <term> [every]` | take leadership under a new term (HA failover) |
//! | `fence <term>` | depose this node: refuse mutations below `term` |
//! | `replay <epoch> <seq>` | reconstruct the image at a journal cursor |
//! | `trace on\|off\|get` | per-wave execution tracing |
//! | `freeze <view>` / `thaw <view>` | project policy: frozen views |
//! | `retry <script\|-> <n> <ms> <mult> <ms>` | retry policy for detached tools |
//! | `pump` | absorb finished tool invocations |
//! | `stat` | server statistics |
//! | `dot` | DOT dump of the live design state |
//! | `audit` | engine counters |
//! | `help` | this table |
//!
//! The shell is a **thin adapter over the typed command protocol**
//! ([`blueprint_core::engine::api`]): every line parses into a
//! [`Request`], executes through a [`ProjectService`], and the structured
//! [`Response`] is rendered back to text. The same requests travel the
//! TCP front door (`damocles_server`) byte-identically, so anything the
//! shell can do a networked wrapper can do.

use std::fmt::Write as _;

use blueprint_core::engine::api::{
    ApiError, Cursor, NodeRole, Request, Response, TraceMode, DEFAULT_CHECKPOINT_EVERY,
};
use blueprint_core::engine::server::ProjectServer;
use blueprint_core::engine::service::ProjectService;
use damocles_flows::metrics;
use damocles_meta::{EventMessage, Oid};

/// A stateful command shell around a project service.
pub struct Shell {
    service: ProjectService,
}

impl Default for Shell {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome of one shell line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShellOutput {
    /// Nothing to say (comment, blank line).
    Silent,
    /// Normal output text.
    Text(String),
    /// A user-level error (bad command, engine error) — the shell keeps
    /// running.
    Error(String),
}

impl ShellOutput {
    /// The rendered text, empty when silent.
    pub fn text(&self) -> &str {
        match self {
            ShellOutput::Silent => "",
            ShellOutput::Text(t) | ShellOutput::Error(t) => t,
        }
    }

    /// Whether this is an error.
    pub fn is_error(&self) -> bool {
        matches!(self, ShellOutput::Error(_))
    }
}

/// Raw-word helpers over the protocol's positioned [`Cursor`]: the shell
/// grammar shares the codec's tokenizer and diagnostics but takes words
/// as raw user text — there is no escaping on a typed command line.
fn word(c: &mut Cursor<'_>, what: &str) -> Result<String, ApiError> {
    Ok(c.next_word(what)?.1.to_string())
}

fn oid_word(c: &mut Cursor<'_>, what: &str) -> Result<Oid, ApiError> {
    c.parse_with(what, |w| w.parse::<Oid>().map_err(|e| e.short_reason()))
}

fn u64_or(c: &mut Cursor<'_>, what: &str, default: u64) -> Result<u64, ApiError> {
    if c.at_end() {
        return Ok(default);
    }
    c.parse_with(what, |w| {
        w.parse::<u64>().map_err(|_| "not a number".to_string())
    })
}

impl Shell {
    /// A shell with no BluePrint loaded yet.
    pub fn new() -> Self {
        Shell {
            service: ProjectService::new(),
        }
    }

    /// A shell pre-initialized with a server.
    pub fn with_server(server: ProjectServer) -> Self {
        Shell {
            service: ProjectService::with_server(server),
        }
    }

    /// The server, if initialized.
    pub fn server(&self) -> Option<&ProjectServer> {
        self.service.server()
    }

    /// The protocol service behind the shell.
    pub fn service(&self) -> &ProjectService {
        &self.service
    }

    /// Executes one command line.
    pub fn execute(&mut self, line: &str) -> ShellOutput {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return ShellOutput::Silent;
        }
        if line == "help" {
            return ShellOutput::Text(HELP.trim().to_string());
        }
        // Parse line → Request (client side), execute → Response (the
        // protocol boundary), render Response → text (client side again).
        match parse_command(line) {
            Ok(request) => {
                let shown = presented(&request);
                let response = self.service.call(request);
                render(&shown, response)
            }
            Err(e) => ShellOutput::Error(format!("error: {e}")),
        }
    }

    /// Executes a whole script, collecting non-silent outputs.
    pub fn run_script(&mut self, script: &str) -> Vec<ShellOutput> {
        script
            .lines()
            .map(|l| self.execute(l))
            .filter(|o| !matches!(o, ShellOutput::Silent))
            .collect()
    }
}

/// Parses one shell line into a protocol [`Request`].
///
/// The shell grammar is the human-friendly form (unquoted payloads,
/// client-side file reads for `init`); the canonical codec form is
/// [`Request::encode`]. Both construct the same values.
///
/// # Errors
///
/// Positioned [`ApiError::Parse`] / [`ApiError::UnknownCommand`].
pub fn parse_command(line: &str) -> Result<Request, ApiError> {
    let mut words = Cursor::new(line);
    let (at, command) = words.next_word("a command")?;
    match command {
        "init" => {
            let path = word(&mut words, "a blueprint file path")?;
            let source = std::fs::read_to_string(&path).map_err(|e| ApiError::Io {
                reason: format!("cannot read {path}: {e}"),
            })?;
            Ok(Request::Init { source })
        }
        "postEvent" => {
            // The whole line IS the §3.1 wire format.
            let message = EventMessage::parse_wire(line)?;
            Ok(Request::Post {
                message,
                user: "shell".to_string(),
            })
        }
        "checkin" => {
            let block = word(&mut words, "a block name")?;
            let view = word(&mut words, "a view type")?;
            let user = word(&mut words, "a user name")?;
            let payload = words.rest().to_string();
            Ok(Request::Checkin {
                block,
                view,
                user,
                payload: payload.into_bytes(),
            })
        }
        "checkout" => Ok(Request::Checkout {
            block: word(&mut words, "a block name")?,
            view: word(&mut words, "a view type")?,
            user: word(&mut words, "a user name")?,
        }),
        "connect" => Ok(Request::Connect {
            from: oid_word(&mut words, "a source OID `block,view,version`")?,
            to: oid_word(&mut words, "a destination OID `block,view,version`")?,
        }),
        "process" => Ok(Request::ProcessAll),
        "show" => Ok(Request::Show {
            oid: oid_word(&mut words, "an OID `block,view,version`")?,
        }),
        "query" => Ok(Request::Query {
            terms: words.rest().to_string(),
        }),
        "workleft" => Ok(Request::WorkLeft {
            oid: oid_word(&mut words, "an OID `block,view,version`")?,
            prop: word(&mut words, "a state property name")?,
        }),
        "summary" => Ok(Request::Summary {
            prop: word(&mut words, "a state property name")?,
        }),
        "snapshot" => Ok(Request::Snapshot {
            name: word(&mut words, "a snapshot name")?,
            root: oid_word(&mut words, "a root OID `block,view,version`")?,
        }),
        "snapshots" => Ok(Request::ListSnapshots),
        "journal" => Ok(Request::EnableJournal {
            dir: word(&mut words, "a durability directory")?,
            every: u64_or(
                &mut words,
                "a checkpoint interval (ops)",
                DEFAULT_CHECKPOINT_EVERY,
            )?,
        }),
        "checkpoint" => Ok(Request::Checkpoint),
        "recover" => Ok(Request::Recover {
            dir: word(&mut words, "a durability directory")?,
            every: u64_or(
                &mut words,
                "a checkpoint interval (ops)",
                DEFAULT_CHECKPOINT_EVERY,
            )?,
        }),
        "replay" => {
            let num = |words: &mut Cursor<'_>, what| {
                words.parse_with(what, |w| {
                    w.parse::<u64>().map_err(|_| "not a number".to_string())
                })
            };
            Ok(Request::Replay {
                epoch: num(&mut words, "a journal epoch")?,
                seq: num(&mut words, "a journal sequence number")?,
            })
        }
        "promote" => {
            let dir = word(&mut words, "a durability directory")?;
            let term = words.parse_with("a leadership term", |w| {
                w.parse::<u64>().map_err(|_| "not a number".to_string())
            })?;
            Ok(Request::Promote {
                dir,
                every: u64_or(
                    &mut words,
                    "a checkpoint interval (ops)",
                    DEFAULT_CHECKPOINT_EVERY,
                )?,
                term,
            })
        }
        "fence" => Ok(Request::Fence {
            term: words.parse_with("a leadership term", |w| {
                w.parse::<u64>().map_err(|_| "not a number".to_string())
            })?,
        }),
        "trace" => Ok(Request::Trace {
            mode: words.parse_with("a trace mode (`on`, `off` or `get`)", |w| match w {
                "on" => Ok(TraceMode::On),
                "off" => Ok(TraceMode::Off),
                "get" => Ok(TraceMode::Get),
                other => Err(format!("unknown trace mode `{other}`")),
            })?,
        }),
        "freeze" => Ok(Request::Freeze {
            view: word(&mut words, "a view name")?,
        }),
        "thaw" => Ok(Request::Thaw {
            view: word(&mut words, "a view name")?,
        }),
        "save" => Ok(Request::SaveProject {
            path: word(&mut words, "a file path")?,
        }),
        "load" => Ok(Request::LoadProject {
            path: word(&mut words, "a file path")?,
        }),
        "dump" => Ok(Request::Dump),
        "dot" => Ok(Request::Dot),
        "audit" => Ok(Request::Audit),
        "stat" => Ok(Request::Stat),
        "retry" => {
            let script = match word(&mut words, "a script name (`-` = default policy)")?.as_str() {
                "-" => None,
                name => Some(name.to_string()),
            };
            let num = |words: &mut Cursor<'_>, what| {
                words.parse_with(what, |w| {
                    w.parse::<u64>().map_err(|_| "not a number".to_string())
                })
            };
            Ok(Request::SetRetryPolicy {
                script,
                max_retries: num(&mut words, "a retry count")?,
                base_delay_ms: num(&mut words, "a base delay (ms)")?,
                multiplier: num(&mut words, "a backoff multiplier")?,
                timeout_ms: num(&mut words, "a per-attempt timeout (ms)")?,
            })
        }
        "pump" => Ok(Request::PumpInvocations),
        "project" => {
            let project = word(&mut words, "a project name")?;
            let create = if words.at_end() {
                false
            } else {
                words.parse_with("`new` or end of line", |w| match w {
                    "new" => Ok(true),
                    _ => Err("not `new`".to_string()),
                })?
            };
            Ok(Request::Attach { project, create })
        }
        "projects" => Ok(Request::ListProjects),
        other => Err(ApiError::UnknownCommand {
            at: at as u64,
            found: other.to_string(),
        }),
    }
}

/// The slice of a request the renderer needs after the request itself
/// has moved into the service: presentation context only (paths, views,
/// endpoints) — never payloads or blueprint sources, so extracting it is
/// O(1) in the design data.
enum Presented {
    Post,
    Retry {
        script: Option<String>,
    },
    Checkout {
        block: String,
        view: String,
        user: String,
    },
    Connect {
        from: Oid,
        to: Oid,
    },
    Freeze {
        view: String,
    },
    Thaw {
        view: String,
    },
    Save {
        path: String,
    },
    Journal {
        dir: String,
        every: u64,
    },
    Load {
        path: String,
    },
    Trace {
        mode: TraceMode,
    },
    Dump,
    Other,
}

fn presented(request: &Request) -> Presented {
    match request {
        Request::Post { .. } => Presented::Post,
        Request::SetRetryPolicy { script, .. } => Presented::Retry {
            script: script.clone(),
        },
        Request::Checkout { block, view, user } => Presented::Checkout {
            block: block.clone(),
            view: view.clone(),
            user: user.clone(),
        },
        Request::Connect { from, to } => Presented::Connect {
            from: from.clone(),
            to: to.clone(),
        },
        Request::Freeze { view } => Presented::Freeze { view: view.clone() },
        Request::Thaw { view } => Presented::Thaw { view: view.clone() },
        Request::SaveProject { path } => Presented::Save { path: path.clone() },
        Request::EnableJournal { dir, every } => Presented::Journal {
            dir: dir.clone(),
            every: *every,
        },
        Request::LoadProject { path } => Presented::Load { path: path.clone() },
        Request::Trace { mode } => Presented::Trace { mode: *mode },
        Request::Dump => Presented::Dump,
        _ => Presented::Other,
    }
}

/// Renders a structured [`Response`] as the shell's legacy text, using
/// the presentation context (paths, views, …) taken from the request.
fn render(shown: &Presented, response: Response) -> ShellOutput {
    let out = match (shown, response) {
        (_, Response::Error(e)) => return ShellOutput::Error(format!("error: {e}")),
        (_, Response::Blueprint { name }) => format!("blueprint `{name}` initialized"),
        (Presented::Post, Response::Ok) => "queued".to_string(),
        (Presented::Retry { script }, Response::Ok) => match script {
            Some(s) => format!("retry policy set for `{s}`"),
            None => "default retry policy set".to_string(),
        },
        (Presented::Checkout { block, view, user }, Response::Ok) => {
            format!("{block}.{view} checked out by {user}")
        }
        (Presented::Connect { from, to }, Response::Ok) => format!("linked {from} -> {to}"),
        (Presented::Freeze { view }, Response::Ok) => format!("view `{view}` frozen"),
        (Presented::Thaw { view }, Response::Ok) => format!("view `{view}` thawed"),
        (Presented::Save { path }, Response::Ok) => format!("project saved to {path}"),
        (Presented::Trace { mode }, Response::Ok) => format!("tracing {mode}"),
        (_, Response::Created { oid }) => format!("created {oid} (ckin queued)"),
        (
            _,
            Response::Processed {
                events,
                deliveries,
                scripts,
                ..
            },
        ) => format!("processed {events} events ({deliveries} deliveries, {scripts} scripts)"),
        (_, Response::Refreshed { written }) => format!("refreshed {written} let propert(ies)"),
        (_, Response::Props { oid, props }) => {
            let mut out = format!("{oid}\n");
            for (name, value) in props {
                let _ = writeln!(out, "  {name} = {value}");
            }
            out.trim_end().to_string()
        }
        (_, Response::Hits { oids }) => {
            let mut out = format!("{} match(es)\n", oids.len());
            for oid in oids {
                let _ = writeln!(out, "  {oid}");
            }
            out.trim_end().to_string()
        }
        (_, Response::Work { target, items }) => {
            let mut out = format!("{} item(s) blocking {target}\n", items.len());
            for item in items {
                let current = item
                    .current
                    .map(|v| v.as_atom())
                    .unwrap_or_else(|| "<unset>".into());
                let _ = writeln!(out, "  {} ({} = {current})", item.oid, item.prop);
            }
            out.trim_end().to_string()
        }
        (_, Response::ViewSummary { rows }) => {
            let rows: Vec<Vec<String>> = rows
                .into_iter()
                .map(|r| {
                    vec![
                        r.view,
                        r.total.to_string(),
                        r.satisfied.to_string(),
                        r.untracked.to_string(),
                    ]
                })
                .collect();
            metrics::table(&["view", "total", "satisfied", "untracked"], &rows)
                .trim_end()
                .to_string()
        }
        (_, Response::Snapped { name, oids }) => {
            format!("snapshot `{name}` pinned {oids} OIDs")
        }
        (_, Response::SnapshotList { entries }) => {
            let mut out = String::new();
            for e in entries {
                let _ = writeln!(
                    out,
                    "  {}: {} OIDs, {} links, {} dangling",
                    e.name, e.oids, e.links, e.dangling
                );
            }
            if out.is_empty() {
                out = "  (none)".to_string();
            }
            out.trim_end().to_string()
        }
        (Presented::Journal { dir, every }, Response::Epoch { epoch }) => {
            format!("journaling to {dir} (epoch {epoch}, checkpoint every {every} ops)")
        }
        (_, Response::Epoch { epoch }) => format!("checkpoint written (epoch {epoch})"),
        (_, Response::Promoted { epoch, term }) => {
            format!("promoted: leading at epoch {epoch} under term {term}")
        }
        (
            _,
            Response::Recovered {
                epoch,
                snapshot_oids,
                replayed_ops,
                torn_tail,
                stale_journal,
            },
        ) => {
            let mut out = format!(
                "recovered epoch {epoch}: {snapshot_oids} OIDs from snapshot, {replayed_ops} journal ops replayed"
            );
            if let Some(reason) = torn_tail {
                let _ = write!(out, " (torn tail ignored: {reason})");
            }
            if stale_journal {
                out.push_str(" (stale journal ignored)");
            }
            out
        }
        (Presented::Load { path }, Response::Loaded { oids }) => {
            format!("project restored from {path} ({oids} OIDs)")
        }
        (_, Response::Loaded { oids }) => format!("project restored ({oids} OIDs)"),
        (Presented::Dump, Response::Text { text }) => text.trim_end().to_string(),
        (_, Response::Text { text }) => text,
        (
            _,
            Response::Replayed {
                epoch,
                seq,
                oids,
                image,
            },
        ) => {
            let mut out =
                format!("replayed cursor (epoch {epoch}, seq {seq}): {oids} OIDs\n{image}");
            out.truncate(out.trim_end().len());
            out
        }
        (_, Response::Trace { records }) => {
            if records.is_empty() {
                "(no trace records)".to_string()
            } else {
                records.join("\n")
            }
        }
        (_, Response::Audit { counters: s }) => {
            let mut out = format!(
                "deliveries={} assignments={} lets={} scripts={} posts={} propagations={} cycles={} templates={}",
                s.deliveries,
                s.assignments,
                s.reevaluations,
                s.scripts,
                s.posts,
                s.propagations,
                s.cycle_skips,
                s.templates
            );
            // Invocation-fault counters appear only once nonzero: quiet
            // projects keep the historical audit line byte-identical.
            if s.invoke_retries + s.invoke_timeouts + s.invoke_exhaustions > 0 {
                let _ = write!(
                    out,
                    " inv_retries={} inv_timeouts={} inv_exhaustions={}",
                    s.invoke_retries, s.invoke_timeouts, s.invoke_exhaustions
                );
            }
            out
        }
        (_, Response::Stat { stat }) => {
            let journal = match (stat.journal_epoch, stat.journal_records) {
                (Some(epoch), Some(records)) => {
                    format!(
                        "epoch {epoch}, {records} ops since checkpoint, \
                         cursor=({},{})",
                        stat.cursor_epoch, stat.cursor_seq
                    )
                }
                _ => "off".to_string(),
            };
            let mut out = format!(
                "oids={} links={} pending={} journal={journal} \
                 inv_pending={} inv_running={} inv_retrying={} inv_failed={}",
                stat.oids,
                stat.links,
                stat.pending_events,
                stat.pending_invocations,
                stat.running_invocations,
                stat.retrying_invocations,
                stat.failed_invocations
            );
            // Fleet gauges appear only on a fleet node: single-project
            // servers keep the historical stat line byte-identical.
            if stat.active_projects + stat.resident_projects + stat.activations + stat.evictions > 0
            {
                let _ = write!(
                    out,
                    " active_projects={} resident_projects={} activations={} evictions={}",
                    stat.active_projects, stat.resident_projects, stat.activations, stat.evictions
                );
            }
            // Leadership fields appear once a node has a replication
            // identity (a follower, or any term past the first reign):
            // plain term-1 leaders keep the historical line byte-identical.
            if stat.term > 1 || stat.role != NodeRole::Leader {
                let _ = write!(out, " term={} role={}", stat.term, stat.role);
            }
            out
        }
        (_, Response::Attached { project, created }) => {
            if created {
                format!("attached to new project `{project}`")
            } else {
                format!("attached to project `{project}`")
            }
        }
        (_, Response::Projects { entries }) => {
            if entries.is_empty() {
                "(no projects registered)".to_string()
            } else {
                entries
                    .iter()
                    .map(|e| {
                        format!(
                            "{} {}",
                            e.name,
                            if e.active { "[active]" } else { "[cold]" }
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("\n")
            }
        }
        (_, Response::Ok) => "ok".to_string(),
        // Response is non_exhaustive-proof: render the codec form rather
        // than lose information.
        (_, other) => other.encode(),
    };
    ShellOutput::Text(out)
}

const HELP: &str = r#"
commands:
  init <file>                         load a BluePrint rule file
  checkin <block> <view> <user> [..]  promote design data (queues ckin)
  checkout <block> <view> <user>      reserve a chain
  connect <oid> <oid>                 relate two OIDs (template-filled)
  postEvent <ev> <up|down> <oid> [..] queue a design event (wire format)
  process                             drain the event queue
  show <oid>                          properties of one OID
  query <terms..>                     e.g. `view=schematic stale.uptodate latest`
  workleft <oid> <prop>               what blocks this OID's planned state
  summary <prop>                      per-view state counts
  snapshot <name> <oid>               pin the closure as a Configuration
  snapshots                           list stored configurations
  journal <dir> [every]               enable op-journal durability under dir
  checkpoint                          fold the journal into a fresh snapshot
  recover <dir> [every]               restore from snapshot + journal tail
  replay <epoch> <seq>                reconstruct the historical image at a
                                      journal cursor (see `stat`'s cursor)
  promote <dir> <term> [every]        take leadership under a strictly
                                      higher term, journaling under dir
  fence <term>                        depose this node: mutations refuse
                                      until a promotion above <term>
  trace on|off|get                    per-wave execution tracing: retain,
                                      drop, or drain captured records
  freeze <view> / thaw <view>         project policy: forbid/allow check-ins
  save <file>                         persist database + payloads
  load <file>                         restore database + payloads
  stat                                server statistics
  retry <script|-> <n> <ms> <m> <ms>  tool retry policy: retries, base
                                      delay, backoff multiplier, timeout
                                      (`-` sets the default policy)
  pump                                absorb finished tool invocations
  project <name> [new]                attach this session to a fleet
                                      project (`new` registers it first)
  projects                            list the fleet's projects
  dump                                full textual database dump
  dot                                 Graphviz dump of the design state
  audit                               engine counters
"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn edtc_shell() -> Shell {
        let server = ProjectServer::from_source(damocles_flows::EDTC_SOURCE).expect("EDTC parses");
        Shell::with_server(server)
    }

    #[test]
    fn project_commands_parse_and_single_node_says_no_fleet() {
        // Parsing: `project <name> [new]` / `projects` become the typed
        // attach requests...
        assert_eq!(
            parse_command("project asic9").unwrap(),
            Request::Attach {
                project: "asic9".into(),
                create: false,
            }
        );
        assert_eq!(
            parse_command("project asic9 new").unwrap(),
            Request::Attach {
                project: "asic9".into(),
                create: true,
            }
        );
        assert_eq!(parse_command("projects").unwrap(), Request::ListProjects);
        // ...and a single-project node answers with the structured
        // `no-fleet` taxonomy rather than a parse error.
        let mut sh = edtc_shell();
        let out = sh.execute("project asic9");
        assert!(out.is_error());
        assert!(out.text().contains("fleet"), "{out:?}");
        let out = sh.execute("projects");
        assert!(out.is_error());
        assert!(out.text().contains("fleet"), "{out:?}");
    }

    #[test]
    fn attached_and_projects_render() {
        let shown = Presented::Other;
        let out = render(
            &shown,
            Response::Attached {
                project: "asic9".into(),
                created: true,
            },
        );
        assert_eq!(out.text(), "attached to new project `asic9`");
        let out = render(
            &shown,
            Response::Projects {
                entries: vec![
                    blueprint_core::engine::api::ProjectEntry {
                        name: "asic9".into(),
                        active: true,
                    },
                    blueprint_core::engine::api::ProjectEntry {
                        name: "fpga".into(),
                        active: false,
                    },
                ],
            },
        );
        assert_eq!(out.text(), "asic9 [active]\nfpga [cold]");
        let out = render(&shown, Response::Projects { entries: vec![] });
        assert_eq!(out.text(), "(no projects registered)");
    }

    #[test]
    fn stat_line_hides_fleet_gauges_off_fleet() {
        // A single-project server's stat line must stay byte-identical
        // to the pre-fleet rendering (no fleet gauges).
        let mut sh = edtc_shell();
        let out = sh.execute("stat");
        assert!(!out.text().contains("active_projects"), "{out:?}");
    }

    #[test]
    fn uninitialized_shell_demands_init() {
        let mut sh = Shell::new();
        let out = sh.execute("process");
        assert!(out.is_error());
        assert!(out.text().contains("init"));
    }

    #[test]
    fn comments_and_blanks_are_silent() {
        let mut sh = edtc_shell();
        assert_eq!(sh.execute("# a comment"), ShellOutput::Silent);
        assert_eq!(sh.execute("   "), ShellOutput::Silent);
    }

    #[test]
    fn checkin_show_roundtrip() {
        let mut sh = edtc_shell();
        let out = sh.execute("checkin CPU HDL_model yves module cpu");
        assert!(out.text().contains("CPU,HDL_model,1"), "{out:?}");
        sh.execute("process");
        let out = sh.execute("show CPU,HDL_model,1");
        assert!(out.text().contains("sim_result = bad"), "{out:?}");
        assert!(out.text().contains("uptodate = true"));
    }

    #[test]
    fn post_event_wire_line_works_verbatim() {
        let mut sh = edtc_shell();
        sh.execute("checkin reg verilog_ wrapperuser x");
        // Use a tracked view for the real test:
        sh.execute("checkin CPU HDL_model yves module");
        sh.execute("process");
        let out = sh.execute("postEvent hdl_sim up CPU,HDL_model,1 \"logic sim passed\"");
        assert!(!out.is_error(), "{out:?}");
        sh.execute("process");
        let out = sh.execute("show CPU,HDL_model,1");
        assert!(out.text().contains("sim_result = logic sim passed"));
    }

    #[test]
    fn full_scripted_session() {
        let mut sh = edtc_shell();
        let outputs = sh.run_script(
            r#"
            # the §3.4 scenario, scripted
            checkin CPU HDL_model designers module cpu v1
            checkin CPU schematic synth cpu schematic
            connect CPU,HDL_model,1 CPU,schematic,1
            process
            checkin CPU HDL_model designers module cpu v2
            process
            query stale.uptodate
            workleft CPU,schematic,1 uptodate
            summary uptodate
            audit
            "#,
        );
        assert!(outputs.iter().all(|o| !o.is_error()), "{outputs:?}");
        let query_out = &outputs[6];
        assert!(query_out.text().contains("1 match(es)"), "{query_out:?}");
        assert!(query_out.text().contains("CPU,schematic,1"));
        let summary_out = &outputs[8];
        assert!(summary_out.text().contains("schematic"));
    }

    #[test]
    fn freeze_blocks_checkin_until_thaw() {
        let mut sh = edtc_shell();
        sh.execute("freeze layout");
        let out = sh.execute("checkin CPU layout mask data");
        assert!(out.is_error());
        assert!(out.text().contains("frozen"));
        sh.execute("thaw layout");
        let out = sh.execute("checkin CPU layout mask data");
        assert!(!out.is_error());
    }

    #[test]
    fn snapshots_are_stored_and_listed() {
        let mut sh = edtc_shell();
        sh.run_script(
            "checkin CPU HDL_model d x\ncheckin CPU schematic d y\nconnect CPU,HDL_model,1 CPU,schematic,1\nprocess",
        );
        let out = sh.execute("snapshot step1 CPU,HDL_model,1");
        assert!(out.text().contains("pinned 2 OIDs"), "{out:?}");
        let out = sh.execute("snapshots");
        assert!(out.text().contains("step1"));
    }

    #[test]
    fn dot_output_is_graphviz() {
        let mut sh = edtc_shell();
        sh.run_script("checkin CPU HDL_model d x\nprocess");
        let out = sh.execute("dot");
        assert!(out.text().starts_with("digraph"));
    }

    #[test]
    fn unknown_command_is_reported() {
        let mut sh = edtc_shell();
        let out = sh.execute("frobnicate");
        assert!(out.is_error());
        assert!(out.text().contains("unknown command"));
    }

    #[test]
    fn a_malformed_query_is_reported_as_a_query() {
        let mut sh = edtc_shell();
        let out = sh.execute("query ???");
        assert!(out.is_error());
        assert_eq!(
            out.text(),
            "error: meta-database error: invalid query `???`: unrecognized query term `???`"
        );
    }

    #[test]
    fn usage_errors_carry_positions() {
        let mut sh = edtc_shell();
        // Missing argument: position is end-of-line, expectation is named.
        let out = sh.execute("workleft CPU,HDL_model,1");
        assert!(out.is_error());
        assert!(out.text().contains("at byte 24"), "{out:?}");
        assert!(out.text().contains("state property"), "{out:?}");
        assert!(out.text().contains("end of line"), "{out:?}");
        // Malformed token: position points at the token itself.
        let out = sh.execute("connect not-an-oid CPU,HDL_model,1");
        assert!(out.is_error());
        assert!(out.text().contains("at byte 8"), "{out:?}");
        assert!(out.text().contains("not-an-oid"), "{out:?}");
        // Bad wire direction: position from the wire grammar.
        let out = sh.execute("postEvent ckin sideways CPU,HDL_model,1");
        assert!(out.is_error());
        assert!(out.text().contains("at byte 15"), "{out:?}");
        assert!(out.text().contains("sideways"), "{out:?}");
    }

    #[test]
    fn stat_reports_server_state() {
        let mut sh = edtc_shell();
        sh.run_script("checkin CPU HDL_model d x\nprocess");
        let out = sh.execute("stat");
        assert!(out.text().contains("oids=1"), "{out:?}");
        assert!(out.text().contains("journal=off"), "{out:?}");
    }

    #[test]
    fn stat_reports_invocation_counters() {
        let mut sh = edtc_shell();
        let out = sh.execute("stat");
        assert!(out.text().contains("inv_pending=0"), "{out:?}");
        assert!(out.text().contains("inv_failed=0"), "{out:?}");
    }

    #[test]
    fn retry_command_sets_policies_and_pump_drains() {
        let mut sh = edtc_shell();
        let out = sh.execute("retry - 5 10 2 30000");
        assert_eq!(out.text(), "default retry policy set", "{out:?}");
        let out = sh.execute("retry hdl_sim 0 1 1 1000");
        assert_eq!(out.text(), "retry policy set for `hdl_sim`", "{out:?}");
        let (default_policy, overrides) = sh.server().unwrap().retry_policies();
        assert_eq!(default_policy.max_retries, 5);
        assert_eq!(
            overrides,
            vec![(
                "hdl_sim".to_string(),
                blueprint_core::engine::invoke::RetryPolicy {
                    max_retries: 0,
                    base_delay: std::time::Duration::from_millis(1),
                    multiplier: 1,
                    timeout: std::time::Duration::from_millis(1000),
                }
            )]
        );
        // A pump on an idle server is a harmless empty drain.
        let out = sh.execute("pump");
        assert!(out.text().starts_with("processed 0 events"), "{out:?}");
        // Usage errors are positioned like every other command.
        let out = sh.execute("retry - 5 x 2 30000");
        assert!(out.is_error());
        assert!(out.text().contains("base delay"), "{out:?}");
    }

    #[test]
    fn help_lists_commands() {
        let mut sh = Shell::new();
        let out = sh.execute("help");
        assert!(out.text().contains("postEvent"));
        assert!(out.text().contains("snapshot"));
        assert!(out.text().contains("replay"));
        assert!(out.text().contains("trace"));
    }

    #[test]
    fn trace_captures_and_drains_records() {
        let mut sh = edtc_shell();
        assert_eq!(sh.execute("trace on").text(), "tracing on");
        sh.run_script("checkin CPU HDL_model yves module\nprocess");
        let out = sh.execute("trace get");
        assert!(out.text().contains("begin ckin"), "{out:?}");
        assert!(out.text().contains("write"), "{out:?}");
        assert!(out.text().contains("end"), "{out:?}");
        // The get drained: a second poll is empty, retention stays on.
        assert_eq!(sh.execute("trace get").text(), "(no trace records)");
        assert_eq!(sh.execute("trace off").text(), "tracing off");
        // With retention off, waves leave no records.
        sh.run_script("checkin CPU HDL_model yves v2\nprocess");
        assert_eq!(sh.execute("trace get").text(), "(no trace records)");
        // Usage errors are positioned.
        let out = sh.execute("trace sideways");
        assert!(out.is_error());
        assert!(out.text().contains("sideways"), "{out:?}");
    }

    #[test]
    fn replay_requires_journaling() {
        let mut sh = edtc_shell();
        let out = sh.execute("replay 1 0");
        assert!(out.is_error());
        assert!(out.text().contains("journal"), "{out:?}");
    }

    #[test]
    fn init_from_file_works() {
        let dir = std::env::temp_dir().join("damocles-shell-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bp.bp");
        std::fs::write(&path, "blueprint filetest view v endview endblueprint").unwrap();
        let mut sh = Shell::new();
        let out = sh.execute(&format!("init {}", path.display()));
        assert!(out.text().contains("filetest"), "{out:?}");
        let out = sh.execute("init /nonexistent/path.bp");
        assert!(out.is_error());
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;

    fn edtc_shell() -> Shell {
        let server = ProjectServer::from_source(damocles_flows::EDTC_SOURCE).expect("EDTC parses");
        Shell::with_server(server)
    }

    #[test]
    fn journal_checkpoint_recover_commands() {
        let dir = std::env::temp_dir().join("damocles-shell-journal");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.display().to_string();

        let mut sh = edtc_shell();
        let out = sh.execute(&format!("journal {dir_s} 4096"));
        assert!(out.text().contains("journaling"), "{out:?}");
        sh.run_script(
            "checkin CPU HDL_model yves module cpu\ncheckin CPU schematic synth cell\nconnect CPU,HDL_model,1 CPU,schematic,1\nprocess",
        );
        let out = sh.execute("checkpoint");
        assert!(out.text().contains("epoch"), "{out:?}");
        // More work after the checkpoint lands in the journal tail.
        sh.run_script("checkin CPU HDL_model yves module v2\nprocess");
        let image = damocles_meta::persist::save(sh.server().unwrap().db());

        // A fresh shell recovers snapshot + tail and keeps tracking.
        let mut sh2 = edtc_shell();
        let out = sh2.execute(&format!("recover {dir_s}"));
        assert!(out.text().contains("recovered"), "{out:?}");
        assert!(out.text().contains("journal ops replayed"), "{out:?}");
        assert_eq!(
            damocles_meta::persist::save(sh2.server().unwrap().db()),
            image
        );
        let out = sh2.execute("show CPU,schematic,1");
        assert!(out.text().contains("uptodate = false"), "{out:?}");

        // Bad invocations are user errors, not crashes.
        assert!(sh2.execute("journal").is_error());
        assert!(sh2.execute("recover /nonexistent/dir").is_error());
        let mut fresh = edtc_shell();
        assert!(fresh.execute("checkpoint").is_error());
    }

    #[test]
    fn replay_reconstructs_historical_images() {
        let dir = std::env::temp_dir().join("damocles-shell-replay");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.display().to_string();

        let mut sh = edtc_shell();
        sh.execute(&format!("journal {dir_s} 4096"));
        sh.run_script("checkin CPU HDL_model yves module cpu\nprocess");
        // The live cursor from `stat` replays to the live image.
        let stat = sh.execute("stat");
        let cursor = stat
            .text()
            .split("cursor=(")
            .nth(1)
            .and_then(|s| s.split(')').next())
            .expect("stat reports a cursor")
            .to_string();
        let (epoch, seq) = cursor.split_once(',').expect("epoch,seq");
        let out = sh.execute(&format!("replay {epoch} {seq}"));
        assert!(!out.is_error(), "{out:?}");
        assert!(out.text().contains("replayed cursor"), "{out:?}");
        let live = blueprint_core::engine::server::ProjectServer::project_image(
            sh.server().expect("initialized"),
        );
        assert!(out.text().ends_with(live.trim_end()), "{out:?}");
        // Seq 0 is the bare snapshot (empty project here): time travel.
        let out = sh.execute(&format!("replay {epoch} 0"));
        assert!(out.text().contains("0 OIDs"), "{out:?}");
        // A cursor beyond the journal is a loud, structured error.
        let out = sh.execute(&format!("replay {epoch} 999999"));
        assert!(out.is_error());
        assert!(out.text().contains("beyond"), "{out:?}");
        // As is an epoch no longer on disk.
        let out = sh.execute("replay 999 0");
        assert!(out.is_error());
        assert!(out.text().contains("epoch"), "{out:?}");
    }

    #[test]
    fn save_and_load_roundtrip_through_files() {
        let dir = std::env::temp_dir().join("damocles-shell-persist");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("proj.ddb");
        let path_s = path.display().to_string();

        let server = ProjectServer::from_source(damocles_flows::EDTC_SOURCE).expect("EDTC parses");
        let mut sh = Shell::with_server(server);
        sh.run_script(
            "checkin CPU HDL_model yves module cpu\ncheckin CPU schematic synth cell\nconnect CPU,HDL_model,1 CPU,schematic,1\nprocess",
        );
        let out = sh.execute(&format!("save {path_s}"));
        assert!(!out.is_error(), "{out:?}");

        // A fresh shell restores the project and continues tracking.
        let server2 = ProjectServer::from_source(damocles_flows::EDTC_SOURCE).expect("EDTC parses");
        let mut sh2 = Shell::with_server(server2);
        let out = sh2.execute(&format!("load {path_s}"));
        assert!(out.text().contains("2 OIDs"), "{out:?}");
        let out = sh2.execute("show CPU,schematic,1");
        assert!(out.text().contains("uptodate = true"), "{out:?}");
        // Change propagation still works on the restored database.
        sh2.run_script("checkin CPU HDL_model yves module v2\nprocess");
        let out = sh2.execute("show CPU,schematic,1");
        assert!(out.text().contains("uptodate = false"), "{out:?}");
    }
}
