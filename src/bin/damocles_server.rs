//! `damocles_server` — the networked project-server front door, in one
//! of two roles.
//!
//! **Leader** (default): the paper's wrapper programs emit `postEvent`
//! lines "over the network" (§3.1); this binary gives them an actual
//! network to talk to. It loads a blueprint, spawns the single-engine
//! command loop, and serves the typed command protocol over a minimal
//! line-framed TCP socket: each connection is one session, each line one
//! request, answered by exactly one response line in the
//! `Request`/`Response` text codec. Bare `postEvent …` wire lines are
//! accepted as sugar for `post`.
//!
//! ```console
//! $ damocles_server edtc.bp --listen 127.0.0.1:7425 --journal ./dura
//! listening on 127.0.0.1:7425
//! $ printf 'checkin CPU HDL_model yves 6d6f64756c65\nprocess\n' | nc 127.0.0.1 7425
//! created CPU,HDL_model,1
//! processed 1 2 0 0
//! ```
//!
//! Requests from all connections are serialized onto the engine in
//! arrival order and **group-committed** with an adaptive window: each
//! batch takes exactly what is queued when it forms, so an idle client
//! pays one fsync of latency while a burst amortizes one append+fsync
//! across the whole backlog — a reply in hand always means the effect is
//! durable. There is no batch-size knob to tune. Each `process` drain
//! runs every event's wave inline, in queue order (see `DESIGN.md` §9).
//!
//! **Follower** (`--follow <leader-addr>`): a read-only replica. It
//! connects to a journaling leader, bootstraps from the leader's
//! checkpoint snapshot, applies the committed journal-record stream live
//! (records only become visible after the leader's group-commit fsync),
//! and serves `query`/`show`/`summary`/`dump`/`stat`/… from the replica
//! while rejecting mutations with a structured `read-only` error naming
//! the leader. The tail pump is the library's
//! (`damocles_tools::remote::spawn_tail_pump`): a lost leader connection
//! degrades to stale reads, and the pump reconnects from the follower's
//! cursor, backing off from 25 ms to at most 1 s. After `promote` the
//! pump stops and the same loop serves writes, group-committed exactly as
//! on a leader.
//!
//! ```console
//! $ damocles_server edtc.bp --follow 10.0.0.7:7425 --listen 127.0.0.1:7426
//! following 10.0.0.7:7425; read-only front door on 127.0.0.1:7426
//! ```
//!
//! **Fleet** (`--fleet <root>`): a multi-project front door. The root
//! directory holds one journal dir per project; sessions attach with
//! `project <name>` (add `new` to register) and are routed onto
//! `--engine-workers N` engine threads, with at most `--max-active M`
//! projects in memory — idle ones are LRU-evicted through their
//! checkpoints and lazily recovered on the next request. All tenants
//! share one compiled blueprint. See `DESIGN.md` §12.
//!
//! ```console
//! $ damocles_server edtc.bp --fleet ./projects --engine-workers 4 --max-active 8
//! fleet root ./projects: 0 projects registered; 4 engine workers, 8 max active
//! listening on 127.0.0.1:7425 (fleet mode)
//! ```

use std::net::TcpListener;

use blueprint_core::engine::api::{Request, Response, DEFAULT_CHECKPOINT_EVERY};
use blueprint_core::engine::exec::NullExecutor;
use blueprint_core::engine::fleet::{spawn_fleet, FleetConfig, ProjectRegistry};
use blueprint_core::engine::follower::spawn_follower_loop;
use blueprint_core::engine::service::{
    serve_listener, serve_with, spawn_project_loop, ProjectService,
};
use damocles_tools::remote::spawn_tail_pump;

const USAGE: &str = "usage: damocles_server <blueprint.bp> [--listen <addr>] \
                     [--journal <dir>] [--every <records>] \
                     [--retry <retries,base_ms,mult,timeout_ms>] \
                     [--follow <leader-addr>] [--replay-until <epoch,seq>] \
                     [--fleet <root>] [--engine-workers <n>] [--max-active <m>]";

fn main() {
    let mut args = std::env::args().skip(1);
    let mut blueprint_path: Option<String> = None;
    let mut listen = "127.0.0.1:7425".to_string();
    let mut journal_dir: Option<String> = None;
    let mut every: u64 = DEFAULT_CHECKPOINT_EVERY;
    let mut retry: Option<[u64; 4]> = None;
    let mut follow: Option<String> = None;
    let mut replay_until: Option<(u64, u64)> = None;
    let mut fleet_root: Option<String> = None;
    let mut engine_workers: usize = 4;
    let mut max_active: usize = 64;

    let value_of = |args: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("error: {flag} needs a value\n{USAGE}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = value_of(&mut args, "--listen"),
            "--journal" => journal_dir = Some(value_of(&mut args, "--journal")),
            "--every" => {
                every = value_of(&mut args, "--every").parse().unwrap_or_else(|_| {
                    eprintln!("error: --every needs a number\n{USAGE}");
                    std::process::exit(2);
                })
            }
            "--retry" => {
                let spec = value_of(&mut args, "--retry");
                let parts: Vec<u64> = spec
                    .split(',')
                    .map(|p| p.trim().parse::<u64>())
                    .collect::<Result<_, _>>()
                    .unwrap_or_default();
                let [a, b, c, d] = parts[..] else {
                    eprintln!("error: --retry wants `retries,base_ms,mult,timeout_ms`\n{USAGE}");
                    std::process::exit(2);
                };
                retry = Some([a, b, c, d]);
            }
            "--follow" => follow = Some(value_of(&mut args, "--follow")),
            "--fleet" => fleet_root = Some(value_of(&mut args, "--fleet")),
            "--engine-workers" => {
                engine_workers = value_of(&mut args, "--engine-workers")
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("error: --engine-workers needs a number\n{USAGE}");
                        std::process::exit(2);
                    })
            }
            "--max-active" => {
                max_active = value_of(&mut args, "--max-active")
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("error: --max-active needs a number\n{USAGE}");
                        std::process::exit(2);
                    })
            }
            "--replay-until" => {
                let spec = value_of(&mut args, "--replay-until");
                let parsed = spec
                    .split_once(',')
                    .and_then(|(e, s)| Some((e.trim().parse().ok()?, s.trim().parse().ok()?)));
                replay_until = match parsed {
                    Some(cursor) => Some(cursor),
                    None => {
                        eprintln!("error: --replay-until wants `epoch,seq`\n{USAGE}");
                        std::process::exit(2);
                    }
                };
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if blueprint_path.is_none() => blueprint_path = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(blueprint_path) = blueprint_path else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    if follow.is_some() && journal_dir.is_some() {
        eprintln!("error: --follow and --journal are exclusive (a follower replicates the leader's journal)\n{USAGE}");
        std::process::exit(2);
    }
    let source = match std::fs::read_to_string(&blueprint_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {blueprint_path}: {e}");
            std::process::exit(2);
        }
    };

    if let Some(root) = fleet_root {
        if follow.is_some() || journal_dir.is_some() || replay_until.is_some() {
            eprintln!("error: --fleet is exclusive with --follow/--journal/--replay-until (each project journals under the fleet root)\n{USAGE}");
            std::process::exit(2);
        }
        run_fleet(&root, &source, &listen, engine_workers, max_active, every);
        return;
    }

    // Drive setup through the same protocol the network speaks.
    let mut service: ProjectService = ProjectService::new();
    match service.call(Request::Init { source }) {
        Response::Blueprint { name } => eprintln!("blueprint `{name}` initialized"),
        Response::Error(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        other => {
            eprintln!("error: unexpected init response {other:?}");
            std::process::exit(2);
        }
    }

    // Time-travel mode: reconstruct the image at the cursor from the
    // journal directory *at rest* and serve it WITHOUT journaling — the
    // evidence directory is never written, so a bug report (journal dir +
    // cursor) can be inspected repeatedly and non-destructively.
    if let Some((epoch, seq)) = replay_until {
        let Some(dir) = journal_dir.take() else {
            eprintln!("error: --replay-until needs --journal <dir> as the journal source\n{USAGE}");
            std::process::exit(2);
        };
        if follow.is_some() {
            eprintln!("error: --replay-until and --follow are exclusive\n{USAGE}");
            std::process::exit(2);
        }
        match blueprint_core::engine::server::replay_dir(&dir, epoch, seq) {
            Ok((oids, image)) => {
                let adopted = service
                    .server_mut()
                    .expect("initialized above")
                    .adopt_replica_image(&image);
                if let Err(e) = adopted {
                    eprintln!("error: cannot adopt replayed image: {e}");
                    std::process::exit(2);
                }
                eprintln!(
                    "replayed {dir} at cursor ({epoch}, {seq}): {oids} OIDs; \
                     serving the historical image, journaling off"
                );
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    let listener = match TcpListener::bind(&listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {listen}: {e}");
            std::process::exit(2);
        }
    };
    let bound = listener.local_addr().map_or(listen, |a| a.to_string());

    if let Some(leader) = follow {
        run_follower(service, listener, &bound, leader);
        return;
    }

    if let Some(dir) = journal_dir {
        match service.call(Request::EnableJournal {
            dir: dir.clone(),
            every,
        }) {
            Response::Epoch { epoch } => {
                eprintln!(
                    "journaling to {dir} (epoch {epoch}, checkpoint once the journal \
                     holds {every} records and outgrows the snapshot)"
                );
            }
            Response::Error(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
            other => {
                eprintln!("error: unexpected journal response {other:?}");
                std::process::exit(2);
            }
        }
    }

    if let Some([max_retries, base_delay_ms, multiplier, timeout_ms]) = retry {
        match service.call(Request::SetRetryPolicy {
            script: None,
            max_retries,
            base_delay_ms,
            multiplier,
            timeout_ms,
        }) {
            Response::Ok => eprintln!(
                "default tool retry policy: {max_retries} retries, \
                 {base_delay_ms}ms base delay x{multiplier}, {timeout_ms}ms timeout"
            ),
            other => {
                eprintln!("error: unexpected retry response {other:?}");
                std::process::exit(2);
            }
        }
    }
    eprintln!("listening on {bound} (adaptive group commit)");
    let (handle, _join) = spawn_project_loop(service);
    if let Err(e) = serve_listener(listener, &handle) {
        eprintln!("error: listener failed: {e}");
        std::process::exit(1);
    }
}

/// Fleet role: open the project registry, spawn the router + engine
/// worker pool, and serve the same line-framed protocol — sessions
/// attach with `project <name>` before routing commands.
fn run_fleet(
    root: &str,
    source: &str,
    listen: &str,
    engine_workers: usize,
    max_active: usize,
    every: u64,
) {
    let config = FleetConfig {
        engine_workers: engine_workers.max(1),
        max_active: max_active.max(1),
        checkpoint_every: every,
        ..FleetConfig::default()
    };
    let registry = match ProjectRegistry::open(root, source, config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "fleet root {root}: {} projects registered; {} engine workers, {} max active",
        registry.projects().count(),
        engine_workers.max(1),
        max_active.max(1)
    );
    let listener = match TcpListener::bind(listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {listen}: {e}");
            std::process::exit(2);
        }
    };
    let bound = listener
        .local_addr()
        .map_or_else(|_| listen.to_string(), |a| a.to_string());
    let (fleet, _join) = spawn_fleet::<NullExecutor>(registry);
    eprintln!("listening on {bound} (fleet mode)");
    if let Err(e) = serve_with(listener, || fleet.session(), None) {
        eprintln!("error: listener failed: {e}");
        std::process::exit(1);
    }
}

/// Follower role: spawn the read-only loop, keep a tail connection to
/// the leader alive (reconnecting from the applied cursor), and serve
/// the front door — reads from the replica, `tailfrom` fan-out from the
/// node's own hub (replica trees), and `promote` to take leadership
/// (after which the same loop serves the full mutation surface).
fn run_follower(service: ProjectService, listener: TcpListener, bound: &str, leader: String) {
    // The node's own publication hub: the loop republishes applied
    // frames here, so downstream replicas (and the post-promotion tail)
    // stream from this node exactly as it streams from the leader.
    let hub = service.tail_hub();
    let (handle, _join) = spawn_follower_loop(service, leader.clone());
    eprintln!("following {leader}; read-only front door on {bound}");
    spawn_tail_pump(leader, handle.feed(), handle.status());
    if let Err(e) = serve_with(listener, || handle.session(), Some(hub)) {
        eprintln!("error: listener failed: {e}");
        std::process::exit(1);
    }
}
