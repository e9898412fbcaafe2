//! HA failover chaos suite (ISSUE 9): kill the leader **process** at a
//! seed-chosen request index, promote the most-caught-up follower under
//! a fenced term, and prove that leader-chasing clients finish the
//! workload with a final image **byte-identical** to an uninterrupted
//! run — exactly-once effects across the crash. A revived stale leader
//! is fenced and refused, and replica trees re-parent through a
//! follower's own fan-out hub.
//!
//! The chaos seed comes from `DAMOCLES_CHAOS_SEED` (decimal) and is
//! printed up front, so any CI failure is replayable with
//! `DAMOCLES_CHAOS_SEED=<seed> cargo test --test failover`.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use damocles::core::engine::api::{ApiError, NodeRole, Request, Response};
use damocles::core::engine::follower::spawn_follower_loop;
use damocles::core::engine::service::ProjectService;
use damocles::core::engine::service::{serve_listener, serve_with, spawn_project_loop};
use damocles::prelude::*;
use damocles::tools::remote::{spawn_tail_pump, LeaderClient, ReconnectPolicy, RemoteWrapper};
use damocles_meta::Oid;

const BLUEPRINT: &str = r#"
    blueprint failover
    view default
        property uptodate default true
        when ckin do uptodate = true; post outofdate down done
        when outofdate do uptodate = false done
    endview
    view HDL_model endview
    view schematic
        link_from HDL_model move propagates outofdate type derived
    endview
    endblueprint
"#;

/// Workload size: distinct blocks, alternating views, periodic drains.
const WORKLOAD: usize = 40;

// ---------------------------------------------------------------------
// Seeded randomness (xorshift64*): deterministic per seed, no deps.
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn in_range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo)
    }
}

fn chaos_seed() -> u64 {
    std::env::var("DAMOCLES_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0xDA40_C1E5)
}

// ---------------------------------------------------------------------
// Process-level nodes: the real `damocles_server` binary over real TCP.
// ---------------------------------------------------------------------

/// One spawned server process; SIGKILLed on drop so a failed assertion
/// never leaks children.
struct Node {
    child: Child,
    addr: String,
    tag: &'static str,
}

impl Node {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawns `damocles_server` with `extra` args on an ephemeral port and
/// parses the bound address off its stderr banner; remaining stderr is
/// drained to the test's stderr under `tag` (visible on failure).
fn spawn_node(blueprint: &std::path::Path, extra: &[String], tag: &'static str) -> Node {
    let mut child = Command::new(env!("CARGO_BIN_EXE_damocles_server"))
        .arg(blueprint)
        .args(["--listen", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn damocles_server");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let mut addr = None;
    for line in lines.by_ref() {
        let line = line.expect("node stderr");
        eprintln!("[{tag}] {line}");
        // Leader banner: "listening on <addr> …"; follower banner:
        // "following <leader>; read-only front door on <addr>".
        if let Some(rest) = line.strip_prefix("listening on ") {
            addr = rest.split_whitespace().next().map(str::to_string);
            break;
        }
        if let Some((_, rest)) = line.split_once("front door on ") {
            addr = rest.split_whitespace().next().map(str::to_string);
            break;
        }
    }
    let addr = addr.expect("node printed its bound address");
    std::thread::spawn(move || {
        for line in lines.map_while(Result::ok) {
            eprintln!("[{tag}] {line}");
        }
    });
    Node { child, addr, tag }
}

fn blueprint_file(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("failover.bp");
    std::fs::write(&path, BLUEPRINT).expect("write blueprint");
    path
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("damocles-failover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mk test dir");
    dir
}

// ---------------------------------------------------------------------
// Workload: deterministic request sequence, exactly-once across crashes.
// ---------------------------------------------------------------------

fn workload_request(i: usize) -> Request {
    if i % 5 == 4 {
        Request::ProcessAll
    } else {
        let view = if i.is_multiple_of(2) {
            "HDL_model"
        } else {
            "schematic"
        };
        Request::Checkin {
            block: format!("blk{i}"),
            view: view.into(),
            user: "chaos".into(),
            payload: vec![i as u8],
        }
    }
}

/// The OID a workload check-in creates — used to detect whether an
/// ambiguous (crashed mid-request) mutation actually committed.
fn workload_oid(i: usize) -> Option<Oid> {
    if i % 5 == 4 {
        None
    } else {
        let view = if i.is_multiple_of(2) {
            "HDL_model"
        } else {
            "schematic"
        };
        Some(Oid::new(format!("blk{i}"), view, 1))
    }
}

/// Issues workload request `i` exactly once: an ambiguous transport
/// error on a check-in is resolved by asking the current leader whether
/// the version landed (detectable-idempotence); `process` is re-issued
/// freely (draining is idempotent in this sequential workload).
fn issue_exactly_once(client: &mut LeaderClient, check: &mut RemoteWrapper, i: usize) {
    let request = workload_request(i);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(
            Instant::now() < deadline,
            "workload request {i} did not land within 30s"
        );
        match client.call(&request) {
            Ok(Response::Created { .. } | Response::Processed { .. }) => return,
            Ok(Response::Error(e)) => panic!("workload request {i} refused: {e}"),
            Ok(other) => panic!("workload request {i}: unexpected {other:?}"),
            Err(_) => {
                // Ambiguous or unreachable. For a check-in, ask the
                // leader whether it landed before re-issuing.
                if let Some(oid) = workload_oid(i) {
                    if let Ok(Response::Props { .. }) = check.request(&Request::Show { oid }) {
                        return; // the crashed leader committed + replicated it
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// The node's committed position + role via its front door.
fn stat_of(addr: &str) -> Option<(u64, u64, u64, NodeRole)> {
    let mut probe = RemoteWrapper::connect(addr, "probe").ok()?;
    match probe.request(&Request::Stat).ok()? {
        Response::Stat { stat } => Some((stat.cursor_epoch, stat.cursor_seq, stat.term, stat.role)),
        _ => None,
    }
}

/// Saves the node's project image through the protocol and reads it back.
fn image_of(addr: &str, path: &std::path::Path) -> String {
    let _ = std::fs::remove_file(path);
    let mut client = RemoteWrapper::connect(addr, "imager").expect("connect for image");
    assert_eq!(
        client
            .request(&Request::SaveProject {
                path: path.display().to_string(),
            })
            .expect("save image"),
        Response::Ok
    );
    std::fs::read_to_string(path).expect("read image")
}

/// The reference run: one leader, no interference, full workload.
fn reference_image(dir: &std::path::Path) -> String {
    let bp = blueprint_file(dir);
    let journal = dir.join("ref-journal");
    let leader = spawn_node(
        &bp,
        &["--journal".into(), journal.display().to_string()],
        "ref-leader",
    );
    let mut client = LeaderClient::new([leader.addr.clone()], "chaos");
    let mut check = RemoteWrapper::connect(&leader.addr, "check").expect("connect checker");
    for i in 0..WORKLOAD {
        issue_exactly_once(&mut client, &mut check, i);
    }
    assert!(matches!(
        client.call(&Request::ProcessAll).expect("final drain"),
        Response::Processed { .. }
    ));
    image_of(&leader.addr, &dir.join("reference.ddb"))
}

/// Kill-the-leader chaos: the workload starts against a live leader with
/// two followers; at a seed-chosen index the leader dies (SIGKILL).
/// The harness promotes the most-caught-up follower under term 2, the
/// leader-chasing client finishes the workload, and the final image is
/// byte-identical to the reference. Finally the dead leader is revived
/// on its own journal, fenced, and refused.
#[test]
fn kill_the_leader_chaos() {
    let seed = chaos_seed();
    eprintln!("chaos seed: {seed} (replay: DAMOCLES_CHAOS_SEED={seed})");
    let mut rng = Rng::new(seed);

    let dir = fresh_dir(&format!("chaos-{seed}"));
    let reference = reference_image(&dir);

    let bp = blueprint_file(&dir);
    let leader_journal = dir.join("leader-journal");
    let mut leader = spawn_node(
        &bp,
        &["--journal".into(), leader_journal.display().to_string()],
        "leader",
    );
    let followers: Vec<Node> = ["follower-a", "follower-b"]
        .iter()
        .map(|tag| spawn_node(&bp, &["--follow".into(), leader.addr.clone()], tag))
        .collect();

    let crash_at = rng.in_range(WORKLOAD / 4, 3 * WORKLOAD / 4);
    eprintln!("[harness] leader dies before request {crash_at}");

    let mut client = LeaderClient::new(
        std::iter::once(leader.addr.clone()).chain(followers.iter().map(|f| f.addr.clone())),
        "chaos",
    )
    .with_policy(ReconnectPolicy {
        max_attempts: 12,
        base_delay: Duration::from_millis(25),
        multiplier: 2,
    });
    let mut check = RemoteWrapper::connect(&leader.addr, "check").expect("connect checker");

    for i in 0..crash_at {
        issue_exactly_once(&mut client, &mut check, i);
    }

    // Replication is asynchronous: an acked write the tail thread has not
    // yet streamed to any follower is lost on promotion (DESIGN.md §13).
    // This test proves failover of *replicated* state, so it kills the
    // leader only once some follower's cursor has reached the leader's.
    let (leader_epoch, leader_seq, _, _) = stat_of(&leader.addr).expect("leader stat");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !followers.iter().any(|f| {
        stat_of(&f.addr)
            .is_some_and(|(epoch, seq, _, _)| (epoch, seq) >= (leader_epoch, leader_seq))
    }) {
        assert!(
            Instant::now() < deadline,
            "no follower reached the leader's cursor ({leader_epoch}, {leader_seq}) within 10s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // ------------------------------------------------------------------
    // CRASH. No shutdown, no flush: SIGKILL mid-reign.
    // ------------------------------------------------------------------
    leader.kill();
    eprintln!("[harness] leader killed");

    // Let the followers drain whatever the dead leader had streamed,
    // then promote the most-caught-up one under term 2.
    let promoted_addr = {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut best: Option<(u64, u64, &str)> = None;
        let mut settled = 0;
        let mut last: Vec<(u64, u64)> = Vec::new();
        while Instant::now() < deadline && settled < 3 {
            let cursors: Vec<(u64, u64)> = followers
                .iter()
                .map(|f| stat_of(&f.addr).map_or((0, 0), |(e, s, _, _)| (e, s)))
                .collect();
            settled = if cursors == last { settled + 1 } else { 0 };
            last = cursors;
            std::thread::sleep(Duration::from_millis(100));
        }
        for f in &followers {
            if let Some((epoch, seq, _, _)) = stat_of(&f.addr) {
                eprintln!("[harness] {} at cursor ({epoch}, {seq})", f.tag);
                if best.is_none() || (epoch, seq) > (best.unwrap().0, best.unwrap().1) {
                    best = Some((epoch, seq, &f.addr));
                }
            }
        }
        best.expect("at least one follower answered stat").2
    };
    let mut promoter = RemoteWrapper::connect(promoted_addr, "operator").expect("connect promoter");
    let promoted_journal = dir.join("promoted-journal");
    match promoter
        .request(&Request::Promote {
            dir: promoted_journal.display().to_string(),
            every: 1_000_000,
            term: 2,
        })
        .expect("promote rpc")
    {
        Response::Promoted { epoch, term } => {
            eprintln!("[harness] promoted {promoted_addr}: epoch {epoch}, term {term}");
            assert_eq!(term, 2);
        }
        other => panic!("promotion refused: {other:?}"),
    }
    // Ambiguity checks now consult the NEW leader.
    check = RemoteWrapper::connect(promoted_addr, "check").expect("connect new checker");

    // The chased client finishes the workload against the new reign.
    for i in crash_at..WORKLOAD {
        issue_exactly_once(&mut client, &mut check, i);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match client.call(&Request::ProcessAll) {
            Ok(Response::Processed { .. }) => break,
            Ok(other) => panic!("final drain: unexpected {other:?}"),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => panic!("final drain never landed: {e}"),
        }
    }

    // The new reign's image is byte-identical to the uninterrupted run.
    let after = image_of(promoted_addr, &dir.join("after-failover.ddb"));
    assert_eq!(
        after, reference,
        "post-failover image diverged from the uninterrupted reference (seed {seed})"
    );
    let (_, _, term, role) = stat_of(promoted_addr).expect("promoted stat");
    assert_eq!((term, role), (2, NodeRole::Leader));

    // ------------------------------------------------------------------
    // Split-brain epilogue: the dead leader comes back on its own
    // journal, still believing it leads term 1. Fencing deposes it: all
    // further mutations are refused with the structured stale-term error.
    // ------------------------------------------------------------------
    let revived = spawn_node(
        &bp,
        &[
            "--journal".into(),
            leader_journal.display().to_string(),
            "--every".into(),
            "1000000".into(),
        ],
        "revived-leader",
    );
    let mut zombie = RemoteWrapper::connect(&revived.addr, "zombie").expect("connect revived");
    assert_eq!(
        zombie.request(&Request::Fence { term: 2 }).expect("fence"),
        Response::Ok
    );
    match zombie
        .request(&workload_request(0))
        .expect("zombie mutation rpc")
    {
        Response::Error(ApiError::StaleTerm {
            term: 1,
            current: 2,
        }) => {}
        other => panic!("revived stale leader was not refused: {other:?}"),
    }
    // The fenced zombie's clients get chased to nowhere — but a
    // LeaderClient seeded with the real fleet still finds the leader.
    let mut rescued = LeaderClient::new([revived.addr.clone(), promoted_addr.to_string()], "chaos")
        .with_policy(ReconnectPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(10),
            multiplier: 2,
        });
    assert!(matches!(
        rescued
            .call(&Request::ProcessAll)
            .expect("chase past the fence"),
        Response::Processed { .. }
    ));

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Replica trees: a follower's follower, fed through the middle node's
// own fan-out hub (in-process; the tree transport minus the sockets is
// already covered by unit tests, this drives the real TCP handshake).
// ---------------------------------------------------------------------

/// Chained replication over real TCP: leader → follower A → follower B.
/// B tails A's front door exactly as A tails the leader's, and reaches
/// the leader's image byte-identically through the middle hop.
#[test]
fn replica_tree_fans_out_through_a_follower() {
    let mut leader: ProjectService = ProjectService::new();
    assert!(!leader
        .call(Request::Init {
            source: BLUEPRINT.into()
        })
        .is_error());
    let dir = fresh_dir("tree");
    assert!(matches!(
        leader.call(Request::EnableJournal {
            dir: dir.display().to_string(),
            every: 1_000_000,
        }),
        Response::Epoch { .. }
    ));
    let leader_listener = TcpListener::bind("127.0.0.1:0").expect("bind leader");
    let leader_addr = leader_listener.local_addr().unwrap().to_string();
    let (leader_handle, _leader_join) = spawn_project_loop(leader);
    {
        let handle = leader_handle.clone();
        std::thread::spawn(move || {
            let _ = serve_listener(leader_listener, &handle);
        });
    }

    // Middle node A: follower loop + fan-out front door (Some(hub)).
    let spawn_tree_follower = |upstream: String| {
        let service: ProjectService =
            ProjectService::with_server(ProjectServer::from_source(BLUEPRINT).unwrap());
        let hub = service.tail_hub();
        let (handle, _join) = spawn_follower_loop(service, upstream.clone());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind follower");
        let addr = listener.local_addr().unwrap().to_string();
        {
            let front = handle.clone();
            std::thread::spawn(move || {
                let _ = serve_with(listener, || front.session(), Some(hub));
            });
        }
        spawn_tail_pump(upstream, handle.feed(), handle.status());
        (handle, addr)
    };
    let (follower_a, addr_a) = spawn_tree_follower(leader_addr.clone());
    let (follower_b, _addr_b) = spawn_tree_follower(addr_a);

    // Mutate the leader; the records must reach B *through* A.
    let mut writer = RemoteWrapper::connect(&leader_addr, "writer").expect("connect leader");
    for i in 0..6 {
        assert!(matches!(
            writer
                .request(&Request::Checkin {
                    block: format!("tree{i}"),
                    view: "HDL_model".into(),
                    user: "yves".into(),
                    payload: vec![i],
                })
                .unwrap(),
            Response::Created { .. }
        ));
    }
    assert!(matches!(
        writer.request(&Request::ProcessAll).unwrap(),
        Response::Processed { .. }
    ));
    let (epoch, seq) = match writer.request(&Request::Stat).unwrap() {
        Response::Stat { stat } => (
            stat.journal_epoch.expect("journaling on"),
            stat.journal_records.expect("journaling on"),
        ),
        other => panic!("{other:?}"),
    };
    assert!(
        follower_a
            .status()
            .wait_applied(epoch, seq, Duration::from_secs(10)),
        "A caught up; at {:?}",
        follower_a.status().cursor()
    );
    assert!(
        follower_b
            .status()
            .wait_applied(epoch, seq, Duration::from_secs(10)),
        "B caught up through A; at {:?}",
        follower_b.status().cursor()
    );
    assert_eq!(
        follower_b.image().unwrap(),
        follower_a.image().unwrap(),
        "the leaf replica is byte-identical through the middle hop"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
