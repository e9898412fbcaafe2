//! The four workloads: what each sends, to which node, at what rate.
//!
//! A workload is a seeded, deterministic request stream. [`plan`] cuts it
//! into the set-up requests, the open-loop phase (`rate × seconds`
//! requests) and the closed-loop saturation phase (a fixed count), so the
//! database ends at the same size on every commit. Every line is built
//! with [`Request::encode`]; the server receives nothing else.

use blueprint_core::engine::api::Request;
use damocles_meta::{Direction, EventMessage};

use crate::design::{Design, USER};
use crate::rng::{Rng, Zipf};

/// Which connection (and so which server process) a request goes to.
pub const LEADER: usize = 0;
/// The follower's connection (mixed_follower only).
pub const FOLLOWER: usize = 1;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// New-version check-ins of unlinked blocks, a `process` after every
    /// 16: the write path (group commit, fsync, checkpoints of a growing
    /// image) with one wave delivery per event.
    CheckinStorm,
    /// `post ckin` at all 512 chain roots, then one `process`: the
    /// propagation path, 3,072 deliveries per drain.
    TrackingStorm,
    /// 90% reads at a follower, 10% posts at the leader.
    MixedFollower,
    /// 100 tenants of 64 OIDs behind `--fleet --max-active 8`; each op
    /// attaches a Zipf(1)-drawn tenant, posts and drains: activation and
    /// eviction.
    FleetChurn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::CheckinStorm,
        Workload::TrackingStorm,
        Workload::MixedFollower,
        Workload::FleetChurn,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CheckinStorm => "checkin_storm",
            Workload::TrackingStorm => "tracking_storm",
            Workload::MixedFollower => "mixed_follower",
            Workload::FleetChurn => "fleet_churn",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop arrival rate, requests per second.
    pub fn rate(self) -> u64 {
        match self {
            Workload::CheckinStorm => 1_000,
            Workload::TrackingStorm => 3_000,
            Workload::MixedFollower => 4_000,
            Workload::FleetChurn => 600,
        }
    }

    /// Requests in the closed-loop saturation phase.
    pub fn saturation_requests(self) -> usize {
        match self {
            Workload::CheckinStorm => 8_000,
            Workload::TrackingStorm => 100 * TRACKING_CYCLE,
            Workload::MixedFollower => 55_000,
            Workload::FleetChurn => FLEET_OP * 4_000,
        }
    }

    /// Whether the workload runs against a fleet server.
    pub fn fleet(self) -> bool {
        self == Workload::FleetChurn
    }

    /// Whether the workload adds a follower process.
    pub fn follower(self) -> bool {
        self == Workload::MixedFollower
    }
}

/// What a request is, for the per-kind latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `checkin` or `post`: a durable write.
    Write,
    /// `process`: a drain, answered once the change has fully propagated.
    Process,
    /// `show`.
    Show,
    /// `query`.
    Query,
    /// `workleft`.
    WorkLeft,
    /// `summary`.
    Summary,
    /// `project <name>`: a fleet attach.
    Attach,
    /// Set-up and check requests (`connect`, `stat`, `dump`, …).
    Other,
}

impl Kind {
    /// Whether the kind is one of the four reads.
    pub fn is_read(self) -> bool {
        matches!(
            self,
            Kind::Show | Kind::Query | Kind::WorkLeft | Kind::Summary
        )
    }

    /// The kind's span names: the client's request and the service call.
    pub fn spans(self) -> (&'static str, &'static str) {
        match self {
            Kind::Write => ("client.write", "service.write"),
            Kind::Process => ("client.process", "service.process"),
            Kind::Show => ("client.show", "service.show"),
            Kind::Query => ("client.query", "service.query"),
            Kind::WorkLeft => ("client.workleft", "service.workleft"),
            Kind::Summary => ("client.summary", "service.summary"),
            Kind::Attach => ("client.attach", "service.attach"),
            Kind::Other => ("client.other", "service.other"),
        }
    }

    /// The kind of a request.
    pub fn of(request: &Request) -> Kind {
        match request {
            Request::Checkin { .. } | Request::Post { .. } => Kind::Write,
            Request::ProcessAll => Kind::Process,
            Request::Show { .. } => Kind::Show,
            Request::Query { .. } => Kind::Query,
            Request::WorkLeft { .. } => Kind::WorkLeft,
            Request::Summary { .. } => Kind::Summary,
            Request::Attach { .. } => Kind::Attach,
            _ => Kind::Other,
        }
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Item {
    /// [`LEADER`] or [`FOLLOWER`].
    pub conn: usize,
    /// The request's kind.
    pub kind: Kind,
    /// The encoded request line, without the newline.
    pub line: String,
}

impl Item {
    /// An item for `request` on `conn`.
    pub fn new(conn: usize, request: &Request) -> Item {
        Item {
            conn,
            kind: Kind::of(request),
            line: request.encode(),
        }
    }
}

/// A workload cut into its phases.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The design every project (or tenant) starts from.
    pub design: Design,
    /// Population requests, closed-loop, on the leader connection.
    pub setup: Vec<Item>,
    /// The open-loop phase, sent at `rate` requests per second.
    pub open: Vec<Item>,
    /// The closed-loop saturation phase.
    pub saturation: Vec<Item>,
    /// The read check after saturation: reads of the final state on the
    /// leader, one in flight, each reply checked against the replay's.
    pub reads: Vec<Item>,
    /// Open-loop arrival rate, requests per second.
    pub rate: u64,
    /// Fleet tenants (empty for single-project workloads).
    pub tenants: Vec<String>,
}

impl Plan {
    /// The open-loop phase followed by the saturation phase.
    pub fn measured(&self) -> impl Iterator<Item = &Item> {
        self.open.iter().chain(&self.saturation)
    }
}

/// Tenants in fleet_churn.
const TENANTS: usize = 100;
/// Requests per tracking_storm cycle: 512 posts, 1 process.
const TRACKING_CYCLE: usize = 512 + 1;
/// Requests per fleet_churn op: attach, post, process.
const FLEET_OP: usize = 3;
/// Unlinked blocks checkin_storm writes new versions of.
const SCRATCH_BLOCKS: usize = 512;
/// Reads in the read check.
const READ_CHECK: usize = 512;

/// Cuts `workload`'s seeded stream into phases. The open-loop phase holds
/// `rate × seconds` requests; with `scale > 1` the saturation phase is
/// divided by `scale` (smoke runs).
pub fn plan(workload: Workload, seed: u64, seconds: f64, scale: usize) -> Plan {
    let mut rng = Rng::new(seed);
    let rate = workload.rate();
    let open_count = (rate as f64 * seconds).round().max(1.0) as usize;
    let sat_count = (workload.saturation_requests() / scale.max(1)).max(1);
    let design = if workload.fleet() {
        Design::TENANT
    } else {
        Design::PROJECT
    };
    let tenants: Vec<String> = if workload.fleet() {
        (0..TENANTS).map(|t| format!("t{t}")).collect()
    } else {
        Vec::new()
    };
    let setup: Vec<Item> = if workload.fleet() {
        tenants
            .iter()
            .flat_map(|t| {
                std::iter::once(Request::Attach {
                    project: t.clone(),
                    create: true,
                })
                .chain(design.setup_requests())
            })
            .map(|r| Item::new(LEADER, &r))
            .collect()
    } else {
        design
            .setup_requests()
            .iter()
            .map(|r| Item::new(LEADER, r))
            .collect()
    };
    let mut stream = Stream::new(workload, design, &mut rng);
    let open: Vec<Item> = (0..open_count).map(|_| stream.next(&mut rng)).collect();
    let saturation: Vec<Item> = (0..sat_count).map(|_| stream.next(&mut rng)).collect();
    let reads: Vec<Item> = (0..READ_CHECK)
        .map(|_| Item::new(LEADER, &read_request(design, &mut rng)))
        .collect();
    Plan {
        workload,
        design,
        setup,
        open,
        saturation,
        reads,
        rate,
        tenants,
    }
}

/// The infinite request stream of one workload.
struct Stream {
    workload: Workload,
    design: Design,
    /// Requests already generated but not yet handed out.
    queue: std::collections::VecDeque<Item>,
    /// mixed_follower: writes since the last `process`.
    writes: usize,
    /// fleet_churn: tenant popularity, and rank → tenant.
    zipf: Zipf,
    tenant_of_rank: Vec<usize>,
}

impl Stream {
    fn new(workload: Workload, design: Design, rng: &mut Rng) -> Stream {
        let mut tenant_of_rank: Vec<usize> = (0..TENANTS).collect();
        rng.shuffle(&mut tenant_of_rank);
        Stream {
            workload,
            design,
            queue: std::collections::VecDeque::new(),
            writes: 0,
            zipf: Zipf::new(TENANTS, 1.0),
            tenant_of_rank,
        }
    }

    fn next(&mut self, rng: &mut Rng) -> Item {
        if self.queue.is_empty() {
            self.refill(rng);
        }
        self.queue.pop_front().expect("refill adds requests")
    }

    fn refill(&mut self, rng: &mut Rng) {
        let d = self.design;
        match self.workload {
            Workload::CheckinStorm => {
                for _ in 0..16 {
                    let b = rng.below(SCRATCH_BLOCKS);
                    let payload = (0..64).map(|_| rng.next_u64() as u8).collect();
                    self.push(
                        LEADER,
                        &Request::Checkin {
                            block: format!("x{b}"),
                            view: format!("f{}_s0", b % d.families),
                            user: USER.to_string(),
                            payload,
                        },
                    );
                }
                self.push(LEADER, &Request::ProcessAll);
            }
            Workload::TrackingStorm => {
                let mut roots: Vec<usize> = (0..d.chains()).collect();
                rng.shuffle(&mut roots);
                for chain in roots {
                    self.push(LEADER, &post_root(d, chain));
                }
                self.push(LEADER, &Request::ProcessAll);
            }
            Workload::MixedFollower => {
                if rng.below(10) == 0 {
                    if self.writes == 16 {
                        self.writes = 0;
                        self.push(LEADER, &Request::ProcessAll);
                    } else {
                        self.writes += 1;
                        let chain = rng.below(d.chains());
                        self.push(LEADER, &post_root(d, chain));
                    }
                } else {
                    let read = read_request(d, rng);
                    self.push(FOLLOWER, &read);
                }
            }
            Workload::FleetChurn => {
                // One op: attach a Zipf-drawn tenant, post at one of its
                // roots, drain.
                let tenant = self.tenant_of_rank[self.zipf.sample(rng)];
                self.push(
                    LEADER,
                    &Request::Attach {
                        project: format!("t{tenant}"),
                        create: false,
                    },
                );
                let chain = rng.below(d.chains());
                self.push(LEADER, &post_root(d, chain));
                self.push(LEADER, &Request::ProcessAll);
            }
        }
    }

    fn push(&mut self, conn: usize, request: &Request) {
        self.queue.push_back(Item::new(conn, request));
    }
}

/// `post ckin up <root of chain>`.
fn post_root(d: Design, chain: usize) -> Request {
    Request::Post {
        message: EventMessage::new("ckin", Direction::Up, d.oid(chain, 0, 1)),
        user: USER.to_string(),
    }
}

/// One read of the design, by the read mix: `show` 50%, `query` 30%,
/// `workleft` 15%, `summary` 5%.
pub fn read_request(d: Design, rng: &mut Rng) -> Request {
    let chain = rng.below(d.chains());
    let stage = rng.below(d.stages);
    match rng.below(100) {
        0..=49 => Request::Show {
            oid: d.oid(chain, stage, 1),
        },
        50..=79 => Request::Query {
            terms: format!("view={} stale.uptodate", d.view(chain, stage)),
        },
        80..=94 => Request::WorkLeft {
            oid: d.oid(chain, d.stages - 1, 1),
            prop: "uptodate".to_string(),
        },
        _ => Request::Summary {
            prop: "uptodate".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_fixed_by_the_seed() {
        for w in Workload::ALL {
            let a = plan(w, 3, 0.5, 1);
            let b = plan(w, 3, 0.5, 1);
            let c = plan(w, 4, 0.5, 1);
            let lines = |p: &Plan| p.measured().map(|i| i.line.clone()).collect::<Vec<_>>();
            assert_eq!(lines(&a), lines(&b), "{}", w.name());
            assert_ne!(lines(&a), lines(&c), "{}", w.name());
            assert_eq!(a.open.len(), (w.rate() / 2) as usize);
            assert_eq!(a.saturation.len(), w.saturation_requests());
        }
    }

    #[test]
    fn every_line_decodes_to_its_request() {
        for w in Workload::ALL {
            let p = plan(w, 9, 0.2, 20);
            for item in p.setup.iter().chain(p.measured()).chain(&p.reads) {
                let req = Request::decode(&item.line).expect("generated lines decode");
                assert_eq!(req.encode(), item.line);
                assert_eq!(Kind::of(&req), item.kind);
            }
        }
    }

    #[test]
    fn mixes_have_the_stated_shares() {
        let p = plan(Workload::MixedFollower, 1, 5.0, 1);
        let reads = p.open.iter().filter(|i| i.conn == FOLLOWER).count();
        let share = reads as f64 / p.open.len() as f64;
        assert!((0.88..0.92).contains(&share), "{share}");
        assert!(p
            .open
            .iter()
            .all(|i| (i.conn == FOLLOWER) == i.kind.is_read()));
        let t = plan(Workload::TrackingStorm, 1, 1.0, 1);
        let processes = t.saturation.iter().filter(|i| i.kind == Kind::Process);
        assert_eq!(processes.count(), 100);
        assert!(t.open.iter().all(|i| !i.kind.is_read()));
        let c = plan(Workload::CheckinStorm, 1, 1.7, 1);
        let processes = c.open.iter().filter(|i| i.kind == Kind::Process).count();
        assert_eq!(processes, 100);
        let f = plan(Workload::FleetChurn, 1, 1.0, 1);
        let kinds: Vec<Kind> = f.open[..3].iter().map(|i| i.kind).collect();
        assert_eq!(kinds, [Kind::Attach, Kind::Write, Kind::Process]);
        let shows = t.reads.iter().filter(|i| i.kind == Kind::Show).count();
        assert!((200..312).contains(&shows), "{shows}");
    }
}
