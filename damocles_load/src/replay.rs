//! The in-process replay of a workload's request stream against
//! `ProjectService` — one service per project (or fleet tenant), set up
//! as `damocles_server` sets up its own: blueprint, group commit, and a
//! journal when the journal layer is timed.
//!
//! It serves two purposes. Its replies are the **oracle**: the engine is
//! deterministic, so every reply the real server sends on the leader
//! connection must equal the replay's byte for byte. And it is the
//! **traced** run: spans around the calls into each layer's public
//! functions (codec, service, journal flush), with the wave phases of
//! each drain from `ProjectServer::wave_phase_ns`. Requests run in
//! windows of the in-flight cap, each closed by one group-commit flush,
//! because batch formation inside the server's loop cannot be timed from
//! outside.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use blueprint_core::engine::api::{
    ApiError, Request, Response, ServerStat, DEFAULT_CHECKPOINT_EVERY,
};
use blueprint_core::engine::service::ProjectService;

use crate::report::Outcome;
use crate::stats::quantile;
use crate::trace::{SpanId, Tracer};
use crate::workload::{Item, Kind, Plan};

/// Requests per replay window: the generator's in-flight cap.
pub const WINDOW: usize = 64;

/// Counters gathered at the layer boundaries of the replay.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Requests replayed (measured phases only).
    pub requests: u64,
    /// Encoded request bytes, newline included.
    pub req_bytes: u64,
    /// Encoded response bytes, newline included.
    pub resp_bytes: u64,
    /// `process` requests.
    pub drains: u64,
    /// Events those drains processed.
    pub events: u64,
    /// Rule-executing deliveries.
    pub deliveries: u64,
    /// Wave worker-phase time.
    pub worker_ns: u64,
    /// Wave apply-phase time.
    pub apply_ns: u64,
    /// Shard groups in the map, summed over drains.
    pub groups: u64,
    /// Shard-map updates absorbed without a rebuild.
    pub incremental_updates: u64,
    /// Durations of flushes that appended records and did not checkpoint.
    pub flush_ns: Vec<u64>,
    /// Durations of flushes that folded a checkpoint.
    pub checkpoint_ns: Vec<u64>,
    /// Journal records the flushes appended.
    pub records: u64,
    /// Bytes the flushes wrote to files (journal appends and snapshots).
    pub disk_bytes: u64,
}

/// One project service of the replay.
struct Tenant {
    service: ProjectService,
    /// Last seen `ShardMap::incremental_updates` (it restarts at zero on
    /// a rebuild).
    last_incremental: u64,
}

/// The replay: services, spans and layer counters.
pub struct Replay {
    tenants: BTreeMap<String, Tenant>,
    current: Option<String>,
    blueprint: String,
    dir: Option<PathBuf>,
    fleet: bool,
    /// Spans of every measured window.
    pub tracer: Tracer,
    /// Layer counters of the measured phases.
    pub layers: Layers,
}

/// The single project's name in the tenant map.
const PROJECT: &str = "project";

impl Replay {
    /// A replay of `plan`, journaling under `dir` when given (the journal
    /// layer is timed only then; replies do not depend on it).
    ///
    /// # Errors
    ///
    /// When the blueprint or journal cannot be set up.
    pub fn new(plan: &Plan, dir: Option<&Path>) -> Result<Replay, String> {
        let mut replay = Replay {
            tenants: BTreeMap::new(),
            current: None,
            blueprint: plan.design.blueprint(),
            dir: dir.map(Path::to_path_buf),
            fleet: plan.workload.fleet(),
            tracer: Tracer::new(),
            layers: Layers::default(),
        };
        if !replay.fleet {
            replay.open_tenant(PROJECT)?;
            replay.current = Some(PROJECT.to_string());
        }
        Ok(replay)
    }

    fn open_tenant(&mut self, name: &str) -> Result<(), String> {
        let mut service: ProjectService = ProjectService::new();
        match service.call(Request::Init {
            source: self.blueprint.clone(),
        }) {
            Response::Blueprint { .. } => {}
            other => return Err(format!("replay init: {}", other.encode())),
        }
        if let Some(dir) = &self.dir {
            match service.call(Request::EnableJournal {
                dir: dir.join(name).display().to_string(),
                every: DEFAULT_CHECKPOINT_EVERY,
            }) {
                Response::Epoch { .. } => {}
                other => return Err(format!("replay journal: {}", other.encode())),
            }
        }
        service
            .set_group_commit(true)
            .map_err(|e| format!("replay group commit: {e}"))?;
        self.tenants.insert(
            name.to_string(),
            Tenant {
                service,
                last_incremental: 0,
            },
        );
        Ok(())
    }

    /// Replays `items` untimed (set-up) and returns the reply lines.
    pub fn run_untimed(&mut self, items: &[Item]) -> Vec<String> {
        let saved = (
            std::mem::take(&mut self.tracer),
            std::mem::take(&mut self.layers),
        );
        let replies = self.run(items);
        (self.tracer, self.layers) = saved;
        replies
    }

    /// Replays `items` in windows of [`WINDOW`], recording spans under one
    /// `replay` root span, and returns the reply lines.
    pub fn run(&mut self, items: &[Item]) -> Vec<String> {
        let root = self.tracer.open("replay", None);
        let mut replies = Vec::with_capacity(items.len());
        for window in items.chunks(WINDOW) {
            let win = self.tracer.open("window", Some(root));
            let mut touched = BTreeSet::new();
            for item in window {
                let span = self.tracer.open("api.decode", Some(win));
                let request = Request::decode(&item.line);
                self.tracer.close(span);
                let response = match request {
                    Err(e) => Response::Error(e),
                    Ok(request) => self.dispatch(request, win, &mut touched),
                };
                let span = self.tracer.open("api.encode", Some(win));
                let line = response.encode();
                self.tracer.close(span);
                self.layers.requests += 1;
                self.layers.req_bytes += item.line.len() as u64 + 1;
                self.layers.resp_bytes += line.len() as u64 + 1;
                replies.push(line);
            }
            for name in touched {
                self.flush(&name, win);
            }
            self.tracer.close(win);
        }
        self.tracer.close(root);
        replies
    }

    fn dispatch(
        &mut self,
        request: Request,
        win: SpanId,
        touched: &mut BTreeSet<String>,
    ) -> Response {
        if let Request::Attach { project, create } = request {
            // The fleet router's job: switch the session's project.
            let span = self.tracer.open("fleet.attach", Some(win));
            let response = self.attach(project, create);
            self.tracer.close(span);
            return response;
        }
        let kind = Kind::of(&request);
        let Some(name) = self.current.clone() else {
            return Response::Error(if self.fleet {
                ApiError::NotAttached
            } else {
                ApiError::NoProject
            });
        };
        let tenant = self.tenants.get_mut(&name).expect("attached tenants exist");
        let (w0, a0) = phases(&tenant.service);
        let span = self.tracer.open(kind.spans().1, Some(win));
        let response = tenant.service.call(request);
        self.tracer.close(span);
        touched.insert(name);
        if let Response::Processed {
            events, deliveries, ..
        } = response
        {
            let (w1, a1) = phases(&tenant.service);
            let (dw, da) = (w1 - w0, a1 - a0);
            // The drain's two wave phases, placed inside its span.
            if let Some(start) = self.tracer.start(span) {
                self.tracer
                    .record("runtime.worker", Some(span), start, start + dw);
                self.tracer
                    .record("runtime.apply", Some(span), start + dw, start + dw + da);
            }
            let l = &mut self.layers;
            l.drains += 1;
            l.events += events;
            l.deliveries += deliveries;
            l.worker_ns += dw;
            l.apply_ns += da;
            if let Some(server) = tenant.service.server_mut() {
                let map = server.shard_map();
                l.groups += u64::from(map.group_count());
                let now = map.incremental_updates();
                l.incremental_updates += if now >= tenant.last_incremental {
                    now - tenant.last_incremental
                } else {
                    now
                };
                tenant.last_incremental = now;
            }
        }
        response
    }

    fn attach(&mut self, project: String, create: bool) -> Response {
        let exists = self.tenants.contains_key(&project);
        if !exists {
            if !create {
                return Response::Error(ApiError::NoSuchProject { project });
            }
            if let Err(reason) = self.open_tenant(&project) {
                return Response::Error(ApiError::Io { reason });
            }
        }
        self.current = Some(project.clone());
        Response::Attached {
            project,
            created: !exists,
        }
    }

    /// One group-commit flush, timed; a flush that advanced the journal
    /// epoch folded a checkpoint.
    fn flush(&mut self, name: &str, win: SpanId) {
        let tenant = self.tenants.get_mut(name).expect("touched tenants exist");
        let Some(server) = tenant.service.server() else {
            return;
        };
        let backlog = server.db().journal_backlog() as u64;
        let epoch = server.journal_epoch();
        let written = bytes_written();
        let start = self.tracer.now();
        // A failure here is the benchmark's own journal failing,
        // not the system under test: the traced numbers would be void.
        tenant
            .service
            .flush()
            .expect("the replay's journal flush (work directory writable)");
        let end = self.tracer.now();
        let written = bytes_written().saturating_sub(written);
        let checkpoint = tenant.service.server().and_then(|s| s.journal_epoch()) != epoch;
        let name = if checkpoint {
            "journal.checkpoint"
        } else {
            "journal.flush"
        };
        self.tracer.record(name, Some(win), start, end);
        let l = &mut self.layers;
        l.records += backlog;
        l.disk_bytes += written;
        if checkpoint {
            l.checkpoint_ns.push(end - start);
        } else if backlog > 0 {
            l.flush_ns.push(end - start);
        }
    }

    /// `stat` of a project (`None`: the single project).
    pub fn stat(&mut self, tenant: Option<&str>) -> Option<ServerStat> {
        match self.call(tenant, Request::Stat) {
            Some(Response::Stat { stat }) => Some(stat),
            _ => None,
        }
    }

    /// `dump` of a project (`None`: the single project).
    pub fn dump(&mut self, tenant: Option<&str>) -> Option<String> {
        self.call(tenant, Request::Dump).map(|r| r.encode())
    }

    fn call(&mut self, tenant: Option<&str>, request: Request) -> Option<Response> {
        let t = self.tenants.get_mut(tenant.unwrap_or(PROJECT))?;
        Some(t.service.call(request))
    }

    /// The per-layer metrics of the measured replay.
    pub fn metrics(&self, out: &mut Outcome) {
        let summary = self.tracer.summary();
        let p50 = |name: &str| summary.get(name).map_or(0.0, |l| l.p50_ns as f64);
        let l = &self.layers;
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        out.push("api.decode_ns", p50("api.decode"), "ns");
        out.push("api.encode_ns", p50("api.encode"), "ns");
        out.push(
            "api.req_bytes",
            per(l.req_bytes as f64, l.requests),
            "bytes",
        );
        out.push(
            "api.resp_bytes",
            per(l.resp_bytes as f64, l.requests),
            "bytes",
        );
        for kind in [
            Kind::Write,
            Kind::Process,
            Kind::Show,
            Kind::Query,
            Kind::WorkLeft,
            Kind::Summary,
        ] {
            let span = kind.spans().1;
            out.push(&format!("{span}_ns"), p50(span), "ns");
        }
        let (w, a) = (l.worker_ns as f64, l.apply_ns as f64);
        out.push("runtime.worker_ns_per_delivery", per(w, l.deliveries), "ns");
        out.push("runtime.apply_ns_per_delivery", per(a, l.deliveries), "ns");
        out.push(
            "runtime.apply_frac",
            if w + a > 0.0 { a / (w + a) } else { 0.0 },
            "fraction",
        );
        out.push(
            "runtime.deliveries_per_drain",
            per(l.deliveries as f64, l.drains),
            "count",
        );
        out.push(
            "runtime.events_per_drain",
            per(l.events as f64, l.drains),
            "count",
        );
        out.push(
            "compile.groups_per_drain",
            per(l.groups as f64, l.drains),
            "count",
        );
        out.push(
            "compile.incremental_updates",
            l.incremental_updates as f64,
            "count",
        );
        let mut flushes = l.flush_ns.clone();
        let mut checkpoints = l.checkpoint_ns.clone();
        out.push(
            "journal.flush_ns_p50",
            quantile(&mut flushes, 0.5) as f64,
            "ns",
        );
        out.push(
            "journal.checkpoint_ns_p50",
            quantile(&mut checkpoints, 0.5) as f64,
            "ns",
        );
        out.push(
            "journal.checkpoint_ns_max",
            quantile(&mut checkpoints, 1.0) as f64,
            "ns",
        );
        out.push(
            "journal.checkpoints_per_kreq",
            per(1000.0 * checkpoints.len() as f64, l.requests),
            "count",
        );
        out.push(
            "journal.records_per_req",
            per(l.records as f64, l.requests),
            "count",
        );
        out.push(
            "journal.write_amp",
            per(l.disk_bytes as f64, l.req_bytes),
            "ratio",
        );
    }
}

/// The cost of tracing: `plan`'s open loop replayed with spans off and
/// on, alternating, twice each, without a journal. Returns the fastest
/// traced replay's wall time over the fastest untraced one's, minus one.
///
/// # Errors
///
/// When a replay cannot be set up.
pub fn tracing_overhead(plan: &Plan) -> Result<f64, String> {
    let mut fastest = [u128::MAX; 2];
    for _ in 0..2 {
        for traced in [false, true] {
            let mut replay = Replay::new(plan, None)?;
            replay.run_untimed(&plan.setup);
            replay.tracer = if traced {
                Tracer::new()
            } else {
                Tracer::disabled()
            };
            let start = Instant::now();
            replay.run(&plan.open);
            let t = &mut fastest[usize::from(traced)];
            *t = (*t).min(start.elapsed().as_nanos());
        }
    }
    Ok(fastest[1] as f64 / fastest[0].max(1) as f64 - 1.0)
}

/// Cumulative wave phases of a service's server.
fn phases(service: &ProjectService) -> (u64, u64) {
    service.server().map_or(
        (0, 0),
        blueprint_core::engine::server::ProjectServer::wave_phase_ns,
    )
}

/// Bytes this process has passed to `write(2)` so far (`/proc/self/io`
/// `wchar`). The replay is single-threaded and writes nothing but journal
/// files inside a flush, so a delta around one is what the flush wrote.
fn bytes_written() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{plan, Workload};

    /// The trace accounts for the replay's time: the layer spans' self
    /// times cover its wall time to within 5%, and every tracking drain
    /// delivers exactly 512 roots × 6 stages.
    #[test]
    fn tracking_replay_spans_account_for_wall_time() {
        let p = plan(Workload::TrackingStorm, 11, 0.5, 20);
        let dir = std::env::temp_dir().join(format!("damocles-load-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut replay = Replay::new(&p, Some(&dir)).unwrap();
        let setup = replay.run_untimed(&p.setup);
        assert!(setup.iter().all(|r| !r.starts_with("err")), "{setup:?}");
        let measured: Vec<Item> = p.measured().cloned().collect();
        let replies = replay.run(&measured);
        assert!(replies.iter().all(|r| !r.starts_with("err")));
        let spans = replay.tracer.spans();
        let own = replay.tracer.self_times();
        let wall = spans[0].end - spans[0].start;
        let layers: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name != "replay" && s.name != "window")
            .map(|(_, t)| t)
            .sum();
        let share = layers as f64 / wall as f64;
        assert!(
            share > 0.95 && share <= 1.0,
            "layers cover {share:.3} of wall"
        );
        let mut out = Outcome::default();
        replay.metrics(&mut out);
        assert!(replay.layers.drains >= 2);
        assert_eq!(out.get("runtime.deliveries_per_drain"), Some(3_072.0));
        assert_eq!(out.get("runtime.events_per_drain"), Some(512.0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
