//! The networked wrapper side of the command protocol.
//!
//! "The wrapper programs emit event messages over the network" (§3.1) —
//! this module is that emitter. A [`RemoteWrapper`] holds one line-framed
//! TCP connection to a `damocles_server` front door and speaks the typed
//! [`Request`]/[`Response`] codec: encode a request, write one line, read
//! one line, decode the response. Everything a tool chain needs — post a
//! result event, trigger a drain, query state — without linking the
//! engine into the tool process, exactly the paper's process split. It
//! is also the follower runtime's transport: [`RemoteWrapper::tail_from`]
//! turns one connection into a live journal-tail stream, and
//! [`spawn_tail_pump`] keeps a follower loop fed from one across leader
//! loss.
//!
//! A bare [`RemoteWrapper`] dies with its socket. [`LeaderClient`] wraps
//! it into a **leader-chasing** session for HA deployments (`DESIGN.md`
//! §13): it reconnects through a bounded exponential backoff
//! ([`ReconnectPolicy`]), rotates through its seed addresses when a node
//! is gone, and follows `read-only` redirects to whichever node
//! currently leads — so a workload survives a leader crash and lands on
//! the promoted follower without the caller doing anything.

use std::io::{self, BufRead, BufReader, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use blueprint_core::engine::api::{ApiError, Request, Response};
use blueprint_core::engine::follower::{FollowerMsg, FollowerStatus};
use blueprint_core::engine::tail::{TailItem, TailReader};
use crossbeam::channel::Sender;
use damocles_meta::EventMessage;

/// Renders the protocol line a wrapper sends to post `message` as `user` —
/// pure, so tools can also queue lines into files or tests without a
/// socket.
pub fn encode_post(message: &EventMessage, user: &str) -> String {
    Request::Post {
        message: message.clone(),
        user: user.to_string(),
    }
    .encode()
}

/// One wrapper program's session with a networked project server.
#[derive(Debug)]
pub struct RemoteWrapper {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    user: String,
}

impl RemoteWrapper {
    /// Connects to a `damocles_server` listener; `user` tags every posted
    /// event (the wrapper's identity, e.g. `"sim-wrapper"`).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs, user: impl Into<String>) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(RemoteWrapper {
            writer,
            reader,
            user: user.into(),
        })
    }

    /// The identity events are posted under.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// Sends one request and reads its response line.
    ///
    /// # Errors
    ///
    /// I/O failures, or a closed connection (`UnexpectedEof`). Protocol
    /// decode failures are folded into a [`Response::Error`], not an
    /// `Err` — the transport worked, the payload did not.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        self.writer
            .write_all(format!("{}\n", request.encode()).as_bytes())?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(Response::decode(line.trim_end()).unwrap_or_else(|e: ApiError| Response::Error(e)))
    }

    /// Attaches this connection's session to a fleet project
    /// (`project <name>`); `create` registers it on first attach. Must
    /// precede routable commands when talking to a
    /// `damocles_server --fleet` front door.
    ///
    /// # Errors
    ///
    /// As [`RemoteWrapper::request`].
    pub fn attach(&mut self, project: impl Into<String>, create: bool) -> io::Result<Response> {
        self.request(&Request::Attach {
            project: project.into(),
            create,
        })
    }

    /// Posts one event message under this wrapper's user.
    ///
    /// # Errors
    ///
    /// As [`RemoteWrapper::request`].
    pub fn post(&mut self, message: &EventMessage) -> io::Result<Response> {
        let request = Request::Post {
            message: message.clone(),
            user: self.user.clone(),
        };
        self.request(&request)
    }

    /// Asks the server to drain its event queue.
    ///
    /// # Errors
    ///
    /// As [`RemoteWrapper::request`].
    pub fn process_all(&mut self) -> io::Result<Response> {
        self.request(&Request::ProcessAll)
    }

    /// Performs the replication tail handshake
    /// ([`Request::TailFrom`]) and, when the leader accepts, converts
    /// this connection into a frame stream — the follower runtime's
    /// catch-up + live-tail transport. The connection cannot be used for
    /// request/response traffic afterwards, which is why this consumes
    /// the wrapper.
    ///
    /// # Errors
    ///
    /// Transport failures. A *protocol* refusal (journaling off, or the
    /// peer is itself a follower) is [`TailHandshake::Refused`], not an
    /// `Err`.
    pub fn tail_from(mut self, epoch: u64, seq: u64) -> io::Result<TailHandshake> {
        let response = self.request(&Request::TailFrom { epoch, seq })?;
        match response {
            Response::Tailing { .. } => Ok(TailHandshake::Accepted {
                position: response,
                stream: TailReader::new(self.reader),
            }),
            other => Ok(TailHandshake::Refused(other)),
        }
    }
}

/// How hard a [`LeaderClient`] tries before giving up: a bounded number
/// of attempts with exponential backoff between them. The PR 5 caveat —
/// "a `RemoteWrapper` whose socket dies is dead" — is closed by this
/// policy: the client re-dials instead.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Total request attempts (connects and redirects each consume one).
    pub max_attempts: u32,
    /// Sleep before the second attempt; doubles per `multiplier`.
    pub base_delay: Duration,
    /// Backoff growth factor per failed attempt.
    pub multiplier: u32,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(25),
            multiplier: 2,
        }
    }
}

/// A wrapper session that survives its socket: reconnects under a
/// [`ReconnectPolicy`], rotates through seed addresses, and chases
/// `read-only` redirects to the current leader.
///
/// Give it every node of the deployment as a seed; it finds whichever
/// one accepts writes. Connection setup is lazy — construction never
/// touches the network.
#[derive(Debug)]
pub struct LeaderClient {
    /// Known front doors, tried round-robin when the current one fails.
    seeds: Vec<String>,
    next_seed: usize,
    /// An explicit redirect target (from `read-only <leader>`), tried
    /// before the seed rotation.
    target: Option<String>,
    user: String,
    policy: ReconnectPolicy,
    conn: Option<(String, RemoteWrapper)>,
}

impl LeaderClient {
    /// A client that will chase the leader across `seeds` (at least one).
    pub fn new(
        seeds: impl IntoIterator<Item = impl Into<String>>,
        user: impl Into<String>,
    ) -> Self {
        let seeds: Vec<String> = seeds.into_iter().map(Into::into).collect();
        assert!(!seeds.is_empty(), "LeaderClient needs at least one seed");
        LeaderClient {
            seeds,
            next_seed: 0,
            target: None,
            user: user.into(),
            policy: ReconnectPolicy::default(),
            conn: None,
        }
    }

    /// Replaces the retry policy (builder-style).
    #[must_use]
    pub fn with_policy(mut self, policy: ReconnectPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The address of the node the client is currently connected to.
    pub fn connected_to(&self) -> Option<&str> {
        self.conn.as_ref().map(|(addr, _)| addr.as_str())
    }

    /// Sends one request, reconnecting/redirecting as needed under the
    /// policy. A structured *application* error (unknown OID, policy
    /// refusal, …) returns as a normal [`Response::Error`] — only
    /// transport failures and leadership redirects are retried.
    ///
    /// **Ambiguity caveat:** a connection that dies after a request was
    /// written may or may not have committed it. For a **mutation** this
    /// method does NOT re-send in that window — it returns the transport
    /// error and leaves re-submission to the caller, who knows whether
    /// the operation is idempotent or detectable (e.g. a re-issued
    /// `checkin` is detectable by querying whether the version landed).
    /// Read-only requests are re-sent freely; failed *dials* and
    /// leadership redirects never carry ambiguity and always retry.
    ///
    /// # Errors
    ///
    /// The last transport error once `max_attempts` is exhausted, or the
    /// first post-send transport error of a mutation (ambiguous — see
    /// above).
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let ambiguity_safe = !request.is_mutation();
        let mut delay = self.policy.base_delay;
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay *= self.policy.multiplier.max(1);
            }
            if self.conn.is_none() {
                let addr = self.target.take().unwrap_or_else(|| {
                    let addr = self.seeds[self.next_seed % self.seeds.len()].clone();
                    self.next_seed += 1;
                    addr
                });
                match RemoteWrapper::connect(&addr, self.user.clone()) {
                    Ok(wrapper) => self.conn = Some((addr, wrapper)),
                    Err(e) => {
                        last_err = Some(e);
                        continue;
                    }
                }
            }
            let (addr, wrapper) = self.conn.as_mut().expect("connected above");
            match wrapper.request(request) {
                Ok(Response::Error(ApiError::ReadOnly { leader })) => {
                    // A follower: chase the leader it names (unless it
                    // named us or nothing — then rotate seeds). The
                    // request did not apply, so this is never ambiguous.
                    if !leader.is_empty() && leader != *addr {
                        self.target = Some(leader);
                    }
                    self.conn = None;
                    last_err = Some(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        "node is a read-only follower",
                    ));
                }
                Ok(Response::Error(ApiError::StaleTerm { term, current })) => {
                    // A fenced, deposed leader: it knows it lost the
                    // reign but not to whom. Rotate.
                    self.conn = None;
                    last_err = Some(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        format!("node fenced at term {term} (term {current} leads)"),
                    ));
                }
                Ok(response) => return Ok(response),
                Err(e) => {
                    self.conn = None;
                    if !ambiguity_safe {
                        return Err(e);
                    }
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::TimedOut, "no attempts were permitted")
        }))
    }
}

/// The outcome of [`RemoteWrapper::tail_from`].
#[derive(Debug)]
pub enum TailHandshake {
    /// The leader accepted; read frames from `stream` until it ends.
    Accepted {
        /// The [`Response::Tailing`] line carrying the leader's
        /// committed position.
        position: Response,
        /// The live frame stream, read a batch of records at a time. The
        /// leader pings at least every ~500ms, so a read that blocks
        /// longer means a stall.
        stream: TailReader<BufReader<TcpStream>>,
    },
    /// The leader refused (its structured response says why).
    Refused(Response),
}

/// The tail pump's first retry delay; it doubles per failed round.
const PUMP_RETRY_FIRST: Duration = Duration::from_millis(25);
/// The tail pump's longest retry delay.
const PUMP_RETRY_CAP: Duration = Duration::from_secs(1);

/// Keeps a follower loop fed from `upstream`'s journal tail, on a thread
/// of its own — the reconnecting pump `damocles_server --follow` runs.
/// `upstream` is a leader's front door, or a fellow follower's for a
/// replica tree; `feed` and `status` come from the follower's
/// [`FollowerHandle`](blueprint_core::engine::follower::FollowerHandle).
///
/// Each round dials `upstream`, hands
/// [`FollowerStatus::handshake_cursor`] to [`RemoteWrapper::tail_from`]
/// and forwards the stream into `feed`: one [`FollowerMsg::Tail`] per
/// batch of records and per other frame. While
/// [`MAX_TAIL_BACKLOG`] records it sent wait untaken, it stops reading
/// ([`FollowerStatus::wait_for_room`]). A failed dial, a refused
/// handshake and a lost stream are reported as
/// [`FollowerMsg::LeaderGone`] (the follower keeps serving stale reads);
/// a replica that needs a snapshot reset drops the connection and
/// re-handshakes. Retries wait 25 ms, doubling up to 1 s, and start over
/// at 25 ms after every accepted handshake. The thread ends once the
/// follower is promoted (the old stream is dead to a leader) or the loop
/// behind `feed` is gone.
///
/// [`MAX_TAIL_BACKLOG`]: blueprint_core::engine::follower::MAX_TAIL_BACKLOG
pub fn spawn_tail_pump(
    upstream: impl Into<String>,
    feed: Sender<FollowerMsg>,
    status: Arc<FollowerStatus>,
) -> JoinHandle<()> {
    let upstream = upstream.into();
    std::thread::spawn(move || {
        let mut retry = PUMP_RETRY_FIRST;
        while !status.promoted() {
            let (epoch, seq) = status.handshake_cursor();
            let handshake = RemoteWrapper::connect(&upstream, "follower")
                .and_then(|wrapper| wrapper.tail_from(epoch, seq));
            let lost = match handshake {
                Ok(TailHandshake::Accepted {
                    position,
                    mut stream,
                }) => {
                    eprintln!(
                        "tailing {upstream} from ({epoch}, {seq}); upstream at `{}`",
                        position.encode()
                    );
                    retry = PUMP_RETRY_FIRST;
                    loop {
                        match stream.next_item() {
                            Ok(item) => {
                                if let TailItem::Records { batch, .. } = &item {
                                    status.add_backlog(batch.len() as u64);
                                }
                                if feed.send(FollowerMsg::Tail(item)).is_err() {
                                    return;
                                }
                                if status.needs_reset() {
                                    // Incremental frames cannot repair a
                                    // diverged replica: re-handshake for a
                                    // snapshot reset.
                                    break None;
                                }
                                if !status.wait_for_room() {
                                    return; // promoted, or the loop is gone
                                }
                            }
                            Err(e) => break Some(format!("tail stream lost: {e}")),
                        }
                    }
                }
                Ok(TailHandshake::Refused(resp)) => {
                    Some(format!("{upstream} refused the tail: {}", resp.encode()))
                }
                Err(e) => Some(format!("cannot tail {upstream}: {e}")),
            };
            if let Some(reason) = lost {
                if feed.send(FollowerMsg::LeaderGone { reason }).is_err() {
                    return;
                }
            }
            std::thread::sleep(retry);
            retry = (retry * 2).min(PUMP_RETRY_CAP);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use damocles_meta::{Direction, Oid};
    use std::net::TcpListener;

    /// A scripted one-shot node for transport tests: accepts connections
    /// and answers each request line with the next canned reply —
    /// `None` means "drop the socket mid-session" (the PR 5 caveat).
    fn scripted_node(replies: Vec<Option<String>>) -> (String, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let join = std::thread::spawn(move || {
            let mut served = 0usize;
            let mut replies = replies.into_iter();
            loop {
                let Ok((stream, _)) = listener.accept() else {
                    return served;
                };
                served += 1;
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut out = stream;
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break; // client went away
                    }
                    match replies.next() {
                        Some(Some(reply)) => {
                            out.write_all(format!("{reply}\n").as_bytes()).unwrap();
                        }
                        Some(None) => break, // scripted socket drop
                        None => return served,
                    }
                }
            }
        });
        (addr, join)
    }

    /// The PR 5 caveat, closed: the node drops the socket mid-session
    /// (no promotion involved). A READ retries transparently on a fresh
    /// connection; a MUTATION surfaces the ambiguous error (it may have
    /// committed) but the client recovers on its next call.
    #[test]
    fn leader_client_survives_a_dropped_socket() {
        let (addr, _join) = scripted_node(vec![
            None,                        // read request: socket dropped
            Some(Response::Ok.encode()), // read retry on a fresh conn
            None,                        // mutation: dropped → ambiguous
            Some(Response::Ok.encode()), // next call reconnects fine
        ]);
        let mut client = LeaderClient::new([addr], "test").with_policy(ReconnectPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            multiplier: 2,
        });
        // Reads are never ambiguous: the drop is absorbed by the policy.
        assert!(matches!(client.call(&Request::Stat).unwrap(), Response::Ok));
        // A mutation must NOT be silently re-sent: the caller sees the
        // ambiguous transport error and decides.
        assert!(client.call(&Request::ProcessAll).is_err());
        assert!(matches!(
            client.call(&Request::ProcessAll).unwrap(),
            Response::Ok
        ));
    }

    /// A `read-only` reply redirects the client to the named leader; the
    /// next attempt runs against that address.
    #[test]
    fn leader_client_chases_a_read_only_redirect() {
        let (leader_addr, _leader) = scripted_node(vec![Some(Response::Ok.encode())]);
        let follower_reply = Response::Error(ApiError::ReadOnly {
            leader: leader_addr.clone(),
        })
        .encode();
        let (follower_addr, _follower) = scripted_node(vec![Some(follower_reply)]);
        let mut client = LeaderClient::new([follower_addr], "test").with_policy(ReconnectPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            multiplier: 2,
        });
        assert!(matches!(
            client.call(&Request::ProcessAll).unwrap(),
            Response::Ok
        ));
        assert_eq!(client.connected_to(), Some(leader_addr.as_str()));
    }

    /// With every seed dead, the policy bounds the suffering: `call`
    /// returns the last transport error after `max_attempts`.
    #[test]
    fn leader_client_gives_up_after_max_attempts() {
        // Bind-then-drop reserves an address nobody is listening on.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut client = LeaderClient::new([dead], "test").with_policy(ReconnectPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            multiplier: 2,
        });
        assert!(client.call(&Request::ProcessAll).is_err());
    }

    #[test]
    fn tail_stream_keeps_a_records_trailing_space() {
        use damocles_meta::journal::{decode_record, encode_record, JournalOp, RecordBatch};
        // An empty payload leaves its `data` record ending in a space that
        // the checksum covers.
        let op = JournalOp::Data {
            oid: Oid::new("cpu", "HDL_model", 1),
            payload: Vec::new(),
        };
        let line = encode_record(0, &op).trim_end_matches('\n').to_string();
        assert!(line.ends_with(' '));
        let mut batch = RecordBatch::default();
        batch.push_line(&line);
        let item = TailItem::Records {
            epoch: 1,
            term: 1,
            batch,
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let wire = item.encode().replace('\n', "\r\n");
        let leader = std::thread::spawn(move || {
            let (mut socket, _) = listener.accept().unwrap();
            socket.write_all(wire.as_bytes()).unwrap();
        });
        let mut stream = TailReader::new(BufReader::new(TcpStream::connect(addr).unwrap()));
        let received = stream.next_item().unwrap();
        leader.join().unwrap();
        assert_eq!(received, item);
        let TailItem::Records { batch, .. } = received else {
            unreachable!()
        };
        assert_eq!(decode_record(batch.line(0), 0), Ok(op));
    }

    #[test]
    fn encode_post_roundtrips_through_the_codec() {
        let message = EventMessage::new("hdl_sim", Direction::Up, Oid::new("reg", "verilog", 4))
            .with_arg("logic sim passed");
        let line = encode_post(&message, "sim-wrapper");
        match Request::decode(&line).unwrap() {
            Request::Post {
                message: back,
                user,
            } => {
                assert_eq!(back, message);
                assert_eq!(user, "sim-wrapper");
            }
            other => panic!("{other:?}"),
        }
    }

    /// Joins a pump thread that must end within a few seconds.
    fn joins_soon(pump: JoinHandle<()>) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !pump.is_finished() {
            assert!(std::time::Instant::now() < deadline, "the pump did not end");
            std::thread::sleep(Duration::from_millis(5));
        }
        pump.join().expect("the pump thread ended cleanly");
    }

    /// A dial nobody answers is reported as `LeaderGone` and retried; once
    /// the loop behind the feed is gone, the next report fails and the
    /// pump ends.
    #[test]
    fn tail_pump_reports_failed_dials_until_its_loop_is_gone() {
        let dead = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let (feed, rx) = crossbeam::channel::unbounded();
        let pump = spawn_tail_pump(dead, feed, Arc::default());
        for _ in 0..2 {
            match rx.recv_timeout(Duration::from_secs(5)) {
                Ok(FollowerMsg::LeaderGone { reason }) => {
                    assert!(reason.starts_with("cannot tail"), "{reason}");
                }
                other => panic!("{other:?}"),
            }
        }
        drop(rx);
        joins_soon(pump);
    }

    /// A refused handshake is reported as `LeaderGone` and retried until
    /// the upstream accepts; then its frames reach the loop.
    #[test]
    fn tail_pump_retries_a_refused_handshake_until_accepted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let upstream = std::thread::spawn(move || {
            let refused = Response::Error(ApiError::NoProject);
            let [_, mut tail] = [refused, Response::Tailing { epoch: 1, seq: 0 }].map(|reply| {
                let (mut stream, _) = listener.accept().unwrap();
                let mut line = String::new();
                BufReader::new(&stream).read_line(&mut line).unwrap();
                assert_eq!(line, "tailfrom 0 0\n");
                writeln!(stream, "{}", reply.encode()).unwrap();
                stream
            });
            tail.write_all(TailItem::Ping.encode().as_bytes()).unwrap();
            tail
        });
        let (feed, rx) = crossbeam::channel::unbounded();
        let pump = spawn_tail_pump(addr, feed, Arc::default());
        let next = || rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(matches!(
            next(),
            FollowerMsg::LeaderGone { reason } if reason.contains("refused the tail")
        ));
        assert!(matches!(next(), FollowerMsg::Tail(TailItem::Ping)));
        drop(rx);
        drop(upstream.join().unwrap());
        joins_soon(pump);
    }

    /// With no loop taking records, the pump stops reading once
    /// `MAX_TAIL_BACKLOG` records wait; a loop that starts later takes
    /// them, the pump reads on, and the replica reaches the upstream's
    /// last record. A loop that ends releases a waiting pump.
    #[test]
    fn tail_pump_stops_at_the_backlog_bound_and_resumes() {
        use blueprint_core::engine::api::SessionId;
        use blueprint_core::engine::follower::{run_follower_loop, MAX_TAIL_BACKLOG};
        use blueprint_core::engine::server::ProjectServer;
        use blueprint_core::engine::service::{Envelope, ProjectService};
        use blueprint_core::engine::tail::MAX_TAIL_BATCH;
        use damocles_meta::journal::{encode_record, JournalOp};

        const BLUEPRINT: &str = "blueprint b view default endview view v endview endblueprint";
        let total = 3 * MAX_TAIL_BACKLOG;
        let image = ProjectServer::from_source(BLUEPRINT)
            .unwrap()
            .project_image();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let upstream = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut line = String::new();
            BufReader::new(&stream).read_line(&mut line).unwrap();
            writeln!(
                stream,
                "{}",
                Response::Tailing { epoch: 1, seq: 0 }.encode()
            )
            .unwrap();
            let reset = TailItem::Reset {
                epoch: 1,
                term: 1,
                image,
            };
            stream.write_all(reset.encode().as_bytes()).unwrap();
            let mut wire = String::new();
            for seq in 0..total {
                let op = JournalOp::CreateOid {
                    oid: Oid::new(format!("b{seq}"), "v", 1),
                };
                let record = encode_record(seq, &op);
                wire.push_str(&format!("tail-rec 1 1 {record}"));
            }
            // Blocks once the pump stops reading and the socket fills.
            stream.write_all(wire.as_bytes()).unwrap();
            stream
        });
        let (feed, rx) = crossbeam::channel::unbounded();
        let operator = feed.clone();
        let status = Arc::new(FollowerStatus::default());
        let pump = spawn_tail_pump(addr, feed, Arc::clone(&status));
        // No loop takes what the pump sends: hold it, uncounted, until the
        // pump has sent the bound.
        let mut held = Vec::new();
        let mut sent = 0;
        while sent < MAX_TAIL_BACKLOG {
            let msg = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the pump never filled the backlog");
            if let FollowerMsg::Tail(TailItem::Records { batch, .. }) = &msg {
                sent += batch.len() as u64;
            }
            held.push(msg);
        }
        assert!(sent < MAX_TAIL_BACKLOG + MAX_TAIL_BATCH as u64);
        // The socket holds twice as many records again; a pump that read
        // on would send some within this pause.
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "the pump read on past {sent} records"
        );
        // Hand the held messages back in order, ahead of anything the
        // pump sends once a loop takes them.
        for msg in held {
            operator.send(msg).unwrap();
        }

        let service: ProjectService =
            ProjectService::with_server(ProjectServer::from_source(BLUEPRINT).unwrap());
        let loop_status = Arc::clone(&status);
        let follower =
            std::thread::spawn(move || run_follower_loop(service, &rx, "leader", &loop_status));
        assert!(
            status.wait_applied(1, total, Duration::from_secs(20)),
            "the replica stopped at {:?}",
            status.cursor()
        );
        drop(upstream.join().unwrap());
        // The upstream is gone and the pump keeps redialing it, until a
        // promotion ends it; then the loop ends with its last sender.
        let dir = std::env::temp_dir().join("damocles-pump-bound-promoted");
        let _ = std::fs::remove_dir_all(&dir);
        let (reply, promoted) = crossbeam::channel::unbounded();
        let promote = Request::Promote {
            dir: dir.display().to_string(),
            every: 1_000_000,
            term: 2,
        };
        let envelope = Envelope::new(SessionId(1), promote, reply);
        operator.send(FollowerMsg::Client(envelope)).unwrap();
        assert!(matches!(
            promoted.recv(),
            Some(Response::Promoted { term: 2, .. })
        ));
        joins_soon(pump);
        drop(operator);
        follower.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        // A pump waiting at the bound when its loop ends stops waiting.
        let status = Arc::new(FollowerStatus::default());
        status.add_backlog(MAX_TAIL_BACKLOG);
        let (gone_tx, gone_rx) = crossbeam::channel::unbounded::<FollowerMsg>();
        drop(gone_tx);
        let waiting = {
            let status = Arc::clone(&status);
            std::thread::spawn(move || status.wait_for_room())
        };
        let service: ProjectService =
            ProjectService::with_server(ProjectServer::from_source(BLUEPRINT).unwrap());
        run_follower_loop(service, &gone_rx, "leader", &status);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !waiting.is_finished() {
            assert!(std::time::Instant::now() < deadline, "the pump still waits");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!waiting.join().unwrap());
    }
}
