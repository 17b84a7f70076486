//! The loopback TCP harness: the same [`BrokerNode`] core behind a real
//! multi-threaded `std::net::TcpListener` service.
//!
//! One accept thread per server, one reader + one writer thread per
//! connection, a line protocol ([`wire`](crate::wire)) on the socket.
//! Servers federate in-process: [`BrokerServer::federate`] links two
//! servers' nodes so `Forward` effects publish straight into the peer —
//! the same hop-guarded federation the sharded sim exercises, now under
//! real threads and real sockets.
//!
//! **There is no wall clock here.** The repo-wide determinism lint bans
//! `Instant::now`/`SystemTime::now`, so the service runs on a *logical*
//! clock: every request frame carries the client's `now_us`, and the
//! server's clock is the maximum it has heard (a `fetch_max` on a
//! `SeqCst` atomic). Expiry sweeps, periodic deliveries and retained
//! lookups all evaluate against that clock — time advances exactly when
//! clients say it does, which also makes the smoke test reproducible.

use crate::node::{Admitted, BrokerNode, Effect, NodeConfig};
use crate::packet::{BrokerId, ContextPacket};
use crate::table::SubId;
use crate::wire::{Request, Response, WireError, MAX_FRAME_BYTES};
use simkit::SimTime;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;

/// The pseudo-subscription id `FETCH` results are delivered under.
pub const FETCH_SUB: SubId = SubId(u64::MAX);

/// Per-poll socket read timeout. Not a wall-clock *read* — it bounds
/// how long one blocking `read` may park the session thread, so a dead
/// peer can never hang the reader forever and `stop` is honoured even
/// on idle sessions.
pub const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(50);

/// Idle polls a session tolerates *mid-frame* before declaring the
/// connection lost: a peer that starts a frame and then stalls holds
/// reader-side state for at most `MIDFRAME_PATIENCE × READ_TIMEOUT`.
pub const MIDFRAME_PATIENCE: u32 = 100;

/// Most trace summaries one `TRACE` response will carry, regardless of
/// the requested limit (keeps the response inside one frame).
pub const TRACE_LIMIT_MAX: u64 = 32;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Shared {
    node: Mutex<BrokerNode>,
    clock_us: AtomicU64,
    stop: AtomicBool,
    sessions: Mutex<BTreeMap<u64, mpsc::Sender<String>>>,
    peers: Mutex<BTreeMap<BrokerId, Weak<Shared>>>,
}

impl Shared {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.clock_us.load(Ordering::SeqCst))
    }

    fn advance(&self, to: SimTime) -> SimTime {
        self.clock_us.fetch_max(to.as_micros(), Ordering::SeqCst);
        self.now()
    }
}

/// A broker running as a loopback TCP service.
pub struct BrokerServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl BrokerServer {
    /// Binds a broker on `127.0.0.1:0` and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn spawn(id: BrokerId, cfg: NodeConfig) -> std::io::Result<BrokerServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            node: Mutex::new(BrokerNode::new(id, cfg)),
            clock_us: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            sessions: Mutex::new(BTreeMap::new()),
            peers: Mutex::new(BTreeMap::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let session_seq = AtomicU64::new(1);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let session = session_seq.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(&accept_shared);
                std::thread::spawn(move || serve_session(&shared, stream, session));
            }
        });
        Ok(BrokerServer {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This broker's federation identity.
    pub fn id(&self) -> BrokerId {
        lock(&self.shared.node).id()
    }

    /// Links two servers as federation peers (both directions). The
    /// nominal link latency is not kept (see [`PeerView::introduce`]).
    ///
    /// [`PeerView::introduce`]: crate::federation::PeerView::introduce
    pub fn federate(a: &BrokerServer, b: &BrokerServer, latency_us: u64) {
        let (ida, idb) = (a.id(), b.id());
        lock(&a.shared.peers).insert(idb, Arc::downgrade(&b.shared));
        lock(&b.shared.peers).insert(ida, Arc::downgrade(&a.shared));
        lock(&a.shared.node)
            .peers_mut()
            .introduce(idb, latency_us, SimTime::ZERO);
        lock(&b.shared.node)
            .peers_mut()
            .introduce(ida, latency_us, SimTime::ZERO);
    }

    /// Broker counters (snapshot).
    pub fn stats(&self) -> crate::node::NodeStats {
        *lock(&self.shared.node).stats()
    }

    /// Stops accepting, wakes the accept loop and joins it. Session
    /// threads end when their clients disconnect.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        lock(&self.shared.sessions).clear();
    }
}

impl Drop for BrokerServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Publishes a forwarded packet into this server's node and pumps the
/// resulting effects. Hop guards bound the recursion. Returns whether
/// the peer accepted the packet (fresh *or* duplicate — idempotent
/// at-least-once acks both).
fn accept_forward(shared: &Arc<Shared>, packet: ContextPacket, now: SimTime) -> bool {
    let now = shared.advance(now);
    let outcome = lock(&shared.node).publish(packet, now);
    if matches!(outcome, Ok(Admitted::Fresh)) {
        pump(shared, now);
    }
    outcome.is_ok()
}

/// Drains the node, re-fires due forward retries and routes every
/// effect: deliveries to local session writers, forwards to federated
/// peers (self-acked on synchronous success).
fn pump(shared: &Arc<Shared>, now: SimTime) {
    loop {
        let effects = {
            let mut node = lock(&shared.node);
            let mut effects = node.drain(now);
            effects.extend(node.periodic_fire(now));
            effects.extend(node.fwd_retries_due(now));
            effects
        };
        if effects.is_empty() {
            return;
        }
        for effect in effects {
            match effect {
                Effect::Deliver {
                    subscriber,
                    sub,
                    packet,
                } => {
                    lock(&shared.node).note_delivery(packet.trace, now);
                    let packet = Arc::unwrap_or_clone(packet);
                    let line = Response::Evt { sub, packet }.encode();
                    if let Ok(line) = line {
                        let sessions = lock(&shared.sessions);
                        if let Some(tx) = sessions.get(&subscriber) {
                            let _ = tx.send(line);
                        }
                    }
                }
                Effect::Forward { to, packet, fwd_id } => {
                    let peer = lock(&shared.peers).get(&to).and_then(Weak::upgrade);
                    // In-process federation is synchronous: a successful
                    // publish *is* the ack. A shed or a vanished peer
                    // leaves the pending entry to re-fire on a later pump.
                    if let Some(peer) = peer {
                        if accept_forward(&peer, *packet, now) && fwd_id != 0 {
                            lock(&shared.node).fwd_ack(fwd_id);
                        }
                    }
                }
            }
        }
    }
}

fn handle_request(shared: &Arc<Shared>, session: u64, req: Request) -> Response {
    let response = match req {
        Request::Ping(t) => Response::Pong(shared.advance(t)),
        Request::Pub(packet) => {
            let now = shared.advance(packet.published_at);
            match lock(&shared.node).publish(packet, now) {
                Ok(Admitted::Fresh) => Response::Ok("pub".into()),
                // A duplicate is a *positive* ack — the at-least-once
                // sender must stop retrying — but distinguishable so
                // clients can count suppressions.
                Ok(Admitted::Duplicate) => Response::Ok("dup".into()),
                Err(e) => Response::Err {
                    code: error_code(&e).into(),
                    detail: e.to_string(),
                },
            }
        }
        Request::Sub {
            type_name,
            mode,
            expires_at,
            now,
        } => {
            let now = shared.advance(now);
            let id = lock(&shared.node).subscribe(session, &type_name, mode, expires_at, now);
            Response::Ok(format!("sub{}", id.0))
        }
        Request::Unsub(id) => {
            if lock(&shared.node).unsubscribe(id) {
                Response::Ok("unsub".into())
            } else {
                Response::Err {
                    code: "no_such_sub".into(),
                    detail: format!("sub{}", id.0),
                }
            }
        }
        Request::Fetch { type_name, now } => {
            let now = shared.advance(now);
            match lock(&shared.node).fetch(&type_name, now) {
                Ok(packet) => Response::Evt {
                    sub: FETCH_SUB,
                    packet,
                },
                Err(e) => Response::Err {
                    code: error_code(&e).into(),
                    detail: e.to_string(),
                },
            }
        }
        Request::Stats { now } => {
            shared.advance(now);
            Response::Stats(lock(&shared.node).telemetry().snapshot())
        }
        Request::Trace { limit, now } => {
            shared.advance(now);
            // Bound the response to what fits one frame comfortably.
            let limit = limit.min(TRACE_LIMIT_MAX) as usize;
            let node = lock(&shared.node);
            let lines = tracekit::summaries(node.trace_log(), limit)
                .iter()
                .map(tracekit::TraceSummary::line)
                .collect();
            Response::Trace(lines)
        }
    };
    // Every request may have unblocked work (admissions, due periodics,
    // sweeps ride the same logical clock).
    let now = shared.now();
    lock(&shared.node).sweep(now);
    pump(shared, now);
    response
}

fn error_code(e: &crate::admission::BrokerError) -> &'static str {
    use crate::admission::BrokerError as E;
    match e {
        E::QueueFull { .. } => "queue_full",
        E::Unattributed => "unattributed",
        E::ExpiredOnArrival => "expired",
        E::SourceBlocked(_) => "blocked",
        E::BrokerDown => "down",
        E::RetryExhausted { .. } => "retry_exhausted",
        E::PeerUnreachable(_) => "peer_unreachable",
        E::NoSuchContext(_) => "not_found",
    }
}

/// Outcome of reading one frame off the socket.
enum FrameRead {
    /// A complete line within the frame cap (newline stripped).
    Line(String),
    /// The line exceeded [`MAX_FRAME_BYTES`]; it was drained off the
    /// socket so the session can continue, but never buffered whole.
    Oversized {
        /// Bytes observed before the line ended.
        len: usize,
    },
    /// The peer disconnected cleanly, at a frame boundary.
    Eof,
    /// A read timed out with nothing buffered: the session is idle.
    /// The caller polls its stop flag and comes back.
    Idle,
    /// The transport died with a frame half-read (disconnect or stall
    /// mid-line): a typed [`WireError::ConnLost`], never a hang.
    Lost(WireError),
}

/// Reads one newline-terminated frame with a hard byte cap: a hostile
/// client sending an endless line costs at most one cap-sized buffer,
/// not unbounded memory. The socket carries [`READ_TIMEOUT`], so a
/// frame may arrive across several polls; partial bytes accumulate
/// until the newline, a clean idle timeout reports [`FrameRead::Idle`],
/// and a peer that dies (or stalls past [`MIDFRAME_PATIENCE`]) with a
/// frame half-read yields a typed loss instead of blocking forever.
fn read_frame(reader: &mut BufReader<TcpStream>) -> FrameRead {
    let cap = (MAX_FRAME_BYTES + 2) as u64;
    let mut line = String::new();
    let mut drained = 0usize;
    let mut oversized = false;
    let mut stalls = 0u32;
    loop {
        if oversized {
            // Discard without buffering the whole hostile line.
            drained += line.len();
            line.clear();
        }
        let room = cap.saturating_sub(line.len() as u64).max(1);
        match reader.by_ref().take(room).read_line(&mut line) {
            Ok(0) => {
                // EOF: clean only at a frame boundary.
                return if line.is_empty() && !oversized {
                    FrameRead::Eof
                } else {
                    FrameRead::Lost(WireError::ConnLost {
                        partial: drained + line.len(),
                        detail: "eof".into(),
                    })
                };
            }
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if line.is_empty() && !oversized {
                    return FrameRead::Idle;
                }
                stalls += 1;
                if stalls >= MIDFRAME_PATIENCE {
                    return FrameRead::Lost(WireError::ConnLost {
                        partial: drained + line.len(),
                        detail: "stalled mid-frame".into(),
                    });
                }
                continue;
            }
            Err(e) => {
                return FrameRead::Lost(WireError::ConnLost {
                    partial: drained + line.len(),
                    detail: e.kind().to_string(),
                });
            }
        }
        stalls = 0;
        if line.ends_with('\n') {
            return if oversized {
                FrameRead::Oversized {
                    len: drained + line.len(),
                }
            } else {
                while line.ends_with('\n') || line.ends_with('\r') {
                    line.pop();
                }
                FrameRead::Line(std::mem::take(&mut line))
            };
        }
        if line.len() as u64 >= cap {
            // Cap hit mid-line: remember, keep draining to the newline.
            oversized = true;
        }
        // Otherwise: partial frame buffered; poll for the rest.
    }
}

fn serve_session(shared: &Arc<Shared>, stream: TcpStream, session: u64) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    // Bounded blocking reads: a dead or stalled peer can park this
    // thread for at most one poll interval before control returns.
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let (tx, rx) = mpsc::channel::<String>();
    lock(&shared.sessions).insert(session, tx.clone());
    let writer = std::thread::spawn(move || {
        let mut out = write_half;
        while let Ok(line) = rx.recv() {
            if out.write_all(line.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
                break;
            }
            let _ = out.flush();
        }
    });

    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_frame(&mut reader) {
            FrameRead::Eof => break,
            FrameRead::Idle => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            FrameRead::Lost(e) => {
                // Typed, not hung: tell the peer if it can still hear,
                // then end the session — nothing sane follows half a
                // frame.
                let refusal = Response::Err {
                    code: e.code().into(),
                    detail: e.to_string(),
                };
                if let Ok(encoded) = refusal.encode() {
                    let _ = tx.send(encoded);
                }
                break;
            }
            FrameRead::Oversized { len } => {
                let e = WireError::Oversized { len };
                let refusal = Response::Err {
                    code: e.code().into(),
                    detail: e.to_string(),
                };
                let sent = refusal
                    .encode()
                    .is_ok_and(|encoded| tx.send(encoded).is_ok());
                if sent {
                    continue;
                }
                break;
            }
            FrameRead::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match Request::decode(&line) {
            Ok(req) => handle_request(shared, session, req),
            Err(e) => Response::Err {
                code: e.code().into(),
                detail: e.to_string(),
            },
        };
        if let Ok(encoded) = response.encode() {
            if tx.send(encoded).is_err() {
                break;
            }
        }
    }
    lock(&shared.sessions).remove(&session);
    drop(tx);
    let _ = writer.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::SubMode;
    use simkit::SimDuration;

    struct Client {
        reader: BufReader<TcpStream>,
        stream: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            Client { reader, stream }
        }

        fn send(&mut self, req: &Request) {
            let line = req.encode().unwrap();
            self.stream.write_all(line.as_bytes()).unwrap();
            self.stream.write_all(b"\n").unwrap();
        }

        fn recv(&mut self) -> Response {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            Response::decode(line.trim_end()).unwrap()
        }
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pub_sub_round_trip_over_a_real_socket() {
        let server = BrokerServer::spawn(BrokerId(0), NodeConfig::default()).unwrap();
        let mut sub = Client::connect(server.addr());
        sub.send(&Request::Sub {
            type_name: "wind".into(),
            mode: SubMode::Event,
            expires_at: secs(1_000),
            now: secs(1),
        });
        assert_eq!(sub.recv(), Response::Ok("sub0".into()));

        let mut publisher = Client::connect(server.addr());
        publisher.send(&Request::Pub(ContextPacket::new(
            "wind",
            7_000,
            secs(2),
            SimDuration::from_secs(60),
            "buoy-1",
        )));
        assert_eq!(publisher.recv(), Response::Ok("pub".into()));

        match sub.recv() {
            Response::Evt { packet, .. } => {
                assert_eq!(packet.value_milli, 7_000);
                assert_eq!(packet.source, "buoy-1");
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn stats_and_trace_ops_requests_answer_over_the_socket() {
        let server = BrokerServer::spawn(BrokerId(7), NodeConfig::default()).unwrap();
        let mut c = Client::connect(server.addr());
        c.send(&Request::Sub {
            type_name: "wind".into(),
            mode: SubMode::Event,
            expires_at: secs(1_000),
            now: secs(1),
        });
        assert_eq!(c.recv(), Response::Ok("sub0".into()));
        // A traced publish: sampled root, rate 0 ⇒ always sampled.
        c.send(&Request::Pub(
            ContextPacket::new("wind", 7_000, secs(2), SimDuration::from_secs(60), "buoy-1")
                .with_trace(tracekit::TraceCtx::root(0xfeed, 0)),
        ));
        // The delivery is pumped inside the request, so the EVT frame
        // reaches the (self-subscribed) session before the OK.
        assert!(matches!(c.recv(), Response::Evt { .. }));
        assert_eq!(c.recv(), Response::Ok("pub".into()));

        c.send(&Request::Stats { now: secs(3) });
        match c.recv() {
            Response::Stats(text) => {
                assert!(text.contains("broker_admitted_total 1"), "stats:\n{text}");
                assert!(text.contains("broker_delivered_total 1"), "stats:\n{text}");
                assert!(
                    text.contains("broker_live_subscriptions 1"),
                    "stats:\n{text}"
                );
            }
            other => panic!("expected STATS, got {other:?}"),
        }

        c.send(&Request::Trace {
            limit: 8,
            now: secs(3),
        });
        match c.recv() {
            Response::Trace(lines) => {
                assert_eq!(lines.len(), 1, "lines: {lines:?}");
                assert!(lines[0].contains("deliveries=1"), "line: {}", lines[0]);
            }
            other => panic!("expected TRACE, got {other:?}"),
        }
    }

    #[test]
    fn oversized_lines_are_refused_without_killing_the_session() {
        let server = BrokerServer::spawn(BrokerId(8), NodeConfig::default()).unwrap();
        let mut c = Client::connect(server.addr());
        let garbage = "G".repeat(MAX_FRAME_BYTES * 3);
        c.stream.write_all(garbage.as_bytes()).unwrap();
        c.stream.write_all(b"\n").unwrap();
        match c.recv() {
            Response::Err { code, .. } => assert_eq!(code, "oversized"),
            other => panic!("expected ERR, got {other:?}"),
        }
        // The session survives and keeps serving well-formed frames.
        c.send(&Request::Ping(secs(5)));
        assert_eq!(c.recv(), Response::Pong(secs(5)));
    }

    /// A raw loopback socket pair: `(server side, client side)`.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (server, client)
    }

    #[test]
    fn mid_frame_disconnect_is_a_typed_conn_lost_not_a_hang() {
        let (server, mut client) = socket_pair();
        server.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let mut reader = BufReader::new(server);
        // Half a frame, then the peer dies.
        client.write_all(b"PUB wind 7").unwrap();
        client.flush().unwrap();
        drop(client);
        match read_frame(&mut reader) {
            FrameRead::Lost(WireError::ConnLost { partial, detail }) => {
                assert_eq!(partial, 10);
                assert_eq!(detail, "eof");
            }
            FrameRead::Line(l) => panic!("half frame surfaced as a line: {l:?}"),
            _ => panic!("expected ConnLost"),
        }
    }

    #[test]
    fn clean_disconnect_at_a_frame_boundary_is_eof() {
        let (server, mut client) = socket_pair();
        server.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let mut reader = BufReader::new(server);
        client.write_all(b"PING 5\n").unwrap();
        drop(client);
        assert!(matches!(read_frame(&mut reader), FrameRead::Line(l) if l == "PING 5"));
        assert!(matches!(read_frame(&mut reader), FrameRead::Eof));
    }

    #[test]
    fn idle_read_times_out_into_a_poll_not_a_block() {
        let (server, client) = socket_pair();
        server.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        let mut reader = BufReader::new(server);
        // No bytes at all: the read returns (Idle) instead of parking
        // the thread until the peer speaks.
        assert!(matches!(read_frame(&mut reader), FrameRead::Idle));
        // A frame arriving across two writes is reassembled.
        let mut client = client;
        client.write_all(b"PING ").unwrap();
        client.flush().unwrap();
        client.write_all(b"9\n").unwrap();
        client.flush().unwrap();
        loop {
            match read_frame(&mut reader) {
                FrameRead::Idle => continue,
                FrameRead::Line(l) => {
                    assert_eq!(l, "PING 9");
                    break;
                }
                other => panic!("unexpected: {:?}", std::mem::discriminant(&other)),
            }
        }
    }

    #[test]
    fn session_survives_a_peer_dying_mid_frame() {
        let server = BrokerServer::spawn(BrokerId(9), NodeConfig::default()).unwrap();
        // One client dies mid-frame…
        {
            let mut dying = Client::connect(server.addr());
            dying.stream.write_all(b"PUB win").unwrap();
            dying.stream.flush().unwrap();
        }
        // …and the server keeps serving fresh sessions.
        let mut c = Client::connect(server.addr());
        c.send(&Request::Ping(secs(4)));
        assert_eq!(c.recv(), Response::Pong(secs(4)));
    }

    #[test]
    fn duplicate_publishes_answer_dup_over_the_wire() {
        let server = BrokerServer::spawn(BrokerId(3), NodeConfig::default()).unwrap();
        let mut c = Client::connect(server.addr());
        let packet = ContextPacket::new("t", 1, secs(2), SimDuration::from_secs(60), "s")
            .with_seq(crate::packet::PacketSeq::new(4, 1));
        c.send(&Request::Pub(packet.clone()));
        assert_eq!(c.recv(), Response::Ok("pub".into()));
        c.send(&Request::Pub(packet));
        assert_eq!(c.recv(), Response::Ok("dup".into()));
    }

    #[test]
    fn logical_clock_is_monotone_and_drives_expiry() {
        let server = BrokerServer::spawn(BrokerId(1), NodeConfig::default()).unwrap();
        let mut c = Client::connect(server.addr());
        c.send(&Request::Pub(ContextPacket::new(
            "t",
            1,
            secs(10),
            SimDuration::from_secs(5),
            "s",
        )));
        assert_eq!(c.recv(), Response::Ok("pub".into()));
        // Clock never goes backwards.
        c.send(&Request::Ping(secs(3)));
        assert_eq!(c.recv(), Response::Pong(secs(10)));
        // Retained while valid…
        c.send(&Request::Fetch {
            type_name: "t".into(),
            now: secs(12),
        });
        assert!(matches!(c.recv(), Response::Evt { .. }));
        // …gone after expiry.
        c.send(&Request::Fetch {
            type_name: "t".into(),
            now: secs(30),
        });
        assert!(matches!(c.recv(), Response::Err { .. }));
    }
}
