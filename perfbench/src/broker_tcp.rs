//! `broker_tcp`: two `BrokerServer`s on loopback, federated with each
//! other, driven by one closed-loop generator thread.
//!
//! The generator holds a subscriber connection on broker A (event
//! subscriptions on half the context types) and a publisher connection
//! on broker B, over which it sends a seeded mix of PUB (70 %), FETCH
//! (25 %) and PING (5 %). Each request waits for its response before the
//! next is sent, as an at-least-once device waits for its ack. A matching
//! PUB crosses one federation hop (B → A) and arrives as an EVT on the
//! subscriber connection. This is the only real-time service and the
//! only caller of `brokerd::wire` and `brokerd::net`.

use crate::common::{timed, Gen, Tracer};
use brokerd::net::BrokerServer;
use brokerd::{BrokerId, ContextPacket, NodeConfig, PacketSeq, Request, Response, SubMode};
use simkit::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Context types the publisher draws from; the first half are
/// subscribed on broker A.
pub const TYPES: u64 = 16;

/// How long a client waits for a frame before counting it missing.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// One line-protocol client connection.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Frames written plus frames read.
    pub frames: u64,
}

impl Client {
    /// Connects to `server`.
    pub fn connect(server: &BrokerServer) -> std::io::Result<Client> {
        let stream = TcpStream::connect(server.addr())?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            stream,
            reader,
            frames: 0,
        })
    }

    /// Writes one request frame (frame and newline in a single write).
    pub fn send(&mut self, req: &Request, tr: &Tracer) -> Result<(), String> {
        let line = tr
            .span("brokerd.wire", || req.encode())
            .map_err(|e| e.to_string())?;
        let frame = format!("{line}\n");
        self.frames += 1;
        tr.span("brokerd.net", || self.stream.write_all(frame.as_bytes()))
            .map_err(|e| e.to_string())
    }

    /// Reads and decodes one response frame.
    pub fn recv(&mut self, tr: &Tracer) -> Result<Response, String> {
        let mut line = String::new();
        let n = tr
            .span("brokerd.net", || self.reader.read_line(&mut line))
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed".to_owned());
        }
        self.frames += 1;
        tr.span("brokerd.wire", || Response::decode(line.trim_end()))
            .map_err(|e| e.to_string())
    }

    /// One request/response round trip.
    pub fn call(&mut self, req: &Request, tr: &Tracer) -> Result<Response, String> {
        self.send(req, tr)?;
        self.recv(tr)
    }
}

/// The federated pair plus the generator's two connections.
pub struct Rig {
    // Clients first: they must close before the servers stop.
    sub: Client,
    publisher: Client,
    _a: BrokerServer,
    _b: BrokerServer,
}

fn type_name(t: u64) -> String {
    format!("ctx{t:02}")
}

/// Spawns and federates both servers, connects both clients and
/// registers the subscriptions (the set-up step).
pub fn setup(tr: &Tracer) -> Result<Rig, String> {
    let io = |e: std::io::Error| e.to_string();
    let a = BrokerServer::spawn(BrokerId(0), NodeConfig::default()).map_err(io)?;
    let b = BrokerServer::spawn(BrokerId(1), NodeConfig::default()).map_err(io)?;
    BrokerServer::federate(&a, &b, 5_000);
    let mut sub = Client::connect(&a).map_err(io)?;
    let publisher = Client::connect(&b).map_err(io)?;
    for t in 0..TYPES / 2 {
        let req = Request::Sub {
            type_name: type_name(t),
            mode: SubMode::Event,
            expires_at: SimTime::from_secs(1_000_000),
            now: SimTime::ZERO,
        };
        match sub.call(&req, tr)? {
            Response::Ok(_) => {}
            other => return Err(format!("SUB refused: {other:?}")),
        }
    }
    Ok(Rig {
        sub,
        publisher,
        _a: a,
        _b: b,
    })
}

/// Request kinds of the generated mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Publish one context item.
    Pub,
    /// Fetch the freshest retained item of a published type.
    Fetch,
    /// Transport-only round trip.
    Ping,
}

/// The seeded request stream. Every block of 20 requests holds exactly
/// 7 matching PUBs, 7 non-matching PUBs, 5 FETCHes and 1 PING; the seed
/// shuffles their order and draws types and values, so every seed offers
/// the same mix.
pub struct Mix {
    g: Gen,
    block: Vec<(Kind, bool)>,
}

impl Mix {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Mix {
        Mix {
            g: Gen::new(seed, 0x7c9),
            block: Vec::new(),
        }
    }

    /// Next request kind, type index and value.
    pub fn next(&mut self) -> (Kind, u64, i64) {
        if self.block.is_empty() {
            self.block.extend([(Kind::Pub, true); 7]);
            self.block.extend([(Kind::Pub, false); 7]);
            self.block.extend([(Kind::Fetch, false); 5]);
            self.block.push((Kind::Ping, false));
            self.g.shuffle(&mut self.block);
        }
        let (kind, matching) = self.block.pop().unwrap_or((Kind::Ping, false));
        let half = TYPES / 2;
        let t = self.g.below(half) + if matching { 0 } else { half };
        let v = self.g.below(1_000_000) as i64 - 500_000;
        (kind, t, v)
    }
}

/// What a measured run of the generator saw.
#[derive(Default)]
pub struct RunOut {
    /// Requests sent.
    pub requests: u64,
    /// PUBs sent.
    pub pubs: u64,
    /// PUBs whose type is subscribed on A (each must yield one EVT).
    pub matching: u64,
    /// EVT frames read by the subscriber.
    pub evts: u64,
    /// ERR, wrong or missing responses and missing or wrong EVTs.
    pub failures: u64,
    /// First few failure descriptions.
    pub failure_notes: Vec<String>,
    /// Request write → response read, ms, every request kind.
    pub rtt_ms: Vec<f64>,
    /// PING round trips alone, ms.
    pub ping_ms: Vec<f64>,
    /// PUB write on B → matching EVT read on A, ms.
    pub delivery_ms: Vec<f64>,
    /// Wall seconds of the measured loop.
    pub wall_s: f64,
    /// Frames both clients moved.
    pub frames: u64,
}

impl RunOut {
    fn fail(&mut self, what: String) {
        self.failures += 1;
        if self.failure_notes.len() < 5 {
            self.failure_notes.push(what);
        }
    }
}

/// Drives the closed loop for `budget_s` wall seconds, or for `max_ops`
/// requests when that comes first.
pub fn run(rig: &mut Rig, seed: u64, budget_s: f64, max_ops: u64, tr: &Tracer) -> RunOut {
    let mut mix = Mix::new(seed);
    let mut out = RunOut::default();
    let mut last_value: BTreeMap<u64, i64> = BTreeMap::new();
    let mut now_us = 1_000u64;
    let mut seq = 0u64;
    while out.wall_s < budget_s && out.requests < max_ops {
        let (mut kind, t, v) = mix.next();
        if kind == Kind::Fetch && last_value.is_empty() {
            kind = Kind::Pub;
        }
        now_us += 1_000;
        let now = SimTime::from_micros(now_us);
        out.requests += 1;
        let ((), op_s) = timed(|| match kind {
            Kind::Pub => {
                seq += 1;
                out.pubs += 1;
                let packet = ContextPacket::new(
                    type_name(t),
                    v,
                    now,
                    SimDuration::from_secs(3_600),
                    format!("dev{}", t % 7),
                )
                .with_seq(PacketSeq::new(7, seq));
                let matching = t < TYPES / 2;
                let (resp, rtt) = timed(|| rig.publisher.call(&Request::Pub(packet), tr));
                out.rtt_ms.push(rtt * 1e3);
                match resp {
                    Ok(Response::Ok(ref w)) if w == "pub" => {
                        last_value.insert(t, v);
                    }
                    other => out.fail(format!("PUB {t}: {other:?}")),
                }
                if matching {
                    out.matching += 1;
                    let (evt, extra) = timed(|| rig.sub.recv(tr));
                    match evt {
                        Ok(Response::Evt { packet, .. })
                            if packet.value_milli == v && packet.type_name == type_name(t) =>
                        {
                            out.evts += 1;
                            out.delivery_ms.push((rtt + extra) * 1e3);
                        }
                        other => out.fail(format!("EVT {t}: {other:?}")),
                    }
                }
            }
            Kind::Fetch => {
                let known: Vec<u64> = last_value.keys().copied().collect();
                let t = known[(t as usize) % known.len()];
                let req = Request::Fetch {
                    type_name: type_name(t),
                    now,
                };
                let (resp, rtt) = timed(|| rig.publisher.call(&req, tr));
                out.rtt_ms.push(rtt * 1e3);
                match resp {
                    Ok(Response::Evt { packet, .. })
                        if Some(&packet.value_milli) == last_value.get(&t) => {}
                    other => out.fail(format!("FETCH {t}: {other:?}")),
                }
            }
            Kind::Ping => {
                let (resp, rtt) = timed(|| rig.publisher.call(&Request::Ping(now), tr));
                out.rtt_ms.push(rtt * 1e3);
                out.ping_ms.push(rtt * 1e3);
                if !matches!(resp, Ok(Response::Pong(_))) {
                    out.fail(format!("PING: {resp:?}"));
                }
            }
        });
        out.wall_s += op_s;
    }
    // No EVT may be left over: a PING on the subscriber connection must
    // be answered next, with nothing in between.
    now_us += 1_000;
    match rig
        .sub
        .call(&Request::Ping(SimTime::from_micros(now_us)), tr)
    {
        Ok(Response::Pong(_)) => {}
        other => out.fail(format!(
            "stray frame on the subscriber connection: {other:?}"
        )),
    }
    out.frames = rig.sub.frames + rig.publisher.frames;
    out
}
