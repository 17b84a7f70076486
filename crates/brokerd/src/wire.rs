//! Line-oriented wire codec for the loopback TCP service.
//!
//! One frame per line, ASCII, space-separated — trivially debuggable
//! with `nc` and free of serialization dependencies. Times travel as
//! **logical-clock microseconds**: the service has no wall clock (the
//! repo-wide determinism lint bans one), so every request carries the
//! client's logical `now` and the server's clock is the max it has
//! heard. Sources and type names are percent-free tokens; spaces are
//! rejected at encode time.
//!
//! Frames:
//!
//! ```text
//! PUB <type> <value_milli> <published_us> <expires_us> <source> [hops] [trace] [seq]
//! SUB <type> <oneshot|periodic|event> <period_us> <expires_us> <now_us>
//! UNSUB <sub_id>
//! FETCH <type> <now_us>
//! PING <now_us>
//! STATS <now_us>
//! TRACE <limit> <now_us>
//! OK <token>
//! ERR <code> <detail>
//! EVT <sub_id> <type> <value_milli> <published_us> <expires_us> <source> <hops> [trace]
//! PONG <now_us>
//! STATS <pct_text>
//! TRACE <count> <pct_line>...
//! ```
//!
//! `hops` is a comma-separated broker-id list, `-` when empty. `trace`
//! is an optional causal trace context in [`TraceCtx`] display form
//! (`<trace16hex>.<parent>.<hop>.<s|u>`); frames without it decode to
//! [`TraceCtx::NONE`], so pre-trace peers interoperate unchanged. `seq`
//! is an optional idempotency tag (`<origin>:<n>`, see
//! [`PacketSeq`]); when present the trace slot before it is always
//! filled (`-` for untraced packets), and frames without it decode to
//! [`PacketSeq::NONE`] so pre-chaos peers interoperate unchanged. The
//! `STATS`/`TRACE` response payloads are free text carried as single
//! percent-encoded tokens ([`pct_encode`]).
//!
//! Decoding is hardened: frames longer than [`MAX_FRAME_BYTES`] are
//! refused before parsing, every failure is a typed [`WireError`], and
//! no input — truncated, oversized or malformed — can panic the codec.

use crate::packet::{BrokerId, ContextPacket, PacketSeq};
use crate::table::{SubId, SubMode};
use simkit::{SimDuration, SimTime};
use std::fmt;
use tracekit::TraceCtx;

/// Hard cap on one frame (request or response line, without the
/// terminating newline). Oversized frames are refused before parsing so
/// a hostile client cannot make the broker buffer unbounded garbage.
pub const MAX_FRAME_BYTES: usize = 8192;

/// A parsed request frame (client → broker).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Publish a context packet.
    Pub(ContextPacket),
    /// Open a subscription.
    Sub {
        /// Context type.
        type_name: String,
        /// Delivery mode.
        mode: SubMode,
        /// Duration-derived expiry.
        expires_at: SimTime,
        /// Client logical clock.
        now: SimTime,
    },
    /// Cancel a subscription.
    Unsub(SubId),
    /// On-demand fetch of retained context.
    Fetch {
        /// Context type.
        type_name: String,
        /// Client logical clock.
        now: SimTime,
    },
    /// Clock advance / liveness probe.
    Ping(SimTime),
    /// Live telemetry snapshot (Prometheus-style text).
    Stats {
        /// Client logical clock.
        now: SimTime,
    },
    /// Recent trace summaries.
    Trace {
        /// Maximum summaries to return.
        limit: u64,
        /// Client logical clock.
        now: SimTime,
    },
}

/// A response frame (broker → client).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Success carrying an opaque token (sub id, "pub", …).
    Ok(String),
    /// Typed refusal.
    Err {
        /// Stable machine-readable code.
        code: String,
        /// Human detail (no spaces guaranteed only for `code`).
        detail: String,
    },
    /// A delivery.
    Evt {
        /// Subscription being served.
        sub: SubId,
        /// The delivered packet.
        packet: ContextPacket,
    },
    /// Ping echo.
    Pong(SimTime),
    /// Telemetry snapshot: Prometheus-style text, percent-encoded on
    /// the wire.
    Stats(String),
    /// Recent trace summaries, one percent-encoded token per trace.
    Trace(Vec<String>),
}

/// Codec failure, typed so callers can branch without string-matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// A required field is missing from the frame.
    Truncated {
        /// The field that was expected.
        what: &'static str,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// The field that was malformed.
        what: &'static str,
    },
    /// The frame exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// Observed frame length.
        len: usize,
    },
    /// The leading verb is not one this codec knows.
    UnknownVerb(String),
    /// Anything else structurally wrong with the frame.
    Malformed {
        /// What was wrong.
        detail: String,
    },
    /// The transport died mid-frame: bytes arrived but the line never
    /// ended before the peer disconnected (or the read gave up). The
    /// partial frame is unusable and nothing sane can follow it.
    ConnLost {
        /// Bytes of the frame observed before the connection was lost.
        partial: usize,
        /// What ended the read (io error kind, or `eof`).
        detail: String,
    },
}

impl WireError {
    /// A stable machine-readable code, suitable for `ERR` frames.
    pub fn code(&self) -> &'static str {
        match self {
            WireError::Truncated { .. } => "truncated",
            WireError::BadNumber { .. } => "bad_number",
            WireError::Oversized { .. } => "oversized",
            WireError::UnknownVerb(_) => "unknown_verb",
            WireError::Malformed { .. } => "malformed",
            WireError::ConnLost { .. } => "conn_lost",
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "wire error: missing {what}"),
            WireError::BadNumber { what } => write!(f, "wire error: bad {what}"),
            WireError::Oversized { len } => {
                write!(f, "wire error: frame of {len} bytes exceeds {MAX_FRAME_BYTES}")
            }
            WireError::UnknownVerb(v) => write!(f, "wire error: unknown verb {v}"),
            WireError::Malformed { detail } => write!(f, "wire error: {detail}"),
            WireError::ConnLost { partial, detail } => {
                write!(f, "wire error: connection lost mid-frame after {partial} bytes ({detail})")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn malformed(detail: impl Into<String>) -> WireError {
    WireError::Malformed {
        detail: detail.into(),
    }
}

fn token(parts: &[&str], i: usize, what: &'static str) -> Result<String, WireError> {
    parts
        .get(i)
        .map(|s| (*s).to_owned())
        .ok_or(WireError::Truncated { what })
}

fn number(parts: &[&str], i: usize, what: &'static str) -> Result<u64, WireError> {
    token(parts, i, what)?
        .parse::<u64>()
        .map_err(|_| WireError::BadNumber { what })
}

fn signed(parts: &[&str], i: usize, what: &'static str) -> Result<i64, WireError> {
    token(parts, i, what)?
        .parse::<i64>()
        .map_err(|_| WireError::BadNumber { what })
}

/// Percent-encodes free text into one spaceless ASCII token. Escapes
/// `%`, whitespace, controls and non-ASCII; the empty string becomes
/// `-` (and a literal lone `-` is escaped so the two never collide).
pub fn pct_encode(text: &str) -> String {
    if text.is_empty() {
        return "-".to_owned();
    }
    if text == "-" {
        return "%2d".to_owned();
    }
    let mut out = String::with_capacity(text.len());
    for b in text.bytes() {
        let escape = b == b'%' || b <= b' ' || b >= 0x7f;
        if escape {
            out.push('%');
            out.push(char::from_digit(u32::from(b >> 4), 16).unwrap_or('0'));
            out.push(char::from_digit(u32::from(b & 0xf), 16).unwrap_or('0'));
        } else {
            out.push(char::from(b));
        }
    }
    out
}

/// Decodes a [`pct_encode`]d token back into text.
///
/// # Errors
///
/// Returns [`WireError::Malformed`] on dangling or non-hex escapes.
pub fn pct_decode(token: &str) -> Result<String, WireError> {
    if token == "-" {
        return Ok(String::new());
    }
    let bytes = token.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        if b == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                .and_then(|h| std::str::from_utf8(h).ok())
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| malformed("dangling percent escape"))?;
            out.push(hex);
            i += 3;
        } else {
            out.push(b);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| malformed("escape decodes to invalid utf-8"))
}

fn encode_hops(hops: &[BrokerId]) -> String {
    if hops.is_empty() {
        "-".to_owned()
    } else {
        hops.iter()
            .map(|b| b.0.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn decode_hops(text: &str) -> Result<Vec<BrokerId>, WireError> {
    if text == "-" {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|t| {
            t.parse::<u16>()
                .map(BrokerId)
                .map_err(|_| WireError::BadNumber { what: "hop id" })
        })
        .collect()
}

fn check_token(t: &str, what: &'static str) -> Result<(), WireError> {
    if t.is_empty() || t.contains(' ') || t.contains('\n') {
        Err(malformed(format!(
            "{what} must be a non-empty spaceless token"
        )))
    } else {
        Ok(())
    }
}

fn check_frame_len(line: &str) -> Result<(), WireError> {
    if line.len() > MAX_FRAME_BYTES {
        Err(WireError::Oversized { len: line.len() })
    } else {
        Ok(())
    }
}

fn decode_packet(parts: &[&str], at: usize) -> Result<ContextPacket, WireError> {
    let type_name = token(parts, at, "type")?;
    let value_milli = signed(parts, at + 1, "value")?;
    let published = SimTime::from_micros(number(parts, at + 2, "published_us")?);
    let expires = SimTime::from_micros(number(parts, at + 3, "expires_us")?);
    if expires < published {
        return Err(malformed("expiry precedes publish time"));
    }
    let source = token(parts, at + 4, "source")?;
    let hops = decode_hops(&token(parts, at + 5, "hops").unwrap_or_else(|_| "-".into()))?;
    // Trace is optional; `-` is an explicit "no trace" placeholder so
    // the later optional seq token can still occupy its slot.
    let trace = match parts.get(at + 6) {
        Some(&"-") | None => TraceCtx::NONE,
        Some(t) => t
            .parse::<TraceCtx>()
            .map_err(|e| malformed(e.to_string()))?,
    };
    let seq = match parts.get(at + 7) {
        Some(t) => decode_seq(t)?,
        None => PacketSeq::NONE,
    };
    if parts.len() > at + 8 {
        return Err(malformed("trailing tokens after sequence tag"));
    }
    let mut p = ContextPacket::new(
        type_name,
        value_milli,
        published,
        expires.since(published),
        source,
    );
    p.hops = hops;
    p.trace = trace;
    p.seq = seq;
    Ok(p)
}

fn decode_seq(text: &str) -> Result<PacketSeq, WireError> {
    let (origin, n) = text
        .split_once(':')
        .ok_or(WireError::Malformed {
            detail: "sequence tag must be origin:n".into(),
        })?;
    let origin = origin
        .parse::<u64>()
        .map_err(|_| WireError::BadNumber { what: "seq origin" })?;
    let n = n
        .parse::<u64>()
        .map_err(|_| WireError::BadNumber { what: "seq number" })?;
    Ok(PacketSeq { origin, n })
}

fn encode_packet(p: &ContextPacket) -> Result<String, WireError> {
    check_token(&p.type_name, "type")?;
    check_token(&p.source, "source")?;
    let mut line = format!(
        "{} {} {} {} {} {}",
        p.type_name,
        p.value_milli,
        p.published_at.as_micros(),
        p.expires_at.as_micros(),
        p.source,
        encode_hops(&p.hops),
    );
    // Optional trailing tokens, oldest first so legacy peers keep
    // parsing: a seq tag forces the trace slot to be filled (`-` when
    // untraced); a packet with neither stays on the legacy layout.
    if p.trace != TraceCtx::NONE || p.seq.is_some() {
        line.push(' ');
        if p.trace == TraceCtx::NONE {
            line.push('-');
        } else {
            line.push_str(&p.trace.to_string());
        }
    }
    if p.seq.is_some() {
        line.push(' ');
        line.push_str(&p.seq.to_string());
    }
    Ok(line)
}

impl Request {
    /// Encodes the request as one line (no trailing newline).
    ///
    /// # Errors
    ///
    /// Refuses tokens containing spaces and frames over
    /// [`MAX_FRAME_BYTES`].
    pub fn encode(&self) -> Result<String, WireError> {
        let line = match self {
            Request::Pub(p) => format!("PUB {}", encode_packet(p)?),
            Request::Sub {
                type_name,
                mode,
                expires_at,
                now,
            } => {
                check_token(type_name, "type")?;
                let (mode_word, period) = match mode {
                    SubMode::OneShot => ("oneshot", 0),
                    SubMode::Periodic(p) => ("periodic", p.as_micros()),
                    SubMode::Event => ("event", 0),
                };
                format!(
                    "SUB {type_name} {mode_word} {period} {} {}",
                    expires_at.as_micros(),
                    now.as_micros(),
                )
            }
            Request::Unsub(id) => format!("UNSUB {}", id.0),
            Request::Fetch { type_name, now } => {
                check_token(type_name, "type")?;
                format!("FETCH {type_name} {}", now.as_micros())
            }
            Request::Ping(now) => format!("PING {}", now.as_micros()),
            Request::Stats { now } => format!("STATS {}", now.as_micros()),
            Request::Trace { limit, now } => {
                format!("TRACE {limit} {}", now.as_micros())
            }
        };
        check_frame_len(&line)?;
        Ok(line)
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a typed [`WireError`]; no input panics the codec.
    pub fn decode(line: &str) -> Result<Request, WireError> {
        check_frame_len(line)?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.first().copied() {
            Some("PUB") => Ok(Request::Pub(decode_packet(&parts, 1)?)),
            Some("SUB") => {
                let type_name = token(&parts, 1, "type")?;
                let mode_word = token(&parts, 2, "mode")?;
                let period = SimDuration::from_micros(number(&parts, 3, "period_us")?);
                let mode = match mode_word.as_str() {
                    "oneshot" => SubMode::OneShot,
                    "periodic" => {
                        if period.is_zero() {
                            return Err(malformed("periodic mode requires a non-zero period"));
                        }
                        SubMode::Periodic(period)
                    }
                    "event" => SubMode::Event,
                    other => return Err(malformed(format!("unknown mode {other}"))),
                };
                Ok(Request::Sub {
                    type_name,
                    mode,
                    expires_at: SimTime::from_micros(number(&parts, 4, "expires_us")?),
                    now: SimTime::from_micros(number(&parts, 5, "now_us")?),
                })
            }
            Some("UNSUB") => Ok(Request::Unsub(SubId(number(&parts, 1, "sub_id")?))),
            Some("FETCH") => Ok(Request::Fetch {
                type_name: token(&parts, 1, "type")?,
                now: SimTime::from_micros(number(&parts, 2, "now_us")?),
            }),
            Some("PING") => Ok(Request::Ping(SimTime::from_micros(number(
                &parts, 1, "now_us",
            )?))),
            Some("STATS") => Ok(Request::Stats {
                now: SimTime::from_micros(number(&parts, 1, "now_us")?),
            }),
            Some("TRACE") => Ok(Request::Trace {
                limit: number(&parts, 1, "limit")?,
                now: SimTime::from_micros(number(&parts, 2, "now_us")?),
            }),
            Some(other) => Err(WireError::UnknownVerb(other.to_owned())),
            None => Err(WireError::Truncated { what: "verb" }),
        }
    }
}

impl Response {
    /// Encodes the response as one line (no trailing newline).
    ///
    /// # Errors
    ///
    /// Refuses tokens containing spaces and frames over
    /// [`MAX_FRAME_BYTES`].
    pub fn encode(&self) -> Result<String, WireError> {
        let line = match self {
            Response::Ok(tok) => {
                check_token(tok, "token")?;
                format!("OK {tok}")
            }
            Response::Err { code, detail } => {
                check_token(code, "code")?;
                let detail = if detail.is_empty() {
                    "-".to_owned()
                } else {
                    detail.replace([' ', '\n'], "_")
                };
                format!("ERR {code} {detail}")
            }
            Response::Evt { sub, packet } => format!("EVT {} {}", sub.0, encode_packet(packet)?),
            Response::Pong(now) => format!("PONG {}", now.as_micros()),
            Response::Stats(text) => format!("STATS {}", pct_encode(text)),
            Response::Trace(lines) => {
                let mut out = format!("TRACE {}", lines.len());
                for l in lines {
                    out.push(' ');
                    out.push_str(&pct_encode(l));
                }
                out
            }
        };
        check_frame_len(&line)?;
        Ok(line)
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// Returns a typed [`WireError`]; no input panics the codec.
    pub fn decode(line: &str) -> Result<Response, WireError> {
        check_frame_len(line)?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.first().copied() {
            Some("OK") => Ok(Response::Ok(token(&parts, 1, "token")?)),
            Some("ERR") => Ok(Response::Err {
                code: token(&parts, 1, "code")?,
                detail: token(&parts, 2, "detail").unwrap_or_else(|_| "-".into()),
            }),
            Some("EVT") => Ok(Response::Evt {
                sub: SubId(number(&parts, 1, "sub_id")?),
                packet: decode_packet(&parts, 2)?,
            }),
            Some("PONG") => Ok(Response::Pong(SimTime::from_micros(number(
                &parts, 1, "now_us",
            )?))),
            Some("STATS") => Ok(Response::Stats(pct_decode(&token(
                &parts, 1, "stats text",
            )?)?)),
            Some("TRACE") => {
                let count = number(&parts, 1, "trace count")?;
                let lines = parts
                    .get(2..)
                    .unwrap_or(&[])
                    .iter()
                    .map(|t| pct_decode(t))
                    .collect::<Result<Vec<_>, _>>()?;
                if lines.len() as u64 != count {
                    return Err(malformed(format!(
                        "trace count {count} does not match {} lines",
                        lines.len()
                    )));
                }
                Ok(Response::Trace(lines))
            }
            Some(other) => Err(WireError::UnknownVerb(other.to_owned())),
            None => Err(WireError::Truncated { what: "verb" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet() -> ContextPacket {
        let mut p = ContextPacket::new(
            "wind",
            12_500,
            SimTime::from_micros(1_000_000),
            SimDuration::from_secs(30),
            "buoy-7",
        );
        p.hops = vec![BrokerId(0), BrokerId(2)];
        p
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Pub(sample_packet()),
            Request::Pub(sample_packet().with_trace(TraceCtx::root(77, 0).child(9))),
            Request::Sub {
                type_name: "temperature".into(),
                mode: SubMode::Periodic(SimDuration::from_secs(5)),
                expires_at: SimTime::from_secs(3600),
                now: SimTime::from_secs(1),
            },
            Request::Sub {
                type_name: "noise".into(),
                mode: SubMode::Event,
                expires_at: SimTime::from_secs(60),
                now: SimTime::ZERO,
            },
            Request::Unsub(SubId(9)),
            Request::Fetch {
                type_name: "wind".into(),
                now: SimTime::from_secs(2),
            },
            Request::Ping(SimTime::from_micros(123)),
            Request::Stats {
                now: SimTime::from_secs(4),
            },
            Request::Trace {
                limit: 16,
                now: SimTime::from_secs(5),
            },
        ];
        for r in reqs {
            let line = r.encode().unwrap();
            assert_eq!(Request::decode(&line).unwrap(), r, "line: {line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Ok("sub3".into()),
            Response::Err {
                code: "queue_full".into(),
                detail: "capacity_64".into(),
            },
            Response::Evt {
                sub: SubId(3),
                packet: sample_packet(),
            },
            Response::Evt {
                sub: SubId(4),
                packet: sample_packet().with_trace(TraceCtx::root(5, 0).hopped(31)),
            },
            Response::Pong(SimTime::from_secs(9)),
            Response::Stats("broker_published_total 4\nbroker_queue_depth 1\n".into()),
            Response::Stats(String::new()),
            Response::Trace(vec![
                "trace=00000000000000ab spans=5 deliveries=1".into(),
                "trace=00000000000000cd spans=2 deliveries=0".into(),
            ]),
            Response::Trace(Vec::new()),
        ];
        for r in resps {
            let line = r.encode().unwrap();
            assert_eq!(Response::decode(&line).unwrap(), r, "line: {line}");
        }
    }

    #[test]
    fn sequence_tags_ride_behind_the_trace_slot() {
        // seq with a trace: both tokens round-trip.
        let traced = sample_packet()
            .with_trace(TraceCtx::root(77, 0).child(9))
            .with_seq(PacketSeq::new(41, 7));
        let line = Request::Pub(traced.clone()).encode().unwrap();
        assert_eq!(line.split_whitespace().count(), 9, "line: {line}");
        assert_eq!(Request::decode(&line).unwrap(), Request::Pub(traced));

        // seq without a trace: the trace slot is `-`, not skipped.
        let untraced = sample_packet().with_seq(PacketSeq::new(41, 8));
        let line = Request::Pub(untraced.clone()).encode().unwrap();
        assert!(line.contains(" - 41:8"), "line: {line}");
        assert_eq!(Request::decode(&line).unwrap(), Request::Pub(untraced));

        // Malformed tags are typed errors.
        assert_eq!(
            Request::decode("PUB wind 1 0 5 src - - 41x8")
                .unwrap_err()
                .code(),
            "malformed"
        );
        assert_eq!(
            Request::decode("PUB wind 1 0 5 src - - a:8")
                .unwrap_err()
                .code(),
            "bad_number"
        );
        assert_eq!(
            Request::decode("PUB wind 1 0 5 src - - 1:2 extra")
                .unwrap_err()
                .code(),
            "malformed"
        );
    }

    #[test]
    fn untraced_packets_stay_on_the_legacy_layout() {
        // A NONE trace must not grow the frame: old peers keep parsing.
        let line = Request::Pub(sample_packet()).encode().unwrap();
        assert_eq!(line.split_whitespace().count(), 7, "line: {line}");
        // And a legacy frame without the trace token decodes to NONE.
        let decoded = Request::decode(&line).unwrap();
        match decoded {
            Request::Pub(p) => assert_eq!(p.trace, TraceCtx::NONE),
            other => panic!("expected PUB, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_typed_errors() {
        let cases: Vec<(&str, &str)> = vec![
            ("", "truncated"),
            ("PUB wind", "truncated"),
            ("NOPE x", "unknown_verb"),
            ("PUB wind abc 0 0 src -", "bad_number"),
            ("UNSUB xyz", "bad_number"),
            ("PUB wind 1 0 5 src 9,x", "bad_number"),
            ("SUB t periodic 0 0 0", "malformed"),
            ("SUB t warp 1 0 0", "malformed"),
            ("PUB wind 1 10 5 src -", "malformed"), // expiry before publish
            ("PUB wind 1 0 5 src - zz.0.0.s", "malformed"), // bad trace token
            ("PUB wind 1 0 5 src - 1.0.0.s extra", "malformed"),
            ("TRACE abc 0", "bad_number"),
        ];
        for (bad, code) in cases {
            let e = Request::decode(bad).expect_err(bad);
            assert_eq!(e.code(), code, "frame: {bad:?} err: {e}");
        }
        assert!(Response::decode("EVT 1 t 1 0").is_err());
        assert_eq!(
            Response::decode("TRACE 2 only%20one").unwrap_err().code(),
            "malformed"
        );
        // `u8::from_str_radix` alone would accept the sign in `%+f`.
        for bad in ["STATS bad%zz", "STATS bad%+f"] {
            assert_eq!(Response::decode(bad).unwrap_err().code(), "malformed", "{bad}");
        }
    }

    #[test]
    fn oversized_frames_are_refused_before_parsing() {
        let big = format!("PUB {} 1 0 5 src -", "x".repeat(MAX_FRAME_BYTES));
        assert_eq!(
            Request::decode(&big).unwrap_err(),
            WireError::Oversized { len: big.len() }
        );
        // Encode-side too: a response that cannot fit is refused, not
        // silently truncated.
        let huge = Response::Stats("y".repeat(MAX_FRAME_BYTES));
        assert!(matches!(
            huge.encode().unwrap_err(),
            WireError::Oversized { .. }
        ));
    }

    #[test]
    fn pct_encoding_round_trips_awkward_text() {
        for text in [
            "",
            "-",
            "plain",
            "two words",
            "line\nbreak",
            "100% déjà-vu",
            "%2d literal",
        ] {
            let tok = pct_encode(text);
            assert!(!tok.contains(' ') && !tok.contains('\n'), "token: {tok}");
            assert_eq!(pct_decode(&tok).unwrap(), text, "text: {text:?}");
        }
    }

    #[test]
    fn tokens_with_spaces_are_refused_at_encode_time() {
        let mut p = sample_packet();
        p.source = "two words".into();
        assert!(Request::Pub(p).encode().is_err());
    }
}
