//! Admission control and bounded-queue backpressure.
//!
//! A broker admits a publish only if (a) the packet satisfies the
//! hygiene contract — attributed and unexpired — and (b) the bounded
//! inbox has room. Everything else is refused with a typed
//! [`BrokerError`] and counted in [`AdmissionStats`]. The TCP harness
//! answers a refusal with an `ERR` frame; in the fleet a shed publish
//! goes unacked, and a device whose publishes keep going unacked
//! re-homes to the next broker.

use std::fmt;

/// Why a broker refused an operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BrokerError {
    /// The bounded inbox is full; the publish was shed (backpressure).
    QueueFull {
        /// Configured inbox capacity the publish ran into.
        capacity: usize,
    },
    /// The packet carries no source attribution.
    Unattributed,
    /// The packet was already past its expiry when it arrived.
    ExpiredOnArrival,
    /// The packet's source is blocked by an access policy. No broker
    /// blocks sources today; the variant keeps its place in the wire and
    /// `STATS` vocabulary.
    SourceBlocked(String),
    /// The broker is down (scripted fault or shutdown).
    BrokerDown,
    /// A tracked federation forward ran out of retries without an ack.
    RetryExhausted {
        /// Attempts made before giving up (initial send excluded).
        attempts: u32,
    },
    /// The federation peer could not be reached at all (no transport).
    PeerUnreachable(crate::packet::BrokerId),
    /// No retained context and no provider for the requested type.
    NoSuchContext(String),
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::QueueFull { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            BrokerError::Unattributed => f.write_str("publish refused: no source attribution"),
            BrokerError::ExpiredOnArrival => f.write_str("publish refused: expired on arrival"),
            BrokerError::SourceBlocked(s) => write!(f, "publish refused: source {s} blocked"),
            BrokerError::BrokerDown => f.write_str("broker down"),
            BrokerError::RetryExhausted { attempts } => {
                write!(f, "federation forward abandoned after {attempts} retries")
            }
            BrokerError::PeerUnreachable(b) => write!(f, "federation peer {b} unreachable"),
            BrokerError::NoSuchContext(t) => write!(f, "no context of type {t}"),
        }
    }
}

impl std::error::Error for BrokerError {}

/// Running admission counters (deterministic; folded into reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Publishes admitted into the inbox.
    pub admitted: u64,
    /// Publishes shed by backpressure.
    pub shed: u64,
    /// Publishes refused for missing attribution.
    pub unattributed: u64,
    /// Publishes refused as expired on arrival.
    pub expired: u64,
    /// Publishes refused by source blocking (always 0: no broker blocks
    /// sources today).
    pub blocked: u64,
}

impl AdmissionStats {
    /// Total refused for any reason.
    pub fn refused(&self) -> u64 {
        self.shed + self.unattributed + self.expired + self.blocked
    }

    /// Shed rate in parts-per-million of offered load (integer, so
    /// reports stay float-free).
    pub fn shed_ppm(&self) -> u64 {
        let offered = self.admitted + self.refused();
        if offered == 0 {
            0
        } else {
            self.shed * 1_000_000 / offered
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_ppm_is_integer_exact() {
        let stats = AdmissionStats {
            admitted: 75,
            shed: 25,
            ..AdmissionStats::default()
        };
        assert_eq!(stats.shed_ppm(), 250_000);
        assert_eq!(AdmissionStats::default().shed_ppm(), 0);
    }
}
