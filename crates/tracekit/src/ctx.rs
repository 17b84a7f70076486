//! The propagated trace context and its deterministic sampling rule.

use simkit::hash::mix64;
use std::fmt;

/// Salt separating the sampling decision from the id itself, so
/// sampling is not simply "low bits of the id" (which adjacent
/// sequence numbers would correlate).
const SAMPLE_SALT: u64 = 0x7e1e_c0de_5eed_5a17;

/// The causal context a packet carries across brokers.
///
/// `trace_id == 0` means "no trace" ([`TraceCtx::NONE`], the default on
/// every packet until a publisher mints a root). The sampling decision
/// is made **once**, at the root, as a pure function of the trace id —
/// every downstream hop just honours the propagated bit. No wall clock,
/// no RNG: two runs with the same seed sample the same traces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceCtx {
    /// Trace identity; 0 when untraced.
    pub trace_id: u64,
    /// Span id of the hop event that forwarded this context (0 at the
    /// root). Downstream events link to it as their causal parent.
    pub parent_span: u32,
    /// Federation hop count (0 at the publishing device).
    pub hop: u8,
    /// Root sampling decision, propagated unchanged.
    pub sampled: bool,
}

impl TraceCtx {
    /// The absent context: untraced, unsampled.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        parent_span: 0,
        hop: 0,
        sampled: false,
    };

    /// Mints a root context from deterministic id/seq `material`
    /// (e.g. `seed ^ device_id << 24 ^ publish_seq`), sampling one
    /// trace in `2^one_in_log2` (`0` ⇒ sample everything).
    pub fn root(material: u64, one_in_log2: u32) -> TraceCtx {
        // `| 1` keeps a real trace id from ever colliding with NONE.
        let trace_id = mix64(material) | 1;
        let mask = (1u64 << one_in_log2.min(63)) - 1;
        TraceCtx {
            trace_id,
            parent_span: 0,
            hop: 0,
            sampled: mix64(trace_id ^ SAMPLE_SALT) & mask == 0,
        }
    }

    /// True when hop events for this context should be recorded.
    pub fn is_active(&self) -> bool {
        self.sampled && self.trace_id != 0
    }

    /// The same trace, re-parented under the hop event `parent_span`.
    pub fn child(self, parent_span: u32) -> TraceCtx {
        TraceCtx {
            parent_span,
            ..self
        }
    }

    /// The same trace re-parented under `parent_span`, one federation
    /// hop further from the publisher.
    pub fn hopped(self, parent_span: u32) -> TraceCtx {
        TraceCtx {
            parent_span,
            hop: self.hop.saturating_add(1),
            ..self
        }
    }
}

/// Why a textual trace context failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseCtxError(pub String);

impl fmt::Display for ParseCtxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad trace context: {}", self.0)
    }
}

impl std::error::Error for ParseCtxError {}

impl std::str::FromStr for TraceCtx {
    type Err = ParseCtxError;

    /// Parses the [`fmt::Display`] form
    /// `"<trace16hex>.<parent>.<hop>.<s|u>"`.
    fn from_str(s: &str) -> Result<TraceCtx, ParseCtxError> {
        let mut it = s.split('.');
        let (Some(id), Some(parent), Some(hop), Some(flag), None) =
            (it.next(), it.next(), it.next(), it.next(), it.next())
        else {
            return Err(ParseCtxError(format!("expected 4 dot-fields in {s:?}")));
        };
        let trace_id = u64::from_str_radix(id, 16)
            .map_err(|_| ParseCtxError(format!("bad trace id {id:?}")))?;
        let parent_span = parent
            .parse::<u32>()
            .map_err(|_| ParseCtxError(format!("bad parent span {parent:?}")))?;
        let hop = hop
            .parse::<u8>()
            .map_err(|_| ParseCtxError(format!("bad hop count {hop:?}")))?;
        let sampled = match flag {
            "s" => true,
            "u" => false,
            other => return Err(ParseCtxError(format!("bad sample flag {other:?}"))),
        };
        Ok(TraceCtx {
            trace_id,
            parent_span,
            hop,
            sampled,
        })
    }
}

impl fmt::Display for TraceCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x}.{}.{}.{}",
            self.trace_id,
            self.parent_span,
            self.hop,
            if self.sampled { 's' } else { 'u' }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_deterministic() {
        let a = TraceCtx::root(42, 3);
        let b = TraceCtx::root(42, 3);
        assert_eq!(a, b);
        assert_ne!(a.trace_id, 0);
        assert_eq!(a.hop, 0);
        assert_eq!(a.parent_span, 0);
    }

    #[test]
    fn sampling_rate_is_roughly_honoured() {
        let sampled = (0..4096u64)
            .filter(|i| TraceCtx::root(*i, 3).sampled)
            .count();
        // 1-in-8 over 4096 trials: expect ~512, allow a wide band.
        assert!((300..750).contains(&sampled), "sampled {sampled}/4096");
    }

    #[test]
    fn rate_zero_samples_everything() {
        assert!((0..64u64).all(|i| TraceCtx::root(i, 0).sampled));
    }

    #[test]
    fn child_and_hop_propagate_identity() {
        let root = TraceCtx::root(7, 0);
        let c = root.child(9);
        assert_eq!(c.trace_id, root.trace_id);
        assert_eq!(c.parent_span, 9);
        assert_eq!(c.hop, 0);
        let h = c.hopped(11);
        assert_eq!(h.hop, 1);
        assert_eq!(h.parent_span, 11);
        assert_eq!(h.sampled, root.sampled);
    }

    #[test]
    fn none_is_inactive() {
        assert!(!TraceCtx::NONE.is_active());
        assert_eq!(TraceCtx::default(), TraceCtx::NONE);
    }

    #[test]
    fn display_is_compact() {
        let t = TraceCtx {
            trace_id: 0xabc,
            parent_span: 4,
            hop: 2,
            sampled: true,
        };
        assert_eq!(t.to_string(), "0000000000000abc.4.2.s");
    }

    #[test]
    fn display_round_trips_through_from_str() {
        for ctx in [
            TraceCtx::NONE,
            TraceCtx::root(99, 0),
            TraceCtx::root(7, 2).child(41).hopped(1234),
        ] {
            assert_eq!(ctx.to_string().parse::<TraceCtx>().unwrap(), ctx);
        }
        for bad in [
            "",
            "zz.0.0.s",
            "1.0.0",
            "1.0.0.x",
            "1.0.0.s.extra",
            "1.-1.0.u",
        ] {
            assert!(bad.parse::<TraceCtx>().is_err(), "accepted {bad:?}");
        }
    }
}
