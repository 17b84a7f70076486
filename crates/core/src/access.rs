//! The AccessController (§4.3).
//!
//! "The AccessController keeps track of previously connected context
//! sources and also of blocked context sources. This list is continuously
//! refreshed so that only the most recent and the most often accessed
//! sources are kept in memory. If the application requires high-security
//! operating mode, every time a new context source is encountered, it is
//! blocked or admitted based on explicit validation by the application.
//! In low-security mode, every new entity is trusted."

use crate::item::SourceId;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

/// Security posture of the controller.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SecurityMode {
    /// Every new entity is trusted.
    #[default]
    Low,
    /// New entities require explicit validation by the application
    /// (`Client::make_decision`).
    High,
}

/// Outcome of an access check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessDecision {
    /// Interaction may proceed.
    Granted,
    /// Interaction must not proceed.
    Blocked,
}

struct Inner {
    mode: SecurityMode,
    /// Most-recently-used list of known-good sources, newest at the back.
    known: Vec<SourceId>,
    capacity: usize,
    blocked: BTreeSet<SourceId>,
}

/// Shared handle to the access controller.
///
/// ```
/// use contory::{AccessController, AccessDecision, SecurityMode, SourceId};
///
/// let ac = AccessController::new(SecurityMode::Low, 8);
/// assert_eq!(ac.check(&SourceId::new("boat-7")), AccessDecision::Granted);
/// ac.block(SourceId::new("boat-7"));
/// assert_eq!(ac.check(&SourceId::new("boat-7")), AccessDecision::Blocked);
/// ```
#[derive(Clone)]
pub struct AccessController {
    inner: Rc<RefCell<Inner>>,
}

impl AccessController {
    /// Creates a controller keeping at most `capacity` known sources.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(mode: SecurityMode, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        AccessController {
            inner: Rc::new(RefCell::new(Inner {
                mode,
                known: Vec::new(),
                capacity,
                blocked: BTreeSet::new(),
            })),
        }
    }

    /// Checks whether interaction with `source` is allowed, updating the
    /// recently-used bookkeeping.
    pub fn check(&self, source: &SourceId) -> AccessDecision {
        self.check_with(source, None)
    }

    /// Like [`AccessController::check`], but `fallback` is consulted for
    /// unknown sources in high-security mode (without one they are
    /// blocked) — this is how the factory routes the decision to the
    /// `Client::make_decision` of the query that encountered the source
    /// (§4.4).
    pub fn check_with(
        &self,
        source: &SourceId,
        fallback: Option<&dyn Fn(&SourceId) -> bool>,
    ) -> AccessDecision {
        let mut inner = self.inner.borrow_mut();
        if inner.blocked.contains(source) {
            return AccessDecision::Blocked;
        }
        if let Some(pos) = inner.known.iter().position(|s| s == source) {
            // Refresh: move to most-recent position.
            let s = inner.known.remove(pos);
            inner.known.push(s);
            return AccessDecision::Granted;
        }
        match inner.mode {
            SecurityMode::Low => {
                Self::admit(&mut inner, source.clone());
                AccessDecision::Granted
            }
            SecurityMode::High => {
                drop(inner);
                let allowed = fallback.is_some_and(|f| f(source));
                let mut inner = self.inner.borrow_mut();
                if allowed {
                    Self::admit(&mut inner, source.clone());
                    AccessDecision::Granted
                } else {
                    inner.blocked.insert(source.clone());
                    AccessDecision::Blocked
                }
            }
        }
    }

    fn admit(inner: &mut Inner, source: SourceId) {
        if inner.known.len() >= inner.capacity {
            inner.known.remove(0); // evict the least recently used
        }
        inner.known.push(source);
    }

    /// Explicitly blocks a source (and forgets it from the known list).
    pub fn block(&self, source: SourceId) {
        let mut inner = self.inner.borrow_mut();
        inner.known.retain(|s| s != &source);
        inner.blocked.insert(source);
    }

    /// Unblocks a source.
    pub fn unblock(&self, source: &SourceId) {
        self.inner.borrow_mut().blocked.remove(source);
    }
}

impl fmt::Debug for AccessController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("AccessController")
            .field("mode", &inner.mode)
            .field("known", &inner.known.len())
            .field("blocked", &inner.blocked.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(s: &str) -> SourceId {
        SourceId::new(s)
    }

    /// Currently known (recently granted) sources, oldest first.
    fn known(ac: &AccessController) -> Vec<SourceId> {
        ac.inner.borrow().known.clone()
    }

    #[test]
    fn low_mode_trusts_everyone() {
        let ac = AccessController::new(SecurityMode::Low, 4);
        assert_eq!(ac.check(&src("a")), AccessDecision::Granted);
        assert_eq!(known(&ac), vec![src("a")]);
    }

    #[test]
    fn high_mode_asks_the_application() {
        let ac = AccessController::new(SecurityMode::High, 4);
        // No decider installed: block by default.
        assert_eq!(ac.check(&src("a")), AccessDecision::Blocked);
        ac.unblock(&src("a"));
        let decide = |s: &SourceId| s.0.starts_with("boat");
        assert_eq!(ac.check_with(&src("boat-1"), Some(&decide)), AccessDecision::Granted);
        assert_eq!(ac.check_with(&src("a"), Some(&decide)), AccessDecision::Blocked);
        // Once blocked, stays blocked without another decision.
        assert_eq!(ac.check(&src("a")), AccessDecision::Blocked);
        // Once admitted, no more decisions needed.
        assert_eq!(ac.check(&src("boat-1")), AccessDecision::Granted);
    }

    #[test]
    fn lru_eviction_keeps_most_recent() {
        let ac = AccessController::new(SecurityMode::Low, 2);
        ac.check(&src("a"));
        ac.check(&src("b"));
        ac.check(&src("a")); // refresh a
        ac.check(&src("c")); // evicts b
        assert_eq!(known(&ac), vec![src("a"), src("c")]);
        // b is unknown again but low mode re-admits it.
        assert_eq!(ac.check(&src("b")), AccessDecision::Granted);
    }

    #[test]
    fn block_and_unblock() {
        let ac = AccessController::new(SecurityMode::Low, 4);
        ac.check(&src("a"));
        ac.block(src("a"));
        assert_eq!(ac.check(&src("a")), AccessDecision::Blocked);
        assert!(known(&ac).is_empty());
        ac.unblock(&src("a"));
        assert_eq!(ac.check(&src("a")), AccessDecision::Granted);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = AccessController::new(SecurityMode::Low, 0);
    }
}
