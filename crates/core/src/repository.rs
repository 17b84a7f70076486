//! The CxtRepository (§4.3): "responsible for storing gathered context
//! information, locally or remotely. Only a few recent context data are
//! stored locally, while complete logs can be stored in remote
//! repositories of context infrastructures."
//!
//! Lifetimes are **enforced**, not decorative: once a clock is wired
//! (the factory installs the simulation clock), items past
//! `timestamp + lifetime` are never returned by
//! [`CxtRepository::latest`], and [`CxtRepository::sweep_expired`]
//! evicts them deterministically (oldest first, types in `BTreeMap`
//! order) — the same lifetime-bound contract brokerd's context packets
//! carry on the wire.

use crate::item::CxtItem;
use crate::refs::{CellReference, RefError};
use simkit::SimTime;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

struct Inner {
    per_type: BTreeMap<String, VecDeque<CxtItem>>,
    cap_per_type: usize,
    remote: Option<Rc<dyn CellReference>>,
    clock: Option<Rc<dyn Fn() -> SimTime>>,
    expired_evicted: u64,
}

/// Shared handle to the context repository.
///
/// ```
/// use contory::{CxtItem, CxtRepository, CxtValue};
/// use simkit::SimTime;
///
/// let repo = CxtRepository::new(4);
/// repo.store_local(CxtItem::new("wind", CxtValue::number(5.0), SimTime::ZERO));
/// assert_eq!(repo.latest("wind").unwrap().value.as_f64(), Some(5.0));
/// assert!(repo.latest("temperature").is_none());
/// ```
#[derive(Clone)]
pub struct CxtRepository {
    inner: Rc<RefCell<Inner>>,
}

impl CxtRepository {
    /// Creates a repository keeping at most `cap_per_type` recent items
    /// of each context type.
    ///
    /// # Panics
    ///
    /// Panics if `cap_per_type` is zero.
    pub fn new(cap_per_type: usize) -> Self {
        assert!(cap_per_type > 0, "capacity must be non-zero");
        CxtRepository {
            inner: Rc::new(RefCell::new(Inner {
                per_type: BTreeMap::new(),
                cap_per_type,
                remote: None,
                clock: None,
                expired_evicted: 0,
            })),
        }
    }

    /// Wires the remote repository (the context infrastructure reached
    /// through the `2G/3GReference`).
    pub fn set_remote(&self, cell: Rc<dyn CellReference>) {
        self.inner.borrow_mut().remote = Some(cell);
    }

    /// Wires the clock lifetime enforcement reads `now` from (the
    /// factory installs the simulation clock). Without a clock the
    /// repository cannot know the current instant, so expiry filtering
    /// is inert — exactly the pre-enforcement behaviour.
    pub fn set_clock(&self, clock: Rc<dyn Fn() -> SimTime>) {
        self.inner.borrow_mut().clock = Some(clock);
    }

    /// Stores an item in the local ring for its type.
    pub fn store_local(&self, item: CxtItem) {
        let mut inner = self.inner.borrow_mut();
        let cap = inner.cap_per_type;
        let ring = inner.per_type.entry(item.cxt_type.clone()).or_default();
        if ring.len() >= cap {
            ring.pop_front();
        }
        ring.push_back(item);
    }

    /// Stores an item in the remote repository (`storeCxtItem`). The
    /// callback observes the transfer outcome.
    ///
    /// # Errors
    ///
    /// The callback receives [`RefError::Unavailable`] if no remote
    /// repository is configured or the cellular link is down.
    pub fn store_remote(&self, item: CxtItem, cb: Box<dyn FnOnce(Result<(), RefError>)>) {
        let remote = self.inner.borrow().remote.clone();
        match remote {
            Some(cell) => cell.store(&item, cb),
            None => cb(Err(RefError::Unavailable(
                "no remote repository configured".into(),
            ))),
        }
    }

    /// The most recent locally stored item of a type that is still
    /// within its lifetime at the wired clock's `now`.
    pub fn latest(&self, cxt_type: &str) -> Option<CxtItem> {
        let inner = self.inner.borrow();
        let now = inner.clock.as_ref().map(|c| c());
        inner.per_type.get(cxt_type).and_then(|r| {
            r.iter()
                .rev()
                .find(|i| now.is_none_or(|t| i.is_valid_at(t)))
                .cloned()
        })
    }

    /// Evicts every item past its lifetime at `now`, deterministically
    /// (types in `BTreeMap` order, items oldest-first within a ring).
    /// Returns how many items were evicted.
    pub fn sweep_expired(&self, now: SimTime) -> usize {
        let mut inner = self.inner.borrow_mut();
        let mut evicted = 0usize;
        for ring in inner.per_type.values_mut() {
            let before = ring.len();
            ring.retain(|i| i.is_valid_at(now));
            evicted += before - ring.len();
        }
        inner.expired_evicted += evicted as u64;
        if evicted > 0 {
            obskit::count("repo_expired_evicted", evicted as u64);
        }
        evicted
    }

    /// Total items evicted by expiry sweeps over this repository's life.
    pub fn expired_evicted(&self) -> u64 {
        self.inner.borrow().expired_evicted
    }

    /// Total items stored locally.
    pub fn len(&self) -> usize {
        self.inner.borrow().per_type.values().map(VecDeque::len).sum()
    }

    /// True if nothing is stored locally.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops the oldest half of every ring (the `reduceMemory` action).
    pub fn trim(&self) {
        let mut inner = self.inner.borrow_mut();
        for ring in inner.per_type.values_mut() {
            let keep = ring.len().div_ceil(2);
            while ring.len() > keep {
                ring.pop_front();
            }
        }
    }
}

impl fmt::Debug for CxtRepository {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CxtRepository")
            .field("items", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::CxtValue;
    use simkit::SimTime;

    fn item(t: &str, v: f64, at: u64) -> CxtItem {
        CxtItem::new(t, CxtValue::number(v), SimTime::from_secs(at))
    }

    /// The values stored in a type's ring, oldest first, unfiltered.
    fn stored(repo: &CxtRepository, t: &str) -> Vec<f64> {
        let inner = repo.inner.borrow();
        let ring = inner.per_type.get(t).into_iter().flatten();
        ring.filter_map(|i| i.value.as_f64()).collect()
    }

    #[test]
    fn ring_keeps_only_recent() {
        let repo = CxtRepository::new(3);
        for i in 0..5 {
            repo.store_local(item("wind", i as f64, i));
        }
        assert_eq!(stored(&repo, "wind"), vec![2.0, 3.0, 4.0]);
        assert_eq!(repo.latest("wind").unwrap().value.as_f64(), Some(4.0));
    }

    #[test]
    fn types_are_independent() {
        let repo = CxtRepository::new(2);
        repo.store_local(item("a", 1.0, 1));
        repo.store_local(item("b", 2.0, 1));
        assert_eq!(repo.len(), 2);
        assert_eq!(stored(&repo, "a"), vec![1.0]);
    }

    #[test]
    fn trim_halves_rings() {
        let repo = CxtRepository::new(8);
        for i in 0..8 {
            repo.store_local(item("t", i as f64, i));
        }
        repo.trim();
        assert_eq!(repo.len(), 4);
        assert_eq!(repo.latest("t").unwrap().value.as_f64(), Some(7.0));
    }

    #[test]
    fn store_remote_without_remote_fails() {
        use std::cell::Cell;
        use std::rc::Rc;
        let repo = CxtRepository::new(2);
        let observed = Rc::new(Cell::new(false));
        let o = observed.clone();
        repo.store_remote(
            item("t", 1.0, 1),
            Box::new(move |res| {
                assert!(matches!(res, Err(RefError::Unavailable(_))));
                o.set(true);
            }),
        );
        assert!(observed.get(), "callback ran synchronously");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = CxtRepository::new(0);
    }

    fn expiring(t: &str, v: f64, at: u64, life: u64) -> CxtItem {
        item(t, v, at).with_lifetime(simkit::SimDuration::from_secs(life))
    }

    fn clocked(cap: usize, now: Rc<std::cell::Cell<u64>>) -> CxtRepository {
        let repo = CxtRepository::new(cap);
        repo.set_clock(Rc::new(move || SimTime::from_secs(now.get())));
        repo
    }

    #[test]
    fn expired_items_are_never_returned_by_queries() {
        let now = Rc::new(std::cell::Cell::new(0u64));
        let repo = clocked(8, now.clone());
        repo.store_local(item("wind", 3.0, 0)); // eternal
        repo.store_local(expiring("wind", 1.0, 5, 10)); // valid through t=15
        repo.store_local(expiring("wind", 2.0, 6, 3)); // valid through t=9
        now.set(8);
        assert_eq!(repo.latest("wind").unwrap().value.as_f64(), Some(2.0));
        now.set(12);
        // The newest item is out; the next-newest live one answers.
        assert_eq!(repo.latest("wind").unwrap().value.as_f64(), Some(1.0));
        now.set(20);
        // Only the eternal item survives; `latest` skips the expired
        // newer-but-dead entries transparently.
        assert_eq!(repo.latest("wind").unwrap().value.as_f64(), Some(3.0));
        // Expired items stay stored until a sweep.
        assert_eq!(repo.len(), 3);
    }

    #[test]
    fn latest_skips_expired_head() {
        let now = Rc::new(std::cell::Cell::new(0u64));
        let repo = clocked(8, now.clone());
        repo.store_local(item("t", 1.0, 0)); // eternal, older
        repo.store_local(expiring("t", 2.0, 1, 3)); // newest, dies at t=4
        now.set(3);
        assert_eq!(repo.latest("t").unwrap().value.as_f64(), Some(2.0));
        now.set(5);
        assert_eq!(repo.latest("t").unwrap().value.as_f64(), Some(1.0));
    }

    #[test]
    fn sweep_evicts_deterministically_and_counts() {
        let repo = CxtRepository::new(8);
        repo.store_local(expiring("a", 1.0, 0, 5));
        repo.store_local(expiring("a", 2.0, 0, 50));
        repo.store_local(expiring("b", 3.0, 0, 5));
        assert_eq!(repo.len(), 3);
        assert_eq!(repo.sweep_expired(SimTime::from_secs(10)), 2);
        assert_eq!(repo.len(), 1);
        assert_eq!(repo.expired_evicted(), 2);
        // Idempotent once clean.
        assert_eq!(repo.sweep_expired(SimTime::from_secs(10)), 0);
        assert_eq!(repo.expired_evicted(), 2);
    }

    #[test]
    fn without_a_clock_queries_do_not_filter() {
        let repo = CxtRepository::new(4);
        repo.store_local(expiring("t", 1.0, 0, 1));
        // No clock wired: the repository cannot know `now`, so the item
        // is still visible (storage-only behaviour).
        assert!(repo.latest("t").is_some());
    }
}
