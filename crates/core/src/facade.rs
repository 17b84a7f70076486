//! Per-mechanism Facades (§4.3).
//!
//! "For each of the three types of context provisioning mechanisms
//! supported, a corresponding Facade module offers a unified interface
//! for managing CxtProviders of that specific type." The Facade performs
//! *query aggregation*: a new query is merged with a compatible active
//! query where possible (query merging), and provider results are
//! filtered back per original query (post-extraction). "CxtProviders of
//! different Facades can be assigned to the same query, but each
//! CxtProvider is assigned only to one (single or merged) query at
//! a time."

use crate::error::ContoryError;
use crate::factory::QueryId;
use crate::item::CxtItem;
use crate::merge::{post_extract, try_merge};
use crate::providers::{CxtProvider, ProviderFailure, ProviderSink};
use crate::query::{CxtQuery, DurationClause, QueryMode};
use simkit::Sim;
use std::cell::RefCell;
use std::fmt;
use std::rc::{Rc, Weak};

/// Builds a provider for this facade's mechanism, given the (merged)
/// query, the result sink and the failure callback.
pub(crate) type ProviderFactory =
    Rc<dyn Fn(&CxtQuery, ProviderSink, ProviderFailure) -> Result<Box<dyn CxtProvider>, ContoryError>>;

/// Receives post-extracted items for one member query.
pub(crate) type DeliverFn = Rc<dyn Fn(QueryId, Vec<CxtItem>)>;

/// Told when a member query exhausted its sample budget.
pub(crate) type MemberDoneFn = Rc<dyn Fn(QueryId)>;

/// Told when a provider's mechanism failed, with the member queries that
/// were riding it.
pub(crate) type ProviderFailedFn = Rc<dyn Fn(Vec<QueryId>, crate::refs::RefError)>;

struct Member {
    id: QueryId,
    query: CxtQuery,
    samples_left: Option<u32>,
}

struct Entry {
    id: u64,
    merged: CxtQuery,
    members: Vec<Member>,
    provider: Rc<dyn CxtProvider>,
}

struct Inner {
    sim: Sim,
    entries: Vec<Entry>,
    next_entry: u64,
    make_provider: ProviderFactory,
    deliver: DeliverFn,
    member_done: MemberDoneFn,
    provider_failed: ProviderFailedFn,
}

/// A per-mechanism facade. Cloneable handle.
#[derive(Clone)]
pub struct Facade {
    inner: Rc<RefCell<Inner>>,
}

impl Facade {
    pub(crate) fn new(
        sim: &Sim,
        make_provider: ProviderFactory,
        deliver: DeliverFn,
        member_done: MemberDoneFn,
        provider_failed: ProviderFailedFn,
    ) -> Self {
        Facade {
            inner: Rc::new(RefCell::new(Inner {
                sim: sim.clone(),
                entries: Vec::new(),
                next_entry: 0,
                make_provider,
                deliver,
                member_done,
                provider_failed,
            })),
        }
    }

    /// Submits a member query: merged into an existing compatible entry
    /// (the provider's parameters are updated) or served by a fresh
    /// provider.
    pub(crate) fn submit(&self, id: QueryId, query: CxtQuery) -> Result<(), ContoryError> {
        let samples_left = match (&query.mode, query.duration) {
            (QueryMode::OnDemand, _) => Some(1),
            (_, DurationClause::Samples(n)) => Some(n),
            _ => None,
        };
        // Try merging into an existing entry.
        {
            let mut inner = self.inner.borrow_mut();
            for entry in &mut inner.entries {
                if let Some(merged) = try_merge(&entry.merged, &query) {
                    entry.merged = merged.clone();
                    entry.members.push(Member {
                        id,
                        query,
                        samples_left,
                    });
                    entry.provider.update_query(&merged);
                    obskit::count("facade_merges", 1);
                    return Ok(());
                }
            }
        }
        // No merge possible: new provider.
        let entry_id = {
            let mut inner = self.inner.borrow_mut();
            inner.next_entry += 1;
            inner.next_entry
        };
        let weak = Rc::downgrade(&self.inner);
        let sink: ProviderSink = {
            let weak = weak.clone();
            Rc::new(move |items| Facade::route(&weak, entry_id, items))
        };
        let on_failure: ProviderFailure = Rc::new(move |err| {
            Facade::entry_failed(&weak, entry_id, err);
        });
        let provider: Rc<dyn CxtProvider> = {
            let make = self.inner.borrow().make_provider.clone();
            Rc::from(make(&query, sink, on_failure)?)
        };
        {
            let mut inner = self.inner.borrow_mut();
            inner.entries.push(Entry {
                id: entry_id,
                merged: query.clone(),
                members: vec![Member {
                    id,
                    query,
                    samples_left,
                }],
                provider: provider.clone(),
            });
        }
        // Start outside the borrow: a provider whose radio is already
        // down reports failure synchronously, which re-enters the facade.
        obskit::count("facade_providers_started", 1);
        provider.start();
        Ok(())
    }

    /// Routes provider output: post-extract per member, deliver, retire
    /// exhausted members.
    fn route(weak: &Weak<RefCell<Inner>>, entry_id: u64, items: Vec<CxtItem>) {
        let Some(inner_rc) = weak.upgrade() else {
            return;
        };
        let now = inner_rc.borrow().sim.now();
        let mut deliveries: Vec<(QueryId, Vec<CxtItem>)> = Vec::new();
        let mut retired: Vec<QueryId> = Vec::new();
        let mut entry_emptied = false;
        {
            let mut inner = inner_rc.borrow_mut();
            let Some(entry) = inner.entries.iter_mut().find(|e| e.id == entry_id) else {
                return;
            };
            for member in &mut entry.members {
                let extracted = post_extract(&member.query, &items, now);
                if extracted.is_empty() {
                    continue;
                }
                let take = match member.samples_left {
                    Some(left) => extracted.len().min(left as usize),
                    None => extracted.len(),
                };
                let batch: Vec<CxtItem> = extracted.into_iter().take(take).collect();
                if let Some(left) = &mut member.samples_left {
                    *left -= batch.len() as u32;
                    if *left == 0 {
                        retired.push(member.id);
                    }
                }
                deliveries.push((member.id, batch));
            }
            entry.members.retain(|m| !retired.contains(&m.id));
            if entry.members.is_empty() {
                entry.provider.stop();
                inner.entries.retain(|e| e.id != entry_id);
                entry_emptied = true;
            } else if !retired.is_empty() {
                // Shrink the merged query to the remaining members.
                Self::remerge_locked(entry_id, &mut inner);
            }
        }
        let _ = entry_emptied;
        let (deliver, member_done) = {
            let inner = inner_rc.borrow();
            (inner.deliver.clone(), inner.member_done.clone())
        };
        for (id, batch) in deliveries {
            obskit::count("facade_batches_routed", 1);
            obskit::count("facade_items_routed", batch.len() as u64);
            deliver(id, batch);
        }
        for id in retired {
            member_done(id);
        }
    }

    fn entry_failed(weak: &Weak<RefCell<Inner>>, entry_id: u64, err: crate::refs::RefError) {
        let Some(inner_rc) = weak.upgrade() else {
            return;
        };
        let (ids, cb) = {
            let mut inner = inner_rc.borrow_mut();
            let Some(pos) = inner.entries.iter().position(|e| e.id == entry_id) else {
                return;
            };
            let entry = inner.entries.remove(pos);
            entry.provider.stop();
            let ids: Vec<QueryId> = entry.members.iter().map(|m| m.id).collect();
            (ids, inner.provider_failed.clone())
        };
        cb(ids, err);
    }

    /// Recomputes an entry's merged query from its remaining members and
    /// pushes the update to the provider. Caller holds the borrow.
    fn remerge_locked(entry_id: u64, inner: &mut Inner) {
        if let Some(entry) = inner.entries.iter_mut().find(|e| e.id == entry_id) {
            let mut merged = entry.members[0].query.clone();
            for m in &entry.members[1..] {
                if let Some(next) = try_merge(&merged, &m.query) {
                    merged = next;
                }
            }
            entry.merged = merged.clone();
            entry.provider.update_query(&merged);
        }
    }

    /// Removes a member; stops the provider when the entry empties.
    /// Returns true if the member was found here.
    pub(crate) fn cancel(&self, id: QueryId) -> bool {
        let mut inner = self.inner.borrow_mut();
        let Some(entry_pos) = inner
            .entries
            .iter()
            .position(|e| e.members.iter().any(|m| m.id == id))
        else {
            return false;
        };
        let entry_id = inner.entries[entry_pos].id;
        {
            let entry = &mut inner.entries[entry_pos];
            entry.members.retain(|m| m.id != id);
        }
        if inner.entries[entry_pos].members.is_empty() {
            let entry = inner.entries.remove(entry_pos);
            entry.provider.stop();
        } else {
            Self::remerge_locked(entry_id, &mut inner);
        }
        true
    }

    /// All member queries currently served, with their texts.
    pub fn members(&self) -> Vec<(QueryId, CxtQuery)> {
        self.inner
            .borrow()
            .entries
            .iter()
            .flat_map(|e| e.members.iter().map(|m| (m.id, m.query.clone())))
            .collect()
    }

    /// Number of active providers (merged queries) — what query merging
    /// keeps minimal.
    pub fn provider_count(&self) -> usize {
        self.inner.borrow().entries.len()
    }

    /// Doubles the EVERY period of all merged queries (`reduceLoad`).
    pub(crate) fn slow_down(&self, factor: u64) {
        let mut inner = self.inner.borrow_mut();
        for entry in &mut inner.entries {
            if let QueryMode::Periodic(p) = entry.merged.mode {
                entry.merged.mode = QueryMode::Periodic(p * factor);
                entry.provider.update_query(&entry.merged.clone());
            }
        }
    }
}

impl fmt::Debug for Facade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Facade")
            .field("providers", &inner.entries.len())
            .field(
                "members",
                &inner.entries.iter().map(|e| e.members.len()).sum::<usize>(),
            )
            .finish()
    }
}
