//! The CxtPublisher (§4.3): "allows publishing context information in ad
//! hoc networks by means of the BTReference or the WiFiReference. Each
//! time a context item has to be published, two access modalities can be
//! applied: public access allows any external entity to access the item,
//! and authenticated access locks the item with a key."

use crate::item::CxtItem;
use crate::refs::{BtReference, Done, RefError, WifiReference};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Shared handle to the publisher.
#[derive(Clone)]
pub struct CxtPublisher {
    bt: Option<Rc<dyn BtReference>>,
    wifi: Option<Rc<dyn WifiReference>>,
}

impl CxtPublisher {
    /// Creates a publisher over the available ad hoc references.
    pub fn new(bt: Option<Rc<dyn BtReference>>, wifi: Option<Rc<dyn WifiReference>>) -> Self {
        CxtPublisher { bt, wifi }
    }

    /// Publishes (or refreshes) an item on every available ad hoc
    /// reference. `key` = `Some` selects authenticated access. The
    /// callback fires once, after the first reference succeeds — or with
    /// the last error if all fail.
    pub fn publish(
        &self,
        item: CxtItem,
        key: Option<String>,
        cb: Box<dyn FnOnce(Result<(), RefError>)>,
    ) {
        obskit::count("publisher_publishes", 1);
        if key.is_some() {
            obskit::count("publisher_authenticated", 1);
        }
        let targets: Vec<Target> = [
            self.bt.clone().map(Target::Bt),
            self.wifi.clone().map(Target::Wifi),
        ]
        .into_iter()
        .flatten()
        .collect();
        if targets.is_empty() {
            cb(Err(RefError::Unavailable("no ad hoc reference".into())));
            return;
        }
        // First success wins; all failures -> last error.
        let state = Rc::new(RefCell::new(PublishState {
            remaining: targets.len(),
            done: false,
            cb: Some(cb),
            last_err: None,
        }));
        for target in targets {
            let state = state.clone();
            let done: Box<dyn FnOnce(Result<(), RefError>)> = Box::new(move |res| {
                let mut st = state.borrow_mut();
                st.remaining -= 1;
                match res {
                    Ok(()) if !st.done => {
                        st.done = true;
                        if let Some(cb) = st.cb.take() {
                            drop(st);
                            cb(Ok(()));
                        }
                    }
                    Ok(()) => {}
                    Err(e) => {
                        st.last_err = Some(e);
                        if st.remaining == 0 && !st.done {
                            // Every target failed: report the most recent
                            // error. The `if let` replaces a former
                            // `expect()` — the error was just recorded, but
                            // panicking inside a radio callback would take
                            // the whole middleware down.
                            if let (Some(err), Some(cb)) = (st.last_err.take(), st.cb.take()) {
                                drop(st);
                                cb(Err(err));
                            }
                        }
                    }
                }
            });
            match target {
                Target::Bt(r) => r.publish(&item, key.clone(), done),
                Target::Wifi(r) => r.publish(&item, key.clone(), done),
            }
        }
    }

    /// Withdraws a published item from every reference.
    pub fn unpublish(&self, cxt_type: &str) {
        obskit::count("publisher_unpublishes", 1);
        if let Some(bt) = &self.bt {
            bt.unpublish(cxt_type);
        }
        if let Some(wifi) = &self.wifi {
            wifi.unpublish(cxt_type);
        }
    }
}

enum Target {
    Bt(Rc<dyn BtReference>),
    Wifi(Rc<dyn WifiReference>),
}

struct PublishState {
    remaining: usize,
    done: bool,
    cb: Option<Done<Result<(), RefError>>>,
    last_err: Option<RefError>,
}

impl fmt::Debug for CxtPublisher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CxtPublisher")
            .field("bt", &self.bt.is_some())
            .field("wifi", &self.wifi.is_some())
            .finish()
    }
}
