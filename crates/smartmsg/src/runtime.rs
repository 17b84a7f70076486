//! The per-node SM runtime and the migration machinery.
//!
//! Mirrors the four components of the real platform (§5.1 of the paper):
//! an **admission manager** (bounded resident SMs), a **code cache**
//! (migrations to nodes holding the code brick ship only data), a
//! **scheduler** (a thread-switch delay before each execution step — the
//! 12–14 % share of retrieval latency), and the **tag space**.
//!
//! Migration cost per hop = connection establishment + serialization +
//! transfer (over the WiFi medium) + thread switch, with defaults tuned so
//! a routed one-hop retrieval (out + back) takes ≈ 761 ms and two hops
//! ≈ 1 422 ms, with the component break-up the paper reports.

use crate::program::{SmAction, SmContext, SmError, SmOutcome, SmProgram};
use crate::tag::{Tag, TagSpace, TagValue};
use phone::Phone;
use radio::wifi::WifiRadio;
use radio::NodeId;
use simkit::{DetRng, Sim, SimDuration};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

/// Calibration constants of the SM platform.
#[derive(Clone, Debug)]
pub struct SmParams {
    /// One-time serialization cost when an SM is injected at its origin.
    pub issuer_serialize: SimDuration,
    /// One-time dispatch cost when an SM is injected.
    pub issuer_thread: SimDuration,
    /// TCP connection establishment per migration (4–5 % share).
    pub connect: SimDuration,
    /// Fixed serialization cost per migration (26–33 % share with the
    /// per-byte part).
    pub serialize_base: SimDuration,
    /// Serialization cost per byte shipped.
    pub serialize_per_byte: SimDuration,
    /// Fixed transfer overhead per migration beyond the WiFi airtime
    /// (J2ME-era socket stack; 51–54 % share together with airtime).
    pub transfer_base: SimDuration,
    /// Scheduler dispatch (thread switch) on arrival (12–14 % share).
    pub thread_switch: SimDuration,
    /// Size of the SM's execution control state on the wire.
    pub control_state_size: usize,
    /// Latency of publishing a tag (Table 1: 0.130 ms — a hashtable put).
    pub publish_mean: SimDuration,
    /// Publish latency standard deviation.
    pub publish_std: SimDuration,
    /// Code-cache capacity (bricks per node).
    pub code_cache_capacity: usize,
    /// Admission manager: maximum SMs resident at a node.
    pub max_resident_sms: u32,
    /// Relative jitter applied to each migration leg.
    pub jitter: f64,
}

impl Default for SmParams {
    fn default() -> Self {
        SmParams {
            issuer_serialize: SimDuration::from_millis(60),
            issuer_thread: SimDuration::from_millis(40),
            connect: SimDuration::from_millis(15),
            serialize_base: SimDuration::from_millis(86),
            serialize_per_byte: SimDuration::from_micros(2),
            transfer_base: SimDuration::from_millis(175),
            thread_switch: SimDuration::from_millis(25),
            control_state_size: 256,
            publish_mean: SimDuration::from_micros(130),
            publish_std: SimDuration::from_micros(4),
            code_cache_capacity: 16,
            max_resident_sms: 8,
            jitter: 0.02,
        }
    }
}

/// The tag every participating node exposes (paper §5.2: "the
/// `WiFiReference` expresses its willingness to participate in the Contory
/// ad hoc network by exposing the tag `contory`").
pub const PARTICIPATION_TAG: &str = "contory";

struct NodeState {
    wifi: WifiRadio,
    phone: Phone,
    tags: TagSpace,
    routes: BTreeMap<String, Vec<NodeId>>,
    code_cache: VecDeque<&'static str>,
    resident: u32,
    rng: DetRng,
}

impl NodeState {
    fn code_cached(&self, name: &str) -> bool {
        self.code_cache.iter().any(|&n| n == name)
    }

    fn cache_code(&mut self, name: &'static str, capacity: usize) {
        if self.code_cached(name) {
            return;
        }
        if self.code_cache.len() >= capacity {
            self.code_cache.pop_front();
        }
        self.code_cache.push_back(name);
    }
}

struct PlatformInner {
    sim: Sim,
    params: SmParams,
    nodes: BTreeMap<NodeId, Rc<RefCell<NodeState>>>,
    next_sm: u64,
}

/// An injected SM travelling the network.
struct SmInstance {
    id: u64,
    origin: NodeId,
    program: Box<dyn SmProgram>,
    hop_cnt: u32,
    migration_failed: Option<NodeId>,
    cancelled: Rc<Cell<bool>>,
    callback: Rc<RefCell<Option<Box<dyn FnOnce(SmOutcome)>>>>,
    /// Path the runtime replays for the `Return` action (outbound visits).
    path: Vec<NodeId>,
    /// Root obskit span covering this SM's whole journey; per-hop
    /// connect/serialize/transfer/thread-switch spans parent to it.
    span: Option<obskit::SpanId>,
}

/// The Smart Messages platform for one simulated network.
#[derive(Clone)]
pub struct SmPlatform {
    inner: Rc<RefCell<PlatformInner>>,
}

impl SmPlatform {
    /// Creates a platform.
    pub fn new(sim: &Sim, params: SmParams) -> Self {
        SmPlatform {
            inner: Rc::new(RefCell::new(PlatformInner {
                sim: sim.clone(),
                params,
                nodes: BTreeMap::new(),
                next_sm: 0,
            })),
        }
    }

    /// Installs the SM runtime on a node. The node immediately exposes
    /// the `"contory"` participation tag.
    ///
    /// # Panics
    ///
    /// Panics if the runtime is already installed on this node.
    pub fn install(&self, wifi: &WifiRadio, phone: &Phone, seed: u64) -> SmNode {
        let node = wifi.node();
        let mut tags = TagSpace::new();
        tags.publish(Tag::new(
            PARTICIPATION_TAG,
            TagValue::text("1"),
            self.sim().now(),
        ));
        let state = Rc::new(RefCell::new(NodeState {
            wifi: wifi.clone(),
            phone: phone.clone(),
            tags,
            routes: BTreeMap::new(),
            code_cache: VecDeque::new(),
            resident: 0,
            rng: DetRng::new(seed),
        }));
        {
            let mut inner = self.inner.borrow_mut();
            let prev = inner.nodes.insert(node, state);
            assert!(prev.is_none(), "SM runtime already installed on {node}");
        }
        SmNode {
            platform: self.clone(),
            node,
        }
    }

    fn sim(&self) -> Sim {
        self.inner.borrow().sim.clone()
    }

    fn params(&self) -> SmParams {
        self.inner.borrow().params.clone()
    }

    fn state_of(&self, node: NodeId) -> Option<Rc<RefCell<NodeState>>> {
        self.inner.borrow().nodes.get(&node).cloned()
    }

    /// Adjacent nodes of `of` that participate in the SM network right
    /// now: WiFi-joined neighbors with a live `"contory"` tag.
    fn participating_neighbors(&self, of: NodeId) -> Vec<NodeId> {
        let Some(state) = self.state_of(of) else {
            return Vec::new();
        };
        let wifi_neighbors = state.borrow().wifi.neighbors();
        let now = self.sim().now();
        wifi_neighbors
            .into_iter()
            .filter(|n| {
                self.state_of(*n).is_some_and(|s| {
                    let s = s.borrow();
                    s.phone.is_on() && s.tags.exposes(PARTICIPATION_TAG, now)
                })
            })
            .collect()
    }

    /// Whether `node` currently has `code_name` in its code cache
    /// (exposed for the code-cache ablation bench).
    pub fn code_cached(&self, node: NodeId, code_name: &str) -> bool {
        self.state_of(node)
            .is_some_and(|s| s.borrow().code_cached(code_name))
    }

    /// One execution step of `sm` at `node`, after the scheduler's
    /// thread-switch delay has already been paid.
    fn exec(&self, mut sm: SmInstance, node: NodeId) {
        if sm.cancelled.get() {
            self.leave(node);
            return;
        }
        let Some(state_rc) = self.state_of(node) else {
            self.fail(sm, SmError::Unreachable(node));
            return;
        };
        if !state_rc.borrow().phone.is_on() {
            self.leave(node);
            self.fail(sm, SmError::Unreachable(node));
            return;
        }
        let neighbors = self.participating_neighbors(node);
        let now = self.sim().now();
        let action = {
            let mut st = state_rc.borrow_mut();
            let st = &mut *st; // split field borrows through the RefMut
            let mut ctx = SmContext {
                node,
                origin: sm.origin,
                hop_cnt: sm.hop_cnt,
                now,
                tags: &mut st.tags,
                neighbors,
                routes: &mut st.routes,
                migration_failed: sm.migration_failed.take(),
            };
            sm.program.run(&mut ctx)
        };
        match action {
            SmAction::Migrate(next) => {
                self.migrate(sm, node, next, true);
            }
            SmAction::Return => {
                if node == sm.origin {
                    self.complete(sm, node);
                } else {
                    // `path` is the origin→parent chain of the current
                    // node; walk it backwards hop by hop.
                    let Some(&next) = sm.path.last() else {
                        let origin = sm.origin;
                        self.leave(node);
                        self.fail(sm, SmError::Unreachable(origin));
                        return;
                    };
                    sm.path.pop();
                    self.return_hop(sm, node, next);
                }
            }
            SmAction::Complete => {
                if node == sm.origin {
                    self.complete(sm, node);
                } else {
                    self.leave(node);
                    self.fail(sm, SmError::LostOffOrigin(node));
                }
            }
        }
    }

    /// Runtime-managed homeward hop: migrate without running the program
    /// until the origin is reached.
    fn return_hop(&self, sm: SmInstance, from: NodeId, to: NodeId) {
        self.migrate(sm, from, to, false);
    }

    /// Performs one migration. If `resume` the program runs at the target;
    /// otherwise the runtime continues the `Return` walk.
    fn migrate(&self, mut sm: SmInstance, from: NodeId, to: NodeId, resume: bool) {
        let params = self.params();
        let Some(from_state) = self.state_of(from) else {
            self.fail(sm, SmError::Unreachable(from));
            return;
        };
        // Wire size: control state + data bricks + code bricks unless the
        // target already caches the code.
        let code_needed = !self
            .state_of(to)
            .is_some_and(|s| s.borrow().code_cached(sm.program.code_name()));
        let wire = params.control_state_size
            + sm.program.data_size()
            + if code_needed { sm.program.code_size() } else { 0 };
        let nominal = params.connect
            + params.serialize_base
            + params.serialize_per_byte * wire as u64
            + params.transfer_base;
        let pre = {
            let mut st = from_state.borrow_mut();
            st.rng.jitter(nominal, params.jitter)
        };
        // Span attribution: the jittered pre-send cost is split over the
        // connect and serialize components proportionally (the jitter is
        // applied to their sum); the transfer span opens where the
        // transfer_base share begins and closes when the WiFi hop
        // delivers, so it covers TCP-stack overhead plus airtime — the
        // paper's 51–54 % "transfer" attribution.
        obskit::count("sm_migrations", 1);
        obskit::count("sm_wire_bytes", wire as u64);
        obskit::count(
            if code_needed {
                "sm_code_cache_misses"
            } else {
                "sm_code_cache_hits"
            },
            1,
        );
        let t0 = self.sim().now();
        let scale = {
            let nominal_us = nominal.as_micros();
            let f = if nominal_us == 0 {
                1.0
            } else {
                pre.as_micros() as f64 / nominal_us as f64
            };
            move |d: SimDuration| {
                SimDuration::from_micros((d.as_micros() as f64 * f).round() as u64)
            }
        };
        let connect_d = scale(params.connect);
        let serialize_d = scale(params.serialize_base + params.serialize_per_byte * wire as u64);
        let hop_label = format!("hop:{from}->{to}");
        let c_span = obskit::start(obskit::Phase::Connect, &hop_label, sm.span, t0);
        obskit::end(c_span, t0 + connect_d);
        let s_span =
            obskit::start(obskit::Phase::Serialize, &hop_label, sm.span, t0 + connect_d);
        obskit::end(s_span, t0 + connect_d + serialize_d);
        let t_span = obskit::start(
            obskit::Phase::Transfer,
            &hop_label,
            sm.span,
            t0 + connect_d + serialize_d,
        );
        let wifi = from_state.borrow().wifi.clone();
        self.leave(from);
        let platform = self.clone();
        let sim = self.sim();
        sim.schedule_in(pre, move || {
            if sm.cancelled.get() {
                obskit::end(t_span, platform.sim().now());
                return;
            }
            let platform2 = platform.clone();
            wifi.send(to, wire, Rc::new(()), move |res| {
                obskit::end(t_span, platform2.sim().now());
                if res.is_err() {
                    obskit::count("sm_migration_failures", 1);
                }
                match res {
                    Ok(()) => {
                        sm.hop_cnt += 1;
                        if resume {
                            // Maintain the origin→parent chain: moving to
                            // our parent is a backtrack (pop); anything
                            // else deepens the path (push).
                            if sm.path.last() == Some(&to) {
                                sm.path.pop();
                            } else {
                                sm.path.push(from);
                            }
                        }
                        platform2.arrive(sm, to, from, resume);
                    }
                    Err(_e) => {
                        // Bounce: resume at the source so the program can
                        // pick an alternative.
                        sm.migration_failed = Some(to);
                        platform2.arrive_back(sm, from, resume);
                    }
                }
            });
        });
    }

    /// SM arrives at `to` (from `from`): admission control, code caching,
    /// scheduling.
    fn arrive(&self, mut sm: SmInstance, to: NodeId, from: NodeId, resume: bool) {
        if sm.cancelled.get() {
            return;
        }
        let params = self.params();
        let Some(state_rc) = self.state_of(to) else {
            self.fail(sm, SmError::Unreachable(to));
            return;
        };
        {
            let mut st = state_rc.borrow_mut();
            if st.resident >= params.max_resident_sms {
                drop(st);
                // Admission denied: bounce to where we came from, undoing
                // the path mutation of this migration.
                obskit::count("sm_admission_denied", 1);
                obskit::event(
                    obskit::Phase::Admission,
                    &format!("deny:{to}"),
                    sm.span,
                    self.sim().now(),
                );
                if resume {
                    if sm.path.last() == Some(&from) {
                        sm.path.pop();
                    } else {
                        sm.path.push(to);
                    }
                }
                sm.migration_failed = Some(to);
                self.arrive_back(sm, from, resume);
                return;
            }
            st.resident += 1;
            st.cache_code(sm.program.code_name(), params.code_cache_capacity);
        }
        obskit::count("sm_admitted", 1);
        let platform = self.clone();
        let dispatch = params.thread_switch;
        let now = self.sim().now();
        let ts_span = obskit::start(
            obskit::Phase::ThreadSwitch,
            &format!("dispatch:{to}"),
            sm.span,
            now,
        );
        obskit::end(ts_span, now + dispatch);
        self.sim().schedule_in(dispatch, move || {
            if resume {
                platform.exec(sm, to);
            } else if to == sm.origin {
                platform.complete(sm, to);
            } else {
                // Continue the homeward walk.
                let Some(&next) = sm.path.last() else {
                    platform.leave(to);
                    platform.fail(sm, SmError::Unreachable(to));
                    return;
                };
                let mut sm = sm;
                sm.path.pop();
                platform.return_hop(sm, to, next);
            }
        });
    }

    /// A failed migration returns control to the source node (no extra
    /// admission — the SM never left).
    fn arrive_back(&self, sm: SmInstance, at: NodeId, resume: bool) {
        if sm.cancelled.get() {
            return;
        }
        if let Some(st) = self.state_of(at) {
            st.borrow_mut().resident += 1;
        }
        obskit::count("sm_bounces", 1);
        let platform = self.clone();
        let dispatch = self.params().thread_switch;
        let now = self.sim().now();
        let ts_span = obskit::start(
            obskit::Phase::ThreadSwitch,
            &format!("bounce:{at}"),
            sm.span,
            now,
        );
        obskit::end(ts_span, now + dispatch);
        self.sim().schedule_in(dispatch, move || {
            if resume {
                platform.exec(sm, at);
            } else {
                // Homeward walk hit a dead hop: the SM is lost.
                let origin = sm.origin;
                platform.leave(at);
                platform.fail(sm, SmError::Unreachable(origin));
            }
        });
    }

    fn leave(&self, node: NodeId) {
        if let Some(st) = self.state_of(node) {
            let mut st = st.borrow_mut();
            st.resident = st.resident.saturating_sub(1);
        }
    }

    fn complete(&self, sm: SmInstance, node: NodeId) {
        self.leave(node);
        if sm.cancelled.get() {
            return;
        }
        sm.cancelled.set(true);
        obskit::end(sm.span, self.sim().now());
        obskit::count("sm_completed", 1);
        obskit::observe("sm_hop_count", sm.hop_cnt as u64);
        let payload = sm.program.finish();
        if let Some(cb) = sm.callback.borrow_mut().take() {
            cb(SmOutcome::Completed(payload));
        }
    }

    fn fail(&self, sm: SmInstance, err: SmError) {
        if sm.cancelled.get() {
            return;
        }
        sm.cancelled.set(true);
        obskit::end(sm.span, self.sim().now());
        obskit::count("sm_failed", 1);
        if let Some(cb) = sm.callback.borrow_mut().take() {
            cb(SmOutcome::Failed(err));
        }
    }
}

impl fmt::Debug for SmPlatform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmPlatform")
            .field("nodes", &self.inner.borrow().nodes.len())
            .finish()
    }
}

/// Handle to the SM runtime on one node.
#[derive(Clone)]
pub struct SmNode {
    platform: SmPlatform,
    node: NodeId,
}

impl SmNode {
    /// The node this runtime runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The owning platform.
    pub fn platform(&self) -> &SmPlatform {
        &self.platform
    }

    fn state(&self) -> Rc<RefCell<NodeState>> {
        self.platform
            .state_of(self.node)
            // `install` is the only way to obtain an SmNode handle, so the
            // platform map always holds this node.
            .expect("SM runtime not installed") // lint:allow(panic-reachable) install-time invariant
    }

    /// Publishes a tag in the local tag space. Completion (a hashtable
    /// put, ≈ 0.13 ms — Table 1's WiFi-based `publishCxtItem`) via `cb`.
    pub fn publish_tag(&self, tag: Tag, cb: impl FnOnce() + 'static) {
        let params = self.platform.params();
        let dur = {
            let state = self.state();
            let mut st = state.borrow_mut();
            st.rng.gauss_duration(params.publish_mean, params.publish_std)
        };
        obskit::count("sm_tag_publishes", 1);
        obskit::observe("sm_publish_us", dur.as_micros());
        obskit::event(
            obskit::Phase::Publish,
            &format!("tag:{}@{}", tag.name, self.node),
            None,
            self.platform.sim().now(),
        );
        let state = self.state();
        self.platform.sim().schedule_in(dur, move || {
            state.borrow_mut().tags.publish(tag);
            cb();
        });
    }

    /// Publishes a tag synchronously (for setup code and tests).
    pub fn publish_tag_now(&self, tag: Tag) {
        self.state().borrow_mut().tags.publish(tag);
    }

    /// Removes a tag from the local tag space.
    pub fn remove_tag(&self, name: &str) {
        self.state().borrow_mut().tags.remove(name);
    }

    /// Reads a local tag (respecting expiry and access).
    pub fn read_tag(&self, name: &str, key: Option<&str>) -> Option<Tag> {
        let now = self.platform.sim().now();
        self.state().borrow().tags.read(name, now, key).cloned()
    }

    /// Adjacent participating nodes right now.
    pub fn neighbors(&self) -> Vec<NodeId> {
        self.platform.participating_neighbors(self.node)
    }

    /// Injects an SM at this node. The outcome (completion, failure, or
    /// timeout) is delivered exactly once via `cb`.
    pub fn inject(
        &self,
        program: Box<dyn SmProgram>,
        timeout: SimDuration,
        cb: impl FnOnce(SmOutcome) + 'static,
    ) {
        let params = self.platform.params();
        let sim = self.platform.sim();
        let cancelled = Rc::new(Cell::new(false));
        let callback: Rc<RefCell<Option<Box<dyn FnOnce(SmOutcome)>>>> =
            Rc::new(RefCell::new(Some(Box::new(cb))));
        let id = {
            let mut inner = self.platform.inner.borrow_mut();
            inner.next_sm += 1;
            inner.next_sm
        };
        obskit::count("sm_injected", 1);
        let now = sim.now();
        let root = obskit::start(
            obskit::Phase::Migrate,
            &format!("sm:{id}@{}", self.node),
            None,
            now,
        );
        // Issuer-side one-time costs (paper: 60 ms serialization + 40 ms
        // dispatch before the first hop leaves the phone).
        let iser = obskit::start(obskit::Phase::Serialize, "issuer", root, now);
        obskit::end(iser, now + params.issuer_serialize);
        let ithr = obskit::start(
            obskit::Phase::ThreadSwitch,
            "issuer_dispatch",
            root,
            now + params.issuer_serialize,
        );
        obskit::end(ithr, now + params.issuer_serialize + params.issuer_thread);
        let sm = SmInstance {
            id,
            origin: self.node,
            program,
            hop_cnt: 0,
            migration_failed: None,
            cancelled: cancelled.clone(),
            callback: callback.clone(),
            path: Vec::new(),
            span: root,
        };
        let _ = sm.id;
        // Timeout watchdog.
        {
            let cancelled = cancelled.clone();
            let callback = callback.clone();
            let sim2 = sim.clone();
            sim.schedule_in(timeout, move || {
                if cancelled.get() {
                    return;
                }
                cancelled.set(true);
                obskit::end(root, sim2.now());
                obskit::count("sm_timeouts", 1);
                if let Some(cb) = callback.borrow_mut().take() {
                    cb(SmOutcome::TimedOut);
                }
            });
        }
        // Injection overhead, then first execution at the origin.
        let platform = self.platform.clone();
        let node = self.node;
        if let Some(st) = self.platform.state_of(node) {
            st.borrow_mut().resident += 1;
        }
        sim.schedule_in(params.issuer_serialize + params.issuer_thread, move || {
            platform.exec(sm, node);
        });
    }
}

impl fmt::Debug for SmNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SmNode").field("node", &self.node).finish()
    }
}
