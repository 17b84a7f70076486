//! Partitioned (sharded) discrete-event engine.
//!
//! [`Sim`](crate::Sim) runs one ordered queue on one thread — perfect for
//! the paper's regatta-sized testbeds, a ceiling for city-scale
//! populations. [`ShardSim`] is the scale engine: the actor population is
//! partitioned into physical shards, each with its own event queue, and
//! shards step a simulated time instant independently — *in parallel*
//! when the round is big enough — exchanging cross-shard messages only
//! at time-step barriers through a deterministic merge.
//!
//! # Ordering model
//!
//! Every event carries a Lamport-style total-order key
//! [`EventKey`]`{ time, actor, seq }`:
//!
//! * `time` — the virtual instant the event fires;
//! * `actor` — the *logical* shard component: the stable [`ActorId`] of
//!   the actor the event executes on. Actors are the finest-grained
//!   shards; physical shards are groups of actors and **never appear in
//!   the key**;
//! * `seq` — a per-actor sequence number.
//!
//! The key mentions only partition-independent data, and every output
//! is put in key order: the barrier sorts sends by `(sender key, send
//! index)` and emits by key, so every `seq` draw, the transcript, the
//! per-actor RNG streams and every metric derived from a run are
//! byte-identical for any physical shard count and any worker-thread
//! count. `tests/shard_determinism.rs` enforces exactly that matrix.
//!
//! A shard's queue is not popped in key order, though: it pops by time
//! and, within one instant, in the order the events were queued. That
//! lets the barrier land a burst of deliveries behind one heap slot (see
//! *Data layout*), and no output can see it:
//!
//! 1. one actor's events still run in key order. Its seqs are drawn in
//!    queueing order: [`ShardSim::schedule`] queues each at once, a
//!    handler's self-schedules are queued right after it returns, in
//!    draw order, and the merge draws and queues deliveries in its one
//!    sorted order. So of an actor's events due at one instant, the one
//!    with the lower seq was queued first;
//! 2. events of different actors at one instant commute: a handler
//!    touches only its own actor's state, its RNG and its [`EventCtx`],
//!    whose sends and emits the barrier sorts by key.
//!
//! # Why the cross-shard merge is deterministic
//!
//! Within a time step `T` a shard executes its local events due at `T`,
//! each actor's in key order. An event may freely mutate *its own actor*
//! (state, RNG, same-actor schedules); effects on **other** actors must
//! go through [`EventCtx::send`], which only buffers the message. At the
//! barrier the engine gathers every buffered message, sorts them by
//! `(sender key, send index)` — again partition-independent — and
//! delivers them in that order, drawing each delivery's `seq` from the
//! destination actor's counter. Two invariants follow:
//!
//! 1. an actor's state is touched only by its own events, which execute
//!    in a globally fixed order, and
//! 2. message admission order (hence every `seq` assignment) is a pure
//!    function of the same fixed order.
//!
//! So the merge commutes with the 1-shard sequential engine on any plan
//! (`tests/proptests.rs` asserts this property on random schedules).
//!
//! Cross-actor delivery is quantised to at least one microsecond of
//! virtual latency so a time step can close before its messages land —
//! the batching boundary of the merge.
//!
//! # Parallelism
//!
//! A round's shards are stepped either on the calling thread, in shard
//! index order, or on scoped OS threads over contiguous shard chunks
//! (`std::thread::scope`: the hermetic build vendors no rayon). Handing
//! a round to fresh workers costs tens of microseconds, far more than a
//! round of a few events, so a round goes to the workers only when the
//! previous round processed at least `PARALLEL_CROSSOVER_EVENTS` events
//! — a count the barrier takes anyway. Neither the worker count nor
//! which rounds go parallel influences outputs, only wall-clock speed.
//!
//! # Data layout
//!
//! A shard keeps its actors in two parallel vectors sorted by id. A
//! lookup first tries the dense index `id / shards`, where ids
//! registered as `0..n` sit, and checks the id found there; a miss falls
//! back to binary search, so ids may still come in any order.
//!
//! A shard's queue heap sifts 24-byte slots ordered by `(time, stamp)`,
//! where the stamp counts the shard's heap pushes. The events wait with
//! their keys in a slab whose slots are reused as events pop. The
//! barrier stages each delivery on its destination shard in merge order,
//! and each stretch of deliveries due at one instant lands as one *run*:
//! a list of slab slots behind a single heap slot, popped without
//! touching the heap until it empties, then recycled. `schedule` and
//! self-schedules get plain slots.
//!
//! A shard keeps its round buffers (sends, emits, the executing event's
//! self-schedules) across rounds. The barrier appends every shard's
//! output into two buffers of its own, sorts them and drains them, so
//! once capacities settle a round allocates nothing.

use crate::hash::{fnv1a, FNV_OFFSET};
use crate::hist::Histogram;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::fmt;

/// Events the previous round must have processed for a round to be
/// stepped on worker threads; smaller rounds run on the calling thread.
///
/// A round handed to scoped workers costs ≈ 150 µs more than one
/// stepped on the calling thread on a 2-vCPU host (the 10k-device
/// fleet's 2-thread run over its 288 parallel rounds), against ~0.5 µs
/// for a round stepped sequentially (perfbench
/// `simkit.shard.barrier_us`). Two workers at best halve a round's
/// event work, so a round of `n` events at `c` per event repays a
/// hand-off of `h` once `n · c / 2 > h`, i.e. `n > 2 · h / c`: ≈ 490
/// events at the broker fleet's ~0.61 µs per event
/// (`simkit.shard.event_ns`, handler included, median of four traced
/// runs at seed 1301) and ≈ 3,200 at the bare engine's ~94 ns
/// (`simkit.shard.engine_event_ns`). 512 sits between the two: the
/// fleet's ~5-event rounds stay on the calling thread, scale_city's
/// 8k–32k-event rounds go parallel.
const PARALLEL_CROSSOVER_EVENTS: u64 = 512;

/// Stable logical identity of an actor (device, broker, station…).
///
/// The actor id is the logical-shard component of [`EventKey`], so it
/// must be assigned by the scenario (not by partition layout) and never
/// reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u64);

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor{}", self.0)
    }
}

/// Lamport-style total-order key `(time, actor, seq)`.
///
/// Lexicographic `Ord`: virtual time first, then the logical shard
/// (actor) component, then the per-actor sequence number. Keys of
/// executed events are unique, so this is a total order over a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Virtual instant the event fires.
    pub time: SimTime,
    /// Logical shard component: the actor the event executes on.
    pub actor: ActorId,
    /// Per-actor sequence number (unique within an actor).
    pub seq: u64,
}

impl fmt::Display for EventKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.time, self.actor, self.seq)
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Master seed; per-actor RNG streams derive from it.
    pub seed: u64,
    /// Physical shard (queue) count; at least 1.
    pub shards: u32,
    /// Worker threads stepping shards in a round large enough to repay
    /// the hand-off (smaller rounds run on the calling thread); at
    /// least 1, at most `shards` are used. Never affects outputs.
    pub threads: u32,
    /// Keep the full merged transcript of [`EventCtx::emit`] records.
    /// Off, only the running digest and counts are kept (the 100k-device
    /// scenarios would otherwise hold millions of strings).
    pub record_transcript: bool,
}

impl ShardConfig {
    /// The largest worker count worth configuring on this host.
    pub fn max_threads() -> u32 {
        std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
    }
}

/// Per-shard engine counters accumulated during a run.
///
/// Profile data is **partition-dependent by nature** (it describes the
/// physical shard layout), so it is kept out of every equality-compared
/// outcome; the `*_profiled` run APIs return it alongside — never
/// inside — the deterministic result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Barrier rounds executed.
    pub rounds: u64,
    /// Rounds whose shards were stepped on worker threads; the others
    /// ran on the calling thread. Depends on the thread count.
    pub parallel_rounds: u64,
    /// Events executed per physical shard (cumulative).
    pub events_per_shard: Vec<u64>,
    /// Peak event-queue depth observed per physical shard.
    pub queue_peak_per_shard: Vec<u64>,
    /// Events one shard executed in one round (batch size between
    /// merge barriers).
    pub batch_events: Histogram,
    /// Per-round shard imbalance `max(batch) − min(batch)`: how long
    /// the fastest shard idles at the merge barrier, in event units —
    /// the engine's wall-clock-free merge-stall measure.
    pub barrier_imbalance: Histogram,
}

impl EngineProfile {
    /// Total events across shards.
    pub fn total_events(&self) -> u64 {
        self.events_per_shard.iter().sum()
    }

    /// Largest queue peak across shards.
    pub fn max_queue_peak(&self) -> u64 {
        self.queue_peak_per_shard.iter().copied().max().unwrap_or(0)
    }

    /// A compact multi-line rendering for run artifacts. Means carry two
    /// decimals, so a mean batch under one event still reads.
    pub fn table(&self) -> String {
        let mut out = format!(
            "rounds={} parallel_rounds={} batch_mean={} batch_max={} stall_mean={} stall_max={}\n",
            self.rounds,
            self.parallel_rounds,
            mean_2dp(&self.batch_events),
            self.batch_events.max(),
            mean_2dp(&self.barrier_imbalance),
            self.barrier_imbalance.max(),
        );
        for (i, (events, peak)) in self
            .events_per_shard
            .iter()
            .zip(&self.queue_peak_per_shard)
            .enumerate()
        {
            out.push_str(&format!("shard{i} events={events} queue_peak={peak}\n"));
        }
        out
    }
}

/// `sum / count` rounded to two decimals in integer math (`0.00` when
/// empty): no float formatting in an artefact that must print the same
/// on every host.
fn mean_2dp(h: &Histogram) -> String {
    let count = u128::from(h.count());
    let hundredths = (u128::from(h.sum()) * 100 + count / 2)
        .checked_div(count)
        .unwrap_or(0);
    format!("{}.{:02}", hundredths / 100, hundredths % 100)
}

/// Tags a heap slot's `at` as an index into the run list rather than
/// the slab.
const RUN: usize = 1 << (usize::BITS - 1);

/// A heap slot, 24 bytes: an instant, a queueing stamp, and where the
/// slot's events wait: one slab slot, or a run (`at` tagged with
/// [`RUN`]). Stamps are unique within a queue, so `(time, stamp)` is a
/// total order over slots.
struct Slot {
    time: SimTime,
    stamp: u64,
    at: usize,
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.stamp) == (other.time, other.stamp)
    }
}
impl Eq for Slot {}
impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Slot {
    // BinaryHeap is a max-heap; invert so the earliest slot pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.stamp).cmp(&(self.time, self.stamp))
    }
}

/// A shard's event queue. Events pop by time and, within one instant,
/// in the order they were queued. Each event waits with its key in a
/// slab slot that is reused once it pops; the min-heap holds one slot
/// per pushed event, or one per *run*: a stretch of merged deliveries
/// due at one instant, landed behind a single heap slot, whose pops
/// touch no heap level until it empties.
struct Queue<E> {
    heap: BinaryHeap<Slot>,
    events: Vec<Option<(EventKey, E)>>,
    /// Slab slots whose events have popped.
    free: Vec<usize>,
    /// Each run's slab slots in queueing order, the next one last.
    runs: Vec<Vec<usize>>,
    /// Runs that have emptied.
    free_runs: Vec<usize>,
    /// The slab slots of the stretch [`Queue::stage`] is filling, in
    /// queueing order, all due at `staged_at`.
    staged: Vec<usize>,
    staged_at: SimTime,
    /// Stamps handed out; the next slot gets this one.
    stamp: u64,
    /// Queued events, staged ones included (not heap slots).
    len: usize,
}

impl<E> Queue<E> {
    fn new() -> Self {
        Queue {
            heap: BinaryHeap::new(),
            events: Vec::new(),
            free: Vec::new(),
            runs: Vec::new(),
            free_runs: Vec::new(),
            staged: Vec::new(),
            staged_at: SimTime::ZERO,
            stamp: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Stores `(key, ev)` in a free slab slot, or in a new one.
    fn store(&mut self, key: EventKey, ev: E) -> usize {
        self.len += 1;
        let at = self.free.pop().unwrap_or(self.events.len());
        match self.events.get_mut(at) {
            Some(slot) => *slot = Some((key, ev)),
            None => self.events.push(Some((key, ev))),
        }
        at
    }

    fn push_slot(&mut self, time: SimTime, at: usize) {
        self.heap.push(Slot {
            time,
            stamp: self.stamp,
            at,
        });
        self.stamp += 1;
    }

    /// Queues `ev` under `key` behind a heap slot of its own. A stretch
    /// still staged would pop after it though queued before it, so the
    /// barrier lands every shard before anything pushes again.
    fn push(&mut self, key: EventKey, ev: E) {
        debug_assert!(self.staged.is_empty(), "push while a stretch is staged");
        let at = self.store(key, ev);
        self.push_slot(key.time, at);
    }

    /// Queues `ev` under `key` as the last event of the staged stretch
    /// when it is due at the stretch's instant, or else lands that
    /// stretch and opens a new one. Nothing pops a staged event before
    /// [`Queue::land`].
    fn stage(&mut self, key: EventKey, ev: E) {
        if key.time != self.staged_at {
            self.land();
            self.staged_at = key.time;
        }
        let at = self.store(key, ev);
        self.staged.push(at);
    }

    /// Lands the staged stretch: one event becomes a plain slot, more
    /// become a run behind one slot. The run takes the staging buffer,
    /// and an emptied run's buffer takes its place.
    fn land(&mut self) {
        if self.staged.len() > 1 {
            self.staged.reverse();
            let r = self.free_runs.pop().unwrap_or(self.runs.len());
            if r == self.runs.len() {
                self.runs.push(Vec::new());
            }
            if let Some(run) = self.runs.get_mut(r) {
                std::mem::swap(run, &mut self.staged);
            }
            self.push_slot(self.staged_at, r | RUN);
        } else if let Some(at) = self.staged.pop() {
            self.push_slot(self.staged_at, at);
        }
    }

    /// Removes the next event due at `t` and frees its slot, and its
    /// run if that empties. `None` when the earliest slot is later
    /// than `t` or the queue is empty (or if the slab lost the event,
    /// which nothing does).
    fn pop_at(&mut self, t: SimTime) -> Option<(EventKey, E)> {
        let top = self.heap.peek_mut().filter(|s| s.time == t)?;
        let at = if top.at & RUN == 0 {
            PeekMut::pop(top).at
        } else {
            let r = top.at & !RUN;
            let run = self.runs.get_mut(r)?;
            let at = run.pop()?;
            if run.is_empty() {
                PeekMut::pop(top);
                self.free_runs.push(r);
            }
            at
        };
        self.len -= 1;
        self.free.push(at);
        self.events.get_mut(at)?.take()
    }
}

struct ActorSlot<A> {
    state: A,
    rng: DetRng,
    next_seq: u64,
}

/// One physical shard: its event queue, its actors, and the buffers a
/// round fills (kept across rounds).
struct ShardState<A, E> {
    queue: Queue<E>,
    /// Registered actor ids, ascending; `slots[i]` belongs to `ids[i]`.
    ids: Vec<u64>,
    slots: Vec<ActorSlot<A>>,
    /// Cross-actor messages sent this round (emptied by the barrier).
    sends: Vec<Outgoing<E>>,
    /// Transcript records emitted this round (emptied by the barrier).
    emits: Vec<(EventKey, String)>,
    /// Events executed this round.
    processed: u64,
    /// Self-schedules of the executing event, pushed onto `queue` after
    /// its handler returns.
    local: Vec<(EventKey, E)>,
}

impl<A, E> ShardState<A, E> {
    fn new() -> Self {
        ShardState {
            queue: Queue::new(),
            ids: Vec::new(),
            slots: Vec::new(),
            sends: Vec::new(),
            emits: Vec::new(),
            processed: 0,
            local: Vec::new(),
        }
    }

    fn head_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    fn slot(&self, shards: u64, actor: ActorId) -> Option<&ActorSlot<A>> {
        let i = position(&self.ids, shards, actor)?;
        self.slots.get(i)
    }

    fn slot_mut(&mut self, shards: u64, actor: ActorId) -> Option<&mut ActorSlot<A>> {
        let i = position(&self.ids, shards, actor)?;
        self.slots.get_mut(i)
    }
}

/// Where `actor` sits in a shard's ascending `ids`, among `shards`
/// shards. Ids registered as `0..n` put shard `s`'s k-th id at
/// `s + k·shards`, so the dense guess `id / shards` is checked first;
/// a hole or a sparse id falls back to binary search.
fn position(ids: &[u64], shards: u64, actor: ActorId) -> Option<usize> {
    let guess = (actor.0 / shards) as usize;
    if ids.get(guess) == Some(&actor.0) {
        return Some(guess);
    }
    ids.binary_search(&actor.0).ok()
}

/// One buffered cross-actor message: ordered by `(sender key, index)`,
/// both partition-independent.
struct Outgoing<E> {
    from_key: EventKey,
    index: u32,
    dest: ActorId,
    at: SimTime,
    ev: E,
}

/// The per-event context handed to the handler: the only way an event
/// interacts with the engine.
pub struct EventCtx<'a, E> {
    now: SimTime,
    key: EventKey,
    rng: &'a mut DetRng,
    next_seq: &'a mut u64,
    sends: &'a mut Vec<Outgoing<E>>,
    emits: &'a mut Vec<(EventKey, String)>,
    local: &'a mut Vec<(EventKey, E)>,
    send_index: u32,
}

impl<'a, E> EventCtx<'a, E> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The actor this event executes on.
    pub fn actor(&self) -> ActorId {
        self.key.actor
    }

    /// The executing event's total-order key.
    pub fn key(&self) -> EventKey {
        self.key
    }

    /// The actor's deterministic random stream (derived from the master
    /// seed and the actor id, never from partition layout).
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Schedules an event on *this* actor, `delay` from now (0 allowed:
    /// it runs later in the same time step, after all currently queued
    /// same-time events of this actor).
    pub fn schedule_self(&mut self, delay: SimDuration, ev: E) {
        let key = EventKey {
            time: self.now + delay,
            actor: self.key.actor,
            seq: *self.next_seq,
        };
        *self.next_seq += 1;
        self.local.push((key, ev));
    }

    /// Sends an event to another actor (or this one), batched at the
    /// time-step barrier. Delivery latency is quantised to at least one
    /// microsecond so the current step can close first.
    pub fn send(&mut self, dest: ActorId, delay: SimDuration, ev: E) {
        let at = (self.now + delay).max(self.now + SimDuration::from_micros(1));
        self.sends.push(Outgoing {
            from_key: self.key,
            index: self.send_index,
            dest,
            at,
            ev,
        });
        self.send_index += 1;
    }

    /// Appends a record to the run transcript (merged across shards in
    /// key order; always folded into the digest).
    pub fn emit(&mut self, record: impl Into<String>) {
        self.emits.push((self.key, record.into()));
    }
}

/// The partitioned deterministic discrete-event engine.
///
/// ```
/// use simkit::shard::{ActorId, ShardConfig, ShardSim};
/// use simkit::SimDuration;
///
/// let cfg = ShardConfig {
///     seed: 42,
///     shards: 4,
///     threads: 1,
///     record_transcript: true,
/// };
/// let mut sim = ShardSim::new(cfg, |count: &mut u64, ctx, hop: u32| {
///     *count += 1;
///     ctx.emit(format!("hop {hop} at {}", ctx.now()));
///     if hop > 0 {
///         let next = ActorId((ctx.actor().0 + 1) % 8);
///         ctx.send(next, SimDuration::from_millis(5), hop - 1);
///     }
/// });
/// for a in 0..8 {
///     sim.add_actor(ActorId(a), 0u64);
/// }
/// sim.schedule(ActorId(0), simkit::SimTime::ZERO, 6).unwrap();
/// sim.run_until_idle();
/// assert_eq!(sim.events_processed(), 7);
/// ```
pub struct ShardSim<A, E, H> {
    cfg: ShardConfig,
    handler: H,
    shards: Vec<ShardState<A, E>>,
    now: SimTime,
    processed: u64,
    messages: u64,
    dead_letters: u64,
    rounds: u64,
    /// Events the previous round processed: picks the next round's
    /// thread count.
    last_round_events: u64,
    transcript: Vec<String>,
    emitted: u64,
    digest: u64,
    profile: EngineProfile,
    /// The barrier's merge buffers: every shard's round output is
    /// appended here, sorted and drained, so they too are reused.
    sends: Vec<Outgoing<E>>,
    emits: Vec<(EventKey, String)>,
}

impl<A, E, H> ShardSim<A, E, H>
where
    A: Send,
    E: Send,
    H: Fn(&mut A, &mut EventCtx<'_, E>, E) + Sync,
{
    /// Creates an engine. `shards` and `threads` are clamped to at
    /// least 1.
    pub fn new(cfg: ShardConfig, handler: H) -> Self {
        let shards = cfg.shards.max(1);
        ShardSim {
            cfg: ShardConfig {
                shards,
                threads: cfg.threads.max(1),
                ..cfg
            },
            handler,
            shards: (0..shards).map(|_| ShardState::new()).collect(),
            now: SimTime::ZERO,
            processed: 0,
            messages: 0,
            dead_letters: 0,
            rounds: 0,
            last_round_events: 0,
            transcript: Vec::new(),
            emitted: 0,
            digest: FNV_OFFSET,
            profile: EngineProfile {
                events_per_shard: vec![0; shards as usize],
                queue_peak_per_shard: vec![0; shards as usize],
                ..EngineProfile::default()
            },
            sends: Vec::new(),
            emits: Vec::new(),
        }
    }

    /// Registers an actor. Its RNG stream derives from `(seed, actor)`
    /// only. Returns `false` (and changes nothing) if the id is taken.
    /// Ids may come in any order; ascending registration appends.
    pub fn add_actor(&mut self, actor: ActorId, state: A) -> bool {
        let shard = shard_index(actor, self.cfg.shards);
        let rng = DetRng::for_actor(self.cfg.seed, actor);
        let Some(home) = self.shards.get_mut(shard) else {
            return false;
        };
        let Err(at) = home.ids.binary_search(&actor.0) else {
            return false;
        };
        home.ids.insert(at, actor.0);
        home.slots.insert(
            at,
            ActorSlot {
                state,
                rng,
                next_seq: 0,
            },
        );
        true
    }

    /// Number of registered actors.
    pub fn actors(&self) -> u64 {
        self.shards.iter().map(|s| s.ids.len() as u64).sum()
    }

    /// Schedules an initial event on an actor at an absolute time (events
    /// in the past run at the current time). Keys derive from per-actor
    /// counters, so plan construction order never affects the run.
    ///
    /// Returns `Err` if the actor is unknown.
    pub fn schedule(&mut self, actor: ActorId, at: SimTime, ev: E) -> Result<(), ActorId> {
        let at = at.max(self.now);
        let shard = shard_index(actor, self.cfg.shards);
        let Some(home) = self.shards.get_mut(shard) else {
            return Err(actor);
        };
        let Some(slot) = home.slot_mut(u64::from(self.cfg.shards), actor) else {
            return Err(actor);
        };
        let key = EventKey {
            time: at,
            actor,
            seq: slot.next_seq,
        };
        slot.next_seq += 1;
        home.queue.push(key, ev);
        Ok(())
    }

    /// Read access to an actor's state (e.g. for post-run assertions).
    pub fn actor_state(&self, actor: ActorId) -> Option<&A> {
        let shard = shard_index(actor, self.cfg.shards);
        let slot = self
            .shards
            .get(shard)?
            .slot(u64::from(self.cfg.shards), actor)?;
        Some(&slot.state)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events executed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Cross-actor messages delivered so far.
    pub fn messages_delivered(&self) -> u64 {
        self.messages
    }

    /// Messages addressed to unknown actors (dropped, but counted so the
    /// loss is observable).
    pub fn dead_letters(&self) -> u64 {
        self.dead_letters
    }

    /// Time-step rounds executed (barrier count).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The engine's self-profile: per-shard event/queue counters and
    /// merge-barrier imbalance histograms. Describes the *physical*
    /// layout, so it varies with the shard count — never fold it into
    /// an equality-compared outcome.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Records emitted via [`EventCtx::emit`].
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// FNV-1a digest over every emitted record and its key, in total
    /// order — the cheap byte-identity witness for huge runs.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The merged transcript (empty unless
    /// [`ShardConfig::record_transcript`]).
    pub fn transcript(&self) -> &[String] {
        &self.transcript
    }

    /// Worker threads a round large enough to go parallel will use.
    pub fn effective_threads(&self) -> u32 {
        self.cfg.threads.min(self.cfg.shards).max(1)
    }

    fn next_time(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(ShardState::head_time).min()
    }

    /// Runs events with due time `<= deadline`, then advances the clock
    /// to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.next_time() {
            if t > deadline {
                break;
            }
            self.now = t;
            self.round(t);
        }
        self.now = self.now.max(deadline);
    }

    /// Runs for `dur` of virtual time from the current instant.
    pub fn run_for(&mut self, dur: SimDuration) {
        let deadline = self.now + dur;
        self.run_until(deadline);
    }

    /// Runs until every queue is empty.
    ///
    /// # Panics
    ///
    /// Panics after 100 million rounds as a runaway guard.
    pub fn run_until_idle(&mut self) {
        let mut guard: u64 = 100_000_000;
        while let Some(t) = self.next_time() {
            self.now = t;
            self.round(t);
            guard -= 1;
            assert!(
                guard > 0,
                "run_until_idle exceeded 100M rounds; runaway schedule?"
            );
        }
    }

    /// One time step: every shard drains its events at `t` (in queueing
    /// order, so each actor's in key order; across shards in parallel
    /// when the previous round was big enough to repay the hand-off),
    /// then the barrier merges cross-shard traffic and transcript
    /// records deterministically.
    fn round(&mut self, t: SimTime) {
        self.rounds += 1;
        let threads = if self.last_round_events >= PARALLEL_CROSSOVER_EVENTS {
            self.effective_threads() as usize
        } else {
            1
        };
        let handler = &self.handler;
        let shards = u64::from(self.cfg.shards);
        run_shards(&mut self.shards, threads, |shard| {
            drain_step(shard, shards, t, handler)
        });

        // ---- barrier: the deterministic cross-shard merge ----
        // Everything below is ordered by partition-independent keys, so
        // the merged result is identical for any shard/thread layout.
        self.profile.rounds += 1;
        if threads > 1 {
            self.profile.parallel_rounds += 1;
        }
        let mut batch_max = 0u64;
        let mut batch_min = u64::MAX;
        let processed_before = self.processed;
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if let Some(n) = self.profile.events_per_shard.get_mut(i) {
                *n += shard.processed;
            }
            self.profile.batch_events.record(shard.processed);
            batch_max = batch_max.max(shard.processed);
            batch_min = batch_min.min(shard.processed);
            self.processed += shard.processed;
            self.sends.append(&mut shard.sends);
            self.emits.append(&mut shard.emits);
        }
        if !self.shards.is_empty() {
            self.profile.barrier_imbalance.record(batch_max - batch_min);
        }
        self.last_round_events = self.processed - processed_before;
        // `(sender key, send index)` is unique per message, so an
        // unstable sort yields the one order a stable sort would. Emits
        // keep the stable sort: one event may emit several records under
        // its single key, and they must stay in emission order.
        self.sends.sort_unstable_by_key(|m| (m.from_key, m.index));
        self.emits.sort_by_key(|e| e.0);

        for m in self.sends.drain(..) {
            let Some(home) = self.shards.get_mut(shard_index(m.dest, self.cfg.shards)) else {
                self.dead_letters += 1;
                continue;
            };
            let Some(slot) = home.slot_mut(shards, m.dest) else {
                self.dead_letters += 1;
                continue;
            };
            let key = EventKey {
                time: m.at,
                actor: m.dest,
                seq: slot.next_seq,
            };
            slot.next_seq += 1;
            self.messages += 1;
            home.queue.stage(key, m.ev);
        }

        // Land each shard's staged deliveries, then take its queue peak.
        for (peak, shard) in self
            .profile
            .queue_peak_per_shard
            .iter_mut()
            .zip(&mut self.shards)
        {
            shard.queue.land();
            let depth = shard.queue.len() as u64;
            if depth > *peak {
                *peak = depth;
            }
        }

        for (key, record) in self.emits.drain(..) {
            self.digest = fnv1a(self.digest, &key.time.as_micros().to_le_bytes());
            self.digest = fnv1a(self.digest, &key.actor.0.to_le_bytes());
            self.digest = fnv1a(self.digest, &key.seq.to_le_bytes());
            self.digest = fnv1a(self.digest, record.as_bytes());
            self.emitted += 1;
            if self.cfg.record_transcript {
                self.transcript.push(format!("{key} {record}"));
            }
        }
    }
}

/// Drains one shard's events due exactly at `t`, in queueing order, into
/// the shard's round buffers. `shards` is the engine's shard count.
fn drain_step<A, E, H>(shard: &mut ShardState<A, E>, shards: u64, t: SimTime, handler: &H)
where
    H: Fn(&mut A, &mut EventCtx<'_, E>, E),
{
    let ShardState {
        queue,
        ids,
        slots,
        sends,
        emits,
        processed,
        local,
    } = shard;
    *processed = 0;
    while let Some((key, ev)) = queue.pop_at(t) {
        let Some(slot) = position(ids, shards, key.actor).and_then(|i| slots.get_mut(i)) else {
            // Unreachable: events are only ever scheduled on registered
            // actors, and actors are never removed. Nothing counts it.
            continue;
        };
        let mut ctx = EventCtx {
            now: t,
            key,
            rng: &mut slot.rng,
            next_seq: &mut slot.next_seq,
            sends,
            emits,
            local,
            send_index: 0,
        };
        handler(&mut slot.state, &mut ctx, ev);
        for (key, ev) in local.drain(..) {
            debug_assert!(key.time >= t, "self-schedule went backwards");
            queue.push(key, ev);
        }
        *processed += 1;
    }
}

/// The physical shard index of `actor` among `shards` (round-robin by id).
fn shard_index(actor: ActorId, shards: u32) -> usize {
    (actor.0 % u64::from(shards)) as usize
}

/// Steps every shard through `f`, sequentially or on `threads` scoped
/// workers over contiguous chunks. Each shard keeps its own round
/// output, so the layout cannot reorder it.
fn run_shards<A, E, F>(shards: &mut [ShardState<A, E>], threads: usize, f: F)
where
    A: Send,
    E: Send,
    F: Fn(&mut ShardState<A, E>) + Sync,
{
    if threads <= 1 || shards.len() <= 1 {
        shards.iter_mut().for_each(f);
        return;
    }
    let chunk = shards.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .chunks_mut(chunk)
            .map(|chunk| scope.spawn(move || chunk.iter_mut().for_each(f)))
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-shard, 1-thread, transcript-recording config.
    fn sequential(seed: u64) -> ShardConfig {
        ShardConfig {
            seed,
            shards: 1,
            threads: 1,
            record_transcript: true,
        }
    }

    /// A toy world: each actor counts events and forwards a decrementing
    /// hop counter to the next actor.
    fn ring_handler(n: u64) -> impl Fn(&mut u64, &mut EventCtx<'_, u32>, u32) + Sync {
        move |count, ctx, hop| {
            *count += 1;
            let draw = ctx.rng().next_u64() & 0xff;
            ctx.emit(format!("hop={hop} draw={draw}"));
            if hop > 0 {
                let next = ActorId((ctx.actor().0 + 1) % n);
                ctx.send(next, SimDuration::from_millis(3), hop - 1);
            }
        }
    }

    fn ring_run(seed: u64, actors: u64, shards: u32, threads: u32) -> (u64, Vec<String>, u64) {
        let cfg = ShardConfig {
            seed,
            shards,
            threads,
            record_transcript: true,
        };
        let mut sim = ShardSim::new(cfg, ring_handler(actors));
        for a in 0..actors {
            sim.add_actor(ActorId(a), 0u64);
        }
        for a in 0..actors {
            sim.schedule(ActorId(a), SimTime::from_millis(a % 7), 5)
                .unwrap();
        }
        sim.run_until_idle();
        (
            sim.digest(),
            sim.transcript().to_vec(),
            sim.events_processed(),
        )
    }

    #[test]
    fn event_key_orders_lexicographically() {
        let k = |t: u64, a: u64, s: u64| EventKey {
            time: SimTime::from_micros(t),
            actor: ActorId(a),
            seq: s,
        };
        assert!(k(1, 9, 9) < k(2, 0, 0));
        assert!(k(1, 1, 9) < k(1, 2, 0));
        assert!(k(1, 1, 1) < k(1, 1, 2));
        assert_eq!(k(3, 3, 3), k(3, 3, 3));
    }

    #[test]
    fn queue_pops_each_instant_in_queueing_order() {
        use std::collections::BTreeMap;
        // Each payload is its own key, so a payload fetched from another
        // slot shows up as a mismatched pair. The reference orders every
        // queued key by `(time, queueing order)` and notes the staged
        // stretch it came in (0 for a push); a landed stretch of two or
        // more is a live run until its last event pops.
        let mut queue: Queue<EventKey> = Queue::new();
        let mut reference: BTreeMap<(SimTime, u64), (EventKey, u64)> = BTreeMap::new();
        let mut live_runs: BTreeMap<u64, usize> = BTreeMap::new();
        let mut rng = DetRng::new(0x51ab);
        let mut next_seq = [0u64; 4];
        let mut queued = 0u64;
        let mut stretches = 0u64;
        let mut now = SimTime::ZERO;
        let mut last_popped: Option<EventKey> = None;
        let mut last_of_actor = [None::<EventKey>; 4];
        let (mut peak, mut peak_runs, mut popped, mut run_pops) = (0, 0, 0, 0);
        let mut key_on = |actor: usize, time: SimTime| {
            let seq = next_seq[actor];
            next_seq[actor] += 1;
            EventKey {
                time,
                actor: ActorId(actor as u64),
                seq,
            }
        };
        for step in 0..20_000 {
            // Phases of 2,000 steps alternately grow and shrink the queue,
            // so the slab and the run list must reuse what has popped.
            let draws = if (step / 2_000) % 2 == 0 { 10 } else { 30 };
            match rng.range_u64(0, draws) {
                // A push at the last popped instant or just after it.
                0..=2 => {
                    let dt = SimDuration::from_micros(rng.range_u64(0, 3) / 2);
                    let key = key_on(rng.index(4), now + dt);
                    queue.push(key, key);
                    reference.insert((key.time, queued), (key, 0));
                    queued += 1;
                }
                // A zero-delay self-schedule of the last popped event.
                3 => {
                    if let Some(k) = last_popped {
                        let key = key_on(k.actor.0 as usize, k.time);
                        queue.push(key, key);
                        reference.insert((key.time, queued), (key, 0));
                        queued += 1;
                    }
                }
                // A merge: stages on random actors, mostly at the previous
                // stage's instant, one to three microseconds ahead.
                4 => {
                    let mut open: Option<(SimTime, usize)> = None;
                    for _ in 0..rng.range_u64(1, 13) {
                        let time = match open {
                            Some((t, _)) if rng.index(4) > 0 => t,
                            _ => now + SimDuration::from_micros(rng.range_u64(1, 4)),
                        };
                        match open {
                            Some((t, n)) if t == time => open = Some((t, n + 1)),
                            _ => {
                                if let Some((_, n)) = open.filter(|o| o.1 > 1) {
                                    live_runs.insert(stretches, n);
                                }
                                stretches += 1;
                                open = Some((time, 1));
                            }
                        }
                        let key = key_on(rng.index(4), time);
                        queue.stage(key, key);
                        reference.insert((time, queued), (key, stretches));
                        queued += 1;
                    }
                    if let Some((_, n)) = open.filter(|o| o.1 > 1) {
                        live_runs.insert(stretches, n);
                    }
                    queue.land();
                }
                _ => {
                    let head = queue.peek_time();
                    if let Some(t) = head {
                        let later = t + SimDuration::from_micros(1);
                        assert_eq!(queue.pop_at(later), None, "popped past the head");
                    }
                    let want = reference.pop_first().map(|(_, entry)| entry);
                    let got = head.and_then(|t| queue.pop_at(t));
                    assert_eq!(
                        got,
                        want.map(|(k, _)| (k, k)),
                        "pop {popped} at step {step}"
                    );
                    if let Some((key, stretch)) = want {
                        let last = &mut last_of_actor[key.actor.0 as usize];
                        assert!(last.is_none_or(|l| l < key), "{key} popped after {last:?}");
                        *last = Some(key);
                        if let Some(n) = live_runs.get_mut(&stretch) {
                            run_pops += 1;
                            *n -= 1;
                            if *n == 0 {
                                live_runs.remove(&stretch);
                            }
                        }
                        now = key.time;
                        last_popped = Some(key);
                        popped += 1;
                    }
                }
            }
            assert_eq!(queue.len(), reference.len(), "len counts events");
            assert_eq!(
                queue.peek_time(),
                reference.first_key_value().map(|((t, _), _)| *t)
            );
            peak = peak.max(queue.len());
            peak_runs = peak_runs.max(live_runs.len());
            assert!(
                queue.events.len() <= peak,
                "slab grew to {} slots, peak queue {peak}",
                queue.events.len()
            );
            assert!(
                queue.runs.len() <= peak_runs,
                "run list grew to {} runs, peak live {peak_runs}",
                queue.runs.len()
            );
        }
        while let Some((_, (k, _))) = reference.pop_first() {
            assert_eq!(queue.pop_at(k.time), Some((k, k)));
        }
        assert_eq!((queue.peek_time(), queue.len()), (None, 0));
        assert!(
            popped > 5_000 && peak > 1_000 && run_pops > 2_000 && peak_runs > 10,
            "popped {popped}, peak {peak}, run pops {run_pops}, peak runs {peak_runs}"
        );
    }

    #[test]
    fn engine_runs_match_their_known_answers() {
        // Pinned from the engine that ran each instant's events in
        // `(actor, seq)` order: the queueing-order pop must not move them.
        let (digest, _, events) = ring_run(7, 24, 1, 1);
        assert_eq!((digest, events), (0xb4d5_3f00_7987_afe5, 144));
        let ((digest, _, events), profile) = busy_run(1, 1);
        assert_eq!(
            (digest, events, profile.rounds),
            (0xd4b4_b924_d224_f2f2, 13_461, 5)
        );
    }

    /// A fan-in world: every actor first messages one of four sinks, so
    /// ten senders with distinct payloads land on each at one instant;
    /// later hops re-run their actor at once, message a sink, or fan out
    /// to three actors. Every handler checks that its actor's keys run in
    /// ascending order.
    fn fan_in_run(shards: u32, threads: u32) -> (u64, Vec<String>, u64) {
        const N: u64 = 40;
        const HOPS: u32 = 6;
        let cfg = ShardConfig {
            seed: 29,
            shards,
            threads,
            record_transcript: true,
        };
        let handler = |last: &mut Option<EventKey>,
                       ctx: &mut EventCtx<'_, (u64, u32)>,
                       (from, hop): (u64, u32)| {
            let key = ctx.key();
            assert!(last.is_none_or(|l| l < key), "{key} ran after {last:?}");
            *last = Some(key);
            let draw = ctx.rng().next_u64() & 0xffff;
            ctx.emit(format!("from={from} hop={hop} draw={draw}"));
            let me = ctx.actor().0;
            let delay = SimDuration::from_millis(2);
            match (hop, draw % 3) {
                (0, _) => {}
                (HOPS, _) | (_, 1) => ctx.send(ActorId(me % 4), delay, (me, hop - 1)),
                (_, 0) => ctx.schedule_self(SimDuration::ZERO, (me, hop - 1)),
                _ => {
                    for k in 1..=3 {
                        ctx.send(ActorId((me * 7 + k) % N), delay, (me, hop - 1));
                    }
                }
            }
        };
        let mut sim = ShardSim::new(cfg, handler);
        for a in 0..N {
            sim.add_actor(ActorId(a), None);
        }
        for a in 0..N {
            sim.schedule(ActorId(a), SimTime::ZERO, (a, HOPS)).unwrap();
        }
        sim.run_until_idle();
        (
            sim.digest(),
            sim.transcript().to_vec(),
            sim.events_processed(),
        )
    }

    #[test]
    fn fan_in_keeps_each_actors_key_order_at_any_layout() {
        let reference = fan_in_run(1, 1);
        // Pinned from the key-ordered engine, like the runs above.
        assert_eq!((reference.0, reference.2), (0x7e49_1f05_95f8_0b4b, 1_138));
        for shards in [1u32, 4, 16] {
            for threads in [1u32, ShardConfig::max_threads()] {
                let got = fan_in_run(shards, threads);
                assert_eq!(
                    got, reference,
                    "diverged at shards={shards} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn transcript_is_identical_across_shard_and_thread_counts() {
        let reference = ring_run(7, 24, 1, 1);
        for shards in [2u32, 4, 16, 64] {
            for threads in [1u32, 4, ShardConfig::max_threads()] {
                let got = ring_run(7, 24, shards, threads);
                assert_eq!(
                    got, reference,
                    "diverged at shards={shards} threads={threads}"
                );
            }
        }
    }

    /// A world whose rounds exceed the parallel crossover: every actor
    /// fires at once, and each event either re-runs its actor later in
    /// the same round (zero-delay self-schedule) or fans out to two
    /// other actors, so the merge draws several seqs per destination.
    fn busy_run(shards: u32, threads: u32) -> ((u64, Vec<String>, u64), EngineProfile) {
        let n = 2 * PARALLEL_CROSSOVER_EVENTS;
        let cfg = ShardConfig {
            seed: 13,
            shards,
            threads,
            record_transcript: true,
        };
        let handler = move |count: &mut u64, ctx: &mut EventCtx<'_, u32>, hop| {
            *count += 1;
            let draw = ctx.rng().next_u64();
            ctx.emit(format!("hop={hop} draw={}", draw & 0xff));
            if hop == 0 {
                return;
            }
            if draw & 1 == 0 {
                ctx.schedule_self(SimDuration::ZERO, hop - 1);
            } else {
                let a = ctx.actor().0;
                for dest in [ActorId((a * 7 + 1) % n), ActorId(a / 2)] {
                    ctx.send(dest, SimDuration::from_millis(1), hop - 1);
                }
            }
        };
        let mut sim = ShardSim::new(cfg, handler);
        for a in 0..n {
            sim.add_actor(ActorId(a), 0u64);
            sim.schedule(ActorId(a), SimTime::ZERO, 4).unwrap();
        }
        sim.run_until_idle();
        let profile = sim.profile().clone();
        let run = (
            sim.digest(),
            sim.transcript().to_vec(),
            sim.events_processed(),
        );
        (run, profile)
    }

    #[test]
    fn rounds_above_the_crossover_go_parallel_without_changing_outputs() {
        let (reference, seq) = busy_run(1, 1);
        assert_eq!(seq.parallel_rounds, 0);
        assert!(
            seq.rounds > 1 && reference.2 > seq.rounds * PARALLEL_CROSSOVER_EVENTS,
            "rounds must exceed the crossover: {} events over {} rounds",
            reference.2,
            seq.rounds
        );
        for threads in [1, 2, ShardConfig::max_threads(), 64] {
            let (got, profile) = busy_run(16, threads);
            assert_eq!(got, reference, "diverged at threads={threads}");
            assert_eq!(profile.rounds, seq.rounds);
            assert_eq!(
                profile.parallel_rounds > 0,
                threads > 1,
                "threads={threads} parallel_rounds={}",
                profile.parallel_rounds
            );
            let table = profile.table();
            let row = format!("parallel_rounds={} ", profile.parallel_rounds);
            assert!(table.contains(&row), "table:\n{table}");
        }
    }

    #[test]
    fn profile_accounts_for_every_event_without_touching_outputs() {
        let cfg = ShardConfig {
            seed: 7,
            shards: 4,
            threads: 2,
            record_transcript: false,
        };
        let mut sim = ShardSim::new(cfg, ring_handler(24));
        for a in 0..24 {
            sim.add_actor(ActorId(a), 0u64);
        }
        for a in 0..24 {
            sim.schedule(ActorId(a), SimTime::from_millis(a % 7), 5)
                .unwrap();
        }
        sim.run_until_idle();
        let p = sim.profile();
        assert_eq!(p.total_events(), sim.events_processed());
        assert_eq!(p.rounds, sim.rounds());
        assert_eq!(p.events_per_shard.len(), 4);
        assert_eq!(p.batch_events.count(), p.rounds * 4);
        assert!(p.barrier_imbalance.count() > 0);
        assert!(p.table().contains("shard3 "), "table:\n{}", p.table());
        // Profile varies with layout; the run digest must not.
        let (digest_1shard, _, _) = ring_run(7, 24, 1, 1);
        assert_eq!(sim.digest(), digest_1shard);
    }

    #[test]
    fn profile_table_prints_means_to_two_decimals() {
        let mut p = EngineProfile::default();
        assert!(p.table().contains("batch_mean=0.00 "), "{}", p.table());
        // The fleet's shape: more shard batches than events. 2 / 3 rounds
        // to 0.67, where the integer floor read 0.
        for v in [0, 1, 1] {
            p.batch_events.record(v);
        }
        for v in [1_000_000, 1] {
            p.barrier_imbalance.record(v);
        }
        let table = p.table();
        assert!(table.contains("batch_mean=0.67 batch_max=1 "), "{table}");
        assert!(table.contains("stall_mean=500000.50 "), "{table}");
        // The integer floor stays available to readers of the histogram.
        assert_eq!(p.batch_events.mean(), 0);
    }

    #[test]
    fn different_seeds_diverge() {
        assert_ne!(ring_run(7, 24, 4, 2).0, ring_run(8, 24, 4, 2).0);
    }

    #[test]
    fn no_event_loss_or_duplication() {
        let (_, transcript, processed) = ring_run(11, 10, 4, 2);
        // 10 initial events with hop=5 -> each chain executes 6 events.
        assert_eq!(processed, 60);
        assert_eq!(transcript.len(), 60);
        let mut keys: Vec<&str> = transcript.iter().map(|l| l.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 60, "duplicated transcript record");
    }

    #[test]
    fn transcript_is_in_key_order() {
        let cfg = ShardConfig {
            seed: 3,
            shards: 8,
            threads: 2,
            record_transcript: true,
        };
        let mut sim = ShardSim::new(cfg, |_: &mut (), ctx: &mut EventCtx<'_, u32>, _| {
            ctx.emit("x");
        });
        // Single-digit actor ids and seqs keep the rendered key's string
        // order equal to its numeric key order, so the string comparison
        // below really checks the merge.
        for a in 0..9 {
            sim.add_actor(ActorId(a), ());
        }
        for round in 0..3 {
            for a in (0..9).rev() {
                sim.schedule(ActorId(a), SimTime::from_millis((a + round) % 4), 0)
                    .unwrap();
            }
        }
        sim.run_until_idle();
        let lines = sim.transcript();
        assert_eq!(lines.len(), 27);
        assert!(
            lines.windows(2).all(|w| w[0] < w[1]),
            "merge out of key order"
        );
    }

    #[test]
    fn same_time_self_schedules_run_within_the_round() {
        let cfg = sequential(1);
        let mut sim = ShardSim::new(cfg, |state: &mut u32, ctx: &mut EventCtx<'_, u32>, ev| {
            *state += 1;
            if ev > 0 {
                ctx.schedule_self(SimDuration::ZERO, ev - 1);
            }
        });
        sim.add_actor(ActorId(0), 0u32);
        sim.schedule(ActorId(0), SimTime::from_secs(1), 4).unwrap();
        sim.run_until_idle();
        assert_eq!(sim.now(), SimTime::from_secs(1));
        assert_eq!(sim.actor_state(ActorId(0)), Some(&5));
        assert_eq!(
            sim.rounds(),
            1,
            "zero-delay self-schedules stay in the round"
        );
    }

    #[test]
    fn zero_delay_sends_are_quantised_to_the_next_step() {
        let cfg = sequential(1);
        let mut sim = ShardSim::new(cfg, |_: &mut (), ctx: &mut EventCtx<'_, u32>, ev| {
            if ev > 0 {
                ctx.send(ActorId(1), SimDuration::ZERO, ev - 1);
            }
        });
        sim.add_actor(ActorId(0), ());
        sim.add_actor(ActorId(1), ());
        sim.schedule(ActorId(0), SimTime::ZERO, 1).unwrap();
        sim.run_until_idle();
        assert_eq!(sim.messages_delivered(), 1);
        assert_eq!(sim.now(), SimTime::from_micros(1));
        assert_eq!(sim.rounds(), 2);
    }

    #[test]
    fn dead_letters_are_counted_not_lost_silently() {
        let cfg = sequential(1);
        let mut sim = ShardSim::new(cfg, |_: &mut (), ctx: &mut EventCtx<'_, u32>, _| {
            ctx.send(ActorId(999), SimDuration::from_millis(1), 0);
        });
        sim.add_actor(ActorId(0), ());
        sim.schedule(ActorId(0), SimTime::ZERO, 0).unwrap();
        sim.run_until_idle();
        assert_eq!(sim.dead_letters(), 1);
        assert_eq!(sim.messages_delivered(), 0);
    }

    #[test]
    fn duplicate_actor_registration_is_rejected() {
        let mut sim = ShardSim::new(sequential(0), |_: &mut u8, _: &mut EventCtx<'_, u8>, _| {});
        assert!(sim.add_actor(ActorId(4), 1));
        assert!(!sim.add_actor(ActorId(4), 2));
        assert_eq!(sim.actor_state(ActorId(4)), Some(&1));
        assert_eq!(sim.actors(), 1);
    }

    #[test]
    fn actors_registered_in_any_order_are_found() {
        // At 4 shards, 0..16 without 5 plus a far id: in shard 1 the
        // dense guess for 9 lands on 13 and 13's is out of range, and the
        // far id's misses, so each takes the fallback.
        let holey: Vec<u64> = (0..16)
            .rev()
            .filter(|a| *a != 5)
            .chain([1_000_003])
            .collect();
        for (shards, ids, taken, unknown) in
            [(1, vec![9u64, 2, 40, 0, 17, 3], 17, 4), (4, holey, 9, 5)]
        {
            // Each actor's state starts with its own id, so an event run
            // on another actor's slot shows up directly.
            let mut sim = ShardSim::new(
                ShardConfig {
                    shards,
                    ..sequential(0)
                },
                |state: &mut (u64, u32), ctx: &mut EventCtx<'_, u8>, ev| {
                    assert_eq!(state.0, ctx.actor().0, "ran on another actor's slot");
                    state.1 += 1;
                    if ev == 0 {
                        ctx.send(ctx.actor(), SimDuration::from_millis(1), 1);
                    }
                },
            );
            for &a in &ids {
                assert!(sim.add_actor(ActorId(a), (a, 0)));
            }
            assert!(!sim.add_actor(ActorId(taken), (taken, 5)));
            assert_eq!(sim.actors(), ids.len() as u64);
            for &a in &ids {
                sim.schedule(ActorId(a), SimTime::ZERO, 0).unwrap();
            }
            sim.run_until_idle();
            assert_eq!(sim.messages_delivered(), ids.len() as u64);
            for &a in &ids {
                let state = sim.actor_state(ActorId(a));
                assert_eq!(state, Some(&(a, 2)), "actor {a} at {shards} shards");
            }
            assert_eq!(sim.actor_state(ActorId(unknown)), None);
        }
    }

    #[test]
    fn scheduling_on_unknown_actor_errors() {
        let mut sim = ShardSim::new(sequential(0), |_: &mut u8, _: &mut EventCtx<'_, u8>, _| {});
        assert_eq!(sim.schedule(ActorId(7), SimTime::ZERO, 1), Err(ActorId(7)));
    }

    #[test]
    fn run_until_respects_the_deadline() {
        let mut sim = ShardSim::new(
            sequential(5),
            |hits: &mut u32, ctx: &mut EventCtx<'_, u8>, _| {
                *hits += 1;
                ctx.schedule_self(SimDuration::from_secs(10), 0);
            },
        );
        sim.add_actor(ActorId(0), 0u32);
        sim.schedule(ActorId(0), SimTime::from_secs(10), 0).unwrap();
        sim.run_until(SimTime::from_secs(35));
        assert_eq!(sim.actor_state(ActorId(0)), Some(&3));
        assert_eq!(sim.now(), SimTime::from_secs(35));
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(sim.actor_state(ActorId(0)), Some(&4));
    }
}
