//! One model execution: real OS threads serialised by a baton, a decision
//! tape recording every scheduling choice, and vector-clock race detection.
//!
//! Exactly one model thread runs at a time. Every instrumented operation is
//! a *scheduling point*: the active thread performs the operation's memory
//! effect while holding the execution lock, then picks (or replays) the
//! thread that executes the next operation and hands the baton over. The
//! sequence of choices forms a tape the explorer backtracks over; forcing a
//! recorded tape replays an interleaving exactly.

use std::cell::RefCell;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::clock::{VClock, MAX_THREADS};

/// Panic payload used to unwind model threads once the execution has
/// failed or finished early; thread wrappers swallow it.
pub(crate) struct Abort;

/// `active` value meaning "no thread holds the baton" (execution over or
/// aborting). All waiters wake, observe it, and unwind.
const NOBODY: usize = usize::MAX;

/// One scheduling decision: which threads were runnable (in canonical
/// order, default choice first) and which one was picked.
#[derive(Clone, Debug)]
pub(crate) struct Decision {
    pub allowed: Vec<usize>,
    pub chosen: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Run {
    Ready,
    /// Waiting for a model mutex (by location id) to be released.
    BlockedMutex(usize),
    /// Waiting for a model thread to finish.
    BlockedJoin(usize),
    Finished,
}

struct ThreadSlot {
    run: Run,
    clock: VClock,
    /// Clock published by the last `Release` (or stronger) fence.
    rel_fence: VClock,
    /// Acquire-pending clock from `Relaxed` loads, folded in at the next
    /// `Acquire` fence.
    acq_pending: VClock,
}

impl ThreadSlot {
    fn new(clock: VClock) -> ThreadSlot {
        ThreadSlot {
            run: Run::Ready,
            clock,
            rel_fence: VClock::zero(),
            acq_pending: VClock::zero(),
        }
    }
}

type Site = &'static Location<'static>;

enum Loc {
    /// An atomic location: the clock released into it by writers.
    Atomic { sync: VClock },
    /// A plain `UnsafeCell` location, checked FastTrack-style: the last
    /// write as an epoch, reads as a full clock.
    Cell {
        write: (usize, u32),
        write_site: Option<Site>,
        read: VClock,
        read_sites: [Option<Site>; MAX_THREADS],
    },
    /// A model mutex: logical hold state plus the clock released by the
    /// last unlock.
    Mutex {
        held_by: Option<usize>,
        sync: VClock,
    },
}

enum LocKind {
    Atomic,
    Cell,
    Mutex,
}

impl LocKind {
    fn fresh(&self) -> Loc {
        match self {
            LocKind::Atomic => Loc::Atomic {
                sync: VClock::zero(),
            },
            LocKind::Cell => Loc::Cell {
                write: (0, 0),
                write_site: None,
                read: VClock::zero(),
                read_sites: [None; MAX_THREADS],
            },
            LocKind::Mutex => Loc::Mutex {
                held_by: None,
                sync: VClock::zero(),
            },
        }
    }
}

/// Which clock edges an atomic access induces. CAS performs the op under
/// the execution lock and then reports whether the success or the failure
/// ordering applies.
pub(crate) enum AtomicKind {
    Load(StdOrdering),
    Store(StdOrdering),
    Rmw(StdOrdering),
}

pub(crate) struct Cfg {
    pub preemption_bound: usize,
    pub max_ops: usize,
}

struct St {
    threads: Vec<ThreadSlot>,
    active: usize,
    /// Replay prefix: decision i must choose `forced[i]`.
    forced: Vec<usize>,
    decisions: Vec<Decision>,
    preemptions: usize,
    ops: usize,
    locs: Vec<Loc>,
    failure: Option<String>,
    aborting: bool,
    finished: usize,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

pub(crate) struct Execution {
    m: Mutex<St>,
    cv: Condvar,
    cfg: Cfg,
    /// Distinguishes this execution's location registrations from stale
    /// ids left in objects that outlived a previous execution.
    nonce: u64,
}

pub(crate) struct Outcome {
    pub decisions: Vec<Decision>,
    pub failure: Option<String>,
    pub preemptions: usize,
}

static EXEC_NONCE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// The execution and model-thread id bound to the current OS thread, if
/// any. Shim primitives fall back to the real operation when this is None.
pub(crate) fn current() -> Option<(Arc<Execution>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn set_current(v: Option<(Arc<Execution>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

impl Execution {
    pub(crate) fn new(cfg: Cfg, forced: Vec<usize>) -> Arc<Execution> {
        let mut threads = Vec::new();
        let mut main = ThreadSlot::new(VClock::zero());
        main.clock.tick(0);
        threads.push(main);
        Arc::new(Execution {
            m: Mutex::new(St {
                threads,
                active: 0,
                forced,
                decisions: Vec::new(),
                preemptions: 0,
                ops: 0,
                locs: Vec::new(),
                failure: None,
                aborting: false,
                finished: 0,
                os_handles: Vec::new(),
            }),
            cv: Condvar::new(),
            cfg,
            nonce: EXEC_NONCE.fetch_add(1, StdOrdering::Relaxed) & 0xffff_ffff,
        })
    }

    /// Binds the calling (harness) thread as model thread 0.
    pub(crate) fn bind_main(self: &Arc<Self>) {
        set_current(Some((Arc::clone(self), 0)));
    }

    fn lock(&self) -> MutexGuard<'_, St> {
        // A model thread can panic (test assertion) while holding the
        // execution lock only across user action closures; those are
        // documented not to re-enter the shim, and a panic there poisons
        // the lock. Recover: the poison flag carries no protocol meaning
        // here because the panicking thread records its failure afterwards.
        match self.m.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Waits until `me` holds the baton; panics with [`Abort`] if the
    /// execution is tearing down.
    fn acquire_baton<'a>(&'a self, me: usize, mut st: MutexGuard<'a, St>) -> MutexGuard<'a, St> {
        loop {
            if st.aborting {
                drop(st);
                std::panic::panic_any(Abort);
            }
            if st.active == me {
                return st;
            }
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
    }

    /// Registers (or re-finds) the model location backing a shim object.
    /// `slot` lives inside the object; 0 means unregistered. Nonzero
    /// values pack `(nonce << 32) | (id + 1)` so objects surviving from a
    /// previous execution re-register instead of aliasing a stale id.
    fn loc_id(&self, st: &mut St, slot: &StdAtomicUsize, kind: LocKind) -> usize {
        let v = slot.load(StdOrdering::Relaxed);
        if v != 0 && (v as u64 >> 32) == self.nonce {
            let id = (v & 0xffff_ffff) - 1;
            if id < st.locs.len() {
                return id;
            }
        }
        st.locs.push(kind.fresh());
        let id = st.locs.len() - 1;
        slot.store(
            ((self.nonce << 32) | (id as u64 + 1)) as usize,
            StdOrdering::Relaxed,
        );
        id
    }

    fn fail(&self, st: &mut St, msg: String) {
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.aborting = true;
        st.active = NOBODY;
        self.cv.notify_all();
    }

    fn charge_op(&self, st: &mut St) -> bool {
        st.ops += 1;
        if st.ops > self.cfg.max_ops {
            self.fail(
                st,
                format!(
                    "op budget exceeded ({} ops): livelock or unbounded spin under the model \
                     (spin loops must call jstar_check::sync::spin_loop/yield_now)",
                    self.cfg.max_ops
                ),
            );
            return false;
        }
        true
    }

    /// Makes the scheduling decision after `me` executed an op.
    /// `yielded` marks a voluntary deschedule (spin hint): moving off the
    /// thread is then mandatory if possible and never counts as a
    /// preemption.
    fn pick_next(&self, st: &mut St, me: usize, yielded: bool) {
        if st.aborting {
            return;
        }
        let ready: Vec<usize> = (0..st.threads.len())
            .filter(|&t| st.threads[t].run == Run::Ready)
            .collect();
        if ready.is_empty() {
            if st.finished == st.threads.len() {
                st.active = NOBODY;
                self.cv.notify_all();
            } else {
                let blocked: Vec<String> = (0..st.threads.len())
                    .filter_map(|t| match st.threads[t].run {
                        Run::BlockedMutex(l) => Some(format!("thread {t} waits on mutex #{l}")),
                        Run::BlockedJoin(j) => Some(format!("thread {t} joins thread {j}")),
                        _ => None,
                    })
                    .collect();
                self.fail(st, format!("deadlock: {}", blocked.join(", ")));
            }
            return;
        }
        let me_ready = st
            .threads
            .get(me)
            .map(|s| s.run == Run::Ready)
            .unwrap_or(false);
        let allowed: Vec<usize> = if me_ready && !yielded {
            // Staying on `me` is the default; switching preempts.
            let mut v = vec![me];
            if st.preemptions < self.cfg.preemption_bound {
                v.extend(ready.iter().copied().filter(|&t| t != me));
            }
            v
        } else if me_ready {
            // Voluntary yield: must move if anyone else can run.
            let others: Vec<usize> = ready.iter().copied().filter(|&t| t != me).collect();
            if others.is_empty() {
                vec![me]
            } else {
                others
            }
        } else {
            // `me` blocked or finished: a switch is forced and free.
            ready
        };

        let idx = st.decisions.len();
        let chosen = if idx < st.forced.len() {
            let want = st.forced[idx];
            if allowed.contains(&want) {
                want
            } else {
                self.fail(
                    st,
                    format!(
                        "replay divergence at decision {idx}: seed chose thread {want}, \
                         allowed {allowed:?} (code or seed changed since the failure was recorded)"
                    ),
                );
                return;
            }
        } else {
            allowed[0]
        };
        st.decisions.push(Decision {
            allowed: allowed.clone(),
            chosen,
        });
        if chosen != me && me_ready && !yielded {
            st.preemptions += 1;
        }
        st.active = chosen;
        self.cv.notify_all();
    }

    // ----- clock edges -------------------------------------------------

    fn acquire_edge(st: &mut St, me: usize, loc: usize, ord: StdOrdering) {
        let sync = match &st.locs[loc] {
            Loc::Atomic { sync } => *sync,
            _ => unreachable!("atomic edge on non-atomic location"),
        };
        let slot = &mut st.threads[me];
        match ord {
            StdOrdering::Acquire | StdOrdering::AcqRel | StdOrdering::SeqCst => {
                slot.clock.join(&sync)
            }
            // A relaxed read still carries the clock to a later Acquire fence.
            _ => slot.acq_pending.join(&sync),
        }
    }

    fn release_clock(st: &St, me: usize, ord: StdOrdering) -> VClock {
        let slot = &st.threads[me];
        match ord {
            StdOrdering::Release | StdOrdering::AcqRel | StdOrdering::SeqCst => slot.clock,
            // Relaxed/Acquire store: only a preceding Release fence publishes.
            _ => slot.rel_fence,
        }
    }

    // ----- instrumented operations ------------------------------------

    /// An atomic access: the action performs the real (serialised) memory
    /// operation and reports which ordering semantics apply.
    pub(crate) fn atomic_op<R>(
        &self,
        me: usize,
        slot: &StdAtomicUsize,
        action: impl FnOnce() -> (R, AtomicKind),
    ) -> R {
        let mut st = self.acquire_baton(me, self.lock());
        if !self.charge_op(&mut st) {
            drop(st);
            std::panic::panic_any(Abort);
        }
        let loc = self.loc_id(&mut st, slot, LocKind::Atomic);
        let (r, kind) = action();
        match kind {
            AtomicKind::Load(ord) => Self::acquire_edge(&mut st, me, loc, ord),
            AtomicKind::Store(ord) => {
                let rel = Self::release_clock(&st, me, ord);
                // A plain store *replaces* the location clock: later readers
                // synchronise only with this write, not with earlier ones.
                match &mut st.locs[loc] {
                    Loc::Atomic { sync } => *sync = rel,
                    _ => unreachable!(),
                }
            }
            AtomicKind::Rmw(ord) => {
                Self::acquire_edge(&mut st, me, loc, ord);
                let rel = Self::release_clock(&st, me, ord);
                // RMWs join: they extend the release sequence of the
                // previous write, so earlier release edges survive.
                match &mut st.locs[loc] {
                    Loc::Atomic { sync } => sync.join(&rel),
                    _ => unreachable!(),
                }
            }
        }
        st.threads[me].clock.tick(me);
        self.pick_next(&mut st, me, false);
        r
    }

    pub(crate) fn fence(&self, me: usize, ord: StdOrdering) {
        let mut st = self.acquire_baton(me, self.lock());
        if !self.charge_op(&mut st) {
            drop(st);
            std::panic::panic_any(Abort);
        }
        let slot = &mut st.threads[me];
        match ord {
            StdOrdering::Acquire => {
                let p = slot.acq_pending;
                slot.clock.join(&p);
            }
            StdOrdering::Release => slot.rel_fence = slot.clock,
            _ => {
                let p = slot.acq_pending;
                slot.clock.join(&p);
                slot.rel_fence = slot.clock;
            }
        }
        st.threads[me].clock.tick(me);
        self.pick_next(&mut st, me, false);
    }

    /// A plain-memory access through the shim `UnsafeCell`. The action
    /// (the caller's closure over the raw pointer) runs under the
    /// execution lock so no other model thread can touch the cell while
    /// it reads/writes; race checking is what makes overlap impossible
    /// in the modelled program rather than just in the model.
    pub(crate) fn cell_op<R>(
        &self,
        me: usize,
        slot: &StdAtomicUsize,
        write: bool,
        site: Site,
        action: impl FnOnce() -> R,
    ) -> R {
        let mut st = self.acquire_baton(me, self.lock());
        if !self.charge_op(&mut st) {
            drop(st);
            std::panic::panic_any(Abort);
        }
        let loc = self.loc_id(&mut st, slot, LocKind::Cell);
        let me_clock = st.threads[me].clock;
        let mut race: Option<String> = None;
        match &mut st.locs[loc] {
            Loc::Cell {
                write: w,
                write_site,
                read,
                read_sites,
            } => {
                let (wt, wc) = *w;
                if wc > me_clock.get(wt) {
                    race = Some(format!(
                        "data race: write at {} not ordered before {} at {}",
                        fmt_site(*write_site),
                        if write { "write" } else { "read" },
                        site,
                    ));
                } else if write {
                    if let Some(u) = (0..MAX_THREADS).find(|&u| read.get(u) > me_clock.get(u)) {
                        race = Some(format!(
                            "data race: read at {} not ordered before write at {}",
                            fmt_site(read_sites[u]),
                            site,
                        ));
                    }
                }
                if race.is_none() {
                    if write {
                        *w = (me, me_clock.get(me));
                        *write_site = Some(site);
                    } else {
                        read.join(&VClock::single(me, me_clock.get(me)));
                        read_sites[me] = Some(site);
                    }
                }
            }
            _ => unreachable!("cell edge on non-cell location"),
        }
        if let Some(msg) = race {
            self.fail(&mut st, msg);
            drop(st);
            std::panic::panic_any(Abort);
        }
        let r = action();
        st.threads[me].clock.tick(me);
        self.pick_next(&mut st, me, false);
        r
    }

    /// A spin/yield hint: forces the scheduler off this thread when any
    /// other thread is runnable (loom's treatment of spin loops — without
    /// it DFS's stay-on-me default would spin forever).
    pub(crate) fn yield_op(&self, me: usize) {
        let mut st = self.acquire_baton(me, self.lock());
        if !self.charge_op(&mut st) {
            drop(st);
            std::panic::panic_any(Abort);
        }
        st.threads[me].clock.tick(me);
        self.pick_next(&mut st, me, true);
    }

    // ----- mutex -------------------------------------------------------

    pub(crate) fn mutex_lock(&self, me: usize, slot: &StdAtomicUsize) {
        let mut st = self.acquire_baton(me, self.lock());
        loop {
            if !self.charge_op(&mut st) {
                drop(st);
                std::panic::panic_any(Abort);
            }
            let loc = self.loc_id(&mut st, slot, LocKind::Mutex);
            let held = match &st.locs[loc] {
                Loc::Mutex { held_by, .. } => *held_by,
                _ => unreachable!(),
            };
            match held {
                None => {
                    match &mut st.locs[loc] {
                        Loc::Mutex { held_by, sync } => {
                            *held_by = Some(me);
                            let sync = *sync;
                            st.threads[me].clock.join(&sync);
                        }
                        _ => unreachable!(),
                    }
                    st.threads[me].clock.tick(me);
                    self.pick_next(&mut st, me, false);
                    return;
                }
                Some(owner) => {
                    if owner == me {
                        self.fail(&mut st, "recursive model-mutex lock (self-deadlock)".into());
                        drop(st);
                        std::panic::panic_any(Abort);
                    }
                    st.threads[me].run = Run::BlockedMutex(loc);
                    self.pick_next(&mut st, me, false);
                    // Re-woken when the holder unlocks; retry the acquire.
                    st = self.acquire_baton(me, st);
                }
            }
        }
    }

    /// Never panics: unlock runs from `MutexGuard::drop`, possibly while
    /// unwinding (user assertion failure or the abort sentinel itself) —
    /// a second panic there would abort the whole test process.
    pub(crate) fn mutex_unlock(&self, me: usize, slot: &StdAtomicUsize) {
        let mut st = self.lock();
        while !st.aborting && st.active != me {
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        if st.aborting {
            return;
        }
        if !self.charge_op(&mut st) {
            // Budget failure: charge_op already flagged the abort.
            return;
        }
        let loc = self.loc_id(&mut st, slot, LocKind::Mutex);
        let me_clock = st.threads[me].clock;
        match &mut st.locs[loc] {
            Loc::Mutex { held_by, sync } => {
                debug_assert_eq!(*held_by, Some(me), "unlock by non-owner");
                *held_by = None;
                sync.join(&me_clock);
            }
            _ => unreachable!(),
        }
        // Everyone parked on this mutex re-contends.
        for t in 0..st.threads.len() {
            if st.threads[t].run == Run::BlockedMutex(loc) {
                st.threads[t].run = Run::Ready;
            }
        }
        st.threads[me].clock.tick(me);
        self.pick_next(&mut st, me, false);
    }

    // ----- threads -----------------------------------------------------

    /// Registers a child model thread and hands back its id. The caller
    /// (the shim `thread::spawn`) starts the real OS thread.
    pub(crate) fn spawn_thread(
        &self,
        me: usize,
        os_spawn: impl FnOnce(usize) -> std::thread::JoinHandle<()>,
    ) -> usize {
        let mut st = self.acquire_baton(me, self.lock());
        if !self.charge_op(&mut st) {
            drop(st);
            std::panic::panic_any(Abort);
        }
        let child = st.threads.len();
        assert!(
            child < MAX_THREADS,
            "model supports at most {MAX_THREADS} threads per execution"
        );
        // spawn edge: the child starts with (and after) the parent's clock.
        let mut clock = st.threads[me].clock;
        clock.tick(child);
        st.threads.push(ThreadSlot::new(clock));
        let handle = os_spawn(child);
        st.os_handles.push(handle);
        st.threads[me].clock.tick(me);
        self.pick_next(&mut st, me, false);
        child
    }

    /// First activation of a spawned thread: parks until the scheduler
    /// first picks it, before any user code runs.
    pub(crate) fn first_activation(&self, me: usize) {
        let st = self.acquire_baton(me, self.lock());
        drop(st);
    }

    /// Joins a model thread (blocking op) and folds its final clock in.
    pub(crate) fn join_thread(&self, me: usize, target: usize) {
        let mut st = self.acquire_baton(me, self.lock());
        loop {
            if !self.charge_op(&mut st) {
                drop(st);
                std::panic::panic_any(Abort);
            }
            if st.threads[target].run == Run::Finished {
                let target_clock = st.threads[target].clock;
                st.threads[me].clock.join(&target_clock);
                st.threads[me].clock.tick(me);
                self.pick_next(&mut st, me, false);
                return;
            }
            st.threads[me].run = Run::BlockedJoin(target);
            self.pick_next(&mut st, me, false);
            st = self.acquire_baton(me, st);
        }
    }

    /// Marks a thread finished, recording a payload panic as the failure
    /// (unless it is the abort sentinel), and passes the baton on.
    ///
    /// Thread exit is itself a scheduling point: it waits for the baton
    /// like any op. Without this a thread leaving between two other
    /// threads' ops would inject a decision at a wall-clock-dependent
    /// index and break deterministic replay.
    pub(crate) fn thread_finished(&self, me: usize, panic: Option<&str>) {
        let mut st = self.lock();
        if panic.is_some() {
            st.aborting = true;
        }
        while !st.aborting && st.active != me {
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        if let Some(msg) = panic {
            if st.failure.is_none() {
                st.failure = Some(format!("thread {me} panicked: {msg}"));
            }
        }
        st.threads[me].run = Run::Finished;
        st.finished += 1;
        for t in 0..st.threads.len() {
            if st.threads[t].run == Run::BlockedJoin(me) {
                st.threads[t].run = Run::Ready;
            }
        }
        if st.aborting {
            st.active = NOBODY;
            self.cv.notify_all();
            return;
        }
        self.pick_next(&mut st, me, false);
    }

    /// Harness side: after the main closure returned, wait for all model
    /// threads to finish (or the execution to abort), then collect.
    pub(crate) fn finish(self: &Arc<Self>, main_panic: Option<&str>) -> Outcome {
        self.thread_finished(0, main_panic);
        let mut st = self.lock();
        while st.finished < st.threads.len() && !st.aborting {
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        // Tear down any thread still parked (abort path).
        st.aborting = st.aborting || st.finished < st.threads.len();
        st.active = NOBODY;
        self.cv.notify_all();
        let handles = std::mem::take(&mut st.os_handles);
        drop(st);
        for h in handles {
            let _ = h.join();
        }
        set_current(None);
        let st = self.lock();
        Outcome {
            decisions: st.decisions.clone(),
            failure: st.failure.clone(),
            preemptions: st.preemptions,
        }
    }

    /// Used by thread wrappers to bind TLS on their OS thread.
    pub(crate) fn bind(self: &Arc<Self>, me: usize) {
        set_current(Some((Arc::clone(self), me)));
    }

    /// Records a non-sentinel panic payload message for thread wrappers.
    pub(crate) fn is_abort(payload: &(dyn std::any::Any + Send)) -> bool {
        payload.is::<Abort>()
    }
}

fn fmt_site(s: Option<Site>) -> String {
    match s {
        Some(l) => l.to_string(),
        None => "<initialisation>".to_string(),
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
