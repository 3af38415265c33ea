//! Bounded-preemption model checker: the engine behind the
//! [`crate::sync`] shim when the workspace is compiled with
//! `--cfg cosbt_model`.
//!
//! The checker is a deterministic scheduler in the style of loom /
//! CHESS: the code under test runs on real OS threads, but a global
//! token guarantees only one of them executes at a time, and every
//! operation on a shimmed primitive (atomic access, mutex lock/unlock,
//! condvar wait/notify, spawn/join/yield) is a *schedule point* where
//! the scheduler may hand the token to a different thread. One test
//! execution corresponds to one sequence of scheduling decisions; the
//! driver ([`check`]) explores the tree of decision sequences by
//! depth-first search, bounding the number of *preemptions* (switches
//! away from a still-runnable thread) per execution. Iterating
//! schedules with a small preemption bound is exhaustive for that
//! bound: every interleaving reachable with ≤ k preemptions is
//! executed exactly once. Empirically (CHESS, loom) k = 2 catches the
//! overwhelming majority of real concurrency bugs.
//!
//! ## Memory-ordering model
//!
//! Shimmed atomics distinguish `Relaxed` from `Acquire`/`Release`:
//! every store is kept in the atomic's modification order together
//! with the writer's vector clock, and a load may read *any* store
//! that is not yet superseded for the loading thread — i.e. any store
//! newer than the newest one that happens-before the load (and newer
//! than anything the thread already read or wrote itself). Which
//! permissible store a load returns is one more decision the DFS
//! explores. Happens-before edges come from spawn/join, mutex
//! release→acquire, and Release-store→Acquire-load pairs; `Relaxed`
//! operations create none, so a Relaxed load can observe stale values
//! — exactly the behaviour that makes incorrectly-relaxed protocols
//! fail under the checker while their Release/Acquire versions pass.
//!
//! Caveats (documented, deliberate):
//! * `SeqCst` is modeled as Acquire/Release plus "reads the newest
//!   store". Under an interleaving scheduler that is exactly
//!   sequential consistency, which is *stronger* than C++ `seq_cst` in
//!   programs that mix orderings — the checker can miss bugs that only
//!   exist under weaker-than-SC `SeqCst` mixes, and never reports
//!   false races for it.
//! * Release sequences and fences are not modeled; RMWs read the
//!   newest store (as C++ requires) and a failed `compare_exchange`
//!   also reads the newest store (stronger than C++).
//! * Condvars never wake spuriously, and `notify_one` wakes the
//!   longest-waiting thread (FIFO).
//! * A panic anywhere inside the checked closure — including panics
//!   the code would catch with `catch_unwind` — is treated as a
//!   failure of the execution.
//!
//! Unshimmed `std::sync` primitives still *work* under the checker
//! (only one thread runs at a time, so they never contend) but are
//! invisible to it: they create no schedule points and no modeled
//! happens-before edges. The `cosbt-check` lint keeps the shimmed
//! crates free of them.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Panic payload used to unwind threads of an execution being torn
/// down. Never surfaces to user code: the thread wrapper catches it.
struct ModelAbort;

fn lock_sched(ctl: &Controller) -> MutexGuard<'_, Sched> {
    // The scheduler must stay usable while a failing execution
    // unwinds, so poisoning (a panic while the lock was held) is
    // ignored rather than propagated.
    ctl.sched.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static TID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

static ACTIVE: Mutex<Option<Arc<Controller>>> = Mutex::new(None);
/// Serializes model runs within a process (`#[test]`s run on many
/// threads; the controller and panic hook are global).
static RUN_LOCK: Mutex<()> = Mutex::new(());
static RUN_IDS: AtomicU64 = AtomicU64::new(1);

/// The active controller and the calling thread's model id, if the
/// calling thread belongs to a model execution.
pub(crate) fn active() -> Option<(Arc<Controller>, usize)> {
    let tid = TID.with(|t| t.get())?;
    let ctl = ACTIVE.lock().unwrap_or_else(|e| e.into_inner()).clone()?;
    Some((ctl, tid))
}

/// Options for [`check_opts`].
#[derive(Debug, Clone)]
pub struct ModelOpts {
    /// Maximum preemptions (switches away from a runnable thread) per
    /// execution. Voluntary switches — blocking, yielding, finishing —
    /// are free. 0 explores only cooperative schedules.
    pub preemption_bound: u32,
    /// Hard cap on explored schedules; exceeding it fails the check
    /// loudly (shrink the test or raise the budget — never let a
    /// "model-checked" test silently explore a fraction of its space).
    pub max_schedules: u64,
    /// Hard cap on schedule points in one execution (runaway-loop
    /// backstop).
    pub max_steps: u64,
    /// Per-execution budget of *stale* atomic reads (a load observing
    /// anything but the newest permissible store). Keeps exploration
    /// finite for spin loops over `Relaxed` atomics — the same device
    /// as loom's spurious-failure budget. Real relaxed-memory bugs
    /// need only one or two stale reads to manifest.
    pub stale_reads: u32,
}

impl Default for ModelOpts {
    fn default() -> ModelOpts {
        ModelOpts {
            preemption_bound: 2,
            max_schedules: 500_000,
            max_steps: 100_000,
            stale_reads: 3,
        }
    }
}

impl ModelOpts {
    /// `ModelOpts` with the given preemption bound and default budgets.
    pub fn bound(preemption_bound: u32) -> ModelOpts {
        ModelOpts {
            preemption_bound,
            ..ModelOpts::default()
        }
    }
}

/// What an exploration did: returned by [`check`] / [`check_opts`] so
/// tests can assert on the schedule count (proving the DFS actually
/// explored the space it claims).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Distinct executions (= decision sequences) run to completion.
    pub schedules: u64,
    /// The preemption bound the exploration ran under.
    pub preemption_bound: u32,
}

/// One recorded decision of an execution.
#[derive(Debug, Clone, Copy)]
struct Decision {
    /// Index taken (into the candidate list at this point).
    choice: u32,
    /// Number of candidates that existed.
    alts: u32,
    /// Preemptions already spent when the decision was made.
    pre_used: u32,
    /// Whether alternatives other than 0 would preempt a runnable
    /// thread (true only for scheduling decisions where the current
    /// thread could have continued).
    preemptive_alts: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThState {
    Runnable,
    MutexWait(usize),
    CvWait(usize),
    JoinWait(usize),
    Done,
}

struct Th {
    state: ThState,
    /// Vector clock: `clock[t]` = newest event of thread `t` that
    /// happens-before this thread's current point.
    clock: Vec<u64>,
    name: String,
}

struct MxState {
    locked: bool,
    /// Release clock: joined into each locker (the release→acquire
    /// edge every mutex provides).
    clock: Vec<u64>,
}

struct CvState {
    /// Waiting tids, FIFO.
    waiters: VecDeque<usize>,
}

struct StoreRec {
    val: u64,
    /// Writer's clock at the store, for Release-ish stores; `None`
    /// for Relaxed stores (no synchronizes-with edge).
    sync: Option<Vec<u64>>,
    writer: usize,
    writer_ts: u64,
}

struct AtState {
    /// Modification order, oldest first.
    stores: Vec<StoreRec>,
    /// Per-thread coherence floor: the oldest store index the thread
    /// may still read (it has read or written something at least this
    /// new on this atomic).
    floors: Vec<usize>,
}

struct Sched {
    forced: Vec<u32>,
    cursor: usize,
    trace: Vec<Decision>,
    threads: Vec<Th>,
    running: usize,
    preemptions: u32,
    steps: u64,
    max_steps: u64,
    stale_used: u32,
    stale_budget: u32,
    failure: Option<String>,
    mutexes: Vec<MxState>,
    condvars: Vec<CvState>,
    atomics: Vec<AtState>,
    /// OS threads that have not yet finished (incl. aborted ones).
    live: usize,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

/// The per-execution scheduler shared by every thread of the checked
/// program. Shim types talk to it through [`active`].
pub(crate) struct Controller {
    sched: Mutex<Sched>,
    cv: Condvar,
    /// Execution teardown flag; set by the panic hook as soon as any
    /// thread panics so that suspended threads wake and unwind.
    abort: AtomicBool,
    pub(crate) run_id: u64,
}

fn join_clock(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

impl Controller {
    fn new(forced: Vec<u32>, opts: &ModelOpts) -> Arc<Controller> {
        Arc::new(Controller {
            sched: Mutex::new(Sched {
                forced,
                cursor: 0,
                trace: Vec::new(),
                threads: Vec::new(),
                running: 0,
                preemptions: 0,
                steps: 0,
                max_steps: opts.max_steps,
                stale_used: 0,
                stale_budget: opts.stale_reads,
                failure: None,
                mutexes: Vec::new(),
                condvars: Vec::new(),
                atomics: Vec::new(),
                live: 0,
                os_handles: Vec::new(),
            }),
            cv: Condvar::new(),
            abort: AtomicBool::new(false),
            run_id: RUN_IDS.fetch_add(1, Ordering::Relaxed),
        })
    }

    fn me(&self) -> usize {
        TID.with(|t| t.get())
            .expect("model op on unregistered thread")
    }

    /// Panics with [`ModelAbort`] (guard already dropped by caller) if
    /// the execution is being torn down. Never called on unwind paths.
    fn abort_point(&self) {
        if self.abort.load(Ordering::SeqCst) && !std::thread::panicking() {
            std::panic::panic_any(ModelAbort);
        }
    }

    /// Records one decision with `alts` candidates and returns the
    /// chosen index (forced by the schedule prefix, default 0 beyond
    /// it). Single-candidate points are not recorded.
    fn decide(s: &mut Sched, alts: u32, preemptive_alts: bool) -> u32 {
        if alts <= 1 {
            return 0;
        }
        let choice = if s.cursor < s.forced.len() {
            s.forced[s.cursor]
        } else {
            0
        };
        s.cursor += 1;
        let choice = choice.min(alts - 1); // divergence guard; deterministic programs never hit it
        s.trace.push(Decision {
            choice,
            alts,
            pre_used: s.preemptions,
            preemptive_alts,
        });
        choice
    }

    /// Core schedule point: may switch the token to another thread.
    /// `me_runnable` says whether the calling thread could continue
    /// (false when it is blocking or exiting). `exclude_me` forces a
    /// switch when possible (yield semantics). Returns the guard,
    /// re-acquired, once the calling thread holds the token again; or
    /// `None` if the caller is exiting (`me_runnable == false` with
    /// state `Done`).
    fn reschedule<'c>(
        &self,
        mut s: MutexGuard<'c, Sched>,
        me_runnable: bool,
        exclude_me: bool,
    ) -> MutexGuard<'c, Sched> {
        let me = self.me();
        s.steps += 1;
        if s.steps > s.max_steps && s.failure.is_none() {
            s.failure = Some(format!(
                "model execution exceeded {} schedule points (runaway loop?)",
                s.max_steps
            ));
            self.abort.store(true, Ordering::SeqCst);
            self.cv.notify_all();
            drop(s);
            std::panic::panic_any(ModelAbort);
        }
        // Candidate threads, deterministic order: the current thread
        // first (when allowed), then other runnable ones by ascending tid.
        let mut cands: Vec<usize> = Vec::new();
        if me_runnable && !exclude_me {
            cands.push(me);
        }
        cands.extend(
            (0..s.threads.len()).filter(|&t| t != me && s.threads[t].state == ThState::Runnable),
        );
        if cands.is_empty() {
            if me_runnable {
                // Nothing else to run; just continue.
                return s;
            }
            let root_alive = s.threads[0].state != ThState::Done;
            if root_alive && s.failure.is_none() {
                let states: Vec<String> = s
                    .threads
                    .iter()
                    .map(|t| format!("{}: {:?}", t.name, t.state))
                    .collect();
                s.failure = Some(format!(
                    "deadlock: every thread is blocked [{}]",
                    states.join(", ")
                ));
            }
            // Either a deadlock (failure recorded) or normal teardown
            // with leftover blocked threads: wake everyone to unwind.
            self.abort.store(true, Ordering::SeqCst);
            self.cv.notify_all();
            return s;
        }
        let preemptive_alts = me_runnable && !exclude_me;
        let choice = Self::decide(&mut s, cands.len() as u32, preemptive_alts);
        let next = cands[choice as usize];
        if debug_enabled() {
            let states: Vec<String> = s
                .threads
                .iter()
                .map(|t| format!("{}:{:?}", t.name, t.state))
                .collect();
            eprintln!(
                "[step {} me={me} -> next={next} cands={cands:?} [{}]]",
                s.steps,
                states.join(", ")
            );
        }
        if preemptive_alts && next != me {
            s.preemptions += 1;
        }
        s.running = next;
        if next == me {
            return s;
        }
        self.cv.notify_all();
        if s.threads[me].state == ThState::Done {
            // Exiting thread handing the token on: nothing to wait for.
            return s;
        }
        loop {
            if self.abort.load(Ordering::SeqCst) {
                drop(s);
                std::panic::panic_any(ModelAbort);
            }
            if s.running == me && s.threads[me].state == ThState::Runnable {
                return s;
            }
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Plain schedule point before a visible operation.
    fn step(&self) {
        self.abort_point();
        let s = lock_sched(self);
        drop(self.reschedule(s, true, false));
    }

    /// Yield: switch to some other runnable thread if one exists.
    pub(crate) fn yield_now(&self) {
        self.abort_point();
        let s = lock_sched(self);
        drop(self.reschedule(s, true, true));
    }

    fn tick(s: &mut Sched, me: usize) -> u64 {
        if s.threads[me].clock.len() <= me {
            s.threads[me].clock.resize(me + 1, 0);
        }
        s.threads[me].clock[me] += 1;
        s.threads[me].clock[me]
    }

    // ---- threads ----------------------------------------------------

    /// Registers the root thread (tid 0) of a fresh execution.
    fn register_root(&self) {
        let mut s = lock_sched(self);
        s.threads.push(Th {
            state: ThState::Runnable,
            clock: vec![1],
            name: "root".into(),
        });
        s.live += 1;
        s.running = 0;
    }

    /// Spawns a model thread; the OS thread parks until scheduled.
    pub(crate) fn spawn(ctl: &Arc<Controller>, body: Box<dyn FnOnce() + Send + 'static>) -> usize {
        ctl.abort_point();
        let me = ctl.me();
        let mut s = lock_sched(ctl);
        let tid = s.threads.len();
        Self::tick(&mut s, me);
        let parent_clock = s.threads[me].clock.clone();
        let mut clock = parent_clock;
        if clock.len() <= tid {
            clock.resize(tid + 1, 0);
        }
        clock[tid] = 1;
        s.threads.push(Th {
            state: ThState::Runnable,
            clock,
            name: format!("thread-{tid}"),
        });
        s.live += 1;
        let ctl2 = ctl.clone();
        let handle = std::thread::Builder::new()
            .name(format!("cosbt-model-{tid}"))
            .spawn(move || ctl2.os_thread_main(tid, body))
            .expect("spawning a model OS thread failed");
        s.os_handles.push(handle);
        // Spawn is a schedule point: the child may run immediately.
        drop(ctl.reschedule(s, true, false));
        tid
    }

    fn os_thread_main(self: Arc<Self>, tid: usize, body: Box<dyn FnOnce() + Send + 'static>) {
        TID.with(|t| t.set(Some(tid)));
        // Park until first scheduled (or the execution is torn down
        // before we ever run).
        {
            let mut s = lock_sched(&self);
            loop {
                if self.abort.load(Ordering::SeqCst) {
                    s.threads[tid].state = ThState::Done;
                    s.live -= 1;
                    drop(s);
                    self.cv.notify_all();
                    return;
                }
                if s.running == tid && s.threads[tid].state == ThState::Runnable {
                    break;
                }
                s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
            }
        }
        let result = catch_unwind(AssertUnwindSafe(body));
        match result {
            Ok(()) => self.thread_done(tid, None),
            Err(p) if p.is::<ModelAbort>() => self.thread_done(tid, None),
            Err(p) => self.thread_done(tid, Some(payload_msg(&*p))),
        }
    }

    /// Marks `tid` finished, wakes joiners, hands the token on.
    fn thread_done(&self, tid: usize, failed: Option<String>) {
        let mut s = lock_sched(self);
        if let Some(msg) = failed {
            if s.failure.is_none() {
                let name = s.threads[tid].name.clone();
                s.failure = Some(format!("thread '{name}' panicked: {msg}"));
            }
            self.abort.store(true, Ordering::SeqCst);
        }
        Self::tick(&mut s, tid);
        s.threads[tid].state = ThState::Done;
        s.live -= 1;
        for t in 0..s.threads.len() {
            if s.threads[t].state == ThState::JoinWait(tid) {
                s.threads[t].state = ThState::Runnable;
            }
        }
        if !self.abort.load(Ordering::SeqCst) {
            s = self.reschedule(s, false, false);
        }
        drop(s);
        self.cv.notify_all();
    }

    /// Blocks the caller until thread `tid` finishes; joins its clock.
    pub(crate) fn join_thread(&self, tid: usize) {
        self.step();
        let me = self.me();
        loop {
            self.abort_point();
            let mut s = lock_sched(self);
            if s.threads[tid].state == ThState::Done {
                let child = s.threads[tid].clock.clone();
                join_clock(&mut s.threads[me].clock, &child);
                return;
            }
            s.threads[me].state = ThState::JoinWait(tid);
            drop(self.reschedule(s, false, false));
        }
    }

    // ---- mutexes -----------------------------------------------------

    pub(crate) fn register_mutex(&self) -> usize {
        let mut s = lock_sched(self);
        s.mutexes.push(MxState {
            locked: false,
            clock: Vec::new(),
        });
        s.mutexes.len() - 1
    }

    pub(crate) fn mutex_lock(&self, mid: usize) {
        if std::thread::panicking() {
            // Unwind path (e.g. a Drop impl taking a lock while a
            // failure tears the execution down): acquire without
            // scheduling; suspended holders are woken by the abort
            // flag and release on their own unwind.
            loop {
                let mut s = lock_sched(self);
                if !s.mutexes[mid].locked {
                    s.mutexes[mid].locked = true;
                    return;
                }
                drop(self.cv.wait(s).unwrap_or_else(|e| e.into_inner()));
            }
        }
        self.step();
        let me = self.me();
        loop {
            self.abort_point();
            let mut s = lock_sched(self);
            if !s.mutexes[mid].locked {
                s.mutexes[mid].locked = true;
                let mclock = s.mutexes[mid].clock.clone();
                join_clock(&mut s.threads[me].clock, &mclock);
                return;
            }
            s.threads[me].state = ThState::MutexWait(mid);
            drop(self.reschedule(s, false, false));
        }
    }

    /// Never panics (runs from guard drops, possibly during unwind).
    pub(crate) fn mutex_unlock(&self, mid: usize) {
        let me = TID.with(|t| t.get());
        let mut s = lock_sched(self);
        if let Some(me) = me {
            Self::tick(&mut s, me);
            let released = s.threads[me].clock.clone();
            join_clock(&mut s.mutexes[mid].clock, &released);
        }
        s.mutexes[mid].locked = false;
        for t in 0..s.threads.len() {
            if s.threads[t].state == ThState::MutexWait(mid) {
                s.threads[t].state = ThState::Runnable;
            }
        }
        drop(s);
        self.cv.notify_all();
        if !std::thread::panicking() {
            self.abort_point();
            let s = lock_sched(self);
            drop(self.reschedule(s, true, false));
        }
    }

    // ---- condvars ----------------------------------------------------

    pub(crate) fn register_condvar(&self) -> usize {
        let mut s = lock_sched(self);
        s.condvars.push(CvState {
            waiters: VecDeque::new(),
        });
        s.condvars.len() - 1
    }

    /// Atomically releases mutex `mid`, waits on condvar `cvid`, and
    /// re-acquires the mutex.
    pub(crate) fn cv_wait(&self, cvid: usize, mid: usize) {
        self.abort_point();
        let me = self.me();
        let mut s = lock_sched(self);
        // Release the mutex (with its release edge) and enqueue on the
        // condvar in one scheduler transition: no lost-wakeup artifacts
        // beyond what real condvars have.
        Self::tick(&mut s, me);
        let released = s.threads[me].clock.clone();
        join_clock(&mut s.mutexes[mid].clock, &released);
        s.mutexes[mid].locked = false;
        for t in 0..s.threads.len() {
            if s.threads[t].state == ThState::MutexWait(mid) {
                s.threads[t].state = ThState::Runnable;
            }
        }
        s.threads[me].state = ThState::CvWait(cvid);
        s.condvars[cvid].waiters.push_back(me);
        s = self.reschedule(s, false, false);
        if s.threads[me].state == ThState::CvWait(cvid) {
            // Reschedule returned with us still enqueued: the
            // execution is tearing down (abort with every peer blocked
            // or done). Resolve the wait as a spurious wake; callers
            // then hit `abort_point` and unwind.
            s.condvars[cvid].waiters.retain(|&w| w != me);
            s.threads[me].state = ThState::Runnable;
        }
        drop(s);
        // Re-acquire the mutex (contending with anyone else).
        loop {
            self.abort_point();
            let mut s = lock_sched(self);
            if !s.mutexes[mid].locked {
                s.mutexes[mid].locked = true;
                let mclock = s.mutexes[mid].clock.clone();
                join_clock(&mut s.threads[me].clock, &mclock);
                return;
            }
            s.threads[me].state = ThState::MutexWait(mid);
            drop(self.reschedule(s, false, false));
        }
    }

    pub(crate) fn cv_notify(&self, cvid: usize, all: bool) {
        self.abort_point();
        let mut s = lock_sched(self);
        while let Some(w) = s.condvars[cvid].waiters.pop_front() {
            s.threads[w].state = ThState::Runnable;
            if !all {
                break;
            }
        }
        drop(self.reschedule(s, true, false));
    }

    // ---- atomics -----------------------------------------------------

    pub(crate) fn register_atomic(&self, init: u64) -> usize {
        let me = self.me();
        let mut s = lock_sched(self);
        let ts = Self::tick(&mut s, me);
        let clock = s.threads[me].clock.clone();
        s.atomics.push(AtState {
            stores: vec![StoreRec {
                val: init,
                sync: Some(clock),
                writer: me,
                writer_ts: ts,
            }],
            floors: Vec::new(),
        });
        s.atomics.len() - 1
    }

    fn floor(s: &mut Sched, aid: usize, me: usize) -> usize {
        if s.atomics[aid].floors.len() <= me {
            s.atomics[aid].floors.resize(me + 1, 0);
        }
        s.atomics[aid].floors[me]
    }

    fn is_acquire(order: Ordering) -> bool {
        matches!(
            order,
            Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
        )
    }

    fn is_release(order: Ordering) -> bool {
        matches!(
            order,
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
        )
    }

    /// A load: picks (as a DFS decision) among the stores the memory
    /// model permits this thread to observe.
    pub(crate) fn atomic_load(&self, aid: usize, order: Ordering) -> u64 {
        self.step();
        let me = self.me();
        let mut s = lock_sched(self);
        let mut lo = Self::floor(&mut s, aid, me);
        let n = s.atomics[aid].stores.len();
        for j in lo..n {
            let st = &s.atomics[aid].stores[j];
            let known = s.threads[me].clock.get(st.writer).copied().unwrap_or(0);
            if st.writer_ts <= known {
                // The store happens-before this load: nothing older
                // may be observed.
                lo = j;
            }
        }
        let alts = if order == Ordering::SeqCst {
            1 // modeled as SC: always the newest store
        } else if s.stale_used >= s.stale_budget {
            1 // stale-read budget spent: only the newest store
        } else {
            (n - lo) as u32
        };
        let choice = Self::decide(&mut s, alts, false);
        if choice > 0 {
            s.stale_used += 1;
        }
        let idx = n - 1 - choice as usize;
        s.atomics[aid].floors[me] = s.atomics[aid].floors[me].max(idx);
        let val = s.atomics[aid].stores[idx].val;
        if Self::is_acquire(order) {
            if let Some(c) = s.atomics[aid].stores[idx].sync.clone() {
                join_clock(&mut s.threads[me].clock, &c);
            }
        }
        val
    }

    pub(crate) fn atomic_store(&self, aid: usize, val: u64, order: Ordering) -> u64 {
        self.step();
        let me = self.me();
        let mut s = lock_sched(self);
        Self::floor(&mut s, aid, me);
        let ts = Self::tick(&mut s, me);
        let sync = Self::is_release(order).then(|| s.threads[me].clock.clone());
        s.atomics[aid].stores.push(StoreRec {
            val,
            sync,
            writer: me,
            writer_ts: ts,
        });
        let last = s.atomics[aid].stores.len() - 1;
        s.atomics[aid].floors[me] = last;
        val
    }

    /// A read-modify-write: per C++, reads the newest store in
    /// modification order; returns the previous value. `write` maps the
    /// old value to the new one, or `None` to skip the write (failed
    /// compare-exchange).
    pub(crate) fn atomic_rmw(
        &self,
        aid: usize,
        order: Ordering,
        write: impl FnOnce(u64) -> Option<u64>,
    ) -> u64 {
        self.step();
        let me = self.me();
        let mut s = lock_sched(self);
        Self::floor(&mut s, aid, me);
        let n = s.atomics[aid].stores.len();
        let old = s.atomics[aid].stores[n - 1].val;
        if Self::is_acquire(order) {
            if let Some(c) = s.atomics[aid].stores[n - 1].sync.clone() {
                join_clock(&mut s.threads[me].clock, &c);
            }
        }
        s.atomics[aid].floors[me] = n - 1;
        if let Some(new) = write(old) {
            let ts = Self::tick(&mut s, me);
            let sync = Self::is_release(order).then(|| s.threads[me].clock.clone());
            s.atomics[aid].stores.push(StoreRec {
                val: new,
                sync,
                writer: me,
                writer_ts: ts,
            });
            s.atomics[aid].floors[me] = n;
        }
        old
    }
}

/// Whether `COSBT_MODEL_DEBUG` was set at first check: gates the
/// per-schedule and per-step trace output used to debug the checker
/// itself (cached — reschedule is the hottest path in an exploration).
fn debug_enabled() -> bool {
    static DEBUG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DEBUG.get_or_init(|| std::env::var_os("COSBT_MODEL_DEBUG").is_some())
}

fn payload_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

struct ExecOutcome {
    trace: Vec<Decision>,
    failure: Option<String>,
}

fn run_once<F>(f: &Arc<F>, forced: Vec<u32>, opts: &ModelOpts) -> ExecOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    let ctl = Controller::new(forced, opts);
    *ACTIVE.lock().unwrap_or_else(|e| e.into_inner()) = Some(ctl.clone());
    ctl.register_root();
    let root_ctl = ctl.clone();
    let root_f = f.clone();
    let root = std::thread::Builder::new()
        .name("cosbt-model-root".into())
        .spawn(move || {
            root_ctl.os_thread_main(
                0,
                Box::new(move || {
                    (*root_f)();
                }),
            )
        })
        .expect("spawning the model root thread failed");
    // Wait for every model thread (root, spawned, detached) to finish
    // or abort, then join the OS threads.
    {
        let mut s = lock_sched(&ctl);
        while s.live > 0 {
            s = ctl.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }
    let _ = root.join();
    let handles = std::mem::take(&mut lock_sched(&ctl).os_handles);
    for h in handles {
        let _ = h.join();
    }
    *ACTIVE.lock().unwrap_or_else(|e| e.into_inner()) = None;
    let s = lock_sched(&ctl);
    ExecOutcome {
        trace: s.trace.clone(),
        failure: s.failure.clone(),
    }
}

fn explore<F>(opts: &ModelOpts, f: Arc<F>) -> (Report, Option<String>)
where
    F: Fn() + Send + Sync + 'static,
{
    let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Silence per-execution panic output (a found bug panics in every
    // schedule that reproduces it); the hook still flips the abort
    // flag immediately so suspended threads unwind instead of
    // deadlocking against a panicking peer.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {
        if let Some(ctl) = ACTIVE.lock().unwrap_or_else(|e| e.into_inner()).clone() {
            ctl.abort.store(true, Ordering::SeqCst);
            ctl.cv.notify_all();
        }
    }));
    let mut stack: Vec<Vec<u32>> = vec![Vec::new()];
    let mut schedules = 0u64;
    let mut failure = None;
    while let Some(prefix) = stack.pop() {
        if schedules >= opts.max_schedules {
            failure = Some(format!(
                "schedule budget exhausted: explored {schedules} schedules without \
                 finishing (bound {}); shrink the test or raise max_schedules",
                opts.preemption_bound
            ));
            break;
        }
        schedules += 1;
        if debug_enabled() {
            eprintln!("[model] schedule {schedules} prefix {prefix:?}");
        }
        let out = run_once(&f, prefix.clone(), opts);
        if let Some(msg) = out.failure {
            let choices: Vec<u32> = out.trace.iter().map(|d| d.choice).collect();
            failure = Some(format!(
                "{msg}\n  failing schedule (decision sequence): {choices:?}\n  \
                 after {schedules} explored schedule(s), preemption bound {}",
                opts.preemption_bound
            ));
            break;
        }
        // Expand unexplored alternatives beyond the forced prefix.
        for i in prefix.len()..out.trace.len() {
            let d = out.trace[i];
            for alt in d.choice + 1..d.alts {
                if d.preemptive_alts && d.pre_used >= opts.preemption_bound {
                    continue;
                }
                let mut next: Vec<u32> = out.trace[..i].iter().map(|t| t.choice).collect();
                next.push(alt);
                stack.push(next);
            }
        }
    }
    std::panic::set_hook(prev_hook);
    (
        Report {
            schedules,
            preemption_bound: opts.preemption_bound,
        },
        failure,
    )
}

/// Model-checks `f` under [`ModelOpts::default`]: explores every
/// schedule within the preemption bound and panics (with the failing
/// decision sequence) if any execution panics, asserts, or deadlocks.
pub fn check<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    check_opts(ModelOpts::default(), f)
}

/// [`check`] with explicit options.
pub fn check_opts<F>(opts: ModelOpts, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let (report, failure) = explore(&opts, Arc::new(f));
    if let Some(msg) = failure {
        panic!("model check failed: {msg}");
    }
    report
}

/// Runs the exploration *expecting* it to find a failure — the
/// self-test harness for seeded bugs. Returns the failure message;
/// panics if the full space within the bound passes.
pub fn check_expect_failure<F>(opts: ModelOpts, f: F) -> (Report, String)
where
    F: Fn() + Send + Sync + 'static,
{
    let (report, failure) = explore(&opts, Arc::new(f));
    match failure {
        Some(msg) => (report, msg),
        None => panic!(
            "expected the model checker to find a failure, but {} schedule(s) \
             all passed at preemption bound {}",
            report.schedules, report.preemption_bound
        ),
    }
}
