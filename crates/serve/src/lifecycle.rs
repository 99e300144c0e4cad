//! The request lifecycle every serving runtime shares: a bounded queue
//! whose items and [`Phase`] live under one mutex, the model
//! [`Registry`], and `LANCET_*` knob resolution.
//!
//! Locking rule: everything a waiter checks — the items and the phase —
//! changes only under the queue's mutex, and is re-checked under it
//! before every sleep. A shutdown or crash therefore cannot slip between
//! a waiter's check and its wait, and no waiter polls to recover from a
//! lost wakeup.

use std::collections::hash_map::{Entry, HashMap};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use lancet_models::GptMoeConfig;

use crate::{Metrics, Result, ServeError};

/// Resolves an integer knob: `explicit` when nonzero, else the variable
/// `var` when it parses (trimmed) to a positive integer, else `default`.
/// Read on every call, so tests may change it between runtimes.
pub fn resolve_knob(explicit: usize, var: &str, default: usize) -> usize {
    if explicit > 0 {
        return explicit;
    }
    let env = std::env::var(var).ok().and_then(|v| v.trim().parse::<usize>().ok());
    env.filter(|&n| n > 0).unwrap_or(default)
}

/// The admission-queue bound for a configured `queue_depth`
/// (`0` → `LANCET_SERVE_QUEUE_DEPTH` → 256), shared by serve and decode.
pub fn resolve_queue_depth(explicit: usize) -> usize {
    resolve_knob(explicit, "LANCET_SERVE_QUEUE_DEPTH", 256)
}

/// Where a runtime is in its life: `Running → Draining` on shutdown, or
/// `Running | Draining → Crashed` on a crash. There is no way back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Admitting and serving.
    Running,
    /// Refusing new work; what is queued is still served.
    Draining,
    /// Refusing new work; what was queued went back to the crasher.
    Crashed,
}

/// What a consumer's step function decided under the queue lock.
#[derive(Debug)]
pub enum Wait<R> {
    /// Done: unlock and return this.
    Ready(R),
    /// Sleep until an item arrives or the phase changes.
    Idle,
    /// As `Idle`, but wake by this instant at the latest.
    Until(Instant),
}

struct State<T> {
    items: VecDeque<T>,
    phase: Phase,
}

/// A bounded FIFO and its [`Phase`] under one mutex.
pub struct BoundedQueue<T> {
    depth: usize,
    state: Mutex<State<T>>,
    /// Consumers sleep here: signalled by pushes and phase changes.
    arrived: Condvar,
    /// Blocked producers sleep here: signalled when items leave and by
    /// phase changes.
    left: Condvar,
}

impl<T> BoundedQueue<T> {
    /// An empty, running queue holding at most `depth` items.
    pub fn new(depth: usize) -> Self {
        let state = Mutex::new(State { items: VecDeque::new(), phase: Phase::Running });
        BoundedQueue { depth, state, arrived: Condvar::new(), left: Condvar::new() }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("queue lock")
    }

    /// The configured bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Items queued right now.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.lock().phase
    }

    /// Admits one request. The phase and bound are checked and the item
    /// enqueued under one hold of the lock, so nothing is admitted after
    /// a consumer has seen the queue drained. `metrics` counts an
    /// admission in `submitted` and an overload in `rejected_overload`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Crashed`], [`ServeError::ShuttingDown`], or
    /// [`ServeError::Overloaded`] with the bound.
    pub fn admit(&self, item: T, metrics: &Metrics) -> Result<()> {
        let mut st = self.lock();
        match st.phase {
            Phase::Crashed => return Err(ServeError::Crashed),
            Phase::Draining => return Err(ServeError::ShuttingDown),
            Phase::Running if st.items.len() >= self.depth => {
                metrics.rejected_overload.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded { depth: self.depth });
            }
            // Counted before any consumer can answer it, so the ledger
            // never shows more answers than admissions.
            Phase::Running => metrics.submitted.fetch_add(1, Ordering::Relaxed),
        };
        st.items.push_back(item);
        self.arrived.notify_one();
        Ok(())
    }

    /// Hand-off between runtime stages: waits for room, then enqueues,
    /// whatever the phase short of a crash — which hands the item back.
    pub fn push_blocking(&self, item: T) -> std::result::Result<(), T> {
        let mut st = self.lock();
        while st.phase != Phase::Crashed {
            if st.items.len() < self.depth {
                st.items.push_back(item);
                self.arrived.notify_one();
                return Ok(());
            }
            st = self.left.wait(st).expect("queue lock");
        }
        Err(item)
    }

    /// Calls `step` with the items and phase under the lock until it
    /// returns [`Wait::Ready`], sleeping between calls as it asks.
    pub fn wait_until<R>(&self, mut step: impl FnMut(&mut VecDeque<T>, Phase) -> Wait<R>) -> R {
        let mut st = self.lock();
        loop {
            let (before, phase) = (st.items.len(), st.phase);
            let wait = step(&mut st.items, phase);
            if st.items.len() < before {
                self.left.notify_all();
            }
            st = match wait {
                Wait::Ready(r) => return r,
                Wait::Idle => self.arrived.wait(st).expect("queue lock"),
                Wait::Until(at) => {
                    let timeout = at.saturating_duration_since(Instant::now());
                    self.arrived.wait_timeout(st, timeout).expect("queue lock").0
                }
            };
        }
    }

    /// Graceful stop: a running queue starts draining.
    pub fn drain(&self) {
        self.set_phase(|phase| if phase == Phase::Running { Phase::Draining } else { phase });
    }

    /// Abrupt stop: returns everything still queued, for the caller to
    /// answer instead of serving.
    pub fn crash(&self) -> Vec<T> {
        self.set_phase(|_| Phase::Crashed)
    }

    fn set_phase(&self, to: impl FnOnce(Phase) -> Phase) -> Vec<T> {
        let mut st = self.lock();
        st.phase = to(st.phase);
        self.arrived.notify_all();
        self.left.notify_all();
        if st.phase == Phase::Crashed {
            st.items.drain(..).collect()
        } else {
            Vec::new()
        }
    }
}

/// Registered models by name.
pub struct Registry<E> {
    models: RwLock<HashMap<String, Arc<E>>>,
}

impl<E> Default for Registry<E> {
    fn default() -> Self {
        Registry { models: RwLock::new(HashMap::new()) }
    }
}

impl<E> Registry<E> {
    /// Registers `cfg` under its name, built into an entry by `build`.
    /// The capacity factor is first normalized to the expert count: with
    /// drop-free routing no token's output depends on its batch-mates,
    /// which is what makes batched serving bit-identical to solo.
    ///
    /// # Errors
    ///
    /// Whatever `build` fails with; [`ServeError::BadRequest`] if the name
    /// is taken (the first registration stays).
    pub fn register(
        &self,
        cfg: &GptMoeConfig,
        build: impl FnOnce(GptMoeConfig) -> Result<E>,
    ) -> Result<()> {
        let cfg = cfg.clone().with_capacity_factor(cfg.experts() as f64);
        let name = cfg.name.clone();
        let entry = build(cfg)?;
        match self.models.write().expect("registry lock").entry(name) {
            Entry::Occupied(taken) => {
                let why = format!("model `{}` is already registered", taken.key());
                Err(ServeError::BadRequest(why))
            }
            Entry::Vacant(slot) => {
                slot.insert(Arc::new(entry));
                Ok(())
            }
        }
    }

    /// The entry registered under `name`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if `name` was never registered.
    pub fn get(&self, name: &str) -> Result<Arc<E>> {
        let models = self.models.read().expect("registry lock");
        models.get(name).cloned().ok_or_else(|| ServeError::UnknownModel(name.into()))
    }
}
