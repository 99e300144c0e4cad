//! The serving runtime: admission control, deadline-bounded
//! micro-batching, and plan-cached execution on a worker pool.
//!
//! # Thread topology
//!
//! ```text
//! submitters ──► admission queue ──► batcher ──► exec queue ──► workers
//!    (N)          (bounded:          (1 thread,   (bounded)      (M threads,
//!                  Overloaded         groups by                   plan cache +
//!                  past depth)        model into                  Executor)
//!                                     buckets)
//! ```
//!
//! Both queues are bounded, so overload surfaces as a typed
//! [`ServeError::Overloaded`] at the door instead of unbounded memory
//! growth, and a slow executor backpressures the batcher rather than
//! letting batches pile up. Requests that out-wait their latency budget
//! are shed with [`ServeError::DeadlineExceeded`] before execution —
//! running them would spend executor time on an answer that is already
//! useless.
//!
//! # Transparent batching
//!
//! Registration normalizes each model's capacity factor to its expert
//! count, which makes routing *drop-free*: every expert can absorb every
//! token, so no token's output depends on what else shares its
//! micro-batch. Combined with the executor's fixed per-element reduction
//! order, a batched response is bit-identical to what solo (batch = 1)
//! serving would have produced — micro-batching is purely a throughput
//! optimization, invisible in the output bits (covered by the
//! `batched_responses_bit_identical_to_solo` integration test).

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lancet_core::{Lancet, LancetOptions};
use lancet_cost::{optimize_placement, ClusterKind, ClusterSpec, ExpertTraffic, PlacementOptions, PlacementPlan};
use lancet_models::GptMoeConfig;
use lancet_tensor::{pool, Tensor};

use crate::cache::PlanCache;
use crate::fault::{FaultInjector, FaultSpec};
use crate::lifecycle::{resolve_queue_depth, BoundedQueue, Phase, Registry, Wait};
use crate::plan::{canonical_weights, CanonicalWeights, PackSet, Plan, PlanKey};
use crate::stats::{Metrics, ServeStats};
use crate::{Result, ServeError};

/// Serving-runtime knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Device generation the plan optimizer's cost models target.
    pub cluster: ClusterKind,
    /// Admission-queue bound; requests beyond it are rejected with
    /// [`ServeError::Overloaded`]. `0` reads `LANCET_SERVE_QUEUE_DEPTH`,
    /// falling back to 256.
    pub queue_depth: usize,
    /// Most requests per micro-batch (buckets are powers of two up to
    /// this, rounded up).
    pub max_batch: usize,
    /// How long the batcher waits for a full batch before dispatching a
    /// partial one. Zero dispatches immediately (no batching delay).
    pub batch_window: Duration,
    /// Per-request queueing budget; requests that wait longer are shed
    /// with [`ServeError::DeadlineExceeded`]. Zero disables shedding.
    pub latency_budget: Duration,
    /// Executor worker threads. `0` resolves like the compute pool's
    /// worker knob (`LANCET_WORKERS`, then machine size).
    pub exec_workers: usize,
    /// Plan-cache capacity (plans, not bytes).
    pub plan_capacity: usize,
    /// Run the Lancet partition pass when building plans. Costs more at
    /// plan-build time (all of it amortized by the cache), buys the
    /// paper's overlap schedule inside each plan.
    pub partition: bool,
    /// Seed for canonical weight initialization.
    pub seed: u64,
    /// Per-request end-to-end timeout: requests still unexecuted after
    /// this long are answered with [`ServeError::TimedOut`] instead of a
    /// late response. Zero disables the timeout. Unlike
    /// [`latency_budget`](Self::latency_budget) (queue-side shedding,
    /// checked by the batcher), the timeout is checked by the worker just
    /// before execution, so it also catches time lost in the exec queue.
    pub request_timeout: Duration,
    /// How many times a transiently failed execution
    /// ([`ServeError::Exec`]) is retried before the error is delivered.
    pub max_retries: u32,
    /// Base backoff slept before the first retry; doubles each retry.
    pub retry_backoff: Duration,
    /// Deterministic fault injection (chaos testing). `None` — the
    /// default — injects nothing and costs nothing on the hot path.
    pub fault: Option<FaultSpec>,
    /// Affinity-aware dispatch: at registration each model gets an
    /// expert→worker [`PlacementPlan`] (exec workers play the role of
    /// devices), every batch is tagged with the worker holding its hot
    /// expert, and workers prefer their own batches from the exec queue.
    /// Preference is soft — a free worker steals rather than idles — and
    /// outcomes land in `placement_hits` / `placement_misses` on
    /// [`ServeStats`]. Off by default: batches go to whichever worker
    /// frees up first and the counters stay zero.
    pub affinity: bool,
    /// Minimum wall-clock service time per executed batch: when a batch
    /// finishes faster, the worker sleeps out the remainder. Zero (the
    /// default) disables the floor. This emulates a fixed-latency device
    /// for fleet-scaling experiments on small hosts — N replicas sleeping
    /// concurrently scale near-linearly the way N accelerators would,
    /// where N CPU-bound replicas on one core would not.
    pub service_floor: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cluster: ClusterKind::A100,
            queue_depth: 0,
            max_batch: 8,
            batch_window: Duration::from_millis(2),
            latency_budget: Duration::ZERO,
            exec_workers: 0,
            plan_capacity: 16,
            partition: true,
            seed: 0x5e4e,
            request_timeout: Duration::ZERO,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            fault: None,
            affinity: false,
            service_floor: Duration::ZERO,
        }
    }
}

/// One registered model: its (capacity-normalized) config, a dedicated
/// optimizer whose partition memo is shared by every bucket's plan
/// build, and the canonical name-keyed weights every plan binds.
#[derive(Debug)]
struct ModelEntry {
    cfg: GptMoeConfig,
    lancet: Lancet,
    canonical: CanonicalWeights,
    /// Expert→worker plan for affinity dispatch (`None` unless
    /// [`ServeConfig::affinity`] is set).
    placement: Option<PlacementPlan>,
    /// Prepacked GEMM panels carried in from a model store; plan builds
    /// adopt them instead of re-packing (`None` for generated weights).
    packs: Option<Arc<PackSet>>,
}

/// A request waiting in a queue, with the model it was admitted for.
struct Pending {
    entry: Arc<ModelEntry>,
    ids: Vec<f32>,
    enqueued: Instant,
    slot: Arc<ResponseSlot>,
}

/// A micro-batch handed from the batcher to an exec worker. The bucket
/// is derived where it's used (`serve_entries`), since timeout filtering
/// and degradation can shrink the entry set after extraction.
struct Batch {
    entry: Arc<ModelEntry>,
    entries: Vec<Pending>,
    /// Worker index holding the batch's hot expert (affinity dispatch);
    /// `None` when affinity is off — any worker takes it, uncounted.
    preferred: Option<usize>,
}

/// The write-once response cell behind a [`Ticket`].
#[derive(Debug)]
struct ResponseSlot {
    state: Mutex<Option<Result<Tensor>>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Self {
        ResponseSlot { state: Mutex::new(None), ready: Condvar::new() }
    }

    /// First delivery wins; returns whether this call was it.
    fn deliver(&self, result: Result<Tensor>) -> bool {
        let mut state = self.state.lock().expect("slot lock");
        if state.is_some() {
            return false;
        }
        *state = Some(result);
        self.ready.notify_all();
        true
    }
}

/// A claim on one request's eventual response. Waiting consumes the
/// ticket, so a response can be received at most once — together with
/// the slot's write-once cell this gives exactly-once delivery.
#[must_use = "an unawaited ticket discards its response"]
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// Blocks until the response (or rejection) arrives.
    pub fn wait(self) -> Result<Tensor> {
        let mut state = self.slot.state.lock().expect("slot lock");
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self.slot.ready.wait(state).expect("slot lock");
        }
    }
}

/// State shared by submitters, the batcher, and the exec workers. The
/// runtime's phase is the admission queue's; the exec queue follows it
/// (the batcher drains it on exit, a crash crashes both).
struct Shared {
    config: ServeConfig,
    exec_workers: usize,
    models: Registry<ModelEntry>,
    cache: PlanCache,
    metrics: Metrics,
    admission: BoundedQueue<Pending>,
    exec: BoundedQueue<Batch>,
    injector: Option<FaultInjector>,
}

impl Shared {
    /// `entry`'s plan for `bucket`, through the plan cache. `before_build`
    /// runs only when the plan must be built, and can veto the build.
    fn plan(
        &self,
        entry: &ModelEntry,
        bucket: usize,
        before_build: impl FnOnce() -> Result<()>,
    ) -> Result<Arc<Plan>> {
        let cfg = &entry.cfg;
        let key = PlanKey {
            model: cfg.name.clone(),
            bucket,
            seq: cfg.seq,
            cluster: self.config.cluster,
            gpus: cfg.gpus,
        };
        self.cache.get_or_insert_with(&key, || {
            before_build()?;
            let packs = entry.packs.as_deref();
            Plan::build_with_packs(&entry.lancet, cfg, bucket, &entry.canonical, packs)
        })
    }
}

/// A concurrent MoE inference-serving runtime.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct ServeRuntime {
    shared: Arc<Shared>,
    /// The batcher and the exec workers, joined once by whichever of
    /// shutdown and crash comes first.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ServeRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeRuntime").field("stats", &self.stats()).finish()
    }
}

impl ServeRuntime {
    /// Starts the runtime: one batcher thread plus the configured number
    /// of exec workers. Models are registered afterwards with
    /// [`register_model`](Self::register_model).
    pub fn start(config: ServeConfig) -> Arc<ServeRuntime> {
        let exec_workers = pool::resolve_workers(config.exec_workers);
        let injector = config.fault.clone().map(FaultInjector::new);
        if injector.is_some() {
            silence_injected_panics();
        }
        let shared = Arc::new(Shared {
            exec_workers,
            cache: PlanCache::new(config.plan_capacity),
            metrics: Metrics::new(),
            models: Registry::default(),
            admission: BoundedQueue::new(resolve_queue_depth(config.queue_depth)),
            // Enough slack that workers rarely idle, small enough that a
            // stalled executor backpressures the batcher quickly.
            exec: BoundedQueue::new(exec_workers * 2),
            injector,
            config,
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-batcher".into())
                .spawn(move || batcher_loop(&shared))
                .expect("spawn batcher")
        };
        let workers = (0..exec_workers).map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("serve-exec-{i}"))
                .spawn(move || worker_loop(&shared, i))
                .expect("spawn exec worker")
        });
        let threads = Mutex::new(std::iter::once(batcher).chain(workers).collect());
        Arc::new(ServeRuntime { shared, threads })
    }

    /// Registers `cfg` under its `name`, building the canonical weights
    /// and the model's plan optimizer. The capacity factor is normalized
    /// to the expert count so routing is drop-free — the transparent-
    /// batching precondition (see the module docs).
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] if the name is already registered;
    /// [`ServeError::Plan`] if the model graph cannot be built.
    pub fn register_model(&self, cfg: GptMoeConfig) -> Result<()> {
        self.shared.models.register(&cfg, |cfg| {
            let canonical = canonical_weights(&cfg, self.shared.config.seed)?;
            Ok(self.model_entry(cfg, canonical, None))
        })
    }

    /// Registers `cfg` with caller-supplied weights — the model-store
    /// load path, where the canonical weights (and, optionally, the
    /// prepacked GEMM panels) come from a mapped store file instead of
    /// seeded generation. When `packs` is given, plan builds adopt the
    /// panels instead of re-packing, so a store-loaded replica's first
    /// plan build does no packing work at all.
    ///
    /// The capacity factor is normalized exactly as in
    /// [`register_model`](Self::register_model) — normalization never
    /// changes weight shapes, only routing capacity, so stored weights
    /// stay valid.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] if the name is taken or the weights
    /// don't cover `cfg.gpus` devices; [`ServeError::Plan`] if the model
    /// graph cannot be built.
    pub fn register_model_with_weights(
        &self,
        cfg: GptMoeConfig,
        canonical: CanonicalWeights,
        packs: Option<PackSet>,
    ) -> Result<()> {
        self.shared.models.register(&cfg, |cfg| {
            let packs_len = packs.as_ref().map_or(cfg.gpus, PackSet::len);
            for (what, n) in [("weights", canonical.len()), ("packs", packs_len)] {
                if n != cfg.gpus {
                    let (name, gpus) = (&cfg.name, cfg.gpus);
                    let why = format!("{what} cover {n} devices, model `{name}` needs {gpus}");
                    return Err(ServeError::BadRequest(why));
                }
            }
            Ok(self.model_entry(cfg, canonical, packs.map(Arc::new)))
        })
    }

    /// Builds a registry entry for the already-normalized `cfg`.
    fn model_entry(
        &self,
        cfg: GptMoeConfig,
        canonical: CanonicalWeights,
        packs: Option<Arc<PackSet>>,
    ) -> ModelEntry {
        let lancet = Lancet::new(
            ClusterSpec::of(self.shared.config.cluster, 1),
            cfg.gpus,
            LancetOptions {
                disable_partition: !self.shared.config.partition,
                ..LancetOptions::default()
            },
        );
        // Affinity dispatch: optimize an expert→worker plan against a
        // seeded synthetic routing histogram (Zipf skew + inter-layer
        // affinity). Workers play the role of devices, one per "node",
        // so the search spreads hot experts across the pool and the
        // dispatcher can aim each request at the worker holding its hot
        // expert. Deterministic per (model shape, runtime seed).
        let placement = if self.shared.config.affinity {
            let layers = cfg.moe_layers().len().max(1);
            let traffic = ExpertTraffic::synthetic(
                layers,
                cfg.experts(),
                4096,
                1.2,
                0.8,
                (cfg.hidden * 4) as u64,
                self.shared.config.seed,
            );
            let (plan, _) = optimize_placement(
                &traffic,
                self.shared.exec_workers,
                1,
                &PlacementOptions::default(),
            );
            Some(plan)
        } else {
            None
        };
        ModelEntry { cfg, lancet, canonical, placement, packs }
    }

    /// Submits one request — `ids` is a single sequence of token ids for
    /// `model` — and returns a [`Ticket`] for its response.
    ///
    /// # Errors
    ///
    /// Rejects immediately with [`ServeError::UnknownModel`] /
    /// [`ServeError::BadRequest`] on a malformed request,
    /// [`ServeError::Overloaded`] when the admission queue is at its
    /// bound, or [`ServeError::ShuttingDown`].
    pub fn submit(&self, model: &str, ids: Vec<f32>) -> Result<Ticket> {
        let shared = &self.shared;
        let entry = shared.models.get(model)?;
        if ids.len() != entry.cfg.seq {
            return Err(ServeError::BadRequest(format!(
                "{} token ids, model `{model}` serves sequences of {}",
                ids.len(),
                entry.cfg.seq
            )));
        }
        let vocab = entry.cfg.vocab as f32;
        if let Some(bad) = ids.iter().find(|&&t| t < 0.0 || t >= vocab || t.fract() != 0.0) {
            return Err(ServeError::BadRequest(format!(
                "token id {bad} outside vocabulary of {}",
                entry.cfg.vocab
            )));
        }

        let slot = Arc::new(ResponseSlot::new());
        let pending = Pending { entry, ids, enqueued: Instant::now(), slot: Arc::clone(&slot) };
        shared.admission.admit(pending, &shared.metrics)?;
        Ok(Ticket { slot })
    }

    /// [`submit`](Self::submit), then block for the response.
    ///
    /// # Errors
    ///
    /// Everything `submit` rejects with, plus execution-time failures.
    pub fn submit_blocking(&self, model: &str, ids: Vec<f32>) -> Result<Tensor> {
        self.submit(model, ids)?.wait()
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> ServeStats {
        self.shared.metrics.snapshot(self.queue_len(), self.shared.cache.stats())
    }

    /// The plan cache (for inspection; plans are managed internally).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.shared.cache
    }

    /// The resolved admission-queue bound: the configured `queue_depth`,
    /// or — when that was `0` — `LANCET_SERVE_QUEUE_DEPTH`, falling back
    /// to the built-in default of 256.
    pub fn queue_capacity(&self) -> usize {
        self.shared.admission.depth()
    }

    /// Requests waiting in the admission queue right now. Cheap (one
    /// lock, no snapshot) — the fleet front-end polls this per submit
    /// for its work-stealing decision.
    pub fn queue_len(&self) -> usize {
        self.shared.admission.len()
    }

    /// The runtime's lifecycle phase: [`Phase::Running`] until
    /// [`shutdown`](Self::shutdown) or [`crash`](Self::crash).
    pub fn phase(&self) -> Phase {
        self.shared.admission.phase()
    }

    /// Pre-builds `model`'s execution plan for every batch bucket
    /// (1, 2, 4, …, up to `max_batch` rounded to a power of two) into the
    /// plan cache, so the first real requests measure steady-state
    /// service instead of plan compilation. Management-plane operation:
    /// it bypasses admission, batching, and fault injection, and is
    /// idempotent — buckets already cached are left untouched.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if `model` was never registered;
    /// [`ServeError::Plan`] if a plan cannot be built.
    pub fn warm_model(&self, model: &str) -> Result<()> {
        let entry = self.shared.models.get(model)?;
        let top = bucket_for(self.shared.config.max_batch);
        let mut bucket = 1usize;
        loop {
            self.shared.plan(&entry, bucket, || Ok(()))?;
            if bucket >= top {
                break;
            }
            bucket *= 2;
        }
        Ok(())
    }

    /// Records one request's end-to-end latency (used by `serve-bench`
    /// to attribute the full submit→response time, including the
    /// caller-side wait the runtime can't see).
    #[doc(hidden)]
    pub fn record_external_latency(&self, ms: f64) {
        self.shared.metrics.record_latency(ms);
    }

    /// Stops admissions, drains both queues (every in-flight request
    /// still gets its response), and joins all runtime threads.
    /// Idempotent; also invoked by `Drop`.
    pub fn shutdown(&self) {
        self.shared.admission.drain();
        self.join_threads();
    }

    /// Kills the replica abruptly (chaos testing / fleet fail-over
    /// drills). Unlike [`shutdown`](Self::shutdown) — which executes
    /// everything already admitted — `crash` answers every *queued*
    /// request with [`ServeError::Crashed`] without executing it.
    /// Batches a worker had already started still complete and deliver
    /// normally (they are in no queue), preserving exactly-once
    /// delivery: after `crash` returns, every admitted request has been
    /// answered — with its response or with `Crashed` — and
    /// [`ServeStats::outstanding`] is zero.
    ///
    /// Idempotent, and a later `shutdown` (or `Drop`) is a no-op.
    ///
    /// [`ServeStats::outstanding`]: crate::ServeStats::outstanding
    pub fn crash(&self) {
        let shared = &self.shared;
        // Whatever is still queued was admitted but never started.
        let queued = shared.admission.crash();
        let batched = shared.exec.crash().into_iter().flat_map(|batch| batch.entries);
        deliver_crashed(shared, queued.into_iter().chain(batched));
        self.join_threads();
    }

    /// Joins the runtime's threads; a no-op once they have been joined.
    /// Each exits on its own once its queue has drained or crashed, so
    /// the order does not matter.
    fn join_threads(&self) {
        let threads = std::mem::take(&mut *self.threads.lock().expect("threads lock"));
        for thread in threads {
            thread.join().expect("runtime thread panicked");
        }
    }
}

/// Answers `entries` with [`ServeError::Crashed`], counting each.
fn deliver_crashed(shared: &Shared, entries: impl IntoIterator<Item = Pending>) {
    for pending in entries {
        shared.metrics.crashed.fetch_add(1, Ordering::Relaxed);
        let delivered = pending.slot.deliver(Err(ServeError::Crashed));
        debug_assert!(delivered, "a queued request cannot already have a response");
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The smallest power-of-two bucket that fits `n` requests.
fn bucket_for(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// The batcher: groups admitted requests into per-model buckets, shedding
/// the ones whose latency budget expired, and feeds the exec queue.
/// Once the admission queue has drained empty it drains the exec queue
/// — every admitted request is in it by then — and exits.
fn batcher_loop(shared: &Shared) {
    let max = shared.config.max_batch;
    loop {
        let batch = shared.admission.wait_until(|queue, phase| {
            // A crash is abrupt: the crash drain answers what is queued.
            if phase == Phase::Crashed {
                return Wait::Ready(None);
            }
            shed_expired(shared, queue);
            let Some(front) = queue.front() else {
                return if phase == Phase::Draining { Wait::Ready(None) } else { Wait::Idle };
            };
            let entry = Arc::clone(&front.entry);
            // `None`: a window too long to represent never closes.
            let due = front.enqueued.checked_add(shared.config.batch_window);
            let matching = queue.iter().filter(|p| Arc::ptr_eq(&p.entry, &entry)).count();
            let window_closed = due.is_some_and(|due| Instant::now() >= due);
            if matching >= max || window_closed || phase == Phase::Draining {
                Wait::Ready(Some(extract(queue, entry, max)))
            } else {
                due.map_or(Wait::Idle, Wait::Until)
            }
        });
        let Some(mut batch) = batch else {
            shared.exec.drain();
            return;
        };
        // Injected queue stall: the batcher freezes with the batch in
        // hand (admission lock released — submitters keep queueing).
        if let Some(inj) = &shared.injector {
            if let Some(delay) = inj.batcher_stall() {
                shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay);
            }
        }
        batch.preferred = preferred_worker(shared, &batch);
        // Blocks while the exec queue is full (backpressure). A crash
        // hands the batch back: the workers are exiting, so answer it.
        if let Err(batch) = shared.exec.push_blocking(batch) {
            deliver_crashed(shared, batch.entries);
        }
    }
}

/// Sheds queued requests that have out-waited the latency budget.
fn shed_expired(shared: &Shared, queue: &mut VecDeque<Pending>) {
    let budget = shared.config.latency_budget;
    if budget.is_zero() {
        return;
    }
    let mut kept = VecDeque::with_capacity(queue.len());
    for pending in queue.drain(..) {
        let waited = pending.enqueued.elapsed();
        if waited > budget {
            shared.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
            let delivered = pending.slot.deliver(Err(ServeError::DeadlineExceeded {
                waited_ms: waited.as_secs_f64() * 1e3,
            }));
            debug_assert!(delivered, "a queued request cannot already have a response");
        } else {
            kept.push_back(pending);
        }
    }
    *queue = kept;
}

/// Removes up to `max` requests for `entry`'s model from the queue
/// (preserving the relative order of everything else) and wraps them in
/// a batch.
fn extract(queue: &mut VecDeque<Pending>, entry: Arc<ModelEntry>, max: usize) -> Batch {
    let mut entries = Vec::new();
    let mut rest = VecDeque::with_capacity(queue.len());
    for pending in queue.drain(..) {
        if Arc::ptr_eq(&pending.entry, &entry) && entries.len() < max {
            entries.push(pending);
        } else {
            rest.push_back(pending);
        }
    }
    *queue = rest;
    Batch { entry, entries, preferred: None }
}

/// An exec worker: pops batches, resolves their plan through the cache,
/// executes, and delivers per-request responses. Exits once the batcher
/// is done and the exec queue is empty.
fn worker_loop(shared: &Shared, index: usize) {
    loop {
        let batch = shared.exec.wait_until(|exec, phase| {
            // A crash is abrupt: stop picking up queued batches (the
            // crash drain answers them). The batch this worker may
            // already be running is not in any queue and completes.
            if phase == Phase::Crashed {
                return Wait::Ready(None);
            }
            // Affinity: take the first batch preferring this worker;
            // otherwise steal the front one (preference is soft — a free
            // worker never idles while work is queued).
            let pick = exec.iter().position(|b| b.preferred == Some(index));
            match pick.or(if exec.is_empty() { None } else { Some(0) }) {
                Some(at) => Wait::Ready(exec.remove(at)),
                None if phase == Phase::Draining => Wait::Ready(None),
                None => Wait::Idle,
            }
        });
        let Some(batch) = batch else { return };
        if let Some(preferred) = batch.preferred {
            let requests = batch.entries.len() as u64;
            if preferred == index {
                shared.metrics.placement_hits.fetch_add(requests, Ordering::Relaxed);
            } else {
                shared.metrics.placement_misses.fetch_add(requests, Ordering::Relaxed);
            }
        }
        run_batch(shared, batch);
    }
}

/// The worker a batch should land on: each request's hot expert (a
/// deterministic hash-gate proxy over its token ids — serving has no
/// routed activations to inspect at dispatch time) is mapped through the
/// model's layer-0 placement, and the batch majority wins (ties toward
/// the lower worker index). `None` when affinity is off or the model has
/// no plan.
fn preferred_worker(shared: &Shared, batch: &Batch) -> Option<usize> {
    if !shared.config.affinity || batch.entries.is_empty() {
        return None;
    }
    let plan = batch.entry.placement.as_ref()?;
    let experts = batch.entry.cfg.experts();
    let mut votes = vec![0usize; shared.exec_workers.max(1)];
    for pending in &batch.entries {
        let worker = plan.device_of(0, hot_expert(&pending.ids, experts));
        if let Some(v) = votes.get_mut(worker) {
            *v += 1;
        }
    }
    let (worker, &count) = votes.iter().enumerate().max_by_key(|&(i, &v)| (v, usize::MAX - i))?;
    if count == 0 { None } else { Some(worker) }
}

/// The expert a request's tokens concentrate on, by a deterministic
/// hash gate: each token id hashes to an expert, the most-hit expert
/// wins (ties toward the lower index). A stand-in for the first MoE
/// layer's gate — cheap, stateless, and stable across replays.
fn hot_expert(ids: &[f32], experts: usize) -> usize {
    let experts = experts.max(1);
    let mut counts = vec![0u32; experts];
    for &id in ids {
        let mut h = (id.to_bits() as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        counts[(h % experts as u64) as usize] += 1;
    }
    let mut best = 0;
    for (i, &c) in counts.iter().enumerate() {
        if c > counts[best] {
            best = i;
        }
    }
    best
}

// True on this thread while an *injected* panic unwinds (so the panic
// hook stays quiet for chaos the runtime is about to catch anyway).
thread_local! {
    static INJECTED_PANIC: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that suppresses the report
/// for injected panics and delegates everything else to the previous
/// hook. Only called when fault injection is configured.
fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !INJECTED_PANIC.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// A human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).into()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".into()
    }
}

/// Executes one micro-batch and delivers every response exactly once —
/// even if the serve path panics.
fn run_batch(shared: &Shared, batch: Batch) {
    shared.metrics.batches.fetch_add(1, Ordering::Relaxed);
    shared.metrics.batched_requests.fetch_add(batch.entries.len() as u64, Ordering::Relaxed);
    let Batch { entry, entries, preferred: _ } = batch;

    // Per-request timeout: answer requests that are already past their
    // end-to-end deadline instead of spending executor time on them.
    let timeout = shared.config.request_timeout;
    let mut live = Vec::with_capacity(entries.len());
    for pending in entries {
        let waited = pending.enqueued.elapsed();
        if !timeout.is_zero() && waited > timeout {
            shared.metrics.timed_out.fetch_add(1, Ordering::Relaxed);
            let delivered = pending
                .slot
                .deliver(Err(ServeError::TimedOut { waited_ms: waited.as_secs_f64() * 1e3 }));
            debug_assert!(delivered, "a queued request cannot already have a response");
        } else {
            live.push(pending);
        }
    }
    if live.is_empty() {
        return;
    }

    // Panic isolation: hold every slot outside the unwind boundary, so a
    // panicking serve path (injected or real) still answers each request
    // whose response hadn't been delivered when the panic hit.
    let slots: Vec<Arc<ResponseSlot>> = live.iter().map(|p| Arc::clone(&p.slot)).collect();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        serve_entries(shared, &entry, live);
    }));
    INJECTED_PANIC.with(|f| f.set(false));
    if let Err(payload) = outcome {
        let why = panic_message(payload.as_ref());
        shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
        for slot in &slots {
            // First-write-wins: requests answered before the panic keep
            // their responses; only the rest see the panic error.
            if slot.deliver(Err(ServeError::WorkerPanic(why.clone()))) {
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Serves `entries` as one bucket: execute (with bounded retry on
/// transient failures), degrade to two half-sized buckets if the plan
/// cannot be built, and deliver every response.
fn serve_entries(shared: &Shared, entry: &ModelEntry, entries: Vec<Pending>) {
    let bucket = bucket_for(entries.len());
    let mut attempt = 0u32;
    let result = loop {
        match execute_entries(shared, entry, bucket, &entries) {
            // Transient execution failure: bounded retry with doubling
            // backoff. Plan failures are not retried — a deterministic
            // build fails the same way every time; they degrade below.
            Err(ServeError::Exec(_)) if attempt < shared.config.max_retries => {
                shared.metrics.retried.fetch_add(1, Ordering::Relaxed);
                let backoff = shared.config.retry_backoff * 2u32.saturating_pow(attempt);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                attempt += 1;
            }
            other => break other,
        }
    };
    match result {
        Ok((plan, logits)) => {
            for (row, pending) in entries.iter().enumerate() {
                let response = plan.response(&logits, row);
                let waited_ms = pending.enqueued.elapsed().as_secs_f64() * 1e3;
                // Count before delivering: a waiter that wakes on this
                // response must already see it in the stats ledger.
                shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
                shared.metrics.record_latency(waited_ms);
                let delivered = pending.slot.deliver(Ok(response));
                debug_assert!(delivered, "double delivery for a batched request");
            }
        }
        Err(ServeError::Plan(_)) if entries.len() > 1 => {
            // Graceful degradation: the bucket's plan can't be built, so
            // split the batch and serve each half under a smaller bucket
            // (whose plan builds independently). Recursion bottoms out at
            // single-request batches, which deliver the error typed.
            shared.metrics.degraded.fetch_add(1, Ordering::Relaxed);
            let mut front = entries;
            let back = front.split_off(front.len() / 2);
            serve_entries(shared, entry, front);
            serve_entries(shared, entry, back);
        }
        Err(err) => {
            for pending in &entries {
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                let delivered = pending.slot.deliver(Err(err.clone()));
                debug_assert!(delivered, "double delivery for a failed request");
            }
        }
    }
}

/// One execution attempt: resolve the plan (through the cache), pad the
/// `[bucket, seq]` id tensor, run it. Fault-injection sites live here —
/// each fires at most once per attempt, so retries redraw their fate.
fn execute_entries(
    shared: &Shared,
    entry: &ModelEntry,
    bucket: usize,
    entries: &[Pending],
) -> Result<(Arc<Plan>, Tensor)> {
    if let Some(inj) = &shared.injector {
        if let Some(delay) = inj.worker_delay() {
            shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(delay);
        }
        if inj.worker_panic() {
            shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
            INJECTED_PANIC.with(|f| f.set(true));
            panic!("injected worker panic");
        }
    }
    let plan = shared.plan(entry, bucket, || {
        // Plan faults fire only on a build: cache hits are immune,
        // exactly like a real optimizer failure would be.
        match &shared.injector {
            Some(inj) if inj.plan_fault() => {
                shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Plan("injected plan-build fault".into()))
            }
            _ => Ok(()),
        }
    })?;

    let seq = entry.cfg.seq;
    // Pad with token id 0 — rows are independent under drop-free
    // routing, so padding never leaks into a real request's response.
    let mut data = vec![0.0f32; bucket * seq];
    for (row, pending) in entries.iter().enumerate() {
        data[row * seq..(row + 1) * seq].copy_from_slice(&pending.ids);
    }
    let ids = Tensor::from_vec(vec![bucket, seq], data)
        .map_err(|e| ServeError::BadRequest(e.to_string()))?;
    if let Some(inj) = &shared.injector {
        if inj.exec_fault() {
            shared.metrics.injected_faults.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Exec("injected transient execution fault".into()));
        }
    }
    let exec_started = Instant::now();
    let logits = plan.execute(&ids)?;
    // Device emulation: pad the batch out to the configured service
    // floor, so fleet-scaling runs on small hosts see accelerator-like
    // fixed service times instead of CPU contention.
    let floor = shared.config.service_floor;
    if !floor.is_zero() {
        let elapsed = exec_started.elapsed();
        if elapsed < floor {
            std::thread::sleep(floor - elapsed);
        }
    }
    Ok((plan, logits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_for(0), 1);
        assert_eq!(bucket_for(1), 1);
        assert_eq!(bucket_for(3), 4);
        assert_eq!(bucket_for(8), 8);
        assert_eq!(bucket_for(9), 16);
    }
}
