//! Lifecycle contracts: the shared queue's phase rules, knob resolution
//! and the model registry, then stress — start a runtime, race
//! submitters against its shutdown (or crash), and require every
//! admitted ticket to resolve. A lost wakeup hangs `shutdown`; a request
//! admitted after the batcher has exited hangs its ticket. Either way
//! the watchdog fails the test after a fixed wall time instead of
//! letting the suite hang.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;
use lancet_serve::{
    resolve_knob, BoundedQueue, Metrics, Phase, Registry, ServeConfig, ServeError, ServeRuntime,
    Ticket, Wait,
};

const ITERATIONS: usize = 1_000;
const WATCHDOG: Duration = Duration::from_secs(120);
/// More busy-spinning submitters than a small host has cores, so some
/// are preempted between their admission check and their enqueue — the
/// window a racy admission path loses requests in.
const SUBMITTERS: usize = 3;

/// Runs `body` on its own thread and fails if it has not finished within
/// [`WATCHDOG`]. A hung body thread is abandoned; the harness exits anyway.
fn watchdog(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let thread = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(WATCHDOG) {
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("hung for {WATCHDOG:?}"),
        // Finished, or panicked and dropped its sender: join reports which.
        _ => thread.join().expect("stress body panicked"),
    }
}

/// One start → register → (submitters ∥ stop) cycle: `stop` runs once a
/// submitter holds its first ticket, so it always overlaps a stream of
/// submits. Returns the tickets granted before admission closed.
fn cycle(stop: impl FnOnce(&ServeRuntime)) -> Vec<Ticket> {
    let cfg = GptMoeConfig::tiny(1, GateKind::Switch);
    // One bucket, no partition search and a short queue keep each cycle
    // to one cheap plan build and a handful of executions.
    let runtime = ServeRuntime::start(ServeConfig {
        queue_depth: 4,
        max_batch: 1,
        batch_window: Duration::ZERO,
        exec_workers: 1,
        partition: false,
        ..ServeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    let ids: Vec<f32> = (0..cfg.seq).map(|t| (t % cfg.vocab) as f32).collect();
    let started = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut tickets = Vec::new();
                    loop {
                        match runtime.submit(&cfg.name, ids.clone()) {
                            Ok(ticket) => {
                                tickets.push(ticket);
                                started.store(true, Ordering::Release);
                            }
                            Err(ServeError::Overloaded { .. }) => {}
                            Err(ServeError::ShuttingDown | ServeError::Crashed) => return tickets,
                            Err(other) => panic!("unexpected rejection: {other}"),
                        }
                    }
                })
            })
            .collect();
        while !started.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        stop(&runtime);
        submitters.into_iter().flat_map(|s| s.join().unwrap()).collect()
    })
}

#[test]
fn shutdown_races_submitters_without_losing_tickets() {
    watchdog(|| {
        for _ in 0..ITERATIONS {
            for ticket in cycle(ServeRuntime::shutdown) {
                ticket.wait().expect("graceful shutdown serves every admitted request");
            }
        }
    });
}

#[test]
fn crash_races_submitters_without_losing_tickets() {
    watchdog(|| {
        for _ in 0..ITERATIONS {
            for ticket in cycle(ServeRuntime::crash) {
                match ticket.wait() {
                    Ok(_) | Err(ServeError::Crashed) => {}
                    Err(other) => panic!("a crash answers Ok or Crashed, got {other}"),
                }
            }
        }
    });
}

/// After a crash the runtime reports it, and a later shutdown is a no-op.
#[test]
fn crash_is_final() {
    let runtime: Arc<ServeRuntime> = ServeRuntime::start(ServeConfig {
        exec_workers: 1,
        ..ServeConfig::default()
    });
    runtime.crash();
    runtime.shutdown();
    assert_eq!(runtime.phase(), Phase::Crashed);
    let cfg = GptMoeConfig::tiny(1, GateKind::Switch);
    runtime.register_model(cfg.clone()).unwrap();
    let ids = vec![0.0; cfg.seq];
    assert!(matches!(runtime.submit(&cfg.name, ids), Err(ServeError::Crashed)));
}

#[test]
fn knob_resolution_order() {
    // A variable no other test reads: env mutation is process-wide.
    const VAR: &str = "LANCET_LIFECYCLE_TEST_KNOB";
    std::env::remove_var(VAR);
    assert_eq!(resolve_knob(0, VAR, 7), 7, "unset ⇒ default");
    for (value, want) in [("12", 12), (" 5 ", 5), ("0", 7), ("-3", 7), ("x", 7), ("", 7)] {
        std::env::set_var(VAR, value);
        assert_eq!(resolve_knob(0, VAR, 7), want, "env {value:?}");
    }
    assert_eq!(resolve_knob(3, VAR, 7), 3, "explicit beats env");
    std::env::remove_var(VAR);
}

#[test]
fn admission_follows_the_phase() {
    let (q, metrics) = (BoundedQueue::new(1), Metrics::new());
    q.admit(1, &metrics).unwrap();
    assert_eq!(q.admit(2, &metrics), Err(ServeError::Overloaded { depth: 1 }));
    q.drain();
    assert_eq!(q.admit(3, &metrics), Err(ServeError::ShuttingDown));
    assert_eq!(q.crash(), vec![1]);
    assert_eq!(q.admit(4, &metrics), Err(ServeError::Crashed));
    q.drain();
    assert_eq!(q.phase(), Phase::Crashed, "a crash is final");
    assert_eq!(q.push_blocking(5), Err(5));
    let stats = metrics.snapshot(q.len(), Default::default());
    assert_eq!((stats.submitted, stats.rejected_overload), (1, 1), "only admissions count");
}

#[test]
fn drain_wakes_an_idle_consumer() {
    let q = Arc::new(BoundedQueue::<u32>::new(4));
    let consumer = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            q.wait_until(|items, phase| {
                items.clear();
                if phase == Phase::Running { Wait::Idle } else { Wait::Ready(phase) }
            })
        })
    };
    std::thread::sleep(Duration::from_millis(5));
    q.admit(1, &Metrics::new()).unwrap();
    q.drain();
    assert_eq!(consumer.join().unwrap(), Phase::Draining);
    assert!(q.is_empty());
}

#[test]
fn blocked_producer_resumes_when_room_frees() {
    let q = Arc::new(BoundedQueue::new(1));
    q.push_blocking(0).unwrap();
    let producer = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || q.push_blocking(1))
    };
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(q.wait_until(|items, _| Wait::Ready(items.pop_front())), Some(0));
    assert_eq!(producer.join().unwrap(), Ok(()));
    assert_eq!(q.len(), 1);
}

#[test]
fn registry_normalizes_and_rejects_duplicates() {
    let registry = Registry::default();
    let cfg = GptMoeConfig::tiny(1, GateKind::Switch);
    registry.register(&cfg, |c| Ok(c.capacity_factor)).unwrap();
    assert_eq!(*registry.get(&cfg.name).unwrap(), cfg.experts() as f64, "drop-free capacity");
    assert!(matches!(registry.register(&cfg, |_| Ok(0.0)), Err(ServeError::BadRequest(_))));
    assert_eq!(*registry.get(&cfg.name).unwrap(), cfg.experts() as f64, "first entry kept");
    assert_eq!(registry.get("nope").unwrap_err(), ServeError::UnknownModel("nope".into()));
}

/// A batch window too long to represent never closes: a full batch
/// still dispatches, and shutdown flushes a partial one.
#[test]
fn unbounded_batch_window_still_dispatches() {
    let runtime = ServeRuntime::start(ServeConfig {
        max_batch: 2,
        batch_window: Duration::MAX,
        exec_workers: 1,
        partition: false,
        ..ServeConfig::default()
    });
    let cfg = GptMoeConfig::tiny(1, GateKind::Switch);
    runtime.register_model(cfg.clone()).unwrap();
    let ids = vec![1.0; cfg.seq];
    let full: Vec<_> = (0..2).map(|_| runtime.submit(&cfg.name, ids.clone()).unwrap()).collect();
    for ticket in full {
        ticket.wait().unwrap();
    }
    let partial = runtime.submit(&cfg.name, ids).unwrap();
    runtime.shutdown();
    partial.wait().unwrap();
}
