//! Decode lifecycle contracts: shutdown racing a submitter loses no
//! stream, the stats ledger counts only admitted requests, and a model
//! name registers once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use lancet_decode::{DecodeConfig, DecodeModel, DecodeRuntime, DecodeSession, ServeError};
use lancet_ir::GateKind;
use lancet_models::GptMoeConfig;
use lancet_serve::canonical_weights;

const ITERATIONS: usize = 1_000;
const WATCHDOG: Duration = Duration::from_secs(120);
/// More busy-spinning submitters than a small host has cores, so some
/// are preempted between their admission check and their enqueue — the
/// window a racy admission path loses requests in.
const SUBMITTERS: usize = 3;

fn tiny() -> GptMoeConfig {
    GptMoeConfig::tiny(1, GateKind::Switch)
}

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

/// Start → register → (submitters ∥ shutdown once a submitter holds a
/// ticket), then every granted stream must run to completion. A request
/// admitted after the scheduler has exited would never finish.
#[test]
fn shutdown_races_a_submitter_without_losing_streams() {
    watchdog(|| {
        let cfg = tiny();
        for _ in 0..ITERATIONS {
            let runtime =
                DecodeRuntime::start(DecodeConfig { queue_depth: 4, ..DecodeConfig::default() });
            runtime.register_model(cfg.clone()).unwrap();
            let started = AtomicBool::new(false);
            let tickets: Vec<_> = std::thread::scope(|scope| {
                let submitters: Vec<_> = (0..SUBMITTERS)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut tickets = Vec::new();
                            loop {
                                match runtime.submit(&cfg.name, &[1], 1) {
                                    Ok(ticket) => {
                                        tickets.push(ticket);
                                        started.store(true, Ordering::Release);
                                    }
                                    Err(ServeError::Overloaded { .. }) => {}
                                    Err(ServeError::ShuttingDown) => return tickets,
                                    Err(other) => panic!("unexpected rejection: {other}"),
                                }
                            }
                        })
                    })
                    .collect();
                while !started.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                runtime.shutdown();
                submitters.into_iter().flat_map(|s| s.join().unwrap()).collect()
            });
            for ticket in tickets {
                assert_eq!(ticket.collect().unwrap().len(), 1, "a drained stream completes");
            }
        }
    });
}

/// Overload rejections are counted as rejections, never as submissions,
/// so the ledger balances once the admitted streams finish.
#[test]
fn rejected_submissions_leave_nothing_outstanding() {
    let cfg = tiny();
    let runtime = DecodeRuntime::start(DecodeConfig {
        queue_depth: 1,
        max_inflight: 1,
        ..DecodeConfig::default()
    });
    runtime.register_model(cfg.clone()).unwrap();
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for i in 0..6u32 {
        match runtime.submit(&cfg.name, &[i % 11], 32) {
            Ok(ticket) => tickets.push(ticket),
            Err(ServeError::Overloaded { depth }) => {
                assert_eq!(depth, 1);
                rejected += 1;
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert!(rejected > 0, "one slot and one queue place cannot admit 6 instant submits");
    let admitted = tickets.len() as u64;
    for ticket in tickets {
        ticket.collect().unwrap();
    }
    runtime.shutdown();
    let stats = runtime.stats();
    assert_eq!(stats.submitted, admitted);
    assert_eq!(stats.rejected_overload, rejected);
    assert_eq!(stats.completed, admitted);
    assert_eq!(stats.outstanding(), 0);
}

/// A second registration under a taken name is refused and leaves the
/// first model — its weights included — serving.
#[test]
fn duplicate_registration_is_rejected() {
    let cfg = tiny();
    let runtime = DecodeRuntime::start(DecodeConfig::default());
    runtime.register_model(cfg.clone()).unwrap();
    assert!(matches!(runtime.register_model(cfg.clone()), Err(ServeError::BadRequest(_))));
    let other_weights = canonical_weights(&cfg, 0xbad).unwrap();
    assert!(matches!(
        runtime.register_model_with_weights(cfg.clone(), other_weights, None),
        Err(ServeError::BadRequest(_))
    ));

    // The runtime's default seed: the weights of the first registration.
    let normalized = cfg.clone().with_capacity_factor(cfg.experts() as f64);
    let canonical = canonical_weights(&normalized, DecodeConfig::default().seed).unwrap();
    let model = Arc::new(DecodeModel::new(&normalized, &canonical).unwrap());
    let prompt = [3, 1, 4];
    let mut session = DecodeSession::new(model, prompt.len() + 4);
    let mut solo = vec![session.prefill(&prompt).unwrap()];
    while solo.len() < 4 {
        let last = *solo.last().unwrap();
        solo.push(session.step(last).unwrap());
    }
    assert_eq!(runtime.submit(&cfg.name, &prompt, 4).unwrap().collect().unwrap(), solo);
    runtime.shutdown();
}
