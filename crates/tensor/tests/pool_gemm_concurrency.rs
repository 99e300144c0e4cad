//! Concurrency stress for the shared worker pool and the GEMM engine.
//!
//! Several threads submit `par_ranges` jobs (and whole GEMMs) to the one
//! global pool at the same time. Every task must run exactly once, every
//! write must land, and every product must stay bit-identical to the
//! reference kernel however the submitters interleave.

use lancet_tensor::pool::{self, SharedSliceMut};
use lancet_tensor::{gemm, TensorRng};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn concurrent_matmuls_from_many_threads() {
    let mut rng = TensorRng::seed(42);
    let a = rng.uniform(vec![130, 300], -1.0, 1.0);
    let b = rng.uniform(vec![300, 170], -1.0, 1.0);
    let reference = gemm::matmul_reference(&a, &b, false, false).unwrap();
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..30 {
                    let y = gemm::matmul_tiled(&a, &b, false, false, 0).unwrap();
                    assert_eq!(y.data(), reference.data(), "tiled diverged under concurrency");
                }
            });
        }
    });
}

#[test]
fn concurrent_transposed_batched_matmuls_from_many_threads() {
    // The expert dX shape class: per-expert `B` stored `(E, N, K)` and
    // transposed while packing, with packing and compute both split over
    // the pool.
    let mut rng = TensorRng::seed(43);
    let a = rng.uniform(vec![2, 70, 300], -1.0, 1.0);
    let b = rng.uniform(vec![2, 90, 300], -1.0, 1.0);
    let reference = gemm::batched_matmul_reference_t(&a, &b, true).unwrap();
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                for _ in 0..10 {
                    let y = gemm::batched_matmul_tiled_t(&a, &b, true, 0).unwrap();
                    assert_eq!(y.data(), reference.data(), "transposed batched diverged under concurrency");
                }
            });
        }
    });
}

#[test]
fn overlapping_jobs_complete_all_tasks() {
    for round in 0..200 {
        let counters: Vec<Vec<AtomicUsize>> = (0..2)
            .map(|_| (0..64).map(|_| AtomicUsize::new(0)).collect())
            .collect();
        std::thread::scope(|s| {
            for c in &counters {
                s.spawn(move || {
                    pool::par_ranges(64, 8, |r| {
                        for i in r {
                            std::thread::sleep(std::time::Duration::from_micros(50));
                            c[i].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                });
            }
        });
        for (t, c) in counters.iter().enumerate() {
            for (i, x) in c.iter().enumerate() {
                assert_eq!(
                    x.load(Ordering::Relaxed),
                    1,
                    "round {round}: submitter {t} task {i} ran wrong number of times"
                );
            }
        }
    }
}

#[test]
fn overlapping_writes_are_complete() {
    for round in 0..200 {
        let mut bufs = vec![vec![0.0f32; 4096]; 2];
        let (b0, b1) = bufs.split_at_mut(1);
        std::thread::scope(|s| {
            for (t, buf) in [&mut b0[0], &mut b1[0]].into_iter().enumerate() {
                s.spawn(move || {
                    let view = SharedSliceMut::new(buf.as_mut_slice());
                    pool::par_ranges(4096, 8, |r| {
                        // SAFETY: `par_ranges` hands out disjoint ranges.
                        let chunk = unsafe { view.range_mut(r.clone()) };
                        for (off, x) in chunk.iter_mut().enumerate() {
                            *x = (r.start + off + t) as f32 + 1.0;
                        }
                    });
                });
            }
        });
        for (t, buf) in bufs.iter().enumerate() {
            for (i, &x) in buf.iter().enumerate() {
                assert_eq!(x, (i + t) as f32 + 1.0, "round {round} submitter {t} elem {i}");
            }
        }
    }
}
