//! Ablation: multi-core scaling of the concurrent filters (extension —
//! the paper's wire-speed motivation §1.1 taken to a multi-core pipeline).
//!
//! Measures aggregate Mqps of the lock-free ShBF_M and the sharded counting
//! filter as reader threads grow, plus mixed read/write throughput.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shbf_concurrent::{ConcurrentShbfM, ShardedCShbfM};

use crate::figs::common::{half_positive_mix, member_keys};
use crate::harness::{f4, RunConfig, Table};

fn run_readers<F>(threads: usize, queries: &[[u8; 13]], secs: f64, op: F) -> f64
where
    F: Fn(&[u8]) -> bool + Sync,
{
    let total = AtomicU64::new(0);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(secs);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let total = &total;
            let op = &op;
            scope.spawn(move || {
                let mut local = 0u64;
                let mut ix = t * 7919;
                while std::time::Instant::now() < deadline {
                    for _ in 0..1024 {
                        ix = (ix + 1) % queries.len();
                        std::hint::black_box(op(&queries[ix]));
                    }
                    local += 1024;
                }
                total.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    total.load(Ordering::Relaxed) as f64 / secs / 1e6
}

/// Runs the ablation.
pub fn run(cfg: &RunConfig) {
    cfg.banner("Ablation: multi-core scaling (lock-free & sharded filters)");
    let n = cfg.scaled(200_000, 20_000);
    let m = n * 14;
    let members = member_keys(n, cfg.seed);
    let mix = half_positive_mix(&members, cfg.seed ^ 0xBA11);

    let lockfree = Arc::new(ConcurrentShbfM::new(m, 8, cfg.seed).unwrap());
    let sharded = Arc::new(ShardedCShbfM::new(m, 8, 16, cfg.seed).unwrap());
    for key in &members {
        lockfree.insert(key);
        sharded.insert(key);
    }

    let secs = if cfg.quick { 0.05 } else { 0.25 };
    let mut t = Table::new(
        "ablation_parallel",
        &format!("aggregate read Mqps vs threads (n={n}, m={m}, k=8)"),
        &[
            "threads",
            "lock-free ShBF_M",
            "sharded CShBF_M",
            "lock-free scaling",
        ],
    );
    let base = run_readers(1, &mix, secs, |q| lockfree.contains(q));
    for threads in [1usize, 2, 4, 8] {
        let lf = if threads == 1 {
            base
        } else {
            run_readers(threads, &mix, secs, |q| lockfree.contains(q))
        };
        let sh = run_readers(threads, &mix, secs, |q| sharded.contains(q));
        t.row(vec![threads.to_string(), f4(lf), f4(sh), f4(lf / base)]);
    }
    t.emit(cfg);
}
