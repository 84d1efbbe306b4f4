//! Emits `BENCH_batch.json`: batched vs. scalar membership throughput,
//! seeded vs. one-shot hashing, across filter sizes straddling the cache
//! hierarchy.
//!
//! ```console
//! $ cargo run --release -p shbf-bench --bin bench_batch -- \
//!       --sizes 1048576,8388608,67108864 --measure-ms 400 --out BENCH_batch.json
//! ```
//!
//! `--before PATH` embeds an earlier output of this binary (a run at the
//! parent commit, say) as the document's `"before"` field.

use shbf_bench::batch::{run, BatchBenchConfig};

fn usage() -> ! {
    eprintln!(
        "usage: bench_batch [--sizes BITS,BITS,...] [--k K] [--batch N] \
         [--probes N] [--measure-ms MS] [--seed S] [--before PATH] [--out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = BatchBenchConfig::default();
    let mut out: Option<String> = None;
    let mut before: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = || args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--sizes" => {
                cfg.m_sizes = value()
                    .split(',')
                    .map(|t| t.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                i += 2;
            }
            "--k" => {
                cfg.k = value().parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--batch" => {
                cfg.batch = value().parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--probes" => {
                cfg.probes = value().parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--measure-ms" => {
                cfg.measure_ms = value().parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--seed" => {
                cfg.seed = value().parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--before" => {
                let path = value();
                before = Some(std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("bench_batch: cannot read {path}: {e}");
                    std::process::exit(1);
                }));
                i += 2;
            }
            "--out" => {
                out = Some(value());
                i += 2;
            }
            _ => usage(),
        }
    }

    eprintln!(
        "bench_batch: k = {}, batch = {}, probes = {}, seed = {}",
        cfg.k, cfg.batch, cfg.probes, cfg.seed
    );
    let (points, json) = run(&cfg, before.as_deref());
    println!(
        "{:>12} {:>14} {:>14} {:>16} {:>16} {:>8} {:>8}",
        "m_bits",
        "scalar_seeded",
        "batch_seeded",
        "scalar_one_shot",
        "batch_one_shot",
        "seeded",
        "one_shot"
    );
    for p in &points {
        println!(
            "{:>12} {:>14.0} {:>14.0} {:>16.0} {:>16.0} {:>7.2}x {:>7.2}x",
            p.m_bits,
            p.series[0].ops_per_sec,
            p.series[1].ops_per_sec,
            p.series[2].ops_per_sec,
            p.series[3].ops_per_sec,
            p.batch_vs_scalar_seeded,
            p.batch_vs_scalar_one_shot
        );
    }
    if let Some(path) = out {
        std::fs::write(&path, &json).unwrap_or_else(|e| {
            eprintln!("bench_batch: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("bench_batch: wrote {path}");
    } else {
        print!("{json}");
    }
}
