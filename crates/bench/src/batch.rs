//! Batched vs. scalar membership throughput — the `BENCH_batch.json`
//! emitter.
//!
//! Measures `ShbfM` membership queries along two axes the digest-once /
//! prefetch work optimizes:
//!
//! * **hashing**: seeded family (`k/2 + 1` full Murmur3 passes per query)
//!   vs. one-shot family (1 pass + index mixing);
//! * **memory**: scalar query loop (one serialized cache miss per probe on
//!   large filters) vs. the chunked prefetched batch pipeline.
//!
//! Filter sizes should straddle the cache hierarchy: `2²⁰` bits (128 KiB,
//! ~L2), `2²³` (1 MiB, ~LLC), `2²⁶` (8 MiB, DRAM-resident on most parts).
//! The probe mix is half members, half misses, interleaved. Every series
//! counts its positive verdicts and the harness asserts scalar and batch
//! agree within each family — throughput numbers are only comparable if
//! behaviour is identical. The speedups compare batch with scalar within
//! one family, so each isolates the batch kernel from the hashing lever.

use std::time::{Duration, Instant};

use shbf_core::ShbfM;
use shbf_hash::{splitmix64, FamilyKind};

/// Configuration for [`run`].
#[derive(Debug, Clone)]
pub struct BatchBenchConfig {
    /// Logical filter sizes in bits.
    pub m_sizes: Vec<usize>,
    /// Nominal hash positions `k` (even).
    pub k: usize,
    /// Probes handed to each `contains_batch` call.
    pub batch: usize,
    /// Total probe keys per size (half members, half misses).
    pub probes: usize,
    /// Measurement budget per series in milliseconds (the series of a
    /// size run interleaved, so a size takes about four times this).
    pub measure_ms: u64,
    /// Master seed for keys and filters.
    pub seed: u64,
}

impl Default for BatchBenchConfig {
    fn default() -> Self {
        BatchBenchConfig {
            m_sizes: vec![1 << 20, 1 << 23, 1 << 26],
            k: 8,
            batch: 1024,
            probes: 1 << 16,
            measure_ms: 400,
            seed: 0xB47C_4BE2,
        }
    }
}

/// One measured series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series name (`scalar_seeded`, `batch_one_shot`, …).
    pub name: &'static str,
    /// Passes times probes over the series' total time, in queries per
    /// second.
    pub ops_per_sec: f64,
    /// Positive verdicts over one probe pass (behavioural fingerprint).
    pub positives: u64,
}

/// All series at one filter size.
#[derive(Debug, Clone)]
pub struct SizePoint {
    /// Logical bits `m`.
    pub m_bits: usize,
    /// Elements inserted.
    pub n_keys: usize,
    /// The four series.
    pub series: Vec<Series>,
    /// `batch_seeded` over `scalar_seeded` throughput, the median over
    /// rounds: the batch kernel alone, with hashing held fixed.
    pub batch_vs_scalar_seeded: f64,
    /// `batch_one_shot` over `scalar_one_shot` throughput, the median over
    /// rounds.
    pub batch_vs_scalar_one_shot: f64,
}

/// The series of one size, in the order they run in each round.
const SERIES: [&str; 4] = [
    "scalar_seeded",
    "batch_seeded",
    "scalar_one_shot",
    "batch_one_shot",
];

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn keys(n: usize, seed: u64) -> Vec<[u8; 16]> {
    (0..n as u64)
        .map(|i| {
            let a = splitmix64(seed ^ i);
            let b = splitmix64(a ^ 0x9E37_79B9_7F4A_7C15);
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&a.to_le_bytes());
            key[8..].copy_from_slice(&b.to_le_bytes());
            key
        })
        .collect()
}

/// Benchmarks one filter size; panics if any series' verdicts diverge.
pub fn run_size(cfg: &BatchBenchConfig, m: usize) -> SizePoint {
    // m/n = 16 with k = 8: a lightly loaded filter (fill ≈ 0.39) so the
    // probe mix exercises both short-circuit negatives and full positives.
    let n = (m / 16).max(1024);
    let members = keys(n, cfg.seed);
    let misses = keys(cfg.probes / 2, cfg.seed ^ 0x00FF_00FF_00FF_00FF);

    // Interleave members and misses so branch prediction sees a real mix.
    let mut probes: Vec<[u8; 16]> = Vec::with_capacity(cfg.probes);
    for i in 0..cfg.probes / 2 {
        probes.push(members[i % members.len()]);
        probes.push(misses[i]);
    }

    let mut seeded = ShbfM::new(m, cfg.k, cfg.seed).unwrap();
    seeded.insert_batch(&members);
    let mut one_shot = ShbfM::with_family(m, cfg.k, 57, FamilyKind::OneShot, cfg.seed).unwrap();
    one_shot.insert_batch(&members);

    let budget = Duration::from_millis(cfg.measure_ms);
    let count_scalar = |f: &ShbfM| {
        let mut hits = 0u64;
        for p in &probes {
            hits += u64::from(f.contains(p));
        }
        hits
    };
    let mut verdicts: Vec<bool> = Vec::with_capacity(cfg.batch);
    let mut count_batch = |f: &ShbfM| {
        let mut hits = 0u64;
        for chunk in probes.chunks(cfg.batch) {
            f.contains_batch_into(chunk, &mut verdicts);
            hits += verdicts.iter().map(|&v| u64::from(v)).sum::<u64>();
        }
        hits
    };

    // The four series run in rounds of one pass each, back to back, so a
    // change of host speed hits a round's four passes alike; each ratio
    // is the median of its per-round ratios. One warm-up pass per series
    // (page-in, branch warm-up) fixes its verdict count, the behavioural
    // fingerprint every later pass must repeat.
    let mut pass = |series: usize| match series {
        0 => count_scalar(&seeded),
        1 => count_batch(&seeded),
        2 => count_scalar(&one_shot),
        _ => count_batch(&one_shot),
    };
    let positives: Vec<u64> = (0..4).map(&mut pass).collect();
    let mut elapsed = [Duration::ZERO; 4];
    let (mut seeded_ratios, mut one_shot_ratios) = (Vec::new(), Vec::new());
    while elapsed.iter().sum::<Duration>() < 4 * budget {
        let mut round = [Duration::ZERO; 4];
        for (series, time) in round.iter_mut().enumerate() {
            let t = Instant::now();
            let p = std::hint::black_box(pass(series));
            *time = t.elapsed();
            assert_eq!(p, positives[series], "verdicts changed between passes");
        }
        for (total, time) in elapsed.iter_mut().zip(round) {
            *total += time;
        }
        seeded_ratios.push(round[0].as_secs_f64() / round[1].as_secs_f64());
        one_shot_ratios.push(round[2].as_secs_f64() / round[3].as_secs_f64());
    }
    // Zero behavioural divergence within each filter: scalar == batch.
    assert_eq!(
        positives[0], positives[1],
        "seeded batch verdicts diverge from scalar at m = {m}"
    );
    assert_eq!(
        positives[2], positives[3],
        "one-shot batch verdicts diverge from scalar at m = {m}"
    );

    let passes = seeded_ratios.len() as f64;
    let series = SERIES
        .iter()
        .zip(elapsed)
        .zip(positives)
        .map(|((&name, time), positives)| Series {
            name,
            ops_per_sec: passes * probes.len() as f64 / time.as_secs_f64(),
            positives,
        })
        .collect();
    SizePoint {
        m_bits: m,
        n_keys: n,
        series,
        batch_vs_scalar_seeded: median(seeded_ratios),
        batch_vs_scalar_one_shot: median(one_shot_ratios),
    }
}

/// Runs every configured size and renders the `BENCH_batch.json` document.
/// `before`, when given, is an earlier document of this emitter (say, a
/// run at the parent commit); it is embedded verbatim as the `"before"`
/// field so one file holds both sides of a change.
pub fn run(cfg: &BatchBenchConfig, before: Option<&str>) -> (Vec<SizePoint>, String) {
    let points: Vec<SizePoint> = cfg.m_sizes.iter().map(|&m| run_size(cfg, m)).collect();
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"batch_query\",\n");
    json.push_str(&crate::harness::provenance_json_fields());
    json.push_str("  \"unit\": \"membership queries per second\",\n");
    json.push_str(&format!("  \"k\": {},\n", cfg.k));
    json.push_str(&format!("  \"batch_chunk\": {},\n", shbf_core::BATCH_CHUNK));
    json.push_str(&format!("  \"batch_size\": {},\n", cfg.batch));
    json.push_str(&format!("  \"probes\": {},\n", cfg.probes));
    json.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    json.push_str("  \"sizes\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"m_bits\": {},\n", p.m_bits));
        json.push_str(&format!("      \"n_keys\": {},\n", p.n_keys));
        json.push_str("      \"series\": {\n");
        for (j, s) in p.series.iter().enumerate() {
            json.push_str(&format!(
                "        \"{}\": {{ \"ops_per_sec\": {:.0}, \"positives\": {} }}{}\n",
                s.name,
                s.ops_per_sec,
                s.positives,
                if j + 1 < p.series.len() { "," } else { "" }
            ));
        }
        json.push_str("      },\n");
        json.push_str(&format!(
            "      \"batch_vs_scalar_seeded\": {:.2},\n",
            p.batch_vs_scalar_seeded
        ));
        json.push_str(&format!(
            "      \"batch_vs_scalar_one_shot\": {:.2}\n",
            p.batch_vs_scalar_one_shot
        ));
        json.push_str(&format!(
            "    }}{}\n",
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]");
    if let Some(before) = before {
        json.push_str(",\n  \"before\": ");
        json.push_str(&before.trim().replace('\n', "\n  "));
    }
    json.push_str("\n}\n");
    (points, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_emits_consistent_json() {
        let cfg = BatchBenchConfig {
            m_sizes: vec![1 << 14],
            probes: 1 << 10,
            measure_ms: 5,
            ..BatchBenchConfig::default()
        };
        let (points, json) = run(&cfg, None);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].series.len(), 4);
        for s in &points[0].series {
            assert!(s.ops_per_sec > 0.0, "{} measured nothing", s.name);
        }
        assert!(json.contains("\"batch_one_shot\""));
        assert!(json.contains("\"m_bits\": 16384"));
        assert!(json.contains("\"batch_vs_scalar_seeded\""));
        assert!(json.contains("\"nproc\""));

        // A second run embeds the first as its `before` side.
        let (_, both) = run(&cfg, Some(&json));
        assert!(both.contains("\"before\": {"));
        assert_eq!(both.matches("\"batch_vs_scalar_one_shot\"").count(), 2);
        assert!(both.ends_with("}\n}\n"), "{both}");
    }
}
