//! Root equivalence suite: every covariance scan path mines the same
//! model.
//!
//! The blocked panel kernel keeps per-entry accumulation in row order,
//! so the row-at-a-time serial scan, a whole-matrix `push_block`, and
//! the columnar `RRCB` block-file path must produce *bit-identical*
//! mined rules. The sharded scan reassociates once at its deterministic
//! merge tree, so it is held to run-to-run bit-identity plus tolerance
//! agreement with the serial fold.

use dataset::columnar::{write_block_file, ColumnarBlockSource};
use dataset::source::CsvFileSource;
use linalg::Matrix;
use ratio_rules::covariance::CovarianceAccumulator;
use ratio_rules::cutoff::Cutoff;
use ratio_rules::miner::RatioRuleMiner;
use ratio_rules::parallel::{covariance_parallel, tree_merge};
use ratio_rules::resilience::{ScanCheckpoint, ScanPolicy, Scanner};
use ratio_rules::rules::RuleSet;
use std::path::{Path, PathBuf};

/// A directory of one test's own under the system temp dir, removed with
/// everything in it when dropped, so also when the test fails.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn workdir(test: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("rr_equiv_{test}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

fn workload() -> Matrix {
    workload_rows(300)
}

/// The workload's first `n` rows. Low-rank structure plus deterministic
/// jitter: interesting spectra, no randomness, reproducible bits.
fn workload_rows(n: usize) -> Matrix {
    Matrix::from_fn(n, 6, |i, j| {
        let t = 1.0 + i as f64;
        let base = t * [6.0, 5.0, 4.0, 3.0, 2.0, 1.0][j];
        base + ((i * 13 + j * 7) % 17) as f64 * 0.01
    })
}

fn assert_rules_bits_eq(a: &RuleSet, b: &RuleSet, what: &str) {
    assert_eq!(a.k(), b.k(), "{what}: rule count");
    for (x, y) in a.column_means().iter().zip(b.column_means()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: means");
    }
    for (ra, rb) in a.rules().iter().zip(b.rules()) {
        assert_eq!(
            ra.eigenvalue.to_bits(),
            rb.eigenvalue.to_bits(),
            "{what}: eigenvalue"
        );
        for (u, v) in ra.loadings.iter().zip(&rb.loadings) {
            assert_eq!(u.to_bits(), v.to_bits(), "{what}: loadings");
        }
    }
}

#[test]
fn rowwise_blocked_and_columnar_mining_are_bit_identical() {
    let x = workload();
    let cutoff = Cutoff::FixedK(3);

    // Serial reference: one row at a time, the paper's scan.
    let mut serial = CovarianceAccumulator::new(x.cols());
    for row in x.row_iter() {
        serial.push_row(row).unwrap();
    }
    let reference = RatioRuleMiner::new(cutoff).finish(&serial).unwrap();

    // Whole-matrix panel path.
    let mut blocked = CovarianceAccumulator::new(x.cols());
    blocked.push_block(x.data(), x.rows()).unwrap();
    let blocked_rules = RatioRuleMiner::new(cutoff).finish(&blocked).unwrap();
    assert_rules_bits_eq(&reference, &blocked_rules, "blocked");

    // Columnar path: CSV-free RRCB file through the resilient pipeline.
    let dir = workdir("columnar");
    let path = dir.join("workload.rrcb");
    write_block_file(&path, x.cols(), x.rows(), x.data()).unwrap();
    let mut src = ColumnarBlockSource::open(&path).unwrap();
    let mut scanner = Scanner::new(x.cols(), ScanPolicy::Strict);
    scanner.scan(&mut src).unwrap();
    let (acc, scan) = scanner.into_parts();
    assert_eq!(scan.rows_absorbed, 300);
    // Same miner as the reference: the solver is held constant so any
    // bit difference must come from the scan path itself.
    let columnar_rules = RatioRuleMiner::new(cutoff).finish(&acc).unwrap();
    assert_rules_bits_eq(&reference, &columnar_rules, "columnar");
}

/// The default `mine` path: a CSV of many 64 KiB chunks, written with
/// round-trip `{}` cells, scanned by `Scanner::scan` (both workers parse
/// its chunks, and each chunk's rows fold in file order), mines the bits
/// of the row-at-a-time reference over the same rows.
#[test]
fn multi_chunk_csv_mining_is_bit_identical_to_the_rowwise_reference() {
    let x = workload_rows(30_000);
    let cutoff = Cutoff::FixedK(3);
    let mut serial = CovarianceAccumulator::new(x.cols());
    for row in x.row_iter() {
        serial.push_row(row).unwrap();
    }
    let reference = RatioRuleMiner::new(cutoff).finish(&serial).unwrap();

    let dir = workdir("csv");
    let path = dir.join("workload.csv");
    let mut text = String::from("a,b,c,d,e,f\n");
    for row in x.row_iter() {
        let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        text.push_str(&cells.join(","));
        text.push('\n');
    }
    assert!(
        text.len() > 16 * 64 * 1024,
        "{} bytes is too few chunks",
        text.len()
    );
    std::fs::write(&path, text).unwrap();
    for run in 0..3 {
        let mut src = CsvFileSource::open(&path, true).unwrap();
        let mut scanner = Scanner::new(x.cols(), ScanPolicy::Strict);
        assert_eq!(scanner.scan(&mut src).unwrap().rows_absorbed, x.rows());
        let rules = RatioRuleMiner::new(cutoff)
            .finish(scanner.accumulator())
            .unwrap();
        assert_rules_bits_eq(&reference, &rules, &format!("CSV, run {run}"));
    }
}

/// The distributed-mining bit-identity claim, minus the sockets: shard
/// accumulators round-tripped through the wire checkpoint JSON and
/// folded through the public [`tree_merge`] land on the exact bits of
/// the in-process sharded scan. This is the property the chaos e2e
/// suite (tests/distributed_chaos.rs) re-proves with real workers.
#[test]
fn wire_roundtripped_shard_merge_is_bit_identical_to_in_process() {
    let x = workload();
    let n = x.rows();
    for shards in [2usize, 4, 8] {
        let oracle = covariance_parallel(&x, shards).unwrap();

        // Same contiguous partition as covariance_sharded, scanned
        // row-wise (the worker's path), serialized through the f64-exact
        // checkpoint JSON (the wire format), parsed back, and merged.
        let chunk = n.div_ceil(shards);
        let mut accs = Vec::new();
        let mut lo = 0;
        while lo < n {
            let hi = (lo + chunk).min(n);
            let mut acc = CovarianceAccumulator::new(x.cols());
            for i in lo..hi {
                acc.push_row(x.row(i)).unwrap();
            }
            let wire = ScanCheckpoint::from_accumulator(&acc).to_json();
            let cp = ScanCheckpoint::from_json(&wire).unwrap();
            accs.push(cp.accumulator().unwrap());
            lo = hi;
        }
        let merged = tree_merge(accs).unwrap();

        let (n1, s1, r1) = oracle.parts();
        let (n2, s2, r2) = merged.parts();
        assert_eq!(n1, n2, "shards={shards}: row count");
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&s1), bits(&s2), "shards={shards}: column sums");
        assert_eq!(bits(&r1), bits(&r2), "shards={shards}: raw moments");
    }
}

#[test]
fn sharded_scan_is_deterministic_and_agrees_with_serial() {
    let x = workload();
    let mut serial = CovarianceAccumulator::new(x.cols());
    for row in x.row_iter() {
        serial.push_row(row).unwrap();
    }
    let (c_serial, means_serial, _) = serial.finalize().unwrap();

    for threads in [2usize, 4, 8] {
        // Run-to-run bit-identity at a fixed thread count: the merge
        // tree is a function of the shard count, not the schedule.
        let a = covariance_parallel(&x, threads).unwrap().parts();
        let b = covariance_parallel(&x, threads).unwrap().parts();
        assert_eq!(a, b, "threads={threads}: sharded scan must be deterministic");

        // Tolerance agreement with the serial fold (the tree merge
        // reassociates the sums once, so bits may differ).
        let (c_par, means_par, _) = covariance_parallel(&x, threads)
            .unwrap()
            .finalize()
            .unwrap();
        for (m1, m2) in means_serial.iter().zip(&means_par) {
            assert!((m1 - m2).abs() <= 1e-10 * m1.abs().max(1.0), "{m1} vs {m2}");
        }
        let scale = c_serial.max_abs().max(1.0);
        assert!(
            c_serial.max_abs_diff(&c_par).unwrap() <= 1e-10 * scale,
            "threads={threads}: covariance diverged beyond merge tolerance"
        );
    }
}
