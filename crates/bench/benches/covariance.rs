//! Ablation benchmark: covariance construction strategies.
//!
//! Compares the historical per-row triangular walk (reimplemented here
//! as `scalar_reference` — the shipped accumulator now block-buffers)
//! against the cache-blocked SYRK-style panel kernel, the numerically
//! safer two-pass centered product, and the scoped-thread shard-and-merge
//! scan across a thread sweep. A columnar-ingest case measures the
//! `RRCB` block-file path end to end (the file through
//! `Scanner::scan`, as `mine --columnar` runs it).
//!
//! `--quick` runs a seconds-long smoke instead: small workload, and a
//! bitwise divergence check between the scalar walk, the blocked
//! kernel, the sharded scan, and the columnar path. It never writes
//! `BENCH_covariance.json`, so CI can gate on it without churning the
//! recorded trajectory.

use bench::trajectory::{measure, BenchReport};
use dataset::columnar::{write_block_file, ColumnarBlockSource};
use dataset::synth::quest::{generate, QuestConfig};
use linalg::Matrix;
use ratio_rules::covariance::CovarianceAccumulator;
use ratio_rules::parallel::covariance_parallel;
use ratio_rules::resilience::{ScanPolicy, Scanner};

/// The pre-blocking accumulator: one rank-1 triangular update per row.
/// Kept verbatim as the benchmark baseline (and bitwise oracle — the
/// blocked kernel preserves the per-entry accumulation order).
struct ScalarReference {
    m: usize,
    n: usize,
    col_sums: Vec<f64>,
    raw_upper: Vec<f64>,
}

impl ScalarReference {
    fn new(m: usize) -> Self {
        ScalarReference {
            m,
            n: 0,
            col_sums: vec![0.0; m],
            raw_upper: vec![0.0; m * (m + 1) / 2],
        }
    }

    #[inline]
    fn upper_index(&self, j: usize, l: usize) -> usize {
        (j * (2 * self.m - j + 1)) / 2 + (l - j)
    }

    fn push_row(&mut self, row: &[f64]) {
        self.n += 1;
        for (j, &xj) in row.iter().enumerate() {
            self.col_sums[j] += xj;
            let base = self.upper_index(j, j);
            for (off, &xl) in row[j..].iter().enumerate() {
                self.raw_upper[base + off] += xj * xl;
            }
        }
    }
}

fn quest_matrix(n: usize, m: usize) -> dataset::DataMatrix {
    let cfg = QuestConfig {
        n_rows: n,
        n_items: m,
        ..QuestConfig::default()
    };
    generate(&cfg, 7).expect("quest")
}

fn scalar_scan(x: &Matrix) -> ScalarReference {
    let mut acc = ScalarReference::new(x.cols());
    for row in x.row_iter() {
        acc.push_row(row);
    }
    acc
}

fn blocked_scan(x: &Matrix) -> CovarianceAccumulator {
    let mut acc = CovarianceAccumulator::new(x.cols());
    acc.push_block(x.data(), x.rows()).expect("push_block");
    acc
}

/// Temp `RRCB` file holding the workload, for the columnar-ingest case,
/// in a directory of its own that is removed with it on drop.
struct BlockFile {
    dir: std::path::PathBuf,
    path: std::path::PathBuf,
}

impl Drop for BlockFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn block_file(x: &Matrix, tag: &str) -> BlockFile {
    let dir = std::env::temp_dir().join(format!("rr_bench_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{tag}.rrcb"));
    let file = BlockFile { dir, path };
    write_block_file(&file.path, x.cols(), x.rows(), x.data()).expect("write rrcb");
    file
}

fn columnar_scan(path: &std::path::Path) -> CovarianceAccumulator {
    let mut src = ColumnarBlockSource::open(path).expect("open rrcb");
    let mut scanner = Scanner::new(src.n_cols(), ScanPolicy::Strict);
    scanner.scan(&mut src).expect("scan");
    scanner.into_parts().0
}

/// Asserts the blocked, sharded, and columnar scans reproduce the
/// scalar walk bit for bit (sharded up to the documented merge
/// reassociation — it is checked for run-to-run determinism instead).
fn divergence_check(x: &Matrix, path: &std::path::Path, threads: usize) {
    let scalar = scalar_scan(x);
    let (n, sums, upper) = blocked_scan(x).parts();
    assert_eq!(n, scalar.n, "blocked row count diverged");
    assert_eq!(sums, scalar.col_sums, "blocked col sums diverged");
    assert_eq!(upper, scalar.raw_upper, "blocked triangle diverged");
    let (cn, csums, cupper) = columnar_scan(path).parts();
    assert_eq!(cn, scalar.n, "columnar row count diverged");
    assert_eq!(csums, scalar.col_sums, "columnar col sums diverged");
    assert_eq!(cupper, scalar.raw_upper, "columnar triangle diverged");
    let a = covariance_parallel(x, threads).expect("parallel").parts();
    let b = covariance_parallel(x, threads).expect("parallel").parts();
    assert_eq!(a, b, "sharded scan is not run-to-run deterministic");
}

/// The 20k x 100 workload through every construction strategy, recorded
/// as medians + rows/s in `BENCH_covariance.json` at the repo root.
fn emit_trajectory() {
    let n = 20_000usize;
    let data = quest_matrix(n, 100);
    let x = data.matrix();
    let rows = Some(n as u64);
    let file = block_file(x, "trajectory_20k");
    let path = &file.path;
    // Refuse to record numbers for a kernel that changed the answer.
    divergence_check(x, path, 4);

    let mut report = BenchReport::new("covariance");
    report.push(measure("scalar_reference_20k_x_100", 5, rows, || {
        std::hint::black_box(scalar_scan(x).raw_upper[0]);
    }));
    report.push(measure("single_pass_paper_20k_x_100", 5, rows, || {
        let mut acc = CovarianceAccumulator::new(x.cols());
        for row in x.row_iter() {
            acc.push_row(row).expect("push");
        }
        std::hint::black_box(acc.finalize().expect("finalize"));
    }));
    report.push(measure("blocked_kernel_20k_x_100", 5, rows, || {
        std::hint::black_box(blocked_scan(x).finalize().expect("finalize"));
    }));
    report.push(measure("two_pass_centered_20k_x_100", 5, rows, || {
        std::hint::black_box(dataset::stats::covariance_two_pass(x).expect("two-pass"));
    }));
    for threads in [1usize, 2, 4, 8] {
        report.push(measure(
            &format!("parallel_{threads}_20k_x_100"),
            5,
            rows,
            || {
                std::hint::black_box(
                    covariance_parallel(x, threads)
                        .expect("parallel")
                        .finalize()
                        .expect("fin"),
                );
            },
        ));
    }
    report.push(measure("columnar_ingest_20k_x_100", 5, rows, || {
        std::hint::black_box(columnar_scan(path).finalize().expect("finalize"));
    }));
    // Wide workload: at m = 100 the 40 KB packed triangle is cache
    // resident and blocking is nearly neutral; at m = 600 the 1.4 MB
    // triangle spills, and streaming it once per panel instead of once
    // per row is where the blocked kernel pays.
    let wide = quest_matrix(2_000, 600);
    let xw = wide.matrix();
    report.push(measure("scalar_reference_2k_x_600", 5, Some(2_000), || {
        std::hint::black_box(scalar_scan(xw).raw_upper[0]);
    }));
    report.push(measure("blocked_kernel_2k_x_600", 5, Some(2_000), || {
        std::hint::black_box(blocked_scan(xw).finalize().expect("finalize"));
    }));
    report.derive(
        "speedup_blocked_vs_scalar_wide",
        report
            .speedup("scalar_reference_2k_x_600", "blocked_kernel_2k_x_600")
            .expect("both measured"),
    );
    report.derive(
        "speedup_blocked_vs_scalar",
        report
            .speedup("scalar_reference_20k_x_100", "blocked_kernel_20k_x_100")
            .expect("both measured"),
    );
    report.derive(
        "speedup_parallel_8_vs_single_pass",
        report
            .speedup("single_pass_paper_20k_x_100", "parallel_8_20k_x_100")
            .expect("both measured"),
    );
    report.derive(
        "speedup_columnar_vs_scalar",
        report
            .speedup("scalar_reference_20k_x_100", "columnar_ingest_20k_x_100")
            .expect("both measured"),
    );
    let out = report
        .write_to_repo_root(env!("CARGO_MANIFEST_DIR"))
        .expect("write BENCH_covariance.json");
    println!("trajectory -> {}", out.display());
}

/// Seconds-long CI smoke: a small workload through every scan path plus
/// the bitwise divergence check. Writes nothing.
fn quick_smoke() {
    let data = quest_matrix(2_000, 50);
    let x = data.matrix();
    let file = block_file(x, "quick_2k");
    let path = &file.path;
    divergence_check(x, path, 4);
    let mut report = BenchReport::new("covariance_quick");
    report.push(measure("scalar_reference_2k_x_50", 2, Some(2_000), || {
        std::hint::black_box(scalar_scan(x).raw_upper[0]);
    }));
    report.push(measure("blocked_kernel_2k_x_50", 2, Some(2_000), || {
        std::hint::black_box(blocked_scan(x).finalize().expect("finalize"));
    }));
    report.push(measure("columnar_ingest_2k_x_50", 2, Some(2_000), || {
        std::hint::black_box(columnar_scan(path).finalize().expect("finalize"));
    }));
    // Printed, never persisted: --quick must not churn the trajectory.
    println!("{}", report.to_json());
    println!("quick bench OK: blocked/columnar/sharded agree with the scalar walk");
}

fn main() {
    if std::env::args().any(|a| a == "--quick") {
        quick_smoke();
        return;
    }
    emit_trajectory();
}
