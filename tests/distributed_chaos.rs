//! Distributed-mining chaos suite: shard workers + supervising
//! coordinator, in-process, under a seeded fault schedule.
//!
//! The contract under test is the strongest one the coordinator makes:
//! a distributed mine over `W` workers either produces an accumulator
//! **bit-identical** to the single-process `mine --shards W` oracle
//! (`covariance_parallel`), or it fails loudly with an accurate
//! accounting of what was lost — never a silently wrong model. Every
//! fault class the [`serve::shard::ChaosPlan`] taxonomy names is
//! exercised: crash (with checkpoint-resumed reassignment), hang,
//! slow, corrupt, truncate, and coordinator-side double delivery.

use std::path::{Path, PathBuf};
use std::time::Duration;

use dataset::retry::BackoffPolicy;
use linalg::Matrix;
use ratio_rules::covariance::CovarianceAccumulator;
use ratio_rules::parallel::covariance_parallel;
use ratio_rules::resilience::ScanPolicy;
use ratio_rules::RatioRuleError;
use serve::coordinator::{coordinate, CoordinatorConfig};
use serve::shard::{ChaosPlan, ShardConfig, ShardWorker};

const ROWS: usize = 240;
const COLS: usize = 5;

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

/// The directory of the one test in this file that writes files.
fn workdir() -> TempDir {
    let dir = std::env::temp_dir().join(format!("rr_chaos_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

/// Deterministic low-rank-plus-jitter workload (same family as the
/// scan-equivalence suite): interesting spectra, reproducible bits.
fn workload() -> Matrix {
    Matrix::from_fn(ROWS, COLS, |i, j| {
        let t = 1.0 + i as f64;
        let base = t * [5.0, 4.0, 3.0, 2.0, 1.0][j];
        base + ((i * 13 + j * 7) % 17) as f64 * 0.01
    })
}

fn labels() -> Vec<String> {
    (0..COLS).map(|j| format!("c{j}")).collect()
}

fn start_worker(data: Matrix, chaos: ChaosPlan, dir: Option<&Path>) -> ShardWorker {
    ShardWorker::start(
        ShardConfig {
            addr: "127.0.0.1:0".into(),
            io_timeout: Duration::from_secs(5),
            chaos,
            checkpoint_dir: dir.map(Path::to_path_buf),
        },
        data,
        labels(),
    )
    .expect("bind shard worker")
}

fn start_fleet(plans: &[ChaosPlan], dir: Option<&Path>) -> Vec<ShardWorker> {
    plans
        .iter()
        .map(|chaos| start_worker(workload(), chaos.clone(), dir))
        .collect()
}

/// Fast-timing coordinator config: the fleet is in-process and already
/// bound, so warm-ups and deadlines can be tight without flaking.
fn cfg_for(fleet: &[ShardWorker], shards: usize) -> CoordinatorConfig {
    CoordinatorConfig {
        workers: fleet.iter().map(ShardWorker::addr).collect(),
        shards: Some(shards),
        policy: ScanPolicy::Strict,
        deadline: Duration::from_secs(2),
        backoff: BackoffPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(5),
            multiplier: 1.0,
            max_delay: Duration::from_millis(20),
        },
        reassign_budget: 4,
        max_lost_shards: 0,
        checkpoint_dir: None,
        connect_warmup: Duration::from_millis(100),
        chaos: ChaosPlan::none(),
    }
}

fn assert_acc_bits_eq(a: &CovarianceAccumulator, b: &CovarianceAccumulator, what: &str) {
    let (n1, s1, r1) = a.parts();
    let (n2, s2, r2) = b.parts();
    assert_eq!(n1, n2, "{what}: row counts");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&s1), bits(&s2), "{what}: column sums");
    assert_eq!(bits(&r1), bits(&r2), "{what}: raw moments");
}

/// A clean fleet of W workers merges to the exact bits of the
/// single-process `mine --shards W` oracle, for W in {2, 4, 8}.
#[test]
fn clean_distributed_mine_is_bit_identical_to_single_process() {
    let x = workload();
    for w in [2usize, 4, 8] {
        let fleet = start_fleet(&vec![ChaosPlan::none(); w], None);
        let outcome = coordinate(&cfg_for(&fleet, w)).expect("clean run");
        let oracle = covariance_parallel(&x, w).unwrap();
        assert_acc_bits_eq(&outcome.acc, &oracle, &format!("{w} workers"));
        assert_eq!(outcome.shards, w);
        assert_eq!(outcome.shards_merged, w);
        assert_eq!(outcome.shards_lost, 0);
        assert_eq!(outcome.labels, labels());
        assert!(!outcome.is_degraded());
        for worker in fleet {
            worker.shutdown();
        }
    }
}

/// A distributed mine is one span tree: each shard request runs on its
/// own dispatch thread, yet its span is a child of the `coordinate`
/// span rather than a root of its own.
#[test]
fn clean_run_traces_every_shard_request_under_coordinate() {
    use obs::names::{SPAN_COORDINATE, SPAN_COORD_SHARD_REQUEST};
    let fleet = start_fleet(&[ChaosPlan::none(), ChaosPlan::none()], None);
    obs::set_enabled(true);
    let outcome = coordinate(&cfg_for(&fleet, 2)).expect("clean run");
    obs::set_enabled(false);
    assert_eq!(outcome.shards_merged, 2);
    for worker in fleet {
        worker.shutdown();
    }
    // Tests running alongside may record while recording is on; every
    // finished coordinate tree must show the same parent link.
    let trees: Vec<_> = obs::trace::trace_ids()
        .into_iter()
        .filter_map(obs::trace::get_trace)
        .filter(|spans| spans.iter().any(|s| s.name == SPAN_COORDINATE))
        .collect();
    assert!(!trees.is_empty(), "no coordinate span in the trace store");
    let mut linked = 0;
    for spans in &trees {
        let root = spans.iter().find(|s| s.name == SPAN_COORDINATE).unwrap();
        for request in spans.iter().filter(|s| s.name == SPAN_COORD_SHARD_REQUEST) {
            assert_eq!(request.parent_id, root.span_id, "{spans:?}");
            linked += 1;
        }
    }
    assert!(linked >= 2, "{linked} shard requests under coordinate");
}

/// Seeded chaos across the full fault taxonomy, for 3 seeds x {2, 4, 8}
/// workers. Each run must either converge to the oracle's exact bits or
/// fail with the budget-exhausted error the CLI maps to exit 3 — and
/// across the grid the schedule must actually have injected faults.
#[test]
fn seeded_chaos_converges_bit_identically_or_fails_loudly() {
    let x = workload();
    let mut faults_observed = 0usize;
    for seed in [11u64, 22, 33] {
        for w in [2usize, 4, 8] {
            // Hang is the slowest fault (deadline timeouts); confine it
            // to one seed so the grid stays fast.
            let hang = seed == 33;
            let plan = ChaosPlan {
                seed,
                slow_rate: 0.15,
                corrupt_rate: 0.20,
                truncate_rate: 0.15,
                hang_rate: if hang { 0.15 } else { 0.0 },
                hang_ms: 400,
                slow_ms: 10,
                ..ChaosPlan::none()
            };
            let fleet = start_fleet(&vec![plan; w], None);
            let mut cfg = cfg_for(&fleet, w);
            if hang {
                cfg.deadline = Duration::from_millis(200);
            }
            cfg.chaos = ChaosPlan {
                seed,
                duplicate_rate: 0.5,
                ..ChaosPlan::none()
            };
            match coordinate(&cfg) {
                Ok(outcome) => {
                    let oracle = covariance_parallel(&x, w).unwrap();
                    assert_acc_bits_eq(
                        &outcome.acc,
                        &oracle,
                        &format!("seed {seed}, {w} workers"),
                    );
                    assert!(!outcome.is_degraded(), "nothing was lost or quarantined");
                    faults_observed += outcome.retries
                        + outcome.reassignments
                        + outcome.duplicates_dropped;
                }
                Err(e) => {
                    // Workers that flake past the retry + reassignment
                    // budgets are *allowed* to fail the run — but only
                    // with the loud, exit-3 error, never a wrong model.
                    assert!(
                        matches!(e, RatioRuleError::BudgetExhausted { .. }),
                        "seed {seed}, {w} workers: unexpected error {e}"
                    );
                    faults_observed += 1;
                }
            }
            for worker in fleet {
                worker.shutdown();
            }
        }
    }
    assert!(
        faults_observed > 0,
        "rates this high must inject faults somewhere in a 3x3 grid"
    );
}

/// A worker that crashes mid-scan leaves a checkpoint behind; the
/// coordinator declares it dead, reassigns its shard to the survivor,
/// and the resumed scan still lands on the oracle's exact bits.
#[test]
fn crashed_worker_shard_is_reassigned_and_resumes_from_its_checkpoint() {
    let x = workload();
    let dir = workdir();
    let plans = [
        ChaosPlan {
            seed: 1,
            crash_rate: 1.0,
            ..ChaosPlan::none()
        },
        ChaosPlan::none(),
    ];
    let fleet = start_fleet(&plans, Some(&dir));
    let mut cfg = cfg_for(&fleet, 2);
    cfg.checkpoint_dir = Some(dir.to_path_buf());
    cfg.connect_warmup = Duration::from_millis(50);
    let outcome = coordinate(&cfg).expect("run must recover via reassignment");

    assert_eq!(outcome.workers_lost, 1);
    assert_eq!(outcome.reassignments, 1);
    assert_eq!(outcome.checkpoint_resumes, 1, "the crash checkpoint was used");
    assert_eq!(outcome.shards_lost, 0);
    assert_acc_bits_eq(
        &outcome.acc,
        &covariance_parallel(&x, 2).unwrap(),
        "checkpoint-resumed",
    );
    // The crash dropped the half-scanned shard [0, 120) to disk, and the
    // worker is observably dead (the CLI would now exit 1).
    assert!(dir.join("shard_0_120.json").exists());
    assert!(fleet[0].is_dead());
    for worker in fleet {
        worker.shutdown();
    }
}

/// At-least-once delivery: with every payload replayed, the per-shard
/// slot guard must drop the duplicates — absorbing one twice would
/// double its rows and break bit-identity.
#[test]
fn duplicate_deliveries_are_dropped_not_double_counted() {
    let x = workload();
    let fleet = start_fleet(&[ChaosPlan::none(), ChaosPlan::none()], None);
    let mut cfg = cfg_for(&fleet, 2);
    cfg.chaos = ChaosPlan {
        seed: 9,
        duplicate_rate: 1.0,
        ..ChaosPlan::none()
    };
    let outcome = coordinate(&cfg).unwrap();
    assert_eq!(outcome.duplicates_dropped, 2, "one replay per shard, both dropped");
    assert_eq!(outcome.acc.n_rows(), ROWS, "no row was counted twice");
    assert_acc_bits_eq(
        &outcome.acc,
        &covariance_parallel(&x, 2).unwrap(),
        "double delivery",
    );
    for worker in fleet {
        worker.shutdown();
    }
}

/// With no reassignment budget and no checkpoint, a crashing worker's
/// shard is unrecoverable: inside `max_lost_shards` the run completes
/// degraded with an exact account of the missing rows; beyond it the
/// run fails with the exit-3 error.
#[test]
fn unrecoverable_shard_degrades_within_budget_and_fails_beyond_it() {
    let x = workload();
    let crashy = || {
        [
            ChaosPlan {
                seed: 5,
                crash_rate: 1.0,
                ..ChaosPlan::none()
            },
            ChaosPlan::none(),
        ]
    };

    // Within budget: a partial-data model plus an accurate report.
    let fleet = start_fleet(&crashy(), None);
    let mut cfg = cfg_for(&fleet, 2);
    cfg.reassign_budget = 0;
    cfg.max_lost_shards = 1;
    cfg.connect_warmup = Duration::from_millis(50);
    let outcome = coordinate(&cfg).expect("one lost shard is inside the budget");
    assert!(outcome.is_degraded());
    assert_eq!(outcome.shards_lost, 1);
    assert_eq!(outcome.lost_ranges, vec![(0, ROWS / 2)]);
    assert_eq!(outcome.acc.n_rows(), ROWS - ROWS / 2);
    // The surviving half is exactly the serial fold of rows [120, 240).
    let mut survivor = CovarianceAccumulator::new(COLS);
    for i in ROWS / 2..ROWS {
        survivor.push_row(x.row(i)).unwrap();
    }
    assert_acc_bits_eq(&outcome.acc, &survivor, "surviving shard");
    let summary = outcome.summary();
    assert!(summary.contains("LOST 1 shard(s)"), "{summary}");
    assert!(summary.contains("rows [0, 120)"), "{summary}");
    for worker in fleet {
        worker.shutdown();
    }

    // Beyond budget: the loud failure the CLI maps to exit 3.
    let fleet = start_fleet(&crashy(), None);
    let mut cfg = cfg_for(&fleet, 2);
    cfg.reassign_budget = 0;
    cfg.max_lost_shards = 0;
    cfg.connect_warmup = Duration::from_millis(50);
    match coordinate(&cfg) {
        Err(RatioRuleError::BudgetExhausted { quarantined, .. }) => {
            assert_eq!(quarantined, 1, "exactly one shard was unrecoverable");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    for worker in fleet {
        worker.shutdown();
    }
}

fn workload_with_nan() -> Matrix {
    let clean = workload();
    Matrix::from_fn(ROWS, COLS, |i, j| {
        if i == 7 && j == 3 {
            f64::NAN
        } else {
            clean.row(i)[j]
        }
    })
}

/// A worker whose quarantine budget blows answers 422; the coordinator
/// must treat that as fatal (a retry cannot un-quarantine rows), while a
/// tolerant policy completes degraded with the quarantine accounted.
#[test]
fn worker_quarantine_budget_exhaustion_aborts_the_run() {
    // Zero-tolerance policy: the NaN row is fatal.
    let fleet: Vec<ShardWorker> = (0..2)
        .map(|_| start_worker(workload_with_nan(), ChaosPlan::none(), None))
        .collect();
    let mut cfg = cfg_for(&fleet, 2);
    cfg.policy = ScanPolicy::Quarantine {
        max_bad_rows: Some(0),
        max_bad_fraction: None,
    };
    match coordinate(&cfg) {
        Err(RatioRuleError::BudgetExhausted { limit, .. }) => {
            assert!(limit.contains("shard [0, 120)"), "{limit}");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    for worker in fleet {
        worker.shutdown();
    }

    // Tolerant policy: the run completes, degraded, with the quarantine
    // attributed to the corrupt-cell reason.
    let fleet: Vec<ShardWorker> = (0..2)
        .map(|_| start_worker(workload_with_nan(), ChaosPlan::none(), None))
        .collect();
    let mut cfg = cfg_for(&fleet, 2);
    cfg.policy = ScanPolicy::quarantine_unlimited();
    let outcome = coordinate(&cfg).unwrap();
    assert!(outcome.is_degraded());
    assert_eq!(outcome.rows_quarantined, 1);
    assert_eq!(outcome.by_reason, (1, 0, 0));
    assert_eq!(outcome.acc.n_rows(), ROWS - 1);
    for worker in fleet {
        worker.shutdown();
    }
}

/// Workers serving different datasets cannot be merged; the boot probe
/// rejects the fleet before any scan is dispatched.
#[test]
fn dataset_shape_disagreement_is_rejected_at_boot() {
    let small = Matrix::from_fn(10, COLS, |i, j| (i + j) as f64);
    let fleet = vec![
        start_worker(workload(), ChaosPlan::none(), None),
        start_worker(small, ChaosPlan::none(), None),
    ];
    match coordinate(&cfg_for(&fleet, 2)) {
        Err(RatioRuleError::Invalid(msg)) => {
            assert!(msg.contains("disagree"), "{msg}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    for worker in fleet {
        worker.shutdown();
    }
}
