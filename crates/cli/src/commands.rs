//! Subcommand implementations. Each takes parsed [`Options`] and returns
//! the text to print, so tests can drive them without spawning
//! processes.

use crate::args::{parse_cutoff, parse_holed_row, Options};
use crate::{CliError, Result};
use dataset::columnar::ColumnarBlockSource;
use dataset::fault::{FaultPlan, FaultyRowSource};
use dataset::holes::HoledRow;
use dataset::retry::{BackoffPolicy, RetryingSource};
use dataset::source::{CsvFileSource, RowSource};
use dataset::split::train_test_split;
use ratio_rules::covariance::CovarianceAccumulator;
use ratio_rules::cutoff::Cutoff;
use ratio_rules::guessing::GuessingErrorEvaluator;
use ratio_rules::interpret;
use ratio_rules::miner::{EigenSolver, RatioRuleMiner};
use ratio_rules::outlier::OutlierDetector;
use ratio_rules::predictor::{ColAvgs, Predictor, RuleSetPredictor};
use ratio_rules::reconstruct::fill_holes;
use ratio_rules::resilience::{
    check_fraction, EigenStage, JacobiStage, LanczosStage, QlStage, ResilientMiner, ScanCheckpoint,
    ScanPolicy, ScanReport, Scanner, ServedModel,
};
use ratio_rules::rules::RuleSet;
use ratio_rules::visualize::project_2d;

/// Boolean switches per command, on top of
/// [`crate::args::GLOBAL_SWITCHES`]. A command missing from this table is
/// unknown. Keeping the sets explicit means a value flag added later
/// (like `--metrics-out`) can never be mis-parsed as a switch.
const COMMAND_SWITCHES: &[(&str, &[&str])] = &[
    ("mine", &["no-header", "degrade", "columnar", "flight"]),
    ("convert", &["no-header"]),
    ("interpret", &[]),
    ("fill", &[]),
    ("outliers", &["no-header"]),
    ("project", &["no-header"]),
    ("evaluate", &["no-header"]),
    ("impute", &["no-header"]),
    ("whatif", &[]),
    ("card", &["no-header"]),
    ("profile", &["no-header", "flight"]),
    ("serve", &["shed-degrade"]),
    ("serve-bench", &["quick"]),
    ("publish", &["no-activate", "shadow"]),
    ("mine-shard", &["no-header"]),
    ("mine-distributed", &["degrade", "flight"]),
];

/// Switch set for a command; `None` means the command doesn't exist.
fn switches_for(cmd: &str) -> Option<&'static [&'static str]> {
    COMMAND_SWITCHES
        .iter()
        .find(|(name, _)| *name == cmd)
        .map(|(_, switches)| *switches)
}

/// Options every command accepts (observability plumbing lives in
/// [`run`], not in the individual commands).
const OBS_OPTS: &[&str] = &["trace", "metrics-out"];

/// `allow_only` plus the global observability options.
fn allow_with_obs(opts: &Options, allowed: &[&str]) -> Result<()> {
    let mut all: Vec<&str> = allowed.to_vec();
    all.extend_from_slice(OBS_OPTS);
    opts.allow_only(&all)
}

fn load_csv(opts: &Options) -> Result<dataset::DataMatrix> {
    let path = opts.require("input")?;
    Ok(dataset::csv::read_csv_file(
        path,
        !opts.switch("no-header"),
    )?)
}

fn load_model(opts: &Options) -> Result<RuleSet> {
    let path = opts.require("model")?;
    let json = std::fs::read_to_string(path)?;
    Ok(ratio_rules::model_json::rules_from_str(&json)?)
}

/// Like [`load_model`] but accepts the degraded `{"col_avgs": ...}`
/// documents the resilience ladder writes; `serve` uses this so a
/// degraded mine still serves (with the `DEGRADED` response header).
fn load_served_model(opts: &Options) -> Result<ServedModel> {
    let path = opts.require("model")?;
    let json = std::fs::read_to_string(path)?;
    Ok(ratio_rules::model_json::model_from_str(&json)?)
}

/// `--max-bad-rows` / `--max-bad-fraction` → quarantine policy; neither →
/// strict (today's behaviour).
fn parse_scan_policy(opts: &Options) -> Result<ScanPolicy> {
    let max_bad_rows: Option<usize> = opts
        .get("max-bad-rows")
        .map(|s| {
            s.parse()
                .map_err(|_| CliError::new(format!("--max-bad-rows: cannot parse {s:?}")))
        })
        .transpose()?;
    let max_bad_fraction: Option<f64> = opts
        .get("max-bad-fraction")
        .map(|s| -> Result<f64> {
            let f = s
                .parse()
                .map_err(|_| CliError::new(format!("--max-bad-fraction: cannot parse {s:?}")))?;
            Ok(check_fraction("--max-bad-fraction", f)?)
        })
        .transpose()?;
    Ok(if max_bad_rows.is_some() || max_bad_fraction.is_some() {
        ScanPolicy::Quarantine {
            max_bad_rows,
            max_bad_fraction,
        }
    } else {
        ScanPolicy::Strict
    })
}

/// Parses `--ladder jacobi,ql,lanczos` (or `none` for an empty ladder —
/// chaos testing's forced total eigensolve failure).
fn parse_ladder(spec: &str) -> Result<Vec<Box<dyn EigenStage>>> {
    if spec == "none" {
        return Ok(Vec::new());
    }
    spec.split(',')
        .map(str::trim)
        .map(|name| -> Result<Box<dyn EigenStage>> {
            match name {
                "jacobi" => Ok(Box::new(JacobiStage)),
                "ql" => Ok(Box::new(QlStage)),
                "lanczos" => Ok(Box::new(LanczosStage::default())),
                other => Err(CliError::new(format!(
                    "--ladder: unknown stage {other:?} (expected jacobi, ql, lanczos, or none)"
                ))),
            }
        })
        .collect()
}

/// Fault-injection plan from `--fault-rate` / `--fault-seed` (`None` when
/// no faults are requested).
fn parse_fault_plan(opts: &Options) -> Result<Option<FaultPlan>> {
    let rate = check_fraction("--fault-rate", opts.get_parsed("fault-rate", 0.0)?)?;
    if rate <= 0.0 {
        return Ok(None);
    }
    let seed: u64 = opts.get_parsed("fault-seed", 42)?;
    Ok(Some(FaultPlan::uniform(seed, rate)))
}

fn render_scan_report(report: &ScanReport) -> String {
    let mut out = format!(
        "scan: {} rows absorbed, {} quarantined ({} corrupt, {} arity, {} source), \
         {} transient retries\n",
        report.rows_absorbed,
        report.rows_quarantined,
        report.by_reason.0,
        report.by_reason.1,
        report.by_reason.2,
        report.transient_retries,
    );
    if report.resumed_from > 0 {
        out.push_str(&format!(
            "scan: resumed from checkpoint at row {}\n",
            report.resumed_from
        ));
    }
    for q in report.details.iter().take(5) {
        out.push_str(&format!(
            "  quarantined row {}: {} ({})\n",
            q.position,
            q.reason.name(),
            q.detail
        ));
    }
    out
}

/// `--lanczos MAXK` → the Lanczos top-`MAXK` eigensolver, else dense.
/// The `--degrade` ladder picks its own solvers, so it refuses the flag.
fn parse_solver(opts: &Options) -> Result<EigenSolver> {
    let Some(max_k) = opts.get("lanczos") else {
        return Ok(EigenSolver::Dense);
    };
    if opts.switch("degrade") {
        return Err(CliError::new(
            "--lanczos picks one eigensolver; --degrade runs its own ladder (choose it with --ladder)",
        ));
    }
    let max_k = max_k
        .parse()
        .map_err(|_| CliError::new(format!("--lanczos: cannot parse {max_k:?}")))?;
    Ok(EigenSolver::Lanczos { max_k })
}

/// How a mine solves for its rules.
enum Solve {
    /// [`RatioRuleMiner`] with one eigensolver (`--lanczos`, else dense).
    Plain(EigenSolver),
    /// `--degrade`: the [`ResilientMiner`] ladder, `--ladder`'s stages or
    /// the default.
    Ladder(Option<Vec<Box<dyn EigenStage>>>),
}

/// The options of the tail every mine shares (`mine` on CSV or RRCB,
/// `mine --shards`, `mine-distributed`), parsed and checked before any
/// input is opened, so a bad one fails before the scan instead of
/// after it.
struct MineTail {
    cutoff: Cutoff,
    solve: Solve,
    output: String,
    policy: ScanPolicy,
}

impl MineTail {
    /// # Errors
    /// A bad `--k`/`--energy`, `--lanczos` or `--ladder`, `--lanczos`
    /// with `--degrade`, `--ladder` without it, a bad scan policy, or
    /// no `--output`.
    fn parse(opts: &Options) -> Result<Self> {
        let cutoff = parse_cutoff(opts)?;
        let solver = parse_solver(opts)?;
        let solve = match (opts.switch("degrade"), opts.get("ladder")) {
            (true, spec) => Solve::Ladder(spec.map(parse_ladder).transpose()?),
            (false, None) => Solve::Plain(solver),
            (false, Some(_)) => {
                return Err(CliError::new(
                    "--ladder picks the stages of the --degrade ladder; add --degrade",
                ))
            }
        };
        Ok(MineTail {
            cutoff,
            solve,
            output: opts.require("output")?.to_string(),
            policy: parse_scan_policy(opts)?,
        })
    }
}

/// The tail every mine shares: the eigensolve (`--lanczos`, or the
/// `--degrade` ladder), the model write, and one output rule. The output
/// is the summary line, the rule table for a rules model, the degradation
/// line under `--degrade`, then the scan report, unless the scan was a
/// fresh strict pass: that cannot quarantine or retry, so it has nothing
/// to report.
fn finish_mine(
    acc: &CovarianceAccumulator,
    report: &ScanReport,
    labels: Option<Vec<String>>,
    tail: MineTail,
) -> Result<String> {
    if report.rows_quarantined > 0 {
        crate::mark_degraded();
    }
    let out_path = &tail.output;
    let (model, degradation) = match tail.solve {
        Solve::Ladder(ladder) => {
            let mut miner = ResilientMiner::new(tail.cutoff);
            if let Some(labels) = labels {
                miner = miner.with_labels(labels);
            }
            if let Some(ladder) = ladder {
                miner = miner.with_ladder(ladder);
            }
            let (model, degradation) = miner.finish(acc)?;
            if degradation.degraded() {
                crate::mark_degraded();
            }
            (model, Some(degradation))
        }
        Solve::Plain(solver) => {
            let mut miner = RatioRuleMiner::new(tail.cutoff).with_solver(solver);
            if let Some(labels) = labels {
                miner = miner.with_labels(labels);
            }
            (ServedModel::Rules(miner.finish(acc)?), None)
        }
    };
    let mut out = match &model {
        ServedModel::Rules(rules) => {
            std::fs::write(out_path, ratio_rules::model_json::rules_to_string(rules))?;
            format!(
                "mined {} rules over {} attributes from {} rows ({:.1}% energy) -> {}\n{}",
                rules.k(),
                rules.n_attributes(),
                rules.n_train(),
                rules.retained_energy() * 100.0,
                out_path,
                rules
            )
        }
        ServedModel::ColAvgs(ca) => {
            std::fs::write(
                out_path,
                ratio_rules::model_json::col_avgs_to_string(ca.means()),
            )?;
            format!(
                "eigensolve ladder exhausted; served the col-avgs baseline \
                 ({} attributes) -> {}\n",
                ca.means().len(),
                out_path,
            )
        }
    };
    if let Some(degradation) = degradation {
        out.push_str(&format!("degradation: {}\n", degradation.summary()));
    }
    let fresh_strict = tail.policy == ScanPolicy::Strict && report.resumed_from == 0;
    if !fresh_strict {
        out.push_str(&render_scan_report(report));
    }
    Ok(out)
}

/// `ratio-rules mine --input data.csv --output model.json [--k N | --energy F] [--no-header]`
///
/// One ingest path for CSV and RRCB input alike: open the file as a
/// [`RowSource`], wrap the fault injector and the retrier when asked,
/// run a fresh or resumed [`Scanner`] (writing `--checkpoint` even when
/// the scan fails), then [`finish_mine`]. Only `--shards` takes another
/// route: its in-memory oracle.
pub fn mine(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok("\
mine --input <csv> --output <model.json> [--k N | --energy F] [--lanczos MAXK] [--no-header]
     streams the input in one pass, so memory is O(M^2) whatever N is (--shards loads it)
     fault tolerance (CSV and RRCB input alike):
     [--max-bad-rows N] [--max-bad-fraction F] [--retries N]
     [--checkpoint FILE] [--resume FILE] [--degrade] [--ladder jacobi,ql,lanczos|none]
     [--fault-rate F] [--fault-seed S]
     --lanczos and --degrade exclude each other: the ladder picks its own solvers;
     --ladder needs --degrade. Every option is checked before the input is opened
     binary input (see 'ratio-rules convert'):
     [--columnar]   --input is an RRCB block file: the same scan with no
                    per-cell parsing; --resume re-reads the consumed rows
     distributed oracle (see 'ratio-rules mine-distributed'):
     [--shards W]   fold W contiguous row partitions through the pairwise
                    tree merge; bit-identical to a W-worker distributed mine\n"
            .into());
    }
    allow_with_obs(
        opts,
        &[
            "input",
            "output",
            "k",
            "energy",
            "lanczos",
            "no-header",
            "degrade",
            "columnar",
            "shards",
            "max-bad-rows",
            "max-bad-fraction",
            "retries",
            "fault-rate",
            "fault-seed",
            "checkpoint",
            "resume",
            "ladder",
            "flight",
            "help",
        ],
    )?;
    if opts.get("shards").is_some() {
        return mine_sharded(opts);
    }
    let tail = MineTail::parse(opts)?;
    let path = opts.require("input")?;
    if opts.switch("columnar") && opts.switch("no-header") {
        return Err(CliError::new(
            "--no-header applies to CSV input; RRCB block files carry their shape in the header",
        ));
    }
    let fault_plan = parse_fault_plan(opts)?;
    let retries: usize = opts.get_parsed("retries", 0)?;
    let resume = match opts.get("resume") {
        Some(cp) => Some(ScanCheckpoint::from_json(&std::fs::read_to_string(cp)?)?),
        None => None,
    };
    let (mut source, labels): (Box<dyn RowSource + Send>, _) = if opts.switch("columnar") {
        (Box::new(ColumnarBlockSource::open(path)?), None)
    } else {
        let csv = CsvFileSource::open(path, !opts.switch("no-header"))?;
        let labels = csv.col_labels().map(<[String]>::to_vec);
        (Box::new(csv), labels)
    };
    if let Some(plan) = fault_plan {
        source = Box::new(FaultyRowSource::new(source, plan));
    }
    if retries > 0 {
        let backoff = BackoffPolicy {
            max_attempts: retries + 1,
            ..BackoffPolicy::default()
        };
        source = Box::new(RetryingSource::new(source, backoff));
    }
    let mut scanner = match resume {
        Some(cp) => Scanner::resume(&cp, tail.policy)?,
        None => Scanner::new(source.n_cols(), tail.policy),
    };
    let scan_outcome = scanner.scan(&mut source).map(|_| ());
    // Write the checkpoint even when the scan failed: a budget-exhausted
    // run still leaves a valid cursor to resume from after the data is
    // repaired.
    if let Some(cp_path) = opts.get("checkpoint") {
        let cp = scanner.checkpoint();
        obs::flight_event(obs::names::EVENT_CHECKPOINT_WRITTEN, cp.n as u64, 0, 0.0);
        std::fs::write(cp_path, cp.to_json())?;
    }
    scan_outcome?;
    let (acc, report) = scanner.into_parts();
    finish_mine(&acc, &report, labels, tail)
}

/// `mine --shards W`: the single-process oracle for distributed mining.
/// Scans W contiguous row partitions (the
/// [`ratio_rules::parallel::partition_rows`] split the coordinator uses)
/// and folds them through the same pairwise tree merge the coordinator
/// uses, so its model is bit-identical to a `mine-distributed` run over
/// W live workers — that equivalence is what the chaos harness asserts.
fn mine_sharded(opts: &Options) -> Result<String> {
    if opts.switch("columnar") {
        return Err(CliError::new(
            "--shards partitions an in-memory CSV; --columnar streams RRCB blocks",
        ));
    }
    for flag in [
        "max-bad-rows",
        "max-bad-fraction",
        "retries",
        "fault-rate",
        "fault-seed",
        "checkpoint",
        "resume",
    ] {
        if opts.get(flag).is_some() {
            return Err(CliError::new(format!(
                "--{flag} streams the CSV; --shards scans in-memory partitions"
            )));
        }
    }
    let tail = MineTail::parse(opts)?;
    let shards: usize = opts.get_parsed("shards", 1)?;
    if shards == 0 {
        return Err(CliError::new("--shards: need at least 1"));
    }
    let data = load_csv(opts)?;
    let labels = data.col_labels().to_vec();
    let acc = ratio_rules::parallel::covariance_parallel(data.matrix(), shards)?;
    let report = ScanReport {
        rows_absorbed: acc.n_rows(),
        ..ScanReport::default()
    };
    finish_mine(&acc, &report, Some(labels), tail)
}

/// `ratio-rules convert --input data.csv --output data.rrcb [--no-header]`
///
/// Parses the CSV once and writes the `RRCB` binary block file that
/// `mine --columnar` scans without re-parsing.
///
/// # Errors
/// Fails on unknown flags, a missing `--input`/`--output`, or any CSV
/// parse / file I/O error.
pub fn convert(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok(
            "convert --input <csv> --output <rrcb> [--no-header]   CSV -> RRCB block file\n"
                .into(),
        );
    }
    allow_with_obs(opts, &["input", "output", "no-header", "help"])?;
    let input = opts.require("input")?;
    let output = opts.require("output")?;
    let report =
        dataset::columnar::convert_csv_file(input, output, !opts.switch("no-header"))?;
    Ok(format!(
        "converted {} rows x {} cols -> {output}\n",
        report.rows, report.cols,
    ))
}

/// `ratio-rules interpret --model model.json [--threshold 0.05]`
pub fn interpret_cmd(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok("interpret --model <model.json> [--threshold 0.05]\n".into());
    }
    allow_with_obs(opts, &["model", "threshold", "help"])?;
    let rules = load_model(opts)?;
    let threshold: f64 = opts.get_parsed("threshold", 0.05)?;
    let mut out = ratio_rules::visualize::scree_plot(&rules, 30);
    out.push('\n');
    out.push_str(&interpret::table(&rules, threshold));
    out.push('\n');
    for i in 0..rules.k() {
        out.push_str(&interpret::histogram(&rules, i, 40));
        out.push('\n');
    }
    for sentence in interpret::describe(&rules, threshold.max(0.2)) {
        out.push_str(&sentence);
        out.push('\n');
    }
    Ok(out)
}

/// `ratio-rules fill --model model.json --row "1.5,?,3"`
pub fn fill(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok(
            "fill --model <model.json> --row \"1.5,?,3\" (use '?' for unknown cells)\n".into(),
        );
    }
    allow_with_obs(opts, &["model", "row", "help"])?;
    let rules = load_model(opts)?;
    let row = parse_holed_row(opts.require("row")?)?;
    let filled = fill_holes(&rules, &HoledRow::new(row.clone()))?;
    let mut out = format!("solve case: {:?}\n", filled.case);
    for (j, (given, value)) in row.iter().zip(&filled.values).enumerate() {
        let label = &rules.attribute_labels()[j];
        match given {
            Some(_) => out.push_str(&format!("  {label:>20}: {value:>12.4}\n")),
            None => out.push_str(&format!("  {label:>20}: {value:>12.4}  <- filled\n")),
        }
    }
    Ok(out)
}

/// `ratio-rules outliers --input data.csv --model model.json [--top 10]`
pub fn outliers(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok("outliers --input <csv> --model <model.json> [--top 10] [--no-header]\n".into());
    }
    allow_with_obs(opts, &["input", "model", "top", "no-header", "help"])?;
    let data = load_csv(opts)?;
    let rules = load_model(opts)?;
    let top: usize = opts.get_parsed("top", 10)?;
    let detector = OutlierDetector::new(&rules);
    let scores = detector.row_scores(data.matrix())?;
    let mut out = String::from("rows ranked by distance from the rule hyperplane:\n");
    for s in scores.iter().take(top) {
        out.push_str(&format!(
            "  {:>20}  residual {:>12.4}\n",
            data.row_labels()[s.row],
            s.residual
        ));
    }
    Ok(out)
}

/// `ratio-rules project --input data.csv --model model.json [--axes 0,1]`
pub fn project(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok(
            "project --input <csv> --model <model.json> [--axes 0,1] [--width 70] [--height 20] [--no-header]\n"
                .into(),
        );
    }
    allow_with_obs(opts, &[
        "input",
        "model",
        "axes",
        "width",
        "height",
        "no-header",
        "help",
    ])?;
    let data = load_csv(opts)?;
    let rules = load_model(opts)?;
    let axes = opts.get("axes").unwrap_or("0,1");
    let parts: Vec<&str> = axes.split(',').collect();
    if parts.len() != 2 {
        return Err(CliError::new("--axes must be two rule indices, e.g. 0,1"));
    }
    let x: usize = parts[0]
        .trim()
        .parse()
        .map_err(|_| CliError::new("--axes: bad x index"))?;
    let y: usize = parts[1]
        .trim()
        .parse()
        .map_err(|_| CliError::new("--axes: bad y index"))?;
    let width: usize = opts.get_parsed("width", 70)?;
    let height: usize = opts.get_parsed("height", 20)?;
    let proj = project_2d(&rules, data.matrix(), x, y)?;
    let mut out = proj.ascii_plot(width, height, &[]);
    out.push_str("\nmost extreme rows:\n");
    for &i in proj.extremes(5).iter() {
        let (px, py) = proj.points[i];
        out.push_str(&format!(
            "  {:>20}  ({px:10.2}, {py:10.2})\n",
            data.row_labels()[i]
        ));
    }
    Ok(out)
}

/// `ratio-rules evaluate --input data.csv [--train-frac 0.9] [--seed 42] [--holes 1]`
pub fn evaluate(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok(
            "evaluate --input <csv> [--train-frac 0.9] [--seed 42] [--holes H] [--threads T] [--k N | --energy F] [--no-header]\n"
                .into(),
        );
    }
    allow_with_obs(opts, &[
        "input",
        "train-frac",
        "seed",
        "holes",
        "threads",
        "k",
        "energy",
        "no-header",
        "help",
    ])?;
    let data = load_csv(opts)?;
    let frac: f64 = opts.get_parsed("train-frac", 0.9)?;
    let seed: u64 = opts.get_parsed("seed", 42)?;
    let h_max: usize = opts.get_parsed("holes", 1)?;
    let threads: usize = opts.get_parsed("threads", 1)?;
    if threads == 0 {
        return Err(CliError::new("--threads must be at least 1"));
    }
    let cutoff = parse_cutoff(opts)?;

    let split = train_test_split(&data, frac, seed)?;
    let rules = RatioRuleMiner::new(cutoff).fit_data(&split.train)?;
    let rr = RuleSetPredictor::new(rules.clone());
    let baseline = ColAvgs::fit(split.train.matrix())?;
    let ev = GuessingErrorEvaluator::default();

    let mut out = format!(
        "train {} rows / test {} rows; {} rules ({:.1}% energy)\n\n",
        split.train.n_rows(),
        split.test.n_rows(),
        rules.k(),
        rules.retained_energy() * 100.0
    );
    out.push_str(&format!(
        "{:>7}  {:>12}  {:>14}  {:>12}\n",
        "holes", "GE(RR)", "GE(col-avgs)", "RR/col-avgs"
    ));
    for h in 1..=h_max.max(1) {
        // GE_1 (Definition 1) sweeps every cell; above it, GE_h
        // (Definition 2) samples hole sets.
        let ge = |p: &(dyn Predictor + Sync)| {
            if h == 1 {
                ev.ge1_parallel(p, split.test.matrix(), threads)
            } else {
                ev.ge_h_parallel(p, split.test.matrix(), h, threads)
            }
        };
        let (ge_rr, ge_ca) = (ge(&rr)?, ge(&baseline)?);
        out.push_str(&format!(
            "{h:>7}  {ge_rr:>12.4}  {ge_ca:>14.4}  {:>11.1}%\n",
            100.0 * ge_rr / ge_ca
        ));
    }
    rr.publish_metrics();
    Ok(out)
}

/// `ratio-rules impute --input holey.csv --output clean.csv`
pub fn impute(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok(
            "impute --input <csv with '?' or empty cells> --output <csv> [--k N | --energy F] [--max-iter 25] [--no-header]\n"
                .into(),
        );
    }
    allow_with_obs(opts, &[
        "input",
        "output",
        "k",
        "energy",
        "max-iter",
        "no-header",
        "help",
    ])?;
    let path = opts.require("input")?;
    let (rows, labels) = dataset::csv::read_csv_holed_file(path, !opts.switch("no-header"))?;
    let n_holes: usize = rows.iter().flatten().filter(|v| v.is_none()).count();

    let imputer = ratio_rules::impute::Imputer {
        cutoff: parse_cutoff(opts)?,
        max_iterations: opts.get_parsed("max-iter", 25)?,
        ..Default::default()
    };
    let result = imputer.impute(&rows)?;

    let dm = dataset::DataMatrix::with_labels(
        result.matrix,
        (0..rows.len()).map(|i| format!("row{i}")).collect(),
        labels,
    )?;
    let out_path = opts.require("output")?;
    dataset::csv::write_csv_file(&dm, out_path)?;
    Ok(format!(
        "filled {n_holes} holes in {} rows over {} EM iterations (final delta {:.2e}) -> {out_path}\n",
        rows.len(),
        result.iterations,
        result.final_delta
    ))
}

/// `ratio-rules whatif --model model.json --set "cheerios=2x,milk=3.5"`
pub fn whatif(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok(
            "whatif --model <model.json> --set \"attr=VALUE,attr2=2x\" (Nx = N times the training mean)\n"
                .into(),
        );
    }
    allow_with_obs(opts, &["model", "set", "help"])?;
    let rules = load_model(opts)?;
    let spec = opts.require("set")?;
    let mut scenario = ratio_rules::whatif::Scenario::new(&rules);
    for assignment in spec.split(',') {
        let Some((attr, value)) = assignment.split_once('=') else {
            return Err(CliError::new(format!(
                "bad assignment {assignment:?}; use attr=VALUE or attr=2x"
            )));
        };
        let (attr, value) = (attr.trim(), value.trim());
        scenario = if let Some(factor) = value.strip_suffix(['x', 'X']) {
            let factor: f64 = factor
                .parse()
                .map_err(|_| CliError::new(format!("bad scale factor in {assignment:?}")))?;
            scenario.scale_of_mean(attr, factor)?
        } else {
            let v: f64 = value
                .parse()
                .map_err(|_| CliError::new(format!("bad value in {assignment:?}")))?;
            scenario.set(attr, v)?
        };
    }
    let forecast = scenario.forecast()?;
    let mut out = format!("forecast (case: {:?}):\n", forecast.case);
    for (label, (value, mean)) in forecast
        .labels
        .iter()
        .zip(forecast.values.iter().zip(rules.column_means()))
    {
        let delta = if !linalg::cmp::exact_zero(*mean) {
            format!("  ({:+.1}% vs training mean)", (value / mean - 1.0) * 100.0)
        } else {
            String::new()
        };
        out.push_str(&format!("  {label:>20}: {value:>12.4}{delta}\n"));
    }
    Ok(out)
}

/// `ratio-rules card --input test.csv --model model.json`
pub fn card(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok("card --input <test csv> --model <model.json> [--no-header]\n".into());
    }
    allow_with_obs(opts, &["input", "model", "no-header", "help"])?;
    let data = load_csv(opts)?;
    let rules = load_model(opts)?;
    let card = ratio_rules::diagnostics::ModelCard::evaluate(&rules, data.matrix())?;
    Ok(card.render())
}

/// Deterministic synthetic dataset for `profile` runs without `--input`:
/// four attributes on a planted 4:3:2:1 ratio plus a small deterministic
/// perturbation so the covariance has a full (if skewed) spectrum.
fn synthetic_data(rows: usize) -> Result<dataset::DataMatrix> {
    let n = rows.max(10);
    let m = linalg::Matrix::from_fn(n, 4, |i, j| {
        let t = 1.0 + i as f64;
        t * [4.0, 3.0, 2.0, 1.0][j] + ((i * 7 + j * 3) % 11) as f64 * 0.01
    });
    Ok(dataset::DataMatrix::with_labels(
        m,
        (0..n).map(|i| format!("row{i}")).collect(),
        ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect(),
    )?)
}

/// `ratio-rules profile [--input data.csv] [--rows 400] [--holes 1] [--threads 2]`
///
/// Mines and evaluates a dataset with the observability layer enabled,
/// so [`run`] can print the span tree and metric dump afterwards. With no
/// `--input` it profiles a built-in synthetic matrix.
pub fn profile(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok("\
profile [--input <csv>] [--rows 400] [--holes H] [--threads T] [--k N | --energy F] [--no-header]
        [--fault-rate F] [--fault-seed S]   inject faults and scan under quarantine,
                                            so the resilience metrics show in the dump\n"
            .into());
    }
    allow_with_obs(
        opts,
        &[
            "input",
            "rows",
            "holes",
            "threads",
            "k",
            "energy",
            "no-header",
            "fault-rate",
            "fault-seed",
            "flight",
            "help",
        ],
    )?;
    let h: usize = opts.get_parsed("holes", 1)?;
    let threads: usize = opts.get_parsed("threads", 2)?;
    if threads == 0 {
        return Err(CliError::new("--threads must be at least 1"));
    }
    let cutoff = parse_cutoff(opts)?;
    let plan = parse_fault_plan(opts)?;

    let _root = obs::Span::enter("profile");
    let data = {
        let _span = obs::Span::enter("load");
        if opts.get("input").is_some() {
            load_csv(opts)?
        } else {
            synthetic_data(opts.get_parsed("rows", 400)?)?
        }
    };
    let mut fault_line = String::new();
    let rules = {
        let _span = obs::Span::enter("mine");
        let miner = RatioRuleMiner::new(cutoff);
        match plan {
            None => miner.fit_data(&data)?,
            Some(plan) => {
                // Chaos profile: stream the matrix through the fault
                // injector under an unlimited quarantine, so the scan's
                // resilience counters land in the metric dump below.
                let mut src = FaultyRowSource::new(
                    dataset::source::MatrixSource::new(data.matrix()),
                    plan,
                );
                let (rules, report) = miner
                    .with_scan_policy(ScanPolicy::quarantine_unlimited())
                    .fit_with_report(&mut src)?;
                fault_line = format!(
                    "faults: {} rows quarantined, {} transient retries\n",
                    report.rows_quarantined, report.transient_retries,
                );
                rules
            }
        }
    };
    let rr = RuleSetPredictor::new(rules.clone());
    let ev = GuessingErrorEvaluator::default();
    let ge = {
        let _span = obs::Span::enter("evaluate");
        ev.ge_h_parallel(&rr, data.matrix(), h, threads)?
    };
    rr.publish_metrics();
    let stats = rr.cache_stats();
    Ok(format!(
        "profiled {} rows x {} attributes: {} rules ({:.1}% energy), GE_{h} = {ge:.4}\n\
         solver cache: {} hits / {} misses over {} patterns\n{fault_line}",
        data.n_rows(),
        data.n_cols(),
        rules.k(),
        rules.retained_energy() * 100.0,
        stats.hits,
        stats.misses,
        stats.entries,
    ))
}

/// `ratio-rules serve --model model.json [--port N] [--threads N]
/// [--max-batch N] [--batch-window-us N] [--max-queue N] [--deadline-ms N]
/// [--max-conn-requests N] [--idle-timeout-ms N] [--shed-degrade]`
///
/// Blocks until the process is killed. Connections are persistent
/// (keep-alive + pipelining) until `--max-conn-requests` requests have
/// been served on one socket or `--idle-timeout-ms` passes between
/// them. `--batch-window-us` is the longest a `/predict` batch is held
/// open for more rows; it closes sooner, as soon as no connection
/// worker is mid-burst. `--shed-degrade` answers queue-full pressure
/// from the col-avgs floor (with the `DEGRADED` header) instead of
/// `429`. Degraded models (the resilience ladder's `{"col_avgs": ...}`
/// floor) still serve, with every response carrying a `DEGRADED: true`
/// header and `/whatif` answering 503. New models can be hot-swapped in
/// over `POST /models` (see the `publish` subcommand) without dropping
/// connections.
///
/// # Errors
/// Fails on unknown flags, an unreadable or malformed model file, bad
/// numeric flag values, or a bind failure on the requested port.
pub fn serve_cmd(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok("\
serve --model <model.json> [--port N] [--threads N] [--max-batch N]
      [--batch-window-us N] [--max-queue N] [--deadline-ms N]
      [--max-conn-requests N] [--idle-timeout-ms N] [--shed-degrade]
      --batch-window-us: the longest a /predict batch is held open for more
        rows (default 500); it closes sooner, once no connection is mid-burst
      endpoints: POST /predict, POST /whatif, GET /rules, GET /healthz, GET /metrics,
                 POST /models, GET /models,
                 GET /debug/trace[?id=<hex>], GET /debug/flightrecorder\n"
            .into());
    }
    allow_with_obs(
        opts,
        &[
            "model",
            "port",
            "threads",
            "max-batch",
            "batch-window-us",
            "max-queue",
            "deadline-ms",
            "max-conn-requests",
            "idle-timeout-ms",
            "shed-degrade",
            "help",
        ],
    )?;
    let model = serve::ServeModel::from_served(load_served_model(opts)?);
    if model.is_degraded() {
        crate::mark_degraded();
    }
    let port: u16 = opts.get_parsed("port", 7878)?;
    let defaults = serve::BatchConfig::default();
    let cfg = serve::ServerConfig {
        addr: format!("127.0.0.1:{port}"),
        threads: opts.get_parsed("threads", 4)?,
        batch: serve::BatchConfig {
            max_batch: opts.get_parsed("max-batch", defaults.max_batch)?,
            batch_window: std::time::Duration::from_micros(
                opts.get_parsed("batch-window-us", 500u64)?,
            ),
            max_queue: opts.get_parsed("max-queue", defaults.max_queue)?,
            deadline: std::time::Duration::from_millis(opts.get_parsed("deadline-ms", 2000u64)?),
        },
        max_conn_requests: opts.get_parsed("max-conn-requests", 1000usize)?,
        idle_timeout: std::time::Duration::from_millis(opts.get_parsed("idle-timeout-ms", 5000u64)?),
        shed_degrade: opts.switch("shed-degrade"),
        ..serve::ServerConfig::default()
    };
    // The /metrics endpoint scrapes the global registry; collection must
    // be on for the server's whole lifetime (run()'s per-invocation obs
    // lifecycle only covers commands that return). The flight recorder
    // feeds /debug/flightrecorder, the trace store /debug/trace.
    obs::set_enabled(true);
    obs::set_flight_enabled(true);
    let degraded = model.is_degraded();
    let server = serve::Server::start(cfg, model).map_err(CliError::new)?;
    // Printed (not returned) because the command blocks from here on.
    println!(
        "serving on http://{}{}",
        server.addr(),
        if degraded { " (DEGRADED: col-avgs floor)" } else { "" }
    );
    // Block for the life of the process; a supervisor kills us. The
    // graceful-drain path (Server::shutdown) is exercised in-process by
    // tests/serve_e2e.rs.
    loop {
        std::thread::park();
    }
}

/// The server's own account of one `serve-bench` phase, named
/// `<prefix>_<family>_<stat>`: queue wait, batch solve and `/predict`
/// request time at p50 and p99, and the mean batch size. The registry is
/// global and both phases run on one server, so each reading is the
/// difference between snapshots taken before and after the phase.
fn serve_phase_metrics(
    prefix: &str,
    before: &obs::Snapshot,
    after: &obs::Snapshot,
) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let empty = obs::QuantileSnapshot::default();
    let window = |family: &str| {
        after
            .quantile(family)
            .unwrap_or(&empty)
            .delta_since(before.quantile(family).unwrap_or(&empty))
    };
    for family in [
        obs::names::SERVE_QUEUE_WAIT_US,
        obs::names::SERVE_SOLVE_US,
        obs::names::SERVE_REQUEST_US_PREDICT,
    ] {
        let window = window(family);
        out.push((format!("{prefix}_{family}_p50"), window.quantile(0.5)));
        out.push((format!("{prefix}_{family}_p99"), window.quantile(0.99)));
    }
    out.push((
        format!("{prefix}_{}_mean", obs::names::SERVE_BATCH_SIZE),
        window(obs::names::SERVE_BATCH_SIZE).mean(),
    ));
    out
}

/// Renders the two [`serve::LoadReport`]s (keep-alive and cold phases
/// of the same workload) in the `BENCH_*.json` trajectory shape
/// (`bench`/`results`/`derived`/`metrics`), so `BENCH_serve.json` sits
/// next to `BENCH_covariance.json` and is checkable with the same `jq`
/// one-liners. Each phase keeps its own quantile set under a
/// `keepalive_`/`cold_` prefix, plus the headline speedup ratio;
/// `server_metrics` (from [`serve_phase_metrics`]) fill `metrics`.
fn serve_bench_json(
    keepalive: &serve::LoadReport,
    cold: &serve::LoadReport,
    server_metrics: &[(String, f64)],
) -> String {
    use obs::json::JsonValue;
    let result_for = |name: &str, report: &serve::LoadReport| {
        JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str(name.into())),
            (
                "median_ns_per_op".into(),
                JsonValue::Num(report.p50_us * 1e3),
            ),
            ("rows_per_s".into(), JsonValue::Num(report.req_per_s)),
            ("samples".into(), JsonValue::Num(report.ok as f64)),
        ])
    };
    let mut pairs: Vec<(String, f64)> = Vec::new();
    for (prefix, report) in [("keepalive", keepalive), ("cold", cold)] {
        pairs.extend([
            (format!("{prefix}_req_per_s"), report.req_per_s),
            (format!("{prefix}_p50_us"), report.p50_us),
            (format!("{prefix}_p90_us"), report.p90_us),
            (format!("{prefix}_p99_us"), report.p99_us),
            (format!("{prefix}_p999_us"), report.p999_us),
            (format!("{prefix}_max_us"), report.max_us),
            (format!("{prefix}_connections"), report.connections as f64),
            (format!("{prefix}_errors"), report.errors as f64),
        ]);
    }
    let speedup = if cold.req_per_s > 0.0 {
        keepalive.req_per_s / cold.req_per_s
    } else {
        0.0
    };
    pairs.extend([
        ("keepalive_over_cold_speedup".to_string(), speedup),
        (
            "rows_checked".to_string(),
            (keepalive.rows_checked + cold.rows_checked) as f64,
        ),
        (
            "mismatches".to_string(),
            (keepalive.mismatches + cold.mismatches) as f64,
        ),
    ]);
    let named = |pairs: &[(String, f64)]| -> JsonValue {
        JsonValue::Arr(
            pairs
                .iter()
                .map(|(name, value)| {
                    JsonValue::Obj(vec![
                        ("name".into(), JsonValue::Str(name.clone())),
                        ("value".into(), JsonValue::Num(*value)),
                    ])
                })
                .collect(),
        )
    };
    JsonValue::Obj(vec![
        ("bench".into(), JsonValue::Str("serve".into())),
        (
            "results".into(),
            JsonValue::Arr(vec![
                result_for("predict_keepalive", keepalive),
                result_for("predict_cold", cold),
            ]),
        ),
        ("derived".into(), named(&pairs)),
        ("metrics".into(), named(server_metrics)),
    ])
    .write(true)
}

/// `ratio-rules serve-bench [--rows N] [--k N | --energy F] [--requests N]
/// [--concurrency C] [--threads T] [--max-batch N] [--batch-window-us N]
/// [--bench-out FILE] [--trace-out FILE] [--quick]`
///
/// Self-contained load test: mines a synthetic model, starts an
/// in-process server on an ephemeral port with tracing and the flight
/// recorder on, drives the same workload twice with the
/// [`serve::loadgen`] client — once over persistent keep-alive
/// connections, once with a fresh TCP connection per request — and
/// checks every served row bit for bit against single-shot fills. The
/// full run writes `BENCH_serve.json` (trajectory shape) with both
/// phases' client-side quantiles, the server's own per-phase queue
/// wait, solve and `/predict` quantiles and mean batch size, and the
/// keep-alive-over-cold speedup; emission is gated on the divergence
/// check — a run with mismatches errors instead of persisting. `--quick` is the smoke variant: small load, nothing
/// written.
///
/// # Errors
/// Fails on unknown flags, bad numeric values, a bind failure, any
/// served-vs-single-shot mismatch, or transport errors on every request.
pub fn serve_bench(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok("\
serve-bench [--rows 400] [--k N | --energy F] [--requests 200] [--concurrency 4]
            [--threads 4] [--max-batch N] [--batch-window-us N]
            [--pipeline-depth 8] [--bench-out FILE] [--trace-out FILE] [--quick]
            load-tests an in-process server; full runs write BENCH_serve.json
            --batch-window-us: the longest a /predict batch is held open for
              more rows (default 500); it closes sooner, once no connection
              is mid-burst\n"
            .into());
    }
    allow_with_obs(
        opts,
        &[
            "rows",
            "k",
            "energy",
            "requests",
            "concurrency",
            "threads",
            "max-batch",
            "batch-window-us",
            "pipeline-depth",
            "bench-out",
            "trace-out",
            "quick",
            "help",
        ],
    )?;
    let quick = opts.switch("quick");
    let data = synthetic_data(opts.get_parsed("rows", 400)?)?;
    let rules = RatioRuleMiner::new(parse_cutoff(opts)?).fit_data(&data)?;
    let m = rules.n_attributes();

    // The whole point is measuring the *instrumented* server: tracing,
    // quantiles, and the flight recorder all on while answers are
    // checked bit for bit against single-shot fills.
    obs::set_enabled(true);
    obs::set_flight_enabled(true);
    let defaults = serve::BatchConfig::default();
    let cfg = serve::ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: opts.get_parsed("threads", 4)?,
        batch: serve::BatchConfig {
            max_batch: opts.get_parsed("max-batch", defaults.max_batch)?,
            batch_window: std::time::Duration::from_micros(
                opts.get_parsed("batch-window-us", 500u64)?,
            ),
            ..defaults
        },
        ..serve::ServerConfig::default()
    };
    let model = serve::ServeModel::from_served(ServedModel::Rules(rules.clone()));
    let server = serve::Server::start(cfg, model).map_err(CliError::new)?;
    let addr = server.addr();

    // Same workload twice: once over persistent keep-alive connections
    // (the production path) and once opening a fresh TCP connection per
    // request, so BENCH_serve.json can state what connection reuse buys
    // on identical requests. Both phases run against the same server
    // instance and both check every row against the single-shot oracle.
    let requests = opts.get_parsed("requests", if quick { 40 } else { 2000 })?;
    let concurrency = opts.get_parsed("concurrency", 4)?;
    let pipeline_depth = opts.get_parsed("pipeline-depth", 8usize)?;
    let load_for = |keep_alive: bool| serve::LoadgenConfig {
        requests,
        concurrency,
        keep_alive,
        pipeline_depth,
        ..serve::LoadgenConfig::default()
    };
    let before = obs::global().snapshot();
    let keepalive = serve::run_load(addr, m, Some(&rules), &load_for(true));
    let between = obs::global().snapshot();
    let cold = serve::run_load(addr, m, Some(&rules), &load_for(false));
    let after = obs::global().snapshot();
    server.shutdown();
    let mut server_metrics = serve_phase_metrics("keepalive", &before, &between);
    server_metrics.extend(serve_phase_metrics("cold", &between, &after));

    if let Some(path) = opts.get("trace-out") {
        let traces = obs::trace::take_traces();
        std::fs::write(path, obs::chrome_trace_doc(&traces))?;
    }
    for (phase, report) in [("keep-alive", &keepalive), ("cold", &cold)] {
        if report.ok == 0 {
            return Err(CliError::new(format!(
                "serve-bench: no {phase} request succeeded ({} errors)",
                report.errors
            )));
        }
        if report.mismatches > 0 {
            return Err(CliError::new(format!(
                "serve-bench: {} of {} {phase} rows diverged from single-shot \
                 fills; refusing to write BENCH_serve.json",
                report.mismatches, report.rows_checked
            )));
        }
    }

    let mut out = String::new();
    for (phase, report) in [("keep-alive", &keepalive), ("cold", &cold)] {
        out.push_str(&format!(
            "serve-bench[{phase}]: {} requests ({} ok, {} errors) over {} connections \
             in {:.2}s = {:.0} req/s\n\
             latency us: p50 {:.0}, p90 {:.0}, p99 {:.0}, p999 {:.0}, max {:.0}\n\
             oracle: {} rows bit-identical to single-shot fills\n",
            report.requests,
            report.ok,
            report.errors,
            report.connections,
            report.wall_s,
            report.req_per_s,
            report.p50_us,
            report.p90_us,
            report.p99_us,
            report.p999_us,
            report.max_us,
            report.rows_checked,
        ));
    }
    if cold.req_per_s > 0.0 {
        out.push_str(&format!(
            "keep-alive over cold: {:.2}x req/s\n",
            keepalive.req_per_s / cold.req_per_s
        ));
    }
    if quick {
        // Printed, never persisted: --quick must not churn the trajectory.
        out.push_str("quick serve bench OK\n");
    } else {
        let path = match opts.get("bench-out") {
            Some(p) => std::path::PathBuf::from(p),
            None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("BENCH_serve.json"),
        };
        std::fs::write(&path, serve_bench_json(&keepalive, &cold, &server_metrics))?;
        out.push_str(&format!("trajectory -> {}\n", path.display()));
    }
    Ok(out)
}

/// `ratio-rules publish --model model.json --addr HOST:PORT [--name N]
/// [--no-activate] [--shadow]`
///
/// Pushes a mined `model_json` artifact (the output of `mine`,
/// including the degraded `{"col_avgs": ...}` floor) into a running
/// server's hot-swap registry over `POST /models`. By default the new
/// version becomes active immediately — in-flight requests finish on
/// the version they resolved, new requests see the new one.
/// `--no-activate` retains the version for `x-model-version` pinning
/// without routing traffic to it; `--shadow` additionally replays every
/// answered `/predict` row against it off the response path, counting
/// `f64::to_bits` divergences on `GET /models`.
///
/// # Errors
/// Fails on unknown flags, an unreadable or locally invalid model file,
/// a malformed `--addr`, transport errors, or a non-200 response (the
/// server re-validates at its trust boundary).
pub fn publish(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok("\
publish --model <model.json> --addr <HOST:PORT> [--name N] [--no-activate] [--shadow]
        pushes a model into a running server's hot-swap registry (POST /models)\n"
            .into());
    }
    allow_with_obs(opts, &["model", "addr", "name", "no-activate", "shadow", "help"])?;
    let model_path = opts.require("model")?;
    let json = std::fs::read_to_string(model_path)?;
    // Validate locally before shipping: a malformed artifact should fail
    // here with a parse error, not as an opaque 400 from the server.
    let _ = ratio_rules::model_json::model_from_str(&json)?;
    let model_doc = obs::json::parse(&json).map_err(CliError::new)?;
    let addr: std::net::SocketAddr = opts
        .require("addr")?
        .parse()
        .map_err(|_| CliError::new(format!("--addr: cannot parse {:?}", opts.get("addr"))))?;
    let name = opts.get("name").unwrap_or("unnamed").to_string();
    let body = obs::json::JsonValue::Obj(vec![
        ("name".into(), obs::json::JsonValue::Str(name)),
        (
            "activate".into(),
            obs::json::JsonValue::Bool(!opts.switch("no-activate")),
        ),
        (
            "shadow".into(),
            obs::json::JsonValue::Bool(opts.switch("shadow")),
        ),
        ("model".into(), model_doc),
    ])
    .write(false);
    let (status, resp) = serve::client::request(
        addr,
        "POST",
        "/models",
        Some(&body),
        std::time::Duration::from_secs(10),
        std::time::Duration::ZERO,
    )?;
    if status != 200 {
        return Err(CliError::new(format!(
            "publish: server answered {status}: {resp}"
        )));
    }
    Ok(format!("published: {resp}\n"))
}

/// `ratio-rules mine-shard --input data.csv [--port N] [--no-header]
/// [--checkpoint-dir DIR] [--chaos-* ...]`
///
/// Distributed-mining worker: loads its CSV replica, binds the shard
/// scan endpoint, prints the bound address, and blocks serving
/// `POST /scan` range requests until killed — or until an injected
/// crash fault fires, at which point the process exits 1 like a
/// genuinely dead worker (its checkpoint file, if `--checkpoint-dir`
/// was given, is what a restarted worker resumes from). The chaos
/// flags exist for the harness in `scripts/chaos_e2e.sh`; production
/// workers leave them at zero.
///
/// # Errors
/// Fails on unknown flags, a missing or malformed `--input` CSV, bad
/// numeric flag values, or a bind failure on the requested port.
pub fn mine_shard(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok("\
mine-shard --input <csv> [--port N] [--no-header] [--io-timeout-ms N] [--checkpoint-dir DIR]
           chaos injection (test harness only; all rates default 0):
           [--chaos-seed S] [--chaos-crash F] [--chaos-hang F] [--chaos-slow F]
           [--chaos-corrupt F] [--chaos-truncate F] [--chaos-hang-ms N] [--chaos-slow-ms N]
           serves POST /scan and GET /healthz; exits 1 on an injected crash\n"
            .into());
    }
    allow_with_obs(
        opts,
        &[
            "input",
            "no-header",
            "port",
            "io-timeout-ms",
            "checkpoint-dir",
            "chaos-seed",
            "chaos-crash",
            "chaos-hang",
            "chaos-slow",
            "chaos-corrupt",
            "chaos-truncate",
            "chaos-hang-ms",
            "chaos-slow-ms",
            "help",
        ],
    )?;
    let data = load_csv(opts)?;
    let rows = data.matrix().rows();
    let cols = data.matrix().cols();
    let labels = data.col_labels().to_vec();
    let chaos = serve::ChaosPlan {
        seed: opts.get_parsed("chaos-seed", 0u64)?,
        crash_rate: opts.get_parsed("chaos-crash", 0.0)?,
        hang_rate: opts.get_parsed("chaos-hang", 0.0)?,
        slow_rate: opts.get_parsed("chaos-slow", 0.0)?,
        corrupt_rate: opts.get_parsed("chaos-corrupt", 0.0)?,
        truncate_rate: opts.get_parsed("chaos-truncate", 0.0)?,
        hang_ms: opts.get_parsed("chaos-hang-ms", 600u64)?,
        slow_ms: opts.get_parsed("chaos-slow-ms", 40u64)?,
        ..serve::ChaosPlan::none()
    };
    let port: u16 = opts.get_parsed("port", 0)?;
    let cfg = serve::ShardConfig {
        addr: format!("127.0.0.1:{port}"),
        io_timeout: std::time::Duration::from_millis(opts.get_parsed("io-timeout-ms", 10_000u64)?),
        chaos,
        checkpoint_dir: opts.get("checkpoint-dir").map(std::path::PathBuf::from),
    };
    // Same lifetime rule as `serve`: the worker blocks, so the
    // per-invocation obs lifecycle in run() never gets to drain it.
    obs::set_enabled(true);
    obs::set_flight_enabled(true);
    let worker =
        serve::ShardWorker::start(cfg, data.into_matrix(), labels).map_err(CliError::new)?;
    // Printed (not returned) because the command blocks from here on;
    // the chaos harness scrapes this line for the ephemeral port.
    println!(
        "shard worker on http://{} ({rows} rows x {cols} cols)",
        worker.addr()
    );
    loop {
        if worker.is_dead() {
            // An injected crash fault dropped the listener; finish the
            // imitation of a dead worker by exiting like one.
            eprintln!("shard worker: injected crash fault; exiting");
            std::process::exit(crate::EXIT_ERROR);
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

/// `ratio-rules mine-distributed --workers host:port,... --output model.json`
///
/// Supervising coordinator: partitions the row range over the worker
/// fleet, dispatches shard scans with deadlines and backoff retries,
/// reassigns dead workers' shards to probed-live survivors (resuming
/// from their checkpoints when present), validates every payload at
/// the trust boundary, and tree-merges the survivors into a model
/// bit-identical to `mine --shards W`. Exits 0 clean, 2 degraded
/// (quarantined rows or lost shards within `--max-lost-shards`), 3
/// when a worker's quarantine budget blew or more shards were lost
/// than allowed.
///
/// # Errors
/// Fails on unknown flags, unparseable worker addresses, no live
/// workers, dataset-shape disagreement between workers, shard losses
/// beyond `--max-lost-shards`, a worker's quarantine-budget exhaustion,
/// or any model write error.
pub fn mine_distributed(opts: &Options) -> Result<String> {
    if opts.switch("help") {
        return Ok("\
mine-distributed --workers host:port,host:port,... --output <model.json>
                 [--k N | --energy F] [--shards N] [--deadline-ms N]
                 [--retries N] [--retry-base-ms N] [--reassign-budget N]
                 [--max-lost-shards N] [--checkpoint-dir DIR] [--warmup-ms N]
                 [--max-bad-rows N] [--max-bad-fraction F]
                 [--degrade] [--ladder jacobi,ql,lanczos|none]
                 chaos (test harness only): [--chaos-dup-rate F] [--chaos-seed S]
                 exit codes: 0 clean, 2 degraded/partial, 3 budget exhausted\n"
            .into());
    }
    allow_with_obs(
        opts,
        &[
            "workers",
            "output",
            "k",
            "energy",
            "shards",
            "deadline-ms",
            "retries",
            "retry-base-ms",
            "reassign-budget",
            "max-lost-shards",
            "checkpoint-dir",
            "warmup-ms",
            "max-bad-rows",
            "max-bad-fraction",
            "chaos-dup-rate",
            "chaos-seed",
            "degrade",
            "ladder",
            "flight",
            "help",
        ],
    )?;
    let tail = MineTail::parse(opts)?;
    let workers: Vec<std::net::SocketAddr> = opts
        .require("workers")?
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|_| CliError::new(format!("--workers: cannot parse address {s:?}")))
        })
        .collect::<Result<_>>()?;
    let shards: Option<usize> = opts
        .get("shards")
        .map(|s| {
            s.parse()
                .map_err(|_| CliError::new(format!("--shards: cannot parse {s:?}")))
        })
        .transpose()?;
    let retries: usize = opts.get_parsed("retries", 2)?;
    let cfg = serve::CoordinatorConfig {
        workers,
        shards,
        policy: tail.policy,
        deadline: std::time::Duration::from_millis(opts.get_parsed("deadline-ms", 5000u64)?),
        backoff: BackoffPolicy {
            max_attempts: retries + 1,
            base_delay: std::time::Duration::from_millis(
                opts.get_parsed("retry-base-ms", 10u64)?,
            ),
            ..BackoffPolicy::default()
        },
        reassign_budget: opts.get_parsed("reassign-budget", 4)?,
        max_lost_shards: opts.get_parsed("max-lost-shards", 0)?,
        checkpoint_dir: opts.get("checkpoint-dir").map(std::path::PathBuf::from),
        connect_warmup: std::time::Duration::from_millis(opts.get_parsed("warmup-ms", 1000u64)?),
        chaos: serve::ChaosPlan {
            seed: opts.get_parsed("chaos-seed", 0u64)?,
            duplicate_rate: opts.get_parsed("chaos-dup-rate", 0.0)?,
            ..serve::ChaosPlan::none()
        },
    };
    let outcome = serve::coordinate(&cfg)?;
    if outcome.is_degraded() {
        crate::mark_degraded();
    }
    let report = ScanReport {
        rows_absorbed: outcome.acc.n_rows(),
        rows_quarantined: outcome.rows_quarantined,
        by_reason: outcome.by_reason,
        ..ScanReport::default()
    };
    let mut out = finish_mine(&outcome.acc, &report, Some(outcome.labels.clone()), tail)?;
    out.push_str(&outcome.summary());
    out.push('\n');
    Ok(out)
}

fn dispatch(cmd: &str, opts: &Options) -> Result<String> {
    match cmd {
        "mine" => mine(opts),
        "convert" => convert(opts),
        "interpret" => interpret_cmd(opts),
        "fill" => fill(opts),
        "outliers" => outliers(opts),
        "project" => project(opts),
        "evaluate" => evaluate(opts),
        "impute" => impute(opts),
        "card" => card(opts),
        "whatif" => whatif(opts),
        "profile" => profile(opts),
        "serve" => serve_cmd(opts),
        "serve-bench" => serve_bench(opts),
        "publish" => publish(opts),
        "mine-shard" => mine_shard(opts),
        "mine-distributed" => mine_distributed(opts),
        other => Err(CliError::new(format!(
            "unknown command {other:?}; run 'ratio-rules help'"
        ))),
    }
}

/// Dispatches a full command line (without the program name).
///
/// Owns the observability lifecycle: metrics collection turns on when the
/// command is `profile`, `--trace` is passed, or `--metrics-out FILE` is
/// given; the trace and registry are always drained and reset afterwards
/// (even on error) so consecutive invocations don't bleed into each other.
pub fn run(args: &[String]) -> Result<String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(crate::USAGE.to_string());
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(crate::USAGE.to_string());
    }
    let Some(switches) = switches_for(cmd) else {
        return Err(CliError::new(format!(
            "unknown command {cmd:?}; run 'ratio-rules help'"
        )));
    };
    let opts = Options::parse(rest, switches)?;
    let metrics_out = opts.get("metrics-out").map(str::to_string);
    let flight = opts.switch("flight") && !opts.switch("help");
    if flight {
        obs::set_flight_enabled(true);
    }
    let observing =
        !opts.switch("help") && (cmd == "profile" || opts.switch("trace") || metrics_out.is_some());
    if !observing {
        let result = dispatch(cmd, &opts);
        return append_flight_dump(result, flight);
    }

    obs::set_enabled(true);
    let result = dispatch(cmd, &opts);
    // Drain and reset before propagating errors: global state must be
    // clean for the next invocation either way.
    let trace = obs::take_trace();
    let snapshot = obs::global().snapshot();
    obs::set_enabled(false);
    obs::global().reset();

    let mut out = append_flight_dump(result, flight)?;
    if cmd == "profile" || opts.switch("trace") {
        out.push_str("\nspans:\n");
        out.push_str(&obs::render_trace(&trace));
        out.push_str("\nmetrics:\n");
        out.push_str(&obs::export::render_table(&snapshot));
    }
    if let Some(path) = metrics_out {
        // File format follows the extension: Prometheus text for .prom,
        // JSON (metrics + trace) otherwise.
        let text = if path.ends_with(".prom") {
            obs::export::to_prometheus(&snapshot)
        } else {
            obs::export::to_json(&snapshot, &trace)
        };
        std::fs::write(&path, text)?;
        out.push_str(&format!("\nmetrics written to {path}\n"));
    }
    Ok(out)
}

/// On a `--flight` run that succeeded, appends the recorder's contents
/// to the output and retires the recorder. Errors pass through with the
/// recorder still armed — [`run_with_status`] dumps it to stderr so the
/// last structured events before the failure are never lost.
fn append_flight_dump(result: Result<String>, flight: bool) -> Result<String> {
    if !flight {
        return result;
    }
    match result {
        Ok(mut out) => {
            let events = obs::flight_snapshot();
            obs::set_flight_enabled(false);
            obs::flight_clear();
            out.push_str(&format!("\nflight recorder ({} events):\n", events.len()));
            out.push_str(&obs::flight_to_jsonl(&events));
            Ok(out)
        }
        Err(e) => Err(e),
    }
}

/// [`run`] plus exit-code semantics: `0` success, `1` error, `2` when the
/// command succeeded but served a degraded result (see
/// [`crate::EXIT_DEGRADED`]), `3` when a quarantine scan blew its error
/// budget. The binary's `main` is a thin wrapper over this.
///
/// An error exit with the flight recorder armed (`--flight`, or a
/// command that enables it itself) dumps the ring to stderr as JSONL —
/// the black-box readout for a crashed run.
pub fn run_with_status(args: &[String]) -> (Result<String>, i32) {
    // Clear any stale marker from a previous in-process invocation.
    let _ = crate::take_degraded();
    let result = run(args);
    let code = match &result {
        Ok(_) => {
            if crate::take_degraded() {
                crate::EXIT_DEGRADED
            } else {
                crate::EXIT_OK
            }
        }
        Err(e) => e.code,
    };
    if code != crate::EXIT_OK && code != crate::EXIT_DEGRADED && obs::flight_enabled() {
        let events = obs::flight_snapshot();
        obs::set_flight_enabled(false);
        obs::flight_clear();
        if !events.is_empty() {
            eprintln!("flight recorder ({} events):", events.len());
            eprint!("{}", obs::flight_to_jsonl(&events));
        }
    }
    (result, code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// A directory of one test's own under the system temp dir, removed with
    /// everything in it when dropped, so also when the test fails.
    struct TempDir(std::path::PathBuf);

    impl std::ops::Deref for TempDir {
        type Target = std::path::Path;
        fn deref(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn workdir() -> TempDir {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("rr_cli_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn write_linear_csv(path: &std::path::Path) {
        let mut text = String::from("bread,milk,butter\n");
        for i in 0..60 {
            let t = 1.0 + i as f64;
            text.push_str(&format!("{},{},{}\n", 3.0 * t, 2.0 * t, t));
        }
        std::fs::write(path, text).unwrap();
    }

    #[test]
    fn end_to_end_mine_fill_interpret() {
        let dir = workdir();
        let csv = dir.join("sales.csv");
        let model = dir.join("model.json");
        write_linear_csv(&csv);

        let out = run(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
            "--k",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("mined 1 rules"));
        assert!(model.exists());

        let out = run(&args(&[
            "fill",
            "--model",
            model.to_str().unwrap(),
            "--row",
            "30,?,?",
        ]))
        .unwrap();
        // bread = 30 -> milk = 20, butter = 10.
        assert!(out.contains("<- filled"));
        assert!(out.contains("20.00"), "fill output:\n{out}");
        assert!(out.contains("10.00"), "fill output:\n{out}");

        let out = run(&args(&["interpret", "--model", model.to_str().unwrap()])).unwrap();
        assert!(out.contains("RR1"));
        assert!(out.contains("bread"));
        assert!(out.contains("cutoff (Eq. 1)"));

        let out = run(&args(&[
            "card",
            "--input",
            csv.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("model card: 1 rules"));
        assert!(out.contains("GE_1"));
    }

    #[test]
    fn convert_then_columnar_mine_matches_csv_mine() {
        let dir = workdir();
        let csv = dir.join("col.csv");
        let rrcb = dir.join("col.rrcb");
        let model_csv = dir.join("col_model_csv.json");
        let model_col = dir.join("col_model_col.json");
        write_linear_csv(&csv);

        let out = run(&args(&[
            "convert",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            rrcb.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("converted 60 rows x 3 cols"), "{out}");

        run(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model_csv.to_str().unwrap(),
            "--k",
            "1",
        ]))
        .unwrap();
        let out = run(&args(&[
            "mine",
            "--columnar",
            "--input",
            rrcb.to_str().unwrap(),
            "--output",
            model_col.to_str().unwrap(),
            "--k",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("mined 1 rules"), "{out}");

        // Same covariance bits -> same eigenpairs -> identical documents,
        // modulo the CSV run's header labels (RRCB carries none).
        let a = ratio_rules::model_json::rules_from_str(
            &std::fs::read_to_string(&model_csv).unwrap(),
        )
        .unwrap();
        let b = ratio_rules::model_json::rules_from_str(
            &std::fs::read_to_string(&model_col).unwrap(),
        )
        .unwrap();
        assert_eq!(a.k(), b.k());
        for (ra, rb) in a.rules().iter().zip(b.rules()) {
            assert_eq!(ra.eigenvalue.to_bits(), rb.eigenvalue.to_bits());
            for (u, v) in ra.loadings.iter().zip(&rb.loadings) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn columnar_mine_rejects_csv_only_flags() {
        let dir = workdir();
        let csv = dir.join("rej.csv");
        let rrcb = dir.join("rej.rrcb");
        write_linear_csv(&csv);
        run(&args(&[
            "convert",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            rrcb.to_str().unwrap(),
        ]))
        .unwrap();
        let columnar = |extra: &[&str]| {
            let mut cmd = vec![
                "mine",
                "--columnar",
                "--input",
                rrcb.to_str().unwrap(),
                "--output",
                "/dev/null",
            ];
            cmd.extend_from_slice(extra);
            run_with_status(&args(&cmd))
        };
        let _guard = STATUS_LOCK.lock().unwrap();
        // An RRCB header carries the shape, so --no-header is CSV-only.
        let (res, code) = columnar(&["--no-header"]);
        assert!(res.unwrap_err().to_string().contains("no-header"));
        assert_eq!(code, crate::EXIT_ERROR);
        // The fault injector and the retrier wrap block files like CSV.
        let (res, code) = columnar(&[
            "--fault-rate",
            "0.1",
            "--max-bad-rows",
            "60",
            "--retries",
            "3",
        ]);
        let out = res.unwrap();
        assert!(out.contains("quarantined"), "{out}");
        assert_eq!(code, crate::EXIT_DEGRADED);
        let (res, code) = columnar(&["--retries", "2"]);
        assert!(res.is_ok(), "{res:?}");
        assert_eq!(code, crate::EXIT_OK);
        // convert rejects unknown flags like every other command.
        assert!(run(&args(&["convert", "--input", "x", "--bogus", "1"])).is_err());
    }

    #[test]
    fn columnar_mine_checkpoints_and_resumes() {
        let dir = workdir();
        let csv = dir.join("ck.csv");
        let rrcb = dir.join("ck.rrcb");
        let ckpt = dir.join("ck.json");
        let model = dir.join("ck_model.json");
        write_linear_csv(&csv);
        run(&args(&[
            "convert",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            rrcb.to_str().unwrap(),
        ]))
        .unwrap();
        run(&args(&[
            "mine",
            "--columnar",
            "--input",
            rrcb.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--max-bad-rows",
            "5",
        ]))
        .unwrap();
        // The checkpoint consumed all 60 rows; resuming over the same
        // file is a no-op scan that still mines the full model.
        let out = run(&args(&[
            "mine",
            "--columnar",
            "--input",
            rrcb.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
            "--resume",
            ckpt.to_str().unwrap(),
            "--max-bad-rows",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("resumed from checkpoint at row 60"), "{out}");
        assert!(out.contains("60 rows absorbed"), "{out}");
    }

    #[test]
    fn evaluate_reports_rr_win() {
        let dir = workdir();
        let csv = dir.join("eval.csv");
        write_linear_csv(&csv);
        let out = run(&args(&[
            "evaluate",
            "--input",
            csv.to_str().unwrap(),
            "--holes",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("GE(RR)"));
        // Three lines: header + h=1 + h=2.
        assert!(out.lines().count() >= 4);

        // --threads changes the schedule, not the answer: every numeric
        // cell of the report matches the serial run to high precision.
        let parallel = run(&args(&[
            "evaluate",
            "--input",
            csv.to_str().unwrap(),
            "--holes",
            "2",
            "--threads",
            "4",
        ]))
        .unwrap();
        let cells = |s: &str| -> Vec<f64> {
            s.lines()
                .skip_while(|l| !l.trim_start().starts_with("holes"))
                .skip(1)
                .flat_map(|l| {
                    l.split_whitespace()
                        .filter_map(|tok| tok.trim_end_matches('%').parse::<f64>().ok())
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let (serial_cells, parallel_cells) = (cells(&out), cells(&parallel));
        assert_eq!(serial_cells.len(), parallel_cells.len());
        assert!(!serial_cells.is_empty());
        for (s, p) in serial_cells.iter().zip(&parallel_cells) {
            // Cells are printed to 4 decimals, so allow one formatting ulp
            // on top of the summation-order noise (pinned at 1e-10 in the
            // core evaluator tests).
            assert!((s - p).abs() <= 1e-3 * s.abs().max(100.0), "{s} vs {p}");
        }

        // Zero threads is rejected.
        assert!(run(&args(&[
            "evaluate",
            "--input",
            csv.to_str().unwrap(),
            "--threads",
            "0",
        ]))
        .is_err());
    }

    #[test]
    fn outliers_and_project_run() {
        let dir = workdir();
        let csv = dir.join("o.csv");
        let model = dir.join("o_model.json");
        write_linear_csv(&csv);
        run(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
            "--k",
            "2",
        ]))
        .unwrap();
        let out = run(&args(&[
            "outliers",
            "--input",
            csv.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--top",
            "3",
        ]))
        .unwrap();
        assert_eq!(out.lines().count(), 4);

        let out = run(&args(&[
            "project",
            "--input",
            csv.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
            "--axes",
            "0,1",
        ]))
        .unwrap();
        assert!(out.contains("RR1 (x) vs RR2 (y)"));
    }

    #[test]
    fn mine_with_lanczos_backend() {
        let dir = workdir();
        let csv = dir.join("lz.csv");
        let model = dir.join("lz_model.json");
        write_linear_csv(&csv);
        let out = run(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
            "--k",
            "1",
            "--lanczos",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("mined 1 rules"), "output: {out}");
        // The Lanczos-mined model predicts on the planted 3:2:1 line.
        let out = run(&args(&[
            "fill",
            "--model",
            model.to_str().unwrap(),
            "--row",
            "30,?,?",
        ]))
        .unwrap();
        assert!(out.contains("20.00"), "fill output: {out}");
        // Bad value rejected.
        assert!(run(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
            "--lanczos",
            "two",
        ]))
        .is_err());
    }

    #[test]
    fn whatif_scales_and_pins() {
        let dir = workdir();
        let csv = dir.join("wi.csv");
        let model = dir.join("wi_model.json");
        write_linear_csv(&csv);
        run(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
            "--k",
            "1",
        ]))
        .unwrap();

        // Doubling bread should roughly double milk and butter.
        let out = run(&args(&[
            "whatif",
            "--model",
            model.to_str().unwrap(),
            "--set",
            "bread=2x",
        ]))
        .unwrap();
        assert!(out.contains("+100.0% vs training mean"), "output:\n{out}");

        // Pin an absolute value.
        let out = run(&args(&[
            "whatif",
            "--model",
            model.to_str().unwrap(),
            "--set",
            "bread=30",
        ]))
        .unwrap();
        assert!(out.contains("30.0000"), "output:\n{out}");

        // Bad specs error.
        assert!(run(&args(&[
            "whatif",
            "--model",
            model.to_str().unwrap(),
            "--set",
            "bread",
        ]))
        .is_err());
        assert!(run(&args(&[
            "whatif",
            "--model",
            model.to_str().unwrap(),
            "--set",
            "bread=abcx",
        ]))
        .is_err());
    }

    #[test]
    fn impute_repairs_holed_csv() {
        let dir = workdir();
        let csv = dir.join("holey.csv");
        let out_csv = dir.join("clean.csv");
        let mut text = String::from("a,b,c\n");
        for i in 0..40 {
            let t = 1.0 + i as f64;
            if i % 5 == 1 {
                text.push_str(&format!("{},?,{}\n", 3.0 * t, t));
            } else {
                text.push_str(&format!("{},{},{}\n", 3.0 * t, 2.0 * t, t));
            }
        }
        std::fs::write(&csv, text).unwrap();
        let out = run(&args(&[
            "impute",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            out_csv.to_str().unwrap(),
            "--k",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("filled 8 holes"), "output: {out}");
        // Repaired values follow b = 2/3 a.
        let repaired = dataset::csv::read_csv_file(&out_csv, true).unwrap();
        for i in 0..40 {
            let row = repaired.row(i);
            // Tolerance tracks the imputer's default convergence
            // threshold (relative to the data scale ~120).
            assert!(
                (row[1] - 2.0 / 3.0 * row[0]).abs() < 1e-3,
                "row {i}: {row:?}"
            );
        }
    }

    #[test]
    fn errors_are_friendly() {
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&["mine"])).is_err()); // missing --input
        assert!(run(&args(&["mine", "--input", "x", "--bogus", "1"])).is_err());
        let usage = run(&[]).unwrap();
        assert!(usage.contains("USAGE"));
        let usage = run(&args(&["help"])).unwrap();
        assert!(usage.contains("COMMANDS"));
    }

    #[test]
    fn per_command_help() {
        for cmd in [
            "mine",
            "interpret",
            "fill",
            "outliers",
            "project",
            "evaluate",
            "impute",
            "card",
            "whatif",
            "profile",
        ] {
            let out = run(&args(&[cmd, "--help"])).unwrap();
            assert!(out.contains(cmd), "help for {cmd}: {out}");
        }
    }

    /// Tests below toggle the process-global observability state via
    /// `run`; serialize them so one run's disable/reset doesn't clobber
    /// another's collection window.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn profile_emits_span_tree_and_metric_dump() {
        let _guard = OBS_LOCK.lock().unwrap();
        let dir = workdir();
        let json_out = dir.join("profile_metrics.json");
        let out = run(&args(&[
            "profile",
            "--rows",
            "120",
            "--k",
            "1",
            "--threads",
            "2",
            "--metrics-out",
            json_out.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("profiled 120 rows x 4 attributes"), "{out}");
        assert!(out.contains("spans:"), "{out}");
        for span in ["profile", "load", "mine", "covariance_scan", "eigensolve", "evaluate"] {
            assert!(out.contains(span), "span {span} missing in:\n{out}");
        }
        assert!(out.contains("metrics:"), "{out}");
        for metric in [
            "covariance_rows_per_s",
            "eigen_iterations",
            "eigen_residual",
            "solver_cache_hits",
            "solver_cache_misses",
            "ge_h_shard_0_ns",
            "ge_h_shard_max_ns",
        ] {
            assert!(out.contains(metric), "metric {metric} missing in:\n{out}");
        }
        assert!(out.contains("metrics written to"), "{out}");

        // The JSON export round-trips through the obs parser.
        let text = std::fs::read_to_string(&json_out).unwrap();
        let (snap, trace) = obs::export::from_json(&text).unwrap();
        assert!(snap.counter("covariance_rows_scanned_total").unwrap() >= 120);
        assert!(trace.iter().any(|r| r.name == "profile"));
        assert!(trace.iter().any(|r| r.name == "eigensolve" && r.depth >= 1));

        // Observability is off and the registry clean after the run.
        assert!(!obs::enabled());
        assert!(obs::global().snapshot().get("eigen_iterations").is_none());
    }

    #[test]
    fn metrics_out_prom_and_trace_work_on_any_command() {
        let _guard = OBS_LOCK.lock().unwrap();
        let dir = workdir();
        let csv = dir.join("obs_eval.csv");
        let prom_out = dir.join("eval_metrics.prom");
        write_linear_csv(&csv);
        let out = run(&args(&[
            "evaluate",
            "--input",
            csv.to_str().unwrap(),
            "--threads",
            "2",
            "--holes",
            "2",
            "--trace",
            "--metrics-out",
            prom_out.to_str().unwrap(),
        ]))
        .unwrap();
        // Report, then span tree, then Prometheus file.
        assert!(out.contains("GE(RR)"), "{out}");
        assert!(out.contains("spans:"), "{out}");
        assert!(out.contains("covariance_scan"), "{out}");
        assert!(out.contains("metrics written to"), "{out}");
        let prom = std::fs::read_to_string(&prom_out).unwrap();
        assert!(prom.contains("covariance_rows_scanned_total"), "{prom}");
        assert!(prom.contains("solver_cache_hits"), "{prom}");
        assert!(!obs::enabled());
    }

    /// The degraded-exit-code marker is process-global state, so every
    /// test that drives [`run_with_status`] serializes on this lock.
    static STATUS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn exit_codes_cover_ok_degraded_and_budget() {
        let _guard = STATUS_LOCK.lock().unwrap();
        let dir = workdir();
        let csv = dir.join("status.csv");
        write_linear_csv(&csv);
        let model = dir.join("status_model.json");
        let m = |extra: &[&str]| {
            let mut base = vec![
                "mine",
                "--input",
                csv.to_str().unwrap(),
                "--output",
                model.to_str().unwrap(),
                "--k",
                "1",
            ];
            base.extend_from_slice(extra);
            run_with_status(&args(&base))
        };

        // Clean streaming mine: success, exit 0.
        let (res, code) = m(&["--max-bad-rows", "5"]);
        assert!(res.is_ok(), "{res:?}");
        assert_eq!(code, crate::EXIT_OK);

        // Faults within budget: success, but exit 2 flags the quarantine.
        let (res, code) = m(&["--fault-rate", "0.1", "--max-bad-rows", "60", "--retries", "3"]);
        let out = res.unwrap();
        assert!(out.contains("quarantined"), "{out}");
        assert_eq!(code, crate::EXIT_DEGRADED);

        // Budget blown: error with the dedicated exit code.
        let (res, code) = m(&["--fault-rate", "0.5", "--max-bad-rows", "1"]);
        assert!(res.is_err());
        assert_eq!(code, crate::EXIT_BUDGET_EXHAUSTED);

        // Strict mode still fails fast on the first injected fault.
        let (res, code) = m(&["--fault-rate", "0.5", "--retries", "3"]);
        assert!(res.is_err(), "strict scan must not quarantine");
        assert_eq!(code, crate::EXIT_ERROR);

        // Ordinary errors (bad flags) keep exit 1.
        let (res, code) = run_with_status(&args(&["mine", "--bogus", "x"]));
        assert!(res.is_err());
        assert_eq!(code, crate::EXIT_ERROR);

        // The marker does not leak into the next invocation.
        let (res, code) = m(&["--max-bad-rows", "5"]);
        assert!(res.is_ok(), "{res:?}");
        assert_eq!(code, crate::EXIT_OK);
    }

    #[test]
    fn degrade_ladder_none_serves_col_avgs_baseline() {
        let _guard = STATUS_LOCK.lock().unwrap();
        let dir = workdir();
        let csv = dir.join("degrade.csv");
        write_linear_csv(&csv);
        let model = dir.join("degrade_model.json");
        let (res, code) = run_with_status(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
            "--degrade",
            "--ladder",
            "none",
        ]));
        let out = res.unwrap();
        assert!(out.contains("col-avgs baseline"), "{out}");
        assert_eq!(code, crate::EXIT_DEGRADED);

        // A healthy ladder on the same data serves full rules at exit 0.
        let (res, code) = run_with_status(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
            "--degrade",
            "--ladder",
            "jacobi,ql,lanczos",
            "--k",
            "1",
        ]));
        let out = res.unwrap();
        assert!(out.contains("mined 1 rules"), "{out}");
        assert!(out.contains("full rules"), "{out}");
        assert_eq!(code, crate::EXIT_OK);

        // Unknown ladder stages are a flag error.
        let (res, code) = run_with_status(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
            "--degrade",
            "--ladder",
            "cholesky",
        ]));
        assert!(res.unwrap_err().to_string().contains("unknown stage"));
        assert_eq!(code, crate::EXIT_ERROR);
    }

    #[test]
    fn checkpoint_and_resume_roundtrip_through_files() {
        let dir = workdir();
        let csv = dir.join("cp.csv");
        write_linear_csv(&csv);
        let model_a = dir.join("cp_model_a.json");
        let model_b = dir.join("cp_model_b.json");
        let cp = dir.join("cp_scan.json");

        let out = run(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model_a.to_str().unwrap(),
            "--k",
            "1",
            "--checkpoint",
            cp.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("mined 1 rules"), "{out}");
        assert!(cp.exists());

        // Resuming from the end-of-scan checkpoint re-mines the same model
        // without re-absorbing any rows.
        let out = run(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model_b.to_str().unwrap(),
            "--k",
            "1",
            "--resume",
            cp.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("resumed from checkpoint"), "{out}");
        assert!(out.contains("mined 1 rules"), "{out}");
    }

    #[test]
    fn profile_with_faults_exposes_resilience_metrics() {
        let _guard = OBS_LOCK.lock().unwrap();
        let out = run(&args(&[
            "profile",
            "--rows",
            "120",
            "--fault-rate",
            "0.05",
            "--k",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("scan_rows_quarantined_total"), "{out}");
        assert!(out.contains("scan_transient_retries_total"), "{out}");
        assert!(out.contains("faults_injected_corrupt_total"), "{out}");
    }

    /// The default mine streams the CSV; its model bytes and stdout must
    /// equal the in-memory `fit_data(read_csv_file(..))` mine's.
    #[test]
    fn streaming_default_mine_matches_in_memory_fit() {
        let dir = workdir();
        let golden = include_str!("../../../tests/fixtures/golden.csv");
        let mut padded = String::from(" bread , milk ,butter \n");
        let mut crlf = String::from("bread,milk,butter\r\n");
        let mut headerless = String::new();
        for i in 0..40 {
            let t = 1.0 + i as f64 * 0.37;
            let row = [3.0 * t + 0.01 * (i % 3) as f64, 2.0 * t - 0.5, -t * 1e-3];
            padded.push_str(&format!("  {} ,{}, {}\n", row[0], row[1], row[2]));
            crlf.push_str(&format!("{:.4},{:.4},{:.6}\r\n", row[0], row[1], row[2]));
            headerless.push_str(&format!("{:e},{},{}\n", row[0], row[1], row[2]));
            if i % 9 == 0 {
                padded.push_str("\n   \n");
                headerless.push('\n');
            }
        }
        let cases = [
            ("golden", golden.to_string(), true),
            ("padded", format!("\n\n{padded}"), true),
            ("crlf", crlf, true),
            ("headerless", headerless, false),
        ];
        for (name, text, has_header) in cases {
            let csv = dir.join(format!("stream_{name}.csv"));
            let model = dir.join(format!("stream_{name}.json"));
            std::fs::write(&csv, text).unwrap();
            let mut argv = vec![
                "mine",
                "--input",
                csv.to_str().unwrap(),
                "--output",
                model.to_str().unwrap(),
            ];
            if !has_header {
                argv.push("--no-header");
            }
            let out = run(&args(&argv)).unwrap();

            let data = dataset::csv::read_csv_file(&csv, has_header).unwrap();
            let rules = RatioRuleMiner::new(ratio_rules::cutoff::Cutoff::default())
                .fit_data(&data)
                .unwrap();
            assert_eq!(
                std::fs::read_to_string(&model).unwrap(),
                ratio_rules::model_json::rules_to_string(&rules),
                "{name}: model bytes differ"
            );
            let want = format!(
                "mined {} rules over {} attributes from {} rows ({:.1}% energy) -> {}\n{}",
                rules.k(),
                rules.n_attributes(),
                rules.n_train(),
                rules.retained_energy() * 100.0,
                model.to_str().unwrap(),
                rules
            );
            assert_eq!(out, want, "{name}: stdout differs");
        }
    }

    #[test]
    fn default_mine_reports_header_width_mismatch_with_its_line() {
        let dir = workdir();
        let csv = dir.join("header_mismatch.csv");
        std::fs::write(&csv, "a,b,c\n1,2\n3,4\n").unwrap();
        let model = dir.join("header_mismatch.json");
        let err = run(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(
            err.message.contains("line 2: expected 3 fields, found 2"),
            "{}",
            err.message
        );
    }

    #[test]
    fn quarantine_budget_absorbs_a_corrupt_first_row() {
        let dir = workdir();
        let csv = dir.join("corrupt_first.csv");
        let mut text = String::from("a,b\nx,2\n");
        for i in 0..20 {
            text.push_str(&format!("{},{}\n", i, 2 * i + i % 3));
        }
        std::fs::write(&csv, text).unwrap();
        let model = dir.join("corrupt_first.json");
        let (result, code) = run_with_status(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
            "--max-bad-rows",
            "5",
        ]));
        let out = result.unwrap();
        assert_eq!(code, crate::EXIT_DEGRADED);
        assert!(
            out.contains("20 rows absorbed, 1 quarantined (1 corrupt"),
            "{out}"
        );
    }

    /// `--lanczos` reaches the eigensolve on every mine path: one
    /// extracted pair cannot serve a two-rule cutoff anywhere.
    #[test]
    fn lanczos_is_honoured_on_every_mine_path() {
        let dir = workdir();
        let csv = dir.join("lanczos.csv");
        let rrcb = dir.join("lanczos.rrcb");
        let model = dir.join("lanczos_model.json");
        write_linear_csv(&csv);
        run(&args(&[
            "convert",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            rrcb.to_str().unwrap(),
        ]))
        .unwrap();
        let paths: [(&str, &std::path::Path, &[&str]); 4] = [
            ("default", &csv, &[]),
            ("quarantine", &csv, &["--max-bad-rows", "5"]),
            ("shards", &csv, &["--shards", "2"]),
            ("columnar", &rrcb, &["--columnar"]),
        ];
        for (name, input, extra) in paths {
            let mut cmd = vec![
                "mine",
                "--input",
                input.to_str().unwrap(),
                "--output",
                model.to_str().unwrap(),
                "--k",
                "2",
                "--lanczos",
                "1",
            ];
            cmd.extend_from_slice(extra);
            let err = run(&args(&cmd)).unwrap_err();
            assert!(
                err.message.contains("Lanczos solver only extracted 1"),
                "{name}: {}",
                err.message
            );
        }
    }

    #[test]
    fn lanczos_with_degrade_is_rejected() {
        let dir = workdir();
        let csv = dir.join("lanczos_degrade.csv");
        let model = dir.join("lanczos_degrade_model.json");
        write_linear_csv(&csv);
        let err = run(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
            "--degrade",
            "--lanczos",
            "2",
        ]))
        .unwrap_err();
        assert!(
            err.message.contains("--degrade runs its own ladder"),
            "{}",
            err.message
        );
    }

    /// Every ingest route writes the in-memory fit's exact model bytes
    /// for the golden fixture: CSV strict and under quarantine, RRCB in
    /// one pass and split across `--checkpoint`/`--resume`, and the
    /// `--shards` oracle.
    #[test]
    fn every_mine_route_writes_the_in_memory_model_bytes() {
        use ratio_rules::cutoff::Cutoff;
        use ratio_rules::model_json::rules_to_string;

        let dir = workdir();
        let text = include_str!("../../../tests/fixtures/golden.csv");
        let golden = dir.join("golden_routes.csv");
        std::fs::write(&golden, text).unwrap();
        let data = dataset::csv::read_csv_file(&golden, true).unwrap();
        let miner = RatioRuleMiner::new(Cutoff::default());
        let labelled = rules_to_string(&miner.fit_data(&data).unwrap());
        // RRCB carries no header, so its rules get the default labels.
        let unlabelled = rules_to_string(&miner.fit_matrix(data.matrix()).unwrap());
        let sharded = rules_to_string(
            &RatioRuleMiner::new(Cutoff::default())
                .with_labels(data.col_labels().to_vec())
                .finish(&ratio_rules::parallel::covariance_parallel(data.matrix(), 3).unwrap())
                .unwrap(),
        );

        let rrcb = dir.join("golden.rrcb");
        let head_csv = dir.join("golden_head.csv");
        let head_rrcb = dir.join("golden_head.rrcb");
        let head: Vec<&str> = text.lines().take(11).collect();
        std::fs::write(&head_csv, head.join("\n") + "\n").unwrap();
        for (from, to) in [(&golden, &rrcb), (&head_csv, &head_rrcb)] {
            run(&args(&[
                "convert",
                "--input",
                from.to_str().unwrap(),
                "--output",
                to.to_str().unwrap(),
            ]))
            .unwrap();
        }
        let cp = dir.join("golden_cp.json");
        let mine_to = |name: &str, input: &std::path::Path, extra: &[&str]| {
            let model = dir.join(format!("golden_{name}.json"));
            let mut cmd = vec![
                "mine",
                "--input",
                input.to_str().unwrap(),
                "--output",
                model.to_str().unwrap(),
            ];
            cmd.extend_from_slice(extra);
            run(&args(&cmd)).unwrap();
            std::fs::read_to_string(&model).unwrap()
        };

        assert_eq!(mine_to("strict", &golden, &[]), labelled, "CSV strict");
        assert_eq!(
            mine_to("quarantine", &golden, &["--max-bad-rows", "3"]),
            labelled,
            "CSV --max-bad-rows"
        );
        assert_eq!(
            mine_to("columnar", &rrcb, &["--columnar"]),
            unlabelled,
            "RRCB"
        );
        // The first process scans a 10-row prefix and checkpoints; the
        // second resumes over the whole file.
        mine_to(
            "head",
            &head_rrcb,
            &["--columnar", "--checkpoint", cp.to_str().unwrap()],
        );
        assert_eq!(
            mine_to(
                "resumed",
                &rrcb,
                &["--columnar", "--resume", cp.to_str().unwrap()]
            ),
            unlabelled,
            "RRCB split by --checkpoint/--resume"
        );
        assert_eq!(
            mine_to("shards", &golden, &["--shards", "3"]),
            sharded,
            "--shards 3"
        );
    }

    /// Every mine checks its options before it opens the input: run
    /// against an input that does not exist, each bad option must
    /// report itself, exit 1, and not the I/O error. `mine --shards`
    /// and `mine-distributed` (against a port nothing listens on) share
    /// the check.
    #[test]
    fn mine_checks_every_option_before_opening_the_input() {
        let dir = workdir();
        let model = dir.join("never_written.json");
        let model = model.to_str().unwrap();
        let missing = dir.join("does_not_exist.csv");
        let missing = missing.to_str().unwrap();
        let with_output = |extra: &[&'static str]| -> Vec<&str> {
            let mut v = vec!["--output", model];
            v.extend_from_slice(extra);
            v
        };
        let cases: Vec<(Vec<&str>, &str)> = vec![
            (vec![], "--output"),
            (with_output(&["--energy", "7"]), "--energy"),
            (with_output(&["--energy", "nan"]), "--energy"),
            (with_output(&["--k", "-1"]), "--k"),
            (with_output(&["--k", "0"]), "--k"),
            (with_output(&["--lanczos", "abc"]), "--lanczos"),
            (with_output(&["--ladder", "qr"]), "--ladder"),
            (with_output(&["--ladder", "jacobi"]), "--ladder"),
            (with_output(&["--degrade", "--ladder", "qr"]), "--ladder"),
            (
                with_output(&["--max-bad-fraction", "-0.5"]),
                "--max-bad-fraction",
            ),
            (
                with_output(&["--max-bad-fraction", "nan"]),
                "--max-bad-fraction",
            ),
            (
                with_output(&["--max-bad-fraction", "1.5"]),
                "--max-bad-fraction",
            ),
            (with_output(&["--max-bad-rows", "-1"]), "--max-bad-rows"),
            (with_output(&["--fault-rate", "nan"]), "--fault-rate"),
            (with_output(&["--fault-rate", "-0.1"]), "--fault-rate"),
        ];
        for (extra, flag) in &cases {
            let mut argv = vec!["mine", "--input", missing];
            argv.extend_from_slice(extra);
            let err = run(&args(&argv)).unwrap_err();
            assert!(err.message.contains(flag), "{argv:?}: {err}");
            assert_eq!(err.code, crate::EXIT_ERROR, "{argv:?}");
            assert!(!err.message.contains("No such file"), "{argv:?}: {err}");
        }
        // Nothing listens on port 9: a check after connecting would
        // report the connection instead.
        let distributed = [
            "mine-distributed",
            "--workers",
            "127.0.0.1:9",
            "--warmup-ms",
            "0",
        ];
        for (extra, flag) in [
            (with_output(&["--energy", "7"]), "--energy"),
            (with_output(&["--ladder", "qr"]), "--ladder"),
            (vec![], "--output"),
        ] {
            let mut argv = vec!["mine", "--shards", "2", "--input", missing];
            argv.extend_from_slice(&extra);
            let err = run(&args(&argv)).unwrap_err();
            assert!(err.message.contains(flag), "{argv:?}: {err}");
            let mut argv = distributed.to_vec();
            argv.extend_from_slice(&extra);
            let err = run(&args(&argv)).unwrap_err();
            assert!(err.message.contains(flag), "{argv:?}: {err}");
        }
        for bad in ["-0.5", "nan"] {
            let mut argv = distributed.to_vec();
            argv.extend_from_slice(&with_output(&["--max-bad-fraction", bad]));
            let err = run(&args(&argv)).unwrap_err();
            assert!(
                err.message.contains("--max-bad-fraction"),
                "{argv:?}: {err}"
            );
            assert_eq!(err.code, crate::EXIT_ERROR, "{argv:?}");
        }
        assert!(!std::path::Path::new(model).exists());
    }

    /// A negative `--max-bad-fraction` used to abort a clean mine with
    /// exit 3 ("error budget exhausted: 0 of N scanned rows"); it is an
    /// argument error now.
    #[test]
    fn negative_max_bad_fraction_is_an_argument_error_on_clean_data() {
        let dir = workdir();
        let csv = dir.join("clean_fraction.csv");
        write_linear_csv(&csv);
        let model = dir.join("clean_fraction.json");
        let err = run(&args(&[
            "mine",
            "--input",
            csv.to_str().unwrap(),
            "--output",
            model.to_str().unwrap(),
            "--max-bad-fraction",
            "-0.5",
        ]))
        .unwrap_err();
        assert_eq!(err.code, crate::EXIT_ERROR, "{err}");
        assert!(err.message.contains("--max-bad-fraction"), "{err}");
        assert!(!model.exists());
    }

    #[test]
    fn serve_phase_metrics_read_only_the_phase_window() {
        // A registry of its own: the global one is shared across tests.
        let reg = obs::Registry::new();
        let wait = reg.quantile(obs::names::SERVE_QUEUE_WAIT_US);
        let sizes = reg.quantile(obs::names::SERVE_BATCH_SIZE);
        for _ in 0..10 {
            wait.observe(5000.0);
        }
        sizes.observe(8.0);
        let before = reg.snapshot();
        for _ in 0..10 {
            wait.observe(10.0);
        }
        sizes.observe(2.0);
        sizes.observe(4.0);
        let after = reg.snapshot();
        let got: std::collections::BTreeMap<String, f64> =
            serve_phase_metrics("cold", &before, &after)
                .into_iter()
                .collect();
        // Log-bucketed: within one bucket (< 9.1%) of the window's 10 us.
        let p99 = got["cold_serve_queue_wait_us_p99"];
        assert!((10.0..11.0).contains(&p99), "{got:?}");
        assert_eq!(got["cold_serve_batch_size_mean"], 3.0);
        // A family that saw nothing in the window reads 0.
        assert_eq!(got["cold_serve_solve_us_p50"], 0.0);
        assert_eq!(got.len(), 7);
    }
}
