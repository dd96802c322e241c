//! The measurement loops shared by every workload.
//!
//! An untraced run (`--trace 0`) sets the workload up several times and
//! reports the median set-up time, then repeats one fixed unit of work on
//! every available core until the run time is spent and reports the median
//! throughput of the units. A traced run (`--trace 1`) alternates two kinds
//! of single-worker *rounds* (set-up plus one unit): an untraced one, and a
//! traced one that records spans around every call into a layer. Every
//! unit and round must produce the same simulated outcome, to the bit.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Instant;

use crate::span::{self, Tracer};
use crate::stats::{median, Metrics, Tally};

/// Set-ups measured per untraced run: at least `SETUP_MIN`, then more
/// until `SETUP_BUDGET_S` is spent or `SETUP_MAX` is reached. `setup_s` is
/// their median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 15;
const SETUP_BUDGET_S: f64 = 1.5;

/// One timed unit of work.
pub struct Unit<F> {
    /// Work items completed (cases, member operations, sessions).
    pub work: u64,
    /// Host seconds the work took.
    pub busy_s: f64,
    /// Other work counts reported as rates over the same time: name,
    /// unit, count.
    pub also: Vec<(&'static str, &'static str, u64)>,
    /// The simulated outcome, which must repeat exactly.
    pub facts: F,
}

/// What a workload's outcome says about correctness.
pub struct Verdict {
    /// Failed correctness checks; empty when the outputs are right.
    pub problems: Vec<String>,
    /// Operations attempted and failed in one unit.
    pub tally: Tally,
    /// Simulated (model) metrics, fixed by the seed.
    pub sim: Metrics,
}

/// Exact per-round counts recorded next to the spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

pub trait Workload {
    type Setup;
    type Facts: PartialEq + Debug;

    /// Name and unit of the work-rate metric this workload's `work_per_s` stands for.
    const WORK: (&'static str, &'static str);

    /// Worker threads for the untraced run's units, given the cores.
    fn jobs(&self, cores: usize) -> usize {
        cores
    }

    /// Everything before the first timed unit of work.
    fn setup(&self) -> Self::Setup;

    /// One timed unit of work on `jobs` worker threads.
    fn unit(&self, setup: &Self::Setup, jobs: usize) -> Unit<Self::Facts>;

    /// One untraced single-worker round: set-up plus one unit.
    fn plain_round(&self) -> Self::Facts;

    /// The same round with spans around every call into a layer.
    ///
    /// # Errors
    ///
    /// Reports a replayed call whose result differs from the original.
    fn traced_round(&self, tracer: &mut Tracer, counts: &mut Counts)
        -> Result<Self::Facts, String>;

    /// Checks an outcome and derives the simulated metrics from it.
    fn verdict(&self, facts: &Self::Facts) -> Verdict;

    /// Moves time between layers of one traced round (nanoseconds by
    /// span name) before it is reported; used where a layer is known only
    /// as a remainder, which noise can make negative.
    fn attribute(&self, _round: &mut BTreeMap<&'static str, i64>) {}
}

/// Span names that belong to no layer: the round itself and the glue of
/// a replay.
const UNATTRIBUTED: [&str; 2] = ["round", "replay"];

/// Layers timed by spans of the same name; each is reported as `<name>_ms`.
const TIMED_LAYERS: [&str; 13] = [
    "net.topology",
    "net.spt",
    "core.smrp_join",
    "core.leave",
    "core.reshape",
    "core.spf_join",
    "core.plan",
    "proto.hier_build",
    "proto.hier_recover",
    "proto.run",
    "faultlab.generate",
    "faultlab.audit",
    "faultlab.locality_audit",
];

/// Exact counts reported as they are.
const COUNTS: [&str; 24] = [
    "net.spt_calls",
    "core.smrp_joins",
    "core.leaves",
    "core.reshapes",
    "core.spf_joins",
    "core.plans",
    "proto.hier_recovers",
    "proto.runs",
    "faultlab.audits",
    "sim.msgs_delivered",
    "sim.msgs_dropped",
    "sim.trace_events",
    "sim.trace_bytes",
    "proto.retransmits",
    "proto.acks",
    "proto.dup_drops",
    "proto.retry_exhaustions",
    "proto.channel_lost",
    "proto.ctrl.hello",
    "proto.ctrl.refresh",
    "proto.ctrl.setup",
    "proto.ctrl.leave",
    "core.reshape_switches",
    "core.recoveries",
];

/// How one run went: the result line's parts.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    pub problems: Vec<String>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn check_repeat<F: PartialEq + Debug>(
    first: &F,
    again: &F,
    what: &str,
    problems: &mut Vec<String>,
) {
    if first != again && problems.len() < 8 {
        problems.push(format!(
            "{what} differs from the first: {again:?} vs {first:?}"
        ));
    }
}

/// Prints the simulated metrics and a digest of the whole simulated
/// outcome, so that the untraced and traced runs of one seed can be
/// compared line by line.
fn print_sim<F: Debug>(facts: &F, verdict: &Verdict) {
    for m in verdict.sim.iter() {
        println!("# {} = {} {} (sim)", m.name, m.value, m.unit);
    }
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in format!("{facts:?}").bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    println!("# sim_digest = {h:#018x}");
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced<W: Workload>(w: &W, seconds: f64, cores: usize) -> Outcome {
    let jobs = w.jobs(cores);
    let mut problems = Vec::new();
    let mut setup_s = Vec::with_capacity(SETUP_MAX);
    let mut setup = None;
    let begin = Instant::now();
    while setup_s.len() < SETUP_MIN || (setup_s.len() < SETUP_MAX && secs(begin) < SETUP_BUDGET_S) {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(w.setup());
        setup_s.push(secs(t));
    }
    let setup = setup.expect("at least one set-up");

    let start = Instant::now();
    let mut rates = Vec::new();
    let mut also_rates: Vec<Vec<f64>> = Vec::new();
    let mut first: Option<Unit<W::Facts>> = None;
    loop {
        let unit = w.unit(&setup, jobs);
        rates.push(unit.work as f64 / unit.busy_s);
        also_rates.resize(unit.also.len(), Vec::new());
        for (r, (_, _, n)) in also_rates.iter_mut().zip(&unit.also) {
            r.push(*n as f64 / unit.busy_s);
        }
        match &first {
            None => first = Some(unit),
            Some(f) => check_repeat(
                &f.facts,
                &unit.facts,
                "a repeated unit's outcome",
                &mut problems,
            ),
        }
        if secs(start) >= seconds {
            break;
        }
    }
    let first = first.expect("at least one unit");
    let verdict = w.verdict(&first.facts);
    problems.extend(verdict.problems.iter().cloned());

    let work_per_s = median(&rates);
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        problems.push(format!("peak RSS unavailable: {e}"));
        0.0
    });
    let (work_name, work_unit) = W::WORK;
    println!(
        "# units {} (work {} each, {jobs} workers), set-ups {}",
        rates.len(),
        first.work,
        setup_s.len()
    );
    println!(
        "# {work_name} = {work_per_s} {work_unit} (median of {} units)",
        rates.len()
    );
    for ((name, unit, _), r) in first.also.iter().zip(&also_rates) {
        println!(
            "# {name} = {} {unit} (median of {} units)",
            median(r),
            r.len()
        );
    }
    let lo = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = setup_s.iter().copied().fold(0.0, f64::max);
    println!("# set-up times: min {lo} s, max {hi} s");
    print_sim(&first.facts, &verdict);
    let tally = Tally {
        attempted: verdict.tally.attempted * rates.len() as u64,
        failed: verdict.tally.failed * rates.len() as u64,
    };
    println!(
        "# failed_frac = {} ratio ({} of {} attempted)",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    println!("# peak_rss_mb = {rss} MB");

    let mut metrics = Metrics::default();
    let mut put = |name: &str, v: f64, unit: &'static str| {
        metrics
            .push(name, v, unit)
            .expect("end-to-end metric names are valid");
    };
    put("work_per_s", work_per_s, "1/s");
    put("setup_s", median(&setup_s), "s");
    put("peak_rss_mb", rss, "MB");
    Outcome {
        metrics,
        tally,
        problems,
    }
}

/// The traced run: per-layer metrics.
pub fn run_traced<W: Workload>(w: &W, seconds: f64, spans_out: Option<&str>) -> Outcome {
    let mut problems = Vec::new();
    let mut tracer = Tracer::new();
    let mut plain_walls = Vec::new();
    let mut first_facts: Option<W::Facts> = None;
    let mut first_counts: Option<Counts> = None;
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let plain = w.plain_round();
        plain_walls.push(secs(t) * 1e3);

        let mut counts = Counts::default();
        let root = tracer.enter("round");
        let traced = w.traced_round(&mut tracer, &mut counts);
        tracer.exit(root);
        let traced = match traced {
            Ok(f) => f,
            Err(e) => {
                problems.push(e);
                break;
            }
        };
        match &first_facts {
            None => first_facts = Some(plain),
            Some(f) => check_repeat(f, &plain, "an untraced round's outcome", &mut problems),
        }
        let first = first_facts.as_ref().expect("set above");
        check_repeat(first, &traced, "the traced round's outcome", &mut problems);
        match &first_counts {
            None => first_counts = Some(counts),
            Some(c) => check_repeat(c, &counts, "a traced round's counts", &mut problems),
        }
        if secs(start) >= seconds {
            break;
        }
    }

    if let Some(path) = spans_out {
        if let Err(e) = std::fs::write(path, tracer.to_jsonl()) {
            problems.push(format!("cannot write spans to {path}: {e}"));
        }
    }
    let mut tally = Tally::default();
    if let Some(facts) = &first_facts {
        let verdict = w.verdict(facts);
        print_sim(facts, &verdict);
        tally = verdict.tally;
        problems.extend(verdict.problems);
    }
    let counts = first_counts.unwrap_or_default();
    let metrics = layer_metrics(w, &tracer, &counts, &plain_walls);
    for m in metrics.iter() {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    Outcome {
        metrics,
        tally,
        problems,
    }
}

/// Per-layer metrics from the recorded spans and the first round's counts.
fn layer_metrics<W: Workload>(
    w: &W,
    tracer: &Tracer,
    counts: &Counts,
    plain_walls_ms: &[f64],
) -> Metrics {
    let spans = tracer.spans();
    let rounds: Vec<BTreeMap<&'static str, i64>> = span::self_time_by_round(spans)
        .into_iter()
        .map(|r| {
            let mut r = r
                .into_iter()
                .map(|(name, ns)| (name, i64::try_from(ns).expect("a round is under 292 years")))
                .collect();
            w.attribute(&mut r);
            r
        })
        .collect();
    let ms = |ns: i64| ns as f64 / 1e6;
    let per_round = |f: &dyn Fn(&BTreeMap<&'static str, i64>) -> f64| {
        let v: Vec<f64> = rounds.iter().map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let layer = |r: &BTreeMap<&'static str, i64>, name: &str| r.get(name).copied().unwrap_or(0);
    let wall = |r: &BTreeMap<&'static str, i64>| r.values().sum::<i64>();
    let unattributed =
        |r: &BTreeMap<&'static str, i64>| UNATTRIBUTED.iter().map(|n| layer(r, n)).sum::<i64>();
    let self_by_call = span::self_times(spans);
    let per_call_us = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .zip(&self_by_call)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };

    let mut m = Metrics::default();
    let mut put = |name: &str, v: f64, unit: &'static str| {
        m.push(name, v, unit)
            .expect("per-layer metric names are valid");
    };
    for name in TIMED_LAYERS {
        put(
            &format!("{name}_ms"),
            per_round(&|r| ms(layer(r, name))),
            "ms",
        );
    }
    put("net.spt_us_per_call", per_call_us("net.spt"), "us");
    put(
        "core.smrp_join_us_per_call",
        per_call_us("core.smrp_join"),
        "us",
    );
    for name in COUNTS {
        let unit = if name == "sim.trace_bytes" {
            "bytes"
        } else {
            "count"
        };
        put(name, counts.get(name), unit);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    put(
        "core.reshape_switch_ratio",
        ratio(
            counts.get("core.reshape_switches"),
            counts.get("core.reshapes"),
        ),
        "ratio",
    );
    put(
        "core.rd_ms.mean",
        ratio(counts.get("core.rd_ms_sum"), counts.get("core.recoveries")),
        "ms",
    );
    let delivered = counts.get("sim.msgs_delivered");
    put(
        "sim.ns_per_msg",
        per_round(&|r| ratio(layer(r, "proto.run") as f64, delivered)),
        "ns",
    );
    let traced_wall_ms = per_round(&|r| ms(wall(r)));
    let plain_wall_ms = if plain_walls_ms.is_empty() {
        0.0
    } else {
        median(plain_walls_ms)
    };
    put("trace.rounds", rounds.len() as f64, "count");
    put("trace.wall_ms", traced_wall_ms, "ms");
    put("trace.untraced_wall_ms", plain_wall_ms, "ms");
    put("trace.overhead_ms", traced_wall_ms - plain_wall_ms, "ms");
    put(
        "trace.unattributed_share",
        per_round(&|r| ratio(unattributed(r) as f64, wall(r) as f64)),
        "ratio",
    );
    m
}
