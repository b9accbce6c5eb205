//! Host wall-time benchmark of the AFMM reproduction.
//!
//! ```text
//! hostbench --workload <galaxy_cpu|table2_replay> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one caller, the simulation's own time
//! stepping, on one thread. `--trace 0` calls the program's top-level entry
//! points (`GravitySim::step`, `StrategyTracker::step`) and reports the
//! end-to-end metrics. `--trace 1` runs the same loop untraced, then the
//! traced mirror of it (see `mirror.rs`), checks that the two agree bit for
//! bit, and reports the per-layer metrics. Step times are scaled to a
//! reference speed of the host's memory, sampled between steps (see
//! `speed.rs`). Every result carries a host fingerprint; wall times compare
//! only between results of one host. The last line of standard output is
//! the JSON result. See README.md.

mod mirror;
mod speed;
mod workloads;

use afmm::{GravitySim, HeteroNode, RunSummary, StepRecord, StrategyTracker};
use fmm_math::GravityKernel;
use geom::Vec3;
use mirror::{GravityMirror, Tracer, TrackerMirror};
use speed::SpeedProbe;
use std::time::Instant;
use workloads::{GalaxyInputs, Replay, GALAXY_N, REPLAY_HALF_PERIOD_STEPS, REPLAY_N, STRATEGIES};

/// Fewest measured steps: the median then has ten samples beyond it.
const MIN_STEPS: usize = 20;
/// Bound on the unsoftened p=6 field error: about four times what p=6
/// gives on these workloads (1e-4 to 1.5e-4); p=4 exceeds it.
const FIELD_ERR_BOUND: f64 = 5e-4;
/// How far the traced run's summed self times may stray from its step wall
/// time.
const RECONCILE_TOL: f64 = 0.05;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    GalaxyCpu,
    Table2Replay,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "galaxy_cpu" => Some(Workload::GalaxyCpu),
            "table2_replay" => Some(Workload::Table2Replay),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::GalaxyCpu => "galaxy_cpu",
            Workload::Table2Replay => "table2_replay",
        }
    }

    /// Host seconds one step takes on the reference host; `--seconds`
    /// divided by it gives the step count, so the count (and with it every
    /// virtual metric) depends on the arguments only, never on the host.
    fn nominal_step_s(self) -> f64 {
        match self {
            Workload::GalaxyCpu => 1.0,
            Workload::Table2Replay => 0.045,
        }
    }

    /// Leaf capacity of the field check: the S the Full strategy settles on
    /// for this workload. It is fixed rather than read from each run because
    /// the error jumps where S crosses a tree-level threshold, and runs of
    /// different seeds settle on either side of one.
    fn check_s(self) -> usize {
        match self {
            Workload::GalaxyCpu => 57,
            Workload::Table2Replay => 395,
        }
    }

    /// Rotations the field check pools over (see `workloads::field_rel_err`).
    /// At S = 57 the error depends on how the many small cells cut the cloud,
    /// and four rotations halve its spread between seeds. At the replay's
    /// large S the spread comes from the body realization itself; more
    /// rotations did not narrow it and each costs a full solve.
    fn check_rotations(self) -> usize {
        match self {
            Workload::GalaxyCpu => 4,
            Workload::Table2Replay => 1,
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median. The replay's
    /// set-up is short, so it takes more of them.
    fn setup_reps(self) -> usize {
        match self {
            Workload::GalaxyCpu => 3,
            Workload::Table2Replay => 9,
        }
    }

    fn bodies(self) -> usize {
        match self {
            Workload::GalaxyCpu => GALAXY_N,
            Workload::Table2Replay => REPLAY_N,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Steps attempted and failed, and every failed check, of one run.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Run {
    /// Count one step; a failed step also records why.
    fn step<T, E: std::fmt::Display>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("step {}: {e}", self.attempted));
                None
            }
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// First quartile, median and third quartile (linear interpolation).
fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let x = q * (s.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the untraced loop of one workload leaves: set-up and step wall
/// times, the Full strategy's records, and the final positions for the
/// field check.
struct Plain {
    setup_s: Vec<f64>,
    step_s: Vec<f64>,
    /// Speed-probe passes taken between the set-ups and between the steps.
    setup_passes: Vec<(usize, f64)>,
    passes: Vec<(usize, f64)>,
    full: Vec<StepRecord>,
    final_pos: Vec<Vec3>,
    /// Taken when the loop ends, before the field check allocates.
    peak_rss_mb: f64,
}

fn new_sim(inp: &GalaxyInputs, bodies: nbody::Bodies) -> GravitySim {
    GravitySim::new(
        bodies,
        inp.g,
        inp.dt,
        inp.softening,
        inp.params,
        inp.node.clone(),
        afmm::Strategy::Full,
        inp.cfg,
        Some(inp.domain),
    )
}

fn plain_galaxy(
    inp: &GalaxyInputs,
    setups: usize,
    steps: usize,
    probe: &SpeedProbe,
    run: &mut Run,
) -> Plain {
    let mut setup_s = Vec::new();
    let mut sim = None;
    let mut sampling = probe.start();
    for _ in 0..setups {
        let bodies = inp.bodies.clone();
        let t = Instant::now();
        let mut s = new_sim(inp, bodies);
        let r = s.step();
        setup_s.push(t.elapsed().as_secs_f64());
        run.step(r);
        sim = Some(s);
        sampling.after_step(setup_s.len());
    }
    let setup_passes = sampling.finish(setup_s.len());
    let mut sim = sim.expect("at least one set-up");
    let mut step_s = Vec::new();
    let mut passes = Vec::new();
    if run.failed == 0 {
        let mut sampling = probe.start();
        for _ in 0..steps {
            let t = Instant::now();
            let r = sim.step();
            step_s.push(t.elapsed().as_secs_f64());
            let finite = sim.positions().iter().all(|p| p.is_finite());
            let r = r.map_err(|e| e.to_string()).and_then(|rec| {
                finite
                    .then_some(rec)
                    .ok_or_else(|| "non-finite body positions".to_string())
            });
            if run.step(r).is_none() {
                break;
            }
            sampling.after_step(step_s.len());
        }
        passes = sampling.finish(step_s.len());
    }
    Plain {
        setup_s,
        setup_passes,
        step_s,
        passes,
        full: sim.records().to_vec(),
        final_pos: sim.bodies.pos,
        peak_rss_mb: peak_rss_mb() - probe.resident_mib(),
    }
}

fn new_trackers(rp: &Replay, pos0: &[Vec3]) -> Vec<StrategyTracker<GravityKernel>> {
    STRATEGIES
        .iter()
        .map(|&strategy| {
            StrategyTracker::new(
                GravityKernel::default(),
                rp.params,
                rp.node.clone(),
                strategy,
                rp.cfg,
                pos0,
                Some(rp.domain),
            )
        })
        .collect()
}

fn plain_replay(
    rp: &Replay,
    setups: usize,
    steps: usize,
    probe: &SpeedProbe,
    run: &mut Run,
) -> Plain {
    let mut pos = Vec::new();
    run.check(rp.positions(0, &mut pos), || {
        "trajectory left the domain at step 0".into()
    });
    let mut setup_s = Vec::new();
    let mut trackers = Vec::new();
    let mut sampling = probe.start();
    for _ in 0..setups {
        let t = Instant::now();
        let mut ts = new_trackers(rp, &pos);
        let rs: Vec<_> = ts.iter_mut().map(|tr| tr.step(&pos)).collect();
        setup_s.push(t.elapsed().as_secs_f64());
        for r in rs {
            run.step(r);
        }
        trackers = ts;
        sampling.after_step(setup_s.len());
    }
    let setup_passes = sampling.finish(setup_s.len());
    let mut step_s = Vec::new();
    let mut passes = Vec::new();
    if run.failed == 0 {
        let mut sampling = probe.start();
        'steps: for k in 1..=steps {
            let inside = rp.positions(k, &mut pos);
            run.check(inside, || format!("trajectory left the domain at step {k}"));
            let t = Instant::now();
            let rs: Vec<_> = trackers.iter_mut().map(|tr| tr.step(&pos)).collect();
            step_s.push(t.elapsed().as_secs_f64());
            for r in rs {
                if run.step(r).is_none() {
                    break 'steps;
                }
            }
            sampling.after_step(step_s.len());
        }
        passes = sampling.finish(step_s.len());
    }
    Plain {
        setup_s,
        setup_passes,
        step_s,
        passes,
        full: trackers[2].records().to_vec(),
        final_pos: pos,
        peak_rss_mb: peak_rss_mb() - probe.resident_mib(),
    }
}

/// The unsoftened field check on the run's final state.
fn field_check(
    w: Workload,
    plain: &Plain,
    mass: &[f64],
    params: afmm::FmmParams,
    domain: (Vec3, f64),
    run: &mut Run,
) -> f64 {
    let t = Instant::now();
    let s = w.check_s();
    let rotations = w.check_rotations();
    let err = workloads::field_rel_err(&plain.final_pos, mass, params, s, domain, rotations);
    let what = format!("p={} S={s}, {rotations} rotation(s)", params.order);
    match err {
        Some(e) if e <= FIELD_ERR_BOUND => println!(
            "# field check ({what}): rel err {e:.3e} <= {FIELD_ERR_BOUND:e}, took {:.1}s",
            t.elapsed().as_secs_f64()
        ),
        _ => {
            run.failed += 1;
            run.problems.push(format!(
                "field check ({what}): {err:?} exceeds {FIELD_ERR_BOUND:e}"
            ));
        }
    }
    err.unwrap_or(f64::NAN)
}

/// OS high-water mark of resident memory, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(w: Workload, plain: &Plain, field_err: f64) -> Vec<Metric> {
    let steps = plain.step_s.len() as f64;
    let step_s = speed::at_reference(&plain.step_s, &plain.passes);
    vec![
        Metric {
            name: "setup_s",
            value: median(&speed::at_reference(&plain.setup_s, &plain.setup_passes)),
            unit: "s",
        },
        Metric {
            name: "step_s_p50",
            value: median(&step_s),
            unit: "s",
        },
        Metric {
            name: "body_steps_per_s",
            value: ratio(w.bodies() as f64 * steps, step_s.iter().sum()),
            unit: "1/s",
        },
        Metric {
            name: "virtual_step_s",
            value: RunSummary::from_records(&plain.full).mean_total_per_step,
            unit: "s",
        },
        Metric {
            name: "field_rel_err",
            value: field_err,
            unit: "ratio",
        },
        Metric {
            name: "peak_rss_mb",
            value: plain.peak_rss_mb,
            unit: "MiB",
        },
    ]
}

/// The traced mirror of the loop, and what it needs for the per-layer
/// metrics.
struct Traced {
    tracer: Tracer,
    step_s: Vec<f64>,
    passes: Vec<(usize, f64)>,
    full: Vec<StepRecord>,
    /// Per strategy, for the replay's relative costs.
    all: Vec<Vec<StepRecord>>,
    pred_errs: Vec<f64>,
    acted: mirror::BalanceCounts,
    heap_bytes: usize,
    rec: telemetry::Recorder,
}

fn recorder() -> telemetry::Recorder {
    // Only the three solve spans of the current step are read back.
    telemetry::Recorder::with_capacity(64)
}

fn traced_galaxy(inp: &GalaxyInputs, steps: usize, probe: &SpeedProbe, run: &mut Run) -> Traced {
    let rec = recorder();
    let mut tracer = Tracer::new();
    let mut m = GravityMirror::new(inp, rec.clone(), &mut tracer);
    let mut step_s = Vec::new();
    let mut sampling = probe.start();
    for k in 0..=steps {
        let t = Instant::now();
        let r = m.step(&mut tracer);
        if k > 0 {
            step_s.push(t.elapsed().as_secs_f64());
        }
        let finite = m.last_field.iter().all(|f| f.is_finite());
        let r = r.map_err(|e| e.to_string()).and_then(|rec| {
            finite
                .then_some(rec)
                .ok_or_else(|| "non-finite field".to_string())
        });
        if run.step(r).is_none() {
            break;
        }
        sampling.after_step(step_s.len());
    }
    Traced {
        tracer,
        passes: sampling.finish(step_s.len()),
        step_s,
        full: m.records.clone(),
        all: vec![m.records.clone()],
        pred_errs: m.pred_errs.clone(),
        acted: m.acted,
        heap_bytes: m.engine.heap_bytes(),
        rec,
    }
}

fn traced_replay(rp: &Replay, steps: usize, probe: &SpeedProbe, run: &mut Run) -> Traced {
    let rec = recorder();
    let mut tracer = Tracer::new();
    let mut pos = Vec::new();
    rp.positions(0, &mut pos);
    let mut ms: Vec<TrackerMirror> = STRATEGIES
        .iter()
        .map(|&strategy| TrackerMirror::new(rp, strategy, &pos, rec.clone(), &mut tracer))
        .collect();
    let mut step_s = Vec::new();
    let mut sampling = probe.start();
    'steps: for k in 0..=steps {
        rp.positions(k, &mut pos);
        tracer.set_step(k);
        let t = Instant::now();
        let rs: Vec<_> = ms.iter_mut().map(|m| m.step(&pos, &mut tracer)).collect();
        if k > 0 {
            step_s.push(t.elapsed().as_secs_f64());
        }
        for r in rs {
            if run.step(r).is_none() {
                break 'steps;
            }
        }
        sampling.after_step(step_s.len());
    }
    let passes = sampling.finish(step_s.len());
    let full = &ms[2];
    Traced {
        full: full.records.clone(),
        all: ms.iter().map(|m| m.records.clone()).collect(),
        pred_errs: full.pred_errs.clone(),
        acted: full.acted,
        heap_bytes: full.engine.heap_bytes(),
        tracer,
        step_s,
        passes,
        rec,
    }
}

fn per_layer(w: Workload, plain: &Plain, t: &Traced, run: &mut Run) -> Vec<Metric> {
    let tr = &t.tracer;
    let n = w.bodies() as f64;
    let m = t.step_s.len() as f64;
    let per_step = |name: &str| ratio(tr.total(name, 1), m);
    let galaxy = w != Workload::Table2Replay;
    // Host work of the solve over the measured steps; only the galaxy loops
    // solve, the replay's op counts are virtual.
    let (mut pairs, mut m2l) = (0.0, 0.0);
    if galaxy {
        for r in t.full.iter().skip(1) {
            pairs += r.p2p_interactions as f64;
            m2l += r.m2l_ops as f64;
        }
    }
    let up = tr.total("solve.upsweep", 1);
    let down = tr.total("solve.downsweep", 1);
    let near = tr.total("solve.near_field", 1);
    let solve = tr.total("afmm.solve", 1);
    let rebin = tr.total("octree.rebin", 1);
    let rebins = tr
        .spans
        .iter()
        .filter(|s| s.name == "octree.rebin" && s.step >= 1)
        .count();
    let metrics = t.rec.metrics();
    let count = |name: &str| metrics.counter(name).unwrap_or(0);
    let rebuilt = count("plan.rebuild") as f64;
    let refreshes = rebuilt + (count("plan.refresh.clean") + count("plan.refresh.patched")) as f64;
    let summary = |recs: &[StepRecord]| RunSummary::from_records(recs).mean_total_per_step;
    let rel_cost = |i: usize| {
        if galaxy {
            0.0
        } else {
            ratio(summary(&t.all[i]), summary(&t.full))
        }
    };
    let traced_total: f64 = t.step_s.iter().sum();

    // Traced-run equivalence and reconciliation.
    let mism = mirror::mismatches(&plain.full, &t.full);
    run.check(mism == 0, || {
        format!("traced run differs from the untraced run on {mism} steps")
    });
    let self_total = tr.top_level_total(1);
    let gap = ratio((self_total - traced_total).abs(), traced_total);
    run.check(gap <= RECONCILE_TOL, || {
        format!(
            "per-layer self times miss step wall time by {:.1}%",
            100.0 * gap
        )
    });
    println!(
        "# traced run: {mism} of {} steps differ; self times {self_total:.4}s vs step wall {traced_total:.4}s ({:.2}%)",
        t.full.len(),
        100.0 * gap
    );

    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric("fmm-math.p2p_pairs", ratio(pairs, m), "pairs"),
        metric(
            "fmm-math.p2p_mpairs_per_s",
            ratio(pairs, near) / 1e6,
            "Mpairs/s",
        ),
        metric("fmm-math.m2l_ops", ratio(m2l, m), "ops"),
        metric("fmm-math.m2l_us_per_op", ratio(down, m2l) * 1e6, "us"),
        metric("fmm-math.p2m_ns_per_body", ratio(up, n * m) * 1e9, "ns"),
        metric("afmm.solve_s", per_step("afmm.solve"), "s"),
        metric("afmm.solve.upsweep_s", ratio(up, m), "s"),
        metric("afmm.solve.downsweep_s", ratio(down, m), "s"),
        metric("afmm.solve.near_field_s", ratio(near, m), "s"),
        metric(
            "afmm.solve.other_s",
            ratio(solve - up - down - near, m),
            "s",
        ),
        metric("octree.build_s", tr.total("octree.build", 0), "s"),
        metric("octree.rebin_s", ratio(rebin, m), "s"),
        metric(
            "octree.rebin_mbodies_per_s",
            ratio(n * rebins as f64, rebin) / 1e6,
            "Mbodies/s",
        ),
        metric("afmm.plan.refresh_s", per_step("afmm.plan.refresh"), "s"),
        metric("afmm.plan.rebuild_frac", ratio(rebuilt, refreshes), "ratio"),
        metric(
            "afmm.exec.time_step_s",
            per_step("afmm.exec.time_step"),
            "s",
        ),
        metric(
            "afmm.balance.post_step_s",
            per_step("afmm.balance.post_step"),
            "s",
        ),
        metric("afmm.balance.rebuilds", t.acted.rebuilds as f64, "count"),
        metric("afmm.balance.enforces", t.acted.enforces as f64, "count"),
        metric(
            "afmm.balance.fgo_rounds",
            t.acted.fgo_rounds as f64,
            "count",
        ),
        metric(
            "afmm.balance.lb_frac",
            RunSummary::from_records(&t.full).lb_fraction(),
            "ratio",
        ),
        metric("afmm.balance.rel_cost_static_s", rel_cost(0), "ratio"),
        metric("afmm.balance.rel_cost_enforce_only", rel_cost(1), "ratio"),
        metric("afmm.cost.pred_rel_err_p50", median(&t.pred_errs), "ratio"),
        metric(
            "afmm.engine.heap_bytes_per_body",
            t.heap_bytes as f64 / n,
            "B",
        ),
        metric(
            "telemetry.trace_overhead_frac",
            ratio(
                speed::at_reference(&t.step_s, &t.passes).iter().sum(),
                speed::at_reference(&plain.step_s, &plain.passes)
                    .iter()
                    .sum(),
            ) - 1.0,
            "ratio",
        ),
    ]
}

/// CPU model, usable parallelism and build profile: wall times compare only
/// between results with the same fingerprint.
fn host_fingerprint() -> (String, usize, &'static str) {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, v)| v.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    (cpu, nproc, profile)
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    telemetry::push_json_str(&mut out, s);
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Append the full result, fingerprint included, to `out/results.jsonl`
/// beside this package, and write the traced run's spans next to it.
fn save(args: &Args, host_json: &str, result: &str, spans: Option<String>) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let write = || -> std::io::Result<()> {
        use std::io::Write;
        std::fs::create_dir_all(&dir)?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("results.jsonl"))?;
        writeln!(
            f,
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{host_json},\"result\":{result}}}",
            args.workload.name(),
            args.seed,
            args.seconds,
            args.trace
        )?;
        if let Some(spans) = spans {
            let name = format!("trace-{}-{}.jsonl", args.workload.name(), args.seed);
            std::fs::write(dir.join(name), spans)?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!(
            "hostbench: could not save results under {}: {e}",
            dir.display()
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <galaxy_cpu|table2_replay> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let steps = MIN_STEPS.max((args.seconds / w.nominal_step_s()).round() as usize);
    let (cpu, nproc, profile) = host_fingerprint();
    println!(
        "# hostbench {} seed={} steps={steps} trace={} | host: {cpu} | nproc={nproc} | profile={profile}",
        w.name(),
        args.seed,
        args.trace as u8
    );
    let mut run = Run::default();
    let setups = if args.trace { 1 } else { w.setup_reps() };
    // Resident from here on, so `peak_rss_mb` can leave it out exactly.
    let probe = SpeedProbe::new();

    // Inputs come from the seed, before anything is timed.
    let (plain, traced, field_err) = match w {
        Workload::Table2Replay => {
            let rp = Replay::new(REPLAY_N, args.seed, REPLAY_HALF_PERIOD_STEPS);
            let plain = plain_replay(&rp, setups, steps, &probe, &mut run);
            let traced = args
                .trace
                .then(|| traced_replay(&rp, steps, &probe, &mut run));
            let err = field_check(w, &plain, &rp.bodies.mass, rp.params, rp.domain, &mut run);
            (plain, traced, err)
        }
        Workload::GalaxyCpu => {
            let inp = workloads::galaxy(GALAXY_N, args.seed, HeteroNode::system_b(32));
            let plain = plain_galaxy(&inp, setups, steps, &probe, &mut run);
            let traced = args
                .trace
                .then(|| traced_galaxy(&inp, steps, &probe, &mut run));
            let err = field_check(
                w,
                &plain,
                &inp.bodies.mass,
                inp.params,
                inp.domain,
                &mut run,
            );
            (plain, traced, err)
        }
    };

    let metrics = match &traced {
        Some(t) => per_layer(w, &plain, t, &mut run),
        None => end_to_end(w, &plain, field_err),
    };
    for m in &metrics {
        if !m.value.is_finite() {
            run.problems.push(format!("{} is not finite", m.name));
        }
    }
    let (q1, p50, q3) = quartiles(&plain.step_s);
    println!(
        "# untraced step wall time: n={} q1={q1:.6}s p50={p50:.6}s q3={q3:.6}s; set-up wall times: {:?}",
        plain.step_s.len(),
        plain.setup_s
    );
    let pass_s: Vec<f64> = plain.passes.iter().map(|&(_, s)| s).collect();
    println!(
        "# speed probe: {} passes, p50={:.6}s against {}s: step times scale by {:.4}",
        pass_s.len(),
        median(&pass_s),
        speed::REF_PASS_S,
        speed::REF_PASS_S / median(&pass_s)
    );
    for m in &metrics {
        println!("{:<40} {:>16.6e} {}", m.name, m.value, m.unit);
    }
    for p in &run.problems {
        println!("# FAILED: {p}");
    }
    let finite: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        run.problems.is_empty(),
        run.attempted,
        run.failed,
        metrics_json(&finite)
    );
    let host_json = format!(
        "{{\"cpu\":{},\"nproc\":{nproc},\"profile\":\"{profile}\"}}",
        json_str(&cpu)
    );
    save(
        &args,
        &host_json,
        &result,
        traced.map(|t| t.tracer.to_jsonl()),
    );
    println!("{result}");
}
