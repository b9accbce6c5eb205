//! Traced mirrors of the program's two top-level time-stepping entry
//! points. Each mirror owns the same parts as the type it copies and makes
//! the same sequence of public calls, timing every call from here; the
//! program itself is not instrumented beyond the engine's existing
//! `solve.*` spans, which an attached recorder collects.

use crate::workloads::{GalaxyInputs, Replay};
use afmm::{
    lbtime, CostModel, Error, FmmEngine, HeteroNode, LoadBalancer, StepRecord, Strategy,
    TimingFilter,
};
use fmm_math::{GravityKernel, Kernel, OpFlops};
use geom::Vec3;
use nbody::Bodies;
use std::time::Instant;

/// One timed call. Spans of one time step share `step`; `parent` names the
/// span that caused this one (`None` for calls the mirror makes itself).
/// Engine spans carry no start: the recorder reports durations only.
#[derive(Clone, Debug)]
pub struct Span {
    pub step: usize,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_s: Option<f64>,
    pub dur_s: f64,
}

/// The engine's own spans that split `FmmEngine::try_solve`.
const SOLVE_CHILDREN: [&str; 3] = ["solve.upsweep", "solve.downsweep", "solve.near_field"];

/// In-memory span buffer, written out once the run ends.
pub struct Tracer {
    origin: Instant,
    step: usize,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            step: 0,
            spans: Vec::new(),
        }
    }

    pub fn set_step(&mut self, step: usize) {
        self.step = step;
    }

    /// Run `f` and record its wall time as a top-level span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let dur_s = start.elapsed().as_secs_f64();
        self.spans.push(Span {
            step: self.step,
            name,
            parent: None,
            start_s: Some((start - self.origin).as_secs_f64()),
            dur_s,
        });
        out
    }

    /// Move the recorder's `solve.*` spans of the current step into the
    /// buffer as children of `afmm.solve`.
    fn take_engine_spans(&mut self, rec: &telemetry::Recorder) {
        for ev in rec.events() {
            if ev.step == self.step as u64 {
                if let Some(name) = SOLVE_CHILDREN.iter().find(|&&n| n == ev.name) {
                    self.spans.push(Span {
                        step: self.step,
                        name,
                        parent: Some("afmm.solve"),
                        start_s: None,
                        dur_s: ev.dur_s.unwrap_or(0.0),
                    });
                }
            }
        }
    }

    /// Total duration of the spans named `name`, over steps `from..`.
    pub fn total(&self, name: &str, from: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.step >= from)
            .fold(0.0, |acc, s| acc + s.dur_s)
    }

    /// Sum of top-level span durations over steps `from..`: with children
    /// nested inside their parents, this is also the sum of all self times.
    pub fn top_level_total(&self, from: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.step >= from)
            .fold(0.0, |acc, s| acc + s.dur_s)
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let start = s.start_s.map_or("null".to_string(), |v| format!("{v:.9}"));
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            out.push_str(&format!(
                "{{\"step\":{},\"name\":\"{}\",\"parent\":{},\"start_s\":{},\"dur_s\":{:.9}}}\n",
                s.step, s.name, parent, start, s.dur_s
            ));
        }
        out
    }
}

/// Relative error of a cost-model forecast against the realized virtual
/// makespan of the same step.
fn pred_rel_err(pred: afmm::Prediction, timing: &afmm::TimingReport) -> f64 {
    pred.audit(0, timing, false).rel_error()
}

/// Mirror of `GravitySim`: solve, integrate, maintain.
pub struct GravityMirror {
    pub bodies: Bodies,
    g: f64,
    dt: f64,
    pub engine: FmmEngine<GravityKernel>,
    flops: OpFlops,
    model: CostModel,
    balancer: LoadBalancer,
    node: HeteroNode,
    pub records: Vec<StepRecord>,
    /// Cost-model forecast error per step (from the second step on).
    pub pred_errs: Vec<f64>,
    /// Field of the most recent solve, for the finiteness check.
    pub last_field: Vec<Vec3>,
    pub acted: BalanceCounts,
}

impl GravityMirror {
    /// Same construction as `GravitySim::new` with the Full strategy, with
    /// `rec` attached to the engine so its solve spans are collected.
    pub fn new(inp: &GalaxyInputs, rec: telemetry::Recorder, tr: &mut Tracer) -> Self {
        let balancer = LoadBalancer::new(Strategy::Full, inp.cfg);
        let s0 = balancer.s();
        let kernel = GravityKernel::new(inp.softening);
        let (c, hw) = inp.domain;
        let mut engine = tr.time("octree.build", || {
            FmmEngine::with_domain(kernel, inp.params, &inp.bodies.pos, s0, c, hw)
        });
        engine.set_recorder(rec);
        let flops = engine.kernel.op_flops(engine.expansion_ops());
        GravityMirror {
            bodies: inp.bodies.clone(),
            g: inp.g,
            dt: inp.dt,
            engine,
            flops,
            model: CostModel::new(),
            balancer,
            node: inp.node.clone(),
            records: Vec::new(),
            pred_errs: Vec::new(),
            last_field: Vec::new(),
            acted: BalanceCounts::default(),
        }
    }

    /// The calls `GravitySim::step` makes, in its order, each timed.
    pub fn step(&mut self, tr: &mut Tracer) -> Result<StepRecord, Error> {
        let step = self.records.len();
        tr.set_step(step);
        self.engine.recorder().set_step(step as u64);
        let state = self.balancer.state();
        let s = self.engine.tree().s_value();
        let sol = tr.time("afmm.solve", || {
            self.engine.try_solve(&self.bodies.pos, &self.bodies.mass)
        })?;
        tr.take_engine_spans(self.engine.recorder());
        let counts = self.engine.counts();
        let predicted = self
            .model
            .is_observed()
            .then(|| self.model.predict(&counts, &self.node));
        let timing = tr.time("afmm.exec.time_step", || {
            self.engine.time_step(&self.flops, &self.node)
        })?;
        if let Some(pred) = predicted {
            self.pred_errs.push(pred_rel_err(pred, &timing));
        }
        tr.time("afmm.cost.observe", || {
            self.model
                .observe(&counts, &timing, &self.flops, &self.node)
        });

        let (g, dt) = (self.g, self.dt);
        let bodies = &mut self.bodies;
        tr.time("nbody.integrate", || {
            for i in 0..bodies.len() {
                bodies.vel[i] += sol.field[i] * (g * dt);
                let v = bodies.vel[i];
                bodies.pos[i] += v * dt;
            }
        });
        self.last_field = sol.field;

        let mut t_lb = lbtime::rebin(&self.node, self.bodies.len());
        tr.time("octree.rebin", || self.engine.rebin(&self.bodies.pos));
        let rep = tr.time("afmm.balance.post_step", || {
            self.balancer.post_step(
                &mut self.engine,
                &self.model,
                &self.node,
                &self.bodies.pos,
                timing.t_cpu,
                timing.t_gpu,
            )
        });
        self.acted.add(&rep);
        t_lb += rep.lb_time;
        let rec = StepRecord {
            step,
            s,
            state,
            t_cpu: timing.t_cpu,
            t_gpu: timing.t_gpu,
            t_lb,
            gpu_efficiency: timing.gpu_efficiency(),
            p2p_interactions: counts.p2p_interactions,
            m2l_ops: counts.m2l_ops,
        };
        self.records.push(rec);
        Ok(rec)
    }
}

/// What a tracker mirror's balancer did over its run.
#[derive(Clone, Copy, Debug, Default)]
pub struct BalanceCounts {
    pub rebuilds: u64,
    pub enforces: u64,
    pub fgo_rounds: u64,
}

impl BalanceCounts {
    fn add(&mut self, rep: &afmm::LbReport) {
        self.rebuilds += u64::from(rep.rebuilt);
        self.enforces += u64::from(rep.enforced);
        self.fgo_rounds += rep.fgo_rounds as u64;
    }
}

/// Mirror of `StrategyTracker` with no faults and no measurement noise.
pub struct TrackerMirror {
    pub engine: FmmEngine<GravityKernel>,
    flops: OpFlops,
    model: CostModel,
    balancer: LoadBalancer,
    node: HeteroNode,
    first: bool,
    filter_cpu: TimingFilter,
    filter_gpu: TimingFilter,
    pub records: Vec<StepRecord>,
    pub pred_errs: Vec<f64>,
    pub acted: BalanceCounts,
}

impl TrackerMirror {
    /// Same construction as `StrategyTracker::new` with the default kernel,
    /// on the replay's configuration.
    pub fn new(
        rp: &Replay,
        strategy: Strategy,
        pos0: &[Vec3],
        rec: telemetry::Recorder,
        tr: &mut Tracer,
    ) -> Self {
        let balancer = LoadBalancer::new(strategy, rp.cfg);
        let s0 = balancer.s();
        let (c, hw) = rp.domain;
        let mut engine = tr.time("octree.build", || {
            FmmEngine::with_domain(GravityKernel::default(), rp.params, pos0, s0, c, hw)
        });
        engine.set_recorder(rec);
        let flops = engine.kernel.op_flops(engine.expansion_ops());
        TrackerMirror {
            engine,
            flops,
            model: CostModel::new(),
            balancer,
            node: rp.node.clone(),
            first: true,
            filter_cpu: TimingFilter::default(),
            filter_gpu: TimingFilter::default(),
            records: Vec::new(),
            pred_errs: Vec::new(),
            acted: BalanceCounts::default(),
        }
    }

    /// The calls `StrategyTracker::step` makes, in its order, each timed.
    /// The caller sets the tracer's step: one trajectory step drives
    /// several trackers.
    pub fn step(&mut self, pos: &[Vec3], tr: &mut Tracer) -> Result<StepRecord, Error> {
        let step = self.records.len();
        let mut t_lb = 0.0;
        if !self.first {
            tr.time("octree.rebin", || self.engine.rebin(pos));
            t_lb += lbtime::rebin(&self.node, pos.len());
        }
        self.first = false;
        let state = self.balancer.state();
        let s = self.engine.tree().s_value();
        let counts = tr.time("afmm.plan.refresh", || self.engine.refresh_lists());
        let predicted = self
            .model
            .is_observed()
            .then(|| self.model.predict(&counts, &self.node));
        let timing = tr.time("afmm.exec.time_step", || {
            self.engine.time_step(&self.flops, &self.node)
        })?;
        if let Some(pred) = predicted {
            self.pred_errs.push(pred_rel_err(pred, &timing));
        }
        tr.time("afmm.cost.observe", || {
            self.model
                .observe(&counts, &timing, &self.flops, &self.node)
        });
        let (t_cpu, t_gpu) = (timing.t_cpu, timing.t_gpu);
        if !t_cpu.is_finite() || !t_gpu.is_finite() {
            return Err(Error::NonFiniteTiming { t_cpu, t_gpu });
        }
        let f_cpu = self.filter_cpu.push(t_cpu);
        let f_gpu = self.filter_gpu.push(t_gpu);
        let rep = tr.time("afmm.balance.post_step", || {
            self.balancer
                .post_step(&mut self.engine, &self.model, &self.node, pos, f_cpu, f_gpu)
        });
        if rep.rebuilt || rep.enforced || rep.fgo_rounds > 0 {
            self.filter_cpu.reset();
            self.filter_gpu.reset();
        }
        self.acted.add(&rep);
        t_lb += rep.lb_time;
        let rec = StepRecord {
            step,
            s,
            state,
            t_cpu,
            t_gpu,
            t_lb,
            gpu_efficiency: timing.gpu_efficiency(),
            p2p_interactions: counts.p2p_interactions,
            m2l_ops: counts.m2l_ops,
        };
        self.records.push(rec);
        Ok(rec)
    }
}

/// Number of steps whose S, `t_cpu`, `t_gpu` or `t_lb` differ, bit for bit,
/// between two runs (a length difference counts every missing step).
pub fn mismatches(a: &[StepRecord], b: &[StepRecord]) -> usize {
    let same = |x: &StepRecord, y: &StepRecord| {
        x.s == y.s
            && x.t_cpu.to_bits() == y.t_cpu.to_bits()
            && x.t_gpu.to_bits() == y.t_gpu.to_bits()
            && x.t_lb.to_bits() == y.t_lb.to_bits()
    };
    let diff = a.iter().zip(b).filter(|(x, y)| !same(x, y)).count();
    diff + a.len().abs_diff(b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, STRATEGIES};
    use afmm::{GravitySim, StrategyTracker};

    const N: usize = 2_000;
    const STEPS: usize = 6;

    #[test]
    fn gravity_mirror_matches_gravity_sim() {
        for node in [HeteroNode::system_a(10, 4), HeteroNode::system_b(32)] {
            let inp = workloads::galaxy(N, 7, node);
            let mut sim = GravitySim::new(
                inp.bodies.clone(),
                inp.g,
                inp.dt,
                inp.softening,
                inp.params,
                inp.node.clone(),
                Strategy::Full,
                inp.cfg,
                Some(inp.domain),
            );
            let mut tr = Tracer::new();
            let mut m = GravityMirror::new(&inp, telemetry::Recorder::with_capacity(64), &mut tr);
            for _ in 0..STEPS {
                sim.step().expect("sim step");
                m.step(&mut tr).expect("mirror step");
            }
            assert_eq!(mismatches(sim.records(), &m.records), 0);
            assert_eq!(sim.positions(), &m.bodies.pos[..]);
            for name in SOLVE_CHILDREN {
                assert_eq!(tr.spans.iter().filter(|s| s.name == name).count(), STEPS);
            }
        }
    }

    #[test]
    fn tracker_mirrors_match_strategy_trackers() {
        let rp = Replay::new(N, 7, STEPS);
        let mut pos = Vec::new();
        assert!(rp.positions(0, &mut pos));
        let mut tr = Tracer::new();
        for strategy in STRATEGIES {
            let mut t = StrategyTracker::new(
                GravityKernel::default(),
                rp.params,
                rp.node.clone(),
                strategy,
                rp.cfg,
                &pos,
                Some(rp.domain),
            );
            let mut m = TrackerMirror::new(
                &rp,
                strategy,
                &pos,
                telemetry::Recorder::with_capacity(64),
                &mut tr,
            );
            for k in 0..=STEPS {
                assert!(rp.positions(k, &mut pos), "left the domain at step {k}");
                t.step(&pos).expect("tracker step");
                m.step(&pos, &mut tr).expect("mirror step");
            }
            assert_eq!(
                mismatches(t.records(), &m.records),
                0,
                "{}",
                strategy.name()
            );
        }
    }

    #[test]
    fn mismatches_counts_differing_and_missing_steps() {
        let rec = |t_cpu: f64| StepRecord {
            step: 0,
            s: 64,
            state: afmm::LbState::Search,
            t_cpu,
            t_gpu: 0.0,
            t_lb: 0.0,
            gpu_efficiency: 1.0,
            p2p_interactions: 0,
            m2l_ops: 0,
        };
        let a = [rec(1.0), rec(2.0), rec(3.0)];
        assert_eq!(mismatches(&a, &a), 0);
        assert_eq!(mismatches(&a, &[rec(1.0), rec(2.5)]), 2);
    }
}
