//! Workload inputs, generated from the workload seed before any timing.

use afmm::{FmmEngine, FmmParams, HeteroNode, LbConfig, Strategy, StrategyTracker};
use fmm_math::GravityKernel;
use geom::Vec3;
use nbody::Bodies;

/// Bodies of the two galaxy workloads (the paper's Fig 8 initial condition).
pub const GALAXY_N: usize = 20_000;
/// Bodies of the Table II replay.
pub const REPLAY_N: usize = 100_000;
/// Replay steps per half period of the trajectory. It fixes how far bodies
/// move in a step, whatever the run's length: a longer run swings the cloud
/// through more half periods rather than through one in finer steps.
pub const REPLAY_HALF_PERIOD_STEPS: usize = 200;
/// Steps of the Fig 8 run whose time step the galaxy workloads use.
const FIG8_STEPS: f64 = 500.0;

/// Everything `GravitySim::new` takes, for one galaxy workload.
#[derive(Clone)]
pub struct GalaxyInputs {
    pub bodies: Bodies,
    pub g: f64,
    pub dt: f64,
    pub softening: f64,
    pub params: FmmParams,
    pub node: HeteroNode,
    pub cfg: LbConfig,
    pub domain: (Vec3, f64),
}

/// The balancer configuration `fig8_dynamic_strategies` derives: the
/// paper's 0.15 s search threshold scaled to this run's first-step compute.
fn fig8_config(
    params: FmmParams,
    node: &HeteroNode,
    pos: &[Vec3],
    domain: (Vec3, f64),
) -> LbConfig {
    let mut probe = StrategyTracker::new(
        GravityKernel::default(),
        params,
        node.clone(),
        Strategy::Full,
        LbConfig::default(),
        pos,
        Some(domain),
    );
    let compute = probe
        .step(pos)
        .expect("probe step on a fresh tracker")
        .compute();
    LbConfig {
        eps_switch_s: 0.15 * compute,
        ..Default::default()
    }
}

/// A warm Plummer sphere in 1/64th of its domain, as in Fig 8, with the
/// time step of a 500-step Fig 8 run and the simulation's softening 0.05.
pub fn galaxy(n: usize, seed: u64, node: HeteroNode) -> GalaxyInputs {
    let g = 1.0;
    let setup = nbody::expanding_plummer(n, g, seed);
    let domain = (setup.domain_center, setup.domain_half_width);
    let params = FmmParams::default();
    let cfg = fig8_config(params, &node, &setup.bodies.pos, domain);
    let t_ff = std::f64::consts::FRAC_PI_2 * (1.0 / (2.0 * g * n as f64)).sqrt();
    GalaxyInputs {
        bodies: setup.bodies,
        g,
        dt: 10.0 * t_ff / FIG8_STEPS,
        softening: 0.05,
        params,
        node,
        cfg,
        domain,
    }
}

/// The three strategies of Table II, in the paper's order.
pub const STRATEGIES: [Strategy; 3] = [Strategy::StaticS, Strategy::EnforceOnly, Strategy::Full];

/// An analytic trajectory for the strategy trackers: each body moves on
/// x(t) = c + (x₀−c)·cos ωt + (v₀/ω)·sin ωt, so over each half period the
/// cloud swings out, collapses through its centre and re-expands mirrored.
pub struct Replay {
    pub bodies: Bodies,
    pub params: FmmParams,
    pub node: HeteroNode,
    pub cfg: LbConfig,
    pub domain: (Vec3, f64),
    omega: f64,
    /// Trajectory steps per half period.
    half_period_steps: usize,
}

impl Replay {
    pub fn new(n: usize, seed: u64, half_period_steps: usize) -> Self {
        let setup = nbody::expanding_plummer(n, 1.0, seed);
        let domain = (setup.domain_center, setup.domain_half_width);
        let v_max = setup
            .bodies
            .vel
            .iter()
            .map(|v| v.norm())
            .fold(0.0, f64::max);
        let omega = v_max / (0.75 * domain.1);
        let params = FmmParams::default();
        let node = HeteroNode::system_a(10, 4);
        let cfg = fig8_config(params, &node, &setup.bodies.pos, domain);
        Replay {
            bodies: setup.bodies,
            params,
            node,
            cfg,
            domain,
            omega,
            half_period_steps,
        }
    }

    /// Positions at trajectory step `k` (0 = the initial condition).
    /// Returns false if any body lies outside the domain cube.
    pub fn positions(&self, k: usize, out: &mut Vec<Vec3>) -> bool {
        let t = std::f64::consts::PI / self.omega * k as f64 / self.half_period_steps as f64;
        let (cos, sin) = ((self.omega * t).cos(), (self.omega * t).sin() / self.omega);
        let c = self.domain.0;
        out.clear();
        out.extend(
            self.bodies
                .pos
                .iter()
                .zip(&self.bodies.vel)
                .map(|(&x0, &v0)| c + (x0 - c) * cos + v0 * sin),
        );
        out.iter().all(|&p| inside(p, self.domain))
    }
}

/// Is `p` strictly inside the domain cube?
fn inside(p: Vec3, (c, hw): (Vec3, f64)) -> bool {
    let d = p - c;
    d.x.abs() < hw && d.y.abs() < hw && d.z.abs() < hw
}

/// Targets sampled for the field check; fixed, so every run checks the
/// same bodies. Against 2048 targets, 8192 narrowed the error's spread
/// over ten seeds from 0.12 to 0.055 of its median on the replay and from
/// 0.09 to 0.07 on `galaxy_cpu`'s initial conditions; the direct sums then
/// take about 5 s at N = 100 000.
const CHECK_TARGETS: usize = 8192;
const CHECK_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Rotation `k` about the axis (cos 1.3k, sin 1.3k, 0.5) by 0.9k radians
/// (`k = 0` is the identity), applied to `v`.
fn rotate(v: Vec3, k: usize) -> Vec3 {
    let (angle, phi) = (0.9 * k as f64, 1.3 * k as f64);
    let axis = Vec3::new(phi.cos(), phi.sin(), 0.5) * (1.0 / 1.25f64.sqrt());
    let (c, s) = (angle.cos(), angle.sin());
    v * c + axis.cross(v) * s + axis * (axis.dot(v) * (1.0 - c))
}

/// Relative field error of unsoftened FMM solves at order `params.order`
/// and leaf capacity `s`, against direct summation on a fixed sample of
/// targets: the mean over targets of |f−f_direct| / |f_direct|, pooled over
/// `rotations` fixed rotations of the bodies about the domain centre.
///
/// Each rotation lays the tree's cells differently over the same bodies, so
/// pooling averages out how one decomposition happens to cut the cloud. The
/// mean of per-target errors is used rather than sqrt(Σ|f−f_direct|² /
/// Σ|f_direct|²) because without softening Σ|f_direct|² is dominated by the
/// closest pair that happens to be sampled, which made that ratio vary by a
/// third between seeds. `None` if a solve fails, a field is non-finite or a
/// rotated body leaves the domain.
pub fn field_rel_err(
    pos: &[Vec3],
    mass: &[f64],
    params: FmmParams,
    s: usize,
    domain: (Vec3, f64),
    rotations: usize,
) -> Option<f64> {
    let (c, hw) = domain;
    let mut state = CHECK_SEED;
    let targets: Vec<usize> = (0..CHECK_TARGETS)
        .map(|_| (splitmix64(&mut state) % pos.len() as u64) as usize)
        .collect();
    let direct: Vec<Vec3> = targets
        .iter()
        .map(|&i| {
            let mut f = Vec3::ZERO;
            for (j, (&xj, &mj)) in pos.iter().zip(mass).enumerate() {
                if j != i {
                    let d = xj - pos[i];
                    let r2 = d.norm_sq();
                    f += d * (mj / (r2 * r2.sqrt()));
                }
            }
            f
        })
        .collect();
    let mut sum = 0.0;
    for k in 0..rotations {
        let rotated: Vec<Vec3> = pos.iter().map(|&p| c + rotate(p - c, k)).collect();
        if !rotated.iter().all(|&p| inside(p, domain)) {
            return None;
        }
        let mut engine =
            FmmEngine::with_domain(GravityKernel::new(0.0), params, &rotated, s, c, hw);
        let sol = engine.try_solve(&rotated, mass).ok()?;
        if !sol.field.iter().all(|f| f.is_finite()) {
            return None;
        }
        for (&i, &f) in targets.iter().zip(&direct) {
            let f = rotate(f, k);
            sum += (sol.field[i] - f).norm() / f.norm();
        }
    }
    Some(sum / (rotations * targets.len()) as f64)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
