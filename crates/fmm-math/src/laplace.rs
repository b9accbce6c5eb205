use crate::expansion::ExpansionOps;
use crate::kernel::Kernel;
use crate::powers::power_series;
use geom::Vec3;

/// Targets per block of [`GravityKernel::p2p`]: that many independent
/// floating-point chains are in flight per source.
const P2P_LANES: usize = 4;

/// One block of P2P targets and their running sums, one lane per target.
#[derive(Default)]
struct Lanes {
    x: [f64; P2P_LANES],
    y: [f64; P2P_LANES],
    z: [f64; P2P_LANES],
    phi: [f64; P2P_LANES],
    ax: [f64; P2P_LANES],
    ay: [f64; P2P_LANES],
    az: [f64; P2P_LANES],
}

impl Lanes {
    /// Add source `(y, q)` to every lane. With `DIAG`, lane `diag` is the
    /// source itself and keeps its sums by a select (its term may be
    /// inf/NaN); without, the lanes are branch- and select-free.
    #[inline(always)]
    fn add<const DIAG: bool>(&mut self, y: Vec3, q: f64, eps2: f64, diag: usize) {
        for k in 0..P2P_LANES {
            let dx = y.x - self.x[k];
            let dy = y.y - self.y[k];
            let dz = y.z - self.z[k];
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            let inv_r = 1.0 / r2.sqrt();
            let inv_r3 = inv_r / r2;
            let qr3 = q * inv_r3;
            let keep = !DIAG || k != diag;
            self.phi[k] = if keep {
                self.phi[k] + q * inv_r
            } else {
                self.phi[k]
            };
            self.ax[k] = if keep {
                self.ax[k] + dx * qr3
            } else {
                self.ax[k]
            };
            self.ay[k] = if keep {
                self.ay[k] + dy * qr3
            } else {
                self.ay[k]
            };
            self.az[k] = if keep {
                self.az[k] + dz * qr3
            } else {
                self.az[k]
            };
        }
    }
}

/// The Newtonian gravity / Coulomb kernel `1/r` (one harmonic channel).
///
/// Conventions: for sources of mass `m_s` at `y_s`, the kernel computes per
/// target `x`
///
/// * potential `φ(x) = Σ_s m_s / |x − y_s|` (softened in P2P), and
/// * field `a(x) = ∇φ(x) = Σ_s m_s (y_s − x) / |x − y_s|³`,
///
/// i.e. the *attractive* acceleration direction; callers multiply by the
/// gravitational constant G. `softening` (Plummer softening ε) regularizes
/// close encounters in the direct part only — the far field expands the
/// unsoftened kernel, which is exact for well-separated cells when ε is
/// small compared to cell distances.
#[derive(Clone, Copy, Debug)]
pub struct GravityKernel {
    pub softening: f64,
}

impl GravityKernel {
    pub fn new(softening: f64) -> Self {
        assert!(softening >= 0.0);
        GravityKernel { softening }
    }
}

impl Default for GravityKernel {
    fn default() -> Self {
        GravityKernel { softening: 0.0 }
    }
}

impl Kernel for GravityKernel {
    fn channels(&self) -> usize {
        1
    }

    fn strength_dim(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "gravity"
    }

    fn p2m(
        &self,
        ops: &ExpansionOps,
        center: Vec3,
        pos: &[Vec3],
        strength: &[f64],
        m: &mut [f64],
        pow_scratch: &mut Vec<f64>,
    ) {
        let nt = ops.nterms();
        debug_assert_eq!(m.len(), nt);
        debug_assert_eq!(strength.len(), pos.len());
        pow_scratch.resize(nt, 0.0);
        for (y, &q) in pos.iter().zip(strength) {
            power_series(*y - center, ops.set(), pow_scratch);
            for i in 0..nt {
                m[i] += q * pow_scratch[i];
            }
        }
    }

    fn l2p(
        &self,
        ops: &ExpansionOps,
        center: Vec3,
        l: &[f64],
        pos: &[Vec3],
        pot: &mut [f64],
        out: &mut [Vec3],
        pow_scratch: &mut Vec<f64>,
    ) {
        let nt = ops.nterms();
        debug_assert_eq!(l.len(), nt);
        let set = ops.set();
        pow_scratch.resize(nt, 0.0);
        for (i, &x) in pos.iter().enumerate() {
            power_series(x - center, set, pow_scratch);
            let mut phi = 0.0;
            let mut grad = Vec3::ZERO;
            for (b, (bi, bj, bk)) in set.iter() {
                let v = l[b];
                phi += v * pow_scratch[b];
                // ∂_d φ = Σ_{β >= e_d} L_β (x−c)^{β−e_d}/(β−e_d)!
                //       = Σ_γ L_{γ+e_d} (x−c)^γ/γ!  — accumulate by peeling.
                if bi > 0 {
                    grad.x += v * pow_scratch[set.idx(bi - 1, bj, bk)];
                }
                if bj > 0 {
                    grad.y += v * pow_scratch[set.idx(bi, bj - 1, bk)];
                }
                if bk > 0 {
                    grad.z += v * pow_scratch[set.idx(bi, bj, bk - 1)];
                }
            }
            pot[i] += phi;
            out[i] += grad;
        }
    }

    fn p2p(
        &self,
        tpos: &[Vec3],
        tpot: &mut [f64],
        tout: &mut [Vec3],
        spos: &[Vec3],
        sstr: &[f64],
        self_interaction: bool,
    ) {
        debug_assert_eq!(spos.len(), sstr.len());
        if self_interaction {
            debug_assert_eq!(tpos.len(), spos.len());
        }
        let eps2 = self.softening * self.softening;
        // Targets run in blocks of P2P_LANES independent accumulator chains;
        // each target still adds its terms in ascending j with the same
        // expressions as a one-target loop, so blocking changes no bit.
        for (b, block) in tpos.chunks(P2P_LANES).enumerate() {
            let i0 = b * P2P_LANES;
            let mut lanes = Lanes::default();
            for (k, t) in block.iter().enumerate() {
                (lanes.x[k], lanes.y[k], lanes.z[k]) = (t.x, t.y, t.z);
            }
            // Only sources i0..i0 + P2P_LANES can be a lane's own body; the
            // ranges around that diagonal block need no select at all.
            let (lo, hi) = if self_interaction {
                (i0.min(spos.len()), (i0 + P2P_LANES).min(spos.len()))
            } else {
                (spos.len(), spos.len())
            };
            for (&y, &q) in spos[..lo].iter().zip(&sstr[..lo]) {
                lanes.add::<false>(y, q, eps2, 0);
            }
            for (j, (&y, &q)) in spos[lo..hi].iter().zip(&sstr[lo..hi]).enumerate() {
                lanes.add::<true>(y, q, eps2, j);
            }
            for (&y, &q) in spos[hi..].iter().zip(&sstr[hi..]) {
                lanes.add::<false>(y, q, eps2, 0);
            }
            // Lanes past the end of the block hold padding and are dropped.
            for k in 0..block.len() {
                tpot[i0 + k] += lanes.phi[k];
                tout[i0 + k] += Vec3::new(lanes.ax[k], lanes.ay[k], lanes.az[k]);
            }
        }
    }

    fn p2p_flops_per_pair(&self) -> f64 {
        // 3 sub + 5 r² + sqrt(≈4) + div(≈4) + 1 + 6 fma + 2 ≈ 25
        25.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expansion::M2lScratch;

    fn cluster() -> (Vec<Vec3>, Vec<f64>) {
        let pos = vec![
            Vec3::new(0.1, 0.2, -0.1),
            Vec3::new(-0.2, 0.1, 0.15),
            Vec3::new(0.05, -0.25, 0.2),
            Vec3::new(-0.15, 0.0, -0.1),
        ];
        let mass = vec![1.0, 2.0, 0.5, 1.25];
        (pos, mass)
    }

    #[test]
    fn p2p_matches_closed_form_pair() {
        let k = GravityKernel::default();
        let t = [Vec3::ZERO];
        let s = [Vec3::new(2.0, 0.0, 0.0)];
        let q = [3.0];
        let mut pot = [0.0];
        let mut acc = [Vec3::ZERO];
        k.p2p(&t, &mut pot, &mut acc, &s, &q, false);
        assert!((pot[0] - 1.5).abs() < 1e-15);
        // attractive: points from target toward source (+x)
        assert!((acc[0].x - 3.0 / 4.0).abs() < 1e-15);
        assert_eq!(acc[0].y, 0.0);
    }

    #[test]
    fn p2p_self_interaction_skips_diagonal() {
        let k = GravityKernel::default();
        let (pos, mass) = cluster();
        let mut pot = vec![0.0; pos.len()];
        let mut acc = vec![Vec3::ZERO; pos.len()];
        k.p2p(&pos, &mut pot, &mut acc, &pos, &mass, true);
        assert!(pot.iter().all(|p| p.is_finite()));
        assert!(acc.iter().all(|a| a.is_finite()));
        // Newton's third law: Σ m_i a_i = 0 for internal forces.
        let net: Vec3 = pos.iter().enumerate().map(|(i, _)| acc[i] * mass[i]).sum();
        assert!(net.norm() < 1e-12, "net internal force {net:?}");
    }

    #[test]
    fn softening_bounds_close_encounters() {
        let k = GravityKernel::new(0.1);
        let t = [Vec3::ZERO];
        let s = [Vec3::new(1e-12, 0.0, 0.0)];
        let q = [1.0];
        let mut pot = [0.0];
        let mut acc = [Vec3::ZERO];
        k.p2p(&t, &mut pot, &mut acc, &s, &q, false);
        assert!(pot[0] <= 10.0 + 1e-9); // 1/ε
        assert!(acc[0].norm() < 1e-9); // force → 0 at zero separation
    }

    #[test]
    fn expansion_path_matches_direct_far_field() {
        // P2M -> M2L -> L2P vs direct P2P for a well-separated target leaf.
        let k = GravityKernel::default();
        let (spos, mass) = cluster();
        let tpos = vec![Vec3::new(5.0, 0.3, -0.2), Vec3::new(5.2, -0.1, 0.1)];

        for (p, tol) in [(4usize, 1e-3), (8, 1e-6)] {
            let ops = ExpansionOps::new(p);
            let mut pow = Vec::new();
            let mut m = vec![0.0; ops.nterms()];
            k.p2m(&ops, Vec3::ZERO, &spos, &mass, &mut m, &mut pow);

            let local_center = Vec3::new(5.1, 0.1, 0.0);
            let mut l = vec![0.0; ops.nterms()];
            let mut ms = M2lScratch::default();
            ops.m2l(&m, local_center, &mut l, 1, &mut ms);

            let mut pot = vec![0.0; tpos.len()];
            let mut acc = vec![Vec3::ZERO; tpos.len()];
            k.l2p(&ops, local_center, &l, &tpos, &mut pot, &mut acc, &mut pow);

            let mut dpot = vec![0.0; tpos.len()];
            let mut dacc = vec![Vec3::ZERO; tpos.len()];
            k.p2p(&tpos, &mut dpot, &mut dacc, &spos, &mass, false);

            for i in 0..tpos.len() {
                let perr = (pot[i] - dpot[i]).abs() / dpot[i].abs();
                let aerr = (acc[i] - dacc[i]).norm() / dacc[i].norm();
                assert!(perr < tol, "p={p} potential err {perr}");
                assert!(aerr < tol * 10.0, "p={p} accel err {aerr}");
            }
        }
    }
}
