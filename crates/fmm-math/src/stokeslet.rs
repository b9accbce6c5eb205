use crate::expansion::ExpansionOps;
use crate::kernel::Kernel;
use crate::powers::power_series;
use geom::Vec3;

/// Number of harmonic channels in the Stokeslet decomposition.
pub const STOKESLET_CHANNELS: usize = 7;

/// The regularized Stokeslet kernel of Cortez et al. (method of regularized
/// Stokeslets), used by the paper's immersed-boundary fluid problem.
///
/// Direct (P2P) form, with `d = x − y`, `r = |d|`, blob parameter ε:
///
/// ```text
/// u(x) = 1/(8πμ) Σ_s [ f_s (r² + 2ε²) + (f_s·d) d ] / (r² + ε²)^{3/2}
/// ```
///
/// Far field: the singular Stokeslet `S_ij = δ_ij/r + d_i d_j/r³` decomposes
/// into seven harmonic 1/r-type potentials —
///
/// ```text
/// u_i(x) = 1/(8πμ) [ C_i(x) + x_i · D(x) − E_i(x) ]
///   C_i = Σ_s f_i / r              (3 charge channels, strengths f_i)
///   D   = Σ_s f·d / r³             (1 dipole channel, moment f)
///   E_i = Σ_s y_i (f·d) / r³       (3 dipole channels, moment f weighted
///                                   by the absolute source coordinate y_i)
/// ```
///
/// so M2M/M2L/L2L reuse the kernel-independent cartesian machinery and one
/// shared derivative tensor per M2L pair. The far field drops the O(ε²/r³)
/// regularization terms — exact in the ε → 0 limit and negligible whenever
/// ε is small against cell separations (the regime the method is used in).
#[derive(Clone, Copy, Debug)]
pub struct StokesletKernel {
    /// Blob/regularization parameter ε.
    pub epsilon: f64,
    /// Dynamic viscosity μ.
    pub mu: f64,
}

impl StokesletKernel {
    pub fn new(epsilon: f64, mu: f64) -> Self {
        assert!(epsilon >= 0.0 && mu > 0.0);
        StokesletKernel { epsilon, mu }
    }

    #[inline]
    fn prefactor(&self) -> f64 {
        1.0 / (8.0 * std::f64::consts::PI * self.mu)
    }
}

impl Default for StokesletKernel {
    fn default() -> Self {
        StokesletKernel {
            epsilon: 1e-3,
            mu: 1.0,
        }
    }
}

impl Kernel for StokesletKernel {
    fn channels(&self) -> usize {
        STOKESLET_CHANNELS
    }

    fn strength_dim(&self) -> usize {
        3
    }

    fn name(&self) -> &'static str {
        "stokeslet"
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
        debug_assert_eq!(m.len(), STOKESLET_CHANNELS * nt);
        debug_assert_eq!(strength.len(), 3 * pos.len());
        let set = ops.set();
        pow_scratch.resize(nt, 0.0);
        for (s, &y) in pos.iter().enumerate() {
            let f = Vec3::new(strength[3 * s], strength[3 * s + 1], strength[3 * s + 2]);
            power_series(y - center, set, pow_scratch);
            for (a, (ai, aj, ak)) in set.iter() {
                let pw = pow_scratch[a];
                // Charge channels C_i: plain moments with strength f_i.
                m[a] += f.x * pw;
                m[nt + a] += f.y * pw;
                m[2 * nt + a] += f.z * pw;
                // Dipole moment contribution Σ_d f_d (y−c)^{α−e_d}/(α−e_d)!.
                let mut dip = 0.0;
                if ai > 0 {
                    dip += f.x * pow_scratch[set.idx(ai - 1, aj, ak)];
                }
                if aj > 0 {
                    dip += f.y * pow_scratch[set.idx(ai, aj - 1, ak)];
                }
                if ak > 0 {
                    dip += f.z * pow_scratch[set.idx(ai, aj, ak - 1)];
                }
                m[3 * nt + a] += dip;
                // Coordinate-weighted dipole channels E_i.
                m[4 * nt + a] += y.x * dip;
                m[5 * nt + a] += y.y * dip;
                m[6 * nt + a] += y.z * dip;
            }
        }
    }

    fn l2p(
        &self,
        ops: &ExpansionOps,
        center: Vec3,
        l: &[f64],
        pos: &[Vec3],
        _pot: &mut [f64],
        out: &mut [Vec3],
        pow_scratch: &mut Vec<f64>,
    ) {
        let nt = ops.nterms();
        debug_assert_eq!(l.len(), STOKESLET_CHANNELS * nt);
        let set = ops.set();
        let pref = self.prefactor();
        pow_scratch.resize(nt, 0.0);
        for (i, &x) in pos.iter().enumerate() {
            power_series(x - center, set, pow_scratch);
            let mut ch = [0.0f64; STOKESLET_CHANNELS];
            for b in 0..nt {
                let pw = pow_scratch[b];
                for (c, v) in ch.iter_mut().enumerate() {
                    *v += l[c * nt + b] * pw;
                }
            }
            let u = Vec3::new(
                ch[0] + x.x * ch[3] - ch[4],
                ch[1] + x.y * ch[3] - ch[5],
                ch[2] + x.z * ch[3] - ch[6],
            );
            out[i] += u * pref;
        }
    }

    fn p2p(
        &self,
        tpos: &[Vec3],
        _tpot: &mut [f64],
        tout: &mut [Vec3],
        spos: &[Vec3],
        sstr: &[f64],
        self_interaction: bool,
    ) {
        debug_assert_eq!(sstr.len(), 3 * spos.len());
        if self_interaction {
            debug_assert_eq!(tpos.len(), spos.len());
        }
        let e2 = self.epsilon * self.epsilon;
        let pref = self.prefactor();
        for (i, &x) in tpos.iter().enumerate() {
            let mut u = Vec3::ZERO;
            for (j, &y) in spos.iter().enumerate() {
                if self_interaction && i == j {
                    // The regularized Stokeslet is finite at r = 0 but the
                    // self term is handled by the regularization itself;
                    // include it (standard in the method) unless ε = 0.
                    if e2 == 0.0 {
                        continue;
                    }
                }
                let f = Vec3::new(sstr[3 * j], sstr[3 * j + 1], sstr[3 * j + 2]);
                let d = x - y;
                let r2 = d.norm_sq();
                let re2 = r2 + e2;
                let inv = 1.0 / (re2 * re2.sqrt());
                u += (f * (r2 + 2.0 * e2) + d * f.dot(d)) * inv;
            }
            tout[i] += u * pref;
        }
    }

    fn p2p_flops_per_pair(&self) -> f64 {
        // ~3 sub, 5 r², 2 add, sqrt+div ≈ 8, dot 5, 2×(3 mul + 3 fma) ≈ 12,
        // scale+add 6 → ≈ 41; noticeably heavier than gravity.
        41.0
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
        ];
        // Force vectors, one per source.
        let f = vec![1.0, 0.5, -0.2, -0.3, 1.2, 0.4, 0.2, -0.7, 0.9];
        (pos, f)
    }

    #[test]
    fn singular_limit_matches_oseen_tensor() {
        // With ε = 0 the P2P must equal the classical Oseen tensor.
        let k = StokesletKernel::new(0.0, 1.0);
        let x = Vec3::new(1.0, 2.0, 2.0); // r = 3
        let f = Vec3::new(0.0, 0.0, 1.0);
        let mut pot = [0.0];
        let mut u = [Vec3::ZERO];
        k.p2p(
            &[x],
            &mut pot,
            &mut u,
            &[Vec3::ZERO],
            &[f.x, f.y, f.z],
            false,
        );
        let r = 3.0f64;
        let pref = 1.0 / (8.0 * std::f64::consts::PI);
        let expect = Vec3::new(
            pref * (x.x * x.z) / r.powi(3),
            pref * (x.y * x.z) / r.powi(3),
            pref * (1.0 / r + x.z * x.z / r.powi(3)),
        );
        assert!((u[0] - expect).norm() < 1e-15, "{:?} vs {expect:?}", u[0]);
    }

    #[test]
    fn regularization_finite_at_origin() {
        let k = StokesletKernel::new(0.1, 1.0);
        let f = [1.0, 0.0, 0.0];
        let mut pot = [0.0];
        let mut u = [Vec3::ZERO];
        k.p2p(&[Vec3::ZERO], &mut pot, &mut u, &[Vec3::ZERO], &f, false);
        assert!(u[0].is_finite());
        // u = f·2ε²/ε³/(8πμ) = 2/(8πμε)
        let expect = 2.0 / (8.0 * std::f64::consts::PI * 0.1);
        assert!((u[0].x - expect).abs() < 1e-12);
    }

    #[test]
    fn expansion_path_converges_to_direct() {
        let k = StokesletKernel::new(1e-4, 1.0);
        let (spos, f) = cluster();
        let tpos = vec![Vec3::new(4.0, 0.3, -0.2), Vec3::new(4.3, -0.4, 0.2)];

        let mut derr_last = f64::INFINITY;
        for p in [2usize, 4, 6, 8] {
            let ops = ExpansionOps::new(p);
            let nt = ops.nterms();
            let mut pow = Vec::new();
            let mut m = vec![0.0; STOKESLET_CHANNELS * nt];
            k.p2m(&ops, Vec3::ZERO, &spos, &f, &mut m, &mut pow);

            let lc = Vec3::new(4.1, 0.0, 0.0);
            let mut l = vec![0.0; STOKESLET_CHANNELS * nt];
            let mut ms = M2lScratch::default();
            ops.m2l(&m, lc, &mut l, STOKESLET_CHANNELS, &mut ms);

            let mut pot = vec![0.0; tpos.len()];
            let mut u = vec![Vec3::ZERO; tpos.len()];
            k.l2p(&ops, lc, &l, &tpos, &mut pot, &mut u, &mut pow);

            let mut dpot = vec![0.0; tpos.len()];
            let mut du = vec![Vec3::ZERO; tpos.len()];
            k.p2p(&tpos, &mut dpot, &mut du, &spos, &f, false);

            let err: f64 = (0..tpos.len())
                .map(|i| (u[i] - du[i]).norm() / du[i].norm())
                .fold(0.0, f64::max);
            assert!(err < derr_last, "p={p}: err {err} !< {derr_last}");
            derr_last = err;
        }
        assert!(derr_last < 1e-6, "p=8 velocity error {derr_last}");
    }

    #[test]
    fn m2m_preserves_stokes_far_field() {
        let k = StokesletKernel::new(1e-4, 1.0);
        let (spos, f) = cluster();
        let tpos = vec![Vec3::new(-5.0, 1.0, 2.0)];
        let ops = ExpansionOps::new(8);
        let nt = ops.nterms();

        let child_c = Vec3::new(0.0, 0.05, 0.05);
        let parent_c = Vec3::new(0.25, 0.25, 0.25);
        let mut pow = Vec::new();
        let mut mc = vec![0.0; STOKESLET_CHANNELS * nt];
        k.p2m(&ops, child_c, &spos, &f, &mut mc, &mut pow);
        let mut mp = vec![0.0; STOKESLET_CHANNELS * nt];
        ops.m2m(
            &mc,
            child_c - parent_c,
            &mut mp,
            STOKESLET_CHANNELS,
            &mut pow,
        );

        // M2L from parent, evaluate at target.
        let lc = tpos[0] + Vec3::new(-0.05, 0.02, 0.0);
        let mut l = vec![0.0; STOKESLET_CHANNELS * nt];
        let mut ms = M2lScratch::default();
        ops.m2l(&mp, lc - parent_c, &mut l, STOKESLET_CHANNELS, &mut ms);
        let mut pot = vec![0.0];
        let mut u = vec![Vec3::ZERO];
        k.l2p(&ops, lc, &l, &tpos, &mut pot, &mut u, &mut pow);

        let mut dpot = vec![0.0];
        let mut du = vec![Vec3::ZERO];
        k.p2p(&tpos, &mut dpot, &mut du, &spos, &f, false);
        let err = (u[0] - du[0]).norm() / du[0].norm();
        assert!(err < 1e-5, "M2M path error {err}");
    }

    #[test]
    fn m2l_cost_ratio_vs_gravity_matches_paper_regime() {
        // Paper §IX.B: Stokes M2L ≈ 4× gravity M2L. With a shared tensor the
        // flop model should land in the 3–7× band.
        let ops = ExpansionOps::new(6);
        let ratio = ops.m2l_flops(STOKESLET_CHANNELS) / ops.m2l_flops(1);
        assert!((3.0..7.0).contains(&ratio), "M2L flop ratio {ratio}");
    }
}
