use crate::multiindex::MultiIndexSet;
use geom::Vec3;

/// Reusable scratch table for [`deriv_1_over_r`]: the `nterms × (order+1)`
/// auxiliary values of the McMurchie–Davidson recurrence, stored
/// entry-major so each entry's run over the auxiliary index `m` is
/// contiguous. One per worker thread is enough; allocation happens once and
/// is reused across M2L calls.
#[derive(Clone, Debug, Default)]
pub struct DerivScratch {
    table: Vec<f64>,
}

impl DerivScratch {
    pub(crate) fn capacity(&self) -> usize {
        self.table.capacity()
    }
}

/// Evaluate the full derivative tensor `out[γ] = ∂^γ (1/|v|)` at `v = dx`
/// for all `|γ| <= set.order()`.
///
/// Uses the McMurchie–Davidson auxiliary family
/// `R^m_0 = (−1)^m (2m−1)!! / r^{2m+1}` with the one-step recurrence
/// `R^m_{γ+e_d} = γ_d · R^{m+1}_{γ−e_d} + dx_d · R^{m+1}_γ`, which costs O(1)
/// per table entry — no symbolic polynomials, no cancellation-prone finite
/// differences. `D^γ(1/r) = R^0_γ`. The recurrence's index arithmetic is
/// precomputed once per [`MultiIndexSet`].
///
/// Panics in debug builds when `dx` is the zero vector (the tensor is
/// singular there); callers guarantee well-separatedness.
pub fn deriv_1_over_r(dx: Vec3, set: &MultiIndexSet, scratch: &mut DerivScratch, out: &mut [f64]) {
    let n_max = set.order();
    let nt = set.len();
    let w = n_max + 1;
    debug_assert_eq!(out.len(), nt);
    let r2 = dx.norm_sq();
    debug_assert!(r2 > 0.0, "derivative tensor evaluated at the origin");

    scratch.table.resize(nt * w, 0.0);
    let t = &mut scratch.table;

    // Base cases R^m_000 = (-1)^m (2m-1)!! / r^(2m+1).
    let inv_r2 = 1.0 / r2;
    let mut base = inv_r2.sqrt(); // 1/r
    let mut m_sign_dfact = 1.0; // (-1)^m (2m-1)!!
    for (m, v) in t[..w].iter_mut().enumerate() {
        *v = m_sign_dfact * base;
        m_sign_dfact *= -((2 * m + 1) as f64);
        base *= inv_r2;
    }

    let d = [dx.x, dx.y, dx.z];
    // Fill total order n from total order n-1 (at auxiliary index m+1).
    for n in 1..=n_max {
        let len = n_max - n + 1;
        for s in set.steps(n) {
            // Sources have lower flat indices than the entry they feed.
            let (src, dst) = t.split_at_mut(s.idx * w);
            let dst = &mut dst[..len];
            let lo = &src[s.lower * w + 1..][..len];
            let dd = d[s.axis];
            match s.lower2 {
                Some(l2) => {
                    let lo2 = &src[l2 * w + 1..][..len];
                    for ((v, &a), &b) in dst.iter_mut().zip(lo).zip(lo2) {
                        *v = dd * a + s.gm1 * b;
                    }
                }
                None => {
                    for (v, &a) in dst.iter_mut().zip(lo) {
                        *v = dd * a;
                    }
                }
            }
        }
    }
    for (o, row) in out.iter_mut().zip(t.chunks_exact(w)) {
        *o = row[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor_at(dx: Vec3, p: usize) -> (MultiIndexSet, Vec<f64>) {
        let set = MultiIndexSet::new(p);
        let mut scratch = DerivScratch::default();
        let mut out = vec![0.0; set.len()];
        deriv_1_over_r(dx, &set, &mut scratch, &mut out);
        (set, out)
    }

    #[test]
    fn low_order_closed_forms() {
        let dx = Vec3::new(1.3, -0.7, 2.1);
        let (x, y, z) = (dx.x, dx.y, dx.z);
        let r = dx.norm();
        let (set, t) = tensor_at(dx, 3);
        let tol = 1e-12;

        assert!((t[set.idx(0, 0, 0)] - 1.0 / r).abs() < tol);
        assert!((t[set.idx(1, 0, 0)] - (-x / r.powi(3))).abs() < tol);
        assert!((t[set.idx(0, 1, 0)] - (-y / r.powi(3))).abs() < tol);
        assert!((t[set.idx(0, 0, 1)] - (-z / r.powi(3))).abs() < tol);
        // Second derivatives: (3 x_i x_j - δ_ij r²) / r⁵
        assert!((t[set.idx(2, 0, 0)] - (3.0 * x * x - r * r) / r.powi(5)).abs() < tol);
        assert!((t[set.idx(0, 2, 0)] - (3.0 * y * y - r * r) / r.powi(5)).abs() < tol);
        assert!((t[set.idx(1, 1, 0)] - 3.0 * x * y / r.powi(5)).abs() < tol);
        assert!((t[set.idx(1, 0, 1)] - 3.0 * x * z / r.powi(5)).abs() < tol);
        // Third derivative ∂x∂y∂z (1/r) = -15 xyz / r^7
        assert!((t[set.idx(1, 1, 1)] - (-15.0) * x * y * z / r.powi(7)).abs() < tol);
    }

    #[test]
    fn harmonicity_laplacian_vanishes() {
        // 1/r is harmonic away from the origin, so for every γ with
        // |γ| <= p-2: Σ_d ∂^(γ+2e_d)(1/r) = 0.
        let dx = Vec3::new(0.9, 1.4, -2.3);
        let p = 8;
        let (set, t) = tensor_at(dx, p);
        for (idx, (i, j, k)) in set.iter() {
            if set.total_order(idx) + 2 > p {
                continue;
            }
            let lap = t[set.idx(i + 2, j, k)] + t[set.idx(i, j + 2, k)] + t[set.idx(i, j, k + 2)];
            // Scale tolerance by the magnitude of the individual terms.
            let scale = t[set.idx(i + 2, j, k)]
                .abs()
                .max(t[set.idx(i, j + 2, k)].abs())
                .max(t[set.idx(i, j, k + 2)].abs())
                .max(1e-300);
            assert!(
                (lap / scale).abs() < 1e-10,
                "Laplacian of ∂^({i},{j},{k})(1/r) = {lap} (scale {scale})"
            );
        }
    }

    #[test]
    fn matches_finite_differences() {
        // Central finite differences of lower-order tensor entries.
        let dx = Vec3::new(1.1, -0.4, 0.8);
        let h = 1e-5;
        let p = 5;
        let (set, t) = tensor_at(dx, p);
        for (idx, (i, j, k)) in set.iter() {
            if set.total_order(idx) + 1 > p {
                continue;
            }
            for (axis, step) in [
                Vec3::new(h, 0.0, 0.0),
                Vec3::new(0.0, h, 0.0),
                Vec3::new(0.0, 0.0, h),
            ]
            .into_iter()
            .enumerate()
            {
                let (_, tp) = tensor_at(dx + step, p);
                let (_, tm) = tensor_at(dx - step, p);
                let fd = (tp[idx] - tm[idx]) / (2.0 * h);
                let mut tt = [i, j, k];
                tt[axis] += 1;
                let exact = t[set.idx(tt[0], tt[1], tt[2])];
                let scale = exact.abs().max(1.0);
                assert!(
                    (fd - exact).abs() / scale < 1e-5,
                    "∂_{axis} of ({i},{j},{k}): fd {fd} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn homogeneity_scaling() {
        // ∂^γ(1/r) is homogeneous of degree -(|γ|+1): scaling dx by s scales
        // the entry by s^-(|γ|+1).
        let dx = Vec3::new(0.5, 0.6, -0.7);
        let s = 2.5;
        let (set, t1) = tensor_at(dx, 6);
        let (_, ts) = tensor_at(dx * s, 6);
        for idx in 0..set.len() {
            let n = set.total_order(idx) as i32;
            let expect = t1[idx] * s.powi(-(n + 1));
            assert!(
                (ts[idx] - expect).abs() <= 1e-12 * expect.abs().max(1e-12),
                "homogeneity at idx {idx}"
            );
        }
    }

    #[test]
    fn parity_under_negation() {
        // ∂^γ(1/r) at -dx = (-1)^|γ| times the value at dx.
        let dx = Vec3::new(1.0, 2.0, 3.0);
        let (set, tp) = tensor_at(dx, 6);
        let (_, tn) = tensor_at(-dx, 6);
        for idx in 0..set.len() {
            let sign = if set.total_order(idx) % 2 == 0 {
                1.0
            } else {
                -1.0
            };
            assert!(
                (tn[idx] - sign * tp[idx]).abs() <= 1e-12 * tp[idx].abs().max(1e-12),
                "parity at idx {idx}"
            );
        }
    }
}
