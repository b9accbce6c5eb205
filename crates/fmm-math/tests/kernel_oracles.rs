//! Differential tests of the hot kernels against their scalar reference
//! loops. The production P2P (target-blocked lanes) and M2L (chunked
//! target tables over a precomputed recurrence) must reproduce the plain
//! loops below **bit for bit**: every output receives the same terms, from
//! the same expressions, in the same order.

use fmm_math::{
    deriv_1_over_r, nterms, power_series, DerivScratch, ExpansionOps, GravityKernel, Kernel,
    M2lScratch, MultiIndexSet, StokesletKernel, STOKESLET_CHANNELS,
};
use geom::Vec3;
use proptest::prelude::*;

/// One target at a time, sources in ascending order, diagonal skipped by a
/// branch.
fn oracle_p2p(
    eps: f64,
    tpos: &[Vec3],
    tpot: &mut [f64],
    tout: &mut [Vec3],
    spos: &[Vec3],
    sstr: &[f64],
    self_interaction: bool,
) {
    let eps2 = eps * eps;
    for (i, &x) in tpos.iter().enumerate() {
        let mut phi = 0.0;
        let mut acc = Vec3::ZERO;
        for (j, (&y, &q)) in spos.iter().zip(sstr).enumerate() {
            if self_interaction && i == j {
                continue;
            }
            let d = y - x;
            let r2 = d.norm_sq() + eps2;
            let inv_r = 1.0 / r2.sqrt();
            let inv_r3 = inv_r / r2;
            phi += q * inv_r;
            acc += d * (q * inv_r3);
        }
        tpot[i] += phi;
        tout[i] += acc;
    }
}

/// McMurchie–Davidson recurrence with the index arithmetic done per entry
/// and the auxiliary table stored `m`-major.
fn oracle_deriv(dx: Vec3, set: &MultiIndexSet, out: &mut [f64]) {
    let n_max = set.order();
    let nt = set.len();
    let r2 = dx.norm_sq();
    let mut t = vec![0.0; (n_max + 1) * nt];
    let inv_r2 = 1.0 / r2;
    let mut base = inv_r2.sqrt();
    let mut m_sign_dfact = 1.0;
    for m in 0..=n_max {
        t[m * nt] = m_sign_dfact * base;
        m_sign_dfact *= -((2 * m + 1) as f64);
        base *= inv_r2;
    }
    let d = [dx.x, dx.y, dx.z];
    for n in 1..=n_max {
        for idx in set.order_range(n) {
            let (axis, lower) = set.peel(idx).expect("order >= 1 peels");
            let (i, j, k) = set.tuple(idx);
            let gd = [i, j, k][axis];
            let lower2 = if gd >= 2 {
                let mut tt = [i, j, k];
                tt[axis] -= 2;
                Some(set.idx(tt[0], tt[1], tt[2]))
            } else {
                None
            };
            for m in 0..=(n_max - n) {
                let hi = (m + 1) * nt;
                let mut v = d[axis] * t[hi + lower];
                if let Some(l2) = lower2 {
                    v += (gd - 1) as f64 * t[hi + l2];
                }
                t[m * nt + idx] = v;
            }
        }
    }
    out.copy_from_slice(&t[..nt]);
}

/// The `(α, β, α+β)` triple loop: α outer, β ascending.
fn oracle_m2l(set: &MultiIndexSet, src_m: &[f64], r: Vec3, dst_l: &mut [f64], channels: usize) {
    let nt = set.len();
    let order = set.order();
    let mut triples = Vec::new();
    for (a, (ai, aj, ak)) in set.iter() {
        let na = ai + aj + ak;
        for b in 0..nt {
            if na + set.total_order(b) > order {
                continue;
            }
            let (bi, bj, bk) = set.tuple(b);
            triples.push((a, b, set.idx(ai + bi, aj + bj, ak + bk)));
        }
    }
    let sign: Vec<f64> = (0..nt)
        .map(|i| {
            if set.total_order(i).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            }
        })
        .collect();
    let mut tensor = vec![0.0; nt];
    oracle_deriv(r, set, &mut tensor);
    for c in 0..channels {
        let src = &src_m[c * nt..(c + 1) * nt];
        let dst = &mut dst_l[c * nt..(c + 1) * nt];
        for &(a, b, sum) in &triples {
            dst[b] += sign[a] * src[a] * tensor[sum];
        }
    }
}

/// `dx^α/α!` by peeling one power at a time, lookups per entry.
fn oracle_power_series(dx: Vec3, set: &MultiIndexSet, out: &mut [f64]) {
    out[0] = 1.0;
    let d = [dx.x, dx.y, dx.z];
    for idx in 1..set.len() {
        let (axis, lower) = set.peel(idx).expect("nonzero index peels");
        let (i, j, k) = set.tuple(idx);
        let e = [i, j, k][axis] as f64;
        out[idx] = out[lower] * d[axis] / e;
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn vec_bits(v: &[Vec3]) -> Vec<[u64; 3]> {
    v.iter()
        .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
        .collect()
}

fn leaf(max: usize) -> impl Strategy<Value = Vec<(Vec3, f64)>> {
    prop::collection::vec(
        ((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 0.1f64..2.0)
            .prop_map(|((x, y, z), q)| (Vec3::new(x, y, z), q)),
        0..max + 1,
    )
}

/// A random direction scaled to `[2, 8]`: well separated from a unit cell.
fn offset() -> impl Strategy<Value = Vec3> {
    ((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 2.0f64..8.0)
        .prop_filter_map("nonzero direction", |((x, y, z), r)| {
            Vec3::new(x, y, z).normalized().map(|u| u * r)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Blocked gravity P2P ≡ scalar loop, for self and non-self leaves of
    /// 0–80 bodies (tails off the block width included), softened or not,
    /// accumulating onto nonzero outputs.
    #[test]
    fn gravity_p2p_is_bit_identical(
        targets in leaf(80),
        sources in leaf(80),
        self_leaf in any::<bool>(),
        softened in any::<bool>(),
        seed in (-1.0f64..1.0, -1.0f64..1.0),
    ) {
        let eps = if softened { 0.05 } else { 0.0 };
        let kernel = GravityKernel::new(eps);
        let tpos: Vec<Vec3> = targets.iter().map(|t| t.0).collect();
        let (spos, sstr): (Vec<Vec3>, Vec<f64>) = if self_leaf {
            targets.iter().copied().unzip()
        } else {
            sources.iter().copied().unzip()
        };
        let pot0: Vec<f64> = (0..tpos.len()).map(|i| seed.0 * i as f64).collect();
        let out0: Vec<Vec3> = (0..tpos.len())
            .map(|i| Vec3::new(seed.1, -seed.0, seed.1 * i as f64))
            .collect();

        let (mut pot, mut out) = (pot0.clone(), out0.clone());
        kernel.p2p(&tpos, &mut pot, &mut out, &spos, &sstr, self_leaf);
        let (mut rpot, mut rout) = (pot0, out0);
        oracle_p2p(eps, &tpos, &mut rpot, &mut rout, &spos, &sstr, self_leaf);

        prop_assert_eq!(bits(&pot), bits(&rpot), "potential, n={}", tpos.len());
        prop_assert_eq!(vec_bits(&out), vec_bits(&rout), "field, n={}", tpos.len());
    }

    /// Table-driven M2L ≡ triple loop (and the precomputed recurrence ≡ the
    /// per-entry one) for p = 1..=10, gravity and Stokeslet channel counts,
    /// random well-separated offsets, accumulating onto nonzero locals.
    #[test]
    fn m2l_is_bit_identical(
        p in 1usize..11,
        stokes in any::<bool>(),
        r in offset(),
        coeffs in prop::collection::vec(-1.0f64..1.0, 2 * STOKESLET_CHANNELS * nterms(10)..2 * STOKESLET_CHANNELS * nterms(10) + 1),
    ) {
        let channels = if stokes { STOKESLET_CHANNELS } else { 1 };
        let ops = ExpansionOps::new(p);
        let set = ops.set();
        let len = channels * ops.nterms();
        let m = &coeffs[..len];
        let l0 = &coeffs[len..2 * len];

        let mut tensor = vec![0.0; set.len()];
        let mut reference = vec![0.0; set.len()];
        deriv_1_over_r(r, set, &mut DerivScratch::default(), &mut tensor);
        oracle_deriv(r, set, &mut reference);
        prop_assert_eq!(bits(&tensor), bits(&reference), "tensor, p={}", p);

        let mut l = l0.to_vec();
        ops.m2l(m, r, &mut l, channels, &mut M2lScratch::default());
        let mut rl = l0.to_vec();
        oracle_m2l(set, m, r, &mut rl, channels);
        prop_assert_eq!(bits(&l), bits(&rl), "locals, p={} channels={}", p, channels);
    }

    /// The power series (P2M/M2M/L2L/L2P's building block) reads the same
    /// precomputed peel steps as the tensor; it stays bit-identical too.
    #[test]
    fn power_series_is_bit_identical(
        p in 0usize..11,
        dx in (-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0),
    ) {
        let set = MultiIndexSet::new(p);
        let v = Vec3::new(dx.0, dx.1, dx.2);
        let mut out = vec![0.0; set.len()];
        let mut reference = vec![0.0; set.len()];
        power_series(v, &set, &mut out);
        oracle_power_series(v, &set, &mut reference);
        prop_assert_eq!(bits(&out), bits(&reference));
    }
}

/// The flop weights seed the virtual clock (`virtual_step_s`, every
/// `results/*.tsv`), so the M2L table rewrite must leave them exactly where
/// the triple-table accounting put them.
#[test]
fn op_flops_are_pinned() {
    // (p, gravity, stokeslet), each [p2m, m2m, m2l, l2l, l2p, p2p].
    let expected: [(usize, [f64; 6], [f64; 6]); 3] = [
        (
            4,
            [140.0, 490.0, 1330.0, 490.0, 140.0, 25.0],
            [560.0, 3010.0, 5110.0, 3010.0, 560.0, 41.0],
        ),
        (
            6,
            [336.0, 2016.0, 5124.0, 2016.0, 336.0, 25.0],
            [1344.0, 13104.0, 21756.0, 13104.0, 1344.0, 41.0],
        ),
        (
            8,
            [660.0, 6336.0, 14949.0, 6336.0, 660.0, 25.0],
            [2640.0, 42372.0, 69003.0, 42372.0, 2640.0, 41.0],
        ),
    ];
    let gravity = GravityKernel::default();
    let stokes = StokesletKernel::default();
    for (p, g, s) in expected {
        let ops = ExpansionOps::new(p);
        for (name, got, want) in [
            ("gravity", gravity.op_flops(&ops), g),
            ("stokeslet", stokes.op_flops(&ops), s),
        ] {
            let got = [
                got.p2m_per_body,
                got.m2m,
                got.m2l,
                got.l2l,
                got.l2p_per_body,
                got.p2p_per_pair,
            ];
            assert_eq!(got, want, "{name} op_flops at p={p}");
        }
    }
}
