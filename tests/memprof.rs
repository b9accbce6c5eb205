//! Memory-observatory properties, run with the counting allocator installed
//! (`cargo test --features memprof --test memprof`):
//!
//! * **zero-alloc steady state** — once a tree's rebin scratch and a plan's
//!   refresh scratch are warm, `Octree::rebin` performs no allocations at
//!   all, and `IncrementalLists::refresh_counts` performs none on the
//!   Clean/Patched paths (the Rebuilt fallback legitimately allocates);
//! * **allocation-free solve** — once an engine has solved once, a solve
//!   on unchanged positions allocates nothing inside the `phase` scope
//!   (upsweep, downsweep, near field), for gravity and Stokeslets alike;
//! * **structural/allocator agreement** — the `heap_bytes()` walks over
//!   bodies + octree + plan land within 15% of what the allocator says is
//!   actually live for those structures.
//!
//! Without the `memprof` feature the counting hooks compile to no-ops and
//! `memprof::counting()` stays false, so both tests pass vacuously. The
//! allocator counters are process-global, so every test here serializes on
//! one lock.

use std::sync::Mutex;

use afmm::{FmmEngine, FmmParams};
use fmm_math::{GravityKernel, Kernel, StokesletKernel};
use geom::Vec3;
use octree::{build_adaptive, BuildParams, IncrementalLists, Mac, PlanRefresh};
use proptest::prelude::*;
use telemetry::memprof;

/// The hooks only count once the wrapper is the global allocator, which a
/// test binary has to opt into itself.
#[cfg(feature = "memprof")]
#[global_allocator]
static ALLOC: telemetry::CountingAlloc = telemetry::CountingAlloc;

/// Allocator counters are process-global; concurrent test bodies would
/// bleed into each other's deltas.
static LOCK: Mutex<()> = Mutex::new(());

fn plummer_points(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
    let b = nbody::plummer(n, 1.0, 1.0, seed);
    (b.pos, b.mass)
}

/// Scope-tagged allocation counts for the two gated scopes.
fn gate_counts() -> (u64, u64) {
    let rebin = memprof::scope_stats("rebin").unwrap_or_default();
    let refresh = memprof::scope_stats("plan.refresh").unwrap_or_default();
    (rebin.allocs, refresh.allocs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Warm tree + warm plan, then several steps of mild uniform
    /// contraction: rebin must never allocate, and any refresh that stays
    /// on the Clean/Patched path (no emptiness flip) must not either.
    #[test]
    fn steady_state_is_allocation_free(
        seed in 0u64..1000,
        n in 600usize..2000,
        factor in 0.9990f64..0.9999,
        steps in 2usize..6,
    ) {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        if !memprof::counting() {
            return Ok(()); // feature off: nothing to measure
        }
        let (mut pos, _) = plummer_points(n, seed);
        let mut tree = build_adaptive(&pos, BuildParams::with_s(48));
        let mut plan = IncrementalLists::build(&tree, Mac::default());

        // Warmup pays the one-time scratch allocations: rebin pair/stack
        // buffers, the refresh walk stack, and the dirty list's hard bound.
        for p in pos.iter_mut() {
            *p *= factor;
        }
        tree.rebin(&pos);
        let _ = plan.refresh_counts(&tree);

        // A Rebuilt outcome regenerates the reverse-P2P lists, which moves
        // the dirty list's reserve bound — the refresh right after it may
        // re-warm once, so its allocation check is skipped for one step.
        let mut rewarm = false;
        for _ in 0..steps {
            for p in pos.iter_mut() {
                *p *= factor;
            }
            let (rebin0, refresh0) = gate_counts();
            tree.rebin(&pos);
            let outcome = plan.refresh_counts(&tree);
            let (rebin1, refresh1) = gate_counts();
            prop_assert_eq!(rebin1, rebin0, "rebin allocated while warm");
            if outcome == PlanRefresh::Rebuilt {
                rewarm = true;
            } else {
                if !rewarm {
                    prop_assert_eq!(
                        refresh1, refresh0,
                        "{:?} refresh allocated while warm", outcome
                    );
                }
                rewarm = false;
            }
        }
    }
}

/// Cold solve, then warm solves on the same positions: the cold one must
/// allocate inside `phase` (the counters are live), the warm ones not at
/// all.
fn assert_warm_phase_alloc_free<K: Kernel>(kernel: K, pos: &[Vec3], strength: &[f64]) {
    let name = kernel.name();
    let mut engine = FmmEngine::new(kernel, FmmParams::default(), pos, 48);
    memprof::reset_scopes();
    std::hint::black_box(engine.solve(pos, strength));
    let cold = memprof::scope_stats("phase").unwrap_or_default();
    assert!(
        cold.allocs > 0,
        "{name}: the first solve's scratch went uncounted"
    );
    memprof::reset_scopes();
    for _ in 0..3 {
        engine.rebin(pos);
        std::hint::black_box(engine.solve(pos, strength));
    }
    let warm = memprof::scope_stats("phase").unwrap_or_default();
    assert_eq!(warm.allocs, 0, "{name}: warm solve allocated in phase");
}

#[test]
fn warm_solve_phase_is_allocation_free() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !memprof::counting() {
        return; // feature off: nothing to measure
    }
    let (pos, mass) = plummer_points(3000, 23);
    assert_warm_phase_alloc_free(GravityKernel::default(), &pos, &mass);
    let forces = nbody::random_unit_forces(pos.len(), 24);
    assert_warm_phase_alloc_free(StokesletKernel::default(), &pos, &forces);
}

/// `heap_bytes()` is a structural estimate (capacity-granular Vec walks);
/// the allocator's live-byte delta around construction is ground truth.
/// They must agree within 15% for the paper-scale working set.
#[test]
fn structural_heap_bytes_tracks_allocator_live_bytes() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !memprof::counting() {
        return; // feature off: nothing to measure
    }
    let live0 = memprof::global().live_bytes;
    let b = nbody::plummer(3000, 1.0, 1.0, 11);
    let tree = build_adaptive(&b.pos, BuildParams::with_s(48));
    let plan = IncrementalLists::build(&tree, Mac::default());
    let live1 = memprof::global().live_bytes;

    let measured = (live1 - live0) as f64;
    let structural = (b.heap_bytes() + tree.heap_bytes() + plan.heap_bytes()) as f64;
    std::hint::black_box((&b, &tree, &plan));

    let ratio = structural / measured;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "structural {structural} B vs allocator-live {measured} B (ratio {ratio:.3}): \
         the heap_bytes() walks drifted from what is actually allocated"
    );
}
