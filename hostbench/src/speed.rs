//! The host's memory speed, sampled between steps and set-ups.
//!
//! The host this benchmark was tuned on shares its last-level cache and
//! memory with other tenants. As their load changes, the same `galaxy_cpu`
//! solve takes 0.65 s in one minute and 1.05 s in the next, so a raw step
//! time says as much about the neighbours as about the program, and the
//! median of a 40-step run swings by a quarter between runs. Between steps
//! (and between set-ups) the loops therefore time one pass of random reads
//! over a 12 MiB working set, about the size of the solve's, with code of
//! this package alone: no change to the program makes the pass faster or
//! slower. Each step time is then scaled to the speed at which a pass takes
//! [`REF_PASS_S`], using the passes taken nearest to that step. Over four minutes of back-to-back
//! identical solves, the pass and the solve slowed and sped up together
//! (correlation 0.86 between their medians over eight solves), and scaling
//! cut the spread of 40-solve medians from 0.26 to 0.03 of their median.

use std::time::Instant;

/// Typical pass time on the tuning host (a 2-vCPU Xeon at 2.1 GHz): a
/// scaled time is what the step would have taken at that speed.
pub const REF_PASS_S: f64 = 0.006;
/// Entries of the table a pass reads.
const TABLE: usize = 1 << 20;
/// Least loop time between two passes: every step of `galaxy_cpu`, every
/// tenth or so of the replay, about 1.5 % of the loop either way.
const PASS_EVERY_S: f64 = 0.4;

pub struct SpeedProbe {
    table: Vec<f64>,
    /// A fixed pseudo-random read order, so reads miss the private caches
    /// as the solve's gathers do.
    order: Vec<u32>,
}

impl SpeedProbe {
    pub fn new() -> Self {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let order = (0..TABLE)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) % TABLE as u64) as u32
            })
            .collect();
        SpeedProbe {
            table: (0..TABLE).map(|i| i as f64 * 0.5).collect(),
            order,
        }
    }

    fn pass(&self) -> f64 {
        let t = Instant::now();
        let mut acc = 0.0;
        for (k, &i) in self.order.iter().enumerate() {
            let v = self.table[i as usize];
            acc += (v * v + k as f64).sqrt();
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }

    /// Memory the probe keeps resident from its creation on, in MiB.
    pub fn resident_mib(&self) -> f64 {
        (self.table.len() * 8 + self.order.len() * 4) as f64 / (1024.0 * 1024.0)
    }

    /// Start sampling a loop: one pass before its first step.
    pub fn start(&self) -> Passes<'_> {
        Passes {
            probe: self,
            taken: vec![(0, self.pass())],
            last: Instant::now(),
        }
    }
}

/// The passes of one loop, each with the number of steps done before it.
pub struct Passes<'a> {
    probe: &'a SpeedProbe,
    taken: Vec<(usize, f64)>,
    last: Instant,
}

impl Passes<'_> {
    /// Call between steps, outside their timing, with the steps done so
    /// far; takes a pass if the last one is [`PASS_EVERY_S`] old.
    pub fn after_step(&mut self, done: usize) {
        if self.last.elapsed().as_secs_f64() >= PASS_EVERY_S {
            self.taken.push((done, self.probe.pass()));
            self.last = Instant::now();
        }
    }

    /// End the loop after `done` steps with a last pass, so every step has
    /// passes on both sides.
    pub fn finish(mut self, done: usize) -> Vec<(usize, f64)> {
        if self.taken.last().is_some_and(|&(k, _)| k < done) {
            self.taken.push((done, self.probe.pass()));
        }
        self.taken
    }
}

/// Step times scaled to the reference speed. Step `k` is scaled by the
/// median of the two passes before it and the two after it, which smooths
/// a single pass that a neighbour happened to disturb.
pub fn at_reference(step_s: &[f64], passes: &[(usize, f64)]) -> Vec<f64> {
    step_s
        .iter()
        .enumerate()
        .map(|(k, &t)| {
            let after = passes.partition_point(|&(done, _)| done <= k);
            let near: Vec<f64> = passes[after.saturating_sub(2)..(after + 2).min(passes.len())]
                .iter()
                .map(|&(_, s)| s)
                .collect();
            t * REF_PASS_S / crate::median(&near)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_scale_by_the_passes_around_them() {
        // Passes before steps 0, 2 and 4 and after step 4; the middle
        // two run at half the reference speed.
        let passes = [
            (0, REF_PASS_S),
            (2, 2.0 * REF_PASS_S),
            (4, 2.0 * REF_PASS_S),
            (5, REF_PASS_S),
        ];
        let scaled = at_reference(&[1.0; 5], &passes);
        // Step 0: (0) before, (2, 4) after.
        assert_eq!(scaled[0], 0.5);
        // Step 2: (0, 2) before, (4, 5) after: median of 1, 2, 2, 1.
        assert!((scaled[2] - 1.0 / 1.5).abs() < 1e-12);
        // Step 4: (2, 4) before, (5) after.
        assert_eq!(scaled[4], 0.5);
    }
}
