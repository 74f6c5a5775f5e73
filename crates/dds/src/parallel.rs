//! Parallel DDS — the paper's Alg. 2.
//!
//! `N` logical workers share a global best point. Each iteration, every
//! worker generates `pointsPerIteration` candidates by perturbing the global
//! best, keeps its local best, and a reduction installs the best local best
//! as the next global best. To stop the workers from exploring the same
//! neighbourhood, worker groups use different perturbation radii: the first
//! quarter uses `r₁`, the next `r₂`, and so on (`r = [0.2, 0.3, 0.4, 0.5]`,
//! Fig. 6).
//!
//! The logical workers run inline on the calling thread, in worker-index
//! order. Each keeps its own RNG stream across iterations, and the
//! reduction runs in worker-index order, so the result is exactly the
//! paper's synchronous parallel round. A fan-out to threads was measured
//! and dropped: one 16-dimensional search is under 2 ms of work, split
//! into 40 short iterations, and a per-iteration fork/join to a 2-thread
//! pool was no faster (DESIGN.md, "Search scoring").

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::objective::Objective;
use crate::rng::standard_normal;
use crate::{SearchResult, SearchSpace};

/// Parameters of the parallel DDS run, defaulting to the paper's Fig. 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelDdsParams {
    /// Iteration budget (Fig. 6: 40).
    pub max_iters: usize,
    /// Perturbation radii assigned to thread groups (Fig. 6:
    /// `[0.2, 0.3, 0.4, 0.5]`).
    pub r_values: Vec<f64>,
    /// Candidates each thread generates per iteration (Fig. 6: 10).
    pub points_per_iteration: usize,
    /// Number of uniformly random starting points (Fig. 6: 50).
    pub initial_points: usize,
    /// Logical workers; the paper uses one thread per core. They run on the
    /// calling thread, so this is the number of RNG streams and radii, not
    /// OS threads.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
    /// Record every evaluated point (for the Fig. 10(a) scatter).
    pub record_explored: bool,
}

impl Default for ParallelDdsParams {
    fn default() -> Self {
        ParallelDdsParams {
            max_iters: 40,
            r_values: vec![0.2, 0.3, 0.4, 0.5],
            points_per_iteration: 10,
            initial_points: 50,
            threads: 8,
            seed: 0xDD5,
            record_explored: false,
        }
    }
}

/// Evaluated points, in evaluation order (only filled when
/// `record_explored` is set).
type ExploredLog = Vec<(Vec<usize>, f64)>;

fn validate(params: &ParallelDdsParams) {
    assert!(params.max_iters > 0, "need at least one iteration");
    assert!(
        params.points_per_iteration > 0,
        "need at least one point per iteration"
    );
    assert!(params.initial_points > 0, "need at least one initial point");
    assert!(params.threads > 0, "need at least one thread");
    assert!(
        !params.r_values.is_empty(),
        "need at least one perturbation radius"
    );
}

/// Phase 1 (Alg. 2 lines 5-6): random initial points, best becomes the
/// incumbent.
fn initial_phase(
    space: &SearchSpace,
    objective: &dyn Objective,
    params: &ParallelDdsParams,
) -> (Vec<usize>, f64, ExploredLog) {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut best_point = space.random_point(&mut rng);
    let mut best_value = objective.evaluate(&best_point);
    let mut explored = Vec::new();
    if params.record_explored {
        explored.push((best_point.clone(), best_value));
    }
    for _ in 1..params.initial_points {
        let p = space.random_point(&mut rng);
        let v = objective.evaluate(&p);
        if params.record_explored {
            explored.push((p.clone(), v));
        }
        if v > best_value {
            best_value = v;
            best_point = p;
        }
    }
    (best_point, best_value, explored)
}

/// The seed of logical worker `t`, spread by the SplitMix64 golden gamma.
fn worker_seed(seed: u64, t: usize) -> u64 {
    seed ^ util::rng64::GOLDEN_GAMMA.wrapping_mul(t as u64 + 1)
}

/// The perturbation radius of logical worker `t` (Alg. 2: the first N/4
/// threads use r₁, the next N/4 use r₂, …).
fn worker_radius(params: &ParallelDdsParams, t: usize) -> f64 {
    let group = t * params.r_values.len() / params.threads;
    params.r_values[group.min(params.r_values.len() - 1)]
}

/// One logical worker of Alg. 2: its own RNG stream and radius, plus the
/// local best and candidate buffers it reuses across iterations.
struct Worker {
    rng: StdRng,
    r: f64,
    local_point: Vec<usize>,
    local_value: f64,
    candidate: Vec<usize>,
    explored: ExploredLog,
}

impl Worker {
    fn new(params: &ParallelDdsParams, t: usize, dims: usize) -> Worker {
        Worker {
            rng: StdRng::seed_from_u64(worker_seed(params.seed, t)),
            r: worker_radius(params, t),
            local_point: vec![0; dims],
            local_value: f64::NEG_INFINITY,
            candidate: vec![0; dims],
            explored: Vec::new(),
        }
    }

    /// One iteration's share: `points_per_iteration` candidates perturbed
    /// from the global best, greedily keeping the local best.
    fn iterate(
        &mut self,
        space: &SearchSpace,
        objective: &dyn Objective,
        params: &ParallelDdsParams,
        free: &[usize],
        p_select: f64,
        global: (&[usize], f64),
    ) {
        let rng = &mut self.rng;
        let scale = self.r * space.num_choices() as f64;
        self.local_point.copy_from_slice(global.0);
        self.local_value = global.1;
        for _ in 0..params.points_per_iteration {
            let candidate = &mut self.candidate;
            candidate.copy_from_slice(&self.local_point);
            let mut perturbed_any = false;
            for &d in free {
                if rng.random_range(0.0..1.0) < p_select {
                    let delta = scale * standard_normal(rng);
                    candidate[d] = space.reflect(candidate[d] as f64 + delta);
                    perturbed_any = true;
                }
            }
            if !perturbed_any && !free.is_empty() {
                let d = free[rng.random_range(0..free.len())];
                let delta = scale * standard_normal(rng);
                candidate[d] = space.reflect(candidate[d] as f64 + delta);
            }
            let v = objective.evaluate(candidate);
            if params.record_explored {
                self.explored.push((candidate.clone(), v));
            }
            if v > self.local_value {
                self.local_value = v;
                std::mem::swap(&mut self.local_point, &mut self.candidate);
            }
        }
    }
}

/// Runs parallel DDS (Alg. 2), maximizing `objective` over `space`.
///
/// Deterministic for a fixed seed: every logical worker draws from its own
/// RNG stream, and the reduction breaks ties by worker index.
///
/// # Panics
///
/// Panics if any of `max_iters`, `points_per_iteration`, `initial_points`,
/// `threads`, or `r_values` is zero/empty.
pub fn parallel_search(
    space: &SearchSpace,
    objective: &dyn Objective,
    params: &ParallelDdsParams,
) -> SearchResult {
    validate(params);
    let (mut best_point, mut best_value, mut explored) = initial_phase(space, objective, params);

    let free = space.free_dims();
    let ln_max = (params.max_iters as f64).ln().max(f64::MIN_POSITIVE);
    let mut workers: Vec<Worker> = (0..params.threads)
        .map(|t| Worker::new(params, t, space.dims()))
        .collect();

    for i in 1..=params.max_iters {
        let p_select = 1.0 - (i as f64).ln() / ln_max;
        for worker in &mut workers {
            worker.iterate(
                space,
                objective,
                params,
                &free,
                p_select,
                (&best_point, best_value),
            );
        }
        // Every worker perturbed the same global best; the reduction then
        // installs the best local best, ties to the lowest worker index.
        let locals = workers
            .iter()
            .enumerate()
            .map(|(t, w)| (Some(t), w.local_value));
        if let (Some(t), value) = util::reduce::ordered_best(locals, (None, best_value)) {
            best_point.copy_from_slice(&workers[t].local_point);
            best_value = value;
        }
    }

    explored.extend(util::reduce::ordered_concat(
        workers.into_iter().map(|w| w.explored),
    ));
    SearchResult {
        best_point,
        best_value,
        evaluations: params.initial_points
            + params.max_iters * params.points_per_iteration * params.threads,
        explored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::{search, DdsParams};

    fn separable(target: usize) -> impl Fn(&[usize]) -> f64 + Sync {
        move |x: &[usize]| {
            -x.iter()
                .map(|&v| (v as f64 - target as f64).abs())
                .sum::<f64>()
        }
    }

    #[test]
    fn finds_separable_optimum() {
        let space = SearchSpace::new(16, 108);
        let result = parallel_search(&space, &separable(54), &ParallelDdsParams::default());
        assert!(
            result.best_value > -40.0,
            "best value {}",
            result.best_value
        );
    }

    #[test]
    fn respects_frozen_dimensions() {
        let mut space = SearchSpace::new(8, 108);
        space.freeze(0, 100);
        space.freeze(7, 3);
        let result = parallel_search(&space, &separable(50), &ParallelDdsParams::default());
        assert_eq!(result.best_point[0], 100);
        assert_eq!(result.best_point[7], 3);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let space = SearchSpace::new(8, 108);
        let params = ParallelDdsParams {
            threads: 4,
            ..ParallelDdsParams::default()
        };
        let a = parallel_search(&space, &separable(30), &params);
        let b = parallel_search(&space, &separable(30), &params);
        assert_eq!(a.best_point, b.best_point);
    }

    #[test]
    fn parallel_matches_or_beats_budget_matched_serial() {
        // With the same total evaluation budget, the multi-radius parallel
        // search should be at least competitive on a rugged objective.
        let space = SearchSpace::new(16, 108);
        let objective = |x: &[usize]| {
            x.iter()
                .map(|&v| {
                    let d = (v as f64 - 70.0).abs();
                    (50.0 - d) + 5.0 * (v as f64 * 0.9).sin()
                })
                .sum::<f64>()
        };
        let par_params = ParallelDdsParams {
            threads: 4,
            ..ParallelDdsParams::default()
        };
        let par = parallel_search(&space, &objective, &par_params);
        let serial_budget = par.evaluations - par_params.initial_points;
        let ser = search(
            &space,
            &objective,
            &DdsParams {
                max_iters: serial_budget,
                ..DdsParams::default()
            },
        );
        assert!(
            par.best_value > ser.best_value * 0.95,
            "parallel {} vs serial {}",
            par.best_value,
            ser.best_value
        );
    }

    #[test]
    fn evaluation_count_matches_formula() {
        let space = SearchSpace::new(4, 10);
        let params = ParallelDdsParams {
            threads: 2,
            max_iters: 5,
            points_per_iteration: 3,
            initial_points: 7,
            record_explored: true,
            ..ParallelDdsParams::default()
        };
        let result = parallel_search(&space, &separable(5), &params);
        assert_eq!(result.evaluations, 7 + 5 * 3 * 2);
        assert_eq!(result.explored.len(), result.evaluations);
    }

    #[test]
    fn single_thread_works() {
        let space = SearchSpace::new(6, 20);
        let params = ParallelDdsParams {
            threads: 1,
            ..ParallelDdsParams::default()
        };
        let result = parallel_search(&space, &separable(10), &params);
        assert!(space.contains(&result.best_point));
    }

    /// FNV-1a over every explored point and the bits of its value.
    fn explored_digest(explored: &[(Vec<usize>, f64)]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (point, value) in explored {
            for &v in point {
                eat(v as u64);
            }
            eat(value.to_bits());
        }
        h
    }

    /// Pins the search's exact output, recorded from the thread-spawning
    /// and pooled back-ends this inline implementation replaced (the two
    /// agreed bit for bit at every pool width). Any change to candidate
    /// generation, RNG streams, radii or the reduction shows here.
    #[test]
    fn inline_workers_match_the_pinned_threaded_results() {
        let mut space = SearchSpace::new(12, 108);
        space.freeze(3, 17);
        space.freeze(11, 90);
        let objective = |x: &[usize]| {
            x.iter()
                .enumerate()
                .map(|(d, &v)| {
                    (v as f64 * (0.07 + 0.01 * d as f64)).sin() - (v as f64 - 60.0).abs() / 40.0
                })
                .sum::<f64>()
        };
        let pins: [(usize, [usize; 12], u64, usize, u64); 3] = [
            (
                1,
                [107, 23, 82, 17, 68, 63, 60, 57, 53, 52, 82, 90],
                0x4011_38c6_c24c_0564,
                450,
                0x85a5_e105_24ea_d2aa,
            ),
            (
                4,
                [26, 94, 83, 17, 70, 65, 60, 57, 53, 51, 47, 90],
                0x4014_025b_016f_8502,
                1650,
                0x185b_85d7_a70c_9211,
            ),
            (
                8,
                [28, 95, 84, 17, 69, 64, 60, 57, 53, 50, 47, 90],
                0x4014_24b9_4c86_08ca,
                3250,
                0x9d1c_73e2_d1ae_abe8,
            ),
        ];
        for (threads, point, value_bits, evaluations, digest) in pins {
            let params = ParallelDdsParams {
                threads,
                seed: 0xC0FFEE,
                record_explored: true,
                ..ParallelDdsParams::default()
            };
            let r = parallel_search(&space, &objective, &params);
            assert_eq!(r.best_point, point, "threads={threads}");
            assert_eq!(r.best_value.to_bits(), value_bits, "threads={threads}");
            assert_eq!(r.evaluations, evaluations, "threads={threads}");
            assert_eq!(r.explored.len(), evaluations, "threads={threads}");
            assert_eq!(explored_digest(&r.explored), digest, "threads={threads}");
        }
    }
}
