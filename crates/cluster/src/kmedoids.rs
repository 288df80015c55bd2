//! k-medoids clustering (Voronoi iteration / "alternating" algorithm).
//!
//! Used in two places by the organization system, matching the paper:
//!
//! * partitioning the tags of a lake into the `k` dimensions of a
//!   multi-dimensional organization (§2.5: "we clustered the tags into N
//!   clusters (using n-medoids)"; §4.3.4: "partitioning its tags into ten
//!   groups using k-medoids clustering \[23\]");
//! * selecting the attribute *representatives* for approximate evaluation
//!   (§3.4: a one-to-one mapping between representatives and a partitioning
//!   of attributes — the medoid of each partition is its representative).
//!
//! Seeding is k-means++-style (first medoid uniform, subsequent medoids
//! with probability proportional to squared distance to the nearest chosen
//! medoid), followed by alternating assignment / medoid-update steps until
//! the assignment stabilizes or `max_iter` is hit.
//!
//! The algorithm is **matrix-free**: assignment and seeding stream
//! `ASSIGN_BLOCK`-point strips through the tiled
//! [`PairwiseDistance::dist_block`] kernel (scratch is `strip × k`, never
//! `n × n`), so fitting the full 50k-attribute lake costs kilobytes of
//! working memory. Every streamed distance is bit-identical to the
//! corresponding one-pair `dist` call, so results are unchanged from the
//! scalar implementation at any strip size or thread count.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::distance::PairwiseDistance;

/// Minimum number of distance evaluations in an assignment / medoid-update
/// step before it fans out over the worker pool — below this the scoped
/// spawn overhead outweighs the arithmetic. Results are identical either
/// way: per-point work is independent, and every reduction (the assignment
/// cost sum, the per-cluster argmin) is folded serially in fixed index
/// order.
const PAR_MIN_DIST_EVALS: usize = 1 << 14;

/// Points per [`PairwiseDistance::dist_block`] strip in the assignment and
/// seeding scans. The strips keep k-medoids **matrix-free** — at no point
/// is anything larger than `ASSIGN_BLOCK × k` distances materialized, so
/// fitting 50k attribute vectors needs kilobytes of scratch, not the
/// gigabytes an `n × n` matrix would — while routing every evaluation
/// through the tiled gram kernel. Every distance is bit-identical to the
/// corresponding `dist` call, so the strip size is invisible in results.
const ASSIGN_BLOCK: usize = 64;

/// Result of a k-medoids run.
#[derive(Clone, Debug)]
pub struct KMedoids {
    /// Cluster index in `0..k` for every point.
    pub assignments: Vec<usize>,
    /// Point index of each cluster's medoid.
    pub medoids: Vec<usize>,
    /// Total cost: sum over points of distance to their medoid.
    pub cost: f64,
    /// Number of alternating iterations executed.
    pub iterations: usize,
}

impl KMedoids {
    /// Cluster `points` into `k` groups. Deterministic in `seed`.
    ///
    /// `k` is clamped to `1..=n`; for `n == 0` an empty result is returned.
    pub fn fit<D: PairwiseDistance>(points: &D, k: usize, seed: u64) -> KMedoids {
        Self::fit_with(points, k, seed, 100)
    }

    /// As [`fit`](Self::fit) with an explicit iteration cap.
    pub fn fit_with<D: PairwiseDistance>(
        points: &D,
        k: usize,
        seed: u64,
        max_iter: usize,
    ) -> KMedoids {
        let n = points.len();
        if n == 0 {
            return KMedoids {
                assignments: Vec::new(),
                medoids: Vec::new(),
                cost: 0.0,
                iterations: 0,
            };
        }
        let k = k.clamp(1, n);
        let mut rng = StdRng::seed_from_u64(seed);
        // Shared identity index: dist_block strips borrow their row-id
        // spans from here instead of regathering per strip.
        let ids: Vec<usize> = (0..n).collect();
        let mut medoids = seed_plus_plus(points, k, &ids, &mut rng);
        let mut assignments = vec![0usize; n];
        let mut iterations = 0usize;
        let mut cost = assign(points, &medoids, &ids, &mut assignments);
        while iterations < max_iter {
            iterations += 1;
            // Medoid update: within each cluster, the point minimizing the
            // sum of distances to the cluster members.
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); k];
            for (p, &c) in assignments.iter().enumerate() {
                members[c].push(p);
            }
            let mut changed = false;
            for (c, group) in members.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let best = update_medoid(points, group, medoids[c]);
                if best != medoids[c] {
                    medoids[c] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            let new_cost = assign(points, &medoids, &ids, &mut assignments);
            if new_cost >= cost {
                cost = new_cost;
                break;
            }
            cost = new_cost;
        }
        KMedoids {
            assignments,
            medoids,
            cost,
            iterations,
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.medoids.len()
    }

    /// Members of each cluster.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.k()];
        for (p, &c) in self.assignments.iter().enumerate() {
            groups[c].push(p);
        }
        groups
    }
}

/// Fill `out[p] = dist(p, m)` for every point, in [`ASSIGN_BLOCK`]-row
/// [`PairwiseDistance::dist_block`] strips — each value bit-identical to
/// the one-pair `dist` call, so callers see no difference beyond speed.
fn dists_to_one<D: PairwiseDistance>(points: &D, ids: &[usize], m: usize, out: &mut [f32]) {
    let n = points.len();
    let mut lo = 0;
    while lo < n {
        let hi = (lo + ASSIGN_BLOCK).min(n);
        points.dist_block(&ids[lo..hi], &[m], &mut out[lo..hi]);
        lo = hi;
    }
}

/// k-means++-style seeding over an arbitrary metric. Distance sweeps run in
/// [`ASSIGN_BLOCK`] strips on the blocked kernel ([`dists_to_one`]); the
/// weighted draw and the running-minimum update walk points in ascending
/// order over bit-identical values, so seeding is unchanged from the
/// one-pair-at-a-time implementation.
fn seed_plus_plus<D: PairwiseDistance>(
    points: &D,
    k: usize,
    ids: &[usize],
    rng: &mut StdRng,
) -> Vec<usize> {
    let n = points.len();
    let mut medoids = Vec::with_capacity(k);
    medoids.push(rng.random_range(0..n));
    let mut nearest = vec![0.0f32; n];
    dists_to_one(points, ids, medoids[0], &mut nearest);
    let mut fresh = vec![0.0f32; n];
    while medoids.len() < k {
        let total: f64 = nearest.iter().map(|d| (*d as f64) * (*d as f64)).sum();
        let next = if total <= f64::EPSILON {
            // All points coincide with a medoid; pick any non-medoid.
            (0..n).find(|p| !medoids.contains(p)).unwrap_or(0)
        } else {
            let mut target = rng.random_range(0.0..total);
            let mut chosen = n - 1;
            for (p, d) in nearest.iter().enumerate() {
                let w = (*d as f64) * (*d as f64);
                if target < w {
                    chosen = p;
                    break;
                }
                target -= w;
            }
            chosen
        };
        medoids.push(next);
        dists_to_one(points, ids, next, &mut fresh);
        for (slot, &d) in nearest.iter_mut().zip(&fresh) {
            if d < *slot {
                *slot = d;
            }
        }
    }
    medoids
}

/// New medoid of one cluster: the first member (in group order) minimizing
/// the sum of distances to every member.
///
/// The serial path walks candidates with a running partial sum and breaks
/// out as soon as the partial exceeds the incumbent; since distances are
/// non-negative, a broken-off candidate's full sum can only be larger, so
/// the early exit never changes the winner. The parallel path therefore
/// computes every candidate's *full* sum concurrently (one candidate per
/// `par_map` index, member terms added in group order) and picks the first
/// strict minimum serially — the same argmin, for any worker count.
fn update_medoid<D: PairwiseDistance>(points: &D, group: &[usize], incumbent: usize) -> usize {
    let g = group.len();
    let mut best = incumbent;
    let mut best_cost = f64::INFINITY;
    if rayon::current_num_threads() > 1 && g * g >= PAR_MIN_DIST_EVALS {
        let sums = rayon::par_map(g, |i| {
            let cand = group[i];
            group
                .iter()
                .map(|&m| points.dist(cand, m) as f64)
                .sum::<f64>()
        });
        for (i, &s) in sums.iter().enumerate() {
            if s < best_cost {
                best_cost = s;
                best = group[i];
            }
        }
    } else {
        for &cand in group {
            let mut s = 0.0f64;
            for &m in group {
                s += points.dist(cand, m) as f64;
                if s >= best_cost {
                    break;
                }
            }
            if s < best_cost {
                best_cost = s;
                best = cand;
            }
        }
    }
    best
}

/// Assign every point to its nearest medoid; returns the total cost.
///
/// Points are processed in [`ASSIGN_BLOCK`]-row strips: one
/// [`PairwiseDistance::dist_block`] rectangle (`strip × k`, tiled kernel)
/// followed by per-point first-index strict-minimum scans over the medoids
/// in order — the same comparisons over bit-identical values as the old
/// one-`dist`-per-pair loop. Strips are independent, so they fan out over
/// the worker pool when the work warrants it; assignments and the cost sum
/// are then folded serially in point order, making the result bit-identical
/// to the serial loop at any thread or strip count.
fn assign<D: PairwiseDistance>(
    points: &D,
    medoids: &[usize],
    ids: &[usize],
    out: &mut [usize],
) -> f64 {
    let n = points.len();
    let k = medoids.len();
    let n_strips = n.div_ceil(ASSIGN_BLOCK);
    let strip = |s: usize, scratch: &mut Vec<f32>| -> Vec<(usize, f32)> {
        let lo = s * ASSIGN_BLOCK;
        let hi = (lo + ASSIGN_BLOCK).min(n);
        scratch.clear();
        scratch.resize((hi - lo) * k, 0.0);
        points.dist_block(&ids[lo..hi], medoids, scratch);
        (0..hi - lo)
            .map(|r| {
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for (c, &d) in scratch[r * k..(r + 1) * k].iter().enumerate() {
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                (best, best_d)
            })
            .collect()
    };
    let mut cost = 0.0f64;
    let mut slot = 0usize;
    if rayon::current_num_threads() > 1 && n.saturating_mul(k) >= PAR_MIN_DIST_EVALS {
        let results = rayon::par_map(n_strips, |s| strip(s, &mut Vec::new()));
        for (best, best_d) in results.into_iter().flatten() {
            out[slot] = best;
            slot += 1;
            cost += best_d as f64;
        }
    } else {
        let mut scratch = Vec::new();
        for s in 0..n_strips {
            for (best, best_d) in strip(s, &mut scratch) {
                out[slot] = best;
                slot += 1;
                cost += best_d as f64;
            }
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{CosinePoints, MatrixDistance};

    fn two_blobs() -> MatrixDistance {
        // points 0..3 near origin, 3..6 near 100
        let coords = [0.0f32, 1.0, 2.0, 100.0, 101.0, 102.0];
        let n = coords.len();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] = (coords[i] - coords[j]).abs();
            }
        }
        MatrixDistance::new(n, d)
    }

    #[test]
    fn separates_two_blobs() {
        let km = KMedoids::fit(&two_blobs(), 2, 42);
        assert_eq!(km.k(), 2);
        assert_eq!(km.assignments[0], km.assignments[1]);
        assert_eq!(km.assignments[1], km.assignments[2]);
        assert_eq!(km.assignments[3], km.assignments[4]);
        assert_eq!(km.assignments[4], km.assignments[5]);
        assert_ne!(km.assignments[0], km.assignments[3]);
        // Medoids are the blob centres (points 1 and 4).
        let mut ms = km.medoids.clone();
        ms.sort_unstable();
        assert_eq!(ms, vec![1, 4]);
        assert!((km.cost - 4.0).abs() < 1e-6);
    }

    #[test]
    fn medoids_are_members_of_their_cluster() {
        let km = KMedoids::fit(&two_blobs(), 2, 7);
        for (c, &m) in km.medoids.iter().enumerate() {
            assert_eq!(km.assignments[m], c);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = KMedoids::fit(&two_blobs(), 2, 5);
        let b = KMedoids::fit(&two_blobs(), 2, 5);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.medoids, b.medoids);
    }

    #[test]
    fn k_one_selects_global_medoid() {
        let km = KMedoids::fit(&two_blobs(), 1, 3);
        assert_eq!(km.k(), 1);
        assert!(km.assignments.iter().all(|&c| c == 0));
    }

    #[test]
    fn k_clamped_to_n() {
        let km = KMedoids::fit(&two_blobs(), 100, 3);
        assert_eq!(km.k(), 6);
        assert!(km.cost.abs() < 1e-9, "every point is its own medoid");
    }

    #[test]
    fn empty_input() {
        let zero = MatrixDistance::new(0, vec![]);
        let km = KMedoids::fit(&zero, 3, 1);
        assert!(km.assignments.is_empty());
        assert!(km.medoids.is_empty());
    }

    #[test]
    fn clusters_accessor_partitions_points() {
        let km = KMedoids::fit(&two_blobs(), 2, 11);
        let cs = km.clusters();
        let total: usize = cs.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn cosine_blobs() {
        let pts: Vec<Vec<f32>> = vec![
            vec![1.0, 0.0],
            vec![0.995, 0.0998],
            vec![0.0, 1.0],
            vec![0.0998, 0.995],
        ];
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let cp = CosinePoints::new(refs);
        let km = KMedoids::fit(&cp, 2, 19);
        assert_eq!(km.assignments[0], km.assignments[1]);
        assert_eq!(km.assignments[2], km.assignments[3]);
        assert_ne!(km.assignments[0], km.assignments[2]);
    }

    #[test]
    fn identical_points_do_not_loop_forever() {
        let d = MatrixDistance::new(4, vec![0.0; 16]);
        let km = KMedoids::fit(&d, 2, 1);
        assert_eq!(km.k(), 2);
        assert!(km.cost.abs() < 1e-12);
    }

    #[test]
    fn blocked_assign_matches_per_pair_oracle_bitwise() {
        // The strip/dist_block restructuring must not change a single bit:
        // compare against the historical one-dist-per-pair scan on a point
        // count that straddles ASSIGN_BLOCK (67 = 64 + 3 ragged rows).
        let mut state = 0x0A551u64;
        let pts: Vec<Vec<f32>> = (0..67)
            .map(|_| {
                let mut v: Vec<f32> = (0..21)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 - 0.5
                    })
                    .collect();
                let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
                v.iter_mut().for_each(|x| *x /= norm);
                v
            })
            .collect();
        let refs: Vec<&[f32]> = pts.iter().map(|p| p.as_slice()).collect();
        let cp = CosinePoints::new(refs);
        let n = cp.len();
        let medoids = vec![3usize, 17, 40, 41, 66];
        let ids: Vec<usize> = (0..n).collect();
        let mut got = vec![0usize; n];
        let got_cost = assign(&cp, &medoids, &ids, &mut got);
        let mut want = vec![0usize; n];
        let mut want_cost = 0.0f64;
        for (p, slot) in want.iter_mut().enumerate() {
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, &m) in medoids.iter().enumerate() {
                let d = cp.dist(p, m);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            *slot = best;
            want_cost += best_d as f64;
        }
        assert_eq!(got, want);
        assert_eq!(got_cost.to_bits(), want_cost.to_bits());
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // Sized so k = 3 pushes the medoid update over the parallel gate
        // (group² ≳ 2^14) and k = 40 pushes the assignment step over it
        // (n·k ≳ 2^14); both must match the single-thread run exactly.
        let mut state = 0xBEEFu64;
        let coords: Vec<f32> = (0..600)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) as f32 * 50.0
            })
            .collect();
        let n = coords.len();
        let mut d = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] = (coords[i] - coords[j]).abs();
            }
        }
        let m = MatrixDistance::new(n, d);
        for k in [3usize, 40] {
            rayon::set_num_threads(1);
            let serial = KMedoids::fit(&m, k, 9);
            rayon::set_num_threads(0);
            for t in [2usize, 4] {
                rayon::set_num_threads(t);
                let par = KMedoids::fit(&m, k, 9);
                rayon::set_num_threads(0);
                assert_eq!(par.assignments, serial.assignments, "k={k}, t={t}");
                assert_eq!(par.medoids, serial.medoids, "k={k}, t={t}");
                assert_eq!(par.cost.to_bits(), serial.cost.to_bits(), "k={k}, t={t}");
                assert_eq!(par.iterations, serial.iterations, "k={k}, t={t}");
            }
        }
    }
}
