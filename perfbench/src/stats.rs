//! Sample sets, histograms and the few statistics the benchmark reports.

/// A small set of measured values (builds, cycles, set-ups: their number
/// is bounded by the run's time, not by the program's speed).
#[derive(Default, Clone, Debug)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), interpolated between order
    /// statistics; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Smallest value a histogram tells apart from zero.
const HIST_MIN: f64 = 1e-3;
/// Buckets per factor e: neighbouring bucket bounds differ by 0.5%.
const HIST_PER_E: f64 = 200.0;
/// Buckets: 1e-3 up to about 1e9, the rest is clamped into the last.
const HIST_BUCKETS: usize = 5600;

/// Log-bucketed histogram of non-negative values (failures are pushed as
/// infinity and rank above every finite value). Its size is fixed, so the
/// benchmark's own memory does not grow with the number of steps a fast
/// program makes. Quantiles interpolate within a bucket.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u32>,
    infinite: u64,
    n: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; HIST_BUCKETS],
            infinite: 0,
            n: 0,
        }
    }
}

fn bucket(v: f64) -> usize {
    if v <= HIST_MIN {
        0
    } else {
        (((v / HIST_MIN).ln() * HIST_PER_E) as usize + 1).min(HIST_BUCKETS - 1)
    }
}

fn bucket_bounds(b: usize) -> (f64, f64) {
    if b == 0 {
        (0.0, HIST_MIN)
    } else {
        let at = |k: usize| HIST_MIN * (k as f64 / HIST_PER_E).exp();
        (at(b - 1), at(b))
    }
}

impl Hist {
    pub fn push(&mut self, v: f64) {
        self.n += 1;
        if v.is_finite() {
            self.counts[bucket(v)] += 1;
        } else {
            self.infinite += 1;
        }
    }

    pub fn merge(&mut self, o: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.infinite += o.infinite;
        self.n += o.n;
    }

    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// The `q`-quantile; NaN when empty, infinity when it falls among the
    /// failures.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut below = 0.0;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = c as f64;
            if c > 0.0 && rank < below + c {
                let (lo, hi) = bucket_bounds(b);
                return lo + (hi - lo) * (rank - below + 0.5) / c;
            }
            below += c;
        }
        f64::INFINITY
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Quantile summaries of a latency stream, one per measured stretch (a
/// serving slice or a churn round), reported as their median: the host's
/// speed changes in episodes of seconds, so a stretch taken during one
/// moves the figure by one summary, not by the whole run.
#[derive(Default, Clone, Debug)]
pub struct Summaries {
    /// One series per summarised quantile.
    per_q: Vec<Samples>,
}

impl Summaries {
    /// Summarise one stretch's histogram at the quantiles `qs` (an empty
    /// stretch is skipped).
    pub fn add(&mut self, stretch: &Hist, qs: &[f64]) {
        if self.per_q.len() < qs.len() {
            self.per_q.resize(qs.len(), Samples::default());
        }
        if stretch.len() > 0 {
            for (i, &q) in qs.iter().enumerate() {
                self.per_q[i].push(stretch.quantile(q));
            }
        }
    }

    /// Median over stretches of the `i`-th quantile.
    pub fn median(&self, i: usize) -> f64 {
        self.per_q.get(i).map_or(f64::NAN, Samples::median)
    }
}

/// Deterministic splitmix64 stream: the benchmark's own randomness, a
/// pure function of the seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_BE4C_4A11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (0 when `n` is 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [-1, 1).
    pub fn signed(&mut self) -> f32 {
        (self.unit() * 2.0 - 1.0) as f32
    }
}

/// Zipf(s = 1) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Median of the element-wise differences `a[i] - b[i]`.
pub fn median_difference(a: &Samples, b: &Samples) -> f64 {
    let mut d = Samples::default();
    for (x, y) in a.0.iter().zip(&b.0) {
        d.push(x - y);
    }
    d.median()
}
