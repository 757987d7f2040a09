//! Summary statistics for the benchmark's samples.
//!
//! A tail percentile is only worth reporting when enough samples lie
//! beyond it to pin it down: with fewer than [`MIN_BEYOND`] samples past
//! its rank, one outlier moves it. [`percentile`] therefore returns
//! `None` rather than a number resting on a handful of samples.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of quantile `q` (0 < q ≤ 1) among `n`
/// samples: the smallest rank `r` with `r / n >= q`.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    // Subtracting a hair before `ceil` keeps exact products such as
    // 0.99 * 1000 = 990.0000000000001 at their intended rank.
    let r = (q * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Samples that lie strictly beyond quantile `q`'s rank.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// Nearest-rank percentile `q` of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "unsorted");
    if sorted.is_empty() || beyond(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Median of `values` (mean of the middle two for an even count).
/// Unlike a tail percentile a median needs no samples beyond it; it is
/// used for run-level figures measured a few times per run, such as
/// set-up time.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Arithmetic mean of `values`, or `None` for none.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// `part / base`, or `None` when the base is empty — a fraction with no
/// base has no value, and reporting 0 would read as "never".
pub fn frac(part: u64, base: u64) -> Option<f64> {
    assert!(part <= base, "fraction part {part} exceeds its base {base}");
    (base > 0).then(|| part as f64 / base as f64)
}

/// Rate of `count` events over `seconds`, or `None` for an empty span.
pub fn rate(count: u64, seconds: f64) -> Option<f64> {
    (seconds > 0.0).then(|| count as f64 / seconds)
}

/// Percent by which `value` exceeds `reference` (`None` for a zero
/// reference).
pub fn overhead_pct(value: f64, reference: f64) -> Option<f64> {
    (reference > 0.0).then(|| (value / reference - 1.0) * 100.0)
}

/// One timed block of a run: a repeat, a round or a sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// The work the block repeats: blocks of one unit feed identical
    /// inputs.
    pub unit: usize,
    /// Inputs completed in the block.
    pub inputs: u64,
    /// Wall seconds the block's timed loop took.
    pub seconds: f64,
    /// The block's p50 and p90 latency in ns (see
    /// [`Latencies::end_block`]).
    pub pcts_ns: [Option<f64>; 2],
    /// The factor the block's times are multiplied by to correct for
    /// the host's speed (1 for none).
    pub host: f64,
}

/// What [`figures`] makes of a run's timed blocks.
#[derive(Debug, PartialEq)]
pub struct Figures {
    /// Inputs per second.
    pub inputs_per_s: Option<f64>,
    /// p50 and p90 latency in ns.
    pub pcts_ns: [Option<f64>; 2],
    /// Blocks behind the figures.
    pub blocks: u64,
    /// Inputs of those blocks.
    pub inputs: u64,
}

/// Throughput and latency of `blocks` (repeats, rounds or sweeps of one
/// run), corrected for the host's speed: each block's times are
/// multiplied by its `host` factor. Blocks with the same `unit` repeat
/// identical work. For each unit, its seconds per input, p50 and p90
/// are the means over its blocks; throughput is then all units' inputs
/// over their summed seconds, and each percentile the median over the
/// units, so every unit weighs the same however many times a run
/// repeats it. Also returns every problem that kept a figure from being
/// formed: a block percentile with too few samples beyond it, blocks of
/// one unit that did different amounts of work, or no blocks.
pub fn figures(blocks: &[Block]) -> (Figures, Vec<String>) {
    let mut units: std::collections::BTreeMap<usize, Vec<&Block>> = Default::default();
    for b in blocks {
        units.entry(b.unit).or_default().push(b);
    }
    let mut problems = Vec::new();
    let (mut inputs, mut seconds) = (0u64, 0.0f64);
    let mut pcts: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (unit, bs) in &units {
        let n = bs[0].inputs;
        if bs.iter().any(|b| b.inputs != n) {
            problems.push(format!("unit {unit}: its blocks did different work"));
            continue;
        }
        let spi: Vec<f64> = bs
            .iter()
            .filter_map(|b| rate(b.inputs, b.seconds * b.host))
            .map(|r| 1.0 / r)
            .collect();
        if let Some(s) = mean(&spi) {
            inputs += n;
            seconds += n as f64 * s;
        }
        for (i, out) in pcts.iter_mut().enumerate() {
            let v: Vec<f64> = bs
                .iter()
                .filter_map(|b| b.pcts_ns[i].map(|ns| ns * b.host))
                .collect();
            if v.len() < bs.len() {
                problems.push(format!(
                    "unit {unit}: a block had fewer than {MIN_BEYOND} samples beyond its p{}",
                    [50, 90][i]
                ));
            }
            out.extend(mean(&v));
        }
    }
    let f = Figures {
        inputs_per_s: rate(inputs, seconds),
        pcts_ns: [median(&pcts[0]), median(&pcts[1])],
        blocks: blocks.len() as u64,
        inputs: blocks.iter().map(|b| b.inputs).sum(),
    };
    if f.inputs_per_s.is_none() || f.pcts_ns.iter().any(Option::is_none) {
        problems.push(format!("no figures from {} timed blocks", blocks.len()));
    }
    (f, problems)
}

/// Relative width of a [`Histogram`] bucket: values within 0.5% of
/// each other share a bucket.
const BUCKET_GROWTH: f64 = 1.005;
/// Buckets of a [`Histogram`]: covers 1 ns to beyond 100 s.
const BUCKETS: usize = 5_200;

/// A log-bucketed latency histogram of fixed size, so recording
/// millions of samples costs the benchmark no memory that would show in
/// the process's peak resident set. Percentiles come back as the
/// geometric middle of their bucket, within 0.25% of the sample.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    len: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            len: 0,
        }
    }

    fn bucket(value: f64) -> usize {
        if value < 1.0 {
            return 0;
        }
        let i = (value.ln() / BUCKET_GROWTH.ln()).floor() as usize + 1;
        i.min(BUCKETS - 1)
    }

    fn bucket_value(i: usize) -> f64 {
        if i == 0 {
            return 0.5;
        }
        BUCKET_GROWTH.powf(i as f64 - 0.5)
    }

    /// Records one sample (a non-negative value, e.g. ns).
    pub fn record(&mut self, value: f64) {
        self.counts[Self::bucket(value)] += 1;
        self.len += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Nearest-rank percentile `q`, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it (the rule [`percentile`]
    /// applies).
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.len as usize;
        if n == 0 || beyond(n, q) < MIN_BEYOND {
            return None;
        }
        let r = rank(n, q) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= r {
                return Some(Self::bucket_value(i));
            }
        }
        unreachable!("the counts sum to len")
    }
}

/// Latencies of the block being timed and of the whole run: each block
/// keeps its own samples for its exact percentiles, and the run keeps a
/// [`Histogram`] of every sample for its far tail.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    run: Histogram,
    block: Vec<f64>,
}

impl Latencies {
    /// No samples yet.
    pub fn new() -> Latencies {
        Latencies::default()
    }

    /// Records one sample (ns) of the current block.
    pub fn record(&mut self, ns: f64) {
        self.run.record(ns);
        self.block.push(ns);
    }

    /// Ends the current block and returns its `[p50, p90]`, each `None`
    /// when fewer than [`MIN_BEYOND`] of its samples lie beyond it.
    pub fn end_block(&mut self) -> [Option<f64>; 2] {
        self.block.sort_by(f64::total_cmp);
        let out = [percentile(&self.block, 0.5), percentile(&self.block, 0.9)];
        self.block.clear();
        out
    }

    /// Every sample of the run.
    pub fn run(&self) -> &Histogram {
        &self.run
    }
}
