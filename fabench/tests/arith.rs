//! The benchmark's own arithmetic: percentile reporting rule, fraction
//! bases and span self time.

use fa_perfbench::stats::{
    beyond, figures, frac, median, overhead_pct, percentile, rank, rate, Block, Histogram,
    Latencies, MIN_BEYOND,
};
use fa_perfbench::trace::{self_times, totals, union_ns, Span, Tracer};

fn sorted(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn nearest_rank_is_the_smallest_rank_covering_the_quantile() {
    assert_eq!(rank(100, 0.5), 50);
    assert_eq!(rank(101, 0.5), 51);
    assert_eq!(rank(1000, 0.99), 990);
    assert_eq!(rank(1, 0.99), 1);
    assert_eq!(rank(10, 1.0), 10);
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    // p99 of 1000 samples has exactly 10 beyond it: reportable.
    assert_eq!(beyond(1000, 0.99), 10);
    assert_eq!(percentile(&sorted(1000), 0.99), Some(990.0));
    // One sample fewer leaves 9 beyond it: not reportable.
    assert_eq!(beyond(999, 0.99), 9);
    assert_eq!(percentile(&sorted(999), 0.99), None);
    // A median needs 20 samples for 10 to lie beyond it.
    assert_eq!(percentile(&sorted(20), 0.5), Some(10.0));
    assert_eq!(percentile(&sorted(19), 0.5), None);
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(MIN_BEYOND, 10);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn fractions_use_their_stated_base() {
    // repeat_failure_frac: failed later triggers over later triggers.
    assert_eq!(frac(1, 216), Some(1.0 / 216.0));
    assert_eq!(frac(0, 216), Some(0.0));
    // No base, no value — never a silent 0.
    assert_eq!(frac(0, 0), None);
    // Rates and overheads reject an empty base too.
    assert_eq!(rate(10, 2.0), Some(5.0));
    assert_eq!(rate(10, 0.0), None);
    assert_eq!(overhead_pct(110.0, 100.0).map(|p| p.round()), Some(10.0));
    assert_eq!(overhead_pct(1.0, 0.0), None);
}

#[test]
#[should_panic(expected = "exceeds its base")]
fn a_fraction_part_cannot_exceed_its_base() {
    let _ = frac(3, 2);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn union_merges_overlaps_and_ignores_empty_intervals() {
    assert_eq!(union_ns(&mut []), 0);
    assert_eq!(union_ns(&mut [(0, 10), (5, 15)]), 15);
    assert_eq!(union_ns(&mut [(20, 30), (0, 10)]), 20);
    assert_eq!(union_ns(&mut [(0, 10), (10, 20)]), 20);
    assert_eq!(union_ns(&mut [(0, 10), (2, 3), (5, 5)]), 10);
}

#[test]
fn self_time_is_the_span_minus_the_union_of_its_children() {
    let spans = vec![
        span("feed", 0, 100, None),
        // Two overlapping children (work on two threads) cover 10..50.
        span("handle", 10, 40, Some(0)),
        span("handle", 30, 50, Some(0)),
        // A grandchild does not count against the feed directly.
        span("malloc", 12, 20, Some(1)),
        // A child running past its parent is clipped to the parent.
        span("checkpoint", 90, 120, Some(0)),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[0], 100 - 40 - 10);
    assert_eq!(selfs[1], 30 - 8);
    assert_eq!(selfs[2], 20);
    assert_eq!(selfs[3], 8);
    assert_eq!(selfs[4], 30);
    let t = totals(&spans);
    assert_eq!(t["handle"].count, 2);
    assert_eq!(t["handle"].total_ns, 50);
    assert_eq!(t["handle"].self_ns, 42);
    assert_eq!(t["feed"].mean_self_ns(), Some(50.0));
}

#[test]
fn tracer_nests_spans_and_discards_empty_calls() {
    let mut tr = Tracer::new();
    tr.set_request(7);
    let feed = tr.begin("feed");
    let handle = tr.begin("handle");
    tr.end(handle);
    let poll = tr.begin("checkpoint");
    tr.discard(poll);
    tr.end(feed);
    let spans = tr.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans
        .iter()
        .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
    let mut out = Vec::new();
    tr.write_tsv(&mut out, usize::MAX)
        .expect("writing to a Vec cannot fail");
    let text = String::from_utf8(out).expect("the TSV is UTF-8");
    assert_eq!(text.lines().count(), 3);
    assert!(text
        .lines()
        .nth(2)
        .is_some_and(|l| l.starts_with("1\thandle\t")));
    let mut head = Vec::new();
    tr.write_tsv(&mut head, 1)
        .expect("writing to a Vec cannot fail");
    assert_eq!(String::from_utf8(head).expect("UTF-8").lines().count(), 2);
}

#[test]
#[should_panic(expected = "innermost-first")]
fn closing_an_outer_span_first_is_a_bug() {
    let mut tr = Tracer::new();
    let outer = tr.begin("outer");
    let _inner = tr.begin("inner");
    tr.end(outer);
}

#[test]
fn histogram_percentiles_follow_the_same_rule_within_bucket_precision() {
    let mut h = Histogram::new();
    assert!(h.is_empty());
    for i in 1..=1000 {
        h.record(i as f64 * 100.0);
    }
    assert_eq!(h.len(), 1000);
    // The true p99 is 99,000; a bucket is 0.5% wide.
    let p99 = h.percentile(0.99).expect("10 samples lie beyond it");
    assert!((p99 / 99_000.0 - 1.0).abs() < 0.005, "p99 {p99}");
    let p50 = h.percentile(0.5).expect("500 samples lie beyond it");
    assert!((p50 / 50_000.0 - 1.0).abs() < 0.005, "p50 {p50}");
    // One sample fewer leaves 9 beyond the p99: not reportable.
    let mut short = Histogram::new();
    for i in 1..=999 {
        short.record(i as f64);
    }
    assert_eq!(short.percentile(0.99), None);
    assert_eq!(Histogram::new().percentile(0.5), None);
}

#[test]
fn a_block_reports_its_own_percentiles_and_the_run_keeps_every_sample() {
    let mut lat = Latencies::new();
    // 100 samples: p50 and p90 each have at least 10 beyond them.
    for v in (1..=100).rev() {
        lat.record(v as f64);
    }
    assert_eq!(lat.end_block(), [Some(50.0), Some(90.0)]);
    // The next block starts empty: 19 samples leave 9 beyond a median.
    for v in 1..=19 {
        lat.record(1_000.0 * v as f64);
    }
    assert_eq!(lat.end_block(), [None, None]);
    assert_eq!(lat.end_block(), [None, None]);
    // The run's histogram holds both blocks.
    assert_eq!(lat.run().len(), 119);
}

fn block(unit: usize, inputs: u64, seconds: f64, pcts_ns: [Option<f64>; 2], host: f64) -> Block {
    Block {
        unit,
        inputs,
        seconds,
        pcts_ns,
        host,
    }
}

fn close(a: Option<f64>, b: f64) -> bool {
    a.is_some_and(|a| (a - b).abs() < 1e-9 * b.abs().max(1.0))
}

#[test]
fn block_figures_correct_for_the_host_and_weigh_units_alike() {
    let blocks = [
        // Unit 0, twice: the second ran on a host at half speed, so its
        // times halve. Both are 1 ms per input, p50 10 ns, p90 40 ns.
        block(0, 1_000, 1.0, [Some(10.0), Some(40.0)], 1.0),
        block(0, 1_000, 2.0, [Some(20.0), Some(80.0)], 0.5),
        // Unit 1, once: 1/3 ms per input, p50 30 ns, p90 60 ns.
        block(1, 3_000, 1.0, [Some(30.0), Some(60.0)], 1.0),
    ];
    let (f, problems) = figures(&blocks);
    assert!(problems.is_empty(), "{problems:?}");
    // 4,000 inputs over 1,000 × 1 ms + 3,000 × 1/3 ms = 2 s.
    assert!(close(f.inputs_per_s, 2_000.0), "{f:?}");
    // Medians over the two units.
    assert!(close(f.pcts_ns[0], 20.0), "{f:?}");
    assert!(close(f.pcts_ns[1], 50.0), "{f:?}");
    assert_eq!((f.blocks, f.inputs), (3, 5_000));
    // A unit repeated more often does not weigh more.
    let mut more = blocks.to_vec();
    more.push(block(0, 1_000, 1.0, [Some(10.0), Some(40.0)], 1.0));
    assert_eq!(figures(&more).0.inputs_per_s, f.inputs_per_s);
}

#[test]
fn block_figures_report_what_they_cannot_form() {
    let blocks = [
        block(0, 1_000, 1.0, [Some(10.0), None], 1.0),
        block(1, 1_000, 1.0, [Some(10.0), Some(20.0)], 1.0),
        block(1, 999, 1.0, [Some(10.0), Some(20.0)], 1.0),
    ];
    let (f, problems) = figures(&blocks);
    assert_eq!(
        problems,
        [
            format!("unit 0: a block had fewer than {MIN_BEYOND} samples beyond its p90"),
            "unit 1: its blocks did different work".to_owned(),
            "no figures from 3 timed blocks".to_owned(),
        ]
    );
    assert_eq!(f.pcts_ns[1], None);
    let (none, problems) = figures(&[]);
    assert_eq!(none.inputs_per_s, None);
    assert_eq!(problems, ["no figures from 0 timed blocks"]);
}
