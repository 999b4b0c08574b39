//! The statistics helpers, pinned against hand-checked values and against
//! figures from Python's `statistics` module on the same data.

use oddci_perfbench::stats::{
    grouped_quantile, highest_supported_tail, median, percentile, quartiles, relative_spread,
    FailureShare,
};
use oddci_perfbench::trace::{self_time_by_layer, Span};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(data, n=4) for each data set.
    let cases: [(&[f64], [f64; 3]); 4] = [
        (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
        (&[10.0, 20.0], [7.5, 15.0, 22.5]),
        (
            &[3.5, 1.25, 9.0, 4.0, 7.75, 2.0, 8.5, 6.0, 5.5, 0.5],
            [1.8125, 4.75, 7.9375],
        ),
    ];
    for (data, want) in cases {
        let got = quartiles(data).expect("two or more values");
        for (g, w) in got.iter().zip(want) {
            assert!(close(*g, w), "{data:?}: got {got:?}, want {want:?}");
        }
    }
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn relative_spread_is_iqr_over_median() {
    let s = relative_spread(&[1.0, 2.0, 3.0, 4.0]).expect("defined");
    assert!(close(s, (3.75 - 1.25) / 2.5));
    assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
}

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(500.0));
    assert_eq!(percentile(&v, 99.0), Some(990.0));
    assert_eq!(percentile(&v, 100.0), Some(1000.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = highest_supported_tail(&thousand).expect("supported");
    assert_eq!(
        (t.percentile, t.value, t.beyond, t.samples),
        (99.0, 990.0, 10, 1000)
    );

    // 999 samples: p99 is rank 990 with only 9 beyond, so p95 is reported.
    let t = highest_supported_tail(&thousand[..999]).expect("supported");
    assert_eq!(t.percentile, 95.0);
    assert!(t.beyond >= 10);

    // 100k samples support p99.9 (rank 99_900, 100 beyond) and p99.99
    // (rank 99_990, exactly 10 beyond).
    let many: Vec<f64> = (1..=100_000).map(f64::from).collect();
    assert_eq!(
        highest_supported_tail(&many).map(|t| t.percentile),
        Some(99.99)
    );

    // Fewer than 20 samples leave even the median unsupported.
    assert_eq!(highest_supported_tail(&thousand[..19]), None);
    assert_eq!(
        highest_supported_tail(&thousand[..20]).map(|t| t.percentile),
        Some(50.0)
    );
}

#[test]
fn failure_share_keeps_its_base() {
    let share = FailureShare {
        failed: 3,
        attempted: 400,
    };
    assert!(close(share.percent(), 0.75));
    assert_eq!(share.to_string(), "0.7500% (3 of 400)");
    let none = FailureShare {
        failed: 0,
        attempted: 0,
    };
    assert_eq!(none.percent(), 0.0);
}

#[test]
fn self_time_subtracts_child_spans() {
    let span = |name, layer, start_ns, end_ns, parent| Span {
        name,
        layer,
        start_ns,
        end_ns,
        parent,
        job: 0,
    };
    // bench [0, 100] holds live [10, 60], which holds core [20, 30];
    // then workload [70, 90].
    let spans = [
        span("rep", "bench", 0, 100, None),
        span("call", "live", 10, 60, Some(0)),
        span("inner", "core", 20, 30, Some(1)),
        span("ref", "workload", 70, 90, Some(0)),
    ];
    let by_layer = self_time_by_layer(&spans);
    assert!(close(by_layer["bench"], 30e-9));
    assert!(close(by_layer["live"], 40e-9));
    assert!(close(by_layer["core"], 10e-9));
    assert!(close(by_layer["workload"], 20e-9));
}

#[test]
fn grouped_quantile_spreads_each_sample_over_its_unit() {
    assert_eq!(grouped_quantile(&[], 0.5), None);
    // Four tied samples cover [1, 2): the median is halfway through.
    assert!(close(grouped_quantile(&[1, 1, 1, 1], 0.5).unwrap(), 1.5));
    // One sample per unit over [0, 4): quantiles are plain fractions.
    assert!(close(grouped_quantile(&[3, 0, 2, 1], 0.5).unwrap(), 2.0));
    assert!(close(grouped_quantile(&[3, 0, 2, 1], 0.25).unwrap(), 1.0));
    // 99 fast samples and one slow one: p99 ends the fast group.
    let mut tail = vec![16u64; 99];
    tail.push(2000);
    assert!(close(grouped_quantile(&tail, 0.99).unwrap(), 17.0));
    assert!(close(grouped_quantile(&tail, 0.995).unwrap(), 2000.5));
    assert!(close(grouped_quantile(&[5, 7], 0.0).unwrap(), 5.0));
    assert!(close(grouped_quantile(&[5, 7], 1.0).unwrap(), 8.0));
}
