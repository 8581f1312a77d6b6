//! Self-tests of the benchmark's own code: order statistics, the metric
//! catalogue against `BENCHMARK.json`, and seeded input generation.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use mrinv_matrix::Matrix;
use perfbench::inputs;
use perfbench::metrics::{
    valid_name, valid_unit, Better, MetricDef, Values, END_TO_END, PER_LAYER,
};
use perfbench::stats::{median, tail, TAIL_BEYOND};
use perfbench::workloads::{Kind, WORKLOADS};
use serde_json::Value;

fn bytes_of(m: &Matrix) -> Vec<u8> {
    m.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn tail_needs_more_than_ten_samples() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(tail(&ten), None);
    let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
    let t = tail(&eleven).unwrap();
    assert_eq!((t.percentile, t.value, t.samples), (9, 1.0, 11));
}

#[test]
fn tail_of_round_sample_counts() {
    let fifty: Vec<f64> = (1..=50).rev().map(f64::from).collect();
    let t = tail(&fifty).unwrap();
    assert_eq!((t.percentile, t.value, t.samples), (80, 40.0, 50));
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&hundred).unwrap();
    assert_eq!((t.percentile, t.value, t.samples), (90, 90.0, 100));
}

#[test]
fn tail_is_the_highest_percentile_with_ten_beyond() {
    for n in TAIL_BEYOND + 1..400 {
        let xs: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let t = tail(&xs).unwrap();
        let beyond = xs.iter().filter(|&&x| x > t.value).count();
        assert!(
            beyond >= TAIL_BEYOND,
            "n={n}: {beyond} beyond p{}",
            t.percentile
        );
        // One percentile higher would leave fewer than ten beyond.
        let next_rank = ((t.percentile as usize + 1) * n).div_ceil(100);
        assert!(
            n - next_rank < TAIL_BEYOND,
            "n={n}: p{} is not the highest",
            t.percentile
        );
    }
}

#[test]
fn metric_names_and_units_follow_the_grammar() {
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "bad name {}", d.name);
        assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
        assert!(seen.insert(d.name), "duplicate metric {}", d.name);
    }
    for w in WORKLOADS {
        assert!(valid_name(w.name), "bad workload name {}", w.name);
    }
    for bad in ["", "a b", ".lead", "-lead", "x/y", "é", &"a".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
    assert!(valid_name(&"a".repeat(64)));
    assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"s".repeat(17)));
}

#[test]
fn end_to_end_directions() {
    let better = |name: &str| END_TO_END.iter().find(|d| d.name == name).unwrap().better;
    assert_eq!(better("ops_per_s"), Better::Higher);
    for name in ["invert_s", "request_p50_ms", "setup_s", "peak_rss_mb"] {
        assert_eq!(better(name), Better::Lower, "{name}");
    }
    assert_eq!(
        END_TO_END.len(),
        5,
        "a new end-to-end metric needs a direction test"
    );
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
}

fn check_list(json: &Value, key: &str, defs: &[MetricDef]) {
    let list = json.get(key).and_then(Value::as_array).expect(key);
    let names: Vec<&str> = list
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap())
        .collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, want, "{key} names differ from the catalogue");
    for (m, d) in list.iter().zip(defs) {
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(d.unit),
            "{}",
            d.name
        );
        assert_eq!(
            m.get("better").and_then(Value::as_str),
            Some(d.better.as_str()),
            "{}",
            d.name
        );
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let json = benchmark_json();
    check_list(&json, "end_to_end", END_TO_END);
    check_list(&json, "per_layer", PER_LAYER);
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").unwrap().as_str().unwrap())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);
    let setup = json
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("bound").unwrap().as_f64().unwrap());
    let bounds: Vec<f64> = setup.collect();
    let setup_bound = bounds[END_TO_END.iter().position(|d| d.name == "setup_s").unwrap()];
    assert!(bounds
        .iter()
        .all(|&b| b > 0.0 && b <= setup_bound && b <= 0.25));
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut v = Values::default();
    for (i, d) in END_TO_END.iter().enumerate() {
        v.set(d.name, 0.5 + i as f64);
    }
    let line = v.result_line(END_TO_END, true, 3, 0).unwrap();
    let json = serde_json::parse_value(&line).unwrap();
    let Value::Object(fields) = &json else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let invert = json.get("metrics").and_then(|m| m.get("invert_s")).unwrap();
    assert_eq!(invert.get("value").and_then(Value::as_f64), Some(0.5));
    assert_eq!(invert.get("unit").and_then(Value::as_str), Some("s"));
    // A missing or non-finite metric is an error, never a silent gap.
    let mut partial = Values::default();
    partial.set("invert_s", f64::NAN);
    assert!(partial.result_line(END_TO_END, true, 1, 0).is_err());
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for w in WORKLOADS {
        let n = match w.kind {
            Kind::Invert(s) => s.n,
            Kind::Serve(s) => s.n,
        };
        let a = bytes_of(&inputs::matrix(n, 7, w.name, 0));
        assert_eq!(a, bytes_of(&inputs::matrix(n, 7, w.name, 0)), "{}", w.name);
        assert_ne!(a, bytes_of(&inputs::matrix(n, 8, w.name, 0)), "{}", w.name);
        assert_ne!(a, bytes_of(&inputs::matrix(n, 7, w.name, 1)), "{}", w.name);
        assert_eq!(
            inputs::rhs(n, 7, "warm-rhs", 3),
            inputs::rhs(n, 7, "warm-rhs", 3)
        );
        assert_ne!(
            inputs::rhs(n, 7, "warm-rhs", 3),
            inputs::rhs(n, 7, "warm-rhs", 4)
        );
    }
}

#[test]
fn part_lines_round_trip_exactly() {
    use perfbench::workloads::{Outcome, Sample};
    let out = Outcome {
        attempted: 7,
        failed: 1,
        sample: Sample {
            setup: 0.1 + 0.2,
            rss_mb: 324.84765625,
            rate: 1.0 / 3.0,
            invert: vec![2.471220055, 1e-7, 12345.678901234567],
            request: Vec::new(),
            reference: vec![0.023, 0.0251],
        },
        ..Outcome::default()
    };
    let back = Outcome::parse_part(&out.part_line()).unwrap();
    assert_eq!((back.attempted, back.failed), (7, 1));
    assert_eq!(back.sample, out.sample);
    assert!(Outcome::parse_part("something else").is_err());
    assert!(Outcome::parse_part("perfbench-part bogus=1").is_err());
}

#[test]
fn pooling_scales_each_process_by_its_references_and_takes_medians() {
    use perfbench::calib::NOMINAL_SECS;
    use perfbench::workloads::{pool, Sample};
    let part = |setup: f64, rate: f64, invert: &[f64], reference: Vec<f64>| Sample {
        setup,
        rss_mb: setup * 100.0,
        rate,
        invert: invert.to_vec(),
        request: invert.to_vec(),
        reference,
    };
    // Process 1 ran at nominal speed; process 2's references average
    // twice the nominal (the trim drops one at each end of ten), so its
    // host ran at half speed and its times halve; process 3 has too few
    // references to trim and averages the nominal.
    let n = NOMINAL_SECS;
    let slow = vec![2.0 * n; 8]
        .into_iter()
        .chain([200.0 * n, 0.1 * n])
        .collect();
    let samples = [
        part(1.0, 2.0, &[5.0, 1.0], vec![n, n]),
        part(3.0, 2.0, &[4.0], slow),
        part(2.0, 6.0, &[4.0, 3.0], vec![0.5 * n, 1.5 * n]),
    ];
    let mut v = Values::default();
    let lines = pool(&samples, &mut v);
    let close = |name: &str, want: f64| {
        let got = v.get(name).unwrap();
        assert!((got - want).abs() < 1e-9 * want, "{name}: {got} != {want}");
    };
    close("invert_s", 3.0);
    close("request_p50_ms", 3000.0);
    close("ops_per_s", 4.0);
    close("setup_s", 2.0);
    close("peak_rss_mb", 200.0);
    assert!(lines[0].starts_with("3 child processes"));
}
