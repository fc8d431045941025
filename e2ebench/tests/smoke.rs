//! Smoke-scale self-tests of the benchmark: every workload runs the same
//! code paths at small sizes, prints each of its metrics with its unit, and
//! counts a corrupted output as a failed op.

use mergepath_e2ebench::layers::{NET_LAYER, SERVE_LAYER, SORT_LAYER};
use mergepath_e2ebench::{run, Opts, Report, Scale, Workload};

/// The end-to-end metrics every workload prints, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("elems_per_s", "elem/s"),
    ("rps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every workload's traced run prints, with their
/// units, layer by layer.
const PER_LAYER: [&[(&str, &str)]; 7] = [
    &[
        ("diagonal.search_ns", "ns"),
        ("diagonal.searches_per_op", "count"),
    ],
    &[
        ("kernel.ns_per_elem", "ns"),
        ("kernel.seq_ns_per_elem", "ns"),
        ("kernel.share.classic", "fraction"),
        ("kernel.share.branch_lean", "fraction"),
        ("kernel.share.galloping", "fraction"),
        ("kernel.share.simd", "fraction"),
        ("kernel.share.co_rank", "fraction"),
    ],
    &SORT_LAYER,
    &[
        ("executor.round_ns", "ns"),
        ("executor.share_skew", "ratio"),
        ("executor.steals_per_op", "count"),
        ("executor.stolen_shares_per_op", "count"),
    ],
    &SERVE_LAYER,
    &NET_LAYER,
    &[("trace.residual_pct", "%"), ("trace.overhead_pct", "%")],
];

fn per_layer() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().flat_map(|l| l.iter().copied()).collect()
}

/// The layers each workload's ops never call into, whose metrics its
/// traced run prints as 0.
fn not_on_path(w: Workload) -> Vec<&'static str> {
    let layers: &[&[(&str, &str)]] = match w {
        Workload::MergeLarge => &[&SORT_LAYER, &SERVE_LAYER, &NET_LAYER],
        Workload::SortKeyed => &[&SERVE_LAYER, &NET_LAYER],
        Workload::TcpSmall => &[&SORT_LAYER],
        Workload::TcpMixed => &[],
    };
    layers.iter().flat_map(|l| l.iter().map(|m| m.0)).collect()
}

fn smoke(workload: Workload, trace: bool, corrupt: bool) -> Report {
    run(&Opts {
        workload,
        seed: 3,
        seconds: 0.2,
        trace,
        scale: Scale::smoke(),
        corrupt,
        exe: env!("CARGO_BIN_EXE_mergepath-e2ebench").into(),
    })
}

/// Asserts that `r` prints exactly `want`, each with its unit.
fn assert_prints(r: &Report, want: &[(&str, &str)], what: &str) {
    let line = r.result_json();
    for (name, unit) in want {
        let m = r
            .get(name)
            .unwrap_or_else(|| panic!("{what}: {name} not measured"));
        assert_eq!(m.unit, *unit, "{what}: unit of {name}");
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{what}: {name} not printed in {line}"
        );
        assert!(
            line.contains(&format!("\"unit\": \"{unit}\"")),
            "{what}: unit {unit} not printed"
        );
    }
    assert_eq!(
        r.metrics.len(),
        want.len(),
        "{what}: unexpected metrics in {line}"
    );
}

fn check_workload(w: Workload) {
    let r = smoke(w, false, false);
    assert!(r.correct(), "{}: {}", w.name(), r.result_json());
    assert!(r.attempted > 0);
    assert_prints(&r, &END_TO_END, w.name());
    assert!(r.not_on_path.is_empty());

    let r = smoke(w, true, false);
    assert!(r.correct(), "{} traced: {}", w.name(), r.result_json());
    assert_prints(&r, &per_layer(), &format!("{} traced", w.name()));
    assert_eq!(r.not_on_path, not_on_path(w), "{} traced", w.name());
    for name in &r.not_on_path {
        assert_eq!(r.get(name).unwrap().value, 0.0, "{name}");
    }

    let r = smoke(w, false, true);
    assert_eq!(
        r.failed,
        1,
        "{}: the corrupted output is one failed op",
        w.name()
    );
    assert!(!r.correct());
    assert!(r
        .result_json()
        .starts_with("{\"correct\": false, \"attempted\": "));
}

#[test]
fn merge_large_smoke() {
    check_workload(Workload::MergeLarge);
}

#[test]
fn sort_keyed_smoke() {
    check_workload(Workload::SortKeyed);
}

#[test]
fn tcp_small_smoke() {
    check_workload(Workload::TcpSmall);
}

#[test]
fn tcp_mixed_smoke() {
    check_workload(Workload::TcpMixed);
}

/// `BENCHMARK.json` declares exactly the metrics every workload prints, each
/// with the same unit and in its section, and names every workload.
#[test]
fn benchmark_json_declares_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let e2e_at = json.find("\"end_to_end\"").expect("end_to_end section");
    let per_layer_at = json.find("\"per_layer\"").expect("per_layer section");
    assert!(e2e_at < per_layer_at, "end_to_end comes before per_layer");
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
    let sections = [
        (END_TO_END.to_vec(), &json[e2e_at..per_layer_at]),
        (per_layer(), &json[per_layer_at..]),
    ];
    for (set, section) in sections {
        for (name, unit) in &set {
            let decl = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(
                section.contains(&decl),
                "{name} ({unit}) not declared in its section"
            );
        }
        assert_eq!(
            section.matches("{\"name\": ").count(),
            set.len(),
            "a declared metric is not printed"
        );
    }
}
