//! `BENCHMARK.json` at the repository root must list exactly what the
//! benchmark prints.

use saguaro_benchmark::cli::RUN_SECONDS;
use saguaro_benchmark::report::{per_layer_registry, END_TO_END};
use saguaro_benchmark::workloads::Workload;
use saguaro_sim::JsonValue;

fn field<'a>(value: &'a JsonValue, key: &str) -> &'a JsonValue {
    let JsonValue::Object(entries) = value else {
        panic!("not an object: {value:?}")
    };
    &entries
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no key {key}"))
        .1
}

fn text(value: &JsonValue) -> &str {
    let JsonValue::Str(s) = value else {
        panic!("not a string: {value:?}")
    };
    s
}

fn items(value: &JsonValue) -> &[JsonValue] {
    let JsonValue::Array(items) = value else {
        panic!("not an array: {value:?}")
    };
    items
}

#[test]
fn benchmark_json_matches_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let raw = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
    assert!(raw.len() <= 64 * 1024);
    let doc = JsonValue::parse(&raw).expect("BENCHMARK.json is valid JSON");
    let JsonValue::Object(entries) = &doc else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    assert_eq!(
        field(&doc, "run_seconds"),
        &JsonValue::Num(RUN_SECONDS as f64)
    );

    let workloads: Vec<&str> = items(field(&doc, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, known);
    for w in items(field(&doc, "workloads")) {
        assert!(text(field(w, "why")).chars().count() <= 200);
    }

    let listed = items(field(&doc, "end_to_end"));
    assert_eq!(listed.len(), END_TO_END.len());
    for (listed, entry) in listed.iter().zip(&END_TO_END) {
        assert_eq!(text(field(listed, "name")), entry.name);
        assert_eq!(text(field(listed, "unit")), entry.unit, "{}", entry.name);
        let better = if entry.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text(field(listed, "better")), better, "{}", entry.name);
        assert_eq!(
            field(listed, "bound"),
            &JsonValue::Num(entry.bound),
            "{}",
            entry.name
        );
    }

    let listed: Vec<(String, String)> = items(field(&doc, "per_layer"))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect();
    let registry: Vec<(String, String)> = per_layer_registry()
        .into_iter()
        .map(|(name, unit)| (name, unit.to_string()))
        .collect();
    assert_eq!(listed, registry);
    for (_, unit) in &listed {
        assert!(unit.len() <= 16);
        assert!(unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
    }
}
