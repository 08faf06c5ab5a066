//! `ripsim <spec.json>` on degenerate specs: a configuration the design
//! cannot run is a typed [`ConfigError`] on stderr with exit status 1,
//! never a panic (exit 101); a run that delivers nothing prints `n/a`
//! for its delay figures, never `NaN`.

use std::path::PathBuf;
use std::process::{Command, Output};

use rip_bench::{delay_mean_p99_us, fmt_us};
use rip_core::{ConfigError, RouterConfig};
use rip_sim::stats::Histogram;
use serde::{Deserialize, Value};

/// `configs/quickstart.json` with `router.<field>` replaced by `value`
/// and a short horizon.
fn mutated_quickstart(field: &str, value: &str) -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/quickstart.json");
    let text = std::fs::read_to_string(path).expect("quickstart spec readable");
    let Value::Object(mut spec) = serde_json::from_str::<Value>(&text).expect("spec parses") else {
        panic!("spec is a JSON object");
    };
    for (key, v) in spec.iter_mut() {
        match (key.as_str(), v) {
            ("router", Value::Object(router)) => {
                let slot = router
                    .iter_mut()
                    .find(|(k, _)| k == field)
                    .expect("router field exists");
                slot.1 = serde_json::from_str(value).expect("replacement parses");
            }
            ("horizon_us", v) => *v = serde_json::from_str("10").unwrap(),
            _ => {}
        }
    }
    Value::Object(spec)
}

/// The router half of a spec, as the config it deserializes to.
fn router_of(spec: &Value) -> RouterConfig {
    let Value::Object(fields) = spec else {
        unreachable!("specs are objects")
    };
    let router = &fields.iter().find(|(k, _)| k == "router").unwrap().1;
    RouterConfig::from_value(router).expect("router deserializes")
}

/// Run `ripsim` on `spec` written to a temporary file named `name`.
fn ripsim(spec: &Value, name: &str) -> Output {
    let dir: PathBuf = std::env::temp_dir().join("rip-bench-spec-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, serde_json::to_string(spec).unwrap()).unwrap();
    Command::new(env!("CARGO_BIN_EXE_ripsim"))
        .arg(&path)
        .output()
        .expect("ripsim runs")
}

#[test]
fn zero_gamma_and_zero_segment_are_typed_errors_not_panics() {
    let cases = [
        ("gamma", "0", ConfigError::GammaZero),
        ("segment", r#"{"bits": 0}"#, ConfigError::SegmentZero),
    ];
    for (field, value, expected) in cases {
        let spec = mutated_quickstart(field, value);
        assert_eq!(router_of(&spec).validate(), Err(expected.clone()));
        let out = ripsim(&spec, &format!("{field}_zero.json"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{field} = 0: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "{field} = 0 panicked: {stderr}"
        );
        assert!(
            stderr.contains(&expected.to_string()),
            "{field} = 0 printed {stderr:?}, not the typed error"
        );
    }
}

#[test]
fn a_run_that_delivers_nothing_prints_na_delays() {
    let spec = mutated_quickstart("input_queue_limit", r#"{"bits": 0}"#);
    let out = ripsim(&spec, "input_queue_zero.json");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("| delivered packets        | 0 "),
        "{stdout}"
    );
    assert!(stdout.contains("n/a / n/a"), "{stdout}");
    assert!(!stdout.contains("NaN"), "{stdout}");
}

#[test]
fn missing_delay_figures_are_na_in_text_and_null_in_json() {
    let empty = delay_mean_p99_us(&Histogram::new());
    assert_eq!(empty, (None, None));
    assert_eq!(fmt_us(empty.0), "n/a");
    assert_eq!(serde_json::to_string(&empty).unwrap(), "[null,null]");

    let mut h = Histogram::new();
    h.record(1_500.0);
    let one = delay_mean_p99_us(&h);
    assert_eq!(one, (Some(1.5), Some(1.5)));
    assert_eq!(fmt_us(one.1), "1.50 us");
}
