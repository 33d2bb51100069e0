//! The derive's `#[serde(...)]` attributes, one behaviour each: defaults
//! with and without a path, omission on output, typo rejection, renamed
//! keys in both directions, the `expecting` text, `deserialize_with`, and
//! which fault wins when an input holds several.

use serde::{Deserialize, Error, ErrorKind, Expected, Serialize};
use serde_json::Value;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields, expecting = "a probe")]
struct Probe {
    #[serde(rename = "r2")]
    r_squared: f64,
    #[serde(default)]
    count: u32,
    #[serde(default = "seven", skip_serializing_if = "is_seven")]
    level: u64,
    #[serde(skip_serializing_if = "Option::is_none", deserialize_with = "present")]
    note: Option<String>,
    tags: Vec<String>,
}

fn seven() -> u64 {
    7
}

fn is_seven(n: &u64) -> bool {
    *n == 7
}

fn present<T: Deserialize>(v: Value) -> Result<Option<T>, Error> {
    T::from_json_value(v).map(Some)
}

/// No attributes: unknown keys are ignored, absent keys read as `null`.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Plain {
    a: u32,
    b: Option<u32>,
}

#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
struct Counters {
    hits: u64,
    misses: u64,
}

fn parse<T: Deserialize>(text: &str) -> Result<T, Error> {
    T::from_json_value(serde_json::from_str::<Value>(text).unwrap())
}

fn probe() -> Probe {
    Probe {
        r_squared: 0.5,
        count: 0,
        level: 7,
        note: None,
        tags: vec![],
    }
}

#[test]
fn default_without_a_path_uses_the_default_trait() {
    let p: Probe = parse(r#"{"r2": 0.5, "tags": []}"#).unwrap();
    assert_eq!(p.count, 0);
}

#[test]
fn default_with_a_path_calls_it() {
    let p: Probe = parse(r#"{"r2": 0.5, "tags": []}"#).unwrap();
    assert_eq!(p.level, 7);
    let p: Probe = parse(r#"{"r2": 0.5, "tags": [], "level": 3}"#).unwrap();
    assert_eq!(p.level, 3);
}

#[test]
fn container_default_fills_every_missing_field() {
    let c: Counters = parse(r#"{"misses": 4}"#).unwrap();
    assert_eq!(c, Counters { hits: 0, misses: 4 });
}

#[test]
fn skip_serializing_if_omits_the_key() {
    assert_eq!(
        serde_json::to_string(&probe()).unwrap(),
        r#"{"r2":0.5,"count":0,"tags":[]}"#
    );
    let mut p = probe();
    p.level = 3;
    p.note = Some("n".into());
    assert_eq!(
        serde_json::to_string(&p).unwrap(),
        r#"{"r2":0.5,"count":0,"level":3,"note":"n","tags":[]}"#
    );
}

#[test]
fn rename_applies_in_both_directions() {
    let json = probe().to_json_value();
    assert!(json.get("r2").is_some() && json.get("r_squared").is_none());
    assert_eq!(Probe::from_json_value(json).unwrap(), probe());
    let e = parse::<Probe>(r#"{"r_squared": 0.5, "tags": []}"#).unwrap_err();
    assert_eq!(e.kind, ErrorKind::UnknownField("r_squared".into()));
}

#[test]
fn deny_unknown_fields_is_a_typed_error() {
    let e = parse::<Probe>(r#"{"r2": 0.5, "tags": [], "cuont": 1}"#).unwrap_err();
    assert_eq!(e.kind, ErrorKind::UnknownField("cuont".into()));
    assert!(e.path.is_empty());
    // Without the attribute the key is ignored.
    assert_eq!(
        parse::<Plain>(r#"{"a": 1, "zz": 2}"#).unwrap(),
        Plain { a: 1, b: None }
    );
}

#[test]
fn missing_wrong_type_and_expecting_are_typed() {
    let e = parse::<Probe>(r#"{"tags": []}"#).unwrap_err();
    assert_eq!(e.kind, ErrorKind::Missing(Expected::Float("f64")));
    assert_eq!(e.field(), Some(("Probe", "r2")));
    let e = parse::<Probe>(r#"{"r2": "x", "tags": []}"#).unwrap_err();
    assert_eq!(
        e.kind,
        ErrorKind::Invalid(Expected::Float("f64"), Value::String("x".into()))
    );
    let e = parse::<Probe>("[1]").unwrap_err();
    assert!(matches!(
        e.kind,
        ErrorKind::Invalid(Expected::Object("a probe"), _)
    ));
}

#[test]
fn deserialize_with_replaces_the_field_decoder() {
    // An explicit `null` is a wrong type for `present`, not `None`.
    let e = parse::<Probe>(r#"{"r2": 0.5, "tags": [], "note": null}"#).unwrap_err();
    assert_eq!(e.field(), Some(("Probe", "note")));
    assert_eq!(e.kind, ErrorKind::Invalid(Expected::String, Value::Null));
    // Absent still reads as `None`.
    assert_eq!(
        parse::<Probe>(r#"{"r2": 0.5, "tags": []}"#).unwrap(),
        probe()
    );
}

#[test]
fn the_first_fault_in_input_order_wins() {
    let e = parse::<Probe>(r#"{"cuont": 1, "r2": "x", "tags": []}"#).unwrap_err();
    assert_eq!(e.kind, ErrorKind::UnknownField("cuont".into()));
    let e = parse::<Probe>(r#"{"r2": "x", "cuont": 1, "tags": []}"#).unwrap_err();
    assert_eq!(e.field(), Some(("Probe", "r2")));
    let e = parse::<Probe>(r#"{"tags": 5, "count": "x"}"#).unwrap_err();
    assert_eq!(e.field(), Some(("Probe", "tags")));
    // A missing field is reported only after every present key decoded.
    let e = parse::<Probe>(r#"{"tags": [], "count": "x"}"#).unwrap_err();
    assert_eq!(e.field(), Some(("Probe", "count")));
}

#[test]
fn display_names_the_path_without_attributes() {
    #[derive(Debug, Serialize, Deserialize)]
    struct Outer {
        inner: Plain,
    }
    let e = parse::<Outer>(r#"{"inner": {"a": "x"}}"#).unwrap_err();
    assert_eq!(
        e.to_string(),
        r#"Outer.inner: Plain.a: expected u32, got String("x")"#
    );
    let e = parse::<Outer>(r#"{"inner": {}}"#).unwrap_err();
    assert_eq!(
        e.to_string(),
        "Outer.inner: Plain.a: expected u32, got Null"
    );
    let e = parse::<Outer>("7").unwrap_err();
    assert_eq!(
        e.to_string(),
        "expected object for Outer, got Number(U64(7))"
    );
}

#[test]
fn custom_errors_carry_typed_payloads() {
    #[derive(Debug)]
    struct Mine;
    impl std::fmt::Display for Mine {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("mine")
        }
    }
    impl std::error::Error for Mine {}
    let e = Error::custom(Mine).within("S", "k");
    assert!(e.downcast_ref::<Mine>().is_some());
    assert_eq!(e.to_string(), "S.k: mine");
}
