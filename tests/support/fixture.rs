//! Byte-exact comparison of a report with its golden fixture that fails
//! readably: instead of two multi-kilobyte lines, the panic names every
//! top-level key whose value differs, with the fixture's value and the
//! report's.
//!
//! Included with `#[path]` by the fixture tests of this directory and of
//! `crates/bench/tests/`.

use serde::Value;

/// Values longer than this many bytes are cut in the message.
const SHOWN_BYTES: usize = 240;

/// Panics unless `got` is `want` byte for byte; `what` names the report.
pub fn assert_matches_fixture(got: &str, want: &str, what: &str) {
    if got != want {
        panic!(
            "{what} drifted from its fixture (fixture → now):\n{}",
            top_level_diff(got, want)
        );
    }
}

/// One line per top-level key the two objects disagree on.
fn top_level_diff(got: &str, want: &str) -> String {
    let parse = |text: &str| serde_json::from_str::<Value>(text.trim_end());
    let (Ok(Value::Map(got)), Ok(Value::Map(want))) = (parse(got), parse(want)) else {
        return format!(
            "  not two JSON objects:\n  fixture {}\n  now     {}",
            cut(want),
            cut(got)
        );
    };
    let value_of = |map: &'_ [(String, Value)], key: &str| {
        (map.iter())
            .find(|(k, _)| k == key)
            .map(|(_, value)| value.clone())
    };
    let shown = |value: Option<Value>| {
        value.map_or("(absent)".to_string(), |v| {
            cut(&serde_json::to_string(&v).expect("a value serializes"))
        })
    };
    let added = (got.iter()).filter(|(key, _)| value_of(&want, key).is_none());
    let mut lines = Vec::new();
    for (key, _) in want.iter().chain(added) {
        let (before, now) = (value_of(&want, key), value_of(&got, key));
        if before != now {
            lines.push(format!("  {key}: {} → {}", shown(before), shown(now)));
        }
    }
    if lines.is_empty() {
        "  every key holds the same value: the bytes differ in order or layout".to_string()
    } else {
        lines.join("\n")
    }
}

fn cut(text: &str) -> String {
    if text.len() <= SHOWN_BYTES {
        return text.to_string();
    }
    let mut end = SHOWN_BYTES;
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}… ({} bytes)", &text[..end], text.len())
}
