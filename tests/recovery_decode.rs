//! Recovery decodes each byte a constant number of times.
//!
//! - JSON strings round-trip through render → parse for any mix of
//!   escapes, control characters and 2-, 3- and 4-byte UTF-8, whether
//!   each character is written raw or as a `\u` escape.
//! - Malformed strings fail with pinned messages and byte offsets.
//! - `DurableStorage::recover_shard` scales linearly in text length:
//!   recovering entities with 4× the text takes at most 8× as long. A
//!   string decoder that re-validates the rest of the line per character
//!   is quadratic and lands near 16×.

use proptest::prelude::*;
use serde_json::Value;
use std::sync::Arc;
use std::time::Instant;
use wf_platform::{DataStore, DurableStorage, Entity, SourceKind};
use wf_types::NodeId;

/// Characters the round-trip strings are drawn from: ASCII, the JSON
/// specials, control characters, and 2-, 3- and 4-byte UTF-8.
const ALPHABET: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'ß',
    '\u{7ff}',
    '日',
    '€',
    '\u{ffff}',
    '😀',
    '𝄞',
    '\u{10ffff}',
];

/// `s` as a JSON string literal whose `i`-th character is written as a
/// `\u` escape (a surrogate pair above the BMP) when `escape[i]` is odd
/// and as the shortest legal form otherwise.
fn hand_written(s: &str, escape: &[usize]) -> String {
    let mut out = String::from("\"");
    for (c, &coin) in s.chars().zip(escape.iter().cycle()) {
        if coin % 2 == 1 {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{unit:04x}"));
            }
        } else {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04X}", c as u32)),
                c => out.push(c),
            }
        }
    }
    out.push('"');
    out
}

proptest! {
    #[test]
    fn strings_round_trip(
        picks in prop::collection::vec(0usize..ALPHABET.len(), 0..200),
        escape in prop::collection::vec(0usize..2, 1..16),
    ) {
        let s: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let value = Value::String(s.clone());
        prop_assert_eq!(serde_json::from_str::<Value>(&value.to_json_string()).unwrap(), value.clone());
        prop_assert_eq!(serde_json::from_str::<Value>(&hand_written(&s, &escape)).unwrap(), value);
        // as an object key and inside an array, so runs end at ':' and ','
        let nested = format!("{{{}: [{}, 1]}}", hand_written(&s, &escape), hand_written(&s, &[0]));
        let parsed: Value = serde_json::from_str(&nested).unwrap();
        prop_assert_eq!(&parsed[s.as_str()][0], &Value::String(s.clone()));
    }
}

#[test]
fn malformed_strings_fail_with_pinned_offsets() {
    let cases: &[(&str, &str)] = &[
        (r#""abc"#, "unterminated string at byte 4"),
        ("\"日本", "unterminated string at byte 7"),
        (r#"{"a": "x"#, "unterminated string at byte 8"),
        (r#""ab\"#, "invalid escape at byte 4"),
        (r#""a\x""#, "invalid escape at byte 3"),
        ("\"a\\é\"", "invalid escape at byte 3"),
        (r#"["é\q"]"#, "invalid escape at byte 5"),
        (r#""\ud800""#, "unpaired surrogate at byte 7"),
        (r#""\ud800x""#, "unpaired surrogate at byte 7"),
        (r#""\ud800\u0041""#, "invalid low surrogate at byte 13"),
        (r#""\udc00""#, "invalid \\u escape at byte 7"),
        (r#"{"k\ud83d": 1}"#, "unpaired surrogate at byte 9"),
        (r#""\u12""#, "truncated \\u escape at byte 3"),
        (r#""\u12G4""#, "invalid \\u escape at byte 3"),
        ("\"\\u12é\"", "invalid \\u escape at byte 3"),
    ];
    for (input, expected) in cases {
        let err = serde_json::from_str::<Value>(input)
            .unwrap_err()
            .to_string();
        assert_eq!(&err, expected, "input {input:?}");
    }
}

/// A shard holding `entities` documents of ≈`text_bytes` of text each,
/// in both its snapshot and (as updates) its WAL.
fn shard_with_text(entities: usize, text_bytes: usize) -> Arc<DurableStorage> {
    const LINE: &str = "The lens is sharp \u{2014} \"great\" value, 5\u{2605}\n\t";
    let text = LINE.repeat(text_bytes / LINE.len());
    let store = DataStore::new(1).unwrap();
    let storage = Arc::new(DurableStorage::in_memory(1).unwrap());
    store.attach_durability(Arc::clone(&storage)).unwrap();
    let ids: Vec<_> = (0..entities)
        .map(|i| {
            store.insert(Entity::new(
                format!("doc://{i}"),
                SourceKind::Web,
                text.clone(),
            ))
        })
        .collect();
    storage.snapshot_shard(&store, NodeId(0)).unwrap();
    for id in ids {
        store.update(id, |e| e.text.push('!')).unwrap();
    }
    storage
}

/// Minimum over nine runs of the wall time of one `recover_shard`.
fn recover_secs(storage: &DurableStorage, entities: usize) -> f64 {
    (0..9)
        .map(|_| {
            let start = Instant::now();
            let recovery = storage.recover_shard(0).unwrap();
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(recovery.entities.len(), entities);
            secs
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn recover_shard_scales_linearly_in_text_length() {
    const ENTITIES: usize = 16;
    const KB: usize = 1024;
    let small = recover_secs(&shard_with_text(ENTITIES, 8 * KB), ENTITIES);
    let large = recover_secs(&shard_with_text(ENTITIES, 32 * KB), ENTITIES);
    let ratio = large / small;
    println!("recover_shard: 8 KB {small:.5} s, 32 KB {large:.5} s, ratio {ratio:.2}");
    assert!(
        ratio <= 8.0,
        "recover_shard grew super-linearly in text length: 8 KB {small:.5} s, \
         32 KB {large:.5} s, ratio {ratio:.1} (linear ≈ 4, quadratic ≈ 16)"
    );
}
