//! A minimal, dependency-free JSON reader for the repo's own formats.
//!
//! Several `rix` types serialise themselves with hand-rolled writers
//! ([`crate::ArchState::to_json`], `RunResult::to_json`, the perf
//! records); this module is the matching reader, used wherever a
//! round-trip back into Rust is needed (checkpoint restore, baseline
//! comparison). It is deliberately small:
//!
//! * numbers keep their **raw text** so `u64` values round-trip exactly
//!   (an `f64` intermediate would corrupt 64-bit memory words above
//!   2^53),
//! * objects preserve key order as a plain `Vec` (our writers never emit
//!   duplicate keys),
//! * errors carry a byte offset, enough to debug a corrupt file.
//!
//! The same reader decodes every wire and file format in the workspace,
//! including request bodies from the network, so [`Json::parse`] keeps
//! this contract:
//!
//! * **Linear time.** Each input byte is examined a bounded number of
//!   times; string bodies are copied run by run, up to the next `"` or
//!   `\`. A multi-megabyte result document parses in milliseconds.
//! * **Bounded nesting.** Arrays and objects nest at most [`MAX_DEPTH`]
//!   levels deep. The parser recurses once per level, so the limit is
//!   what keeps a hostile body such as 300 000 `[` from overflowing the
//!   stack.
//! * **Errors are values.** Malformed input, including nesting past the
//!   limit, returns `Err` with a one-line message that names the problem
//!   and, where there is one, the offending byte offset (`… at byte N`).
//!
//! ```
//! use rix_isa::json::Json;
//! let v = Json::parse(r#"{"pc":3,"mem":[[4096,18446744073709551615]]}"#).unwrap();
//! assert_eq!(v.get("pc").and_then(Json::as_u64), Some(3));
//! let cell = &v.get("mem").unwrap().as_arr().unwrap()[0];
//! assert_eq!(cell.as_arr().unwrap()[1].as_u64(), Some(u64::MAX));
//! ```

/// How deeply arrays and objects may nest in a document [`Json::parse`]
/// accepts. The deepest document the workspace writes (an experiment
/// spec's arms, axes, points and overrides) nests about 9 levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Numbers are kept as raw text (see module docs).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw text (`"42"`, `"-1.5e3"`).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage is an error). See the [module docs](self) for
    /// the time, depth and error contract.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Looks up `key` in an object (`None` for other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`Json::get`], but a missing key is an error naming it.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key `{key}`"))
    }

    /// The value as an exact `u64` (numbers only).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (numbers only).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value back to compact JSON. Numbers are emitted as
    /// their preserved raw text, so `parse` → `dump` round-trips 64-bit
    /// integers exactly; strings re-escape quotes, backslashes and
    /// control characters. `parse(v.dump()) == v` for any parsed `v`.
    #[must_use]
    pub fn dump(&self) -> String {
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(raw) => raw.clone(),
            Json::Str(s) => {
                let mut out = String::with_capacity(s.len() + 2);
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
                out
            }
            Json::Arr(items) => {
                let body: Vec<String> = items.iter().map(Json::dump).collect();
                format!("[{}]", body.join(","))
            }
            Json::Obj(fields) => {
                let body: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", Json::Str(k.clone()).dump(), v.dump()))
                    .collect();
                format!("{{{}}}", body.join(","))
            }
        }
    }

    /// Convenience: `self[key]` as an exact `u64`, with an error naming
    /// the key on a miss or a non-number.
    pub fn req_u64(&self, key: &str) -> Result<u64, String> {
        self.req(key)?
            .as_u64()
            .ok_or_else(|| format!("key `{key}` is not a u64"))
    }
}

/// The value at object key `key` as an exact `u64`, with the standard
/// type-mismatch message — the shared scalar reader of every
/// hand-rolled config parser in the workspace.
pub fn expect_u64(key: &str, v: &Json) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| format!("key `{key}` must be an unsigned integer"))
}

/// As [`expect_u64`], for booleans.
pub fn expect_bool(key: &str, v: &Json) -> Result<bool, String> {
    v.as_bool().ok_or_else(|| format!("key `{key}` must be a boolean"))
}

/// As [`expect_u64`], for strings.
pub fn expect_str(key: &str, v: &Json) -> Result<String, String> {
    v.as_str().map(str::to_string).ok_or_else(|| format!("key `{key}` must be a string"))
}

/// The standard error message for a key the reader does not recognise:
/// names the offending key, suggests the closest known key (by edit
/// distance), and lists all known keys. Shared by every hand-rolled
/// config/spec reader in the workspace so unknown-key rejection reads
/// the same everywhere.
#[must_use]
pub fn unknown_key(key: &str, known: &[&str]) -> String {
    let closest = known
        .iter()
        .min_by_key(|k| edit_distance(key, k))
        .filter(|k| edit_distance(key, k) <= key.len().max(k.len()) / 2)
        .map(|k| format!(" (did you mean `{k}`?)"))
        .unwrap_or_default();
    format!("unknown key `{key}`{closest}; known keys: {}", known.join(", "))
}

/// Levenshtein distance, ASCII-case-insensitive (keys are short, the
/// quadratic DP is plenty).
#[must_use]
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<u8> = a.bytes().map(|c| c.to_ascii_lowercase()).collect();
    let b: Vec<u8> = b.bytes().map(|c| c.to_ascii_lowercase()).collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

/// Parses one value that sits inside `depth` arrays and objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let raw = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| format!("invalid number at byte {start}"))?;
            Ok(Json::Num(raw.to_string()))
        }
        Some(c) => Err(format!("unexpected byte `{}` at byte {pos}", *c as char, pos = *pos)),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, "\"")?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one go. Both
        // are ASCII, so a run never splits a UTF-8 sequence, and each
        // byte is validated exactly once.
        let end = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\')
            .map_or(b.len(), |n| *pos + n);
        let run = std::str::from_utf8(&b[*pos..end])
            .map_err(|e| format!("invalid UTF-8 at byte {}", *pos + e.valid_up_to()))?;
        out.push_str(run);
        *pos = end;
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            // The run stopped at a backslash.
            Some(_) => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {pos}", pos = *pos))?;
                        // Our writers only escape control characters;
                        // surrogate pairs are not produced and map to
                        // the replacement character if encountered.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap().as_bool(), Some(false));
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("1.5").unwrap().as_f64(), Some(1.5));
        assert_eq!(Json::parse(r#""a\"b""#).unwrap().as_str(), Some("a\"b"));
    }

    #[test]
    fn u64_precision_is_exact() {
        let v = Json::parse(&format!("{}", u64::MAX)).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        let v = Json::parse("9007199254740993").unwrap(); // 2^53 + 1
        assert_eq!(v.as_u64(), Some(9_007_199_254_740_993));
    }

    #[test]
    fn containers_and_lookup() {
        let v = Json::parse(r#"{"a":[1,2,{"b":false}],"c":"x"}"#).unwrap();
        assert_eq!(v.req_u64("a").unwrap_err(), "key `a` is not a u64");
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert!(v.get("missing").is_none());
        assert!(v.req("missing").unwrap_err().contains("missing"));
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn errors() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").unwrap_err().contains("trailing"));
        assert!(Json::parse("\"abc").unwrap_err().contains("unterminated"));
        assert!(Json::parse("nope").is_err());
    }

    #[test]
    fn dump_round_trips() {
        for text in [
            "null",
            "true",
            "18446744073709551615",
            r#"{"a":[1,2,{"b":false}],"c":"x\"y\\z"}"#,
            "[]",
            "{}",
            r#""a
b""#,
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(&v.dump()).unwrap(), v, "{text}");
        }
        // Canonical output: compact, escapes re-applied.
        assert_eq!(Json::parse(" { \"a\" : 1 } ").unwrap().dump(), r#"{"a":1}"#);
    }

    #[test]
    fn unknown_key_suggests_closest() {
        let msg = unknown_key("wayz", &["size_bytes", "ways", "hit_latency"]);
        assert!(msg.contains("unknown key `wayz`"), "{msg}");
        assert!(msg.contains("did you mean `ways`?"), "{msg}");
        assert!(msg.contains("size_bytes"), "lists known keys: {msg}");
        // A key nothing like any known one still lists the options.
        let msg = unknown_key("flux_capacitor_coefficient", &["ways"]);
        assert!(msg.contains("known keys: ways"), "{msg}");
        assert!(!msg.contains("did you mean"), "{msg}");
    }

    #[test]
    fn control_escape_roundtrip() {
        // The writers escape control characters as \u00XX.
        let v = Json::parse("\"a\\u000ab\"").unwrap();
        assert_eq!(v.as_str(), Some("a\nb"));
    }

    #[test]
    fn nesting_is_bounded_with_a_structured_error() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok(), "the limit itself parses");
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"));
        // Objects count toward the same depth as arrays.
        let deep_obj = |n: usize| format!("{}1{}", r#"{"k":"#.repeat(n), "}".repeat(n));
        assert!(Json::parse(&deep_obj(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&deep_obj(MAX_DEPTH + 1)).unwrap_err().starts_with("nesting"));
        // A hostile body far past the limit is refused, not a stack overflow.
        assert!(Json::parse(&"[".repeat(300_000)).unwrap_err().starts_with("nesting"));
    }

    #[test]
    fn invalid_utf8_names_the_byte() {
        // `Json::parse` takes `&str`, so only the byte-level reader can
        // meet invalid UTF-8.
        let mut pos = 0;
        let err = parse_string(b"\"ab\xffc\"", &mut pos).unwrap_err();
        assert_eq!(err, "invalid UTF-8 at byte 3");
    }

    #[test]
    fn parse_is_linear_in_the_input() {
        // A scaled-up result document: over 2 MB of string-keyed objects
        // with multi-byte text. Re-validating the rest of the input for
        // every string character took minutes on this.
        let trial = r#"{"bench":"vpr.r","label":"+reverse*","note":"Ünïcödé → ✓ 𝄞","result":{"stats":{"retired":100000,"cycles":81234}}}"#;
        let mut doc = String::from(r#"{"schema":"rix-exp-result/1","trials":["#);
        let mut n = 0;
        while doc.len() < 2_000_000 {
            doc.push_str(trial);
            doc.push(',');
            n += 1;
        }
        doc.push_str(trial);
        doc.push_str("]}");
        let start = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(5), "2 MB took {took:?}");
        let trials = v.get("trials").and_then(Json::as_arr).unwrap();
        assert_eq!(trials.len(), n + 1);
        assert_eq!(trials[n].get("note").and_then(Json::as_str), Some("Ünïcödé → ✓ 𝄞"));
    }

    /// Characters that stress the run-based string copy: 2-, 3- and
    /// 4-byte UTF-8, and the bytes a run stops at or that the writer
    /// escapes as `\u00XX`.
    const TRICKY: &[char] =
        &['a', '"', '\\', '/', '\n', '\u{1}', '\u{1f}', 'é', 'ß', '€', '✓', '値', '𝄞', '😀'];

    fn tricky_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            prop_oneof![
                (0..TRICKY.len()).prop_map(|i| TRICKY[i]),
                (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
            ],
            0..24,
        )
        .prop_map(|chars| chars.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn strings_round_trip_through_dump(
            key in tricky_string(),
            a in tricky_string(),
            b in tricky_string(),
        ) {
            let v = Json::Obj(vec![
                (key.clone(), Json::Arr(vec![Json::Str(a), Json::Num("1".into())])),
                (b.clone(), Json::Str(key + &b)),
            ]);
            prop_assert_eq!(Json::parse(&v.dump()), Ok(v));
        }
    }
}
