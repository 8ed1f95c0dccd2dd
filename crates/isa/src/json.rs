//! A minimal, dependency-free JSON reader for the repo's own formats.
//!
//! Several `rix` types serialise themselves with hand-rolled writers
//! ([`crate::ArchState::to_json`], `RunResult::to_json`, the perf
//! records); this module is the matching reader, used wherever a
//! round-trip back into Rust is needed (checkpoint restore, baseline
//! comparison). Plain structs of counters and settings (the simulator
//! configs and statistics) list their fields once in
//! [`json_fields!`](crate::json_fields), which generates both directions
//! through the [`JsonFields`] trait. It is deliberately small:
//!
//! * numbers keep their **raw text** so `u64` values round-trip exactly
//!   (an `f64` intermediate would corrupt 64-bit memory words above
//!   2^53),
//! * objects preserve key order as a plain `Vec` (our writers never emit
//!   duplicate keys),
//! * errors carry a byte offset, enough to debug a corrupt file.
//!
//! Underneath is one scanner, the [`Pull`] reader: [`Json::parse`] is
//! it building a tree, and hot decoders (the `json_fields!` types, the
//! trial-cache entries) drive it directly and build none.
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

use std::borrow::Cow;

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
        let mut p = Pull::new(text);
        let v = p.value()?;
        p.end()?;
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
    /// The string comes back exactly sized, since callers keep some for
    /// as long as a server runs (canonical specs, run reports).
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.dump_into(&mut out);
        out.shrink_to_fit();
        out
    }

    /// Appends [`Json::dump`]'s bytes to `out`: the whole tree is
    /// written into the one buffer, with no per-node allocation.
    pub fn dump_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.dump_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.dump_into(out);
                }
                out.push('}');
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

/// Appends `s` to `out` as a JSON string literal: quoted, with `"`,
/// `\` and control characters escaped (the latter as `\u00xx`), all
/// else verbatim. The string writer of [`Json::dump`], for hand-rolled
/// writers that emit the same bytes.
pub fn write_str(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    // Copy each run up to the next byte that needs escaping in one go.
    // Those bytes are all ASCII, so a run never splits a UTF-8 sequence.
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends `n` in decimal: the bytes of `write!(out, "{n}")`, without
/// the formatting machinery, which dominates writing a counter record.
pub fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        // `n % 10` is a single digit.
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).unwrap_or_default());
}

/// The value at object key `key` as an exact `u64`, with the standard
/// type-mismatch message — the shared scalar reader of every
/// hand-rolled config parser in the workspace.
pub fn expect_u64(key: &str, v: &Json) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| not_u64(key))
}

/// [`expect_u64`] over a pull reader: the next value, the value of
/// object key `key`, as an exact `u64`.
pub fn pull_u64(key: &str, p: &mut Pull<'_>) -> Result<u64, String> {
    p.uint()?.ok_or_else(|| not_u64(key))
}

fn not_u64(key: &str) -> String {
    format!("key `{key}` must be an unsigned integer")
}

/// As [`expect_u64`], for booleans.
pub fn expect_bool(key: &str, v: &Json) -> Result<bool, String> {
    v.as_bool().ok_or_else(|| format!("key `{key}` must be a boolean"))
}

/// As [`expect_u64`], for strings.
pub fn expect_str(key: &str, v: &Json) -> Result<String, String> {
    v.as_str().map(str::to_string).ok_or_else(|| format!("key `{key}` must be a string"))
}

/// `n`, the value of key `key`, as a narrower integer type: a value
/// that does not fit is an error naming the key, never a truncation.
fn narrow<T: TryFrom<u64>>(key: &str, n: u64) -> Result<T, String> {
    T::try_from(n).map_err(|_| {
        let bits = 8 * std::mem::size_of::<T>();
        format!("key `{key}` must be an unsigned integer below 2^{bits} (got {n})")
    })
}

/// A value with one canonical JSON encoding that can be read back onto
/// an existing value: the integer, boolean and histogram leaves below,
/// and every struct and enum [`json_fields!`](crate::json_fields) lists.
pub trait JsonFields {
    /// Appends the value's canonical JSON to `out`.
    fn write_json(&self, out: &mut String);

    /// Reads `v`, the value of the object key `key`, onto `self`. Errors
    /// name `key`; a struct prefixes its fields' errors with `"<key>: "`.
    fn read_json(&mut self, key: &str, v: &Json) -> Result<(), String>;

    /// [`read_json`](Self::read_json) from the value `p` holds next,
    /// with no tree: it accepts exactly the values `read_json` accepts
    /// and words its errors the same way.
    fn read_pull(&mut self, key: &str, p: &mut Pull<'_>) -> Result<(), String>;

    /// Appends the dotted path of every leaf under `path` to `out`: a
    /// leaf is `path` itself, a struct recurses into its fields in
    /// order.
    fn leaf_paths(&self, path: &str, out: &mut Vec<String>) {
        out.push(path.to_string());
    }
}

impl JsonFields for u64 {
    fn write_json(&self, out: &mut String) {
        write_u64(out, *self);
    }

    fn read_json(&mut self, key: &str, v: &Json) -> Result<(), String> {
        *self = expect_u64(key, v)?;
        Ok(())
    }

    fn read_pull(&mut self, key: &str, p: &mut Pull<'_>) -> Result<(), String> {
        *self = pull_u64(key, p)?;
        Ok(())
    }
}

impl JsonFields for usize {
    fn write_json(&self, out: &mut String) {
        write_u64(out, *self as u64);
    }

    fn read_json(&mut self, key: &str, v: &Json) -> Result<(), String> {
        *self = narrow(key, expect_u64(key, v)?)?;
        Ok(())
    }

    fn read_pull(&mut self, key: &str, p: &mut Pull<'_>) -> Result<(), String> {
        *self = narrow(key, pull_u64(key, p)?)?;
        Ok(())
    }
}

impl JsonFields for u32 {
    fn write_json(&self, out: &mut String) {
        write_u64(out, u64::from(*self));
    }

    fn read_json(&mut self, key: &str, v: &Json) -> Result<(), String> {
        *self = narrow(key, expect_u64(key, v)?)?;
        Ok(())
    }

    fn read_pull(&mut self, key: &str, p: &mut Pull<'_>) -> Result<(), String> {
        *self = narrow(key, pull_u64(key, p)?)?;
        Ok(())
    }
}

impl JsonFields for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read_json(&mut self, key: &str, v: &Json) -> Result<(), String> {
        *self = expect_bool(key, v)?;
        Ok(())
    }

    fn read_pull(&mut self, key: &str, p: &mut Pull<'_>) -> Result<(), String> {
        *self = p.bool()?.ok_or_else(|| format!("key `{key}` must be a boolean"))?;
        Ok(())
    }
}

/// A histogram of `[direct, reverse]` count pairs, as `[[d,r],…]`.
impl<const N: usize> JsonFields for [[u64; 2]; N] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, &[d, r]) in self.iter().enumerate() {
            out.push_str(if i == 0 { "[" } else { ",[" });
            write_u64(out, d);
            out.push(',');
            write_u64(out, r);
            out.push(']');
        }
        out.push(']');
    }

    fn read_json(&mut self, key: &str, v: &Json) -> Result<(), String> {
        let cells = v
            .as_arr()
            .filter(|a| a.len() == N)
            .ok_or_else(|| format!("key `{key}` is not a {N}-entry histogram"))?;
        for (i, (slot, cell)) in self.iter_mut().zip(cells).enumerate() {
            *slot = match cell.as_arr() {
                Some([d, r]) => d.as_u64().zip(r.as_u64()).map(|(d, r)| [d, r]),
                _ => None,
            }
            .ok_or_else(|| format!("`{key}`[{i}] is not a [direct, reverse] pair"))?;
        }
        Ok(())
    }

    fn read_pull(&mut self, key: &str, p: &mut Pull<'_>) -> Result<(), String> {
        let wrong_len = || format!("key `{key}` is not a {N}-entry histogram");
        if !p.begin_arr()? {
            return Err(wrong_len());
        }
        for (i, slot) in self.iter_mut().enumerate() {
            if !p.more()? {
                return Err(wrong_len());
            }
            *slot = pull_pair(p)?.ok_or_else(|| format!("`{key}`[{i}] is not a [direct, reverse] pair"))?;
        }
        if p.more()? {
            return Err(wrong_len());
        }
        Ok(())
    }
}

/// The `[d, r]` pair `p` holds next, or `None` if the value is not one.
fn pull_pair(p: &mut Pull<'_>) -> Result<Option<[u64; 2]>, String> {
    if !p.begin_arr()? {
        return Ok(None);
    }
    let mut cell = [0; 2];
    for n in &mut cell {
        if !p.more()? {
            return Ok(None);
        }
        match p.uint()? {
            Some(v) => *n = v,
            None => return Ok(None),
        }
    }
    Ok(if p.more()? { None } else { Some(cell) })
}

/// The dotted path of field `key` inside the value at `path` (`""` is
/// the root).
#[must_use]
pub fn child_path(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// Implements [`JsonFields`] for a type from **one** list of its fields,
/// and generates its JSON surface:
///
/// * `json_fields!(Type: "what" { a, b, … })` — a config: an associated
///   `KEYS` (the field names, in JSON order), `to_json` (every field in
///   that order) and `apply_json`, which reads a partial object onto the
///   value. Present keys overwrite; omitted keys keep their value;
///   unknown keys are rejected through [`unknown_key`]; a value that is
///   not an object is ``"<what> must be a JSON object"``.
/// * `json_fields!(complete Type: "what" { … })` — a lossless counter
///   encoding: `KEYS` and `apply_json` as above, except that a missing
///   or repeated key is an error, never a kept value. It is written with
///   [`JsonFields::write_json`]; no `to_json` is generated, so a
///   hand-written view of that name can live beside it.
///
/// Both struct forms also get `apply_pull`, `apply_json` over a
/// [`Pull`] reader instead of a tree: the same rules, the same
/// messages, and no allocation per field.
/// * `json_fields!(enum Type)` — an enum with `as_str(&self) -> &str`
///   and `parse(&str) -> Result<Self, String>`, encoded as its name.
///
/// Each field's type must itself implement [`JsonFields`].
///
/// ```
/// use rix_isa::json::{Json, JsonFields};
///
/// #[derive(Default)]
/// struct Geometry { sets: u64, ways: usize, lru: bool }
/// rix_isa::json_fields!(Geometry: "geometry" { sets, ways, lru });
///
/// let mut g = Geometry { sets: 64, ..Geometry::default() };
/// g.apply_json(&Json::parse(r#"{"ways":4}"#).unwrap()).unwrap();
/// assert_eq!(g.to_json(), r#"{"sets":64,"ways":4,"lru":false}"#);
/// assert_eq!(Geometry::KEYS, ["sets", "ways", "lru"]);
/// let mut paths = Vec::new();
/// g.leaf_paths("l1", &mut paths);
/// assert_eq!(paths, ["l1.sets", "l1.ways", "l1.lru"]);
///
/// let mut p = rix_isa::json::Pull::new(r#"{"lru":true}"#);
/// g.apply_pull(&mut p).unwrap();
/// assert_eq!(g.to_json(), r#"{"sets":64,"ways":4,"lru":true}"#);
/// ```
#[macro_export]
macro_rules! json_fields {
    (@fields $complete:literal, $T:ty, $what:literal, $($f:ident),+) => {
        impl $T {
            /// The field names [`apply_json`](Self::apply_json) accepts,
            /// in JSON order.
            pub const KEYS: &'static [&'static str] = &[$(stringify!($f)),+];

            /// Reads a JSON object onto the value; see
            /// [`json_fields!`](rix_isa::json_fields) for which keys
            /// must be present. A nested field's errors are prefixed
            /// with `"<key>: "`.
            pub fn apply_json(&mut self, v: &$crate::json::Json) -> Result<(), String> {
                let $crate::json::Json::Obj(fields) = v else {
                    return Err(concat!($what, " must be a JSON object").to_string());
                };
                for (k, val) in fields {
                    match k.as_str() {
                        $(stringify!($f) => {
                            $crate::json::JsonFields::read_json(&mut self.$f, k, val)?;
                        })+
                        other => return Err($crate::json::unknown_key(other, Self::KEYS)),
                    }
                }
                if $complete {
                    if let Some(k) = Self::KEYS.iter().find(|k| v.get(k).is_none()) {
                        return Err(format!("missing key `{k}`"));
                    }
                    // Every key is known and present, so a longer list
                    // repeats one.
                    if let Some(k) = $crate::json::repeated_key(fields, Self::KEYS.len()) {
                        return Err(format!("duplicate key `{k}`"));
                    }
                }
                Ok(())
            }

            /// [`apply_json`](Self::apply_json) from the object `p`
            /// holds next, building no tree: the same keys are
            /// accepted, and errors read the same.
            pub fn apply_pull(&mut self, p: &mut $crate::json::Pull<'_>) -> Result<(), String> {
                if !p.begin_obj()? {
                    return Err(concat!($what, " must be a JSON object").to_string());
                }
                let mut seen = [false; <$T>::KEYS.len()];
                let mut next = 0;
                while let Some(k) = p.key()? {
                    let at = $crate::json::field_index(Self::KEYS, &k, next)?;
                    if $complete && seen[at] {
                        return Err(format!("duplicate key `{k}`"));
                    }
                    seen[at] = true;
                    next = at + 1;
                    // Field `at` of the list reads the value.
                    let mut field = 0;
                    $(
                        if field == at {
                            $crate::json::JsonFields::read_pull(&mut self.$f, &k, p)?;
                        }
                        field += 1;
                    )+
                    let _ = field; // the last field's increment goes unread
                }
                if $complete {
                    if let Some(at) = seen.iter().position(|seen| !seen) {
                        return Err(format!("missing key `{}`", Self::KEYS[at]));
                    }
                }
                Ok(())
            }
        }

        impl $crate::json::JsonFields for $T {
            fn write_json(&self, out: &mut String) {
                // `{` before the first field, `,` before each later one.
                let mut sep = '{';
                $(
                    out.push(sep);
                    sep = ',';
                    out.push_str(concat!("\"", stringify!($f), "\":"));
                    $crate::json::JsonFields::write_json(&self.$f, out);
                )+
                let _ = sep; // the last field's assignment goes unread
                out.push('}');
            }

            fn read_json(&mut self, key: &str, v: &$crate::json::Json) -> Result<(), String> {
                self.apply_json(v).map_err(|e| format!("{key}: {e}"))
            }

            fn read_pull(
                &mut self,
                key: &str,
                p: &mut $crate::json::Pull<'_>,
            ) -> Result<(), String> {
                self.apply_pull(p).map_err(|e| format!("{key}: {e}"))
            }

            fn leaf_paths(&self, path: &str, out: &mut Vec<String>) {
                $(
                    let child = $crate::json::child_path(path, stringify!($f));
                    $crate::json::JsonFields::leaf_paths(&self.$f, &child, out);
                )+
            }
        }
    };
    (enum $T:ty) => {
        impl $crate::json::JsonFields for $T {
            fn write_json(&self, out: &mut String) {
                $crate::json::write_str(out, self.as_str());
            }

            fn read_json(&mut self, key: &str, v: &$crate::json::Json) -> Result<(), String> {
                *self = <$T>::parse(&$crate::json::expect_str(key, v)?)?;
                Ok(())
            }

            fn read_pull(
                &mut self,
                key: &str,
                p: &mut $crate::json::Pull<'_>,
            ) -> Result<(), String> {
                let name = p.str()?.ok_or_else(|| format!("key `{key}` must be a string"))?;
                *self = <$T>::parse(&name)?;
                Ok(())
            }
        }
    };
    (complete $T:ty: $what:literal { $($f:ident),+ $(,)? }) => {
        $crate::json_fields!(@fields true, $T, $what, $($f),+);
    };
    ($T:ty: $what:literal { $($f:ident),+ $(,)? }) => {
        $crate::json_fields!(@fields false, $T, $what, $($f),+);

        impl $T {
            /// Serialises every field as a JSON object, in
            /// [`KEYS`](Self::KEYS) order.
            #[must_use]
            pub fn to_json(&self) -> String {
                let mut out = String::new();
                $crate::json::JsonFields::write_json(self, &mut out);
                out
            }
        }
    };
}

/// The position of `key` in `keys`, looked for at `hint` first (fields
/// usually arrive in list order), or the [`unknown_key`] error.
pub fn field_index(keys: &[&str], key: &str, hint: usize) -> Result<usize, String> {
    if keys.get(hint) == Some(&key) {
        return Ok(hint);
    }
    keys.iter().position(|k| *k == key).ok_or_else(|| unknown_key(key, keys))
}

/// The first key that `fields` repeats, checked only when it holds more
/// than `known` fields, `known` being how many distinct keys it can hold.
#[must_use]
pub fn repeated_key(fields: &[(String, Json)], known: usize) -> Option<&str> {
    if fields.len() <= known {
        return None;
    }
    let (i, _) = fields.iter().enumerate().find(|(i, (k, _))| {
        fields[..*i].iter().any(|(earlier, _)| earlier == k)
    })?;
    Some(&fields[i].0)
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

/// A pull reader over one JSON document. The caller asks for the value
/// it expects next — an object's keys, an array's items, a number, a
/// string — and gets it straight from the text, with no tree built and
/// nothing allocated unless a string holds an escape. This is the
/// front end that simdjson's On-Demand API puts over its structural
/// index (Langdale & Lemire, "Parsing Gigabytes of JSON per Second",
/// VLDB J. 2019), here as one plain scanning pass.
///
/// [`Json::parse`] is this reader building a tree, so the two accept
/// exactly the same documents, with the same [`MAX_DEPTH`] limit and
/// the same error messages; [`json_fields!`](crate::json_fields) types
/// read themselves from it ([`JsonFields::read_pull`]). The typed reads
/// ([`Pull::uint`], [`Pull::bool`], [`Pull::str`], [`Pull::begin_obj`],
/// [`Pull::begin_arr`]) return `Ok(None)` or `Ok(false)` when the next
/// value is not of their kind, so each caller words its own type error.
///
/// ```
/// use rix_isa::json::Pull;
/// let mut p = Pull::new(r#"{"pc":3,"mem":[4096]}"#);
/// assert!(p.begin_obj()?);
/// assert_eq!(p.key()?.as_deref(), Some("pc"));
/// assert_eq!(p.uint()?, Some(3));
/// assert_eq!(p.key()?.as_deref(), Some("mem"));
/// assert_eq!(p.raw()?, "[4096]");
/// assert_eq!(p.key()?, None);
/// p.end()?;
/// # Ok::<(), String>(())
/// ```
pub struct Pull<'a> {
    text: &'a str,
    b: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the read position.
    depth: usize,
    /// Whether the last thing read was a whole value, so that a `,` or
    /// the enclosing container's close may come next.
    after_value: bool,
}

impl<'a> Pull<'a> {
    /// A reader at the start of `text`.
    #[must_use]
    pub fn new(text: &'a str) -> Self {
        Self { text, b: text.as_bytes(), pos: 0, depth: 0, after_value: false }
    }

    /// A reader at the start of `bytes`, or an error naming the first
    /// byte that is not UTF-8.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, String> {
        std::str::from_utf8(bytes)
            .map(Self::new)
            .map_err(|e| format!("invalid UTF-8 at byte {}", e.valid_up_to()))
    }

    /// The input between byte offsets `start` and `end`. Every offset
    /// the reader stops at borders an ASCII byte, so this never fails
    /// on a reader's own offsets.
    fn slice(&self, start: usize, end: usize) -> Result<&'a str, String> {
        self.text.get(start..end).ok_or_else(|| format!("split UTF-8 sequence at byte {start}"))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.b.len() && matches!(self.b[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.pos).copied()
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    /// Requires the rest of the input to be whitespace: call it once the
    /// document's one value has been read.
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at byte {}", self.pos))
        }
    }

    /// Opens the object that comes next, or returns `false` if the next
    /// value is not an object.
    pub fn begin_obj(&mut self) -> Result<bool, String> {
        if self.peek() != Some(b'{') {
            return Ok(false);
        }
        self.open()?;
        Ok(true)
    }

    /// Opens the array that comes next, or returns `false` if the next
    /// value is not an array.
    pub fn begin_arr(&mut self) -> Result<bool, String> {
        if self.peek() != Some(b'[') {
            return Ok(false);
        }
        self.open()?;
        Ok(true)
    }

    /// Consumes the `[` or `{` at the read position.
    fn open(&mut self) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.pos += 1;
        self.depth += 1;
        self.after_value = false;
        Ok(())
    }

    /// Consumes the `]` or `}` at the read position.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
        self.after_value = true;
    }

    /// The next key of the object being read, its `:` consumed, or
    /// `None` once the object's closing `}` is consumed. The key is
    /// borrowed from the input unless it holds an escape.
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        match self.peek() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            Some(b',') if self.after_value => self.pos += 1,
            _ if self.after_value => {
                return Err(format!("expected `,` or `}}` at byte {}", self.pos));
            }
            _ => {}
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(":")?;
        self.after_value = false;
        Ok(Some(key))
    }

    /// Whether the array being read has another item: consumes the `,`
    /// before it, or the closing `]` and returns `false`.
    pub fn more(&mut self) -> Result<bool, String> {
        match self.peek() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            Some(b',') if self.after_value => {
                self.pos += 1;
                self.after_value = false;
                Ok(true)
            }
            _ if self.after_value => Err(format!("expected `,` or `]` at byte {}", self.pos)),
            _ => Ok(true),
        }
    }

    /// The next value as an exact `u64` if it is a number that
    /// [`Json::as_u64`] reads (digits only, at most `u64::MAX`), or
    /// `None`. The number is scanned and converted in one pass.
    pub fn uint(&mut self) -> Result<Option<u64>, String> {
        match self.peek() {
            Some(c) if c.is_ascii_digit() || c == b'-' => {}
            _ => return Ok(None),
        }
        // The token `number` would take, failing on any non-digit.
        let b = self.b;
        let mut n = Some(0u64);
        while self.pos < b.len() {
            match b[self.pos] {
                c @ b'0'..=b'9' => {
                    n = n.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(c - b'0')));
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => n = None,
                _ => break,
            }
            self.pos += 1;
        }
        self.after_value = true;
        Ok(n)
    }

    /// The next value if it is `true` or `false`, or `None`.
    pub fn bool(&mut self) -> Result<Option<bool>, String> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| Some(true)),
            Some(b'f') => self.literal("false").map(|()| Some(false)),
            _ => Ok(None),
        }
    }

    /// The next value, unescaped, if it is a string, or `None`. It is
    /// borrowed from the input unless it holds an escape.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if self.peek() != Some(b'"') {
            return Ok(None);
        }
        let s = self.string()?;
        self.after_value = true;
        Ok(Some(s))
    }

    /// The next value as a [`Json`] tree: what [`Json::parse`] builds.
    pub fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.str().map(|s| Json::Str(s.unwrap_or_default().into_owned())),
            Some(b'[') => {
                self.open()?;
                let mut items = Vec::new();
                while self.more()? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.open()?;
                let mut fields = Vec::new();
                while let Some(key) = self.key()? {
                    let val = self.value()?;
                    fields.push((key.into_owned(), val));
                }
                Ok(Json::Obj(fields))
            }
            Some(c) if c.is_ascii_digit() || c == b'-' => Ok(Json::Num(self.number()?.to_string())),
            Some(c) => Err(format!("unexpected byte `{}` at byte {}", char::from(c), self.pos)),
        }
    }

    /// Reads past the next value, checking it exactly as
    /// [`Pull::value`] would, without building it.
    pub fn skip(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'[') => {
                self.open()?;
                while self.more()? {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.open()?;
                while self.key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'"') => self.str().map(drop),
            Some(c) if c.is_ascii_digit() || c == b'-' => self.number().map(drop),
            // A literal, the end of input or a stray byte: no allocation.
            _ => self.value().map(drop),
        }
    }

    /// Reads past the next value as [`Pull::skip`] does and returns its
    /// text exactly as it appears in the input.
    pub fn raw(&mut self) -> Result<&'a str, String> {
        self.skip_ws();
        let start = self.pos;
        self.skip()?;
        self.slice(start, self.pos)
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        self.expect(lit)?;
        self.after_value = true;
        Ok(())
    }

    /// The number at the read position: its first byte is a digit or `-`.
    fn number(&mut self) -> Result<&'a str, String> {
        let (b, start) = (self.b, self.pos);
        self.pos += 1;
        while self.pos < b.len() && matches!(b[self.pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        {
            self.pos += 1;
        }
        self.after_value = true;
        self.slice(start, self.pos)
    }

    /// The string at the read position, unescaped.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect("\"")?;
        let b = self.b;
        let mut owned: Option<String> = None;
        loop {
            // Take the run up to the next quote or backslash in one go.
            // Both are ASCII, so a run never splits a UTF-8 sequence.
            let mut end = self.pos;
            while end < b.len() && b[end] != b'"' && b[end] != b'\\' {
                end += 1;
            }
            let run = self.slice(self.pos, end)?;
            self.pos = end;
            match b.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                // The run stopped at a backslash.
                Some(_) => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    match b.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let pos = self.pos;
                            let hex = b
                                .get(pos + 1..pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {pos}"))?;
                            // Our writers only escape control characters;
                            // surrogate pairs are not produced and map to
                            // the replacement character if encountered.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
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

    #[derive(Debug, Default, PartialEq)]
    struct Inner {
        hist: [[u64; 2]; 2],
        width: u32,
    }
    crate::json_fields!(complete Inner: "inner" { hist, width });

    #[derive(Debug, Default, PartialEq)]
    struct Outer {
        on: bool,
        inner: Inner,
        n: usize,
    }
    crate::json_fields!(complete Outer: "outer" { on, inner, n });

    #[test]
    fn field_lists_write_read_and_name_paths() {
        let v = Outer { on: true, inner: Inner { hist: [[1, 2], [3, u64::MAX]], width: 7 }, n: 9 };
        let mut text = String::new();
        v.write_json(&mut text);
        let want = r#"{"on":true,"inner":{"hist":[[1,2],[3,18446744073709551615]],"width":7},"n":9}"#;
        assert_eq!(text, want);
        let mut back = Outer::default();
        back.apply_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, v);
        let mut paths = Vec::new();
        v.leaf_paths("", &mut paths);
        assert_eq!(paths, ["on", "inner.hist", "inner.width", "n"]);
    }

    #[test]
    fn field_list_errors_name_the_key_and_its_position() {
        // The pull reader words every error as the tree reader does.
        let err = |text: &str| {
            let tree = Outer::default().apply_json(&Json::parse(text).unwrap()).unwrap_err();
            let pull = Outer::default().apply_pull(&mut Pull::new(text)).unwrap_err();
            assert_eq!(pull, tree, "{text}");
            tree
        };
        let full = r#""on":true,"n":1,"inner":{"hist":[[1,2],[3,4]],"width":7}"#;
        assert_eq!(err("[]"), "outer must be a JSON object");
        assert_eq!(err(r#"{"on":true,"n":1}"#), "missing key `inner`");
        assert_eq!(
            err(r#"{"on":true,"n":1,"inner":{"width":7}}"#),
            "inner: missing key `hist`"
        );
        assert_eq!(
            err(&format!("{{{}}}", full.replace("\"width\":7", "\"width\":4294967296"))),
            "inner: key `width` must be an unsigned integer below 2^32 (got 4294967296)"
        );
        assert_eq!(
            err(&format!("{{{}}}", full.replace("[[1,2],[3,4]]", "[[1,2]]"))),
            "inner: key `hist` is not a 2-entry histogram"
        );
        assert_eq!(
            err(&format!("{{{}}}", full.replace("[3,4]", "[3]"))),
            "inner: `hist`[1] is not a [direct, reverse] pair"
        );
        let on = full.replace("true", "1");
        assert_eq!(err(&format!("{{{on}}}")), "key `on` must be a boolean");
        assert!(err(&format!("{{{full},\"of\":1}}")).starts_with("unknown key `of`"));
        assert_eq!(err(&format!("{{{full},\"on\":false}}")), "duplicate key `on`");
        let twice = full.replace("\"width\":7", "\"width\":7,\"width\":7");
        assert_eq!(err(&format!("{{{twice}}}")), "inner: duplicate key `width`");
        assert!(err(&format!("{{{}}}", full.replace("\"n\":1", "\"n\":-1"))).contains("`n`"));
    }

    #[test]
    fn field_lists_read_the_same_through_the_pull_reader() {
        let text = r#" { "n" : 9 , "inner" : { "width" : 7 , "hist" : [ [1,2] , [3,18446744073709551615] ] } , "on" : true } "#;
        let (mut tree, mut pulled) = (Outer::default(), Outer::default());
        tree.apply_json(&Json::parse(text).unwrap()).unwrap();
        let mut p = Pull::new(text);
        pulled.apply_pull(&mut p).unwrap();
        p.end().unwrap();
        assert_eq!(pulled, tree, "any key order, any whitespace");
        assert_eq!(tree.inner.hist[1][1], u64::MAX);
        // An escaped key is the key it spells.
        let escaped = text.replace("\"width\"", &format!("\"wid\\u{:04x}h\"", u32::from('t')));
        assert_ne!(escaped, text);
        let mut again = Outer::default();
        again.apply_pull(&mut Pull::new(&escaped)).unwrap();
        assert_eq!(again, tree);
    }

    #[test]
    fn pull_reader_skips_and_slices_values() {
        let text = r#"{"a":[1,{"b":"x\"y"},null],"c":-2.5e3,"d":"é"}"#;
        let mut p = Pull::new(text);
        assert!(p.begin_obj().unwrap());
        assert_eq!(p.key().unwrap().as_deref(), Some("a"));
        assert_eq!(p.raw().unwrap(), r#"[1,{"b":"x\"y"},null]"#);
        assert_eq!(p.key().unwrap().as_deref(), Some("c"));
        assert_eq!(p.uint().unwrap(), None, "not an unsigned integer");
        assert_eq!(p.key().unwrap().as_deref(), Some("d"));
        assert_eq!(p.str().unwrap().as_deref(), Some("é"));
        assert_eq!(p.key().unwrap(), None);
        p.end().unwrap();
        // `skip` checks what it skips, under the same depth limit.
        for bad in ["[1,]", "{\"a\" 1}", "[1 2]", "{\"a\":1,}", "\"abc", "[", "nul"] {
            assert!(Pull::new(bad).skip().and_then(|()| Pull::new(bad).end()).is_err(), "{bad}");
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Pull::new(&deep).skip().unwrap_err().starts_with("nesting"));
    }

    #[test]
    fn write_u64_matches_display() {
        for n in [0, 7, 10, 99, 12_345, u64::from(u32::MAX) + 1, u64::MAX] {
            let mut out = String::from("x");
            write_u64(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
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
        // `Json::parse` takes `&str`, so only a reader over bytes can
        // meet invalid UTF-8.
        let err = Pull::from_bytes(b"\"ab\xffc\"").err().unwrap();
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

    /// The per-node recursive encoder `dump` used to be: the oracle the
    /// one-buffer writer must match byte for byte.
    fn reference_dump(v: &Json) -> String {
        match v {
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
                let body: Vec<String> = items.iter().map(reference_dump).collect();
                format!("[{}]", body.join(","))
            }
            Json::Obj(fields) => {
                let body: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| {
                        format!("{}:{}", reference_dump(&Json::Str(k.clone())), reference_dump(v))
                    })
                    .collect();
                format!("{{{}}}", body.join(","))
            }
        }
    }

    /// A random tree up to `depth` levels deep whose keys and string
    /// leaves come from `strings`, shaped by the xorshift state `rng`.
    fn random_tree(rng: &mut u64, strings: &[String], depth: usize) -> Json {
        fn next(rng: &mut u64, n: u64) -> u64 {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            *rng % n
        }
        let pick = |rng: &mut u64| strings[next(rng, strings.len() as u64) as usize].clone();
        match next(rng, if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(next(rng, 2) == 1),
            2 => Json::Num(next(rng, u64::MAX).to_string()),
            3 => Json::Str(pick(rng)),
            4 => {
                let len = next(rng, 5);
                Json::Arr((0..len).map(|_| random_tree(rng, strings, depth - 1)).collect())
            }
            _ => {
                let len = next(rng, 5);
                Json::Obj(
                    (0..len).map(|_| (pick(rng), random_tree(rng, strings, depth - 1))).collect(),
                )
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn dump_matches_the_recursive_encoder(
            seed in any::<u64>(),
            strings in proptest::collection::vec(tricky_string(), 1..8),
        ) {
            // xorshift needs a nonzero state.
            let mut rng = seed | 1;
            let v = random_tree(&mut rng, &strings, 5);
            let text = v.dump();
            prop_assert_eq!(&text, &reference_dump(&v));
            let mut appended = String::from("prefix");
            v.dump_into(&mut appended);
            prop_assert_eq!(&appended[6..], &text[..]);
            prop_assert_eq!(Json::parse(&text), Ok(v));
        }

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
