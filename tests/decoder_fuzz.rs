//! The simulator-state decoders never panic, and the lossless stats
//! encoding round-trips any value.
//!
//! `SimConfig::from_json`, `Checkpoint::from_json` and `result_from_json`
//! read files and wire frames another process wrote, so hostile or
//! damaged input must come back as `Err`, never as a panic. They are fed
//! arbitrary token soup, truncations, and single mutations of valid
//! documents: a deleted key, a retyped value, the numbers `-1`, `1e400`
//! and `18446744073709551616`, histograms of the wrong length or with
//! non-pair cells, a repeated or unknown key, and deep nesting. The
//! result decoder is strict too: any mutation that leaves a counter
//! missing, mistyped or repeated is an `Err`, never a zero.
//!
//! The pull readers (`result_from_text`, `SimConfig::apply_pull`) must
//! accept exactly what the tree decoders accept, and decode it to the
//! same value. `ResultCache::load` on arbitrary file bytes returns the
//! stored payload or nothing.
//!
//! Underneath them all, `Json::parse` fed directly — arbitrary bytes,
//! token soup, valid documents with a byte spliced in, bracket runs
//! around its nesting cap — returns `Ok` or `Err`, never nests an
//! accepted value past `MAX_DEPTH`, and re-parses what it dumps of
//! every value it accepts to the same value.

use proptest::prelude::*;
use rix::integration::IntegrationStats;
use rix::isa::json::{Json, MAX_DEPTH};
use rix::mem::{CacheStats, MemSystemStats};
use rix::prelude::*;
use rix::dispatch::ResultCache;
use rix::isa::json::Pull;
use rix::sim::checkpoint::{result_from_json, result_from_text, result_to_json};
use rix::sim::SimStats;
use std::sync::OnceLock;

/// Valid documents of each kind: a config, a checkpoint and a result.
struct Docs {
    config: Json,
    checkpoint: Json,
    result: Json,
}

fn docs() -> &'static Docs {
    static DOCS: OnceLock<Docs> = OnceLock::new();
    DOCS.get_or_init(|| {
        let mut a = Asm::new();
        a.data(0x4000, vec![3, 5, 7]);
        a.addq_i(reg::R1, reg::ZERO, 300);
        a.addq_i(reg::R2, reg::ZERO, 0x4000);
        a.label("loop");
        a.ldq(reg::R3, 0, reg::R2);
        a.addq_i(reg::R3, reg::R3, 1);
        a.stq(reg::R3, 0, reg::R2);
        a.subq_i(reg::R1, reg::R1, 1);
        a.bne(reg::R1, "loop");
        a.halt();
        let program = a.assemble().expect("assembles");
        let cfg = SimConfig::preset("oracle").expect("preset");
        let mut sim = Simulator::new(&program, cfg);
        sim.run_until(&StopWhen::RetiredAtLeast(400));
        let checkpoint = sim.checkpoint().to_json();
        let result = result_to_json(&sim.run_budget(1_000));
        let parse = |text: &str| Json::parse(text).expect("own output parses");
        Docs {
            config: parse(&cfg.to_json()),
            checkpoint: parse(&checkpoint),
            result: parse(&result),
        }
    })
}

/// Runs every decoder on `text`; each must return, `Ok` or `Err`, and
/// each pull reader must agree with its tree decoder. The tree result
/// decoder's verdict is returned.
fn decode_all(text: &str) -> Option<Result<RunResult, String>> {
    let config = SimConfig::from_json(text);
    let mut pulled = SimConfig::default();
    let mut p = Pull::new(text);
    let pull_config = pulled.apply_pull(&mut p).and_then(|()| p.end()).map(|()| pulled);
    assert_eq!(config.as_ref().ok(), pull_config.as_ref().ok(), "config readers differ on {text}");
    let _ = Checkpoint::from_json(text);
    let verdict = Json::parse(text).ok().map(|v| result_from_json(&v));
    let tree = verdict.clone().unwrap_or_else(|| Err("does not parse".to_string()));
    let pull = result_from_text(text);
    assert_eq!(tree.as_ref().ok(), pull.as_ref().ok(), "result readers differ on {text}");
    verdict
}

/// Every node of `v` as the child indices that lead to it (fields and
/// items alike), root first.
fn node_paths(v: &Json, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(path.clone());
    let children: Vec<&Json> = match v {
        Json::Arr(items) => items.iter().collect(),
        Json::Obj(fields) => fields.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        node_paths(child, path, out);
        path.pop();
    }
}

fn node_mut<'a>(v: &'a mut Json, path: &[usize]) -> &'a mut Json {
    match (v, path.split_first()) {
        (v, None) => v,
        (Json::Arr(items), Some((&i, rest))) => node_mut(&mut items[i], rest),
        (Json::Obj(fields), Some((&i, rest))) => node_mut(&mut fields[i].1, rest),
        _ => unreachable!("paths come from node_paths"),
    }
}

/// The position of `key` among an object's fields.
fn field_index(v: &Json, key: &str) -> usize {
    match v {
        Json::Obj(fields) => fields.iter().position(|(k, _)| k == key).expect("key present"),
        _ => panic!("not an object"),
    }
}

fn nested(levels: usize) -> Json {
    (0..levels).fold(Json::Num("1".into()), |inner, _| Json::Arr(vec![inner]))
}

/// What a mutation puts in place of a node.
fn replacement(pick: u64) -> Json {
    let num = |s: &str| Json::Num(s.into());
    match pick % 13 {
        0 => num("-1"),
        1 => num("1e400"),
        2 => num("18446744073709551616"),
        3 => num("4294967296"),
        4 => num("0.5"),
        5 => Json::Str("x".into()),
        6 => Json::Bool(true),
        7 => Json::Null,
        8 => Json::Arr(vec![]),
        9 => Json::Obj(vec![]),
        // A non-pair histogram cell and an over-long one.
        10 => Json::Arr(vec![num("1")]),
        11 => Json::Arr(vec![num("1"), num("2"), num("3")]),
        // Deep nesting: within the parser's limit, so a decoder meets it.
        _ => nested(100),
    }
}

/// What a mutation did to the document.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Change {
    /// A key or an array item is gone (a histogram is one cell short).
    Removed,
    /// An array is one item longer.
    Grown,
    /// A value was replaced by one of another kind.
    Retyped,
    /// A value was replaced by one of the same kind (an integer by an
    /// integer, an object by `{}`), which may still be valid.
    Kept,
}

/// Applies one mutation, chosen by `kind`, at the node `at` picks, and
/// returns the new document, the node's path and what changed.
fn mutate(doc: &Json, kind: u64, at: u64, pick: u64) -> (Json, Vec<usize>, Change) {
    let mut v = doc.clone();
    let mut paths = Vec::new();
    node_paths(&v, &mut Vec::new(), &mut paths);
    let path = paths.swap_remove((at % paths.len() as u64) as usize);
    let node = node_mut(&mut v, &path);
    let change = match (kind % 3, &mut *node) {
        (0, Json::Obj(fields)) if !fields.is_empty() => {
            fields.remove((pick % fields.len() as u64) as usize);
            Change::Removed
        }
        (0, Json::Arr(items)) if !items.is_empty() => {
            items.remove((pick % items.len() as u64) as usize);
            Change::Removed
        }
        (1, Json::Arr(items)) if !items.is_empty() => {
            items.push(items[0].clone());
            Change::Grown
        }
        _ => {
            let new = replacement(pick);
            let same_kind = match (&*node, &new) {
                (Json::Num(_), n) => n.as_u64().is_some(),
                (Json::Bool(_), Json::Bool(_)) | (Json::Obj(_), Json::Obj(_)) => true,
                _ => false,
            };
            *node = new;
            if same_kind {
                Change::Kept
            } else {
                Change::Retyped
            }
        }
    };
    (v, path, change)
}

/// Token soup: JSON punctuation, literals, the documents' own keys and
/// the awkward numbers.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ",", ":", " ", "\"", "\\", "0", "7", "-1", "1e400",
    "18446744073709551616", "true", "false", "null", "\"stats\"", "\"cycles\"",
    "\"schema\"", "\"rix-ckpt/1\"", "\"halted\"", "\"by_type\"", "\"core\"",
    "\"integration\"", "\"gen_bits\"", "\"oracle\"", "\"\\u00zz\"", "é", "\u{1f}",
    "\"key\"", "\"payload\"", "\"rix-trial-cache/1\"", "\"0123456789abcdef0123456789abcdef\"",
];

/// The key [`fuzz_cache`] stores its entry under.
const FUZZ_KEY: &str = "0123456789abcdef0123456789abcdef";

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn token_soup_is_rejected_without_panicking(
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..48),
    ) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        decode_all(&text);
    }

    #[test]
    fn json_parse_returns_on_any_input_and_round_trips_what_it_accepts(
        how in 0u64..4,
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..48),
        words in proptest::collection::vec(any::<u64>(), 64..65),
        levels in 0usize..4,
        at in any::<u64>(),
    ) {
        let mut k = 0;
        let mut n = || {
            k += 1;
            words[k % words.len()]
        };
        let soup: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let brackets = MAX_DEPTH - 2 + (at % 5) as usize;
        let text = match how {
            0 => String::from_utf8_lossy(&bytes).into_owned(),
            1 => soup.clone(),
            // A valid document with one arbitrary byte spliced in.
            2 => {
                let mut doc = random_json(&mut n, levels).dump().into_bytes();
                let at = (at % (doc.len() as u64 + 1)) as usize;
                doc.insert(at, bytes.first().copied().unwrap_or(b'"'));
                String::from_utf8_lossy(&doc).into_owned()
            }
            // Bracket runs at the nesting cap, around token soup.
            _ => format!("{}{soup}{}", "[".repeat(brackets), "]".repeat(brackets)),
        };
        match Json::parse(&text) {
            Ok(v) => {
                prop_assert!(depth(&v) <= MAX_DEPTH, "accepted {} levels", depth(&v));
                prop_assert_eq!(Json::parse(&v.dump()), Ok(v.clone()));
            }
            Err(e) => prop_assert!(!e.is_empty()),
        }
        if how == 3 && soup.is_empty() {
            prop_assert_eq!(Json::parse(&text).is_ok(), brackets <= MAX_DEPTH);
        }
        let v = random_json(&mut n, levels);
        prop_assert_eq!(Json::parse(&v.dump()), Ok(v));
    }

    #[test]
    fn truncated_documents_are_errors(which in 0u64..3, cut in any::<u64>()) {
        let d = docs();
        let text = [&d.config, &d.checkpoint, &d.result][which as usize].dump();
        let cut = (cut % text.len() as u64) as usize;
        // Every document is ASCII, so any byte index is a char boundary.
        let prefix = &text[..cut];
        prop_assert!(SimConfig::from_json(prefix).is_err());
        prop_assert!(Checkpoint::from_json(prefix).is_err());
        prop_assert!(decode_all(prefix).is_none(), "a strict prefix never parses");
    }

    #[test]
    fn mutated_documents_decode_or_fail_cleanly(
        which in 0u64..3,
        kind in any::<u64>(),
        at in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let d = docs();
        let doc = [&d.config, &d.checkpoint, &d.result][which as usize];
        let (mutated, path, change) = mutate(doc, kind, at, pick);
        let text = mutated.dump();
        let verdict = decode_all(&text).expect("a mutated tree dumps to parseable text");
        match which {
            // A config is a partial overlay: a missing key keeps its
            // default, a value of the wrong kind is refused.
            0 => match change {
                Change::Removed => prop_assert!(SimConfig::from_json(&text).is_ok(), "{}", text),
                Change::Retyped => prop_assert!(SimConfig::from_json(&text).is_err(), "{}", text),
                Change::Grown | Change::Kept => {}
            },
            // A checkpoint is strict, except that memory words may come
            // and go.
            1 => {
                let arch = field_index(doc, "arch");
                let mem = [arch, field_index(doc.get("arch").expect("arch"), "mem")];
                let words = path == mem && matches!(change, Change::Removed | Change::Grown);
                if !words && change != Change::Kept {
                    prop_assert!(Checkpoint::from_json(&text).is_err(), "accepted {}", text);
                }
            }
            // The lossless result format is strict: nothing defaults.
            _ => {
                if change != Change::Kept {
                    prop_assert!(verdict.is_err(), "accepted {}", text);
                }
            }
        }
    }

    #[test]
    fn random_stats_round_trip_losslessly(
        words in proptest::collection::vec(any::<u64>(), 80..81),
        halted in any::<bool>(),
        timed_out in any::<bool>(),
    ) {
        let mut next = words.into_iter();
        let mut n = move || next.next().expect("enough random words");
        let stats = random_stats(&mut n);
        let r = RunResult { stats, halted, timed_out };
        let text = result_to_json(&r);
        let back = result_from_json(&Json::parse(&text).expect("well-formed"))
            .expect("own output decodes");
        prop_assert_eq!(&back, &r);
        prop_assert_eq!(&result_to_json(&back), &text, "byte-stable re-encoding");
        let pulled = result_from_text(&text).expect("the pull reader decodes it");
        prop_assert_eq!(&pulled, &r);
        prop_assert_eq!(result_to_json(&pulled), text, "byte-stable after the pull reader");
    }

    #[test]
    fn repeated_and_unknown_keys_are_rejected_by_both_readers(
        at in any::<u64>(),
        pick in any::<u64>(),
        unknown in any::<bool>(),
    ) {
        let doc = &docs().result;
        let mut objects = Vec::new();
        node_paths(doc, &mut Vec::new(), &mut objects);
        objects.retain(|path| matches!(node_at(doc, path), Json::Obj(_)));
        let mut v = doc.clone();
        let path = &objects[(at % objects.len() as u64) as usize];
        let Json::Obj(fields) = node_mut(&mut v, path) else { unreachable!("an object") };
        let (key, value) = fields[(pick % fields.len() as u64) as usize].clone();
        let key = if unknown { format!("{key}_x") } else { key };
        let to = ((pick >> 32) % (fields.len() as u64 + 1)) as usize;
        fields.insert(to, (key, value));
        let text = v.dump();
        let verdict = decode_all(&text).expect("a mutated tree dumps to parseable text");
        prop_assert!(verdict.is_err(), "accepted {}", text);
    }

    #[test]
    fn invalid_utf8_is_an_error_for_the_byte_reader(
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..24),
        bad in 0usize..4,
        at in any::<u64>(),
    ) {
        let mut bytes: Vec<u8> = picks.iter().flat_map(|&i| TOKENS[i].bytes()).collect();
        let seq: &[u8] = [&b"\xff"[..], b"\xc3", b"\xed\xa0\x80", b"\xf0\x9f"][bad];
        let at = (at % (bytes.len() as u64 + 1)) as usize;
        bytes.splice(at..at, seq.iter().copied());
        prop_assert!(Pull::from_bytes(&bytes).is_err());
    }

    #[test]
    fn a_cache_entry_of_arbitrary_bytes_loads_as_the_stored_payload_or_nothing(
        how in 0u64..4,
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..48),
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let (cache, key, payload) = fuzz_cache();
        let path = cache.dir().join(format!("{key}.json"));
        let entry = std::fs::read(&path).expect("the stored entry");
        let at = (at % entry.len() as u64) as usize;
        let bytes = match how {
            // Token soup, with the entry's own framing among the tokens.
            0 => picks.iter().flat_map(|&i| TOKENS[i].bytes()).collect(),
            // A truncation.
            1 => entry[..at].to_vec(),
            // One non-ASCII byte inserted: the entry is ASCII, so this
            // is never UTF-8.
            2 => [&entry[..at], &[byte | 0x80], &entry[at..]].concat(),
            // Trailing bytes after the entry.
            _ => [&entry[..], &[byte]].concat(),
        };
        std::fs::write(&path, &bytes).expect("rewrites the entry");
        let loaded = cache.load(&key);
        std::fs::write(&path, &entry).expect("restores the entry");
        prop_assert!(loaded.is_none() || loaded.as_ref() == Some(&payload), "{:?}", loaded);
        if how == 1 && at < entry.len() - 1 {
            prop_assert!(loaded.is_none(), "a truncated entry is a miss");
        }
    }
}

/// How deeply `v`'s arrays and objects nest (a scalar is 0).
fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// A random value, `levels` deep at most, drawn from `n`: awkward
/// numbers, strings with quotes, escapes, control and non-ASCII
/// characters, and arrays and objects of those.
fn random_json(n: &mut impl FnMut() -> u64, levels: usize) -> Json {
    const NUMS: [&str; 6] = ["0", "-1", "1e400", "18446744073709551616", "0.5", "-0.0e-7"];
    const CHARS: [char; 8] = ['a', '"', '\\', '\n', '\u{1}', 'é', '\u{1f600}', '/'];
    let w = n();
    let count = (w >> 8) % 4;
    match w % if levels == 0 { 5 } else { 7 } {
        0 => Json::Null,
        1 => Json::Bool(w & 1 << 12 != 0),
        2 => Json::Num(NUMS[(w >> 8) as usize % NUMS.len()].into()),
        3 | 4 => Json::Str((0..count * 2).map(|k| CHARS[(w >> (16 + 3 * k)) as usize % 8]).collect()),
        5 => Json::Arr((0..count).map(|_| random_json(n, levels - 1)).collect()),
        _ => Json::Obj((0..count).map(|k| (format!("k{k}"), random_json(n, levels - 1))).collect()),
    }
}

/// The node at `path` (see [`node_paths`]).
fn node_at<'a>(v: &'a Json, path: &[usize]) -> &'a Json {
    match (v, path.split_first()) {
        (v, None) => v,
        (Json::Arr(items), Some((&i, rest))) => node_at(&items[i], rest),
        (Json::Obj(fields), Some((&i, rest))) => node_at(&fields[i].1, rest),
        _ => unreachable!("paths come from node_paths"),
    }
}

/// A cache holding one entry: the result document's payload under a
/// fixed key. Each test thread gets its own directory.
fn fuzz_cache() -> (ResultCache, String, Json) {
    let dir = std::env::temp_dir().join(format!(
        "rix-decoder-fuzz-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let cache = ResultCache::open(&dir).expect("opens");
    let key = FUZZ_KEY.to_string();
    let payload = Json::Obj(vec![("result".into(), docs().result.clone())]);
    cache.store(&key, &payload).expect("stores");
    (cache, key, payload)
}

/// A `SimStats` with every counter and every histogram cell drawn from
/// `n`. No `..Default::default()`: a new counter must be added here.
fn random_stats(n: &mut impl FnMut() -> u64) -> SimStats {
    fn hist<const N: usize>(n: &mut impl FnMut() -> u64) -> [[u64; 2]; N] {
        std::array::from_fn(|_| [n(), n()])
    }
    fn cache(n: &mut impl FnMut() -> u64) -> CacheStats {
        CacheStats { hits: n(), misses: n(), writebacks: n() }
    }
    SimStats {
        cycles: n(),
        retired: n(),
        fetched: n(),
        executed: n(),
        loads_executed: n(),
        loads_retired: n(),
        stores_retired: n(),
        integration: IntegrationStats {
            direct: n(),
            reverse: n(),
            retired: n(),
            mis_integrations: n(),
            load_mis_integrations: n(),
            register_mis_integrations: n(),
            suppressed: n(),
            by_type: hist(n),
            by_distance: hist(n),
            by_status: hist(n),
            by_refcount: hist(n),
        },
        cond_branches_retired: n(),
        branch_mispredicts: n(),
        resolution_latency_sum: n(),
        squashes_branch: n(),
        squashes_memorder: n(),
        squashes_diva: n(),
        rs_occupancy_sum: n(),
        rob_occupancy_sum: n(),
        stalls_preg: n(),
        stalls_rob: n(),
        stalls_rs: n(),
        stalls_lsq: n(),
        stalls_writebuf: n(),
        mem: MemSystemStats {
            l1i: cache(n),
            l1d: cache(n),
            l2: cache(n),
            itlb_misses: n(),
            dtlb_misses: n(),
            mshr_merges: n(),
            write_buffer_stalls: n(),
            backside_busy: n(),
            membus_busy: n(),
        },
    }
}

#[test]
fn nesting_past_the_parser_limit_is_an_error() {
    let d = docs();
    for doc in [&d.config, &d.checkpoint, &d.result] {
        let mut deep = doc.clone();
        let mut paths = Vec::new();
        node_paths(&deep, &mut Vec::new(), &mut paths);
        let leaf = paths.last().expect("non-empty");
        *node_mut(&mut deep, leaf) = nested(MAX_DEPTH + 10);
        let text = deep.dump();
        assert!(SimConfig::from_json(&text).unwrap_err().starts_with("nesting"));
        assert!(Checkpoint::from_json(&text).unwrap_err().starts_with("nesting"));
        assert!(decode_all(&text).is_none());
        assert!(result_from_text(&text).is_err());
    }
}
