//! Property test: `SimConfig` ⇄ JSON is exact.
//!
//! Random field mutations — every leaf of [`SimConfig::field_paths`],
//! including enums, bools and 64-bit integers — round-trip through
//! `to_json` / `from_json` with structural equality and byte-identical
//! re-serialisation, and `to_json` is already canonical (`Json::dump`
//! of its parse gives the same text back). Alongside, the error paths:
//! unknown keys, bad enum names and integers too wide for their field
//! are rejected with messages naming the offender.

use proptest::prelude::*;
use rix::isa::json::Json;
use rix::prelude::*;

/// A type-appropriate random value for one leaf field.
fn value_for(leaf: &str, x: u64) -> Json {
    match leaf {
        "shared_ldst" | "enabled" | "general_reuse" => Json::Bool(x.is_multiple_of(2)),
        "index" => Json::Str(["pc", "opcode_depth"][x as usize % 2].into()),
        "reverse" => {
            Json::Str(["off", "stack_pointer", "all_invertible"][x as usize % 3].into())
        }
        "suppression" => Json::Str(["lisp", "oracle"][x as usize % 2].into()),
        // Every integer leaf gets the full u64 range: round-tripping is
        // about serialisation, not machine buildability.
        _ => Json::Num(x.to_string()),
    }
}

/// The leaves stored as `u32`; every other integer leaf holds any `u64`.
const U32_LEAVES: &[&str] = &["gen_bits", "count_bits", "history_bits"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn simconfig_json_round_trip_is_exact(
        muts in proptest::collection::vec(
            (0usize..SimConfig::field_paths().len(), any::<u64>(), any::<bool>()),
            0..12,
        )
    ) {
        let mut cfg = SimConfig::default();
        for (pi, x, narrow) in muts {
            let path = &SimConfig::field_paths()[pi];
            let leaf = path.rsplit('.').next().expect("paths are non-empty");
            // Half the probes stay below 2^32 so the u32 leaves are hit
            // in range as well as out of it.
            let x = if narrow { x >> 32 } else { x };
            let before = cfg;
            let res = cfg.set_path(path, &value_for(leaf, x));
            if U32_LEAVES.contains(&leaf) && x > u64::from(u32::MAX) {
                let err = res.expect_err("an out-of-range u32 is rejected, not truncated");
                prop_assert!(err.contains(&format!("`{leaf}`")), "{}", err);
                prop_assert_eq!(cfg, before, "a rejected value leaves the config as it was");
            } else {
                res.expect("valid probe value");
            }
        }
        let json = cfg.to_json();
        prop_assert_eq!(Json::parse(&json).expect("parses").dump(), json.clone(), "canonical");
        let back = SimConfig::from_json(&json).expect("own serialisation parses");
        prop_assert_eq!(back, cfg, "structural equality after the round trip");
        prop_assert_eq!(back.to_json(), json, "byte-identical re-serialisation");
    }
}

#[test]
fn every_preset_round_trips_exactly() {
    for (name, _) in SimConfig::PRESET_NAMES {
        let cfg = SimConfig::preset(name).expect("listed preset resolves");
        let back = SimConfig::from_json(&cfg.to_json()).expect("parses");
        assert_eq!(back, cfg, "preset `{name}`");
        assert_eq!(back.to_json(), cfg.to_json(), "preset `{name}` serialisation");
        // And the emitted JSON is well-formed for external tooling.
        assert!(Json::parse(&cfg.to_json()).is_ok());
        // It is already canonical, so cache keys can splice it as it is.
        assert_eq!(Json::parse(&cfg.to_json()).unwrap().dump(), cfg.to_json(), "`{name}`");
    }
}

#[test]
fn narrow_integers_are_range_checked_not_truncated() {
    // 2^32 + 4 used to wrap to 4, pass `validate` and run another machine.
    for (doc, key) in [
        (r#"{"integration":{"gen_bits":4294967300}}"#, "gen_bits"),
        (r#"{"integration":{"count_bits":4294967296}}"#, "count_bits"),
        (r#"{"predictor":{"history_bits":18446744073709551615}}"#, "history_bits"),
    ] {
        let err = SimConfig::from_json(doc).unwrap_err();
        let want = format!("key `{key}` must be an unsigned integer below 2^32");
        assert!(err.contains(&want), "{err}");
        assert!(err.contains("(got "), "names the value: {err}");
    }
    let top = SimConfig::from_json(r#"{"integration":{"gen_bits":4294967295}}"#).unwrap();
    assert_eq!(top.integration.gen_bits, u32::MAX, "the largest u32 is in range");
    // A number no integer field can hold is a type error, as before.
    let err = SimConfig::from_json(r#"{"num_pregs":18446744073709551616}"#).unwrap_err();
    assert_eq!(err, "key `num_pregs` must be an unsigned integer");
}

#[test]
fn unknown_keys_name_the_offender_at_depth() {
    for (doc, offender, suggestion) in [
        (r#"{"nun_pregs": 1}"#, "nun_pregs", "num_pregs"),
        (r#"{"core": {"issue": {"widht": 3}}}"#, "widht", "width"),
        (r#"{"predictor": {"history_bitz": 9}}"#, "history_bitz", "history_bits"),
        (r#"{"mem": {"l2": {"hit_latensy": 9}}}"#, "hit_latensy", "hit_latency"),
    ] {
        let err = SimConfig::from_json(doc).unwrap_err();
        assert!(err.contains(&format!("unknown key `{offender}`")), "{doc}: {err}");
        assert!(err.contains(suggestion), "{doc} suggests `{suggestion}`: {err}");
    }
}

#[test]
fn enum_typos_list_the_choices() {
    let err = SimConfig::from_json(r#"{"integration":{"index":"opcode"}}"#).unwrap_err();
    assert!(err.contains("opcode_depth"), "{err}");
    let err = SimConfig::from_json(r#"{"integration":{"reverse":"stack"}}"#).unwrap_err();
    assert!(err.contains("stack_pointer"), "{err}");
}
