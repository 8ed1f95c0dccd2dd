//! A trial cache written by an earlier release still loads in full.
//!
//! `tests/goldens/trial_cache/` holds the four entries the release
//! before the text-spliced cache wrote for a 2 benchmark × 2 arm grid at
//! 1 500 instructions. Every cache on disk was written that way, so a
//! change to how entries are keyed, framed or decoded must leave them
//! all hits with unchanged trials, and must write the same bytes again.

use rix::dispatch::ResultCache;
use rix::prelude::*;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/trial_cache")
}

/// The grid the fixture was written for.
fn grid() -> Sweep {
    Sweep::new()
        .benchmarks(all_benchmarks().into_iter().take(2))
        .config("base", SimConfig::baseline())
        .config("integration", SimConfig::default())
        .instructions(1_500)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rix-cache-fixture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Every entry file in `dir` as (name, bytes), in name order.
fn entries(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("cache dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().into_string().expect("utf-8 name");
            (name, std::fs::read(e.path()).expect("entry reads"))
        })
        .filter(|(name, _)| name.ends_with(".json"))
        .collect();
    files.sort();
    files
}

fn cached(dir: &Path) -> DispatchOptions {
    DispatchOptions {
        cache: Some(dir.to_str().expect("utf-8 temp dir").to_string()),
        ..DispatchOptions::default()
    }
}

#[test]
fn an_earlier_release_cache_is_all_hits_and_rewrites_byte_identically() {
    let fixture = entries(&fixture_dir());
    assert_eq!(fixture.len(), 4, "one entry per cell");
    let dir = scratch("warm");
    for (name, bytes) in &fixture {
        std::fs::write(dir.join(name), bytes).expect("copy entry");
    }

    // Every cell is a hit, and the trials are an uncached run's.
    let (warm, report) = grid().run_distributed(&cached(&dir)).expect("warm run");
    assert_eq!((report.cache_hits, report.simulated), (4, 0), "{report:?}");
    let reference = grid().try_run().expect("uncached run");
    let json = |trials: &[Trial]| trials.iter().map(Trial::to_json).collect::<Vec<_>>();
    assert_eq!(json(&warm), json(&reference));
    assert_eq!(entries(&dir), fixture, "hits write nothing");

    // Re-storing each payload, as text or as a tree, writes the same
    // bytes.
    let cache = ResultCache::open(&dir).expect("opens");
    for (name, bytes) in &fixture {
        let key = name.strip_suffix(".json").expect("entry name");
        let text = cache.load_text(key).expect("hit");
        cache.store_text(key, &text).expect("stores");
        assert_eq!(&std::fs::read(dir.join(name)).expect("reads"), bytes, "{name} as text");
        let tree = cache.load(key).expect("hit");
        cache.store(key, &tree).expect("stores");
        assert_eq!(&std::fs::read(dir.join(name)).expect("reads"), bytes, "{name} as a tree");
    }

    // A cold run of the same grid writes exactly the fixture.
    let cold = scratch("cold");
    let (trials, report) = grid().run_distributed(&cached(&cold)).expect("cold run");
    assert_eq!((report.cache_hits, report.simulated), (0, 4), "{report:?}");
    assert_eq!(json(&trials), json(&reference));
    assert_eq!(entries(&cold), fixture, "freshly written entries");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cold);
}
