//! The content-addressed trial cache (`--cache DIR`).
//!
//! One file per cell result, named by the 128-bit content hash of the
//! cell's *descriptor* (everything that determines the result:
//! benchmark, seed, config, budgets, warm-up provenance — built by the
//! caller, hashed with [`crate::hash::fnv128_hex`]). Entries are
//! `rix-trial-cache/1` JSON documents written atomically (temp file in
//! the cache directory, then `rename`), so a reader never observes a
//! torn entry and concurrent writers of the same key converge on one
//! winner with identical content.
//!
//! The cache is **forgiving on read, strict on write**: any unreadable,
//! unparsable, truncated or mismatched entry is a miss — the cell is
//! simply re-simulated and the entry rewritten — never an error. A
//! cache can be deleted, rsynced, or half-written by a crashed run
//! without poisoning anything.

use crate::hash::fnv128_hex;
use rix_isa::json::Json;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, SystemTime};

/// The on-disk entry schema.
pub const CACHE_SCHEMA: &str = "rix-trial-cache/1";

/// Aggregate statistics over a cache directory's committed entries —
/// what `exp cache stats` reports for a long-lived service cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries that pass the full load checks (schema, recorded key).
    pub entries: usize,
    /// `*.json` files that fail them — unparsable, truncated, wrong
    /// schema, or filed under the wrong key. Read as misses at lookup
    /// time; counted here so an operator can see rot.
    pub corrupt: usize,
    /// Total size of all `*.json` entry files, valid and corrupt.
    pub bytes: u64,
}

/// When this process started, captured once — the stale-temp-file
/// cutoff. A temp file older than this cannot belong to a live write of
/// ours, and a concurrent writer's temp file only exists for the
/// instant between write and rename — so anything predating our start
/// is a crash leftover.
fn process_start() -> SystemTime {
    static START: OnceLock<SystemTime> = OnceLock::new();
    *START.get_or_init(SystemTime::now)
}

/// Records that this process has opened `dir`; true on the first call
/// for that path.
fn first_open(dir: &Path) -> bool {
    static OPENED: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    OPENED
        .get_or_init(Mutex::default)
        .lock()
        .expect("opened-directory set is never poisoned")
        .insert(dir.to_path_buf())
}

/// A directory of content-addressed cell results. See the
/// [module docs](self).
#[derive(Clone, Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory. The first open of
    /// a directory in this process sweeps away temp files left behind by
    /// crashed writers (anything matching the `.{key}.{pid}.tmp` shape
    /// with a modification time before this process started). Later
    /// opens skip the directory scan: every file it could remove was
    /// already there at the first sweep, so opening stays cheap however
    /// many entries the cache holds.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, String> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache directory `{}`: {e}", dir.display()))?;
        let cache = Self { dir };
        if first_open(&cache.dir) {
            cache.sweep_stale_tmp(process_start());
        }
        Ok(cache)
    }

    /// Deletes crash-leftover temp files older than `cutoff`. Best
    /// effort on a shared directory: races (another opener sweeping the
    /// same file, a writer renaming it away) just make the remove a
    /// no-op, and sweep failures never fail the open.
    fn sweep_stale_tmp(&self, cutoff: SystemTime) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !(name.starts_with('.') && name.ends_with(".tmp")) {
                continue;
            }
            let stale = entry
                .metadata()
                .and_then(|m| m.modified())
                .is_ok_and(|mtime| mtime < cutoff);
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The cache key for a cell descriptor: the 32-hex-digit 128-bit
    /// FNV-1a of its canonical text. Two descriptors that differ in any
    /// byte get unrelated keys; the descriptor itself is not stored.
    #[must_use]
    pub fn key(descriptor: &str) -> String {
        fnv128_hex(descriptor.as_bytes())
    }

    /// Whether `key` has the shape [`ResultCache::key`] produces: 32
    /// lowercase hex digits. The key becomes a file name, so nothing
    /// else is ever stored or looked up.
    fn valid_key(key: &str) -> bool {
        key.len() == 32 && key.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Looks up `key`, returning the stored payload on a hit. Every
    /// failure mode — no entry, unreadable file, corrupt JSON, a
    /// truncated write from a crashed run, an entry recorded under a
    /// different schema or key, a key not shaped like
    /// [`ResultCache::key`]'s — is a miss (`None`), never an error.
    #[must_use]
    pub fn load(&self, key: &str) -> Option<Json> {
        if !Self::valid_key(key) {
            return None;
        }
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let v = Json::parse(text.trim_end()).ok()?;
        if v.get("schema")?.as_str()? != CACHE_SCHEMA {
            return None;
        }
        if v.get("key")?.as_str()? != key {
            return None;
        }
        let Json::Obj(fields) = v else { return None };
        fields.into_iter().find_map(|(k, payload)| (k == "payload").then_some(payload))
    }

    /// Stores `payload` under `key`, atomically: the entry is written
    /// to a temporary file in the cache directory and renamed into
    /// place, so concurrent readers see either the old entry or the
    /// complete new one. A key not shaped like [`ResultCache::key`]'s
    /// is refused.
    pub fn store(&self, key: &str, payload: &Json) -> Result<(), String> {
        if !Self::valid_key(key) {
            return Err(format!("invalid cache key {key:?} (expected 32 lowercase hex digits)"));
        }
        let entry = Json::Obj(vec![
            ("schema".into(), Json::Str(CACHE_SCHEMA.into())),
            ("key".into(), Json::Str(key.into())),
            ("payload".into(), payload.clone()),
        ]);
        let tmp = self.dir.join(format!(".{key}.{}.tmp", std::process::id()));
        let target = self.entry_path(key);
        std::fs::write(&tmp, format!("{}\n", entry.dump()))
            .map_err(|e| format!("cannot write cache entry `{}`: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &target).map_err(|e| {
            // Clean the orphan up; the rename error is the one to report.
            let _ = std::fs::remove_file(&tmp);
            format!("cannot commit cache entry `{}`: {e}", target.display())
        })
    }

    /// Every committed entry file in the directory (`{key}.json`, temp
    /// files excluded), with its key.
    fn entry_files(&self) -> Result<Vec<(String, PathBuf)>, String> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| format!("cannot read cache directory `{}`: {e}", self.dir.display()))?;
        let mut files = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with('.') {
                continue;
            }
            let Some(key) = name.strip_suffix(".json") else { continue };
            files.push((key.to_string(), entry.path()));
        }
        files.sort();
        Ok(files)
    }

    /// Walks the directory and classifies every committed entry:
    /// loadable entries versus corrupt ones, plus their total size.
    pub fn stats(&self) -> Result<CacheStats, String> {
        let mut stats = CacheStats::default();
        for (key, path) in self.entry_files()? {
            stats.bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            if self.load(&key).is_some() {
                stats.entries += 1;
            } else {
                stats.corrupt += 1;
            }
        }
        Ok(stats)
    }

    /// Removes every committed entry whose modification time is at
    /// least `older_than` in the past (so `0s` prunes everything), and
    /// returns how many were removed. Entries touched concurrently by
    /// another process simply survive until a later sweep; a remove
    /// racing a rewrite is a harmless no-op.
    pub fn gc(&self, older_than: Duration) -> Result<usize, String> {
        let cutoff = SystemTime::now()
            .checked_sub(older_than)
            .unwrap_or(SystemTime::UNIX_EPOCH);
        let mut removed = 0usize;
        for (_, path) in self.entry_files()? {
            let old = std::fs::metadata(&path)
                .and_then(|m| m.modified())
                .is_ok_and(|mtime| mtime <= cutoff);
            if old && std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rix-cache-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = ResultCache::open(scratch_dir("roundtrip")).unwrap();
        let key = ResultCache::key("cell descriptor text");
        assert_eq!(cache.load(&key), None, "cold cache misses");
        let payload = Json::parse(r#"{"result":{"cycles":41},"note":"x"}"#).unwrap();
        cache.store(&key, &payload).unwrap();
        assert_eq!(cache.load(&key), Some(payload));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_truncated_and_mismatched_entries_are_misses() {
        let cache = ResultCache::open(scratch_dir("corrupt")).unwrap();
        let key = ResultCache::key("the cell");
        let payload = Json::parse(r#"{"v":1}"#).unwrap();
        cache.store(&key, &payload).unwrap();
        let path = cache.dir().join(format!("{key}.json"));

        // Truncated mid-write (a crash before rename never leaves this,
        // but a copied/rsynced cache could).
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(cache.load(&key), None, "truncated entry is a miss, not a crash");

        // Not JSON at all.
        std::fs::write(&path, "not json\n").unwrap();
        assert_eq!(cache.load(&key), None);

        // Valid JSON, wrong schema.
        std::fs::write(&path, r#"{"schema":"rix-perf/1","key":"x","payload":{}}"#).unwrap();
        assert_eq!(cache.load(&key), None);

        // Valid entry filed under the wrong key (manual rename).
        let other = ResultCache::key("another cell");
        cache.store(&other, &payload).unwrap();
        std::fs::rename(cache.dir().join(format!("{other}.json")), &path).unwrap();
        assert_eq!(cache.load(&key), None, "key recorded inside the entry must match");

        // And a rewrite heals it.
        cache.store(&key, &payload).unwrap();
        assert_eq!(cache.load(&key), Some(payload));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stale_tmp_files_are_swept_fresh_ones_kept() {
        let dir = scratch_dir("tmp-sweep");
        let cache = ResultCache::open(&dir).unwrap();
        let stale = dir.join(".deadbeef.12345.tmp");
        let fresh = dir.join(".cafebabe.12346.tmp");
        let entry = dir.join("deadbeef.json");
        std::fs::write(&stale, "half-written").unwrap();
        std::fs::write(&fresh, "in flight").unwrap();
        std::fs::write(&entry, "a real entry").unwrap();

        // A cutoff in the future marks both tmp files stale; real
        // entries are never touched.
        cache.sweep_stale_tmp(SystemTime::now() + std::time::Duration::from_secs(3600));
        assert!(!stale.exists(), "stale tmp file swept");
        assert!(!fresh.exists());
        assert!(entry.exists(), "committed entries survive the sweep");

        // A cutoff in the past keeps everything.
        std::fs::write(&stale, "half-written").unwrap();
        cache.sweep_stale_tmp(SystemTime::now() - std::time::Duration::from_secs(3600));
        assert!(stale.exists(), "young tmp files are presumed live");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn open_does_not_sweep_tmp_files_written_after_process_start() {
        // An in-flight writer's tmp file (necessarily younger than any
        // live process's start) must survive a concurrent open.
        let dir = scratch_dir("tmp-live");
        std::fs::create_dir_all(&dir).unwrap();
        let live = dir.join(".0123abcd.999.tmp");
        std::fs::write(&live, "concurrent write in flight").unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert!(live.exists(), "open must not sweep fresh tmp files");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn open_sweeps_each_directory_once_per_process() {
        let dir = scratch_dir("sweep-once");
        std::fs::create_dir_all(&dir).unwrap();
        // A crash leftover: older than this process.
        let plant = |name: &str| {
            let path = dir.join(name);
            std::fs::File::create(&path)
                .unwrap()
                .set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(1))
                .unwrap();
            path
        };
        let before = plant(".aaaa.1.tmp");
        let cache = ResultCache::open(&dir).unwrap();
        assert!(!before.exists(), "the first open sweeps crash leftovers");
        let after = plant(".bbbb.2.tmp");
        ResultCache::open(&dir).unwrap();
        assert!(after.exists(), "later opens skip the directory scan");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stats_classify_valid_and_corrupt_entries() {
        let cache = ResultCache::open(scratch_dir("stats")).unwrap();
        assert_eq!(cache.stats().unwrap(), CacheStats::default(), "empty cache");
        let payload = Json::parse(r#"{"v":1}"#).unwrap();
        for d in ["a", "b", "c"] {
            cache.store(&ResultCache::key(d), &payload).unwrap();
        }
        let bad = ResultCache::key("doomed");
        cache.store(&bad, &payload).unwrap();
        std::fs::write(cache.dir().join(format!("{bad}.json")), "not json").unwrap();
        // Temp files and non-entry files are not counted at all.
        std::fs::write(cache.dir().join(".0123.42.tmp"), "in flight").unwrap();
        std::fs::write(cache.dir().join("README"), "notes").unwrap();

        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.corrupt, 1);
        assert!(stats.bytes > 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn gc_prunes_by_age_and_zero_prunes_everything() {
        let cache = ResultCache::open(scratch_dir("gc")).unwrap();
        let payload = Json::parse(r#"{"v":1}"#).unwrap();
        for d in ["a", "b"] {
            cache.store(&ResultCache::key(d), &payload).unwrap();
        }
        // Freshly-written entries are younger than an hour.
        assert_eq!(cache.gc(std::time::Duration::from_secs(3600)).unwrap(), 0);
        assert_eq!(cache.stats().unwrap().entries, 2, "young entries survive");
        // A zero threshold means "older than now": everything goes.
        assert_eq!(cache.gc(std::time::Duration::ZERO).unwrap(), 2);
        assert_eq!(cache.stats().unwrap(), CacheStats::default());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn keys_not_shaped_like_key_output_are_refused() {
        let dir = scratch_dir("bad-keys");
        let cache = ResultCache::open(&dir).unwrap();
        let payload = Json::parse(r#"{"v":1}"#).unwrap();
        let good = ResultCache::key("a cell");
        let bad = [
            "../x".to_string(),
            "/tmp/x".to_string(),
            good.to_uppercase(),
            good[..31].to_string(),
            format!("{good}0"),
            String::new(),
        ];
        for key in &bad {
            let err = cache.store(key, &payload).unwrap_err();
            assert!(err.contains("invalid cache key"), "{key:?}: {err}");
            assert_eq!(cache.load(key), None, "{key:?}");
        }
        // Nothing was written, inside the directory or out of it.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        assert!(!dir.parent().unwrap().join("x.json").exists());
        cache.store(&good, &payload).unwrap();
        assert_eq!(cache.load(&good), Some(payload));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_descriptors_distinct_keys() {
        let a = ResultCache::key(r#"{"bench":"gcc","seed":7}"#);
        let b = ResultCache::key(r#"{"bench":"gcc","seed":8}"#);
        assert_ne!(a, b);
        assert_eq!(a.len(), 32);
    }
}
