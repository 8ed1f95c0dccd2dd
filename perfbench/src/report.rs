//! What one run reports: checked operations, metrics, provenance, and
//! the result line.

use rix_isa::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// The outcome of one run: every checked operation and every metric.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Report lines (key, value) for stderr and the report file.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one checked operation; a failed check is described on
    /// stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Sets a metric (a later value of the same name replaces it).
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.metrics.get(name).copied()
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Keeps exactly the metrics named in `names`; every one of them must
    /// have been measured.
    pub fn select(&mut self, names: &[&str]) -> Result<(), String> {
        let missing: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| !self.metrics.contains_key(n))
            .collect();
        if !missing.is_empty() {
            return Err(format!("metrics not measured: {}", missing.join(", ")));
        }
        if let Some((name, _)) = self.metrics.iter().find(|(_, (v, _))| !v.is_finite()) {
            return Err(format!("metric {name} is not a finite number"));
        }
        self.metrics.retain(|n, _| names.contains(n));
        Ok(())
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let m = Json::Obj(vec![
                    ("value".into(), Json::Num(format!("{value:?}"))),
                    ("unit".into(), Json::Str((*unit).into())),
                ]);
                ((*name).to_string(), m)
            })
            .collect();
        Json::Obj(vec![
            (
                "correct".into(),
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted".into(), Json::Num(self.attempted.to_string())),
            ("failed".into(), Json::Num(self.failed.to_string())),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .dump()
    }

    /// The human-readable report: notes, then metrics.
    pub fn report_json(&self) -> String {
        let notes = self
            .notes
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("perfbench-report/1".into())),
            ("notes".into(), Json::Obj(notes)),
            (
                "result".into(),
                Json::parse(&self.result_line()).unwrap_or(Json::Null),
            ),
        ])
        .dump()
    }
}

/// Median (the mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` (0–100); 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU time (user + system) this process has used so far, seconds, at
/// clock-tick resolution (`/proc/self/stat`, 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|x| x.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Host and build facts recorded with every run.
pub fn provenance(root: &Path, seed: u64) -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("cpu".into(), cpu),
        ("nproc".into(), nproc.to_string()),
        ("profile".into(), profile.into()),
        ("git_rev".into(), git_rev(root)),
        ("seed".into(), seed.to_string()),
    ]
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run in an export that is not a repository.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&xs), 6.0);
        assert_eq!(percentile(&xs, 90.0), 10.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.metric("wall_s", 1.234_567_890_123, "s");
        let line = o.result_line();
        assert!(line.contains("1.234567890123"), "{line}");
        assert!(
            line.starts_with(r#"{"correct":true,"attempted":1,"failed":0"#),
            "{line}"
        );
    }
}
