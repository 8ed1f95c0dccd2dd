//! Experiment specs: serializable experiment descriptions (schema
//! `rix-exp/1`) and the engine that runs them.
//!
//! An [`ExperimentSpec`] is the whole experiment as **data**: which
//! benchmarks, a parameter space of labelled configuration arms
//! (presets + overrides + axes — see [`crate::space`]), the
//! warm-up/measurement/seed policy, and an optional stop condition. The
//! five figure binaries are committed spec files under `specs/` driving
//! this one engine; `exp run spec.json` runs any spec from the command
//! line.
//!
//! ```json
//! {
//!   "schema": "rix-exp/1",
//!   "name": "it-size",
//!   "benchmarks": ["gcc", "vortex"],
//!   "instructions": 20000,
//!   "warmup": 30000,
//!   "warmup_mode": "functional",
//!   "seed": 7,
//!   "arms": [
//!     {"label": "base", "preset": "base"},
//!     {"preset": "plus_reverse",
//!      "axes": [{"path": "it_entries", "values": [256, 1024, 4096],
//!                "labels": ["256", "1K", "4K"]}]}
//!   ]
//! }
//! ```
//!
//! Every entry of `"arms"` is a **group**: an optional label, an
//! optional starting `preset` (default: the `default` machine), an
//! optional partial-config `overrides` object, and optional `axes`.
//! Each axis either sweeps one config field (`path` + `values` +
//! optional `labels`) or lists richer `points` (`label` + `preset` +
//! `overrides`); axes compose by cross product, or pairwise with
//! `"zip": true`. Group arms are concatenated in order.
//!
//! Parsing is strict: unknown keys anywhere, unknown presets, unknown
//! config fields and unknown benchmark names are rejected with messages
//! that name the offender (benchmark typos suggest the closest
//! workload, exactly like `--bench`).
//!
//! Reproducibility: [`ExperimentSpec::to_json`] is a canonical
//! re-serialisation (sugar desugared, defaults filled, benchmark list
//! resolved) and [`ExperimentSpec::fingerprint128`] hashes it; `exp`'s
//! JSON results embed both, so a result file names exactly the
//! experiment that produced it. Execution details (thread count, output
//! paths) are deliberately **not** part of the spec or the fingerprint.

use crate::space::{Axis, AxisPoint, ParamSpace};
use crate::{Harness, Sweep, Trial, WarmupMode};
use rix_isa::json::{unknown_key, Json};
use rix_sim::{SimConfig, StopWhen};
use rix_workloads::Benchmark;

/// One `"arms"` group: a labelled base configuration and the axes swept
/// over it.
#[derive(Clone, Debug)]
pub struct ArmGroup {
    /// Label prefix for every arm of the group (may be empty).
    pub label: String,
    /// Starting preset (default: the `default` machine).
    pub preset: Option<String>,
    /// Partial-config overrides applied to the base.
    pub overrides: Option<Json>,
    /// Axes composed over the base (cross product, or pairwise when an
    /// axis zips).
    pub axes: Vec<SpecAxis>,
}

/// One axis of an [`ArmGroup`], desugared to labelled points.
#[derive(Clone, Debug)]
pub struct SpecAxis {
    /// Axis name (error messages; defaults to the path for field axes).
    pub name: String,
    /// `true`: apply points pairwise onto the group's current arms
    /// instead of crossing.
    pub zip: bool,
    /// The labelled points.
    pub points: Vec<AxisPoint>,
}

/// A parsed `rix-exp/1` experiment spec. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Experiment name (reports, result records).
    pub name: Option<String>,
    /// Free-text description (carried, not interpreted).
    pub description: Option<String>,
    /// The resolved benchmark rows.
    pub benchmarks: Vec<Benchmark>,
    /// Retired instructions measured per cell (ignored when `stop` is
    /// set).
    pub instructions: u64,
    /// Warm-up instructions discarded before measuring.
    pub warmup: u64,
    /// How the warm-up executes.
    pub warmup_mode: WarmupMode,
    /// Workload generator seed.
    pub seed: u64,
    /// Optional measurement stop condition replacing the instruction
    /// budget.
    pub stop: Option<StopWhen>,
    /// The arm groups, in order.
    pub groups: Vec<ArmGroup>,
}

const SPEC_KEYS: &[&str] = &[
    "schema",
    "name",
    "description",
    "benchmarks",
    "instructions",
    "warmup",
    "warmup_mode",
    "seed",
    "stop",
    "arms",
];
const GROUP_KEYS: &[&str] = &["label", "preset", "overrides", "axes"];
const AXIS_KEYS: &[&str] = &["name", "zip", "path", "values", "labels", "points"];
const POINT_KEYS: &[&str] = &["label", "preset", "overrides"];

fn str_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("key `{key}` must be a string"))
}

impl ExperimentSpec {
    /// Reads a spec from a file.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read spec `{path}`: {e}"))?;
        Self::from_json(&text).map_err(|e| format!("spec `{path}`: {e}"))
    }

    /// Parses a `rix-exp/1` document. Strict: unknown keys, presets,
    /// fields and benchmark names are errors naming the offender.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text)?;
        let Json::Obj(fields) = &v else {
            return Err("an experiment spec must be a JSON object".to_string());
        };
        match v.get("schema").and_then(Json::as_str) {
            Some("rix-exp/1") => {}
            Some(other) => {
                return Err(format!(
                    "unsupported spec schema `{other}` (this build reads `rix-exp/1`)"
                ))
            }
            None => return Err("missing `\"schema\": \"rix-exp/1\"`".to_string()),
        }
        let mut spec = Self {
            name: None,
            description: None,
            benchmarks: rix_workloads::all_benchmarks(),
            instructions: 100_000,
            warmup: 0,
            warmup_mode: WarmupMode::Detailed,
            seed: 7,
            stop: None,
            groups: Vec::new(),
        };
        let mut saw_arms = false;
        for (k, val) in fields {
            match k.as_str() {
                "schema" => {}
                "name" => spec.name = Some(str_field(&v, k)?),
                "description" => spec.description = Some(str_field(&v, k)?),
                "benchmarks" => spec.benchmarks = parse_benchmarks(val)?,
                "instructions" => {
                    spec.instructions =
                        val.as_u64().ok_or("key `instructions` must be an unsigned integer")?;
                }
                "warmup" => {
                    spec.warmup =
                        val.as_u64().ok_or("key `warmup` must be an unsigned integer")?;
                }
                "warmup_mode" => spec.warmup_mode = parse_warmup_mode(val)?,
                "seed" => {
                    spec.seed = val.as_u64().ok_or("key `seed` must be an unsigned integer")?;
                }
                "stop" => {
                    spec.stop = Some(
                        StopWhen::from_json_value(val).map_err(|e| format!("stop: {e}"))?,
                    );
                }
                "arms" => {
                    saw_arms = true;
                    let arr = val.as_arr().ok_or("key `arms` must be an array of groups")?;
                    spec.groups = arr
                        .iter()
                        .enumerate()
                        .map(|(i, g)| parse_group(g).map_err(|e| format!("arms[{i}]: {e}")))
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(unknown_key(other, SPEC_KEYS)),
            }
        }
        if !saw_arms || spec.groups.is_empty() {
            return Err("a spec needs a non-empty `arms` array".to_string());
        }
        // Materialise the arms once so preset/field errors fail the
        // parse, not the run.
        spec.arms()?;
        Ok(spec)
    }

    /// The labelled configuration arms, in order.
    pub fn arms(&self) -> Result<Vec<(String, SimConfig)>, String> {
        self.space().into_arms()
    }

    /// The spec's arms as a composable [`ParamSpace`].
    #[must_use]
    pub fn space(&self) -> ParamSpace {
        let mut groups = self.groups.iter();
        let mut space = match groups.next() {
            Some(g) => group_space(g),
            None => ParamSpace::invalid("a spec needs a non-empty `arms` array"),
        };
        for g in groups {
            space = space.chain(group_space(g));
        }
        space
    }

    /// Canonical re-serialisation: sugar desugared, defaults filled,
    /// benchmarks resolved to an explicit list. Two specs that mean the
    /// same experiment serialise identically; this is what
    /// [`ExperimentSpec::fingerprint128`] hashes.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, Json)> =
            vec![("schema".into(), Json::Str("rix-exp/1".into()))];
        if let Some(n) = &self.name {
            fields.push(("name".into(), Json::Str(n.clone())));
        }
        if let Some(d) = &self.description {
            fields.push(("description".into(), Json::Str(d.clone())));
        }
        fields.push((
            "benchmarks".into(),
            Json::Arr(self.benchmarks.iter().map(|b| Json::Str(b.name.into())).collect()),
        ));
        fields.push(("instructions".into(), Json::Num(self.instructions.to_string())));
        fields.push(("warmup".into(), Json::Num(self.warmup.to_string())));
        fields.push(("warmup_mode".into(), warmup_mode_json(&self.warmup_mode)));
        fields.push(("seed".into(), Json::Num(self.seed.to_string())));
        if let Some(stop) = &self.stop {
            let parsed =
                Json::parse(&stop.to_json()).expect("StopWhen::to_json is well-formed");
            fields.push(("stop".into(), parsed));
        }
        fields.push(("arms".into(), Json::Arr(self.groups.iter().map(group_json).collect())));
        Json::Obj(fields).dump()
    }

    /// The spec's fingerprint: 128-bit FNV-1a (with a trailing length
    /// fold — see [`rix_dispatch::hash`]) over the canonical
    /// serialisation [`ExperimentSpec::to_json`]. Embedded in result
    /// records so a result names the exact experiment (benchmarks,
    /// arms, budgets, seed; not execution details like thread or worker
    /// counts) that produced it. 128 bits because the trial cache and
    /// the experiment service key long-lived artifacts by it, so
    /// collisions must stay negligible across every spec anyone writes.
    #[must_use]
    pub fn fingerprint128(&self) -> u128 {
        rix_dispatch::hash::fnv128(self.to_json().as_bytes())
    }

    /// [`ExperimentSpec::fingerprint128`] as the `0x…` string used in
    /// reports and result records (34 characters: `0x` + 32 hex digits).
    #[must_use]
    pub fn fingerprint_hex(&self) -> String {
        format!("{:#034x}", self.fingerprint128())
    }

    /// Overrides the spec's parameters with the harness flags the user
    /// gave **explicitly** (tracked by [`crate::GivenFlags`]); defaults
    /// never override the spec. Execution-side flags (threads, filter,
    /// output) are consumed by [`ExperimentSpec::sweep`] instead.
    ///
    /// An explicit `--instructions` also clears the spec's `stop`
    /// condition: a stop condition takes measurement precedence over
    /// the budget, so leaving it in place would make the flag accepted
    /// but inert.
    pub fn apply_harness(&mut self, h: &Harness) {
        if h.given.instructions {
            self.instructions = h.instructions;
            self.stop = None;
        }
        if h.given.seed {
            self.seed = h.seed;
        }
        if h.given.warmup {
            self.warmup = h.warmup;
        }
        if h.given.warmup_mode {
            self.warmup_mode = h.warmup_mode.clone();
        }
    }

    /// The configured [`Sweep`] for this spec: spec benchmarks (narrowed
    /// by the harness `--bench` filter), spec arms, spec policy, harness
    /// thread count.
    #[must_use]
    pub fn sweep(&self, h: &Harness) -> Sweep {
        let benches = self
            .benchmarks
            .iter()
            .filter(|b| h.filter.as_deref().is_none_or(|f| f.eq_ignore_ascii_case(b.name)))
            .copied();
        let mut sweep = Sweep::new()
            .benchmarks(benches)
            .space(self.space())
            .instructions(self.instructions)
            .warmup(self.warmup)
            .warmup_mode(self.warmup_mode.clone())
            .seed(self.seed)
            .threads(h.threads);
        if let Some(stop) = &self.stop {
            sweep = sweep.stop(stop.clone());
        }
        sweep
    }

    /// Parses an embedded spec, applies the harness overrides, and runs
    /// it on the shared engine — the whole body of a spec-driven figure
    /// binary. `--workers`/`--cache`/`--listen` route through the
    /// distributed dispatcher (trials stay byte-identical; the dispatch
    /// summary goes to stderr). Prints the error and exits with status
    /// 2 when the spec is invalid (a broken committed spec) or the
    /// sweep fails.
    #[must_use]
    pub fn run_embedded(text: &str, h: &Harness) -> (Self, Vec<Trial>) {
        let run = || -> Result<(Self, Vec<Trial>), String> {
            let mut spec = Self::from_json(text)?;
            spec.apply_harness(h);
            let (trials, _) = h.run_sweep(&spec.sweep(h))?;
            Ok((spec, trials))
        };
        match run() {
            Ok(out) => out,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }
}

fn parse_benchmarks(v: &Json) -> Result<Vec<Benchmark>, String> {
    match v {
        Json::Str(s) if s == "all" => Ok(rix_workloads::all_benchmarks()),
        Json::Arr(items) => {
            if items.is_empty() {
                return Err("benchmarks: the list must not be empty (use \"all\" for every \
                            workload)"
                    .to_string());
            }
            items
                .iter()
                .map(|item| {
                    let name = item
                        .as_str()
                        .ok_or_else(|| "benchmarks: entries must be strings".to_string())?;
                    rix_workloads::lookup(name).map_err(|e| format!("benchmarks: {e}"))
                })
                .collect()
        }
        _ => Err("key `benchmarks` must be \"all\" or an array of names".to_string()),
    }
}

/// The canonical JSON encoding of a warm-up mode (`"detailed"`,
/// `"functional"`, or `{"checkpoint":{"dir":…}}`) — shared by spec
/// serialisation and the dispatch plan; [`parse_warmup_mode`] is its
/// inverse.
pub(crate) fn warmup_mode_json(mode: &WarmupMode) -> Json {
    match mode {
        WarmupMode::Checkpoint { dir } => Json::Obj(vec![(
            "checkpoint".into(),
            Json::Obj(vec![("dir".into(), Json::Str(dir.clone()))]),
        )]),
        other => Json::Str(other.name().into()),
    }
}

pub(crate) fn parse_warmup_mode(v: &Json) -> Result<WarmupMode, String> {
    match v {
        Json::Str(s) => match s.as_str() {
            "detailed" => Ok(WarmupMode::Detailed),
            "functional" => Ok(WarmupMode::Functional),
            other => Err(format!(
                "unknown warmup_mode `{other}` (expected `detailed`, `functional` or \
                 {{\"checkpoint\":{{\"dir\":…}}}})"
            )),
        },
        Json::Obj(fields) => {
            let ck = v.req("checkpoint").map_err(|_| {
                "warmup_mode object form must be {\"checkpoint\":{\"dir\":…}}".to_string()
            })?;
            if fields.len() != 1 {
                return Err("warmup_mode object form must have exactly the `checkpoint` key"
                    .to_string());
            }
            if let Json::Obj(ck_fields) = ck {
                for (k, _) in ck_fields {
                    if k != "dir" {
                        return Err(format!(
                            "warmup_mode.checkpoint: {}",
                            unknown_key(k, &["dir"])
                        ));
                    }
                }
            }
            let dir =
                str_field(ck, "dir").map_err(|e| format!("warmup_mode.checkpoint: {e}"))?;
            Ok(WarmupMode::Checkpoint { dir })
        }
        _ => Err("key `warmup_mode` must be a string or a {\"checkpoint\":…} object"
            .to_string()),
    }
}

fn parse_group(v: &Json) -> Result<ArmGroup, String> {
    let Json::Obj(fields) = v else {
        return Err("each arms entry must be a JSON object".to_string());
    };
    let mut group =
        ArmGroup { label: String::new(), preset: None, overrides: None, axes: Vec::new() };
    for (k, val) in fields {
        match k.as_str() {
            "label" => group.label = str_field(v, k)?,
            "preset" => {
                let name = str_field(v, k)?;
                SimConfig::preset(&name)?; // fail at parse, with the full message
                group.preset = Some(name);
            }
            "overrides" => {
                // Validate eagerly against a scratch config so unknown
                // fields are named at parse time.
                SimConfig::default().apply_json(val).map_err(|e| format!("overrides: {e}"))?;
                group.overrides = Some(val.clone());
            }
            "axes" => {
                let arr = val.as_arr().ok_or("key `axes` must be an array")?;
                group.axes = arr
                    .iter()
                    .enumerate()
                    .map(|(i, a)| parse_axis(a).map_err(|e| format!("axes[{i}]: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(unknown_key(other, GROUP_KEYS)),
        }
    }
    Ok(group)
}

fn parse_axis(v: &Json) -> Result<SpecAxis, String> {
    let Json::Obj(fields) = v else {
        return Err("each axis must be a JSON object".to_string());
    };
    for (k, _) in fields {
        if !AXIS_KEYS.contains(&k.as_str()) {
            return Err(unknown_key(k, AXIS_KEYS));
        }
    }
    let zip = match v.get("zip") {
        None => false,
        Some(z) => z.as_bool().ok_or("key `zip` must be a boolean")?,
    };
    let explicit_name = v.get("name").map(|_| str_field(v, "name")).transpose()?;

    if let Some(path_v) = v.get("path") {
        let path = path_v.as_str().ok_or("key `path` must be a string")?.to_string();
        // Resolve now: a typo in a committed spec should fail its parse.
        let full = SimConfig::resolve_path(&path)?;
        let values = v
            .get("values")
            .and_then(Json::as_arr)
            .ok_or("a `path` axis needs a `values` array")?;
        if values.is_empty() {
            return Err(format!("axis over `{path}` has no values"));
        }
        let labels: Option<Vec<String>> = match v.get("labels") {
            None => None,
            Some(l) => Some(
                l.as_arr()
                    .ok_or("key `labels` must be an array of strings")?
                    .iter()
                    .map(|s| {
                        s.as_str().map(str::to_string).ok_or_else(|| {
                            "key `labels` must be an array of strings".to_string()
                        })
                    })
                    .collect::<Result<_, _>>()?,
            ),
        };
        if let Some(labels) = &labels {
            if labels.len() != values.len() {
                return Err(format!(
                    "axis over `{path}`: {} labels for {} values",
                    labels.len(),
                    values.len()
                ));
            }
        }
        if zip && labels.is_some() {
            return Err(format!(
                "axis over `{path}`: a zipped axis keeps the existing arms' labels, so \
                 `labels` would be ignored — remove it"
            ));
        }
        let points = values
            .iter()
            .enumerate()
            .map(|(i, value)| {
                if !matches!(value, Json::Num(_) | Json::Bool(_) | Json::Str(_)) {
                    return Err(format!("axis over `{path}`: values must be scalars"));
                }
                let label = if zip {
                    String::new()
                } else {
                    labels.as_ref().map_or_else(
                        || format!("{path}={}", value.dump().trim_matches('"')),
                        |l| l[i].clone(),
                    )
                };
                Ok(AxisPoint {
                    label,
                    sets: vec![(full.to_string(), value.clone())],
                    ..AxisPoint::default()
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        return Ok(SpecAxis { name: explicit_name.unwrap_or(path), zip, points });
    }

    let points_v = v
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("an axis needs either `path`+`values` or a `points` array")?;
    if points_v.is_empty() {
        return Err("an axis `points` array must not be empty".to_string());
    }
    let points = points_v
        .iter()
        .enumerate()
        .map(|(i, p)| parse_point(p).map_err(|e| format!("points[{i}]: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    if zip && points.iter().any(|p| !p.label.is_empty()) {
        return Err("a zipped axis keeps the existing arms' labels, so point `label`s would \
                    be ignored — remove them"
            .to_string());
    }
    Ok(SpecAxis { name: explicit_name.unwrap_or_else(|| "points".to_string()), zip, points })
}

fn parse_point(v: &Json) -> Result<AxisPoint, String> {
    let Json::Obj(fields) = v else {
        return Err("each point must be a JSON object".to_string());
    };
    let mut point = AxisPoint::default();
    for (k, val) in fields {
        match k.as_str() {
            "label" => point.label = str_field(v, k)?,
            "preset" => {
                let name = str_field(v, k)?;
                SimConfig::preset(&name)?;
                point.preset = Some(name);
            }
            "overrides" => {
                SimConfig::default().apply_json(val).map_err(|e| format!("overrides: {e}"))?;
                point.patch = Some(val.clone());
            }
            other => return Err(unknown_key(other, POINT_KEYS)),
        }
    }
    Ok(point)
}

fn group_space(g: &ArmGroup) -> ParamSpace {
    let base = match &g.preset {
        Some(name) => SimConfig::preset(name),
        None => Ok(SimConfig::default()),
    };
    let base = base.and_then(|mut cfg| {
        if let Some(ov) = &g.overrides {
            cfg.apply_json(ov)?;
        }
        Ok(cfg)
    });
    let mut space = match base {
        Ok(cfg) => {
            if g.label.is_empty() {
                ParamSpace::base(cfg)
            } else {
                ParamSpace::point(g.label.clone(), cfg)
            }
        }
        // Propagate the base-config error (an unknown preset name or a
        // bad override reports with its own message).
        Err(e) => return ParamSpace::invalid(e),
    };
    for axis in &g.axes {
        let a = Axis { name: axis.name.clone(), points: axis.points.clone() };
        space = if axis.zip { space.zip(&a) } else { space.cross(&a) };
    }
    space
}

/// Recursively sorts object keys (stable, so duplicate keys keep their
/// last-wins apply order), making the canonical serialisation — and
/// therefore the fingerprint — independent of the key order an author
/// happened to write inside an overrides block.
fn sort_keys(v: &mut Json) {
    match v {
        Json::Obj(fields) => {
            fields.sort_by(|(a, _), (b, _)| a.cmp(b));
            for (_, val) in fields {
                sort_keys(val);
            }
        }
        Json::Arr(items) => {
            for item in items {
                sort_keys(item);
            }
        }
        _ => {}
    }
}

/// Deep-merges JSON object `b` into `acc` (objects merge key-wise and
/// recursively, anything else overwrites) — how a point's field
/// assignments and patch collapse into one canonical overrides object.
fn merge_into(acc: &mut Option<Json>, b: &Json) {
    match acc {
        None => *acc = Some(b.clone()),
        Some(a) => merge_json(a, b),
    }
}

fn merge_json(a: &mut Json, b: &Json) {
    if let (Json::Obj(af), Json::Obj(bf)) = (&mut *a, b) {
        for (bk, bv) in bf {
            match af.iter_mut().find(|(ak, _)| ak == bk) {
                Some((_, av)) => merge_json(av, bv),
                None => af.push((bk.clone(), bv.clone())),
            }
        }
    } else {
        *a = b.clone();
    }
}

fn group_json(g: &ArmGroup) -> Json {
    let mut fields = Vec::new();
    if !g.label.is_empty() {
        fields.push(("label".to_string(), Json::Str(g.label.clone())));
    }
    if let Some(p) = &g.preset {
        fields.push(("preset".to_string(), Json::Str(p.clone())));
    }
    if let Some(o) = &g.overrides {
        let mut o = o.clone();
        sort_keys(&mut o);
        fields.push(("overrides".to_string(), o));
    }
    if !g.axes.is_empty() {
        let axes = g
            .axes
            .iter()
            .map(|a| {
                let mut f = vec![("name".to_string(), Json::Str(a.name.clone()))];
                if a.zip {
                    f.push(("zip".to_string(), Json::Bool(true)));
                }
                let points = a
                    .points
                    .iter()
                    .map(|p| {
                        let mut pf = vec![("label".to_string(), Json::Str(p.label.clone()))];
                        if let Some(pr) = &p.preset {
                            pf.push(("preset".to_string(), Json::Str(pr.clone())));
                        }
                        // Canonical form carries everything a point does
                        // to the config as one overrides object: field
                        // assignments (`sets`, possibly built
                        // programmatically via `Axis::new`) wrapped to
                        // their full paths, then the patch on top —
                        // the same order `AxisPoint::apply` uses.
                        let mut overrides: Option<Json> = None;
                        for (path, value) in &p.sets {
                            let full = SimConfig::resolve_path(path).unwrap_or(path.as_str());
                            let mut wrapped = value.clone();
                            for seg in full.rsplit('.') {
                                wrapped = Json::Obj(vec![(seg.to_string(), wrapped)]);
                            }
                            merge_into(&mut overrides, &wrapped);
                        }
                        if let Some(patch) = &p.patch {
                            merge_into(&mut overrides, patch);
                        }
                        if let Some(mut ov) = overrides {
                            sort_keys(&mut ov);
                            pf.push(("overrides".to_string(), ov));
                        }
                        Json::Obj(pf)
                    })
                    .collect();
                f.push(("points".to_string(), Json::Arr(points)));
                Json::Obj(f)
            })
            .collect();
        fields.push(("axes".to_string(), Json::Arr(axes)));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"{
        "schema": "rix-exp/1",
        "name": "mini",
        "benchmarks": ["gcc", "vortex"],
        "instructions": 2000,
        "seed": 7,
        "arms": [
            {"label": "base", "preset": "base"},
            {"preset": "plus_reverse",
             "axes": [{"path": "it_entries", "values": [256, 1024],
                       "labels": ["256", "1K"]}]}
        ]
    }"#;

    #[test]
    fn parses_and_materialises_arms() {
        let spec = ExperimentSpec::from_json(MINI).unwrap();
        assert_eq!(spec.name.as_deref(), Some("mini"));
        assert_eq!(spec.benchmarks.len(), 2);
        assert_eq!(spec.instructions, 2000);
        let arms = spec.arms().unwrap();
        let labels: Vec<&str> = arms.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["base", "256", "1K"]);
        assert!(!arms[0].1.integration.enabled);
        assert_eq!(arms[1].1.integration.it_entries, 256);
        assert_eq!(arms[2].1.integration.it_entries, 1024);
    }

    #[test]
    fn canonical_json_and_fingerprint_are_stable() {
        let spec = ExperimentSpec::from_json(MINI).unwrap();
        let canon = spec.to_json();
        // Reparsing the canonical form is a fixed point.
        let again = ExperimentSpec::from_json(&canon).unwrap();
        assert_eq!(again.to_json(), canon);
        assert_eq!(again.fingerprint128(), spec.fingerprint128());
        // Whitespace does not change the experiment's identity...
        let squashed = MINI.replace("\n        ", "");
        let same = ExperimentSpec::from_json(&squashed).unwrap();
        assert_eq!(same.fingerprint128(), spec.fingerprint128());
        // ...but any parameter does.
        let other = ExperimentSpec::from_json(&MINI.replace("2000", "2001")).unwrap();
        assert_ne!(other.fingerprint128(), spec.fingerprint128());
        assert!(spec.fingerprint_hex().starts_with("0x"));
    }

    #[test]
    fn unknown_keys_are_named_at_every_level() {
        let err =
            ExperimentSpec::from_json(&MINI.replace("\"seed\"", "\"sede\"")).unwrap_err();
        assert!(err.contains("unknown key `sede`"), "{err}");
        assert!(err.contains("did you mean `seed`?"), "{err}");

        let err = ExperimentSpec::from_json(
            &MINI.replace("\"preset\": \"base\"", "\"prest\": \"base\""),
        )
        .unwrap_err();
        assert!(err.contains("arms[0]"), "{err}");
        assert!(err.contains("unknown key `prest`"), "{err}");

        let err =
            ExperimentSpec::from_json(&MINI.replace("\"path\"", "\"paht\"")).unwrap_err();
        assert!(err.contains("axes[0]"), "{err}");
        assert!(err.contains("unknown key `paht`"), "{err}");
    }

    #[test]
    fn bad_preset_and_bad_benchmark_are_actionable() {
        let err = ExperimentSpec::from_json(&MINI.replace("plus_reverse", "plus_revers"))
            .unwrap_err();
        assert!(err.contains("unknown preset `plus_revers`"), "{err}");
        assert!(err.contains("did you mean `plus_reverse`?"), "{err}");

        // The `--bench`-style suggestion path fires from spec benchmark
        // lists too.
        let err = ExperimentSpec::from_json(&MINI.replace("vortex", "vortx")).unwrap_err();
        assert!(err.contains("benchmarks:"), "{err}");
        assert!(err.contains("unknown benchmark `vortx`"), "{err}");
        assert!(err.contains("vortex"), "suggests the close name: {err}");
    }

    #[test]
    fn bad_config_field_in_overrides_fails_parse() {
        let with_overrides = MINI.replace(
            r#""preset": "plus_reverse","#,
            r#""preset": "plus_reverse", "overrides": {"integration": {"it_entrys": 3}},"#,
        );
        let err = ExperimentSpec::from_json(&with_overrides).unwrap_err();
        assert!(err.contains("overrides:"), "{err}");
        assert!(err.contains("it_entrys"), "{err}");
        assert!(err.contains("it_entries"), "{err}");
    }

    #[test]
    fn schema_is_required() {
        assert!(ExperimentSpec::from_json("{}").unwrap_err().contains("schema"));
        let err =
            ExperimentSpec::from_json(&MINI.replace("rix-exp/1", "rix-exp/9")).unwrap_err();
        assert!(err.contains("rix-exp/9"), "{err}");
    }

    #[test]
    fn zip_axis_parses() {
        let spec = ExperimentSpec::from_json(
            r#"{
                "schema": "rix-exp/1",
                "benchmarks": ["gcc"],
                "arms": [{
                    "preset": "plus_reverse",
                    "axes": [
                        {"path": "it_entries", "values": [1024, 4096], "labels": ["1K", "4K"]},
                        {"zip": true, "path": "num_pregs", "values": [1024, 4096]}
                    ]
                }]
            }"#,
        )
        .unwrap();
        let arms = spec.arms().unwrap();
        assert_eq!(arms.len(), 2, "zip does not multiply");
        assert_eq!(arms[0].0, "1K");
        assert_eq!(arms[1].1.num_pregs, 4096);
        assert_eq!(arms[0].1.num_pregs, 1024);
    }

    #[test]
    fn programmatic_field_assignments_survive_canonicalisation() {
        // AxisPoint is shared with `space`: points built by `Axis::new`
        // carry `sets` (field assignments), which the canonical form
        // must serialise as overrides, not drop.
        let mut spec = ExperimentSpec::from_json(MINI).unwrap();
        spec.groups[1].axes[0].points = crate::Axis::new("it_entries", [64u64, 512]).points;
        let arms = spec.arms().unwrap();
        assert_eq!(arms[1].1.integration.it_entries, 64);

        let again = ExperimentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(again.fingerprint128(), spec.fingerprint128());
        let again_arms = again.arms().unwrap();
        assert_eq!(again_arms[1].0, "it_entries=64");
        assert_eq!(again_arms[1].1.integration.it_entries, 64);
        assert_eq!(again_arms[2].1.integration.it_entries, 512);
        assert_eq!(again.to_json(), spec.to_json(), "fixed point");
    }

    #[test]
    fn fingerprint_ignores_override_key_order() {
        let a = ExperimentSpec::from_json(
            r#"{"schema": "rix-exp/1", "benchmarks": ["gcc"], "arms": [
                {"label": "x", "preset": "plus_reverse",
                 "overrides": {"integration": {"it_entries": 1024, "it_ways": 4}}}
            ]}"#,
        )
        .unwrap();
        let b = ExperimentSpec::from_json(
            r#"{"schema": "rix-exp/1", "benchmarks": ["gcc"], "arms": [
                {"label": "x", "preset": "plus_reverse",
                 "overrides": {"integration": {"it_ways": 4, "it_entries": 1024}}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(a.arms().unwrap(), b.arms().unwrap(), "same experiment");
        assert_eq!(a.fingerprint128(), b.fingerprint128(), "same identity");
    }

    #[test]
    fn unbuildable_configs_fail_validation_with_the_arm_named() {
        // Well-typed but unbuildable: dry-run validation must catch
        // what would otherwise panic inside a worker thread.
        let spec = ExperimentSpec::from_json(
            r#"{"schema": "rix-exp/1", "benchmarks": ["gcc"], "arms": [
                {"label": "bad-predictor", "preset": "base",
                 "overrides": {"predictor": {"gshare_entries": 1000}}}
            ]}"#,
        )
        .unwrap();
        let err = spec.sweep(&Harness::default()).validate().unwrap_err();
        assert!(err.contains("configuration `bad-predictor`"), "{err}");
        assert!(err.contains("power of two"), "{err}");

        for (overrides, msg) in [
            (r#"{"num_pregs": 100}"#, "num_pregs"),
            (r#"{"mem": {"l1d": {"ways": 0}}}"#, "way"),
            (r#"{"integration": {"it_entries": 96}}"#, "IT"),
            (r#"{"integration": {"gen_bits": 11}}"#, "gen_bits"),
        ] {
            let spec = ExperimentSpec::from_json(&format!(
                r#"{{"schema": "rix-exp/1", "benchmarks": ["gcc"], "arms": [
                    {{"label": "x", "preset": "base", "overrides": {overrides}}}
                ]}}"#,
            ))
            .unwrap();
            let err = spec.sweep(&Harness::default()).validate().unwrap_err();
            assert!(err.contains(msg), "{overrides}: {err}");
        }
    }

    #[test]
    fn explicit_instructions_override_a_spec_stop_condition() {
        let mut spec = ExperimentSpec::from_json(
            r#"{"schema": "rix-exp/1", "benchmarks": ["gcc"],
                "stop": {"cycles_at_least": 10000000},
                "arms": [{"label": "base", "preset": "base"}]}"#,
        )
        .unwrap();
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let h = Harness::try_parse(args("--instructions 2000")).unwrap();
        spec.apply_harness(&h);
        assert_eq!(spec.instructions, 2000);
        assert!(spec.stop.is_none(), "the flag governs measurement, not the stale stop");
    }

    #[test]
    fn zip_axis_rejects_ignored_labels() {
        let err = ExperimentSpec::from_json(
            r#"{
                "schema": "rix-exp/1",
                "benchmarks": ["gcc"],
                "arms": [{
                    "preset": "plus_reverse",
                    "axes": [
                        {"path": "it_entries", "values": [1024, 4096]},
                        {"zip": true, "path": "num_pregs", "values": [1024, 4096],
                         "labels": ["small", "big"]}
                    ]
                }]
            }"#,
        )
        .unwrap_err();
        assert!(err.contains("zipped axis"), "{err}");
        assert!(err.contains("labels"), "{err}");
    }

    #[test]
    fn harness_overrides_only_given_flags() {
        let mut spec = ExperimentSpec::from_json(MINI).unwrap();
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let h = Harness::try_parse(args("--seed 11 --threads 4")).unwrap();
        spec.apply_harness(&h);
        assert_eq!(spec.seed, 11, "given flag overrides");
        assert_eq!(spec.instructions, 2000, "default flag does not");
    }
}
