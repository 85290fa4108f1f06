//! Checkpoint/resume, grid sharding, and deterministic manifest merge.
//!
//! The SNAILS grid — (database × variant × workflow × question) — is a
//! long-running evaluation whose cells are pure functions of the run
//! configuration. This module makes the *run itself* survive crashes and
//! partial disk state without ever compromising the bit-identical contract:
//!
//! * **Cell store** ([`CellStore`]) — every completed
//!   [`QueryRecord`](crate::pipeline::QueryRecord) is written atomically
//!   (temp file + rename) under a content-addressed key derived from the
//!   run's [grid fingerprint](grid_fingerprint) and the cell's grid index,
//!   with an FNV-1a checksum over the whole payload. A process killed
//!   mid-write leaves only ignorable `.tmp` debris; the directory of
//!   completed renames is the source of truth.
//! * **Resume** — on restart, each cell asks the store first: a verified
//!   record loads instead of re-executing; anything that fails validation
//!   (truncated file, flipped bit, foreign fingerprint, older format) is
//!   quarantined and transparently recomputed. Corruption never aborts a
//!   run and is never silently accepted.
//! * **Sharding** ([`Shard`]) — `--shard i/n` deterministically partitions
//!   the grid by `index % n == i`, so independent processes each produce a
//!   shard manifest.
//! * **Merge** ([`merge_manifests`]) — shard manifests fold into one run.
//!   Every merged quantity is a componentwise sum over disjoint cell sets
//!   (grid-global planner metrics are instead validated equal and copied),
//!   so the merge is order-insensitive and associative, and the merged
//!   manifest renders byte-identical to an uninterrupted single-process
//!   run's manifest.
//!
//! Serialization is a canonical line/token format: `f64`s are written as
//! the hex of their IEEE bits (bit-exact, NaN-safe), strings are escaped so
//! tokens never contain whitespace, and map-ordered collections make equal
//! values render to equal bytes.

use crate::pipeline::{BenchmarkConfig, FaultSummary, QueryRecord};
use snails_data::SnailsDatabase;
use snails_eval::LinkingScores;
use snails_llm::faults::FailureKind;
use snails_llm::Workflow;
use snails_naturalness::category::SchemaVariant;
use snails_obs::keys::MetricKind;
use snails_obs::{ClockMode, HistSnapshot, Metric, Report, Section, Snapshot, SpanStat};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Primitives: hashing, escaping, f64 bit-codecs, name interning
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash — the checksum and key-derivation primitive (stable,
/// dependency-free, and byte-order independent).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Escape a string into one whitespace-free token. Reversible via
/// [`unescape`]; the empty string encodes as `\e` so every token is
/// non-empty.
fn escape(s: &str) -> String {
    if s.is_empty() {
        return "\\e".into();
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\_"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`].
fn unescape(tok: &str) -> Result<String, String> {
    if tok == "\\e" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(tok.len());
    let mut chars = tok.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('_') => out.push(' '),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            other => return Err(format!("bad escape \\{other:?} in token")),
        }
    }
    Ok(out)
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f64_from_hex(tok: &str) -> Result<f64, String> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 bits {tok:?}"))
}

/// End `body` with the trailer line `<tag> <checksum>`: the FNV-1a of the
/// body as 16 lowercase hex digits. Cell files end with `sum`, manifests
/// with `end`; [`verified_body`] checks either.
fn seal(mut body: String, tag: &str) -> String {
    let sum = fnv1a(body.as_bytes());
    let _ = writeln!(body, "{tag} {sum:016x}");
    body
}

/// The body of [`seal`]ed text, once its trailer verifies. The trailer
/// sits outside the checksummed body, so it must be exactly canonical: a
/// permissive parse (`from_str_radix` accepts uppercase) would let a
/// flipped case bit verify, and any stray or missing byte (even a lost
/// final newline) is corruption.
fn verified_body<'a>(text: &'a str, tag: &str) -> Result<&'a str, String> {
    let missing = || format!("missing {tag} checksum");
    let body_end = text.rfind(&format!("\n{tag} ")).ok_or_else(missing)? + 1;
    let (body, trailer) = text.split_at(body_end);
    let hex = trailer[tag.len() + 1..].strip_suffix('\n').ok_or_else(missing)?;
    if hex.len() != 16
        || !hex.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return Err(format!("bad {tag} checksum"));
    }
    if u64::from_str_radix(hex, 16) != Ok(fnv1a(body.as_bytes())) {
        return Err(format!("{tag} checksum mismatch"));
    }
    Ok(body)
}

/// Intern an arbitrary string as `&'static str` (bounded vocabulary: span
/// names read back from manifests). Leaks each distinct name once.
fn intern(name: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().expect("intern pool poisoned");
    if let Some(&s) = pool.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    pool.insert(leaked);
    leaked
}

fn workflow_name(name: &str) -> Option<&'static str> {
    Workflow::all()
        .into_iter()
        .map(|w| w.display_name())
        .find(|n| *n == name)
}

fn variant_by_name(name: &str) -> Option<SchemaVariant> {
    SchemaVariant::ALL.into_iter().find(|v| v.display_name() == name)
}

fn failure_by_name(name: &str) -> Option<FailureKind> {
    FailureKind::ALL.into_iter().find(|k| k.name() == name)
}

// ---------------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------------

/// One shard of the grid: cell `i` belongs to shard `index` iff
/// `i % count == index`. Round-robin keeps shards balanced across the
/// database/variant/workflow strata without knowing their sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Shard index, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// The degenerate single-shard partition (a full run).
    pub const FULL: Shard = Shard { index: 0, count: 1 };

    /// Parse `"i/n"` (e.g. `"0/4"`).
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard {s:?} is not i/n"))?;
        let index: usize = i.trim().parse().map_err(|_| format!("bad shard index {i:?}"))?;
        let count: usize = n.trim().parse().map_err(|_| format!("bad shard count {n:?}"))?;
        if count == 0 || index >= count {
            return Err(format!("shard {index}/{count} out of range"));
        }
        Ok(Shard { index, count })
    }

    /// Does grid cell `i` belong to this shard?
    pub fn contains(&self, i: usize) -> bool {
        i % self.count == self.index
    }

    /// Filename-safe label, e.g. `0of4`.
    pub fn label(&self) -> String {
        format!("{}of{}", self.index, self.count)
    }
}

impl Default for Shard {
    fn default() -> Self {
        Shard::FULL
    }
}

// ---------------------------------------------------------------------------
// Grid fingerprint
// ---------------------------------------------------------------------------

/// Fingerprint of everything a grid cell's value depends on: seed,
/// databases + question ids, variants, workflows, fault profile (name and
/// rate bits), and execution limits. Thread count, shard assignment,
/// telemetry, and checkpoint settings are deliberately excluded — they
/// change *how* the grid runs, never *what* a cell computes — so a resumed
/// or sharded invocation recognizes records written by any compatible run.
pub fn grid_fingerprint(config: &BenchmarkConfig, dbs: &[&SnailsDatabase]) -> u64 {
    let mut s = String::from("snails-grid v1");
    let _ = write!(s, "|seed={}", config.seed);
    for db in dbs {
        let _ = write!(s, "|db={}:", db.spec.name);
        for q in &db.questions {
            let _ = write!(s, "{},", q.id);
        }
    }
    s.push_str("|variants=");
    for v in &config.variants {
        let _ = write!(s, "{},", v.display_name());
    }
    s.push_str("|workflows=");
    for w in &config.workflows {
        let _ = write!(s, "{},", w.display_name());
    }
    let p = &config.fault_profile;
    let _ = write!(
        s,
        "|profile={}:{}:{}:{}:{}:{}",
        p.name,
        f64_hex(p.timeout),
        f64_hex(p.rate_limit),
        f64_hex(p.truncated),
        f64_hex(p.garbage),
        f64_hex(p.panic)
    );
    let l = &config.limits;
    let _ = write!(
        s,
        "|limits={:?}:{:?}:{:?}:{:?}",
        l.max_output_rows, l.max_join_rows, l.max_subquery_depth, l.max_steps
    );
    fnv1a(s.as_bytes())
}

// ---------------------------------------------------------------------------
// QueryRecord canonical line codec
// ---------------------------------------------------------------------------

/// Serialize a record as one canonical whitespace-tokenized line (no
/// leading keyword). Floats are IEEE bit hex, so the round trip is
/// bit-exact even for NaN payloads.
pub fn record_to_line(r: &QueryRecord) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{} {} {} {} {} {} {}",
        escape(r.workflow),
        escape(&r.database),
        escape(r.variant.display_name()),
        r.question_id,
        u8::from(r.parse_ok),
        u8::from(r.set_matched),
        u8::from(r.exec_correct),
    );
    match &r.linking {
        Some(l) => {
            let _ = write!(
                s,
                " L {} {} {} {}",
                f64_hex(l.recall),
                f64_hex(l.precision),
                f64_hex(l.f1),
                l.true_positives
            );
        }
        None => s.push_str(" -"),
    }
    match &r.subset {
        Some((a, b, c)) => {
            let _ = write!(s, " S {} {} {}", f64_hex(*a), f64_hex(*b), f64_hex(*c));
        }
        None => s.push_str(" -"),
    }
    let _ = write!(s, " {}", r.gold_ids.len());
    for id in &r.gold_ids {
        let _ = write!(s, " {}", escape(id));
    }
    let _ = write!(s, " {}", r.pred_ids.len());
    for id in &r.pred_ids {
        let _ = write!(s, " {}", escape(id));
    }
    let m = &r.measures;
    let _ = write!(
        s,
        " {} {} {} {} {}",
        f64_hex(m.prop_regular),
        f64_hex(m.prop_low),
        f64_hex(m.prop_least),
        f64_hex(m.combined),
        f64_hex(m.mean_tcr)
    );
    match r.failure {
        Some(k) => {
            let _ = write!(s, " {}", k.name());
        }
        None => s.push_str(" -"),
    }
    let _ = write!(s, " {}", r.attempts);
    s
}

/// Token-stream reader over one line.
struct Toks<'a> {
    it: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> Toks<'a> {
    fn new(line: &'a str) -> Self {
        Toks { it: line.split_ascii_whitespace() }
    }

    fn next(&mut self) -> Result<&'a str, String> {
        self.it.next().ok_or_else(|| "truncated line".to_string())
    }

    fn usize(&mut self) -> Result<usize, String> {
        let t = self.next()?;
        t.parse().map_err(|_| format!("bad usize {t:?}"))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let t = self.next()?;
        t.parse().map_err(|_| format!("bad u64 {t:?}"))
    }

    fn u32(&mut self) -> Result<u32, String> {
        let t = self.next()?;
        t.parse().map_err(|_| format!("bad u32 {t:?}"))
    }

    fn bool01(&mut self) -> Result<bool, String> {
        match self.next()? {
            "0" => Ok(false),
            "1" => Ok(true),
            t => Err(format!("bad bool {t:?}")),
        }
    }

    fn f64(&mut self) -> Result<f64, String> {
        f64_from_hex(self.next()?)
    }

    fn string(&mut self) -> Result<String, String> {
        unescape(self.next()?)
    }

    fn done(&mut self) -> Result<(), String> {
        match self.it.next() {
            None => Ok(()),
            Some(t) => Err(format!("trailing token {t:?}")),
        }
    }
}

/// Parse a [`record_to_line`] line back into a record. `&'static` names
/// (workflow, failure kind) resolve against the live vocabulary — a name
/// this build does not know is a validation failure, not a panic.
pub fn record_from_line(line: &str) -> Result<QueryRecord, String> {
    let mut t = Toks::new(line);
    let workflow = {
        let name = t.string()?;
        workflow_name(&name).ok_or_else(|| format!("unknown workflow {name:?}"))?
    };
    let database = t.string()?;
    let variant = {
        let name = t.string()?;
        variant_by_name(&name).ok_or_else(|| format!("unknown variant {name:?}"))?
    };
    let question_id = t.usize()?;
    let parse_ok = t.bool01()?;
    let set_matched = t.bool01()?;
    let exec_correct = t.bool01()?;
    let linking = match t.next()? {
        "L" => Some(LinkingScores {
            recall: t.f64()?,
            precision: t.f64()?,
            f1: t.f64()?,
            true_positives: t.usize()?,
        }),
        "-" => None,
        other => return Err(format!("bad linking marker {other:?}")),
    };
    let subset = match t.next()? {
        "S" => Some((t.f64()?, t.f64()?, t.f64()?)),
        "-" => None,
        other => return Err(format!("bad subset marker {other:?}")),
    };
    let mut gold_ids = BTreeSet::new();
    for _ in 0..t.usize()? {
        gold_ids.insert(t.string()?);
    }
    let mut pred_ids = BTreeSet::new();
    for _ in 0..t.usize()? {
        pred_ids.insert(t.string()?);
    }
    let measures = crate::measures::QueryMeasures {
        prop_regular: t.f64()?,
        prop_low: t.f64()?,
        prop_least: t.f64()?,
        combined: t.f64()?,
        mean_tcr: t.f64()?,
    };
    let failure = match t.next()? {
        "-" => None,
        name => {
            Some(failure_by_name(name).ok_or_else(|| format!("unknown failure {name:?}"))?)
        }
    };
    let attempts = t.u32()?;
    t.done()?;
    Ok(QueryRecord {
        workflow,
        database,
        variant,
        question_id,
        parse_ok,
        set_matched,
        exec_correct,
        linking,
        subset,
        gold_ids,
        pred_ids,
        measures,
        failure,
        attempts,
    })
}

// ---------------------------------------------------------------------------
// Telemetry line codec (cell files and manifests)
// ---------------------------------------------------------------------------

/// Deterministic telemetry as cell files and manifests store it: a
/// deterministic metrics section and a span rollup.
pub type Telemetry = (Section, BTreeMap<&'static str, SpanStat>);

/// Write telemetry as one line per counter (`TC`), gauge (`TG`), histogram
/// (`TH`) and span name (`TS`), each group in map order.
fn write_telemetry(out: &mut String, (section, spans): &Telemetry) {
    for (name, v) in &section.counters {
        let _ = writeln!(out, "TC {name} {v}");
    }
    for (name, v) in &section.gauges {
        let _ = writeln!(out, "TG {name} {v}");
    }
    for (name, h) in &section.histograms {
        let _ = write!(out, "TH {name} {} {}", h.count, h.sum);
        for c in &h.counts {
            let _ = write!(out, " {c}");
        }
        out.push('\n');
    }
    for (name, s) in spans {
        let _ = writeln!(out, "TS {name} {} {}", s.count, s.total);
    }
}

/// Parse one [`write_telemetry`] line, split into its `tag` and the `rest`,
/// into `tel` (the first line creates it). Every metric must be registered
/// with the line's kind, and a histogram must have its metric's buckets.
fn parse_telemetry_line(
    tel: &mut Option<Telemetry>,
    tag: &str,
    rest: &str,
) -> Result<(), String> {
    let metric = |name: &str, kind: MetricKind| {
        Metric::by_name(name)
            .filter(|m| m.spec().kind == kind)
            .ok_or_else(|| format!("unknown {kind:?} {name}"))
    };
    let (section, spans) = tel.get_or_insert_with(Telemetry::default);
    let mut t = Toks::new(rest);
    match tag {
        "TC" => {
            let m = metric(t.next()?, MetricKind::Counter)?;
            section.counters.insert(m.name(), t.u64()?);
        }
        "TG" => {
            let m = metric(t.next()?, MetricKind::Gauge)?;
            let v = t.next()?.parse().map_err(|_| "bad gauge".to_string())?;
            section.gauges.insert(m.name(), v);
        }
        "TH" => {
            let m = metric(t.next()?, MetricKind::Histogram)?;
            let (count, sum) = (t.u64()?, t.u64()?);
            let counts = t
                .it
                .by_ref()
                .map(|tok| tok.parse().map_err(|_| format!("bad bucket {tok:?}")))
                .collect::<Result<Vec<u64>, _>>()?;
            let bounds = m.spec().buckets;
            if counts.len() != bounds.len() + 1 {
                return Err(format!("{}: bucket shape mismatch", m.name()));
            }
            section.histograms.insert(m.name(), HistSnapshot { bounds, counts, count, sum });
        }
        "TS" => {
            let name = intern(t.next()?);
            spans.insert(name, SpanStat { count: t.u64()?, total: t.u64()? });
        }
        other => return Err(format!("bad telemetry tag {other:?}")),
    }
    t.done()
}

// ---------------------------------------------------------------------------
// Cell store
// ---------------------------------------------------------------------------

/// Checkpoint configuration for a benchmark run.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Checkpoint directory (created on demand). Safe to share between
    /// shards of the same grid; incompatible grids quarantine each other's
    /// records rather than misusing them.
    pub dir: PathBuf,
    /// Crash-injection hook for the self-test harness: abort the process
    /// (no unwinding, no destructors — a SIGKILL equivalent) immediately
    /// after this many successful checkpoint writes.
    pub kill_after_writes: Option<u64>,
}

impl CheckpointSpec {
    /// A plain checkpoint at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> CheckpointSpec {
        CheckpointSpec { dir: dir.into(), kill_after_writes: None }
    }
}

/// Checkpoint accounting for one run, surfaced on
/// [`BenchmarkRun`](crate::pipeline::BenchmarkRun).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Cells restored from verified records.
    pub hits: u64,
    /// Cells with no usable record (fresh, or stored without the telemetry
    /// this run needs).
    pub misses: u64,
    /// Records quarantined after failing validation (recomputed).
    pub corrupt: u64,
    /// Records written this run.
    pub written: u64,
}

/// Outcome of loading one cell from the store.
///
/// `Hit` dwarfs the unit variants because it carries the whole restored
/// record inline; each load is consumed by the cell that asked for it, so
/// the size difference never multiplies across a collection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CellLoad {
    /// Verified record (with its telemetry, when stored).
    Hit {
        /// The restored record.
        record: QueryRecord,
        /// The deterministic telemetry the cell recorded: its nonzero
        /// metrics and its span rollup.
        telemetry: Option<Telemetry>,
    },
    /// No record (or a valid record lacking telemetry a telemetry run
    /// needs) — compute the cell.
    Miss,
    /// Validation failed; the file was quarantined — compute the cell.
    Corrupt,
}

/// The content-addressed on-disk cell store. Safe to share between worker
/// threads: each cell reads and writes only its own file, and the
/// accounting counters are atomic.
pub struct CellStore {
    dir: PathBuf,
    fingerprint: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    writes: AtomicU64,
    kill_after: Option<u64>,
}

/// First line of every cell file. Bump it whenever the layout changes: a
/// file in another layout then fails validation and its cell is
/// recomputed instead of being misparsed.
const CELL_HEADER: &str = "snails-ckpt v3";

impl CellStore {
    /// Open (creating as needed) the store at `spec.dir` for the grid with
    /// the given fingerprint.
    pub fn open(spec: &CheckpointSpec, fingerprint: u64) -> std::io::Result<CellStore> {
        std::fs::create_dir_all(spec.dir.join("cells"))?;
        Ok(CellStore {
            dir: spec.dir.clone(),
            fingerprint,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            kill_after: spec.kill_after_writes,
        })
    }

    /// Content-addressed key for one cell: fingerprint ⊕ grid index.
    fn cell_key(&self, index: usize) -> u64 {
        fnv1a(format!("fp:{:016x}|cell:{index}", self.fingerprint).as_bytes())
    }

    fn cell_path(&self, index: usize) -> PathBuf {
        self.dir
            .join("cells")
            .join(format!("c{index:05}-{:016x}.rec", self.cell_key(index)))
    }

    /// Loads and writes so far by this process.
    pub fn stats(&self) -> CheckpointStats {
        let n = |count: &AtomicU64| count.load(Ordering::Relaxed);
        CheckpointStats {
            hits: n(&self.hits),
            misses: n(&self.misses),
            corrupt: n(&self.corrupt),
            written: n(&self.writes),
        }
    }

    /// Move a failed-validation file into `quarantine/` (best effort — a
    /// quarantine failure must not abort the run; the cell recomputes
    /// either way).
    fn quarantine(&self, path: &Path) {
        let qdir = self.dir.join("quarantine");
        let _ = std::fs::create_dir_all(&qdir);
        if let Some(name) = path.file_name() {
            let _ = std::fs::rename(path, qdir.join(name));
        }
    }

    /// Load and verify cell `index`, counting the outcome in [`Self::stats`]
    /// and the `checkpoint.*` metrics. `need_telemetry` demands stored
    /// telemetry (a record without it is a [`CellLoad::Miss`] for a
    /// telemetry run — valid, just insufficient — and is left in place).
    pub fn load(&self, index: usize, need_telemetry: bool) -> CellLoad {
        let path = self.cell_path(index);
        let load = match std::fs::read(&path) {
            Ok(bytes) => match self.parse_cell(index, &bytes, need_telemetry) {
                Ok(Some(hit)) => hit,
                Ok(None) => CellLoad::Miss,
                Err(_) => CellLoad::Corrupt,
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => CellLoad::Miss,
            Err(_) => CellLoad::Corrupt,
        };
        let (count, metric) = match load {
            CellLoad::Hit { .. } => (&self.hits, Metric::CkptHit),
            CellLoad::Miss => (&self.misses, Metric::CkptMiss),
            CellLoad::Corrupt => {
                self.quarantine(&path);
                (&self.corrupt, Metric::CkptCorrupt)
            }
        };
        count.fetch_add(1, Ordering::Relaxed);
        snails_obs::add(metric, 1);
        load
    }

    /// Validate + parse one cell payload. `Ok(None)` = valid but lacking
    /// required telemetry; `Err` = quarantine.
    fn parse_cell(
        &self,
        index: usize,
        bytes: &[u8],
        need_telemetry: bool,
    ) -> Result<Option<CellLoad>, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "not utf-8".to_string())?;
        let mut lines = verified_body(text, "sum")?.lines();
        if lines.next() != Some(CELL_HEADER) {
            return Err("bad header".into());
        }
        let fp_line = lines.next().ok_or("missing fp")?;
        let mut t = Toks::new(fp_line);
        if t.next()? != "fp" {
            return Err("missing fp".into());
        }
        let fp = u64::from_str_radix(t.next()?, 16).map_err(|_| "bad fp".to_string())?;
        if fp != self.fingerprint {
            return Err("foreign fingerprint".into());
        }
        let cell_line = lines.next().ok_or("missing cell")?;
        let mut t = Toks::new(cell_line);
        if t.next()? != "cell" {
            return Err("missing cell".into());
        }
        if t.usize()? != index {
            return Err("cell index mismatch".into());
        }
        let rec_line = lines.next().ok_or("missing record")?;
        let record = record_from_line(
            rec_line.strip_prefix("rec ").ok_or("missing record")?,
        )?;
        // Telemetry lines, if any, run to the end. A cell stored under
        // telemetry always has at least its `cell` span.
        let mut telemetry = None;
        for line in lines {
            let (tag, rest) = line.split_once(' ').ok_or("bad telemetry line")?;
            parse_telemetry_line(&mut telemetry, tag, rest)?;
        }
        if need_telemetry && telemetry.is_none() {
            return Ok(None);
        }
        Ok(Some(CellLoad::Hit { record, telemetry }))
    }

    /// Atomically persist cell `index`: serialize, write to a temp file,
    /// rename into place, count the write (`checkpoint.written`). When the
    /// crash-injection hook is armed, aborts the process (no unwinding) once
    /// the write quota is reached — after the rename, so the store is left
    /// exactly as a SIGKILL at that instant would leave it.
    pub fn store(
        &self,
        index: usize,
        record: &QueryRecord,
        telemetry: Option<Telemetry>,
    ) -> std::io::Result<()> {
        let mut body = String::new();
        let _ = writeln!(body, "{CELL_HEADER}");
        let _ = writeln!(body, "fp {:016x}", self.fingerprint);
        let _ = writeln!(body, "cell {index}");
        let _ = writeln!(body, "rec {}", record_to_line(record));
        if let Some((mut section, spans)) = telemetry {
            // Keep only the counters and histograms the cell touched;
            // restoring adds nothing else.
            section.counters.retain(|_, v| *v != 0);
            section.histograms.retain(|_, h| h.count != 0);
            write_telemetry(&mut body, &(section, spans));
        }
        let payload = seal(body, "sum");

        let path = self.cell_path(index);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, payload.as_bytes())?;
        std::fs::rename(&tmp, &path)?;
        snails_obs::add(Metric::CkptWritten, 1);
        let written = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if self.kill_after.is_some_and(|k| written >= k) {
            // The injected crash: terminate with no unwinding and no
            // cleanup, exactly like an external SIGKILL mid-grid.
            std::process::abort();
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Manifests and the deterministic merge
// ---------------------------------------------------------------------------

/// One shard's (or a full run's) results in canonical serialized form.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// Grid fingerprint the records belong to.
    pub fingerprint: u64,
    /// Run seed (also folded into the fingerprint; kept for readability).
    pub seed: u64,
    /// Fault profile name.
    pub profile: String,
    /// Which shard this is.
    pub shard: Shard,
    /// Total grid cells (across all shards).
    pub total_cells: usize,
    /// `(grid index, record)`, ascending.
    pub records: Vec<(usize, QueryRecord)>,
    /// In-shard fault accounting.
    pub faults: FaultSummary,
    /// Deterministic telemetry: the deterministic metrics section plus the
    /// span rollup. Assembly and volatile sections are process-local
    /// diagnostics and are deliberately not persisted — manifests from a
    /// fresh, a resumed, and a merged run must render identical bytes.
    pub telemetry: Option<Telemetry>,
}

const MANIFEST_HEADER: &str = "snails-manifest v1";

impl std::fmt::Display for ShardManifest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The trailing checksum covers the whole body, so the rendering
        // cannot stream — build the canonical string, then emit it.
        f.write_str(&self.render())
    }
}

impl ShardManifest {
    /// Canonical serialization; equal manifests render equal bytes.
    /// (`to_string` via [`std::fmt::Display`] returns the same bytes.)
    fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{MANIFEST_HEADER}");
        let _ = writeln!(out, "fp {:016x}", self.fingerprint);
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "profile {}", escape(&self.profile));
        let _ = writeln!(out, "shard {} {}", self.shard.index, self.shard.count);
        let _ = writeln!(out, "cells {}", self.total_cells);
        for (idx, rec) in &self.records {
            let _ = writeln!(out, "R {idx} {}", record_to_line(rec));
        }
        let f = &self.faults;
        let _ = write!(
            out,
            "F {} {} {} {} {}",
            f.cells,
            f.attempts,
            f.retries,
            f.breaker_trips,
            f.failures.len()
        );
        for (name, count) in &f.failures {
            let _ = write!(out, " {name} {count}");
        }
        out.push('\n');
        if let Some(telemetry) = &self.telemetry {
            write_telemetry(&mut out, telemetry);
        }
        seal(out, "end")
    }

    /// Parse a serialized manifest, verifying its trailing checksum.
    pub fn parse(text: &str) -> Result<ShardManifest, String> {
        let mut lines = verified_body(text, "end")?.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err("bad manifest header".into());
        }
        let mut need = |tag: &str| -> Result<String, String> {
            let line = lines.next().ok_or_else(|| format!("missing {tag}"))?;
            line.strip_prefix(tag)
                .and_then(|rest| rest.strip_prefix(' ').or(Some(rest).filter(|r| r.is_empty())))
                .map(str::to_owned)
                .ok_or_else(|| format!("missing {tag}"))
        };
        let fingerprint = u64::from_str_radix(&need("fp")?, 16)
            .map_err(|_| "bad fp".to_string())?;
        let seed: u64 = need("seed")?.parse().map_err(|_| "bad seed".to_string())?;
        let profile = unescape(&need("profile")?)?;
        let shard = {
            let line = need("shard")?;
            let mut t = Toks::new(&line);
            let shard = Shard { index: t.usize()?, count: t.usize()? };
            t.done()?;
            if shard.count == 0 || shard.index >= shard.count {
                return Err("shard out of range".into());
            }
            shard
        };
        let total_cells: usize =
            need("cells")?.parse().map_err(|_| "bad cells".to_string())?;

        let mut records = Vec::new();
        let mut faults = None;
        let mut telemetry = None;
        for line in lines {
            let (tag, rest) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad manifest line {line:?}"))?;
            match tag {
                "R" => {
                    let mut t = Toks::new(rest);
                    let idx = t.usize()?;
                    let rec_start = rest
                        .find(' ')
                        .ok_or_else(|| "truncated record line".to_string())?;
                    records.push((idx, record_from_line(&rest[rec_start + 1..])?));
                }
                "F" => {
                    let mut t = Toks::new(rest);
                    let mut f = FaultSummary {
                        cells: t.usize()?,
                        attempts: t.u64()?,
                        retries: t.u64()?,
                        breaker_trips: t.u64()?,
                        ..FaultSummary::default()
                    };
                    for _ in 0..t.usize()? {
                        let name = failure_by_name(t.next()?)
                            .ok_or_else(|| "unknown failure kind".to_string())?
                            .name();
                        f.failures.insert(name, t.u64()?);
                    }
                    t.done()?;
                    faults = Some(f);
                }
                _ => parse_telemetry_line(&mut telemetry, tag, rest)?,
            }
        }
        let faults = faults.ok_or_else(|| "missing fault summary".to_string())?;
        Ok(ShardManifest {
            fingerprint,
            seed,
            profile,
            shard,
            total_cells,
            records,
            faults,
            telemetry,
        })
    }

    /// Rebuild a telemetry [`Report`] from the persisted deterministic
    /// section (assembly and volatile come back empty — they were never
    /// persisted).
    pub fn report(&self) -> Option<Report> {
        self.telemetry.as_ref().map(|(section, spans)| Report {
            metrics: Snapshot { deterministic: section.clone(), ..Snapshot::default() },
            spans: spans.clone(),
            clock: ClockMode::Sim,
        })
    }
}

/// A section's grid-global metrics, the `llm.*` counters: recorded by the
/// serial planning pre-pass, which always plans the *full* grid (breaker
/// state must evolve in grid order regardless of which cells a shard
/// executes). Every shard therefore carries identical full-grid values;
/// the merge validates that and copies one, instead of summing.
fn grid_global(section: &Section) -> BTreeMap<&'static str, u64> {
    let llm = section.counters.iter().filter(|(name, _)| name.starts_with("llm."));
    llm.map(|(name, v)| (*name, *v)).collect()
}

/// Fold shard manifests into the single-run manifest.
///
/// Validation: all shards must share the fingerprint/seed/profile/cell
/// count and shard count, and their cell sets must tile `0..total_cells`
/// exactly (no gaps, no overlaps). Every merged quantity is either a
/// componentwise sum over disjoint cell sets or a validated-equal copy of a
/// grid-global value, so the merge is order-insensitive and associative by
/// construction; the result renders byte-identical to an uninterrupted
/// single-process run's manifest.
pub fn merge_manifests(mut shards: Vec<ShardManifest>) -> Result<ShardManifest, String> {
    if shards.is_empty() {
        return Err("nothing to merge".into());
    }
    // Order-insensitivity by normalization: sort by shard index up front.
    shards.sort_by_key(|s| s.shard.index);
    let first = &shards[0];
    let (fingerprint, seed, profile, total_cells) =
        (first.fingerprint, first.seed, first.profile.clone(), first.total_cells);
    let with_telemetry = first.telemetry.is_some();
    let mut seen_shards = BTreeSet::new();
    for s in &shards {
        if s.fingerprint != fingerprint {
            return Err(format!(
                "fingerprint mismatch: {:016x} vs {:016x} — manifests are from \
                 different grids",
                s.fingerprint, fingerprint
            ));
        }
        if s.seed != seed || s.profile != profile || s.total_cells != total_cells {
            return Err("manifest metadata mismatch".into());
        }
        if s.telemetry.is_some() != with_telemetry {
            return Err("cannot merge telemetry and non-telemetry manifests".into());
        }
        if !seen_shards.insert((s.shard.index, s.shard.count)) {
            return Err(format!("duplicate shard {}", s.shard.label()));
        }
    }

    // Records must tile the grid exactly.
    let mut records: Vec<(usize, QueryRecord)> =
        shards.iter().flat_map(|s| s.records.iter().cloned()).collect();
    records.sort_by_key(|(i, _)| *i);
    if records.len() != total_cells {
        return Err(format!(
            "merged shards cover {} of {} cells — missing shards?",
            records.len(),
            total_cells
        ));
    }
    for (expect, (idx, _)) in records.iter().enumerate() {
        match idx.cmp(&expect) {
            std::cmp::Ordering::Equal => {}
            std::cmp::Ordering::Less => return Err(format!("cell {idx} covered twice")),
            std::cmp::Ordering::Greater => return Err(format!("cell {expect} missing")),
        }
    }

    let mut faults = FaultSummary::default();
    for s in &shards {
        faults.merge(&s.faults);
    }

    let telemetry = match &shards[0].telemetry {
        None => None,
        Some((first, _)) => {
            let global = grid_global(first);
            let mut section = Section::default();
            let mut spans: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
            for s in &shards {
                let (sect, sp) = s.telemetry.as_ref().expect("validated above");
                if grid_global(sect) != global {
                    return Err(format!(
                        "grid-global counters differ between shards {} and {}",
                        shards[0].shard.label(),
                        s.shard.label()
                    ));
                }
                section.merge(sect);
                for (name, stat) in sp {
                    let slot = spans.entry(name).or_default();
                    slot.count += stat.count;
                    slot.total += stat.total;
                }
            }
            // Every shard carries the full grid's values, so the merge
            // summed one copy per shard: keep just one.
            section.counters.extend(global);
            Some((section, spans))
        }
    };

    Ok(ShardManifest {
        fingerprint,
        seed,
        profile,
        shard: Shard::FULL,
        total_cells,
        records,
        faults,
        telemetry,
    })
}

/// Build the manifest for a finished (possibly sharded, possibly resumed)
/// benchmark invocation. Because a resumed run restores verified records
/// and absorbs their stored telemetry, the manifest of a resumed run is
/// byte-identical to the manifest of the uninterrupted run — the
/// recovery-correctness invariant the self-test harness asserts.
pub fn manifest_from_run(
    run: &crate::pipeline::BenchmarkRun,
    config: &BenchmarkConfig,
) -> ShardManifest {
    let shard = config.shard;
    ShardManifest {
        fingerprint: run.fingerprint,
        seed: config.seed,
        profile: config.fault_profile.name.to_owned(),
        shard,
        total_cells: run.grid_cells,
        records: (0..run.grid_cells)
            .filter(|i| shard.contains(*i))
            .zip(run.records.iter().cloned())
            .collect(),
        faults: run.faults.clone(),
        telemetry: run
            .telemetry
            .as_ref()
            .map(|r| (r.metrics.deterministic.clone(), r.spans.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::QueryMeasures;

    fn sample_record() -> QueryRecord {
        QueryRecord {
            workflow: "gpt-4o",
            database: "CWO".into(),
            variant: SchemaVariant::Least,
            question_id: 17,
            parse_ok: true,
            set_matched: true,
            exec_correct: false,
            linking: Some(LinkingScores {
                recall: 0.75,
                precision: f64::NAN,
                f1: 0.6,
                true_positives: 3,
            }),
            subset: Some((1.0, 0.5, f64::INFINITY)),
            gold_ids: ["A B", "", "C\\D", "-"].iter().map(|s| s.to_string()).collect(),
            pred_ids: ["E\nF"].iter().map(|s| s.to_string()).collect(),
            measures: QueryMeasures {
                prop_regular: 0.1,
                prop_low: -0.0,
                prop_least: f64::MIN_POSITIVE,
                combined: 0.9,
                mean_tcr: 0.33,
            },
            failure: Some(FailureKind::Truncated),
            attempts: 4,
        }
    }

    #[test]
    fn record_line_round_trips_bit_exactly() {
        let rec = sample_record();
        let line = record_to_line(&rec);
        assert!(!line.contains('\n'));
        let back = record_from_line(&line).unwrap();
        // PartialEq on QueryRecord uses f64 ==, which NaN fails; compare
        // through the canonical line instead (bit-exact by construction).
        assert_eq!(record_to_line(&back), line);
        assert_eq!(back.gold_ids, rec.gold_ids);
        assert_eq!(back.pred_ids, rec.pred_ids);
        assert_eq!(back.workflow, rec.workflow);
        assert!(back.linking.unwrap().precision.is_nan());
    }

    #[test]
    fn record_parse_rejects_garbage() {
        assert!(record_from_line("").is_err());
        assert!(record_from_line("nope").is_err());
        let rec = sample_record();
        let line = record_to_line(&rec);
        // Truncations at any token boundary fail loudly, never panic.
        let tokens: Vec<&str> = line.split(' ').collect();
        for cut in 0..tokens.len() {
            let partial = tokens[..cut].join(" ");
            assert!(record_from_line(&partial).is_err(), "cut at {cut} parsed");
        }
        // Unknown vocabulary is a validation failure.
        let alien = line.replacen("gpt-4o", "gpt-99", 1);
        assert!(record_from_line(&alien).is_err());
    }

    #[test]
    fn escape_round_trips() {
        for s in ["", " ", "a b", "\\", "\\_", "a\nb\tc\r", "plain", "\\e"] {
            let tok = escape(s);
            assert!(!tok.is_empty());
            assert!(!tok.contains(char::is_whitespace), "{tok:?}");
            assert_eq!(unescape(&tok).unwrap(), s, "{s:?}");
        }
    }

    #[test]
    fn shard_parse_and_membership() {
        assert_eq!(Shard::parse("0/4").unwrap(), Shard { index: 0, count: 4 });
        assert_eq!(Shard::parse("3/4").unwrap(), Shard { index: 3, count: 4 });
        for bad in ["", "4", "4/4", "5/4", "a/4", "1/0", "1/b"] {
            assert!(Shard::parse(bad).is_err(), "{bad:?}");
        }
        // Every index belongs to exactly one shard.
        for i in 0..100 {
            let owners: Vec<usize> = (0..4)
                .filter(|&s| Shard { index: s, count: 4 }.contains(i))
                .collect();
            assert_eq!(owners.len(), 1);
        }
    }

    #[test]
    fn manifest_round_trips_and_checksums() {
        let manifest = ShardManifest {
            fingerprint: 0xdead_beef_1234_5678,
            seed: 2024,
            profile: "flaky".into(),
            shard: Shard { index: 1, count: 2 },
            total_cells: 4,
            records: vec![(1, sample_record()), (3, sample_record())],
            faults: FaultSummary {
                cells: 2,
                attempts: 5,
                retries: 3,
                breaker_trips: 1,
                failures: [("truncated", 2u64)].into_iter().collect(),
            },
            telemetry: None,
        };
        let text = manifest.to_string();
        let back = ShardManifest::parse(&text).unwrap();
        assert_eq!(back.to_string(), text);
        assert_eq!(back.faults, manifest.faults);
        assert_eq!(back.records.len(), 2);
        // A flipped byte anywhere in the body fails the checksum.
        let corrupted = text.replacen("flaky", "flakx", 1);
        assert!(ShardManifest::parse(&corrupted).is_err());
    }

    #[test]
    fn merge_rejects_incompatible_and_incomplete_shards() {
        let base = ShardManifest {
            fingerprint: 1,
            seed: 7,
            profile: "none".into(),
            shard: Shard { index: 0, count: 2 },
            total_cells: 2,
            records: vec![(0, sample_record())],
            faults: FaultSummary { cells: 1, ..FaultSummary::default() },
            telemetry: None,
        };
        let other = ShardManifest {
            shard: Shard { index: 1, count: 2 },
            records: vec![(1, sample_record())],
            ..base.clone()
        };
        // Complete tiling merges.
        let merged = merge_manifests(vec![other.clone(), base.clone()]).unwrap();
        assert_eq!(merged.records.len(), 2);
        assert_eq!(merged.shard, Shard::FULL);
        assert_eq!(merged.faults.cells, 2);
        // Missing a shard: count mismatch.
        assert!(merge_manifests(vec![base.clone()]).is_err());
        // Duplicate shard: overlap.
        assert!(merge_manifests(vec![base.clone(), base.clone()]).is_err());
        // Foreign fingerprint.
        let alien = ShardManifest { fingerprint: 2, ..other.clone() };
        assert!(merge_manifests(vec![base.clone(), alien]).is_err());

        // Telemetry: a shard's `planned` is the full grid's llm.* count,
        // `items` and the span rollup its own cells'.
        let tel = |planned: u64, items: u64| -> Telemetry {
            let mut section = Section::default();
            section.counters.insert("llm.cells.planned", planned);
            section.counters.insert("core.scheduler.items", items);
            let spans = [("cell", SpanStat { count: items, total: 3 * items })];
            (section, spans.into_iter().collect())
        };
        let with =
            |m: &ShardManifest, t: Telemetry| ShardManifest { telemetry: Some(t), ..m.clone() };
        let merged =
            merge_manifests(vec![with(&base, tel(2, 1)), with(&other, tel(2, 1))]).unwrap();
        let parsed = ShardManifest::parse(&merged.to_string()).unwrap();
        assert_eq!(parsed.telemetry, merged.telemetry);
        assert_eq!(parsed.to_string(), merged.to_string());
        let (section, spans) = merged.telemetry.unwrap();
        assert_eq!(section.counters["llm.cells.planned"], 2, "llm.* copied once");
        assert_eq!(section.counters["core.scheduler.items"], 2, "cell counters sum");
        assert_eq!(spans["cell"], SpanStat { count: 2, total: 6 });
        // Shards that disagree on an llm.* counter planned different grids.
        assert!(merge_manifests(vec![with(&base, tel(2, 1)), with(&other, tel(3, 1))]).is_err());
        // Telemetry on one shard only.
        assert!(merge_manifests(vec![with(&base, tel(2, 1)), other]).is_err());
    }
}
