//! The persistent, minimized fuzzing corpus.
//!
//! One JSON file per entry, named by the entry's *key*: the FNV digest
//! of the coverage features the entry uniquely contributed to the
//! aggregate at admission time. Each file carries the full
//! [`FirmwareSpec`] plan (so a corpus is self-contained and
//! re-runnable on any backend) plus the entry's whole coverage set (so
//! loading a corpus never needs to re-execute anything to know what it
//! covers).
//!
//! Minimization is a greedy set cover, re-run on every load: entries
//! are visited smallest-plan-first (key as the tie-break, so the
//! result is deterministic) and kept only if they still contribute a
//! feature the kept set lacks. Stale files — entries another, smaller
//! entry has since subsumed — are deleted on [`Corpus::save`], which
//! is what keeps a long-lived CI corpus from growing monotonically.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use opec_campaign::json::{self, Value};

use crate::coverage::CoverageMap;
use crate::gen::{FirmwareSpec, FuncSpec, GlobalSpec, Stmt};
use crate::mutate::well_formed;

/// One corpus entry: a plan and the coverage it achieved.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// 16-hex-digit digest of the features the entry contributed when
    /// admitted (the on-disk file stem).
    pub key: String,
    /// The firmware plan.
    pub spec: FirmwareSpec,
    /// The full coverage the plan achieved on its admitting run.
    pub coverage: CoverageMap,
}

impl CorpusEntry {
    /// Plan size (the minimizer's primary sort key).
    pub fn size(&self) -> usize {
        self.spec.size()
    }
}

/// An in-memory corpus, optionally bound to an on-disk directory.
#[derive(Debug, Default)]
pub struct Corpus {
    dir: Option<PathBuf>,
    /// Kept entries, smallest plan first (key-ordered tie-break).
    pub entries: Vec<CorpusEntry>,
    /// Union of every kept entry's coverage.
    pub aggregate: CoverageMap,
}

impl Corpus {
    /// An empty, memory-only corpus (benchmarks, tests).
    pub fn in_memory() -> Corpus {
        Corpus::default()
    }

    /// Loads and re-minimizes the corpus at `dir`, creating the
    /// directory if absent. Unparseable or ill-formed entries are
    /// reported as errors, never silently skipped — a poisoned corpus
    /// would quietly misdirect every subsequent campaign.
    pub fn load(dir: &Path) -> Result<Corpus, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("corpus dir {}: {e}", dir.display()))?;
        let mut raw = Vec::new();
        let mut names = std::fs::read_dir(dir)
            .map_err(|e| format!("corpus dir {}: {e}", dir.display()))?
            .filter_map(|ent| ent.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect::<Vec<_>>();
        names.sort();
        for path in names {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("corpus entry {}: {e}", path.display()))?;
            let entry = entry_from_json(&text)
                .map_err(|e| format!("corpus entry {}: {e}", path.display()))?;
            raw.push(entry);
        }
        let mut c = Corpus { dir: Some(dir.to_path_buf()), ..Corpus::default() };
        c.entries = minimize(raw);
        for e in &c.entries {
            c.aggregate.merge(&e.coverage);
        }
        Ok(c)
    }

    /// Offers `(spec, coverage)` to the corpus. Admitted — and
    /// returned — only when the coverage contributes at least one
    /// feature the aggregate lacks; the entry is keyed by that unique
    /// contribution.
    pub fn admit(&mut self, spec: FirmwareSpec, coverage: CoverageMap) -> Option<&CorpusEntry> {
        let fresh = coverage.minus(&self.aggregate);
        if fresh.is_empty() {
            return None;
        }
        let key = format!("{:016x}", fresh.digest());
        self.aggregate.merge(&coverage);
        let entry = CorpusEntry { key, spec, coverage };
        // Insert at the minimizer's canonical position so iteration
        // order never depends on admission order vs. load order.
        let at = self
            .entries
            .partition_point(|e| (e.size(), e.key.as_str()) < (entry.size(), entry.key.as_str()));
        self.entries.insert(at, entry);
        Some(&self.entries[at])
    }

    /// The smallest entry whose coverage contains `feat` (the
    /// `check --shrink` corpus lookup: `feat` is a divergence key).
    pub fn smallest_with(&self, feat: u64) -> Option<&CorpusEntry> {
        self.entries.iter().find(|e| e.coverage.contains(feat))
    }

    /// Writes every kept entry to the bound directory and deletes
    /// stale `.json` files the minimizer dropped. No-op when
    /// memory-only.
    pub fn save(&self) -> Result<(), String> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let keep: BTreeSet<String> =
            self.entries.iter().map(|e| format!("{}.json", e.key)).collect();
        for e in &self.entries {
            let path = dir.join(format!("{}.json", e.key));
            std::fs::write(&path, entry_json(e))
                .map_err(|err| format!("corpus write {}: {err}", path.display()))?;
        }
        for ent in std::fs::read_dir(dir).map_err(|e| format!("corpus dir: {e}"))? {
            let Ok(ent) = ent else { continue };
            let name = ent.file_name().to_string_lossy().into_owned();
            if name.ends_with(".json") && !keep.contains(&name) {
                let _ = std::fs::remove_file(ent.path());
            }
        }
        Ok(())
    }
}

/// Greedy set-cover minimization: smallest plan first (key tie-break),
/// keep an entry only if it covers something the kept set misses.
fn minimize(mut raw: Vec<CorpusEntry>) -> Vec<CorpusEntry> {
    raw.sort_by(|a, b| (a.size(), a.key.as_str()).cmp(&(b.size(), b.key.as_str())));
    let mut kept = Vec::new();
    let mut agg = CoverageMap::new();
    for e in raw {
        if !e.coverage.subset_of(&agg) {
            agg.merge(&e.coverage);
            kept.push(e);
        }
    }
    kept
}

// ---- JSON (hand-rolled; the workspace carries no serde) ----

fn stmt_json(s: &Stmt) -> String {
    match *s {
        Stmt::LoadG { g, off } => format!("{{\"k\":\"loadg\",\"g\":{g},\"off\":{off}}}"),
        Stmt::StoreG { g, off, val } => {
            format!("{{\"k\":\"storeg\",\"g\":{g},\"off\":{off},\"val\":{val}}}")
        }
        Stmt::Mmio { p, reg, write } => {
            format!("{{\"k\":\"mmio\",\"p\":{p},\"reg\":{reg},\"write\":{write}}}")
        }
        Stmt::Call { f } => format!("{{\"k\":\"call\",\"f\":{f}}}"),
        Stmt::ICall { f } => format!("{{\"k\":\"icall\",\"f\":{f}}}"),
        Stmt::Work => "{\"k\":\"work\"}".to_string(),
    }
}

/// Renders a plan as canonical JSON (stable field order, no floats).
pub fn spec_json(spec: &FirmwareSpec) -> String {
    let periphs = spec.periph_bases.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(",");
    let globals = spec
        .globals
        .iter()
        .map(|g| {
            let cs = g.clusters.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(",");
            format!("{{\"words\":{},\"clusters\":[{cs}]}}", g.words)
        })
        .collect::<Vec<_>>()
        .join(",");
    let funcs = spec
        .funcs
        .iter()
        .map(|f| {
            let body = f.body.iter().map(stmt_json).collect::<Vec<_>>().join(",");
            let entry = match f.entry_of {
                Some(i) => i.to_string(),
                None => "null".to_string(),
            };
            format!("{{\"cluster\":{},\"entry_of\":{entry},\"body\":[{body}]}}", f.cluster)
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"seed\":{},\"periph_bases\":[{periphs}],\"globals\":[{globals}],\"funcs\":[{funcs}]}}",
        spec.seed
    )
}

fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Value::as_u64).ok_or_else(|| format!("missing/invalid {key:?}"))
}

fn stmt_from(v: &Value) -> Result<Stmt, String> {
    let k = v.get("k").and_then(Value::as_str).ok_or("stmt missing \"k\"")?;
    Ok(match k {
        "loadg" => Stmt::LoadG { g: need_u64(v, "g")? as usize, off: need_u64(v, "off")? as u32 },
        "storeg" => Stmt::StoreG {
            g: need_u64(v, "g")? as usize,
            off: need_u64(v, "off")? as u32,
            val: need_u64(v, "val")? as u32,
        },
        "mmio" => Stmt::Mmio {
            p: need_u64(v, "p")? as usize,
            reg: need_u64(v, "reg")? as u32,
            write: v.get("write").and_then(Value::as_bool).ok_or("mmio missing \"write\"")?,
        },
        "call" => Stmt::Call { f: need_u64(v, "f")? as usize },
        "icall" => Stmt::ICall { f: need_u64(v, "f")? as usize },
        "work" => Stmt::Work,
        other => return Err(format!("unknown stmt kind {other:?}")),
    })
}

/// Parses a plan from its canonical JSON. The plan must be
/// [`well_formed`]: every call, global and peripheral index in range.
pub fn spec_from(v: &Value) -> Result<FirmwareSpec, String> {
    let seed = need_u64(v, "seed")?;
    let periph_bases = v
        .get("periph_bases")
        .and_then(Value::as_arr)
        .ok_or("missing periph_bases")?
        .iter()
        .map(|b| b.as_u64().map(|x| x as u32).ok_or_else(|| "bad base".to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let globals = v
        .get("globals")
        .and_then(Value::as_arr)
        .ok_or("missing globals")?
        .iter()
        .map(|g| {
            let words = need_u64(g, "words")? as u32;
            let clusters = g
                .get("clusters")
                .and_then(Value::as_arr)
                .ok_or("global missing clusters")?
                .iter()
                .map(|c| c.as_u64().map(|x| x as usize).ok_or_else(|| "bad cluster".to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, String>(GlobalSpec { words, clusters })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let funcs = v
        .get("funcs")
        .and_then(Value::as_arr)
        .ok_or("missing funcs")?
        .iter()
        .map(|f| {
            let cluster = need_u64(f, "cluster")? as usize;
            let entry_of = match f.get("entry_of") {
                Some(Value::Null) | None => None,
                Some(x) => Some(x.as_u64().ok_or("bad entry_of")? as usize),
            };
            let body = f
                .get("body")
                .and_then(Value::as_arr)
                .ok_or("func missing body")?
                .iter()
                .map(stmt_from)
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, String>(FuncSpec { cluster, entry_of, body })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let spec = FirmwareSpec { seed, periph_bases, globals, funcs };
    // Indices out of range would panic the module builder downstream.
    well_formed(&spec).map_err(|e| format!("ill-formed plan: {e}"))?;
    Ok(spec)
}

/// Renders a corpus entry (plan + coverage + key) as canonical JSON.
pub fn entry_json(e: &CorpusEntry) -> String {
    let feats = e.coverage.features().map(|f| f.to_string()).collect::<Vec<_>>().join(",");
    format!(
        "{{\"key\":\"{}\",\"spec\":{},\"coverage\":[{feats}]}}",
        json::escape(&e.key),
        spec_json(&e.spec)
    )
}

/// Parses a corpus entry from its canonical JSON.
pub fn entry_from_json(text: &str) -> Result<CorpusEntry, String> {
    let v = json::parse(text)?;
    let key = v.get("key").and_then(Value::as_str).ok_or("missing key")?.to_string();
    let spec = spec_from(v.get("spec").ok_or("missing spec")?)?;
    let feats = v
        .get("coverage")
        .and_then(Value::as_arr)
        .ok_or("missing coverage")?
        .iter()
        .map(|f| f.as_u64().ok_or_else(|| "bad feature".to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CorpusEntry { key, spec, coverage: CoverageMap::from_features(feats) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    fn cov(feats: &[u64]) -> CoverageMap {
        CoverageMap::from_features(feats.iter().copied())
    }

    #[test]
    fn spec_json_round_trips() {
        for seed in [0u64, 3, 17, 99] {
            let spec = generate(seed);
            let text = spec_json(&spec);
            let back = spec_from(&json::parse(&text).expect("parse")).expect("decode");
            assert_eq!(spec, back);
            // Canonical: render(decode(render)) is byte-identical.
            assert_eq!(text, spec_json(&back));
        }
    }

    #[test]
    fn admit_keys_by_unique_contribution() {
        let mut c = Corpus::in_memory();
        let a = c.admit(generate(1), cov(&[1, 2])).expect("first entry admits").key.clone();
        // Fully subsumed coverage is rejected.
        assert!(c.admit(generate(2), cov(&[2])).is_none());
        // Only the fresh feature keys the new entry.
        let b = c.admit(generate(3), cov(&[2, 5])).expect("fresh feature").key.clone();
        assert_ne!(a, b);
        assert_eq!(b, format!("{:016x}", cov(&[5]).digest()));
        assert_eq!(c.aggregate, cov(&[1, 2, 5]));
    }

    #[test]
    fn load_minimizes_and_save_drops_stale_files() {
        let dir = std::env::temp_dir().join(format!("opec-corpus-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut c = Corpus::load(&dir).expect("fresh dir");
            // A big plan covering {1,2} and a small one covering {1,2}
            // plus {3}: after re-minimization the small one subsumes
            // the big one only if it covers a superset.
            let mut big = generate(4);
            while big.size() <= generate(8).size() {
                big.funcs[0].body.push(crate::gen::Stmt::Work);
            }
            c.admit(big, cov(&[1, 2])).expect("admitted");
            c.admit(generate(8), cov(&[1, 2, 3])).expect("admitted");
            c.save().expect("save");
        }
        let c = Corpus::load(&dir).expect("reload");
        // The small superset entry wins; the big one is dropped.
        assert_eq!(c.entries.len(), 1);
        assert_eq!(c.aggregate, cov(&[1, 2, 3]));
        c.save().expect("save prunes");
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .collect();
        assert_eq!(files.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn smallest_with_prefers_the_smallest_plan() {
        let mut c = Corpus::in_memory();
        let mut big = generate(11);
        for _ in 0..8 {
            big.funcs[0].body.push(crate::gen::Stmt::Work);
        }
        let small = crate::shrink::shrink(&generate(11), |_| true, usize::MAX);
        // `shrink` with an always-true predicate reduces to a tiny plan.
        c.admit(big, cov(&[7, 8])).expect("big admits");
        c.admit(small.clone(), cov(&[7, 9])).expect("small admits");
        assert_eq!(c.smallest_with(7).expect("feature present").spec, small);
    }
}
