//! Pinned simulated statistics.
//!
//! Guest instruction counts, simulated cycles, switch and
//! protection-write counts, fleet totals and oracle verdicts are pure
//! functions of the inputs. `pinned.txt` records them; every run
//! compares what it measured against the file and is not correct if
//! any of them moved. A host-side speed-up must leave them identical.
//!
//! Format: one subject per line, `<subject words> | key=value ...`.
//! `opec-perfbench pin` prints a fresh table.

use std::collections::BTreeMap;

use crate::stats::Outcome;

const PINNED: &str = include_str!("../pinned.txt");

pub struct Pinned(BTreeMap<String, BTreeMap<String, String>>);

impl Pinned {
    pub fn load() -> Pinned {
        let mut map = BTreeMap::new();
        for line in PINNED.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let (subject, stats) = line.split_once('|').expect("pinned line has a '|'");
            let stats = stats
                .split_whitespace()
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            map.insert(subject.trim().to_string(), stats);
        }
        Pinned(map)
    }

    /// Compares measured `(key, value)` pairs of `subject` against the
    /// pinned table; every mismatch makes the run incorrect.
    pub fn check(&self, out: &mut Outcome, subject: &str, measured: &[(&str, String)]) {
        let Some(pinned) = self.0.get(subject) else {
            out.wrong(format!("no pinned statistics for `{subject}`"));
            return;
        };
        for (key, value) in measured {
            match pinned.get(*key) {
                Some(p) if p == value => {}
                Some(p) => out.wrong(format!("{subject}: {key} = {value}, pinned {p}")),
                None => out.wrong(format!("{subject}: {key} is not pinned")),
            }
        }
    }
}

/// Formats one pinned-table line.
pub fn line(subject: &str, stats: &[(&str, String)]) -> String {
    let kv: Vec<String> = stats.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{subject} | {}", kv.join(" "))
}
