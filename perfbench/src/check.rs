//! Correctness: every operation's `SimResult` against the reference
//! values stored with the benchmark (default seed only) and against its
//! twin on another execution path (every seed).

use btbx_uarch::SimResult;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What the reference keeps of one result: two readable counters and a
/// digest of the whole serialized `SimResult`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefStats {
    pub key: String,
    pub instructions: u64,
    pub cycles: u64,
    /// Informational only; the digest decides.
    pub btb_mpki: f64,
    pub digest: String,
}

impl RefStats {
    pub fn of(key: &str, r: &SimResult) -> RefStats {
        let json = serde_json::to_string(r).expect("results serialize");
        RefStats {
            key: key.to_string(),
            instructions: r.stats.instructions,
            cycles: r.stats.cycles,
            btb_mpki: r.stats.btb_mpki(),
            digest: format!("{:016x}", fnv1a(json.as_bytes())),
        }
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[derive(Debug, Default, Serialize, Deserialize)]
struct RefFile {
    entries: Vec<RefStats>,
}

/// Reference entries keyed by point.
pub type Reference = BTreeMap<String, RefStats>;

pub fn load_reference(path: &Path) -> Result<Reference, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading reference {}: {e}", path.display()))?;
    let file: RefFile = serde_json::from_str(&text)
        .map_err(|e| format!("parsing reference {}: {e}", path.display()))?;
    Ok(file
        .entries
        .into_iter()
        .map(|e| (e.key.clone(), e))
        .collect())
}

/// Merge `entries` into the reference file at `path` (created if
/// absent), keeping keys sorted so the file diffs cleanly.
pub fn merge_reference(path: &Path, entries: Reference) -> Result<usize, String> {
    let mut all = if path.exists() {
        load_reference(path)?
    } else {
        Reference::new()
    };
    let added = entries.len();
    all.extend(entries);
    let file = RefFile {
        entries: all.into_values().collect(),
    };
    let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(path, json + "\n").map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(added)
}

/// Counts attempted and failed operations and remembers why each
/// failure happened. Shared by every thread of a run.
#[derive(Default)]
pub struct Checker {
    /// `Some` when this run must match the stored reference.
    reference: Option<Reference>,
    attempted: AtomicU64,
    failed: AtomicU64,
    problems: Mutex<Vec<String>>,
    /// Every checked result, for `--write-reference`.
    seen: Mutex<Reference>,
}

impl Checker {
    pub fn new(reference: Option<Reference>) -> Checker {
        Checker {
            reference,
            ..Checker::default()
        }
    }

    /// Check one result: against `twin` (the same point on another
    /// path) when given, then against the reference when one applies.
    pub fn stats(
        &self,
        key: &str,
        result: &SimResult,
        twin: Option<&SimResult>,
    ) -> Result<(), String> {
        self.twin(key, result, twin)?;
        let got = RefStats::of(key, twin.unwrap_or(result));
        self.seen
            .lock()
            .expect("checker poisoned")
            .insert(key.to_string(), got.clone());
        match self.reference.as_ref().map(|r| r.get(key)) {
            None => Ok(()),
            Some(None) => Err(format!("{key}: no reference entry")),
            Some(Some(want)) if *want != got => Err(format!(
                "{key}: stats differ from reference (digest {} vs {}, cycles {} vs {})",
                got.digest, want.digest, got.cycles, want.cycles
            )),
            Some(Some(_)) => Ok(()),
        }
    }

    /// Check one result against its twin only (points the reference
    /// cannot cover, such as the server's never-seen points).
    pub fn twin(
        &self,
        key: &str,
        result: &SimResult,
        twin: Option<&SimResult>,
    ) -> Result<(), String> {
        match twin {
            Some(t) if t != result => Err(format!(
                "{key}: differs from its twin on the other path (cycles {} vs {})",
                result.stats.cycles, t.stats.cycles
            )),
            _ => Ok(()),
        }
    }

    /// Count one attempted operation and its outcome.
    pub fn record(&self, outcome: Result<(), String>) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if let Err(why) = outcome {
            self.failed.fetch_add(1, Ordering::Relaxed);
            let mut problems = self.problems.lock().expect("checker poisoned");
            if problems.len() < 20 {
                problems.push(why);
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn problems(&self) -> Vec<String> {
        self.problems.lock().expect("checker poisoned").clone()
    }

    pub fn seen(&self) -> Reference {
        self.seen.lock().expect("checker poisoned").clone()
    }
}
