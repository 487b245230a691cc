//! Simulation parameters: the paper's Table II plus model-specific
//! pipeline depths.

use serde::{Deserialize, Serialize};

/// Core and memory-hierarchy parameters.
///
/// Defaults reproduce Table II (an Intel Sunny-Cove-like core):
/// 6-wide fetch, 128-entry FTQ, hashed-perceptron direction prediction,
/// 64-entry RAS, 352-entry ROB, 32 KB/8-way L1-I, 48 KB/12-way L1-D,
/// 512 KB/8-way L2, 2 MB/16-way LLC with the listed latencies and MSHR
/// counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Fetch width (instructions per cycle).
    pub fetch_width: u32,
    /// FTQ capacity in instructions.
    pub ftq_entries: usize,
    /// Instructions the BPU can predict per cycle.
    pub bpu_width: u32,
    /// Predicted-taken branches the BPU can process per cycle.
    pub bpu_taken_per_cycle: u32,
    /// RAS entries.
    pub ras_entries: usize,
    /// ROB capacity (in-flight instruction bound).
    pub rob_entries: usize,
    /// Commit width (instructions per cycle).
    pub commit_width: u32,
    /// Pipeline depth from fetch to the end of decode; a decode-stage
    /// resteer costs this many cycles after the branch was fetched.
    pub decode_depth: u32,
    /// Pipeline depth from fetch to branch resolution in execute.
    pub execute_depth: u32,
    /// Extra cycles to restart fetch after any resteer.
    pub redirect_penalty: u32,
    /// Depth from fetch to load issue (L1-D access start).
    pub issue_depth: u32,

    /// Enable the decode-stage resteer optimization of Section VI-A.
    pub decode_resteer: bool,
    /// Enable FDIP instruction prefetching.
    pub fdip: bool,

    /// L1-I geometry: (bytes, ways, hit latency, MSHRs).
    pub l1i: CacheParams,
    /// L1-D geometry.
    pub l1d: CacheParams,
    /// Unified L2 geometry.
    pub l2: CacheParams,
    /// Last-level cache geometry.
    pub llc: CacheParams,
    /// Main-memory latency in cycles.
    pub memory_latency: u32,
}

/// Geometry and timing of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheParams {
    /// Capacity in bytes.
    pub bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Access (hit) latency in cycles.
    pub latency: u32,
    /// Miss status holding registers (outstanding misses).
    pub mshrs: usize,
}

impl CacheParams {
    /// Number of 64-byte-block sets.
    pub fn sets(&self) -> usize {
        self.bytes / 64 / self.ways
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fetch_width: 6,
            ftq_entries: 128,
            bpu_width: 8,
            bpu_taken_per_cycle: 2,
            ras_entries: 64,
            rob_entries: 352,
            commit_width: 6,
            decode_depth: 4,
            execute_depth: 12,
            redirect_penalty: 1,
            issue_depth: 8,
            decode_resteer: true,
            fdip: true,
            l1i: CacheParams {
                bytes: 32 * 1024,
                ways: 8,
                latency: 4,
                mshrs: 8,
            },
            l1d: CacheParams {
                bytes: 48 * 1024,
                ways: 12,
                latency: 5,
                mshrs: 16,
            },
            l2: CacheParams {
                bytes: 512 * 1024,
                ways: 8,
                latency: 15,
                mshrs: 32,
            },
            llc: CacheParams {
                bytes: 2 * 1024 * 1024,
                ways: 16,
                latency: 35,
                mshrs: 64,
            },
            memory_latency: 200,
        }
    }
}

/// Largest capacity of one cache level: 32× Table II's LLC.
const MAX_CACHE_BYTES: usize = 64 << 20;
/// Most MSHRs one cache level may have (Table II's LLC has 64).
const MAX_MSHRS: usize = 256;
/// Most FTQ, ROB or RAS entries (Table II's ROB has 352).
const MAX_QUEUE_ENTRIES: usize = 4096;
/// Widest fetch, prediction or commit stage (Table II's fetch is 6 wide).
const MAX_WIDTH: u32 = 64;

/// Why a [`SimConfig`] cannot be simulated: the offending field and the
/// rule it breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Dotted field path, e.g. `llc.ways`.
    pub field: String,
    /// What the field must satisfy, with the value it had.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config.{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

fn bounded(field: &str, value: u64, lo: u64, hi: u64) -> Result<(), ConfigError> {
    if (lo..=hi).contains(&value) {
        Ok(())
    } else {
        Err(ConfigError {
            field: field.to_string(),
            reason: format!("{value} is outside {lo}..={hi}"),
        })
    }
}

impl CacheParams {
    /// Check this level's geometry (ways in 1..=64, bytes in 64..=64 MiB,
    /// MSHRs in 1..=256, a power-of-two set count, which also rules out
    /// the zero sets `Cache::new` refuses); `level` names it in the error.
    fn validate(&self, level: &str) -> Result<(), ConfigError> {
        bounded(&format!("{level}.ways"), self.ways as u64, 1, 64)?;
        bounded(
            &format!("{level}.bytes"),
            self.bytes as u64,
            64,
            MAX_CACHE_BYTES as u64,
        )?;
        bounded(
            &format!("{level}.mshrs"),
            self.mshrs as u64,
            1,
            MAX_MSHRS as u64,
        )?;
        let sets = self.sets();
        if !sets.is_power_of_two() {
            return Err(ConfigError {
                field: format!("{level}.bytes"),
                reason: format!(
                    "{} bytes / 64-byte blocks / {} ways gives {sets} sets, not a power of two",
                    self.bytes, self.ways
                ),
            });
        }
        Ok(())
    }
}

impl SimConfig {
    /// Check that this configuration can be simulated: every cache level
    /// has 1..=64 ways, 64 B..=64 MiB, 1..=256 MSHRs and a power-of-two
    /// set count; the FTQ, ROB and RAS hold 1..=4096 entries; every width
    /// is in 1..=64. Sessions call it before building anything, so a
    /// hostile configuration is an error, never an allocation failure or
    /// a panic.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("fetch_width", self.fetch_width),
            ("bpu_width", self.bpu_width),
            ("bpu_taken_per_cycle", self.bpu_taken_per_cycle),
            ("commit_width", self.commit_width),
        ] {
            bounded(field, value as u64, 1, MAX_WIDTH as u64)?;
        }
        for (field, value) in [
            ("ftq_entries", self.ftq_entries),
            ("rob_entries", self.rob_entries),
            ("ras_entries", self.ras_entries),
        ] {
            bounded(field, value as u64, 1, MAX_QUEUE_ENTRIES as u64)?;
        }
        for (level, params) in [
            ("l1i", &self.l1i),
            ("l1d", &self.l1d),
            ("l2", &self.l2),
            ("llc", &self.llc),
        ] {
            params.validate(level)?;
        }
        Ok(())
    }

    /// Table II configuration with FDIP enabled.
    pub fn with_fdip() -> Self {
        SimConfig::default()
    }

    /// Table II configuration without instruction prefetching (the
    /// paper's "no" prefetcher builds).
    pub fn without_fdip() -> Self {
        SimConfig {
            fdip: false,
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let c = SimConfig::default();
        assert_eq!(c.fetch_width, 6);
        assert_eq!(c.ftq_entries, 128);
        assert_eq!(c.ras_entries, 64);
        assert_eq!(c.rob_entries, 352);
        assert_eq!(c.l1i.bytes, 32 * 1024);
        assert_eq!(c.l1i.ways, 8);
        assert_eq!(c.l1i.latency, 4);
        assert_eq!(c.l1i.mshrs, 8);
        assert_eq!(c.l1d.bytes, 48 * 1024);
        assert_eq!(c.l1d.ways, 12);
        assert_eq!(c.l2.bytes, 512 * 1024);
        assert_eq!(c.llc.bytes, 2 * 1024 * 1024);
        assert_eq!(c.llc.ways, 16);
        assert_eq!(c.llc.mshrs, 64);
    }

    #[test]
    fn cache_sets_are_consistent() {
        let c = SimConfig::default();
        assert_eq!(c.l1i.sets(), 64);
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 1024);
        assert_eq!(c.llc.sets(), 2048);
    }

    #[test]
    fn table_ii_configurations_validate() {
        assert_eq!(SimConfig::with_fdip().validate(), Ok(()));
        assert_eq!(SimConfig::without_fdip().validate(), Ok(()));
    }

    #[test]
    fn hostile_geometries_are_rejected() {
        type Edit = fn(&mut SimConfig);
        let cases: [(&str, Edit); 8] = [
            ("llc.bytes", |c| c.llc.bytes = 1 << 44),
            ("l1i.ways", |c| c.l1i.ways = 0),
            ("l2.ways", |c| c.l2.ways = 65),
            ("l1d.bytes", |c| c.l1d.bytes = 40 * 1024),
            ("llc.mshrs", |c| c.llc.mshrs = 0),
            ("rob_entries", |c| c.rob_entries = 1 << 40),
            ("ftq_entries", |c| c.ftq_entries = 0),
            ("commit_width", |c| c.commit_width = 0),
        ];
        for (field, break_it) in cases {
            let mut c = SimConfig::default();
            break_it(&mut c);
            let err = c.validate().expect_err(field);
            assert_eq!(err.field, field, "{err}");
        }
    }

    #[test]
    fn fdip_toggles() {
        assert!(SimConfig::with_fdip().fdip);
        assert!(!SimConfig::without_fdip().fdip);
    }

    #[test]
    fn decode_is_shallower_than_execute() {
        let c = SimConfig::default();
        assert!(c.decode_depth < c.execute_depth);
    }
}
