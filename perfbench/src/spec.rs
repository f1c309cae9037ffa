//! A workload's parameters, as `workloads.json` states them and `run.py`
//! passes them (`--param key=value`, repeated).

use std::collections::BTreeMap;

/// Which city a workload builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Full PeerHood stacks on the sequential engine.
    Metro,
    /// The metro city with security, resilience and an adversary.
    Hostile,
    /// Lightweight probes on the sharded engine.
    Sharded,
}

/// Parameters of one workload. Times are simulated seconds.
#[derive(Debug, Clone)]
pub struct Spec {
    pub kind: Kind,
    pub nodes: usize,
    pub density_per_km2: f64,
    pub mobile_fraction: f64,
    pub churn_per_hour: f64,
    pub mean_downtime_s: f64,
    pub inquiry_interval_s: f64,
    /// Start-up horizon run before measuring (part of set-up).
    pub warmup_s: u64,
    /// Measured horizon, one slice per simulated second.
    pub horizon_s: u64,
    /// Hostile only: one node in this many is a compromised insider.
    pub compromised_every: usize,
    pub inject_interval_ms: u64,
    /// Hostile only: partition windows open every period for a length,
    /// islanding the nodes that start in the strip `x < strip * side`.
    pub partition_period_s: u64,
    pub partition_len_s: u64,
    pub partition_strip: f64,
    /// Sharded only.
    pub ping_interval_s: f64,
    pub shards: usize,
}

impl Spec {
    /// Parses `key=value` pairs; every key must be known, and the keys the
    /// kind needs must be present.
    pub fn parse(pairs: &[String]) -> Result<Spec, String> {
        let mut map = BTreeMap::new();
        for pair in pairs {
            let (k, v) = pair.split_once('=').ok_or_else(|| format!("bad --param {pair:?}"))?;
            map.insert(k.to_string(), v.to_string());
        }
        let kind = match map.remove("kind").as_deref() {
            Some("metro") => Kind::Metro,
            Some("hostile") => Kind::Hostile,
            Some("sharded") => Kind::Sharded,
            other => return Err(format!("unknown kind {other:?}")),
        };
        let mut num = |key: &str, needed: bool| -> Result<f64, String> {
            match map.remove(key) {
                Some(v) => v.parse::<f64>().map_err(|_| format!("{key}={v} is not a number")),
                None if needed => Err(format!("missing --param {key}")),
                None => Ok(0.0),
            }
        };
        let hostile = kind == Kind::Hostile;
        let sharded = kind == Kind::Sharded;
        let spec = Spec {
            kind,
            nodes: num("nodes", true)? as usize,
            density_per_km2: num("density_per_km2", true)?,
            mobile_fraction: num("mobile_fraction", true)?,
            churn_per_hour: num("churn_per_hour", true)?,
            mean_downtime_s: num("mean_downtime_s", true)?,
            inquiry_interval_s: num("inquiry_interval_s", true)?,
            warmup_s: num("warmup_s", true)? as u64,
            horizon_s: num("horizon_s", true)? as u64,
            compromised_every: num("compromised_every", hostile)? as usize,
            inject_interval_ms: num("inject_interval_ms", hostile)? as u64,
            partition_period_s: num("partition_period_s", hostile)? as u64,
            partition_len_s: num("partition_len_s", hostile)? as u64,
            partition_strip: num("partition_strip", hostile)?,
            ping_interval_s: num("ping_interval_s", sharded)?,
            shards: num("shards", sharded)? as usize,
        };
        if let Some(key) = map.keys().next() {
            return Err(format!("unknown --param {key}"));
        }
        if spec.nodes == 0 || spec.horizon_s == 0 {
            return Err("nodes and horizon_s must be positive".into());
        }
        Ok(spec)
    }

    /// Side of the square city at the configured density, in metres.
    pub fn side_m(&self) -> f64 {
        (self.nodes as f64 / self.density_per_km2 * 1_000_000.0).sqrt()
    }

    /// Whether node `i` roams: every `n`-th node is mobile, `n` rounded
    /// from the mobile fraction.
    pub fn is_mobile(&self, i: usize) -> bool {
        self.mobile_fraction > 0.0 && i.is_multiple_of((1.0 / self.mobile_fraction).round().max(1.0) as usize)
    }

    /// Whole simulated run: warm-up plus measured horizon.
    pub fn total_s(&self) -> u64 {
        self.warmup_s + self.horizon_s
    }
}
