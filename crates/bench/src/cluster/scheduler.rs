//! The cluster coordinator: drives a whole [`Sweep`] matrix to
//! completion across a fleet of `btbx serve` nodes.
//!
//! # Scheduling model
//!
//! The matrix is flattened into a shared queue of *unique* points —
//! duplicates collapse onto one work item keyed by the point's
//! content-hashed cache entry name, and points already present in the
//! coordinator's local [`ResultStore`] never enter the queue at all.
//! Each node gets `--threads` worker loops (*lanes*, so that many
//! requests in flight per node) that **pull greedily**: a fast node
//! simply comes back for more work sooner, so load balancing (and work
//! stealing from slow nodes) falls out of the queue discipline with no
//! explicit placement policy. A single-address fleet is the plain
//! remote sweep against one `btbx serve`.
//!
//! # Failure semantics
//!
//! A failed request feeds the node's state machine
//! ([`super::node::NodeTracker`]) and requeues the point with bounded
//! exponential backoff, so work in flight on a dying node migrates to
//! the survivors. Dead nodes drop out of rotation and probe `/healthz`
//! for probation re-admission (re-verifying the compat handshake — a
//! node restarted with a different [`crate::sweep::CACHE_VERSION`] is
//! not let back in); after `probe_give_up` consecutive failed probes
//! the node is retired for good and all its lanes leave, even if a
//! request still in flight there succeeds afterwards. When the sweep
//! ends, every node that failed a request and still serves gets one
//! `/healthz` probe, and a refused probe makes it dead: the fleet
//! summary does not depend on how its last requests raced the drain.
//! Deterministic rejections (HTTP 4xx) fail the point immediately —
//! retrying a malformed point on every node cannot help.
//!
//! A `429` is back-pressure, not failure: the node *chose* to shed the
//! request (`--max-inflight`), so the point is requeued with a short
//! linear backoff without touching the node's health or spending one
//! of the point's attempts. Only past `MAX_SHEDS` (60) sheds does a
//! 429 count as an ordinary failed attempt. A sweep therefore always
//! terminates: with complete results, or with a precise [`PointError`]
//! list of what failed where.
//!
//! # Cache flow
//!
//! Completed results are published into the coordinator's local store
//! under the same entry names the serial CLI uses, so a cluster sweep
//! warms exactly the cache a later `btbx sweep` (or figure run) reads.

use super::node::{NodeState, NodeSummary, NodeTracker};
use super::protocol::{self, ClusterError, HealthInfo, PointError, RequestError};
use crate::journal::{self, SweepJournal};
use crate::opts::HarnessOpts;
use crate::store::{ResultStore, StoreError};
use crate::sweep::{SimPoint, Sweep};
use btbx_uarch::SimResult;
use std::collections::{HashMap, HashSet};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Sheds (`429` answers) one point absorbs as back-pressure before a
/// further 429 counts as an ordinary failed attempt.
const MAX_SHEDS: u32 = 60;

/// Requeue delay after a shed, multiplied by the point's shed count.
const SHED_BACKOFF: Duration = Duration::from_millis(100);

/// Ceiling on the per-shed requeue delay.
const MAX_SHED_BACKOFF: Duration = Duration::from_secs(2);

/// Coordinator tuning; [`ClusterConfig::new`] picks defaults that suit
/// a local fleet, [`ClusterConfig::from_opts`] threads the CLI's
/// `--http-timeout-ms` through.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Fleet member addresses (`host:port`).
    pub nodes: Vec<String>,
    /// Per-request timeout for `/sim` POSTs (connect, read and write).
    pub http_timeout: Duration,
    /// Timeout for `/healthz` probes (short: probes must be cheap).
    pub probe_timeout: Duration,
    /// Delay between re-admission probes of a dead node.
    pub probe_interval: Duration,
    /// Consecutive failed probes after which a dead node is retired
    /// (all its lanes leave) for the rest of the sweep.
    pub probe_give_up: u32,
    /// Attempts per point across the whole fleet before it is reported
    /// failed.
    pub max_attempts: usize,
    /// Base requeue backoff; doubles per attempt (capped).
    pub backoff: Duration,
}

impl ClusterConfig {
    /// Defaults for a fleet of `nodes`: every point may be tried on
    /// most of the fleet (`max(3, nodes + 2)` attempts) before failing.
    pub fn new(nodes: Vec<String>) -> Self {
        let max_attempts = (nodes.len() + 2).max(3);
        ClusterConfig {
            nodes,
            http_timeout: Duration::from_millis(crate::opts::DEFAULT_HTTP_TIMEOUT_MS),
            probe_timeout: Duration::from_secs(2),
            probe_interval: Duration::from_millis(500),
            probe_give_up: 4,
            max_attempts,
            backoff: Duration::from_millis(100),
        }
    }

    /// [`ClusterConfig::new`] with the request timeout taken from the
    /// shared harness options (`--http-timeout-ms`).
    pub fn from_opts(nodes: Vec<String>, opts: &HarnessOpts) -> Self {
        let mut config = Self::new(nodes);
        config.http_timeout = opts.http_timeout();
        config.probe_timeout = config.http_timeout.min(Duration::from_secs(2));
        config
    }
}

/// Counters describing how a cluster sweep went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Unique points in the matrix (duplicates collapsed).
    pub unique_points: usize,
    /// Points answered from the coordinator's local cache (never
    /// dispatched).
    pub local_hits: u64,
    /// Requests dispatched to nodes (completions + failures + retries
    /// + sheds).
    pub dispatched: u64,
    /// Points completed by the fleet.
    pub completed: u64,
    /// Requeues after a failed request (retry-on-node-loss).
    pub requeued: u64,
    /// Requests a node shed with `429` and that were requeued without
    /// spending an attempt.
    pub shed: u64,
    /// Points that exhausted their attempts (or were rejected
    /// deterministically) and are listed in
    /// [`ClusterReport::failures`].
    pub failed: u64,
    /// Points skipped on `--resume` because a previous (killed) run's
    /// journal records them as published (always a subset of
    /// [`ClusterStats::local_hits`]).
    pub resumed_points: u64,
}

/// The outcome of [`run_sweep`]: per-point results in
/// [`Sweep::points`] order (`None` exactly for the listed failures),
/// the failure list, and per-node summaries.
#[derive(Debug)]
pub struct ClusterReport {
    /// One slot per sweep point, in [`Sweep::points`] order.
    pub results: Vec<Option<SimResult>>,
    /// Points that could not be completed anywhere.
    pub failures: Vec<PointError>,
    /// Final per-node states and counts.
    pub nodes: Vec<NodeSummary>,
    /// Run counters.
    pub stats: ClusterStats,
}

impl ClusterReport {
    /// Unwrap into a complete result vector.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Points`] carrying the failure list when any
    /// point did not complete.
    pub fn into_results(self) -> Result<Vec<SimResult>, ClusterError> {
        if !self.failures.is_empty() {
            return Err(ClusterError::Points(self.failures));
        }
        Ok(self
            .results
            .into_iter()
            .map(|r| r.expect("no failures implies a complete result set"))
            .collect())
    }
}

/// Progress callbacks from a running cluster sweep (tests use these to
/// inject faults at deterministic moments; the CLI ignores them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A point was answered from the coordinator's local cache.
    LocalHit {
        /// Cache entry name.
        key: String,
    },
    /// A node completed a point.
    PointDone {
        /// Node address.
        node: String,
        /// Cache entry name.
        key: String,
    },
    /// A failed request requeued its point for another attempt.
    Requeued {
        /// Node address that failed the request.
        node: String,
        /// Cache entry name.
        key: String,
        /// Attempts consumed so far.
        attempts: usize,
    },
    /// A point failed permanently.
    PointFailed {
        /// Node address of the final failure.
        node: String,
        /// Cache entry name.
        key: String,
    },
    /// A failed request left its node [`NodeState::Dead`] (each lane
    /// in flight on a dying node reports it).
    NodeDied {
        /// Node address.
        node: String,
    },
    /// A dead node passed a probe and re-entered rotation.
    NodeReadmitted {
        /// Node address.
        node: String,
    },
}

/// One unit of fleet work: a unique point plus every matrix index it
/// answers.
struct WorkItem {
    key: String,
    label: String,
    point: SimPoint,
    indices: Vec<usize>,
    attempts: usize,
    sheds: u32,
    /// Whether the pending dispatch is already in the journal: a shed
    /// retry re-sends the same attempt and writes no new record.
    journaled: bool,
    not_before: Instant,
}

struct QueueState {
    pending: Vec<WorkItem>,
    in_flight: usize,
    live_workers: usize,
    to_compute: usize,
    results: Vec<Option<SimResult>>,
    failures: Vec<PointError>,
    stats: ClusterStats,
    fatal: Option<ClusterError>,
}

impl QueueState {
    fn finished(&self) -> bool {
        (self.pending.is_empty() && self.in_flight == 0) || self.fatal.is_some()
    }
}

/// The shared work queue plus what its lanes publish through.
struct Queue<'a> {
    name: String,
    state: Mutex<QueueState>,
    cv: Condvar,
    config: &'a ClusterConfig,
    store: &'a ResultStore,
    jnl: &'a SweepJournal,
    observer: &'a (dyn Fn(ClusterEvent) + Sync),
}

impl Queue<'_> {
    /// Pull the next ready work item; blocks while items back off.
    /// `None` means the sweep is finished (drained, failed out, or
    /// fatally errored).
    fn pull(&self) -> Option<WorkItem> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.finished() {
                return None;
            }
            let now = Instant::now();
            if let Some(at) = st.pending.iter().position(|w| w.not_before <= now) {
                let item = st.pending.remove(at);
                st.in_flight += 1;
                st.stats.dispatched += 1;
                return Some(item);
            }
            // Nothing ready: sleep until the earliest backoff expires
            // (bounded, so completions and requeues re-wake us too).
            let wait = st
                .pending
                .iter()
                .map(|w| w.not_before.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_millis(50))
                .clamp(Duration::from_millis(1), Duration::from_millis(50));
            st = self.cv.wait_timeout(st, wait).unwrap().0;
        }
    }

    /// Publish a completed item: write-through to the local store and
    /// fill every matrix slot it answers.
    fn complete(&self, item: WorkItem, result: SimResult) {
        let stored = self.store.store(&item.key, &result);
        if stored.is_ok() {
            // Only after the local entry is durable: `done` is the
            // resume contract's "this point will never re-run" record.
            self.jnl.done(&item.key);
        }
        let mut st = self.state.lock().unwrap();
        st.in_flight -= 1;
        if let Err(e) = stored {
            // A coordinator that cannot persist results is broken;
            // stop the fleet instead of computing into the void.
            if st.fatal.is_none() {
                st.fatal = Some(ClusterError::Store(e));
            }
        } else {
            for &i in &item.indices {
                st.results[i] = Some(result.clone());
            }
            st.stats.completed += 1;
            let done = st.stats.completed as usize;
            if done.is_multiple_of(10) || done == st.to_compute {
                eprintln!("[{}] {done}/{}", self.name, st.to_compute);
            }
        }
        self.cv.notify_all();
    }

    /// Settle a failed request on `tracker`'s node. A shed (`429`, up
    /// to [`MAX_SHEDS`] per point) requeues the item with linear backoff
    /// and leaves both the node's health and the item's attempts
    /// untouched. Any other failure feeds the node's state machine and
    /// requeues with exponential backoff, or becomes a permanent
    /// [`PointError`] when attempts are exhausted (or the rejection was
    /// deterministic).
    fn settle_failure(&self, mut item: WorkItem, tracker: &NodeTracker, error: RequestError) {
        if error.is_shed() && item.sheds < MAX_SHEDS {
            item.sheds += 1;
            item.not_before = Instant::now()
                + SHED_BACKOFF
                    .saturating_mul(item.sheds)
                    .min(MAX_SHED_BACKOFF);
            let mut st = self.state.lock().unwrap();
            st.in_flight -= 1;
            st.stats.shed += 1;
            st.pending.push(item);
            self.cv.notify_all();
            return;
        }
        let node = tracker.addr().to_string();
        eprintln!("[cluster] {node} failed `{}`: {error}", item.label);
        if tracker.record_failure() == NodeState::Dead {
            (self.observer)(ClusterEvent::NodeDied { node: node.clone() });
        }
        item.attempts += 1;
        item.journaled = false;
        let permanent = error.is_permanent() || item.attempts >= self.config.max_attempts;
        if permanent {
            self.jnl.failed(&item.key, &error.to_string());
        }
        let key = item.key.clone();
        let mut st = self.state.lock().unwrap();
        st.in_flight -= 1;
        let event = if permanent {
            st.stats.failed += 1;
            st.failures.push(PointError {
                node: node.clone(),
                point: item.key,
                label: item.label,
                error,
            });
            ClusterEvent::PointFailed { node, key }
        } else {
            let attempts = item.attempts;
            let shift = (attempts - 1).min(6) as u32;
            // saturating: a user-configured base backoff near the
            // Duration ceiling must slow down, not panic on overflow.
            item.not_before = Instant::now() + self.config.backoff.saturating_mul(1u32 << shift);
            st.stats.requeued += 1;
            st.pending.push(item);
            ClusterEvent::Requeued {
                node,
                key,
                attempts,
            }
        };
        self.cv.notify_all();
        drop(st);
        (self.observer)(event);
    }

    /// A worker is leaving (sweep done, or its node retired). The last
    /// worker out with work still pending fails that work: no node is
    /// left to run it.
    fn retire_worker(&self, node: &str) {
        let mut st = self.state.lock().unwrap();
        st.live_workers -= 1;
        if st.live_workers == 0 {
            for item in std::mem::take(&mut st.pending) {
                st.stats.failed += 1;
                st.failures.push(PointError {
                    node: node.to_string(),
                    point: item.key,
                    label: item.label,
                    error: RequestError::FleetDown,
                });
            }
        }
        self.cv.notify_all();
    }

    /// Sleep up to `d`, returning early (true) when the sweep finishes.
    fn wait_finished(&self, d: Duration) -> bool {
        let st = self.state.lock().unwrap();
        if st.finished() {
            return true;
        }
        let (st, _) = self.cv.wait_timeout(st, d).unwrap();
        st.finished()
    }
}

/// Run a sweep across the fleet. See the module docs for semantics.
///
/// # Errors
///
/// [`ClusterError`] when the fleet fails the startup handshake or the
/// coordinator's local cache is unusable. Per-point failures do **not**
/// error here — they come back in [`ClusterReport::failures`] so
/// partial results stay usable.
pub fn run_sweep(
    sweep: &Sweep,
    opts: &HarnessOpts,
    config: &ClusterConfig,
) -> Result<ClusterReport, ClusterError> {
    run_sweep_observed(sweep, opts, config, &|_| {})
}

/// [`run_sweep`] with a progress observer (called from worker threads;
/// must be cheap and must not block on the coordinator itself).
pub fn run_sweep_observed(
    sweep: &Sweep,
    opts: &HarnessOpts,
    config: &ClusterConfig,
    observer: &(dyn Fn(ClusterEvent) + Sync),
) -> Result<ClusterReport, ClusterError> {
    if config.nodes.is_empty() {
        return Err(ClusterError::NoNodes);
    }

    // Startup handshake: every reachable node must match this client's
    // CACHE_VERSION, support the sweep's orgs, and agree on shards.
    // Unreachable nodes start dead (probation may re-admit them later);
    // at least one node must be usable now.
    let mut fleet: Option<HealthInfo> = None;
    let mut trackers: Vec<NodeTracker> = Vec::with_capacity(config.nodes.len());
    let mut rejections: Vec<String> = Vec::new();
    for node in &config.nodes {
        match protocol::probe_health(node, config.probe_timeout) {
            Ok(info) => {
                protocol::verify_cache_version(node, &info)?;
                protocol::verify_orgs(node, &info, &sweep.orgs)?;
                if let Some(fleet) = &fleet {
                    if info.shards != fleet.shards {
                        return Err(ClusterError::MixedShards {
                            node: node.clone(),
                            found: info.shards,
                            expected: fleet.shards,
                        });
                    }
                } else {
                    fleet = Some(info.clone());
                }
                trackers.push(NodeTracker::new(node.clone(), NodeState::Healthy));
            }
            Err(error) => {
                eprintln!("[cluster] {node} failed the startup probe ({error}); starting it dead");
                rejections.push(format!("{node}: {error}"));
                trackers.push(NodeTracker::new(node.clone(), NodeState::Dead));
            }
        }
    }
    let Some(fleet) = fleet else {
        return Err(ClusterError::NoUsableNodes {
            detail: rejections.join("; "),
        });
    };

    // `--store` points the coordinator at the same shared cache the
    // fleet reads/writes; the default stays the coordinator's private
    // `dir://` cache under `out_dir`.
    let store = match &opts.store {
        None => ResultStore::open(opts.out_dir.join("cache")),
        Some(url) => ResultStore::open_url(url, opts.http_timeout()),
    }
    .map_err(ClusterError::Store)?;
    let point_names: Vec<String> = sweep.points().iter().map(SimPoint::cache_file).collect();
    let (jnl, recovery) =
        SweepJournal::open(&opts.out_dir, journal::sweep_key(&point_names), opts.resume).map_err(
            |source| {
                ClusterError::Store(StoreError::Io {
                    action: "opening sweep journal",
                    path: journal::journal_dir(&opts.out_dir),
                    source,
                })
            },
        )?;

    // Flatten the matrix into unique work items (fleet-wide dedup rides
    // the same content-hash keys the ResultStore single-flights on).
    let points = sweep.points();
    let mut by_key: HashMap<String, usize> = HashMap::new();
    let mut items: Vec<WorkItem> = Vec::new();
    for (i, point) in points.iter().enumerate() {
        let key = point.cache_file();
        match by_key.get(&key) {
            Some(&at) => items[at].indices.push(i),
            None => {
                by_key.insert(key.clone(), items.len());
                items.push(WorkItem {
                    label: format!(
                        "{}:{}@{}",
                        point.workload.name,
                        point.org.id(),
                        point.budget.label()
                    ),
                    key,
                    point: point.clone(),
                    indices: vec![i],
                    attempts: 0,
                    sheds: 0,
                    journaled: false,
                    not_before: Instant::now(),
                });
            }
        }
    }

    let mut stats = ClusterStats {
        unique_points: items.len(),
        ..ClusterStats::default()
    };
    let mut results: Vec<Option<SimResult>> = vec![None; points.len()];
    let mut pending = Vec::new();
    for item in items {
        let cached = if opts.fresh {
            None
        } else {
            store.load(&item.key).map_err(ClusterError::Store)?
        };
        match cached {
            Some(result) => {
                for &i in &item.indices {
                    results[i] = Some(result.clone());
                }
                stats.local_hits += 1;
                if opts.resume && recovery.completed.contains(&item.key) {
                    stats.resumed_points += 1;
                }
                observer(ClusterEvent::LocalHit { key: item.key });
            }
            None => pending.push(item),
        }
    }
    if opts.resume {
        eprintln!(
            "[{}] resume: {} point(s) restored from the journal (resumed_points={})",
            sweep.name, stats.resumed_points, stats.resumed_points
        );
    }
    if stats.local_hits > 0 {
        eprintln!(
            "[{}] {}/{} cached locally",
            sweep.name, stats.local_hits, stats.unique_points
        );
    }

    // With a shared store, seed it with every trace container the
    // pending work references: nodes without a local copy (or whose
    // dispatched path does not resolve on their filesystem) then fetch
    // the container by content hash instead of failing the point.
    if opts.store.is_some() {
        publish_pending_traces(&sweep.name, &store, &pending);
    }

    let to_compute = pending.len();
    let lanes = opts.threads.max(1);
    let queue = Queue {
        name: format!("{}@cluster", sweep.name),
        state: Mutex::new(QueueState {
            pending,
            in_flight: 0,
            live_workers: trackers.len() * lanes,
            to_compute,
            results,
            failures: Vec::new(),
            stats,
            fatal: None,
        }),
        cv: Condvar::new(),
        config,
        store: &store,
        jnl: &jnl,
        observer,
    };

    std::thread::scope(|scope| {
        for tracker in &trackers {
            for lane in 0..lanes {
                let queue = &queue;
                let fleet = &fleet;
                scope.spawn(move || node_worker(queue, tracker, lane, fleet));
            }
        }
    });

    settle_failed_nodes(&trackers, config, observer);

    let st = queue.state.into_inner().unwrap();
    if let Some(fatal) = st.fatal {
        return Err(fatal);
    }
    let nodes: Vec<NodeSummary> = trackers.iter().map(NodeTracker::summary).collect();
    for n in &nodes {
        eprintln!(
            "[{}@cluster] {}: {} ({} completed, {} failures)",
            sweep.name, n.addr, n.state, n.completed, n.failures
        );
    }
    if st.failures.is_empty() {
        // A sweep with failures keeps its journal so --resume can
        // re-dispatch exactly the recorded failures.
        jnl.finish();
    }
    Ok(ClusterReport {
        results: st.results,
        failures: st.failures,
        nodes,
        stats: st.stats,
    })
}

/// Give every node that failed a request during the sweep and still
/// serves one `/healthz` probe, and settle a refused probe with
/// [`NodeTracker::record_lost`]. A node killed near the end of a sweep
/// may have failed only once before the queue drained, or had a
/// request drained successfully after its failure; without the probe
/// its final state would depend on that race.
fn settle_failed_nodes(
    trackers: &[NodeTracker],
    config: &ClusterConfig,
    observer: &(dyn Fn(ClusterEvent) + Sync),
) {
    for tracker in trackers {
        let summary = tracker.summary();
        if summary.failures > 0
            && summary.state.serves()
            && protocol::probe_health(tracker.addr(), config.probe_timeout).is_err()
        {
            tracker.record_lost();
            observer(ClusterEvent::NodeDied {
                node: tracker.addr().to_string(),
            });
        }
    }
}

/// Best-effort upload of every distinct trace container referenced by
/// `pending` into the shared store (skipping blobs already present, so
/// repeat sweeps cost one `has` probe per container). Failures warn and
/// continue: nodes holding a local copy of the trace still serve, and a
/// genuinely unresolvable container surfaces as that point's error.
fn publish_pending_traces(name: &str, store: &ResultStore, pending: &[WorkItem]) {
    let backend = store.backend();
    let mut seen = HashSet::new();
    for item in pending {
        let Some(tref) = &item.point.workload.trace else {
            continue;
        };
        if tref.is_store_only() || !seen.insert(tref.content_hash) {
            continue;
        }
        let key = tref.blob_key();
        match backend.has(&key) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("[{name}] probing shared store for {key}: {e}");
                continue;
            }
        }
        let bytes = match std::fs::read(&tref.path) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!(
                    "[{name}] trace {} unreadable here ({e}); relying on nodes' local copies",
                    tref.path.display()
                );
                continue;
            }
        };
        match backend.put(&key, &bytes) {
            Ok(()) => eprintln!(
                "[{name}] published trace {key} ({} bytes) to the shared store",
                bytes.len()
            ),
            Err(e) => eprintln!("[{name}] publishing trace {key}: {e}"),
        }
    }
}

/// One lane of a node's workers: pull greedily while the node serves.
/// While it is dead, lane 0 probes for re-admission and the other lanes
/// wait on its verdict; past the give-up bound lane 0 retires the node
/// and every lane leaves.
fn node_worker(queue: &Queue, tracker: &NodeTracker, lane: usize, fleet: &HealthInfo) {
    let config = queue.config;
    let addr = tracker.addr();
    loop {
        if tracker.retired() {
            break;
        }
        if !tracker.state().serves() {
            // Out of rotation: probe for probation re-admission.
            if queue.wait_finished(config.probe_interval) {
                break;
            }
            if lane > 0 {
                continue;
            }
            let compatible = match protocol::probe_health(addr, config.probe_timeout) {
                Ok(info) => {
                    let same =
                        info.cache_version == fleet.cache_version && info.shards == fleet.shards;
                    if !same {
                        // Alive but incompatible (e.g. restarted on
                        // another version): never re-admit, it would
                        // poison the result set.
                        eprintln!(
                            "[cluster] {addr} is alive but incompatible \
                             (cache v{} shards {}, fleet v{} shards {}); not re-admitting",
                            info.cache_version, info.shards, fleet.cache_version, fleet.shards
                        );
                    }
                    same
                }
                Err(_) => false,
            };
            if compatible {
                tracker.record_probe_success();
                eprintln!("[cluster] {addr} re-admitted on probation");
                (queue.observer)(ClusterEvent::NodeReadmitted {
                    node: addr.to_string(),
                });
            } else if tracker.record_probe_failure() >= config.probe_give_up {
                eprintln!(
                    "[cluster] {addr} failed {} probes; retiring it for this sweep",
                    config.probe_give_up
                );
                tracker.retire();
            }
            continue;
        }
        let Some(mut item) = queue.pull() else { break };
        if !item.journaled {
            queue.jnl.attempt(&item.key, &item.label);
            item.journaled = true;
        }
        match protocol::post_point(addr, &item.point, config.http_timeout) {
            Ok(result) => {
                tracker.record_success();
                let key = item.key.clone();
                queue.complete(item, result);
                (queue.observer)(ClusterEvent::PointDone {
                    node: addr.to_string(),
                    key,
                });
            }
            Err(error) => queue.settle_failure(item, tracker, error),
        }
    }
    queue.retire_worker(addr);
}

/// Run a sweep across the fleet and insist on completeness: the
/// [`Sweep::run`]-shaped entry point behind `btbx sweep --cluster`.
///
/// # Errors
///
/// Everything [`run_sweep`] returns, plus [`ClusterError::Points`] when
/// any point failed everywhere it was tried.
pub fn sweep_via_cluster(
    sweep: &Sweep,
    opts: &HarnessOpts,
    config: &ClusterConfig,
) -> Result<Vec<SimResult>, ClusterError> {
    run_sweep(sweep, opts, config)?.into_results()
}

#[cfg(test)]
mod tests {
    use super::*;
    use btbx_core::storage::BudgetPoint;
    use btbx_core::OrgKind;
    use btbx_trace::suite;

    /// A one-item queue over scratch store and journal directories.
    fn with_queue(tag: &str, check: impl FnOnce(&Queue, WorkItem)) {
        let dir = std::env::temp_dir().join(format!("btbx-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(dir.join("cache")).unwrap();
        let (jnl, _) = SweepJournal::open(&dir, 1, false).unwrap();
        let mut config = ClusterConfig::new(vec!["n:1".into()]);
        config.probe_interval = Duration::from_millis(10);
        let point = Sweep::named("sched")
            .workloads(suite::ipc1_client().into_iter().take(1))
            .orgs([OrgKind::Conv])
            .budgets([BudgetPoint::Kb0_9])
            .points()
            .remove(0);
        let item = WorkItem {
            key: point.cache_file(),
            label: "p".into(),
            point,
            indices: vec![0],
            attempts: 0,
            sheds: 0,
            journaled: false,
            not_before: Instant::now(),
        };
        let queue = Queue {
            name: "sched".into(),
            state: Mutex::new(QueueState {
                pending: Vec::new(),
                in_flight: 1,
                live_workers: 1,
                to_compute: 1,
                results: vec![None],
                failures: Vec::new(),
                stats: ClusterStats::default(),
                fatal: None,
            }),
            cv: Condvar::new(),
            config: &config,
            store: &store,
            jnl: &jnl,
            observer: &|_| {},
        };
        check(&queue, item);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn shed() -> RequestError {
        RequestError::Status {
            status: 429,
            body: String::new(),
        }
    }

    #[test]
    fn a_shed_requeues_without_spending_an_attempt_or_node_health() {
        with_queue("shed", |queue, mut item| {
            let tracker = NodeTracker::new("n:1", NodeState::Healthy);
            item.journaled = true;
            queue.settle_failure(item, &tracker, shed());
            assert_eq!(tracker.state(), NodeState::Healthy);
            let st = queue.state.lock().unwrap();
            assert_eq!(st.pending.len(), 1, "a shed point is requeued");
            assert_eq!(st.pending[0].attempts, 0, "a shed spends no attempt");
            assert_eq!(st.pending[0].sheds, 1);
            assert!(
                st.pending[0].journaled,
                "a shed retry writes no new attempt"
            );
            assert_eq!(st.in_flight, 0);
            assert_eq!(
                (st.stats.shed, st.stats.requeued, st.stats.failed),
                (1, 0, 0)
            );
        });
    }

    #[test]
    fn a_retired_node_stays_retired_for_every_lane_after_a_late_success() {
        with_queue("retire", |queue, item| {
            {
                let mut st = queue.state.lock().unwrap();
                st.in_flight = 0;
                st.live_workers = 3;
                st.pending.push(item);
            }
            let fleet = protocol::health_info(1);
            // Nothing listens on port 1, so every probe fails: lane 0
            // gives up and retires the node.
            let tracker = NodeTracker::new("127.0.0.1:1", NodeState::Dead);
            node_worker(queue, &tracker, 0, &fleet);
            assert!(tracker.retired());
            // A request still in flight on another lane then succeeds,
            // and two more failures kill the node again.
            tracker.record_success();
            tracker.record_failure();
            tracker.record_failure();
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::scope(|scope| {
                for lane in 1..3 {
                    let (tx, tracker, fleet) = (tx.clone(), &tracker, &fleet);
                    scope.spawn(move || {
                        node_worker(queue, tracker, lane, fleet);
                        tx.send(()).unwrap();
                    });
                }
                let left = (1..3).all(|_| rx.recv_timeout(Duration::from_secs(10)).is_ok());
                if !left {
                    // Release the stuck lanes so the test fails, not hangs.
                    queue.state.lock().unwrap().fatal = Some(ClusterError::NoNodes);
                    queue.cv.notify_all();
                }
                assert!(left, "every lane of a retired node leaves");
            });
            let st = queue.state.lock().unwrap();
            assert_eq!(st.live_workers, 0);
            assert_eq!(st.failures.len(), 1, "the last lane out fails the point");
            assert!(matches!(st.failures[0].error, RequestError::FleetDown));
        });
    }

    #[test]
    fn sheds_past_the_bound_count_as_failed_attempts() {
        with_queue("shed-bound", |queue, mut item| {
            let tracker = NodeTracker::new("n:1", NodeState::Healthy);
            item.sheds = MAX_SHEDS;
            item.journaled = true;
            queue.settle_failure(item, &tracker, shed());
            assert_eq!(tracker.state(), NodeState::Suspect);
            let st = queue.state.lock().unwrap();
            assert_eq!(st.pending[0].attempts, 1);
            assert!(!st.pending[0].journaled, "a real retry is a new attempt");
            assert_eq!((st.stats.shed, st.stats.requeued), (0, 1));
        });
    }
}
