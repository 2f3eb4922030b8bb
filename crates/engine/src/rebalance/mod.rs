//! Executor-level key-group rebalancing: fine-grained hot-key migration.
//!
//! Algorithm 4's elasticity (the [`crate::elasticity`] controller) is
//! whole-cluster-granular: a skew shift changes the task counts only after
//! `d` consecutive overloaded batches plus a grace period, and the new hash
//! layout moves *every* key. Elasticutor-style rapid elasticity instead
//! keeps the cluster fixed and re-routes only the offending keys. This
//! module implements that direction for the reduce side:
//!
//! * Keys hash into a fixed number of **key-groups** under
//!   [`GROUP_HASH_SEED`] — the unit of migration, far coarser than a key
//!   and far finer than a worker.
//! * A versioned [`RoutingTable`] maps each group to the reduce worker
//!   (bucket) that owns it. Every batch carries an immutable snapshot of
//!   the table as of its own fill and is assigned through it (the table is
//!   a [`ReduceAssigner`]), so routing is a pure per-key function, split
//!   keys land consistently across Map tasks on every backend, and a plan
//!   applied for a younger batch never re-routes an older one still in
//!   flight.
//! * A [`LoadLedger`] is fed at commit time from the trace layer's
//!   existing per-batch worker timings plus the per-group tuple weights of
//!   the committed plan.
//! * A [`RebalancePolicy`] inspects the ledger at the batch boundary and
//!   emits a [`MigrationPlan`] — a handful of [`GroupMove`]s — which the
//!   driver applies to the run's routing table before the batch being
//!   filled snapshots it. Only ownership moves: keyed state lives in the
//!   driver's store on every backend, so nothing ships — the trace reports
//!   the size of each state slice that changed owner.
//!
//! # Determinism contract
//!
//! Decisions are a pure function of prior observations — never of wall
//! clock, trace level, or backend. A rebalanced run records its migration
//! plans in [`crate::driver::RunResult::migrations`]; replaying that
//! sequence through [`RebalanceSpec::Forced`] reproduces the run bit for
//! bit (plans, per-task times, windows, span tiling) on all three
//! backends — the differential oracle (`tests/oracle.rs`) gates this,
//! worker kills included. At
//! [`pipeline_depth`](crate::config::EngineConfig::pipeline_depth) `d` the
//! observations lag the decisions by `d` batches; the policy then waits
//! for a batch prepared under its own last plan before planning again, so
//! a depth-`d` run still equals the depth-1 `Forced` replay of its log.
//!
//! Hysteresis mirrors the partitioner-selection policy
//! ([`crate::policy`]): a minimum dwell between applied plans and an
//! improvement margin the projected load must clear, so routing does not
//! thrash when the load dithers around the trigger.

use prompt_core::batch::KeyFragment;
use prompt_core::hash::bucket_of;
use prompt_core::reduce::{KeyCluster, ReduceAssigner};
use prompt_core::types::Key;

/// Fixed hash seed for key→group placement. Stable across runs, processes
/// and backends — routing replay and group-state migration must agree on
/// which group a key belongs to from the key alone (the same reasoning as
/// [`crate::state::STATE_SHARD_SEED`]).
pub const GROUP_HASH_SEED: u64 = 0x4B45_5947_524F_5550; // "KEYGROUP"

/// The key-group a key belongs to (fixed-seed hash, backend-independent).
pub fn group_of(key: Key, n_groups: usize) -> usize {
    bucket_of(GROUP_HASH_SEED, key, n_groups)
}

/// Per-group tuple weights of a partition plan, given as its per-block
/// fragment lists: how many tuples each key-group contributed to the batch.
/// The ledger uses these to decompose worker load into movable units.
pub fn group_weights(blocks: &[&[KeyFragment]], n_groups: usize) -> Vec<u64> {
    let mut weights = vec![0u64; n_groups];
    for frag in blocks.iter().flat_map(|b| b.iter()) {
        weights[group_of(frag.key, n_groups)] += frag.count as u64;
    }
    weights
}

/// One group changing owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupMove {
    /// The key-group being moved.
    pub group: u32,
    /// Its current owner (validated against the table on apply).
    pub from: u32,
    /// Its new owner.
    pub to: u32,
}

/// A set of group moves applied atomically at one batch boundary.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MigrationPlan {
    /// The moves, in application order.
    pub moves: Vec<GroupMove>,
}

impl MigrationPlan {
    /// A plan with no moves (never applied, never bumps the version).
    pub fn empty() -> MigrationPlan {
        MigrationPlan::default()
    }

    /// Whether the plan moves anything.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// The versioned key-group routing table: `key → group → worker`.
///
/// Every applied (non-empty) [`MigrationPlan`] bumps the version by
/// exactly one, so the version sequence doubles as the migration count —
/// the invariant the routing-table proptests pin down, together with
/// "every group has exactly one owner `< n_workers` after any migration
/// sequence".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingTable {
    version: u64,
    n_workers: usize,
    /// `owners[g]` = the reduce bucket that owns group `g`.
    owners: Vec<u32>,
}

impl RoutingTable {
    /// A fresh table: version 0, groups laid out round-robin over the
    /// workers (the same uniform placement a plain hash would give).
    pub fn new(n_groups: usize, n_workers: usize) -> RoutingTable {
        assert!(n_groups >= 1, "routing table needs at least one group");
        assert!(n_workers >= 1, "routing table needs at least one worker");
        RoutingTable {
            version: 0,
            n_workers,
            owners: (0..n_groups).map(|g| (g % n_workers) as u32).collect(),
        }
    }

    /// The table version: the number of migration plans applied so far.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of key-groups.
    pub fn n_groups(&self) -> usize {
        self.owners.len()
    }

    /// Number of reduce workers the table routes over.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// The owner of a group.
    pub fn owner_of(&self, group: usize) -> u32 {
        self.owners[group]
    }

    /// The full group→owner map.
    pub fn owners(&self) -> &[u32] {
        &self.owners
    }

    /// The worker a key routes to: `owner_of(group_of(key))`.
    pub fn route(&self, key: Key) -> usize {
        self.owners[group_of(key, self.owners.len())] as usize
    }

    /// Apply a migration plan, bumping the version. The moves apply in
    /// order, each to the table the moves before it left — the layout the
    /// planner re-projects after every move, so one plan may move a group
    /// twice. Rejects plans that disagree with that table (stale `from`,
    /// unknown group, owner out of range, or no moves), leaving the table
    /// as it was — a forced replay that trips this was recorded against a
    /// different table history.
    pub fn apply(&mut self, plan: &MigrationPlan) -> Result<(), String> {
        if plan.is_empty() {
            return Err("migration plan moves nothing".into());
        }
        let mut owners = self.owners.clone();
        for (i, m) in plan.moves.iter().enumerate() {
            let g = m.group as usize;
            if g >= owners.len() {
                return Err(format!("move {i}: group {g} out of range"));
            }
            if m.to as usize >= self.n_workers {
                return Err(format!("move {i}: destination {} out of range", m.to));
            }
            if owners[g] != m.from {
                return Err(format!(
                    "move {i}: group {g} owned by {}, plan says {}",
                    owners[g], m.from
                ));
            }
            if m.from == m.to {
                return Err(format!("move {i}: group {g} moved to its own owner"));
            }
            owners[g] = m.to;
        }
        self.owners = owners;
        self.version += 1;
        Ok(())
    }
}

/// A routing-table snapshot is a reduce assigner. Routing is a pure per-key
/// function of the table, so split keys (whose fragments appear in many Map
/// blocks) land on one bucket without coordination.
impl ReduceAssigner for RoutingTable {
    fn name(&self) -> &'static str {
        "group-routed"
    }

    fn assign(
        &self,
        _task: usize,
        clusters: &[KeyCluster],
        _split: &[bool],
        r: usize,
        out: &mut Vec<u32>,
    ) {
        debug_assert_eq!(
            self.n_workers, r,
            "routing table sized for a different reduce count"
        );
        out.clear();
        out.extend(clusters.iter().map(|c| self.route(c.key) as u32));
    }
}

/// What the driver tells the rebalancer at each commit: the committed
/// batch's per-worker busy times (the trace layer's per-task timings) and
/// the per-group tuple weights of its plan, plus the routing state the
/// batch ran under.
#[derive(Clone, Copy, Debug)]
pub struct RebalanceObservation<'a> {
    /// The committed batch.
    pub seq: u64,
    /// Routing-table version the batch was assigned under.
    pub version: u64,
    /// Per-reduce-worker busy time in microseconds (virtual cost-model
    /// time, identical across backends).
    pub worker_busy_us: &'a [u64],
    /// Per-group tuple counts of the committed plan
    /// (see [`group_weights`]).
    pub group_tuples: &'a [u64],
    /// Group→owner map the batch routed with.
    pub owners: &'a [u32],
}

/// The per-worker load ledger: the most recent commit's worker timings
/// and group weights, plus how imbalanced the workers were.
#[derive(Clone, Debug, Default)]
pub struct LoadLedger {
    /// Batches observed so far.
    pub batches: u64,
    /// Seq of the last committed batch.
    pub seq: u64,
    /// Last committed batch's per-worker busy time (µs).
    pub worker_busy_us: Vec<u64>,
    /// Last committed batch's per-group tuple weights.
    pub group_tuples: Vec<u64>,
    /// Group→owner map as of the last commit.
    pub owners: Vec<u32>,
}

impl LoadLedger {
    /// Record one commit.
    pub fn record(&mut self, obs: &RebalanceObservation<'_>) {
        self.batches += 1;
        self.seq = obs.seq;
        self.worker_busy_us = obs.worker_busy_us.to_vec();
        self.group_tuples = obs.group_tuples.to_vec();
        self.owners = obs.owners.to_vec();
    }

    /// Max/mean ratio of the recorded per-worker busy times — the hot-
    /// worker signal (1.0 = perfectly balanced; ≥ `n_workers` = one
    /// worker carries everything). 1.0 when nothing has been recorded.
    pub fn imbalance(&self) -> f64 {
        imbalance_ratio(&self.worker_busy_us)
    }

    /// Per-worker tuple weight under an owner map: group weights summed by
    /// owner. The decomposition migration planning works on.
    pub fn worker_weights(&self, owners: &[u32], n_workers: usize) -> Vec<u64> {
        let mut w = vec![0u64; n_workers];
        for (g, &t) in self.group_tuples.iter().enumerate() {
            w[owners[g] as usize] += t;
        }
        w
    }
}

/// Max/mean ratio of a load vector; 1.0 for empty or all-zero input.
pub fn imbalance_ratio(load: &[u64]) -> f64 {
    if load.is_empty() {
        return 1.0;
    }
    let max = *load.iter().max().expect("non-empty") as f64;
    let mean = load.iter().sum::<u64>() as f64 / load.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// A rebalancing policy: observes committed batches, decides migration
/// plans at batch boundaries.
///
/// The purity contract mirrors [`crate::policy::PartitionerPolicy`]:
/// `decide` must be a deterministic function of the construction
/// parameters and the observations seen so far — never of wall-clock
/// time, trace level, or backend — so a traced distributed run and an
/// untraced in-process run emit identical plan sequences.
pub trait RebalancePolicy: Send {
    /// Diagnostic name.
    fn name(&self) -> &'static str;
    /// Feed one committed batch.
    fn observe(&mut self, obs: &RebalanceObservation<'_>);
    /// The migration plan to apply before batch `seq` is assigned; empty
    /// to leave routing alone.
    fn decide(&mut self, seq: u64) -> MigrationPlan;
}

/// A recorded migration sequence: `(seq, plan)` pairs in batch order.
pub type ForcedMigrations = Vec<(u64, MigrationPlan)>;

/// Replays a recorded plan sequence verbatim — the differential-test
/// oracle. Batches without a recorded entry leave routing untouched.
pub struct ForcedRebalance {
    plans: ForcedMigrations,
}

impl ForcedRebalance {
    /// Build from a recorded sequence
    /// (see [`crate::driver::RunResult::migrations`]).
    pub fn new(plans: ForcedMigrations) -> ForcedRebalance {
        ForcedRebalance { plans }
    }
}

impl RebalancePolicy for ForcedRebalance {
    fn name(&self) -> &'static str {
        "forced"
    }

    fn observe(&mut self, _obs: &RebalanceObservation<'_>) {}

    fn decide(&mut self, seq: u64) -> MigrationPlan {
        self.plans
            .iter()
            .find(|(s, _)| *s == seq)
            .map(|(_, p)| p.clone())
            .unwrap_or_default()
    }
}

/// Tuning knobs of the [`AutoRebalance`] policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RebalanceConfig {
    /// Number of key-groups (the migration granularity). More groups =
    /// finer moves but longer routing tables; must cover the reduce
    /// count.
    pub n_groups: usize,
    /// Busy-time max/mean ratio above which the policy considers moving
    /// groups (1.0 = act on any imbalance).
    pub trigger: f64,
    /// Minimum batches between applied plans (hysteresis dwell).
    pub min_dwell: u64,
    /// Required relative improvement of the projected max worker weight
    /// before a plan is emitted (hysteresis margin).
    pub margin: f64,
    /// Most groups moved per plan.
    pub max_moves: usize,
}

impl Default for RebalanceConfig {
    fn default() -> RebalanceConfig {
        RebalanceConfig {
            n_groups: 64,
            trigger: 1.25,
            min_dwell: 2,
            margin: 0.05,
            max_moves: 4,
        }
    }
}

impl RebalanceConfig {
    /// Check the knobs are in range.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_groups == 0 {
            return Err("rebalance n_groups must be >= 1".into());
        }
        // Range-contains instead of `>=` so a NaN trigger is rejected too.
        if !(1.0..).contains(&self.trigger) {
            return Err("rebalance trigger must be >= 1.0".into());
        }
        if self.min_dwell == 0 {
            return Err("rebalance min_dwell must be >= 1".into());
        }
        if !(0.0..1.0).contains(&self.margin) {
            return Err("rebalance margin must be in [0, 1)".into());
        }
        if self.max_moves == 0 {
            return Err("rebalance max_moves must be >= 1".into());
        }
        Ok(())
    }
}

/// The hot-group detector: greedy heaviest-group-to-lightest-worker
/// migration with dwell + margin hysteresis.
///
/// At each boundary, if the last commit's busy-time imbalance exceeds
/// [`RebalanceConfig::trigger`] and the dwell has elapsed, the policy
/// greedily moves the heaviest group off the most loaded worker onto the
/// least loaded one (up to [`RebalanceConfig::max_moves`] times,
/// re-projecting after each move), and emits the plan only if the
/// projected max worker weight improves on the current one by at least
/// [`RebalanceConfig::margin`]. A worker whose load is a single group is
/// left alone — moving its only group would shift the hot spot, not
/// shrink it.
pub struct AutoRebalance {
    cfg: RebalanceConfig,
    ledger: LoadLedger,
    /// Seq of the last applied plan (dwell gate).
    last_move: Option<u64>,
}

impl AutoRebalance {
    /// Build the policy.
    pub fn new(cfg: RebalanceConfig) -> AutoRebalance {
        cfg.validate().expect("invalid rebalance config");
        AutoRebalance {
            cfg,
            ledger: LoadLedger::default(),
            last_move: None,
        }
    }

    /// The ledger the policy plans from (inspection/tests).
    pub fn ledger(&self) -> &LoadLedger {
        &self.ledger
    }
}

impl RebalancePolicy for AutoRebalance {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn observe(&mut self, obs: &RebalanceObservation<'_>) {
        self.ledger.record(obs);
    }

    fn decide(&mut self, seq: u64) -> MigrationPlan {
        if self.ledger.batches == 0 {
            return MigrationPlan::empty();
        }
        if self
            .last_move
            .is_some_and(|s0| seq.saturating_sub(s0) < self.cfg.min_dwell || self.ledger.seq < s0)
        {
            return MigrationPlan::empty();
        }
        if self.ledger.imbalance() <= self.cfg.trigger {
            return MigrationPlan::empty();
        }
        let n_workers = self.ledger.worker_busy_us.len();
        if n_workers < 2 {
            return MigrationPlan::empty();
        }
        let mut owners = self.ledger.owners.clone();
        let mut weights = self.ledger.worker_weights(&owners, n_workers);
        let start_max = *weights.iter().max().expect("non-empty");
        let mut moves = Vec::new();
        for _ in 0..self.cfg.max_moves {
            // Most and least loaded workers under the projected layout
            // (first index wins ties — keeps the plan deterministic).
            let hot = (0..n_workers)
                .max_by_key(|&w| (weights[w], usize::MAX - w))
                .expect("non-empty");
            let cold = (0..n_workers)
                .min_by_key(|&w| (weights[w], w))
                .expect("non-empty");
            if hot == cold || weights[hot] == weights[cold] {
                break;
            }
            // Heaviest group on the hot worker that still fits: moving it
            // must not make the cold worker the new hot spot, and a
            // worker's only loaded group stays put.
            let gap = weights[hot] - weights[cold];
            let candidate = (0..owners.len())
                .filter(|&g| owners[g] as usize == hot && self.ledger.group_tuples[g] > 0)
                .filter(|&g| self.ledger.group_tuples[g] < weights[hot])
                .filter(|&g| self.ledger.group_tuples[g] < gap)
                .max_by_key(|&g| (self.ledger.group_tuples[g], usize::MAX - g));
            let Some(g) = candidate else { break };
            let w = self.ledger.group_tuples[g];
            moves.push(GroupMove {
                group: g as u32,
                from: hot as u32,
                to: cold as u32,
            });
            owners[g] = cold as u32;
            weights[hot] -= w;
            weights[cold] += w;
        }
        if moves.is_empty() {
            return MigrationPlan::empty();
        }
        let projected_max = *weights.iter().max().expect("non-empty") as f64;
        if projected_max >= start_max as f64 * (1.0 - self.cfg.margin) {
            return MigrationPlan::empty();
        }
        self.last_move = Some(seq);
        MigrationPlan { moves }
    }
}

/// How the engine rebalances reduce-side routing
/// (see [`crate::config::EngineConfig::rebalance`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub enum RebalanceSpec {
    /// No key-group routing: the technique's own reduce assigner runs
    /// (the default).
    #[default]
    Off,
    /// Group routing with a recorded plan sequence replayed verbatim —
    /// the differential-replay oracle.
    Forced {
        /// Key-group count (must match the recorded run).
        n_groups: usize,
        /// The recorded `(seq, plan)` sequence.
        plans: ForcedMigrations,
    },
    /// Group routing with the [`AutoRebalance`] hot-group detector.
    Auto(RebalanceConfig),
}

impl RebalanceSpec {
    /// Whether rebalancing is disabled.
    pub fn is_off(&self) -> bool {
        matches!(self, RebalanceSpec::Off)
    }

    /// The key-group count, when rebalancing is on.
    pub fn n_groups(&self) -> Option<usize> {
        match self {
            RebalanceSpec::Off => None,
            RebalanceSpec::Forced { n_groups, .. } => Some(*n_groups),
            RebalanceSpec::Auto(cfg) => Some(cfg.n_groups),
        }
    }

    /// Check the spec is well-formed.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            RebalanceSpec::Off => Ok(()),
            RebalanceSpec::Forced { n_groups, plans } => {
                if *n_groups == 0 {
                    return Err("rebalance n_groups must be >= 1".into());
                }
                let mut last: Option<u64> = None;
                for (seq, plan) in plans {
                    if plan.is_empty() {
                        return Err("forced rebalance plans must move something".into());
                    }
                    if last.is_some_and(|p| p >= *seq) {
                        return Err("forced rebalance seqs must be strictly increasing".into());
                    }
                    last = Some(*seq);
                }
                Ok(())
            }
            RebalanceSpec::Auto(cfg) => cfg.validate(),
        }
    }

    /// Instantiate the policy, when rebalancing is on.
    pub fn build(&self) -> Option<Box<dyn RebalancePolicy>> {
        match self {
            RebalanceSpec::Off => None,
            RebalanceSpec::Forced { plans, .. } => {
                Some(Box::new(ForcedRebalance::new(plans.clone())))
            }
            RebalanceSpec::Auto(cfg) => Some(Box::new(AutoRebalance::new(*cfg))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs<'a>(
        seq: u64,
        busy: &'a [u64],
        groups: &'a [u64],
        owners: &'a [u32],
    ) -> RebalanceObservation<'a> {
        RebalanceObservation {
            seq,
            version: 0,
            worker_busy_us: busy,
            group_tuples: groups,
            owners,
        }
    }

    #[test]
    fn fresh_table_is_round_robin_at_version_zero() {
        let t = RoutingTable::new(8, 3);
        assert_eq!(t.version(), 0);
        assert_eq!(t.owners(), &[0, 1, 2, 0, 1, 2, 0, 1]);
        for g in 0..8 {
            assert!((t.owner_of(g) as usize) < 3);
        }
    }

    #[test]
    fn apply_moves_groups_and_bumps_version() {
        let mut t = RoutingTable::new(4, 2);
        let plan = MigrationPlan {
            moves: vec![GroupMove {
                group: 0,
                from: 0,
                to: 1,
            }],
        };
        t.apply(&plan).unwrap();
        assert_eq!(t.version(), 1);
        assert_eq!(t.owner_of(0), 1);
        // Re-applying is stale: group 0 is no longer owned by 0.
        assert!(t.apply(&plan).is_err());
        assert_eq!(t.version(), 1, "failed apply must not bump the version");
        // Moves apply in order: the planner re-projects after each one, so
        // a group may move twice in one plan; a stale later move leaves the
        // table as it was.
        let mv = |group, from, to| GroupMove { group, from, to };
        let twice = vec![mv(1, 1, 0), mv(0, 1, 0), mv(1, 0, 1)];
        t.apply(&MigrationPlan { moves: twice }).unwrap();
        assert_eq!((t.owners(), t.version()), (&[0, 1, 0, 1][..], 2));
        let stale = vec![mv(2, 0, 1), mv(2, 0, 1)];
        assert!(t.apply(&MigrationPlan { moves: stale }).is_err());
        assert_eq!((t.owners(), t.version()), (&[0, 1, 0, 1][..], 2));
    }

    #[test]
    fn apply_rejects_malformed_plans() {
        let mut t = RoutingTable::new(4, 2);
        assert!(t.apply(&MigrationPlan::empty()).is_err());
        for (group, from, to) in [(9, 0, 1), (0, 0, 9), (1, 1, 1)] {
            let plan = MigrationPlan {
                moves: vec![GroupMove { group, from, to }],
            };
            assert!(t.apply(&plan).is_err(), "{group}/{from}/{to}");
        }
        assert_eq!(t.version(), 0);
    }

    #[test]
    fn routing_follows_ownership() {
        let mut t = RoutingTable::new(16, 4);
        let key = Key(42);
        let g = group_of(key, 16);
        assert_eq!(t.route(key), t.owner_of(g) as usize);
        let from = t.owner_of(g);
        let to = (from + 1) % 4;
        t.apply(&MigrationPlan {
            moves: vec![GroupMove {
                group: g as u32,
                from,
                to,
            }],
        })
        .unwrap();
        assert_eq!(t.route(key), to as usize);
    }

    #[test]
    fn assigner_routes_clusters_through_the_table() {
        let table = RoutingTable::new(8, 3);
        let clusters: Vec<KeyCluster> = (0..20)
            .map(|k| KeyCluster {
                key: Key(k),
                size: 1,
            })
            .collect();
        let mut got = Vec::new();
        table.assign(0, &clusters, &[false; 20], 3, &mut got);
        let expect: Vec<u32> = clusters.iter().map(|c| table.route(c.key) as u32).collect();
        assert_eq!(got, expect);
        assert!(got.iter().all(|&b| b < 3));
    }

    #[test]
    fn auto_policy_moves_hot_groups_to_the_cold_worker() {
        let cfg = RebalanceConfig {
            n_groups: 4,
            trigger: 1.2,
            min_dwell: 1,
            margin: 0.05,
            max_moves: 2,
        };
        let mut pol = AutoRebalance::new(cfg);
        // Worker 0 owns groups 0 and 2, worker 1 owns 1 and 3; group 0 is
        // hot and group 2 rides along, so worker 0 is the hot spot.
        let owners = [0u32, 1, 0, 1];
        pol.observe(&obs(0, &[9_000, 1_000], &[800, 100, 300, 100], &owners));
        let plan = pol.decide(1);
        assert!(!plan.is_empty(), "imbalance above trigger must move groups");
        // Greedy takes the heaviest group that shrinks the gap: group 0
        // (weight 800 < gap 900) moves to the cold worker first.
        assert_eq!(plan.moves[0].group, 0);
        assert_eq!(plan.moves[0].from, 0);
        assert_eq!(plan.moves[0].to, 1);
    }

    #[test]
    fn auto_policy_respects_dwell_and_trigger() {
        let cfg = RebalanceConfig {
            n_groups: 4,
            trigger: 1.5,
            min_dwell: 3,
            margin: 0.0,
            max_moves: 1,
        };
        let mut pol = AutoRebalance::new(cfg);
        let owners = [0u32, 1, 0, 1];
        // Balanced: below trigger, no plan.
        pol.observe(&obs(0, &[1_000, 1_000], &[250, 250, 250, 250], &owners));
        assert!(pol.decide(1).is_empty());
        // Hot: plan fires.
        pol.observe(&obs(1, &[9_000, 1_000], &[600, 100, 300, 100], &owners));
        assert!(!pol.decide(2).is_empty());
        // Still hot, but inside the dwell window: suppressed.
        pol.observe(&obs(2, &[9_000, 1_000], &[600, 100, 300, 100], &owners));
        assert!(pol.decide(3).is_empty());
        assert!(pol.decide(4).is_empty());
        pol.observe(&obs(4, &[9_000, 1_000], &[600, 100, 300, 100], &owners));
        assert!(!pol.decide(5).is_empty(), "dwell elapsed");
    }

    #[test]
    fn auto_policy_never_moves_a_workers_only_group() {
        let cfg = RebalanceConfig {
            n_groups: 2,
            trigger: 1.0,
            min_dwell: 1,
            margin: 0.0,
            max_moves: 4,
        };
        let mut pol = AutoRebalance::new(cfg);
        // Each worker owns exactly one loaded group: moving either would
        // relocate the hot spot, not shrink it.
        pol.observe(&obs(0, &[9_000, 1_000], &[900, 100], &[0, 1]));
        assert!(pol.decide(1).is_empty());
    }

    #[test]
    fn auto_decisions_replay_deterministically() {
        let cfg = RebalanceConfig {
            n_groups: 8,
            trigger: 1.1,
            min_dwell: 1,
            margin: 0.0,
            max_moves: 3,
        };
        let drive = |pol: &mut AutoRebalance| -> Vec<MigrationPlan> {
            let mut owners: Vec<u32> = (0..8).map(|g| (g % 4) as u32).collect();
            let mut log = Vec::new();
            for seq in 0..12u64 {
                let plan = pol.decide(seq);
                // Mirror the driver: apply the plan before observing.
                for m in &plan.moves {
                    owners[m.group as usize] = m.to;
                }
                log.push(plan);
                let groups: Vec<u64> = (0..8)
                    .map(|g| if g == (seq % 3) as usize { 700 } else { 60 })
                    .collect();
                let mut busy = vec![0u64; 4];
                for (g, &t) in groups.iter().enumerate() {
                    busy[owners[g] as usize] += t * 10;
                }
                pol.observe(&obs(seq, &busy, &groups, &owners));
            }
            log
        };
        let a = drive(&mut AutoRebalance::new(cfg));
        let b = drive(&mut AutoRebalance::new(cfg));
        assert_eq!(a, b, "decisions must be a pure function of observations");
        assert!(a.iter().any(|p| !p.is_empty()), "scenario must migrate");
    }

    #[test]
    fn forced_policy_replays_the_recorded_sequence() {
        let plan = MigrationPlan {
            moves: vec![GroupMove {
                group: 3,
                from: 0,
                to: 1,
            }],
        };
        let mut pol = ForcedRebalance::new(vec![(4, plan.clone())]);
        assert!(pol.decide(0).is_empty());
        assert_eq!(pol.decide(4), plan);
        assert!(pol.decide(5).is_empty());
    }

    #[test]
    fn spec_validation_catches_bad_knobs() {
        assert!(RebalanceSpec::Off.validate().is_ok());
        assert!(RebalanceSpec::Auto(RebalanceConfig::default())
            .validate()
            .is_ok());
        let bad = [
            RebalanceConfig {
                n_groups: 0,
                ..RebalanceConfig::default()
            },
            RebalanceConfig {
                trigger: 0.9,
                ..RebalanceConfig::default()
            },
            RebalanceConfig {
                min_dwell: 0,
                ..RebalanceConfig::default()
            },
            RebalanceConfig {
                margin: 1.0,
                ..RebalanceConfig::default()
            },
            RebalanceConfig {
                max_moves: 0,
                ..RebalanceConfig::default()
            },
        ];
        for cfg in bad {
            assert!(RebalanceSpec::Auto(cfg).validate().is_err(), "{cfg:?}");
        }
        assert!(RebalanceSpec::Forced {
            n_groups: 4,
            plans: vec![(2, MigrationPlan::empty())],
        }
        .validate()
        .is_err());
        assert!(RebalanceSpec::Forced {
            n_groups: 4,
            plans: vec![
                (
                    2,
                    MigrationPlan {
                        moves: vec![GroupMove {
                            group: 0,
                            from: 0,
                            to: 1
                        }]
                    }
                ),
                (
                    2,
                    MigrationPlan {
                        moves: vec![GroupMove {
                            group: 1,
                            from: 1,
                            to: 0
                        }]
                    }
                ),
            ],
        }
        .validate()
        .is_err());
    }

    #[test]
    fn group_weights_sum_fragments_by_group() {
        use prompt_core::batch::MicroBatch;
        use prompt_core::partitioner::Technique;
        use prompt_core::types::{Interval, Time, Tuple};
        let tuples: Vec<Tuple> = (0..120)
            .map(|i| Tuple::keyed(Time(i + 1), Key(i % 12)))
            .collect();
        let batch = MicroBatch::new(tuples, Interval::new(Time::ZERO, Time::from_secs(1)));
        let plan = Technique::Hash.build(7).partition(&batch, 4);
        let w = group_weights(&plan.block_fragments(), 16);
        assert_eq!(w.iter().sum::<u64>(), 120, "every tuple lands in a group");
        let mut expect = vec![0u64; 16];
        for k in 0..12u64 {
            expect[group_of(Key(k), 16)] += 10;
        }
        assert_eq!(w, expect);
    }
}
