//! VBS bookkeeping, cactus/scatter series and the summary table
//! (the data behind Figures 6–10 and the in-text counts of the paper).

use crate::{EngineKind, RunRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Duration;

/// Per-instance synthesis time of one engine (only instances it synthesized).
pub fn solved_times(records: &[RunRecord], engine: EngineKind) -> BTreeMap<String, f64> {
    records
        .iter()
        .filter(|r| r.engine == engine && r.synthesized)
        .map(|r| (r.instance.clone(), r.seconds()))
        .collect()
}

/// The Virtual Best Synthesizer over a set of engines: per instance, the
/// minimum synthesis time among the engines that synthesized it.
pub fn vbs(records: &[RunRecord], engines: &[EngineKind]) -> BTreeMap<String, f64> {
    let mut best: BTreeMap<String, f64> = BTreeMap::new();
    for &engine in engines {
        for (instance, time) in solved_times(records, engine) {
            best.entry(instance)
                .and_modify(|t| *t = t.min(time))
                .or_insert(time);
        }
    }
    best
}

/// Turns per-instance times into a cactus series: the `i`-th entry is the
/// time below which `i + 1` instances were synthesized.
pub fn cactus(times: &BTreeMap<String, f64>) -> Vec<f64> {
    let mut sorted: Vec<f64> = times.values().copied().collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    sorted
}

/// Rows of the Figure 6 cactus plot: `(instances_synthesized, time_vbs,
/// time_vbs_plus_manthan3, time_portfolio)`; entries are padded with empty
/// strings when one series has synthesized fewer instances. The last column
/// holds the *true wall-clock* times of the parallel portfolio engine and is
/// entirely empty unless the records contain [`EngineKind::Portfolio`] runs
/// (harness flag `--engine portfolio`) — unlike the two VBS columns, which
/// are post-hoc minima over sequential runs.
pub fn fig6_rows(records: &[RunRecord]) -> Vec<Vec<String>> {
    let without = cactus(&vbs(
        records,
        &[EngineKind::Hqs2Like, EngineKind::PedantLike],
    ));
    let with = cactus(&vbs(records, &EngineKind::ALL));
    let live = cactus(&solved_times(records, EngineKind::Portfolio));
    let len = without.len().max(with.len()).max(live.len());
    let fmt =
        |series: &[f64], i: usize| series.get(i).map(|t| format!("{t:.4}")).unwrap_or_default();
    (0..len)
        .map(|i| {
            vec![
                (i + 1).to_string(),
                fmt(&without, i),
                fmt(&with, i),
                fmt(&live, i),
            ]
        })
        .collect()
}

/// Rows of a scatter plot comparing two portfolios: per instance, the
/// synthesis time of each side (or `timeout` seconds when not synthesized).
pub fn scatter_rows(
    records: &[RunRecord],
    x_engines: &[EngineKind],
    y_engines: &[EngineKind],
    timeout: Duration,
) -> Vec<Vec<String>> {
    let xs = vbs(records, x_engines);
    let ys = vbs(records, y_engines);
    let instances: BTreeSet<String> = records.iter().map(|r| r.instance.clone()).collect();
    let cap = timeout.as_secs_f64();
    instances
        .into_iter()
        .map(|name| {
            let x = xs.get(&name).copied().unwrap_or(cap);
            let y = ys.get(&name).copied().unwrap_or(cap);
            vec![name, format!("{x:.4}"), format!("{y:.4}")]
        })
        .collect()
}

/// The aggregate counts reported in the text of the paper's evaluation
/// section.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Total number of instances.
    pub total_instances: usize,
    /// Instances synthesized per engine.
    pub synthesized: BTreeMap<EngineKind, usize>,
    /// Instances decided (synthesized or proved false) per engine.
    pub decided: BTreeMap<EngineKind, usize>,
    /// Instances synthesized by the VBS of the two baselines.
    pub vbs_without_manthan3: usize,
    /// Instances synthesized by the VBS of all three engines.
    pub vbs_with_manthan3: usize,
    /// Instances only Manthan3 synthesized.
    pub manthan3_unique: usize,
    /// Instances where Manthan3 was the (strictly) fastest synthesizer.
    pub manthan3_fastest: usize,
    /// Instances Manthan3 synthesized but the HQS2-like engine did not.
    pub manthan3_not_hqs2: usize,
    /// Instances Manthan3 synthesized but the Pedant-like engine did not.
    pub manthan3_not_pedant: usize,
    /// Instances some baseline synthesized but Manthan3 did not.
    pub missed_by_manthan3: usize,
    /// Instances within 10 seconds of the baseline VBS for Manthan3
    /// (the green region of Figure 7).
    pub manthan3_within_10s_of_vbs: usize,
    /// Instances synthesized by the live parallel portfolio engine, when its
    /// records are present (`--engine portfolio`): the wall-clock
    /// counterpart of `vbs_with_manthan3`.
    pub portfolio_synthesized: Option<usize>,
    /// Instances decided by the live parallel portfolio engine, when its
    /// records are present.
    pub portfolio_decided: Option<usize>,
    /// Instances synthesized by the compositional engine, when its records
    /// are present (`--engine compositional`).
    pub compositional_synthesized: Option<usize>,
    /// Instances decided by the compositional engine, when its records are
    /// present.
    pub compositional_decided: Option<usize>,
    /// Total output clusters across the compositional runs, when present
    /// (instances × their partition sizes; equals the instance count when
    /// every instance degenerated to the monolithic pipeline).
    pub compositional_clusters: Option<usize>,
    /// Sum over the compositional runs of their longest per-cluster wall
    /// clock — the critical path a perfectly parallel schedule pays.
    pub cluster_wall_max_s: Option<f64>,
    /// Sum over the compositional runs of their total per-cluster wall
    /// clock — what a sequential schedule would have paid.
    pub cluster_wall_sum_s: Option<f64>,
    /// Total MaxSAT solve calls across every run of the suite.
    pub maxsat_calls: usize,
    /// Full hard-clause MaxSAT encodings constructed across every run (the
    /// fresh encodes; the persistent repair session pays one per
    /// repair-exercising run).
    pub maxsat_fresh_encodes: usize,
    /// MaxSAT calls served under assumptions on a persistent encoding (the
    /// incremental hits).
    pub maxsat_incremental_hits: usize,
    /// Internal SAT probes issued by MaxSAT optimum searches across every
    /// run — the unit the linear and core-guided repair strategies compete
    /// on (`--repair-strategy`).
    pub maxsat_probes: u64,
    /// UNSAT cores extracted and relaxed by core-guided MaxSAT searches
    /// across every run (zero for all-linear suites).
    pub maxsat_cores: u64,
    /// Total repair iterations across the Manthan3 runs.
    pub repair_iterations: usize,
    /// Total wall-clock seconds the Manthan3 runs spent in their sampling
    /// stage (the `sample_wall_s` summary row).
    pub sample_wall_s: f64,
    /// The sample-shard count the suite ran with (maximum across records;
    /// 1 = the plain single-threaded sampler).
    pub sample_shards: usize,
    /// Total per-sample solver calls billed to the shared oracle budgets
    /// across every run.
    pub sampler_calls: usize,
    /// Total sampling requests that emitted fewer samples than requested.
    pub sample_shortfalls: usize,
    /// MaxSAT calls per repair iteration over the Manthan3 runs (zero when
    /// the suite needed no repairs). Tracks the one-FindCandidates-per-
    /// counterexample shape of the incremental loop.
    pub maxsat_calls_per_repair_iteration: f64,
    /// Total unit propagations billed to the solver layer across every run.
    pub sat_propagations: u64,
    /// Propagations per second of engine wall-clock across the suite (the
    /// solver-modernization throughput headline).
    pub sat_propagations_per_sec: f64,
    /// Total CDCL conflicts across every run.
    pub conflicts: u64,
    /// Total CDCL decisions across every run.
    pub decisions: u64,
    /// Total CDCL restarts across every run.
    pub sat_restarts: u64,
    /// Assumption decision levels reused between incremental solve calls
    /// across every run.
    pub reused_levels: u64,
    /// Rephasing events across every run.
    pub rephases: u64,
    /// Live learnt clauses left in the solvers at the end of each run,
    /// summed across runs (for the portfolio: summed across its racers).
    pub learnt_db_live: usize,
    /// Glue (LBD ≤ 2) learnt clauses alive at the end of each run, summed
    /// across runs.
    pub glue2_clauses: usize,
    /// Clauses subsumed away by inter-call inprocessing across every run.
    pub inprocess_subsumed: u64,
    /// Clauses strengthened by inter-call inprocessing across every run.
    pub inprocess_strengthened: u64,
    /// Inprocessing passes that actually ran across every run.
    pub inprocess_passes: u64,
    /// Vivification candidates attempted across every run.
    pub vivify_candidates: u64,
    /// Vivification attempts that strengthened their clause across every
    /// run.
    pub vivify_strengthened: u64,
    /// Clause-arena compacting garbage collections across every run.
    pub arena_collections: u64,
    /// Arena words occupied by live clauses at the end of each run, summed
    /// across runs.
    pub arena_live_words: usize,
    /// SAT models re-verified against the full clause database across every
    /// run (a debug-build self-check; 0 in release harness runs).
    pub models_verified: u64,
    /// DRAT certificates of UNSAT verdicts handed to the in-process checker
    /// across every run (0 unless `--certify` ran).
    pub certificates_checked: u64,
    /// Checked certificates the independent checker rejected across every
    /// run — any non-zero value is a soundness alarm.
    pub certificates_rejected: u64,
    /// Total DRAT proof bytes across all checked certificates.
    pub proof_bytes: u64,
    /// Total clause-addition proof steps across all checked certificates.
    pub proof_adds: u64,
    /// Total clause-deletion proof steps across all checked certificates.
    pub proof_deletes: u64,
    /// Total wall-clock seconds spent inside the in-process proof checker.
    pub certify_wall_s: f64,
    /// Calls refused because a budget was exhausted, across every run.
    pub budget_exhaustions: usize,
    /// CDCL solvers constructed through the oracles across every run.
    pub sat_solvers_constructed: usize,
    /// MaxSAT solvers constructed through the oracles across every run.
    pub maxsat_solvers_constructed: usize,
    /// Samplers constructed through the oracles across every run.
    pub samplers_constructed: usize,
}

/// Computes the summary table from the run records.
pub fn summary(records: &[RunRecord]) -> Summary {
    let instances: BTreeSet<String> = records.iter().map(|r| r.instance.clone()).collect();
    let per_engine: BTreeMap<EngineKind, BTreeMap<String, f64>> = EngineKind::ALL
        .iter()
        .map(|&e| (e, solved_times(records, e)))
        .collect();
    let baseline_vbs = vbs(records, &[EngineKind::Hqs2Like, EngineKind::PedantLike]);
    let full_vbs = vbs(records, &EngineKind::ALL);
    let manthan3 = &per_engine[&EngineKind::Manthan3];
    let hqs = &per_engine[&EngineKind::Hqs2Like];
    let pedant = &per_engine[&EngineKind::PedantLike];

    let synthesized = EngineKind::ALL
        .iter()
        .map(|&e| (e, per_engine[&e].len()))
        .collect();
    let decided = EngineKind::ALL
        .iter()
        .map(|&e| {
            (
                e,
                records
                    .iter()
                    .filter(|r| r.engine == e && r.decided)
                    .count(),
            )
        })
        .collect();

    let manthan3_unique = manthan3
        .keys()
        .filter(|i| !baseline_vbs.contains_key(*i))
        .count();
    let manthan3_fastest = manthan3
        .iter()
        .filter(|(i, t)| baseline_vbs.get(*i).is_none_or(|b| *t < b))
        .count();
    let manthan3_not_hqs2 = manthan3.keys().filter(|i| !hqs.contains_key(*i)).count();
    let manthan3_not_pedant = manthan3.keys().filter(|i| !pedant.contains_key(*i)).count();
    let missed_by_manthan3 = baseline_vbs
        .keys()
        .filter(|i| !manthan3.contains_key(*i))
        .count();
    let manthan3_within_10s_of_vbs = manthan3
        .iter()
        .filter(|(i, t)| baseline_vbs.get(*i).is_some_and(|b| **t <= *b + 10.0))
        .count();
    let portfolio_records: Vec<&RunRecord> = records
        .iter()
        .filter(|r| r.engine == EngineKind::Portfolio)
        .collect();
    let (portfolio_synthesized, portfolio_decided) = if portfolio_records.is_empty() {
        (None, None)
    } else {
        (
            Some(portfolio_records.iter().filter(|r| r.synthesized).count()),
            Some(portfolio_records.iter().filter(|r| r.decided).count()),
        )
    };
    let compositional_records: Vec<&RunRecord> = records
        .iter()
        .filter(|r| r.engine == EngineKind::Compositional)
        .collect();
    let (
        compositional_synthesized,
        compositional_decided,
        compositional_clusters,
        cluster_wall_max_s,
        cluster_wall_sum_s,
    ) = if compositional_records.is_empty() {
        (None, None, None, None, None)
    } else {
        (
            Some(
                compositional_records
                    .iter()
                    .filter(|r| r.synthesized)
                    .count(),
            ),
            Some(compositional_records.iter().filter(|r| r.decided).count()),
            Some(compositional_records.iter().map(|r| r.clusters).sum()),
            Some(
                compositional_records
                    .iter()
                    .map(|r| r.cluster_wall_max.as_secs_f64())
                    .sum(),
            ),
            Some(
                compositional_records
                    .iter()
                    .map(|r| r.cluster_wall_sum.as_secs_f64())
                    .sum(),
            ),
        )
    };

    let maxsat_calls = records.iter().map(|r| r.oracle.maxsat_calls).sum();
    let maxsat_fresh_encodes = records.iter().map(|r| r.oracle.maxsat_hard_encodings).sum();
    let maxsat_incremental_hits = records
        .iter()
        .map(|r| r.oracle.maxsat_incremental_calls)
        .sum();
    let maxsat_probes = records.iter().map(|r| r.oracle.maxsat_probes).sum();
    let maxsat_cores = records.iter().map(|r| r.oracle.maxsat_cores).sum();
    // The per-iteration ratio is a Manthan3 shape invariant (one
    // FindCandidates call per counterexample), so it is computed over the
    // Manthan3 records only — the portfolio merges counters across engines
    // without per-engine iteration counts.
    let manthan3_records: Vec<&RunRecord> = records
        .iter()
        .filter(|r| r.engine == EngineKind::Manthan3)
        .collect();
    let repair_iterations: usize = manthan3_records.iter().map(|r| r.repair_iterations).sum();
    let sample_wall_s: f64 = manthan3_records
        .iter()
        .map(|r| r.sample_wall.as_secs_f64())
        .sum();
    let sample_shards = records.iter().map(|r| r.sample_shards).max().unwrap_or(0);
    let sampler_calls: usize = records.iter().map(|r| r.oracle.sampler_calls).sum();
    let sample_shortfalls: usize = records.iter().map(|r| r.oracle.sample_shortfalls).sum();
    let manthan3_maxsat_calls: usize = manthan3_records.iter().map(|r| r.oracle.maxsat_calls).sum();
    let maxsat_calls_per_repair_iteration = if repair_iterations == 0 {
        0.0
    } else {
        manthan3_maxsat_calls as f64 / repair_iterations as f64
    };
    let sat_propagations: u64 = records.iter().map(|r| r.oracle.sat_propagations).sum();
    let total_seconds: f64 = records.iter().map(|r| r.seconds()).sum();
    let sat_propagations_per_sec = if total_seconds > 0.0 {
        sat_propagations as f64 / total_seconds
    } else {
        0.0
    };
    let conflicts: u64 = records.iter().map(|r| r.oracle.conflicts).sum();
    let decisions: u64 = records.iter().map(|r| r.oracle.decisions).sum();
    let sat_restarts: u64 = records.iter().map(|r| r.oracle.sat_restarts).sum();
    let reused_levels: u64 = records.iter().map(|r| r.oracle.reused_levels).sum();
    let rephases: u64 = records.iter().map(|r| r.oracle.rephases).sum();
    let learnt_db_live: usize = records.iter().map(|r| r.oracle.learnt_db_live).sum();
    let glue2_clauses: usize = records.iter().map(|r| r.oracle.glue2_clauses).sum();
    let inprocess_subsumed: u64 = records.iter().map(|r| r.oracle.inprocess_subsumed).sum();
    let inprocess_strengthened: u64 = records
        .iter()
        .map(|r| r.oracle.inprocess_strengthened)
        .sum();
    let inprocess_passes: u64 = records.iter().map(|r| r.oracle.inprocess_passes).sum();
    let vivify_candidates: u64 = records.iter().map(|r| r.oracle.vivify_candidates).sum();
    let vivify_strengthened: u64 = records.iter().map(|r| r.oracle.vivify_strengthened).sum();
    let arena_collections: u64 = records.iter().map(|r| r.oracle.arena_collections).sum();
    let arena_live_words: usize = records.iter().map(|r| r.oracle.arena_live_words).sum();
    let models_verified: u64 = records.iter().map(|r| r.oracle.models_verified).sum();
    let certificates_checked: u64 = records.iter().map(|r| r.oracle.certificates_checked).sum();
    let certificates_rejected: u64 = records.iter().map(|r| r.oracle.certificates_rejected).sum();
    let proof_bytes: u64 = records.iter().map(|r| r.oracle.proof_bytes).sum();
    let proof_adds: u64 = records.iter().map(|r| r.oracle.proof_adds).sum();
    let proof_deletes: u64 = records.iter().map(|r| r.oracle.proof_deletes).sum();
    let certify_wall_s: f64 = records
        .iter()
        .map(|r| r.oracle.certify_nanos as f64 / 1e9)
        .sum();
    let budget_exhaustions: usize = records.iter().map(|r| r.oracle.budget_exhaustions).sum();
    let sat_solvers_constructed: usize = records
        .iter()
        .map(|r| r.oracle.sat_solvers_constructed)
        .sum();
    let maxsat_solvers_constructed: usize = records
        .iter()
        .map(|r| r.oracle.maxsat_solvers_constructed)
        .sum();
    let samplers_constructed: usize = records.iter().map(|r| r.oracle.samplers_constructed).sum();

    Summary {
        total_instances: instances.len(),
        synthesized,
        decided,
        vbs_without_manthan3: baseline_vbs.len(),
        vbs_with_manthan3: full_vbs.len(),
        manthan3_unique,
        manthan3_fastest,
        manthan3_not_hqs2,
        manthan3_not_pedant,
        missed_by_manthan3,
        manthan3_within_10s_of_vbs,
        portfolio_synthesized,
        portfolio_decided,
        compositional_synthesized,
        compositional_decided,
        compositional_clusters,
        cluster_wall_max_s,
        cluster_wall_sum_s,
        maxsat_calls,
        maxsat_fresh_encodes,
        maxsat_incremental_hits,
        maxsat_probes,
        maxsat_cores,
        repair_iterations,
        sample_wall_s,
        sample_shards,
        sampler_calls,
        sample_shortfalls,
        maxsat_calls_per_repair_iteration,
        sat_propagations,
        sat_propagations_per_sec,
        conflicts,
        decisions,
        sat_restarts,
        reused_levels,
        rephases,
        learnt_db_live,
        glue2_clauses,
        inprocess_subsumed,
        inprocess_strengthened,
        inprocess_passes,
        vivify_candidates,
        vivify_strengthened,
        arena_collections,
        arena_live_words,
        models_verified,
        certificates_checked,
        certificates_rejected,
        proof_bytes,
        proof_adds,
        proof_deletes,
        certify_wall_s,
        budget_exhaustions,
        sat_solvers_constructed,
        maxsat_solvers_constructed,
        samplers_constructed,
    }
}

impl Summary {
    /// Renders the summary as CSV rows `(metric, value)`.
    pub fn rows(&self) -> Vec<Vec<String>> {
        let mut rows = vec![
            vec!["total_instances".into(), self.total_instances.to_string()],
            vec![
                "vbs_without_manthan3".into(),
                self.vbs_without_manthan3.to_string(),
            ],
            vec![
                "vbs_with_manthan3".into(),
                self.vbs_with_manthan3.to_string(),
            ],
            vec!["manthan3_unique".into(), self.manthan3_unique.to_string()],
            vec!["manthan3_fastest".into(), self.manthan3_fastest.to_string()],
            vec![
                "manthan3_not_hqs2".into(),
                self.manthan3_not_hqs2.to_string(),
            ],
            vec![
                "manthan3_not_pedant".into(),
                self.manthan3_not_pedant.to_string(),
            ],
            vec![
                "missed_by_manthan3".into(),
                self.missed_by_manthan3.to_string(),
            ],
            vec![
                "manthan3_within_10s_of_vbs".into(),
                self.manthan3_within_10s_of_vbs.to_string(),
            ],
        ];
        for engine in EngineKind::ALL {
            rows.push(vec![
                format!("synthesized_{engine}"),
                self.synthesized[&engine].to_string(),
            ]);
            rows.push(vec![
                format!("decided_{engine}"),
                self.decided[&engine].to_string(),
            ]);
        }
        if let (Some(synthesized), Some(decided)) =
            (self.portfolio_synthesized, self.portfolio_decided)
        {
            rows.push(vec![
                "synthesized_portfolio".into(),
                synthesized.to_string(),
            ]);
            rows.push(vec!["decided_portfolio".into(), decided.to_string()]);
        }
        if let (Some(synthesized), Some(decided)) =
            (self.compositional_synthesized, self.compositional_decided)
        {
            rows.push(vec![
                "synthesized_compositional".into(),
                synthesized.to_string(),
            ]);
            rows.push(vec!["decided_compositional".into(), decided.to_string()]);
        }
        // Compositional cluster columns: the partition sizes and the
        // parallel-vs-sequential cluster wall clocks (critical path vs.
        // total work).
        if let (Some(clusters), Some(wall_max), Some(wall_sum)) = (
            self.compositional_clusters,
            self.cluster_wall_max_s,
            self.cluster_wall_sum_s,
        ) {
            rows.push(vec!["compositional_clusters".into(), clusters.to_string()]);
            rows.push(vec!["cluster_wall_max_s".into(), format!("{wall_max:.4}")]);
            rows.push(vec!["cluster_wall_sum_s".into(), format!("{wall_sum:.4}")]);
        }
        // MaxSAT oracle counters: the bench trajectory of the incremental
        // repair refactor (fresh encodes should stay at ~one per
        // repair-exercising run, incremental hits carry the rest).
        rows.push(vec!["maxsat_calls".into(), self.maxsat_calls.to_string()]);
        rows.push(vec![
            "maxsat_fresh_encodes".into(),
            self.maxsat_fresh_encodes.to_string(),
        ]);
        rows.push(vec![
            "maxsat_incremental_hits".into(),
            self.maxsat_incremental_hits.to_string(),
        ]);
        rows.push(vec!["maxsat_probes".into(), self.maxsat_probes.to_string()]);
        rows.push(vec!["maxsat_cores".into(), self.maxsat_cores.to_string()]);
        rows.push(vec![
            "repair_iterations".into(),
            self.repair_iterations.to_string(),
        ]);
        rows.push(vec![
            "maxsat_calls_per_repair_iteration".into(),
            format!("{:.3}", self.maxsat_calls_per_repair_iteration),
        ]);
        // Sampling counters: the bench trajectory of the sharded-sampling
        // refactor (wall-clock of the Sample stage, shard width, and the
        // budget-routed per-sample solver calls with their shortfalls).
        rows.push(vec![
            "sample_wall_s".into(),
            format!("{:.4}", self.sample_wall_s),
        ]);
        rows.push(vec!["sample_shards".into(), self.sample_shards.to_string()]);
        rows.push(vec!["sampler_calls".into(), self.sampler_calls.to_string()]);
        rows.push(vec![
            "sample_shortfalls".into(),
            self.sample_shortfalls.to_string(),
        ]);
        // Solver-layer counters: the bench trajectory of the CDCL
        // modernization (propagation throughput, restart cadence, learnt-DB
        // hygiene, and the inprocessing/arena-GC work between calls).
        rows.push(vec![
            "sat_propagations".into(),
            self.sat_propagations.to_string(),
        ]);
        rows.push(vec![
            "sat_propagations_per_sec".into(),
            format!("{:.1}", self.sat_propagations_per_sec),
        ]);
        rows.push(vec!["conflicts".into(), self.conflicts.to_string()]);
        rows.push(vec!["decisions".into(), self.decisions.to_string()]);
        rows.push(vec!["sat_restarts".into(), self.sat_restarts.to_string()]);
        rows.push(vec!["reused_levels".into(), self.reused_levels.to_string()]);
        rows.push(vec!["rephases".into(), self.rephases.to_string()]);
        // Live learnt-clause gauge: the per-run sum of each solver's final
        // `learnt_clauses` count.
        rows.push(vec![
            "learnt_clauses_live".into(),
            self.learnt_db_live.to_string(),
        ]);
        rows.push(vec!["glue2_clauses".into(), self.glue2_clauses.to_string()]);
        rows.push(vec![
            "inprocess_reductions".into(),
            (self.inprocess_subsumed + self.inprocess_strengthened).to_string(),
        ]);
        rows.push(vec![
            "inprocess_subsumed".into(),
            self.inprocess_subsumed.to_string(),
        ]);
        rows.push(vec![
            "inprocess_strengthened".into(),
            self.inprocess_strengthened.to_string(),
        ]);
        rows.push(vec![
            "inprocess_passes".into(),
            self.inprocess_passes.to_string(),
        ]);
        rows.push(vec![
            "vivify_candidates".into(),
            self.vivify_candidates.to_string(),
        ]);
        rows.push(vec![
            "vivify_strengthened".into(),
            self.vivify_strengthened.to_string(),
        ]);
        rows.push(vec![
            "arena_collections".into(),
            self.arena_collections.to_string(),
        ]);
        rows.push(vec![
            "arena_live_words".into(),
            self.arena_live_words.to_string(),
        ]);
        // Certification counters: the bench trajectory of the certifying
        // solver layer (`--certify`: DRAT proof traffic and the in-process
        // checking cost; rejections are a soundness alarm and must be 0).
        rows.push(vec![
            "models_verified".into(),
            self.models_verified.to_string(),
        ]);
        rows.push(vec![
            "certificates_checked".into(),
            self.certificates_checked.to_string(),
        ]);
        rows.push(vec![
            "certificates_rejected".into(),
            self.certificates_rejected.to_string(),
        ]);
        rows.push(vec!["proof_bytes".into(), self.proof_bytes.to_string()]);
        rows.push(vec!["proof_adds".into(), self.proof_adds.to_string()]);
        rows.push(vec!["proof_deletes".into(), self.proof_deletes.to_string()]);
        rows.push(vec![
            "certify_wall_s".into(),
            format!("{:.4}", self.certify_wall_s),
        ]);
        rows.push(vec![
            "budget_exhaustions".into(),
            self.budget_exhaustions.to_string(),
        ]);
        rows.push(vec![
            "sat_solvers_constructed".into(),
            self.sat_solvers_constructed.to_string(),
        ]);
        rows.push(vec![
            "maxsat_solvers_constructed".into(),
            self.maxsat_solvers_constructed.to_string(),
        ]);
        rows.push(vec![
            "samplers_constructed".into(),
            self.samplers_constructed.to_string(),
        ]);
        rows
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "instances:                 {}", self.total_instances)?;
        for engine in EngineKind::ALL {
            writeln!(
                f,
                "synthesized by {engine:<11} {} (decided {})",
                self.synthesized[&engine], self.decided[&engine]
            )?;
        }
        writeln!(
            f,
            "VBS(HQS2+Pedant):          {}",
            self.vbs_without_manthan3
        )?;
        writeln!(f, "VBS(+Manthan3):            {}", self.vbs_with_manthan3)?;
        writeln!(f, "Manthan3 unique:           {}", self.manthan3_unique)?;
        writeln!(f, "Manthan3 fastest:          {}", self.manthan3_fastest)?;
        writeln!(f, "Manthan3 not HQS2-like:    {}", self.manthan3_not_hqs2)?;
        writeln!(f, "Manthan3 not Pedant-like:  {}", self.manthan3_not_pedant)?;
        writeln!(f, "missed by Manthan3:        {}", self.missed_by_manthan3)?;
        write!(
            f,
            "Manthan3 within +10s of VBS: {}",
            self.manthan3_within_10s_of_vbs
        )?;
        write!(
            f,
            "\nMaxSAT calls:              {} ({} incremental, {} fresh encodes, \
             {:.3} per repair iteration; {} probes, {} cores)",
            self.maxsat_calls,
            self.maxsat_incremental_hits,
            self.maxsat_fresh_encodes,
            self.maxsat_calls_per_repair_iteration,
            self.maxsat_probes,
            self.maxsat_cores
        )?;
        write!(
            f,
            "\nsampling:                  {:.2}s wall across {} shard(s), {} solver calls, \
             {} shortfalls",
            self.sample_wall_s, self.sample_shards, self.sampler_calls, self.sample_shortfalls
        )?;
        write!(
            f,
            "\nSAT solver layer:          {} propagations ({:.0}/s), {} conflicts, \
             {} decisions, {} restarts ({} reused levels, {} rephases), \
             {} learnt live ({} glue), {} inprocess reductions \
             ({} subsumed + {} strengthened over {} passes; vivify {}/{}), \
             {} arena GCs ({} live words), {} budget refusals, \
             {}/{}/{} solvers (sat/maxsat/samplers)",
            self.sat_propagations,
            self.sat_propagations_per_sec,
            self.conflicts,
            self.decisions,
            self.sat_restarts,
            self.reused_levels,
            self.rephases,
            self.learnt_db_live,
            self.glue2_clauses,
            self.inprocess_subsumed + self.inprocess_strengthened,
            self.inprocess_subsumed,
            self.inprocess_strengthened,
            self.inprocess_passes,
            self.vivify_strengthened,
            self.vivify_candidates,
            self.arena_collections,
            self.arena_live_words,
            self.budget_exhaustions,
            self.sat_solvers_constructed,
            self.maxsat_solvers_constructed,
            self.samplers_constructed
        )?;
        if self.certificates_checked > 0 {
            write!(
                f,
                "\ncertification:             {} UNSAT certificates checked, {} rejected \
                 ({} proof bytes, {} adds + {} deletes, {:.2}s checking)",
                self.certificates_checked,
                self.certificates_rejected,
                self.proof_bytes,
                self.proof_adds,
                self.proof_deletes,
                self.certify_wall_s
            )?;
        }
        if let (Some(synthesized), Some(decided)) =
            (self.portfolio_synthesized, self.portfolio_decided)
        {
            write!(
                f,
                "\nparallel portfolio:        {synthesized} (decided {decided}, true wall-clock)"
            )?;
        }
        if let (Some(synthesized), Some(decided)) =
            (self.compositional_synthesized, self.compositional_decided)
        {
            write!(
                f,
                "\ncompositional:             {synthesized} (decided {decided}, {} clusters, \
                 cluster wall {:.2}s critical path / {:.2}s total)",
                self.compositional_clusters.unwrap_or(0),
                self.cluster_wall_max_s.unwrap_or(0.0),
                self.cluster_wall_sum_s.unwrap_or(0.0)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(instance: &str, engine: EngineKind, synthesized: bool, seconds: f64) -> RunRecord {
        RunRecord {
            instance: instance.to_string(),
            family: "planted".to_string(),
            engine,
            synthesized,
            decided: synthesized,
            outcome: if synthesized { "realizable" } else { "unknown" }.to_string(),
            time: Duration::from_secs_f64(seconds),
            oracle: manthan3_core::OracleStats::default(),
            repair_iterations: 0,
            sample_wall: Duration::ZERO,
            sample_shards: 1,
            clusters: 0,
            cluster_wall_max: Duration::ZERO,
            cluster_wall_sum: Duration::ZERO,
            certification_failure: None,
        }
    }

    fn sample_records() -> Vec<RunRecord> {
        vec![
            // i1: all three solve, manthan3 fastest.
            record("i1", EngineKind::Manthan3, true, 0.1),
            record("i1", EngineKind::Hqs2Like, true, 0.5),
            record("i1", EngineKind::PedantLike, true, 0.9),
            // i2: only manthan3 solves.
            record("i2", EngineKind::Manthan3, true, 1.0),
            record("i2", EngineKind::Hqs2Like, false, 2.0),
            record("i2", EngineKind::PedantLike, false, 2.0),
            // i3: only hqs solves.
            record("i3", EngineKind::Manthan3, false, 2.0),
            record("i3", EngineKind::Hqs2Like, true, 0.2),
            record("i3", EngineKind::PedantLike, false, 2.0),
        ]
    }

    #[test]
    fn vbs_takes_the_minimum() {
        let records = sample_records();
        let all = vbs(&records, &EngineKind::ALL);
        assert_eq!(all.len(), 3);
        assert!((all["i1"] - 0.1).abs() < 1e-9);
        let baseline = vbs(&records, &[EngineKind::Hqs2Like, EngineKind::PedantLike]);
        assert_eq!(baseline.len(), 2);
    }

    #[test]
    fn cactus_is_sorted_and_cumulative() {
        let records = sample_records();
        let series = cactus(&vbs(&records, &EngineKind::ALL));
        assert_eq!(series.len(), 3);
        assert!(series.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn summary_counts_match_hand_computation() {
        let records = sample_records();
        let s = summary(&records);
        assert_eq!(s.total_instances, 3);
        assert_eq!(s.synthesized[&EngineKind::Manthan3], 2);
        assert_eq!(s.synthesized[&EngineKind::Hqs2Like], 2);
        assert_eq!(s.synthesized[&EngineKind::PedantLike], 1);
        assert_eq!(s.vbs_without_manthan3, 2);
        assert_eq!(s.vbs_with_manthan3, 3);
        assert_eq!(s.manthan3_unique, 1);
        assert_eq!(s.manthan3_fastest, 2);
        assert_eq!(s.manthan3_not_hqs2, 1);
        assert_eq!(s.manthan3_not_pedant, 1);
        assert_eq!(s.missed_by_manthan3, 1);
        assert_eq!(s.manthan3_within_10s_of_vbs, 1);
        let text = s.to_string();
        assert!(text.contains("Manthan3 unique:           1"));
        assert!(s.rows().len() >= 9);
    }

    #[test]
    fn fig6_rows_have_three_series() {
        let records = sample_records();
        let rows = fig6_rows(&records);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].len(), 4);
        // The third entry exists only for the +Manthan3 portfolio.
        assert!(rows[2][1].is_empty());
        assert!(!rows[2][2].is_empty());
        // No live portfolio records: the wall-clock column stays empty.
        assert!(rows.iter().all(|r| r[3].is_empty()));
    }

    #[test]
    fn portfolio_records_fill_the_wall_clock_series_and_summary() {
        let mut records = sample_records();
        records.push(record("i1", EngineKind::Portfolio, true, 0.05));
        records.push(record("i2", EngineKind::Portfolio, true, 0.8));
        records.push(record("i3", EngineKind::Portfolio, true, 0.3));
        let rows = fig6_rows(&records);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| !r[3].is_empty()));
        assert_eq!(rows[0][3], "0.0500");

        let s = summary(&records);
        assert_eq!(s.portfolio_synthesized, Some(3));
        assert_eq!(s.portfolio_decided, Some(3));
        assert!(s
            .rows()
            .iter()
            .any(|r| r[0] == "synthesized_portfolio" && r[1] == "3"));
        assert!(s.to_string().contains("parallel portfolio"));
    }

    #[test]
    fn compositional_records_fill_the_cluster_summary() {
        // No compositional records: the columns stay absent.
        let s = summary(&sample_records());
        assert_eq!(s.compositional_synthesized, None);
        assert!(!s.rows().iter().any(|r| r[0] == "compositional_clusters"));

        let mut records = sample_records();
        let mut c1 = record("i1", EngineKind::Compositional, true, 0.06);
        c1.clusters = 3;
        c1.cluster_wall_max = Duration::from_millis(40);
        c1.cluster_wall_sum = Duration::from_millis(100);
        let mut c2 = record("i2", EngineKind::Compositional, true, 0.5);
        c2.clusters = 1;
        c2.cluster_wall_max = Duration::from_millis(500);
        c2.cluster_wall_sum = Duration::from_millis(500);
        records.push(c1);
        records.push(c2);
        let s = summary(&records);
        assert_eq!(s.compositional_synthesized, Some(2));
        assert_eq!(s.compositional_decided, Some(2));
        assert_eq!(s.compositional_clusters, Some(4));
        assert!((s.cluster_wall_max_s.unwrap() - 0.54).abs() < 1e-9);
        assert!((s.cluster_wall_sum_s.unwrap() - 0.6).abs() < 1e-9);
        let rows = s.rows();
        assert!(rows
            .iter()
            .any(|r| r[0] == "synthesized_compositional" && r[1] == "2"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "compositional_clusters" && r[1] == "4"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "cluster_wall_max_s" && r[1] == "0.5400"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "cluster_wall_sum_s" && r[1] == "0.6000"));
        assert!(s.to_string().contains("compositional:"));
    }

    #[test]
    fn maxsat_counters_aggregate_into_the_summary() {
        let mut records = sample_records();
        // The two Manthan3 runs did 5 + 3 repair iterations with one fresh
        // encode each and one incremental FindCandidates call per iteration;
        // a baseline record contributes nothing.
        records[0].oracle.maxsat_calls = 5;
        records[0].oracle.maxsat_incremental_calls = 5;
        records[0].oracle.maxsat_hard_encodings = 1;
        records[0].oracle.maxsat_probes = 12;
        records[0].oracle.maxsat_cores = 4;
        records[0].repair_iterations = 5;
        records[3].oracle.maxsat_calls = 3;
        records[3].oracle.maxsat_incremental_calls = 3;
        records[3].oracle.maxsat_hard_encodings = 1;
        records[3].oracle.maxsat_probes = 7;
        records[3].oracle.maxsat_cores = 2;
        records[3].repair_iterations = 3;
        let s = summary(&records);
        assert_eq!(s.maxsat_calls, 8);
        assert_eq!(s.maxsat_incremental_hits, 8);
        assert_eq!(s.maxsat_fresh_encodes, 2);
        assert_eq!(s.maxsat_probes, 19);
        assert_eq!(s.maxsat_cores, 6);
        assert_eq!(s.repair_iterations, 8);
        assert!((s.maxsat_calls_per_repair_iteration - 1.0).abs() < 1e-9);
        let rows = s.rows();
        assert!(rows
            .iter()
            .any(|r| r[0] == "maxsat_incremental_hits" && r[1] == "8"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "maxsat_fresh_encodes" && r[1] == "2"));
        assert!(rows.iter().any(|r| r[0] == "maxsat_probes" && r[1] == "19"));
        assert!(rows.iter().any(|r| r[0] == "maxsat_cores" && r[1] == "6"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "maxsat_calls_per_repair_iteration" && r[1] == "1.000"));
        assert!(s.to_string().contains("MaxSAT calls"));
    }

    #[test]
    fn sampling_counters_aggregate_into_the_summary() {
        let mut records = sample_records();
        records[0].sample_wall = Duration::from_millis(250);
        records[0].sample_shards = 4;
        records[0].oracle.sampler_calls = 120;
        records[3].sample_wall = Duration::from_millis(150);
        records[3].sample_shards = 4;
        records[3].oracle.sampler_calls = 80;
        records[3].oracle.sample_shortfalls = 1;
        let s = summary(&records);
        assert!((s.sample_wall_s - 0.4).abs() < 1e-9);
        assert_eq!(s.sample_shards, 4);
        assert_eq!(s.sampler_calls, 200);
        assert_eq!(s.sample_shortfalls, 1);
        let rows = s.rows();
        assert!(rows
            .iter()
            .any(|r| r[0] == "sample_wall_s" && r[1] == "0.4000"));
        assert!(rows.iter().any(|r| r[0] == "sample_shards" && r[1] == "4"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "sampler_calls" && r[1] == "200"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "sample_shortfalls" && r[1] == "1"));
        assert!(s.to_string().contains("sampling:"));
    }

    #[test]
    fn solver_counters_aggregate_into_the_summary() {
        let mut records = sample_records();
        records[0].oracle.sat_propagations = 900;
        records[0].oracle.conflicts = 30;
        records[0].oracle.decisions = 60;
        records[0].oracle.sat_restarts = 12;
        records[0].oracle.reused_levels = 9;
        records[0].oracle.rephases = 2;
        records[0].oracle.learnt_db_live = 40;
        records[0].oracle.glue2_clauses = 7;
        records[0].oracle.inprocess_subsumed = 3;
        records[0].oracle.inprocess_strengthened = 2;
        records[0].oracle.inprocess_passes = 4;
        records[0].oracle.vivify_candidates = 10;
        records[0].oracle.vivify_strengthened = 2;
        records[0].oracle.arena_collections = 2;
        records[0].oracle.arena_live_words = 512;
        records[0].oracle.budget_exhaustions = 1;
        records[0].oracle.sat_solvers_constructed = 2;
        records[0].oracle.maxsat_solvers_constructed = 1;
        records[0].oracle.samplers_constructed = 1;
        records[3].oracle.sat_propagations = 100;
        records[3].oracle.conflicts = 5;
        records[3].oracle.decisions = 8;
        records[3].oracle.sat_restarts = 3;
        records[3].oracle.reused_levels = 1;
        records[3].oracle.rephases = 1;
        records[3].oracle.learnt_db_live = 10;
        records[3].oracle.glue2_clauses = 1;
        records[3].oracle.inprocess_subsumed = 1;
        records[3].oracle.inprocess_passes = 1;
        records[3].oracle.arena_collections = 1;
        records[3].oracle.arena_live_words = 128;
        records[3].oracle.sat_solvers_constructed = 2;
        let s = summary(&records);
        assert_eq!(s.sat_propagations, 1000);
        assert_eq!(s.conflicts, 35);
        assert_eq!(s.decisions, 68);
        assert_eq!(s.sat_restarts, 15);
        assert_eq!(s.reused_levels, 10);
        assert_eq!(s.rephases, 3);
        assert_eq!(s.learnt_db_live, 50);
        assert_eq!(s.glue2_clauses, 8);
        assert_eq!(s.inprocess_subsumed, 4);
        assert_eq!(s.inprocess_strengthened, 2);
        assert_eq!(s.inprocess_passes, 5);
        assert_eq!(s.vivify_candidates, 10);
        assert_eq!(s.vivify_strengthened, 2);
        assert_eq!(s.arena_collections, 3);
        assert_eq!(s.arena_live_words, 640);
        assert_eq!(s.budget_exhaustions, 1);
        assert_eq!(s.sat_solvers_constructed, 4);
        assert_eq!(s.maxsat_solvers_constructed, 1);
        assert_eq!(s.samplers_constructed, 1);
        // sample_records() totals 0.1+0.5+0.9 + 1.0+2.0+2.0 + 2.0+0.2+2.0 = 10.7 s.
        assert!((s.sat_propagations_per_sec - 1000.0 / 10.7).abs() < 1e-6);
        let rows = s.rows();
        assert!(rows
            .iter()
            .any(|r| r[0] == "sat_propagations" && r[1] == "1000"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "sat_propagations_per_sec" && r[1] == "93.5"));
        assert!(rows.iter().any(|r| r[0] == "conflicts" && r[1] == "35"));
        assert!(rows.iter().any(|r| r[0] == "decisions" && r[1] == "68"));
        assert!(rows.iter().any(|r| r[0] == "sat_restarts" && r[1] == "15"));
        assert!(rows.iter().any(|r| r[0] == "reused_levels" && r[1] == "10"));
        assert!(rows.iter().any(|r| r[0] == "rephases" && r[1] == "3"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "learnt_clauses_live" && r[1] == "50"));
        assert!(rows.iter().any(|r| r[0] == "glue2_clauses" && r[1] == "8"));
        // The combined reductions row stays alongside the per-kind split.
        assert!(rows
            .iter()
            .any(|r| r[0] == "inprocess_reductions" && r[1] == "6"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "inprocess_subsumed" && r[1] == "4"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "inprocess_strengthened" && r[1] == "2"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "inprocess_passes" && r[1] == "5"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "vivify_candidates" && r[1] == "10"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "vivify_strengthened" && r[1] == "2"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "arena_collections" && r[1] == "3"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "arena_live_words" && r[1] == "640"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "budget_exhaustions" && r[1] == "1"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "sat_solvers_constructed" && r[1] == "4"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "maxsat_solvers_constructed" && r[1] == "1"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "samplers_constructed" && r[1] == "1"));
        assert!(s.to_string().contains("SAT solver layer"));
    }

    #[test]
    fn certification_counters_aggregate_into_the_summary() {
        // No certified runs: the counters stay zero and the Display line is
        // suppressed.
        let s = summary(&sample_records());
        assert_eq!(s.certificates_checked, 0);
        assert!(!s.to_string().contains("certification:"));
        assert!(s
            .rows()
            .iter()
            .any(|r| r[0] == "certificates_checked" && r[1] == "0"));

        let mut records = sample_records();
        records[0].oracle.models_verified = 5;
        records[0].oracle.certificates_checked = 3;
        records[0].oracle.proof_bytes = 1024;
        records[0].oracle.proof_adds = 40;
        records[0].oracle.proof_deletes = 12;
        records[0].oracle.certify_nanos = 1_500_000_000;
        records[3].oracle.certificates_checked = 2;
        records[3].oracle.certificates_rejected = 1;
        records[3].oracle.proof_bytes = 476;
        records[3].oracle.proof_adds = 10;
        records[3].oracle.certify_nanos = 500_000_000;
        let s = summary(&records);
        assert_eq!(s.models_verified, 5);
        assert_eq!(s.certificates_checked, 5);
        assert_eq!(s.certificates_rejected, 1);
        assert_eq!(s.proof_bytes, 1500);
        assert_eq!(s.proof_adds, 50);
        assert_eq!(s.proof_deletes, 12);
        assert!((s.certify_wall_s - 2.0).abs() < 1e-9);
        let rows = s.rows();
        assert!(rows
            .iter()
            .any(|r| r[0] == "certificates_checked" && r[1] == "5"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "certificates_rejected" && r[1] == "1"));
        assert!(rows.iter().any(|r| r[0] == "proof_bytes" && r[1] == "1500"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "certify_wall_s" && r[1] == "2.0000"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "models_verified" && r[1] == "5"));
        assert!(s.to_string().contains("certification:"));
        assert!(s.to_string().contains("1 rejected"));
    }

    #[test]
    fn repair_free_suites_report_a_zero_ratio() {
        let s = summary(&sample_records());
        assert_eq!(s.repair_iterations, 0);
        assert_eq!(s.maxsat_calls_per_repair_iteration, 0.0);
        assert!(s
            .rows()
            .iter()
            .any(|r| r[0] == "maxsat_calls_per_repair_iteration" && r[1] == "0.000"));
    }

    #[test]
    fn scatter_rows_cover_every_instance() {
        let records = sample_records();
        let rows = scatter_rows(
            &records,
            &[EngineKind::Hqs2Like],
            &[EngineKind::Manthan3],
            Duration::from_secs(10),
        );
        assert_eq!(rows.len(), 3);
        // i2 is a timeout for the HQS2-like engine.
        let i2 = rows.iter().find(|r| r[0] == "i2").unwrap();
        assert_eq!(i2[1], "10.0000");
    }
}
