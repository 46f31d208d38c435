//! VBS bookkeeping, cactus/scatter series and the summary table
//! (the data behind Figures 6–10 and the in-text counts of the paper).

use crate::{EngineKind, RunRecord};
use manthan3_core::OracleStats;
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

/// The per-record columns of `runs.csv`, ahead of the oracle counter
/// columns ([`OracleStats::COLUMNS`]).
pub const RUN_COLUMNS: [&str; 10] = [
    "instance",
    "family",
    "engine",
    "synthesized",
    "decided",
    "outcome",
    "seconds",
    "sat_propagations_per_sec",
    "repair_iterations",
    "sample_wall_s",
];

/// The `runs.csv` header: [`RUN_COLUMNS`] followed by
/// [`OracleStats::COLUMNS`].
pub fn runs_header() -> Vec<&'static str> {
    RUN_COLUMNS
        .iter()
        .chain(OracleStats::COLUMNS)
        .copied()
        .collect()
}

/// The `runs.csv` rows, one per record, in [`runs_header`] order.
pub fn runs_rows(records: &[RunRecord]) -> Vec<Vec<String>> {
    records
        .iter()
        .map(|r| {
            let mut row = vec![
                r.instance.clone(),
                r.family.clone(),
                r.engine.to_string(),
                r.synthesized.to_string(),
                r.decided.to_string(),
                r.outcome.clone(),
                format!("{:.4}", r.seconds()),
                format!(
                    "{:.1}",
                    per_second(r.stats.oracle.sat_propagations, r.seconds())
                ),
                r.stats.repair_iterations.to_string(),
                format!("{:.4}", r.stats.sampling_time.as_secs_f64()),
            ];
            row.extend(r.stats.oracle.values());
            row
        })
        .collect()
}

/// `count` per second of `seconds` (zero for an empty interval).
fn per_second(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
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
    /// Total repair iterations across the Manthan3 runs.
    pub repair_iterations: usize,
    /// MaxSAT calls per repair iteration over the Manthan3 runs (zero when
    /// the suite needed no repairs). Tracks the one-FindCandidates-per-
    /// counterexample shape of the incremental loop.
    pub maxsat_calls_per_repair_iteration: f64,
    /// Total wall-clock seconds the Manthan3 runs spent in their sampling
    /// stage (the `sample_wall_s` summary row).
    pub sample_wall_s: f64,
    /// Propagations per second of engine wall-clock across the suite (the
    /// solver-layer throughput headline).
    pub sat_propagations_per_sec: f64,
    /// Every oracle counter summed over every run of the suite (gauges sum
    /// each run's final value; for the portfolio, across its racers).
    pub oracle: OracleStats,
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
    let mut oracle = OracleStats::default();
    for record in records {
        oracle.absorb(&record.stats.oracle);
    }
    // The per-iteration ratio is a Manthan3 shape invariant (one
    // FindCandidates call per counterexample), so it is computed over the
    // Manthan3 records only — the portfolio merges counters across engines
    // without per-engine iteration counts.
    let manthan3_records: Vec<&RunRecord> = records
        .iter()
        .filter(|r| r.engine == EngineKind::Manthan3)
        .collect();
    let repair_iterations: usize = manthan3_records
        .iter()
        .map(|r| r.stats.repair_iterations)
        .sum();
    let manthan3_maxsat_calls: usize = manthan3_records
        .iter()
        .map(|r| r.stats.oracle.maxsat_calls)
        .sum();
    let maxsat_calls_per_repair_iteration = if repair_iterations == 0 {
        0.0
    } else {
        manthan3_maxsat_calls as f64 / repair_iterations as f64
    };
    let sample_wall_s: f64 = manthan3_records
        .iter()
        .map(|r| r.stats.sampling_time.as_secs_f64())
        .sum();
    let total_seconds: f64 = records.iter().map(|r| r.seconds()).sum();

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
        repair_iterations,
        maxsat_calls_per_repair_iteration,
        sample_wall_s,
        sat_propagations_per_sec: per_second(oracle.sat_propagations, total_seconds),
        oracle,
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
            let portfolio = EngineKind::Portfolio;
            rows.push(vec![
                format!("synthesized_{portfolio}"),
                synthesized.to_string(),
            ]);
            rows.push(vec![format!("decided_{portfolio}"), decided.to_string()]);
        }
        rows.extend(
            self.counter_rows()
                .into_iter()
                .map(|(metric, value)| vec![metric.to_string(), value]),
        );
        rows
    }

    /// The counter rows of the summary, `(metric, value)`: the run-level
    /// rows derived from the records, then one row per
    /// [`OracleStats::COLUMNS`] entry.
    fn counter_rows(&self) -> Vec<(&'static str, String)> {
        let mut rows = vec![
            ("repair_iterations", self.repair_iterations.to_string()),
            (
                "maxsat_calls_per_repair_iteration",
                format!("{:.3}", self.maxsat_calls_per_repair_iteration),
            ),
            ("sample_wall_s", format!("{:.4}", self.sample_wall_s)),
            (
                "sat_propagations_per_sec",
                format!("{:.1}", self.sat_propagations_per_sec),
            ),
        ];
        rows.extend(
            OracleStats::COLUMNS
                .iter()
                .copied()
                .zip(self.oracle.values()),
        );
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
        for (metric, value) in self.counter_rows() {
            write!(f, "\n{metric:<34} {value}")?;
        }
        // A rejected certificate is a soundness alarm.
        if self.oracle.certificates_rejected > 0 {
            write!(
                f,
                "\ncertification ALARM:       {} of {} UNSAT certificates rejected",
                self.oracle.certificates_rejected, self.oracle.certificates_checked
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
            stats: manthan3_core::SynthesisStats::default(),
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

    /// The summary's oracle counters are the records' stats merged with
    /// `absorb`, and every table column appears exactly once among the rows
    /// and the Display lines, carrying the merged value.
    #[test]
    fn oracle_counters_aggregate_into_the_summary() {
        let mut records = sample_records();
        records[0].stats.oracle.maxsat_calls = 5;
        records[0].stats.oracle.conflicts = 30;
        records[0].stats.oracle.learnt_db_live = 40;
        records[0].stats.oracle.rephases = 2;
        records[0].stats.oracle.certify_nanos = 1_500_000_000;
        records[3].stats.oracle.sampler_calls = 80;
        records[3].stats.oracle.conflicts = 5;
        records[3].stats.oracle.learnt_db_live = 10;
        records[3].stats.oracle.certify_nanos = 500_000_000;
        records[4].stats.oracle.budget_exhaustions = 1;
        let s = summary(&records);
        let mut merged = OracleStats::default();
        for r in &records {
            merged.absorb(&r.stats.oracle);
        }
        assert_eq!(s.oracle, merged);

        let rows = s.rows();
        let text = s.to_string();
        for (column, value) in OracleStats::COLUMNS.iter().zip(merged.values()) {
            let matching: Vec<&Vec<String>> = rows.iter().filter(|r| r[0] == *column).collect();
            assert_eq!(matching.len(), 1, "{column}: {rows:?}");
            assert_eq!(matching[0][1], value, "{column}");
            let line = format!("\n{column:<34} {value}");
            assert_eq!(text.matches(&line).count(), 1, "{line:?} in {text}");
        }
        // Gauges sum the runs' final values; nanos export in seconds.
        assert!(rows
            .iter()
            .any(|r| r[0] == "learnt_clauses_live" && r[1] == "50"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "certify_wall_s" && r[1] == "2.0000"));
    }

    #[test]
    fn maxsat_counters_aggregate_into_the_summary() {
        let mut records = sample_records();
        // The two Manthan3 runs did 5 + 3 repair iterations with one
        // FindCandidates call per iteration; a baseline's MaxSAT calls do
        // not enter the per-iteration ratio.
        records[0].stats.oracle.maxsat_calls = 5;
        records[0].stats.repair_iterations = 5;
        records[3].stats.oracle.maxsat_calls = 3;
        records[3].stats.repair_iterations = 3;
        records[1].stats.oracle.maxsat_calls = 4;
        let s = summary(&records);
        assert_eq!(s.oracle.maxsat_calls, 12);
        assert_eq!(s.repair_iterations, 8);
        assert!((s.maxsat_calls_per_repair_iteration - 1.0).abs() < 1e-9);
        let rows = s.rows();
        assert!(rows
            .iter()
            .any(|r| r[0] == "repair_iterations" && r[1] == "8"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "maxsat_calls_per_repair_iteration" && r[1] == "1.000"));
    }

    #[test]
    fn sampling_counters_aggregate_into_the_summary() {
        let mut records = sample_records();
        records[0].stats.sampling_time = Duration::from_millis(250);
        records[3].stats.sampling_time = Duration::from_millis(150);
        let s = summary(&records);
        assert!((s.sample_wall_s - 0.4).abs() < 1e-9);
        let rows = s.rows();
        assert!(rows
            .iter()
            .any(|r| r[0] == "sample_wall_s" && r[1] == "0.4000"));
    }

    #[test]
    fn solver_counters_aggregate_into_the_summary() {
        let mut records = sample_records();
        records[0].stats.oracle.sat_propagations = 900;
        records[3].stats.oracle.sat_propagations = 100;
        let s = summary(&records);
        assert_eq!(s.oracle.sat_propagations, 1000);
        // sample_records() totals 0.1+0.5+0.9 + 1.0+2.0+2.0 + 2.0+0.2+2.0 = 10.7 s.
        assert!((s.sat_propagations_per_sec - 1000.0 / 10.7).abs() < 1e-6);
        assert!(s
            .rows()
            .iter()
            .any(|r| r[0] == "sat_propagations_per_sec" && r[1] == "93.5"));
    }

    #[test]
    fn certification_counters_aggregate_into_the_summary() {
        // Checked certificates alone raise no alarm.
        let mut records = sample_records();
        records[0].stats.oracle.certificates_checked = 3;
        let s = summary(&records);
        assert!(!s.to_string().contains("ALARM"));

        records[3].stats.oracle.certificates_checked = 2;
        records[3].stats.oracle.certificates_rejected = 1;
        let s = summary(&records);
        assert!(s
            .to_string()
            .contains("certification ALARM:       1 of 5 UNSAT certificates rejected"));
    }

    /// `runs.csv` is the record columns followed by the table's columns,
    /// one row per record, with the oracle values in table order.
    #[test]
    fn runs_csv_is_the_record_columns_then_the_oracle_columns() {
        let header = runs_header();
        assert_eq!(&header[..RUN_COLUMNS.len()], RUN_COLUMNS);
        assert_eq!(&header[RUN_COLUMNS.len()..], OracleStats::COLUMNS);
        let unique: BTreeSet<_> = header.iter().collect();
        assert_eq!(unique.len(), header.len());

        let mut records = sample_records();
        records[0].stats.oracle.sat_propagations = 50;
        records[0].stats.oracle.certify_nanos = 250_000_000;
        let rows = runs_rows(&records);
        assert_eq!(rows.len(), records.len());
        for (row, record) in rows.iter().zip(&records) {
            assert_eq!(row.len(), header.len());
            assert_eq!(row[0], record.instance);
            let oracle: Vec<String> = record.stats.oracle.values().collect();
            assert_eq!(&row[RUN_COLUMNS.len()..], oracle);
        }
        // 50 propagations over the record's 0.1 s.
        let rate = header
            .iter()
            .position(|c| *c == "sat_propagations_per_sec")
            .expect("derived rate column");
        assert_eq!(rows[0][rate], "500.0");
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
