//! Metrics, provenance, the result line, and the trace file.

use crate::run::{
    Record, Runner, Verdict, CERTIFY, CHECK, COUNTERS, LEARN, PROPAGATIONS, REPAIR, SAMPLE,
    SYNTHESIZE, TIMERS, VERIFY,
};
use std::fmt::Write as _;
use std::path::Path;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Per instance, `value` of its fastest record (by solve-path latency) among
/// the selected passes that measured it; 0 where none did.
///
/// The work is deterministic (every counter repeats exactly), so passes
/// differ only by noise from the host, which can only add time.
fn per_instance(
    records: &[Vec<Record>],
    traced: bool,
    value: impl Fn(&Record) -> Option<f64>,
) -> Vec<f64> {
    records
        .iter()
        .map(|runs| {
            runs.iter()
                .filter(|r| r.traced == traced)
                .filter_map(|r| value(r).map(|v| (r.latency, v)))
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .map_or(0.0, |(_, v)| v)
        })
        .collect()
}

/// The highest percentile with at least ten instances beyond it: the
/// (n − 10)-th smallest per-instance latency, with its percentile.
pub fn tail(latencies: &[f64]) -> (f64, f64) {
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let index = n.saturating_sub(11);
    (sorted[index], 100.0 * (index + 1) as f64 / n as f64)
}

pub fn attempted_failed(runner: &Runner) -> (usize, usize) {
    let all = runner.records.iter().flatten();
    let attempted = all.clone().count();
    let failed = all.filter(|r| r.verdict == Verdict::Failed).count();
    (attempted, failed)
}

/// The solve-path latency of every instance: its fastest untraced pass.
pub fn latencies(runner: &Runner) -> Vec<f64> {
    per_instance(&runner.records, false, |r| Some(r.latency))
}

/// The summed solve-path latency of each pass, in pass order.
pub fn pass_walls(runner: &Runner) -> Vec<f64> {
    (0..runner.passes)
        .map(|p| {
            runner
                .records
                .iter()
                .filter_map(|r| r.get(p))
                .map(|r| r.latency)
                .sum()
        })
        .collect()
}

pub fn end_to_end(runner: &Runner, setup_s: f64) -> Vec<Metric> {
    let latency = latencies(runner);
    let peak_heap_mb = per_instance(&runner.records, false, |r| {
        Some(r.peak_heap as f64 / (1024.0 * 1024.0))
    });
    let (attempted, failed) = attempted_failed(runner);
    vec![
        metric("setup_s", setup_s, "s"),
        metric("wall_s", latency.iter().sum(), "s"),
        metric("instance_p50_s", median(latency.clone()), "s"),
        metric("instance_tail_s", tail(&latency).0, "s"),
        metric(
            "checked_frac",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        ),
        // The mean, not the median: an instance's peak jumps when one large
        // buffer doubles its capacity, and the median of such a two-valued
        // spread lands on either value depending on the seed.
        metric(
            "instance_peak_heap_mb",
            peak_heap_mb.iter().sum::<f64>() / peak_heap_mb.len() as f64,
            "MB",
        ),
    ]
}

pub fn per_layer(runner: &Runner) -> Vec<Metric> {
    let records = &runner.records;
    let timer = |t: usize| -> f64 { per_instance(records, true, |r| r.timers[t]).iter().sum() };
    let mut out: Vec<Metric> = TIMERS
        .iter()
        .enumerate()
        .map(|(t, name)| {
            // Off the timed path, the gate checks each instance once.
            let gate = if t == CHECK { runner.gate_check_s } else { 0.0 };
            metric(name, timer(t) + gate, "s")
        })
        .collect();
    for (c, name) in COUNTERS.iter().enumerate() {
        // Counters repeat exactly on every pass; take the first.
        let total: u64 = records
            .iter()
            .filter_map(|runs| runs.first())
            .map(|r| r.counts[c])
            .sum();
        let unit = if *name == "drat.proof_bytes" {
            "B"
        } else {
            "count"
        };
        out.push(metric(name, total as f64, unit));
    }
    let synthesize = timer(SYNTHESIZE);
    let propagations = records
        .iter()
        .filter_map(|runs| runs.first())
        .map(|r| r.counts[PROPAGATIONS])
        .sum::<u64>() as f64;
    let traced_wall: f64 = per_instance(records, true, |r| Some(r.latency))
        .iter()
        .sum();
    let untraced_wall: f64 = latencies(runner).iter().sum();
    out.extend([
        metric("sat.props_per_s", propagations / synthesize, "1/s"),
        metric(
            "share.verify_repair_pct",
            100.0 * (timer(VERIFY) + timer(REPAIR)) / synthesize,
            "%",
        ),
        metric(
            "share.sample_learn_pct",
            100.0 * (timer(SAMPLE) + timer(LEARN)) / synthesize,
            "%",
        ),
        metric(
            "share.check_certify_pct",
            100.0 * (timer(CHECK) + timer(CERTIFY)) / traced_wall,
            "%",
        ),
        metric("trace.wall_s", traced_wall, "s"),
        metric(
            "trace.overhead_pct",
            100.0 * (traced_wall / untraced_wall - 1.0),
            "%",
        ),
    ]);
    out
}

pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number; a non-finite value (a ratio over nothing) becomes 0.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where and how a result was produced.
pub struct Provenance {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub instances: usize,
    pub passes: usize,
    pub tail_percentile: f64,
    /// CPUs available to the process, read before any pinning.
    pub nproc: usize,
}

impl Provenance {
    pub fn json(&self) -> String {
        let fields = [
            ("workload", string(self.workload)),
            ("seed", self.seed.to_string()),
            ("seconds", number(self.seconds)),
            ("instances", self.instances.to_string()),
            ("passes", self.passes.to_string()),
            ("tail_percentile", number(self.tail_percentile)),
            ("safety_cap_s", crate::run::SAFETY_CAP.as_secs().to_string()),
            ("nproc", self.nproc.to_string()),
            ("cpu", string(&cpu_model())),
            ("rustc", string(env!("M3PERF_RUSTC_VERSION"))),
            ("commit", string(&git_commit())),
        ];
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the enclosing git checkout, read from `.git` without
/// running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs")).and_then(|packed| {
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The traced run's spans and per-instance summary as one JSON document.
pub fn trace_json(runner: &Runner, names: &[String], provenance: &str) -> String {
    let mut out = format!("{{\"provenance\": {provenance},\n\"spans\": [\n");
    for (id, s) in runner.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}{{\"id\": {id}, \"name\": {}, \"instance\": {}, \"pass\": {}, \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}}}",
            if id == 0 { "" } else { "," },
            string(s.name),
            s.instance,
            s.pass,
            number(s.start),
            number(s.end),
        );
    }
    out.push_str("],\n\"instances\": [\n");
    let latency = latencies(runner);
    for (i, runs) in runner.records.iter().enumerate() {
        let Some(first) = runs.first() else { continue };
        let counts: Vec<String> = COUNTERS
            .iter()
            .zip(first.counts)
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect();
        let _ = writeln!(
            out,
            "{}{{\"id\": {i}, \"name\": {}, \"verdict\": \"{:?}\", \"latency_s\": {}, \"counts\": {{{}}}}}",
            if i == 0 { "" } else { "," },
            string(&names[i]),
            first.verdict,
            number(latency[i]),
            counts.join(", "),
        );
    }
    out.push_str("]}\n");
    out
}
