//! What a run reports: metrics, checks, the host fingerprint and the
//! result line.

use crate::fingerprint::{pinned, Extra, Fingerprint, PAPER_PJ_PER_INS_1V8, SHIPPED_SEED};
use crate::trace::Tracer;
use snap_telemetry::Value;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Kept in step with `BENCHMARK.json` by a test.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_instr_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sims_per_s", "1/s"),
];

/// The snap-serve endpoints reported per layer.
pub const ENDPOINTS: [&str; 5] = [
    "post_sims",
    "get_status",
    "get_snapshot",
    "post_restore",
    "post_fork",
];

/// Per-layer metrics, reported by every workload with `--trace 1`
/// (0 where the workload does not use the layer).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("snap-asm.images", "count"),
        ("snap-asm.s", "s"),
        ("snap-asm.ms_per_image", "ms"),
        ("snap-net.build.nodes", "count"),
        ("snap-net.build.s", "s"),
        ("snap-net.build.us_per_node", "us"),
        ("snap-net.build.rss_bytes_per_node", "B"),
        ("snap-net.schedule.calls", "count"),
        ("snap-net.schedule.s", "s"),
        ("snap-net.run.slices", "count"),
        ("snap-net.run.slice_p50_ms", "ms"),
        ("snap-net.run.slice_tail_ms", "ms"),
        ("snap-net.run.slice_tail_pct", "%"),
        ("snap-net.run.ns_per_wakeup", "ns"),
        ("snap-net.run.ns_per_channel_event", "ns"),
        ("snap-core.instructions", "count"),
        ("snap-core.handlers", "count"),
        ("snap-core.wakeups", "count"),
        ("snap-core.events_dropped", "count"),
        ("snap-core.queue_high_water", "count"),
        ("snap-core.solo_ns_per_instr", "ns"),
        ("snap-core.share_of_run", "ratio"),
        ("snap-core.pj_per_instr", "pJ"),
        ("snap-net.channel.deliveries", "count"),
        ("snap-net.channel.collisions", "count"),
        ("snap-net.channel.faded", "count"),
        ("snap-net.channel.delivery_ratio", "ratio"),
        ("status_p50_ms", "ms"),
        ("status_tail_ms", "ms"),
        ("status_tail_pct", "%"),
        ("status_samples", "count"),
        ("checkpoint_p50_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for ep in ENDPOINTS {
        for (m, u) in [
            ("count", "count"),
            ("p50_ms", "ms"),
            ("tail_ms", "ms"),
            ("tail_pct", "%"),
            ("errors", "count"),
        ] {
            v.push((format!("snap-serve.{ep}.{m}"), u));
        }
    }
    v.extend(
        [
            ("snap-serve.post_fork.mid_run", "count"),
            ("snap-serve.direct_s", "s"),
            ("snap-serve.overhead_ratio", "ratio"),
            ("snap-snapshot.bytes_per_node", "B"),
            ("snap-snapshot.restore_identical", "count"),
            ("snap-snapshot.restore_attempted", "count"),
            ("trace.spans", "count"),
            ("trace.overhead_ratio", "ratio"),
            ("fail_ratio", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// One run's results.
pub struct Outcome {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures, one line each.
    pub failures: Vec<String>,
    e2e: Vec<(&'static str, f64, &'static str)>,
    layers: BTreeMap<String, f64>,
    /// Sample counts behind the end-to-end medians, in words.
    pub samples: String,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
    fingerprint: Option<(Fingerprint, Extra)>,
    tracers: Vec<Tracer>,
}

impl Outcome {
    pub fn new(workload: &str) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            e2e: Vec::new(),
            layers: BTreeMap::new(),
            samples: String::new(),
            notes: Vec::new(),
            fingerprint: None,
            tracers: Vec::new(),
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.push((name, value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Record a failure; the caller has counted it in `failed`.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Count one output check as an operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.fail(why());
        }
    }

    pub fn set_tracers(&mut self, tracers: Vec<Tracer>) {
        self.tracers = tracers;
    }

    pub fn tracers(&self) -> &[Tracer] {
        &self.tracers
    }

    /// Set the fingerprint and the exact simulated counts it implies.
    pub fn set_fingerprint(&mut self, fp: Fingerprint, extra: Extra) {
        self.layer("snap-core.instructions", fp.instructions as f64);
        self.layer("snap-core.handlers", fp.handlers as f64);
        self.layer("snap-core.wakeups", fp.wakeups as f64);
        self.layer("snap-core.events_dropped", extra.events_dropped as f64);
        self.layer("snap-core.queue_high_water", extra.queue_high_water as f64);
        self.layer("snap-core.pj_per_instr", extra.pj_per_instr(&fp));
        self.layer("snap-net.channel.deliveries", fp.deliveries as f64);
        self.layer("snap-net.channel.collisions", fp.collisions as f64);
        self.layer("snap-net.channel.faded", fp.faded as f64);
        // The channel counts a faded word as a collision too, so words
        // that reached a receiver are deliveries + collisions.
        let arrived = fp.deliveries + fp.collisions;
        self.layer(
            "snap-net.channel.delivery_ratio",
            if arrived == 0 {
                0.0
            } else {
                fp.deliveries as f64 / arrived as f64
            },
        );
        self.fingerprint = Some((fp, extra));
    }

    /// This run's fingerprint, if it has one.
    pub fn fingerprint(&self) -> Option<Fingerprint> {
        self.fingerprint.map(|(fp, _)| fp)
    }

    /// Check the shipped seed's fingerprint `fp` against its pin.
    pub fn check_pin(&mut self, fp: &Fingerprint) -> bool {
        let pin = pinned(&self.workload).unwrap_or("no pin");
        let ok = fp.render() == pin;
        self.check(ok, || {
            format!(
                "seed {SHIPPED_SEED} fingerprint {} != pinned {pin}",
                fp.render()
            )
        });
        ok
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// Human-readable report lines (everything but the result line).
    pub fn lines(&self, traced: bool) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!("end-to-end ({}):", self.samples));
        for (n, v, u) in &self.e2e {
            out.push(format!("  {n:<40} {v:>16.6} {u}"));
        }
        if traced {
            out.push("per-layer (traced run):".to_string());
            for (n, u) in per_layer() {
                let v = self.layers.get(&n).copied().unwrap_or(0.0);
                out.push(format!("  {n:<40} {v:>16.6} {u}"));
            }
        }
        if let Some((fp, extra)) = &self.fingerprint {
            out.push(format!("fingerprint: {}", fp.render()));
            out.push(format!(
                "energy: {:.2} pJ/instruction simulated vs {PAPER_PJ_PER_INS_1V8} pJ/ins in the \
                 paper at 1.8 V (calibration check; the model is not validated against hardware)",
                extra.pj_per_instr(fp)
            ));
        }
        out.extend(self.notes.iter().cloned());
        for f in &self.failures {
            out.push(format!("CHECK FAILED: {f}"));
        }
        out
    }

    /// The record line: fingerprint, exact counters and every metric.
    pub fn record(&self, seed: u64, traced: bool, host: Value) -> Value {
        let mut v = Value::obj();
        v.set("workload", Value::Str(self.workload.clone()))
            .set("seed", Value::Int(seed as i64))
            .set("traced", Value::Bool(traced))
            .set("host", host);
        if let Some((fp, extra)) = &self.fingerprint {
            let mut counters = fp.to_json();
            counters
                .set("events_dropped", Value::Int(extra.events_dropped as i64))
                .set(
                    "queue_high_water",
                    Value::Int(extra.queue_high_water as i64),
                )
                .set("nodes", Value::Int(extra.nodes as i64));
            v.set("counters", counters);
        }
        let mut m = Value::obj();
        for (n, val, _) in &self.e2e {
            m.set(n, Value::Float(*val));
        }
        for (n, val) in &self.layers {
            m.set(n, Value::Float(*val));
        }
        v.set("metrics", m);
        v
    }

    /// The result line: `--trace 0` carries every end-to-end metric,
    /// `--trace 1` every per-layer metric.
    pub fn result(&self, traced: bool) -> Value {
        let mut metrics = Value::obj();
        let mut put = |name: &str, value: f64, unit: &str| {
            let mut m = Value::obj();
            m.set("value", Value::Float(value))
                .set("unit", Value::Str(unit.to_string()));
            metrics.set(name, m);
        };
        if traced {
            for (n, u) in per_layer() {
                put(&n, self.layers.get(&n).copied().unwrap_or(0.0), u);
            }
        } else {
            for &(n, u) in END_TO_END {
                let v = self.e2e.iter().find(|e| e.0 == n).map_or(0.0, |e| e.1);
                put(n, v, u);
            }
        }
        let mut v = Value::obj();
        v.set("correct", Value::Bool(self.correct()))
            .set("attempted", Value::Int(self.attempted as i64))
            .set("failed", Value::Int(self.failed as i64))
            .set("metrics", metrics);
        v
    }

    /// Names set with [`Outcome::layer`] that the per-layer list lacks.
    pub fn unknown_layers(&self) -> Vec<String> {
        let known = per_layer();
        self.layers
            .keys()
            .filter(|k| !known.iter().any(|(n, _)| n == *k))
            .cloned()
            .collect()
    }
}

/// Resident set now, in bytes (`/proc/self/statm`; 0 where absent).
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

/// Peak resident set of the process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host fingerprint: cores, CPU model, compiler and source revision.
pub fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut v = Value::obj();
    v.set("nproc", Value::Int(nproc as i64))
        .set("cpu", Value::Str(cpu))
        .set("rustc", Value::Str(env!("HOSTBENCH_RUSTC").to_string()))
        .set("git_rev", Value::Str(git_rev()));
    v
}

/// The checkout's commit from `git rev-parse HEAD`, run in the
/// checkout root without looking above it or reading any git config
/// outside it; "unavailable" outside a git checkout.
fn git_rev() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut git = std::process::Command::new("git");
    git.args(["rev-parse", "HEAD"])
        .current_dir(&root)
        .env("GIT_CONFIG_NOSYSTEM", "1")
        .env("GIT_CONFIG_GLOBAL", "/dev/null");
    if let Some(above) = root
        .canonicalize()
        .ok()
        .and_then(|r| r.parent().map(std::path::Path::to_path_buf))
    {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    git.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unavailable".to_string(), |r| r.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the
    /// metrics this program reports, with the same units, and its
    /// workloads.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = snap_telemetry::parse(&text).expect("BENCHMARK.json parses");
        let pairs = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::elements)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(pairs("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(pairs("per_layer"), layers);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::elements)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_carries_exactly_the_listed_metrics() {
        let mut out = Outcome::new("grid_sleepers");
        out.attempted = 1;
        out.e2e("run_s", 0.5, "s");
        out.layer("snap-asm.images", 4.0);
        for (traced, want) in [(false, END_TO_END.len()), (true, per_layer().len())] {
            let v = out.result(traced);
            let m = v.get("metrics").and_then(Value::fields).expect("metrics");
            assert_eq!(m.len(), want);
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        }
        assert!(out.unknown_layers().is_empty());
        out.layer("no-such.metric", 1.0);
        assert_eq!(out.unknown_layers(), ["no-such.metric"]);
    }
}
