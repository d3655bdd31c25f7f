//! # perfbench
//!
//! The repository's one benchmark: a seeded workload drives the replay
//! crates through their public functions, the outputs are checked, and
//! every end-to-end metric is printed by name with its unit. With
//! `--trace 1` the same workload runs again with spans recorded around
//! each layer's public calls, and the per-layer metrics are derived from
//! those spans. See `README.md` in this directory for the workloads, the
//! metric → layer → workload map and the measured steadiness.

pub mod gate;
pub mod inputs;
pub mod layers;
pub mod serveload;
pub mod simload;
pub mod spans;
pub mod stats;

use inputs::Size;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Environment variables that would silently change which layers run:
/// the process-wide store and worker count resolve from them once.
pub const REFUSED_ENV: [&str; 3] = ["REPLAY_NO_STORE", "REPLAY_CACHE_DIR", "REPLAY_JOBS"];

/// End-to-end metrics, emitted on every workload with tracing off:
/// `(name, unit)`. Must match `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, emitted on every workload by the traced run
/// (zero where a workload does not exercise the layer): `(name, unit)`.
/// Must match `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("trace.synth_s", "s"),
    ("trace.codec_s", "s"),
    ("trace.records", "count"),
    ("x86.inject_s", "s"),
    ("x86.uops_per_inst", "ratio"),
    ("frame.construct_s", "s"),
    ("frame.constructed", "count"),
    ("frame.distinct_frac", "ratio"),
    ("core.optimize_s", "s"),
    ("core.optimize_calls", "count"),
    ("core.probe_s", "s"),
    ("core.plan_probe_s", "s"),
    ("core.plan_compile_s", "s"),
    ("core.specialized_frac", "ratio"),
    ("verify.check_s", "s"),
    ("sim.ic_s", "s"),
    ("sim.tc_s", "s"),
    ("sim.rp_s", "s"),
    ("sim.rpo_s", "s"),
    ("sim.residual_frac", "ratio"),
    ("sim.par_efficiency", "ratio"),
    ("tracestore.hits", "count"),
    ("tracestore.generations", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("store.bytes_read", "bytes"),
    ("store.bytes_written", "bytes"),
    ("store.corrupt_evictions", "count"),
    ("store.load_s", "s"),
    ("store.save_s", "s"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.server_mean_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.proto_s", "s"),
    ("serve.batch_size_mean", "count"),
    ("serve.requests.deduped", "count"),
    ("serve.inline_trace.hits", "count"),
    ("serve.shed.work", "count"),
    ("serve.responses.write_failed", "count"),
    ("serve.poll.wakeups", "count"),
    ("trace.spans", "count"),
    ("traced.setup_s", "s"),
    ("traced.sim_minst_per_s", "Minst/s"),
    ("traced.req_p50_ms", "ms"),
    ("traced.throughput_rps", "req/s"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 14 Table 1 workloads × {IC, TC, RP, RPO}, long traces.
    Fig6Grid,
    /// Hundreds of fresh short traces through the four-config report.
    ShortDistinct,
    /// An in-process server under two closed-loop clients.
    ServeMixed,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig6Grid,
        Workload::ShortDistinct,
        Workload::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Grid => "fig6-grid",
            Workload::ShortDistinct => "short-distinct",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Simulation worker threads, and serve-mixed clients (`nproc`).
    pub jobs: usize,
    /// Where spans and the serve-mixed store directory go.
    pub out_dir: PathBuf,
}

/// Sample counts and other facts behind one run's numbers.
pub type Provenance = BTreeMap<&'static str, String>;

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (one simulation, or one request).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Gate failures, in the order found (the first few are printed).
    pub errors: Vec<String>,
    /// Metric values by name (end-to-end, or per-layer when traced).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts reported beside the metrics.
    pub provenance: Provenance,
    /// Simulated-statistics digest (sim workloads) or request-sequence
    /// digest (serve-mixed).
    pub digest: u64,
}

impl Outcome {
    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `declared` with its unit.
    pub fn result_json(&self, declared: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Stores the end-to-end values: as themselves with tracing off, and
    /// under their `traced.` names (for the tracing-overhead comparison)
    /// with tracing on, where only per-layer metrics are reported.
    pub fn put_end_to_end(&mut self, e2e: &[(&'static str, f64)], traced: bool) {
        for &(name, v) in e2e {
            if !traced {
                self.metrics.insert(name, v);
            } else if let Some(&(t, _)) = PER_LAYER
                .iter()
                .find(|(t, _)| t.strip_prefix("traced.") == Some(name))
            {
                self.metrics.insert(t, v);
            }
        }
        if !traced {
            self.metrics.insert("peak_rss_mb", stats::peak_rss_mb());
        }
    }

    /// The provenance line: a JSON object of every recorded fact.
    pub fn provenance_json(&self) -> String {
        let fields: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Quotes a string as a JSON value.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Runs one workload and returns what it measured.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = match opts.workload {
        Workload::Fig6Grid | Workload::ShortDistinct => simload::run(opts),
        Workload::ServeMixed => serveload::run(opts),
    };
    let p = &mut out.provenance;
    p.insert("workload", json_str(opts.workload.name()));
    p.insert("seed", opts.seed.to_string());
    p.insert("trace", opts.trace.to_string());
    p.insert("nproc", replay_sim::parallel::available_jobs().to_string());
    p.insert("jobs", opts.jobs.to_string());
    p.insert(
        "degraded",
        replay_sim::parallel::degraded(opts.jobs).to_string(),
    );
    p.insert(
        "git_revision",
        json_str(&stats::git_revision(std::path::Path::new("."))),
    );
    p.insert("digest", json_str(&format!("{:#018x}", out.digest)));
    p.insert(
        "failed_frac",
        format!("{:?}", out.failed as f64 / out.attempted.max(1) as f64),
    );
    out
}
