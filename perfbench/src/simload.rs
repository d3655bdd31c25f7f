//! The two simulation workloads, `fig6-grid` and `short-distinct`.
//!
//! Both hand `SimSpec` batches to `experiment::run_specs` at the
//! requested job count with the disk store off. One operation is one
//! `run_specs` call: the whole 14-workload × 4-config grid for
//! fig6-grid, one trace's four-config report batch
//! (`report::specs_for_trace`) for short-distinct.

use crate::gate;
use crate::inputs::{self, DEFAULT_SEED};
use crate::layers::{self, LayerCounts};
use crate::spans::{now_ns, self_times, write_tsv, Open, Tracer};
use crate::stats::{median, percentile, samples_above};
use crate::{Opts, Outcome, Workload};
use replay_sim::experiment::{run_specs, SimSpec};
use replay_sim::{parallel, simulate, ConfigKind, SimConfig, SimResult};
use replay_store::Digest64;
use replay_trace::Trace;
use std::sync::Arc;
use std::time::Instant;

/// The generated inputs of one sim workload.
struct Batch {
    /// Every distinct trace, in generation order.
    traces: Vec<Arc<Trace>>,
    /// One `run_specs` call each.
    ops: Vec<Vec<SimSpec>>,
}

/// Synthesizes `(workload, segment)` traces on `jobs` threads, recording
/// one `trace.synth` span per segment.
fn synthesize(
    items: &[(replay_trace::Workload, usize, usize)],
    jobs: usize,
    tr: &mut Tracer,
    parent: Open,
) -> Vec<Arc<Trace>> {
    let timed = parallel::par_map(jobs, items, |(w, seg, scale)| {
        let t0 = now_ns();
        let t = w.segment_trace(*seg, *scale);
        (Arc::new(t), t0, now_ns())
    });
    timed
        .into_iter()
        .enumerate()
        .map(|(i, (t, t0, t1))| {
            tr.record("trace.synth", i as u64, Some(parent), t0, t1);
            t
        })
        .collect()
}

/// The configuration every batch simulates under: the experiment
/// drivers' standard one (verification off, generic core).
fn config(kind: ConfigKind) -> SimConfig {
    SimConfig::new(kind).without_verify()
}

impl Batch {
    fn build(opts: &Opts, tr: &mut Tracer, parent: Open) -> Batch {
        let dims = opts.size.dims();
        match opts.workload {
            Workload::Fig6Grid => {
                let grid = inputs::grid_workloads(opts.seed);
                let items: Vec<_> = grid
                    .iter()
                    .flat_map(|w| (0..w.segments).map(move |s| (w.clone(), s, dims.grid_scale)))
                    .collect();
                let traces = synthesize(&items, opts.jobs, tr, parent);
                let mut specs = Vec::new();
                let mut at = 0;
                for w in &grid {
                    let segs = &traces[at..at + w.segments];
                    at += w.segments;
                    for kind in ConfigKind::ALL {
                        specs.push(SimSpec {
                            name: w.name.clone(),
                            traces: segs.to_vec(),
                            cfg: config(kind),
                        });
                    }
                }
                Batch {
                    traces,
                    ops: vec![specs],
                }
            }
            _ => {
                let variants = inputs::distinct_variants(opts.seed, dims.variants);
                let items: Vec<_> = variants
                    .into_iter()
                    .map(|w| (w, 0, dims.variant_scale))
                    .collect();
                let traces = synthesize(&items, opts.jobs, tr, parent);
                let ops = traces
                    .iter()
                    .map(replay_sim::report::specs_for_trace)
                    .collect();
                Batch { traces, ops }
            }
        }
    }
}

/// Checks one operation's results against the invariants and, when
/// known, the reference digest; returns the op's digest.
fn check_op(
    out: &mut Outcome,
    specs: &[SimSpec],
    results: &[SimResult],
    reference: Option<u64>,
) -> u64 {
    out.attempted += specs.len() as u64;
    for (s, r) in specs.iter().zip(results) {
        let expected: u64 = s.traces.iter().map(|t| t.len() as u64).sum();
        if let Err(e) = gate::check_result(r, expected) {
            out.fail(e);
        }
    }
    let d = gate::digest(results);
    if let Some(want) = reference {
        if want != d {
            out.failed += specs.len() as u64;
            out.errors.push(format!(
                "{}: results changed between repetitions of one operation",
                specs[0].name
            ));
        }
    }
    d
}

/// Host-side facts of the timed phase.
struct Timed {
    /// Wall time of every operation.
    latencies_ms: Vec<f64>,
    /// Wall time of every complete pass over the operations.
    passes_s: Vec<f64>,
    /// Instructions retired in one pass (every configuration).
    pass_instructions: u64,
    /// Total measured time.
    seconds: f64,
}

impl Timed {
    /// The median pass time: rates derive from it rather than from the
    /// total, so a burst of load from elsewhere on the machine moves one
    /// pass, not the reported rate.
    fn median_pass_s(&self) -> f64 {
        median(&self.passes_s)
    }
}

/// Runs fig6-grid or short-distinct.
pub fn run(opts: &Opts) -> Outcome {
    let dims = opts.size.dims();
    let mut out = Outcome::default();
    // The specs carry their own traces, so only the frame bundles could
    // reach the disk store: keep it off.
    replay_store::Store::configure(None);
    let mut tr = Tracer::new(opts.trace);
    let root = tr.start("run", opts.seed, None);

    // Set-up, repeated; the last repetition's inputs are measured.
    let mut setup_s = Vec::new();
    let mut batch = None;
    for rep in 0..dims.setup_reps {
        drop(batch.take());
        let s = tr.start("setup", rep as u64, Some(root));
        let t0 = Instant::now();
        batch = Some(Batch::build(opts, &mut tr, s));
        setup_s.push(t0.elapsed().as_secs_f64());
        tr.end(s);
    }
    let batch = batch.expect("at least one set-up repetition");

    // Warm-up: one pass over every operation fixes the reference digests
    // and the run digest.
    let mut run_digest = Digest64::new();
    let mut reference = Vec::with_capacity(batch.ops.len());
    let warm = tr.start("warmup", 0, Some(root));
    for specs in &batch.ops {
        let results = run_specs(specs, opts.jobs);
        let d = check_op(&mut out, specs, &results, None);
        for r in &results {
            gate::fold_result(&mut run_digest, r);
        }
        reference.push(d);
    }
    tr.end(warm);
    out.digest = run_digest.finish();
    if opts.seed == DEFAULT_SEED && opts.size == inputs::Size::Full {
        let want = gate::recorded_digest(opts.workload.name());
        if let Err(e) = gate::check_digest(opts.workload.name(), out.digest, want) {
            // Every warm-up result may be the wrong one.
            out.failed += batch.ops.iter().map(|op| op.len() as u64).sum::<u64>();
            out.errors.push(e);
        }
    }

    // Timed phase: whole passes over the operations until the time is up.
    let measure = tr.start("measure", 0, Some(root));
    let mut timed = Timed {
        latencies_ms: Vec::new(),
        passes_s: Vec::new(),
        pass_instructions: 0,
        seconds: 0.0,
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds || timed.passes_s.is_empty() {
        let pass = Instant::now();
        timed.pass_instructions = 0;
        for (k, specs) in batch.ops.iter().enumerate() {
            let op = tr.start("sim.run_specs", k as u64, Some(measure));
            let t0 = Instant::now();
            let results = run_specs(specs, opts.jobs);
            timed.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            tr.end(op);
            timed.pass_instructions += results.iter().map(|r| r.x86_retired).sum::<u64>();
            check_op(&mut out, specs, &results, Some(reference[k]));
        }
        timed.passes_s.push(pass.elapsed().as_secs_f64());
    }
    timed.seconds = start.elapsed().as_secs_f64();
    tr.end(measure);

    let pass_s = timed.median_pass_s();
    let e2e = [
        ("setup_s", median(&setup_s)),
        (
            "sim_minst_per_s",
            timed.pass_instructions as f64 / pass_s / 1e6,
        ),
        ("req_p50_ms", median(&timed.latencies_ms)),
        ("req_p99_ms", percentile(&timed.latencies_ms, 0.99)),
        ("throughput_rps", batch.ops.len() as f64 / pass_s),
    ];
    let p = &mut out.provenance;
    p.insert("setup_reps", setup_s.len().to_string());
    p.insert("passes_timed", timed.passes_s.len().to_string());
    p.insert("latency_samples", timed.latencies_ms.len().to_string());
    p.insert(
        "req_p99_samples_above",
        samples_above(&timed.latencies_ms, 0.99).to_string(),
    );
    p.insert("measured_s", format!("{:?}", timed.seconds));
    p.insert("traces", batch.traces.len().to_string());

    if opts.trace {
        attribute(opts, &batch, &timed, &mut tr, root, &mut out);
        tr.end(root);
        finish_trace(opts, &tr, &mut out);
    }
    out.put_end_to_end(&e2e, opts.trace);
    out
}

/// Span names of the serial per-config `simulate()` calls.
fn sim_span(kind: ConfigKind) -> &'static str {
    match kind {
        ConfigKind::ICache => "sim.ic",
        ConfigKind::TraceCache => "sim.tc",
        ConfigKind::Replay => "sim.rp",
        ConfigKind::ReplayOpt => "sim.rpo",
    }
}

/// The traced run's attribution phase: serial `simulate()` per
/// `(trace, config)`, then the isolated layer passes over every trace.
fn attribute(
    opts: &Opts,
    batch: &Batch,
    timed: &Timed,
    tr: &mut Tracer,
    root: Open,
    out: &mut Outcome,
) {
    let attr = tr.start("attribution", 0, Some(root));
    let mut specialized = 0u64;
    let mut fetched = 0u64;
    for (ti, trace) in batch.traces.iter().enumerate() {
        for (ci, kind) in ConfigKind::ALL.into_iter().enumerate() {
            let id = (ti * ConfigKind::ALL.len() + ci) as u64;
            let r = tr.time(sim_span(kind), id, Some(attr), || {
                simulate(trace, &config(kind))
            });
            if let Err(e) = gate::check_result(&r, trace.len() as u64) {
                out.fail(e);
            }
            if kind.uses_frames() {
                specialized += r.profile.counter("sim.exec.specialized_hits");
                fetched += r.pipeline.frames_fetched;
            }
        }
    }
    let mut counts = LayerCounts::default();
    for (ti, trace) in batch.traces.iter().enumerate() {
        layers::isolate(trace, ti as u64, tr, attr, &mut counts);
    }
    tr.end(attr);
    if counts.verify_failed > 0 {
        out.fail(format!(
            "{} isolated verifier checks failed",
            counts.verify_failed
        ));
    }
    if counts.plan_disagreements > 0 {
        out.fail(format!(
            "{} plan probes completed where the interpreter did not",
            counts.plan_disagreements
        ));
    }

    let t = self_times(tr.spans());
    let get = |name: &str| t.get(name).copied().unwrap_or(0.0);
    let (ic, rp, rpo) = (get("sim.ic"), get("sim.rp"), get("sim.rpo"));
    let inject = get("x86.inject");
    let construct = get("frame.construct");
    // IC is injection plus the timing model, so IC minus injection stands
    // in for the timing layer. RP and RPO each inject, time, construct
    // and probe; RPO also optimizes.
    let timing = (ic - inject).max(0.0);
    let covered =
        2.0 * (inject + timing + construct + counts.sim_like_probe_s) + get("core.optimize");
    let serial: f64 = ["sim.ic", "sim.tc", "sim.rp", "sim.rpo"]
        .iter()
        .map(|n| get(n))
        .sum();
    let pass_wall = timed.median_pass_s();
    let m = &mut out.metrics;
    m.insert(
        "trace.synth_s",
        get("trace.synth") / opts.size.dims().setup_reps as f64,
    );
    m.insert("trace.records", counts.records as f64);
    m.insert("x86.inject_s", inject);
    m.insert(
        "x86.uops_per_inst",
        counts.uops as f64 / counts.records.max(1) as f64,
    );
    m.insert("frame.construct_s", construct);
    m.insert("frame.constructed", counts.constructed as f64);
    m.insert(
        "frame.distinct_frac",
        counts.distinct as f64 / counts.constructed.max(1) as f64,
    );
    m.insert("core.optimize_s", get("core.optimize"));
    m.insert("core.optimize_calls", counts.optimize_calls as f64);
    m.insert("core.probe_s", get("core.probe"));
    m.insert("core.plan_probe_s", get("core.plan_probe"));
    m.insert("core.plan_compile_s", get("core.plan_compile"));
    m.insert(
        "core.specialized_frac",
        specialized as f64 / fetched.max(1) as f64,
    );
    m.insert("verify.check_s", get("verify.check"));
    m.insert("sim.ic_s", ic);
    m.insert("sim.tc_s", get("sim.tc"));
    m.insert("sim.rp_s", rp);
    m.insert("sim.rpo_s", rpo);
    m.insert("sim.residual_frac", 1.0 - covered / (rp + rpo));
    m.insert(
        "sim.par_efficiency",
        serial / (opts.jobs as f64 * pass_wall),
    );
    let p = &mut out.provenance;
    p.insert("probes", counts.probes.to_string());
    p.insert("plan_probes", counts.plan_probes.to_string());
    p.insert("plans_declined", counts.plans_declined.to_string());
    p.insert("sim_like_probe_s", format!("{:?}", counts.sim_like_probe_s));
    p.insert("timing_estimate_s", format!("{timing:?}"));
}

/// Counts the spans and writes them out.
pub fn finish_trace(opts: &Opts, tr: &Tracer, out: &mut Outcome) {
    out.metrics.insert("trace.spans", tr.spans().len() as f64);
    let path = opts
        .out_dir
        .join(format!("spans-{}-{}.tsv", opts.workload.name(), opts.seed));
    match write_tsv(&path, tr.spans()) {
        Ok(()) => {
            out.provenance
                .insert("spans_file", crate::json_str(&path.display().to_string()));
        }
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
