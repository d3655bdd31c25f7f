//! Isolated layer passes for the traced run.
//!
//! `simulate()` is one call, so its layers cannot be timed from inside
//! without touching the program. Instead the traced run replays each
//! trace through the layers' own public calls, in the order the runner
//! uses them, with a span around each:
//!
//! 1. `x86.inject` — `Injector::flow` + `apply_with_flow` per record
//!    (one span per block of records);
//! 2. `frame.construct` — `FrameConstructor::retire` per record (one span
//!    per block);
//! 3. `core.optimize` — `optimize` per constructed frame, with
//!    `AliasProfile::empty()` (the simulator passes its learned profile);
//!    `core.plan_compile` — `ExecPlan::compile` per optimized frame;
//! 4. a replay that offers each record's address to the frames built so
//!    far, as the frame cache does, and at each hit runs `probe_frame`
//!    (`core.probe`) and `ExecPlan::probe` (`core.plan_probe`) on the same
//!    frame and machine state; each newly available frame is checked
//!    with `Verifier::check` against its raw form (`verify.check`).

use crate::spans::{now_ns, Open, Tracer};
use replay_core::{
    optimize, probe_frame, AliasProfile, ExecPlan, ExecScratch, OptConfig, OptFrame, PlanScratch,
    ProbeOutcome,
};
use replay_frame::{ConstructorConfig, FrameConstructor, RetireEvent};
use replay_sim::Injector;
use replay_store::Digest64;
use replay_trace::Trace;
use replay_uop::Uop;
use replay_verify::Verifier;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Records per `x86.inject` / `frame.construct` span.
const BLOCK: usize = 1024;

/// Frame-cache hits after which the simulator runs a frame's plan instead
/// of the interpreter (`HotpathConfig::default().spec_threshold`).
const SPEC_THRESHOLD: u32 = 8;

/// Counts accumulated over every isolated trace.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    /// Records injected.
    pub records: u64,
    /// Uops the injector produced.
    pub uops: u64,
    /// Frames constructed.
    pub constructed: u64,
    /// Distinct frame shapes (entry address + covered path) per trace.
    pub distinct: u64,
    /// `optimize` calls.
    pub optimize_calls: u64,
    /// Frames whose plan compilation was declined.
    pub plans_declined: u64,
    /// Frame-cache hit opportunities probed.
    pub probes: u64,
    /// Of those, probes also run through a compiled plan.
    pub plan_probes: u64,
    /// Host time the simulator's probe choice would spend: the
    /// interpreter below the specialization threshold, the plan (plus the
    /// interpreter on fallback) above it, in seconds.
    pub sim_like_probe_s: f64,
    /// Verifier checks that failed.
    pub verify_failed: u64,
    /// Plan probes that completed where the interpreter did not.
    pub plan_disagreements: u64,
}

/// The frame shape: entry address and covered instruction path.
fn shape(addrs: &[u32]) -> u64 {
    let mut d = Digest64::new();
    for &a in addrs {
        d.write_u32(a);
    }
    d.finish()
}

/// Runs the isolated passes over one trace, adding spans under `parent`
/// (correlation id `id`) and counts into `counts`.
pub fn isolate(trace: &Trace, id: u64, tr: &mut Tracer, parent: Open, counts: &mut LayerCounts) {
    let records = trace.records();
    let opt_cfg = OptConfig::default();
    let layers = tr.start("layers", id, Some(parent));

    // 1. Injection: decode flows and apply every record to the golden state.
    let mut injector = Injector::new();
    let mut flows: Vec<Rc<Vec<Uop>>> = Vec::with_capacity(records.len());
    let s = tr.start("x86.inject", id, Some(layers));
    injector.preseed(trace);
    tr.end(s);
    for block in records.chunks(BLOCK) {
        let s = tr.start("x86.inject", id, Some(layers));
        for r in block {
            let flow = injector.flow(r);
            injector.apply_with_flow(r, &flow);
            flows.push(flow);
        }
        tr.end(s);
    }
    counts.records += records.len() as u64;
    counts.uops += injector.uops_seen();

    // 2. Frame construction over the retired stream.
    let mut constructor = FrameConstructor::new(ConstructorConfig::default());
    let mut built = Vec::new();
    for (b, block) in records.chunks(BLOCK).enumerate() {
        let s = tr.start("frame.construct", id, Some(layers));
        for (k, r) in block.iter().enumerate() {
            let i = b * BLOCK + k;
            let ev = RetireEvent {
                addr: r.addr,
                uops: &flows[i],
                next_pc: r.next_pc,
                fallthrough: r.fallthrough(),
            };
            if let Some(frame) = constructor.retire(&ev) {
                built.push((i, frame));
            }
        }
        tr.end(s);
    }
    drop(flows);
    counts.constructed += built.len() as u64;
    let shapes: HashSet<u64> = built.iter().map(|(_, f)| shape(&f.x86_addrs)).collect();
    counts.distinct += shapes.len() as u64;

    // 3. Optimization and plan compilation per constructed frame.
    let empty = AliasProfile::empty();
    let mut opt: Vec<OptFrame> = Vec::with_capacity(built.len());
    for (_, frame) in &built {
        let (o, _) = tr.time("core.optimize", id, Some(layers), || {
            optimize(frame, &empty, &opt_cfg)
        });
        opt.push(o);
    }
    counts.optimize_calls += built.len() as u64;
    let plans: Vec<Option<ExecPlan>> = opt
        .iter()
        .map(|o| {
            tr.time("core.plan_compile", id, Some(layers), || {
                ExecPlan::compile(o)
            })
        })
        .collect();
    counts.plans_declined += plans.iter().filter(|p| p.is_none()).count() as u64;

    // 4. Replay: verify each frame as it becomes available, probe at every
    //    frame-cache hit opportunity.
    let mut golden = Injector::new();
    golden.preseed(trace);
    let mut verifier = Verifier::new();
    let mut scratch = ExecScratch::new();
    let mut plan_scratch = PlanScratch::new();
    let mut cache: HashMap<u32, usize> = HashMap::new();
    let mut hits = vec![0u32; built.len()];
    let mut next = 0usize;
    let mut i = 0usize;
    while i < records.len() {
        while next < built.len() && built[next].0 < i {
            let mut raw = OptFrame::from_frame(&built[next].1);
            raw.compact();
            let ok = tr.time("verify.check", id, Some(layers), || {
                verifier.check(&raw, &opt[next], golden.golden())
            });
            counts.verify_failed += u64::from(!ok);
            cache.insert(opt[next].start_addr, next);
            next += 1;
        }
        let r = &records[i];
        if let Some(&f) = cache.get(&r.addr) {
            let frame = &opt[f];
            let state = golden.golden();
            // Alternate which probe runs first so neither always finds the
            // frame and state already in cache.
            let plan_first = counts.probes % 2 == 1;
            let mut planned = None;
            let mut run_plan = |tr: &mut Tracer| {
                plans[f].as_ref().map(|plan| {
                    let t = now_ns();
                    let o = plan.probe(state, &mut plan_scratch);
                    let end = now_ns();
                    tr.record("core.plan_probe", id, Some(layers), t, end);
                    (o, end - t)
                })
            };
            if plan_first {
                planned = run_plan(tr);
            }
            let t0 = now_ns();
            let interp = probe_frame(frame, state, &mut scratch);
            let t1 = now_ns();
            tr.record("core.probe", id, Some(layers), t0, t1);
            if !plan_first {
                planned = run_plan(tr);
            }
            counts.probes += 1;
            hits[f] += 1;
            let mut sim_like = t1 - t0;
            if let Some((outcome, plan_ns)) = planned {
                counts.plan_probes += 1;
                if outcome == ProbeOutcome::Completed && interp != ProbeOutcome::Completed {
                    counts.plan_disagreements += 1;
                }
                if hits[f] >= SPEC_THRESHOLD {
                    sim_like = if outcome == ProbeOutcome::Completed {
                        plan_ns
                    } else {
                        plan_ns + (t1 - t0)
                    };
                }
            }
            counts.sim_like_probe_s += sim_like as f64 * 1e-9;
            let n = frame.x86_count();
            let on_path = records.len() - i >= n
                && records[i..i + n]
                    .iter()
                    .zip(&frame.x86_addrs)
                    .all(|(rec, &a)| rec.addr == a);
            if interp == ProbeOutcome::Completed && on_path {
                for rec in &records[i..i + n] {
                    golden.apply(rec);
                }
                i += n;
                continue;
            }
            if interp != ProbeOutcome::Completed {
                cache.remove(&r.addr);
            }
        }
        golden.apply(r);
        i += 1;
    }
    tr.end(layers);
}
