//! The `serve-mixed` workload: an in-process `Server` with
//! `ServerConfig::default()` (event-loop front) and a disk store in a
//! fresh, empty directory, driven closed-loop by one client per worker,
//! each sending its next request only after the previous reply arrived.

use crate::gate;
use crate::inputs::{self, Ask, RequestMix};
use crate::simload::finish_trace;
use crate::spans::{now_ns, self_times, Open, Tracer};
use crate::stats::{median, percentile, samples_above};
use crate::{Opts, Outcome};
use replay_obs::{Metric, Profile};
use replay_serve::proto::{read_frame, write_frame};
use replay_serve::{Request, Response, Server, ServerConfig, Source, Status};
use replay_sim::experiment::run_specs;
use replay_sim::report::{render_report, specs_for_trace};
use replay_sim::{parallel, CoreModel, TraceStore};
use replay_store::{digest_bytes, Digest64, Store};
use replay_trace::{read_trace, workloads, write_trace, Trace};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The inline payloads of one request mix.
struct Payloads {
    /// Trace-file bytes per inline request variant.
    bytes: Vec<Vec<u8>>,
    /// Records across every inline trace.
    records: u64,
}

/// Synthesizes and encodes every inline trace (`trace.synth` and
/// `trace.write` spans).
fn build_payloads(
    mix: &RequestMix,
    scale: usize,
    jobs: usize,
    tr: &mut Tracer,
    parent: Open,
) -> Payloads {
    let timed = parallel::par_map(jobs, &mix.inline, |w| {
        let t0 = now_ns();
        let trace = w.segment_trace(0, scale);
        let t1 = now_ns();
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &trace).expect("a generated trace always encodes");
        (trace.len() as u64, bytes, t0, t1, now_ns())
    });
    let mut records = 0;
    let bytes = timed
        .into_iter()
        .enumerate()
        .map(|(i, (len, bytes, t0, t1, t2))| {
            tr.record("trace.synth", i as u64, Some(parent), t0, t1);
            tr.record("trace.write", i as u64, Some(parent), t1, t2);
            records += len;
            bytes
        })
        .collect();
    Payloads { bytes, records }
}

/// A running server and how to stop it.
struct Running {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<replay_serve::ServeStats>,
}

impl Running {
    fn start(jobs: usize) -> std::io::Result<Running> {
        let cfg = ServerConfig {
            jobs,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", cfg)?;
        let addr = server.local_addr()?;
        let stop = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run());
        Ok(Running { addr, stop, handle })
    }

    /// Drains and returns the serve-side profile.
    fn stop(self) -> Profile {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("server thread panicked").profile
    }
}

/// What one client saw for one request.
struct Sample {
    index: usize,
    latency_ms: f64,
    /// When the reply arrived, in seconds since the timed phase began.
    done_s: f64,
    /// Digest of the store-stripped Ok body, or why there was none.
    body: Result<u64, String>,
}

/// One wire round trip on a fresh connection, as `replay submit` makes.
fn roundtrip(addr: SocketAddr, payload: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(Duration::from_secs(60)))?;
    write_frame(&mut conn, payload)?;
    read_frame(&mut conn)
}

/// The request for one ask.
fn request(ask: &Ask, payloads: &Payloads, scale: usize) -> Request {
    let source = match ask {
        Ask::Hot(name) => Source::Workload(name.clone()),
        Ask::Inline(k) => Source::TraceBytes(payloads.bytes[*k].clone()),
    };
    Request {
        source,
        scale: scale as u64,
        timings: false,
        deadline_ms: 0,
        relayed: false,
    }
}

/// What the closed-loop clients share.
struct Load<'a> {
    addr: SocketAddr,
    mix: &'a RequestMix,
    payloads: &'a Payloads,
    scale: usize,
    /// The next unsent index into the request sequence.
    next: AtomicUsize,
    start: Instant,
    until: Instant,
    trace: bool,
}

/// A closed-loop client: claims the next request index, sends it, waits
/// for the reply, repeats until the sequence or the time runs out.
fn client(load: &Load) -> (Vec<Sample>, Tracer) {
    let mut tr = Tracer::new(load.trace);
    let mut samples = Vec::new();
    let addr = load.addr;
    while Instant::now() < load.until {
        let index = load.next.fetch_add(1, Ordering::Relaxed);
        let Some(ask) = load.mix.asks.get(index) else {
            break;
        };
        let req = request(ask, load.payloads, load.scale);
        let id = index as u64;
        let span = tr.start("serve.request", id, None);
        let t0 = Instant::now();
        let payload = tr.time("serve.encode", id, Some(span), || req.encode());
        let reply = tr.time("serve.roundtrip", id, Some(span), || {
            roundtrip(addr, &payload)
        });
        let resp = match reply {
            Ok(frame) => tr
                .time("serve.decode", id, Some(span), || Response::decode(&frame))
                .map_err(|e| format!("undecodable response: {e}")),
            Err(e) => Err(format!("round trip: {e}")),
        };
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.end(span);
        let body = resp.and_then(|r| {
            if r.status != Status::Ok {
                return Err(format!("status {:?}: {}", r.status, r.message));
            }
            let body = String::from_utf8(r.body).map_err(|e| format!("body not UTF-8: {e}"))?;
            Ok(gate::report_digest(&body))
        });
        samples.push(Sample {
            index,
            latency_ms,
            done_s: load.start.elapsed().as_secs_f64(),
            body,
        });
    }
    (samples, tr)
}

/// The local reference for one distinct ask.
struct Local {
    /// Digest of the store-stripped locally rendered report.
    digest: u64,
    /// Instructions retired over the four configurations.
    retired: u64,
    /// Host time of the local four-config simulation, in ms.
    sim_ms: f64,
}

/// Renders the report for `ask` locally (outside the timed phase).
fn local_report(
    ask: &Ask,
    payloads: &Payloads,
    scale: usize,
    jobs: usize,
    tr: &mut Tracer,
    parent: Open,
    id: u64,
) -> Result<Local, String> {
    let trace: Trace = match ask {
        Ask::Hot(name) => workloads::by_name(name)
            .ok_or_else(|| format!("unknown workload {name}"))?
            .segment_trace(0, scale),
        Ask::Inline(k) => tr
            .time("trace.read", id, Some(parent), || {
                read_trace(&payloads.bytes[*k][..])
            })
            .map_err(|e| format!("inline payload {k} does not decode: {e}"))?,
    };
    let trace = Arc::new(trace);
    let specs = specs_for_trace(&trace);
    let t0 = Instant::now();
    let results = tr.time("sim.local_report", id, Some(parent), || {
        run_specs(&specs, jobs)
    });
    let sim_ms = t0.elapsed().as_secs_f64() * 1e3;
    let json = render_report(
        &trace.name,
        trace.len(),
        CoreModel::Generic,
        &results,
        false,
    );
    Ok(Local {
        digest: gate::report_digest(&json),
        retired: results.iter().map(|r| r.x86_retired).sum(),
        sim_ms,
    })
}

/// Digest of the request sequence: every ask and every inline payload.
fn sequence_digest(mix: &RequestMix, payloads: &Payloads) -> u64 {
    let mut d = Digest64::new();
    for ask in &mix.asks {
        match ask {
            Ask::Hot(name) => d.write_str(name),
            Ask::Inline(k) => d.write_u64(digest_bytes(&payloads.bytes[*k])),
        }
    }
    d.finish()
}

/// Nearest-rank percentile of a log2-bucketed histogram, reported as the
/// containing bucket's exclusive upper edge.
fn hist_percentile(profile: &Profile, name: &str, q: f64) -> f64 {
    let Some(Metric::Hist(h)) = profile.get(name) else {
        return 0.0;
    };
    let rank = ((q * h.count() as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (low, n) in h.nonzero_buckets() {
        seen += n;
        if seen >= rank {
            return if low == 0 { 1.0 } else { (2 * low) as f64 };
        }
    }
    0.0
}

/// Mean of a histogram's samples (exact sum over count).
fn hist_mean(profile: &Profile, name: &str) -> f64 {
    match profile.get(name) {
        Some(Metric::Hist(h)) if h.count() > 0 => h.sum() as f64 / h.count() as f64,
        _ => 0.0,
    }
}

/// Every artifact file in the store as `(class, key)`.
fn artifacts(dir: &Path) -> Vec<(String, u64)> {
    let mut found: Vec<(String, u64)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let stem = name.strip_suffix(".rpa")?;
            let (class, key) = stem.rsplit_once('-')?;
            Some((class.to_string(), u64::from_str_radix(key, 16).ok()?))
        })
        .collect();
    found.sort();
    found
}

/// Times `Store::load` of every artifact the run produced and
/// `Store::save` of the same payloads into a scratch store.
fn replay_store_io(store: &Store, scratch: &Path, tr: &mut Tracer, parent: Open) {
    let Ok(copy) = Store::open(scratch) else {
        return;
    };
    for (i, (class, key)) in artifacts(store.root()).into_iter().enumerate() {
        let payload = tr.time("store.load", i as u64, Some(parent), || {
            store.load(&class, key)
        });
        if let Some(payload) = payload {
            tr.time("store.save", i as u64, Some(parent), || {
                copy.save(&class, key, &payload)
            });
        }
    }
}

/// Deletes a store directory. Unlinking fsync'd files is slow on
/// file systems mounted with online discard, so the files are removed by
/// several threads.
fn remove_store(dir: &Path) {
    let files: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .collect();
    parallel::par_map(8, &files, |f| std::fs::remove_file(f));
    let _ = std::fs::remove_dir_all(dir);
}

/// Rates over consecutive blocks of completions (`(time, instructions)`
/// in completion order): `(requests/s, Minst/s)` per block. Rates are
/// reported as block medians, so a burst of load from elsewhere on the
/// machine moves one block, not the reported rate. Only correct requests
/// carry instructions.
fn block_rates(done: &[(f64, u64)]) -> Vec<(f64, f64)> {
    let k = (done.len() / 20).clamp(1, 100);
    let mut since = 0.0;
    done.chunks_exact(k)
        .map(|block| {
            let end = block[k - 1].0;
            let span = (end - since).max(1e-9);
            since = end;
            let retired: u64 = block.iter().map(|d| d.1).sum();
            (k as f64 / span, retired as f64 / span / 1e6)
        })
        .collect()
}

/// Runs serve-mixed.
pub fn run(opts: &Opts) -> Outcome {
    let dims = opts.size.dims();
    let scale = dims.request_scale;
    let mut out = Outcome::default();
    let mut tr = Tracer::new(opts.trace);
    let root = tr.start("run", opts.seed, None);

    let store_dir = opts.out_dir.join(format!("store-{}", std::process::id()));
    let save_dir: PathBuf = opts
        .out_dir
        .join(format!("store-{}-save", std::process::id()));
    remove_store(&store_dir);
    remove_store(&save_dir);
    if !Store::configure(Some(store_dir.clone())) {
        out.fail(
            "the process-wide store was already resolved; serve-mixed needs a fresh one".into(),
        );
        return out;
    }
    let Some(store) = Store::global() else {
        out.fail(format!("cannot open a store in {}", store_dir.display()));
        return out;
    };

    // Set-up, repeated: payload generation and server start.
    let mix = inputs::request_mix(opts.seed, &dims);
    let mut setup_s = Vec::new();
    let mut ready = None;
    for rep in 0..dims.setup_reps {
        if let Some((_, server)) = ready.take() {
            let _: Profile = Running::stop(server);
        }
        let s = tr.start("setup", rep as u64, Some(root));
        let t0 = Instant::now();
        let payloads = build_payloads(&mix, scale, opts.jobs, &mut tr, s);
        let server = match Running::start(opts.jobs) {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("cannot start the server: {e}"));
                return out;
            }
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        tr.end(s);
        ready = Some((payloads, server));
    }
    let (payloads, server) = ready.expect("at least one set-up repetition");
    out.digest = sequence_digest(&mix, &payloads);

    // Timed phase: closed-loop clients until the time or the sequence ends.
    let measure = tr.start("measure", 0, Some(root));
    let clients = opts.jobs;
    let start = Instant::now();
    let load = Load {
        addr: server.addr,
        mix: &mix,
        payloads: &payloads,
        scale,
        next: AtomicUsize::new(0),
        start,
        until: start + Duration::from_secs_f64(opts.seconds),
        trace: opts.trace,
    };
    let per_client: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|_| s.spawn(|| client(&load))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    tr.end(measure);
    let mut samples = Vec::new();
    for (s, t) in per_client {
        samples.extend(s);
        tr.absorb(t, Some(measure));
    }
    samples.sort_by_key(|s| s.index);
    let profile = server.stop();
    let store_counts = [
        ("store.hits", store.hits()),
        ("store.misses", store.misses()),
        ("store.writes", store.writes()),
        ("store.bytes_read", store.bytes_read()),
        ("store.bytes_written", store.bytes_written()),
        ("store.corrupt_evictions", store.corrupt_evictions()),
    ];
    let ts = TraceStore::global();
    let (ts_hits, ts_generations) = (ts.requests() - ts.generations(), ts.generations());

    // Gate: every Ok body against a locally rendered report.
    let check = tr.start("verification", 0, Some(root));
    let mut locals: BTreeMap<usize, Result<Local, String>> = BTreeMap::new();
    let mut first_of: BTreeMap<&Ask, usize> = BTreeMap::new();
    for s in &samples {
        let ask = &mix.asks[s.index];
        let key = *first_of.entry(ask).or_insert(s.index);
        locals.entry(key).or_insert_with(|| {
            local_report(ask, &payloads, scale, opts.jobs, &mut tr, check, key as u64)
        });
    }
    tr.end(check);
    let mut latencies = Vec::with_capacity(samples.len());
    let mut local_sim_ms = Vec::new();
    // (completion time, instructions retired if correct) in completion order.
    let mut done = Vec::with_capacity(samples.len());
    for s in &samples {
        out.attempted += 1;
        latencies.push(s.latency_ms);
        let mut retired = 0;
        match (&s.body, &locals[&first_of[&mix.asks[s.index]]]) {
            (Ok(got), Ok(want)) if *got == want.digest => {
                local_sim_ms.push(want.sim_ms);
                retired = want.retired;
            }
            (Ok(_), Ok(_)) => out.fail(format!(
                "request {}: served body differs from the local report",
                s.index
            )),
            (Err(e), _) | (_, Err(e)) => out.fail(format!("request {}: {e}", s.index)),
        }
        done.push((s.done_s, retired));
    }
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let blocks = block_rates(&done);
    let write_failed = profile.counter("serve.responses.write_failed");
    if write_failed > 0 {
        out.errors.push(format!(
            "{write_failed} responses could not be written back"
        ));
    }

    let block_rps: Vec<f64> = blocks.iter().map(|b| b.0).collect();
    let block_minst: Vec<f64> = blocks.iter().map(|b| b.1).collect();
    let e2e = [
        ("setup_s", median(&setup_s)),
        ("sim_minst_per_s", median(&block_minst)),
        ("req_p50_ms", median(&latencies)),
        ("req_p99_ms", percentile(&latencies, 0.99)),
        ("throughput_rps", median(&block_rps)),
    ];
    let p = &mut out.provenance;
    p.insert("setup_reps", setup_s.len().to_string());
    p.insert("clients", clients.to_string());
    p.insert("requests_sent", samples.len().to_string());
    p.insert("requests_in_sequence", mix.asks.len().to_string());
    p.insert("latency_samples", latencies.len().to_string());
    p.insert(
        "req_p99_samples_above",
        samples_above(&latencies, 0.99).to_string(),
    );
    p.insert("measured_s", format!("{wall:?}"));
    p.insert("rate_blocks", blocks.len().to_string());
    p.insert(
        "server_latency_samples",
        match profile.get("serve.latency_ms") {
            Some(Metric::Hist(h)) => h.count().to_string(),
            _ => "0".to_string(),
        },
    );

    if opts.trace {
        replay_store_io(store, &save_dir, &mut tr, root);
        tr.end(root);
        let t = self_times(tr.spans());
        let get = |name: &str| t.get(name).copied().unwrap_or(0.0);
        let reps = setup_s.len() as f64;
        let server_mean = hist_mean(&profile, "serve.latency_ms");
        let mean_local = local_sim_ms.iter().sum::<f64>() / local_sim_ms.len().max(1) as f64;
        let m = &mut out.metrics;
        m.insert("trace.synth_s", get("trace.synth") / reps);
        m.insert(
            "trace.codec_s",
            get("trace.write") / reps + get("trace.read"),
        );
        m.insert("trace.records", payloads.records as f64);
        for (name, v) in store_counts {
            m.insert(name, v as f64);
        }
        m.insert("store.load_s", get("store.load"));
        m.insert("store.save_s", get("store.save"));
        m.insert("tracestore.hits", ts_hits as f64);
        m.insert("tracestore.generations", ts_generations as f64);
        m.insert(
            "serve.server_p50_ms",
            hist_percentile(&profile, "serve.latency_ms", 0.5),
        );
        m.insert(
            "serve.server_p99_ms",
            hist_percentile(&profile, "serve.latency_ms", 0.99),
        );
        m.insert("serve.server_mean_ms", server_mean);
        m.insert("serve.wait_ms", server_mean - mean_local);
        m.insert("serve.proto_s", get("serve.encode") + get("serve.decode"));
        m.insert(
            "serve.batch_size_mean",
            hist_mean(&profile, "serve.batch_size"),
        );
        for name in [
            "serve.requests.deduped",
            "serve.inline_trace.hits",
            "serve.shed.work",
            "serve.responses.write_failed",
            "serve.poll.wakeups",
        ] {
            m.insert(name, profile.counter(name) as f64);
        }
        finish_trace(opts, &tr, &mut out);
    }
    out.put_end_to_end(&e2e, opts.trace);
    remove_store(&store_dir);
    remove_store(&save_dir);
    out
}
