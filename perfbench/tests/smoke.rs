//! The benchmark's own tests: tiny-size runs of every workload through
//! the real command line, the correctness gate on planted faults, and
//! determinism of digests and request sequences.

use perfbench::gate;
use perfbench::inputs::{request_mix, Size};
use perfbench::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Arc;

/// A minimal JSON value, enough to read `BENCHMARK.json` and result lines.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> Json {
        ws(b, i);
        match b[*i] {
            b'{' => {
                *i += 1;
                let mut fields = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return Json::Obj(fields);
                    }
                    let Json::Str(k) = value(b, i) else {
                        panic!("object key must be a string")
                    };
                    ws(b, i);
                    assert_eq!(b[*i], b':');
                    *i += 1;
                    fields.push((k, value(b, i)));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut items = Vec::new();
                loop {
                    ws(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return Json::Arr(items);
                    }
                    items.push(value(b, i));
                    ws(b, i);
                    if b[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => {
                *i += 1;
                let mut s = String::new();
                while b[*i] != b'"' {
                    if b[*i] == b'\\' {
                        *i += 1;
                    }
                    s.push(b[*i] as char);
                    *i += 1;
                }
                *i += 1;
                Json::Str(s)
            }
            b't' => {
                *i += 4;
                Json::Bool(true)
            }
            b'f' => {
                *i += 5;
                Json::Bool(false)
            }
            b'n' => {
                *i += 4;
                Json::Null
            }
            _ => {
                let start = *i;
                while *i < b.len() && b"+-.eE0123456789".contains(&b[*i]) {
                    *i += 1;
                }
                let n = std::str::from_utf8(&b[start..*i]).expect("ASCII number");
                Json::Num(n.parse().unwrap_or_else(|_| panic!("bad number {n}")))
            }
        }
    }
    let mut i = 0;
    value(text.as_bytes(), &mut i)
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    match benchmark_json().get(section) {
        Json::Arr(items) => items
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect(),
        other => panic!("{section} is not a list: {other:?}"),
    }
}

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"))
}

/// Runs the benchmark binary at tiny size.
fn bench(workload: &str, seed: u64, trace: bool, tag: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.3", "--trace", if trace { "1" } else { "0" }])
        .args(["--size", "tiny"])
        .arg("--out")
        .arg(out_dir(tag))
        .env_remove("REPLAY_NO_STORE")
        .env_remove("REPLAY_CACHE_DIR")
        .env_remove("REPLAY_JOBS")
        .output()
        .expect("benchmark binary runs")
}

/// The result line and the provenance line of a successful run.
fn lines(out: &Output) -> (Json, Json) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\nstdout: {stdout}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let n = lines.len();
    assert!(n >= 2, "expected provenance and result lines: {stdout}");
    (parse(lines[n - 1]), parse(lines[n - 2]))
}

#[test]
fn constants_match_benchmark_json() {
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(&END_TO_END));
    assert_eq!(declared("per_layer"), own(&PER_LAYER));
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    let workloads: Vec<String> = match benchmark_json().get("workloads") {
        Json::Arr(w) => w.iter().map(|w| w.get("name").str().to_string()).collect(),
        _ => panic!("workloads is not a list"),
    };
    assert_eq!(workloads, ["fig6-grid", "short-distinct", "serve-mixed"]);
    for w in &workloads {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let (result, provenance) = lines(&bench(w, 7, trace, &format!("emit-{w}-{trace}")));
            assert_eq!(result.get("correct"), &Json::Bool(true), "{w}");
            assert_eq!(result.get("failed").num(), 0.0, "{w}");
            assert!(result.get("attempted").num() >= 1.0, "{w}");
            let metrics = result.get("metrics");
            for (name, unit) in declared(section) {
                let m = metrics.get(&name);
                assert_eq!(m.get("unit").str(), unit, "{w} {name}");
                assert!(m.get("value").num().is_finite(), "{w} {name}");
            }
            for key in [
                "git_revision",
                "nproc",
                "jobs",
                "degraded",
                "seed",
                "latency_samples",
            ] {
                provenance.get(key);
            }
            if !trace {
                for name in ["setup_s", "sim_minst_per_s", "req_p50_ms", "throughput_rps"] {
                    assert!(metrics.get(name).get("value").num() > 0.0, "{w} {name}");
                }
            }
        }
    }
}

#[test]
fn same_seed_gives_same_digest_and_request_sequence() {
    for w in ["fig6-grid", "short-distinct", "serve-mixed"] {
        let (_, a) = lines(&bench(w, 3, false, &format!("det-{w}-a")));
        let (_, b) = lines(&bench(w, 3, false, &format!("det-{w}-b")));
        assert_eq!(a.get("digest"), b.get("digest"), "{w}");
        let (_, c) = lines(&bench(w, 4, false, &format!("det-{w}-c")));
        assert_ne!(
            a.get("digest"),
            c.get("digest"),
            "{w}: the seed changes the inputs"
        );
    }
    let dims = Size::Full.dims();
    assert_eq!(request_mix(11, &dims).asks, request_mix(11, &dims).asks);
}

#[test]
fn gate_trips_on_a_planted_wrong_body() {
    let trace = Arc::new(
        replay_trace::workloads::by_name("gzip")
            .expect("Table 1 workload")
            .segment_trace(0, 800),
    );
    let (_, local) = replay_sim::report::run_report(&trace, 1, false);
    let cut = local
        .find(",\n  \"store\": ")
        .expect("report has a store section");
    let served = format!(
        "{},\n  \"store\": {{\"store.hits\": 99}}\n}}\n",
        &local[..cut]
    );
    assert_eq!(gate::report_digest(&served), gate::report_digest(&local));
    let at = local.find("\"cycles.").expect("report carries cycle bins");
    let planted = format!("{}\"cycleX{}", &local[..at], &local[at + 8..]);
    assert_ne!(gate::report_digest(&planted), gate::report_digest(&local));
}

#[test]
fn gate_trips_on_a_planted_wrong_digest() {
    let (_, p) = lines(&bench("fig6-grid", 0, false, "digest"));
    let got = u64::from_str_radix(p.get("digest").str().trim_start_matches("0x"), 16)
        .expect("hex digest");
    assert!(gate::check_digest("fig6-grid", got, Some(got)).is_ok());
    assert!(gate::check_digest("fig6-grid", got, Some(got ^ 1)).is_err());
    assert!(gate::recorded_digest("fig6-grid").is_some());
}

#[test]
fn refuses_environment_that_changes_the_layers() {
    for var in ["REPLAY_NO_STORE", "REPLAY_CACHE_DIR", "REPLAY_JOBS"] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args([
                "--workload",
                "fig6-grid",
                "--size",
                "tiny",
                "--seconds",
                "0.1",
            ])
            .env(var, "1")
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}: no result printed");
        assert!(String::from_utf8_lossy(&out.stderr).contains(var), "{var}");
    }
}
