//! The correctness gate: simulated-statistics digests, per-result
//! invariants, and served-body identity.

use replay_sim::SimResult;
use replay_store::Digest64;
use replay_timing::CycleBin;

/// Default-seed digests of the measured-size sim workloads, as recorded
/// in `digests.json` (a speed-only change must reproduce them exactly).
const RECORDED: &str = include_str!("../digests.json");

/// Folds every simulated statistic of one result into `d`: cycles, cycle
/// bins, retired count, coverage bits, removed uops and loads, assert
/// events, path mismatches and frame fetches.
pub fn fold_result(d: &mut Digest64, r: &SimResult) {
    d.write_str(&r.workload);
    d.write_str(r.config.label());
    d.write_u64(r.cycles);
    for bin in CycleBin::ALL {
        d.write_u64(r.bins.get(bin));
    }
    d.write_u64(r.x86_retired);
    d.write_u64(r.coverage.to_bits());
    d.write_u64(r.dyn_uops_removed);
    d.write_u64(r.dyn_loads_removed);
    d.write_u64(r.assert_events);
    d.write_u64(r.path_mismatches);
    d.write_u64(r.pipeline.frames_fetched);
}

/// Digest of a batch of results, in order.
pub fn digest(results: &[SimResult]) -> u64 {
    let mut d = Digest64::new();
    for r in results {
        fold_result(&mut d, r);
    }
    d.finish()
}

/// The invariants every simulated result must keep: the cycle bins cover
/// every cycle, every traced instruction retires, and no optimized frame
/// failed verification. Returns the first violation.
pub fn check_result(r: &SimResult, expected_retired: u64) -> Result<(), String> {
    if r.cycles != r.bins.total() {
        return Err(format!(
            "{} {}: cycles {} != bins total {}",
            r.workload,
            r.config.label(),
            r.cycles,
            r.bins.total()
        ));
    }
    if r.x86_retired != expected_retired {
        return Err(format!(
            "{} {}: retired {} of {expected_retired} instructions",
            r.workload,
            r.config.label(),
            r.x86_retired
        ));
    }
    if r.verify.failed != 0 {
        return Err(format!(
            "{} {}: {} verification failures",
            r.workload,
            r.config.label(),
            r.verify.failed
        ));
    }
    Ok(())
}

/// The digest recorded for `workload` at the default seed, if any.
pub fn recorded_digest(workload: &str) -> Option<u64> {
    let key = format!("\"{workload}\"");
    let rest = &RECORDED[RECORDED.find(&key)? + key.len()..];
    let hex = rest.split('"').nth(1)?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

/// Compares a run's digest against the expected one, if there is one.
pub fn check_digest(workload: &str, got: u64, expected: Option<u64>) -> Result<(), String> {
    match expected {
        Some(want) if want != got => Err(format!(
            "{workload}: simulated-statistics digest {got:#018x} != recorded {want:#018x}"
        )),
        _ => Ok(()),
    }
}

/// Digest of a `replay-report` document without its non-reproducible
/// `store` section: a served body is correct when this equals the digest
/// of the locally rendered report of the same trace.
pub fn report_digest(json: &str) -> u64 {
    replay_store::digest_bytes(replay_sim::report::strip_store_section(json).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_digests_parse() {
        assert!(recorded_digest("fig6-grid").is_some());
        assert!(recorded_digest("short-distinct").is_some());
        assert_eq!(recorded_digest("no-such-workload"), None);
    }

    #[test]
    fn digest_mismatch_trips() {
        assert!(check_digest("w", 1, Some(1)).is_ok());
        assert!(check_digest("w", 1, None).is_ok());
        assert!(check_digest("w", 1, Some(2)).is_err());
    }

    #[test]
    fn body_gate_ignores_only_the_store_section() {
        let local = "{\n  \"a\": 1,\n  \"store\": {}\n}\n";
        let served = "{\n  \"a\": 1,\n  \"store\": {\"hits\": 3}\n}\n";
        assert_eq!(report_digest(served), report_digest(local));
        let wrong = "{\n  \"a\": 2,\n  \"store\": {}\n}\n";
        assert_ne!(report_digest(wrong), report_digest(local));
    }
}
