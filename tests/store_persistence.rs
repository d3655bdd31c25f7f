//! Fault-injection and warm-start integration tests for the persistent
//! artifact store.
//!
//! The store's contract: a warm run is bit-identical to a cold run, a
//! damaged artifact is never trusted (evict, warn, regenerate — never
//! panic, never silently wrong), and concurrent writers leave exactly one
//! valid artifact with no torn reads.

use replay_sim::{simulate, ConfigKind, SimConfig, SimResult, TraceStore};
use replay_store::{artifact, Store};
use replay_trace::workloads;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory for a private store.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "replay-it-store-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The single artifact file in a store directory.
fn sole_artifact(store: &Store) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(store.root())
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "expected exactly one artifact: {files:?}");
    files.pop().unwrap()
}

/// Payload bytes between the sampled bit flips that also take the full
/// on-disk evict-and-regenerate round (every header byte always does).
const PAYLOAD_FLIP_STRIDE: usize = 64;

/// Truncation at six prefix lengths, a bit flip in every byte, and a
/// schema-version bump each fail the validation gate [`Store::load`]
/// applies, without panicking. The truncations, the version bump, every
/// header byte and an evenly spaced sample of payload bytes also go
/// through the store on disk: the reader evicts the artifact, counts the
/// eviction, and a regeneration restores byte-identical service. No
/// corruption is ever served.
#[test]
fn corrupt_artifacts_are_evicted_and_regenerate() {
    let store = Store::open(scratch("faults")).unwrap();
    let payload: Vec<u8> = (0..2048u32).map(|i| (i * 7) as u8).collect();
    assert!(store.save("trace", 0xfeed, &payload));
    let path = sole_artifact(&store);
    let pristine = std::fs::read(&path).unwrap();
    assert_eq!(
        artifact::decode(&pristine, "trace", 0xfeed),
        Ok(&payload[..]),
        "the pristine container validates"
    );

    // Each corruption, with whether it also takes the on-disk round.
    let mut corruptions: Vec<(Vec<u8>, bool)> = Vec::new();
    // Truncations, including an empty file and a header-only file.
    for cut in [0, 1, 17, 39, 40, pristine.len() - 1] {
        corruptions.push((pristine[..cut].to_vec(), true));
    }
    // One flipped bit, everywhere from magic to final payload byte.
    for byte in 0..pristine.len() {
        let mut forged = pristine.clone();
        forged[byte] ^= 0x10;
        let sampled = byte < artifact::HEADER_LEN
            || (byte - artifact::HEADER_LEN).is_multiple_of(PAYLOAD_FLIP_STRIDE)
            || byte == pristine.len() - 1;
        corruptions.push((forged, sampled));
    }
    // A forged future schema version (header bytes 4..8).
    let mut future = pristine.clone();
    future[4] = 0xff;
    corruptions.push((future, true));

    let mut expected_evictions = 0;
    for (i, (corrupt, on_disk)) in corruptions.iter().enumerate() {
        assert!(
            artifact::decode(corrupt, "trace", 0xfeed).is_err(),
            "corruption #{i} must fail validation"
        );
        if !on_disk {
            continue;
        }
        std::fs::write(&path, corrupt).unwrap();
        assert_eq!(
            store.load("trace", 0xfeed),
            None,
            "corruption #{i} must not be served"
        );
        expected_evictions += 1;
        assert_eq!(store.corrupt_evictions(), expected_evictions);
        assert!(!path.exists(), "corruption #{i} must be evicted from disk");

        // Regeneration restores byte-identical service.
        assert!(store.save("trace", 0xfeed, &payload));
        assert_eq!(store.load("trace", 0xfeed).as_deref(), Some(&payload[..]));
    }
    let header = artifact::HEADER_LEN as u64;
    let sampled_payload = (payload.len() as u64).div_ceil(PAYLOAD_FLIP_STRIDE as u64) + 1;
    assert_eq!(expected_evictions, 6 + header + sampled_payload + 1);
}

/// A payload readable under the wrong class or key is a forgery; the
/// reader must reject and evict it.
#[test]
fn class_and_key_confusion_is_rejected() {
    let store = Store::open(scratch("confusion")).unwrap();
    assert!(store.save("trace", 1, b"trace payload"));
    let path = sole_artifact(&store);
    let bytes = std::fs::read(&path).unwrap();

    // The same bytes filed under a different key: key echo mismatch.
    std::fs::remove_file(&path).unwrap();
    let forged = store.root().join("trace-0000000000000002.rpa");
    std::fs::write(&forged, &bytes).unwrap();
    assert_eq!(store.load("trace", 2), None);
    assert!(!forged.exists());

    // The same bytes filed under a different class: class digest mismatch.
    let forged = store.root().join("frames-0000000000000001.rpa");
    std::fs::write(&forged, &bytes).unwrap();
    assert_eq!(store.load("frames", 1), None);
    assert_eq!(store.corrupt_evictions(), 2);
}

/// Racing writers on one key: readers see either nothing or one writer's
/// complete payload (the checksum catches torn writes), and exactly one
/// artifact file survives with no temp-file litter.
#[test]
fn concurrent_writers_leave_one_untorn_artifact() {
    let store = Store::open(scratch("race")).unwrap();
    const WRITERS: usize = 8;
    const ROUNDS: usize = 20;
    let payloads: Vec<Vec<u8>> = (0..WRITERS)
        .map(|w| vec![w as u8; 4096 + 991 * w])
        .collect();

    std::thread::scope(|s| {
        for p in &payloads {
            s.spawn(|| {
                for _ in 0..ROUNDS {
                    assert!(store.save("frames", 77, p));
                }
            });
        }
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..4 * ROUNDS {
                    if let Some(seen) = store.load("frames", 77) {
                        assert!(
                            payloads.contains(&seen),
                            "torn read: {} bytes of {:?}...",
                            seen.len(),
                            &seen[..8.min(seen.len())]
                        );
                    }
                }
            });
        }
    });

    assert_eq!(store.corrupt_evictions(), 0, "no artifact ever looked torn");
    let survivor = sole_artifact(&store);
    assert!(
        survivor.to_string_lossy().ends_with(".rpa"),
        "no temp litter"
    );
    let last = store
        .load("frames", 77)
        .expect("artifact survives the race");
    assert!(payloads.contains(&last));
}

/// Asserts two simulations agree bit for bit, profile included.
fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.x86_retired, b.x86_retired, "{what}: retired");
    assert_eq!(
        a.coverage.to_bits(),
        b.coverage.to_bits(),
        "{what}: coverage"
    );
    assert_eq!(a.dyn_uops_removed, b.dyn_uops_removed, "{what}: removal");
    assert_eq!(
        a.profile.to_json(false),
        b.profile.to_json(false),
        "{what}: profile"
    );
}

/// The end-to-end warm-start contract through the process-global store:
/// a run whose trace comes from disk is bit-identical to the cold run that
/// synthesized and persisted it (including under concurrent warm runs),
/// and corruption of every cached artifact is evicted and regenerated —
/// still bit-identically. Each run gets a fresh [`TraceStore`], as a new
/// process would, so its trace comes from disk or from synthesis.
///
/// This is the only test allowed to touch [`Store::global`]; everything it
/// checks happens sequentially inside one test body so no other test can
/// race the shared directory.
#[test]
fn warm_start_is_bit_identical_and_corruption_tolerant() {
    let dir = scratch("global");
    assert!(
        Store::configure(Some(dir.clone())),
        "global store must be configured before first use"
    );
    let store = Store::global().expect("global store enabled");

    let crafty = workloads::by_name("crafty").unwrap();
    let cfg = SimConfig::new(ConfigKind::ReplayOpt).without_verify();
    let run = || {
        let traces = TraceStore::with_disk(store);
        let trace = traces.segment(&crafty, 0, 4_000);
        (simulate(&trace, &cfg), traces)
    };

    let (cold, traces) = run();
    assert_eq!(traces.generations(), 1, "cold run synthesizes its trace");
    assert!(store.writes() > 0, "cold run persists its trace");
    let artifacts: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !artifacts.is_empty()
            && artifacts
                .iter()
                .all(|f| f.starts_with("trace-") && f.ends_with(".rpa")),
        "the store holds trace artifacts only: {artifacts:?}"
    );

    let (warm, traces) = run();
    assert!(traces.disk_hits() > 0, "warm run reads its trace from disk");
    assert_eq!(traces.generations(), 0, "warm run synthesizes nothing");
    assert_identical(&cold, &warm, "warm");

    // Concurrent warm runs (the `--jobs 8` shape): all bit-identical.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8).map(|_| s.spawn(run)).collect();
        for h in handles {
            let (r, traces) = h.join().unwrap();
            assert_eq!(traces.generations(), 0, "concurrent warm run");
            assert_identical(&cold, &r, "concurrent warm");
        }
    });

    // Corrupt every artifact in the cache; the next run must evict it,
    // regenerate gracefully and still match the cold run bit for bit.
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        corrupted += 1;
    }
    assert!(corrupted > 0, "cold run left artifacts to corrupt");
    let evictions_before = store.corrupt_evictions();
    let (recovered, traces) = run();
    assert_eq!(
        store.corrupt_evictions() - evictions_before,
        corrupted,
        "every damaged artifact was evicted"
    );
    assert_eq!(traces.generations(), 1, "the damaged trace is regenerated");
    assert_identical(&cold, &recovered, "recovered");
}
