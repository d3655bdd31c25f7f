//! Caching of *optimized frames*: the in-run memo key and the disk layer
//! beneath it.
//!
//! Optimizing a frame is a pure function of three inputs: the constructed
//! frame itself, the [`OptConfig`], and the alias-profile facts the
//! memory pass can query (the `aliased()` relation restricted to the
//! frame's memory uops — the optimizer's single profile query site). An
//! [`OptKey`] holds exactly the frame and those facts, and each RPO run
//! memoizes one optimization per distinct key, so a frame the constructor
//! rebuilds under the same profile state is optimized once per run. A
//! frame rebuilt under a different profile (say, after an unsafe-store
//! conflict taught the profiler a new alias pair) gets a different key
//! and a fresh optimization.
//!
//! Beneath the memo, a [`FrameBundle`] keys each optimized frame by a
//! digest of the same inputs ([`frame_key`]), so a warm run gets the
//! *bit-identical* optimization result without running a single pass.
//! One bundle artifact holds every distinct optimized frame of one
//! `(trace, optimizer configuration)` pair, persisted through
//! [`replay_store::Store`] at the end of a run and merged with whatever a
//! concurrent process persisted first. Corrupt bundles — including ones
//! that pass the container checksum but fail decode or the byte-exact
//! re-encode gate — are evicted and the run proceeds cold.

use replay_core::{frame_codec, AliasProfile, OptConfig, OptFrame, OptScope, OptStats};
use replay_frame::{Frame, FrameId};
use replay_store::{Digest64, Reader, Store, WireError, Writer};
use replay_trace::{trace_digest, Trace};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Artifact class of persisted frame bundles.
pub(crate) const FRAMES_CLASS: &str = "frames";

/// Stable digest of an optimizer configuration — every field that can
/// change what the pass pipeline produces.
fn opt_config_digest(cfg: &OptConfig) -> u64 {
    let mut d = Digest64::new();
    d.write_u8(match cfg.scope {
        OptScope::Frame => 0,
        OptScope::Block => 1,
        OptScope::InterBlock => 2,
    });
    d.write_bool(cfg.assert_fuse);
    d.write_bool(cfg.const_prop);
    d.write_bool(cfg.cse);
    d.write_bool(cfg.nop_removal);
    d.write_bool(cfg.reassoc);
    d.write_bool(cfg.store_fwd);
    d.write_bool(cfg.speculative_memory);
    d.write_usize(cfg.max_iterations);
    d.write_bool(cfg.reschedule);
    d.finish()
}

/// The bundle artifact key: trace content, optimizer configuration, and
/// the frame codec version (bumping the codec orphans old bundles instead
/// of misreading them).
fn bundle_key(trace: &Trace, cfg: &OptConfig) -> Option<u64> {
    let mut d = Digest64::new();
    d.write_u32(frame_codec::FRAME_CODEC_VERSION);
    d.write_u64(trace_digest(trace).ok()?);
    d.write_u64(opt_config_digest(cfg));
    Some(d.finish())
}

/// The exact inputs of one frame's optimization under a fixed
/// [`OptConfig`]: the constructed frame and the alias pairs among its
/// memory instructions. Equal keys optimize to identical results, and
/// lookups compare keys by full equality, so a memo hit can never return
/// another frame's optimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct OptKey {
    /// The constructed frame, its construction counter cleared: the
    /// counter differs on every construction and no pass reads it.
    frame: Frame,
    /// Every `(a, b)` with `a <= b` among the x86 addresses of the frame's
    /// memory uops that the profile reports as aliased, sorted.
    ///
    /// The restriction is sound because the optimizer's only profile query
    /// site asks `aliased(a, b)` for x86 addresses of memory uops within
    /// the frame being optimized — this sub-relation covers every answer
    /// the passes can observe.
    aliases: Vec<(u32, u32)>,
}

/// Hashes the fields that tell frames apart cheaply — the x86 path, the
/// uop and assertion counts, the alias pairs — and leaves the uop bodies
/// to `Eq`: hashing every uop cost about eight times as much per lookup,
/// and equal keys still hash equally.
impl Hash for OptKey {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.frame.start_addr.hash(h);
        self.frame.x86_addrs.hash(h);
        self.frame.uops.len().hash(h);
        self.frame.expectations.len().hash(h);
        self.aliases.hash(h);
    }
}

impl OptKey {
    /// The key for optimizing `frame` against `profile`.
    pub fn new(mut frame: Frame, profile: &AliasProfile) -> OptKey {
        frame.id = FrameId(0);
        let mut addrs: Vec<u32> = frame
            .uops
            .iter()
            .filter(|u| u.is_load() || u.is_store())
            .map(|u| u.x86_addr)
            .collect();
        addrs.sort_unstable();
        addrs.dedup();
        let aliases = profile.pairs_among(&addrs);
        OptKey { frame, aliases }
    }

    /// The frame to optimize.
    pub fn frame(&self) -> &Frame {
        &self.frame
    }
}

/// Digest of one frame's optimization inputs, the bundle's per-frame key:
/// the remapped (pre-optimization) frame's exact encoding plus the key's
/// alias pairs.
pub(crate) fn frame_key(key: &OptKey) -> u64 {
    let mut d = Digest64::new();
    let raw = OptFrame::from_frame(&key.frame);
    d.write(&frame_codec::encode_frame(&raw));
    for &(a, b) in &key.aliases {
        d.write_u32(a);
        d.write_u32(b);
    }
    d.finish()
}

type Entries = HashMap<u64, (Arc<OptFrame>, OptStats)>;

/// Canonical bundle payload: entries sorted by key, each as
/// `key · frame · stats`. Sorting makes the encoding deterministic, which
/// the decode-side re-encode gate relies on.
fn encode_bundle(entries: &Entries) -> Vec<u8> {
    let mut keys: Vec<u64> = entries.keys().copied().collect();
    keys.sort_unstable();
    let mut w = Writer::new();
    w.put_u32(keys.len() as u32);
    for k in keys {
        let (frame, stats) = &entries[&k];
        w.put_u64(k);
        frame_codec::write_frame(&mut w, frame);
        frame_codec::write_stats(&mut w, stats);
    }
    w.into_bytes()
}

fn decode_bundle(payload: &[u8]) -> Result<Entries, WireError> {
    let mut r = Reader::new(payload);
    let n = r.get_len("bundle entries", 8)?;
    let mut entries = Entries::with_capacity(n);
    for _ in 0..n {
        let key = r.get_u64("entry key")?;
        let frame = frame_codec::read_frame(&mut r)?;
        let stats = frame_codec::read_stats(&mut r)?;
        entries.insert(key, (Arc::new(frame), stats));
    }
    r.finish()?;
    Ok(entries)
}

/// The per-run view of one `(trace, optimizer config)` bundle: loaded
/// once when the run starts, consulted on every in-run memo miss,
/// persisted (merged with the on-disk state) when the run ends.
pub(crate) struct FrameBundle {
    store: &'static Store,
    key: u64,
    entries: Entries,
    dirty: bool,
}

impl FrameBundle {
    /// Loads the bundle for a run, if the process-wide store is enabled.
    ///
    /// A damaged bundle — container-level corruption, a decode failure,
    /// or a payload whose decoded form does not re-encode byte-exactly —
    /// is evicted and the run starts from an empty bundle.
    pub fn open(trace: &Trace, cfg: &OptConfig) -> Option<FrameBundle> {
        let store = Store::global()?;
        let key = bundle_key(trace, cfg)?;
        let entries = match store.load(FRAMES_CLASS, key) {
            Some(payload) => match decode_bundle(&payload) {
                Ok(entries) => {
                    // Round-trip gate: the decoded bundle must mean
                    // exactly what its bytes say.
                    if encode_bundle(&entries) == payload {
                        entries
                    } else {
                        store.evict_corrupt(FRAMES_CLASS, key, "re-encode mismatch");
                        Entries::new()
                    }
                }
                Err(e) => {
                    store.evict_corrupt(FRAMES_CLASS, key, &e.to_string());
                    Entries::new()
                }
            },
            None => Entries::new(),
        };
        Some(FrameBundle {
            store,
            key,
            entries,
            dirty: false,
        })
    }

    /// The cached optimization result for a frame key, if present.
    pub fn get(&self, frame_key: u64) -> Option<(Arc<OptFrame>, OptStats)> {
        self.entries
            .get(&frame_key)
            .map(|(f, s)| (Arc::clone(f), *s))
    }

    /// Records a freshly optimized frame.
    pub fn insert(&mut self, frame_key: u64, frame: Arc<OptFrame>, stats: OptStats) {
        if self.entries.insert(frame_key, (frame, stats)).is_none() {
            self.dirty = true;
        }
    }

    /// Persists the bundle if this run added anything, merging with
    /// whatever another process persisted meanwhile (new entries win ties;
    /// equal keys imply equal content anyway).
    pub fn persist(&self) {
        if !self.dirty {
            return;
        }
        let mut merged = self
            .store
            .load(FRAMES_CLASS, self.key)
            .and_then(|payload| decode_bundle(&payload).ok())
            .unwrap_or_default();
        for (k, v) in &self.entries {
            merged.insert(*k, v.clone());
        }
        self.store
            .save(FRAMES_CLASS, self.key, &encode_bundle(&merged));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_core::optimize;
    use replay_uop::{ArchReg, Uop};

    fn sample_frame() -> Frame {
        Frame {
            id: FrameId(1),
            start_addr: 0x400,
            uops: vec![
                Uop::store(ArchReg::Esp, -4, ArchReg::Ebp).at(0x400),
                Uop::load(ArchReg::Ebx, ArchReg::Esp, -4).at(0x402),
            ],
            x86_addrs: vec![0x400, 0x402],
            block_starts: vec![0],
            expectations: vec![],
            exit_next: 0x500,
            orig_uop_count: 2,
        }
    }

    fn sample_raw() -> OptFrame {
        OptFrame::from_frame(&sample_frame())
    }

    #[test]
    fn frame_key_sensitive_to_relevant_alias_pairs_only() {
        let key = |profile: &AliasProfile| frame_key(&OptKey::new(sample_frame(), profile));
        let empty = AliasProfile::empty();
        let base = key(&empty);
        assert_eq!(base, key(&empty), "deterministic");

        // A pair between this frame's memory uops changes the key...
        let mut relevant = AliasProfile::empty();
        relevant.record(0x400, 0x402);
        assert_ne!(key(&relevant), base);

        // ...a pair between unrelated instructions does not.
        let mut irrelevant = AliasProfile::empty();
        irrelevant.record(0x9000, 0x9004);
        assert_eq!(key(&irrelevant), base);
        assert_eq!(
            OptKey::new(sample_frame(), &irrelevant),
            OptKey::new(sample_frame(), &empty)
        );
    }

    #[test]
    fn frame_key_ignores_construction_id() {
        // Two constructions of one frame differ only in the constructor's
        // running counter; they must name one bundle entry.
        let profile = AliasProfile::empty();
        let first = sample_frame();
        let mut again = sample_frame();
        again.id = FrameId(27);
        let (a, b) = (OptKey::new(first, &profile), OptKey::new(again, &profile));
        assert_eq!(a, b);
        assert_eq!(frame_key(&a), frame_key(&b));
    }

    #[test]
    fn bundle_encoding_is_canonical_and_round_trips() {
        let raw = sample_raw();
        let (opt, stats) = optimize(
            &sample_frame(),
            &AliasProfile::empty(),
            &OptConfig::default(),
        );
        let mut entries = Entries::new();
        entries.insert(7, (Arc::new(opt), stats));
        entries.insert(3, (Arc::new(raw), OptStats::default()));
        let bytes = encode_bundle(&entries);
        let back = decode_bundle(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(encode_bundle(&back), bytes, "canonical re-encode");
        let (f, s) = &back[&7];
        assert_eq!(s.store_forwards, stats.store_forwards);
        assert_eq!(f.uop_count(), 1);
    }

    #[test]
    fn corrupt_bundle_decodes_to_error_never_panics() {
        let mut entries = Entries::new();
        entries.insert(1, (Arc::new(sample_raw()), OptStats::default()));
        let bytes = encode_bundle(&entries);
        for cut in 0..bytes.len() {
            assert!(decode_bundle(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn config_digest_separates_configurations() {
        let mut seen = std::collections::HashSet::new();
        for cfg in [
            OptConfig::default(),
            OptConfig::none(),
            OptConfig::without("CP"),
            OptConfig::without("SF"),
            OptConfig::without("CSE"),
            OptConfig::block_scope(),
            OptConfig::inter_block_scope(),
        ] {
            assert!(
                seen.insert(opt_config_digest(&cfg)),
                "digest collision for {cfg:?}"
            );
        }
    }
}
