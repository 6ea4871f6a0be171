//! The sharded enrollment registry.
//!
//! One record per enrolled device: `{scheme tag, helper bytes, key
//! digest}`. Records are hashed across N shards, each behind its own
//! lock, so concurrent enrollment and authentication scale across
//! threads instead of serializing on one registry-wide mutex — the
//! ROADMAP's "heavy traffic from millions of users" shape. Each entry
//! also carries its device's [`DeviceDetector`] runtime state, so one
//! shard lock covers a whole authenticate step (lookup + detect).
//!
//! # Entry layout: slab + compact handles
//!
//! A shard is **not** a `HashMap<u64, DeviceEntry>`. Entries live in a
//! contiguous per-shard slab (`Vec<DeviceEntry>`) indexed by a compact
//! `u32` [`DeviceHandle`], and a side map resolves device id → handle.
//! The hot auth path resolves the handle once and then works on the
//! slab slot; at fleet scale (the ROADMAP's 10M-device target) this
//! keeps the id map small and dense — 12 bytes of key material per
//! device instead of a map entry dragging the whole ~300-byte record +
//! detector around — and gives batched authentication cache-friendly
//! sequential slab walks instead of pointer-chasing a big map.
//!
//! # Persistence
//!
//! One snapshot format and a write-ahead log:
//!
//! * `ropuf-verifier/v2` — the length-prefixed, CRC-protected binary
//!   snapshot in [`crate::store::snapshot`], flag state included
//!   ([`ShardedRegistry::snapshot_v2`] /
//!   [`ShardedRegistry::from_snapshot_v2`]).
//! * The WAL ([`crate::store::wal`]) — when a registry is opened
//!   durably ([`crate::Verifier::open_durable`]), every enrollment and
//!   every flag transition is appended to an fsync-rotated segment log
//!   before it is acknowledged, and crash recovery replays
//!   latest-valid-snapshot + WAL tail.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;

use ropuf_hash::HmacKey;
use ropuf_numeric::splitmix64 as mix;

use crate::detector::{DetectorConfig, DeviceDetector, FlagReason};
use crate::store::snapshot::{self, SnapshotV2Error};
use crate::store::DeviceStore;

/// Largest shard count a snapshot may request — a hard cap against
/// resource exhaustion via a forged `shards` field (snapshots are
/// operator-supplied input, same rationale as `wire::MAX_COUNT`).
pub const MAX_SHARDS: u64 = 1 << 16;

/// Compact per-shard slab index of an enrolled device. Stable for the
/// life of the registry (devices are never evicted), so hot paths can
/// resolve a device id once and keep the handle.
pub type DeviceHandle = u32;

/// The shard a device id hashes to in a registry of `shards` shards.
///
/// This is the pure form of [`ShardedRegistry::shard_of`], exposed so
/// remote parties (the multi-loop server's affinity accounting, the
/// load generator's loop-affine routing) can predict placement without
/// holding a registry. Returns `0` when `shards` is `0` so callers
/// never divide by zero on an unsharded handler.
pub fn shard_for(device_id: u64, shards: usize) -> usize {
    if shards == 0 {
        return 0;
    }
    (mix(device_id) % shards as u64) as usize
}

/// What the defender stores per enrolled device.
///
/// The `key_digest` is the derived verification credential (see the
/// crate-level protocol notes) — the registry never holds the PUF
/// master key itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnrollmentRecord {
    /// Wire tag of the scheme the device was enrolled under.
    pub scheme_tag: u8,
    /// The helper blob as enrolled (integrity reference).
    pub helper: Vec<u8>,
    /// SHA-256 of the enrolled key bytes — the HMAC verification key.
    pub key_digest: [u8; 32],
}

/// Registry operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The device id is already enrolled.
    Duplicate {
        /// The offending id.
        device_id: u64,
    },
    /// The durable write-ahead log rejected the operation — the
    /// enrollment was **not** applied (write-ahead means no record, no
    /// state).
    Storage(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Duplicate { device_id } => {
                write!(f, "device {device_id} is already enrolled")
            }
            RegistryError::Storage(e) => write!(f, "write-ahead log rejected the operation: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One slab entry: the durable record plus the device's detector
/// runtime state, co-located so a single shard lock covers an entire
/// authenticate step. Also caches the precomputed HMAC key schedule
/// ([`HmacKey`]) of the stored credential, so serving an
/// authentication never re-derives it — tag verification is two
/// midstate clones per request instead of a full key schedule.
#[derive(Debug, Clone)]
pub(crate) struct DeviceEntry {
    pub(crate) device_id: u64,
    pub(crate) record: EnrollmentRecord,
    pub(crate) detector: DeviceDetector,
    pub(crate) hmac_key: HmacKey,
}

impl DeviceEntry {
    /// Builds the entry, deriving the detector and the cached HMAC
    /// midstates from the record. The only place the key schedule is
    /// computed — everything after enrollment clones midstates.
    /// `restored_flag` re-latches a flag recovered from durable
    /// storage.
    pub(crate) fn new(
        device_id: u64,
        record: EnrollmentRecord,
        config: DetectorConfig,
        restored_flag: Option<(u64, FlagReason)>,
    ) -> Self {
        let mut detector = DeviceDetector::new(config, record.scheme_tag, &record.helper);
        if let Some((at, reason)) = restored_flag {
            detector.restore_flag(at, reason);
        }
        let hmac_key = HmacKey::new(&record.key_digest);
        Self {
            device_id,
            record,
            detector,
            hmac_key,
        }
    }
}

/// One shard: the entry slab plus the id → handle index. Entries sit
/// contiguously in enrollment order; the index map carries only
/// `(u64, u32)` pairs.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    slots: Vec<DeviceEntry>,
    index: HashMap<u64, DeviceHandle>,
}

impl Shard {
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Resolves a device id to its slab handle.
    pub(crate) fn handle_of(&self, device_id: u64) -> Option<DeviceHandle> {
        self.index.get(&device_id).copied()
    }

    /// Direct slab access by handle (the post-resolution hot path).
    pub(crate) fn entry_at(&mut self, handle: DeviceHandle) -> &mut DeviceEntry {
        &mut self.slots[handle as usize]
    }

    /// Resolve + index in one step.
    pub(crate) fn get_mut(&mut self, device_id: u64) -> Option<&mut DeviceEntry> {
        let handle = self.handle_of(device_id)?;
        Some(self.entry_at(handle))
    }

    pub(crate) fn contains(&self, device_id: u64) -> bool {
        self.index.contains_key(&device_id)
    }

    /// Appends an entry to the slab and indexes it. The caller has
    /// already rejected duplicates.
    fn insert(&mut self, entry: DeviceEntry) -> DeviceHandle {
        let handle =
            DeviceHandle::try_from(self.slots.len()).expect("shard slab exceeds u32 handles");
        self.index.insert(entry.device_id, handle);
        self.slots.push(entry);
        handle
    }

    /// Iterates the slab in enrollment order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &DeviceEntry> {
        self.slots.iter()
    }
}

/// Device-id → [`EnrollmentRecord`] map, hashed across N independently
/// locked shards, each a slab of entries indexed by compact `u32`
/// handles.
#[derive(Debug)]
pub struct ShardedRegistry {
    shards: Vec<Mutex<Shard>>,
    detector_config: DetectorConfig,
    store: Option<Arc<DeviceStore>>,
}

impl ShardedRegistry {
    /// Creates an empty registry with `shards` shards (`0` is promoted
    /// to 1). Every enrolled device gets a [`DeviceDetector`] built
    /// from `detector_config`.
    pub fn new(shards: usize, detector_config: DetectorConfig) -> Self {
        let n = shards.max(1);
        Self {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            detector_config,
            store: None,
        }
    }

    /// Attaches the durable store: from here on every enrollment and
    /// flag transition is written ahead to the WAL.
    pub(crate) fn attach_store(&mut self, store: Arc<DeviceStore>) {
        self.store = Some(store);
    }

    /// The attached durable store, if the registry was opened durably.
    pub fn store(&self) -> Option<&Arc<DeviceStore>> {
        self.store.as_ref()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The detector thresholds new enrollments receive.
    pub fn detector_config(&self) -> DetectorConfig {
        self.detector_config
    }

    /// Shard index a device id hashes to.
    pub fn shard_of(&self, device_id: u64) -> usize {
        shard_for(device_id, self.shards.len())
    }

    /// Enrolls a device. When a durable store is attached, the
    /// enrollment record hits the WAL **before** the in-memory state
    /// (write-ahead): a crash either shows the device in the log or
    /// never acknowledged it.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Duplicate`] when the id is already enrolled,
    /// [`RegistryError::Storage`] when the WAL append fails (the
    /// enrollment is not applied).
    ///
    /// # Panics
    ///
    /// Panics if the shard lock is poisoned (a previous holder
    /// panicked).
    pub fn enroll(&self, device_id: u64, record: EnrollmentRecord) -> Result<(), RegistryError> {
        let entry = DeviceEntry::new(device_id, record, self.detector_config, None);
        let mut shard = self.shards[self.shard_of(device_id)]
            .lock()
            .expect("shard lock poisoned");
        if shard.contains(device_id) {
            return Err(RegistryError::Duplicate { device_id });
        }
        if let Some(store) = &self.store {
            store
                .log_enrolls(std::iter::once((device_id, &entry.record)))
                .map_err(|e| RegistryError::Storage(e.to_string()))?;
        }
        shard.insert(entry);
        Ok(())
    }

    /// Inserts a device recovered from durable storage: no WAL append
    /// (the record is already in the log or snapshot), optionally
    /// re-latching a recovered flag.
    pub(crate) fn enroll_recovered(
        &self,
        device_id: u64,
        record: EnrollmentRecord,
        flag: Option<(u64, FlagReason)>,
    ) -> Result<(), RegistryError> {
        let entry = DeviceEntry::new(device_id, record, self.detector_config, flag);
        let mut shard = self.shards[self.shard_of(device_id)]
            .lock()
            .expect("shard lock poisoned");
        if shard.contains(device_id) {
            return Err(RegistryError::Duplicate { device_id });
        }
        shard.insert(entry);
        Ok(())
    }

    /// Enrolls a whole batch, locking each shard **once** per batch
    /// instead of once per device — the bulk path fleet provisioning
    /// (loadgen, server startup) goes through. Results come back in
    /// input order; a device id appearing twice in one batch enrolls
    /// the first occurrence and reports
    /// [`RegistryError::Duplicate`] for the rest, exactly as
    /// sequential [`ShardedRegistry::enroll`] calls would. With a
    /// durable store attached, each shard's accepted records are
    /// written ahead in one WAL append batch.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock is poisoned (a previous holder panicked).
    pub fn enroll_batch(
        &self,
        entries: Vec<(u64, EnrollmentRecord)>,
    ) -> Vec<Result<(), RegistryError>> {
        let mut results: Vec<Result<(), RegistryError>> = Vec::with_capacity(entries.len());
        results.resize_with(entries.len(), || Ok(()));
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.shard_count()];
        for (i, (device_id, _)) in entries.iter().enumerate() {
            buckets[self.shard_of(*device_id)].push(i);
        }
        // Build the entries (helper digest + HMAC key schedule) *before*
        // taking any shard lock, like the sequential path — concurrent
        // serving traffic must not stall behind a bulk load.
        let mut entries: Vec<Option<DeviceEntry>> = entries
            .into_iter()
            .map(|(device_id, record)| {
                Some(DeviceEntry::new(
                    device_id,
                    record,
                    self.detector_config,
                    None,
                ))
            })
            .collect();
        let mut accepted: Vec<usize> = Vec::new();
        for (shard_index, indices) in buckets.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let mut shard = self.shards[shard_index]
                .lock()
                .expect("shard lock poisoned");
            accepted.clear();
            for &i in indices {
                let device_id = entries[i].as_ref().expect("entry pending").device_id;
                if shard.contains(device_id)
                    || accepted.iter().any(|&j| {
                        entries[j].as_ref().expect("entry pending").device_id == device_id
                    })
                {
                    results[i] = Err(RegistryError::Duplicate { device_id });
                    continue;
                }
                accepted.push(i);
            }
            // Write-ahead: the whole shard batch is logged in one WAL
            // append before any of it becomes visible.
            if let Some(store) = &self.store {
                let log = store.log_enrolls(accepted.iter().map(|&i| {
                    let e = entries[i].as_ref().expect("entry pending");
                    (e.device_id, &e.record)
                }));
                if let Err(e) = log {
                    let msg = e.to_string();
                    for &i in &accepted {
                        results[i] = Err(RegistryError::Storage(msg.clone()));
                    }
                    continue;
                }
            }
            for &i in &accepted {
                shard.insert(entries[i].take().expect("each entry consumed once"));
            }
        }
        results
    }

    /// Total enrolled devices (locks every shard once).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").len())
            .sum()
    }

    /// `true` when no device is enrolled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enrolled devices per shard, in shard order (locks each shard
    /// once) — the source for the `verifier.registry.entries` gauges.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").len())
            .collect()
    }

    /// Runs `f` on the device's entry under its shard lock.
    pub(crate) fn with_entry<R>(
        &self,
        device_id: u64,
        f: impl FnOnce(&mut DeviceEntry) -> R,
    ) -> Option<R> {
        let mut shard = self.shards[self.shard_of(device_id)]
            .lock()
            .expect("shard lock poisoned");
        shard.get_mut(device_id).map(f)
    }

    /// Grants `f` direct access to one locked shard (the batched
    /// authentication path locks each shard once per batch).
    pub(crate) fn with_shard<R>(&self, shard_index: usize, f: impl FnOnce(&mut Shard) -> R) -> R {
        let mut shard = self.shards[shard_index]
            .lock()
            .expect("shard lock poisoned");
        f(&mut shard)
    }

    /// Appends a flag transition to the WAL, best-effort: serving must
    /// not fail because the disk hiccuped, so an append error is
    /// counted on the store ([`DeviceStore::io_errors`]) instead of
    /// propagated. No-op without a durable store.
    pub(crate) fn log_flag(&self, device_id: u64, at: u64, reason: FlagReason) {
        if let Some(store) = &self.store {
            store.log_flag_best_effort(device_id, at, reason);
        }
    }

    /// Copy of a device's enrollment record.
    pub fn record(&self, device_id: u64) -> Option<EnrollmentRecord> {
        self.with_entry(device_id, |e| e.record.clone())
    }

    /// The compact slab handle a device id resolves to inside its
    /// shard, if enrolled. `(shard, handle)` is stable for the life of
    /// the registry.
    pub fn handle(&self, device_id: u64) -> Option<(usize, DeviceHandle)> {
        let shard_index = self.shard_of(device_id);
        let shard = self.shards[shard_index]
            .lock()
            .expect("shard lock poisoned");
        shard.handle_of(device_id).map(|h| (shard_index, h))
    }

    /// `(timestamp, reason)` of the device's first flag, if flagged.
    pub fn flag_info(&self, device_id: u64) -> Option<(u64, FlagReason)> {
        self.with_entry(device_id, |e| e.detector.flagged())
            .flatten()
    }

    /// Device ids currently flagged, ascending.
    pub fn flagged_devices(&self) -> Vec<u64> {
        let mut out: Vec<u64> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock poisoned");
            out.extend(
                shard
                    .iter()
                    .filter(|e| e.detector.flagged().is_some())
                    .map(|e| e.device_id),
            );
        }
        out.sort_unstable();
        out
    }

    /// Dumps every device sorted by id: `(id, record, flag)` — the
    /// snapshot encoder's input.
    pub(crate) fn dump(&self) -> Vec<(u64, EnrollmentRecord, Option<(u64, FlagReason)>)> {
        let mut devices: Vec<(u64, EnrollmentRecord, Option<(u64, FlagReason)>)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock poisoned");
            devices.extend(
                shard
                    .iter()
                    .map(|e| (e.device_id, e.record.clone(), e.detector.flagged())),
            );
        }
        devices.sort_unstable_by_key(|(id, _, _)| *id);
        devices
    }

    /// Serializes the registry as a `ropuf-verifier/v2` binary
    /// snapshot — the save format: compact, CRC-protected, and
    /// flag-preserving. See [`crate::store::snapshot`] for the layout.
    pub fn snapshot_v2(&self) -> Vec<u8> {
        snapshot::encode(self.shard_count(), &self.dump())
    }

    /// Loads a `ropuf-verifier/v2` binary snapshot, restoring flag
    /// state (detector rate windows and streaks start fresh — they are
    /// runtime state of one serving epoch; the quarantine latch is
    /// not).
    ///
    /// # Errors
    ///
    /// A typed [`SnapshotV2Error`] for any malformed input; decoding
    /// never panics.
    pub fn from_snapshot_v2(
        bytes: &[u8],
        detector_config: DetectorConfig,
    ) -> Result<Self, SnapshotV2Error> {
        let decoded = snapshot::decode(bytes)?;
        let registry = Self::new(decoded.shards, detector_config);
        for device in decoded.devices {
            registry
                .enroll_recovered(device.device_id, device.record, device.flag)
                .map_err(|_| SnapshotV2Error::DuplicateDevice(device.device_id))?;
        }
        Ok(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropuf_constructions::pairing::lisa::LISA_TAG;

    fn record(fill: u8) -> EnrollmentRecord {
        EnrollmentRecord {
            scheme_tag: LISA_TAG,
            helper: vec![LISA_TAG, 1, fill, fill],
            key_digest: [fill; 32],
        }
    }

    #[test]
    fn enroll_lookup_and_duplicate_rejection() {
        let r = ShardedRegistry::new(4, DetectorConfig::default());
        assert!(r.is_empty());
        r.enroll(1, record(7)).unwrap();
        r.enroll(2, record(8)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.record(1).unwrap().key_digest, [7; 32]);
        assert_eq!(r.record(3), None);
        assert_eq!(
            r.enroll(1, record(9)),
            Err(RegistryError::Duplicate { device_id: 1 })
        );
    }

    #[test]
    fn sharding_spreads_sequential_ids() {
        let r = ShardedRegistry::new(8, DetectorConfig::default());
        let mut seen = std::collections::HashSet::new();
        for id in 0..64u64 {
            seen.insert(r.shard_of(id));
            assert!(r.shard_of(id) < 8);
            assert_eq!(r.shard_of(id), r.shard_of(id), "stable");
        }
        assert!(
            seen.len() >= 6,
            "sequential ids should hit most of 8 shards, got {}",
            seen.len()
        );
    }

    #[test]
    fn handles_are_compact_and_stable() {
        let r = ShardedRegistry::new(2, DetectorConfig::default());
        for id in 0..32u64 {
            r.enroll(id, record(id as u8)).unwrap();
        }
        assert_eq!(r.handle(999), None);
        // Handles are dense per shard: every handle is below the
        // shard's population, and re-resolution is stable.
        for id in 0..32u64 {
            let (shard, handle) = r.handle(id).expect("enrolled");
            assert_eq!(shard, r.shard_of(id));
            assert!((handle as usize) < r.len());
            assert_eq!(r.handle(id), Some((shard, handle)), "stable");
        }
    }

    #[test]
    fn enroll_batch_matches_sequential_and_reports_duplicates_in_order() {
        // Sequential reference.
        let seq = ShardedRegistry::new(4, DetectorConfig::default());
        for id in 0..16u64 {
            seq.enroll(id, record(id as u8)).unwrap();
        }
        // Batched: same 16 devices plus an intra-batch duplicate and a
        // duplicate of an already-batched id.
        let pre = ShardedRegistry::new(4, DetectorConfig::default());
        pre.enroll(100, record(1)).unwrap();
        let mut batch: Vec<(u64, EnrollmentRecord)> =
            (0..16u64).map(|id| (id, record(id as u8))).collect();
        batch.push((3, record(99))); // intra-batch duplicate
        batch.push((100, record(98))); // already enrolled
        let results = pre.enroll_batch(batch);
        assert_eq!(results.len(), 18);
        assert!(results[..16].iter().all(Result::is_ok));
        assert_eq!(
            results[16],
            Err(RegistryError::Duplicate { device_id: 3 }),
            "second occurrence in one batch loses"
        );
        assert_eq!(
            results[17],
            Err(RegistryError::Duplicate { device_id: 100 })
        );
        assert_eq!(pre.len(), 17);
        // First occurrence won: device 3 kept its original record.
        assert_eq!(pre.record(3).unwrap().key_digest, [3; 32]);
        for id in 0..16u64 {
            assert_eq!(pre.record(id), seq.record(id), "device {id}");
        }
    }

    #[test]
    fn zero_shards_promoted_to_one() {
        let r = ShardedRegistry::new(0, DetectorConfig::default());
        assert_eq!(r.shard_count(), 1);
        r.enroll(5, record(1)).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn concurrent_enrollment_across_threads() {
        let r = Arc::new(ShardedRegistry::new(4, DetectorConfig::default()));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        r.enroll(t * 1000 + i, record((t * 50 + i) as u8)).unwrap();
                    }
                });
            }
        });
        assert_eq!(r.len(), 200);
    }

    #[test]
    fn snapshot_roundtrip_is_lossless_and_deterministic() {
        let r = ShardedRegistry::new(4, DetectorConfig::default());
        // Enroll out of order: the snapshot must sort by id.
        r.enroll(9, record(9)).unwrap();
        r.enroll(2, record(2)).unwrap();
        r.enroll(700, record(3)).unwrap();
        let snap = r.snapshot_v2();
        let decoded = snapshot::decode(&snap).unwrap();
        let ids: Vec<u64> = decoded.devices.iter().map(|d| d.device_id).collect();
        assert_eq!(ids, [2, 9, 700]);

        let loaded = ShardedRegistry::from_snapshot_v2(&snap, DetectorConfig::default()).unwrap();
        assert_eq!(loaded.shard_count(), 4);
        assert_eq!(loaded.len(), 3);
        for id in [2u64, 9, 700] {
            assert_eq!(loaded.record(id), r.record(id), "device {id}");
        }
        // Emit → load → emit is byte-identical, and enrollment order
        // does not leak into the bytes.
        assert_eq!(loaded.snapshot_v2(), snap);
        let reordered = ShardedRegistry::new(4, DetectorConfig::default());
        for id in [700u64, 2, 9] {
            reordered.enroll(id, r.record(id).unwrap()).unwrap();
        }
        assert_eq!(reordered.snapshot_v2(), snap);
    }

    #[test]
    fn v2_snapshot_roundtrips_and_sniffs() {
        let r = ShardedRegistry::new(4, DetectorConfig::default());
        r.enroll(3, record(3)).unwrap();
        r.enroll(11, record(11)).unwrap();
        let v2 = r.snapshot_v2();
        let loaded = ShardedRegistry::from_snapshot_v2(&v2, DetectorConfig::default()).unwrap();
        assert_eq!(loaded.shard_count(), 4);
        assert_eq!(loaded.record(3), r.record(3));
        assert_eq!(loaded.record(11), r.record(11));
        assert_eq!(loaded.snapshot_v2(), v2, "emit → load → emit is stable");
        // Anything without the v2 magic — a retired JSON snapshot, say —
        // is a typed error, not a guess.
        let mut json = b"{\"schema\": \"ropuf-verifier/v1\", \"devices\": []}".to_vec();
        json.resize(v2.len(), b' ');
        assert_eq!(
            ShardedRegistry::from_snapshot_v2(&json, DetectorConfig::default()).err(),
            Some(SnapshotV2Error::BadMagic)
        );
    }

    #[test]
    fn snapshot_rejects_garbage() {
        let cfg = DetectorConfig::default();
        let load = |bytes: &[u8]| ShardedRegistry::from_snapshot_v2(bytes, cfg).err();
        assert!(matches!(
            load(b"not a snapshot"),
            Some(SnapshotV2Error::TooShort { .. })
        ));
        let r = ShardedRegistry::new(2, cfg);
        r.enroll(3, record(3)).unwrap();
        let good = r.snapshot_v2();
        // A flipped bit anywhere past the magic is caught by the CRC.
        let mut flipped = good.clone();
        flipped[snapshot::MAGIC.len() + 12] ^= 1;
        assert!(matches!(
            load(&flipped),
            Some(SnapshotV2Error::CrcMismatch { .. })
        ));
        // A forged giant shard count (CRC recomputed, so the range
        // check itself is reached) must be a typed error, not an
        // allocation abort.
        let mut forged = good[..good.len() - 4].to_vec();
        let shards_at = snapshot::MAGIC.len() + 2;
        forged[shards_at..shards_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = ropuf_numeric::crc32(&forged);
        forged.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            load(&forged),
            Some(SnapshotV2Error::ShardCountOutOfRange(u32::MAX))
        );
    }
}
