//! Shared, thread-safe cache of the pure setup artifacts a system build
//! derives from its configuration.
//!
//! A verification campaign builds hundreds of [`AvSystem`](crate::AvSystem)s whose
//! configurations differ only in the injected fault or the simulation
//! method. Most of the expensive setup work is a pure function of a
//! small key — the SimB word streams of `(module, region, payload,
//! seed, integrity)`, the assembled software image of its source text,
//! the synthetic scene and its golden prediction of `(dims, objects,
//! seed, frames)` — so N scenarios keep re-deriving byte-identical
//! data. The [`ArtifactCache`] computes each distinct artifact once and
//! hands out `Arc`s. Every build sources its artifacts from one:
//! [`AvSystem::build_with`](crate::AvSystem::build_with) takes a shared
//! cache, and [`AvSystem::build`](crate::AvSystem::build) gives a single
//! run a fresh one.
//!
//! Builds on a cold and on a warm cache are bit-identical by
//! construction: every producer is deterministic, and the cache key
//! covers every input the producer reads. The cache is `Sync`
//! (mutex-guarded maps around immutable `Arc` values), so one instance
//! can serve a whole worker pool; hit/miss counters expose how much
//! rework it absorbed.

use crate::system::{EngineKind, MemLayout, SystemConfig};
use ppc::Program;
use resim::{build_simb, build_simb_integrity, SimbKind};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use video::{Frame, Scene};

/// Key of one SimB image: everything [`build_simb`] /
/// [`build_simb_integrity`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SimbKey {
    module: u8,
    rr_id: u8,
    payload_words: usize,
    seed: u64,
    integrity: bool,
}

/// Key of one synthetic scene and its golden prediction: everything
/// [`Scene`] and [`crate::system::golden_output`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SceneKey {
    width: usize,
    height: usize,
    objects: usize,
    seed: u64,
    n_frames: usize,
}

/// One configuration's video-side artifacts: the camera VIP's input
/// frames and the pipeline-exact golden prediction of the display
/// output.
#[derive(Debug)]
pub struct SceneArtifacts {
    /// Synthetic input frames, in capture order.
    pub inputs: Vec<Frame>,
    /// Golden prediction of the displayed frames.
    pub golden: Vec<Frame>,
}

/// Thread-safe cache of pure build artifacts; see the module docs.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    simbs: Mutex<HashMap<SimbKey, Arc<Vec<u32>>>>,
    programs: Mutex<HashMap<String, Arc<Program>>>,
    scenes: Mutex<HashMap<SceneKey, Arc<SceneArtifacts>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// `(hits, misses)` across all artifact kinds so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Look `key` up, computing and inserting the artifact on a miss.
    /// The key is borrowed, so a hit allocates nothing; it is copied
    /// into the map only on a miss.
    fn get_or_insert<K, Q, V>(
        &self,
        map: &Mutex<HashMap<K, Arc<V>>>,
        key: &Q,
        compute: impl FnOnce() -> V,
    ) -> Arc<V>
    where
        K: std::borrow::Borrow<Q> + Hash + Eq,
        Q: ToOwned<Owned = K> + Hash + Eq + ?Sized,
    {
        // The compute runs inside the lock: recomputing the same
        // artifact on two workers would waste exactly the work the
        // cache exists to absorb, and producers have no side effects.
        let mut map = map.lock().expect("artifact cache poisoned");
        if let Some(v) = map.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(v);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = Arc::new(compute());
        map.insert(key.to_owned(), Arc::clone(&v));
        v
    }

    /// The SimB image for one region module (framing per the recovery
    /// policy's integrity setting).
    pub fn simb(
        &self,
        module: u8,
        kind: EngineKind,
        rr_id: u8,
        payload_words: usize,
        config_seed: u64,
        integrity: bool,
    ) -> Arc<Vec<u32>> {
        let seed = config_seed
            ^ match kind {
                EngineKind::Matching => 0x4D45,
                EngineKind::Census => 0x0C1E,
            };
        let key = SimbKey {
            module,
            rr_id,
            payload_words,
            seed,
            integrity,
        };
        self.get_or_insert(&self.simbs, &key, || {
            let simb_kind = SimbKind::Config { module };
            if integrity {
                build_simb_integrity(simb_kind, rr_id, payload_words, seed)
            } else {
                build_simb(simb_kind, rr_id, payload_words, seed)
            }
        })
    }

    /// The assembled software image of `source` (load base
    /// [`ppc::ISS_ENTRY`], where the ISS starts after reset).
    pub fn program(&self, source: &str) -> Arc<Program> {
        self.get_or_insert(&self.programs, source, || {
            ppc::assemble(source, ppc::ISS_ENTRY).expect("system software must assemble")
        })
    }

    /// The input frames and golden prediction for a configuration's
    /// scene parameters.
    pub fn scene(&self, cfg: &SystemConfig) -> Arc<SceneArtifacts> {
        let key = SceneKey {
            width: cfg.width,
            height: cfg.height,
            objects: cfg.scene_objects,
            seed: cfg.seed,
            n_frames: cfg.n_frames,
        };
        self.get_or_insert(&self.scenes, &key, || {
            let scene = Scene::new(cfg.width, cfg.height, cfg.scene_objects, cfg.seed);
            let inputs: Vec<Frame> = (0..cfg.n_frames).map(|t| scene.frame(t)).collect();
            let golden = crate::system::golden_output(&inputs, cfg.width, cfg.height);
            SceneArtifacts { inputs, golden }
        })
    }

    /// Precompute everything a build of `cfg` will ask for, so worker
    /// threads that share the cache mostly hit. Safe to skip — lookups
    /// compute on miss — and safe to call concurrently.
    pub fn warm(&self, cfg: &SystemConfig) {
        self.scene(cfg);
        let layout = MemLayout::for_config(cfg);
        for slot in &layout.simbs {
            self.simb(
                slot.module,
                slot.kind,
                slot.rr_id,
                cfg.payload_words,
                cfg.seed,
                cfg.recovery.enabled,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{AvSystem, SystemConfig};

    fn small() -> SystemConfig {
        SystemConfig {
            width: 32,
            height: 24,
            n_frames: 1,
            payload_words: 64,
            ..Default::default()
        }
    }

    #[test]
    fn repeated_lookups_hit() {
        let cache = ArtifactCache::new();
        let cfg = small();
        cache.warm(&cfg);
        let (_, misses_after_warm) = cache.stats();
        cache.warm(&cfg);
        let (hits, misses) = cache.stats();
        assert_eq!(misses, misses_after_warm, "second warm recomputed");
        assert!(hits > 0);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let cache = ArtifactCache::new();
        let a = cache.simb(1, EngineKind::Census, 1, 64, 7, false);
        let b = cache.simb(1, EngineKind::Census, 1, 64, 7, true);
        let c = cache.simb(1, EngineKind::Census, 2, 64, 7, false);
        assert_ne!(a, b, "integrity framing must change the stream");
        assert_ne!(a, c, "region ID must change the stream");
        assert_eq!(a, cache.simb(1, EngineKind::Census, 1, 64, 7, false));
    }

    #[test]
    fn warm_cache_build_matches_cold_cache_build() {
        let cache = ArtifactCache::new();
        let mut cold = AvSystem::build_with(small(), &cache);
        let (_, misses_cold) = cache.stats();
        let mut warm = AvSystem::build_with(small(), &cache);
        let (hits, misses_warm) = cache.stats();
        assert!(misses_cold > 0, "the first build derived nothing");
        assert_eq!(misses_cold, misses_warm, "the second build missed");
        assert_eq!(hits, misses_cold, "the second build skipped a lookup");
        let a = cold.run(200_000);
        let b = warm.run(200_000);
        assert_eq!(a, b);
        assert_eq!(
            *cold.captured.borrow(),
            *warm.captured.borrow(),
            "the warm cache changed the simulation"
        );
        assert_eq!(cold.golden_output(), warm.golden_output());
    }

    #[test]
    fn concurrent_program_lookups_assemble_once() {
        let cfg = SystemConfig::default();
        let layout = MemLayout::for_config(&cfg);
        let source = crate::software::generate(&cfg, &layout);
        let cache = ArtifactCache::new();
        let gate = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    gate.wait();
                    cache.program(&source);
                });
            }
        });
        assert_eq!(cache.stats(), (3, 1), "one image assembled twice");
    }
}
