//! The tag controller and tag cache (Joannou et al., ICCD 2017).
//!
//! Tag bits live in a reserved region of DRAM that is not architecturally
//! addressable. The tag controller, placed in front of main memory, makes
//! each data word and its tag bit appear to be accessed atomically. A small
//! tag cache absorbs almost all tag traffic in practice, because many lines
//! hold no capabilities at all.

/// Tag cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagCacheConfig {
    /// Number of direct-mapped lines.
    pub lines: u32,
    /// Bytes of tag storage per line. One tag byte covers 32 data bytes, so
    /// a 64-byte line covers 2 KiB of data.
    pub line_bytes: u32,
}

impl Default for TagCacheConfig {
    fn default() -> Self {
        TagCacheConfig { lines: 128, line_bytes: 64 }
    }
}

/// Tag cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagCacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (each costs a DRAM tag transaction).
    pub misses: u64,
    /// Dirty evictions (each costs a DRAM tag write-back transaction).
    pub writebacks: u64,
    /// Lookups where line ownership changed between SMs (always 0 on a
    /// single-SM device).
    pub cross_sm_switches: u64,
    /// Misses that evicted a line last filled by a *different* SM —
    /// capacity the SMs of a shared device steal from each other.
    pub cross_sm_conflict_evictions: u64,
}

impl TagCacheStats {
    /// Miss rate in [0, 1]; zero when there were no lookups.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A direct-mapped tag cache model (timing/traffic only — tag *values* are
/// stored functionally by [`crate::MainMemory`]).
#[derive(Debug, Clone)]
pub(crate) struct TagCache {
    cfg: TagCacheConfig,
    /// Per line: the cached tag-region block index, or `u64::MAX` if empty,
    /// plus a dirty bit.
    lines: Vec<(u64, bool)>,
    /// Per line: the SM that last filled it (cross-SM conflict accounting).
    owners: Vec<u32>,
    stats: TagCacheStats,
    /// SM currently driving the controller (set by the device arbiter).
    accessor: u32,
    /// SM that issued the previous lookup.
    last_accessor: Option<u32>,
}

impl TagCache {
    /// Create an empty cache.
    pub(crate) fn new(cfg: TagCacheConfig) -> Self {
        TagCache {
            cfg,
            lines: vec![(u64::MAX, false); cfg.lines as usize],
            owners: vec![0; cfg.lines as usize],
            stats: TagCacheStats::default(),
            accessor: 0,
            last_accessor: None,
        }
    }

    /// Cumulative statistics.
    pub(crate) fn stats(&self) -> TagCacheStats {
        self.stats
    }

    /// Tell the cache which SM is driving it from now on (device arbiter
    /// hook). Lookups evicting a line filled by a different SM count as
    /// cross-SM conflict evictions.
    pub(crate) fn set_accessor(&mut self, sm: u32) {
        self.accessor = sm;
    }

    /// Reset statistics and contents.
    pub(crate) fn reset(&mut self) {
        self.stats = TagCacheStats::default();
        for l in &mut self.lines {
            *l = (u64::MAX, false);
        }
        self.owners.fill(0);
        self.last_accessor = None;
    }

    /// Data bytes covered by one line.
    pub(crate) fn data_bytes_per_line(&self) -> u32 {
        self.cfg.line_bytes * 32
    }

    /// Look up the tags for the data block containing `addr`; returns the
    /// number of DRAM tag transactions this lookup generated (0 on hit,
    /// 1 on clean miss, 2 on dirty miss). `write` marks the line dirty.
    pub(crate) fn lookup(&mut self, addr: u32, write: bool) -> u32 {
        if let Some(prev) = self.last_accessor {
            if prev != self.accessor {
                self.stats.cross_sm_switches += 1;
            }
        }
        self.last_accessor = Some(self.accessor);
        let block = addr as u64 / self.data_bytes_per_line() as u64;
        let idx = (block % self.cfg.lines as u64) as usize;
        let (tagged_block, dirty) = self.lines[idx];
        if tagged_block == block {
            self.stats.hits += 1;
            self.lines[idx].1 |= write;
            0
        } else {
            self.stats.misses += 1;
            let mut txns = 1; // fill
            if tagged_block != u64::MAX && dirty {
                self.stats.writebacks += 1;
                txns += 1;
            }
            if tagged_block != u64::MAX && self.owners[idx] != self.accessor {
                self.stats.cross_sm_conflict_evictions += 1;
            }
            self.lines[idx] = (block, write);
            self.owners[idx] = self.accessor;
            txns
        }
    }
}

/// The tag controller: pairs a `TagCache` with the enable switch. With
/// tagged memory disabled (the non-CHERI baseline), lookups are free.
#[derive(Debug, Clone)]
pub struct TagController {
    cache: TagCache,
    enabled: bool,
}

impl TagController {
    /// Create a controller; `enabled` mirrors the `EnableTaggedMem` config.
    pub fn new(cfg: TagCacheConfig, enabled: bool) -> Self {
        TagController { cache: TagCache::new(cfg), enabled }
    }

    /// Is tagged memory enabled?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tell the controller which SM is driving it (device arbiter hook).
    pub fn set_accessor(&mut self, sm: u32) {
        self.cache.set_accessor(sm);
    }

    /// Tag-cache statistics.
    pub fn stats(&self) -> TagCacheStats {
        self.cache.stats()
    }

    /// Reset statistics and contents.
    pub fn reset(&mut self) {
        self.cache.reset();
    }

    /// Account for a data transaction at `addr`; returns extra DRAM tag
    /// transactions required.
    pub fn on_access(&mut self, addr: u32, write: bool) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.cache.lookup(addr, write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_is_absorbed() {
        let mut tc = TagController::new(TagCacheConfig::default(), true);
        // A streaming pass over 64 KiB of data: one line covers 2 KiB, so
        // 32 misses and many hits.
        let mut txns = 0;
        for addr in (0..64 * 1024).step_by(64) {
            txns += tc.on_access(0x8000_0000 + addr, false);
        }
        assert_eq!(txns, 32);
        assert!(tc.stats().miss_rate() < 0.04);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let cfg = TagCacheConfig { lines: 1, line_bytes: 64 };
        let mut tc = TagController::new(cfg, true);
        assert_eq!(tc.on_access(0x8000_0000, true), 1); // fill, dirty
        assert_eq!(tc.on_access(0x8000_0000 + 2048, false), 2); // evict dirty + fill
        assert_eq!(tc.stats().writebacks, 1);
    }

    #[test]
    fn disabled_controller_is_free() {
        let mut tc = TagController::new(TagCacheConfig::default(), false);
        assert_eq!(tc.on_access(0x8000_0000, true), 0);
        assert_eq!(tc.stats(), TagCacheStats::default());
    }
}
