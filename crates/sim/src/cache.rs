//! Set-associative LRU cache with MSI line states (§5.1: 64-byte lines,
//! two-way set-associative, LRU replacement, write-invalidate).
//!
//! Storage is a per-set tile of packed words: for each set, `ways` tag
//! words followed by `ways` metadata words, each metadata word packing
//! `stamp << 2 | state` (state 0 = invalid).  A whole 2-way set is 32
//! bytes, so a lookup touches a single cache line of tile data.  Set and
//! tag extraction are pure shift/mask arithmetic — the line size and set
//! count are powers of two, so the hot `lookup` never divides and never
//! allocates.  The tile carries its own LRU order: a touch stamps the
//! line one past the newest stamp already in its tile, read from the
//! metadata words the lookup just loaded.  Stamps are only ever compared
//! *within* a set, and each new stamp exceeds every live stamp there, so
//! the per-set LRU victim order is exactly the order of touches — the
//! same order any strictly-increasing clock (global or per-set) would
//! produce.

/// Coherence state of a cache line (write-invalidate MESI).
///
/// `Exclusive` (clean, sole copy) is what lets a private read-modify-write
/// upgrade silently instead of broadcasting an invalidation — without it,
/// kernels like LU flood the bus with upgrade traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LineState {
    /// Valid, clean, possibly shared with other caches.
    Shared,
    /// Valid, clean, sole cached copy (silent upgrade allowed).
    Exclusive,
    /// Valid, dirty, exclusively held by this cache.
    Modified,
}

/// Line-state byte encoding: 0 = invalid, 1.. = `LineState`.
const ST_SHARED: u8 = 1;
const ST_EXCLUSIVE: u8 = 2;
const ST_MODIFIED: u8 = 3;

#[inline]
fn pack(state: LineState) -> u8 {
    match state {
        LineState::Shared => ST_SHARED,
        LineState::Exclusive => ST_EXCLUSIVE,
        LineState::Modified => ST_MODIFIED,
    }
}

#[inline]
fn unpack(byte: u8) -> LineState {
    match byte {
        ST_SHARED => LineState::Shared,
        ST_EXCLUSIVE => LineState::Exclusive,
        _ => LineState::Modified,
    }
}

/// A set-associative, LRU-replacement cache indexed by byte address.
#[derive(Debug)]
pub struct SetAssocCache {
    line_bytes: u64,
    sets: usize,
    ways: usize,
    /// `log2(line_bytes)`: shifts an address down to its block number.
    line_shift: u32,
    /// `log2(sets)`: shifts a block number down to its tag.
    set_shift: u32,
    /// `sets - 1`: masks a block number to its set index.
    set_mask: u64,
    /// Tiled line storage: set `s` occupies `data[s*2*ways ..]` — first
    /// `ways` words are tags, the next `ways` words are packed metadata
    /// (`stamp << 2 | state`, state 0 = invalid, bigger stamp = more
    /// recent *within its set*).  A touch (a lookup or private hit, an
    /// insert) stamps its line one past the newest stamp in the tile, so
    /// live stamps in a set are distinct and ordered by last touch.  A
    /// stamp never exceeds the number of touches its set has had, so the
    /// 62 stamp bits cannot overflow.
    data: Vec<u64>,
    /// Line-state changes so far: bumped by every `insert`, by a
    /// `set_state` on a resident line and by a successful `invalidate`,
    /// never by a hit or a probe.  Two equal readings bracket a span in
    /// which every hit/miss outcome and line state stayed put — what the
    /// engine's lookahead over this cache's owner relies on.
    changes: u64,
}

/// Outcome of inserting a line: the victim, if a valid line was evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Base address of the evicted line.
    pub addr: u64,
    /// Its state at eviction (Modified ⇒ writeback needed).
    pub state: LineState,
}

impl SetAssocCache {
    /// Build a cache of `capacity_bytes` with `ways` associativity and
    /// `line_bytes` lines.  Panics if the geometry is degenerate.
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(ways >= 1);
        let total_lines = (capacity_bytes / line_bytes).max(1) as usize;
        let sets = (total_lines / ways).max(1);
        assert!(
            sets.is_power_of_two(),
            "cache geometry must give a power-of-two set count (got {sets})"
        );
        let lines = sets * ways;
        SetAssocCache {
            line_bytes,
            sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
            data: vec![0; lines * 2],
            changes: 0,
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * self.line_bytes
    }

    /// Set index and tag of `addr` — two shifts and a mask, no division.
    #[inline]
    fn split(&self, addr: u64) -> (usize, u64) {
        let block = addr >> self.line_shift;
        ((block & self.set_mask) as usize, block >> self.set_shift)
    }

    /// Scan set tile `data[base..]` for `tag`; on a hit, return the way
    /// index and its packed metadata word.  The ubiquitous two-way
    /// geometry (every paper platform) gets a straight-line body — the
    /// single slice take proves the bounds, so the scan compiles to four
    /// loads and two compares with no loop.  Probe order matches the
    /// generic loop (way 0 first), so both arms pick identical ways.
    #[inline(always)]
    fn find(&self, base: usize, tag: u64) -> Option<(usize, u64)> {
        if self.ways == 2 {
            let t = &self.data[base..base + 4];
            let m0 = t[2];
            if m0 & 3 != 0 && t[0] == tag {
                return Some((0, m0));
            }
            let m1 = t[3];
            if m1 & 3 != 0 && t[1] == tag {
                return Some((1, m1));
            }
            return None;
        }
        let (tags, meta) = self.data[base..base + 2 * self.ways].split_at(self.ways);
        for (w, (&t, &m)) in tags.iter().zip(meta.iter()).enumerate() {
            if m & 3 != 0 && t == tag {
                return Some((w, m));
            }
        }
        None
    }

    /// The largest metadata word of set tile `data[base..]`: its newest
    /// line's stamp, shifted, plus that line's state bits (0 for a tile
    /// with no valid line).  Stamps dominate the comparison, so this is
    /// the newest line's word.  Two ways take one `max` of two adjacent
    /// words, as in `find`: through the generic loop, a random hit on a
    /// 2-way cache ran slower than with the per-set counter this replaced
    /// (PERF.md, *Struct-of-arrays caches*).
    #[inline(always)]
    fn newest(&self, base: usize) -> u64 {
        if self.ways == 2 {
            let t = &self.data[base + 2..base + 4];
            return t[0].max(t[1]);
        }
        let meta = &self.data[base + self.ways..base + 2 * self.ways];
        meta.iter().copied().max().unwrap_or(0)
    }

    /// The word for a line with `state` bits touched now in tile `base`:
    /// one past the tile's newest stamp.  A hit on the line that already
    /// is the newest restamps it too: skipping that write costs a branch
    /// that random hits mispredict half the time.
    #[inline(always)]
    fn stamped(&self, base: usize, state: u64) -> u64 {
        ((self.newest(base) >> 2) + 1) << 2 | state
    }

    /// Look up `addr`; a hit refreshes LRU and returns the line state.
    #[inline]
    pub fn lookup(&mut self, addr: u64) -> Option<LineState> {
        let (set, tag) = self.split(addr);
        let base = set * 2 * self.ways;
        let (w, m) = self.find(base, tag)?;
        self.data[base + self.ways + w] = self.stamped(base, m & 3);
        Some(unpack((m & 3) as u8))
    }

    /// Look up `addr` without touching LRU recency — used for snoop probes
    /// by other processors, which must not refresh the line.
    #[inline]
    pub fn probe(&self, addr: u64) -> Option<LineState> {
        let (set, tag) = self.split(addr);
        let (_, m) = self.find(set * 2 * self.ways, tag)?;
        Some(unpack((m & 3) as u8))
    }

    /// Where an access to `addr` is a *private* hit — a read hit in any
    /// state or a write hit on a Modified line — its tile base, metadata
    /// index and metadata word.  Such a hit is serviced by this cache
    /// alone and changes no line state anywhere.  Forced inline: a call that returns
    /// the tuple through memory costs run-ahead a third of its gain.
    #[inline(always)]
    fn private_way(&self, addr: u64, write: bool) -> Option<(usize, usize, u64)> {
        let (set, tag) = self.split(addr);
        let base = set * 2 * self.ways;
        let (w, m) = self.find(base, tag)?;
        (!write || m & 3 == ST_MODIFIED as u64).then_some((base, base + self.ways + w, m))
    }

    /// Whether an access to `addr` is a private hit (see `private_way`).
    #[inline]
    pub(crate) fn is_private_hit(&self, addr: u64, write: bool) -> bool {
        self.private_way(addr, write).is_some()
    }

    /// [`SetAssocCache::lookup`] for a private hit only: on one, refresh
    /// LRU and return true; otherwise touch nothing and return false.
    #[inline]
    pub(crate) fn hit_private(&mut self, addr: u64, write: bool) -> bool {
        let Some((base, slot, m)) = self.private_way(addr, write) else {
            return false;
        };
        self.data[slot] = self.stamped(base, m & 3);
        true
    }

    /// Line-state changes so far (see the `changes` field).
    #[inline]
    pub(crate) fn changes(&self) -> u64 {
        self.changes
    }

    /// Set the state of a resident line (no-op if absent).
    #[inline]
    pub fn set_state(&mut self, addr: u64, state: LineState) {
        let (set, tag) = self.split(addr);
        let base = set * 2 * self.ways;
        if let Some((w, m)) = self.find(base, tag) {
            // Replace the state bits, preserving the LRU stamp.
            self.data[base + self.ways + w] = (m & !3) | pack(state) as u64;
            self.changes += 1;
        }
    }

    /// Insert `addr` with `state`, evicting the set's LRU line if needed.
    pub fn insert(&mut self, addr: u64, state: LineState) -> Option<Evicted> {
        let (set, tag) = self.split(addr);
        self.changes += 1;
        let tags = set * 2 * self.ways;
        let meta = tags + self.ways;
        let word = self.stamped(tags, pack(state) as u64);
        // Already present: update in place.
        if let Some((w, _)) = self.find(tags, tag) {
            self.data[meta + w] = word;
            return None;
        }
        // Pick an invalid way or the LRU way.  Comparing packed metadata
        // words orders valid lines exactly by stamp (stamps are unique
        // within a set, so the state bits can never decide).
        let mut victim = 0usize;
        let mut best = u64::MAX;
        for w in 0..self.ways {
            let m = self.data[meta + w];
            if m & 3 == 0 {
                victim = w;
                break;
            }
            if m < best {
                best = m;
                victim = w;
            }
        }
        let vm = self.data[meta + victim];
        let evicted = if vm & 3 != 0 {
            let victim_addr =
                ((self.data[tags + victim] << self.set_shift) + set as u64) << self.line_shift;
            Some(Evicted {
                addr: victim_addr,
                state: unpack((vm & 3) as u8),
            })
        } else {
            None
        };
        self.data[tags + victim] = tag;
        self.data[meta + victim] = word;
        evicted
    }

    /// Invalidate `addr` if resident; returns its state when it was.
    #[inline]
    pub fn invalidate(&mut self, addr: u64) -> Option<LineState> {
        let (set, tag) = self.split(addr);
        let base = set * 2 * self.ways;
        let (w, m) = self.find(base, tag)?;
        self.data[base + self.ways + w] = 0;
        self.changes += 1;
        Some(unpack((m & 3) as u8))
    }

    /// Invalidate every resident line within `[block_addr, block_addr +
    /// block_bytes)` — used when a coherence unit (256-byte block) larger
    /// than the line is invalidated.  Returns how many lines were dropped
    /// and whether any was Modified.
    pub fn invalidate_range(&mut self, block_addr: u64, block_bytes: u64) -> (u32, bool) {
        let mut count = 0;
        let mut dirty = false;
        let mut a = block_addr;
        while a < block_addr + block_bytes {
            if let Some(st) = self.invalidate(a) {
                count += 1;
                dirty |= st == LineState::Modified;
            }
            a += self.line_bytes;
        }
        (count, dirty)
    }

    /// Base address of the line containing `addr`.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference cache: per set, a recency list of `(line address,
    /// state)`, most recent first, with the same change counting.
    struct RecencyModel {
        sets: Vec<Vec<(u64, LineState)>>,
        ways: usize,
        changes: u64,
    }

    impl RecencyModel {
        fn set(&mut self, line: u64) -> &mut Vec<(u64, LineState)> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line / 64 % n) as usize]
        }

        fn position(&mut self, line: u64) -> Option<usize> {
            self.set(line).iter().position(|&(a, _)| a == line)
        }

        fn lookup(&mut self, line: u64) -> Option<LineState> {
            let p = self.position(line)?;
            let entry = self.set(line).remove(p);
            self.set(line).insert(0, entry);
            Some(entry.1)
        }

        fn probe(&mut self, line: u64) -> Option<LineState> {
            let p = self.position(line)?;
            Some(self.set(line)[p].1)
        }

        fn hit_private(&mut self, line: u64, write: bool) -> bool {
            match self.probe(line) {
                Some(st) if !write || st == LineState::Modified => {
                    self.lookup(line);
                    true
                }
                _ => false,
            }
        }

        fn insert(&mut self, line: u64, state: LineState) -> Option<Evicted> {
            self.changes += 1;
            let ways = self.ways;
            if let Some(p) = self.position(line) {
                self.set(line).remove(p);
                self.set(line).insert(0, (line, state));
                return None;
            }
            let set = self.set(line);
            let victim = (set.len() == ways).then(|| set.pop().expect("full set"));
            set.insert(0, (line, state));
            victim.map(|(addr, state)| Evicted { addr, state })
        }

        fn set_state(&mut self, line: u64, state: LineState) {
            if let Some(p) = self.position(line) {
                self.set(line)[p].1 = state;
                self.changes += 1;
            }
        }

        fn invalidate(&mut self, line: u64) -> Option<LineState> {
            let p = self.position(line)?;
            self.changes += 1;
            Some(self.set(line).remove(p).1)
        }
    }

    const STATES: [LineState; 3] = [LineState::Shared, LineState::Exclusive, LineState::Modified];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every operation, op by op, against the per-set recency lists:
        /// equal results, equal victims and equal `changes()` readings,
        /// so the tile-local stamps order each set exactly as a recency
        /// list does.  One set of eight ways is a fully-associative LRU.
        #[test]
        fn multi_set_cache_matches_recency_model(
            ways in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
            sets in prop_oneof![Just(1usize), Just(2), Just(8)],
            lines_per_set in 2u64..20,
            ops in proptest::collection::vec(
                (0u8..8, 0u64..1 << 16, 0u8..3, any::<bool>()),
                1..1500,
            ),
        ) {
            let mut c = SetAssocCache::new((sets * ways * 64) as u64, ways, 64);
            let mut m = RecencyModel { sets: vec![Vec::new(); sets], ways, changes: 0 };
            let footprint = sets as u64 * lines_per_set;
            for (step, &(op, raw, st, write)) in ops.iter().enumerate() {
                // Few enough distinct lines per set to keep hits common;
                // any byte within the line.
                let line = raw % footprint * 64;
                let addr = line + raw / footprint % 64;
                let state = STATES[st as usize];
                let (got, want) = match op {
                    0 | 1 => (
                        format!("{:?}", c.lookup(addr)),
                        format!("{:?}", m.lookup(line)),
                    ),
                    2 => (
                        format!("{:?}", c.probe(addr)),
                        format!("{:?}", m.probe(line)),
                    ),
                    3 => (
                        format!("{:?}", c.hit_private(addr, write)),
                        format!("{:?}", m.hit_private(line, write)),
                    ),
                    4 | 5 => (
                        format!("{:?}", c.insert(addr, state)),
                        format!("{:?}", m.insert(line, state)),
                    ),
                    6 => {
                        c.set_state(addr, state);
                        m.set_state(line, state);
                        (String::new(), String::new())
                    }
                    _ if write => (
                        format!("{:?}", c.invalidate(addr)),
                        format!("{:?}", m.invalidate(line)),
                    ),
                    _ => {
                        // A 256-byte block: four lines, possibly in
                        // different sets.
                        let block = line & !255;
                        let mut want = (0u32, false);
                        for a in (block..block + 256).step_by(64) {
                            if let Some(st) = m.invalidate(a) {
                                want.0 += 1;
                                want.1 |= st == LineState::Modified;
                            }
                        }
                        (format!("{:?}", c.invalidate_range(block, 256)), format!("{want:?}"))
                    }
                };
                prop_assert_eq!(got, want, "step {} op {} addr {}", step, op, addr);
                prop_assert_eq!(c.changes(), m.changes, "step {} op {}", step, op);
            }
        }
    }

    fn small() -> SetAssocCache {
        // 8 lines of 64 B, 2-way => 4 sets.
        SetAssocCache::new(512, 2, 64)
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.capacity_bytes(), 512);
        assert_eq!(c.line_bytes(), 64);
        assert_eq!(c.line_of(100), 64);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.lookup(0), None);
        assert_eq!(c.insert(0, LineState::Shared), None);
        assert_eq!(c.lookup(0), Some(LineState::Shared));
        assert_eq!(c.lookup(63), Some(LineState::Shared), "same line");
        assert_eq!(c.lookup(64), None, "next line");
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Three addresses mapping to set 0 (stride = sets * line = 256).
        c.insert(0, LineState::Shared);
        c.insert(256, LineState::Shared);
        c.lookup(0); // refresh 0 → 256 is LRU
        let ev = c.insert(512, LineState::Shared).unwrap();
        assert_eq!(ev.addr, 256);
        assert!(c.lookup(0).is_some());
        assert!(c.lookup(256).is_none());
        assert!(c.lookup(512).is_some());
    }

    #[test]
    fn eviction_reports_dirty_state() {
        let mut c = small();
        c.insert(0, LineState::Modified);
        c.insert(256, LineState::Shared);
        c.lookup(256);
        c.lookup(256); // 0 is LRU
        let ev = c.insert(512, LineState::Shared).unwrap();
        assert_eq!(ev.addr, 0);
        assert_eq!(ev.state, LineState::Modified);
    }

    #[test]
    fn set_state_transitions() {
        let mut c = small();
        c.insert(0, LineState::Shared);
        c.set_state(0, LineState::Modified);
        assert_eq!(c.lookup(0), Some(LineState::Modified));
        // set_state on absent line is a no-op.
        c.set_state(4096, LineState::Modified);
        assert_eq!(c.lookup(4096), None);
    }

    #[test]
    fn invalidate_single_line() {
        let mut c = small();
        c.insert(0, LineState::Modified);
        assert_eq!(c.invalidate(0), Some(LineState::Modified));
        assert_eq!(c.invalidate(0), None);
        assert_eq!(c.lookup(0), None);
    }

    #[test]
    fn invalidate_block_range() {
        let mut c = SetAssocCache::new(4096, 2, 64);
        // A 256-byte block spans 4 lines.
        c.insert(1024, LineState::Shared);
        c.insert(1088, LineState::Modified);
        c.insert(1152, LineState::Shared);
        // 1216 not resident.
        let (n, dirty) = c.invalidate_range(1024, 256);
        assert_eq!(n, 3);
        assert!(dirty);
        assert_eq!(c.lookup(1088), None);
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = small();
        c.insert(0, LineState::Shared);
        assert_eq!(c.insert(0, LineState::Modified), None);
        assert_eq!(c.lookup(0), Some(LineState::Modified));
    }

    #[test]
    fn distinct_sets_do_not_interfere() {
        let mut c = small();
        for i in 0..4u64 {
            c.insert(i * 64, LineState::Shared);
        }
        for i in 0..4u64 {
            assert!(c.lookup(i * 64).is_some(), "line {i}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_line_size() {
        SetAssocCache::new(512, 2, 48);
    }

    #[test]
    fn paper_smp_cache_geometry() {
        // 256 KB, 2-way, 64-byte lines = 2048 sets; must construct.
        let c = SetAssocCache::new(256 * 1024, 2, 64);
        assert_eq!(c.capacity_bytes(), 256 * 1024);
    }

    #[test]
    fn private_hit_classification() {
        let mut c = small();
        c.insert(0, LineState::Shared);
        c.insert(64, LineState::Exclusive);
        c.insert(128, LineState::Modified);
        for (addr, write_private) in [(0, false), (64, false), (128, true)] {
            assert!(c.is_private_hit(addr, false), "read hit at {addr}");
            assert_eq!(
                c.is_private_hit(addr, true),
                write_private,
                "write at {addr}"
            );
        }
        assert!(
            !c.is_private_hit(4096, false),
            "a read miss is never private"
        );
        assert!(
            !c.is_private_hit(4096, true),
            "a write miss is never private"
        );
        // The mutating twin agrees and touches nothing when it declines.
        let before = c.changes();
        assert!(!c.hit_private(0, true));
        assert!(!c.hit_private(64, true));
        assert!(!c.hit_private(4096, false));
        assert!(c.hit_private(0, false) && c.hit_private(128, true));
        assert_eq!(c.changes(), before, "private hits change no line state");
    }

    #[test]
    fn hit_private_refreshes_lru_like_lookup() {
        let mut c = small();
        c.insert(0, LineState::Shared);
        c.insert(256, LineState::Shared);
        assert!(c.hit_private(0, false)); // refresh 0 -> 256 is LRU
        assert!(!c.hit_private(256, true)); // declined: no refresh
        assert_eq!(c.insert(512, LineState::Shared).unwrap().addr, 256);
    }

    #[test]
    fn change_counter_tracks_state_changes_only() {
        let mut c = small();
        assert_eq!(c.changes(), 0);
        c.insert(0, LineState::Shared);
        assert_eq!(c.changes(), 1, "insert bumps");
        c.insert(0, LineState::Modified);
        assert_eq!(c.changes(), 2, "re-insert bumps");
        c.lookup(0);
        c.lookup(4096);
        c.probe(0);
        c.probe(4096);
        assert_eq!(c.changes(), 2, "hit, missing lookup and probes do not");
        c.set_state(0, LineState::Shared);
        assert_eq!(c.changes(), 3, "set_state on a resident line bumps");
        c.set_state(4096, LineState::Shared);
        assert_eq!(c.changes(), 3, "set_state on an absent line is a no-op");
        assert!(c.invalidate(0).is_some());
        assert_eq!(c.changes(), 4, "successful invalidate bumps");
        assert!(c.invalidate(0).is_none());
        assert_eq!(c.changes(), 4, "failed invalidate does not");
    }

    #[test]
    fn victim_address_reconstruction_matches_arithmetic_form() {
        // addr = (tag * sets + set) * line_bytes must round-trip through
        // the shift-based reconstruction for a non-trivial geometry.
        let mut c = SetAssocCache::new(4096, 2, 64); // 32 sets
        let addr: u64 = 7 * 32 * 64 + 5 * 64; // tag 7, set 5
        c.insert(addr, LineState::Shared);
        c.insert(addr + 32 * 64, LineState::Shared); // tag 8, same set
        let ev = c.insert(addr + 2 * 32 * 64, LineState::Shared).unwrap();
        assert_eq!(ev.addr, addr);
    }
}
