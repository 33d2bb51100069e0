//! The unified memory-system back-end.
//!
//! One implementation covers the paper's five back-ends as configurations
//! of [`ClusterBackend`]:
//!
//! * **SMP** (`N = 1`, `n ≥ 1`): per-processor L1 caches kept coherent by a
//!   snooping write-invalidate protocol over the memory bus; disks behind
//!   an LRU page-residency model on the I/O bus.
//! * **Cluster of workstations** (`n = 1`, `N > 1`): a directory protocol
//!   at 256-byte blocks (states Uncached / Shared / Exclusive, §5.1) over a
//!   bus or switch network; each node's local memory doubles as an LRU
//!   cache of remote blocks (the paper's "local memory absorbs most of the
//!   references to the higher level").
//! * **Cluster of SMPs**: the hybrid protocol — snooping inside a node,
//!   directory between nodes, with the directory extended by processor ids
//!   (here: per-node sharer bitmask + per-processor caches probed on
//!   arrival).
//!
//! Latencies are the §5.1 cycle costs; shared media (node memory bus,
//! cluster network, I/O bus) are [`Resource`]s whose queueing produces the
//! contention the analytic model approximates with M/D/1.

use crate::cache::{LineState, SetAssocCache};
use crate::dirtable::{DirEntry, DirTable};
use crate::homemap::HomeMap;
use crate::report::{LevelCounts, Traffic};
use crate::util::{LruSet, Resource};
use memhier_core::machine::{LatencyParams, NetworkKind, NetworkTopology};
use memhier_core::platform::ClusterSpec;

/// Protocol geometry (§5.1 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolParams {
    /// L1 cache line size (64 bytes).
    pub line_bytes: u64,
    /// L1 associativity (2-way).
    pub ways: usize,
    /// Inter-node coherence block (256 bytes).
    pub block_bytes: u64,
    /// Disk-residency page size.
    pub page_bytes: u64,
    /// Size in bytes of a coherence control message (invalidate, ack,
    /// upgrade) for traffic accounting.
    pub ctrl_msg_bytes: u64,
}

impl Default for ProtocolParams {
    fn default() -> Self {
        ProtocolParams {
            line_bytes: 64,
            ways: 2,
            block_bytes: 256,
            page_bytes: 4096,
            ctrl_msg_bytes: 8,
        }
    }
}

/// One machine of the cluster.
struct Node {
    /// The SMP memory buses, one per NUMA domain (a single element on flat
    /// machines — also the path to local memory for n = 1).
    buses: Vec<Resource>,
    /// The I/O bus / disk.
    io: Resource,
    /// Local memory acting as an LRU cache of remote blocks.
    remote_cache: LruSet,
    /// Resident pages of locally-homed data.
    residency: LruSet,
}

/// The unified cluster memory-system simulator.
pub struct ClusterBackend {
    lat: LatencyParams,
    params: ProtocolParams,
    clock_hz: f64,
    /// `lat.cache_hit` pre-truncated to cycles — the L1-hit fast path must
    /// not pay a float conversion per reference.
    hit_lat: u64,
    /// `log2(params.block_bytes)` / `log2(params.page_bytes)`: block and
    /// page numbers are shifts, not divisions, on the miss path.
    block_shift: u32,
    page_shift: u32,
    n_per_node: usize,
    nodes: Vec<Node>,
    /// Per-processor L1 caches, indexed globally (`proc = node·n + local`).
    caches: Vec<SetAssocCache>,
    /// Directory over inter-node blocks (cluster platforms only), stored
    /// flat and tiled (`dirtable.rs`) so miss-path probes stay on two
    /// host cache lines.
    directory: DirTable,
    home: HomeMap,
    net_kind: Option<NetworkKind>,
    /// The shared medium for bus networks.
    net_bus: Resource,
    /// Per-node ports for switch and fat-tree networks.
    ports: Vec<Resource>,
    /// Per-rack uplinks for fat-tree networks (empty otherwise).
    uplinks: Vec<Resource>,
    /// NUMA domains per node (1 = flat).
    numa_domains: usize,
    /// Extra cycles for a cross-domain memory access.
    numa_penalty: u64,
    counts: LevelCounts,
    traffic: Traffic,
}

impl ClusterBackend {
    /// Build a backend for `cluster` with the given home map (use
    /// `HomeMap::new(N, 256)` for interleaved homes when the workload does
    /// not register partitions).
    pub fn new(cluster: &ClusterSpec, lat: LatencyParams, home: HomeMap) -> Self {
        Self::with_params(cluster, lat, home, ProtocolParams::default())
    }

    /// As [`ClusterBackend::new`] with explicit protocol geometry.
    pub fn with_params(
        cluster: &ClusterSpec,
        lat: LatencyParams,
        home: HomeMap,
        params: ProtocolParams,
    ) -> Self {
        cluster.validate().expect("invalid cluster spec");
        assert!(
            params.block_bytes.is_power_of_two() && params.page_bytes.is_power_of_two(),
            "protocol block and page sizes must be powers of two"
        );
        let n = cluster.machine.n_procs as usize;
        let nn = cluster.machines as usize;
        assert_eq!(home.nodes(), nn, "home map must cover every node");
        let mem = cluster.machine.memory_bytes;
        let numa_domains = cluster.machine.numa_domains() as usize;
        let numa_penalty = cluster
            .machine
            .numa
            .map(|nu| nu.remote_penalty_cycles as u64)
            .unwrap_or(0);
        let racks = match cluster.network.map(|k| k.spec().machines_per_rack) {
            Some(per_rack) if per_rack > 0 => nn.div_ceil(per_rack as usize),
            _ => 0,
        };
        let nodes = (0..nn)
            .map(|_| Node {
                buses: (0..numa_domains).map(|_| Resource::new()).collect(),
                io: Resource::new(),
                // Half the memory is available for caching remote blocks;
                // the other half holds the locally-homed partition.
                remote_cache: LruSet::new((mem / 2 / params.block_bytes).max(1) as usize),
                residency: LruSet::new((mem / params.page_bytes).max(1) as usize),
            })
            .collect();
        let caches = (0..n * nn)
            .map(|_| {
                SetAssocCache::new(cluster.machine.cache_bytes, params.ways, params.line_bytes)
            })
            .collect();
        ClusterBackend {
            hit_lat: lat.cache_hit as u64,
            block_shift: params.block_bytes.trailing_zeros(),
            page_shift: params.page_bytes.trailing_zeros(),
            lat,
            params,
            clock_hz: cluster.machine.clock_hz,
            n_per_node: n,
            nodes,
            caches,
            directory: DirTable::default(),
            home,
            net_kind: cluster.network,
            net_bus: Resource::new(),
            ports: (0..nn).map(|_| Resource::new()).collect(),
            uplinks: (0..racks).map(|_| Resource::new()).collect(),
            numa_domains,
            numa_penalty,
            counts: LevelCounts::default(),
            traffic: Traffic::default(),
        }
    }

    /// Total processors simulated.
    pub fn total_procs(&self) -> usize {
        self.caches.len()
    }

    /// The machine clock (for converting cycles to seconds).
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Level service counts so far.
    pub fn counts(&self) -> LevelCounts {
        self.counts
    }

    /// Traffic breakdown so far.
    pub fn traffic(&self) -> Traffic {
        self.traffic
    }

    /// Busy cycles of each node's memory bus (index = node id; NUMA domain
    /// buses summed per node) — divide by the wall clock for utilization,
    /// the simulator-side counterpart of the model's M/D/1 utilization per
    /// level.
    pub fn bus_busy_cycles(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| n.buses.iter().map(|b| b.busy_cycles()).sum())
            .collect()
    }

    /// Busy cycles of the cluster network: the shared bus for Ethernet, the
    /// per-node ports summed for a switch, ports + rack uplinks for a fat
    /// tree (0 for a single machine).
    pub fn network_busy_cycles(&self) -> u64 {
        match self.net_kind.map(|n| n.topology()) {
            Some(NetworkTopology::Bus) => self.net_bus.busy_cycles(),
            Some(NetworkTopology::Switch) => self.ports.iter().map(|p| p.busy_cycles()).sum(),
            Some(NetworkTopology::FatTree) => {
                self.ports.iter().map(|p| p.busy_cycles()).sum::<u64>()
                    + self.uplinks.iter().map(|u| u.busy_cycles()).sum::<u64>()
            }
            None => 0,
        }
    }

    /// Busy cycles of each node's I/O bus (disk).
    pub fn io_busy_cycles(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.io.busy_cycles()).collect()
    }

    /// Memory-bus busy cycles summed over all nodes — an allocation-free
    /// aggregate for per-access observer snapshots.
    pub fn total_bus_busy_cycles(&self) -> u64 {
        self.nodes
            .iter()
            .flat_map(|n| n.buses.iter())
            .map(|b| b.busy_cycles())
            .sum()
    }

    /// I/O-bus busy cycles summed over all nodes (allocation-free).
    pub fn total_io_busy_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.io.busy_cycles()).sum()
    }

    /// L1 hit latency in cycles — the epoch engine's speculative hits and
    /// the classic engine's lookahead price hits outside
    /// [`ClusterBackend::access`] and need the same cost.
    pub(crate) fn hit_latency(&self) -> u64 {
        self.hit_lat
    }

    /// The per-processor L1 caches, for the epoch engine's parallel Phase A
    /// (each worker touches only its own shard's caches).
    pub(crate) fn caches_mut(&mut self) -> &mut [SetAssocCache] {
        &mut self.caches
    }

    /// Credit `n` L1 hits applied outside [`ClusterBackend::access`] (the
    /// epoch engine's speculative Phase A hits).
    pub(crate) fn add_l1_hits(&mut self, n: u64) {
        self.counts.l1_hits += n;
    }

    /// Processor `proc`'s L1, read-only — for the classic engine's
    /// lookahead over a processor's buffered events.
    pub(crate) fn cache(&self, proc: usize) -> &SetAssocCache {
        &self.caches[proc]
    }

    /// Apply a private hit of `proc` (a read hit, or a write hit on a
    /// Modified line) and return its latency; `None`, touching nothing,
    /// when the access is not one.  A private hit does exactly what
    /// [`ClusterBackend::access`] does for it: it refreshes LRU in `proc`'s
    /// own cache and counts an L1 hit.
    #[inline]
    pub(crate) fn private_hit(&mut self, proc: usize, addr: u64, write: bool) -> Option<u64> {
        if !self.caches[proc].hit_private(addr, write) {
            return None;
        }
        self.counts.l1_hits += 1;
        Some(self.hit_lat)
    }

    fn node_of(&self, proc: usize) -> usize {
        proc / self.n_per_node
    }

    /// NUMA domain owning `addr` within a node: pages interleaved across
    /// domains (always 0 on flat machines).
    fn domain_of_addr(&self, addr: u64) -> usize {
        if self.numa_domains == 1 {
            0
        } else {
            ((addr >> self.page_shift) as usize) % self.numa_domains
        }
    }

    /// NUMA domain a processor belongs to: procs split contiguously across
    /// domains (always 0 on flat machines).
    fn domain_of_proc(&self, proc: usize) -> usize {
        if self.numa_domains == 1 {
            0
        } else {
            (proc % self.n_per_node) * self.numa_domains / self.n_per_node
        }
    }

    fn block_of(&self, addr: u64) -> u64 {
        addr >> self.block_shift
    }

    fn is_cluster(&self) -> bool {
        self.nodes.len() > 1
    }

    /// True when this is a CLUMP (+3-cycle remote costs).
    fn clump(&self) -> bool {
        self.is_cluster() && self.n_per_node > 1
    }

    /// Occupy the network for one transaction from `src` to a destination
    /// node.  Returns the extra delay on top of the caller's base cost:
    /// pure queueing for bus/switch media; queueing plus the rack-crossing
    /// cost when a fat-tree transfer leaves the source rack (the transfer
    /// then occupies both the source rack's uplink and the destination
    /// port).
    fn network_acquire(&mut self, now: u64, src: usize, dst: usize, occupancy: u64) -> u64 {
        match self.net_kind.map(|n| n.topology()) {
            Some(NetworkTopology::Bus) => self.net_bus.acquire(now, occupancy),
            Some(NetworkTopology::Switch) => self.ports[dst].acquire(now, occupancy),
            Some(NetworkTopology::FatTree) => {
                let net = self.net_kind.unwrap();
                if net.rack_of(src) == net.rack_of(dst) {
                    return self.ports[dst].acquire(now, occupancy);
                }
                let cross = net.spec().rack_crossing_cycles as u64;
                let occ = occupancy + cross;
                let up = self.uplinks[net.rack_of(src)].acquire(now, occ);
                let port = self.ports[dst].acquire(now + up, occ);
                up + port + cross
            }
            None => 0,
        }
    }

    /// Probe peer caches in `node` (excluding `requester`) for a Modified
    /// copy of the line.
    fn peer_with_modified(&self, node: usize, requester: usize, line: u64) -> Option<usize> {
        let base = node * self.n_per_node;
        (base..base + self.n_per_node)
            .find(|&p| p != requester && self.caches[p].probe(line) == Some(LineState::Modified))
    }

    /// Whether a clean line at `node` may enter the Exclusive state: on a
    /// cluster the block's directory must show no *other* sharer node
    /// (otherwise a later silent upgrade would leave remote copies stale).
    fn may_hold_exclusive(&self, node: usize, addr: u64) -> bool {
        if !self.is_cluster() {
            return true;
        }
        match self.directory.get(self.block_of(addr)) {
            None => true,
            Some(DirEntry::Exclusive(o)) => o == node,
            Some(DirEntry::Shared(mask)) => mask & !(1u64 << node) == 0,
        }
    }

    /// Whether any peer cache in `node` (excluding `requester`) holds a
    /// valid copy of the line, in any state.
    fn peer_holds_line(&self, node: usize, requester: usize, line: u64) -> bool {
        let base = node * self.n_per_node;
        (base..base + self.n_per_node)
            .any(|p| p != requester && self.caches[p].probe(line).is_some())
    }

    /// Downgrade peers' Exclusive copies of the line to Shared (free — the
    /// snoop that serviced the miss carries the information).
    fn downgrade_peers_line(&mut self, node: usize, requester: usize, line: u64) {
        let base = node * self.n_per_node;
        for p in base..base + self.n_per_node {
            if p != requester && self.caches[p].probe(line) == Some(LineState::Exclusive) {
                self.caches[p].set_state(line, LineState::Shared);
            }
        }
    }

    /// Invalidate the line in every peer cache of `node` except
    /// `requester`; returns how many copies were dropped.
    fn invalidate_peers_line(&mut self, node: usize, requester: usize, line: u64) -> u32 {
        let base = node * self.n_per_node;
        let mut dropped = 0;
        for p in base..base + self.n_per_node {
            if p != requester && self.caches[p].invalidate(line).is_some() {
                dropped += 1;
            }
        }
        dropped
    }

    /// Invalidate a whole coherence block in every cache of `node` (all
    /// processors), e.g. when the directory revokes the node's copy.
    fn invalidate_node_block(&mut self, node: usize, block: u64) {
        let addr = block * self.params.block_bytes;
        let base = node * self.n_per_node;
        for p in base..base + self.n_per_node {
            let (n, _dirty) = self.caches[p].invalidate_range(addr, self.params.block_bytes);
            if n > 0 {
                self.traffic.coherence_bytes += self.params.ctrl_msg_bytes;
            }
        }
        self.nodes[node].remote_cache.remove(&block);
    }

    /// Local-memory access at `node` by `proc`: memory-bus queueing + the
    /// 50-cycle service (+ the remote-domain penalty when a NUMA machine's
    /// processor reaches across domains).  When `check_residency` is set
    /// (accesses to locally-homed data) a non-resident page adds a disk
    /// page-in; blocks cached from remote homes skip the check — their
    /// capacity is modeled by the remote-cache LRU, and their pages live at
    /// the home node.
    fn local_memory_access(
        &mut self,
        proc: usize,
        node: usize,
        addr: u64,
        now: u64,
        check_residency: bool,
    ) -> u64 {
        let mem = self.lat.local_memory as u64;
        let dom = self.domain_of_addr(addr);
        let occ = if dom != self.domain_of_proc(proc) {
            mem + self.numa_penalty
        } else {
            mem
        };
        let wait = self.nodes[node].buses[dom].acquire(now, occ);
        let mut lat = wait + occ;
        if check_residency {
            let page = addr >> self.page_shift;
            if !self.nodes[node].residency.touch(page) {
                // Page-in from disk over the I/O bus.  `disk` counts
                // page-in events; the reference itself is still serviced by
                // local memory below.
                let disk = self.lat.local_disk as u64;
                let io_wait = self.nodes[node].io.acquire(now + lat, disk);
                lat += io_wait + disk;
                self.counts.disk += 1;
                self.nodes[node].residency.insert(page);
            }
        }
        self.counts.local_memory += 1;
        self.traffic.data_bytes += self.params.line_bytes;
        lat
    }

    /// Handle one memory reference by processor `proc` at simulated time
    /// `now`.  Returns the total latency in cycles (≥ 1; includes the
    /// 1-cycle cache access).
    ///
    /// Inlined into the engine's replay loop: every hit that needs no
    /// coherence action — any read hit, or a write hit on a Modified line —
    /// resolves right here with one cache probe and a counter bump.  The
    /// coherence-bearing paths are outlined so the fast path stays small.
    #[inline]
    pub fn access(&mut self, proc: usize, addr: u64, write: bool, now: u64) -> u64 {
        match self.caches[proc].lookup(addr) {
            Some(_) if !write => {
                // A read hit in any valid state is serviced by the L1 alone.
                self.counts.l1_hits += 1;
                self.hit_lat
            }
            Some(LineState::Modified) => {
                self.counts.l1_hits += 1;
                self.hit_lat
            }
            Some(LineState::Exclusive) => self.exclusive_write_hit(proc, addr),
            Some(LineState::Shared) => self.shared_write_upgrade(proc, addr, now),
            None => self.miss_fill(proc, addr, write, now),
        }
    }

    /// MESI silent upgrade on a write to an Exclusive line: the sole clean
    /// copy becomes dirty with no bus transaction.  The Exclusive invariant
    /// guarantees this node is the block's only sharer, so only the
    /// directory's dirtiness needs recording.
    fn exclusive_write_hit(&mut self, proc: usize, addr: u64) -> u64 {
        self.counts.l1_hits += 1;
        self.caches[proc].set_state(addr, LineState::Modified);
        if self.is_cluster() {
            let node = self.node_of(proc);
            let block = self.block_of(addr);
            self.directory.insert(block, DirEntry::Exclusive(node));
        }
        self.hit_lat
    }

    /// Write hit on a Shared line: invalidate other copies (upgrade).
    fn shared_write_upgrade(&mut self, proc: usize, addr: u64, now: u64) -> u64 {
        let node = self.node_of(proc);
        let line = self.caches[proc].line_of(addr);
        self.counts.l1_hits += 1;
        self.counts.upgrades += 1;
        let lat = self.upgrade(proc, node, line, addr, now);
        self.caches[proc].set_state(addr, LineState::Modified);
        self.hit_lat + lat
    }

    /// L1 miss: service the reference below the cache and fill the line.
    fn miss_fill(&mut self, proc: usize, addr: u64, write: bool, now: u64) -> u64 {
        let node = self.node_of(proc);
        let line = self.caches[proc].line_of(addr);
        let lat = self.miss(proc, node, line, addr, write, now);
        let state = if write {
            LineState::Modified
        } else if self.peer_holds_line(node, proc, line) || !self.may_hold_exclusive(node, addr) {
            // Downgrade any peer Exclusive copy: two sharers now.
            self.downgrade_peers_line(node, proc, line);
            LineState::Shared
        } else {
            // Sole cached copy in this node — and, on clusters, the
            // directory shows no other sharer node: MESI Exclusive.
            LineState::Exclusive
        };
        if let Some(ev) = self.caches[proc].insert(addr, state) {
            if ev.state == LineState::Modified {
                // Victim writeback occupies the node bus asynchronously
                // (no latency charged to the requester).
                let mem = self.lat.local_memory as u64;
                let dom = self.domain_of_addr(ev.addr);
                self.nodes[node].buses[dom].acquire(now, mem);
                self.traffic.data_bytes += self.params.line_bytes;
            }
        }
        self.hit_lat + lat
    }

    /// Shared→Modified upgrade: invalidate peer lines (snoop) and, on
    /// cluster platforms, revoke other nodes' block copies via the
    /// directory.
    fn upgrade(&mut self, proc: usize, node: usize, line: u64, addr: u64, now: u64) -> u64 {
        let mut lat = 0u64;
        // Intra-node invalidation round over the memory bus.
        let dropped = self.invalidate_peers_line(node, proc, line);
        if self.n_per_node > 1 {
            let occ = self.lat.smp_remote_cache as u64;
            let dom = self.domain_of_addr(addr);
            let wait = self.nodes[node].buses[dom].acquire(now, occ);
            lat += wait + occ;
            self.traffic.coherence_bytes += self.params.ctrl_msg_bytes * (dropped.max(1) as u64);
        }
        if self.is_cluster() {
            let block = self.block_of(addr);
            let sharers = match self.directory.get(block) {
                Some(DirEntry::Shared(mask)) => mask & !(1u64 << node),
                Some(DirEntry::Exclusive(o)) if o != node => 1u64 << o,
                _ => 0,
            };
            if sharers != 0 {
                // One network invalidation round (flat §5.1-style cost).
                let cost = self.lat.remote_node(self.net_kind.unwrap(), self.clump()) as u64;
                let home = self.home.home(addr);
                let wait = self.network_acquire(now + lat, node, home, cost);
                lat += wait + cost;
                for s in 0..self.nodes.len() {
                    if sharers & (1 << s) != 0 {
                        self.invalidate_node_block(s, block);
                    }
                }
            }
            self.directory.insert(block, DirEntry::Exclusive(node));
        }
        lat
    }

    /// L1 miss path: snoop intra-node, then local memory or the directory
    /// protocol.
    fn miss(
        &mut self,
        proc: usize,
        node: usize,
        line: u64,
        addr: u64,
        write: bool,
        now: u64,
    ) -> u64 {
        // 1. Intra-node snoop: a peer's Modified copy supplies the line
        //    cache-to-cache at 15 cycles.
        if let Some(peer) = self.peer_with_modified(node, proc, line) {
            let occ = self.lat.smp_remote_cache as u64;
            let dom = self.domain_of_addr(addr);
            let wait = self.nodes[node].buses[dom].acquire(now, occ);
            if write {
                self.caches[peer].invalidate(line);
            } else {
                self.caches[peer].set_state(line, LineState::Shared);
            }
            self.counts.cache_to_cache += 1;
            // The intervention's control message is coherence overhead; the
            // line payload itself is demand data.
            self.traffic.data_bytes += self.params.line_bytes;
            self.traffic.coherence_bytes += self.params.ctrl_msg_bytes;
            // A write also invalidates any other peer copies (none can be
            // Modified, but Shared copies may exist after downgrades).
            if write {
                self.invalidate_peers_line(node, proc, line);
            }
            return wait + occ;
        }
        // A write miss must invalidate peers' Shared copies.
        if write && self.n_per_node > 1 {
            let dropped = self.invalidate_peers_line(node, proc, line);
            if dropped > 0 {
                self.traffic.coherence_bytes += self.params.ctrl_msg_bytes * dropped as u64;
            }
        }

        if !self.is_cluster() {
            // 2a. SMP: local memory (with paging).
            return self.local_memory_access(proc, node, addr, now, true);
        }

        // 2b. Cluster: directory protocol on 256-byte blocks.
        let block = self.block_of(addr);
        let home = self.home.home(addr);
        let dir = self.directory.get(block);

        // Where is the valid data?
        match dir {
            Some(DirEntry::Exclusive(owner)) if owner != node => {
                // Dirty at another node: fetched at the remote-cached cost.
                let cost = self.lat.remote_cached(self.net_kind.unwrap(), self.clump()) as u64;
                let wait = self.network_acquire(now, node, owner, cost);
                self.counts.remote_dirty += 1;
                self.traffic.data_bytes += self.params.block_bytes;
                self.traffic.coherence_bytes += self.params.ctrl_msg_bytes;
                // The owner's caches lose (write) or downgrade (read) the block.
                if write {
                    self.invalidate_node_block(owner, block);
                    self.directory.insert(block, DirEntry::Exclusive(node));
                } else {
                    // Owner keeps a clean copy; both become sharers.
                    let base = owner * self.n_per_node;
                    for p in base..base + self.n_per_node {
                        let a = block * self.params.block_bytes;
                        let mut x = a;
                        while x < a + self.params.block_bytes {
                            self.caches[p].set_state(x, LineState::Shared);
                            x += self.params.line_bytes;
                        }
                    }
                    self.directory
                        .insert(block, DirEntry::Shared((1 << owner) | (1 << node)));
                }
                self.deposit_remote(node, home, block, now);
                wait + cost
            }
            _ => {
                // Clean (or uncached).  Sharer bookkeeping:
                let mut sharers = match dir {
                    Some(DirEntry::Shared(m)) => m,
                    Some(DirEntry::Exclusive(o)) => 1u64 << o, // o == node
                    None => 0,
                };
                let local_copy = node == home
                    || (sharers & (1 << node) != 0
                        && self.nodes[node].remote_cache.contains(&block));
                let mut lat;
                if local_copy {
                    // Served by this node's memory: paging applies only to
                    // locally-homed data; cached remote blocks are bounded
                    // by the remote-cache LRU instead.
                    lat = self.local_memory_access(proc, node, addr, now, node == home);
                    if node != home {
                        self.nodes[node].remote_cache.touch(block);
                    }
                } else {
                    // Fetch from the home node's memory over the network.
                    let cost = self.lat.remote_node(self.net_kind.unwrap(), self.clump()) as u64;
                    let wait = self.network_acquire(now, node, home, cost);
                    lat = wait + cost;
                    // Home page-in if its memory doesn't hold the page.
                    let page = addr >> self.page_shift;
                    if !self.nodes[home].residency.touch(page) {
                        let disk = self.lat.local_disk as u64;
                        let io_wait = self.nodes[home].io.acquire(now + lat, disk);
                        lat += io_wait + disk;
                        self.counts.disk += 1;
                        self.nodes[home].residency.insert(page);
                    }
                    self.counts.remote_clean += 1;
                    self.traffic.data_bytes += self.params.block_bytes;
                    self.deposit_remote(node, home, block, now);
                    // Existing sharer nodes lose line-level exclusivity:
                    // their MESI Exclusive lines of this block drop to
                    // Shared (no traffic — piggybacked on the fetch).
                    for s in 0..self.nodes.len() {
                        if s != node && sharers & (1 << s) != 0 {
                            let a = block * self.params.block_bytes;
                            let base = s * self.n_per_node;
                            for p in base..base + self.n_per_node {
                                let mut x = a;
                                while x < a + self.params.block_bytes {
                                    if self.caches[p].probe(x) == Some(LineState::Exclusive) {
                                        self.caches[p].set_state(x, LineState::Shared);
                                    }
                                    x += self.params.line_bytes;
                                }
                            }
                        }
                    }
                }
                sharers |= 1 << node;
                if write {
                    // Invalidate all other sharers.
                    let others = sharers & !(1 << node);
                    if others != 0 {
                        let cost =
                            self.lat.remote_node(self.net_kind.unwrap(), self.clump()) as u64;
                        let wait = self.network_acquire(now + lat, node, home, cost);
                        lat += wait + cost;
                        for s in 0..self.nodes.len() {
                            if others & (1 << s) != 0 {
                                self.invalidate_node_block(s, block);
                            }
                        }
                    }
                    self.directory.insert(block, DirEntry::Exclusive(node));
                } else {
                    self.directory.insert(block, DirEntry::Shared(sharers));
                }
                lat
            }
        }
    }

    /// Record a remote block now cached in `node`'s local memory, evicting
    /// the LRU remote block.  A clean victim just drops its sharer bit; a
    /// **dirty** victim (this node owns it Exclusive) must be written back
    /// to its home over the network — the transfer occupies the medium
    /// asynchronously (no latency charged to the triggering request).
    fn deposit_remote(&mut self, node: usize, home: usize, block: u64, now: u64) {
        if node == home {
            return;
        }
        if let Some(evicted) = self.nodes[node].remote_cache.insert(block) {
            match self.directory.get(evicted) {
                Some(DirEntry::Shared(m)) => {
                    let m2 = m & !(1u64 << node);
                    self.directory.insert(evicted, DirEntry::Shared(m2));
                }
                Some(DirEntry::Exclusive(o)) if o == node => {
                    // Dirty writeback to the victim's home node.
                    let victim_home = self.home.home(evicted * self.params.block_bytes);
                    let cost = self.lat.remote_node(self.net_kind.unwrap(), self.clump()) as u64;
                    self.network_acquire(now, node, victim_home, cost);
                    self.traffic.data_bytes += self.params.block_bytes;
                    // Home memory now holds the clean data; drop the entry
                    // (uncached-clean).
                    self.directory.remove(evicted);
                    self.nodes[victim_home]
                        .residency
                        .insert((evicted << self.block_shift) >> self.page_shift);
                }
                _ => {}
            }
            // Drop stale L1 lines of the evicted block.
            let addr = evicted * self.params.block_bytes;
            let base = node * self.n_per_node;
            for p in base..base + self.n_per_node {
                self.caches[p].invalidate_range(addr, self.params.block_bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memhier_core::machine::MachineSpec;

    fn smp(n: u32) -> ClusterBackend {
        let c = ClusterSpec::single(MachineSpec::new(n, 256, 64, 200.0));
        ClusterBackend::new(&c, LatencyParams::paper(), HomeMap::new(1, 256))
    }

    fn cow(nn: u32, net: NetworkKind) -> ClusterBackend {
        let c = ClusterSpec::cluster(MachineSpec::new(1, 256, 64, 200.0), nn, net);
        ClusterBackend::new(&c, LatencyParams::paper(), HomeMap::new(nn as usize, 256))
    }

    #[test]
    fn smp_hit_after_miss() {
        let mut b = smp(2);
        // Cold miss: memory (50) + page-in disk (2000) + 1-cycle access.
        let l1 = b.access(0, 0x1000, false, 0);
        assert_eq!(l1, 1 + 50 + 2000);
        // Second access to the same page misses cache line? same line: hit.
        assert_eq!(b.access(0, 0x1000, false, 3000), 1);
        // Different line, same page: memory only.
        assert_eq!(b.access(0, 0x1040, false, 6000), 1 + 50);
        assert_eq!(b.counts().disk, 1, "one page-in");
        assert_eq!(b.counts().local_memory, 2, "both misses serviced by memory");
        assert_eq!(b.counts().l1_hits, 1);
    }

    #[test]
    fn smp_cache_to_cache_supply() {
        let mut b = smp(2);
        b.access(0, 0x1000, true, 0); // proc 0 gets Modified
        let lat = b.access(1, 0x1000, false, 5000);
        assert_eq!(lat, 1 + 15, "snoop hit at 15 cycles");
        assert_eq!(b.counts().cache_to_cache, 1);
        // Proc 0 still hits (downgraded to Shared).
        assert_eq!(b.access(0, 0x1000, false, 6000), 1);
    }

    #[test]
    fn smp_write_invalidates_peer() {
        let mut b = smp(2);
        b.access(0, 0x1000, false, 0);
        b.access(1, 0x1000, false, 5000); // both Shared
        let lat = b.access(0, 0x1000, true, 10_000);
        // Upgrade: 1 + 15-cycle invalidation round.
        assert_eq!(lat, 1 + 15);
        assert_eq!(b.counts().upgrades, 1);
        // Peer's copy is gone: its next read misses (but snoops proc 0's
        // Modified copy).
        let lat = b.access(1, 0x1000, false, 20_000);
        assert_eq!(lat, 1 + 15);
        assert_eq!(b.counts().cache_to_cache, 1);
    }

    #[test]
    fn smp_bus_contention_queues() {
        let mut b = smp(4);
        // Warm the page so only the 50-cycle memory service remains.
        b.access(0, 0x0, false, 0);
        // Two simultaneous misses to different lines: the second queues
        // behind the first's 50-cycle bus occupancy.
        let l1 = b.access(1, 0x40, false, 10_000);
        let l2 = b.access(2, 0x80, false, 10_000);
        assert_eq!(l1, 1 + 50);
        assert_eq!(l2, 1 + 50 + 50, "queued behind proc 1");
    }

    #[test]
    fn uniprocessor_never_snoops() {
        let mut b = smp(1);
        b.access(0, 0x0, true, 0);
        assert_eq!(b.counts().cache_to_cache, 0);
        assert_eq!(b.counts().upgrades, 0);
    }

    #[test]
    fn cow_remote_fetch_costs() {
        let mut b = cow(2, NetworkKind::Ethernet100);
        // Node 0 reads an address homed at node 1 (interleaved homes:
        // block 1 → node 1).
        let addr = 256u64; // block 1
        let lat = b.access(0, addr, false, 0);
        // Remote clean fetch: 4575 + home page-in 2000 + 1.
        assert_eq!(lat, 1 + 4575 + 2000);
        assert_eq!(b.counts().remote_clean, 1);
        // Re-read after L1 eviction would hit local memory; same line hits L1.
        assert_eq!(b.access(0, addr, false, 10_000), 1);
    }

    #[test]
    fn cow_local_home_access() {
        let mut b = cow(2, NetworkKind::Ethernet100);
        let addr = 0u64; // block 0 → node 0
        let lat = b.access(0, addr, false, 0);
        assert_eq!(lat, 1 + 50 + 2000, "local memory + cold page-in");
        assert_eq!(b.access(0, addr + 64, false, 5000), 1 + 50, "warm page");
    }

    #[test]
    fn cow_dirty_remote_fetch() {
        let mut b = cow(2, NetworkKind::Ethernet100);
        let addr = 0u64; // homed at node 0
        b.access(0, addr, true, 0); // node 0 writes: Exclusive(0)
        let lat = b.access(1, addr, false, 100_000);
        // Remote dirty: 9150 cycles.
        assert_eq!(lat, 1 + 9150);
        assert_eq!(b.counts().remote_dirty, 1);
    }

    #[test]
    fn cow_write_invalidates_remote_sharers() {
        let mut b = cow(2, NetworkKind::Ethernet100);
        let addr = 0u64;
        b.access(0, addr, false, 0); // node 0 shared (home)
        b.access(1, addr, false, 100_000); // node 1 shared (remote fetch)
                                           // Node 0 writes: one invalidation round to node 1.
        let lat = b.access(0, addr, true, 200_000);
        // Upgrade path: L1 hit + remote invalidation (4575).
        assert_eq!(lat, 1 + 4575);
        // Node 1's next read must go remote-dirty to node 0.
        let lat = b.access(1, addr, false, 300_000);
        assert_eq!(lat, 1 + 9150);
    }

    #[test]
    fn cow_remote_block_cached_locally() {
        let mut b = cow(2, NetworkKind::Ethernet100);
        let addr = 256u64; // homed at node 1
        b.access(0, addr, false, 0); // remote fetch, deposits block
                                     // A *different line* of the same 256-byte block: local memory hit.
        let lat = b.access(0, addr + 64, false, 100_000);
        assert_eq!(lat, 1 + 50, "block held in local remote-cache");
        assert_eq!(b.counts().local_memory, 1);
    }

    #[test]
    fn bus_network_serializes_switch_does_not() {
        // Two requester nodes fetch from two *different* homes at once.
        let mk = |net| {
            let mut b = cow(4, net);
            // Warm home pages to isolate network behavior.
            b.access(2, 512, false, 0); // block 2 homed at node 2
            b.access(3, 768, false, 0); // block 3 homed at node 3
                                        // Concurrent remote fetches from nodes 0 and 1.
            let a = b.access(0, 512, false, 1_000_000);
            let c = b.access(1, 768, false, 1_000_000);
            (a, c)
        };
        let (a_bus, c_bus) = mk(NetworkKind::Ethernet100);
        // Bus: second transfer queues behind the first (4575 occupancy).
        assert_eq!(a_bus, 1 + 4575);
        assert_eq!(c_bus, 1 + 4575 + 4575);
        let (a_sw, c_sw) = mk(NetworkKind::Atm155);
        // Switch: distinct destination ports, no queueing.
        assert_eq!(a_sw, 1 + 3275);
        assert_eq!(c_sw, 1 + 3275);
    }

    #[test]
    fn clump_uses_plus_three_costs() {
        let c = ClusterSpec::cluster(MachineSpec::new(2, 256, 64, 200.0), 2, NetworkKind::Atm155);
        let mut b = ClusterBackend::new(&c, LatencyParams::paper(), HomeMap::new(2, 256));
        // Proc 0 (node 0) reads data homed at node 1.
        let lat = b.access(0, 256, false, 0);
        assert_eq!(lat, 1 + 3278 + 2000, "clump remote + home page-in");
        // Proc 1 (same node) then snoops... the line is Shared in proc 0's
        // cache; shared lines are served by local memory (the block was
        // deposited), not cache-to-cache.
        let lat = b.access(1, 256, false, 100_000);
        assert_eq!(lat, 1 + 50);
    }

    #[test]
    fn clump_intra_node_snoop_still_works() {
        let c = ClusterSpec::cluster(MachineSpec::new(2, 256, 64, 200.0), 2, NetworkKind::Atm155);
        let mut b = ClusterBackend::new(&c, LatencyParams::paper(), HomeMap::new(2, 256));
        b.access(0, 0, true, 0); // proc 0, node 0, local home, Modified
        let lat = b.access(1, 0, false, 100_000); // proc 1, same node
        assert_eq!(lat, 1 + 15, "intra-node cache-to-cache");
    }

    #[test]
    fn mesi_silent_upgrade_on_private_data() {
        let mut b = smp(2);
        // Sole reader gets Exclusive; the subsequent write is a free
        // upgrade (no bus transaction, no upgrade count).
        b.access(0, 0x1000, false, 0);
        let lat = b.access(0, 0x1000, true, 5000);
        assert_eq!(lat, 1, "silent MESI upgrade");
        assert_eq!(b.counts().upgrades, 0);
    }

    #[test]
    fn mesi_shared_write_still_broadcasts() {
        let mut b = smp(2);
        b.access(0, 0x1000, false, 0);
        b.access(1, 0x1000, false, 5000); // second reader: both Shared now
        let lat = b.access(0, 0x1000, true, 10_000);
        assert_eq!(lat, 1 + 15, "upgrade broadcast required");
        assert_eq!(b.counts().upgrades, 1);
    }

    #[test]
    fn mesi_exclusive_denied_when_block_shared_across_nodes() {
        // Node 0 reads its home block; node 1 fetches it; node 0's line
        // drops to Shared, so node 0's write must invalidate node 1.
        let mut b = cow(2, NetworkKind::Ethernet100);
        b.access(0, 0, false, 0);
        b.access(1, 0, false, 100_000);
        let lat = b.access(0, 0, true, 200_000);
        assert_eq!(lat, 1 + 4575, "inter-node invalidation required");
        // And node 1's next read sees the dirty data (remote-dirty cost),
        // proving no stale silent upgrade happened.
        let lat = b.access(1, 0, false, 300_000);
        assert_eq!(lat, 1 + 9150);
    }

    #[test]
    fn numa_remote_domain_pays_penalty() {
        // 4P, 2 domains, 40-cycle penalty.  Procs 0-1 live in domain 0,
        // procs 2-3 in domain 1; pages interleave across domains.
        let c = ClusterSpec::single(MachineSpec::new(4, 256, 64, 200.0).with_numa(2, 40.0));
        let mut b = ClusterBackend::new(&c, LatencyParams::paper(), HomeMap::new(1, 256));
        // Page 0 (addr 0) lives in domain 0: local for proc 0.
        assert_eq!(b.access(0, 0, false, 0), 1 + 50 + 2000, "local domain");
        // Page 1 (addr 4096) lives in domain 1: remote for proc 0.
        assert_eq!(
            b.access(0, 4096, false, 10_000),
            1 + 50 + 40 + 2000,
            "cross-domain access pays the penalty"
        );
        // ...but is local for proc 2 (domain 1).
        assert_eq!(b.access(2, 4096 + 64, false, 20_000), 1 + 50);
    }

    #[test]
    fn numa_domains_have_independent_buses() {
        let c = ClusterSpec::single(MachineSpec::new(4, 256, 64, 200.0).with_numa(2, 40.0));
        let mut b = ClusterBackend::new(&c, LatencyParams::paper(), HomeMap::new(1, 256));
        // Warm both pages.
        b.access(0, 0, false, 0);
        b.access(2, 4096, false, 0);
        // Simultaneous same-domain misses queue; cross-domain pairs do not.
        let l0 = b.access(0, 0x40, false, 1_000_000); // domain 0
        let l2 = b.access(2, 4096 + 0x40, false, 1_000_000); // domain 1
        assert_eq!(l0, 1 + 50);
        assert_eq!(l2, 1 + 50, "distinct domain buses never contend");
        let l1 = b.access(1, 0x80, false, 2_000_000); // domain 0
        let l3 = b.access(0, 0xc0, false, 2_000_000); // domain 0 again
        assert_eq!(l1, 1 + 50);
        assert_eq!(l3, 1 + 50 + 50, "same-domain misses still queue");
    }

    #[test]
    fn flat_machine_is_unchanged_by_numa_plumbing() {
        // The NUMA-aware bus vector with one domain must reproduce the
        // pinned flat-SMP cycles exactly.
        let mut b = smp(2);
        assert_eq!(b.access(0, 0x1000, false, 0), 1 + 50 + 2000);
        assert_eq!(b.access(0, 0x1040, false, 6000), 1 + 50);
        assert_eq!(b.bus_busy_cycles(), vec![100], "one bus, summed busy");
    }

    #[test]
    fn fat_tree_in_rack_behaves_like_a_switch() {
        // 4 machines fit one rack: no crossing cost, per-port contention.
        let mut b = cow(4, NetworkKind::FatTree);
        b.access(1, 256, false, 0); // warm home page at node 1
        let lat = b.access(0, 256, false, 1_000_000);
        assert_eq!(lat, 1 + 1475, "in-rack fetch at the registry cost");
    }

    #[test]
    fn fat_tree_cross_rack_pays_uplink_crossing() {
        // 8 machines = racks {0-3} and {4-7}.  Node 0 fetching from node 4
        // crosses racks: +400 cycles.
        let mut b = cow(8, NetworkKind::FatTree);
        let addr = 4 * 256u64; // block 4 → home node 4
        b.access(4, addr, false, 0); // warm home page
        let lat = b.access(0, addr, false, 1_000_000);
        assert_eq!(lat, 1 + 1475 + 400, "cross-rack fetch adds the crossing");
        // Two simultaneous cross-rack fetches from the same source rack
        // serialize on the rack's uplink.
        let addr5 = 5 * 256u64;
        b.access(5, addr5, false, 2_000_000); // warm
        let a = b.access(1, addr, false, 3_000_000); // rack 0 → rack 1 (dirty? no: shared clean)
        let c = b.access(2, addr5, false, 3_000_000); // rack 0 → rack 1, different port
        assert_eq!(a, 1 + 1475 + 400);
        assert_eq!(
            c,
            1 + 1475 + 400 + (1475 + 400),
            "second transfer queues behind the shared uplink"
        );
        assert!(b.network_busy_cycles() > 0);
    }

    #[test]
    fn traffic_accumulates() {
        let mut b = smp(2);
        b.access(0, 0, false, 0);
        b.access(1, 0, false, 1000);
        b.access(0, 0, true, 2000); // upgrade → coherence traffic
        let t = b.traffic();
        assert!(t.data_bytes > 0);
        assert!(t.coherence_bytes > 0);
        assert!(t.coherence_fraction() > 0.0 && t.coherence_fraction() < 1.0);
    }

    #[test]
    fn counts_total_matches_accesses() {
        let mut b = cow(2, NetworkKind::Atm155);
        let mut refs = 0u64;
        for i in 0..200u64 {
            b.access((i % 2) as usize, (i * 64) % 4096, i % 3 == 0, i * 10);
            refs += 1;
        }
        assert_eq!(b.counts().total_refs(), refs);
    }
}
