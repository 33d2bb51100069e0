//! Pointer-chasing graph traversal: dependent loads with no spatial
//! locality.
//!
//! A random single-cycle permutation (built with Sattolo's algorithm, so
//! every node is reachable from every start) serves as the successor
//! array of a graph.  Each process starts at its own node and follows
//! `next[cur]` for a fixed number of hops — every load depends on the
//! previous one, and successive addresses are scattered across the whole
//! footprint, the memory-latency-bound access pattern of graph analytics
//! and linked data structures.  Every 16th hop stamps a visit mark into a
//! side array (the write traffic of frontier updates); a barrier every
//! 4096 hops keeps the walkers loosely coupled.

use crate::spmd::{SpmdCtx, SpmdProgram};
use crate::traced::{AddressSpace, TracedArray};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Average non-memory instructions per hop (fractional, carried): index
/// arithmetic plus loop bookkeeping.
const HOP_COMPUTE: f64 = 1.4;
/// A visit mark is written every this many hops.
const MARK_EVERY: usize = 16;
/// Walkers re-synchronize every this many hops.
const SYNC_EVERY: usize = 4096;

/// The pointer-chase instance.
pub struct GraphWalkProgram {
    procs: usize,
    nodes: usize,
    steps: usize,
    /// Successor pointers: a single-cycle permutation (read-only).
    next: TracedArray<u32>,
    /// Visit marks (write-only; values are racy, addresses are not).
    marks: TracedArray<u32>,
    /// One result slot per process: the node its walk ended on.
    ends: TracedArray<u64>,
}

impl GraphWalkProgram {
    /// Build a `nodes`-cycle from `seed`; each of `procs` processes walks
    /// `steps` hops (`procs` must not exceed `nodes`, and node indices
    /// must fit the `u32` successor cells).
    pub fn random_cycle(nodes: usize, steps: usize, procs: usize, seed: u64) -> Arc<Self> {
        assert!(nodes >= 2);
        assert!(
            u32::try_from(nodes).is_ok(),
            "{nodes} nodes exceed the u32 successor cells"
        );
        assert!(
            procs <= nodes,
            "more processes ({procs}) than nodes ({nodes})"
        );
        let mut sp = AddressSpace::default();
        // Sattolo's algorithm, in place: a uniformly random cyclic
        // permutation.
        let next = TracedArray::new_with(sp.alloc(nodes), nodes, |i| i as u32);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for i in (1..nodes).rev() {
            let j = rng.gen_range(0..i);
            let (a, b) = (next.get_silent(i), next.get_silent(j));
            next.set_silent(i, b);
            next.set_silent(j, a);
        }
        let marks = TracedArray::new(sp.alloc(nodes), nodes);
        let ends = TracedArray::new(sp.alloc(procs), procs);
        Arc::new(GraphWalkProgram {
            procs,
            nodes,
            steps,
            next,
            marks,
            ends,
        })
    }

    /// Process `pid`'s starting node: spread evenly around the cycle's
    /// index space.
    fn start_of(&self, pid: usize) -> usize {
        pid * self.nodes / self.procs
    }

    /// Untraced walk — the analytically expected end node.
    pub fn silent_walk(&self, start: usize, steps: usize) -> usize {
        let mut cur = start;
        for _ in 0..steps {
            cur = self.next.get_silent(cur) as usize;
        }
        cur
    }

    /// Untraced end node for process `pid`.
    pub fn expected_end(&self, pid: usize) -> usize {
        self.silent_walk(self.start_of(pid), self.steps)
    }
}

impl SpmdProgram for GraphWalkProgram {
    fn processes(&self) -> usize {
        self.procs
    }

    fn run(&self, pid: usize, ctx: &mut SpmdCtx) {
        let mut cur = self.start_of(pid);
        let mut carry = 0.0f64;
        for s in 0..self.steps {
            cur = self.next.get(ctx, cur) as usize;
            if s % MARK_EVERY == MARK_EVERY - 1 {
                self.marks.set(ctx, cur, pid as u32);
            }
            carry += HOP_COMPUTE;
            let k = carry as u32;
            if k > 0 {
                ctx.compute(k);
                carry -= k as f64;
            }
            if s % SYNC_EVERY == SYNC_EVERY - 1 {
                ctx.barrier();
            }
        }
        // Record where the walk ended so the result is observable (and
        // checkable) after the run; slots are per-process, so no races.
        self.ends.set(ctx, pid, cur as u64);
        ctx.barrier();
    }

    fn partitions(&self) -> Vec<(u64, u64, usize)> {
        // Successors and marks have no owner structure: interleaved homes.
        Vec::new()
    }

    fn name(&self) -> &str {
        "GraphWalk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmd::run_spmd;

    #[test]
    fn permutation_is_a_single_cycle() {
        let p = GraphWalkProgram::random_cycle(257, 1, 1, 5);
        // Walking n steps from 0 returns to 0 and visits every node once.
        let mut seen = vec![false; 257];
        let mut cur = 0usize;
        for _ in 0..257 {
            assert!(!seen[cur], "revisited {cur} early");
            seen[cur] = true;
            cur = p.next.get_silent(cur) as usize;
        }
        assert_eq!(cur, 0);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn walk_ends_where_the_permutation_says() {
        let p = GraphWalkProgram::random_cycle(1024, 5000, 4, 9);
        run_spmd(Arc::clone(&p));
        for pid in 0..4 {
            let end = p.expected_end(pid);
            assert_eq!(p.ends.get_silent(pid), end as u64, "pid {pid}");
        }
    }

    #[test]
    fn reference_counts_and_rho() {
        let steps = 8192usize;
        let c = run_spmd(GraphWalkProgram::random_cycle(4096, steps, 2, 1));
        // Per process: one read per hop, a mark write every 16 hops, and
        // the final end-marker write.
        assert_eq!(c.reads, 2 * steps as u64);
        assert_eq!(c.writes, 2 * (steps / MARK_EVERY + 1) as u64);
        // 2 sync barriers + final, per process.
        assert_eq!(c.barriers, 2 * (steps / SYNC_EVERY + 1) as u64);
        assert!((c.rho() - 0.43).abs() < 0.02, "rho {}", c.rho());
    }

    #[test]
    fn deterministic_for_seed() {
        let a = run_spmd(GraphWalkProgram::random_cycle(2048, 3000, 2, 42));
        let b = run_spmd(GraphWalkProgram::random_cycle(2048, 3000, 2, 42));
        assert_eq!(a, b);
    }
}
