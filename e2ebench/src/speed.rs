//! Host speed: a fixed reference kernel, timed between iterations, that
//! scales host times to the speed of a quiet reference host.
//!
//! On a shared host the CPU runs slower for minutes at a time under
//! neighbour load, and CPU time is charged for that too, so no quantile of
//! one run's samples removes a slow window. The kernel here is frozen
//! benchmark code, so a change to the simulator cannot move it; only the
//! host can. It imitates the simulator's hot loop rather than a pure
//! compute loop: it streams a 4 MiB record array, as the engine streams a
//! trace, indexes a gshare table of two-bit counters whose outcomes are
//! hard to predict, looks up a set-associative tag array, and schedules
//! each record against register ready times in a reorder-buffer ring. A
//! latency-bound loop over a small table barely slows under the
//! contention that slows the simulator by 1.4x or more; this one feels
//! the same branch, issue-width and cache pressure.

use crate::clock::median;
use std::hint::black_box;
use std::time::Instant;

/// Records in the reference stream: 256 Ki records of 16 bytes, 4 MiB,
/// twice the per-core L2 of the reference host, as a trace is.
const RECORDS: usize = 1 << 18;
/// Records one chunk processes; a chunk takes about a millisecond.
const CHUNK: usize = 1 << 15;
/// Two-bit counters of the gshare table, and global history bits.
const COUNTERS: usize = 1 << 14;
/// Sets and ways of the tag array (64-byte lines, 256 KiB in all).
const SETS: usize = 512;
const WAYS: usize = 8;
/// Reorder-buffer ring entries.
const ROB: usize = 128;
/// Chunk times a run keeps without growing its vector: a 20-s run
/// spends 5 % of its time, about 2,000 chunks, in blocks.
const CHUNK_TIMES: usize = 1 << 16;

/// Median chunk time (s) on the reference host in a quiet window; host
/// times are scaled by this over the measured median.
pub const NOMINAL_CHUNK_S: f64 = 0.5e-3;

/// One reference record: pc, data address, and a packed byte each of
/// operation class, destination, sources and branch outcome.
#[derive(Clone, Copy)]
struct Rec {
    pc: u32,
    addr: u32,
    op: u8,
    dst: u8,
    src: [u8; 2],
    taken: bool,
}

/// The reference kernel's inputs and machine state.
pub struct Reference {
    stream: Vec<Rec>,
    counters: Vec<u8>,
    tags: Vec<u32>,
    ages: Vec<u8>,
    ready: [u64; 64],
    rob: [u64; ROB],
    next: usize,
    /// Every chunk time measured so far (s).
    chunks: Vec<f64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    /// Builds the fixed reference stream; the same on every run.
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut pc = 0x1000u32;
        let stream = (0..RECORDS)
            .map(|i| {
                let r = xorshift(&mut x);
                let op = (r % 8) as u8;
                // Branches taken by a per-pc bias with 1-in-8 noise, so
                // the predictor is right most of the time, not always.
                let bias = (pc >> 4).is_multiple_of(3);
                let taken = op == 0 && (bias ^ (r >> 20).is_multiple_of(8));
                // Half the accesses stride, half land anywhere in 1 MiB.
                let addr = if r >> 40 & 1 == 0 {
                    (i as u32).wrapping_mul(8) & 0xf_ffff
                } else {
                    (r >> 44) as u32 & 0xf_ffff
                };
                let rec = Rec {
                    pc,
                    addr,
                    op,
                    dst: (r >> 8) as u8 % 64,
                    src: [(r >> 16) as u8 % 64, (r >> 24) as u8 % 64],
                    taken,
                };
                pc = if taken {
                    (r >> 32) as u32 & 0xffc
                } else {
                    pc.wrapping_add(4)
                };
                rec
            })
            .collect();
        Self {
            stream,
            counters: vec![1; COUNTERS],
            tags: vec![u32::MAX; SETS * WAYS],
            ages: vec![0; SETS * WAYS],
            ready: [0; 64],
            rob: [0; ROB],
            next: 0,
            // Reserved once, so that the time-dependent number of chunks
            // does not reach the allocator while peak memory is read.
            chunks: Vec::with_capacity(CHUNK_TIMES),
        }
    }

    /// Processes the next `CHUNK` records; returns the simulated cycle
    /// count, which only keeps the work from being optimized away.
    fn chunk(&mut self) -> u64 {
        let start = self.next;
        self.next = (self.next + CHUNK) % RECORDS;
        let (mut cycle, mut hist, mut head) = (0u64, 0usize, 0usize);
        for rec in &self.stream[start..start + CHUNK] {
            let mut lat = 1 + u64::from(rec.op % 3);
            if rec.op == 0 {
                let idx = ((rec.pc as usize >> 2) ^ hist) % COUNTERS;
                let c = &mut self.counters[idx];
                if (*c >= 2) != rec.taken {
                    cycle += 10;
                }
                if rec.taken {
                    *c = (*c + 1).min(3);
                } else {
                    *c = c.saturating_sub(1);
                }
                hist = (hist << 1 | rec.taken as usize) % COUNTERS;
            } else if rec.op <= 3 {
                let line = rec.addr >> 6;
                let set = line as usize % SETS * WAYS;
                let ways = &mut self.tags[set..set + WAYS];
                let ages = &mut self.ages[set..set + WAYS];
                let way = match ways.iter().position(|&t| t == line) {
                    Some(w) => w,
                    None => {
                        lat += 20;
                        let w = (0..WAYS).max_by_key(|&w| ages[w]).expect("WAYS > 0");
                        ways[w] = line;
                        w
                    }
                };
                for (w, age) in ages.iter_mut().enumerate() {
                    *age = if w == way { 0 } else { age.saturating_add(1) };
                }
            }
            let [a, b] = rec.src;
            let issue = self.ready[a as usize]
                .max(self.ready[b as usize])
                .max(self.rob[head])
                .max(cycle / 4);
            self.ready[rec.dst as usize] = issue + lat;
            self.rob[head] = issue + lat;
            head = (head + 1) % ROB;
            cycle = cycle.max(issue);
        }
        cycle
    }

    /// Runs chunks for at least `min_s` seconds and `min_chunks` chunks,
    /// recording each one's time; returns the median chunk time (s) of
    /// this block.
    pub fn block(&mut self, min_s: f64, min_chunks: usize) -> f64 {
        let first = self.chunks.len();
        let t_block = Instant::now();
        while self.chunks.len() - first < min_chunks || t_block.elapsed().as_secs_f64() < min_s {
            let t0 = Instant::now();
            black_box(self.chunk());
            self.chunks.push(t0.elapsed().as_secs_f64());
        }
        median(&self.chunks[first..])
    }

    /// Every chunk time measured so far (s).
    pub fn chunk_times(&self) -> &[f64] {
        &self.chunks
    }
}

/// Host slowness of a block: its median chunk time over the nominal one
/// (1.0 on the reference host in a quiet window, 1.4 when the kernel runs
/// 1.4x slower).
pub fn slowness(block_median_s: f64) -> f64 {
    block_median_s / NOMINAL_CHUNK_S
}

/// How much harder the simulator slows than the kernel: its busy time
/// grows as slowness to this power. Regressing the log of a run's median
/// unscaled wall time on the log of its median slowness, over thirty
/// runs per workload in light to heavy load, gave 1.23 on `table1`, 1.40
/// on `grid-deep` and 1.50 on `replay`. With 1.4 the medians of three
/// ten-run sets stayed within 3 %, 2 % and 5 % of each other on those
/// workloads, against 4 %, 4 % and 13 % with 1.2.
pub const ELASTICITY: f64 = 1.4;

/// `busy_s` of host time measured at `slowness`, scaled to the
/// reference host's quiet speed.
pub fn at_reference_speed(busy_s: f64, slowness: f64) -> f64 {
    busy_s / slowness.powf(ELASTICITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_blocks_time_it() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        assert_eq!(a.chunk(), b.chunk());
        assert_eq!(a.chunk(), b.chunk());
        let m = a.block(0.0, 3);
        assert!(m > 0.0);
        assert_eq!(a.chunk_times().len(), 3);
    }
}
