//! # resim-mem
//!
//! Tag-only cache and memory-system timing models for ReSim
//! (Fytraki & Pnevmatikatos, DATE 2009).
//!
//! ReSim is trace-driven and "does not store the actual data, \[it\] need\[s\]
//! to provide only the hit/miss indication and simulate the access latency"
//! (§V, Table 4 discussion) — so these models keep tags and replacement
//! state only, never data.
//!
//! The paper evaluates two memory configurations (§V.C):
//!
//! * a **perfect memory system** — every access hits in one cycle
//!   ([`MemorySystemConfig::Perfect`], Table 1 left / Table 3);
//! * **32 KByte L1 instruction and data caches** with associativity 8 and
//!   64-byte blocks, matching FAST's L1 for the head-to-head comparison
//!   ([`CacheConfig::l1_32k`], Table 1 right).
//!
//! ## Example
//!
//! ```
//! use resim_mem::{CacheConfig, MemorySystem, MemorySystemConfig};
//!
//! let mut mem = MemorySystem::new(MemorySystemConfig::l1_32k());
//! let first = mem.data_access(0x8000, false);   // cold miss
//! let second = mem.data_access(0x8000, false);  // hit
//! assert!(first.latency > second.latency);
//! assert!(second.hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod from_table;
mod system;

pub use cache::{AccessResult, Cache, CacheConfig, CacheStats, Replacement};
pub use from_table::{CACHE_KEYS, PERFECT_MEMORY_KEYS, SPLIT_MEMORY_KEYS};
pub use system::{MemorySystem, MemorySystemConfig, MemorySystemStats};
