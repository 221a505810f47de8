//! Worker-count default for CPU-bound fan-out.
//!
//! Generation cells are independently seeded (see [`crate::generate`]), so
//! the engine's cell executor can spread them across threads with no
//! change in output; this module only picks how many threads.

/// Default worker count: physical parallelism, capped to keep small
/// sweeps from paying spawn overhead.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}
