//! Multithreaded elastic channels.
//!
//! A channel carries the data of **one thread per cycle** plus one
//! `valid(i)/ready(i)` handshake pair per thread (paper, Sec. III). A
//! single-thread channel (`threads == 1`) degenerates to the baseline
//! elastic channel of Sec. II. The handshake bits live in packed
//! [`ThreadMask`] words (see `mask.rs`), so popcounts, invariant checks
//! and change detection are word-level operations.

use crate::mask::ThreadMask;
use crate::token::Token;

/// Opaque handle to a channel inside a circuit.
///
/// Created by [`CircuitBuilder::channel`](crate::CircuitBuilder::channel)
/// and passed to components at construction time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChannelId(pub(crate) usize);

impl ChannelId {
    /// Raw index of this channel inside its circuit.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Static description of a channel: its name and thread count.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChannelSpec {
    /// Human-readable name, used in traces and error messages.
    pub name: String,
    /// Number of concurrent threads the channel supports (`S` in the paper).
    pub threads: usize,
}

/// The live signal state of one channel during a cycle.
///
/// All signals are combinationally re-driven on every settle iteration;
/// they are reset at the start of each cycle. Once settle has converged,
/// the kernel's channel pass checks the protocol invariant and latches
/// the channel's clock-edge outcome into `offered`/`fired`: an MT channel
/// carries at most one thread's token per cycle, so that outcome is a
/// single fact every later reader (statistics, trace, `tick`) takes in
/// O(1) instead of re-deriving it from the masks.
#[derive(Clone, Debug)]
pub(crate) struct ChannelState<T: Token> {
    pub spec: ChannelSpec,
    /// Per-thread `valid` bits, driven by the producer.
    pub valid: ThreadMask,
    /// Per-thread `ready` bits, driven by the consumer.
    pub ready: ThreadMask,
    /// The (single) data word, driven by the producer.
    pub data: Option<T>,
    /// Latched after settle: the one thread whose `valid` is high.
    pub offered: Option<usize>,
    /// Latched after settle: the offered thread's `ready` is high too,
    /// so its transfer fires at this clock edge.
    pub fired: bool,
}

impl<T: Token> ChannelState<T> {
    pub fn new(spec: ChannelSpec) -> Self {
        let threads = spec.threads;
        Self {
            spec,
            valid: ThreadMask::new(threads),
            ready: ThreadMask::new(threads),
            data: None,
            offered: None,
            fired: false,
        }
    }

    /// Returns `Some(thread)` if exactly the one thread `thread` is valid.
    pub fn single_valid(&self) -> Option<usize> {
        self.valid.single()
    }

    /// Latches the settled clock-edge outcome. The caller has already
    /// checked that at most one `valid` bit is set.
    #[inline]
    pub fn latch(&mut self, offered: Option<usize>) {
        self.offered = offered;
        self.fired = offered.is_some_and(|t| self.ready.get(t));
    }

    /// Clears the signals and the latch (circuit reset).
    pub fn clear(&mut self) {
        self.valid.clear();
        self.ready.clear();
        self.data = None;
        self.offered = None;
        self.fired = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch() -> ChannelState<u64> {
        ChannelState::new(ChannelSpec {
            name: "c".into(),
            threads: 3,
        })
    }

    #[test]
    fn new_channel_starts_idle() {
        let c = ch();
        assert!(!c.valid.any());
        assert!(!c.ready.any());
        assert_eq!(c.data, None);
    }

    #[test]
    fn single_valid_detects_exactly_one() {
        let mut c = ch();
        assert_eq!(c.single_valid(), None);
        c.valid.set(2, true);
        assert_eq!(c.single_valid(), Some(2));
        c.valid.set(0, true);
        assert_eq!(c.single_valid(), None);
        assert_eq!(c.valid.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn latch_fires_only_with_ready() {
        let mut c = ch();
        c.valid.set(0, true);
        c.latch(Some(0));
        assert_eq!((c.offered, c.fired), (Some(0), false));
        c.ready.set(0, true);
        c.latch(Some(0));
        assert_eq!((c.offered, c.fired), (Some(0), true));
        c.latch(None);
        assert_eq!((c.offered, c.fired), (None, false));
        c.clear();
        assert!(!c.valid.any() && !c.ready.any());
    }
}
