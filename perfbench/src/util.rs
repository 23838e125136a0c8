//! Input randomness, the statistics digest and small numeric helpers.

use std::time::Duration;

use elastic_sim::campaign_key;

/// SplitMix64: the benchmark's only source of input randomness. Every
/// generator descends from `--seed`, so a seed fixes every input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for `salt` (a call index, a thread, …).
    pub fn fork(&self, salt: u64) -> Self {
        let mut r = Self(self.0 ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

/// The benchmark's one hash helper: folds 64-bit words with the
/// repository's own `campaign_key` mixing step. It digests simulated
/// statistics (so a simulator-only change can show them byte-identical)
/// and hashes sweep configurations into campaign keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct Digest(u64);

impl Digest {
    pub fn push(&mut self, word: u64) {
        self.0 = campaign_key(self.0, word, 0);
    }

    pub fn extend(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            self.push(w);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile `q` (0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

pub fn nanos(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The CPUs this process may run on, and pinning of the calling thread to
/// one of them, through the C library's `sched_{get,set}affinity`. Off
/// Linux, or when the calls fail, there is nothing to pin to.
pub mod affinity {
    #[cfg(target_os = "linux")]
    mod sys {
        /// Words of glibc's `cpu_set_t` (1024 CPUs).
        const WORDS: usize = 16;

        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }

        pub fn allowed() -> Vec<usize> {
            let mut mask = [0u64; WORDS];
            // SAFETY: `mask` is exactly the `size` bytes passed, and pid 0
            // names the calling thread.
            if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
                return Vec::new();
            }
            (0..WORDS * 64)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        }

        pub fn pin(cpu: usize) -> bool {
            let mut mask = [0u64; WORDS];
            mask[cpu / 64] |= 1 << (cpu % 64);
            // SAFETY: as in `allowed`; the mask is only read.
            unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
        }
    }

    #[cfg(not(target_os = "linux"))]
    mod sys {
        pub fn allowed() -> Vec<usize> {
            Vec::new()
        }

        pub fn pin(_cpu: usize) -> bool {
            false
        }
    }

    pub use sys::{allowed, pin};
}
