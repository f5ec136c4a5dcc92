//! Host speed, measured alongside the workload.
//!
//! The host is a shared virtual machine whose speed drifts by tens of
//! percent over minutes. A fixed reference kernel — a small
//! register-machine interpreter owned by the benchmark, so no program
//! change can speed it up — is timed in short chunks between units of the
//! workload's own work. A chunk's speed relative to a nominal host
//! scales the CPU times measured just before it to nominal speed, so
//! CPU-bound metrics do not move with the host. README.md gives the
//! measurements behind the choice of kernel.

use crate::stats::{self, Rng};

/// Interpreter steps per chunk (about 4 ms of CPU).
const STEPS: u64 = 200_000;
/// Data words the interpreter loads and stores (256 KiB).
const DATA_WORDS: usize = 1 << 16;
/// CPU time of one chunk on the nominal host, in ns.
const NOMINAL_NS: f64 = 4_000_000.0;

pub struct HostSpeed {
    prog: Vec<(u8, u8, u8)>,
    data: Vec<u32>,
    chunk_ns: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let mut rng = Rng::new(0x5eed);
        let prog = (0..4096)
            .map(|_| {
                let v = rng.next_u64();
                (v as u8, (v >> 8) as u8, (v >> 16) as u8)
            })
            .collect();
        HostSpeed { prog, data: vec![0; DATA_WORDS], chunk_ns: Vec::new() }
    }

    /// Times one chunk of the reference interpreter and returns the
    /// host's speed during it relative to the nominal host (above 1:
    /// faster).
    pub fn sample(&mut self) -> f64 {
        // An untimed pass over the kernel's program and data first, so
        // the timed chunk does not depend on what the work before it
        // left in the caches.
        let warm = self.data.iter().fold(0u32, |a, &w| a.wrapping_add(w))
            ^ self.prog.iter().fold(0u32, |a, &(op, x, y)| a ^ u32::from_le_bytes([op, x, y, 0]));
        std::hint::black_box(warm);
        let cpu = stats::thread_cpu_ns();
        let mut r = [1u32; 8];
        let mut pc = 0usize;
        let mask = self.data.len() - 1;
        for _ in 0..STEPS {
            let (op, a, b) = self.prog[pc];
            let (a, b) = (a as usize & 7, b as usize & 7);
            match op % 6 {
                0 => r[a] = r[a].wrapping_add(r[b]),
                1 => r[a] = r[a].wrapping_mul(r[b] | 1),
                2 => r[a] = self.data[r[b] as usize & mask],
                3 => self.data[r[a] as usize & mask] = r[b],
                4 => {
                    if r[a] & 1 == 0 {
                        pc = (pc + (r[b] as usize & 15)) % self.prog.len();
                    }
                }
                _ => r[a] ^= r[b] >> 3,
            }
            pc = (pc + 1) % self.prog.len();
        }
        std::hint::black_box(r);
        let ns = (stats::thread_cpu_ns() - cpu) as f64;
        self.chunk_ns.push(ns);
        NOMINAL_NS / ns
    }

    /// The host's speed relative to the nominal host (above 1: faster),
    /// from the median chunk time so far.
    pub fn factor(&self) -> f64 {
        assert!(!self.chunk_ns.is_empty(), "host speed needs at least one sample");
        NOMINAL_NS / stats::median(&self.chunk_ns)
    }
}
