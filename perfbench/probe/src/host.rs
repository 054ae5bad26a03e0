//! Host-speed reference for normalizing host times.
//!
//! Shared 2-vCPU hosts drift: the same unit of work can take twice as
//! long a few minutes later while a run's own units agree within a few
//! percent. This kernel belongs to the benchmark, not to moca — no change
//! to the program can move it. It runs one thread per job, each mixing
//! integer work with dependent random reads and writes over a 256 KiB
//! table. Its time tracked the units' drift (correlation 0.85–0.88 over a
//! 2× slowdown); a 4 MiB table swung 5× over the same slowdown and
//! tracked worse.

use std::hint::black_box;
use std::time::Instant;

/// Table entries per thread (256 KiB).
const TABLE: usize = 1 << 15;
/// Loop iterations per thread.
const ITERS: u64 = 12_000_000;

/// One thread's share; returns its loop time in nanoseconds.
fn kernel(seed: u64) -> u64 {
    let mut table: Vec<u64> = (0..TABLE as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seed)
        .collect();
    let start = Instant::now();
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut y = x;
        for _ in 0..2 {
            y = y.wrapping_mul(0xff51_afd7_ed55_8ccd) ^ (y >> 29);
        }
        let i = (x ^ acc) as usize & (TABLE - 1);
        let v = table[i];
        if (v ^ y) & 1 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            acc ^= v >> 3;
        }
        table[i] = v.wrapping_add(y);
    }
    black_box((acc, &table));
    u64::try_from(start.elapsed().as_nanos()).expect("kernel runs < 584 years")
}

/// Runs the kernel on `threads` threads at once; returns the slowest
/// thread's loop time in nanoseconds.
pub fn calibrate(threads: usize) -> u64 {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| s.spawn(move || kernel(0x2545_f491_4f6c_dd1d ^ t)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration kernel does not panic"))
            .max()
            .unwrap_or(0)
    })
}
