//! Process accounting and the host stamp: CPU seconds and peak resident
//! set from `getrusage(2)`, the CPU model, and a fixed-shape matmul rate
//! that serves as the host-speed reference printed beside every run.

use std::time::Instant;

use idsbench_nn::Matrix;

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// `struct rusage` on 64-bit Linux: two `timeval`s (user, system) followed
/// by fourteen `long`s, of which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    fields: [i64; 18],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// CPU seconds (user + system) and peak resident set in KiB.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_s: f64,
    pub maxrss_kib: u64,
}

fn usage(who: i32) -> Usage {
    let mut raw = RUsage { fields: [0; 18] };
    // SAFETY: `raw` is a writable buffer of exactly the size and layout of
    // `struct rusage` on 64-bit Linux, and `who` is one of the two values
    // the call accepts; the call writes only inside that buffer.
    let rc = unsafe { getrusage(who, &mut raw) };
    assert_eq!(rc, 0, "getrusage failed");
    let f = raw.fields;
    Usage {
        cpu_s: f[0] as f64 + f[1] as f64 * 1e-6 + f[2] as f64 + f[3] as f64 * 1e-6,
        maxrss_kib: f[4].max(0) as u64,
    }
}

/// This process, all threads.
pub fn self_usage() -> Usage {
    usage(RUSAGE_SELF)
}

/// Every child process this process has waited for.
pub fn children_usage() -> Usage {
    usage(RUSAGE_CHILDREN)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// GFLOP/s of `Matrix::matmul_into` at a fixed 128×128·128×128 shape: the
/// median of five windows of at least 100 ms each.
pub fn matmul_gflops() -> f64 {
    const N: usize = 128;
    let a = Matrix::from_fn(N, N, |r, c| ((r * 31 + c * 17) % 97) as f64 / 97.0 - 0.5);
    let b = Matrix::from_fn(N, N, |r, c| ((r * 13 + c * 29) % 89) as f64 / 89.0 - 0.5);
    let mut out = Matrix::zeros(N, N);
    let flops_per_call = 2.0 * (N * N * N) as f64;
    let mut rates = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let mut calls = 0u64;
        while started.elapsed().as_secs_f64() < 0.1 {
            std::hint::black_box(&a).matmul_into(std::hint::black_box(&b), &mut out);
            std::hint::black_box(&out);
            calls += 1;
        }
        rates.push(calls as f64 * flops_per_call / started.elapsed().as_secs_f64() / 1e9);
    }
    crate::stats::median(&mut rates)
}
