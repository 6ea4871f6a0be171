//! Keeps the server's loops and the load generator on different cores.
//!
//! The generator never sleeps, and a socket write wakes the server loop
//! as a *sync* wakeup, which tells the scheduler the waker is about to
//! sleep, so it places the loop on the generator's core. Left alone,
//! the two then share one core while the other idles. The server's
//! threads get the lower half of the CPUs and the generator the upper
//! half; threads inherit the affinity of the thread that spawns them.

use std::ffi::c_int;

/// Words in the CPU mask handed to the kernel (its `cpu_set_t` size).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// `(server CPUs, generator CPUs)`; both get every CPU on a one-core
/// host.
pub fn split() -> (Vec<usize>, Vec<usize>) {
    let n = crate::config::nproc();
    if n < 2 {
        return (vec![0], vec![0]);
    }
    ((0..n / 2).collect(), (n / 2..n).collect())
}

/// Restricts the calling thread (and threads it spawns later) to
/// `cpus`. Best effort: on failure the threads stay unpinned.
pub fn pin_current_thread(cpus: &[usize]) {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live array of exactly `size_of_val(&mask)`
    // bytes, which the kernel only reads; pid 0 means this thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}
