//! Spreads the measured work over every CPU the process may run on.
//!
//! On a shared host one CPU can run the same code well over a third slower
//! than another, in spells that last from a second to minutes, and a thread
//! the scheduler leaves on the slow CPU is slow for the whole spell. Pinning
//! successive timed calls to the allowed CPUs in turn gives every instance
//! samples on each of them, so its fastest pass is slow only when all of them
//! were slow whenever it ran.

/// The CPUs this process may run on, in ascending order; empty when they
/// cannot be read (then nothing is pinned).
pub fn allowed() -> Vec<usize> {
    imp::allowed()
}

/// Moves the calling thread onto `cpus[turn % cpus.len()]`. Pinning is a
/// scheduling hint only, so a failure leaves the thread where it was.
pub fn pin(cpus: &[usize], turn: usize) {
    if cpus.len() > 1 {
        imp::pin(cpus[turn % cpus.len()]);
    }
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t`: a bit mask of 1024 CPUs.
    type CpuSet = [u64; 16];
    const BITS: usize = 64;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable `cpu_set_t` of the size passed; pid 0
        // is the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
            return Vec::new();
        }
        (0..mask.len() * BITS)
            .filter(|&c| mask[c / BITS] >> (c % BITS) & 1 == 1)
            .collect()
    }

    pub fn pin(cpu: usize) {
        let mut mask: CpuSet = [0; 16];
        mask[cpu / BITS] |= 1 << (cpu % BITS);
        // SAFETY: `mask` is a readable `cpu_set_t` of the size passed; pid 0
        // is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) {}
}
