//! One timing helper for the experiment binaries: warm-up runs, then
//! timed repeats, summarised as the median and the minimum of thread CPU
//! time and of wall time.

use hbn_server::percentile;
use std::time::Instant;

/// How long a repeated step took: the median and the minimum over its
/// timed repeats, in seconds, of the calling thread's CPU time and of
/// wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median thread CPU time.
    pub cpu_median: f64,
    /// Minimum thread CPU time.
    pub cpu_min: f64,
    /// Median wall time.
    pub wall_median: f64,
    /// Minimum wall time.
    pub wall_min: f64,
}

/// Run `step` `warmups` times untimed, then `repeats` times timed, and
/// return the last run's value with the [`Timing`] of the timed runs.
/// Each value is dropped outside the timed window. Medians are
/// nearest-rank ([`hbn_server::percentile`]).
///
/// # Panics
/// Panics if `repeats` is zero.
pub fn measure<T>(warmups: usize, repeats: usize, mut step: impl FnMut() -> T) -> (T, Timing) {
    assert!(repeats > 0, "measure needs at least one timed run");
    for _ in 0..warmups {
        drop(std::hint::black_box(step()));
    }
    let mut cpu = Vec::with_capacity(repeats);
    let mut wall = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let (cpu0, wall0) = (thread_cpu_ns(), Instant::now());
        let value = std::hint::black_box(step());
        cpu.push(thread_cpu_ns() - cpu0);
        wall.push(wall0.elapsed().as_nanos() as u64);
        last = Some(value);
    }
    let secs = |ns: u64| ns as f64 / 1e9;
    let timing = Timing {
        cpu_median: secs(percentile(&cpu, 50.0)),
        cpu_min: secs(cpu.iter().copied().min().unwrap_or(0)),
        wall_median: secs(percentile(&wall, 50.0)),
        wall_min: secs(wall.iter().copied().min().unwrap_or(0)),
    };
    (last.expect("at least one timed run"), timing)
}

/// CPU time of the calling thread, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`): what a step costs the thread that runs
/// it, leaving out time the host steals and time other threads use.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> u64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Off Linux, wall time since the first call stands in for thread CPU
/// time.
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> u64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START.get_or_init(std::time::Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_runs_warmups_then_repeats_and_orders_its_summary() {
        let mut runs = 0;
        let (last, t) = measure(2, 5, || {
            runs += 1;
            (0..20_000u64).map(std::hint::black_box).sum::<u64>() + runs
        });
        assert_eq!(runs, 7);
        assert_eq!(last, (0..20_000u64).sum::<u64>() + 7);
        assert!(t.cpu_min <= t.cpu_median && t.wall_min <= t.wall_median, "{t:?}");
        assert!(t.wall_min > 0.0, "{t:?}");
    }
}
