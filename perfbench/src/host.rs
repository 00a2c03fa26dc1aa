//! Host-noise diagnostics, the CPU clocks the host-time metrics read, and
//! process-level measurements. No diagnostic is folded into an end-to-end
//! metric: they explain a noisy run, they do not correct it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall milliseconds of a fixed reference kernel that lives in the
/// benchmark's own code (sorting a seeded array of 2^18 integers), so a
/// run on a slow or contended host shows up as a high value here.
pub fn calib_ms() -> f64 {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut data: Vec<u64> = (0..1 << 18).map(|_| splitmix(&mut state)).collect();
    let start = Instant::now();
    data.sort_unstable();
    let sum = data.iter().step_by(1024).fold(0u64, |a, &b| a.wrapping_add(b));
    black_box(sum);
    start.elapsed().as_secs_f64() * 1e3
}

/// Total milliseconds of gaps longer than 100 µs between consecutive
/// clock reads while spinning for `span` — time the process was not
/// running although it asked to.
pub fn stall_ms(span: Duration) -> f64 {
    let gap = Duration::from_micros(100);
    let start = Instant::now();
    let mut prev = start;
    let mut stalled = Duration::ZERO;
    while prev - start < span {
        let now = Instant::now();
        if now - prev > gap {
            stalled += now - prev;
        }
        prev = now;
    }
    stalled.as_secs_f64() * 1e3
}

/// CPU time of this process, every thread alive or exited, in
/// nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`). On a KVM guest with
/// paravirtual steal accounting the scheduler leaves time stolen by the
/// hypervisor out of it; wall time counts it.
pub fn cpu_ns() -> u64 {
    clock_ns(2)
}

/// CPU time of the calling thread alone, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`): unlike [`cpu_ns`], it leaves out threads
/// the measured code spawns, whose start-up overlaps it or not depending
/// on how the host schedules the other vCPU.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(3)
}

/// `clock_gettime(clock)` in nanoseconds.
fn clock_ns(clock: std::os::raw::c_int) -> u64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The SplitMix64 step: the benchmark's own seeded generator, so inputs
/// depend only on `--seed`, never on a library's RNG stream.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from [`splitmix`].
pub fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: time the
/// hypervisor ran something else while this VM's vCPUs were runnable.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Calibration and stall probe taken at the start of a run; finished by
/// [`HostProbe::finish`] at the end.
pub struct HostProbe {
    calib: Vec<f64>,
    stall: f64,
    jiffies: (u64, u64),
}

impl HostProbe {
    const STALL_SPAN: Duration = Duration::from_millis(100);

    pub fn start() -> HostProbe {
        let calib = vec![calib_ms(), calib_ms()];
        HostProbe { calib, stall: stall_ms(Self::STALL_SPAN), jiffies: cpu_jiffies() }
    }

    /// `(calib_ms, stall_ms)`: the median reference-kernel time over the
    /// start and end samples, and the stall total of both probes. Prints
    /// the start/end split as a diagnostic line.
    pub fn finish(mut self) -> (f64, f64) {
        let (steal, total) = cpu_jiffies();
        let steal_share = (steal - self.jiffies.0) as f64 / (total - self.jiffies.1).max(1) as f64;
        let end = [calib_ms(), calib_ms()];
        self.stall += stall_ms(Self::STALL_SPAN);
        println!(
            "host: calib_ms start {:.3} {:.3} end {:.3} {:.3}; stall_ms {:.3}; cpu steal {:.1}%",
            self.calib[0],
            self.calib[1],
            end[0],
            end[1],
            self.stall,
            steal_share * 100.0
        );
        self.calib.extend_from_slice(&end);
        self.calib.sort_by(f64::total_cmp);
        ((self.calib[1] + self.calib[2]) / 2.0, self.stall)
    }
}
