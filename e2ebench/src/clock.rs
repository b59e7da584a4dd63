//! Wall and CPU clocks for the timed operations.
//!
//! The end-to-end timings count CPU time. On a virtual machine that
//! shares its host, a vCPU the host takes away stops the wall clock of
//! nothing: wall time then measures the neighbours as much as the
//! program. The kernel leaves that stolen time out of the CPU clocks
//! (paravirtual steal accounting), so CPU time counts only the work the
//! program did. Wall times are still taken and printed in each run's log
//! and in the traced run.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clocks are read through clock_gettime with 64-bit Linux's timespec");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Which CPU clock an operation is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cpu {
    /// Every thread of the process, including threads that a call spawns
    /// and joins. For operations during which no other thread works.
    Process,
    /// The calling thread only. For operations that run beside another
    /// working thread (`grow`'s grower and client).
    Thread,
}

fn cpu_secs(which: Cpu) -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let id = match which {
        Cpu::Process => CLOCK_PROCESS_CPUTIME_ID,
        Cpu::Thread => CLOCK_THREAD_CPUTIME_ID,
    };
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // 64-bit Linux); clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds of one timed span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lap {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// A started timing of both clocks.
pub struct Stopwatch {
    which: Cpu,
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start(which: Cpu) -> Self {
        Stopwatch { which, wall: Instant::now(), cpu: cpu_secs(which) }
    }

    pub fn lap(&self) -> Lap {
        Lap { wall_s: self.wall.elapsed().as_secs_f64(), cpu_s: cpu_secs(self.which) - self.cpu }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_count_work_not_sleep() {
        let sw = Stopwatch::start(Cpu::Thread);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = sw.lap();
        assert!(slept.wall_s >= 0.03 && slept.cpu_s < 0.02, "{slept:?}");
        let sw = Stopwatch::start(Cpu::Process);
        let mut x = 0u64;
        while sw.lap().wall_s < 0.03 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let busy = sw.lap();
        assert!(busy.cpu_s > 0.015 && busy.cpu_s <= busy.wall_s * 2.0 + 0.01, "{busy:?}");
    }
}
