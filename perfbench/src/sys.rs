//! Host facts and process CPU time, read through system calls so the
//! benchmark reads no file outside its checkout. The CPU clock has
//! nanosecond resolution: `pubsub-live` opens a measuring window per
//! document of about half a millisecond, far below the 10 ms ticks of
//! `/proc/self/stat`.

/// Process CPU time (user + system, all threads) in seconds.
#[cfg(target_os = "linux")]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that lives across the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Process CPU time is only read on Linux; elsewhere CPU metrics read 0.
#[cfg(not(target_os = "linux"))]
pub fn cpu_seconds() -> f64 {
    0.0
}

/// Kernel release, as `uname -r` prints it.
#[cfg(target_os = "linux")]
pub fn kernel() -> String {
    #[repr(C)]
    struct Utsname {
        fields: [[u8; 65]; 6],
    }
    extern "C" {
        fn uname(buf: *mut Utsname) -> i32;
    }
    let mut u = Utsname { fields: [[0; 65]; 6] };
    // SAFETY: `u` has the layout of Linux's `struct utsname` (six
    // 65-byte NUL-terminated fields) and is writable for the call.
    if unsafe { uname(&mut u) } != 0 {
        return "unknown".into();
    }
    let release = &u.fields[2];
    let end = release.iter().position(|&b| b == 0).unwrap_or(release.len());
    String::from_utf8_lossy(&release[..end]).into_owned()
}

#[cfg(not(target_os = "linux"))]
pub fn kernel() -> String {
    "unknown".into()
}

/// CPU model from the processor's brand string.
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // The brand string sits in extended leaves 0x8000_0002..=4, present
    // when leaf 0x8000_0000 reports them.
    #[allow(unused_unsafe)]
    // SAFETY: CPUID exists on every x86-64 processor.
    let max = unsafe { __cpuid(0x8000_0000) }.eax;
    if max < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        #[allow(unused_unsafe)]
        // SAFETY: the leaf is within the range checked above.
        let r = unsafe { __cpuid(leaf) };
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
    String::from_utf8_lossy(&bytes[..end]).trim().to_owned()
}

#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".into()
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = super::cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        if cfg!(target_os = "linux") {
            assert!(super::cpu_seconds() > t0);
        }
    }

    #[test]
    fn host_facts_are_non_empty() {
        assert!(!super::kernel().is_empty());
        assert!(!super::cpu_model().is_empty());
        assert!(super::nproc() >= 1);
    }
}
