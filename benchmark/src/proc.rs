//! What the benchmark reads about its own process and machine from `/proc`.

use crate::json::{obj, Value};
use std::path::Path;

/// `struct timespec` as glibc lays it out on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    // glibc, which std links already; the workspace stays free of crates.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// The process-wide CPU-time clock of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has used so far: all its threads,
/// exited ones included — the total `/proc/self/stat` shows as `utime +
/// stime`, but in nanoseconds where that file counts 10 ms clock ticks. A
/// repetition of 0.5 s is 50 ticks, and the least of 32 such counts reads
/// the same from run to run; std has no reading of this clock.
pub fn cpu_seconds() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `timespec` of glibc's layout and the
    // clock id is a constant the kernel knows; the call writes `now` only.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(rc, 0, "the process CPU-time clock is readable on Linux");
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

/// User + system CPU seconds out of a `/proc/<pid>/stat` line, in the clock
/// ticks the kernel reports there (`USER_HZ` is 100 on every Linux
/// architecture this workspace builds for) — the coarse reading the tests
/// hold [`cpu_seconds`] against. The command name (field 2) may hold spaces
/// and parentheses, so fields are counted from the last `)`.
#[cfg(test)]
fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // After the command come state (field 3) …; utime and stime are 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`, …) in MiB.
pub fn parse_status_mib(status: &str, key: &str) -> Option<f64> {
    let kib: f64 = parse_status_field(status, key)?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The raw text of one `/proc/<pid>/status` field.
pub fn parse_status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_with(|s| parse_status_mib(s, "VmHWM"))
}

/// Live threads of this process right now.
pub fn thread_count() -> f64 {
    status_with(|s| parse_status_field(s, "Threads")?.parse().ok())
}

fn status_with(read: impl Fn(&str) -> Option<f64>) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| read(&s))
        .expect("/proc/self/status is readable on Linux")
}

/// The machine descriptor written with every result file: a number means
/// little without the cores, CPU, build target and disk it was taken on.
pub fn machine_descriptor(out_dir: &Path) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    let mut features = Vec::new();
    for (name, enabled) in [
        ("popcnt", cfg!(target_feature = "popcnt")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx512vpopcntdq", cfg!(target_feature = "avx512vpopcntdq")),
    ] {
        if enabled {
            features.push(Value::from(name));
        }
    }
    obj([
        (
            "cores",
            Value::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("cpu_model", Value::from(cpu_model)),
        ("target_arch", Value::from(std::env::consts::ARCH)),
        // With `-C target-cpu=native` (the repo's .cargo/config.toml, applied
        // when cargo runs from the repo root) the popcount features show here.
        ("target_features", Value::Arr(features)),
        ("commit", Value::from(git_commit())),
        ("out_dir_filesystem", Value::from(filesystem_of(out_dir))),
    ])
}

/// HEAD of the enclosing git checkout, read from `.git` directly (the
/// benchmark starts no helper processes); `unknown` outside a checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = match read(".git/HEAD") {
        Some(head) => head.trim().to_string(),
        None => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// `device type` of the mount holding `dir` — fsync cost depends on it.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_ascii_whitespace();
            let (device, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), format!("{device} {fstype}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, desc)| desc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_skip_a_hostile_command_name() {
        // comm = "a) b (c", utime = 1234 ticks, stime = 66 ticks.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 900 0 0 0 1234 66 0 0 20 0 3 0 \
                    5555 1000000 250 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0";
        assert_eq!(parse_cpu_seconds(stat), Some(13.0));
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t  262144 kB\n\
                      VmRSS:\t  100 kB\nThreads:\t5\n";
        assert_eq!(parse_status_mib(status, "VmHWM"), Some(256.0));
        assert_eq!(parse_status_mib(status, "VmRSS"), Some(100.0 / 1024.0));
        assert_eq!(parse_status_field(status, "Threads"), Some("5"));
        assert_eq!(parse_status_mib(status, "VmSwap"), None);
        // `Vm` must not match `VmHWM:` — the key is the whole field name.
        assert_eq!(parse_status_mib(status, "Vm"), None);
    }

    #[test]
    fn cpu_clock_agrees_with_proc_stat() {
        let spin = std::time::Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        while spin.elapsed().as_secs_f64() < 0.2 {
            x = std::hint::black_box(x ^ (x << 13) ^ (x >> 7));
        }
        let clock = cpu_seconds();
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        let ticks = parse_cpu_seconds(&stat).unwrap();
        assert!(clock >= 0.15, "spun for 0.2 s, clock says {clock}");
        // Other tests of this process run meanwhile: a loose band.
        assert!(
            (clock - ticks).abs() < 0.5,
            "clock {clock} vs /proc/self/stat {ticks}"
        );
    }

    #[test]
    fn live_process_readings_are_sane() {
        assert!(peak_rss_mib() > 0.5);
        assert!(thread_count() >= 1.0);
        let machine = machine_descriptor(Path::new("."));
        assert!(machine.get("cores").unwrap().as_f64().unwrap() >= 1.0);
        assert!(machine.get("cpu_model").unwrap().as_str().is_some());
    }
}
