//! What the benchmark reads from, and records about, the host.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `git rev-parse HEAD`, or "unknown" outside a git checkout.
pub fn git_rev() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

fn proc_field(file: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Resident set size now, in MB (`VmRSS`); 0 where /proc is absent.
pub fn rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmRSS:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Give the heap's free pages back to the kernel (glibc `malloc_trim`),
/// so that `rss_mb` reads what is allocated, not what was.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: takes no pointers; glibc allows it at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// `write`-family system calls this process has made (`syscw`).
pub fn write_syscalls() -> u64 {
    proc_field("/proc/self/io", "syscw:").unwrap_or(0)
}

/// Mean ns per load of a dependent chase through 64 MB: a slow host
/// reads high. Reported, never used to normalise.
pub fn probe_ns() -> f64 {
    const SLOTS: usize = 1 << 24; // × 4 B = 64 MB
    const STEPS: usize = 1 << 20;
    // A full-period LCG over 2^24 (c odd, a ≡ 1 mod 4): one cycle
    // through every slot, in an order no prefetcher follows.
    let next: Vec<u32> = (0..SLOTS as u32)
        .map(|i| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) & (SLOTS as u32 - 1))
        .collect();
    let mut at = 0u32;
    let t = Instant::now();
    for _ in 0..STEPS {
        at = next[at as usize];
    }
    let ns = t.elapsed().as_nanos() as f64 / STEPS as f64;
    std::hint::black_box(at);
    ns
}

/// The directory the workloads write their files in, on the repo's own
/// filesystem so `fsync` is real. Wiped when taken, removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn take() -> std::io::Result<Self> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scratch");
        match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
