//! Where the run happens: the output directory, the per-run scratch
//! directory, and the host facts every result records.

use std::path::{Path, PathBuf};

/// Label carried by every result: numbers from this host are never
/// presented as scaling.
pub const HOST_LABEL: &str = "2-core shared host";

/// `<package>/out`: trace files, result files and the scratch
/// directories all live here, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-run temporary directory under `out/`, removed when dropped —
/// on success and, through unwinding, on failure.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    pub fn create(workload: &str) -> std::io::Result<Self> {
        let root = out_dir().join(format!("tmp-{workload}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, tag: &str) -> std::io::Result<PathBuf> {
        let dir = self.root.join(format!("{tag}-{}", self.next.get()));
        self.next.set(self.next.get() + 1);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Hardware threads available to this process when it started: the
/// first call is made before `pin_to_one_cpu` narrows the answer.
pub fn nproc() -> usize {
    static AT_START: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AT_START.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The CPUs a thread may run on, as the kernel's bit mask (1024 CPUs).
#[derive(Debug, Clone, Copy)]
pub struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
mod affinity {
    // std links the C library already; these are its prototypes.
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// Restrict the calling thread, and every thread it starts from now on,
/// to the highest-numbered CPU it is allowed on (the lowest usually
/// takes the device interrupts). Returns that CPU and the set to hand
/// back to `restore_cpus`, or `None` where the host has no such call.
///
/// Why the benchmark does this: on a shared host with a few virtual
/// CPUs, a thread the kernel moves between them, or wakes on one that
/// the hypervisor has parked, pays a cost that is the host's and not
/// the program's, and that cost differs from run to run by tens of
/// percent. With one CPU every hand-off is a context switch on that CPU
/// and costs the same every time. No workload needs a second CPU: the
/// query and ingest workloads are one thread, and `serve_http` offers
/// 300 requests/s to a server that answers one in under 100 us.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<(usize, CpuSet)> {
    let mut allowed = CpuSet([0; 16]);
    let size = std::mem::size_of_val(&allowed.0);
    // SAFETY: the pointer is to `size` writable bytes owned by `allowed`.
    if unsafe { affinity::sched_getaffinity(0, size, allowed.0.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..64 * allowed.0.len())
        .rev()
        .find(|&cpu| allowed.0[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the pointer is to `size` readable bytes owned by `one`.
    (unsafe { affinity::sched_setaffinity(0, size, one.0.as_ptr()) } == 0).then_some((cpu, allowed))
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<(usize, CpuSet)> {
    None
}

/// Let the calling thread run on `set` again.
#[cfg(target_os = "linux")]
pub fn restore_cpus(set: &CpuSet) {
    // SAFETY: the pointer is to as many readable bytes as the size says.
    unsafe { affinity::sched_setaffinity(0, std::mem::size_of_val(&set.0), set.0.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
pub fn restore_cpus(_set: &CpuSet) {}

/// Resident set size in MiB (`VmRSS` of `/proc/self/status`), 0 where
/// that file does not exist.
pub fn rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` beside the package; the
/// driver's checkout is not a repository, so this is often "unknown".
pub fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}
