//! The host stamp, process memory, seed derivation and private scratch
//! directories.

use std::path::{Path, PathBuf};

/// Threads the host offers (`available_parallelism`).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `"nproc":…,"rustc":…,"profile":…` as JSON members.
#[must_use]
pub fn stamp_members() -> String {
    format!(
        "\"nproc\":{},\"rustc\":\"{}\",\"profile\":\"{}\"",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of stream `label`, element `index`, under the run seed.
#[must_use]
pub fn derive(seed: u64, label: &str, index: u64) -> u64 {
    let tag = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    splitmix64(splitmix64(seed ^ tag) ^ index)
}

/// A seeded RNG for stream `label`, element `index`.
#[must_use]
pub fn rng(seed: u64, label: &str, index: u64) -> rand::rngs::StdRng {
    rand::SeedableRng::seed_from_u64(derive(seed, label, index))
}

/// Create a directory under `base` that no other run shares: the name
/// carries the process id and a counter, and `create_dir` fails rather
/// than reuse an existing directory, so concurrent runs never collide.
pub fn create_unique_dir(base: &Path, tag: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(base)?;
    let pid = std::process::id();
    for n in 0u32.. {
        let path = base.join(format!("{tag}-{pid}-{n}"));
        match std::fs::create_dir(&path) {
            Ok(()) => return Ok(path),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
    unreachable!("u32 counter exhausted")
}

/// A scratch directory owned by one run. Dropping it removes that
/// directory and nothing else.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Create a fresh directory under `base` (see [`create_unique_dir`]).
    pub fn create(base: &Path, tag: &str) -> std::io::Result<Self> {
        Ok(RunDir {
            path: create_unique_dir(base, tag)?,
        })
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_dirs_never_collide_and_drop_removes_only_its_own() {
        let base = crate::out_dir().join("test-rundir");
        let a = RunDir::create(&base, "t").unwrap();
        let b = RunDir::create(&base, "t").unwrap();
        assert_ne!(a.path(), b.path());
        let keep = b.path().to_path_buf();
        drop(a);
        assert!(keep.is_dir(), "dropping one run dir must not touch another");
        drop(b);
        assert!(!keep.exists());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
