//! The host and store record every result carries, plus the `/proc`
//! readers the client-side metrics need (thread CPU time, peak RSS).

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use priu_linalg::simd;

use crate::json::Json;
use crate::stats::percentile_of;

/// fsyncs timed for the store record.
const FSYNC_SAMPLES: usize = 200;

/// CPU count, SIMD levels, thread/SIMD pins, the store's filesystem type
/// and the p50 of [`FSYNC_SAMPLES`] fsyncs measured in `store_dir`.
///
/// # Errors
/// I/O failures while timing the fsyncs.
pub fn record(store_dir: &Path) -> Result<(Json, f64), String> {
    let fsync_us = fsync_p50_us(store_dir)?;
    let levels: Vec<Json> = simd::available_levels()
        .iter()
        .map(|level| Json::from(level.to_string()))
        .collect();
    let pin = |name: &str| std::env::var(name).map_or(Json::Null, Json::from);
    let mut host = Json::obj();
    host.push(
        "cpus",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
    .push("simd_levels", levels)
    .push("PRIU_THREADS", pin("PRIU_THREADS"))
    .push("PRIU_SIMD", pin("PRIU_SIMD"))
    .push("store_fs", fs_type(store_dir))
    .push("store_fsync_p50_us", fsync_us)
    .push(
        "note",
        "WAL and snapshot costs are this host's filesystem, not a device's",
    );
    Ok((host, fsync_us))
}

/// p50 of fsyncs of a small file in `dir`, in microseconds.
fn fsync_p50_us(dir: &Path) -> Result<f64, String> {
    let path = dir.join("fsync-probe");
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&path)
        .map_err(|e| format!("creating {}: {e}", path.display()))?;
    let mut samples = Vec::with_capacity(FSYNC_SAMPLES);
    for i in 0..FSYNC_SAMPLES {
        file.write_all(&[i as u8; 64])
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let t0 = Instant::now();
        file.sync_data()
            .map_err(|e| format!("syncing {}: {e}", path.display()))?;
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    let _ = fs::remove_file(&path);
    Ok(percentile_of(&samples, 50.0))
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`), or `"unknown"`.
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mountinfo) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        // `id parent major:minor root mount-point options ... - fstype source ...`
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

/// CPU time the calling thread has used, in seconds (from the scheduler's
/// per-thread run time), or `None` where `/proc` does not provide it.
pub fn thread_cpu_s() -> Option<f64> {
    let text = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
