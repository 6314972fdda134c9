//! The snapshot writer's allocation budget, measured with a byte-counting
//! global allocator. Registering a durable session shaped like svcbench's
//! `clean-linear` session (SGEMM extended ×0.1: 2000 × 318 linear with the
//! PrIU-opt and closed-form captures) writes its baseline snapshot. The
//! bytes allocated while it does must stay within 1.25× the snapshot
//! file's size: the file is encoded once, into one buffer sized before
//! encoding, with no intermediate blob or payload copy and no growth by
//! doubling.
//!
//! Everything runs inside a single `#[test]` so no concurrent test adds to
//! the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};

use priu_core::{SessionBuilder, TrainerConfig};
use priu_data::catalog::DatasetCatalog;
use priu_server::{DurabilityConfig, Server, ServerConfig};

struct CountingAllocator;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter only adds up requested sizes.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing buffer may move: count the whole new block.
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn a_baseline_snapshot_allocates_little_beyond_its_file() {
    let mut spec = DatasetCatalog::sgemm_extended().scaled(0.1);
    spec.seed = 1;
    let data = spec
        .generate()
        .as_dense()
        .expect("regression is dense")
        .clone();
    assert_eq!((data.num_samples(), data.num_features()), (2000, 318));
    let session = SessionBuilder::dense(data, TrainerConfig::from_hyper(spec.hyper))
        .seed(4)
        .fit()
        .expect("clean-linear-shaped fit");

    let dir = std::env::temp_dir().join(format!("priu-snapshot-alloc-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let config = ServerConfig {
        durability: Some(DurabilityConfig::new(&dir)),
        ..ServerConfig::default()
    };
    let server = Server::start(config).expect("durable server");
    let before = BYTES.load(Ordering::Relaxed);
    server
        .register_session("sgemm", session)
        .expect("registration writes the baseline");
    let allocated = BYTES.load(Ordering::Relaxed) - before;
    server.shutdown();

    let files: Vec<_> = fs::read_dir(dir.join("snapshots"))
        .expect("snapshot directory")
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    let file_bytes = fs::metadata(&files[0]).expect("snapshot file").len();
    let _ = fs::remove_dir_all(&dir);
    assert!(
        file_bytes > 10 << 20,
        "{file_bytes} bytes is not the full shape"
    );
    let ratio = allocated as f64 / file_bytes as f64;
    assert!(
        ratio <= 1.25,
        "registration allocated {allocated} bytes for a {file_bytes}-byte snapshot ({ratio:.2}×)"
    );
}
