//! Crash-point injection for durability testing.
//!
//! A fail point is a named location in the commit / snapshot / recovery
//! path where the process can be made to die abruptly — `abort()`, no
//! destructors, no flushes — so the crash-recovery suite can prove that
//! every interleaving of "crashed here" recovers to a consistent state.
//!
//! Arming is environment-driven so the torture harness can re-exec the
//! test binary as a child with one point armed per run:
//!
//! ```text
//! PRIU_FAILPOINT=wal-before-fsync        # abort on the 1st hit
//! PRIU_FAILPOINT=snapshot-mid-write:3    # abort on the 3rd hit
//! ```
//!
//! The armed configuration is parsed once (`OnceLock`); when the variable
//! is unset, every [`fail_point`] call is a single static load and a
//! `None` check — cheap enough to leave in release builds, which is what
//! makes the injected points trustworthy: the tested binary *is* the
//! shipped code path.
//!
//! # Catalog
//!
//! | name | crashes |
//! |---|---|
//! | `wal-after-append`      | after the WAL frame hits the file, before fsync |
//! | `wal-before-fsync`      | immediately before the WAL fsync |
//! | `wal-after-fsync`       | after the WAL fsync, before the engine applies |
//! | `apply-before-commit`   | after the ack and the successor build, before the registry commit |
//! | `before-ack`            | after the post-batch model is published to predicts, before any ticket resolves |
//! | `after-ack`             | after the batch's tickets resolve, before its successor is built and committed |
//! | `snapshot-mid-write`    | half-way through writing the snapshot temp file |
//! | `snapshot-before-rename`| temp file complete + fsync'd, not yet renamed |
//! | `snapshot-after-rename` | after the atomic rename, before the dir fsync |
//! | `recovery-mid-redo`     | between two WAL records during recovery redo |
//! | `group-leader-sync`     | just before the fsync shared by an applier pass (or forced at `max_group` appends) |
//! | `snapshot-handoff`      | after commit, before the snapshot job reaches the snapshot thread |
//! | `checkpoint-mid-rewrite`| half-way through writing the checkpoint's rewritten log |
//! | `checkpoint-before-rename` | rewritten log complete + fsync'd, not yet renamed |
//! | `checkpoint-after-rename`  | after the checkpoint rename, before the dir fsync |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable arming a fail point: `name` or `name:N`.
pub const FAILPOINT_ENV: &str = "PRIU_FAILPOINT";

struct Armed {
    name: String,
    /// Abort on the `nth` hit (1-based).
    nth: u64,
    hits: AtomicU64,
}

static ARMED: OnceLock<Option<Armed>> = OnceLock::new();

fn armed() -> &'static Option<Armed> {
    ARMED.get_or_init(|| {
        let spec = std::env::var(FAILPOINT_ENV).ok()?;
        let spec = spec.trim();
        if spec.is_empty() {
            return None;
        }
        let (name, nth) = match spec.split_once(':') {
            Some((name, n)) => (name, n.parse().ok().filter(|&n| n > 0)?),
            None => (spec, 1),
        };
        Some(Armed {
            name: name.to_string(),
            nth,
            hits: AtomicU64::new(0),
        })
    })
}

/// Declares a named crash point. If the `PRIU_FAILPOINT` environment
/// variable armed this name, the process aborts on the configured hit —
/// no unwinding, no buffers flushed, the closest a test can get to
/// `kill -9`-ing itself at an exact instruction. Disarmed points cost one
/// static load.
pub fn fail_point(name: &str) {
    if let Some(armed) = armed() {
        if armed.name == name && armed.hits.fetch_add(1, Ordering::Relaxed) + 1 == armed.nth {
            // Write straight to fd 2: stderr may be line-buffered and
            // abort() won't flush it.
            let msg = format!("fail point {name} hit #{}: aborting\n", armed.nth);
            let _ = std::io::Write::write_all(&mut std::io::stderr(), msg.as_bytes());
            std::process::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The OnceLock caches the environment at first use, so in-process
    // tests can only exercise the disarmed path; the armed path is
    // covered by the child-process crash suite in tests/recovery.rs.
    #[test]
    fn disarmed_points_are_noops() {
        fail_point("wal-after-append");
        fail_point("no-such-point");
    }
}
