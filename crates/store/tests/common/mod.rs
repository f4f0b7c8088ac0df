//! Shared by the store's integration tests: unique scratch directories.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch directory unique per call (pid + process-wide counter), so
/// concurrent tests and proptest cases never share one.
pub fn scratch_dir(label: &str) -> PathBuf {
    static CALL: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "tracedbg-store-test-{label}-{}-{}",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed)
    ))
}
