//! Running `tracedbg` as a child process, one at a time, and accounting
//! for every invocation.
//!
//! End-to-end metrics are wall times of these children and nothing else:
//! no benchmark code runs inside them. Their stdout/stderr go to files in
//! the scratch directory (the CLI panics on a closed pipe, see README), and
//! their peak resident set comes from `wait4`.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
/// which `ru_maxrss` (kilobytes) is the first.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reap `pid` and return `(exit code, peak RSS in KB)`; the code is `None`
/// when the child was killed by a signal.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn reap(pid: u32) -> std::io::Result<(Option<i32>, u64)> {
    use std::os::unix::process::ExitStatusExt;
    let mut status = 0i32;
    let mut ru = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable and of the sizes the
        // kernel ABI expects (`int`, 144-byte `struct rusage`); `pid` is a
        // child this process spawned and has not yet waited for.
        let got = unsafe { wait4(pid as i32, &mut status, 0, &mut ru) };
        if got == pid as i32 {
            let st = std::process::ExitStatus::from_raw(status);
            return Ok((st.code(), ru.ru_maxrss.max(0) as u64));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One finished child.
#[derive(Clone, Debug)]
pub struct Finished {
    pub wall_s: f64,
    pub maxrss_kb: u64,
    /// What the child printed (read back after the clock stopped).
    pub stdout: String,
}

/// `explore`, `localize` and `profile` fan out over worker threads unless
/// told otherwise; a timing that depends on the core count is not an
/// end-to-end metric of this benchmark. Every such verb must say `--jobs 1`.
pub fn check_jobs(args: &[String]) -> Result<(), String> {
    let verb = args.first().map(String::as_str).unwrap_or("");
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .map(|i| args.get(i + 1).map(String::as_str).unwrap_or(""));
    match (verb, jobs) {
        (_, Some("1")) => Ok(()),
        (_, Some(other)) => Err(format!(
            "refusing `{verb} --jobs {other}`: end-to-end runs use --jobs 1"
        )),
        ("explore" | "localize", None) => {
            Err(format!("refusing `{verb}` without an explicit --jobs 1"))
        }
        _ => Ok(()),
    }
}

/// Spawns children of one program and counts operations. `run` takes
/// `&mut self` and waits before it returns, so one runner never has two
/// children alive; the benchmark owns exactly one runner.
pub struct Runner {
    program: PathBuf,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// First few failure descriptions, for the operator.
    pub failures: Vec<String>,
    seq: u64,
}

impl Runner {
    pub fn new(program: &Path) -> Self {
        Runner {
            program: program.to_path_buf(),
            ops_attempted: 0,
            ops_failed: 0,
            failures: Vec::new(),
            seq: 0,
        }
    }

    /// Record a failed operation (wrong exit code or failed output check).
    pub fn fail(&mut self, what: String) {
        self.ops_failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Run one child to completion with output captured under `dir`.
    /// Counts one attempted op; a spawn error or an exit code other than
    /// `expect` counts it failed and yields `None`, so it contributes no
    /// timing.
    pub fn run(&mut self, dir: &Path, args: &[String], expect: i32) -> Option<Finished> {
        self.ops_attempted += 1;
        self.seq += 1;
        let label = format!("{} {}", self.program.display(), args.join(" "));
        if let Err(e) = check_jobs(args) {
            self.fail(e);
            return None;
        }
        match self.spawn_and_wait(dir, args) {
            Ok((code, done)) if code == Some(expect) => Some(done),
            Ok((code, _)) => {
                self.fail(format!("{label}: exit {code:?}, expected {expect}"));
                None
            }
            Err(e) => {
                self.fail(format!("{label}: {e}"));
                None
            }
        }
    }

    fn spawn_and_wait(
        &self,
        dir: &Path,
        args: &[String],
    ) -> std::io::Result<(Option<i32>, Finished)> {
        let stdout = dir.join(format!("{:04}.out", self.seq));
        let stderr = dir.join(format!("{:04}.err", self.seq));
        let mut cmd = Command::new(&self.program);
        // A backtrace per simulated-process panic would be part of the
        // timing whenever the caller's shell happens to ask for one.
        cmd.args(args)
            .env("RUST_BACKTRACE", "0")
            .stdin(Stdio::null())
            .stdout(File::create(&stdout)?)
            .stderr(File::create(&stderr)?);
        let started = Instant::now();
        let child = cmd.spawn()?;
        // The child is reaped here through wait4 (for its rusage); the
        // `Child` handle is dropped without a second wait.
        let (code, maxrss_kb) = reap(child.id())?;
        let wall_s = started.elapsed().as_secs_f64();
        let stdout = std::fs::read_to_string(&stdout).unwrap_or_default();
        Ok((
            code,
            Finished {
                wall_s,
                maxrss_kb,
                stdout,
            },
        ))
    }
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Where unit tests put their scratch directories: under the crate's own
/// ignored `out/`, like everything else the benchmark writes.
#[cfg(test)]
pub fn test_base() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join("unit-tests")
}

/// A scratch directory no other invocation shares: pid + per-process
/// counter + seed under `base`. Removed on drop unless `keep` is called.
pub struct Scratch {
    dir: PathBuf,
    keep: bool,
}

impl Scratch {
    pub fn create(base: &Path, seed: u64) -> std::io::Result<Self> {
        let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = base.join(format!("run-{}-{n}-{seed}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir, keep: false })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.dir.join(name);
        if p.exists() {
            std::fs::remove_dir_all(&p)?;
        }
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }

    /// Leave the directory behind (a failed run keeps its evidence).
    pub fn keep(&mut self) {
        self.keep = true;
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn temp() -> Scratch {
        Scratch::create(&test_base(), 0).unwrap()
    }

    #[test]
    fn a_wrong_exit_code_is_a_failed_op_with_no_timing() {
        let scratch = temp();
        let mut r = Runner::new(Path::new("sh"));
        let ok = r.run(scratch.path(), &strs(&["-c", "echo hi; exit 0"]), 0);
        let ok = ok.expect("exit 0 was expected");
        assert!(ok.wall_s > 0.0 && ok.maxrss_kb > 0);
        assert_eq!(ok.stdout, "hi\n");
        assert!(r.run(scratch.path(), &strs(&["-c", "exit 3"]), 0).is_none());
        assert!(
            r.run(scratch.path(), &strs(&["-c", "exit 1"]), 1).is_some(),
            "exit 1 can be the expected code"
        );
        assert!(
            r.run(scratch.path(), &strs(&["-c", "kill -9 $$"]), 0)
                .is_none(),
            "a signal is never the expected code"
        );
        assert_eq!((r.ops_attempted, r.ops_failed), (4, 2));
        assert!(
            r.failures[0].contains("exit Some(3), expected 0"),
            "{:?}",
            r.failures
        );
    }

    #[test]
    fn a_program_that_cannot_be_spawned_is_a_failed_op() {
        let scratch = temp();
        let mut r = Runner::new(Path::new("/nonexistent/tracedbg"));
        assert!(r.run(scratch.path(), &strs(&["workloads"]), 0).is_none());
        assert_eq!((r.ops_attempted, r.ops_failed), (1, 1));
    }

    #[test]
    fn failed_output_checks_count_against_the_attempts() {
        let mut r = Runner::new(Path::new("sh"));
        r.ops_attempted = 3;
        r.fail("query totals disagree".into());
        assert_eq!((r.ops_attempted, r.ops_failed), (3, 1));
        assert_eq!(r.failures, ["query totals disagree"]);
    }

    #[test]
    fn parallel_jobs_are_refused() {
        assert!(check_jobs(&strs(&["explore", "w", "--jobs", "1"])).is_ok());
        assert!(check_jobs(&strs(&["explore", "w", "--jobs", "2"])).is_err());
        assert!(check_jobs(&strs(&["explore", "w", "--jobs", "0"])).is_err());
        assert!(
            check_jobs(&strs(&["explore", "w"])).is_err(),
            "explore defaults to all cores"
        );
        assert!(check_jobs(&strs(&["localize", "--schedule", "x"])).is_err());
        assert!(check_jobs(&strs(&["run", "stencil"])).is_ok());
        let mut r = Runner::new(Path::new("sh"));
        let scratch = temp();
        assert!(r
            .run(scratch.path(), &strs(&["explore", "--jobs", "4"]), 0)
            .is_none());
        assert_eq!((r.ops_attempted, r.ops_failed), (1, 1));
    }

    #[test]
    fn scratch_directories_are_unique_and_removed() {
        let base = test_base();
        let (a, b) = (
            Scratch::create(&base, 7).unwrap(),
            Scratch::create(&base, 7).unwrap(),
        );
        assert_ne!(a.path(), b.path());
        let sub = a.sub("p").unwrap();
        std::fs::write(sub.join("f"), b"12345").unwrap();
        assert_eq!(dir_bytes(a.path()), 5);
        assert!(
            a.sub("p").unwrap().read_dir().unwrap().next().is_none(),
            "sub() empties"
        );
        let gone = a.path().to_path_buf();
        drop(a);
        assert!(!gone.exists());
        let mut kept = b;
        kept.keep();
        let stays = kept.path().to_path_buf();
        drop(kept);
        assert!(stays.exists());
        std::fs::remove_dir_all(stays).unwrap();
    }
}
