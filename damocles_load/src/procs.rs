//! The server processes under test: spawning the real `damocles_server`
//! binary in one of its roles, and reading its CPU time, context switches
//! and peak memory from `/proc` at phase edges.

use std::fs::File;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One running `damocles_server`. Killed and reaped on drop.
#[derive(Debug)]
pub struct Server {
    child: Child,
    /// The address its front door listens on.
    pub addr: String,
}

/// How long a server may take to print its listening address.
const START_LIMIT: Duration = Duration::from_secs(20);

impl Server {
    /// Spawns `bin args…` with stderr captured to `log`, and waits until
    /// it announces its listening address (the token after `marker`).
    ///
    /// # Errors
    ///
    /// Spawn failures, or a server that exits or stays silent.
    pub fn spawn(bin: &Path, args: &[String], log: &Path, marker: &str) -> std::io::Result<Server> {
        let stderr = File::create(log)?;
        let mut command = Command::new(bin);
        command
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        // SAFETY: the hook runs in the forked child before exec and makes
        // one async-signal-safe system call (prctl), touching no memory
        // shared with the parent.
        unsafe {
            command.pre_exec(|| {
                sys::die_with_parent();
                Ok(())
            });
        }
        let child = command.spawn()?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            let announced = text
                .find(marker)
                .and_then(|at| text[at + marker.len()..].split_once('\n'))
                .and_then(|(line, _)| line.split_whitespace().next());
            if let Some(addr) = announced {
                server.addr = addr.to_string();
                return Ok(server);
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(std::io::Error::other(format!(
                    "{} exited with {status} before listening: {}",
                    bin.display(),
                    text.trim()
                )));
            }
            if started.elapsed() > START_LIMIT {
                return Err(std::io::Error::other(format!(
                    "{} did not report `{marker}` within {START_LIMIT:?}",
                    bin.display()
                )));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A snapshot of the process's counters.
    pub fn sample(&self) -> ProcSample {
        ProcSample::read(self.pid())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Counters read from `/proc/<pid>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU time of all threads, dead ones included, in ms.
    pub cpu_ms: f64,
    /// Voluntary + involuntary context switches of the live threads.
    /// Threads that exited (per-batch wave workers) are not counted.
    pub ctx_switches: u64,
    /// Peak resident set (`VmHWM`), in KiB.
    pub hwm_kb: u64,
}

impl ProcSample {
    /// Reads the counters of `pid`; missing files read as zero.
    pub fn read(pid: u32) -> ProcSample {
        let base = PathBuf::from(format!("/proc/{pid}"));
        let stat = std::fs::read_to_string(base.join("stat")).unwrap_or_default();
        // Fields after the parenthesised command name: state is field 3,
        // utime and stime are fields 14 and 15.
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let cpu_ms = (ticks(11) + ticks(12)) * 1000.0 / sys::clock_ticks_per_second();
        let mut ctx_switches = 0;
        if let Ok(tasks) = std::fs::read_dir(base.join("task")) {
            for task in tasks.flatten() {
                let status =
                    std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
                ctx_switches += status_field(&status, "voluntary_ctxt_switches:")
                    + status_field(&status, "nonvoluntary_ctxt_switches:");
            }
        }
        let status = std::fs::read_to_string(base.join("status")).unwrap_or_default();
        ProcSample {
            cpu_ms,
            ctx_switches,
            hwm_kb: status_field(&status, "VmHWM:"),
        }
    }
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

mod sys {
    use std::os::raw::{c_int, c_long, c_ulong};

    const SC_CLK_TCK: c_int = 2;
    const PR_SET_PDEATHSIG: c_int = 1;
    const SIGKILL: c_ulong = 9;

    extern "C" {
        fn sysconf(name: c_int) -> c_long;
        fn prctl(option: c_int, ...) -> c_int;
    }

    /// Has the kernel kill the calling process when the thread that
    /// spawned it exits, so a killed benchmark leaves no server behind.
    pub fn die_with_parent() {
        // SAFETY: PR_SET_PDEATHSIG takes one signal-number argument and
        // only sets the calling process's parent-death signal.
        unsafe {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
        }
    }

    /// `sysconf(_SC_CLK_TCK)`: the unit of `/proc/<pid>/stat` times.
    pub fn clock_ticks_per_second() -> f64 {
        // SAFETY: sysconf reads a configuration value and has no
        // preconditions.
        let ticks = unsafe { sysconf(SC_CLK_TCK) };
        if ticks > 0 {
            ticks as f64
        } else {
            100.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let s = ProcSample::read(std::process::id());
        assert!(s.hwm_kb > 0);
        assert!(s.ctx_switches > 0);
        assert!(s.cpu_ms >= 0.0);
    }
}
