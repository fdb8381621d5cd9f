//! Driving the shipped `emumap` binary as a child process.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Result of one `emumap` invocation that runs to exit.
pub struct Run {
    pub ms: f64,
    pub ok: bool,
    pub stdout: String,
    pub stderr: String,
}

/// Runs `emumap ARGS` to completion; the time is from spawn to exit.
pub fn run(emumap: &Path, args: &[&str]) -> Run {
    let start = Instant::now();
    let out = Command::new(emumap)
        .args(args)
        .stdin(Stdio::null())
        .output();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match out {
        Ok(out) => Run {
            ms,
            ok: out.status.success(),
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
            stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        },
        Err(e) => Run {
            ms,
            ok: false,
            stdout: String::new(),
            stderr: format!("spawning {}: {e}", emumap.display()),
        },
    }
}

/// A long-lived `emumap serve` over stdin/stdout.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns `emumap serve --phys PHYS --seed SEED [--trace FILE]`.
    pub fn spawn(
        emumap: &Path,
        phys: &Path,
        seed: u64,
        trace: Option<&PathBuf>,
    ) -> std::io::Result<Daemon> {
        let mut cmd = Command::new(emumap);
        cmd.arg("serve")
            .arg("--phys")
            .arg(phys)
            .arg("--seed")
            .arg(seed.to_string());
        if let Some(t) = trace {
            cmd.arg("--trace").arg(t);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one request line and waits for its reply; returns the reply
    /// and the time from write to reply in ms.
    pub fn request(&mut self, line: &str) -> std::io::Result<(String, f64)> {
        let stdin = self.stdin.as_mut().expect("daemon stdin open");
        let start = Instant::now();
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        let mut reply = String::new();
        let n = self.stdout.read_line(&mut reply)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed its stdout",
            ));
        }
        Ok((reply.trim_end().to_string(), ms))
    }

    /// Sends `shutdown` and waits for exit; true when the daemon said
    /// `bye` and exited with status 0.
    pub fn shutdown(mut self) -> bool {
        let bye =
            matches!(self.request("{\"shutdown\":{}}"), Ok((r, _)) if r.starts_with("{\"bye\""));
        drop(self.stdin.take());
        let status = self.child.wait();
        bye && matches!(status, Ok(s) if s.success())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached only when `shutdown` was not: stop the child and reap it.
        drop(self.stdin.take());
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A CPU set as `sched_getaffinity` and `sched_setaffinity` take it.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Keeps the calling thread, and every process it starts, on one CPU
/// until dropped; then restores the thread's previous CPU set.
///
/// A closed-loop client and the single-threaded program it waits on never
/// run at once, so one CPU serves both. On two CPUs a hand-over can be a
/// wake-up of the other, idle, virtual CPU, whose delay depends on how busy
/// the rest of the host is; on one it is a plain context switch.
pub struct Pin(Option<CpuSet>);

impl Pin {
    /// Pins to the highest-numbered CPU the thread may use. Does nothing
    /// where the CPU set cannot be read or set.
    pub fn one_cpu() -> Pin {
        let mut old = CpuSet([0; 16]);
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: `old` is a writable CPU set of `size` bytes.
        if unsafe { sched_getaffinity(0, size, &mut old) } != 0 {
            return Pin(None);
        }
        let Some(cpu) = (0..1024)
            .rev()
            .find(|&c| old.0[c / 64] >> (c % 64) & 1 == 1)
        else {
            return Pin(None);
        };
        let mut one = CpuSet([0; 16]);
        one.0[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a CPU set of `size` bytes.
        let pinned = unsafe { sched_setaffinity(0, size, &one) } == 0;
        Pin(pinned.then_some(old))
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        if let Some(old) = &self.0 {
            // SAFETY: `old` is the CPU set read when pinning.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), old) };
        }
    }
}
