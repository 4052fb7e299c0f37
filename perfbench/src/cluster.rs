//! The I/O-node daemons the benchmark drives: real `pf serve` processes,
//! pinned to their own CPU, started until they announce their address.

use std::io::{self, BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Room for 1024 CPUs, as glibc's `cpu_set_t`.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
}

/// The CPUs this process may run on, in increasing order.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..1024).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect())
}

/// Pins the calling thread (and the threads and processes it starts later)
/// to `cpu`.
pub fn pin_to(cpu: usize) -> io::Result<()> {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the size passed; the call
    // only reads it and is async-signal-safe, so it may run between fork
    // and exec.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Running `pf serve` daemons, one per subfile.
pub struct Daemons {
    children: Vec<(Child, BufReader<ChildStdout>)>,
    /// Their client addresses, in subfile order.
    pub addrs: Vec<String>,
}

impl Daemons {
    /// Starts one daemon per entry of `dirs` (`None` = memory backend) and
    /// waits until each has announced its listening address.
    pub fn start(pf: &Path, dirs: &[Option<PathBuf>], cpu: usize) -> io::Result<Self> {
        let mut me = Daemons { children: Vec::new(), addrs: Vec::new() };
        for dir in dirs {
            let mut cmd = Command::new(pf);
            cmd.args(["serve", "127.0.0.1:0"]);
            if let Some(d) = dir {
                cmd.arg("--dir").arg(d);
            }
            cmd.stdin(Stdio::null()).stdout(Stdio::piped());
            // SAFETY: the hook only calls `pin_to`, which makes one
            // async-signal-safe system call and allocates nothing.
            unsafe {
                cmd.pre_exec(move || pin_to(cpu));
            }
            let mut child = cmd.spawn()?;
            let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
            let mut line = String::new();
            out.read_line(&mut line)?;
            me.children.push((child, out));
            let addr = line
                .trim()
                .strip_prefix("pf-io-node listening on ")
                .ok_or_else(|| io::Error::other(format!("unexpected daemon banner {line:?}")))?;
            me.addrs.push(addr.to_string());
        }
        Ok(me)
    }

    /// Sum of the daemons' peak resident sets, in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        self.children.iter().map(|(c, _)| peak_rss_kib(&format!("/proc/{}/status", c.id()))).sum()
    }

    /// SIGKILLs every daemon and waits for it to end.
    pub fn kill(&mut self) {
        for (child, _) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.children.clear();
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        self.kill();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in KiB (0 when unreadable).
pub fn peak_rss_kib(status: &str) -> u64 {
    std::fs::read_to_string(status)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Bytes allocated on disk under `dir`, recursively.
pub fn disk_bytes(dir: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => disk_bytes(&e.path()),
            Ok(m) => m.blocks() * 512,
            Err(_) => 0,
        })
        .sum()
}
