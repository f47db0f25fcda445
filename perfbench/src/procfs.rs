//! Peak resident memory from `/proc`.

use std::io;

/// Parses the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// image, in KiB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Peak resident memory of process `pid`, in MiB.
pub fn vm_hwm_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))
}

/// Peak resident memory of this process, in MiB.
pub fn self_vm_hwm_mb() -> io::Result<f64> {
    vm_hwm_mb(std::process::id())
}

/// The live child processes of this process (every thread's children).
pub fn child_pids() -> Vec<u32> {
    let mut pids = Vec::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return pids;
    };
    for task in tasks.flatten() {
        if let Ok(list) = std::fs::read_to_string(task.path().join("children")) {
            pids.extend(
                list.split_whitespace()
                    .filter_map(|p| p.parse::<u32>().ok()),
            );
        }
    }
    pids.sort_unstable();
    pids.dedup();
    pids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_vm_hwm_line() {
        let status = "Name:\tshard\nVmPeak:\t  900 kB\nVmHWM:\t   123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn reads_a_child_process() {
        let mut child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleep");
        let pid = child.id();
        let listed = child_pids().contains(&pid);
        let hwm = vm_hwm_mb(pid);
        child.kill().expect("kill child");
        child.wait().expect("reap child");
        assert!(
            listed,
            "child {pid} not listed among this process's children"
        );
        assert!(hwm.expect("child VmHWM") > 0.0);
        // Once reaped the child is gone, and so is its status file.
        assert!(!child_pids().contains(&pid));
        assert!(vm_hwm_mb(pid).is_err());
        assert!(self_vm_hwm_mb().unwrap() > 0.0);
    }
}
