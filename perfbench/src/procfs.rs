//! Server-side readings taken from outside the process: CPU time and
//! context switches per thread from `/proc/<pid>/task`, peak RSS from
//! `/proc/<pid>/status`, and the host record every result carries.

use std::fs;
use std::io;

/// Length of one `utime`/`stime` tick: Linux reports them in USER_HZ,
/// which is 100 on every architecture it exports to user space.
pub const TICK_NS: f64 = 1e7;

/// Server thread groups, by the name prefix the server gives them.
pub const GROUPS: [&str; 3] = ["ddc-shard", "ddc-proc", "ddc-farm"];

/// One reading of the server's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSnap {
    /// Process utime + stime, ticks (includes threads that exited).
    pub cpu_ticks: u64,
    /// utime + stime per [`GROUPS`] entry, ticks.
    pub group_ticks: [u64; 3],
    /// Voluntary plus involuntary context switches, all threads.
    pub ctxsw: u64,
}

impl ProcSnap {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSnap) -> ProcSnap {
        let mut g = [0; 3];
        for (k, v) in g.iter_mut().enumerate() {
            *v = self.group_ticks[k].saturating_sub(earlier.group_ticks[k]);
        }
        ProcSnap {
            cpu_ticks: self.cpu_ticks.saturating_sub(earlier.cpu_ticks),
            group_ticks: g,
            ctxsw: self.ctxsw.saturating_sub(earlier.ctxsw),
        }
    }
}

/// `(comm, utime + stime)` from a `stat` file. The command name sits
/// in parentheses and may itself contain spaces or parentheses, so
/// the numeric fields are split after the *last* `)`.
fn parse_stat(text: &str) -> Option<(String, u64)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text.get(open + 1..close)?.to_string();
    // Fields after the name start at field 3 (state); utime and stime
    // are fields 14 and 15.
    let rest: Vec<&str> = text.get(close + 1..)?.split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unparsable {what}"))
}

/// Reads the process total and every thread's counters.
pub fn snapshot(pid: u32) -> io::Result<ProcSnap> {
    let (_, cpu_ticks) =
        parse_stat(&fs::read_to_string(format!("/proc/{pid}/stat"))?).ok_or_else(|| bad("stat"))?;
    let mut snap = ProcSnap {
        cpu_ticks,
        ..ProcSnap::default()
    };
    for entry in fs::read_dir(format!("/proc/{pid}/task"))? {
        let dir = entry?.path();
        // A thread may exit between the listing and the read.
        let (Ok(stat), Ok(status)) = (
            fs::read_to_string(dir.join("stat")),
            fs::read_to_string(dir.join("status")),
        ) else {
            continue;
        };
        let (comm, ticks) = parse_stat(&stat).ok_or_else(|| bad("task stat"))?;
        if let Some(g) = GROUPS.iter().position(|p| comm.starts_with(p)) {
            snap.group_ticks[g] += ticks;
        }
        snap.ctxsw += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
    }
    Ok(snap)
}

/// Peak resident set size (VmHWM), bytes.
pub fn peak_rss_bytes(pid: u32) -> io::Result<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    status_field(&status, "VmHWM:")
        .map(|kb| kb * 1024)
        .ok_or_else(|| bad("VmHWM"))
}

/// The class of host a result came from, as a JSON object.
pub fn host_record(commit: &str, seed: u64) -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"commit\": \"{}\", \"seed\": {seed}, \"nproc\": {nproc}, \"cpu\": \"{}\", \"kernel\": \"{}\"}}",
        json_escape(commit),
        json_escape(&cpu),
        json_escape(&kernel)
    )
}

pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parse_survives_odd_names() {
        let line = "42 (ddc-proc (1)) S 1 2 3 4 5 6 7 8 9 10 17 4 0 0 20 0";
        assert_eq!(parse_stat(line), Some(("ddc-proc (1)".into(), 21)));
    }
}
