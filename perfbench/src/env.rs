//! Environment stamping: what the run executed on, and whether any
//! setting that changes the program's behaviour differs from the values
//! the benchmark was defined with.

use mrinv_matrix::kernel::global_backend;

/// Environment variables that select a different program, with the value
/// the benchmark was defined with (`None`: unset).
pub const RECORDED_ENV: [(&str, Option<&str>); 3] = [
    ("RAYON_NUM_THREADS", None),
    ("MRINV_GEMM_BACKEND", None),
    ("MRINV_GEMM_TUNE", None),
];

/// What the run executed on.
#[derive(Debug, Clone)]
pub struct EnvStamp {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Effective rayon pool width (spawns the pool on first call).
    pub rayon_threads: usize,
    /// The kernel engine's resolved default GEMM backend.
    pub gemm_backend: String,
    /// One entry per recorded variable whose value differs.
    pub flags: Vec<String>,
}

impl EnvStamp {
    /// Captures the stamp. Resolves the lazily initialised rayon pool and
    /// GEMM backend, so it belongs inside the timed set-up.
    pub fn capture() -> EnvStamp {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let flags = RECORDED_ENV
            .iter()
            .filter_map(|&(var, want)| {
                let got = std::env::var(var).ok();
                (got.as_deref() != want).then(|| {
                    format!(
                        "{var}={} differs from the recorded {}",
                        got.as_deref().unwrap_or("<unset>"),
                        want.unwrap_or("<unset>")
                    )
                })
            })
            .collect();
        EnvStamp {
            nproc,
            rayon_threads: rayon::current_num_threads(),
            gemm_backend: format!("{:?}", global_backend()),
            flags,
        }
    }

    /// Human-readable stamp lines; flagged runs say so first.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .flags
            .iter()
            .map(|f| format!("ENV FLAG: {f}; this run is not comparable"))
            .collect();
        out.push(format!(
            "env: nproc={} rayon_threads={} gemm_backend={}",
            self.nproc, self.rayon_threads, self.gemm_backend
        ));
        out
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Size of the last-level cache in bytes, when the platform reports it.
pub fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u32, u64)> = None;
    for entry in dir.flatten() {
        let p = entry.path();
        let level = std::fs::read_to_string(p.join("level")).ok();
        let size = std::fs::read_to_string(p.join("size")).ok();
        let (Some(level), Some(size)) = (level, size) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k << 10),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().ok().map(|m| m << 20),
                None => size.parse().ok(),
            },
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}
