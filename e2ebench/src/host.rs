//! Host fingerprint and host-noise counters recorded next to every run,
//! so that a noisy host phase can be told apart from a slow change.

/// The machine a run measured: cores, CPU model and SIMD tier.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub simd_tier: &'static str,
}

pub fn fingerprint() -> Fingerprint {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Fingerprint {
        nproc,
        cpu_model,
        simd_tier: simd_tier(),
    }
}

/// The widest vector tier the CPU offers, with the tiers `nr-serve`
/// dispatches its rule sweeps on.
fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw") {
            return "avx512";
        }
        if is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "baseline"
}

/// Host counters at one instant.
#[derive(Clone, Copy)]
pub struct Noise {
    /// Hypervisor steal, in clock ticks summed over all CPUs (`/proc/stat`).
    pub steal_ticks: u64,
    /// Time this process's live threads waited on a run queue, in ns
    /// (`/proc/self/task/*/schedstat`). Threads that exited are missing.
    pub runq_wait_ns: u64,
}

pub fn noise() -> Noise {
    let steal_ticks = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.to_string();
            // cpu user nice system idle iowait irq softirq steal ...
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0);
    let mut runq_wait_ns = 0;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(s) = std::fs::read_to_string(task.path().join("schedstat")) {
                runq_wait_ns += s
                    .split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    Noise {
        steal_ticks,
        runq_wait_ns,
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
