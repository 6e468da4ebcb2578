//! Small measurement helpers: order statistics, a seeded generator, process
//! CPU time, peak RSS, the machine fingerprint and a JSON value writer.

use std::fmt::Write as _;
use std::mem::size_of_val;
use std::sync::OnceLock;
use std::time::Duration;

/// Median of `v` (mean of the middle pair for an even count). 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median of integer nanosecond samples, as f64.
pub fn median_ns(v: &[u64]) -> f64 {
    let v: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    percentile(&v, 0.5)
}

/// The `q`-quantile (nearest rank) of `v`. 0 if empty.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((s.len() as f64 * q).ceil() as usize).clamp(1, s.len()) - 1;
    s[idx]
}

/// (max − min) ÷ median; 0 for fewer than two values.
pub fn spread(v: &[f64]) -> f64 {
    let m = median(v);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let max = v.iter().copied().fold(f64::MIN, f64::max);
    let min = v.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// Op durations of one repetition in constant memory: every value until
/// `CAP` are held, then every 2nd, every 4th, ... so that a faster commit,
/// which completes more ops in the same time budget, does not also read as a
/// larger `peak_rss_MiB`. The buffer is touched up front for the same reason.
pub struct Samples {
    buf: Vec<f64>,
    stride: u64,
    seen: u64,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples::new(false)
    }
}

impl Samples {
    const CAP: usize = 1 << 15;

    /// `room`: whether this rank will record (only the client rank does).
    pub fn new(room: bool) -> Samples {
        let mut buf = if room {
            vec![1.0; Self::CAP]
        } else {
            Vec::new()
        };
        buf.clear();
        Samples {
            buf,
            stride: 1,
            seen: 0,
        }
    }

    pub fn push(&mut self, v: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.buf.len() >= Self::CAP {
                // Held values sit at multiples of `stride`; keep the
                // multiples of twice that.
                let mut i = 0;
                self.buf.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.buf.push(v);
            }
        }
        self.seen += 1;
    }

    /// How many values were pushed (not how many are held).
    pub fn count(&self) -> u64 {
        self.seen
    }

    pub fn values(&self) -> &[f64] {
        &self.buf
    }
}

/// SplitMix64: the benchmark's only source of input bytes, so that a seed
/// fixes every payload, tag order and particle set.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let b = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&b[..chunk.len()]);
        }
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Words in an affinity mask: 1024 CPUs, as glibc's `cpu_set_t`.
const CPU_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    #[cfg(target_env = "gnu")]
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Make `peak_rss_MiB` read what the program had live, not how glibc's
/// allocator happened to lay it out: one arena instead of one per thread
/// (which arena a rank thread lands in depends on thread timing, and
/// `shm_large` read 24 or 32 MiB from the same binary), every block below
/// 32 MiB from the heap, and no trimming, so a block the library frees and
/// allocates again each op (as `shm_overlap`'s 8 MiB staging block is) comes
/// off the free list as it does under glibc's own adaptive threshold. Call
/// before the first thread is spawned. The same for every commit measured.
pub fn fix_allocator() {
    #[cfg(target_env = "gnu")]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only sets tunables of the process's allocator;
        // no other thread exists yet.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, 1 << 30);
        }
    }
}

/// The CPUs this process may run on, read once before any thread is bound
/// (a bound thread would only see its own CPU).
pub fn allowed_cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; CPU_WORDS];
        // SAFETY: `mask` is writable and exactly the size passed; pid 0 is
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
        let cpus: Vec<usize> = (0..CPU_WORDS * 64)
            .filter(|&c| rc == 0 && mask[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        if cpus.is_empty() {
            vec![0]
        } else {
            cpus
        }
    })
}

/// Bind the calling thread, and every thread it spawns from now on, to the
/// `slot`-th allowed CPU (wrapping), the way an MPI launcher binds a rank to
/// a core. Without it the kernel sometimes co-locates two ranks and
/// sometimes not, and an 8 B shm round trip reads 25 us or 105 us from one
/// fabric to the next. Failure to bind is not an error: the run is then as
/// steady as the scheduler lets it be.
pub fn bind_to_cpu_slot(slot: usize) {
    let cpus = allowed_cpus();
    let cpu = cpus[slot % cpus.len()];
    let mut mask = [0u64; CPU_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is readable and exactly the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) };
}

/// CPU time consumed by every thread of this process so far
/// (`CLOCK_PROCESS_CPUTIME_ID`; Linux x86-64/aarch64 value 2).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and libc
    // is linked by std.
    let rc = unsafe { clock_gettime(2, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Where and on what the numbers were taken, as a JSON object.
pub fn fingerprint() -> Json {
    let cache = |idx: u32| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| {
            std::fs::read_to_string(format!("{dir}/{f}"))
                .map(|s| s.trim().to_string())
                .unwrap_or_default()
        };
        format!("L{} {} {}", read("level"), read("type"), read("size"))
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "model",
            Json::Str(proc_field("/proc/cpuinfo", "model name").unwrap_or_default()),
        ),
        (
            "caches",
            Json::Arr((0..4).map(|i| Json::Str(cache(i))).collect()),
        ),
        (
            "kernel",
            Json::Str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map(|s| s.trim().to_string())
                    .unwrap_or_default(),
            ),
        ),
    ])
}

/// The commit the checkout is at, if it is a git checkout (the driver's is
/// not). Read from `.git` beside the benchmark directory; nothing is run.
pub fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}

/// A JSON value, for the result and trace files.
#[derive(Clone, Debug)]
pub enum Json {
    Num(f64),
    Bool(bool),
    Str(String),
    /// Text that is already JSON (the library's own `to_json` output).
    Raw(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn nums(v: &[f64]) -> Json {
        Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // Shortest representation that reads back exactly; JSON has no
            // non-finite numbers.
            Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").expect("write to String"),
            Json::Raw(text) => out.push_str(text),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("write to String")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}
