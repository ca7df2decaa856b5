//! NUMA topology discovery and worker-thread pinning.
//!
//! The paper's speed-ups were measured on a 24-core EPYC 7443P with HPX
//! pinning its worker threads; letting the OS migrate workers across NUMA
//! nodes both defeats first-touch page placement and turns every steal
//! into a potential remote-memory transfer. This module discovers the
//! node → CPU map from `/sys/devices/system/node` (falling back to a
//! single synthetic node on machines or kernels without the sysfs tree)
//! and pins the calling thread via a direct `sched_setaffinity` syscall
//! wrapper — an `extern "C"` declaration against glibc, deliberately
//! avoiding the `libc` crate because this workspace builds offline.

use std::fmt;
use std::path::Path;

/// One NUMA node: its kernel id and the CPUs it owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaNode {
    /// Kernel node id (the `N` in `/sys/devices/system/node/nodeN`).
    pub id: usize,
    /// Logical CPU ids on this node, sorted ascending.
    pub cpus: Vec<usize>,
}

/// The machine's NUMA layout as discovered from sysfs (or synthesised).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Nodes sorted by id. Never empty.
    pub nodes: Vec<NumaNode>,
    /// `true` when the layout came from `/sys/devices/system/node`;
    /// `false` for the synthetic single-node fallback.
    pub from_sysfs: bool,
}

impl Topology {
    /// Discover the topology from the live sysfs tree, degrading to a
    /// synthetic single node covering `available_parallelism` CPUs when
    /// sysfs is absent or unparsable (non-Linux hosts, locked-down
    /// containers).
    pub fn detect() -> Self {
        match Self::from_sysfs(Path::new("/sys/devices/system/node")) {
            Some(t) => t,
            None => Self::synthetic_single_node(),
        }
    }

    /// Parse a sysfs-style node tree rooted at `root` (the directory that
    /// holds `node0`, `node1`, …). Public so tests can point it at a
    /// fixture tree. Returns `None` when no `nodeN/cpulist` parses.
    pub fn from_sysfs(root: &Path) -> Option<Self> {
        let entries = std::fs::read_dir(root).ok()?;
        let mut nodes = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(idstr) = name.strip_prefix("node") else {
                continue;
            };
            let Ok(id) = idstr.parse::<usize>() else {
                continue;
            };
            let cpulist = std::fs::read_to_string(entry.path().join("cpulist")).ok()?;
            let mut cpus = parse_cpulist(cpulist.trim())?;
            if cpus.is_empty() {
                // Memory-only nodes (CXL expanders etc.) own no CPUs;
                // workers cannot be pinned there, so skip them.
                continue;
            }
            cpus.sort_unstable();
            nodes.push(NumaNode { id, cpus });
        }
        if nodes.is_empty() {
            return None;
        }
        nodes.sort_by_key(|n| n.id);
        Some(Self {
            nodes,
            from_sysfs: true,
        })
    }

    /// One synthetic node covering every schedulable CPU.
    pub fn synthetic_single_node() -> Self {
        let n = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        Self {
            nodes: vec![NumaNode {
                id: 0,
                cpus: (0..n).collect(),
            }],
            from_sysfs: false,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total CPUs across all nodes.
    pub fn num_cpus(&self) -> usize {
        self.nodes.iter().map(|n| n.cpus.len()).sum()
    }

    /// The node that owns `cpu`, if any.
    pub fn node_of_cpu(&self, cpu: usize) -> Option<usize> {
        self.nodes
            .iter()
            .find(|n| n.cpus.contains(&cpu))
            .map(|n| n.id)
    }

    /// Resolve a requested pin set against this topology: keep the node
    /// ids that exist, report the ones that do not. An empty `requested`
    /// (`--pin all`) selects every node. The returned selection
    /// preserves topology order and is never empty as long as the
    /// topology has nodes.
    pub fn resolve_nodes(&self, requested: &[usize]) -> PinResolution {
        if requested.is_empty() {
            return PinResolution {
                nodes: self.nodes.iter().map(|n| n.id).collect(),
                unknown: Vec::new(),
            };
        }
        let mut nodes = Vec::new();
        let mut unknown = Vec::new();
        for &id in requested {
            if self.nodes.iter().any(|n| n.id == id) {
                if !nodes.contains(&id) {
                    nodes.push(id);
                }
            } else if !unknown.contains(&id) {
                unknown.push(id);
            }
        }
        if nodes.is_empty() {
            // Every requested node was unknown: degrade to "all nodes"
            // rather than an unpinnable empty set.
            nodes = self.nodes.iter().map(|n| n.id).collect();
        }
        PinResolution { nodes, unknown }
    }

    /// Assign `threads` workers to the selected `nodes` in contiguous
    /// blocks (worker 0..k−1 on the first node, …), matching how
    /// block-partitioned loops map partitions to workers.
    /// Returns, per worker, `(node_id, cpu)` — the CPU is chosen
    /// round-robin within the node so oversubscribed runs still spread
    /// over the node's cores.
    pub fn assign_workers(&self, threads: usize, nodes: &[usize]) -> Vec<(usize, usize)> {
        let selected: Vec<&NumaNode> = nodes
            .iter()
            .filter_map(|&id| self.nodes.iter().find(|n| n.id == id))
            .collect();
        if selected.is_empty() {
            return Vec::new();
        }
        let k = selected.len();
        let per = threads.div_ceil(k);
        (0..threads)
            .map(|w| {
                let slot = (w / per).min(k - 1);
                let node = selected[slot];
                let within = w - slot * per;
                (node.id, node.cpus[within % node.cpus.len()])
            })
            .collect()
    }
}

/// Outcome of validating a requested node set against a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinResolution {
    /// Node ids to actually use (topology order, non-empty).
    pub nodes: Vec<usize>,
    /// Requested ids that do not exist on this machine.
    pub unknown: Vec<usize>,
}

/// Parse a kernel cpulist string such as `"0-3,8,10-11"` into CPU ids.
/// Returns `None` on malformed input.
pub fn parse_cpulist(s: &str) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    if s.is_empty() {
        return Some(out);
    }
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return None;
        }
        match part.split_once('-') {
            Some((lo, hi)) => {
                let lo: usize = lo.trim().parse().ok()?;
                let hi: usize = hi.trim().parse().ok()?;
                if hi < lo {
                    return None;
                }
                out.extend(lo..=hi);
            }
            None => out.push(part.trim().parse().ok()?),
        }
    }
    Some(out)
}

/// Why a pin attempt did not take effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PinError {
    /// The platform has no `sched_setaffinity` (non-Linux build).
    Unsupported,
    /// The syscall failed (errno-style code, e.g. EINVAL for an offline
    /// CPU).
    Syscall(i32),
    /// The CPU set was empty or contained ids beyond the mask width.
    BadCpuSet,
}

impl fmt::Display for PinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinError::Unsupported => write!(f, "thread pinning unsupported on this platform"),
            PinError::Syscall(e) => write!(f, "sched_setaffinity failed (errno {e})"),
            PinError::BadCpuSet => write!(f, "invalid cpu set for pinning"),
        }
    }
}

/// Width of the affinity mask we pass to the kernel: 1024 CPUs, matching
/// glibc's `cpu_set_t`.
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    // glibc wrapper over the sched_setaffinity syscall; declared directly
    // instead of via the libc crate because the workspace builds offline.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread to the given CPU set. On non-Linux targets this
/// is a no-op returning [`PinError::Unsupported`]; callers treat failure
/// as "run unpinned", never fatal.
pub fn pin_current_thread(cpus: &[usize]) -> Result<(), PinError> {
    if cpus.is_empty() {
        return Err(PinError::BadCpuSet);
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    for &cpu in cpus {
        let word = cpu / 64;
        if word >= CPU_SET_WORDS {
            return Err(PinError::BadCpuSet);
        }
        mask[word] |= 1u64 << (cpu % 64);
    }
    pin_impl(&mask)
}

#[cfg(target_os = "linux")]
fn pin_impl(mask: &[u64; CPU_SET_WORDS]) -> Result<(), PinError> {
    // pid 0 = the calling thread (glibc routes this to the tid).
    let rc = unsafe { sched_setaffinity(0, CPU_SET_WORDS * 8, mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(PinError::Syscall(errno_best_effort()))
    }
}

#[cfg(target_os = "linux")]
fn errno_best_effort() -> i32 {
    // glibc's errno is thread-local behind `__errno_location`.
    extern "C" {
        fn __errno_location() -> *mut i32;
    }
    unsafe { *__errno_location() }
}

#[cfg(not(target_os = "linux"))]
fn pin_impl(_mask: &[u64; CPU_SET_WORDS]) -> Result<(), PinError> {
    Err(PinError::Unsupported)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpulist_single_and_ranges() {
        assert_eq!(parse_cpulist("0"), Some(vec![0]));
        assert_eq!(parse_cpulist("0-3"), Some(vec![0, 1, 2, 3]));
        assert_eq!(parse_cpulist("0-2,8,10-11"), Some(vec![0, 1, 2, 8, 10, 11]));
        assert_eq!(parse_cpulist(""), Some(vec![]));
    }

    #[test]
    fn cpulist_rejects_malformed() {
        assert_eq!(parse_cpulist("a"), None);
        assert_eq!(parse_cpulist("3-1"), None);
        assert_eq!(parse_cpulist("1,,2"), None);
        assert_eq!(parse_cpulist("1-"), None);
    }

    fn fixture_tree(spec: &[(usize, &str)]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "taskrt-topo-fixture-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for (id, cpulist) in spec {
            let nd = dir.join(format!("node{id}"));
            std::fs::create_dir_all(&nd).unwrap();
            std::fs::write(nd.join("cpulist"), format!("{cpulist}\n")).unwrap();
        }
        // Distractor entries the parser must skip.
        std::fs::write(dir.join("possible"), "0-1\n").unwrap();
        std::fs::create_dir_all(dir.join("power")).unwrap();
        dir
    }

    #[test]
    fn sysfs_fixture_two_nodes() {
        let root = fixture_tree(&[(0, "0-3"), (1, "4-7")]);
        let t = Topology::from_sysfs(&root).expect("fixture parses");
        assert!(t.from_sysfs);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.nodes[0].cpus, vec![0, 1, 2, 3]);
        assert_eq!(t.nodes[1].cpus, vec![4, 5, 6, 7]);
        assert_eq!(t.node_of_cpu(5), Some(1));
        assert_eq!(t.node_of_cpu(99), None);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sysfs_fixture_skips_memory_only_nodes() {
        let root = fixture_tree(&[(0, "0-1"), (2, "")]);
        let t = Topology::from_sysfs(&root).expect("fixture parses");
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.nodes[0].id, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn sysfs_missing_tree_is_none() {
        assert!(Topology::from_sysfs(Path::new("/definitely/not/here")).is_none());
    }

    #[test]
    fn detect_never_empty() {
        let t = Topology::detect();
        assert!(t.num_nodes() >= 1);
        assert!(t.num_cpus() >= 1);
    }

    #[test]
    fn resolve_keeps_known_reports_unknown() {
        let root = fixture_tree(&[(0, "0-3"), (1, "4-7")]);
        let t = Topology::from_sysfs(&root).unwrap();
        let r = t.resolve_nodes(&[1, 5, 1]);
        assert_eq!(r.nodes, vec![1]);
        assert_eq!(r.unknown, vec![5]);
        let all = t.resolve_nodes(&[]);
        assert_eq!(all.nodes, vec![0, 1]);
        assert!(all.unknown.is_empty());
        // All-unknown request degrades to all nodes.
        let deg = t.resolve_nodes(&[9]);
        assert_eq!(deg.nodes, vec![0, 1]);
        assert_eq!(deg.unknown, vec![9]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn assign_workers_blocks_then_round_robins() {
        let root = fixture_tree(&[(0, "0-3"), (1, "4-7")]);
        let t = Topology::from_sysfs(&root).unwrap();
        let a = t.assign_workers(4, &[0, 1]);
        assert_eq!(a, vec![(0, 0), (0, 1), (1, 4), (1, 5)]);
        // Oversubscription wraps within the node.
        let b = t.assign_workers(6, &[0]);
        assert_eq!(b, vec![(0, 0), (0, 1), (0, 2), (0, 3), (0, 0), (0, 1)]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn pin_current_thread_rejects_empty_and_oob() {
        assert_eq!(pin_current_thread(&[]), Err(PinError::BadCpuSet));
        assert_eq!(pin_current_thread(&[20000]), Err(PinError::BadCpuSet));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_current_thread_to_all_cpus_succeeds() {
        let t = Topology::detect();
        let cpus: Vec<usize> = t.nodes.iter().flat_map(|n| n.cpus.clone()).collect();
        pin_current_thread(&cpus).expect("pinning to the full cpu set succeeds");
    }
}
