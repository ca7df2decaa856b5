//! The benchmark's inputs: the five drivers, the four workloads and the
//! task-phase labels. Pure data, shared with the probe (`#[path]`), so the
//! runner that declares the rows and the probe that fills them read one
//! table.

/// The five ways a user runs LULESH: the CLI binaries, black-box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    Serial,
    Omp,
    Task,
    MultidomChannel,
    MultidomTcp,
}

impl Driver {
    /// Block order inside one round.
    pub const ALL: [Driver; 5] = [
        Driver::Serial,
        Driver::Omp,
        Driver::Task,
        Driver::MultidomChannel,
        Driver::MultidomTcp,
    ];

    /// Suffix of the driver's `fom_*_zps` and `derived.block_spread_*` names.
    pub fn key(self) -> &'static str {
        match self {
            Driver::Serial => "serial",
            Driver::Omp => "omp",
            Driver::Task => "task",
            Driver::MultidomChannel => "multidom_channel",
            Driver::MultidomTcp => "multidom_tcp",
        }
    }

    /// Release binary name under `<target>/release/`.
    pub fn binary(self) -> &'static str {
        match self {
            Driver::Serial => "lulesh-serial",
            Driver::Omp => "lulesh-omp",
            Driver::Task => "lulesh-task",
            Driver::MultidomChannel | Driver::MultidomTcp => "lulesh-multidom",
        }
    }

    /// Threads (or ranks) a block of this driver occupies.
    pub fn parallelism(self, w: &Workload, threads: usize) -> usize {
        match self {
            Driver::Serial => 1,
            Driver::Omp | Driver::Task => threads,
            Driver::MultidomChannel | Driver::MultidomTcp => w.ranks(threads),
        }
    }

    /// The driver-specific flags appended to the workload's input flags.
    pub fn flags(self, w: &Workload, threads: usize) -> Vec<String> {
        let grid = || format!("1x1x{}", w.ranks(threads));
        match self {
            Driver::Serial => vec![],
            Driver::Omp | Driver::Task => vec!["--threads".into(), threads.to_string()],
            Driver::MultidomChannel => {
                vec![
                    "--grid".into(),
                    grid(),
                    "--transport".into(),
                    "channel".into(),
                ]
            }
            Driver::MultidomTcp => {
                vec!["--grid".into(), grid(), "--transport".into(), "tcp".into()]
            }
        }
    }
}

/// One set of inputs. Every driver runs every workload on the same flags,
/// so `zones × iterations` is the same work for all of them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `--s`: elements per edge.
    pub size: u64,
    /// `--r`, `--b`, `--c`.
    pub regions: u32,
    pub balance: u32,
    pub cost: u32,
    /// `--i`; `None` runs to the stop time. Blocks are kept to 0.1–0.3 s:
    /// the host's fast state lasts seconds, and the fastest decile of many
    /// short blocks finds it where a few long ones average over it.
    pub max_iterations: Option<u64>,
    /// ζ ranks the multidom drivers use when two cores are available.
    /// 45 has no even divisor, so the paper size runs one rank: the rank
    /// step loop with no halo traffic.
    pub multidom_ranks: usize,
    /// Pinned physics: iterations executed and the final origin energy as
    /// the CSV prints it. Every block of every driver must reproduce both.
    pub iterations: u64,
    pub energy: &'static str,
    /// The driver `cpu_us_per_zone`, `setup_s` and `peak_rss_mb` describe.
    pub primary: Driver,
    /// Program seeds (region assignment) of equal work; see
    /// [`Workload::program_seed`].
    pub seeds: [u64; 12],
}

impl Workload {
    /// Zone-iterations of one block: the numerator of every `fom_*`.
    pub fn zone_iterations(&self) -> f64 {
        (self.size * self.size * self.size * self.iterations) as f64
    }

    /// Ranks of a multidom block: never more than the threads allowed.
    pub fn ranks(&self, threads: usize) -> usize {
        self.multidom_ranks.min(threads)
    }

    /// The program's `--seed` for benchmark seed `seed`. The region
    /// assignment is LULESH's only random input and the EOS work of a run
    /// moves up to 3× with it, so the benchmark seed picks from a table of
    /// assignments that differ but cost the same as seed 0's within 1%
    /// (whole mesh and one multidom rank) and whose largest region chain is
    /// within 3%. `probe vet-seeds --workload NAME` regenerates a table and a
    /// probe unit test holds every entry to those tolerances.
    pub fn program_seed(&self, seed: u64) -> u64 {
        self.seeds[(seed % self.seeds.len() as u64) as usize]
    }

    /// The input flags shared by all drivers (`--q` and the program's
    /// `--seed` included).
    pub fn flags(&self, seed: u64) -> Vec<String> {
        let mut f: Vec<String> = vec![
            "--s".into(),
            self.size.to_string(),
            "--r".into(),
            self.regions.to_string(),
            "--b".into(),
            self.balance.to_string(),
            "--c".into(),
            self.cost.to_string(),
        ];
        if let Some(i) = self.max_iterations {
            f.extend(["--i".into(), i.to_string()]);
        }
        f.extend([
            "--seed".into(),
            self.program_seed(seed).to_string(),
            "--q".into(),
        ]);
        f
    }
}

/// The four workloads. Each moves the work to a different layer; the
/// `why` strings are what `BENCHMARK.json` carries.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_s45",
        why: "Smallest paper size: 91k zones, ~35 MB >> L2, ms-grain tasks. core kernels do >95% of the work; runtime-overhead changes should not show. multidom runs one rank (no halo).",
        size: 45,
        regions: 11,
        balance: 1,
        cost: 1,
        max_iterations: Some(4),
        multidom_ranks: 1,
        iterations: 4,
        energy: "3.125944e7",
        primary: Driver::Task,
        seeds: [0, 111, 217, 1253, 1434, 1674, 1738, 1768, 1772, 2644, 2898, 3142],
    },
    Workload {
        name: "small_s10_full",
        why: "1000 zones to stop time (231 iterations, published energy 2.720531e4): us-grain tasks, fits in L2, so taskrt spawn/wake, ompsim fork-join and parcelnet latency dominate; kernels show little.",
        size: 10,
        regions: 11,
        balance: 1,
        cost: 1,
        max_iterations: None,
        multidom_ranks: 2,
        iterations: 231,
        energy: "2.720531e4",
        primary: Driver::Task,
        seeds: [0, 2400, 10345, 12022, 12909, 12942, 16109, 21129, 23324, 24051, 27488, 28028],
    },
    Workload {
        name: "regions_s24_r21_c32",
        why: "21 skewed regions with rep cost 32: EOS is ~2/3 of serial time, so independent region chains and per-region barriers decide the outcome; uniform-loop gains that hurt uneven chains show here.",
        size: 24,
        regions: 21,
        balance: 2,
        cost: 32,
        max_iterations: Some(8),
        multidom_ranks: 2,
        iterations: 8,
        energy: "3.930683e6",
        primary: Driver::Task,
        seeds: [0, 131974, 263986, 301870, 321715, 359134, 388312, 475813, 582655, 781002, 925134, 937037],
    },
    Workload {
        name: "multidom_s24_z2",
        why: "s24 split into 2 zeta ranks on 2 cores (oversubscription 1.0): multidom halo pack/combine and parcelnet framing/latency do their work here; serial and task on the same input are the reference.",
        size: 24,
        regions: 11,
        balance: 1,
        cost: 1,
        max_iterations: Some(20),
        multidom_ranks: 2,
        iterations: 20,
        energy: "2.242747e6",
        primary: Driver::MultidomChannel,
        seeds: [0, 82059, 172044, 451236, 941012, 1082206, 1383662, 1388553, 1438379, 2389539, 3171888, 3393366],
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The labels `TaskLulesh::phase_stats()` produces under the default
/// `Features`, one `task.phase.<label>.busy_us_per_iter` row each. Only
/// labels that do work in the benchmarked configuration are listed (a row
/// that is 0 on every run cannot show movement): `node-gather` and
/// `node-update` exist only with kernel merging off. The probe names any
/// label it meets that is not here.
pub const TASK_PHASES: [&str; 10] = [
    "stress",
    "hourglass",
    "node",
    "kinematics",
    "monoq",
    "vnewc",
    "qstop",
    "eos",
    "volume",
    "constraints",
];
