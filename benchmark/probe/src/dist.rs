//! `multidom`, `parcelnet` and `resil`: the distributed layers, probed on
//! a fixed s24 problem split into two ζ ranks so the numbers are the
//! same experiment whichever workload the traced run belongs to.

use crate::stats::{best, median};
use crate::Ctx;
use multidom::exchange::{dir_face, HaloPlan};
use multidom::{threaded, Decomposition, FaultPlan, Grid3, SimArgs, TransportKind, World};
use obs::dist::RankTrace;
use obs::Tracer;
use parcelnet::channel::{channel_mesh, ChannelTransport};
use parcelnet::{dir, Tag, Transport};
use resil::DomainSnapshot;
use std::time::Duration;

const SIZE: usize = 24;
const REGIONS: usize = 11;
const DEADLINE: Duration = Duration::from_secs(10);
/// Iterations of the lockstep and threaded runs.
const ITERS: u64 = 30;
const BATCHES: usize = 5;

fn decomposition() -> Decomposition {
    Decomposition::with_grid(SIZE, Grid3::new(1, 1, 2))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

pub fn multidom_section(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.cfg.seed;
    let decomp = decomposition();

    // The zero-wait floor: both ranks stepped in lockstep on this thread.
    let mut world = World::build(decomp, REGIONS, 1, 1, seed);
    let (state, ns) = ctx.spans.time("multidom.lockstep_run", || world.run(ITERS));
    let state = state.map_err(|e| format!("World::run failed: {e}"))?;
    ctx.metric(
        "multidom.lockstep_iter_us",
        us(ns) / state.cycle as f64,
        Some(state.cycle as usize),
    );

    // Halo pack and combine on rank 0's mid-blast subdomain.
    let plan = HaloPlan::new(decomp.shape(0), 0, &decomp.neighbors(0));
    let d = &world.domains[0];
    let links = plan.links().len();
    if links == 0 {
        return Err("rank 0 has no halo links".into());
    }
    const PACKS: usize = 200;
    let pack: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (_, ns) = ctx.spans.time("multidom.pack_forces", || {
                for _ in 0..PACKS {
                    for l in 0..links {
                        std::hint::black_box(plan.pack_forces(d, l));
                    }
                }
            });
            us(ns) / PACKS as f64
        })
        .collect();
    ctx.metric(
        "multidom.pack_forces_us",
        best(&pack).expect("BATCHES > 0"),
        Some(BATCHES),
    );
    // Combining zeros leaves the forces as they are, so every batch does
    // the same work on the same values.
    let zeros: Vec<Vec<f64>> = plan
        .links()
        .iter()
        .map(|l| vec![0.0; 3 * l.nodes.len()])
        .collect();
    let combine: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (_, ns) = ctx.spans.time("multidom.combine_forces", || {
                for _ in 0..PACKS {
                    plan.combine_forces(d, &zeros);
                }
            });
            us(ns) / PACKS as f64
        })
        .collect();
    ctx.metric(
        "multidom.combine_forces_us",
        best(&combine).expect("BATCHES > 0"),
        Some(BATCHES),
    );

    // Traffic per step per rank, computed from the plan (not measured):
    // one force frame per link, one gradient frame per face link, one dt
    // frame of three reals on the allreduce star.
    let mut msgs = 1usize;
    let mut bytes = 3 * 8usize;
    for (l, link) in plan.links().iter().enumerate() {
        msgs += 1;
        bytes += 3 * link.nodes.len() * 8;
        if dir_face(link.dir).is_some() {
            msgs += 1;
            bytes += plan.pack_gradients(d, l).len() * 8;
        }
    }
    ctx.metric("multidom.msgs_per_step_per_rank", msgs as f64, None);
    ctx.metric("multidom.bytes_per_step_per_rank", bytes as f64, None);

    // One thread per rank over the channel transport, traced, through the
    // same merge → analyze → verify pipeline `regress` uses.
    let ranks = decomp.ranks();
    let tracer = Tracer::shared(ranks);
    let results = ctx
        .spans
        .time("multidom.threaded_run", || {
            threaded::run_transport(
                decomp,
                TransportKind::Channel,
                DEADLINE,
                SimArgs::new(REGIONS, 1, 1, seed, ITERS),
                Some(tracer.clone()),
                FaultPlan::NONE,
            )
        })
        .0;
    for (r, res) in results.into_iter().enumerate() {
        res.map_err(|e| format!("rank {r} failed: {e}"))?;
    }
    let spans = tracer.drain();
    let traces: Vec<RankTrace> = (0..ranks)
        .map(|rank| {
            let own: Vec<obs::Span> = spans.iter().filter(|s| s.worker == rank).cloned().collect();
            RankTrace::from_spans(
                rank,
                ranks,
                rank,
                0,
                vec![(rank, format!("rank{rank}"))],
                &own,
            )
        })
        .collect();
    let merged = obs::dist::merge(traces).map_err(|e| format!("trace merge failed: {e}"))?;
    let analysis = obs::dist::analyze(&merged);
    analysis
        .verify()
        .map_err(|e| format!("Analysis::verify failed: {e}"))?;
    let total_wall: f64 = analysis.per_rank.iter().map(|r| r.wall_ns as f64).sum();
    let frac = |f: fn(&obs::dist::RankBreakdown) -> u64| {
        analysis.per_rank.iter().map(|r| f(r) as f64).sum::<f64>() / total_wall
    };
    let n = Some(ITERS as usize);
    ctx.metric("multidom.busy_frac", frac(|r| r.busy_ns), n);
    ctx.metric("multidom.pack_frac", frac(|r| r.pack_ns), n);
    ctx.metric("multidom.send_frac", frac(|r| r.send_ns), n);
    ctx.metric("multidom.wait_frac", frac(|r| r.wait_ns), n);
    ctx.metric(
        "multidom.critical_path_ms",
        analysis.critical_path_ns as f64 / 1e6,
        n,
    );
    Ok(())
}

pub fn parcelnet_section(ctx: &mut Ctx) -> Result<(), String> {
    const PINGS: usize = 2_000;
    const BULK_ELEMS: usize = 1 << 16;
    const BULKS: usize = 40;
    let tag = Tag::force(dir::UP);
    let net = |e: parcelnet::ParcelError| format!("transport failed: {e}");

    // In-process channel link: ping-pong for latency, bulk echo for
    // bandwidth, the same shape `tcp::measure_loopback` measures.
    let (a, b) = ChannelTransport::pair(0, 1, DEADLINE);
    let (rtt_ns, bulk_ns) = std::thread::scope(|s| -> Result<(u64, u64), String> {
        let echo = s.spawn(move || -> Result<(), parcelnet::ParcelError> {
            for _ in 0..PINGS + BULKS {
                let p = b.recv(tag)?;
                b.send(tag, &p)?;
            }
            Ok(())
        });
        let ping = [0.5f64];
        let (r, rtt_ns) = ctx.spans.time("parcelnet.channel_pingpong", || {
            (0..PINGS).try_for_each(|_| a.send(tag, &ping).and_then(|()| a.recv(tag).map(drop)))
        });
        r.map_err(net)?;
        let bulk = vec![1.0f64; BULK_ELEMS];
        let (r, bulk_ns) = ctx.spans.time("parcelnet.channel_bulk", || {
            (0..BULKS).try_for_each(|_| a.send(tag, &bulk).and_then(|()| a.recv(tag).map(drop)))
        });
        r.map_err(net)?;
        echo.join()
            .map_err(|_| "echo thread panicked")?
            .map_err(net)?;
        Ok((rtt_ns, bulk_ns))
    })?;
    ctx.metric(
        "parcelnet.channel_rtt_us",
        us(rtt_ns) / PINGS as f64,
        Some(PINGS),
    );
    // bytes per ns × 1000 = MB/s; a round moves the payload both ways.
    let bulk_bytes = (BULK_ELEMS * 8 * 2 * BULKS) as f64;
    ctx.metric(
        "parcelnet.channel_bw_MBps",
        bulk_bytes / bulk_ns as f64 * 1e3,
        Some(BULKS),
    );

    let cal = ctx
        .spans
        .time("parcelnet.tcp_loopback", || {
            parcelnet::tcp::measure_loopback(PINGS, BULK_ELEMS, BULKS)
        })
        .0
        .map_err(net)?;
    ctx.metric(
        "parcelnet.tcp_rtt_us",
        2.0 * cal.latency_ns / 1e3,
        Some(PINGS),
    );
    ctx.metric(
        "parcelnet.tcp_bw_MBps",
        cal.bandwidth_bytes_per_ns * 1e3,
        Some(BULKS),
    );

    // The dt allreduce every rank does once per step, on a 2-rank mesh.
    const REDUCES: usize = 2_000;
    let mut mesh = channel_mesh(2, DEADLINE);
    let leaf = mesh.pop().expect("two ranks");
    let root = mesh.pop().expect("two ranks");
    let ns = std::thread::scope(|s| -> Result<u64, String> {
        let peer = s.spawn(move || {
            (0..REDUCES).try_for_each(|_| leaf.allreduce_dt(2.0, 3.0, None).map(drop))
        });
        let (r, ns) = ctx.spans.time("parcelnet.allreduce_dt", || {
            (0..REDUCES).try_for_each(|_| root.allreduce_dt(1.0, 4.0, None).map(drop))
        });
        r.map_err(net)?;
        peer.join()
            .map_err(|_| "allreduce peer panicked")?
            .map_err(net)?;
        Ok(ns)
    })?;
    ctx.metric(
        "parcelnet.allreduce_dt_us",
        us(ns) / REDUCES as f64,
        Some(REDUCES),
    );
    Ok(())
}

pub fn resil_section(ctx: &mut Ctx) -> Result<(), String> {
    const REPS: usize = 20;
    let mut world = World::build(decomposition(), REGIONS, 1, 1, ctx.cfg.seed);
    let state = world
        .run(ITERS)
        .map_err(|e| format!("World::run failed: {e}"))?;
    let d = &world.domains[0];

    let mut snap = DomainSnapshot::capture(0, d, &state);
    let capture: Vec<f64> = (0..REPS)
        .map(|_| {
            let (s, ns) = ctx
                .spans
                .time("resil.capture", || DomainSnapshot::capture(0, d, &state));
            snap = s;
            us(ns)
        })
        .collect();
    ctx.metric(
        "resil.capture_us",
        median(&capture).expect("REPS > 0"),
        Some(REPS),
    );

    let mut buf = Vec::new();
    let serialize: Vec<f64> = (0..REPS)
        .map(|_| {
            ctx.spans
                .time("resil.serialize", || snap.write_bytes_into(&mut buf))
                .1 as f64
        })
        .collect();
    ctx.metric("resil.snapshot_bytes", buf.len() as f64, None);
    ctx.metric(
        "resil.serialize_MBps",
        buf.len() as f64 / best(&serialize).expect("REPS > 0") * 1e3,
        Some(REPS),
    );

    let dir = ctx
        .cfg
        .out
        .join(format!("probe_ckpt_{}", std::process::id()));
    let writes: Result<Vec<f64>, String> = (0..REPS as u64)
        .map(|cycle| {
            let (r, ns) = ctx.spans.time("resil.file_write", || {
                resil::write_snapshot_buffered(&dir, &snap, cycle, &mut buf)
            });
            r.map(|()| ns as f64 / 1e6)
                .map_err(|e| format!("write_snapshot_buffered failed: {e}"))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    ctx.metric(
        "resil.file_write_ms",
        median(&writes?).expect("REPS > 0"),
        Some(REPS),
    );

    let restores: Result<Vec<f64>, String> = (0..REPS)
        .map(|_| {
            let (r, ns) = ctx.spans.time("resil.restore", || snap.restore(d));
            r.map(|_| us(ns))
                .map_err(|e| format!("restore failed: {e}"))
        })
        .collect();
    ctx.metric(
        "resil.restore_us",
        median(&restores?).expect("REPS > 0"),
        Some(REPS),
    );
    Ok(())
}
