//! # parcelnet — a real network transport for multi-domain LULESH
//!
//! The paper's future-work item ("extend to multi-node environments and
//! compare against MPI") needs a message layer before it needs a cluster.
//! This crate is that layer, shaped after an HPX parcelport: a [`Transport`]
//! trait for one point-to-point link carrying tagged planes of `Real`s,
//! with two implementations —
//!
//! * [`channel::ChannelTransport`] — the in-process crossbeam channels the
//!   `multidom` drivers always used, now behind the trait (zero behavior
//!   change, plus a recv deadline);
//! * [`tcp::TcpTransport`] — length-prefixed binary frames over loopback or
//!   real sockets, with a rank/sequence/tag header, an FNV-1a payload
//!   checksum, a rank handshake at connect, and a bootstrap that gathers
//!   every rank's listener address through rank 0 (no port arithmetic).
//!
//! Ranks are wired as an arbitrary neighbour graph (a 1-D ζ chain or a 3-D
//! rank grid with up to 26 neighbours each); every payload-carrying tag
//! names the [`dir`]ection it travels in, so concurrent per-neighbour sends
//! over one link never alias.
//!
//! The failure model is typed and total: every operation returns
//! [`ParcelError`] (peer closed, timeout, checksum mismatch, protocol
//! violation), every receive is bounded by a deadline, and the dt
//! min-allreduce ([`RankNet::allreduce_dt`]) carries simulation errors so a
//! poisoned rank surfaces the *same* [`LuleshError`] on every rank instead
//! of deadlocking its neighbours — while a *dead* rank surfaces a
//! `ParcelError` on every survivor within the deadline.

#![warn(missing_docs)]

pub mod channel;
pub mod tcp;

use lulesh_core::plan::Halo;
use lulesh_core::types::{LuleshError, Real};
use std::time::{Duration, Instant};

/// The 27 directions of a 3-D neighbour stencil, encoded as
/// `index = (dx+1) + 3·(dy+1) + 9·(dz+1)` for `dx, dy, dz ∈ {−1, 0, +1}`.
/// Index 13 is "self" and never travels on the wire. Direction names spell
/// the three components with `m`/`0`/`p` (x first): ζ− is `00m`, the
/// (+,+,+) corner is `ppp`.
pub mod dir {
    /// Number of stencil directions, including self.
    pub const COUNT: usize = 27;
    /// The "self" direction (0, 0, 0).
    pub const SELF_INDEX: usize = 13;
    /// The six face directions in ghost-layout order ξ−, ξ+, η−, η+, ζ−, ζ+.
    pub const FACES: [usize; 6] = [12, 14, 10, 16, 4, 22];
    /// ζ− (the 1-D chain's "down" link).
    pub const DOWN: usize = 4;
    /// ζ+ (the 1-D chain's "up" link).
    pub const UP: usize = 22;

    /// Direction components to stencil index.
    #[inline]
    pub fn index(dx: i32, dy: i32, dz: i32) -> usize {
        debug_assert!((-1..=1).contains(&dx) && (-1..=1).contains(&dy) && (-1..=1).contains(&dz));
        ((dx + 1) + 3 * (dy + 1) + 9 * (dz + 1)) as usize
    }

    /// Stencil index to direction components.
    #[inline]
    pub fn components(idx: usize) -> (i32, i32, i32) {
        debug_assert!(idx < COUNT);
        (
            (idx % 3) as i32 - 1,
            ((idx / 3) % 3) as i32 - 1,
            (idx / 9) as i32 - 1,
        )
    }

    /// The opposite direction (negate every component).
    #[inline]
    pub fn opposite(idx: usize) -> usize {
        debug_assert!(idx < COUNT);
        26 - idx
    }

    /// Static direction name, e.g. `"00m"` for ζ−.
    pub fn name(idx: usize) -> &'static str {
        const NAMES: [&str; COUNT] = [
            "mmm", "0mm", "pmm", "m0m", "00m", "p0m", "mpm", "0pm", "ppm", "mm0", "0m0", "pm0",
            "m00", "000", "p00", "mp0", "0p0", "pp0", "mmp", "0mp", "pmp", "m0p", "00p", "p0p",
            "mpp", "0pp", "ppp",
        ];
        NAMES[idx]
    }
}

/// A 27-entry static-label table: `concat!` of a prefix with every
/// direction name, indexed by stencil direction.
macro_rules! dir27 {
    ($p:literal) => {
        [
            concat!($p, "mmm"),
            concat!($p, "0mm"),
            concat!($p, "pmm"),
            concat!($p, "m0m"),
            concat!($p, "00m"),
            concat!($p, "p0m"),
            concat!($p, "mpm"),
            concat!($p, "0pm"),
            concat!($p, "ppm"),
            concat!($p, "mm0"),
            concat!($p, "0m0"),
            concat!($p, "pm0"),
            concat!($p, "m00"),
            concat!($p, "000"),
            concat!($p, "p00"),
            concat!($p, "mp0"),
            concat!($p, "0p0"),
            concat!($p, "pp0"),
            concat!($p, "mmp"),
            concat!($p, "0mp"),
            concat!($p, "pmp"),
            concat!($p, "m0p"),
            concat!($p, "00p"),
            concat!($p, "p0p"),
            concat!($p, "mpp"),
            concat!($p, "0pp"),
            concat!($p, "ppp"),
        ]
    };
}

/// Phase tag carried in every frame header, so a mis-sequenced exchange is
/// detected as a protocol error instead of corrupting physics. A halo frame
/// additionally names its [`Halo`] kind and the stencil [`dir`]ection it
/// travels in — the sender's outgoing direction — so the up-to-26
/// concurrent per-neighbour sends of one halo exchange never alias even
/// when several ride the same link in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// One neighbour's surface of a halo exchange: mass (setup
    /// `CommSBN`), forces (`CommSBN`) or gradients (`CommMonoQ`), with
    /// direction.
    Halo(Halo, u8),
    /// dt min-allreduce contribution or broadcast.
    Dt,
    /// Graceful shutdown: both sides exchange `Bye` before closing.
    Bye,
    /// Clock-alignment ping-pong (offset estimation over the dt star).
    Clock,
    /// Per-step live-telemetry summary, piggybacked on the dt star
    /// ([`RankNet::allreduce_dt_live`]): an encoded
    /// [`obs::live::StepSummary`] travelling leaf → root.
    Telemetry,
}

/// Wire encodings: halo kind `k` (in [`Halo::ALL`] order) occupies the
/// 256-slot block at `0x100·(k+1)`, its direction in the low byte. Scalar
/// codes must stay below `0x100` so the block decoding in
/// [`Tag::from_u32`] keeps working.
const TAG_DT: u32 = 4;
const TAG_BYE: u32 = 5;
const TAG_CLOCK: u32 = 6;
const TAG_TELEMETRY: u32 = 7;
const TAG_HALO_BLOCK: u32 = 0x100;

/// Per-direction label tables, indexed by halo kind, then direction.
type Labels = [[&'static str; dir::COUNT]; 3];
static NAME: Labels = [dir27!("mass-"), dir27!("force-"), dir27!("gradient-")];
static SEND: Labels = [
    dir27!("parcel-send-mass-"),
    dir27!("parcel-send-force-"),
    dir27!("parcel-send-gradient-"),
];
static RECV: Labels = [
    dir27!("parcel-recv-mass-"),
    dir27!("parcel-recv-force-"),
    dir27!("parcel-recv-gradient-"),
];
static WAIT: Labels = [
    dir27!("parcel-wait-mass-"),
    dir27!("parcel-wait-force-"),
    dir27!("parcel-wait-gradient-"),
];

impl Tag {
    /// A `kind` halo tag travelling in stencil direction `d`.
    pub fn halo(kind: Halo, d: usize) -> Self {
        debug_assert!(d < dir::COUNT && d != dir::SELF_INDEX);
        Tag::Halo(kind, d as u8)
    }

    /// A mass tag travelling in stencil direction `d`.
    pub fn mass(d: usize) -> Self {
        Tag::halo(Halo::Mass, d)
    }

    /// A force tag travelling in stencil direction `d`.
    pub fn force(d: usize) -> Self {
        Tag::halo(Halo::Forces, d)
    }

    /// A gradient tag travelling in stencil direction `d`.
    pub fn gradient(d: usize) -> Self {
        Tag::halo(Halo::Gradients, d)
    }

    /// Stable lowercase name (used in span labels and error messages);
    /// halo tags append the direction, e.g. `force-00m`.
    pub fn name(self) -> &'static str {
        match self {
            Tag::Halo(k, d) => NAME[k as usize][d as usize],
            Tag::Dt => "dt",
            Tag::Bye => "bye",
            Tag::Clock => "clock",
            Tag::Telemetry => "telemetry",
        }
    }

    /// Wire encoding of this tag.
    pub fn to_u32(self) -> u32 {
        match self {
            Tag::Halo(k, d) => TAG_HALO_BLOCK * (k as u32 + 1) + d as u32,
            Tag::Dt => TAG_DT,
            Tag::Bye => TAG_BYE,
            Tag::Clock => TAG_CLOCK,
            Tag::Telemetry => TAG_TELEMETRY,
        }
    }

    /// Decode a wire tag; `None` for unknown values, and for a halo tag
    /// naming the self direction, which no sender produces.
    pub fn from_u32(v: u32) -> Option<Self> {
        match v {
            TAG_DT => Some(Tag::Dt),
            TAG_BYE => Some(Tag::Bye),
            TAG_CLOCK => Some(Tag::Clock),
            TAG_TELEMETRY => Some(Tag::Telemetry),
            _ => {
                let block = (v / TAG_HALO_BLOCK).checked_sub(1)?;
                let kind = *Halo::ALL.get(block as usize)?;
                let d = (v % TAG_HALO_BLOCK) as usize;
                (d < dir::COUNT && d != dir::SELF_INDEX).then_some(Tag::Halo(kind, d as u8))
            }
        }
    }

    /// `parcel-send-<tag>` span label (static, so it can live in a
    /// [`obs::Span`]).
    pub fn send_label(self) -> &'static str {
        match self {
            Tag::Halo(k, d) => SEND[k as usize][d as usize],
            Tag::Dt => "parcel-send-dt",
            Tag::Bye => "parcel-send-bye",
            Tag::Clock => "parcel-send-clock",
            Tag::Telemetry => "parcel-send-telemetry",
        }
    }

    /// `parcel-recv-<tag>` span label.
    pub fn recv_label(self) -> &'static str {
        match self {
            Tag::Halo(k, d) => RECV[k as usize][d as usize],
            Tag::Dt => "parcel-recv-dt",
            Tag::Bye => "parcel-recv-bye",
            Tag::Clock => "parcel-recv-clock",
            Tag::Telemetry => "parcel-recv-telemetry",
        }
    }

    /// `parcel-wait-<tag>` span label (time blocked before the frame).
    pub fn wait_label(self) -> &'static str {
        match self {
            Tag::Halo(k, d) => WAIT[k as usize][d as usize],
            Tag::Dt => "parcel-wait-dt",
            Tag::Bye => "parcel-wait-bye",
            Tag::Clock => "parcel-wait-clock",
            Tag::Telemetry => "parcel-wait-telemetry",
        }
    }
}

/// A rank's one recorder hook on its links, attached via
/// [`Transport::attach_obs`]: a tracer taking the rank's parcel spans on
/// `lane`, whichever of the rank's threads sends or receives. A frame
/// becomes [`obs::SpanKind::Parcel`] spans (send, receive wait, payload
/// read) with byte counts and peer ranks, one clock read per event edge; a
/// typed failure becomes one zero-length [`ParcelError::span_label`] span.
/// The live telemetry stream is sampled from the same spans
/// ([`obs::live::LaneSampler`]).
#[derive(Clone)]
pub struct ParcelObs {
    tracer: std::sync::Arc<obs::Tracer>,
    lane: usize,
}

impl ParcelObs {
    /// A hook recording parcel spans on `lane` of `tracer`.
    pub fn new(tracer: std::sync::Arc<obs::Tracer>, lane: usize) -> Self {
        Self { tracer, lane }
    }

    /// Nanoseconds on the tracer's clock (the clock
    /// [`RankNet::clock_sync`] aligns).
    pub fn now_ns(&self) -> u64 {
        self.tracer.now_ns()
    }

    /// A frame of `bytes` for `peer` was sent, starting at `start_ns`
    /// (from [`now_ns`](Self::now_ns)).
    pub fn sent(&self, tag: Tag, start_ns: u64, bytes: u64, peer: usize) {
        let end = self.now_ns();
        self.tracer
            .record_parcel(self.lane, tag.send_label(), start_ns, end, bytes, peer);
    }

    /// A frame header from `peer` arrived after a receive that started at
    /// `start_ns`: records the wait span and returns the arrival time.
    pub fn arrived(&self, tag: Tag, start_ns: u64, peer: usize) -> u64 {
        let arrival = self.now_ns();
        self.tracer
            .record_parcel(self.lane, tag.wait_label(), start_ns, arrival, 0, peer);
        arrival
    }

    /// A frame of `bytes` from `peer` was read and verified: the payload
    /// read that began at `arrival_ns` ends now.
    pub fn received(&self, tag: Tag, arrival_ns: u64, bytes: u64, peer: usize) {
        let end = self.now_ns();
        self.tracer
            .record_parcel(self.lane, tag.recv_label(), arrival_ns, end, bytes, peer);
    }
}

/// A typed failure on the link to `peer`: an attached hook records it as
/// one zero-length span, so a failed rank's spans file shows what it
/// observed. Returns `err`.
pub(crate) fn failed(obs: Option<&ParcelObs>, err: ParcelError, peer: usize) -> ParcelError {
    if let Some(o) = obs {
        let now = o.now_ns();
        o.tracer
            .record_parcel(o.lane, err.span_label(), now, now, 0, peer);
    }
    err
}

/// How long a receive polls its link before it sleeps: at small meshes a
/// neighbour's frame usually lands within one rank's few-µs send burst,
/// and taking it on a running thread saves a sleep/wake round trip
/// through the kernel.
const RECV_POLL: Duration = Duration::from_micros(20);

/// The first part of [`RECV_POLL`], polled back to back; the rest yields
/// the core after every poll, so ranks that outnumber cores still let the
/// sender they wait for run (the idle shape of `taskrt`'s workers).
const RECV_SPIN: Duration = Duration::from_micros(5);

/// Poll `ready` for up to [`RECV_POLL`] and return its first `Some`; `None`
/// means the link stayed quiet and the caller blocks for its full
/// deadline. Both transports' `recv` wait through this.
pub(crate) fn poll_before_blocking<T>(mut ready: impl FnMut() -> Option<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        if let Some(v) = ready() {
            return Some(v);
        }
        let waited = start.elapsed();
        if waited >= RECV_POLL {
            return None;
        }
        if waited < RECV_SPIN {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// Typed transport failures. Every variant names the peer rank so a
/// multi-rank failure report reads like an MPI error log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParcelError {
    /// The peer's endpoint is gone (socket EOF/reset, or every channel
    /// sender dropped) — the peer died or shut down mid-protocol.
    PeerClosed {
        /// Rank of the vanished peer.
        peer: usize,
    },
    /// No frame arrived within the receive deadline.
    Timeout {
        /// Rank the receive was posted against.
        peer: usize,
    },
    /// A frame arrived but its payload checksum does not match the header.
    ChecksumMismatch {
        /// Rank the corrupted frame came from.
        peer: usize,
    },
    /// A frame arrived with the wrong phase tag (protocol violation).
    TagMismatch {
        /// Rank the mis-tagged frame came from.
        peer: usize,
        /// Tag the receiver expected.
        expected: Tag,
        /// Tag the frame carried.
        got: Tag,
    },
    /// A frame arrived out of sequence (lost or duplicated message).
    SeqMismatch {
        /// Rank the mis-sequenced frame came from.
        peer: usize,
        /// Sequence number the receiver expected.
        expected: u32,
        /// Sequence number the frame carried.
        got: u32,
    },
    /// The connect-time rank handshake failed (wrong magic, version, rank
    /// or world size).
    Handshake {
        /// Rank the handshake was attempted with.
        peer: usize,
    },
    /// Connection to the peer could not be established in time.
    ConnectTimeout {
        /// Rank the connection was attempted to.
        peer: usize,
    },
    /// An I/O error outside the categories above.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for ParcelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParcelError::PeerClosed { peer } => write!(f, "rank {peer} closed its endpoint"),
            ParcelError::Timeout { peer } => write!(f, "receive from rank {peer} timed out"),
            ParcelError::ChecksumMismatch { peer } => {
                write!(f, "checksum mismatch on frame from rank {peer}")
            }
            ParcelError::TagMismatch {
                peer,
                expected,
                got,
            } => write!(
                f,
                "rank {peer} sent a '{}' frame where '{}' was expected",
                got.name(),
                expected.name()
            ),
            ParcelError::SeqMismatch {
                peer,
                expected,
                got,
            } => write!(
                f,
                "rank {peer} sent sequence {got} where {expected} was expected"
            ),
            ParcelError::Handshake { peer } => write!(f, "handshake with rank {peer} failed"),
            ParcelError::ConnectTimeout { peer } => {
                write!(f, "connecting to rank {peer} timed out")
            }
            ParcelError::Io(kind) => write!(f, "transport i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for ParcelError {}

impl ParcelError {
    /// The `parcel-error-*` label of the zero-length span a traced link
    /// records for this failure.
    pub fn span_label(&self) -> &'static str {
        match self {
            ParcelError::PeerClosed { .. } => "parcel-error-closed",
            ParcelError::Timeout { .. } => "parcel-error-timeout",
            ParcelError::ChecksumMismatch { .. } => "parcel-error-corrupt",
            ParcelError::TagMismatch { .. } => "parcel-error-tag",
            ParcelError::SeqMismatch { .. } => "parcel-error-seq",
            ParcelError::Handshake { .. } => "parcel-error-handshake",
            ParcelError::ConnectTimeout { .. } => "parcel-error-connect",
            ParcelError::Io(_) => "parcel-error-io",
        }
    }
}

/// One point-to-point link to a peer rank. Implementations are internally
/// synchronized (`&self` methods) so a link can be shared between a rank's
/// control thread and its communication tasks.
pub trait Transport: Send + Sync {
    /// The peer rank this link talks to.
    fn peer(&self) -> usize;

    /// Send one tagged frame. Must not block indefinitely on a slow or dead
    /// peer (channel sends use bounded buffers; a TCP send writes what the
    /// socket takes at once and leaves the rest in the link's outbox, which
    /// the rank's next wait on any link flushes).
    fn send(&self, tag: Tag, payload: &[Real]) -> Result<(), ParcelError>;

    /// Receive the next frame, which must carry `tag`, within the link's
    /// receive deadline.
    fn recv(&self, tag: Tag) -> Result<Vec<Real>, ParcelError>;

    /// Graceful shutdown: exchange `Bye` frames so neither side abandons a
    /// link the other still reads from (the "no leaked sockets" guarantee).
    fn close(&self) -> Result<(), ParcelError>;

    /// Attach the rank's recorder hook to this link; only the first
    /// attach counts. Default: no instrumentation.
    fn attach_obs(&self, _obs: ParcelObs) {}
}

/// The dt-allreduce topology: a star through rank 0, expressed as links.
pub enum DtLinks {
    /// Rank 0 holds one link per other rank, ordered by rank (index `i`
    /// talks to rank `i + 1`).
    Root(Vec<Box<dyn Transport>>),
    /// Every other rank holds a single link to rank 0.
    Leaf(Box<dyn Transport>),
}

/// A neighbour of one rank in the halo graph, before links exist: the peer
/// rank plus this rank's outgoing [`dir`]ection toward it. Computed by the
/// decomposition (parcelnet is topology-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NeighborSpec {
    /// Peer rank.
    pub rank: usize,
    /// Outgoing stencil direction from this rank toward `rank`.
    pub dir: u8,
}

/// The chain topology of the 1-D ζ decomposition: rank `r` talks down to
/// `r − 1` (direction ζ−) and up to `r + 1` (direction ζ+).
pub fn chain_specs(ranks: usize) -> Vec<Vec<NeighborSpec>> {
    (0..ranks)
        .map(|r| {
            let mut specs = Vec::new();
            if r > 0 {
                specs.push(NeighborSpec {
                    rank: r - 1,
                    dir: dir::DOWN as u8,
                });
            }
            if r + 1 < ranks {
                specs.push(NeighborSpec {
                    rank: r + 1,
                    dir: dir::UP as u8,
                });
            }
            specs
        })
        .collect()
}

/// One wired neighbour link: the peer, this rank's outgoing direction
/// toward it, and the transport.
pub struct Neighbor {
    /// Peer rank.
    pub rank: usize,
    /// Outgoing stencil direction from this rank toward `rank`.
    pub dir: u8,
    /// The point-to-point link.
    pub link: Box<dyn Transport>,
}

/// One rank's complete communication endpoint: halo neighbours (sorted by
/// direction index) plus the dt star. Built by [`channel::channel_mesh`] /
/// [`channel::channel_mesh_with`] (in-process) or [`tcp::root`]/
/// [`tcp::join`] (sockets).
pub struct RankNet {
    /// This rank.
    pub rank: usize,
    /// World size.
    pub ranks: usize,
    /// Halo neighbour links, sorted by direction index.
    pub neighbors: Vec<Neighbor>,
    /// The dt-allreduce star.
    pub dt: DtLinks,
}

/// Encode an optional simulation error as a wire scalar.
fn err_code(e: Option<LuleshError>) -> Real {
    match e {
        None => 0.0,
        Some(LuleshError::VolumeError) => 1.0,
        Some(LuleshError::QStopError) => 2.0,
    }
}

/// Decode [`err_code`]. Unknown codes conservatively map to `VolumeError`
/// (an abort is an abort; never silently continue).
fn code_err(c: Real) -> Option<LuleshError> {
    match c as i64 {
        0 => None,
        2 => Some(LuleshError::QStopError),
        _ => Some(LuleshError::VolumeError),
    }
}

/// What [`RankNet::allreduce_dt_live`] returns: the global constraint
/// minima, the folded simulation error, and — on rank 0 when telemetry
/// was piggybacked — one raw payload per rank (self at index 0).
pub type AllreduceLiveResult = (Real, Real, Option<LuleshError>, Option<Vec<Vec<Real>>>);

impl RankNet {
    /// The link toward stencil direction `d`, if that neighbour exists.
    pub fn link_to(&self, d: usize) -> Option<&dyn Transport> {
        self.neighbors
            .iter()
            .find(|n| usize::from(n.dir) == d)
            .map(|n| n.link.as_ref())
    }

    /// The ζ− (chain "down") link, if any.
    pub fn down(&self) -> Option<&dyn Transport> {
        self.link_to(dir::DOWN)
    }

    /// The ζ+ (chain "up") link, if any.
    pub fn up(&self) -> Option<&dyn Transport> {
        self.link_to(dir::UP)
    }

    /// The dt min-allreduce through rank 0 with errors riding along: every
    /// rank contributes its constraint minima plus any local simulation
    /// error and receives the global minima plus the first error any rank
    /// reported (folded in rank order, root first — deterministic). A
    /// transport failure anywhere surfaces as `Err(ParcelError)`.
    pub fn allreduce_dt(
        &self,
        c: Real,
        h: Real,
        err: Option<LuleshError>,
    ) -> Result<(Real, Real, Option<LuleshError>), ParcelError> {
        self.allreduce_dt_live(c, h, err, None)
            .map(|(gc, gh, gerr, _)| (gc, gh, gerr))
    }

    /// [`allreduce_dt`](Self::allreduce_dt) with an optional telemetry
    /// sample riding the same star: when `telemetry` is `Some`, each
    /// leaf sends a [`Tag::Telemetry`] frame right after its dt
    /// contribution (buffered, so nobody blocks), and rank 0 collects
    /// one payload per rank — its own at index 0, members at their rank
    /// index — returned alongside the reduction. No extra sync point is
    /// added; the telemetry frames travel inside the barrier the dt
    /// reduction already is. Every rank must agree on which steps pass
    /// `Some` (drivers key it off the shared cycle counter).
    pub fn allreduce_dt_live(
        &self,
        c: Real,
        h: Real,
        err: Option<LuleshError>,
        telemetry: Option<&[Real]>,
    ) -> Result<AllreduceLiveResult, ParcelError> {
        match &self.dt {
            DtLinks::Root(members) => {
                let mut gc = c;
                let mut gh = h;
                let mut gerr = err;
                let mut collected: Vec<Vec<Real>> = Vec::new();
                if let Some(mine) = telemetry {
                    collected.push(mine.to_vec());
                }
                for m in members {
                    let p = m.recv(Tag::Dt)?;
                    if p.len() != 3 {
                        return Err(ParcelError::Io(std::io::ErrorKind::InvalidData));
                    }
                    gc = gc.min(p[0]);
                    gh = gh.min(p[1]);
                    gerr = gerr.or(code_err(p[2]));
                    if telemetry.is_some() {
                        collected.push(m.recv(Tag::Telemetry)?);
                    }
                }
                let frame = [gc, gh, err_code(gerr)];
                for m in members {
                    m.send(Tag::Dt, &frame)?;
                }
                Ok((gc, gh, gerr, telemetry.map(|_| collected)))
            }
            DtLinks::Leaf(link) => {
                link.send(Tag::Dt, &[c, h, err_code(err)])?;
                if let Some(t) = telemetry {
                    link.send(Tag::Telemetry, t)?;
                }
                let p = link.recv(Tag::Dt)?;
                if p.len() != 3 {
                    return Err(ParcelError::Io(std::io::ErrorKind::InvalidData));
                }
                Ok((p[0], p[1], code_err(p[2]), None))
            }
        }
    }

    /// Gracefully close every link (neighbours first, then the dt star).
    /// Called only on the success path; error paths drop links hard so
    /// peers observe `PeerClosed` immediately.
    pub fn close(&self) -> Result<(), ParcelError> {
        for n in &self.neighbors {
            n.link.close()?;
        }
        match &self.dt {
            DtLinks::Root(members) => {
                for m in members {
                    m.close()?;
                }
            }
            DtLinks::Leaf(l) => l.close()?,
        }
        Ok(())
    }

    /// Visit every link of this endpoint (neighbours, then the dt star).
    fn for_each_link(&self, f: &mut dyn FnMut(&dyn Transport)) {
        for n in &self.neighbors {
            f(n.link.as_ref());
        }
        match &self.dt {
            DtLinks::Root(members) => {
                for m in members {
                    f(m.as_ref());
                }
            }
            DtLinks::Leaf(l) => f(l.as_ref()),
        }
    }

    /// Attach the rank's recorder hook to every link of this endpoint.
    pub fn attach_obs(&self, obs: &ParcelObs) {
        self.for_each_link(&mut |l| l.attach_obs(obs.clone()));
    }

    /// Clock-alignment ping-pong over the dt star: rank 0 measures each
    /// leaf's clock offset (`leaf_clock − root_clock`, ns) by the classic
    /// NTP-style estimate over `rounds` exchanges, keeping the round with
    /// the smallest RTT, then tells each leaf its offset. Every rank
    /// returns its own offset (0 on rank 0) for its trace file; merging
    /// subtracts it. `now_ns` must be the same clock the rank's tracer
    /// stamps spans with. `rounds` must agree across ranks.
    pub fn clock_sync(&self, now_ns: &dyn Fn() -> u64, rounds: usize) -> Result<i64, ParcelError> {
        assert!(rounds >= 1);
        match &self.dt {
            DtLinks::Root(members) => {
                for m in members {
                    let mut samples = Vec::with_capacity(rounds);
                    for _ in 0..rounds {
                        let t0 = now_ns();
                        m.send(Tag::Clock, &[t0 as Real])?;
                        let p = m.recv(Tag::Clock)?;
                        let t2 = now_ns();
                        if p.len() != 1 {
                            return Err(ParcelError::Io(std::io::ErrorKind::InvalidData));
                        }
                        samples.push((t0, p[0] as u64, t2));
                    }
                    let offset = estimate_offset(&samples);
                    m.send(Tag::Clock, &[offset as Real])?;
                }
                Ok(0)
            }
            DtLinks::Leaf(link) => {
                for _ in 0..rounds {
                    let p = link.recv(Tag::Clock)?;
                    if p.len() != 1 {
                        return Err(ParcelError::Io(std::io::ErrorKind::InvalidData));
                    }
                    link.send(Tag::Clock, &[now_ns() as Real])?;
                }
                let p = link.recv(Tag::Clock)?;
                if p.len() != 1 {
                    return Err(ParcelError::Io(std::io::ErrorKind::InvalidData));
                }
                Ok(p[0] as i64)
            }
        }
    }
}

/// The NTP-style offset estimate from ping-pong samples `(t0, t_leaf,
/// t2)`: the round with the smallest RTT bounds the error tightest, and
/// within it the leaf's reply is assumed to sit halfway between send and
/// reply arrival: `offset = t_leaf − (t0 + t2) / 2`.
pub fn estimate_offset(samples: &[(u64, u64, u64)]) -> i64 {
    let &(t0, t_leaf, t2) = samples
        .iter()
        .min_by_key(|&&(t0, _, t2)| t2 - t0)
        .expect("at least one sample");
    (t_leaf as i128 - (t0 as i128 + t2 as i128) / 2) as i64
}

/// FNV-1a 64-bit over a byte slice — the frame payload checksum. Cheap,
/// dependency-free, and plenty to catch framing bugs and torn writes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_index_roundtrip() {
        for idx in 0..dir::COUNT {
            let (dx, dy, dz) = dir::components(idx);
            assert_eq!(dir::index(dx, dy, dz), idx);
            let (ox, oy, oz) = dir::components(dir::opposite(idx));
            assert_eq!((ox, oy, oz), (-dx, -dy, -dz));
        }
        assert_eq!(dir::index(0, 0, 0), dir::SELF_INDEX);
        assert_eq!(dir::index(0, 0, -1), dir::DOWN);
        assert_eq!(dir::index(0, 0, 1), dir::UP);
        assert_eq!(dir::name(dir::DOWN), "00m");
        assert_eq!(dir::name(dir::UP), "00p");
        assert_eq!(dir::name(dir::SELF_INDEX), "000");
    }

    /// Every tag: the scalar ones, then each halo kind in all 26
    /// directions a frame can travel in.
    fn every_tag() -> Vec<Tag> {
        let mut all = vec![Tag::Dt, Tag::Bye, Tag::Clock, Tag::Telemetry];
        for d in (0..dir::COUNT).filter(|&d| d != dir::SELF_INDEX) {
            all.extend(Halo::ALL.map(|k| Tag::halo(k, d)));
        }
        all
    }

    #[test]
    fn tag_roundtrip() {
        for t in every_tag() {
            assert_eq!(Tag::from_u32(t.to_u32()), Some(t), "tag {t:?}");
        }
        // The wire encodings of the three halo blocks are fixed.
        assert_eq!(Tag::mass(dir::DOWN).to_u32(), 0x100 + 4);
        assert_eq!(Tag::force(dir::UP).to_u32(), 0x200 + 22);
        assert_eq!(Tag::gradient(0).to_u32(), 0x300);
        assert_eq!(Tag::from_u32(0), None);
        assert_eq!(Tag::from_u32(99), None);
        assert_eq!(Tag::from_u32(0x100 + 27), None);
        assert_eq!(Tag::from_u32(0x300 + 0xff), None);
        assert_eq!(Tag::from_u32(0x400), None);
        // No sender produces the self direction, so no frame carries it.
        for block in [0x100, 0x200, 0x300] {
            assert_eq!(Tag::from_u32(block + dir::SELF_INDEX as u32), None);
        }
        // Codes 8–11 are unassigned: a frame carrying one is a protocol
        // error, not a parcel.
        for v in 8..=11 {
            assert_eq!(Tag::from_u32(v), None, "code {v}");
        }
    }

    #[test]
    fn tag_wire_encodings_and_labels_are_unique() {
        // Satellite: the 27-neighbour tag layout must never alias — across
        // every direction of every kind, wire codes, names, and all three
        // span labels are pairwise distinct.
        let all = every_tag();
        let mut codes: Vec<u32> = all.iter().map(|t| t.to_u32()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "wire codes alias");
        for get in [
            Tag::name as fn(Tag) -> &'static str,
            Tag::send_label,
            Tag::recv_label,
            Tag::wait_label,
        ] {
            let mut labels: Vec<&str> = all.iter().map(|&t| get(t)).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), all.len(), "labels alias");
        }
        // Scalar codes stay clear of every directional block (masking in
        // `from_u32` relies on it).
        for t in [Tag::Dt, Tag::Bye, Tag::Clock, Tag::Telemetry] {
            assert!(
                t.to_u32() < 0x100,
                "{t:?} collides with a directional block"
            );
        }
        // Direction names land in the right table slots.
        assert_eq!(Tag::force(dir::DOWN).send_label(), "parcel-send-force-00m");
        assert_eq!(Tag::mass(dir::UP).name(), "mass-00p");
        assert_eq!(
            Tag::gradient(dir::index(-1, 1, 1)).recv_label(),
            "parcel-recv-gradient-mpp"
        );
    }

    #[test]
    fn chain_specs_wire_neighbours_by_rank() {
        let specs = chain_specs(3);
        assert_eq!(specs[0].len(), 1);
        assert_eq!(
            specs[0][0],
            NeighborSpec {
                rank: 1,
                dir: dir::UP as u8
            }
        );
        assert_eq!(specs[1].len(), 2);
        assert_eq!(
            specs[1][0],
            NeighborSpec {
                rank: 0,
                dir: dir::DOWN as u8
            }
        );
        assert_eq!(specs[2].len(), 1);
        assert_eq!(specs[2][0].rank, 1);
        assert!(chain_specs(1)[0].is_empty());
    }

    #[test]
    fn err_code_roundtrip() {
        for e in [
            None,
            Some(LuleshError::VolumeError),
            Some(LuleshError::QStopError),
        ] {
            assert_eq!(code_err(err_code(e)), e);
        }
        // Unknown codes abort rather than continue.
        assert_eq!(code_err(7.0), Some(LuleshError::VolumeError));
    }

    #[test]
    fn fnv_distinguishes_payloads() {
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
        assert_ne!(fnv1a64(b""), fnv1a64(b"\0"));
        // Known FNV-1a vector.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn offset_estimate_picks_the_tightest_round() {
        // Second sample has the smallest RTT (10 ns): offset must come
        // from it alone. t_leaf = 1000 when the root midpoint is 505.
        let samples = [(0, 2000, 400), (500, 1000, 510), (600, 3000, 1000)];
        assert_eq!(estimate_offset(&samples), 1000 - 505);
        // A leaf behind the root yields a negative offset.
        let samples = [(1000, 200, 1010)];
        assert_eq!(estimate_offset(&samples), 200 - 1005);
    }

    #[test]
    fn clock_sync_recovers_injected_skew() {
        use std::time::Instant;
        // Three ranks over in-process channels share one real clock; give
        // each a fake epoch offset and check the protocol measures it.
        let skews: [i64; 3] = [0, 1_000_000_000, -50_000_000];
        let epoch = Instant::now();
        let nets = channel::channel_mesh(3, std::time::Duration::from_secs(2));
        let handles: Vec<_> = nets
            .into_iter()
            .map(|net| {
                let skew = skews[net.rank];
                std::thread::spawn(move || {
                    // A 10 s base keeps the fake clock positive under a
                    // negative skew.
                    let now =
                        move || (epoch.elapsed().as_nanos() as i64 + 10_000_000_000 + skew) as u64;
                    let off = net.clock_sync(&now, 8).unwrap();
                    (net.rank, off)
                })
            })
            .collect();
        for h in handles {
            let (rank, off) = h.join().unwrap();
            if rank == 0 {
                assert_eq!(off, 0);
            } else {
                // True offset is leaf_skew − root_skew; in-process RTTs
                // are microseconds, so 2 ms of tolerance is generous.
                let want = skews[rank];
                assert!(
                    (off - want).abs() < 2_000_000,
                    "rank {rank}: measured {off}, want {want}"
                );
            }
        }
    }

    #[test]
    fn telemetry_piggybacks_on_the_dt_star() {
        // 3 ranks over channels; every rank contributes a telemetry
        // payload on every allreduce. Rank 0 must collect all three in
        // rank order; leaves get the reduction and no payloads; the
        // reduction itself must match the plain allreduce semantics.
        let nets = channel::channel_mesh(3, std::time::Duration::from_secs(2));
        let handles: Vec<_> = nets
            .into_iter()
            .map(|net| {
                std::thread::spawn(move || {
                    let rank = net.rank;
                    let mine = [rank as Real, 100.0 + rank as Real];
                    let (gc, gh, gerr, collected) = net
                        .allreduce_dt_live(
                            1.0 + rank as Real,
                            10.0 - rank as Real,
                            None,
                            Some(&mine),
                        )
                        .unwrap();
                    net.close().unwrap();
                    (rank, gc, gh, gerr, collected)
                })
            })
            .collect();
        for h in handles {
            let (rank, gc, gh, gerr, collected) = h.join().unwrap();
            assert_eq!((gc, gh), (1.0, 8.0), "rank {rank}");
            assert_eq!(gerr, None);
            if rank == 0 {
                let c = collected.expect("root collects telemetry");
                assert_eq!(c.len(), 3);
                for (r, p) in c.iter().enumerate() {
                    assert_eq!(p.as_slice(), &[r as Real, 100.0 + r as Real], "rank {r}");
                }
            } else {
                assert!(collected.is_none(), "leaves collect nothing");
            }
        }
    }

    #[test]
    fn clock_sync_skew_stays_bounded_under_load() {
        // Satellite: the straggler detector compares step times measured
        // on different ranks' clocks, so the sync error under CPU load
        // bounds the detector's skew. Saturate the host with busy
        // threads, then check the min-RTT estimator still recovers an
        // injected 100 ms skew to well under the detector's 0.5 ms
        // noise floor times a safety factor (5 ms here: slow CI hosts).
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::Instant;
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let busy: Vec<_> = (0..std::thread::available_parallelism().map_or(4, |n| n.get()))
            .map(|_| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut x = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        std::hint::black_box(x);
                    }
                })
            })
            .collect();
        let skews: [i64; 2] = [0, 100_000_000];
        let epoch = Instant::now();
        let nets = channel::channel_mesh(2, std::time::Duration::from_secs(5));
        let handles: Vec<_> = nets
            .into_iter()
            .map(|net| {
                let skew = skews[net.rank];
                std::thread::spawn(move || {
                    let now =
                        move || (epoch.elapsed().as_nanos() as i64 + 10_000_000_000 + skew) as u64;
                    let off = net.clock_sync(&now, 16).unwrap();
                    (net.rank, off)
                })
            })
            .collect();
        for h in handles {
            let (rank, off) = h.join().unwrap();
            if rank == 1 {
                assert!(
                    (off - skews[1]).abs() < 5_000_000,
                    "skew error {} ns exceeds the 5 ms bound under load",
                    off - skews[1]
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
        for b in busy {
            b.join().unwrap();
        }
    }

    /// Both endpoints of a fresh link of `kind` ("channel" or "tcp").
    fn link_pair(kind: &str, deadline: Duration) -> (Box<dyn Transport>, Box<dyn Transport>) {
        match kind {
            "channel" => {
                let (a, b) = channel::ChannelTransport::pair(0, 1, deadline);
                (Box::new(a), Box::new(b))
            }
            _ => {
                let (a, b) = tcp::loopback_pair(&tcp::TcpConfig::with_deadline(deadline)).unwrap();
                (Box::new(a), Box::new(b))
            }
        }
    }

    /// Run `peer` on its own thread, released the moment this thread is
    /// about to receive from it, so it acts while that receive polls.
    fn while_receiving<T: Send + 'static>(
        peer: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::JoinHandle<T> {
        let go = std::sync::Arc::new(std::sync::Barrier::new(2));
        let release = std::sync::Arc::clone(&go);
        let h = std::thread::spawn(move || {
            release.wait();
            peer()
        });
        go.wait();
        h
    }

    #[test]
    fn the_receive_poll_keeps_the_failure_model() {
        let tag = Tag::force(dir::UP);
        let long = Duration::from_secs(2);
        for kind in ["channel", "tcp"] {
            // A peer that is gone before the receive, or goes while it
            // polls, is a closed peer, not a timeout: on channels the
            // poll's `try_recv` sees the disconnect itself.
            let (a, b) = link_pair(kind, long);
            drop(b);
            assert_eq!(
                a.recv(tag),
                Err(ParcelError::PeerClosed { peer: 1 }),
                "{kind}"
            );
            let (a, b) = link_pair(kind, long);
            let t0 = Instant::now();
            let closer = while_receiving(move || drop(b));
            assert_eq!(
                a.recv(tag),
                Err(ParcelError::PeerClosed { peer: 1 }),
                "{kind}"
            );
            assert!(t0.elapsed() < long / 4, "{kind}: {:?}", t0.elapsed());
            closer.join().unwrap();

            // A silent peer still times out, after the full deadline and
            // within 50 ms of it.
            let deadline = Duration::from_millis(100);
            let (a, _b) = link_pair(kind, deadline);
            let t0 = Instant::now();
            assert_eq!(a.recv(tag), Err(ParcelError::Timeout { peer: 1 }), "{kind}");
            let waited = t0.elapsed();
            assert!(
                waited >= deadline - Duration::from_millis(5)
                    && waited < deadline + Duration::from_millis(50),
                "{kind}: timed out after {waited:?}"
            );

            // A frame sent while the receive polls is the one returned.
            let (a, b) = link_pair(kind, long);
            let sender = while_receiving(move || {
                b.send(tag, &[1.5, -2.0]).unwrap();
                b
            });
            assert_eq!(a.recv(tag).unwrap(), vec![1.5, -2.0], "{kind}");
            sender.join().unwrap();
        }
    }

    #[test]
    fn errors_display_the_peer() {
        let e = ParcelError::Timeout { peer: 3 };
        assert!(e.to_string().contains("rank 3"));
        let e = ParcelError::TagMismatch {
            peer: 1,
            expected: Tag::force(dir::UP),
            got: Tag::gradient(dir::UP),
        };
        assert!(e.to_string().contains("force-00p") && e.to_string().contains("gradient-00p"));
    }
}
