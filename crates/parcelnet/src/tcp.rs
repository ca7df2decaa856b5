//! TCP transport: length-prefixed binary frames over loopback or real
//! sockets, HPX-parcelport-style.
//!
//! **Wire format.** Every frame is a 24-byte little-endian header —
//! `[tag u32][seq u32][src_rank u32][len u32][checksum u64]` — followed by
//! `len` IEEE-754 doubles. `checksum` is FNV-1a 64 over the payload bytes;
//! `seq` is a per-link, per-direction counter starting at 0, so a lost or
//! duplicated frame is a typed [`ParcelError::SeqMismatch`], not silent
//! physics corruption.
//!
//! **Handshake.** Each connection opens with
//! `[magic u64][version u32][rank u32][ranks u32][kind u8]` from both
//! sides; mismatched magic/version/world-size or an unexpected peer rank is
//! a typed [`ParcelError::Handshake`]. Every handshake read *and* write is
//! bounded by the receive deadline — a peer that dies mid-handshake
//! surfaces as a typed error, never a hung launcher.
//!
//! **Bootstrap.** Rank 0 binds the one well-known address. Every other
//! rank binds an ephemeral listener (when it has higher-rank neighbours),
//! connects to rank 0 (this link later carries the dt allreduce),
//! registers its listener address, and receives the full rank→address
//! map. Halo links for an arbitrary neighbour graph — the ζ chain or a
//! 3-D rank grid's 26-neighbour stencil — are then wired rank-ordered:
//! each rank *dials* every lower-rank neighbour (ascending) and *accepts*
//! one connection per higher-rank neighbour, identified by its hello.
//! Rank 0 dials nobody, so the wait-for DAG is ordered by rank and the
//! bootstrap cannot deadlock. No port arithmetic, no contiguous port
//! ranges.
//!
//! **One progress engine per rank.** After the handshake a link's socket
//! is non-blocking. A send writes its frame on the calling thread; a tail
//! the socket refuses stays in the link's outbox, and later frames of the
//! link queue behind it, so frames keep their `seq` order and no send
//! blocks. All TCP links of one [`RankNet`] share one engine: a thread of
//! the rank waiting in `recv` on any of them flushes every pending outbox
//! of the rank, sleeping in one `poll(2)`. A receive reads the rest of a
//! frame the same way, so the classic MPI_Send cycle deadlock can't form,
//! and offers its own link's tail to the socket once more when the frame
//! is in. A tail waits while its rank computes between transport calls;
//! only a frame larger than the socket buffers leaves one.
//!
//! **Receives.** A receive polls the socket for about 20 µs before it
//! sleeps for the full deadline, so a frame that is already on its way is
//! read without a sleep/wake round trip.

use crate::{
    dir, failed, fnv1a64, poll_before_blocking, DtLinks, Neighbor, NeighborSpec, ParcelError,
    ParcelObs, RankNet, Tag, Transport,
};
use lulesh_core::types::Real;
use parking_lot::Mutex;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const MAGIC: u64 = 0x5041_5243_4c4e_4554; // "PARCLNET"
const VERSION: u32 = 2;
const KIND_DT: u8 = 0;
const KIND_NEIGHBOR: u8 = 1;
/// Bytes of a frame header.
const HEADER: usize = 24;

/// Deadlines for the TCP transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpConfig {
    /// Per-receive deadline: how long a blocking `recv` (or a bootstrap /
    /// handshake read or write) may wait before surfacing
    /// [`ParcelError::Timeout`].
    pub deadline: Duration,
    /// How long connection establishment (dial retries, accept waits) may
    /// take before [`ParcelError::ConnectTimeout`].
    pub connect_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(10),
        }
    }
}

impl TcpConfig {
    /// A config with the given receive deadline (connect timeout kept at
    /// the default).
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            deadline,
            ..Self::default()
        }
    }
}

fn map_io(peer: usize, e: &std::io::Error) -> ParcelError {
    use std::io::ErrorKind::*;
    match e.kind() {
        TimedOut | WouldBlock => ParcelError::Timeout { peer },
        UnexpectedEof | ConnectionReset | ConnectionAborted | BrokenPipe | NotConnected => {
            ParcelError::PeerClosed { peer }
        }
        k => ParcelError::Io(k),
    }
}

/// Apply the deadline to a freshly accepted/dialled stream *before any
/// handshake byte moves* — a peer that dies mid-handshake must surface as
/// a typed timeout on both the read and the write side, never hang the
/// launcher (the `--recv-deadline-ms` contract).
fn prep_stream(stream: &TcpStream, peer: usize, cfg: &TcpConfig) -> Result<(), ParcelError> {
    stream.set_nodelay(true).map_err(|e| map_io(peer, &e))?;
    stream
        .set_read_timeout(Some(cfg.deadline))
        .map_err(|e| map_io(peer, &e))?;
    stream
        .set_write_timeout(Some(cfg.deadline))
        .map_err(|e| map_io(peer, &e))
}

/// Append one encoded frame to `bytes`.
fn encode_frame(bytes: &mut Vec<u8>, tag: Tag, seq: u32, src: u32, payload: &[Real]) {
    let start = bytes.len();
    bytes.reserve(HEADER + payload.len() * 8);
    bytes.extend_from_slice(&tag.to_u32().to_le_bytes());
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&src.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&[0u8; 8]); // checksum placeholder
    for v in payload {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let ck = fnv1a64(&bytes[start + HEADER..]);
    bytes[start + 16..start + HEADER].copy_from_slice(&ck.to_le_bytes());
}

fn u32_at(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

/// `poll(2)`, the one socket call `std` has no form of.
mod sys {
    use std::ffi::{c_int, c_short, c_ulong};

    pub(super) const POLLIN: c_short = 0x1;
    pub(super) const POLLOUT: c_short = 0x4;

    /// One `poll(2)` entry: `(fd, events, revents)`.
    #[repr(C)]
    pub(super) struct PollFd(pub c_int, pub c_short, pub c_short);

    extern "C" {
        pub(super) fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// The send side of a link, behind one lock so a frame's `seq` and its
/// place on the wire are taken together.
#[derive(Default)]
struct Outbox {
    seq: u32,
    /// Encoded frames; those from byte `sent` on are not on the wire yet.
    /// Emptied whenever everything is written, so an idle link encodes
    /// every frame into this one reused buffer.
    bytes: Vec<u8>,
    sent: usize,
    /// The write error that ended the link; its every later call returns it.
    err: Option<ParcelError>,
}

/// One connection: the stream owning its descriptor, and the outbox any
/// waiting thread of the rank may flush.
struct Link {
    peer: usize,
    stream: TcpStream,
    outbox: Mutex<Outbox>,
}

impl Link {
    /// Write what the socket takes of `out` now: `Ok(true)` once nothing is
    /// pending. A write error stays on the link.
    fn flush(&self, out: &mut Outbox) -> Result<bool, ParcelError> {
        if let Some(e) = out.err {
            return Err(e);
        }
        while out.sent < out.bytes.len() {
            match (&self.stream).write(&out.bytes[out.sent..]) {
                Ok(n) => out.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(*out.err.insert(map_io(self.peer, &e))),
            }
        }
        out.bytes.clear();
        out.sent = 0;
        Ok(true)
    }
}

/// The progress engine of one rank's TCP links. Links are never removed,
/// so every descriptor it polls stays open while a transport holds it.
#[derive(Clone, Default)]
struct Engine(Arc<Mutex<Vec<Arc<Link>>>>);

impl Engine {
    /// A link of this rank over the handshaken `stream`.
    fn link(
        &self,
        stream: TcpStream,
        my_rank: usize,
        peer: usize,
        cfg: &TcpConfig,
    ) -> Result<TcpTransport, ParcelError> {
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(|e| map_io(peer, &e))?;
        let link = Arc::new(Link {
            peer,
            stream,
            outbox: Mutex::default(),
        });
        self.0.lock().push(Arc::clone(&link));
        Ok(TcpTransport {
            src: my_rank as u32,
            deadline: cfg.deadline,
            link,
            engine: self.clone(),
            inbox: Mutex::default(),
            recv_seq: AtomicU32::new(0),
            obs: OnceLock::new(),
        })
    }

    /// The link to the neighbour `spec` over `stream`, as [`RankNet`] holds
    /// it.
    fn neighbor(
        &self,
        (spec, stream): (NeighborSpec, TcpStream),
        me: usize,
        cfg: &TcpConfig,
    ) -> Result<Neighbor, ParcelError> {
        Ok(Neighbor {
            rank: spec.rank,
            dir: spec.dir,
            link: Box::new(self.link(stream, me, spec.rank, cfg)?),
        })
    }

    /// Flush every pending outbox of the rank, then sleep in one `poll(2)`
    /// until `read` (when given) is readable, a socket with bytes pending
    /// takes more, a signal arrives, or `until` passes, which is a timeout
    /// of the link to `peer`. With nothing to wait for it returns at once.
    fn wait(&self, read: Option<RawFd>, until: Instant, peer: usize) -> Result<(), ParcelError> {
        let mut fds: Vec<sys::PollFd> = read
            .map(|fd| sys::PollFd(fd, sys::POLLIN, 0))
            .into_iter()
            .collect();
        for link in self.0.lock().iter() {
            // A failed flush leaves its error on its own link.
            if let Ok(false) = link.flush(&mut link.outbox.lock()) {
                fds.push(sys::PollFd(link.stream.as_raw_fd(), sys::POLLOUT, 0));
            }
        }
        let left = until.saturating_duration_since(Instant::now());
        if fds.is_empty() {
            return Ok(());
        } else if left.is_zero() {
            return Err(ParcelError::Timeout { peer });
        }
        let ms = left.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is a writable array of `fds.len()` entries.
        if unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as _, ms) } < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() != ErrorKind::Interrupted {
                return Err(map_io(peer, &e));
            }
        }
        Ok(())
    }
}

/// [`Transport`] over one TCP connection.
pub struct TcpTransport {
    src: u32,
    deadline: Duration,
    link: Arc<Link>,
    engine: Engine,
    /// The buffer payloads are read into, reused from frame to frame; its
    /// lock keeps one receive at a time on the link.
    inbox: Mutex<Vec<u8>>,
    recv_seq: AtomicU32,
    // `OnceLock`, not a mutex: read on every parcel (the hot path), and
    // the drivers only ever attach once before the run.
    obs: OnceLock<ParcelObs>,
}

impl TcpTransport {
    /// Wrap an already-handshaken stream as a link with a progress engine
    /// of its own. `my_rank` stamps outgoing frames' `src_rank`; `peer` is
    /// verified on every incoming frame.
    pub fn from_stream(
        stream: TcpStream,
        my_rank: usize,
        peer: usize,
        cfg: &TcpConfig,
    ) -> Result<Self, ParcelError> {
        Engine::default().link(stream, my_rank, peer, cfg)
    }

    /// Fill `buf` from the socket without blocking in a read: while its
    /// bytes are not there, wait on the rank's engine. The deadline
    /// restarts whenever bytes arrive.
    fn read_full(&self, buf: &mut [u8]) -> Result<(), ParcelError> {
        let (peer, fd) = (self.link.peer, self.link.stream.as_raw_fd());
        let mut until = None;
        let mut got = 0;
        while got < buf.len() {
            match (&self.link.stream).read(&mut buf[got..]) {
                Ok(0) => return Err(ParcelError::PeerClosed { peer }),
                Ok(n) => {
                    got += n;
                    until = None;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    let until = *until.get_or_insert_with(|| Instant::now() + self.deadline);
                    self.engine.wait(Some(fd), until, peer)?;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(map_io(peer, &e)),
            }
        }
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn peer(&self) -> usize {
        self.link.peer
    }

    fn send(&self, tag: Tag, payload: &[Real]) -> Result<(), ParcelError> {
        let (obs, peer) = (self.obs.get(), self.link.peer);
        let t0 = obs.map_or(0, ParcelObs::now_ns);
        let mut out = self.link.outbox.lock();
        let seq = out.seq;
        out.seq = seq.wrapping_add(1);
        encode_frame(&mut out.bytes, tag, seq, self.src, payload);
        self.link
            .flush(&mut out)
            .map_err(|e| failed(obs, e, peer))?;
        drop(out);
        if let Some(o) = obs {
            o.sent(tag, t0, payload.len() as u64 * 8, peer);
        }
        Ok(())
    }

    fn recv(&self, tag: Tag) -> Result<Vec<Real>, ParcelError> {
        let (obs, peer) = (self.obs.get(), self.link.peer);
        let fail = |e: ParcelError| failed(obs, e, peer);
        let t0 = obs.map_or(0, ParcelObs::now_ns);
        self.link
            .flush(&mut self.link.outbox.lock())
            .map_err(fail)?;
        let mut bytes = self.inbox.lock();
        poll_before_blocking(|| {
            let peek = self.link.stream.peek(&mut [0u8]);
            (!matches!(peek, Err(e) if e.kind() == ErrorKind::WouldBlock)).then_some(())
        });
        let mut header = [0u8; HEADER];
        self.read_full(&mut header).map_err(fail)?;
        let arrival = obs.map_or(0, |o| o.arrived(tag, t0, peer));

        let got_tag = Tag::from_u32(u32_at(&header, 0))
            .ok_or_else(|| fail(ParcelError::Io(ErrorKind::InvalidData)))?;
        let seq = u32_at(&header, 4);
        let src = u32_at(&header, 8) as usize;
        let len = u32_at(&header, 12) as usize;
        let ck = u64::from_le_bytes(header[16..HEADER].try_into().expect("8 bytes"));

        if bytes.len() < len * 8 {
            bytes.resize(len * 8, 0);
        }
        let payload_bytes = &mut bytes[..len * 8];
        self.read_full(payload_bytes).map_err(fail)?;

        if src != peer {
            return Err(fail(ParcelError::Handshake { peer }));
        }
        let expected = self.recv_seq.fetch_add(1, Ordering::Relaxed);
        if seq != expected {
            return Err(fail(ParcelError::SeqMismatch {
                peer,
                expected,
                got: seq,
            }));
        }
        if fnv1a64(payload_bytes) != ck {
            return Err(fail(ParcelError::ChecksumMismatch { peer }));
        }
        if got_tag != tag {
            if got_tag == Tag::Bye {
                return Err(fail(ParcelError::PeerClosed { peer }));
            }
            return Err(fail(ParcelError::TagMismatch {
                peer,
                expected: tag,
                got: got_tag,
            }));
        }
        let payload: Vec<Real> = payload_bytes
            .chunks_exact(8)
            .map(|c| Real::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        drop(bytes);
        // The peer may be reading this link's tail right now; a write error
        // stays on the link for its next call.
        let _ = self.link.flush(&mut self.link.outbox.lock());
        if let Some(o) = obs {
            o.received(tag, arrival, payload.len() as u64 * 8, peer);
        }
        Ok(payload)
    }

    fn close(&self) -> Result<(), ParcelError> {
        self.send(Tag::Bye, &[])?;
        self.recv(Tag::Bye)?;
        // The caller may exit the process the moment every link is closed,
        // so the rest of this side's frames must be on the wire first.
        let until = Instant::now() + self.deadline;
        let drain = || -> Result<(), ParcelError> {
            while !self.link.flush(&mut self.link.outbox.lock())? {
                self.engine.wait(None, until, self.link.peer)?;
            }
            Ok(())
        };
        drain().map_err(|e| failed(self.obs.get(), e, self.link.peer))
    }

    fn attach_obs(&self, obs: ParcelObs) {
        let _ = self.obs.set(obs);
    }
}

// ---------------------------------------------------------------------------
// Handshake + bootstrap
// ---------------------------------------------------------------------------

fn write_hello(stream: &mut TcpStream, rank: usize, ranks: usize, kind: u8) -> std::io::Result<()> {
    let mut b = Vec::with_capacity(21);
    b.extend_from_slice(&MAGIC.to_le_bytes());
    b.extend_from_slice(&VERSION.to_le_bytes());
    b.extend_from_slice(&(rank as u32).to_le_bytes());
    b.extend_from_slice(&(ranks as u32).to_le_bytes());
    b.push(kind);
    stream.write_all(&b)?;
    stream.flush()
}

/// Read the peer's hello; returns `(peer_rank, kind)`.
fn read_hello(stream: &mut TcpStream, ranks: usize) -> Result<(usize, u8), ParcelError> {
    let mut b = [0u8; 21];
    stream
        .read_exact(&mut b)
        .map_err(|e| map_io(usize::MAX, &e))?;
    let magic = u64::from_le_bytes(b[0..8].try_into().expect("8 bytes"));
    let version = u32_at(&b, 8);
    let rank = u32_at(&b, 12) as usize;
    let world = u32_at(&b, 16) as usize;
    if magic != MAGIC || version != VERSION || world != ranks || rank >= ranks {
        return Err(ParcelError::Handshake { peer: rank });
    }
    Ok((rank, b[20]))
}

fn write_string(stream: &mut TcpStream, s: &str) -> std::io::Result<()> {
    stream.write_all(&(s.len() as u32).to_le_bytes())?;
    stream.write_all(s.as_bytes())?;
    stream.flush()
}

fn read_string(stream: &mut TcpStream) -> Result<String, ParcelError> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).map_err(|e| map_io(0, &e))?;
    let len = u32::from_le_bytes(len) as usize;
    if len > 4096 {
        return Err(ParcelError::Io(std::io::ErrorKind::InvalidData));
    }
    let mut b = vec![0u8; len];
    stream.read_exact(&mut b).map_err(|e| map_io(0, &e))?;
    String::from_utf8(b).map_err(|_| ParcelError::Io(std::io::ErrorKind::InvalidData))
}

/// Accept one connection within `timeout` (the listener is temporarily
/// switched to non-blocking polling).
fn accept_timeout(listener: &TcpListener, timeout: Duration) -> Result<TcpStream, ParcelError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| ParcelError::Io(e.kind()))?;
    let deadline = Instant::now() + timeout;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| ParcelError::Io(e.kind()))?;
                return Ok(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(ParcelError::ConnectTimeout { peer: usize::MAX });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(ParcelError::Io(e.kind())),
        }
    }
}

/// Dial `addr`, retrying refused connections until `timeout` (the peer's
/// listener may not be up yet). Each attempt is itself bounded by
/// `connect_timeout` on the resolved address, so a blackholed peer (SYN
/// drops, no RST) can't park the dialer in the kernel's own multi-minute
/// connect timeout.
fn connect_retry(addr: &str, peer: usize, timeout: Duration) -> Result<TcpStream, ParcelError> {
    let deadline = Instant::now() + timeout;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(ParcelError::ConnectTimeout { peer });
        }
        let attempt = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut it| it.next())
            .ok_or(ParcelError::ConnectTimeout { peer })
            .and_then(|sa: SocketAddr| {
                TcpStream::connect_timeout(&sa, remaining).map_err(|e| map_io(peer, &e))
            });
        match attempt {
            Ok(s) => return Ok(s),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Err(_) => return Err(ParcelError::ConnectTimeout { peer }),
        }
    }
}

/// Accept, handshake, and match one incoming neighbour connection against
/// the not-yet-connected expected peers in `pending` (higher-rank
/// neighbours dial us, in no guaranteed arrival order). Returns the
/// stream with the matched spec removed from `pending`.
fn accept_neighbor(
    listener: &TcpListener,
    me: usize,
    ranks: usize,
    pending: &mut Vec<NeighborSpec>,
    cfg: &TcpConfig,
) -> Result<(NeighborSpec, TcpStream), ParcelError> {
    let mut stream = accept_timeout(listener, cfg.connect_timeout)?;
    prep_stream(&stream, usize::MAX, cfg)?;
    let (peer, kind) = read_hello(&mut stream, ranks)?;
    if kind != KIND_NEIGHBOR {
        return Err(ParcelError::Handshake { peer });
    }
    let pos = pending
        .iter()
        .position(|s| s.rank == peer)
        .ok_or(ParcelError::Handshake { peer })?;
    let spec = pending.remove(pos);
    write_hello(&mut stream, me, ranks, KIND_NEIGHBOR).map_err(|e| map_io(peer, &e))?;
    Ok((spec, stream))
}

/// Dial one lower-rank neighbour and handshake.
fn dial_neighbor(
    addr: &str,
    me: usize,
    ranks: usize,
    spec: NeighborSpec,
    cfg: &TcpConfig,
) -> Result<TcpStream, ParcelError> {
    let mut stream = connect_retry(addr, spec.rank, cfg.connect_timeout)?;
    prep_stream(&stream, spec.rank, cfg)?;
    write_hello(&mut stream, me, ranks, KIND_NEIGHBOR).map_err(|e| map_io(spec.rank, &e))?;
    let (peer, kind) = read_hello(&mut stream, ranks)?;
    if peer != spec.rank || kind != KIND_NEIGHBOR {
        return Err(ParcelError::Handshake { peer });
    }
    Ok(stream)
}

/// Bootstrap rank 0: accept every other rank's dt connection on `listener`,
/// gather their listener addresses, broadcast the rank→address map, then
/// accept one neighbour connection per entry in `specs` (rank 0 is the
/// lowest rank, so all its neighbours dial in). Returns rank 0's
/// [`RankNet`].
pub fn root(
    listener: TcpListener,
    ranks: usize,
    specs: &[NeighborSpec],
    cfg: &TcpConfig,
) -> Result<RankNet, ParcelError> {
    assert!(ranks >= 1);
    assert!(specs.iter().all(|s| s.rank > 0 && s.rank < ranks));
    if ranks == 1 {
        return Ok(RankNet {
            rank: 0,
            ranks: 1,
            neighbors: Vec::new(),
            dt: DtLinks::Root(Vec::new()),
        });
    }

    let mut dt_streams: Vec<Option<TcpStream>> = (0..ranks).map(|_| None).collect();
    let mut addrs: Vec<String> = vec![String::new(); ranks];
    addrs[0] = listener
        .local_addr()
        .map_err(|e| ParcelError::Io(e.kind()))?
        .to_string();
    for _ in 1..ranks {
        let mut stream = accept_timeout(&listener, cfg.connect_timeout)?;
        prep_stream(&stream, usize::MAX, cfg)?;
        let (peer, kind) = read_hello(&mut stream, ranks)?;
        if kind != KIND_DT || peer == 0 || dt_streams[peer].is_some() {
            return Err(ParcelError::Handshake { peer });
        }
        write_hello(&mut stream, 0, ranks, KIND_DT).map_err(|e| map_io(peer, &e))?;
        addrs[peer] = read_string(&mut stream)?;
        dt_streams[peer] = Some(stream);
    }

    // Broadcast the address map in rank order.
    for (r, slot) in dt_streams.iter_mut().enumerate().skip(1) {
        let stream = slot.as_mut().expect("dt stream for every rank");
        for a in &addrs {
            write_string(stream, a).map_err(|e| map_io(r, &e))?;
        }
    }

    // Neighbours dial back on the root listener once they have the map.
    let engine = Engine::default();
    let mut pending = specs.to_vec();
    let mut neighbors = Vec::with_capacity(specs.len());
    while !pending.is_empty() {
        let accepted = accept_neighbor(&listener, 0, ranks, &mut pending, cfg)?;
        neighbors.push(engine.neighbor(accepted, 0, cfg)?);
    }
    neighbors.sort_by_key(|n| n.dir);

    let members = dt_streams
        .into_iter()
        .enumerate()
        .filter_map(|(r, s)| s.map(|s| engine.link(s, 0, r, cfg)))
        .map(|t| Ok(Box::new(t?) as Box<dyn Transport>))
        .collect::<Result<Vec<_>, _>>()?;

    Ok(RankNet {
        rank: 0,
        ranks,
        neighbors,
        dt: DtLinks::Root(members),
    })
}

/// Bootstrap rank `rank` (> 0): connect to rank 0 at `root_addr`, register
/// this rank's ephemeral listener, receive the address map, then dial
/// every lower-rank neighbour in `specs` (ascending) and accept one
/// connection per higher-rank neighbour.
pub fn join(
    root_addr: &str,
    rank: usize,
    ranks: usize,
    specs: &[NeighborSpec],
    cfg: &TcpConfig,
) -> Result<RankNet, ParcelError> {
    assert!(rank >= 1 && rank < ranks);
    assert!(specs.iter().all(|s| s.rank < ranks && s.rank != rank));
    let mut lower: Vec<NeighborSpec> = specs.iter().copied().filter(|s| s.rank < rank).collect();
    lower.sort_by_key(|s| s.rank);
    let higher: Vec<NeighborSpec> = specs.iter().copied().filter(|s| s.rank > rank).collect();

    // Ephemeral listener for higher-rank neighbours (none → no listener).
    let listener = if !higher.is_empty() {
        let bind_ip = root_addr
            .parse::<SocketAddr>()
            .map(|a| a.ip().to_string())
            .unwrap_or_else(|_| "127.0.0.1".to_string());
        Some(TcpListener::bind((bind_ip.as_str(), 0)).map_err(|e| ParcelError::Io(e.kind()))?)
    } else {
        None
    };
    let my_addr = match &listener {
        Some(l) => l
            .local_addr()
            .map_err(|e| ParcelError::Io(e.kind()))?
            .to_string(),
        None => "-".to_string(),
    };

    // dt link to rank 0 (doubles as the bootstrap rendezvous).
    let mut dt_stream = connect_retry(root_addr, 0, cfg.connect_timeout)?;
    prep_stream(&dt_stream, 0, cfg)?;
    write_hello(&mut dt_stream, rank, ranks, KIND_DT).map_err(|e| map_io(0, &e))?;
    let (peer, kind) = read_hello(&mut dt_stream, ranks)?;
    if peer != 0 || kind != KIND_DT {
        return Err(ParcelError::Handshake { peer });
    }
    write_string(&mut dt_stream, &my_addr).map_err(|e| map_io(0, &e))?;
    let addrs: Vec<String> = (0..ranks)
        .map(|_| read_string(&mut dt_stream))
        .collect::<Result<_, _>>()?;

    // Dial every lower-rank neighbour, ascending; then accept the higher
    // ones. Rank-ordered dialing keeps the bootstrap wait-DAG acyclic.
    let engine = Engine::default();
    let mut neighbors = Vec::with_capacity(specs.len());
    for spec in lower {
        let stream = dial_neighbor(&addrs[spec.rank], rank, ranks, spec, cfg)?;
        neighbors.push(engine.neighbor((spec, stream), rank, cfg)?);
    }
    if let Some(l) = &listener {
        let mut pending = higher;
        while !pending.is_empty() {
            let accepted = accept_neighbor(l, rank, ranks, &mut pending, cfg)?;
            neighbors.push(engine.neighbor(accepted, rank, cfg)?);
        }
    }
    neighbors.sort_by_key(|n| n.dir);

    Ok(RankNet {
        rank,
        ranks,
        neighbors,
        dt: DtLinks::Leaf(Box::new(engine.link(dt_stream, rank, 0, cfg)?)),
    })
}

/// A connected loopback pair (ranks 0 and 1) for tests and calibration.
pub fn loopback_pair(cfg: &TcpConfig) -> Result<(TcpTransport, TcpTransport), ParcelError> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| ParcelError::Io(e.kind()))?;
    let addr = listener
        .local_addr()
        .map_err(|e| ParcelError::Io(e.kind()))?;
    let dial = std::thread::spawn(move || TcpStream::connect(addr));
    let (accepted, _) = listener.accept().map_err(|e| ParcelError::Io(e.kind()))?;
    let dialled = dial
        .join()
        .map_err(|_| ParcelError::Io(std::io::ErrorKind::Other))?
        .map_err(|e| ParcelError::Io(e.kind()))?;
    Ok((
        TcpTransport::from_stream(accepted, 0, 1, cfg)?,
        TcpTransport::from_stream(dialled, 1, 0, cfg)?,
    ))
}

/// Measured loopback interconnect parameters, in the units
/// `simsched::multinode::ClusterParams` uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopbackCal {
    /// One-way small-message latency, ns (half the mean ping-pong RTT).
    pub latency_ns: f64,
    /// Sustained payload bandwidth, bytes/ns.
    pub bandwidth_bytes_per_ns: f64,
}

/// Measure loopback latency (1-element ping-pong × `ping_rounds`) and
/// bandwidth (`bulk_elems`-element echo × `bulk_rounds`) over a real socket
/// pair — the calibration input for the multi-node projection.
pub fn measure_loopback(
    ping_rounds: usize,
    bulk_elems: usize,
    bulk_rounds: usize,
) -> Result<LoopbackCal, ParcelError> {
    let cfg = TcpConfig::default();
    let tag = Tag::force(dir::UP);
    let (a, b) = loopback_pair(&cfg)?;
    let echo = std::thread::spawn(move || -> Result<(), ParcelError> {
        for _ in 0..ping_rounds + bulk_rounds {
            let p = b.recv(tag)?;
            b.send(tag, &p)?;
        }
        b.close()
    });

    let ping = [0.5f64];
    let t0 = Instant::now();
    for _ in 0..ping_rounds {
        a.send(tag, &ping)?;
        a.recv(tag)?;
    }
    let latency_ns = t0.elapsed().as_nanos() as f64 / (2.0 * ping_rounds as f64);

    let bulk = vec![1.0f64; bulk_elems];
    let t0 = Instant::now();
    for _ in 0..bulk_rounds {
        a.send(tag, &bulk)?;
        a.recv(tag)?;
    }
    let elapsed_ns = t0.elapsed().as_nanos() as f64;
    let bytes = (bulk_elems * 8 * 2 * bulk_rounds) as f64;
    a.close()?;
    echo.join()
        .map_err(|_| ParcelError::Io(std::io::ErrorKind::Other))??;

    Ok(LoopbackCal {
        latency_ns,
        bandwidth_bytes_per_ns: bytes / elapsed_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_specs;
    use lulesh_core::types::LuleshError;

    fn cfg() -> TcpConfig {
        TcpConfig {
            deadline: Duration::from_millis(1500),
            connect_timeout: Duration::from_millis(3000),
        }
    }

    fn force() -> Tag {
        Tag::force(dir::UP)
    }

    /// Launch a chain-topology TCP mesh on loopback, one thread per rank.
    fn chain_mesh(ranks: usize, c: TcpConfig) -> Vec<RankNet> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let specs = chain_specs(ranks);
        let mut handles = Vec::new();
        {
            let s0 = specs[0].clone();
            handles.push(std::thread::spawn(move || root(listener, ranks, &s0, &c)));
        }
        for (r, s) in specs.into_iter().enumerate().skip(1) {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || join(&addr, r, ranks, &s, &c)));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect()
    }

    /// `close` is a synchronous Bye exchange, so both endpoints of a link
    /// must close concurrently (as two ranks would) — sequentially from one
    /// thread it would deadlock until the recv deadline.
    fn close_both(a: TcpTransport, b: TcpTransport) {
        let t = std::thread::spawn(move || b.close());
        a.close().unwrap();
        t.join().unwrap().unwrap();
    }

    #[test]
    fn frame_roundtrip_over_loopback() {
        let (a, b) = loopback_pair(&cfg()).unwrap();
        let payload: Vec<Real> = (0..1000).map(|i| (i as Real).sin()).collect();
        a.send(force(), &payload).unwrap();
        assert_eq!(b.recv(force()).unwrap(), payload);
        b.send(Tag::gradient(dir::DOWN), &[]).unwrap();
        assert_eq!(
            a.recv(Tag::gradient(dir::DOWN)).unwrap(),
            Vec::<Real>::new()
        );
        close_both(a, b);
    }

    #[test]
    fn large_planes_do_not_deadlock_bidirectional_sends() {
        // Both sides send ~4 MB before either receives: with blocking
        // writes this wedges on socket buffers; the writer thread makes it
        // a non-event.
        let (a, b) = loopback_pair(&cfg()).unwrap();
        let big: Vec<Real> = vec![1.25; 512 * 1024];
        let big2 = big.clone();
        let t = std::thread::spawn(move || {
            b.send(force(), &big2).unwrap();
            let got = b.recv(force()).unwrap();
            (b, got)
        });
        a.send(force(), &big).unwrap();
        let got_a = a.recv(force()).unwrap();
        let (b, got_b) = t.join().unwrap();
        assert_eq!(got_a, big);
        assert_eq!(got_b, big);
        close_both(a, b);
    }

    /// Bytes of `t`'s outbox not yet on the wire.
    fn pending(t: &TcpTransport) -> usize {
        let out = t.link.outbox.lock();
        out.bytes.len() - out.sent
    }

    /// A 16 MiB plane: more than a loopback socket's send and receive
    /// buffers take together.
    fn big_plane(seed: Real) -> Vec<Real> {
        (0..1 << 21).map(|i| seed + (i as Real).sqrt()).collect()
    }

    #[test]
    fn small_sends_go_inline_and_queue_behind_a_partial_frame() {
        let (a, b) = loopback_pair(&cfg()).unwrap();
        let bits = |v: &[Real]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        // An idle link: the sending thread writes every small frame whole.
        for i in 0..10 {
            a.send(force(), &[i as Real, 0.25]).unwrap();
            assert_eq!(pending(&a), 0, "frame {i} left bytes behind");
        }
        for i in 0..10 {
            assert_eq!(b.recv(force()).unwrap(), [i as Real, 0.25]);
        }

        // Nobody reads: the socket takes part of a 16 MiB frame and the
        // tail stays in the outbox...
        let big = big_plane(0.0);
        a.send(force(), &big).unwrap();
        let tail = pending(&a);
        assert!(tail > 0, "the socket took a 16 MiB frame whole");
        // ...and frames sent behind it queue behind it, not beside it.
        let smalls: Vec<Vec<Real>> = (0..5).map(|i| vec![-(i as Real), 1e-300]).collect();
        for s in &smalls {
            a.send(Tag::gradient(dir::UP), s).unwrap();
        }
        assert_eq!(pending(&a), tail + smalls.len() * (HEADER + 16));

        // The receiver gets all six in `seq` order (a frame out of order
        // would be a `SeqMismatch`), bit for bit, while the sender waits
        // for its reply and so flushes its outbox.
        let reader = std::thread::spawn(move || {
            let got_big = b.recv(force()).unwrap();
            let got: Vec<Vec<Real>> = (0..5)
                .map(|_| b.recv(Tag::gradient(dir::UP)).unwrap())
                .collect();
            b.send(Tag::Dt, &[1.0]).unwrap();
            (b, got_big, got)
        });
        assert_eq!(a.recv(Tag::Dt).unwrap(), [1.0]);
        let (b, got_big, got) = reader.join().unwrap();
        assert_eq!(bits(&got_big), bits(&big));
        for (g, s) in got.iter().zip(&smalls) {
            assert_eq!(bits(g), bits(s));
        }
        assert_eq!(pending(&a), 0, "the outbox outlived the sender's recv");

        // Once drained, small frames go inline again.
        a.send(force(), &[7.0]).unwrap();
        assert_eq!(pending(&a), 0);
        assert_eq!(b.recv(force()).unwrap(), [7.0]);
        close_both(a, b);
    }

    #[test]
    fn a_rank_waiting_on_any_link_flushes_every_outbox() {
        // Every rank sends a 16 MiB plane down the chain and a small one
        // up, then receives in direction order. Rank 1's small receive
        // from rank 0 ends at once, with most of its tail to rank 0 still
        // pending; rank 1 then waits on rank 2 and on the dt star, and
        // rank 2, its own tail to rank 1 pending, on the dt star. Only
        // waits that flush every outbox of the rank let rank 0 and rank 1
        // finish their receives. (With 16 MiB both ways each receive ends
        // with at most a socket buffer's worth of tail, which the
        // receive's last flush of its own link writes.)
        let plane = |from: usize, d: usize| match d {
            dir::DOWN => big_plane(from as Real),
            _ => vec![from as Real; 2],
        };
        let nets = chain_mesh(3, cfg());
        let handles: Vec<_> = nets
            .into_iter()
            .map(|net| {
                std::thread::spawn(move || {
                    for n in &net.neighbors {
                        let d = usize::from(n.dir);
                        n.link.send(Tag::force(d), &plane(net.rank, d)).unwrap();
                    }
                    for n in &net.neighbors {
                        let d = dir::opposite(usize::from(n.dir));
                        let got = n.link.recv(Tag::force(d)).unwrap();
                        assert!(
                            got == plane(n.rank, d),
                            "rank {}: plane from {}",
                            net.rank,
                            n.rank
                        );
                    }
                    let rank = net.rank as Real;
                    let (gc, gh, gerr) = net.allreduce_dt(rank + 1.0, 10.0, None).unwrap();
                    assert_eq!((gc, gh, gerr), (1.0, 10.0, None));
                    net.close().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn recv_deadline_fires() {
        let c = TcpConfig {
            deadline: Duration::from_millis(80),
            connect_timeout: Duration::from_millis(1000),
        };
        let (a, _b) = loopback_pair(&c).unwrap();
        let t0 = Instant::now();
        assert_eq!(a.recv(force()), Err(ParcelError::Timeout { peer: 1 }));
        assert!(t0.elapsed() >= Duration::from_millis(60));
    }

    #[test]
    fn dead_peer_is_peer_closed() {
        let (a, b) = loopback_pair(&cfg()).unwrap();
        drop(b); // simulated kill: the OS closes the socket
        assert_eq!(a.recv(force()), Err(ParcelError::PeerClosed { peer: 1 }));
    }

    #[test]
    fn tag_and_seq_are_verified() {
        let (a, b) = loopback_pair(&cfg()).unwrap();
        a.send(force(), &[1.0]).unwrap();
        assert_eq!(
            b.recv(Tag::gradient(dir::UP)),
            Err(ParcelError::TagMismatch {
                peer: 0,
                expected: Tag::gradient(dir::UP),
                got: force()
            })
        );
    }

    #[test]
    fn checksum_catches_corruption() {
        // Hand-craft a frame with a wrong checksum.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut bytes = Vec::new();
            encode_frame(&mut bytes, force(), 0, 1, &[1.0, 2.0]);
            let n = bytes.len();
            bytes[n - 1] ^= 0xff; // flip a payload bit, keep the header checksum
            s.write_all(&bytes).unwrap();
            s.flush().unwrap();
            // Hold the socket open until the reader has judged the frame.
            std::thread::sleep(Duration::from_millis(300));
        });
        let (accepted, _) = listener.accept().unwrap();
        let a = TcpTransport::from_stream(accepted, 0, 1, &cfg()).unwrap();
        assert_eq!(
            a.recv(force()),
            Err(ParcelError::ChecksumMismatch { peer: 1 })
        );
        t.join().unwrap();
    }

    #[test]
    fn bootstrap_builds_a_three_rank_mesh() {
        let nets = chain_mesh(3, cfg());
        assert!(nets[0].down().is_none() && nets[2].up().is_none());
        assert_eq!(nets[0].up().unwrap().peer(), 1);
        assert_eq!(nets[1].down().unwrap().peer(), 0);

        // Exercise the mesh: a neighbour exchange plus a dt allreduce.
        let handles: Vec<_> = nets
            .into_iter()
            .map(|net| {
                std::thread::spawn(move || {
                    if let Some(up) = net.up() {
                        up.send(Tag::force(dir::UP), &[net.rank as Real]).unwrap();
                    }
                    if let Some(down) = net.down() {
                        down.send(Tag::force(dir::DOWN), &[net.rank as Real])
                            .unwrap();
                        let got = down.recv(Tag::force(dir::UP)).unwrap();
                        assert_eq!(got, vec![(net.rank - 1) as Real]);
                    }
                    if let Some(up) = net.up() {
                        let got = up.recv(Tag::force(dir::DOWN)).unwrap();
                        assert_eq!(got, vec![(net.rank + 1) as Real]);
                    }
                    let (gc, gh, gerr) = net
                        .allreduce_dt(net.rank as Real + 1.0, 10.0, None)
                        .unwrap();
                    assert_eq!(gc, 1.0);
                    assert_eq!(gh, 10.0);
                    assert_eq!(gerr, None);
                    net.close().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn bootstrap_wires_an_arbitrary_neighbour_graph() {
        // A 2×2×1 grid with face AND diagonal (edge) links: rank
        // r = ix + 2·iy, every rank has 3 neighbours. Exercises
        // accept-side matching of multiple higher-rank dials arriving in
        // any order.
        let ranks = 4;
        let coords = |r: usize| (r % 2, r / 2);
        let mut specs: Vec<Vec<NeighborSpec>> = vec![Vec::new(); ranks];
        for (r, spec) in specs.iter_mut().enumerate() {
            let (ix, iy) = coords(r);
            for p in 0..ranks {
                if p == r {
                    continue;
                }
                let (px, py) = coords(p);
                let (dx, dy) = (px as i32 - ix as i32, py as i32 - iy as i32);
                spec.push(NeighborSpec {
                    rank: p,
                    dir: dir::index(dx, dy, 0) as u8,
                });
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let c = cfg();
        let mut handles = Vec::new();
        {
            let s0 = specs[0].clone();
            handles.push(std::thread::spawn(move || root(listener, ranks, &s0, &c)));
        }
        for (r, s) in specs.clone().into_iter().enumerate().skip(1) {
            let addr = addr.clone();
            handles.push(std::thread::spawn(move || join(&addr, r, ranks, &s, &c)));
        }
        let nets: Vec<RankNet> = handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        for (r, net) in nets.iter().enumerate() {
            assert_eq!(net.neighbors.len(), 3, "rank {r}");
            for s in &specs[r] {
                assert_eq!(
                    net.link_to(usize::from(s.dir)).unwrap().peer(),
                    s.rank,
                    "rank {r} dir {}",
                    dir::name(usize::from(s.dir))
                );
            }
        }
        // Full all-to-neighbours exchange: send own rank in every
        // direction, expect each peer's rank back from the opposite tag.
        let handles: Vec<_> = nets
            .into_iter()
            .map(|net| {
                std::thread::spawn(move || {
                    for n in &net.neighbors {
                        n.link
                            .send(Tag::mass(usize::from(n.dir)), &[net.rank as Real])
                            .unwrap();
                    }
                    for n in &net.neighbors {
                        let want_tag = Tag::mass(dir::opposite(usize::from(n.dir)));
                        let got = n.link.recv(want_tag).unwrap();
                        assert_eq!(got, vec![n.rank as Real]);
                    }
                    net.close().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn killed_rank_surfaces_on_every_survivor() {
        let c = TcpConfig {
            deadline: Duration::from_millis(800),
            connect_timeout: Duration::from_millis(3000),
        };
        let mut nets = chain_mesh(3, c);
        let net2 = nets.pop().unwrap();
        let net1 = nets.pop().unwrap();
        let net0 = nets.pop().unwrap();

        drop(net1); // rank 1 "dies": every socket closes
        let t0 = Instant::now();
        let r0 = net0.allreduce_dt(1.0, 1.0, None);
        assert!(net2.up().is_none()); // rank 2 is topmost
        let r2 = net2.down().unwrap().recv(force());
        assert!(
            matches!(
                r0,
                Err(ParcelError::PeerClosed { peer: 1 }) | Err(ParcelError::Timeout { peer: 1 })
            ),
            "{r0:?}"
        );
        assert!(
            matches!(
                r2,
                Err(ParcelError::PeerClosed { peer: 1 }) | Err(ParcelError::Timeout { peer: 1 })
            ),
            "{r2:?}"
        );
        assert!(t0.elapsed() < Duration::from_secs(4), "bounded by deadline");
    }

    #[test]
    fn peer_that_dies_mid_handshake_times_out() {
        // Satellite bugfix: a rank that connects and then goes silent (or
        // dies) during the hello must surface a typed error within the
        // deadline, not hang the launcher forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let c = TcpConfig {
            deadline: Duration::from_millis(200),
            connect_timeout: Duration::from_millis(2000),
        };
        let h0 = std::thread::spawn(move || root(listener, 2, &chain_specs(2)[0], &c));
        // Connect like rank 1 would, then send nothing and hold the socket
        // open (a hung peer, worse than a dead one — no FIN arrives).
        let zombie = TcpStream::connect(&addr).unwrap();
        let t0 = Instant::now();
        let r = h0.join().unwrap().err();
        assert!(
            matches!(
                r,
                Some(ParcelError::Timeout { .. }) | Some(ParcelError::PeerClosed { .. })
            ),
            "{r:?}"
        );
        assert!(
            t0.elapsed() < Duration::from_millis(1500),
            "handshake read must be deadline-bounded, took {:?}",
            t0.elapsed()
        );
        drop(zombie);
    }

    #[test]
    fn loopback_calibration_is_sane() {
        let cal = measure_loopback(40, 32 * 1024, 6).unwrap();
        assert!(cal.latency_ns > 0.0 && cal.latency_ns < 5e7, "{cal:?}");
        assert!(
            cal.bandwidth_bytes_per_ns > 0.001,
            "loopback slower than 1 MB/s? {cal:?}"
        );
    }

    #[test]
    fn dt_error_codes_cross_the_wire() {
        let mut nets = chain_mesh(2, cfg());
        let net1 = nets.pop().unwrap();
        let net0 = nets.pop().unwrap();
        let t = std::thread::spawn(move || {
            let out = net1
                .allreduce_dt(5.0, 5.0, Some(LuleshError::VolumeError))
                .unwrap();
            net1.close().unwrap();
            out
        });
        let (gc, gh, gerr) = net0.allreduce_dt(2.0, 9.0, None).unwrap();
        net0.close().unwrap();
        assert_eq!((gc, gh, gerr), (2.0, 5.0, Some(LuleshError::VolumeError)));
        assert_eq!(
            t.join().unwrap(),
            (2.0, 5.0, Some(LuleshError::VolumeError))
        );
    }
}
