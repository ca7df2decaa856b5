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
//! **No blocked senders.** A send writes its frame on the calling thread
//! with one non-blocking `send` when nothing of the link is queued, and
//! hands whatever the socket does not take at once to a per-link writer
//! thread with a bounded queue. Every later frame of the link queues
//! behind it until the writer has drained, so frames keep their `seq`
//! order on the wire. A rank never wedges inside `send` when planes
//! exceed socket buffers — the classic MPI_Send cycle deadlock can't
//! form; the protocol thread always reaches its `recv`, which drains the
//! wire.
//!
//! **Receives.** A receive polls the socket for about 20 µs before it
//! blocks for the full deadline, so a frame that is already on its way is
//! read without a sleep/wake round trip.

use crate::{
    dir, failed, fnv1a64, poll_before_blocking, DtLinks, Neighbor, NeighborSpec, ParcelError,
    ParcelObs, RankNet, Tag, Transport,
};
use crossbeam::channel::{bounded, Sender};
use lulesh_core::types::Real;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
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

/// Encode one frame into `bytes`, replacing what it held.
fn encode_frame(bytes: &mut Vec<u8>, tag: Tag, seq: u32, src: u32, payload: &[Real]) {
    bytes.clear();
    bytes.reserve(HEADER + payload.len() * 8);
    bytes.extend_from_slice(&tag.to_u32().to_le_bytes());
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&src.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&[0u8; 8]); // checksum placeholder
    for v in payload {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let ck = fnv1a64(&bytes[HEADER..]);
    bytes[16..HEADER].copy_from_slice(&ck.to_le_bytes());
}

fn u32_at(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

/// The socket calls `std` has no per-call non-blocking form of: `send`
/// and `recv` with `MSG_DONTWAIT`, which leave the descriptor's blocking
/// mode — shared with the writer thread's clone of the stream — as it is.
#[cfg(target_os = "linux")]
mod sock {
    use std::ffi::c_void;
    use std::io::{Error, ErrorKind};
    use std::os::fd::RawFd;

    const MSG_PEEK: i32 = 0x2;
    const MSG_DONTWAIT: i32 = 0x40;
    const MSG_NOSIGNAL: i32 = 0x4000;

    extern "C" {
        fn send(fd: i32, buf: *const c_void, len: usize, flags: i32) -> isize;
        fn recv(fd: i32, buf: *mut c_void, len: usize, flags: i32) -> isize;
    }

    /// Write as much of `bytes` as the socket takes without waiting;
    /// `Ok(0)` when its send buffer is full.
    pub(super) fn send_now(fd: RawFd, bytes: &[u8]) -> std::io::Result<usize> {
        loop {
            // SAFETY: `bytes` is readable for its length; the kernel only
            // reads it.
            let n = unsafe {
                send(
                    fd,
                    bytes.as_ptr().cast(),
                    bytes.len(),
                    MSG_DONTWAIT | MSG_NOSIGNAL,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let e = Error::last_os_error();
            match e.kind() {
                ErrorKind::WouldBlock => return Ok(0),
                ErrorKind::Interrupted => continue,
                _ => return Err(e),
            }
        }
    }

    /// Whether a read of `fd` would return without waiting: a byte is
    /// queued, the peer has closed, or the socket holds an error.
    pub(super) fn readable(fd: RawFd) -> bool {
        let mut byte = 0u8;
        // SAFETY: `byte` is writable for the one byte asked for.
        let n = unsafe {
            recv(
                fd,
                (&mut byte as *mut u8).cast(),
                1,
                MSG_PEEK | MSG_DONTWAIT,
            )
        };
        n >= 0
            || !matches!(
                Error::last_os_error().kind(),
                ErrorKind::WouldBlock | ErrorKind::Interrupted
            )
    }
}

/// Without the calls above every frame goes through the writer thread and
/// every receive blocks at once.
#[cfg(not(target_os = "linux"))]
mod sock {
    use std::os::fd::RawFd;

    pub(super) fn send_now(_fd: RawFd, _bytes: &[u8]) -> std::io::Result<usize> {
        Ok(0)
    }

    pub(super) fn readable(_fd: RawFd) -> bool {
        false
    }
}

/// A frame-writer request.
enum WriteReq {
    /// Write an encoded frame from byte `from` on: the part an inline send
    /// could not write at once, or the whole frame (`from` 0) when it was
    /// sent behind one the writer still held.
    Tail(Tag, Vec<u8>, usize),
    /// Acknowledge once every frame queued before this request is on the
    /// wire (written and flushed). `close` uses it so a process may exit
    /// right after closing without losing its queued `Bye` — the writer
    /// thread dies with the process, and an unwritten Bye would leave the
    /// peer reading a bare EOF instead of a graceful shutdown.
    Flush(Sender<()>),
}

/// The send side of a link, behind one lock so a frame's `seq` and its
/// place on the wire are taken together.
struct Outbox {
    seq: u32,
    /// The buffer every send encodes into, reused from frame to frame
    /// while frames go out inline.
    frame: Vec<u8>,
}

/// The receive side of a link: the stream and the buffer payloads are
/// read into, reused from frame to frame.
struct Inbox {
    stream: TcpStream,
    bytes: Vec<u8>,
}

/// [`Transport`] over one TCP connection.
pub struct TcpTransport {
    peer: usize,
    src: u32,
    /// The connection's descriptor, owned by `inbox`'s stream and kept
    /// apart from it so a send never waits on a receive blocked inside
    /// that lock.
    fd: RawFd,
    inbox: Mutex<Inbox>,
    outbox: Mutex<Outbox>,
    /// Requests handed to the writer that still have bytes to write. A
    /// send writes inline only when this reads 0, so no frame overtakes
    /// one the writer still holds.
    queued: Arc<AtomicUsize>,
    writer_tx: Sender<WriteReq>,
    writer_err: Arc<Mutex<Option<ParcelError>>>,
    recv_seq: AtomicU32,
    // `OnceLock`, not a mutex: read on every parcel (the hot path), and
    // the drivers only ever attach once before the run. `obs` is shared
    // with the writer thread, hence the `Arc`.
    obs: Arc<OnceLock<ParcelObs>>,
}

impl TcpTransport {
    /// Wrap an already-handshaken stream. `my_rank` stamps outgoing frames'
    /// `src_rank`; `peer` is verified on every incoming frame.
    pub fn from_stream(
        stream: TcpStream,
        my_rank: usize,
        peer: usize,
        cfg: &TcpConfig,
    ) -> Result<Self, ParcelError> {
        prep_stream(&stream, peer, cfg)?;
        let write_half = stream.try_clone().map_err(|e| map_io(peer, &e))?;

        // Writer thread: writes, in queue order, what inline sends could
        // not, so `send` never blocks the protocol thread on a full socket
        // buffer. Queue capacity 32: a 3-D halo exchange posts up to 26
        // frames before the first recv.
        let (writer_tx, writer_rx) = bounded::<WriteReq>(32);
        let writer_err = Arc::new(Mutex::new(None::<ParcelError>));
        let queued = Arc::new(AtomicUsize::new(0));
        let obs = Arc::new(OnceLock::<ParcelObs>::new());
        {
            let err = Arc::clone(&writer_err);
            let queued = Arc::clone(&queued);
            let obs = Arc::clone(&obs);
            std::thread::Builder::new()
                .name(format!("parcelnet-writer-{my_rank}-to-{peer}"))
                .spawn(move || {
                    let mut stream = write_half;
                    while let Ok(req) = writer_rx.recv() {
                        let (tag, whole, from) = match req {
                            WriteReq::Flush(ack) => {
                                // Queue order means everything before this
                                // request has been written and flushed.
                                let _ = ack.send(());
                                continue;
                            }
                            WriteReq::Tail(tag, whole, from) => (tag, whole, from),
                        };
                        let o = obs.get();
                        let t0 = o.map_or(0, ParcelObs::now_ns);
                        let bytes = &whole[from..];
                        if let Err(e) = stream.write_all(bytes).and_then(|()| stream.flush()) {
                            *err.lock() = Some(map_io(peer, &e));
                            return;
                        }
                        if let Some(o) = o {
                            // A tail may start inside the header.
                            let payload_bytes = bytes.len().min(whole.len() - HEADER);
                            o.serialize(tag, t0, payload_bytes as u64, peer);
                        }
                        // Last, so a count of 0 also means every span of
                        // what was queued is recorded.
                        queued.fetch_sub(1, Ordering::Release);
                    }
                })
                .map_err(|_| ParcelError::Io(std::io::ErrorKind::OutOfMemory))?;
        }

        Ok(Self {
            peer,
            src: my_rank as u32,
            fd: stream.as_raw_fd(),
            inbox: Mutex::new(Inbox {
                stream,
                bytes: Vec::new(),
            }),
            outbox: Mutex::new(Outbox {
                seq: 0,
                frame: Vec::new(),
            }),
            queued,
            writer_tx,
            writer_err,
            recv_seq: AtomicU32::new(0),
            obs,
        })
    }

    /// Hand `req` to the writer thread.
    fn enqueue(&self, req: WriteReq) -> Result<(), ParcelError> {
        self.queued.fetch_add(1, Ordering::Relaxed);
        self.writer_tx.send(req).map_err(|_| {
            self.writer_err
                .lock()
                .unwrap_or(ParcelError::PeerClosed { peer: self.peer })
        })
    }
}

impl Transport for TcpTransport {
    fn peer(&self) -> usize {
        self.peer
    }

    fn send(&self, tag: Tag, payload: &[Real]) -> Result<(), ParcelError> {
        let obs = self.obs.get();
        let fail = |e: ParcelError| failed(obs, e, self.peer);
        if let Some(e) = *self.writer_err.lock() {
            return Err(fail(e));
        }
        let t0 = obs.map_or(0, ParcelObs::now_ns);
        let mut out = self.outbox.lock();
        let seq = out.seq;
        out.seq = seq.wrapping_add(1);
        encode_frame(&mut out.frame, tag, seq, self.src, payload);
        // Acquire pairs with the writer's release after its last write:
        // reading 0 means every queued byte is already in the socket, so
        // this frame can go out here without overtaking one.
        let sent = if self.queued.load(Ordering::Acquire) == 0 {
            sock::send_now(self.fd, &out.frame).map_err(|e| fail(map_io(self.peer, &e)))?
        } else {
            0
        };
        if sent < out.frame.len() {
            let frame = std::mem::take(&mut out.frame);
            self.enqueue(WriteReq::Tail(tag, frame, sent))
                .map_err(fail)?;
        }
        drop(out);
        if let Some(o) = obs {
            o.sent(tag, t0, payload.len() as u64 * 8, self.peer);
        }
        Ok(())
    }

    fn recv(&self, tag: Tag) -> Result<Vec<Real>, ParcelError> {
        let obs = self.obs.get();
        let fail = |e: ParcelError| failed(obs, e, self.peer);
        let t0 = obs.map_or(0, ParcelObs::now_ns);
        let mut inbox = self.inbox.lock();
        let Inbox { stream, bytes } = &mut *inbox;
        poll_before_blocking(|| sock::readable(self.fd).then_some(()));
        let mut header = [0u8; HEADER];
        stream
            .read_exact(&mut header)
            .map_err(|e| fail(map_io(self.peer, &e)))?;
        let arrival = obs.map_or(0, |o| o.arrived(tag, t0, self.peer));

        let got_tag = Tag::from_u32(u32_at(&header, 0))
            .ok_or_else(|| fail(ParcelError::Io(std::io::ErrorKind::InvalidData)))?;
        let seq = u32_at(&header, 4);
        let src = u32_at(&header, 8) as usize;
        let len = u32_at(&header, 12) as usize;
        let ck = u64::from_le_bytes(header[16..HEADER].try_into().expect("8 bytes"));

        if bytes.len() < len * 8 {
            bytes.resize(len * 8, 0);
        }
        let payload_bytes = &mut bytes[..len * 8];
        stream
            .read_exact(payload_bytes)
            .map_err(|e| fail(map_io(self.peer, &e)))?;

        if src != self.peer {
            return Err(fail(ParcelError::Handshake { peer: self.peer }));
        }
        let expected = self.recv_seq.fetch_add(1, Ordering::Relaxed);
        if seq != expected {
            return Err(fail(ParcelError::SeqMismatch {
                peer: self.peer,
                expected,
                got: seq,
            }));
        }
        if fnv1a64(payload_bytes) != ck {
            return Err(fail(ParcelError::ChecksumMismatch { peer: self.peer }));
        }
        if got_tag != tag {
            if got_tag == Tag::Bye {
                return Err(fail(ParcelError::PeerClosed { peer: self.peer }));
            }
            return Err(fail(ParcelError::TagMismatch {
                peer: self.peer,
                expected: tag,
                got: got_tag,
            }));
        }
        let payload: Vec<Real> = payload_bytes
            .chunks_exact(8)
            .map(|c| Real::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        drop(inbox);
        if let Some(o) = obs {
            o.received(tag, arrival, payload.len() as u64 * 8, self.peer);
        }
        Ok(payload)
    }

    fn close(&self) -> Result<(), ParcelError> {
        self.send(Tag::Bye, &[])?;
        // Wait until the Bye is actually on the wire: the caller may exit
        // the process the moment every link is closed, which kills the
        // writer thread — a Bye still sitting in its queue would be lost
        // and the peer would see a bare EOF instead of a shutdown.
        let (ack_tx, ack_rx) = bounded::<()>(1);
        if self.writer_tx.send(WriteReq::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
        self.recv(Tag::Bye).map(|_| ())
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
    let mut pending = specs.to_vec();
    let mut neighbors = Vec::with_capacity(specs.len());
    while !pending.is_empty() {
        let (spec, stream) = accept_neighbor(&listener, 0, ranks, &mut pending, cfg)?;
        neighbors.push(Neighbor {
            rank: spec.rank,
            dir: spec.dir,
            link: Box::new(TcpTransport::from_stream(stream, 0, spec.rank, cfg)?)
                as Box<dyn Transport>,
        });
    }
    neighbors.sort_by_key(|n| n.dir);

    let members = dt_streams
        .into_iter()
        .enumerate()
        .filter_map(|(r, s)| s.map(|s| (r, s)))
        .map(|(r, s)| {
            TcpTransport::from_stream(s, 0, r, cfg).map(|t| Box::new(t) as Box<dyn Transport>)
        })
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
    let mut neighbors = Vec::with_capacity(specs.len());
    for spec in lower {
        let stream = dial_neighbor(&addrs[spec.rank], rank, ranks, spec, cfg)?;
        neighbors.push(Neighbor {
            rank: spec.rank,
            dir: spec.dir,
            link: Box::new(TcpTransport::from_stream(stream, rank, spec.rank, cfg)?)
                as Box<dyn Transport>,
        });
    }
    if let Some(l) = &listener {
        let mut pending = higher;
        while !pending.is_empty() {
            let (spec, stream) = accept_neighbor(l, rank, ranks, &mut pending, cfg)?;
            neighbors.push(Neighbor {
                rank: spec.rank,
                dir: spec.dir,
                link: Box::new(TcpTransport::from_stream(stream, rank, spec.rank, cfg)?)
                    as Box<dyn Transport>,
            });
        }
    }
    neighbors.sort_by_key(|n| n.dir);

    Ok(RankNet {
        rank,
        ranks,
        neighbors,
        dt: DtLinks::Leaf(Box::new(TcpTransport::from_stream(
            dt_stream, rank, 0, cfg,
        )?)),
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

    #[cfg(target_os = "linux")]
    #[test]
    fn small_sends_bypass_the_writer_and_queue_behind_a_partial_frame() {
        let (a, b) = loopback_pair(&cfg()).unwrap();
        let tracer = obs::Tracer::shared(2);
        a.attach_obs(ParcelObs::new(Arc::clone(&tracer), 0, 1));
        let queued = || a.queued.load(Ordering::Acquire);
        let bits = |v: &[Real]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The spans recorded since the last call, as (sends on the
        // protocol lane, writer writes on the writer lane). Only the
        // writer records on its lane, and it records nothing else.
        let phase = || {
            let spans = tracer.drain();
            assert!(spans
                .iter()
                .all(|s| (s.worker == 1) == s.label.starts_with("parcel-serialize-")));
            let on = |lane: usize, prefix: &str| {
                spans
                    .iter()
                    .filter(|s| s.worker == lane && s.label.starts_with(prefix))
                    .count()
            };
            (on(0, "parcel-send-"), on(1, "parcel-serialize-"))
        };

        // An idle link: the sending thread writes every small frame.
        for i in 0..10 {
            a.send(force(), &[i as Real, 0.25]).unwrap();
        }
        for i in 0..10 {
            assert_eq!(b.recv(force()).unwrap(), [i as Real, 0.25]);
        }
        assert_eq!(
            phase(),
            (10, 0),
            "the writer thread wrote an idle link's frame"
        );

        // Nobody reads: a 16 MiB frame overfills both socket buffers, so
        // the socket takes part of it and the writer holds the tail...
        let big: Vec<Real> = (0..1 << 21).map(|i| (i as Real).sqrt()).collect();
        a.send(force(), &big).unwrap();
        assert_eq!(
            queued(),
            1,
            "the tail of a partial frame goes to the writer"
        );
        // ...and frames sent behind it queue behind it, not beside it.
        let smalls: Vec<Vec<Real>> = (0..5).map(|i| vec![-(i as Real), 1e-300]).collect();
        for s in &smalls {
            a.send(Tag::gradient(dir::UP), s).unwrap();
        }
        assert_eq!(queued(), 1 + smalls.len());

        // Everything arrives in `seq` order (a frame out of order would be
        // a `SeqMismatch`), bit for bit.
        assert_eq!(bits(&b.recv(force()).unwrap()), bits(&big));
        for s in &smalls {
            assert_eq!(bits(&b.recv(Tag::gradient(dir::UP)).unwrap()), bits(s));
        }
        let t0 = Instant::now();
        while queued() > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "writer never drained"
            );
            std::thread::yield_now();
        }
        assert_eq!(phase(), (1 + smalls.len(), 1 + smalls.len()));

        // Once the writer has drained, small frames go inline again.
        a.send(force(), &[7.0]).unwrap();
        assert_eq!(b.recv(force()).unwrap(), [7.0]);
        assert_eq!(phase(), (1, 0));
        close_both(a, b);
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
