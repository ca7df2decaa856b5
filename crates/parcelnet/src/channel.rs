//! In-process transport over crossbeam channels — the wire the `multidom`
//! drivers always used, now behind [`Transport`] with a recv deadline and
//! the same tag/sequence verification the TCP transport performs (no
//! checksum: frames never leave process memory).

use crate::{
    dir, failed, poll_before_blocking, DtLinks, Neighbor, NeighborSpec, ParcelError, ParcelObs,
    RankNet, Tag, Transport,
};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use lulesh_core::types::Real;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// One tagged, sequenced message (the in-process analogue of a wire frame).
pub struct Frame {
    /// Phase tag.
    pub tag: Tag,
    /// Per-link, per-direction sequence number.
    pub seq: u32,
    /// Flat plane data.
    pub payload: Vec<Real>,
}

/// [`Transport`] over a pair of bounded crossbeam channels.
pub struct ChannelTransport {
    peer: usize,
    tx: Sender<Frame>,
    rx: Receiver<Frame>,
    deadline: Duration,
    send_seq: AtomicU32,
    recv_seq: AtomicU32,
    // `OnceLock`, not a mutex: the hook is read on every parcel (the hot
    // path — a 7-neighbour rank touches ~40 parcels per step), so a per-op
    // lock + `Arc` clone would be the telemetry plane's single biggest
    // cost. Attach-once is all the drivers ever needed.
    obs: OnceLock<ParcelObs>,
}

impl ChannelTransport {
    /// Build both endpoints of a link between `a` and `b` (returned in that
    /// order). Capacity 32 per direction: a 3-D halo exchange keeps up to
    /// 26 per-neighbour data frames in flight on one endpoint, plus a
    /// `Bye` at shutdown; on a single link the protocol posts at most a
    /// handful, and the bound still catches a runaway sender.
    pub fn pair(a: usize, b: usize, deadline: Duration) -> (Self, Self) {
        let (tx_ab, rx_ab) = bounded::<Frame>(32);
        let (tx_ba, rx_ba) = bounded::<Frame>(32);
        (
            Self::new(b, tx_ab, rx_ba, deadline),
            Self::new(a, tx_ba, rx_ab, deadline),
        )
    }

    fn new(peer: usize, tx: Sender<Frame>, rx: Receiver<Frame>, deadline: Duration) -> Self {
        Self {
            peer,
            tx,
            rx,
            deadline,
            send_seq: AtomicU32::new(0),
            recv_seq: AtomicU32::new(0),
            obs: OnceLock::new(),
        }
    }
}

impl Transport for ChannelTransport {
    fn peer(&self) -> usize {
        self.peer
    }

    fn send(&self, tag: Tag, payload: &[Real]) -> Result<(), ParcelError> {
        let obs = self.obs.get();
        let t0 = obs.map_or(0, ParcelObs::now_ns);
        let seq = self.send_seq.fetch_add(1, Ordering::Relaxed);
        self.tx
            .send(Frame {
                tag,
                seq,
                payload: payload.to_vec(),
            })
            .map_err(|_| failed(obs, ParcelError::PeerClosed { peer: self.peer }, self.peer))?;
        if let Some(o) = obs {
            o.sent(tag, t0, payload.len() as u64 * 8, self.peer);
        }
        Ok(())
    }

    fn recv(&self, tag: Tag) -> Result<Vec<Real>, ParcelError> {
        let obs = self.obs.get();
        let t0 = obs.map_or(0, ParcelObs::now_ns);
        let polled = poll_before_blocking(|| match self.rx.try_recv() {
            Ok(frame) => Some(Ok(frame)),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(RecvTimeoutError::Disconnected)),
        });
        let frame = polled.unwrap_or_else(|| self.rx.recv_timeout(self.deadline));
        let frame = frame.map_err(|e| {
            let e = match e {
                RecvTimeoutError::Timeout => ParcelError::Timeout { peer: self.peer },
                RecvTimeoutError::Disconnected => ParcelError::PeerClosed { peer: self.peer },
            };
            failed(obs, e, self.peer)
        })?;
        let arrival = obs.map_or(0, |o| o.arrived(tag, t0, self.peer));
        let expected = self.recv_seq.fetch_add(1, Ordering::Relaxed);
        if frame.seq != expected {
            let e = ParcelError::SeqMismatch {
                peer: self.peer,
                expected,
                got: frame.seq,
            };
            return Err(failed(obs, e, self.peer));
        }
        if frame.tag != tag {
            // A `Bye` where data was expected means the peer shut down.
            let e = if frame.tag == Tag::Bye {
                ParcelError::PeerClosed { peer: self.peer }
            } else {
                ParcelError::TagMismatch {
                    peer: self.peer,
                    expected: tag,
                    got: frame.tag,
                }
            };
            return Err(failed(obs, e, self.peer));
        }
        if let Some(o) = obs {
            let bytes = frame.payload.len() as u64 * 8;
            o.received(tag, arrival, bytes, self.peer);
        }
        Ok(frame.payload)
    }

    fn close(&self) -> Result<(), ParcelError> {
        self.send(Tag::Bye, &[])?;
        self.recv(Tag::Bye).map(|_| ())
    }

    fn attach_obs(&self, obs: ParcelObs) {
        let _ = self.obs.set(obs);
    }
}

/// Build the complete in-process mesh for an arbitrary neighbour graph:
/// `specs[r]` lists rank `r`'s halo neighbours with outgoing directions
/// (as produced by the decomposition), and the dt star through rank 0 is
/// always added. Specs must be symmetric: if `r` lists `(p, d)` then `p`
/// must list `(r, opposite(d))`. Returns one [`RankNet`] per rank, by
/// rank.
pub fn channel_mesh_with(specs: &[Vec<NeighborSpec>], deadline: Duration) -> Vec<RankNet> {
    let ranks = specs.len();
    assert!(ranks >= 1);
    let mut neighbors: Vec<Vec<Neighbor>> = (0..ranks).map(|_| Vec::new()).collect();
    for (r, list) in specs.iter().enumerate() {
        for s in list {
            assert!(
                s.rank < ranks && s.rank != r,
                "bad neighbour spec on rank {r}"
            );
            // Build each undirected edge once, from its lower-rank end.
            if s.rank > r {
                let od = dir::opposite(usize::from(s.dir)) as u8;
                assert!(
                    specs[s.rank].iter().any(|p| p.rank == r && p.dir == od),
                    "asymmetric neighbour specs between ranks {r} and {}",
                    s.rank
                );
                let (lower, upper) = ChannelTransport::pair(r, s.rank, deadline);
                neighbors[r].push(Neighbor {
                    rank: s.rank,
                    dir: s.dir,
                    link: Box::new(lower),
                });
                neighbors[s.rank].push(Neighbor {
                    rank: r,
                    dir: od,
                    link: Box::new(upper),
                });
            }
        }
    }
    for list in &mut neighbors {
        list.sort_by_key(|n| n.dir);
    }

    let mut members: Vec<Box<dyn Transport>> = Vec::with_capacity(ranks.saturating_sub(1));
    let mut leaves: Vec<Option<DtLinks>> = (0..ranks).map(|_| None).collect();
    for (r, leaf) in leaves.iter_mut().enumerate().skip(1) {
        let (root_side, leaf_side) = ChannelTransport::pair(0, r, deadline);
        members.push(Box::new(root_side));
        *leaf = Some(DtLinks::Leaf(Box::new(leaf_side)));
    }
    leaves[0] = Some(DtLinks::Root(members));

    neighbors
        .into_iter()
        .zip(leaves)
        .enumerate()
        .map(|(rank, (neighbors, dt))| RankNet {
            rank,
            ranks,
            neighbors,
            dt: dt.expect("dt links built for every rank"),
        })
        .collect()
}

/// The 1-D ζ chain mesh: rank `r` linked to `r ± 1`, plus the dt star.
pub fn channel_mesh(ranks: usize, deadline: Duration) -> Vec<RankNet> {
    channel_mesh_with(&crate::chain_specs(ranks), deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lulesh_core::types::LuleshError;
    use std::time::Duration;

    const D: Duration = Duration::from_millis(500);

    fn force() -> Tag {
        Tag::force(dir::UP)
    }

    #[test]
    fn send_recv_roundtrip() {
        let (a, b) = ChannelTransport::pair(0, 1, D);
        a.send(force(), &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(b.recv(force()).unwrap(), vec![1.0, 2.0, 3.0]);
        b.send(Tag::gradient(dir::DOWN), &[4.0]).unwrap();
        assert_eq!(a.recv(Tag::gradient(dir::DOWN)).unwrap(), vec![4.0]);
        assert_eq!(a.peer(), 1);
        assert_eq!(b.peer(), 0);
    }

    #[test]
    fn recv_times_out() {
        let (a, _b) = ChannelTransport::pair(0, 1, Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        assert_eq!(a.recv(force()), Err(ParcelError::Timeout { peer: 1 }));
        assert!(t0.elapsed() >= Duration::from_millis(45));
    }

    #[test]
    fn dropped_peer_is_peer_closed() {
        let (a, b) = ChannelTransport::pair(0, 1, D);
        drop(b);
        assert_eq!(a.recv(force()), Err(ParcelError::PeerClosed { peer: 1 }));
        assert_eq!(
            a.send(force(), &[1.0]),
            Err(ParcelError::PeerClosed { peer: 1 })
        );
    }

    #[test]
    fn tag_mismatch_detected() {
        let (a, b) = ChannelTransport::pair(0, 1, D);
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
    fn per_direction_tags_do_not_alias_on_one_link() {
        // Two frames for different stencil directions ride the same link;
        // the receiver pulls them in order under their own tags.
        let (a, b) = ChannelTransport::pair(0, 1, D);
        let corner = dir::index(1, 1, 1);
        a.send(Tag::force(dir::UP), &[1.0]).unwrap();
        a.send(Tag::force(corner), &[2.0]).unwrap();
        assert_eq!(b.recv(Tag::force(dir::UP)).unwrap(), vec![1.0]);
        assert_eq!(b.recv(Tag::force(corner)).unwrap(), vec![2.0]);
    }

    #[test]
    fn bye_while_expecting_data_is_peer_closed() {
        let (a, b) = ChannelTransport::pair(0, 1, D);
        a.send(Tag::Bye, &[]).unwrap();
        assert_eq!(b.recv(force()), Err(ParcelError::PeerClosed { peer: 0 }));
    }

    #[test]
    fn close_is_symmetric() {
        let (a, b) = ChannelTransport::pair(0, 1, D);
        let t = std::thread::spawn(move || b.close());
        a.close().unwrap();
        t.join().unwrap().unwrap();
    }

    #[test]
    fn live_hooks_count_frames_and_record_failures() {
        use obs::{SpanKind, Tracer};
        use std::sync::Arc;
        let (a, b) = ChannelTransport::pair(0, 1, D);
        let tracer = Tracer::shared(1);
        // The hook's one sink is the tracer; a second attach is ignored.
        a.attach_obs(ParcelObs::new(Arc::clone(&tracer), 0));
        a.attach_obs(ParcelObs::new(Tracer::shared(1), 0));
        a.send(force(), &[1.0, 2.0]).unwrap();
        b.send(force(), &[3.0]).unwrap();
        assert_eq!(a.recv(force()).unwrap(), vec![3.0]);
        // One send span, then the receive as a wait span and the payload
        // read it hands over to, each with its bytes and peer.
        let spans = tracer.drain();
        assert!(spans.iter().all(|s| s.kind == SpanKind::Parcel));
        let seen: Vec<_> = spans.iter().map(|s| (s.label, s.bytes, s.peer)).collect();
        assert_eq!(
            seen,
            [
                (force().send_label(), 16, 1),
                (force().wait_label(), 0, 1),
                (force().recv_label(), 8, 1)
            ]
        );
        assert_eq!(spans[1].end_ns, spans[2].start_ns);
        // A vanished peer lands in the trace as one zero-length error span.
        drop(b);
        assert_eq!(a.recv(force()), Err(ParcelError::PeerClosed { peer: 1 }));
        let spans = tracer.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].label, "parcel-error-closed");
        assert_eq!((spans[0].dur_ns(), spans[0].peer), (0, 1));
    }

    #[test]
    fn mesh_allreduce_folds_minima_and_errors() {
        let nets = channel_mesh(3, D);
        let handles: Vec<_> = nets
            .into_iter()
            .map(|net| {
                std::thread::spawn(move || {
                    let (c, h, e) = match net.rank {
                        0 => (3.0, 30.0, None),
                        1 => (1.0, 20.0, Some(LuleshError::QStopError)),
                        _ => (2.0, 10.0, None),
                    };
                    net.allreduce_dt(c, h, e).unwrap()
                })
            })
            .collect();
        for h in handles {
            let (gc, gh, gerr) = h.join().unwrap();
            assert_eq!(gc, 1.0);
            assert_eq!(gh, 10.0);
            assert_eq!(gerr, Some(LuleshError::QStopError));
        }
    }

    #[test]
    fn mesh_neighbours_are_wired_by_rank() {
        let nets = channel_mesh(3, D);
        assert!(nets[0].down().is_none() && nets[2].up().is_none());
        assert_eq!(nets[0].up().unwrap().peer(), 1);
        assert_eq!(nets[1].down().unwrap().peer(), 0);
        assert_eq!(nets[1].up().unwrap().peer(), 2);
        assert_eq!(nets[2].down().unwrap().peer(), 1);
    }

    #[test]
    fn mesh_with_arbitrary_graph_wires_both_ends() {
        // A 2×1×1 pair linked along ξ: rank 0 sees rank 1 at p00 and
        // vice versa at m00.
        let xp = dir::index(1, 0, 0);
        let xm = dir::index(-1, 0, 0);
        let specs = vec![
            vec![NeighborSpec {
                rank: 1,
                dir: xp as u8,
            }],
            vec![NeighborSpec {
                rank: 0,
                dir: xm as u8,
            }],
        ];
        let mut nets = channel_mesh_with(&specs, D);
        assert_eq!(nets[0].link_to(xp).unwrap().peer(), 1);
        assert!(nets[0].link_to(xm).is_none());
        assert_eq!(nets[1].link_to(xm).unwrap().peer(), 0);
        let n1 = nets.pop().unwrap();
        let n0 = nets.pop().unwrap();
        let h = std::thread::spawn(move || n1.link_to(xm).unwrap().recv(Tag::mass(xp)).unwrap());
        n0.link_to(xp).unwrap().send(Tag::mass(xp), &[7.0]).unwrap();
        assert_eq!(h.join().unwrap(), vec![7.0]);
    }
}
