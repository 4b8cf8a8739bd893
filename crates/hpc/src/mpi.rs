//! An in-process simulated MPI runtime with ULFM-style fault surfacing.
//!
//! Real concurrent "ranks" (one OS thread each) exchanging typed messages
//! over `std::sync::mpsc` channels. The EnSF decomposition of §III-A3 is
//! parallel along the ensemble dimension, so the one collective it needs is
//! an allgather: [`Comm::try_allgather`] and its concatenating form
//! [`Comm::try_allgather_concat`], a gather to the group root and a
//! broadcast over tagged point-to-point messages (with out-of-order
//! buffering). This gives the repository a faithful stand-in for the MPI
//! parallelization that runs — and is tested — on one machine.
//!
//! ## Fault model
//!
//! The runtime mirrors the ULFM (User-Level Failure Mitigation) proposal:
//!
//! * A rank is dead once [`Comm::kill`] flips its flag in a world-shared
//!   liveness registry: at a scripted failure point, or on its way out,
//!   since a rank that returns or unwinds drops its [`Comm`], and exit
//!   means dead. `kill` then sends every peer an in-band death notice.
//!   Peers blocked on a receive from the rank observe a typed
//!   [`MpiError::RankDead`] carrying the offending `(src, tag)` — never a
//!   hang: a receive blocks on its inbox alone, and any notice makes it
//!   re-read the registry, which is the one source of truth. A sender's
//!   messages arrive in order, so its last data is delivered before its
//!   notice.
//! * On any collective error a survivor calls [`Comm::revoke`], waking
//!   every peer still parked inside the broken collective with
//!   [`MpiError::Revoked`], then all survivors agree (deterministically,
//!   outside this module) on a shrunken group and call [`Comm::recover`].
//! * [`Comm::recover`] installs a new *group view* and bumps the *epoch*.
//!   Collective message tags encode the epoch, so stragglers from an
//!   abandoned collective attempt can never be mistaken for contributions
//!   to its retry: older-epoch messages are dropped on receipt,
//!   future-epoch messages are buffered until the local view catches up.
//! * A dead rank rejoins through an out-of-band *grant*: a coordinator that
//!   has seen it dead calls [`Comm::revive`] and [`Comm::send_grant`], the
//!   rejoiner [`Comm::recv_grant`], and every member of the expanded group
//!   then calls a matching [`Comm::recover`].
//!
//! Group views renumber ranks: after a shrink [`Comm::rank`] /
//! [`Comm::size`] describe the surviving group in ascending world-rank
//! order, so collective code written against them works unchanged across
//! membership changes, while [`Comm::world_rank`] stays fixed for
//! addressing point-to-point messages.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// Top bit marks runtime-internal tags; user tags must keep it clear.
const TAG_SPECIAL: u64 = 1 << 63;
/// Epoch-stamped revocation notice (data = `[epoch]`).
const REVOKE_TAG: u64 = u64::MAX;
/// Out-of-band rejoin grant, valid across epochs.
const GRANT_TAG: u64 = u64::MAX - 1;
/// Death notice: only a wake-up, telling the receiver to re-read the
/// liveness registry.
const DEAD_TAG: u64 = u64::MAX - 2;

/// Collective operation codes folded into epoch-stamped tags.
const OP_GATHER: u64 = 3;
const OP_BCAST: u64 = 4;

/// Why a receive (and therefore a collective) could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiError {
    /// The source rank is registered dead and no matching message is
    /// buffered or in flight.
    RankDead {
        /// World rank of the dead peer.
        src: usize,
        /// Tag the receive was waiting on.
        tag: u64,
    },
    /// A peer revoked the current communication epoch (some collective
    /// broke elsewhere); abandon the operation and shrink.
    Revoked,
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::RankDead { src, tag } => {
                write!(f, "rank {src} is dead (receive tag {tag:#x})")
            }
            MpiError::Revoked => write!(f, "communication epoch revoked by a peer"),
        }
    }
}

impl std::error::Error for MpiError {}

/// A tagged message between ranks (`src` is a world rank).
#[derive(Debug, Clone)]
struct Message {
    src: usize,
    tag: u64,
    data: Vec<f64>,
}

/// Per-rank communicator handle.
pub struct Comm {
    world_rank: usize,
    world_size: usize,
    senders: Vec<Sender<Message>>,
    inbox: Receiver<Message>,
    /// World-shared liveness registry, one flag per world rank.
    alive: Arc<Vec<AtomicBool>>,
    /// Current group view: ascending world ranks. `rank()` is this rank's
    /// position in it.
    group: RefCell<Vec<usize>>,
    /// Membership-change counter stamped into collective tags.
    epoch: Cell<u64>,
    /// Set when a peer revoked the current epoch.
    revoked: Cell<bool>,
    pending: RefCell<Vec<Message>>,
}

impl Comm {
    /// This rank's position in the current group view (renumbered after a
    /// shrink or rejoin; equals [`Comm::world_rank`] in a full world).
    ///
    /// # Panics
    /// Panics if this rank is not a member of its own group view (a
    /// [`Comm::recover`] misuse).
    pub fn rank(&self) -> usize {
        self.group
            .borrow()
            .iter()
            .position(|&w| w == self.world_rank)
            .expect("rank not in its own group view")
    }

    /// Current group size (shrinks and re-expands with membership).
    pub fn size(&self) -> usize {
        self.group.borrow().len()
    }

    /// This rank's immutable world id.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// The immutable world size the runtime was launched with.
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// Current group view (ascending world ranks).
    pub fn group(&self) -> Vec<usize> {
        self.group.borrow().clone()
    }

    /// Current communication epoch (bumped by every [`Comm::recover`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Whether `world_rank` is registered alive.
    ///
    /// # Panics
    /// Panics if `world_rank` is out of range.
    pub fn is_alive(&self, world_rank: usize) -> bool {
        self.alive[world_rank].load(Ordering::Acquire)
    }

    /// Registers this rank dead and wakes every peer with a death notice.
    /// Call at the scripted failure point, then stop communicating (other
    /// than [`Comm::recv_grant`]); peers observe [`MpiError::RankDead`]
    /// instead of hanging. Dropping the `Comm` calls it too.
    pub fn kill(&self) {
        self.alive[self.world_rank].store(false, Ordering::Release);
        for (w, tx) in self.senders.iter().enumerate() {
            if w != self.world_rank {
                // A peer that already left needs no wake-up.
                let _ = tx.send(Message { src: self.world_rank, tag: DEAD_TAG, data: Vec::new() });
            }
        }
    }

    /// Re-registers the dead `world_rank` alive ahead of a rejoin grant, so
    /// that survivors entering the expanded group never spuriously observe
    /// the rejoiner as dead while it is still restoring its state. Call it
    /// only after observing the rank dead: a revive that could overtake
    /// the rank's own `kill` is refused here rather than failing later
    /// inside a collective.
    ///
    /// # Panics
    /// Panics if `world_rank` is out of range or registered alive.
    pub fn revive(&self, world_rank: usize) {
        assert!(!self.is_alive(world_rank), "revive of rank {world_rank}, which is alive");
        self.alive[world_rank].store(true, Ordering::Release);
    }

    /// Epoch-stamped tag for collective operation `op`.
    fn ctag(&self, op: u64) -> u64 {
        TAG_SPECIAL | ((self.epoch.get() & 0xFFFF) << 8) | op
    }

    /// Epoch carried by a stamped collective tag.
    fn tag_epoch(tag: u64) -> u64 {
        (tag >> 8) & 0xFFFF
    }

    /// Whether `tag` is an epoch-stamped collective tag (special, but not
    /// one of the fixed out-of-band tags).
    fn is_collective_tag(tag: u64) -> bool {
        tag & TAG_SPECIAL != 0 && ![REVOKE_TAG, GRANT_TAG, DEAD_TAG].contains(&tag)
    }

    /// Raw send that tolerates disconnected dead peers.
    fn send_raw(&self, dst: usize, tag: u64, data: &[f64]) {
        assert!(dst < self.world_size, "send to invalid rank {dst}");
        let msg = Message { src: self.world_rank, tag, data: data.to_vec() };
        if self.senders[dst].send(msg).is_err() {
            // A receiver only disappears when its thread exited, which
            // registered it dead; alive here means a revive after it left.
            assert!(!self.is_alive(dst), "send to rank {dst}, which left but is registered alive");
        }
    }

    /// Routes one inbound message while waiting for `(src, tag)`: returns
    /// the payload on a match, buffers unrelated messages, drops
    /// stale-epoch collective traffic and death notices (the caller
    /// re-reads the registry), buffers future-epoch collective traffic,
    /// and surfaces revocations.
    fn route(&self, msg: Message, src: usize, tag: u64) -> Result<Option<Vec<f64>>, MpiError> {
        if msg.tag == DEAD_TAG {
            return Ok(None);
        }
        if msg.tag == REVOKE_TAG {
            let revoked_epoch = msg.data.first().copied().unwrap_or(0.0) as u64;
            if revoked_epoch >= self.epoch.get() {
                self.revoked.set(true);
                return Err(MpiError::Revoked);
            }
            return Ok(None); // stale revoke from an already-resolved epoch
        }
        if Self::is_collective_tag(msg.tag) && Self::tag_epoch(msg.tag) < self.epoch.get() & 0xFFFF
        {
            return Ok(None); // straggler from an abandoned collective
        }
        if msg.src == src && msg.tag == tag {
            return Ok(Some(msg.data));
        }
        self.pending.borrow_mut().push(msg);
        Ok(None)
    }

    /// Blocking receive from world rank `src` with `tag`.
    ///
    /// Messages from other sources/tags arriving first are buffered, and
    /// same-`(src, tag)` messages are delivered in send order (MPI's
    /// non-overtaking guarantee). Instead of hanging, fails typed:
    /// [`MpiError::RankDead`] when `src` is registered dead with no
    /// matching message buffered or in flight, [`MpiError::Revoked`] when a
    /// peer revoked the epoch. Between checks it blocks on the inbox: a
    /// death notice from `src` arrives after its last data and ends the
    /// wait.
    ///
    /// # Panics
    /// Panics if `src` is out of range.
    fn recv_checked(&self, src: usize, tag: u64) -> Result<Vec<f64>, MpiError> {
        assert!(src < self.world_size, "recv from invalid rank {src}");
        loop {
            if self.revoked.get() {
                return Err(MpiError::Revoked);
            }
            // Check the out-of-order buffer first. `remove` (not
            // `swap_remove`) keeps the buffer in arrival order: with
            // several same-(src, tag) messages buffered, swap_remove would
            // deliver the newest second — reordering a FIFO stream (caught
            // by the proptest interleaving model).
            {
                let mut pending = self.pending.borrow_mut();
                if let Some(pos) = pending.iter().position(|m| m.src == src && m.tag == tag) {
                    return Ok(pending.remove(pos).data);
                }
            }
            if !self.is_alive(src) {
                // The sender may have died *after* sending the matching
                // message: drain the inbox before giving up on it.
                while let Ok(msg) = self.inbox.try_recv() {
                    if let Some(data) = self.route(msg, src, tag)? {
                        return Ok(data);
                    }
                }
                let mut pending = self.pending.borrow_mut();
                if let Some(pos) = pending.iter().position(|m| m.src == src && m.tag == tag) {
                    return Ok(pending.remove(pos).data);
                }
                return Err(MpiError::RankDead { src, tag });
            }
            // INVARIANT: every `Comm` holds a sender to itself, so the inbox
            // never disconnects.
            let msg = self.inbox.recv().expect("a rank's inbox outlives it");
            if let Some(data) = self.route(msg, src, tag)? {
                return Ok(data);
            }
        }
    }

    /// Notifies every live peer in the current group that the current
    /// epoch is broken, waking them out of parked receives with
    /// [`MpiError::Revoked`]. Idempotent per epoch; stale revokes are
    /// discarded by their receivers. The caller should follow up with
    /// [`Comm::recover`].
    pub fn revoke(&self) {
        let epoch = self.epoch.get() as f64;
        for &w in self.group.borrow().iter() {
            if w != self.world_rank && self.is_alive(w) {
                self.send_raw(w, REVOKE_TAG, &[epoch]);
            }
        }
        self.revoked.set(true);
    }

    /// Installs a new group view and epoch after a membership change
    /// (shrink or rejoin). Every member of `group` must call this with the
    /// same arguments; `epoch` is the count of membership changes so far,
    /// agreed deterministically by the caller. Clears the revoked flag and
    /// purges buffered traffic from abandoned epochs.
    ///
    /// # Panics
    /// Panics if `group` is empty, not strictly ascending, or does not
    /// contain this rank.
    pub fn recover(&self, group: &[usize], epoch: u64) {
        assert!(!group.is_empty(), "recover needs a non-empty group");
        assert!(
            group.windows(2).all(|w| w[0] < w[1]),
            "recover group must be strictly ascending"
        );
        assert!(
            group.contains(&self.world_rank),
            "rank {} missing from recover group {group:?}",
            self.world_rank
        );
        assert!(
            group.iter().all(|&w| w < self.world_size),
            "recover group contains out-of-world ranks"
        );
        self.epoch.set(epoch);
        self.revoked.set(false);
        *self.group.borrow_mut() = group.to_vec();
        let cur = epoch & 0xFFFF;
        self.pending.borrow_mut().retain(|m| {
            m.tag != REVOKE_TAG
                && !(Self::is_collective_tag(m.tag) && Self::tag_epoch(m.tag) < cur)
        });
    }

    /// Sends an out-of-band rejoin grant to world rank `dst` (call
    /// [`Comm::revive`] first so the rejoiner is registered alive).
    pub fn send_grant(&self, dst: usize, data: &[f64]) {
        self.send_raw(dst, GRANT_TAG, data);
    }

    /// Blocks until a rejoin grant arrives from world rank `src`, or fails
    /// with [`MpiError::RankDead`] once `src` is dead (it left without
    /// granting). Unlike a collective's receive this survives revocations
    /// (a dead rank does not participate in epochs), clearing the flag and
    /// waiting on.
    ///
    /// # Panics
    /// Panics if `src` is out of range.
    pub fn recv_grant(&self, src: usize) -> Result<Vec<f64>, MpiError> {
        loop {
            match self.recv_checked(src, GRANT_TAG) {
                Err(MpiError::Revoked) => self.revoked.set(false),
                other => return other,
            }
        }
    }

    /// Gathers every group member's `data` to the group root; returns
    /// `Some(parts)` indexed by group position on the root and `None`
    /// elsewhere.
    fn try_gather(&self, data: &[f64]) -> Result<Option<Vec<Vec<f64>>>, MpiError> {
        let group = self.group();
        let tag = self.ctag(OP_GATHER);
        let root = group[0];
        if self.world_rank == root {
            let mut parts = vec![Vec::new(); group.len()];
            parts[0] = data.to_vec();
            for (i, &w) in group.iter().enumerate().skip(1) {
                parts[i] = self.recv_checked(w, tag)?;
            }
            Ok(Some(parts))
        } else {
            self.send_raw(root, tag, data);
            Ok(None)
        }
    }

    /// Broadcasts the group root's `data` to the whole group, in place.
    fn try_broadcast(&self, data: &mut Vec<f64>) -> Result<(), MpiError> {
        let group = self.group();
        let tag = self.ctag(OP_BCAST);
        let root = group[0];
        if self.world_rank == root {
            for &w in &group[1..] {
                self.send_raw(w, tag, data);
            }
        } else {
            *data = self.recv_checked(root, tag)?;
        }
        Ok(())
    }

    /// The gather-to-root + broadcast behind both allgathers, framed as
    /// `[len_0, …, len_{size-1}, part_0 …, part_{size-1} …]` so a single
    /// broadcast carries both the lengths and the payload.
    fn try_allgather_frame(&self, data: &[f64]) -> Result<Vec<f64>, MpiError> {
        let mut frame = if let Some(parts) = self.try_gather(data)? {
            let mut frame: Vec<f64> = parts.iter().map(|p| p.len() as f64).collect();
            for p in &parts {
                frame.extend_from_slice(p);
            }
            frame
        } else {
            Vec::new()
        };
        self.try_broadcast(&mut frame)?;
        Ok(frame)
    }

    /// Gathers every group member's `data` to all members (fallible):
    /// returns the per-member parts in group order on every rank. Parts
    /// may have different lengths.
    pub fn try_allgather(&self, data: &[f64]) -> Result<Vec<Vec<f64>>, MpiError> {
        let size = self.size();
        if size == 1 {
            return Ok(vec![data.to_vec()]);
        }
        let frame = self.try_allgather_frame(data)?;
        let mut out = Vec::with_capacity(size);
        let mut offset = size;
        for &len in &frame[..size] {
            let len = len as usize;
            out.push(frame[offset..offset + len].to_vec());
            offset += len;
        }
        Ok(out)
    }

    /// [`Comm::try_allgather`] flattened: every rank receives the
    /// concatenation of all members' contributions in group order. This is
    /// the reassembly primitive for contiguous state-block decompositions:
    /// with group position `r` owning block `r` of a partitioned vector,
    /// the result is the full vector, identically on every rank.
    pub fn try_allgather_concat(&self, data: &[f64]) -> Result<Vec<f64>, MpiError> {
        if self.size() == 1 {
            return Ok(data.to_vec());
        }
        // The frame behind its length header *is* the concatenation: no
        // per-part copies.
        let mut frame = self.try_allgather_frame(data)?;
        frame.drain(..self.size());
        Ok(frame)
    }

}

/// Exit means dead: a rank thread's `Comm` drops when its closure returns
/// or unwinds, and `drop` runs before the fields do, so the rank is
/// registered dead before its inbox disconnects.
impl Drop for Comm {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Runs `f` on `size` concurrent ranks and returns their results in rank
/// order.
///
/// # Panics
/// Panics when `size == 0`, and re-raises the panic of the lowest rank
/// whose closure panicked once every rank has left (a rank's exit wakes
/// any peer blocked on it).
pub fn run_world<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    assert!(size >= 1, "world needs at least one rank");
    let mut txs = Vec::with_capacity(size);
    let mut rxs = Vec::with_capacity(size);
    for _ in 0..size {
        let (tx, rx) = channel::<Message>();
        txs.push(tx);
        rxs.push(rx);
    }
    let alive: Arc<Vec<AtomicBool>> =
        Arc::new((0..size).map(|_| AtomicBool::new(true)).collect());

    let comms: Vec<Comm> = rxs
        .into_iter()
        .enumerate()
        .map(|(rank, inbox)| Comm {
            world_rank: rank,
            world_size: size,
            senders: txs.clone(),
            inbox,
            alive: Arc::clone(&alive),
            group: RefCell::new((0..size).collect()),
            epoch: Cell::new(0),
            revoked: Cell::new(false),
            pending: RefCell::new(Vec::new()),
        })
        .collect();
    drop(txs);

    let f = &f;
    let outcomes: Vec<std::thread::Result<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            comms.into_iter().map(|comm| scope.spawn(move || f(&comm))).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    outcomes.into_iter().map(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn world_runs_all_ranks() {
        let out = run_world(4, |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn ring_send_recv() {
        let out = run_world(5, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send_raw(next, 7, &[c.rank() as f64]);
            let got = c.recv_checked(prev, 7).unwrap();
            got[0] as usize
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn out_of_order_tags_buffered() {
        let out = run_world(2, |c| {
            if c.rank() == 0 {
                // Send tag 2 first, then tag 1.
                c.send_raw(1, 2, &[2.0]);
                c.send_raw(1, 1, &[1.0]);
                0.0
            } else {
                // Receive tag 1 first: the tag-2 message must be buffered.
                let a = c.recv_checked(0, 1).unwrap()[0];
                let b = c.recv_checked(0, 2).unwrap()[0];
                a * 10.0 + b
            }
        });
        assert_eq!(out[1], 12.0);
    }

    #[test]
    fn buffered_same_key_messages_stay_fifo() {
        // Regression: with >= 3 same-(src, tag) messages parked in the
        // out-of-order buffer, `swap_remove` delivered the newest message
        // second (0, 3, 2, 1 here). `remove` preserves send order.
        let out = run_world(2, |c| {
            if c.rank() == 0 {
                for seq in 0..4 {
                    c.send_raw(1, 1, &[seq as f64]);
                }
                c.send_raw(1, 2, &[99.0]);
                Vec::new()
            } else {
                // Draining tag 2 first forces all four tag-1 messages
                // through the pending buffer.
                assert_eq!(c.recv_checked(0, 2), Ok(vec![99.0]));
                (0..4).map(|_| c.recv_checked(0, 1).unwrap()[0]).collect::<Vec<f64>>()
            }
        });
        assert_eq!(out[1], vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn allgather_collects_everywhere_in_rank_order() {
        let out = run_world(3, |c| c.try_allgather(&vec![c.rank() as f64; c.rank() + 1]).unwrap());
        for parts in &out {
            assert_eq!(parts.len(), 3);
            for (r, p) in parts.iter().enumerate() {
                assert_eq!(p, &vec![r as f64; r + 1]);
            }
        }
    }

    #[test]
    fn allgather_concat_reassembles_blocks() {
        // Rank r owns the contiguous block [2r, 2r+1] of an 8-vector.
        let out = run_world(4, |c| {
            let lo = 2 * c.rank();
            c.try_allgather_concat(&[lo as f64, (lo + 1) as f64]).unwrap()
        });
        let want: Vec<f64> = (0..8).map(|i| i as f64).collect();
        for full in &out {
            assert_eq!(full, &want);
        }
    }

    #[test]
    #[should_panic]
    fn invalid_destination_panics() {
        run_world(2, |c| {
            if c.rank() == 0 {
                c.send_raw(5, 0, &[1.0]);
            }
        });
    }

    // Regression: a rank dying mid-collective used to leave its peers
    // blocked forever inside a receive. The root must observe a typed
    // `RankDead` carrying the offending (src, tag), and a revocation must
    // wake the other survivor with `Revoked`.
    #[test]
    fn dead_rank_mid_collective_returns_typed_error() {
        let out = run_world(3, |c| {
            if c.rank() == 2 {
                c.kill();
                return "dead".to_string();
            }
            match c.try_allgather_concat(&[1.0]) {
                Ok(_) => "ok".to_string(),
                Err(MpiError::RankDead { src, tag }) => {
                    // Only the root receives from rank 2 directly; it
                    // revokes so the other survivor unblocks too.
                    c.revoke();
                    assert_eq!(src, 2);
                    assert_ne!(tag & TAG_SPECIAL, 0, "failure was inside a collective");
                    "rank_dead".to_string()
                }
                Err(MpiError::Revoked) => "revoked".to_string(),
            }
        });
        assert_eq!(out[0], "rank_dead");
        assert_eq!(out[1], "revoked");
        assert_eq!(out[2], "dead");
    }

    #[test]
    fn messages_sent_before_death_still_deliver() {
        let out = run_world(2, |c| {
            if c.rank() == 1 {
                c.send_raw(0, 5, &[7.0]);
                c.kill();
                return vec![];
            }
            // The backlog message must arrive even though the sender is
            // already registered dead; the *next* receive fails typed.
            let got = c.recv_checked(1, 5).expect("pre-death message lost");
            assert_eq!(
                c.recv_checked(1, 6),
                Err(MpiError::RankDead { src: 1, tag: 6 })
            );
            got
        });
        assert_eq!(out[0], vec![7.0]);
    }

    #[test]
    #[should_panic(expected = "rank 0 fails")]
    fn rank_panic_wakes_its_peers_and_surfaces() {
        // Rank 0 unwinds without calling `kill`; dropping its `Comm` does,
        // so rank 1 leaves the collective with `RankDead` and `run_world`
        // re-raises rank 0's own panic.
        run_world(2, |c| {
            if c.rank() == 0 {
                panic!("rank 0 fails");
            }
            let got = c.try_allgather_concat(&[1.0]);
            assert!(matches!(got, Err(MpiError::RankDead { src: 0, .. })), "{got:?}");
        });
    }

    #[test]
    #[should_panic(expected = "revive of rank 1, which is alive")]
    fn revive_of_a_live_rank_is_refused() {
        run_world(2, |c| {
            if c.rank() == 0 {
                c.revive(1);
            } else {
                // Alive until rank 0 leaves.
                assert_eq!(c.recv_checked(0, 1), Err(MpiError::RankDead { src: 0, tag: 1 }));
            }
        });
    }

    #[test]
    fn shrink_renumbers_group_and_collectives_work() {
        let survivors = [0usize, 1, 3];
        let out = run_world(4, |c| {
            if c.world_rank() == 2 {
                c.kill();
                return (usize::MAX, usize::MAX, 0.0);
            }
            c.recover(&survivors, 1);
            // Group gather returns parts in ascending world order.
            let parts = c.try_allgather_concat(&[c.world_rank() as f64]).unwrap();
            assert_eq!(parts, vec![0.0, 1.0, 3.0]);
            (c.rank(), c.size(), parts.iter().sum::<f64>())
        });
        assert_eq!(out[0], (0, 3, 4.0));
        assert_eq!(out[1], (1, 3, 4.0));
        assert_eq!(out[3], (2, 3, 4.0));
    }

    #[test]
    fn stale_epoch_contribution_cannot_poison_a_retry() {
        let out = run_world(2, |c| {
            if c.rank() == 1 {
                // Contribute to an epoch-0 allgather that rank 0 never
                // joins, abandoning it on rank 0's revocation — the classic
                // half-finished collective a kill leaves behind.
                assert_eq!(c.try_allgather_concat(&[100.0]), Err(MpiError::Revoked));
                c.recover(&[0, 1], 1);
                return c.try_allgather_concat(&[2.0]).unwrap().iter().sum::<f64>();
            }
            // Rank 0 revokes epoch 0 instead of joining it; its retry at
            // epoch 1 must not absorb the stale 100.0 contribution.
            c.revoke();
            c.recover(&[0, 1], 1);
            c.try_allgather_concat(&[1.0]).unwrap().iter().sum::<f64>()
        });
        assert_eq!(out, vec![3.0, 3.0]);
    }

    #[test]
    fn grant_based_rejoin_restores_full_group() {
        let out = run_world(2, |c| {
            if c.world_rank() == 1 {
                c.kill();
                let grant = c.recv_grant(0).expect("grant never arrived");
                assert_eq!(grant, vec![2.0, 5.0]);
                c.recover(&[0, 1], grant[0] as u64);
                return c.try_allgather_concat(&[10.0]).unwrap().iter().sum::<f64>();
            }
            // Coordinator: shrink to itself, then re-admit rank 1 once it
            // has seen it dead (rank 1 sends nothing, so the receive ends
            // at its death notice). Each membership change bumps the
            // epoch; the grant carries the epoch of the expanded group.
            c.recover(&[0], 1);
            assert_eq!((c.rank(), c.size()), (0, 1));
            assert_eq!(c.recv_checked(1, 0), Err(MpiError::RankDead { src: 1, tag: 0 }));
            c.revive(1);
            c.send_grant(1, &[2.0, 5.0]);
            c.recover(&[0, 1], 2);
            c.try_allgather_concat(&[20.0]).unwrap().iter().sum::<f64>()
        });
        assert_eq!(out, vec![30.0, 30.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Tagged streams from several senders, consumed by selective
        /// receives in an arbitrary interleaving, arrive with no loss, no
        /// duplication, no tag/source mixups, and in send order per
        /// `(src, tag)` — MPI's non-overtaking guarantee, which the
        /// collectives' receives rely on. The receiver's schedule is a
        /// seeded permutation of the whole message multiset, so many
        /// messages of one key sit in the out-of-order buffer while other
        /// keys drain (the scenario that exposed the `swap_remove`
        /// reordering).
        #[test]
        fn mpi_tagged_streams_fifo_no_loss_no_dup(
            n_senders in 1usize..4,
            counts in prop::collection::vec(0usize..5, 2..7),
            order_seed in 0u64..u64::MAX,
        ) {
            // Key k holds counts[k] messages and maps to a distinct (src, tag).
            let key = |k: usize| (1 + k % n_senders, (k / n_senders) as u64);
            let total: usize = counts.iter().sum();
            let counts = &counts;
            let results = run_world(n_senders + 1, |comm| {
                if comm.rank() == 0 {
                    // Receive schedule: every (key, i) occurrence, permuted
                    // by a seeded Fisher–Yates. Within one key the i-th
                    // selective receive must yield the i-th message sent.
                    let mut sched: Vec<usize> = Vec::new();
                    for (k, &c) in counts.iter().enumerate() {
                        sched.extend(std::iter::repeat_n(k, c));
                    }
                    let mut s = order_seed | 1;
                    for i in (1..sched.len()).rev() {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let j = (s >> 33) as usize % (i + 1);
                        sched.swap(i, j);
                    }
                    let mut next_seq = vec![0usize; counts.len()];
                    for &k in &sched {
                        let (src, tag) = key(k);
                        let got = comm.recv_checked(src, tag).unwrap();
                        assert_eq!(got.len(), 3, "payload shape");
                        assert_eq!(got[0] as usize, src, "source mixup");
                        assert_eq!(got[1] as u64, tag, "tag mixup");
                        assert_eq!(
                            got[2] as usize, next_seq[k],
                            "FIFO violated for src {src} tag {tag}"
                        );
                        next_seq[k] += 1;
                    }
                    sched.len()
                } else {
                    // Each sender emits its keys' messages in (key, seq) order.
                    let mut sent = 0usize;
                    for (k, &c) in counts.iter().enumerate() {
                        let (src, tag) = key(k);
                        if src != comm.rank() {
                            continue;
                        }
                        for seq in 0..c {
                            comm.send_raw(0, tag, &[src as f64, tag as f64, seq as f64]);
                            sent += 1;
                        }
                    }
                    sent
                }
            });
            // Conservation: the receiver consumed exactly what the senders sent.
            prop_assert_eq!(results[0], total);
            let sent_total: usize = results[1..].iter().sum();
            prop_assert_eq!(sent_total, total);
        }
    }
}
