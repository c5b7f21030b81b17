//! Batched reply settlement: the reply-side half of the wave pipeline.
//!
//! PR 2 made the *request* path ride waves — one doorbell per batch of
//! submissions — but every reply still paid a full `send_blocking`
//! (enqueue + combiner pass + control-variable publish) per completion.
//! The settler mirrors the request-side wave on the reply ring: every
//! reply producer in the engine — executed requests, handler `flush`
//! output, shed/malformed/credit replies alike — accumulates frames
//! here, and the engine settles each lane's accumulation with **one**
//! [`Producer::send_batch_blocking`] per `(lane, cycle)`. On a lazy ring
//! that is one control-variable publish (doorbell-equivalent) per wave
//! instead of one per reply.
//!
//! Ordering: frames buffer per lane in post order, and the vectored
//! enqueue preserves that order, so per-lane reply order is identical to
//! the per-reply path. Backpressure is unchanged too — a full response
//! ring blocks the settling thread exactly where `send_blocking` used
//! to block the posting thread.
//!
//! Each lane accumulates into one [`Wave`] — a byte arena plus frame
//! offsets — that settlement publishes in place and clears, so posting a
//! reply is one append and the wave is never reallocated once it has
//! grown to the lane's working depth. Only the engine thread posts and
//! settles; the lane lock it takes is never contended, and is there
//! because the settler's methods take `&self`.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use solros_faults::EngineFaults;
use solros_ringbuf::{Producer, Wave};
use solros_simkit::sync::Mutex;

use super::stats::ProxyStats;

/// Per-lane reply accumulator, owned by the engine.
pub struct ReplySettler {
    lanes: Vec<Producer>,
    faults: Arc<EngineFaults>,
    stats: Arc<ProxyStats>,
    /// What each lane has been posted since its last settlement.
    pending: Vec<Mutex<Wave>>,
}

impl ReplySettler {
    /// Builds a settler over one response-ring producer per lane.
    pub fn new(lanes: Vec<Producer>, faults: Arc<EngineFaults>, stats: Arc<ProxyStats>) -> Self {
        Self {
            pending: lanes.iter().map(|_| Mutex::new(Wave::new())).collect(),
            lanes,
            faults,
            stats,
        }
    }

    /// Buffers one reply for the lane's next settlement wave, honouring
    /// the armed reply-drop fault (a crashed stub whose response link is
    /// gone; client deadlines recover the tags). The fault is consumed
    /// here, at post time, so it lands on the intended frame.
    ///
    /// A frame larger than the ring accepts was silently unsendable on
    /// the per-reply path (`let _ = send_blocking`) and stays so.
    pub fn post_slice(&self, lane: usize, frame: &[u8]) {
        if self.faults.take_dropped_reply() {
            self.stats.dropped_replies.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if frame.len() <= self.lanes[lane].max_element() {
            self.pending[lane].lock().push(frame);
        }
    }

    /// [`ReplySettler::post_slice`] for a reply the caller holds as an
    /// owned vector.
    pub fn post(&self, lane: usize, frame: Vec<u8>) {
        self.post_slice(lane, &frame);
    }

    /// Surrenders every buffered reply without publishing it — the
    /// failover path: a dying shard's already-computed replies join its
    /// [`super::Wreck`] and the supervisor publishes them verbatim on
    /// the same rings, preserving exactly-once delivery.
    pub fn drain_pending(&self) -> Vec<(usize, Vec<u8>)> {
        let mut out = Vec::new();
        for (lane, pending) in self.pending.iter().enumerate() {
            let mut wave = pending.lock();
            out.extend(wave.iter().map(|frame| (lane, frame.to_vec())));
            wave.clear();
        }
        out
    }

    /// Settles every lane's accumulated replies with one batched enqueue
    /// per lane, spinning out backpressure exactly as the per-reply
    /// `send_blocking` did. Returns true when anything was flushed.
    pub fn settle(&self) -> bool {
        let mut flushed = false;
        for (tx, wave) in self.lanes.iter().zip(&self.pending) {
            let mut wave = wave.lock();
            if wave.is_empty() {
                continue;
            }
            flushed = true;
            let before = tx.publishes();
            let _ = tx.send_wave_blocking(&mut wave);
            self.stats
                .reply_publishes
                .fetch_add(tx.publishes() - before, Ordering::Relaxed);
            self.stats.reply_waves.fetch_add(1, Ordering::Relaxed);
            self.stats
                .replies
                .fetch_add(wave.len() as u64, Ordering::Relaxed);
            wave.clear();
        }
        flushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Channel;
    use solros_pcie::PcieCounters;
    use solros_ringbuf::Consumer;

    /// A settler over `lanes` response rings, their consumers, and its
    /// fault hooks and stats.
    fn rig(
        lanes: usize,
    ) -> (
        ReplySettler,
        Vec<Consumer>,
        Arc<EngineFaults>,
        Arc<ProxyStats>,
    ) {
        let chans: Vec<Channel> = (0..lanes)
            .map(|_| Channel::new(Arc::new(PcieCounters::new())))
            .collect();
        let faults = Arc::new(EngineFaults::new());
        let stats = Arc::new(ProxyStats::default());
        let settler = ReplySettler::new(
            chans.iter().map(|c| c.resp_tx.clone()).collect(),
            Arc::clone(&faults),
            Arc::clone(&stats),
        );
        let rx = chans.into_iter().map(|c| c.resp_rx).collect();
        (settler, rx, faults, stats)
    }

    fn drain(rx: &Consumer) -> Vec<Vec<u8>> {
        std::iter::from_fn(|| rx.recv().ok()).collect()
    }

    #[test]
    fn lanes_keep_post_order_across_cycles_with_one_publish_each() {
        let (settler, rx, _, stats) = rig(2);
        assert!(!settler.settle(), "nothing posted, nothing flushed");
        for cycle in 0..4u8 {
            // Cycles of different depth, so the wave shrinks and grows.
            let depth = 3 + cycle * 5;
            for i in 0..depth {
                settler.post_slice(0, &[cycle, i, 0]);
                settler.post(1, vec![cycle, i, 1]);
            }
            assert!(settler.settle());
            for (lane, rx) in rx.iter().enumerate() {
                let want: Vec<Vec<u8>> = (0..depth).map(|i| vec![cycle, i, lane as u8]).collect();
                assert_eq!(drain(rx), want, "cycle {cycle} lane {lane}");
            }
        }
        assert_eq!(stats.reply_waves.load(Ordering::Relaxed), 8);
        assert_eq!(stats.reply_publishes.load(Ordering::Relaxed), 8);
        assert_eq!(stats.replies.load(Ordering::Relaxed), 2 * (3 + 8 + 13 + 18));
    }

    #[test]
    fn a_dropped_reply_fault_lands_on_the_frame_posted_next() {
        let (settler, rx, faults, stats) = rig(1);
        settler.post_slice(0, b"first");
        faults.arm_dropped_replies(1);
        settler.post_slice(0, b"lost");
        settler.post_slice(0, b"third");
        settler.settle();
        assert_eq!(drain(&rx[0]), [b"first".to_vec(), b"third".to_vec()]);
        assert_eq!(stats.dropped_replies.load(Ordering::Relaxed), 1);
        assert_eq!(stats.replies.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn an_oversized_frame_is_dropped_silently_and_its_neighbours_ship() {
        let (settler, rx, _, stats) = rig(1);
        let max = Channel::new(Arc::new(PcieCounters::new()))
            .resp_tx
            .max_element();
        settler.post_slice(0, b"before");
        settler.post(0, vec![7; max + 1]);
        settler.post(0, vec![8; max]);
        settler.post_slice(0, b"after");
        assert!(settler.settle());
        assert_eq!(
            drain(&rx[0]),
            [b"before".to_vec(), vec![8; max], b"after".to_vec()]
        );
        assert_eq!(stats.replies.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn drain_pending_surrenders_every_lane_in_order_and_leaves_nothing() {
        let (settler, rx, _, _) = rig(2);
        settler.post_slice(1, b"b0");
        settler.post_slice(0, b"a0");
        settler.post_slice(1, b"b1");
        assert_eq!(
            settler.drain_pending(),
            [
                (0, b"a0".to_vec()),
                (1, b"b0".to_vec()),
                (1, b"b1".to_vec())
            ]
        );
        assert!(settler.drain_pending().is_empty());
        assert!(!settler.settle(), "a surrendered wave is not published");
        assert!(rx.iter().all(|rx| rx.recv().is_err()));
        // The lanes still work after a drain.
        settler.post_slice(0, b"a1");
        settler.settle();
        assert_eq!(drain(&rx[0]), [b"a1".to_vec()]);
    }
}
