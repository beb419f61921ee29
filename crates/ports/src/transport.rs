//! Reliable transport over the inter-node link: a deterministic
//! go-back-N ARQ endpoint.
//!
//! PR 1/2 gave the link *detection* — CRC rejects corruption, sequence
//! gaps reveal loss — but a dropped frame stayed dropped. This module
//! closes the loop: every data frame is stamped with a per-link sequence
//! number, the receiver acknowledges cumulatively, and the sender
//! retransmits the whole in-flight window when its head times out
//! (go-back-N keeps the receiver trivial: accept in order, discard
//! everything else, re-acknowledge). Timeouts are tick-based with
//! exponential backoff, so a campaign run is a pure function of its seed.
//!
//! Delivery is *guaranteed*, not best-effort: after `max_retries` rounds
//! the endpoint reports exhaustion (the health-monitoring signal) but
//! keeps retrying at the capped interval — the paper's systems degrade,
//! they do not silently lose interpartition messages.

use std::collections::VecDeque;

use air_model::Ticks;

use crate::wire::Frame;

/// ARQ tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArqConfig {
    /// Maximum unacknowledged frames in flight.
    pub window: usize,
    /// Base retransmission timeout in ticks (head-of-window timer).
    pub timeout_ticks: u64,
    /// Backoff doublings cap: round `r` waits `timeout << min(r, cap)`.
    pub backoff_cap: u32,
    /// Rounds before the endpoint reports delivery exhaustion (it still
    /// keeps retrying at the capped interval).
    pub max_retries: u32,
    /// Clean acknowledgements required to declare a degraded link
    /// recovered.
    pub recovery_threshold: u32,
}

impl Default for ArqConfig {
    fn default() -> Self {
        Self {
            window: 8,
            timeout_ticks: 24,
            backoff_cap: 3,
            max_retries: 8,
            recovery_threshold: 4,
        }
    }
}

impl ArqConfig {
    /// Upper bound on the delay between offering a frame and the receiver
    /// acknowledging it, assuming the link heals within `max_retries`
    /// rounds: the sum of every backoff interval.
    pub fn worst_case_delay(&self) -> u64 {
        (0..=self.max_retries)
            .map(|r| self.timeout_ticks << r.min(self.backoff_cap))
            .sum()
    }
}

/// What the receiver side decided about an incoming data frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataDisposition {
    /// In order: deliver to the port layer.
    Deliver,
    /// Already delivered (retransmission overlap): suppress.
    Duplicate,
    /// Ahead of the expected sequence: discard, the sender will
    /// retransmit in order (go-back-N).
    OutOfOrder,
}

/// Transport-level events for the trace / health monitoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ArqEvent {
    /// A timeout round retransmitted the window head (and everything
    /// behind it).
    Retransmitted {
        /// Sequence of the head frame.
        seq: u64,
        /// Its retry count after this round.
        retries: u32,
    },
    /// The head frame has been retransmitted `max_retries` times without
    /// an acknowledgement — the link is effectively down.
    Exhausted {
        /// Sequence of the starved frame.
        seq: u64,
    },
    /// A degraded endpoint saw a clean acknowledgement streak and is
    /// healthy again.
    Recovered,
}

/// One batch of wire frames produced by [`ArqEndpoint::poll_transmit`].
#[derive(Debug, Default)]
pub struct TransmitBatch {
    /// Encoded frames to put on the link, in sequence order.
    pub frames: Vec<Vec<u8>>,
    /// Whether this poll was a retransmission timeout round (one unit of
    /// loss evidence for the redundancy manager).
    pub timeout_round: bool,
}

#[derive(Debug, Clone)]
struct InFlight {
    seq: u64,
    bytes: Vec<u8>,
    last_sent: u64,
    retries: u32,
    exhausted_reported: bool,
}

/// One side of the reliable link: sequences and retransmits its own
/// outbound frames, and filters inbound frames to an exactly-once
/// in-order stream.
///
/// # Examples
///
/// ```
/// use air_model::Ticks;
/// use air_ports::transport::{ArqConfig, ArqEndpoint, DataDisposition};
/// use air_ports::wire::Frame;
///
/// let mut tx = ArqEndpoint::new(ArqConfig::default());
/// let mut rx = ArqEndpoint::new(ArqConfig::default());
/// tx.offer(Frame::new(7, Ticks(0), &b"hello"[..]));
/// let batch = tx.poll_transmit(0);
/// let frame = Frame::decode(&batch.frames[0]).unwrap();
/// assert_eq!(rx.on_data(&frame), DataDisposition::Deliver);
/// let ack = rx.take_ack(Ticks(1)).unwrap();
/// assert_eq!(tx.on_ack(ack.link_seq), 1);
/// assert_eq!(tx.in_flight(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ArqEndpoint {
    config: ArqConfig,
    // Sender side.
    next_seq: u64,
    backlog: VecDeque<InFlight>,
    unacked: VecDeque<InFlight>,
    // Receiver side.
    next_expected: u64,
    ack_pending: bool,
    // Degradation bookkeeping.
    degraded: bool,
    clean_streak: u32,
    events: Vec<ArqEvent>,
    // Counters.
    retransmissions: u64,
    duplicates: u64,
    out_of_order: u64,
    acks_sent: u64,
    delivered: u64,
}

impl ArqEndpoint {
    /// Creates an endpoint with the given tuning.
    pub fn new(config: ArqConfig) -> Self {
        Self {
            config,
            next_seq: 1,
            backlog: VecDeque::new(),
            unacked: VecDeque::new(),
            next_expected: 1,
            ack_pending: false,
            degraded: false,
            clean_streak: 0,
            events: Vec::new(),
            retransmissions: 0,
            duplicates: 0,
            out_of_order: 0,
            acks_sent: 0,
            delivered: 0,
        }
    }

    /// The endpoint's tuning.
    pub fn config(&self) -> &ArqConfig {
        &self.config
    }

    /// Accepts an outbound frame, stamping it with the next sequence
    /// number. Frames beyond the window wait in an unbounded backlog —
    /// backpressure never drops (the delivery guarantee), it delays.
    /// Returns the assigned sequence.
    pub fn offer(&mut self, frame: Frame) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = frame.with_link_seq(seq).encode();
        self.backlog.push_back(InFlight {
            seq,
            bytes,
            last_sent: 0,
            retries: 0,
            exhausted_reported: false,
        });
        seq
    }

    /// Produces the frames to transmit at `now`: newly admitted window
    /// slots, plus — when the head-of-window timer expired — one
    /// go-back-N retransmission round of the whole in-flight window.
    pub fn poll_transmit(&mut self, now: u64) -> TransmitBatch {
        let mut batch = TransmitBatch::default();

        // Timeout round first, so retransmissions precede newly admitted
        // frames in sequence order on the wire.
        if let Some(head) = self.unacked.front() {
            if now.saturating_sub(head.last_sent) >= self.backoff(head.retries) {
                batch.timeout_round = true;
                let head_seq = head.seq;
                let mut head_retries = 0;
                for inflight in &mut self.unacked {
                    inflight.retries += 1;
                    inflight.last_sent = now;
                    batch.frames.push(inflight.bytes.clone());
                    self.retransmissions += 1;
                    if inflight.seq == head_seq {
                        head_retries = inflight.retries;
                    }
                }
                self.events.push(ArqEvent::Retransmitted {
                    seq: head_seq,
                    retries: head_retries,
                });
                if head_retries >= self.config.max_retries {
                    if let Some(head) = self.unacked.front_mut() {
                        if !head.exhausted_reported {
                            head.exhausted_reported = true;
                            self.events.push(ArqEvent::Exhausted { seq: head_seq });
                        }
                        // Hold at the capped interval; never give up.
                        head.retries = head.retries.min(self.config.max_retries);
                    }
                }
            }
        }

        // Admit backlog into the window and send first transmissions.
        while self.unacked.len() < self.config.window {
            let Some(mut inflight) = self.backlog.pop_front() else {
                break;
            };
            inflight.last_sent = now;
            batch.frames.push(inflight.bytes.clone());
            self.unacked.push_back(inflight);
        }

        batch
    }

    /// The head-of-window timeout after `retries` rounds.
    fn backoff(&self, retries: u32) -> u64 {
        self.config.timeout_ticks << retries.min(self.config.backoff_cap)
    }

    /// The earliest tick at or after `now` at which the endpoint can act
    /// on its own: `now` while an acknowledgement is pending or backlog
    /// can enter the window, otherwise the head frame's retransmission
    /// deadline (`last_sent + (timeout << min(retries, cap))`); `None`
    /// when only new input (an offer, an ACK, a data frame) can wake it.
    /// A conservative lower bound for next-event time advance: before
    /// it, [`ArqEndpoint::poll_transmit`] and [`ArqEndpoint::take_ack`]
    /// produce nothing and change nothing.
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        let admits = !self.backlog.is_empty() && self.unacked.len() < self.config.window;
        if self.ack_pending || admits {
            return Some(now);
        }
        let head = self.unacked.front()?;
        Some(
            head.last_sent
                .saturating_add(self.backoff(head.retries))
                .max(now),
        )
    }

    /// Processes a cumulative acknowledgement ("everything up to and
    /// including `up_to` arrived"). Returns how many in-flight frames it
    /// newly acknowledged; any positive count feeds the clean streak that
    /// recovers a degraded endpoint.
    pub fn on_ack(&mut self, up_to: u64) -> u32 {
        let mut newly = 0;
        while self.unacked.front().is_some_and(|f| f.seq <= up_to) {
            self.unacked.pop_front();
            newly += 1;
        }
        if newly > 0 {
            self.clean_streak = self.clean_streak.saturating_add(newly);
            if self.degraded && self.clean_streak >= self.config.recovery_threshold {
                self.degraded = false;
                self.clean_streak = 0;
                self.events.push(ArqEvent::Recovered);
            }
        }
        newly
    }

    /// Classifies an inbound sequenced data frame: deliver, suppress a
    /// duplicate, or discard an out-of-order arrival. Every case leaves a
    /// cumulative acknowledgement pending.
    pub fn on_data(&mut self, frame: &Frame) -> DataDisposition {
        self.ack_pending = true;
        if frame.link_seq == self.next_expected {
            self.next_expected += 1;
            self.delivered += 1;
            DataDisposition::Deliver
        } else if frame.link_seq < self.next_expected {
            self.duplicates += 1;
            DataDisposition::Duplicate
        } else {
            self.out_of_order += 1;
            DataDisposition::OutOfOrder
        }
    }

    /// Takes the pending cumulative acknowledgement frame, if any —
    /// coalesced, so one ACK answers a whole burst.
    pub fn take_ack(&mut self, now: Ticks) -> Option<Frame> {
        if !self.ack_pending {
            return None;
        }
        self.ack_pending = false;
        self.acks_sent += 1;
        Some(Frame::ack(self.next_expected - 1, now))
    }

    /// Marks the endpoint degraded (the redundancy manager failed over);
    /// the clean-acknowledgement streak restarts from zero.
    pub fn mark_degraded(&mut self) {
        self.degraded = true;
        self.clean_streak = 0;
    }

    /// Whether the endpoint currently considers its link degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Drains the transport events recorded since the last call.
    pub fn take_events(&mut self) -> Vec<ArqEvent> {
        std::mem::take(&mut self.events)
    }

    /// Tears the endpoint down at a reroute boundary: returns every
    /// outbound frame not yet cumulatively acknowledged — the in-flight
    /// window first, then the backlog, in sequence order — and resets
    /// all sender, receiver and degradation state to a fresh endpoint
    /// (the lifetime counters survive). The caller re-queues the
    /// returned frames along a surviving path; the *peer* endpoint must
    /// be reset symmetrically so link sequencing restarts consistently
    /// on both sides when the edge later recovers. Frames in the window
    /// may already have been delivered with their acknowledgement lost,
    /// so re-queued traffic needs end-to-end deduplication above.
    pub fn reset_undelivered(&mut self) -> Vec<Frame> {
        let mut out = Vec::with_capacity(self.unacked.len() + self.backlog.len());
        for inflight in self.unacked.drain(..).chain(self.backlog.drain(..)) {
            if let Ok(frame) = Frame::decode(&inflight.bytes) {
                out.push(frame);
            }
        }
        self.next_seq = 1;
        self.next_expected = 1;
        self.ack_pending = false;
        self.degraded = false;
        self.clean_streak = 0;
        self.events.clear();
        out
    }

    /// Frames in the unacknowledged window.
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Frames waiting behind the window.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Whether everything offered has been acknowledged.
    pub fn is_drained(&self) -> bool {
        self.unacked.is_empty() && self.backlog.is_empty()
    }

    /// Total retransmitted frames.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Inbound duplicates suppressed.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Inbound out-of-order frames discarded.
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order
    }

    /// Acknowledgement frames produced.
    pub fn acks_sent(&self) -> u64 {
        self.acks_sent
    }

    /// In-order frames delivered upward.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ArqConfig {
        ArqConfig {
            window: 2,
            timeout_ticks: 10,
            backoff_cap: 2,
            max_retries: 3,
            recovery_threshold: 2,
        }
    }

    fn data(n: u64) -> Frame {
        Frame::new(7, Ticks(n), vec![n as u8])
    }

    #[test]
    fn window_admits_and_backlogs() {
        let mut tx = ArqEndpoint::new(cfg());
        for i in 0..5 {
            tx.offer(data(i));
        }
        let batch = tx.poll_transmit(0);
        assert_eq!(batch.frames.len(), 2, "window of 2");
        assert!(!batch.timeout_round);
        assert_eq!(tx.in_flight(), 2);
        assert_eq!(tx.backlog_len(), 3);
        // Ack one → one more admitted.
        assert_eq!(tx.on_ack(1), 1);
        let batch = tx.poll_transmit(1);
        assert_eq!(batch.frames.len(), 1);
        assert_eq!(Frame::decode(&batch.frames[0]).unwrap().link_seq, 3);
    }

    #[test]
    fn timeout_retransmits_whole_window_with_backoff() {
        let mut tx = ArqEndpoint::new(cfg());
        tx.offer(data(0));
        tx.offer(data(1));
        assert_eq!(tx.poll_transmit(0).frames.len(), 2);
        assert!(tx.poll_transmit(5).frames.is_empty(), "timer not expired");
        let batch = tx.poll_transmit(10);
        assert!(batch.timeout_round);
        assert_eq!(batch.frames.len(), 2, "go-back-N resends the window");
        assert_eq!(tx.retransmissions(), 2);
        // Backoff doubled: next round at 10 + 20.
        assert!(tx.poll_transmit(29).frames.is_empty());
        assert!(tx.poll_transmit(30).timeout_round);
        assert_eq!(
            tx.take_events()[0],
            ArqEvent::Retransmitted { seq: 1, retries: 1 }
        );
    }

    #[test]
    fn backoff_caps_and_exhaustion_reports_once() {
        let mut tx = ArqEndpoint::new(cfg());
        tx.offer(data(0));
        let mut now = 0;
        tx.poll_transmit(now);
        let mut rounds = 0;
        // Drive far past max_retries; the endpoint never stops retrying.
        for _ in 0..2000 {
            now += 1;
            if tx.poll_transmit(now).timeout_round {
                rounds += 1;
            }
        }
        assert!(rounds > 4, "capped backoff keeps retrying: {rounds}");
        let events = tx.take_events();
        let exhausted: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, ArqEvent::Exhausted { .. }))
            .collect();
        assert_eq!(exhausted.len(), 1, "reported exactly once");
    }

    #[test]
    fn receiver_is_exactly_once_in_order() {
        let mut rx = ArqEndpoint::new(cfg());
        let f1 = data(0).with_link_seq(1);
        let f2 = data(1).with_link_seq(2);
        let f3 = data(2).with_link_seq(3);
        assert_eq!(rx.on_data(&f3), DataDisposition::OutOfOrder);
        assert_eq!(rx.on_data(&f1), DataDisposition::Deliver);
        assert_eq!(rx.on_data(&f1), DataDisposition::Duplicate);
        assert_eq!(rx.on_data(&f2), DataDisposition::Deliver);
        assert_eq!(rx.on_data(&f3), DataDisposition::Deliver);
        assert_eq!(rx.delivered(), 3);
        assert_eq!(rx.duplicates(), 1);
        assert_eq!(rx.out_of_order(), 1);
    }

    #[test]
    fn acks_coalesce_and_are_cumulative() {
        let mut rx = ArqEndpoint::new(cfg());
        assert!(rx.take_ack(Ticks(0)).is_none());
        rx.on_data(&data(0).with_link_seq(1));
        rx.on_data(&data(1).with_link_seq(2));
        let ack = rx.take_ack(Ticks(5)).unwrap();
        assert!(ack.is_ack());
        assert_eq!(ack.link_seq, 2, "cumulative over the burst");
        assert!(rx.take_ack(Ticks(6)).is_none(), "coalesced");
        assert_eq!(rx.acks_sent(), 1);
    }

    #[test]
    fn duplicate_still_reacknowledges() {
        // A lost ACK must not deadlock: the duplicate retransmission
        // provokes a fresh cumulative ACK.
        let mut rx = ArqEndpoint::new(cfg());
        rx.on_data(&data(0).with_link_seq(1));
        rx.take_ack(Ticks(1));
        rx.on_data(&data(0).with_link_seq(1));
        assert_eq!(rx.take_ack(Ticks(2)).unwrap().link_seq, 1);
    }

    #[test]
    fn degraded_recovers_after_clean_streak() {
        let mut tx = ArqEndpoint::new(cfg());
        for i in 0..4 {
            tx.offer(data(i));
        }
        tx.poll_transmit(0);
        tx.mark_degraded();
        assert!(tx.is_degraded());
        assert_eq!(tx.on_ack(1), 1);
        assert!(tx.is_degraded(), "streak of 1 < threshold 2");
        tx.poll_transmit(1);
        assert_eq!(tx.on_ack(2), 1);
        assert!(!tx.is_degraded());
        assert!(tx.take_events().contains(&ArqEvent::Recovered));
    }

    /// Asserts that `poll_transmit` and `take_ack` are no-ops on `arq` at
    /// every tick of `from..to`.
    fn assert_idle(arq: &ArqEndpoint, from: u64, to: u64) {
        for now in from..to {
            let mut probe = arq.clone();
            let batch = probe.poll_transmit(now);
            assert!(
                batch.frames.is_empty() && !batch.timeout_round,
                "tick {now}"
            );
            assert!(probe.take_ack(Ticks(now)).is_none(), "tick {now}");
            assert_eq!(format!("{probe:?}"), format!("{arq:?}"), "tick {now}");
        }
    }

    #[test]
    fn next_event_at_tracks_backlog_acks_and_backoff() {
        let mut tx = ArqEndpoint::new(cfg()); // window 2, timeout 10, cap 2
        assert_eq!(tx.next_event_at(0), None, "fresh endpoint sleeps");
        for i in 0..3 {
            tx.offer(data(i));
        }
        assert_eq!(tx.next_event_at(4), Some(4), "backlog can enter the window");
        assert_eq!(tx.poll_transmit(4).frames.len(), 2);
        // Window full, third frame backlogged: only the head timer wakes it.
        let bound = tx.next_event_at(5).expect("head in flight");
        assert_eq!(bound, 14);
        assert_idle(&tx, 5, bound);
        assert!(tx.poll_transmit(bound).timeout_round);
        // Backoff doubles: the next round is due 20 ticks out.
        assert_eq!(tx.next_event_at(bound + 1), Some(bound + 20));
        assert_idle(&tx, bound + 1, bound + 20);
        assert!(tx.poll_transmit(bound + 20).timeout_round);
        // An ACK frees a slot: the backlog is admitted at once.
        tx.on_ack(1);
        assert_eq!(tx.next_event_at(40), Some(40));
        assert_eq!(tx.poll_transmit(40).frames.len(), 1);

        let mut rx = ArqEndpoint::new(cfg());
        rx.on_data(&data(0).with_link_seq(1));
        assert_eq!(rx.next_event_at(7), Some(7), "pending ACK acts now");
        assert!(rx.take_ack(Ticks(7)).is_some());
        assert_eq!(rx.next_event_at(8), None);
        assert_idle(&rx, 8, 64);
    }

    #[test]
    fn worst_case_delay_sums_backoff_series() {
        let c = cfg();
        // rounds 0..=3 with cap 2: 10 + 20 + 40 + 40.
        assert_eq!(c.worst_case_delay(), 110);
    }

    #[test]
    fn offer_assigns_dense_sequences_from_one() {
        let mut tx = ArqEndpoint::new(cfg());
        assert_eq!(tx.offer(data(0)), 1);
        assert_eq!(tx.offer(data(1)), 2);
        assert!(!tx.is_drained());
        tx.poll_transmit(0);
        tx.on_ack(2);
        assert!(tx.is_drained());
    }

    #[test]
    fn reset_undelivered_returns_window_then_backlog_and_restarts() {
        let mut tx = ArqEndpoint::new(cfg()); // window 2
        for i in 0..4 {
            tx.offer(data(i));
        }
        tx.poll_transmit(0); // admits seqs 1-2 into the window
        tx.on_ack(1); // seq 1 acknowledged; 2 in flight, 3-4 backlogged
        let undelivered = tx.reset_undelivered();
        assert_eq!(undelivered.len(), 3);
        assert_eq!(
            undelivered.iter().map(|f| f.payload.as_slice()[0]).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "window head first, then backlog, in sequence order"
        );
        assert!(tx.is_drained());
        // Sequencing restarts from one, so a symmetric peer reset keeps
        // both sides consistent.
        assert_eq!(tx.offer(data(9)), 1);
        assert!(tx.reset_undelivered().len() == 1);
        assert!(tx.take_events().is_empty());
    }
}
