//! Inter-node communication link: the transport for interpartition
//! communication between *physically separated* partitions.
//!
//! "For physically separated partitions, this implies data transmission
//! through a communication infrastructure" (Sect. 2.1). The link is a
//! deterministic point-to-point channel with a configurable propagation
//! latency (in clock ticks) and an optional periodic frame-loss pattern
//! for fault-injection experiments — deterministic on purpose, so the B5
//! experiment series is exactly reproducible.

use std::collections::VecDeque;

/// One end of the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkEndpoint {
    /// The local onboard computer node.
    A,
    /// The remote node.
    B,
}

impl LinkEndpoint {
    /// The opposite endpoint.
    pub fn peer(self) -> LinkEndpoint {
        match self {
            LinkEndpoint::A => LinkEndpoint::B,
            LinkEndpoint::B => LinkEndpoint::A,
        }
    }
}

/// A frame in flight: payload plus its delivery deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Frame {
    deliver_at: u64,
    payload: Vec<u8>,
}

/// A full-duplex point-to-point link with per-direction FIFO ordering.
///
/// # Examples
///
/// ```
/// use air_hw::link::{InterNodeLink, LinkEndpoint};
///
/// let mut link = InterNodeLink::new(3); // 3-tick propagation delay
/// link.send(LinkEndpoint::A, 0, b"ping".to_vec());
/// assert_eq!(link.receive(LinkEndpoint::B, 2), None); // still in flight
/// assert_eq!(link.receive(LinkEndpoint::B, 3), Some(b"ping".to_vec()));
/// ```
#[derive(Debug, Clone)]
pub struct InterNodeLink {
    latency_ticks: u64,
    a_to_b: VecDeque<Frame>,
    b_to_a: VecDeque<Frame>,
    /// Drop every `n`-th frame when `Some(n)`; deterministic loss injection.
    drop_every: Option<u64>,
    /// Frames sent strictly before this tick are lost (sustained outage).
    outage_until: u64,
    sent: u64,
    dropped: u64,
    delivered: u64,
    tampered: u64,
}

impl InterNodeLink {
    /// Creates a link with the given propagation latency in ticks.
    pub fn new(latency_ticks: u64) -> Self {
        Self {
            latency_ticks,
            a_to_b: VecDeque::new(),
            b_to_a: VecDeque::new(),
            drop_every: None,
            outage_until: 0,
            sent: 0,
            dropped: 0,
            delivered: 0,
            tampered: 0,
        }
    }

    /// Configures deterministic loss: every `n`-th sent frame (1-based) is
    /// silently dropped. `n = 0` disables loss again.
    pub fn set_drop_every(&mut self, n: u64) {
        self.drop_every = if n == 0 { None } else { Some(n) };
    }

    /// The configured propagation latency in ticks.
    pub fn latency_ticks(&self) -> u64 {
        self.latency_ticks
    }

    /// Starts a sustained outage: every frame sent at a tick strictly
    /// before `until` is lost (in both directions). Fault injection for
    /// the `LinkOutage` class; frames already in flight are unaffected.
    pub fn begin_outage(&mut self, until: u64) {
        self.outage_until = self.outage_until.max(until);
    }

    /// Whether the link is inside a sustained outage at `now`.
    pub fn in_outage(&self, now: u64) -> bool {
        now < self.outage_until
    }

    /// Ends any sustained outage immediately: frames sent from the next
    /// tick on flow again. Fault injection for healed-partition
    /// scenarios — the inverse of [`InterNodeLink::begin_outage`].
    pub fn end_outage(&mut self) {
        self.outage_until = 0;
    }

    /// Sends `payload` from `from` at time `now`; it becomes receivable at
    /// the peer at `now + latency` (unless it falls on the loss pattern).
    pub fn send(&mut self, from: LinkEndpoint, now: u64, payload: Vec<u8>) {
        self.sent += 1;
        if self.in_outage(now) {
            self.dropped += 1;
            return;
        }
        if let Some(n) = self.drop_every {
            if self.sent.is_multiple_of(n) {
                self.dropped += 1;
                return;
            }
        }
        let frame = Frame {
            deliver_at: now + self.latency_ticks,
            payload,
        };
        match from {
            LinkEndpoint::A => self.a_to_b.push_back(frame),
            LinkEndpoint::B => self.b_to_a.push_back(frame),
        }
    }

    /// Receives the oldest frame addressed to `at` whose delivery time has
    /// arrived (`deliver_at <= now`), or `None`.
    pub fn receive(&mut self, at: LinkEndpoint, now: u64) -> Option<Vec<u8>> {
        let queue = match at {
            LinkEndpoint::A => &mut self.b_to_a,
            LinkEndpoint::B => &mut self.a_to_b,
        };
        if queue.front().is_some_and(|f| f.deliver_at <= now) {
            self.delivered += 1;
            return queue.pop_front().map(|f| f.payload);
        }
        None
    }

    /// Whether a frame is deliverable to `at` at time `now` without
    /// consuming it — wired to the [`crate::interrupt::InterruptLine::Link`]
    /// interrupt by the machine.
    pub fn has_deliverable(&self, at: LinkEndpoint, now: u64) -> bool {
        let queue = match at {
            LinkEndpoint::A => &self.b_to_a,
            LinkEndpoint::B => &self.a_to_b,
        };
        queue.front().is_some_and(|f| f.deliver_at <= now)
    }

    /// The earliest tick at or after `now` at which [`InterNodeLink::receive`]
    /// can hand over a frame at either endpoint: the `deliver_at` of the
    /// front frame in each direction (`None`: nothing in flight). A
    /// conservative lower bound for next-event time advance — before it,
    /// `receive` returns `None` at both ends and changes nothing.
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        [self.a_to_b.front(), self.b_to_a.front()]
            .into_iter()
            .flatten()
            .map(|frame| frame.deliver_at.max(now))
            .min()
    }

    /// Whether any frame is in flight, in either direction — the frames
    /// an armed in-flight fault can strike.
    pub fn in_flight(&self) -> bool {
        !self.a_to_b.is_empty() || !self.b_to_a.is_empty()
    }

    /// Destroys the newest frame still in flight towards `to`, as if it
    /// was lost in transit. Returns whether a frame was there to lose.
    /// Fault injection: the sender's counters already include the frame,
    /// the receiver simply never sees it.
    pub fn drop_in_flight(&mut self, to: LinkEndpoint) -> bool {
        let queue = match to {
            LinkEndpoint::A => &mut self.b_to_a,
            LinkEndpoint::B => &mut self.a_to_b,
        };
        if queue.pop_back().is_some() {
            self.dropped += 1;
            return true;
        }
        false
    }

    /// Destroys the newest frame in flight towards `to` whose bytes match
    /// `pred`, scanning from the newest frame backwards. Lets fault
    /// injection target a frame *kind* (e.g. acknowledgements) without the
    /// hardware layer knowing any wire format. Returns whether a matching
    /// frame was there to lose.
    pub fn drop_in_flight_where(
        &mut self,
        to: LinkEndpoint,
        pred: impl Fn(&[u8]) -> bool,
    ) -> bool {
        let queue = match to {
            LinkEndpoint::A => &mut self.b_to_a,
            LinkEndpoint::B => &mut self.a_to_b,
        };
        let Some(idx) = queue.iter().rposition(|f| pred(&f.payload)) else {
            return false;
        };
        queue.remove(idx);
        self.dropped += 1;
        true
    }

    /// Flips bits (per `mask`) in one byte of the newest frame in flight
    /// towards `to`, modelling transmission corruption. `byte_index` wraps
    /// modulo the frame length; a zero mask is promoted to `0x01` so the
    /// call always changes the frame. Returns whether a frame was there to
    /// corrupt.
    pub fn tamper_in_flight(&mut self, to: LinkEndpoint, byte_index: usize, mask: u8) -> bool {
        let queue = match to {
            LinkEndpoint::A => &mut self.b_to_a,
            LinkEndpoint::B => &mut self.a_to_b,
        };
        let Some(frame) = queue.back_mut() else {
            return false;
        };
        if frame.payload.is_empty() {
            return false;
        }
        let idx = byte_index % frame.payload.len();
        frame.payload[idx] ^= if mask == 0 { 0x01 } else { mask };
        self.tampered += 1;
        true
    }

    /// Frames sent (including dropped ones).
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Frames dropped by the loss pattern.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Frames delivered to a receiver.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Frames corrupted in flight by fault injection.
    pub fn tampered(&self) -> u64 {
        self.tampered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_respected_per_direction() {
        let mut link = InterNodeLink::new(5);
        link.send(LinkEndpoint::A, 10, vec![1]);
        link.send(LinkEndpoint::B, 10, vec![2]);
        assert!(link.receive(LinkEndpoint::B, 14).is_none());
        assert_eq!(link.receive(LinkEndpoint::B, 15), Some(vec![1]));
        assert_eq!(link.receive(LinkEndpoint::A, 15), Some(vec![2]));
    }

    #[test]
    fn fifo_order_within_direction() {
        let mut link = InterNodeLink::new(0);
        link.send(LinkEndpoint::A, 0, vec![1]);
        link.send(LinkEndpoint::A, 0, vec![2]);
        assert_eq!(link.receive(LinkEndpoint::B, 0), Some(vec![1]));
        assert_eq!(link.receive(LinkEndpoint::B, 0), Some(vec![2]));
        assert_eq!(link.receive(LinkEndpoint::B, 0), None);
    }

    #[test]
    fn head_of_line_blocking_is_temporal() {
        // A later frame never overtakes an earlier one, even if the
        // receiver polls late.
        let mut link = InterNodeLink::new(10);
        link.send(LinkEndpoint::A, 0, vec![1]);
        link.send(LinkEndpoint::A, 5, vec![2]);
        assert_eq!(link.receive(LinkEndpoint::B, 100), Some(vec![1]));
        assert_eq!(link.receive(LinkEndpoint::B, 100), Some(vec![2]));
    }

    #[test]
    fn deterministic_loss_pattern() {
        let mut link = InterNodeLink::new(0);
        link.set_drop_every(3);
        for i in 0..6u8 {
            link.send(LinkEndpoint::A, 0, vec![i]);
        }
        let mut got = Vec::new();
        while let Some(p) = link.receive(LinkEndpoint::B, 0) {
            got.push(p[0]);
        }
        // Frames 3 and 6 (1-based) dropped.
        assert_eq!(got, vec![0, 1, 3, 4]);
        assert_eq!(link.dropped(), 2);
        assert_eq!(link.sent(), 6);
        assert_eq!(link.delivered(), 4);
    }

    #[test]
    fn has_deliverable_does_not_consume() {
        let mut link = InterNodeLink::new(1);
        link.send(LinkEndpoint::A, 0, vec![9]);
        assert!(!link.has_deliverable(LinkEndpoint::B, 0));
        assert!(link.has_deliverable(LinkEndpoint::B, 1));
        assert!(link.has_deliverable(LinkEndpoint::B, 1));
        assert_eq!(link.receive(LinkEndpoint::B, 1), Some(vec![9]));
        assert!(!link.has_deliverable(LinkEndpoint::B, 1));
    }

    #[test]
    fn drop_in_flight_loses_newest_frame() {
        let mut link = InterNodeLink::new(0);
        link.send(LinkEndpoint::B, 0, vec![1]);
        link.send(LinkEndpoint::B, 0, vec![2]);
        assert!(link.drop_in_flight(LinkEndpoint::A));
        assert_eq!(link.receive(LinkEndpoint::A, 0), Some(vec![1]));
        assert_eq!(link.receive(LinkEndpoint::A, 0), None);
        assert_eq!(link.dropped(), 1);
        assert!(!link.drop_in_flight(LinkEndpoint::A), "queue now empty");
    }

    #[test]
    fn tamper_in_flight_corrupts_newest_frame() {
        let mut link = InterNodeLink::new(0);
        link.send(LinkEndpoint::B, 0, vec![0xAA, 0xBB]);
        assert!(link.tamper_in_flight(LinkEndpoint::A, 1, 0xFF));
        assert_eq!(link.receive(LinkEndpoint::A, 0), Some(vec![0xAA, 0x44]));
        assert_eq!(link.tampered(), 1);
        assert!(!link.tamper_in_flight(LinkEndpoint::A, 0, 0xFF));
    }

    #[test]
    fn tamper_zero_mask_still_corrupts() {
        let mut link = InterNodeLink::new(0);
        link.send(LinkEndpoint::B, 0, vec![0x10]);
        assert!(link.tamper_in_flight(LinkEndpoint::A, 5, 0x00));
        assert_eq!(link.receive(LinkEndpoint::A, 0), Some(vec![0x11]));
    }

    #[test]
    fn outage_loses_sends_until_the_deadline() {
        let mut link = InterNodeLink::new(0);
        link.begin_outage(10);
        assert!(link.in_outage(9));
        link.send(LinkEndpoint::A, 5, vec![1]);
        assert_eq!(link.receive(LinkEndpoint::B, 100), None);
        assert_eq!(link.dropped(), 1);
        assert!(!link.in_outage(10));
        link.send(LinkEndpoint::A, 10, vec![2]);
        assert_eq!(link.receive(LinkEndpoint::B, 100), Some(vec![2]));
    }

    #[test]
    fn outage_extensions_never_shrink() {
        let mut link = InterNodeLink::new(0);
        link.begin_outage(20);
        link.begin_outage(5);
        assert!(link.in_outage(19));
    }

    #[test]
    fn drop_in_flight_where_targets_matching_frames_only() {
        let mut link = InterNodeLink::new(0);
        link.send(LinkEndpoint::B, 0, vec![1, 1]);
        link.send(LinkEndpoint::B, 0, vec![2, 2]);
        link.send(LinkEndpoint::B, 0, vec![1, 3]);
        // Newest matching frame goes first.
        assert!(link.drop_in_flight_where(LinkEndpoint::A, |b| b[0] == 1));
        assert!(link.drop_in_flight_where(LinkEndpoint::A, |b| b[0] == 1));
        assert!(!link.drop_in_flight_where(LinkEndpoint::A, |b| b[0] == 1));
        assert_eq!(link.receive(LinkEndpoint::A, 0), Some(vec![2, 2]));
        assert_eq!(link.dropped(), 2);
    }

    #[test]
    fn next_event_at_is_the_first_tick_receive_acts() {
        let mut link = InterNodeLink::new(3);
        assert_eq!(link.next_event_at(0), None);
        assert!(!link.in_flight());
        link.send(LinkEndpoint::A, 4, vec![1]);
        link.send(LinkEndpoint::B, 5, vec![2]);
        assert!(link.in_flight());
        let bound = link.next_event_at(4).expect("frames in flight");
        assert_eq!(bound, 7, "front of A→B lands first");
        for now in 4..bound {
            let mut probe = link.clone();
            assert_eq!(probe.receive(LinkEndpoint::A, now), None, "tick {now}");
            assert_eq!(probe.receive(LinkEndpoint::B, now), None, "tick {now}");
            assert_eq!(format!("{probe:?}"), format!("{link:?}"), "tick {now}");
        }
        assert_eq!(link.receive(LinkEndpoint::B, bound), Some(vec![1]));
        assert_eq!(link.next_event_at(bound), Some(8));
        // A bound never lies in the past.
        assert_eq!(link.next_event_at(20), Some(20));
    }

    #[test]
    fn peer_is_involutive() {
        assert_eq!(LinkEndpoint::A.peer(), LinkEndpoint::B);
        assert_eq!(LinkEndpoint::B.peer().peer(), LinkEndpoint::B);
    }
}
