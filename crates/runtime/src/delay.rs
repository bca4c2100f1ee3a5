//! The partial-synchrony delay models.
//!
//! Every message sent at time `t` must arrive by `max(GST, t) + Δ`
//! (Section 2). The adversary chooses the actual delays subject to that
//! bound; the [`DelayModel`] enumerates the adversary strategies used by the
//! experiments. The type lives here (rather than in the simulator) because
//! the adversary schedule's per-edge [`DelayRule`](crate::adversary::DelayRule)s
//! embed a model, and schedules are shared between the simulator and the
//! live cluster harness; the simulator re-exports it from its old path.

use lumiere_types::{Duration, Time};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Adversarial strategies for choosing message delays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DelayModel {
    /// Every message takes exactly `delta` (the "actual" network delay δ of
    /// the optimistic-responsiveness analysis), clamped to `[0, Δ]`.
    Fixed {
        /// The uniform actual delay δ.
        delta: Duration,
    },
    /// Every message is delayed by the maximum the model allows: exactly Δ
    /// after `max(GST, send)` — the worst-case adversary.
    AdversarialMax,
    /// Delays drawn uniformly from `[min, max]` (both ≤ Δ), modelling a
    /// well-behaved but jittery network.
    Uniform {
        /// Minimum delay.
        min: Duration,
        /// Maximum delay.
        max: Duration,
    },
}

impl DelayModel {
    /// Samples the delivery time of a message sent at `send` under bound
    /// `delta_cap` (Δ) with global stabilization time `gst`.
    ///
    /// Messages sent before GST are held until GST and then experience the
    /// sampled delay, which keeps every delivery within the
    /// `max(GST, send) + Δ` envelope. Every sample is clamped to `[0, Δ]`,
    /// so no message arrives before it was sent.
    pub fn delivery_time(
        &self,
        send: Time,
        gst: Time,
        delta_cap: Duration,
        rng: &mut StdRng,
    ) -> Time {
        let base = send.max(gst);
        let delay = match self {
            DelayModel::Fixed { delta } => (*delta).max(Duration::ZERO).min(delta_cap),
            DelayModel::AdversarialMax => delta_cap,
            DelayModel::Uniform { min, max } => {
                let lo = min.as_micros().max(0);
                let hi = max.as_micros().min(delta_cap.as_micros()).max(lo);
                Duration::from_micros(rng.gen_range(lo..=hi))
            }
        };
        base + delay
    }

    /// The finest delay scale this model produces (the actual delay δ for
    /// fixed models, the lower bound for uniform jitter, Δ for the
    /// worst-case adversary). The metrics sampling grid stays well below
    /// this so quantized send instants cannot blur the windows between
    /// consecutive protocol steps.
    pub fn finest_delay(&self, delta_cap: Duration) -> Duration {
        match self {
            DelayModel::Fixed { delta } => (*delta).min(delta_cap),
            DelayModel::AdversarialMax => delta_cap,
            DelayModel::Uniform { min, max } => (*min).min(*max).min(delta_cap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn fixed_delay_is_applied_after_gst() {
        let m = DelayModel::Fixed {
            delta: Duration::from_millis(2),
        };
        let t = m.delivery_time(
            Time::from_millis(100),
            Time::ZERO,
            Duration::from_millis(10),
            &mut rng(),
        );
        assert_eq!(t, Time::from_millis(102));
    }

    #[test]
    fn messages_sent_before_gst_are_held_until_gst() {
        let m = DelayModel::Fixed {
            delta: Duration::from_millis(2),
        };
        let t = m.delivery_time(
            Time::from_millis(5),
            Time::from_millis(50),
            Duration::from_millis(10),
            &mut rng(),
        );
        assert_eq!(t, Time::from_millis(52));
    }

    #[test]
    fn adversarial_delay_is_exactly_delta_cap() {
        let m = DelayModel::AdversarialMax;
        let t = m.delivery_time(
            Time::from_millis(7),
            Time::ZERO,
            Duration::from_millis(10),
            &mut rng(),
        );
        assert_eq!(t, Time::from_millis(17));
    }

    #[test]
    fn fixed_delay_is_clamped_to_delta_cap() {
        let m = DelayModel::Fixed {
            delta: Duration::from_millis(50),
        };
        let t = m.delivery_time(
            Time::from_millis(0),
            Time::ZERO,
            Duration::from_millis(10),
            &mut rng(),
        );
        assert_eq!(t, Time::from_millis(10));
    }

    #[test]
    fn negative_fixed_delay_is_floored_at_zero() {
        let m = DelayModel::Fixed {
            delta: Duration::from_millis(-5),
        };
        let cap = Duration::from_millis(10);
        for (send, gst) in [(3, 0), (3, 20)] {
            let (send, gst) = (Time::from_millis(send), Time::from_millis(gst));
            let t = m.delivery_time(send, gst, cap, &mut rng());
            assert_eq!(t, send.max(gst), "no message arrives before it is sent");
        }
    }

    #[test]
    fn uniform_delay_respects_the_partial_synchrony_envelope() {
        let m = DelayModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(30),
        };
        let gst = Time::from_millis(20);
        let cap = Duration::from_millis(10);
        let mut r = rng();
        for send_ms in 0..50 {
            let send = Time::from_millis(send_ms);
            let t = m.delivery_time(send, gst, cap, &mut r);
            assert!(t <= send.max(gst) + cap, "delivery beyond the Δ envelope");
            assert!(t >= send.max(gst));
        }
    }
}
