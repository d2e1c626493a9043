//! Device-radio loss for home floor plans.
//!
//! Radio interference and obstructions make different processes hear
//! different subsets of a sensor's emissions (paper §2.1, Fig. 1).
//! [`FloorPlan`] turns ambient interference and per-pair obstructions
//! into a loss rate per device → host link; the harness writes those
//! rates into the simulator's `Topology`, the one place link loss is
//! applied. Which hosts a device reaches at all is not modelled here:
//! it is the `reachers` list the deployment hands each device.

use std::collections::HashMap;

/// A point on the home's 2-D floor plan, in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// East–west coordinate.
    pub x: f64,
    /// North–south coordinate.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`.
    #[must_use]
    pub fn distance_to(&self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Handle used by [`FloorPlan`] to refer to a placed entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlacementId(pub u32);

/// The radio environment of a home: per-pair obstructions (walls,
/// appliances) and ambient interference, composed into one loss rate
/// per (device, host) pair — what the paper's deployment study
/// measured (§2.1, Fig. 1).
#[derive(Debug, Default)]
pub struct FloorPlan {
    /// Entities placed so far; the next [`PlacementId`].
    placed: u32,
    /// Extra signal attenuation between pairs, expressed as an added
    /// loss probability in `[0, 1]` (e.g. 0.3 for a concrete wall).
    obstructions: HashMap<(PlacementId, PlacementId), f64>,
    /// Home-wide base loss from ambient RF interference.
    ambient_loss: f64,
}

impl FloorPlan {
    /// Creates an empty plan with no ambient interference.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the home-wide ambient loss probability (microwave ovens,
    /// cordless phones, … — paper §2.1).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a probability.
    pub fn set_ambient_loss(&mut self, loss: f64) {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        self.ambient_loss = loss;
    }

    /// Places an entity, returning its handle.
    pub fn place(&mut self) -> PlacementId {
        let id = PlacementId(self.placed);
        self.placed += 1;
        id
    }

    /// Records an obstruction between `a` and `b` adding `loss`
    /// probability of frame loss (symmetric).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a probability.
    pub fn add_obstruction(&mut self, a: PlacementId, b: PlacementId, loss: f64) {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        let key = if a <= b { (a, b) } else { (b, a) };
        self.obstructions.insert(key, loss);
    }

    /// Effective loss probability on the `device → host` link:
    /// `1 - (1-ambient) * (1-obstruction)`.
    #[must_use]
    pub fn link_loss(&self, device: PlacementId, host: PlacementId) -> f64 {
        let key = if device <= host {
            (device, host)
        } else {
            (host, device)
        };
        let obstruction = self.obstructions.get(&key).copied().unwrap_or(0.0);
        1.0 - (1.0 - self.ambient_loss) * (1.0 - obstruction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let origin = Position::new(0.0, 0.0);
        assert_eq!(origin.distance_to(Position::new(3.0, 4.0)), 5.0);
        assert_eq!(Position::new(30.0, 40.0).distance_to(origin), 50.0);
    }

    #[test]
    fn loss_composes_ambient_and_obstruction() {
        let mut plan = FloorPlan::new();
        let s = plan.place();
        let h = plan.place();
        assert_ne!(s, h);
        assert_eq!(plan.link_loss(s, h), 0.0);
        plan.set_ambient_loss(0.1);
        assert!((plan.link_loss(s, h) - 0.1).abs() < 1e-12);
        plan.add_obstruction(s, h, 0.5);
        // 1 - 0.9*0.5 = 0.55
        assert!((plan.link_loss(s, h) - 0.55).abs() < 1e-12);
        // Symmetric lookup.
        assert_eq!(plan.link_loss(h, s), plan.link_loss(s, h));
    }

    #[test]
    #[should_panic(expected = "loss must be a probability")]
    fn bad_ambient_loss_panics() {
        FloorPlan::new().set_ambient_loss(2.0);
    }
}
