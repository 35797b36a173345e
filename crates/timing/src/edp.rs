//! Energy/execution-time metrics and Pareto utilities for the evaluation.

/// An (energy, execution time) operating point — the axes of Figs 6.11–6.16.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyDelay {
    /// Total energy of the barrier interval (Eq 4.3 summed over threads).
    pub energy: f64,
    /// Barrier execution time (Eq 4.2).
    pub time: f64,
}

impl EnergyDelay {
    /// Creates a point.
    #[must_use]
    pub fn new(energy: f64, time: f64) -> EnergyDelay {
        EnergyDelay { energy, time }
    }

    /// The energy-delay product — the paper's summary metric (Fig 6.18).
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.energy * self.time
    }

    /// This point with both axes normalized to a baseline point.
    #[must_use]
    pub fn normalized_to(&self, base: EnergyDelay) -> EnergyDelay {
        EnergyDelay {
            energy: self.energy / base.energy,
            time: self.time / base.time,
        }
    }

    /// Whether this point dominates `other` (no worse on both axes,
    /// strictly better on at least one).
    #[must_use]
    pub fn dominates(&self, other: EnergyDelay) -> bool {
        (self.energy <= other.energy && self.time <= other.time)
            && (self.energy < other.energy || self.time < other.time)
    }
}

/// Indices of the Pareto-optimal points (minimizing both axes), sorted by
/// ascending time.
///
/// ```
/// use timing::{pareto_front, EnergyDelay};
/// let pts = vec![
///     EnergyDelay::new(1.0, 1.0),
///     EnergyDelay::new(0.8, 1.2),
///     EnergyDelay::new(1.1, 1.1), // dominated by the first point? no: slower and hungrier than (1.0, 1.0) -> dominated
/// ];
/// assert_eq!(pareto_front(&pts), vec![0, 1]);
/// ```
#[must_use]
pub fn pareto_front(points: &[EnergyDelay]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_by(|&a, &b| {
        points[a]
            .time
            .partial_cmp(&points[b].time)
            .expect("times are finite")
            .then(
                points[a]
                    .energy
                    .partial_cmp(&points[b].energy)
                    .expect("energies are finite"),
            )
    });
    let mut front = Vec::new();
    let mut best_energy = f64::INFINITY;
    for &i in &idx {
        if points[i].energy < best_energy {
            front.push(i);
            best_energy = points[i].energy;
        }
    }
    front.sort_by(|&a, &b| {
        points[a]
            .time
            .partial_cmp(&points[b].time)
            .expect("times are finite")
    });
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edp_is_product() {
        let p = EnergyDelay::new(2.0, 3.0);
        assert_eq!(p.edp(), 6.0);
    }

    #[test]
    fn normalization() {
        let p = EnergyDelay::new(2.0, 3.0).normalized_to(EnergyDelay::new(4.0, 6.0));
        assert_eq!(p.energy, 0.5);
        assert_eq!(p.time, 0.5);
    }

    #[test]
    fn dominance() {
        let a = EnergyDelay::new(1.0, 1.0);
        let b = EnergyDelay::new(2.0, 2.0);
        assert!(a.dominates(b));
        assert!(!b.dominates(a));
        assert!(!a.dominates(a), "a point never dominates itself");
        // Trade-off points don't dominate each other.
        let c = EnergyDelay::new(0.5, 2.0);
        assert!(!a.dominates(c));
        assert!(!c.dominates(a));
    }

    #[test]
    fn front_extracts_non_dominated() {
        let pts = vec![
            EnergyDelay::new(1.0, 1.0),
            EnergyDelay::new(0.5, 2.0),
            EnergyDelay::new(1.5, 1.5), // dominated
            EnergyDelay::new(0.4, 3.0),
            EnergyDelay::new(0.6, 2.5), // dominated by (0.5, 2.0)
        ];
        assert_eq!(pareto_front(&pts), vec![0, 1, 3]);
    }

    #[test]
    fn front_of_empty_and_singleton() {
        assert!(pareto_front(&[]).is_empty());
        assert_eq!(pareto_front(&[EnergyDelay::new(1.0, 1.0)]), vec![0]);
    }

    #[test]
    fn front_handles_ties() {
        let pts = vec![EnergyDelay::new(1.0, 1.0), EnergyDelay::new(1.0, 1.0)];
        // Exactly one of the duplicates survives.
        assert_eq!(pareto_front(&pts).len(), 1);
    }
}
