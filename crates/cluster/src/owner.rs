//! Owner workload generators.
//!
//! A workstation owner alternates *thinking* (idle, from the parallel
//! task's perspective) and *using* the machine. The paper's model makes
//! the think time geometric (parameter `P`, discrete time) and the use
//! time a deterministic `O`; the extensions here swap in higher-variance
//! service demands (exponential, hyperexponential, long-job mixtures) —
//! exactly the future work the paper motivates with Sauer & Chandy's
//! observation that real process demands "experience a much larger
//! variance".

use crate::error::ClusterError;
use nds_stats::distributions::{
    ClosedForm, Deterministic, Distribution, Exponential, Geometric, Hyperexponential, Mixture,
};
use nds_stats::rng::Xoshiro256StarStar;
use std::sync::Arc;

/// An owner's stochastic behaviour: think times and service demands.
///
/// Cheap to clone: the distributions and the label are shared, so a
/// clone allocates nothing. Distributions with a [`ClosedForm`] recipe
/// are cached at construction so the scheduler's hot loop samples them
/// inline — bit-identical draws, no virtual call per owner event.
#[derive(Debug, Clone)]
pub struct OwnerWorkload {
    think: Arc<dyn Distribution>,
    service: Arc<dyn Distribution>,
    think_fast: Option<ClosedForm>,
    service_fast: Option<ClosedForm>,
    label: Arc<str>,
}

impl OwnerWorkload {
    /// Build from explicit distributions.
    pub fn new(
        think: Arc<dyn Distribution>,
        service: Arc<dyn Distribution>,
        label: impl Into<String>,
    ) -> Self {
        let think_fast = think.closed_form();
        let service_fast = service.closed_form();
        Self {
            think,
            service,
            think_fast,
            service_fast,
            label: Arc::from(label.into()),
        }
    }

    /// The paper's discrete-time owner: geometric think time with
    /// per-step request probability `p`, deterministic demand `o`.
    pub fn paper(p: f64, o: f64) -> Result<Self, ClusterError> {
        let think = Geometric::new(p)?;
        let service = Deterministic::new(o)?;
        Ok(Self::new(
            Arc::new(think),
            Arc::new(service),
            format!("paper(P={p}, O={o})"),
        ))
    }

    /// The paper's owner parameterized by `(O, U)` via eq. 8.
    pub fn paper_from_utilization(o: f64, utilization: f64) -> Result<Self, ClusterError> {
        if !(0.0..1.0).contains(&utilization) || utilization <= 0.0 {
            return Err(ClusterError::InvalidConfig {
                field: "utilization",
                reason: format!("{utilization} not in (0,1)"),
            });
        }
        let p = utilization / (o * (1.0 - utilization));
        if p >= 1.0 {
            return Err(ClusterError::InvalidConfig {
                field: "utilization",
                reason: format!("implied P = {p} >= 1 for O = {o}"),
            });
        }
        Self::paper(p, o)
    }

    /// Continuous-time owner calibrated to a target utilization:
    /// exponential think time with mean `o·(1-u)/u` and exponential
    /// service with mean `o`. Long-run owner utilization is `u`.
    pub fn continuous_exponential(o: f64, utilization: f64) -> Result<Self, ClusterError> {
        if !(0.0..1.0).contains(&utilization) || utilization <= 0.0 {
            return Err(ClusterError::InvalidConfig {
                field: "utilization",
                reason: format!("{utilization} not in (0,1)"),
            });
        }
        let think_mean = o * (1.0 - utilization) / utilization;
        Ok(Self::new(
            Arc::new(Exponential::with_mean(think_mean)?),
            Arc::new(Exponential::with_mean(o)?),
            format!("exp(O={o}, U={utilization})"),
        ))
    }

    /// High-variance owner demands: hyperexponential service with the
    /// given squared coefficient of variation (`cv2 >= 1`), think time
    /// exponential, calibrated to utilization `u`.
    pub fn high_variance(o: f64, utilization: f64, cv2: f64) -> Result<Self, ClusterError> {
        if !(0.0..1.0).contains(&utilization) || utilization <= 0.0 {
            return Err(ClusterError::InvalidConfig {
                field: "utilization",
                reason: format!("{utilization} not in (0,1)"),
            });
        }
        let think_mean = o * (1.0 - utilization) / utilization;
        Ok(Self::new(
            Arc::new(Exponential::with_mean(think_mean)?),
            Arc::new(Hyperexponential::fit(o, cv2)?),
            format!("h2(O={o}, U={utilization}, cv2={cv2})"),
        ))
    }

    /// The "long-running owner jobs" extension (paper §5): a fraction
    /// `long_prob` of owner demands are `long_demand` long, the rest are
    /// short exponential bursts of mean `short_demand`. Think time is
    /// exponential, calibrated so the long-run utilization is `u`.
    pub fn with_long_jobs(
        short_demand: f64,
        long_demand: f64,
        long_prob: f64,
        utilization: f64,
    ) -> Result<Self, ClusterError> {
        if !(0.0..1.0).contains(&long_prob) {
            return Err(ClusterError::InvalidConfig {
                field: "long_prob",
                reason: format!("{long_prob} not in [0,1)"),
            });
        }
        if !(0.0..1.0).contains(&utilization) || utilization <= 0.0 {
            return Err(ClusterError::InvalidConfig {
                field: "utilization",
                reason: format!("{utilization} not in (0,1)"),
            });
        }
        let service = Mixture::new(vec![
            (
                1.0 - long_prob,
                Box::new(Exponential::with_mean(short_demand)?) as Box<dyn Distribution>,
            ),
            (long_prob, Box::new(Deterministic::new(long_demand)?)),
        ])?;
        let mean_service = service.mean();
        let think_mean = mean_service * (1.0 - utilization) / utilization;
        Ok(Self::new(
            Arc::new(Exponential::with_mean(think_mean)?),
            Arc::new(service),
            format!(
                "long-jobs(short={short_demand}, long={long_demand}, p={long_prob}, U={utilization})"
            ),
        ))
    }

    /// Sample a think time.
    #[inline]
    pub fn sample_think(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        match self.think_fast {
            Some(fast) => fast.sample(rng),
            None => self.think.sample(rng),
        }
    }

    /// Sample a service demand (strictly positive; zero-demand samples
    /// are clamped to a tiny epsilon so facilities accept them).
    #[inline]
    pub fn sample_service(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        let sample = match self.service_fast {
            Some(fast) => fast.sample(rng),
            None => self.service.sample(rng),
        };
        sample.max(1e-9)
    }

    /// Mean think time.
    pub fn mean_think(&self) -> f64 {
        self.think.mean()
    }

    /// Mean service demand (the model's `O`).
    pub fn mean_service(&self) -> f64 {
        self.service.mean()
    }

    /// Long-run owner utilization implied by the means:
    /// `E[service] / (E[service] + E[think])`.
    pub fn utilization(&self) -> f64 {
        let s = self.mean_service();
        s / (s + self.mean_think())
    }

    /// Squared coefficient of variation of the service demand.
    pub fn service_cv2(&self) -> f64 {
        self.service.cv2()
    }

    /// Diagnostic label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_owner_matches_eq8() {
        let w = OwnerWorkload::paper(1.0 / 90.0, 10.0).unwrap();
        // U = O/(O + 1/P) = 10/(10+90) = 0.1
        assert!((w.utilization() - 0.1).abs() < 1e-12);
        assert_eq!(w.mean_service(), 10.0);
        assert_eq!(w.service_cv2(), 0.0);
    }

    #[test]
    fn paper_from_utilization_round_trip() {
        for u in [0.01, 0.03, 0.05, 0.10, 0.20] {
            let w = OwnerWorkload::paper_from_utilization(10.0, u).unwrap();
            assert!((w.utilization() - u).abs() < 1e-12, "u={u}");
        }
    }

    #[test]
    fn continuous_owner_hits_utilization() {
        let w = OwnerWorkload::continuous_exponential(10.0, 0.03).unwrap();
        assert!((w.utilization() - 0.03).abs() < 1e-12);
        assert!((w.mean_service() - 10.0).abs() < 1e-12);
        assert!((w.service_cv2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn high_variance_owner() {
        let w = OwnerWorkload::high_variance(10.0, 0.1, 9.0).unwrap();
        assert!((w.utilization() - 0.1).abs() < 1e-9);
        assert!((w.service_cv2() - 9.0).abs() < 1e-6);
    }

    #[test]
    fn long_jobs_utilization_calibrated() {
        let w = OwnerWorkload::with_long_jobs(5.0, 600.0, 0.01, 0.05).unwrap();
        assert!((w.utilization() - 0.05).abs() < 1e-9);
        // Mean service = 0.99*5 + 0.01*600 = 10.95
        assert!((w.mean_service() - 10.95).abs() < 1e-9);
        assert!(w.service_cv2() > 1.0, "long jobs must add variance");
    }

    #[test]
    fn samples_positive() {
        let w = OwnerWorkload::continuous_exponential(10.0, 0.1).unwrap();
        let mut rng = Xoshiro256StarStar::new(1);
        for _ in 0..1000 {
            assert!(w.sample_think(&mut rng) > 0.0);
            assert!(w.sample_service(&mut rng) > 0.0);
        }
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(OwnerWorkload::paper_from_utilization(10.0, 0.0).is_err());
        assert!(OwnerWorkload::paper_from_utilization(10.0, 1.0).is_err());
        assert!(OwnerWorkload::paper_from_utilization(1.0, 0.9).is_err());
        assert!(OwnerWorkload::continuous_exponential(10.0, -0.1).is_err());
        assert!(OwnerWorkload::high_variance(10.0, 0.1, 0.5).is_err());
        assert!(OwnerWorkload::with_long_jobs(5.0, 600.0, 1.5, 0.05).is_err());
    }

    #[test]
    fn empirical_utilization_of_paper_owner() {
        // Simulate the owner's own busy/idle cycle and check the busy
        // fraction approaches U.
        let w = OwnerWorkload::paper_from_utilization(10.0, 0.10).unwrap();
        let mut rng = Xoshiro256StarStar::new(7);
        let mut busy = 0.0;
        let mut total = 0.0;
        for _ in 0..20_000 {
            let think = w.sample_think(&mut rng);
            let service = w.sample_service(&mut rng);
            busy += service;
            total += think + service;
        }
        let u = busy / total;
        assert!((u - 0.10).abs() < 0.01, "empirical utilization {u}");
    }
}
