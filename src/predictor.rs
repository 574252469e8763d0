//! The unified access-predictor seam of the facade.
//!
//! `access-model` ships several estimators with slightly different
//! inherent APIs (`predict(min_support)`, `predict(current)`,
//! `predict_row(i)`, `empirical_prob(i)`). The [`Predictor`] trait puts
//! them behind one interface — *observe the realised access, forecast
//! the next one* — so the [`Engine`](crate::engine::Engine) (and any
//! future learned model) can swap them freely, and the predictor table
//! of the string-keyed [registry](crate::registry) makes them
//! constructible from configuration, CLI flags or experiment sweeps.

use access_model::{DependencyGraph, FreqTracker, MarkovEstimator, NgramPredictor};

use crate::error::Error;

/// An online next-access model: learns from the realised request stream
/// and forecasts a dense probability vector over the item universe.
///
/// Forecasts need not be normalised — the engine clamps negatives and
/// rescales rows whose mass exceeds one before building a
/// [`Scenario`](skp_core::Scenario).
pub trait Predictor: Send {
    /// Registry-style name of the predictor family.
    fn name(&self) -> &str;

    /// Number of items in the universe the forecasts cover.
    fn n_items(&self) -> usize;

    /// Learn from one realised access.
    fn observe(&mut self, item: usize);

    /// Forecast `P[next = i]` for every item, given the current item.
    fn predict(&self, current: usize) -> Vec<f64>;
}

impl Predictor for NgramPredictor {
    fn name(&self) -> &str {
        "ngram"
    }

    fn n_items(&self) -> usize {
        NgramPredictor::n_items(self)
    }

    fn observe(&mut self, item: usize) {
        NgramPredictor::observe(self, item);
    }

    fn predict(&self, _current: usize) -> Vec<f64> {
        // The n-gram model tracks its own context window; `current` is
        // implicit in the observation stream. Support threshold 2
        // matches the trace-replay adapter in `montecarlo`.
        NgramPredictor::predict(self, 2)
    }
}

impl Predictor for DependencyGraph {
    fn name(&self) -> &str {
        "depgraph"
    }

    fn n_items(&self) -> usize {
        DependencyGraph::n_items(self)
    }

    fn observe(&mut self, item: usize) {
        DependencyGraph::observe(self, item);
    }

    fn predict(&self, current: usize) -> Vec<f64> {
        DependencyGraph::predict(self, current)
    }
}

impl Predictor for MarkovEstimator {
    fn name(&self) -> &str {
        "markov"
    }

    fn n_items(&self) -> usize {
        MarkovEstimator::n_items(self)
    }

    fn observe(&mut self, item: usize) {
        MarkovEstimator::observe(self, item);
    }

    fn predict(&self, current: usize) -> Vec<f64> {
        self.predict_row(current)
    }
}

impl Predictor for FreqTracker {
    fn name(&self) -> &str {
        "freq"
    }

    fn n_items(&self) -> usize {
        self.n()
    }

    fn observe(&mut self, item: usize) {
        self.record(item);
    }

    fn predict(&self, _current: usize) -> Vec<f64> {
        // IRM-style forecast: the empirical access frequencies,
        // independent of the current item.
        (0..self.n()).map(|i| self.empirical_prob(i)).collect()
    }
}

/// Highest n-gram order a spec may ask for: the model allocates one
/// table per order up front, so an unbounded order lets one short spec
/// exhaust memory.
const NGRAM_MAX_ORDER: usize = 64;

fn bad_param(what: &'static str, detail: String) -> Error {
    Error::InvalidParam { what, detail }
}

pub(crate) fn build_ngram(n: usize, param: Option<f64>) -> Result<Box<dyn Predictor>, Error> {
    let order = param.unwrap_or(2.0);
    if order < 1.0 || order.fract() != 0.0 {
        return Err(bad_param(
            "ngram order",
            format!("expected a positive integer, got {order}"),
        ));
    }
    if order > NGRAM_MAX_ORDER as f64 {
        return Err(bad_param(
            "ngram order",
            format!("must be at most {NGRAM_MAX_ORDER}, got {order}"),
        ));
    }
    Ok(Box::new(NgramPredictor::new(n, order as usize)))
}

pub(crate) fn build_depgraph(n: usize, param: Option<f64>) -> Result<Box<dyn Predictor>, Error> {
    let window = param.unwrap_or(2.0);
    if window < 1.0 || window.fract() != 0.0 {
        return Err(bad_param(
            "depgraph window",
            format!("expected a positive integer, got {window}"),
        ));
    }
    Ok(Box::new(DependencyGraph::new(n, window as usize)))
}

pub(crate) fn build_markov(n: usize, param: Option<f64>) -> Result<Box<dyn Predictor>, Error> {
    let alpha = param.unwrap_or(0.5);
    if !alpha.is_finite() || alpha <= 0.0 {
        return Err(bad_param(
            "markov smoothing",
            format!("expected a positive smoothing constant, got {alpha}"),
        ));
    }
    Ok(Box::new(MarkovEstimator::new(n, alpha)))
}

pub(crate) fn build_freq(n: usize, param: Option<f64>) -> Result<Box<dyn Predictor>, Error> {
    if param.is_some() {
        return Err(bad_param("freq predictor", "takes no parameter".into()));
    }
    Ok(Box::new(FreqTracker::new(n)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{build_predictor, predictor_specs};

    #[test]
    fn every_registered_predictor_builds() {
        for spec in predictor_specs() {
            let p = build_predictor(spec.name, 8).expect("default build");
            assert_eq!(p.name(), spec.name);
            assert_eq!(p.n_items(), 8);
        }
    }

    #[test]
    fn parameters_apply() {
        let mut p = build_predictor("ngram:1", 3).unwrap();
        // Order-1 model on a deterministic cycle predicts it quickly.
        for i in 0..30 {
            p.observe(i % 3);
        }
        let probs = p.predict(2); // current item 2 -> next is 0
        let best = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(best, 0);
    }

    #[test]
    fn unknown_name_lists_known() {
        let e = build_predictor("nope", 4).err().expect("must fail");
        assert!(matches!(e, Error::UnknownPredictor { .. }));
        assert!(e.to_string().contains("ngram"));
    }

    #[test]
    fn bad_params_rejected() {
        assert!(build_predictor("ngram:0", 4).is_err());
        assert!(build_predictor("ngram:1.5", 4).is_err());
        assert!(build_predictor("markov:-1", 4).is_err());
        assert!(build_predictor("freq:2", 4).is_err());
        assert!(build_predictor("depgraph:zero", 4).is_err());
    }

    #[test]
    fn freq_predicts_empirical_distribution() {
        let mut p = build_predictor("freq", 3).unwrap();
        for _ in 0..3 {
            p.observe(0);
        }
        p.observe(1);
        let probs = p.predict(0);
        assert!((probs[0] - 0.75).abs() < 1e-12);
        assert!((probs[1] - 0.25).abs() < 1e-12);
        assert_eq!(probs[2], 0.0);
    }
}
