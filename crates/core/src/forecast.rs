//! Forecast-model adapters: the physics-based SQG model (perfect or
//! imperfect) as a [`ForecastModel`].

use crate::model_error::ModelError;
use crate::traits::ForecastModel;
use sqg::{SqgModel, SqgParams};
use stats::Ensemble;

/// The SQG model as a forecast model, optionally corrupted by the
/// stochastic model-error process after each forecast interval
/// (the paper's imperfect-model scenario).
pub struct SqgForecast {
    model: SqgModel,
    error: Option<ModelError>,
}

impl SqgForecast {
    /// Perfect-model forecaster.
    pub fn perfect(params: SqgParams) -> Self {
        SqgForecast { model: SqgModel::new(params), error: None }
    }

    /// Imperfect-model forecaster: `error` fires once per `forecast` call.
    pub fn imperfect(params: SqgParams, error: ModelError) -> Self {
        SqgForecast { model: SqgModel::new(params), error: Some(error) }
    }

    /// Access to the wrapped model (diagnostics, spin-up).
    pub fn model_mut(&mut self) -> &mut SqgModel {
        &mut self.model
    }

    /// SQG parameters.
    pub fn params(&self) -> &SqgParams {
        self.model.params()
    }
}

impl ForecastModel for SqgForecast {
    fn state_dim(&self) -> usize {
        self.model.state_dim()
    }

    fn forecast(&mut self, state: &mut [f64], hours: f64) {
        let steps = self.model.steps_per_hours(hours);
        self.model.forecast(state, steps);
        if let Some(err) = &mut self.error {
            err.perturb(state);
        }
    }

    /// Members in parallel ([`SqgModel::forecast_batch`]), then the model
    /// error serially in member order, so its RNG stream — and every bit of
    /// the result — is the member loop's.
    fn forecast_ensemble(&mut self, ensemble: &mut Ensemble, hours: f64) {
        let steps = self.model.steps_per_hours(hours);
        self.model.forecast_batch(ensemble.as_mut_slice(), steps);
        if let Some(err) = &mut self.error {
            for member in ensemble.iter_mut() {
                err.perturb(member);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_error::ModelErrorConfig;

    fn params() -> SqgParams {
        SqgParams { n: 16, ..Default::default() }
    }

    #[test]
    fn perfect_forecast_is_deterministic() {
        let mut a = SqgForecast::perfect(params());
        let mut b = SqgForecast::perfect(params());
        let ic = a.model_mut().spinup_nature(3, 0.05, 5).to_state_vector();
        let mut s1 = ic.clone();
        let mut s2 = ic;
        a.forecast(&mut s1, 12.0);
        b.forecast(&mut s2, 12.0);
        assert_eq!(s1, s2);
    }

    #[test]
    fn imperfect_forecast_differs_from_perfect() {
        let mut perfect = SqgForecast::perfect(params());
        let mut imperfect = SqgForecast::imperfect(
            params(),
            ModelError::new(
                // Always-on error so the test is deterministic in effect.
                ModelErrorConfig { probabilities: vec![1.0], amplitudes: vec![0.2] },
                1,
            ),
        );
        let ic = perfect.model_mut().spinup_nature(3, 0.05, 5).to_state_vector();
        let mut s1 = ic.clone();
        let mut s2 = ic;
        perfect.forecast(&mut s1, 12.0);
        imperfect.forecast(&mut s2, 12.0);
        let diff: f64 = s1.iter().zip(&s2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-8, "model error must perturb the forecast");
    }

    /// The trait's default: what `forecast_ensemble` must reproduce.
    fn member_loop(model: &mut SqgForecast, ensemble: &mut Ensemble, hours: f64) {
        for m in 0..ensemble.members() {
            model.forecast(ensemble.member_mut(m), hours);
        }
    }

    #[test]
    fn forecast_ensemble_is_bitwise_the_member_loop() {
        // Two components, one firing on some members only: the error stream
        // depends on the order the members are perturbed in.
        let error = ModelErrorConfig { probabilities: vec![1.0, 0.5], amplitudes: vec![0.2, 0.3] };
        let build = |imperfect: bool| match imperfect {
            false => SqgForecast::perfect(params()),
            true => SqgForecast::imperfect(params(), ModelError::new(error.clone(), 7)),
        };
        let base = build(false).model_mut().spinup_nature(3, 0.05, 5);
        for imperfect in [false, true] {
            // Uneven blocks, and fewer members than cores.
            for members in [1, 2, 3, 20] {
                let rows: Vec<Vec<f64>> = (0..members)
                    .map(|m| sqg::init::perturb(&base, 0.01, 50 + m as u64).to_state_vector())
                    .collect();
                let mut want = Ensemble::from_members(&rows);
                let mut got = want.clone();
                member_loop(&mut build(imperfect), &mut want, 1.5);
                build(imperfect).forecast_ensemble(&mut got, 1.5);
                let bits = |e: &Ensemble| e.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "imperfect {imperfect}, {members} members");
            }
        }
    }

    #[test]
    fn state_dim_matches_grid() {
        let f = SqgForecast::perfect(params());
        assert_eq!(f.state_dim(), 512);
    }
}
