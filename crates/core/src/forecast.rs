//! Forecast-model adapters: the physics-based SQG model as a
//! [`ForecastModel`]. Model error perturbs the truth
//! (`osse::nature_run_with_error`), never the forecast.

use crate::traits::ForecastModel;
use sqg::{SqgModel, SqgParams};
use stats::Ensemble;

/// The SQG model as a forecast model.
pub struct SqgForecast {
    model: SqgModel,
}

impl SqgForecast {
    /// Perfect-model forecaster.
    pub fn perfect(params: SqgParams) -> Self {
        SqgForecast { model: SqgModel::new(params) }
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
    }

    /// Members in parallel ([`SqgModel::forecast_batch`]), every bit the
    /// member loop's.
    fn forecast_ensemble(&mut self, ensemble: &mut Ensemble, hours: f64) {
        let steps = self.model.steps_per_hours(hours);
        self.model.forecast_batch(ensemble.as_mut_slice(), steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SqgParams {
        SqgParams { n: 16, ..Default::default() }
    }

    #[test]
    fn perfect_forecast_is_deterministic() {
        let mut a = SqgForecast::perfect(params());
        let mut b = SqgForecast::perfect(params());
        let ic = SqgModel::new(params()).spinup_nature(3, 0.05, 5).to_state_vector();
        let mut s1 = ic.clone();
        let mut s2 = ic;
        a.forecast(&mut s1, 12.0);
        b.forecast(&mut s2, 12.0);
        assert_eq!(s1, s2);
    }

    /// The trait's default: what `forecast_ensemble` must reproduce.
    fn member_loop(model: &mut SqgForecast, ensemble: &mut Ensemble, hours: f64) {
        for m in 0..ensemble.members() {
            model.forecast(ensemble.member_mut(m), hours);
        }
    }

    #[test]
    fn forecast_ensemble_is_bitwise_the_member_loop() {
        let base = SqgModel::new(params()).spinup_nature(3, 0.05, 5);
        // Uneven blocks, and fewer members than cores.
        for members in [1, 2, 3, 20] {
            let rows: Vec<Vec<f64>> = (0..members)
                .map(|m| sqg::init::perturb(&base, 0.01, 50 + m as u64).to_state_vector())
                .collect();
            let mut want = Ensemble::from_members(&rows);
            let mut got = want.clone();
            member_loop(&mut SqgForecast::perfect(params()), &mut want, 1.5);
            SqgForecast::perfect(params()).forecast_ensemble(&mut got, 1.5);
            let bits = |e: &Ensemble| e.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{members} members");
        }
    }

    #[test]
    fn state_dim_matches_grid() {
        let f = SqgForecast::perfect(params());
        assert_eq!(f.state_dim(), 512);
    }
}
