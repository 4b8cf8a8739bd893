//! Per-cycle data-assimilation diagnostics payload.
//!
//! [`DaDiagnostics`] is the serialized form of the statistical filter
//! health checks computed each assimilation cycle (innovation moments,
//! chi-squared consistency, rank histogram, spread–skill ratio). The
//! telemetry crate only defines the container and its JSON round trip —
//! the numerics live in `stats::diagnostics` and the wiring in
//! `da_core::diagnostics`, keeping this crate dependency-free.
//!
//! Non-finite values are written as `null` and read back as NaN (JSON has
//! no NaN).

use crate::json::Json;

/// Statistical filter-health diagnostics for one assimilation cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct DaDiagnostics {
    /// Mean of the O−F (observation minus forecast) innovation.
    pub of_mean: f64,
    /// Variance of the O−F innovation.
    pub of_var: f64,
    /// Mean of the O−A (observation minus analysis) residual.
    pub oa_mean: f64,
    /// Variance of the O−A residual.
    pub oa_var: f64,
    /// Chi-squared innovation consistency per degree of freedom
    /// (`≈ 1` for a calibrated filter).
    pub chi2: f64,
    /// Spread–skill ratio of the analysis ensemble (`0.0` when the skill
    /// denominator vanishes; `≪ 1` flags overconfidence).
    pub spread_skill: f64,
    /// Ensemble rank histogram of the observations against the forecast
    /// ensemble: `M + 1` bins for an `M`-member ensemble.
    pub rank_hist: Vec<u64>,
}

impl DaDiagnostics {
    /// Serializes to a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("of_mean", Json::Num(self.of_mean)),
            ("of_var", Json::Num(self.of_var)),
            ("oa_mean", Json::Num(self.oa_mean)),
            ("oa_var", Json::Num(self.oa_var)),
            ("chi2", Json::Num(self.chi2)),
            ("spread_skill", Json::Num(self.spread_skill)),
            (
                "rank_hist",
                Json::Arr(self.rank_hist.iter().map(|&c| Json::from(c)).collect()),
            ),
        ])
    }

    /// Deserializes from the object shape produced by [`to_json`]; a float
    /// field written as `null` reads back as NaN.
    pub fn from_json(v: &Json) -> Result<DaDiagnostics, String> {
        if !matches!(v, Json::Obj(_)) {
            return Err("diagnostics must be an object".into());
        }
        let f = |k: &str| {
            v.get(k)
                .and_then(Json::as_float)
                .ok_or_else(|| format!("missing diagnostics field {k}"))
        };
        let rank_hist = match v.get("rank_hist") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|e| {
                    e.as_i64()
                        .and_then(|c| u64::try_from(c).ok())
                        .ok_or("rank_hist entries must be non-negative integers")
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing rank_hist".into()),
        };
        Ok(DaDiagnostics {
            of_mean: f("of_mean")?,
            of_var: f("of_var")?,
            oa_mean: f("oa_mean")?,
            oa_var: f("oa_var")?,
            chi2: f("chi2")?,
            spread_skill: f("spread_skill")?,
            rank_hist,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DaDiagnostics {
        DaDiagnostics {
            of_mean: -0.001,
            of_var: 0.04,
            oa_mean: 0.0005,
            oa_var: 0.01,
            chi2: 1.12,
            spread_skill: 0.93,
            rank_hist: vec![3, 5, 9, 5, 2],
        }
    }

    #[test]
    fn json_round_trip() {
        let d = sample();
        let text = d.to_json().to_string();
        let back = DaDiagnostics::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn missing_fields_are_rejected() {
        let mut d = sample().to_json();
        if let Json::Obj(pairs) = &mut d {
            pairs.retain(|(k, _)| k != "chi2");
        }
        let err = DaDiagnostics::from_json(&d).unwrap_err();
        assert!(err.contains("chi2"), "{err}");
        assert!(DaDiagnostics::from_json(&Json::Arr(Vec::new())).is_err());
    }

    #[test]
    fn negative_histogram_counts_are_rejected() {
        let mut d = sample().to_json();
        if let Json::Obj(pairs) = &mut d {
            for (k, v) in pairs.iter_mut() {
                if k == "rank_hist" {
                    *v = Json::Arr(vec![Json::Int(-1)]);
                }
            }
        }
        assert!(DaDiagnostics::from_json(&d).is_err());
    }
}
