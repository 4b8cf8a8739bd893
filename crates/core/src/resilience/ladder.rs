//! The analysis ladder: every face of [`crate::cycle::run_cycles`] climbs
//! the same rungs, and [`decide_rung`] is the only code that picks one.

/// Which analysis a cycle runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The cycle's scheme.
    Primary,
    /// The `fallback` scheme: LETKF behind EnSF, or the sharded EnSF at the
    /// deadline's reduced step count.
    Fallback,
    /// No analysis: the forecast is carried forward.
    ForecastOnly,
}

/// Why [`decide_rung`] chose its rung; all but `Fits` and `Retry` are events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// The cycle has no observations to assimilate.
    Unobserved,
    /// The primary fits the budget, or nothing is priced.
    Fits,
    /// The primary's candidate was not finite and retries are left.
    Retry,
    /// The retries are spent: the fallback gets one try.
    RetryExhausted,
    /// Every analysis there was failed.
    AnalysisFailed,
    /// The primary misses the budget and the fallback fits it.
    DeadlineDegraded,
    /// No analysis fits the budget.
    DeadlineForecastOnly,
}

/// What the loop knows when it decides.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ladder {
    /// Whether the cycle's observations arrived.
    pub observed: bool,
    /// The rung whose candidate was just found non-finite; `None` before a
    /// cycle's first attempt and after a shrink, when the choice starts
    /// over at the survivors' prices.
    pub failed: Option<Rung>,
    /// Retries the primary has had this cycle.
    pub retries: usize,
    /// Retries the health policy allows (0 without one).
    pub max_retries: usize,
    /// Modelled seconds of one primary attempt now; `None` is unpriced.
    pub primary: Option<f64>,
    /// The same for the fallback; the outer `None` means there is none.
    pub fallback: Option<Option<f64>>,
    /// Modelled seconds one attempt may cost; `None` never binds.
    pub budget: Option<f64>,
}

/// The rung the cycle's next attempt runs and the rule that chose it,
/// asked before the first attempt and after every one that did not stand.
/// A failed primary is retried while retries are left, then the fallback
/// gets one try, then the cycle runs forecast-only; otherwise the most
/// capable rung whose price fits the budget wins. Pure, so every rank
/// lands on the same rung.
pub fn decide_rung(ladder: &Ladder) -> (Rung, Rule) {
    let fits = |price: Option<f64>| price.zip(ladder.budget).is_none_or(|(p, b)| p <= b);
    match ladder.failed {
        _ if !ladder.observed => (Rung::ForecastOnly, Rule::Unobserved),
        Some(Rung::Primary) if ladder.retries < ladder.max_retries => (Rung::Primary, Rule::Retry),
        Some(Rung::Primary) if ladder.fallback.is_some() => (Rung::Fallback, Rule::RetryExhausted),
        Some(_) => (Rung::ForecastOnly, Rule::AnalysisFailed),
        None if fits(ladder.primary) => (Rung::Primary, Rule::Fits),
        None if ladder.fallback.is_some_and(fits) => (Rung::Fallback, Rule::DeadlineDegraded),
        None => (Rung::ForecastOnly, Rule::DeadlineForecastOnly),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const START: Ladder = Ladder {
        observed: true,
        failed: None,
        retries: 0,
        max_retries: 2,
        primary: None,
        fallback: None,
        budget: None,
    };

    #[test]
    fn one_table_covers_every_rule() {
        use Rule::*;
        use Rung::{Fallback, ForecastOnly, Primary};
        let failed = Some(Primary);
        let over = Ladder { primary: Some(2.0), budget: Some(1.0), ..START };
        let cases = [
            ("no observations", Ladder { observed: false, ..START }, ForecastOnly, Unobserved),
            ("unpriced under a budget", Ladder { budget: Some(1.0), ..START }, Primary, Fits),
            ("priced without a budget", Ladder { primary: Some(9.0), ..START }, Primary, Fits),
            ("priced within budget", Ladder { primary: Some(1.0), ..over }, Primary, Fits),
            (
                "over budget, fallback fits",
                Ladder { fallback: Some(Some(0.5)), ..over },
                Fallback,
                DeadlineDegraded,
            ),
            (
                "over budget, unpriced fallback",
                Ladder { fallback: Some(None), ..over },
                Fallback,
                DeadlineDegraded,
            ),
            (
                "nothing fits",
                Ladder { fallback: Some(Some(1.5)), ..over },
                ForecastOnly,
                DeadlineForecastOnly,
            ),
            ("over budget without a fallback", over, ForecastOnly, DeadlineForecastOnly),
            ("retry budget left", Ladder { failed, retries: 1, ..START }, Primary, Retry),
            (
                "retries exhausted, fallback next",
                Ladder { failed, retries: 2, fallback: Some(None), ..START },
                Fallback,
                RetryExhausted,
            ),
            (
                "retries exhausted, no fallback",
                Ladder { failed, retries: 2, ..START },
                ForecastOnly,
                AnalysisFailed,
            ),
            (
                "no policy, no retry",
                Ladder { failed, max_retries: 0, ..START },
                ForecastOnly,
                AnalysisFailed,
            ),
            (
                "the fallback failed too",
                Ladder { failed: Some(Fallback), retries: 2, fallback: Some(None), ..START },
                ForecastOnly,
                AnalysisFailed,
            ),
            // A shrink clears `failed`: the choice starts over at the
            // survivors' prices, whatever the retry count.
            (
                "a shrink mid-retries decides by price",
                Ladder { retries: 1, fallback: Some(Some(0.3)), ..over },
                Fallback,
                DeadlineDegraded,
            ),
            (
                "a shrink that prices the fallback out",
                Ladder { primary: Some(4.0), fallback: Some(Some(1.2)), ..over },
                ForecastOnly,
                DeadlineForecastOnly,
            ),
        ];
        for (what, ladder, rung, rule) in cases {
            assert_eq!(decide_rung(&ladder), (rung, rule), "{what}");
        }
    }
}
