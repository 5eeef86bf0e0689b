//! Synthetic stock-quote workload.
//!
//! The paper replays Yahoo! Finance daily closing data because real
//! stock series "do not follow any well-defined distribution pattern".
//! We cannot ship that dataset, so this module synthesizes daily OHLCV
//! series with a geometric random walk plus volume bursts — preserving
//! the property that matters (skewed, correlated, distribution-free
//! attribute values) while emitting the paper's exact publication
//! schema:
//!
//! ```text
//! [class,'STOCK'],[symbol,'YHOO'],[open,18.37],[high,18.6],[low,18.37],
//! [close,18.37],[volume,6200],[date,'5-Sep-96'],[openClose%Diff,0.0],
//! [highLow%Diff,0.014],[closeEqualsLow,'true'],[closeEqualsHigh,'false']
//! ```

use greenps_pubsub::ids::{AdvId, MsgId};
use greenps_pubsub::message::{AttrNames, Publication};
use greenps_pubsub::value::Value;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One synthetic trading day.
#[derive(Debug, Clone, PartialEq)]
pub struct DailyQuote {
    /// Opening price.
    pub open: f64,
    /// Daily high.
    pub high: f64,
    /// Daily low.
    pub low: f64,
    /// Closing price.
    pub close: f64,
    /// Shares traded.
    pub volume: i64,
    /// Date string, `d-Mon-yy`.
    pub date: String,
}

/// A synthetic daily series for one stock symbol.
#[derive(Debug, Clone)]
pub struct StockSeries {
    /// Ticker symbol.
    pub symbol: String,
    /// The trading days, oldest first.
    pub days: Vec<DailyQuote>,
    /// The name table every publication of the series is built on.
    names: AttrNames,
}

/// The paper's stock-quote schema, in publication order.
const ATTRS: [&str; 12] = [
    "class",
    "symbol",
    "open",
    "high",
    "low",
    "close",
    "volume",
    "date",
    "openClose%Diff",
    "highLow%Diff",
    "closeEqualsLow",
    "closeEqualsHigh",
];

const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

impl StockSeries {
    /// Generates `days` trading days for `symbol`, deterministically
    /// from `seed`.
    ///
    /// # Panics
    /// Panics if `days` is zero.
    pub fn generate(symbol: impl Into<String>, seed: u64, days: usize) -> Self {
        assert!(days > 0, "need at least one trading day");
        let symbol = symbol.into();
        let mut rng = StdRng::seed_from_u64(seed);
        // Per-stock personality: starting price, drift, volatility.
        let mut price = rng.gen_range(5.0..150.0f64);
        let drift = rng.gen_range(-0.0005..0.0015f64);
        let vol = rng.gen_range(0.005..0.04f64);
        let base_volume = rng.gen_range(1_000..500_000i64);

        let mut out = Vec::with_capacity(days);
        // One month name per 28-day block, cycling through the year.
        let months = MONTHS
            .iter()
            .cycle()
            .flat_map(|m| std::iter::repeat_n(m, 28));
        for (d, month) in (0..days).zip(months) {
            let z: f64 = {
                // Box–Muller from two uniforms.
                let u1: f64 = rng.gen_range(1e-9..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            };
            let open = price;
            let close = (price * (drift + vol * z).exp()).max(0.01);
            let spread = vol * price * rng.gen_range(0.2..1.5);
            let high = open.max(close) + spread * rng.gen_range(0.0..1.0);
            let low = (open.min(close) - spread * rng.gen_range(0.0..1.0)).max(0.01);
            // Volume bursts on big moves.
            let burst = 1.0 + 8.0 * ((close - open).abs() / open);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "synthetic daily volume is bounded by base_volume and the burst factor; rounds toward zero by design"
            )]
            let volume = ((base_volume as f64) * burst * rng.gen_range(0.5..2.0)) as i64;
            let year = 96 + (d / 252) % 30;
            let date = format!("{}-{}-{}", 1 + d % 28, month, year);
            out.push(DailyQuote {
                open: round2(open),
                high: round2(high),
                low: round2(low),
                close: round2(close),
                volume,
                date,
            });
            price = close;
        }
        Self {
            symbol,
            days: out,
            names: ATTRS.into_iter().collect(),
        }
    }

    /// The quote for the publication with message id `msg` (the series
    /// replays cyclically like the paper's trace).
    pub fn quote(&self, msg: MsgId) -> &DailyQuote {
        // Reduce modulo the series length in `u64` first: the remainder
        // always fits `usize`, unlike the raw message id on 32-bit.
        let idx = usize::try_from(msg.raw() % self.days.len() as u64).unwrap_or(0);
        &self.days[idx]
    }

    /// Builds the full publication for one message id.
    pub fn publication(&self, adv: AdvId, msg: MsgId) -> Publication {
        let q = self.quote(msg);
        let open_close = if q.open == 0.0 {
            0.0
        } else {
            round3((q.close - q.open).abs() / q.open)
        };
        let high_low = if q.high == 0.0 {
            0.0
        } else {
            round3((q.high - q.low) / q.high)
        };
        let values: [Value; ATTRS.len()] = [
            "STOCK".into(),
            self.symbol.as_str().into(),
            q.open.into(),
            q.high.into(),
            q.low.into(),
            q.close.into(),
            q.volume.into(),
            q.date.as_str().into(),
            open_close.into(),
            high_low.into(),
            (q.close == q.low).into(),
            (q.close == q.high).into(),
        ];
        Publication::with_names(adv, msg, &self.names, values.into())
            .expect("one value per name in ATTRS")
    }

    /// The value range of a numeric attribute over the series — used to
    /// draw inequality thresholds with meaningful selectivity.
    pub fn attr_range(&self, attr: &str) -> Option<(f64, f64)> {
        let vals: Vec<f64> = self
            .days
            .iter()
            .map(|q| match attr {
                "open" => Some(q.open),
                "high" => Some(q.high),
                "low" => Some(q.low),
                "close" => Some(q.close),
                "volume" => Some(q.volume as f64),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some((lo, hi))
    }
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// A default symbol universe (real tickers, synthetic data).
pub fn symbols(n: usize) -> Vec<String> {
    const BASE: [&str; 24] = [
        "YHOO", "GOOG", "MSFT", "IBM", "AAPL", "ORCL", "INTC", "CSCO", "DELL", "HPQ", "SUNW",
        "AMZN", "EBAY", "TXN", "AMD", "NVDA", "QCOM", "MOT", "NOK", "SAP", "ADBE", "EMC", "JNPR",
        "RHAT",
    ];
    (0..n)
        .map(|i| match BASE.get(i) {
            Some(sym) => (*sym).to_string(),
            None => format!("SYM{i:03}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = StockSeries::generate("YHOO", 7, 100);
        let b = StockSeries::generate("YHOO", 7, 100);
        assert_eq!(a.days, b.days);
        let c = StockSeries::generate("YHOO", 8, 100);
        assert_ne!(a.days, c.days);
    }

    #[test]
    fn quotes_are_well_formed() {
        let s = StockSeries::generate("GOOG", 3, 500);
        for q in &s.days {
            assert!(q.low <= q.open.min(q.close) + 1e-9, "{q:?}");
            assert!(q.high >= q.open.max(q.close) - 1e-9, "{q:?}");
            assert!(q.low > 0.0 && q.volume > 0);
        }
    }

    #[test]
    fn publication_schema_matches_paper() {
        let s = StockSeries::generate("YHOO", 1, 10);
        let p = s.publication(AdvId::new(1), MsgId::new(3));
        assert_eq!(p.iter().map(|(a, _)| a).collect::<Vec<_>>(), ATTRS);
        assert_eq!(p.get("class").unwrap().as_str(), Some("STOCK"));
        assert_eq!(p.get("symbol").unwrap().as_str(), Some("YHOO"));
        assert_eq!(p.get("volume"), Some(&Value::Int(s.days[3].volume)));
        assert!(p.get("closeEqualsHigh").and_then(Value::as_bool).is_some());
        assert!(p.same_names(&s.publication(AdvId::new(1), MsgId::new(4))));
    }

    #[test]
    fn series_replays_cyclically() {
        let s = StockSeries::generate("IBM", 2, 10);
        assert_eq!(s.quote(MsgId::new(3)), s.quote(MsgId::new(13)));
    }

    #[test]
    fn attr_range_covers_values() {
        let s = StockSeries::generate("MSFT", 5, 200);
        let (lo, hi) = s.attr_range("close").unwrap();
        assert!(lo < hi);
        for q in &s.days {
            assert!(q.close >= lo && q.close <= hi);
        }
        assert!(s.attr_range("bogus").is_none());
    }

    #[test]
    fn symbol_universe() {
        let syms = symbols(30);
        assert_eq!(syms.len(), 30);
        assert_eq!(syms[0], "YHOO");
        assert_eq!(syms[29], "SYM029");
        // unique
        let set: std::collections::HashSet<_> = syms.iter().collect();
        assert_eq!(set.len(), 30);
    }

    #[test]
    #[should_panic(expected = "at least one trading day")]
    fn zero_days_panics() {
        let _ = StockSeries::generate("X", 0, 0);
    }
}
