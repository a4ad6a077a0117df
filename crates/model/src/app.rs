//! The complete application contract: graph + descriptor + billing period.
//!
//! In the paper's service model (§3), a customer-provider contract bundles
//! the stream processing application, its descriptor (PE selectivities,
//! per-tuple CPU costs, source rate distributions), and the SLA. Here the
//! descriptor attributes live on the graph edges and the [`ConfigSpace`];
//! [`Application`] ties them together with the billing period `T`.

use crate::config::ConfigSpace;
use crate::error::ModelError;
use crate::graph::ApplicationGraph;
use serde::{DeError, Deserialize, Serialize, Value};

/// A validated stream processing application with its descriptor.
///
/// Deserialization goes through [`Application::new`] (and the
/// configuration space through [`ConfigSpace::new`]'s checks), so a
/// contract read from JSON is checked like one built in code.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Application {
    /// Application name (used in corpus reports).
    pub name: String,
    graph: ApplicationGraph,
    configs: ConfigSpace,
    /// Billing period `T` in seconds.
    billing_period: f64,
}

impl Application {
    /// Bundle a graph, its configuration space, and the billing period `T`
    /// (seconds). The configuration space must have been built against the
    /// same graph.
    pub fn new(
        name: &str,
        graph: ApplicationGraph,
        configs: ConfigSpace,
        billing_period: f64,
    ) -> Result<Self, ModelError> {
        if !(billing_period.is_finite() && billing_period > 0.0) {
            return Err(ModelError::InvalidBillingPeriod(billing_period));
        }
        if configs.source_ids() != graph.sources() {
            return Err(ModelError::InvalidRateSet(u32::MAX));
        }
        Ok(Self {
            name: name.to_owned(),
            graph,
            configs,
            billing_period,
        })
    }

    /// The dataflow graph.
    #[inline]
    pub fn graph(&self) -> &ApplicationGraph {
        &self.graph
    }

    /// The input configuration space and its probability mass function.
    #[inline]
    pub fn configs(&self) -> &ConfigSpace {
        &self.configs
    }

    /// Billing period `T` in seconds.
    #[inline]
    pub fn billing_period(&self) -> f64 {
        self.billing_period
    }

    /// Serialize the whole contract to pretty JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("application serializes")
    }

    /// Parse a contract back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

impl Deserialize for Application {
    fn deser(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("Application object", v))?;
        let field = |name| obj.get(name).unwrap_or(&Value::Null);
        let name: String = Deserialize::deser(field("name"))?;
        Self::new(
            &name,
            Deserialize::deser(field("graph"))?,
            Deserialize::deser(field("configs"))?,
            Deserialize::deser(field("billing_period"))?,
        )
        .map_err(|e| DeError(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn app() -> Application {
        let mut b = GraphBuilder::new();
        let s = b.add_source("s");
        let p = b.add_pe("p");
        let k = b.add_sink("k");
        b.connect(s, p, 1.0, 1.0e8).unwrap();
        b.connect_sink(p, k).unwrap();
        let g = b.build().unwrap();
        let cs = ConfigSpace::new(&g, vec![vec![4.0, 8.0]], vec![0.8, 0.2]).unwrap();
        Application::new("demo", g, cs, 300.0).unwrap()
    }

    #[test]
    fn construction() {
        let a = app();
        assert_eq!(a.billing_period(), 300.0);
        assert_eq!(a.graph().num_pes(), 1);
        assert_eq!(a.configs().num_configs(), 2);
    }

    #[test]
    fn non_positive_billing_period_rejected() {
        let a = app();
        let err = Application::new("x", a.graph().clone(), a.configs().clone(), 0.0).unwrap_err();
        assert_eq!(err, ModelError::InvalidBillingPeriod(0.0));
    }

    #[test]
    fn json_round_trip() {
        let a = app();
        let j = a.to_json_pretty();
        let a2 = Application::from_json(&j).unwrap();
        assert_eq!(a, a2);
    }

    /// The compact contract with `from` (which must occur) replaced by `to`.
    fn edited(from: &str, to: &str) -> Result<Application, serde_json::Error> {
        let j = serde_json::to_string(&app()).unwrap();
        assert!(j.contains(from), "{from} not in {j}");
        Application::from_json(&j.replace(from, to))
    }

    #[test]
    fn contract_json_is_checked_like_the_constructors() {
        let probs = "\"probs\":[0.8,0.2]";
        let rates = "\"rates\":[[4,8]]";
        let rejected = [
            (
                "\"probs\":[0.8,0.2],\"rates\":[[4,8]]",
                "\"probs\":[1],\"rates\":[[]]",
                "empty or invalid rate set",
            ),
            (probs, "\"probs\":[0.9,0.9]", "sum to 1.8"),
            (rates, "\"rates\":[[-5,8]]", "empty or invalid rate set"),
            (probs, "\"probs\":[1]", "has length 1, expected 2"),
            (
                "\"rates\":[[4,8]],\"source_ids\":[0]",
                "\"rates\":[[4,8],[1]],\"source_ids\":[0,1]",
                "empty or invalid rate set",
            ),
            (
                "\"source_ids\":[0]",
                "\"source_ids\":[9]",
                "empty or invalid rate set",
            ),
            ("\"billing_period\":300", "\"billing_period\":0", "billing"),
        ];
        for (from, to, why) in rejected {
            let err = edited(from, to).unwrap_err().to_string();
            assert!(err.contains(why), "{to}: {err}");
        }
        // Strides are recomputed, never read.
        assert_eq!(edited("\"strides\":[1]", "\"strides\":[7]").unwrap(), app());
    }
}
