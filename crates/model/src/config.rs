//! Input configurations (§4.2).
//!
//! Every data source `xᵢ` produces at one rate drawn from a finite set `Rᵢ`.
//! The Cartesian product `C = R₁ × … × Rₜ` is the set of *input
//! configurations*; the probability mass function `P_C : C → [0,1]` gives the
//! expected fraction of a billing period spent in each configuration.

use crate::error::ModelError;
use crate::graph::{ApplicationGraph, ComponentId};
use serde::{DeError, Deserialize, Serialize, Value};

/// Identifier of an input configuration: a flat index into the Cartesian
/// product of the per-source rate sets (mixed-radix encoding, first source is
/// the most significant digit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConfigId(pub u32);

impl ConfigId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The discrete space of input configurations with its probability mass
/// function.
///
/// Deserialization runs the checks of [`ConfigSpace::new`] and recomputes
/// the strides; the serialized `strides` are never read.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConfigSpace {
    /// Sources, in the order their rates are encoded (must match the graph's
    /// dense source order).
    source_ids: Vec<ComponentId>,
    /// `rates[i]` is the rate set `Rᵢ` (tuples/second) of source `i`.
    rates: Vec<Vec<f64>>,
    /// Flat probability table over the Cartesian product, `P_C`.
    probs: Vec<f64>,
    /// Mixed-radix strides: `config = Σ idx[i] * strides[i]`.
    strides: Vec<usize>,
}

impl ConfigSpace {
    /// Build a configuration space with a *joint* probability table over the
    /// Cartesian product of per-source rate sets.
    ///
    /// `rates[i]` lists the possible rates of the `i`-th source in
    /// `graph.sources()` order; `probs` has one entry per configuration in
    /// mixed-radix order.
    pub fn new(
        graph: &ApplicationGraph,
        rates: Vec<Vec<f64>>,
        probs: Vec<f64>,
    ) -> Result<Self, ModelError> {
        Self::from_parts(graph.sources().to_vec(), rates, probs)
    }

    /// The checks behind [`ConfigSpace::new`] and deserialization.
    fn from_parts(
        source_ids: Vec<ComponentId>,
        rates: Vec<Vec<f64>>,
        probs: Vec<f64>,
    ) -> Result<Self, ModelError> {
        if rates.len() != source_ids.len() {
            return Err(ModelError::InvalidRateSet(u32::MAX));
        }
        for (i, r) in rates.iter().enumerate() {
            if r.is_empty() || r.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err(ModelError::InvalidRateSet(source_ids[i].0));
            }
        }
        let total: usize = rates.iter().map(Vec::len).product();
        if probs.len() != total {
            return Err(ModelError::ProbabilityLength {
                expected: total,
                actual: probs.len(),
            });
        }
        for &p in &probs {
            if !p.is_finite() || p < 0.0 {
                return Err(ModelError::InvalidProbability(p));
            }
        }
        let sum: f64 = probs.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(ModelError::ProbabilityMass(sum));
        }
        let mut strides = vec![1usize; rates.len()];
        for i in (0..rates.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * rates[i + 1].len();
        }
        Ok(Self {
            source_ids,
            rates,
            probs,
            strides,
        })
    }

    /// Build a configuration space assuming the sources are *independent*:
    /// `per_source[i]` is a list of `(rate, probability)` pairs for source `i`.
    pub fn independent(
        graph: &ApplicationGraph,
        per_source: Vec<Vec<(f64, f64)>>,
    ) -> Result<Self, ModelError> {
        let rates = per_source
            .iter()
            .map(|s| s.iter().map(|&(r, _)| r).collect())
            .collect();
        // Mixed-radix order: each source splits every entry built so far.
        let mut probs = vec![1.0f64];
        for s in &per_source {
            probs = probs
                .iter()
                .flat_map(|&p| s.iter().map(move |&(_, q)| p * q))
                .collect();
        }
        Self::new(graph, rates, probs)
    }

    /// Number of data sources.
    #[inline]
    pub fn num_sources(&self) -> usize {
        self.source_ids.len()
    }

    /// Number of input configurations `|C|`.
    #[inline]
    pub fn num_configs(&self) -> usize {
        self.probs.len()
    }

    /// Iterate all configuration ids.
    pub fn configs(&self) -> impl Iterator<Item = ConfigId> {
        (0..self.num_configs() as u32).map(ConfigId)
    }

    /// Probability `P_C(c)`.
    #[inline]
    pub fn prob(&self, c: ConfigId) -> f64 {
        self.probs[c.index()]
    }

    /// The rate set `Rᵢ` of the `i`-th source.
    #[inline]
    pub fn rate_set(&self, source_idx: usize) -> &[f64] {
        &self.rates[source_idx]
    }

    /// The sources covered by this space, in encoding order.
    #[inline]
    pub fn source_ids(&self) -> &[ComponentId] {
        &self.source_ids
    }

    /// Rate index of source `source_idx` in configuration `c`.
    #[inline]
    pub fn rate_index(&self, source_idx: usize, c: ConfigId) -> usize {
        (c.index() / self.strides[source_idx]) % self.rates[source_idx].len()
    }

    /// The output rate `Δ(xᵢ, c)` of the `i`-th source in configuration `c`
    /// (tuples per second).
    #[inline]
    pub fn source_rate(&self, source_idx: usize, c: ConfigId) -> f64 {
        self.rates[source_idx][self.rate_index(source_idx, c)]
    }

    /// The full rate vector of configuration `c`, one entry per source.
    pub fn rate_vector(&self, c: ConfigId) -> Vec<f64> {
        (0..self.num_sources())
            .map(|i| self.source_rate(i, c))
            .collect()
    }

    /// The configuration id for per-source rate indices, one per source in
    /// encoding order.
    pub fn config_from_indices(&self, indices: impl IntoIterator<Item = usize>) -> ConfigId {
        let flat: usize = indices
            .into_iter()
            .zip(&self.strides)
            .map(|(i, s)| i * s)
            .sum();
        ConfigId(flat as u32)
    }

    /// The configuration whose rate vector dominates every other one
    /// (componentwise max; a repeated maximum takes its highest level
    /// index). This is the safe fallback when measured rates exceed all
    /// declared configurations.
    pub fn max_config(&self) -> ConfigId {
        self.config_from_indices(self.rates.iter().map(|levels| {
            let mut top = 0;
            for (l, &v) in levels.iter().enumerate() {
                if v >= levels[top] {
                    top = l;
                }
            }
            top
        }))
    }

    /// The configuration the HAController assumes for `measured` source
    /// rates (§4.6): the one whose rate vector dominates them (every
    /// component `≥`) with minimal L1 slack `Σ (cᵢ − mᵢ)`, or
    /// [`max_config`](Self::max_config) when none dominates — a NaN or +∞
    /// measurement included.
    ///
    /// The space is the full product `R₁ × … × Rₜ` and the slack is a sum
    /// of one term per source, monotone in that source's level, so the
    /// minimum is one choice per source: the smallest declared level `≥`
    /// the measured rate. Levels need not be sorted; a repeated level goes
    /// to its lowest index.
    ///
    /// # Panics
    ///
    /// If `measured` does not hold one rate per source.
    pub fn dominating_config(&self, measured: &[f64]) -> ConfigId {
        assert_eq!(measured.len(), self.num_sources());
        let mut flat = 0usize;
        for ((levels, &m), stride) in self.rates.iter().zip(measured).zip(&self.strides) {
            let mut pick = None;
            let mut pick_v = f64::INFINITY;
            for (l, &v) in levels.iter().enumerate() {
                if v >= m && v < pick_v {
                    pick = Some(l);
                    pick_v = v;
                }
            }
            let Some(l) = pick else {
                return self.max_config();
            };
            flat += l * stride;
        }
        ConfigId(flat as u32)
    }

    /// Expected (probability-weighted) rate of source `source_idx`.
    pub fn expected_source_rate(&self, source_idx: usize) -> f64 {
        self.configs()
            .map(|c| self.prob(c) * self.source_rate(source_idx, c))
            .sum()
    }
}

impl Deserialize for ConfigSpace {
    fn deser(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("ConfigSpace object", v))?;
        let field = |name| obj.get(name).unwrap_or(&Value::Null);
        Self::from_parts(
            Deserialize::deser(field("source_ids"))?,
            Deserialize::deser(field("rates"))?,
            Deserialize::deser(field("probs"))?,
        )
        .map_err(|e| DeError(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn graph_two_sources() -> ApplicationGraph {
        let mut b = GraphBuilder::new();
        let s1 = b.add_source("s1");
        let s2 = b.add_source("s2");
        let p = b.add_pe("p");
        let k = b.add_sink("k");
        b.connect(s1, p, 1.0, 1.0).unwrap();
        b.connect(s2, p, 1.0, 1.0).unwrap();
        b.connect_sink(p, k).unwrap();
        b.build().unwrap()
    }

    fn graph_one_source() -> ApplicationGraph {
        let mut b = GraphBuilder::new();
        let s = b.add_source("s");
        let p = b.add_pe("p");
        let k = b.add_sink("k");
        b.connect(s, p, 1.0, 1.0).unwrap();
        b.connect_sink(p, k).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn low_high_single_source() {
        let g = graph_one_source();
        let cs = ConfigSpace::new(&g, vec![vec![4.0, 8.0]], vec![0.8, 0.2]).unwrap();
        assert_eq!(cs.num_configs(), 2);
        assert_eq!(cs.source_rate(0, ConfigId(0)), 4.0);
        assert_eq!(cs.source_rate(0, ConfigId(1)), 8.0);
        assert_eq!(cs.prob(ConfigId(0)), 0.8);
        assert!((cs.expected_source_rate(0) - (0.8 * 4.0 + 0.2 * 8.0)).abs() < 1e-12);
    }

    #[test]
    fn cartesian_product_two_sources() {
        let g = graph_two_sources();
        let cs = ConfigSpace::new(
            &g,
            vec![vec![1.0, 2.0], vec![10.0, 20.0, 30.0]],
            vec![0.1, 0.1, 0.1, 0.2, 0.2, 0.3],
        )
        .unwrap();
        assert_eq!(cs.num_configs(), 6);
        // First source is the most significant digit.
        assert_eq!(cs.rate_vector(ConfigId(0)), vec![1.0, 10.0]);
        assert_eq!(cs.rate_vector(ConfigId(2)), vec![1.0, 30.0]);
        assert_eq!(cs.rate_vector(ConfigId(3)), vec![2.0, 10.0]);
        assert_eq!(cs.rate_vector(ConfigId(5)), vec![2.0, 30.0]);
    }

    #[test]
    fn config_from_indices_round_trip() {
        let g = graph_two_sources();
        let cs = ConfigSpace::new(
            &g,
            vec![vec![1.0, 2.0], vec![10.0, 20.0, 30.0]],
            vec![1.0 / 6.0; 6],
        )
        .unwrap();
        for c in cs.configs() {
            assert_eq!(
                cs.config_from_indices((0..2).map(|i| cs.rate_index(i, c))),
                c
            );
        }
    }

    #[test]
    fn independent_probabilities_multiply() {
        let g = graph_two_sources();
        let cs = ConfigSpace::independent(
            &g,
            vec![vec![(1.0, 0.8), (2.0, 0.2)], vec![(10.0, 0.5), (20.0, 0.5)]],
        )
        .unwrap();
        assert_eq!(cs.num_configs(), 4);
        assert!((cs.prob(ConfigId(0)) - 0.4).abs() < 1e-12);
        // The first source is the most significant digit.
        assert!((cs.prob(ConfigId(1)) - 0.4).abs() < 1e-12);
        assert!((cs.prob(ConfigId(3)) - 0.1).abs() < 1e-12);
        let total: f64 = cs.configs().map(|c| cs.prob(c)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn max_config_dominates() {
        let g = graph_two_sources();
        let cs = ConfigSpace::new(
            &g,
            vec![vec![2.0, 1.0], vec![10.0, 30.0, 20.0]],
            vec![1.0 / 6.0; 6],
        )
        .unwrap();
        let m = cs.max_config();
        let mv = cs.rate_vector(m);
        for c in cs.configs() {
            let v = cs.rate_vector(c);
            for (a, b) in mv.iter().zip(&v) {
                assert!(a >= b);
            }
        }
    }

    #[test]
    fn dominating_config_snaps_each_source_to_its_smallest_covering_level() {
        let g = graph_two_sources();
        let cs = ConfigSpace::new(
            &g,
            vec![vec![2.0, 1.0], vec![10.0, 30.0, 20.0]],
            vec![1.0 / 6.0; 6],
        )
        .unwrap();
        let pick = |m: &[f64]| cs.rate_vector(cs.dominating_config(m));
        assert_eq!(pick(&[1.5, 15.0]), vec![2.0, 20.0]);
        assert_eq!(pick(&[0.5, 10.0]), vec![1.0, 10.0]);
        assert_eq!(pick(&[1.0, 20.0]), vec![1.0, 20.0], "a level covers itself");
        assert_eq!(pick(&[0.0, 20.5]), vec![1.0, 30.0]);
        // Above every level of one source: the componentwise max, not a
        // per-source clamp.
        assert_eq!(cs.dominating_config(&[2.5, 10.0]), cs.max_config());
    }

    #[test]
    fn non_finite_measurements_select_max_config() {
        let g = graph_two_sources();
        let cs = ConfigSpace::new(&g, vec![vec![4.0, 8.0], vec![1.0, 2.0]], vec![0.25; 4]).unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            assert_eq!(cs.dominating_config(&[bad, 1.0]), cs.max_config());
            assert_eq!(cs.dominating_config(&[4.0, bad]), cs.max_config());
        }
        assert_eq!(cs.dominating_config(&[f64::NEG_INFINITY, 1.0]), ConfigId(0));
    }

    #[test]
    fn repeated_level_goes_to_its_lowest_index() {
        let g = graph_one_source();
        let cs = ConfigSpace::new(&g, vec![vec![2.0, 8.0, 8.0]], vec![0.5, 0.25, 0.25]).unwrap();
        assert_eq!(cs.dominating_config(&[5.0]), ConfigId(1));
        assert_eq!(cs.dominating_config(&[8.0]), ConfigId(1));
        // `max_config` keeps its highest-index rule.
        assert_eq!(cs.max_config(), ConfigId(2));
    }

    #[test]
    fn bad_probability_mass_rejected() {
        let g = graph_one_source();
        let err = ConfigSpace::new(&g, vec![vec![4.0, 8.0]], vec![0.8, 0.1]).unwrap_err();
        assert!(matches!(err, ModelError::ProbabilityMass(_)));
    }

    #[test]
    fn wrong_probability_length_rejected() {
        let g = graph_one_source();
        let err = ConfigSpace::new(&g, vec![vec![4.0, 8.0]], vec![1.0]).unwrap_err();
        assert_eq!(
            err,
            ModelError::ProbabilityLength {
                expected: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn negative_rate_rejected() {
        let g = graph_one_source();
        let err = ConfigSpace::new(&g, vec![vec![-4.0]], vec![1.0]).unwrap_err();
        assert!(matches!(err, ModelError::InvalidRateSet(_)));
    }

    #[test]
    fn serde_round_trip() {
        let g = graph_one_source();
        let cs = ConfigSpace::new(&g, vec![vec![4.0, 8.0]], vec![0.8, 0.2]).unwrap();
        let s = serde_json::to_string(&cs).unwrap();
        let cs2: ConfigSpace = serde_json::from_str(&s).unwrap();
        assert_eq!(cs, cs2);
    }

    #[test]
    fn deserialization_validates_and_recomputes_strides() {
        let g = graph_two_sources();
        let cs = ConfigSpace::new(
            &g,
            vec![vec![1.0, 2.0], vec![10.0, 20.0, 30.0]],
            vec![1.0 / 6.0; 6],
        )
        .unwrap();
        let s = serde_json::to_string(&cs).unwrap();
        assert!(s.contains("\"strides\":[3,1]"), "{s}");
        let edited: ConfigSpace =
            serde_json::from_str(&s.replace("\"strides\":[3,1]", "\"strides\":[7,0]")).unwrap();
        assert_eq!(edited, cs);
        let bad = s.replace("\"rates\":[[1,2],", "\"rates\":[[1,-5],");
        assert!(serde_json::from_str::<ConfigSpace>(&bad).is_err());
    }
}
